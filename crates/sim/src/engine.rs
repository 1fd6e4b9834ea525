use crate::env::SimEnv;
use crate::job::{Job, JobRecord, JobStream};
use crate::ledger::EnergyLedger;
use crate::outcome::{EpochOutcome, LadderTable, Residency, SimOutcome};
use sleepscale_dist::SummaryStats;
use sleepscale_journal::{ByteReader, ByteWriter, CodecError, Snapshot};
use sleepscale_power::{Frequency, Policy, SleepProgram, SleepStage, SystemState, Watts};
use sleepscale_telemetry::{TraceBuffer, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`Policy`] resolved once against a [`SimEnv`]: everything the
/// per-job step ([`OnlineSim::serve`]) reads, with the power arithmetic
/// done. It holds the active draw and service-time multiplier at the
/// policy's frequency, and each sleep stage with its draw at that
/// frequency.
///
/// Resolve a policy once per environment and epoch, not per job, and
/// serve it only on simulators built on the environment it was
/// resolved against: the resolution carries that environment's power
/// model, and serving it elsewhere would charge another machine's
/// watts.
#[derive(Debug, Clone)]
pub struct ResolvedPolicy {
    /// The idle program a server installs after serving under this
    /// policy; its active draw is also the serving draw.
    idle: IdleProgram,
    service_multiplier: f64,
}

impl ResolvedPolicy {
    /// Resolves `policy` against `env`: each draw is
    /// [`sleepscale_power::SystemPowerModel::power`] at the policy's
    /// frequency and the multiplier is
    /// [`sleepscale_power::FrequencyScaling::service_multiplier`], bit
    /// for bit.
    pub fn new(policy: &Policy, env: &SimEnv) -> ResolvedPolicy {
        let frequency = policy.frequency();
        ResolvedPolicy {
            idle: IdleProgram::new(policy.program(), frequency, env),
            service_multiplier: env.scaling().service_multiplier(frequency),
        }
    }

    /// Whether this is a resolution of `policy` bit for bit (same
    /// frequency bits, same stages with the same delay and latency
    /// bits), so the two can stand in for each other anywhere.
    pub fn is_resolution_of(&self, policy: &Policy) -> bool {
        let stages = policy.program().stages();
        self.idle.frequency.get().to_bits() == policy.frequency().get().to_bits()
            && self.idle.rungs().len() == stages.len()
            && self.idle.rungs().iter().zip(stages).all(|(rung, stage)| {
                rung.state == stage.state()
                    && rung.enter_after.to_bits() == stage.enter_after().to_bits()
                    && rung.wake_latency.to_bits() == stage.wake_latency().to_bits()
            })
    }
}

/// The source of [`IdleProgram`] identities: unique for the life of the
/// process, so equal identities mean one resolution. The counter
/// publishes no other data, so its increments need no ordering.
static NEXT_RESOLUTION: AtomicU64 = AtomicU64::new(1);

/// A sleep program resolved at one frequency against one environment:
/// what an idle gap under it draws, stage by stage.
#[derive(Debug, Clone)]
struct IdleProgram {
    /// The resolution this program was copied from. A server compares
    /// identities, not programs, to skip re-installing the program it
    /// already runs.
    id: u64,
    frequency: Frequency,
    /// `C0(a)S0(a)` at `frequency`: the pre-`τ_1` idle draw.
    active_watts: Watts,
    rungs: Rungs,
}

/// Two programs are equal when [`SleepProgram`] and [`Frequency`]
/// equality would call them equal; the identity and the derived watts
/// do not take part.
impl PartialEq for IdleProgram {
    fn eq(&self, other: &IdleProgram) -> bool {
        self.frequency == other.frequency
            && self.rungs().len() == other.rungs().len()
            && self.rungs().iter().zip(other.rungs()).all(|(a, b)| {
                a.state == b.state
                    && a.enter_after == b.enter_after
                    && a.wake_latency == b.wake_latency
            })
    }
}

impl IdleProgram {
    /// Resolves `program` at `frequency` against `env`, as a new
    /// identity.
    fn new(program: &SleepProgram, frequency: Frequency, env: &SimEnv) -> IdleProgram {
        let power = env.power();
        let rung = |stage: &SleepStage| Rung {
            state: stage.state(),
            enter_after: stage.enter_after(),
            wake_latency: stage.wake_latency(),
            watts: power.power(stage.state(), frequency),
        };
        let stages = program.stages();
        let rungs = if stages.len() <= INLINE_RUNGS {
            let mut inline = [Rung::UNUSED; INLINE_RUNGS];
            for (slot, stage) in inline.iter_mut().zip(stages) {
                *slot = rung(stage);
            }
            Rungs::Inline { len: stages.len() as u8, rungs: inline }
        } else {
            Rungs::Heap(stages.iter().map(rung).collect())
        };
        IdleProgram {
            id: NEXT_RESOLUTION.fetch_add(1, Ordering::Relaxed),
            frequency,
            active_watts: power.power(SystemState::C0A_S0A, frequency),
            rungs,
        }
    }

    /// The program that never sleeps, at full speed: what parking,
    /// waking and finishing charge a gap under when no policy has
    /// installed a program yet.
    fn never_sleep(env: &SimEnv) -> IdleProgram {
        IdleProgram::new(&SleepProgram::never_sleep(), Frequency::MAX, env)
    }

    fn rungs(&self) -> &[Rung] {
        match &self.rungs {
            Rungs::Inline { len, rungs } => &rungs[..*len as usize],
            Rungs::Heap(rungs) => rungs,
        }
    }

    /// The rung occupied `elapsed_idle` seconds after the queue
    /// empties, as [`SleepProgram::stage_at`] finds it.
    fn stage_at(&self, elapsed_idle: f64) -> Option<Rung> {
        self.rungs().iter().rev().find(|r| r.enter_after <= elapsed_idle).copied()
    }

    /// Writes the `(SleepProgram, Frequency)` snapshot of the program.
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_usize(self.rungs().len());
        for rung in self.rungs() {
            rung.state.snapshot(w);
            w.put_f64(rung.enter_after);
            w.put_f64(rung.wake_latency);
        }
        self.frequency.snapshot(w);
    }
}

/// Sleep stages an [`IdleProgram`] holds without a heap allocation:
/// the paper's immediate single-stage programs and Figure 3's two-stage
/// ladders. Longer ladders live on the heap.
const INLINE_RUNGS: usize = 2;

#[derive(Debug, Clone)]
enum Rungs {
    Inline { len: u8, rungs: [Rung; INLINE_RUNGS] },
    Heap(Box<[Rung]>),
}

/// One resolved sleep stage: the stage and its draw at the program's
/// frequency.
#[derive(Debug, Clone, Copy)]
struct Rung {
    state: SystemState,
    enter_after: f64,
    wake_latency: f64,
    watts: Watts,
}

impl Rung {
    /// A placeholder for unused inline slots.
    const UNUSED: Rung = Rung {
        state: SystemState::C0I_S0I,
        enter_after: 0.0,
        wake_latency: 0.0,
        watts: Watts::ZERO,
    };
}

/// The server's condition carried between epochs: when its committed work
/// finishes and which sleep program/frequency governs the idle interval
/// that began (or will begin) at that instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CarryState {
    free_time: f64,
    idle: Option<IdleProgram>,
}

impl CarryState {
    /// A server idle since t = 0 whose idle behaviour defaults to the
    /// first policy it is given.
    pub fn new() -> CarryState {
        CarryState { free_time: 0.0, idle: None }
    }

    /// When the server's committed work completes (equivalently, when its
    /// current idle period began if in the past).
    pub fn free_time(&self) -> f64 {
        self.free_time
    }
}

/// What a server has accumulated: energy, time in state, wake-ups and,
/// when traced, events.
struct Books {
    ledger: EnergyLedger,
    residency: Residency,
    wakes_from: LadderTable<u64>,
    wakes_without_sleep: u64,
    // `None` (the default) keeps every code path byte-identical to the
    // untraced engine: each emit site pays exactly one `Option` check.
    trace: Option<TraceBuffer>,
}

/// Incremental FCFS + sleep-states simulator (the paper's Algorithm 1,
/// exact-event version).
///
/// Feed it one epoch at a time with [`OnlineSim::run_epoch`], or one job
/// at a time with [`OnlineSim::serve`]; policies may change between
/// epochs and energy is attributed exactly to per-epoch buckets via the
/// internal [`EnergyLedger`]. Call [`OnlineSim::finish`] at the end of
/// the trace to close the final idle interval.
///
/// # Model semantics
///
/// * An arrival into a non-empty system queues (FCFS).
/// * An arrival into an idle system triggers wake-up *immediately*; it
///   pays the wake latency of whichever sleep stage the server occupies
///   at that instant (none, if still in pre-`τ_1` active idle).
/// * Wake-up time is charged at active power (paper's conservative rule),
///   as is pre-`τ_1` idle (matching the appendix's `P_0` term).
/// * A job is served at the frequency of the epoch in which it *arrives*;
///   an idle interval follows the sleep program of the policy under which
///   the preceding busy period ran (re-programming a sleeping server
///   retroactively is physically meaningless).
///
/// # The per-job state
///
/// Everything the per-job step writes sits inline in the simulator: the
/// ledger's hot bucket and per-class totals ([`EnergyLedger`]), the
/// per-state residency and wake counts (the five low-power states are
/// the only ones a sleep stage can occupy), and a copy of the installed
/// idle program with its stages' watts. The copy is taken when a job is
/// first served under a new resolution, and skipped when the installed
/// program already equals it.
pub struct OnlineSim {
    state: CarryState,
    books: Books,
    env: SimEnv,
}

impl OnlineSim {
    /// A fresh simulator whose energy ledger buckets time every
    /// `bucket_width` seconds (use the epoch length to get per-epoch
    /// power).
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is not positive and finite.
    pub fn new(env: SimEnv, bucket_width: f64) -> OnlineSim {
        OnlineSim::with_ledger(env, EnergyLedger::new(bucket_width))
    }

    /// A fresh simulator accumulating into `ledger`.
    fn with_ledger(env: SimEnv, ledger: EnergyLedger) -> OnlineSim {
        OnlineSim {
            state: CarryState::new(),
            books: Books {
                ledger,
                residency: Residency::new(),
                wakes_from: LadderTable::default(),
                wakes_without_sleep: 0,
                trace: None,
            },
            env,
        }
    }

    /// Turns on structured event tracing, attributing events to slot
    /// `server`. Events accumulate in an internal [`TraceBuffer`] and
    /// come back from [`OnlineSim::finish_traced`]; the buffer is not
    /// part of the checkpoint state (checkpointed runs reject
    /// telemetry upstream).
    pub fn enable_trace(&mut self, server: u32) {
        self.books.trace = Some(TraceBuffer::new(server));
    }

    /// Simulates one epoch's arrivals under `policy`: [`OnlineSim::serve`]
    /// for each job, in order, with `policy` resolved once.
    ///
    /// `jobs` must be sorted by arrival and arrive at or after any
    /// previously processed job (the engine is single-pass). `epoch_end`
    /// is used only to report how far committed work overhangs the epoch.
    pub fn run_epoch(&mut self, jobs: &[Job], policy: &Policy, epoch_end: f64) -> EpochOutcome {
        let policy = ResolvedPolicy::new(policy, &self.env);
        let records = jobs.iter().map(|job| self.serve(job, &policy)).collect();
        EpochOutcome::new(records, (self.state.free_time - epoch_end).max(0.0))
    }

    /// Serves one arrival under `policy` and returns its record: an
    /// arrival into an idle server first closes the idle gap and wakes
    /// the server, then the job runs at the policy's frequency.
    ///
    /// `job` must arrive at or after every job served before it, and
    /// `policy` must be resolved against this simulator's environment.
    /// This is the engine's per-job step: batch characterization
    /// ([`simulate_summary`]) folds each record into summary statistics
    /// as it comes, and the fleet engine routes one job at a time.
    #[inline]
    pub fn serve(&mut self, job: &Job, policy: &ResolvedPolicy) -> JobRecord {
        let active_watts = policy.idle.active_watts;
        let state = &mut self.state;
        let (start, wake) = if job.arrival >= state.free_time {
            // The queue emptied at free_time; the server has been walking
            // the sleep ladder of the policy in effect back then (of this
            // one, if none was ever installed). Wake-up runs at the *new*
            // policy's active power.
            let program = state.idle.as_ref().unwrap_or(&policy.idle);
            let stage = self.books.close_gap(state.free_time, job.arrival, program);
            let wake = self.books.wake_from(job.arrival, stage, active_watts);
            (job.arrival + wake, wake)
        } else {
            (state.free_time, 0.0)
        };

        let service = job.size * policy.service_multiplier;
        let departure = start + service;
        // Serving time is the only energy a job owns: the segment is
        // tagged with its class (tag 0 for untagged streams), while
        // wake-up above and idle gaps stay untagged idle-side energy.
        self.books.ledger.add_active_segment(start, departure, active_watts, job.class());
        self.books.residency.add_serving(service);
        state.free_time = departure;
        // The idle program is the serving policy's. Policies change at
        // epoch boundaries, not per job, so the identity check is the
        // common case. An equal program already installed stays, bits
        // and all: equal programs may differ in the sign of a zero,
        // which the snapshot records.
        match &mut state.idle {
            Some(installed) if installed.id == policy.idle.id => {}
            Some(installed) if *installed == policy.idle => installed.id = policy.idle.id,
            idle => *idle = Some(policy.idle.clone()),
        }

        JobRecord {
            id: job.id,
            arrival: job.arrival,
            start,
            departure,
            size: job.size,
            service,
            wake,
        }
    }

    /// Parks a drained server at `now`: the idle interval accumulated
    /// since the queue emptied is integrated under the program that was
    /// walking it, and `program` (typically a single immediate deep
    /// stage) takes over from `now` with the idle clock re-based there.
    /// Until [`OnlineSim::wake`] is called, any further idle time is
    /// charged at the parked program's ladder.
    ///
    /// The caller must only park a drained server (`now` at or past the
    /// carried free time); parking a busy server would rewrite history.
    pub fn park(&mut self, now: f64, program: SleepProgram, freq: Frequency) {
        assert!(now >= self.state.free_time, "park requires a drained server");
        self.close_idle_gap(now);
        self.state.free_time = now;
        self.state.idle = Some(IdleProgram::new(&program, freq, &self.env));
    }

    /// Wakes a parked server at `now`: charges the parked interval under
    /// the parked program, counts the wake transition from its deepest
    /// stage, charges the wake-up latency at `active_watts`, and leaves
    /// the server free at `now + wake_latency` with `next_idle` (the
    /// resuming policy's program) installed for subsequent idle gaps.
    /// Returns the wake latency paid.
    pub fn wake(
        &mut self,
        now: f64,
        active_watts: Watts,
        next_idle: (SleepProgram, Frequency),
    ) -> f64 {
        assert!(now >= self.state.free_time, "wake requires a parked (drained) server");
        let stage = self.close_idle_gap(now);
        let wake = self.books.wake_from(now, stage, active_watts);
        self.state.free_time = now + wake;
        self.state.idle = Some(IdleProgram::new(&next_idle.0, next_idle.1, &self.env));
        wake
    }

    /// Closes the idle gap from the carried free time to `now` under the
    /// installed idle program, or at full-speed active power when none is
    /// installed yet. Returns the stage the server occupies at `now`.
    fn close_idle_gap(&mut self, now: f64) -> Option<Rung> {
        let never_sleep;
        let program = match &self.state.idle {
            Some(program) => program,
            None => {
                never_sleep = IdleProgram::never_sleep(&self.env);
                &never_sleep
            }
        };
        self.books.close_gap(self.state.free_time, now, program)
    }

    /// Closes the trace: integrates the trailing idle interval up to
    /// `horizon` (if the server went idle before it) and returns the
    /// overall outcome. Response statistics are not kept by the online
    /// engine (each epoch already returned its records); pass them in via
    /// [`simulate`] for batch use.
    pub fn finish(self, horizon: f64) -> (EnergyLedger, Residency, Vec<(SystemState, u64)>, u64) {
        let (ledger, residency, wakes_from, wakes_without_sleep, _) = self.finish_traced(horizon);
        (ledger, residency, wakes_from, wakes_without_sleep)
    }

    /// [`OnlineSim::finish`] plus the traced event stream (empty when
    /// tracing was never enabled).
    #[allow(clippy::type_complexity)]
    pub fn finish_traced(
        mut self,
        horizon: f64,
    ) -> (EnergyLedger, Residency, Vec<(SystemState, u64)>, u64, Vec<TraceEvent>) {
        let end = horizon.max(self.state.free_time);
        self.close_idle_gap(end);
        let books = self.books;
        let events = books.trace.map(TraceBuffer::into_events).unwrap_or_default();
        let wakes_from = books.wakes_from.as_slice().to_vec();
        (books.ledger, books.residency, wakes_from, books.wakes_without_sleep, events)
    }

    /// Records an epoch-boundary policy decision in this server's
    /// trace, in program order with the engine's own events: the
    /// [`TraceEvent::EpochDecision`] for `policy`, plus a
    /// [`TraceEvent::FrequencyChange`] when its frequency differs from
    /// `previous_freq` (the prior epoch's, `None` at the first epoch).
    /// `evaluated` is the selection's candidate count — `Some(0)` is a
    /// characterization-cache hit, `None` a strategy that made no
    /// selection (a fixed policy). No-op when tracing is off.
    pub fn trace_decision(
        &mut self,
        epoch: usize,
        policy: &Policy,
        previous_freq: Option<f64>,
        predicted_rho: f64,
        evaluated: Option<usize>,
    ) {
        let Some(buf) = self.books.trace.as_mut() else {
            return;
        };
        let (server, epoch, frequency) = (buf.server(), epoch as u32, policy.frequency().get());
        buf.push(TraceEvent::EpochDecision {
            server,
            epoch,
            predicted_rho,
            frequency,
            program: policy.program().label(),
            evaluated: evaluated.unwrap_or(0) as u32,
            cache_hit: evaluated == Some(0),
        });
        if let Some(from) = previous_freq.filter(|&from| from != frequency) {
            buf.push(TraceEvent::FrequencyChange { server, epoch, from, to: frequency });
        }
    }

    /// The server's carry state (free time and pending idle program).
    pub fn state(&self) -> &CarryState {
        &self.state
    }

    /// The per-bucket energy ledger accumulated so far.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.books.ledger
    }

    /// Time-in-state accounting so far.
    pub fn residency(&self) -> &Residency {
        &self.books.residency
    }

    /// Serializes the full mid-run state — ledger, carry state, residency,
    /// and wake counters — for checkpointing. The environment is *not*
    /// written; resumes rebuild it from configuration and pass it to
    /// [`OnlineSim::restore_state`].
    pub fn snapshot_state(&self, w: &mut ByteWriter) {
        self.books.ledger.snapshot(w);
        w.put_f64(self.state.free_time);
        // The carried idle program as an `Option<(SleepProgram, Frequency)>`.
        match &self.state.idle {
            None => w.put_bool(false),
            Some(program) => {
                w.put_bool(true);
                program.snapshot(w);
            }
        }
        self.books.residency.snapshot(w);
        self.books.wakes_from.snapshot(w);
        w.put_u64(self.books.wakes_without_sleep);
    }

    /// Rebuilds a simulator from a [`OnlineSim::snapshot_state`] record
    /// and a freshly constructed environment. Draws from the same codec
    /// error discipline as every [`sleepscale_journal::Snapshot`] impl:
    /// corrupt input yields a typed error, never a panic.
    pub fn restore_state(env: SimEnv, r: &mut ByteReader<'_>) -> Result<OnlineSim, CodecError> {
        let ledger = EnergyLedger::restore(r)?;
        let free_time = r.get_f64()?;
        let idle = Option::<(SleepProgram, Frequency)>::restore(r)?
            .map(|(program, freq)| IdleProgram::new(&program, freq, &env));
        Ok(OnlineSim {
            state: CarryState { free_time, idle },
            books: Books {
                ledger,
                residency: Residency::restore(r)?,
                wakes_from: LadderTable::restore(r)?,
                wakes_without_sleep: r.get_u64()?,
                trace: None,
            },
            env,
        })
    }
}

impl Books {
    /// Closes the idle gap `[gap_start, now)` under `program` and
    /// returns the stage the server occupies at `now` (`None` while it
    /// is still in pre-`τ_1` active idle).
    #[inline]
    fn close_gap(&mut self, gap_start: f64, now: f64, program: &IdleProgram) -> Option<Rung> {
        let gap = now - gap_start;
        self.emit_idle(gap_start, gap, program);
        program.stage_at(gap)
    }

    /// Wakes the server at `now` out of `stage` (`None`: still in
    /// pre-`τ_1` active idle, so the wake is free): counts the
    /// transition, charges the wake-up latency at `active_watts` and
    /// traces it. Returns the latency paid.
    #[inline]
    fn wake_from(&mut self, now: f64, stage: Option<Rung>, active_watts: Watts) -> f64 {
        let (latency, from) = match stage {
            Some(rung) => {
                self.wakes_from.add(rung.state, 1);
                (rung.wake_latency, Some(rung.state))
            }
            None => {
                self.wakes_without_sleep += 1;
                (0.0, None)
            }
        };
        self.ledger.add_segment(now, now + latency, active_watts);
        self.residency.add_waking(latency);
        if let Some(buf) = self.trace.as_mut() {
            buf.push(TraceEvent::Wake {
                server: buf.server(),
                at: now,
                from,
                latency,
                watts: active_watts.as_watts(),
            });
        }
        latency
    }

    /// Integrates the idle interval `[gap_start, gap_start + gap)` across
    /// the sleep ladder: active power before `τ_1`, then each stage's
    /// power until the next stage begins or the gap ends.
    #[inline]
    fn emit_idle(&mut self, gap_start: f64, gap: f64, program: &IdleProgram) {
        if gap <= 0.0 {
            return;
        }
        let rungs = program.rungs();
        let first_tau = rungs.first().map_or(gap, |s| s.enter_after.min(gap));
        if first_tau > 0.0 {
            let watts = program.active_watts;
            self.ledger.add_segment(gap_start, gap_start + first_tau, watts);
            self.residency.add_active_idle(first_tau);
            if let Some(buf) = self.trace.as_mut() {
                buf.push(TraceEvent::ActiveIdle {
                    server: buf.server(),
                    start: gap_start,
                    seconds: first_tau,
                    watts: watts.as_watts(),
                });
            }
        }
        for (i, rung) in rungs.iter().enumerate() {
            let begin = rung.enter_after;
            if begin >= gap {
                break;
            }
            let end = rungs.get(i + 1).map_or(gap, |next| next.enter_after.min(gap));
            self.ledger.add_segment(gap_start + begin, gap_start + end, rung.watts);
            self.residency.add_state(rung.state, end - begin);
            if let Some(buf) = self.trace.as_mut() {
                buf.push(TraceEvent::CState {
                    server: buf.server(),
                    start: gap_start + begin,
                    seconds: end - begin,
                    state: rung.state,
                    watts: rung.watts.as_watts(),
                });
            }
        }
    }
}

/// Batch policy evaluation — the paper's Algorithm 1.
///
/// Runs the whole `jobs` stream under one fixed `policy` and reports mean
/// response time, average power, residency, and wake statistics. The
/// horizon runs from the stream origin (t = 0) to the last departure,
/// matching Algorithm 1's power accounting by the ratio of active and
/// idle periods.
pub fn simulate(jobs: &JobStream, policy: &Policy, env: &SimEnv) -> SimOutcome {
    let mut sim = OnlineSim::with_ledger(env.clone(), EnergyLedger::totals_only());
    let epoch = sim.run_epoch(jobs.jobs(), policy, f64::INFINITY);
    let responses = SummaryStats::from_samples(epoch.records().iter().map(JobRecord::response));
    batch_outcome(sim, epoch.records().len(), responses)
}

/// Closes a batch run at its last departure and packs the outcome. The
/// run's ledger is totals-only ([`EnergyLedger::totals_only`]): a
/// [`SimOutcome`] reads its total and nothing per bucket.
fn batch_outcome(sim: OnlineSim, n: usize, responses: Option<SummaryStats>) -> SimOutcome {
    let horizon = sim.state.free_time;
    let (ledger, residency, wakes_from, wakes_without_sleep) = sim.finish(horizon);
    SimOutcome::new(
        n,
        horizon,
        responses,
        ledger.total_energy(),
        residency,
        wakes_from,
        wakes_without_sleep,
    )
}

/// Reusable per-worker buffers for [`simulate_summary_into`]: the
/// response samples of the last evaluation, which the next one clears
/// and refills in place.
///
/// A policy sweep evaluates dozens of candidates over the same stream;
/// giving each worker one scratch amortizes the response-sample buffer
/// across every evaluation it performs. Each evaluation still copies
/// its sorted samples once, into the [`SummaryStats`] of the outcome it
/// returns.
#[derive(Debug, Default)]
pub struct SimScratch {
    responses: Vec<f64>,
}

impl SimScratch {
    /// An empty scratch; buffers grow to the workload size on first use.
    pub fn new() -> SimScratch {
        SimScratch::default()
    }
}

/// Record-free batch policy evaluation: identical results to
/// [`simulate`] (same responses, energy, residency, and wake counts,
/// bit for bit) without materializing a `Vec<JobRecord>` per call.
///
/// This is what the characterization sweep runs per candidate — the
/// hot inner loop of the paper's Algorithm 1.
pub fn simulate_summary(jobs: &JobStream, policy: &Policy, env: &SimEnv) -> SimOutcome {
    simulate_summary_into(jobs, policy, env, &mut SimScratch::new())
}

/// [`simulate_summary`] with caller-owned scratch buffers, for tight
/// sweep loops that evaluate many policies back to back. The outcome is
/// bit-identical to [`simulate`]'s.
///
/// It pays only for what a [`SimOutcome`] reads: the run integrates
/// energy into a totals-only ledger ([`EnergyLedger::totals_only`]),
/// and the responses are sorted in place in `scratch` by their bit
/// patterns and summarized by [`SummaryStats::from_sorted_samples`].
/// That sort is exact because every response is finite and ≥ +0.0,
/// where bit order is numeric order and equal responses share their
/// bits, so the sorted vector and its mean match the stable numeric
/// sort of [`SummaryStats::from_samples`].
///
/// # Panics
///
/// Panics if a response is NaN, infinite or negative (-0.0 included),
/// which the engine never produces from a valid [`JobStream`].
pub fn simulate_summary_into(
    jobs: &JobStream,
    policy: &Policy,
    env: &SimEnv,
    scratch: &mut SimScratch,
) -> SimOutcome {
    let mut sim = OnlineSim::with_ledger(env.clone(), EnergyLedger::totals_only());
    let policy = ResolvedPolicy::new(policy, env);
    let responses = &mut scratch.responses;
    responses.clear();
    for job in jobs.jobs() {
        responses.push(sim.serve(job, &policy).response());
    }
    responses.sort_unstable_by_key(|r| r.to_bits());
    // A negative, NaN or infinite sample's bits sort above every finite
    // non-negative one, so checking the last sample checks them all.
    if let Some(&last) = responses.last() {
        assert!(
            last.is_finite() && last.is_sign_positive(),
            "response {last} is not finite and >= +0.0"
        );
    }
    let stats = SummaryStats::from_sorted_samples(responses);
    batch_outcome(sim, responses.len(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleepscale_power::{presets, FrequencyScaling, SleepStage};

    fn env() -> SimEnv {
        SimEnv::xeon_cpu_bound()
    }

    fn stream(pairs: &[(f64, f64)]) -> JobStream {
        JobStream::from_log(pairs.iter().copied()).unwrap()
    }

    /// A resolved policy's watts reproduce `SystemPowerModel::power` bit
    /// for bit in every state, on platforms with different row stacks.
    #[test]
    fn cached_platform_power_matches_the_model() {
        for model in [presets::xeon(), presets::xeon_prose_variant(), presets::atom()] {
            let env = SimEnv::new(model, FrequencyScaling::CpuBound);
            for f in [0.1, 0.42, 0.77, 1.0] {
                let f = Frequency::new(f).unwrap();
                let bits = |state| env.power().power(state, f).as_watts().to_bits();
                for state in SystemState::LOW_POWER_LADDER {
                    let stage = SleepStage::new(state, 0.0, 0.0).unwrap();
                    let resolved =
                        ResolvedPolicy::new(&Policy::new(f, SleepProgram::immediate(stage)), &env);
                    let active = resolved.idle.active_watts.as_watts().to_bits();
                    assert_eq!(active, bits(SystemState::C0A_S0A), "C0(a)S0(a) at {f}");
                    let rung = resolved.idle.rungs()[0];
                    assert_eq!(rung.watts.as_watts().to_bits(), bits(state), "{state}");
                }
            }
        }
    }

    /// Two well-separated jobs under immediate C6S3: the first pays the
    /// 1 s wake (server "asleep" since t = 0), the second arrives long
    /// after the queue empties and pays it again.
    #[test]
    fn wake_latency_charged_per_cycle() {
        let jobs = stream(&[(10.0, 1.0), (100.0, 1.0)]);
        let policy = Policy::new(Frequency::MAX, SleepProgram::immediate(presets::C6_S3));
        let out = simulate(&jobs, &policy, &env());
        assert_eq!(out.n_jobs(), 2);
        // Each response = wake 1 s + service 1 s.
        assert!((out.mean_response() - 2.0).abs() < 1e-9);
        assert_eq!(out.wakes_from().len(), 1);
        assert_eq!(out.wakes_from()[0], (SystemState::C6_S3, 2));
        assert_eq!(out.wakes_without_sleep(), 0);
    }

    /// A job arriving during a busy period queues and pays no wake.
    #[test]
    fn queued_job_pays_no_wake() {
        let jobs = stream(&[(0.0, 1.0), (1.5, 1.0), (1.6, 1.0)]);
        let policy = Policy::new(Frequency::MAX, SleepProgram::immediate(presets::C6_S3));
        let out = simulate(&jobs, &policy, &env());
        // Job 0: wake 1 (asleep since t=0), start 1, dep 2.
        // Job 1 (t=1.5): queued, start 2, dep 3. Response 1.5.
        // Job 2 (t=1.6): queued, start 3, dep 4. Response 2.4.
        assert!((out.mean_response() - (2.0 + 1.5 + 2.4) / 3.0).abs() < 1e-9);
        assert_eq!(out.wakes_from()[0].1, 1);
        assert!((out.horizon() - 4.0).abs() < 1e-12);
    }

    /// Frequency stretches service times through the scaling law.
    #[test]
    fn frequency_scales_service_time() {
        let jobs = stream(&[(0.0, 1.0)]);
        let half = Frequency::new(0.5).unwrap();
        let cpu = Policy::new(half, SleepProgram::immediate(presets::C0I_S0I));
        let out = simulate(&jobs, &cpu, &env());
        assert!((out.residency().serving() - 2.0).abs() < 1e-12);
        let mem_env = env().with_scaling(FrequencyScaling::MemoryBound);
        let out = simulate(&jobs, &cpu, &mem_env);
        assert!((out.residency().serving() - 1.0).abs() < 1e-12);
    }

    /// Exact energy bookkeeping for a hand-computable scenario.
    #[test]
    fn energy_integrates_exactly() {
        // One job arriving at t=10, size 2, f=1, immediate C6S3 (28.1 W,
        // wake 1 s). Idle [0,10) at 28.1 W, wake [10,11) at 250 W,
        // serve [11,13) at 250 W. Horizon 13.
        let jobs = stream(&[(10.0, 2.0)]);
        let policy = Policy::new(Frequency::MAX, SleepProgram::immediate(presets::C6_S3));
        let out = simulate(&jobs, &policy, &env());
        let expect = 10.0 * 28.1 + 3.0 * 250.0;
        assert!((out.energy().as_joules() - expect).abs() < 1e-6);
        assert!((out.horizon() - 13.0).abs() < 1e-12);
        assert!((out.avg_power().as_watts() - expect / 13.0).abs() < 1e-9);
        assert!((out.residency().state_time(SystemState::C6_S3) - 10.0).abs() < 1e-12);
        assert!((out.residency().waking() - 1.0).abs() < 1e-12);
        assert!((out.residency().serving() - 2.0).abs() < 1e-12);
        assert!((out.residency().total() - 13.0).abs() < 1e-9);
    }

    /// Park and wake close their gaps like an arrival does: the gap
    /// before the park under the installed program, the parked gap under
    /// the parked program, and the wake from its stage charged at active
    /// power. A server that never served idles at full-speed active power
    /// until it is parked.
    #[test]
    fn park_and_wake_charge_each_gap_under_its_program() {
        // Xeon: 250 W active at f = 1, 28.1 W in C6S3 (1 s wake).
        let parked = SleepProgram::immediate(presets::C6_S3);
        let mut sim = OnlineSim::new(env(), 60.0);
        sim.enable_trace(0);
        let policy = Policy::new(Frequency::MAX, SleepProgram::never_sleep());
        let policy = ResolvedPolicy::new(&policy, &env());
        let record = sim.serve(&Job { id: 0, arrival: 0.0, size: 1.0 }, &policy);
        assert_eq!((record.wake, record.departure), (0.0, 1.0));
        sim.park(5.0, parked.clone(), Frequency::MAX);
        let power = env().power().active_power(Frequency::MAX);
        assert_eq!(sim.wake(15.0, power, (SleepProgram::never_sleep(), Frequency::MAX)), 1.0);
        assert_eq!(sim.state().free_time(), 16.0);
        let (ledger, residency, wakes_from, wakes_without_sleep, events) = sim.finish_traced(20.0);
        // Serve [0, 1), idle [1, 5) and [16, 20) at 250 W, parked
        // [5, 15) in C6S3, wake [15, 16) at 250 W.
        let expect = 1.0 * 250.0 + 8.0 * 250.0 + 10.0 * 28.1 + 1.0 * 250.0;
        assert!((ledger.total_energy().as_joules() - expect).abs() < 1e-9);
        assert!((residency.active_idle() - 8.0).abs() < 1e-12);
        assert!((residency.state_time(SystemState::C6_S3) - 10.0).abs() < 1e-12);
        assert_eq!((residency.serving(), residency.waking()), (1.0, 1.0));
        assert_eq!(wakes_from, vec![(SystemState::C6_S3, 1)]);
        assert_eq!(wakes_without_sleep, 1, "the first job found the server in active idle");
        let wakes: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Wake { at, from, latency, .. } => Some((*at, *from, *latency)),
                _ => None,
            })
            .collect();
        assert_eq!(wakes, vec![(0.0, None, 0.0), (15.0, Some(SystemState::C6_S3), 1.0)]);

        let mut fresh = OnlineSim::new(env(), 60.0);
        fresh.park(3.0, parked, Frequency::MAX);
        let (ledger, residency, ..) = fresh.finish(3.0);
        assert!((ledger.total_energy().as_joules() - 3.0 * 250.0).abs() < 1e-9);
        assert!((residency.active_idle() - 3.0).abs() < 1e-12);
    }

    /// Pre-τ1 idle is charged at active power; the stage only begins at τ1.
    #[test]
    fn delayed_entry_charges_active_idle_first() {
        // Sleep program: C6S3 after τ=4 s. Job at t=10: idle [0,4) active,
        // [4,10) C6S3, then wake 1 s.
        let jobs = stream(&[(10.0, 1.0)]);
        let stage = SleepStage::new(SystemState::C6_S3, 4.0, 1.0).unwrap();
        let policy = Policy::new(Frequency::MAX, SleepProgram::new(vec![stage]).unwrap());
        let out = simulate(&jobs, &policy, &env());
        assert!((out.residency().active_idle() - 4.0).abs() < 1e-12);
        assert!((out.residency().state_time(SystemState::C6_S3) - 6.0).abs() < 1e-12);
        let expect = 4.0 * 250.0 + 6.0 * 28.1 + 2.0 * 250.0;
        assert!((out.energy().as_joules() - expect).abs() < 1e-6);
    }

    /// An arrival inside the pre-τ1 window pays no wake latency.
    #[test]
    fn arrival_before_first_stage_wakes_free() {
        let jobs = stream(&[(2.0, 1.0)]);
        let stage = SleepStage::new(SystemState::C6_S3, 4.0, 1.0).unwrap();
        let policy = Policy::new(Frequency::MAX, SleepProgram::new(vec![stage]).unwrap());
        let out = simulate(&jobs, &policy, &env());
        assert!((out.mean_response() - 1.0).abs() < 1e-12);
        assert_eq!(out.wakes_without_sleep(), 1);
        assert!(out.wakes_from().is_empty());
    }

    /// Two-stage ladder: the wake cost depends on which rung the arrival
    /// catches (Figure 3's C0(i)S0(i) → C6S3 program).
    #[test]
    fn two_stage_ladder_wake_depends_on_gap() {
        let program = SleepProgram::new(vec![
            SleepStage::new(SystemState::C0I_S0I, 0.0, 0.0).unwrap(),
            SleepStage::new(SystemState::C6_S3, 5.0, 1.0).unwrap(),
        ])
        .unwrap();
        let policy = Policy::new(Frequency::MAX, program);
        // First job: gap 2 (catches C0(i), no wake). Second: gap 10
        // (catches C6S3, 1 s wake).
        let jobs = stream(&[(2.0, 1.0), (13.0, 1.0)]);
        let out = simulate(&jobs, &policy, &env());
        assert!((out.mean_response() - (1.0 + 2.0) / 2.0).abs() < 1e-9);
        assert_eq!(out.wakes_from().len(), 2);
        assert!(out.wakes_from().contains(&(SystemState::C0I_S0I, 1)));
        assert!(out.wakes_from().contains(&(SystemState::C6_S3, 1)));
        // Idle accounting: [0,2) C0(i) (gap<τ2) then [3,8) C0(i), [8,13) C6S3.
        assert!((out.residency().state_time(SystemState::C0I_S0I) - 7.0).abs() < 1e-9);
        assert!((out.residency().state_time(SystemState::C6_S3) - 5.0).abs() < 1e-9);
    }

    /// never_sleep idles at active power (the f³-scaled C0(a) draw).
    #[test]
    fn never_sleep_idles_at_active_power() {
        let jobs = stream(&[(10.0, 1.0)]);
        let f = Frequency::new(0.5).unwrap();
        let policy = Policy::new(f, SleepProgram::never_sleep());
        let out = simulate(&jobs, &policy, &env());
        let active = 130.0 * 0.125 + 120.0;
        // Idle [0,10) + serve [10,12): all at the same active power.
        assert!((out.energy().as_joules() - active * 12.0).abs() < 1e-6);
        assert_eq!(out.wakes_without_sleep(), 1);
    }

    /// Epoch-sliced online execution matches one-shot batch execution
    /// when the policy never changes.
    #[test]
    fn online_epochs_match_batch() {
        let pairs: Vec<(f64, f64)> =
            (0..200).map(|i| (i as f64 * 0.37, 0.05 + 0.001 * (i % 7) as f64)).collect();
        let jobs = stream(&pairs);
        let policy =
            Policy::new(Frequency::new(0.7).unwrap(), SleepProgram::immediate(presets::C6_S0I));
        let batch = simulate(&jobs, &policy, &env());

        let mut online = OnlineSim::new(env(), 10.0);
        let mut responses = Vec::new();
        let epoch_len = 10.0;
        let mut t = 0.0;
        let mut remaining = jobs.clone();
        while !remaining.is_empty() {
            let (now, later) = remaining.split_at_time(t + epoch_len);
            let out = online.run_epoch(now.jobs(), &policy, t + epoch_len);
            responses.extend(out.records().iter().map(JobRecord::response));
            remaining = later;
            t += epoch_len;
        }
        let horizon = online.state().free_time();
        let (ledger, residency, _, _) = online.finish(horizon);
        assert!((ledger.total_energy().as_joules() - batch.energy().as_joules()).abs() < 1e-6);
        assert!((residency.total() - batch.residency().total()).abs() < 1e-9);
        let mean = responses.iter().sum::<f64>() / responses.len() as f64;
        assert!((mean - batch.mean_response()).abs() < 1e-12);
    }

    /// Energy ledger buckets sum to the total across epoch boundaries.
    #[test]
    fn ledger_buckets_sum_to_total() {
        let pairs: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 * 1.1, 0.4)).collect();
        let jobs = stream(&pairs);
        let policy = Policy::new(Frequency::MAX, SleepProgram::immediate(presets::C6_S3));
        let mut online = OnlineSim::new(env(), 5.0);
        online.run_epoch(jobs.jobs(), &policy, f64::INFINITY);
        let horizon = online.state().free_time();
        let (ledger, ..) = online.finish(horizon);
        let sum: f64 =
            (0..ledger.bucket_count()).map(|i| ledger.bucket_energy(i).as_joules()).sum();
        assert!((sum - ledger.total_energy().as_joules()).abs() < 1e-6);
    }

    /// Responses are always at least the stretched service time.
    #[test]
    fn response_at_least_service() {
        let pairs: Vec<(f64, f64)> = (0..500).map(|i| ((i as f64) * 0.21, 0.2)).collect();
        let jobs = stream(&pairs);
        let f = Frequency::new(0.8).unwrap();
        let policy = Policy::new(f, SleepProgram::immediate(presets::C6_S0I));
        let mut online = OnlineSim::new(env(), 60.0);
        let out = online.run_epoch(jobs.jobs(), &policy, f64::INFINITY);
        for r in out.records() {
            assert!(r.response() >= r.service - 1e-12);
            assert!(r.service >= r.size); // f < 1 stretches
            assert!(r.departure > r.arrival);
        }
    }

    #[test]
    fn empty_stream_is_zeroes() {
        let out = simulate(&JobStream::default(), &Policy::full_speed_no_sleep(), &env());
        assert_eq!(out.n_jobs(), 0);
        assert_eq!(out.horizon(), 0.0);
        assert_eq!(out.energy().as_joules(), 0.0);
        let summary =
            simulate_summary(&JobStream::default(), &Policy::full_speed_no_sleep(), &env());
        assert_eq!(summary, out);
    }

    /// The record-free path is bit-identical to the record path, and
    /// scratch reuse across different policies does not leak state.
    #[test]
    fn summary_path_matches_record_path() {
        let pairs: Vec<(f64, f64)> =
            (0..500).map(|i| (i as f64 * 0.41, 0.05 + 0.002 * (i % 11) as f64)).collect();
        let jobs = stream(&pairs);
        let mut scratch = SimScratch::new();
        for (f, stage) in [(1.0, presets::C6_S3), (0.6, presets::C3_S0I), (0.4, presets::C6_S0I)] {
            let policy = Policy::new(Frequency::new(f).unwrap(), SleepProgram::immediate(stage));
            let record = simulate(&jobs, &policy, &env());
            assert_eq!(simulate_summary(&jobs, &policy, &env()), record);
            assert_eq!(simulate_summary_into(&jobs, &policy, &env(), &mut scratch), record);
        }
    }

    /// M/M/1 sanity: at f=1 with zero-latency sleep, the measured busy
    /// fraction approaches ρ and normalized mean response 1/(1−ρ).
    #[test]
    fn mm1_sanity() {
        use rand::SeedableRng;
        use sleepscale_dist::{Distribution, Exponential};
        let mu = 1.0 / 0.194;
        let rho = 0.5;
        let ia = Exponential::new(rho * mu).unwrap();
        let sv = Exponential::new(mu).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut t = 0.0;
        let mut jobs = Vec::new();
        for id in 0..40_000u64 {
            t += ia.sample(&mut rng);
            jobs.push(Job { id, arrival: t, size: sv.sample(&mut rng) });
        }
        let jobs = JobStream::new(jobs).unwrap();
        let policy = Policy::new(Frequency::MAX, SleepProgram::immediate(presets::C0I_S0I));
        let out = simulate(&jobs, &policy, &env());
        assert!((out.busy_fraction() - rho).abs() < 0.02, "busy {}", out.busy_fraction());
        let norm = out.normalized_mean_response(0.194);
        assert!((norm - 2.0).abs() < 0.15, "µE[R] {} vs 2.0", norm);
    }
}
