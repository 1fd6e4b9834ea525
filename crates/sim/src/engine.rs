use crate::env::SimEnv;
use crate::job::{Job, JobRecord, JobStream};
use crate::ledger::EnergyLedger;
use crate::outcome::{EpochOutcome, Residency, SimOutcome};
use sleepscale_dist::SummaryStats;
use sleepscale_power::{
    Frequency, PlatformState, Policy, SleepProgram, SleepStage, SystemState, Watts,
};
use sleepscale_telemetry::{TraceBuffer, TraceEvent};

/// The server's condition carried between epochs: when its committed work
/// finishes and which sleep program/frequency governs the idle interval
/// that began (or will begin) at that instant.
#[derive(Debug, Clone, PartialEq)]
pub struct CarryState {
    free_time: f64,
    idle: Option<(SleepProgram, Frequency)>,
}

impl Default for CarryState {
    fn default() -> CarryState {
        CarryState::new()
    }
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

impl sleepscale_journal::Snapshot for CarryState {
    fn snapshot(&self, w: &mut sleepscale_journal::ByteWriter) {
        w.put_f64(self.free_time);
        self.idle.snapshot(w);
    }

    fn restore(
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<CarryState, sleepscale_journal::CodecError> {
        Ok(CarryState { free_time: r.get_f64()?, idle: Option::restore(r)? })
    }
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
pub struct OnlineSim {
    env: SimEnv,
    // The env's platform draw per `PlatformState`, indexed by the
    // state's position in `PlatformState::ALL`: resolved once so the
    // per-job power lookups do not re-sum Table 2's rows.
    platform_watts: [Watts; 3],
    ledger: EnergyLedger,
    state: CarryState,
    residency: Residency,
    wakes_from: Vec<(SystemState, u64)>,
    wakes_without_sleep: u64,
    // `None` (the default) keeps every code path byte-identical to the
    // untraced engine: each emit site pays exactly one `Option` check.
    trace: Option<TraceBuffer>,
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
            platform_watts: platform_table(&env),
            env,
            ledger,
            state: CarryState::new(),
            residency: Residency::new(),
            wakes_from: Vec::new(),
            wakes_without_sleep: 0,
            trace: None,
        }
    }

    /// Turns on structured event tracing, attributing events to slot
    /// `server`. Events accumulate in an internal [`TraceBuffer`] and
    /// come back from [`OnlineSim::finish_traced`]; the buffer is not
    /// part of the checkpoint state (checkpointed runs reject
    /// telemetry upstream).
    pub fn enable_trace(&mut self, server: u32) {
        self.trace = Some(TraceBuffer::new(server));
    }

    /// Simulates one epoch's arrivals under `policy`: [`OnlineSim::serve`]
    /// for each job, in order.
    ///
    /// `jobs` must be sorted by arrival and arrive at or after any
    /// previously processed job (the engine is single-pass). `epoch_end`
    /// is used only to report how far committed work overhangs the epoch.
    pub fn run_epoch(&mut self, jobs: &[Job], policy: &Policy, epoch_end: f64) -> EpochOutcome {
        let records = jobs.iter().map(|job| self.serve(job, policy)).collect();
        EpochOutcome::new(records, (self.state.free_time - epoch_end).max(0.0))
    }

    /// Serves one arrival under `policy` and returns its record: an
    /// arrival into an idle server first closes the idle gap and wakes
    /// the server, then the job runs at the policy's frequency.
    ///
    /// `job` must arrive at or after every job served before it. This
    /// is the engine's per-job step: batch characterization
    /// ([`simulate_summary`]) folds each record into summary statistics
    /// as it comes, and the fleet engine routes one job at a time.
    pub fn serve(&mut self, job: &Job, policy: &Policy) -> JobRecord {
        let f = policy.frequency();
        let active_watts = self.power(SystemState::C0A_S0A, f);
        let (start, wake) = if job.arrival >= self.state.free_time {
            // The queue emptied at free_time; the server has been walking
            // the sleep ladder of the policy in effect back then. Wake-up
            // runs at the *new* policy's active power.
            let stage = self.close_gap(job.arrival, (policy.program(), f));
            let wake = self.wake_from(job.arrival, stage, active_watts);
            (job.arrival + wake, wake)
        } else {
            (self.state.free_time, 0.0)
        };

        let service = job.size * self.env.scaling().service_multiplier(f);
        let departure = start + service;
        // Serving time is the only energy a job owns: the segment is
        // tagged with its class (tag 0 for untagged streams), while
        // wake-up above and idle gaps stay untagged idle-side energy.
        self.ledger.add_active_segment(start, departure, active_watts, job.class());
        self.residency.add_serving(service);
        self.state.free_time = departure;
        // The idle program is the serving policy's; skip the clone when
        // it is already installed (the common case — policies change at
        // epoch boundaries, not per job, and the one-at-a-time fleet
        // dispatch path calls this once per job).
        match &self.state.idle {
            Some((program, freq)) if *freq == f && program == policy.program() => {}
            _ => self.state.idle = Some((policy.program().clone(), f)),
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
        self.close_gap(now, (&SleepProgram::never_sleep(), Frequency::MAX));
        self.state.free_time = now;
        self.state.idle = Some((program, freq));
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
        let stage = self.close_gap(now, (&SleepProgram::never_sleep(), Frequency::MAX));
        let wake = self.wake_from(now, stage, active_watts);
        self.state.free_time = now + wake;
        self.state.idle = Some(next_idle);
        wake
    }

    /// Closes the idle gap from the carried free time to `now`: the gap
    /// is integrated under the installed idle program, or under
    /// `fallback` when none is installed yet, and the installed program
    /// stays installed. Returns the stage the server occupies at `now`
    /// (`None` while it is still in pre-`τ_1` active idle).
    fn close_gap(&mut self, now: f64, fallback: (&SleepProgram, Frequency)) -> Option<SleepStage> {
        let gap_start = self.state.free_time;
        let gap = now - gap_start;
        // Move the installed idle program out rather than cloning it:
        // idle arrivals dominate low-ρ fleets, and a per-job
        // `SleepProgram` clone (a heap `Vec`) would be the dispatch
        // engine's hottest allocation. It is put back untouched below.
        let installed = self.state.idle.take();
        let (program, idle_freq) = match &installed {
            Some((p, fr)) => (p, *fr),
            None => fallback,
        };
        self.emit_idle(gap_start, gap, program, idle_freq);
        let stage = program.stage_at(gap).copied();
        self.state.idle = installed;
        stage
    }

    /// Wakes the server at `now` out of `stage` (`None`: still in
    /// pre-`τ_1` active idle, so the wake is free): counts the
    /// transition, charges the wake-up latency at `active_watts` and
    /// traces it. Returns the latency paid.
    fn wake_from(&mut self, now: f64, stage: Option<SleepStage>, active_watts: Watts) -> f64 {
        let (latency, from) = match stage {
            Some(stage) => {
                self.count_wake(stage.state());
                (stage.wake_latency(), Some(stage.state()))
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
    fn emit_idle(
        &mut self,
        gap_start: f64,
        gap: f64,
        program: &SleepProgram,
        idle_freq: Frequency,
    ) {
        if gap <= 0.0 {
            return;
        }
        let stages = program.stages();
        let first_tau = stages.first().map_or(gap, |s| s.enter_after().min(gap));
        if first_tau > 0.0 {
            let watts = self.power(SystemState::C0A_S0A, idle_freq);
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
        for (i, stage) in stages.iter().enumerate() {
            let begin = stage.enter_after();
            if begin >= gap {
                break;
            }
            let end = stages.get(i + 1).map_or(gap, |next| next.enter_after().min(gap));
            let watts = self.power(stage.state(), idle_freq);
            self.ledger.add_segment(gap_start + begin, gap_start + end, watts);
            self.residency.add_state(stage.state(), end - begin);
            if let Some(buf) = self.trace.as_mut() {
                buf.push(TraceEvent::CState {
                    server: buf.server(),
                    start: gap_start + begin,
                    seconds: end - begin,
                    state: stage.state(),
                    watts: watts.as_watts(),
                });
            }
        }
    }

    /// `self.env.power().power(state, f)`, bit for bit, with the
    /// platform half read from the table resolved at construction.
    fn power(&self, state: SystemState, f: Frequency) -> Watts {
        self.env.power().cpu().power(state.cpu(), f)
            + self.platform_watts[state.platform() as usize]
    }

    fn count_wake(&mut self, state: SystemState) {
        if let Some(entry) = self.wakes_from.iter_mut().find(|(s, _)| *s == state) {
            entry.1 += 1;
        } else {
            self.wakes_from.push((state, 1));
        }
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
        self.close_gap(end, (&SleepProgram::never_sleep(), Frequency::MAX));
        let events = self.trace.take().map(TraceBuffer::into_events).unwrap_or_default();
        (self.ledger, self.residency, self.wakes_from, self.wakes_without_sleep, events)
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
        let Some(buf) = self.trace.as_mut() else {
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
        &self.ledger
    }

    /// Time-in-state accounting so far.
    pub fn residency(&self) -> &Residency {
        &self.residency
    }

    /// Serializes the full mid-run state — ledger, carry state, residency,
    /// and wake counters — for checkpointing. The environment is *not*
    /// written; resumes rebuild it from configuration and pass it to
    /// [`OnlineSim::restore_state`].
    pub fn snapshot_state(&self, w: &mut sleepscale_journal::ByteWriter) {
        use sleepscale_journal::Snapshot;
        self.ledger.snapshot(w);
        self.state.snapshot(w);
        self.residency.snapshot(w);
        self.wakes_from.snapshot(w);
        w.put_u64(self.wakes_without_sleep);
    }

    /// Rebuilds a simulator from a [`OnlineSim::snapshot_state`] record
    /// and a freshly constructed environment. Draws from the same codec
    /// error discipline as every [`sleepscale_journal::Snapshot`] impl:
    /// corrupt input yields a typed error, never a panic.
    pub fn restore_state(
        env: SimEnv,
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<OnlineSim, sleepscale_journal::CodecError> {
        use sleepscale_journal::Snapshot;
        Ok(OnlineSim {
            platform_watts: platform_table(&env),
            env,
            ledger: EnergyLedger::restore(r)?,
            state: CarryState::restore(r)?,
            residency: Residency::restore(r)?,
            wakes_from: Vec::restore(r)?,
            wakes_without_sleep: r.get_u64()?,
            trace: None,
        })
    }
}

/// The env's platform power in each [`PlatformState`], in
/// [`PlatformState::ALL`] order (the enum's declaration order, so
/// `state as usize` indexes it), each summed exactly as
/// [`sleepscale_power::PlatformPowerModel::power`] sums it.
fn platform_table(env: &SimEnv) -> [Watts; 3] {
    PlatformState::ALL.map(|state| env.power().platform().power(state))
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
    let responses = &mut scratch.responses;
    responses.clear();
    for job in jobs.jobs() {
        responses.push(sim.serve(job, policy).response());
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

    /// The platform table resolved at construction reproduces
    /// `SystemPowerModel::power` bit for bit in every state, on
    /// platforms with different row stacks.
    #[test]
    fn cached_platform_power_matches_the_model() {
        for model in [presets::xeon(), presets::xeon_prose_variant(), presets::atom()] {
            let env = SimEnv::new(model, FrequencyScaling::CpuBound);
            let sim = OnlineSim::new(env.clone(), 60.0);
            let states = std::iter::once(SystemState::C0A_S0A).chain(SystemState::LOW_POWER_LADDER);
            for state in states {
                for f in [0.1, 0.42, 0.77, 1.0] {
                    let f = Frequency::new(f).unwrap();
                    let expect = env.power().power(state, f).as_watts();
                    assert_eq!(
                        sim.power(state, f).as_watts().to_bits(),
                        expect.to_bits(),
                        "{state}"
                    );
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
