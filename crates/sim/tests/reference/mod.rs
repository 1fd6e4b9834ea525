//! The simulator as it stood before its per-job step kept the hot
//! ledger bucket, the inline accumulators and resolved policies: the
//! ledger's bucket split and the engine's `serve`, `close_gap`,
//! `emit_idle`, `wake_from` and `power`, kept verbatim (renamed, and
//! reading the public API where the originals read private fields) as
//! the oracle the exactness and parity properties compare against.

#![allow(dead_code)]

use sleepscale_journal::{ByteWriter, Snapshot};
use sleepscale_power::{
    Frequency, PlatformState, Policy, SleepProgram, SleepStage, SystemState, Watts,
};
use sleepscale_sim::{ClassId, Job, JobRecord, SimEnv};
use sleepscale_telemetry::{TraceBuffer, TraceEvent};

/// The ledger: every segment split across its buckets as it arrives.
#[derive(Debug, Clone)]
pub struct RefLedger {
    pub bucket_width: f64,
    pub buckets: Vec<f64>,
    pub total: f64,
    pub end_of_time: f64,
    pub busy_buckets: Vec<f64>,
    pub active_by_class: Vec<f64>,
    pub active_total: f64,
}

impl RefLedger {
    pub fn new(bucket_width: f64) -> RefLedger {
        RefLedger {
            bucket_width,
            buckets: Vec::new(),
            total: 0.0,
            end_of_time: 0.0,
            busy_buckets: Vec::new(),
            active_by_class: Vec::new(),
            active_total: 0.0,
        }
    }

    pub fn totals_only() -> RefLedger {
        RefLedger::new(f64::INFINITY)
    }

    fn is_bucketed(&self) -> bool {
        self.bucket_width.is_finite()
    }

    pub fn add_segment(&mut self, start: f64, end: f64, watts: Watts) {
        self.integrate(start, end, watts);
    }

    pub fn add_active_segment(&mut self, start: f64, end: f64, watts: Watts, class: ClassId) {
        let Some(p) = self.integrate(start, end, watts) else {
            return;
        };
        self.active_total += p * (end - start);
        let index = class.as_index();
        if self.active_by_class.len() <= index {
            self.active_by_class.resize(index + 1, 0.0);
        }
        self.active_by_class[index] += p * (end - start);
        if self.is_bucketed() {
            // `1.0 * overlap` is `overlap` exactly.
            split(&mut self.busy_buckets, self.bucket_width, start, end, 1.0);
        }
    }

    fn integrate(&mut self, start: f64, end: f64, watts: Watts) -> Option<f64> {
        let duration = end - start;
        if duration.is_nan() || duration <= 0.0 {
            return None;
        }
        let p = watts.as_watts();
        self.total += p * (end - start);
        self.end_of_time = self.end_of_time.max(end);
        if self.is_bucketed() {
            split(&mut self.buckets, self.bucket_width, start, end, p);
        }
        Some(p)
    }
}

/// Adds `scale · overlap` to each `width`-second bucket that
/// `[start, end)` overlaps, growing `buckets` to cover `end`.
fn split(buckets: &mut Vec<f64>, width: f64, start: f64, end: f64, scale: f64) {
    let first = (start / width).floor() as usize;
    let last = (end / width).ceil() as usize;
    if buckets.len() < last {
        buckets.resize(last, 0.0);
    }
    for (b, bucket) in (first..).zip(&mut buckets[first..last]) {
        let b_start = b as f64 * width;
        let b_end = b_start + width;
        let overlap = end.min(b_end) - start.max(b_start);
        if overlap > 0.0 {
            *bucket += scale * overlap;
        }
    }
}

impl RefLedger {
    /// The ledger's snapshot bytes.
    pub fn snapshot(&self, w: &mut ByteWriter) {
        w.put_f64(self.bucket_width);
        self.buckets.snapshot(w);
        w.put_f64(self.total);
        w.put_f64(self.end_of_time);
        self.busy_buckets.snapshot(w);
        self.active_by_class.snapshot(w);
        w.put_f64(self.active_total);
    }
}

/// Time in state, states in first-entered order.
#[derive(Debug, Clone, Default)]
pub struct RefResidency {
    pub serving: f64,
    pub waking: f64,
    pub active_idle: f64,
    pub states: Vec<(SystemState, f64)>,
}

impl RefResidency {
    fn add_state(&mut self, state: SystemState, dt: f64) {
        if let Some(entry) = self.states.iter_mut().find(|(s, _)| *s == state) {
            entry.1 += dt;
        } else {
            self.states.push((state, dt));
        }
    }

    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_f64(self.serving);
        w.put_f64(self.waking);
        w.put_f64(self.active_idle);
        self.states.snapshot(w);
    }
}

/// The simulator: each job recomputes its powers from the environment
/// and compares the serving policy's program against the installed one.
pub struct RefSim {
    env: SimEnv,
    platform_watts: [Watts; 3],
    pub ledger: RefLedger,
    pub free_time: f64,
    pub idle: Option<(SleepProgram, Frequency)>,
    pub residency: RefResidency,
    pub wakes_from: Vec<(SystemState, u64)>,
    pub wakes_without_sleep: u64,
    trace: Option<TraceBuffer>,
}

/// The reference's `finish_traced` outputs.
pub struct RefFinish {
    pub ledger: RefLedger,
    pub residency: RefResidency,
    pub wakes_from: Vec<(SystemState, u64)>,
    pub wakes_without_sleep: u64,
    pub events: Vec<TraceEvent>,
}

impl RefSim {
    pub fn new(env: SimEnv, bucket_width: f64) -> RefSim {
        RefSim::with_ledger(env, RefLedger::new(bucket_width))
    }

    pub fn with_ledger(env: SimEnv, ledger: RefLedger) -> RefSim {
        RefSim {
            platform_watts: PlatformState::ALL.map(|state| env.power().platform().power(state)),
            env,
            ledger,
            free_time: 0.0,
            idle: None,
            residency: RefResidency::default(),
            wakes_from: Vec::new(),
            wakes_without_sleep: 0,
            trace: None,
        }
    }

    pub fn enable_trace(&mut self, server: u32) {
        self.trace = Some(TraceBuffer::new(server));
    }

    pub fn serve(&mut self, job: &Job, policy: &Policy) -> JobRecord {
        let f = policy.frequency();
        let active_watts = self.power(SystemState::C0A_S0A, f);
        let (start, wake) = if job.arrival >= self.free_time {
            let stage = self.close_gap(job.arrival, (policy.program(), f));
            let wake = self.wake_from(job.arrival, stage, active_watts);
            (job.arrival + wake, wake)
        } else {
            (self.free_time, 0.0)
        };

        let service = job.size * self.env.scaling().service_multiplier(f);
        let departure = start + service;
        self.ledger.add_active_segment(start, departure, active_watts, job.class());
        self.residency.serving += service;
        self.free_time = departure;
        match &self.idle {
            Some((program, freq)) if *freq == f && program == policy.program() => {}
            _ => self.idle = Some((policy.program().clone(), f)),
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

    pub fn park(&mut self, now: f64, program: SleepProgram, freq: Frequency) {
        assert!(now >= self.free_time, "park requires a drained server");
        self.close_gap(now, (&SleepProgram::never_sleep(), Frequency::MAX));
        self.free_time = now;
        self.idle = Some((program, freq));
    }

    pub fn wake(
        &mut self,
        now: f64,
        active_watts: Watts,
        next_idle: (SleepProgram, Frequency),
    ) -> f64 {
        assert!(now >= self.free_time, "wake requires a parked (drained) server");
        let stage = self.close_gap(now, (&SleepProgram::never_sleep(), Frequency::MAX));
        let wake = self.wake_from(now, stage, active_watts);
        self.free_time = now + wake;
        self.idle = Some(next_idle);
        wake
    }

    fn close_gap(&mut self, now: f64, fallback: (&SleepProgram, Frequency)) -> Option<SleepStage> {
        let gap_start = self.free_time;
        let gap = now - gap_start;
        let installed = self.idle.take();
        let (program, idle_freq) = match &installed {
            Some((p, fr)) => (p, *fr),
            None => fallback,
        };
        self.emit_idle(gap_start, gap, program, idle_freq);
        let stage = program.stage_at(gap).copied();
        self.idle = installed;
        stage
    }

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
        self.residency.waking += latency;
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
            self.residency.active_idle += first_tau;
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

    pub fn finish_traced(mut self, horizon: f64) -> RefFinish {
        let end = horizon.max(self.free_time);
        self.close_gap(end, (&SleepProgram::never_sleep(), Frequency::MAX));
        RefFinish {
            events: self.trace.take().map(TraceBuffer::into_events).unwrap_or_default(),
            ledger: self.ledger,
            residency: self.residency,
            wakes_from: self.wakes_from,
            wakes_without_sleep: self.wakes_without_sleep,
        }
    }

    pub fn snapshot_state(&self, w: &mut ByteWriter) {
        self.ledger.snapshot(w);
        w.put_f64(self.free_time);
        self.idle.snapshot(w);
        self.residency.snapshot(w);
        self.wakes_from.snapshot(w);
        w.put_u64(self.wakes_without_sleep);
    }
}
