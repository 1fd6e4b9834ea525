use crate::error::CoreError;
use crate::qos::QosConstraint;
use crate::report::{EpochReport, RunReport};
use crate::strategies::Strategy;
use serde::{Deserialize, Serialize};
use sleepscale_dist::StreamingSummary;
use sleepscale_sim::{JobStream, OnlineSim, SimEnv};
use sleepscale_telemetry::TraceEvent;
use sleepscale_workloads::UtilizationTrace;

/// Runtime parameters: the paper's `T` (epoch length), the evaluation-log
/// replay depth, the QoS constraint, the over-provisioning factor `α`,
/// and the characterization environment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    mean_service: f64,
    qos: QosConstraint,
    epoch_minutes: usize,
    eval_jobs: usize,
    log_capacity: usize,
    alpha: f64,
    predictor_history: usize,
    env: SimEnv,
}

impl RuntimeConfig {
    /// Starts a builder for a workload with full-speed mean service time
    /// `mean_service` (`1/µ`, seconds).
    pub fn builder(mean_service: f64) -> RuntimeConfigBuilder {
        RuntimeConfigBuilder {
            mean_service,
            qos: None,
            epoch_minutes: 5,
            eval_jobs: 2_000,
            log_capacity: 20_000,
            alpha: 0.0,
            predictor_history: 10,
            env: None,
        }
    }

    /// The workload's full-speed mean service time `1/µ` (seconds).
    pub fn mean_service(&self) -> f64 {
        self.mean_service
    }

    /// The QoS constraint.
    pub fn qos(&self) -> QosConstraint {
        self.qos
    }

    /// The policy update interval `T` in minutes.
    pub fn epoch_minutes(&self) -> usize {
        self.epoch_minutes
    }

    /// Jobs replayed per candidate characterization.
    pub fn eval_jobs(&self) -> usize {
        self.eval_jobs
    }

    /// Job-log capacity (observations kept across epochs).
    pub fn log_capacity(&self) -> usize {
        self.log_capacity
    }

    /// The over-provisioning factor `α` (0 disables the guard band).
    pub fn over_provisioning(&self) -> f64 {
        self.alpha
    }

    /// Predictor history depth `p`.
    pub fn predictor_history(&self) -> usize {
        self.predictor_history
    }

    /// The characterization environment (power model + scaling law) used
    /// by managed strategies.
    pub fn env(&self) -> &SimEnv {
        &self.env
    }
}

/// Builder for [`RuntimeConfig`].
#[derive(Debug, Clone)]
pub struct RuntimeConfigBuilder {
    mean_service: f64,
    qos: Option<QosConstraint>,
    epoch_minutes: usize,
    eval_jobs: usize,
    log_capacity: usize,
    alpha: f64,
    predictor_history: usize,
    env: Option<SimEnv>,
}

impl RuntimeConfigBuilder {
    /// Sets the QoS constraint (required).
    pub fn qos(mut self, qos: QosConstraint) -> RuntimeConfigBuilder {
        self.qos = Some(qos);
        self
    }

    /// Sets the policy update interval `T` in minutes (default 5).
    pub fn epoch_minutes(mut self, t: usize) -> RuntimeConfigBuilder {
        self.epoch_minutes = t;
        self
    }

    /// Sets how many logged jobs each candidate characterization replays
    /// (default 2000).
    pub fn eval_jobs(mut self, n: usize) -> RuntimeConfigBuilder {
        self.eval_jobs = n;
        self
    }

    /// Sets the job-log capacity (default 20 000).
    pub fn log_capacity(mut self, n: usize) -> RuntimeConfigBuilder {
        self.log_capacity = n;
        self
    }

    /// Sets the over-provisioning factor `α` (default 0; the paper's
    /// evaluated value is 0.35).
    pub fn over_provisioning(mut self, alpha: f64) -> RuntimeConfigBuilder {
        self.alpha = alpha;
        self
    }

    /// Sets the predictor history depth `p` (default 10).
    pub fn predictor_history(mut self, p: usize) -> RuntimeConfigBuilder {
        self.predictor_history = p;
        self
    }

    /// Sets the characterization environment (default: Xeon, CPU-bound).
    pub fn env(mut self, env: SimEnv) -> RuntimeConfigBuilder {
        self.env = Some(env);
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for missing QoS, non-positive
    /// mean service time, zero epoch length, zero eval jobs, or negative
    /// `α`.
    pub fn build(self) -> Result<RuntimeConfig, CoreError> {
        if !self.mean_service.is_finite() || self.mean_service <= 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: format!("mean service {} must be finite and > 0", self.mean_service),
            });
        }
        let qos = self.qos.ok_or_else(|| CoreError::InvalidConfig {
            reason: "a QoS constraint is required".into(),
        })?;
        if self.epoch_minutes == 0 {
            return Err(CoreError::InvalidConfig { reason: "epoch_minutes must be >= 1".into() });
        }
        if self.eval_jobs == 0 {
            return Err(CoreError::InvalidConfig { reason: "eval_jobs must be >= 1".into() });
        }
        if !self.alpha.is_finite() || self.alpha < 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: format!("over-provisioning {} must be finite and >= 0", self.alpha),
            });
        }
        Ok(RuntimeConfig {
            mean_service: self.mean_service,
            qos,
            epoch_minutes: self.epoch_minutes,
            eval_jobs: self.eval_jobs,
            log_capacity: self.log_capacity.max(16),
            alpha: self.alpha,
            predictor_history: self.predictor_history.max(1),
            env: self.env.unwrap_or_else(SimEnv::xeon_cpu_bound),
        })
    }
}

/// Drives a [`Strategy`] over a utilization trace against the
/// ground-truth job stream — the closed evaluation loop of Section 6.
///
/// Per epoch: the strategy picks a policy, the ground-truth jobs of the
/// epoch execute under it (with exact cross-epoch energy accounting),
/// the strategy sees the completed records and the realized per-minute
/// utilizations, and the loop advances.
///
/// # Errors
///
/// Propagates strategy errors ([`CoreError`]).
pub fn run(
    trace: &UtilizationTrace,
    jobs: &JobStream,
    strategy: &mut dyn Strategy,
    env: &SimEnv,
    config: &RuntimeConfig,
) -> Result<RunReport, CoreError> {
    Ok(run_resumable(trace, jobs, strategy, env, config, None, None)?
        .expect("run without a checkpoint sink always completes"))
}

/// A checkpoint sink: called after each completed epoch `k` with the
/// serialized loop state. Return `Ok(false)` to stop the run at that
/// boundary (fault injection); `Ok(true)` to continue.
pub type CheckpointSink<'a> = &'a mut dyn FnMut(usize, &[u8]) -> Result<bool, CoreError>;

/// The checkpoint-aware form of [`run`]: same loop, but optionally
/// seeded from a prior epoch-boundary snapshot and optionally emitting
/// one snapshot per completed epoch.
///
/// `resume_from` is the payload a previous run's `sink` received at some
/// boundary: the loop restores the full mid-run state (simulator
/// carry-over, energy ledger, job-stream position, accumulated report
/// rows, strategy memory) and continues from the *next* epoch. The
/// strategy must be freshly constructed from the same configuration that
/// produced the snapshot. `sink` (when present) receives the serialized
/// state after every completed epoch; returning `Ok(false)` abandons the
/// run at that boundary and `run_resumable` returns `Ok(None)`.
///
/// A completed resume is byte-identical to the uninterrupted run: the
/// snapshot captures everything the remaining epochs read.
///
/// # Errors
///
/// Propagates strategy errors, sink errors, and
/// [`CoreError::Checkpoint`] for malformed `resume_from` bytes.
pub fn run_resumable(
    trace: &UtilizationTrace,
    jobs: &JobStream,
    strategy: &mut dyn Strategy,
    env: &SimEnv,
    config: &RuntimeConfig,
    resume_from: Option<&[u8]>,
    sink: Option<CheckpointSink<'_>>,
) -> Result<Option<RunReport>, CoreError> {
    run_inner(trace, jobs, strategy, env, config, resume_from, sink, None)
}

/// [`run`] with structured event tracing: returns the report plus the
/// server's deterministic [`TraceEvent`] stream (C-state residency
/// segments, wakes, per-epoch policy decisions, frequency changes),
/// attributed to slot 0.
///
/// Tracing composes with neither resume nor checkpoint sinks — the
/// trace buffer is not part of the snapshot state — so this is the
/// plain uninterrupted loop.
///
/// # Errors
///
/// Propagates strategy errors ([`CoreError`]).
pub fn run_traced(
    trace: &UtilizationTrace,
    jobs: &JobStream,
    strategy: &mut dyn Strategy,
    env: &SimEnv,
    config: &RuntimeConfig,
) -> Result<(RunReport, Vec<TraceEvent>), CoreError> {
    let mut events = Vec::new();
    let report = run_inner(trace, jobs, strategy, env, config, None, None, Some(&mut events))?
        .expect("run without a checkpoint sink always completes");
    Ok((report, events))
}

#[allow(clippy::too_many_arguments)]
fn run_inner(
    trace: &UtilizationTrace,
    jobs: &JobStream,
    strategy: &mut dyn Strategy,
    env: &SimEnv,
    config: &RuntimeConfig,
    resume_from: Option<&[u8]>,
    mut sink: Option<CheckpointSink<'_>>,
    trace_out: Option<&mut Vec<TraceEvent>>,
) -> Result<Option<RunReport>, CoreError> {
    use sleepscale_journal::{ByteReader, ByteWriter, CodecError, Snapshot};

    let t_minutes = config.epoch_minutes();
    let epoch_seconds = t_minutes as f64 * 60.0;
    let total_minutes = trace.len();
    let n_epochs = total_minutes.div_ceil(t_minutes);

    let mut online = OnlineSim::new(env.clone(), epoch_seconds);
    if trace_out.is_some() {
        online.enable_trace(0);
    }
    let mut epochs: Vec<EpochReport> = Vec::with_capacity(n_epochs);
    // Responses fold into one streaming summary (exact count and mean,
    // p95 sketched to ±0.5%), so checkpoints do not grow with the jobs
    // served.
    let mut responses = StreamingSummary::new();
    // Per-class accounting only switches on for genuinely multi-class
    // streams (any non-default tag): untagged runs — and single-class
    // tagged runs, whose one class *is* the default — skip it
    // entirely, keeping the hot path and the report bytes unchanged.
    let tagged = jobs.is_tagged();
    let mut class_responses: Vec<StreamingSummary> = Vec::new();
    // The epoch loop borrows each batch from the ground-truth stream;
    // no per-epoch clone of the remaining jobs.
    let mut cursor = jobs.cursor();

    let mut start_epoch = 0;
    if let Some(bytes) = resume_from {
        let mut r = ByteReader::new(bytes);
        let done = r.get_usize()?;
        if done >= n_epochs {
            return Err(CoreError::Checkpoint {
                reason: format!("snapshot is at epoch {done} but the run has only {n_epochs}"),
            });
        }
        online = OnlineSim::restore_state(env.clone(), &mut r)?;
        epochs = Vec::restore(&mut r)?;
        responses = StreamingSummary::restore(&mut r)?;
        class_responses = Vec::restore(&mut r)?;
        cursor.seek(r.get_usize()?);
        strategy.restore_state(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes after run snapshot",
                r.remaining()
            ))
            .into());
        }
        start_epoch = done + 1;
    }

    for k in start_epoch..n_epochs {
        let policy = strategy.begin_epoch(k)?;
        online.trace_decision(
            k,
            &policy,
            epochs.last().map(|e| e.frequency),
            strategy.last_prediction(),
            strategy.last_selection().map(|s| s.evaluated),
        );
        let start_minute = k * t_minutes;
        let end_minute = (start_minute + t_minutes).min(total_minutes);
        let epoch_end = (start_minute + t_minutes) as f64 * 60.0;

        let now = cursor.take_before(epoch_end);
        let out = online.run_epoch(now, &policy, epoch_end);
        for r in out.records() {
            responses.push(r.response());
            if tagged {
                let c = r.class().as_index();
                if c >= class_responses.len() {
                    class_responses.resize_with(c + 1, StreamingSummary::new);
                }
                class_responses[c].push(r.response());
            }
        }

        let realized_rho = (start_minute..end_minute).map(|m| trace.at(m)).sum::<f64>()
            / (end_minute - start_minute).max(1) as f64;

        epochs.push(EpochReport {
            epoch: k,
            start_minute,
            predicted_rho: strategy.last_prediction(),
            realized_rho,
            policy_label: policy.label(),
            frequency: policy.frequency().get(),
            program_label: policy.program().label(),
            feasible: strategy.last_selection().is_none_or(|s| s.feasible),
            evaluated: strategy.last_selection().map_or(0, |s| s.evaluated),
            arrivals: out.arrivals(),
            mean_response: out.mean_response(),
            power_watts: 0.0, // filled from the ledger below
            backlog_seconds: out.backlog_seconds(),
        });

        strategy.end_epoch(out.records());
        // The utilization a real server measures saturates while a
        // backlog drains; feeding the raw offered load would let the
        // manager keep selecting zero-slack policies computed for an
        // empty queue, so the backlog would persist indefinitely. Fold
        // the queue overhang into the observation as extra pressure.
        let pressure = out.backlog_seconds() / epoch_seconds;
        for m in start_minute..end_minute {
            strategy.observe_minute((trace.at(m) + pressure).min(0.97));
        }

        if let Some(sink) = sink.as_deref_mut() {
            let mut w = ByteWriter::new();
            w.put_usize(k);
            online.snapshot_state(&mut w);
            epochs.snapshot(&mut w);
            responses.snapshot(&mut w);
            class_responses.snapshot(&mut w);
            w.put_usize(cursor.position());
            strategy.snapshot_state(&mut w);
            if !sink(k, w.as_bytes())? {
                return Ok(None);
            }
        }
    }

    // Close the trace and distribute per-epoch power from the ledger.
    let trace_end = total_minutes as f64 * 60.0;
    let horizon = trace_end.max(online.state().free_time());
    let (ledger, _residency, wakes_from, _, events) = online.finish_traced(horizon);
    if let Some(out) = trace_out {
        *out = events;
    }
    for (k, e) in epochs.iter_mut().enumerate() {
        e.power_watts = ledger.bucket_power(k).as_watts();
    }
    Ok(Some(
        RunReport::new(
            strategy.name(),
            epochs,
            config.mean_service(),
            ledger.total_energy().as_joules() / horizon,
            ledger.total_energy().as_joules(),
            horizon,
            wakes_from,
            responses,
            class_responses,
        )
        .with_energy_split(
            ledger.active_energy().as_joules(),
            ledger.active_energy_by_class().to_vec(),
            ledger.power_samples(),
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateSet;
    use crate::strategies::{FixedPolicyStrategy, SleepScaleStrategy};
    use rand::SeedableRng;
    use sleepscale_power::{presets, Policy};
    use sleepscale_workloads::{replay_trace, ReplayConfig, WorkloadDistributions, WorkloadSpec};

    fn setup(hours: usize, seed: u64) -> (UtilizationTrace, JobStream, RuntimeConfig) {
        let spec = WorkloadSpec::dns();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dists = WorkloadDistributions::empirical(&spec, 5_000, &mut rng).unwrap();
        let trace =
            sleepscale_workloads::traces::email_store(1, seed).window(120, 120 + hours * 60);
        let jobs = replay_trace(&trace, &dists, &ReplayConfig::default(), &mut rng).unwrap();
        let config = RuntimeConfig::builder(spec.service_mean())
            .qos(QosConstraint::mean_response(0.8).unwrap())
            .epoch_minutes(5)
            .eval_jobs(800)
            .build()
            .unwrap();
        (trace, jobs, config)
    }

    #[test]
    fn fixed_baseline_runs_end_to_end() {
        let (trace, jobs, config) = setup(2, 21);
        let env = SimEnv::xeon_cpu_bound();
        let mut s = FixedPolicyStrategy::new(Policy::full_speed_no_sleep());
        let report = run(&trace, &jobs, &mut s, &env, &config).unwrap();
        assert_eq!(report.epochs().len(), 24); // 2 h / 5 min
        assert!(report.total_jobs() > 100);
        // Full speed, never sleeping: power pinned at 250 W.
        assert!((report.avg_power_watts() - 250.0).abs() < 1.0);
        // Every epoch's power is 250 W too.
        for e in report.epochs() {
            assert!((e.power_watts - 250.0).abs() < 2.0, "epoch {}: {}", e.epoch, e.power_watts);
        }
    }

    #[test]
    fn race_to_halt_saves_power_vs_no_sleep() {
        let (trace, jobs, config) = setup(2, 22);
        let env = SimEnv::xeon_cpu_bound();
        let mut never = FixedPolicyStrategy::new(Policy::full_speed_no_sleep());
        let base = run(&trace, &jobs, &mut never, &env, &config).unwrap();
        let mut r2h = FixedPolicyStrategy::race_to_halt(presets::C6_S0I);
        let saved = run(&trace, &jobs, &mut r2h, &env, &config).unwrap();
        assert!(saved.avg_power_watts() < base.avg_power_watts() - 20.0);
        // R2H runs at full speed so responses stay tiny.
        assert!(saved.normalized_mean_response() < 2.0);
    }

    #[test]
    fn sleepscale_beats_race_to_halt_power_within_qos() {
        let (trace, jobs, config) = setup(3, 23);
        let env = SimEnv::xeon_cpu_bound();
        let mut ss = SleepScaleStrategy::new(&config, CandidateSet::standard()).with_alpha(0.35);
        let ss_report = run(&trace, &jobs, &mut ss, &env, &config).unwrap();
        let mut r2h = FixedPolicyStrategy::race_to_halt(presets::C6_S0I);
        let r2h_report = run(&trace, &jobs, &mut r2h, &env, &config).unwrap();
        assert!(
            ss_report.avg_power_watts() < r2h_report.avg_power_watts(),
            "SS {} W should beat R2H {} W",
            ss_report.avg_power_watts(),
            r2h_report.avg_power_watts()
        );
        // And stay within ~the budget (5×) with slack for prediction error.
        assert!(
            ss_report.normalized_mean_response() < 6.5,
            "µE[R] = {}",
            ss_report.normalized_mean_response()
        );
    }

    #[test]
    fn report_program_histogram_tracks_selections() {
        let (trace, jobs, config) = setup(2, 24);
        let env = SimEnv::xeon_cpu_bound();
        let mut ss = SleepScaleStrategy::new(&config, CandidateSet::standard());
        let report = run(&trace, &jobs, &mut ss, &env, &config).unwrap();
        let hist = report.program_histogram();
        assert!(!hist.is_empty());
        let total: usize = hist.iter().map(|(_, n)| n).sum();
        assert_eq!(total, report.epochs().len());
    }

    /// Tagged streams produce per-class response slices that partition
    /// the run's responses; untagged streams keep the slices empty and
    /// the report bytes unchanged.
    #[test]
    fn tagged_runs_slice_responses_per_class() {
        use sleepscale_sim::{pack_id, ClassId, Job};
        let (trace, jobs, config) = setup(1, 25);
        let env = SimEnv::xeon_cpu_bound();
        let mut s = FixedPolicyStrategy::new(Policy::full_speed_no_sleep());
        let untagged = run(&trace, &jobs, &mut s, &env, &config).unwrap();
        assert!(untagged.class_responses().is_empty());

        let tagged_jobs: Vec<Job> = jobs
            .jobs()
            .iter()
            .enumerate()
            .map(|(i, j)| Job { id: pack_id(j.id, ClassId((i % 3) as u16)), ..*j })
            .collect();
        let tagged_stream = sleepscale_sim::JobStream::new(tagged_jobs).unwrap();
        let mut s = FixedPolicyStrategy::new(Policy::full_speed_no_sleep());
        let tagged = run(&trace, &tagged_stream, &mut s, &env, &config).unwrap();
        let slices = tagged.class_responses();
        assert_eq!(slices.len(), 3);
        assert_eq!(
            slices.iter().map(|c| c.count()).sum::<u64>(),
            tagged.responses().count(),
            "class slices partition the responses"
        );
        // Tags are invisible to the simulation itself.
        assert_eq!(tagged.responses(), untagged.responses());
        assert_eq!(tagged.energy_joules(), untagged.energy_joules());
        // The ledger's active energy is the same bytes either way; tags
        // only split it. Class slices must rebuild the active total.
        assert_eq!(tagged.active_energy_joules(), untagged.active_energy_joules());
        assert_eq!(untagged.class_active_energy().len(), 1);
        assert_eq!(tagged.class_active_energy().len(), 3);
        let rebuilt: f64 = tagged.class_active_energy().iter().sum();
        assert!((rebuilt - tagged.active_energy_joules()).abs() < 1e-6);
        assert!(
            (tagged.active_energy_joules() + tagged.idle_energy_joules() - tagged.energy_joules())
                .abs()
                < 1e-9
        );
        assert!(tagged.active_energy_joules() > 0.0);
        assert_eq!(tagged.power_samples(), untagged.power_samples());
        assert!(tagged.energy_proportionality().is_some());
    }

    /// Killing the loop at any epoch boundary and resuming from the
    /// snapshot must reproduce the uninterrupted run exactly, including
    /// the managed strategy's predictor, log, warm-start, and cache
    /// memory.
    #[test]
    fn kill_and_resume_reproduces_uninterrupted_run() {
        let (trace, jobs, config) = setup(2, 26);
        let env = SimEnv::xeon_cpu_bound();
        let build = || SleepScaleStrategy::new(&config, CandidateSet::standard()).with_alpha(0.35);
        let mut s = build();
        let reference = run(&trace, &jobs, &mut s, &env, &config).unwrap();
        let n = reference.epochs().len();
        for kill_at in [0, n / 2, n - 2] {
            let mut snapshot: Option<Vec<u8>> = None;
            let mut sink = |epoch: usize, bytes: &[u8]| {
                if epoch == kill_at {
                    snapshot = Some(bytes.to_vec());
                    Ok(false)
                } else {
                    Ok(true)
                }
            };
            let mut first = build();
            let killed =
                run_resumable(&trace, &jobs, &mut first, &env, &config, None, Some(&mut sink))
                    .unwrap();
            assert!(killed.is_none(), "kill at {kill_at} should abandon the run");
            let snapshot = snapshot.expect("sink sees every boundary");
            let mut second = build();
            let resumed =
                run_resumable(&trace, &jobs, &mut second, &env, &config, Some(&snapshot), None)
                    .unwrap()
                    .expect("resume without a sink completes");
            assert_eq!(resumed, reference, "kill at {kill_at} diverged");
            assert_eq!(
                format!("{resumed:?}"),
                format!("{reference:?}"),
                "kill at {kill_at} diverged in debug form"
            );
        }
    }

    /// Malformed or truncated resume bytes surface as typed checkpoint
    /// errors, never panics.
    #[test]
    fn resume_from_garbage_is_a_typed_error() {
        let (trace, jobs, config) = setup(1, 27);
        let env = SimEnv::xeon_cpu_bound();
        let mut s = FixedPolicyStrategy::new(Policy::full_speed_no_sleep());
        for bytes in [&[][..], &[7, 0, 0, 0, 0, 0, 0, 0, 1, 2][..]] {
            let err = run_resumable(&trace, &jobs, &mut s, &env, &config, Some(bytes), None)
                .expect_err("garbage must not restore");
            assert!(matches!(err, CoreError::Checkpoint { .. }), "got {err}");
        }
    }

    #[test]
    fn builder_validation() {
        assert!(RuntimeConfig::builder(0.0)
            .qos(QosConstraint::mean_response(0.8).unwrap())
            .build()
            .is_err());
        assert!(RuntimeConfig::builder(0.1).build().is_err()); // missing QoS
        assert!(RuntimeConfig::builder(0.1)
            .qos(QosConstraint::mean_response(0.8).unwrap())
            .epoch_minutes(0)
            .build()
            .is_err());
        assert!(RuntimeConfig::builder(0.1)
            .qos(QosConstraint::mean_response(0.8).unwrap())
            .over_provisioning(-0.1)
            .build()
            .is_err());
    }
}
