use crate::cache::{CacheStats, CharacterizationCache};
use crate::candidates::CandidateSet;
use crate::error::CoreError;
use crate::manager::{CharacterizationKey, PolicyManager, SearchMode, Selection, WarmStartStats};
use crate::runtime::RuntimeConfig;
use sleepscale_power::{Policy, SleepStage};
use sleepscale_predict::{LmsCusum, Predictor};
use sleepscale_sim::JobRecord;
use sleepscale_workloads::JobLog;
use std::fmt;

/// A per-epoch policy source driven by the runtime loop (Section 6's
/// strategy comparison slot).
///
/// The loop calls [`Strategy::begin_epoch`] to obtain the epoch's policy,
/// [`Strategy::end_epoch`] with the epoch's completed jobs, and
/// [`Strategy::observe_minute`] for every realized utilization sample.
pub trait Strategy: fmt::Debug {
    /// Display name (e.g. `"SS"`, `"R2H(C6)"`).
    fn name(&self) -> String;

    /// Decides the policy for epoch `epoch`.
    ///
    /// # Errors
    ///
    /// Implementations may fail on configuration errors; the adaptive
    /// strategies fall back to a safe full-speed policy instead of
    /// failing when their logs are still cold.
    fn begin_epoch(&mut self, epoch: usize) -> Result<Policy, CoreError>;

    /// Ingests the epoch's completed-job records.
    fn end_epoch(&mut self, records: &[JobRecord]);

    /// Feeds one realized utilization sample (one trace minute).
    fn observe_minute(&mut self, rho: f64);

    /// Whether this strategy reads the records passed to
    /// [`Strategy::end_epoch`]. Strategies that ignore them (fixed
    /// policies, race-to-halt) return `false`, letting fleet engines
    /// skip materializing per-epoch record buffers for their servers —
    /// a pure capacity optimization that cannot change results, since
    /// `end_epoch` would discard the records anyway.
    fn wants_epoch_records(&self) -> bool {
        true
    }

    /// The utilization prediction used for the current epoch (for
    /// reporting; fixed strategies report 0).
    fn last_prediction(&self) -> f64 {
        0.0
    }

    /// The manager's selection details for the current epoch, if the
    /// strategy runs a policy manager.
    fn last_selection(&self) -> Option<&Selection> {
        None
    }

    /// Serializes this strategy's mutable cross-epoch state for
    /// checkpointing. Stateless strategies (fixed policy, race-to-halt)
    /// keep the default no-op: their construction-time fields are
    /// rebuilt from configuration on resume.
    fn snapshot_state(&self, w: &mut sleepscale_journal::ByteWriter) {
        let _ = w;
    }

    /// Restores state written by [`Strategy::snapshot_state`] into a
    /// freshly constructed strategy.
    ///
    /// # Errors
    ///
    /// Returns [`sleepscale_journal::CodecError`] on truncated or
    /// malformed bytes.
    fn restore_state(
        &mut self,
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<(), sleepscale_journal::CodecError> {
        let _ = r;
        Ok(())
    }
}

/// The full SleepScale strategy (Section 5): predictor + job log +
/// policy manager + frequency over-provisioning.
pub struct SleepScaleStrategy {
    label: String,
    manager: PolicyManager,
    predictor: Box<dyn Predictor>,
    log: JobLog,
    alpha: f64,
    delay_budget_seconds: f64,
    last_epoch_mean_delay: Option<f64>,
    last_prediction: f64,
    last_selection: Option<Selection>,
    /// `(prediction, key)` cached by `planned_characterization` for the
    /// next `begin_epoch`, so the log signature is hashed once per
    /// epoch. Invalidated by anything that changes the prediction or
    /// the log.
    planned: Option<(f64, CharacterizationKey)>,
}

impl fmt::Debug for SleepScaleStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SleepScaleStrategy")
            .field("label", &self.label)
            .field("alpha", &self.alpha)
            .field("predictor", &self.predictor)
            .finish_non_exhaustive()
    }
}

impl SleepScaleStrategy {
    /// Builds the strategy from a runtime configuration and candidate
    /// set, with the paper's default LMS+CUSUM predictor (history
    /// `p = 10`).
    pub fn new(config: &RuntimeConfig, candidates: CandidateSet) -> SleepScaleStrategy {
        let label = candidates.name().to_string();
        let manager = PolicyManager::new(
            config.env().clone(),
            config.qos(),
            candidates,
            config.mean_service(),
            config.eval_jobs(),
        )
        .expect("RuntimeConfig construction already validated these fields");
        SleepScaleStrategy {
            label,
            manager,
            predictor: Box::new(LmsCusum::new(config.predictor_history())),
            log: JobLog::new(config.log_capacity()),
            alpha: config.over_provisioning(),
            delay_budget_seconds: config.qos().normalized_mean_budget() * config.mean_service(),
            last_epoch_mean_delay: None,
            last_prediction: 0.0,
            last_selection: None,
            planned: None,
        }
    }

    /// Replaces the predictor (Figure 8 compares NP / LMS / LC /
    /// Offline).
    pub fn with_predictor(mut self, predictor: Box<dyn Predictor>) -> SleepScaleStrategy {
        self.label = format!("{}[{}]", self.label, predictor.name());
        self.predictor = predictor;
        self
    }

    /// Overrides the over-provisioning factor `α`.
    pub fn with_alpha(mut self, alpha: f64) -> SleepScaleStrategy {
        self.alpha = alpha.max(0.0);
        self
    }

    /// Overrides the manager's grid-search mode (the default is the
    /// pruned [`SearchMode::CoarseToFine`]; Section 5.1.1's literal
    /// exhaustive sweep remains available for comparison runs).
    pub fn with_search_mode(mut self, mode: SearchMode) -> SleepScaleStrategy {
        self.manager = self.manager.with_search_mode(mode);
        self
    }

    /// Shares a characterization cache with this strategy's manager —
    /// how a homogeneous cluster characterizes once per epoch instead of
    /// once per server.
    pub fn with_shared_cache(mut self, cache: CharacterizationCache) -> SleepScaleStrategy {
        self.manager = self.manager.with_cache(cache);
        self
    }

    /// Disables the manager's characterization cache (every epoch
    /// re-characterizes, as the paper's literal runtime does).
    pub fn without_cache(mut self) -> SleepScaleStrategy {
        self.manager = self.manager.without_cache();
        self
    }

    /// The characterization this strategy's next `begin_epoch` would
    /// memoize, if any — `None` while the log is cold (no
    /// characterization happens) or when caching is disabled. Cheap
    /// (no simulation); fleet engines use it to elect exactly one
    /// owner per distinct missing key before running `begin_epoch`
    /// across worker threads, keeping parallel fleets byte-identical
    /// to serial ones. The plan is cached and consumed by the next
    /// `begin_epoch`, so planning does not double the per-epoch log
    /// signature cost.
    pub fn planned_characterization(&mut self) -> Option<CharacterizationKey> {
        let rho_pred = self.predictor.predict();
        let key = self.manager.plan_key(&self.log, rho_pred);
        self.planned = key.map(|k| (rho_pred, k));
        key
    }

    /// Whether `planned_characterization`'s key is already cached (a
    /// non-counting peek; see [`PolicyManager::is_cached`]).
    pub fn is_characterization_cached(&self, key: &CharacterizationKey) -> bool {
        self.manager.is_cached(key)
    }

    /// Cross-epoch warm-start counters of this strategy's manager.
    pub fn warm_start_stats(&self) -> WarmStartStats {
        self.manager.warm_start_stats()
    }

    /// Hit/miss counters of this strategy's characterization cache
    /// (`None` when caching is disabled).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.manager.cache().map(CharacterizationCache::stats)
    }

    /// Serializes every mutable cross-epoch field for checkpointing.
    ///
    /// `include_cache` controls whether the manager's shared
    /// characterization cache rides along: single-server runs pass
    /// `true` (the strategy owns its cache), while fleet engines pass
    /// `false` and snapshot each *group's* shared cache exactly once —
    /// otherwise N slots would write N redundant copies and the restore
    /// order would matter. The `planned` memo is deliberately excluded:
    /// it is always `None` at epoch boundaries.
    pub fn snapshot_checkpoint(&self, w: &mut sleepscale_journal::ByteWriter, include_cache: bool) {
        use sleepscale_journal::Snapshot;
        sleepscale_predict::snapshot_predictor(self.predictor.as_ref(), w);
        self.log.snapshot(w);
        self.last_epoch_mean_delay.snapshot(w);
        w.put_f64(self.last_prediction);
        self.last_selection.snapshot(w);
        self.manager.snapshot_warm(w);
        if include_cache {
            let cache = self.manager.cache();
            w.put_bool(cache.is_some());
            if let Some(cache) = cache {
                cache.snapshot_state(w);
            }
        }
    }

    /// Restores state written by
    /// [`SleepScaleStrategy::snapshot_checkpoint`] with the same
    /// `include_cache` flag.
    ///
    /// # Errors
    ///
    /// Returns [`sleepscale_journal::CodecError`] on malformed bytes or
    /// when the snapshot's cache-presence flag disagrees with this
    /// strategy's configuration.
    pub fn restore_checkpoint(
        &mut self,
        r: &mut sleepscale_journal::ByteReader<'_>,
        include_cache: bool,
    ) -> Result<(), sleepscale_journal::CodecError> {
        use sleepscale_journal::Snapshot;
        self.predictor = sleepscale_predict::restore_predictor(r)?;
        self.log = JobLog::restore(r)?;
        self.last_epoch_mean_delay = Option::restore(r)?;
        self.last_prediction = r.get_f64()?;
        self.last_selection = Option::restore(r)?;
        self.manager.restore_warm(r)?;
        if include_cache {
            let had_cache = r.get_bool()?;
            match (had_cache, self.manager.cache()) {
                (true, Some(cache)) => cache.restore_state(r)?,
                (false, None) => {}
                (snapshotted, _) => {
                    return Err(sleepscale_journal::CodecError::Invalid(format!(
                        "cache presence mismatch: snapshot {} a cache, strategy {}",
                        if snapshotted { "carries" } else { "lacks" },
                        if snapshotted { "has none" } else { "has one" },
                    )));
                }
            }
        }
        self.planned = None;
        Ok(())
    }

    /// The cold-start policy: full speed (safe for response) with the
    /// candidate set's *deepest* program (safe for power — a server that
    /// never receives work must not idle at operating power; in a
    /// consolidated fleet the spare servers stay cold indefinitely).
    fn cold_start_policy(&self) -> Policy {
        let programs = self.manager.candidates().programs();
        let program = programs.last().expect("CandidateSet is non-empty by construction").clone();
        Policy::new(sleepscale_power::Frequency::MAX, program)
    }
}

impl Strategy for SleepScaleStrategy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn begin_epoch(&mut self, _epoch: usize) -> Result<Policy, CoreError> {
        let rho_pred = self.predictor.predict();
        self.last_prediction = rho_pred;
        // Reuse the key `planned_characterization` hashed, if it is
        // still current (same prediction, log untouched since).
        let planned = self
            .planned
            .take()
            .and_then(|(planned_rho, key)| (planned_rho == rho_pred).then_some(key));
        let selection = match self.manager.select_from_log_keyed(&self.log, rho_pred, planned) {
            Ok(s) => s,
            Err(_) => {
                // Cold start: no log yet. Run safe and fast.
                self.last_selection = None;
                return Ok(self.cold_start_policy());
            }
        };
        // Over-provisioning (Section 5.2.3): if the *past* epoch kept its
        // average delay within the baseline budget, raise the frequency
        // by the guard-band factor to absorb unpredicted surges.
        let mut policy = selection.policy.clone();
        if self.alpha > 0.0 {
            let within_budget =
                self.last_epoch_mean_delay.is_some_and(|d| d < self.delay_budget_seconds);
            if within_budget {
                policy = policy.with_frequency(policy.frequency().scaled_by(1.0 + self.alpha));
            }
        }
        self.last_selection = Some(selection);
        Ok(policy)
    }

    fn end_epoch(&mut self, records: &[JobRecord]) {
        self.planned = None; // the log is about to change
        self.log.extend_from_records(records);
        self.last_epoch_mean_delay = if records.is_empty() {
            Some(0.0)
        } else {
            Some(records.iter().map(JobRecord::response).sum::<f64>() / records.len() as f64)
        };
    }

    fn observe_minute(&mut self, rho: f64) {
        self.planned = None; // the prediction is about to change
        self.predictor.observe(rho);
    }

    fn last_prediction(&self) -> f64 {
        self.last_prediction
    }

    fn last_selection(&self) -> Option<&Selection> {
        self.last_selection.as_ref()
    }

    fn snapshot_state(&self, w: &mut sleepscale_journal::ByteWriter) {
        self.snapshot_checkpoint(w, true);
    }

    fn restore_state(
        &mut self,
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<(), sleepscale_journal::CodecError> {
        self.restore_checkpoint(r, true)
    }
}

/// A fixed policy applied every epoch — the static baselines of
/// Section 4 and ablation studies.
#[derive(Debug, Clone)]
pub struct FixedPolicyStrategy {
    label: String,
    policy: Policy,
}

impl FixedPolicyStrategy {
    /// Deploys `policy` unconditionally.
    pub fn new(policy: Policy) -> FixedPolicyStrategy {
        FixedPolicyStrategy { label: format!("Fixed[{}]", policy.label()), policy }
    }

    /// Race-to-halt (Section 6.1's R2H baselines): always run at `f = 1`
    /// and drop into `stage` the moment the queue empties (use
    /// [`sleepscale_power::presets::C3_S0I`] or
    /// [`sleepscale_power::presets::C6_S0I`] for the paper's R2H(C3) and
    /// R2H(C6)).
    pub fn race_to_halt(stage: SleepStage) -> FixedPolicyStrategy {
        FixedPolicyStrategy {
            label: format!("R2H({})", stage.state().cpu().name()),
            policy: Policy::race_to_halt(stage),
        }
    }
}

impl Strategy for FixedPolicyStrategy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn begin_epoch(&mut self, _epoch: usize) -> Result<Policy, CoreError> {
        Ok(self.policy.clone())
    }

    fn end_epoch(&mut self, _records: &[JobRecord]) {}

    fn observe_minute(&mut self, _rho: f64) {}

    fn wants_epoch_records(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::QosConstraint;
    use sleepscale_power::{presets, SystemState};

    fn config() -> RuntimeConfig {
        RuntimeConfig::builder(0.194)
            .qos(QosConstraint::mean_response(0.8).unwrap())
            .eval_jobs(500)
            .build()
            .unwrap()
    }

    fn record(arrival: f64, response_end: f64) -> JobRecord {
        JobRecord {
            id: 0,
            arrival,
            start: arrival,
            departure: response_end,
            size: 0.194,
            service: 0.194,
            wake: 0.0,
        }
    }

    #[test]
    fn cold_start_runs_full_speed_with_deep_sleep() {
        let mut s = SleepScaleStrategy::new(&config(), CandidateSet::standard());
        let p = s.begin_epoch(0).unwrap();
        assert_eq!(p.frequency().get(), 1.0);
        // Deepest program of the standard set: an idle cold server must
        // not burn operating power.
        assert_eq!(p.program().label(), "C6S3");
        assert!(s.last_selection().is_none());
    }

    #[test]
    fn warm_strategy_selects_from_log() {
        let mut s = SleepScaleStrategy::new(&config(), CandidateSet::standard()).with_alpha(0.0);
        // Warm the log at ρ ≈ 0.2 and the predictor at 0.2.
        let records: Vec<JobRecord> =
            (0..400).map(|i| record(i as f64 * 0.97, i as f64 * 0.97 + 0.2)).collect();
        s.end_epoch(&records);
        for _ in 0..30 {
            s.observe_minute(0.2);
        }
        let p = s.begin_epoch(1).unwrap();
        assert!(p.frequency().get() < 1.0, "should scale down at ρ=0.2, got {p}");
        let sel = s.last_selection().unwrap();
        assert!(sel.feasible);
        assert!((s.last_prediction() - 0.2).abs() < 0.05);
    }

    #[test]
    fn over_provisioning_raises_frequency_when_within_budget() {
        let mk = |alpha| {
            let mut s =
                SleepScaleStrategy::new(&config(), CandidateSet::standard()).with_alpha(alpha);
            let records: Vec<JobRecord> =
                (0..400).map(|i| record(i as f64 * 0.97, i as f64 * 0.97 + 0.2)).collect();
            s.end_epoch(&records); // mean delay 0.2 s < budget 0.97 s
            for _ in 0..30 {
                s.observe_minute(0.2);
            }
            s.begin_epoch(1).unwrap().frequency().get()
        };
        let base = mk(0.0);
        let boosted = mk(0.35);
        assert!(
            (boosted - base * 1.35).abs() < 1e-9 || (boosted - 1.0).abs() < 1e-9,
            "α=0.35 should scale frequency: base {base}, boosted {boosted}"
        );
        assert!(boosted > base);
    }

    #[test]
    fn over_provisioning_skipped_when_over_budget() {
        let mut s = SleepScaleStrategy::new(&config(), CandidateSet::standard()).with_alpha(0.35);
        // Past epoch blew the budget (responses ≈ 2 s > 0.97 s).
        let records: Vec<JobRecord> =
            (0..400).map(|i| record(i as f64 * 0.97, i as f64 * 0.97 + 2.0)).collect();
        s.end_epoch(&records);
        for _ in 0..30 {
            s.observe_minute(0.2);
        }
        let with_alpha = s.begin_epoch(1).unwrap().frequency().get();

        let mut s0 = SleepScaleStrategy::new(&config(), CandidateSet::standard()).with_alpha(0.0);
        let records: Vec<JobRecord> =
            (0..400).map(|i| record(i as f64 * 0.97, i as f64 * 0.97 + 2.0)).collect();
        s0.end_epoch(&records);
        for _ in 0..30 {
            s0.observe_minute(0.2);
        }
        let without = s0.begin_epoch(1).unwrap().frequency().get();
        assert!((with_alpha - without).abs() < 1e-9, "no boost when over budget");
    }

    #[test]
    fn race_to_halt_is_constant_full_speed() {
        let mut s = FixedPolicyStrategy::race_to_halt(presets::C6_S0I);
        assert_eq!(s.name(), "R2H(C6)");
        let p = s.begin_epoch(0).unwrap();
        assert_eq!(p.frequency().get(), 1.0);
        assert_eq!(p.program().stages()[0].state(), SystemState::C6_S0I);
        s.observe_minute(0.9);
        s.end_epoch(&[]);
        assert_eq!(s.begin_epoch(5).unwrap(), p);
        assert!(!s.wants_epoch_records(), "R2H discards records");
    }

    #[test]
    fn record_appetite_follows_whether_end_epoch_reads_them() {
        assert!(SleepScaleStrategy::new(&config(), CandidateSet::standard()).wants_epoch_records());
        assert!(!FixedPolicyStrategy::new(Policy::full_speed_no_sleep()).wants_epoch_records());
    }

    #[test]
    fn fixed_policy_strategy() {
        let policy = Policy::full_speed_no_sleep();
        let mut s = FixedPolicyStrategy::new(policy.clone());
        assert!(s.name().contains("Fixed"));
        assert_eq!(s.begin_epoch(0).unwrap(), policy);
        assert_eq!(s.last_prediction(), 0.0);
    }

    #[test]
    fn predictor_swap_changes_label() {
        let s = SleepScaleStrategy::new(&config(), CandidateSet::standard())
            .with_predictor(Box::new(sleepscale_predict::NaivePrevious::new()));
        assert!(s.name().contains("NP"));
    }
}
