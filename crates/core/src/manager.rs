//! The per-epoch characterize-and-select step (Section 5.1), plus the
//! two optimizations that make it cheap enough for production epochs:
//!
//! * **Pruned search** ([`SearchMode::CoarseToFine`]): instead of
//!   simulating every (frequency, program) pair, each program's
//!   frequency axis is searched by bracketing the power minimum on a
//!   coarse subsample and refining only the winning bracket, then
//!   binary-searching the QoS-feasibility boundary when the bottom of
//!   the bowl is infeasible. This is *exact* (picks the same candidate
//!   as the exhaustive sweep) whenever power is unimodal in `f` and the
//!   QoS score is monotone non-increasing in `f` on the replay stream —
//!   the bowl structure of the paper's Figure 1 and the
//!   common-random-numbers monotonicity the engine's property tests
//!   establish. Simulation noise can dent either assumption, so it is a
//!   *heuristic* in general; the cross-crate property suite bounds the
//!   damage to within 1% of the exhaustive sweep's power.
//! * **Selection caching** ([`CharacterizationCache`]): selections are
//!   memoized under (quantized `ρ̂`, coarse log signature). The manager
//!   quantizes the prediction to [`RHO_QUANTUM`] *before* replaying, so
//!   a hit returns exactly what recomputation would return whenever the
//!   log signature still matches; across epochs the log's contents
//!   churn while its signature doesn't, making hits heuristic to
//!   precisely the degree the diurnal-similarity assumption holds.

use crate::cache::{CacheKey, CharacterizationCache, DEFAULT_CACHE_CAPACITY};
use crate::candidates::CandidateSet;
use crate::error::CoreError;
use crate::qos::QosConstraint;
use serde::{Deserialize, Serialize};
use sleepscale_power::{Frequency, Policy, SleepProgram};
use sleepscale_sim::{simulate_summary_into, sweep, JobStream, SimEnv, SimOutcome, SimScratch};
use sleepscale_workloads::JobLog;

/// Bucket width for the predicted utilization in cache keys. The
/// manager rounds `ρ̂` to this grid before replaying, so every cached
/// selection is exact for its bucket; 0.02 is well inside the paper's
/// own prediction error while keeping a diurnal day to a few dozen
/// distinct buckets.
pub const RHO_QUANTUM: f64 = 0.02;

/// An opaque handle to the characterization a manager *would* perform
/// for a given (log, prediction) pair — the cache key, without the
/// work. Fleet engines use it to elect one owner per distinct missing
/// key before fanning `begin_epoch` out across threads, so exactly one
/// server performs each real sweep regardless of worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CharacterizationKey(pub(crate) CacheKey);

/// Counters for the cross-epoch warm-start of the coarse-to-fine
/// search: how many per-program bowl searches ran, and how many of them
/// started from a remembered bottom instead of a cold bracket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WarmStartStats {
    /// Program searches seeded from a previous epoch's bowl bottom.
    pub warm: u64,
    /// Total program searches performed by `select_from_log`.
    pub searches: u64,
    /// QoS-feasibility boundary searches resolved by verifying the
    /// previous epoch's remembered boundary (two probes) instead of a
    /// cold binary search (each hit saves ~2–4 evaluations).
    pub boundary_hits: u64,
    /// Total boundary searches (bowl bottom infeasible but some faster
    /// frequency feasible).
    pub boundary_searches: u64,
}

impl WarmStartStats {
    /// Fraction of searches that were warm-started (0 when none ran).
    pub fn warm_rate(&self) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            self.warm as f64 / self.searches as f64
        }
    }

    /// Fraction of boundary searches answered from the remembered
    /// boundary (0 when none ran).
    pub fn boundary_hit_rate(&self) -> f64 {
        if self.boundary_searches == 0 {
            0.0
        } else {
            self.boundary_hits as f64 / self.boundary_searches as f64
        }
    }

    /// Adds another manager's counters in (fleet aggregation).
    pub fn merge(&mut self, other: WarmStartStats) {
        self.warm += other.warm;
        self.searches += other.searches;
        self.boundary_hits += other.boundary_hits;
        self.boundary_searches += other.boundary_searches;
    }
}

/// The coarse-to-fine search's cross-epoch memory: the last-seen bowl
///-bottom *frequency* per program, plus the last-seen QoS-feasibility
/// boundary frequency per program (the smallest feasible frequency
/// above an infeasible bowl bottom). Stored as frequencies (not grid
/// indices) because the grid itself moves with the predicted
/// utilization.
#[derive(Debug, Clone, Default)]
struct WarmStart {
    bottoms: Vec<Option<f64>>,
    boundaries: Vec<Option<f64>>,
    stats: WarmStartStats,
}

/// How the policy manager explores the candidate grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SearchMode {
    /// Simulate every (frequency, program) candidate — the paper's
    /// literal Algorithm 1, and the reference the pruned mode is tested
    /// against.
    Exhaustive,
    /// Per program: bracket the power minimum on a coarse frequency
    /// subsample, refine only the winning bracket, and binary-search
    /// the feasibility boundary if the bowl bottom violates QoS. Far
    /// fewer `simulate` calls than `|grid| × |programs|`; exact under
    /// the bowl-convexity and response-monotonicity assumptions, a
    /// heuristic where simulation noise dents them.
    CoarseToFine,
}

/// The policy manager (Section 5.1): characterizes candidate policies
/// by simulating the logged workload at the predicted utilization and
/// picks the minimum-power policy meeting the QoS constraint.
///
/// Cloning a manager shares its [`CharacterizationCache`] handle (the
/// cache is reference-counted); everything else is copied.
#[derive(Debug, Clone)]
pub struct PolicyManager {
    env: SimEnv,
    qos: QosConstraint,
    candidates: CandidateSet,
    mean_service: f64,
    eval_jobs: usize,
    search: SearchMode,
    cache: Option<CharacterizationCache>,
    replay_scratch: JobStream,
    warm: WarmStart,
}

/// What the manager decided for an epoch, with its predicted metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Selection {
    /// The chosen policy.
    pub policy: Policy,
    /// Predicted average power (W) for the epoch.
    pub predicted_power: f64,
    /// Predicted normalized mean response.
    pub predicted_norm_response: f64,
    /// Whether the prediction met the QoS constraint (false means the
    /// manager fell back to the least-bad candidate).
    pub feasible: bool,
    /// How many candidate policies were simulated for this selection
    /// (0 when the selection came from the characterization cache).
    pub evaluated: usize,
}

impl PolicyManager {
    /// Builds a manager with the default pruned search
    /// ([`SearchMode::CoarseToFine`]) and a private characterization
    /// cache.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a non-positive mean
    /// service time or zero evaluation length.
    pub fn new(
        env: SimEnv,
        qos: QosConstraint,
        candidates: CandidateSet,
        mean_service: f64,
        eval_jobs: usize,
    ) -> Result<PolicyManager, CoreError> {
        if !mean_service.is_finite() || mean_service <= 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: format!("mean service {mean_service} must be finite and > 0"),
            });
        }
        if eval_jobs == 0 {
            return Err(CoreError::InvalidConfig { reason: "eval_jobs must be at least 1".into() });
        }
        Ok(PolicyManager {
            env,
            qos,
            candidates,
            mean_service,
            eval_jobs,
            search: SearchMode::CoarseToFine,
            cache: Some(CharacterizationCache::new(DEFAULT_CACHE_CAPACITY)),
            replay_scratch: JobStream::default(),
            warm: WarmStart::default(),
        })
    }

    /// Replaces the grid-search mode.
    pub fn with_search_mode(mut self, mode: SearchMode) -> PolicyManager {
        self.search = mode;
        self
    }

    /// Shares `cache` with this manager (a cluster hands every server's
    /// manager one handle so homogeneous servers characterize once).
    pub fn with_cache(mut self, cache: CharacterizationCache) -> PolicyManager {
        self.cache = Some(cache);
        self
    }

    /// Disables selection caching: every `select_from_log` re-replays
    /// and re-characterizes, and the prediction is *not* quantized.
    pub fn without_cache(mut self) -> PolicyManager {
        self.cache = None;
        self
    }

    /// The search mode in force.
    pub fn search_mode(&self) -> SearchMode {
        self.search
    }

    /// The characterization cache, if caching is enabled.
    pub fn cache(&self) -> Option<&CharacterizationCache> {
        self.cache.as_ref()
    }

    /// The cache key `select_from_log` would use for this (log,
    /// prediction) pair, or `None` when the call could not be served
    /// from (or stored into) the cache — caching disabled, degenerate
    /// prediction, or an empty log (which `select_from_log` rejects).
    ///
    /// Fleet engines call this before fanning epoch control out across
    /// threads: grouping servers by key and electing the first server
    /// of each missing key as its computer makes the shared cache's
    /// contents independent of worker count and scheduling.
    pub fn plan_key(&self, log: &JobLog, rho_pred: f64) -> Option<CharacterizationKey> {
        self.cache_key(log, rho_pred, None).map(CharacterizationKey)
    }

    /// The one place a cache key is made: `planned` when given, else
    /// built from the pair. `None` when the pair can be neither served
    /// from nor stored into the cache — caching disabled, a non-finite
    /// prediction (kept out of the `as u32` bucket cast, which would
    /// launder it into a real bucket), or an empty log (which the
    /// replay rejects, so a lookup would count a miss for a selection
    /// that never happens).
    fn cache_key(
        &self,
        log: &JobLog,
        rho_pred: f64,
        planned: Option<CharacterizationKey>,
    ) -> Option<CacheKey> {
        if self.cache.is_none() || !rho_pred.is_finite() || log.is_empty() {
            return None;
        }
        Some(match planned {
            Some(k) => {
                debug_assert_eq!(k.0.search, self.search, "planned key from another search mode");
                k.0
            }
            None => CacheKey {
                rho_bucket: (rho_pred.clamp(0.01, 0.95) / RHO_QUANTUM).round() as u32,
                log_signature: log.coarse_signature(),
                search: self.search,
            },
        })
    }

    /// Whether a selection for `key` is already cached. Unlike a
    /// lookup through `select_from_log`, this does *not* touch the
    /// hit/miss counters — it is a planning peek, not a use.
    pub fn is_cached(&self, key: &CharacterizationKey) -> bool {
        self.cache.as_ref().is_some_and(|c| c.contains(key))
    }

    /// Counters for the coarse-to-fine search's cross-epoch warm-start
    /// (how often a program's bowl search started from a remembered
    /// bottom instead of a cold bracket).
    pub fn warm_start_stats(&self) -> WarmStartStats {
        self.warm.stats
    }

    /// Selects a policy from a runtime job log, rescaled to the
    /// predicted utilization (Section 5.2.1's log replay).
    ///
    /// With caching enabled the prediction is quantized to
    /// [`RHO_QUANTUM`] and the selection memoized under
    /// (`ρ̂` bucket, [`JobLog::coarse_signature`]); a hit performs zero
    /// simulations (`Selection::evaluated == 0`). The replay buffer is
    /// reused across calls, so a cache miss allocates no fresh stream.
    /// In [`SearchMode::CoarseToFine`], misses warm-start each
    /// program's bowl search from the bottom this manager found for
    /// that program in a previous epoch (load drifts slowly between
    /// epochs, so the remembered bottom is usually 1–3 descent steps
    /// from the new one).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Workload`] when the log is empty or the
    /// prediction is degenerate.
    pub fn select_from_log(&mut self, log: &JobLog, rho_pred: f64) -> Result<Selection, CoreError> {
        self.select_from_log_keyed(log, rho_pred, None)
    }

    /// [`PolicyManager::select_from_log`] with a pre-computed
    /// [`CharacterizationKey`] from [`PolicyManager::plan_key`], so the
    /// log signature is hashed once per epoch instead of once at
    /// planning time and again at selection time (fleet engines plan
    /// every server's key up front for owner election).
    ///
    /// `planned` must come from `plan_key` on the *same* `(log,
    /// rho_pred)` pair with no intervening log or configuration change —
    /// a stale key would alias another characterization. Passing `None`
    /// recomputes the key here.
    ///
    /// # Errors
    ///
    /// Same as [`PolicyManager::select_from_log`].
    pub fn select_from_log_keyed(
        &mut self,
        log: &JobLog,
        rho_pred: f64,
        planned: Option<CharacterizationKey>,
    ) -> Result<Selection, CoreError> {
        let key = self.cache_key(log, rho_pred, planned);
        // A keyed selection characterizes at its bucket's utilization,
        // so every prediction in the bucket shares it.
        let rho = match &key {
            Some(k) => (k.rho_bucket as f64 * RHO_QUANTUM).clamp(0.01, 0.95),
            None => rho_pred.clamp(0.01, 0.95),
        };
        if let (Some(cache), Some(key)) = (&self.cache, &key) {
            if let Some(mut selection) = cache.get(key) {
                selection.evaluated = 0;
                return Ok(selection);
            }
        }
        let mut stream = std::mem::take(&mut self.replay_scratch);
        let replayed = log.replay_into(self.eval_jobs, rho, &mut stream);
        self.replay_scratch = stream;
        replayed?;
        let mut warm = std::mem::take(&mut self.warm);
        let selection = match self.search {
            SearchMode::Exhaustive => self.select_exhaustive(&self.replay_scratch, rho),
            SearchMode::CoarseToFine => {
                self.select_pruned_with(&self.replay_scratch, rho, &mut warm)
            }
        };
        self.warm = warm;
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            cache.insert(key, selection.clone());
        }
        Ok(selection)
    }

    /// Selects a policy for an explicit characterization stream (used by
    /// the figure harness and by callers that build their own replays).
    /// Never consults the cache or the cross-epoch warm-start memory;
    /// honors the configured [`SearchMode`].
    pub fn select_from_stream(&self, stream: &JobStream, rho_pred: f64) -> Selection {
        match self.search {
            SearchMode::Exhaustive => self.select_exhaustive(stream, rho_pred),
            SearchMode::CoarseToFine => {
                self.select_pruned_with(stream, rho_pred, &mut WarmStart::default())
            }
        }
    }

    /// The paper's literal sweep: every candidate simulated, then the
    /// minimum-power feasible policy (or the least-bad fallback).
    fn select_exhaustive(&self, stream: &JobStream, rho_pred: f64) -> Selection {
        let policies = self.candidates.policies_for(rho_pred);
        let evals = sweep::evaluate_policies(stream, &policies, &self.env);
        let evaluated = evals.len();
        let refs: Vec<(&Policy, &SimOutcome)> =
            evals.iter().map(|e| (&e.policy, &e.outcome)).collect();
        self.pick(&refs, evaluated)
    }

    /// Coarse-to-fine pruned search (see the [module docs](self) for
    /// the exactness conditions). `warm` carries the cross-epoch
    /// per-program bowl-bottom memory: when it holds a bottom for a
    /// program, that program's search starts with a local descent from
    /// the remembered frequency instead of a cold bracket-and-refine
    /// pass; either way the bottom found this time is written back.
    fn select_pruned_with(
        &self,
        stream: &JobStream,
        rho_pred: f64,
        warm: &mut WarmStart,
    ) -> Selection {
        let grid: Vec<Frequency> = self.candidates.grid_for(rho_pred).iter().collect();
        let programs = self.candidates.programs();
        if warm.bottoms.len() != programs.len() {
            warm.bottoms = vec![None; programs.len()];
            warm.boundaries = vec![None; programs.len()];
        }
        let mut scratch = SimScratch::new();
        let mut evaluated = 0usize;
        // Every (policy, outcome) the search simulated, for the
        // least-bad fallback; indices of per-program winners.
        let mut evals: Vec<(Policy, SimOutcome)> = Vec::new();
        let mut winners: Vec<usize> = Vec::new();

        // The bowl bottoms of different programs sit close together
        // (the frequency/response trade dominates; the sleep program
        // mostly shifts the curve), so each program's search warm-starts
        // from its own bottom in the previous epoch when one is
        // remembered, else from the previous program's minimum, and
        // descends locally.
        let mut hint: Option<usize> = None;
        for (p, program) in programs.iter().enumerate() {
            let remembered = warm.bottoms[p].map(|f| nearest_grid_index(&grid, f));
            let boundary_hint = warm.boundaries[p].map(|f| nearest_grid_index(&grid, f));
            warm.stats.searches += 1;
            if remembered.is_some() {
                warm.stats.warm += 1;
            }
            let mut search = ProgramSearch {
                jobs: stream,
                env: &self.env,
                grid: &grid,
                program,
                memo: vec![None; grid.len()],
                evaluated: 0,
                scratch: &mut scratch,
            };
            let (bottom, winner) = search.run(
                &self.qos,
                self.mean_service,
                remembered.or(hint),
                boundary_hint,
                &mut warm.stats,
            );
            hint = Some(bottom);
            warm.bottoms[p] = Some(grid[bottom].get());
            // Remember the feasibility boundary only when one was
            // actually searched (an infeasible bottom with a feasible
            // faster frequency); a feasible bottom keeps the previous
            // memory — the boundary may return when load does.
            if let Some(w) = winner {
                if w != bottom {
                    warm.boundaries[p] = Some(grid[w].get());
                }
            }
            evaluated += search.evaluated;
            let memo = search.memo;
            for (i, outcome) in memo.into_iter().enumerate() {
                if let Some(outcome) = outcome {
                    if winner == Some(i) {
                        winners.push(evals.len());
                    }
                    evals.push((Policy::new(grid[i], program.clone()), outcome));
                }
            }
        }

        // Minimum power among the per-program feasible winners.
        let best_feasible = winners
            .iter()
            .map(|&i| &evals[i])
            .min_by(|a, b| a.1.avg_power().partial_cmp(&b.1.avg_power()).expect("finite power"));
        if let Some((policy, outcome)) = best_feasible {
            return Selection {
                policy: policy.clone(),
                predicted_power: outcome.avg_power().as_watts(),
                predicted_norm_response: outcome.normalized_mean_response(self.mean_service),
                feasible: true,
                evaluated,
            };
        }
        let refs: Vec<(&Policy, &SimOutcome)> = evals.iter().map(|(p, o)| (p, o)).collect();
        self.pick(&refs, evaluated)
    }

    /// Shared selection rule over a set of characterized candidates:
    /// minimum-power feasible policy, else the least-bad fallback —
    /// among the candidates within 5% of the best achievable QoS score,
    /// the cheapest. (Pure score-minimization would pick `C0(i)S0(i)`
    /// at `f = 1` — zero wake — and waste ~60 W of idle power over a
    /// near-identical response.)
    fn pick(&self, evals: &[(&Policy, &SimOutcome)], evaluated: usize) -> Selection {
        let mut best_feasible: Option<(usize, f64)> = None;
        let mut best_score = f64::INFINITY;
        for (i, (_, outcome)) in evals.iter().enumerate() {
            let power = outcome.avg_power().as_watts();
            if self.qos.satisfied_by(outcome, self.mean_service)
                && best_feasible.as_ref().is_none_or(|(_, p)| power < *p)
            {
                best_feasible = Some((i, power));
            }
            best_score = best_score.min(self.qos.score(outcome, self.mean_service));
        }
        let (index, feasible) = match best_feasible {
            Some((i, _)) => (i, true),
            None => {
                let least_bad = evals
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, o))| {
                        self.qos.score(o, self.mean_service) <= best_score * 1.05 + 1e-9
                    })
                    .min_by(|(_, (_, a)), (_, (_, b))| {
                        a.avg_power().partial_cmp(&b.avg_power()).expect("powers are finite")
                    })
                    .map(|(i, _)| i)
                    .expect("CandidateSet is non-empty by construction, so at least one candidate was characterized");
                (least_bad, false)
            }
        };
        let (policy, outcome) = evals[index];
        Selection {
            policy: policy.clone(),
            predicted_power: outcome.avg_power().as_watts(),
            predicted_norm_response: outcome.normalized_mean_response(self.mean_service),
            feasible,
            evaluated,
        }
    }

    /// The QoS constraint in force.
    pub fn qos(&self) -> QosConstraint {
        self.qos
    }

    /// The candidate set searched.
    pub fn candidates(&self) -> &CandidateSet {
        &self.candidates
    }

    /// The workload's full-speed mean service time `1/µ`.
    pub fn mean_service(&self) -> f64 {
        self.mean_service
    }
}

impl sleepscale_journal::Snapshot for SearchMode {
    fn snapshot(&self, w: &mut sleepscale_journal::ByteWriter) {
        w.put_u8(match self {
            SearchMode::Exhaustive => 0,
            SearchMode::CoarseToFine => 1,
        });
    }

    fn restore(
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<SearchMode, sleepscale_journal::CodecError> {
        match r.get_u8()? {
            0 => Ok(SearchMode::Exhaustive),
            1 => Ok(SearchMode::CoarseToFine),
            other => Err(sleepscale_journal::CodecError::Invalid(format!(
                "unknown search mode tag {other}"
            ))),
        }
    }
}

impl sleepscale_journal::Snapshot for Selection {
    fn snapshot(&self, w: &mut sleepscale_journal::ByteWriter) {
        self.policy.snapshot(w);
        w.put_f64(self.predicted_power);
        w.put_f64(self.predicted_norm_response);
        w.put_bool(self.feasible);
        w.put_usize(self.evaluated);
    }

    fn restore(
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<Selection, sleepscale_journal::CodecError> {
        Ok(Selection {
            policy: Policy::restore(r)?,
            predicted_power: r.get_f64()?,
            predicted_norm_response: r.get_f64()?,
            feasible: r.get_bool()?,
            evaluated: r.get_usize()?,
        })
    }
}

impl sleepscale_journal::Snapshot for WarmStartStats {
    fn snapshot(&self, w: &mut sleepscale_journal::ByteWriter) {
        w.put_u64(self.warm);
        w.put_u64(self.searches);
        w.put_u64(self.boundary_hits);
        w.put_u64(self.boundary_searches);
    }

    fn restore(
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<WarmStartStats, sleepscale_journal::CodecError> {
        Ok(WarmStartStats {
            warm: r.get_u64()?,
            searches: r.get_u64()?,
            boundary_hits: r.get_u64()?,
            boundary_searches: r.get_u64()?,
        })
    }
}

impl sleepscale_journal::Snapshot for WarmStart {
    fn snapshot(&self, w: &mut sleepscale_journal::ByteWriter) {
        self.bottoms.snapshot(w);
        self.boundaries.snapshot(w);
        self.stats.snapshot(w);
    }

    fn restore(
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<WarmStart, sleepscale_journal::CodecError> {
        Ok(WarmStart {
            bottoms: Vec::restore(r)?,
            boundaries: Vec::restore(r)?,
            stats: WarmStartStats::restore(r)?,
        })
    }
}

impl PolicyManager {
    /// Serializes the cross-epoch warm-start memory (bowl bottoms,
    /// feasibility boundaries, counters) for checkpointing. The shared
    /// characterization cache is snapshotted separately — once per
    /// handle, not once per manager.
    pub fn snapshot_warm(&self, w: &mut sleepscale_journal::ByteWriter) {
        use sleepscale_journal::Snapshot;
        self.warm.snapshot(w);
    }

    /// Restores the warm-start memory written by
    /// [`PolicyManager::snapshot_warm`].
    ///
    /// # Errors
    ///
    /// Returns [`sleepscale_journal::CodecError`] on malformed bytes;
    /// the manager keeps its previous memory in that case.
    pub fn restore_warm(
        &mut self,
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<(), sleepscale_journal::CodecError> {
        use sleepscale_journal::Snapshot;
        self.warm = WarmStart::restore(r)?;
        Ok(())
    }
}

/// The grid index whose frequency is closest to `f` — how a remembered
/// bowl-bottom frequency re-anchors on a grid that shifted with the
/// predicted utilization. The grid is ascending, so this is a binary
/// search plus a two-neighbor comparison.
fn nearest_grid_index(grid: &[Frequency], f: f64) -> usize {
    let pos = grid.partition_point(|g| g.get() < f);
    match (pos.checked_sub(1), grid.get(pos)) {
        (Some(lo), Some(hi)) => {
            if f - grid[lo].get() <= hi.get() - f {
                lo
            } else {
                pos
            }
        }
        (Some(lo), None) => lo,
        (None, _) => 0,
    }
}

/// Memoizing per-program frequency search: each grid index is simulated
/// at most once, on demand, with one shared scratch.
struct ProgramSearch<'a> {
    jobs: &'a JobStream,
    env: &'a SimEnv,
    grid: &'a [Frequency],
    program: &'a SleepProgram,
    memo: Vec<Option<SimOutcome>>,
    evaluated: usize,
    scratch: &'a mut SimScratch,
}

impl ProgramSearch<'_> {
    fn ensure(&mut self, i: usize) {
        if self.memo[i].is_none() {
            let policy = Policy::new(self.grid[i], self.program.clone());
            self.memo[i] = Some(simulate_summary_into(self.jobs, &policy, self.env, self.scratch));
            self.evaluated += 1;
        }
    }

    fn power(&mut self, i: usize) -> f64 {
        self.ensure(i);
        self.memo[i].as_ref().expect("just ensured").avg_power().as_watts()
    }

    fn feasible(&mut self, i: usize, qos: &QosConstraint, mean_service: f64) -> bool {
        self.ensure(i);
        qos.satisfied_by(self.memo[i].as_ref().expect("just ensured"), mean_service)
    }

    /// Finds this program's power-bowl bottom (from a warm-start `hint`
    /// when available) and its minimum-power feasible frequency.
    /// Returns `(bowl bottom index, feasible winner)`; the winner is
    /// `None` when no evaluated frequency meets the QoS budget.
    ///
    /// When the bottom is infeasible, `boundary_hint` (a previous
    /// epoch's feasibility boundary, re-anchored on the current grid)
    /// is verified first: if it is feasible and its left neighbor is
    /// not, it *is* the boundary under the same response-monotonicity
    /// assumption the binary search rests on, for two probes instead of
    /// a log-width bisection. A failed verification falls back to the
    /// cold binary search (the probes are memoized, so the fallback
    /// costs nothing extra beyond them).
    fn run(
        &mut self,
        qos: &QosConstraint,
        mean_service: f64,
        hint: Option<usize>,
        boundary_hint: Option<usize>,
        stats: &mut WarmStartStats,
    ) -> (usize, Option<usize>) {
        let n = self.grid.len();
        let i_star = match hint {
            Some(guess) => self.descend_from(guess.min(n - 1)),
            None => self.bracket_and_refine(),
        };
        // Feasibility: the bowl bottom if it meets QoS, else the
        // smallest feasible frequency above it (response improves and
        // power worsens monotonically to the right of the bottom).
        if self.feasible(i_star, qos, mean_service) {
            return (i_star, Some(i_star));
        }
        if !self.feasible(n - 1, qos, mean_service) {
            return (i_star, None); // Even f = 1 misses this program's budget.
        }
        stats.boundary_searches += 1;
        if let Some(guess) = boundary_hint {
            let j = guess.clamp(i_star + 1, n - 1);
            if self.feasible(j, qos, mean_service)
                && (j == i_star + 1 || !self.feasible(j - 1, qos, mean_service))
            {
                stats.boundary_hits += 1;
                return (i_star, Some(j));
            }
        }
        let (mut infeasible, mut feasible) = (i_star, n - 1);
        while feasible - infeasible > 1 {
            let mid = infeasible + (feasible - infeasible) / 2;
            if self.feasible(mid, qos, mean_service) {
                feasible = mid;
            } else {
                infeasible = mid;
            }
        }
        (i_star, Some(feasible))
    }

    /// Cold-start bowl-bottom search: bracket the minimum on a coarse
    /// subsample of the grid, then refine only the winning bracket by
    /// discrete ternary search.
    fn bracket_and_refine(&mut self) -> usize {
        let n = self.grid.len();
        // Coarse pass: every `stride`-th index plus the top of the grid
        // (f = 1 must always be examined — it anchors the bracket).
        let stride = n.div_ceil(4).max(1);
        let mut coarse: Vec<usize> = (0..n).step_by(stride).collect();
        if *coarse.last().expect("grids are non-empty") != n - 1 {
            coarse.push(n - 1);
        }
        let pos = (0..coarse.len())
            .min_by(|&a, &b| {
                self.power(coarse[a]).partial_cmp(&self.power(coarse[b])).expect("finite power")
            })
            .expect("coarse pass is non-empty");
        // Refine the two coarse intervals around the coarse minimum.
        let mut lo = coarse[pos.saturating_sub(1)];
        let mut hi = coarse[(pos + 1).min(coarse.len() - 1)];
        while hi - lo > 2 {
            let m1 = lo + (hi - lo) / 3;
            let m2 = hi - (hi - lo) / 3;
            if self.power(m1) <= self.power(m2) {
                hi = m2;
            } else {
                lo = m1;
            }
        }
        (lo..=hi)
            .min_by(|&a, &b| self.power(a).partial_cmp(&self.power(b)).expect("finite power"))
            .expect("bracket is non-empty")
    }

    /// Warm-start bowl-bottom search: local descent from `guess`.
    /// Under unimodality the first local minimum *is* the bowl bottom;
    /// when the neighboring program's bottom is close (the common
    /// case), this costs 2–3 evaluations instead of a full bracket.
    fn descend_from(&mut self, guess: usize) -> usize {
        let n = self.grid.len();
        let mut best = guess;
        loop {
            let left_down = best > 0 && self.power(best - 1) < self.power(best);
            if left_down {
                best -= 1;
                continue;
            }
            let right_down = best + 1 < n && self.power(best + 1) < self.power(best);
            if right_down {
                best += 1;
                continue;
            }
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sleepscale_sim::generator;

    const MEAN_SERVICE: f64 = 0.194;

    fn manager(candidates: CandidateSet, rho_b: f64) -> PolicyManager {
        PolicyManager::new(
            SimEnv::xeon_cpu_bound(),
            QosConstraint::mean_response(rho_b).unwrap(),
            candidates,
            MEAN_SERVICE,
            2000,
        )
        .unwrap()
    }

    fn stream(rho: f64, seed: u64) -> JobStream {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        generator::generate_poisson_exp(4000, rho, MEAN_SERVICE, &mut rng).unwrap()
    }

    #[test]
    fn selection_meets_qos_on_its_characterization() {
        let m = manager(CandidateSet::standard(), 0.8);
        let s = m.select_from_stream(&stream(0.2, 1), 0.2);
        assert!(s.feasible);
        assert!(s.predicted_norm_response <= 5.0 + 1e-9);
        assert!(s.evaluated > 0);
    }

    #[test]
    fn pruned_search_simulates_far_fewer_candidates() {
        let m = manager(CandidateSet::standard(), 0.8);
        let exhaustive = m.clone().with_search_mode(SearchMode::Exhaustive);
        let st = stream(0.2, 1);
        let pruned_sel = m.select_from_stream(&st, 0.2);
        let full_sel = exhaustive.select_from_stream(&st, 0.2);
        assert!(
            pruned_sel.evaluated * 2 < full_sel.evaluated,
            "pruned {} vs exhaustive {}",
            pruned_sel.evaluated,
            full_sel.evaluated
        );
    }

    #[test]
    fn pruned_matches_exhaustive_within_one_percent() {
        let pruned = manager(CandidateSet::standard(), 0.8);
        let exhaustive = pruned.clone().with_search_mode(SearchMode::Exhaustive);
        for (rho, seed) in [(0.1, 11), (0.2, 12), (0.35, 13), (0.5, 14), (0.7, 15)] {
            let st = stream(rho, seed);
            let p = pruned.select_from_stream(&st, rho);
            let e = exhaustive.select_from_stream(&st, rho);
            assert_eq!(p.feasible, e.feasible, "rho={rho}");
            // Exhaustive is the floor; pruned may give up at most 1%.
            assert!(
                p.predicted_power <= e.predicted_power * 1.01 + 1e-9,
                "rho={rho}: pruned {} W vs exhaustive {} W",
                p.predicted_power,
                e.predicted_power
            );
            assert!(p.predicted_power >= e.predicted_power - 1e-9, "rho={rho}");
        }
    }

    #[test]
    fn cache_hit_skips_simulation_and_reproduces_selection() {
        let mut m = manager(CandidateSet::standard(), 0.8);
        let mut log = JobLog::new(5000);
        for _ in 0..500 {
            log.push(1.0, 0.194);
        }
        let first = m.select_from_log(&log, 0.2).unwrap();
        assert!(first.evaluated > 0);
        let second = m.select_from_log(&log, 0.2).unwrap();
        assert_eq!(second.evaluated, 0, "second call must be a cache hit");
        assert_eq!(second.policy, first.policy);
        // A nearby prediction in the same RHO_QUANTUM bucket also hits.
        let third = m.select_from_log(&log, 0.2 + RHO_QUANTUM / 4.0).unwrap();
        assert_eq!(third.evaluated, 0);
        let stats = m.cache().unwrap().stats();
        assert_eq!(stats.hits, 2);
        // A different load level misses.
        let far = m.select_from_log(&log, 0.5).unwrap();
        assert!(far.evaluated > 0);
    }

    #[test]
    fn disabling_cache_restores_unquantized_replay() {
        let mut m = manager(CandidateSet::standard(), 0.8).without_cache();
        assert!(m.cache().is_none());
        let mut log = JobLog::new(5000);
        for _ in 0..500 {
            log.push(1.0, 0.194);
        }
        let a = m.select_from_log(&log, 0.21).unwrap();
        let b = m.select_from_log(&log, 0.21).unwrap();
        assert!(a.evaluated > 0 && b.evaluated > 0);
        // Determinism still holds on the decision; the second call may
        // reach it in fewer simulations via the cross-epoch warm start.
        assert_eq!(a.policy, b.policy, "no cache, but determinism still holds");
        assert_eq!(a.predicted_power, b.predicted_power);
        assert_eq!(a.feasible, b.feasible);
        assert!(b.evaluated <= a.evaluated, "warm start must not cost extra simulations");
        let warm = m.warm_start_stats();
        assert!(warm.warm > 0 && warm.searches > warm.warm, "{warm:?}");
        assert!(warm.warm_rate() > 0.0);
    }

    /// Satellite (PR 4): the QoS-feasibility boundary, not just the
    /// bowl bottom, warm-starts across epochs. With a budget tight
    /// enough that the bowl bottom is infeasible, the repeat search
    /// must verify the remembered boundary in two probes instead of
    /// re-bisecting, saving ~2–4 evaluations per warm search.
    #[test]
    fn boundary_warm_start_cuts_repeat_search_cost() {
        let mut m = manager(CandidateSet::standard(), 0.45).without_cache();
        let mut log = JobLog::new(5000);
        for _ in 0..500 {
            log.push(1.0, 0.194);
        }
        let first = m.select_from_log(&log, 0.3).unwrap();
        let cold = m.warm_start_stats();
        assert!(cold.boundary_searches > 0, "bottom should be infeasible at this budget: {cold:?}");
        assert_eq!(cold.boundary_hits, 0, "a first search has no boundary memory");
        let second = m.select_from_log(&log, 0.3).unwrap();
        let warm = m.warm_start_stats();
        assert_eq!(second.policy, first.policy, "warm start must not change the decision");
        assert_eq!(second.predicted_power, first.predicted_power);
        let hits = warm.boundary_hits;
        assert!(hits > 0, "repeat boundary searches should hit the memory: {warm:?}");
        assert!(warm.boundary_hit_rate() > 0.0);
        // Each hit replaces a log-width bisection with ≤2 memoized
        // probes; the warm repeat must be cheaper by at least two
        // evaluations per hit.
        assert!(
            first.evaluated >= second.evaluated + 2 * hits as usize,
            "cold {} vs warm {} evaluations with {hits} boundary hits",
            first.evaluated,
            second.evaluated
        );
    }

    #[test]
    fn shared_cache_serves_a_second_manager() {
        let mut a = manager(CandidateSet::standard(), 0.8);
        let cache = a.cache().unwrap().clone();
        let mut b = manager(CandidateSet::standard(), 0.8).with_cache(cache.clone());
        let mut log = JobLog::new(5000);
        for _ in 0..500 {
            log.push(1.0, 0.194);
        }
        let first = a.select_from_log(&log, 0.3).unwrap();
        assert!(first.evaluated > 0);
        let second = b.select_from_log(&log, 0.3).unwrap();
        assert_eq!(second.evaluated, 0, "second server reuses the shared characterization");
        assert_eq!(second.policy, first.policy);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn wider_candidate_sets_never_pick_worse_power() {
        let full = manager(CandidateSet::standard(), 0.8);
        let restricted =
            manager(CandidateSet::single_state(sleepscale_power::SystemState::C3_S0I), 0.8);
        for (rho, seed) in [(0.1, 2), (0.3, 3), (0.6, 4)] {
            let st = stream(rho, seed);
            let s_full = full.select_from_stream(&st, rho);
            let s_restricted = restricted.select_from_stream(&st, rho);
            assert!(
                s_full.predicted_power <= s_restricted.predicted_power + 1e-9,
                "rho={rho}: SS {} W > SS(C3) {} W",
                s_full.predicted_power,
                s_restricted.predicted_power
            );
        }
    }

    #[test]
    fn tighter_qos_selects_higher_frequency() {
        let loose = manager(CandidateSet::standard(), 0.8);
        let tight = manager(CandidateSet::standard(), 0.6);
        let st = stream(0.5, 5);
        let f_loose = loose.select_from_stream(&st, 0.5).policy.frequency().get();
        let f_tight = tight.select_from_stream(&st, 0.5).policy.frequency().get();
        assert!(
            f_tight >= f_loose,
            "tight budget should not pick a slower clock: {f_tight} vs {f_loose}"
        );
    }

    #[test]
    fn infeasible_budget_falls_back_to_least_bad() {
        // ρ close to 1 at the grid's top: nothing meets a tight budget.
        for mode in [SearchMode::Exhaustive, SearchMode::CoarseToFine] {
            let m = PolicyManager::new(
                SimEnv::xeon_cpu_bound(),
                QosConstraint::mean_response(0.05).unwrap(), // budget ≈ 1.05
                CandidateSet::standard(),
                MEAN_SERVICE,
                2000,
            )
            .unwrap()
            .with_search_mode(mode);
            let s = m.select_from_stream(&stream(0.7, 6), 0.7);
            assert!(!s.feasible, "{mode:?}");
            // The least-bad fallback runs fast.
            assert!(s.policy.frequency().get() >= 0.9, "{mode:?}");
        }
    }

    #[test]
    fn select_from_log_replays_at_prediction() {
        let mut log = JobLog::new(5000);
        for _ in 0..500 {
            log.push(1.0, 0.194);
        }
        let mut m = manager(CandidateSet::standard(), 0.8);
        let s = m.select_from_log(&log, 0.15).unwrap();
        assert!(s.feasible);
        // Log empty → error.
        let empty = JobLog::new(10);
        assert!(m.select_from_log(&empty, 0.15).is_err());
        // A degenerate (non-finite) prediction errors instead of being
        // quantized into the near-idle bucket.
        assert!(m.select_from_log(&log, f64::NAN).is_err());
    }

    #[test]
    fn config_validation() {
        assert!(PolicyManager::new(
            SimEnv::xeon_cpu_bound(),
            QosConstraint::mean_response(0.8).unwrap(),
            CandidateSet::standard(),
            0.0,
            100,
        )
        .is_err());
        assert!(PolicyManager::new(
            SimEnv::xeon_cpu_bound(),
            QosConstraint::mean_response(0.8).unwrap(),
            CandidateSet::standard(),
            0.1,
            0,
        )
        .is_err());
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// PR 8 round-trip property for the warm-start memory: an
        /// arbitrary mix of remembered and absent per-program bottoms
        /// and boundaries re-serializes byte-for-byte after restore —
        /// including the `None` holes, which a resumed run must *not*
        /// mistake for freshly-searchable programs.
        #[test]
        fn warm_start_snapshot_round_trip_is_byte_equal(
            bottoms in proptest::collection::vec((0.3f64..3.0, 0u8..2), 0..8),
            boundaries in proptest::collection::vec((0.3f64..3.0, 0u8..2), 0..8),
            counters in (0u64..500, 0u64..500, 0u64..500, 0u64..500),
        ) {
            use sleepscale_journal::{ByteReader, ByteWriter, Snapshot};
            let hole = |entries: &[(f64, u8)]| -> Vec<Option<f64>> {
                entries.iter().map(|&(f, keep)| (keep == 1).then_some(f)).collect()
            };
            let warm = WarmStart {
                bottoms: hole(&bottoms),
                boundaries: hole(&boundaries),
                stats: WarmStartStats {
                    warm: counters.0,
                    searches: counters.1,
                    boundary_hits: counters.2,
                    boundary_searches: counters.3,
                },
            };
            let mut w = ByteWriter::new();
            warm.snapshot(&mut w);
            let bytes = w.into_bytes();
            let restored =
                WarmStart::restore(&mut ByteReader::new(&bytes)).expect("snapshot bytes decode");
            let mut w2 = ByteWriter::new();
            restored.snapshot(&mut w2);
            prop_assert_eq!(&bytes, &w2.into_bytes());
            prop_assert_eq!(restored.stats, warm.stats);
            prop_assert_eq!(restored.bottoms.len(), warm.bottoms.len());
        }

        /// Truncated warm-start bytes are a typed error, and a manager
        /// fed them keeps its previous memory instead of panicking.
        #[test]
        fn truncated_warm_start_is_an_error_not_a_panic(cut in 0usize..10_000) {
            use sleepscale_journal::{ByteReader, ByteWriter, Snapshot};
            let warm = WarmStart {
                bottoms: vec![Some(1.2), None, Some(2.0)],
                boundaries: vec![None, Some(1.6), None],
                stats: WarmStartStats {
                    warm: 3,
                    searches: 5,
                    boundary_hits: 1,
                    boundary_searches: 2,
                },
            };
            let mut w = ByteWriter::new();
            warm.snapshot(&mut w);
            let bytes = w.into_bytes();
            let cut = cut % bytes.len();
            prop_assert!(WarmStart::restore(&mut ByteReader::new(&bytes[..cut])).is_err());
        }
    }
}
