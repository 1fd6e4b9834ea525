use crate::scenario::{traffic_to_core, Scenario, WorkloadSource};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use sleepscale::{
    CacheStats, CoreError, RunReport, RuntimeConfig, Strategy, StrategySpec, WarmStartStats,
};
use sleepscale_cluster::{Cluster, ClusterConfig, ClusterReport};
use sleepscale_dist::StreamingSummary;
use sleepscale_journal::{fnv1a64, Journal, JournalMeta, KillPlan};
use sleepscale_power::{ep, EnergyProportionality, PowerSample};
use sleepscale_sim::{JobStream, StreamSplit};
use sleepscale_telemetry::{MetricsRegistry, TelemetryReport};
use sleepscale_traffic::{replay_traffic, TrafficModel};
use sleepscale_workloads::{ReplayConfig, UtilizationTrace, WorkloadSpec};
use std::borrow::Cow;
use std::path::Path;

/// The snapshot schema version this binary writes into (and accepts
/// from) journal headers. Bump whenever any `Snapshot` layout anywhere
/// in the engine changes — a resume across versions is rejected with a
/// typed error, never guessed at.
pub const JOURNAL_SCHEMA_VERSION: u32 = 3;

/// Which engine a scenario ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backend {
    /// The single-server closed loop ([`sleepscale::run`]).
    SingleServer,
    /// The single-server loop selecting from the closed-form model
    /// (no characterization simulations).
    Analytic,
    /// The multi-server fleet engine ([`Cluster::run`]).
    Cluster,
}

impl Backend {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::SingleServer => "runtime",
            Backend::Analytic => "analytic",
            Backend::Cluster => "cluster",
        }
    }
}

/// One server group's slice of a scenario result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupReport {
    /// The group's display name.
    pub name: String,
    /// Servers in the group.
    pub servers: usize,
    /// Jobs the group completed.
    pub jobs: usize,
    /// Job-weighted mean response, seconds.
    pub mean_response_seconds: f64,
    /// Normalized mean response `µ·E[R]`.
    pub normalized_mean_response: f64,
    /// The group's QoS budget (normalized mean response).
    pub qos_budget: f64,
    /// Whether the group's realized response stayed within
    /// `qos_slack ×` its budget.
    pub qos_ok: bool,
    /// Summed average power across the group, watts.
    pub avg_power_watts: f64,
    /// Total energy across the group, joules.
    pub energy_joules: f64,
    /// Active (serving) energy across the group, joules — the ledger's
    /// exact attribution (the remainder is idle-side energy).
    pub active_energy_joules: f64,
    /// The group's energy-proportionality summary over bucket samples
    /// merged across its servers (`None` when undefined).
    pub ep: Option<EnergyProportionality>,
    /// The group's characterization-cache counters (zero for unmanaged
    /// strategies, which never characterize).
    pub cache: CacheStats,
}

impl GroupReport {
    /// Idle-side energy across the group (idle, sleep, wake-up):
    /// `total − active`, so the two line items reproduce the total.
    pub fn idle_energy_joules(&self) -> f64 {
        self.energy_joules - self.active_energy_joules
    }
}

/// One traffic class's slice of a scenario result (only populated for
/// [`WorkloadSource::Tagged`] scenarios, in declared class order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassReport {
    /// The class's display name.
    pub name: String,
    /// The class tag index.
    pub class: u16,
    /// Jobs of this class completed.
    pub jobs: usize,
    /// The class's mean response, seconds.
    pub mean_response_seconds: f64,
    /// The class's 95th-percentile response, seconds (sketched to
    /// ±0.5% relative).
    pub p95_response_seconds: f64,
    /// p95 normalized by the *class's own* mean service time — the
    /// unit its QoS budget is written in.
    pub normalized_p95: f64,
    /// The class's declared normalized-p95 budget (`None` =
    /// unconstrained).
    pub p95_budget: Option<f64>,
    /// Whether the class met its budget within the scenario's
    /// `qos_slack` (vacuously true with no budget or no jobs).
    pub qos_ok: bool,
    /// Fleet energy attributed to the class, joules — the "idle
    /// apportioned by active share" view: the class's exact active
    /// energy plus a slice of the fleet's idle-side energy in
    /// proportion to its active share. Summing this over classes (plus
    /// nothing else) reproduces fleet energy whenever any work was
    /// served; for a zero-work run every class reports 0 and the whole
    /// fleet total is the idle line item.
    pub energy_joules: f64,
    /// The "active only" view: energy the class's jobs were actually
    /// served with, exactly attributed by the engine ledgers, joules.
    pub active_energy_joules: f64,
}

/// The unified result of running a [`Scenario`]: per-group and
/// per-traffic-class slices, the backend's native report, the merged
/// streaming response summary, and the characterization-cache /
/// warm-start telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    scenario: String,
    backend: Backend,
    groups: Vec<GroupReport>,
    classes: Vec<ClassReport>,
    run: Option<RunReport>,
    cluster: Option<ClusterReport>,
    responses: StreamingSummary,
    mean_service: f64,
    horizon_seconds: f64,
    cache: CacheStats,
    warm: WarmStartStats,
    telemetry: Option<TelemetryReport>,
}

impl ScenarioReport {
    /// The scenario's name.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// Which backend ran.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Per-group slices, in fleet order.
    pub fn groups(&self) -> &[GroupReport] {
        &self.groups
    }

    /// Per-traffic-class slices, in declared class order (empty unless
    /// the scenario's workload is [`WorkloadSource::Tagged`]).
    pub fn classes(&self) -> &[ClassReport] {
        &self.classes
    }

    /// The single-server backend's native report, when that backend
    /// ran.
    pub fn run_report(&self) -> Option<&RunReport> {
        self.run.as_ref()
    }

    /// The cluster backend's native report, when that backend ran.
    pub fn cluster_report(&self) -> Option<&ClusterReport> {
        self.cluster.as_ref()
    }

    /// The merged streaming response summary (exact count/mean,
    /// sketched quantiles), whatever the backend.
    pub fn responses(&self) -> &StreamingSummary {
        &self.responses
    }

    /// Jobs completed across the fleet.
    pub fn total_jobs(&self) -> usize {
        self.responses.count() as usize
    }

    /// Job-weighted mean response, seconds.
    pub fn mean_response_seconds(&self) -> f64 {
        self.responses.mean()
    }

    /// Normalized mean response `µ·E[R]`.
    pub fn normalized_mean_response(&self) -> f64 {
        self.responses.mean() / self.mean_service
    }

    /// 95th-percentile response, seconds, sketched to ±0.5% relative on
    /// every backend (the single-server backend's native report quotes
    /// the same value).
    pub fn p95_response_seconds(&self) -> f64 {
        self.responses.p95()
    }

    /// Total fleet power, watts.
    pub fn avg_power_watts(&self) -> f64 {
        self.groups.iter().map(|g| g.avg_power_watts).sum()
    }

    /// Total fleet energy, joules.
    pub fn energy_joules(&self) -> f64 {
        self.groups.iter().map(|g| g.energy_joules).sum()
    }

    /// Fleet-wide active (serving) energy, joules.
    pub fn active_energy_joules(&self) -> f64 {
        self.groups.iter().map(|g| g.active_energy_joules).sum()
    }

    /// The explicit idle line item: fleet energy spent in idle, sleep,
    /// and wake-up intervals that belong to no job, joules. Together
    /// with [`ScenarioReport::active_energy_joules`] this reproduces
    /// [`ScenarioReport::energy_joules`]; per-class `energy_joules`
    /// apportions it by active share, so class totals stay consistent
    /// even for zero-work runs (where it is the whole fleet energy).
    pub fn idle_energy_joules(&self) -> f64 {
        self.groups.iter().map(|g| g.idle_energy_joules()).sum()
    }

    /// Fleet-level `(utilization, power)` samples from the backend's
    /// native report, one per ledger bucket.
    pub fn power_samples(&self) -> &[PowerSample] {
        match (&self.run, &self.cluster) {
            (Some(r), _) => r.power_samples(),
            (_, Some(c)) => c.power_samples(),
            _ => &[],
        }
    }

    /// Fleet-level energy-proportionality summary (`None` when
    /// undefined — e.g. a run that never served a job).
    pub fn energy_proportionality(&self) -> Option<EnergyProportionality> {
        ep::analyze(self.power_samples())
    }

    /// The fleet's utilization→power curve, binned into `bins`
    /// fixed-width utilization bins.
    pub fn utilization_power_curve(&self, bins: usize) -> Vec<PowerSample> {
        ep::utilization_power_curve(self.power_samples(), bins)
    }

    /// The run's horizon, seconds.
    pub fn horizon_seconds(&self) -> f64 {
        self.horizon_seconds
    }

    /// Whether every group stayed within its QoS slack *and* every
    /// declared traffic class met its own p95 budget.
    pub fn qos_ok(&self) -> bool {
        self.groups.iter().all(|g| g.qos_ok) && self.classes.iter().all(|c| c.qos_ok)
    }

    /// Server-seconds spent parked by the autoscaler (0.0 for
    /// fixed-fleet scenarios and the single-server backends).
    pub fn parked_server_seconds(&self) -> f64 {
        self.cluster.as_ref().map_or(0.0, |c| c.parked_server_seconds())
    }

    /// Active-fleet-size trace, one entry per epoch (empty unless an
    /// autoscaled cluster scenario ran).
    pub fn fleet_size_trace(&self) -> &[usize] {
        self.cluster.as_ref().map_or(&[][..], |c| c.fleet_size_trace())
    }

    /// Characterization-cache counters summed over the fleet.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
    }

    /// Warm-start counters summed over the fleet.
    pub fn warm_start_stats(&self) -> WarmStartStats {
        self.warm
    }

    /// The run's structured telemetry — the merged trace-event stream
    /// and the monotonic counter registry — when the scenario armed
    /// [`Scenario::telemetry`](crate::Scenario). Events are merged in
    /// slot order (fleet-level events appended in simulation-time
    /// order), so the stream is byte-identical across worker and shard
    /// counts.
    pub fn telemetry(&self) -> Option<&TelemetryReport> {
        self.telemetry.as_ref()
    }

    /// This report with telemetry stripped — everything a
    /// `telemetry: None` run of the same scenario would produce, byte
    /// for byte (the `obs` gate pins exactly that equality).
    pub fn without_telemetry(mut self) -> ScenarioReport {
        self.telemetry = None;
        self
    }
}

/// Validates a [`Scenario`] and drives it end to end on the right
/// backend: a one-server fleet runs the single-server closed loop
/// (labelled `analytic` when the strategy selects from the closed
/// form), anything larger runs the cluster engine — same inputs, same
/// seed discipline, one [`ScenarioReport`] out.
///
/// Backend selection rules:
///
/// 1. `total_servers() == 1` → [`sleepscale::run`] with the group's
///    strategy ([`Backend::SingleServer`], or [`Backend::Analytic`]
///    when the spec is [`StrategySpec::Analytic`]). The dispatcher is
///    ignored.
/// 2. `total_servers() > 1` → [`Cluster::run`] over the fleet's
///    groups behind the scenario's dispatcher ([`Backend::Cluster`]).
///
/// Both paths materialize identical inputs from the scenario's seed
/// ([`ScenarioRunner::inputs`]): one RNG seeds the distribution
/// synthesis and then the ground-truth replay, so a scenario is a pure
/// function of its fields — and the runner's single-server and cluster
/// wirings are byte-identical to the hand-written equivalents (the
/// determinism suite pins this).
#[derive(Debug, Clone)]
pub struct ScenarioRunner {
    scenario: Scenario,
}

impl ScenarioRunner {
    /// Validates the scenario (shape errors surface here, not mid-run).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty fleet, a
    /// zero-count group, zero epochs/evaluation depth, a degenerate
    /// arrival scale or QoS slack, a dispatcher or autoscaler the fleet
    /// cannot run (an autoscaler is checked by
    /// [`AutoscalerSpec::parked_program`](crate::AutoscalerSpec::parked_program),
    /// the engine's own check), an invalid workload mix, or an invalid
    /// load window.
    pub fn new(scenario: Scenario) -> Result<ScenarioRunner, CoreError> {
        if scenario.fleet.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: format!("scenario '{}' has an empty fleet", scenario.name),
            });
        }
        for group in &scenario.fleet {
            if group.count == 0 {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "scenario '{}': server group '{}' has zero servers",
                        scenario.name, group.name
                    ),
                });
            }
        }
        if scenario.epoch_minutes == 0 {
            return Err(CoreError::InvalidConfig {
                reason: format!("scenario '{}': epoch_minutes must be >= 1", scenario.name),
            });
        }
        if scenario.eval_jobs == 0 {
            return Err(CoreError::InvalidConfig {
                reason: format!("scenario '{}': eval_jobs must be >= 1", scenario.name),
            });
        }
        if scenario.dist_samples < 16 {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "scenario '{}': dist_samples {} is too small to synthesize empirical tables",
                    scenario.name, scenario.dist_samples
                ),
            });
        }
        if !scenario.arrival_scale.is_finite() || scenario.arrival_scale <= 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "scenario '{}': arrival_scale {} must be finite and > 0",
                    scenario.name, scenario.arrival_scale
                ),
            });
        }
        if !scenario.qos_slack.is_finite() || scenario.qos_slack < 1.0 {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "scenario '{}': qos_slack {} must be finite and >= 1",
                    scenario.name, scenario.qos_slack
                ),
            });
        }
        if scenario.shards == 0 {
            return Err(CoreError::InvalidConfig {
                reason: format!("scenario '{}': shards must be >= 1", scenario.name),
            });
        }
        if scenario.shards > 1 {
            if scenario.dispatcher.split_seed().is_none() {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "scenario '{}': sharded runs require the SplitUniform dispatcher \
                         (stateful dispatchers read fleet-wide live state and cannot shard)",
                        scenario.name
                    ),
                });
            }
            if scenario.total_servers() == 1 {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "scenario '{}': sharding needs a multi-server fleet",
                        scenario.name
                    ),
                });
            }
        }
        scenario.dispatcher.validate(&scenario.fleet)?;
        if let Some(spec) = &scenario.autoscaler {
            spec.parked_program(scenario.epoch_minutes as f64 * 60.0).map_err(|reason| {
                CoreError::InvalidConfig {
                    reason: format!("scenario '{}': {reason}", scenario.name),
                }
            })?;
            if scenario.total_servers() == 1 {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "scenario '{}': autoscaling needs a multi-server fleet (there is \
                         nothing to park on one server)",
                        scenario.name
                    ),
                });
            }
        }
        // Workload and load-window shape errors surface at validation
        // (cheap checks only — the trace itself is synthesized once,
        // by `inputs`, at run time).
        scenario.workload.resolve()?;
        scenario.load.validate()?;
        Ok(ScenarioRunner { scenario })
    }

    /// The validated scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Materializes the scenario's deterministic inputs: resolved
    /// workload statistics, the scaled utilization trace, and the
    /// cluster-wide ground-truth job stream (arrival rate carries the
    /// fleet factor). Every source replays as a traffic model — the
    /// declared one for [`WorkloadSource::Tagged`], which draws every
    /// job from its own class's tables and tags it, and otherwise the
    /// single-class model of the resolved spec — through
    /// [`TrafficModel::empirical_tables`] and then [`replay_traffic`].
    /// Exposed so comparison harnesses (e.g. the reference fleet in
    /// `tests/fleet_oracle.rs`) can feed the *same* inputs to a
    /// reference engine.
    ///
    /// # Errors
    ///
    /// Propagates workload/trace/replay errors.
    pub fn inputs(&self) -> Result<(WorkloadSpec, UtilizationTrace, JobStream), CoreError> {
        let spec = self.scenario.workload.resolve()?;
        let trace = self.scenario.load.build(self.scenario.arrival_scale)?;
        let model = match &self.scenario.workload {
            WorkloadSource::Tagged(model) => Cow::Borrowed(model),
            _ => Cow::Owned(TrafficModel::single(spec.clone())),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.scenario.seed);
        let tables = model
            .empirical_tables(self.scenario.dist_samples, &mut rng)
            .map_err(traffic_to_core)?;
        let replay_config = ReplayConfig::for_fleet(self.scenario.total_servers());
        let jobs = replay_traffic(&trace, &model, &tables, &replay_config, &mut rng)
            .map_err(traffic_to_core)?;
        Ok((spec, trace, jobs))
    }

    /// The base runtime configuration the fleet's per-group configs are
    /// resolved against (group 0 contributes the base env/QoS/α; other
    /// groups overlay their own).
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeConfig`] validation errors.
    pub fn base_runtime(&self, spec: &WorkloadSpec) -> Result<RuntimeConfig, CoreError> {
        let lead = &self.scenario.fleet[0];
        RuntimeConfig::builder(spec.service_mean())
            .qos(lead.qos)
            .epoch_minutes(self.scenario.epoch_minutes)
            .eval_jobs(self.scenario.eval_jobs)
            .over_provisioning(lead.over_provisioning)
            .env(lead.env.clone())
            .build()
    }

    /// Runs the scenario end to end.
    ///
    /// # Errors
    ///
    /// Propagates input-materialization and backend errors.
    pub fn run(&self) -> Result<ScenarioReport, CoreError> {
        let (spec, trace, jobs) = self.inputs()?;
        self.run_with_inputs(&spec, &trace, &jobs)
    }

    /// Runs the scenario against inputs materialized earlier with
    /// [`ScenarioRunner::inputs`] — so comparison harnesses can time
    /// the backend alone, or share one expensive replay across several
    /// runs. Passing inputs from anywhere else breaks the scenario's
    /// pure-function-of-its-fields contract.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn run_with_inputs(
        &self,
        spec: &WorkloadSpec,
        trace: &UtilizationTrace,
        jobs: &JobStream,
    ) -> Result<ScenarioReport, CoreError> {
        let base = self.base_runtime(spec)?;
        let report = if self.scenario.total_servers() == 1 {
            self.run_single(spec, trace, jobs, &base, None, None)?
        } else {
            self.run_cluster(spec, trace, jobs, &base, None, None)?
        };
        Ok(report.expect("a run without a checkpoint sink always completes"))
    }

    /// FNV-1a 64 fingerprint of the scenario's full configuration (the
    /// debug form covers every field, the fleet and workload included).
    /// Written into the journal header so resuming against a reshaped
    /// scenario is a typed error instead of silent divergence.
    pub fn config_fingerprint(&self) -> u64 {
        fnv1a64(format!("{:?}", self.scenario).as_bytes())
    }

    /// The journal header of this scenario's checkpointed runs, or the
    /// reason the scenario cannot checkpoint. [`ScenarioRunner::run_checkpointed`]
    /// and [`ScenarioRunner::resume`] both start here, so a rejected run
    /// neither creates nor opens a journal.
    fn journal_meta(&self) -> Result<JournalMeta, CoreError> {
        // Telemetry buffers are not part of the snapshot schema, so a
        // resumed run could never reconstruct the pre-kill event
        // stream; reject the combination up front instead of silently
        // dropping events.
        if self.scenario.telemetry.is_some() {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "scenario '{}': telemetry composes with neither checkpointing nor resume — \
                     drop `telemetry` or run without a journal",
                    self.scenario.name
                ),
            });
        }
        Ok(JournalMeta {
            schema_version: JOURNAL_SCHEMA_VERSION,
            seed: self.scenario.seed,
            config_fingerprint: self.config_fingerprint(),
        })
    }

    /// Runs the scenario with epoch-boundary checkpointing into the
    /// journal at `path` — created fresh, or resumed if a journal from
    /// an earlier killed attempt of the *same* run already sits there.
    /// After every completed epoch the engine's full state is committed
    /// as one sealed, checksummed record; `kill` injects a
    /// deterministic crash after its epoch's record commits and makes
    /// the call return `Ok(None)` (the fault-injection path the
    /// `resume` gate drives — [`KillPlan::never`] always completes).
    ///
    /// # Errors
    ///
    /// A scenario with telemetry armed is rejected with
    /// [`CoreError::InvalidConfig`] before `path` is touched. Journal
    /// header mismatches (schema version, seed, config fingerprint) and
    /// payload decode failures surface as [`CoreError::Checkpoint`];
    /// input and backend errors propagate unchanged.
    pub fn run_checkpointed(
        &self,
        path: &Path,
        kill: KillPlan,
    ) -> Result<Option<ScenarioReport>, CoreError> {
        let meta = self.journal_meta()?;
        let (journal, resume) = if path.exists() {
            Journal::open_resume(path, &meta)?
        } else {
            (Journal::create(path, &meta)?, None)
        };
        self.drive_checkpointed(journal, resume, kill)
    }

    /// Resumes a killed checkpointed run from its journal and drives it
    /// to completion: a torn tail is truncated to the last sealed
    /// record, state is restored from that record (or the run restarts
    /// from scratch when none survived), and the remaining epochs run —
    /// appending to the same journal, so kills can chain — producing a
    /// report byte-identical to an uninterrupted run's.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the scenario has telemetry
    /// armed (the journal is not opened); [`CoreError::Checkpoint`] when
    /// the journal was written by a different schema version, seed, or
    /// scenario shape, or its last sealed record fails to decode;
    /// backend errors propagate unchanged.
    pub fn resume(&self, path: &Path) -> Result<ScenarioReport, CoreError> {
        let meta = self.journal_meta()?;
        let (journal, resume) = Journal::open_resume(path, &meta)?;
        Ok(self
            .drive_checkpointed(journal, resume, KillPlan::never())?
            .expect("a checkpointed run without a kill plan always completes"))
    }

    fn drive_checkpointed(
        &self,
        mut journal: Journal,
        resume: Option<Vec<u8>>,
        kill: KillPlan,
    ) -> Result<Option<ScenarioReport>, CoreError> {
        let (spec, trace, jobs) = self.inputs()?;
        let base = self.base_runtime(&spec)?;
        let mut sink = |epoch: usize, payload: &[u8]| -> Result<bool, CoreError> {
            journal.append(payload)?;
            Ok(!kill.should_kill(epoch))
        };
        if self.scenario.total_servers() == 1 {
            self.run_single(&spec, &trace, &jobs, &base, resume.as_deref(), Some(&mut sink))
        } else {
            self.run_cluster(&spec, &trace, &jobs, &base, resume.as_deref(), Some(&mut sink))
        }
    }

    /// Per-class slices for tagged scenarios: zips the declared classes
    /// with the run's per-class response summaries (a single-class
    /// model's only class *is* the overall summary — engines leave the
    /// slices empty for effectively single-class streams) and
    /// attributes energy to classes *exactly*, from the ledgers'
    /// per-class active energy. Each class reports both views: its
    /// active-only energy, and active plus a slice of the fleet's
    /// idle-side energy apportioned by active share (so the class
    /// column still sums to fleet energy).
    fn class_reports(
        &self,
        slices: &[StreamingSummary],
        overall: &StreamingSummary,
        total_energy: f64,
        class_active: &[f64],
    ) -> Vec<ClassReport> {
        let Some(model) = self.scenario.workload.traffic_model() else {
            return Vec::new();
        };
        let active_total: f64 = class_active.iter().sum();
        let idle_energy = total_energy - active_total;
        let empty = StreamingSummary::new();
        model
            .classes
            .iter()
            .enumerate()
            .map(|(i, class)| {
                let summary: &StreamingSummary = if slices.is_empty() {
                    if i == 0 {
                        overall
                    } else {
                        &empty
                    }
                } else {
                    slices.get(i).unwrap_or(&empty)
                };
                let jobs_n = summary.count() as usize;
                let p95 = summary.p95();
                let normalized_p95 = p95 / class.spec.service_mean();
                let qos_ok = class
                    .p95_budget
                    .is_none_or(|b| jobs_n == 0 || normalized_p95 <= b * self.scenario.qos_slack);
                let active = class_active.get(i).copied().unwrap_or(0.0);
                // Idle energy is apportioned by *active* share. A
                // zero-work run has no active share to apportion by:
                // every class reports 0 and the fleet total shows up
                // as the report's explicit idle line item instead.
                let energy_joules = if active_total > 0.0 {
                    active + idle_energy * (active / active_total)
                } else {
                    0.0
                };
                ClassReport {
                    name: class.name.clone(),
                    class: i as u16,
                    jobs: jobs_n,
                    mean_response_seconds: summary.mean(),
                    p95_response_seconds: p95,
                    normalized_p95,
                    p95_budget: class.p95_budget,
                    qos_ok,
                    energy_joules,
                    active_energy_joules: active,
                }
            })
            .collect()
    }

    fn run_single(
        &self,
        spec: &WorkloadSpec,
        trace: &UtilizationTrace,
        jobs: &JobStream,
        base: &RuntimeConfig,
        resume_from: Option<&[u8]>,
        sink: Option<sleepscale::CheckpointSink<'_>>,
    ) -> Result<Option<ScenarioReport>, CoreError> {
        let group = &self.scenario.fleet[0];
        let backend = if matches!(group.strategy, StrategySpec::Analytic { .. }) {
            Backend::Analytic
        } else {
            Backend::SingleServer
        };
        // Keep the concrete strategy type when the spec is managed so
        // cache/warm telemetry survives into the report. Telemetry-armed
        // runs take the traced entry point (drive_checkpointed rejects
        // the telemetry+journal combination before reaching here).
        let mut managed = group.strategy.build_managed(base);
        let mut plain = None;
        let strategy: &mut dyn Strategy = match managed.as_mut() {
            Some(managed) => managed,
            None => plain.insert(group.strategy.build(base)).as_mut(),
        };
        let (report, events) = if self.scenario.telemetry.is_some() {
            sleepscale::run_traced(trace, jobs, strategy, base.env(), base)?
        } else {
            match sleepscale::run_resumable(
                trace,
                jobs,
                strategy,
                base.env(),
                base,
                resume_from,
                sink,
            )? {
                Some(report) => (report, Vec::new()),
                None => return Ok(None),
            }
        };
        let (cache, warm) = managed.map_or_else(Default::default, |m| {
            (m.cache_stats().unwrap_or_default(), m.warm_start_stats())
        });
        let telemetry = self.scenario.telemetry.map(|_| TelemetryReport {
            metrics: MetricsRegistry::from_trace(
                report.total_jobs() as u64,
                report.class_responses().iter().map(StreamingSummary::count),
                &events,
            ),
            events,
        });
        let norm = report.normalized_mean_response();
        let budget = group.qos.normalized_mean_budget();
        let group_report = GroupReport {
            name: group.name.clone(),
            servers: 1,
            jobs: report.total_jobs(),
            mean_response_seconds: report.mean_response_seconds(),
            normalized_mean_response: norm,
            qos_budget: budget,
            qos_ok: report.total_jobs() == 0 || norm <= budget * self.scenario.qos_slack,
            avg_power_watts: report.avg_power_watts(),
            energy_joules: report.energy_joules(),
            active_energy_joules: report.active_energy_joules(),
            ep: report.energy_proportionality(),
            cache,
        };
        let classes = self.class_reports(
            report.class_responses(),
            report.responses(),
            report.energy_joules(),
            report.class_active_energy(),
        );
        Ok(Some(ScenarioReport {
            scenario: self.scenario.name.clone(),
            backend,
            groups: vec![group_report],
            classes,
            responses: report.responses().clone(),
            mean_service: spec.service_mean(),
            horizon_seconds: report.horizon_seconds(),
            cache,
            warm,
            telemetry,
            run: Some(report),
            cluster: None,
        }))
    }

    fn run_cluster(
        &self,
        spec: &WorkloadSpec,
        trace: &UtilizationTrace,
        jobs: &JobStream,
        base: &RuntimeConfig,
        resume_from: Option<&[u8]>,
        sink: Option<sleepscale::CheckpointSink<'_>>,
    ) -> Result<Option<ScenarioReport>, CoreError> {
        let config = ClusterConfig::new(base, self.scenario.fleet.clone())?;
        let mut cluster = Cluster::new(config).with_threads(self.scenario.threads);
        if let Some(spec) = &self.scenario.autoscaler {
            cluster = cluster.with_autoscaler(spec.clone());
        }
        if let Some(tspec) = self.scenario.telemetry {
            cluster = cluster.with_telemetry(tspec);
        }
        // Sharded scenarios take the concurrent engine; validation
        // guarantees the dispatcher is shardable. Byte-identical to the
        // central path for every shard count, so `shards` is a pure
        // throughput knob.
        let report = match (self.scenario.shards, self.scenario.dispatcher.split_seed()) {
            (shards, Some(seed)) if shards > 1 => cluster.run_sharded_checkpointed(
                trace,
                jobs,
                StreamSplit::new(seed),
                shards,
                resume_from,
                sink,
            )?,
            _ => {
                let mut dispatcher = self.scenario.dispatcher.build(&self.scenario.fleet);
                cluster.run_checkpointed(trace, jobs, dispatcher.as_mut(), resume_from, sink)?
            }
        };
        let Some(report) = report else {
            return Ok(None);
        };
        let per_group_cache = cluster.group_characterization_stats();
        let groups = report
            .group_summaries()
            .into_iter()
            .zip(&self.scenario.fleet)
            .zip(per_group_cache)
            .map(|((summary, group), (_, cache))| {
                let norm = summary.mean_response / spec.service_mean();
                let budget = group.qos.normalized_mean_budget();
                GroupReport {
                    name: summary.name,
                    servers: summary.servers,
                    jobs: summary.jobs,
                    mean_response_seconds: summary.mean_response,
                    normalized_mean_response: norm,
                    qos_budget: budget,
                    qos_ok: summary.jobs == 0 || norm <= budget * self.scenario.qos_slack,
                    avg_power_watts: summary.avg_power,
                    energy_joules: summary.energy_joules,
                    active_energy_joules: summary.active_energy_joules,
                    ep: summary.ep,
                    cache,
                }
            })
            .collect();
        let classes = self.class_reports(
            report.class_responses(),
            report.responses(),
            report.total_energy_joules(),
            report.class_active_energy(),
        );
        Ok(Some(ScenarioReport {
            scenario: self.scenario.name.clone(),
            backend: Backend::Cluster,
            groups,
            classes,
            responses: report.responses().clone(),
            mean_service: spec.service_mean(),
            horizon_seconds: report.horizon_seconds(),
            cache: cluster.characterization_stats(),
            warm: cluster.warm_start_stats(),
            telemetry: cluster.take_telemetry(),
            run: None,
            cluster: Some(report),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DispatcherSpec, LoadSchedule, WorkloadSource};
    use sleepscale_cluster::ServerGroup;

    fn small_single() -> Scenario {
        Scenario {
            eval_jobs: 300,
            dist_samples: 4_000,
            seed: 21,
            ..Scenario::new(
                "single",
                WorkloadSource::Dns,
                LoadSchedule::Constant { rho: 0.25, minutes: 30 },
            )
        }
    }

    fn small_fleet() -> Scenario {
        let mut scenario = Scenario {
            eval_jobs: 200,
            dist_samples: 4_000,
            seed: 22,
            dispatcher: DispatcherSpec::RoundRobin,
            ..Scenario::new(
                "fleet",
                WorkloadSource::Dns,
                LoadSchedule::Constant { rho: 0.25, minutes: 30 },
            )
        };
        scenario.fleet = vec![
            ServerGroup::new("ss", 2, StrategySpec::sleepscale()),
            ServerGroup::new("race", 2, StrategySpec::race_to_halt_c6()),
        ];
        scenario
    }

    #[test]
    fn single_server_backend_runs_and_reports() {
        let runner = ScenarioRunner::new(small_single()).unwrap();
        let report = runner.run().unwrap();
        assert_eq!(report.backend(), Backend::SingleServer);
        assert!(report.total_jobs() > 100);
        assert_eq!(report.groups().len(), 1);
        assert_eq!(report.groups()[0].jobs, report.total_jobs());
        assert!(report.run_report().is_some());
        assert!(report.cluster_report().is_none());
        assert!(report.qos_ok(), "{:?}", report.groups());
        assert!(report.avg_power_watts() > 28.0 && report.avg_power_watts() < 250.0);
        // The managed path carries cache telemetry through.
        assert!(report.cache_stats().hits + report.cache_stats().misses > 0);
    }

    #[test]
    fn analytic_backend_is_selected_for_analytic_specs() {
        let mut scenario = small_single();
        scenario.fleet[0].strategy = StrategySpec::analytic();
        let report = ScenarioRunner::new(scenario).unwrap().run().unwrap();
        assert_eq!(report.backend(), Backend::Analytic);
        assert_eq!(report.backend().label(), "analytic");
        // Closed-form selection never replays the log.
        assert_eq!(report.cache_stats(), CacheStats::default());
        assert!(report.total_jobs() > 100);
    }

    #[test]
    fn cluster_backend_splits_groups() {
        let runner = ScenarioRunner::new(small_fleet()).unwrap();
        let report = runner.run().unwrap();
        assert_eq!(report.backend(), Backend::Cluster);
        assert_eq!(report.groups().len(), 2);
        assert_eq!(
            report.groups().iter().map(|g| g.jobs).sum::<usize>(),
            report.total_jobs(),
            "group slices partition the fleet's jobs"
        );
        let cluster = report.cluster_report().unwrap();
        assert_eq!(cluster.n_servers(), 4);
        // The racing group never characterizes.
        assert_eq!(report.groups()[1].cache, CacheStats::default());
        assert!(report.groups()[0].cache.misses > 0);
    }

    #[test]
    fn scenario_validation_rejects_bad_shapes() {
        let mut empty = small_single();
        empty.fleet.clear();
        assert!(ScenarioRunner::new(empty).unwrap_err().to_string().contains("empty fleet"));

        let mut zero = small_fleet();
        zero.fleet[1].count = 0;
        assert!(ScenarioRunner::new(zero).unwrap_err().to_string().contains("zero servers"));

        let mut bad_scale = small_single();
        bad_scale.arrival_scale = f64::NAN;
        assert!(ScenarioRunner::new(bad_scale).is_err());

        let mut bad_slack = small_single();
        bad_slack.qos_slack = 0.5;
        assert!(ScenarioRunner::new(bad_slack).is_err());

        let mut bad_epoch = small_single();
        bad_epoch.epoch_minutes = 0;
        assert!(ScenarioRunner::new(bad_epoch).is_err());

        let mut bad_window = small_single();
        bad_window.load = LoadSchedule::EmailStoreDay { seed: 1, start_minute: 9, end_minute: 9 };
        assert!(ScenarioRunner::new(bad_window).is_err());
    }

    #[test]
    fn validation_rejects_bad_affinity_and_autoscaler_shapes() {
        use crate::AutoscalerSpec;

        let mut empty_table = small_fleet();
        empty_table.dispatcher =
            DispatcherSpec::ClassAffinity { class_groups: vec![], spill_threshold_seconds: 1.0 };
        let err = ScenarioRunner::new(empty_table).unwrap_err().to_string();
        assert!(err.contains("class→group"), "{err}");

        let mut out_of_range = small_fleet();
        out_of_range.dispatcher = DispatcherSpec::ClassAffinity {
            class_groups: vec![0, 7],
            spill_threshold_seconds: 1.0,
        };
        let err = ScenarioRunner::new(out_of_range).unwrap_err().to_string();
        assert!(err.contains("group 7"), "{err}");

        let mut bad_threshold = small_fleet();
        bad_threshold.dispatcher = DispatcherSpec::ClassAffinity {
            class_groups: vec![0],
            spill_threshold_seconds: f64::NAN,
        };
        assert!(ScenarioRunner::new(bad_threshold).is_err());

        let mut single_autoscaled = small_single();
        single_autoscaled.autoscaler = Some(AutoscalerSpec::new());
        let err = ScenarioRunner::new(single_autoscaled).unwrap_err().to_string();
        assert!(err.contains("multi-server"), "{err}");

        let mut bad_band = small_fleet();
        bad_band.autoscaler = Some(AutoscalerSpec { park_below: 0.9, ..AutoscalerSpec::new() });
        let err = ScenarioRunner::new(bad_band).unwrap_err().to_string();
        assert!(err.contains("park_below"), "{err}");

        // Regression: the engine's own checks used to run only once the
        // inputs were built, so these shapes validated and then failed
        // mid-run.
        let mut slow_wake = small_fleet();
        slow_wake.autoscaler =
            Some(AutoscalerSpec { wake_latency_seconds: 10_000.0, ..AutoscalerSpec::new() });
        let err = ScenarioRunner::new(slow_wake).unwrap_err().to_string();
        assert!(err.contains("shorter than the 300s epoch"), "{err}");

        let mut active_park = small_fleet();
        active_park.autoscaler = Some(AutoscalerSpec {
            park_state: sleepscale_power::SystemState::C0A_S0A,
            ..AutoscalerSpec::new()
        });
        let err = ScenarioRunner::new(active_park).unwrap_err().to_string();
        assert!(err.contains("park state"), "{err}");
    }

    /// An autoscaled fleet scenario runs end to end through the
    /// declarative surface: the report carries parked server-seconds
    /// and a per-epoch fleet-size trace, and an identical scenario
    /// with `autoscaler: None` carries neither.
    #[test]
    fn autoscaled_scenario_reports_parking_telemetry() {
        use crate::AutoscalerSpec;
        let mut scenario = small_fleet();
        scenario.load = LoadSchedule::Constant { rho: 0.08, minutes: 30 };
        scenario.autoscaler = Some(AutoscalerSpec::new());
        let report = ScenarioRunner::new(scenario.clone()).unwrap().run().unwrap();
        assert_eq!(report.backend(), Backend::Cluster);
        assert!(report.parked_server_seconds() > 0.0);
        assert_eq!(report.fleet_size_trace().len(), 6);
        assert_eq!(report.fleet_size_trace()[0], 4, "epoch 0 starts at full size");
        assert!(report.fleet_size_trace().iter().any(|&m| m < 4), "the lull should park");

        scenario.autoscaler = None;
        let fixed = ScenarioRunner::new(scenario).unwrap().run().unwrap();
        assert_eq!(fixed.parked_server_seconds(), 0.0);
        assert!(fixed.fleet_size_trace().is_empty());
    }

    /// Scenario-level parity: both sources replay as the same
    /// one-class traffic model, so this pins that lowering the untagged
    /// source, and adding the tagged run's declared-class overlay,
    /// change no shared report byte — same native report, same groups.
    /// (The replayed bytes themselves are pinned by the facade's
    /// `catalog_inputs_are_pinned` test.)
    #[test]
    fn single_class_tagged_scenario_is_byte_identical_to_untagged() {
        use sleepscale_traffic::TrafficModel;
        use sleepscale_workloads::WorkloadSpec;
        for fleet_servers in [1usize, 3] {
            let mut untagged = small_single();
            let mut tagged = small_single();
            tagged.workload = WorkloadSource::Tagged(TrafficModel::single(WorkloadSpec::dns()));
            if fleet_servers > 1 {
                for s in [&mut untagged, &mut tagged] {
                    s.fleet =
                        vec![ServerGroup::new("fleet", fleet_servers, StrategySpec::sleepscale())];
                }
            }
            let a = ScenarioRunner::new(untagged).unwrap().run().unwrap();
            let b = ScenarioRunner::new(tagged).unwrap().run().unwrap();
            assert_eq!(a.run_report(), b.run_report(), "{fleet_servers} servers");
            assert_eq!(a.cluster_report(), b.cluster_report(), "{fleet_servers} servers");
            assert_eq!(a.responses(), b.responses());
            assert_eq!(a.groups(), b.groups());
            assert_eq!(a.cache_stats(), b.cache_stats());
            // The tagged run overlays its one declared class, whose
            // slice is the whole run.
            assert!(a.classes().is_empty());
            assert_eq!(b.classes().len(), 1);
            assert_eq!(b.classes()[0].jobs, a.total_jobs());
            // One class owns all active energy, so its apportioned
            // view is the whole fleet energy.
            assert_eq!(b.classes()[0].active_energy_joules, a.active_energy_joules());
            assert!(
                (b.classes()[0].energy_joules - a.energy_joules()).abs() < 1e-9 * a.energy_joules(),
                "{fleet_servers} servers"
            );
            assert_eq!(a.power_samples(), b.power_samples());
            assert_eq!(a.energy_proportionality(), b.energy_proportionality());
            assert!(b.qos_ok());
        }
    }

    /// A two-class tagged fleet reports distinct per-class p95s and
    /// judges each class against its own budget.
    #[test]
    fn two_class_tagged_scenario_slices_by_class() {
        use sleepscale_traffic::{TrafficClass, TrafficModel};
        use sleepscale_workloads::WorkloadSpec;
        let mut scenario = small_fleet();
        scenario.workload = WorkloadSource::Tagged(
            TrafficModel::new(vec![
                TrafficClass::new("interactive", WorkloadSpec::dns(), 2.0).with_p95_budget(40.0),
                TrafficClass::new("batch", WorkloadSpec::mail(), 1.0).with_p95_budget(120.0),
            ])
            .unwrap(),
        );
        let report = ScenarioRunner::new(scenario).unwrap().run().unwrap();
        let classes = report.classes();
        assert_eq!(classes.len(), 2);
        assert_eq!(
            classes.iter().map(|c| c.jobs).sum::<usize>(),
            report.total_jobs(),
            "class slices partition the scenario's jobs"
        );
        assert!(classes[0].jobs > classes[1].jobs, "weights drive the split");
        assert!(
            (classes[0].p95_response_seconds - classes[1].p95_response_seconds).abs()
                > 1e-3 * classes[0].p95_response_seconds,
            "distinct populations must show distinct p95s: {} vs {}",
            classes[0].p95_response_seconds,
            classes[1].p95_response_seconds
        );
        // The apportioned view still sums to fleet energy (active
        // totals plus the whole idle remainder), and the active-only
        // view sums to the fleet's active energy.
        let energy_sum: f64 = classes.iter().map(|c| c.energy_joules).sum();
        assert!((energy_sum - report.energy_joules()).abs() / report.energy_joules() < 1e-9);
        let active_sum: f64 = classes.iter().map(|c| c.active_energy_joules).sum();
        assert!(
            (active_sum - report.active_energy_joules()).abs() / report.active_energy_joules()
                < 1e-9
        );
        assert!(classes.iter().all(|c| c.active_energy_joules > 0.0));
        assert!(
            classes.iter().all(|c| c.energy_joules > c.active_energy_joules),
            "apportioned idle energy is strictly additive on a fleet that ever idles"
        );
        assert!(
            (report.active_energy_joules() + report.idle_energy_joules() - report.energy_joules())
                .abs()
                < 1e-6
        );
        assert!(report.energy_proportionality().is_some());
        assert!(report.qos_ok(), "{classes:?}");
    }

    /// Satellite regression: a zero-work (zero-load) tagged scenario
    /// used to report class shares summing to 0 while fleet energy was
    /// nonzero, with nothing accounting for the difference. Now the
    /// classes report zero energy and the whole fleet total is the
    /// explicit idle line item, on the single-server and the cluster
    /// backend alike.
    #[test]
    fn zero_work_scenario_reports_energy_as_the_idle_line_item() {
        use sleepscale_traffic::{TrafficClass, TrafficModel};
        use sleepscale_workloads::WorkloadSpec;
        for servers in [1, 2] {
            let mut scenario = small_single();
            scenario.load = LoadSchedule::Constant { rho: 0.0, minutes: 30 };
            scenario.workload = WorkloadSource::Tagged(
                TrafficModel::new(vec![
                    TrafficClass::new("interactive", WorkloadSpec::dns(), 2.0)
                        .with_p95_budget(40.0),
                    TrafficClass::new("batch", WorkloadSpec::mail(), 1.0),
                ])
                .unwrap(),
            );
            scenario.fleet[0].count = servers;
            let report = ScenarioRunner::new(scenario).unwrap().run().unwrap();
            assert_eq!(report.total_jobs(), 0, "{servers} servers");
            assert!(report.energy_joules() > 0.0, "an idle server still burns power");
            assert_eq!(report.active_energy_joules(), 0.0, "{servers} servers");
            assert_eq!(
                report.idle_energy_joules().to_bits(),
                report.energy_joules().to_bits(),
                "{servers} servers: the idle line item is the whole fleet total"
            );
            let classes = report.classes();
            assert_eq!(classes.len(), 2);
            for c in classes {
                assert_eq!(c.jobs, 0);
                assert_eq!(c.active_energy_joules, 0.0);
                assert_eq!(c.energy_joules, 0.0, "no active share to apportion idle energy by");
                assert!(c.qos_ok, "zero-work classes are vacuously within budget");
            }
            // The accounting identity: class energies plus the idle line
            // item reproduce fleet energy exactly.
            let class_sum: f64 = classes.iter().map(|c| c.energy_joules).sum();
            assert!(
                (class_sum + report.idle_energy_joules() - report.energy_joules()).abs() < 1e-9
            );
            // A fleet that never serves has no measurable proportionality.
            assert!(report.energy_proportionality().is_none());
        }
    }

    /// The sharded scenario path reproduces the central SplitUniform
    /// path byte for byte — `shards` is a pure throughput knob.
    #[test]
    fn sharded_scenario_matches_central_split_uniform() {
        let mut central = small_fleet();
        central.dispatcher = DispatcherSpec::SplitUniform { seed: 17 };
        let reference = ScenarioRunner::new(central.clone()).unwrap().run().unwrap();
        for shards in [2usize, 3] {
            let mut sharded = central.clone();
            sharded.shards = shards;
            let report = ScenarioRunner::new(sharded).unwrap().run().unwrap();
            assert_eq!(report.cluster_report(), reference.cluster_report(), "shards={shards}");
            assert_eq!(report.groups(), reference.groups());
            assert_eq!(report.responses(), reference.responses());
        }
    }

    /// Shard-shape errors surface at validation, not mid-run.
    #[test]
    fn shard_validation_rejects_bad_shapes() {
        let mut zero = small_fleet();
        zero.shards = 0;
        assert!(ScenarioRunner::new(zero).unwrap_err().to_string().contains("shards"));

        let mut stateful = small_fleet();
        stateful.shards = 2; // dispatcher is RoundRobin
        let err = ScenarioRunner::new(stateful).unwrap_err();
        assert!(err.to_string().contains("SplitUniform"), "{err}");

        let mut single = small_single();
        single.dispatcher = DispatcherSpec::SplitUniform { seed: 1 };
        single.shards = 2;
        let err = ScenarioRunner::new(single).unwrap_err();
        assert!(err.to_string().contains("multi-server"), "{err}");
    }

    fn journal_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sleepscale-runner-test-{}-{name}.ssj", std::process::id()));
        p
    }

    /// The tentpole at scenario level: an uninterrupted checkpointed
    /// run equals the plain run, and kill-then-resume equals both —
    /// byte for byte, on the single-server and cluster backends.
    #[test]
    fn checkpointed_kill_and_resume_is_byte_identical() {
        for scenario in [small_single(), small_fleet()] {
            let runner = ScenarioRunner::new(scenario).unwrap();
            let reference = runner.run().unwrap();
            let path = journal_path(&format!("kill-{}", runner.scenario().name));
            let _ = std::fs::remove_file(&path);
            let full = runner.run_checkpointed(&path, KillPlan::never()).unwrap().unwrap();
            assert_eq!(full, reference, "{}: uninterrupted checkpointed run", full.scenario());
            // Kill after epoch 2 of 6, then resume to completion.
            std::fs::remove_file(&path).unwrap();
            assert!(runner.run_checkpointed(&path, KillPlan::after_epoch(2)).unwrap().is_none());
            let resumed = runner.resume(&path).unwrap();
            assert_eq!(resumed, reference);
            assert_eq!(format!("{resumed:?}"), format!("{reference:?}"), "bit-exact debug form");
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// A torn journal tail (simulated mid-write crash) truncates to the
    /// last sealed epoch and the resume still lands byte-identical.
    #[test]
    fn torn_journal_tail_resumes_from_last_sealed_epoch() {
        let runner = ScenarioRunner::new(small_single()).unwrap();
        let reference = runner.run().unwrap();
        let path = journal_path("torn");
        let _ = std::fs::remove_file(&path);
        assert!(runner.run_checkpointed(&path, KillPlan::after_epoch(3)).unwrap().is_none());
        sleepscale_journal::fault::truncate_tail(&path, 7).unwrap();
        let resumed = runner.resume(&path).unwrap();
        assert_eq!(resumed, reference);
        std::fs::remove_file(&path).unwrap();
    }

    /// Regression: a checkpointed run rejected for its telemetry used to
    /// create its journal first, leaving a header-only file that sent a
    /// retry down the resume branch. Now neither entry point touches the
    /// path.
    #[test]
    fn rejected_checkpointed_run_leaves_no_journal() {
        let mut scenario = crate::catalog::resume_tagged();
        scenario.telemetry = Some(crate::TelemetrySpec::full());
        let runner = ScenarioRunner::new(scenario).unwrap();
        let path = journal_path("telemetry-rejected");
        let _ = std::fs::remove_file(&path);
        let err = runner.run_checkpointed(&path, KillPlan::never()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }), "{err}");
        assert!(!path.exists(), "a rejected run must not create its journal");
        let err = runner.resume(&path).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }), "{err}");
        assert!(!path.exists());
    }

    /// Resuming under the wrong seed or a reshaped scenario is a typed
    /// error, never a silently diverging run.
    #[test]
    fn resume_rejects_mismatched_seed_and_config() {
        let runner = ScenarioRunner::new(small_single()).unwrap();
        let path = journal_path("mismatch");
        let _ = std::fs::remove_file(&path);
        assert!(runner.run_checkpointed(&path, KillPlan::after_epoch(0)).unwrap().is_none());
        let mut reseeded = small_single();
        reseeded.seed += 1;
        let err = ScenarioRunner::new(reseeded).unwrap().resume(&path).unwrap_err();
        assert!(matches!(err, CoreError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("seed mismatch"), "{err}");
        let mut reshaped = small_single();
        reshaped.eval_jobs += 1;
        let err = ScenarioRunner::new(reshaped).unwrap().resume(&path).unwrap_err();
        assert!(err.to_string().contains("config mismatch"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    /// Both backends fold their registries from the trace through one
    /// path, so they register the same counters in the same order (the
    /// per-class job counts aside), the single-server wake counter is
    /// the engine's own wake tally, and on both backends the trace's
    /// cache hits and misses are the cache's own counters.
    #[test]
    fn telemetry_counter_schema_is_shared_by_both_backends() {
        use sleepscale_telemetry::{metrics, TelemetrySpec};
        let armed = |mut scenario: Scenario| {
            scenario.telemetry = Some(TelemetrySpec::full());
            ScenarioRunner::new(scenario).unwrap().run().unwrap()
        };
        let single = armed(small_single());
        let fleet = armed(small_fleet());
        assert_eq!(fleet.backend(), Backend::Cluster);
        let schema = |report: &ScenarioReport| -> Vec<String> {
            let registry = &report.telemetry().expect("telemetry was armed").metrics;
            registry
                .counters()
                .iter()
                .map(|(name, _)| name.clone())
                .filter(|name| !name.starts_with("jobs_class"))
                .collect()
        };
        assert_eq!(schema(&single), schema(&fleet));
        // The cache's own counters and the trace's agree on both
        // backends: a cold-start epoch, whose empty log cannot be
        // characterized, is neither a hit nor a miss.
        for report in [&single, &fleet] {
            let registry = &report.telemetry().unwrap().metrics;
            let cache = report.cache_stats();
            assert_eq!(cache.hits, registry.get(metrics::CACHE_HITS), "{:?}", report.backend());
            assert_eq!(cache.misses, registry.get(metrics::CACHE_MISSES), "{:?}", report.backend());
        }

        let registry = &single.telemetry().unwrap().metrics;
        let engine_wakes: u64 =
            single.run_report().unwrap().wakes_from().iter().map(|&(_, count)| count).sum();
        assert!(engine_wakes > 0, "the run never woke from a sleep state");
        assert_eq!(registry.get(metrics::WAKE_TRANSITIONS), engine_wakes);
        assert_eq!(registry.get(metrics::JOBS_TOTAL), single.total_jobs() as u64);
    }

    #[test]
    fn runs_are_reproducible() {
        let runner = ScenarioRunner::new(small_fleet()).unwrap();
        let first = runner.run().unwrap();
        let second = runner.run().unwrap();
        assert_eq!(first.responses(), second.responses());
        assert_eq!(first.groups()[0].energy_joules, second.groups()[0].energy_joules);
    }
}
