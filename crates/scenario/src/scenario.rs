use serde::{Deserialize, Serialize};
use sleepscale::{CoreError, StrategySpec};
use sleepscale_autoscale::AutoscalerSpec;
use sleepscale_cluster::{
    ClassAffinity, Dispatcher, JoinShortestBacklog, PackFirstFit, RandomUniform, RoundRobin,
    ServerGroup, SplitUniform,
};
use sleepscale_telemetry::TelemetrySpec;
use sleepscale_traffic::{TrafficError, TrafficModel};
use sleepscale_workloads::{traces, UtilizationTrace, WorkloadSpec};

/// Maps traffic-subsystem errors onto the runner's error type: shape
/// problems become configuration errors, propagated layers keep their
/// identity.
pub(crate) fn traffic_to_core(e: TrafficError) -> CoreError {
    match e {
        TrafficError::Workload(e) => CoreError::Workload(e),
        TrafficError::Stream(e) => CoreError::Workload(e.into()),
        other => CoreError::InvalidConfig { reason: other.to_string() },
    }
}

/// What the jobs look like: a Table-5 row, custom moments, or a
/// weighted mix of populations (moment-composed or class-tagged).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSource {
    /// Table 5, DNS row.
    Dns,
    /// Table 5, Mail row.
    Mail,
    /// Table 5, Google row.
    Google,
    /// Custom summary statistics.
    Custom(WorkloadSpec),
    /// A weighted mixture of job populations: each arriving job is
    /// drawn from component `i` with probability proportional to its
    /// weight. The mixture is composed at the *moment* level (mixture
    /// mean and mixture second moment, hence mixture Cv), which is
    /// exactly the statistic Table 5 publishes for its own mixed live
    /// traces.
    Mix(Vec<MixComponent>),
    /// A *class-tagged* mixture: every job is drawn from its own
    /// class's distributions (sizes per class, arrivals interleaved by
    /// weight, per-class burst/diurnal modulators) and carries a
    /// [`ClassId`](sleepscale_sim::ClassId) tag through the whole run,
    /// so the report answers per-class response questions — including
    /// per-class p95 QoS targets — that [`WorkloadSource::Mix`]'s
    /// moment-level composition cannot. A single-class model is
    /// byte-identical to the equivalent untagged source.
    Tagged(TrafficModel),
}

/// One component of a [`WorkloadSource::Mix`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixComponent {
    /// The component population.
    pub spec: WorkloadSpec,
    /// Its relative weight (normalized over the mix).
    pub weight: f64,
}

/// Mixture mean and Cv from per-component (mean, Cv) pairs and
/// normalized weights: `E[X] = Σ wᵢ mᵢ`,
/// `E[X²] = Σ wᵢ mᵢ²(1 + Cvᵢ²)`.
fn mix_moments(parts: &[(f64, f64, f64)]) -> (f64, f64) {
    let mean: f64 = parts.iter().map(|(w, m, _)| w * m).sum();
    let second: f64 = parts.iter().map(|(w, m, cv)| w * m * m * (1.0 + cv * cv)).sum();
    let var = (second - mean * mean).max(0.0);
    (mean, var.sqrt() / mean)
}

impl WorkloadSource {
    /// Resolves the source into concrete summary statistics.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty mix or
    /// non-positive weights, and propagates invalid custom moments.
    pub fn resolve(&self) -> Result<WorkloadSpec, CoreError> {
        match self {
            WorkloadSource::Dns => Ok(WorkloadSpec::dns()),
            WorkloadSource::Mail => Ok(WorkloadSpec::mail()),
            WorkloadSource::Google => Ok(WorkloadSpec::google()),
            WorkloadSource::Custom(spec) => Ok(spec.clone()),
            WorkloadSource::Mix(components) => {
                if components.is_empty() {
                    return Err(CoreError::InvalidConfig {
                        reason: "a workload mix needs at least one component".into(),
                    });
                }
                let total: f64 = components.iter().map(|c| c.weight).sum();
                if !total.is_finite()
                    || total <= 0.0
                    || components.iter().any(|c| !c.weight.is_finite() || c.weight < 0.0)
                {
                    return Err(CoreError::InvalidConfig {
                        reason: format!(
                            "mix weights must be finite and non-negative with a positive sum \
                             (got sum {total})"
                        ),
                    });
                }
                let service: Vec<(f64, f64, f64)> = components
                    .iter()
                    .map(|c| (c.weight / total, c.spec.service_mean(), c.spec.service_cv()))
                    .collect();
                let arrival: Vec<(f64, f64, f64)> = components
                    .iter()
                    .map(|c| {
                        (c.weight / total, c.spec.interarrival_mean(), c.spec.interarrival_cv())
                    })
                    .collect();
                let (sv_mean, sv_cv) = mix_moments(&service);
                let (ia_mean, ia_cv) = mix_moments(&arrival);
                let name = components.iter().map(|c| c.spec.name()).collect::<Vec<_>>().join("+");
                Ok(WorkloadSpec::new(format!("mix({name})"), ia_mean, ia_cv, sv_mean, sv_cv)?)
            }
            // The tagged model validates itself and composes with the
            // same moment formula `Mix` uses (single-class models
            // resolve to their class's spec verbatim).
            WorkloadSource::Tagged(model) => model.composed_spec().map_err(traffic_to_core),
        }
    }

    /// The declared traffic model, when this source is class-tagged.
    pub fn traffic_model(&self) -> Option<&TrafficModel> {
        match self {
            WorkloadSource::Tagged(model) => Some(model),
            _ => None,
        }
    }
}

/// The arrival-scale schedule: how offered utilization moves over the
/// scenario's horizon (replay scales the workload's inter-arrivals to
/// follow it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoadSchedule {
    /// Constant offered utilization (Section 4's idealized studies).
    Constant {
        /// Offered utilization (fraction of total fleet capacity).
        rho: f64,
        /// Horizon in minutes.
        minutes: usize,
    },
    /// A window of the synthetic email-store day (wide diurnal range,
    /// backup surges) — the paper's Section 6 trace substitute.
    EmailStoreDay {
        /// Trace seed.
        seed: u64,
        /// First minute of the window (0 = midnight).
        start_minute: usize,
        /// One past the last minute of the window.
        end_minute: usize,
    },
    /// A window of the synthetic file-server day (low utilization,
    /// gentle swing).
    FileServerDay {
        /// Trace seed.
        seed: u64,
        /// First minute of the window (0 = midnight).
        start_minute: usize,
        /// One past the last minute of the window.
        end_minute: usize,
    },
    /// An explicit per-minute utilization series.
    Trace(UtilizationTrace),
}

impl LoadSchedule {
    /// Checks the schedule's shape without materializing the trace —
    /// O(1) on the enum fields (runner validation calls this; the full
    /// synthesis happens once, at run time).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty/inverted
    /// window or an out-of-range constant utilization.
    pub fn validate(&self) -> Result<(), CoreError> {
        match self {
            LoadSchedule::Constant { rho, .. } => {
                if !rho.is_finite() || !(0.0..=1.0).contains(rho) {
                    return Err(CoreError::InvalidConfig {
                        reason: format!("constant load {rho} must be inside [0, 1]"),
                    });
                }
            }
            LoadSchedule::EmailStoreDay { start_minute, end_minute, .. }
            | LoadSchedule::FileServerDay { start_minute, end_minute, .. } => {
                if start_minute >= end_minute {
                    return Err(CoreError::InvalidConfig {
                        reason: format!(
                            "load window [{start_minute}, {end_minute}) is empty or inverted"
                        ),
                    });
                }
            }
            LoadSchedule::Trace(_) => {} // validated at construction
        }
        Ok(())
    }

    /// The schedule's horizon in minutes.
    pub fn minutes(&self) -> usize {
        match self {
            LoadSchedule::Constant { minutes, .. } => *minutes,
            LoadSchedule::EmailStoreDay { start_minute, end_minute, .. }
            | LoadSchedule::FileServerDay { start_minute, end_minute, .. } => {
                end_minute.saturating_sub(*start_minute)
            }
            LoadSchedule::Trace(trace) => trace.len(),
        }
    }

    /// Materializes the utilization trace, scaling every minute by
    /// `arrival_scale` (clamped to the simulator's stable range).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty or inverted
    /// window and propagates trace validation errors.
    pub fn build(&self, arrival_scale: f64) -> Result<UtilizationTrace, CoreError> {
        let base = match self {
            LoadSchedule::Constant { rho, minutes } => {
                UtilizationTrace::constant(*rho, *minutes).map_err(CoreError::from)?
            }
            LoadSchedule::EmailStoreDay { seed, start_minute, end_minute }
            | LoadSchedule::FileServerDay { seed, start_minute, end_minute } => {
                if start_minute >= end_minute {
                    return Err(CoreError::InvalidConfig {
                        reason: format!(
                            "load window [{start_minute}, {end_minute}) is empty or inverted"
                        ),
                    });
                }
                let days = end_minute.div_ceil(traces::MINUTES_PER_DAY).max(1);
                let day = match self {
                    LoadSchedule::EmailStoreDay { .. } => traces::email_store(days, *seed),
                    _ => traces::file_server(days, *seed),
                };
                day.window(*start_minute, *end_minute)
            }
            LoadSchedule::Trace(trace) => trace.clone(),
        };
        if (arrival_scale - 1.0).abs() < 1e-12 {
            return Ok(base);
        }
        let scaled: Vec<f64> =
            base.values().iter().map(|v| (v * arrival_scale).clamp(0.0, 0.97)).collect();
        Ok(UtilizationTrace::new(format!("{}×{arrival_scale}", base.name()), scaled)?)
    }

    /// The same schedule truncated to at most `max_minutes` — how
    /// `--quick` catalog runs shrink a scenario without changing its
    /// shape.
    pub fn truncated(self, max_minutes: usize) -> LoadSchedule {
        match self {
            LoadSchedule::Constant { rho, minutes } => {
                LoadSchedule::Constant { rho, minutes: minutes.min(max_minutes) }
            }
            LoadSchedule::EmailStoreDay { seed, start_minute, end_minute } => {
                LoadSchedule::EmailStoreDay {
                    seed,
                    start_minute,
                    end_minute: end_minute.min(start_minute + max_minutes),
                }
            }
            LoadSchedule::FileServerDay { seed, start_minute, end_minute } => {
                LoadSchedule::FileServerDay {
                    seed,
                    start_minute,
                    end_minute: end_minute.min(start_minute + max_minutes),
                }
            }
            LoadSchedule::Trace(trace) => {
                if trace.len() <= max_minutes {
                    LoadSchedule::Trace(trace)
                } else {
                    LoadSchedule::Trace(trace.window(0, max_minutes))
                }
            }
        }
    }
}

/// Which dispatcher splits the cluster-wide arrival stream (ignored by
/// single-server scenarios).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DispatcherSpec {
    /// Cycle through servers in order.
    RoundRobin,
    /// Seeded uniform random routing.
    RandomUniform {
        /// Router seed.
        seed: u64,
    },
    /// Send each job to the least-backlogged server.
    JoinShortestBacklog,
    /// Pack the lowest-indexed servers up to a backlog threshold.
    PackFirstFit {
        /// Per-server backlog threshold, seconds.
        backlog_seconds: f64,
    },
    /// Stateless seeded-hash routing: each job's server is a pure
    /// function of `(seed, sequence)`. The only dispatcher the sharded
    /// engine (`shards > 1`) supports — it is the routing rule shards
    /// evaluate independently.
    SplitUniform {
        /// Split seed.
        seed: u64,
    },
    /// Class-aware routing over a grouped fleet: each traffic class is
    /// steered to a preferred [`ServerGroup`] (`class_groups[c]` is
    /// class `c`'s group index; classes beyond the table reuse its last
    /// entry), choosing the lowest-indexed server there whose backlog
    /// is under the spill threshold. A saturated group spills to the
    /// lowest-indexed under-threshold server fleet-wide, and a
    /// saturated fleet falls back to shortest-backlog. Requires a
    /// multi-server fleet; pairs naturally with
    /// [`Scenario::autoscaler`], whose active prefixes it routes over.
    ClassAffinity {
        /// Preferred group per class tag, indexed by
        /// [`ClassId`](sleepscale_sim::ClassId).
        class_groups: Vec<usize>,
        /// Per-server backlog threshold before a class spills out of
        /// its preferred group, seconds.
        spill_threshold_seconds: f64,
    },
}

impl DispatcherSpec {
    /// Lowers the spec into a live dispatcher over `fleet`'s group
    /// shape (only [`DispatcherSpec::ClassAffinity`] reads it).
    pub fn build(&self, fleet: &[ServerGroup]) -> Box<dyn Dispatcher> {
        match self {
            DispatcherSpec::RoundRobin => Box::new(RoundRobin::new()),
            DispatcherSpec::RandomUniform { seed } => Box::new(RandomUniform::new(*seed)),
            DispatcherSpec::JoinShortestBacklog => Box::new(JoinShortestBacklog::new()),
            DispatcherSpec::PackFirstFit { backlog_seconds } => {
                Box::new(PackFirstFit::new(*backlog_seconds))
            }
            DispatcherSpec::SplitUniform { seed } => Box::new(SplitUniform::new(*seed)),
            DispatcherSpec::ClassAffinity { class_groups, spill_threshold_seconds } => {
                let sizes: Vec<usize> = fleet.iter().map(|g| g.count).collect();
                Box::new(ClassAffinity::new(&sizes, class_groups.clone(), *spill_threshold_seconds))
            }
        }
    }

    /// Shape-checks the spec against the fleet it will route for
    /// (runner validation calls this before anything runs).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a [`ClassAffinity`]
    /// spec with an empty class table, an out-of-range group index, or
    /// a non-finite threshold.
    pub fn validate(&self, fleet: &[ServerGroup]) -> Result<(), CoreError> {
        if let DispatcherSpec::ClassAffinity { class_groups, spill_threshold_seconds } = self {
            if class_groups.is_empty() {
                return Err(CoreError::InvalidConfig {
                    reason: "class-affinity dispatch needs at least one class→group entry".into(),
                });
            }
            if let Some(&bad) = class_groups.iter().find(|&&g| g >= fleet.len()) {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "class-affinity routes a class to group {bad} but the fleet has only {} \
                         groups",
                        fleet.len()
                    ),
                });
            }
            if !spill_threshold_seconds.is_finite() || *spill_threshold_seconds < 0.0 {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "class-affinity spill threshold {spill_threshold_seconds}s must be finite \
                         and >= 0"
                    ),
                });
            }
        }
        Ok(())
    }

    /// The split seed when this spec is shardable (seeded-hash
    /// routing), `None` for the stateful dispatchers.
    pub fn split_seed(&self) -> Option<u64> {
        match self {
            DispatcherSpec::SplitUniform { seed } => Some(*seed),
            _ => None,
        }
    }
}

/// A complete experiment, as data: workload + arrival-scale schedule +
/// fleet shape + dispatcher + control knobs. One `Scenario` drives any
/// backend through [`ScenarioRunner`](crate::ScenarioRunner) — the
/// single declarative entry point that replaces hand-wiring
/// `RuntimeConfig`/strategy/`Cluster` per experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Display name (catalog key).
    pub name: String,
    /// What the jobs look like.
    pub workload: WorkloadSource,
    /// How offered utilization moves over the horizon.
    pub load: LoadSchedule,
    /// Multiplies the schedule's utilization minute by minute
    /// (capacity-planning sweeps; 1.0 = as scheduled).
    pub arrival_scale: f64,
    /// The fleet: one or more server groups (one = still a fleet of
    /// `count` servers; a single group of one server selects the
    /// single-server backend).
    pub fleet: Vec<ServerGroup>,
    /// How arrivals are split across the fleet.
    pub dispatcher: DispatcherSpec,
    /// Closed-loop fleet autoscaler: when set, the cluster engine
    /// parks trailing servers of each group off-peak and wakes them
    /// (with modeled wake latency) as load or QoS pressure returns.
    /// `None` leaves every run byte-identical to a fixed fleet.
    pub autoscaler: Option<AutoscalerSpec>,
    /// Structured telemetry: when set, the run records the trace-event
    /// stream (C-state/idle residency, wakes, per-epoch policy
    /// decisions, dispatch spills, autoscaler transitions) and the
    /// counter registry folded from it onto
    /// [`ScenarioReport::telemetry`](crate::ScenarioReport), merged in
    /// slot order so the collected telemetry is byte-identical across
    /// worker and shard counts. `None` (the default) takes the exact
    /// pre-telemetry code paths — reports are byte-identical to a
    /// build without the layer.
    pub telemetry: Option<TelemetrySpec>,
    /// Shards for the concurrent fleet engine (1 = the central
    /// dispatch loop). More than one shard requires a
    /// [`DispatcherSpec::SplitUniform`] dispatcher and a multi-server
    /// fleet; results are byte-identical for every shard count.
    pub shards: usize,
    /// The policy update interval `T`, minutes.
    pub epoch_minutes: usize,
    /// Jobs replayed per candidate characterization.
    pub eval_jobs: usize,
    /// Samples drawn when synthesizing the BigHouse-substitute
    /// empirical tables.
    pub dist_samples: usize,
    /// Master seed: distribution synthesis and ground-truth replay
    /// derive from it, so a scenario is a pure function of its fields.
    pub seed: u64,
    /// Worker threads for fleet epoch control (0 = size to the
    /// machine; results are identical for every value).
    pub threads: usize,
    /// QoS acceptance slack: a group passes when its realized
    /// normalized mean response is within `slack ×` its budget
    /// (prediction error makes exact-budget runs flap; the paper's own
    /// evaluation tolerates transient overshoot).
    pub qos_slack: f64,
}

impl Scenario {
    /// A single-server scenario over the default SleepScale strategy;
    /// override fields with struct-update syntax.
    pub fn new(name: impl Into<String>, workload: WorkloadSource, load: LoadSchedule) -> Scenario {
        Scenario {
            name: name.into(),
            workload,
            load,
            arrival_scale: 1.0,
            fleet: vec![ServerGroup::new("server", 1, StrategySpec::sleepscale())],
            dispatcher: DispatcherSpec::JoinShortestBacklog,
            autoscaler: None,
            telemetry: None,
            shards: 1,
            epoch_minutes: 5,
            eval_jobs: 800,
            dist_samples: 8_000,
            seed: 7,
            threads: 0,
            qos_slack: 1.5,
        }
    }

    /// Total servers across the fleet.
    pub fn total_servers(&self) -> usize {
        self.fleet.iter().map(|g| g.count).sum()
    }

    /// A reduced copy for smoke runs: the horizon is truncated to 90
    /// minutes, groups shrink to a quarter of their servers (at least
    /// one), and characterization depth is capped — same shape, a
    /// fraction of the work.
    pub fn quick(mut self) -> Scenario {
        for group in &mut self.fleet {
            group.count = (group.count / 4).max(1);
        }
        self.load = self.load.truncated(90);
        self.eval_jobs = self.eval_jobs.min(200);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_sources_resolve() {
        assert_eq!(WorkloadSource::Dns.resolve().unwrap(), WorkloadSpec::dns());
        assert_eq!(WorkloadSource::Mail.resolve().unwrap(), WorkloadSpec::mail());
        assert_eq!(WorkloadSource::Google.resolve().unwrap(), WorkloadSpec::google());
    }

    #[test]
    fn mix_composes_moments() {
        // A degenerate one-component mix is that component.
        let solo =
            WorkloadSource::Mix(vec![MixComponent { spec: WorkloadSpec::dns(), weight: 3.0 }])
                .resolve()
                .unwrap();
        assert!((solo.service_mean() - 0.194).abs() < 1e-12);
        assert!((solo.service_cv() - 1.0).abs() < 1e-12);
        // DNS+Mail: the mixture mean interpolates, and mixing two
        // populations with different means inflates the Cv above the
        // weighted Cv average.
        let mixed = WorkloadSource::Mix(vec![
            MixComponent { spec: WorkloadSpec::dns(), weight: 1.0 },
            MixComponent { spec: WorkloadSpec::mail(), weight: 1.0 },
        ])
        .resolve()
        .unwrap();
        assert!((mixed.service_mean() - (0.194 + 0.092) / 2.0).abs() < 1e-12);
        assert!(mixed.service_cv() > 1.0);
        assert!(mixed.name().contains("DNS") && mixed.name().contains("Mail"));
    }

    #[test]
    fn mix_validation() {
        assert!(WorkloadSource::Mix(vec![]).resolve().is_err());
        assert!(WorkloadSource::Mix(vec![MixComponent {
            spec: WorkloadSpec::dns(),
            weight: -1.0
        }])
        .resolve()
        .is_err());
    }

    #[test]
    fn load_schedules_build_and_scale() {
        let flat = LoadSchedule::Constant { rho: 0.4, minutes: 30 }.build(1.0).unwrap();
        assert_eq!(flat.len(), 30);
        assert!((flat.mean() - 0.4).abs() < 1e-12);
        let scaled = LoadSchedule::Constant { rho: 0.4, minutes: 30 }.build(1.5).unwrap();
        assert!((scaled.mean() - 0.6).abs() < 1e-12);
        // Scaling clamps at the simulator's stable ceiling.
        let capped = LoadSchedule::Constant { rho: 0.9, minutes: 10 }.build(2.0).unwrap();
        assert!((capped.max() - 0.97).abs() < 1e-12);
        let day = LoadSchedule::EmailStoreDay { seed: 7, start_minute: 120, end_minute: 1200 }
            .build(1.0)
            .unwrap();
        assert_eq!(day.len(), 1080);
        assert_eq!(day.values(), traces::email_store(1, 7).window(120, 1200).values());
    }

    #[test]
    fn load_window_validation() {
        let err = LoadSchedule::EmailStoreDay { seed: 1, start_minute: 10, end_minute: 10 }
            .build(1.0)
            .unwrap_err();
        assert!(err.to_string().contains("empty or inverted"), "{err}");
    }

    #[test]
    fn truncation_keeps_shape() {
        let t = LoadSchedule::EmailStoreDay { seed: 7, start_minute: 480, end_minute: 840 }
            .truncated(90);
        assert_eq!(t.minutes(), 90);
        let t = LoadSchedule::Constant { rho: 0.2, minutes: 30 }.truncated(90);
        assert_eq!(t.minutes(), 30);
    }

    #[test]
    fn quick_shrinks_without_reshaping() {
        let mut scenario = Scenario::new(
            "x",
            WorkloadSource::Dns,
            LoadSchedule::Constant { rho: 0.2, minutes: 360 },
        );
        scenario.fleet = vec![
            ServerGroup::new("a", 32, StrategySpec::sleepscale()),
            ServerGroup::new("b", 2, StrategySpec::race_to_halt_c6()),
        ];
        let quick = scenario.clone().quick();
        assert_eq!(quick.fleet[0].count, 8);
        assert_eq!(quick.fleet[1].count, 1, "groups never shrink to zero");
        assert_eq!(quick.load.minutes(), 90);
        assert_eq!(quick.fleet.len(), scenario.fleet.len());
    }
}
