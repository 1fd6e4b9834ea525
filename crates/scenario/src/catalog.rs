//! The bundled scenario catalog: one ready-to-run [`Scenario`] per
//! deployment shape the reproduction's gates and examples exercise.
//! Run the whole catalog with
//! `cargo run --release -p sleepscale-bench --bin scenarios`
//! (`-- --quick` for the reduced CI smoke pass).

use crate::scenario::{DispatcherSpec, LoadSchedule, MixComponent, Scenario, WorkloadSource};
use sleepscale::{QosConstraint, StrategySpec};
use sleepscale_autoscale::AutoscalerSpec;
use sleepscale_cluster::ServerGroup;
use sleepscale_power::{presets, FrequencyScaling};
use sleepscale_sim::SimEnv;
use sleepscale_traffic::{ArrivalModulator, TrafficClass, TrafficModel};
use sleepscale_workloads::WorkloadSpec;

/// The paper's Section 6 evaluation day: one Xeon server under the
/// full SleepScale runtime (α = 0.35) over the 2 AM–8 PM email-store
/// window with DNS-like service.
pub fn dns_day() -> Scenario {
    let mut scenario = Scenario::new(
        "dns-day-single",
        WorkloadSource::Dns,
        LoadSchedule::EmailStoreDay { seed: 7, start_minute: 120, end_minute: 1200 },
    );
    scenario.fleet[0].over_provisioning = 0.35;
    scenario.eval_jobs = 2_000;
    scenario.dist_samples = 10_000;
    scenario.seed = 7;
    scenario
}

/// The DNS day selected from the closed-form model instead of log
/// replay — the analytic-vs-simulation cross-check partner of
/// [`dns_day`] (compare the two reports to see what the idealized
/// model gives up).
pub fn dns_day_analytic() -> Scenario {
    let mut scenario = dns_day();
    scenario.name = "dns-day-analytic".into();
    scenario.fleet[0].strategy = StrategySpec::analytic();
    scenario
}

/// The PR-3 scale-out gate's fleet: 64 homogeneous Xeon servers behind
/// join-shortest-backlog over a 6-hour morning window — the scenario
/// whose report the `cluster_scale` parity gate checks byte-for-byte
/// against the preserved serial engine.
///
/// This is a throughput/parity recipe preserved verbatim from PR 3
/// (shallow `eval_jobs`, a window that rides the diurnal ramp to its
/// afternoon peak), not a tuned deployment: the fleet knowingly
/// overshoots its nominal budget through the peak, so the scenario
/// declares the wider slack its own history establishes. Tightening
/// any knob here would change the bytes the parity gate pins.
pub fn fleet64() -> Scenario {
    let mut scenario = Scenario::new(
        "fleet-64-homogeneous",
        WorkloadSource::Dns,
        LoadSchedule::EmailStoreDay { seed: 7, start_minute: 480, end_minute: 840 },
    );
    scenario.fleet = vec![ServerGroup::new("fleet", 64, StrategySpec::sleepscale())];
    scenario.dispatcher = DispatcherSpec::JoinShortestBacklog;
    scenario.eval_jobs = 300;
    scenario.dist_samples = 8_000;
    scenario.seed = 2_203;
    scenario.qos_slack = 3.0;
    scenario
}

/// A mixed-generation fleet: half the servers are the Table-2 Xeon,
/// half its higher-idle prose variant — the heterogeneity real racks
/// accumulate across refresh cycles (each group characterizes against
/// its own power model, with its own shared cache).
pub fn mixed_generations() -> Scenario {
    let mut scenario = Scenario::new(
        "mixed-xeon-generations",
        WorkloadSource::Dns,
        LoadSchedule::Constant { rho: 0.25, minutes: 180 },
    );
    scenario.fleet = vec![
        ServerGroup::new("xeon-table2", 8, StrategySpec::sleepscale()),
        ServerGroup {
            env: SimEnv::new(presets::xeon_prose_variant(), FrequencyScaling::CpuBound),
            ..ServerGroup::new("xeon-prose", 8, StrategySpec::sleepscale())
        },
    ];
    scenario.dispatcher = DispatcherSpec::JoinShortestBacklog;
    scenario.eval_jobs = 300;
    scenario.seed = 31;
    scenario
}

/// A per-service QoS split on one machine class: a latency-tier group
/// under a tight budget next to a batch-tier group under a loose one —
/// the per-group constraint shapes each half's operating point.
pub fn qos_split() -> Scenario {
    let mut scenario = Scenario::new(
        "per-group-qos-split",
        WorkloadSource::Dns,
        LoadSchedule::Constant { rho: 0.3, minutes: 180 },
    );
    scenario.fleet = vec![
        ServerGroup {
            qos: QosConstraint::MeanResponse { rho_b: 0.6 },
            ..ServerGroup::new("latency-tier", 4, StrategySpec::sleepscale())
        },
        ServerGroup {
            qos: QosConstraint::MeanResponse { rho_b: 0.9 },
            ..ServerGroup::new("batch-tier", 4, StrategySpec::sleepscale())
        },
    ];
    scenario.dispatcher = DispatcherSpec::RoundRobin;
    scenario.eval_jobs = 300;
    scenario.seed = 32;
    scenario
}

/// Race-to-halt vs SleepScale as an in-fleet A/B: two identical
/// groups, one racing into C6, one running the full runtime, under the
/// same balanced load — the Section 6.1 comparison as one scenario.
pub fn race_vs_sleepscale() -> Scenario {
    let mut scenario = Scenario::new(
        "race-vs-sleepscale-ab",
        WorkloadSource::Dns,
        LoadSchedule::Constant { rho: 0.25, minutes: 180 },
    );
    scenario.fleet = vec![
        ServerGroup::new("sleepscale", 4, StrategySpec::sleepscale()),
        ServerGroup::new("race-to-halt", 4, StrategySpec::race_to_halt_c6()),
    ];
    scenario.dispatcher = DispatcherSpec::RoundRobin;
    scenario.eval_jobs = 300;
    scenario.seed = 33;
    scenario
}

/// A composed-mix workload (DNS + Mail populations) consolidated onto
/// a packed fleet at the low utilizations the paper's introduction
/// describes — heavier-tailed service, packing for deep sleep.
pub fn mixed_workload_packed() -> Scenario {
    let mut scenario = Scenario::new(
        "dns-mail-mix-packed",
        WorkloadSource::Mix(vec![
            MixComponent { spec: WorkloadSpec::dns(), weight: 2.0 },
            MixComponent { spec: WorkloadSpec::mail(), weight: 1.0 },
        ]),
        LoadSchedule::Constant { rho: 0.15, minutes: 180 },
    );
    scenario.fleet = vec![ServerGroup::new("packed", 8, StrategySpec::sleepscale())];
    scenario.dispatcher = DispatcherSpec::PackFirstFit { backlog_seconds: 1.0 };
    scenario.eval_jobs = 300;
    scenario.seed = 34;
    scenario
}

/// The tagged twin of [`mixed_workload_packed`]'s population: DNS and
/// Mail as *class-tagged* streams (sizes drawn per class, arrivals
/// interleaved 2:1) on a shared fleet, each class judged against its
/// own normalized-p95 budget — the per-component response question
/// `WorkloadSource::Mix`'s moment composition cannot answer. The
/// interactive class holds a tight budget while batch rides an order
/// of magnitude looser.
pub fn dns_mail_tagged() -> Scenario {
    let mut scenario = Scenario::new(
        "dns-mail-tagged-mix",
        WorkloadSource::Tagged(TrafficModel {
            classes: vec![
                TrafficClass::new("interactive", WorkloadSpec::dns(), 2.0).with_p95_budget(8.0),
                TrafficClass::new("batch", WorkloadSpec::mail(), 1.0).with_p95_budget(60.0),
            ],
        }),
        LoadSchedule::Constant { rho: 0.3, minutes: 180 },
    );
    scenario.fleet = vec![ServerGroup::new("shared", 8, StrategySpec::sleepscale())];
    scenario.dispatcher = DispatcherSpec::JoinShortestBacklog;
    scenario.eval_jobs = 300;
    scenario.seed = 35;
    scenario
}

/// A flash-crowd day: an interactive class whose arrival rate bursts
/// to 3× for a 40-minute window (the crowd) over a batch class with a
/// gentle diurnal swing of its own — per-class arrival shaping on one
/// fleet, with the interactive class still held to its p95 budget
/// *through the burst*.
pub fn flash_crowd_day() -> Scenario {
    let mut scenario = Scenario::new(
        "flash-crowd-day",
        WorkloadSource::Tagged(TrafficModel {
            classes: vec![
                TrafficClass::new("interactive", WorkloadSpec::dns(), 2.0)
                    .with_p95_budget(8.0)
                    // Inside the first 90 minutes so the `--quick`
                    // (truncated) form still exercises the burst.
                    .with_modulator(ArrivalModulator::Burst {
                        start_minute: 40,
                        end_minute: 80,
                        factor: 3.0,
                    }),
                TrafficClass::new("batch", WorkloadSpec::mail(), 1.0)
                    .with_p95_budget(60.0)
                    .with_modulator(ArrivalModulator::Diurnal { amplitude: 0.4, peak_minute: 120 }),
            ],
        }),
        LoadSchedule::Constant { rho: 0.2, minutes: 240 },
    );
    // The guard band (α = 0.35, the paper's evaluated value) is what
    // lets the per-server controllers absorb the unpredicted 3× crowd
    // without riding a multi-epoch backlog transient.
    scenario.fleet = vec![ServerGroup {
        over_provisioning: 0.35,
        ..ServerGroup::new("shared", 8, StrategySpec::sleepscale())
    }];
    scenario.dispatcher = DispatcherSpec::JoinShortestBacklog;
    scenario.eval_jobs = 300;
    scenario.seed = 36;
    scenario
}

/// The tuned 64-server deployment the ROADMAP asked for next to the
/// preserved [`fleet64`] throughput recipe: same fleet, same diurnal
/// morning-to-peak window, but characterized deeply (`eval_jobs`
/// 1 200) with the paper's evaluated guard band (α = 0.35) — and held
/// to the *nominal* QoS budget (`qos_slack = 1.0`) through the peak,
/// not the wide slack the parity recipe declares for itself.
pub fn fleet64_tuned() -> Scenario {
    let mut scenario = Scenario::new(
        "fleet-64-tuned",
        WorkloadSource::Dns,
        LoadSchedule::EmailStoreDay { seed: 7, start_minute: 480, end_minute: 840 },
    );
    scenario.fleet = vec![ServerGroup {
        over_provisioning: 0.35,
        ..ServerGroup::new("fleet", 64, StrategySpec::sleepscale())
    }];
    scenario.dispatcher = DispatcherSpec::JoinShortestBacklog;
    scenario.eval_jobs = 1_200;
    scenario.dist_samples = 8_000;
    scenario.seed = 2_203;
    scenario.qos_slack = 1.0;
    scenario
}

/// The checkpoint/resume gate's single-server scenario: one Xeon under
/// the full runtime over a short constant-load window — 6 five-minute
/// epochs, so kill-at-every-boundary × resume stays cheap while still
/// crossing enough boundaries to catch cross-epoch state (predictor
/// history, warm starts, ledger carry-over) that a one-epoch run would
/// hide.
pub fn resume_single() -> Scenario {
    let mut scenario = Scenario::new(
        "resume-single",
        WorkloadSource::Dns,
        LoadSchedule::Constant { rho: 0.25, minutes: 30 },
    );
    scenario.eval_jobs = 200;
    scenario.dist_samples = 4_000;
    scenario.seed = 81;
    scenario
}

/// The checkpoint/resume gate's sharded-fleet scenario: 8 servers
/// behind seeded-hash routing, evaluated as 2 shards — the backend
/// whose resume must stay byte-identical across *different* worker
/// thread counts on either side of the kill (shard cursors are
/// re-derived from the epoch clock, never stored).
pub fn resume_fleet_sharded() -> Scenario {
    let mut scenario = Scenario::new(
        "resume-fleet-sharded",
        WorkloadSource::Dns,
        LoadSchedule::Constant { rho: 0.25, minutes: 30 },
    );
    scenario.fleet = vec![ServerGroup::new("fleet", 8, StrategySpec::sleepscale())];
    scenario.dispatcher = DispatcherSpec::SplitUniform { seed: 17 };
    scenario.shards = 2;
    scenario.eval_jobs = 200;
    scenario.dist_samples = 4_000;
    scenario.seed = 82;
    scenario
}

/// The checkpoint/resume gate's tagged-stream scenario: two declared
/// classes on a small fleet behind round-robin — per-class response
/// sketches *and* the dispatcher's own cursor must survive the kill
/// for the resumed report's class slices to land byte-identical.
pub fn resume_tagged() -> Scenario {
    let mut scenario = Scenario::new(
        "resume-tagged",
        WorkloadSource::Tagged(TrafficModel {
            classes: vec![
                TrafficClass::new("interactive", WorkloadSpec::dns(), 2.0).with_p95_budget(20.0),
                TrafficClass::new("batch", WorkloadSpec::mail(), 1.0).with_p95_budget(120.0),
            ],
        }),
        LoadSchedule::Constant { rho: 0.25, minutes: 30 },
    );
    scenario.fleet = vec![ServerGroup::new("shared", 2, StrategySpec::sleepscale())];
    scenario.dispatcher = DispatcherSpec::RoundRobin;
    scenario.eval_jobs = 200;
    scenario.dist_samples = 4_000;
    scenario.seed = 83;
    scenario
}

/// The autoscaling control plane's diurnal day: two tagged classes on
/// a two-tier fleet — interactive on fast Xeons, batch on efficient
/// Atoms — behind class-affinity routing, with the closed-loop
/// autoscaler parking each tier's trailing servers through the
/// overnight trough and waking them (guarded by each class's own p95
/// budget) as the day ramps toward its peak.
pub fn autoscale_day() -> Scenario {
    let mut scenario = Scenario::new(
        "autoscale-day",
        WorkloadSource::Tagged(TrafficModel {
            classes: vec![
                TrafficClass::new("interactive", WorkloadSpec::dns(), 2.0).with_p95_budget(8.0),
                TrafficClass::new("batch", WorkloadSpec::mail(), 1.0).with_p95_budget(60.0),
            ],
        }),
        LoadSchedule::EmailStoreDay { seed: 7, start_minute: 120, end_minute: 1200 },
    );
    scenario.fleet = vec![
        ServerGroup::new("interactive", 8, StrategySpec::sleepscale()),
        ServerGroup {
            env: SimEnv::new(presets::atom(), FrequencyScaling::CpuBound),
            ..ServerGroup::new("batch", 4, StrategySpec::sleepscale())
        },
    ];
    scenario.dispatcher =
        DispatcherSpec::ClassAffinity { class_groups: vec![0, 1], spill_threshold_seconds: 0.1 };
    scenario.autoscaler = Some(AutoscalerSpec::new().with_class_guards(vec![1.5, 5.5]));
    scenario.eval_jobs = 300;
    scenario.seed = 37;
    scenario
}

/// [`autoscale_day`]'s class-blind control arm: the same tagged day on
/// the same two-tier fleet, but behind join-shortest-backlog with the
/// fleet fixed at full size — the baseline family the `autoscale` gate
/// must beat on total energy at equal per-class QoS (the gate also
/// shrinks this fleet to smaller fixed sizes over the same inputs).
pub fn autoscale_day_fixed() -> Scenario {
    let mut scenario = autoscale_day();
    scenario.name = "autoscale-day-fixed".into();
    scenario.dispatcher = DispatcherSpec::JoinShortestBacklog;
    scenario.autoscaler = None;
    scenario
}

/// Every bundled scenario, in catalog order.
pub fn catalog() -> Vec<Scenario> {
    vec![
        dns_day(),
        dns_day_analytic(),
        fleet64(),
        fleet64_tuned(),
        mixed_generations(),
        qos_split(),
        race_vs_sleepscale(),
        mixed_workload_packed(),
        dns_mail_tagged(),
        flash_crowd_day(),
        resume_single(),
        resume_fleet_sharded(),
        resume_tagged(),
        autoscale_day(),
        autoscale_day_fixed(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ScenarioRunner;

    #[test]
    fn catalog_has_the_promised_shapes_and_validates() {
        let all = catalog();
        assert!(all.len() >= 10);
        // Unique names.
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        // Every scenario (full and quick form) passes validation, and
        // so does every traffic model (its rate factor within bound).
        for scenario in all {
            let name = scenario.name.clone();
            if let Some(model) = scenario.workload.traffic_model() {
                model.validate().unwrap_or_else(|e| panic!("{name} traffic: {e}"));
            }
            ScenarioRunner::new(scenario.clone()).unwrap_or_else(|e| panic!("{name}: {e}"));
            ScenarioRunner::new(scenario.quick()).unwrap_or_else(|e| panic!("{name} quick: {e}"));
        }
    }

    /// The resume trio covers the gate's whole matrix: single-server,
    /// sharded fleet, and a tagged stream — each crossing several epoch
    /// boundaries so cross-epoch state actually matters.
    #[test]
    fn resume_scenarios_cover_the_gate_matrix() {
        for s in [resume_single(), resume_fleet_sharded(), resume_tagged()] {
            assert!(s.load.minutes() / s.epoch_minutes >= 4, "{}", s.name);
        }
        assert_eq!(resume_single().total_servers(), 1);
        assert!(resume_fleet_sharded().shards > 1);
        assert!(resume_tagged().workload.traffic_model().is_some());
    }

    #[test]
    fn fleet64_matches_the_cluster_scale_gate_recipe() {
        let s = fleet64();
        assert_eq!(s.total_servers(), 64);
        assert_eq!(s.seed, 2_203);
        assert_eq!(s.eval_jobs, 300);
        assert_eq!(s.load.minutes(), 360);
        assert_eq!(s.dispatcher, DispatcherSpec::JoinShortestBacklog);
    }

    /// The acceptance shape for the traffic subsystem: the tagged
    /// DNS+Mail catalog scenario reports *distinct* per-class p95s and
    /// the interactive class meets its own QoS target.
    #[test]
    fn tagged_mix_scenario_reports_distinct_per_class_p95s() {
        let report = ScenarioRunner::new(dns_mail_tagged().quick()).unwrap().run().unwrap();
        let classes = report.classes();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].name, "interactive");
        assert!(classes.iter().all(|c| c.jobs > 0));
        let rel = (classes[0].p95_response_seconds - classes[1].p95_response_seconds).abs()
            / classes[0].p95_response_seconds;
        assert!(
            rel > 0.02,
            "per-class p95s should be distinct: {} vs {}",
            classes[0].p95_response_seconds,
            classes[1].p95_response_seconds
        );
        assert!(classes[0].qos_ok, "interactive must meet its own budget: {classes:?}");
        assert!(report.qos_ok(), "{classes:?}");
    }

    /// The tuned 64-server deployment holds the *nominal* budget
    /// (slack 1.0) — the preserved throughput recipe needed 3.0.
    #[test]
    fn fleet64_tuned_declares_the_nominal_budget() {
        let s = fleet64_tuned();
        assert_eq!(s.total_servers(), 64);
        assert_eq!(s.qos_slack, 1.0);
        assert!(s.eval_jobs > fleet64().eval_jobs);
        assert!(s.fleet[0].over_provisioning > 0.0);
        // The preserved recipe is untouched.
        assert_eq!(fleet64().qos_slack, 3.0);
        assert_eq!(fleet64().fleet[0].over_provisioning, 0.0);
    }

    /// The autoscale family's acceptance shape: the autoscaled day
    /// parks real server-time through the overnight trough (its quick
    /// form *is* the trough) while every class meets its budget; the
    /// fixed control arm shares the fleet shape but never parks.
    #[test]
    fn autoscale_day_quick_parks_and_meets_budgets() {
        let report = ScenarioRunner::new(autoscale_day().quick()).unwrap().run().unwrap();
        assert!(report.parked_server_seconds() > 0.0, "the overnight trough should park");
        assert!(!report.fleet_size_trace().is_empty());
        assert!(report.qos_ok(), "{:?}", report.classes());
        let fixed = ScenarioRunner::new(autoscale_day_fixed().quick()).unwrap().run().unwrap();
        assert_eq!(fixed.parked_server_seconds(), 0.0);
        assert!(fixed.fleet_size_trace().is_empty());
        assert_eq!(fixed.groups().len(), report.groups().len());
    }

    #[test]
    fn ab_scenario_shows_sleepscale_beating_race_to_halt() {
        // The quick form keeps one server per arm; the power ordering
        // (Section 6.1) must already show at this size.
        let report = ScenarioRunner::new(race_vs_sleepscale().quick()).unwrap().run().unwrap();
        let groups = report.groups();
        assert_eq!(groups.len(), 2);
        assert!(
            groups[0].avg_power_watts < groups[1].avg_power_watts,
            "SleepScale {} W should undercut race-to-halt {} W",
            groups[0].avg_power_watts,
            groups[1].avg_power_watts
        );
        assert!(report.qos_ok(), "{groups:?}");
    }
}
