//! Scenario-API equivalence suite: the declarative `ScenarioRunner`
//! must be a *pure re-wiring* of the hand-written experiment setup —
//! byte-identical reports, not merely statistically similar ones. If
//! these tests fail, the unified entry point silently changed what an
//! experiment means.

use rand::SeedableRng;
use sleepscale_repro::prelude::*;

/// The DNS-day recipe, shortened to a two-hour window for test budget:
/// the scenario form and the direct `runtime::run` wiring must produce
/// byte-identical `RunReport`s.
#[test]
fn scenario_runner_reproduces_direct_runtime_wiring() {
    let scenario = Scenario {
        eval_jobs: 400,
        dist_samples: 5_000,
        seed: 7,
        ..Scenario::new(
            "dns-day-equivalence",
            WorkloadSource::Dns,
            LoadSchedule::EmailStoreDay { seed: 7, start_minute: 120, end_minute: 240 },
        )
    };
    let via_scenario = ScenarioRunner::new(scenario).unwrap().run().unwrap();

    // The hand-written wiring, exactly as the pre-scenario examples
    // spelled it: one rng seeds distribution synthesis then replay.
    let spec = WorkloadSpec::dns();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let dists = WorkloadDistributions::empirical(&spec, 5_000, &mut rng).unwrap();
    let trace = traces::email_store(1, 7).window(120, 240);
    let jobs = replay_trace(&trace, &dists, &ReplayConfig::default(), &mut rng).unwrap();
    let config = RuntimeConfig::builder(spec.service_mean())
        .qos(QosConstraint::mean_response(0.8).unwrap())
        .epoch_minutes(5)
        .eval_jobs(400)
        .build()
        .unwrap();
    let mut strategy = SleepScaleStrategy::new(&config, CandidateSet::standard());
    let direct = run(&trace, &jobs, &mut strategy, config.env(), &config).unwrap();

    assert_eq!(
        via_scenario.run_report(),
        Some(&direct),
        "the scenario runner must reproduce the direct wiring byte for byte"
    );
    assert_eq!(via_scenario.total_jobs(), direct.total_jobs());
    assert_eq!(via_scenario.backend(), Backend::SingleServer);
}

/// The fleet path: a homogeneous cluster scenario and the direct
/// `Cluster::run` wiring over the same materialized inputs must
/// produce byte-identical `ClusterReport`s.
#[test]
fn scenario_runner_reproduces_direct_cluster_wiring() {
    use cluster::{Cluster, JoinShortestBacklog};

    let n = 4;
    let mut scenario = Scenario {
        eval_jobs: 250,
        dist_samples: 4_000,
        seed: 90,
        dispatcher: DispatcherSpec::JoinShortestBacklog,
        ..Scenario::new(
            "fleet-equivalence",
            WorkloadSource::Dns,
            LoadSchedule::EmailStoreDay { seed: 7, start_minute: 540, end_minute: 600 },
        )
    };
    scenario.fleet = vec![ServerGroup::new("fleet", n, StrategySpec::sleepscale())];
    let runner = ScenarioRunner::new(scenario).unwrap();
    let via_scenario = runner.run().unwrap();

    // Direct wiring consuming identical inputs.
    let spec = WorkloadSpec::dns();
    let mut rng = rand::rngs::StdRng::seed_from_u64(90);
    let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).unwrap();
    let trace = traces::email_store(1, 7).window(540, 600);
    let jobs = replay_trace(&trace, &dists, &ReplayConfig::for_fleet(n), &mut rng).unwrap();
    let runtime = RuntimeConfig::builder(spec.service_mean())
        .qos(QosConstraint::mean_response(0.8).unwrap())
        .epoch_minutes(5)
        .eval_jobs(250)
        .build()
        .unwrap();
    let config = ClusterConfig::homogeneous(n, runtime).unwrap();
    let mut fleet = Cluster::new(config);
    let direct = fleet.run(&trace, &jobs, &mut JoinShortestBacklog::new()).unwrap();

    assert_eq!(
        via_scenario.cluster_report(),
        Some(&direct),
        "the scenario runner must reproduce the direct fleet wiring byte for byte"
    );
    assert_eq!(via_scenario.backend(), Backend::Cluster);
    assert_eq!(via_scenario.total_jobs(), jobs.len());
}

/// `run_with_inputs` on materialized inputs equals `run()` — the
/// comparison-harness path is not a second semantics.
#[test]
fn materialized_inputs_round_trip() {
    let mut scenario = Scenario {
        eval_jobs: 200,
        dist_samples: 4_000,
        seed: 91,
        ..Scenario::new(
            "inputs-roundtrip",
            WorkloadSource::Dns,
            LoadSchedule::Constant { rho: 0.25, minutes: 30 },
        )
    };
    scenario.fleet = vec![ServerGroup::new("fleet", 2, StrategySpec::sleepscale())];
    let runner = ScenarioRunner::new(scenario).unwrap();
    let (spec, trace, jobs) = runner.inputs().unwrap();
    let one = runner.run().unwrap();
    let two = runner.run_with_inputs(&spec, &trace, &jobs).unwrap();
    assert_eq!(one.cluster_report(), two.cluster_report());
    assert_eq!(one.groups(), two.groups());
}

/// Every catalog scenario's materialized job stream, in `quick()` form,
/// pinned by job count and digest: FNV-1a 64 over each job's `id`,
/// `arrival.to_bits()` and `size.to_bits()`, little-endian,
/// concatenated. The parity tests compare one replay path with
/// another; this pins the bytes themselves, so a change in RNG order,
/// float-op order or class interleave fails here.
#[test]
fn catalog_inputs_are_pinned() {
    let pins: [(&str, usize, u64); 15] = [
        ("dns-day-single", 2634, 0x786a66d9e8ace359),
        ("dns-day-analytic", 2634, 0x786a66d9e8ace359),
        ("fleet-64-homogeneous", 187900, 0xadae2aceb71e7be4),
        ("fleet-64-tuned", 187900, 0xadae2aceb71e7be4),
        ("mixed-xeon-generations", 27715, 0xbcc98b0aba9f7461),
        ("per-group-qos-split", 16919, 0xd97846c2a2f17935),
        ("race-vs-sleepscale-ab", 13768, 0xda6e759681750a8a),
        ("dns-mail-mix-packed", 9894, 0x10c4d8c7f5b8fc28),
        ("dns-mail-tagged-mix", 19952, 0xa0b19bdd16116904),
        ("flash-crowd-day", 22972, 0xcda15ba7c24d4eab),
        ("resume-single", 2299, 0xbe2033e5f8e646ce),
        ("resume-fleet-sharded", 4595, 0x2fc60715ad0f8e88),
        ("resume-tagged", 2756, 0x7fec0354f15814c5),
        ("autoscale-day", 9842, 0xd9ad16ad5b3a1024),
        ("autoscale-day-fixed", 9842, 0xd9ad16ad5b3a1024),
    ];
    let scenarios = catalog::catalog();
    let names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
    let pinned: Vec<&str> = pins.iter().map(|(name, ..)| *name).collect();
    assert_eq!(names, pinned, "pin every catalog scenario, in catalog order");
    for (scenario, &(name, count, digest)) in scenarios.into_iter().zip(&pins) {
        let (_, _, jobs) = ScenarioRunner::new(scenario.quick()).unwrap().inputs().unwrap();
        let mut bytes = Vec::with_capacity(jobs.len() * 24);
        for job in jobs.jobs() {
            bytes.extend_from_slice(&job.id.to_le_bytes());
            bytes.extend_from_slice(&job.arrival.to_bits().to_le_bytes());
            bytes.extend_from_slice(&job.size.to_bits().to_le_bytes());
        }
        assert_eq!(jobs.len(), count, "{name}: job count");
        assert_eq!(sleepscale_journal::fnv1a64(&bytes), digest, "{name}: stream digest");
    }
}
