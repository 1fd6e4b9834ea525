//! Determinism regression tests: with a fixed seed, every layer of the
//! characterization pipeline must produce byte-identical results across
//! repeated runs and across worker counts. This pins down the
//! refactored lock-free sweep (chunked ownership must not introduce
//! evaluation-order dependence) and the characterization cache (a hit
//! must reproduce exactly what recomputation would have produced for
//! the same quantized prediction and log signature).

use rand::SeedableRng;
use sleepscale_repro::prelude::*;
use sleepscale_repro::sleepscale_sim::{generator, sweep, JobStream};

fn seeded_stream(n: usize, rho: f64, seed: u64) -> JobStream {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    generator::generate_poisson_exp(n, rho, 0.194, &mut rng).unwrap()
}

/// The parallel sweep is invariant to worker count — the partition
/// fixes which candidate lands at which index, so 1, 2, 5, and 13
/// workers must return byte-identical evaluation vectors.
#[test]
fn sweep_is_thread_count_invariant() {
    let jobs = seeded_stream(3_000, 0.25, 7);
    let env = SimEnv::xeon_cpu_bound();
    let grid = sleepscale_repro::sleepscale_power::FrequencyGrid::new(0.3, 1.0, 0.05).unwrap();
    let policies: Vec<sleepscale_repro::sleepscale_power::Policy> = presets::standard_programs()
        .iter()
        .flat_map(|prog| {
            grid.iter()
                .map(move |f| sleepscale_repro::sleepscale_power::Policy::new(f, prog.clone()))
        })
        .collect();
    let reference = sweep::evaluate_policies_with_threads(&jobs, &policies, &env, 1);
    for threads in [2, 5, 13] {
        let run = sweep::evaluate_policies_with_threads(&jobs, &policies, &env, threads);
        assert_eq!(run, reference, "{threads} workers diverged from serial");
    }
}

/// Repeated manager selections from the same log and prediction are
/// identical in every mode — pruned, exhaustive, cached, and uncached —
/// and a cache hit reproduces the miss's policy exactly.
#[test]
fn selection_is_reproducible_across_modes_and_repeats() {
    let mk_log = || {
        let mut log = JobLog::new(8_192);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let ia = sleepscale_repro::sleepscale_dist::Exponential::from_mean(1.0).unwrap();
        let sv = sleepscale_repro::sleepscale_dist::Exponential::from_mean(0.194).unwrap();
        use sleepscale_repro::sleepscale_dist::Distribution;
        for _ in 0..2_000 {
            log.push(ia.sample(&mut rng), sv.sample(&mut rng));
        }
        log
    };
    let manager = || {
        PolicyManager::new(
            SimEnv::xeon_cpu_bound(),
            QosConstraint::mean_response(0.8).unwrap(),
            CandidateSet::standard(),
            0.194,
            1_000,
        )
        .unwrap()
    };
    for mode in [SearchMode::CoarseToFine, SearchMode::Exhaustive] {
        let log = mk_log();
        // Two independent managers (fresh caches) must agree.
        let mut a = manager().with_search_mode(mode);
        let mut b = manager().with_search_mode(mode);
        let first = a.select_from_log(&log, 0.3).unwrap();
        assert_eq!(b.select_from_log(&log, 0.3).unwrap(), first, "{mode:?}");
        // A cache hit repeats the selection with zero evaluations.
        let hit = a.select_from_log(&log, 0.3).unwrap();
        assert_eq!(hit.policy, first.policy, "{mode:?}");
        assert_eq!(hit.evaluated, 0, "{mode:?}");
        // Uncached managers recompute and still agree on the decision;
        // the repeat may reach it in fewer simulations because the
        // coarse-to-fine search warm-starts from the remembered
        // per-program bowl bottoms.
        let mut c = manager().with_search_mode(mode).without_cache();
        let uncached_1 = c.select_from_log(&log, 0.3).unwrap();
        let uncached_2 = c.select_from_log(&log, 0.3).unwrap();
        assert_eq!(uncached_1.policy, uncached_2.policy, "{mode:?}");
        assert_eq!(uncached_1.predicted_power, uncached_2.predicted_power, "{mode:?}");
        assert!(uncached_2.evaluated <= uncached_1.evaluated, "{mode:?}");
    }
}

/// The parallel cluster engine is a pure function of its inputs: the
/// owner-elected characterization phase and chunked epoch close-out
/// must make fleet runs byte-identical for every worker count.
#[test]
fn fleet_run_is_thread_count_invariant() {
    use sleepscale_repro::sleepscale_cluster::{Cluster, ClusterConfig, JoinShortestBacklog};

    let spec = WorkloadSpec::dns();
    let n_servers = 6;
    let mut rng = rand::rngs::StdRng::seed_from_u64(83);
    let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).unwrap();
    let trace = traces::email_store(1, 7).window(540, 540 + 60);
    let jobs = replay_trace(&trace, &dists, &ReplayConfig::for_fleet(n_servers), &mut rng).unwrap();
    let runtime = RuntimeConfig::builder(spec.service_mean())
        .qos(QosConstraint::mean_response(0.8).unwrap())
        .epoch_minutes(5)
        .eval_jobs(300)
        .build()
        .unwrap();
    let config = ClusterConfig::homogeneous(n_servers, runtime).unwrap();
    let run_pinned = |threads: usize| {
        let mut cluster = Cluster::new(config.clone()).with_threads(threads);
        let report = cluster.run(&trace, &jobs, &mut JoinShortestBacklog::new()).unwrap();
        (report, cluster.characterization_stats())
    };
    let (reference, reference_stats) = run_pinned(1);
    assert_eq!(reference.total_jobs(), jobs.len());
    // The invariance argument assumes the fleet cache never evicts
    // (owner election peeks at residency); this run must be inside
    // that regime or the test is vacuous.
    assert_eq!(reference_stats.evictions, 0);
    for threads in [2, 3, 8] {
        let (run, stats) = run_pinned(threads);
        assert_eq!(run, reference, "threads={threads} diverged from the serial fleet");
        assert_eq!(
            (stats.hits, stats.misses),
            (reference_stats.hits, reference_stats.misses),
            "threads={threads} changed the shared-cache traffic"
        );
    }
}

/// Fleet checkpoints are byte-reproducible, not just fleet reports:
/// characterization owners run in parallel and insert into their
/// group's shared cache in the order they finish, so the engine puts
/// each epoch's new keys back into owner-election order before any
/// snapshot is taken. Every epoch's payload — cache contents included —
/// must then be identical at 1, 2 and 5 workers.
#[test]
fn fleet_checkpoint_payloads_are_worker_count_invariant() {
    use sleepscale_repro::sleepscale_cluster::{Cluster, ClusterConfig, JoinShortestBacklog};

    let spec = WorkloadSpec::dns();
    let n_servers = 6;
    let mut rng = rand::rngs::StdRng::seed_from_u64(87);
    let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).unwrap();
    let trace = traces::email_store(1, 7).window(540, 540 + 60);
    let jobs = replay_trace(&trace, &dists, &ReplayConfig::for_fleet(n_servers), &mut rng).unwrap();
    let runtime = RuntimeConfig::builder(spec.service_mean())
        .qos(QosConstraint::mean_response(0.8).unwrap())
        .epoch_minutes(5)
        .eval_jobs(300)
        .build()
        .unwrap();
    let config = ClusterConfig::homogeneous(n_servers, runtime).unwrap();
    let payloads = |threads: usize| {
        let mut records: Vec<Vec<u8>> = Vec::new();
        let mut sink = |_epoch: usize, bytes: &[u8]| {
            records.push(bytes.to_vec());
            Ok(true)
        };
        let mut cluster = Cluster::new(config.clone()).with_threads(threads);
        let mut dispatcher = JoinShortestBacklog::new();
        cluster.run_checkpointed(&trace, &jobs, &mut dispatcher, None, Some(&mut sink)).unwrap();
        assert_eq!(cluster.characterization_stats().evictions, 0, "needs the no-eviction regime");
        records
    };
    let reference = payloads(1);
    assert_eq!(reference.len(), 12, "one payload per epoch");
    for threads in [2, 5] {
        let run = payloads(threads);
        assert_eq!(run.len(), reference.len());
        let diverged = run.iter().zip(&reference).position(|(a, b)| a != b);
        assert_eq!(diverged, None, "threads={threads}: checkpoint payload differs at that epoch");
    }
}

/// PR-4 satellite: a *heterogeneous* two-group fleet scenario (mixed
/// machine generations, per-group QoS) is just as thread-count
/// invariant as a homogeneous one — per-group caches keep owner
/// election deterministic within each group, whatever the worker
/// count.
#[test]
fn heterogeneous_fleet_scenario_is_thread_count_invariant() {
    let mut scenario = Scenario {
        eval_jobs: 250,
        dist_samples: 4_000,
        seed: 84,
        dispatcher: DispatcherSpec::JoinShortestBacklog,
        ..Scenario::new(
            "hetero-invariance",
            WorkloadSource::Dns,
            LoadSchedule::EmailStoreDay { seed: 7, start_minute: 540, end_minute: 600 },
        )
    };
    scenario.fleet = vec![
        ServerGroup {
            qos: QosConstraint::mean_response(0.7).unwrap(),
            ..ServerGroup::new("xeon-table2", 3, StrategySpec::sleepscale())
        },
        ServerGroup {
            env: SimEnv::new(presets::xeon_prose_variant(), FrequencyScaling::CpuBound),
            qos: QosConstraint::mean_response(0.9).unwrap(),
            ..ServerGroup::new("xeon-prose", 3, StrategySpec::sleepscale())
        },
    ];
    let run_pinned = |threads: usize| {
        let mut pinned = scenario.clone();
        pinned.threads = threads;
        ScenarioRunner::new(pinned).unwrap().run().unwrap()
    };
    let reference = run_pinned(1);
    assert_eq!(reference.total_jobs(), reference.groups().iter().map(|g| g.jobs).sum::<usize>());
    assert_eq!(reference.cache_stats().evictions, 0, "invariance needs the no-eviction regime");
    for threads in [2, 3, 8] {
        let run = run_pinned(threads);
        assert_eq!(
            run.cluster_report(),
            reference.cluster_report(),
            "threads={threads} diverged from the serial fleet"
        );
        assert_eq!(run.groups(), reference.groups(), "threads={threads} changed group slices");
    }
}

/// A class-tagged two-class fleet scenario is thread-count invariant:
/// the per-class response slices (and everything else in the report)
/// are byte-identical for every worker count — tagging adds reporting
/// axes, never schedule dependence.
#[test]
fn tagged_fleet_scenario_is_thread_count_invariant() {
    let mut scenario = Scenario {
        eval_jobs: 250,
        dist_samples: 4_000,
        seed: 85,
        dispatcher: DispatcherSpec::JoinShortestBacklog,
        ..Scenario::new(
            "tagged-invariance",
            WorkloadSource::Tagged(
                TrafficModel::new(vec![
                    TrafficClass::new("interactive", WorkloadSpec::dns(), 2.0)
                        .with_p95_budget(40.0),
                    TrafficClass::new("batch", WorkloadSpec::mail(), 1.0),
                ])
                .unwrap(),
            ),
            LoadSchedule::EmailStoreDay { seed: 7, start_minute: 540, end_minute: 620 },
        )
    };
    scenario.fleet = vec![ServerGroup::new("shared", 4, StrategySpec::sleepscale())];
    let run_pinned = |threads: usize| {
        let mut pinned = scenario.clone();
        pinned.threads = threads;
        ScenarioRunner::new(pinned).unwrap().run().unwrap()
    };
    let reference = run_pinned(1);
    assert_eq!(reference.classes().len(), 2);
    assert_eq!(
        reference.classes().iter().map(|c| c.jobs).sum::<usize>(),
        reference.total_jobs(),
        "class slices partition the fleet's jobs"
    );
    // PR-6: the exact energy attribution is part of the invariance
    // contract — both classes carry real active energy, and the active
    // + idle line items reproduce the fleet total.
    assert!(reference.classes().iter().all(|c| c.active_energy_joules > 0.0));
    assert!(reference.active_energy_joules() > 0.0);
    let line_items = reference.active_energy_joules() + reference.idle_energy_joules();
    assert!((line_items - reference.energy_joules()).abs() <= 1e-9 * reference.energy_joules());
    assert_eq!(reference.cache_stats().evictions, 0, "invariance needs the no-eviction regime");
    for threads in [2, 3, 8] {
        let run = run_pinned(threads);
        assert_eq!(
            run.cluster_report(),
            reference.cluster_report(),
            "threads={threads} diverged from the serial fleet (class slices included)"
        );
        assert_eq!(run.classes(), reference.classes(), "threads={threads} changed class slices");
        // Byte-equality of the class-tagged energy slices and the
        // fleet-level split, independent of worker count.
        assert_eq!(
            run.active_energy_joules().to_bits(),
            reference.active_energy_joules().to_bits(),
            "threads={threads} changed active-energy bytes"
        );
        let (a, b): (Vec<u64>, Vec<u64>) = (
            run.classes().iter().map(|c| c.active_energy_joules.to_bits()).collect(),
            reference.classes().iter().map(|c| c.active_energy_joules.to_bits()).collect(),
        );
        assert_eq!(a, b, "threads={threads} changed class-slice energy bytes");
    }
}

/// PR-7 tentpole: the sharded fleet engine is invariant across the
/// full shard-count × worker-count grid. Every (shards, threads) cell
/// must reproduce the central `SplitUniform` run byte-for-byte — the
/// split is a pure function of (seed, job sequence), shard membership
/// is a pure function of the split, and each shard's dispatch loop is
/// the serial engine over its own slice.
#[test]
fn sharded_fleet_is_shard_and_thread_count_invariant() {
    let scenario = Scenario {
        eval_jobs: 250,
        dist_samples: 4_000,
        seed: 86,
        dispatcher: DispatcherSpec::SplitUniform { seed: 21 },
        fleet: vec![ServerGroup::new("fleet", 6, StrategySpec::sleepscale())],
        ..Scenario::new(
            "shard-invariance",
            WorkloadSource::Dns,
            LoadSchedule::EmailStoreDay { seed: 7, start_minute: 540, end_minute: 600 },
        )
    };
    let run_pinned = |shards: usize, threads: usize| {
        let mut pinned = scenario.clone();
        pinned.shards = shards;
        pinned.threads = threads;
        ScenarioRunner::new(pinned).unwrap().run().unwrap()
    };
    // shards=1 routes through the central dispatcher loop — the
    // pre-sharding engine is the reference every grid cell must match.
    let reference = run_pinned(1, 1);
    assert_eq!(reference.total_jobs(), reference.groups().iter().map(|g| g.jobs).sum::<usize>());
    assert_eq!(reference.cache_stats().evictions, 0, "invariance needs the no-eviction regime");
    for shards in [2, 3, 5] {
        for threads in [1, 2, 5] {
            let run = run_pinned(shards, threads);
            assert_eq!(
                run.cluster_report(),
                reference.cluster_report(),
                "shards={shards} threads={threads} diverged from the central engine"
            );
            assert_eq!(
                run.energy_joules().to_bits(),
                reference.energy_joules().to_bits(),
                "shards={shards} threads={threads} changed energy bytes"
            );
        }
    }
}

/// Sharding a *class-tagged* stream preserves the per-class response
/// and energy slices byte-for-byte: tagged accumulators merge in slot
/// and shard order, so the reporting axes stay schedule-independent.
#[test]
fn sharded_tagged_fleet_matches_central_bytes() {
    let scenario = Scenario {
        eval_jobs: 250,
        dist_samples: 4_000,
        seed: 87,
        dispatcher: DispatcherSpec::SplitUniform { seed: 33 },
        fleet: vec![ServerGroup::new("shared", 4, StrategySpec::sleepscale())],
        ..Scenario::new(
            "shard-tagged-invariance",
            WorkloadSource::Tagged(
                TrafficModel::new(vec![
                    TrafficClass::new("interactive", WorkloadSpec::dns(), 2.0)
                        .with_p95_budget(40.0),
                    TrafficClass::new("batch", WorkloadSpec::mail(), 1.0),
                ])
                .unwrap(),
            ),
            LoadSchedule::EmailStoreDay { seed: 7, start_minute: 540, end_minute: 620 },
        )
    };
    let run_pinned = |shards: usize, threads: usize| {
        let mut pinned = scenario.clone();
        pinned.shards = shards;
        pinned.threads = threads;
        ScenarioRunner::new(pinned).unwrap().run().unwrap()
    };
    let reference = run_pinned(1, 1);
    assert_eq!(reference.classes().len(), 2);
    assert!(reference.classes().iter().all(|c| c.jobs > 0));
    for (shards, threads) in [(2, 1), (3, 2), (4, 5)] {
        let run = run_pinned(shards, threads);
        assert_eq!(
            run.cluster_report(),
            reference.cluster_report(),
            "shards={shards} threads={threads} diverged (class slices included)"
        );
        assert_eq!(run.classes(), reference.classes(), "shards={shards} changed class slices");
        let (a, b): (Vec<u64>, Vec<u64>) = (
            run.classes().iter().map(|c| c.active_energy_joules.to_bits()).collect(),
            reference.classes().iter().map(|c| c.active_energy_joules.to_bits()).collect(),
        );
        assert_eq!(a, b, "shards={shards} threads={threads} changed class energy bytes");
    }
}

/// PR-9 tentpole: an *autoscaled* class-affinity scenario is thread-count
/// invariant — the controller's park/wake decisions are pure functions
/// of epoch-boundary state, so the fleet-size trace, parked
/// server-seconds, and every report byte must match the serial run for
/// every worker count.
#[test]
fn autoscaled_scenario_is_thread_count_invariant() {
    let mut scenario = sleepscale_repro::sleepscale_scenario::catalog::autoscale_day().quick();
    scenario.seed = 88;
    let run_pinned = |threads: usize| {
        let mut pinned = scenario.clone();
        pinned.threads = threads;
        ScenarioRunner::new(pinned).unwrap().run().unwrap()
    };
    let reference = run_pinned(1);
    assert!(reference.parked_server_seconds() > 0.0, "invariance run never parked a server");
    assert!(!reference.fleet_size_trace().is_empty());
    for threads in [2, 3, 8] {
        let run = run_pinned(threads);
        assert_eq!(
            run.cluster_report(),
            reference.cluster_report(),
            "threads={threads} diverged from the serial autoscaled fleet"
        );
        assert_eq!(
            run.fleet_size_trace(),
            reference.fleet_size_trace(),
            "threads={threads} changed the fleet-size trace"
        );
        assert_eq!(
            run.parked_server_seconds().to_bits(),
            reference.parked_server_seconds().to_bits(),
            "threads={threads} changed parked-server-seconds bytes"
        );
    }
}

/// An autoscaled fleet behind the sharded `SplitUniform` engine is
/// invariant across the shard-count × worker-count grid: shards see the
/// same `ActiveSet` because the controller runs on merged
/// epoch-boundary state, before the next epoch's split.
#[test]
fn autoscaled_sharded_fleet_matches_central_bytes() {
    let mut scenario = sleepscale_repro::sleepscale_scenario::catalog::autoscale_day().quick();
    scenario.name = "autoscale-shard-invariance".into();
    scenario.dispatcher = DispatcherSpec::SplitUniform { seed: 17 };
    let run_pinned = |shards: usize, threads: usize| {
        let mut pinned = scenario.clone();
        pinned.shards = shards;
        pinned.threads = threads;
        ScenarioRunner::new(pinned).unwrap().run().unwrap()
    };
    let reference = run_pinned(1, 1);
    assert!(reference.parked_server_seconds() > 0.0, "invariance run never parked a server");
    for (shards, threads) in [(2, 1), (3, 2), (4, 5)] {
        let run = run_pinned(shards, threads);
        assert_eq!(
            run.cluster_report(),
            reference.cluster_report(),
            "shards={shards} threads={threads} diverged from the central autoscaled engine"
        );
        assert_eq!(
            run.fleet_size_trace(),
            reference.fleet_size_trace(),
            "shards={shards} threads={threads} changed the fleet-size trace"
        );
    }
}

/// PR-10 tentpole: the merged telemetry trace is invariant across the
/// worker-count × shard-count grid. Events are buffered per slot and
/// merged at the serial epoch boundary in slot (then shard) order, so
/// the JSONL rendering of the stream — and the metrics registry folded
/// from it — must be byte-identical for every grid cell.
#[test]
fn telemetry_trace_is_worker_and_shard_count_invariant() {
    let mut scenario = sleepscale_repro::sleepscale_scenario::catalog::autoscale_day().quick();
    scenario.name = "telemetry-grid-invariance".into();
    scenario.dispatcher = DispatcherSpec::SplitUniform { seed: 17 };
    scenario.telemetry = Some(TelemetrySpec::full());
    let run_pinned = |shards: usize, threads: usize| {
        let mut pinned = scenario.clone();
        pinned.shards = shards;
        pinned.threads = threads;
        ScenarioRunner::new(pinned).unwrap().run().unwrap()
    };
    let reference = run_pinned(1, 1);
    let reference_telemetry = reference.telemetry().expect("telemetry was armed");
    assert!(!reference_telemetry.events.is_empty(), "invariance run produced no events");
    assert!(!reference_telemetry.metrics.counters().is_empty());
    let reference_jsonl = reference_telemetry.to_jsonl();
    for (shards, threads) in [(1, 2), (1, 5), (2, 1), (3, 2), (4, 5)] {
        let run = run_pinned(shards, threads);
        let telemetry = run.telemetry().expect("telemetry was armed");
        assert_eq!(
            telemetry.to_jsonl(),
            reference_jsonl,
            "shards={shards} threads={threads} changed trace bytes"
        );
        assert_eq!(
            telemetry.metrics, reference_telemetry.metrics,
            "shards={shards} threads={threads} changed the metrics registry"
        );
    }
}

/// The full runtime loop is a pure function of (trace, jobs, config,
/// seed): repeated runs produce byte-identical `RunReport`s, including
/// every epoch's selection metadata.
#[test]
fn run_report_is_byte_identical_across_repeats() {
    let spec = WorkloadSpec::dns();
    let run_once = || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).unwrap();
        let trace = traces::email_store(1, 7).window(540, 540 + 90);
        let jobs = replay_trace(&trace, &dists, &ReplayConfig::default(), &mut rng).unwrap();
        let config = RuntimeConfig::builder(spec.service_mean())
            .qos(QosConstraint::mean_response(0.8).unwrap())
            .epoch_minutes(5)
            .eval_jobs(400)
            .build()
            .unwrap();
        let mut strategy = SleepScaleStrategy::new(&config, CandidateSet::standard());
        run(&trace, &jobs, &mut strategy, &SimEnv::xeon_cpu_bound(), &config).unwrap()
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second);
    // Sanity: the run actually exercised the cached pruned manager.
    assert!(first.epochs().iter().any(|e| e.evaluated > 0));
    assert!(first.epochs().iter().any(|e| e.evaluated == 0 && e.arrivals > 0));
}
