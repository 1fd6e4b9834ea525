//! A naive reference fleet, and the oracle checks of both of the cluster
//! engine's dispatch loops against it.
//!
//! [`run_reference_fleet`] runs a fleet the slow, obvious way. Every slot's
//! strategy begins its epoch in slot order. Every arrival is routed by a
//! linear scan over the servers' free times, or by a positional
//! dispatcher's own counter, seeded draw or hash. It is served through a
//! one-job [`OnlineSim::run_epoch`], and every response is kept. Each
//! epoch closes with the engine's feedback rule: a server observes its
//! dispatched work plus its backlog overhang. An autoscaled reference
//! fleet then parks and wakes servers at the boundary as the control
//! law plans, and routes only over the servers left active. There is no
//! dispatch index, no quantile sketch, no owner election, no shard and
//! no segment.
//!
//! The routing laws are the ones `dispatch_index_matches_linear_scan`
//! and `class_affinity_matches_linear_scan` in `tests/properties.rs` pin
//! for single routing decisions. Here they drive whole runs, so the
//! engine's index upkeep, its parallel epoch phases, its owner election
//! and cache ordering, its sharded walk and its statistics merges are
//! all checked against one plain serial loop.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sleepscale::{
    CacheStats, CandidateSpec, CharacterizationCache, PredictorSpec, QosConstraint, SearchMode,
    Strategy, StrategySpec,
};
use sleepscale_autoscale::{AutoscaleController, AutoscalerSpec, GroupLoad};
use sleepscale_cluster::{Cluster, ClusterConfig, ClusterReport, ServerGroup};
use sleepscale_power::{
    presets, Frequency, FrequencyScaling, Policy, SleepProgram, SleepStage, SystemState,
};
use sleepscale_scenario::{catalog, DispatcherSpec, ScenarioRunner};
use sleepscale_sim::{pack_id, ClassId, Job, JobRecord, JobStream, OnlineSim, SimEnv, StreamSplit};
use sleepscale_workloads::{
    replay_trace, traces, ReplayConfig, UtilizationTrace, WorkloadDistributions, WorkloadSpec,
};

/// How the reference routes: the linear-scan law of each dispatcher.
enum Law {
    RoundRobin { next: usize },
    Random(StdRng),
    ShortestBacklog,
    PackFirstFit { threshold: f64 },
    Split(StreamSplit),
    ClassAffinity { class_groups: Vec<usize>, threshold: f64 },
}

impl Law {
    fn new(spec: &DispatcherSpec) -> Law {
        match spec {
            DispatcherSpec::RoundRobin => Law::RoundRobin { next: 0 },
            DispatcherSpec::RandomUniform { seed } => Law::Random(StdRng::seed_from_u64(*seed)),
            DispatcherSpec::JoinShortestBacklog => Law::ShortestBacklog,
            DispatcherSpec::PackFirstFit { backlog_seconds } => {
                Law::PackFirstFit { threshold: backlog_seconds.max(0.0) }
            }
            DispatcherSpec::SplitUniform { seed } => Law::Split(StreamSplit::new(*seed)),
            DispatcherSpec::ClassAffinity { class_groups, spill_threshold_seconds } => {
                Law::ClassAffinity {
                    class_groups: class_groups.clone(),
                    threshold: spill_threshold_seconds.max(0.0),
                }
            }
        }
    }

    /// The server `job` goes to, given every server's free time and the
    /// active servers as one `(first slot, active count)` per group.
    fn route(&mut self, job: &Job, free: &[f64], active: &[(usize, usize)]) -> usize {
        let now = job.arrival;
        let slots: Vec<usize> = active.iter().flat_map(|&(start, m)| start..start + m).collect();
        match self {
            Law::RoundRobin { next } => {
                let i = slots[*next % slots.len()];
                *next += 1;
                i
            }
            Law::Random(rng) => slots[rng.gen_range(0..slots.len())],
            Law::ShortestBacklog => shortest_backlog(free, &slots, now),
            Law::PackFirstFit { threshold } => slots
                .iter()
                .copied()
                .find(|&i| (free[i] - now).max(0.0) < *threshold)
                .unwrap_or_else(|| shortest_backlog(free, &slots, now)),
            Law::Split(split) => slots[split.lane_of(job, slots.len())],
            Law::ClassAffinity { class_groups, threshold } => {
                let class = job.class().as_index().min(class_groups.len() - 1);
                let (start, m) = active[class_groups[class]];
                let bound = now + *threshold;
                (start..start + m)
                    .find(|&i| free[i] < bound)
                    .or_else(|| slots.iter().copied().find(|&i| free[i] < bound))
                    .unwrap_or_else(|| shortest_backlog(free, &slots, now))
            }
        }
    }
}

/// The first of `servers` with the least backlog at `now`.
fn shortest_backlog(free: &[f64], servers: &[usize], now: f64) -> usize {
    servers
        .iter()
        .map(|&i| (i, (free[i] - now).max(0.0)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("backlogs are finite"))
        .map(|(i, _)| i)
        .expect("the fleet is not empty")
}

/// One reference server.
struct Slot {
    group: usize,
    sim: OnlineSim,
    strategy: Box<dyn Strategy + Send>,
    policy: Option<Policy>,
    /// This epoch's records, in service order.
    records: Vec<JobRecord>,
    /// Every response and its job's class, in service order.
    responses: Vec<(f64, usize)>,
}

/// One reference server's totals at the end of a run.
struct ServerTotals {
    jobs: usize,
    mean_response: f64,
    energy_joules: f64,
    active_energy_joules: f64,
}

/// What a reference run produced: per-server totals, every response
/// with its class, the fleet's per-class active energy, the summed
/// counters of the group caches and the autoscaler's record.
struct ReferenceRun {
    servers: Vec<ServerTotals>,
    responses: Vec<(f64, usize)>,
    class_active_energy: Vec<f64>,
    horizon: f64,
    cache: CacheStats,
    parked_server_seconds: f64,
    fleet_size_trace: Vec<usize>,
}

/// Runs the naive serial fleet (see the module docs).
fn run_reference_fleet(
    config: &ClusterConfig,
    dispatcher: &DispatcherSpec,
    autoscaler: Option<&AutoscalerSpec>,
    trace: &UtilizationTrace,
    jobs: &JobStream,
) -> ReferenceRun {
    let epoch_minutes = config.epoch_minutes();
    let epoch_seconds = epoch_minutes as f64 * 60.0;
    // One shared cache per group, sized as the engine sizes it;
    // only cached SleepScale specs join it.
    let caches: Vec<CharacterizationCache> = config
        .groups()
        .iter()
        .map(|g| CharacterizationCache::new(Cluster::cache_capacity(g.count)))
        .collect();
    let mut slots = Vec::new();
    for (g, group) in config.groups().iter().enumerate() {
        let runtime = config.runtime_for(g);
        for _ in 0..group.count {
            let strategy: Box<dyn Strategy + Send> = match group.strategy.build_managed(runtime) {
                Some(managed) if group.strategy.is_cached() => {
                    Box::new(managed.with_shared_cache(caches[g].clone()))
                }
                _ => group.strategy.build(runtime),
            };
            slots.push(Slot {
                group: g,
                sim: OnlineSim::new(runtime.env().clone(), epoch_seconds),
                strategy,
                policy: None,
                records: Vec::new(),
                responses: Vec::new(),
            });
        }
    }
    let mut law = Law::new(dispatcher);
    let sizes: Vec<usize> = config.groups().iter().map(|g| g.count).collect();
    // Per group, `(first slot, active count)`: all active at first.
    let mut active: Vec<(usize, usize)> = sizes
        .iter()
        .scan(0, |next, &count| {
            *next += count;
            Some((*next - count, count))
        })
        .collect();
    let mut control = autoscaler.map(|spec| {
        // QoS guards read p95s, which only the engine's sketches
        // have; the reference fleet runs guard-free specs.
        assert!(spec.class_p95_guards_seconds.is_empty(), "no p95 guards here");
        let program = spec.parked_program(epoch_seconds).expect("a runnable autoscaler");
        (AutoscaleController::new(spec.clone(), sizes.clone()), program)
    });

    let total_minutes = trace.len();
    let n_epochs = total_minutes.div_ceil(epoch_minutes);
    let mut arrivals = jobs.jobs().iter().peekable();
    for k in 0..n_epochs {
        let epoch_end = (k + 1) as f64 * epoch_seconds;
        for slot in &mut slots {
            slot.policy = Some(slot.strategy.begin_epoch(k).expect("the epoch begins"));
            slot.records.clear();
        }
        while let Some(job) = arrivals.next_if(|job| job.arrival < epoch_end) {
            let free: Vec<f64> = slots.iter().map(|s| s.sim.state().free_time()).collect();
            let slot = &mut slots[law.route(job, &free, &active)];
            let policy = slot.policy.as_ref().expect("the epoch began");
            let outcome = slot.sim.run_epoch(std::slice::from_ref(job), policy, epoch_end);
            let record = outcome.records()[0];
            slot.responses.push((record.response(), job.class().as_index()));
            slot.records.push(record);
        }
        let minutes = epoch_minutes.min(total_minutes - k * epoch_minutes);
        let mut loads = vec![GroupLoad::default(); sizes.len()];
        for slot in &mut slots {
            slot.strategy.end_epoch(&slot.records);
            let work = slot.records.iter().fold(0.0, |sum, r| sum + r.size);
            let overhang = (slot.sim.state().free_time() - epoch_end).max(0.0);
            let rho = (work / epoch_seconds + overhang / epoch_seconds).clamp(0.0, 0.97);
            for _ in 0..minutes {
                slot.strategy.observe_minute(rho);
            }
            loads[slot.group].busy_seconds += work;
            loads[slot.group].backlog_seconds += overhang;
        }
        let Some((controller, program)) = control.as_mut() else {
            continue;
        };
        let before = controller.active().to_vec();
        controller.plan_epoch(&loads, epoch_seconds, false);
        if k + 1 == n_epochs {
            continue;
        }
        // Park from each group's tail while the server is drained;
        // wake the lowest parked servers.
        for (g, (start, m)) in active.iter_mut().enumerate() {
            let target = controller.active()[g];
            let mut count = before[g];
            while count > target && slots[*start + count - 1].sim.state().free_time() <= epoch_end {
                let slot = &mut slots[*start + count - 1];
                let freq = slot.policy.as_ref().expect("the epoch began").frequency();
                slot.sim.park(epoch_end, program.clone(), freq);
                count -= 1;
            }
            if count > target {
                controller.settle_active(g, count);
            }
            let power = config.runtime_for(g).env().power();
            for slot in &mut slots[*start + count..*start + target.max(count)] {
                let policy = slot.policy.as_ref().expect("the epoch began");
                let next_idle = (policy.program().clone(), policy.frequency());
                slot.sim.wake(epoch_end, power.active_power(policy.frequency()), next_idle);
            }
            *m = controller.active()[g];
        }
    }

    let trace_end = total_minutes as f64 * 60.0;
    let horizon = slots.iter().map(|s| s.sim.state().free_time()).fold(trace_end, f64::max);
    let mut run = ReferenceRun {
        servers: Vec::new(),
        responses: Vec::new(),
        class_active_energy: Vec::new(),
        horizon,
        cache: CacheStats::default(),
        parked_server_seconds: control.as_ref().map_or(0.0, |(c, _)| c.parked_server_seconds()),
        fleet_size_trace: control.map_or(Vec::new(), |(c, _)| c.fleet_size_trace().to_vec()),
    };
    for slot in slots {
        let jobs = slot.responses.len();
        let sum = slot.responses.iter().fold(0.0, |sum, &(r, _)| sum + r);
        let (ledger, ..) = slot.sim.finish(horizon);
        for (c, &joules) in ledger.active_energy_by_class().iter().enumerate() {
            if c == run.class_active_energy.len() {
                run.class_active_energy.push(0.0);
            }
            run.class_active_energy[c] += joules;
        }
        run.servers.push(ServerTotals {
            jobs,
            mean_response: if jobs == 0 { 0.0 } else { sum / jobs as f64 },
            energy_joules: ledger.total_energy().as_joules(),
            active_energy_joules: ledger.active_energy().as_joules(),
        });
        run.responses.extend(slot.responses);
    }
    for cache in &caches {
        run.cache.hits += cache.stats().hits;
        run.cache.misses += cache.stats().misses;
    }
    run
}

/// The `ceil(0.95 n)`-th smallest of `samples`: the order statistic a
/// sketched p95 approximates.
fn exact_p95(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let rank = ((0.95 * samples.len() as f64).ceil() as usize).max(1);
    samples[rank - 1]
}

fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Checks an engine report and its cache counters against a reference
/// run: per-server jobs, means and energies, the per-class active
/// energy, the horizon and the parked server-seconds bit for bit; job
/// counts, cache counters and the fleet-size trace exactly; means to
/// 1e-12 relative and p95s to the sketch's 1.1%.
fn check(
    label: &str,
    report: &ClusterReport,
    cache: CacheStats,
    tagged: bool,
    reference: &ReferenceRun,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(report.servers().len(), reference.servers.len(), "{}: fleet size", label);
    for (i, (engine, naive)) in report.servers().iter().zip(&reference.servers).enumerate() {
        prop_assert_eq!(engine.jobs, naive.jobs, "{}: server {} jobs", label, i);
        for (what, a, b) in [
            ("mean response", engine.mean_response, naive.mean_response),
            ("energy", engine.energy_joules, naive.energy_joules),
            ("active energy", engine.active_energy_joules, naive.active_energy_joules),
        ] {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: server {} {}: {} vs {}",
                label,
                i,
                what,
                a,
                b
            );
        }
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(
        bits(report.class_active_energy()),
        bits(&reference.class_active_energy),
        "{}: class active energy {:?} vs {:?}",
        label,
        report.class_active_energy(),
        &reference.class_active_energy
    );
    prop_assert_eq!(
        report.horizon_seconds().to_bits(),
        reference.horizon.to_bits(),
        "{}: horizon",
        label
    );
    prop_assert_eq!((cache.hits, cache.misses), (reference.cache.hits, reference.cache.misses));
    prop_assert_eq!(
        report.parked_server_seconds().to_bits(),
        reference.parked_server_seconds.to_bits(),
        "{}: parked server-seconds",
        label
    );
    prop_assert_eq!(report.fleet_size_trace(), &reference.fleet_size_trace[..], "{}", label);

    // Fleet-wide (no class), then per class.
    let mut slices = vec![(None, report.responses())];
    if tagged {
        let n_classes = reference.responses.iter().map(|&(_, c)| c + 1).max().unwrap_or(0);
        prop_assert_eq!(report.class_responses().len(), n_classes, "{}: class slices", label);
        slices.extend(report.class_responses().iter().enumerate().map(|(c, s)| (Some(c), s)));
    } else {
        prop_assert!(report.class_responses().is_empty(), "{}: untagged slices", label);
    }
    for (class, summary) in slices {
        let what = class.map_or("fleet".to_string(), |c| format!("class {c}"));
        let mut samples: Vec<f64> = reference
            .responses
            .iter()
            .filter(|&&(_, c)| class.is_none_or(|k| k == c))
            .map(|&(r, _)| r)
            .collect();
        prop_assert_eq!(summary.count(), samples.len() as u64, "{}: {} count", label, what);
        if samples.is_empty() {
            continue;
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let gap = relative_gap(summary.mean(), mean);
        prop_assert!(
            gap <= 1e-12,
            "{}: {} mean {} vs {} ({:e})",
            label,
            what,
            summary.mean(),
            mean,
            gap
        );
        let p95 = exact_p95(&mut samples);
        let gap = relative_gap(summary.p95(), p95);
        prop_assert!(
            gap <= 0.011,
            "{}: {} p95 {} vs {} ({:e})",
            label,
            what,
            summary.p95(),
            p95,
            gap
        );
    }
    Ok(())
}

/// A random small fleet's group: one to four servers on a Xeon or an
/// Atom, running SleepScale (cached or not), race-to-halt or a fixed
/// two-stage program.
fn random_group(rng: &mut StdRng, g: usize) -> ServerGroup {
    let state =
        SystemState::LOW_POWER_LADDER[rng.gen_range(0..SystemState::LOW_POWER_LADDER.len())];
    let strategy = match rng.gen_range(0..4) {
        0 => StrategySpec::sleepscale(),
        1 => StrategySpec::SleepScale {
            candidates: CandidateSpec::Standard,
            search: SearchMode::CoarseToFine,
            predictor: PredictorSpec::default(),
            cached: false,
        },
        2 => StrategySpec::RaceToHalt { state },
        _ => {
            // Active idle until τ_1, then C1, then the drawn state.
            let stage = |state: SystemState, tau: f64| {
                let wake = presets::immediate_stage(state).wake_latency();
                SleepStage::new(state, tau, wake).unwrap()
            };
            let tau = rng.gen_range(0.0..0.5);
            let ladder =
                vec![stage(SystemState::C1_S0I, tau), stage(state, tau + rng.gen_range(0.1..2.0))];
            let f = Frequency::new(rng.gen_range(0.5..1.0)).unwrap();
            StrategySpec::FixedPolicy { policy: Policy::new(f, SleepProgram::new(ladder).unwrap()) }
        }
    };
    let env = if rng.gen_bool(0.5) {
        SimEnv::xeon_cpu_bound()
    } else {
        SimEnv::new(presets::atom(), FrequencyScaling::CpuBound)
    };
    ServerGroup {
        env,
        qos: QosConstraint::mean_response(0.8).unwrap(),
        ..ServerGroup::new(format!("g{g}"), rng.gen_range(1..5), strategy)
    }
}

/// Every dispatcher spec, over a fleet of `n_groups` groups.
fn every_dispatcher(rng: &mut StdRng, n_groups: usize) -> Vec<DispatcherSpec> {
    vec![
        DispatcherSpec::RoundRobin,
        DispatcherSpec::RandomUniform { seed: rng.gen() },
        DispatcherSpec::JoinShortestBacklog,
        DispatcherSpec::PackFirstFit { backlog_seconds: rng.gen_range(0.0..2.0) },
        DispatcherSpec::SplitUniform { seed: rng.gen() },
        DispatcherSpec::ClassAffinity {
            class_groups: (0..rng.gen_range(1..4)).map(|_| rng.gen_range(0..n_groups)).collect(),
            spill_threshold_seconds: rng.gen_range(0.05..2.0),
        },
    ]
}

/// Replays a stream over `trace` for `groups` (tagged with random
/// classes when asked), then checks every dispatcher's central run
/// against the reference fleet, and the sharded run at 1, 2 and 3
/// shards for seeded-hash routing.
fn check_every_dispatcher(
    rng: &mut StdRng,
    groups: Vec<ServerGroup>,
    epoch_minutes: usize,
    trace: &UtilizationTrace,
    tagged: bool,
    autoscaler: Option<&AutoscalerSpec>,
) -> Result<(), TestCaseError> {
    let spec = WorkloadSpec::dns();
    let base = sleepscale::RuntimeConfig::builder(spec.service_mean())
        .qos(QosConstraint::mean_response(0.8).unwrap())
        .epoch_minutes(epoch_minutes)
        .eval_jobs(100)
        .build()
        .unwrap();
    let config = ClusterConfig::new(&base, groups.clone()).unwrap();
    let dists = WorkloadDistributions::empirical(&spec, 2_000, rng).unwrap();
    let replay = ReplayConfig::for_fleet(config.n_servers());
    let mut jobs = replay_trace(trace, &dists, &replay, rng).unwrap();
    if tagged {
        let retagged: Vec<Job> = jobs
            .jobs()
            .iter()
            .map(|j| Job { id: pack_id(j.id, ClassId(rng.gen_range(0..3))), ..*j })
            .collect();
        jobs = JobStream::new(retagged).unwrap();
    }
    let tagged = jobs.is_tagged();
    let cluster = || {
        let cluster = Cluster::new(config.clone());
        match autoscaler {
            Some(spec) => cluster.with_autoscaler(spec.clone()),
            None => cluster,
        }
    };

    for dispatcher in every_dispatcher(rng, groups.len()) {
        let reference = run_reference_fleet(&config, &dispatcher, autoscaler, trace, &jobs);
        prop_assert_eq!(reference.responses.len(), jobs.len(), "every job is served");
        let label = format!("{dispatcher:?}");
        let mut central = cluster();
        let report = central.run(trace, &jobs, dispatcher.build(&groups).as_mut()).unwrap();
        check(&label, &report, central.characterization_stats(), tagged, &reference)?;
        if let Some(seed) = dispatcher.split_seed() {
            for shards in 1..4 {
                let mut sharded = cluster();
                let report =
                    sharded.run_sharded(trace, &jobs, StreamSplit::new(seed), shards).unwrap();
                let label = format!("{label} at {shards} shards");
                check(&label, &report, sharded.characterization_stats(), tagged, &reference)?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On small random fleets (one to three groups of SleepScale,
    /// race-to-halt and fixed-program servers, on tagged and untagged
    /// streams), every dispatcher's central run agrees with the
    /// reference fleet, and so does the sharded run at 1, 2 and 3
    /// shards for seeded-hash routing.
    #[test]
    fn engine_matches_the_reference_fleet(
        n_groups in 1_usize..4,
        minutes in 8_usize..21,
        epoch_minutes in 2_usize..6,
        rho in 0.1_f64..0.6,
        tagged in 0_usize..2,
        seed in 0_u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let groups = (0..n_groups).map(|g| random_group(&mut rng, g)).collect();
        let trace = if rng.gen_bool(0.5) {
            UtilizationTrace::constant(rho, minutes).unwrap()
        } else {
            traces::email_store(1, seed).window(600, 600 + minutes)
        };
        check_every_dispatcher(&mut rng, groups, epoch_minutes, &trace, tagged == 1, None)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Autoscaled fleets through a lull and then a surge, so that the
    /// control law parks and then wakes servers: every dispatcher's
    /// central run and the sharded seeded-hash runs agree with the
    /// reference fleet, which routes only over the servers left active.
    #[test]
    fn autoscaled_engine_matches_the_reference_fleet(
        n_groups in 1_usize..4,
        minutes in 16_usize..31,
        epoch_minutes in 2_usize..5,
        tagged in 0_usize..2,
        seed in 0_u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let groups = (0..n_groups).map(|g| random_group(&mut rng, g)).collect();
        let (lull, surge) = (rng.gen_range(0.02..0.15), rng.gen_range(0.5..0.8));
        let values = (0..minutes).map(|m| if 2 * m < minutes { lull } else { surge }).collect();
        let trace = UtilizationTrace::new("lull, then surge", values).unwrap();
        let spec = AutoscalerSpec { park_step: rng.gen_range(1..3), ..AutoscalerSpec::new() };
        check_every_dispatcher(&mut rng, groups, epoch_minutes, &trace, tagged == 1, Some(&spec))?;
    }
}

/// The quick `fleet-64-homogeneous` day (16 SleepScale servers behind
/// join-shortest-backlog, 90 minutes) agrees with the reference fleet
/// when the scenario runner drives it.
#[test]
fn quick_fleet64_day_matches_the_reference_fleet() {
    let scenario = catalog::fleet64().quick();
    let runner = ScenarioRunner::new(scenario.clone()).unwrap();
    let (spec, trace, jobs) = runner.inputs().unwrap();
    let report = runner.run_with_inputs(&spec, &trace, &jobs).unwrap();
    let cluster = report.cluster_report().expect("a fleet runs the cluster backend");
    let base = runner.base_runtime(&spec).unwrap();
    let config = ClusterConfig::new(&base, scenario.fleet.clone()).unwrap();
    let reference = run_reference_fleet(&config, &scenario.dispatcher, None, &trace, &jobs);
    assert_eq!(reference.responses.len(), jobs.len());
    assert_eq!(report.cache_stats().evictions, 0, "the day fits the group cache");
    check("fleet-64 quick day", cluster, report.cache_stats(), false, &reference)
        .unwrap_or_else(|e| panic!("{e}"));
}
