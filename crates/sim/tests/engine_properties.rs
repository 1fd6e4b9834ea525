//! Property tests for the simulation engine beyond the in-module unit
//! tests: conservation laws and ordering invariants under arbitrary
//! (seeded) workloads and sleep programs.

use proptest::prelude::*;
use rand::SeedableRng;
use sleepscale_power::{
    presets, Frequency, FrequencyScaling, Policy, SleepProgram, SleepStage, SystemState,
};
use sleepscale_sim::{
    generator, simulate, simulate_summary, simulate_summary_into, JobStream, OnlineSim, SimEnv,
    SimScratch,
};

fn arbitrary_program(taus: Vec<f64>) -> SleepProgram {
    let mut taus = taus;
    taus.sort_by(|a, b| a.partial_cmp(b).unwrap());
    taus.dedup_by(|a, b| (*a - *b).abs() < 1e-6);
    let states = SystemState::LOW_POWER_LADDER;
    let stages: Vec<SleepStage> = taus
        .iter()
        .enumerate()
        .take(5)
        .map(|(i, tau)| {
            SleepStage::new(states[i], *tau, presets::default_wake_latency(states[i]))
                .expect("valid stage")
        })
        .collect();
    SleepProgram::new(stages).expect("strictly increasing")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: residency partitions the horizon; energy equals the
    /// integral of a power function bounded by [deepest sleep, active];
    /// departures are FCFS-ordered; wake latencies match the program.
    #[test]
    fn conservation_and_ordering(
        rho in 0.05f64..0.7,
        f_margin in 0.05f64..0.5,
        taus in proptest::collection::vec(0.0f64..2.0, 1..5),
        seed in 0u64..100_000,
    ) {
        let mean_service = 0.194;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let jobs = generator::generate_poisson_exp(800, rho, mean_service, &mut rng).unwrap();
        let f = Frequency::new((rho + f_margin).min(1.0)).unwrap();
        let policy = Policy::new(f, arbitrary_program(taus));
        let env = SimEnv::xeon_cpu_bound();
        let out = simulate(&jobs, &policy, &env);

        // Residency partitions the horizon exactly.
        prop_assert!((out.residency().total() - out.horizon()).abs() < 1e-6);

        // Energy bounds from the power ladder.
        let active = env.power().active_power(f).as_watts();
        let floor = 28.1_f64.min(env.power().power(SystemState::C6_S3, f).as_watts());
        let e = out.energy().as_joules();
        prop_assert!(e <= active * out.horizon() + 1e-6);
        prop_assert!(e >= floor * out.horizon() - 1e-6);

        // Per-record invariants via the online engine (records exposed).
        let mut online = OnlineSim::new(env.clone(), 60.0);
        let epoch = online.run_epoch(jobs.jobs(), &policy, f64::INFINITY);
        let mut prev_departure = 0.0;
        for r in epoch.records() {
            prop_assert!(r.departure >= prev_departure - 1e-12, "FCFS order violated");
            prev_departure = r.departure;
            prop_assert!(r.start >= r.arrival);
            prop_assert!((r.service - r.size * (1.0 / f.get())).abs() < 1e-9);
            // Wake latency is one of the program's (or zero).
            let allowed = policy
                .program()
                .stages()
                .iter()
                .any(|s| (s.wake_latency() - r.wake).abs() < 1e-12)
                || r.wake == 0.0;
            prop_assert!(allowed, "unexpected wake latency {}", r.wake);
        }
    }

    /// Common-random-numbers monotonicity: on the *same* job stream,
    /// raising the frequency never increases any job's departure time.
    #[test]
    fn higher_frequency_departures_dominate(
        rho in 0.05f64..0.5,
        seed in 0u64..100_000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let jobs = generator::generate_poisson_exp(400, rho, 0.194, &mut rng).unwrap();
        let env = SimEnv::xeon_cpu_bound();
        let program = SleepProgram::immediate(presets::C6_S0I);
        let slow = Frequency::new((rho + 0.1).min(1.0)).unwrap();
        let fast = Frequency::new((rho + 0.4).min(1.0)).unwrap();
        let run = |f: Frequency| {
            let mut online = OnlineSim::new(env.clone(), 60.0);
            online
                .run_epoch(jobs.jobs(), &Policy::new(f, program.clone()), f64::INFINITY)
                .records()
                .iter()
                .map(|r| r.departure)
                .collect::<Vec<f64>>()
        };
        for (s, q) in run(slow).iter().zip(run(fast)) {
            prop_assert!(q <= s + 1e-9, "faster clock delayed a departure");
        }
    }

    /// The record-free fast path is *exactly* the record path: same
    /// response statistics, energy, residency, and wake accounting on
    /// arbitrary streams, policies, and multi-stage sleep programs —
    /// with and without scratch reuse.
    #[test]
    fn summary_fast_path_matches_simulate_exactly(
        rho in 0.05f64..0.7,
        f_margin in 0.05f64..0.5,
        taus in proptest::collection::vec(0.0f64..2.0, 1..5),
        seed in 0u64..100_000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let jobs = generator::generate_poisson_exp(700, rho, 0.194, &mut rng).unwrap();
        let f = Frequency::new((rho + f_margin).min(1.0)).unwrap();
        let policy = Policy::new(f, arbitrary_program(taus));
        let env = SimEnv::xeon_cpu_bound();

        let record_path = simulate(&jobs, &policy, &env);
        prop_assert_eq!(&simulate_summary(&jobs, &policy, &env), &record_path);

        // Scratch reuse across two different policies must not leak
        // state between evaluations.
        let mut scratch = SimScratch::new();
        let other = Policy::new(Frequency::MAX, SleepProgram::immediate(presets::C6_S3));
        let _warm = simulate_summary_into(&jobs, &other, &env, &mut scratch);
        prop_assert_eq!(&simulate_summary_into(&jobs, &policy, &env, &mut scratch), &record_path);
    }

    /// The batch paths keep their bits. `simulate_summary_into`, with
    /// one scratch reused across every call, equals `simulate`; and its
    /// energy total equals, bit for bit, that of a bucketed `OnlineSim`
    /// over the same jobs at bucket widths of 1, 60 and 3600 s. The
    /// bucketed runs are the independent reference, since both batch
    /// paths share the totals-only ledger. Streams mix arrival ties,
    /// quantized sizes (tied responses), a zero-size job and gaps
    /// spanning many buckets; programs are multi-stage, usually with a
    /// delayed first stage; every scaling law runs.
    #[test]
    fn batch_outcomes_keep_their_bits(
        steps in proptest::collection::vec((0u32..8, 0.0f64..1.0, 0.0f64..0.6), 1..300),
        zero_at in 0usize..300,
        taus in proptest::collection::vec(0.0f64..3.0, 1..5),
        f in 0.3f64..1.0,
        beta in 0.05f64..0.95,
    ) {
        // Kind 0 ties the previous arrival, kind 1 opens a gap of up to
        // 2000 s, any other a short one; kinds 5–7 quantize the size.
        let mut t = 0.0;
        let pairs: Vec<(f64, f64)> = steps
            .iter()
            .enumerate()
            .map(|(i, &(kind, u, size))| {
                t += match kind {
                    0 => 0.0,
                    1 => 2000.0 * u,
                    _ => 0.5 * u,
                };
                let size = if kind >= 5 { (size * 8.0).floor() / 8.0 } else { size };
                (t, if i == zero_at % steps.len() { 0.0 } else { size })
            })
            .collect();
        let jobs = JobStream::from_log(pairs).unwrap();
        let policy = Policy::new(Frequency::new(f).unwrap(), arbitrary_program(taus));
        let mut scratch = SimScratch::new();
        let laws = [
            FrequencyScaling::CpuBound,
            FrequencyScaling::Sublinear { beta },
            FrequencyScaling::MemoryBound,
        ];
        for scaling in laws {
            let env = SimEnv::xeon_cpu_bound().with_scaling(scaling);
            let summary = simulate_summary_into(&jobs, &policy, &env, &mut scratch);
            prop_assert_eq!(&summary, &simulate(&jobs, &policy, &env));
            for width in [1.0, 60.0, 3600.0] {
                let mut online = OnlineSim::new(env.clone(), width);
                online.run_epoch(jobs.jobs(), &policy, f64::INFINITY);
                let horizon = online.state().free_time();
                let (ledger, ..) = online.finish(horizon);
                prop_assert_eq!(
                    summary.energy().as_joules().to_bits(),
                    ledger.total_energy().as_joules().to_bits(),
                    "{:?} at bucket width {}",
                    scaling,
                    width
                );
            }
        }
    }

    /// The borrowed cursor yields exactly the batches `split_at_time`
    /// would allocate, over arbitrary epoch boundaries.
    #[test]
    fn cursor_batches_equal_split_at_time(
        rho in 0.05f64..0.6,
        epoch_len in 5.0f64..60.0,
        seed in 0u64..100_000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let jobs = generator::generate_poisson_exp(400, rho, 0.194, &mut rng).unwrap();
        let mut cursor = jobs.cursor();
        let mut remaining = jobs.clone();
        let mut t = 0.0;
        while !remaining.is_empty() {
            t += epoch_len;
            let (now, later) = remaining.split_at_time(t);
            prop_assert_eq!(cursor.take_before(t), now.jobs());
            remaining = later;
        }
        prop_assert!(cursor.is_finished());
        prop_assert!(cursor.remaining().is_empty());
    }

    /// Splitting a stream at an arbitrary time and replaying the halves
    /// through one engine matches the unsplit batch run exactly.
    #[test]
    fn split_replay_is_exact(
        rho in 0.1f64..0.6,
        split_frac in 0.1f64..0.9,
        seed in 0u64..100_000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let jobs = generator::generate_poisson_exp(600, rho, 0.194, &mut rng).unwrap();
        let env = SimEnv::xeon_cpu_bound();
        let policy = Policy::new(
            Frequency::new((rho + 0.2).min(1.0)).unwrap(),
            SleepProgram::immediate(presets::C6_S3),
        );
        let batch = simulate(&jobs, &policy, &env);

        let t_split = jobs.last_arrival() * split_frac;
        let (a, b) = jobs.split_at_time(t_split);
        let mut online = OnlineSim::new(env.clone(), 3600.0);
        let out_a = online.run_epoch(a.jobs(), &policy, t_split);
        let out_b = online.run_epoch(b.jobs(), &policy, f64::INFINITY);
        let horizon = online.state().free_time();
        let (ledger, residency, ..) = online.finish(horizon);

        prop_assert!((ledger.total_energy().as_joules() - batch.energy().as_joules()).abs() < 1e-6);
        prop_assert!((residency.total() - batch.residency().total()).abs() < 1e-6);
        prop_assert_eq!(out_a.records().len() + out_b.records().len(), batch.n_jobs());
        let n = JobStream::default();
        prop_assert!(n.is_empty()); // keep the import exercised
    }
}
