//! Cross-crate integration: the full pipeline from trace synthesis
//! through replay, runtime policy management, and reporting.

use rand::SeedableRng;
use sleepscale_repro::prelude::*;

fn day(
    hours: usize,
    seed: u64,
) -> (UtilizationTrace, sleepscale_repro::sleepscale_sim::JobStream, WorkloadSpec) {
    let spec = WorkloadSpec::dns();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dists = WorkloadDistributions::empirical(&spec, 8_000, &mut rng).unwrap();
    let trace = traces::email_store(1, 7).window(480, 480 + hours * 60);
    let jobs = replay_trace(&trace, &dists, &ReplayConfig::default(), &mut rng).unwrap();
    (trace, jobs, spec)
}

fn config(spec: &WorkloadSpec, alpha: f64) -> RuntimeConfig {
    RuntimeConfig::builder(spec.service_mean())
        .qos(QosConstraint::mean_response(0.8).unwrap())
        .epoch_minutes(5)
        .eval_jobs(600)
        .over_provisioning(alpha)
        .build()
        .unwrap()
}

#[test]
fn sleepscale_full_loop_produces_consistent_report() {
    let (trace, jobs, spec) = day(3, 31);
    let cfg = config(&spec, 0.35);
    let env = SimEnv::xeon_cpu_bound();
    let mut ss = SleepScaleStrategy::new(&cfg, CandidateSet::standard())
        .with_predictor(Box::new(LmsCusum::new(10)));
    let report = run(&trace, &jobs, &mut ss, &env, &cfg).unwrap();

    // Shape.
    assert_eq!(report.epochs().len(), trace.len().div_ceil(5));
    assert_eq!(report.total_jobs(), jobs.len());

    // Energy bookkeeping: per-epoch powers integrate back to the total
    // (modulo the tail segment past the last epoch boundary).
    let epoch_energy: f64 = report.epochs().iter().map(|e| e.power_watts * 300.0).sum();
    assert!(
        (epoch_energy - report.energy_joules()).abs() / report.energy_joules() < 0.02,
        "epoch energies {epoch_energy:.0} J vs total {:.0} J",
        report.energy_joules()
    );

    // Power must sit strictly between the deepest-sleep floor and the
    // flat-out ceiling.
    assert!(report.avg_power_watts() > 28.1);
    assert!(report.avg_power_watts() < 250.0);

    // Every epoch deployed a frequency that can keep up with its
    // prediction under CPU-bound scaling.
    for e in report.epochs() {
        assert!(e.frequency > 0.0 && e.frequency <= 1.0);
        assert!(e.mean_response >= 0.0);
    }

    // The histogram accounts for every epoch.
    let counted: usize = report.program_histogram().iter().map(|(_, n)| n).sum();
    assert_eq!(counted, report.epochs().len());
}

#[test]
fn strategy_ordering_matches_the_paper() {
    // Figure 9's ordering on a shorter window: SS uses the least power;
    // R2H keeps the fastest responses; DVFS-only burns the most power.
    let (trace, jobs, spec) = day(3, 32);
    let cfg = config(&spec, 0.35);
    let env = SimEnv::xeon_cpu_bound();

    let mut ss = SleepScaleStrategy::new(&cfg, CandidateSet::standard());
    let ss_r = run(&trace, &jobs, &mut ss, &env, &cfg).unwrap();
    let mut ss_c3 = SleepScaleStrategy::new(&cfg, CandidateSet::single_state(SystemState::C3_S0I));
    let c3_r = run(&trace, &jobs, &mut ss_c3, &env, &cfg).unwrap();
    let mut dvfs = SleepScaleStrategy::new(&cfg, CandidateSet::dvfs_only());
    let dvfs_r = run(&trace, &jobs, &mut dvfs, &env, &cfg).unwrap();
    let mut r2h = FixedPolicyStrategy::race_to_halt(presets::C6_S0I);
    let r2h_r = run(&trace, &jobs, &mut r2h, &env, &cfg).unwrap();

    assert!(ss_r.avg_power_watts() <= c3_r.avg_power_watts() + 1e-9);
    assert!(ss_r.avg_power_watts() < dvfs_r.avg_power_watts());
    assert!(ss_r.avg_power_watts() < r2h_r.avg_power_watts());
    assert!(r2h_r.normalized_mean_response() < ss_r.normalized_mean_response());
}

#[test]
fn over_provisioning_trades_power_for_response() {
    let (trace, jobs, spec) = day(3, 33);
    let env = SimEnv::xeon_cpu_bound();
    let cfg0 = config(&spec, 0.0);
    let mut s0 = SleepScaleStrategy::new(&cfg0, CandidateSet::standard());
    let r0 = run(&trace, &jobs, &mut s0, &env, &cfg0).unwrap();
    let cfg35 = config(&spec, 0.35);
    let mut s35 = SleepScaleStrategy::new(&cfg35, CandidateSet::standard());
    let r35 = run(&trace, &jobs, &mut s35, &env, &cfg35).unwrap();
    // The guard band cannot make responses worse, and costs some power.
    assert!(
        r35.normalized_mean_response() <= r0.normalized_mean_response() + 0.3,
        "alpha=0.35 {} vs alpha=0 {}",
        r35.normalized_mean_response(),
        r0.normalized_mean_response()
    );
    assert!(r35.avg_power_watts() >= r0.avg_power_watts() - 1.0);
}

#[test]
fn tail_qos_selects_more_conservative_policies() {
    let (trace, jobs, spec) = day(2, 34);
    let env = SimEnv::xeon_cpu_bound();
    let mean_cfg = config(&spec, 0.0);
    let tail_cfg = RuntimeConfig::builder(spec.service_mean())
        .qos(QosConstraint::p95(0.8).unwrap())
        .epoch_minutes(5)
        .eval_jobs(600)
        .build()
        .unwrap();
    let mut mean_s = SleepScaleStrategy::new(&mean_cfg, CandidateSet::standard());
    let mean_r = run(&trace, &jobs, &mut mean_s, &env, &mean_cfg).unwrap();
    let mut tail_s = SleepScaleStrategy::new(&tail_cfg, CandidateSet::standard());
    let tail_r = run(&trace, &jobs, &mut tail_s, &env, &tail_cfg).unwrap();
    // Both complete and produce sane reports; the tail-constrained run
    // must control p95.
    assert!(tail_r.p95_response_seconds() > 0.0);
    assert!(mean_r.total_jobs() == tail_r.total_jobs());
}

#[test]
fn google_workload_day_runs_at_scale() {
    // Millions of sub-millisecond jobs: exercises the engine's
    // performance path and the manager on a fine-grained service.
    let spec = WorkloadSpec::google();
    let mut rng = rand::rngs::StdRng::seed_from_u64(35);
    let dists = WorkloadDistributions::empirical(&spec, 8_000, &mut rng).unwrap();
    let trace = traces::email_store(1, 7).window(480, 540); // one hour
    let jobs = replay_trace(&trace, &dists, &ReplayConfig::default(), &mut rng).unwrap();
    assert!(jobs.len() > 100_000, "Google-scale stream: {} jobs", jobs.len());
    let cfg = config(&spec, 0.35);
    let env = SimEnv::xeon_cpu_bound();
    let mut ss = SleepScaleStrategy::new(&cfg, CandidateSet::standard());
    let report = run(&trace, &jobs, &mut ss, &env, &cfg).unwrap();
    assert_eq!(report.total_jobs(), jobs.len());
    assert!(report.normalized_mean_response() < 20.0);
}

/// A single-server checkpoint holds no per-job state. Over a 6 h DNS
/// day the snapshot grows by well under one `f64` per served job: the
/// strategy's job log is capped at 16 records, so what still grows is
/// one report row per epoch and the response summary's sketch buckets.
#[test]
fn single_server_checkpoints_hold_no_per_job_state() {
    let spec = WorkloadSpec::dns();
    let mut rng = rand::rngs::StdRng::seed_from_u64(36);
    let dists = WorkloadDistributions::empirical(&spec, 8_000, &mut rng).unwrap();
    let trace = traces::email_store(1, 7).window(120, 480);
    let jobs = replay_trace(&trace, &dists, &ReplayConfig::default(), &mut rng).unwrap();
    let cfg = RuntimeConfig::builder(spec.service_mean())
        .qos(QosConstraint::mean_response(0.8).unwrap())
        .epoch_minutes(5)
        .eval_jobs(600)
        .log_capacity(16)
        .build()
        .unwrap();
    let env = SimEnv::xeon_cpu_bound();
    let mut ss = SleepScaleStrategy::new(&cfg, CandidateSet::standard());
    let mut sizes = Vec::new();
    let mut sink = |_epoch: usize, payload: &[u8]| {
        sizes.push(payload.len());
        Ok(true)
    };
    let report = sleepscale_repro::sleepscale::run_resumable(
        &trace,
        &jobs,
        &mut ss,
        &env,
        &cfg,
        None,
        Some(&mut sink),
    )
    .unwrap()
    .expect("a sink that never stops lets the run complete");
    assert_eq!(report.total_jobs(), jobs.len());
    // Jobs served after the 4th boundary (epochs are 300 s).
    let served = jobs.jobs().iter().filter(|j| j.arrival >= 4.0 * 300.0).count();
    let growth = (sizes[sizes.len() - 1] - sizes[3]) as f64 / served as f64;
    assert!(growth < 4.0, "checkpoints grew {growth:.2} B per served job over {served} jobs");
}
