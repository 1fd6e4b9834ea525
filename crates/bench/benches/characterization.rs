//! Benchmarks for the characterization-engine overhaul: the record-free
//! simulation fast path, the lock-free chunked sweep, and the pruned +
//! cached policy selection, each against its baseline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sleepscale::{CandidateSet, PolicyManager, QosConstraint, SearchMode};
use sleepscale_bench::ideal_stream;
use sleepscale_power::{presets, Frequency, Policy, SleepProgram};
use sleepscale_sim::{
    simulate, simulate_summary, simulate_summary_into, sweep, SimEnv, SimScratch,
};
use sleepscale_workloads::{JobLog, WorkloadSpec};

fn record_vs_summary(c: &mut Criterion) {
    let spec = WorkloadSpec::dns();
    let jobs = ideal_stream(&spec, 0.3, 10_000, 1);
    let env = SimEnv::xeon_cpu_bound();
    let policy =
        Policy::new(Frequency::new(0.6).expect("valid"), SleepProgram::immediate(presets::C6_S0I));
    let mut group = c.benchmark_group("characterize_10k_jobs");
    group.bench_function("records", |b| {
        b.iter(|| simulate(std::hint::black_box(&jobs), &policy, &env))
    });
    group.bench_function("summary", |b| {
        b.iter(|| simulate_summary(std::hint::black_box(&jobs), &policy, &env))
    });
    let mut scratch = SimScratch::new();
    group.bench_function("summary_reused_scratch", |b| {
        b.iter(|| simulate_summary_into(std::hint::black_box(&jobs), &policy, &env, &mut scratch))
    });
    group.finish();
}

fn chunked_sweep(c: &mut Criterion) {
    // One epoch's full candidate grid through the lock-free sweep.
    let spec = WorkloadSpec::dns();
    let jobs = ideal_stream(&spec, 0.3, 2_000, 2);
    let env = SimEnv::xeon_cpu_bound();
    let grid = sleepscale_power::FrequencyGrid::new(0.35, 1.0, 0.05).expect("valid");
    let policies: Vec<Policy> = presets::standard_programs()
        .iter()
        .flat_map(|prog| grid.iter().map(move |f| Policy::new(f, prog.clone())))
        .collect();
    let mut group = c.benchmark_group("sweep_70_candidates_2k_jobs");
    group.bench_function("serial", |b| {
        b.iter(|| sweep::evaluate_policies_with_threads(&jobs, &policies, &env, 1))
    });
    group.bench_function("chunked_parallel", |b| {
        b.iter(|| sweep::evaluate_policies(std::hint::black_box(&jobs), &policies, &env))
    });
    group.finish();
}

fn selection_modes(c: &mut Criterion) {
    let spec = WorkloadSpec::dns();
    let stream = ideal_stream(&spec, 0.25, 2_000, 3);
    let manager = || {
        PolicyManager::new(
            SimEnv::xeon_cpu_bound(),
            QosConstraint::mean_response(0.8).expect("valid"),
            CandidateSet::standard(),
            spec.service_mean(),
            2_000,
        )
        .expect("valid manager")
    };
    let exhaustive = manager().with_search_mode(SearchMode::Exhaustive);
    let pruned = manager();
    let mut group = c.benchmark_group("select_policy");
    group.bench_function("exhaustive_stream", |b| {
        b.iter(|| exhaustive.select_from_stream(std::hint::black_box(&stream), 0.25))
    });
    group.bench_function("pruned_stream", |b| {
        b.iter(|| pruned.select_from_stream(std::hint::black_box(&stream), 0.25))
    });
    // The cached log path: after the first call every selection at the
    // same (quantized rho, log signature) is a hash lookup. The setup
    // makes that first call, so the timed body is ten hits.
    let mut log = JobLog::new(20_000);
    let mut prev = 0.0;
    for job in stream.jobs() {
        log.push(job.arrival - prev, job.size);
        prev = job.arrival;
    }
    group.bench_function("cached_log_hit", |b| {
        b.iter_batched(
            || {
                let mut m = manager();
                m.select_from_log(&log, 0.25).expect("log is warm");
                m
            },
            |mut m| {
                for _ in 0..10 {
                    std::hint::black_box(m.select_from_log(&log, 0.25).expect("cache hit"));
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, record_vs_summary, chunked_sweep, selection_modes);
criterion_main!(benches);
