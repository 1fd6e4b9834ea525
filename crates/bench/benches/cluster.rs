//! Benchmarks for the scale-out cluster engine: the O(log N) dispatch
//! index against the O(N) snapshot scan it replaced, the streaming
//! fleet statistics against vector collection, a small fleet epoch end
//! to end, the PR-7 sharded engine against the central loop it
//! byte-matches, and the per-job step at two fleet sizes.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::SeedableRng;
use sleepscale::{QosConstraint, RuntimeConfig, StrategySpec};
use sleepscale_cluster::{
    Cluster, ClusterConfig, DispatchIndex, JoinShortestBacklog, ServerGroup, SplitUniform,
};
use sleepscale_dist::{StreamingSummary, SummaryStats};
use sleepscale_sim::StreamSplit;
use sleepscale_workloads::{
    replay_trace, ReplayConfig, UtilizationTrace, WorkloadDistributions, WorkloadSpec,
};

/// A deterministic arrival/commit walk the routing benches share.
fn routing_walk(n: usize, steps: usize) -> Vec<(f64, f64)> {
    let mut walk = Vec::with_capacity(steps);
    let mut now = 0.0;
    let mut x = 88172645463325252_u64;
    let mut unit = move || {
        // xorshift64 — cheap, fixed, and independent of the rand crate.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..steps {
        now += unit() * 0.3 / n as f64;
        walk.push((now, unit() * 0.4));
    }
    walk
}

fn dispatch_index_vs_linear(c: &mut Criterion) {
    for &n in &[64_usize, 256] {
        let walk = routing_walk(n, 20_000);
        let mut group = c.benchmark_group(format!("route_20k_jobs_{n}_servers"));
        group.bench_function("index_olog_n", |b| {
            b.iter(|| {
                let mut index = DispatchIndex::new(n);
                let mut acc = 0_usize;
                for &(now, commit) in &walk {
                    let target = index.shortest_backlog_server(now);
                    acc += target;
                    index.update(target, index.free_time(target).max(now) + commit);
                }
                acc
            })
        });
        group.bench_function("linear_scan_on", |b| {
            b.iter(|| {
                let mut free = vec![0.0_f64; n];
                let mut acc = 0_usize;
                for &(now, commit) in &walk {
                    let target = free
                        .iter()
                        .enumerate()
                        .map(|(i, &t)| (i, (t - now).max(0.0)))
                        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    acc += target;
                    free[target] = free[target].max(now) + commit;
                }
                acc
            })
        });
        group.finish();
    }
}

fn streaming_vs_collected(c: &mut Criterion) {
    let samples: Vec<f64> = routing_walk(8, 100_000).into_iter().map(|(_, s)| s + 0.05).collect();
    let mut group = c.benchmark_group("fleet_stats_100k_samples");
    group.bench_function("streaming_summary", |b| {
        b.iter(|| {
            let mut s = StreamingSummary::new();
            for &x in &samples {
                s.push(x);
            }
            (s.mean(), s.p95())
        })
    });
    group.bench_function("collect_then_sort", |b| {
        b.iter(|| {
            let s = SummaryStats::from_samples(samples.iter().copied()).expect("non-empty");
            (s.mean(), s.p95())
        })
    });
    group.finish();
}

fn fleet_epoch(c: &mut Criterion) {
    let n = 8;
    let spec = WorkloadSpec::dns();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).expect("spec fits");
    let trace = UtilizationTrace::constant(0.3, 30).expect("valid trace");
    let jobs =
        replay_trace(&trace, &dists, &ReplayConfig::for_fleet(n), &mut rng).expect("valid replay");
    let runtime = RuntimeConfig::builder(spec.service_mean())
        .qos(QosConstraint::mean_response(0.8).expect("valid"))
        .epoch_minutes(5)
        .eval_jobs(200)
        .build()
        .expect("valid config");
    let config = ClusterConfig::homogeneous(n, runtime).expect("valid fleet");
    c.bench_function("fleet_8_servers_30_min", |b| {
        b.iter(|| {
            let mut cluster = Cluster::new(config.clone());
            cluster.run(&trace, &jobs, &mut JoinShortestBacklog::new()).expect("run succeeds")
        })
    });
}

fn sharded_fleet(c: &mut Criterion) {
    let n = 32;
    let seed = 64;
    let spec = WorkloadSpec::dns();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).expect("spec fits");
    let trace = UtilizationTrace::constant(0.2, 30).expect("valid trace");
    let jobs =
        replay_trace(&trace, &dists, &ReplayConfig::for_fleet(n), &mut rng).expect("valid replay");
    let runtime = RuntimeConfig::builder(spec.service_mean())
        .qos(QosConstraint::mean_response(0.8).expect("valid"))
        .epoch_minutes(5)
        .eval_jobs(100)
        .build()
        .expect("valid config");
    let groups = vec![ServerGroup::new("race", n, StrategySpec::race_to_halt_c6())];
    let config = ClusterConfig::new(&runtime, groups).expect("valid fleet");
    let mut group = c.benchmark_group(format!("split_fleet_{n}_servers_30_min"));
    group.bench_function("central_split_uniform", |b| {
        b.iter(|| {
            let mut cluster = Cluster::new(config.clone());
            cluster.run(&trace, &jobs, &mut SplitUniform::new(seed)).expect("run succeeds")
        })
    });
    for shards in [1_usize, 8] {
        group.bench_function(format!("sharded_{shards}"), |b| {
            b.iter(|| {
                let mut cluster = Cluster::new(config.clone());
                cluster
                    .run_sharded(&trace, &jobs, StreamSplit::new(seed), shards)
                    .expect("run succeeds")
            })
        });
    }
    group.finish();
}

/// The per-job step as the fleet runs it, at 64 and 2 048 servers:
/// race-to-halt C6 servers behind `SplitUniform` in the central loop on
/// one worker thread, over a 10-minute window at ρ = 0.15. The inputs
/// are built outside the timed loop; each iteration builds the fleet
/// and serves every job, so elements per second is jobs per second and
/// the fleet-size gap is what per-server state costs per job.
fn dispatch_per_job(c: &mut Criterion) {
    let spec = WorkloadSpec::dns();
    let runtime = RuntimeConfig::builder(spec.service_mean())
        .qos(QosConstraint::mean_response(0.8).expect("valid"))
        .epoch_minutes(5)
        .eval_jobs(100)
        .build()
        .expect("valid config");
    let trace = UtilizationTrace::constant(0.15, 10).expect("valid trace");
    let mut group = c.benchmark_group("dispatch_per_job");
    for n in [64_usize, 2_048] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).expect("spec fits");
        let jobs = replay_trace(&trace, &dists, &ReplayConfig::for_fleet(n), &mut rng)
            .expect("valid replay");
        let groups = vec![ServerGroup::new("race", n, StrategySpec::race_to_halt_c6())];
        let config = ClusterConfig::new(&runtime, groups).expect("valid fleet");
        group.throughput(Throughput::Elements(jobs.len() as u64));
        group.bench_function(format!("race_c6_{n}_servers"), |b| {
            b.iter(|| {
                let mut cluster = Cluster::new(config.clone()).with_threads(1);
                cluster.run(&trace, &jobs, &mut SplitUniform::new(64)).expect("run succeeds")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    dispatch_index_vs_linear,
    streaming_vs_collected,
    fleet_epoch,
    sharded_fleet,
    dispatch_per_job
);
criterion_main!(benches);
