//! Scale-out: fleets of servers, each running its own controller (the
//! paper's Section 7 future-work direction), declared as scenarios —
//! first a dispatcher shoot-out on a homogeneous fleet, then the
//! heterogeneous shapes the Scenario API exists for (mixed machine
//! generations, per-group QoS, race-vs-SleepScale A/B).
//!
//! ```sh
//! cargo run --release --example cluster_scale_out
//! ```

use sleepscale_repro::prelude::*;
use sleepscale_repro::sleepscale_scenario::catalog;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Dispatcher shoot-out: one declarative fleet, four dispatchers.
    //    A low-utilization fleet (the 20–30% regime the paper's intro
    //    describes), DNS-like service, three hours.
    let n = 8;
    let base = {
        let mut scenario = Scenario {
            eval_jobs: 800,
            seed: 17,
            ..Scenario::new(
                "scale-out",
                WorkloadSource::Dns,
                LoadSchedule::Constant { rho: 0.2, minutes: 180 },
            )
        };
        scenario.fleet = vec![ServerGroup::new("fleet", n, StrategySpec::sleepscale())];
        scenario
    };
    println!("fleet of {n}, cluster load 20% of capacity\n");
    println!(
        "{:>24} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "dispatcher", "mu*E[R]", "p95 (ms)", "fleet W", "balance", "cache", "warm"
    );
    for (label, dispatcher) in [
        ("round-robin", DispatcherSpec::RoundRobin),
        ("random", DispatcherSpec::RandomUniform { seed: 3 }),
        ("join-shortest-backlog", DispatcherSpec::JoinShortestBacklog),
        ("pack-first-fit(1s)", DispatcherSpec::PackFirstFit { backlog_seconds: 1.0 }),
    ] {
        let mut scenario = base.clone();
        scenario.dispatcher = dispatcher;
        let report = ScenarioRunner::new(scenario)?.run()?;
        // How much characterization the fleet engine eliminated: cache
        // hits are whole per-server sweeps absorbed by the shared
        // cache; warm-started searches are the cross-epoch bowl-bottom
        // reuse on the sweeps that did run.
        let cache = report.cache_stats();
        let warm = report.warm_start_stats();
        let cluster = report.cluster_report().expect("fleet scenarios run the cluster backend");
        println!(
            "{:>24} {:>12.2} {:>12.1} {:>12.0} {:>10.2} {:>9.0}% {:>9.0}%",
            label,
            report.normalized_mean_response(),
            report.p95_response_seconds() * 1e3,
            report.avg_power_watts(),
            cluster.load_balance_index(),
            cache.hit_rate() * 100.0,
            warm.warm_rate() * 100.0
        );
    }
    println!(
        "\nReading: packing concentrates work so spare servers reach deep sleep;\n\
         at this utilization it buys a large fleet-power reduction for a modest\n\
         response-time cost. Spreading disciplines keep responses lowest but\n\
         every server idles shallow. Dispatch routes off an O(log N) index, so\n\
         a 64-server day streams through in seconds."
    );

    // 2. Heterogeneous fleets from the catalog: the shapes one
    //    homogeneous ClusterConfig could not express before PR 4.
    println!("\nheterogeneous catalog scenarios (per-group slices):");
    for scenario in
        [catalog::mixed_generations(), catalog::qos_split(), catalog::race_vs_sleepscale()]
    {
        let report = ScenarioRunner::new(scenario)?.run()?;
        println!(
            "\n  {} — {} servers, {} jobs, {:.0} W fleet-wide",
            report.scenario(),
            report.groups().iter().map(|g| g.servers).sum::<usize>(),
            report.total_jobs(),
            report.avg_power_watts()
        );
        println!(
            "  {:>16} {:>8} {:>9} {:>9} {:>9} {:>9} {:>6}",
            "group", "servers", "jobs", "mu*E[R]", "budget", "W", "QoS"
        );
        for group in report.groups() {
            println!(
                "  {:>16} {:>8} {:>9} {:>9.2} {:>9.2} {:>9.0} {:>6}",
                group.name,
                group.servers,
                group.jobs,
                group.normalized_mean_response,
                group.qos_budget,
                group.avg_power_watts,
                if group.qos_ok { "ok" } else { "FAIL" }
            );
        }
    }
    println!(
        "\nEach group keeps its own shared characterization cache, so mixed\n\
         generations and QoS tiers amortize sweeps exactly like homogeneous\n\
         fleets — one real characterization per group per epoch."
    );
    Ok(())
}
