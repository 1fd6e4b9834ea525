//! Multi-class traffic gate: proves the tagged subsystem changed
//! *nothing* it wasn't asked to change, and delivers what it was.
//!
//! ```sh
//! cargo run --release -p sleepscale-bench --bin multiclass
//! cargo run --release -p sleepscale-bench --bin multiclass -- --quick
//! ```
//!
//! Checks (each must hold or the bin exits non-zero):
//!
//! 1. **Single-server parity** — a single-class `Tagged` scenario's
//!    report equals the untagged `Custom` scenario's **byte for byte**
//!    (native `RunReport`, streaming responses, group slices, cache
//!    telemetry). `ScenarioRunner::inputs` replays every source as a
//!    traffic model, the untagged one as the single-class model of its
//!    spec, so this pins two things: lowering an untagged source to a
//!    one-class model, and adding the tagged run's class overlay,
//!    change no shared report byte. The replayed streams themselves
//!    are pinned by the `catalog_inputs_are_pinned` test.
//! 2. **Fleet parity** — the same equality through the cluster engine
//!    (`ClusterReport`, per-server summaries, energy to the last bit).
//! 3. **Two-class QoS** — the `dns-mail-tagged-mix` catalog scenario
//!    reports *distinct* per-class p95s, its class slices partition
//!    the fleet's jobs, and the interactive class meets its own
//!    normalized-p95 budget.
//! 4. **Flash crowd** — the `flash-crowd-day` catalog scenario stays
//!    per-class QoS-feasible *through* its 3× burst window.
//!
//! Results land in `results/multiclass.csv` and the machine-readable
//! summary `results/bench_multiclass.json`, whose `jobs` sums each
//! check's reference-run job count.

use sleepscale_scenario::catalog;
use sleepscale_scenario::prelude::*;
use sleepscale_workloads::WorkloadSpec;

fn parity_pair(n_servers: usize, quick: bool) -> (Scenario, Scenario) {
    let load = if quick {
        LoadSchedule::Constant { rho: 0.25, minutes: 45 }
    } else {
        LoadSchedule::EmailStoreDay { seed: 7, start_minute: 480, end_minute: 660 }
    };
    let mut untagged =
        Scenario::new("multiclass-parity", WorkloadSource::Custom(WorkloadSpec::dns()), load);
    untagged.eval_jobs = if quick { 200 } else { 400 };
    untagged.dist_samples = 5_000;
    untagged.seed = 7_401;
    untagged.fleet = vec![ServerGroup::new("fleet", n_servers, StrategySpec::sleepscale())];
    let mut tagged = untagged.clone();
    tagged.workload = WorkloadSource::Tagged(TrafficModel::single(WorkloadSpec::dns()));
    (untagged, tagged)
}

/// Byte-parity between the untagged scenario and its tagged twin:
/// every shared component of the report must be `==` (the tagged run
/// additionally carries its declared-class overlay, which the untagged
/// run by definition lacks). Returns a failure description, or the
/// job count on success.
fn check_parity(n_servers: usize, quick: bool) -> Result<usize, String> {
    let (untagged, tagged) = parity_pair(n_servers, quick);
    let a = ScenarioRunner::new(untagged)
        .map_err(|e| format!("untagged invalid: {e}"))?
        .run()
        .map_err(|e| format!("untagged run failed: {e}"))?;
    let b = ScenarioRunner::new(tagged)
        .map_err(|e| format!("tagged invalid: {e}"))?
        .run()
        .map_err(|e| format!("tagged run failed: {e}"))?;
    if a.run_report() != b.run_report() {
        return Err("RunReport diverged".into());
    }
    if a.cluster_report() != b.cluster_report() {
        return Err("ClusterReport diverged".into());
    }
    if a.responses() != b.responses() {
        return Err("streaming response summaries diverged".into());
    }
    if a.groups() != b.groups() {
        return Err("group slices diverged".into());
    }
    if a.cache_stats() != b.cache_stats() || a.warm_start_stats() != b.warm_start_stats() {
        return Err("characterization telemetry diverged".into());
    }
    if a.horizon_seconds() != b.horizon_seconds() {
        return Err("horizons diverged".into());
    }
    if a.total_jobs() == 0 {
        return Err("parity run produced no jobs".into());
    }
    // The overlay itself must agree with the run it slices.
    if b.classes().len() != 1 || b.classes()[0].jobs != a.total_jobs() {
        return Err("single-class overlay does not cover the whole run".into());
    }
    Ok(a.total_jobs())
}

fn run_catalog_scenario(scenario: Scenario, quick: bool) -> Result<ScenarioReport, String> {
    let scenario = if quick { scenario.quick() } else { scenario };
    ScenarioRunner::new(scenario)
        .map_err(|e| format!("invalid: {e}"))?
        .run()
        .map_err(|e| format!("run failed: {e}"))
}

fn check_two_class_qos(quick: bool) -> Result<(String, usize), String> {
    let report = run_catalog_scenario(catalog::dns_mail_tagged(), quick)?;
    let classes = report.classes();
    if classes.len() != 2 {
        return Err(format!("expected 2 class slices, got {}", classes.len()));
    }
    let sliced: usize = classes.iter().map(|c| c.jobs).sum();
    if sliced != report.total_jobs() {
        return Err(format!("class slices cover {sliced} of {} jobs", report.total_jobs()));
    }
    let (p0, p1) = (classes[0].p95_response_seconds, classes[1].p95_response_seconds);
    if (p0 - p1).abs() / p0.max(1e-12) < 0.02 {
        return Err(format!("per-class p95s not distinct: {p0} vs {p1}"));
    }
    if !classes[0].qos_ok {
        return Err(format!(
            "interactive class misses its budget: p95 {:.2}×µ vs {:?}×",
            classes[0].normalized_p95, classes[0].p95_budget
        ));
    }
    if !report.qos_ok() {
        return Err("scenario finished QoS-infeasible".into());
    }
    Ok((
        format!(
            "interactive p95 {:.1} ms ({:.1}xU) vs batch {:.1} ms ({:.1}xU)",
            p0 * 1e3,
            classes[0].normalized_p95,
            p1 * 1e3,
            classes[1].normalized_p95
        ),
        report.total_jobs(),
    ))
}

fn check_flash_crowd(quick: bool) -> Result<(String, usize), String> {
    let report = run_catalog_scenario(catalog::flash_crowd_day(), quick)?;
    for class in report.classes() {
        if !class.qos_ok {
            return Err(format!(
                "class '{}' misses its budget through the burst: p95 {:.2}xU vs {:?}x",
                class.name, class.normalized_p95, class.p95_budget
            ));
        }
        if class.jobs == 0 {
            return Err(format!("class '{}' produced no jobs", class.name));
        }
    }
    if !report.qos_ok() {
        return Err("scenario finished QoS-infeasible".into());
    }
    let interactive = &report.classes()[0];
    Ok((
        format!(
            "interactive rode the 3x burst at p95 {:.1} ms ({:.1}xU)",
            interactive.p95_response_seconds * 1e3,
            interactive.normalized_p95
        ),
        report.total_jobs(),
    ))
}

fn main() -> std::io::Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut summary = sleepscale_bench::GateSummary::start("multiclass", quick);
    println!("== multiclass gate{} ==", if quick { " (quick)" } else { "" });

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut failed = false;
    let mut jobs = 0u64;
    let mut record = |check: &str, outcome: Result<(String, usize), String>| {
        let ok = outcome.is_ok();
        let detail = match outcome {
            Ok((d, j)) => {
                jobs += j as u64;
                d
            }
            Err(e) => e,
        };
        println!("{} {:<22} {}", if ok { "PASS" } else { "FAIL" }, check, detail);
        rows.push(vec![check.into(), (ok as u8).to_string(), detail]);
        failed |= !ok;
    };

    let parity = |n| (format!("byte-identical over {n} jobs"), n);
    record("parity-single-server", check_parity(1, quick).map(parity));
    record("parity-fleet", check_parity(if quick { 2 } else { 4 }, quick).map(parity));
    record("two-class-qos", check_two_class_qos(quick));
    record("flash-crowd-qos", check_flash_crowd(quick));

    let path = sleepscale_bench::require_io(
        "writing multiclass.csv",
        sleepscale_bench::write_csv("multiclass", &["check", "ok", "detail"], &rows),
    );
    println!("\nwrote {}", path.display());
    let passed = rows.iter().filter(|r| r[1] == "1").count();
    summary.field("checks_total", sleepscale_bench::JsonValue::Int(rows.len() as u64));
    summary.field("checks_passed", sleepscale_bench::JsonValue::Int(passed as u64));
    summary.finish(!failed, jobs);
    if failed {
        eprintln!("MULTICLASS GATE FAILED");
        std::process::exit(1);
    }
    println!("multiclass gate: all checks passed — OK");
    Ok(())
}
