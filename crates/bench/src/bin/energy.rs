//! Energy-attribution gate: proves the exact per-class ledger split is
//! (a) free on every untouched path, (b) internally consistent, and
//! (c) *different* from the legacy work-share formula exactly where the
//! physics says it must be.
//!
//! ```sh
//! cargo run --release -p sleepscale-bench --bin energy
//! cargo run --release -p sleepscale-bench --bin energy -- --quick
//! ```
//!
//! Checks (each must hold or the bin exits non-zero):
//!
//! 1. **Total-energy byte parity** — tagging instrumentation changes
//!    nothing on untouched paths: a single-class `Tagged` scenario's
//!    fleet energy equals its untagged twin's **to the last bit**, on
//!    both the single-server (`RunReport`) and cluster backends, and a
//!    repeated run reproduces the same bytes.
//! 2. **Line-item identity** — active + idle reproduces the fleet
//!    total, the per-class active slices sum to the fleet's active
//!    energy, and the "idle apportioned by active share" class view
//!    sums back to the fleet total.
//! 3. **Thread invariance** — the class-tagged energy slices (and the
//!    whole `ClusterReport`) are identical across worker thread
//!    counts: merging happens in slot order, never in completion order.
//! 4. **Zero-work idle line item** — a zero-arrival scenario reports
//!    all energy as the explicit idle line item: active is exactly 0,
//!    every class slice is 0, and class totals + idle still reproduce
//!    the fleet total.
//! 5. **Exact ≠ work-share divergence** — on a two-class fleet where
//!    one class's arrivals burst 10× over a window, the bursting
//!    class's *exact* active-energy share diverges from its work share
//!    in the expected direction: the burst drives the controllers to
//!    higher frequencies, and on the cpu-bound Xeon model energy per
//!    unit of work `P(f)/f = 130f² + 120/f` *falls* steeply as f rises
//!    out of the low-load regime (the 120 W platform floor dominates
//!    slow serving). The burst class's work therefore lands in the
//!    *efficient* windows, so its exact share < work share — the
//!    time-blind work-share formula overbills it and quietly
//!    subsidizes the steady class. The gate computes that work share
//!    itself, from the scenario's materialized job stream.
//!
//! Results land in `results/energy.csv` and the machine-readable
//! summary `results/bench_energy.json`, whose `jobs` sums each
//! check's reference-run job count.

use sleepscale_scenario::catalog;
use sleepscale_scenario::prelude::*;
use sleepscale_workloads::WorkloadSpec;

/// Relative-error helper for line-item identities: the idle line item
/// is *derived* (`total − active`), so `active + idle` is not
/// guaranteed bit-equal to `total` — but it must agree far past any
/// physical precision.
fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-12)
}

fn parity_pair(n_servers: usize, quick: bool) -> (Scenario, Scenario) {
    let load = if quick {
        LoadSchedule::Constant { rho: 0.25, minutes: 45 }
    } else {
        LoadSchedule::EmailStoreDay { seed: 11, start_minute: 480, end_minute: 660 }
    };
    let mut untagged =
        Scenario::new("energy-parity", WorkloadSource::Custom(WorkloadSpec::dns()), load);
    untagged.eval_jobs = if quick { 200 } else { 400 };
    untagged.dist_samples = 5_000;
    untagged.seed = 9_604;
    untagged.fleet = vec![ServerGroup::new("fleet", n_servers, StrategySpec::sleepscale())];
    let mut tagged = untagged.clone();
    tagged.workload = WorkloadSource::Tagged(TrafficModel::single(WorkloadSpec::dns()));
    (untagged, tagged)
}

fn run(scenario: Scenario) -> Result<ScenarioReport, String> {
    let name = scenario.name.clone();
    ScenarioRunner::new(scenario)
        .map_err(|e| format!("{name}: invalid: {e}"))?
        .run()
        .map_err(|e| format!("{name}: run failed: {e}"))
}

/// Check 1: the ledger's total on every untouched path is the same
/// `energy_joules` the reports always carried — to the last bit —
/// whether or not the run was tagged, and across repeated runs.
fn check_total_parity(n_servers: usize, quick: bool) -> Result<(String, usize), String> {
    let (untagged, tagged) = parity_pair(n_servers, quick);
    let a = run(untagged.clone())?;
    let b = run(tagged)?;
    let again = run(untagged)?;
    if a.energy_joules().to_bits() != again.energy_joules().to_bits() {
        return Err("repeat run changed energy bytes".into());
    }
    if a.energy_joules().to_bits() != b.energy_joules().to_bits() {
        return Err(format!(
            "tagging changed total energy bytes: {} vs {}",
            a.energy_joules(),
            b.energy_joules()
        ));
    }
    if a.active_energy_joules().to_bits() != b.active_energy_joules().to_bits() {
        return Err("tagging changed active energy bytes".into());
    }
    // The backends' native reports must agree wholesale, not just on
    // the headline number.
    if a.run_report() != b.run_report() || a.cluster_report() != b.cluster_report() {
        return Err("native report diverged between tagged and untagged twins".into());
    }
    if a.total_jobs() == 0 {
        return Err("parity run produced no jobs".into());
    }
    Ok((
        format!(
            "{:.0} J bit-identical over {} jobs ({} server{})",
            a.energy_joules(),
            a.total_jobs(),
            n_servers,
            if n_servers == 1 { "" } else { "s" }
        ),
        a.total_jobs(),
    ))
}

/// Check 2: both published views reproduce the fleet total — the
/// two-line-item split (active + idle) and the per-class apportioned
/// view (Σ class energy == fleet energy).
fn check_line_items(quick: bool) -> Result<(String, usize), String> {
    let report =
        run(if quick { catalog::dns_mail_tagged().quick() } else { catalog::dns_mail_tagged() })?;
    let total = report.energy_joules();
    let active = report.active_energy_joules();
    let idle = report.idle_energy_joules();
    if !(active > 0.0 && idle > 0.0) {
        return Err(format!("degenerate split: active {active} J, idle {idle} J"));
    }
    if rel_err(active + idle, total) > 1e-9 {
        return Err(format!("active {active} + idle {idle} != total {total}"));
    }
    let class_active: f64 = report.classes().iter().map(|c| c.active_energy_joules).sum();
    if rel_err(class_active, active) > 1e-6 {
        return Err(format!("class active slices sum to {class_active}, fleet active {active}"));
    }
    let class_total: f64 = report.classes().iter().map(|c| c.energy_joules).sum();
    if rel_err(class_total, total) > 1e-6 {
        return Err(format!("apportioned class view sums to {class_total}, fleet {total}"));
    }
    Ok((
        format!(
            "active {:.0} J + idle {:.0} J = {:.0} J; {} class slices close both ways",
            active,
            idle,
            total,
            report.classes().len()
        ),
        report.total_jobs(),
    ))
}

/// Check 3: the tagged slices are merged in slot order in the cluster
/// engine's serial summary loop, so worker-thread count cannot perturb
/// a single byte of the report.
fn check_thread_invariance(quick: bool) -> Result<(String, usize), String> {
    let base = if quick { catalog::dns_mail_tagged().quick() } else { catalog::dns_mail_tagged() };
    let mut serial = base.clone();
    serial.threads = 1;
    let reference = run(serial)?;
    for threads in [2, 5] {
        let mut scenario = base.clone();
        scenario.threads = threads;
        let report = run(scenario)?;
        if report.classes() != reference.classes() {
            return Err(format!("class slices diverged at {threads} threads"));
        }
        if report.cluster_report() != reference.cluster_report() {
            return Err(format!("ClusterReport diverged at {threads} threads"));
        }
    }
    Ok((
        format!(
            "{} class slices byte-stable across 1/2/5 worker threads",
            reference.classes().len()
        ),
        reference.total_jobs(),
    ))
}

/// Check 4: with no arrivals at all, the whole fleet total is the idle
/// line item and every class reports exactly zero — yet the class view
/// plus the idle line item still reproduces fleet energy.
fn check_zero_work() -> Result<(String, usize), String> {
    let mut scenario = Scenario::new(
        "energy-zero-work",
        WorkloadSource::Tagged(TrafficModel {
            classes: vec![
                TrafficClass::new("interactive", WorkloadSpec::dns(), 1.0),
                TrafficClass::new("batch", WorkloadSpec::mail(), 1.0),
            ],
        }),
        LoadSchedule::Constant { rho: 0.0, minutes: 30 },
    );
    scenario.fleet = vec![ServerGroup::new("dark", 2, StrategySpec::sleepscale())];
    scenario.seed = 9_605;
    let report = run(scenario)?;
    if report.total_jobs() != 0 {
        return Err(format!("expected zero work, got {} jobs", report.total_jobs()));
    }
    let total = report.energy_joules();
    if total <= 0.0 {
        return Err("idle fleet burned no energy".into());
    }
    if report.active_energy_joules() != 0.0 {
        return Err(format!("zero-work active energy {} != 0", report.active_energy_joules()));
    }
    if report.idle_energy_joules().to_bits() != total.to_bits() {
        return Err("idle line item != fleet total on a zero-work run".into());
    }
    let class_sum: f64 = report.classes().iter().map(|c| c.energy_joules).sum();
    if class_sum != 0.0 {
        return Err(format!("zero-work class view sums to {class_sum} != 0"));
    }
    if rel_err(class_sum + report.idle_energy_joules(), total) > 1e-12 {
        return Err("class view + idle line item != fleet total".into());
    }
    Ok((format!("{total:.0} J, all on the idle line item; every class slice 0"), 0))
}

/// Check 5: the tentpole's raison d'être. A low base load (ρ = 0.08)
/// keeps the off-peak controllers at cheap-to-deploy but
/// expensive-per-work low frequencies, while a 10× burst confined to
/// one class pushes its serving into high-frequency windows where
/// `P(f)/f` is far lower. The burst class's exact active-energy share
/// must therefore land *below* its time-blind work share (its slice of
/// the offered full-speed work, summed over the materialized job
/// stream) — measured at ~1–2 pp on this shape. A vanishing or
/// positive gap means the exact split degenerated back into work share.
fn check_divergence(quick: bool) -> Result<(String, usize), String> {
    let minutes = if quick { 90 } else { 180 };
    let mut scenario = Scenario::new(
        "energy-attribution-divergence",
        WorkloadSource::Tagged(TrafficModel {
            classes: vec![
                TrafficClass::new("crowd", WorkloadSpec::dns(), 1.0).with_modulator(
                    ArrivalModulator::Burst {
                        start_minute: minutes / 6,
                        end_minute: minutes / 2,
                        factor: 10.0,
                    },
                ),
                TrafficClass::new("steady", WorkloadSpec::dns(), 1.0),
            ],
        }),
        LoadSchedule::Constant { rho: 0.08, minutes },
    );
    scenario.fleet = vec![ServerGroup::new("fleet", 2, StrategySpec::sleepscale())];
    scenario.eval_jobs = 300;
    scenario.seed = 4_242;
    // The gate is about attribution, not feasibility: a 10× unpredicted
    // crowd on an unpadded fleet is allowed to blow its nominal budget.
    scenario.qos_slack = 100.0;
    let name = scenario.name.clone();
    let runner = ScenarioRunner::new(scenario).map_err(|e| format!("{name}: invalid: {e}"))?;
    let (spec, trace, jobs) = runner.inputs().map_err(|e| format!("{name}: inputs: {e}"))?;
    let report = runner
        .run_with_inputs(&spec, &trace, &jobs)
        .map_err(|e| format!("{name}: run failed: {e}"))?;
    let classes = report.classes();
    if classes.len() != 2 {
        return Err(format!("expected 2 classes, got {}", classes.len()));
    }
    let active_total: f64 = classes.iter().map(|c| c.active_energy_joules).sum();
    if active_total <= 0.0 {
        return Err("no active energy to attribute".into());
    }
    let crowd = &classes[0];
    let exact_share = crowd.active_energy_joules / active_total;
    let (mut crowd_work, mut total_work) = (0.0_f64, 0.0_f64);
    for job in jobs.jobs() {
        if job.class().as_index() == usize::from(crowd.class) {
            crowd_work += job.size;
        }
        total_work += job.size;
    }
    let work_share = if total_work > 0.0 { crowd_work / total_work } else { 0.0 };
    let gap = exact_share - work_share;
    if gap >= 0.0 {
        return Err(format!(
            "burst class exact share {exact_share:.4} did not fall below work share \
             {work_share:.4}"
        ));
    }
    if gap.abs() < 1e-3 {
        return Err(format!(
            "exact share {exact_share:.4} vs work share {work_share:.4}: gap {gap:.2e} too small \
             to distinguish the attributions"
        ));
    }
    Ok((
        format!(
            "burst class: exact {:.2}% vs work-share {:.2}% ({:+.2} pp over {} jobs)",
            exact_share * 100.0,
            work_share * 100.0,
            gap * 100.0,
            crowd.jobs
        ),
        report.total_jobs(),
    ))
}

fn main() -> std::io::Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut summary = sleepscale_bench::GateSummary::start("energy", quick);
    println!("== energy gate{} ==", if quick { " (quick)" } else { "" });

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
        println!("{} {:<26} {}", if ok { "PASS" } else { "FAIL" }, check, detail);
        rows.push(vec![check.into(), (ok as u8).to_string(), detail]);
        failed |= !ok;
    };

    record("total-parity-single", check_total_parity(1, quick));
    record("total-parity-fleet", check_total_parity(if quick { 2 } else { 4 }, quick));
    record("line-item-identity", check_line_items(quick));
    record("thread-invariance", check_thread_invariance(quick));
    record("zero-work-idle", check_zero_work());
    record("exact-vs-work-share", check_divergence(quick));

    let path = sleepscale_bench::require_io(
        "writing energy.csv",
        sleepscale_bench::write_csv("energy", &["check", "ok", "detail"], &rows),
    );
    println!("\nwrote {}", path.display());
    let passed = rows.iter().filter(|r| r[1] == "1").count();
    summary.field("checks_total", sleepscale_bench::JsonValue::Int(rows.len() as u64));
    summary.field("checks_passed", sleepscale_bench::JsonValue::Int(passed as u64));
    summary.finish(!failed, jobs);
    if failed {
        eprintln!("ENERGY GATE FAILED");
        std::process::exit(1);
    }
    println!("energy gate: all checks passed — OK");
    Ok(())
}
