//! Autoscale gate: proves the fleet control plane earns its keep —
//! class-aware routing plus the closed-loop autoscaler beats the best
//! *class-blind fixed* fleet on total energy while every traffic class
//! still meets its own p95 budget — and that autoscaled runs keep the
//! engine's crash-recovery contract.
//!
//! ```sh
//! cargo run --release -p sleepscale-bench --bin autoscale
//! cargo run --release -p sleepscale-bench --bin autoscale -- --quick
//! ```
//!
//! Checks (each must hold or the bin exits non-zero):
//!
//! 1. **Energy vs best fixed fleet** — the `autoscale-day` scenario
//!    (class-affinity routing + autoscaler) must burn strictly less
//!    total energy than the best QoS-feasible class-blind
//!    join-shortest-backlog fixed fleet evaluated over the *same*
//!    materialized inputs, while parking real server-time and meeting
//!    every class budget itself. Full mode sweeps fixed sizes
//!    {100 %, 75 %, 50 %} of the fleet (undersized fleets must either
//!    lose on QoS or the autoscaler must undercut them); quick mode
//!    compares at full size only (its truncated window is all trough,
//!    where a right-sized *small* fixed fleet is trivially optimal —
//!    the size sweep needs the day's peak to be meaningful).
//! 2. **Kill/resume** — an autoscaled checkpointed run killed at an
//!    epoch boundary resumes byte-identical to the uninterrupted run
//!    (the controller's state rides the PR-8 journal).
//!
//! Worker- and shard-count invariance of the quick day are pinned by
//! `autoscaled_scenario_is_thread_count_invariant` and
//! `autoscaled_sharded_fleet_matches_central_bytes` in
//! `tests/determinism.rs`.
//!
//! Results land in `results/autoscale.csv` and
//! `results/bench_autoscale.json` through [`Gate`], with the energy
//! comparison's figures as extra fields.

use sleepscale_bench::{scenario_runner, Gate, JsonValue};
use sleepscale_journal::KillPlan;
use sleepscale_scenario::catalog;
use sleepscale_scenario::prelude::*;

/// The class-blind control arm at a fraction of the autoscaled fleet:
/// same groups, counts scaled (each keeps at least one server),
/// join-shortest-backlog, no autoscaler.
fn fixed_baseline(base: &Scenario, fraction: f64) -> Scenario {
    let mut scenario = base.clone();
    scenario.name = format!("{}-fixed-{:.0}pct", base.name, fraction * 100.0);
    scenario.dispatcher = DispatcherSpec::JoinShortestBacklog;
    scenario.autoscaler = None;
    for group in &mut scenario.fleet {
        group.count = ((group.count as f64 * fraction).round() as usize).max(1);
    }
    scenario
}

struct EnergyOutcome {
    jobs: usize,
    autoscaled_energy: f64,
    best_fixed_energy: f64,
    best_fixed_label: String,
    parked_server_seconds: f64,
}

/// Check 1: the headline claim. Everything runs over one set of
/// materialized inputs (same jobs, same trace), so the comparison is a
/// pure engine/control-plane comparison, not a replay-noise lottery.
fn check_energy(quick: bool) -> Result<(String, EnergyOutcome), String> {
    let scenario = if quick { catalog::autoscale_day().quick() } else { catalog::autoscale_day() };
    let runner = scenario_runner(scenario)?;
    let (spec, trace, jobs) = runner.inputs().map_err(|e| format!("inputs: {e}"))?;
    let autoscaled = runner
        .run_with_inputs(&spec, &trace, &jobs)
        .map_err(|e| format!("autoscale-day: run failed: {e}"))?;
    if !autoscaled.qos_ok() {
        return Err(format!(
            "autoscaled run missed a budget: {:?}",
            autoscaled.classes().iter().map(|c| (&c.name, c.qos_ok)).collect::<Vec<_>>()
        ));
    }
    if autoscaled.parked_server_seconds() <= 0.0 {
        return Err("autoscaler never parked a server over the day".into());
    }

    let fractions: &[f64] = if quick { &[1.0] } else { &[1.0, 0.75, 0.5] };
    let mut feasible = 0usize;
    let mut best: Option<(f64, String)> = None;
    for &fraction in fractions {
        let baseline = fixed_baseline(runner.scenario(), fraction);
        let name = baseline.name.clone();
        let report = scenario_runner(baseline)?
            .run_with_inputs(&spec, &trace, &jobs)
            .map_err(|e| format!("{name}: run failed: {e}"))?;
        if !report.qos_ok() {
            continue;
        }
        feasible += 1;
        if best.as_ref().is_none_or(|(e, _)| report.energy_joules() < *e) {
            best = Some((report.energy_joules(), name));
        }
    }
    let Some((best_energy, best_label)) = best else {
        return Err("no class-blind fixed baseline met QoS — nothing to beat".into());
    };
    if autoscaled.energy_joules() >= best_energy {
        return Err(format!(
            "autoscaled {:.0} J did not beat best class-blind fixed fleet {best_label} at \
             {best_energy:.0} J",
            autoscaled.energy_joules()
        ));
    }
    let saved = 100.0 * (1.0 - autoscaled.energy_joules() / best_energy);
    Ok((
        format!(
            "{:.0} J vs {best_energy:.0} J ({best_label}): {saved:.1}% saved, {:.0} server-s \
             parked, {feasible}/{} baselines QoS-feasible",
            autoscaled.energy_joules(),
            autoscaled.parked_server_seconds(),
            fractions.len()
        ),
        EnergyOutcome {
            jobs: autoscaled.total_jobs(),
            autoscaled_energy: autoscaled.energy_joules(),
            best_fixed_energy: best_energy,
            best_fixed_label: best_label,
            parked_server_seconds: autoscaled.parked_server_seconds(),
        },
    ))
}

/// Check 2: the controller's snapshot rides the journal — a run killed
/// at an epoch boundary resumes to the uninterrupted bytes.
fn check_resume() -> Result<(String, usize), String> {
    let scenario = catalog::autoscale_day().quick();
    let n_epochs = scenario.load.minutes().div_ceil(scenario.epoch_minutes);
    let runner = scenario_runner(scenario)?;
    let reference = runner.run().map_err(|e| format!("run: {e}"))?;
    let path = std::env::temp_dir()
        .join(format!("sleepscale-autoscale-gate-{}-resume.ssj", std::process::id()));
    for k in [0, n_epochs / 2, n_epochs.saturating_sub(2)] {
        let _ = std::fs::remove_file(&path);
        match runner.run_checkpointed(&path, KillPlan::after_epoch(k)) {
            Ok(None) => {}
            Ok(Some(_)) => return Err(format!("kill at epoch {k} did not abort the run")),
            Err(e) => return Err(format!("checkpointed run failed at epoch {k}: {e}")),
        }
        let resumed = runner.resume(&path).map_err(|e| format!("resume at epoch {k}: {e}"))?;
        if resumed != reference || format!("{resumed:?}") != format!("{reference:?}") {
            return Err(format!("resume after kill at epoch {k} diverged"));
        }
    }
    let _ = std::fs::remove_file(&path);
    Ok((
        format!("kill/resume byte-identical at 3 boundaries over {n_epochs} epochs"),
        reference.total_jobs(),
    ))
}

fn main() {
    let mut gate = Gate::start("autoscale");
    let energy = check_energy(gate.quick());
    let outcome = energy.as_ref().ok().map(|(_, outcome)| outcome);
    let num = |field: fn(&EnergyOutcome) -> f64| JsonValue::Num(outcome.map_or(f64::NAN, field));
    gate.field("autoscaled_energy_joules", num(|e| e.autoscaled_energy));
    gate.field("best_fixed_energy_joules", num(|e| e.best_fixed_energy));
    let label = outcome.map_or(String::new(), |e| e.best_fixed_label.clone());
    gate.field("best_fixed_label", JsonValue::Str(label));
    gate.field("parked_server_seconds", num(|e| e.parked_server_seconds));
    gate.check("energy-vs-best-fixed", energy.map(|(detail, outcome)| (detail, outcome.jobs)));
    gate.check("kill-resume", check_resume());
    gate.finish();
}
