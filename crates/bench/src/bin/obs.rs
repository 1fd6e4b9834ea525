//! Observability gate (PR 10): pins the telemetry layer's trace
//! determinism and its zero cost when off.
//!
//! ```sh
//! cargo run --release -p sleepscale-bench --bin obs
//! cargo run --release -p sleepscale-bench --bin obs -- --quick
//! ```
//!
//! Checks (each must hold or the bin exits non-zero):
//!
//! 1. **Worker invariance** — the merged trace (and the metrics
//!    registry) of a telemetry-armed autoscaled fleet is byte-identical
//!    across 1/2/5 worker threads: events accumulate in per-slot
//!    buffers and merge in fleet slot order, never completion order.
//! 2. **`None` parity** — a telemetry-armed run, stripped of its
//!    [`TelemetryReport`], is byte-identical (including debug
//!    formatting, so sign-of-zero differences trip) to the
//!    telemetry-`None` run on both the single-server and cluster
//!    backends: observability costs untouched runs nothing.
//!
//! The layer's other invariants are pinned elsewhere: shard-count
//! invariance of the trace by
//! `telemetry_trace_is_worker_and_shard_count_invariant` in
//! `tests/determinism.rs`, trace ↔ ledger residency reconciliation by
//! the `trace_residency_reconciles_with_energy_ledger` proptest in
//! `tests/properties.rs`, and the JSONL round trip by the `trace` bin
//! on the same quick day and by `sleepscale_telemetry`'s
//! `jsonl_round_trips`.
//!
//! Results land in `results/obs.csv` and the machine-readable summary
//! `results/bench_obs.json` through [`Gate`].

use sleepscale_bench::{run_scenario, Gate};
use sleepscale_scenario::catalog;
use sleepscale_scenario::prelude::*;

/// The autoscaled catalog day with telemetry armed — park/unpark,
/// epoch-decision, and dispatch events all fire on this shape.
fn telemetry_scenario(quick: bool) -> Scenario {
    let mut scenario =
        if quick { catalog::autoscale_day().quick() } else { catalog::autoscale_day() };
    scenario.telemetry = Some(TelemetrySpec::full());
    scenario
}

/// Check 1: worker threads must not perturb a single trace byte.
fn check_worker_invariance(quick: bool) -> Result<(String, usize), String> {
    let base = telemetry_scenario(quick);
    let mut serial = base.clone();
    serial.threads = 1;
    let reference = run_scenario(serial)?;
    let telemetry = reference.telemetry().ok_or("telemetry-armed run returned no telemetry")?;
    if telemetry.events.is_empty() {
        return Err("telemetry-armed run produced no events".into());
    }
    if telemetry.metrics.is_empty() {
        return Err("telemetry-armed run produced no metrics".into());
    }
    let reference_bytes = telemetry.to_jsonl();
    for threads in [2usize, 5] {
        let mut scenario = base.clone();
        scenario.threads = threads;
        let report = run_scenario(scenario)?;
        let t = report.telemetry().ok_or("telemetry dropped")?;
        if t.to_jsonl() != reference_bytes {
            return Err(format!("trace bytes diverged at {threads} worker threads"));
        }
        if t.metrics != telemetry.metrics {
            return Err(format!("metrics registry diverged at {threads} worker threads"));
        }
    }
    Ok((
        format!(
            "{} events / {} counters byte-stable across 1/2/5 worker threads",
            telemetry.events.len(),
            telemetry.metrics.counters().len()
        ),
        reference.total_jobs(),
    ))
}

/// Check 2: telemetry-off runs must be the PR-9 engine, byte for byte
/// — and a telemetry-armed run, stripped, must match them.
fn check_none_parity(quick: bool) -> Result<(String, usize), String> {
    let mut jobs = 0usize;
    // Cluster backend.
    let armed = run_scenario(telemetry_scenario(quick))?;
    let mut plain_scenario = telemetry_scenario(quick);
    plain_scenario.telemetry = None;
    let plain = run_scenario(plain_scenario)?;
    if plain.telemetry().is_some() {
        return Err("telemetry-None run carried a TelemetryReport".into());
    }
    let stripped = armed.clone().without_telemetry();
    if stripped != plain || format!("{stripped:?}") != format!("{plain:?}") {
        return Err("cluster backend: armed-then-stripped report != telemetry-None report".into());
    }
    jobs += plain.total_jobs();
    // Single-server backend.
    let mut single = if quick { catalog::dns_day().quick() } else { catalog::dns_day() };
    single.telemetry = Some(TelemetrySpec::full());
    let armed = run_scenario(single.clone())?;
    if armed.telemetry().is_none_or(|t| t.events.is_empty()) {
        return Err("single-server armed run produced no events".into());
    }
    single.telemetry = None;
    let plain = run_scenario(single)?;
    let stripped = armed.clone().without_telemetry();
    if stripped != plain || format!("{stripped:?}") != format!("{plain:?}") {
        return Err("single backend: armed-then-stripped report != telemetry-None report".into());
    }
    jobs += plain.total_jobs();
    Ok(("armed-minus-telemetry == plain on both backends, to the debug byte".into(), jobs))
}

fn main() {
    let mut gate = Gate::start("obs");
    let quick = gate.quick();
    gate.check("worker-invariance", check_worker_invariance(quick));
    gate.check("none-parity", check_none_parity(quick));
    gate.finish();
}
