//! Observability gate (PR 10): pins the telemetry layer's three
//! load-bearing invariants.
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
//! 2. **Shard invariance** — the same trace bytes for every shard
//!    count in {1, 2, 3} of a `SplitUniform` variant: sharding is a
//!    throughput knob, not an observability surface.
//! 3. **Residency reconciliation** — on a traced single-server run,
//!    [`MemorySink`]'s per-C-state residency equals the engine
//!    [`Residency`] **bit for bit** (same fold, same order), wake
//!    counts match the ledger's wake accounting exactly, and the
//!    trace-implied idle energy agrees with
//!    [`EnergyLedger::idle_energy`](sleepscale_sim::EnergyLedger::idle_energy)
//!    to ≤ 1e-9 relative (the ledger splits segments across bucket
//!    boundaries; the trace does not).
//! 4. **JSONL round trip** — `events_from_jsonl(events_to_jsonl(t))`
//!    reproduces the event stream exactly.
//! 5. **`None` parity** — a telemetry-armed run, stripped of its
//!    [`TelemetryReport`], is byte-identical (including debug
//!    formatting, so sign-of-zero differences trip) to the
//!    telemetry-`None` run on both the single-server and cluster
//!    backends: observability costs untouched runs nothing.
//!
//! Writes `results/bench_obs.json`; exits non-zero on any failure.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sleepscale_bench::{GateSummary, JsonValue};
use sleepscale_scenario::catalog;
use sleepscale_scenario::prelude::*;
use sleepscale_sim::{generator, OnlineSim, Residency, SimEnv};
use sleepscale_telemetry::{events_from_jsonl, MemorySink, TraceEvent, TraceSink};
use sleepscale_workloads::WorkloadSpec;

/// The autoscaled catalog day with telemetry armed — park/unpark,
/// epoch-decision, and dispatch events all fire on this shape.
fn telemetry_scenario(quick: bool) -> Scenario {
    let mut scenario =
        if quick { catalog::autoscale_day().quick() } else { catalog::autoscale_day() };
    scenario.telemetry = Some(TelemetrySpec::full());
    scenario
}

fn run(scenario: Scenario) -> Result<ScenarioReport, String> {
    let name = scenario.name.clone();
    ScenarioRunner::new(scenario)
        .map_err(|e| format!("{name}: invalid: {e}"))?
        .run()
        .map_err(|e| format!("{name}: run failed: {e}"))
}

/// Check 1: worker threads must not perturb a single trace byte.
fn check_worker_invariance(quick: bool) -> Result<(String, usize), String> {
    let base = telemetry_scenario(quick);
    let mut serial = base.clone();
    serial.threads = 1;
    let reference = run(serial)?;
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
        let report = run(scenario)?;
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

/// Check 2: shard count must not perturb a single trace byte either.
fn check_shard_invariance(quick: bool) -> Result<(String, usize), String> {
    let mut base = telemetry_scenario(quick);
    base.name = "obs-shard-invariance".into();
    base.dispatcher = DispatcherSpec::SplitUniform { seed: 17 };
    let reference = run(base.clone())?;
    let reference_bytes =
        reference.telemetry().ok_or("telemetry-armed run returned no telemetry")?.to_jsonl();
    for shards in [2usize, 3] {
        let mut scenario = base.clone();
        scenario.shards = shards;
        let report = run(scenario)?;
        let bytes = report.telemetry().ok_or("telemetry dropped")?.to_jsonl();
        if bytes != reference_bytes {
            return Err(format!("trace bytes diverged at {shards} shards"));
        }
    }
    Ok((
        format!("{} trace bytes identical across 1/2/3 shards", reference_bytes.len()),
        reference.total_jobs(),
    ))
}

/// Check 3: the trace is not a parallel narrative — it *is* the
/// engine's accounting, re-derivable to the bit.
fn check_reconciliation(quick: bool) -> Result<(String, usize), String> {
    let spec = WorkloadSpec::dns();
    let n_jobs = if quick { 5_000 } else { 20_000 };
    let mut rng = StdRng::seed_from_u64(1_014);
    let jobs = generator::generate_poisson_exp(n_jobs, 0.25, spec.service_mean(), &mut rng)
        .map_err(|e| format!("stream generation failed: {e}"))?;
    let env = SimEnv::xeon_cpu_bound();
    let policy = sleepscale_power::Policy::new(
        sleepscale_power::Frequency::new(0.7).expect("0.7 is a legal frequency"),
        sleepscale_power::SleepProgram::immediate(sleepscale_power::presets::C6_S3),
    );
    let mut sim = OnlineSim::new(env, 300.0);
    sim.enable_trace(0);
    let horizon = jobs.last_arrival() + 60.0;
    sim.run_epoch(jobs.jobs(), &policy, horizon);
    let (ledger, residency, wakes_from, wakes_without_sleep, events) = sim.finish_traced(horizon);

    let mut sink = MemorySink::new();
    for event in &events {
        sink.record(event);
    }

    if !bitwise_residency(&sink.state_residency(), &residency) {
        return Err(format!(
            "per-C-state residency mismatch: trace {:?} vs engine {:?}",
            sink.state_residency(),
            residency.states()
        ));
    }
    if sink.active_idle_seconds().to_bits() != residency.active_idle().to_bits() {
        return Err(format!(
            "active-idle mismatch: trace {} vs engine {}",
            sink.active_idle_seconds(),
            residency.active_idle()
        ));
    }
    if sink.waking_seconds().to_bits() != residency.waking().to_bits() {
        return Err(format!(
            "waking-time mismatch: trace {} vs engine {}",
            sink.waking_seconds(),
            residency.waking()
        ));
    }
    let trace_wakes =
        events.iter().filter(|e| matches!(e, TraceEvent::Wake { from: Some(_), .. })).count()
            as u64;
    let engine_wakes: u64 = wakes_from.iter().map(|&(_, count)| count).sum();
    if trace_wakes != engine_wakes {
        return Err(format!("wake count mismatch: trace {trace_wakes} vs engine {engine_wakes}"));
    }
    let trace_dry =
        events.iter().filter(|e| matches!(e, TraceEvent::Wake { from: None, .. })).count() as u64;
    if trace_dry != wakes_without_sleep {
        return Err(format!(
            "wakes-without-sleep mismatch: trace {trace_dry} vs engine {wakes_without_sleep}"
        ));
    }
    let trace_idle = sink.idle_energy_joules();
    let ledger_idle = ledger.idle_energy().as_joules();
    let rel = (trace_idle - ledger_idle).abs() / ledger_idle.abs().max(1e-12);
    if rel > 1e-9 {
        return Err(format!(
            "idle energy mismatch: trace {trace_idle} J vs ledger {ledger_idle} J (rel {rel:.2e})"
        ));
    }
    Ok((
        format!(
            "{} events reconcile: {} C-states bitwise, {engine_wakes} wakes, idle energy within \
             {rel:.1e} relative",
            events.len(),
            residency.states().len()
        ),
        n_jobs,
    ))
}

/// Exact (to_bits) comparison of the sink's residency fold against the
/// engine's, including state order.
fn bitwise_residency(trace: &[(sleepscale_power::SystemState, f64)], engine: &Residency) -> bool {
    trace.len() == engine.states().len()
        && trace
            .iter()
            .zip(engine.states())
            .all(|((s1, t1), (s2, t2))| s1 == s2 && t1.to_bits() == t2.to_bits())
}

/// Check 4: the wire format is lossless for every event shape the
/// engines emit.
fn check_jsonl_round_trip(quick: bool) -> Result<(String, usize), String> {
    let report = run(telemetry_scenario(quick))?;
    let telemetry = report.telemetry().ok_or("telemetry-armed run returned no telemetry")?;
    let parsed =
        events_from_jsonl(&telemetry.to_jsonl()).ok_or("serialized trace failed to parse back")?;
    if parsed != telemetry.events {
        return Err("round-tripped events differ from the originals".into());
    }
    Ok((format!("{} events round-trip via JSONL losslessly", parsed.len()), report.total_jobs()))
}

/// Check 5: telemetry-off runs must be the PR-9 engine, byte for byte
/// — and a telemetry-armed run, stripped, must match them.
fn check_none_parity(quick: bool) -> Result<(String, usize), String> {
    let mut jobs = 0usize;
    // Cluster backend.
    let armed = run(telemetry_scenario(quick))?;
    let mut plain_scenario = telemetry_scenario(quick);
    plain_scenario.telemetry = None;
    let plain = run(plain_scenario)?;
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
    let armed = run(single.clone())?;
    if armed.telemetry().is_none_or(|t| t.events.is_empty()) {
        return Err("single-server armed run produced no events".into());
    }
    single.telemetry = None;
    let plain = run(single)?;
    let stripped = armed.clone().without_telemetry();
    if stripped != plain || format!("{stripped:?}") != format!("{plain:?}") {
        return Err("single backend: armed-then-stripped report != telemetry-None report".into());
    }
    jobs += plain.total_jobs();
    Ok(("armed-minus-telemetry == plain on both backends, to the debug byte".into(), jobs))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut summary = GateSummary::start("obs", quick);
    println!("== obs gate{} ==", if quick { " (quick)" } else { "" });

    let mut failed = false;
    let mut jobs_total = 0u64;
    let mut checks = 0u64;
    let mut record = |check: &str, outcome: Result<(String, usize), String>| -> u64 {
        let ok = outcome.is_ok();
        let (detail, jobs) = match outcome {
            Ok((d, j)) => (d, j),
            Err(e) => (e, 0),
        };
        println!("{} {:<22} {}", if ok { "PASS" } else { "FAIL" }, check, detail);
        failed |= !ok;
        checks += 1;
        jobs as u64
    };

    jobs_total += record("worker-invariance", check_worker_invariance(quick));
    jobs_total += record("shard-invariance", check_shard_invariance(quick));
    jobs_total += record("residency-reconcile", check_reconciliation(quick));
    jobs_total += record("jsonl-round-trip", check_jsonl_round_trip(quick));
    jobs_total += record("none-parity", check_none_parity(quick));

    let ok = !failed;
    summary.field("checks_total", JsonValue::Int(checks));
    summary.finish(ok, jobs_total);

    if !ok {
        eprintln!("OBS GATE FAILED");
        std::process::exit(1);
    }
    println!("obs gate: all checks passed — OK");
}
