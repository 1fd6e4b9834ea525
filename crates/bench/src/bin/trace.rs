//! Renders a structured telemetry trace (PR 10) as per-server
//! C-state/frequency residency tables and an epoch timeline.
//!
//! ```sh
//! cargo run --release -p sleepscale-bench --bin trace
//! cargo run --release -p sleepscale-bench --bin trace -- --quick
//! cargo run --release -p sleepscale-bench --bin trace -- --input results/trace.jsonl
//! ```
//!
//! By default the bin runs the telemetry-armed autoscaled catalog day
//! (`--quick`: its reduced smoke version), writes the merged event
//! stream to `results/trace.jsonl` through `FileSink`, then checks the
//! file: it must hold exactly the bytes of `TelemetryReport::to_jsonl`
//! and parse back to the run's events. The event count, the file size
//! and the wall-clock seconds of the `FileSink` write land in
//! `results/bench_trace.json`, beside the trace and never inside it.
//! Everything is then rendered *from the file*. `--input <path>` skips
//! the run and renders an existing JSONL trace instead, so any archived
//! run can be inspected offline. Exits non-zero when a check fails, or
//! when the file does not parse or holds no events.

use sleepscale_bench::{require_io, results_dir, GateSummary, JsonValue};
use sleepscale_scenario::catalog;
use sleepscale_scenario::prelude::*;
use sleepscale_telemetry::{events_from_jsonl, FileSink, TraceEvent, TraceFormat, TraceSink};
use std::path::PathBuf;
use std::time::Instant;

/// Per-server accumulators folded from the event stream.
#[derive(Default)]
struct ServerView {
    /// `(state label, seconds)` in first-entered order.
    states: Vec<(String, f64)>,
    active_idle: f64,
    waking: f64,
    wakes: u64,
    /// `(frequency, epochs)` in first-chosen order.
    frequencies: Vec<(f64, u64)>,
    decisions: u64,
    cache_hits: u64,
}

/// Per-epoch accumulators for the timeline.
#[derive(Default)]
struct EpochView {
    decisions: u64,
    cache_hits: u64,
    rho_sum: f64,
    f_min: f64,
    f_max: f64,
    freq_changes: u64,
}

fn add_keyed<K: PartialEq, V: Copy + std::ops::AddAssign>(
    entries: &mut Vec<(K, V)>,
    key: K,
    delta: V,
) {
    if let Some(entry) = entries.iter_mut().find(|(k, _)| *k == key) {
        entry.1 += delta;
    } else {
        entries.push((key, delta));
    }
}

/// Runs the telemetry-armed autoscaled day, writes its trace through
/// `FileSink`, checks the file against the in-memory run and records
/// the write in `results/bench_trace.json`. Returns the file's path and
/// the events parsed from it; exits non-zero when a check fails.
fn write_day(quick: bool) -> (PathBuf, Vec<TraceEvent>) {
    let mut summary = GateSummary::start("trace", quick);
    let mut scenario =
        if quick { catalog::autoscale_day().quick() } else { catalog::autoscale_day() };
    scenario.telemetry = Some(TelemetrySpec::full());
    let report = ScenarioRunner::new(scenario)
        .expect("catalog scenario is valid")
        .run()
        .expect("telemetry run succeeds");
    let telemetry = report.telemetry().expect("telemetry-armed run returns telemetry");
    let dir = results_dir();
    require_io("creating the results directory", std::fs::create_dir_all(&dir));
    let jsonl_path = dir.join("trace.jsonl");
    let started = Instant::now();
    let mut sink =
        require_io("creating trace.jsonl", FileSink::create(&jsonl_path, TraceFormat::Jsonl));
    for event in &telemetry.events {
        sink.record(event);
    }
    require_io("flushing trace.jsonl", sink.flush());
    let write_seconds = started.elapsed().as_secs_f64();
    println!("wrote {} ({} events)", jsonl_path.display(), telemetry.events.len());
    println!(
        "counters: {}",
        telemetry
            .metrics
            .counters()
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join("  ")
    );

    let text = require_io("reading trace.jsonl", std::fs::read_to_string(&jsonl_path));
    let same_bytes = text == telemetry.to_jsonl();
    let parsed = events_from_jsonl(&text);
    let same_events = parsed.as_ref() == Some(&telemetry.events);
    let verdict = |ok: bool| if ok { "PASS" } else { "FAIL" };
    println!("{} file bytes == TelemetryReport::to_jsonl()", verdict(same_bytes));
    println!("{} file parses back to the run's events", verdict(same_events));
    summary.field("events", JsonValue::Int(telemetry.events.len() as u64));
    summary.field("trace_bytes", JsonValue::Int(text.len() as u64));
    summary.field("write_seconds", JsonValue::Num(write_seconds));
    let ok = same_bytes && same_events;
    summary.finish(ok, report.total_jobs() as u64);
    match parsed {
        Some(events) if ok => (jsonl_path, events),
        _ => {
            eprintln!("FATAL: {} does not hold the run's trace", jsonl_path.display());
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let input: Option<&String> =
        args.iter().enumerate().find(|(_, a)| *a == "--input").and_then(|(i, _)| args.get(i + 1));

    // Everything below renders from the file, not the in-memory run.
    let (path, events) = match input {
        Some(path) => {
            let path = PathBuf::from(path);
            let text = require_io("reading the trace file", std::fs::read_to_string(&path));
            let Some(events) = events_from_jsonl(&text) else {
                eprintln!("FATAL: {} is not a parseable JSONL trace", path.display());
                std::process::exit(1);
            };
            (path, events)
        }
        None => write_day(quick),
    };
    if events.is_empty() {
        eprintln!("FATAL: {} holds no events", path.display());
        std::process::exit(1);
    }

    let mut servers: Vec<(u32, ServerView)> = Vec::new();
    let mut epochs: Vec<(u32, EpochView)> = Vec::new();
    let view = |servers: &mut Vec<(u32, ServerView)>, id: u32| -> usize {
        match servers.iter().position(|(s, _)| *s == id) {
            Some(i) => i,
            None => {
                servers.push((id, ServerView::default()));
                servers.len() - 1
            }
        }
    };
    let mut scale_log: Vec<&TraceEvent> = Vec::new();
    let mut spills = 0u64;
    let mut fallbacks = 0u64;
    for event in &events {
        match event {
            TraceEvent::CState { server, seconds, state, .. } => {
                let i = view(&mut servers, *server);
                add_keyed(&mut servers[i].1.states, state.label().to_string(), *seconds);
            }
            TraceEvent::ActiveIdle { server, seconds, .. } => {
                let i = view(&mut servers, *server);
                servers[i].1.active_idle += seconds;
            }
            TraceEvent::Wake { server, latency, from, .. } => {
                let i = view(&mut servers, *server);
                servers[i].1.waking += latency;
                servers[i].1.wakes += u64::from(from.is_some());
            }
            TraceEvent::EpochDecision {
                server,
                epoch,
                predicted_rho,
                frequency,
                cache_hit,
                ..
            } => {
                let i = view(&mut servers, *server);
                let sv = &mut servers[i].1;
                add_keyed(&mut sv.frequencies, *frequency, 1u64);
                sv.decisions += 1;
                sv.cache_hits += u64::from(*cache_hit);
                let e = match epochs.iter_mut().find(|(k, _)| k == epoch) {
                    Some((_, e)) => e,
                    None => {
                        epochs.push((*epoch, EpochView { f_min: f64::MAX, ..Default::default() }));
                        &mut epochs.last_mut().expect("just pushed").1
                    }
                };
                e.decisions += 1;
                e.cache_hits += u64::from(*cache_hit);
                e.rho_sum += predicted_rho;
                e.f_min = e.f_min.min(*frequency);
                e.f_max = e.f_max.max(*frequency);
            }
            TraceEvent::FrequencyChange { epoch, .. } => {
                if let Some((_, e)) = epochs.iter_mut().find(|(k, _)| k == epoch) {
                    e.freq_changes += 1;
                }
            }
            TraceEvent::DispatchSpill { fallback, .. } => {
                spills += 1;
                fallbacks += u64::from(*fallback);
            }
            TraceEvent::Park { .. } | TraceEvent::Unpark { .. } => scale_log.push(event),
        }
    }
    servers.sort_by_key(|(id, _)| *id);
    epochs.sort_by_key(|(k, _)| *k);

    // Table 1: per-server C-state residency (seconds per ladder state,
    // plus the pre-tau active-idle and wake-latency columns).
    let mut state_order: Vec<String> = Vec::new();
    for (_, sv) in &servers {
        for (label, _) in &sv.states {
            if !state_order.contains(label) {
                state_order.push(label.clone());
            }
        }
    }
    println!("\n== per-server C-state residency (s) ==");
    print!("{:>6} {:>11} {:>9} {:>7}", "server", "active-idle", "waking", "wakes");
    for label in &state_order {
        print!(" {label:>10}");
    }
    println!();
    for (id, sv) in &servers {
        print!("{:>6} {:>11.1} {:>9.3} {:>7}", id, sv.active_idle, sv.waking, sv.wakes);
        for label in &state_order {
            let t = sv.states.iter().find(|(l, _)| l == label).map_or(0.0, |(_, t)| *t);
            print!(" {t:>10.1}");
        }
        println!();
    }

    // Table 2: per-server frequency residency, in epochs at each
    // chosen DVFS point (the trace records decisions, not seconds —
    // epoch length is uniform, so epochs *are* the residency).
    let mut freq_order: Vec<f64> = Vec::new();
    for (_, sv) in &servers {
        for (f, _) in &sv.frequencies {
            if !freq_order.iter().any(|g| g == f) {
                freq_order.push(*f);
            }
        }
    }
    freq_order.sort_by(|a, b| a.partial_cmp(b).expect("frequencies are finite"));
    println!("\n== per-server frequency residency (epochs at each f) ==");
    print!("{:>6} {:>7} {:>7}", "server", "epochs", "cache%");
    for f in &freq_order {
        print!(" {:>7}", format!("f={f:.2}"));
    }
    println!();
    for (id, sv) in &servers {
        let hit_rate = 100.0 * sv.cache_hits as f64 / (sv.decisions.max(1)) as f64;
        print!("{:>6} {:>7} {:>6.0}%", id, sv.decisions, hit_rate);
        for f in &freq_order {
            let n = sv.frequencies.iter().find(|(g, _)| g == f).map_or(0, |(_, n)| *n);
            print!(" {n:>7}");
        }
        println!();
    }

    // Epoch timeline: the fleet's decisions per boundary.
    println!("\n== epoch timeline ==");
    println!(
        "{:>6} {:>10} {:>8} {:>8} {:>10} {:>12}",
        "epoch", "decisions", "mean rho", "f range", "cache hits", "freq changes"
    );
    for (k, e) in &epochs {
        println!(
            "{:>6} {:>10} {:>8.3} {:>8} {:>10} {:>12}",
            k,
            e.decisions,
            e.rho_sum / e.decisions.max(1) as f64,
            if e.f_min == e.f_max {
                format!("{:.2}", e.f_min)
            } else {
                format!("{:.2}-{:.2}", e.f_min, e.f_max)
            },
            e.cache_hits,
            e.freq_changes
        );
    }

    if spills > 0 {
        println!("\ndispatch: {spills} spills off the preferred group ({fallbacks} fallbacks)");
    }
    if !scale_log.is_empty() {
        println!("\n== autoscaler park/wake log ==");
        for event in &scale_log {
            match event {
                TraceEvent::Park { server, at, cause } => {
                    println!("{at:>10.0}s  park   server {server:<4} {}", cause.describe());
                }
                TraceEvent::Unpark { server, at, cause } => {
                    println!("{at:>10.0}s  unpark server {server:<4} {}", cause.describe());
                }
                _ => unreachable!("scale_log holds only park/unpark events"),
            }
        }
    }
    println!("\n{} events from {}", events.len(), path.display());
}
