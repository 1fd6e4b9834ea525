//! The SleepScale reproduction's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --io-dir <dir>
//! ```
//!
//! `perfbench/run.py` builds this binary and calls it. One process runs
//! one workload, so `peak_rss_mb` (the process-wide `VmHWM`) never
//! includes another workload's peak. Every scenario runs on 2 worker
//! threads. The simulator is a batch program: each run replays a fixed
//! input made from the seed, and throughput is simulated jobs per host
//! second at that input's size.
//!
//! `--seed` is the scenario seed, which draws the job stream; the load
//! schedule keeps its catalog seed. A process cycles through six
//! scenario seeds derived from it (`workloads::sub_seed`, the first is
//! `--seed` itself), running each at least once and repeating until
//! `--seconds` have passed.
//!
//! `--trace 0` runs the scenario through `ScenarioRunner`, the user
//! entry point, untraced, and prints the end-to-end metrics, timings as
//! medians over runs:
//!
//! * `jobs_per_s`: jobs over host seconds for the whole scenario
//!   (inputs, run, and the trace and report files);
//! * `setup_s`: host seconds in `ScenarioRunner::inputs`;
//! * `peak_rss_mb`: `VmHWM` after the first run (later runs reuse a heap
//!   the earlier ones fragmented, and read higher and less steadily);
//! * `output_mb`: bytes written to the trace and report files (the
//!   report file keeps it above zero on workloads without a trace);
//! * `sim_avg_power_w` and `sim_p95_response_s`: the modelled outputs,
//!   means over the six seeds. One seed's modelled p95 can move by
//!   ±20%, more than any bound allows. The paper's own QoS axis, µ·E[R],
//!   is a check rather than a metric: on `autoscale-day-traced` even
//!   its six-seed mean spread by 21% across `--seed`s.
//!
//! Jobs a report does not account for go to the result's `failed`
//! count; a run with a failed check counts all its jobs as failed.
//!
//! `--trace 1` alternates that untraced run with a traced pass of the
//! same seed, which drives the scenario through the lower-level public
//! APIs and must reproduce the untraced report byte for byte, and prints
//! the per-layer metrics (medians over passes; `*.p50` and `*.tail` over
//! the pooled samples, `*.samples` giving their count). Spans are kept in
//! memory and written to `spans.csv` in the I/O directory after each
//! pass.
//!
//! Every run is checked: jobs are conserved, active plus idle energy is
//! the total, every traffic class meets its p95 budget, and a seed's
//! report digest is the same in every run. The paper's mean-response
//! constraint is checked per server group over all the days a process
//! simulated; a day that misses it on its own is printed as a note. A
//! failed check makes the command exit non-zero.
//!
//! Why each workload exists:
//!
//! * `paper-day` — the paper's §6 day (`catalog::dns_day`: one Xeon,
//!   full SleepScale, α = 0.35): the only workload on the single-server
//!   runtime. Its traced runs checkpoint into a fresh journal, which
//!   makes it the only workload on the journal too; its untraced runs
//!   do not (see `Workload::output`).
//! * `fleet64-day` — `catalog::fleet64`: 64 managed servers behind
//!   join-shortest-backlog, central loop. Every job goes through the
//!   dispatch index, and every server characterizes against the
//!   group-shared cache.
//! * `race-fleet-sharded` — 4 096 race-to-halt servers, seeded-hash
//!   routing, 2 shards, constant ρ = 0.15 for an hour: the bypass case,
//!   with no characterization, journal or telemetry. Its cost is the
//!   input replay, per-job simulation and the sharded split and merge.
//! * `autoscale-day-traced` — `catalog::autoscale_day` with full
//!   telemetry written as JSONL: the only workload with the autoscaler,
//!   class-affinity routing, tagged traffic and telemetry on.
//!
//! Which end-to-end metric each layer metric should move:
//!
//! * `workloads.*` → `setup_s`, most on `race-fleet-sharded`.
//! * `core.*` → `jobs_per_s` on `paper-day`; zero on
//!   `race-fleet-sharded`.
//! * `cluster.run_s`, `self_s`, `routes`, `route_ns` → `jobs_per_s` on
//!   `fleet64-day` and `autoscale-day-traced`; `cluster.epoch_ms.*` and
//!   `cluster.cache_*` → `jobs_per_s` on `fleet64-day`;
//!   `cluster.sharded_ns_per_job` → `jobs_per_s` and `peak_rss_mb` on
//!   `race-fleet-sharded`; `cluster.spills`, `fallbacks` →
//!   `sim_p95_response_s` on `autoscale-day-traced`.
//! * `autoscale.*` → `sim_avg_power_w` and `sim_p95_response_s` on
//!   `autoscale-day-traced`.
//! * `journal.*` → no end-to-end metric: they are the cost a journal
//!   adds to `paper-day`, whose untraced runs do not journal.
//! * `telemetry.*` → `jobs_per_s`, `output_mb` and `peak_rss_mb` on
//!   `autoscale-day-traced`.
//!
//! `power` and `analytic` get no metric: no workload spends measurable
//! time in them. A layer a workload does not use reads 0.

mod run;
mod stats;
mod traced;
mod workloads;

use run::{peak_rss_bytes, run_scenario, Io, RunChecks};
use stats::{median, tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

/// The end-to-end metrics, with their units, in output order.
const END_TO_END_METRICS: [(&str, &str); 6] = [
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
    ("sim_avg_power_w", "W"),
    ("sim_p95_response_s", "s"),
];

/// The parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    io_dir: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut io_dir) =
        (None, None, 10.0_f64, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(
                    Workload::parse(&value)
                        .ok_or(format!("unknown workload {value:?}; one of {names:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value:?}: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds {value:?} must be finite and >= 0"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                }
            }
            "--io-dir" => io_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        io_dir: io_dir.ok_or("--io-dir is required")?,
    })
}

/// The result line's fields.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Counts a finished run's jobs: all of them failed if any check
    /// failed, else those the report does not account for.
    fn run(&mut self, offered: usize, completed: usize, failures: &[String]) {
        self.attempted += offered.max(1) as u64;
        self.failed += if failures.is_empty() {
            offered.saturating_sub(completed) as u64
        } else {
            offered.max(1) as u64
        };
        self.failures.extend_from_slice(failures);
    }

    /// Counts a run that ended in an error.
    fn error(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(msg);
    }

    fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }
}

/// Ends a run: QoS over every day it simulated.
fn finish_checks(checks: &RunChecks, tally: &mut Tally, notes: &mut String) {
    for day in &checks.day_misses {
        let _ = writeln!(notes, "one day misses QoS on its own: {day}");
    }
    for failure in checks.qos_failures() {
        tally.error(failure);
    }
}

/// Runs the untraced workload, cycling through its sub-seeds, until
/// each has run and `seconds` have passed, and returns the end-to-end
/// metrics: timings are medians over runs, and the deterministic
/// outputs are means over sub-seeds.
fn end_to_end(
    args: &Args,
    io: &Io,
    tally: &mut Tally,
    notes: &mut String,
) -> BTreeMap<&'static str, f64> {
    let scenarios = args.workload.scenarios(args.seed);
    let start = Instant::now();
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let mut checks = RunChecks::default();
    // Per sub-seed: output MB, power, p95.
    let mut outputs: Vec<Option<[f64; 3]>> = vec![None; scenarios.len()];
    let mut first_peak = 0.0;
    for (run, i) in (0..scenarios.len()).cycle().enumerate() {
        match run_scenario(args.workload.output(false), &scenarios[i], io, false) {
            Ok(outcome) => {
                let failures = checks.record(&scenarios[i], &outcome);
                tally.run(outcome.offered, outcome.report.total_jobs(), &failures);
                rates.push(outcome.offered as f64 / outcome.whole_s);
                setups.push(outcome.setup_s);
                eprintln!(
                    "run {} (seed {}): {:.3} s whole, {:.3} s setup, {} jobs",
                    run + 1,
                    scenarios[i].seed,
                    outcome.whole_s,
                    outcome.setup_s,
                    outcome.offered
                );
                if run == 0 {
                    // The first run's peak: later runs reuse a heap the
                    // earlier ones fragmented, and read higher and less
                    // steadily than a user's single run would.
                    match peak_rss_bytes() {
                        Ok(bytes) => first_peak = bytes as f64 / 1e6,
                        Err(e) => tally.error(e),
                    }
                }
                let report = &outcome.report;
                outputs[i] = Some([
                    outcome.output_bytes as f64 / 1e6,
                    report.avg_power_watts(),
                    report.p95_response_seconds(),
                ]);
            }
            Err(e) => tally.error(e),
        }
        let all_seeds = run + 1 >= scenarios.len();
        if !tally.correct() || (all_seeds && start.elapsed().as_secs_f64() >= args.seconds) {
            break;
        }
    }
    finish_checks(&checks, tally, notes);
    let mut metrics = BTreeMap::new();
    let outputs: Vec<[f64; 3]> = outputs.into_iter().flatten().collect();
    if outputs.is_empty() {
        return metrics;
    }
    metrics.insert("peak_rss_mb", first_peak);
    metrics.insert("jobs_per_s", median(&rates));
    metrics.insert("setup_s", median(&setups));
    let names = ["output_mb", "sim_avg_power_w", "sim_p95_response_s"];
    for (k, name) in names.into_iter().enumerate() {
        metrics.insert(name, outputs.iter().map(|o| o[k]).sum::<f64>() / outputs.len() as f64);
    }
    metrics
}

/// Alternates untraced runs with traced passes of the same sub-seed,
/// cycling through the sub-seeds, until `seconds` have passed, and
/// returns the per-layer metrics, with the percentile metrics'
/// sample counts appended to `notes`.
fn per_layer(
    args: &Args,
    io: &Io,
    tally: &mut Tally,
    notes: &mut String,
) -> BTreeMap<&'static str, f64> {
    let scenarios = args.workload.scenarios(args.seed);
    let clock_ns = stats::clock_pair_ns();
    let start = Instant::now();
    let mut passes: Vec<traced::PassSample> = Vec::new();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut checks = RunChecks::default();
    let mut spans_csv = format!("{}\n", traced::SPANS_CSV_HEADER);
    for i in (0..scenarios.len()).cycle() {
        let output = args.workload.output(true);
        let reference = match run_scenario(output, &scenarios[i], io, true) {
            Ok(outcome) => outcome,
            Err(e) => {
                tally.error(e);
                break;
            }
        };
        let failures = checks.record(&scenarios[i], &reference);
        tally.run(reference.offered, reference.report.total_jobs(), &failures);
        untraced_s.push(reference.whole_s);
        match traced::traced_pass(output, &scenarios[i], io, &reference, clock_ns) {
            Ok(pass) => {
                tally.run(pass.offered, pass.offered, &pass.failures);
                eprintln!(
                    "pass {} (seed {}): untraced {:.3} s, traced {:.3} s",
                    passes.len() + 1,
                    scenarios[i].seed,
                    reference.whole_s,
                    pass.wall_s
                );
                traced_s.push(pass.wall_s);
                pass.spans.write_csv(passes.len(), &mut spans_csv);
                passes.push(pass);
            }
            Err(e) => tally.error(e),
        }
        if let Err(e) = std::fs::write(&io.spans, &spans_csv) {
            tally.error(format!("writing {}: {e}", io.spans.display()));
        }
        if !tally.correct() || start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    finish_checks(&checks, tally, notes);

    let pool = |name: &str| -> Vec<f64> {
        passes.iter().flat_map(|p| p.pools.get(name).into_iter().flatten().copied()).collect()
    };
    let mut metrics = BTreeMap::new();
    for (name, _) in traced::LAYER_METRICS {
        let value = match name.rsplit_once('.') {
            Some((base, "p50")) => median(&pool(base)),
            Some((base, "samples")) => pool(base).len() as f64,
            Some((base, "tail")) => {
                let samples = pool(base);
                match tail(&samples) {
                    Some(t) => {
                        let q = t.quantile * 100.0;
                        let _ = writeln!(notes, "{name} is p{q} over {} samples", t.samples);
                        t.value
                    }
                    None => {
                        let n = samples.len();
                        let _ = writeln!(notes, "{name}: {n} samples, too few for a tail");
                        0.0
                    }
                }
            }
            _ => median(
                &passes
                    .iter()
                    .map(|p| p.values.get(name).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            ),
        };
        metrics.insert(name, value);
    }
    metrics.insert("bench.clock_pair_ns", clock_ns);
    metrics.insert("bench.traced_passes", passes.len() as f64);
    let untraced = median(&untraced_s);
    metrics.insert(
        "bench.trace_overhead_frac",
        if untraced > 0.0 { median(&traced_s) / untraced - 1.0 } else { 0.0 },
    );
    metrics
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// of `table` with its unit (0 for any the run could not measure).
fn result_line(tally: &Tally, table: &[(&str, &str)], metrics: &BTreeMap<&str, f64>) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = metrics.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    line
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let io = match Io::new(&args.io_dir) {
        Ok(io) => io,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut notes = String::new();
    let (table, metrics): (&[(&str, &str)], _) = if args.trace {
        (&traced::LAYER_METRICS, per_layer(&args, &io, &mut tally, &mut notes))
    } else {
        (&END_TO_END_METRICS, end_to_end(&args, &io, &mut tally, &mut notes))
    };
    if let Err(e) = io.clear() {
        tally.error(e);
    }
    for non_finite in metrics.iter().filter(|(_, v)| !v.is_finite()) {
        tally.error(format!("metric {} is {}", non_finite.0, non_finite.1));
    }

    println!("workload {} seed {:?}", args.workload.name(), args.seed);
    for (name, unit) in table {
        println!("  {name:<32} {:>16.6} {unit}", metrics.get(name).copied().unwrap_or(0.0));
    }
    print!("{notes}");
    for failure in &tally.failures {
        println!("FAILED: {failure}");
    }
    println!("{}", result_line(&tally, table, &metrics));
    if tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
