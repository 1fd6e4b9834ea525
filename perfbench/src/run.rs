//! One untraced run of a workload through `ScenarioRunner`, and the
//! output checks every run must pass.

use crate::workloads::Output;
use sleepscale_journal::{fnv1a64, KillPlan};
use sleepscale_scenario::{Scenario, ScenarioReport, ScenarioRunner};
use sleepscale_sim::JobStream;
use sleepscale_telemetry::{FileSink, MetricsRegistry, TraceFormat, TraceSink};
use std::collections::BTreeMap;
use std::fs;
use std::hash::{DefaultHasher, Hasher};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Relative tolerance of the energy identity check.
const ENERGY_TOLERANCE: f64 = 1e-9;

/// The files a run writes, all inside one directory of the checkout.
#[derive(Debug, Clone)]
pub struct Io {
    /// The directory holding the files below.
    pub dir: PathBuf,
    /// The epoch journal (`paper-day`).
    pub journal: PathBuf,
    /// The JSONL telemetry trace (`autoscale-day-traced`).
    pub trace: PathBuf,
    /// The report, as its debug form (every workload).
    pub report: PathBuf,
    /// The traced pass's spans, written when the pass ends.
    pub spans: PathBuf,
}

impl Io {
    /// The file set under `dir`, which is created if missing.
    pub fn new(dir: &Path) -> Result<Io, String> {
        fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Io {
            dir: dir.to_path_buf(),
            journal: dir.join("paper-day.journal"),
            trace: dir.join("trace.jsonl"),
            report: dir.join("report.txt"),
            spans: dir.join("spans.csv"),
        })
    }

    /// Deletes the run outputs, and fails if any survives: a journal
    /// left at its path would make `run_checkpointed` resume instead of
    /// run, and a second run would skip every epoch. The deletions are
    /// then made durable, so that freeing the previous run's blocks is
    /// not paid by the next run's first journal sync.
    pub fn clear(&self) -> Result<(), String> {
        for path in [&self.journal, &self.trace, &self.report] {
            match fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("deleting {}: {e}", path.display())),
            }
            if path.exists() {
                return Err(format!("{} still exists before the run", path.display()));
            }
        }
        fs::File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| format!("syncing {}: {e}", self.dir.display()))
    }

    /// Bytes currently in the run outputs.
    pub fn output_bytes(&self) -> u64 {
        [&self.journal, &self.trace, &self.report].iter().map(|p| file_bytes(p)).sum()
    }
}

/// The size of the file at `path`, 0 when it does not exist.
pub fn file_bytes(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

/// What one untraced run measured and produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Host seconds in `ScenarioRunner::inputs`.
    pub setup_s: f64,
    /// Host seconds for the whole scenario: input materialization, the
    /// run, and its journal, trace and report output.
    pub whole_s: f64,
    /// Jobs in the materialized stream.
    pub offered: usize,
    /// Bytes written to the journal, trace and report files.
    pub output_bytes: u64,
    /// Bytes of the journal file alone.
    pub journal_bytes: u64,
    /// Bytes of the trace file alone.
    pub trace_bytes: u64,
    /// `fnv1a64` of the report's debug form (telemetry events stand in
    /// by count and counters, which the trace file carries in full).
    pub digest: u64,
    /// [`stream_digest`] of the job stream, when asked for.
    pub stream_digest: Option<u64>,
    /// The report, telemetry events dropped.
    pub report: ScenarioReport,
    /// Telemetry events the run emitted and its counter registry.
    pub telemetry: Option<(usize, MetricsRegistry)>,
    /// Output checks that failed (empty when the run is correct).
    pub failures: Vec<String>,
}

/// A digest of every job's id, arrival and size bits, streamed so the
/// check holds no second copy of the stream.
pub fn stream_digest(jobs: &JobStream) -> u64 {
    let mut hasher = DefaultHasher::new();
    for job in jobs.jobs() {
        hasher.write_u64(job.id);
        hasher.write_u64(job.arrival.to_bits());
        hasher.write_u64(job.size.to_bits());
    }
    hasher.finish()
}

/// Writes `events` to `path` as JSONL through `FileSink`.
pub fn write_trace(path: &Path, events: &[sleepscale_telemetry::TraceEvent]) -> Result<(), String> {
    let mut sink = FileSink::create(path, TraceFormat::Jsonl)
        .map_err(|e| format!("creating {}: {e}", path.display()))?;
    for event in events {
        sink.record(event);
    }
    sink.flush().map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Runs `scenario` once through `ScenarioRunner`, untraced, as a user
/// would: materialize the inputs, run, write the outputs.
pub fn run_scenario(
    output: Output,
    scenario: &Scenario,
    io: &Io,
    want_stream_digest: bool,
) -> Result<RunOutcome, String> {
    io.clear()?;
    let runner = ScenarioRunner::new(scenario.clone()).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let (spec, trace, jobs) = runner.inputs().map_err(|e| e.to_string())?;
    let setup_s = t0.elapsed().as_secs_f64();
    let offered = jobs.len();
    let stream_digest = want_stream_digest.then(|| stream_digest(&jobs));

    let t1 = Instant::now();
    let mut report = if output == Output::Journal {
        // The checkpointed entry point materializes its own inputs.
        drop((spec, trace, jobs));
        if io.journal.exists() {
            return Err(format!("{} exists: the run would resume", io.journal.display()));
        }
        runner
            .run_checkpointed(&io.journal, KillPlan::never())
            .map_err(|e| e.to_string())?
            .ok_or("a checkpointed run without a kill plan stopped early")?
    } else {
        let report = runner.run_with_inputs(&spec, &trace, &jobs).map_err(|e| e.to_string())?;
        drop((spec, trace, jobs));
        report
    };
    let mut telemetry = None;
    if let Some(t) = report.telemetry() {
        if output == Output::Trace {
            write_trace(&io.trace, &t.events)?;
        }
        telemetry = Some((t.events.len(), t.metrics.clone()));
        report = report.without_telemetry();
    }
    let text = format!("{report:?}");
    fs::write(&io.report, &text).map_err(|e| format!("writing {}: {e}", io.report.display()))?;
    let run_s = t1.elapsed().as_secs_f64();
    let whole_s = match output {
        Output::Journal => run_s,
        Output::ReportOnly | Output::Trace => setup_s + run_s,
    };

    let output_bytes = io.output_bytes();
    let digest =
        fnv1a64(format!("{:x}{telemetry:?}{output_bytes}", fnv1a64(text.as_bytes())).as_bytes());
    let failures = check_report(&report, offered);
    Ok(RunOutcome {
        setup_s,
        whole_s,
        offered,
        output_bytes,
        journal_bytes: file_bytes(&io.journal),
        trace_bytes: file_bytes(&io.trace),
        digest,
        stream_digest,
        report,
        telemetry,
        failures,
    })
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= ENERGY_TOLERANCE * a.abs().max(b.abs())
}

/// The output checks of one report against the `offered` job count:
/// jobs are conserved, active plus idle energy is the total, and every
/// traffic class meets its p95 budget. Returns the failed checks. The
/// groups' mean-response budgets are checked over a whole run by
/// [`RunChecks`].
pub fn check_report(report: &ScenarioReport, offered: usize) -> Vec<String> {
    let mut failures = Vec::new();
    let total = report.total_jobs();
    if total != offered {
        failures.push(format!("jobs not conserved: {offered} offered, {total} completed"));
    }
    let group_jobs: usize = report.groups().iter().map(|g| g.jobs).sum();
    if group_jobs != total {
        failures.push(format!("group slices hold {group_jobs} jobs of {total}"));
    }
    if !report.classes().is_empty() {
        let class_jobs: usize = report.classes().iter().map(|c| c.jobs).sum();
        if class_jobs != total {
            failures.push(format!("class slices hold {class_jobs} jobs of {total}"));
        }
    }
    for class in report.classes().iter().filter(|c| !c.qos_ok) {
        failures.push(format!(
            "class {} p95 {:.3} (normalized) misses its budget {:?}",
            class.name, class.normalized_p95, class.p95_budget
        ));
    }

    // The per-class active energy is accumulated apart from the
    // per-server totals, so the identity is a real cross-check.
    let (energy, class_active, idle, native_jobs) =
        match (report.run_report(), report.cluster_report()) {
            (Some(r), _) => (
                r.energy_joules(),
                r.class_active_energy().iter().sum::<f64>(),
                r.idle_energy_joules(),
                r.total_jobs(),
            ),
            (_, Some(c)) => (
                c.total_energy_joules(),
                c.class_active_energy().iter().sum::<f64>(),
                c.idle_energy_joules(),
                c.servers().iter().map(|s| s.jobs).sum(),
            ),
            _ => {
                failures.push("the report carries no backend report".into());
                return failures;
            }
        };
    if native_jobs != total {
        failures.push(format!("backend report holds {native_jobs} jobs of {total}"));
    }
    if !(energy > 0.0 && close(class_active + idle, energy)) {
        failures.push(format!("active {class_active} J + idle {idle} J != total {energy} J"));
    }
    if !close(report.energy_joules(), energy) {
        failures
            .push(format!("group energy {} J != backend total {energy} J", report.energy_joules()));
    }
    for (name, value) in [
        ("power", report.avg_power_watts()),
        ("normalized mean response", report.normalized_mean_response()),
        ("p95 response", report.p95_response_seconds()),
    ] {
        if !(value.is_finite() && value > 0.0) {
            failures.push(format!("{name} is {value}"));
        }
    }
    failures
}

/// The checks that span a process's runs: a seed's report digest is
/// the same in every run, and the paper's QoS constraint, a bound on
/// each server group's mean response, holds over every day the process
/// simulated (the job-weighted mean of the groups' normalized responses
/// stays within `slack ×` budget). One day's report can miss it on its
/// own (the autoscaled day does on about one job-stream seed in 40);
/// such days are kept as notes.
#[derive(Debug, Default)]
pub struct RunChecks {
    digests: BTreeMap<u64, u64>,
    /// Per group: name, Σ µ·E[R]·jobs, Σ jobs, and the limit.
    groups: Vec<(String, f64, f64, f64)>,
    /// The days whose own report missed QoS.
    pub day_misses: Vec<String>,
}

impl RunChecks {
    /// Adds one run of `scenario`; returns its failed checks.
    pub fn record(&mut self, scenario: &Scenario, outcome: &RunOutcome) -> Vec<String> {
        let mut failures = outcome.failures.clone();
        let first = *self.digests.entry(scenario.seed).or_insert(outcome.digest);
        if first != outcome.digest {
            failures.push(format!(
                "seed {}: report digest {:016x} differs from the first run's {first:016x}",
                scenario.seed, outcome.digest
            ));
        }
        let report = &outcome.report;
        if self.groups.is_empty() {
            self.groups = report
                .groups()
                .iter()
                .map(|g| (g.name.clone(), 0.0, 0.0, g.qos_budget * scenario.qos_slack))
                .collect();
        }
        for (sum, g) in self.groups.iter_mut().zip(report.groups()) {
            sum.1 += g.normalized_mean_response * g.jobs as f64;
            sum.2 += g.jobs as f64;
        }
        if !report.qos_ok() {
            let groups: Vec<String> = report
                .groups()
                .iter()
                .map(|g| format!("{} µ·E[R] {:.3}", g.name, g.normalized_mean_response))
                .collect();
            self.day_misses.push(format!("seed {}: {}", scenario.seed, groups.join(", ")));
        }
        failures
    }

    /// The groups whose mean response over all runs misses its limit.
    pub fn qos_failures(&self) -> Vec<String> {
        self.groups
            .iter()
            .filter(|(_, weighted, jobs, limit)| *jobs > 0.0 && weighted / jobs > *limit)
            .map(|(name, weighted, jobs, limit)| {
                format!(
                    "group {name} µ·E[R] {:.3} over the run exceeds {limit:.3}",
                    weighted / jobs
                )
            })
            .collect()
    }
}

/// The process's peak resident set (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing {line:?}: {e}"))?;
    Ok(kib * 1024)
}
