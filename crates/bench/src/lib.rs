//! Figure and table regeneration harness for the SleepScale
//! reproduction.
//!
//! Every table and figure in the paper's evaluation has a module under
//! [`figures`]/[`tables`] that regenerates its data, and a matching
//! binary (`cargo run --release -p sleepscale-bench --bin fig1`). Each
//! generator takes a [`Quality`] knob: `Full` reproduces the paper-scale
//! configuration; `Quick` shrinks job counts and grids so the module's
//! smoke test runs in seconds.
//!
//! Outputs go to stdout (the series the paper plots) and to
//! `results/<id>.csv` (override the directory with the
//! `SLEEPSCALE_RESULTS_DIR` environment variable).

#![forbid(unsafe_code)]

pub mod figures;
pub mod tables;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sleepscale_power::{FrequencyGrid, Policy, SleepProgram};
use sleepscale_scenario::{Scenario, ScenarioReport, ScenarioRunner};
use sleepscale_sim::{generator, sweep, JobStream, SimEnv};
use sleepscale_workloads::WorkloadSpec;
use std::io::Write;
use std::path::PathBuf;

/// How much work a generator performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// Small grids and job counts for smoke tests (seconds).
    Quick,
    /// Paper-scale configuration.
    Full,
}

impl Quality {
    /// Jobs per policy evaluation (the paper uses N = 10 000).
    pub fn jobs(self) -> usize {
        match self {
            Quality::Quick => 2_000,
            Quality::Full => 10_000,
        }
    }

    /// Frequency-grid step for bowl curves (the paper plots 0.01).
    pub fn freq_step(self) -> f64 {
        match self {
            Quality::Quick => 0.05,
            Quality::Full => 0.01,
        }
    }

    /// Utilization-grid step for the policy maps of Figure 6.
    pub fn rho_step(self) -> f64 {
        match self {
            Quality::Quick => 0.15,
            Quality::Full => 0.05,
        }
    }

    /// Evaluation-window length, in minutes, for the day-long runtime
    /// figures (the paper evaluates 2 AM–8 PM = 1080 minutes).
    pub fn day_minutes(self) -> usize {
        match self {
            Quality::Quick => 180,
            Quality::Full => 1080,
        }
    }

    /// First trace minute of the evaluation window. Full mode starts at
    /// 2 AM like the paper; Quick mode starts at 8 AM so its short
    /// window still spans a rising-utilization regime.
    pub fn day_start_minute(self) -> usize {
        match self {
            Quality::Quick => 480,
            Quality::Full => 120,
        }
    }

    /// Jobs replayed per candidate characterization in runtime figures.
    pub fn eval_jobs(self) -> usize {
        match self {
            Quality::Quick => 500,
            Quality::Full => 2_000,
        }
    }
}

/// One point on a power/performance bowl: frequency, normalized mean
/// response `µE[R]`, and average power (W).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// DVFS setting.
    pub f: f64,
    /// Normalized mean response `µ·E[R]`.
    pub norm_response: f64,
    /// Average power in watts.
    pub power: f64,
}

/// A labelled bowl curve (one sleep program swept across frequencies).
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// Legend label (e.g. `"C6S3"`).
    pub label: String,
    /// Sweep points ordered by frequency.
    pub points: Vec<CurvePoint>,
}

impl Curve {
    /// The point with minimum power, if any.
    pub fn min_power_point(&self) -> Option<CurvePoint> {
        self.points
            .iter()
            .copied()
            .min_by(|a, b| a.power.partial_cmp(&b.power).expect("powers are finite"))
    }

    /// The minimum power among points meeting `norm_response <= budget`.
    pub fn min_power_within(&self, budget: f64) -> Option<CurvePoint> {
        self.points
            .iter()
            .filter(|p| p.norm_response <= budget)
            .copied()
            .min_by(|a, b| a.power.partial_cmp(&b.power).expect("powers are finite"))
    }
}

/// Generates an idealized (Poisson/exponential) job stream for `spec` at
/// utilization `rho`.
pub fn ideal_stream(spec: &WorkloadSpec, rho: f64, n: usize, seed: u64) -> JobStream {
    let mut rng = StdRng::seed_from_u64(seed);
    generator::generate_poisson_exp(n, rho, spec.service_mean(), &mut rng)
        .expect("valid idealized stream parameters")
}

/// Sweeps one program over the paper's frequency grid for a stream and
/// returns the bowl curve.
pub fn bowl(
    jobs: &JobStream,
    label: impl Into<String>,
    program: &SleepProgram,
    rho: f64,
    step: f64,
    mean_service: f64,
    env: &SimEnv,
) -> Curve {
    let grid = FrequencyGrid::new((rho + 0.01).min(1.0), 1.0, step).expect("valid bowl grid");
    let evals = sweep::frequency_sweep(jobs, program, &grid, env);
    Curve {
        label: label.into(),
        points: evals
            .iter()
            .map(|e| CurvePoint {
                f: e.policy.frequency().get(),
                norm_response: e.outcome.normalized_mean_response(mean_service),
                power: e.outcome.avg_power().as_watts(),
            })
            .collect(),
    }
}

/// Evaluates one policy on a stream, returning a single curve point.
pub fn point(jobs: &JobStream, policy: &Policy, mean_service: f64, env: &SimEnv) -> CurvePoint {
    let out = sleepscale_sim::simulate(jobs, policy, env);
    CurvePoint {
        f: policy.frequency().get(),
        norm_response: out.normalized_mean_response(mean_service),
        power: out.avg_power().as_watts(),
    }
}

/// The directory CSV outputs land in (`SLEEPSCALE_RESULTS_DIR`, default
/// `results/`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("SLEEPSCALE_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// A minimal JSON scalar for machine-readable gate outputs (the
/// container is offline, so the harness hand-rolls its JSON instead of
/// pulling a serializer).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A finite number (rendered with f64's round-trip formatting).
    Num(f64),
    /// An unsigned integer.
    Int(u64),
    /// A string (quoted, with `"`/`\`/control characters escaped).
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl std::fmt::Display for JsonValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonValue::Num(x) if x.is_finite() => write!(f, "{x}"),
            JsonValue::Num(_) => write!(f, "null"),
            JsonValue::Int(x) => write!(f, "{x}"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Str(s) => {
                write!(f, "\"")?;
                for ch in s.chars() {
                    match ch {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
        }
    }
}

/// Writes a flat JSON object under [`results_dir`] as `<name>.json` and
/// returns the path — the gate bins' machine-readable summaries.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or writing.
pub fn write_json(name: &str, fields: &[(&str, JsonValue)]) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut file = std::fs::File::create(&path)?;
    writeln!(file, "{{")?;
    for (i, (key, value)) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        writeln!(file, "  {}: {value}{comma}", JsonValue::Str((*key).into()))?;
    }
    writeln!(file, "}}")?;
    Ok(path)
}

/// One machine-readable summary per gate bin, written unconditionally.
///
/// Every gate (`sweep_speedup`, `shard_scale`, `resume`, `trace` when
/// it runs the day rather than reading `--input`, and through [`Gate`]
/// `energy`, `multiclass`, `autoscale` and `obs`) wraps its run in a
/// `GateSummary`:
/// `start` stamps the wall clock and hardware-thread count,
/// gate-specific scalars accumulate via [`GateSummary::field`], and
/// [`GateSummary::finish`] always writes
/// `results/bench_<gate>.json` with `hardware_threads`, `wall_seconds`,
/// `jobs`, `jobs_per_sec`, and `ok` — no `--json` flag required — so CI
/// archives one uniform artifact set per run.
#[derive(Debug)]
pub struct GateSummary {
    gate: &'static str,
    quick: bool,
    started: std::time::Instant,
    fields: Vec<(String, JsonValue)>,
}

impl GateSummary {
    /// Starts the wall clock for gate `gate` (`quick` records whether
    /// the run used the reduced smoke configuration).
    pub fn start(gate: &'static str, quick: bool) -> GateSummary {
        GateSummary { gate, quick, started: std::time::Instant::now(), fields: Vec::new() }
    }

    /// Appends a gate-specific field (rendered between the common
    /// prefix and the trailing `ok`).
    pub fn field(&mut self, key: impl Into<String>, value: JsonValue) {
        self.fields.push((key.into(), value));
    }

    /// Stops the clock and writes `results/bench_<gate>.json`; `jobs`
    /// is the simulated-job count the throughput figure divides by
    /// (pass 0 when the gate has no natural job count). Exits the
    /// process with a diagnostic if the results directory is unusable.
    pub fn finish(self, ok: bool, jobs: u64) -> PathBuf {
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut fields: Vec<(&str, JsonValue)> = vec![
            ("gate", JsonValue::Str(self.gate.into())),
            ("quick", JsonValue::Bool(self.quick)),
            ("hardware_threads", JsonValue::Int(cores as u64)),
            ("wall_seconds", JsonValue::Num(wall_seconds)),
            ("jobs", JsonValue::Int(jobs)),
            ("jobs_per_sec", JsonValue::Num(jobs as f64 / wall_seconds.max(1e-12))),
        ];
        for (key, value) in &self.fields {
            fields.push((key.as_str(), value.clone()));
        }
        fields.push(("ok", JsonValue::Bool(ok)));
        let name = format!("bench_{}", self.gate);
        require_io(
            "writing the gate summary",
            write_json(&name, &fields).inspect(|p| {
                println!("wrote {}", p.display());
            }),
        )
    }
}

/// The check-list harness of the `energy`, `multiclass`, `autoscale`
/// and `obs` gates: one PASS/FAIL row per named check, the rows as
/// `results/<gate>.csv` (`check,ok,detail`), and a [`GateSummary`]
/// with `checks_total`, `checks_passed` and the passing checks' summed
/// job count. [`Gate::finish`] exits non-zero if any check failed.
#[derive(Debug)]
pub struct Gate {
    summary: GateSummary,
    rows: Vec<Vec<String>>,
    jobs: u64,
}

impl Gate {
    /// Reads `--quick`, starts the summary clock and prints the banner.
    pub fn start(gate: &'static str) -> Gate {
        let quick = std::env::args().any(|a| a == "--quick");
        println!("== {gate} gate{} ==", if quick { " (quick)" } else { "" });
        Gate { summary: GateSummary::start(gate, quick), rows: Vec::new(), jobs: 0 }
    }

    /// Whether the run uses the reduced `--quick` configuration.
    pub fn quick(&self) -> bool {
        self.summary.quick
    }

    /// Records one check: `Ok((detail, jobs))` passes and adds its
    /// reference-run job count, `Err(detail)` fails.
    pub fn check(&mut self, name: &str, outcome: Result<(String, usize), String>) {
        let ok = outcome.is_ok();
        let detail = match outcome {
            Ok((detail, jobs)) => {
                self.jobs += jobs as u64;
                detail
            }
            Err(detail) => detail,
        };
        println!("{} {name:<22} {detail}", if ok { "PASS" } else { "FAIL" });
        self.rows.push(vec![name.into(), (ok as u8).to_string(), detail]);
    }

    /// Appends a gate-specific field to the summary.
    pub fn field(&mut self, key: impl Into<String>, value: JsonValue) {
        self.summary.field(key, value);
    }

    /// Writes the CSV and the summary, then exits non-zero if any check
    /// failed.
    pub fn finish(mut self) {
        let gate = self.summary.gate;
        let path = require_io(
            &format!("writing {gate}.csv"),
            write_csv(gate, &["check", "ok", "detail"], &self.rows),
        );
        println!("\nwrote {}", path.display());
        let passed = self.rows.iter().filter(|row| row[1] == "1").count();
        let ok = passed == self.rows.len();
        self.field("checks_total", JsonValue::Int(self.rows.len() as u64));
        self.field("checks_passed", JsonValue::Int(passed as u64));
        self.summary.finish(ok, self.jobs);
        if !ok {
            eprintln!("{} GATE FAILED", gate.to_uppercase());
            std::process::exit(1);
        }
        println!("{gate} gate: all checks passed — OK");
    }
}

/// Validates `scenario`, naming it in the error.
pub fn scenario_runner(scenario: Scenario) -> Result<ScenarioRunner, String> {
    let name = scenario.name.clone();
    ScenarioRunner::new(scenario).map_err(|e| format!("{name}: invalid: {e}"))
}

/// Validates and runs `scenario`, naming it in the error.
pub fn run_scenario(scenario: Scenario) -> Result<ScenarioReport, String> {
    let runner = scenario_runner(scenario)?;
    runner.run().map_err(|e| format!("{}: run failed: {e}", runner.scenario().name))
}

/// Unwraps a gate bin's result-file write, degrading gracefully when
/// the output location is unusable (read-only `results/`, bad
/// `SLEEPSCALE_RESULTS_DIR`, full disk): one diagnostic line on stderr
/// and a non-zero exit instead of a panic backtrace, so CI logs state
/// the actual problem.
pub fn require_io<T>(what: &str, result: std::io::Result<T>) -> T {
    match result {
        Ok(value) => value,
        Err(e) => {
            eprintln!("FATAL: {what}: {e} (is SLEEPSCALE_RESULTS_DIR writable?)");
            std::process::exit(1);
        }
    }
}

/// Writes CSV rows under [`results_dir`] and returns the path.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or writing.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut file = std::fs::File::create(&path)?;
    writeln!(file, "{}", header.join(","))?;
    for row in rows {
        writeln!(file, "{}", row.join(","))?;
    }
    Ok(path)
}

/// Renders curves as CSV rows (`label,f,norm_response,power`).
pub fn curves_to_rows(curves: &[Curve]) -> Vec<Vec<String>> {
    curves
        .iter()
        .flat_map(|c| {
            c.points.iter().map(move |p| {
                vec![
                    c.label.clone(),
                    format!("{:.4}", p.f),
                    format!("{:.4}", p.norm_response),
                    format!("{:.4}", p.power),
                ]
            })
        })
        .collect()
}

/// Prints a curve set to stdout in the shape the paper plots.
pub fn print_curves(title: &str, curves: &[Curve]) {
    println!("== {title} ==");
    for c in curves {
        println!("-- {} --", c.label);
        println!("{:>8} {:>14} {:>12}", "f", "mu*E[R]", "E[P] (W)");
        for p in &c.points {
            println!("{:>8.3} {:>14.3} {:>12.2}", p.f, p.norm_response, p.power);
        }
        if let Some(best) = c.min_power_point() {
            println!(
                "   minimum: f={:.3}, mu*E[R]={:.2}, E[P]={:.2} W",
                best.f, best.norm_response, best.power
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleepscale_power::presets;

    #[test]
    fn bowl_has_a_minimum_inside_the_range() {
        let spec = WorkloadSpec::dns();
        let jobs = ideal_stream(&spec, 0.1, 4_000, 1);
        let env = SimEnv::xeon_cpu_bound();
        let c = bowl(
            &jobs,
            "C0(i)S0(i)",
            &SleepProgram::immediate(presets::C0I_S0I),
            0.1,
            0.05,
            spec.service_mean(),
            &env,
        );
        let best = c.min_power_point().unwrap();
        // Paper Figure 5 analysis: optimum near f ≈ 0.4 at ρ = 0.1.
        assert!(best.f > 0.2 && best.f < 0.7, "optimum f = {}", best.f);
        // Endpoints are worse than the bowl bottom.
        assert!(c.points.first().unwrap().power > best.power);
        assert!(c.points.last().unwrap().power > best.power);
    }

    #[test]
    fn min_power_within_respects_budget() {
        let spec = WorkloadSpec::dns();
        let jobs = ideal_stream(&spec, 0.3, 4_000, 2);
        let env = SimEnv::xeon_cpu_bound();
        let c = bowl(
            &jobs,
            "C6S0(i)",
            &SleepProgram::immediate(presets::C6_S0I),
            0.3,
            0.05,
            spec.service_mean(),
            &env,
        );
        let within = c.min_power_within(2.0).unwrap();
        assert!(within.norm_response <= 2.0);
        let unconstrained = c.min_power_point().unwrap();
        assert!(within.power >= unconstrained.power);
        assert!(c.min_power_within(0.5).is_none()); // below service time
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("sleepscale-bench-test");
        std::env::set_var("SLEEPSCALE_RESULTS_DIR", &dir);
        let rows = vec![vec!["a".into(), "1".into()]];
        let path = write_csv("unit_test", &["label", "x"], &rows).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "label,x\na,1\n");
        std::env::remove_var("SLEEPSCALE_RESULTS_DIR");
    }

    #[test]
    fn json_round_trip() {
        let dir = std::env::temp_dir().join("sleepscale-bench-json-test");
        std::env::set_var("SLEEPSCALE_RESULTS_DIR", &dir);
        let path = write_json(
            "unit_test",
            &[
                ("gate", JsonValue::Str("x\"y".into())),
                ("jobs_per_sec", JsonValue::Num(2.5e6)),
                ("threads", JsonValue::Int(4)),
                ("ok", JsonValue::Bool(true)),
            ],
        )
        .unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            content,
            "{\n  \"gate\": \"x\\\"y\",\n  \"jobs_per_sec\": 2500000,\n  \"threads\": 4,\n  \
             \"ok\": true\n}\n"
        );
        std::env::remove_var("SLEEPSCALE_RESULTS_DIR");
    }

    #[test]
    fn quality_knobs() {
        assert!(Quality::Full.jobs() > Quality::Quick.jobs());
        assert!(Quality::Full.freq_step() < Quality::Quick.freq_step());
        assert!(Quality::Full.day_minutes() > Quality::Quick.day_minutes());
    }
}
