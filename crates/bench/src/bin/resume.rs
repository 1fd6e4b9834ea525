//! The checkpoint/resume acceptance gate (PR 8).
//!
//! Proves, over the catalog's resume trio (single-server, sharded
//! fleet, tagged stream), that crash-and-resume is *invisible* in the
//! results:
//!
//! 1. an uninterrupted checkpointed run reports byte-identically to
//!    the plain (journal-free) run,
//! 2. for every epoch boundary `k`, kill-after-epoch-`k` followed by
//!    [`ScenarioRunner::resume`] reproduces the uninterrupted
//!    [`ScenarioReport`] byte for byte (`--quick` checks two
//!    boundaries per scenario instead of all of them),
//! 3. a torn or bit-flipped journal tail (mid-write crash, bit rot)
//!    truncates to the last sealed epoch and the resume still lands
//!    byte-identical — never a panic,
//! 4. resuming under a different schema version, seed, or scenario
//!    shape is a typed [`CoreError::Checkpoint`] naming the mismatch.
//!
//! ```sh
//! cargo run --release -p sleepscale-bench --bin resume
//! cargo run --release -p sleepscale-bench --bin resume -- --quick
//! ```
//!
//! Writes `results/bench_resume.json` (its `jobs` sums each scenario's
//! reference-run job count); exits non-zero on any failure.

use sleepscale::CoreError;
use sleepscale_bench::{GateSummary, JsonValue};
use sleepscale_journal::{fault, Journal, JournalMeta, KillPlan};
use sleepscale_scenario::{catalog, Scenario, ScenarioRunner};
use std::path::PathBuf;

fn journal_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sleepscale-resume-gate-{}-{tag}.ssj", std::process::id()));
    p
}

/// Byte-exact report comparison: `PartialEq` plus the debug form, so a
/// float that differs only in sign-of-zero or NaN payload still trips.
fn identical(
    a: &sleepscale_scenario::ScenarioReport,
    b: &sleepscale_scenario::ScenarioReport,
) -> bool {
    a == b && format!("{a:?}") == format!("{b:?}")
}

struct Outcome {
    jobs: usize,
    kill_points: usize,
    corrupted_recoveries: usize,
    failures: Vec<String>,
}

fn check_scenario(scenario: Scenario, quick: bool) -> Result<Outcome, CoreError> {
    let name = scenario.name.clone();
    let n_epochs = scenario.load.minutes().div_ceil(scenario.epoch_minutes);
    let runner = ScenarioRunner::new(scenario)?;
    let mut failures = Vec::new();

    let reference = runner.run()?;
    let path = journal_path(&name);

    // 1. Uninterrupted checkpointed run == plain run.
    let _ = std::fs::remove_file(&path);
    let full = runner
        .run_checkpointed(&path, KillPlan::never())?
        .expect("KillPlan::never always completes");
    if !identical(&full, &reference) {
        failures.push(format!("{name}: uninterrupted checkpointed run diverged"));
    }

    // 2. Kill after epoch k, resume, compare — at every boundary in
    // full mode, at the first and second-to-last in quick mode.
    let kill_points: Vec<usize> =
        if quick { vec![0, n_epochs.saturating_sub(2)] } else { (0..n_epochs).collect() };
    for &k in &kill_points {
        let _ = std::fs::remove_file(&path);
        if runner.run_checkpointed(&path, KillPlan::after_epoch(k))?.is_some() {
            failures.push(format!("{name}: kill at epoch {k} did not abort the run"));
            continue;
        }
        let resumed = runner.resume(&path)?;
        if !identical(&resumed, &reference) {
            failures.push(format!("{name}: resume after kill at epoch {k} diverged"));
        }
    }

    // 3. Corrupted tails: a torn final frame and a bit-flipped payload
    // byte must both recover to the last sealed epoch, not panic.
    let mut corrupted = 0;
    let mid = n_epochs / 2;
    let _ = std::fs::remove_file(&path);
    runner.run_checkpointed(&path, KillPlan::after_epoch(mid))?;
    fault::truncate_tail(&path, 7).expect("torn-tail injection on own temp file");
    if identical(&runner.resume(&path)?, &reference) {
        corrupted += 1;
    } else {
        failures.push(format!("{name}: resume from torn tail diverged"));
    }
    if !quick {
        let _ = std::fs::remove_file(&path);
        runner.run_checkpointed(&path, KillPlan::after_epoch(mid))?;
        fault::corrupt_tail(&path, 3).expect("bit-flip injection on own temp file");
        if identical(&runner.resume(&path)?, &reference) {
            corrupted += 1;
        } else {
            failures.push(format!("{name}: resume from bit-flipped tail diverged"));
        }
    }

    let _ = std::fs::remove_file(&path);
    Ok(Outcome {
        jobs: reference.total_jobs(),
        kill_points: kill_points.len(),
        corrupted_recoveries: corrupted,
        failures,
    })
}

/// Version/seed/config mismatches must be typed errors with stable,
/// matchable messages — checked once, on the single-server scenario.
fn check_mismatches() -> Vec<String> {
    let mut failures = Vec::new();
    let base = catalog::resume_single();
    let runner = ScenarioRunner::new(base.clone()).expect("catalog scenario validates");
    let path = journal_path("mismatch");
    let _ = std::fs::remove_file(&path);
    if runner.run_checkpointed(&path, KillPlan::after_epoch(0)).map(|r| r.is_some()).unwrap_or(true)
    {
        failures.push("mismatch setup: kill at epoch 0 did not abort".into());
        return failures;
    }
    let mut expect = |label: &str, result: Result<_, CoreError>, needle: &str| match result {
        Err(CoreError::Checkpoint { reason }) if reason.contains(needle) => {}
        Err(e) => failures.push(format!("{label}: wrong error: {e}")),
        Ok(_) => failures.push(format!("{label}: resume was accepted")),
    };
    let mut reseeded = base.clone();
    reseeded.seed += 1;
    expect(
        "seed-mismatch",
        ScenarioRunner::new(reseeded).expect("validates").resume(&path),
        "seed mismatch",
    );
    let mut reshaped = base.clone();
    reshaped.eval_jobs += 1;
    expect(
        "config-mismatch",
        ScenarioRunner::new(reshaped).expect("validates").resume(&path),
        "config mismatch",
    );
    // A journal stamped with a future schema version must be rejected
    // even when seed and config agree.
    let future = journal_path("future-schema");
    let meta = JournalMeta {
        schema_version: sleepscale_scenario::JOURNAL_SCHEMA_VERSION + 1,
        seed: base.seed,
        config_fingerprint: runner.config_fingerprint(),
    };
    Journal::create(&future, &meta).expect("journal create");
    expect("schema-mismatch", runner.resume(&future), "schema mismatch");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&future);
    failures
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut summary = GateSummary::start("resume", quick);
    println!("== checkpoint/resume gate{} ==", if quick { " (quick)" } else { "" });

    let scenarios =
        vec![catalog::resume_single(), catalog::resume_fleet_sharded(), catalog::resume_tagged()];
    let mut failures: Vec<String> = Vec::new();
    let mut jobs = 0u64;
    let mut kill_points = 0usize;
    let mut corrupted = 0usize;
    let n_scenarios = scenarios.len();
    for scenario in scenarios {
        let name = scenario.name.clone();
        let backend = if scenario.total_servers() == 1 {
            "runtime"
        } else if scenario.shards > 1 {
            "cluster/sharded"
        } else {
            "cluster"
        };
        match check_scenario(scenario, quick) {
            Ok(outcome) => {
                println!(
                    "{:<22} {:<16} {:>2} kill points, {} corrupted-tail recoveries{}",
                    name,
                    backend,
                    outcome.kill_points,
                    outcome.corrupted_recoveries,
                    if outcome.failures.is_empty() { " — OK" } else { " — FAILED" }
                );
                jobs += outcome.jobs as u64;
                kill_points += outcome.kill_points;
                corrupted += outcome.corrupted_recoveries;
                failures.extend(outcome.failures);
            }
            Err(e) => failures.push(format!("{name}: {e}")),
        }
    }

    let mismatch_failures = check_mismatches();
    let mismatches_ok = mismatch_failures.is_empty();
    println!(
        "{:<22} {:<16} schema/seed/config rejections{}",
        "mismatch-typing",
        "journal",
        if mismatches_ok { " — OK" } else { " — FAILED" }
    );
    failures.extend(mismatch_failures);

    let ok = failures.is_empty();
    summary.field("scenarios", JsonValue::Int(n_scenarios as u64));
    summary.field("kill_points", JsonValue::Int(kill_points as u64));
    summary.field("corrupted_tail_recoveries", JsonValue::Int(corrupted as u64));
    summary.field("mismatches_typed", JsonValue::Bool(mismatches_ok));
    summary.finish(ok, jobs);

    if !ok {
        for failure in &failures {
            eprintln!("RESUME GATE FAILED: {failure}");
        }
        std::process::exit(1);
    }
    println!("resume gate: kill-at-every-epoch × resume ≡ uninterrupted, byte for byte — OK");
}
