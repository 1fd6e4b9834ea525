//! The per-job step against the reference engine it replaced: random
//! streams through `OnlineSim` (resolved policies, hot ledger bucket,
//! inline accumulators) and through the reference (per-job power
//! arithmetic and program comparison, the full bucket split) yield the
//! same records, the same snapshot bytes after every epoch, and the
//! same `finish_traced` outputs and trace events.

mod reference;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use reference::RefSim;
use sleepscale_journal::{ByteWriter, Snapshot};
use sleepscale_power::{
    presets, CpuPowerModel, Frequency, FrequencyScaling, PlatformPowerModel, Policy, SleepProgram,
    SleepStage, SystemPowerModel, SystemState,
};
use sleepscale_sim::{pack_id, ClassId, Job, JobRecord, OnlineSim, ResolvedPolicy, SimEnv};
use std::collections::HashMap;

/// SplitMix64: a case's inputs are drawn from one proptest seed, so a
/// failure names the seed that reproduces it.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn stage(state: SystemState, tau: f64, wake: f64) -> SleepStage {
    SleepStage::new(state, tau, wake).unwrap()
}

/// The programs an epoch draws from: never-sleep; immediate single
/// stages, one of them again with a `-0.0` entry delay (equal to the
/// `+0.0` one, different in bits); a delayed single stage; Figure 3's
/// two-stage delayed ladder; and the five-stage cascade, longer than
/// any inline capacity.
fn programs() -> Vec<SleepProgram> {
    use SystemState as S;
    vec![
        SleepProgram::never_sleep(),
        SleepProgram::immediate(presets::C6_S3),
        SleepProgram::immediate(stage(S::C6_S3, -0.0, 1.0)),
        SleepProgram::immediate(presets::C0I_S0I),
        SleepProgram::new(vec![stage(S::C6_S0I, 0.3, 0.01)]).unwrap(),
        SleepProgram::new(vec![stage(S::C0I_S0I, 0.0, 0.0), stage(S::C6_S3, 0.5, 1.0)]).unwrap(),
        SleepProgram::new(vec![
            stage(S::C0I_S0I, 0.0, 0.0),
            stage(S::C1_S0I, 0.05, 1e-5),
            stage(S::C3_S0I, 0.2, 1e-4),
            stage(S::C6_S0I, 0.6, 0.01),
            stage(S::C6_S3, 1.5, 1.0),
        ])
        .unwrap(),
    ]
}

const FREQUENCIES: [f64; 3] = [1.0, 0.7, 0.45];

/// The Xeon at CPU-bound scaling, or the Atom at sublinear scaling
/// (whose service multiplier goes through `powf`).
fn env(draw: &mut Draw) -> SimEnv {
    if draw.below(2) == 0 {
        SimEnv::xeon_cpu_bound()
    } else {
        let power =
            SystemPowerModel::new(CpuPowerModel::atom(), PlatformPowerModel::xeon_platform());
        SimEnv::new(power, FrequencyScaling::sublinear(0.6).unwrap())
    }
}

/// Arrivals over `[0, horizon)` at a mean gap drawn per case: bursts
/// that queue, gaps that catch the ladder's shallow rungs, long gaps
/// that cross bucket boundaries, and arrivals a few ulps from a
/// `width` boundary, with class tags past the ledger's inline
/// capacity.
fn stream(draw: &mut Draw, horizon: f64, width: f64) -> Vec<Job> {
    let mean = 0.2 + 2.8 * draw.unit();
    let mut jobs = Vec::new();
    let mut t = 0.0;
    loop {
        t += mean
            * draw.unit()
            * match draw.below(10) {
                0..=2 => 0.02,
                3..=7 => 2.0,
                _ => 5.0,
            };
        if draw.below(8) == 0 {
            // Onto the next bucket boundary, give or take a few ulps.
            let edge = (t / width).ceil() * width;
            t = t.max(f64::from_bits((edge.to_bits() as i64 + draw.below(7) as i64 - 3) as u64));
        }
        if t >= horizon {
            return jobs;
        }
        let class = ClassId(draw.below(6) as u16);
        let size = 0.01 + 0.5 * draw.unit();
        jobs.push(Job { id: pack_id(jobs.len() as u64, class), arrival: t, size });
    }
}

fn same_record(got: &JobRecord, want: &JobRecord) -> Result<(), TestCaseError> {
    let fields = |r: &JobRecord| {
        [r.arrival, r.start, r.departure, r.size, r.service, r.wake].map(f64::to_bits)
    };
    prop_assert_eq!(got.id, want.id);
    prop_assert_eq!(fields(got), fields(want), "record of job {}", want.id);
    Ok(())
}

fn same_snapshot(sim: &OnlineSim, reference: &RefSim, epoch: usize) -> Result<(), TestCaseError> {
    let (mut got, mut want) = (ByteWriter::new(), ByteWriter::new());
    sim.snapshot_state(&mut got);
    reference.snapshot_state(&mut want);
    prop_assert!(got.as_bytes() == want.as_bytes(), "snapshot bytes differ after epoch {}", epoch);
    Ok(())
}

fn same_finish(sim: OnlineSim, reference: RefSim, horizon: f64) -> Result<(), TestCaseError> {
    let (ledger, residency, wakes_from, wakes_without_sleep, events) = sim.finish_traced(horizon);
    let want = reference.finish_traced(horizon);
    prop_assert_eq!(&wakes_from, &want.wakes_from);
    prop_assert_eq!(wakes_without_sleep, want.wakes_without_sleep);
    prop_assert_eq!(format!("{events:?}"), format!("{:?}", want.events));
    let (mut got, mut expected) = (ByteWriter::new(), ByteWriter::new());
    ledger.snapshot(&mut got);
    want.ledger.snapshot(&mut expected);
    prop_assert!(got.as_bytes() == expected.as_bytes(), "finished ledgers differ");
    let times = |serving: f64, waking: f64, idle: f64| [serving, waking, idle].map(f64::to_bits);
    let r = &want.residency;
    prop_assert_eq!(
        times(residency.serving(), residency.waking(), residency.active_idle()),
        times(r.serving, r.waking, r.active_idle)
    );
    let states = |s: &[(SystemState, f64)]| -> Vec<_> {
        s.iter().map(|&(state, t)| (state, t.to_bits())).collect()
    };
    prop_assert_eq!(states(residency.states()), states(&r.states));
    Ok(())
}

/// How an epoch's jobs reach the simulator under test.
#[derive(Debug, Clone, Copy)]
enum Feed {
    /// `run_epoch` with the plain policy (resolved inside, per call).
    RunEpoch,
    /// `serve` with a resolution made for this epoch.
    Fresh,
    /// `serve` with the resolution first made for this (program,
    /// frequency) pair, shared across epochs.
    Kept,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A policy change every epoch, parks and wakes between epochs,
    /// tracing on or off.
    #[test]
    fn serve_matches_the_reference_engine(seed in 0u64..u64::MAX) {
        let mut draw = Draw(seed);
        let env = env(&mut draw);
        let width = [300.0, 60.0, 7.5, 1.0 / 3.0, 0.1][draw.below(5) as usize];
        let epochs = 3 + draw.below(6) as usize;
        let jobs = stream(&mut draw, width * epochs as f64, width);
        let programs = programs();
        let parked = SleepProgram::immediate(presets::C6_S3);
        let traced = draw.below(2) == 0;

        let mut sim = OnlineSim::new(env.clone(), width);
        let mut reference = RefSim::new(env.clone(), width);
        if traced {
            sim.enable_trace(3);
            reference.enable_trace(3);
        }
        let mut kept: HashMap<(usize, usize), ResolvedPolicy> = HashMap::new();
        let mut previous: Option<f64> = None;
        let mut is_parked = false;
        let mut next = 0;
        for k in 0..epochs {
            let (start, end) = (k as f64 * width, (k + 1) as f64 * width);
            let (p, f) = (draw.below(programs.len() as u64) as usize, draw.below(3) as usize);
            let policy = Policy::new(Frequency::new(FREQUENCIES[f]).unwrap(), programs[p].clone());
            if is_parked && draw.below(2) == 0 {
                let next_idle = (policy.program().clone(), policy.frequency());
                let watts = env.power().active_power(policy.frequency());
                let got = sim.wake(start, watts, next_idle.clone());
                prop_assert_eq!(got.to_bits(), reference.wake(start, watts, next_idle).to_bits());
                is_parked = false;
            }
            let (rho, evaluated) = (draw.unit(), [None, Some(0), Some(7)][draw.below(3) as usize]);
            sim.trace_decision(k, &policy, previous, rho, evaluated);
            reference.trace_decision(k, &policy, previous, rho, evaluated);
            previous = Some(policy.frequency().get());

            let arrived = jobs[next..].iter().take_while(|j| j.arrival < end).count();
            let epoch_jobs = &jobs[next..next + arrived];
            next += arrived;
            if !is_parked {
                let want: Vec<JobRecord> =
                    epoch_jobs.iter().map(|job| reference.serve(job, &policy)).collect();
                let feed = [Feed::RunEpoch, Feed::Fresh, Feed::Kept][draw.below(3) as usize];
                let got: Vec<JobRecord> = match feed {
                    Feed::RunEpoch => sim.run_epoch(epoch_jobs, &policy, end).records().to_vec(),
                    Feed::Fresh => {
                        let resolved = ResolvedPolicy::new(&policy, &env);
                        epoch_jobs.iter().map(|job| sim.serve(job, &resolved)).collect()
                    }
                    Feed::Kept => {
                        let resolved =
                            kept.entry((p, f)).or_insert_with(|| ResolvedPolicy::new(&policy, &env));
                        prop_assert!(resolved.is_resolution_of(&policy));
                        epoch_jobs.iter().map(|job| sim.serve(job, resolved)).collect()
                    }
                };
                prop_assert_eq!(got.len(), want.len());
                for (got, want) in got.iter().zip(&want) {
                    same_record(got, want)?;
                }
            }
            let drained = sim.state().free_time() <= end;
            prop_assert_eq!(drained, reference.free_time <= end);
            if !is_parked && drained && k + 1 < epochs && draw.below(3) == 0 {
                sim.park(end, parked.clone(), policy.frequency());
                reference.park(end, parked.clone(), policy.frequency());
                is_parked = true;
            }
            same_snapshot(&sim, &reference, k)?;
        }
        let horizon = epochs as f64 * width + draw.unit() * width;
        same_finish(sim, reference, horizon)?;
    }
}

/// A resolution stands for its policy's exact bits: a `-0.0` entry
/// delay is equal to a `+0.0` one but resolves differently.
#[test]
fn resolutions_are_told_apart_by_bits() {
    let env = SimEnv::xeon_cpu_bound();
    let plus = Policy::new(Frequency::MAX, SleepProgram::immediate(presets::C6_S3));
    let minus = Policy::new(
        Frequency::MAX,
        SleepProgram::immediate(stage(SystemState::C6_S3, -0.0, presets::C6_S3.wake_latency())),
    );
    assert_eq!(plus, minus);
    let resolved = ResolvedPolicy::new(&plus, &env);
    assert!(resolved.is_resolution_of(&plus));
    assert!(!resolved.is_resolution_of(&minus));
    assert!(!resolved.is_resolution_of(&plus.with_frequency(Frequency::new(0.5).unwrap())));
}
