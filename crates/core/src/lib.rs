//! SleepScale: runtime joint speed scaling and sleep-state management.
//!
//! This crate is the paper's primary contribution (Sections 5–6): a
//! runtime power-management controller that, every epoch,
//!
//! 1. predicts the upcoming utilization from minute-granularity history
//!    (`sleepscale-predict`),
//! 2. rescales its logged job arrivals to the prediction
//!    (`sleepscale-workloads::JobLog`),
//! 3. characterizes candidate (frequency, sleep program) pairs by
//!    queueing simulation (`sleepscale-sim`) — by default with a pruned
//!    coarse-to-fine frequency search per program ([`SearchMode`]) and a
//!    cross-epoch [`CharacterizationCache`], so far fewer than
//!    `|grid| × |programs|` candidates are simulated per epoch — and
//! 4. deploys the minimum-power policy that meets the QoS constraint,
//!    optionally over-provisioned by a frequency guard band `α`.
//!
//! The building blocks:
//!
//! * [`QosConstraint`] — the baseline-derived budgets: normalized mean
//!   response `µE[R] ≤ 1/(1−ρ_b)` or the 95th-percentile deadline.
//! * [`CandidateSet`] — which sleep programs and frequency grid the
//!   manager searches (full SleepScale, SS(C3), DVFS-only, …).
//! * [`PolicyManager`] — the per-epoch characterize-and-select step.
//! * [`Strategy`] and its implementations — SleepScale plus the paper's
//!   comparison strategies (race-to-halt, DVFS-only, fixed policies).
//! * [`run`]/[`RunReport`] — the closed-loop evaluation harness driving a
//!   strategy over a utilization trace against ground-truth job streams
//!   (Section 6's experiments).
//!
//! # Example
//!
//! ```no_run
//! use sleepscale::prelude::*;
//! use sleepscale_sim::SimEnv;
//! use sleepscale_workloads::{traces, WorkloadSpec, WorkloadDistributions, replay_trace, ReplayConfig};
//! use rand::SeedableRng;
//!
//! let spec = WorkloadSpec::dns();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let dists = WorkloadDistributions::empirical(&spec, 10_000, &mut rng)?;
//! let trace = traces::email_store(1, 7).window(120, 1200); // 2 AM – 8 PM
//! let jobs = replay_trace(&trace, &dists, &ReplayConfig::default(), &mut rng)?;
//!
//! let config = RuntimeConfig::builder(spec.service_mean())
//!     .qos(QosConstraint::mean_response(0.8)?)
//!     .epoch_minutes(5)
//!     .over_provisioning(0.35)
//!     .build()?;
//! let mut strategy = SleepScaleStrategy::new(&config, CandidateSet::standard());
//! let report = run(&trace, &jobs, &mut strategy, &SimEnv::xeon_cpu_bound(), &config)?;
//! println!("avg power {:.1} W", report.avg_power_watts());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analytic_strategy;
mod cache;
mod candidates;
mod error;
mod manager;
mod qos;
mod report;
mod runtime;
mod spec;
mod strategies;

pub use analytic_strategy::AnalyticStrategy;
pub use cache::{CacheStats, CharacterizationCache, DEFAULT_CACHE_CAPACITY};
pub use candidates::CandidateSet;
pub use error::CoreError;
pub use manager::{
    CharacterizationKey, PolicyManager, SearchMode, Selection, WarmStartStats, RHO_QUANTUM,
};
pub use qos::QosConstraint;
pub use report::{EpochReport, RunReport};
pub use runtime::{
    run, run_resumable, run_traced, CheckpointSink, RuntimeConfig, RuntimeConfigBuilder,
};
pub use spec::{CandidateSpec, PredictorSpec, StrategySpec};
pub use strategies::{FixedPolicyStrategy, SleepScaleStrategy, Strategy};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::{
        run, AnalyticStrategy, CacheStats, CandidateSet, CandidateSpec, CharacterizationCache,
        CharacterizationKey, CoreError, EpochReport, FixedPolicyStrategy, PolicyManager,
        PredictorSpec, QosConstraint, RunReport, RuntimeConfig, RuntimeConfigBuilder, SearchMode,
        Selection, SleepScaleStrategy, Strategy, StrategySpec, WarmStartStats,
    };
}
