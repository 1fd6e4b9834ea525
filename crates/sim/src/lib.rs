//! FCFS queueing simulator with sleep states and power integration —
//! the paper's Algorithm 1, generalized.
//!
//! The paper evaluates every candidate policy by simulating a single-server
//! first-come-first-serve queue whose server:
//!
//! * serves jobs at a DVFS-scaled rate (service time stretches by
//!   `1/f^β`, see [`sleepscale_power::FrequencyScaling`]),
//! * walks down a ladder of low-power states whenever its queue empties
//!   (a [`sleepscale_power::SleepProgram`]), and
//! * pays the wake-up latency of whichever rung it occupies when the next
//!   job arrives, charging wake time at active power (the paper's
//!   conservative assumption).
//!
//! Three layers are exposed:
//!
//! * [`JobStream`]/[`generator`] — job traces, either sampled from
//!   distributions (Algorithm 1 step 1) or replayed from logs.
//! * [`OnlineSim`] — an *incremental* simulator that the SleepScale
//!   runtime feeds epoch by epoch (policies change between epochs); energy
//!   is integrated exactly across epoch boundaries via [`EnergyLedger`].
//! * [`simulate`]/[`simulate_summary`]/[`sweep`] — batch evaluation of
//!   one policy or a whole frequency×program grid (parallelized) over a
//!   fixed job stream; this is what the policy manager runs online and
//!   what the figure harness uses for the Section 4 studies.
//!   [`simulate_summary`] is the record-free fast path (identical
//!   results, no per-job `JobRecord` materialization); [`JobCursor`]
//!   lets epoch loops walk a stream without cloning the remainder.
//!
//! # Example
//!
//! ```
//! use sleepscale_sim::prelude::*;
//! use sleepscale_power::prelude::*;
//! use sleepscale_dist::Exponential;
//! use rand::SeedableRng;
//!
//! // M/M/1, DNS-like job size (1/µ = 194 ms), utilization 0.1.
//! let mu = 1.0 / 0.194;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let jobs = generator::generate(
//!     10_000,
//!     &Exponential::new(0.1 * mu)?,
//!     &Exponential::new(mu)?,
//!     &mut rng,
//! )?;
//! let env = SimEnv::new(presets::xeon(), FrequencyScaling::CpuBound);
//! let policy = Policy::new(Frequency::new(0.42)?, SleepProgram::immediate(presets::C6_S3));
//! let out = simulate(&jobs, &policy, &env);
//! assert!(out.avg_power().as_watts() < 130.0); // far below the 250 W peak
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod env;
mod error;
pub mod generator;
mod job;
mod ledger;
mod outcome;
mod split;
pub mod sweep;

pub use engine::{
    simulate, simulate_summary, simulate_summary_into, CarryState, OnlineSim, ResolvedPolicy,
    SimScratch,
};
pub use env::SimEnv;
pub use error::SimError;
pub use job::{pack_id, try_pack_id, ClassId, Job, JobCursor, JobRecord, JobStream, SEQUENCE_BITS};
pub use ledger::EnergyLedger;
pub use outcome::{EpochOutcome, Residency, SimOutcome};
pub use split::StreamSplit;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::generator;
    pub use crate::sweep;
    pub use crate::{
        simulate, simulate_summary, simulate_summary_into, CarryState, ClassId, EnergyLedger,
        EpochOutcome, Job, JobCursor, JobRecord, JobStream, OnlineSim, Residency, ResolvedPolicy,
        SimEnv, SimError, SimOutcome, SimScratch, StreamSplit,
    };
}
