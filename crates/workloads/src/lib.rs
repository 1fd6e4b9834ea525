//! Workload substrate for the SleepScale reproduction: Table-5 workload
//! statistics, a BigHouse-substitute distribution store, synthetic
//! utilization traces (Figure 7), job-stream replay (Section 6), and the
//! runtime's job logs (Section 5.2.1).
//!
//! # BigHouse substitution
//!
//! The paper draws inter-arrival and service distributions from the
//! BigHouse simulator's stored live-trace statistics, of which Table 5
//! publishes the mean and coefficient of variation. We cannot obtain the
//! original histograms, so [`bighouse`] *synthesizes* empirical CDF
//! tables from moment-matched families and replays them exactly like
//! BigHouse replays its histograms (see DESIGN.md for why this preserves
//! the evaluation's behaviour).
//!
//! # Trace substitution
//!
//! Figure 7's 3-day departmental utilization traces (file server, email
//! store) are likewise unavailable; [`traces`] synthesizes seeded
//! minute-granularity traces with the same qualitative features: diurnal
//! periodicity, minute-scale noise, the file server's low dynamic range,
//! and the email store's wide range with abrupt 8 PM–2 AM backup surges.
//!
//! # Example
//!
//! ```
//! use sleepscale_workloads::prelude::*;
//! let spec = WorkloadSpec::google();
//! assert_eq!(spec.name(), "Google");
//! let trace = traces::email_store(3, 7);
//! assert_eq!(trace.len(), 3 * 24 * 60);
//! let day = trace.window(2 * 60, 20 * 60); // the paper's 2 AM–8 PM window
//! assert_eq!(day.len(), 18 * 60);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bighouse;
mod error;
mod logs;
mod replay;
mod spec;
pub mod traces;

pub use bighouse::WorkloadDistributions;
pub use error::WorkloadError;
pub use logs::JobLog;
pub use replay::{replay_class, replay_trace, ReplayConfig};
pub use spec::WorkloadSpec;
pub use traces::UtilizationTrace;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::bighouse;
    pub use crate::traces;
    pub use crate::{
        replay_trace, JobLog, ReplayConfig, UtilizationTrace, WorkloadDistributions, WorkloadError,
        WorkloadSpec,
    };
}
