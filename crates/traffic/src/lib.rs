//! Class-tagged traffic for the SleepScale reproduction: *who* the
//! jobs are, on top of the existing how-much (utilization schedules)
//! and how-fast (policy) axes.
//!
//! # Tagged draws vs moment-composed mixtures
//!
//! The original `WorkloadSource::Mix` collapses several job
//! populations into one [`WorkloadSpec`](sleepscale_workloads::WorkloadSpec)
//! *before any job exists*: mixture mean and mixture second moment
//! (hence mixture Cv), which is exactly the statistic Table 5
//! publishes for its own mixed live traces. That is faithful at the
//! population level but erases identity — once the moments are
//! composed, no per-component question (an interactive class's p95, a
//! batch class's energy share) can ever be answered.
//!
//! A [`TrafficModel`] keeps the components apart: every arriving job
//! is drawn from its *own class's* inter-arrival and service tables
//! (sizes per class, arrivals interleaved by weight) and carries a
//! compact [`ClassId`](sleepscale_sim::ClassId) tag packed into its
//! job id. The tag rides through the simulator for free — the engine
//! never inspects it — and surfaces as per-class response summaries in
//! run, cluster, and scenario reports, against per-class QoS targets
//! ("p95 ≤ 2× for interactive while batch rides at 10×").
//!
//! The two semantics are deliberately tied together: `Mix` resolves
//! through [`TrafficModel::moment_spec`], the one moment composition
//! [`TrafficModel::composed_spec`] also applies (the property suite
//! checks a tagged stream's realized moments converge to it), and a
//! single-class model's stream is **byte-identical** to the untagged
//! replay of its spec — which is why every untagged scenario source
//! replays as one (the `multiclass` gate bin asserts whole-report
//! parity).
//!
//! # What's here
//!
//! * [`TrafficClass`]/[`TrafficModel`] — the class mixture as data
//!   (serde-derivable, used by `WorkloadSource::Tagged`).
//! * [`ArrivalModulator`] — per-class rate shaping: flash-crowd
//!   [`Burst`](ArrivalModulator::Burst) windows, per-class
//!   [`Diurnal`](ArrivalModulator::Diurnal) swings, constant
//!   [`Scale`](ArrivalModulator::Scale) factors.
//! * [`replay_traffic`] — the ground-truth stream generator every
//!   scenario replays through: one
//!   [`sleepscale_workloads::replay_class`] pass per class, interleaved
//!   by arrival. For one class it is
//!   [`sleepscale_workloads::replay_trace`], byte for byte.
//! * [`arrival_log`] — CSV ingestion/export of measured, class-tagged
//!   arrival traces.
//!
//! # Example
//!
//! ```
//! use sleepscale_traffic::prelude::*;
//! use sleepscale_workloads::{ReplayConfig, UtilizationTrace, WorkloadSpec};
//! use rand::SeedableRng;
//!
//! let model = TrafficModel::new(vec![
//!     TrafficClass::new("interactive", WorkloadSpec::dns(), 2.0).with_p95_budget(12.0),
//!     TrafficClass::new("batch", WorkloadSpec::mail(), 1.0),
//! ])?;
//! let trace = UtilizationTrace::constant(0.3, 60)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let tables = model.empirical_tables(4_000, &mut rng)?;
//! let jobs = replay_traffic(&trace, &model, &tables, &ReplayConfig::default(), &mut rng)?;
//! assert!(jobs.is_tagged());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival_log;
mod error;
mod model;
mod replay;

pub use arrival_log::ArrivalLog;
pub use error::TrafficError;
pub use model::{
    mix_moments, ArrivalModulator, TrafficClass, TrafficModel, MAX_CLASSES, MAX_RATE_FACTOR,
};
pub use replay::replay_traffic;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::arrival_log;
    pub use crate::{
        replay_traffic, ArrivalLog, ArrivalModulator, TrafficClass, TrafficError, TrafficModel,
    };
    pub use sleepscale_sim::ClassId;
}
