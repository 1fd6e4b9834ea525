use sleepscale_sim::SimError;
use sleepscale_workloads::WorkloadError;
use std::fmt;

/// Errors from traffic-model construction and tagged replay.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// A traffic model's shape is invalid (empty, bad weights, bad
    /// modulator windows, too many classes, …).
    InvalidModel {
        /// What was wrong.
        reason: String,
    },
    /// A workload-layer failure (distribution fitting, spec
    /// validation).
    Workload(WorkloadError),
    /// A job-stream assembly failure.
    Stream(SimError),
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::InvalidModel { reason } => write!(f, "invalid traffic model: {reason}"),
            TrafficError::Workload(e) => write!(f, "workload error: {e}"),
            TrafficError::Stream(e) => write!(f, "job stream error: {e}"),
        }
    }
}

impl std::error::Error for TrafficError {}

impl From<WorkloadError> for TrafficError {
    fn from(e: WorkloadError) -> TrafficError {
        TrafficError::Workload(e)
    }
}

impl From<SimError> for TrafficError {
    fn from(e: SimError) -> TrafficError {
        TrafficError::Stream(e)
    }
}
