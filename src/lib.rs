//! Meta-crate for the SleepScale reproduction workspace.
//!
//! This package exists to host the runnable [examples](../examples) and the
//! cross-crate integration tests under `tests/`. It re-exports every
//! workspace crate under one roof so examples can write
//! `use sleepscale_repro::prelude::*;`.
//!
//! The actual library code lives in the `crates/` members:
//!
//! * [`sleepscale_power`] — CPU/platform power-state models (paper §3.1).
//! * [`sleepscale_dist`] — random-variate library and moment fitting.
//! * [`sleepscale_sim`] — the FCFS queueing simulator (paper Algorithm 1).
//! * [`sleepscale_analytic`] — closed-form M/M/1-with-sleep results (appendix).
//! * [`sleepscale_workloads`] — Table-5 workloads, utilization traces, replay.
//! * [`sleepscale_traffic`] — class-tagged traffic: multi-class job streams
//!   drawn per component and burst/diurnal arrival modulators.
//! * [`sleepscale_predict`] — utilization predictors (paper Algorithm 2).
//! * [`sleepscale`] — the policy manager, runtime, and baseline strategies.
//! * [`sleepscale_cluster`] — multi-server scale-out behind pluggable
//!   dispatchers (paper §7 future work), with heterogeneous server groups.
//! * [`sleepscale_autoscale`] — the fleet control plane: the closed-loop
//!   autoscaler's control law, spec, and snapshotable controller state.
//! * [`sleepscale_telemetry`] — deterministic structured event tracing,
//!   trace sinks, and the worker-invariant metrics registry.
//! * [`sleepscale_scenario`] — the unified declarative Scenario API: one
//!   entry point over the runtime, analytic, and cluster backends.

pub use sleepscale;
pub use sleepscale_analytic;
pub use sleepscale_autoscale;
pub use sleepscale_cluster;
pub use sleepscale_dist;
pub use sleepscale_power;
pub use sleepscale_predict;
pub use sleepscale_scenario;
pub use sleepscale_sim;
pub use sleepscale_telemetry;
pub use sleepscale_traffic;
pub use sleepscale_workloads;

/// Convenience re-exports for examples and tests.
pub mod prelude {
    pub use sleepscale::prelude::*;
    pub use sleepscale_analytic as analytic;
    pub use sleepscale_analytic::{AnalyticOutcome, MG1Sleep, MM1Sleep, PolicyAnalyzer};
    pub use sleepscale_autoscale as autoscale;
    pub use sleepscale_cluster as cluster;
    pub use sleepscale_cluster::{ClusterConfig, ClusterReport, GroupSummary, ServerGroup};
    pub use sleepscale_dist::prelude::*;
    pub use sleepscale_power::prelude::*;
    pub use sleepscale_predict::prelude::*;
    pub use sleepscale_scenario::prelude::*;
    pub use sleepscale_sim::prelude::*;
    pub use sleepscale_telemetry as telemetry;
    pub use sleepscale_telemetry::{
        MemorySink, MetricsRegistry, ScaleCause, TelemetryReport, TelemetrySpec, TraceEvent,
        TraceSink,
    };
    pub use sleepscale_traffic::prelude::*;
    pub use sleepscale_workloads::prelude::*;
}
