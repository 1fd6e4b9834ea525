//! Multi-server scale-out for SleepScale — the paper's Section 7 future
//! work, built out: "Another research direction involves studying
//! SleepScale on multi-core, multi-server systems … SleepScale can be
//! performed on each core or server independently."
//!
//! A [`Cluster`] holds `N` servers, each running its **own** SleepScale
//! controller (its own predictor, job log, and policy manager) over its
//! own queue, exactly as the paper prescribes. A [`Dispatcher`] routes
//! each arriving job to a server; the choice of dispatcher governs how
//! much sleep opportunity the fleet sees:
//!
//! * [`RoundRobin`] / [`RandomUniform`] — spreading: every server sees a
//!   thinned copy of the trace and idles often but briefly.
//! * [`JoinShortestBacklog`] — classic latency-optimal spreading.
//! * [`PackFirstFit`] — packing: fill the first servers up to a backlog
//!   threshold so the rest of the fleet sleeps deeply (the
//!   energy-proportionality play the paper's Section 1 motivates).
//! * [`SplitUniform`] — stateless seeded-hash spreading: each job's
//!   server is a pure function of its sequence number, which is what
//!   lets [`Cluster::run_sharded`] bucket each segment of the stream by
//!   shard and run the shards concurrently with byte-identical results
//!   at mega-fleet scale.
//!
//! Dispatchers observe the fleet through an incrementally maintained
//! [`DispatchIndex`] (one O(log N) re-key per dispatched job, no per-job
//! fleet snapshot), epoch control fans out across scoped threads with
//! thread-count-invariant results, and fleet statistics stream into
//! constant memory — see [`Cluster`] for the engine's contract.
//!
//! Fleets are described as a list of [`ServerGroup`]s — mixed machine
//! generations, per-group QoS, and per-group strategies (declared as
//! [`sleepscale::StrategySpec`] data) all run side by side behind one
//! dispatcher, with one shared characterization cache *per group*.
//!
//! # Example
//!
//! ```no_run
//! use sleepscale_cluster::{Cluster, ClusterConfig, PackFirstFit, ServerGroup};
//! use sleepscale::{QosConstraint, RuntimeConfig, StrategySpec};
//! # use sleepscale_workloads::{traces, WorkloadSpec, WorkloadDistributions, ReplayConfig};
//! # use rand::SeedableRng;
//! let spec = WorkloadSpec::dns();
//! let runtime = RuntimeConfig::builder(spec.service_mean())
//!     .qos(QosConstraint::mean_response(0.8)?)
//!     .build()?;
//! // A heterogeneous fleet: six SleepScale servers next to two racing.
//! let config = ClusterConfig::new(
//!     &runtime,
//!     vec![
//!         ServerGroup::new("sleepscale", 6, StrategySpec::sleepscale()),
//!         ServerGroup::new("race", 2, StrategySpec::race_to_halt_c6()),
//!     ],
//! )?;
//! let mut cluster = Cluster::new(config);
//! # let trace = traces::email_store(1, 7).window(480, 600);
//! # let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! # let dists = WorkloadDistributions::empirical(&spec, 4000, &mut rng)?;
//! # let jobs = sleepscale_workloads::replay_trace(&trace, &dists, &ReplayConfig::for_fleet(8), &mut rng)?;
//! let report = cluster.run(&trace, &jobs, &mut PackFirstFit::new(30.0))?;
//! for group in report.group_summaries() {
//!     println!("{}: {:.0} W", group.name, group.avg_power);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod dispatch;
mod report;

pub use cluster::{Cluster, ClusterConfig, ServerGroup};
pub use dispatch::{
    ActiveSet, ClassAffinity, DispatchIndex, Dispatcher, JoinShortestBacklog, PackFirstFit,
    RandomUniform, RoundRobin, RouteDecision, SplitUniform,
};
pub use report::{ClusterReport, GroupSummary, ServerSummary};
