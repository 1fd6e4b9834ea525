use crate::dispatch::{ActiveSet, DispatchIndex, Dispatcher, RouteDecision, SplitUniform};
use crate::report::{ClusterReport, ServerSummary};
use serde::{Deserialize, Serialize};
use sleepscale::{
    CacheStats, CharacterizationCache, CharacterizationKey, CoreError, QosConstraint,
    RuntimeConfig, SleepScaleStrategy, Strategy, StrategySpec, WarmStartStats,
    DEFAULT_CACHE_CAPACITY,
};
use sleepscale_autoscale::{AutoscaleController, AutoscalerSpec, GroupLoad, ScaleReason};
use sleepscale_dist::{QuantileSketch, ScalarSummary, StreamingSummary};
use sleepscale_journal::{ByteReader, ByteWriter, CodecError, Snapshot};
use sleepscale_power::{ep, Policy, PowerSample, SleepProgram};
use sleepscale_sim::{
    Job, JobCursor, JobRecord, JobStream, OnlineSim, ResolvedPolicy, SimEnv, StreamSplit,
};
use sleepscale_telemetry::{
    MetricsRegistry, ScaleCause, TelemetryReport, TelemetrySpec, TraceEvent,
};
use sleepscale_workloads::UtilizationTrace;
use std::collections::{HashMap, HashSet};
use std::hash::{DefaultHasher, Hash, Hasher};

/// One homogeneous slice of a (possibly heterogeneous) fleet: `count`
/// identical servers of one machine class (`env`), each running an
/// independent strategy built from the same declarative `strategy`
/// spec, under one QoS constraint and over-provisioning factor.
///
/// Real scale-out deployments mix server generations and per-service
/// QoS (the energy-proportionality literature's heterogeneous racks);
/// a fleet is a `Vec<ServerGroup>` and every group keeps its own
/// shared characterization cache, so cache sharing and owner election
/// stay correct — and byte-identical — per group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerGroup {
    /// Display name (e.g. `"xeon-2019"`, `"atom-edge"`).
    pub name: String,
    /// Servers in this group.
    pub count: usize,
    /// The machine class: power model + frequency-scaling law.
    pub env: SimEnv,
    /// The per-server strategy, as data.
    pub strategy: StrategySpec,
    /// The group's QoS constraint.
    pub qos: QosConstraint,
    /// The group's over-provisioning factor `α`.
    pub over_provisioning: f64,
}

impl ServerGroup {
    /// A group of `count` Xeon-class servers under the paper's default
    /// QoS (`ρ_b = 0.8`) with no guard band; override fields with
    /// struct-update syntax for other shapes.
    pub fn new(name: impl Into<String>, count: usize, strategy: StrategySpec) -> ServerGroup {
        ServerGroup {
            name: name.into(),
            count,
            env: SimEnv::xeon_cpu_bound(),
            strategy,
            qos: QosConstraint::MeanResponse { rho_b: 0.8 },
            over_provisioning: 0.0,
        }
    }
}

/// Cluster-level configuration: the fleet's server groups plus the
/// per-group runtime configurations resolved against a base
/// [`RuntimeConfig`] (which contributes the workload-level knobs every
/// group shares: mean service time, epoch length, evaluation depth,
/// log capacity, predictor history).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    groups: Vec<ServerGroup>,
    runtimes: Vec<RuntimeConfig>,
}

impl ClusterConfig {
    /// Resolves a fleet of server groups against `base`: each group's
    /// runtime configuration takes its `env`, `qos`, and
    /// `over_provisioning` from the group and everything else from
    /// `base`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty fleet or a
    /// zero-count group — an accidental empty fleet should fail loudly
    /// at configuration time, not be clamped or panic mid-run.
    pub fn new(base: &RuntimeConfig, groups: Vec<ServerGroup>) -> Result<ClusterConfig, CoreError> {
        if groups.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "a cluster needs at least one server group".into(),
            });
        }
        let runtimes = groups
            .iter()
            .map(|group| {
                if group.count == 0 {
                    return Err(CoreError::InvalidConfig {
                        reason: format!(
                            "server group '{}' has zero servers — drop the group instead of \
                             leaving it empty",
                            group.name
                        ),
                    });
                }
                RuntimeConfig::builder(base.mean_service())
                    .qos(group.qos)
                    .epoch_minutes(base.epoch_minutes())
                    .eval_jobs(base.eval_jobs())
                    .log_capacity(base.log_capacity())
                    .over_provisioning(group.over_provisioning)
                    .predictor_history(base.predictor_history())
                    .env(group.env.clone())
                    .build()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ClusterConfig { groups, runtimes })
    }

    /// The classic single-group fleet: `n_servers` identical servers,
    /// each running the default SleepScale strategy, with `env`, QoS,
    /// and `α` taken from `runtime` itself.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `n_servers` is zero.
    pub fn homogeneous(
        n_servers: usize,
        runtime: RuntimeConfig,
    ) -> Result<ClusterConfig, CoreError> {
        let group = ServerGroup {
            name: "fleet".into(),
            count: n_servers,
            env: runtime.env().clone(),
            strategy: StrategySpec::sleepscale(),
            qos: runtime.qos(),
            over_provisioning: runtime.over_provisioning(),
        };
        ClusterConfig::new(&runtime, vec![group])
    }

    /// The fleet's server groups, in slot order (group 0's servers take
    /// the lowest dispatch indices).
    pub fn groups(&self) -> &[ServerGroup] {
        &self.groups
    }

    /// The resolved runtime configuration of group `g`.
    pub fn runtime_for(&self, g: usize) -> &RuntimeConfig {
        &self.runtimes[g]
    }

    /// Total fleet size (sum over groups).
    pub fn n_servers(&self) -> usize {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// The fleet-wide policy update interval `T` in minutes (shared by
    /// every group).
    pub fn epoch_minutes(&self) -> usize {
        self.runtimes[0].epoch_minutes()
    }
}

/// A server's live strategy: the concrete SleepScale type when the
/// group's spec is managed (the engine needs it for characterization
/// planning and cache sharing), a boxed [`Strategy`] otherwise.
enum SlotStrategy {
    Managed(Box<SleepScaleStrategy>),
    Plain(Box<dyn Strategy + Send>),
}

impl SlotStrategy {
    fn get(&self) -> &dyn Strategy {
        match self {
            SlotStrategy::Managed(s) => s.as_ref(),
            SlotStrategy::Plain(s) => s.as_ref(),
        }
    }

    fn get_mut(&mut self) -> &mut dyn Strategy {
        match self {
            SlotStrategy::Managed(s) => s.as_mut(),
            SlotStrategy::Plain(s) => s.as_mut(),
        }
    }

    fn managed(&mut self) -> Option<&mut SleepScaleStrategy> {
        match self {
            SlotStrategy::Managed(s) => Some(s),
            SlotStrategy::Plain(_) => None,
        }
    }
}

/// A server's per-job state, stored contiguously by slot: everything
/// [`dispatch_one`] reads or writes for a job routed to the server.
/// Its epoch-boundary state lives apart, in a [`SlotControl`].
struct ServerSlot {
    sim: OnlineSim,
    /// This epoch's policy: an index into the epoch's resolved table
    /// (`EpochEngine::policies`).
    policy: usize,
    epoch_work: f64,
    response_sum: f64,
    /// Per-slot scalar response statistics (count/moments/extrema).
    /// The fleet summary folds these in slot order at the end of the
    /// run — a fixed fold order, so the merged moments are
    /// byte-identical however dispatch work was spread across shards
    /// or worker threads. Quantile sketches stay per-shard (they merge
    /// exactly), keeping the per-slot state at ~40 bytes instead of
    /// ~38 KiB, which is what makes 100k-server fleets fit.
    responses: ScalarSummary,
    /// Per-class scalar slices, indexed by `ClassId`; grown on demand
    /// and only touched for genuinely tagged streams.
    class_stats: Vec<ScalarSummary>,
    /// Whether the slot's strategy reads `end_epoch` records; when it
    /// doesn't (fixed policies, race-to-halt), the dispatch loop skips
    /// the per-epoch record buffer entirely — at mega-fleet sizes that
    /// buffer churn is pure waste.
    wants_records: bool,
    epoch_records: Vec<JobRecord>,
}

/// A server's epoch-boundary state: its group, its strategy, and the
/// policy the strategy chose for the epoch. No per-job step touches it.
struct SlotControl {
    group: usize,
    strategy: SlotStrategy,
    policy: Option<Policy>,
}

impl ServerSlot {
    fn snapshot(&self, control: &SlotControl, w: &mut ByteWriter) {
        // Kind tag: 0 managed, 1 plain.
        w.put_u8(matches!(control.strategy, SlotStrategy::Plain(_)) as u8);
        self.sim.snapshot_state(w);
        match &control.strategy {
            // Group caches are shared; the engine snapshots each once
            // per group, not once per slot.
            SlotStrategy::Managed(s) => s.snapshot_checkpoint(w, false),
            SlotStrategy::Plain(s) => s.snapshot_state(w),
        }
        w.put_f64(self.response_sum);
        self.responses.snapshot(w);
        self.class_stats.snapshot(w);
    }

    fn restore(
        &mut self,
        control: &mut SlotControl,
        env: &SimEnv,
        r: &mut ByteReader<'_>,
    ) -> Result<(), CoreError> {
        let tag = r.get_u8()?;
        self.sim = OnlineSim::restore_state(env.clone(), r)?;
        match (&mut control.strategy, tag) {
            (SlotStrategy::Managed(s), 0) => s.restore_checkpoint(r, false)?,
            (SlotStrategy::Plain(s), 1) => s.restore_state(r)?,
            (_, tag) => {
                return Err(CodecError::Invalid(format!(
                    "slot strategy kind tag {tag} disagrees with the fleet configuration"
                ))
                .into());
            }
        }
        self.response_sum = r.get_f64()?;
        self.responses = ScalarSummary::restore(r)?;
        self.class_stats = Vec::restore(r)?;
        Ok(())
    }
}

/// The sharded loop dispatches an epoch in segments of
/// `SEGMENT_PER_SHARD` jobs per shard (24 B/job of reusable scratch),
/// never fewer than `SEGMENT_FLOOR`: each shard gets enough jobs per
/// visit to amortize its hand-off to a worker, while the scratch stays
/// a bounded slice of the stream instead of a copy of it.
const SEGMENT_FLOOR: usize = 1 << 20;
const SEGMENT_PER_SHARD: usize = 1 << 12;

/// One dispatch loop's quantile sketches: fleet-wide, and per class for
/// tagged streams. The central loop keeps one set, the sharded loop one
/// per shard. Merges add bucket counts exactly, so folding the sets in
/// order ([`merge_sketches`]) yields the same bytes as one fleet-wide
/// set — shard count cannot leak into any reported quantile.
#[derive(Default)]
struct Sketches {
    all: QuantileSketch,
    classes: Vec<QuantileSketch>,
}

impl Snapshot for Sketches {
    fn snapshot(&self, w: &mut ByteWriter) {
        self.all.snapshot(w);
        self.classes.snapshot(w);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Sketches, CodecError> {
        Ok(Sketches { all: QuantileSketch::restore(r)?, classes: Vec::restore(r)? })
    }
}

/// Folds sketch sets, in order, into one.
fn merge_sketches(sets: &[Sketches]) -> Sketches {
    let mut merged = Sketches::default();
    for set in sets {
        merged.all.merge(&set.all);
        if merged.classes.len() < set.classes.len() {
            merged.classes.resize_with(set.classes.len(), QuantileSketch::new);
        }
        for (into, s) in merged.classes.iter_mut().zip(&set.classes) {
            into.merge(s);
        }
    }
    merged
}

/// A fleet of servers, each with its own queue, power state, and
/// per-server controller; a [`Dispatcher`] splits the cluster-wide
/// arrival stream across them.
///
/// The engine is built for scale-out fleets (§7 grown to the scale the
/// energy-proportionality literature studies):
///
/// * **Incremental dispatch** — routing reads an incrementally
///   maintained [`DispatchIndex`] (one O(log N) re-key per dispatched
///   job) instead of rebuilding a per-job O(N) fleet snapshot.
/// * **Parallel epoch control** — per-server policy selection and
///   epoch close-out fan out across scoped threads. Before the fan-out,
///   the engine elects one *owner* per distinct missing
///   characterization key per group (the first server planning it,
///   exactly the server that would compute it in a serial sweep), so
///   fleet results are byte-identical for every thread count.
/// * **Streaming statistics** — fleet response aggregates fold into a
///   constant-memory [`StreamingSummary`] instead of an O(total-jobs)
///   sample vector (the p95 is sketched to ±0.5% relative; counts,
///   means, and energy stay exact).
/// * **Heterogeneous fleets** — the fleet is a list of
///   [`ServerGroup`]s (mixed machine generations, per-group QoS and
///   strategies). Within a group every managed controller shares one
///   [`CharacterizationCache`]: when the dispatcher balances load, the
///   group's servers predict the same (quantized) utilization over
///   logs with the same coarse signature, and the first server to
///   characterize an epoch serves the rest of its group from the cache
///   — one sweep per group per epoch instead of one per server. Caches
///   are strictly per group (a cache is only valid between identically
///   configured managers), which keeps heterogeneous fleets exactly as
///   reproducible as homogeneous ones.
///
/// The utilization trace is interpreted cluster-wide: `ρ(t)` is the
/// offered load as a fraction of *total* fleet capacity, so the job
/// stream should be generated for arrival rate `ρ(t)·N·µ`.
pub struct Cluster {
    config: ClusterConfig,
    caches: Vec<CharacterizationCache>,
    threads: usize,
    last_warm: WarmStartStats,
    autoscaler: Option<AutoscalerSpec>,
    telemetry: Option<TelemetrySpec>,
    last_telemetry: Option<TelemetryReport>,
}

impl Cluster {
    /// Builds the fleet descriptor; each [`Cluster::run`] instantiates a
    /// fresh set of servers from it (so back-to-back runs start from
    /// identical cold fleets), every server getting an independent
    /// strategy lowered from its group's spec and its own energy
    /// ledger, with one characterization cache shared per group and
    /// persistent across runs.
    pub fn new(config: ClusterConfig) -> Cluster {
        // Each group's cache is sized so a fleet-day's distinct keys
        // fit without eviction: owner election (and hence
        // byte-reproducibility across engines and thread counts)
        // relies on keys staying resident between the planning peek
        // and the epoch's inserts.
        let caches = config
            .groups()
            .iter()
            .map(|g| CharacterizationCache::new(Cluster::cache_capacity(g.count)))
            .collect();
        Cluster {
            config,
            caches,
            threads: 0,
            last_warm: WarmStartStats::default(),
            autoscaler: None,
            telemetry: None,
            last_telemetry: None,
        }
    }

    /// The shared cache capacity for an `n`-server group: large enough
    /// that a day of per-server key churn never evicts (eviction order
    /// under concurrent owner inserts is schedule-dependent, so the
    /// no-eviction regime is what makes fleet runs reproducible).
    pub fn cache_capacity(n_servers: usize) -> usize {
        DEFAULT_CACHE_CAPACITY.max(n_servers * 128)
    }

    /// Pins the worker count for the parallel epoch-control phases
    /// (0, the default, sizes to the machine). Results are identical
    /// for every value — the knob exists so tests and benches can prove
    /// exactly that — as long as no group cache evicts (owner election
    /// peeks at residency, and eviction order under concurrent inserts
    /// is schedule-dependent). [`Cluster::cache_capacity`] sizes the
    /// caches for that regime; a run that still overflows one reports
    /// `characterization_stats().evictions > 0`, which is the signal
    /// that byte-reproducibility is no longer guaranteed.
    pub fn with_threads(mut self, threads: usize) -> Cluster {
        self.threads = threads;
        self
    }

    /// Arms the closed-loop autoscaler: at every epoch boundary a
    /// fleet-wide controller compares each group's realized utilization
    /// (dispatched work plus backlog overhang, over the *active*
    /// servers) against the spec's hysteresis band, parks trailing
    /// drained servers of over-provisioned groups in the spec's deep
    /// C-state (drained, excluded from dispatch, idling on the parked
    /// ladder), and wakes them — paying the modeled wake latency at
    /// active power — when load returns or any guarded class's p95
    /// drifts past its budget. Every decision is a pure function of
    /// epoch-boundary state, so autoscaled runs keep the engine's
    /// byte-determinism across worker and shard counts.
    ///
    /// A parked server leaves the [`crate::ActiveSet`], which
    /// positional dispatchers draw from, and its [`DispatchIndex`] leaf
    /// sits at `+∞`, which no query of the index-reading dispatchers
    /// returns. A route to it anyway fails the run as a dispatcher bug.
    ///
    /// Without an autoscaler (the default) every server stays active:
    /// dispatch still routes through the active set, which is then the
    /// whole fleet, so every route equals [`Dispatcher::route`]'s and
    /// existing runs are byte-identical to a build without this
    /// feature.
    pub fn with_autoscaler(mut self, spec: AutoscalerSpec) -> Cluster {
        self.autoscaler = Some(spec);
        self
    }

    /// Arms the telemetry layer for subsequent runs: each server
    /// records its structured trace (C-state/idle residency, wakes,
    /// per-epoch policy decisions) into a per-slot buffer, and the
    /// engine appends fleet-level events (dispatch spills, autoscaler
    /// park/wake with the triggering reason). The buffers merge at the
    /// run's serial slot-order merge point and the counter registry is
    /// folded from the merged trace
    /// ([`MetricsRegistry::from_trace`]), so the collected telemetry is
    /// byte-identical across worker and shard counts. Collect with
    /// [`Cluster::take_telemetry`] after the run.
    ///
    /// Telemetry never flows through [`ClusterReport`]; an unarmed
    /// cluster takes the exact pre-telemetry code paths (each emit site
    /// is one `Option` check inside the per-server simulator).
    pub fn with_telemetry(mut self, spec: TelemetrySpec) -> Cluster {
        self.telemetry = Some(spec);
        self
    }

    /// Takes the telemetry collected by the most recent run (events in
    /// slot order, fleet-level events appended in simulation-time
    /// order; counters in the fold's fixed schema order). `None` when the
    /// cluster was not armed with [`Cluster::with_telemetry`] or no run
    /// has completed since.
    pub fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        self.last_telemetry.take()
    }

    /// The fleet configuration this cluster was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Hit/miss counters summed over every group's shared cache —
    /// `hits` counts the per-server sweeps the sharing eliminated.
    pub fn characterization_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for cache in &self.caches {
            let stats = cache.stats();
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.evictions += stats.evictions;
            total.entries += stats.entries;
        }
        total
    }

    /// Per-group cache counters, in group order.
    pub fn group_characterization_stats(&self) -> Vec<(String, CacheStats)> {
        self.config
            .groups()
            .iter()
            .zip(&self.caches)
            .map(|(g, c)| (g.name.clone(), c.stats()))
            .collect()
    }

    /// Aggregated cross-epoch warm-start counters of the most recent
    /// [`Cluster::run`] (how many per-program bowl searches on cache
    /// misses started from a remembered bottom, and how many boundary
    /// searches hit the remembered QoS boundary).
    pub fn warm_start_stats(&self) -> WarmStartStats {
        self.last_warm
    }

    fn build_slots(&self) -> (Vec<ServerSlot>, Vec<SlotControl>) {
        let epoch_seconds = self.config.epoch_minutes() as f64 * 60.0;
        let n = self.config.n_servers();
        let (mut slots, mut controls) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (gi, group) in self.config.groups().iter().enumerate() {
            let runtime = self.config.runtime_for(gi);
            for _ in 0..group.count {
                let strategy = match group.strategy.build_managed(runtime) {
                    Some(managed) => {
                        // An uncached spec opted out of sharing; a cached
                        // one joins the group's fleet-shared cache.
                        SlotStrategy::Managed(Box::new(if group.strategy.is_cached() {
                            managed.with_shared_cache(self.caches[gi].clone())
                        } else {
                            managed
                        }))
                    }
                    None => SlotStrategy::Plain(group.strategy.build(runtime)),
                };
                slots.push(ServerSlot {
                    sim: OnlineSim::new(runtime.env().clone(), epoch_seconds),
                    policy: 0,
                    epoch_work: 0.0,
                    response_sum: 0.0,
                    responses: ScalarSummary::new(),
                    class_stats: Vec::new(),
                    wants_records: strategy.get().wants_epoch_records(),
                    epoch_records: Vec::new(),
                });
                controls.push(SlotControl { group: gi, strategy, policy: None });
            }
        }
        (slots, controls)
    }

    fn worker_count(&self, slots: usize) -> usize {
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            self.threads
        };
        threads.min(slots.max(1))
    }

    /// Runs a fresh fleet over a trace and cluster-wide job stream.
    /// The cluster itself is reusable: each call builds its servers
    /// anew (only the per-group shared characterization caches
    /// persist), so back-to-back runs on one `Cluster` are supported
    /// and, with warm caches, byte-identical.
    ///
    /// Generate the stream with
    /// [`sleepscale_workloads::ReplayConfig::for_fleet`] so the arrival
    /// *rate* carries the fleet factor while the timeline still follows
    /// the trace (compressing inter-arrivals after the fact would
    /// time-compress the whole day into the first `1/N` of the run).
    ///
    /// # Errors
    ///
    /// Propagates per-server strategy errors, and rejects a dispatcher
    /// that routes outside the active set (to a parked server, or to
    /// an index `>= n_servers`) — such a route is a dispatcher bug, not
    /// something to clamp silently onto another server.
    pub fn run(
        &mut self,
        trace: &UtilizationTrace,
        jobs: &JobStream,
        dispatcher: &mut dyn Dispatcher,
    ) -> Result<ClusterReport, CoreError> {
        Ok(self
            .run_checkpointed(trace, jobs, dispatcher, None, None)?
            .expect("run without a checkpoint sink always completes"))
    }

    /// The checkpoint-aware form of [`Cluster::run`]: same engine, but
    /// optionally seeded from a prior epoch-boundary snapshot and
    /// optionally emitting one snapshot per completed epoch (see
    /// [`sleepscale::run_resumable`] for the sink/resume contract).
    ///
    /// The snapshot captures every per-slot simulator, strategy memory,
    /// the group caches, the dispatcher's routing state, and the fleet
    /// statistics, so a resumed run is byte-identical to the
    /// uninterrupted one. The dispatcher must be freshly constructed
    /// from the same configuration that produced the snapshot; worker
    /// thread counts may differ freely between the runs.
    ///
    /// # Errors
    ///
    /// Propagates strategy/dispatcher errors, sink errors, and
    /// [`CoreError::Checkpoint`] for malformed `resume_from` bytes or a
    /// snapshot taken under different routing.
    pub fn run_checkpointed(
        &mut self,
        trace: &UtilizationTrace,
        jobs: &JobStream,
        dispatcher: &mut dyn Dispatcher,
        resume_from: Option<&[u8]>,
        sink: Option<sleepscale::CheckpointSink<'_>>,
    ) -> Result<Option<ClusterReport>, CoreError> {
        let index = DispatchIndex::new(self.config.n_servers());
        self.run_inner(trace, jobs, Routing::Central { dispatcher, index }, resume_from, sink)
    }

    /// Runs the fleet *sharded*: servers are partitioned into `shards`
    /// contiguous slices, each arrival is routed by `split` (a pure
    /// function of the split seed and the job's sequence number — never
    /// of timing), and the engine walks each epoch in bounded segments:
    /// it buckets a segment's jobs by shard, then dispatches the shards
    /// concurrently, each with its own streaming accumulators. Memory
    /// beyond the stream itself is one segment of scratch, never a copy
    /// of the stream.
    ///
    /// The report is **byte-identical for every shard count**,
    /// including `shards = 1` and including [`Cluster::run`] with a
    /// [`crate::SplitUniform`] dispatcher built from the same seed:
    /// both engines map jobs to servers through
    /// [`crate::SplitUniform::slot_of`], each server therefore serves
    /// the same jobs in the same order, epoch control stays fleet-wide
    /// (serial owner election, synchronized begin/close phases), and
    /// the statistics merge along order-insensitive paths (exact
    /// sketch bucket adds across shards) or fixed-order folds (per-slot
    /// scalar moments folded in slot order). Backlog-aware dispatchers cannot shard this way —
    /// their routing reads fleet-wide live state — which is why this
    /// entry point takes a [`StreamSplit`], not a [`Dispatcher`].
    ///
    /// `shards` is clamped to `[1, n_servers]`; worker threads (set by
    /// [`Cluster::with_threads`]) are shared across shards, so shard
    /// count and thread count can be tuned independently without
    /// touching the bytes.
    ///
    /// # Errors
    ///
    /// Propagates per-server strategy errors.
    pub fn run_sharded(
        &mut self,
        trace: &UtilizationTrace,
        jobs: &JobStream,
        split: StreamSplit,
        shards: usize,
    ) -> Result<ClusterReport, CoreError> {
        Ok(self
            .run_sharded_checkpointed(trace, jobs, split, shards, None, None)?
            .expect("run without a checkpoint sink always completes"))
    }

    /// The checkpoint-aware form of [`Cluster::run_sharded`] (see
    /// [`Cluster::run_checkpointed`] for the sink/resume contract).
    /// Resuming requires the same split seed and shard count the
    /// snapshot was taken under (shard count shapes the per-shard
    /// sketch state, even though it never shapes the report bytes);
    /// worker thread counts may differ freely.
    ///
    /// # Errors
    ///
    /// Propagates strategy errors, sink errors, and
    /// [`CoreError::Checkpoint`] for malformed `resume_from` bytes or a
    /// shard-count/routing mismatch.
    pub fn run_sharded_checkpointed(
        &mut self,
        trace: &UtilizationTrace,
        jobs: &JobStream,
        split: StreamSplit,
        shards: usize,
        resume_from: Option<&[u8]>,
        sink: Option<sleepscale::CheckpointSink<'_>>,
    ) -> Result<Option<ClusterReport>, CoreError> {
        // Contiguous server shards. Each job's server is the seeded hash
        // of its sequence number and its shard follows from the server,
        // so the job→server map — and with it every per-server arrival
        // subsequence — is independent of the shard count.
        let n = self.config.n_servers();
        let chunk = n.div_ceil(shards.clamp(1, n));
        let scratch = vec![Vec::new(); n.div_ceil(chunk)];
        let router = SplitUniform::new(split.seed());
        self.run_inner(trace, jobs, Routing::Sharded { router, chunk, scratch }, resume_from, sink)
    }

    /// The epoch loop: restore, then per epoch open → dispatch → close
    /// → control → checkpoint, then finish. Each phase is an
    /// [`EpochEngine`] method.
    fn run_inner(
        &mut self,
        trace: &UtilizationTrace,
        jobs: &JobStream,
        routing: Routing<'_>,
        resume_from: Option<&[u8]>,
        mut sink: Option<sleepscale::CheckpointSink<'_>>,
    ) -> Result<Option<ClusterReport>, CoreError> {
        self.last_telemetry = None;
        if self.telemetry.is_some() && (resume_from.is_some() || sink.is_some()) {
            return Err(CoreError::InvalidConfig {
                reason: "telemetry composes with neither checkpoint sinks nor resume — run \
                         without telemetry or without checkpointing"
                    .into(),
            });
        }
        let mut engine = EpochEngine::new(self, trace, jobs, routing)?;
        let start_epoch = match resume_from {
            Some(bytes) => engine.restore(bytes)?,
            None => 0,
        };
        for k in start_epoch..engine.n_epochs {
            let epoch_end = engine.epoch_end(k);
            engine.open(k)?;
            engine.dispatch(epoch_end)?;
            engine.close(k, epoch_end)?;
            engine.control(k, epoch_end);
            if let Some(sink) = sink.as_deref_mut() {
                if !sink(k, engine.checkpoint(k).as_bytes())? {
                    return Ok(None);
                }
            }
        }
        let (report, warm, telemetry) = engine.finish();
        self.last_warm = warm;
        self.last_telemetry = telemetry;
        Ok(Some(report))
    }
}

/// How [`Cluster::run_inner`] routes arrivals onto servers, with the
/// per-run state each way needs.
enum Routing<'a> {
    /// One sequential dispatch loop: a stateful [`Dispatcher`] that may
    /// read the live fleet backlog through a fleet-wide index.
    Central { dispatcher: &'a mut dyn Dispatcher, index: DispatchIndex },
    /// Seeded-hash routing ([`SplitUniform::slot_of`]) over contiguous
    /// shards of `chunk` servers that dispatch concurrently, bucketing
    /// each segment of the epoch into reusable per-shard scratch.
    Sharded { router: SplitUniform, chunk: usize, scratch: Vec<Vec<Job>> },
}

/// One run's state, advanced through the named phases of
/// [`Cluster::run_inner`].
struct EpochEngine<'a, 'd> {
    cluster: &'a Cluster,
    routing: Routing<'d>,
    /// Both loops consume arrivals in time order through one borrowed
    /// cursor.
    cursor: JobCursor<'a>,
    slots: Vec<ServerSlot>,
    /// Each slot's epoch-boundary half, in slot order.
    controls: Vec<SlotControl>,
    /// The epoch's policies, resolved once per (group, policy) pair
    /// against the group's environment; slots index into it.
    policies: Vec<ResolvedPolicy>,
    /// One sketch set per dispatch loop: one for the central loop, one
    /// per shard.
    sketches: Vec<Sketches>,
    /// The routable servers, as one `(first slot, active count)` per
    /// group — the whole fleet unless the autoscaler has parked some.
    /// Active servers are always a *prefix* of each group's slot range
    /// (the controller parks from the tail and wakes the lowest parked
    /// slot), so the counts change only on transitions and every
    /// [`ActiveSet`] is a view over this vector.
    active_groups: Vec<(usize, usize)>,
    /// The autoscaler's controller and the sleep program parked servers
    /// idle on.
    autoscaler: Option<(AutoscaleController, SleepProgram)>,
    /// Telemetry: events accumulate in per-slot buffers (the parallel
    /// phases touch disjoint slots, so no sink is ever called from
    /// concurrent code) and merge in slot order at `finish`; fleet-level
    /// events (dispatch spills, autoscaler transitions) append after,
    /// in simulation-time order. Unarmed runs record nothing.
    trace_on: bool,
    fleet_events: Vec<TraceEvent>,
    /// Per-class slices only arm for genuinely multi-class streams;
    /// untagged fleets (and single-class tagged ones, whose class *is*
    /// the default) skip the per-job class accounting and report empty
    /// slices — byte-identical to the pre-tag engine.
    tagged: bool,
    threads: usize,
    epoch_minutes: usize,
    epoch_seconds: f64,
    total_minutes: usize,
    n_epochs: usize,
}

impl<'a, 'd> EpochEngine<'a, 'd> {
    /// A fresh fleet at the start of the trace, with the autoscaler's
    /// configuration checked against the epoch length.
    fn new(
        cluster: &'a Cluster,
        trace: &UtilizationTrace,
        jobs: &'a JobStream,
        routing: Routing<'d>,
    ) -> Result<EpochEngine<'a, 'd>, CoreError> {
        let config = &cluster.config;
        let (mut slots, controls) = cluster.build_slots();
        let trace_on = cluster.telemetry.is_some();
        if trace_on {
            for (i, slot) in slots.iter_mut().enumerate() {
                slot.sim.enable_trace(i as u32);
            }
        }
        let epoch_minutes = config.epoch_minutes();
        let epoch_seconds = epoch_minutes as f64 * 60.0;
        let autoscaler = match &cluster.autoscaler {
            Some(spec) => {
                let program = spec
                    .parked_program(epoch_seconds)
                    .map_err(|reason| CoreError::InvalidConfig { reason })?;
                let sizes = config.groups().iter().map(|g| g.count).collect();
                Some((AutoscaleController::new(spec.clone(), sizes), program))
            }
            None => None,
        };
        let mut next = 0;
        let active_groups = config
            .groups()
            .iter()
            .map(|g| {
                next += g.count;
                (next - g.count, g.count)
            })
            .collect();
        let loops = match &routing {
            Routing::Central { .. } => 1,
            Routing::Sharded { scratch, .. } => scratch.len(),
        };
        Ok(EpochEngine {
            cluster,
            routing,
            cursor: jobs.cursor(),
            threads: cluster.worker_count(slots.len()),
            slots,
            controls,
            policies: Vec::new(),
            sketches: (0..loops).map(|_| Sketches::default()).collect(),
            active_groups,
            autoscaler,
            trace_on,
            fleet_events: Vec::new(),
            tagged: jobs.is_tagged(),
            epoch_minutes,
            epoch_seconds,
            total_minutes: trace.len(),
            n_epochs: trace.len().div_ceil(epoch_minutes),
        })
    }

    /// The boundary that closes epoch `k`, seconds.
    fn epoch_end(&self, k: usize) -> f64 {
        k as f64 * self.epoch_seconds + self.epoch_seconds
    }

    /// Restores the state [`EpochEngine::checkpoint`] wrote and returns
    /// the first epoch still to run.
    fn restore(&mut self, bytes: &[u8]) -> Result<usize, CoreError> {
        let mut r = ByteReader::new(bytes);
        let done = r.get_usize()?;
        if done >= self.n_epochs {
            return Err(CoreError::Checkpoint {
                reason: format!(
                    "snapshot is at epoch {done} but the run has only {}",
                    self.n_epochs
                ),
            });
        }
        let config = &self.cluster.config;
        for (slot, control) in self.slots.iter_mut().zip(&mut self.controls) {
            slot.restore(control, config.runtime_for(control.group).env(), &mut r)?;
        }
        for cache in &self.cluster.caches {
            cache.restore_state(&mut r)?;
        }
        let mode = r.get_u8()?;
        let boundary = self.epoch_end(done);
        match &mut self.routing {
            Routing::Central { dispatcher, .. } => {
                if mode != 0 {
                    return Err(CoreError::Checkpoint {
                        reason: "snapshot was taken under sharded routing".into(),
                    });
                }
                self.cursor.seek(r.get_usize()?);
                dispatcher.restore_state(&mut r)?;
                self.sketches[0] = Sketches::restore(&mut r)?;
            }
            Routing::Sharded { .. } => {
                if mode != 1 {
                    return Err(CoreError::Checkpoint {
                        reason: "snapshot was taken under central routing".into(),
                    });
                }
                let n_shards = r.get_usize()?;
                if n_shards != self.sketches.len() {
                    return Err(CoreError::Checkpoint {
                        reason: format!(
                            "snapshot has {n_shards} shards but this run has {} — resume \
                             with the shard count the snapshot was taken under",
                            self.sketches.len()
                        ),
                    });
                }
                for set in self.sketches.iter_mut() {
                    *set = Sketches::restore(&mut r)?;
                }
                // The stream position is not stored: the sharded loop
                // consumes every arrival before the sealed boundary, so
                // fast-forward past them.
                self.cursor.take_before(boundary);
            }
        }
        if let Some((ctrl, _)) = self.autoscaler.as_mut() {
            let sizes = config.groups().iter().map(|g| g.count).collect();
            *ctrl = AutoscaleController::restore_state(ctrl.spec().clone(), sizes, &mut r)?;
            set_active_counts(&mut self.active_groups, ctrl.active());
        }
        // The index mirrors each routable slot's committed-work horizon;
        // parked slots stay routing-invisible even though their restored
        // free time (the boundary they were parked at) is finite.
        if let Routing::Central { index, .. } = &mut self.routing {
            let active = ActiveSet::new(&self.active_groups);
            for (i, slot) in self.slots.iter().enumerate() {
                if active.contains(i) {
                    index.update(i, slot.sim.state().free_time());
                } else {
                    index.set_unavailable(i);
                }
            }
        }
        if !r.is_empty() {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes after fleet snapshot",
                r.remaining()
            ))
            .into());
        }
        Ok(done + 1)
    }

    /// Epoch open: owner election, the parallel begin, and the group
    /// caches' insertion order restored.
    fn open(&mut self, k: usize) -> Result<(), CoreError> {
        // Owner election (serial, no simulation): one owner per distinct
        // characterization key that is missing from its group's shared
        // cache, always the lowest-indexed server planning that key —
        // the same server that would compute it in a serial sweep, which
        // is what makes the fleet thread-count invariant. Keys are
        // claimed per group: caches are never shared across groups, so
        // the same key in two groups needs two owners.
        let caches = &self.cluster.caches;
        let mut claimed: HashSet<(usize, CharacterizationKey)> = HashSet::new();
        let mut owned: Vec<Vec<CharacterizationKey>> = vec![Vec::new(); caches.len()];
        let owners: Vec<bool> = self
            .controls
            .iter_mut()
            .map(|control| {
                let group = control.group;
                let key = control.strategy.managed().and_then(|s| {
                    s.planned_characterization().filter(|key| {
                        !s.is_characterization_cached(key) && claimed.insert((group, *key))
                    })
                });
                owned[group].extend(key);
                key.is_some()
            })
            .collect();
        let filled: Vec<usize> = caches.iter().map(|c| c.stats().entries).collect();

        // Owners characterize in parallel (distinct keys, so concurrent
        // inserts never collide), then the rest of the fleet selects in
        // parallel against caches that now hold every key this epoch
        // needs (pure hits/cold starts — no inserts, hence
        // schedule-independent).
        let begin = |(slot, control): (&mut ServerSlot, &mut SlotControl)| {
            let previous_freq = control.policy.as_ref().map(|p| p.frequency().get());
            let strategy = control.strategy.get_mut();
            let policy = control.policy.insert(strategy.begin_epoch(k)?);
            slot.sim.trace_decision(
                k,
                policy,
                previous_freq,
                strategy.last_prediction(),
                strategy.last_selection().map(|s| s.evaluated),
            );
            slot.epoch_records.clear();
            slot.epoch_work = 0.0;
            Ok(())
        };
        for want in [true, false] {
            let subset: Vec<_> = self
                .slots
                .iter_mut()
                .zip(&mut self.controls)
                .zip(&owners)
                .filter(|(_, &owns)| owns == want)
                .map(|(pair, _)| pair)
                .collect();
            par_each(subset, self.threads, &begin)?;
        }
        // Owners insert into their group's cache in the order they
        // finish; restore election order so cache snapshots do not
        // depend on scheduling.
        for ((cache, keys), &from) in caches.iter().zip(&owned).zip(&filled) {
            cache.order_inserted_since(from, keys);
        }
        self.resolve_policies();
        Ok(())
    }

    /// Resolves the epoch's policies once per (group, policy) pair,
    /// each against its group's environment (groups differ in power
    /// model, so one policy resolves differently per group), and points
    /// every slot at its pair's entry. Pairs are told apart by their
    /// bits, so a slot serves exactly the policy its strategy chose.
    fn resolve_policies(&mut self) {
        let config = &self.cluster.config;
        let policies = &mut self.policies;
        policies.clear();
        let mut entries: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
        let mut previous: Option<(usize, usize)> = None;
        for (slot, control) in self.slots.iter_mut().zip(&self.controls) {
            let (group, policy) = (control.group, control.policy.as_ref().expect("epoch began"));
            slot.policy = match previous {
                // Neighbouring slots of a group mostly share a policy.
                Some((g, i)) if g == group && policies[i].is_resolution_of(policy) => i,
                _ => {
                    let same = entries.entry((group, policy_bits(policy))).or_default();
                    match same.iter().find(|&&i| policies[i].is_resolution_of(policy)) {
                        Some(&i) => i,
                        None => {
                            let env = config.runtime_for(group).env();
                            policies.push(ResolvedPolicy::new(policy, env));
                            same.push(policies.len() - 1);
                            policies.len() - 1
                        }
                    }
                }
            };
            previous = Some((group, slot.policy));
        }
    }

    /// Dispatches the epoch's arrivals over the active set.
    fn dispatch(&mut self, epoch_end: f64) -> Result<(), CoreError> {
        let active = ActiveSet::new(&self.active_groups);
        let (tagged, trace_on) = (self.tagged, self.trace_on);
        let policies = &self.policies[..];
        match &mut self.routing {
            // Central: one job at a time in stream order; routing reads
            // the incrementally maintained index (the live backlog
            // ordering) and each dispatch re-keys exactly the routed
            // server. The cursor, slots and sketches sit in locals:
            // reaching them through `self` per job measured slower.
            Routing::Central { dispatcher, index } => {
                let (cursor, slots, sketches) =
                    (&mut self.cursor, &mut self.slots[..], &mut self.sketches[0]);
                while let Some(job) = cursor.next_before(epoch_end) {
                    let target = dispatcher.route_active(&job, index, &active);
                    if !active.contains(target) {
                        return Err(CoreError::InvalidConfig {
                            reason: format!(
                                "dispatcher '{}' routed job {} to server {target}, which is \
                                 parked or outside the {}-server fleet",
                                dispatcher.name(),
                                job.id,
                                slots.len()
                            ),
                        });
                    }
                    if trace_on {
                        // Spill/fallback classification of the route
                        // just taken — only preference-aware dispatchers
                        // report anything but Preferred.
                        let (fallback, preferred_group) = match dispatcher.last_route() {
                            RouteDecision::Preferred => (None, 0),
                            RouteDecision::Spill { preferred_group } => {
                                (Some(false), preferred_group)
                            }
                            RouteDecision::Fallback { preferred_group } => {
                                (Some(true), preferred_group)
                            }
                        };
                        if let Some(fallback) = fallback {
                            self.fleet_events.push(TraceEvent::DispatchSpill {
                                job: job.id,
                                class: job.class().0,
                                preferred_group,
                                target_server: target as u32,
                                fallback,
                            });
                        }
                    }
                    let slot = &mut slots[target];
                    dispatch_one(slot, &job, policies, tagged, sketches);
                    index.update(target, slot.sim.state().free_time());
                }
            }
            // Sharded: bucket bounded segments of the epoch into
            // per-shard scratch, then dispatch each segment's shards
            // concurrently. Shards own disjoint `&mut` slot slices and
            // sketch sets, so no locks, and how shards are grouped onto
            // workers cannot matter. Segmenting and shard-grouping both
            // preserve every *slot's* arrival subsequence (so per-slot
            // float streams are those of the central loop), and each
            // shard's sketches see the same multiset of responses
            // whatever the segment or worker count. There is no backlog
            // index: seeded-hash routing never reads queue depths. Each
            // job's slot is `SplitUniform::slot_of` over the active set,
            // which spreads the epoch's jobs across exactly the awake
            // servers and keeps the map independent of shard and worker
            // counts.
            Routing::Sharded { router, chunk, scratch } => {
                let (router, chunk) = (*router, *chunk);
                let slot_of = |job: &Job| router.slot_of(job, &active);
                let segment_len = SEGMENT_FLOOR.max(SEGMENT_PER_SHARD * scratch.len());
                for segment in self.cursor.take_before(epoch_end).chunks(segment_len) {
                    for lane in scratch.iter_mut() {
                        lane.clear();
                    }
                    for job in segment {
                        scratch[slot_of(job) / chunk].push(*job);
                    }
                    let shards: Vec<_> = self
                        .slots
                        .chunks_mut(chunk)
                        .zip(self.sketches.iter_mut())
                        .zip(&*scratch)
                        .enumerate()
                        .collect();
                    par_each(shards, self.threads, &|(s, ((shard_slots, set), lane))| {
                        for job in lane {
                            let slot = &mut shard_slots[slot_of(job) - s * chunk];
                            dispatch_one(slot, job, policies, tagged, set);
                        }
                        Ok(())
                    })?;
                }
            }
        }
        Ok(())
    }

    /// Epoch close, in parallel: feed logs and per-server realized
    /// utilization — dispatched work plus backlog pressure (a backlogged
    /// server measures itself saturated; see `sleepscale::run` for the
    /// same feedback rule).
    fn close(&mut self, k: usize, epoch_end: f64) -> Result<(), CoreError> {
        let minutes = self.epoch_minutes.min(self.total_minutes - k * self.epoch_minutes);
        let epoch_seconds = self.epoch_seconds;
        let close = |(slot, control): (&mut ServerSlot, &mut SlotControl)| {
            let strategy = control.strategy.get_mut();
            strategy.end_epoch(&slot.epoch_records);
            let pressure = (slot.sim.state().free_time() - epoch_end).max(0.0) / epoch_seconds;
            let rho_server = (slot.epoch_work / epoch_seconds + pressure).clamp(0.0, 0.97);
            for _ in 0..minutes {
                strategy.observe_minute(rho_server);
            }
            Ok(())
        };
        par_each(self.slots.iter_mut().zip(&mut self.controls).collect(), self.threads, &close)
    }

    /// Autoscaler control tick: observe the epoch that just closed,
    /// re-plan the active prefixes, and apply the transitions — all
    /// before the checkpoint, so a resumed run restarts from the
    /// post-transition fleet. The last boundary only records (a
    /// transition there could never serve a job, it would only smear
    /// parked energy past the trace end).
    fn control(&mut self, k: usize, epoch_end: f64) {
        let Some((ctrl, program)) = self.autoscaler.as_mut() else {
            return;
        };
        // Per-group realized load, summed in slot order: the dispatched
        // work plus the committed-work overhang past the boundary.
        // Parked slots contribute zero on both axes, so the sums range
        // over the active prefixes.
        let mut loads = vec![GroupLoad::default(); self.active_groups.len()];
        for (slot, control) in self.slots.iter().zip(&self.controls) {
            let load = &mut loads[control.group];
            load.busy_seconds += slot.epoch_work;
            load.backlog_seconds += (slot.sim.state().free_time() - epoch_end).max(0.0);
        }
        // QoS pressure reads the run-so-far per-class p95s — the same
        // sketches the report quotes, merged in loop order (exact bucket
        // adds, so the merged value is shard-count invariant).
        let qos = if ctrl.spec().class_p95_guards_seconds.is_empty() {
            false
        } else {
            let merged = merge_sketches(&self.sketches);
            let p95s: Vec<f64> = merged.classes.iter().map(QuantileSketch::p95).collect();
            ctrl.spec().qos_pressure(&p95s)
        };
        let before: Vec<usize> = ctrl.active().to_vec();
        let decisions = ctrl.plan_epoch(&loads, self.epoch_seconds, qos);
        if k + 1 == self.n_epochs {
            return;
        }
        let mut index = match &mut self.routing {
            Routing::Central { index, .. } => Some(index),
            Routing::Sharded { .. } => None,
        };
        for (g, &(start, _)) in self.active_groups.iter().enumerate() {
            let (old, target) = (before[g], ctrl.active()[g]);
            if target < old {
                // Park from the tail, drained servers only: stop at the
                // first slot still carrying work past the boundary and
                // settle the difference back into the controller.
                let mut achieved = old;
                for i in (target..old).rev() {
                    let slot = &mut self.slots[start + i];
                    if slot.sim.state().free_time() > epoch_end {
                        break;
                    }
                    let policy = self.controls[start + i].policy.as_ref().expect("epoch began");
                    slot.sim.park(epoch_end, program.clone(), policy.frequency());
                    if let Some(index) = index.as_deref_mut() {
                        index.set_unavailable(start + i);
                    }
                    if self.trace_on {
                        self.fleet_events.push(TraceEvent::Park {
                            server: (start + i) as u32,
                            at: epoch_end,
                            cause: scale_cause(decisions[g].reason),
                        });
                    }
                    achieved = i;
                }
                if achieved != target {
                    ctrl.settle_active(g, achieved);
                }
            } else if target > old {
                // Wake the lowest parked slots: charge the parked gap
                // under the parked ladder and the wake-up latency at
                // active power, then hand the slot back to its policy.
                let power = self.cluster.config.runtime_for(g).env().power();
                for i in old..target {
                    let slot = &mut self.slots[start + i];
                    let policy = self.controls[start + i].policy.as_ref().expect("epoch began");
                    let freq = policy.frequency();
                    let next_idle = (policy.program().clone(), freq);
                    slot.sim.wake(epoch_end, power.active_power(freq), next_idle);
                    if let Some(index) = index.as_deref_mut() {
                        index.update(start + i, slot.sim.state().free_time());
                    }
                    if self.trace_on {
                        self.fleet_events.push(TraceEvent::Unpark {
                            server: (start + i) as u32,
                            at: epoch_end,
                            cause: scale_cause(decisions[g].reason),
                        });
                    }
                }
            }
        }
        set_active_counts(&mut self.active_groups, ctrl.active());
    }

    /// Serializes the engine state at the boundary closing epoch `k`:
    /// every slot, each group cache once, the routing state, the sketch
    /// sets, and the controller.
    fn checkpoint(&self, k: usize) -> ByteWriter {
        let mut w = ByteWriter::new();
        w.put_usize(k);
        for (slot, control) in self.slots.iter().zip(&self.controls) {
            slot.snapshot(control, &mut w);
        }
        for cache in &self.cluster.caches {
            cache.snapshot_state(&mut w);
        }
        match &self.routing {
            Routing::Central { dispatcher, .. } => {
                w.put_u8(0);
                w.put_usize(self.cursor.position());
                dispatcher.snapshot_state(&mut w);
            }
            Routing::Sharded { .. } => {
                w.put_u8(1);
                w.put_usize(self.sketches.len());
            }
        }
        for set in &self.sketches {
            set.snapshot(&mut w);
        }
        if let Some((ctrl, _)) = &self.autoscaler {
            ctrl.snapshot_state(&mut w);
        }
        w
    }

    /// Closes trailing idle periods and summarizes: the report, the
    /// fleet's warm-start counters, and the merged telemetry. The slot
    /// loop is the deterministic merge point for the energy split and
    /// the traces: it runs serially in slot order over per-slot ledgers
    /// and buffers, so the merged bytes are thread-count invariant.
    fn finish(self) -> (ClusterReport, WarmStartStats, Option<TelemetryReport>) {
        let config = &self.cluster.config;
        let dispatcher_name = match &self.routing {
            Routing::Central { dispatcher, .. } => dispatcher.name(),
            Routing::Sharded { router, .. } => router.name(),
        };
        let n = self.slots.len();
        let trace_end = self.total_minutes as f64 * 60.0;
        let horizon =
            self.slots.iter().map(|s| s.sim.state().free_time()).fold(trace_end, f64::max);
        let mut warm = WarmStartStats::default();
        let n_groups = config.groups().len();
        let mut summaries = Vec::with_capacity(n);
        // Canonical fleet statistics: fold the per-slot scalar
        // summaries in slot order (a fixed fold order, so the merged
        // moments are byte-invariant across shard and worker counts) —
        // the sketches merge separately below, by exact bucket adds.
        let mut fleet_scalar = ScalarSummary::new();
        let mut class_scalars: Vec<ScalarSummary> = Vec::new();
        let mut class_active: Vec<f64> = Vec::new();
        let mut fleet_busy: Vec<f64> = Vec::new();
        let mut fleet_energy: Vec<f64> = Vec::new();
        let mut group_busy: Vec<Vec<f64>> = vec![Vec::new(); n_groups];
        let mut group_energy: Vec<Vec<f64>> = vec![Vec::new(); n_groups];
        let mut bucket_width = 0.0;
        let mut merged_events: Vec<TraceEvent> = Vec::new();
        for (i, (slot, mut control)) in self.slots.into_iter().zip(self.controls).enumerate() {
            if let Some(s) = control.strategy.managed() {
                warm.merge(s.warm_start_stats());
            }
            fleet_scalar.merge(&slot.responses);
            for (c, s) in slot.class_stats.iter().enumerate() {
                if c >= class_scalars.len() {
                    class_scalars.resize_with(c + 1, ScalarSummary::new);
                }
                class_scalars[c].merge(s);
            }
            let jobs = slot.responses.count() as usize;
            let mean_response = if jobs == 0 { 0.0 } else { slot.response_sum / jobs as f64 };
            let (ledger, .., mut slot_events) = slot.sim.finish_traced(horizon);
            merged_events.append(&mut slot_events);
            bucket_width = ledger.bucket_width();
            for (c, &e) in ledger.active_energy_by_class().iter().enumerate() {
                if c >= class_active.len() {
                    class_active.resize(c + 1, 0.0);
                }
                class_active[c] += e;
            }
            let buckets = ledger.bucket_count();
            if fleet_busy.len() < buckets {
                fleet_busy.resize(buckets, 0.0);
                fleet_energy.resize(buckets, 0.0);
            }
            let group = control.group;
            let (g_busy, g_energy) = (&mut group_busy[group], &mut group_energy[group]);
            if g_busy.len() < buckets {
                g_busy.resize(buckets, 0.0);
                g_energy.resize(buckets, 0.0);
            }
            for b in 0..buckets {
                let busy = ledger.bucket_busy_seconds(b);
                let energy = ledger.bucket_energy(b).as_joules();
                fleet_busy[b] += busy;
                fleet_energy[b] += energy;
                g_busy[b] += busy;
                g_energy[b] += energy;
            }
            summaries.push(ServerSummary {
                index: i,
                group,
                jobs,
                mean_response,
                avg_power: ledger.total_energy().as_joules() / horizon,
                energy_joules: ledger.total_energy().as_joules(),
                active_energy_joules: ledger.active_energy().as_joules(),
                ep: ep::analyze(&ledger.power_samples()),
            });
        }
        // Merged utilization→power samples: utilization is busy time
        // over pooled capacity (k servers × bucket width), power the
        // pooled bucket energy over the bucket width.
        let to_samples = |busy: &[f64], energy: &[f64], servers: usize| -> Vec<PowerSample> {
            let capacity = servers.max(1) as f64 * bucket_width;
            busy.iter()
                .zip(energy)
                .map(|(&b, &e)| PowerSample {
                    utilization: (b / capacity).clamp(0.0, 1.0),
                    watts: e / bucket_width,
                })
                .collect()
        };
        let fleet_samples = to_samples(&fleet_busy, &fleet_energy, n);
        let group_samples: Vec<Vec<PowerSample>> = config
            .groups()
            .iter()
            .enumerate()
            .map(|(g, spec)| to_samples(&group_busy[g], &group_energy[g], spec.count))
            .collect();
        // Reassemble the streaming summaries from their two halves:
        // slot-order scalar folds (above) + loop-order sketch merges,
        // which are exact (u64 bucket adds), so the result equals the
        // single-stream sketch byte-for-byte.
        let Sketches { all: fleet_sketch, classes: mut class_sketches } =
            merge_sketches(&self.sketches);
        let fleet_responses = StreamingSummary::from_parts(fleet_scalar, fleet_sketch);
        class_sketches.resize_with(class_scalars.len(), QuantileSketch::new);
        let class_responses: Vec<StreamingSummary> = class_scalars
            .into_iter()
            .zip(class_sketches)
            .map(|(scalar, sketch)| StreamingSummary::from_parts(scalar, sketch))
            .collect();
        let group_names = config.groups().iter().map(|g| g.name.clone()).collect();
        let mut report = ClusterReport::new(
            dispatcher_name,
            group_names,
            summaries,
            fleet_responses,
            class_responses,
            horizon,
            config.runtime_for(0).mean_service(),
        )
        .with_energy_split(class_active, fleet_samples, group_samples);
        if let Some((ctrl, _)) = &self.autoscaler {
            report = report
                .with_autoscale(ctrl.parked_server_seconds(), ctrl.fleet_size_trace().to_vec());
        }
        let telemetry = self.trace_on.then(|| {
            merged_events.extend(self.fleet_events);
            let metrics = MetricsRegistry::from_trace(
                report.servers().iter().map(|s| s.jobs as u64).sum(),
                report.class_responses().iter().map(StreamingSummary::count),
                &merged_events,
            );
            TelemetryReport { events: merged_events, metrics }
        });
        (report, warm, telemetry)
    }
}

/// Maps an autoscaler plan reason onto the telemetry event vocabulary.
/// Applied transitions always carry a reason (an in-band hold never
/// transitions); `None` only appears on holds, so the fallback arm is
/// unreachable from the emit sites.
fn scale_cause(reason: Option<ScaleReason>) -> ScaleCause {
    match reason {
        Some(ScaleReason::LowUtilization { utilization }) => {
            ScaleCause::LowUtilization { utilization }
        }
        Some(ScaleReason::HighUtilization { utilization }) => {
            ScaleCause::HighUtilization { utilization }
        }
        Some(ScaleReason::QosPressure) | None => ScaleCause::QosPressure,
    }
}

/// Copies the controller's per-group active-prefix lengths into the
/// engine's `(first slot, active count)` prefixes.
fn set_active_counts(active_groups: &mut [(usize, usize)], active: &[usize]) {
    for (group, &m) in active_groups.iter_mut().zip(active) {
        group.1 = m;
    }
}

/// Dispatches one arrival onto its target server and folds the
/// response into the slot's scalar statistics and the caller's
/// quantile sketches. The central and sharded loops share this one
/// implementation verbatim — identical per-job float-op order on
/// identical per-server arrival subsequences is what pins the two
/// engines' reports to the same bytes.
fn dispatch_one(
    slot: &mut ServerSlot,
    job: &Job,
    policies: &[ResolvedPolicy],
    tagged: bool,
    sketches: &mut Sketches,
) {
    let record = slot.sim.serve(job, &policies[slot.policy]);
    let response = record.response();
    slot.responses.push(response);
    sketches.all.push(response);
    if tagged {
        let c = job.class().as_index();
        if c >= slot.class_stats.len() {
            slot.class_stats.resize_with(c + 1, ScalarSummary::new);
        }
        slot.class_stats[c].push(response);
        if c >= sketches.classes.len() {
            sketches.classes.resize_with(c + 1, QuantileSketch::new);
        }
        sketches.classes[c].push(response);
    }
    slot.response_sum += response;
    slot.epoch_work += record.size;
    if slot.wants_records {
        slot.epoch_records.push(record);
    }
}

/// A hash of `policy`'s bits: its frequency and each stage's state,
/// entry delay and wake latency.
fn policy_bits(policy: &Policy) -> u64 {
    let mut h = DefaultHasher::new();
    policy.frequency().get().to_bits().hash(&mut h);
    for stage in policy.program().stages() {
        stage.state().hash(&mut h);
        stage.enter_after().to_bits().hash(&mut h);
        stage.wake_latency().to_bits().hash(&mut h);
    }
    h.finish()
}

/// Runs `f` over every item, fanning out across scoped worker threads
/// when there is enough work — the `sweep::evaluate_policies` chunking
/// pattern: disjoint contiguous chunks, no locks, and a result that is
/// independent of the worker count because every item is handed to
/// exactly one worker. The first error in item order wins.
fn par_each<T: Send>(
    items: Vec<T>,
    threads: usize,
    f: &(impl Fn(T) -> Result<(), CoreError> + Sync),
) -> Result<(), CoreError> {
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().try_for_each(f);
    }
    let chunk_len = items.len().div_ceil(threads.min(items.len()));
    let mut items = items.into_iter();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        while items.len() > 0 {
            let chunk: Vec<T> = items.by_ref().take(chunk_len).collect();
            handles.push(scope.spawn(move || chunk.into_iter().try_for_each(f)));
        }
        handles.into_iter().try_for_each(|h| h.join().expect("cluster worker panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{JoinShortestBacklog, PackFirstFit, RandomUniform, RoundRobin};
    use rand::SeedableRng;
    use sleepscale::CandidateSet;
    use sleepscale_sim::Job;
    use sleepscale_workloads::{
        replay_trace, traces, ReplayConfig, WorkloadDistributions, WorkloadSpec,
    };

    fn runtime(eval_jobs: usize) -> RuntimeConfig {
        RuntimeConfig::builder(WorkloadSpec::dns().service_mean())
            .qos(QosConstraint::mean_response(0.8).unwrap())
            .epoch_minutes(5)
            .eval_jobs(eval_jobs)
            .build()
            .unwrap()
    }

    fn setup(n: usize, minutes: usize, seed: u64) -> (ClusterConfig, UtilizationTrace, JobStream) {
        let spec = WorkloadSpec::dns();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).unwrap();
        let trace = traces::email_store(1, 7).window(600, 600 + minutes);
        let jobs = replay_trace(&trace, &dists, &ReplayConfig::for_fleet(n), &mut rng).unwrap();
        (ClusterConfig::homogeneous(n, runtime(300)).unwrap(), trace, jobs)
    }

    fn run_with(
        dispatcher: &mut dyn Dispatcher,
        config: &ClusterConfig,
        trace: &UtilizationTrace,
        jobs: &JobStream,
    ) -> ClusterReport {
        let mut cluster = Cluster::new(config.clone());
        cluster.run(trace, jobs, dispatcher).unwrap()
    }

    #[test]
    fn fleet_completes_every_job_and_sums_energy() {
        let (config, trace, jobs) = setup(4, 60, 41);
        let report = run_with(&mut RoundRobin::new(), &config, &trace, &jobs);
        assert_eq!(report.total_jobs(), jobs.len());
        assert_eq!(report.n_servers(), 4);
        let per_server: f64 = report.servers().iter().map(|s| s.energy_joules).sum();
        assert!((per_server - report.total_energy_joules()).abs() < 1e-6);
        // Fleet power within physical bounds.
        assert!(report.total_power_watts() > 4.0 * 28.0);
        assert!(report.total_power_watts() < 4.0 * 250.0);
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let (config, trace, jobs) = setup(4, 60, 42);
        let report = run_with(&mut RoundRobin::new(), &config, &trace, &jobs);
        assert!(report.load_balance_index() > 0.99, "{}", report.load_balance_index());
    }

    fn setup_constant(
        n: usize,
        rho_cluster: f64,
        minutes: usize,
        seed: u64,
    ) -> (ClusterConfig, UtilizationTrace, JobStream) {
        let spec = WorkloadSpec::dns();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).unwrap();
        let trace = UtilizationTrace::constant(rho_cluster, minutes).unwrap();
        let jobs = replay_trace(&trace, &dists, &ReplayConfig::for_fleet(n), &mut rng).unwrap();
        (ClusterConfig::homogeneous(n, runtime(400)).unwrap(), trace, jobs)
    }

    /// Consolidation pays where the paper's introduction says it does:
    /// at the 15–30% utilizations data centers actually run at, where
    /// idle power dominates. (At high utilization packing *loses* — it
    /// forces high clocks whose cubic busy power outweighs the idle
    /// savings.)
    #[test]
    fn packing_concentrates_load_and_saves_power_at_low_utilization() {
        let (config, trace, jobs) = setup_constant(4, 0.15, 60, 43);
        let spread = run_with(&mut JoinShortestBacklog::new(), &config, &trace, &jobs);
        // Pack up to ~1 s of backlog (≈ the response budget) per server.
        let packed = run_with(&mut PackFirstFit::new(1.0), &config, &trace, &jobs);
        assert!(
            packed.load_balance_index() < spread.load_balance_index(),
            "packing {} vs spreading {}",
            packed.load_balance_index(),
            spread.load_balance_index()
        );
        assert!(
            packed.total_power_watts() < spread.total_power_watts() - 10.0,
            "packing {:.0} W should beat spreading {:.0} W at low load",
            packed.total_power_watts(),
            spread.total_power_watts()
        );
    }

    /// At high load, queueing dominates and backlog-aware routing is
    /// structurally better than blind random routing.
    #[test]
    fn shortest_backlog_beats_random_on_response_at_high_load() {
        let (config, trace, jobs) = setup_constant(4, 0.75, 60, 44);
        let jsb = run_with(&mut JoinShortestBacklog::new(), &config, &trace, &jobs);
        let random = run_with(&mut RandomUniform::new(9), &config, &trace, &jobs);
        assert!(
            jsb.mean_response_seconds() <= random.mean_response_seconds(),
            "JSB {} vs random {}",
            jsb.mean_response_seconds(),
            random.mean_response_seconds()
        );
    }

    /// Homogeneous servers under balanced dispatch share one
    /// characterization per epoch: the fleet cache must absorb most of
    /// the per-server selections.
    #[test]
    fn homogeneous_fleet_shares_characterizations() {
        // Long enough that predictor warm-up (where per-server
        // predictions straddle ρ buckets) stops dominating.
        let (config, trace, jobs) = setup_constant(4, 0.3, 180, 46);
        let mut cluster = Cluster::new(config);
        cluster.run(&trace, &jobs, &mut RoundRobin::new()).unwrap();
        let stats = cluster.characterization_stats();
        assert!(
            stats.hits > stats.misses,
            "balanced homogeneous fleet should mostly hit the shared cache: {stats:?}"
        );
        // 4 servers × 36 epochs ≈ 140 selections after cold start;
        // sharing must eliminate well over half the sweeps.
        assert!(stats.hits >= 80, "{stats:?}");
    }

    #[test]
    fn single_server_cluster_matches_core_runtime_shape() {
        let (config, trace, jobs) = setup(1, 30, 45);
        let report = run_with(&mut RoundRobin::new(), &config, &trace, &jobs);
        assert_eq!(report.n_servers(), 1);
        assert_eq!(report.total_jobs(), jobs.len());
        assert!(report.normalized_mean_response() < 10.0);
    }

    #[test]
    fn fleet_replay_densifies_without_time_compression() {
        // ReplayConfig::for_fleet(n) must multiply the arrival *rate*
        // while arrivals still span the whole trace window.
        let spec = WorkloadSpec::dns();
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).unwrap();
        let trace = UtilizationTrace::constant(0.4, 30).unwrap();
        let single = replay_trace(&trace, &dists, &ReplayConfig::default(), &mut rng).unwrap();
        let fleet = replay_trace(&trace, &dists, &ReplayConfig::for_fleet(4), &mut rng).unwrap();
        let ratio = fleet.len() as f64 / single.len() as f64;
        assert!((ratio - 4.0).abs() < 0.4, "rate ratio {ratio}");
        // Timeline preserved: the last arrival still lands near the end.
        assert!(fleet.last_arrival() > 0.9 * 30.0 * 60.0);
    }

    /// Satellite regression: a cluster survives (and reproduces) a
    /// second run — the fleet is rebuilt per run instead of drained.
    #[test]
    fn back_to_back_runs_on_one_cluster_are_identical() {
        let (config, trace, jobs) = setup(3, 45, 47);
        let mut cluster = Cluster::new(config);
        let first = cluster.run(&trace, &jobs, &mut RoundRobin::new()).unwrap();
        // Second run: fresh servers, warm shared cache. The cached
        // selections equal what fresh characterizations would compute
        // (same logs, same keys), so the report is byte-identical.
        let second = cluster.run(&trace, &jobs, &mut RoundRobin::new()).unwrap();
        assert_eq!(first, second);
        assert_eq!(first.total_jobs(), jobs.len());
    }

    /// Satellite regression: an out-of-range route is surfaced as an
    /// error, not clamped onto the last server.
    #[test]
    fn out_of_range_route_is_a_dispatcher_bug() {
        #[derive(Debug)]
        struct Broken;
        impl Dispatcher for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn route_active(&mut self, _: &Job, index: &DispatchIndex, _: &ActiveSet<'_>) -> usize {
                index.n_servers() + 3
            }
        }
        let (config, trace, jobs) = setup(2, 10, 48);
        let mut cluster = Cluster::new(config);
        let err = cluster.run(&trace, &jobs, &mut Broken).unwrap_err();
        assert!(err.to_string().contains("routed job"), "{err}");
        // The cluster is still usable after the failed run.
        assert!(cluster.run(&trace, &jobs, &mut RoundRobin::new()).is_ok());
    }

    /// Regression: a route to a parked server is a dispatcher bug too.
    /// The probe acts as join-shortest-backlog, except that once slot 5
    /// is parked every 50th job goes to slot 5. Accepting that route
    /// would re-key slot 5's leaf to a finite free time and let
    /// shortest-backlog routing keep serving a server the report counts
    /// as parked.
    #[test]
    fn route_to_a_parked_server_is_a_dispatcher_bug() {
        #[derive(Debug, Default)]
        struct ParkedProbe {
            routes: u64,
        }
        impl Dispatcher for ParkedProbe {
            fn name(&self) -> String {
                "parked-probe".into()
            }
            fn route_active(
                &mut self,
                job: &Job,
                index: &DispatchIndex,
                _: &ActiveSet<'_>,
            ) -> usize {
                self.routes += 1;
                if !index.is_available(5) && self.routes.is_multiple_of(50) {
                    5
                } else {
                    index.shortest_backlog_server(job.arrival)
                }
            }
        }
        let (config, trace, jobs) = setup_constant(6, 0.10, 60, 62);
        let mut cluster =
            Cluster::new(config).with_autoscaler(sleepscale_autoscale::AutoscalerSpec::new());
        let err = cluster.run(&trace, &jobs, &mut ParkedProbe::default()).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("routed job"), "{message}");
        assert!(message.contains("to server 5,"), "{message}");
    }

    /// Class tags flow through the fleet: a multi-class stream yields
    /// per-class response slices that partition the fleet total, while
    /// untagged (and single-class tagged) streams keep the slices
    /// empty — and tagging jobs with the default class changes nothing.
    #[test]
    fn class_slices_partition_fleet_responses() {
        use sleepscale_sim::{pack_id, ClassId};
        let (config, trace, jobs) = setup(3, 45, 54);
        let untagged = run_with(&mut RoundRobin::new(), &config, &trace, &jobs);
        assert!(untagged.class_responses().is_empty(), "untagged fleets report no slices");

        // Re-tag the same stream: alternate jobs class 1 / class 2.
        let tagged_jobs: Vec<Job> = jobs
            .jobs()
            .iter()
            .enumerate()
            .map(|(i, j)| Job { id: pack_id(j.id, ClassId(1 + (i % 2) as u16)), ..*j })
            .collect();
        let tagged_stream = JobStream::new(tagged_jobs).unwrap();
        let tagged = run_with(&mut RoundRobin::new(), &config, &trace, &tagged_stream);
        let slices = tagged.class_responses();
        assert_eq!(slices.len(), 3, "slices indexed by class id, 0 empty");
        assert_eq!(slices[0].count(), 0);
        assert_eq!(
            slices.iter().map(|s| s.count()).sum::<u64>(),
            tagged.responses().count(),
            "class slices partition the fleet responses"
        );
        // The tag is invisible to the simulation itself: aggregate
        // statistics equal the untagged run's.
        assert_eq!(tagged.responses(), untagged.responses());
        assert_eq!(tagged.total_energy_joules(), untagged.total_energy_joules());
        // Energy attribution is exact: tags only split the active
        // energy, whose total (and the fleet's idle remainder and
        // utilization→power samples) matches the untagged bytes.
        assert_eq!(tagged.active_energy_joules(), untagged.active_energy_joules());
        assert_eq!(tagged.power_samples(), untagged.power_samples());
        assert_eq!(untagged.class_active_energy().len(), 1, "untagged: all active under tag 0");
        let energy_slices = tagged.class_active_energy();
        assert_eq!(energy_slices.len(), 3);
        assert_eq!(energy_slices[0], 0.0, "no class-0 jobs, no class-0 energy");
        assert!(energy_slices[1] > 0.0 && energy_slices[2] > 0.0);
        let rebuilt: f64 = energy_slices.iter().sum();
        assert!((rebuilt - tagged.active_energy_joules()).abs() < 1e-6);
        assert!(
            (tagged.active_energy_joules() + tagged.idle_energy_joules()
                - tagged.total_energy_joules())
            .abs()
                < 1e-6
        );
    }

    /// The parallel epoch phases are thread-count invariant: pinning 1,
    /// 2, or 5 workers produces byte-identical reports.
    #[test]
    fn fleet_results_are_thread_count_invariant() {
        let (config, trace, jobs) = setup(4, 45, 49);
        let run_pinned = |threads: usize| {
            let mut cluster = Cluster::new(config.clone()).with_threads(threads);
            cluster.run(&trace, &jobs, &mut JoinShortestBacklog::new()).unwrap()
        };
        let reference = run_pinned(1);
        for threads in [2, 5] {
            assert_eq!(run_pinned(threads), reference, "threads={threads} diverged");
        }
    }

    /// Warm-start telemetry flows up from the managers.
    #[test]
    fn warm_start_stats_aggregate_over_the_fleet() {
        let (config, trace, jobs) = setup_constant(2, 0.25, 90, 51);
        let mut cluster = Cluster::new(config);
        cluster.run(&trace, &jobs, &mut RoundRobin::new()).unwrap();
        let warm = cluster.warm_start_stats();
        assert!(warm.searches > 0, "{warm:?}");
        assert!(warm.warm > 0, "cross-epoch warm start should fire on repeat misses: {warm:?}");
    }

    /// Empty fleets and zero-count groups are configuration errors, not
    /// panics or silent clamps.
    #[test]
    fn empty_fleets_and_zero_count_groups_are_rejected() {
        let base = runtime(300);
        let err = ClusterConfig::new(&base, vec![]).unwrap_err();
        assert!(err.to_string().contains("at least one server group"), "{err}");
        let err = ClusterConfig::new(
            &base,
            vec![ServerGroup::new("ghost", 0, StrategySpec::sleepscale())],
        )
        .unwrap_err();
        assert!(err.to_string().contains("zero servers"), "{err}");
        assert!(ClusterConfig::homogeneous(0, base).is_err());
    }

    /// A heterogeneous fleet: a Xeon group under SleepScale next to an
    /// Atom-class group racing to halt. Both groups serve their share,
    /// summaries attribute servers to groups, and the racing group
    /// never characterizes (its cache stays empty).
    #[test]
    fn heterogeneous_groups_run_side_by_side() {
        let spec = WorkloadSpec::dns();
        let base = runtime(300);
        let n = 4;
        let mut rng = rand::rngs::StdRng::seed_from_u64(52);
        let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).unwrap();
        let trace = UtilizationTrace::constant(0.25, 60).unwrap();
        let jobs = replay_trace(&trace, &dists, &ReplayConfig::for_fleet(n), &mut rng).unwrap();
        let groups = vec![
            ServerGroup::new("sleepscale", 2, StrategySpec::sleepscale()),
            ServerGroup {
                env: SimEnv::new(
                    sleepscale_power::presets::atom(),
                    sleepscale_power::FrequencyScaling::CpuBound,
                ),
                ..ServerGroup::new("race", 2, StrategySpec::race_to_halt_c6())
            },
        ];
        let config = ClusterConfig::new(&base, groups).unwrap();
        let mut cluster = Cluster::new(config);
        let report = cluster.run(&trace, &jobs, &mut RoundRobin::new()).unwrap();
        assert_eq!(report.total_jobs(), jobs.len());
        assert_eq!(report.group_names(), ["sleepscale", "race"]);
        assert!(report.servers().iter().take(2).all(|s| s.group == 0));
        assert!(report.servers().iter().skip(2).all(|s| s.group == 1));
        let per_group = report.group_summaries();
        assert_eq!(per_group.len(), 2);
        assert_eq!(per_group.iter().map(|g| g.jobs).sum::<usize>(), jobs.len());
        assert!(per_group.iter().all(|g| g.servers == 2));
        let stats = cluster.group_characterization_stats();
        assert!(stats[0].1.hits + stats[0].1.misses > 0, "managed group characterizes");
        assert_eq!(stats[1].1.hits + stats[1].1.misses, 0, "R2H group never characterizes");
    }

    /// Per-group QoS: a group with a tight budget runs measurably
    /// faster clocks (and hotter) than one with a loose budget on the
    /// same machine class under the same balanced load.
    #[test]
    fn per_group_qos_splits_the_fleet_operating_point() {
        let spec = WorkloadSpec::dns();
        let base = runtime(300);
        let n = 4;
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).unwrap();
        let trace = UtilizationTrace::constant(0.3, 120).unwrap();
        let jobs = replay_trace(&trace, &dists, &ReplayConfig::for_fleet(n), &mut rng).unwrap();
        let groups = vec![
            ServerGroup {
                qos: QosConstraint::mean_response(0.5).unwrap(), // budget 2.0
                ..ServerGroup::new("tight", 2, StrategySpec::sleepscale())
            },
            ServerGroup {
                qos: QosConstraint::mean_response(0.9).unwrap(), // budget 10.0
                ..ServerGroup::new("loose", 2, StrategySpec::sleepscale())
            },
        ];
        let config = ClusterConfig::new(&base, groups).unwrap();
        let mut cluster = Cluster::new(config);
        let report = cluster.run(&trace, &jobs, &mut RoundRobin::new()).unwrap();
        let per_group = report.group_summaries();
        assert!(
            per_group[0].mean_response < per_group[1].mean_response,
            "tight QoS must respond faster: {} vs {}",
            per_group[0].mean_response,
            per_group[1].mean_response
        );
        assert!(
            per_group[0].avg_power > per_group[1].avg_power,
            "tight QoS pays in power: {} W vs {} W",
            per_group[0].avg_power,
            per_group[1].avg_power
        );
    }

    /// The tentpole invariant: a sharded run is byte-identical to the
    /// central engine with a [`SplitUniform`] dispatcher over the same
    /// seed, for every shard count — including shard counts that don't
    /// divide the fleet.
    #[test]
    fn sharded_run_matches_central_split_uniform_for_every_shard_count() {
        let (config, trace, jobs) = setup(6, 45, 55);
        let reference = run_with(&mut crate::SplitUniform::new(11), &config, &trace, &jobs);
        assert_eq!(reference.dispatcher(), "split-uniform(11)");
        for shards in [1usize, 2, 4, 5, 6, 7, 100] {
            let mut cluster = Cluster::new(config.clone());
            let sharded = cluster.run_sharded(&trace, &jobs, StreamSplit::new(11), shards).unwrap();
            assert_eq!(sharded, reference, "shards={shards} diverged");
        }
    }

    /// Shard count × worker count cannot interact: pinning different
    /// thread counts over different shard counts always reproduces the
    /// single-shard single-thread bytes.
    #[test]
    fn sharded_runs_are_worker_count_invariant() {
        let (config, trace, jobs) = setup(5, 30, 56);
        let run_pinned = |shards: usize, threads: usize| {
            let mut cluster = Cluster::new(config.clone()).with_threads(threads);
            cluster.run_sharded(&trace, &jobs, StreamSplit::new(3), shards).unwrap()
        };
        let reference = run_pinned(1, 1);
        for shards in [2usize, 3, 5] {
            for threads in [1usize, 2, 5] {
                assert_eq!(
                    run_pinned(shards, threads),
                    reference,
                    "shards={shards} threads={threads} diverged"
                );
            }
        }
    }

    /// Class tags survive sharding: a tagged stream's per-class slices
    /// and energy attribution are shard-count invariant too (tags ride
    /// the id's high bits, the split hashes the sequence number).
    #[test]
    fn sharded_class_slices_match_central() {
        use sleepscale_sim::{pack_id, ClassId};
        let (config, trace, jobs) = setup(4, 30, 57);
        let tagged_jobs: Vec<Job> = jobs
            .jobs()
            .iter()
            .enumerate()
            .map(|(i, j)| Job { id: pack_id(j.id, ClassId(1 + (i % 3) as u16)), ..*j })
            .collect();
        let tagged = JobStream::new(tagged_jobs).unwrap();
        let reference = run_with(&mut crate::SplitUniform::new(5), &config, &trace, &tagged);
        assert_eq!(reference.class_responses().len(), 4);
        for shards in [2usize, 3, 4] {
            let mut cluster = Cluster::new(config.clone());
            let sharded =
                cluster.run_sharded(&trace, &tagged, StreamSplit::new(5), shards).unwrap();
            assert_eq!(sharded, reference, "shards={shards} diverged on a tagged stream");
        }
    }

    /// A plain (non-managed) strategy opts out of the per-epoch record
    /// buffer; the sharded engine must agree with the central one there
    /// too — this is the mega-fleet configuration.
    #[test]
    fn sharded_race_to_halt_skips_records_and_matches_central() {
        let spec = WorkloadSpec::dns();
        let base = runtime(300);
        let n = 4;
        let mut rng = rand::rngs::StdRng::seed_from_u64(58);
        let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).unwrap();
        let trace = UtilizationTrace::constant(0.2, 30).unwrap();
        let jobs = replay_trace(&trace, &dists, &ReplayConfig::for_fleet(n), &mut rng).unwrap();
        let groups = vec![ServerGroup::new("race", n, StrategySpec::race_to_halt_c6())];
        let config = ClusterConfig::new(&base, groups).unwrap();
        let reference = run_with(&mut crate::SplitUniform::new(2), &config, &trace, &jobs);
        for shards in [1usize, 3] {
            let mut cluster = Cluster::new(config.clone());
            let sharded = cluster.run_sharded(&trace, &jobs, StreamSplit::new(2), shards).unwrap();
            assert_eq!(sharded, reference, "shards={shards} diverged under race-to-halt");
        }
    }

    /// A shard count of zero is clamped to one: the run matches
    /// `shards = 1`.
    #[test]
    fn sharded_shard_counts_clamp_and_zero_is_one() {
        let (config, trace, jobs) = setup(3, 10, 59);
        let mut cluster = Cluster::new(config);
        let a = cluster.run_sharded(&trace, &jobs, StreamSplit::new(1), 0).unwrap();
        let b = cluster.run_sharded(&trace, &jobs, StreamSplit::new(1), 1).unwrap();
        assert_eq!(a, b, "shards=0 clamps to 1");
    }

    /// Kill-at-every-epoch × resume is byte-identical to the
    /// uninterrupted fleet run, under central routing with a stateful
    /// dispatcher (the round-robin pointer must survive the snapshot).
    #[test]
    fn central_kill_and_resume_reproduces_uninterrupted_run() {
        let (config, trace, jobs) = setup(3, 30, 60);
        let mut reference_cluster = Cluster::new(config.clone());
        let reference = reference_cluster.run(&trace, &jobs, &mut RoundRobin::new()).unwrap();
        let n_epochs = 6; // 30 min / 5 min
        for kill_at in 0..n_epochs - 1 {
            let mut snapshot: Option<Vec<u8>> = None;
            let mut sink = |epoch: usize, bytes: &[u8]| {
                if epoch == kill_at {
                    snapshot = Some(bytes.to_vec());
                    Ok(false)
                } else {
                    Ok(true)
                }
            };
            let mut cluster = Cluster::new(config.clone());
            let killed = cluster
                .run_checkpointed(&trace, &jobs, &mut RoundRobin::new(), None, Some(&mut sink))
                .unwrap();
            assert!(killed.is_none());
            let snapshot = snapshot.unwrap();
            let mut resumed_cluster = Cluster::new(config.clone());
            let resumed = resumed_cluster
                .run_checkpointed(&trace, &jobs, &mut RoundRobin::new(), Some(&snapshot), None)
                .unwrap()
                .unwrap();
            assert_eq!(resumed, reference, "kill at {kill_at} diverged");
        }
    }

    /// Sharded kill/resume: thread counts may differ between the killed
    /// run and the resume, and the result still matches the
    /// uninterrupted bytes (the stream position is fast-forwarded to the
    /// sealed boundary, whatever walk the killed run used). Autoscaled
    /// fleets too: their shards dispatch concurrently over the epoch's
    /// active set.
    #[test]
    fn sharded_kill_and_resume_is_thread_count_agnostic() {
        let autoscaled = Some(sleepscale_autoscale::AutoscalerSpec::new());
        for ((config, trace, jobs), autoscaler) in
            [(setup(5, 30, 61), None), (setup_constant(5, 0.12, 30, 63), autoscaled)]
        {
            let cluster = |threads: usize| {
                let cluster = Cluster::new(config.clone()).with_threads(threads);
                match &autoscaler {
                    Some(spec) => cluster.with_autoscaler(spec.clone()),
                    None => cluster,
                }
            };
            let split = StreamSplit::new(11);
            let reference = cluster(0).run_sharded(&trace, &jobs, split, 2).unwrap();
            if autoscaler.is_some() {
                assert!(reference.fleet_size_trace()[..3].iter().any(|&m| m < 5), "should park");
            }
            for (kill_threads, resume_threads) in [(1usize, 4usize), (4, 1)] {
                let kill_at = 2;
                let mut snapshot: Option<Vec<u8>> = None;
                let mut sink = |epoch: usize, bytes: &[u8]| {
                    if epoch == kill_at {
                        snapshot = Some(bytes.to_vec());
                        Ok(false)
                    } else {
                        Ok(true)
                    }
                };
                cluster(kill_threads)
                    .run_sharded_checkpointed(&trace, &jobs, split, 2, None, Some(&mut sink))
                    .unwrap();
                let snapshot = snapshot.unwrap();
                let resumed = cluster(resume_threads)
                    .run_sharded_checkpointed(&trace, &jobs, split, 2, Some(&snapshot), None)
                    .unwrap()
                    .unwrap();
                assert_eq!(
                    resumed,
                    reference,
                    "kill under {kill_threads} threads, resume under {resume_threads} diverged \
                     (autoscaled: {})",
                    autoscaler.is_some()
                );
                // A shard-count mismatch on resume is a typed error.
                let err = cluster(0)
                    .run_sharded_checkpointed(&trace, &jobs, split, 3, Some(&snapshot), None)
                    .unwrap_err();
                assert!(err.to_string().contains("shards"), "{err}");
            }
        }
    }

    /// Off-peak, the autoscaler parks real capacity and the report
    /// carries the evidence: positive parked server-seconds, a fleet
    /// trace that dips below the configured size, every job still
    /// served, and strictly less total energy than the identical
    /// fixed fleet.
    #[test]
    fn autoscaler_parks_off_peak_and_saves_energy() {
        let (config, trace, jobs) = setup_constant(6, 0.10, 60, 62);
        let fixed = run_with(&mut JoinShortestBacklog::new(), &config, &trace, &jobs);
        let mut cluster = Cluster::new(config.clone())
            .with_autoscaler(sleepscale_autoscale::AutoscalerSpec::new());
        let scaled = cluster.run(&trace, &jobs, &mut JoinShortestBacklog::new()).unwrap();
        assert_eq!(scaled.total_jobs(), jobs.len(), "autoscaling must not drop jobs");
        assert!(scaled.parked_server_seconds() > 0.0, "a 10% fleet should park");
        assert_eq!(scaled.fleet_size_trace().len(), 12, "one entry per epoch");
        assert_eq!(scaled.fleet_size_trace()[0], 6, "the fleet boots fully active");
        assert!(scaled.fleet_size_trace().iter().any(|&m| m < 6), "the trace should dip");
        assert!(
            scaled.total_energy_joules() < fixed.total_energy_joules(),
            "parked capacity must save energy: {} vs {}",
            scaled.total_energy_joules(),
            fixed.total_energy_joules()
        );
        assert_eq!(fixed.parked_server_seconds(), 0.0);
        assert!(fixed.fleet_size_trace().is_empty());
    }

    /// Autoscaled runs keep the engine's byte-determinism: worker
    /// thread counts cannot leak into the report, under central and
    /// sharded routing alike, and sharded runs stay shard-count
    /// invariant (the segment walk draws each lane over the epoch's
    /// active set).
    #[test]
    fn autoscaled_runs_are_thread_and_shard_invariant() {
        let (config, trace, jobs) = setup_constant(5, 0.12, 30, 63);
        let spec = sleepscale_autoscale::AutoscalerSpec::new();
        let central = |threads: usize| {
            let mut cluster =
                Cluster::new(config.clone()).with_threads(threads).with_autoscaler(spec.clone());
            cluster.run(&trace, &jobs, &mut JoinShortestBacklog::new()).unwrap()
        };
        let reference = central(1);
        assert!(reference.parked_server_seconds() > 0.0, "the run should actually scale");
        for threads in [2usize, 5] {
            assert_eq!(central(threads), reference, "threads={threads} diverged");
        }
        let sharded = |shards: usize, threads: usize| {
            let mut cluster =
                Cluster::new(config.clone()).with_threads(threads).with_autoscaler(spec.clone());
            cluster.run_sharded(&trace, &jobs, StreamSplit::new(7), shards).unwrap()
        };
        let split_reference = sharded(1, 1);
        assert!(split_reference.parked_server_seconds() > 0.0);
        for (shards, threads) in [(2usize, 1usize), (3, 4), (5, 2)] {
            assert_eq!(
                sharded(shards, threads),
                split_reference,
                "shards={shards} threads={threads} diverged"
            );
        }
        // The central engine over a SplitUniform dispatcher still
        // matches the sharded engine when both are autoscaled.
        let mut cluster = Cluster::new(config.clone()).with_autoscaler(spec.clone());
        let central_split = cluster.run(&trace, &jobs, &mut crate::SplitUniform::new(7)).unwrap();
        assert_eq!(central_split, split_reference, "central split-uniform diverged");
    }

    /// Kill-at-every-epoch × resume reproduces the uninterrupted
    /// autoscaled run: the controller state (active prefixes, parked
    /// seconds, trace) rides the snapshot and parked slots stay
    /// routing-invisible after the index rebuild.
    #[test]
    fn autoscaled_kill_and_resume_reproduces_uninterrupted_run() {
        let (config, trace, jobs) = setup_constant(4, 0.12, 30, 64);
        let spec = sleepscale_autoscale::AutoscalerSpec::new();
        let mut reference_cluster = Cluster::new(config.clone()).with_autoscaler(spec.clone());
        let reference =
            reference_cluster.run(&trace, &jobs, &mut JoinShortestBacklog::new()).unwrap();
        assert!(reference.parked_server_seconds() > 0.0, "the run should actually scale");
        for kill_at in 0..5 {
            let mut snapshot: Option<Vec<u8>> = None;
            let mut sink = |epoch: usize, bytes: &[u8]| {
                if epoch == kill_at {
                    snapshot = Some(bytes.to_vec());
                    Ok(false)
                } else {
                    Ok(true)
                }
            };
            let mut cluster = Cluster::new(config.clone()).with_autoscaler(spec.clone());
            let killed = cluster
                .run_checkpointed(
                    &trace,
                    &jobs,
                    &mut JoinShortestBacklog::new(),
                    None,
                    Some(&mut sink),
                )
                .unwrap();
            assert!(killed.is_none());
            let snapshot = snapshot.unwrap();
            let mut resumed_cluster = Cluster::new(config.clone()).with_autoscaler(spec.clone());
            let resumed = resumed_cluster
                .run_checkpointed(
                    &trace,
                    &jobs,
                    &mut JoinShortestBacklog::new(),
                    Some(&snapshot),
                    None,
                )
                .unwrap()
                .unwrap();
            assert_eq!(resumed, reference, "kill at {kill_at} diverged");
        }
    }

    /// An autoscaler snapshot and a plain snapshot are mutually
    /// unreadable — resuming across the configuration mismatch fails
    /// loudly instead of misreading bytes.
    #[test]
    fn autoscaler_snapshot_configuration_mismatch_is_rejected() {
        let (config, trace, jobs) = setup_constant(3, 0.12, 15, 65);
        let spec = sleepscale_autoscale::AutoscalerSpec::new();
        let mut snapshot: Option<Vec<u8>> = None;
        let mut sink = |epoch: usize, bytes: &[u8]| {
            if epoch == 1 {
                snapshot = Some(bytes.to_vec());
                Ok(false)
            } else {
                Ok(true)
            }
        };
        Cluster::new(config.clone())
            .with_autoscaler(spec.clone())
            .run_checkpointed(&trace, &jobs, &mut JoinShortestBacklog::new(), None, Some(&mut sink))
            .unwrap();
        let snapshot = snapshot.unwrap();
        // Autoscaled snapshot into a plain cluster: trailing bytes.
        let err = Cluster::new(config.clone())
            .run_checkpointed(&trace, &jobs, &mut JoinShortestBacklog::new(), Some(&snapshot), None)
            .unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    /// The homogeneous constructor reproduces the default strategy
    /// wiring: one group, the runtime's own env/QoS/α, and a default
    /// SleepScale spec over the standard candidate set.
    #[test]
    fn homogeneous_config_is_one_default_group() {
        let base = runtime(300);
        let config = ClusterConfig::homogeneous(3, base.clone()).unwrap();
        assert_eq!(config.n_servers(), 3);
        assert_eq!(config.groups().len(), 1);
        let group = &config.groups()[0];
        assert_eq!(group.strategy, StrategySpec::sleepscale());
        assert_eq!(group.qos, base.qos());
        assert_eq!(config.runtime_for(0), &base);
        assert_eq!(CandidateSet::standard().name(), "SS");
    }
}
