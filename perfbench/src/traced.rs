//! The traced pass: the scenario `ScenarioRunner` runs, driven instead
//! through the lower-level public APIs, with forwarding decorators on
//! the seams the caller owns (the single-server `Strategy`, the
//! cluster's `Dispatcher`, the checkpoint sink around
//! `Journal::append`, the telemetry `FileSink`). Spans are recorded
//! from outside the program; waiting at the engines' internal epoch
//! barriers cannot be seen from here.

use crate::run::{file_bytes, stream_digest, write_trace, Io, RunOutcome};
use crate::workloads::Output;
use rand::SeedableRng;
use sleepscale::{CoreError, RuntimeConfig, Selection, SleepScaleStrategy, Strategy};
use sleepscale_cluster::{
    ActiveSet, Cluster, ClusterConfig, DispatchIndex, Dispatcher, RouteDecision,
};
use sleepscale_journal::{ByteReader, ByteWriter, CodecError, Journal, JournalMeta};
use sleepscale_scenario::{Scenario, ScenarioRunner, WorkloadSource, JOURNAL_SCHEMA_VERSION};
use sleepscale_sim::{Job, JobRecord, JobStream, StreamSplit};
use sleepscale_telemetry::metrics;
use sleepscale_workloads::{replay_trace, ReplayConfig, UtilizationTrace, WorkloadDistributions};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::time::Instant;

/// Every `ROUTE_SAMPLE_EVERY`th route is timed; all are counted. A
/// clock pair is not cheap next to a route (about 35 ns against 100 ns
/// for join-shortest-backlog on a 2-vCPU virtual machine), so timing
/// every route would inflate what it measures.
const ROUTE_SAMPLE_EVERY: u64 = 64;

/// The per-layer metrics, with their units, in output order. The
/// `<name>.p50`, `.tail` and `.samples` entries come from the samples
/// pooled over passes under `<name>` (the tail is the highest
/// percentile with at least ten samples beyond it); the rest are
/// medians over traced passes.
pub const LAYER_METRICS: [(&str, &str); 52] = [
    ("workloads.dist_s", "s"),
    ("workloads.trace_s", "s"),
    ("workloads.replay_s", "s"),
    ("workloads.replay_ns_per_job", "ns"),
    ("workloads.jobs", "count"),
    ("core.run_s", "s"),
    ("core.self_s", "s"),
    ("core.decisions", "count"),
    ("core.decision_s", "s"),
    ("core.decision_ms.p50", "ms"),
    ("core.decision_ms.tail", "ms"),
    ("core.candidates_evaluated", "count"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.cache_hit_rate", "ratio"),
    ("core.warm_rate", "ratio"),
    ("cluster.run_s", "s"),
    ("cluster.self_s", "s"),
    ("cluster.routes", "count"),
    ("cluster.route_ns", "ns"),
    ("cluster.epoch_ms.p50", "ms"),
    ("cluster.epoch_ms.tail", "ms"),
    ("cluster.cache_hits", "count"),
    ("cluster.cache_misses", "count"),
    ("cluster.cache_hit_rate", "ratio"),
    ("cluster.warm_rate", "ratio"),
    ("cluster.sharded_ns_per_job", "ns"),
    ("cluster.spills", "count"),
    ("cluster.fallbacks", "count"),
    ("autoscale.parked_server_s", "server_s"),
    ("autoscale.parks", "count"),
    ("autoscale.unparks", "count"),
    ("autoscale.min_fleet", "count"),
    ("journal.appends", "count"),
    ("journal.append_s", "s"),
    ("journal.append_ms.p50", "ms"),
    ("journal.append_ms.tail", "ms"),
    ("journal.bytes", "B"),
    ("journal.record_bytes.max", "B"),
    ("journal.bytes_per_last_record", "ratio"),
    ("telemetry.events", "count"),
    ("telemetry.events_per_job", "events/job"),
    ("telemetry.write_s", "s"),
    ("telemetry.bytes", "B"),
    ("telemetry.collect_s", "s"),
    ("bench.clock_pair_ns", "ns"),
    ("bench.trace_overhead_frac", "ratio"),
    ("core.decision_ms.samples", "count"),
    ("journal.append_ms.samples", "count"),
    ("cluster.epoch_ms.samples", "count"),
    ("cluster.route_samples", "count"),
    ("bench.traced_passes", "count"),
];

/// One recorded span: a named host-time interval, the span that
/// caused it, and the epoch it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    epoch: Option<usize>,
}

/// The spans of one traced pass, timed from the pass's origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its id.
    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        epoch: Option<usize>,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, epoch });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Spans::close`] ends it.
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.push(name, now, now, parent, None)
    }

    fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.ns(Instant::now());
        self.secs(id)
    }

    fn secs(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Seconds of `id` not covered by its children. Children of one
    /// span never overlap here: every seam is called from one thread.
    fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.secs(c))
            .sum();
        self.secs(id) - children
    }

    /// Appends the spans as CSV rows tagged with the pass number.
    pub fn write_csv(&self, pass: usize, out: &mut String) {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let epoch = s.epoch.map_or(String::new(), |e| e.to_string());
            let _ = writeln!(
                out,
                "{pass},{id},{},{},{},{parent},{epoch}",
                s.name, s.start_ns, s.end_ns
            );
        }
    }
}

/// The CSV header [`Spans::write_csv`] rows follow.
pub const SPANS_CSV_HEADER: &str = "pass,id,name,start_ns,end_ns,parent,epoch";

/// A forwarding `Strategy` that times `begin_epoch` (policy decision,
/// prediction included) and `end_epoch` (log ingest).
#[derive(Debug)]
struct TimedStrategy<'a> {
    inner: &'a mut SleepScaleStrategy,
    calls: Vec<(&'static str, Instant, Instant, usize)>,
    epoch: usize,
}

impl Strategy for TimedStrategy<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn begin_epoch(&mut self, epoch: usize) -> Result<sleepscale_power::Policy, CoreError> {
        self.epoch = epoch;
        let start = Instant::now();
        let policy = self.inner.begin_epoch(epoch);
        self.calls.push(("core.begin_epoch", start, Instant::now(), epoch));
        policy
    }

    fn end_epoch(&mut self, records: &[JobRecord]) {
        let start = Instant::now();
        self.inner.end_epoch(records);
        self.calls.push(("core.end_epoch", start, Instant::now(), self.epoch));
    }

    fn observe_minute(&mut self, rho: f64) {
        self.inner.observe_minute(rho);
    }

    fn wants_epoch_records(&self) -> bool {
        self.inner.wants_epoch_records()
    }

    fn last_prediction(&self) -> f64 {
        self.inner.last_prediction()
    }

    fn last_selection(&self) -> Option<&Selection> {
        self.inner.last_selection()
    }

    fn snapshot_state(&self, w: &mut ByteWriter) {
        self.inner.snapshot_state(w);
    }

    fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.inner.restore_state(r)
    }
}

/// A forwarding `Dispatcher` that counts every route, times every
/// [`ROUTE_SAMPLE_EVERY`]th, and notes when each epoch's first job is
/// routed.
#[derive(Debug)]
struct TimedDispatcher<'a> {
    inner: &'a mut dyn Dispatcher,
    epoch_seconds: f64,
    routes: u64,
    sampled_ns: Vec<u32>,
    epoch_starts: Vec<(usize, Instant)>,
}

impl<'a> TimedDispatcher<'a> {
    fn new(inner: &'a mut dyn Dispatcher, epoch_seconds: f64) -> TimedDispatcher<'a> {
        TimedDispatcher {
            inner,
            epoch_seconds,
            routes: 0,
            sampled_ns: Vec::new(),
            epoch_starts: Vec::new(),
        }
    }

    fn routed(&mut self, job: &Job, route: impl FnOnce(&mut dyn Dispatcher) -> usize) -> usize {
        let epoch = (job.arrival / self.epoch_seconds) as usize;
        if self.epoch_starts.last().is_none_or(|&(e, _)| e != epoch) {
            self.epoch_starts.push((epoch, Instant::now()));
        }
        let sampled = self.routes.is_multiple_of(ROUTE_SAMPLE_EVERY);
        self.routes += 1;
        if !sampled {
            return route(&mut *self.inner);
        }
        let start = Instant::now();
        let server = route(&mut *self.inner);
        let ns = start.elapsed().as_nanos();
        self.sampled_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        server
    }
}

impl Dispatcher for TimedDispatcher<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn last_route(&self) -> RouteDecision {
        self.inner.last_route()
    }

    fn route(&mut self, job: &Job, index: &DispatchIndex) -> usize {
        self.routed(job, |d| d.route(job, index))
    }

    fn route_active(&mut self, job: &Job, index: &DispatchIndex, active: &ActiveSet<'_>) -> usize {
        self.routed(job, |d| d.route_active(job, index, active))
    }

    fn snapshot_state(&self, w: &mut ByteWriter) {
        self.inner.snapshot_state(w);
    }

    fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.inner.restore_state(r)
    }
}

/// What one traced pass measured.
#[derive(Debug)]
pub struct PassSample {
    /// Per-layer scalar readings of this pass, by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Samples behind the `<name>.p50`, `.tail` and `.samples`
    /// metrics, by `<name>`: per-call `begin_epoch` and
    /// `Journal::append` times, and host time between the first routes
    /// of consecutive epochs, all in ms.
    pub pools: BTreeMap<&'static str, Vec<f64>>,
    /// Host seconds of the pass: inputs, run and outputs.
    pub wall_s: f64,
    /// Jobs in the pass's stream.
    pub offered: usize,
    /// The pass's spans.
    pub spans: Spans,
    /// Checks the pass failed: any difference from the untraced
    /// reference run, or a broken count.
    pub failures: Vec<String>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Materializes the scenario's inputs the way `ScenarioRunner::inputs`
/// does, in its RNG order, with a span around each layer call.
fn traced_inputs(
    scenario: &Scenario,
    spans: &mut Spans,
    pass: usize,
) -> Result<(UtilizationTrace, JobStream), String> {
    let spec = scenario.workload.resolve().map_err(err)?;
    let start = Instant::now();
    let trace = scenario.load.build(scenario.arrival_scale).map_err(err)?;
    spans.push("workloads.trace", start, Instant::now(), Some(pass), None);
    let mut rng = rand::rngs::StdRng::seed_from_u64(scenario.seed);
    let config = ReplayConfig::for_fleet(scenario.total_servers());
    let jobs = match &scenario.workload {
        WorkloadSource::Tagged(model) => {
            let start = Instant::now();
            let tables = model.empirical_tables(scenario.dist_samples, &mut rng).map_err(err)?;
            let mid = Instant::now();
            let jobs =
                sleepscale_traffic::replay_traffic(&trace, model, &tables, &config, &mut rng)
                    .map_err(err)?;
            spans.push("workloads.dist", start, mid, Some(pass), None);
            spans.push("workloads.replay", mid, Instant::now(), Some(pass), None);
            jobs
        }
        _ => {
            let start = Instant::now();
            let dists = WorkloadDistributions::empirical(&spec, scenario.dist_samples, &mut rng)
                .map_err(err)?;
            let mid = Instant::now();
            let jobs = replay_trace(&trace, &dists, &config, &mut rng).map_err(err)?;
            spans.push("workloads.dist", start, mid, Some(pass), None);
            spans.push("workloads.replay", mid, Instant::now(), Some(pass), None);
            jobs
        }
    };
    Ok((trace, jobs))
}

/// The fleet `ScenarioRunner` would build, before telemetry is armed.
fn fleet_for(scenario: &Scenario, base: &RuntimeConfig) -> Result<Cluster, String> {
    let config = ClusterConfig::new(base, scenario.fleet.clone()).map_err(err)?;
    let mut cluster = Cluster::new(config).with_threads(scenario.threads);
    if let Some(spec) = &scenario.autoscaler {
        cluster = cluster.with_autoscaler(spec.clone());
    }
    Ok(cluster)
}

/// Runs one traced pass of `workload` and compares everything it
/// produces with the untraced `reference` run of the same scenario.
///
/// `clock_ns` is the reading of an empty timed region; sampled route
/// timings subtract it.
pub fn traced_pass(
    output: Output,
    scenario: &Scenario,
    io: &Io,
    reference: &RunOutcome,
    clock_ns: f64,
) -> Result<PassSample, String> {
    io.clear()?;
    let runner = ScenarioRunner::new(scenario.clone()).map_err(err)?;
    let mut spans = Spans::new();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut failures = Vec::new();
    let mut pools: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();

    let pass = spans.open("pass", None);
    let (trace, jobs) = traced_inputs(scenario, &mut spans, pass)?;
    let spec = scenario.workload.resolve().map_err(err)?;
    let base = runner.base_runtime(&spec).map_err(err)?;
    let n_jobs = jobs.len();
    for (name, span) in [
        ("workloads.trace_s", "workloads.trace"),
        ("workloads.dist_s", "workloads.dist"),
        ("workloads.replay_s", "workloads.replay"),
    ] {
        let id = spans.spans.iter().position(|s| s.name == span).expect("input spans recorded");
        values.insert(name, spans.secs(id));
    }
    values
        .insert("workloads.replay_ns_per_job", values["workloads.replay_s"] * 1e9 / n_jobs as f64);
    values.insert("workloads.jobs", n_jobs as f64);

    let native_debug;
    let mut min_fleet = scenario.total_servers() as f64;
    let mut parked = 0.0;
    if scenario.total_servers() == 1 {
        // The single-server backend, checkpointed into a fresh journal.
        if output != Output::Journal {
            return Err(format!("{}: traced single-server runs are journaled", scenario.name));
        }
        let meta = JournalMeta {
            schema_version: JOURNAL_SCHEMA_VERSION,
            seed: scenario.seed,
            config_fingerprint: runner.config_fingerprint(),
        };
        if io.journal.exists() {
            return Err(format!("{} exists: the run would resume", io.journal.display()));
        }
        let mut journal = Journal::create(&io.journal, &meta).map_err(err)?;
        let mut managed = scenario.fleet[0]
            .strategy
            .build_managed(&base)
            .ok_or("the single-server workload's strategy is not managed")?;
        let mut appends: Vec<(Instant, Instant, usize, usize)> = Vec::new();
        let mut sink = |epoch: usize, payload: &[u8]| -> Result<bool, CoreError> {
            let start = Instant::now();
            journal.append(payload)?;
            appends.push((start, Instant::now(), epoch, payload.len()));
            Ok(true)
        };
        let mut timed = TimedStrategy { inner: &mut managed, calls: Vec::new(), epoch: 0 };
        let run = spans.open("core.run", Some(pass));
        let report = sleepscale::run_resumable(
            &trace,
            &jobs,
            &mut timed,
            base.env(),
            &base,
            None,
            Some(&mut sink),
        )
        .map_err(err)?
        .ok_or("a checkpointed run without a kill plan stopped early")?;
        let run_s = spans.close(run);
        let calls = std::mem::take(&mut timed.calls);
        drop(journal);

        for &(name, start, end, epoch) in &calls {
            spans.push(name, start, end, Some(run), Some(epoch));
        }
        for &(start, end, epoch, _) in &appends {
            spans.push("journal.append", start, end, Some(run), Some(epoch));
        }
        let begins: Vec<f64> = calls
            .iter()
            .filter(|c| c.0 == "core.begin_epoch")
            .map(|c| c.2.duration_since(c.1).as_secs_f64())
            .collect();
        let append_s: Vec<f64> =
            appends.iter().map(|a| a.1.duration_since(a.0).as_secs_f64()).collect();
        let cache = managed.cache_stats().unwrap_or_default();
        let warm = managed.warm_start_stats();
        values.insert("core.run_s", run_s);
        values.insert("core.self_s", spans.self_secs(run));
        values.insert("core.decisions", begins.len() as f64);
        values.insert("core.decision_s", begins.iter().sum());
        values.insert("core.candidates_evaluated", report.total_evaluated() as f64);
        values.insert("core.cache_hits", cache.hits as f64);
        values.insert("core.cache_misses", cache.misses as f64);
        values.insert("core.cache_hit_rate", cache.hit_rate());
        values.insert("core.warm_rate", warm.warm_rate());
        pools.insert("core.decision_ms", begins.iter().map(|s| s * 1e3).collect());

        let epochs = trace.len().div_ceil(scenario.epoch_minutes);
        if appends.len() != epochs {
            failures.push(format!("{} journal appends for {epochs} epochs", appends.len()));
        }
        let bytes = file_bytes(&io.journal);
        if bytes != reference.journal_bytes {
            failures
                .push(format!("traced journal {bytes} B, untraced {} B", reference.journal_bytes));
        }
        let last = appends.last().map_or(0, |a| a.3);
        values.insert("journal.appends", appends.len() as f64);
        values.insert("journal.append_s", append_s.iter().sum());
        values.insert("journal.bytes", bytes as f64);
        values.insert(
            "journal.record_bytes.max",
            appends.iter().map(|a| a.3).max().unwrap_or(0) as f64,
        );
        values.insert(
            "journal.bytes_per_last_record",
            if last > 0 { bytes as f64 / last as f64 } else { 0.0 },
        );
        pools.insert("journal.append_ms", append_s.iter().map(|s| s * 1e3).collect());

        if (cache, warm) != (reference.report.cache_stats(), reference.report.warm_start_stats()) {
            failures.push("traced cache or warm-start counters differ".to_string());
        }
        native_debug = format!("{report:?}");
    } else {
        let mut cluster = fleet_for(scenario, &base)?;
        if let Some(t) = scenario.telemetry {
            cluster = cluster.with_telemetry(t);
        }
        let epoch_seconds = scenario.epoch_minutes as f64 * 60.0;
        let (report, run, routes, route_ns) = match scenario.dispatcher.split_seed() {
            Some(seed) if scenario.shards > 1 => {
                let run = spans.open("cluster.run_sharded", Some(pass));
                let report = cluster
                    .run_sharded(&trace, &jobs, StreamSplit::new(seed), scenario.shards)
                    .map_err(err)?;
                let run_s = spans.close(run);
                values.insert("cluster.sharded_ns_per_job", run_s * 1e9 / n_jobs as f64);
                (report, run, 0, 0.0)
            }
            _ => {
                let mut dispatcher = scenario.dispatcher.build(&scenario.fleet);
                let mut timed = TimedDispatcher::new(dispatcher.as_mut(), epoch_seconds);
                let run = spans.open("cluster.run", Some(pass));
                let report = cluster.run(&trace, &jobs, &mut timed).map_err(err)?;
                spans.close(run);
                let epoch_ms = pools.entry("cluster.epoch_ms").or_default();
                for pair in timed.epoch_starts.windows(2) {
                    let ((e0, t0), (e1, t1)) = (pair[0], pair[1]);
                    if e1 == e0 + 1 {
                        spans.push("cluster.epoch", t0, t1, Some(run), Some(e0));
                        epoch_ms.push(t1.duration_since(t0).as_secs_f64() * 1e3);
                    }
                }
                let sampled = &timed.sampled_ns;
                let mean = sampled.iter().map(|&ns| f64::from(ns)).sum::<f64>()
                    / sampled.len().max(1) as f64;
                values.insert("cluster.route_samples", sampled.len() as f64);
                (report, run, timed.routes, mean)
            }
        };
        let run_s = spans.secs(run);
        // The sampled reading less an empty timed region's reading.
        let route_ns = (route_ns - clock_ns).max(0.0);
        values.insert("cluster.run_s", run_s);
        values.insert("cluster.routes", routes as f64);
        values.insert("cluster.route_ns", route_ns);
        values.insert("cluster.self_s", run_s - routes as f64 * route_ns / 1e9);
        if routes > 0 && routes != n_jobs as u64 {
            failures.push(format!("{routes} routes for {n_jobs} jobs"));
        }
        let cache = cluster.characterization_stats();
        let warm = cluster.warm_start_stats();
        values.insert("cluster.cache_hits", cache.hits as f64);
        values.insert("cluster.cache_misses", cache.misses as f64);
        values.insert("cluster.cache_hit_rate", cache.hit_rate());
        values.insert("cluster.warm_rate", warm.warm_rate());
        if (cache, warm) != (reference.report.cache_stats(), reference.report.warm_start_stats()) {
            failures.push("traced cache or warm-start counters differ".to_string());
        }
        parked = report.parked_server_seconds();
        if let Some(&min) = report.fleet_size_trace().iter().min() {
            min_fleet = min as f64;
        }

        if let Some(telemetry) = cluster.take_telemetry() {
            let write = spans.open("telemetry.write", Some(pass));
            if output == Output::Trace {
                write_trace(&io.trace, &telemetry.events)?;
            }
            values.insert("telemetry.write_s", spans.close(write));
            let bytes = file_bytes(&io.trace);
            if bytes != reference.trace_bytes {
                failures
                    .push(format!("traced trace {bytes} B, untraced {} B", reference.trace_bytes));
            }
            let events = telemetry.events.len();
            values.insert("telemetry.events", events as f64);
            values.insert("telemetry.events_per_job", events as f64 / n_jobs as f64);
            values.insert("telemetry.bytes", bytes as f64);
            let m = &telemetry.metrics;
            values.insert("cluster.spills", m.get(metrics::DISPATCH_SPILLS) as f64);
            values.insert("cluster.fallbacks", m.get(metrics::DISPATCH_FALLBACKS) as f64);
            values.insert("autoscale.parks", m.get(metrics::AUTOSCALER_PARKS) as f64);
            values.insert("autoscale.unparks", m.get(metrics::AUTOSCALER_WAKES) as f64);
            if reference.telemetry.as_ref() != Some(&(events, telemetry.metrics.clone())) {
                failures.push("traced telemetry differs from the untraced run's".to_string());
            }
        }
        native_debug = format!("{report:?}");
    }

    let write = spans.open("output.report", Some(pass));
    fs::write(&io.report, &native_debug).map_err(|e| format!("writing report: {e}"))?;
    spans.close(write);
    let wall_s = spans.close(pass);

    // The comparisons with the untraced run, outside the pass.
    if Some(stream_digest(&jobs)) != reference.stream_digest {
        failures.push("the traced inputs differ from ScenarioRunner::inputs".to_string());
    }
    let untraced = match (reference.report.run_report(), reference.report.cluster_report()) {
        (Some(r), _) => format!("{r:?}"),
        (_, Some(c)) => format!("{c:?}"),
        _ => String::new(),
    };
    if untraced != native_debug {
        failures.push("the traced report differs from the untraced one".to_string());
    }

    // The same fleet with telemetry off, outside the pass: what the
    // telemetry layer costs the run.
    if scenario.telemetry.is_some() {
        let mut cluster = fleet_for(scenario, &base)?;
        let mut dispatcher = scenario.dispatcher.build(&scenario.fleet);
        let mut timed =
            TimedDispatcher::new(dispatcher.as_mut(), scenario.epoch_minutes as f64 * 60.0);
        let off = spans.open("cluster.run.telemetry_off", None);
        let report = cluster.run(&trace, &jobs, &mut timed).map_err(err)?;
        let off_s = spans.close(off);
        values.insert("telemetry.collect_s", values["cluster.run_s"] - off_s);
        if format!("{report:?}") != native_debug {
            failures.push("telemetry changed the cluster report".to_string());
        }
    }

    values.insert("autoscale.parked_server_s", parked);
    values.insert("autoscale.min_fleet", min_fleet);
    Ok(PassSample { values, pools, wall_s, offered: n_jobs, spans, failures })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_scenario;
    use sleepscale_scenario::catalog;

    fn io_for(name: &str) -> Io {
        let dir = std::env::temp_dir().join(format!("perfbench-{}-{name}", std::process::id()));
        Io::new(&dir).unwrap()
    }

    /// Decorated runs of the catalog's resume trio (single-server with
    /// a journal, sharded fleet, tagged fleet behind round-robin)
    /// reproduce `ScenarioRunner`'s reports, inputs, journal and cache
    /// counters byte for byte.
    #[test]
    fn decorated_runs_match_the_runner_byte_for_byte() {
        let traced_tagged = Scenario {
            name: "resume-tagged-traced".into(),
            telemetry: Some(sleepscale_scenario::TelemetrySpec::full()),
            ..catalog::resume_tagged()
        };
        for (scenario, output) in [
            (catalog::resume_single(), Output::Journal),
            (catalog::resume_fleet_sharded(), Output::ReportOnly),
            (catalog::resume_tagged(), Output::ReportOnly),
            (traced_tagged, Output::Trace),
        ] {
            let io = io_for(&scenario.name);
            let reference = run_scenario(output, &scenario, &io, true).unwrap();
            assert!(reference.failures.is_empty(), "{}: {:?}", scenario.name, reference.failures);
            let pass = traced_pass(output, &scenario, &io, &reference, 0.0).unwrap();
            assert!(pass.failures.is_empty(), "{}: {:?}", scenario.name, pass.failures);
            assert_eq!(pass.offered, reference.offered);
            for name in pass.values.keys().chain(pass.pools.keys()) {
                let listed =
                    |m: &(&str, &str)| m.0 == *name || m.0.starts_with(&format!("{name}."));
                assert!(LAYER_METRICS.iter().any(listed), "{name} is not a listed metric");
            }
            if output == Output::Journal {
                let epochs = pass.values["journal.appends"];
                assert!(epochs >= 6.0 && pass.values["core.decisions"] == epochs);
            } else if scenario.shards == 1 {
                assert_eq!(pass.values["cluster.routes"], reference.offered as f64);
            }
            if output == Output::Trace {
                assert!(pass.values["telemetry.events"] > 0.0);
                assert_eq!(pass.values["telemetry.bytes"], reference.trace_bytes as f64);
            }
            io.clear().unwrap();
        }
    }

    /// The comparison has teeth: a reference from another seed fails.
    #[test]
    fn a_different_reference_is_caught() {
        let scenario = catalog::resume_tagged();
        let io = io_for("other-seed");
        let mut other = scenario.clone();
        other.seed += 1;
        let reference = run_scenario(Output::ReportOnly, &other, &io, true).unwrap();
        let pass = traced_pass(Output::ReportOnly, &scenario, &io, &reference, 0.0).unwrap();
        let failures = pass.failures.join("\n");
        assert!(failures.contains("inputs differ"), "{failures}");
        assert!(failures.contains("report differs"), "{failures}");
        io.clear().unwrap();
    }
}
