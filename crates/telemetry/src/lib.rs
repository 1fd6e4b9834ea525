//! Deterministic telemetry for SleepScale runs: structured trace
//! events, pluggable sinks, and a worker-invariant metrics registry.
//!
//! Every run of the simulator — single server or 100k-server sharded
//! fleet — is a deterministic function of its inputs, and PR 10 makes
//! its *internals* observable under the same contract. A
//! [`TraceEvent`] records one simulation fact (a C-state residency
//! segment, a wake transition, an epoch policy decision, a dispatch
//! spill, an autoscaler park/wake) derived **only from simulation
//! state** — never wall-clock time or thread identity — so a trace is
//! byte-identical across worker and shard counts, and doubles as a
//! correctness oracle: replaying the trace reproduces the engine's
//! `Residency` accounting bit for bit and its `EnergyLedger` idle-side
//! energy to floating-point round-off.
//!
//! The pieces:
//!
//! * [`TraceEvent`] + [`ScaleCause`] — the event schema, with a
//!   hand-rolled JSONL codec; the offline `serde` stand-in is
//!   marker-only, so the wire format lives here. One encoder,
//!   [`TraceEvent::push_json`], sits behind all three writers
//!   ([`TraceEvent::to_json_line`], [`events_to_jsonl`] and
//!   [`FileSink`]); [`TraceEvent::from_json_line`] reads a line back.
//!   Finite values round-trip losslessly; a non-finite float is written
//!   as `null`, and a line holding one is rejected on read.
//! * [`TraceBuffer`] — the per-server accumulation vehicle. Engines
//!   buffer events per slot and merge in slot order at the end of the
//!   run; sinks are never called from parallel code.
//! * [`TraceSink`] — terminal consumers: [`MemorySink`] (with
//!   reconciliation helpers) and a buffered JSONL [`FileSink`].
//! * [`MetricsRegistry`] — named monotonic counters folded from the
//!   merged trace ([`MetricsRegistry::from_trace`]), so every value is
//!   as worker- and shard-count invariant as the trace itself.
//! * [`TelemetrySpec`] / [`TelemetryReport`] — the on/off switch a
//!   `Scenario` carries and the collected result a `ScenarioReport`
//!   surfaces.
//!
//! The zero-overhead contract: a run with telemetry disabled takes
//! exactly the pre-PR-10 code paths — per emit site the only added
//! work is one `Option` check — and produces byte-identical reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use sleepscale_power::SystemState;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Why the autoscaler changed (or pinned) a group's active count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScaleCause {
    /// Utilization fell below the park threshold.
    LowUtilization {
        /// The group utilization that triggered the decision.
        utilization: f64,
    },
    /// Utilization rose above the wake threshold.
    HighUtilization {
        /// The group utilization that triggered the decision.
        utilization: f64,
    },
    /// A QoS miss in the previous epoch forced the group to full size.
    QosPressure,
}

impl ScaleCause {
    fn tag(&self) -> &'static str {
        match self {
            ScaleCause::LowUtilization { .. } => "low_utilization",
            ScaleCause::HighUtilization { .. } => "high_utilization",
            ScaleCause::QosPressure => "qos_pressure",
        }
    }

    /// Human-readable rendering, e.g. `"low_utilization (u=0.12)"`.
    pub fn describe(&self) -> String {
        match self {
            ScaleCause::LowUtilization { utilization } => {
                format!("low_utilization (u={utilization:.3})")
            }
            ScaleCause::HighUtilization { utilization } => {
                format!("high_utilization (u={utilization:.3})")
            }
            ScaleCause::QosPressure => "qos_pressure".into(),
        }
    }
}

/// One structured simulation fact. Every field derives from simulation
/// state (times are simulation seconds, servers are fleet-order slot
/// indices), which is what makes traces a determinism surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The server occupied a sleep-ladder C-state for `seconds`
    /// starting at `start`, drawing `watts`.
    CState {
        /// Fleet-order slot index (0 for single-server runs).
        server: u32,
        /// Segment start, simulation seconds.
        start: f64,
        /// Segment length, seconds.
        seconds: f64,
        /// The occupied system state.
        state: SystemState,
        /// Power drawn during the segment, watts.
        watts: f64,
    },
    /// Pre-`τ₁` idle charged at active power (the appendix's `P_0`
    /// term): the server is idle but has not yet entered the ladder.
    ActiveIdle {
        /// Fleet-order slot index.
        server: u32,
        /// Segment start, simulation seconds.
        start: f64,
        /// Segment length, seconds.
        seconds: f64,
        /// Power drawn during the segment, watts.
        watts: f64,
    },
    /// A wake transition: an arrival (or autoscaler unpark) caught the
    /// server in `from` and paid `latency` seconds at `watts`.
    Wake {
        /// Fleet-order slot index.
        server: u32,
        /// When the wake began, simulation seconds.
        at: f64,
        /// The sleep state the server woke from (`None` = still in
        /// pre-`τ₁` active idle, no latency paid).
        from: Option<SystemState>,
        /// Wake latency paid, seconds.
        latency: f64,
        /// Power drawn during the wake, watts.
        watts: f64,
    },
    /// An epoch-boundary policy decision: the strategy chose
    /// `(frequency, program)` for `epoch` from `predicted_rho`.
    EpochDecision {
        /// Fleet-order slot index.
        server: u32,
        /// Epoch index, from 0.
        epoch: u32,
        /// The predictor's load estimate the selection keyed on.
        predicted_rho: f64,
        /// The chosen normalized frequency.
        frequency: f64,
        /// The chosen sleep program's label.
        program: String,
        /// Candidate policies evaluated (0 = characterization-cache
        /// hit).
        evaluated: u32,
        /// Whether the decision came from the characterization cache.
        cache_hit: bool,
    },
    /// The chosen frequency changed between consecutive epochs.
    FrequencyChange {
        /// Fleet-order slot index.
        server: u32,
        /// The epoch whose decision changed the frequency.
        epoch: u32,
        /// The previous epoch's frequency.
        from: f64,
        /// The new frequency.
        to: f64,
    },
    /// Class-affinity dispatch could not place a job on its preferred
    /// group and spilled fleet-wide (or fell back to minimum backlog).
    DispatchSpill {
        /// The job's id.
        job: u64,
        /// The job's traffic class.
        class: u16,
        /// The class's preferred group index.
        preferred_group: u32,
        /// The slot the job actually landed on.
        target_server: u32,
        /// True if even the spill found no idle server and the job
        /// fell back to the minimum-backlog slot.
        fallback: bool,
    },
    /// The autoscaler parked a drained server.
    Park {
        /// Fleet-order slot index.
        server: u32,
        /// Park instant (the epoch boundary), simulation seconds.
        at: f64,
        /// Why the controller shrank the group.
        cause: ScaleCause,
    },
    /// The autoscaler returned a parked server to service.
    Unpark {
        /// Fleet-order slot index.
        server: u32,
        /// Wake instant (the epoch boundary), simulation seconds.
        at: f64,
        /// Why the controller grew the group.
        cause: ScaleCause,
    },
}

/// Escapes a string for a JSON value position.
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Reverses [`escape_json`]. A `\u` escape must carry exactly four
/// ASCII hex digits.
fn unescape_json(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let rest = chars.as_str();
                let hex = rest.get(..4).filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))?;
                out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                chars = rest[4..].chars();
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Formats an `f64` deterministically for a JSON value position:
/// shortest round-trip form (`Debug`), `null` if non-finite.
fn fmt_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends `,"key":`; keys are field names that need no escaping.
fn push_key(out: &mut String, key: &'static str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
}

fn push_field_f64(out: &mut String, key: &'static str, v: f64) {
    push_key(out, key);
    fmt_f64(v, out);
}

fn push_field_u64(out: &mut String, key: &'static str, v: u64) {
    push_key(out, key);
    let _ = write!(out, "{v}");
}

fn push_field_str(out: &mut String, key: &'static str, v: &str) {
    push_key(out, key);
    out.push('"');
    escape_json(v, out);
    out.push('"');
}

fn push_field_bool(out: &mut String, key: &'static str, v: bool) {
    push_key(out, key);
    out.push_str(if v { "true" } else { "false" });
}

/// Appends a state label as its CPU and platform halves: the bytes of
/// `SystemState::label()` without its `format!`. Labels need no
/// escaping.
fn push_field_state(out: &mut String, key: &'static str, state: SystemState) {
    push_key(out, key);
    out.push('"');
    out.push_str(state.cpu().name());
    out.push_str(state.platform().name());
    out.push('"');
}

/// Resolves a paper-style label (`"C6S3"`, `"C0(i)S0(i)"`, …) back to
/// its [`SystemState`]. Covers all six legal Table-3 pairs.
fn state_from_label(label: &str) -> Option<SystemState> {
    let mut all = vec![SystemState::C0A_S0A];
    all.extend(SystemState::LOW_POWER_LADDER);
    all.into_iter().find(|s| s.label() == label)
}

impl TraceEvent {
    /// The event's type tag, as written in the JSONL `event` field.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::CState { .. } => "cstate",
            TraceEvent::ActiveIdle { .. } => "active_idle",
            TraceEvent::Wake { .. } => "wake",
            TraceEvent::EpochDecision { .. } => "epoch_decision",
            TraceEvent::FrequencyChange { .. } => "freq_change",
            TraceEvent::DispatchSpill { .. } => "dispatch_spill",
            TraceEvent::Park { .. } => "park",
            TraceEvent::Unpark { .. } => "unpark",
        }
    }

    /// The slot index the event concerns (`None` for dispatch events,
    /// which belong to the fleet rather than one server).
    pub fn server(&self) -> Option<u32> {
        match self {
            TraceEvent::CState { server, .. }
            | TraceEvent::ActiveIdle { server, .. }
            | TraceEvent::Wake { server, .. }
            | TraceEvent::EpochDecision { server, .. }
            | TraceEvent::FrequencyChange { server, .. }
            | TraceEvent::Park { server, .. }
            | TraceEvent::Unpark { server, .. } => Some(*server),
            TraceEvent::DispatchSpill { .. } => None,
        }
    }

    /// Appends the event to `out` as one flat JSON object, without a
    /// trailing newline. This is the only encoder: [`to_json_line`],
    /// [`events_to_jsonl`] and [`FileSink`] all write through it. It is
    /// a pure function of the event, so equal traces serialize to equal
    /// bytes. Keys, the event tag, booleans and state labels are
    /// pushed as static strings; only numbers go through std
    /// formatting (integers with `{}`, floats with `{:?}`, and `null`
    /// for a non-finite float), so it allocates only when `out` grows.
    ///
    /// [`to_json_line`]: TraceEvent::to_json_line
    pub fn push_json(&self, out: &mut String) {
        out.push_str("{\"event\":\"");
        out.push_str(self.tag());
        out.push('"');
        match self {
            TraceEvent::CState { server, start, seconds, state, watts } => {
                push_field_u64(out, "server", u64::from(*server));
                push_field_f64(out, "start", *start);
                push_field_f64(out, "seconds", *seconds);
                push_field_state(out, "state", *state);
                push_field_f64(out, "watts", *watts);
            }
            TraceEvent::ActiveIdle { server, start, seconds, watts } => {
                push_field_u64(out, "server", u64::from(*server));
                push_field_f64(out, "start", *start);
                push_field_f64(out, "seconds", *seconds);
                push_field_f64(out, "watts", *watts);
            }
            TraceEvent::Wake { server, at, from, latency, watts } => {
                push_field_u64(out, "server", u64::from(*server));
                push_field_f64(out, "at", *at);
                if let Some(state) = from {
                    push_field_state(out, "from", *state);
                }
                push_field_f64(out, "latency", *latency);
                push_field_f64(out, "watts", *watts);
            }
            TraceEvent::EpochDecision {
                server,
                epoch,
                predicted_rho,
                frequency,
                program,
                evaluated,
                cache_hit,
            } => {
                push_field_u64(out, "server", u64::from(*server));
                push_field_u64(out, "epoch", u64::from(*epoch));
                push_field_f64(out, "predicted_rho", *predicted_rho);
                push_field_f64(out, "frequency", *frequency);
                push_field_str(out, "program", program);
                push_field_u64(out, "evaluated", u64::from(*evaluated));
                push_field_bool(out, "cache_hit", *cache_hit);
            }
            TraceEvent::FrequencyChange { server, epoch, from, to } => {
                push_field_u64(out, "server", u64::from(*server));
                push_field_u64(out, "epoch", u64::from(*epoch));
                push_field_f64(out, "from", *from);
                push_field_f64(out, "to", *to);
            }
            TraceEvent::DispatchSpill { job, class, preferred_group, target_server, fallback } => {
                push_field_u64(out, "job", *job);
                push_field_u64(out, "class", u64::from(*class));
                push_field_u64(out, "preferred_group", u64::from(*preferred_group));
                push_field_u64(out, "target_server", u64::from(*target_server));
                push_field_bool(out, "fallback", *fallback);
            }
            TraceEvent::Park { server, at, cause } | TraceEvent::Unpark { server, at, cause } => {
                push_field_u64(out, "server", u64::from(*server));
                push_field_f64(out, "at", *at);
                push_field_str(out, "cause", cause.tag());
                match cause {
                    ScaleCause::LowUtilization { utilization }
                    | ScaleCause::HighUtilization { utilization } => {
                        push_field_f64(out, "utilization", *utilization);
                    }
                    ScaleCause::QosPressure => {}
                }
            }
        }
        out.push('}');
    }

    /// Serializes the event as one flat JSON object (no trailing
    /// newline): [`TraceEvent::push_json`] into a fresh `String`.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        self.push_json(&mut out);
        out
    }

    /// Parses one [`TraceEvent::to_json_line`] line back into an
    /// event. Returns `None` for malformed or unknown lines, for an
    /// integer out of its field's range, and for a `null` float (the
    /// encoder writes non-finite values that way, so such a line does
    /// not round-trip).
    pub fn from_json_line(line: &str) -> Option<TraceEvent> {
        let tag = json_str(line, "event")?;
        let server = || json_uint(line, "server");
        match tag.as_str() {
            "cstate" => Some(TraceEvent::CState {
                server: server()?,
                start: json_f64(line, "start")?,
                seconds: json_f64(line, "seconds")?,
                state: state_from_label(&json_str(line, "state")?)?,
                watts: json_f64(line, "watts")?,
            }),
            "active_idle" => Some(TraceEvent::ActiveIdle {
                server: server()?,
                start: json_f64(line, "start")?,
                seconds: json_f64(line, "seconds")?,
                watts: json_f64(line, "watts")?,
            }),
            "wake" => Some(TraceEvent::Wake {
                server: server()?,
                at: json_f64(line, "at")?,
                from: match json_str(line, "from") {
                    Some(label) => Some(state_from_label(&label)?),
                    None => None,
                },
                latency: json_f64(line, "latency")?,
                watts: json_f64(line, "watts")?,
            }),
            "epoch_decision" => Some(TraceEvent::EpochDecision {
                server: server()?,
                epoch: json_uint(line, "epoch")?,
                predicted_rho: json_f64(line, "predicted_rho")?,
                frequency: json_f64(line, "frequency")?,
                program: json_str(line, "program")?,
                evaluated: json_uint(line, "evaluated")?,
                cache_hit: json_bool(line, "cache_hit")?,
            }),
            "freq_change" => Some(TraceEvent::FrequencyChange {
                server: server()?,
                epoch: json_uint(line, "epoch")?,
                from: json_f64(line, "from")?,
                to: json_f64(line, "to")?,
            }),
            "dispatch_spill" => Some(TraceEvent::DispatchSpill {
                job: json_uint(line, "job")?,
                class: json_uint(line, "class")?,
                preferred_group: json_uint(line, "preferred_group")?,
                target_server: json_uint(line, "target_server")?,
                fallback: json_bool(line, "fallback")?,
            }),
            "park" | "unpark" => {
                let cause = match json_str(line, "cause")?.as_str() {
                    "low_utilization" => {
                        ScaleCause::LowUtilization { utilization: json_f64(line, "utilization")? }
                    }
                    "high_utilization" => {
                        ScaleCause::HighUtilization { utilization: json_f64(line, "utilization")? }
                    }
                    "qos_pressure" => ScaleCause::QosPressure,
                    _ => return None,
                };
                let (server, at) = (server()?, json_f64(line, "at")?);
                Some(if tag == "park" {
                    TraceEvent::Park { server, at, cause }
                } else {
                    TraceEvent::Unpark { server, at, cause }
                })
            }
            _ => None,
        }
    }
}

/// Locates the raw value substring for `key` in a flat JSON object
/// line, respecting string quoting.
fn json_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let mut search = 0;
    while let Some(rel) = line[search..].find(&pat) {
        let pos = search + rel;
        // A real key is preceded by `{` or `,`; anything else is a
        // match inside a string value.
        let prev = line[..pos].chars().next_back();
        if !matches!(prev, Some('{') | Some(',')) {
            search = pos + pat.len();
            continue;
        }
        let rest = &line[pos + pat.len()..];
        if let Some(stripped) = rest.strip_prefix('"') {
            // String value: scan to the closing unescaped quote.
            let mut escaped = false;
            for (i, c) in stripped.char_indices() {
                match c {
                    '\\' if !escaped => escaped = true,
                    '"' if !escaped => return Some(&stripped[..i]),
                    _ => escaped = false,
                }
            }
            return None;
        }
        let end = rest.find([',', '}'])?;
        return Some(&rest[..end]);
    }
    None
}

fn json_str(line: &str, key: &str) -> Option<String> {
    unescape_json(json_raw(line, key)?)
}

fn json_f64(line: &str, key: &str) -> Option<f64> {
    json_raw(line, key)?.parse().ok()
}

/// An unsigned integer field, `None` when it does not fit `T`.
fn json_uint<T: TryFrom<u64>>(line: &str, key: &str) -> Option<T> {
    T::try_from(json_raw(line, key)?.parse::<u64>().ok()?).ok()
}

fn json_bool(line: &str, key: &str) -> Option<bool> {
    json_raw(line, key)?.parse().ok()
}

/// Serializes events as JSONL (one [`TraceEvent::push_json`] line per
/// event, trailing newline included when non-empty), appended into one
/// `String`.
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        event.push_json(&mut out);
        out.push('\n');
    }
    out
}

/// Parses a JSONL trace back into events, skipping blank lines.
/// Returns `None` if any non-blank line fails to parse.
pub fn events_from_jsonl(text: &str) -> Option<Vec<TraceEvent>> {
    text.lines().filter(|l| !l.trim().is_empty()).map(TraceEvent::from_json_line).collect()
}

/// A per-server event accumulator. Engines keep one per slot, push
/// into it from whatever thread owns the slot, and merge buffers in
/// fleet slot order when the run closes — the trace's determinism
/// comes from this structural ordering, not from sink locking.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBuffer {
    server: u32,
    events: Vec<TraceEvent>,
}

impl TraceBuffer {
    /// An empty buffer for slot `server`.
    pub fn new(server: u32) -> TraceBuffer {
        TraceBuffer { server, events: Vec::new() }
    }

    /// The slot this buffer records for.
    pub fn server(&self) -> u32 {
        self.server
    }

    /// Appends one event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The events recorded so far, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the buffer, yielding its events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

/// A terminal consumer of an ordered event stream. Sinks receive the
/// already-merged deterministic stream; they are never called from
/// parallel code.
pub trait TraceSink {
    /// Consumes one event.
    fn record(&mut self, event: &TraceEvent);

    /// Flushes any buffered output.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error the sink encountered.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Collects events in memory and offers the reconciliation views the
/// property suite pins against engine accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemorySink {
    events: Vec<TraceEvent>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// The collected events, in arrival order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, yielding its events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Per-C-state residency seconds, accumulated find-or-push in
    /// first-entered order — the *same* fold the engine's `Residency`
    /// performs, so on a single-server trace the result equals
    /// `Residency::states()` bit for bit.
    pub fn state_residency(&self) -> Vec<(SystemState, f64)> {
        let mut states: Vec<(SystemState, f64)> = Vec::new();
        for event in &self.events {
            if let TraceEvent::CState { state, seconds, .. } = event {
                if let Some(entry) = states.iter_mut().find(|(s, _)| s == state) {
                    entry.1 += seconds;
                } else {
                    states.push((*state, *seconds));
                }
            }
        }
        states
    }

    /// Total pre-`τ₁` active-idle seconds (sequential sum, matching
    /// the engine's accumulation order on a single-server trace).
    pub fn active_idle_seconds(&self) -> f64 {
        // fold from +0.0, not `.sum()`: the std sum folds from -0.0,
        // which would break bit-parity with the engine's accumulator
        // on traces with no such segments.
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ActiveIdle { seconds, .. } => Some(*seconds),
                _ => None,
            })
            .fold(0.0, |acc, s| acc + s)
    }

    /// Total wake-latency seconds.
    pub fn waking_seconds(&self) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Wake { latency, .. } => Some(*latency),
                _ => None,
            })
            .fold(0.0, |acc, s| acc + s)
    }

    /// Idle-side energy implied by the trace, joules: every C-state,
    /// active-idle, and wake segment at its recorded power. Matches
    /// the engine ledger's `idle_energy()` (total minus class-tagged
    /// active energy) to floating-point round-off.
    pub fn idle_energy_joules(&self) -> f64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::CState { seconds, watts, .. }
                | TraceEvent::ActiveIdle { seconds, watts, .. } => seconds * watts,
                TraceEvent::Wake { latency, watts, .. } => latency * watts,
                _ => 0.0,
            })
            .fold(0.0, |acc, j| acc + j)
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// On-disk trace format for [`FileSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line; round-trips via
    /// [`events_from_jsonl`].
    Jsonl,
}

/// A buffered file sink writing one [`TraceEvent::push_json`] line per
/// event. Each event is encoded into one reused line buffer, which is
/// written to the `BufWriter` whole, so recording allocates nothing
/// once the buffer has grown to the longest line. The file holds
/// exactly the bytes of [`events_to_jsonl`] over the recorded events.
#[derive(Debug)]
pub struct FileSink {
    out: BufWriter<File>,
    line: String,
    error: Option<io::Error>,
}

impl FileSink {
    /// Creates (truncating) `path` for a trace in `format`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>, format: TraceFormat) -> io::Result<FileSink> {
        // Irrefutable while JSONL is the only format: a new variant
        // fails to compile here, where it must be handled.
        let TraceFormat::Jsonl = format;
        Ok(FileSink { out: BufWriter::new(File::create(path)?), line: String::new(), error: None })
    }
}

impl TraceSink for FileSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_none() {
            self.line.clear();
            event.push_json(&mut self.line);
            self.line.push('\n');
            if let Err(e) = self.out.write_all(self.line.as_bytes()) {
                self.error = Some(e);
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

/// Canonical counter names [`MetricsRegistry::from_trace`] registers,
/// so consumers match on constants rather than retyping strings.
pub mod metrics {
    /// Jobs completed across the fleet.
    pub const JOBS_TOTAL: &str = "jobs_total";
    /// Class-affinity jobs placed off their preferred group.
    pub const DISPATCH_SPILLS: &str = "dispatch_spills";
    /// Spills that found no idle server and fell back to minimum
    /// backlog.
    pub const DISPATCH_FALLBACKS: &str = "dispatch_fallbacks";
    /// Epoch decisions answered by the characterization cache.
    pub const CACHE_HITS: &str = "cache_hits";
    /// Epoch decisions that ran a candidate sweep.
    pub const CACHE_MISSES: &str = "cache_misses";
    /// Wake transitions out of a sleep-ladder state.
    pub const WAKE_TRANSITIONS: &str = "wake_transitions";
    /// Arrivals that caught the server in pre-`τ₁` active idle.
    pub const WAKES_WITHOUT_SLEEP: &str = "wakes_without_sleep";
    /// Servers the autoscaler parked.
    pub const AUTOSCALER_PARKS: &str = "autoscaler_parks";
    /// Parked servers the autoscaler returned to service.
    pub const AUTOSCALER_WAKES: &str = "autoscaler_wakes";

    /// The per-class job counter name for `class`.
    pub fn jobs_class(class: u16) -> String {
        format!("jobs_class{class}")
    }
}

/// The counters [`MetricsRegistry::from_trace`] folds from trace
/// events, in registry order; [`event_counter`] indexes into it.
const EVENT_COUNTERS: [&str; 8] = [
    metrics::DISPATCH_SPILLS,
    metrics::DISPATCH_FALLBACKS,
    metrics::CACHE_HITS,
    metrics::CACHE_MISSES,
    metrics::WAKE_TRANSITIONS,
    metrics::WAKES_WITHOUT_SLEEP,
    metrics::AUTOSCALER_PARKS,
    metrics::AUTOSCALER_WAKES,
];

/// Which of [`EVENT_COUNTERS`] `event` counts toward, if any.
fn event_counter(event: &TraceEvent) -> Option<usize> {
    Some(match event {
        TraceEvent::DispatchSpill { fallback: false, .. } => 0,
        TraceEvent::DispatchSpill { fallback: true, .. } => 1,
        TraceEvent::EpochDecision { cache_hit: true, .. } => 2,
        // A decision with no evaluations and no hit is a fixed policy:
        // neither hit nor miss.
        TraceEvent::EpochDecision { evaluated: 1.., .. } => 3,
        TraceEvent::Wake { from: Some(_), .. } => 4,
        TraceEvent::Wake { from: None, .. } => 5,
        TraceEvent::Park { .. } => 6,
        TraceEvent::Unpark { .. } => 7,
        _ => return None,
    })
}

/// Named monotonic counters in registration order, folded from a
/// merged trace by [`MetricsRegistry::from_trace`]: a counter cannot
/// disagree with the events it counts, and inherits the trace's
/// worker- and shard-count invariance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
}

impl MetricsRegistry {
    /// Folds a run's merged trace into the registry, beside the job
    /// counts its report already carries (`jobs` in total, `class_jobs`
    /// per traffic class, empty for untagged runs). Every backend
    /// registers the same counters in the same order: `jobs_total`, the
    /// per-class job counts, then one counter per event kind —
    /// dispatch spills and fallbacks, cache hits and misses, wakes from
    /// a sleep state and from active idle, autoscaler parks and wakes —
    /// at zero when the run never emitted that kind.
    pub fn from_trace(
        jobs: u64,
        class_jobs: impl IntoIterator<Item = u64>,
        events: &[TraceEvent],
    ) -> MetricsRegistry {
        let mut tally = [0u64; EVENT_COUNTERS.len()];
        for i in events.iter().filter_map(event_counter) {
            tally[i] += 1;
        }
        let class_counters =
            class_jobs.into_iter().enumerate().map(|(c, n)| (metrics::jobs_class(c as u16), n));
        let event_counters = EVENT_COUNTERS.into_iter().map(str::to_string).zip(tally);
        let counters = std::iter::once((metrics::JOBS_TOTAL.to_string(), jobs))
            .chain(class_counters)
            .chain(event_counters)
            .collect();
        MetricsRegistry { counters }
    }

    /// The counter's value (0 if never registered).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// All counters in registration order.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// True when no counter was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// The telemetry switch a `Scenario` carries. `Some` collects the
/// merged [`TraceEvent`] stream and the [`MetricsRegistry`] folded
/// from it; `None` (the default) keeps the engines on the untouched
/// zero-overhead paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetrySpec;

impl TelemetrySpec {
    /// Telemetry on: the trace and its metrics.
    pub fn full() -> TelemetrySpec {
        TelemetrySpec
    }
}

/// What a telemetry-enabled run collected: the merged deterministic
/// event stream plus the counter registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// The merged event stream: per-server events in fleet slot
    /// order, then fleet-level events in simulation order.
    pub events: Vec<TraceEvent>,
    /// Monotonic counters, worker- and shard-count invariant.
    pub metrics: MetricsRegistry,
}

impl TelemetryReport {
    /// Serializes the event stream as JSONL.
    pub fn to_jsonl(&self) -> String {
        events_to_jsonl(&self.events)
    }

    /// The autoscaler park/unpark events, in simulation order.
    pub fn scale_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Park { .. } | TraceEvent::Unpark { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `write!`-based encoder [`TraceEvent::push_json`] replaced,
    /// kept verbatim as the reference the wire-format tests compare
    /// against byte for byte.
    mod reference {
        use super::super::{escape_json, fmt_f64, ScaleCause, TraceEvent};
        use std::fmt::Write as _;

        fn push_field_f64(out: &mut String, key: &str, v: f64) {
            let _ = write!(out, ",\"{key}\":");
            fmt_f64(v, out);
        }

        fn push_field_u64(out: &mut String, key: &str, v: u64) {
            let _ = write!(out, ",\"{key}\":{v}");
        }

        fn push_field_str(out: &mut String, key: &str, v: &str) {
            let _ = write!(out, ",\"{key}\":\"");
            escape_json(v, out);
            out.push('"');
        }

        fn push_field_bool(out: &mut String, key: &str, v: bool) {
            let _ = write!(out, ",\"{key}\":{v}");
        }

        pub(super) trait Reference {
            /// The reference line for the event (no trailing newline).
            fn reference_json_line(&self) -> String;
        }

        impl Reference for TraceEvent {
            fn reference_json_line(&self) -> String {
                let mut out = String::with_capacity(96);
                let _ = write!(out, "{{\"event\":\"{}\"", self.tag());
                match self {
                    TraceEvent::CState { server, start, seconds, state, watts } => {
                        push_field_u64(&mut out, "server", u64::from(*server));
                        push_field_f64(&mut out, "start", *start);
                        push_field_f64(&mut out, "seconds", *seconds);
                        push_field_str(&mut out, "state", &state.label());
                        push_field_f64(&mut out, "watts", *watts);
                    }
                    TraceEvent::ActiveIdle { server, start, seconds, watts } => {
                        push_field_u64(&mut out, "server", u64::from(*server));
                        push_field_f64(&mut out, "start", *start);
                        push_field_f64(&mut out, "seconds", *seconds);
                        push_field_f64(&mut out, "watts", *watts);
                    }
                    TraceEvent::Wake { server, at, from, latency, watts } => {
                        push_field_u64(&mut out, "server", u64::from(*server));
                        push_field_f64(&mut out, "at", *at);
                        if let Some(state) = from {
                            push_field_str(&mut out, "from", &state.label());
                        }
                        push_field_f64(&mut out, "latency", *latency);
                        push_field_f64(&mut out, "watts", *watts);
                    }
                    TraceEvent::EpochDecision {
                        server,
                        epoch,
                        predicted_rho,
                        frequency,
                        program,
                        evaluated,
                        cache_hit,
                    } => {
                        push_field_u64(&mut out, "server", u64::from(*server));
                        push_field_u64(&mut out, "epoch", u64::from(*epoch));
                        push_field_f64(&mut out, "predicted_rho", *predicted_rho);
                        push_field_f64(&mut out, "frequency", *frequency);
                        push_field_str(&mut out, "program", program);
                        push_field_u64(&mut out, "evaluated", u64::from(*evaluated));
                        push_field_bool(&mut out, "cache_hit", *cache_hit);
                    }
                    TraceEvent::FrequencyChange { server, epoch, from, to } => {
                        push_field_u64(&mut out, "server", u64::from(*server));
                        push_field_u64(&mut out, "epoch", u64::from(*epoch));
                        push_field_f64(&mut out, "from", *from);
                        push_field_f64(&mut out, "to", *to);
                    }
                    TraceEvent::DispatchSpill {
                        job,
                        class,
                        preferred_group,
                        target_server,
                        fallback,
                    } => {
                        push_field_u64(&mut out, "job", *job);
                        push_field_u64(&mut out, "class", u64::from(*class));
                        push_field_u64(&mut out, "preferred_group", u64::from(*preferred_group));
                        push_field_u64(&mut out, "target_server", u64::from(*target_server));
                        push_field_bool(&mut out, "fallback", *fallback);
                    }
                    TraceEvent::Park { server, at, cause }
                    | TraceEvent::Unpark { server, at, cause } => {
                        push_field_u64(&mut out, "server", u64::from(*server));
                        push_field_f64(&mut out, "at", *at);
                        push_field_str(&mut out, "cause", cause.tag());
                        match cause {
                            ScaleCause::LowUtilization { utilization }
                            | ScaleCause::HighUtilization { utilization } => {
                                push_field_f64(&mut out, "utilization", *utilization);
                            }
                            ScaleCause::QosPressure => {}
                        }
                    }
                }
                out.push('}');
                out
            }
        }
    }

    use reference::Reference as _;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::ActiveIdle { server: 0, start: 0.0, seconds: 0.5, watts: 250.0 },
            TraceEvent::CState {
                server: 0,
                start: 0.5,
                seconds: 9.5,
                state: SystemState::C6_S3,
                watts: 28.1,
            },
            TraceEvent::Wake {
                server: 0,
                at: 10.0,
                from: Some(SystemState::C6_S3),
                latency: 1.0,
                watts: 250.0,
            },
            TraceEvent::Wake { server: 1, at: 12.0, from: None, latency: 0.0, watts: 250.0 },
            TraceEvent::EpochDecision {
                server: 1,
                epoch: 3,
                predicted_rho: 0.25,
                frequency: 0.6,
                program: "C6S3@0s, \"deep\"".into(),
                evaluated: 55,
                cache_hit: false,
            },
            TraceEvent::FrequencyChange { server: 1, epoch: 3, from: 1.0, to: 0.6 },
            TraceEvent::DispatchSpill {
                job: 42,
                class: 1,
                preferred_group: 0,
                target_server: 9,
                fallback: true,
            },
            TraceEvent::Park {
                server: 7,
                at: 3600.0,
                cause: ScaleCause::LowUtilization { utilization: 0.12 },
            },
            TraceEvent::Unpark { server: 7, at: 7200.0, cause: ScaleCause::QosPressure },
        ]
    }

    /// Every variant survives the JSONL round trip exactly.
    #[test]
    fn jsonl_round_trips() {
        let events = sample_events();
        let text = events_to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let back = events_from_jsonl(&text).expect("trace parses");
        assert_eq!(back, events);
    }

    /// The writer is deterministic: equal events, equal bytes.
    #[test]
    fn writer_is_deterministic() {
        let a = events_to_jsonl(&sample_events());
        let b = events_to_jsonl(&sample_events());
        assert_eq!(a, b);
    }

    /// String values containing quotes, backslashes, and the `"key":`
    /// pattern itself do not confuse the flat parser.
    #[test]
    fn parser_respects_string_quoting() {
        let tricky = TraceEvent::EpochDecision {
            server: 0,
            epoch: 0,
            predicted_rho: 0.5,
            frequency: 1.0,
            program: "evil \"frequency\": \\ ,}".into(),
            evaluated: 1,
            cache_hit: true,
        };
        let line = tricky.to_json_line();
        assert_eq!(TraceEvent::from_json_line(&line), Some(tricky));
    }

    /// One pinned line per variant, both `Wake` forms and every
    /// `ScaleCause`, with edge values whose `{:?}` forms are fixed: a
    /// round trip alone cannot catch a format change such as `0.5` →
    /// `5e-1`. Lines with a non-finite field (written `null`) are
    /// rejected on read; every other line parses back to its event.
    #[test]
    fn wire_format_is_pinned() {
        let decision = |program: &str, cache_hit| TraceEvent::EpochDecision {
            server: 3,
            epoch: 4,
            predicted_rho: 0.25,
            frequency: 0.6,
            program: program.into(),
            evaluated: 55,
            cache_hit,
        };
        let golden = [
            (
                TraceEvent::CState {
                    server: u32::MAX,
                    start: 0.0,
                    seconds: 1e-5,
                    state: SystemState::C0I_S0I,
                    watts: 5e-324,
                },
                r#"{"event":"cstate","server":4294967295,"start":0.0,"seconds":1e-5,"state":"C0(i)S0(i)","watts":5e-324}"#,
            ),
            (
                TraceEvent::ActiveIdle {
                    server: 0,
                    start: -0.0,
                    seconds: 1e16,
                    watts: 1_000_000_000_000_000.0,
                },
                r#"{"event":"active_idle","server":0,"start":-0.0,"seconds":1e16,"watts":1000000000000000.0}"#,
            ),
            (
                TraceEvent::Wake {
                    server: 1,
                    at: 0.1 + 0.2,
                    from: Some(SystemState::C6_S3),
                    latency: 1.2345678901234568e17,
                    watts: f64::NAN,
                },
                r#"{"event":"wake","server":1,"at":0.30000000000000004,"from":"C6S3","latency":1.2345678901234568e17,"watts":null}"#,
            ),
            (
                TraceEvent::Wake {
                    server: 2,
                    at: f64::INFINITY,
                    from: None,
                    latency: 0.0,
                    watts: f64::NEG_INFINITY,
                },
                r#"{"event":"wake","server":2,"at":null,"latency":0.0,"watts":null}"#,
            ),
            (
                decision("C0(i)S0(i)→C6S3", false),
                r#"{"event":"epoch_decision","server":3,"epoch":4,"predicted_rho":0.25,"frequency":0.6,"program":"C0(i)S0(i)→C6S3","evaluated":55,"cache_hit":false}"#,
            ),
            (
                decision("a\"b\\c\nd\u{1}e", true),
                r#"{"event":"epoch_decision","server":3,"epoch":4,"predicted_rho":0.25,"frequency":0.6,"program":"a\"b\\c\nd\u0001e","evaluated":55,"cache_hit":true}"#,
            ),
            (
                TraceEvent::FrequencyChange { server: 5, epoch: u32::MAX, from: 1.0, to: 0.5 },
                r#"{"event":"freq_change","server":5,"epoch":4294967295,"from":1.0,"to":0.5}"#,
            ),
            (
                TraceEvent::DispatchSpill {
                    job: u64::MAX,
                    class: u16::MAX,
                    preferred_group: 0,
                    target_server: u32::MAX,
                    fallback: true,
                },
                r#"{"event":"dispatch_spill","job":18446744073709551615,"class":65535,"preferred_group":0,"target_server":4294967295,"fallback":true}"#,
            ),
            (
                TraceEvent::Park {
                    server: 7,
                    at: 3600.0,
                    cause: ScaleCause::LowUtilization { utilization: 0.12 },
                },
                r#"{"event":"park","server":7,"at":3600.0,"cause":"low_utilization","utilization":0.12}"#,
            ),
            (
                TraceEvent::Unpark {
                    server: 7,
                    at: 7200.0,
                    cause: ScaleCause::HighUtilization { utilization: 0.9 },
                },
                r#"{"event":"unpark","server":7,"at":7200.0,"cause":"high_utilization","utilization":0.9}"#,
            ),
            (
                TraceEvent::Unpark { server: 8, at: 1e-4, cause: ScaleCause::QosPressure },
                r#"{"event":"unpark","server":8,"at":0.0001,"cause":"qos_pressure"}"#,
            ),
        ];
        let mut text = String::new();
        for (event, line) in &golden {
            assert_eq!(event.to_json_line(), *line);
            assert_eq!(event.reference_json_line(), *line);
            let back = TraceEvent::from_json_line(line);
            if line.contains("null") {
                assert_eq!(back, None, "{line}");
            } else {
                assert_eq!(back.as_ref(), Some(event), "{line}");
            }
            text.push_str(line);
            text.push('\n');
        }
        let events: Vec<TraceEvent> = golden.into_iter().map(|(event, _)| event).collect();
        assert_eq!(events_to_jsonl(&events), text);
    }

    /// Integers that do not fit their field and `\u` escapes without
    /// exactly four hex digits are rejected, where `as` used to
    /// truncate them into a different event; in-range neighbours parse.
    #[test]
    fn decoder_rejects_out_of_range_and_malformed_values() {
        let rejected = [
            r#"{"event":"cstate","server":4294967297,"start":0.0,"seconds":1.0,"state":"C6S3","watts":1.0}"#,
            r#"{"event":"freq_change","server":0,"epoch":4294967296,"from":1.0,"to":0.5}"#,
            r#"{"event":"epoch_decision","server":0,"epoch":0,"predicted_rho":0.5,"frequency":1.0,"program":"C6S3","evaluated":4294967296,"cache_hit":false}"#,
            r#"{"event":"dispatch_spill","job":1,"class":65537,"preferred_group":0,"target_server":1,"fallback":false}"#,
            r#"{"event":"dispatch_spill","job":1,"class":1,"preferred_group":4294967296,"target_server":1,"fallback":false}"#,
            r#"{"event":"dispatch_spill","job":1,"class":1,"preferred_group":0,"target_server":4294967296,"fallback":false}"#,
            r#"{"event":"epoch_decision","server":0,"epoch":0,"predicted_rho":0.5,"frequency":1.0,"program":"a\u41","evaluated":1,"cache_hit":false}"#,
            r#"{"event":"epoch_decision","server":0,"epoch":0,"predicted_rho":0.5,"frequency":1.0,"program":"a\u+041b","evaluated":1,"cache_hit":false}"#,
        ];
        for line in rejected {
            assert_eq!(TraceEvent::from_json_line(line), None, "{line}");
        }
        let spill = r#"{"event":"dispatch_spill","job":1,"class":65535,"preferred_group":4294967295,"target_server":4294967295,"fallback":false}"#;
        assert_eq!(
            TraceEvent::from_json_line(spill),
            Some(TraceEvent::DispatchSpill {
                job: 1,
                class: u16::MAX,
                preferred_group: u32::MAX,
                target_server: u32::MAX,
                fallback: false,
            })
        );
        let escaped = r#"{"event":"epoch_decision","server":0,"epoch":0,"predicted_rho":0.5,"frequency":1.0,"program":"a\u0041b","evaluated":1,"cache_hit":false}"#;
        assert!(matches!(
            TraceEvent::from_json_line(escaped),
            Some(TraceEvent::EpochDecision { program, .. }) if program == "aAb"
        ));
    }

    /// SplitMix64: a deterministic stream for the differential sweep.
    struct SplitMix {
        state: u64,
        /// Floats drawn so far that were NaN, +inf, -inf, subnormal
        /// and -0.0.
        specials: [u32; 5],
    }

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A float from random bits, with the exponent forced to all
        /// zeros or all ones a quarter of the time each and the
        /// mantissa cleared one time in eight, so zeros of both signs,
        /// subnormals, infinities and NaNs all occur.
        fn float(&mut self) -> f64 {
            const EXPONENT: u64 = 0x7ff0_0000_0000_0000;
            const MANTISSA: u64 = 0x000f_ffff_ffff_ffff;
            let (bits, pick) = (self.next(), self.next());
            let bits = match pick % 4 {
                0 => bits & !EXPONENT,
                1 => bits | EXPONENT,
                _ => bits,
            };
            let v = f64::from_bits(if pick / 4 % 8 == 0 { bits & !MANTISSA } else { bits });
            let special = [
                v.is_nan(),
                v == f64::INFINITY,
                v == f64::NEG_INFINITY,
                v.is_subnormal(),
                v == 0.0 && v.is_sign_negative(),
            ];
            for (count, hit) in self.specials.iter_mut().zip(special) {
                *count += u32::from(hit);
            }
            v
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[(self.next() % items.len() as u64) as usize]
        }
    }

    /// Every state a trace can name.
    const STATES: [SystemState; 6] = [
        SystemState::C0A_S0A,
        SystemState::C0I_S0I,
        SystemState::C1_S0I,
        SystemState::C3_S0I,
        SystemState::C6_S0I,
        SystemState::C6_S3,
    ];

    fn random_event(rng: &mut SplitMix) -> TraceEvent {
        // No `l`, so a program can never spell `null`.
        const CHARS: [char; 14] = [
            'a', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '→', '😀', ',', ':',
        ];
        let server = rng.next() as u32;
        let cause = match rng.next() % 3 {
            0 => ScaleCause::LowUtilization { utilization: rng.float() },
            1 => ScaleCause::HighUtilization { utilization: rng.float() },
            _ => ScaleCause::QosPressure,
        };
        match rng.next() % 8 {
            0 => TraceEvent::CState {
                server,
                start: rng.float(),
                seconds: rng.float(),
                state: rng.pick(&STATES),
                watts: rng.float(),
            },
            1 => TraceEvent::ActiveIdle {
                server,
                start: rng.float(),
                seconds: rng.float(),
                watts: rng.float(),
            },
            2 => TraceEvent::Wake {
                server,
                at: rng.float(),
                from: if rng.next().is_multiple_of(7) { None } else { Some(rng.pick(&STATES)) },
                latency: rng.float(),
                watts: rng.float(),
            },
            3 => TraceEvent::EpochDecision {
                server,
                epoch: rng.next() as u32,
                predicted_rho: rng.float(),
                frequency: rng.float(),
                program: (0..rng.next() % 9).map(|_| rng.pick(&CHARS)).collect(),
                evaluated: rng.next() as u32,
                cache_hit: rng.next().is_multiple_of(2),
            },
            4 => TraceEvent::FrequencyChange {
                server,
                epoch: rng.next() as u32,
                from: rng.float(),
                to: rng.float(),
            },
            5 => TraceEvent::DispatchSpill {
                job: rng.next(),
                class: rng.next() as u16,
                preferred_group: rng.next() as u32,
                target_server: server,
                fallback: rng.next().is_multiple_of(2),
            },
            6 => TraceEvent::Park { server, at: rng.float(), cause },
            _ => TraceEvent::Unpark { server, at: rng.float(), cause },
        }
    }

    /// `to_json_line`, `events_to_jsonl` and a `FileSink` file all
    /// write the reference encoder's bytes over 100k pseudo-random
    /// events, and every line without a `null` parses back to its
    /// event.
    #[test]
    fn encoders_match_the_reference_on_random_events() {
        let mut rng = SplitMix { state: 0x5eed, specials: [0; 5] };
        let events: Vec<TraceEvent> = (0..100_000).map(|_| random_event(&mut rng)).collect();
        let mut expected = String::new();
        for event in &events {
            let line = event.reference_json_line();
            assert_eq!(event.to_json_line(), line);
            match TraceEvent::from_json_line(&line) {
                Some(back) => assert_eq!(&back, event),
                None => assert!(line.contains("null"), "{line}"),
            }
            expected.push_str(&line);
            expected.push('\n');
        }
        assert!(rng.specials.iter().all(|&n| n > 0), "float classes drawn: {:?}", rng.specials);
        for needle in ["\"state\":\"C0(a)S0(a)\"", "\"cause\":\"qos_pressure\"", "\\u0000"] {
            assert!(expected.contains(needle), "no {needle} in the sweep");
        }
        assert_eq!(events_to_jsonl(&events), expected);

        let path = std::env::temp_dir()
            .join(format!("sleepscale_telemetry_differential_{}.jsonl", std::process::id()));
        let mut sink = FileSink::create(&path, TraceFormat::Jsonl).unwrap();
        for event in &events {
            sink.record(event);
        }
        sink.flush().unwrap();
        drop(sink);
        let written = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(written == expected.as_bytes(), "FileSink bytes differ from the reference");
    }

    /// MemorySink residency folds in first-entered order like the
    /// engine's `Residency`.
    #[test]
    fn memory_sink_residency_order() {
        let mut sink = MemorySink::new();
        for (state, seconds) in
            [(SystemState::C1_S0I, 2.0), (SystemState::C6_S3, 5.0), (SystemState::C1_S0I, 3.0)]
        {
            sink.record(&TraceEvent::CState { server: 0, start: 0.0, seconds, state, watts: 1.0 });
        }
        assert_eq!(
            sink.state_residency(),
            vec![(SystemState::C1_S0I, 5.0), (SystemState::C6_S3, 5.0)]
        );
        assert!((sink.idle_energy_joules() - 10.0).abs() < 1e-12);
    }

    /// The fold registers the whole counter schema in order and counts
    /// each event kind into its own counter; residency segments,
    /// frequency changes and fixed-policy decisions count toward none.
    #[test]
    fn registry_folds_every_event_kind() {
        let decision = |evaluated, cache_hit| TraceEvent::EpochDecision {
            server: 0,
            epoch: 4,
            predicted_rho: 0.2,
            frequency: 0.6,
            program: "C6S3".into(),
            evaluated,
            cache_hit,
        };
        let mut events = sample_events();
        events.extend([
            TraceEvent::DispatchSpill {
                job: 43,
                class: 1,
                preferred_group: 0,
                target_server: 3,
                fallback: false,
            },
            decision(0, true),
            decision(0, false),
        ]);
        let registry = MetricsRegistry::from_trace(9, [5, 4], &events);
        let expected: Vec<(String, u64)> = [
            (metrics::JOBS_TOTAL, 9),
            ("jobs_class0", 5),
            ("jobs_class1", 4),
            (metrics::DISPATCH_SPILLS, 1),
            (metrics::DISPATCH_FALLBACKS, 1),
            (metrics::CACHE_HITS, 1),
            (metrics::CACHE_MISSES, 1),
            (metrics::WAKE_TRANSITIONS, 1),
            (metrics::WAKES_WITHOUT_SLEEP, 1),
            (metrics::AUTOSCALER_PARKS, 1),
            (metrics::AUTOSCALER_WAKES, 1),
        ]
        .into_iter()
        .map(|(name, count)| (name.to_string(), count))
        .collect();
        assert_eq!(registry.counters(), expected);
        assert_eq!(registry.get("never"), 0);

        // An empty trace still registers every counter, at zero.
        let empty = MetricsRegistry::from_trace(0, [], &[]);
        let names: Vec<&str> = empty.counters().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names[0], metrics::JOBS_TOTAL);
        assert_eq!(names[1..], EVENT_COUNTERS);
        assert!(empty.counters().iter().all(|&(_, count)| count == 0));
    }

    /// File sink round trip through a temp file.
    #[test]
    fn file_sink_round_trips() {
        let dir = std::env::temp_dir();
        let path = dir.join("sleepscale_telemetry_test_trace.jsonl");
        let events = sample_events();
        let mut sink = FileSink::create(&path, TraceFormat::Jsonl).unwrap();
        for e in &events {
            sink.record(e);
        }
        sink.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(events_from_jsonl(&text).unwrap(), events);
        let _ = std::fs::remove_file(&path);
    }
}
