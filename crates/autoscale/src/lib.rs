//! Closed-loop fleet autoscaling — the control plane over SleepScale's
//! Section 7 scale-out. Per-server SleepScale managers pick the best
//! (frequency, sleep program) for the load each server *sees*; nothing
//! in the paper's loop ever decides that a server should see no load at
//! all. This crate adds that layer: an epoch-granularity controller
//! that watches fleet utilization and per-class p95 headroom, parks
//! trailing servers of a group in a deep C-state off-peak (drained and
//! excluded from dispatch), and wakes them — paying a modeled wake-up
//! latency — when headroom shrinks.
//!
//! The controller is deliberately a *pure function of epoch-boundary
//! state*: its inputs are the per-group busy/backlog seconds of the
//! epoch that just closed plus a QoS-pressure flag, and its state is
//! three scalars' worth of bookkeeping. That is what preserves the
//! engine's byte-determinism across worker and shard counts, and what
//! makes the controller checkpointable in a handful of bytes (the
//! [`sleepscale_journal::Snapshot`] impl round-trips it exactly).
//!
//! Two invariants the cluster engine relies on:
//!
//! * **Active prefix** — within each group, the active servers are
//!   always the first `active[g]` slots of the group's range; parking
//!   takes from the tail, waking refills from the lowest parked index.
//! * **Floor** — every group keeps at least
//!   [`AutoscalerSpec::min_active_per_group`] servers active, so
//!   dispatch always has a target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use sleepscale_journal::{ByteReader, ByteWriter, CodecError, Snapshot};
use sleepscale_power::{presets, SleepProgram, SleepStage, SystemState};

/// Declarative autoscaler configuration — the knobs of the control law
/// (see [`AutoscaleController::plan_epoch`] for the law itself).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscalerSpec {
    /// Desired utilization of each *active* server — the controller
    /// sizes the active set so realized utilization lands here.
    pub target_utilization: f64,
    /// Hysteresis low-water mark: parking is only considered while the
    /// active-set utilization is strictly below this.
    pub park_below: f64,
    /// Hysteresis high-water mark: waking is triggered when the
    /// active-set utilization exceeds this. The band
    /// `[park_below, wake_above]` is where the controller holds still.
    pub wake_above: f64,
    /// Every group keeps at least this many servers active (≥ 1).
    pub min_active_per_group: usize,
    /// At most this many servers park per group per epoch — parking is
    /// gradual so a transient lull cannot empty a group; waking jumps
    /// straight to the computed need (scale-up is urgent).
    pub park_step: usize,
    /// The deep state parked servers sit in (their whole parked
    /// interval is charged at this state's power draw).
    pub park_state: SystemState,
    /// The wake-up latency a woken server pays (charged at active
    /// power) before it can serve again.
    pub wake_latency_seconds: f64,
    /// Per-class p95 guard in absolute seconds: while any class's
    /// running p95 exceeds its guard, the controller wakes the whole
    /// fleet and inhibits parking. Entries ≤ 0 (and classes beyond the
    /// table) are unguarded; an empty table disables the guard.
    pub class_p95_guards_seconds: Vec<f64>,
}

impl AutoscalerSpec {
    /// A conservative default: 60 % utilization target inside a
    /// 40–75 % hysteresis band, parking at most two servers per group
    /// per epoch into `C6S3` (1 s wake), no per-class guards.
    pub fn new() -> AutoscalerSpec {
        AutoscalerSpec {
            target_utilization: 0.6,
            park_below: 0.4,
            wake_above: 0.75,
            min_active_per_group: 1,
            park_step: 2,
            park_state: SystemState::C6_S3,
            wake_latency_seconds: presets::WAKE_C6_S3,
            class_p95_guards_seconds: Vec::new(),
        }
    }

    /// Sets the per-class p95 guards (absolute seconds).
    pub fn with_class_guards(mut self, guards: Vec<f64>) -> AutoscalerSpec {
        self.class_p95_guards_seconds = guards;
        self
    }

    /// Checks the control law's preconditions: thresholds in `(0, 1)`
    /// ordered `park_below < target_utilization ≤ wake_above` (the
    /// ordering is what makes the hysteresis band non-flapping), a
    /// positive floor and park step, and finite non-negative latency
    /// and guards.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("target_utilization", self.target_utilization),
            ("park_below", self.park_below),
            ("wake_above", self.wake_above),
        ] {
            if !(v > 0.0 && v < 1.0) {
                return Err(format!("autoscaler {name} must be in (0, 1), got {v}"));
            }
        }
        if self.park_below >= self.target_utilization {
            return Err(format!(
                "autoscaler park_below ({}) must be below target_utilization ({})",
                self.park_below, self.target_utilization
            ));
        }
        if self.wake_above < self.target_utilization {
            return Err(format!(
                "autoscaler wake_above ({}) must be at or above target_utilization ({})",
                self.wake_above, self.target_utilization
            ));
        }
        if self.min_active_per_group == 0 {
            return Err("autoscaler min_active_per_group must be >= 1".into());
        }
        if self.park_step == 0 {
            return Err("autoscaler park_step must be >= 1".into());
        }
        if !self.wake_latency_seconds.is_finite() || self.wake_latency_seconds < 0.0 {
            return Err(format!(
                "autoscaler wake_latency_seconds must be finite and >= 0, got {}",
                self.wake_latency_seconds
            ));
        }
        if self.class_p95_guards_seconds.iter().any(|g| !g.is_finite()) {
            return Err("autoscaler class p95 guards must be finite".into());
        }
        Ok(())
    }

    /// The sleep program parked servers idle on, in a fleet whose epochs
    /// last `epoch_seconds`: one immediate stage in
    /// [`AutoscalerSpec::park_state`] that wakes in
    /// [`AutoscalerSpec::wake_latency_seconds`]. This is the spec's whole
    /// shape check, shared by the cluster engine and the scenario
    /// runner: it runs [`AutoscalerSpec::validate`], requires the wake
    /// latency to be shorter than an epoch (a server woken at a boundary
    /// must be able to serve in that epoch), and requires the park state
    /// to be a sleep state.
    ///
    /// # Errors
    ///
    /// Returns the reason the spec cannot run.
    pub fn parked_program(&self, epoch_seconds: f64) -> Result<SleepProgram, String> {
        self.validate()?;
        if self.wake_latency_seconds >= epoch_seconds {
            return Err(format!(
                "autoscaler wake latency {}s must be shorter than the {}s epoch",
                self.wake_latency_seconds, epoch_seconds
            ));
        }
        let stage = SleepStage::new(self.park_state, 0.0, self.wake_latency_seconds)
            .map_err(|e| format!("autoscaler park state: {e}"))?;
        Ok(SleepProgram::immediate(stage))
    }

    /// Whether the running per-class p95s (seconds, indexed by class)
    /// breach any configured guard — the QoS-pressure input to
    /// [`AutoscaleController::plan_epoch`]. Classes without samples
    /// report `NaN` p95s upstream; those never trip the guard.
    pub fn qos_pressure(&self, class_p95_seconds: &[f64]) -> bool {
        self.class_p95_guards_seconds
            .iter()
            .zip(class_p95_seconds)
            .any(|(&guard, &p95)| guard > 0.0 && p95 > guard)
    }
}

impl Default for AutoscalerSpec {
    fn default() -> AutoscalerSpec {
        AutoscalerSpec::new()
    }
}

/// One group's load over the epoch that just closed, summed over its
/// *active* servers: seconds of work served plus seconds of committed
/// backlog overhanging the epoch boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupLoad {
    /// Seconds of service performed inside the epoch.
    pub busy_seconds: f64,
    /// Seconds of committed work overhanging the epoch boundary.
    pub backlog_seconds: f64,
}

/// Which branch of the control law a tick took for a group — the
/// triggering reason telemetry attaches to park/wake events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleReason {
    /// Active-set utilization fell below `park_below`.
    LowUtilization {
        /// The realized active-set utilization that tripped the branch.
        utilization: f64,
    },
    /// Active-set utilization exceeded `wake_above`.
    HighUtilization {
        /// The realized active-set utilization that tripped the branch.
        utilization: f64,
    },
    /// The per-class p95 guard forced the group to full size.
    QosPressure,
}

/// One group's outcome from a control tick: the active count before
/// and after, and which branch of the law produced it (`None` = the
/// hold branch inside the hysteresis band).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupDecision {
    /// The group index.
    pub group: usize,
    /// Active count entering the tick.
    pub from: usize,
    /// Planned active count leaving the tick.
    pub to: usize,
    /// The branch taken (`None` for the in-band hold).
    pub reason: Option<ScaleReason>,
}

/// The closed-loop controller: owns the per-group active counts and the
/// parked-time bookkeeping, and advances one tick per epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleController {
    spec: AutoscalerSpec,
    group_sizes: Vec<usize>,
    /// Per-group active-prefix length.
    active: Vec<usize>,
    /// Accumulated `parked servers × seconds` over closed epochs.
    parked_seconds: f64,
    /// Fleet-wide active count per closed epoch.
    trace: Vec<usize>,
}

impl AutoscaleController {
    /// A controller over a fleet with the given per-group sizes; every
    /// server starts active (the fleet parks down from cold, it never
    /// boots parked).
    pub fn new(spec: AutoscalerSpec, group_sizes: Vec<usize>) -> AutoscaleController {
        let active = group_sizes.clone();
        AutoscaleController { spec, group_sizes, active, parked_seconds: 0.0, trace: Vec::new() }
    }

    /// The configured control-law knobs.
    pub fn spec(&self) -> &AutoscalerSpec {
        &self.spec
    }

    /// Per-group active-prefix lengths.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// Fleet-wide active server count.
    pub fn active_total(&self) -> usize {
        self.active.iter().sum()
    }

    /// Accumulated parked `server × seconds` over all closed epochs.
    pub fn parked_server_seconds(&self) -> f64 {
        self.parked_seconds
    }

    /// Fleet-wide active count for each closed epoch, in epoch order.
    pub fn fleet_size_trace(&self) -> &[usize] {
        &self.trace
    }

    /// Group `g`'s floor: `min_active_per_group` clamped to the group
    /// size (a group can never have more active servers than it has).
    fn floor(&self, g: usize) -> usize {
        self.spec.min_active_per_group.min(self.group_sizes[g]).max(1)
    }

    /// One control tick at an epoch boundary. `loads[g]` describes the
    /// epoch that just closed; the updated [`AutoscaleController::active`]
    /// counts govern the next epoch.
    ///
    /// The law, per group with `m` active of `size` servers and
    /// realized active-set utilization
    /// `u = (busy + backlog) / (m · epoch_seconds)`:
    ///
    /// * QoS pressure ⇒ `m' = size` (wake everything, park nothing);
    /// * `u > wake_above` ⇒ `m' = clamp(⌈u · m / target⌉, m + 1, size)`;
    /// * `u < park_below` ⇒ `m' = max(⌈u · m / target⌉, floor,
    ///   m − park_step)`;
    /// * otherwise (inside the band) ⇒ `m' = m`.
    ///
    /// Every branch is a pure function of the inputs — no clocks, no
    /// randomness — which is what keeps autoscaled runs byte-identical
    /// across worker and shard counts.
    ///
    /// Returns one [`GroupDecision`] per group recording the branch
    /// taken, so callers can attribute the resulting park/wake
    /// transitions without re-deriving the law.
    pub fn plan_epoch(
        &mut self,
        loads: &[GroupLoad],
        epoch_seconds: f64,
        qos_pressure: bool,
    ) -> Vec<GroupDecision> {
        assert_eq!(loads.len(), self.group_sizes.len(), "one load entry per group");
        assert!(epoch_seconds > 0.0, "epochs have positive length");
        // Account the epoch that just closed before re-planning.
        self.trace.push(self.active_total());
        let total: usize = self.group_sizes.iter().sum();
        self.parked_seconds += (total - self.active_total()) as f64 * epoch_seconds;

        let mut decisions = Vec::with_capacity(loads.len());
        for (g, load) in loads.iter().enumerate() {
            let m = self.active[g];
            let size = self.group_sizes[g];
            let floor = self.floor(g);
            if qos_pressure {
                self.active[g] = size;
                decisions.push(GroupDecision {
                    group: g,
                    from: m,
                    to: size,
                    reason: Some(ScaleReason::QosPressure),
                });
                continue;
            }
            let u = (load.busy_seconds + load.backlog_seconds) / (m as f64 * epoch_seconds);
            let need = (u * m as f64 / self.spec.target_utilization).ceil() as usize;
            let (to, reason) = if u > self.spec.wake_above {
                (
                    need.clamp((m + 1).min(size), size),
                    Some(ScaleReason::HighUtilization { utilization: u }),
                )
            } else if u < self.spec.park_below {
                (
                    need.max(floor).max(m.saturating_sub(self.spec.park_step)).min(m),
                    Some(ScaleReason::LowUtilization { utilization: u }),
                )
            } else {
                (m, None)
            };
            self.active[g] = to;
            decisions.push(GroupDecision { group: g, from: m, to, reason });
        }
        decisions
    }

    /// Overrides group `g`'s planned active count with what the engine
    /// actually achieved. Parking is constrained to *drained* servers
    /// (a server still carrying committed work past the boundary cannot
    /// be parked without rewriting history), so an epoch with stragglers
    /// may park fewer servers than the plan asked for; the engine
    /// settles the difference here so the controller's state always
    /// matches the fleet. The achieved count is itself a pure function
    /// of epoch-boundary state, so determinism is unaffected.
    pub fn settle_active(&mut self, g: usize, achieved: usize) {
        assert!(
            achieved >= 1 && achieved <= self.group_sizes[g],
            "achieved active count must fit the group"
        );
        self.active[g] = achieved;
    }

    /// Serializes the controller's mutable state (active counts, parked
    /// seconds, trace). The spec and group sizes come from configuration
    /// and are *not* written — [`AutoscaleController::restore_state`]
    /// takes a freshly configured controller's shape and refuses counts
    /// that don't fit it.
    pub fn snapshot_state(&self, w: &mut ByteWriter) {
        self.active.snapshot(w);
        w.put_f64(self.parked_seconds);
        self.trace.snapshot(w);
    }

    /// Restores state written by [`AutoscaleController::snapshot_state`]
    /// into a controller configured with `spec` and `group_sizes`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated or malformed bytes, or when
    /// the recorded active counts don't fit the configured fleet shape.
    pub fn restore_state(
        spec: AutoscalerSpec,
        group_sizes: Vec<usize>,
        r: &mut ByteReader<'_>,
    ) -> Result<AutoscaleController, CodecError> {
        let active = Vec::<usize>::restore(r)?;
        if active.len() != group_sizes.len()
            || active.iter().zip(&group_sizes).any(|(&a, &size)| a == 0 || a > size)
        {
            return Err(CodecError::Invalid("autoscaler active counts don't fit the fleet".into()));
        }
        let parked_seconds = r.get_f64()?;
        if !(parked_seconds.is_finite() && parked_seconds >= 0.0) {
            return Err(CodecError::Invalid("autoscaler parked seconds out of range".into()));
        }
        let trace = Vec::<usize>::restore(r)?;
        Ok(AutoscaleController { spec, group_sizes, active, parked_seconds, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec() -> AutoscalerSpec {
        AutoscalerSpec::new()
    }

    #[test]
    fn default_spec_validates() {
        spec().validate().unwrap();
    }

    /// The parked program is one immediate stage in the park state that
    /// wakes in the spec's latency, and every shape the engine cannot
    /// run is a reason: a knob `validate` rejects, a wake that does not
    /// fit in an epoch, and an active park state.
    #[test]
    fn parked_program_is_one_immediate_stage_or_the_reason() {
        let program = spec().parked_program(300.0).unwrap();
        let stage = SleepStage::new(SystemState::C6_S3, 0.0, presets::WAKE_C6_S3).unwrap();
        assert_eq!(program, SleepProgram::immediate(stage));

        let err = AutoscalerSpec { park_below: 0.9, ..spec() }.parked_program(300.0).unwrap_err();
        assert!(err.contains("park_below"), "{err}");
        let slow = AutoscalerSpec { wake_latency_seconds: 300.0, ..spec() };
        let err = slow.parked_program(300.0).unwrap_err();
        assert!(err.contains("shorter than the 300s epoch"), "{err}");
        assert!(slow.parked_program(301.0).is_ok(), "a wake shorter than the epoch fits");
        let active = AutoscalerSpec { park_state: SystemState::C0A_S0A, ..spec() };
        let err = active.parked_program(300.0).unwrap_err();
        assert!(err.contains("park state"), "{err}");
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        for bad in [
            AutoscalerSpec { target_utilization: 0.0, ..spec() },
            AutoscalerSpec { park_below: 0.7, ..spec() },
            AutoscalerSpec { wake_above: 0.5, ..spec() },
            AutoscalerSpec { min_active_per_group: 0, ..spec() },
            AutoscalerSpec { park_step: 0, ..spec() },
            AutoscalerSpec { wake_latency_seconds: f64::NAN, ..spec() },
            AutoscalerSpec { class_p95_guards_seconds: vec![f64::INFINITY], ..spec() },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should not validate");
        }
    }

    #[test]
    fn parks_off_peak_and_wakes_on_load() {
        let mut c = AutoscaleController::new(spec(), vec![8]);
        let epoch = 300.0;
        // Dead quiet: park down, gradually (park_step = 2), to the floor.
        for expect in [6, 4, 2, 1, 1] {
            c.plan_epoch(&[GroupLoad::default()], epoch, false);
            assert_eq!(c.active(), &[expect]);
        }
        // Load returns at 90 % of one server: wake straight to need
        // (ceil(0.9 * 1 / 0.6) = 2).
        c.plan_epoch(
            &[GroupLoad { busy_seconds: 0.9 * epoch, backlog_seconds: 0.0 }],
            epoch,
            false,
        );
        assert_eq!(c.active(), &[2]);
        // Inside the band: hold still.
        let u_mid = 0.5 * 2.0 * epoch;
        c.plan_epoch(&[GroupLoad { busy_seconds: u_mid, backlog_seconds: 0.0 }], epoch, false);
        assert_eq!(c.active(), &[2]);
        // QoS pressure overrides everything: the whole group wakes.
        c.plan_epoch(&[GroupLoad::default()], epoch, true);
        assert_eq!(c.active(), &[8]);
        // Bookkeeping: 8 epochs closed, parked seconds accumulated.
        assert_eq!(c.fleet_size_trace(), &[8, 6, 4, 2, 1, 1, 2, 2]);
        let parked: usize = c.fleet_size_trace().iter().map(|&a| 8 - a).sum();
        assert_eq!(c.parked_server_seconds(), parked as f64 * epoch);
    }

    #[test]
    fn backlog_counts_toward_utilization() {
        let mut c = AutoscaleController::new(spec(), vec![4]);
        let epoch = 300.0;
        // Barely busy but deeply backlogged: the overhang keeps the
        // group out of the park branch.
        let load = GroupLoad { busy_seconds: 0.1 * 4.0 * epoch, backlog_seconds: 2.0 * epoch };
        c.plan_epoch(&[load], epoch, false);
        assert_eq!(c.active(), &[4]);
    }

    #[test]
    fn qos_guard_trips_on_breach_only() {
        let s = spec().with_class_guards(vec![0.05, 0.0]);
        assert!(!s.qos_pressure(&[0.04, 99.0]));
        assert!(s.qos_pressure(&[0.06, 0.0]));
        assert!(!s.qos_pressure(&[f64::NAN, 1.0]), "empty classes never trip the guard");
    }

    #[test]
    fn restore_rejects_misshapen_state() {
        let c = AutoscaleController::new(spec(), vec![4, 2]);
        let mut w = ByteWriter::new();
        c.snapshot_state(&mut w);
        let bytes = w.into_bytes();
        // Wrong fleet shape: group count mismatch.
        let mut r = ByteReader::new(&bytes);
        assert!(AutoscaleController::restore_state(spec(), vec![4], &mut r).is_err());
        // Truncated payload.
        let mut r = ByteReader::new(&bytes[..bytes.len() - 1]);
        assert!(AutoscaleController::restore_state(spec(), vec![4, 2], &mut r).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Controller state round-trips byte-exactly through its
        /// snapshot — the property that keeps `resume` byte-identical
        /// for autoscaled runs.
        #[test]
        fn controller_state_roundtrips(
            sizes in proptest::collection::vec(1_usize..12, 1..5),
            ticks in proptest::collection::vec((0.0_f64..2.0, 0.0_f64..1.0, 0_u8..2), 0..20),
        ) {
            let mut c = AutoscaleController::new(spec(), sizes.clone());
            let epoch = 300.0;
            for (u, overhang, qos) in ticks {
                let qos = qos == 1;
                let loads: Vec<GroupLoad> = c
                    .active()
                    .iter()
                    .map(|&m| GroupLoad {
                        busy_seconds: u * m as f64 * epoch,
                        backlog_seconds: overhang * epoch,
                    })
                    .collect();
                c.plan_epoch(&loads, epoch, qos);
            }
            let mut w = ByteWriter::new();
            c.snapshot_state(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let restored =
                AutoscaleController::restore_state(spec(), sizes, &mut r).unwrap();
            prop_assert!(r.is_empty(), "restore must consume the whole record");
            prop_assert_eq!(&restored, &c);
            // And the restored controller plans identically.
            let mut a = c.clone();
            let mut b = restored;
            let loads: Vec<GroupLoad> =
                a.active().iter().map(|_| GroupLoad::default()).collect();
            a.plan_epoch(&loads, epoch, false);
            b.plan_epoch(&loads, epoch, false);
            prop_assert_eq!(a, b);
        }

        /// The active counts always respect the floor and the group
        /// size, whatever load sequence the controller sees.
        #[test]
        fn active_counts_stay_in_bounds(
            sizes in proptest::collection::vec(1_usize..10, 1..4),
            ticks in proptest::collection::vec((0.0_f64..3.0, 0_u8..2), 1..30),
        ) {
            let mut c = AutoscaleController::new(spec(), sizes.clone());
            let epoch = 60.0;
            for (u, qos) in ticks {
                let qos = qos == 1;
                let loads: Vec<GroupLoad> = c
                    .active()
                    .iter()
                    .map(|&m| GroupLoad { busy_seconds: u * m as f64 * epoch, backlog_seconds: 0.0 })
                    .collect();
                c.plan_epoch(&loads, epoch, qos);
                for (g, &a) in c.active().iter().enumerate() {
                    prop_assert!(a >= 1 && a <= sizes[g]);
                }
            }
        }
    }
}
