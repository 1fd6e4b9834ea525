use crate::job::JobRecord;
use serde::{Deserialize, Serialize};
use sleepscale_dist::SummaryStats;
use sleepscale_journal::{ByteReader, ByteWriter, CodecError, Snapshot};
use sleepscale_power::{Joules, SystemState, Watts};
use std::fmt;
use std::ops::AddAssign;

/// Time-in-state accounting over a simulation.
///
/// Four kinds of time exist in the model: serving, waking (charged at
/// active power), idling *before* the first sleep stage (`t < τ_1`, also
/// at active power, matching the appendix's `P_0` term), and idling inside
/// each low-power state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Residency {
    serving: f64,
    waking: f64,
    active_idle: f64,
    states: LadderTable<f64>,
}

impl Residency {
    /// An empty accumulator.
    pub fn new() -> Residency {
        Residency::default()
    }

    #[inline]
    pub(crate) fn add_serving(&mut self, dt: f64) {
        self.serving += dt;
    }

    #[inline]
    pub(crate) fn add_waking(&mut self, dt: f64) {
        self.waking += dt;
    }

    #[inline]
    pub(crate) fn add_active_idle(&mut self, dt: f64) {
        self.active_idle += dt;
    }

    /// Adds `dt` seconds in the low-power `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is the active state, which no sleep stage is.
    #[inline]
    pub(crate) fn add_state(&mut self, state: SystemState, dt: f64) {
        self.states.add(state, dt);
    }

    /// Seconds spent serving jobs.
    pub fn serving(&self) -> f64 {
        self.serving
    }

    /// Seconds spent in wake-up transitions.
    pub fn waking(&self) -> f64 {
        self.waking
    }

    /// Seconds idle at active power before the first sleep stage.
    pub fn active_idle(&self) -> f64 {
        self.active_idle
    }

    /// Seconds spent in `state` (0 if never entered).
    pub fn state_time(&self, state: SystemState) -> f64 {
        self.states().iter().find(|(s, _)| *s == state).map_or(0.0, |(_, t)| *t)
    }

    /// All (state, seconds) pairs in first-entered order.
    pub fn states(&self) -> &[(SystemState, f64)] {
        self.states.as_slice()
    }

    /// Total accounted time.
    pub fn total(&self) -> f64 {
        self.serving
            + self.waking
            + self.active_idle
            + self.states().iter().map(|(_, t)| t).sum::<f64>()
    }
}

impl Snapshot for Residency {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_f64(self.serving);
        w.put_f64(self.waking);
        w.put_f64(self.active_idle);
        self.states.snapshot(w);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Residency, CodecError> {
        Ok(Residency {
            serving: r.get_f64()?,
            waking: r.get_f64()?,
            active_idle: r.get_f64()?,
            states: LadderTable::restore(r)?,
        })
    }
}

/// The position of a low-power `state` in
/// [`SystemState::LOW_POWER_LADDER`], which lists every state a sleep
/// stage can occupy; `None` for the active state.
#[inline]
fn ladder_rung(state: SystemState) -> Option<usize> {
    use sleepscale_power::{CpuState as C, PlatformState as P};
    match (state.cpu(), state.platform()) {
        (C::C0Idle, P::S0Idle) => Some(0),
        (C::C1, P::S0Idle) => Some(1),
        (C::C3, P::S0Idle) => Some(2),
        (C::C6, P::S0Idle) => Some(3),
        (C::C6, P::S3) => Some(4),
        _ => None,
    }
}

/// Rungs of [`SystemState::LOW_POWER_LADDER`].
const RUNGS: usize = SystemState::LOW_POWER_LADDER.len();

/// A value per low-power state, kept inline in the order each state was
/// first entered: the five rungs of the ladder are the only states a
/// sleep stage can occupy, so the table never needs the heap. Its
/// slice, equality, `Debug` form and snapshot are those of a
/// first-entered `Vec<(SystemState, T)>`.
#[derive(Clone, Copy, Serialize, Deserialize)]
pub(crate) struct LadderTable<T> {
    entries: [(SystemState, T); RUNGS],
    len: u8,
    /// Each rung's position in `entries`, `u8::MAX` until entered.
    position: [u8; RUNGS],
}

impl<T: Copy + Default> Default for LadderTable<T> {
    fn default() -> LadderTable<T> {
        LadderTable {
            entries: [(SystemState::C0A_S0A, T::default()); RUNGS],
            len: 0,
            position: [u8::MAX; RUNGS],
        }
    }
}

impl<T: Copy + Default + AddAssign> LadderTable<T> {
    /// Adds `value` to `state`'s entry, appending the entry with
    /// `value` when the state is new.
    ///
    /// # Panics
    ///
    /// Panics if `state` is the active state.
    #[inline]
    pub(crate) fn add(&mut self, state: SystemState, value: T) {
        let rung = ladder_rung(state).expect("sleep stages are low-power states");
        match self.position[rung] {
            u8::MAX => {
                self.position[rung] = self.len;
                self.entries[self.len as usize] = (state, value);
                self.len += 1;
            }
            at => self.entries[at as usize].1 += value,
        }
    }

    /// The entries in first-entered order.
    pub(crate) fn as_slice(&self) -> &[(SystemState, T)] {
        &self.entries[..self.len as usize]
    }
}

impl<T: Copy + Default + AddAssign + PartialEq> PartialEq for LadderTable<T> {
    fn eq(&self, other: &LadderTable<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + AddAssign + fmt::Debug> fmt::Debug for LadderTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy + Default + AddAssign + Snapshot> Snapshot for LadderTable<T> {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_usize(self.as_slice().len());
        for (state, value) in self.as_slice() {
            state.snapshot(w);
            value.snapshot(w);
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<LadderTable<T>, CodecError> {
        let mut table = LadderTable::default();
        for (state, value) in Vec::<(SystemState, T)>::restore(r)? {
            match ladder_rung(state) {
                Some(rung) if table.position[rung] == u8::MAX => table.add(state, value),
                _ => {
                    return Err(CodecError::Invalid(format!(
                        "state {state} is not a low-power state or repeats"
                    )))
                }
            }
        }
        Ok(table)
    }
}

/// The result of a batch policy evaluation ([`crate::simulate`]):
/// the joint power/QoS characterization the policy manager ranks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOutcome {
    n_jobs: usize,
    horizon: f64,
    responses: Option<SummaryStats>,
    energy: Joules,
    residency: Residency,
    wakes_from: Vec<(SystemState, u64)>,
    wakes_without_sleep: u64,
}

impl SimOutcome {
    pub(crate) fn new(
        n_jobs: usize,
        horizon: f64,
        responses: Option<SummaryStats>,
        energy: Joules,
        residency: Residency,
        wakes_from: Vec<(SystemState, u64)>,
        wakes_without_sleep: u64,
    ) -> SimOutcome {
        SimOutcome {
            n_jobs,
            horizon,
            responses,
            energy,
            residency,
            wakes_from,
            wakes_without_sleep,
        }
    }

    /// Number of jobs completed.
    pub fn n_jobs(&self) -> usize {
        self.n_jobs
    }

    /// Simulated horizon in seconds (first arrival is at stream time 0's
    /// origin; the horizon ends at the last departure).
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Mean response time `E[R]` in seconds (0 when no jobs ran).
    pub fn mean_response(&self) -> f64 {
        self.responses.as_ref().map_or(0.0, |r| r.mean())
    }

    /// The paper's normalized mean response time `µ·E[R]`, given the
    /// full-speed mean service time `1/µ`.
    pub fn normalized_mean_response(&self, mean_service: f64) -> f64 {
        self.mean_response() / mean_service
    }

    /// 95th-percentile response time (0 when no jobs ran).
    pub fn p95_response(&self) -> f64 {
        self.responses.as_ref().map_or(0.0, |r| r.p95())
    }

    /// Empirical `Pr(R ≥ d)`.
    pub fn fraction_exceeding(&self, deadline: f64) -> f64 {
        self.responses.as_ref().map_or(0.0, |r| r.fraction_at_least(deadline))
    }

    /// Full response-time order statistics, when any job ran.
    pub fn responses(&self) -> Option<&SummaryStats> {
        self.responses.as_ref()
    }

    /// Total energy drawn.
    pub fn energy(&self) -> Joules {
        self.energy
    }

    /// Average power `E[P]` over the horizon.
    pub fn avg_power(&self) -> Watts {
        self.energy.average_over(self.horizon)
    }

    /// Time-in-state breakdown.
    pub fn residency(&self) -> &Residency {
        &self.residency
    }

    /// Fraction of the horizon spent serving (the measured utilization at
    /// the operating frequency, `≈ ρ/f^β`).
    pub fn busy_fraction(&self) -> f64 {
        if self.horizon == 0.0 {
            0.0
        } else {
            self.residency.serving() / self.horizon
        }
    }

    /// Wake-up events per sleep state.
    pub fn wakes_from(&self) -> &[(SystemState, u64)] {
        &self.wakes_from
    }

    /// Busy cycles that began before any sleep stage was entered
    /// (zero-latency wake from active idle).
    pub fn wakes_without_sleep(&self) -> u64 {
        self.wakes_without_sleep
    }
}

/// Per-epoch result emitted by [`crate::OnlineSim::run_epoch`].
///
/// Response statistics cover the jobs that *arrived* in the epoch
/// (matching how the runtime attributes delay to planning periods);
/// energy per epoch lives in the simulator's [`crate::EnergyLedger`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochOutcome {
    records: Vec<JobRecord>,
    backlog_seconds: f64,
}

impl EpochOutcome {
    pub(crate) fn new(records: Vec<JobRecord>, backlog_seconds: f64) -> EpochOutcome {
        EpochOutcome { records, backlog_seconds }
    }

    /// Completed-job records for arrivals in this epoch.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Number of arrivals in the epoch.
    pub fn arrivals(&self) -> usize {
        self.records.len()
    }

    /// Mean response time of this epoch's arrivals (0 when none).
    pub fn mean_response(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.records.iter().map(JobRecord::response).sum::<f64>() / self.records.len() as f64
        }
    }

    /// Response-time order statistics for this epoch's arrivals.
    pub fn response_stats(&self) -> Option<SummaryStats> {
        SummaryStats::from_samples(self.records.iter().map(JobRecord::response))
    }

    /// Committed work extending past the epoch boundary, in seconds
    /// (how far the server's busy horizon overhangs the epoch end).
    pub fn backlog_seconds(&self) -> f64 {
        self.backlog_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_accumulates_and_totals() {
        let mut r = Residency::new();
        r.add_serving(2.0);
        r.add_waking(0.5);
        r.add_active_idle(1.0);
        r.add_state(SystemState::C6_S3, 3.0);
        r.add_state(SystemState::C6_S3, 1.0);
        r.add_state(SystemState::C0I_S0I, 0.25);
        assert_eq!(r.state_time(SystemState::C6_S3), 4.0);
        assert_eq!(r.state_time(SystemState::C1_S0I), 0.0);
        assert!((r.total() - 7.75).abs() < 1e-12);
        assert_eq!(r.states().len(), 2);
    }

    #[test]
    fn ladder_rungs_follow_the_low_power_ladder() {
        for (i, state) in SystemState::LOW_POWER_LADDER.into_iter().enumerate() {
            assert_eq!(ladder_rung(state), Some(i), "{state}");
        }
        assert_eq!(ladder_rung(SystemState::C0A_S0A), None);
    }

    #[test]
    fn empty_outcome_degrades_gracefully() {
        let o = SimOutcome::new(0, 0.0, None, Joules::ZERO, Residency::new(), vec![], 0);
        assert_eq!(o.mean_response(), 0.0);
        assert_eq!(o.avg_power(), Watts::ZERO);
        assert_eq!(o.busy_fraction(), 0.0);
        assert_eq!(o.p95_response(), 0.0);
        assert_eq!(o.fraction_exceeding(1.0), 0.0);
    }

    #[test]
    fn epoch_outcome_statistics() {
        let rec = |arrival: f64, departure: f64| JobRecord {
            id: 0,
            arrival,
            start: arrival,
            departure,
            size: 0.1,
            service: 0.1,
            wake: 0.0,
        };
        let e = EpochOutcome::new(vec![rec(0.0, 1.0), rec(1.0, 4.0)], 2.5);
        assert_eq!(e.arrivals(), 2);
        assert!((e.mean_response() - 2.0).abs() < 1e-12);
        assert_eq!(e.backlog_seconds(), 2.5);
        assert!(e.response_stats().is_some());
        let empty = EpochOutcome::new(vec![], 0.0);
        assert_eq!(empty.mean_response(), 0.0);
        assert!(empty.response_stats().is_none());
    }
}
