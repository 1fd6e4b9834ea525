use crate::job::ClassId;
use serde::{Deserialize, Serialize};
use sleepscale_power::{ep::PowerSample, Joules, Watts};

/// Integrates piecewise-constant power segments into fixed-width time
/// buckets.
///
/// The SleepScale runtime changes policy every epoch, and service or idle
/// intervals routinely straddle epoch boundaries. The engine emits
/// `(start, end, watts)` segments as it discovers them (idle gaps are only
/// known once the *next* arrival appears, possibly epochs later); the
/// ledger splits each segment exactly across the buckets it covers, so
/// per-epoch average power is exact regardless of emission order.
///
/// Segments come in two flavours. *Active* segments
/// ([`EnergyLedger::add_active_segment`]) are service intervals tagged
/// with the running job's [`ClassId`]; the ledger additionally
/// attributes their energy to a per-class total and their duration to
/// per-bucket busy-seconds (the utilization axis of the
/// energy-proportionality curve). Untagged segments
/// ([`EnergyLedger::add_segment`]) cover idle, sleep, and wake-up
/// intervals that belong to no class; their energy lands only in the
/// shared total and buckets, and is reported as the idle line item
/// ([`EnergyLedger::idle_energy`]). Both flavours feed `total` and the
/// buckets through the identical arithmetic, so tagging never changes
/// the total-energy bytes.
///
/// ```
/// use sleepscale_sim::EnergyLedger;
/// use sleepscale_power::Watts;
/// let mut ledger = EnergyLedger::new(60.0);
/// ledger.add_segment(30.0, 90.0, Watts::new(100.0)); // straddles the boundary
/// assert!((ledger.bucket_energy(0).as_joules() - 3000.0).abs() < 1e-9);
/// assert!((ledger.bucket_energy(1).as_joules() - 3000.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyLedger {
    bucket_width: f64,
    buckets: Vec<f64>,
    total: f64,
    end_of_time: f64,
    /// Seconds of each bucket spent serving jobs (active segments only).
    busy_buckets: Vec<f64>,
    /// Active (serving) energy per class tag, indexed by `ClassId`.
    active_by_class: Vec<f64>,
    /// Total active (serving) energy across all classes.
    active_total: f64,
}

impl EnergyLedger {
    /// A ledger with buckets of `bucket_width` seconds starting at t = 0.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is not positive and finite.
    pub fn new(bucket_width: f64) -> EnergyLedger {
        assert!(
            bucket_width.is_finite() && bucket_width > 0.0,
            "bucket width must be finite and > 0"
        );
        EnergyLedger::with_width(bucket_width)
    }

    /// A ledger that keeps totals only: the total energy, the latest
    /// segment end and the per-class active energy, on the same
    /// float-operation stream as a bucketed ledger fed the same
    /// segments (so [`EnergyLedger::total_energy`] is bit-identical to
    /// an [`EnergyLedger::new`] ledger's). It skips the per-bucket
    /// split of both segment flavours, which batch runs
    /// ([`crate::simulate`], [`crate::simulate_summary_into`]) never
    /// read.
    ///
    /// It has no buckets: [`EnergyLedger::bucket_count`] is 0, the
    /// width is infinite, and every per-bucket accessor (energy, power,
    /// busy seconds, utilization) reads zero, so
    /// [`EnergyLedger::power_samples`] is empty. Its snapshot does not
    /// restore (the codec rejects a non-finite width); batch ledgers
    /// are never checkpointed.
    ///
    /// ```
    /// use sleepscale_sim::EnergyLedger;
    /// use sleepscale_power::Watts;
    /// let mut bucketed = EnergyLedger::new(60.0);
    /// let mut totals = EnergyLedger::totals_only();
    /// for ledger in [&mut bucketed, &mut totals] {
    ///     ledger.add_segment(30.0, 90.0, Watts::new(100.0));
    /// }
    /// assert_eq!(totals.total_energy(), bucketed.total_energy());
    /// assert_eq!(totals.bucket_count(), 0);
    /// assert_eq!(totals.bucket_energy(0).as_joules(), 0.0);
    /// ```
    pub fn totals_only() -> EnergyLedger {
        EnergyLedger::with_width(f64::INFINITY)
    }

    /// An empty ledger with buckets `bucket_width` seconds wide.
    fn with_width(bucket_width: f64) -> EnergyLedger {
        EnergyLedger {
            bucket_width,
            buckets: Vec::new(),
            total: 0.0,
            end_of_time: 0.0,
            busy_buckets: Vec::new(),
            active_by_class: Vec::new(),
            active_total: 0.0,
        }
    }

    /// True unless the ledger keeps totals only
    /// ([`EnergyLedger::totals_only`]).
    fn is_bucketed(&self) -> bool {
        self.bucket_width.is_finite()
    }

    /// Adds an untagged constant-power segment `[start, end)` — idle,
    /// sleep, or wake-up time that belongs to no job class.
    ///
    /// Zero- or negative-length segments are ignored.
    pub fn add_segment(&mut self, start: f64, end: f64, watts: Watts) {
        self.integrate(start, end, watts);
    }

    /// Adds an *active* (serving) segment `[start, end)` attributed to
    /// `class`: besides the shared total/bucket accounting — identical,
    /// operation for operation, to [`EnergyLedger::add_segment`] — the
    /// energy is credited to the class's active total and the duration
    /// to per-bucket busy-seconds.
    ///
    /// Zero- or negative-length segments are ignored.
    pub fn add_active_segment(&mut self, start: f64, end: f64, watts: Watts, class: ClassId) {
        let Some(p) = self.integrate(start, end, watts) else {
            return;
        };
        self.active_total += p * (end - start);
        let index = class.as_index();
        if self.active_by_class.len() <= index {
            self.active_by_class.resize(index + 1, 0.0);
        }
        self.active_by_class[index] += p * (end - start);
        if self.is_bucketed() {
            // `1.0 * overlap` is `overlap` exactly.
            split(&mut self.busy_buckets, self.bucket_width, start, end, 1.0);
        }
    }

    /// The shared total/bucket integration both segment flavours run.
    /// Returns the power in watts when the segment was accepted, `None`
    /// for degenerate segments. The float-operation stream on `total`,
    /// `end_of_time`, and `buckets` is the byte-determinism contract:
    /// tagged and untagged paths must produce identical totals, and a
    /// totals-only ledger runs the same stream minus the buckets.
    fn integrate(&mut self, start: f64, end: f64, watts: Watts) -> Option<f64> {
        let duration = end - start;
        if duration.is_nan() || duration <= 0.0 {
            return None;
        }
        let p = watts.as_watts();
        self.total += p * (end - start);
        self.end_of_time = self.end_of_time.max(end);
        if self.is_bucketed() {
            split(&mut self.buckets, self.bucket_width, start, end, p);
        }
        Some(p)
    }

    /// Energy accumulated in bucket `i` (zero for untouched buckets).
    pub fn bucket_energy(&self, i: usize) -> Joules {
        Joules::new(self.buckets.get(i).copied().unwrap_or(0.0))
    }

    /// Average power over bucket `i`.
    pub fn bucket_power(&self, i: usize) -> Watts {
        self.bucket_energy(i).average_over(self.bucket_width)
    }

    /// Total energy across all segments.
    pub fn total_energy(&self) -> Joules {
        Joules::new(self.total)
    }

    /// Latest segment end seen.
    pub fn end_of_time(&self) -> f64 {
        self.end_of_time
    }

    /// Number of buckets touched so far.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket width in seconds.
    pub fn bucket_width(&self) -> f64 {
        self.bucket_width
    }

    /// Total active (serving) energy across all classes.
    pub fn active_energy(&self) -> Joules {
        Joules::new(self.active_total)
    }

    /// Energy not attributable to any job: idle, sleep, and wake-up
    /// segments. Defined as `total − active`, so
    /// `active_energy() + idle_energy()` reproduces
    /// [`EnergyLedger::total_energy`] up to one rounding step.
    pub fn idle_energy(&self) -> Joules {
        Joules::new(self.total - self.active_total)
    }

    /// Active energy credited to class `class` (zero for untouched
    /// tags).
    pub fn class_active_energy(&self, class: ClassId) -> Joules {
        Joules::new(self.active_by_class.get(class.as_index()).copied().unwrap_or(0.0))
    }

    /// Per-class active energy in joules, indexed by class tag. The
    /// length is one past the highest tag that served a job (empty if
    /// none did).
    pub fn active_energy_by_class(&self) -> &[f64] {
        &self.active_by_class
    }

    /// Seconds of bucket `i` spent serving jobs (zero for untouched
    /// buckets). Wake-up and pre-`τ_1` active idle are *not* busy time —
    /// they draw active power without doing work, which is exactly the
    /// non-proportionality the EP analytics measure.
    pub fn bucket_busy_seconds(&self, i: usize) -> f64 {
        self.busy_buckets.get(i).copied().unwrap_or(0.0)
    }

    /// Busy fraction of bucket `i`, in `[0, 1]`.
    pub fn bucket_utilization(&self, i: usize) -> f64 {
        (self.bucket_busy_seconds(i) / self.bucket_width).clamp(0.0, 1.0)
    }

    /// One `(utilization, average power)` sample per bucket — the raw
    /// material for [`sleepscale_power::ep::analyze`] and the
    /// utilization→power curve. The final bucket may extend past the
    /// last segment; its utilization and power are both averaged over
    /// the full width, so the sample stays self-consistent.
    pub fn power_samples(&self) -> Vec<PowerSample> {
        (0..self.buckets.len())
            .map(|i| PowerSample {
                utilization: self.bucket_utilization(i),
                watts: self.bucket_power(i).as_watts(),
            })
            .collect()
    }
}

/// Adds `scale · overlap` to each `width`-second bucket that
/// `[start, end)` overlaps, growing `buckets` to cover `end`.
fn split(buckets: &mut Vec<f64>, width: f64, start: f64, end: f64, scale: f64) {
    let first = (start / width).floor() as usize;
    let last = (end / width).ceil() as usize;
    if buckets.len() < last {
        buckets.resize(last, 0.0);
    }
    for (b, bucket) in (first..).zip(&mut buckets[first..last]) {
        let b_start = b as f64 * width;
        let b_end = b_start + width;
        let overlap = end.min(b_end) - start.max(b_start);
        if overlap > 0.0 {
            *bucket += scale * overlap;
        }
    }
}

impl sleepscale_journal::Snapshot for EnergyLedger {
    fn snapshot(&self, w: &mut sleepscale_journal::ByteWriter) {
        w.put_f64(self.bucket_width);
        self.buckets.snapshot(w);
        w.put_f64(self.total);
        w.put_f64(self.end_of_time);
        self.busy_buckets.snapshot(w);
        self.active_by_class.snapshot(w);
        w.put_f64(self.active_total);
    }

    fn restore(
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<EnergyLedger, sleepscale_journal::CodecError> {
        let bucket_width = r.get_f64()?;
        if !bucket_width.is_finite() || bucket_width <= 0.0 {
            return Err(sleepscale_journal::CodecError::Invalid(format!(
                "ledger bucket width {bucket_width} must be finite and > 0"
            )));
        }
        Ok(EnergyLedger {
            bucket_width,
            buckets: Vec::restore(r)?,
            total: r.get_f64()?,
            end_of_time: r.get_f64()?,
            busy_buckets: Vec::restore(r)?,
            active_by_class: Vec::restore(r)?,
            active_total: r.get_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_exact() {
        let mut l = EnergyLedger::new(10.0);
        l.add_segment(5.0, 25.0, Watts::new(10.0));
        assert!((l.bucket_energy(0).as_joules() - 50.0).abs() < 1e-9);
        assert!((l.bucket_energy(1).as_joules() - 100.0).abs() < 1e-9);
        assert!((l.bucket_energy(2).as_joules() - 50.0).abs() < 1e-9);
        assert!((l.total_energy().as_joules() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn buckets_sum_to_total() {
        let mut l = EnergyLedger::new(7.0);
        l.add_segment(0.0, 3.0, Watts::new(5.0));
        l.add_segment(3.0, 50.0, Watts::new(2.0));
        l.add_segment(10.0, 20.0, Watts::new(1.0)); // overlapping in time is fine
        let sum: f64 = (0..l.bucket_count()).map(|i| l.bucket_energy(i).as_joules()).sum();
        assert!((sum - l.total_energy().as_joules()).abs() < 1e-9);
    }

    #[test]
    fn degenerate_segments_ignored() {
        let mut l = EnergyLedger::new(1.0);
        l.add_segment(5.0, 5.0, Watts::new(100.0));
        l.add_segment(5.0, 4.0, Watts::new(100.0));
        assert_eq!(l.total_energy(), Joules::ZERO);
        assert_eq!(l.bucket_count(), 0);
    }

    #[test]
    fn bucket_power_averages() {
        let mut l = EnergyLedger::new(2.0);
        l.add_segment(0.0, 1.0, Watts::new(10.0));
        assert!((l.bucket_power(0).as_watts() - 5.0).abs() < 1e-12);
        assert_eq!(l.bucket_power(5).as_watts(), 0.0);
    }

    #[test]
    fn end_of_time_tracks_latest() {
        let mut l = EnergyLedger::new(1.0);
        l.add_segment(0.0, 4.0, Watts::new(1.0));
        l.add_segment(1.0, 2.0, Watts::new(1.0));
        assert_eq!(l.end_of_time(), 4.0);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_width_panics() {
        EnergyLedger::new(0.0);
    }

    /// Tagged and untagged segments feed `total`/buckets through the
    /// identical arithmetic: interleaving them in either flavour gives
    /// byte-identical totals.
    #[test]
    fn active_segments_do_not_change_total_bytes() {
        let segments = [(0.0, 3.3, 250.0), (3.3, 9.1, 28.1), (9.1, 14.0, 213.5)];
        let mut untagged = EnergyLedger::new(5.0);
        let mut tagged = EnergyLedger::new(5.0);
        for &(s, e, w) in &segments {
            untagged.add_segment(s, e, Watts::new(w));
            tagged.add_active_segment(s, e, Watts::new(w), ClassId(3));
        }
        assert_eq!(untagged.total_energy(), tagged.total_energy());
        assert_eq!(untagged.end_of_time(), tagged.end_of_time());
        for i in 0..untagged.bucket_count() {
            assert_eq!(untagged.bucket_energy(i), tagged.bucket_energy(i));
        }
    }

    #[test]
    fn active_energy_splits_by_class() {
        let mut l = EnergyLedger::new(10.0);
        l.add_active_segment(0.0, 2.0, Watts::new(100.0), ClassId(0));
        l.add_active_segment(2.0, 3.0, Watts::new(100.0), ClassId(2));
        l.add_segment(3.0, 10.0, Watts::new(10.0)); // idle: no class
        assert!((l.active_energy().as_joules() - 300.0).abs() < 1e-9);
        assert!((l.idle_energy().as_joules() - 70.0).abs() < 1e-9);
        assert!((l.class_active_energy(ClassId(0)).as_joules() - 200.0).abs() < 1e-9);
        assert_eq!(l.class_active_energy(ClassId(1)), Joules::ZERO);
        assert!((l.class_active_energy(ClassId(2)).as_joules() - 100.0).abs() < 1e-9);
        assert_eq!(l.class_active_energy(ClassId(7)), Joules::ZERO);
        assert_eq!(l.active_energy_by_class().len(), 3);
        let by_class: f64 = l.active_energy_by_class().iter().sum();
        assert!((by_class - l.active_energy().as_joules()).abs() < 1e-9);
    }

    #[test]
    fn busy_seconds_track_serving_only() {
        let mut l = EnergyLedger::new(10.0);
        l.add_active_segment(5.0, 15.0, Watts::new(250.0), ClassId(0));
        l.add_segment(15.0, 30.0, Watts::new(28.1)); // idle: not busy
        assert!((l.bucket_busy_seconds(0) - 5.0).abs() < 1e-12);
        assert!((l.bucket_busy_seconds(1) - 5.0).abs() < 1e-12);
        assert_eq!(l.bucket_busy_seconds(2), 0.0);
        assert!((l.bucket_utilization(0) - 0.5).abs() < 1e-12);
        let samples = l.power_samples();
        assert_eq!(samples.len(), l.bucket_count());
        assert!((samples[0].utilization - 0.5).abs() < 1e-12);
        assert!((samples[0].watts - l.bucket_power(0).as_watts()).abs() < 1e-12);
    }

    /// A totals-only ledger keeps a bucketed ledger's totals bit for
    /// bit, class split included, and reads zero per bucket.
    #[test]
    fn totals_only_keeps_totals_and_drops_buckets() {
        let segments =
            [(0.0, 3.3, 250.0, None), (3.3, 9.1, 28.1, Some(1)), (9.1, 14.0, 213.5, Some(0))];
        let mut bucketed = EnergyLedger::new(5.0);
        let mut totals = EnergyLedger::totals_only();
        for ledger in [&mut bucketed, &mut totals] {
            for &(s, e, w, class) in &segments {
                match class {
                    Some(c) => ledger.add_active_segment(s, e, Watts::new(w), ClassId(c)),
                    None => ledger.add_segment(s, e, Watts::new(w)),
                }
            }
        }
        assert_eq!(totals.total_energy(), bucketed.total_energy());
        assert_eq!(totals.end_of_time(), bucketed.end_of_time());
        assert_eq!(totals.active_energy(), bucketed.active_energy());
        assert_eq!(totals.active_energy_by_class(), bucketed.active_energy_by_class());
        assert_eq!(totals.bucket_count(), 0);
        assert!(totals.power_samples().is_empty());
        for i in 0..bucketed.bucket_count() {
            assert_eq!(totals.bucket_energy(i), Joules::ZERO);
            assert_eq!(totals.bucket_power(i).as_watts(), 0.0);
            assert_eq!(totals.bucket_busy_seconds(i), 0.0);
            assert_eq!(totals.bucket_utilization(i), 0.0);
        }
    }

    #[test]
    fn degenerate_active_segments_ignored() {
        let mut l = EnergyLedger::new(1.0);
        l.add_active_segment(5.0, 5.0, Watts::new(100.0), ClassId(1));
        l.add_active_segment(5.0, 4.0, Watts::new(100.0), ClassId(1));
        assert_eq!(l.total_energy(), Joules::ZERO);
        assert_eq!(l.active_energy(), Joules::ZERO);
        assert!(l.active_energy_by_class().is_empty());
    }
}
