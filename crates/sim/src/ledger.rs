use crate::job::ClassId;
use serde::{Deserialize, Serialize};
use sleepscale_journal::{ByteReader, ByteWriter, CodecError, Snapshot};
use sleepscale_power::{ep::PowerSample, Joules, Watts};
use std::fmt;

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
///
/// # The bucket split, and the bucket it keeps hot
///
/// A segment `[start, end)` touches buckets `floor(start / w)` up to
/// `ceil(end / w)` (exclusive), with the quotients rounded to `f64`
/// first. Bucket `b` spans `[b·w, b·w + w)` as computed in `f64`, and
/// receives `watts · (min(end, b·w + w) − max(start, b·w))` when that
/// overlap is positive. The rounding in those steps is part of the
/// recorded bytes, and it is not always the exact arithmetic:
///
/// * Whole-second widths (1, 60, 300, 600 and 3 600 s) show no boundary
///   rounding in the first 2M buckets: `b·w` is exact, `b·w / w` is
///   `b`, and `b·w + w` equals `(b + 1)·w`.
/// * At width 0.1, the segment `[1.7, 1.75)` loses 2.2e-16 s from its
///   buckets: `1.7 / 0.1` rounds to exactly 17, so bucket 16 is skipped,
///   while bucket 17 begins at `17 · 0.1 = 1.7000000000000002`.
/// * At width 0.1, 574,752 of the first 2M buckets have
///   `b·w + w ≠ (b + 1)·w`, so a bucket's end and the next bucket's
///   start may differ by an ulp.
///
/// Most segments the engine emits (a wake-up, a service interval, a
/// short idle gap) fall inside one bucket, the one the server is
/// filling. The ledger keeps that bucket *hot*: its index, its running
/// energy and busy seconds, and the exact ranges of segment starts and
/// ends for which the split above touches that bucket alone. Those
/// ranges are found once per bucket by stepping ulps out from `b·w` and
/// `(b + 1)·w` and testing each candidate with the split's own
/// quotient, so they reproduce every rounding case above rather than
/// assume the exact arithmetic. A segment inside them adds to the hot
/// accumulators with the split's own float operations; any other
/// segment writes the hot bucket back and takes the full split. Every
/// read and the snapshot see the hot values in place, so the bucket
/// bytes are those of a ledger without the hot bucket.
#[derive(Clone, Serialize, Deserialize)]
pub struct EnergyLedger {
    bucket_width: f64,
    total: f64,
    end_of_time: f64,
    /// Total active (serving) energy across all classes.
    active_total: f64,
    /// The bucket being filled; authoritative for its index.
    hot: HotBucket,
    /// Active (serving) energy per class tag, indexed by `ClassId`.
    active_by_class: ClassEnergy,
    buckets: Vec<f64>,
    /// Seconds of each bucket spent serving jobs (active segments only).
    busy_buckets: Vec<f64>,
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
            total: 0.0,
            end_of_time: 0.0,
            active_total: 0.0,
            hot: HotBucket::NONE,
            active_by_class: ClassEnergy::default(),
            buckets: Vec::new(),
            busy_buckets: Vec::new(),
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
    #[inline]
    pub fn add_segment(&mut self, start: f64, end: f64, watts: Watts) {
        self.integrate(start, end, watts, false);
    }

    /// Adds an *active* (serving) segment `[start, end)` attributed to
    /// `class`: besides the shared total/bucket accounting — identical,
    /// operation for operation, to [`EnergyLedger::add_segment`] — the
    /// energy is credited to the class's active total and the duration
    /// to per-bucket busy-seconds.
    ///
    /// Zero- or negative-length segments are ignored.
    #[inline]
    pub fn add_active_segment(&mut self, start: f64, end: f64, watts: Watts, class: ClassId) {
        let Some(p) = self.integrate(start, end, watts, true) else {
            return;
        };
        self.active_total += p * (end - start);
        self.active_by_class.add(class.as_index(), p * (end - start));
    }

    /// The shared total/bucket integration both segment flavours run;
    /// `active` also splits the duration into busy seconds. Returns the
    /// power in watts when the segment was accepted, `None` for
    /// degenerate segments. The float-operation stream on `total`,
    /// `end_of_time`, and the buckets is the byte-determinism contract:
    /// tagged and untagged paths must produce identical totals, and a
    /// totals-only ledger runs the same stream minus the buckets.
    #[inline]
    fn integrate(&mut self, start: f64, end: f64, watts: Watts, active: bool) -> Option<f64> {
        let duration = end - start;
        if duration.is_nan() || duration <= 0.0 {
            return None;
        }
        let p = watts.as_watts();
        self.total += p * (end - start);
        self.end_of_time = self.end_of_time.max(end);
        if self.is_bucketed() {
            let hot = &mut self.hot;
            if hot.holds(start, end) {
                // `split`'s one loop iteration for this bucket.
                let overlap = end.min(hot.end) - start.max(hot.start);
                if active && self.busy_buckets.len() <= hot.index {
                    self.busy_buckets.resize(hot.index + 1, 0.0);
                }
                if overlap > 0.0 {
                    hot.energy += p * overlap;
                    if active {
                        // `1.0 * overlap` is `overlap` exactly.
                        hot.busy += overlap;
                    }
                }
            } else {
                self.split_cold(start, end, p, active);
            }
        }
        Some(p)
    }

    /// A segment outside the hot bucket's ranges: write the hot bucket
    /// back, split the segment across every bucket it covers, and make
    /// the last of them hot.
    #[cold]
    #[inline(never)]
    fn split_cold(&mut self, start: f64, end: f64, p: f64, active: bool) {
        self.write_back();
        let width = self.bucket_width;
        let last = split(&mut self.buckets, width, start, end, p);
        if active {
            // `1.0 * overlap` is `overlap` exactly.
            split(&mut self.busy_buckets, width, start, end, 1.0);
        }
        if last > 0 {
            self.heat(last - 1);
        }
    }

    /// Writes the hot bucket's accumulators back into the bucket
    /// vectors.
    fn write_back(&mut self) {
        let hot = &self.hot;
        if let Some(energy) = self.buckets.get_mut(hot.index) {
            *energy = hot.energy;
        }
        if let Some(busy) = self.busy_buckets.get_mut(hot.index) {
            *busy = hot.busy;
        }
    }

    /// Makes bucket `b` (already allocated) the hot bucket, loading its
    /// accumulators and, for a new index, its exact input ranges.
    fn heat(&mut self, b: usize) {
        if b != self.hot.index {
            self.hot = HotBucket::ranges(self.bucket_width, b);
        }
        self.hot.energy = self.buckets[b];
        self.hot.busy = self.busy_buckets.get(b).copied().unwrap_or(0.0);
    }

    /// Energy accumulated in bucket `i` (zero for untouched buckets).
    pub fn bucket_energy(&self, i: usize) -> Joules {
        Joules::new(if i == self.hot.index {
            self.hot.energy
        } else {
            self.buckets.get(i).copied().unwrap_or(0.0)
        })
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
        Joules::new(self.active_energy_by_class().get(class.as_index()).copied().unwrap_or(0.0))
    }

    /// Per-class active energy in joules, indexed by class tag. The
    /// length is one past the highest tag that served a job (empty if
    /// none did).
    pub fn active_energy_by_class(&self) -> &[f64] {
        self.active_by_class.as_slice()
    }

    /// Seconds of bucket `i` spent serving jobs (zero for untouched
    /// buckets). Wake-up and pre-`τ_1` active idle are *not* busy time —
    /// they draw active power without doing work, which is exactly the
    /// non-proportionality the EP analytics measure.
    pub fn bucket_busy_seconds(&self, i: usize) -> f64 {
        if i == self.hot.index {
            // Zero when no active segment reached the bucket yet.
            self.hot.busy
        } else {
            self.busy_buckets.get(i).copied().unwrap_or(0.0)
        }
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

    /// The energy buckets, then the busy buckets, with the hot bucket's
    /// values in place.
    fn bucket_vectors(&self) -> (Vec<f64>, Vec<f64>) {
        let mut flushed = self.clone();
        flushed.write_back();
        (flushed.buckets, flushed.busy_buckets)
    }
}

impl PartialEq for EnergyLedger {
    fn eq(&self, other: &EnergyLedger) -> bool {
        self.bucket_width == other.bucket_width
            && self.total == other.total
            && self.end_of_time == other.end_of_time
            && self.active_total == other.active_total
            && self.active_energy_by_class() == other.active_energy_by_class()
            && self.bucket_vectors() == other.bucket_vectors()
    }
}

impl fmt::Debug for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (buckets, busy_buckets) = self.bucket_vectors();
        f.debug_struct("EnergyLedger")
            .field("bucket_width", &self.bucket_width)
            .field("buckets", &buckets)
            .field("total", &self.total)
            .field("end_of_time", &self.end_of_time)
            .field("busy_buckets", &busy_buckets)
            .field("active_by_class", &self.active_energy_by_class())
            .field("active_total", &self.active_total)
            .finish()
    }
}

/// The bucket a ledger is filling (see [`EnergyLedger`]'s notes on the
/// split): its running sums and the segments that touch it alone.
#[derive(Debug, Clone, Copy)]
struct HotBucket {
    /// `usize::MAX` while no bucket is hot.
    index: usize,
    /// `index · width` and that plus `width`, as [`split`] computes them.
    start: f64,
    end: f64,
    /// The segment starts `x` with `floor(x / width) == index`.
    first_lo: f64,
    first_hi: f64,
    /// The segment ends `x` with `ceil(x / width) == index + 1`.
    last_lo: f64,
    last_hi: f64,
    energy: f64,
    busy: f64,
}

impl HotBucket {
    /// No bucket: NaN bounds admit no segment.
    const NONE: HotBucket = HotBucket {
        index: usize::MAX,
        start: f64::NAN,
        end: f64::NAN,
        first_lo: f64::NAN,
        first_hi: f64::NAN,
        last_lo: f64::NAN,
        last_hi: f64::NAN,
        energy: 0.0,
        busy: 0.0,
    };

    /// Whether [`split`] would touch this bucket and no other for
    /// `[start, end)`.
    #[inline]
    fn holds(&self, start: f64, end: f64) -> bool {
        start >= self.first_lo
            && start <= self.first_hi
            && end >= self.last_lo
            && end <= self.last_hi
    }

    /// Bucket `b`'s bounds and input ranges at `width`, with zeroed
    /// accumulators.
    fn ranges(width: f64, b: usize) -> HotBucket {
        let (lo, hi) = (b as f64, (b + 1) as f64);
        let (start, next) = (lo * width, hi * width);
        // Past the top of the floats, every finite input stays below.
        let below = |least: Option<f64>| least.map_or(f64::MAX, next_down);
        HotBucket {
            index: b,
            start,
            end: start + width,
            first_lo: least_where(start, |x| x / width >= lo).unwrap_or(f64::NAN),
            first_hi: below(least_where(next, |x| x / width >= hi)),
            last_lo: least_where(start, |x| x / width > lo).unwrap_or(f64::NAN),
            last_hi: below(least_where(next, |x| x / width > hi)),
            energy: 0.0,
            busy: 0.0,
        }
    }
}

/// The least non-negative finite float at which the monotone predicate
/// `hit` holds (it fails below some threshold and holds from there up),
/// or `None` if it fails on every finite float. The search steps ulps
/// out from `from` in doubling strides until it brackets the threshold,
/// then bisects the bracket.
fn least_where(from: f64, hit: impl Fn(f64) -> bool) -> Option<f64> {
    // Non-negative floats order like their bit patterns.
    const TOP: u64 = 0x7FEF_FFFF_FFFF_FFFF;
    let at = |bits: u64| hit(f64::from_bits(bits));
    let from = from.to_bits().min(TOP);
    let mut step = 1_u64;
    // A miss `lo` and a hit `hi` with `lo < hi`.
    let (mut lo, mut hi) = if at(from) {
        let mut hi = from;
        loop {
            if hi == 0 {
                return Some(0.0);
            }
            let probe = from.saturating_sub(step);
            if !at(probe) {
                break (probe, hi);
            }
            hi = probe;
            step = step.saturating_mul(2);
        }
    } else {
        let mut lo = from;
        loop {
            if lo == TOP {
                return None;
            }
            let probe = from.saturating_add(step).min(TOP);
            if at(probe) {
                break (lo, probe);
            }
            lo = probe;
            step = step.saturating_mul(2);
        }
    };
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if at(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(f64::from_bits(hi))
}

/// The next float down from a positive finite `x`.
fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// Class tags a ledger holds without a heap allocation.
const INLINE_CLASSES: usize = 4;

/// Active energy per class tag: inline for the first
/// [`INLINE_CLASSES`] tags, moved to the heap the first time a higher
/// tag serves.
#[derive(Debug, Clone)]
enum ClassEnergy {
    Inline { len: usize, joules: [f64; INLINE_CLASSES] },
    Heap(Vec<f64>),
}

impl Default for ClassEnergy {
    fn default() -> ClassEnergy {
        ClassEnergy::Inline { len: 0, joules: [0.0; INLINE_CLASSES] }
    }
}

impl ClassEnergy {
    /// Adds `joules` to class `index`, growing the slice to cover it
    /// with zeros.
    #[inline]
    fn add(&mut self, index: usize, joules: f64) {
        match self {
            ClassEnergy::Inline { len, joules: inline } if index < INLINE_CLASSES => {
                *len = (*len).max(index + 1);
                inline[index] += joules;
            }
            _ => self.add_on_heap(index, joules),
        }
    }

    #[cold]
    fn add_on_heap(&mut self, index: usize, joules: f64) {
        if let ClassEnergy::Inline { len, joules: inline } = self {
            *self = ClassEnergy::Heap(inline[..*len].to_vec());
        }
        let ClassEnergy::Heap(heap) = self else { unreachable!("moved to the heap above") };
        if heap.len() <= index {
            heap.resize(index + 1, 0.0);
        }
        heap[index] += joules;
    }

    fn as_slice(&self) -> &[f64] {
        match self {
            ClassEnergy::Inline { len, joules } => &joules[..*len],
            ClassEnergy::Heap(heap) => heap,
        }
    }
}

/// Adds `scale · overlap` to each `width`-second bucket that
/// `[start, end)` overlaps, growing `buckets` to cover `end`. Returns
/// the end of the bucket range, `ceil(end / width)`.
fn split(buckets: &mut Vec<f64>, width: f64, start: f64, end: f64, scale: f64) -> usize {
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
    last
}

/// Writes `values` as a `Vec<f64>` snapshot would, with the entry at
/// `hot`'s index (when in range) replaced by `hot`'s value.
fn put_f64s(w: &mut ByteWriter, values: &[f64], hot: Option<(usize, f64)>) {
    w.put_usize(values.len());
    for (i, &v) in values.iter().enumerate() {
        w.put_f64(match hot {
            Some((index, value)) if index == i => value,
            _ => v,
        });
    }
}

impl Snapshot for EnergyLedger {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_f64(self.bucket_width);
        put_f64s(w, &self.buckets, Some((self.hot.index, self.hot.energy)));
        w.put_f64(self.total);
        w.put_f64(self.end_of_time);
        put_f64s(w, &self.busy_buckets, Some((self.hot.index, self.hot.busy)));
        put_f64s(w, self.active_energy_by_class(), None);
        w.put_f64(self.active_total);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<EnergyLedger, CodecError> {
        let bucket_width = r.get_f64()?;
        if !bucket_width.is_finite() || bucket_width <= 0.0 {
            return Err(CodecError::Invalid(format!(
                "ledger bucket width {bucket_width} must be finite and > 0"
            )));
        }
        let buckets = Vec::restore(r)?;
        let total = r.get_f64()?;
        let end_of_time = r.get_f64()?;
        let busy_buckets = Vec::restore(r)?;
        let by_class: Vec<f64> = Vec::restore(r)?;
        let active_by_class = if by_class.len() <= INLINE_CLASSES {
            let mut joules = [0.0; INLINE_CLASSES];
            joules[..by_class.len()].copy_from_slice(&by_class);
            ClassEnergy::Inline { len: by_class.len(), joules }
        } else {
            ClassEnergy::Heap(by_class)
        };
        Ok(EnergyLedger {
            bucket_width,
            total,
            end_of_time,
            active_total: r.get_f64()?,
            hot: HotBucket::NONE,
            active_by_class,
            buckets,
            busy_buckets,
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
