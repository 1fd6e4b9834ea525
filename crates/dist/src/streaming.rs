//! Constant-memory streaming statistics: a mergeable summary
//! ([`StreamingSummary`]) pairing the Welford [`Moments`] accumulator
//! with a log-bucketed quantile sketch ([`QuantileSketch`]).
//!
//! [`SummaryStats`](crate::SummaryStats) keeps every sample to answer
//! exact order statistics — fine for a characterization replay of a few
//! thousand jobs, untenable for a fleet-day of millions. The streaming
//! form holds O(1) state in the sample count (the sketch is bounded by
//! its bucket grid, not the stream), folds one observation in per
//! [`StreamingSummary::push`], and merges across shards for parallel
//! accumulation. Quantiles are approximate to the sketch's fixed
//! relative precision; counts, means, variances, minima, and maxima are
//! exact up to rounding.

use crate::moments::Moments;
use serde::{Deserialize, Serialize};
use sleepscale_journal::Snapshot;

/// Relative half-width of the sketch's geometric buckets: quantile
/// estimates are within ±0.5% of the true sample value.
const BUCKET_RATIO: f64 = 1.01;

/// Smallest and largest positive values the sketch resolves; samples
/// beyond the range clamp into the edge buckets (counts stay exact,
/// the reported quantile saturates at the edge).
const MIN_TRACKED: f64 = 1e-9;
const MAX_TRACKED: f64 = 1e12;

/// A mergeable quantile sketch over positive samples: geometric buckets
/// of fixed relative width ([DDSketch]-style), so any quantile comes
/// back within ±0.5% *relative* error regardless of stream length.
///
/// Non-positive samples collapse into a single underflow bucket that
/// reports as 0. Buckets live in a dense array spanning
/// `[1e-9, 1e12]` (≈ 38 KiB — a hot `push` is one `ln` and one array
/// increment, no tree or hash walk), so memory is constant in the
/// sample count. Merging adds bucket counts, so sharded accumulation
/// is exact with respect to the single-stream sketch.
///
/// [DDSketch]: https://arxiv.org/abs/1908.10693
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSketch {
    counts: Vec<u64>,
    non_positive: u64,
    total: u64,
}

/// `1 / ln(BUCKET_RATIO)` and `floor(ln(MIN_TRACKED) / ln(BUCKET_RATIO))`,
/// precomputed because `f64::ln` is not const-evaluable and `push` is a
/// per-sample hot path (the unit tests re-derive both from the formula).
const INV_LN_RATIO: f64 = 100.49917080713044;
const MIN_SLOT: f64 = -2083.0;

/// `floor(ln(x) / ln(γ))` offset so the smallest tracked value lands
/// at slot 0.
fn bucket_of(x: f64) -> usize {
    let clamped = x.clamp(MIN_TRACKED, MAX_TRACKED);
    ((clamped.ln() * INV_LN_RATIO).floor() - MIN_SLOT) as usize
}

impl Default for QuantileSketch {
    fn default() -> QuantileSketch {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> QuantileSketch {
        debug_assert!((INV_LN_RATIO - 1.0 / BUCKET_RATIO.ln()).abs() < 1e-12);
        QuantileSketch { counts: vec![0; bucket_of(MAX_TRACKED) + 1], non_positive: 0, total: 0 }
    }

    /// Folds one sample in. Non-finite samples are ignored (they carry
    /// no rank information); non-positive ones count toward the
    /// underflow bucket.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.total += 1;
        if x <= 0.0 {
            self.non_positive += 1;
            return;
        }
        self.counts[bucket_of(x)] += 1;
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) to the sketch's relative
    /// precision; 0 when the sketch is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the order statistic we report (1-based, ceil so q = 1
        // maps to the maximum bucket).
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if rank <= self.non_positive {
            return 0.0;
        }
        let mut seen = self.non_positive;
        for (slot, &n) in self.counts.iter().enumerate() {
            seen += n;
            if n > 0 && seen >= rank {
                // Geometric midpoint of the bucket [γ^i, γ^(i+1)).
                return ((MIN_SLOT + slot as f64 + 0.5) / INV_LN_RATIO).exp();
            }
        }
        // Unreachable: ranks are bounded by the total count.
        0.0
    }

    /// The 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Adds every bucket of `other` into `self` — identical to having
    /// pushed `other`'s samples here.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.non_positive += other.non_positive;
        self.total += other.total;
    }
}

impl Snapshot for QuantileSketch {
    fn snapshot(&self, w: &mut sleepscale_journal::ByteWriter) {
        // Canonical sparse form: the dense grid is ~4.9k slots, nearly
        // all zero in practice, so only non-zero slots travel
        // (ascending slot order — one canonical byte string per value).
        w.put_usize(self.counts.len());
        let non_zero = self.counts.iter().filter(|&&n| n != 0).count();
        w.put_usize(non_zero);
        for (slot, &n) in self.counts.iter().enumerate() {
            if n != 0 {
                w.put_u32(slot as u32);
                w.put_u64(n);
            }
        }
        w.put_u64(self.non_positive);
        w.put_u64(self.total);
    }

    fn restore(
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<QuantileSketch, sleepscale_journal::CodecError> {
        let len = r.get_usize()?;
        let mut sketch = QuantileSketch::new();
        if len != sketch.counts.len() {
            return Err(sleepscale_journal::CodecError::Invalid(format!(
                "sketch grid of {len} slots, this build uses {}",
                sketch.counts.len()
            )));
        }
        let non_zero = r.get_usize()?;
        let mut prev: Option<u32> = None;
        for _ in 0..non_zero {
            let slot = r.get_u32()?;
            if prev.is_some_and(|p| slot <= p) {
                return Err(sleepscale_journal::CodecError::Invalid(
                    "sketch slots out of order".into(),
                ));
            }
            prev = Some(slot);
            let n = r.get_u64()?;
            *sketch.counts.get_mut(slot as usize).ok_or_else(|| {
                sleepscale_journal::CodecError::Invalid(format!("sketch slot {slot} out of range"))
            })? = n;
        }
        sketch.non_positive = r.get_u64()?;
        sketch.total = r.get_u64()?;
        Ok(sketch)
    }
}

/// The scalar half of a [`StreamingSummary`]: exact count, Welford
/// moments, and extrema — no quantile sketch.
///
/// This exists for accumulations that are too numerous to each carry a
/// ~38 KiB sketch (one per server slot of a 100k-server fleet, say):
/// each slot keeps a `ScalarSummary` (~40 bytes), the sketch is kept
/// once per shard, and [`StreamingSummary::from_parts`] reassembles the
/// full summary at the end. A [`StreamingSummary`] pushes and merges
/// through its own `ScalarSummary`, so folding a fixed sequence of
/// `ScalarSummary`s in a fixed order is byte-deterministic regardless
/// of how the observations were distributed across them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalarSummary {
    moments: Moments,
    min: f64,
    max: f64,
}

impl Default for ScalarSummary {
    fn default() -> ScalarSummary {
        ScalarSummary::new()
    }
}

impl ScalarSummary {
    /// An empty accumulator.
    pub fn new() -> ScalarSummary {
        ScalarSummary { moments: Moments::new(), min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Folds one observation in; non-finite observations are ignored
    /// (same rule as [`StreamingSummary::push`]).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.moments.push(x);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.moments.count() == 0
    }

    /// The running mean (0 with no observations).
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        self.moments.variance()
    }

    /// The smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.min
        }
    }

    /// The largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max
        }
    }

    /// Folds another accumulator in, as if its observations had been
    /// pushed here. A merge with an empty `other` is a byte-level no-op,
    /// so interleaving empty accumulators into a fold cannot change the
    /// result.
    pub fn merge(&mut self, other: &ScalarSummary) {
        if other.is_empty() {
            return;
        }
        self.moments.merge(&other.moments);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Snapshot for ScalarSummary {
    fn snapshot(&self, w: &mut sleepscale_journal::ByteWriter) {
        self.moments.snapshot(w);
        // Raw bits: an empty accumulator's ±∞ sentinels must survive.
        w.put_f64(self.min);
        w.put_f64(self.max);
    }

    fn restore(
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<ScalarSummary, sleepscale_journal::CodecError> {
        Ok(ScalarSummary { moments: Moments::restore(r)?, min: r.get_f64()?, max: r.get_f64()? })
    }
}

/// A mergeable, constant-memory replacement for collecting samples into
/// a `Vec` and summarizing at the end: exact count/mean/variance/min/
/// max plus sketched quantiles.
///
/// ```
/// use sleepscale_dist::StreamingSummary;
/// let mut s = StreamingSummary::new();
/// for i in 1..=1000 {
///     s.push(i as f64);
/// }
/// assert_eq!(s.count(), 1000);
/// assert!((s.mean() - 500.5).abs() < 1e-9);
/// assert!((s.quantile(0.95) - 950.0).abs() / 950.0 < 0.01);
/// ```
#[derive(Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StreamingSummary {
    scalar: ScalarSummary,
    sketch: QuantileSketch,
}

/// Prints the flat field list, not the two halves: the report pins hash this text.
impl std::fmt::Debug for StreamingSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingSummary")
            .field("moments", &self.scalar.moments)
            .field("min", &self.scalar.min)
            .field("max", &self.scalar.max)
            .field("sketch", &self.sketch)
            .finish()
    }
}

impl StreamingSummary {
    /// An empty summary.
    pub fn new() -> StreamingSummary {
        StreamingSummary::default()
    }

    /// Assembles a summary from a [`ScalarSummary`] and the matching
    /// [`QuantileSketch`] — the final step of an accumulation that kept
    /// the two halves separate (per-slot scalars, per-shard sketches).
    /// With empty parts this is byte-identical to
    /// [`StreamingSummary::new`], so "no observations" has one canonical
    /// representation however it was produced.
    pub fn from_parts(scalar: ScalarSummary, sketch: QuantileSketch) -> StreamingSummary {
        StreamingSummary { scalar, sketch }
    }

    /// Folds one observation in. Non-finite observations are ignored
    /// entirely (moments, extrema, sketch, and count all skip them) —
    /// one NaN must not poison the mean while the sketch, which drops
    /// it, keeps answering, leaving the two halves disagreeing on the
    /// sample count.
    pub fn push(&mut self, x: f64) {
        self.scalar.push(x);
        self.sketch.push(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.scalar.count()
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.scalar.is_empty()
    }

    /// The running mean (0 with no observations) — exact, not sketched.
    pub fn mean(&self) -> f64 {
        self.scalar.mean()
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        self.scalar.variance()
    }

    /// The smallest observation (0 when empty) — exact.
    pub fn min(&self) -> f64 {
        self.scalar.min()
    }

    /// The largest observation (0 when empty) — exact.
    pub fn max(&self) -> f64 {
        self.scalar.max()
    }

    /// The `q`-quantile from the sketch (±0.5% relative), clamped into
    /// the exact `[min, max]` envelope.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.sketch.quantile(q).clamp(self.scalar.min.min(self.scalar.max), self.scalar.max)
    }

    /// The 95th percentile (sketched).
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Folds another summary in, as if its observations had been pushed
    /// here — the shard-combining step of parallel accumulation.
    pub fn merge(&mut self, other: &StreamingSummary) {
        if other.is_empty() {
            return;
        }
        self.scalar.merge(&other.scalar);
        self.sketch.merge(&other.sketch);
    }
}

impl Snapshot for StreamingSummary {
    fn snapshot(&self, w: &mut sleepscale_journal::ByteWriter) {
        self.scalar.snapshot(w);
        self.sketch.snapshot(w);
    }

    fn restore(
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<StreamingSummary, sleepscale_journal::CodecError> {
        Ok(StreamingSummary {
            scalar: ScalarSummary::restore(r)?,
            sketch: QuantileSketch::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SummaryStats;

    #[test]
    fn matches_exact_summary_on_a_big_stream() {
        // A deterministic pseudo-random-ish stream with a heavy tail.
        let samples: Vec<f64> = (0..50_000)
            .map(|i| 0.01 + ((i * 2_654_435_761_u64 % 10_000) as f64 / 100.0).powi(2) / 100.0)
            .collect();
        let exact = SummaryStats::from_samples(samples.clone()).unwrap();
        let mut s = StreamingSummary::new();
        for &x in &samples {
            s.push(x);
        }
        assert_eq!(s.count() as usize, exact.count());
        assert!((s.mean() - exact.mean()).abs() / exact.mean() < 1e-12);
        assert_eq!(s.min(), exact.min());
        assert_eq!(s.max(), exact.max());
        for q in [0.5, 0.9, 0.95, 0.99] {
            let (approx, truth) = (s.quantile(q), exact.percentile(q));
            assert!(
                (approx - truth).abs() / truth.max(1e-12) < 0.011,
                "q={q}: sketch {approx} vs exact {truth}"
            );
        }
    }

    #[test]
    fn merge_equals_single_stream() {
        let (mut a, mut b, mut whole) =
            (StreamingSummary::new(), StreamingSummary::new(), StreamingSummary::new());
        for i in 0..1_000 {
            let x = 0.1 + (i % 37) as f64 * 0.03;
            whole.push(x);
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.quantile(0.95), whole.quantile(0.95), "sketches merge exactly");
    }

    #[test]
    fn moments_merge_matches_streaming() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut whole = Moments::new();
        let (mut a, mut b) = (Moments::new(), Moments::new());
        for (i, &x) in xs.iter().enumerate() {
            whole.push(x);
            if i < 3 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
        // Merging into an empty accumulator copies; merging empty is a no-op.
        let mut empty = Moments::new();
        empty.merge(&whole);
        assert_eq!(empty.count(), whole.count());
        whole.merge(&Moments::new());
        assert_eq!(whole.count(), 8);
    }

    #[test]
    fn empty_and_degenerate_cases() {
        let s = StreamingSummary::new();
        assert!(s.is_empty());
        assert_eq!((s.mean(), s.min(), s.max(), s.p95()), (0.0, 0.0, 0.0, 0.0));
        // A non-finite sample is ignored by every component at once:
        // count, mean, extrema, and quantiles stay consistent.
        let mut poisoned = StreamingSummary::new();
        poisoned.push(2.0);
        poisoned.push(f64::NAN);
        poisoned.push(f64::INFINITY);
        poisoned.push(4.0);
        assert_eq!(poisoned.count(), 2);
        assert!((poisoned.mean() - 3.0).abs() < 1e-12);
        assert_eq!((poisoned.min(), poisoned.max()), (2.0, 4.0));
        assert!(poisoned.p95().is_finite());
        let mut sk = QuantileSketch::new();
        assert_eq!(sk.quantile(0.5), 0.0);
        sk.push(f64::NAN); // ignored
        assert_eq!(sk.count(), 0);
        sk.push(0.0);
        sk.push(-1.0);
        assert_eq!(sk.count(), 2);
        assert_eq!(sk.quantile(0.5), 0.0, "non-positive samples report as 0");
        sk.push(10.0);
        assert!(sk.quantile(1.0) > 9.0);
    }

    #[test]
    fn precomputed_constants_match_their_formulas() {
        assert!((INV_LN_RATIO - 1.0 / BUCKET_RATIO.ln()).abs() < 1e-12);
        assert_eq!(MIN_SLOT, (MIN_TRACKED.ln() / BUCKET_RATIO.ln()).floor());
        // The dense array covers the top of the tracked range.
        assert_eq!(bucket_of(MAX_TRACKED), 4859);
        assert_eq!(bucket_of(MIN_TRACKED), 0);
        assert_eq!(bucket_of(1e20), bucket_of(MAX_TRACKED), "overflow clamps to the edge");
        assert_eq!(bucket_of(1e-20), 0, "underflow clamps to the edge");
    }

    #[test]
    fn from_parts_of_empty_parts_is_byte_identical_to_new() {
        let assembled = StreamingSummary::from_parts(ScalarSummary::new(), QuantileSketch::new());
        let fresh = StreamingSummary::new();
        assert_eq!(assembled, fresh);
        assert_eq!(assembled.scalar.min.to_bits(), fresh.scalar.min.to_bits());
        assert_eq!(assembled.scalar.max.to_bits(), fresh.scalar.max.to_bits());
    }

    #[test]
    fn default_is_the_empty_summary() {
        let mut defaulted = StreamingSummary::default();
        let mut fresh = StreamingSummary::new();
        for x in [5.0, 7.0] {
            defaulted.push(x);
            fresh.push(x);
        }
        assert_eq!((defaulted.min(), defaulted.max()), (5.0, 7.0));
        assert_eq!(defaulted, fresh);
        let mut merged = StreamingSummary::default();
        merged.merge(&fresh);
        assert_eq!(merged.min(), 5.0, "merging into a default summary keeps the minimum");
        assert_eq!(merged, fresh);
    }

    #[test]
    fn scalar_summary_tracks_streaming_summary_exactly() {
        let (mut scalar, mut sketch, mut full) =
            (ScalarSummary::new(), QuantileSketch::new(), StreamingSummary::new());
        for i in 0..2_000 {
            let x = match i % 7 {
                0 => f64::NAN,
                1 => -0.5,
                _ => 0.01 + (i % 101) as f64 * 0.13,
            };
            scalar.push(x);
            sketch.push(x);
            full.push(x);
        }
        let assembled = StreamingSummary::from_parts(scalar, sketch);
        // `full` pushed into one accumulator; the split halves pushed the
        // identical float-op stream, so reassembly is byte-equal.
        assert_eq!(assembled, full);
        assert_eq!(scalar.count(), full.count());
        assert_eq!(scalar.mean().to_bits(), full.mean().to_bits());
        assert_eq!(scalar.variance().to_bits(), full.variance().to_bits());
        assert_eq!(scalar.min(), full.min());
        assert_eq!(scalar.max(), full.max());
    }

    #[test]
    fn scalar_merge_with_empty_is_a_byte_level_no_op() {
        let mut s = ScalarSummary::new();
        s.push(3.25);
        s.push(0.5);
        let before = s;
        s.merge(&ScalarSummary::new());
        assert_eq!(s.mean().to_bits(), before.mean().to_bits());
        assert_eq!(s.min.to_bits(), before.min.to_bits());
        assert_eq!(s.max.to_bits(), before.max.to_bits());
        // And merging *into* an empty one copies the bytes verbatim.
        let mut empty = ScalarSummary::new();
        empty.merge(&before);
        assert_eq!(empty.mean().to_bits(), before.mean().to_bits());
        assert_eq!(empty.count(), before.count());
    }

    #[test]
    fn quantile_honors_rank_semantics() {
        let mut s = StreamingSummary::new();
        for x in [1.0, 2.0, 3.0, 4.0, 100.0] {
            s.push(x);
        }
        // q=1 is the max; q=0 the min bucket (clamped to exact bounds).
        assert!((s.quantile(1.0) - 100.0).abs() / 100.0 < 0.011);
        assert!((s.quantile(0.0) - 1.0).abs() < 0.02);
    }
}
