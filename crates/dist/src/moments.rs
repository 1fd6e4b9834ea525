//! Streaming moment accumulation and order-statistic summaries.

use serde::{Deserialize, Serialize};

/// A streaming (Welford) accumulator for count, mean, and variance —
/// used wherever the harness measures a generator against Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Moments {
    /// An empty accumulator.
    pub fn new() -> Moments {
        Moments::default()
    }

    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The running mean (0 with no observations).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation `σ/µ` (0 for a zero mean).
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean
        }
    }

    /// Second raw moment `E[X²]`.
    pub fn second_moment(&self) -> f64 {
        self.variance() + self.mean * self.mean
    }

    /// Folds another accumulator in (Chan et al.'s pairwise update), as
    /// if every observation of `other` had been pushed into `self`.
    /// Exact in the same sense as [`Moments::push`]: the combined count,
    /// mean, and M2 match the streaming result up to rounding.
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let w = other.n as f64 / n as f64;
        self.mean += delta * w;
        self.m2 += other.m2 + delta * delta * w * self.n as f64;
        self.n = n;
    }
}

impl sleepscale_journal::Snapshot for Moments {
    fn snapshot(&self, w: &mut sleepscale_journal::ByteWriter) {
        w.put_u64(self.n);
        w.put_f64(self.mean);
        w.put_f64(self.m2);
    }

    fn restore(
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<Moments, sleepscale_journal::CodecError> {
        Ok(Moments { n: r.get_u64()?, mean: r.get_f64()?, m2: r.get_f64()? })
    }
}

/// Order statistics over a frozen set of samples: mean, percentiles,
/// and exceedance fractions.
///
/// This is the response-time summary every layer above the simulator
/// consumes — `E[R]`, the 95th percentile, and the paper's
/// `Pr(R ≥ d)` QoS checks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Samples in ascending order.
    sorted: Vec<f64>,
    mean: f64,
}

impl SummaryStats {
    /// Summarizes `samples`; returns `None` when the iterator is empty
    /// (no jobs ran — callers degrade to zeros).
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Option<SummaryStats> {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
        Some(SummaryStats::summarize(sorted))
    }

    /// Summarizes samples that are already in ascending numeric order,
    /// copying them once instead of collecting and re-sorting; returns
    /// `None` for an empty slice. For such input the result equals
    /// [`SummaryStats::from_samples`]' bit for bit.
    ///
    /// The caller guarantees the precondition: no NaN, and
    /// `sorted[i] <= sorted[i + 1]` throughout. Debug builds check it;
    /// release builds trust it, and a violation gives wrong order
    /// statistics rather than a panic.
    ///
    /// ```
    /// use sleepscale_dist::SummaryStats;
    /// let sorted = SummaryStats::from_sorted_samples(&[1.0, 2.0, 2.0, 5.0]).unwrap();
    /// assert_eq!(Some(sorted), SummaryStats::from_samples([2.0, 5.0, 1.0, 2.0]));
    /// ```
    pub fn from_sorted_samples(sorted: &[f64]) -> Option<SummaryStats> {
        if sorted.is_empty() {
            return None;
        }
        debug_assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "samples must be in ascending order without NaN"
        );
        Some(SummaryStats::summarize(sorted.to_vec()))
    }

    /// The summary of non-empty samples in ascending order: they are
    /// summed in that order for the mean.
    fn summarize(sorted: Vec<f64>) -> SummaryStats {
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        SummaryStats { sorted, mean }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// The largest sample.
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), linearly interpolated between
    /// order statistics.
    pub fn percentile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.sorted[lo]
        } else {
            let frac = pos - lo as f64;
            self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
        }
    }

    /// The 95th percentile.
    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// The empirical exceedance `Pr(X ≥ threshold)`.
    pub fn fraction_at_least(&self, threshold: f64) -> f64 {
        let below = self.sorted.partition_point(|&x| x < threshold);
        (self.sorted.len() - below) as f64 / self.sorted.len() as f64
    }

    /// All samples in ascending order.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass_results() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = Moments::new();
        for &x in &xs {
            m.push(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        // Two-pass sample variance: Σ(x−5)² / 7 = 32/7.
        assert!((m.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert!((m.cv() - (32.0f64 / 7.0).sqrt() / 5.0).abs() < 1e-12);
        assert!((m.second_moment() - (32.0 / 7.0 + 25.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_moment_edge_cases() {
        let m = Moments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.cv(), 0.0);
        let mut one = Moments::new();
        one.push(3.0);
        assert_eq!(one.variance(), 0.0);
        assert_eq!(one.mean(), 3.0);
    }

    #[test]
    fn summary_stats_order_statistics() {
        let s = SummaryStats::from_samples(vec![5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.count(), 5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert_eq!(s.percentile(0.5), 3.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 5.0);
        // p95 interpolates between the 4th and 5th order statistics.
        assert!((s.p95() - 4.8).abs() < 1e-12);
        assert_eq!(s.sorted(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn exceedance_counts_inclusive_threshold() {
        let s = SummaryStats::from_samples(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.fraction_at_least(2.0), 0.75);
        assert_eq!(s.fraction_at_least(4.5), 0.0);
        assert_eq!(s.fraction_at_least(0.0), 1.0);
    }

    #[test]
    fn empty_samples_yield_none() {
        assert!(SummaryStats::from_samples(std::iter::empty()).is_none());
        assert!(SummaryStats::from_sorted_samples(&[]).is_none());
    }

    /// Sorted input summarizes to the same bits as the collecting,
    /// re-sorting constructor, ties and zeros included.
    #[test]
    fn presorted_samples_match_from_samples() {
        let samples = [0.3, 0.0, 7.25, 0.1 + 0.2, 0.3, 1e-300, 0.0, 42.0];
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(SummaryStats::from_sorted_samples(&sorted), SummaryStats::from_samples(samples));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ascending order")]
    fn presorted_samples_out_of_order_panic_in_debug() {
        SummaryStats::from_sorted_samples(&[2.0, 1.0]);
    }
}
