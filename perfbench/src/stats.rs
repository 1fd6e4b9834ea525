//! Order statistics and clock calibration.

use std::hint::black_box;
use std::time::Instant;

/// The median of `values` (the mean of the middle two for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Percentiles the tail is chosen from, in increasing order, in parts
/// per ten thousand (integer ranks avoid rounding at the boundaries).
const TAIL_LADDER: [usize; 4] = [9_000, 9_900, 9_990, 9_999];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// A tail reading: which percentile, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, as a fraction (0.99 is p99).
    pub quantile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of `values` with at least ten samples beyond
/// it, taken from p90, p99, p99.9 and p99.99. `None` when even p90 has
/// fewer than ten samples beyond it (fewer than 100 samples).
///
/// The percentile is the nearest-rank sample: the `q`-quantile of `n`
/// sorted samples is the one at rank `ceil(q·n)`, and the samples beyond
/// it are the `n − ceil(q·n)` after it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_LADDER
        .iter()
        .rev()
        .find_map(|&q| {
            let rank = (q * n).div_ceil(10_000).max(1);
            (rank <= n && n - rank >= TAIL_MIN_BEYOND).then(|| (q, sorted[rank - 1]))
        })
        .map(|(q, value)| Tail { quantile: q as f64 / 10_000.0, value, samples: n })
}

/// The median reading, in nanoseconds, of an empty timed region: two
/// back-to-back `Instant::now()` calls. Sampled timings subtract it so
/// that a cheap call's reading is not mostly clock.
pub fn clock_pair_ns() -> f64 {
    const PAIRS: usize = 20_000;
    let mut readings = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        let start = Instant::now();
        let end = black_box(Instant::now());
        readings.push(end.duration_since(start).as_nanos() as f64);
    }
    median(&readings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 99 samples: p90 is rank 90 with 9 beyond it — not enough.
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&short), None);
        // 100 samples: p90 (rank 90, value 90) has exactly 10 beyond.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some(Tail { quantile: 0.9, value: 90.0, samples: 100 }));
        // 1 000 samples: p99 (rank 990) has exactly 10 beyond.
        let thousand: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        assert_eq!(tail(&thousand), Some(Tail { quantile: 0.99, value: 990.0, samples: 1_000 }));
        // 20 000 samples: p99.9 has 20 beyond, p99.99 only 2.
        let many: Vec<f64> = (1..=20_000).map(f64::from).collect();
        let t = tail(&many).unwrap();
        assert_eq!((t.quantile, t.value), (0.999, 19_980.0));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn clock_pair_is_positive_and_small() {
        let ns = clock_pair_ns();
        assert!(ns > 0.0 && ns < 100_000.0, "{ns}");
    }
}
