//! Deterministic arrival-stream splitting for sharded fleet engines.
//!
//! A sharded cluster simulates disjoint server partitions concurrently,
//! so each arrival's partition must be known before it is simulated —
//! and must be a pure function of the scenario seed and the job's
//! identity, never of timing, thread scheduling, or shard count
//! bookkeeping. [`StreamSplit`] is that
//! function: a seeded [SplitMix64] hash of the job's *sequence number*
//! (not the full id, so re-tagging a stream with traffic classes cannot
//! move any job between shards) mapped onto `lanes` shards by a
//! multiply-shift. The induced split is a partition — every job lands
//! in exactly one lane, and walking the stream forward preserves
//! arrival order within each lane — which is what makes per-shard
//! simulation equivalent to one shard-local arrival process.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use crate::job::Job;

/// A seeded, pure-function router from jobs to shard lanes.
///
/// ```
/// use sleepscale_sim::{Job, StreamSplit};
/// let split = StreamSplit::new(42);
/// let job = Job { id: 7, arrival: 1.0, size: 0.1 };
/// let lane = split.lane_of(&job, 4);
/// assert!(lane < 4);
/// // The lane is a function of (seed, sequence) only.
/// assert_eq!(lane, split.lane(7, 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSplit {
    seed: u64,
}

/// The SplitMix64 output function over `seed ⊕ (sequence · φ)`: a full
/// 64-bit avalanche, so consecutive sequence numbers land on
/// uncorrelated lanes and distinct seeds induce independent splits.
fn mix(seed: u64, sequence: u64) -> u64 {
    let mut z = seed ^ sequence.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl StreamSplit {
    /// A splitter for the given scenario seed.
    pub fn new(seed: u64) -> StreamSplit {
        StreamSplit { seed }
    }

    /// The seed this splitter routes with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The lane (`< lanes`) for a job sequence number. `lanes` is
    /// clamped to at least 1; with one lane every job routes to lane 0.
    pub fn lane(&self, sequence: u64, lanes: usize) -> usize {
        let lanes = lanes.max(1);
        // Multiply-shift range reduction: uniform over [0, lanes) and
        // strictly less than `lanes` by construction (no modulo bias
        // worth caring about at fleet-sized lane counts).
        ((mix(self.seed, sequence) as u128 * lanes as u128) >> 64) as usize
    }

    /// The lane for a job — routes on [`Job::sequence`], so the class
    /// tag in the id's high bits never influences placement.
    pub fn lane_of(&self, job: &Job, lanes: usize) -> usize {
        self.lane(job.sequence(), lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ClassId;

    fn lanes(split: StreamSplit, n: u64, lanes: usize) -> Vec<usize> {
        (0..n).map(|seq| split.lane(seq, lanes)).collect()
    }

    #[test]
    fn every_lane_is_in_range() {
        for lanes in [1, 2, 4, 7, 64] {
            let split = StreamSplit::new(2203);
            assert!((0..10_000u64).all(|seq| split.lane(seq, lanes) < lanes), "{lanes} lanes");
        }
    }

    #[test]
    fn one_lane_is_the_identity_stream() {
        assert!(lanes(StreamSplit::new(7), 100, 1).iter().all(|&l| l == 0));
        // lanes = 0 clamps to 1.
        assert!(lanes(StreamSplit::new(7), 100, 0).iter().all(|&l| l == 0));
    }

    #[test]
    fn class_tags_never_move_a_job() {
        let split = StreamSplit::new(99);
        for seq in 0..5_000u64 {
            let plain = Job { id: seq, arrival: 0.0, size: 0.1 };
            let tagged = plain.with_class(ClassId(7));
            assert_eq!(split.lane_of(&plain, 13), split.lane_of(&tagged, 13));
        }
    }

    #[test]
    fn lanes_are_reasonably_balanced() {
        let n = 100_000;
        let mut counts = [0usize; 8];
        for lane in lanes(StreamSplit::new(1), n, 8) {
            counts[lane] += 1;
        }
        let expected = n as f64 / 8.0;
        for count in counts {
            let dev = (count as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "lane holds {count} jobs, expected ~{expected}");
        }
    }

    #[test]
    fn split_is_a_pure_function_of_the_seed() {
        let a = lanes(StreamSplit::new(5), 1_000, 4);
        assert_eq!(a, lanes(StreamSplit::new(5), 1_000, 4));
        let c = lanes(StreamSplit::new(6), 1_000, 4);
        assert_ne!(a, c, "distinct seeds should induce distinct splits");
    }
}
