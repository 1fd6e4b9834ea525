//! Property tests for the deterministic arrival-stream splitter: the
//! sharded engine's correctness rests on every job's lane being in
//! range and a pure function of (seed, sequence number) for arbitrary
//! streams — tagged or untagged — and lane counts.

use proptest::prelude::*;
use rand::SeedableRng;
use sleepscale_sim::{generator, ClassId, Job, JobStream, StreamSplit};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every job's lane is below the lane count and equals the lane of
    /// its sequence number, however often it is asked. Holds for any
    /// seed, lane count, and stream.
    #[test]
    fn lanes_are_in_range_and_pure(
        n_jobs in 0usize..2_000,
        lanes in 1usize..16,
        split_seed in 0u64..1_000_000,
        stream_seed in 0u64..100_000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(stream_seed);
        let jobs = generator::generate_poisson_exp(n_jobs.max(1), 0.3, 0.194, &mut rng).unwrap();
        let jobs = &jobs.jobs()[..n_jobs.min(jobs.len())];
        let split = StreamSplit::new(split_seed);
        for job in jobs {
            let lane = split.lane_of(job, lanes);
            prop_assert!(lane < lanes, "lane {} of {}", lane, lanes);
            prop_assert_eq!(lane, split.lane(job.sequence(), lanes));
            prop_assert_eq!(lane, StreamSplit::new(split_seed).lane_of(job, lanes));
        }
    }

    /// Tagging a stream with arbitrary traffic classes changes no job's
    /// lane: the router reads the sequence number, not the id.
    #[test]
    fn class_tags_are_invisible_to_the_split(
        n_jobs in 1usize..500,
        lanes in 1usize..12,
        split_seed in 0u64..1_000_000,
        classes in proptest::collection::vec(0u16..8, 1..500),
    ) {
        let untagged: Vec<Job> =
            (0..n_jobs).map(|i| Job { id: i as u64, arrival: i as f64, size: 0.1 }).collect();
        let tagged: Vec<Job> = untagged
            .iter()
            .enumerate()
            .map(|(i, j)| j.with_class(ClassId(classes[i % classes.len()])))
            .collect();
        let split = StreamSplit::new(split_seed);
        for (plain, tagged) in untagged.iter().zip(&tagged) {
            prop_assert_eq!(split.lane_of(plain, lanes), split.lane_of(tagged, lanes));
        }
        let s = JobStream::new(tagged).unwrap();
        prop_assert!(s.len() == n_jobs); // keep the stream constructor exercised
    }
}
