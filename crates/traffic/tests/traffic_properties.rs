//! Property suite tying the tagged-draw subsystem to the old
//! moment-composed `Mix` semantics: a tagged mixture's *realized*
//! per-stream moments must converge to what `mix_moments` composes
//! from the class statistics — the two representations describe the
//! same population, they just differ in whether identity survives.
//! It also pins `replay_traffic` to a reference implementation with
//! per-class buffers and an explicit k-way merge, bit for bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sleepscale_dist::Moments;
use sleepscale_sim::{pack_id, ClassId, Job};
use sleepscale_traffic::{
    mix_moments, replay_traffic, ArrivalModulator, TrafficClass, TrafficModel,
};
use sleepscale_workloads::{ReplayConfig, UtilizationTrace, WorkloadDistributions, WorkloadSpec};

fn realized_size_moments(model: &TrafficModel, seed: u64) -> (Moments, Vec<Moments>) {
    let trace = UtilizationTrace::constant(0.5, 180).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let tables = model.empirical_tables(6_000, &mut rng).unwrap();
    let jobs = replay_traffic(&trace, model, &tables, &ReplayConfig::default(), &mut rng).unwrap();
    let mut overall = Moments::new();
    let mut per_class = vec![Moments::new(); model.len()];
    for job in jobs.jobs() {
        overall.push(job.size);
        per_class[job.class().as_index()].push(job.size);
    }
    (overall, per_class)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A two-class tagged stream's realized size mean and Cv converge
    /// to the moment-level composition `WorkloadSource::Mix` would
    /// have collapsed the classes into, while each class's own sizes
    /// still follow its own spec — the moment identity the subsystem
    /// must preserve and the per-class identity it must add.
    #[test]
    fn tagged_mixture_converges_to_mix_moments(
        mean_a in 0.05_f64..0.4,
        mean_b in 0.05_f64..0.4,
        cv_a in 0.5_f64..2.0,
        cv_b in 0.5_f64..2.0,
        weight_a in 0.25_f64..4.0,
        seed in 0_u64..1_000,
    ) {
        let spec_a = WorkloadSpec::new("a", 1.0, 1.0, mean_a, cv_a).unwrap();
        let spec_b = WorkloadSpec::new("b", 1.0, 1.0, mean_b, cv_b).unwrap();
        let model = TrafficModel::new(vec![
            TrafficClass::new("a", spec_a, weight_a),
            TrafficClass::new("b", spec_b, 1.0),
        ]).unwrap();

        let w = weight_a / (weight_a + 1.0);
        let (mix_mean, mix_cv) =
            mix_moments(&[(w, mean_a, cv_a), (1.0 - w, mean_b, cv_b)]);
        // The model's own composition is the same formula.
        let composed = model.composed_spec().unwrap();
        prop_assert!((composed.service_mean() - mix_mean).abs() / mix_mean < 1e-12);
        prop_assert!((composed.service_cv() - mix_cv).abs() / mix_cv.max(1e-9) < 1e-9);

        let (overall, per_class) = realized_size_moments(&model, seed);
        prop_assert!(overall.count() > 5_000, "only {} jobs realized", overall.count());
        // Realized mixture moments sit near the composition (empirical
        // tables + finite streams: allow a few Monte-Carlo percent).
        prop_assert!(
            (overall.mean() - mix_mean).abs() / mix_mean < 0.08,
            "realized mixture mean {} vs composed {mix_mean}", overall.mean()
        );
        prop_assert!(
            (overall.cv() - mix_cv).abs() / mix_cv.max(0.5) < 0.2,
            "realized mixture Cv {} vs composed {mix_cv}", overall.cv()
        );
        // Per-class sizes follow each class's own law — the identity
        // the moment-composed Mix erases.
        prop_assert!((per_class[0].mean() - mean_a).abs() / mean_a < 0.12,
            "class a mean {} vs {mean_a}", per_class[0].mean());
        prop_assert!((per_class[1].mean() - mean_b).abs() / mean_b < 0.12,
            "class b mean {} vs {mean_b}", per_class[1].mean());
        // And the job-count split follows the weights.
        let share = per_class[0].count() as f64 / overall.count() as f64;
        prop_assert!((share - w).abs() < 0.06, "class a share {share} vs weight {w}");
    }

    /// Replay is a pure function of (model, trace, seed): repeated
    /// generation is byte-identical.
    #[test]
    fn tagged_replay_is_reproducible(seed in 0_u64..1_000) {
        let model = TrafficModel::new(vec![
            TrafficClass::new("dns", WorkloadSpec::dns(), 2.0),
            TrafficClass::new("mail", WorkloadSpec::mail(), 1.0),
        ]).unwrap();
        let trace = UtilizationTrace::constant(0.3, 45).unwrap();
        let make = || {
            let mut rng = StdRng::seed_from_u64(seed);
            let tables = model.empirical_tables(2_000, &mut rng).unwrap();
            replay_traffic(&trace, &model, &tables, &ReplayConfig::default(), &mut rng).unwrap()
        };
        prop_assert_eq!(make(), make());
    }
}

/// Reference tagged replay: each class fills its own `(arrival, size)`
/// buffer with its own copy of the arrival clock (60 s samples, no
/// arrivals below utilization 1e-4, `rate_multiplier` the fleet size),
/// then a k-way merge interleaves the buffers by arrival, ties going to
/// the lower class, and numbers the merged jobs in order.
/// `replay_traffic` must return this stream and leave the RNG in the
/// same state.
fn reference_replay(
    trace: &UtilizationTrace,
    model: &TrafficModel,
    tables: &[WorkloadDistributions],
    rate_multiplier: f64,
    rng: &mut dyn RngCore,
) -> Vec<Job> {
    let (seconds_per_sample, min_utilization) = (60.0, 1e-4);
    let weights = model.normalized_weights();
    let mix_mean = model.composed_spec().unwrap().service_mean();

    let mut per_class: Vec<Vec<(f64, f64)>> = Vec::with_capacity(model.classes.len());
    for (c, class) in model.classes.iter().enumerate() {
        let dists = &tables[c];
        let ia = dists.interarrival();
        let sv = dists.service();
        let ia_mean = ia.mean();
        let sv_scale = class.spec.service_mean() / sv.mean().max(1e-300);
        let share = weights[c] * class.spec.service_mean() / mix_mean;

        let mut pairs = Vec::new();
        let mut t = 0.0_f64;
        for (m, &rho) in trace.values().iter().enumerate() {
            let sample_start = m as f64 * seconds_per_sample;
            let sample_end = sample_start + seconds_per_sample;
            let rho_class = rho * share * class.rate_factor(m);
            if rho_class < min_utilization {
                t = t.max(sample_end);
                continue;
            }
            let target_ia = class.spec.service_mean() / (rho_class * rate_multiplier.max(1e-9));
            let scale = target_ia / ia_mean;
            if t < sample_start {
                t = sample_start;
            }
            loop {
                let gap = ia.sample(rng) * scale;
                let next = t + gap;
                if next >= sample_end {
                    t = next;
                    break;
                }
                t = next;
                pairs.push((t, sv.sample(rng) * sv_scale));
            }
        }
        per_class.push(pairs);
    }

    let total: usize = per_class.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    let mut idx = vec![0usize; per_class.len()];
    let mut seq = 0u64;
    while seq < total as u64 {
        let mut best = usize::MAX;
        for (c, pairs) in per_class.iter().enumerate() {
            if idx[c] < pairs.len()
                && (best == usize::MAX || pairs[idx[c]].0 < per_class[best][idx[best]].0)
            {
                best = c;
            }
        }
        let (arrival, size) = per_class[best][idx[best]];
        merged.push(Job { id: pack_id(seq, ClassId(best as u16)), arrival, size });
        idx[best] += 1;
        seq += 1;
    }
    merged
}

/// A constant-gap population: two classes of it with equal shares
/// arrive at exactly the same instants.
fn deterministic_spec() -> WorkloadSpec {
    WorkloadSpec::new("det", 1.0, 0.0, 0.05, 0.0).unwrap()
}

/// A valid model of 1–4 classes drawn from `rng`: Table-5 and
/// constant-gap populations, weights that may be 0, and up to two
/// modulators per class (bursts whose factor may be 0, diurnal
/// swings, constant scales).
fn random_model(rng: &mut StdRng, minutes: usize) -> TrafficModel {
    let pool = [WorkloadSpec::dns(), WorkloadSpec::mail(), deterministic_spec()];
    loop {
        let classes = (0..rng.gen_range(1..5usize))
            .map(|i| {
                let spec = pool[rng.gen_range(0..pool.len())].clone();
                let weight = if rng.gen_bool(0.25) { 0.0 } else { rng.gen_range(0.1..3.0) };
                let mut class = TrafficClass::new(format!("c{i}"), spec, weight);
                for _ in 0..rng.gen_range(0..3usize) {
                    let modulator = match rng.gen_range(0..3u32) {
                        0 => {
                            let start_minute = rng.gen_range(0..minutes);
                            ArrivalModulator::Burst {
                                start_minute,
                                end_minute: start_minute + rng.gen_range(1..minutes),
                                factor: if rng.gen_bool(0.3) {
                                    0.0
                                } else {
                                    rng.gen_range(0.5..4.0)
                                },
                            }
                        }
                        1 => ArrivalModulator::Diurnal {
                            amplitude: rng.gen_range(0.0..1.0),
                            peak_minute: rng.gen_range(0..1440usize),
                        },
                        _ => ArrivalModulator::Scale { factor: rng.gen_range(0.0..3.0) },
                    };
                    class = class.with_modulator(modulator);
                }
                class
            })
            .collect();
        if let Ok(model) = TrafficModel::new(classes) {
            return model;
        }
    }
}

/// Replays `model` both ways from the same seed; asserts the streams
/// and the final RNG states agree, and returns the stream.
fn assert_matches_reference(
    trace: &UtilizationTrace,
    model: &TrafficModel,
    fleet: usize,
    seed: u64,
) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tables = model.empirical_tables(500, &mut rng).unwrap();
    let mut reference_rng = rng.clone();
    let jobs =
        replay_traffic(trace, model, &tables, &ReplayConfig::for_fleet(fleet), &mut rng).unwrap();
    let reference = reference_replay(trace, model, &tables, fleet as f64, &mut reference_rng);
    assert_eq!(jobs.jobs(), reference.as_slice(), "stream differs from the reference");
    assert_eq!(rng, reference_rng, "RNG left in a different state");
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random models, schedules (with idle minutes) and fleet sizes:
    /// the shared arrival clock plus the stable-sort interleave is the
    /// reference replay, bit for bit, RNG state included.
    #[test]
    fn replay_traffic_matches_the_reference_merge(seed in 0_u64..1_000_000, fleet in 1_usize..5) {
        let minutes = 30;
        let mut rng = StdRng::seed_from_u64(seed);
        let model = random_model(&mut rng, minutes);
        let values: Vec<f64> = (0..minutes)
            .map(|_| if rng.gen_bool(0.15) { 0.0 } else { rng.gen_range(0.0..0.9) })
            .collect();
        let trace = UtilizationTrace::new("random", values).unwrap();
        assert_matches_reference(&trace, &model, fleet, seed);
    }
}

/// Two identical constant-gap classes arrive at the same instants, so
/// every arrival is a tie; the lower class goes first, as in the
/// reference merge.
#[test]
fn arrival_ties_go_to_the_lower_class() {
    let model = TrafficModel::new(vec![
        TrafficClass::new("a", deterministic_spec(), 1.0),
        TrafficClass::new("b", deterministic_spec(), 1.0),
    ])
    .unwrap();
    let trace = UtilizationTrace::constant(0.4, 10).unwrap();
    let jobs = assert_matches_reference(&trace, &model, 2, 5);
    assert!(jobs.len() > 100);
    for pair in jobs.chunks_exact(2) {
        assert_eq!(pair[0].arrival, pair[1].arrival);
        assert_eq!((pair[0].class(), pair[1].class()), (ClassId(0), ClassId(1)));
    }
}
