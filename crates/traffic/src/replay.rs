//! Class-tagged trace replay: one
//! [`sleepscale_workloads::replay_class`] pass per class, interleaved
//! by arrival.
//!
//! Each class replays the utilization schedule through its *own*
//! inter-arrival and service tables (its share of the offered load is
//! its job-count weight times its size share). A stable sort by arrival
//! interleaves the classes, ties going to the lower class, and each job
//! keeps its class tag. A single-class model is one `replay_class` pass
//! at the trace's own utilization with the default tag: exactly
//! [`sleepscale_workloads::replay_trace`], so its stream is
//! **byte-identical** to the untagged replay of the same spec. That is
//! how every untagged scenario source replays.

use crate::error::TrafficError;
use crate::model::TrafficModel;
use rand::RngCore;
use sleepscale_sim::{pack_id, JobStream};
use sleepscale_workloads::{replay_class, ReplayConfig, UtilizationTrace, WorkloadDistributions};

impl TrafficModel {
    /// Synthesizes one BigHouse-substitute empirical table pair per
    /// class, in class order, from a single RNG — the tagged
    /// counterpart of `WorkloadDistributions::empirical` over a
    /// composed spec (and, for a single-class model, exactly that call).
    ///
    /// # Errors
    ///
    /// Propagates model-validation and fitting errors.
    pub fn empirical_tables(
        &self,
        table_size: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<WorkloadDistributions>, TrafficError> {
        self.validate()?;
        self.classes
            .iter()
            .map(|c| WorkloadDistributions::empirical(&c.spec, table_size, rng).map_err(Into::into))
            .collect()
    }
}

/// Builds the class-tagged ground-truth job stream for a utilization
/// trace: class `i` draws arrivals and sizes from `tables[i]`
/// (sampling the RNG one full class at a time, in class order), its
/// per-minute arrival rate is `weightᵢ · ρ(m) · modulatorᵢ(m)` of the
/// mixture's total, and the interleaved stream tags every job with its
/// class.
///
/// The trace's `ρ(m)` stays the *mixture's* offered utilization: the
/// per-class target inter-arrival is chosen so the classes' offered
/// work sums back to `ρ(m) · rate_multiplier` when every modulator is
/// 1 (bursts deliberately push beyond the schedule — that is what a
/// flash crowd is).
///
/// # Errors
///
/// Returns [`TrafficError::InvalidModel`] when `tables` does not match
/// the model's classes (a different count, or a table synthesized for
/// another spec), and propagates stream-assembly errors.
pub fn replay_traffic(
    trace: &UtilizationTrace,
    model: &TrafficModel,
    tables: &[WorkloadDistributions],
    config: &ReplayConfig,
    rng: &mut dyn RngCore,
) -> Result<JobStream, TrafficError> {
    model.validate()?;
    if !tables.iter().map(WorkloadDistributions::spec).eq(model.classes.iter().map(|c| &c.spec)) {
        return Err(TrafficError::InvalidModel {
            reason: format!(
                "distribution tables for {:?} do not match the classes' specs {:?} — synthesize \
                 with TrafficModel::empirical_tables",
                tables.iter().map(|t| t.spec().name()).collect::<Vec<_>>(),
                model.classes.iter().map(|c| c.spec.name()).collect::<Vec<_>>(),
            ),
        });
    }
    let weights = model.normalized_weights();
    let mix_mean = model.composed_spec()?.service_mean();

    // Classes consume the shared RNG sequentially (class 0's whole
    // day, then class 1's, …), which is what makes the single-class
    // model consume it identically to the untagged path.
    let mut jobs = Vec::new();
    for (c, (class, dists)) in model.classes.iter().zip(tables).enumerate() {
        // The class's share of the mixture's offered *work* is its
        // job-count weight times its size share.
        let share = weights[c] * class.spec.service_mean() / mix_mean;
        let utilization = |m: usize, rho: f64| rho * share * class.rate_factor(m);
        replay_class(trace, dists, utilization, model.class_id(c), config, rng, &mut jobs);
    }
    if model.len() > 1 {
        // Each class's run is already in arrival order (one class is
        // the whole stream, numbered), so a stable sort interleaves
        // them with ties going to the lower class; then the global
        // sequence numbers follow arrival order.
        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        for (seq, job) in jobs.iter_mut().enumerate() {
            job.id = pack_id(seq as u64, job.class());
        }
    }
    JobStream::new(jobs).map_err(TrafficError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ArrivalModulator, TrafficClass};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sleepscale_sim::{ClassId, Job};
    use sleepscale_workloads::{replay_trace, WorkloadSpec};

    /// The heart of the tentpole's parity guarantee: a single-class
    /// tagged replay is byte-identical to the untagged replay of the
    /// same spec under the same seed.
    #[test]
    fn single_class_replay_matches_untagged_byte_for_byte() {
        for spec in [WorkloadSpec::dns(), WorkloadSpec::mail()] {
            let trace = sleepscale_workloads::traces::email_store(1, 5).window(400, 520);
            let config = ReplayConfig::for_fleet(3);

            let mut rng = StdRng::seed_from_u64(99);
            let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).unwrap();
            let untagged = replay_trace(&trace, &dists, &config, &mut rng).unwrap();

            let model = TrafficModel::single(spec.clone());
            let mut rng = StdRng::seed_from_u64(99);
            let tables = model.empirical_tables(4_000, &mut rng).unwrap();
            let tagged = replay_traffic(&trace, &model, &tables, &config, &mut rng).unwrap();

            assert_eq!(tagged, untagged, "{}: tagged single-class stream drifted", spec.name());
            assert!(!tagged.is_tagged());
        }
    }

    #[test]
    fn two_class_stream_interleaves_by_weight_and_draws_per_class_sizes() {
        let model = TrafficModel::new(vec![
            TrafficClass::new("dns", WorkloadSpec::dns(), 2.0),
            TrafficClass::new("mail", WorkloadSpec::mail(), 1.0),
        ])
        .unwrap();
        let trace = UtilizationTrace::constant(0.4, 240).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let tables = model.empirical_tables(8_000, &mut rng).unwrap();
        let jobs =
            replay_traffic(&trace, &model, &tables, &ReplayConfig::default(), &mut rng).unwrap();
        assert!(jobs.is_tagged());

        let (mut counts, mut size_sums) = ([0usize; 2], [0.0f64; 2]);
        for job in jobs.jobs() {
            let c = job.class().as_index();
            assert!(c < 2);
            counts[c] += 1;
            size_sums[c] += job.size;
        }
        // Job-count shares follow the weights.
        let share = counts[0] as f64 / (counts[0] + counts[1]) as f64;
        assert!((share - 2.0 / 3.0).abs() < 0.04, "dns share {share}");
        // Sizes come from each class's own service law, not the
        // moment-composed mixture.
        let dns_mean = size_sums[0] / counts[0] as f64;
        let mail_mean = size_sums[1] / counts[1] as f64;
        assert!((dns_mean - 0.194).abs() / 0.194 < 0.1, "dns mean size {dns_mean}");
        assert!((mail_mean - 0.092).abs() / 0.092 < 0.1, "mail mean size {mail_mean}");
        // Offered work matches the schedule: total work / horizon ≈ ρ.
        let rho = jobs.jobs().iter().map(|j| j.size).sum::<f64>() / (240.0 * 60.0);
        assert!((rho - 0.4).abs() < 0.04, "measured ρ {rho}");
    }

    #[test]
    fn burst_modulator_concentrates_a_class_into_its_window() {
        let model = TrafficModel::new(vec![
            TrafficClass::new("steady", WorkloadSpec::dns(), 1.0),
            TrafficClass::new("crowd", WorkloadSpec::dns(), 1.0).with_modulator(
                ArrivalModulator::Burst { start_minute: 60, end_minute: 120, factor: 4.0 },
            ),
        ])
        .unwrap();
        let trace = UtilizationTrace::constant(0.3, 180).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let tables = model.empirical_tables(6_000, &mut rng).unwrap();
        let jobs =
            replay_traffic(&trace, &model, &tables, &ReplayConfig::default(), &mut rng).unwrap();
        let in_window = |j: &Job| (3600.0..7200.0).contains(&j.arrival);
        let crowd: Vec<&Job> = jobs.jobs().iter().filter(|j| j.class() == ClassId(1)).collect();
        let steady: Vec<&Job> = jobs.jobs().iter().filter(|j| j.class() == ClassId(0)).collect();
        let crowd_in = crowd.iter().filter(|j| in_window(j)).count() as f64 / crowd.len() as f64;
        let steady_in = steady.iter().filter(|j| in_window(j)).count() as f64 / steady.len() as f64;
        // The window is 1/3 of the horizon at 4× rate: 4/(4+2) of the
        // bursting class lands inside vs 1/3 of the steady class.
        assert!((steady_in - 1.0 / 3.0).abs() < 0.05, "steady in-window share {steady_in}");
        assert!((crowd_in - 4.0 / 6.0).abs() < 0.07, "crowd in-window share {crowd_in}");
    }

    #[test]
    fn table_count_mismatch_is_rejected() {
        let model = TrafficModel::single(WorkloadSpec::dns());
        let trace = UtilizationTrace::constant(0.2, 10).unwrap();
        let err = replay_traffic(
            &trace,
            &model,
            &[],
            &ReplayConfig::default(),
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap_err();
        assert!(err.to_string().contains("distribution tables for []"), "{err}");
    }

    /// Tables are matched to classes by spec, not only by count: tables
    /// synthesized for `[dns, mail]` cannot replay a `[mail, dns]`
    /// model, whose classes would otherwise be sized at their declared
    /// means but drawn with the other population's shape.
    #[test]
    fn tables_for_other_specs_are_rejected() {
        let class = |spec: WorkloadSpec| TrafficClass::new(spec.name().to_string(), spec, 1.0);
        let dns_mail =
            TrafficModel::new(vec![class(WorkloadSpec::dns()), class(WorkloadSpec::mail())])
                .unwrap();
        let mail_dns =
            TrafficModel::new(vec![class(WorkloadSpec::mail()), class(WorkloadSpec::dns())])
                .unwrap();
        let trace = UtilizationTrace::constant(0.2, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let tables = dns_mail.empirical_tables(1_000, &mut rng).unwrap();
        let config = ReplayConfig::default();
        let err = replay_traffic(&trace, &mail_dns, &tables, &config, &mut rng).unwrap_err();
        assert!(matches!(err, TrafficError::InvalidModel { .. }), "{err}");
        assert!(err.to_string().contains(r#"["DNS", "Mail"] do not match"#), "{err}");
        assert!(replay_traffic(&trace, &dns_mail, &tables, &config, &mut rng).is_ok());
    }

    /// A model built field by field skips `TrafficModel::new`, so replay
    /// validates again: a class whose modulators multiply past
    /// `MAX_RATE_FACTOR` is a typed error, not a replay that pushes
    /// jobs until memory runs out.
    #[test]
    fn replay_rejects_an_unbounded_rate_factor() {
        let trace = UtilizationTrace::constant(0.2, 10).unwrap();
        for factor in [1e150, 1e200] {
            let class = TrafficClass::new("dns", WorkloadSpec::dns(), 1.0)
                .with_modulator(ArrivalModulator::Scale { factor })
                .with_modulator(ArrivalModulator::Scale { factor });
            let model = TrafficModel { classes: vec![class] };
            let mut rng = StdRng::seed_from_u64(3);
            let tables = TrafficModel::single(WorkloadSpec::dns())
                .empirical_tables(1_000, &mut rng)
                .unwrap();
            let err = replay_traffic(&trace, &model, &tables, &ReplayConfig::default(), &mut rng)
                .unwrap_err();
            assert!(err.to_string().contains("above the 1000 bound"), "{factor}: {err}");
        }
    }
}
