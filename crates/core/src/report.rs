use serde::{Deserialize, Serialize};
use sleepscale_dist::StreamingSummary;
use sleepscale_power::{ep, EnergyProportionality, PowerSample, SystemState};

/// One epoch's record in a runtime evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index.
    pub epoch: usize,
    /// First trace minute of the epoch.
    pub start_minute: usize,
    /// The strategy's utilization prediction for the epoch.
    pub predicted_rho: f64,
    /// Mean trace utilization realized over the epoch.
    pub realized_rho: f64,
    /// The deployed policy's display label.
    pub policy_label: String,
    /// The deployed frequency setting.
    pub frequency: f64,
    /// The sleep program's label (e.g. `"C6S0(i)"`).
    pub program_label: String,
    /// Whether the manager's selection met the QoS constraint on its
    /// characterization (true for non-managed strategies).
    pub feasible: bool,
    /// Candidate policies simulated for this epoch's selection (0 for
    /// non-managed strategies and for characterization-cache hits).
    pub evaluated: usize,
    /// Arrivals in the epoch.
    pub arrivals: usize,
    /// Mean response time of this epoch's arrivals, in seconds.
    pub mean_response: f64,
    /// Average power over the epoch, in watts.
    pub power_watts: f64,
    /// Committed work overhanging the epoch boundary, in seconds.
    pub backlog_seconds: f64,
}

impl sleepscale_journal::Snapshot for EpochReport {
    fn snapshot(&self, w: &mut sleepscale_journal::ByteWriter) {
        w.put_usize(self.epoch);
        w.put_usize(self.start_minute);
        w.put_f64(self.predicted_rho);
        w.put_f64(self.realized_rho);
        w.put_str(&self.policy_label);
        w.put_f64(self.frequency);
        w.put_str(&self.program_label);
        w.put_bool(self.feasible);
        w.put_usize(self.evaluated);
        w.put_usize(self.arrivals);
        w.put_f64(self.mean_response);
        w.put_f64(self.power_watts);
        w.put_f64(self.backlog_seconds);
    }

    fn restore(
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<EpochReport, sleepscale_journal::CodecError> {
        Ok(EpochReport {
            epoch: r.get_usize()?,
            start_minute: r.get_usize()?,
            predicted_rho: r.get_f64()?,
            realized_rho: r.get_f64()?,
            policy_label: r.get_string()?,
            frequency: r.get_f64()?,
            program_label: r.get_string()?,
            feasible: r.get_bool()?,
            evaluated: r.get_usize()?,
            arrivals: r.get_usize()?,
            mean_response: r.get_f64()?,
            power_watts: r.get_f64()?,
            backlog_seconds: r.get_f64()?,
        })
    }
}

/// Aggregate result of a runtime evaluation over a trace —
/// what Figures 8–10 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    strategy: String,
    epochs: Vec<EpochReport>,
    mean_service: f64,
    avg_power: f64,
    energy_joules: f64,
    horizon_seconds: f64,
    wakes_from: Vec<(SystemState, u64)>,
    responses: StreamingSummary,
    class_responses: Vec<StreamingSummary>,
    active_energy_joules: f64,
    class_active_energy: Vec<f64>,
    power_samples: Vec<PowerSample>,
}

impl RunReport {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        strategy: String,
        epochs: Vec<EpochReport>,
        mean_service: f64,
        avg_power: f64,
        energy_joules: f64,
        horizon_seconds: f64,
        wakes_from: Vec<(SystemState, u64)>,
        responses: StreamingSummary,
        class_responses: Vec<StreamingSummary>,
    ) -> RunReport {
        RunReport {
            strategy,
            epochs,
            mean_service,
            avg_power,
            energy_joules,
            horizon_seconds,
            wakes_from,
            responses,
            class_responses,
            active_energy_joules: 0.0,
            class_active_energy: Vec::new(),
            power_samples: Vec::new(),
        }
    }

    /// Attaches the ledger's exact energy split: total active (serving)
    /// energy, its per-class slices, and the per-bucket
    /// utilization→power samples.
    pub(crate) fn with_energy_split(
        mut self,
        active_energy_joules: f64,
        class_active_energy: Vec<f64>,
        power_samples: Vec<PowerSample>,
    ) -> RunReport {
        self.active_energy_joules = active_energy_joules;
        self.class_active_energy = class_active_energy;
        self.power_samples = power_samples;
        self
    }

    /// Strategy display name.
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// Per-epoch details.
    pub fn epochs(&self) -> &[EpochReport] {
        &self.epochs
    }

    /// Total jobs completed.
    pub fn total_jobs(&self) -> usize {
        self.responses.count() as usize
    }

    /// Job-weighted mean response time, seconds (the streaming mean:
    /// exact up to rounding).
    pub fn mean_response_seconds(&self) -> f64 {
        self.responses.mean()
    }

    /// The paper's normalized mean response `µ·E[R]`.
    pub fn normalized_mean_response(&self) -> f64 {
        self.responses.mean() / self.mean_service
    }

    /// 95th-percentile response across all jobs, seconds, sketched to
    /// ±0.5% relative — the same estimate fleet reports quote.
    pub fn p95_response_seconds(&self) -> f64 {
        self.responses.p95()
    }

    /// Average power over the whole horizon, watts.
    pub fn avg_power_watts(&self) -> f64 {
        self.avg_power
    }

    /// Total energy, joules.
    pub fn energy_joules(&self) -> f64 {
        self.energy_joules
    }

    /// Active (serving) energy in joules: the slice of
    /// [`RunReport::energy_joules`] spent executing jobs, exactly
    /// attributed by the engine's ledger.
    pub fn active_energy_joules(&self) -> f64 {
        self.active_energy_joules
    }

    /// Idle-side energy in joules — idle, sleep, and wake-up intervals
    /// that belong to no job. Defined as `total − active`, so the two
    /// line items always reproduce the total.
    pub fn idle_energy_joules(&self) -> f64 {
        self.energy_joules - self.active_energy_joules
    }

    /// Per-class active energy in joules, indexed by class tag. For an
    /// untagged (or effectively single-class) run this is a one-entry
    /// vector holding all active energy under tag 0 — unlike response
    /// slices, energy attribution is always on, because the tagged and
    /// untagged ledger paths are byte-identical.
    pub fn class_active_energy(&self) -> &[f64] {
        &self.class_active_energy
    }

    /// Per-bucket `(utilization, average power)` samples from the
    /// energy ledger — the measured utilization→power relationship.
    pub fn power_samples(&self) -> &[PowerSample] {
        &self.power_samples
    }

    /// Energy-proportionality summary over this run's power samples
    /// (`None` when undefined — e.g. a run that never served a job).
    pub fn energy_proportionality(&self) -> Option<EnergyProportionality> {
        ep::analyze(&self.power_samples)
    }

    /// The run's utilization→power curve, binned into `bins`
    /// fixed-width utilization bins.
    pub fn utilization_power_curve(&self, bins: usize) -> Vec<PowerSample> {
        ep::utilization_power_curve(&self.power_samples, bins)
    }

    /// Evaluation horizon, seconds.
    pub fn horizon_seconds(&self) -> f64 {
        self.horizon_seconds
    }

    /// Wake-up counts per sleep state over the whole run.
    pub fn wakes_from(&self) -> &[(SystemState, u64)] {
        &self.wakes_from
    }

    /// The run's response distribution as a mergeable streaming summary
    /// (exact count/mean, sketched quantiles) — what fleet- and
    /// scenario-level reports fold per-run results into.
    pub fn responses(&self) -> &StreamingSummary {
        &self.responses
    }

    /// Per-traffic-class response summaries, indexed by
    /// [`ClassId`](sleepscale_sim::ClassId) — **empty for untagged
    /// runs** (a stream whose jobs all carry the default class keeps
    /// per-class accounting switched off entirely, which is what makes
    /// a single-class tagged run byte-identical to the untagged path;
    /// its "class 0" slice *is* [`RunReport::responses`]).
    pub fn class_responses(&self) -> &[StreamingSummary] {
        &self.class_responses
    }

    /// How often each sleep program was deployed, as
    /// `(program label, epoch count)` pairs sorted by descending count —
    /// Figure 10's distribution of selected low-power states.
    pub fn program_histogram(&self) -> Vec<(String, usize)> {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for e in &self.epochs {
            match counts.iter_mut().find(|(label, _)| *label == e.program_label) {
                Some(entry) => entry.1 += 1,
                None => counts.push((e.program_label.clone(), 1)),
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        counts
    }

    /// Same histogram normalized to fractions of epochs.
    pub fn program_fractions(&self) -> Vec<(String, f64)> {
        let total = self.epochs.len().max(1) as f64;
        self.program_histogram().into_iter().map(|(label, n)| (label, n as f64 / total)).collect()
    }

    /// Total candidate policies simulated across every epoch's
    /// selection — the characterization cost the pruned search and
    /// cache reduce (`sweep_speedup` reports the ratio against the
    /// exhaustive sweep).
    pub fn total_evaluated(&self) -> usize {
        self.epochs.iter().map(|e| e.evaluated).sum()
    }

    /// Mean absolute utilization prediction error across epochs.
    pub fn mean_prediction_error(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(|e| (e.predicted_rho - e.realized_rho).abs()).sum::<f64>()
            / self.epochs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(i: usize, program: &str, pred: f64, real: f64) -> EpochReport {
        EpochReport {
            epoch: i,
            start_minute: i * 5,
            predicted_rho: pred,
            realized_rho: real,
            policy_label: format!("f=0.5 {program}"),
            frequency: 0.5,
            program_label: program.to_string(),
            feasible: true,
            evaluated: 7,
            arrivals: 10,
            mean_response: 0.2,
            power_watts: 80.0,
            backlog_seconds: 0.0,
        }
    }

    fn report(epochs: Vec<EpochReport>) -> RunReport {
        let mut responses = StreamingSummary::new();
        responses.push(0.2);
        RunReport::new(
            "SS".into(),
            epochs,
            0.194,
            80.0,
            1000.0,
            3600.0,
            vec![(SystemState::C6_S0I, 42)],
            responses,
            Vec::new(),
        )
    }

    #[test]
    fn histogram_counts_programs() {
        let r = report(vec![
            epoch(0, "C6S0(i)", 0.2, 0.25),
            epoch(1, "C6S0(i)", 0.3, 0.3),
            epoch(2, "C0(i)S0(i)", 0.1, 0.15),
        ]);
        let h = r.program_histogram();
        assert_eq!(h[0], ("C6S0(i)".to_string(), 2));
        assert_eq!(h[1], ("C0(i)S0(i)".to_string(), 1));
        let f = r.program_fractions();
        assert!((f[0].1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_response_and_prediction_error() {
        let r = report(vec![epoch(0, "C6S3", 0.2, 0.3), epoch(1, "C6S3", 0.4, 0.3)]);
        assert!((r.normalized_mean_response() - 0.2 / 0.194).abs() < 1e-12);
        assert!((r.mean_prediction_error() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_report_degrades() {
        let r = report(vec![]);
        assert_eq!(r.mean_prediction_error(), 0.0);
        assert!(r.program_histogram().is_empty());
        assert_eq!(r.wakes_from()[0].1, 42);
    }

    /// The energy split's two line items always reproduce the total,
    /// and the EP summary comes straight from the attached samples.
    #[test]
    fn energy_split_line_items_sum_to_total() {
        let samples = vec![
            PowerSample { utilization: 0.0, watts: 30.0 },
            PowerSample { utilization: 0.5, watts: 150.0 },
            PowerSample { utilization: 1.0, watts: 250.0 },
        ];
        let r = report(vec![epoch(0, "C6S3", 0.2, 0.3)]).with_energy_split(
            600.0,
            vec![400.0, 200.0],
            samples,
        );
        assert_eq!(r.active_energy_joules(), 600.0);
        assert_eq!(r.idle_energy_joules(), 400.0);
        assert!(
            (r.active_energy_joules() + r.idle_energy_joules() - r.energy_joules()).abs() < 1e-12
        );
        assert_eq!(r.class_active_energy(), [400.0, 200.0]);
        let ep = r.energy_proportionality().unwrap();
        assert_eq!(ep.peak_watts, 250.0);
        assert_eq!(ep.idle_watts, 30.0);
        assert_eq!(r.utilization_power_curve(4).len(), 3);
        // Without samples the metric is undefined, not fabricated.
        assert!(report(vec![]).energy_proportionality().is_none());
    }
}
