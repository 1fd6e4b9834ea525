use crate::error::TrafficError;
use serde::{Deserialize, Serialize};
use sleepscale_sim::ClassId;
use sleepscale_workloads::{traces, WorkloadSpec};

/// Largest number of classes a model may declare ([`ClassId`] is 16
/// bits).
pub const MAX_CLASSES: usize = 1 << 16;

/// Largest arrival-rate multiplier a class's modulators may reach
/// together, taking each at its largest (a burst's factor, or 1 below
/// 1; a diurnal swing's `1 + amplitude`; a scale's factor); the
/// catalog's largest is 3 (a 3× flash crowd).
///
/// A class at this bound offers a thousand times its share of the
/// schedule's load, far past what any fleet serves. An unbounded
/// product is a replay hazard, not a workload: two `Scale { factor:
/// 1e150 }` modulators ask for 1e300 times the jobs, and two of
/// `1e200` for infinitely many, so replay pushes jobs until memory runs
/// out.
pub const MAX_RATE_FACTOR: f64 = 1e3;

/// A per-class arrival-rate modulator: multiplies the class's arrival
/// rate minute by minute on top of the scenario-wide utilization
/// schedule. Modulators compose multiplicatively
/// ([`TrafficClass::rate_factor`]).
///
/// All minute fields are **schedule-relative**: minute 0 is the first
/// sample of the trace the scenario actually runs (for a windowed
/// `LoadSchedule` that is the window's start, not midnight), matching
/// how burst windows are written against the scenario's own horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalModulator {
    /// A flash-crowd window: the class's arrival rate is multiplied by
    /// `factor` for minutes in `[start_minute, end_minute)`.
    Burst {
        /// First minute of the burst (schedule-relative).
        start_minute: usize,
        /// One past the last minute of the burst.
        end_minute: usize,
        /// Rate multiplier inside the window (≥ 0; 0 silences the
        /// class for the window).
        factor: f64,
    },
    /// A per-class diurnal swing on top of the shared schedule:
    /// `1 + amplitude · cos(2π (minute − peak_minute) / 1440)`, clamped
    /// at 0 — interactive traffic can peak mid-day while batch peaks
    /// overnight, on one fleet. Like every modulator, `peak_minute` is
    /// schedule-relative (a windowed schedule's minute 0 is its window
    /// start): a `EmailStoreDay { start_minute: 480, .. }` scenario
    /// wanting a noon peak writes `peak_minute: 240`, not 720.
    Diurnal {
        /// Swing amplitude in `[0, 1]` (0 = flat).
        amplitude: f64,
        /// Schedule-relative minute at which the class's rate peaks
        /// (period 1440 minutes).
        peak_minute: usize,
    },
    /// A constant per-class rate multiplier (a class-level
    /// `arrival_scale`).
    Scale {
        /// The multiplier (≥ 0, finite).
        factor: f64,
    },
}

impl ArrivalModulator {
    /// The rate multiplier this modulator applies at `minute`.
    pub fn factor_at(&self, minute: usize) -> f64 {
        match self {
            ArrivalModulator::Burst { start_minute, end_minute, factor } => {
                if (*start_minute..*end_minute).contains(&minute) {
                    *factor
                } else {
                    1.0
                }
            }
            ArrivalModulator::Diurnal { amplitude, peak_minute } => {
                let period = traces::MINUTES_PER_DAY as f64;
                let phase = (minute as f64 - *peak_minute as f64) / period;
                (1.0 + amplitude * (std::f64::consts::TAU * phase).cos()).max(0.0)
            }
            ArrivalModulator::Scale { factor } => *factor,
        }
    }

    /// Checks the modulator's shape.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidModel`] for an empty/inverted
    /// burst window, a non-finite or negative factor, or an
    /// out-of-range diurnal amplitude.
    pub fn validate(&self) -> Result<(), TrafficError> {
        match self {
            ArrivalModulator::Burst { start_minute, end_minute, factor } => {
                if start_minute >= end_minute {
                    return Err(TrafficError::InvalidModel {
                        reason: format!(
                            "burst window [{start_minute}, {end_minute}) is empty or inverted"
                        ),
                    });
                }
                if !factor.is_finite() || *factor < 0.0 {
                    return Err(TrafficError::InvalidModel {
                        reason: format!("burst factor {factor} must be finite and >= 0"),
                    });
                }
            }
            ArrivalModulator::Diurnal { amplitude, .. } => {
                if !amplitude.is_finite() || !(0.0..=1.0).contains(amplitude) {
                    return Err(TrafficError::InvalidModel {
                        reason: format!("diurnal amplitude {amplitude} must be inside [0, 1]"),
                    });
                }
            }
            ArrivalModulator::Scale { factor } => {
                if !factor.is_finite() || *factor < 0.0 {
                    return Err(TrafficError::InvalidModel {
                        reason: format!("scale factor {factor} must be finite and >= 0"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// One traffic class: a named job population with its own size and
/// inter-arrival laws (a [`WorkloadSpec`]), a share of the total
/// arrival stream, an optional per-class QoS target, and arrival
/// modulators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficClass {
    /// Display name (e.g. `"interactive"`, `"batch"`).
    pub name: String,
    /// The class's population statistics; sizes are drawn from *this*
    /// spec's service law, not from a moment-composed mixture.
    pub spec: WorkloadSpec,
    /// Relative share of the job count (normalized over the model).
    pub weight: f64,
    /// Optional QoS target on the class's 95th-percentile response,
    /// normalized by the class's own mean service time
    /// (`p95_response / service_mean ≤ budget`). `None` leaves the
    /// class unconstrained.
    pub p95_budget: Option<f64>,
    /// Per-class arrival-rate modulators, composed multiplicatively.
    pub modulators: Vec<ArrivalModulator>,
}

impl TrafficClass {
    /// A class with weight `weight`, no QoS target, and no modulators;
    /// chain [`TrafficClass::with_p95_budget`] /
    /// [`TrafficClass::with_modulator`] or use struct-update syntax.
    pub fn new(name: impl Into<String>, spec: WorkloadSpec, weight: f64) -> TrafficClass {
        TrafficClass { name: name.into(), spec, weight, p95_budget: None, modulators: Vec::new() }
    }

    /// Sets the normalized p95 response budget.
    pub fn with_p95_budget(mut self, budget: f64) -> TrafficClass {
        self.p95_budget = Some(budget);
        self
    }

    /// Appends an arrival modulator.
    pub fn with_modulator(mut self, modulator: ArrivalModulator) -> TrafficClass {
        self.modulators.push(modulator);
        self
    }

    /// The class's combined rate multiplier at `minute` (product over
    /// its modulators; 1 with none).
    pub fn rate_factor(&self, minute: usize) -> f64 {
        self.modulators.iter().map(|m| m.factor_at(minute)).product()
    }

    /// An upper bound on [`TrafficClass::rate_factor`] over every
    /// minute: the product, in the same order, of each modulator's
    /// largest factor. That is a burst's factor, or 1 when the factor
    /// is below 1 (outside its window a burst applies 1), a diurnal
    /// swing's `1 + amplitude`, and a scale's factor. Float
    /// multiplication is monotone, so no minute's product exceeds it.
    fn max_rate_factor(&self) -> f64 {
        self.modulators
            .iter()
            .map(|m| match m {
                ArrivalModulator::Burst { factor, .. } => factor.max(1.0),
                ArrivalModulator::Diurnal { amplitude, .. } => 1.0 + amplitude,
                ArrivalModulator::Scale { factor } => *factor,
            })
            .product()
    }
}

/// Mixture mean and Cv from `(weight, mean, cv)` parts with weights
/// already normalized: `E[X] = Σ wᵢ mᵢ`,
/// `E[X²] = Σ wᵢ mᵢ²(1 + Cvᵢ²)` — the moment-level composition
/// Table 5 publishes for its own mixed live traces, and the one
/// composition behind [`TrafficModel::moment_spec`] (hence both
/// `WorkloadSource::Mix` and [`TrafficModel::composed_spec`]).
pub fn mix_moments(parts: &[(f64, f64, f64)]) -> (f64, f64) {
    let mean: f64 = parts.iter().map(|(w, m, _)| w * m).sum();
    let second: f64 = parts.iter().map(|(w, m, cv)| w * m * m * (1.0 + cv * cv)).sum();
    let var = (second - mean * mean).max(0.0);
    (mean, var.sqrt() / mean)
}

/// A class-tagged traffic mixture: every arriving job is drawn from
/// one class's *own* distributions (sizes per class, arrivals
/// interleaved by weight) and carries that class's [`ClassId`] tag
/// through the simulator — in contrast to
/// `WorkloadSource::Mix`, which collapses the populations into one
/// moment-composed spec before any job exists.
///
/// Class `i` of the model is tagged [`ClassId`]`(i)`; a single-class
/// model therefore tags everything with the default class and its
/// streams are byte-identical to the untagged replay of the same spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficModel {
    /// The classes, in tag order (class `i` ↦ `ClassId(i)`).
    pub classes: Vec<TrafficClass>,
}

impl TrafficModel {
    /// A model over `classes`, validated.
    ///
    /// # Errors
    ///
    /// Same as [`TrafficModel::validate`].
    pub fn new(classes: Vec<TrafficClass>) -> Result<TrafficModel, TrafficError> {
        let model = TrafficModel { classes };
        model.validate()?;
        Ok(model)
    }

    /// The degenerate single-class model of `spec` — the tagged twin of
    /// an untagged workload (their job streams are byte-identical).
    pub fn single(spec: WorkloadSpec) -> TrafficModel {
        let name = spec.name().to_string();
        TrafficModel { classes: vec![TrafficClass::new(name, spec, 1.0)] }
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when the model declares no classes (invalid to run).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The tag of class `i`.
    pub fn class_id(&self, i: usize) -> ClassId {
        ClassId(i as u16)
    }

    /// Checks the model's shape: at least one class, at most
    /// [`MAX_CLASSES`], finite non-negative weights with a positive
    /// sum, positive finite budgets, and valid modulators whose
    /// combined factor stays within [`MAX_RATE_FACTOR`].
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidModel`] describing the first
    /// violation.
    pub fn validate(&self) -> Result<(), TrafficError> {
        if self.classes.is_empty() {
            return Err(TrafficError::InvalidModel {
                reason: "a traffic model needs at least one class".into(),
            });
        }
        if self.classes.len() > MAX_CLASSES {
            return Err(TrafficError::InvalidModel {
                reason: format!(
                    "{} classes exceed the {MAX_CLASSES}-class tag space",
                    self.classes.len()
                ),
            });
        }
        let total: f64 = self.classes.iter().map(|c| c.weight).sum();
        if !total.is_finite()
            || total <= 0.0
            || self.classes.iter().any(|c| !c.weight.is_finite() || c.weight < 0.0)
        {
            return Err(TrafficError::InvalidModel {
                reason: format!(
                    "class weights must be finite and non-negative with a positive sum \
                     (got sum {total})"
                ),
            });
        }
        for class in &self.classes {
            if let Some(budget) = class.p95_budget {
                if !budget.is_finite() || budget <= 0.0 {
                    return Err(TrafficError::InvalidModel {
                        reason: format!(
                            "class '{}': p95 budget {budget} must be finite and > 0",
                            class.name
                        ),
                    });
                }
            }
            for modulator in &class.modulators {
                modulator.validate().map_err(|e| TrafficError::InvalidModel {
                    reason: format!("class '{}': {e}", class.name),
                })?;
            }
            // NaN (from `∞ · 0`) fails the range check too.
            let peak = class.max_rate_factor();
            if !(0.0..=MAX_RATE_FACTOR).contains(&peak) {
                return Err(TrafficError::InvalidModel {
                    reason: format!(
                        "class '{}': modulators multiply the arrival rate by up to {peak}, \
                         above the {MAX_RATE_FACTOR} bound",
                        class.name
                    ),
                });
            }
        }
        Ok(())
    }

    /// Per-class weights normalized to sum to 1, in class order.
    pub fn normalized_weights(&self) -> Vec<f64> {
        let total: f64 = self.classes.iter().map(|c| c.weight).sum();
        self.classes.iter().map(|c| c.weight / total).collect()
    }

    /// The mixture's moment-composed summary statistics — what the
    /// model looks like to anything that sees only one population
    /// (`mean_service` for the runtime configuration, the predictor's
    /// utilization accounting): [`TrafficModel::moment_spec`] named
    /// `tagged(…)`. A single-class model returns its class's spec
    /// verbatim, so the tagged twin of an untagged workload resolves to
    /// bit-identical statistics.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidModel`] for invalid shapes and
    /// propagates spec-construction errors.
    pub fn composed_spec(&self) -> Result<WorkloadSpec, TrafficError> {
        match self.classes.as_slice() {
            [only] => self.validate().map(|()| only.spec.clone()),
            _ => self.moment_spec("tagged"),
        }
    }

    /// The classes collapsed into one spec named `label(a+b+…)`:
    /// [`mix_moments`] of the service and inter-arrival laws over the
    /// normalized weights, for any number of classes (one class is
    /// composed too, not copied). `WorkloadSource::Mix` resolves
    /// through this with `label` `"mix"`.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidModel`] for invalid shapes and
    /// propagates spec-construction errors.
    pub fn moment_spec(&self, label: &str) -> Result<WorkloadSpec, TrafficError> {
        self.validate()?;
        let weights = self.normalized_weights();
        let service: Vec<(f64, f64, f64)> = self
            .classes
            .iter()
            .zip(&weights)
            .map(|(c, &w)| (w, c.spec.service_mean(), c.spec.service_cv()))
            .collect();
        let arrival: Vec<(f64, f64, f64)> = self
            .classes
            .iter()
            .zip(&weights)
            .map(|(c, &w)| (w, c.spec.interarrival_mean(), c.spec.interarrival_cv()))
            .collect();
        let (sv_mean, sv_cv) = mix_moments(&service);
        let (ia_mean, ia_cv) = mix_moments(&arrival);
        let name = self.classes.iter().map(|c| c.spec.name()).collect::<Vec<_>>().join("+");
        Ok(WorkloadSpec::new(format!("{label}({name})"), ia_mean, ia_cv, sv_mean, sv_cv)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_class_model_resolves_to_its_spec_verbatim() {
        let model = TrafficModel::single(WorkloadSpec::dns());
        assert_eq!(model.composed_spec().unwrap(), WorkloadSpec::dns());
        assert_eq!(model.len(), 1);
        assert_eq!(model.class_id(0), ClassId::DEFAULT);
    }

    #[test]
    fn composition_matches_moment_mixture() {
        let model = TrafficModel::new(vec![
            TrafficClass::new("dns", WorkloadSpec::dns(), 1.0),
            TrafficClass::new("mail", WorkloadSpec::mail(), 1.0),
        ])
        .unwrap();
        let spec = model.composed_spec().unwrap();
        assert!((spec.service_mean() - (0.194 + 0.092) / 2.0).abs() < 1e-12);
        // Mixing two populations with different means inflates the Cv.
        assert!(spec.service_cv() > 1.0);
        assert!(spec.name().starts_with("tagged("));
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(TrafficModel::new(vec![]).is_err());
        assert!(TrafficModel::new(vec![TrafficClass::new("x", WorkloadSpec::dns(), -1.0)]).is_err());
        assert!(TrafficModel::new(vec![TrafficClass::new("x", WorkloadSpec::dns(), 0.0)]).is_err());
        let bad_budget = TrafficClass::new("x", WorkloadSpec::dns(), 1.0).with_p95_budget(f64::NAN);
        assert!(TrafficModel::new(vec![bad_budget]).is_err());
        let bad_window = TrafficClass::new("x", WorkloadSpec::dns(), 1.0).with_modulator(
            ArrivalModulator::Burst { start_minute: 9, end_minute: 9, factor: 2.0 },
        );
        assert!(TrafficModel::new(vec![bad_window]).is_err());
    }

    /// Products past the bound are rejected before replay sees them:
    /// 1e150 · 1e150 is finite but absurd, 1e200 · 1e200 overflows to
    /// ∞, and ∞ · 0 is NaN.
    #[test]
    fn validation_bounds_the_combined_rate_factor() {
        let scaled = |factors: &[f64]| {
            let class =
                factors.iter().fold(TrafficClass::new("x", WorkloadSpec::dns(), 1.0), |c, &f| {
                    c.with_modulator(ArrivalModulator::Scale { factor: f })
                });
            TrafficModel::new(vec![class])
        };
        for factors in [&[1e150, 1e150][..], &[1e200, 1e200], &[1e200, 1e200, 0.0], &[1e3, 1.5]] {
            let err = scaled(factors).unwrap_err();
            assert!(matches!(err, TrafficError::InvalidModel { .. }), "{factors:?}: {err}");
        }
        assert!(scaled(&[1e3]).is_ok());
        assert!(scaled(&[1e200, 1e-200]).is_ok());
        // A burst below 1 still leaves 1 outside its window.
        let class = TrafficClass::new("x", WorkloadSpec::dns(), 1.0)
            .with_modulator(ArrivalModulator::Scale { factor: 900.0 })
            .with_modulator(ArrivalModulator::Burst { start_minute: 0, end_minute: 5, factor: 0.5 })
            .with_modulator(ArrivalModulator::Diurnal { amplitude: 0.5, peak_minute: 0 });
        assert_eq!(class.max_rate_factor(), 1350.0);
        assert!(TrafficModel::new(vec![class]).is_err());
    }

    #[test]
    fn modulators_compose_multiplicatively() {
        let class = TrafficClass::new("x", WorkloadSpec::dns(), 1.0)
            .with_modulator(ArrivalModulator::Scale { factor: 2.0 })
            .with_modulator(ArrivalModulator::Burst {
                start_minute: 10,
                end_minute: 20,
                factor: 3.0,
            });
        assert!((class.rate_factor(5) - 2.0).abs() < 1e-12);
        assert!((class.rate_factor(10) - 6.0).abs() < 1e-12);
        assert!((class.rate_factor(19) - 6.0).abs() < 1e-12);
        assert!((class.rate_factor(20) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diurnal_modulator_peaks_where_asked() {
        let m = ArrivalModulator::Diurnal { amplitude: 0.5, peak_minute: 720 };
        assert!((m.factor_at(720) - 1.5).abs() < 1e-12, "peak at its peak minute");
        // Half a day away: the trough.
        assert!((m.factor_at(0) - 0.5).abs() < 1e-9);
        // A full period later it peaks again.
        assert!((m.factor_at(720 + traces::MINUTES_PER_DAY) - 1.5).abs() < 1e-9);
        // Amplitude 1 bottoms out at 0, never negative.
        let deep = ArrivalModulator::Diurnal { amplitude: 1.0, peak_minute: 0 };
        assert!(deep.factor_at(720) >= 0.0);
        assert!(deep.factor_at(720) < 1e-9);
    }
}
