use crate::error::AnalyticError;
use crate::model::{avg_power, setup_moment, validate_powers};
use serde::{Deserialize, Serialize};

/// M/G/1 with `n` low-power states: the appendix's remark that "both
/// `E[R]` and `E[P]` can be extended to the case where service time is
/// not exponential", made concrete.
///
/// Service is described by its mean `E[S]` and squared coefficient of
/// variation `C_s²`; arrivals stay Poisson. The pieces:
///
/// * setup-delay moments `E[D^α]` depend only on the (exponential) idle
///   period, so they match [`crate::MM1Sleep`] exactly;
/// * the renewal cycle is `L = (1 + λE[D]) / (λ(1 − ρ))` — the busy
///   period of an M/G/1 whose first customer receives exceptional
///   service `D + S` (Welch, 1964);
/// * `E[P]` therefore keeps the appendix's structure with
///   `1/(λL) = (1 − ρ)/(1 + λE[D])`;
/// * `E[R] = E[S] + λE[S²]/(2(1−ρ)) + (2E[D] + λE[D²])/(2(1 + λE[D]))`
///   — Pollaczek–Khinchine plus the paper's setup term.
///
/// With `C_s² = 1` every quantity collapses to [`crate::MM1Sleep`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MG1Sleep {
    lambda: f64,
    service_mean: f64,
    service_scv: f64,
    active_power: f64,
    stages: Vec<(f64, f64, f64)>,
}

impl MG1Sleep {
    /// Builds the model. `service_scv` is the squared coefficient of
    /// variation `C_s²` (1 for exponential, 0 for deterministic).
    ///
    /// # Errors
    ///
    /// * [`AnalyticError::Unstable`] if `λ·E[S] >= 1`.
    /// * [`AnalyticError::InvalidParameter`] for non-positive rates or
    ///   malformed stages.
    pub fn new(
        lambda: f64,
        service_mean: f64,
        service_scv: f64,
        active_power: f64,
        stages: Vec<(f64, f64, f64)>,
    ) -> Result<MG1Sleep, AnalyticError> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(AnalyticError::InvalidParameter {
                name: "lambda",
                value: lambda,
                requirement: "finite and > 0",
            });
        }
        if !service_mean.is_finite() || service_mean <= 0.0 {
            return Err(AnalyticError::InvalidParameter {
                name: "service_mean",
                value: service_mean,
                requirement: "finite and > 0",
            });
        }
        if !service_scv.is_finite() || service_scv < 0.0 {
            return Err(AnalyticError::InvalidParameter {
                name: "service_scv",
                value: service_scv,
                requirement: "finite and >= 0",
            });
        }
        if lambda * service_mean >= 1.0 {
            return Err(AnalyticError::Unstable { lambda, mu_eff: 1.0 / service_mean });
        }
        validate_powers(active_power, &stages)?;
        Ok(MG1Sleep { lambda, service_mean, service_scv, active_power, stages })
    }

    /// Utilization `ρ = λ·E[S]`.
    pub fn utilization(&self) -> f64 {
        self.lambda * self.service_mean
    }

    /// `E[D^α]` — identical to the M/M/1 case (idle periods are
    /// exponential regardless of the service law).
    pub fn setup_moment(&self, alpha: f64) -> f64 {
        setup_moment(self.lambda, &self.stages, alpha)
    }

    /// Renewal cycle length `L = (1 + λE[D]) / (λ(1 − ρ))`.
    pub fn cycle_length(&self) -> f64 {
        (1.0 + self.lambda * self.setup_moment(1.0)) / (self.lambda * (1.0 - self.utilization()))
    }

    /// Average power — the appendix formula with the M/G/1 cycle.
    pub fn avg_power(&self) -> f64 {
        avg_power(self.lambda, self.cycle_length(), self.active_power, &self.stages)
    }

    /// Mean response time: Pollaczek–Khinchine plus the setup term.
    pub fn mean_response(&self) -> f64 {
        let lam = self.lambda;
        let es = self.service_mean;
        let es2 = es * es * (1.0 + self.service_scv);
        let rho = self.utilization();
        let d1 = self.setup_moment(1.0);
        let d2 = self.setup_moment(2.0);
        es + lam * es2 / (2.0 * (1.0 - rho)) + (2.0 * d1 + lam * d2) / (2.0 * (1.0 + lam * d1))
    }

    /// The stage tuples.
    pub fn stages(&self) -> &[(f64, f64, f64)] {
        &self.stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MM1Sleep;

    #[test]
    fn collapses_to_mm1_at_scv_one() {
        let stages = vec![(28.1, 0.0, 1.0)];
        let mm1 = MM1Sleep::new(0.5, 2.0, 250.0, stages.clone()).unwrap();
        let mg1 = MG1Sleep::new(0.5, 0.5, 1.0, 250.0, stages).unwrap();
        assert!((mm1.mean_response() - mg1.mean_response()).abs() < 1e-12);
        assert!((mm1.avg_power() - mg1.avg_power()).abs() < 1e-12);
        assert!((mm1.cycle_length() - mg1.cycle_length()).abs() < 1e-12);
    }

    #[test]
    fn deterministic_service_halves_the_queueing_term() {
        // M/D/1 waits half as long as M/M/1 (PK with E[S²] = E[S]²).
        let md1 = MG1Sleep::new(0.5, 1.0, 0.0, 250.0, vec![]).unwrap();
        let mm1 = MG1Sleep::new(0.5, 1.0, 1.0, 250.0, vec![]).unwrap();
        let wait = |m: &MG1Sleep| m.mean_response() - 1.0;
        assert!((wait(&md1) - wait(&mm1) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn power_is_insensitive_to_service_variability() {
        // E[P] depends on the busy fraction and idle-period law only.
        let a = MG1Sleep::new(0.4, 1.0, 0.0, 250.0, vec![(28.1, 0.0, 1.0)]).unwrap();
        let b = MG1Sleep::new(0.4, 1.0, 13.0, 250.0, vec![(28.1, 0.0, 1.0)]).unwrap();
        assert!((a.avg_power() - b.avg_power()).abs() < 1e-12);
    }

    #[test]
    fn heavy_tailed_service_inflates_response() {
        // Mail-like Cv = 3.6 → SCV ≈ 13.
        let heavy = MG1Sleep::new(0.5, 1.0, 12.96, 250.0, vec![]).unwrap();
        let light = MG1Sleep::new(0.5, 1.0, 1.0, 250.0, vec![]).unwrap();
        assert!(heavy.mean_response() > 3.0 * light.mean_response());
    }

    #[test]
    fn validation() {
        assert!(MG1Sleep::new(1.0, 1.0, 1.0, 250.0, vec![]).is_err()); // rho = 1
        assert!(MG1Sleep::new(0.5, 0.0, 1.0, 250.0, vec![]).is_err());
        assert!(MG1Sleep::new(0.5, 1.0, -1.0, 250.0, vec![]).is_err());
        assert!(MG1Sleep::new(0.5, 1.0, 1.0, -1.0, vec![]).is_err());
        assert!(MG1Sleep::new(0.5, 1.0, 1.0, 1.0, vec![(1.0, 0.1, 0.0), (1.0, 0.1, 0.0)]).is_err());
    }
}
