use crate::error::AnalyticError;
use serde::{Deserialize, Serialize};

/// The appendix's M/M/1 with `n` low-power states.
///
/// Stages are `(P_i, τ_i, w_i)` tuples — power in watts, entry delay and
/// wake latency in seconds — with strictly increasing `τ_i` and `τ_1`
/// arbitrary (idle time before `τ_1` is charged at the active power
/// `P_0`, exactly as the simulator does).
///
/// All formulas are exact for Poisson arrivals and exponential service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MM1Sleep {
    lambda: f64,
    mu_eff: f64,
    active_power: f64,
    stages: Vec<(f64, f64, f64)>,
}

impl MM1Sleep {
    /// Builds the model.
    ///
    /// # Errors
    ///
    /// * [`AnalyticError::Unstable`] if `lambda >= mu_eff`.
    /// * [`AnalyticError::InvalidParameter`] for non-positive rates,
    ///   negative powers/latencies, or non-increasing entry delays.
    pub fn new(
        lambda: f64,
        mu_eff: f64,
        active_power: f64,
        stages: Vec<(f64, f64, f64)>,
    ) -> Result<MM1Sleep, AnalyticError> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(AnalyticError::InvalidParameter {
                name: "lambda",
                value: lambda,
                requirement: "finite and > 0",
            });
        }
        if !mu_eff.is_finite() || mu_eff <= 0.0 {
            return Err(AnalyticError::InvalidParameter {
                name: "mu_eff",
                value: mu_eff,
                requirement: "finite and > 0",
            });
        }
        if lambda >= mu_eff {
            return Err(AnalyticError::Unstable { lambda, mu_eff });
        }
        validate_powers(active_power, &stages)?;
        Ok(MM1Sleep { lambda, mu_eff, active_power, stages })
    }

    /// Arrival rate `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Effective service rate `µf`.
    pub fn mu_eff(&self) -> f64 {
        self.mu_eff
    }

    /// Utilization at the operating point, `λ/µf`.
    pub fn utilization(&self) -> f64 {
        self.lambda / self.mu_eff
    }

    /// `E[D^α]`: the α-th moment of the setup delay experienced by the
    /// first arrival of a busy cycle. With an exponential idle period
    /// `I ~ Exp(λ)`, the arrival lands in stage `i` with probability
    /// `e^{−λτ_i} − e^{−λτ_{i+1}}` (and the deepest stage with
    /// `e^{−λτ_n}`), paying `w_i^α`; landing before `τ_1` costs nothing.
    pub fn setup_moment(&self, alpha: f64) -> f64 {
        setup_moment(self.lambda, &self.stages, alpha)
    }

    /// The renewal-cycle length `L` (idle period + setup-inflated busy
    /// period):
    /// `L = [µf + µf·λ·E[D]] / (λ(µf − λ))`.
    pub fn cycle_length(&self) -> f64 {
        let (lam, mu) = (self.lambda, self.mu_eff);
        mu * (1.0 + lam * self.setup_moment(1.0)) / (lam * (mu - lam))
    }

    /// Average power `E[P]` (appendix):
    /// the idle interval contributes each stage's power weighted by its
    /// expected residency; everything else — busy, wake-up, and pre-`τ_1`
    /// idle — is charged at `P_0`.
    pub fn avg_power(&self) -> f64 {
        avg_power(self.lambda, self.cycle_length(), self.active_power, &self.stages)
    }

    /// Mean response time `E[R]` (appendix):
    /// `1/(µf − λ) + (2E[D] + λE[D²]) / (2(1 + λE[D]))`.
    pub fn mean_response(&self) -> f64 {
        let (lam, mu) = (self.lambda, self.mu_eff);
        let d1 = self.setup_moment(1.0);
        let d2 = self.setup_moment(2.0);
        1.0 / (mu - lam) + (2.0 * d1 + lam * d2) / (2.0 * (1.0 + lam * d1))
    }

    /// Response-time tail `Pr(R ≥ d)` — closed form only for a single
    /// immediate sleep state (`n = 1`, `τ_1 = 0`):
    /// `[e^{−(µf−λ)d} − w1(µf−λ)e^{−d/w1}] / (1 − w1(µf−λ))`,
    /// with the `w1 = 0` and `w1 = 1/(µf−λ)` limits handled.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyticError::NoClosedForm`] for multi-stage or delayed
    /// programs.
    pub fn prob_response_exceeds(&self, d: f64) -> Result<f64, AnalyticError> {
        if d <= 0.0 {
            return Ok(1.0);
        }
        let a = self.mu_eff - self.lambda;
        let w1 = match self.stages.as_slice() {
            [] => 0.0,
            [(_, tau, w)] if *tau == 0.0 => *w,
            _ => {
                return Err(AnalyticError::NoClosedForm {
                    quantity: "Pr(R >= d)",
                    reason: "closed form requires a single immediate sleep state",
                })
            }
        };
        if w1 == 0.0 {
            return Ok((-a * d).exp());
        }
        let denom = 1.0 - w1 * a;
        if denom.abs() < 1e-9 {
            // Degenerate limit w1 → 1/a: Erlang-2 style tail.
            return Ok((1.0 + a * d) * (-a * d).exp());
        }
        Ok(((-a * d).exp() - w1 * a * (-d / w1).exp()) / denom)
    }

    /// The stage tuples.
    pub fn stages(&self) -> &[(f64, f64, f64)] {
        &self.stages
    }
}

/// Checks the active power and the `(P_i, τ_i, w_i)` stage tuples both
/// appendix models take: powers and latencies finite and `>= 0`, entry
/// delays strictly increasing.
pub(crate) fn validate_powers(
    active_power: f64,
    stages: &[(f64, f64, f64)],
) -> Result<(), AnalyticError> {
    if !active_power.is_finite() || active_power < 0.0 {
        return Err(AnalyticError::InvalidParameter {
            name: "active_power",
            value: active_power,
            requirement: "finite and >= 0",
        });
    }
    let mut prev_tau = -1.0;
    for &(p, tau, w) in stages {
        if !p.is_finite() || p < 0.0 {
            return Err(AnalyticError::InvalidParameter {
                name: "stage power",
                value: p,
                requirement: "finite and >= 0",
            });
        }
        if !tau.is_finite() || tau < 0.0 || tau <= prev_tau {
            return Err(AnalyticError::InvalidParameter {
                name: "stage entry delay",
                value: tau,
                requirement: "finite, >= 0, strictly increasing",
            });
        }
        if !w.is_finite() || w < 0.0 {
            return Err(AnalyticError::InvalidParameter {
                name: "stage wake latency",
                value: w,
                requirement: "finite and >= 0",
            });
        }
        prev_tau = tau;
    }
    Ok(())
}

/// `E[D^α]` over an exponential idle period of rate `lambda`: the
/// arrival lands in stage `i` with probability
/// `e^{−λτ_i} − e^{−λτ_{i+1}}` and pays `w_i^α`.
pub(crate) fn setup_moment(lambda: f64, stages: &[(f64, f64, f64)], alpha: f64) -> f64 {
    let n = stages.len();
    let mut total = 0.0;
    for (i, &(_, tau, w)) in stages.iter().enumerate() {
        let upper = if i + 1 < n { (-lambda * stages[i + 1].1).exp() } else { 0.0 };
        total += w.powf(alpha) * ((-lambda * tau).exp() - upper);
    }
    total
}

/// The appendix's `E[P]` for a renewal cycle of length `cycle_length`:
/// each stage's power weighted by its expected residency per cycle,
/// everything else at `active_power`.
pub(crate) fn avg_power(
    lambda: f64,
    cycle_length: f64,
    active_power: f64,
    stages: &[(f64, f64, f64)],
) -> f64 {
    let inv_lam_l = 1.0 / (lambda * cycle_length);
    let n = stages.len();
    let mut idle_term = 0.0;
    for (i, &(p, tau, _)) in stages.iter().enumerate() {
        let upper = if i + 1 < n { (-lambda * stages[i + 1].1).exp() } else { 0.0 };
        idle_term += p * ((-lambda * tau).exp() - upper);
    }
    let tau1 = stages.first().map_or(0.0, |s| s.1);
    let first_exp = if stages.is_empty() { 0.0 } else { (-lambda * tau1).exp() };
    idle_term * inv_lam_l + active_power * (1.0 - first_exp * inv_lam_l)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// n = 1, τ = 0, w = 0 collapses to a plain M/M/1 with idle power P1:
    /// E[P] = ρ_f·P0 + (1−ρ_f)·P1, E[R] = 1/(µf−λ).
    #[test]
    fn collapses_to_mm1_without_setup() {
        let m = MM1Sleep::new(1.0, 4.0, 250.0, vec![(135.5, 0.0, 0.0)]).unwrap();
        let rho = 0.25;
        assert!((m.avg_power() - (rho * 250.0 + (1.0 - rho) * 135.5)).abs() < 1e-9);
        assert!((m.mean_response() - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.utilization() - 0.25).abs() < 1e-12);
    }

    /// With no sleep stages everything is charged at active power.
    #[test]
    fn never_sleep_draws_active_power() {
        let m = MM1Sleep::new(1.0, 4.0, 250.0, vec![]).unwrap();
        assert!((m.avg_power() - 250.0).abs() < 1e-9);
        assert!((m.mean_response() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.setup_moment(1.0), 0.0);
    }

    /// Cycle length with setup matches 1/λ + busy-with-setup.
    #[test]
    fn cycle_length_equals_idle_plus_busy() {
        let (lam, mu, w) = (0.515, 2.165, 1.0);
        let m = MM1Sleep::new(lam, mu, 250.0, vec![(28.1, 0.0, w)]).unwrap();
        let idle = 1.0 / lam;
        let busy = (w + 1.0 / mu) / (1.0 - lam / mu);
        assert!((m.cycle_length() - (idle + busy)).abs() < 1e-9);
    }

    /// Single-state E[R] with setup: 1/(µf−λ) + (2w+λw²)/(2(1+λw)).
    #[test]
    fn mean_response_single_state() {
        let (lam, mu, w) = (0.5, 2.0, 1.0);
        let m = MM1Sleep::new(lam, mu, 250.0, vec![(28.1, 0.0, w)]).unwrap();
        let expect = 1.0 / 1.5 + (2.0 + 0.5) / (2.0 * 1.5);
        assert!((m.mean_response() - expect).abs() < 1e-12);
    }

    /// Setup moments weight stages by exponential landing probabilities.
    #[test]
    fn setup_moment_two_stages() {
        let lam = 2.0_f64;
        let tau2 = 0.7;
        let m =
            MM1Sleep::new(lam, 10.0, 250.0, vec![(100.0, 0.0, 0.0), (28.0, tau2, 1.0)]).unwrap();
        // Landing in stage 1: 1 − e^{−λτ2} (w = 0); deeper: e^{−λτ2}·1.
        let expect = (-lam * tau2).exp();
        assert!((m.setup_moment(1.0) - expect).abs() < 1e-12);
        assert!((m.setup_moment(2.0) - expect).abs() < 1e-12);
    }

    /// Delayed single stage: pre-τ1 idle charged at active power. In the
    /// τ1 → ∞ limit, E[P] → the no-sleep value.
    #[test]
    fn large_entry_delay_approaches_never_sleep() {
        let m = MM1Sleep::new(1.0, 4.0, 250.0, vec![(28.1, 1e9, 1.0)]).unwrap();
        assert!((m.avg_power() - 250.0).abs() < 1e-6);
        let never = MM1Sleep::new(1.0, 4.0, 250.0, vec![]).unwrap();
        assert!((m.mean_response() - never.mean_response()).abs() < 1e-6);
    }

    /// τ2 interpolates Figure 3 style: power between immediate-deep and
    /// immediate-shallow.
    #[test]
    fn entry_delay_interpolates_power() {
        let (lam, mu) = (1.0, 4.0);
        let shallow = MM1Sleep::new(lam, mu, 250.0, vec![(135.5, 0.0, 0.0)]).unwrap();
        let deep = MM1Sleep::new(lam, mu, 250.0, vec![(28.1, 0.0, 1.0)]).unwrap();
        let two = MM1Sleep::new(lam, mu, 250.0, vec![(135.5, 0.0, 0.0), (28.1, 1.5, 1.0)]).unwrap();
        let lo = deep.avg_power().min(shallow.avg_power());
        let hi = deep.avg_power().max(shallow.avg_power());
        assert!(two.avg_power() > lo - 1e-9 && two.avg_power() < hi + 1e-9);
    }

    #[test]
    fn tail_limits() {
        let m0 = MM1Sleep::new(1.0, 3.0, 250.0, vec![(135.5, 0.0, 0.0)]).unwrap();
        assert!((m0.prob_response_exceeds(1.0).unwrap() - (-2.0_f64).exp()).abs() < 1e-12);
        assert_eq!(m0.prob_response_exceeds(0.0).unwrap(), 1.0);
        let m1 = MM1Sleep::new(1.0, 3.0, 250.0, vec![(28.1, 0.0, 1.0)]).unwrap();
        let p = m1.prob_response_exceeds(1.0).unwrap();
        assert!(p > (-2.0_f64).exp() && p < 1.0, "setup fattens the tail: {p}");
        // Degenerate w1 = 1/(µf−λ) = 0.5.
        let md = MM1Sleep::new(1.0, 3.0, 250.0, vec![(28.1, 0.0, 0.5)]).unwrap();
        let pd = md.prob_response_exceeds(1.0).unwrap();
        assert!(((1.0 + 2.0) * (-2.0_f64).exp() - pd).abs() < 1e-6);
    }

    #[test]
    fn tail_has_no_closed_form_for_ladders() {
        let m = MM1Sleep::new(1.0, 3.0, 250.0, vec![(135.5, 0.0, 0.0), (28.1, 1.0, 1.0)]).unwrap();
        assert!(matches!(m.prob_response_exceeds(1.0), Err(AnalyticError::NoClosedForm { .. })));
        let delayed = MM1Sleep::new(1.0, 3.0, 250.0, vec![(28.1, 0.5, 1.0)]).unwrap();
        assert!(delayed.prob_response_exceeds(1.0).is_err());
    }

    #[test]
    fn validation() {
        assert!(matches!(
            MM1Sleep::new(2.0, 1.0, 250.0, vec![]),
            Err(AnalyticError::Unstable { .. })
        ));
        assert!(MM1Sleep::new(0.0, 1.0, 250.0, vec![]).is_err());
        assert!(MM1Sleep::new(0.5, 1.0, -1.0, vec![]).is_err());
        assert!(MM1Sleep::new(0.5, 1.0, 1.0, vec![(1.0, 0.5, 0.0), (1.0, 0.5, 0.0)]).is_err());
        assert!(MM1Sleep::new(0.5, 1.0, 1.0, vec![(-1.0, 0.0, 0.0)]).is_err());
        assert!(MM1Sleep::new(0.5, 1.0, 1.0, vec![(1.0, 0.0, -1.0)]).is_err());
    }
}
