//! Figure 9: SleepScale vs other power-control strategies — response
//! time (a) and average power (b) for SS, SS(C3), DVFS-only, R2H(C3),
//! R2H(C6), all with the LMS+CUSUM predictor (p = 10), T = 5 minutes,
//! and over-provisioning α = 0.35 for the managed strategies.
//!
//! Paper shape: SS achieves the lowest power while staying within the
//! response budget; DVFS-only wastes power (no sleeping) *and* blows the
//! response budget (it consumes the whole budget, so mispredictions
//! queue up); R2H variants keep responses tiny but burn power at f = 1;
//! SS(C3) sits between SS and R2H.

use crate::figures::fig8::dns_day;
use crate::{write_csv, Quality};
use sleepscale::{
    run, CandidateSet, FixedPolicyStrategy, QosConstraint, RuntimeConfig, SleepScaleStrategy,
    Strategy,
};
use sleepscale_power::{presets, SystemState};
use sleepscale_predict::LmsCusum;
use sleepscale_sim::SimEnv;

/// One strategy's realized metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Bar {
    /// Strategy label.
    pub strategy: String,
    /// Realized normalized mean response `µE[R]`.
    pub norm_response: f64,
    /// Realized average power (W).
    pub power_w: f64,
}

/// The over-provisioning factor the paper evaluates.
pub const ALPHA: f64 = 0.35;

/// Generates all five bars.
pub fn generate(q: Quality) -> Vec<Bar> {
    let (trace, jobs, spec) = dns_day(q, 900);
    let env = SimEnv::xeon_cpu_bound();
    let config = RuntimeConfig::builder(spec.service_mean())
        .qos(QosConstraint::mean_response(0.8).expect("valid rho_b"))
        .epoch_minutes(5)
        .eval_jobs(q.eval_jobs())
        .over_provisioning(ALPHA)
        .build()
        .expect("valid runtime config");

    let mut strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(
            SleepScaleStrategy::new(&config, CandidateSet::standard())
                .with_predictor(Box::new(LmsCusum::new(10))),
        ),
        Box::new(
            SleepScaleStrategy::new(&config, CandidateSet::single_state(SystemState::C3_S0I))
                .with_predictor(Box::new(LmsCusum::new(10))),
        ),
        Box::new(
            SleepScaleStrategy::new(&config, CandidateSet::dvfs_only())
                .with_predictor(Box::new(LmsCusum::new(10))),
        ),
        Box::new(FixedPolicyStrategy::race_to_halt(presets::C3_S0I)),
        Box::new(FixedPolicyStrategy::race_to_halt(presets::C6_S0I)),
    ];

    strategies
        .iter_mut()
        .map(|s| {
            let report = run(&trace, &jobs, s.as_mut(), &env, &config).expect("runtime completes");
            Bar {
                strategy: report.strategy().to_string(),
                norm_response: report.normalized_mean_response(),
                power_w: report.avg_power_watts(),
            }
        })
        .collect()
}

/// Prints the figure and writes `results/fig9.csv`.
pub fn run_figure(q: Quality) -> std::io::Result<()> {
    let bars = generate(q);
    println!("== Figure 9: strategy comparison (LC p=10, T=5, alpha=0.35) ==");
    println!("{:>16} {:>14} {:>10}", "strategy", "mu*E[R]", "E[P] (W)");
    let mut rows = Vec::new();
    for b in &bars {
        println!("{:>16} {:>14.2} {:>10.1}", b.strategy, b.norm_response, b.power_w);
        rows.push(vec![
            b.strategy.clone(),
            format!("{:.4}", b.norm_response),
            format!("{:.2}", b.power_w),
        ]);
    }
    let path = write_csv("fig9", &["strategy", "norm_response", "power_w"], &rows)?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleepscale_wins_on_power_within_budget() {
        let bars = generate(Quality::Quick);
        let ss = &bars[0];
        assert!(ss.strategy.starts_with("SS["), "first bar is SS: {}", ss.strategy);
        for other in &bars[1..] {
            assert!(
                ss.power_w < other.power_w + 1e-9,
                "SS {} W should not exceed {} at {} W",
                ss.power_w,
                other.strategy,
                other.power_w
            );
        }
        // Within the µE[R] = 5 budget with slack for prediction noise.
        assert!(ss.norm_response < 6.5, "SS µE[R] = {}", ss.norm_response);
    }

    #[test]
    fn race_to_halt_keeps_responses_small_but_burns_power() {
        let bars = generate(Quality::Quick);
        let ss = &bars[0];
        let r2h_c6 = bars.iter().find(|b| b.strategy == "R2H(C6)").unwrap();
        assert!(r2h_c6.norm_response < 3.0, "R2H runs flat out: {}", r2h_c6.norm_response);
        assert!(
            r2h_c6.power_w > ss.power_w,
            "R2H {} W should exceed SS {} W",
            r2h_c6.power_w,
            ss.power_w
        );
    }

    #[test]
    fn dvfs_only_wastes_power() {
        let bars = generate(Quality::Quick);
        let ss = &bars[0];
        let dvfs = bars.iter().find(|b| b.strategy.starts_with("DVFS")).unwrap();
        assert!(dvfs.power_w > ss.power_w + 10.0, "DVFS {} W vs SS {} W", dvfs.power_w, ss.power_w);
    }
}
