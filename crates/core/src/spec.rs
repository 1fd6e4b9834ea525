//! Declarative, serde-derivable mirrors of the strategy-construction
//! API — the data half of the Scenario redesign.
//!
//! The builder-method sprawl (`SleepScaleStrategy::new(..)
//! .with_predictor(..).with_alpha(..).with_search_mode(..)`) is great
//! for one-off wiring but cannot be stored, compared, or shipped inside
//! a scenario file. [`StrategySpec`] (with [`CandidateSpec`] and
//! [`PredictorSpec`]) is the declarative construction path: a plain
//! data enum that names a strategy the way the paper names them
//! (SleepScale / SS(C3) / DVFS / R2H / analytic / fixed) and can be
//! lowered into a live [`Strategy`] against any [`RuntimeConfig`].
//! Heterogeneous fleets store one spec per server group and build a
//! fresh strategy per server from it.

use crate::analytic_strategy::AnalyticStrategy;
use crate::candidates::CandidateSet;
use crate::manager::SearchMode;
use crate::runtime::RuntimeConfig;
use crate::strategies::{FixedPolicyStrategy, SleepScaleStrategy, Strategy};
use serde::{Deserialize, Serialize};
use sleepscale_power::{presets, Policy, SystemState};
use sleepscale_predict::{Lms, LmsCusum, MovingAverage, NaivePrevious, Offline, Predictor};

/// Which candidate search space a managed strategy explores — the
/// declarative mirror of the [`CandidateSet`] constructors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CandidateSpec {
    /// [`CandidateSet::standard`]: all five single-stage programs.
    Standard,
    /// [`CandidateSet::single_state`]: SleepScale restricted to one
    /// low-power state (the paper's `SS(C3)`).
    SingleState(SystemState),
    /// [`CandidateSet::dvfs_only`]: frequency scaling, never sleep.
    DvfsOnly,
    /// The standard set extended with two-stage delayed-deep-sleep
    /// programs ([`CandidateSet::with_delayed_deep_sleep`]).
    DelayedDeepSleep {
        /// Dwell delays (seconds) before dropping to `C6S3`.
        delays_seconds: Vec<f64>,
    },
}

impl CandidateSpec {
    /// Lowers the spec into a live candidate set.
    pub fn build(&self) -> CandidateSet {
        match self {
            CandidateSpec::Standard => CandidateSet::standard(),
            CandidateSpec::SingleState(state) => CandidateSet::single_state(*state),
            CandidateSpec::DvfsOnly => CandidateSet::dvfs_only(),
            CandidateSpec::DelayedDeepSleep { delays_seconds } => {
                CandidateSet::standard().with_delayed_deep_sleep(delays_seconds)
            }
        }
    }
}

/// Which utilization predictor drives a managed strategy — the
/// declarative mirror of the `sleepscale-predict` constructors
/// (Figure 8 compares them).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum PredictorSpec {
    /// The strategy's own default: the paper's LMS+CUSUM hybrid with
    /// the history depth from [`RuntimeConfig::predictor_history`] —
    /// the config stays the source of truth for the default predictor.
    #[default]
    ConfigDefault,
    /// The paper's LMS+CUSUM hybrid (Algorithm 2) at an explicit
    /// history depth.
    LmsCusum {
        /// History depth `p`.
        history: usize,
    },
    /// Pure least-mean-squares.
    Lms {
        /// History depth `p`.
        history: usize,
    },
    /// Last observed minute, verbatim.
    NaivePrevious,
    /// Mean of the last `window` minutes.
    MovingAverage {
        /// Window length in minutes.
        window: usize,
    },
    /// Oracle replay of a known future (offline upper bound).
    Offline {
        /// The per-epoch utilizations the oracle will "predict".
        future: Vec<f64>,
    },
}

impl PredictorSpec {
    /// Lowers the spec into a live predictor for `config`.
    pub fn build(&self, config: &RuntimeConfig) -> Box<dyn Predictor> {
        match self {
            PredictorSpec::ConfigDefault => Box::new(LmsCusum::new(config.predictor_history())),
            PredictorSpec::LmsCusum { history } => Box::new(LmsCusum::new(*history)),
            PredictorSpec::Lms { history } => Box::new(Lms::new(*history)),
            PredictorSpec::NaivePrevious => Box::new(NaivePrevious::new()),
            PredictorSpec::MovingAverage { window } => Box::new(MovingAverage::new(*window)),
            PredictorSpec::Offline { future } => Box::new(Offline::new(future.clone())),
        }
    }
}

/// A strategy as data: the declarative construction path for every
/// per-epoch policy source this crate implements.
///
/// A spec is what a scenario stores per server group; lowering it with
/// [`StrategySpec::build`] against a group's [`RuntimeConfig`] (which
/// carries the QoS constraint, over-provisioning `α`, characterization
/// environment, and evaluation depth) yields a fresh, independent
/// strategy per server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StrategySpec {
    /// The full SleepScale runtime (Section 5): predictor + job log +
    /// policy manager.
    SleepScale {
        /// The candidate search space.
        candidates: CandidateSpec,
        /// Exhaustive (Algorithm 1 literal) or pruned coarse-to-fine.
        search: SearchMode,
        /// The utilization predictor.
        predictor: PredictorSpec,
        /// Whether selections are memoized in a characterization cache
        /// (`false` recovers the paper's literal re-characterize-every-
        /// epoch runtime; in a fleet it also opts the group out of
        /// cache sharing).
        cached: bool,
    },
    /// Simulation-free selection from the closed-form M/M/1-with-sleep
    /// model (Section 5.1.2, observation 3).
    Analytic {
        /// The candidate search space.
        candidates: CandidateSpec,
        /// The utilization predictor.
        predictor: PredictorSpec,
    },
    /// Race-to-halt into one fixed sleep state (Section 6.1's R2H
    /// baselines).
    RaceToHalt {
        /// The state raced into (e.g. [`SystemState::C6_S0I`]).
        state: SystemState,
    },
    /// One fixed policy every epoch (the static baselines).
    FixedPolicy {
        /// The policy deployed unconditionally.
        policy: Policy,
    },
}

impl Default for StrategySpec {
    fn default() -> StrategySpec {
        StrategySpec::sleepscale()
    }
}

impl StrategySpec {
    /// The paper's default runtime: standard candidates, pruned search,
    /// LMS+CUSUM predictor, characterization caching on.
    pub fn sleepscale() -> StrategySpec {
        StrategySpec::SleepScale {
            candidates: CandidateSpec::Standard,
            search: SearchMode::CoarseToFine,
            predictor: PredictorSpec::default(),
            cached: true,
        }
    }

    /// Race-to-halt into `C6S0(i)` — the stronger of the paper's two
    /// R2H baselines.
    pub fn race_to_halt_c6() -> StrategySpec {
        StrategySpec::RaceToHalt { state: SystemState::C6_S0I }
    }

    /// DVFS-only SleepScale (frequency scaling, never sleep).
    pub fn dvfs_only() -> StrategySpec {
        StrategySpec::SleepScale {
            candidates: CandidateSpec::DvfsOnly,
            search: SearchMode::CoarseToFine,
            predictor: PredictorSpec::default(),
            cached: true,
        }
    }

    /// Closed-form analytic selection over the standard candidates.
    pub fn analytic() -> StrategySpec {
        StrategySpec::Analytic {
            candidates: CandidateSpec::Standard,
            predictor: PredictorSpec::default(),
        }
    }

    /// Whether this spec lowers to a policy-*managed* strategy whose
    /// characterizations can be shared through a fleet cache (the
    /// cluster engine's owner-election path).
    pub fn is_managed(&self) -> bool {
        matches!(self, StrategySpec::SleepScale { .. })
    }

    /// Whether the lowered strategy memoizes characterizations — the
    /// single source of truth fleet engines consult before handing a
    /// group's servers one shared cache.
    pub fn is_cached(&self) -> bool {
        matches!(self, StrategySpec::SleepScale { cached: true, .. })
    }

    /// Lowers a [`StrategySpec::SleepScale`] spec into the concrete
    /// strategy type (fleet engines need the concrete type for
    /// characterization planning and cache sharing); `None` for every
    /// other variant.
    pub fn build_managed(&self, config: &RuntimeConfig) -> Option<SleepScaleStrategy> {
        let StrategySpec::SleepScale { candidates, search, predictor, cached } = self else {
            return None;
        };
        let mut strategy =
            SleepScaleStrategy::new(config, candidates.build()).with_search_mode(*search);
        // The config-default predictor is what `new` already installed;
        // only an explicit spec swaps it (which also tags the label).
        if *predictor != PredictorSpec::ConfigDefault {
            strategy = strategy.with_predictor(predictor.build(config));
        }
        Some(if *cached { strategy } else { strategy.without_cache() })
    }

    /// Lowers the spec into a live strategy for `config`.
    pub fn build(&self, config: &RuntimeConfig) -> Box<dyn Strategy + Send> {
        match self {
            StrategySpec::SleepScale { .. } => {
                Box::new(self.build_managed(config).expect("variant checked"))
            }
            StrategySpec::Analytic { candidates, predictor } => {
                let mut strategy = AnalyticStrategy::new(config, candidates.build());
                if *predictor != PredictorSpec::ConfigDefault {
                    strategy = strategy.with_predictor(predictor.build(config));
                }
                Box::new(strategy)
            }
            StrategySpec::RaceToHalt { state } => {
                Box::new(FixedPolicyStrategy::race_to_halt(presets::immediate_stage(*state)))
            }
            StrategySpec::FixedPolicy { policy } => {
                Box::new(FixedPolicyStrategy::new(policy.clone()))
            }
        }
    }

    /// A short display label for reports and scenario tables.
    pub fn label(&self) -> String {
        match self {
            StrategySpec::SleepScale { candidates, search, cached, .. } => {
                let base = match candidates {
                    CandidateSpec::Standard => "SS".to_string(),
                    CandidateSpec::SingleState(state) => format!("SS({})", state.cpu().name()),
                    CandidateSpec::DvfsOnly => "DVFS".to_string(),
                    CandidateSpec::DelayedDeepSleep { .. } => "SS+delay".to_string(),
                };
                match (search, cached) {
                    (SearchMode::Exhaustive, true) => format!("{base}/exh"),
                    (SearchMode::Exhaustive, false) => format!("{base}/exh/nocache"),
                    (SearchMode::CoarseToFine, false) => format!("{base}/nocache"),
                    (SearchMode::CoarseToFine, true) => base,
                }
            }
            StrategySpec::Analytic { .. } => "analytic".to_string(),
            StrategySpec::RaceToHalt { state } => format!("R2H({})", state.cpu().name()),
            StrategySpec::FixedPolicy { policy } => format!("Fixed[{}]", policy.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::QosConstraint;

    fn config() -> RuntimeConfig {
        RuntimeConfig::builder(0.194)
            .qos(QosConstraint::mean_response(0.8).unwrap())
            .eval_jobs(300)
            .build()
            .unwrap()
    }

    #[test]
    fn candidate_specs_lower_to_the_named_sets() {
        assert_eq!(CandidateSpec::Standard.build(), CandidateSet::standard());
        assert_eq!(
            CandidateSpec::SingleState(SystemState::C3_S0I).build(),
            CandidateSet::single_state(SystemState::C3_S0I)
        );
        assert_eq!(CandidateSpec::DvfsOnly.build(), CandidateSet::dvfs_only());
        let delayed = CandidateSpec::DelayedDeepSleep { delays_seconds: vec![0.5] }.build();
        assert_eq!(delayed.programs().len(), 6);
    }

    #[test]
    fn predictor_specs_lower_to_the_named_predictors() {
        let cfg = config();
        assert_eq!(PredictorSpec::default().build(&cfg).name(), LmsCusum::new(10).name());
        assert_eq!(PredictorSpec::NaivePrevious.build(&cfg).name(), NaivePrevious::new().name());
        assert_eq!(
            PredictorSpec::MovingAverage { window: 5 }.build(&cfg).name(),
            MovingAverage::new(5).name()
        );
    }

    /// The config, not the spec, owns the default predictor's history:
    /// a fleet configured with `predictor_history(30)` must actually
    /// predict with history 30 under the default spec.
    #[test]
    fn config_default_predictor_honors_predictor_history() {
        let cfg = RuntimeConfig::builder(0.194)
            .qos(QosConstraint::mean_response(0.8).unwrap())
            .predictor_history(30)
            .eval_jobs(300)
            .build()
            .unwrap();
        // `name()` doesn't carry the depth, so compare behavior: after
        // an identical observation stream, the config-default predictor
        // must agree with a direct LmsCusum(30) and (on a noisy ramp)
        // disagree with the old hard-coded LmsCusum(10).
        let mut from_spec = PredictorSpec::default().build(&cfg);
        let mut depth_30 = LmsCusum::new(30);
        let mut depth_10 = LmsCusum::new(10);
        for i in 0..120 {
            let rho = 0.2 + 0.3 * (i as f64 / 120.0) + 0.05 * ((i * 7 % 13) as f64 / 13.0);
            from_spec.observe(rho);
            depth_30.observe(rho);
            depth_10.observe(rho);
        }
        assert_eq!(from_spec.predict(), depth_30.predict());
        assert_ne!(from_spec.predict(), depth_10.predict());
        // The managed build leaves the strategy's own (config-derived)
        // predictor in place — same label as direct construction.
        let via_spec = StrategySpec::sleepscale().build_managed(&cfg).unwrap();
        let direct = SleepScaleStrategy::new(&cfg, CandidateSet::standard());
        assert_eq!(via_spec.name(), direct.name());
    }

    #[test]
    fn default_spec_is_the_paper_runtime() {
        let spec = StrategySpec::default();
        assert!(spec.is_managed());
        assert_eq!(spec.label(), "SS");
        let managed = spec.build_managed(&config()).unwrap();
        assert!(managed.name().starts_with("SS"));
        // The boxed path builds the same strategy kind.
        let boxed = spec.build(&config());
        assert_eq!(boxed.name(), managed.name());
    }

    #[test]
    fn baseline_specs_build_and_label() {
        let cfg = config();
        assert_eq!(StrategySpec::race_to_halt_c6().label(), "R2H(C6)");
        assert_eq!(StrategySpec::race_to_halt_c6().build(&cfg).name(), "R2H(C6)");
        assert!(!StrategySpec::race_to_halt_c6().is_managed());
        assert!(StrategySpec::race_to_halt_c6().build_managed(&cfg).is_none());
        assert_eq!(StrategySpec::analytic().label(), "analytic");
        assert!(StrategySpec::analytic().build(&cfg).name().contains("analytic"));
        let fixed = StrategySpec::FixedPolicy { policy: Policy::full_speed_no_sleep() };
        assert!(fixed.build(&cfg).name().contains("Fixed"));
        assert_eq!(StrategySpec::dvfs_only().label(), "DVFS");
    }

    #[test]
    fn uncached_and_exhaustive_variants_are_labelled() {
        let spec = StrategySpec::SleepScale {
            candidates: CandidateSpec::Standard,
            search: SearchMode::Exhaustive,
            predictor: PredictorSpec::default(),
            cached: false,
        };
        assert_eq!(spec.label(), "SS/exh/nocache");
    }
}
