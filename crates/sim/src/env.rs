use serde::{Deserialize, Serialize};
use sleepscale_power::{FrequencyScaling, SystemPowerModel};

/// The fixed physical environment of a simulation: the machine's power
/// model and the workload's service-time/frequency coupling.
///
/// Policies vary per evaluation; the environment stays constant across a
/// sweep, so it is shared by reference. A clone is not free: it copies
/// the platform's six named Table-2 rows (a `String` and five figures
/// each). [`crate::OnlineSim`] owns one clone and resolves its platform
/// power per state once, at construction, so the per-job step never
/// re-sums those rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimEnv {
    power: SystemPowerModel,
    scaling: FrequencyScaling,
}

impl SimEnv {
    /// Pairs a power model with a scaling law.
    pub fn new(power: SystemPowerModel, scaling: FrequencyScaling) -> SimEnv {
        SimEnv { power, scaling }
    }

    /// The Xeon Table-2 machine with CPU-bound scaling — the paper's
    /// default configuration.
    pub fn xeon_cpu_bound() -> SimEnv {
        SimEnv::new(sleepscale_power::presets::xeon(), FrequencyScaling::CpuBound)
    }

    /// The machine's power model.
    pub fn power(&self) -> &SystemPowerModel {
        &self.power
    }

    /// The service-time scaling law.
    pub fn scaling(&self) -> FrequencyScaling {
        self.scaling
    }

    /// Returns a copy with a different scaling law (Figure 4 sweeps β
    /// while keeping the machine fixed).
    pub fn with_scaling(&self, scaling: FrequencyScaling) -> SimEnv {
        SimEnv { power: self.power.clone(), scaling }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleepscale_power::Frequency;

    #[test]
    fn default_env_is_xeon_cpu_bound() {
        let env = SimEnv::xeon_cpu_bound();
        assert_eq!(env.scaling(), FrequencyScaling::CpuBound);
        assert_eq!(env.power().active_power(Frequency::MAX).as_watts(), 250.0);
    }

    #[test]
    fn with_scaling_swaps_law_only() {
        let env = SimEnv::xeon_cpu_bound();
        let mem = env.with_scaling(FrequencyScaling::MemoryBound);
        assert_eq!(mem.scaling(), FrequencyScaling::MemoryBound);
        assert_eq!(mem.power(), env.power());
    }
}
