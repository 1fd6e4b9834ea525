//! Trace-driven job-stream synthesis — the Section 6 evaluation input.
//!
//! "We first generate sequences of jobs by sampling the inter-arrival time
//! and service time CDFs from BigHouse … we then scale the inter-arrival
//! time between generated jobs to match the time-varying utilization."
//! Service times are stationary; only arrival spacing follows the trace.
//! [`replay_class`] is that rule, once; [`replay_trace`] and
//! `sleepscale_traffic::replay_traffic` both run it.

use crate::bighouse::WorkloadDistributions;
use crate::error::WorkloadError;
use crate::traces::UtilizationTrace;
use rand::RngCore;
use sleepscale_sim::{pack_id, ClassId, Job, JobStream};

/// Seconds per trace sample: traces are minute series, and the engines
/// count each sample as 60 s.
const SECONDS_PER_SAMPLE: f64 = 60.0;
/// Utilizations below this produce no arrivals for that sample (avoids
/// unbounded inter-arrival scaling).
const MIN_UTILIZATION: f64 = 1e-4;

/// Controls for [`replay_trace`]: the arrival-rate multiplier. A fleet
/// of `N` servers offered cluster-wide utilization `ρ(t)` (a fraction of
/// *total* fleet capacity) receives `N·ρ(t)·µ` arrivals per second; the
/// timeline is untouched, only arrivals densify. Only `default` (one
/// server) and [`ReplayConfig::for_fleet`] build one, so the multiplier
/// is finite and at least 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    rate_multiplier: f64,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig { rate_multiplier: 1.0 }
    }
}

impl ReplayConfig {
    /// The default configuration with the arrival rate multiplied by
    /// `n` — the cluster-wide stream for an `n`-server fleet.
    pub fn for_fleet(n: usize) -> ReplayConfig {
        ReplayConfig { rate_multiplier: n.max(1) as f64 }
    }
}

/// Builds the ground-truth job stream for a utilization trace: one
/// untagged [`replay_class`] pass at the trace's own utilization.
///
/// # Errors
///
/// Returns [`WorkloadError::Stream`] if stream assembly fails (it cannot,
/// barring distribution bugs — samples are validated).
pub fn replay_trace(
    trace: &UtilizationTrace,
    dists: &WorkloadDistributions,
    config: &ReplayConfig,
    rng: &mut dyn RngCore,
) -> Result<JobStream, WorkloadError> {
    let mut jobs = Vec::new();
    replay_class(trace, dists, |_, rho| rho, ClassId::DEFAULT, config, rng, &mut jobs);
    JobStream::new(jobs).map_err(WorkloadError::from)
}

/// Appends one population's jobs for `trace` to `jobs`, tagged `class`
/// and numbered by their index in `jobs`.
///
/// Sample `m` offers the population utilization `utilization(m, ρ(m))`:
/// each inter-arrival draw from `dists` is scaled so the sample's mean
/// gap is `service_mean / (utilization · rate_multiplier)` (arrival
/// rate `utilization·µ` per server), and sizes come from the stationary
/// service law at the full-speed scale.
pub fn replay_class(
    trace: &UtilizationTrace,
    dists: &WorkloadDistributions,
    utilization: impl Fn(usize, f64) -> f64,
    class: ClassId,
    config: &ReplayConfig,
    rng: &mut dyn RngCore,
    jobs: &mut Vec<Job>,
) {
    let service_mean = dists.spec().service_mean();
    let ia = dists.interarrival();
    let sv = dists.service();
    let ia_mean = ia.mean();
    let sv_scale = service_mean / sv.mean().max(1e-300);
    // The tag is packed once; OR-ing in the index needs no per-job
    // check, because a `Vec<Job>` cannot reach the 2⁴⁸ jobs (6.7 PB)
    // that would overflow the sequence bits.
    let tag = pack_id(0, class);
    let mut seq = jobs.len() as u64;

    let mut t = 0.0_f64;
    for (m, &rho) in trace.values().iter().enumerate() {
        let sample_start = m as f64 * SECONDS_PER_SAMPLE;
        let sample_end = sample_start + SECONDS_PER_SAMPLE;
        let rho = utilization(m, rho);
        if rho < MIN_UTILIZATION {
            // No arrivals this sample; restart the arrival clock at the
            // next sample boundary if it fell behind.
            t = t.max(sample_end);
            continue;
        }
        let target_ia = service_mean / (rho * config.rate_multiplier);
        let scale = target_ia / ia_mean;
        t = t.max(sample_start);
        loop {
            t += ia.sample(rng) * scale;
            if t >= sample_end {
                // The gap crosses into the next sample: the clock carries
                // forward so bursts don't pile up at boundaries.
                break;
            }
            let size = sv.sample(rng) * sv_scale;
            jobs.push(Job { id: tag | seq, arrival: t, size });
            seq += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use crate::traces;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dns_empirical(seed: u64) -> WorkloadDistributions {
        let mut rng = StdRng::seed_from_u64(seed);
        WorkloadDistributions::empirical(&WorkloadSpec::dns(), 10_000, &mut rng).unwrap()
    }

    #[test]
    fn constant_trace_hits_target_utilization() {
        let trace = UtilizationTrace::constant(0.3, 240).unwrap(); // 4 hours
        let dists = dns_empirical(1);
        let mut rng = StdRng::seed_from_u64(2);
        let jobs = replay_trace(&trace, &dists, &ReplayConfig::default(), &mut rng).unwrap();
        // Offered utilization = total work / horizon.
        let horizon = 240.0 * 60.0;
        let work: f64 = jobs.jobs().iter().map(|j| j.size).sum();
        let rho = work / horizon;
        assert!((rho - 0.3).abs() < 0.03, "measured ρ = {rho}");
    }

    #[test]
    fn utilization_scaling_tracks_the_trace() {
        // First hour at 0.1, second hour at 0.6: arrival counts scale ~6x.
        let mut values = vec![0.1; 60];
        values.extend(vec![0.6; 60]);
        let trace = UtilizationTrace::new("step", values).unwrap();
        let dists = dns_empirical(3);
        let mut rng = StdRng::seed_from_u64(4);
        let jobs = replay_trace(&trace, &dists, &ReplayConfig::default(), &mut rng).unwrap();
        let (lo, hi) = jobs.split_at_time(3600.0);
        let ratio = hi.len() as f64 / lo.len().max(1) as f64;
        assert!((ratio - 6.0).abs() < 1.5, "ratio {ratio}");
    }

    #[test]
    fn zero_utilization_minutes_have_no_arrivals() {
        let mut values = vec![0.0; 30];
        values.extend(vec![0.4; 30]);
        let trace = UtilizationTrace::new("quiet", values).unwrap();
        let dists = dns_empirical(5);
        let mut rng = StdRng::seed_from_u64(6);
        let jobs = replay_trace(&trace, &dists, &ReplayConfig::default(), &mut rng).unwrap();
        assert!(jobs.jobs().iter().all(|j| j.arrival >= 30.0 * 60.0));
        assert!(!jobs.is_empty());
    }

    #[test]
    fn arrivals_are_sorted_and_sizes_positive() {
        let trace = traces::email_store(1, 9).window(120, 240);
        let dists = dns_empirical(7);
        let mut rng = StdRng::seed_from_u64(8);
        let jobs = replay_trace(&trace, &dists, &ReplayConfig::default(), &mut rng).unwrap();
        let mut prev = 0.0;
        for j in jobs.jobs() {
            assert!(j.arrival >= prev);
            assert!(j.size > 0.0);
            prev = j.arrival;
        }
    }

    #[test]
    fn service_sizes_are_stationary_across_utilization() {
        let mut values = vec![0.1; 120];
        values.extend(vec![0.8; 120]);
        let trace = UtilizationTrace::new("ramp", values).unwrap();
        let dists = dns_empirical(11);
        let mut rng = StdRng::seed_from_u64(12);
        let jobs = replay_trace(&trace, &dists, &ReplayConfig::default(), &mut rng).unwrap();
        let (lo, hi) = jobs.split_at_time(120.0 * 60.0);
        assert!((lo.mean_size() - hi.mean_size()).abs() / lo.mean_size() < 0.25);
    }
}
