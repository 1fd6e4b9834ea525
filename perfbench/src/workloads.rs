//! The four benchmark workloads, as scenarios built from a seed.

use sleepscale::StrategySpec;
use sleepscale_cluster::ServerGroup;
use sleepscale_scenario::{
    catalog, DispatcherSpec, LoadSchedule, Scenario, TelemetrySpec, WorkloadSource,
};

/// Worker threads every scenario runs with: the two hardware threads
/// the benchmark was sized on, pinned so that no run auto-sizes
/// (`threads: 0`) to a different machine.
pub const THREADS: usize = 2;

/// Servers in the sharded race-to-halt fleet. 16 384 servers reached
/// 1.1 GB of resident memory, too much for a shared machine; 4 096
/// stays near half a gigabyte.
const RACE_SERVERS: usize = 4_096;

/// Shards of the race-to-halt fleet: one per worker thread.
const RACE_SHARDS: usize = 2;

/// The split seed of the race-to-halt fleet's seeded-hash routing.
const RACE_SPLIT_SEED: u64 = 17;

/// Scenario seeds an untraced run cycles through. The modelled
/// response of the managed fleets swings by ±20% from one job-stream
/// seed to the next; the end-to-end `sim_*` metrics are means over this
/// many seeds so that they stay within their bounds across `--seed`s.
pub const SUB_SEEDS: usize = 6;

/// The `i`th scenario seed of a run at `base`: `base` itself for
/// `i = 0`; the seed sets of distinct bases below 2³² never overlap.
pub fn sub_seed(base: u64, i: usize) -> u64 {
    base.wrapping_add((i as u64) << 32)
}

/// What a workload writes besides its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// Nothing: the report is the only output.
    ReportOnly,
    /// An epoch journal, through `ScenarioRunner::run_checkpointed`.
    Journal,
    /// The merged telemetry trace, as JSONL through `FileSink`.
    Trace,
}

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §6 day on one server (journaled in traced runs).
    PaperDay,
    /// The 64-server join-shortest-backlog fleet, central loop.
    Fleet64Day,
    /// 4 096 race-to-halt servers on the sharded engine.
    RaceFleetSharded,
    /// The autoscaled two-tier day with full telemetry to a JSONL file.
    AutoscaleDayTraced,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperDay,
        Workload::Fleet64Day,
        Workload::RaceFleetSharded,
        Workload::AutoscaleDayTraced,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDay => "paper-day",
            Workload::Fleet64Day => "fleet64-day",
            Workload::RaceFleetSharded => "race-fleet-sharded",
            Workload::AutoscaleDayTraced => "autoscale-day-traced",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What the workload writes besides its report, in untraced
    /// (`traced == false`) or traced runs. `paper-day` journals only in
    /// traced runs: on a 2-vCPU virtual machine with an ext4 disk, the
    /// journal's per-epoch sync made untraced throughput swing by ±40%
    /// between runs of 20 seconds, more than any bound allows, while the
    /// traced pass still measures every append.
    pub fn output(self, traced: bool) -> Output {
        match self {
            Workload::PaperDay if traced => Output::Journal,
            Workload::AutoscaleDayTraced => Output::Trace,
            Workload::PaperDay | Workload::Fleet64Day | Workload::RaceFleetSharded => {
                Output::ReportOnly
            }
        }
    }

    /// The workload's scenario. `seed` replaces the scenario seed, which
    /// draws the job stream; `None` keeps the catalog's seed. The load
    /// schedule keeps its catalog seed: it is part of the workload, and
    /// moving its flash crowds onto `fleet64-day`'s peak swings the
    /// modelled mean response sixfold.
    pub fn scenario(self, seed: Option<u64>) -> Scenario {
        let mut scenario = match self {
            Workload::PaperDay => catalog::dns_day(),
            Workload::Fleet64Day => catalog::fleet64(),
            Workload::RaceFleetSharded => {
                let mut s = Scenario::new(
                    "race-fleet-sharded",
                    WorkloadSource::Dns,
                    LoadSchedule::Constant { rho: 0.15, minutes: 60 },
                );
                s.fleet =
                    vec![ServerGroup::new("race", RACE_SERVERS, StrategySpec::race_to_halt_c6())];
                s.dispatcher = DispatcherSpec::SplitUniform { seed: RACE_SPLIT_SEED };
                s.shards = RACE_SHARDS;
                s
            }
            Workload::AutoscaleDayTraced => {
                let mut s = catalog::autoscale_day();
                s.telemetry = Some(TelemetrySpec::full());
                s
            }
        };
        scenario.threads = THREADS;
        if let Some(seed) = seed {
            scenario.seed = seed;
        }
        scenario
    }

    /// The [`SUB_SEEDS`] scenarios of an untraced run at `seed`, the
    /// first of them [`Workload::scenario`]'s.
    pub fn scenarios(self, seed: Option<u64>) -> Vec<Scenario> {
        let first = self.scenario(seed);
        (0..SUB_SEEDS)
            .map(|i| Scenario { seed: sub_seed(first.seed, i), ..first.clone() })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_seeds_reach_the_scenario() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert_eq!(w.scenario(None).threads, THREADS);
        }
        let day = Workload::PaperDay.scenario(Some(99));
        assert_eq!(day.seed, 99);
        assert_eq!(day.load, catalog::dns_day().load);
        assert_eq!(Workload::PaperDay.scenario(None).seed, catalog::dns_day().seed);
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn sub_seed_sets_start_at_the_seed_and_never_overlap() {
        let seeds = |base| {
            Workload::Fleet64Day.scenarios(Some(base)).iter().map(|s| s.seed).collect::<Vec<_>>()
        };
        let (a, b) = (seeds(1), seeds(2));
        assert_eq!((a.len(), a[0], b[0]), (SUB_SEEDS, 1, 2));
        assert!(a.iter().all(|s| !b.contains(s)));
        let mut unique = a.clone();
        unique.dedup();
        assert_eq!(unique.len(), SUB_SEEDS);
    }
}
