//! The paper's four counting workloads, runnable on every system.

use gpm_graph::partition::PartitionedGraph;
use gpm_graph::Graph;
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::Pattern;
use khuzdul::{Counter, CounterValues, Engine, EngineConfig, PartStats, RunStats};
use serde::Serialize;
use std::time::Duration;

/// One of the evaluation applications (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum App {
    /// Triangle counting.
    Tc,
    /// 3-motif counting.
    ThreeMc,
    /// 4-clique counting.
    FourCc,
    /// 5-clique counting.
    FiveCc,
}

impl App {
    /// The full workload set of Table 2.
    pub const ALL: [App; 4] = [App::Tc, App::ThreeMc, App::FourCc, App::FiveCc];

    /// Paper row label.
    pub fn name(self) -> &'static str {
        match self {
            App::Tc => "TC",
            App::ThreeMc => "3-MC",
            App::FourCc => "4-CC",
            App::FiveCc => "5-CC",
        }
    }

    /// The patterns this app enumerates (with induced semantics for
    /// motif counting).
    pub fn patterns(self) -> Vec<(Pattern, bool)> {
        match self {
            App::Tc => vec![(Pattern::triangle(), false)],
            App::ThreeMc => {
                gpm_pattern::genpat::connected_patterns(3).into_iter().map(|p| (p, true)).collect()
            }
            App::FourCc => vec![(Pattern::clique(4), false)],
            App::FiveCc => vec![(Pattern::clique(5), false)],
        }
    }

    /// Compiles this app's plans under the client system's options.
    pub fn plans(self, base: &PlanOptions) -> Vec<MatchingPlan> {
        self.patterns()
            .into_iter()
            .map(|(p, induced)| {
                let opts = PlanOptions { induced, ..base.clone() };
                MatchingPlan::compile(&p, &opts).expect("workload patterns compile")
            })
            .collect()
    }

    /// Runs the app on a Khuzdul engine, summing over its patterns.
    ///
    /// Motif counting routes through the client system's preferred
    /// algorithm: with IEP enabled (k-GraphPi) the counts come from
    /// non-induced enumeration plus the inclusion–exclusion solve — the
    /// "better pattern matching algorithm" the paper credits for
    /// k-GraphPi's 3-MC advantage.
    pub fn run_khuzdul(self, engine: &Engine, base: &PlanOptions) -> RunStats {
        if self == App::ThreeMc && base.iep {
            let motifs = gpm_apps::counting::motif_count_noninduced(engine, 3, base)
                .expect("3-motif patterns compile");
            let mut counters = CounterValues::default();
            counters[Counter::NetworkBytes] = motifs.network_bytes;
            return RunStats::new(
                motifs.total,
                motifs.elapsed,
                motifs.per_part,
                counters,
                Default::default(),
            );
        }
        let (mut count, mut elapsed) = (0, Duration::ZERO);
        let mut counters = CounterValues::default();
        let mut per_part: Vec<PartStats> = Vec::new();
        for plan in self.plans(base) {
            let run = engine.count(&plan);
            count += run.count;
            elapsed += run.elapsed;
            counters += &run.counters;
            if per_part.is_empty() {
                per_part = run.per_part;
            } else {
                for (acc, p) in per_part.iter_mut().zip(run.per_part) {
                    acc.count += p.count;
                    acc.compute += p.compute;
                    acc.network += p.network;
                    acc.scheduler += p.scheduler;
                    acc.cache += p.cache;
                }
            }
        }
        RunStats::new(count, elapsed, per_part, counters, Default::default())
    }
}

/// Builds a Khuzdul engine for a benchmark, with the cache sized to the
/// paper's recommended fraction of the graph (§7.6 uses at most 15%).
pub fn engine_for(g: &Graph, machines: usize, sockets: usize, threads: usize) -> Engine {
    let cfg = EngineConfig {
        compute_threads: threads,
        cache: khuzdul::CacheConfig {
            capacity_per_machine: (g.size_bytes() / 10).max(64 << 10),
            degree_threshold: 64,
            ..Default::default()
        },
        ..EngineConfig::default()
    };
    Engine::new(PartitionedGraph::new(g, machines, sockets), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen;
    use gpm_pattern::oracle;

    #[test]
    fn apps_compile_and_run() {
        let g = gen::erdos_renyi(80, 350, 1);
        let engine = engine_for(&g, 2, 1, 1);
        for app in App::ALL {
            let run = app.run_khuzdul(&engine, &PlanOptions::automine());
            let expect: u64 = app
                .patterns()
                .iter()
                .map(|(p, induced)| oracle::count_subgraphs(&g, p, *induced))
                .sum();
            assert_eq!(run.count, expect, "{}", app.name());
        }
        engine.shutdown();
    }

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> = App::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
