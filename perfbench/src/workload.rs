//! Workload definitions: the seeded inputs and the engine settings of
//! each workload, and the fingerprint that identifies a run's inputs.

use gpm_graph::{gen, Graph};
use gpm_pattern::Pattern;
use khuzdul::{ControlConfig, ControlMode, EngineConfig, ObsConfig, StealConfig};
use serde::Value;
use std::time::Duration;

/// Simulated machines (one part each) in every workload.
pub const MACHINES: usize = 2;
/// Compute threads per part in every workload.
pub const THREADS: usize = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 4-cliques on a skewed R-MAT graph: extension compute dominates.
    Clique4Skewed,
    /// Triangles on a flat Erdős–Rényi graph, stealing over the message
    /// carrier: fetches and scheduling dominate.
    TriangleFlat,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::Clique4Skewed, Workload::TriangleFlat];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Clique4Skewed => "clique4-skewed",
            Workload::TriangleFlat => "triangle-flat",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The graph generator of this workload at `seed`.
    pub fn generator(self, seed: u64) -> GenSpec {
        match self {
            Workload::Clique4Skewed => GenSpec::Rmat { scale: 14, edge_factor: 16, seed },
            Workload::TriangleFlat => GenSpec::ErdosRenyi { n: 200_000, m: 1_500_000, seed },
        }
    }

    /// Engine settings; `traced` turns on the engine's own span recorder.
    pub fn engine_config(self, traced: bool) -> EngineConfig {
        let mut cfg = EngineConfig { compute_threads: THREADS, ..EngineConfig::default() };
        if self == Workload::TriangleFlat {
            cfg.steal = StealConfig { enabled: true, ..StealConfig::default() };
            cfg.control = ControlConfig { mode: ControlMode::Msg, ..ControlConfig::default() };
        }
        if traced {
            cfg.obs = ObsConfig::enabled();
        }
        cfg
    }

    /// Latency limit of `slo_frac`: a count meets the objective when it
    /// completes within this. Each limit is about 1.75 times the median
    /// count at the first trajectory point, well above the slowest count
    /// seen there (1.2 times the median on `clique4-skewed`, 1.4 times on
    /// `triangle-flat`). A limit inside the 10-20% drift of identical
    /// counts between runs would make `slo_frac` flip from run to run;
    /// this one only flags a large slowdown.
    pub fn slo_limit(self) -> Duration {
        match self {
            Workload::Clique4Skewed => Duration::from_secs(8),
            Workload::TriangleFlat => Duration::from_millis(1000),
        }
    }

    /// The pattern the workload counts.
    pub fn pattern(self) -> Pattern {
        match self {
            Workload::Clique4Skewed => Pattern::clique(4),
            Workload::TriangleFlat => Pattern::triangle(),
        }
    }
}

/// A seeded graph generator call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GenSpec {
    /// `gen::rmat(scale, edge_factor, GRAPH500, seed)`.
    Rmat {
        /// log2 of the vertex count.
        scale: u32,
        /// Sampled edges per vertex.
        edge_factor: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `gen::erdos_renyi(n, m, seed)`.
    ErdosRenyi {
        /// Vertices.
        n: usize,
        /// Edges.
        m: usize,
        /// Generator seed.
        seed: u64,
    },
}

/// The Graph500 R-MAT quadrant probabilities.
const GRAPH500: (f64, f64, f64) = (0.57, 0.19, 0.19);

impl GenSpec {
    /// Generates the graph.
    pub fn build(&self) -> Graph {
        match *self {
            GenSpec::Rmat { scale, edge_factor, seed } => {
                gen::rmat(scale, edge_factor, GRAPH500, seed)
            }
            GenSpec::ErdosRenyi { n, m, seed } => gen::erdos_renyi(n, m, seed),
        }
    }

    /// The call, written out.
    pub fn describe(&self) -> String {
        match *self {
            GenSpec::Rmat { scale, edge_factor, seed } => {
                let (a, b, c) = GRAPH500;
                format!("gen::rmat({scale}, {edge_factor}, ({a}, {b}, {c}), {seed})")
            }
            GenSpec::ErdosRenyi { n, m, seed } => format!("gen::erdos_renyi({n}, {m}, {seed})"),
        }
    }
}

/// FNV-1a over a sequence of words.
fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01b3))
}

/// What a run's inputs were: two results are comparable only when their
/// fingerprints are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Workload name.
    pub workload: &'static str,
    /// The `--seed` argument.
    pub seed: u64,
    /// The generator call.
    pub generator: String,
    /// |V|.
    pub vertices: u64,
    /// |E| (undirected).
    pub edges: u64,
    /// Maximum degree.
    pub max_degree: u64,
    /// Hash of the adjacency lists.
    pub graph_hash: u64,
    /// Parts (simulated machines).
    pub parts: u64,
    /// Compute threads per part.
    pub threads: u64,
    /// Cross-part stealing on.
    pub steal: bool,
    /// Control carrier.
    pub carrier: &'static str,
    /// Hardware threads of the host.
    pub nproc: u64,
}

impl Fingerprint {
    /// Fingerprints `g` as generated for `workload` at `seed`.
    pub fn of(workload: Workload, seed: u64, g: &Graph) -> Fingerprint {
        let cfg = workload.engine_config(false);
        let graph_hash = fnv(g.vertices().flat_map(|v| {
            std::iter::once(u64::MAX).chain(g.neighbors(v).iter().map(|&u| u as u64))
        }));
        Fingerprint {
            workload: workload.name(),
            seed,
            generator: workload.generator(seed).describe(),
            vertices: g.vertex_count() as u64,
            edges: g.edge_count() as u64,
            max_degree: g.max_degree() as u64,
            graph_hash,
            parts: MACHINES as u64,
            threads: cfg.compute_threads as u64,
            steal: cfg.steal.enabled,
            carrier: match cfg.control.mode {
                ControlMode::Shared => "shared",
                ControlMode::Msg => "msg",
            },
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.into())),
            ("seed".into(), Value::UInt(self.seed)),
            ("generator".into(), Value::Str(self.generator.clone())),
            ("vertices".into(), Value::UInt(self.vertices)),
            ("edges".into(), Value::UInt(self.edges)),
            ("max_degree".into(), Value::UInt(self.max_degree)),
            ("graph_hash".into(), Value::Str(format!("{:016x}", self.graph_hash))),
            ("parts".into(), Value::UInt(self.parts)),
            ("threads".into(), Value::UInt(self.threads)),
            ("steal".into(), Value::Bool(self.steal)),
            ("carrier".into(), Value::Str(self.carrier.into())),
            ("nproc".into(), Value::UInt(self.nproc)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workloads' own generators at a size a test can afford.
    fn small(spec: GenSpec) -> GenSpec {
        match spec {
            GenSpec::Rmat { seed, .. } => GenSpec::Rmat { scale: 10, edge_factor: 8, seed },
            GenSpec::ErdosRenyi { seed, .. } => GenSpec::ErdosRenyi { n: 2000, m: 9000, seed },
        }
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        for w in Workload::ALL {
            let fp = |s| Fingerprint::of(w, s, &small(w.generator(s)).build());
            assert_eq!(fp(1), fp(1));
            assert_ne!(fp(1), fp(2));
            assert_ne!(fp(1).graph_hash, fp(2).graph_hash);
        }
    }
}
