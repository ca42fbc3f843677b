//! Layer probes: seeded calls straight into one layer's public API,
//! timed from outside.

use crate::stats::{median, percentile};
use gpm_cluster::EdgeListService;
use gpm_graph::partition::PartitionedGraph;
use gpm_graph::{set_ops, Graph, VertexId};
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::Pattern;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Edge-endpoint pairs per intersection pass.
const INTERSECT_PAIRS: usize = 4096;
/// Timed intersection passes; the median pass is reported.
const INTERSECT_PASSES: usize = 7;

/// `set_ops::intersect_into` cost in nanoseconds per input element, over
/// the two endpoint lists of seeded, uniformly drawn edges of `g`.
pub fn intersect_ns_per_elem(g: &Graph, seed: u64) -> f64 {
    // Drawing an arc uniformly means drawing its source by degree.
    let mut prefix = Vec::with_capacity(g.vertex_count() + 1);
    prefix.push(0u64);
    for v in g.vertices() {
        prefix.push(prefix.last().expect("non-empty") + g.degree(v) as u64);
    }
    let arcs = *prefix.last().expect("non-empty");
    assert!(arcs > 0, "intersection probe needs a graph with edges");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1a7e_45ec);
    let pairs: Vec<(VertexId, VertexId)> = (0..INTERSECT_PAIRS)
        .map(|_| {
            let arc = rng.random_range(0..arcs);
            let u = prefix.partition_point(|&p| p <= arc) - 1;
            let v = g.neighbors(u as VertexId)[(arc - prefix[u]) as usize];
            (u as VertexId, v)
        })
        .collect();
    let elems: usize =
        pairs.iter().map(|&(u, v)| g.neighbors(u).len() + g.neighbors(v).len()).sum();
    let mut out = Vec::new();
    let passes: Vec<f64> = (0..INTERSECT_PASSES)
        .map(|_| {
            let t = Instant::now();
            for &(u, v) in &pairs {
                out.clear();
                set_ops::intersect_into(black_box(g.neighbors(u)), g.neighbors(v), &mut out);
                black_box(&out);
            }
            t.elapsed().as_nanos() as f64 / elems as f64
        })
        .collect();
    median(&passes)
}

/// Compilations of each plan; the median compilation is reported.
const COMPILE_REPS: usize = 200;

/// Median `MatchingPlan::compile` time in microseconds over `queries`.
pub fn compile_us(queries: &[(Pattern, PlanOptions)]) -> f64 {
    let mut samples = Vec::with_capacity(queries.len() * COMPILE_REPS);
    for (p, opts) in queries {
        for _ in 0..COMPILE_REPS {
            let t = Instant::now();
            let plan =
                MatchingPlan::compile(black_box(p), opts).expect("benchmark patterns compile");
            samples.push(t.elapsed().as_nanos() as f64 / 1e3);
            black_box(plan);
        }
    }
    median(&samples)
}

/// Fetches per fabric probe.
const FETCHES: usize = 2000;
/// Vertices per fetched batch (the engine's mini-batch size).
const FETCH_BATCH: usize = 64;

/// Round-trip times of direct `EdgeListClient::fetch` calls from part 0
/// for seeded batches of part 1's vertices, against a fresh
/// `EdgeListService` on `pg`: `(p50_us, p95_us)`.
pub fn fetch_rtt_us(pg: &PartitionedGraph, seed: u64) -> (f64, f64) {
    let remote = pg.part(1).owned();
    assert!(!remote.is_empty(), "fetch probe needs vertices on part 1");
    let service = EdgeListService::start(pg, None);
    let client = service.client(0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfe7c_4000);
    let mut batch = Vec::with_capacity(FETCH_BATCH);
    let mut rtts = Vec::with_capacity(FETCHES);
    for _ in 0..FETCHES {
        batch.clear();
        batch.extend((0..FETCH_BATCH).map(|_| remote[rng.random_range(0..remote.len())]));
        let t = Instant::now();
        let lists = client.fetch(1, &batch).expect("fault-free fetch succeeds");
        rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
        assert_eq!(lists.len(), batch.len(), "fetch returns one list per vertex");
    }
    service.shutdown();
    (median(&rtts), percentile(&rtts, 95.0).expect("non-empty"))
}
