//! Cross-crate edge cases and failure-mode tests.

use khuzdul_repro::engine::{Engine, EngineConfig};
use khuzdul_repro::graph::partition::PartitionedGraph;
use khuzdul_repro::graph::{gen, Graph, GraphBuilder};
use khuzdul_repro::pattern::plan::{MatchingPlan, PlanOptions};
use khuzdul_repro::pattern::{oracle, Pattern};

fn count(g: &Graph, p: &Pattern, machines: usize, cfg: EngineConfig) -> u64 {
    let plan = MatchingPlan::compile(p, &PlanOptions::automine()).unwrap();
    let engine = Engine::new(PartitionedGraph::new(g, machines, 1), cfg);
    let c = engine.count(&plan).count;
    engine.shutdown();
    c
}

#[test]
fn empty_graph_counts_zero() {
    let g = Graph::empty(100);
    for p in [Pattern::edge(), Pattern::triangle(), Pattern::clique(4)] {
        assert_eq!(count(&g, &p, 4, EngineConfig::default()), 0, "{p}");
    }
}

#[test]
fn graph_with_isolated_vertices() {
    // Edges only among vertices 0..10; 90 isolated vertices spread over
    // all partitions.
    let mut b = GraphBuilder::new(100);
    for u in 0..10u32 {
        for v in 0..u {
            b.add_edge(u, v);
        }
    }
    let g = b.build();
    assert_eq!(count(&g, &Pattern::triangle(), 4, EngineConfig::default()), 120);
}

#[test]
fn pattern_larger_than_any_component() {
    let g = gen::path(4); // longest clique is an edge
    assert_eq!(count(&g, &Pattern::clique(3), 2, EngineConfig::default()), 0);
    assert_eq!(count(&g, &Pattern::clique(5), 2, EngineConfig::default()), 0);
}

#[test]
fn more_machines_than_vertices() {
    let g = gen::complete(5);
    assert_eq!(count(&g, &Pattern::triangle(), 16, EngineConfig::default()), 10);
}

#[test]
fn chunk_capacity_one_still_terminates() {
    let g = gen::erdos_renyi(40, 160, 2);
    let p = Pattern::clique(4);
    let expect = oracle::count_subgraphs(&g, &p, false);
    let cfg = EngineConfig { chunk_capacity: 1, ..EngineConfig::default() };
    assert_eq!(count(&g, &p, 2, cfg), expect);
}

#[test]
#[should_panic(expected = "chunk capacity must be positive")]
fn chunk_capacity_zero_rejected() {
    let g = gen::complete(4);
    let _ = Engine::new(
        PartitionedGraph::new(&g, 1, 1),
        EngineConfig { chunk_capacity: 0, ..EngineConfig::default() },
    );
}

#[test]
fn star_pattern_on_star_graph() {
    // Hub with 50 leaves: C(50, k-1) stars.
    let g = gen::star(51);
    assert_eq!(count(&g, &Pattern::star(4), 4, EngineConfig::default()), 19_600);
    assert_eq!(count(&g, &Pattern::triangle(), 4, EngineConfig::default()), 0);
}

#[test]
fn six_vertex_pattern_runs_distributed() {
    let g = gen::erdos_renyi(30, 200, 8);
    let p = Pattern::clique(6);
    let expect = oracle::count_subgraphs(&g, &p, false);
    assert_eq!(count(&g, &p, 3, EngineConfig::default()), expect);
}

#[test]
fn disconnected_graph_components_counted_independently() {
    // Two K4s with disjoint vertex ranges.
    let mut b = GraphBuilder::new(8);
    for base in [0u32, 4] {
        for u in 0..4 {
            for v in 0..u {
                b.add_edge(base + u, base + v);
            }
        }
    }
    let g = b.build();
    assert_eq!(count(&g, &Pattern::triangle(), 3, EngineConfig::default()), 8);
    assert_eq!(count(&g, &Pattern::clique(4), 3, EngineConfig::default()), 2);
}

#[test]
fn single_label_everywhere_matches_unlabeled() {
    let base = gen::erdos_renyi(60, 240, 5);
    let labeled = base.with_labels(vec![3; 60]);
    let p_unlabeled = Pattern::triangle();
    let p_labeled = Pattern::triangle().with_labels(vec![3, 3, 3]).unwrap();
    assert_eq!(
        count(&base, &p_unlabeled, 3, EngineConfig::default()),
        count(&labeled, &p_labeled, 3, EngineConfig::default())
    );
}

#[test]
fn mismatched_label_counts_zero() {
    let g = gen::complete(10).with_labels(vec![0; 10]);
    let p = Pattern::triangle().with_labels(vec![0, 0, 1]).unwrap();
    assert_eq!(count(&g, &p, 2, EngineConfig::default()), 0);
}

#[test]
fn repeated_runs_are_deterministic() {
    let g = gen::barabasi_albert(200, 5, 5);
    let p = Pattern::tailed_triangle();
    let first = count(&g, &p, 4, EngineConfig::default());
    for _ in 0..3 {
        assert_eq!(count(&g, &p, 4, EngineConfig::default()), first);
    }
}

#[test]
fn gpm_help_prints_the_usage_and_exits_zero() {
    use khuzdul_repro::apps::cli;
    for flag in ["--help", "-h"] {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        assert_eq!(cli::main(&[flag.to_string()], &mut out, &mut err), 0, "{flag}");
        let usage = String::from_utf8(out).unwrap();
        assert!(usage.contains("--pattern"), "{usage}");
        assert!(err.is_empty(), "{flag}");
    }
    // Errors still exit 2 and point at --help.
    let (mut out, mut err) = (Vec::new(), Vec::new());
    assert_eq!(cli::main(&["--bogus".to_string()], &mut out, &mut err), 2);
    assert!(out.is_empty());
    assert!(String::from_utf8(err).unwrap().contains("--help"));
}
