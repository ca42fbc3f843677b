//! Cross-crate integration: every system in the workspace must produce
//! identical counts on the same workloads.

use khuzdul_repro::baselines::ctd::CtdCluster;
use khuzdul_repro::baselines::gthinker::{GThinker, GThinkerConfig};
use khuzdul_repro::baselines::replicated::{ReplicatedCluster, ReplicatedConfig};
use khuzdul_repro::baselines::single::SingleMachine;
use khuzdul_repro::engine::{Engine, EngineConfig};
use khuzdul_repro::graph::partition::PartitionedGraph;
use khuzdul_repro::graph::{gen, Graph};
use khuzdul_repro::pattern::plan::{MatchingPlan, PlanOptions};
use khuzdul_repro::pattern::{interp, oracle, Pattern};

/// Which systems see the whole graph; the others run on a
/// `PartitionedGraph`, which carries no edge labels.
const WHOLE_GRAPH: [&str; 3] = ["replicated", "automine-ih", "interp-fast"];

/// Every system's answer on one workload: a count, or the error it
/// rejected the workload with. `with` adjusts both presets' plan options
/// (induced matching, IEP, ...).
fn all_system_counts(
    g: &Graph,
    p: &Pattern,
    machines: usize,
    with: fn(PlanOptions) -> PlanOptions,
) -> Vec<(&'static str, Result<u64, String>)> {
    let mut out = Vec::new();
    let opts_am = with(PlanOptions::automine());
    let plan_am = MatchingPlan::compile(p, &opts_am).unwrap();
    let plan_gp = MatchingPlan::compile(p, &with(PlanOptions::graphpi())).unwrap();

    let engine = Engine::new(PartitionedGraph::new(g, machines, 1), EngineConfig::default());
    for (name, plan) in [("k-automine", &plan_am), ("k-graphpi", &plan_gp)] {
        out.push((name, engine.try_count(plan).map(|r| r.count).map_err(|e| e.to_string())));
    }
    engine.shutdown();

    let repl = ReplicatedCluster::new(
        g.clone(),
        ReplicatedConfig { machines, ..ReplicatedConfig::default() },
    );
    out.push(("replicated", Ok(repl.count(&plan_gp).count)));

    let gt = GThinker::new(PartitionedGraph::new(g, machines, 1), GThinkerConfig::default());
    out.push(("gthinker", gt.count(p, &opts_am).map(|r| r.count)));

    let ctd = CtdCluster::new(PartitionedGraph::new(g, machines, 1));
    out.push(("ctd", ctd.count(p, &opts_am).map(|r| r.count)));

    let single = SingleMachine::automine_ih(g.clone(), 2);
    out.push(("automine-ih", Ok(single.count_plan(&plan_am).count)));

    out.push(("interp-fast", Ok(interp::count_embeddings_fast(g, &plan_am))));
    out
}

/// Asserts every system's count equals `expect`.
fn assert_all_agree(
    g: &Graph,
    p: &Pattern,
    machines: usize,
    with: fn(PlanOptions) -> PlanOptions,
    expect: u64,
) {
    for (name, count) in all_system_counts(g, p, machines, with) {
        assert_eq!(count, Ok(expect), "{name} disagrees on {p}");
    }
}

#[test]
fn every_system_agrees_with_the_oracle() {
    let g = gen::erdos_renyi(120, 550, 17);
    for p in [Pattern::triangle(), Pattern::clique(4), Pattern::cycle(4), Pattern::path(4)] {
        assert_all_agree(&g, &p, 4, |o| o, oracle::count_subgraphs(&g, &p, false));
    }
}

#[test]
fn every_system_agrees_on_a_skewed_graph() {
    let g = gen::barabasi_albert(250, 5, 23);
    let p = Pattern::clique(4);
    assert_all_agree(&g, &p, 3, |o| o, oracle::count_subgraphs(&g, &p, false));
}

#[test]
fn induced_patterns_agree_with_the_oracle() {
    // Induced plans subtract the non-adjacent positions' lists.
    let g = gen::erdos_renyi(80, 320, 5);
    for p in [Pattern::path(3), Pattern::cycle(4), Pattern::tailed_triangle()] {
        let expect = oracle::count_subgraphs(&g, &p, true);
        assert_all_agree(&g, &p, 3, |o| PlanOptions { induced: true, ..o }, expect);
    }
}

#[test]
fn vertex_labeled_patterns_agree_with_the_oracle() {
    let g = gen::with_random_labels(&gen::erdos_renyi(100, 450, 9), 2, 4);
    for p in [
        Pattern::path(3).with_labels(vec![0, 1, 0]).unwrap(),
        Pattern::tailed_triangle().with_labels(vec![1, 1, 0, 1]).unwrap(),
    ] {
        assert_all_agree(&g, &p, 3, |o| o, oracle::count_subgraphs(&g, &p, false));
    }
}

#[test]
fn iep_plans_agree_with_the_oracle() {
    let g = gen::barabasi_albert(80, 4, 19);
    for p in [Pattern::path(3), Pattern::star(4)] {
        let with: fn(PlanOptions) -> PlanOptions = |o| PlanOptions { iep: true, ..o };
        let plan = MatchingPlan::compile(&p, &with(PlanOptions::automine())).unwrap();
        assert!(plan.pair_count_mode().is_some(), "{p} takes the IEP shortcut");
        assert_all_agree(&g, &p, 3, with, oracle::count_subgraphs(&g, &p, false));
    }
}

#[test]
fn edge_labeled_patterns_match_or_fail_typed() {
    let g = gen::with_random_edge_labels(&gen::erdos_renyi(60, 260, 6), 2, 3);
    let p = Pattern::triangle().with_edge_labels(&[(0, 1, 0), (1, 2, 1), (0, 2, 0)]).unwrap();
    let expect = oracle::count_subgraphs(&g, &p, false);
    assert_eq!(expect, 31);
    for (name, count) in all_system_counts(&g, &p, 3, |o| o) {
        if WHOLE_GRAPH.contains(&name) {
            assert_eq!(count, Ok(expect), "{name} disagrees on the edge-labeled triangle");
        } else {
            let err = count.expect_err(name);
            assert!(err.contains("edge labels"), "{name}: {err}");
        }
    }
}

#[test]
fn orientation_pipeline_agrees_end_to_end() {
    use khuzdul_repro::apps::counting::oriented_clique_plan;
    use khuzdul_repro::graph::orient::orient_by_degree;
    let g = gen::barabasi_albert(400, 6, 3);
    let expect = oracle::count_subgraphs(&g, &Pattern::clique(4), false);

    // Distributed oriented counting.
    let dag = orient_by_degree(&g);
    let engine = Engine::new(PartitionedGraph::new(&dag, 4, 1), EngineConfig::default());
    let plan = oriented_clique_plan(4, &PlanOptions::automine()).unwrap();
    assert_eq!(engine.count(&plan).count, expect);
    engine.shutdown();

    // Single-machine oriented counting.
    let single = SingleMachine::pangolin_like(g, 2);
    assert_eq!(single.count(&Pattern::clique(4)).unwrap().count, expect);
}

#[test]
fn numa_and_flat_partitions_agree() {
    let g = gen::erdos_renyi(200, 900, 31);
    let p = Pattern::tailed_triangle();
    let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
    let expect = oracle::count_subgraphs(&g, &p, false);
    for (machines, sockets) in [(1, 2), (2, 2), (4, 2), (2, 4)] {
        let engine =
            Engine::new(PartitionedGraph::new(&g, machines, sockets), EngineConfig::default());
        assert_eq!(engine.count(&plan).count, expect, "{machines}x{sockets}");
        engine.shutdown();
    }
}

#[test]
fn labeled_workload_agrees_across_systems() {
    let g = gen::with_random_labels(&gen::erdos_renyi(100, 450, 7), 3, 11);
    let p = Pattern::triangle().with_labels(vec![0, 1, 2]).unwrap();
    let expect = oracle::count_subgraphs(&g, &p, false);

    let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
    let engine = Engine::new(PartitionedGraph::new(&g, 3, 1), EngineConfig::default());
    assert_eq!(engine.count(&plan).count, expect);
    engine.shutdown();

    let gt = GThinker::new(PartitionedGraph::new(&g, 3, 1), GThinkerConfig::default());
    assert_eq!(gt.count(&p, &PlanOptions::automine()).unwrap().count, expect);

    let ctd = CtdCluster::new(PartitionedGraph::new(&g, 3, 1));
    assert_eq!(ctd.count(&p, &PlanOptions::automine()).unwrap().count, expect);
}
