//! Single-machine reference interpreter for [`MatchingPlan`]s.
//!
//! This is the "nested loops" of the paper's Figure 1, executed directly
//! on an in-memory graph: the simplest correct executor of a plan. It is
//! used as the ground-truth implementation for engine tests, as the core
//! of the single-machine baselines, and by the oracle cross-checks.

use crate::kernel::{self, GraphSource};
use crate::plan::{MatchingPlan, PairMode};
use gpm_graph::{Graph, VertexId};

/// Counts the embeddings a plan produces on `g`.
///
/// With symmetry breaking on (the default) this is the number of
/// subgraphs isomorphic to the pattern; with it off, the number of
/// injective maps.
///
/// # Example
///
/// ```
/// use gpm_pattern::{interp, plan::{MatchingPlan, PlanOptions}, Pattern};
/// use gpm_graph::gen;
///
/// let plan = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::default()).unwrap();
/// assert_eq!(interp::count_embeddings(&gen::complete(4), &plan), 4);
/// ```
pub fn count_embeddings(g: &Graph, plan: &MatchingPlan) -> u64 {
    walk(g, plan, false, g.vertices(), |_| true)
}

/// Enumerates embeddings, invoking `visit` with the matched vertices in
/// matching-order positions (`matched[i]` = graph vertex at position `i`).
pub fn enumerate_embeddings<F: FnMut(&[VertexId])>(g: &Graph, plan: &MatchingPlan, mut visit: F) {
    walk(g, plan, false, g.vertices(), |m| {
        visit(m);
        true
    });
}

/// Enumerates embeddings with early termination: `visit` returns `false`
/// to stop the walk (used by bounded queries such as FSM's
/// support-threshold check and exists-a-match queries).
pub fn enumerate_embeddings_until<F: FnMut(&[VertexId]) -> bool>(
    g: &Graph,
    plan: &MatchingPlan,
    visit: F,
) {
    walk(g, plan, false, g.vertices(), visit);
}

/// Counts embeddings using the final-level counting shortcut: instead of
/// iterating the last level's candidates, count how many pass the filters
/// using order statistics where possible (and, for IEP plans, count the
/// last two levels as pairs). Produces identical results to
/// [`count_embeddings`]; used by counting-only applications.
pub fn count_embeddings_fast(g: &Graph, plan: &MatchingPlan) -> u64 {
    walk(g, plan, true, g.vertices(), |_| true)
}

/// Counts the embeddings rooted at `v` only (level-0 vertex fixed),
/// using the fast final-level shortcut. Summing over all vertices equals
/// [`count_embeddings_fast`]; single-machine baselines parallelize over
/// roots with this.
pub fn count_from_root(g: &Graph, plan: &MatchingPlan, v: VertexId) -> u64 {
    walk(g, plan, true, [v], |_| true)
}

/// The interpreter's one depth-first walk over `roots`.
///
/// In counting mode the last level — the last two under an IEP plan — is
/// counted by the kernel's order statistics and `visit` is never called.
/// Otherwise every embedding is handed to `visit`, which returns `false`
/// to stop the walk. Returns the embeddings counted or visited.
fn walk<V: FnMut(&[VertexId]) -> bool>(
    g: &Graph,
    plan: &MatchingPlan,
    counting: bool,
    roots: impl IntoIterator<Item = VertexId>,
    visit: V,
) -> u64 {
    let mut w = Walk {
        g,
        plan,
        pair: if counting { plan.pair_count_mode() } else { None },
        counting,
        matched: Vec::with_capacity(plan.depth()),
        bufs: vec![Vec::new(); plan.levels().len()],
        tmp: Vec::new(),
        visit,
        count: 0,
    };
    for v in roots {
        if plan.root_label().is_some_and(|required| g.label(v) != Some(required)) {
            continue;
        }
        w.matched.push(v);
        let keep = if plan.depth() == 1 { w.emit() } else { w.descend(0, &[]) };
        w.matched.pop();
        if !keep {
            break;
        }
    }
    w.count
}

struct Walk<'g, V> {
    g: &'g Graph,
    plan: &'g MatchingPlan,
    counting: bool,
    pair: Option<PairMode>,
    matched: Vec<VertexId>,
    /// One candidate buffer per level, reused across the whole walk.
    bufs: Vec<Vec<VertexId>>,
    /// The kernel's scratch space for multi-way intersections.
    tmp: Vec<VertexId>,
    visit: V,
    count: u64,
}

impl<V: FnMut(&[VertexId]) -> bool> Walk<'_, V> {
    /// Counts the complete embedding in `matched` and, unless counting,
    /// hands it to `visit`. Returns whether the walk continues.
    fn emit(&mut self) -> bool {
        self.count += 1;
        self.counting || (self.visit)(&self.matched)
    }

    /// Extends `matched` at `level`; `parent` is the previous level's raw
    /// candidates, which reuse levels read. Returns `false` once `visit`
    /// asked to stop.
    fn descend(&mut self, level: usize, parent: &[VertexId]) -> bool {
        let levels = self.plan.levels();
        let lp = &levels[level];
        let left = levels.len() - level;
        let mut src = GraphSource { graph: self.g, parent };
        let mut buf = std::mem::take(&mut self.bufs[level]);
        kernel::raw_candidates(&mut src, lp, &self.matched, &mut buf, &mut self.tmp);
        let mut keep = true;
        if self.counting && left == 1 {
            self.count += kernel::count_final(&src, lp, &self.matched, &buf);
        } else if let Some(mode) = self.pair.filter(|_| left == 2) {
            let k = kernel::count_final(&src, lp, &self.matched, &buf);
            self.count += kernel::pair_contribution(k, mode);
        } else {
            for &cand in &buf {
                if !kernel::passes(&src, lp, &self.matched, cand) {
                    continue;
                }
                self.matched.push(cand);
                keep = if left == 1 { self.emit() } else { self.descend(level + 1, &buf) };
                self.matched.pop();
                if !keep {
                    break;
                }
            }
        }
        self.bufs[level] = buf;
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanOptions;
    use crate::{oracle, Pattern};
    use gpm_graph::gen;

    fn check_all(g: &Graph, p: &Pattern, induced: bool) {
        let opts = PlanOptions {
            induced,
            order: crate::order::OrderChoice::Automine,
            ..PlanOptions::default()
        };
        let plan = MatchingPlan::compile(p, &opts).unwrap();
        let expect = oracle::count_subgraphs(g, p, induced);
        assert_eq!(count_embeddings(g, &plan), expect, "slow path, {p}, induced={induced}");
        assert_eq!(count_embeddings_fast(g, &plan), expect, "fast path, {p}");
        let gp_opts = PlanOptions { order: crate::order::OrderChoice::GraphPi, ..opts };
        let plan2 = MatchingPlan::compile(p, &gp_opts).unwrap();
        assert_eq!(count_embeddings(g, &plan2), expect, "graphpi order, {p}");
    }

    #[test]
    fn known_counts_on_fixtures() {
        let k5 = gen::complete(5);
        let tri = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::default()).unwrap();
        assert_eq!(count_embeddings(&k5, &tri), 10); // C(5,3)
        let p3 = MatchingPlan::compile(&Pattern::path(3), &PlanOptions::default()).unwrap();
        assert_eq!(count_embeddings(&k5, &p3), 30); // C(5,3) * 3
        let star = MatchingPlan::compile(&Pattern::star(4), &PlanOptions::default()).unwrap();
        assert_eq!(count_embeddings(&gen::star(6), &star), 10); // C(5,3)
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        let g = gen::erdos_renyi(40, 160, 9);
        for p in [
            Pattern::triangle(),
            Pattern::path(3),
            Pattern::path(4),
            Pattern::star(4),
            Pattern::cycle(4),
            Pattern::clique(4),
            Pattern::tailed_triangle(),
            Pattern::diamond(),
        ] {
            check_all(&g, &p, false);
            check_all(&g, &p, true);
        }
    }

    #[test]
    fn matches_oracle_on_skewed_graph() {
        let g = gen::barabasi_albert(60, 3, 5);
        for p in [Pattern::triangle(), Pattern::clique(4), Pattern::cycle(4)] {
            check_all(&g, &p, false);
        }
    }

    #[test]
    fn no_symmetry_break_counts_maps() {
        let g = gen::erdos_renyi(30, 100, 3);
        let p = Pattern::triangle();
        let opts = PlanOptions { symmetry_break: false, ..PlanOptions::default() };
        let plan = MatchingPlan::compile(&p, &opts).unwrap();
        assert_eq!(count_embeddings(&g, &plan), oracle::count_injective_maps(&g, &p, false));
    }

    #[test]
    fn reuse_toggle_is_invisible() {
        let g = gen::erdos_renyi(50, 250, 7);
        for p in [Pattern::clique(4), Pattern::clique(5), Pattern::diamond()] {
            let with = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
            let without = MatchingPlan::compile(
                &p,
                &PlanOptions { vertical_reuse: false, ..PlanOptions::default() },
            )
            .unwrap();
            assert_eq!(count_embeddings(&g, &with), count_embeddings(&g, &without));
        }
    }

    #[test]
    fn labeled_counting() {
        let g = gen::with_random_labels(&gen::erdos_renyi(40, 150, 2), 3, 4);
        let p = Pattern::path(3).with_labels(vec![0, 1, 2]).unwrap();
        let plan = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
        assert_eq!(count_embeddings(&g, &plan), oracle::count_subgraphs(&g, &p, false));
    }

    #[test]
    fn edge_labeled_counting_matches_oracle() {
        let g = gen::with_random_edge_labels(&gen::erdos_renyi(40, 170, 6), 2, 3);
        // Triangle with one marked edge.
        let p = Pattern::triangle().with_edge_labels(&[(0, 1, 0), (1, 2, 1), (0, 2, 0)]).unwrap();
        let plan = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
        assert!(plan.requires_edge_labels());
        let expect = oracle::count_subgraphs(&g, &p, false);
        assert_eq!(count_embeddings(&g, &plan), expect);
        assert_eq!(count_embeddings_fast(&g, &plan), expect);
        // Uniform labels over a 2-label graph: strictly fewer matches
        // than the unlabeled pattern.
        let unlabeled =
            MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::default()).unwrap();
        assert!(count_embeddings(&g, &plan) <= count_embeddings(&g, &unlabeled));
    }

    #[test]
    fn edge_label_restriction_identity_holds() {
        // restricted count x |Aut| == injective map count, with edge
        // labels shrinking the automorphism group.
        let g = gen::with_random_edge_labels(&gen::erdos_renyi(30, 130, 9), 2, 5);
        let p = Pattern::triangle().with_edge_labels(&[(0, 1, 1), (1, 2, 0), (0, 2, 0)]).unwrap();
        let restricted = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
        let unrestricted = MatchingPlan::compile(
            &p,
            &PlanOptions { symmetry_break: false, ..PlanOptions::default() },
        )
        .unwrap();
        let maps = count_embeddings(&g, &unrestricted);
        assert_eq!(maps % restricted.automorphism_count(), 0);
        assert_eq!(count_embeddings(&g, &restricted), maps / restricted.automorphism_count());
    }

    #[test]
    fn enumerate_yields_valid_embeddings() {
        let g = gen::erdos_renyi(25, 80, 1);
        let p = Pattern::cycle(4);
        let plan = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
        let order = plan.order().to_vec();
        let mut n = 0u64;
        enumerate_embeddings(&g, &plan, |m| {
            n += 1;
            // Every pattern edge must map to a graph edge.
            for (u, v) in p.edges() {
                let pu = order.iter().position(|&x| x == u).unwrap();
                let pv = order.iter().position(|&x| x == v).unwrap();
                assert!(g.has_edge(m[pu], m[pv]));
            }
            // Injectivity.
            let mut s = m.to_vec();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), m.len());
        });
        assert_eq!(n, oracle::count_subgraphs(&g, &p, false));
    }

    #[test]
    fn iep_pair_counting_matches_oracle() {
        let g = gen::barabasi_albert(120, 5, 13);
        for p in [
            Pattern::path(3), // wedge: symmetric pair
            Pattern::star(4), // last two of three leaves
            Pattern::star(5),
            Pattern::tailed_triangle(), // no independent symmetric tail pair order-dependent
            Pattern::cycle(4),          // adjacent last vertices: no IEP
            Pattern::clique(4),
        ] {
            let iep = PlanOptions { iep: true, ..PlanOptions::default() };
            let plan = MatchingPlan::compile(&p, &iep).unwrap();
            let expect = oracle::count_subgraphs(&g, &p, false);
            assert_eq!(count_embeddings_fast(&g, &plan), expect, "{p}");
            // Sanity: wedges and stars actually take the shortcut.
            if p == Pattern::path(3) || p == Pattern::star(4) {
                assert_eq!(plan.pair_count_mode(), Some(crate::plan::PairMode::Unordered));
            }
            if p == Pattern::clique(4) || p == Pattern::cycle(4) {
                assert_eq!(plan.pair_count_mode(), None, "{p} has adjacent tail");
            }
        }
    }

    #[test]
    fn iep_with_distinct_leaf_labels_uses_ordered_mode_or_none() {
        // Labeled star: leaves with different labels break the symmetry;
        // counting must still match the oracle whatever mode is chosen.
        let g = gen::with_random_labels(&gen::barabasi_albert(100, 5, 3), 2, 8);
        let p = Pattern::star(3).with_labels(vec![0, 1, 1]).unwrap();
        let iep = PlanOptions { iep: true, ..PlanOptions::default() };
        let plan = MatchingPlan::compile(&p, &iep).unwrap();
        assert_eq!(count_embeddings_fast(&g, &plan), oracle::count_subgraphs(&g, &p, false));
    }

    #[test]
    fn count_from_root_partitions_total() {
        let g = gen::erdos_renyi(60, 250, 11);
        for p in [Pattern::triangle(), Pattern::clique(4), Pattern::star(4)] {
            let plan = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
            let total: u64 = g.vertices().map(|v| count_from_root(&g, &plan, v)).sum();
            assert_eq!(total, count_embeddings_fast(&g, &plan), "{p}");
        }
    }

    #[test]
    fn count_from_root_respects_root_label() {
        let g = gen::with_random_labels(&gen::complete(12), 2, 3);
        let p = Pattern::edge().with_labels(vec![0, 1]).unwrap();
        let plan = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
        let root_label = plan.root_label().unwrap();
        for v in g.vertices() {
            if g.label(v) != Some(root_label) {
                assert_eq!(count_from_root(&g, &plan, v), 0);
            }
        }
    }

    #[test]
    fn enumerate_until_stops_promptly() {
        let g = gen::complete(20);
        let plan = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::default()).unwrap();
        let mut seen = 0u64;
        enumerate_embeddings_until(&g, &plan, |_| {
            seen += 1;
            seen < 5
        });
        assert_eq!(seen, 5, "single-threaded early exit is exact");
        // And the non-stopping variant sees everything.
        let mut all = 0u64;
        enumerate_embeddings_until(&g, &plan, |_| {
            all += 1;
            true
        });
        assert_eq!(all, 1140); // C(20,3)
    }

    #[test]
    fn single_vertex_plan() {
        let g = gen::complete(6);
        let p = Pattern::single_vertex();
        let plan = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
        assert_eq!(count_embeddings(&g, &plan), 6);
        assert_eq!(count_embeddings_fast(&g, &plan), 6);
    }
}
