//! Property-based tests for the graph substrate.

use gpm_graph::{orient, partition::PartitionedGraph, set_ops, GraphBuilder, VertexId};
use proptest::prelude::*;

fn arb_edges(max_v: u32, max_e: usize) -> impl Strategy<Value = Vec<(VertexId, VertexId)>> {
    prop::collection::vec((0..max_v, 0..max_v), 0..max_e)
}

fn arb_sorted_set(max: u32) -> impl Strategy<Value = Vec<VertexId>> {
    prop::collection::btree_set(0..max, 0..64).prop_map(|s| s.into_iter().collect())
}

/// A short and a long sorted set over one range: their size ratio falls
/// on both sides of the 16:1 threshold where intersection gallops.
fn arb_skewed_pair() -> impl Strategy<Value = (Vec<VertexId>, Vec<VertexId>)> {
    let set =
        |len| prop::collection::btree_set(0..4096u32, len).prop_map(|s| s.into_iter().collect());
    (set(0..12), set(0..400))
}

/// An optional clip bound; `None` about one time in eight.
fn arb_bound() -> impl Strategy<Value = Option<VertexId>> {
    (0..4680u32).prop_map(|x| (x < 4096).then_some(x))
}

/// The two-pointer merge the set kernels replaced, kept as their oracle.
fn branchy_merge(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn naive_intersection(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    a.iter().copied().filter(|x| b.contains(x)).collect()
}

/// Checks `intersect_into` and `intersect_count` on `(a, b)` and
/// `(b, a)` against the oracle merge and the naive filter.
fn check_intersection(a: &[VertexId], b: &[VertexId]) -> Result<(), TestCaseError> {
    let expect = branchy_merge(a, b);
    prop_assert_eq!(&expect, &naive_intersection(a, b));
    for (x, y) in [(a, b), (b, a)] {
        // Results append to what the buffer already holds.
        let mut out = vec![7];
        set_ops::intersect_into(x, y, &mut out);
        prop_assert_eq!(&out[1..], &expect[..]);
        prop_assert_eq!(set_ops::intersect_count(x, y), expect.len());
    }
    Ok(())
}

proptest! {
    #[test]
    fn builder_output_is_canonical(edges in arb_edges(64, 200)) {
        let g = edges.iter().copied().collect::<GraphBuilder>().build();
        // Sorted, no duplicates, no self-loops, symmetric.
        for v in g.vertices() {
            let n = g.neighbors(v);
            prop_assert!(n.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!n.contains(&v));
            for &u in n {
                prop_assert!(g.has_edge(u, v));
            }
        }
        // Every input edge (non-loop) is present.
        for (u, v) in edges {
            if u != v {
                prop_assert!(g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn intersection_equals_naive(a in arb_sorted_set(128), b in arb_sorted_set(128)) {
        check_intersection(&a, &b)?;
    }

    #[test]
    fn skewed_intersection_matches_the_oracle_merge((short, long) in arb_skewed_pair()) {
        check_intersection(&short, &long)?;
    }

    #[test]
    fn clipped_intersection_matches_the_oracle_merge(
        (short, long) in arb_skewed_pair(),
        lo in arb_bound(),
        hi in arb_bound(),
    ) {
        let inside = |x: &VertexId| lo.is_none_or(|b| *x > b) && hi.is_none_or(|b| *x < b);
        for s in [&short, &long] {
            let naive: Vec<VertexId> = s.iter().copied().filter(inside).collect();
            prop_assert_eq!(set_ops::clip(s, lo, hi), &naive[..]);
        }
        let (a, b) = (set_ops::clip(&short, lo, hi), set_ops::clip(&long, lo, hi));
        check_intersection(a, b)?;
        let clipped_after: Vec<VertexId> =
            branchy_merge(&short, &long).into_iter().filter(inside).collect();
        prop_assert_eq!(branchy_merge(a, b), clipped_after);
    }

    #[test]
    fn subtraction_equals_naive(a in arb_sorted_set(128), b in arb_sorted_set(128)) {
        let mut out = a.clone();
        set_ops::subtract_in_place(&mut out, &b);
        let naive: Vec<VertexId> =
            a.iter().copied().filter(|x| !b.contains(x)).collect();
        prop_assert_eq!(out, naive);
    }

    #[test]
    fn many_way_intersection_equals_pairwise(
        a in arb_sorted_set(64),
        b in arb_sorted_set(64),
        c in arb_sorted_set(64),
    ) {
        let mut expect = Vec::new();
        set_ops::intersect_into(&a, &b, &mut expect);
        let mut expect2 = Vec::new();
        set_ops::intersect_into(&expect, &c, &mut expect2);
        let mut out = Vec::new();
        set_ops::intersect_many_into(&mut [&a, &b, &c], &mut out, &mut Vec::new());
        prop_assert_eq!(out, expect2);
    }

    #[test]
    fn many_way_intersection_equals_naive(
        lists in prop::collection::vec(arb_sorted_set(48), 1..6),
        stale in arb_sorted_set(48),
    ) {
        let expect: Vec<VertexId> =
            lists[0].iter().copied().filter(|x| lists.iter().all(|l| l.contains(x))).collect();
        let mut refs: Vec<&[VertexId]> = lists.iter().map(Vec::as_slice).collect();
        // Whatever both buffers held before is replaced.
        let (mut out, mut tmp) = (stale.clone(), stale);
        set_ops::intersect_many_into(&mut refs, &mut out, &mut tmp);
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn partition_covers_all_edge_lists(
        edges in arb_edges(48, 150),
        machines in 1usize..5,
        sockets in 1usize..3,
    ) {
        let g = edges.into_iter().collect::<GraphBuilder>().build();
        if g.vertex_count() == 0 { return Ok(()); }
        let pg = PartitionedGraph::new(&g, machines, sockets);
        for v in g.vertices() {
            let owner = pg.owner(v);
            prop_assert!(owner < pg.part_count());
            prop_assert_eq!(pg.part(owner).edge_list(v).unwrap(), g.neighbors(v));
        }
        let total: usize = (0..pg.part_count()).map(|p| pg.part(p).owned_count()).sum();
        prop_assert_eq!(total, g.vertex_count());
    }

    #[test]
    fn orientation_preserves_edge_multiset(edges in arb_edges(40, 120)) {
        let g = edges.into_iter().collect::<GraphBuilder>().build();
        if g.vertex_count() == 0 { return Ok(()); }
        let dag = orient::orient_by_degree(&g);
        prop_assert_eq!(dag.edge_count(), g.edge_count());
        let mut from_dag: Vec<(VertexId, VertexId)> =
            dag.arcs().map(|(u, v)| (u.min(v), u.max(v))).collect();
        from_dag.sort_unstable();
        let mut from_g: Vec<(VertexId, VertexId)> = g.edges().collect();
        from_g.sort_unstable();
        prop_assert_eq!(from_dag, from_g);
    }

    #[test]
    fn text_io_roundtrip(edges in arb_edges(40, 100)) {
        let g = edges.into_iter().collect::<GraphBuilder>().build();
        let mut buf = Vec::new();
        gpm_graph::io::write_edge_list_text(&g, &mut buf).unwrap();
        let g2 = gpm_graph::io::read_edge_list_text(&buf[..]).unwrap();
        // Roundtrip may shrink vertex count if trailing vertices are
        // isolated; compare edge sets.
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        prop_assert_eq!(e1, e2);
    }
}
