//! The one level kernel: how a single [`LevelPlan`] turns a matched prefix
//! into candidates.
//!
//! Every executor in the workspace — the reference interpreter, the
//! Khuzdul engine's chunked extension, the G-thinker and CTD baselines —
//! computes a level the same way: intersect the edge lists the plan names
//! (or reuse the parent's stored candidates, §5.1), each first clipped to
//! the level's symmetry-breaking bounds, subtract the induced lists, then
//! filter each candidate by the bounds, injectivity and labels. This module is the only implementation of
//! those steps, so the systems differ in scheduling, communication and
//! reuse, never in the per-level arithmetic.
//!
//! The kernel is generic over a [`ListSource`]: the executor's view of
//! where an edge list lives (a CSR graph, a chunk's resolved list, a
//! task's software cache, a job's carried lists). Instantiations are
//! monomorphized, so the engine's hot path pays no dynamic dispatch.

use crate::plan::{CandidateSource, LevelPlan, MatchingPlan, PairMode};
use crate::MAX_PATTERN_VERTICES;
use gpm_graph::{set_ops, Graph, Label, VertexId};

/// Where an executor reads the data one level needs. `'a` is the
/// lifetime of the lists handed out, so the kernel can hold several.
pub trait ListSource<'a> {
    /// Whether [`Self::edge_label`] answers. Plans with edge-label filters
    /// need it; [`check_edge_labels`] refuses them before a run otherwise.
    const EDGE_LABELS: bool;

    /// The edge list of the vertex matched at position `pos`, or `None`
    /// when the source does not hold it yet.
    fn list(&mut self, pos: usize, matched: &[VertexId]) -> Option<&'a [VertexId]>;

    /// The parent level's stored raw candidates, read by reuse levels
    /// (§5.1). Systems that compile without vertical reuse keep this.
    fn parent_candidates(&mut self) -> &'a [VertexId] {
        panic!("this list source runs plans without vertical computation reuse")
    }

    /// The label of vertex `v`, if the graph is vertex-labeled.
    fn label(&self, v: VertexId) -> Option<Label>;

    /// The label of edge `(u, v)`; only sources with
    /// [`Self::EDGE_LABELS`] answer.
    fn edge_label(&self, _u: VertexId, _v: VertexId) -> Option<Label> {
        None
    }
}

/// An in-memory graph as a list source: every list is present. `parent`
/// holds the parent level's raw candidates (empty at the first level).
pub(crate) struct GraphSource<'a> {
    pub graph: &'a Graph,
    pub parent: &'a [VertexId],
}

impl<'a> ListSource<'a> for GraphSource<'a> {
    const EDGE_LABELS: bool = true;

    fn list(&mut self, pos: usize, matched: &[VertexId]) -> Option<&'a [VertexId]> {
        Some(self.graph.neighbors(matched[pos]))
    }

    fn parent_candidates(&mut self) -> &'a [VertexId] {
        self.parent
    }

    fn label(&self, v: VertexId) -> Option<Label> {
        self.graph.label(v)
    }

    fn edge_label(&self, u: VertexId, v: VertexId) -> Option<Label> {
        self.graph.edge_label(u, v)
    }
}

/// A plan with edge-label filters given to a system whose list source
/// has no edge labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeLabelsUnsupported;

impl std::fmt::Display for EdgeLabelsUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(
            "the plan filters on edge labels, which this system's partitioned graph does not \
             carry; run edge-labeled plans on gpm_pattern::interp or the single-machine baselines",
        )
    }
}

impl std::error::Error for EdgeLabelsUnsupported {}

/// Refuses `plan` if it filters on edge labels and sources of type `S`
/// have none — a typed error before the run instead of a wrong count.
///
/// # Errors
///
/// [`EdgeLabelsUnsupported`] as described.
pub fn check_edge_labels<'a, S: ListSource<'a>>(
    plan: &MatchingPlan,
) -> Result<(), EdgeLabelsUnsupported> {
    if plan.requires_edge_labels() && !S::EDGE_LABELS {
        return Err(EdgeLabelsUnsupported);
    }
    Ok(())
}

/// Computes the level's raw (ascending) candidates into the caller's
/// `out`: the plan's candidate source, then every subtract list. `tmp` is
/// the caller's scratch space for multi-way intersections.
///
/// Every input — edge lists, the parent's stored candidates — is first
/// clipped to the open range between the level's clip bounds
/// ([`LevelPlan::clip_lower`], [`LevelPlan::clip_upper`]), so no merge
/// scans past a symmetry-breaking bound. The raw set holds exactly the
/// candidates inside that range; [`passes`] and [`count_final`] still
/// apply the level's full filters.
///
/// Returns `false`, leaving `out` incomplete, if the source lacked a list.
pub fn raw_candidates<'a, S: ListSource<'a>>(
    src: &mut S,
    lp: &LevelPlan,
    matched: &[VertexId],
    out: &mut Vec<VertexId>,
    tmp: &mut Vec<VertexId>,
) -> bool {
    out.clear();
    let lo = lp.clip_lower.iter().map(|&p| matched[p]).max();
    let hi = lp.clip_upper.iter().map(|&p| matched[p]).min();
    let parent = match lp.source {
        CandidateSource::Scratch => &[][..],
        _ => set_ops::clip(src.parent_candidates(), lo, hi),
    };
    let mut list = |pos: usize| src.list(pos, matched).map(|l| set_ops::clip(l, lo, hi));
    match lp.source {
        CandidateSource::Scratch => {
            let mut lists: [&[VertexId]; MAX_PATTERN_VERTICES] = [&[]; MAX_PATTERN_VERTICES];
            for (slot, &pos) in lists.iter_mut().zip(&lp.intersect) {
                let Some(list) = list(pos) else { return false };
                *slot = list;
            }
            set_ops::intersect_many_into(&mut lists[..lp.intersect.len()], out, tmp);
        }
        CandidateSource::ParentIntermediate => out.extend_from_slice(parent),
        CandidateSource::ParentIntermediateAndNew => {
            let Some(new) = list(lp.position - 1) else { return false };
            set_ops::intersect_into(parent, new, out);
        }
    }
    for &pos in &lp.subtract {
        let Some(list) = list(pos) else { return false };
        set_ops::subtract_in_place(out, list);
    }
    true
}

/// Whether `cand` passes the level's filters: the symmetry-breaking
/// bounds, injectivity, the vertex label and the edge labels.
pub fn passes<'a, S: ListSource<'a>>(
    src: &S,
    lp: &LevelPlan,
    matched: &[VertexId],
    cand: VertexId,
) -> bool {
    lp.lower.iter().all(|&p| cand > matched[p])
        && lp.upper.iter().all(|&p| cand < matched[p])
        && lp.distinct.iter().all(|&p| cand != matched[p])
        && lp.label.is_none_or(|l| src.label(cand) == Some(l))
        && lp.edge_labels.iter().all(|&(p, l)| src.edge_label(matched[p], cand) == Some(l))
}

/// Counts the raw candidates of a final level that pass its filters. The
/// bounds become two binary searches unless a label filter forces a scan.
pub fn count_final<'a, S: ListSource<'a>>(
    src: &S,
    lp: &LevelPlan,
    matched: &[VertexId],
    raw: &[VertexId],
) -> u64 {
    if lp.label.is_some() || !lp.edge_labels.is_empty() {
        return raw.iter().filter(|&&c| passes(src, lp, matched, c)).count() as u64;
    }
    let lo = lp.lower.iter().map(|&p| matched[p]).max();
    let hi = lp.upper.iter().map(|&p| matched[p]).min();
    let window = set_ops::clip(raw, lo, hi);
    let collisions = lp.distinct.iter().filter(|&&p| set_ops::contains(window, matched[p]));
    (window.len() - collisions.count()) as u64
}

/// Embeddings contributed under the IEP shortcut by a second-to-last
/// level with `k` qualifying candidates.
pub fn pair_contribution(k: u64, mode: PairMode) -> u64 {
    match mode {
        PairMode::Unordered => k * k.saturating_sub(1) / 2,
        PairMode::Ordered => k * k.saturating_sub(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanOptions;
    use crate::Pattern;
    use gpm_graph::gen;

    fn level(position: usize) -> LevelPlan {
        LevelPlan {
            position,
            intersect: vec![0],
            subtract: Vec::new(),
            distinct: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            clip_lower: Vec::new(),
            clip_upper: Vec::new(),
            label: None,
            edge_labels: Vec::new(),
            source: CandidateSource::Scratch,
            store_intermediate: false,
            active_after: Vec::new(),
            new_vertex_active: false,
        }
    }

    /// A source over fixed lists that holds only the positions it is
    /// given, like a partitioned system's view.
    struct Partial<'a> {
        lists: &'a [Option<Vec<VertexId>>],
        asked: Vec<usize>,
    }

    impl<'a> ListSource<'a> for Partial<'a> {
        const EDGE_LABELS: bool = false;

        fn list(&mut self, pos: usize, _matched: &[VertexId]) -> Option<&'a [VertexId]> {
            self.asked.push(pos);
            self.lists[pos].as_deref()
        }

        fn label(&self, _v: VertexId) -> Option<Label> {
            None
        }
    }

    #[test]
    fn intersects_then_subtracts() {
        // K4 minus the edge (2, 3), plus vertex 4 adjacent to 0, 1 and 2.
        let g = gpm_graph::GraphBuilder::new(5)
            .extend_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 4), (2, 4)])
            .build();
        let mut lp = level(2);
        lp.intersect = vec![0, 1];
        let mut raw = Vec::new();
        let mut src = GraphSource { graph: &g, parent: &[] };
        assert!(raw_candidates(&mut src, &lp, &[0, 1], &mut raw, &mut Vec::new()));
        assert_eq!(raw, vec![2, 3, 4]);
        lp.subtract = vec![2];
        assert!(raw_candidates(&mut src, &lp, &[0, 1, 2], &mut raw, &mut Vec::new()));
        // Subtraction keeps vertex 2 itself: injectivity is a filter.
        assert_eq!(raw, vec![2, 3]);
        // N(3) = {0, 1} removes nothing; N(4) = {0, 1, 2} removes 2.
        lp.subtract = vec![2, 3];
        assert!(raw_candidates(&mut src, &lp, &[0, 1, 3, 4], &mut raw, &mut Vec::new()));
        assert_eq!(raw, vec![3, 4]);
    }

    #[test]
    fn reuse_sources_read_the_parent_candidates() {
        let g = gen::complete(5);
        let parent = [2, 3, 4];
        let mut src = GraphSource { graph: &g, parent: &parent };
        let mut raw = Vec::new();
        let mut lp = level(3);
        lp.source = CandidateSource::ParentIntermediate;
        assert!(raw_candidates(&mut src, &lp, &[0, 1, 2], &mut raw, &mut Vec::new()));
        assert_eq!(raw, parent);
        // N(2) in K5 excludes 2 itself.
        lp.source = CandidateSource::ParentIntermediateAndNew;
        assert!(raw_candidates(&mut src, &lp, &[0, 1, 2], &mut raw, &mut Vec::new()));
        assert_eq!(raw, vec![3, 4]);
    }

    #[test]
    fn a_missing_list_stops_the_level_at_the_first_gap() {
        let lists = [Some(vec![1, 2, 3]), None, None];
        let mut src = Partial { lists: &lists, asked: Vec::new() };
        let mut lp = level(3);
        lp.intersect = vec![0, 1, 2];
        assert!(!raw_candidates(&mut src, &lp, &[0, 1, 2], &mut Vec::new(), &mut Vec::new()));
        assert_eq!(src.asked, vec![0, 1], "stops asking after the first missing list");
    }

    #[test]
    fn filters_check_bounds_injectivity_and_labels() {
        let g =
            gen::with_random_edge_labels(&gen::with_random_labels(&gen::complete(8), 2, 1), 2, 2);
        let src = GraphSource { graph: &g, parent: &[] };
        let matched = [2, 6, 4];
        let mut lp = level(3);
        lp.lower = vec![0];
        lp.upper = vec![1];
        lp.distinct = vec![2];
        let kept: Vec<VertexId> = (0..8).filter(|&c| passes(&src, &lp, &matched, c)).collect();
        assert_eq!(kept, vec![3, 5]);
        lp.label = Some(1);
        lp.edge_labels = vec![(0, 0)];
        for c in 0..8 {
            let want =
                [3, 5].contains(&c) && g.label(c) == Some(1) && g.edge_label(2, c) == Some(0);
            assert_eq!(passes(&src, &lp, &matched, c), want, "candidate {c}");
        }
    }

    #[test]
    fn final_count_equals_filtered_iteration() {
        let g = gen::with_random_labels(&gen::complete(40), 3, 4);
        let src = GraphSource { graph: &g, parent: &[] };
        let raw: Vec<VertexId> = (0..40).filter(|v| v % 3 != 1).collect();
        let matched = [9, 30, 12, 20];
        for (lower, upper, distinct, label) in [
            (vec![], vec![], vec![2], None),
            (vec![0], vec![1], vec![2, 3], None),
            (vec![0, 2], vec![], vec![3], None),
            (vec![1], vec![0], vec![], None),
            (vec![0], vec![1], vec![2], Some(2)),
        ] {
            let mut lp = level(4);
            (lp.lower, lp.upper, lp.distinct, lp.label) = (lower, upper, distinct, label);
            let slow = raw.iter().filter(|&&c| passes(&src, &lp, &matched, c)).count() as u64;
            assert_eq!(count_final(&src, &lp, &matched, &raw), slow, "{lp:?}");
        }
    }

    #[test]
    fn pair_contributions() {
        assert_eq!(pair_contribution(0, PairMode::Unordered), 0);
        assert_eq!(pair_contribution(1, PairMode::Ordered), 0);
        assert_eq!(pair_contribution(5, PairMode::Unordered), 10);
        assert_eq!(pair_contribution(5, PairMode::Ordered), 20);
    }

    #[test]
    fn edge_labeled_plans_need_an_edge_labeled_source() {
        let p = Pattern::triangle().with_edge_labels(&[(0, 1, 0), (1, 2, 1), (0, 2, 0)]).unwrap();
        let labeled = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
        let plain = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::default()).unwrap();
        assert_eq!(check_edge_labels::<Partial<'_>>(&labeled), Err(EdgeLabelsUnsupported));
        assert_eq!(check_edge_labels::<Partial<'_>>(&plain), Ok(()));
        assert_eq!(check_edge_labels::<GraphSource<'_>>(&labeled), Ok(()));
    }
}
