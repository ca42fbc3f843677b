//! Sorted-set kernels used by embedding extension.
//!
//! All inputs are strictly-ascending `VertexId` slices (the invariant CSR
//! adjacency lists maintain). These kernels are the computational core of
//! pattern-aware enumeration: every extension step is one or more
//! intersections plus candidate filtering (paper Fig 1).

use crate::VertexId;

/// Merge-based intersection of two sorted slices, appended to `out`.
///
/// Switches to galloping (exponential) search when one input is much
/// shorter, which is the common case when intersecting a hot vertex's long
/// list with a short one.
///
/// # Example
///
/// ```
/// let mut out = Vec::new();
/// gpm_graph::set_ops::intersect_into(&[1, 3, 5, 7], &[2, 3, 4, 7, 9], &mut out);
/// assert_eq!(out, vec![3, 7]);
/// ```
pub fn intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return;
    }
    if long.len() / short.len().max(1) >= 16 {
        gallop_intersect_into(short, long, out);
    } else {
        merge_intersect_into(a, b, out);
    }
}

/// Branchless merge: every step writes `a[i]` into the output's next slot
/// and keeps it only on a match, so the loop carries no data-dependent
/// branch for the predictor to miss.
fn merge_intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let start = out.len();
    out.resize(start + a.len().min(b.len()), 0);
    let slots = &mut out[start..];
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        slots[k] = x;
        k += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.truncate(start + k);
}

fn gallop_intersect_into(short: &[VertexId], long: &[VertexId], out: &mut Vec<VertexId>) {
    let mut base = 0usize;
    for &x in short {
        let rest = &long[base..];
        let pos = gallop(rest, x);
        if pos < rest.len() && rest[pos] == x {
            out.push(x);
        }
        base += pos;
        if base >= long.len() {
            break;
        }
    }
}

/// Index of the first element `>= x` in sorted `s`, found by exponential
/// probing followed by binary search.
pub fn gallop(s: &[VertexId], x: VertexId) -> usize {
    if s.is_empty() || s[0] >= x {
        return 0;
    }
    let mut hi = 1usize;
    while hi < s.len() && s[hi] < x {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(s.len());
    lo + s[lo..hi].partition_point(|&v| v < x)
}

/// Number of common elements of two sorted slices (no allocation).
///
/// # Example
///
/// ```
/// assert_eq!(gpm_graph::set_ops::intersect_count(&[1, 2, 3], &[2, 3, 4]), 2);
/// ```
pub fn intersect_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return 0;
    }
    if long.len() / short.len().max(1) >= 16 {
        let mut base = 0usize;
        let mut count = 0usize;
        for &x in short {
            let rest = &long[base..];
            let pos = gallop(rest, x);
            if pos < rest.len() && rest[pos] == x {
                count += 1;
            }
            base += pos;
            if base >= long.len() {
                break;
            }
        }
        count
    } else {
        let (mut i, mut j, mut count) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            count += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        count
    }
}

/// Intersection of `k >= 1` sorted slices, written into `out` (replacing
/// its contents) without allocating.
///
/// Lists are intersected smallest-first to keep intermediates small, so
/// `lists` is reordered by length. Intermediates ping-pong between `out`
/// and the caller's `tmp`, whose contents are clobbered.
///
/// # Panics
///
/// Panics if `lists` is empty (an empty intersection is ill-defined: it
/// would be "all vertices").
pub fn intersect_many_into(
    lists: &mut [&[VertexId]],
    out: &mut Vec<VertexId>,
    tmp: &mut Vec<VertexId>,
) {
    assert!(!lists.is_empty(), "intersect_many_into requires at least one list");
    out.clear();
    if lists.len() == 1 {
        out.extend_from_slice(lists[0]);
        return;
    }
    lists.sort_unstable_by_key(|l| l.len());
    // Each later list flips the buffers once; start where the last result
    // lands in `out`.
    let (mut cur, mut next) = if lists.len().is_multiple_of(2) { (out, tmp) } else { (tmp, out) };
    cur.clear();
    intersect_into(lists[0], lists[1], cur);
    for list in &lists[2..] {
        next.clear();
        intersect_into(cur, list, next);
        std::mem::swap(&mut cur, &mut next);
    }
}

/// The part of sorted `s` strictly between `lo` and `hi`; a missing bound
/// leaves that side open. Two binary searches, no copy.
///
/// # Example
///
/// ```
/// use gpm_graph::set_ops::clip;
/// assert_eq!(clip(&[1, 3, 5, 7, 9], Some(3), Some(9)), &[5, 7]);
/// assert_eq!(clip(&[1, 3, 5], None, Some(4)), &[1, 3]);
/// assert!(clip(&[1, 3, 5], Some(4), Some(2)).is_empty());
/// ```
pub fn clip(s: &[VertexId], lo: Option<VertexId>, hi: Option<VertexId>) -> &[VertexId] {
    let begin = lo.map_or(0, |b| s.partition_point(|&v| v <= b));
    let end = hi.map_or(s.len(), |b| s.partition_point(|&v| v < b));
    &s[begin..end.max(begin)]
}

/// Removes from sorted `a` every element present in sorted `b`, in one
/// merge pass and without a second buffer.
///
/// # Example
///
/// ```
/// let mut a = vec![1, 2, 3, 4];
/// gpm_graph::set_ops::subtract_in_place(&mut a, &[2, 4]);
/// assert_eq!(a, vec![1, 3]);
/// ```
pub fn subtract_in_place(a: &mut Vec<VertexId>, b: &[VertexId]) {
    let mut rest = b.iter().peekable();
    a.retain(|&x| {
        while rest.next_if(|&&y| y < x).is_some() {}
        rest.peek() != Some(&&x)
    });
}

/// Whether sorted slice `s` contains `x` (binary search).
#[inline]
pub fn contains(s: &[VertexId], x: VertexId) -> bool {
    s.binary_search(&x).is_ok()
}

/// Number of elements of sorted `s` strictly below `x`.
#[inline]
pub fn count_below(s: &[VertexId], x: VertexId) -> usize {
    s.partition_point(|&v| v < x)
}

/// Number of elements of sorted `s` strictly above `x`.
#[inline]
pub fn count_above(s: &[VertexId], x: VertexId) -> usize {
    s.len() - s.partition_point(|&v| v <= x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_basic() {
        let mut out = Vec::new();
        intersect_into(&[1, 2, 3, 5, 8], &[2, 3, 4, 8], &mut out);
        assert_eq!(out, vec![2, 3, 8]);
    }

    #[test]
    fn intersect_disjoint_and_empty() {
        let mut out = Vec::new();
        intersect_into(&[1, 3], &[2, 4], &mut out);
        assert!(out.is_empty());
        intersect_into(&[], &[1, 2], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn galloping_path_matches_merge_path() {
        // Force the galloping branch with a 1:1000 size ratio.
        let long: Vec<VertexId> = (0..1000).map(|i| i * 3).collect();
        let short = vec![0, 2997, 1500, 7];
        let mut short_sorted = short.clone();
        short_sorted.sort_unstable();
        let mut fast = Vec::new();
        intersect_into(&short_sorted, &long, &mut fast);
        let mut slow = Vec::new();
        merge_intersect_into(&short_sorted, &long, &mut slow);
        assert_eq!(fast, slow);
        assert_eq!(fast, vec![0, 1500, 2997]);
    }

    #[test]
    fn gallop_boundaries() {
        let s = &[10, 20, 30];
        assert_eq!(gallop(s, 5), 0);
        assert_eq!(gallop(s, 10), 0);
        assert_eq!(gallop(s, 11), 1);
        assert_eq!(gallop(s, 30), 2);
        assert_eq!(gallop(s, 31), 3);
        assert_eq!(gallop(&[], 1), 0);
    }

    #[test]
    fn count_matches_materialized() {
        let a = &[1, 4, 6, 9, 12];
        let b = &[2, 4, 9, 10, 12, 14];
        let mut out = Vec::new();
        intersect_into(a, b, &mut out);
        assert_eq!(intersect_count(a, b), out.len());
    }

    #[test]
    fn many_way_intersection() {
        let a: &[VertexId] = &[1, 2, 3, 4, 5, 6];
        let b: &[VertexId] = &[2, 4, 6, 8];
        let c: &[VertexId] = &[4, 5, 6];
        let mut out = vec![99];
        intersect_many_into(&mut [a, b, c], &mut out, &mut Vec::new());
        assert_eq!(out, vec![4, 6]);
        // Four lists end in `out` too, whichever buffer the first step used.
        let d: &[VertexId] = &[0, 6];
        intersect_many_into(&mut [a, b, c, d], &mut out, &mut Vec::new());
        assert_eq!(out, vec![6]);
    }

    #[test]
    fn single_list_intersection_is_copy() {
        let mut out = Vec::new();
        intersect_many_into(&mut [&[3, 1 + 1, 7][..]], &mut out, &mut Vec::new());
        assert_eq!(out, vec![3, 2, 7]); // copied verbatim
    }

    #[test]
    #[should_panic(expected = "at least one list")]
    fn empty_list_set_panics() {
        intersect_many_into(&mut [], &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    fn subtraction() {
        let mut a = vec![1, 2, 3];
        subtract_in_place(&mut a, &[]);
        assert_eq!(a, vec![1, 2, 3]);
        subtract_in_place(&mut a, &[1, 2, 3, 4]);
        assert!(a.is_empty());
    }

    #[test]
    fn bounds_counting() {
        let s = &[2, 4, 6, 8];
        assert_eq!(count_below(s, 5), 2);
        assert_eq!(count_below(s, 2), 0);
        assert_eq!(count_above(s, 5), 2);
        assert_eq!(count_above(s, 8), 0);
        assert!(contains(s, 6));
        assert!(!contains(s, 5));
    }
}
