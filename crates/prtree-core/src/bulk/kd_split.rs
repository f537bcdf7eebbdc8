//! Shared pseudo-PR-tree splitting primitives, in place on one slice.
//!
//! Both the standalone [`crate::pseudo::PseudoPrTree`] and the PR-tree
//! bulk loaders are built from two operations on a working set of
//! entries, each a `select_nth_unstable_by` on a sub-slice followed by
//! index arithmetic — no entry is copied out of the slice:
//!
//! 1. **priority extraction** — move the `k` most extreme entries along
//!    a mapped axis (leftmost left edges, bottommost bottom edges,
//!    rightmost right edges, topmost top edges — §2.1) to the front,
//! 2. **median split** — partition the remainder at the median of the
//!    current round-robin kd axis, optionally snapping the split to a
//!    multiple of the leaf capacity so almost every leaf comes out full
//!    (the ">99% space utilization" trick at the end of §2.1).
//!
//! [`split_node`] combines them into one pseudo-PR-tree node. Every
//! construction path (sequential, parallel, external base case, pseudo
//! tree) calls it, so all of them produce *identical* groupings.
//!
//! The comparators hoist the axis branch out of the selection: one
//! closure per min-side axis and one per max-side axis, each comparing
//! the coordinate by `total_cmp` and then the id. They give exactly the
//! orders of [`pr_geom::mapped::cmp_items_on_axis`] (ascending) and
//! [`pr_geom::mapped::cmp_extreme_on_axis`] (most extreme first), ties
//! included, which the external construction's sorted lists rely on.

use crate::entry::Entry;
use pr_geom::Axis;
use std::cmp::Ordering;
use std::ops::Range;

/// Ascending by `lo[d]`, ties by id.
fn lo_order<const D: usize>(d: usize) -> impl Fn(&Entry<D>, &Entry<D>) -> Ordering {
    move |a, b| {
        a.rect
            .lo_at(d)
            .total_cmp(&b.rect.lo_at(d))
            .then_with(|| a.ptr.cmp(&b.ptr))
    }
}

/// Ascending by `hi[d]`, ties by id.
fn hi_order<const D: usize>(d: usize) -> impl Fn(&Entry<D>, &Entry<D>) -> Ordering {
    move |a, b| {
        a.rect
            .hi_at(d)
            .total_cmp(&b.rect.hi_at(d))
            .then_with(|| a.ptr.cmp(&b.ptr))
    }
}

/// Moves the `k` most extreme entries along `axis` to the front of
/// `items` (`k` is clamped to the slice length) and returns how many were
/// moved. Order within the front part and within the rest is unspecified
/// but deterministic.
pub fn extract_priority<const D: usize>(items: &mut [Entry<D>], axis: Axis, k: usize) -> usize {
    let k = k.min(items.len());
    if k == 0 || k == items.len() {
        return k;
    }
    let d = axis.dim::<D>();
    if axis.is_min_side::<D>() {
        items.select_nth_unstable_by(k - 1, lo_order(d));
    } else {
        // Most extreme = largest `hi`: the exact reverse of ascending.
        let asc = hi_order(d);
        items.select_nth_unstable_by(k - 1, |a, b| asc(b, a));
    }
    k
}

/// The split position of [`median_split`] for `n ≥ 2` entries.
///
/// With `snap_to = Some(cap)` the median is moved to the nearest multiple
/// of `cap` (keeping both sides non-empty), so that fully-packed leaves
/// fall out of the recursion; `None` gives the exact median of the
/// paper's structural definition. Each side always receives at most
/// `half + cap` entries, preserving the kd-tree analysis of Lemma 2.
pub(crate) fn split_point(n: usize, snap_to: Option<usize>) -> usize {
    debug_assert!(n >= 2, "cannot split fewer than two items");
    let mut mid = n / 2;
    if let Some(cap) = snap_to {
        if cap > 0 && n > cap {
            // Nearest multiple of cap; never 0 and never ≥ n (mid + cap/2
            // < n because cap < n), so both sides stay non-empty.
            let mut snapped = ((mid + cap / 2) / cap) * cap;
            if snapped == 0 {
                snapped = cap;
            }
            mid = snapped.min(n - 1);
        }
    }
    mid.clamp(1, n - 1)
}

/// Partitions `items` at the median of `axis` and returns the split
/// position `mid`: `items[..mid]` all precede `items[mid..]` in the
/// ascending `(coordinate, id)` order of the axis. `mid` is
/// [`split_point`]`(items.len(), snap_to)`.
pub fn median_split<const D: usize>(
    items: &mut [Entry<D>],
    axis: Axis,
    snap_to: Option<usize>,
) -> usize {
    let mid = split_point(items.len(), snap_to);
    let d = axis.dim::<D>();
    if axis.is_min_side::<D>() {
        items.select_nth_unstable_by(mid, lo_order(d));
    } else {
        items.select_nth_unstable_by(mid, hi_order(d));
    }
    mid
}

/// Moves up to `2D` priority leaves of size `prio` (in the paper's xmin,
/// ymin, …, xmax, ymax order) to the front of `items`, reports each
/// leaf's range to `leaf`, and returns how many entries they hold.
pub fn extract_all_priority_leaves<const D: usize>(
    items: &mut [Entry<D>],
    prio: usize,
    mut leaf: impl FnMut(Range<usize>),
) -> usize {
    let mut taken = 0;
    for axis in Axis::all::<D>() {
        if taken == items.len() {
            break;
        }
        let k = extract_priority(&mut items[taken..], axis, prio);
        if k > 0 {
            leaf(taken..taken + k);
        }
        taken += k;
    }
    taken
}

/// One pseudo-PR-tree node's worth of work (§2.1) over `items`, which
/// must hold more than `cap` entries when called from a kd recursion.
///
/// Reports every leaf to `leaf` as a range of `items`: a set of at most
/// `cap` entries is one leaf; a larger set sheds its `2D` priority leaves
/// of size `prio`, and a remainder of at most `cap` entries is one more
/// leaf. A larger remainder is split at the median of `axis` (see
/// [`median_split`]) and the two halves are returned for the caller to
/// recurse on with the next round-robin axis.
pub fn split_node<const D: usize>(
    items: &mut [Entry<D>],
    axis: Axis,
    prio: usize,
    cap: usize,
    snap_to: Option<usize>,
    mut leaf: impl FnMut(Range<usize>),
) -> Option<[Range<usize>; 2]> {
    let n = items.len();
    if n <= cap {
        if n > 0 {
            leaf(0..n);
        }
        return None;
    }
    let taken = extract_all_priority_leaves(items, prio, &mut leaf);
    let rest = n - taken;
    if rest == 0 {
        return None;
    }
    if rest <= cap {
        leaf(taken..n);
        return None;
    }
    let mid = taken + median_split(&mut items[taken..], axis, snap_to);
    Some([taken..mid, mid..n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_geom::mapped::{cmp_extreme_on_axis, cmp_items_on_axis};
    use pr_geom::Rect;

    fn entry(xmin: f64, ymin: f64, xmax: f64, ymax: f64, id: u32) -> Entry<2> {
        Entry::new(Rect::xyxy(xmin, ymin, xmax, ymax), id)
    }

    fn row(n: usize) -> Vec<Entry<2>> {
        (0..n)
            .map(|i| {
                let f = i as f64;
                entry(f, 0.0, f + 0.5, 1.0, i as u32)
            })
            .collect()
    }

    fn ids(items: &[Entry<2>]) -> Vec<u32> {
        let mut ids: Vec<_> = items.iter().map(|e| e.ptr).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn extract_priority_takes_most_extreme() {
        let mut items = row(10);
        // xmin axis: smallest lo — ids 0, 1, 2.
        let k = extract_priority(&mut items, Axis(0), 3);
        assert_eq!(k, 3);
        assert_eq!(ids(&items[..k]), [0, 1, 2]);
        // xmax axis on the remainder: largest hi — ids 7, 8, 9.
        let rest = &mut items[k..];
        assert_eq!(rest.len(), 7);
        let k = extract_priority(rest, Axis(2), 3);
        assert_eq!(ids(&rest[..k]), [7, 8, 9]);
    }

    #[test]
    fn extract_priority_clamps_and_handles_empty() {
        let mut items = row(2);
        assert_eq!(extract_priority(&mut items, Axis(0), 5), 2);
        assert_eq!(extract_priority::<2>(&mut [], Axis(0), 3), 0);
    }

    #[test]
    fn median_split_exact() {
        let mut items = row(10);
        let mid = median_split(&mut items, Axis(0), None);
        assert_eq!(mid, 5);
        let lmax = items[..mid].iter().map(|e| e.ptr).max().unwrap();
        let rmin = items[mid..].iter().map(|e| e.ptr).min().unwrap();
        assert!(lmax < rmin, "all left xmin < all right xmin");
    }

    #[test]
    fn median_split_snaps_to_capacity() {
        // 10 items, cap 4: exact mid = 5, snapped to 4.
        assert_eq!(median_split(&mut row(10), Axis(0), Some(4)), 4);
        // 9 items, cap 4: mid = 4 (already a multiple).
        assert_eq!(median_split(&mut row(9), Axis(0), Some(4)), 4);
        // 6 items, cap 4: mid = 3 → snapped to 4, right side non-empty.
        assert_eq!(median_split(&mut row(6), Axis(0), Some(4)), 4);
    }

    #[test]
    fn median_split_both_sides_nonempty() {
        for n in 2..40 {
            for cap in [1usize, 2, 3, 4, 7] {
                let mid = median_split(&mut row(n), Axis(0), Some(cap));
                assert!(0 < mid && mid < n, "n={n} cap={cap}");
            }
            let mid = median_split(&mut row(n), Axis(1), None);
            assert!(0 < mid && mid < n);
        }
    }

    #[test]
    fn all_priority_leaves_cycle_axes() {
        let mut items = row(20);
        let mut leaves = Vec::new();
        let taken = extract_all_priority_leaves(&mut items, 4, |r| leaves.push(r));
        assert_eq!(leaves, [0..4, 4..8, 8..12, 12..16]);
        assert_eq!(taken, 16);
        // First leaf: smallest xmin (ids 0..4). Fourth leaf: largest ymax
        // among what remained; all ymax equal → tie-break by id.
        assert_eq!(ids(&items[0..4]), [0, 1, 2, 3]);
        assert_eq!(ids(&items[12..16]), [12, 13, 14, 15]);
    }

    #[test]
    fn all_priority_leaves_small_input() {
        let mut items = row(6);
        let mut leaves = Vec::new();
        let taken = extract_all_priority_leaves(&mut items, 4, |r| leaves.push(r));
        // 4 + 2: second leaf partial, then nothing left.
        assert_eq!(leaves, [0..4, 4..6]);
        assert_eq!(taken, 6);
    }

    #[test]
    fn ties_broken_by_id_deterministically() {
        // All rectangles identical: extraction must still be deterministic
        // (by id) so external and in-memory builds agree.
        let mut items: Vec<Entry<2>> = (0..10).map(|i| entry(0.0, 0.0, 1.0, 1.0, i)).collect();
        let k = extract_priority(&mut items, Axis(0), 3);
        assert_eq!(ids(&items[..k]), [0, 1, 2]);
        // ymax axis (max side): extreme = largest ymax; ties resolve to
        // the largest id (exact reverse of the ascending order).
        let rest = &mut items[k..];
        let k = extract_priority(rest, Axis(3), 3);
        assert_eq!(ids(&rest[..k]), [7, 8, 9]);
    }

    #[test]
    fn hoisted_comparators_match_the_mapped_orders() {
        // Coincident coordinates, signed zeros and NaN-free duplicates:
        // every pair must compare exactly as the pr-geom reference orders.
        let vals = [-1.0, -0.0, 0.0, 0.5, 0.5, 2.0];
        let mut items = Vec::new();
        for (i, &a) in vals.iter().enumerate() {
            for (j, &b) in vals.iter().enumerate() {
                items.push(entry(a, b, a + b.abs(), b + 1.0, (i * 7 + j % 3) as u32));
            }
        }
        for axis in Axis::all::<2>() {
            let d = axis.dim::<2>();
            for a in &items {
                for b in &items {
                    let (ia, ib) = (a.to_item(), b.to_item());
                    let asc = if axis.is_min_side::<2>() {
                        lo_order(d)(a, b)
                    } else {
                        hi_order(d)(a, b)
                    };
                    assert_eq!(asc, cmp_items_on_axis(axis, &ia, &ib));
                    let extreme = if axis.is_min_side::<2>() {
                        asc
                    } else {
                        hi_order(d)(b, a)
                    };
                    assert_eq!(extreme, cmp_extreme_on_axis(axis, &ia, &ib));
                }
            }
        }
    }

    #[test]
    fn split_node_reports_leaves_and_halves() {
        // 20 entries, prio 2, cap 4: four priority leaves of 2, then the
        // 12 left are split at 12/2 = 6 snapped to 8.
        let mut items = row(20);
        let mut leaves = Vec::new();
        let halves = split_node(&mut items, Axis(0), 2, 4, Some(4), |r| leaves.push(r));
        assert_eq!(leaves, [0..2, 2..4, 4..6, 6..8]);
        assert_eq!(halves, Some([8..16, 16..20]));
        // At most `cap` entries: one leaf, no split.
        let mut leaves = Vec::new();
        assert_eq!(
            split_node(&mut row(3), Axis(0), 2, 4, None, |r| leaves.push(r)),
            None
        );
        assert_eq!(leaves, vec![0..3_usize]);
        // A remainder of at most `cap` becomes a leaf.
        let mut leaves = Vec::new();
        assert_eq!(
            split_node(&mut row(11), Axis(0), 2, 4, None, |r| leaves.push(r)),
            None
        );
        assert_eq!(leaves, [0..2, 2..4, 4..6, 6..8, 8..11]);
    }
}
