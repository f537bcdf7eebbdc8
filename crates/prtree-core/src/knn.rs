//! k-nearest-neighbor queries: one bounded branch-and-bound search.
//!
//! Not part of the paper's evaluation (which is window queries only),
//! but §1.1 notes that "many types of queries can be answered
//! efficiently using an R-tree" — and any production spatial index needs
//! k-NN. It runs on *any* tree the bulk loaders produce, so PR-tree
//! robustness extends to k-NN workloads for free.
//!
//! # The search
//!
//! The classic branch-and-bound k-NN (Roussopoulos, Kelley and Vincent,
//! SIGMOD 1995) in best-first node order (Hjaltason–Samet). Two heaps
//! live in [`QueryScratch`]: a min-heap of nodes keyed by their
//! min-dist² to the query point, and a max-heap of the `k` best items
//! admitted so far. A running **bound** on the squared k-th distance
//! prunes everything beyond it: a node or item whose min-dist² exceeds
//! the bound is never pushed, and the search stops when the nearest
//! unvisited node lies beyond it. The bound is the least of:
//!
//! * the squared distance of the k-th best item once `k` are held;
//! * when no tombstone can reject an item, the k-th smallest child
//!   **max-dist²** of an expanded internal node
//!   ([`pr_geom::batch::max_dist2_batch`]):
//!   every non-root subtree holds at least one item, which lies within
//!   its MBR's max-dist, so `k` children give `k` items within the k-th
//!   smallest of them. This is what prunes before any leaf is read;
//! * the caller's `bound2` ([`RTree::nearest_neighbors_filtered_into`]):
//!   the exact squared k-th distance of what a multi-component index
//!   already admitted from its other sources.
//!
//! # Exactness and the tie order
//!
//! Answers equal the unbounded best-first search of
//! [`crate::reference::ReferenceEngine`] bit for bit — the same items,
//! the same distance bits and the same [`QueryStats`] — because both
//! follow one total order on candidates ([`Prioritized`]): squared
//! distance, then nodes before items, then nodes by page and items by
//! id and all `2·D` coordinate bit patterns. With nodes first at equal
//! distance, the reference visits exactly the nodes whose min-dist² is
//! at most the k-th item distance `d_k` before it emits its k-th item.
//! The bounded search visits the same set: every bound is `≥ d_k`, so
//! no such node is pruned, and once they are all visited the k-best
//! heap holds the `k` items at or below `d_k`, so the bound is `d_k`
//! and every farther node is pruned.
//!
//! Soundness of the max-dist bound rests on two facts:
//!
//! * **Rounding.** The max-dist² kernel sums its per-dimension squares
//!   in the same order as `min_dist2`, and each term dominates the
//!   contained rectangle's; rounding is monotone, so fl(min_dist2(item))
//!   ≤ fl(max_dist2(enclosing MBR)). A non-finite value never tightens
//!   the bound.
//! * **Non-empty subtrees.** The bound assumes no non-root node is
//!   empty; the search returns [`EmError::Corrupt`] when it visits one.
//!   A bound that an empty child made unsound counted that child's
//!   max-dist², and its min-dist² is no larger, so the child lies within
//!   the bound: it is visited and the error raised, never a short or
//!   wrong answer.
//!
//! # Filtered search
//!
//! With a tombstone filter that holds tombstones (the multi-component
//! structures) the max-dist bound is off — a subtree's items may all be
//! dead — and the filter is consulted only for an item that would enter
//! the k-best set. The filter's multiset subtraction is unaffected: copies of one
//! tombstoned key are bit-identical, so they share one distance and one
//! place in the tie order, and a bound prunes all of them alike.

use crate::dynamic::tombstone::TombstoneFilter;
use crate::query::QueryStats;
use crate::scratch::QueryScratch;
use crate::tree::RTree;
use pr_em::{BlockId, EmError};
use pr_geom::{Item, Point};
use std::cmp::Ordering;

/// The k-NN total order on items at their squared distances: distance
/// (`f64::total_cmp`), then id, then the bit patterns of the low and
/// high corners. Bit-identical items compare equal, and they are
/// interchangeable in any answer.
fn item_order<const D: usize>(a2: f64, a: &Item<D>, b2: f64, b: &Item<D>) -> Ordering {
    a2.total_cmp(&b2)
        .then_with(|| a.id.cmp(&b.id))
        .then_with(|| {
            let lo =
                |i: &Item<D>| -> [u64; D] { std::array::from_fn(|d| i.rect.lo_at(d).to_bits()) };
            let hi =
                |i: &Item<D>| -> [u64; D] { std::array::from_fn(|d| i.rect.hi_at(d).to_bits()) };
            lo(a).cmp(&lo(b)).then_with(|| hi(a).cmp(&hi(b)))
        })
}

/// [`item_order`] on `(item, squared distance)` answers.
fn cmp_nearest<const D: usize>(a: &(Item<D>, f64), b: &(Item<D>, f64)) -> Ordering {
    item_order(a.1, &a.0, b.1, &b.0)
}

/// Keeps the `k` nearest of `list` — `(item, squared distance)` pairs —
/// in the k-NN total order, in no particular order, and returns the
/// squared k-th distance: the `bound2` within which the next source
/// must search. Returns `f64::INFINITY` while `list` holds fewer than
/// `k` (which must be positive).
pub fn retain_nearest<const D: usize>(list: &mut Vec<(Item<D>, f64)>, k: usize) -> f64 {
    debug_assert!(k > 0);
    if list.len() < k {
        return f64::INFINITY;
    }
    list.select_nth_unstable_by(k - 1, cmp_nearest);
    list.truncate(k);
    list[k - 1].1
}

/// Sorts `(item, squared distance)` answers into the k-NN total order
/// and takes the square roots in place — the last step of every k-NN,
/// and the only square root it takes.
pub fn finish_nearest<const D: usize>(list: &mut [(Item<D>, f64)]) {
    list.sort_unstable_by(cmp_nearest);
    for n in list {
        n.1 = n.1.sqrt();
    }
}

/// Candidate of the unbounded best-first search: a node or an item.
pub(crate) enum Candidate<const D: usize> {
    Node(BlockId),
    Item(Item<D>),
}

/// Heap entry of the unbounded best-first search that
/// [`crate::reference::ReferenceEngine`] keeps as the oracle. Its `Ord`
/// is reversed for `BinaryHeap` (nearest pops first) and **defines the
/// k-NN tie order** the bounded search reproduces: squared distance,
/// then nodes before items, then nodes by page and items by
/// [`item_order`].
pub(crate) struct Prioritized<const D: usize> {
    pub(crate) dist2: f64,
    pub(crate) candidate: Candidate<D>,
}

impl<const D: usize> Prioritized<D> {
    fn order(&self, other: &Self) -> Ordering {
        self.dist2
            .total_cmp(&other.dist2)
            .then_with(|| match (&self.candidate, &other.candidate) {
                (Candidate::Node(a), Candidate::Node(b)) => a.cmp(b),
                (Candidate::Item(a), Candidate::Item(b)) => {
                    item_order(self.dist2, a, other.dist2, b)
                }
                (Candidate::Node(_), Candidate::Item(_)) => Ordering::Less,
                (Candidate::Item(_), Candidate::Node(_)) => Ordering::Greater,
            })
    }
}

impl<const D: usize> PartialEq for Prioritized<D> {
    fn eq(&self, other: &Self) -> bool {
        self.order(other) == Ordering::Equal
    }
}
impl<const D: usize> Eq for Prioritized<D> {}
impl<const D: usize> PartialOrd for Prioritized<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for Prioritized<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the closest first.
        other.order(self)
    }
}

/// A node awaiting its visit in the bounded search, at its min-dist².
/// `Ord` is reversed for a min-heap: nearest first, then lowest page —
/// the node half of the [`Prioritized`] order.
#[derive(Clone, Copy)]
pub(crate) struct NodeCandidate {
    dist2: f64,
    page: BlockId,
}

impl PartialEq for NodeCandidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for NodeCandidate {}
impl PartialOrd for NodeCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for NodeCandidate {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist2
            .total_cmp(&self.dist2)
            .then(other.page.cmp(&self.page))
    }
}

/// An admitted item at its squared distance, in the item half of the
/// [`Prioritized`] order; a `BinaryHeap` of these keeps the worst of
/// the k best on top.
#[derive(Clone, Copy)]
pub(crate) struct Neighbor<const D: usize> {
    dist2: f64,
    item: Item<D>,
}

impl<const D: usize> PartialEq for Neighbor<D> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<const D: usize> Eq for Neighbor<D> {}
impl<const D: usize> PartialOrd for Neighbor<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for Neighbor<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        item_order(self.dist2, &self.item, other.dist2, &other.item)
    }
}

impl<const D: usize> RTree<D> {
    /// The `k` items nearest to `query` (Euclidean distance to their
    /// rectangles, 0 when the point is inside), closest first, ties in
    /// the k-NN total order (see the module docs). Returns fewer than `k`
    /// items only when the tree holds fewer.
    pub fn nearest_neighbors(
        &self,
        query: &Point<D>,
        k: usize,
    ) -> Result<Vec<(Item<D>, f64)>, EmError> {
        Ok(self.nearest_neighbors_with_stats(query, k)?.0)
    }

    /// k-NN with traversal statistics (leaves read, device I/Os).
    pub fn nearest_neighbors_with_stats(
        &self,
        query: &Point<D>,
        k: usize,
    ) -> Result<(Vec<(Item<D>, f64)>, QueryStats), EmError> {
        let mut out = Vec::with_capacity(k.min(self.len() as usize));
        let stats = self.nearest_neighbors_into(query, k, &mut QueryScratch::new(), &mut out)?;
        Ok((out, stats))
    }

    /// [`RTree::nearest_neighbors_with_stats`] with caller-owned
    /// buffers: neighbors go into `out` (cleared first), both heaps and
    /// the batched-distance buffers live in `scratch`. Per-node
    /// distances come from the vectorized
    /// [`pr_geom::batch::min_dist2_batch`] kernel, which is bit-identical
    /// to the scalar `Rect::min_dist2` — so the answer, its distance bits
    /// and the traversal statistics match the scalar reference engine
    /// exactly (see the module docs).
    pub fn nearest_neighbors_into(
        &self,
        query: &Point<D>,
        k: usize,
        scratch: &mut QueryScratch<D>,
        out: &mut Vec<(Item<D>, f64)>,
    ) -> Result<QueryStats, EmError> {
        out.clear();
        let stats = self.knn_search(query, k, f64::INFINITY, true, scratch, out, |_| true)?;
        finish_nearest(out);
        Ok(stats)
    }

    /// The k-NN primitive of the multi-component structures (LPR-tree,
    /// pr-live snapshots): **appends** to `out` this tree's `k` nearest
    /// items that `filter` admits and that lie within squared distance
    /// `bound2`, as `(item, squared distance)` pairs in no particular
    /// order. Pass `f64::INFINITY` for no bound.
    ///
    /// `bound2` is the exact squared k-th distance of what the caller
    /// already admitted from its other sources ([`retain_nearest`]
    /// computes it): an item beyond it cannot enter the global top `k`,
    /// so neither it nor a node beyond it is visited. An item exactly at
    /// `bound2` is still reported, since the tie order may rank it
    /// ahead of the caller's k-th.
    ///
    /// The callers pass the query's shared multiset [`TombstoneFilter`].
    /// It runs **inside the search**, and only for an item that would
    /// enter the k-best set: a dead copy consumes no result slot, so
    /// each component yields its nearest *live* items directly instead
    /// of over-fetching `k + total_tombstones` and filtering afterwards
    /// — with heavy tombstones, the difference between reading a
    /// handful of leaves and scanning most of the component. A filter
    /// without tombstones admits everything, so the search then also
    /// uses the max-dist bound.
    pub fn nearest_neighbors_filtered_into(
        &self,
        query: &Point<D>,
        k: usize,
        bound2: f64,
        scratch: &mut QueryScratch<D>,
        out: &mut Vec<(Item<D>, f64)>,
        filter: &mut TombstoneFilter<'_, D>,
    ) -> Result<QueryStats, EmError> {
        let max_dist = filter.admits_all();
        self.knn_search(query, k, bound2, max_dist, scratch, out, |it| {
            filter.admit(it)
        })
    }

    /// The bounded search (see the module docs); appends the k best to
    /// `out` with squared distances. `max_dist` enables the max-dist
    /// bound, which is sound only when `admit` accepts every item.
    #[allow(clippy::too_many_arguments)]
    fn knn_search(
        &self,
        query: &Point<D>,
        k: usize,
        bound2: f64,
        max_dist: bool,
        scratch: &mut QueryScratch<D>,
        out: &mut Vec<(Item<D>, f64)>,
        mut admit: impl FnMut(&Item<D>) -> bool,
    ) -> Result<QueryStats, EmError> {
        let mut stats = QueryStats::default();
        if k == 0 || self.is_empty() {
            return Ok(stats);
        }
        let QueryScratch {
            page_buf,
            soa,
            dist,
            far,
            nodes,
            best,
            trace,
            ..
        } = scratch;
        // Same tracing contract as `window_traverse`: one relaxed load
        // when disabled, per-level tallies + per-I/O spans when sampled.
        trace.arm_sampled("knn");
        let tracing = trace.is_active();
        let traverse = trace.begin("tree", "best_first");
        nodes.clear();
        best.clear();
        let root = self.root();
        nodes.push(NodeCandidate {
            dist2: 0.0,
            page: root,
        });
        let mut bound = bound2;
        // One pinned-node snapshot and local cache accounting per query,
        // finished once (see query.rs).
        let mut view = self.pinned_view();
        let walk = (|| {
            while let Some(NodeCandidate { dist2, page }) = nodes.pop() {
                if dist2 > bound {
                    break; // every node left is farther still
                }
                let (hits0, misses0) = (view.tally.leaf_hits, view.tally.leaf_misses);
                let t_node = tracing.then(std::time::Instant::now);
                let mut level = 0u8;
                let (non_empty, did_io) =
                    self.with_soa_node(page, &mut view, page_buf, soa, |n| {
                        if n.is_empty() && page != root {
                            return false;
                        }
                        if tracing {
                            level = n.level();
                        }
                        stats.nodes_visited += 1;
                        n.min_dist2_into(query, dist);
                        if n.is_leaf() {
                            stats.leaves_visited += 1;
                            for (i, &d2) in dist.iter().enumerate() {
                                if d2 > bound {
                                    continue;
                                }
                                let cand = Neighbor {
                                    dist2: d2,
                                    item: n.item(i),
                                };
                                let full = best.len() == k;
                                if full && cand >= *best.peek().expect("k > 0") {
                                    continue; // ties the k-th, loses the tie
                                }
                                if !admit(&cand.item) {
                                    continue;
                                }
                                if full {
                                    *best.peek_mut().expect("k > 0") = cand;
                                } else {
                                    best.push(cand);
                                }
                                if best.len() == k {
                                    bound = bound.min(best.peek().expect("k > 0").dist2);
                                }
                            }
                        } else {
                            stats.internal_visited += 1;
                            // Before k items are held, the children's
                            // max-dists are the only bound there is.
                            if max_dist && best.len() < k && n.len() >= k {
                                n.max_dist2_into(query, far);
                                let (_, kth, _) = far.select_nth_unstable_by(k - 1, f64::total_cmp);
                                if kth.is_finite() {
                                    bound = bound.min(*kth);
                                }
                            }
                            for (&d2, &ptr) in dist.iter().zip(n.ptrs()) {
                                if d2 > bound {
                                    continue;
                                }
                                nodes.push(NodeCandidate {
                                    dist2: d2,
                                    page: ptr as BlockId,
                                });
                            }
                        }
                        true
                    })?;
                if !non_empty {
                    return Err(EmError::Corrupt(format!(
                        "k-NN reached empty non-root node {page}"
                    )));
                }
                stats.device_reads += did_io as u64;
                if tracing {
                    if did_io {
                        let t0 = t_node.expect("set while tracing");
                        trace.span_since("em", "page_read", t0, &format!("page={page}"));
                    }
                    let is_leaf = level == 0;
                    trace.tally_level(
                        level as usize,
                        is_leaf as u64,
                        !is_leaf as u64,
                        view.tally.leaf_hits - hits0,
                        view.tally.leaf_misses - misses0,
                        did_io as u64,
                    );
                }
            }
            Ok(())
        })();
        if walk.is_ok() {
            stats.results = best.len() as u64;
            out.extend(best.drain().map(|n| (n.item, n.dist2)));
        }
        let tally = self.finish_view(view);
        stats.leaf_cache_hits = tally.leaf_hits;
        stats.leaf_cache_misses = tally.leaf_misses;
        crate::obs::record_query(crate::obs::QueryKind::Knn, &stats);
        if tracing {
            trace.end_detail(traverse, &format!("nodes={}", stats.nodes_visited));
            trace.set_detail(&format!("results={}", stats.results));
            trace.finish_publish();
        }
        walk.map(|()| stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::pr::PrTreeLoader;
    use crate::bulk::{BulkLoader, LoaderKind};
    use crate::params::TreeParams;
    use pr_em::{BlockDevice, MemDevice};
    use pr_geom::Rect;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn random_items(n: u32, seed: u64) -> Vec<Item<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..100.0);
                let y: f64 = rng.gen_range(0.0..100.0);
                let w: f64 = rng.gen_range(0.0..2.0);
                Item::new(Rect::xyxy(x, y, x + w, y + w), i)
            })
            .collect()
    }

    fn brute_knn(items: &[Item<2>], q: &Point<2>, k: usize) -> Vec<(u32, f64)> {
        let mut all: Vec<(u32, f64)> = items.iter().map(|i| (i.id, i.rect.min_dist(q))).collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    fn build(items: &[Item<2>]) -> RTree<2> {
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        PrTreeLoader::default()
            .load(dev, params, items.to_vec())
            .unwrap()
    }

    #[test]
    fn knn_matches_brute_force_distances() {
        let items = random_items(2_000, 5);
        let tree = build(&items);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..25 {
            let q = Point::new([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
            for k in [1usize, 5, 20] {
                let got = tree.nearest_neighbors(&q, k).unwrap();
                let want = brute_knn(&items, &q, k);
                assert_eq!(got.len(), k);
                // Distances must match exactly (ties may swap ids).
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g.1 - w.1).abs() < 1e-9,
                        "k={k} q={q:?}: got {} want {}",
                        g.1,
                        w.1
                    );
                }
                // Results are sorted by distance.
                for pair in got.windows(2) {
                    assert!(pair[0].1 <= pair[1].1);
                }
            }
        }
    }

    #[test]
    fn knn_inside_rectangles_has_distance_zero() {
        let items = vec![
            Item::new(Rect::xyxy(0.0, 0.0, 10.0, 10.0), 0),
            Item::new(Rect::xyxy(50.0, 50.0, 60.0, 60.0), 1),
        ];
        let tree = build(&items);
        let got = tree.nearest_neighbors(&Point::new([5.0, 5.0]), 2).unwrap();
        assert_eq!(got[0].0.id, 0);
        assert_eq!(got[0].1, 0.0);
        assert!(got[1].1 > 0.0);
    }

    #[test]
    fn knn_edge_cases() {
        let items = random_items(50, 2);
        let tree = build(&items);
        let q = Point::new([50.0, 50.0]);
        assert!(tree.nearest_neighbors(&q, 0).unwrap().is_empty());
        // k larger than the tree: everything, in order.
        let got = tree.nearest_neighbors(&q, 1000).unwrap();
        assert_eq!(got.len(), 50);
        // Empty tree.
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let empty = RTree::<2>::new_empty(dev, params).unwrap();
        assert!(empty.nearest_neighbors(&q, 3).unwrap().is_empty());
    }

    #[test]
    fn knn_prunes_most_of_the_tree() {
        // Best-first search on a good tree should read only a few leaves.
        let items = random_items(5_000, 7);
        let tree = build(&items);
        let (_, stats) = tree
            .nearest_neighbors_with_stats(&Point::new([42.0, 42.0]), 10)
            .unwrap();
        let total_leaves = tree.stats().unwrap().num_leaves();
        assert!(
            stats.leaves_visited * 10 < total_leaves,
            "visited {} of {total_leaves} leaves",
            stats.leaves_visited
        );
    }

    #[test]
    fn knn_works_on_every_loader() {
        let items = random_items(800, 11);
        let q = Point::new([33.0, 66.0]);
        let want = brute_knn(&items, &q, 7);
        for kind in LoaderKind::all() {
            let params = TreeParams::with_cap::<2>(8);
            let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
            let tree = kind.loader::<2>().load(dev, params, items.clone()).unwrap();
            let got = tree.nearest_neighbors(&q, 7).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert!((g.1 - w.1).abs() < 1e-9, "{}", kind.name());
            }
        }
    }

    /// The max-dist bound assumes every non-root subtree holds an item.
    /// A tree that breaks this — a leaf emptied on the device — must
    /// fail loudly with `Corrupt` whenever the search reaches it, never
    /// return a short answer.
    #[test]
    fn empty_non_root_leaf_is_corrupt_not_a_short_answer() {
        use crate::page::NodePage;
        let items = random_items(300, 13);
        let tree = build(&items);
        assert!(tree.height() >= 3);
        // Descend along first children to a leaf; remember its MBR.
        let dev = tree.device().as_ref();
        let mut page = tree.root();
        let mut mbr = None;
        loop {
            let node = NodePage::<2>::read(dev, page).unwrap();
            if node.is_leaf() {
                break;
            }
            mbr = Some(node.entries[0].rect);
            page = node.entries[0].ptr as BlockId;
        }
        NodePage::<2>::new(0, Vec::new()).write(dev, page).unwrap();
        let inside = mbr.unwrap().center();
        let corrupt = |r: Result<QueryStats, EmError>| matches!(r, Err(EmError::Corrupt(_)));
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        for k in [1, 10, items.len()] {
            let r = tree.nearest_neighbors_into(&inside, k, &mut scratch, &mut out);
            assert!(corrupt(r), "k={k}: empty leaf under the query point");
            let mut dead = crate::dynamic::Tombstones::new();
            dead.add(&items[0]);
            let r = tree.nearest_neighbors_filtered_into(
                &inside,
                k,
                f64::INFINITY,
                &mut scratch,
                &mut out,
                &mut dead.filter(),
            );
            assert!(corrupt(r), "k={k}: filtered search");
        }
        // Asking for every item reaches every leaf, wherever the query.
        let far = Point::new([-500.0, 900.0]);
        let r = tree.nearest_neighbors_into(&far, items.len(), &mut scratch, &mut out);
        assert!(corrupt(r), "a full answer needs the emptied leaf");
    }

    #[test]
    fn knn_in_three_dimensions() {
        let mut rng = SmallRng::seed_from_u64(3);
        let items: Vec<Item<3>> = (0..600)
            .map(|i| {
                let p = [
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                ];
                Item::new(Rect::new(p, p), i)
            })
            .collect();
        let params = TreeParams::with_cap::<3>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let tree = PrTreeLoader::default()
            .load(dev, params, items.clone())
            .unwrap();
        let q = Point::new([5.0, 5.0, 5.0]);
        let got = tree.nearest_neighbors(&q, 5).unwrap();
        let mut want: Vec<f64> = items.iter().map(|i| i.rect.min_dist(&q)).collect();
        want.sort_by(f64::total_cmp);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.1 - w).abs() < 1e-9);
        }
    }
}
