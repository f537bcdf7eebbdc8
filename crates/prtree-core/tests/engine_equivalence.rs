//! The SoA decode-free query engine must be observationally identical
//! to the retained scalar AoS engine ([`pr_tree::reference`]) — same
//! results in the same order, same `f64` bits, and the same
//! [`QueryStats`] (leaves visited, internal visits, device reads) — for
//! **every** bulk loader on uniform, varied-size, and worst-case data.
//!
//! Trees are warmed (`warm_cache`) before comparison: that is the
//! paper's steady state, where both engines see internal-hit/leaf-miss
//! accounting, so `device_reads` comparisons are exact.

use pr_data::{size_dataset, uniform_points, worst_case_grid};
use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Point, Rect};
use pr_tree::bulk::LoaderKind;
use pr_tree::reference::ReferenceEngine;
use pr_tree::{QueryScratch, RTree, TreeParams};
use proptest::prelude::*;
use std::sync::Arc;

const CAP: usize = 8; // small fanout → several levels at test sizes

fn build<const D: usize>(kind: LoaderKind, items: &[Item<D>]) -> RTree<D> {
    let params = TreeParams::with_cap::<D>(CAP);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = kind
        .loader::<D>()
        .load(dev, params, items.to_vec())
        .expect("bulk load");
    tree.warm_cache().expect("warm");
    tree
}

fn datasets() -> Vec<(&'static str, Vec<Item<2>>)> {
    vec![
        ("uniform", uniform_points(1_500, 0xE0)),
        ("size", size_dataset(1_500, 0.08, 0xE1)),
        // Theorem-3 shifted grid: 2⁶ columns × 8 rows of points.
        ("worst-case", worst_case_grid(6, 8)),
    ]
}

/// Window queries spanning the dataset's domain at several sizes.
fn windows(domain: &Rect<2>, seeds: u64, count: usize) -> Vec<Rect<2>> {
    let mut state = 0x9E3779B97F4A7C15u64.wrapping_add(seeds);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let span = |d: usize| domain.hi_at(d) - domain.lo_at(d);
    (0..count)
        .map(|i| {
            let frac = [0.001, 0.01, 0.1, 0.5][i % 4];
            let w = span(0) * frac;
            let h = span(1) * frac;
            let x = domain.lo_at(0) + next() * (span(0) - w).max(0.0);
            let y = domain.lo_at(1) + next() * (span(1) - h).max(0.0);
            Rect::xyxy(x, y, x + w, y + h)
        })
        .collect()
}

#[test]
fn every_loader_and_dataset_matches_the_scalar_reference() {
    for (data_name, items) in datasets() {
        let domain = Rect::mbr_of(items.iter().map(|i| &i.rect));
        for (ki, kind) in LoaderKind::all().into_iter().enumerate() {
            let tree = build(kind, &items);
            let oracle = ReferenceEngine::new(&tree).expect("oracle");
            let mut scratch = QueryScratch::new();
            let mut out = Vec::new();
            let label = format!("{}/{data_name}", kind.name());

            for (qi, q) in windows(&domain, ki as u64, 24).iter().enumerate() {
                let (want, want_stats) = oracle.window_with_stats(q).expect("oracle window");
                // Fresh-scratch path.
                let (got, got_stats) = tree.window_with_stats(q).expect("window");
                assert_eq!(got, want, "{label} q{qi}: results (order included)");
                assert_eq!(got_stats, want_stats, "{label} q{qi}: QueryStats");
                // Reused-scratch path.
                let into_stats = tree.window_into(q, &mut scratch, &mut out).expect("into");
                assert_eq!(out, want, "{label} q{qi}: scratch results");
                assert_eq!(into_stats, want_stats, "{label} q{qi}: scratch stats");
                // Counting path.
                let (n, count_stats) = tree.window_count_into(q, &mut scratch).expect("count");
                assert_eq!(n, want.len() as u64, "{label} q{qi}: count");
                assert_eq!(count_stats, want_stats, "{label} q{qi}: count stats");
                // Existence never disagrees (its early exit reports no
                // stats, so only the boolean is comparable).
                let any = tree.intersects_any_into(q, &mut scratch).expect("exists");
                assert_eq!(any, !want.is_empty(), "{label} q{qi}: intersects_any");
            }

            // k-NN: identical items, identical distance bits, identical
            // traversal statistics.
            for (pi, p) in [
                Point::new([domain.lo_at(0), domain.lo_at(1)]),
                domain.center(),
                Point::new([domain.hi_at(0), domain.lo_at(1)]),
            ]
            .iter()
            .enumerate()
            {
                for k in [1usize, 7, 40] {
                    let (want, want_stats) =
                        oracle.nearest_neighbors_with_stats(p, k).expect("oracle");
                    let (got, got_stats) = tree.nearest_neighbors_with_stats(p, k).expect("knn");
                    assert_eq!(got.len(), want.len(), "{label} p{pi} k{k}");
                    for ((gi, gd), (wi, wd)) in got.iter().zip(&want) {
                        assert_eq!(gi, wi, "{label} p{pi} k{k}: item");
                        assert_eq!(gd.to_bits(), wd.to_bits(), "{label} p{pi} k{k}: dist bits");
                    }
                    assert_eq!(got_stats, want_stats, "{label} p{pi} k{k}: stats");
                }
            }
        }
    }
}

/// One k-NN query through both engines: identical items (order
/// included), identical distance bits, identical `QueryStats`.
fn assert_knn_matches<const D: usize>(
    tree: &RTree<D>,
    oracle: &ReferenceEngine<'_, D>,
    p: &Point<D>,
    k: usize,
    label: &str,
) {
    let (want, want_stats) = oracle.nearest_neighbors_with_stats(p, k).expect("oracle");
    let (got, got_stats) = tree.nearest_neighbors_with_stats(p, k).expect("knn");
    assert_eq!(got.len(), want.len(), "{label} k{k}: length");
    for ((gi, gd), (wi, wd)) in got.iter().zip(&want) {
        assert_eq!(gi, wi, "{label} k{k}: item");
        assert_eq!(gd.to_bits(), wd.to_bits(), "{label} k{k}: dist bits");
    }
    assert_eq!(got_stats, want_stats, "{label} k{k}: stats");
}

/// A lattice of `side^D` sites, each holding `copies` coincident
/// points with distinct ids. Every query at a site or a cell center
/// sees whole groups of equal distances, so the k values below land
/// inside tie groups and the tie order decides which items make the
/// cut — and which nodes at exactly the k-th distance are visited.
/// With `twins`, every third site also holds a bit-identical second
/// copy of one of its items (same id, same point), as a re-inserted
/// duplicate would.
fn tie_heavy<const D: usize>(side: u32, copies: u32, twins: bool) -> Vec<Item<D>> {
    let mut items = Vec::new();
    let mut id = 0u32;
    for site in 0..side.pow(D as u32) {
        let mut c = [0.0; D];
        let mut rest = site;
        for x in c.iter_mut() {
            *x = (rest % side) as f64;
            rest /= side;
        }
        for _ in 0..copies {
            items.push(Item::new(Rect::new(c, c), id));
            id += 1;
        }
        if twins && site % 3 == 0 {
            items.push(Item::new(Rect::new(c, c), id - 1));
        }
    }
    items
}

fn tie_heavy_queries<const D: usize>(side: u32) -> Vec<Point<D>> {
    let mid = (side / 2) as f64;
    vec![
        Point::new([0.0; D]),
        Point::new([mid; D]),
        Point::new([mid + 0.5; D]),
        Point::new(std::array::from_fn(
            |d| if d == 0 { mid + 0.5 } else { mid },
        )),
        Point::new([side as f64 + 3.0; D]),
    ]
}

/// Every loader on coincident points, first with distinct ids and then
/// with bit-identical twins (same rectangle, same id).
fn check_tie_heavy<const D: usize>(side: u32, copies: u32, ks: &[usize]) {
    let runs = [false, true]
        .into_iter()
        .flat_map(|twins| LoaderKind::all().map(|kind| (kind, twins)));
    for (kind, twins) in runs {
        let items = tie_heavy::<D>(side, copies, twins);
        let tree = build(kind, &items);
        let oracle = ReferenceEngine::new(&tree).expect("oracle");
        for (pi, p) in tie_heavy_queries::<D>(side).iter().enumerate() {
            for &k in ks {
                let label = format!("{}/{D}-D ties twins={twins} p{pi}", kind.name());
                assert_knn_matches(&tree, &oracle, p, k, &label);
            }
        }
    }
}

#[test]
fn tie_heavy_knn_matches_the_scalar_reference_2d() {
    // Groups of 4 or 5 coincident points; k from inside the first group
    // to past several rings of equidistant sites, and past the size.
    check_tie_heavy::<2>(12, 4, &[1, 3, 4, 5, 6, 9, 17, 20, 41, 100, 700]);
}

#[test]
fn tie_heavy_knn_matches_the_scalar_reference_3d() {
    check_tie_heavy::<3>(5, 3, &[1, 2, 3, 4, 7, 19, 25, 60, 500]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Random rectangles, random loader, random windows: the engines
    /// stay bit-identical on arbitrary inputs, not just the curated
    /// datasets above.
    #[test]
    fn engines_agree_on_arbitrary_inputs(
        raw in prop::collection::vec(
            (-50.0..50.0f64, -50.0..50.0f64, 0.0..10.0f64, 0.0..10.0f64),
            1..400,
        ),
        loader_idx in 0usize..5,
        qx in -60.0..60.0f64,
        qy in -60.0..60.0f64,
        qw in 0.0..40.0f64,
        qh in 0.0..40.0f64,
    ) {
        let items: Vec<Item<2>> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, w, h))| Item::new(Rect::xyxy(x, y, x + w, y + h), i as u32))
            .collect();
        let kind = LoaderKind::all()[loader_idx];
        let tree = build(kind, &items);
        let oracle = ReferenceEngine::new(&tree).expect("oracle");
        let q = Rect::xyxy(qx, qy, qx + qw, qy + qh);
        let (want, want_stats) = oracle.window_with_stats(&q).expect("oracle");
        let (got, got_stats) = tree.window_with_stats(&q).expect("window");
        prop_assert_eq!(got, want);
        prop_assert_eq!(got_stats, want_stats);
        let p = Point::new([qx, qy]);
        let (want_nn, want_nn_stats) = oracle.nearest_neighbors_with_stats(&p, 9).expect("oracle");
        let (got_nn, got_nn_stats) = tree.nearest_neighbors_with_stats(&p, 9).expect("knn");
        prop_assert_eq!(got_nn, want_nn);
        prop_assert_eq!(got_nn_stats, want_nn_stats);
    }
}
