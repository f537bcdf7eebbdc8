//! Behavioral regression tests for the dynamized (LPR) tree, focused on
//! the tombstone-accounting corner cases the id-keyed implementation got
//! wrong: delete-then-reinsert of the same item id must not let a stale
//! tombstone shadow the new item, reject its deletion, or skew the
//! compaction trigger.

use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Point, Rect};
use pr_tree::dynamic::LprTree;
use pr_tree::query::brute_force_window;
use pr_tree::{QueryScratch, TreeParams};
use std::sync::Arc;

fn everything() -> Rect<2> {
    Rect::xyxy(-1000.0, -1000.0, 1000.0, 1000.0)
}

fn make(buffer_cap: usize) -> LprTree<2> {
    let params = TreeParams::with_cap::<2>(8);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    LprTree::new(dev, params, buffer_cap)
}

fn item(id: u32, x: f64) -> Item<2> {
    Item::new(Rect::xyxy(x, 0.0, x + 1.0, 1.0), id)
}

/// Pushes enough disposable items to force the buffer into components.
fn drain_buffer(t: &mut LprTree<2>, pad_base: u32) {
    let mut pad = pad_base;
    while {
        let (got, _) = t.window(&everything()).unwrap();
        got.len() as u64 != t.len() || t.num_components() == 0
    } {
        t.insert(item(pad, 500.0)).unwrap();
        pad += 1;
        if pad - pad_base > 64 {
            break;
        }
    }
}

/// The original bug: delete an item stored in a component, then reinsert
/// the same id with a *different* rectangle. The stale id-keyed
/// tombstone used to shadow the reinserted item once it was flushed into
/// a component.
#[test]
fn delete_then_reinsert_same_id_different_rect() {
    let mut t = make(4);
    for id in 0..8 {
        t.insert(item(id, id as f64 * 10.0)).unwrap();
    }
    // id 0 now lives in a component (cap 4 ⇒ at least one flush).
    assert!(t.num_components() >= 1);
    assert!(t.delete(&item(0, 0.0)).unwrap());
    // Reinsert id 0 elsewhere, then force it into a component too.
    let reborn = item(0, 77.0);
    t.insert(reborn).unwrap();
    for id in 100..108 {
        t.insert(item(id, id as f64)).unwrap();
    }
    let (got, _) = t.window(&Rect::xyxy(76.0, 0.0, 79.0, 1.0)).unwrap();
    assert_eq!(got, vec![reborn], "reinserted id 0 shadowed by tombstone");
    // The old rectangle really is gone.
    let (gone, _) = t.window(&Rect::xyxy(0.0, 0.0, 1.5, 1.0)).unwrap();
    assert!(gone.iter().all(|i| i.id != 0), "dead copy resurrected");
    // And the reborn item is deletable (the id-keyed set said "already
    // dead" here).
    assert!(t.delete(&reborn).unwrap(), "reinserted item not deletable");
    assert!(!t.delete(&reborn).unwrap());
}

/// The aliased case: delete and reinsert a bit-identical item. One dead
/// and one live copy of the same (id, rect) can coexist in different
/// components; queries must report exactly one.
#[test]
fn delete_then_reinsert_identical_item() {
    let mut t = make(4);
    let x = item(3, 30.0);
    for id in 0..8 {
        t.insert(item(id, id as f64 * 10.0)).unwrap();
    }
    assert!(t.delete(&x).unwrap());
    t.insert(x).unwrap();
    // Flush the reborn copy into a component; the dead copy may sit in a
    // different (larger) component.
    for id in 200..216 {
        t.insert(item(id, 300.0 + id as f64)).unwrap();
    }
    let (got, _) = t.window(&Rect::xyxy(29.0, 0.0, 32.0, 1.0)).unwrap();
    assert_eq!(got, vec![x], "want exactly one copy, got {got:?}");
    assert_eq!(t.len(), 8 + 16);
    // Deleting it again succeeds exactly once.
    assert!(t.delete(&x).unwrap());
    assert!(!t.delete(&x).unwrap());
    let (got, _) = t.window(&Rect::xyxy(29.0, 0.0, 32.0, 1.0)).unwrap();
    assert!(got.is_empty(), "both copies should now be dead: {got:?}");
}

/// Compaction accounting under delete/reinsert churn: `len()`, the
/// window results, and the brute-force oracle must agree at every step.
#[test]
fn churn_on_one_id_matches_oracle() {
    let mut t = make(4);
    let mut oracle: Vec<Item<2>> = Vec::new();
    for id in 0..12 {
        let it = item(id, id as f64 * 5.0);
        t.insert(it).unwrap();
        oracle.push(it);
    }
    // Hammer a single id through delete/reinsert cycles at shifting
    // positions while other ids pad the components.
    for round in 0..40u32 {
        let victim = oracle
            .iter()
            .position(|i| i.id == 5)
            .map(|p| oracle.swap_remove(p));
        if let Some(v) = victim {
            assert!(t.delete(&v).unwrap(), "round {round}: delete failed");
        }
        let reborn = item(5, (round % 7) as f64 * 11.0);
        t.insert(reborn).unwrap();
        oracle.push(reborn);
        let pad = item(1000 + round, 900.0);
        t.insert(pad).unwrap();
        oracle.push(pad);

        assert_eq!(t.len(), oracle.len() as u64, "round {round}: len drifted");
        let (mut got, _) = t.window(&everything()).unwrap();
        let mut want = brute_force_window(&oracle, &everything());
        got.sort_by(|a, b| {
            (a.id, a.rect.lo_at(0).to_bits()).cmp(&(b.id, b.rect.lo_at(0).to_bits()))
        });
        want.sort_by(|a, b| {
            (a.id, a.rect.lo_at(0).to_bits()).cmp(&(b.id, b.rect.lo_at(0).to_bits()))
        });
        assert_eq!(got, want, "round {round}");
    }
}

/// The decode-free fan-out path: a shared scratch threaded through every
/// component gives results identical to the allocating convenience
/// wrapper, and k-NN agrees with a brute-force oracle after deletes.
#[test]
fn scratch_reuse_and_knn_match_oracle() {
    let mut t = make(8);
    let mut oracle = Vec::new();
    for id in 0..120 {
        let it = item(id, (id as f64 * 7.3) % 100.0);
        t.insert(it).unwrap();
        oracle.push(it);
    }
    for it in oracle.clone().iter().step_by(3) {
        assert!(t.delete(it).unwrap());
    }
    oracle = oracle
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, it)| *it)
        .collect();

    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    for q in [
        Rect::xyxy(0.0, 0.0, 25.0, 1.0),
        Rect::xyxy(30.0, 0.0, 60.0, 1.0),
        everything(),
    ] {
        t.window_into(&q, &mut scratch, &mut out).unwrap();
        let mut got = out.clone();
        let (mut plain, _) = t.window(&q).unwrap();
        let mut want = brute_force_window(&oracle, &q);
        got.sort_by_key(|i| i.id);
        plain.sort_by_key(|i| i.id);
        want.sort_by_key(|i| i.id);
        assert_eq!(got, want);
        assert_eq!(plain, want);
    }

    // k-NN: distances must match a scan over the live oracle.
    let q = Point::new([50.0, 0.5]);
    let mut nn = Vec::new();
    t.nearest_neighbors_into(&q, 10, &mut scratch, &mut nn)
        .unwrap();
    assert_eq!(nn.len(), 10);
    let mut want: Vec<(u32, f64)> = oracle
        .iter()
        .map(|i| (i.id, i.rect.min_dist2(&q).sqrt()))
        .collect();
    want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let got: Vec<(u32, f64)> = nn.iter().map(|(i, d)| (i.id, *d)).collect();
    assert_eq!(got, want[..10].to_vec());
    // Distances are non-decreasing.
    assert!(nn.windows(2).all(|w| w[0].1 <= w[1].1));
}

/// Tombstone-aware k-NN: with heavy tombstones the best-first loop
/// filters dead heads in place instead of over-fetching every component
/// by the outstanding tombstone count. Pins both the answer (oracle
/// over survivors) and the leaf-visit count — the over-fetch
/// implementation had to materialize `k + tombstones` items per
/// component, a hard lower bound on its leaf reads that the filtered
/// traversal must beat decisively.
#[test]
fn tombstone_aware_knn_visits_few_leaves() {
    let cap = 16;
    let mut t = make(cap);
    let mut all = Vec::new();
    // 512 items on a deterministic pseudo-grid; multiples of the buffer
    // cap, so every item ends up inside a component (empty buffer).
    for id in 0..512u32 {
        let it = item(id, (id as f64 * 13.37) % 400.0);
        t.insert(it).unwrap();
        all.push(it);
    }
    // Kill just under half — heavy, but below the 50% compaction
    // trigger, so the tombstones stay outstanding.
    let mut survivors = Vec::new();
    let mut dead = 0u64;
    for (i, it) in all.iter().enumerate() {
        if i % 2 == 0 && dead * 2 + 2 <= 512 - 32 {
            assert!(t.delete(it).unwrap(), "missing {it:?}");
            dead += 1;
        } else {
            survivors.push(*it);
        }
    }
    assert!(
        t.num_tombstones() >= 200,
        "setup: wanted heavy tombstones, got {}",
        t.num_tombstones()
    );

    let k = 10usize;
    let q = Point::new([200.0, 0.5]);
    let mut scratch = QueryScratch::new();
    let mut nn = Vec::new();
    let stats = t
        .nearest_neighbors_into(&q, k, &mut scratch, &mut nn)
        .unwrap();

    // Exact answer: distances and (dist, id) order match the oracle.
    let mut want: Vec<(u32, f64)> = survivors
        .iter()
        .map(|i| (i.id, i.rect.min_dist2(&q).sqrt()))
        .collect();
    want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let got: Vec<(u32, f64)> = nn.iter().map(|(i, d)| (i.id, *d)).collect();
    assert_eq!(got, want[..k].to_vec());

    // The pin: the old over-fetch had to pull k + tombstones items out
    // of every non-empty component, i.e. at least
    // ceil((k + tombstones) / leaf_cap) leaves per component (more in
    // practice). The filtered traversal must come in well under that
    // floor — and under a flat fraction of all leaves.
    let leaf_cap = 8u64; // `make` builds with TreeParams::with_cap::<2>(8)
    let overfetch_floor =
        (k as u64 + t.num_tombstones()).div_ceil(leaf_cap) * t.num_components() as u64;
    assert!(
        stats.leaves_visited * 2 < overfetch_floor,
        "visited {} leaves; over-fetch floor was {overfetch_floor}",
        stats.leaves_visited
    );
}

/// Ensures `drain_buffer` (and thus the other tests' setup) really does
/// place items into components rather than silently looping forever.
#[test]
fn drain_buffer_helper_flushes() {
    let mut t = make(4);
    for id in 0..4 {
        t.insert(item(id, id as f64)).unwrap();
    }
    drain_buffer(&mut t, 9000);
    assert!(t.num_components() >= 1);
}

/// Brute-force k-NN over a multiset of live items, in the k-NN total
/// order (squared distance, id, coordinate bits) — written out here
/// rather than borrowed from the engine, so the test pins the order.
fn brute_knn(live: &[Item<2>], q: &Point<2>, k: usize) -> Vec<(Item<2>, f64)> {
    let bits = |i: &Item<2>| {
        [
            i.rect.lo_at(0).to_bits(),
            i.rect.lo_at(1).to_bits(),
            i.rect.hi_at(0).to_bits(),
            i.rect.hi_at(1).to_bits(),
        ]
    };
    let mut all: Vec<(Item<2>, f64)> = live.iter().map(|i| (*i, i.rect.min_dist2(q))).collect();
    all.sort_by(|a, b| {
        a.1.total_cmp(&b.1)
            .then(a.0.id.cmp(&b.0.id))
            .then(bits(&a.0).cmp(&bits(&b.0)))
    });
    all.truncate(k);
    all.into_iter().map(|(i, d2)| (i, d2.sqrt())).collect()
}

/// Coincident sites: ids `i` and `i + 100` share a point, so queries
/// see tie groups at every distance.
fn site(id: u32) -> Item<2> {
    let s = id % 100;
    let (x, y) = ((s % 10) as f64 * 3.0, (s / 10) as f64 * 3.0);
    Item::new(Rect::xyxy(x, y, x, y), id)
}

/// Every query point × k of the multiset tests, against the oracle.
fn assert_knn_matches_oracle(t: &LprTree<2>, live: &[Item<2>]) {
    let mut scratch = QueryScratch::new();
    let mut nn = Vec::new();
    for q in [
        Point::new([0.0, 0.0]),
        Point::new([12.0, 12.0]),
        Point::new([13.5, 7.5]),
        Point::new([27.0, 0.0]),
        Point::new([40.0, 40.0]),
    ] {
        for k in [1usize, 2, 3, 7, 16, 33, 400] {
            t.nearest_neighbors_into(&q, k, &mut scratch, &mut nn)
                .unwrap();
            let want = brute_knn(live, &q, k);
            assert_eq!(nn.len(), want.len(), "q={q:?} k={k}");
            for (g, w) in nn.iter().zip(&want) {
                assert_eq!(g.0, w.0, "q={q:?} k={k}: item");
                assert_eq!(g.1.to_bits(), w.1.to_bits(), "q={q:?} k={k}: distance");
            }
        }
    }
}

/// k-NN over ≥ 3 components with tombstones in several of them and
/// re-inserted duplicates — a dead and a live copy of one `(id, rect)`
/// key in different components, and keys deleted twice — must equal a
/// brute-force multiset oracle exactly: items, order and distance bits.
/// The bounded search carries each component's k-th distance into the
/// next one, so this pins that pruning never drops a live neighbor nor
/// lets a dead copy through.
#[test]
fn knn_matches_multiset_oracle_across_components() {
    let mut t = make(8);
    let mut live: Vec<Item<2>> = Vec::new();
    let insert = |t: &mut LprTree<2>, live: &mut Vec<Item<2>>, it: Item<2>| {
        t.insert(it).unwrap();
        live.push(it);
    };
    let delete = |t: &mut LprTree<2>, live: &mut Vec<Item<2>>, it: Item<2>| {
        assert!(t.delete(&it).unwrap(), "missing {it:?}");
        let pos = live.iter().position(|l| *l == it).unwrap();
        live.swap_remove(pos);
    };
    for id in 0..300 {
        insert(&mut t, &mut live, site(id));
    }
    // No tombstones yet: the components run with the max-dist bound.
    assert!(t.num_components() >= 3, "{} components", t.num_components());
    assert_knn_matches_oracle(&t, &live);
    // Deletes spread over the old (large) and recent components.
    for id in (0..300).step_by(9) {
        delete(&mut t, &mut live, site(id));
    }
    // Identical re-inserts: a live copy beside a tombstoned one.
    for id in (0..300).step_by(18) {
        insert(&mut t, &mut live, site(id));
    }
    // Delete a re-inserted key again (two tombstones, two stored
    // copies), then bring it back once more.
    for id in (0..300).step_by(36) {
        delete(&mut t, &mut live, site(id));
    }
    for id in (0..300).step_by(72) {
        insert(&mut t, &mut live, site(id));
    }
    assert!(t.num_components() >= 3, "{} components", t.num_components());
    assert!(
        t.num_tombstones() >= 10,
        "{} tombstones",
        t.num_tombstones()
    );
    assert_eq!(t.len(), live.len() as u64);

    assert_knn_matches_oracle(&t, &live);
}
