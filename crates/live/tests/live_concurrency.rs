//! Concurrency proofs: readers racing active ingest, merges, and
//! compaction always see a **consistent op-boundary cut** whose contents
//! equal a serial brute-force oracle, and a snapshot once taken is
//! frozen forever.
//!
//! The key invariant exploited: the writer applies a deterministic
//! workload, so every reachable cut has a closed-form oracle. Insert-only
//! workloads: a snapshot must contain *exactly* the items `0..k` for
//! some `k` (no holes — nothing torn; no future items). Mixed
//! workloads: the cut is identified by the live-id multiset and checked
//! item-for-item against the oracle's history.

use pr_geom::{Item, Point, Rect};
use pr_live::{LiveIndex, LiveOptions, LiveSnapshot};
use pr_tree::{QueryScratch, TreeParams};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("pr-live-conc-{}", std::process::id()))
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn params() -> TreeParams {
    TreeParams::with_cap::<2>(8)
}

fn item(i: u32) -> Item<2> {
    let x = (i as f64 * 37.0) % 1000.0;
    let y = (i as f64 * 61.0) % 1000.0;
    Item::new(Rect::xyxy(x, y, x + 1.0, y + 1.0), i)
}

fn everything() -> Rect<2> {
    Rect::xyxy(-10.0, -10.0, 1010.0, 1010.0)
}

/// Readers hammer snapshots while a writer inserts `0..n` in order
/// (merges — inline or background — constantly in flight). Every
/// snapshot must be an exact prefix `{0..k}`, bounded by what was
/// acknowledged around the time it was taken, and identical to the
/// serial brute-force oracle over those k items.
fn insert_only_prefix_invariant(name: &str, background: bool) {
    let dir = tmpdir(name);
    let n: u32 = 2000;
    let opts = LiveOptions {
        buffer_cap: 64,
        background_merge: background,
        backpressure_factor: 4,
        ..LiveOptions::default()
    };
    let ix = LiveIndex::<2>::create(&dir, params(), opts).unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let ix = &ix;
        let done = &done;
        s.spawn(move || {
            for i in 0..n {
                ix.insert(item(i)).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        for reader in 0..3 {
            s.spawn(move || {
                let mut scratch = QueryScratch::new();
                let mut out = Vec::new();
                let mut seen_nonempty = false;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let low = ix.len(); // acked before the snapshot
                    let snap = ix.snapshot();
                    let high = ix.len(); // acked after the snapshot
                    snap.window_into(&everything(), &mut scratch, &mut out)
                        .unwrap();
                    let k = snap.len();
                    assert!(
                        (low..=high).contains(&k),
                        "reader {reader}: snapshot len {k} outside [{low}, {high}]"
                    );
                    let mut ids: Vec<u32> = out.iter().map(|i| i.id).collect();
                    ids.sort_unstable();
                    let want_ids: Vec<u32> = (0..k as u32).collect();
                    assert_eq!(
                        ids, want_ids,
                        "reader {reader}: snapshot is not an exact prefix"
                    );
                    // Contents match the oracle item-for-item.
                    for it in &out {
                        assert_eq!(*it, item(it.id), "reader {reader}: item bits differ");
                    }
                    // A sub-window agrees with brute force over the prefix.
                    let q = Rect::xyxy(100.0, 100.0, 400.0, 400.0);
                    let got = snap.window(&q).unwrap();
                    let oracle: Vec<Item<2>> = (0..k as u32)
                        .map(item)
                        .filter(|i| i.rect.intersects(&q))
                        .collect();
                    let mut got_ids: Vec<u32> = got.iter().map(|i| i.id).collect();
                    let mut want: Vec<u32> = oracle.iter().map(|i| i.id).collect();
                    got_ids.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got_ids, want, "reader {reader}: window vs oracle");
                    seen_nonempty |= k > 0;
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
                assert!(seen_nonempty, "reader {reader} never saw data");
            });
        }
    });
    ix.wait_idle().unwrap();
    // Final state: all n items, through queries and through k-NN.
    let snap = ix.snapshot();
    assert_eq!(snap.len(), n as u64);
    let stats = ix.stats().unwrap();
    assert!(stats.merges >= 1, "workload must have exercised merges");
    let (nn, _) = ix
        .nearest_neighbors(&Point::new([500.0, 500.0]), 10)
        .unwrap();
    assert_eq!(nn.len(), 10);
    assert!(nn.windows(2).all(|w| w[0].1 <= w[1].1));
}

#[test]
fn concurrent_readers_see_exact_prefixes_inline_merges() {
    insert_only_prefix_invariant("prefix-inline", false);
}

#[test]
fn concurrent_readers_see_exact_prefixes_background_merges() {
    insert_only_prefix_invariant("prefix-background", true);
}

/// Mixed insert/delete workload with background merges: the *writer*
/// verifies full oracle equality at every step (serial correctness
/// while merges race underneath), and concurrent readers verify
/// structural consistency (no duplicates, no foreign items, no dead
/// items older than the snapshot allows).
#[test]
fn mixed_ops_match_oracle_with_concurrent_readers() {
    let dir = tmpdir("mixed");
    let opts = LiveOptions {
        buffer_cap: 48,
        background_merge: true,
        backpressure_factor: 4,
        ..LiveOptions::default()
    };
    let ix = LiveIndex::<2>::create(&dir, params(), opts).unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let ix = &ix;
        let done = &done;
        s.spawn(move || {
            let mut oracle: Vec<Item<2>> = Vec::new();
            let mut scratch = QueryScratch::new();
            let mut out = Vec::new();
            for k in 0..1200u32 {
                // Deterministic mixed workload: every 3rd op deletes the
                // oldest survivor.
                if k % 3 == 2 && !oracle.is_empty() {
                    let victim = oracle.remove(0);
                    assert!(ix.delete(&victim).unwrap(), "op {k}");
                } else {
                    ix.insert(item(k)).unwrap();
                    oracle.push(item(k));
                }
                if k % 50 == 49 {
                    let snap = ix.snapshot();
                    snap.window_into(&everything(), &mut scratch, &mut out)
                        .unwrap();
                    let mut got: Vec<u32> = out.iter().map(|i| i.id).collect();
                    let mut want: Vec<u32> = oracle.iter().map(|i| i.id).collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "writer-side oracle check at op {k}");
                }
            }
            done.store(true, Ordering::Release);
        });
        for reader in 0..2 {
            s.spawn(move || {
                let mut scratch = QueryScratch::new();
                let mut out = Vec::new();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let snap = ix.snapshot();
                    snap.window_into(&everything(), &mut scratch, &mut out)
                        .unwrap();
                    assert_eq!(out.len() as u64, snap.len(), "reader {reader}: count");
                    let mut ids: Vec<u32> = out.iter().map(|i| i.id).collect();
                    ids.sort_unstable();
                    let unique_before = ids.len();
                    ids.dedup();
                    assert_eq!(ids.len(), unique_before, "reader {reader}: duplicate ids");
                    for it in &out {
                        assert_eq!(*it, item(it.id), "reader {reader}: foreign item");
                    }
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }
    });
    ix.wait_idle().unwrap();
    assert!(ix.stats().unwrap().merges >= 1);
}

/// A snapshot is pinned: its results never change, even across further
/// ingest, merges, and a full compaction that rewrites (and unlinks)
/// the store file underneath it.
#[test]
fn snapshot_stays_frozen_across_merges_and_compaction() {
    let dir = tmpdir("pinned");
    let opts = LiveOptions {
        buffer_cap: 32,
        background_merge: false,
        backpressure_factor: 4,
        ..LiveOptions::default()
    };
    let ix = LiveIndex::<2>::create(&dir, params(), opts).unwrap();
    for i in 0..300 {
        ix.insert(item(i)).unwrap();
    }
    let snap: LiveSnapshot<2> = ix.snapshot();
    let q = Rect::xyxy(0.0, 0.0, 600.0, 600.0);
    let baseline = snap.window(&q).unwrap();
    let baseline_len = snap.len();

    // Mutate heavily: more inserts, deletes, merges, then a compaction
    // that replaces the store file wholesale.
    for i in 300..900 {
        ix.insert(item(i)).unwrap();
    }
    for i in (0..300).step_by(2) {
        assert!(ix.delete(&item(i)).unwrap());
    }
    ix.compact().unwrap();

    // The old snapshot still answers from its pinned world.
    assert_eq!(snap.len(), baseline_len);
    let again = snap.window(&q).unwrap();
    assert_eq!(again, baseline, "snapshot results drifted");

    // And a fresh snapshot sees the new world.
    let fresh = ix.snapshot();
    assert_eq!(fresh.len(), 900 - 150);
}

/// k-NN on a live snapshot matches a brute-force oracle while merges
/// run (deletes included).
#[test]
fn knn_matches_oracle_after_churn() {
    let dir = tmpdir("knn");
    let opts = LiveOptions {
        buffer_cap: 16,
        background_merge: false,
        backpressure_factor: 4,
        ..LiveOptions::default()
    };
    let ix = LiveIndex::<2>::create(&dir, params(), opts).unwrap();
    let mut oracle = Vec::new();
    for i in 0..400u32 {
        ix.insert(item(i)).unwrap();
        oracle.push(item(i));
    }
    for i in (0..400u32).step_by(3) {
        assert!(ix.delete(&item(i)).unwrap());
        oracle.retain(|it| it.id != i);
    }
    let q = Point::new([321.0, 456.0]);
    let (got, _) = ix.nearest_neighbors(&q, 15).unwrap();
    let mut want: Vec<(u32, f64)> = oracle
        .iter()
        .map(|i| (i.id, i.rect.min_dist2(&q).sqrt()))
        .collect();
    want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let got_pairs: Vec<(u32, f64)> = got.iter().map(|(i, d)| (i.id, *d)).collect();
    assert_eq!(got_pairs, want[..15].to_vec());
}

/// Brute-force k-NN over a multiset of live items, in the k-NN total
/// order (squared distance, id, coordinate bits).
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

/// Every query point × k of the multiset test, against the oracle.
fn assert_knn_matches_oracle(snap: &LiveSnapshot<2>, live: &[Item<2>]) {
    assert_eq!(snap.len(), live.len() as u64);
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
            snap.nearest_neighbors_into(&q, k, &mut scratch, &mut nn)
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

/// k-NN on a snapshot spanning memtable and ≥ 3 components, with
/// tombstones in several components and re-inserted duplicates (a dead
/// and a live copy of one `(id, rect)` key, keys deleted twice), equals
/// a brute-force multiset oracle exactly: items, order and distance
/// bits. Ids `i` and `i + 100` share a point, so every query meets tie
/// groups; the bounded search carries the k-th distance from memtable
/// to component to component, and must neither drop a live neighbor
/// nor admit a dead copy.
#[test]
fn knn_matches_multiset_oracle_with_duplicates_and_tombstones() {
    let dir = tmpdir("knn-multiset");
    let opts = LiveOptions {
        buffer_cap: 16,
        background_merge: false,
        backpressure_factor: 4,
        ..LiveOptions::default()
    };
    let ix = LiveIndex::<2>::create(&dir, params(), opts).unwrap();
    let site = |id: u32| {
        let s = id % 100;
        let (x, y) = ((s % 10) as f64 * 3.0, (s / 10) as f64 * 3.0);
        Item::new(Rect::xyxy(x, y, x, y), id)
    };
    let mut live: Vec<Item<2>> = Vec::new();
    let insert = |live: &mut Vec<Item<2>>, it: Item<2>| {
        ix.insert(it).unwrap();
        live.push(it);
    };
    let delete = |live: &mut Vec<Item<2>>, it: Item<2>| {
        assert!(ix.delete(&it).unwrap(), "missing {it:?}");
        let pos = live.iter().position(|l| *l == it).unwrap();
        live.swap_remove(pos);
    };
    for id in 0..300 {
        insert(&mut live, site(id));
    }
    // No tombstones yet: the components run with the max-dist bound.
    let snap = ix.snapshot();
    assert!(
        snap.num_components() >= 2,
        "{} components",
        snap.num_components()
    );
    assert_knn_matches_oracle(&snap, &live);
    for id in (0..300).step_by(9) {
        delete(&mut live, site(id));
    }
    for id in (0..300).step_by(18) {
        insert(&mut live, site(id));
    }
    for id in (0..300).step_by(36) {
        delete(&mut live, site(id));
    }
    for id in (0..300).step_by(72) {
        insert(&mut live, site(id));
    }
    let snap = ix.snapshot();
    assert!(
        snap.num_components() >= 3,
        "{} components",
        snap.num_components()
    );
    let tombstones = ix.stats().unwrap().tombstones;
    assert!(tombstones >= 10, "{tombstones} tombstones");
    assert_knn_matches_oracle(&snap, &live);
}
