//! Concurrent-read correctness for the pinned-node runtime.
//!
//! The refactor's contract: any number of threads may query one
//! `&RTree` concurrently, and neither results nor the exact I/O / cache
//! accounting may differ from a serial run. These tests pin that down
//! against `brute_force_window` ground truth.

use prtree::prelude::*;
use prtree::tree::query::brute_force_window;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn random_items(n: u32, seed: u64) -> Vec<Item<2>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let x: f64 = rng.gen_range(0.0..100.0);
            let y: f64 = rng.gen_range(0.0..100.0);
            let w: f64 = rng.gen_range(0.0..3.0);
            let h: f64 = rng.gen_range(0.0..3.0);
            Item::new(Rect::xyxy(x, y, x + w, y + h), i)
        })
        .collect()
}

fn random_windows(n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x: f64 = rng.gen_range(0.0..90.0);
            let y: f64 = rng.gen_range(0.0..90.0);
            let w: f64 = rng.gen_range(0.5..10.0);
            let h: f64 = rng.gen_range(0.5..10.0);
            Rect::xyxy(x, y, x + w, y + h)
        })
        .collect()
}

fn build(items: &[Item<2>]) -> RTree<2> {
    let params = TreeParams::with_cap::<2>(16);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    PrTreeLoader::default()
        .load(dev, params, items.to_vec())
        .unwrap()
}

fn sorted_ids(items: &[Item<2>]) -> Vec<u32> {
    let mut ids: Vec<u32> = items.iter().map(|i| i.id).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn n_threads_of_random_windows_match_brute_force() {
    let items = random_items(4_000, 21);
    let tree = build(&items);
    tree.warm_cache().unwrap();
    let windows = random_windows(64, 22);

    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let tree = &tree;
            let items = &items;
            let windows = &windows;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(100 + t);
                for _ in 0..40 {
                    let q = &windows[rng.gen_range(0..windows.len())];
                    let got = tree.window(q).unwrap();
                    let want = brute_force_window(items, q);
                    assert_eq!(sorted_ids(&got), sorted_ids(&want), "window {q:?}");
                }
            });
        }
    });
}

#[test]
fn par_windows_matches_serial_results_and_leaf_ios() {
    let items = random_items(6_000, 31);
    let tree = build(&items);
    tree.warm_cache().unwrap();
    let windows = random_windows(200, 32);

    let serial: Vec<_> = windows
        .iter()
        .map(|q| tree.window_with_stats(q).unwrap())
        .collect();

    for threads in [1, 2, 4, 8] {
        let parallel = tree.par_windows(&windows, threads).unwrap();
        assert_eq!(parallel.len(), serial.len());
        for (i, ((pr, ps), (sr, ss))) in parallel.iter().zip(&serial).enumerate() {
            assert_eq!(
                sorted_ids(pr),
                sorted_ids(sr),
                "query {i} results differ at {threads} threads"
            );
            assert_eq!(
                ps, ss,
                "query {i} stats differ at {threads} threads (incl. leaf I/Os)"
            );
        }
    }
}

#[test]
fn concurrent_cache_totals_match_serial_run() {
    let items = random_items(5_000, 41);
    let windows = random_windows(96, 42);

    // Serial reference: fresh tree, warm cache, run all windows once.
    let serial_tree = build(&items);
    serial_tree.warm_cache().unwrap();
    let warm_baseline = serial_tree.cache_stats();
    for q in &windows {
        serial_tree.window(q).unwrap();
    }
    let (sh, sm) = serial_tree.cache_stats();
    let serial_delta = (sh - warm_baseline.0, sm - warm_baseline.1);

    // Concurrent run over an identically built tree: same windows, all
    // threads at once via par_windows.
    let par_tree = build(&items);
    par_tree.warm_cache().unwrap();
    let par_baseline = par_tree.cache_stats();
    assert_eq!(
        par_baseline, warm_baseline,
        "identical builds warm identically"
    );
    par_tree.par_windows(&windows, 8).unwrap();
    let (ph, pm) = par_tree.cache_stats();
    let par_delta = (ph - par_baseline.0, pm - par_baseline.1);

    assert_eq!(
        par_delta, serial_delta,
        "hit/miss totals must be exact under concurrency"
    );
}

#[test]
fn par_windows_handles_edge_batches() {
    let items = random_items(500, 51);
    let tree = build(&items);
    tree.warm_cache().unwrap();

    // Empty batch.
    assert!(tree.par_windows(&[], 4).unwrap().is_empty());

    // More threads than queries.
    let one = vec![Rect::xyxy(10.0, 10.0, 20.0, 20.0)];
    let got = tree.par_windows(&one, 16).unwrap();
    assert_eq!(got.len(), 1);
    let (serial, serial_stats) = tree.window_with_stats(&one[0]).unwrap();
    assert_eq!(sorted_ids(&got[0].0), sorted_ids(&serial));
    assert_eq!(got[0].1, serial_stats);

    // threads = 0 → auto (available parallelism).
    let windows = random_windows(10, 52);
    let auto = tree.par_windows(&windows, 0).unwrap();
    assert_eq!(auto.len(), windows.len());
}

#[test]
fn concurrent_knn_agrees_with_serial() {
    let items = random_items(3_000, 61);
    let tree = build(&items);
    tree.warm_cache().unwrap();

    let serial: Vec<Vec<u32>> = (0..16)
        .map(|i| {
            let p = Point::new([(i * 6) as f64, (i * 5) as f64]);
            tree.nearest_neighbors(&p, 10)
                .unwrap()
                .iter()
                .map(|(it, _)| it.id)
                .collect()
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let tree = &tree;
            let serial = &serial;
            scope.spawn(move || {
                for (i, want) in serial.iter().enumerate() {
                    let p = Point::new([(i * 6) as f64, (i * 5) as f64]);
                    let got: Vec<u32> = tree
                        .nearest_neighbors(&p, 10)
                        .unwrap()
                        .iter()
                        .map(|(it, _)| it.id)
                        .collect();
                    assert_eq!(&got, want, "thread {t} query {i}");
                }
            });
        }
    });
}

#[test]
fn uncached_concurrent_queries_still_correct() {
    // Fresh, unwarmed handles: internal nodes are read from the device
    // and pinned lazily, copy-on-write, while other threads still hold
    // snapshots. Answers must stay exact and every node visit must
    // count exactly once.
    let items = random_items(2_000, 71);
    let built = build(&items);
    let fresh = || RTree::<2>::from_parts(Arc::clone(built.device()), built.meta()).unwrap();
    let windows = random_windows(32, 72);

    let serial_tree = fresh();
    let serial: Vec<(Vec<u32>, QueryStats)> = windows
        .iter()
        .map(|q| {
            let (hits, stats) = serial_tree.window_with_stats(q).unwrap();
            (sorted_ids(&hits), stats)
        })
        .collect();
    let visits: u64 = serial.iter().map(|(_, s)| s.nodes_visited).sum();

    let tree = fresh();
    let parallel = tree.par_windows(&windows, 6).unwrap();
    for (i, (pr, ps)) in parallel.iter().enumerate() {
        assert_eq!(sorted_ids(pr), serial[i].0, "query {i}");
        assert_eq!(ps.leaves_visited, serial[i].1.leaves_visited);
    }
    let (h, m) = tree.cache_stats();
    assert_eq!(h + m, visits, "hits + misses equal the serial node visits");
}
