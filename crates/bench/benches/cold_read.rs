//! `cold_read`: store-backed repeated-query throughput across the three
//! read paths of `pr-store` — the acceptance benchmark of the zero-copy
//! read pipeline.
//!
//! Same tree, same store file, same queries; only the device read path
//! differs:
//!
//! * **recheck** ([`ReadPath::Recheck`]) — positioned `read_at` into a
//!   buffer plus a full CRC32 recompute on *every* leaf visit of every
//!   query: the pre-rework behavior, the baseline;
//! * **zero-copy** ([`ReadPath::ZeroCopy`]) — mmap'd snapshot served as
//!   borrowed slices, each page CRC-verified exactly once (shared
//!   verify-once bitmap), then free;
//! * **cached** — zero-copy plus the bounded shared
//!   [`pr_tree::LeafCache`]: repeat visits don't touch the device at
//!   all, they scan an already-transcoded SoA node.
//!
//! Before timing, a correctness gate runs **all five loaders** through
//! all three paths: results (order included) and traversal statistics —
//! leaves, internal visits, node visits, result counts — must be
//! bit-identical to the never-persisted in-memory tree, and the
//! device-read counts must show exactly what each path promises. Then
//! the timed passes write `BENCH_cold_read.json` with ns/query per path
//! and the headline speedups; the in-memory hot-path time rides along
//! so the "approaches hot_query" claim is checkable from the row.
//! Set `PRTREE_REQUIRE_COLD_SPEEDUP=1` to assert the ≥3× cached-vs-
//! recheck window speedup (opt-in, like the other rate gates: shared
//! runners throttle).

use criterion::{criterion_group, criterion_main, Criterion};
use pr_data::queries::square_queries;
use pr_data::uniform_points;
use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Point, Rect};
use pr_store::{ReadPath, Store};
use pr_tree::bulk::LoaderKind;
use pr_tree::{LeafCache, QueryScratch, RTree, TreeParams};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const N: u32 = 100_000;
const N_QUERIES: usize = 64;
const GATE_QUERIES: usize = 16;
const KNN_K: usize = 10;
/// Big enough to hold every leaf of the 100k tree (~3.6 MB of pages).
const LEAF_CACHE_BYTES: usize = 64 << 20;

fn store_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pr-bench-coldread-{}-{name}.prt",
        std::process::id()
    ))
}

fn build_mem(kind: LoaderKind, items: &[Item<2>]) -> RTree<2> {
    let params = TreeParams::paper_2d();
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = kind
        .loader::<2>()
        .load(dev, params, items.to_vec())
        .expect("bulk load");
    tree.warm_cache().expect("warm");
    tree
}

/// Reopens `store`'s tree on the given path, optionally with a fresh
/// leaf cache attached, internal nodes warmed.
fn reopen(store: &Store, path: ReadPath, cache_bytes: usize) -> RTree<2> {
    let mut tree = store.tree_with::<2>(path).expect("reopen");
    if cache_bytes > 0 {
        let cache = Arc::new(LeafCache::new(cache_bytes));
        let epoch = cache.register_epoch();
        tree.attach_leaf_cache(cache, epoch);
    }
    tree.warm_cache().expect("warm");
    tree
}

fn knn_points() -> Vec<Point<2>> {
    (0..N_QUERIES)
        .map(|i| {
            let f = (i as f64 + 0.5) / N_QUERIES as f64;
            Point::new([f, (f * 7.0) % 1.0])
        })
        .collect()
}

/// All five loaders × three read paths: identical results and traversal
/// stats vs the in-memory tree, with the promised device-read behavior.
fn correctness_gate(items: &[Item<2>], queries: &[Rect<2>]) {
    for kind in LoaderKind::all() {
        let mem = build_mem(kind, items);
        let path = store_path(&format!("gate-{}", kind.name()));
        let mut store = Store::create::<2>(&path, *mem.params()).expect("create");
        store.save(&mem).expect("save");

        let recheck = reopen(&store, ReadPath::Recheck, 0);
        let zero = reopen(&store, ReadPath::ZeroCopy, 0);
        let cached = reopen(&store, ReadPath::ZeroCopy, LEAF_CACHE_BYTES);
        for q in &queries[..GATE_QUERIES] {
            let (want, want_stats) = mem.window_with_stats(q).expect("mem window");
            for (name, tree) in [("recheck", &recheck), ("zero", &zero), ("cached", &cached)] {
                // Three passes: cold, second touch (the leaf cache
                // admits a page on its second touch), then repeat (the
                // cached path must serve it without device reads).
                for pass in 0..3 {
                    let (got, stats) = tree.window_with_stats(q).expect("store window");
                    assert_eq!(got, want, "{}/{name}: results differ", kind.name());
                    assert_eq!(
                        (
                            stats.nodes_visited,
                            stats.leaves_visited,
                            stats.internal_visited,
                            stats.results
                        ),
                        (
                            want_stats.nodes_visited,
                            want_stats.leaves_visited,
                            want_stats.internal_visited,
                            want_stats.results
                        ),
                        "{}/{name}: traversal stats differ",
                        kind.name()
                    );
                    match (name, pass) {
                        // Uncached paths read every leaf every time.
                        ("recheck", _) | ("zero", _) => assert_eq!(
                            stats.device_reads,
                            want_stats.leaves_visited,
                            "{}/{name} pass {pass}: device reads",
                            kind.name()
                        ),
                        // Cached first and second touch: every leaf visit
                        // is either a cache hit (overlapping earlier gate
                        // queries already admitted it) or one device read
                        // — the accounting must be exact.
                        ("cached", 0 | 1) => {
                            assert_eq!(stats.device_reads, stats.leaf_cache_misses);
                            assert_eq!(
                                stats.leaf_cache_hits + stats.leaf_cache_misses,
                                stats.leaves_visited
                            );
                        }
                        // Cached repeat: all leaf visits are cache hits.
                        ("cached", _) => {
                            assert_eq!(
                                stats.device_reads,
                                0,
                                "{}/cached repeat still reads the device",
                                kind.name()
                            );
                            assert_eq!(stats.leaf_cache_hits, stats.leaves_visited);
                        }
                        _ => unreachable!(),
                    }
                }
            }
        }
        // k-NN: identical neighbor lists and distances on every path.
        for p in knn_points().iter().take(8) {
            let (want, _) = mem.nearest_neighbors_with_stats(p, KNN_K).expect("mem knn");
            for (name, tree) in [("recheck", &recheck), ("zero", &zero), ("cached", &cached)] {
                let (got, _) = tree.nearest_neighbors_with_stats(p, KNN_K).expect("knn");
                assert_eq!(got, want, "{}/{name}: knn differs", kind.name());
            }
        }
        std::fs::remove_file(&path).ok();
    }
    println!(
        "cold_read gate: results + traversal stats identical across {:?} x \
         {{recheck, zero-copy, leaf-cached}}",
        LoaderKind::all().map(|k| k.name())
    );
}

/// Best-of-`reps` wall time of one full pass over the workload.
fn best_of(reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut sink = f(); // warm-up pass (populates caches, faults pages)
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        sink = sink.wrapping_add(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    criterion::black_box(sink);
    best
}

fn window_pass(tree: &RTree<2>, queries: &[Rect<2>], scratch: &mut QueryScratch<2>) -> u64 {
    let mut hits = Vec::new();
    let mut total = 0u64;
    for q in queries {
        tree.window_into(q, scratch, &mut hits).unwrap();
        total += hits.len() as u64;
    }
    total
}

fn knn_pass(tree: &RTree<2>, points: &[Point<2>], scratch: &mut QueryScratch<2>) -> u64 {
    let mut nn = Vec::new();
    let mut total = 0u64;
    for p in points {
        tree.nearest_neighbors_into(p, KNN_K, scratch, &mut nn)
            .unwrap();
        total += nn.len() as u64;
    }
    total
}

fn bench_cold_read(c: &mut Criterion) {
    let items = uniform_points(N, 7);
    let queries = square_queries(&Rect::xyxy(0.0, 0.0, 1.0, 1.0), 0.01, N_QUERIES, 11);
    correctness_gate(&items, &queries);

    let mem = build_mem(LoaderKind::Pr, &items);
    let path = store_path("timed");
    let mut store = Store::create::<2>(&path, *mem.params()).expect("create");
    store.save(&mem).expect("save");
    let recheck = reopen(&store, ReadPath::Recheck, 0);
    let zero = reopen(&store, ReadPath::ZeroCopy, 0);
    let cached = reopen(&store, ReadPath::ZeroCopy, LEAF_CACHE_BYTES);
    let points = knn_points();

    // Criterion groups (human-readable report).
    let mut group = c.benchmark_group("cold_window_1pct_uniform100k");
    group.sample_size(10);
    for (name, tree) in [
        ("recheck_every_read", &recheck),
        ("zero_copy_verify_once", &zero),
        ("zero_copy_leaf_cache", &cached),
    ] {
        let mut scratch = QueryScratch::new();
        group.bench_function(name, |b| {
            b.iter(|| window_pass(tree, &queries, &mut scratch))
        });
    }
    group.finish();

    // Machine-readable row (best-of-5 full passes per configuration).
    let mut scratch = QueryScratch::new();
    let win_recheck = best_of(5, || window_pass(&recheck, &queries, &mut scratch));
    let win_zero = best_of(5, || window_pass(&zero, &queries, &mut scratch));
    let win_cached = best_of(5, || window_pass(&cached, &queries, &mut scratch));
    let win_mem = best_of(5, || window_pass(&mem, &queries, &mut scratch));
    let knn_recheck = best_of(5, || knn_pass(&recheck, &points, &mut scratch));
    let knn_zero = best_of(5, || knn_pass(&zero, &points, &mut scratch));
    let knn_cached = best_of(5, || knn_pass(&cached, &points, &mut scratch));
    let knn_mem = best_of(5, || knn_pass(&mem, &points, &mut scratch));
    std::fs::remove_file(&path).ok();

    let per_q = |secs: f64| secs / N_QUERIES as f64 * 1e9;
    let mut obj = pr_obs::json::JsonObj::new();
    obj.u64("schema_version", pr_obs::SCHEMA_VERSION)
        .str("experiment", "cold_read")
        .str("dataset", "uniform")
        .u64("n", N as u64)
        .str("loader", "PR")
        .u64("queries", N_QUERIES as u64)
        .f64p("query_area_pct", 1.0, 1)
        .u64("knn_k", KNN_K as u64)
        .u64("leaf_cache_bytes", LEAF_CACHE_BYTES as u64)
        .f64p("window_recheck_ns_per_query", per_q(win_recheck), 0)
        .f64p("window_zero_copy_ns_per_query", per_q(win_zero), 0)
        .f64p("window_leaf_cache_ns_per_query", per_q(win_cached), 0)
        .f64p("window_in_memory_ns_per_query", per_q(win_mem), 0)
        .f64p("window_zero_copy_speedup", win_recheck / win_zero, 2)
        .f64p("window_leaf_cache_speedup", win_recheck / win_cached, 2)
        .f64p("window_leaf_cache_vs_in_memory", win_cached / win_mem, 2)
        .f64p("knn_recheck_ns_per_query", per_q(knn_recheck), 0)
        .f64p("knn_zero_copy_ns_per_query", per_q(knn_zero), 0)
        .f64p("knn_leaf_cache_ns_per_query", per_q(knn_cached), 0)
        .f64p("knn_in_memory_ns_per_query", per_q(knn_mem), 0)
        .f64p("knn_leaf_cache_speedup", knn_recheck / knn_cached, 2)
        .bool("results_identical", true)
        .bool("leaf_visit_stats_identical", true)
        .strings("loaders_checked", &["PR", "H", "H4", "TGS", "STR"]);
    let row = obj.finish();
    println!("{row}");
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cold_read.json");
    if let Err(e) = std::fs::write(&out, &row) {
        eprintln!("warning: could not write {}: {e}", out.display());
    } else {
        println!("wrote {}", out.display());
    }

    let speedup = win_recheck / win_cached;
    if std::env::var("PRTREE_REQUIRE_COLD_SPEEDUP").as_deref() == Ok("1") {
        assert!(
            speedup >= 3.0,
            "leaf-cached window speedup {speedup:.2}x < 3x acceptance threshold"
        );
    } else if speedup < 3.0 {
        eprintln!("note: leaf-cached speedup {speedup:.2}x below the 3x target on this host");
    }
}

criterion_group!(benches, bench_cold_read);
criterion_main!(benches);
