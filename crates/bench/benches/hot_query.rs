//! `hot_query`: warm-cache query throughput — decode-free SoA engine vs
//! the retained scalar AoS engine (the PR-2 read path) on the same tree.
//!
//! This is the acceptance benchmark of the decode-free engine: same
//! uniform-100k dataset, same PR-tree, same queries; only the read-path
//! representation differs. Before timing anything it runs a correctness
//! gate over **all five loaders**: results (order included) and
//! [`pr_tree::QueryStats`] — leaves, internal visits, device reads —
//! must be identical between engines, else the process aborts. A second
//! gate checks the k-NN tie order on tie-heavy data: the Theorem-3
//! shifted grid, queried on data points, for k from 1 to past a leaf.
//!
//! Besides the criterion groups, the run writes one machine-readable
//! row to `BENCH_hot_query.json` at the repo root (old vs new ns/query
//! for windows and k-NN, speedups, gate verdict, metrics overhead). Set
//! `PRTREE_REQUIRE_SPEEDUP=1` to turn the ≥2× window-throughput claim
//! into a hard assertion (off by default: CI machines throttle), and
//! `PRTREE_REQUIRE_OBS_OVERHEAD=1` to assert that the registry's
//! recording switch costs ≤ 5% on the hot window path (measured on the
//! same instrumented loop with recording on vs off) and that the span
//! tracer and the fault-injection probe each cost ≤ 5% armed-but-inert
//! vs fully disabled. All three overhead pairs are measured
//! **interleaved** — on/off alternating within the
//! same best-of loop, order flipped every rep — so thermal and
//! frequency drift lands on both sides instead of biasing whichever
//! configuration happened to run last.

use criterion::{criterion_group, criterion_main, Criterion};
use pr_data::queries::square_queries;
use pr_data::{uniform_points, worst_case_grid};
use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Point, Rect};
use pr_tree::bulk::LoaderKind;
use pr_tree::reference::ReferenceEngine;
use pr_tree::{QueryScratch, RTree, TreeParams};
use std::sync::Arc;
use std::time::Instant;

const N: u32 = 100_000;
const N_QUERIES: usize = 64;
const KNN_K: usize = 10;

fn build(kind: LoaderKind, items: &[pr_geom::Item<2>]) -> RTree<2> {
    let params = TreeParams::paper_2d();
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = kind
        .loader::<2>()
        .load(dev, params, items.to_vec())
        .expect("bulk load");
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

/// Identical results + identical leaf-I/O across every loader variant,
/// or no numbers at all.
fn correctness_gate(items: &[pr_geom::Item<2>], queries: &[Rect<2>]) {
    for kind in LoaderKind::all() {
        let tree = build(kind, items);
        let oracle = ReferenceEngine::new(&tree).expect("oracle");
        for q in queries {
            let (got, got_stats) = tree.window_with_stats(q).expect("window");
            let (want, want_stats) = oracle.window_with_stats(q).expect("oracle");
            assert_eq!(got, want, "{}: window results differ", kind.name());
            assert_eq!(
                got_stats,
                want_stats,
                "{}: window stats differ",
                kind.name()
            );
        }
        for p in knn_points() {
            let (got, gs) = tree.nearest_neighbors_with_stats(&p, KNN_K).expect("knn");
            let (want, ws) = oracle
                .nearest_neighbors_with_stats(&p, KNN_K)
                .expect("oracle");
            assert_eq!(got, want, "{}: knn results differ", kind.name());
            assert_eq!(gs, ws, "{}: knn stats differ", kind.name());
        }
    }
    println!(
        "hot_query gate: results + leaf I/O identical across {:?}",
        LoaderKind::all().map(|k| k.name())
    );
}

/// Columns × rows of the tie-order gate's Theorem-3 grid.
const TIE_GRID: (u32, u32) = (8, 113);
/// k values of the tie-order gate: one item, the bench's k, one full
/// leaf, and past it.
const TIE_KS: [usize; 4] = [1, 10, 113, 200];

/// The k-NN tie-order gate: on the Theorem-3 shifted grid, every loader
/// must return the reference engine's items, distance bits and
/// `QueryStats`. Queries sit on data points — distance 0, tied with
/// every node MBR that contains them, so the nodes-first rule decides
/// which nodes are read — and on the midlines between columns.
fn tie_order_gate() {
    let items = worst_case_grid(TIE_GRID.0, TIE_GRID.1);
    let step = items.len() / 16;
    let points: Vec<Point<2>> = items
        .iter()
        .step_by(step)
        .flat_map(|it| {
            let (x, y) = (it.rect.lo_at(0), it.rect.lo_at(1));
            [Point::new([x, y]), Point::new([x + 0.5, y])]
        })
        .collect();
    for kind in LoaderKind::all() {
        let tree = build(kind, &items);
        let oracle = ReferenceEngine::new(&tree).expect("oracle");
        for p in &points {
            for k in TIE_KS {
                let (got, gs) = tree.nearest_neighbors_with_stats(p, k).expect("knn");
                let (want, ws) = oracle.nearest_neighbors_with_stats(p, k).expect("oracle");
                assert_eq!(
                    got,
                    want,
                    "{} k={k}: tie-grid knn results differ",
                    kind.name()
                );
                assert_eq!(gs, ws, "{} k={k}: tie-grid knn stats differ", kind.name());
            }
        }
    }
    println!("hot_query tie gate: worst_case_grid{TIE_GRID:?} k-NN identical for k in {TIE_KS:?}");
}

/// Best-of-`reps` wall time of one full pass over the workload, in
/// seconds (best-of filters scheduler noise on shared runners).
fn best_of(reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut sink = f(); // warm-up pass
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        sink = sink.wrapping_add(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    criterion::black_box(sink);
    best
}

/// Best-of-`reps` for two configurations (A, B) of the same workload,
/// measured interleaved: each rep times one A pass and one B pass, with
/// the order flipped every rep. Slow drift — thermal throttling,
/// frequency scaling, another tenant waking up — then hits both sides
/// symmetrically, where back-to-back `best_of` calls charge all of it
/// to whichever configuration ran second (observed as a spurious
/// negative "overhead" in past runs).
fn interleaved_best_of(
    reps: usize,
    mut set_a: impl FnMut(),
    mut set_b: impl FnMut(),
    mut f: impl FnMut() -> u64,
) -> (f64, f64) {
    let mut sink = 0u64;
    set_a();
    sink = sink.wrapping_add(f()); // warm-up, side A
    set_b();
    sink = sink.wrapping_add(f()); // warm-up, side B
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..reps {
        let order = if rep % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for a_side in order {
            if a_side {
                set_a();
            } else {
                set_b();
            }
            let t0 = Instant::now();
            sink = sink.wrapping_add(f());
            let dt = t0.elapsed().as_secs_f64();
            if a_side {
                best_a = best_a.min(dt);
            } else {
                best_b = best_b.min(dt);
            }
        }
    }
    criterion::black_box(sink);
    (best_a, best_b)
}

#[allow(clippy::too_many_arguments)]
fn json_row(
    count_old: f64,
    count_new: f64,
    collect_old: f64,
    collect_new: f64,
    knn_old: f64,
    knn_new: f64,
    obs_on: f64,
    obs_off: f64,
    trace_armed: f64,
    trace_off: f64,
    fault_armed: f64,
    fault_off: f64,
) -> String {
    let per_q = |secs: f64| secs / N_QUERIES as f64 * 1e9;
    let mut row = pr_obs::json::JsonObj::new();
    row.u64("schema_version", pr_obs::SCHEMA_VERSION)
        .str("experiment", "hot_query")
        .str("dataset", "uniform")
        .u64("n", N as u64)
        .str("loader", "PR")
        .str("cache", "internal nodes pinned (warm), no leaf cache")
        .u64("queries", N_QUERIES as u64)
        .f64p("query_area_pct", 1.0, 1)
        .u64("knn_k", KNN_K as u64)
        .f64p("window_old_ns_per_query", per_q(count_old), 0)
        .f64p("window_new_ns_per_query", per_q(count_new), 0)
        .f64p("window_speedup", count_old / count_new, 2)
        .f64p("window_collect_old_ns_per_query", per_q(collect_old), 0)
        .f64p("window_collect_new_ns_per_query", per_q(collect_new), 0)
        .f64p("window_collect_speedup", collect_old / collect_new, 2)
        .f64p("knn_old_ns_per_query", per_q(knn_old), 0)
        .f64p("knn_new_ns_per_query", per_q(knn_new), 0)
        .f64p("knn_speedup", knn_old / knn_new, 2)
        .f64p("obs_on_ns_per_query", per_q(obs_on), 0)
        .f64p("obs_off_ns_per_query", per_q(obs_off), 0)
        .f64p("obs_overhead_pct", (obs_on / obs_off - 1.0) * 100.0, 2)
        .f64p("trace_armed_ns_per_query", per_q(trace_armed), 0)
        .f64p("trace_off_ns_per_query", per_q(trace_off), 0)
        .f64p(
            "trace_overhead_pct",
            (trace_armed / trace_off - 1.0) * 100.0,
            2,
        )
        .str(
            "overhead_method",
            "interleaved best-of, order flipped per rep",
        )
        .f64p("fault_armed_ns_per_query", per_q(fault_armed), 0)
        .f64p("fault_off_ns_per_query", per_q(fault_off), 0)
        .f64p(
            "fault_probe_overhead_pct",
            (fault_armed / fault_off - 1.0) * 100.0,
            2,
        )
        .bool("results_identical", true)
        .bool("leaf_io_identical", true)
        .strings("loaders_checked", &["PR", "H", "H4", "TGS", "STR"])
        .str(
            "knn_tie_gate",
            &format!("worst_case_grid{TIE_GRID:?}, k in {TIE_KS:?}"),
        );
    row.finish()
}

fn bench_hot_query(c: &mut Criterion) {
    let items = uniform_points(N, 7);
    let queries = square_queries(&Rect::xyxy(0.0, 0.0, 1.0, 1.0), 0.01, N_QUERIES, 11);
    correctness_gate(&items, &queries);
    tie_order_gate();

    let tree = build(LoaderKind::Pr, &items);
    let oracle = ReferenceEngine::new(&tree).expect("oracle");
    let points = knn_points();

    // Criterion groups (human-readable report).
    let mut group = c.benchmark_group("hot_window_1pct_uniform100k");
    group.sample_size(10);
    group.bench_function("old_aos_engine", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for q in &queries {
                total += oracle.window_count(q).unwrap().0;
            }
            total
        });
    });
    let mut scratch = QueryScratch::new();
    group.bench_function("new_soa_engine", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for q in &queries {
                total += tree.window_count_into(q, &mut scratch).unwrap().0;
            }
            total
        });
    });
    group.finish();

    let mut group = c.benchmark_group("hot_knn10_uniform100k");
    group.sample_size(10);
    group.bench_function("old_aos_engine", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for p in &points {
                total += oracle
                    .nearest_neighbors_with_stats(p, KNN_K)
                    .unwrap()
                    .0
                    .len() as u64;
            }
            total
        });
    });
    let mut scratch = QueryScratch::new();
    let mut nn = Vec::new();
    group.bench_function("new_soa_engine", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for p in &points {
                tree.nearest_neighbors_into(p, KNN_K, &mut scratch, &mut nn)
                    .unwrap();
                total += nn.len() as u64;
            }
            total
        });
    });
    group.finish();

    // Machine-readable row (best-of-5 passes per engine).
    let window_old = best_of(5, || {
        queries
            .iter()
            .map(|q| oracle.window_count(q).unwrap().0)
            .sum()
    });
    let mut scratch = QueryScratch::new();
    let window_new = best_of(5, || {
        queries
            .iter()
            .map(|q| tree.window_count_into(q, &mut scratch).unwrap().0)
            .sum()
    });
    // Materializing windows: the old engine allocates a fresh result
    // vector per query (its only API); the new engine reuses the
    // caller's buffer through `window_into` — allocation-free traversal
    // is part of the engine, so the comparison is end-to-end honest.
    let collect_old = best_of(5, || {
        queries
            .iter()
            .map(|q| oracle.window_with_stats(q).unwrap().0.len() as u64)
            .sum()
    });
    let mut hits = Vec::new();
    let collect_new = best_of(5, || {
        queries
            .iter()
            .map(|q| {
                tree.window_into(q, &mut scratch, &mut hits).unwrap();
                hits.len() as u64
            })
            .sum()
    });
    let knn_old = best_of(5, || {
        points
            .iter()
            .map(|p| {
                oracle
                    .nearest_neighbors_with_stats(p, KNN_K)
                    .unwrap()
                    .0
                    .len() as u64
            })
            .sum()
    });
    let mut nn = Vec::new();
    let knn_new = best_of(5, || {
        points
            .iter()
            .map(|p| {
                tree.nearest_neighbors_into(p, KNN_K, &mut scratch, &mut nn)
                    .unwrap();
                nn.len() as u64
            })
            .sum()
    });

    // Observability overhead: the same instrumented window pass with the
    // registry recording switch on vs off, interleaved. The switch gates
    // exactly the per-query registry flush (`pr_tree::obs`), so the
    // ratio isolates what the metrics cost a hot read path.
    let (obs_on, obs_off) = interleaved_best_of(
        15,
        || pr_obs::set_recording(true),
        || pr_obs::set_recording(false),
        || {
            queries
                .iter()
                .map(|q| tree.window_count_into(q, &mut scratch).unwrap().0)
                .sum()
        },
    );
    pr_obs::set_recording(true);
    let obs_overhead_pct = (obs_on / obs_off - 1.0) * 100.0;
    println!("hot_query obs overhead: {obs_overhead_pct:.2}% (on vs off, interleaved best-of-15)");

    // Span-tracer overhead: disabled (one relaxed load per traversal)
    // vs armed at a 1-in-2^64 rate — the sampler runs its fetch-add
    // tick on every operation but essentially never samples, so the
    // armed side prices the bookkeeping alone, not trace construction.
    let (trace_armed, trace_off) = interleaved_best_of(
        15,
        || pr_obs::trace::set_sampling(u64::MAX),
        || pr_obs::trace::set_sampling(0),
        || {
            queries
                .iter()
                .map(|q| tree.window_count_into(q, &mut scratch).unwrap().0)
                .sum()
        },
    );
    pr_obs::trace::set_sampling(0);
    pr_obs::recorder().clear(); // drop any warm-up sample the tick=0 edge admitted
    let trace_overhead_pct = (trace_armed / trace_off - 1.0) * 100.0;
    println!(
        "hot_query trace overhead: {trace_overhead_pct:.2}% \
         (armed-inert vs disabled, interleaved best-of-15)"
    );

    // Fault-probe overhead: disarmed, the injection hook is one relaxed
    // atomic load per device op; armed with an empty schedule it also
    // counts ops. The robustness layer is only free if neither state
    // taxes the hot read path.
    let (fault_armed, fault_off) = {
        let _hook = pr_em::fault::exclusive();
        let armed = std::cell::RefCell::new(None);
        interleaved_best_of(
            15,
            || {
                // Disarm first: a guard dropped after `install` would
                // clear the new schedule.
                drop(armed.take());
                *armed.borrow_mut() = Some(pr_em::fault::install(
                    pr_em::fault::FaultSchedule::never(true),
                ));
            },
            || drop(armed.take()),
            || {
                queries
                    .iter()
                    .map(|q| tree.window_count_into(q, &mut scratch).unwrap().0)
                    .sum()
            },
        )
    };
    let fault_overhead_pct = (fault_armed / fault_off - 1.0) * 100.0;
    println!(
        "hot_query fault-probe overhead: {fault_overhead_pct:.2}% \
         (armed-inert vs disarmed, interleaved best-of-15)"
    );

    let row = json_row(
        window_old,
        window_new,
        collect_old,
        collect_new,
        knn_old,
        knn_new,
        obs_on,
        obs_off,
        trace_armed,
        trace_off,
        fault_armed,
        fault_off,
    );
    println!("{row}");
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hot_query.json");
    if let Err(e) = std::fs::write(&out, &row) {
        eprintln!("warning: could not write {}: {e}", out.display());
    } else {
        println!("wrote {}", out.display());
    }

    let speedup = window_old / window_new;
    if std::env::var("PRTREE_REQUIRE_SPEEDUP").as_deref() == Ok("1") {
        assert!(
            speedup >= 2.0,
            "warm-cache window speedup {speedup:.2}x < 2x acceptance threshold"
        );
    } else if speedup < 2.0 {
        eprintln!("note: window speedup {speedup:.2}x below the 2x target on this host");
    }
    if std::env::var("PRTREE_REQUIRE_OBS_OVERHEAD").as_deref() == Ok("1") {
        assert!(
            obs_overhead_pct <= 5.0,
            "metrics recording costs {obs_overhead_pct:.2}% on the hot window path \
             (> 5% acceptance threshold)"
        );
    } else if obs_overhead_pct > 5.0 {
        eprintln!("note: obs overhead {obs_overhead_pct:.2}% above the 5% target on this host");
    }
    if std::env::var("PRTREE_REQUIRE_OBS_OVERHEAD").as_deref() == Ok("1") {
        assert!(
            trace_overhead_pct <= 5.0,
            "armed-inert span tracer costs {trace_overhead_pct:.2}% on the hot window \
             path (> 5% acceptance threshold)"
        );
    } else if trace_overhead_pct > 5.0 {
        eprintln!("note: trace overhead {trace_overhead_pct:.2}% above the 5% target on this host");
    }
    if std::env::var("PRTREE_REQUIRE_OBS_OVERHEAD").as_deref() == Ok("1") {
        assert!(
            fault_overhead_pct <= 5.0,
            "armed-inert fault probe costs {fault_overhead_pct:.2}% on the hot window \
             path (> 5% acceptance threshold)"
        );
    } else if fault_overhead_pct > 5.0 {
        eprintln!(
            "note: fault-probe overhead {fault_overhead_pct:.2}% above the 5% target on this host"
        );
    }
}

criterion_group!(benches, bench_hot_query);
criterion_main!(benches);
