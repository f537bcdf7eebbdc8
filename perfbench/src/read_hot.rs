//! `read_hot`: a static PR-tree of SIZE(0.01) rectangles, bulk-loaded,
//! saved, reopened zero-copy from its store file with a leaf cache that
//! holds every leaf, then read by two closed-loop readers alternating
//! 0.1%-area windows and k-NN from a fixed pool. Query kernels and the
//! node/leaf caches do the work; nothing is written while it is timed.

use crate::gen::{self, InputDump, Rng};
use crate::layers::{self, QueryTotals};
use crate::measure::{self, median, ratio, Lat, RegDelta};
use crate::oracle::{self, IdSet, KnnFp};
use crate::trace::Tracer;
use crate::{Args, Outcome, Res, K, OPEN_REPS};
use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Point, Rect};
use pr_store::Store;
use pr_tree::bulk::pr::PrTreeLoader;
use pr_tree::bulk::BulkLoader;
use pr_tree::{LeafCache, QueryScratch, RTree, TreeParams};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const WINDOW_AREA: f64 = 0.001;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const MAX_SIDE: f64 = 0.01;

struct Expected {
    windows: Vec<IdSet>,
    knn: Vec<KnnFp>,
}

/// Brute-force answers for the whole query pool, on two threads.
fn expected(items: &[Item<2>], windows: &[Rect<2>], points: &[Point<2>]) -> Expected {
    let half = windows.len() / 2;
    std::thread::scope(|s| {
        let parts: Vec<_> = [(0, half), (half, windows.len())]
            .into_iter()
            .map(|(lo, hi)| {
                s.spawn(move || {
                    let w: Vec<IdSet> = windows[lo..hi]
                        .iter()
                        .map(|q| oracle::brute_window(items, q))
                        .collect();
                    let k: Vec<KnnFp> = points[lo..hi]
                        .iter()
                        .map(|p| oracle::brute_knn(items, p, K))
                        .collect();
                    (w, k)
                })
            })
            .collect();
        let mut e = Expected {
            windows: Vec::new(),
            knn: Vec::new(),
        };
        for p in parts {
            let (w, k) = p.join().expect("oracle thread panicked");
            e.windows.extend(w);
            e.knn.extend(k);
        }
        e
    })
}

/// Phase times of one set-up.
#[derive(Clone, Copy)]
struct Times {
    load_s: f64,
    save_s: f64,
    setup_s: f64,
}

/// One set-up: bulk load, save, reopen zero-copy, attach the cache,
/// answer the first query, then warm the caches over the pool.
struct Built {
    tree: RTree<2>,
    store: Store,
    leaves: u64,
    internal: u64,
    pages_written: u64,
    t: Times,
}

fn build(
    a: &Args,
    rep: usize,
    items: &[Item<2>],
    pool: (&[Rect<2>], &[Point<2>]),
    tracer: &mut Tracer,
) -> Res<Built> {
    let params = TreeParams::paper_2d();
    let path = a.work.join(format!("read_hot-{rep}.prt"));
    let input = items.to_vec();
    let before = measure::registry();
    let mut op = tracer.always("setup");
    let t0 = Instant::now();
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let mem = PrTreeLoader::default().load(dev, params, input)?;
    let t_load = Instant::now();
    let mut store = Store::create::<2>(&path, params)?;
    store.save(&mem)?;
    drop(store);
    let t_save = Instant::now();
    let structure = mem.stats()?;
    drop(mem);
    let t_open = Instant::now();
    let store = Store::open(&path)?;
    let mut tree = store.tree::<2>()?;
    let t_store_open = Instant::now();
    let cache = Arc::new(LeafCache::new(a.scale.leaf_cache_bytes));
    let epoch = cache.register_epoch();
    tree.attach_leaf_cache(cache, epoch);
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    tree.window_into(&pool.0[0], &mut scratch, &mut out)?;
    let t_first = Instant::now();
    tree.warm_cache()?;
    // Two passes: the leaf cache admits a page on its second touch.
    let mut nn = Vec::new();
    for _ in 0..2 {
        for (q, p) in pool.0.iter().zip(pool.1) {
            tree.window_into(q, &mut scratch, &mut out)?;
            tree.nearest_neighbors_into(p, K, &mut scratch, &mut nn)?;
        }
    }
    let t_end = Instant::now();
    if let Some(op) = op.as_mut() {
        op.call("tree", "bulk_load", t0, t_load);
        op.call("store", "create_save", t_load, t_save);
        op.call("store", "open_tree", t_open, t_store_open);
        op.call("tree", "first_window", t_store_open, t_first);
        op.call("tree", "warm", t_first, t_end);
    }
    tracer.finish(op, false);
    let d = RegDelta::between(&before);
    Ok(Built {
        leaves: structure.num_leaves(),
        internal: structure.num_nodes() - structure.num_leaves(),
        tree,
        store,
        pages_written: d.counter("store_pages_written_total") as u64,
        t: Times {
            load_s: (t_load - t0).as_secs_f64(),
            save_s: (t_save - t_load).as_secs_f64(),
            setup_s: (t_end - t0).as_secs_f64(),
        },
    })
}

/// Opens the saved store cold (a fresh leaf cache) and answers one
/// window: `(Store::open + tree ms, open to first answer ms)`.
fn open_once(
    a: &Args,
    path: &std::path::Path,
    q: &Rect<2>,
    tracer: &mut Tracer,
) -> Res<(f64, f64)> {
    let mut op = tracer.always("open");
    let t0 = Instant::now();
    let store = Store::open(path)?;
    let mut tree = store.tree::<2>()?;
    let t1 = Instant::now();
    let cache = Arc::new(LeafCache::new(a.scale.leaf_cache_bytes));
    let epoch = cache.register_epoch();
    tree.attach_leaf_cache(cache, epoch);
    tree.window_into(q, &mut QueryScratch::new(), &mut Vec::new())?;
    let t2 = Instant::now();
    if let Some(op) = op.as_mut() {
        op.call("store", "open_tree", t0, t1);
        op.call("tree", "first_window", t1, t2);
    }
    tracer.finish(op, false);
    Ok((ms(t0, t1), ms(t0, t2)))
}

fn ms(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

/// Answers seen for one pool slot: the first fingerprint, how many
/// answers there were, and how many differed from the first.
#[derive(Clone)]
struct Seen<F> {
    first: Option<F>,
    n: u64,
    deviants: u64,
}

impl<F: PartialEq + Copy> Seen<F> {
    const NEW: Self = Seen {
        first: None,
        n: 0,
        deviants: 0,
    };

    fn add(&mut self, fp: Option<F>) {
        self.n += 1;
        match (self.first, fp) {
            (None, Some(f)) if self.n == 1 => self.first = Some(f),
            (Some(f), Some(g)) if f == g => {}
            _ => self.deviants += 1,
        }
    }

    /// Wrong answers for this slot against the expected fingerprint.
    fn wrong(&self, want: &F) -> u64 {
        match &self.first {
            Some(f) if f == want => self.deviants,
            _ if self.n == 0 => 0,
            _ => self.n,
        }
    }
}

struct Reader {
    win: Lat,
    knn: Lat,
    traced_win: Lat,
    plain_win: Lat,
    totals: QueryTotals,
    seen_w: Vec<Seen<IdSet>>,
    seen_k: Vec<Seen<KnnFp>>,
    errors: u64,
    elapsed: Duration,
    tracer: Tracer,
}

fn reader(
    a: &Args,
    r: u64,
    tree: &RTree<2>,
    pool: (&[Rect<2>], &[Point<2>]),
    barrier: &Barrier,
) -> Reader {
    let n = tree.len();
    let cap = tree.params().leaf_cap;
    let mut rng = Rng::new(a.seed, 100 + r);
    let mut st = Reader {
        win: Lat::with_capacity(1 << 20),
        knn: Lat::with_capacity(1 << 20),
        traced_win: Lat::default(),
        plain_win: Lat::default(),
        totals: QueryTotals::default(),
        seen_w: vec![Seen::NEW; pool.0.len()],
        seen_k: vec![Seen::NEW; pool.1.len()],
        errors: 0,
        elapsed: Duration::ZERO,
        tracer: Tracer::new(a.trace, r + 1, a.epoch),
    };
    let mut scratch = QueryScratch::new();
    let (mut out, mut nn) = (Vec::new(), Vec::new());
    barrier.wait();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(a.seconds);
    let mut i = 0u64;
    loop {
        let slot = rng.below(pool.0.len());
        let window = i.is_multiple_of(2);
        let mut op = st.tracer.op(if window { "window" } else { "knn" });
        let t0 = Instant::now();
        let res = if window {
            tree.window_into(&pool.0[slot], &mut scratch, &mut out)
        } else {
            tree.nearest_neighbors_into(&pool.1[slot], K, &mut scratch, &mut nn)
        };
        let t1 = Instant::now();
        let dt = t1 - t0;
        if let Some(op) = op.as_mut() {
            op.call(
                "tree",
                if window {
                    "window_into"
                } else {
                    "nearest_neighbors_into"
                },
                t0,
                t1,
            );
        }
        match (res, window) {
            (Ok(s), true) => {
                st.win.record(dt);
                if a.trace {
                    if op.is_some() {
                        &mut st.traced_win
                    } else {
                        &mut st.plain_win
                    }
                    .record(dt);
                }
                st.totals.window(&s, n, cap);
                st.seen_w[slot].add(Some(IdSet::of(out.iter().map(|i| i.id))));
            }
            (Ok(s), false) => {
                st.knn.record(dt);
                st.totals.knn(&s);
                st.seen_k[slot].add(oracle::knn_fp(&nn, K));
            }
            (Err(_), _) => st.errors += 1,
        }
        st.tracer.finish(op, true);
        i += 1;
        if t1 >= deadline {
            break;
        }
    }
    st.elapsed = start.elapsed();
    st
}

/// Single-threaded pass over the pool after warm-up: the counts that
/// repeat exactly for a seed.
fn counts(tree: &RTree<2>, pool: (&[Rect<2>], &[Point<2>])) -> Res<QueryTotals> {
    let mut t = QueryTotals::default();
    let mut scratch = QueryScratch::new();
    let (mut out, mut nn) = (Vec::new(), Vec::new());
    for (q, p) in pool.0.iter().zip(pool.1) {
        t.window(
            &tree.window_into(q, &mut scratch, &mut out)?,
            tree.len(),
            tree.params().leaf_cap,
        );
        t.knn(&tree.nearest_neighbors_into(p, K, &mut scratch, &mut nn)?);
    }
    Ok(t)
}

pub fn run(a: &Args) -> Res<Outcome> {
    let sc = a.scale;
    let items = gen::size_rects(sc.hot_items, MAX_SIDE, 0, &mut Rng::new(a.seed, 1));
    let windows = gen::windows(sc.hot_pool, WINDOW_AREA, &mut Rng::new(a.seed, 2));
    let points = gen::query_points(sc.hot_pool, &mut Rng::new(a.seed, 3));
    if let Some(path) = &a.dump_inputs {
        let mut d = InputDump::default();
        d.items(&items);
        d.rects(&windows);
        d.points(&points);
        std::fs::write(path, d.into_bytes())?;
    }
    let pool = (&windows[..], &points[..]);
    let want = expected(&items, &windows, &points);

    let mut tracer = Tracer::new(a.trace, 0, a.epoch);
    // Earlier set-ups exist to be timed; the last one is measured.
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let b = build(a, rep, &items, pool, &mut tracer)?;
        times.push(b.t);
        last = Some(b);
    }
    let built = last.expect("at least one set-up");
    let last_path = a.work.join(format!("read_hot-{}.prt", SETUP_REPS - 1));
    // Each open answers a different pool window, so the median does not
    // hang on how many leaves one window happens to touch.
    let opens = (0..OPEN_REPS)
        .map(|i| open_once(a, &last_path, &windows[i % windows.len()], &mut tracer))
        .collect::<Res<Vec<_>>>()?;
    let med = |f: fn(&Times) -> f64| median(times.iter().map(f).collect());
    let tree = &built.tree;

    let page = tree.params().page_size as u64;
    let leaf_bytes = built.leaves * page;
    let budget = sc.leaf_cache_bytes as u64;
    let size_line = format!(
        "{{\"size_check\": {{\"leaf_page_bytes\": {leaf_bytes}, \"leaf_cache_bytes\": {budget}, \"fits\": {}}}}}",
        leaf_bytes <= budget
    );
    if leaf_bytes > budget {
        return Err(format!(
            "read_hot leaf pages ({leaf_bytes} B) do not fit the leaf cache ({budget} B)"
        )
        .into());
    }

    let c = counts(tree, pool)?;
    let count_line = format!(
        "{{\"counts\": {{\"windows\": {}, \"knn\": {}, \"leaves\": {}, \"internal_nodes\": {}, \"window_leaves\": {}, \"window_internal\": {}, \"window_results\": {}, \"knn_leaves\": {}, \"device_reads_after_warmup\": {}, \"pages_written_by_save\": {}, \"bound_ratio_max\": {}}}}}",
        c.windows, c.knns, built.leaves, built.internal, c.w_leaves, c.w_internal, c.w_results,
        c.knn_leaves, c.device_reads, built.pages_written, measure::num(c.bound_max)
    );

    layers::arm_sampler(a.trace);
    let before = measure::registry();
    let barrier = Barrier::new(2);
    let readers: Vec<Reader> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..2)
            .map(|r| {
                let barrier = &barrier;
                s.spawn(move || reader(a, r, tree, pool, barrier))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect()
    });
    let d = RegDelta::between(&before);
    let sampled = layers::drain_sampler(a.trace);

    let mut win = Lat::default();
    let mut knn = Lat::default();
    let (mut traced, mut plain) = (Lat::default(), Lat::default());
    let mut totals = QueryTotals::default();
    let (mut wrong, mut errors) = (0u64, 0u64);
    let mut elapsed = Duration::ZERO;
    for r in readers {
        for (s, w) in r.seen_w.iter().zip(&want.windows) {
            wrong += s.wrong(w);
        }
        for (s, w) in r.seen_k.iter().zip(&want.knn) {
            wrong += s.wrong(w);
        }
        errors += r.errors;
        elapsed = elapsed.max(r.elapsed);
        totals.merge(&r.totals);
        win.merge(r.win);
        knn.merge(r.knn);
        traced.merge(r.traced_win);
        plain.merge(r.plain_win);
        tracer.merge(r.tracer);
    }
    let queries = totals.queries();

    let user_bytes = (items.len() * Item::<2>::ENCODED_SIZE) as f64;
    let file_bytes = built.store.file_len()? as f64;
    let mut o = Outcome::default();
    let e = &mut o.e2e;
    e.set("setup_s", med(|t| t.setup_s), "s");
    e.set("open_ms", median(opens.iter().map(|o| o.1).collect()), "ms");
    e.set("window_p50_us", win.p50_us(), "us");
    e.set("window_p99_us", win.p99_us(), "us");
    e.set("knn_p50_us", knn.p50_us(), "us");
    e.set("knn_p99_us", knn.p99_us(), "us");
    e.set(
        "queries_per_s",
        ratio(queries as f64, elapsed.as_secs_f64()),
        "1/s",
    );
    e.set(
        "write_amp",
        ratio((built.pages_written * page) as f64, user_bytes),
        "ratio",
    );
    e.set("space_amp", ratio(file_bytes, user_bytes), "ratio");

    let mut l = layers::zeroed();
    totals.fill(&mut l);
    layers::fill_registry(&mut l, &d);
    layers::fill_sampled(&mut l, &sampled);
    l.set("tree.build_s", med(|t| t.load_s), "s");
    l.set("store.save_s", med(|t| t.save_s), "s");
    l.set(
        "store.open_ms",
        median(opens.iter().map(|o| o.0).collect()),
        "ms",
    );
    l.set("store.file_bytes", file_bytes, "bytes");
    l.set(
        "store.garbage_bytes",
        built.store.garbage_bytes()? as f64,
        "bytes",
    );
    l.set(
        "store.verified_pages",
        built.store.verified_pages().0 as f64,
        "count",
    );
    l.set(
        "obs.trace_overhead_pct",
        (ratio(traced.p50_us(), plain.p50_us()) - 1.0) * 100.0,
        "%",
    );
    for (layer, us) in tracer.self_us_per_op() {
        l.set(&format!("self.{layer}_us_per_op"), us, "us");
    }
    o.layer = l;

    o.attempted = queries + errors;
    o.failed = wrong + errors;
    o.info.push(measure::fingerprint(
        a.seed,
        "read_hot",
        sc.name,
        &[
            ("leaf_cache_bytes", budget.to_string()),
            ("items", items.len().to_string()),
            ("readers", "2".into()),
            ("loop", "\"closed\"".into()),
        ],
    ));
    o.info.push(size_line);
    o.info.push(count_line);
    o.info.push(format!(
        "{{\"samples\": {{\"window\": {}, \"knn\": {}, \"setup_s\": {}, \"open_ms\": {}, \"p99_supported\": {}}}}}",
        win.len(),
        knn.len(),
        measure::list(times.iter().map(|t| t.setup_s)),
        measure::list(opens.iter().map(|o| o.1)),
        win.p99_supported() && knn.p99_supported()
    ));
    o.spans = tracer.dump();
    Ok(o)
}
