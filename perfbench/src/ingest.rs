//! `ingest`: two closed-loop writers `insert_batch` 256-item batches of
//! uniform points over disjoint id ranges into an empty live index,
//! long enough for merges to cascade several levels. Then `flush`, drop
//! the index without closing it, `LiveIndex::open` (recovery) to the
//! first answer, check that the recovered index holds exactly the acked
//! items, `compact`, and read it with every answer checked. Rounds
//! repeat, each on a fresh directory, while another fits in the run's
//! seconds.

use crate::gen::{self, InputDump, Rng};
use crate::layers::{self, QueryTotals};
use crate::measure::{self, median, ratio, Lat, RegDelta};
use crate::oracle::{self, Grid, IdSet, KnnFp};
use crate::trace::Tracer;
use crate::{Args, Outcome, Res, BATCH, K, OPEN_REPS};
use pr_geom::{Item, Point, Rect};
use pr_live::{LiveIndex, LiveOptions, LiveStats};
use pr_tree::{QueryScratch, TreeParams};
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// Windows of the recovery reads cover 0.01% of the domain.
pub const WINDOW_AREA: f64 = 0.0001;
/// Timed passes over the read pool after the warm-up pass.
const READ_PASSES: usize = 6;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Reads of a live index through fresh snapshots, alternating windows
/// and k-NN, each answer checked against the expected one.
struct Reads {
    win: Lat,
    knn: Lat,
    snapshot: Lat,
    totals: QueryTotals,
    wrong: u64,
    errors: u64,
    secs: f64,
}

/// `passes` passes of reads over the pool, alternating windows and
/// k-NN, each through a fresh snapshot and checked against `grid`.
fn checked_reads(
    ix: &LiveIndex<2>,
    pool: (&[Rect<2>], &[Point<2>]),
    grid: &Grid,
    passes: usize,
    tracer: &mut Tracer,
) -> Reads {
    let mut r = Reads {
        win: Lat::default(),
        knn: Lat::default(),
        snapshot: Lat::default(),
        totals: QueryTotals::default(),
        wrong: 0,
        errors: 0,
        secs: 0.0,
    };
    let mut scratch = QueryScratch::new();
    let (mut out, mut nn) = (Vec::new(), Vec::new());
    let cap = ix.params().leaf_cap;
    let start = Instant::now();
    for (q, p) in (0..passes).flat_map(|_| pool.0.iter().zip(pool.1)) {
        for window in [true, false] {
            let mut op = tracer.op(if window { "window" } else { "knn" });
            let t0 = Instant::now();
            let snap = ix.snapshot();
            let t1 = Instant::now();
            let res = if window {
                snap.window_into(q, &mut scratch, &mut out)
            } else {
                snap.nearest_neighbors_into(p, K, &mut scratch, &mut nn)
            };
            let t2 = Instant::now();
            if let Some(op) = op.as_mut() {
                op.call("live", "snapshot", t0, t1);
                let name = if window {
                    "window_into"
                } else {
                    "nearest_neighbors_into"
                };
                op.call("live", name, t1, t2);
            }
            r.snapshot.record(t1 - t0);
            r.totals.components += snap.num_components() as u64;
            match res {
                Ok(s) if window => {
                    r.win.record(t2 - t0);
                    r.totals.window(&s, snap.len(), cap);
                    r.wrong += u64::from(IdSet::of(out.iter().map(|i| i.id)) != grid.window(q));
                }
                Ok(s) => {
                    r.knn.record(t2 - t0);
                    r.totals.knn(&s);
                    r.wrong += u64::from(oracle::knn_fp(&nn, K) != Some(grid_knn_fp(grid, p)));
                }
                Err(_) => r.errors += 1,
            }
            tracer.finish(op, true);
        }
    }
    r.secs = start.elapsed().as_secs_f64();
    r
}

fn grid_knn_fp(grid: &Grid, p: &Point<2>) -> KnnFp {
    let top = grid.knn(p, K);
    let kth = top.last().map_or(f64::INFINITY, |t| t.0);
    KnnFp {
        kth_bits: kth.to_bits(),
        closer: IdSet::of(top.iter().filter(|t| t.0 < kth).map(|t| t.1)),
    }
}

/// Opens the index in `dir` and answers one window, `OPEN_REPS` times,
/// each with the next of `windows`: the last index, then
/// open-to-first-answer and `LiveIndex::open` times (ms) of every
/// repetition.
pub fn reopen(
    dir: &Path,
    opts: LiveOptions,
    windows: &[Rect<2>],
    tracer: &mut Tracer,
) -> Res<(LiveIndex<2>, Vec<f64>, Vec<f64>)> {
    let (mut first_answer, mut open, mut last) = (Vec::new(), Vec::new(), None);
    for q in windows.iter().cycle().take(OPEN_REPS) {
        drop(last.take());
        let mut op = tracer.always("reopen");
        let t0 = Instant::now();
        let ix = LiveIndex::<2>::open(dir, opts)?;
        let t1 = Instant::now();
        ix.window(q)?;
        let t2 = Instant::now();
        if let Some(op) = op.as_mut() {
            op.call("live", "open", t0, t1);
            op.call("live", "window", t1, t2);
        }
        tracer.finish(op, false);
        first_answer.push((t2 - t0).as_secs_f64() * 1e3);
        open.push((t1 - t0).as_secs_f64() * 1e3);
        last = Some(ix);
    }
    Ok((last.expect("at least one open"), first_answer, open))
}

/// Items in `got` that differ from `want` (both sorted by id), counted
/// from both sides.
pub fn set_diff(mut got: Vec<Item<2>>, want: &[Item<2>]) -> u64 {
    got.sort_by_key(|i| i.id);
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < got.len() && j < want.len() {
        if got[i].id == want[j].id {
            diff += u64::from(got[i] != want[j]);
            i += 1;
            j += 1;
        } else if got[i].id < want[j].id {
            diff += 1;
            i += 1;
        } else {
            diff += 1;
            j += 1;
        }
    }
    diff + (got.len() - i + want.len() - j) as u64
}

/// One writer thread's acknowledgement latencies across rounds.
struct Writer {
    ack: Lat,
    /// Traced runs only: acks of traced and of untraced batches.
    traced: Lat,
    plain: Lat,
    errors: u64,
    tracer: Tracer,
}

/// The inputs one round ingests and checks reads against.
struct Inputs<'a> {
    items: &'a [Item<2>],
    pool: (&'a [Rect<2>], &'a [Point<2>]),
    grid: &'a Grid<'a>,
    opts: LiveOptions,
}

struct Round {
    items_per_s: f64,
    secs: f64,
    open_ms: Vec<f64>,
    live_open_ms: Vec<f64>,
    flush_ms: f64,
    write_amp: f64,
    space_amp: f64,
    stats: LiveStats,
    /// Recovered items and warm-up reads checked.
    checked: u64,
    missing: u64,
}

fn round(
    dir: &Path,
    inp: &Inputs,
    writers: &mut [Writer; 2],
    reads: &mut Vec<Reads>,
    tracer: &mut Tracer,
) -> Res<Round> {
    let round_start = Instant::now();
    let Inputs {
        items,
        pool,
        grid,
        opts,
    } = *inp;
    let params = TreeParams::paper_2d();
    let ix = LiveIndex::<2>::create(dir, params, opts)?;
    let half = items.len() / 2;
    let barrier = Barrier::new(3);
    let secs = std::thread::scope(|s| {
        let hs: Vec<_> = writers
            .iter_mut()
            .enumerate()
            .map(|(w, wr)| {
                let (ix, barrier) = (&ix, &barrier);
                let part = &items[w * half..if w == 1 { items.len() } else { half }];
                s.spawn(move || {
                    barrier.wait();
                    for chunk in part.chunks(BATCH) {
                        let mut op = wr.tracer.op("insert");
                        let t0 = Instant::now();
                        let res = ix.insert_batch(chunk);
                        let t1 = Instant::now();
                        if let Some(op) = op.as_mut() {
                            op.call("live", "insert_batch", t0, t1);
                        }
                        match res {
                            Ok(()) => {
                                wr.ack.record(t1 - t0);
                                if wr.tracer.is_on() {
                                    if op.is_some() {
                                        &mut wr.traced
                                    } else {
                                        &mut wr.plain
                                    }
                                    .record(t1 - t0);
                                }
                            }
                            Err(_) => wr.errors += 1,
                        }
                        wr.tracer.finish(op, true);
                    }
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for h in hs {
            h.join().expect("writer panicked");
        }
        t0.elapsed().as_secs_f64()
    });
    let mut op = tracer.always("flush");
    let t0 = Instant::now();
    ix.flush()?;
    let t_flush = Instant::now();
    if let Some(op) = op.as_mut() {
        op.call("live", "flush", t0, t_flush);
    }
    tracer.finish(op, false);
    let stats = ix.stats()?;
    drop(ix);
    let (ix, open_ms, live_open_ms) = reopen(dir, opts, pool.0, tracer)?;
    let missing = set_diff(ix.snapshot().items()?, items);
    // Reads run on the compacted index: the components left by an
    // ingest depend on how merges raced the writers, one tree does not.
    // A first pass warms the caches; the next READ_PASSES are measured.
    let mut op = tracer.always("compact");
    let t_compact = Instant::now();
    ix.compact()?;
    if let Some(op) = op.as_mut() {
        op.call("live", "compact", t_compact, Instant::now());
    }
    tracer.finish(op, false);
    let warm = checked_reads(
        &ix,
        pool,
        grid,
        1,
        &mut Tracer::new(false, 0, Instant::now()),
    );
    reads.push(checked_reads(&ix, pool, grid, READ_PASSES, tracer));
    let missing = missing + warm.wrong + warm.errors;
    let checked = items.len() as u64 + warm.totals.queries() + warm.errors;
    drop(ix);
    std::fs::remove_dir_all(dir).ok();

    let user = (items.len() * Item::<2>::ENCODED_SIZE) as f64;
    let page = params.page_size as f64;
    Ok(Round {
        items_per_s: ratio(items.len() as f64, secs),
        secs: round_start.elapsed().as_secs_f64(),
        open_ms,
        live_open_ms,
        flush_ms: (t_flush - t0).as_secs_f64() * 1e3,
        write_amp: ratio(stats.store_pages_written as f64 * page, user),
        space_amp: ratio(
            (stats.store_file_bytes + stats.wal_bytes) as f64,
            stats.live as f64 * Item::<2>::ENCODED_SIZE as f64,
        ),
        stats,
        checked,
        missing,
    })
}

/// The items to ingest and the read pool.
fn inputs(a: &Args) -> (Vec<Item<2>>, Vec<Rect<2>>, Vec<Point<2>>) {
    let n = a.scale.ingest_reads;
    (
        gen::points(a.scale.ingest_items, 0, &mut Rng::new(a.seed, 11)),
        gen::windows(n, WINDOW_AREA, &mut Rng::new(a.seed, 12)),
        gen::query_points(n, &mut Rng::new(a.seed, 13)),
    )
}

pub fn run(a: &Args) -> Res<Outcome> {
    let sc = a.scale;
    let mut tracer = Tracer::new(a.trace, 0, a.epoch);
    // Set-up is generating the inputs and creating the empty index: the
    // creation alone is a few fsyncs, too short to time steadily.
    let mut setups = Vec::new();
    let mut generated = None;
    for rep in 0..SETUP_REPS {
        let dir = a.work.join(format!("ingest-setup-{rep}"));
        let t0 = Instant::now();
        generated = Some(inputs(a));
        let mut op = tracer.always("setup");
        let t1 = Instant::now();
        let ix = LiveIndex::<2>::create(&dir, TreeParams::paper_2d(), sc.live_options())?;
        let t2 = Instant::now();
        drop(ix);
        if let Some(op) = op.as_mut() {
            op.call("live", "create", t1, t2);
        }
        tracer.finish(op, false);
        setups.push((t2 - t0).as_secs_f64());
        std::fs::remove_dir_all(&dir).ok();
    }
    let (items, windows, points) = generated.expect("at least one set-up");
    if let Some(path) = &a.dump_inputs {
        let mut d = InputDump::default();
        d.items(&items);
        d.rects(&windows);
        d.points(&points);
        std::fs::write(path, d.into_bytes())?;
    }
    let grid = Grid::new(&items);
    let pool = (&windows[..], &points[..]);

    layers::arm_sampler(a.trace);
    let before = measure::registry();
    let start = Instant::now();
    let mut writers = [1, 2].map(|t| Writer {
        ack: Lat::with_capacity(items.len() / BATCH + 1),
        traced: Lat::default(),
        plain: Lat::default(),
        errors: 0,
        tracer: Tracer::new(a.trace, t, a.epoch),
    });
    let inputs = Inputs {
        items: &items,
        pool,
        grid: &grid,
        opts: sc.live_options(),
    };
    let mut reads = Vec::new();
    let mut rounds = Vec::new();
    loop {
        let dir = a.work.join(format!("ingest-{}", rounds.len()));
        let r = round(&dir, &inputs, &mut writers, &mut reads, &mut tracer)?;
        let next_fits = start.elapsed().as_secs_f64() + r.secs <= a.seconds;
        rounds.push(r);
        if !next_fits {
            break;
        }
    }
    let d = RegDelta::between(&before);
    let sampled = layers::drain_sampler(a.trace);

    let (mut ack, mut traced, mut plain, mut write_errors) =
        (Lat::default(), Lat::default(), Lat::default(), 0u64);
    for w in writers {
        ack.merge(w.ack);
        traced.merge(w.traced);
        plain.merge(w.plain);
        write_errors += w.errors;
        tracer.merge(w.tracer);
    }
    let (mut win, mut knn, mut snap) = (Lat::default(), Lat::default(), Lat::default());
    let mut totals = QueryTotals::default();
    let (mut wrong, mut read_errors, mut read_secs) = (0u64, 0u64, 0.0);
    for r in reads {
        win.merge(r.win);
        knn.merge(r.knn);
        snap.merge(r.snapshot);
        totals.merge(&r.totals);
        wrong += r.wrong;
        read_errors += r.errors;
        read_secs += r.secs;
    }
    let med = |f: fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    let last = &rounds.last().expect("at least one round").stats;

    let mut o = Outcome::default();
    let e = &mut o.e2e;
    e.set("setup_s", median(setups.clone()), "s");
    e.set(
        "open_ms",
        median(rounds.iter().flat_map(|r| r.open_ms.clone()).collect()),
        "ms",
    );
    e.set("window_p50_us", win.p50_us(), "us");
    e.set("window_p99_us", win.p99_us(), "us");
    e.set("knn_p50_us", knn.p50_us(), "us");
    e.set("knn_p99_us", knn.p99_us(), "us");
    e.set(
        "queries_per_s",
        ratio(totals.queries() as f64, read_secs),
        "1/s",
    );

    e.set("write_amp", med(|r| r.write_amp), "ratio");
    e.set("space_amp", med(|r| r.space_amp), "ratio");

    let mut l = layers::zeroed();
    totals.fill(&mut l);
    layers::fill_registry(&mut l, &d);
    layers::fill_sampled(&mut l, &sampled);
    l.set("store.file_bytes", last.store_file_bytes as f64, "bytes");
    l.set(
        "store.garbage_bytes",
        last.store_garbage_bytes as f64,
        "bytes",
    );
    l.set("live.snapshot_us.p50", snap.p50_us(), "us");
    l.set("ingest_items_per_s", med(|r| r.items_per_s), "items/s");
    l.set("ack_p50_us", ack.p50_us(), "us");
    l.set("ack_p99_us", ack.p99_us(), "us");
    l.set("live.tombstones", last.tombstones as f64, "count");
    l.set("live.flush_ms", med(|r| r.flush_ms), "ms");
    l.set(
        "live.open_ms",
        median(rounds.iter().flat_map(|r| r.live_open_ms.clone()).collect()),
        "ms",
    );
    l.set(
        "live.wal_arena_allocs",
        last.wal_arena_allocs as f64,
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

    let missing: u64 = rounds.iter().map(|r| r.missing).sum();
    let checked: u64 = rounds.iter().map(|r| r.checked).sum();
    let batches = ack.len() as u64 + write_errors;
    o.attempted = batches + totals.queries() + read_errors + checked;
    o.failed = write_errors + read_errors + wrong + missing;
    o.info.push(measure::fingerprint(
        a.seed,
        "ingest",
        sc.name,
        &[
            ("leaf_cache_bytes", a.scale.leaf_cache_bytes.to_string()),
            ("items_per_round", items.len().to_string()),
            ("rounds", rounds.len().to_string()),
            ("writers", "2".into()),
            ("batch", BATCH.to_string()),
            ("loop", "\"closed\"".into()),
            ("components_at_end", last.components.len().to_string()),
        ],
    ));
    o.info.push(format!(
        "{{\"samples\": {{\"ingest_items_per_s\": {}, \"ack\": {}, \"ack_p50_us\": {}, \"ack_p99_us\": {}, \"window\": {}, \"knn\": {}, \"rounds\": {}, \"setup_s\": {}, \"opens\": {OPEN_REPS}, \"p99_supported\": {}}}}}",
        measure::list(rounds.iter().map(|r| r.items_per_s)),
        ack.len(),
        measure::num(ack.p50_us()),
        measure::num(ack.p99_us()),
        win.len(),
        knn.len(),
        rounds.len(),
        measure::list(setups.iter().copied()),
        ack.p99_supported() && win.p99_supported() && knn.p99_supported()
    ));
    o.spans = tracer.dump();
    Ok(o)
}
