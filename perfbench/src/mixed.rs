//! `mixed`: a resident index of uniform points built through the live
//! API (one insert, then `compact`), about twice the leaf cache. One
//! open-loop writer sends 256-item batches on a fixed schedule (every
//! 8th batch deletes items acked earlier in the run) while one
//! closed-loop reader alternates 0.01%-area windows and k-NN. Each
//! answer is checked against its resident-set lower bound; sampled
//! snapshots, the final index and the reopened index are checked
//! against an oracle of acked inserts minus acked deletes.

use crate::gen::{self, InputDump, Rng};
use crate::ingest::{reopen, set_diff, WINDOW_AREA};
use crate::layers::{self, QueryTotals};
use crate::measure::{self, median, ratio, Lat, RegDelta};
use crate::oracle::{self, Grid, IdSet};
use crate::trace::Tracer;
use crate::{Args, Outcome, Res, BATCH, K, OPEN_REPS};
use pr_geom::{Item, Point, Rect};
use pr_live::{LiveIndex, LiveSnapshot};
use pr_tree::{QueryScratch, TreeParams};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Open-loop write rate: about a tenth of the `ingest` workload's
/// measured capacity, so background merges keep up beside the reader.
const RATE: f64 = 10_000.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Every `DELETE_EVERY`-th batch is a delete batch.
const DELETE_EVERY: u64 = 8;
/// Snapshots the reader keeps for the post-run oracle check.
const SAMPLED_SNAPSHOTS: usize = 4;

/// What the checks compare against.
struct Truth<'a> {
    resident: &'a [Item<2>],
    run_pool: &'a [Item<2>],
    windows: &'a [Rect<2>],
    points: &'a [Point<2>],
    want_w: Vec<IdSet>,
    want_k: Vec<Vec<(f64, u32)>>,
}

impl Truth<'_> {
    fn nr(&self) -> u32 {
        self.resident.len() as u32
    }

    /// The item exists in the inputs exactly as reported.
    fn genuine(&self, it: &Item<2>) -> bool {
        let nr = self.nr();
        if it.id < nr {
            self.resident[it.id as usize] == *it
        } else {
            self.run_pool.get((it.id - nr) as usize) == Some(it)
        }
    }

    /// Every item is genuine and intersects the window, and the
    /// resident items are exactly the resident answer.
    fn window_ok(&self, slot: usize, out: &[Item<2>]) -> bool {
        let q = &self.windows[slot];
        let mut resident = IdSet::default();
        for it in out {
            if !it.rect.intersects(q) || !self.genuine(it) {
                return false;
            }
            if it.id < self.nr() {
                resident.add(it.id);
            }
        }
        resident == self.want_w[slot]
    }

    /// k genuine items at their true distances, none farther than the
    /// resident k-th neighbour, and every resident item strictly closer
    /// than the answer's k-th distance present.
    fn knn_ok(&self, slot: usize, nn: &[(Item<2>, f64)]) -> bool {
        let p = &self.points[slot];
        let want = &self.want_k[slot];
        if nn.len() != K || want.len() != K {
            return false;
        }
        if !nn
            .iter()
            .all(|(it, d)| self.genuine(it) && *d == oracle::dist(it, p))
        {
            return false;
        }
        let kth = nn.iter().map(|a| a.1).fold(f64::NEG_INFINITY, f64::max);
        if kth > want[K - 1].0 {
            return false;
        }
        let got = IdSet::of(
            nn.iter()
                .filter(|a| a.1 < kth && a.0.id < self.nr())
                .map(|a| a.0.id),
        );
        got == IdSet::of(want.iter().filter(|w| w.0 < kth).map(|w| w.1))
    }
}

/// One acked write batch: WAL sequence numbers used so far in the run
/// after it, and what it did.
struct Acked {
    ops_after: u64,
    insert: bool,
    items: Vec<Item<2>>,
}

struct WriterLog {
    acked: Vec<Acked>,
    ack: Lat,
    lag: Lat,
    errors: u64,
    short_deletes: u64,
    items: u64,
    secs: f64,
    tracer: Tracer,
}

fn writer(a: &Args, ix: &LiveIndex<2>, t: &Truth, barrier: &Barrier) -> WriterLog {
    let mut log = WriterLog {
        acked: Vec::new(),
        ack: Lat::default(),
        lag: Lat::default(),
        errors: 0,
        short_deletes: 0,
        items: 0,
        secs: 0.0,
        tracer: Tracer::new(a.trace, 1, a.epoch),
    };
    let mut rng = Rng::new(a.seed, 26);
    let period = Duration::from_secs_f64(BATCH as f64 / RATE);
    let mut live: Vec<Item<2>> = Vec::new();
    let (mut next, mut ops) = (0usize, 0u64);
    barrier.wait();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(a.seconds);
    for j in 0u64.. {
        let due = start + period * j as u32;
        if due >= deadline || next + BATCH > t.run_pool.len() {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        log.lag
            .record(Instant::now().saturating_duration_since(due));
        let delete = j % DELETE_EVERY == DELETE_EVERY - 1 && live.len() >= BATCH;
        let batch: Vec<Item<2>> = if delete {
            (0..BATCH)
                .map(|_| live.swap_remove(rng.below(live.len())))
                .collect()
        } else {
            t.run_pool[next..next + BATCH].to_vec()
        };
        let mut op = log.tracer.op(if delete { "delete" } else { "insert" });
        let t0 = Instant::now();
        let res = if delete {
            ix.delete_batch(&batch)
        } else {
            ix.insert_batch(&batch).map(|()| BATCH as u64)
        };
        let t1 = Instant::now();
        if let Some(op) = op.as_mut() {
            let name = if delete {
                "delete_batch"
            } else {
                "insert_batch"
            };
            op.call("live", name, t0, t1);
        }
        log.tracer.finish(op, true);
        match res {
            Ok(n) => {
                log.ack.record(t1.saturating_duration_since(due));
                log.short_deletes += BATCH as u64 - n;
                log.items += n;
                ops += n;
                if !delete {
                    next += BATCH;
                    live.extend_from_slice(&batch);
                }
                log.acked.push(Acked {
                    ops_after: ops,
                    insert: !delete,
                    items: batch,
                });
            }
            Err(_) => {
                log.errors += 1;
                if delete {
                    live.extend_from_slice(&batch);
                } else {
                    next += BATCH;
                }
            }
        }
    }
    log.secs = start.elapsed().as_secs_f64();
    log
}

struct ReaderLog {
    win: Lat,
    knn: Lat,
    snapshot: Lat,
    traced: Lat,
    plain: Lat,
    totals: QueryTotals,
    wrong: u64,
    errors: u64,
    secs: f64,
    samples: Vec<LiveSnapshot<2>>,
    tracer: Tracer,
}

fn reader(a: &Args, ix: &LiveIndex<2>, t: &Truth, barrier: &Barrier) -> ReaderLog {
    let mut log = ReaderLog {
        win: Lat::with_capacity(1 << 20),
        knn: Lat::with_capacity(1 << 20),
        snapshot: Lat::with_capacity(1 << 21),
        traced: Lat::default(),
        plain: Lat::default(),
        totals: QueryTotals::default(),
        wrong: 0,
        errors: 0,
        secs: 0.0,
        samples: Vec::new(),
        tracer: Tracer::new(a.trace, 2, a.epoch),
    };
    let mut rng = Rng::new(a.seed, 27);
    let mut scratch = QueryScratch::new();
    let (mut out, mut nn) = (Vec::new(), Vec::new());
    let cap = ix.params().leaf_cap;
    barrier.wait();
    let start = Instant::now();
    let span = Duration::from_secs_f64(a.seconds);
    let sample_at =
        |i: usize| start + span.mul_f64((i + 1) as f64 / (SAMPLED_SNAPSHOTS + 1) as f64);
    for i in 0u64.. {
        // The reader yields between queries: with two cores shared by
        // reader, writer and merge thread, a reader that never yields
        // makes the writer's acks wait out the scheduler's time slice.
        std::thread::yield_now();
        let slot = rng.below(t.windows.len());
        let window = i.is_multiple_of(2);
        let mut op = log.tracer.op(if window { "window" } else { "knn" });
        let t0 = Instant::now();
        let snap = ix.snapshot();
        let t1 = Instant::now();
        let res = if window {
            snap.window_into(&t.windows[slot], &mut scratch, &mut out)
        } else {
            snap.nearest_neighbors_into(&t.points[slot], K, &mut scratch, &mut nn)
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
        log.snapshot.record(t1 - t0);
        log.totals.components += snap.num_components() as u64;
        match res {
            Ok(s) if window => {
                log.win.record(t2 - t0);
                if a.trace {
                    if op.is_some() {
                        &mut log.traced
                    } else {
                        &mut log.plain
                    }
                    .record(t2 - t0);
                }
                log.totals.window(&s, snap.len(), cap);
                log.wrong += u64::from(!t.window_ok(slot, &out));
            }
            Ok(s) => {
                log.knn.record(t2 - t0);
                log.totals.knn(&s);
                log.wrong += u64::from(!t.knn_ok(slot, &nn));
            }
            Err(_) => log.errors += 1,
        }
        log.tracer.finish(op, true);
        if log.samples.len() < SAMPLED_SNAPSHOTS && t2 >= sample_at(log.samples.len()) {
            log.samples.push(snap);
        }
        if t2 >= start + span {
            break;
        }
    }
    log.secs = start.elapsed().as_secs_f64();
    log
}

/// The oracle after the first `ops` acked operations of the run:
/// resident items plus acked inserts minus acked deletes, by id.
fn oracle_at(t: &Truth, acked: &[Acked], ops: u64) -> Option<Vec<Item<2>>> {
    let upto = acked.partition_point(|b| b.ops_after <= ops);
    let done = if upto == 0 {
        0
    } else {
        acked[upto - 1].ops_after
    };
    if done != ops {
        return None;
    }
    let mut alive = vec![false; t.run_pool.len()];
    for b in &acked[..upto] {
        for it in &b.items {
            alive[(it.id - t.nr()) as usize] = b.insert;
        }
    }
    let mut out = t.resident.to_vec();
    out.extend(t.run_pool.iter().zip(&alive).filter(|p| *p.1).map(|p| *p.0));
    Some(out)
}

/// Differences between a snapshot and the oracle at its sequence
/// number; a sequence number between acked batches counts as one.
fn check_snapshot(t: &Truth, acked: &[Acked], base_seq: u64, snap: &LiveSnapshot<2>) -> Res<u64> {
    Ok(
        match oracle_at(t, acked, snap.seq().saturating_sub(base_seq)) {
            Some(want) => set_diff(snap.items()?, &want),
            None => 1,
        },
    )
}

/// One set-up: create, insert the resident set, compact, and warm the
/// cache with one pass over the query pool.
fn setup(a: &Args, rep: usize, t: &Truth, tracer: &mut Tracer) -> Res<(LiveIndex<2>, f64)> {
    let dir = a.work.join(format!("mixed-{rep}"));
    let mut op = tracer.always("setup");
    let t0 = Instant::now();
    let ix = LiveIndex::<2>::create(&dir, TreeParams::paper_2d(), a.scale.live_options())?;
    let t1 = Instant::now();
    ix.insert_batch(t.resident)?;
    let t2 = Instant::now();
    ix.compact()?;
    ix.wait_idle()?;
    let t3 = Instant::now();
    let snap = ix.snapshot();
    let mut scratch = QueryScratch::new();
    let (mut out, mut nn) = (Vec::new(), Vec::new());
    for (q, p) in t.windows.iter().zip(t.points) {
        snap.window_into(q, &mut scratch, &mut out)?;
        snap.nearest_neighbors_into(p, K, &mut scratch, &mut nn)?;
    }
    let t4 = Instant::now();
    if let Some(op) = op.as_mut() {
        op.call("live", "create", t0, t1);
        op.call("live", "insert_batch", t1, t2);
        op.call("live", "compact", t2, t3);
        op.call("live", "warm", t3, t4);
    }
    tracer.finish(op, false);
    Ok((ix, (t4 - t0).as_secs_f64()))
}

pub fn run(a: &Args) -> Res<Outcome> {
    let sc = a.scale;
    let resident = gen::points(sc.mixed_resident, 0, &mut Rng::new(a.seed, 21));
    let pool_n = (a.seconds * RATE) as usize + 2 * BATCH;
    let run_pool = gen::points(pool_n, resident.len() as u32, &mut Rng::new(a.seed, 22));
    let windows = gen::windows(sc.mixed_pool, WINDOW_AREA, &mut Rng::new(a.seed, 23));
    let points = gen::query_points(sc.mixed_pool, &mut Rng::new(a.seed, 24));
    if let Some(path) = &a.dump_inputs {
        let mut d = InputDump::default();
        d.items(&resident);
        d.items(&run_pool);
        d.rects(&windows);
        d.points(&points);
        std::fs::write(path, d.into_bytes())?;
    }
    let grid = Grid::new(&resident);
    let t = Truth {
        want_w: windows.iter().map(|q| grid.window(q)).collect(),
        want_k: points.iter().map(|p| grid.knn(p, K)).collect(),
        resident: &resident,
        run_pool: &run_pool,
        windows: &windows,
        points: &points,
    };

    let mut tracer = Tracer::new(a.trace, 0, a.epoch);
    let mut setups = Vec::new();
    let mut built = None;
    for rep in 0..SETUP_REPS {
        drop(built.take());
        let (ix, secs) = setup(a, rep, &t, &mut tracer)?;
        setups.push(secs);
        built = Some(ix);
    }
    let ix = built.expect("at least one set-up");

    let page = ix.params().page_size as u64;
    let at_setup = ix.stats()?;
    let page_bytes: u64 = at_setup.store_runs.iter().map(|r| r.num_pages).sum::<u64>() * page;
    let budget = sc.leaf_cache_bytes as u64;
    let size_line = format!(
        "{{\"size_check\": {{\"index_page_bytes\": {page_bytes}, \"leaf_cache_bytes\": {budget}, \"exceeds\": {}}}}}",
        page_bytes > budget
    );
    if page_bytes <= budget {
        return Err(format!(
            "mixed index pages ({page_bytes} B) do not exceed the leaf cache ({budget} B)"
        )
        .into());
    }

    layers::arm_sampler(a.trace);
    let before = measure::registry();
    let barrier = Barrier::new(2);
    let (w, r) = std::thread::scope(|s| {
        let (ix, t, barrier) = (&ix, &t, &barrier);
        let w = s.spawn(move || writer(a, ix, t, barrier));
        let r = s.spawn(move || reader(a, ix, t, barrier));
        (
            w.join().expect("writer panicked"),
            r.join().expect("reader panicked"),
        )
    });
    ix.wait_idle()?;
    ix.flush()?;
    let d = RegDelta::between(&before);
    let sampled = layers::drain_sampler(a.trace);
    let end = ix.stats()?;

    // Oracle checks: sampled snapshots, the final index, and the
    // reopened index.
    let base_seq = at_setup.durable_seq;
    let mut missing = 0;
    for snap in &r.samples {
        missing += check_snapshot(&t, &w.acked, base_seq, snap)?;
    }
    missing += check_snapshot(&t, &w.acked, base_seq, &ix.snapshot())?;
    let last_ops = w.acked.last().map_or(0, |b| b.ops_after);
    let want_end = oracle_at(&t, &w.acked, last_ops).expect("the last batch is a boundary");
    drop(ix);
    // Reopen after the flush, repeated; the last open is checked.
    let dir = a.work.join(format!("mixed-{}", SETUP_REPS - 1));
    let (ix, open_ms, live_open_ms) = reopen(&dir, sc.live_options(), &windows, &mut tracer)?;
    missing += set_diff(ix.snapshot().items()?, &want_end);
    drop(ix);

    let enc = Item::<2>::ENCODED_SIZE as f64;
    let user_written = w.items as f64 * enc;
    let pages_written = end.store_pages_written - at_setup.store_pages_written;
    let queries = r.totals.queries();
    let (mut win, mut knn, mut snap_lat) = (r.win, r.knn, r.snapshot);
    let (mut ack, mut lag) = (w.ack, w.lag);
    let (mut traced, mut plain) = (r.traced, r.plain);
    let mut o = Outcome::default();
    let e = &mut o.e2e;
    e.set("setup_s", median(setups.clone()), "s");
    e.set("open_ms", median(open_ms), "ms");
    e.set("window_p50_us", win.p50_us(), "us");
    e.set("window_p99_us", win.p99_us(), "us");
    e.set("knn_p50_us", knn.p50_us(), "us");
    e.set("knn_p99_us", knn.p99_us(), "us");
    e.set("queries_per_s", ratio(queries as f64, r.secs), "1/s");
    e.set(
        "write_amp",
        ratio((pages_written * page) as f64, user_written),
        "ratio",
    );
    e.set(
        "space_amp",
        ratio(
            (end.store_file_bytes + end.wal_bytes) as f64,
            end.live as f64 * enc,
        ),
        "ratio",
    );

    let mut l = layers::zeroed();
    r.totals.fill(&mut l);
    layers::fill_registry(&mut l, &d);
    layers::fill_sampled(&mut l, &sampled);
    l.set("store.file_bytes", end.store_file_bytes as f64, "bytes");
    l.set(
        "store.garbage_bytes",
        end.store_garbage_bytes as f64,
        "bytes",
    );
    l.set("live.snapshot_us.p50", snap_lat.p50_us(), "us");
    l.set("live.tombstones", end.tombstones as f64, "count");
    l.set("live.open_ms", median(live_open_ms), "ms");
    l.set(
        "live.wal_arena_allocs",
        end.wal_arena_allocs as f64,
        "count",
    );
    l.set("gen.lag_us.p99", lag.p99_us(), "us");
    l.set(
        "ingest_items_per_s",
        ratio(w.items as f64, w.secs),
        "items/s",
    );
    l.set("ack_p50_us", ack.p50_us(), "us");
    l.set("ack_p99_us", ack.p99_us(), "us");
    l.set(
        "obs.trace_overhead_pct",
        (ratio(traced.p50_us(), plain.p50_us()) - 1.0) * 100.0,
        "%",
    );
    tracer.merge(w.tracer);
    tracer.merge(r.tracer);
    for (layer, us) in tracer.self_us_per_op() {
        l.set(&format!("self.{layer}_us_per_op"), us, "us");
    }
    o.layer = l;

    let batches = ack.len() as u64 + w.errors;
    let checked = (SAMPLED_SNAPSHOTS + 2) as u64;
    o.attempted = batches + queries + r.errors + checked;
    o.failed = w.errors + w.short_deletes + r.errors + r.wrong + missing;
    o.info.push(measure::fingerprint(
        a.seed,
        "mixed",
        sc.name,
        &[
            ("leaf_cache_bytes", budget.to_string()),
            ("resident_items", resident.len().to_string()),
            ("writer", format!("\"open loop, {RATE} items/s, batch {BATCH}, every {DELETE_EVERY}th batch deletes\"")),
            ("reader", "\"closed loop, 1 thread\"".into()),
        ],
    ));
    o.info.push(size_line);
    o.info.push(format!(
        "{{\"samples\": {{\"window\": {}, \"knn\": {}, \"ingest_items_per_s\": {}, \"ack\": {}, \"ack_p50_us\": {}, \"ack_p99_us\": {}, \"snapshots_checked\": {}, \"setup_s\": {}, \"opens\": {OPEN_REPS}, \"p99_supported\": {}}}}}",
        win.len(),
        knn.len(),
        measure::num(ratio(w.items as f64, w.secs)),
        ack.len(),
        measure::num(ack.p50_us()),
        measure::num(ack.p99_us()),
        r.samples.len() + 2,
        measure::list(setups.iter().copied()),
        win.p99_supported() && knn.p99_supported() && ack.p99_supported()
    ));
    o.spans = tracer.dump();
    Ok(o)
}
