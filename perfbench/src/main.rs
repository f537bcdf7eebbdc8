//! The repository benchmark: named workloads against the public API of
//! `pr-tree`, `pr-store` and `pr-live`, every answer checked.
//!
//! ```text
//! perfbench --workload <read_hot|ingest|mixed> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale full|tiny] [--work-dir DIR] [--out-dir DIR] [--dump-inputs FILE]
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Earlier lines carry the host
//! fingerprint, size checks, sample counts and (for `read_hot`) the
//! deterministic count block.

mod gen;
mod ingest;
mod layers;
mod measure;
mod mixed;
mod oracle;
mod read_hot;
mod trace;

use measure::Metrics;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics: every workload reports every one of them. The
/// write path's acked rate and ack latency are not among them: on a
/// shared 2-core host, disk and CPU contention move them between runs
/// by more than any bound a regression gate may use, so
/// `ingest_items_per_s` and `ack_p50_us`/`ack_p99_us` are reported (in
/// traced runs and in every run's sample line) but not gated.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("open_ms", "ms"),
    ("window_p50_us", "us"),
    ("window_p99_us", "us"),
    ("knn_p50_us", "us"),
    ("knn_p99_us", "us"),
    ("queries_per_s", "1/s"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
];

/// Per-layer metrics of the traced run (0 where a workload does not
/// exercise the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tree.build_s", "s"),
    ("tree.leaves_per_query", "count"),
    ("tree.internal_per_query", "count"),
    ("tree.results_per_leaf", "count"),
    ("tree.bound_ratio.mean", "ratio"),
    ("tree.bound_ratio.max", "ratio"),
    ("tree.knn_leaves_per_query", "count"),
    ("tree.node_cache_hit_rate", "ratio"),
    ("tree.leaf_cache_hit_rate", "ratio"),
    ("tree.leaf_cache_ghost_hits", "count"),
    ("tree.cache_epochs_retired", "count"),
    ("em.reads_per_query", "count"),
    ("em.device_reads", "count"),
    ("em.device_writes", "count"),
    ("em.device_fsyncs", "count"),
    ("em.io_errors", "count"),
    ("em.io_retries", "count"),
    ("store.save_s", "s"),
    ("store.open_ms", "ms"),
    ("store.commits", "count"),
    ("store.commit_us.p50", "us"),
    ("store.commit_us.p99", "us"),
    ("store.pages_written", "count"),
    ("store.pages_reused", "count"),
    ("store.reuse_ratio", "ratio"),
    ("store.garbage_bytes", "bytes"),
    ("store.file_bytes", "bytes"),
    ("store.verified_pages", "count"),
    ("live.snapshot_us.p50", "us"),
    ("live.components_per_query", "count"),
    ("live.records_per_group", "count"),
    ("live.fsyncs_per_1k_items", "count"),
    ("live.wal_fsync_us.p50", "us"),
    ("live.wal_fsync_us.p99", "us"),
    ("live.wal_bytes_per_item", "bytes"),
    ("live.seals", "count"),
    ("live.merges", "count"),
    ("live.merge_us.p50", "us"),
    ("live.merge_us.p99", "us"),
    ("live.tombstones", "count"),
    ("live.flush_ms", "ms"),
    ("live.open_ms", "ms"),
    ("live.wal_arena_allocs", "count"),
    ("live.split.wal_append_us", "us"),
    ("live.split.wal_fsync_us", "us"),
    ("live.split.apply_us", "us"),
    ("live.split.wait_us", "us"),
    ("live.split.merge_bulk_load_us", "us"),
    ("live.split.merge_commit_us", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("ingest_items_per_s", "items/s"),
    ("ack_p50_us", "us"),
    ("ack_p99_us", "us"),
    ("gen.lag_us.p99", "us"),
    ("self.harness_us_per_op", "us"),
    ("self.tree_us_per_op", "us"),
    ("self.store_us_per_op", "us"),
    ("self.live_us_per_op", "us"),
];

/// Input sizes. `full` is what the benchmark measures; `tiny` keeps the
/// same shape (the cache still holds `read_hot` and not `mixed`) for
/// the self-test.
#[derive(Clone, Copy)]
pub struct Scale {
    pub name: &'static str,
    pub leaf_cache_bytes: usize,
    pub hot_items: usize,
    pub hot_pool: usize,
    pub ingest_items: usize,
    pub ingest_reads: usize,
    pub mixed_resident: usize,
    pub mixed_pool: usize,
}

const FULL: Scale = Scale {
    name: "full",
    leaf_cache_bytes: pr_tree::DEFAULT_LEAF_CACHE_BYTES,
    hot_items: 200_000,
    hot_pool: 2048,
    ingest_items: 2_000_000,
    ingest_reads: 8192,
    mixed_resident: 1_000_000,
    mixed_pool: 4096,
};

const TINY: Scale = Scale {
    name: "tiny",
    leaf_cache_bytes: 512 << 10,
    hot_items: 5_000,
    hot_pool: 128,
    ingest_items: 20_000,
    ingest_reads: 1000,
    mixed_resident: 20_000,
    mixed_pool: 256,
};

impl Scale {
    /// Live-index options: the defaults, with this scale's leaf cache.
    pub fn live_options(&self) -> pr_live::LiveOptions {
        pr_live::LiveOptions {
            leaf_cache_bytes: self.leaf_cache_bytes,
            ..pr_live::LiveOptions::default()
        }
    }
}

/// Opens timed per run; `open_ms` is their median.
pub const OPEN_REPS: usize = 21;
/// Items per `insert_batch`/`delete_batch` call on every write path.
pub const BATCH: usize = 256;
/// k of every k-NN query.
pub const K: usize = 10;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub work: PathBuf,
    pub out: Option<PathBuf>,
    pub dump_inputs: Option<PathBuf>,
    /// Start of the run; the origin of span timestamps.
    pub epoch: Instant,
}

/// What a workload hands back for printing.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Metrics,
    pub layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// JSON lines printed before the result line.
    pub info: Vec<String>,
    /// Span dump of the traced run.
    pub spans: String,
}

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

fn parse_args() -> Res<Args> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut scale, mut work, mut out, mut dump) = (FULL, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>()?),
            "--seconds" => seconds = Some(val.parse::<f64>()?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = match val.as_str() {
                    "full" => FULL,
                    "tiny" => TINY,
                    _ => return Err(format!("unknown scale {val}").into()),
                }
            }
            "--work-dir" => work = Some(PathBuf::from(val)),
            "--out-dir" => out = Some(PathBuf::from(val)),
            "--dump-inputs" => dump = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}").into()),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        scale,
        work: work.unwrap_or_else(|| PathBuf::from(".perfbench/work")),
        out,
        dump_inputs: dump,
        epoch: Instant::now(),
    })
}

fn run(a: &Args) -> Res<Outcome> {
    match a.workload.as_str() {
        "read_hot" => read_hot::run(a),
        "ingest" => ingest::run(a),
        "mixed" => mixed::run(a),
        w => Err(format!("unknown workload {w} (read_hot, ingest, mixed)").into()),
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::remove_dir_all(&a.work).ok();
    if let Err(e) = std::fs::create_dir_all(&a.work) {
        eprintln!("perfbench: cannot create {}: {e}", a.work.display());
        std::process::exit(2);
    }
    let res = run(&a);
    std::fs::remove_dir_all(&a.work).ok();
    let o = match res {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload);
            std::process::exit(1);
        }
    };
    if let (Some(dir), true) = (&a.out, a.trace) {
        let path = dir.join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, &o.spans)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    for line in &o.info {
        println!("{line}");
    }
    let error_rate = measure::ratio(o.failed as f64, o.attempted as f64);
    println!("{{\"error_rate\": {}}}", measure::num(error_rate));
    let shown = if a.trace {
        o.layer.select(PER_LAYER)
    } else {
        o.e2e.select(END_TO_END)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        shown.json()
    );
}
