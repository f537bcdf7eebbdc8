//! Per-layer metrics shared by the workloads: traversal counts summed
//! from each answer's `QueryStats`, and counter/histogram deltas of the
//! program's `pr_obs` registry over the measured phase.

use crate::measure::{ratio, Metrics, RegDelta};
use pr_tree::QueryStats;

/// Traversal counts summed over the measured queries.
#[derive(Default, Clone)]
pub struct QueryTotals {
    pub windows: u64,
    pub knns: u64,
    pub w_leaves: u64,
    pub w_internal: u64,
    pub w_results: u64,
    pub knn_leaves: u64,
    pub device_reads: u64,
    pub lc_hits: u64,
    pub lc_misses: u64,
    pub bound_sum: f64,
    pub bound_max: f64,
    pub components: u64,
}

/// Leaves read over the paper's bound ⌈√(N/B)⌉ + ⌈T/B⌉ for one window
/// query on `n` items with leaf capacity `b`.
pub fn bound_ratio(s: &QueryStats, n: u64, b: usize) -> f64 {
    let b = b as f64;
    let bound = (n as f64 / b).sqrt().ceil() + (s.results as f64 / b).ceil();
    ratio(s.leaves_visited as f64, bound.max(1.0))
}

impl QueryTotals {
    pub fn window(&mut self, s: &QueryStats, n: u64, leaf_cap: usize) {
        self.windows += 1;
        self.w_leaves += s.leaves_visited;
        self.w_internal += s.internal_visited;
        self.w_results += s.results;
        self.common(s);
        let r = bound_ratio(s, n, leaf_cap);
        self.bound_sum += r;
        self.bound_max = self.bound_max.max(r);
    }

    pub fn knn(&mut self, s: &QueryStats) {
        self.knns += 1;
        self.knn_leaves += s.leaves_visited;
        self.common(s);
    }

    fn common(&mut self, s: &QueryStats) {
        self.device_reads += s.device_reads;
        self.lc_hits += s.leaf_cache_hits;
        self.lc_misses += s.leaf_cache_misses;
    }

    pub fn merge(&mut self, o: &QueryTotals) {
        self.windows += o.windows;
        self.knns += o.knns;
        self.w_leaves += o.w_leaves;
        self.w_internal += o.w_internal;
        self.w_results += o.w_results;
        self.knn_leaves += o.knn_leaves;
        self.device_reads += o.device_reads;
        self.lc_hits += o.lc_hits;
        self.lc_misses += o.lc_misses;
        self.bound_sum += o.bound_sum;
        self.bound_max = self.bound_max.max(o.bound_max);
        self.components += o.components;
    }

    pub fn queries(&self) -> u64 {
        self.windows + self.knns
    }

    /// The tree and em metrics that come from the answers themselves.
    pub fn fill(&self, m: &mut Metrics) {
        let w = self.windows as f64;
        m.set(
            "tree.leaves_per_query",
            ratio(self.w_leaves as f64, w),
            "count",
        );
        m.set(
            "tree.internal_per_query",
            ratio(self.w_internal as f64, w),
            "count",
        );
        m.set(
            "tree.results_per_leaf",
            ratio(self.w_results as f64, self.w_leaves as f64),
            "count",
        );
        m.set("tree.bound_ratio.mean", ratio(self.bound_sum, w), "ratio");
        m.set("tree.bound_ratio.max", self.bound_max, "ratio");
        m.set(
            "tree.knn_leaves_per_query",
            ratio(self.knn_leaves as f64, self.knns as f64),
            "count",
        );
        m.set(
            "tree.leaf_cache_hit_rate",
            ratio(self.lc_hits as f64, (self.lc_hits + self.lc_misses) as f64),
            "ratio",
        );
        let q = self.queries() as f64;
        m.set(
            "em.reads_per_query",
            ratio(self.device_reads as f64, q),
            "count",
        );
        m.set(
            "live.components_per_query",
            ratio(self.components as f64, q),
            "count",
        );
    }
}

/// Registry deltas over the measured phase, for every layer.
pub fn fill_registry(m: &mut Metrics, d: &RegDelta) {
    let hits = d.counter("tree_node_cache_hits_total");
    let misses = d.counter("tree_node_cache_misses_total");
    m.set(
        "tree.node_cache_hit_rate",
        ratio(hits, hits + misses),
        "ratio",
    );
    m.set(
        "tree.leaf_cache_ghost_hits",
        d.counter("tree_leaf_cache_ghost_hits_total"),
        "count",
    );
    m.set(
        "tree.cache_epochs_retired",
        d.counter("tree_cache_epochs_retired_total"),
        "count",
    );
    for (metric, name) in [
        ("em.device_reads", "em_device_reads_total"),
        ("em.device_writes", "em_device_writes_total"),
        ("em.device_fsyncs", "em_device_fsyncs_total"),
        ("em.io_errors", "em_io_errors_total"),
        ("em.io_retries", "em_io_retries_total"),
        ("store.commits", "store_commits_total"),
        ("store.pages_written", "store_pages_written_total"),
        ("store.pages_reused", "store_pages_reused_total"),
        ("live.seals", "live_memtable_seals_total"),
        ("live.merges", "live_merges_total"),
    ] {
        m.set(metric, d.counter(name), "count");
    }
    let written = d.counter("store_pages_written_total");
    let reused = d.counter("store_pages_reused_total");
    m.set(
        "store.reuse_ratio",
        ratio(reused, written + reused),
        "ratio",
    );
    for (metric, name, q) in [
        ("store.commit_us.p50", "store_commit_us", 0.5),
        ("store.commit_us.p99", "store_commit_us", 0.99),
        ("live.wal_fsync_us.p50", "live_wal_fsync_us", 0.5),
        ("live.wal_fsync_us.p99", "live_wal_fsync_us", 0.99),
        ("live.merge_us.p50", "live_merge_us", 0.5),
        ("live.merge_us.p99", "live_merge_us", 0.99),
    ] {
        m.set(metric, d.hist_us(name, q), "us");
    }
    let records = d.counter("live_wal_records_total");
    m.set(
        "live.records_per_group",
        ratio(records, d.counter("live_wal_groups_total")),
        "count",
    );
    m.set(
        "live.fsyncs_per_1k_items",
        ratio(d.counter("live_wal_fsyncs_total") * 1000.0, records),
        "count",
    );
    m.set(
        "live.wal_bytes_per_item",
        ratio(d.counter("live_wal_bytes_total"), records),
        "bytes",
    );
}

/// The program's own sampled spans inside writes and merges.
pub fn fill_sampled(m: &mut Metrics, traces: &[pr_obs::Trace]) {
    use crate::trace::sampled_span_us;
    for (metric, kind, name) in [
        ("live.split.wal_append_us", "write", "wal_append"),
        ("live.split.wal_fsync_us", "write", "wal_fsync"),
        ("live.split.apply_us", "write", "apply"),
        ("live.split.wait_us", "write", "wait"),
        ("live.split.merge_bulk_load_us", "merge", "bulk_load"),
        ("live.split.merge_commit_us", "merge", "commit_snapshot"),
    ] {
        m.set(metric, sampled_span_us(traces, kind, name), "us");
    }
}

/// Sets every per-layer metric to 0, so a workload only fills the
/// layers it exercises.
pub fn zeroed() -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in crate::PER_LAYER {
        m.set(name, 0.0, unit);
    }
    m
}

/// Arms the program's span sampler for a traced run.
pub fn arm_sampler(on: bool) {
    if on {
        pr_obs::trace::set_sampling(16);
        pr_obs::trace::install_collector(100_000);
    }
}

pub fn drain_sampler(on: bool) -> Vec<pr_obs::Trace> {
    if on {
        pr_obs::trace::set_sampling(0);
        pr_obs::trace::drain_collector()
    } else {
        Vec::new()
    }
}
