//! Reusable per-query scratch state — the allocation-free traversal.
//!
//! Every buffer a query needs lives here: the DFS stack, the raw-page
//! read buffer and the SoA transcode target for uncached (leaf) visits,
//! the match mask the batch kernels write, and the k-NN search's node
//! heap, k-best heap and batched-distance buffers. A [`QueryScratch`]
//! is created once and threaded through the `_into` variants
//! ([`crate::tree::RTree::window_into`],
//! [`crate::tree::RTree::window_count_into`],
//! [`crate::tree::RTree::nearest_neighbors_into`],
//! [`crate::tree::RTree::intersects_any_into`]); after the first few
//! queries sized the buffers, the steady-state hot path performs **zero
//! heap allocations per query**. `par_windows` gives each worker thread
//! one scratch for its whole chunk.
//!
//! The convenience wrappers (`window`, `window_count`, …) construct a
//! fresh scratch per call, so one-shot callers pay only what the old
//! engine already paid.

use crate::knn::{Neighbor, NodeCandidate};
use crate::soa::SoaNode;
use pr_em::BlockId;
use std::collections::BinaryHeap;

/// Reusable buffers for window and k-NN queries (see module docs).
///
/// The contents are an implementation detail: a scratch carries no
/// query state between calls other than retained capacity, so one
/// scratch may serve any number of queries against any number of trees
/// of the same dimension `D`, one at a time.
pub struct QueryScratch<const D: usize> {
    /// DFS stack of pages still to visit.
    pub(crate) stack: Vec<BlockId>,
    /// Raw page buffer for device reads on cache misses.
    pub(crate) page_buf: Vec<u8>,
    /// Per-entry match mask written by the batch kernels.
    pub(crate) mask: Vec<u8>,
    /// SoA transcode target for uncached nodes (leaves, in the paper's
    /// cache-all-internal-nodes steady state).
    pub(crate) soa: SoaNode<D>,
    /// Batched `min_dist2` output (k-NN): a node's entries' min-dist²,
    /// the keys of its children or the distances of its items.
    pub(crate) dist: Vec<f64>,
    /// Batched max-dist² output (k-NN): an internal node's children's
    /// max-dist², from which the search's max-dist bound is selected.
    pub(crate) far: Vec<f64>,
    /// k-NN min-heap of nodes still to visit, keyed by min-dist²; only
    /// nodes within the search's bound enter it.
    pub(crate) nodes: BinaryHeap<NodeCandidate>,
    /// k-NN max-heap of the (at most `k`) best admitted items, the
    /// worst on top: its top is the k-th distance bound once full.
    pub(crate) best: BinaryHeap<Neighbor<D>>,
    /// Span-trace context riding the query (see `pr_obs::trace`). The
    /// engine arms it via sampling at the top of each traversal and
    /// publishes the finished trace; callers wanting a guaranteed trace
    /// (`--explain`) set it to [`pr_obs::SpanCtx::forced`] beforehand.
    pub trace: pr_obs::SpanCtx,
}

impl<const D: usize> QueryScratch<D> {
    /// Creates an empty scratch; buffers grow to steady-state sizes on
    /// first use and are reused afterwards.
    pub fn new() -> Self {
        QueryScratch {
            stack: Vec::new(),
            page_buf: Vec::new(),
            mask: Vec::new(),
            soa: SoaNode::new_empty(),
            dist: Vec::new(),
            far: Vec::new(),
            nodes: BinaryHeap::new(),
            best: BinaryHeap::new(),
            trace: pr_obs::SpanCtx::off(),
        }
    }
}

impl<const D: usize> Default for QueryScratch<D> {
    fn default() -> Self {
        Self::new()
    }
}
