//! The two node caches behind every query: pinned internal nodes and a
//! shared, bounded leaf cache.
//!
//! The paper's query experiments keep *all internal nodes* in memory
//! ("they never occupied more than 6MB", §3.3), so the reported query
//! I/O equals the number of leaves fetched. [`PinnedNodes`] is exactly
//! that setup: each [`crate::tree::RTree`] owns one map of its internal
//! nodes, never evicted, which leaves never enter.
//!
//! # Pinned internal nodes
//!
//! * **Lock-free probes.** The map is an immutable
//!   `Arc<HashMap<BlockId, Arc<SoaNode>>>` behind a `RwLock`. A query
//!   clones the `Arc` once ([`PinnedNodes::view`]) and then probes a
//!   plain `HashMap` per node visit — no lock, no refcount traffic — so
//!   any number of threads read one tree without contending.
//! * **Lazy, copy-on-write admission.** [`crate::tree::RTree::warm_cache`]
//!   pins every internal node up front. A tree nobody warmed (an
//!   LPR-tree component, a Guttman tree) pins lazily instead: an
//!   internal node that misses is read from the device, and the query
//!   admits everything it read through `Arc::make_mut` when it finishes
//!   ([`PinnedNodes::finish`]). A query therefore copies the map at most
//!   once, and only while another query holds a snapshot; a
//!   single-threaded run never copies it.
//! * **Writes.** [`crate::tree::RTree::write_node`] pins or unpins the
//!   rewritten page according to its new level. Dynamic updates hold
//!   `&mut self`, so no snapshot is outstanding and nothing is copied.
//! * **Exact statistics.** Queries count hits and misses into a local
//!   [`CacheTally`] and flush it once into the shared atomic
//!   [`pr_em::HitCounters`]; every lookup counts exactly once, so totals
//!   equal the serial run's whatever the thread interleaving.
//!
//! # The shared leaf cache
//!
//! Leaves of store-backed trees would otherwise cost a device read and
//! a transcode on every visit of every query. [`LeafCache`] is the
//! LSM-style cure: one bounded, sharded cache of transcoded leaf
//! [`SoaNode`]s **shared across trees** — all components of one pr-live
//! snapshot feed one cache — keyed by `(cache epoch, BlockId)` and
//! sized in **bytes**, not pages. It is an attachment
//! ([`crate::tree::RTree::attach_leaf_cache`]) rather than part of the
//! per-tree pinned map because its two defining properties — shared
//! across trees, keyed by an epoch the owner retires — cannot live in
//! one tree: a per-tree leaf cache would give every component a private
//! budget and no way to drop a replaced snapshot's pages wholesale.
//! Epochs come from [`LeafCache::register_epoch`]
//! (monotonic, never reused — store commit epochs restart after a
//! `compact()` rewrite, so they cannot key a shared cache), and
//! [`LeafCache::retain_epochs`] evicts every dead snapshot's entries
//! after a merge/compaction swap. The live set is exactly that — a
//! **set**, not a floor: incremental merges reuse components in place,
//! so a surviving component's old epoch stays live while *newer*
//! epochs (the merged-away inputs) die. Caching leaves is only sound
//! because committed snapshots are immutable — there is no
//! invalidation path, only whole-epoch retirement.
//!
//! Admission is **scan-resistant**: a leaf enters the LRU only on its
//! second touch. The first miss records the key in a small per-shard
//! ghost ring (keys only, no node bytes) and drops the node; a later
//! miss that finds its key in the ring ([`LeafCache::ghost_hits`])
//! admits for real. A one-pass cold scan over 100% of the index
//! touches every page once, so it fills only the ghost rings and
//! cannot evict the hot set that repeated queries have established.

use crate::soa::SoaNode;
use parking_lot::{Mutex, RwLock};
use pr_em::lru::LruCache;
use pr_em::{BlockId, HitCounters};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independent [`LeafCache`] shards (power of two; block ids
/// are allocated sequentially, so low bits spread adjacent pages evenly).
pub const SHARD_COUNT: usize = 16;

/// Per-query local hit/miss accumulator; flushed once per query
/// ([`PinnedNodes::finish`], [`LeafCache::record`]) so global totals stay
/// exact without per-node atomic traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheTally {
    /// Node visits served by the pinned internal nodes.
    pub hits: u64,
    /// Node visits the pinned map did not hold (every leaf visit, plus
    /// internal nodes of a tree not yet warmed).
    pub misses: u64,
    /// Leaf pages served by the shared [`LeafCache`] (no device read).
    pub leaf_hits: u64,
    /// Leaf pages that missed the attached [`LeafCache`] and were read
    /// from the device (then admitted). Zero when no cache is attached.
    pub leaf_misses: u64,
}

/// A snapshot of one tree's pinned internal nodes. Never mutated in
/// place while shared: writers replace it copy-on-write, so a query's
/// snapshot stays consistent for its whole traversal.
pub(crate) type PinnedMap<const D: usize> = Arc<HashMap<BlockId, Arc<SoaNode<D>>>>;

/// One tree's pinned internal nodes and their hit/miss counters (see
/// the module docs).
#[derive(Default)]
pub(crate) struct PinnedNodes<const D: usize> {
    map: RwLock<PinnedMap<D>>,
    stats: HitCounters,
}

/// One query's view of a tree's [`PinnedNodes`]: the snapshot it
/// probes, the internal nodes it had to read from the device, and its
/// hit/miss tally.
pub(crate) struct PinnedView<const D: usize> {
    pub(crate) map: PinnedMap<D>,
    pub(crate) missed: Vec<(BlockId, Arc<SoaNode<D>>)>,
    pub(crate) tally: CacheTally,
}

impl<const D: usize> PinnedNodes<D> {
    /// Starts a query: clones the current map's `Arc` once.
    pub(crate) fn view(&self) -> PinnedView<D> {
        PinnedView {
            map: Arc::clone(&self.map.read()),
            missed: Vec::new(),
            tally: CacheTally::default(),
        }
    }

    /// Ends a query: releases its snapshot, pins the internal nodes it
    /// read from the device, and flushes its hit/miss counts. Returns
    /// the tally for the caller's leaf-cache and registry counters.
    pub(crate) fn finish(&self, view: PinnedView<D>) -> CacheTally {
        let PinnedView { map, missed, tally } = view;
        // Release the snapshot first: when no other query holds one,
        // `make_mut` then edits the map in place instead of copying it.
        drop(map);
        self.admit(missed);
        self.stats.add_hits(tally.hits);
        self.stats.add_misses(tally.misses);
        tally
    }

    /// One counted lookup — the maintenance path (`read_node`); queries
    /// probe their [`PinnedView`] instead.
    pub(crate) fn get(&self, page: BlockId) -> Option<Arc<SoaNode<D>>> {
        let found = self.map.read().get(&page).cloned();
        if found.is_some() {
            self.stats.add_hits(1);
        } else {
            self.stats.add_misses(1);
        }
        found
    }

    /// Pins the internal nodes among `nodes` under one write lock;
    /// leaves are skipped. The map is copied only if a query still
    /// holds a snapshot of it.
    pub(crate) fn admit(&self, nodes: impl IntoIterator<Item = (BlockId, Arc<SoaNode<D>>)>) {
        let mut nodes = nodes.into_iter().filter(|(_, n)| !n.is_leaf()).peekable();
        if nodes.peek().is_none() {
            return;
        }
        let mut map = self.map.write();
        Arc::make_mut(&mut map).extend(nodes);
    }

    /// Unpins `page` (rewritten as a leaf). Copies nothing unless the
    /// page was pinned.
    pub(crate) fn invalidate(&self, page: BlockId) {
        let mut map = self.map.write();
        if map.contains_key(&page) {
            Arc::make_mut(&mut map).remove(&page);
        }
    }

    /// `(hits, misses)` since the tree handle was created.
    pub(crate) fn hit_stats(&self) -> (u64, u64) {
        self.stats.snapshot()
    }
}

/// One shard of the [`LeafCache`]: an LRU over `(epoch, page)` with
/// byte accounting, plus a fixed ring of **ghost keys** — pages seen
/// exactly once, holding no node bytes. The entry-count cap handed to
/// the inner [`LruCache`] is a generous upper bound (a leaf `SoaNode`
/// is never smaller than [`LEAF_ENTRY_FLOOR`] bytes); the **byte**
/// budget is what actually bounds residency.
struct LeafShard<const D: usize> {
    lru: LruCache<(u64, BlockId), Arc<SoaNode<D>>>,
    bytes: usize,
    /// Second-touch admission filter: keys recently missed (or evicted
    /// under byte pressure) that will be admitted if touched again
    /// while still in the ring. Overwritten FIFO at `ghost_cursor`.
    ghosts: Vec<Option<(u64, BlockId)>>,
    ghost_cursor: usize,
}

impl<const D: usize> LeafShard<D> {
    /// Records a key in the ghost ring, overwriting the oldest slot.
    fn note_ghost(&mut self, key: (u64, BlockId)) {
        let cur = self.ghost_cursor;
        self.ghosts[cur] = Some(key);
        self.ghost_cursor = (cur + 1) % self.ghosts.len();
    }

    /// Consumes a ghost entry for `key`, if present.
    fn take_ghost(&mut self, key: (u64, BlockId)) -> bool {
        match self.ghosts.iter().position(|g| *g == Some(key)) {
            Some(slot) => {
                self.ghosts[slot] = None;
                true
            }
            None => false,
        }
    }
}

/// Conservative lower bound on the resident size of one cached leaf,
/// used only to cap the per-shard entry count.
const LEAF_ENTRY_FLOOR: usize = 128;

/// Ghost-key slots per shard. Keys are 16 bytes, so the whole filter
/// costs ~2 KiB per shard — noise next to the byte budget — while
/// remembering the last ~2 k distinct misses across the cache, enough
/// for a hot set's second touches to land before its keys rotate out.
const GHOST_RING_CAPACITY: usize = 128;

/// A bounded, sharded cache of transcoded leaf nodes shared across the
/// trees of one snapshot lineage (see the module docs). All methods take
/// `&self`; shards are independent mutexes indexed by the low bits of
/// the page id, so concurrent queries of different pages rarely contend
/// and the critical sections are a probe or an insert — never a scan.
pub struct LeafCache<const D: usize> {
    shards: Vec<Mutex<LeafShard<D>>>,
    /// Byte budget per shard (total budget / [`SHARD_COUNT`]).
    shard_budget: usize,
    capacity_bytes: usize,
    next_epoch: AtomicU64,
    /// The set of epochs whose admissions are accepted. Registration
    /// inserts; [`LeafCache::retain_epochs`] replaces the set with the
    /// survivors, so pinned readers of replaced snapshots (which still
    /// hold the cache under their dead epoch) cannot re-admit dead
    /// leaves and evict the live snapshot's hot set — their admits
    /// become no-ops and their lookups miss. A set rather than a
    /// high-water mark because incremental merges keep *old* epochs
    /// live (reused components) while retiring newer ones (merged
    /// inputs).
    live: RwLock<HashSet<u64>>,
    ghost_hits: AtomicU64,
    stats: HitCounters,
}

/// Default byte budget for a shared leaf cache — one constant for the
/// CLI defaults and `pr-live`'s `LiveOptions::default`, so the two
/// front ends cannot drift apart.
pub const DEFAULT_LEAF_CACHE_BYTES: usize = 16 << 20;

impl<const D: usize> LeafCache<D> {
    /// A cache bounded to roughly `capacity_bytes` of resident
    /// transcoded leaves (accounted via [`SoaNode::approx_bytes`],
    /// spread evenly over [`SHARD_COUNT`] shards).
    pub fn new(capacity_bytes: usize) -> Self {
        let shard_budget = (capacity_bytes / SHARD_COUNT).max(LEAF_ENTRY_FLOOR);
        let max_entries = (shard_budget / LEAF_ENTRY_FLOOR).max(1);
        LeafCache {
            shards: (0..SHARD_COUNT)
                .map(|_| {
                    Mutex::new(LeafShard {
                        lru: LruCache::new(max_entries),
                        bytes: 0,
                        ghosts: vec![None; GHOST_RING_CAPACITY],
                        ghost_cursor: 0,
                    })
                })
                .collect(),
            shard_budget,
            capacity_bytes,
            next_epoch: AtomicU64::new(1),
            live: RwLock::new(HashSet::new()),
            ghost_hits: AtomicU64::new(0),
            stats: HitCounters::new(),
        }
    }

    /// Hands out a fresh, never-reused epoch and marks it live. Every
    /// component attaches under its own epoch, so entries of a replaced
    /// component can never alias a new one's page ids — store commit
    /// epochs restart when `compact()` rewrites the file, which is
    /// exactly why the cache numbers its own.
    pub fn register_epoch(&self) -> u64 {
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        self.live.write().insert(epoch);
        epoch
    }

    #[inline]
    fn shard(&self, page: BlockId) -> &Mutex<LeafShard<D>> {
        &self.shards[(page as usize) & (SHARD_COUNT - 1)]
    }

    /// Looks up a cached leaf. Hit/miss accounting is the caller's job
    /// (queries batch into a [`CacheTally`] and flush once; see
    /// [`LeafCache::record`]) so the hot loop touches no shared counter.
    pub fn get(&self, epoch: u64, page: BlockId) -> Option<Arc<SoaNode<D>>> {
        self.shard(page).lock().lru.get(&(epoch, page)).cloned()
    }

    /// Offers a freshly transcoded leaf. Admission is second-touch: the
    /// first offer of a key only records it in the shard's ghost ring
    /// and drops the node; an offer whose key is still in the ring (or
    /// already resident — a replacement) inserts for real, evicting
    /// least-recently-used entries (of any epoch) until the shard is
    /// back under its byte budget. Evicted keys re-enter the ghost
    /// ring, so a hot page squeezed out by pressure returns after one
    /// touch. A node larger than the whole shard budget is admitted
    /// and immediately evicted — harmless, and it keeps the bound
    /// strict. Admissions under a retired epoch (a pinned reader of a
    /// replaced snapshot) are dropped entirely: dead leaves must not
    /// evict the live snapshot's hot set nor squat in its ghost ring.
    pub fn admit(&self, epoch: u64, page: BlockId, node: Arc<SoaNode<D>>) {
        self.admit_with(epoch, page, || node);
    }

    /// Closure form of [`LeafCache::admit`]: `make` materializes the
    /// owned node and runs only when the cache will actually insert, so
    /// the common first touch of a cold scan costs a 16-byte ghost-ring
    /// write and **zero** allocation. (`make` runs under the shard
    /// lock; it must be short — the tree's leaf clone is.)
    pub fn admit_with(&self, epoch: u64, page: BlockId, make: impl FnOnce() -> Arc<SoaNode<D>>) {
        let key = (epoch, page);
        let mut shard = self.shard(page).lock();
        // Checked *under the shard lock*: `retain_epochs` replaces the
        // live set before sweeping the shards, so either this admit
        // sees the shrunk set here and drops out, or it completes
        // before the sweep takes this shard's lock and the sweep
        // removes the entry. A check outside the lock would leave a
        // window where a dead-epoch admission lands just after the
        // sweep and squats in the budget until the next merge.
        if !self.live.read().contains(&epoch) {
            return;
        }
        if shard.lru.peek(&key).is_none() {
            if shard.take_ghost(key) {
                self.ghost_hits.fetch_add(1, Ordering::Relaxed);
                crate::obs::leaf_cache_ghost_hit();
            } else {
                // First touch: remember the key, keep no bytes.
                shard.note_ghost(key);
                return;
            }
        }
        let node = make();
        let add = node.approx_bytes();
        let mut delta = add as i64;
        if let Some((_, old)) = shard.lru.insert(key, node) {
            shard.bytes -= old.approx_bytes();
            delta -= old.approx_bytes() as i64;
        }
        shard.bytes += add;
        while shard.bytes > self.shard_budget {
            match shard.lru.pop_lru() {
                Some((evicted_key, evicted)) => {
                    shard.bytes -= evicted.approx_bytes();
                    delta -= evicted.approx_bytes() as i64;
                    shard.note_ghost(evicted_key);
                }
                None => break,
            }
        }
        crate::obs::leaf_cache_bytes_delta(delta);
    }

    /// Folds a per-query tally's leaf-cache counts into the shared
    /// counters (called once per query via the tree's tally flush).
    pub fn record(&self, tally: CacheTally) {
        self.stats.add_hits(tally.leaf_hits);
        self.stats.add_misses(tally.leaf_misses);
    }

    /// Drops one page (defensive hook for the write path; immutable
    /// store-backed trees never call it in practice).
    pub fn evict(&self, epoch: u64, page: BlockId) {
        let mut shard = self.shard(page).lock();
        if let Some(node) = shard.lru.remove(&(epoch, page)) {
            shard.bytes -= node.approx_bytes();
            crate::obs::leaf_cache_bytes_delta(-(node.approx_bytes() as i64));
        }
    }

    /// Single-survivor form of [`LeafCache::retain_epochs`] — the full
    /// rewrite (`compact()`, legacy merge) replaces every component, so
    /// exactly one epoch survives.
    pub fn retain_epoch(&self, epoch: u64) {
        self.retain_epochs(&[epoch]);
    }

    /// Evicts every entry whose epoch is not in `live` — the
    /// merge/compaction swap calls this with the epochs of the
    /// components that make up the snapshot that just became current
    /// (an incremental merge keeps reused components' *old* epochs
    /// alive alongside the new output's), dropping all dead snapshots'
    /// leaves at once. Every other epoch is retired permanently: pinned
    /// readers of replaced snapshots keep querying (and simply miss),
    /// but their admissions no longer land in the shared budget.
    pub fn retain_epochs(&self, live: &[u64]) {
        let keep: HashSet<u64> = live.iter().copied().collect();
        // Replace the live set *before* sweeping: see the ordering
        // comment in `admit_with`.
        *self.live.write() = keep.clone();
        let mut evicted = 0u64;
        let mut freed = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock();
            let dead: Vec<(u64, BlockId)> = shard
                .lru
                .iter()
                .filter(|((e, _), _)| !keep.contains(e))
                .map(|(k, _)| *k)
                .collect();
            for key in dead {
                if let Some(node) = shard.lru.remove(&key) {
                    shard.bytes -= node.approx_bytes();
                    evicted += 1;
                    freed += node.approx_bytes() as u64;
                }
            }
            // Dead ghost keys can never be admitted again; free their
            // slots for the live epochs' misses.
            for slot in shard.ghosts.iter_mut() {
                if matches!(slot, Some((e, _)) if !keep.contains(e)) {
                    *slot = None;
                }
            }
        }
        crate::obs::leaf_cache_bytes_delta(-(freed as i64));
        crate::obs::metrics().cache_epochs_retired.inc();
        let mut lives: Vec<u64> = keep.into_iter().collect();
        lives.sort_unstable();
        pr_obs::events().emit(
            "cache_epoch_retire",
            format!("live={lives:?} evicted={evicted} freed_bytes={freed}"),
        );
    }

    /// Drops everything, ghost keys included (keeps hit statistics).
    pub fn clear(&self) {
        let mut freed = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.lru.drain();
            freed += shard.bytes as u64;
            shard.bytes = 0;
            shard.ghosts.fill(None);
            shard.ghost_cursor = 0;
        }
        crate::obs::leaf_cache_bytes_delta(-(freed as i64));
    }

    /// Cached leaves across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().lru.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes across all shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// `(hits, misses)` since construction.
    pub fn hit_stats(&self) -> (u64, u64) {
        self.stats.snapshot()
    }

    /// Misses whose key was found in a ghost ring — i.e. second touches
    /// that turned into real admissions. High ghost hits relative to
    /// misses means the working set cycles faster than the rings
    /// remember; near zero under a pure scan means the filter is doing
    /// its job.
    pub fn ghost_hits(&self) -> u64 {
        self.ghost_hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Entry;
    use crate::page::NodePage;
    use pr_geom::Rect;

    fn node(level: u8) -> Arc<SoaNode<2>> {
        Arc::new(SoaNode::from_page(&NodePage::new(
            level,
            vec![Entry::new(Rect::xyxy(0.0, 0.0, 1.0, 1.0), 0)],
        )))
    }

    #[test]
    fn internal_policy_skips_leaves() {
        let c = PinnedNodes::default();
        c.admit([(1, node(0)), (2, node(1))]);
        assert!(c.get(1).is_none(), "leaves are never pinned");
        assert!(c.get(2).is_some());
        assert_eq!(c.view().map.len(), 1);
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn invalidate_removes() {
        let c = PinnedNodes::default();
        c.admit([(2, node(1)), (3, node(2))]);
        c.invalidate(2);
        assert!(c.get(2).is_none());
        assert!(c.get(3).is_some());
        // Unpinning a page that was never pinned leaves the map alone.
        let held = c.view();
        c.invalidate(99);
        assert!(Arc::ptr_eq(&held.map, &c.view().map));
    }

    #[test]
    fn snapshot_lookups_bypass_shared_state_and_stay_consistent() {
        let c = PinnedNodes::default();
        c.admit([(2, node(1))]);
        let snap = c.view();
        assert!(snap.map.contains_key(&2));
        // A write while the query runs copies the map; the held
        // snapshot still answers as it did when the query began.
        c.invalidate(2);
        c.admit([(5, node(1))]);
        assert!(snap.map.contains_key(&2));
        assert!(!snap.map.contains_key(&5));
        assert!(c.get(2).is_none());
        assert!(c.get(5).is_some());
    }

    #[test]
    fn finish_pins_misses_copy_on_write() {
        let c = PinnedNodes::default();
        // Unshared: the query's own snapshot is released before the
        // admission, so the map is edited in place.
        let mut v = c.view();
        let before = Arc::as_ptr(&v.map);
        v.missed.push((2, node(1)));
        c.finish(v);
        assert_eq!(Arc::as_ptr(&c.view().map), before, "no copy");
        assert!(c.get(2).is_some());
        // Shared: a concurrent query's snapshot forces one copy, and
        // that snapshot never sees the admission.
        let other = c.view();
        let mut v = c.view();
        v.missed.extend([(3, node(1)), (4, node(2))]);
        c.finish(v);
        assert!(!Arc::ptr_eq(&other.map, &c.view().map));
        assert!(!other.map.contains_key(&3));
        assert!(c.get(3).is_some() && c.get(4).is_some());
    }

    #[test]
    fn tallied_lookups_flush_exactly() {
        // Query-style accounting: outcomes counted into the view's local
        // tally (as the traversal's node access does), flushed once.
        let c = PinnedNodes::default();
        c.admit([(2, node(1))]);
        let mut v = c.view();
        for page in [2u64, 7] {
            if v.map.contains_key(&page) {
                v.tally.hits += 1;
            } else {
                v.tally.misses += 1;
            }
        }
        assert_eq!(c.hit_stats(), (0, 0), "nothing flushed yet");
        let tally = c.finish(v);
        assert_eq!((tally.hits, tally.misses), (1, 1));
        assert_eq!(c.hit_stats(), (1, 1));
    }

    fn leaf(entries: usize) -> Arc<SoaNode<2>> {
        let ents: Vec<Entry<2>> = (0..entries)
            .map(|i| Entry::new(Rect::xyxy(i as f64, 0.0, i as f64 + 1.0, 1.0), i as u32))
            .collect();
        Arc::new(SoaNode::from_page(&NodePage::new(0, ents)))
    }

    /// Offers a leaf twice so it passes second-touch admission — the
    /// shorthand for tests that want a page *resident*.
    fn admit2(c: &LeafCache<2>, e: u64, page: BlockId, n: Arc<SoaNode<2>>) {
        c.admit(e, page, Arc::clone(&n));
        c.admit(e, page, n);
    }

    #[test]
    fn leaf_cache_roundtrip_and_epoch_isolation() {
        let c = LeafCache::<2>::new(1 << 20);
        let e1 = c.register_epoch();
        let e2 = c.register_epoch();
        assert_ne!(e1, e2);
        admit2(&c, e1, 7, leaf(5));
        assert!(c.get(e1, 7).is_some());
        // Same page id under another epoch is a distinct entry.
        assert!(c.get(e2, 7).is_none());
        admit2(&c, e2, 7, leaf(9));
        assert_eq!(c.get(e1, 7).unwrap().len(), 5);
        assert_eq!(c.get(e2, 7).unwrap().len(), 9);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn leaf_cache_admits_on_second_touch_only() {
        let c = LeafCache::<2>::new(1 << 20);
        let e = c.register_epoch();
        c.admit(e, 7, leaf(5));
        assert!(c.get(e, 7).is_none(), "first touch only ghosts the key");
        assert_eq!(c.resident_bytes(), 0, "a ghost holds no node bytes");
        assert_eq!(c.ghost_hits(), 0);
        c.admit(e, 7, leaf(5));
        assert!(c.get(e, 7).is_some(), "second touch admits for real");
        assert_eq!(c.ghost_hits(), 1);
        // A resident page re-admitted (replacement) is not a ghost hit.
        c.admit(e, 7, leaf(6));
        assert_eq!(c.get(e, 7).unwrap().len(), 6);
        assert_eq!(c.ghost_hits(), 1);
    }

    #[test]
    fn leaf_cache_admit_with_skips_materialization_on_first_touch() {
        let c = LeafCache::<2>::new(1 << 20);
        let e = c.register_epoch();
        let mut made = 0u32;
        c.admit_with(e, 9, || {
            made += 1;
            leaf(4)
        });
        assert_eq!(made, 0, "first touch must not build the node");
        c.admit_with(e, 9, || {
            made += 1;
            leaf(4)
        });
        assert_eq!(made, 1);
        assert!(c.get(e, 9).is_some());
    }

    #[test]
    fn leaf_cache_scan_survives_one_pass_over_cold_pages() {
        let c = LeafCache::<2>::new(1 << 20);
        let e = c.register_epoch();
        // Establish a hot set with repeated touches.
        for p in 0..8u64 {
            admit2(&c, e, p, leaf(10));
        }
        assert_eq!(c.len(), 8);
        // A full cold scan: thousands of pages, each touched once.
        for p in 100..4100u64 {
            c.admit(e, p, leaf(10));
        }
        // Nothing was admitted, so nothing hot was evicted.
        assert_eq!(c.len(), 8, "one-pass scan must not displace the hot set");
        for p in 0..8u64 {
            assert!(c.get(e, p).is_some(), "hot page {p} was evicted by a scan");
        }
    }

    #[test]
    fn leaf_cache_is_byte_bounded() {
        // Budget of ~4 leaves per shard; hammer one shard (page ids that
        // collide mod SHARD_COUNT) and check residency stays bounded.
        let node = leaf(100);
        let budget = node.approx_bytes() * 4 * SHARD_COUNT;
        let c = LeafCache::<2>::new(budget);
        let e = c.register_epoch();
        for i in 0..64u64 {
            admit2(&c, e, i * SHARD_COUNT as u64, leaf(100));
        }
        assert!(c.len() <= 4, "shard holds {} > 4 leaves", c.len());
        assert!(c.resident_bytes() <= budget / SHARD_COUNT);
        // Eviction is LRU: the most recent page survives.
        assert!(c.get(e, 63 * SHARD_COUNT as u64).is_some());
        assert!(c.get(e, 0).is_none());
        // An evicted key went back into the ghost ring, so a hot page
        // squeezed out by pressure returns after a single re-touch.
        assert!(
            c.get(e, 59 * SHARD_COUNT as u64).is_none(),
            "59 was evicted"
        );
        c.admit(e, 59 * SHARD_COUNT as u64, leaf(100));
        assert!(
            c.get(e, 59 * SHARD_COUNT as u64).is_some(),
            "pressure-evicted page must re-enter on one touch"
        );
    }

    #[test]
    fn leaf_cache_retain_epoch_drops_dead_snapshots() {
        let c = LeafCache::<2>::new(1 << 20);
        let old = c.register_epoch();
        let new = c.register_epoch();
        for p in 0..20u64 {
            admit2(&c, old, p, leaf(3));
        }
        for p in 0..5u64 {
            admit2(&c, new, p, leaf(3));
        }
        c.retain_epoch(new);
        assert_eq!(c.len(), 5);
        assert!(c.get(old, 1).is_none());
        assert!(c.get(new, 1).is_some());
        let bytes = c.resident_bytes();
        assert_eq!(bytes, 5 * leaf(3).approx_bytes());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn leaf_cache_retain_epochs_keeps_a_noncontiguous_live_set() {
        // The incremental-merge shape: the *oldest* epoch (a reused
        // component) survives, a newer one (a merged input) dies, and
        // the newest (the merge output) joins — a floor cannot express
        // this; the live set must.
        let c = LeafCache::<2>::new(1 << 20);
        let reused = c.register_epoch();
        let merged_away = c.register_epoch();
        let output = c.register_epoch();
        admit2(&c, reused, 1, leaf(3));
        admit2(&c, merged_away, 2, leaf(3));
        admit2(&c, output, 3, leaf(3));
        c.retain_epochs(&[reused, output]);
        assert!(c.get(reused, 1).is_some(), "reused component's epoch lives");
        assert!(c.get(merged_away, 2).is_none());
        assert!(c.get(output, 3).is_some());
        assert_eq!(c.len(), 2);
        // The old-but-live epoch still accepts admissions; the newer
        // retired one does not.
        admit2(&c, reused, 10, leaf(3));
        assert!(c.get(reused, 10).is_some());
        admit2(&c, merged_away, 11, leaf(3));
        assert!(c.get(merged_away, 11).is_none());
    }

    #[test]
    fn leaf_cache_refuses_retired_epoch_admissions() {
        let c = LeafCache::<2>::new(1 << 20);
        let old = c.register_epoch();
        let new = c.register_epoch();
        admit2(&c, old, 1, leaf(3));
        c.retain_epoch(new);
        // A pinned reader of the replaced snapshot keeps querying: its
        // lookups miss and its admissions are dropped, so dead leaves
        // can never evict the live snapshot's hot set.
        assert!(c.get(old, 1).is_none());
        admit2(&c, old, 2, leaf(3));
        assert!(c.get(old, 2).is_none());
        assert_eq!(c.resident_bytes(), 0);
        // The live epoch is unaffected.
        admit2(&c, new, 2, leaf(3));
        assert!(c.get(new, 2).is_some());
    }

    #[test]
    fn leaf_cache_evict_and_reinsert_accounting() {
        let c = LeafCache::<2>::new(1 << 20);
        let e = c.register_epoch();
        admit2(&c, e, 3, leaf(10));
        let one = c.resident_bytes();
        // Re-admitting the same page replaces, not double-counts.
        c.admit(e, 3, leaf(10));
        assert_eq!(c.resident_bytes(), one);
        c.evict(e, 3);
        assert_eq!(c.resident_bytes(), 0);
        assert!(c.get(e, 3).is_none());
        // Tally flush: 2 hits + 1 miss recorded once.
        c.record(CacheTally {
            leaf_hits: 2,
            leaf_misses: 1,
            ..Default::default()
        });
        assert_eq!(c.hit_stats(), (2, 1));
    }

    #[test]
    fn leaf_cache_concurrent_mixed_ops_stay_consistent() {
        let c = LeafCache::<2>::new(1 << 18);
        let e = c.register_epoch();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let page = (t * 131 + i) % 97;
                        if i % 3 == 0 {
                            c.admit(e, page, leaf((page % 20) as usize + 1));
                        } else if let Some(n) = c.get(e, page) {
                            assert_eq!(n.len(), (page % 20) as usize + 1);
                        }
                    }
                });
            }
        });
        assert!(c.resident_bytes() <= c.capacity_bytes().max(1));
    }

    #[test]
    fn concurrent_readers_count_exactly() {
        let c = PinnedNodes::<2>::default();
        c.admit((0..64u64).map(|p| (p, node(1))));
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        // Half the lookups hit, half miss.
                        let page = (i + t) % 64 + if i % 2 == 0 { 0 } else { 1000 };
                        let mut v = c.view();
                        if v.map.contains_key(&page) {
                            v.tally.hits += 1;
                        } else {
                            v.tally.misses += 1;
                        }
                        c.finish(v);
                    }
                });
            }
        });
        let (h, m) = c.hit_stats();
        assert_eq!(h + m, 8000, "every lookup counted exactly once");
        assert_eq!(h, 4000);
        assert_eq!(m, 4000);
    }
}
