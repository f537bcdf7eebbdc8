//! The page-level R-tree runtime shared by all variants.
//!
//! An [`RTree`] is a handle: a device, a root page id, the root's level,
//! and its pinned internal nodes. Every bulk loader in [`crate::bulk`]
//! produces this same representation, so query costs are directly
//! comparable — only the *shape* of the tree differs between variants,
//! exactly as in the paper.

use crate::cache::{CacheTally, LeafCache, PinnedNodes, PinnedView};
use crate::meta::TreeMeta;
use crate::page::NodePage;
use crate::params::TreeParams;
use crate::soa::SoaNode;
use pr_em::{BlockDevice, BlockId, EmError};
use pr_geom::Item;
use std::sync::Arc;

/// A height-balanced R-tree stored on a block device.
///
/// The handle is `Send + Sync` (statically asserted below): queries read
/// the pinned internal nodes through a lock-free snapshot
/// ([`crate::cache`]) and the device is
/// `Send + Sync` by trait bound, so any number of threads may run
/// queries on one `&RTree` concurrently. Mutation (`&mut self` dynamic
/// updates) follows the usual exclusive-borrow rules.
pub struct RTree<const D: usize> {
    dev: Arc<dyn BlockDevice>,
    params: TreeParams,
    root: BlockId,
    root_level: u8,
    len: u64,
    /// Internal nodes pinned in memory, never evicted (the paper's
    /// query setup; see [`crate::cache`]).
    pinned: PinnedNodes<D>,
    /// Optional shared leaf cache + the epoch this tree's pages are
    /// keyed under (see [`crate::cache::LeafCache`]). Attached before
    /// the handle is shared, then read without any lock on the hot path.
    leaf_cache: Option<(Arc<LeafCache<D>>, u64)>,
}

// Compile-time proof that trees can be shared across threads; fails to
// compile if any field loses Send/Sync.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RTree<2>>();
    assert_send_sync::<RTree<3>>();
};

impl<const D: usize> RTree<D> {
    /// Wraps an existing tree: `root` is the page id of the root node at
    /// `root_level` (0 for a single-leaf tree), `len` the number of items.
    ///
    /// Bulk loaders call this; it is public so trees can be reattached
    /// after a device is persisted elsewhere.
    pub fn attach(
        dev: Arc<dyn BlockDevice>,
        params: TreeParams,
        root: BlockId,
        root_level: u8,
        len: u64,
    ) -> Self {
        RTree {
            dev,
            params,
            root,
            root_level,
            len,
            pinned: PinnedNodes::default(),
            leaf_cache: None,
        }
    }

    /// Reopens a tree from persisted metadata — the open path used by
    /// `pr-store` after it has validated checksums and picked a committed
    /// snapshot. Produces the same handle as [`RTree::attach`] (nothing
    /// pinned yet; [`RTree::warm_cache`] works as usual) but validates
    /// the metadata against the device instead of trusting it: the root
    /// must be an allocated block and the device's block size must match
    /// the recorded page size.
    pub fn from_parts(dev: Arc<dyn BlockDevice>, meta: TreeMeta) -> Result<Self, EmError> {
        if dev.block_size() != meta.params.page_size {
            return Err(EmError::Corrupt(format!(
                "device block size {} does not match tree page size {}",
                dev.block_size(),
                meta.params.page_size
            )));
        }
        if meta.root >= dev.num_blocks() {
            return Err(EmError::BlockOutOfRange {
                block: meta.root,
                len: dev.num_blocks(),
            });
        }
        Ok(RTree::attach(
            dev,
            meta.params,
            meta.root,
            meta.root_level,
            meta.len,
        ))
    }

    /// The serializable metadata describing this tree (everything a
    /// persisted copy needs besides the pages themselves).
    pub fn meta(&self) -> TreeMeta {
        TreeMeta {
            params: self.params,
            root: self.root,
            root_level: self.root_level,
            len: self.len,
        }
    }

    /// Creates an empty tree (a zero-entry leaf root) — the starting point
    /// for dynamic insertion.
    pub fn new_empty(dev: Arc<dyn BlockDevice>, params: TreeParams) -> Result<Self, EmError> {
        let root = NodePage::<D>::new(0, Vec::new()).append(dev.as_ref())?;
        Ok(RTree::attach(dev, params, root, 0, 0))
    }

    /// Number of indexed items.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height in levels (1 for a single-leaf tree).
    pub fn height(&self) -> u32 {
        self.root_level as u32 + 1
    }

    /// Root page id.
    pub fn root(&self) -> BlockId {
        self.root
    }

    /// Level of the root node (height − 1).
    pub fn root_level(&self) -> u8 {
        self.root_level
    }

    /// Tree parameters.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// The backing device (shared).
    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.dev
    }

    /// `(hits, misses)` of the pinned internal nodes: every node lookup
    /// counts once, so a leaf visit is a miss. Totals are exact under
    /// concurrent queries.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.pinned.hit_stats()
    }

    /// Attaches a shared [`LeafCache`]: leaf pages of this tree are
    /// cached (and looked up) under `epoch`, which the caller obtained
    /// from [`LeafCache::register_epoch`] for this tree's snapshot.
    /// Takes `&mut self` — attach before the handle is shared, so the
    /// query hot path reads the field without synchronization. Intended
    /// for store-backed trees, whose committed pages are immutable;
    /// a tree mutated by dynamic updates must not keep a leaf cache
    /// attached (its leaves would go stale — nothing invalidates them).
    pub fn attach_leaf_cache(&mut self, cache: Arc<LeafCache<D>>, epoch: u64) {
        self.leaf_cache = Some((cache, epoch));
    }

    /// The attached shared leaf cache and this tree's epoch in it.
    pub fn leaf_cache(&self) -> Option<(&Arc<LeafCache<D>>, u64)> {
        self.leaf_cache.as_ref().map(|(c, e)| (c, *e))
    }

    /// Reads a node in decoded AoS form, pinning it if it is internal.
    /// Returns the node and whether the read hit the device (`true` =
    /// one real I/O).
    ///
    /// This is the **maintenance/write boundary**: pinned nodes are
    /// [`SoaNode`]s, so a hit converts back to a [`NodePage`]
    /// (one allocation). Dynamic updates, validation, and the bulk-load
    /// inspectors use this; the query hot path goes through
    /// [`RTree::with_soa_node`] instead and never materializes entries.
    pub fn read_node(&self, page: BlockId) -> Result<(Arc<NodePage<D>>, bool), EmError> {
        if let Some(n) = self.pinned.get(page) {
            return Ok((Arc::new(n.to_page()), false));
        }
        let node = NodePage::read(self.dev.as_ref(), page)?;
        if !node.is_leaf() {
            self.pinned
                .admit([(page, Arc::new(SoaNode::from_page(&node)))]);
        }
        Ok((Arc::new(node), true))
    }

    /// The decode-free node access of the query engine: resolves `page`
    /// and runs `f` against its SoA view *in place*, returning `f`'s
    /// result and whether the read hit the device.
    ///
    /// * Pinned: `f` runs against the query's snapshot of the pinned
    ///   [`SoaNode`] — one `HashMap` probe, no lock, no `Arc` clone.
    /// * Otherwise the shared [`LeafCache`], if attached, is probed; on
    ///   a miss the raw page is read into `page_buf` and transcoded into
    ///   `soa` (both caller-owned, reused across queries via
    ///   [`crate::scratch::QueryScratch`]). An internal node read this
    ///   way is queued in `view` and pinned when the query finishes.
    ///
    /// Hit/miss accounting goes into `view`; finish it once per query
    /// with [`RTree::finish_view`].
    pub(crate) fn with_soa_node<R>(
        &self,
        page: BlockId,
        view: &mut PinnedView<D>,
        page_buf: &mut Vec<u8>,
        soa: &mut SoaNode<D>,
        f: impl FnOnce(&SoaNode<D>) -> R,
    ) -> Result<(R, bool), EmError> {
        if let Some(n) = view.map.get(&page) {
            view.tally.hits += 1;
            return Ok((f(n), false));
        }
        view.tally.misses += 1;
        // Second chance: the shared leaf cache (store-backed trees).
        // On a warmed tree every miss here is a leaf, so this probe is
        // exactly the per-leaf device read it replaces. A hit costs one
        // shard lock + Arc clone and no I/O.
        if let Some((cache, epoch)) = &self.leaf_cache {
            if let Some(node) = cache.get(*epoch, page) {
                view.tally.leaf_hits += 1;
                return Ok((f(&node), false));
            }
        }
        // Zero-copy read: the device exposes the raw page bytes and the
        // transcode is the only pass over them ([`BlockDevice::with_block`]
        // skips the page-sized memcpy for in-memory and mmap backends).
        let mut transcoded = Ok(());
        self.dev.with_block(page, page_buf, &mut |bytes| {
            transcoded = soa.refill_from_bytes(bytes);
        })?;
        transcoded?;
        if !soa.is_leaf() {
            view.missed.push((page, Arc::new(soa.clone())));
        } else if let Some((cache, epoch)) = &self.leaf_cache {
            view.tally.leaf_misses += 1;
            // Second-touch admission: the closure (and its clone of
            // the leaf) runs only when the cache actually inserts,
            // so a cold scan's one-time touches allocate nothing.
            cache.admit_with(*epoch, page, || Arc::new(soa.clone()));
        }
        Ok((f(soa), true))
    }

    /// Starts a query's node access: one snapshot of the pinned map.
    pub(crate) fn pinned_view(&self) -> PinnedView<D> {
        self.pinned.view()
    }

    /// Ends a query's node access: pins the internal nodes it read and
    /// flushes its tally into the shared counters (the tree's, the
    /// attached leaf cache's and the registry's). Returns the tally.
    pub(crate) fn finish_view(&self, view: PinnedView<D>) -> CacheTally {
        let tally = self.pinned.finish(view);
        if let Some((cache, _)) = &self.leaf_cache {
            cache.record(tally);
        }
        crate::obs::record_cache(&tally);
        tally
    }

    /// Writes a node page, then pins it (internal) or unpins it (leaf)
    /// according to its new level. Used by dynamic updates. The AoS page
    /// is transcoded to its SoA form at this boundary so queries keep
    /// reading columns.
    pub fn write_node(&self, page: BlockId, node: &NodePage<D>) -> Result<(), EmError> {
        node.write(self.dev.as_ref(), page)?;
        if node.is_leaf() {
            self.pinned.invalidate(page);
        } else {
            self.pinned
                .admit([(page, Arc::new(SoaNode::from_page(node)))]);
        }
        // Leaf caches are for immutable store-backed trees, but if one
        // is attached anyway, never leave a stale copy behind.
        if let Some((cache, epoch)) = &self.leaf_cache {
            cache.evict(*epoch, page);
        }
        Ok(())
    }

    /// Allocates a fresh page for a new node and writes it.
    pub fn append_node(&self, node: &NodePage<D>) -> Result<BlockId, EmError> {
        let page = self.dev.allocate(1);
        self.write_node(page, node)?;
        Ok(page)
    }

    /// Pins every internal node (the paper's setup: "in all our
    /// experiments we cached all internal nodes"), so queries read only
    /// leaves from the device. Without it, internal nodes are pinned
    /// lazily as queries first read them ([`crate::cache`] module docs).
    pub fn warm_cache(&self) -> Result<(), EmError> {
        if self.root_level == 0 {
            // Single-leaf tree: nothing internal to cache.
            return Ok(());
        }
        let mut stack = vec![(self.root, self.root_level)];
        while let Some((page, level)) = stack.pop() {
            let (node, _) = self.read_node(page)?;
            if level > 1 {
                for e in &node.entries {
                    stack.push((e.ptr as BlockId, level - 1));
                }
            }
        }
        Ok(())
    }

    /// Applies `f` to every item in the tree (DFS order).
    pub fn for_each_item(&self, mut f: impl FnMut(Item<D>)) -> Result<(), EmError> {
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let (node, _) = self.read_node(page)?;
            if node.is_leaf() {
                for e in &node.entries {
                    f(e.to_item());
                }
            } else {
                for e in &node.entries {
                    stack.push(e.ptr as BlockId);
                }
            }
        }
        Ok(())
    }

    /// All items in the tree (test/rebuild helper).
    pub fn items(&self) -> Result<Vec<Item<D>>, EmError> {
        let mut out = Vec::with_capacity(self.len as usize);
        self.for_each_item(|i| out.push(i))?;
        Ok(out)
    }

    /// Structural statistics: node counts and fill per level.
    pub fn stats(&self) -> Result<TreeStructure, EmError> {
        let levels = self.root_level as usize + 1;
        let mut nodes = vec![0u64; levels];
        let mut entries = vec![0u64; levels];
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let (node, _) = self.read_node(page)?;
            let l = node.level as usize;
            nodes[l] += 1;
            entries[l] += node.len() as u64;
            if !node.is_leaf() {
                for e in &node.entries {
                    stack.push(e.ptr as BlockId);
                }
            }
        }
        Ok(TreeStructure {
            nodes_per_level: nodes,
            entries_per_level: entries,
            leaf_cap: self.params.leaf_cap,
            node_cap: self.params.node_cap,
        })
    }

    // Internal accessors for sibling modules (dynamic updates).
    pub(crate) fn set_root(&mut self, root: BlockId, root_level: u8) {
        self.root = root;
        self.root_level = root_level;
    }

    pub(crate) fn bump_len(&mut self, delta: i64) {
        self.len = (self.len as i64 + delta) as u64;
    }
}

/// Node counts and fill factors, per level and overall.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeStructure {
    /// Number of nodes at each level (index 0 = leaves).
    pub nodes_per_level: Vec<u64>,
    /// Total entries at each level.
    pub entries_per_level: Vec<u64>,
    /// Leaf capacity (for utilization).
    pub leaf_cap: usize,
    /// Internal capacity.
    pub node_cap: usize,
}

impl TreeStructure {
    /// Number of leaf pages.
    pub fn num_leaves(&self) -> u64 {
        self.nodes_per_level[0]
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> u64 {
        self.nodes_per_level.iter().sum()
    }

    /// Space utilization over all nodes: entries stored divided by entry
    /// slots available. The paper reports >99% for all bulk loaders.
    pub fn utilization(&self) -> f64 {
        let mut used = 0.0;
        let mut avail = 0.0;
        for (level, (&n, &e)) in self
            .nodes_per_level
            .iter()
            .zip(&self.entries_per_level)
            .enumerate()
        {
            let cap = if level == 0 {
                self.leaf_cap
            } else {
                self.node_cap
            };
            used += e as f64;
            avail += (n as usize * cap) as f64;
        }
        if avail == 0.0 {
            0.0
        } else {
            used / avail
        }
    }

    /// Leaf-only utilization (what dominates space usage).
    pub fn leaf_utilization(&self) -> f64 {
        let avail = self.nodes_per_level[0] as f64 * self.leaf_cap as f64;
        if avail == 0.0 {
            0.0
        } else {
            self.entries_per_level[0] as f64 / avail
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::SplitPolicy;
    use crate::entry::Entry;
    use crate::query::brute_force_window;
    use pr_em::MemDevice;
    use pr_geom::Rect;

    fn leaf_entry(i: u32) -> Entry<2> {
        let f = i as f64;
        Entry::new(Rect::xyxy(f, 0.0, f + 0.5, 1.0), i)
    }

    /// Builds a tiny 2-level tree by hand: two leaves under one root.
    fn two_leaf_tree() -> RTree<2> {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let params = TreeParams::with_cap::<2>(4);
        let l0 = NodePage::new(0, vec![leaf_entry(0), leaf_entry(1)])
            .append(dev.as_ref())
            .unwrap();
        let l1 = NodePage::new(0, vec![leaf_entry(2), leaf_entry(3)])
            .append(dev.as_ref())
            .unwrap();
        let root = NodePage::new(
            1,
            vec![
                Entry::new(Rect::xyxy(0.0, 0.0, 1.5, 1.0), l0 as u32),
                Entry::new(Rect::xyxy(2.0, 0.0, 3.5, 1.0), l1 as u32),
            ],
        )
        .append(dev.as_ref())
        .unwrap();
        RTree::attach(dev, params, root, 1, 4)
    }

    #[test]
    fn attach_and_basic_accessors() {
        let t = two_leaf_tree();
        assert_eq!(t.len(), 4);
        assert_eq!(t.height(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn items_are_all_reachable() {
        let t = two_leaf_tree();
        let mut ids: Vec<u32> = t.items().unwrap().iter().map(|i| i.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, [0, 1, 2, 3]);
    }

    #[test]
    fn cache_policy_controls_device_reads() {
        let t = packed_tree();
        t.warm_cache().unwrap();
        let before = t.device().io_stats();
        let (_, io1) = t.read_node(t.root()).unwrap();
        assert!(!io1, "root pinned after warm_cache");
        assert_eq!(t.device().io_stats().since(before).reads, 0);

        // A fresh handle on the same pages has nothing pinned: its first
        // root read is a device read, and that read pins the root.
        let fresh = RTree::<2>::from_parts(Arc::clone(t.device()), t.meta()).unwrap();
        let before = fresh.device().io_stats();
        let (_, io2) = fresh.read_node(fresh.root()).unwrap();
        assert!(io2);
        assert_eq!(fresh.device().io_stats().since(before).reads, 1);
        let (_, io3) = fresh.read_node(fresh.root()).unwrap();
        assert!(!io3, "read_node pins internal nodes");
    }

    #[test]
    fn stats_and_utilization() {
        let t = two_leaf_tree();
        let s = t.stats().unwrap();
        assert_eq!(s.nodes_per_level, vec![2, 1]);
        assert_eq!(s.entries_per_level, vec![4, 2]);
        assert_eq!(s.num_leaves(), 2);
        assert_eq!(s.num_nodes(), 3);
        // leaves: 4/8; root: 2/4 → (4+2)/(8+4) = 0.5
        assert!((s.utilization() - 0.5).abs() < 1e-12);
        assert!((s.leaf_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_tree() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let t = RTree::<2>::new_empty(dev, TreeParams::with_cap::<2>(4)).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.items().unwrap().is_empty());
    }

    /// A packed tree on a device whose block size matches its params
    /// (what every loader produces; `from_parts` insists on it).
    fn packed_tree() -> RTree<2> {
        let params = TreeParams::with_cap::<2>(4);
        let dev: Arc<dyn BlockDevice> = Arc::new(pr_em::MemDevice::new(params.page_size));
        let entries: Vec<Entry<2>> = (0..6).map(leaf_entry).collect();
        crate::writer::build_packed(dev, params, &entries).unwrap()
    }

    #[test]
    fn from_parts_reopens_with_identical_queries() {
        let t = packed_tree();
        let meta = t.meta();
        let dev = Arc::clone(t.device());
        drop(t);
        let t2 = RTree::<2>::from_parts(dev, meta).unwrap();
        assert_eq!(t2.len(), 6);
        assert_eq!(t2.height(), 2);
        let hits = t2.window(&Rect::xyxy(0.0, 0.0, 10.0, 1.0)).unwrap();
        assert_eq!(hits.len(), 6);
    }

    #[test]
    fn from_parts_rejects_bad_metadata() {
        let t = packed_tree();
        let dev = Arc::clone(t.device());
        let mut meta = t.meta();
        meta.root = 999;
        assert!(matches!(
            RTree::<2>::from_parts(Arc::clone(&dev), meta),
            Err(EmError::BlockOutOfRange { block: 999, .. })
        ));
        let mut meta = t.meta();
        meta.params.page_size = 8192;
        assert!(matches!(
            RTree::<2>::from_parts(dev, meta),
            Err(EmError::Corrupt(_))
        ));
    }

    #[test]
    fn write_node_updates_cache() {
        let t = two_leaf_tree();
        t.warm_cache().unwrap();
        let (root_node, _) = t.read_node(t.root()).unwrap();
        let mut modified = (*root_node).clone();
        modified.entries.pop();
        t.write_node(t.root(), &modified).unwrap();
        let (back, io) = t.read_node(t.root()).unwrap();
        assert!(!io, "rewritten node re-pinned");
        assert_eq!(back.len(), 1);

        // Guttman inserts and deletes on a warmed tree: splits pin the
        // internal nodes they write, and every answer stays exact.
        let mut t = packed_tree();
        t.warm_cache().unwrap();
        let mut items = t.items().unwrap();
        for i in 0..60u32 {
            let f = (i * 7 % 41) as f64;
            let it = Item::new(Rect::xyxy(f, f % 3.0, f + 0.5, f % 3.0 + 1.0), 100 + i);
            t.insert(it, SplitPolicy::Quadratic).unwrap();
            items.push(it);
        }
        let gone: Vec<Item<2>> = items.iter().copied().step_by(3).collect();
        for it in &gone {
            assert!(t.delete(it, SplitPolicy::Quadratic).unwrap());
        }
        items.retain(|it| !gone.contains(it));
        for (xmin, xmax) in [(0.0, 50.0), (3.0, 9.5), (20.0, 21.0), (60.0, 70.0)] {
            let q = Rect::xyxy(xmin, 0.0, xmax, 4.0);
            let (got, stats) = t.window_with_stats(&q).unwrap();
            let mut got: Vec<u32> = got.iter().map(|i| i.id).collect();
            let mut want: Vec<u32> = brute_force_window(&items, &q)
                .iter()
                .map(|i| i.id)
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "window {q:?}");
            assert_eq!(
                stats.device_reads, stats.leaves_visited,
                "every internal node stays pinned through the updates"
            );
        }
        let (_, io) = t.read_node(t.root()).unwrap();
        assert!(!io, "root still pinned after the updates");
    }
}
