//! External-memory PR-tree bulk loading (§2.1 "Efficient construction
//! algorithm", §2.2).
//!
//! Each stage builds the leaves of a pseudo-PR-tree over an entry stream:
//!
//! 1. sort the stage input into `2D` lists, one per mapped axis, ordered
//!    by *extremeness* (most extreme first),
//! 2. recursively: pull the `B` most extreme not-yet-taken entries off
//!    the front of each list (the priority leaves, written as tree pages
//!    immediately), find the median of the remainder along the
//!    round-robin kd axis by a counting scan, and distribute all lists
//!    into the two sides,
//! 3. once a sub-problem fits in main memory, finish it with the exact
//!    in-memory recursion from [`crate::bulk::pr`].
//!
//! The paper batches `Θ(log M)` kd levels per pass with an in-memory
//! grid; the memory-fitting recursion used here (taken from the same
//! section's closing remarks) has the same `O(N/B · log_{M/B} N/B)` I/O
//! complexity for realistic `N/M` and produces the same tree, because
//! the split rule is unchanged. The substitution trades the paper's
//! grid bookkeeping for code reuse: the in-memory recursion is the one
//! the static loader already runs, so both paths share one split rule.

use crate::bulk::external::{finish_root, ExternalConfig};
use crate::bulk::kd_split::split_point;
use crate::bulk::pr::PrTreeLoader;
use crate::entry::Entry;
use crate::params::TreeParams;
use crate::tree::RTree;
use crate::writer::write_node;
use pr_em::{external_sort_by, BlockDevice, EmError, Record, Stream, StreamReader, StreamWriter};
use pr_geom::mapped::{cmp_extreme_on_axis, cmp_items_on_axis};
use pr_geom::{Axis, Item};
use std::collections::HashSet;
use std::sync::Arc;

/// External PR-tree loader.
#[derive(Debug, Clone, Copy)]
pub struct PrExternalLoader {
    /// Memory budget (`M`).
    pub config: ExternalConfig,
    /// Structural knobs shared with the in-memory loader.
    pub inner: PrTreeLoader,
}

impl PrExternalLoader {
    /// Loader with the given memory budget and default structure.
    pub fn new(config: ExternalConfig) -> Self {
        PrExternalLoader {
            config,
            inner: PrTreeLoader::default(),
        }
    }

    /// Bulk-loads a PR-tree from an entry stream on `dev`.
    pub fn load<const D: usize>(
        &self,
        dev: Arc<dyn BlockDevice>,
        params: TreeParams,
        input: &Stream,
    ) -> Result<RTree<D>, EmError> {
        if input.is_empty() {
            return RTree::new_empty(dev, params);
        }
        let len = input.len();
        let mut level: u8 = 0;
        let mut current: Option<Stream> = None; // None = use `input`
        loop {
            let cap = params.cap_at_level(level);
            let stream_ref = current.as_ref().unwrap_or(input);
            let count = stream_ref.len();
            if count <= cap as u64 {
                let tree = finish_root(Arc::clone(&dev), params, stream_ref, level, len)?;
                if let Some(s) = current {
                    s.discard(dev.as_ref());
                }
                return Ok(tree);
            }
            let parents = self.stage::<D>(dev.as_ref(), stream_ref, cap, level)?;
            if let Some(s) = current {
                s.discard(dev.as_ref());
            }
            current = Some(parents);
            level = level.checked_add(1).expect("tree height exceeds 255");
        }
    }

    /// One stage: writes the pseudo-PR-tree leaf pages for `input` at
    /// `level` and returns the parent-entry stream.
    fn stage<const D: usize>(
        &self,
        dev: &dyn BlockDevice,
        input: &Stream,
        cap: usize,
        level: u8,
    ) -> Result<Stream, EmError> {
        let prio = self.inner.prio_for(cap);
        let snap = self.inner.snap_splits.then_some(cap);
        let mem_fit = self.config.records_fit(Entry::<D>::SIZE) as u64;
        let mut parent_writer = StreamWriter::<Entry<D>>::new(dev);

        // Small stages skip the external machinery entirely.
        if input.len() <= mem_fit {
            let entries = input.read_all::<Entry<D>>(dev)?;
            self.group_in_memory(dev, entries, cap, Axis(0), level, &mut parent_writer)?;
            return parent_writer.finish();
        }

        // 2D extremeness-sorted lists of the whole stage input.
        let mut lists = Vec::with_capacity(2 * D);
        for axis in Axis::all::<D>() {
            lists.push(external_sort_by::<Entry<D>, _>(
                dev,
                input,
                self.config.sort(),
                move |a, b| cmp_extreme_on_axis(axis, &as_item(a), &as_item(b)),
            )?);
        }

        let mut stack: Vec<(Vec<Stream>, u64, Axis)> = vec![(lists, input.len(), Axis(0))];
        while let Some((lists, count, axis)) = stack.pop() {
            self.node_external::<D>(
                dev,
                lists,
                count,
                axis,
                cap,
                prio,
                snap,
                mem_fit,
                level,
                &mut parent_writer,
                &mut stack,
            )?;
        }
        parent_writer.finish()
    }

    /// Processes one pseudo-PR-tree node externally: priority leaves,
    /// median, distribution. Pushes the two children onto `stack`.
    #[allow(clippy::too_many_arguments)]
    fn node_external<const D: usize>(
        &self,
        dev: &dyn BlockDevice,
        lists: Vec<Stream>,
        count: u64,
        axis: Axis,
        cap: usize,
        prio: usize,
        snap: Option<usize>,
        mem_fit: u64,
        level: u8,
        parent_writer: &mut StreamWriter<Entry<D>>,
        stack: &mut Vec<(Vec<Stream>, u64, Axis)>,
    ) -> Result<(), EmError> {
        // In-memory base case: exact same recursion as the in-memory
        // loader, resuming at the current axis.
        if count <= mem_fit || count <= cap as u64 {
            let entries = lists[0].read_all::<Entry<D>>(dev)?;
            discard_all(dev, lists);
            return self.group_in_memory(dev, entries, cap, axis, level, parent_writer);
        }

        // 1. Priority leaves: the `prio` most extreme remaining entries
        //    per axis, straight off the front of each list.
        let mut taken: HashSet<u32> = HashSet::with_capacity(2 * D * prio);
        for a in Axis::all::<D>() {
            if taken.len() as u64 == count {
                break;
            }
            let mut leaf: Vec<Entry<D>> = Vec::with_capacity(prio);
            let mut reader = StreamReader::<Entry<D>>::new(dev, &lists[a.0]);
            while leaf.len() < prio {
                match reader.next_record()? {
                    Some(e) => {
                        if taken.insert(e.ptr) {
                            leaf.push(e);
                        }
                    }
                    None => break,
                }
            }
            if !leaf.is_empty() {
                write_group(dev, level, &leaf, parent_writer)?;
            }
        }

        let remaining = count - taken.len() as u64;
        if remaining == 0 {
            discard_all(dev, lists);
            return Ok(());
        }
        if remaining <= cap as u64 {
            // Remainder forms a single kd leaf.
            let leaf = collect_remaining::<D>(dev, &lists[0], &taken, remaining as usize)?;
            discard_all(dev, lists);
            write_group(dev, level, &leaf, parent_writer)?;
            return Ok(());
        }

        // 2. Median of the remainder along the kd axis. The in-memory
        //    split puts the `mid` strictly-smaller entries left; the
        //    threshold is the entry of ascending rank `mid`.
        let mid = split_point(remaining as usize, snap) as u64;
        let ascending = axis.is_min_side::<D>();
        let target_rank = if ascending {
            mid
        } else {
            // Max-side lists are stored in exact-reverse order.
            remaining - 1 - mid
        };
        let threshold = nth_remaining::<D>(dev, &lists[axis.0], &taken, target_rank)?;

        // 3. Distribute every list into the two sides, preserving order.
        let mut left_lists = Vec::with_capacity(2 * D);
        let mut right_lists = Vec::with_capacity(2 * D);
        for list in &lists {
            let mut reader = StreamReader::<Entry<D>>::new(dev, list);
            let mut lw = StreamWriter::<Entry<D>>::new(dev);
            let mut rw = StreamWriter::<Entry<D>>::new(dev);
            while let Some(e) = reader.next_record()? {
                if taken.contains(&e.ptr) {
                    continue;
                }
                if cmp_items_on_axis(axis, &as_item(&e), &as_item(&threshold))
                    == std::cmp::Ordering::Less
                {
                    lw.push(&e)?;
                } else {
                    rw.push(&e)?;
                }
            }
            left_lists.push(lw.finish()?);
            right_lists.push(rw.finish()?);
        }
        discard_all(dev, lists);

        let next = axis.next::<D>();
        stack.push((right_lists, remaining - mid, next));
        stack.push((left_lists, mid, next));
        Ok(())
    }

    /// Groups a sub-problem that fits in memory with the in-memory
    /// kernel, resuming the kd cycle at `axis`, and writes its pages in
    /// group order.
    fn group_in_memory<const D: usize>(
        &self,
        dev: &dyn BlockDevice,
        mut entries: Vec<Entry<D>>,
        cap: usize,
        axis: Axis,
        level: u8,
        parent_writer: &mut StreamWriter<Entry<D>>,
    ) -> Result<(), EmError> {
        let mut groups = Vec::with_capacity(entries.len() / cap + 1);
        self.inner.group_stage(&mut entries, cap, axis, &mut groups);
        for r in groups {
            write_group(dev, level, &entries[r], parent_writer)?;
        }
        Ok(())
    }
}

fn as_item<const D: usize>(e: &Entry<D>) -> Item<D> {
    Item {
        rect: e.rect,
        id: e.ptr,
    }
}

fn discard_all(dev: &dyn BlockDevice, lists: Vec<Stream>) {
    for l in lists {
        l.discard(dev);
    }
}

/// Writes one leaf-group page and appends its parent entry. Each page is
/// written before its parent entry is pushed: the parent stream
/// allocates device blocks as it fills, so this interleaving fixes the
/// page ids.
fn write_group<const D: usize>(
    dev: &dyn BlockDevice,
    level: u8,
    group: &[Entry<D>],
    parent_writer: &mut StreamWriter<Entry<D>>,
) -> Result<(), EmError> {
    let mut buf = vec![0u8; dev.block_size()];
    parent_writer.push(&write_node(dev, level, group, &mut buf)?)
}

/// Collects all not-taken entries from a list (there must be exactly
/// `expect` of them).
fn collect_remaining<const D: usize>(
    dev: &dyn BlockDevice,
    list: &Stream,
    taken: &HashSet<u32>,
    expect: usize,
) -> Result<Vec<Entry<D>>, EmError> {
    let mut out = Vec::with_capacity(expect);
    let mut reader = StreamReader::<Entry<D>>::new(dev, list);
    while let Some(e) = reader.next_record()? {
        if !taken.contains(&e.ptr) {
            out.push(e);
        }
    }
    debug_assert_eq!(out.len(), expect);
    Ok(out)
}

/// The `rank`-th (0-indexed) not-taken entry of a list.
fn nth_remaining<const D: usize>(
    dev: &dyn BlockDevice,
    list: &Stream,
    taken: &HashSet<u32>,
    rank: u64,
) -> Result<Entry<D>, EmError> {
    let mut reader = StreamReader::<Entry<D>>::new(dev, list);
    let mut seen = 0u64;
    while let Some(e) = reader.next_record()? {
        if taken.contains(&e.ptr) {
            continue;
        }
        if seen == rank {
            return Ok(e);
        }
        seen += 1;
    }
    Err(EmError::Corrupt(format!(
        "median rank {rank} beyond remaining entries ({seen})"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::BulkLoader;
    use pr_em::MemDevice;
    use pr_geom::Rect;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_items(n: u32, seed: u64) -> Vec<Item<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..100.0);
                let y: f64 = rng.gen_range(0.0..100.0);
                let w: f64 = rng.gen_range(0.0..1.5);
                Item::new(Rect::xyxy(x, y, x + w, y + w * 0.5), i)
            })
            .collect()
    }

    /// Leaf contents as a canonical multiset (each group id-sorted, groups
    /// sorted) — page ids differ between devices, contents must not.
    fn leaf_groups(t: &RTree<2>) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        let mut stack = vec![t.root()];
        while let Some(p) = stack.pop() {
            let (node, _) = t.read_node(p).unwrap();
            if node.is_leaf() {
                let mut ids: Vec<u32> = node.entries.iter().map(|e| e.ptr).collect();
                ids.sort_unstable();
                out.push(ids);
            } else {
                for e in &node.entries {
                    stack.push(e.ptr as u64);
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn external_matches_in_memory_exactly() {
        let items = random_items(3000, 42);
        let params = TreeParams::with_cap::<2>(16);

        let dev_mem: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let t_mem = PrTreeLoader::default()
            .load(Arc::clone(&dev_mem), params, items.clone())
            .unwrap();

        let dev_ext: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input = Stream::from_iter(dev_ext.as_ref(), items.iter().map(|&i| Entry::from_item(i)))
            .unwrap();
        // Tiny memory budget: forces several external kd levels.
        let loader = PrExternalLoader::new(ExternalConfig::with_memory(40 * params.page_size));
        let t_ext = loader
            .load::<2>(Arc::clone(&dev_ext), params, &input)
            .unwrap();

        t_ext.validate().unwrap().assert_ok();
        assert_eq!(t_mem.len(), t_ext.len());
        assert_eq!(t_mem.height(), t_ext.height());
        assert_eq!(
            leaf_groups(&t_mem),
            leaf_groups(&t_ext),
            "external and in-memory PR construction must agree"
        );
    }

    #[test]
    fn queries_match_brute_force_after_external_build() {
        let items = random_items(2000, 5);
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input =
            Stream::from_iter(dev.as_ref(), items.iter().map(|&i| Entry::from_item(i))).unwrap();
        let loader = PrExternalLoader::new(ExternalConfig::with_memory(30 * params.page_size));
        let t = loader.load::<2>(Arc::clone(&dev), params, &input).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..30 {
            let x: f64 = rng.gen_range(0.0..95.0);
            let y: f64 = rng.gen_range(0.0..95.0);
            let q = Rect::xyxy(x, y, x + 5.0, y + 5.0);
            let mut got = t.window(&q).unwrap();
            let mut want = crate::query::brute_force_window(&items, &q);
            got.sort_by_key(|i| i.id);
            want.sort_by_key(|i| i.id);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn large_budget_falls_back_to_memory_path() {
        let items = random_items(500, 9);
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input =
            Stream::from_iter(dev.as_ref(), items.iter().map(|&i| Entry::from_item(i))).unwrap();
        let loader = PrExternalLoader::new(ExternalConfig::with_memory(64 << 20));
        let before = dev.io_stats();
        let t = loader.load::<2>(Arc::clone(&dev), params, &input).unwrap();
        let cost = dev.io_stats().since(before);
        t.validate().unwrap().assert_ok();
        // With everything in memory the stage reads the input once and
        // writes pages once — no sorting passes.
        let input_blocks = input.num_blocks() as u64;
        assert!(cost.reads <= 2 * input_blocks + 10);
    }

    #[test]
    fn empty_input() {
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input = Stream::from_iter::<Entry<2>>(dev.as_ref(), []).unwrap();
        let loader = PrExternalLoader::new(ExternalConfig::with_memory(1 << 20));
        let t = loader.load::<2>(Arc::clone(&dev), params, &input).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn split_point_mirrors_median_split() {
        // The external distribution sends left exactly the entries below
        // the one of ascending rank `split_point`; the in-memory split
        // must put the same set left, on min- and max-side axes.
        use crate::bulk::kd_split::median_split;
        for n in 2..60usize {
            for snap in [None, Some(4), Some(7)] {
                for axis in [Axis(0), Axis(3)] {
                    let mut items: Vec<Entry<2>> = (0..n)
                        .map(|i| {
                            let f = ((i * 7) % n) as f64;
                            Entry::new(Rect::xyxy(f, 0.0, f + 0.5, (i % 3) as f64), i as u32)
                        })
                        .collect();
                    let mut sorted = items.clone();
                    sorted.sort_by(|a, b| cmp_items_on_axis(axis, &as_item(a), &as_item(b)));
                    let mid = median_split(&mut items, axis, snap);
                    assert_eq!(mid, split_point(n, snap), "n={n} snap={snap:?}");
                    let mut left: Vec<u32> = items[..mid].iter().map(|e| e.ptr).collect();
                    let mut want: Vec<u32> = sorted[..mid].iter().map(|e| e.ptr).collect();
                    left.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(left, want, "n={n} snap={snap:?} axis={axis:?}");
                }
            }
        }
    }
}
