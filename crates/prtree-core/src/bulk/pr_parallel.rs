//! Multi-threaded PR-tree bulk loading.
//!
//! An extension beyond the paper (which predates multicore ubiquity):
//! the pseudo-PR-tree stage is a divide-and-conquer over disjoint entry
//! sets, so after the first few sequential kd splits the recursion
//! parallelizes embarrassingly. Each stage peels the top of the kd
//! recursion on the calling thread with
//! [`PrTreeLoader::split_range`] until there are about two sub-problems
//! per worker, carves the stage's entry array into their disjoint
//! sub-slices with `split_at_mut`, and runs the sequential in-place
//! kernel [`PrTreeLoader::group_stage`] on each under
//! `std::thread::scope`. The groups are the *same* as the sequential
//! loader's — both run the same node step on the same sub-slices — only
//! the schedule, and therefore the group (page) order, differs; a test
//! pins that down.
//!
//! Stages and page writing are [`PrTreeLoader::build_stages`], shared
//! with the sequential loader: allocation on the shared device is a
//! synchronization point anyway, and writing is a small fraction of the
//! stage cost.

use crate::bulk::pr::PrTreeLoader;
use crate::bulk::BulkLoader;
use crate::entry::Entry;
use crate::params::TreeParams;
use crate::tree::RTree;
use pr_em::{BlockDevice, EmError};
use pr_geom::{Axis, Item};
use std::ops::Range;
use std::sync::Arc;

/// PR-tree loader that fans the kd recursion out over threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelPrLoader {
    /// Structural knobs, shared with [`PrTreeLoader`].
    pub inner: PrTreeLoader,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
}

impl ParallelPrLoader {
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// One stage's grouping, computed in parallel: the same contract as
    /// [`PrTreeLoader::group_stage`] starting at axis 0.
    fn group_stage_parallel<const D: usize>(
        &self,
        entries: &mut [Entry<D>],
        cap: usize,
        threads: usize,
        groups: &mut Vec<Range<usize>>,
    ) {
        let inner = self.inner;
        if threads <= 1 || entries.len() < 4 * cap * threads {
            return inner.group_stage(entries, cap, Axis(0), groups);
        }

        // Peel the top of the recursion sequentially until there are
        // enough independent sub-problems to saturate the workers.
        let mut tasks: Vec<(Range<usize>, Axis)> = vec![(0..entries.len(), Axis(0))];
        while tasks.len() < 2 * threads {
            // Expand the largest pending task.
            let Some(idx) = tasks
                .iter()
                .enumerate()
                .max_by_key(|(_, (range, _))| range.len())
                .map(|(i, _)| i)
            else {
                break;
            };
            if tasks[idx].0.len() <= 4 * cap {
                break; // everything left is small; no point splitting more
            }
            let (range, axis) = tasks.swap_remove(idx);
            if let Some(halves) = inner.split_range(entries, range, axis, cap, groups) {
                tasks.extend(halves);
            }
            if tasks.is_empty() {
                break;
            }
        }

        // Carve the disjoint task ranges out of `entries`, in address
        // order, so each worker owns its sub-slice.
        let mut by_start: Vec<usize> = (0..tasks.len()).collect();
        by_start.sort_unstable_by_key(|&t| tasks[t].0.start);
        let mut slices: Vec<Option<&mut [Entry<D>]>> = tasks.iter().map(|_| None).collect();
        let mut rest = entries;
        let mut offset = 0;
        for t in by_start {
            let range = &tasks[t].0;
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(range.start - offset);
            let (mine, tail) = tail.split_at_mut(range.len());
            slices[t] = Some(mine);
            rest = tail;
            offset = range.end;
        }

        // Fan the sub-problems out; each worker runs the sequential
        // kernel on its sub-slice, and its groups are appended in task
        // order, shifted back to positions in `entries`.
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = tasks
                .iter()
                .zip(slices)
                .map(|(&(_, axis), slice)| {
                    let slice = slice.expect("every task owns a slice");
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        inner.group_stage(slice, cap, axis, &mut local);
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect::<Vec<_>>()
        });
        for ((range, _), local) in tasks.iter().zip(results) {
            let base = range.start;
            groups.extend(local.into_iter().map(|r| base + r.start..base + r.end));
        }
    }
}

impl<const D: usize> BulkLoader<D> for ParallelPrLoader {
    fn name(&self) -> &'static str {
        "PR(par)"
    }

    fn load(
        &self,
        dev: Arc<dyn BlockDevice>,
        params: TreeParams,
        items: Vec<Item<D>>,
    ) -> Result<RTree<D>, EmError> {
        let len = items.len() as u64;
        let entries: Vec<Entry<D>> = items.into_iter().map(Entry::from_item).collect();
        let threads = self.effective_threads();
        self.inner
            .build_stages(dev, params, entries, len, |entries, cap, groups| {
                self.group_stage_parallel(entries, cap, threads, groups)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                Item::new(Rect::xyxy(x, y, x + 0.5, y + 0.5), i)
            })
            .collect()
    }

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
    fn parallel_build_equals_sequential_build() {
        let items = random_items(20_000, 3);
        let params = TreeParams::with_cap::<2>(16);

        let dev_a: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let seq = PrTreeLoader::default()
            .load(Arc::clone(&dev_a), params, items.clone())
            .unwrap();

        for threads in [1usize, 2, 4, 8] {
            let dev_b: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
            let par = ParallelPrLoader {
                inner: PrTreeLoader::default(),
                threads,
            }
            .load(Arc::clone(&dev_b), params, items.clone())
            .unwrap();
            par.validate().unwrap().assert_ok();
            assert_eq!(seq.height(), par.height(), "threads={threads}");
            assert_eq!(
                leaf_groups(&seq),
                leaf_groups(&par),
                "threads={threads}: parallel grouping diverged"
            );
        }
    }

    #[test]
    fn small_inputs_fall_back_to_sequential() {
        let items = random_items(100, 4);
        let params = TreeParams::with_cap::<2>(16);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let t = ParallelPrLoader::default()
            .load(dev, params, items)
            .unwrap();
        t.validate().unwrap().assert_ok();
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn queries_correct_after_parallel_build() {
        let items = random_items(8_000, 9);
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let t = ParallelPrLoader {
            inner: PrTreeLoader::default(),
            threads: 4,
        }
        .load(dev, params, items.clone())
        .unwrap();
        let q = Rect::xyxy(20.0, 20.0, 60.0, 40.0);
        let mut got: Vec<u32> = t.window(&q).unwrap().iter().map(|i| i.id).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = items
            .iter()
            .filter(|i| i.rect.intersects(&q))
            .map(|i| i.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
