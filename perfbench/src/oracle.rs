//! Answer checking: order-independent fingerprints of answers, the
//! brute-force answers `read_hot` is checked against, and the grid over
//! `mixed`'s resident points that gives each query's resident-set
//! lower bound.

use crate::gen::mix;
use pr_geom::{Item, Point, Rect};

/// An id set as (size, wrapping sum of hashed ids): independent of the
/// order the engine reports items in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IdSet {
    pub count: u64,
    pub hash: u64,
}

impl IdSet {
    pub fn add(&mut self, id: u32) {
        self.count += 1;
        self.hash = self.hash.wrapping_add(mix(u64::from(id) + 1));
    }

    pub fn of(ids: impl Iterator<Item = u32>) -> Self {
        let mut s = IdSet::default();
        ids.for_each(|id| s.add(id));
        s
    }
}

/// A k-NN answer up to ties at the k-th distance: that distance and
/// the set of items strictly closer. Any tie-break among items at
/// exactly the k-th distance gives the same fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KnnFp {
    pub kth_bits: u64,
    pub closer: IdSet,
}

/// Fingerprint of an engine k-NN answer; `None` unless it has exactly
/// `k` items.
pub fn knn_fp(answer: &[(Item<2>, f64)], k: usize) -> Option<KnnFp> {
    if answer.len() != k || k == 0 {
        return None;
    }
    let kth = answer.iter().map(|a| a.1).fold(f64::NEG_INFINITY, f64::max);
    Some(KnnFp {
        kth_bits: kth.to_bits(),
        closer: IdSet::of(answer.iter().filter(|a| a.1 < kth).map(|a| a.0.id)),
    })
}

/// The distance the engine reports for `item` from `p`.
pub fn dist(item: &Item<2>, p: &Point<2>) -> f64 {
    item.rect.min_dist2(p).sqrt()
}

/// Brute-force window answer over every item.
pub fn brute_window(items: &[Item<2>], q: &Rect<2>) -> IdSet {
    IdSet::of(items.iter().filter(|i| i.rect.intersects(q)).map(|i| i.id))
}

/// Brute-force k-NN fingerprint over every item.
pub fn brute_knn(items: &[Item<2>], p: &Point<2>, k: usize) -> KnnFp {
    let mut d: Vec<(f64, u32)> = items.iter().map(|i| (dist(i, p), i.id)).collect();
    d.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
    let kth = d[k - 1].0;
    KnnFp {
        kth_bits: kth.to_bits(),
        closer: IdSet::of(d[..k - 1].iter().filter(|x| x.0 < kth).map(|x| x.1)),
    }
}

/// Uniform grid over points in the unit square; item `i` has id `i`.
pub struct Grid<'a> {
    items: &'a [Item<2>],
    g: usize,
    start: Vec<u32>,
    ids: Vec<u32>,
}

impl<'a> Grid<'a> {
    pub fn new(items: &'a [Item<2>]) -> Self {
        let g = ((items.len() as f64 / 4.0).sqrt() as usize).max(1);
        let cell_of = |it: &Item<2>| Self::cell(g, it.rect.lo_at(0), it.rect.lo_at(1));
        let mut start = vec![0u32; g * g + 1];
        for it in items {
            start[cell_of(it) + 1] += 1;
        }
        for c in 0..g * g {
            start[c + 1] += start[c];
        }
        let mut fill = start.clone();
        let mut ids = vec![0u32; items.len()];
        for it in items {
            let c = cell_of(it);
            ids[fill[c] as usize] = it.id;
            fill[c] += 1;
        }
        Grid {
            items,
            g,
            start,
            ids,
        }
    }

    fn cell(g: usize, x: f64, y: f64) -> usize {
        Self::idx(g, y) * g + Self::idx(g, x)
    }

    fn idx(g: usize, v: f64) -> usize {
        ((v * g as f64) as usize).min(g - 1)
    }

    fn visit(&self, lo: [f64; 2], hi: [f64; 2], mut f: impl FnMut(&Item<2>)) {
        let g = self.g;
        for cy in Self::idx(g, lo[1].max(0.0))..=Self::idx(g, hi[1].min(1.0)) {
            for cx in Self::idx(g, lo[0].max(0.0))..=Self::idx(g, hi[0].min(1.0)) {
                let c = cy * g + cx;
                for &id in &self.ids[self.start[c] as usize..self.start[c + 1] as usize] {
                    f(&self.items[id as usize]);
                }
            }
        }
    }

    /// The resident items intersecting `q`.
    pub fn window(&self, q: &Rect<2>) -> IdSet {
        let mut s = IdSet::default();
        self.visit([q.lo_at(0), q.lo_at(1)], [q.hi_at(0), q.hi_at(1)], |it| {
            if it.rect.intersects(q) {
                s.add(it.id);
            }
        });
        s
    }

    /// The `k` resident items nearest `p` as `(distance, id)`, nearest
    /// first. Grows a square around `p` until it holds `k` items no
    /// farther than its half-side, so nothing outside can be closer.
    pub fn knn(&self, p: &Point<2>, k: usize) -> Vec<(f64, u32)> {
        let [x, y] = *p.coords();
        let mut r = 2.0 / self.g as f64;
        loop {
            let mut found = Vec::new();
            self.visit([x - r, y - r], [x + r, y + r], |it| {
                let d = dist(it, p);
                if d <= r {
                    found.push((d, it.id));
                }
            });
            if found.len() >= k || r > 2.0 {
                found.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                found.truncate(k);
                return found;
            }
            r *= 2.0;
        }
    }
}
