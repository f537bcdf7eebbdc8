//! A slab-backed LRU cache.
//!
//! `O(1)` get / insert / evict via an intrusive doubly-linked list over a
//! `Vec` slab (no per-node allocation, no `unsafe`). Used by the shard
//! LRUs of the leaf cache in `pr-tree`.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: Option<K>,
    // `None` only while the slot sits on the free list.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used cache.
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU capacity must be at least 1");
        LruCache {
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity as configured at construction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Looks up `key`, marking it most recently used. Hit/miss accounting
    /// is the caller's job (see `pr_em::stats::HitCounters`): the leaf
    /// cache counts per query, where batching is possible.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.touch(idx);
                self.slab[idx].value.as_ref()
            }
            None => None,
        }
    }

    /// Mutable lookup, marking the entry most recently used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.touch(idx);
                self.slab[idx].value.as_mut()
            }
            None => None,
        }
    }

    /// Looks up `key` without disturbing recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map
            .get(key)
            .and_then(|&idx| self.slab[idx].value.as_ref())
    }

    /// Inserts `key → value` as most recently used.
    ///
    /// Returns the evicted least-recently-used entry when the cache was
    /// full, or the replaced value (with its key) when `key` was already
    /// present.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            let old = self.slab[idx].value.replace(value);
            self.touch(idx);
            return old.map(|v| (key, v));
        }
        let evicted = if self.map.len() == self.capacity {
            self.pop_lru()
        } else {
            None
        };
        let idx = if let Some(slot) = self.free.pop() {
            self.slab[slot].key = Some(key.clone());
            self.slab[slot].value = Some(value);
            slot
        } else {
            self.slab.push(Entry {
                key: Some(key.clone()),
                value: Some(value),
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        self.free.push(idx);
        self.slab[idx].key = None;
        self.slab[idx].value.take()
    }

    /// Pops the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        let key = self.slab[idx].key.take().expect("live entry has a key");
        self.map.remove(&key);
        self.unlink(idx);
        self.free.push(idx);
        let value = self.slab[idx].value.take().expect("live entry has a value");
        Some((key, value))
    }

    /// Iterates over entries from most to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut idx = self.head;
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let e = &self.slab[idx];
            idx = e.next;
            Some((
                e.key.as_ref().expect("live entry has a key"),
                e.value.as_ref().expect("live entry has a value"),
            ))
        })
    }

    /// Removes all entries, returning them from most to least recently
    /// used (used by the pool to flush dirty pages on shutdown).
    pub fn drain(&mut self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        let mut idx = self.head;
        while idx != NIL {
            let next = self.slab[idx].next;
            let key = self.slab[idx].key.take().expect("live entry");
            let value = self.slab[idx].value.take().expect("live entry");
            self.free.push(idx);
            out.push((key, value));
            idx = next;
        }
        self.map.clear();
        self.head = NIL;
        self.tail = NIL;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_basic() {
        let mut c = LruCache::new(2);
        assert!(c.is_empty());
        assert_eq!(c.insert("a", 1), None);
        assert_eq!(c.insert("b", 2), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"z"), None);
    }

    #[test]
    fn eviction_order_is_lru() {
        let mut c = LruCache::new(2);
        c.insert(1, "one");
        c.insert(2, "two");
        c.get(&1); // 2 is now LRU
        let evicted = c.insert(3, "three");
        assert_eq!(evicted, Some((2, "two")));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.get(&3), Some(&"three"));
    }

    #[test]
    fn reinsert_replaces_and_refreshes() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), Some((1, 10)));
        // 2 is LRU now, so inserting 3 evicts it.
        assert_eq!(c.insert(3, 30), Some((2, 20)));
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn remove_and_slot_reuse() {
        let mut c = LruCache::new(3);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.remove(&1), Some(1));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.len(), 1);
        c.insert(3, 3);
        c.insert(4, 4);
        assert_eq!(c.len(), 3);
        let keys: Vec<_> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, [4, 3, 2]); // MRU → LRU
    }

    #[test]
    fn pop_lru_in_order() {
        let mut c = LruCache::new(3);
        c.insert('a', 1);
        c.insert('b', 2);
        c.insert('c', 3);
        c.get(&'a');
        assert_eq!(c.pop_lru(), Some(('b', 2)));
        assert_eq!(c.pop_lru(), Some(('c', 3)));
        assert_eq!(c.pop_lru(), Some(('a', 1)));
        assert_eq!(c.pop_lru(), None);
    }

    #[test]
    fn capacity_one() {
        let mut c = LruCache::new(1);
        c.insert(1, 1);
        assert_eq!(c.insert(2, 2), Some((1, 1)));
        assert_eq!(c.get(&2), Some(&2));
    }

    #[test]
    fn drain_returns_mru_order_and_empties() {
        let mut c = LruCache::new(4);
        for i in 0..4 {
            c.insert(i, i * 10);
        }
        c.get(&0);
        let all = c.drain();
        assert_eq!(all, vec![(0, 0), (3, 30), (2, 20), (1, 10)]);
        assert!(c.is_empty());
        c.insert(9, 90);
        assert_eq!(c.get(&9), Some(&90));
    }

    #[test]
    fn peek_does_not_touch() {
        let mut c = LruCache::new(2);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.peek(&1), Some(&1));
        // 1 is still LRU because peek doesn't refresh.
        assert_eq!(c.insert(3, 3), Some((1, 1)));
    }

    #[test]
    fn stress_against_naive_model() {
        use std::collections::VecDeque;
        let cap = 8;
        let mut c = LruCache::new(cap);
        let mut model: VecDeque<(u32, u32)> = VecDeque::new(); // front = MRU
        let mut x: u64 = 0x12345678;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..10_000 {
            let k = (rng() % 20) as u32;
            match rng() % 3 {
                0 => {
                    let got = c.get(&k).copied();
                    let want = model.iter().find(|(mk, _)| *mk == k).map(|(_, v)| *v);
                    assert_eq!(got, want);
                    if want.is_some() {
                        let pos = model.iter().position(|(mk, _)| *mk == k).unwrap();
                        let e = model.remove(pos).unwrap();
                        model.push_front(e);
                    }
                }
                1 => {
                    let v = (rng() % 1000) as u32;
                    c.insert(k, v);
                    if let Some(pos) = model.iter().position(|(mk, _)| *mk == k) {
                        model.remove(pos);
                    } else if model.len() == cap {
                        model.pop_back();
                    }
                    model.push_front((k, v));
                }
                _ => {
                    let got = c.remove(&k);
                    let pos = model.iter().position(|(mk, _)| *mk == k);
                    assert_eq!(got, pos.map(|p| model.remove(p).unwrap().1));
                }
            }
            assert_eq!(c.len(), model.len());
        }
    }
}
