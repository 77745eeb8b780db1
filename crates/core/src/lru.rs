//! A byte-bounded LRU map, the replacement policy of the static baseline
//! ("the fixed-node settings subscribe to the simple LRU eviction policy",
//! paper §IV-B — the same policy memcached uses, §V).
//!
//! Implemented as a slab of doubly linked entries plus a key → slot map:
//! `get`, `insert` and `pop_lru` are all O(1) expected.

use std::collections::HashMap;

use ecc_bptree::ByteSize;

const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
    prev: u32,
    next: u32,
}

/// An LRU map with byte accounting.
#[derive(Debug)]
pub struct Lru<K, V> {
    map: HashMap<K, u32>,
    slab: Vec<Option<Entry<K, V>>>,
    free: Vec<u32>,
    /// Most recently used.
    head: u32,
    /// Least recently used.
    tail: u32,
    bytes: u64,
}

impl<K: std::hash::Hash + Eq + Clone, V: ByteSize> Lru<K, V> {
    /// An empty LRU.
    pub fn new() -> Self {
        Self {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total bytes of stored values.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Look up `key` and mark it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        self.slab[idx as usize].as_ref().map(|e| &e.value)
    }

    /// Insert (or replace) and mark most recently used. Returns the
    /// previous value for the key, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let add = value.byte_size() as u64;
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            self.push_front(idx);
            // The map guarantees the slot is live; a dead slot would mean a
            // corrupt map → slab link, checked by the audit in debug builds.
            debug_assert!(self.slab[idx as usize].is_some(), "mapped key in dead slot");
            if let Some(entry) = self.slab[idx as usize].as_mut() {
                let old = std::mem::replace(&mut entry.value, value);
                self.bytes = self.bytes - old.byte_size() as u64 + add;
                return Some(old);
            }
        }
        let idx = if let Some(i) = self.free.pop() {
            i
        } else {
            self.slab.push(None);
            (self.slab.len() - 1) as u32
        };
        self.slab[idx as usize] = Some(Entry {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, idx);
        self.push_front(idx);
        self.bytes += add;
        None
    }

    /// Evict the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        let entry = self.slab[idx as usize].take()?;
        self.unlink_taken(idx, entry.prev, entry.next);
        self.map.remove(&entry.key);
        self.free.push(idx);
        self.bytes -= entry.value.byte_size() as u64;
        Some((entry.key, entry.value))
    }

    /// Whether `key` is present (does not touch recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn unlink(&mut self, idx: u32) {
        let Some((prev, next)) = self.slab[idx as usize].as_ref().map(|e| (e.prev, e.next)) else {
            return;
        };
        self.unlink_taken(idx, prev, next);
        if let Some(e) = self.slab[idx as usize].as_mut() {
            e.prev = NIL;
            e.next = NIL;
        }
    }

    fn unlink_taken(&mut self, idx: u32, prev: u32, next: u32) {
        if prev == NIL {
            if self.head == idx {
                self.head = next;
            }
        } else if let Some(p) = self.slab[prev as usize].as_mut() {
            p.next = next;
        }
        if next == NIL {
            if self.tail == idx {
                self.tail = prev;
            }
        } else if let Some(n) = self.slab[next as usize].as_mut() {
            n.prev = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        if let Some(e) = self.slab[idx as usize].as_mut() {
            e.prev = NIL;
            e.next = old_head;
        }
        // NIL (u32::MAX) is never a valid slab index, so the old head is
        // patched only when one exists.
        if let Some(h) = self
            .slab
            .get_mut(old_head as usize)
            .and_then(Option::as_mut)
        {
            h.prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

impl<K: std::hash::Hash + Eq + Clone, V: ByteSize> Default for Lru<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_pop_roundtrip() {
        // Footprint accounting: each Vec value costs its 24-byte struct
        // header plus the buffer (see `ByteSize`).
        let hdr = std::mem::size_of::<Vec<u8>>() as u64;
        let mut l: Lru<u64, Vec<u8>> = Lru::new();
        assert!(l.is_empty());
        l.insert(1, vec![0; 10]);
        l.insert(2, vec![0; 20]);
        assert_eq!(l.len(), 2);
        assert_eq!(l.bytes(), 2 * hdr + 30);
        assert_eq!(l.get(&1).map(Vec::len), Some(10));
        assert_eq!(l.pop_lru().map(|(k, v)| (k, v.len())), Some((2, 20)));
        assert_eq!(l.bytes(), hdr + 10);
        assert_eq!(l.get(&2), None);
    }

    #[test]
    fn eviction_order_is_least_recently_used() {
        let mut l: Lru<u64, u64> = Lru::new();
        l.insert(1, 1);
        l.insert(2, 2);
        l.insert(3, 3);
        // Touch 1; order (MRU→LRU) is now 1, 3, 2.
        l.get(&1);
        assert_eq!(l.pop_lru().map(|(k, _)| k), Some(2));
        assert_eq!(l.pop_lru().map(|(k, _)| k), Some(3));
        assert_eq!(l.pop_lru().map(|(k, _)| k), Some(1));
        assert_eq!(l.pop_lru(), None);
        assert_eq!(l.bytes(), 0);
    }

    #[test]
    fn insert_touches_recency() {
        let mut l: Lru<u64, u64> = Lru::new();
        l.insert(1, 1);
        l.insert(2, 2);
        l.insert(1, 10); // replace = touch
        assert_eq!(l.pop_lru().map(|(k, _)| k), Some(2));
    }

    #[test]
    fn replacement_adjusts_bytes_and_returns_old() {
        let mut l: Lru<u64, Vec<u8>> = Lru::new();
        l.insert(5, vec![0; 100]);
        let old = l.insert(5, vec![0; 7]);
        assert_eq!(old.map(|v| v.len()), Some(100));
        let hdr = std::mem::size_of::<Vec<u8>>() as u64;
        assert_eq!(l.bytes(), hdr + 7);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn slots_are_recycled() {
        let mut l: Lru<u64, u64> = Lru::new();
        for k in 0..100 {
            l.insert(k, k);
        }
        while l.pop_lru().is_some() {}
        for k in 100..200 {
            l.insert(k, k);
        }
        assert_eq!(l.slab.len(), 100, "slab should not grow past peak");
        assert_eq!(l.len(), 100);
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        let mut l: Lru<u64, Vec<u8>> = Lru::new();
        let mut expected_bytes = 0u64;
        for i in 0..10_000u64 {
            let k = i % 97;
            let size = (i % 13) as usize;
            // Model the footprint accounting: `vec![0; size]` has
            // capacity == len, so its byte_size is header + size.
            let hdr = std::mem::size_of::<Vec<u8>>() as u64;
            if i % 5 == 0 {
                if let Some((_, v)) = l.pop_lru() {
                    expected_bytes -= hdr + v.len() as u64;
                }
            } else if let Some(old) = l.insert(k, vec![0; size]) {
                expected_bytes = expected_bytes - old.len() as u64 + size as u64;
            } else {
                expected_bytes += hdr + size as u64;
            }
            assert_eq!(l.bytes(), expected_bytes, "at step {i}");
        }
        // Drain fully via pop_lru.
        while l.pop_lru().is_some() {}
        assert_eq!(l.bytes(), 0);
        assert!(l.is_empty());
    }

    #[test]
    fn contains_does_not_touch() {
        let mut l: Lru<u64, u64> = Lru::new();
        l.insert(1, 1);
        l.insert(2, 2);
        assert!(l.contains(&1));
        assert_eq!(l.pop_lru().map(|(k, _)| k), Some(1));
    }
}
