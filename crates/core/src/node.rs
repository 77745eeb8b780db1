//! One cache server: a B+-tree index plus capacity accounting.

use ecc_bptree::{BPlusTree, ByteSize};
use ecc_cloudsim::InstanceId;

use crate::record::Record;

/// A cache node: the indexing logic installed on one cloud instance
/// (paper §III-A: "the Sweep-and-Migrate function resides on each
/// individual cache server, along with the indexing logic").
#[derive(Debug)]
pub struct CacheNode {
    /// The cloud instance this server runs on.
    pub instance: InstanceId,
    /// `⌈n⌉` — usable memory in bytes.
    capacity_bytes: u64,
    tree: BPlusTree<u64, Record>,
}

impl CacheNode {
    /// Create a node on `instance` with the given capacity and index order.
    pub fn new(instance: InstanceId, capacity_bytes: u64, btree_order: usize) -> Self {
        Self {
            instance,
            capacity_bytes,
            tree: BPlusTree::new(btree_order),
        }
    }

    /// `||n||` — bytes of records stored.
    #[inline]
    pub fn used_bytes(&self) -> u64 {
        self.tree.bytes()
    }

    /// `⌈n⌉` — the capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Fill fraction `||n|| / ⌈n⌉`.
    pub fn fill(&self) -> f64 {
        self.used_bytes() as f64 / self.capacity_bytes as f64
    }

    /// Number of records stored.
    #[inline]
    pub fn record_count(&self) -> usize {
        self.tree.len()
    }

    /// Whether the node stores nothing.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Look up a record (B+-tree search).
    pub fn get(&self, key: u64) -> Option<&Record> {
        self.tree.get(&key)
    }

    /// Algorithm 1's overflow test and store in one B+-tree descent, the
    /// test decided at the leaf: store `record` under `key` if the used
    /// bytes, grown by its footprint over the current copy of `key`, stay
    /// within capacity, and otherwise hand it back. Only a replacement's
    /// growth counts: the overwrite frees the copy's bytes.
    #[inline]
    pub fn store(&mut self, key: u64, record: Record) -> Option<Record> {
        let (used, capacity) = (self.used_bytes(), self.capacity_bytes);
        let size = record.byte_size() as u64;
        let mut record = Some(record);
        self.tree.upsert(key, |old| {
            let old = old.map_or(0, |r| r.byte_size() as u64);
            record.take_if(|_| used + size <= capacity + old)
        });
        record
    }

    /// Insert a record; returns any displaced previous value.
    pub fn insert(&mut self, key: u64, record: Record) -> Option<Record> {
        self.tree.insert(key, record)
    }

    /// Remove a record.
    pub fn remove(&mut self, key: u64) -> Option<Record> {
        self.tree.remove(&key)
    }

    /// `(key, charged footprint)` of every record in the inclusive key
    /// range, in key order (the non-destructive half of a sweep, and the
    /// aggregation test of Algorithm 2 line 3 — "maintaining an internal
    /// structure on the server which holds the keys' respective object
    /// size"). Footprints, not raw lengths, because the callers compare
    /// them against capacity headroom on a destination node.
    pub fn records(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.tree
            .range(lo..=hi)
            .map(|(&k, r)| (k, r.byte_size() as u64))
    }

    /// Remove and return all records in the inclusive key range, in order —
    /// the destructive sweep of Algorithm 2: a linked-leaf walk lists the
    /// range's keys, then each is removed with its own root-to-leaf
    /// descent and rebalance ([`BPlusTree::drain_range`]).
    pub fn drain_range(&mut self, lo: u64, hi: u64) -> Vec<(u64, Record)> {
        self.tree.drain_range(&lo, &hi)
    }

    /// Iterate over all `(key, record)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &Record)> {
        self.tree.iter()
    }

    /// Check index invariants (tests).
    pub fn validate(&self) {
        self.tree.validate();
        assert!(
            self.used_bytes() <= self.capacity_bytes,
            "node over capacity: {} > {}",
            self.used_bytes(),
            self.capacity_bytes
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(cap: u64) -> CacheNode {
        CacheNode::new(InstanceId(0), cap, 8)
    }

    /// The footprint a filler of `len` is charged (slab slot size).
    fn fp(len: usize) -> u64 {
        crate::slab::footprint(len)
    }

    #[test]
    fn accounting_tracks_inserts_and_removes() {
        let mut n = node(1000);
        n.insert(1, Record::filler(300));
        n.insert(2, Record::filler(300));
        assert_eq!(n.used_bytes(), 2 * fp(300));
        assert!((n.fill() - (2 * fp(300)) as f64 / 1000.0).abs() < 1e-12);
        n.remove(1);
        assert_eq!(n.used_bytes(), fp(300));
        assert_eq!(n.record_count(), 1);
        n.validate();
    }

    #[test]
    fn range_queries_sum_correctly() {
        let mut n = node(1_000_000);
        for k in 0..100u64 {
            n.insert(k, Record::filler(10));
        }
        let bytes: u64 = n.records(0, 49).map(|(_, fp)| fp).sum();
        assert_eq!(bytes, 50 * fp(10));
        assert_eq!(n.records(10, 19).count(), 10);
        let keys: Vec<u64> = n.records(95, 200).map(|(k, _)| k).collect();
        assert_eq!(keys, vec![95, 96, 97, 98, 99]);
    }

    #[test]
    fn drain_range_moves_records_out() {
        let mut n = node(1_000_000);
        for k in 0..100u64 {
            n.insert(k, Record::filler(10));
        }
        let moved = n.drain_range(0, 49);
        assert_eq!(moved.len(), 50);
        assert_eq!(n.record_count(), 50);
        assert_eq!(n.used_bytes(), 50 * fp(10));
        assert!(moved.windows(2).all(|w| w[0].0 < w[1].0));
        n.validate();
    }

    #[test]
    fn store_admits_only_the_growth_that_fits() {
        let mut n = node(2 * fp(300) + fp(100));
        for (key, len) in [(1, 300), (2, 300), (3, 100)] {
            assert!(n.store(key, Record::filler(len)).is_none(), "key {key}");
        }
        assert_eq!(n.used_bytes(), n.capacity_bytes());
        // Full: a new key is handed back, a same-size replacement fits.
        assert_eq!(n.store(4, Record::filler(1)).map(|r| r.len()), Some(1));
        assert!(n.store(3, Record::filler(100)).is_none());
        // A growing replacement that does not fit leaves the copy intact…
        assert_eq!(n.store(3, Record::filler(300)).map(|r| r.len()), Some(300));
        assert_eq!(n.get(3).map(Record::len), Some(100));
        // …and fits once a shrinking one frees the bytes it needs.
        assert!(n.store(1, Record::filler(100)).is_none());
        assert!(n.store(3, Record::filler(300)).is_none());
        assert_eq!(n.used_bytes(), n.capacity_bytes());
        assert_eq!(n.record_count(), 3);
        n.validate();
    }

    #[test]
    fn replacement_updates_bytes() {
        let mut n = node(1000);
        n.insert(1, Record::filler(100));
        let old = n.insert(1, Record::filler(50));
        assert_eq!(old.unwrap().len(), 100);
        assert_eq!(n.used_bytes(), fp(50));
        assert_eq!(n.record_count(), 1);
    }
}
