//! One cache server: a B+-tree index plus capacity accounting.

use ecc_bptree::{BPlusTree, ByteSize};
use ecc_cloudsim::InstanceId;

use crate::record::Record;

/// A cache node: the indexing logic installed on one cloud instance
/// (paper §III-A: "the Sweep-and-Migrate function resides on each
/// individual cache server, along with the indexing logic").
///
/// Besides its primary index, a node can hold **best-effort replicas** of
/// records whose primary lives elsewhere (§VI "data replication"). Replicas
/// occupy only spare capacity: a primary insertion displaces replicas as
/// needed, so the paper's overflow semantics (`||n||` counts primaries) are
/// unchanged.
#[derive(Debug)]
pub struct CacheNode {
    /// The cloud instance this server runs on.
    pub instance: InstanceId,
    /// `⌈n⌉` — usable memory in bytes.
    capacity_bytes: u64,
    tree: BPlusTree<u64, Record>,
    replicas: BPlusTree<u64, Record>,
}

impl CacheNode {
    /// Create a node on `instance` with the given capacity and index order.
    pub fn new(instance: InstanceId, capacity_bytes: u64, btree_order: usize) -> Self {
        Self {
            instance,
            capacity_bytes,
            tree: BPlusTree::new(btree_order),
            replicas: BPlusTree::new(btree_order),
        }
    }

    /// `||n||` — bytes of primary records stored.
    #[inline]
    pub fn used_bytes(&self) -> u64 {
        self.tree.bytes()
    }

    /// Bytes held by best-effort replicas.
    #[inline]
    pub fn replica_bytes(&self) -> u64 {
        self.replicas.bytes()
    }

    /// `⌈n⌉` — the capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Fill fraction `||n|| / ⌈n⌉` (primaries only).
    pub fn fill(&self) -> f64 {
        self.used_bytes() as f64 / self.capacity_bytes as f64
    }

    /// The overflow test of Algorithm 1 line 5: would inserting `extra`
    /// bytes still fit? Replicas do not count — they yield to primaries
    /// (see [`CacheNode::make_room_for_primary`]).
    #[inline]
    pub fn fits(&self, extra: u64) -> bool {
        self.used_bytes() + extra <= self.capacity_bytes
    }

    /// Drop replicas (arbitrary order) until `extra` more primary bytes fit
    /// physically. Called by the coordinator before a primary insertion on
    /// a node holding replicas.
    pub fn make_room_for_primary(&mut self, extra: u64) {
        while self.used_bytes() + self.replica_bytes() + extra > self.capacity_bytes {
            let Some(k) = self.replicas.first_key().copied() else {
                break;
            };
            self.replicas.remove(&k);
        }
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

    /// Insert a primary record; returns any displaced previous value.
    /// Replicas yield space first if the payload would not physically fit.
    pub fn insert(&mut self, key: u64, record: Record) -> Option<Record> {
        // Only a node holding replicas can need room made; skip the extra
        // tree descent that sizes the displaced record otherwise.
        if self.replica_bytes() > 0 {
            let existing = self
                .tree
                .get(&key)
                .map(|r| r.byte_size() as u64)
                .unwrap_or(0);
            let extra = (record.byte_size() as u64).saturating_sub(existing);
            if extra > 0 {
                self.make_room_for_primary(extra);
            }
        }
        self.tree.insert(key, record)
    }

    /// Remove a record.
    pub fn remove(&mut self, key: u64) -> Option<Record> {
        self.tree.remove(&key)
    }

    /// Sum of charged record footprints in the inclusive key range (the
    /// aggregation test of Algorithm 2 line 3 — "maintaining an internal
    /// structure on the server which holds the keys' respective object
    /// size"). Footprints, not raw lengths, because the callers compare
    /// this against capacity headroom on a destination node.
    pub fn bytes_in_range(&self, lo: u64, hi: u64) -> u64 {
        self.tree
            .range(lo..=hi)
            .map(|(_, r)| r.byte_size() as u64)
            .sum()
    }

    /// Number of records in the inclusive key range.
    pub fn count_in_range(&self, lo: u64, hi: u64) -> usize {
        self.tree.range(lo..=hi).count()
    }

    /// Keys in the inclusive range, in order (the non-destructive half of a
    /// sweep).
    pub fn keys_in_range(&self, lo: u64, hi: u64) -> Vec<u64> {
        self.tree.keys_in_range(lo..=hi)
    }

    /// Remove and return all records in the inclusive key range, in order —
    /// the destructive sweep of Algorithm 2 (search the start leaf, walk
    /// the linked leaves, delete as you go).
    pub fn drain_range(&mut self, lo: u64, hi: u64) -> Vec<(u64, Record)> {
        self.tree.drain_range(&lo, &hi)
    }

    /// Remove and return everything (node merge during contraction).
    pub fn drain_all(&mut self) -> Vec<(u64, Record)> {
        match (
            self.tree.first_key().copied(),
            self.tree.last_key().copied(),
        ) {
            (Some(lo), Some(hi)) => self.tree.drain_range(&lo, &hi),
            _ => Vec::new(),
        }
    }

    /// Iterate over all `(key, record)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &Record)> {
        self.tree.iter()
    }

    // ------------------------------------------------------------ replicas

    /// Store a best-effort replica. Returns `false` (and stores nothing)
    /// if there is no spare capacity for it.
    pub fn insert_replica(&mut self, key: u64, record: Record) -> bool {
        let extra = record.byte_size() as u64;
        // Replacing an existing replica reuses its space.
        let existing = self
            .replicas
            .get(&key)
            .map(|r| r.byte_size() as u64)
            .unwrap_or(0);
        if self.used_bytes() + self.replica_bytes() - existing + extra > self.capacity_bytes {
            return false;
        }
        self.replicas.insert(key, record);
        true
    }

    /// Drop a replica if present.
    pub fn remove_replica(&mut self, key: u64) -> Option<Record> {
        self.replicas.remove(&key)
    }

    /// Read a replica (failure recovery).
    pub fn get_replica(&self, key: u64) -> Option<&Record> {
        self.replicas.get(&key)
    }

    /// Number of replicas held.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Remove and return all replicas in the inclusive key range (failure
    /// recovery of a dead primary's arc).
    pub fn take_replicas_in_range(&mut self, lo: u64, hi: u64) -> Vec<(u64, Record)> {
        self.replicas.drain_range(&lo, &hi)
    }

    /// Check index invariants (tests).
    pub fn validate(&self) {
        self.tree.validate();
        self.replicas.validate();
        assert!(
            self.used_bytes() <= self.capacity_bytes,
            "node over capacity: {} > {}",
            self.used_bytes(),
            self.capacity_bytes
        );
        assert!(
            self.used_bytes() + self.replica_bytes() <= self.capacity_bytes,
            "replicas overflow physical memory"
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
        assert!(n.fits(1000));
        n.insert(1, Record::filler(300));
        n.insert(2, Record::filler(300));
        assert_eq!(n.used_bytes(), 2 * fp(300));
        let headroom = 1000 - 2 * fp(300);
        assert!(n.fits(headroom));
        assert!(!n.fits(headroom + 1));
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
        assert_eq!(n.bytes_in_range(0, 49), 50 * fp(10));
        assert_eq!(n.count_in_range(10, 19), 10);
        assert_eq!(n.keys_in_range(95, 200), vec![95, 96, 97, 98, 99]);
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
    fn drain_all_empties_the_node() {
        let mut n = node(10_000);
        for k in [5u64, 1, 9, 3] {
            n.insert(k, Record::filler(7));
        }
        let all = n.drain_all();
        assert_eq!(all.len(), 4);
        assert!(n.is_empty());
        assert_eq!(n.used_bytes(), 0);
        assert!(node(10).drain_all().is_empty());
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

    #[test]
    fn replicas_use_only_spare_capacity() {
        // Capacity holds the 600-byte primary plus one 300-byte replica
        // (and its 350-byte replacement), but not a second replica.
        let cap = fp(600) + fp(350) + 8;
        let mut n = node(cap);
        n.insert(1, Record::filler(600));
        assert!(n.insert_replica(100, Record::filler(300)));
        assert_eq!(n.replica_bytes(), fp(300));
        // No room for another 300-byte replica.
        assert!(!n.insert_replica(101, Record::filler(300)));
        assert_eq!(n.replica_count(), 1);
        // Replacing the existing replica reuses its space.
        assert!(n.insert_replica(100, Record::filler(350)));
        assert_eq!(n.replica_bytes(), fp(350));
        n.validate();
    }

    #[test]
    fn primaries_displace_replicas() {
        let mut n = node(1000);
        n.insert(1, Record::filler(500));
        assert!(n.insert_replica(100, Record::filler(400)));
        // A 400-byte primary doesn't physically fit until replicas yield.
        assert!(n.fits(400), "primary-accounting fit ignores replicas");
        n.make_room_for_primary(400);
        assert_eq!(n.replica_count(), 0);
        n.insert(2, Record::filler(400));
        n.validate();
    }

    #[test]
    fn replica_recovery_drains_a_range() {
        let mut n = node(100_000);
        for k in 0..50u64 {
            assert!(n.insert_replica(k, Record::filler(10)));
        }
        assert_eq!(n.get_replica(7).map(|r| r.len()), Some(10));
        let taken = n.take_replicas_in_range(10, 19);
        assert_eq!(taken.len(), 10);
        assert_eq!(n.replica_count(), 40);
        assert_eq!(n.get_replica(15), None);
        assert_eq!(n.remove_replica(5).map(|r| r.len()), Some(10));
        n.validate();
    }
}
