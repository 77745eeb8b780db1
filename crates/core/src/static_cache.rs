//! The fixed-fleet baseline ("static-2 / static-4 / static-8", paper
//! §IV-B): a cooperative cache over a *fixed* number of nodes, "comparable
//! to current cluster/grid environments, where the amounts of nodes one can
//! allocate is typically fixed", with per-node LRU replacement (the
//! memcached policy).
//!
//! Placement uses the same consistent-hash line as the elastic cache, with
//! one evenly spaced bucket per node — but the fleet never grows or
//! shrinks: on overflow a node displaces its least-recently-used records.

use std::borrow::Cow;

use ecc_bptree::ByteSize;
use ecc_chash::HashRing;
use ecc_cloudsim::{SimClock, SimCloud};

use crate::config::CacheConfig;
use crate::elastic::Charges;
use crate::lru::Lru;
use crate::metrics::Metrics;
use crate::record::Record;

/// A fixed-size cooperative LRU cache.
pub struct StaticCache {
    clock: SimClock,
    cloud: SimCloud,
    charges: Charges,
    ring: HashRing<usize>,
    nodes: Vec<Lru<u64, Record>>,
    capacity_bytes: u64,
    metrics: Metrics,
}

impl StaticCache {
    /// Build a `n_nodes`-node static cache from the shared configuration
    /// (`node_capacity_bytes`, network and instance type are honoured; the
    /// window/contraction fields are ignored — this baseline never scales).
    ///
    /// All `n_nodes` instances are allocated up front, as a reserved
    /// cluster would be; their boot does not block queries.
    pub fn new(cfg: &CacheConfig, n_nodes: usize) -> Self {
        assert!(n_nodes >= 1, "need at least one node");
        cfg.validate();
        let clock = SimClock::new();
        let mut cloud = SimCloud::new(cfg.seed, cfg.boot_latency);
        let mut ring = HashRing::new(cfg.ring_range);
        let mut nodes = Vec::with_capacity(n_nodes);
        for i in 0..n_nodes {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "boot latency is deliberately not charged: a reserved \
                          cluster exists before the experiment starts"
            )]
            let _ = cloud.allocate(clock.now_us(), cfg.instance_type.clone());
            // Evenly spaced buckets; the last sits at r-1 so arcs tile the
            // line exactly.
            let pos = ((i as u64 + 1) * cfg.ring_range) / n_nodes as u64 - 1;
            let inserted = ring.insert_bucket(pos, i);
            debug_assert!(inserted.is_ok(), "evenly spaced positions are distinct");
            nodes.push(Lru::new());
        }
        Self {
            clock,
            cloud,
            charges: Charges::new(cfg),
            ring,
            nodes,
            capacity_bytes: cfg.node_capacity_bytes,
            metrics: Metrics::new(),
        }
    }

    /// Number of nodes (fixed for the lifetime of the cache).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Cumulative metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The cloud provider (for billing comparisons against GBA).
    pub fn cloud(&self) -> &SimCloud {
        &self.cloud
    }

    /// Total records resident.
    pub fn total_records(&self) -> usize {
        self.nodes.iter().map(Lru::len).sum()
    }

    /// Total payload bytes resident.
    pub fn total_bytes(&self) -> u64 {
        self.nodes.iter().map(Lru::bytes).sum()
    }

    /// Full cached-service query, mirroring
    /// [`crate::ElasticCache::query`]: the lookup, the service and the put
    /// transfer reach the clock as one sum, a hit lends the stored record,
    /// and a miss returns a clone of the record it stored.
    pub fn query(
        &mut self,
        key: u64,
        uncached_us: u64,
        miss: impl FnOnce() -> Record,
    ) -> Cow<'_, Record> {
        self.metrics.baseline_us += uncached_us;
        let lookup_us = match self.lookup_uncharged(key) {
            Ok((nid, us)) => {
                self.charge(us);
                // Read again to lend, as `ElasticCache::query` does: the
                // entry is already most recently used.
                return match self.nodes.get_mut(nid).and_then(|n| n.get(&key)) {
                    Some(rec) => Cow::Borrowed(rec),
                    None => Cow::Owned(miss()),
                };
            }
            Err(us) => us,
        };
        let rec = miss();
        self.metrics.service_us += uncached_us;
        let put_us = self.place(key, rec.clone());
        self.charge(lookup_us + uncached_us + put_us);
        Cow::Owned(rec)
    }

    /// Insert, displacing LRU records until the owning node fits. Records
    /// larger than a whole node are not cached.
    pub fn insert(&mut self, key: u64, record: Record) {
        let put_us = self.place(key, record);
        self.clock.advance_us(put_us);
    }

    /// The body of [`StaticCache::insert`]; returns the put transfer's
    /// cost, still to be charged.
    fn place(&mut self, key: u64, record: Record) -> u64 {
        // Displacement frees room for the *charged* footprint (what the
        // LRU's byte accounting will debit), while the wire transfer
        // costs only the raw payload length.
        let size = record.byte_size() as u64;
        if size > self.capacity_bytes {
            return 0;
        }
        let Some(&nid) = self.ring.node_for_key(key) else {
            return 0;
        };
        let put_us = self.charges.record_us(record.len());
        let Some(node) = self.nodes.get_mut(nid) else {
            return put_us;
        };
        // Replacement frees the old bytes first — but a *growing*
        // replacement can still overflow the node, so displacement runs in
        // both arms (after the overwrite for replacements, so the fresh
        // record is MRU and never displaces itself).
        let already = node.contains(&key);
        if already {
            node.insert(key, record);
            while node.bytes() > self.capacity_bytes {
                if node.pop_lru().is_none() {
                    // Over budget yet empty: corrupt byte accounting. Stop
                    // displacing rather than spinning forever.
                    break;
                }
                self.metrics.lru_evictions += 1;
            }
        } else {
            while node.bytes() + size > self.capacity_bytes {
                if node.pop_lru().is_none() {
                    break;
                }
                self.metrics.lru_evictions += 1;
            }
            node.insert(key, record);
        }
        debug_assert!(self.nodes[nid].bytes() <= self.capacity_bytes);
        put_us
    }

    /// Look up without the service fallback.
    pub fn lookup(&mut self, key: u64) -> Option<&Record> {
        let (nid, us) = match self.lookup_uncharged(key) {
            Ok((nid, us)) => (Some(nid), us),
            Err(us) => (None, us),
        };
        self.charge(us);
        self.nodes.get_mut(nid?)?.get(&key)
    }

    /// The lookup step of a query, priced but not charged: the node
    /// holding the record with the hit's cost, or the miss's cost. A hit
    /// makes the record its node's most recently used.
    fn lookup_uncharged(&mut self, key: u64) -> Result<(usize, u64), u64> {
        // The ring is populated at construction and never shrinks; an empty
        // resolution degrades to a miss rather than a crash.
        let found = self
            .ring
            .node_for_key(key)
            .and_then(|&nid| Some((nid, self.nodes.get_mut(nid)?.get(&key)?.len())));
        self.charges.lookup(&mut self.metrics, found)
    }

    /// Advance the clock by `us`, all of it on the query path.
    fn charge(&mut self, us: u64) {
        self.clock.advance_us(us);
        self.metrics.observed_us += us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    /// A config whose nodes hold exactly `cap` of the 100-byte test
    /// records, in charged-footprint units (records are charged their
    /// slab slot size, not their raw length).
    fn cfg_records(cap: u64) -> CacheConfig {
        let mut c = CacheConfig::small_test();
        c.node_capacity_bytes = cap * crate::slab::footprint(100);
        c
    }

    #[test]
    fn fleet_is_fixed_and_preallocated() {
        let cache = StaticCache::new(&cfg_records(8), 4);
        assert_eq!(cache.node_count(), 4);
        assert_eq!(cache.cloud().billing(0).launched, 4);
    }

    #[test]
    fn hits_and_misses_count() {
        let mut cache = StaticCache::new(&cfg_records(8), 2);
        cache.query(1, 1000, || Record::filler(50));
        cache.query(1, 1000, || unreachable!());
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses), (1, 1));
        assert!(m.speedup() > 0.0);
    }

    #[test]
    fn a_hit_lends_the_stored_record_and_a_miss_clones_it() {
        let mut cache = StaticCache::new(&cfg_records(8), 2);
        let stored = |c: &mut StaticCache| -> (*const Record, *const u8) {
            let r = c.nodes.iter_mut().find_map(|n| n.get(&7)).unwrap();
            (r, r.as_slice().as_ptr())
        };
        let miss = cache.query(7, 1_000, || Record::filler(100));
        let (owned, payload) = (matches!(miss, Cow::Owned(_)), miss.as_slice().as_ptr());
        assert!(owned, "a miss returns a handle of its own");
        let (copy, stored_payload) = stored(&mut cache);
        assert_eq!(payload, stored_payload, "on the stored allocation");
        let lent = match cache.query(7, 1_000, || unreachable!("must hit")) {
            Cow::Borrowed(r) => Some(r as *const Record),
            Cow::Owned(_) => None,
        };
        assert_eq!(lent, Some(copy), "a hit lends the stored copy");
        assert_eq!((cache.metrics().hits, cache.metrics().misses), (1, 1));
    }

    #[test]
    fn capacity_is_enforced_by_lru_displacement() {
        // 2 nodes × 4 records; insert 40 distinct keys.
        let mut cache = StaticCache::new(&cfg_records(4), 2);
        for k in 0..40u64 {
            cache.insert(k * 25, Record::filler(100));
        }
        assert!(cache.total_records() <= 8);
        assert!(cache.total_bytes() <= 8 * crate::slab::footprint(100));
        assert!(cache.metrics().lru_evictions >= 32);
    }

    #[test]
    fn recently_used_records_survive_displacement() {
        let mut cache = StaticCache::new(&cfg_records(4), 1);
        for k in 0..4u64 {
            cache.insert(k, Record::filler(100));
        }
        // Touch key 0, then overflow by one: key 1 (LRU) goes, key 0 stays.
        assert!(cache.lookup(0).is_some());
        cache.insert(100, Record::filler(100));
        assert!(cache.lookup(0).is_some());
        assert!(cache.lookup(1).is_none());
    }

    #[test]
    fn keys_partition_across_nodes() {
        let mut cache = StaticCache::new(&cfg_records(1024), 4);
        for k in 0..200u64 {
            cache.insert(k * 5, Record::filler(10));
        }
        let per_node: Vec<usize> = cache.nodes.iter().map(Lru::len).collect();
        assert_eq!(per_node.iter().sum::<usize>(), 200);
        assert!(
            per_node.iter().all(|&n| n > 10),
            "uneven partition: {per_node:?}"
        );
    }

    #[test]
    fn steady_state_hit_rate_tracks_capacity_fraction() {
        // The analytical backbone of Figure 3: with uniform keys, the
        // steady-state hit rate of an LRU fleet ≈ fleet capacity / key
        // space.
        let mut cfg = cfg_records(64);
        cfg.ring_range = 512; // key space 512
        let mut cache = StaticCache::new(&cfg, 2); // 128 records total
        let mut rng_state = 12345u64;
        let mut hits_late = 0u64;
        let mut queries_late = 0u64;
        for i in 0..40_000u64 {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (rng_state >> 33) % 512;
            let before = cache.metrics().hits;
            cache.query(key, 1000, || Record::filler(100));
            if i > 20_000 {
                queries_late += 1;
                hits_late += cache.metrics().hits - before;
            }
        }
        let rate = hits_late as f64 / queries_late as f64;
        let expect = 128.0 / 512.0;
        assert!(
            (rate - expect).abs() < 0.05,
            "hit rate {rate:.3}, expected ≈ {expect:.3}"
        );
    }

    #[test]
    fn growing_replacement_displaces_lru_records() {
        // Regression (simtest static/7): replacements used to skip LRU
        // displacement entirely, overflowing the node. A 100 B → 250 B
        // replacement on a full 4-record node grows the charged footprint
        // past capacity, so it must displace the two least-recently-used
        // records and never the fresh one.
        let mut cache = StaticCache::new(&cfg_records(4), 1);
        for k in 0..4u64 {
            cache.insert(k, Record::filler(100));
        }
        cache.insert(3, Record::filler(250));
        assert!(cache.total_bytes() <= 4 * crate::slab::footprint(100));
        assert_eq!(cache.metrics().lru_evictions, 2);
        assert_eq!(cache.lookup(3).map(|r| r.len()), Some(250));
        assert!(cache.lookup(0).is_none(), "LRU key 0 should be displaced");
        assert!(cache.lookup(2).is_some(), "recent key 2 should survive");
    }

    #[test]
    fn oversized_records_are_skipped() {
        let mut cache = StaticCache::new(&cfg_records(4), 1);
        cache.insert(1, Record::filler(100_000));
        assert_eq!(cache.total_records(), 0);
    }
}
