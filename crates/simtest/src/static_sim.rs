//! The static-family harness: drives the fixed-fleet [`StaticCache`]
//! baseline against a per-node reference LRU model ([`ModelLru`]).

use ecc_core::{Record, StaticCache};

use crate::elastic_sim::cache_config;
use crate::event::{record_bytes, Schedule, SimEvent};
use crate::model::ModelLru;
use crate::runner::SimFailure;

/// Virtual service time charged per cache miss.
const SERVICE_US: u64 = 1_000;

/// The reference fleet: one [`ModelLru`] per node at the production bucket
/// positions, plus mirrored metric counters.
struct ModelFleet {
    /// Bucket position of node `i` on the hash line.
    positions: Vec<u64>,
    nodes: Vec<ModelLru>,
    capacity: u64,
    queries: u64,
    hits: u64,
    misses: u64,
    lru_evictions: u64,
}

impl ModelFleet {
    fn new(ring: u64, cap: u64, n: usize) -> Self {
        let positions = (0..n)
            .map(|i| ((i as u64 + 1) * ring) / n as u64 - 1)
            .collect();
        Self {
            positions,
            nodes: (0..n).map(|_| ModelLru::new()).collect(),
            capacity: cap,
            queries: 0,
            hits: 0,
            misses: 0,
            lru_evictions: 0,
        }
    }

    /// Index of the node owning `key` (smallest bucket position ≥ key; the
    /// last bucket sits at `ring - 1`, so in-range keys always resolve).
    fn owner(&self, key: u64) -> usize {
        self.positions
            .iter()
            .position(|&p| p >= key)
            .unwrap_or(self.nodes.len() - 1)
    }

    /// Intended insert semantics: oversized records are skipped; otherwise
    /// the owner displaces LRU entries until the record fits — including
    /// when a replacement *grows* an existing entry past capacity.
    fn insert(&mut self, key: u64, value: Vec<u8>) {
        let size = ecc_core::slab::footprint(value.len());
        if size > self.capacity {
            return;
        }
        let cap = self.capacity;
        let owner = self.owner(key);
        let node = &mut self.nodes[owner];
        if node.contains(key) {
            node.insert(key, value);
            while node.bytes() > cap {
                if node.pop_lru().is_none() {
                    break;
                }
                self.lru_evictions += 1;
            }
        } else {
            while node.bytes() + size > cap {
                if node.pop_lru().is_none() {
                    break;
                }
                self.lru_evictions += 1;
            }
            node.insert(key, value);
        }
    }

    /// Mirror of `StaticCache::lookup` (touches on hit, counts both ways).
    fn lookup(&mut self, key: u64) -> Option<Vec<u8>> {
        self.queries += 1;
        let owner = self.owner(key);
        let node = &mut self.nodes[owner];
        match node.get(key).cloned() {
            Some(v) => {
                self.hits += 1;
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn total_records(&self) -> usize {
        self.nodes.iter().map(ModelLru::len).sum()
    }

    fn total_bytes(&self) -> u64 {
        self.nodes.iter().map(ModelLru::bytes).sum()
    }
}

/// Run one static-family schedule to completion or first divergence.
pub fn run(s: &Schedule) -> Result<(), SimFailure> {
    let cfg = &s.cfg;
    let n = cfg.nodes.max(1);
    let mut cache = StaticCache::new(&cache_config(cfg), n);
    let mut model = ModelFleet::new(cfg.ring, cfg.cap, n);

    for (step, ev) in s.events.iter().enumerate() {
        let fail = |what: String| SimFailure::at(step, what);
        match *ev {
            SimEvent::Query { key, len } => {
                let key = key % cfg.ring;
                let expect_hit = model.lookup(key);
                let produced = record_bytes(key, len, step);
                let produced_for_miss = produced.clone();
                let rec = cache.query(key, SERVICE_US, move || Record::from_vec(produced_for_miss));
                match expect_hit {
                    Some(want) => {
                        if rec.as_slice() != want.as_slice() {
                            return Err(fail(format!(
                                "query({key}) should hit with {}B but served {}B",
                                want.len(),
                                rec.len()
                            )));
                        }
                    }
                    None => {
                        if rec.as_slice() != produced.as_slice() {
                            return Err(fail(format!(
                                "query({key}) should miss and serve fresh bytes \
                                 (phantom hit)"
                            )));
                        }
                        model.insert(key, produced);
                    }
                }
            }
            SimEvent::Insert { key, len } => {
                let key = key % cfg.ring;
                let bytes = record_bytes(key, len, step);
                cache.insert(key, Record::from_vec(bytes.clone()));
                model.insert(key, bytes);
            }
            SimEvent::Lookup { key } => {
                let key = key % cfg.ring;
                let got = cache.lookup(key).map(|r| r.as_slice().to_vec());
                let want = model.lookup(key);
                if got != want {
                    return Err(fail(format!(
                        "lookup({key}) returned {:?}B, model says {:?}B",
                        got.map(|v| v.len()),
                        want.map(|v| v.len())
                    )));
                }
            }
            other => {
                return Err(fail(format!(
                    "event {other:?} is not part of the static family"
                )));
            }
        }

        if cache.total_records() != model.total_records() {
            return Err(fail(format!(
                "cache holds {} records, model {}",
                cache.total_records(),
                model.total_records()
            )));
        }
        if cache.total_bytes() != model.total_bytes() {
            return Err(fail(format!(
                "cache holds {}B, model {}B (byte accounting or displacement bug)",
                cache.total_bytes(),
                model.total_bytes()
            )));
        }
        if cache.total_bytes() > cfg.cap * n as u64 {
            return Err(fail(format!(
                "fleet over capacity: {}B resident, {}B budget",
                cache.total_bytes(),
                cfg.cap * n as u64
            )));
        }
        let m = cache.metrics();
        if (m.queries, m.hits, m.misses, m.lru_evictions)
            != (model.queries, model.hits, model.misses, model.lru_evictions)
        {
            return Err(fail(format!(
                "metrics diverged: cache (q={}, h={}, m={}, evict={}) vs model \
                 (q={}, h={}, m={}, evict={})",
                m.queries,
                m.hits,
                m.misses,
                m.lru_evictions,
                model.queries,
                model.hits,
                model.misses,
                model.lru_evictions
            )));
        }
    }

    // Final content sweep: every record the model retains must be served
    // back byte-for-byte. Both sides touch recency identically, so the
    // sweep itself cannot introduce divergence.
    let keys: Vec<u64> = model
        .nodes
        .iter()
        .flat_map(|n| n.sorted().into_iter().map(|(k, _)| k))
        .collect();
    for key in keys {
        let got = cache.lookup(key).map(|r| r.as_slice().to_vec());
        let want = model.lookup(key);
        if got != want {
            return Err(SimFailure::end(format!(
                "final sweep: key {key} served {:?}B, model says {:?}B",
                got.map(|v| v.len()),
                want.map(|v| v.len())
            )));
        }
    }
    Ok(())
}
