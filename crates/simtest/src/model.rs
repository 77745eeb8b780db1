//! Reference models (differential oracles).
//!
//! Each model is an independent, deliberately naive reimplementation of the
//! semantics a harness checks: a flat map plus a re-derived sliding window
//! for the elastic cache, a vector-backed LRU for the static baseline, and
//! a map-with-byte-accounting for the wire protocol server. None of them
//! share code with the production structures — divergence between model and
//! cache is the bug signal.
//!
//! Float caution: [`ModelWindow`] mirrors the *exact* floating-point
//! operation order of [`ecc_core::SlidingWindow`] (iteratively accumulated
//! decay powers, newest-to-oldest summation) so that eviction decisions
//! compare bit-for-bit rather than within an epsilon.

use std::collections::BTreeMap;

use bytes::Bytes;
use ecc_net::protocol::{
    encode_get_many, encode_keys, encode_stats, encode_statuses, Request, Response, Status,
};

/// Independent reimplementation of the sliding-window eviction scorer.
#[derive(Debug, Clone)]
pub struct ModelWindow {
    m: usize,
    threshold: f64,
    current: BTreeMap<u64, u32>,
    /// Completed slices, index 0 = newest.
    history: Vec<BTreeMap<u64, u32>>,
    /// `α^0 … α^(m-1)`, accumulated iteratively like the production window.
    powers: Vec<f64>,
}

impl ModelWindow {
    /// A window of `m` slices with decay `alpha` and threshold `threshold`.
    pub fn new(m: usize, alpha: f64, threshold: f64) -> Self {
        let mut powers = Vec::with_capacity(m);
        let mut p = 1.0;
        for _ in 0..m {
            powers.push(p);
            p *= alpha;
        }
        Self {
            m,
            threshold,
            current: BTreeMap::new(),
            history: Vec::new(),
            powers,
        }
    }

    /// Record a query of `key` in the open slice.
    pub fn note(&mut self, key: u64) {
        *self.current.entry(key).or_insert(0) += 1;
    }

    /// Close the open slice; returns the slice that expired, if the window
    /// was already full.
    pub fn end_slice(&mut self) -> Option<BTreeMap<u64, u32>> {
        let completed = std::mem::take(&mut self.current);
        self.history.insert(0, completed);
        if self.history.len() > self.m {
            self.history.pop()
        } else {
            None
        }
    }

    /// `λ(k)` over the retained window, in the production summation order.
    pub fn lambda(&self, key: u64) -> f64 {
        self.history
            .iter()
            .enumerate()
            .map(|(i, slice)| self.powers[i] * slice.get(&key).copied().unwrap_or(0) as f64)
            .sum()
    }

    /// Keys of `expired` scoring strictly below the threshold.
    pub fn victims(&self, expired: &BTreeMap<u64, u32>) -> Vec<u64> {
        expired
            .keys()
            .copied()
            .filter(|&k| self.lambda(k) < self.threshold)
            .collect()
    }
}

/// A vector-backed LRU map (front = most recently used) with byte
/// accounting — the reference for the static baseline's per-node policy.
#[derive(Debug, Clone, Default)]
pub struct ModelLru {
    /// `(key, value)` pairs ordered most- to least-recently used.
    entries: Vec<(u64, Vec<u8>)>,
    bytes: u64,
}

impl ModelLru {
    /// An empty LRU.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total stored value bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether `key` is present (no recency touch).
    pub fn contains(&self, key: u64) -> bool {
        self.entries.iter().any(|(k, _)| *k == key)
    }

    /// Look up `key`, marking it most recently used.
    pub fn get(&mut self, key: u64) -> Option<&Vec<u8>> {
        let idx = self.entries.iter().position(|(k, _)| *k == key)?;
        let e = self.entries.remove(idx);
        self.entries.insert(0, e);
        self.entries.first().map(|(_, v)| v)
    }

    /// Insert or replace, marking the key most recently used.
    pub fn insert(&mut self, key: u64, value: Vec<u8>) {
        if let Some(idx) = self.entries.iter().position(|(k, _)| *k == key) {
            let (_, old) = self.entries.remove(idx);
            self.bytes -= ecc_core::slab::footprint(old.len());
        }
        self.bytes += ecc_core::slab::footprint(value.len());
        self.entries.insert(0, (key, value));
    }

    /// Evict the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<(u64, Vec<u8>)> {
        let e = self.entries.pop()?;
        self.bytes -= ecc_core::slab::footprint(e.1.len());
        Some(e)
    }

    /// Entries as `(key, value)` pairs, sorted by key.
    pub fn sorted(&self) -> Vec<(u64, Vec<u8>)> {
        let mut v = self.entries.clone();
        v.sort_by_key(|(k, _)| *k);
        v
    }
}

/// Reference semantics of one wire-protocol cache server: a flat map with
/// byte accounting, predicting the exact [`Response`] (status *and* body)
/// the server must produce for any decodable request. Every record is
/// charged its true slab footprint — [`ecc_core::slab::footprint`], the
/// pure size function the engine's admission CAS uses — and replacement
/// is charged only for its footprint *growth*: a put is accepted iff
/// `used - old_footprint + new_footprint <= capacity`.
#[derive(Debug, Clone)]
pub struct ModelServer {
    map: BTreeMap<u64, Vec<u8>>,
    used: u64,
    capacity: u64,
}

impl ModelServer {
    /// An empty server of the given capacity.
    pub fn new(capacity: u64) -> Self {
        Self {
            map: BTreeMap::new(),
            used: 0,
            capacity,
        }
    }

    /// Resident bytes.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Resident records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the model is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The exact response the server must produce for a frame that decoded
    /// to `req` (`None` = undecodable ⇒ `BadRequest`), applying the
    /// request's effects to the model.
    pub fn respond(&mut self, req: Option<Request>) -> Response {
        let Some(req) = req else {
            return Response::status(Status::BadRequest);
        };
        match req {
            Request::Get { key } => match self.map.get(&key) {
                Some(v) => Response::ok(Bytes::copy_from_slice(v)),
                None => Response::status(Status::NotFound),
            },
            Request::Put { key, value } => {
                let size = ecc_core::slab::footprint(value.len());
                let old = self
                    .map
                    .get(&key)
                    .map(|v| ecc_core::slab::footprint(v.len()))
                    .unwrap_or(0);
                if self.used - old + size > self.capacity {
                    return Response::status(Status::Overflow);
                }
                self.used = self.used - old + size;
                self.map.insert(key, value.to_vec());
                Response::status(Status::Ok)
            }
            Request::Keys { lo, hi } => {
                let keys: Vec<u64> = if lo > hi {
                    Vec::new()
                } else {
                    self.map.range(lo..=hi).map(|(k, _)| *k).collect()
                };
                Response::ok(encode_keys(&keys))
            }
            Request::Stats => Response::ok(encode_stats(
                self.used,
                self.map.len() as u64,
                self.capacity,
            )),
            Request::PutMany { items } => {
                // Per-item verdicts with the same growth-charged capacity
                // rule as a single Put; a refused item never aborts the
                // batch.
                let statuses: Vec<Status> = items
                    .into_iter()
                    .map(|(key, value)| {
                        let size = ecc_core::slab::footprint(value.len());
                        let old = self
                            .map
                            .get(&key)
                            .map(|v| ecc_core::slab::footprint(v.len()))
                            .unwrap_or(0);
                        if self.used - old + size > self.capacity {
                            return Status::Overflow;
                        }
                        self.used = self.used - old + size;
                        self.map.insert(key, value.to_vec());
                        Status::Ok
                    })
                    .collect();
                Response::ok(encode_statuses(&statuses))
            }
            Request::GetMany { keys } => {
                let entries: Vec<Option<Vec<u8>>> =
                    keys.iter().map(|k| self.map.get(k).cloned()).collect();
                Response::ok(encode_get_many(&entries))
            }
            Request::EvictMany { keys } => {
                let statuses: Vec<Status> = keys
                    .iter()
                    .map(|k| match self.map.remove(k) {
                        Some(v) => {
                            self.used -= ecc_core::slab::footprint(v.len());
                            Status::Ok
                        }
                        None => Status::NotFound,
                    })
                    .collect();
                Response::ok(encode_statuses(&statuses))
            }
            // The dump body is dynamic (live histograms + events), so the
            // model predicts status only; harnesses that compare bodies
            // must special-case ObsDump and validate the body by decoding
            // it with `ecc_obs::decode_dump` instead.
            Request::ObsDump => Response::status(Status::Ok),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_window_matches_production_window() {
        use ecc_core::SlidingWindow;
        let (m, alpha) = (3usize, 0.93f64);
        let threshold = alpha.powi(m as i32 - 1);
        let mut real = SlidingWindow::new(m, alpha, threshold);
        let mut model = ModelWindow::new(m, alpha, threshold);
        for round in 0..20u64 {
            for j in 0..(round % 5) {
                real.note_query(round * 7 % 11 + j);
                model.note(round * 7 % 11 + j);
            }
            let e_real = real.end_slice();
            let e_model = model.end_slice();
            // The production slice is the model's map as sorted pairs.
            let e_model_pairs = e_model
                .as_ref()
                .map(|em| em.iter().map(|(&k, &c)| (k, c)).collect::<Vec<_>>());
            assert_eq!(e_real, e_model_pairs, "round {round}");
            if let (Some(er), Some(em)) = (&e_real, &e_model) {
                assert_eq!(real.victims(er), model.victims(em), "round {round}");
            }
            for k in 0..12 {
                // Bit-exact, not epsilon: identical operation order.
                assert_eq!(real.lambda(k).to_bits(), model.lambda(k).to_bits());
            }
        }
    }

    #[test]
    fn model_lru_orders_by_recency() {
        let mut l = ModelLru::new();
        l.insert(1, vec![0; 10]);
        l.insert(2, vec![0; 20]);
        l.insert(3, vec![0; 100]);
        // Slab footprints, not payload lengths: 64 + 64 + 136.
        assert_eq!(l.bytes(), 264);
        l.get(1);
        assert_eq!(l.pop_lru().map(|(k, _)| k), Some(2));
        l.insert(3, vec![0; 5]); // replace shrinks bytes, touches
        assert_eq!(l.bytes(), 128);
        assert_eq!(l.pop_lru().map(|(k, _)| k), Some(1));
        assert!(l.contains(3));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn model_server_charges_replacement_growth_only() {
        // Slab footprints: 60 B -> 80-byte slot, 150 -> 176, 200 -> 224.
        let mut s = ModelServer::new(200);
        assert_eq!(
            s.respond(Some(Request::Put {
                key: 1,
                value: &[0; 60],
            }))
            .status,
            Status::Ok
        );
        // Replacement within budget: 80 -> 176.
        assert_eq!(
            s.respond(Some(Request::Put {
                key: 1,
                value: &[0; 150],
            }))
            .status,
            Status::Ok
        );
        // Growth past capacity must overflow, even though the key exists.
        assert_eq!(
            s.respond(Some(Request::Put {
                key: 1,
                value: &[0; 200],
            }))
            .status,
            Status::Overflow
        );
        assert_eq!(s.used(), 176);
    }

    #[test]
    fn model_server_keys_handle_inverted_ranges_and_evict_many_frees() {
        let mut s = ModelServer::new(1000);
        for k in 0..5u64 {
            let _ = s.respond(Some(Request::Put {
                key: k,
                value: &[k as u8; 4],
            }));
        }
        let r = s.respond(Some(Request::Keys { lo: 9, hi: 1 }));
        assert_eq!(r, Response::ok(encode_keys(&[])));
        let r = s.respond(Some(Request::EvictMany {
            keys: vec![1, 2, 3, 9],
        }));
        assert_eq!(
            r,
            Response::ok(encode_statuses(&[
                Status::Ok,
                Status::Ok,
                Status::Ok,
                Status::NotFound,
            ]))
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.used(), 2 * 64, "two 4-byte records in 64-byte slots");
        let r = s.respond(None);
        assert_eq!(r.status, Status::BadRequest);
    }
}
