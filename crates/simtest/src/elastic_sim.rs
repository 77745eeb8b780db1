//! The elastic-family harness: drives an [`ElasticCache`] through a
//! schedule and checks every step against the flat-map + model-window
//! oracle and the PR-1 invariant auditors (promoted to hard failures).

use std::collections::{BTreeMap, BTreeSet};

use ecc_cloudsim::{BootLatency, InstanceType, NetModel};
use ecc_core::{CacheConfig, ElasticCache, Record, WindowConfig};
use ecc_obs::ObsEvent;

use crate::event::{record_bytes, Schedule, SimConfig, SimEvent};
use crate::model::ModelWindow;
use crate::runner::SimFailure;

/// Virtual service time charged per cache miss (constant; latency does not
/// affect the correctness oracles).
const SERVICE_US: u64 = 1_000;

/// Map a schedule config onto a full [`CacheConfig`].
pub fn cache_config(cfg: &SimConfig) -> CacheConfig {
    CacheConfig {
        ring_range: cfg.ring,
        node_capacity_bytes: cfg.cap,
        btree_order: cfg.ord.max(4),
        instance_type: InstanceType::custom("sim.node", cfg.cap, 1_000),
        boot_latency: if cfg.boot_us == 0 {
            BootLatency::instant()
        } else {
            BootLatency::fixed(cfg.boot_us)
        },
        net: NetModel::instant(),
        merge_fill_threshold: 0.65,
        contraction_epsilon: cfg.eps.max(1),
        window: (cfg.m > 0).then(|| WindowConfig {
            slices: cfg.m,
            alpha: cfg.alpha(),
            threshold: None,
        }),
        min_nodes: cfg.min_nodes.max(1),
        lookup_overhead_us: 0,
        seed: 7,
        proactive_split_fill: (cfg.pf_pct > 0).then(|| cfg.pf_pct as f64 / 100.0),
        adaptive_window: None,
        overflow_tier: None,
    }
}

/// All resident primaries as `key -> payload bytes`, read without touching
/// the window, clock, or metrics.
fn resident(cache: &ElasticCache) -> BTreeMap<u64, Vec<u8>> {
    let mut out = BTreeMap::new();
    for (_, node) in cache.nodes() {
        for (&k, rec) in node.iter() {
            out.insert(k, rec.as_slice().to_vec());
        }
    }
    out
}

/// Run one elastic-family schedule to completion or first divergence.
pub fn run(s: &Schedule) -> Result<(), SimFailure> {
    let cfg = &s.cfg;
    let mut cache = ElasticCache::new(cache_config(cfg));
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut window = (cfg.m > 0).then(|| ModelWindow::new(cfg.m, cfg.alpha(), cfg.threshold()));
    let mut model_evictions = 0u64;
    // Flight-recorder cursor for Oracle 3 (the event stream): drained
    // incrementally so a long schedule never outruns the bounded ring.
    let mut obs_cursor = cache.obs().next_seq();

    for (step, ev) in s.events.iter().enumerate() {
        let fail = |what: String| SimFailure::at(step, what);
        match *ev {
            SimEvent::Query { key, len } => {
                let key = key % cfg.ring;
                if let Some(w) = &mut window {
                    w.note(key);
                }
                let expect_hit = model.get(&key).cloned();
                let produced = record_bytes(key, len, step);
                let errors_before = cache.metrics().insert_errors;
                let produced_for_miss = produced.clone();
                let rec = cache.query(key, SERVICE_US, move || Record::from_vec(produced_for_miss));
                match expect_hit {
                    Some(want) => {
                        if rec.as_slice() != want.as_slice() {
                            return Err(fail(format!(
                                "query({key}) should hit with {}B but served {}B \
                                 (record lost or stale)",
                                want.len(),
                                rec.len()
                            )));
                        }
                    }
                    None => {
                        if rec.as_slice() != produced.as_slice() {
                            return Err(fail(format!(
                                "query({key}) should miss and serve the fresh record \
                                 but returned different bytes (phantom hit)"
                            )));
                        }
                        let admitted =
                            len as u64 <= cfg.cap && cache.metrics().insert_errors == errors_before;
                        if admitted {
                            model.insert(key, produced);
                        }
                    }
                }
            }
            SimEvent::Insert { key, len } => {
                let key = key % cfg.ring;
                let bytes = record_bytes(key, len, step);
                // A rejected insert leaves the model unchanged.
                if cache.insert(key, Record::from_vec(bytes.clone())).is_ok() {
                    model.insert(key, bytes);
                }
            }
            SimEvent::Lookup { key } => {
                let key = key % cfg.ring;
                if let Some(w) = &mut window {
                    w.note(key);
                }
                let got = cache.lookup(key).map(|r| r.as_slice().to_vec());
                let want = model.get(&key).cloned();
                if got != want {
                    return Err(fail(format!(
                        "lookup({key}) returned {:?}B, model says {:?}B",
                        got.map(|v| v.len()),
                        want.map(|v| v.len())
                    )));
                }
            }
            SimEvent::EndStep => {
                cache.end_time_step();
                let mut removed_this_step: Vec<u64> = Vec::new();
                if let Some(w) = &mut window {
                    if let Some(expired) = w.end_slice() {
                        for k in w.victims(&expired) {
                            if model.remove(&k).is_some() {
                                model_evictions += 1;
                                removed_this_step.push(k);
                            }
                        }
                    }
                }
                // Oracle 3: the flight-recorder event stream. Drain every
                // event since the previous drain and check that (a) the
                // EvictBatch events name exactly the keys the model just
                // removed, bit-exactly, and (b) every NodeMerge pairs with
                // a NodeDealloc of the drained node in the same batch.
                let drained = cache.obs().events_since(obs_cursor);
                if let Some(&(first_seq, _)) = drained.first() {
                    if first_seq != obs_cursor {
                        return Err(fail(format!(
                            "flight recorder dropped events {obs_cursor}..{first_seq} \
                             before the oracle could drain them"
                        )));
                    }
                }
                obs_cursor = cache.obs().next_seq();
                let mut evicted_keys: Vec<u64> = Vec::new();
                let mut merged_srcs: Vec<u32> = Vec::new();
                let mut deallocs: BTreeSet<u32> = BTreeSet::new();
                for (_, ev) in &drained {
                    match ev {
                        ObsEvent::EvictBatch { keys, .. } => {
                            evicted_keys.extend_from_slice(keys);
                        }
                        ObsEvent::NodeMerge { src, .. } => merged_srcs.push(*src),
                        ObsEvent::NodeDealloc { node, .. } => {
                            deallocs.insert(*node);
                        }
                        _ => {}
                    }
                }
                evicted_keys.sort_unstable();
                removed_this_step.sort_unstable();
                if evicted_keys != removed_this_step {
                    return Err(fail(format!(
                        "EvictBatch events name keys {evicted_keys:?} but the model \
                         evicted {removed_this_step:?}"
                    )));
                }
                for src in merged_srcs {
                    if !deallocs.contains(&src) {
                        return Err(fail(format!(
                            "NodeMerge drained node {src} without a paired NodeDealloc \
                             in the same step"
                        )));
                    }
                }
            }
            SimEvent::AdvanceClock { us } => {
                cache.clock_mut().advance_us(us);
            }
            other => {
                return Err(fail(format!(
                    "event {other:?} is not part of the elastic family"
                )));
            }
        }

        // Oracle 2: the PR-1 invariant auditors, as hard assertions.
        if let Err(e) = cache.check_invariants() {
            return Err(fail(format!("invariant violated: {e}")));
        }
        // Oracle 1: full differential content sweep against the flat model.
        let actual = resident(&cache);
        if actual != model {
            return Err(fail(content_divergence(&actual, &model)));
        }
        let m = cache.metrics();
        if m.hits + m.misses != m.queries {
            return Err(fail(format!(
                "metrics out of balance: {} hits + {} misses != {} queries",
                m.hits, m.misses, m.queries
            )));
        }
        if m.evictions != model_evictions {
            return Err(fail(format!(
                "cache evicted {} records, model predicted {model_evictions}",
                m.evictions
            )));
        }
    }
    Ok(())
}

/// Human-readable summary of the first difference between the cache's
/// resident content and the model's.
pub fn content_divergence(
    actual: &BTreeMap<u64, Vec<u8>>,
    model: &BTreeMap<u64, Vec<u8>>,
) -> String {
    for (k, v) in model {
        match actual.get(k) {
            None => return format!("key {k} in model ({}B) but missing from cache", v.len()),
            Some(a) if a != v => {
                return format!(
                    "key {k} holds {}B in cache but model expects {}B (stale payload)",
                    a.len(),
                    v.len()
                )
            }
            Some(_) => {}
        }
    }
    for (k, v) in actual {
        if !model.contains_key(k) {
            return format!(
                "key {k} resident in cache ({}B) but absent from model",
                v.len()
            );
        }
    }
    "content diverged (unlocalised)".into()
}
