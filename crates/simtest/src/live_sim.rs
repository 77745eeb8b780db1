//! The live-family harness: drives a [`LiveCoordinator`] — real TCP cache
//! servers, real migrations over the wire — against the same flat-map +
//! window model as the elastic harness.
//!
//! Socket setup failures (bind/connect denied by the environment) are
//! reported as [`SimFailure::infra`] so the runner can distinguish an
//! environment problem from a semantic divergence.

use std::collections::BTreeMap;

use ecc_net::coordinator::LiveCoordinator;

use crate::event::{record_bytes, Schedule, SimEvent};
use crate::model::ModelWindow;
use crate::runner::SimFailure;

/// Run one live-family schedule to completion or first divergence.
pub fn run(s: &Schedule) -> Result<(), SimFailure> {
    let cfg = &s.cfg;
    let mut coord = LiveCoordinator::start(cfg.ring, cfg.cap)
        .map_err(|e| SimFailure::infra(format!("coordinator start failed: {e}")))?;
    coord.contraction_epsilon = cfg.eps.max(1);
    if cfg.m > 0 {
        coord.enable_window(cfg.m, cfg.alpha(), cfg.threshold());
    }
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut window = (cfg.m > 0).then(|| ModelWindow::new(cfg.m, cfg.alpha(), cfg.threshold()));

    for (step, ev) in s.events.iter().enumerate() {
        let fail = |what: String| SimFailure::at(step, what);
        match *ev {
            SimEvent::Put { key, len } => {
                let key = key % cfg.ring;
                let bytes = record_bytes(key, len, step);
                match coord.put(key, bytes.clone()) {
                    Ok(()) => {
                        model.insert(key, bytes);
                    }
                    Err(e) => {
                        // The generator keeps records within capacity, so
                        // every put must succeed.
                        return Err(fail(format!("put({key}, {len}B) failed: {e}")));
                    }
                }
            }
            SimEvent::Get { key } => {
                let key = key % cfg.ring;
                if let Some(w) = &mut window {
                    w.note(key);
                }
                let got = coord
                    .get(key)
                    .map_err(|e| fail(format!("get({key}) failed: {e}")))?;
                let want = model.get(&key).cloned();
                if got != want {
                    return Err(fail(format!(
                        "get({key}) returned {:?}B, model says {:?}B",
                        got.map(|v| v.len()),
                        want.map(|v| v.len())
                    )));
                }
            }
            SimEvent::EndStep => {
                coord
                    .end_time_step()
                    .map_err(|e| fail(format!("end_time_step failed: {e}")))?;
                if let Some(w) = &mut window {
                    if let Some(expired) = w.end_slice() {
                        for k in w.victims(&expired) {
                            model.remove(&k);
                        }
                    }
                }
            }
            other => {
                return Err(fail(format!(
                    "event {other:?} is not part of the live family"
                )));
            }
        }

        coord
            .check_invariants()
            .map_err(|e| fail(format!("invariant violated: {e}")))?;
        let (bytes, records) = coord
            .totals()
            .map_err(|e| fail(format!("totals failed: {e}")))?;
        let model_bytes: u64 = model
            .values()
            .map(|v| ecc_core::slab::footprint(v.len()))
            .sum();
        if (bytes, records) != (model_bytes, model.len() as u64) {
            return Err(fail(format!(
                "fleet holds {records} records / {bytes}B, model {} / {model_bytes}B",
                model.len()
            )));
        }
    }

    // Final content sweep: every model record served back byte-for-byte
    // through the ring.
    let keys: Vec<u64> = model.keys().copied().collect();
    for key in keys {
        let got = coord
            .get(key)
            .map_err(|e| SimFailure::end(format!("final get({key}) failed: {e}")))?;
        if got.as_deref() != model.get(&key).map(Vec::as_slice) {
            return Err(SimFailure::end(format!(
                "final sweep: key {key} lost or stale through the ring"
            )));
        }
    }
    // Observability oracle: the cluster-wide snapshot must aggregate over
    // the wire (every node's `ObsDump` decodes), the merge count recorded
    // in the event stream must match the coordinator's own counter, and
    // every recorded merge must pair with a dealloc of the drained node.
    let snap = coord
        .cluster_obs()
        .map_err(|e| SimFailure::end(format!("cluster obs dump failed: {e}")))?;
    let counts = snap.event_counts();
    if snap.dropped > 0 {
        // Ring overflow would make the exact counts below unsound; live
        // schedules are far smaller than the recorder, so treat overflow
        // itself as the failure.
        return Err(SimFailure::end(format!(
            "flight recorder overflowed ({} events dropped) on a schedule \
             that should fit the ring",
            snap.dropped
        )));
    }
    let merges_seen = counts.get("node_merge").copied().unwrap_or(0);
    if merges_seen != coord.merges as u64 {
        return Err(SimFailure::end(format!(
            "event stream records {merges_seen} NodeMerge events but the \
             coordinator performed {} merges",
            coord.merges
        )));
    }
    let deallocs_seen = counts.get("node_dealloc").copied().unwrap_or(0);
    if deallocs_seen != merges_seen {
        return Err(SimFailure::end(format!(
            "{merges_seen} NodeMerge events but {deallocs_seen} NodeDealloc \
             events: a drained node was not torn down (or torn down twice)"
        )));
    }
    let splits_seen = counts.get("bucket_split").copied().unwrap_or(0);
    if splits_seen != coord.splits as u64 {
        return Err(SimFailure::end(format!(
            "event stream records {splits_seen} BucketSplit events but the \
             coordinator performed {} splits",
            coord.splits
        )));
    }
    // Every split hands its arc over by a copy → flip → delete migration.
    let migrations_seen = counts.get("sweep_migrate").copied().unwrap_or(0);
    if migrations_seen != splits_seen {
        return Err(SimFailure::end(format!(
            "{splits_seen} BucketSplit events but {migrations_seen} SweepMigrate \
             events: a split did not migrate"
        )));
    }
    // Span oracle: every elastic operation traces as a root span, and the
    // merged stream must form a well-formed forest — every start ended,
    // zero orphans, acyclic parentage, child intervals nested inside their
    // parents on the shared clock.
    let span_stats = ecc_obs::verify_spans(&snap.events)
        .map_err(|e| SimFailure::end(format!("span oracle: {e}")))?;
    let elastic_ops = (coord.splits + coord.merges) as u64;
    if (span_stats.roots as u64) < elastic_ops {
        return Err(SimFailure::end(format!(
            "span oracle: {} root spans for {elastic_ops} elastic operations",
            span_stats.roots
        )));
    }
    if span_stats.roots != span_stats.traces {
        return Err(SimFailure::end(format!(
            "span oracle: {} roots but {} traces (root span ids double as \
             trace ids, so these must match)",
            span_stats.roots, span_stats.traces
        )));
    }
    coord
        .shutdown()
        .map_err(|e| SimFailure::infra(format!("shutdown failed: {e}")))?;
    Ok(())
}
