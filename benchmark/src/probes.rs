//! Layer probes: the traced run replays the workload's own key stream
//! straight into each layer's public functions, single-threaded, and
//! reports nanoseconds per call. They are measured from outside — timing
//! calls, adding nothing to the layers — and give the budget rows that no
//! span around a socket call can separate (codec, stripe, tree, ring,
//! window), plus the two off-path costs that explain why payloads are
//! synthetic (`spatial.linearize_ns`, `shoreline.derive_us`).

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use ecc_bptree::BPlusTree;
use ecc_chash::HashRing;
use ecc_core::{ShardedNode, SlidingWindow, DEFAULT_STRIPES};
use ecc_net::protocol::{append_frame, FrameAssembler, Request, Response};
use ecc_shoreline::service::ShorelineService;
use ecc_spatial::{Curve, GeoGrid, Linearizer, Scheme, TimeGrid};

use crate::common::Outcome;
use crate::payload;

/// Keys replayed into each probe.
pub const PROBE_KEYS: usize = 20_000;
/// Keys whose shoreline is really derived.
const DERIVE_KEYS: usize = 128;

fn ns_per(start: Instant, n: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Run every probe over `keys` (the head of the workload's op stream)
/// with `value_len`-byte values, setting the probe metrics on `out`.
pub fn run(out: &mut Outcome, keys: &[u64], value_len: usize) {
    let n = keys.len();
    let values: Vec<Bytes> = keys
        .iter()
        .map(|&k| Bytes::from(payload::make(k, 0, value_len)))
        .collect();

    let t = Instant::now();
    for (&key, value) in keys.iter().zip(&values) {
        black_box(payload::check(key, 0, value_len, value));
    }
    out.set("net.client.verify_ns", ns_per(t, n));

    // net.protocol: one GET request frame and one response frame carrying
    // the value per key — encode, then reassemble and decode.
    let mut wire = Vec::new();
    let t = Instant::now();
    for (&key, value) in keys.iter().zip(&values) {
        let _ = append_frame(&mut wire, |b| Request::Get { key }.encode_into(b));
        let _ = append_frame(&mut wire, |b| Response::ok(value.clone()).encode_into(b));
    }
    out.set("net.protocol.encode_ns", ns_per(t, 2 * n));
    let mut asm = FrameAssembler::new();
    let mut source: &[u8] = &wire;
    let mut decoded = 0usize;
    let t = Instant::now();
    loop {
        while let Ok(Some(frame)) = asm.next_frame() {
            // Frames alternate request, response.
            if decoded.is_multiple_of(2) {
                black_box(Request::decode(frame));
            } else {
                black_box(Response::decode(Bytes::copy_from_slice(frame)));
            }
            decoded += 1;
        }
        match asm.fill_from(&mut source) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    out.set("net.protocol.decode_ns", ns_per(t, decoded));

    // core.shard: a bare node, no server around it.
    let capacity = 2 * n as u64 * ecc_core::slab::footprint(value_len);
    let node = ShardedNode::new(capacity, 64, DEFAULT_STRIPES);
    let t = Instant::now();
    for (&key, value) in keys.iter().zip(&values) {
        black_box(node.put_slice(key, value));
    }
    out.set("core.shard.put_ns", ns_per(t, n));
    let t = Instant::now();
    for &key in keys {
        black_box(node.get(key));
    }
    out.set("core.shard.get_ns", ns_per(t, n));
    let slots: (u64, u64) = node.slab_stats().iter().fold((0, 0), |(live, total), c| {
        (live + c.live_slots, total + c.total_slots)
    });
    out.set("core.slab.live_slots", slots.0 as f64);
    out.set(
        "core.slab.occupancy",
        slots.0 as f64 / slots.1.max(1) as f64,
    );
    let t = Instant::now();
    for &key in &keys[..n / 2] {
        black_box(node.remove(key));
    }
    out.set("core.shard.remove_ns", ns_per(t, n / 2));
    let left = node.record_count() as usize;
    let t = Instant::now();
    let drained = node.drain_range(0, u64::MAX);
    out.set("core.shard.drain_range_ns_per_rec", ns_per(t, left));
    drop(drained);

    // bptree: the index alone, values as stored by a node.
    let mut tree: BPlusTree<u64, u64> = BPlusTree::new(64);
    let t = Instant::now();
    for &key in keys {
        black_box(tree.insert(key, key));
    }
    out.set("bptree.insert_ns", ns_per(t, n));
    let t = Instant::now();
    for &key in keys {
        black_box(tree.get(&key));
    }
    out.set("bptree.get_ns", ns_per(t, n));
    let held = tree.len();
    let t = Instant::now();
    let swept = tree.drain_range(&0, &u64::MAX);
    out.set("bptree.sweep_ns_per_rec", ns_per(t, held));
    drop(swept);

    // chash: a ring with as many buckets as a grown fleet has.
    let range = keys.iter().copied().max().unwrap_or(0) + 1;
    let mut ring: HashRing<usize> = HashRing::new(range);
    for b in 1..=8u64 {
        let _ = ring.insert_bucket(b * range / 8 - 1, b as usize);
    }
    let t = Instant::now();
    for &key in keys {
        black_box(ring.node_for_key(key));
    }
    out.set("chash.node_for_key_ns", ns_per(t, n));

    // core.window: slices of 100 queries, closed as the coordinator does.
    let slices = 40;
    let mut window = SlidingWindow::new(slices, 0.99, 0.99f64.powi(slices as i32 - 1));
    let mut note_ns = 0u128;
    let mut close_ns = 0u128;
    let mut closes = 0usize;
    for slice in keys.chunks(100) {
        let t = Instant::now();
        for &key in slice {
            window.note_query(key);
        }
        note_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        if let Some(expired) = window.end_slice() {
            black_box(window.victims(&expired));
        }
        close_ns += t.elapsed().as_nanos();
        closes += 1;
    }
    out.set(
        "core.window.note_query_ns",
        note_ns as f64 / n.max(1) as f64,
    );
    out.set(
        "core.window.end_slice_us",
        close_ns as f64 / closes.max(1) as f64 / 1e3,
    );

    // spatial + shoreline: what a real query pays before and behind the
    // cache; neither is on a measured path.
    let linearizer = Linearizer::new(
        GeoGrid::global(8),
        TimeGrid::disabled(),
        Curve::Morton,
        Scheme::TimeMajor,
    );
    let t = Instant::now();
    for &key in keys {
        let lat = (key % 180) as f64 - 90.0;
        let lon = (key % 360) as f64 - 180.0;
        black_box(linearizer.key(lat, lon, key));
    }
    out.set("spatial.linearize_ns", ns_per(t, n));
    let service = ShorelineService::paper_default(0);
    let derive = &keys[..n.min(DERIVE_KEYS)];
    let t = Instant::now();
    for &key in derive {
        black_box(service.execute_key(key % (1 << 16)));
    }
    out.set("shoreline.derive_us", ns_per(t, derive.len()) / 1e3);
}
