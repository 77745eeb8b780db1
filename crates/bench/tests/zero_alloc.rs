//! Steady-state serving makes zero global-allocator calls.
//!
//! This binary links `ecc_bench`, whose counting allocator sees every
//! allocation of the process — the client thread and the reactor alike. It holds a single `#[test]`, run phase by phase, so no
//! neighbouring test allocates inside a counted window.
//!
//! The windows are the one owner of the hot path's no-allocation rule,
//! on the paths they drive: wire GET and PUT-replace and the
//! `PutMany`/`GetMany`/`EvictMany` batches (`protocol.rs`, `server.rs`,
//! `reactor.rs`, `record.rs`), shard PUT-replace and GET (`shard.rs`,
//! `slab.rs`, the B+-tree), fresh-insert/remove churn that splits and
//! merges B+-tree nodes through `tree.rs`'s free list, hits plus
//! replacing inserts on the simulator's `CacheNode` (`node.rs`) and the
//! static baseline's `Lru` (`lru.rs`), and simulated hits through
//! `ElasticCache::query` with the λ-window on (`elastic.rs`, `window.rs`:
//! a hit lends the stored record). A batch frame may allocate once: the decoded item list of a
//! `PutMany`, whose values still point into the read buffer, or the
//! decoded key list of a `GetMany` or an `EvictMany`. `Keys` and `ObsDump`
//! are not windows.

use std::ops::Range;
use std::sync::Barrier;
use std::time::Duration;

use ecc_bench::alloc_count::allocation_count;
use ecc_cloudsim::InstanceId;
use ecc_core::{
    CacheConfig, CacheNode, ElasticCache, Lru, Record, ShardedNode, WindowConfig, DEFAULT_STRIPES,
};
use ecc_net::client::{PipelinedConn, RemoteNode};
use ecc_net::protocol::{Request, Response, Status};
use ecc_net::server::CacheServer;

const WINDOW: u64 = 16;
const WINDOWS: u64 = 2_000;
const RESIDENT: u64 = 1_024;
/// Batch frames per batch window (`PutMany`, `GetMany`).
const FRAMES: u64 = 512;

/// First key of the records the wire `EvictMany` frames delete, clear of
/// every GET key.
const DOOMED: u64 = 1 << 20;
/// How many of them: 256 frames' worth.
const DOOMED_COUNT: u64 = 256 * WINDOW;

/// The value every wire PUT stores: the length of the loaded records, so
/// a replacement reuses a slot of the same class.
static VALUE: [u8; 64] = [0x5A; 64];

/// One pipelined window of `op(key)` for `keys`, every reply checked
/// against `expect` (status, body length).
fn window(
    conn: &mut PipelinedConn,
    keys: Range<u64>,
    op: fn(u64) -> Request<'static>,
    expect: (Status, usize),
) {
    for key in keys {
        conn.enqueue(&op(key)).unwrap();
    }
    while conn.in_flight() > 0 {
        let (status, body) = conn.recv().unwrap();
        assert_eq!((status, body.len()), expect);
    }
}

fn get(key: u64) -> Request<'static> {
    Request::Get { key }
}

fn put(key: u64) -> Request<'static> {
    Request::Put { key, value: &VALUE }
}

const HIT: (Status, usize) = (Status::Ok, 64);
const MISS: (Status, usize) = (Status::NotFound, 0);
const OK: (Status, usize) = (Status::Ok, 0);

/// One `PutMany` frame storing `VALUE` under `keys`. The item list is the
/// caller's, lent to the request and taken back, so the client side
/// allocates nothing.
fn put_many_frame(
    conn: &mut PipelinedConn,
    keys: Range<u64>,
    items: &mut Vec<(u64, &'static [u8])>,
) {
    items.clear();
    items.extend(keys.map(|k| (k, &VALUE[..])));
    let n = items.len();
    let req = Request::PutMany {
        items: std::mem::take(items),
    };
    conn.enqueue(&req).unwrap();
    let (status, body) = conn.recv().unwrap();
    assert_eq!((status, body.len()), (Status::Ok, 4 + n));
    assert!(body[4..].iter().all(|&s| s == Status::Ok as u8));
    if let Request::PutMany { items: lent } = req {
        *items = lent;
    }
}

/// One `GetMany` frame reading `keys` back, or (`evict`) one `EvictMany`
/// frame deleting them, all resident; the key list is lent like
/// [`put_many_frame`]'s.
fn key_batch_frame(conn: &mut PipelinedConn, keys: Range<u64>, list: &mut Vec<u64>, evict: bool) {
    list.clear();
    list.extend(keys);
    let n = list.len();
    let keys = std::mem::take(list);
    let req = if evict {
        Request::EvictMany { keys }
    } else {
        Request::GetMany { keys }
    };
    conn.enqueue(&req).unwrap();
    let (status, body) = conn.recv().unwrap();
    let entry = if evict { 1 } else { 1 + 4 + 64 };
    assert_eq!((status, body.len()), (Status::Ok, 4 + n * entry));
    assert!(!evict || body[4..].iter().all(|&s| s == Status::Ok as u8));
    if let Request::GetMany { keys: lent } | Request::EvictMany { keys: lent } = req {
        *list = lent;
    }
}

/// PUT `keys` over a fresh blocking connection (outside any window).
fn load(server: &CacheServer, keys: Range<u64>) {
    let mut loader = RemoteNode::connect(server.addr()).unwrap();
    for key in keys {
        assert_eq!(loader.put(key, vec![key as u8; 64]).unwrap(), Status::Ok);
    }
}

/// Allocator calls of each wire window.
struct WireCounts {
    gets: u64,
    puts: u64,
    put_manys: u64,
    get_manys: u64,
    evict_manys: u64,
}

/// The wire paths through `protocol.rs`, `server.rs`, `reactor.rs` and
/// `record.rs`. GET hits and misses: frame in, stripe lookup, payload
/// copied into the write queue, the reactor's obs batch folded, frame
/// out. PUT-replace: the value decoded as a slice of the read buffer and
/// copied into a recycled slab slot, the old one freed. `PutMany` +
/// `GetMany` frames over resident keys. Then `EvictMany` of resident keys
/// (each record dropped, its slab slot and B+-tree nodes back on their
/// free lists).
fn wire_windows() -> WireCounts {
    let mut server = CacheServer::spawn_with(("127.0.0.1", 0), 1 << 20, 64, 256, Some(1)).unwrap();
    load(&server, 0..RESIDENT);
    load(&server, DOOMED..DOOMED + DOOMED_COUNT);
    let mut conn = PipelinedConn::connect(server.addr(), Duration::from_secs(10)).unwrap();
    let mut items = Vec::with_capacity(WINDOW as usize);
    let mut key_list = Vec::with_capacity(WINDOW as usize);
    // Warm-up: both sides' buffers grown, every histogram the windows
    // touch created — `reactor_wake_us` too, which needs the reactor to
    // have gone cold once.
    for _ in 0..2 {
        std::thread::sleep(Duration::from_millis(100));
        window(&mut conn, 0..WINDOW, get, HIT);
        window(&mut conn, RESIDENT..RESIDENT + WINDOW, get, MISS);
        window(&mut conn, 0..WINDOW, put, OK);
        put_many_frame(&mut conn, 0..WINDOW, &mut items);
        key_batch_frame(&mut conn, 0..WINDOW, &mut key_list, false);
    }
    // One full delete and reload of the doomed keys sizes the slab's and
    // the trees' free lists for the measured deletes.
    for first in (DOOMED..DOOMED + DOOMED_COUNT).step_by(WINDOW as usize) {
        key_batch_frame(&mut conn, first..first + WINDOW, &mut key_list, true);
    }
    load(&server, DOOMED..DOOMED + DOOMED_COUNT);

    let before = allocation_count();
    for w in 0..WINDOWS {
        let first = (w * WINDOW) % RESIDENT;
        window(&mut conn, first..first + WINDOW, get, HIT);
    }
    for w in 0..WINDOWS {
        let first = RESIDENT + w * WINDOW;
        window(&mut conn, first..first + WINDOW, get, MISS);
    }
    let gets = allocation_count() - before;
    let before = allocation_count();
    for w in 0..WINDOWS {
        let first = (w * WINDOW) % RESIDENT;
        window(&mut conn, first..first + WINDOW, put, OK);
    }
    let puts = allocation_count() - before;
    let before = allocation_count();
    for f in 0..FRAMES {
        let first = (f * WINDOW) % RESIDENT;
        put_many_frame(&mut conn, first..first + WINDOW, &mut items);
    }
    let put_manys = allocation_count() - before;
    let before = allocation_count();
    for f in 0..FRAMES {
        let first = (f * WINDOW) % RESIDENT;
        key_batch_frame(&mut conn, first..first + WINDOW, &mut key_list, false);
    }
    let get_manys = allocation_count() - before;
    let before = allocation_count();
    for first in (DOOMED..DOOMED + DOOMED_COUNT).step_by(WINDOW as usize) {
        key_batch_frame(&mut conn, first..first + WINDOW, &mut key_list, true);
    }
    let evict_manys = allocation_count() - before;
    drop(conn);
    server.stop();
    WireCounts {
        gets,
        puts,
        put_manys,
        get_manys,
        evict_manys,
    }
}

/// The storage engine under 4-worker PUT/GET churn of resident 1 KiB
/// records: 400 000 PUT+GET pairs, every PUT landing in a recycled slab slot.
fn shard_churn() -> u64 {
    const WORKERS: usize = 4;
    const PER_WORKER: u64 = 100_000;
    const KEY_SPACE: u64 = 4_096;
    let payload = [0xC5u8; 1024];
    let shard = ShardedNode::new(KEY_SPACE * 1024 * 4, 64, DEFAULT_STRIPES);
    // Every resident record owns its slab slot before the window opens.
    for key in 0..KEY_SPACE {
        shard.put_slice(key, &payload);
    }
    // warmed → (main reads the counter) → measure → done.
    let gates = [(); 3].map(|()| Barrier::new(WORKERS + 1));
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let (shard, payload, gates) = (&shard, &payload, &gates);
            scope.spawn(move || {
                let mut state =
                    0x9E37_79B9_7F4A_7C15u64 ^ (w as u64).wrapping_mul(0xA24B_AED4_963E_E407);
                let mut churn = |ops: u64| {
                    for _ in 0..ops {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        shard.put_slice((state >> 33) % KEY_SPACE, payload);
                        let hit = shard.get_with((state >> 13) % KEY_SPACE, |r| r.map(|r| r.len()));
                        assert_eq!(hit, Some(1024));
                    }
                };
                churn(2_000);
                gates[0].wait();
                gates[1].wait();
                churn(PER_WORKER);
                gates[2].wait();
            });
        }
        gates[0].wait();
        let before = allocation_count();
        gates[1].wait();
        gates[2].wait();
        allocation_count() - before
    })
}

/// Constant-resident-size churn on a shard of order-8 B+-trees: each step
/// inserts a fresh key above the resident window and removes the oldest,
/// so leaves split at the right edge and merge at the left, every node
/// taken from and returned to the tree's free list.
fn shard_insert_remove_churn() -> u64 {
    const RESIDENT: u64 = 4_096;
    const STEPS: u64 = 200_000;
    let payload = [0x5Au8; 100];
    let shard = ShardedNode::new(RESIDENT * 1024, 8, DEFAULT_STRIPES);
    let churn = |from: u64, steps: u64| {
        for key in from..from + steps {
            assert!(shard.remove(key).is_some());
            shard.put_slice(key + RESIDENT, &payload);
        }
    };
    for key in 0..RESIDENT {
        shard.put_slice(key, &payload);
    }
    // Warm-up: eight turnovers of the resident window, long enough for
    // every stripe's node slab and free list to reach their peak sizes.
    churn(0, 8 * RESIDENT);
    let before = allocation_count();
    churn(8 * RESIDENT, STEPS);
    allocation_count() - before
}

/// Hits and replacing inserts on the simulator's cache node and on the
/// static baseline's LRU; a replacement is a refcounted clone of one
/// shared record, so neither structure may copy or box the payload.
fn node_and_lru_hits_and_replaces() -> (u64, u64) {
    const RESIDENT: u64 = 1_024;
    const LOOKUPS: u64 = 100_000;
    let mut node = CacheNode::new(InstanceId(0), 1 << 30, 64);
    let mut lru = Lru::new();
    let shared = Record::filler(64);
    for key in 0..RESIDENT {
        node.insert(key, shared.clone());
        lru.insert(key, shared.clone());
    }
    let key_at = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % RESIDENT;
    let before = allocation_count();
    for i in 0..LOOKUPS {
        assert_eq!(node.get(key_at(i)).map(Record::len), Some(64));
        assert!(node.insert(key_at(i + 1), shared.clone()).is_some());
    }
    let node_allocations = allocation_count() - before;
    let before = allocation_count();
    for i in 0..LOOKUPS {
        assert_eq!(lru.get(&key_at(i)).map(Record::len), Some(64));
        assert!(lru.insert(key_at(i + 1), shared.clone()).is_some());
    }
    (node_allocations, allocation_count() - before)
}

/// Simulated hits through `ElasticCache::query` on resident keys, with
/// eviction on: a query notes its key in the window's open slice, and a
/// hit lends the stored record. The steps before the window fill every
/// slice, so the counted step's slice buffer and the step closes'
/// victim scoring have reached their sizes.
fn elastic_query_hits() -> u64 {
    const RESIDENT: u64 = 1_024;
    const QUERIES: u64 = 20_000;
    let mut cfg = CacheConfig::paper_default();
    cfg.window = Some(WindowConfig::paper(4));
    let mut cache = ElasticCache::new(cfg);
    let shared = Record::filler(64);
    for key in 0..RESIDENT {
        cache.insert(key, shared.clone()).unwrap();
    }
    let key_at = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % RESIDENT;
    let step = |cache: &mut ElasticCache| {
        for i in 0..QUERIES {
            let hit = cache.query(key_at(i), 1_000, || unreachable!("resident"));
            assert_eq!(hit.len(), 64);
        }
    };
    for _ in 0..8 {
        step(&mut cache);
        cache.end_time_step();
    }
    let before = allocation_count();
    step(&mut cache);
    let allocations = allocation_count() - before;
    assert_eq!(cache.total_records() as u64, RESIDENT, "nothing evicted");
    assert_eq!(cache.metrics().misses, 0);
    allocations
}

#[test]
fn steady_state_serving_never_enters_the_allocator() {
    // The empty body of every bare-status response: all of them share one
    // owner, allocated the first time the process needs it.
    drop(bytes::Bytes::new());
    let before = allocation_count();
    for _ in 0..1_000 {
        std::hint::black_box(Response::status(Status::NotFound));
        std::hint::black_box(bytes::Bytes::from(Vec::new()).clone());
    }
    assert_eq!(allocation_count() - before, 0, "empty Bytes allocated");

    let wire = wire_windows();
    assert_eq!(wire.gets, 0, "allocator calls over 64 000 wire GETs");
    assert_eq!(
        wire.puts, 0,
        "allocator calls over 32 000 wire PUT-replaces"
    );
    assert!(
        wire.put_manys <= FRAMES,
        "{} allocator calls over {FRAMES} PutMany-replace frames of {WINDOW}",
        wire.put_manys
    );
    assert!(
        wire.get_manys <= FRAMES,
        "{} allocator calls over {FRAMES} GetMany frames of {WINDOW}",
        wire.get_manys
    );
    assert!(
        wire.evict_manys <= DOOMED_COUNT / WINDOW,
        "{} allocator calls over {} EvictMany frames of {WINDOW}",
        wire.evict_manys,
        DOOMED_COUNT / WINDOW
    );
    assert_eq!(
        shard_churn(),
        0,
        "allocator calls over 400 000 shard PUT+GET pairs"
    );
    assert_eq!(
        shard_insert_remove_churn(),
        0,
        "allocator calls over 200 000 shard insert-fresh + remove-old steps"
    );
    assert_eq!(
        node_and_lru_hits_and_replaces(),
        (0, 0),
        "allocator calls over 100 000 get hits + replacing inserts on CacheNode and on Lru"
    );
    assert_eq!(
        elastic_query_hits(),
        0,
        "allocator calls over 20 000 simulated hits through ElasticCache::query"
    );
}
