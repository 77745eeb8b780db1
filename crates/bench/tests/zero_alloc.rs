//! Steady-state serving makes zero global-allocator calls.
//!
//! This binary links `ecc_bench`, whose counting allocator sees every
//! allocation of the process — the client thread, the acceptor and the
//! reactor alike. It holds a single `#[test]`, run phase by phase, so no
//! neighbouring test allocates inside a counted window.

use std::sync::Barrier;
use std::time::Duration;

use ecc_bench::alloc_count::allocation_count;
use ecc_core::{ShardedNode, DEFAULT_STRIPES};
use ecc_net::client::{PipelinedConn, RemoteNode};
use ecc_net::protocol::{Request, Response, Status};
use ecc_net::server::CacheServer;

const WINDOW: u64 = 16;
const WINDOWS: u64 = 2_000;
const RESIDENT: u64 = 1_024;

/// One pipelined window of GETs for `keys`, every reply checked.
fn window(conn: &mut PipelinedConn, keys: std::ops::Range<u64>, expect: Status) {
    for key in keys {
        conn.enqueue(&Request::Get { key }).unwrap();
    }
    while conn.in_flight() > 0 {
        let (status, body) = conn.recv().unwrap();
        assert_eq!(status, expect);
        assert_eq!(body.len(), if expect == Status::Ok { 64 } else { 0 });
    }
}

/// The wire GET path, hits and misses: frame in, stripe lookup, payload
/// copied into the write queue, the reactor's obs batch folded, frame out.
fn wire_gets() -> u64 {
    let mut server = CacheServer::spawn_with(("127.0.0.1", 0), 1 << 20, 64, 256, Some(1)).unwrap();
    let mut loader = RemoteNode::connect(server.addr()).unwrap();
    for key in 0..RESIDENT {
        assert_eq!(loader.put(key, vec![key as u8; 64]).unwrap(), Status::Ok);
    }
    drop(loader);
    let mut conn = PipelinedConn::connect(server.addr(), Duration::from_secs(10)).unwrap();
    // Warm-up: both sides' buffers grown, every histogram the windows
    // touch created — `reactor_wake_us` too, which needs the reactor to
    // have gone cold once.
    for _ in 0..2 {
        std::thread::sleep(Duration::from_millis(100));
        window(&mut conn, 0..WINDOW, Status::Ok);
        window(&mut conn, RESIDENT..RESIDENT + WINDOW, Status::NotFound);
    }

    let before = allocation_count();
    for w in 0..WINDOWS {
        let first = (w * WINDOW) % RESIDENT;
        window(&mut conn, first..first + WINDOW, Status::Ok);
    }
    for w in 0..WINDOWS {
        let first = RESIDENT + w * WINDOW;
        window(&mut conn, first..first + WINDOW, Status::NotFound);
    }
    let allocations = allocation_count() - before;
    drop(conn);
    server.stop();
    allocations
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

    assert_eq!(wire_gets(), 0, "allocator calls over 64 000 wire GETs");
    assert_eq!(
        shard_churn(),
        0,
        "allocator calls over 400 000 shard PUT+GET pairs"
    );
}
