//! Multi-threaded stress: concurrent writers, readers, a batched reader
//! and a migration sweep against one node, checked two ways.
//!
//! * In-process: [`ShardedNode`] under N writers + M readers + a batched
//!   reader + a concurrent drain/re-put "migration", then
//!   `check_invariants` and flat-map agreement against a single-threaded
//!   `BTreeMap` model.
//! * Over the wire: the same thread mix against a live [`CacheServer`]
//!   (the batched reader pipelines windows of GETs, which the server
//!   serves as batch reads),
//!   with the final state compared **bit-exactly** — raw response frames
//!   — against [`ModelServer`], the simtest differential oracle, fed the
//!   same final contents.
//!
//! Determinism under concurrency: writers own disjoint key ranges and the
//! migration thread sweeps a range nobody writes, re-inserting exactly
//! what it drained. Interleavings differ; the final flat map cannot.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use std::time::Duration;

use ecc_core::{PutOutcome, Record, ShardedNode, GET_BATCH};
use ecc_net::client::{PipelinedConn, RemoteNode};
use ecc_net::protocol::{read_frame, write_frame, Request, Response, Status};
use ecc_net::server::CacheServer;
use ecc_simtest::model::ModelServer;

const WRITERS: u64 = 4;
const READERS: usize = 2;
const KEYS_PER_WRITER: u64 = 64;
const ROUNDS: u64 = 40;
/// The migration thread's dedicated range, disjoint from every writer.
const MIG_LO: u64 = 10_000;
const MIG_HI: u64 = 10_063;

/// The value writer `w` stores for `key` on round `r`: content derives
/// from the key alone (so readers can check torn-read integrity on any
/// round's value) while the length varies with the round (so replacements
/// actually change accounting).
fn writer_value(key: u64, r: u64) -> Vec<u8> {
    vec![(key % 251) as u8; 32 + (r as usize % 8) * 16]
}

fn migration_value(key: u64) -> Vec<u8> {
    vec![(key % 251) as u8; 100]
}

/// The deterministic final contents: every writer key at its last round's
/// value, plus the untouched (swept-and-restored) migration range.
fn expected_final() -> BTreeMap<u64, Vec<u8>> {
    let mut m = BTreeMap::new();
    for w in 0..WRITERS {
        for i in 0..KEYS_PER_WRITER {
            let key = w * 1_000 + i;
            m.insert(key, writer_value(key, ROUNDS - 1));
        }
    }
    for key in MIG_LO..=MIG_HI {
        m.insert(key, migration_value(key));
    }
    m
}

/// A value observed for `key` mid-run must be one of the round values —
/// same fill byte, a generated length. Detects torn payloads and
/// cross-key mixups under concurrency.
/// The `i`-th window of keys a batched reader asks for: writer keys and
/// migration keys, each twice.
fn batch_keys(i: u64) -> Vec<u64> {
    let half = (GET_BATCH / 2) as u64;
    let keys = (0..half).map(|j| {
        let k = (i * 37 + j * 101) % (WRITERS * 1_000 + 64);
        if k < WRITERS * 1_000 {
            k
        } else {
            MIG_LO + (k - WRITERS * 1_000)
        }
    });
    keys.flat_map(|k| [k, k]).collect()
}

fn assert_value_integrity(key: u64, v: &[u8]) {
    let fill = (key % 251) as u8;
    assert!(v.iter().all(|&b| b == fill), "torn payload for key {key}");
    let len = v.len();
    let valid_writer_len = (32..=32 + 7 * 16).contains(&len) && (len - 32).is_multiple_of(16);
    assert!(
        valid_writer_len || len == 100,
        "key {key}: impossible length {len}"
    );
}

#[test]
fn sharded_node_stress_matches_flat_model() {
    let node = Arc::new(ShardedNode::new(64 << 20, 16, 8));
    for key in MIG_LO..=MIG_HI {
        assert_eq!(
            node.put(key, Record::from_vec(migration_value(key))),
            PutOutcome::Stored
        );
    }
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let node = Arc::clone(&node);
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    for i in 0..KEYS_PER_WRITER {
                        let key = w * 1_000 + i;
                        let out = node.put(key, Record::from_vec(writer_value(key, r)));
                        assert_eq!(out, PutOutcome::Stored);
                    }
                }
            });
        }
        for m in 0..READERS {
            let node = Arc::clone(&node);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut state = 0xD1B54A32D192ED03u64 ^ m as u64;
                while !stop.load(Ordering::Acquire) {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = (state >> 33) % (WRITERS * 1_000);
                    if let Some(rec) = node.get(key) {
                        assert_value_integrity(key, rec.as_slice());
                    }
                }
            });
        }
        // A batched reader. A batch is one linearizable read, so a key
        // asked for twice in one batch reads the same stored record both
        // times, whatever the writers and the drain do around it.
        {
            let node = Arc::clone(&node);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut i = 0;
                while !stop.load(Ordering::Acquire) {
                    let keys = batch_keys(i);
                    i += 1;
                    let mut seen = Vec::with_capacity(keys.len());
                    node.get_many_with(&keys, |r| {
                        if let Some(r) = r {
                            assert_value_integrity(keys[seen.len()], r.as_slice());
                        }
                        seen.push(r.map(|r| (r.as_slice().as_ptr(), r.len())));
                    });
                    assert_eq!(seen.len(), keys.len());
                    for (pair, key) in seen.chunks(2).zip(keys.chunks(2)) {
                        assert_eq!(pair[0], pair[1], "key {} changed inside a batch", key[0]);
                    }
                }
            });
        }
        // Concurrent migration: sweep the dedicated range, re-insert what
        // was drained — Sweep-and-Migrate's destructive read + re-home.
        {
            let node = Arc::clone(&node);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    let drained = node.drain_range(MIG_LO, MIG_HI);
                    for (k, rec) in drained {
                        assert_eq!(node.put(k, rec), PutOutcome::Stored);
                    }
                    node.check_invariants().expect("mid-run audit");
                }
                stop.store(true, Ordering::Release);
            });
        }
    });

    node.check_invariants().expect("final audit");
    node.validate();

    // Flat-map agreement with the single-threaded model.
    let expect = expected_final();
    let keys = node.keys_in_range(0, u64::MAX);
    assert_eq!(
        keys,
        expect.keys().copied().collect::<Vec<_>>(),
        "key set diverged from the model"
    );
    for (key, v) in &expect {
        let rec = node.get(*key).expect("model key missing");
        assert_eq!(rec.as_slice(), &v[..], "bytes diverged at key {key}");
    }
    let expected_bytes: u64 = expect
        .values()
        .map(|v| ecc_core::slab::footprint(v.len()))
        .sum();
    assert_eq!(node.used_bytes(), expected_bytes);
    assert_eq!(node.record_count(), expect.len() as u64);
}

/// Encode the oracle's response the way the server frames it.
fn model_frame(model: &mut ModelServer, req: Request) -> Vec<u8> {
    let resp: Response = model.respond(Some(req));
    let mut buf = Vec::new();
    resp.encode_into(&mut buf);
    buf
}

#[test]
fn wire_stress_matches_model_server_bit_exactly() {
    let server = CacheServer::spawn(64 << 20, 16).unwrap();
    let addr = server.addr();

    {
        let mut seed = RemoteNode::connect(addr).unwrap();
        let items: Vec<(u64, Bytes)> = (MIG_LO..=MIG_HI)
            .map(|k| (k, Bytes::from(migration_value(k))))
            .collect();
        assert!(seed
            .put_many(items)
            .unwrap()
            .iter()
            .all(|s| *s == ecc_net::protocol::Status::Ok));
    }

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            scope.spawn(move || {
                let mut c = RemoteNode::connect(addr).unwrap();
                for r in 0..ROUNDS {
                    for i in 0..KEYS_PER_WRITER {
                        let key = w * 1_000 + i;
                        let status = c.put(key, writer_value(key, r)).unwrap();
                        assert_eq!(status, ecc_net::protocol::Status::Ok);
                    }
                }
            });
        }
        for m in 0..READERS {
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut c = RemoteNode::connect(addr).unwrap();
                let mut state = 0xA0761D6478BD642Fu64 ^ m as u64;
                while !stop.load(Ordering::Acquire) {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = (state >> 33) % (WRITERS * 1_000);
                    if let Some(v) = c.get(key).unwrap() {
                        assert_value_integrity(key, &v);
                    }
                }
            });
        }
        // A batched reader: one pipelined window of GETs per write.
        {
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut c = PipelinedConn::connect(addr, Duration::from_secs(10)).unwrap();
                let mut i = 0;
                while !stop.load(Ordering::Acquire) {
                    let keys = batch_keys(i);
                    i += 1;
                    for &key in &keys {
                        c.enqueue(&Request::Get { key }).unwrap();
                    }
                    c.flush().unwrap();
                    for &key in &keys {
                        let (status, body) = c.recv().unwrap();
                        match status {
                            Status::Ok => assert_value_integrity(key, body),
                            Status::NotFound => assert!(body.is_empty()),
                            other => panic!("GET {key} answered {other:?}"),
                        }
                    }
                }
            });
        }
        {
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut c = RemoteNode::connect(addr).unwrap();
                // The coordinator's hand-off ops: list, copy out, delete,
                // then re-home what was copied.
                for _ in 0..ROUNDS {
                    let keys = c.keys(MIG_LO, MIG_HI).unwrap();
                    let values = c.get_many(&keys).unwrap();
                    c.evict_many(&keys).unwrap();
                    for (k, v) in keys.into_iter().zip(values) {
                        let v = v.expect("listed key vanished mid-copy");
                        assert_eq!(c.put(k, v).unwrap(), ecc_net::protocol::Status::Ok);
                    }
                }
                stop.store(true, Ordering::Release);
            });
        }
    });

    // Feed the oracle the deterministic final contents, then require the
    // live server's raw response frames to match the model's encodings
    // byte for byte.
    let expect = expected_final();
    let mut model = ModelServer::new(64 << 20);
    for (k, v) in &expect {
        let r = model.respond(Some(Request::Put { key: *k, value: v }));
        assert_eq!(
            r.status,
            ecc_net::protocol::Status::Ok,
            "model refused a put the server accepted"
        );
    }

    let mut raw = TcpStream::connect(addr).unwrap();
    let mut exchange = |req: Request| -> Vec<u8> {
        write_frame(&mut raw, &req.encode()).unwrap();
        read_frame(&mut raw).unwrap().to_vec()
    };

    let probes = vec![
        Request::Keys {
            lo: 0,
            hi: u64::MAX,
        },
        Request::Stats,
        Request::Keys {
            lo: MIG_LO,
            hi: MIG_HI,
        },
        Request::GetMany {
            keys: expect.keys().copied().collect(),
        },
        Request::Get { key: MIG_LO },
        Request::Get { key: 999_999 },
        Request::EvictMany {
            keys: expect.keys().copied().collect(),
        },
        // After evicting every key both sides must be empty.
        Request::Stats,
        Request::Keys {
            lo: 0,
            hi: u64::MAX,
        },
    ];
    for req in probes {
        let live = exchange(req.clone());
        let oracle = model_frame(&mut model, req.clone());
        assert_eq!(live, oracle, "wire/model divergence on {req:?}");
    }
}
