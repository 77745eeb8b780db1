//! Coordinator/server fault-path tests: a misbehaving peer — half-written
//! frames, vanishing clients, nodes that accept but never answer — must
//! never wedge the server or hang the client. After every injected fault a
//! *fresh* client performs a full put/get round-trip to prove the server is
//! still serving.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::Bytes;
use ecc_net::client::RemoteNode;
use ecc_net::protocol::{
    decode_stats, encode_traced, read_frame, write_frame, Op, Request, Status, TraceContext,
};
use ecc_net::server::CacheServer;

/// The post-fault liveness probe every test ends with.
fn assert_still_serving(server: &CacheServer, key: u64) {
    let mut client = RemoteNode::connect(server.addr()).expect("fresh connection after the fault");
    client.stats().expect("stats after the fault");
    assert_eq!(
        client.put(key, vec![key as u8; 16]).expect("put"),
        Status::Ok
    );
    assert_eq!(client.get(key).expect("get"), Some(vec![key as u8; 16]));
}

#[test]
fn half_written_frame_does_not_wedge_the_server() {
    let mut server = CacheServer::spawn(10_000, 8).expect("spawn");

    // Promise a 100-byte frame, deliver 10, and vanish. The connection
    // thread blocks in read_exact until the socket closes, then must treat
    // the truncation as EOF — not corrupt shared state or spin.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(&100u32.to_le_bytes()).expect("length prefix");
    raw.write_all(&[0xAB; 10]).expect("partial body");
    raw.flush().expect("flush");
    drop(raw);

    assert_still_serving(&server, 1);
    server.stop();
}

#[test]
fn client_disconnect_mid_response_does_not_wedge_the_server() {
    let mut server = CacheServer::spawn(1 << 20, 8).expect("spawn");

    // Park a large record so the response spans many TCP segments.
    let mut loader = RemoteNode::connect(server.addr()).expect("connect");
    assert_eq!(
        loader.put(7, vec![0x5A; 512 * 1024]).expect("put"),
        Status::Ok
    );
    drop(loader);

    // Request it over a raw socket and slam the connection before reading
    // a single response byte: the server's write hits a reset pipe.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut raw, &Request::Get { key: 7 }.encode()).expect("request");
    drop(raw);

    assert_still_serving(&server, 2);
    server.stop();
}

#[test]
fn truncated_put_many_is_rejected_whole() {
    let mut server = CacheServer::spawn(10_000, 8).expect("spawn");

    // A complete frame whose PutMany payload lies: the count promises two
    // items but the body carries one. The server must reject the whole
    // batch (no partial application) and keep the connection alive.
    let mut payload = vec![Op::PutMany as u8];
    payload.extend_from_slice(&2u32.to_le_bytes());
    payload.extend_from_slice(&41u64.to_le_bytes());
    payload.extend_from_slice(&3u32.to_le_bytes());
    payload.extend_from_slice(b"abc");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut raw, &payload).expect("send");
    let resp = read_frame(&mut raw).expect("response");
    assert_eq!(Status::from_u8(resp[0]), Some(Status::BadRequest));

    // The same connection still answers, and not even the first (fully
    // present) item of the bad batch was applied.
    write_frame(&mut raw, &Request::Get { key: 41 }.encode()).expect("probe");
    let resp = read_frame(&mut raw).expect("probe response");
    assert_eq!(Status::from_u8(resp[0]), Some(Status::NotFound));

    assert_still_serving(&server, 4);
    server.stop();
}

#[test]
fn retired_ping_and_shutdown_opcodes_get_bad_request_and_the_port_keeps_serving() {
    let mut server = CacheServer::spawn(10_000, 8).expect("spawn");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let ctx = TraceContext {
        trace_id: 7,
        span_id: 8,
        parent_span_id: 0,
        sampled: true,
    };
    for op in [0x07u8, 0x08] {
        // A traced Stats ends in its opcode: swap in the retired one.
        let mut traced = encode_traced(&ctx, &Request::Stats).to_vec();
        *traced.last_mut().expect("an opcode") = op;
        for payload in [vec![op], traced] {
            write_frame(&mut raw, &payload).expect("send");
            let resp = read_frame(&mut raw).expect("response");
            assert_eq!(&resp[..], [Status::BadRequest as u8], "{payload:?}");
            // Exactly one reply: the next frame on the connection is the
            // answer to this Stats.
            write_frame(&mut raw, &Request::Stats.encode()).expect("probe");
            let resp = read_frame(&mut raw).expect("probe response");
            assert_eq!(Status::from_u8(resp[0]), Some(Status::Ok));
            assert_eq!(decode_stats(&resp[1..]), Some((0, 0, 10_000)));
        }
    }

    assert_still_serving(&server, 3);
    server.stop();
}

#[test]
fn oversized_batch_count_prefix_is_rejected_without_allocating() {
    let mut server = CacheServer::spawn(10_000, 8).expect("spawn");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");

    // A hostile count prefix (u32::MAX items in a 4-byte body) must be
    // refused up front — were the server to trust it, the reservation
    // alone would be a multi-GB allocation.
    for op in [Op::PutMany, Op::GetMany, Op::EvictMany] {
        let mut payload = vec![op as u8];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        write_frame(&mut raw, &payload).expect("send");
        let resp = read_frame(&mut raw).expect("response");
        assert_eq!(
            Status::from_u8(resp[0]),
            Some(Status::BadRequest),
            "{op:?} with a hostile count must be rejected"
        );
    }

    assert_still_serving(&server, 5);
    server.stop();
}

#[test]
fn batch_partial_failure_reports_per_item_status_and_connection_survives() {
    // Capacity fits the first record but not the second: the batch must
    // come back [Ok, Overflow, Ok] — a refused item is a verdict, not an
    // error, and the connection keeps serving. Footprints: the 60-byte
    // values occupy 80-byte slabs slots, the 10-byte value a 64-byte one.
    let mut server = CacheServer::spawn(150, 8).expect("spawn");
    let mut client = RemoteNode::connect(server.addr()).expect("connect");
    let statuses = client
        .put_many(vec![
            (1, Bytes::from(vec![0xA1; 60])),
            (2, Bytes::from(vec![0xA2; 60])),
            (3, Bytes::from(vec![0xA3; 10])),
        ])
        .expect("put_many");
    assert_eq!(statuses, vec![Status::Ok, Status::Overflow, Status::Ok]);
    assert_eq!(client.get(1).expect("get"), Some(vec![0xA1; 60]));
    assert_eq!(client.get(2).expect("get"), None);
    assert_eq!(client.get(3).expect("get"), Some(vec![0xA3; 10]));

    // Mixed present/absent eviction: per-key verdicts in request order.
    let verdicts = client.evict_many(&[2, 1, 3]).expect("evict_many");
    assert_eq!(verdicts, vec![Status::NotFound, Status::Ok, Status::Ok]);
    let entries = client.get_many(&[1, 2, 3]).expect("get_many");
    assert_eq!(entries, vec![None, None, None]);

    assert_still_serving(&server, 6);
    server.stop();
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test bounds a real-time wait"
)]
fn never_answering_node_times_out_instead_of_hanging() {
    // A "node" that accepts connections and then goes silent — the
    // black-hole failure mode a coordinator must bound with timeouts.
    let sink = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = sink.local_addr().expect("addr");
    let hold = std::thread::spawn(move || {
        // Keep the accepted socket alive so the client sees an open,
        // silent peer rather than a reset.
        let held = sink.accept();
        std::thread::sleep(Duration::from_secs(1));
        drop(held);
    });

    let timeout = Duration::from_millis(200);
    let mut client = RemoteNode::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(timeout))
        .expect("read timeout");
    let t0 = Instant::now();
    let err = client.get(1).expect_err("a silent peer must not answer");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "expected a timeout, got {err:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "client hung on a silent peer for {:?}",
        t0.elapsed()
    );
    hold.join().expect("sink thread");

    // A healthy server next to the black hole is unaffected.
    let mut server = CacheServer::spawn(10_000, 8).expect("spawn");
    assert_still_serving(&server, 3);
    server.stop();
}
