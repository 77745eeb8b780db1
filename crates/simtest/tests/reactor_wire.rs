//! Wire-layer regressions for the multi-reactor server.
//!
//! The reactor reads nonblockingly and may observe any prefix of a frame on
//! one readiness wakeup, so these tests split request frames at *every* byte
//! boundary — length prefix included — and demand bit-exact agreement with
//! [`ModelServer`]. They also pin the refusal contract: a connection past
//! the bound reads exactly one `Busy` frame (`[1, 0, 0, 0, 4]`) then EOF.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use ecc_net::client::RemoteNode;
use ecc_net::protocol::{read_frame, write_frame, Request, Response};
use ecc_net::server::CacheServer;
use ecc_simtest::event::record_bytes;
use ecc_simtest::model::ModelServer;
use ecc_simtest::{
    run_schedule, Family, Fault, QuietPanics, Schedule, SimConfig, SimEvent, WireOp,
};

/// Deliver one frame's wire bytes in two writes split at `cut`
/// (`1 <= cut < wire_len`), pausing in between so the server's reactor sees
/// the halves on separate wakeups.
fn send_split(stream: &mut TcpStream, payload: &[u8], cut: usize) -> std::io::Result<()> {
    let mut wire = Vec::with_capacity(4 + payload.len());
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(payload);
    assert!(
        cut >= 1 && cut < wire.len(),
        "cut {cut} outside ({})",
        wire.len()
    );
    stream.write_all(&wire[..cut])?;
    stream.flush()?;
    std::thread::sleep(Duration::from_micros(300));
    stream.write_all(&wire[cut..])
}

fn roundtrip(stream: &mut TcpStream, req: &Request, cut: usize) -> Response {
    let payload = req.encode();
    send_split(stream, &payload, cut).expect("split send");
    let raw = read_frame(stream).expect("server answered");
    Response::decode(raw).expect("decodable response")
}

/// Split a PUT (and the GET reading it back) at every interior byte of its
/// wire image, including inside the 4-byte length prefix. Every response —
/// status *and* body — must match the model bit-exactly: the assembler may
/// never mis-frame, duplicate, or lose bytes regardless of where the kernel
/// happened to cut the stream.
#[test]
fn frames_split_at_every_byte_boundary_reassemble_bit_exact() {
    let mut server =
        CacheServer::spawn_with(("127.0.0.1", 0), 1 << 20, 8, 64, Some(2)).expect("spawn");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut model = ModelServer::new(1 << 20);

    // All PUTs share a wire length (fixed-width key + 64-byte value), so one
    // request's image defines the boundary set for every iteration.
    let wire_len = 4 + Request::Put {
        key: 0,
        value: &record_bytes(0, 64, 0),
    }
    .encode()
    .len();
    let get_wire_len = 4 + Request::Get { key: 0 }.encode().len();

    for cut in 1..wire_len {
        let key = cut as u64;
        let value = record_bytes(key, 64, cut);
        let put = Request::Put { key, value: &value };
        let want = model.respond(Some(put.clone()));
        let got = roundtrip(&mut stream, &put, cut);
        assert_eq!(got, want, "PUT split at byte {cut} diverged");

        // Read the record back through a split GET too, walking the GET's
        // own (smaller) boundary set as `cut` advances.
        let get = Request::Get { key };
        let get_cut = 1 + cut % (get_wire_len - 1);
        let want = model.respond(Some(get.clone()));
        let got = roundtrip(&mut stream, &get, get_cut);
        assert_eq!(got, want, "GET split at byte {get_cut} diverged");
    }
    drop(stream);
    server.stop();
}

/// The same property driven through the simtest harness: a proto schedule
/// dense with `Fragment` faults must round-trip its SIMSEED and agree with
/// the model end to end (so shrunk fragment seeds are replayable).
#[test]
fn fragment_fault_schedule_agrees_with_the_model() {
    let _quiet = QuietPanics::install();
    let mut cfg = SimConfig::base();
    cfg.cap = 1500;
    let mut events = Vec::new();
    for (i, pos) in [0u32, 1, 2, 3, 4, 5, 7, 11, 19, 40, 77, 123, 200]
        .into_iter()
        .enumerate()
    {
        events.push(SimEvent::Frame {
            fault: Fault::Fragment { pos },
            op: WireOp::Put {
                key: i as u64,
                len: 30 + pos,
            },
        });
        events.push(SimEvent::Frame {
            fault: Fault::Fragment {
                pos: pos.wrapping_mul(3) + 1,
            },
            op: WireOp::Get { key: i as u64 },
        });
    }
    events.push(SimEvent::Frame {
        fault: Fault::Fragment { pos: 2 },
        op: WireOp::Stats,
    });
    let s = Schedule {
        family: Family::Proto,
        cfg,
        events,
    };
    let seed = s.encode();
    let replayed = Schedule::decode(&seed).expect("fragment SIMSEED decodes");
    assert_eq!(replayed.events, s.events, "fragment SIMSEED round-trip");
    if let Err(f) = run_schedule(&s) {
        panic!("fragmented proto schedule diverged: {f}\n  {seed}");
    }
}

/// Refusal contract under the reactor: a connection past the bound reads
/// exactly the bytes `[1, 0, 0, 0, 4]` — one length-1 frame carrying
/// `Status::Busy` — followed by a clean EOF, and the served connections
/// keep working afterwards.
#[test]
fn refused_connection_reads_exactly_one_busy_frame_then_eof() {
    let mut server = CacheServer::spawn_with(("127.0.0.1", 0), 10_000, 8, 2, None).expect("spawn");
    let mut a = RemoteNode::connect(server.addr()).expect("conn a");
    let mut b = RemoteNode::connect(server.addr()).expect("conn b");
    a.stats().unwrap();
    b.stats().unwrap();

    let mut raw = TcpStream::connect(server.addr()).expect("third connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes).expect("read until EOF");
    assert_eq!(
        bytes,
        vec![1, 0, 0, 0, 4],
        "refused connection must see one Busy frame and nothing else"
    );

    // The bounded slots were untouched by the refusal.
    a.stats().unwrap();
    b.stats().unwrap();
    drop((a, b));
    server.stop();

    // And a regular frame write against the refused socket can't resurrect
    // it: the server already closed its end.
    let err = write_frame(&mut raw, &Request::Stats.encode())
        .and_then(|()| read_frame(&mut raw))
        .map(|_| ());
    assert!(err.is_err(), "refused connection stayed readable");
}
