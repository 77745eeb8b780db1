//! The reactor's cold wait: it blocks in `poll` on exactly the events that
//! let a sweep move bytes, and wakes for nothing else.
//!
//! An idle connection must cost no wake-ups (no timed polling); a flush
//! the peer stalled must resume when the peer drains (`POLLOUT`); and a
//! connection the write high-water mark stopped reading must be read
//! again once its queue falls (`POLLIN` re-armed). Each test lets the
//! reactor go cold first, so only the interest set can wake it.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use ecc_net::client::RemoteNode;
use ecc_net::protocol::{append_frame, decode_stats, read_frame, Request, Status};
use ecc_net::server::CacheServer;

/// Long enough for a reactor to leave its hot yield window and block.
const GO_COLD: Duration = Duration::from_millis(100);

const BIG: usize = 256 * 1024;

/// A server holding one `BIG` record under key 1, and a raw connection
/// that has written `gets` pipelined GETs of it without reading anything.
fn server_with_unread_responses(gets: usize) -> (CacheServer, TcpStream) {
    let server = CacheServer::spawn(1 << 30, 16).unwrap();
    let mut loader = RemoteNode::connect(server.addr()).unwrap();
    assert_eq!(loader.put(1, vec![0x5A; BIG]).unwrap(), Status::Ok);
    drop(loader);

    let mut raw = TcpStream::connect(server.addr()).unwrap();
    // A reactor that never wakes must fail the test, not hang it.
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut burst = Vec::new();
    for _ in 0..gets {
        append_frame(&mut burst, |b| Request::Get { key: 1 }.encode_into(b)).unwrap();
    }
    raw.write_all(&burst).unwrap();
    (server, raw)
}

fn read_big_responses(raw: &mut TcpStream, n: usize) {
    for i in 0..n {
        let resp = read_frame(raw).unwrap();
        assert_eq!(Status::from_u8(resp[0]), Some(Status::Ok), "response {i}");
        assert_eq!(resp.len(), 1 + BIG, "response {i}");
    }
}

#[test]
fn idle_connection_costs_no_wakeups() {
    let mut server = CacheServer::spawn_with(("127.0.0.1", 0), 1 << 20, 16, 256, Some(2)).unwrap();
    let mut client = RemoteNode::connect(server.addr()).unwrap();
    client.stats().unwrap();
    std::thread::sleep(GO_COLD);

    let wakes = || server.obs().gauge("reactor_idle_wakes").unwrap_or(0);
    let before = wakes();
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        wakes(),
        before,
        "a reactor woke with nothing to do: the wait is timed"
    );

    // The connection is idle, not dead: its next request is one wake.
    client.stats().unwrap();
    assert_eq!(wakes(), before + 1);
    server.stop();
}

#[test]
fn stalled_flush_resumes_when_the_peer_drains() {
    // 12 MiB of responses against a peer that reads nothing: more than
    // the kernel buffers between the two sockets absorb, so the flush
    // stops at `WouldBlock` with a residue queued.
    let gets = 48;
    let (mut server, mut raw) = server_with_unread_responses(gets);
    std::thread::sleep(GO_COLD);

    // No further request is sent: only `POLLOUT` can restart the flush.
    read_big_responses(&mut raw, gets);
    server.stop();
}

#[test]
fn backpressure_rearms_reads_once_the_queue_drains() {
    // 32 MiB of responses puts the write queue far past the 4 MiB
    // high-water mark whatever the kernel buffered, so the reactor stops
    // reading this connection; the Stats behind the burst stays unread.
    let gets = 128;
    let (mut server, mut raw) = server_with_unread_responses(gets);
    std::thread::sleep(GO_COLD);
    let mut stats = Vec::new();
    append_frame(&mut stats, |b| Request::Stats.encode_into(b)).unwrap();
    raw.write_all(&stats).unwrap();
    std::thread::sleep(GO_COLD);

    read_big_responses(&mut raw, gets);
    let resp = read_frame(&mut raw).unwrap();
    assert_eq!(resp[0], Status::Ok as u8, "Stats behind the backpressure");
    let count = decode_stats(&resp[1..]).map(|(_, count, _)| count);
    assert_eq!(count, Some(1), "Stats behind the backpressure");
    server.stop();
}
