//! Server lifecycle: every way of stopping a server ends with its port
//! closed. A node on the process's reactor pool has its connections
//! dropped by the time `stop` returns; a private pool's reactors are
//! joined by it.
//!
//! The private-pool check counts this process's live `ecc-reactor-*`
//! threads, so the tests in this file take one lock and run one at a time.

#![cfg(target_os = "linux")]
#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "real-time polling of OS threads and ports, serialized by a static std mutex"
)]

use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ecc_net::client::RemoteNode;
use ecc_net::server::CacheServer;

static ONE_SERVER_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Live threads of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with(prefix))
        .count()
}

/// Poll `threads_named(prefix)` until it reads `want` or two seconds pass.
fn wait_for_threads(prefix: &str, want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let n = threads_named(prefix);
        if n == want || Instant::now() > deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Whether the server side of `raw` is already closed: a read returns EOF
/// or an error at once instead of waiting for bytes.
fn peer_closed(raw: &mut TcpStream) -> bool {
    raw.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    match raw.read(&mut [0u8; 16]) {
        Ok(n) => n == 0,
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
    }
}

#[test]
fn stop_joins_a_private_pools_reactors() {
    let _one = ONE_SERVER_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    assert_eq!(threads_named("ecc-reactor"), 0);
    let mut server = CacheServer::spawn_with(("127.0.0.1", 0), 1 << 20, 16, 256, Some(2)).unwrap();
    let addr = server.addr();
    // (A thread names itself as it starts, hence the wait.)
    assert_eq!(wait_for_threads("ecc-reactor", 2), 2, "2 reactors");

    let mut client = RemoteNode::connect(addr).unwrap();
    client.stats().unwrap();
    server.stop();

    assert!(
        TcpStream::connect(addr).is_err(),
        "the listener outlived stop()"
    );
    assert_eq!(
        wait_for_threads("ecc-reactor", 0),
        0,
        "stop() left a reactor running"
    );
    server.stop();
}

#[test]
fn a_pool_nodes_port_and_connections_are_closed_when_stop_returns() {
    let _one = ONE_SERVER_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let mut server = CacheServer::spawn(1 << 20, 16).unwrap();
    let addr = server.addr();
    let mut client = RemoteNode::connect(addr).unwrap();
    client.stats().unwrap();
    // A second connection, admitted but never used.
    let mut raw = TcpStream::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.connections_accepted() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(server.connections_accepted(), 2);

    server.stop();

    // No polling: both hold the moment stop() returns.
    assert!(
        TcpStream::connect(addr).is_err(),
        "the listener outlived stop()"
    );
    assert!(peer_closed(&mut raw), "an idle connection outlived stop()");
    assert!(client.stats().is_err(), "a used connection outlived stop()");
}
