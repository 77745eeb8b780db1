//! Server thread lifecycle: every way of stopping a server ends with its
//! port closed and its threads gone.
//!
//! The checks count this process's live `ecc-server-*` / `ecc-reactor-*`
//! threads, so the tests in this file take one lock and run one at a time.

#![cfg(target_os = "linux")]
#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "real-time polling of OS threads, serialized by a static std mutex"
)]

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

#[test]
fn stop_after_a_wire_shutdown_still_closes_the_port_and_joins() {
    let _one = ONE_SERVER_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    assert_eq!(threads_named("ecc-"), 0);
    let mut server = CacheServer::spawn_with(("127.0.0.1", 0), 1 << 20, 16, 256, Some(2)).unwrap();
    let addr = server.addr();
    // (A thread names itself as it starts, hence the wait.)
    assert_eq!(wait_for_threads("ecc-", 3), 3, "acceptor + 2 reactors");

    // The coordinator's dealloc order: wire Shutdown, then stop().
    let mut client = RemoteNode::connect(addr).unwrap();
    client.shutdown().unwrap();
    server.stop();

    assert!(
        TcpStream::connect(addr).is_err(),
        "the listener outlived stop()"
    );
    assert_eq!(
        wait_for_threads("ecc-", 0),
        0,
        "stop() left a server thread running"
    );
    server.stop();
}

#[test]
fn wire_shutdown_winds_down_every_reactor_without_stop() {
    let _one = ONE_SERVER_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    assert_eq!(threads_named("ecc-"), 0);
    let server = CacheServer::spawn_with(("127.0.0.1", 0), 1 << 20, 16, 256, Some(4)).unwrap();
    let mut client = RemoteNode::connect(server.addr()).unwrap();
    assert!(client.ping().unwrap());
    // Let all four block: three of them own no connection at all.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(wait_for_threads("ecc-reactor", 4), 4);

    client.shutdown().unwrap();
    drop(client);
    assert_eq!(
        wait_for_threads("ecc-reactor", 0),
        0,
        "a reactor blocked in its wait never saw the Shutdown"
    );

    drop(server);
    assert_eq!(wait_for_threads("ecc-", 0), 0);
}
