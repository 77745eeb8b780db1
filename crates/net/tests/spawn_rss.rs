//! What a cache server costs to spawn: threads and sockets, not memory.
//! The acceptor → reactor hand-off carries a few sockets over a node's
//! life, so it must not pin a preallocated message array per reactor (a
//! 65 536-slot one pinned 1.5 MiB each). A binary of its own: VmRSS is
//! process-wide, and tests running beside it would move it.

#![cfg(target_os = "linux")]

use ecc_net::server::CacheServer;

fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

fn one_reactor_server() -> CacheServer {
    CacheServer::spawn_with(("127.0.0.1", 0), 10_000, 16, 256, Some(1)).unwrap()
}

#[test]
fn eight_one_reactor_servers_raise_rss_by_under_two_mib() {
    // One spawn first, so one-time process setup is not charged to the
    // eight.
    drop(one_reactor_server());
    let before = vm_rss_kib();
    let servers: Vec<CacheServer> = (0..8).map(|_| one_reactor_server()).collect();
    let grown = vm_rss_kib().saturating_sub(before);
    drop(servers);
    assert!(
        grown < 2 * 1024,
        "eight servers raised VmRSS by {grown} KiB"
    );
}
