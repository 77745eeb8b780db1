//! What a cache server costs in memory: to spawn, threads and sockets
//! only (the acceptor → reactor hand-off must not pin a preallocated
//! message array per reactor: a 65 536-slot one pinned 1.5 MiB each); once
//! dropped, no slab page. A binary of its own: VmRSS and the mappings are
//! process-wide, and tests beside it would move them; its cases take turns.

#![cfg(target_os = "linux")]

use ecc_core::slab::{SlabArena, SlabRef};
use ecc_net::server::CacheServer;
use parking_lot::Mutex;

/// Held by each case for its whole run.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

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
    let _turn = ONE_AT_A_TIME.lock();
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

/// Fill a slab arena with ≈ 4 MiB of 900 B records, a node's payload
/// memory, drop it, and count the slots a mapping of this process still
/// covers: `(still mapped, slots)`.
fn slots_still_mapped() -> (usize, usize) {
    let arena = SlabArena::new();
    let slots: Vec<SlabRef> = (0..(4 << 20) / 900)
        .map(|_| arena.try_alloc(&[0xA5; 900]).unwrap())
        .collect();
    let addrs: Vec<usize> = slots.iter().map(|s| s.as_ptr() as usize).collect();
    drop((slots, arena));
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
    let hex = |h: &str| usize::from_str_radix(h, 16).unwrap();
    let mapped = |a: &usize| {
        maps.lines().any(|line| {
            let (lo, hi) = line.split(' ').next().unwrap().split_once('-').unwrap();
            (hex(lo)..hex(hi)).contains(a)
        })
    };
    (addrs.iter().filter(|a| mapped(a)).count(), addrs.len())
}

#[test]
fn a_dropped_slab_unmaps_every_page() {
    let _turn = ONE_AT_A_TIME.lock();
    // A thread that starts meanwhile (the harness's next test) may map its
    // allocator arena over a freed page, so the case has three tries. A
    // page freed to an allocator arena stays mapped on all three.
    let (kept, slots) = (0..3).map(|_| slots_still_mapped()).min().unwrap();
    assert_eq!(kept, 0, "{kept} of {slots} slots stay mapped");
}
