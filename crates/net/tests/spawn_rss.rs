//! What a cache server costs: a private one-reactor server, in memory, its
//! thread and sockets only (the hand-off to a reactor must not pin a
//! preallocated message array per reactor: a 65 536-slot one pinned 1.5 MiB
//! each); a node on the process's reactor pool, no thread at all, also
//! when the live coordinator splits or merges; once dropped, no slab page.
//! A binary of its own: VmRSS, the thread count and the mappings are
//! process-wide, and tests beside it would move them; its cases take
//! turns.

#![cfg(target_os = "linux")]

use ecc_core::slab::{SlabArena, SlabRef};
use ecc_net::coordinator::LiveCoordinator;
use ecc_net::server::CacheServer;
use parking_lot::Mutex;

/// Held by each case for its whole run.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A field of `/proc/self/status`.
fn status(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with(field)).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

fn vm_rss_kib() -> u64 {
    status("VmRSS:")
}

/// OS threads of this process. The test harness starts a thread per case,
/// so a count can move by one while a case runs; the cases below take the
/// smallest difference of three tries.
fn threads() -> u64 {
    status("Threads:")
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

#[test]
fn sixteen_nodes_on_the_process_pool_add_no_thread_and_little_rss() {
    let _turn = ONE_AT_A_TIME.lock();
    // The first node starts the pool.
    drop(CacheServer::spawn(10_000, 16).unwrap());
    let (added, grown) = (0..3)
        .map(|_| {
            let (threads_before, rss_before) = (threads(), vm_rss_kib());
            let nodes: Vec<CacheServer> = (0..16)
                .map(|_| CacheServer::spawn(10_000, 16).unwrap())
                .collect();
            let added = threads() as i64 - threads_before as i64;
            let grown = vm_rss_kib().saturating_sub(rss_before);
            drop(nodes);
            (added, grown)
        })
        .min()
        .unwrap();
    assert!(added <= 0, "sixteen nodes added {added} threads");
    assert!(grown < 1024, "sixteen nodes raised VmRSS by {grown} KiB");
}

/// Threads added across a coordinator's splits, then across its merges.
fn threads_across_a_grow_and_shrink() -> (i64, i64) {
    let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
    c.enable_window(2, 0.99, 0.99f64.powi(1));
    let before = threads() as i64;
    for k in 0..32u64 {
        // A queried key is one the window can expire.
        assert_eq!(c.get(k * 999).unwrap(), None);
        c.put(k * 999, vec![1; 100]).unwrap();
    }
    c.totals().unwrap();
    assert!(c.splits >= 2, "no split");
    let grown = threads() as i64;
    for _ in 0..8 {
        c.end_time_step().unwrap();
    }
    assert!(c.merges >= 1, "no merge");
    let shrunk = threads() as i64;
    c.shutdown().unwrap();
    (grown - before, shrunk - grown)
}

#[test]
fn a_live_split_starts_no_thread_and_a_merge_joins_none() {
    let _turn = ONE_AT_A_TIME.lock();
    // The first node starts the pool.
    drop(CacheServer::spawn(10_000, 16).unwrap());
    let (split, merge) = (0..3)
        .map(|_| threads_across_a_grow_and_shrink())
        .min_by_key(|&(split, merge)| split.abs() + merge.abs())
        .unwrap();
    assert_eq!((split, merge), (0, 0), "threads added by splits, by merges");
}
