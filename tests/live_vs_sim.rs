//! The live TCP deployment and the simulated cache implement the same
//! protocol: driven with the same operations, they must agree on cache
//! contents, placement behaviour and growth, and make the same structural
//! decisions in the same order.

use elastic_cloud_cache::core::engine::{split_costs, SplitCost};
use elastic_cloud_cache::net::coordinator::LiveCoordinator;
use elastic_cloud_cache::prelude::*;

/// The structural events of `live` and `sim`, times dropped, as sequences:
/// the split buckets and destinations, moved records, evicted keys per
/// node and merge pairs, event for event.
fn assert_same_decisions(live: &LiveCoordinator, sim: &ElasticCache) {
    let live_events = live.obs().events_since(0).into_iter();
    let sim_events = sim.obs().events_since(0).into_iter();
    let live_events: Vec<_> = live_events.filter_map(|(_, e)| e.untimed()).collect();
    let sim_events: Vec<_> = sim_events.filter_map(|(_, e)| e.untimed()).collect();
    assert_eq!(live_events, sim_events);
}

/// Figure 4's rows, folded from each substrate's events: the same splits
/// (records moved, a node allocated or not), and every live allocation
/// took time to spawn and connect.
fn assert_same_split_costs(live: &LiveCoordinator, sim: &ElasticCache) {
    let costs = |events: Vec<(u64, _)>| {
        let events: Vec<_> = events.into_iter().map(|(_, e)| e).collect();
        split_costs(&events)
    };
    let live_costs = costs(live.obs().events_since(0));
    let sim_costs = costs(sim.obs().events_since(0));
    let rows = |costs: &[SplitCost]| -> Vec<_> {
        costs.iter().map(|c| (c.records, c.allocated)).collect()
    };
    assert!(!live_costs.is_empty(), "no split to compare");
    assert_eq!(rows(&live_costs), rows(&sim_costs));
    for cost in live_costs.iter().filter(|c| c.allocated) {
        assert!(
            cost.alloc_us > 0,
            "a live allocation took no time: {cost:?}"
        );
    }
}

/// Deterministic pseudo-random key sequence.
fn key_seq(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % (1 << 16)
        })
        .collect()
}

#[test]
fn live_and_simulated_caches_agree_on_contents() {
    let capacity = 16 * 1024u64; // 16 records of 1 KiB
    let mut live = LiveCoordinator::start(1 << 16, capacity).unwrap();

    let mut cfg = CacheConfig::small_test();
    cfg.ring_range = 1 << 16;
    cfg.node_capacity_bytes = capacity;
    cfg.btree_order = 64;
    let mut sim = ElasticCache::new(cfg);

    let keys = key_seq(120, 99);
    for &key in &keys {
        let value = vec![(key % 251) as u8; 1024];
        // Only insert once per distinct key (like a miss-driven fill).
        if live.get(key).unwrap().is_none() {
            live.put(key, value.clone()).unwrap();
        }
        if sim.lookup(key).is_none() {
            sim.insert(key, Record::from_vec(value)).unwrap();
        }
    }

    // Identical resident sets with identical payloads, placed by the same
    // decisions.
    let (live_bytes, live_records) = live.totals().unwrap();
    assert_same_decisions(&live, &sim);
    assert_same_split_costs(&live, &sim);
    assert_eq!(live_records as usize, sim.total_records());
    assert_eq!(live_bytes, sim.total_bytes());
    for &key in &keys {
        let l = live.get(key).unwrap();
        let s = sim.lookup(key).map(|r| r.as_slice().to_vec());
        assert_eq!(l, s, "disagreement on key {key}");
    }

    // Both grew beyond one node (same capacity pressure).
    assert!(live.node_count() >= 3);
    assert!(sim.node_count() >= 3);
    sim.validate();
    live.shutdown().unwrap();
}

#[test]
fn live_cluster_survives_a_grow_evict_contract_cycle() {
    let mut live = LiveCoordinator::start(1 << 16, 8 * 1024).unwrap();
    live.enable_window(2, 0.99, 0.99);

    // The simulator with the same window, ε and the live floor of one node.
    let mut cfg = CacheConfig::small_test();
    cfg.ring_range = 1 << 16;
    cfg.node_capacity_bytes = 8 * 1024;
    cfg.btree_order = 64;
    cfg.window = Some(WindowConfig {
        slices: 2,
        alpha: 0.99,
        threshold: Some(0.99),
    });
    cfg.contraction_epsilon = live.contraction_epsilon;
    cfg.min_nodes = 1;
    let mut sim = ElasticCache::new(cfg);

    // Grow.
    let keys = key_seq(64, 3);
    for &key in &keys {
        if live.get(key).unwrap().is_none() {
            live.put(key, vec![7u8; 1024]).unwrap();
        }
        if sim.lookup(key).is_none() {
            sim.insert(key, Record::from_vec(vec![7u8; 1024])).unwrap();
        }
    }
    let peak = live.node_count();
    assert!(peak >= 4, "expected growth, got {peak}");

    // Keep half the keys warm across slice boundaries.
    let (warm, cold): (Vec<u64>, Vec<u64>) = keys.iter().partition(|&&k| k % 2 == 0);
    for _ in 0..4 {
        for &k in &warm {
            assert!(live.get(k).unwrap().is_some(), "warm key {k} lost");
            assert!(sim.lookup(k).is_some(), "warm key {k} lost");
        }
        live.end_time_step().unwrap();
        sim.end_time_step();
    }
    // Cold keys expired; warm keys survive.
    for &k in &cold {
        assert!(live.get(k).unwrap().is_none(), "cold key {k} survived");
        assert!(sim.lookup(k).is_none(), "cold key {k} survived");
    }
    for &k in &warm {
        assert!(live.get(k).unwrap().is_some(), "warm key {k} evicted");
        assert!(sim.lookup(k).is_some(), "warm key {k} evicted");
    }
    let (_, records) = live.totals().unwrap();
    assert_eq!(records as usize, warm.len());
    assert_eq!(sim.total_records(), warm.len());
    assert!(sim.metrics().merges > 0, "the cycle contracted nothing");
    assert_same_decisions(&live, &sim);
    assert_same_split_costs(&live, &sim);
    sim.validate();
    live.shutdown().unwrap();
}

#[test]
fn a_growing_replacement_splits_alike_on_both_substrates() {
    let capacity = 8 * 1024u64;
    let mut live = LiveCoordinator::start(1 << 16, capacity).unwrap();

    let mut cfg = CacheConfig::small_test();
    cfg.ring_range = 1 << 16;
    cfg.node_capacity_bytes = capacity;
    cfg.btree_order = 64;
    let mut sim = ElasticCache::new(cfg);

    // Seven 1 KiB records fill the one node: an eighth would not fit.
    let keys = key_seq(7, 7);
    for &key in &keys {
        live.put(key, vec![1; 1024]).unwrap();
        sim.insert(key, Record::from_vec(vec![1; 1024])).unwrap();
    }
    assert!(
        sim.total_bytes() / 7 * 8 > capacity,
        "an eighth record fits"
    );
    // A same-size replacement fits only because its copy's bytes count.
    live.put(keys[1], vec![3; 1024]).unwrap();
    sim.insert(keys[1], Record::from_vec(vec![3; 1024]))
        .unwrap();
    live.totals().unwrap();
    assert_eq!((live.splits, sim.metrics().splits), (0, 0));

    // One of them, put again at 3 KiB: its growth over the copy it
    // replaces no longer fits the node, so the node splits.
    let grown = keys[0];
    live.put(grown, vec![2; 3 * 1024]).unwrap();
    sim.insert(grown, Record::from_vec(vec![2; 3 * 1024]))
        .unwrap();
    let (live_bytes, live_records) = live.totals().unwrap();
    assert!(live.splits >= 1, "the growing replacement split nothing");
    assert_same_decisions(&live, &sim);
    assert_same_split_costs(&live, &sim);
    assert_eq!(live_records, 7);
    assert_eq!(sim.total_records(), 7);
    assert_eq!(live_bytes, sim.total_bytes());
    for &key in &keys {
        let l = live.get(key).unwrap();
        let s = sim.lookup(key).map(|r| r.as_slice().to_vec());
        assert_eq!(l, s, "disagreement on key {key}");
    }
    assert_eq!(live.get(grown).unwrap().map(|v| v.len()), Some(3 * 1024));
    sim.validate();
    live.check_invariants().unwrap();
    live.shutdown().unwrap();
}
