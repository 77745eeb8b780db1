//! Integration tests for the §VI/§IV-D extensions, driven end-to-end with
//! the real shoreline service.

use elastic_cloud_cache::cloudsim::StorageTier;
use elastic_cloud_cache::prelude::*;

fn base_cfg() -> CacheConfig {
    let mut cfg = CacheConfig::paper_default();
    cfg.node_capacity_bytes = 64 * 1024;
    cfg
}

#[test]
fn overflow_tier_avoids_rederiving_evicted_shorelines() {
    let service = ShorelineService::paper_default(31);
    let mut cfg = base_cfg();
    cfg.window = Some(WindowConfig {
        slices: 2,
        alpha: 0.99,
        threshold: None,
    });
    cfg.overflow_tier = Some(StorageTier::ebs_2010());
    let mut cache = ElasticCache::new(cfg);

    // Derive 30 shorelines, then let them all expire to the tier.
    let keys: Vec<u64> = (0..30u64).map(|i| i * 1111 % (1 << 16)).collect();
    let mut originals = Vec::new();
    for &k in &keys {
        let r = cache.query(k, service.exec_time_for(k), || {
            Record::from_vec(service.execute_key(k).shoreline.to_bytes())
        });
        originals.push(r.into_owned());
    }
    for _ in 0..3 {
        cache.end_time_step();
    }
    assert_eq!(cache.total_records(), 0, "everything should have expired");
    assert_eq!(cache.metrics().tier_writes, 30);

    // Re-query: served from the tier byte-for-byte, no service execution.
    for (i, &k) in keys.iter().enumerate() {
        let r = cache.query(k, service.exec_time_for(k), || {
            unreachable!("tier must serve evicted key {k}")
        });
        assert_eq!(*r, originals[i], "tier corrupted key {k}");
    }
    assert_eq!(cache.metrics().tier_hits, 30);
    // A tier round-trip is milliseconds, not 23 s: the post-eviction pass
    // must be vastly faster than the derivation pass.
    let m = cache.metrics();
    assert!(
        m.service_us > 100 * (m.observed_us - m.service_us),
        "tier path suspiciously slow: {m:?}"
    );
    cache.validate();
}

#[test]
fn proactive_split_and_adaptive_window_compose() {
    let service = ShorelineService::paper_default(13);
    let mut cfg = base_cfg();
    cfg.proactive_split_fill = Some(0.7);
    cfg.window = Some(WindowConfig::paper(10));
    cfg.adaptive_window = Some(elastic_cloud_cache::core::AdaptiveWindowConfig {
        min_slices: 4,
        max_slices: 50,
        grow_ratio: 2.0,
        shrink_ratio: 0.5,
        step_frac: 0.5,
        ema_weight: 0.3,
    });
    let mut cache = ElasticCache::new(cfg);

    // Quiet, surge, quiet — the full disaster arc with both features on.
    let step = |cache: &mut ElasticCache, n: u64, stride: u64| {
        for i in 0..n {
            let k = (i * stride + 7) % (1 << 16);
            cache.query(k, service.exec_time_for(k), || {
                Record::from_vec(service.execute_key(k).shoreline.to_bytes())
            });
        }
        cache.end_time_step();
    };
    for _ in 0..5 {
        step(&mut cache, 5, 331);
    }
    let quiet_m = cache.window().unwrap().slices();
    for _ in 0..5 {
        step(&mut cache, 120, 173);
    }
    let surge_m = cache.window().unwrap().slices();
    assert!(surge_m > quiet_m, "adaptive window: {quiet_m} -> {surge_m}");
    // The surge grew the fleet. Without proactive splitting every split
    // here allocates; with it, some land on a node booted between steps.
    let m = cache.metrics();
    assert!(cache.node_count() >= 2);
    assert!(
        m.splits > m.splits_with_allocation,
        "no proactive split: {m:?}"
    );
    for _ in 0..40 {
        cache.end_time_step();
    }
    assert!(cache.window().unwrap().slices() < surge_m);
    cache.validate();
}
