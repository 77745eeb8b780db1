//! End-to-end integration: the full paper pipeline — spatiotemporal query
//! → linearized key → elastic cache → shoreline service on miss — across
//! all workspace crates.

use elastic_cloud_cache::prelude::*;

fn paper_like_cfg() -> CacheConfig {
    let mut cfg = CacheConfig::paper_default();
    cfg.node_capacity_bytes = 64 * 1024; // small nodes so elasticity engages
    cfg
}

#[test]
fn geographic_queries_roundtrip_through_the_cache() {
    let service = ShorelineService::paper_default(5);
    let mut cache = ElasticCache::new(paper_like_cfg());

    let spots = [
        (45.52, -122.68),
        (29.76, -95.37),
        (18.54, -72.34),
        (59.91, 10.75),
        (-33.86, 151.21),
    ];
    // First pass: all miss; second pass: all hit with identical payloads.
    let mut first = Vec::new();
    for &(lat, lon) in &spots {
        let key = service.linearizer().key(lat, lon, 0);
        let rec = cache.query(key, service.exec_time_for(key), || {
            Record::from_vec(service.execute_key(key).shoreline.to_bytes())
        });
        first.push(rec.into_owned());
    }
    assert_eq!(cache.metrics().misses, spots.len() as u64);
    for (i, &(lat, lon)) in spots.iter().enumerate() {
        let key = service.linearizer().key(lat, lon, 0);
        let rec = cache.query(key, service.exec_time_for(key), || {
            unreachable!("second pass must hit")
        });
        assert_eq!(*rec, first[i]);
        // The payload parses back to a real shoreline.
        let shoreline =
            elastic_cloud_cache::shoreline::extract::Shoreline::from_bytes(rec.as_slice())
                .expect("valid shoreline encoding");
        assert!(shoreline.point_count() >= 2);
    }
    cache.validate();
}

#[test]
fn full_workload_run_is_deterministic_and_consistent() {
    let run = || {
        let service = ShorelineService::paper_default(7);
        let mut cfg = paper_like_cfg();
        cfg.ring_range = 1 << 16;
        cfg.window = Some(WindowConfig::paper(20));
        let mut cache = ElasticCache::new(cfg);
        let stream = QueryStream::new(
            RateSchedule::paper_eviction_phases(),
            KeyDist::uniform(1 << 14),
            99,
        );
        let mut cur = 0u64;
        for (step, key) in stream.take_steps(60) {
            while cur < step {
                cache.end_time_step();
                cur += 1;
            }
            cache.query(key, service.exec_time_for(key), || {
                Record::from_vec(service.execute_key(key).shoreline.to_bytes())
            });
        }
        cache.validate();
        (
            *cache.metrics(),
            cache.node_count(),
            cache.total_records(),
            cache.clock().now_us(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must reproduce the run exactly");
    let (metrics, nodes, records, _) = a;
    assert!(metrics.hits > 0, "workload must produce reuse");
    assert!(nodes >= 2, "workload must force growth");
    assert!(records > 0);
    assert_eq!(metrics.hits + metrics.misses, metrics.queries);
}

#[test]
fn elastic_beats_static_on_the_paper_workload() {
    // The paper's core claim, end to end: under a growing working set, GBA
    // achieves a strictly better hit rate than a small fixed fleet, at a
    // fraction of the always-on node-hours.
    let service = ShorelineService::paper_default(11);
    let mut cfg = paper_like_cfg();
    cfg.ring_range = 1 << 16;
    let n_queries = 6000u64;
    let keys = KeyDist::uniform(1 << 12);

    let mut elastic = ElasticCache::new(cfg.clone());
    let mut fixed = StaticCache::new(&cfg, 2);
    let stream = QueryStream::new(RateSchedule::constant(1), keys, 4242);
    for (_, key) in stream.take_queries(n_queries) {
        let uncached = service.exec_time_for(key);
        elastic.query(key, uncached, || {
            Record::from_vec(service.execute_key(key).shoreline.to_bytes())
        });
        fixed.query(key, uncached, || {
            Record::from_vec(service.execute_key(key).shoreline.to_bytes())
        });
    }
    assert!(
        elastic.metrics().hit_rate() > fixed.metrics().hit_rate(),
        "elastic {:.3} must beat static-2 {:.3}",
        elastic.metrics().hit_rate(),
        fixed.metrics().hit_rate()
    );
    assert!(elastic.metrics().speedup() > fixed.metrics().speedup());
    assert!(elastic.node_count() > 2, "elastic fleet should have grown");
}

#[test]
fn morton_linearization_round_trips_through_the_cache() {
    // The service's key space works as a cache key space: every cell
    // reachable, no collisions.
    let lin = Linearizer::new(
        GeoGrid::global(6),
        TimeGrid::disabled(),
        Curve::Morton,
        Scheme::TimeMajor,
    );
    let mut cfg = CacheConfig::small_test();
    cfg.ring_range = lin.key_space();
    cfg.node_capacity_bytes = 1 << 20;
    let mut cache = ElasticCache::new(cfg);
    let mut inserted = 0u64;
    for ix in (0..64).step_by(7) {
        for iy in (0..64).step_by(7) {
            let key = lin.key_for_cell(ix, iy, 0);
            cache
                .insert(key, Record::from_vec(vec![ix as u8, iy as u8]))
                .unwrap();
            inserted += 1;
        }
    }
    assert_eq!(cache.total_records() as u64, inserted);
    for ix in (0..64).step_by(7) {
        for iy in (0..64).step_by(7) {
            let key = lin.key_for_cell(ix, iy, 0);
            let rec = cache.lookup(key).expect("present");
            assert_eq!(rec.as_slice(), &[ix as u8, iy as u8]);
        }
    }
}

#[test]
fn billing_tracks_elasticity_through_a_burst() {
    let mut cfg = paper_like_cfg();
    cfg.window = Some(WindowConfig {
        slices: 2,
        alpha: 0.99,
        threshold: None,
    });
    cfg.contraction_epsilon = 1;
    let mut cache = ElasticCache::new(cfg);
    // Burst: fill several nodes.
    for k in 0..300u64 {
        cache.query(k * 37 % (1 << 16), 1_000_000, || Record::filler(1000));
    }
    let peak = cache.node_count();
    assert!(peak >= 3);
    // Quiet period: contraction reclaims nodes.
    for _ in 0..12 {
        cache.end_time_step();
    }
    let after = cache.node_count();
    assert!(after < peak, "no contraction: {peak} -> {after}");
    let billing = cache.cloud().billing(cache.clock().now_us());
    assert_eq!(billing.launched, cache.cloud().total_launched());
    assert_eq!(billing.active, after);
    assert!(billing.launched > after, "some instances were terminated");
    assert!(billing.dollars() > 0.0);
    cache.validate();
}
