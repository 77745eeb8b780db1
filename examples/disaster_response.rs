//! The paper's motivating scenario: a disaster triggers a query storm.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example disaster_response
//! ```
//!
//! "The catastrophic earthquake in Haiti generated massive amounts of
//! concern and activity from the general public … because service requests
//! during these situations are often related, a considerable amount of
//! redundancy among these services can be exploited." (paper §I)
//!
//! We simulate exactly that: a quiet baseline of map queries, a sudden
//! query-intensive period concentrated around one region, then waning
//! interest. The elastic cache scales up for the storm and releases the
//! nodes afterwards; the sliding window decides what to keep.

use elastic_cloud_cache::prelude::*;

fn main() {
    let service = ShorelineService::paper_default(2010);

    // m = 100 time steps, α = 0.99, baseline threshold α^(m-1) — the
    // paper's Figure 5(b) configuration.
    let mut cfg = CacheConfig::paper_default();
    cfg.ring_range = 32 * 1024;
    cfg.node_capacity_bytes = 1024 * 1024; // ~1k results per node
    cfg.window = Some(WindowConfig::paper(100));
    cfg.contraction_epsilon = 5;
    let mut cache = ElasticCache::new(cfg);

    // Quiet phase: sparse interest over the whole map. Storm phase:
    // hotspot around the affected region (keys clustered), 5x the rate.
    let quiet = QueryStream::new(RateSchedule::constant(50), KeyDist::uniform(32 * 1024), 1);
    let storm = QueryStream::new(
        RateSchedule::constant(250),
        KeyDist::hotspot(32 * 1024, 2048, 0.8),
        2,
    );

    let run_phase = |name: &str, stream: &QueryStream, steps: u64, cache: &mut ElasticCache| {
        let before = *cache.metrics();
        let mut cur_step = None;
        for (step, key) in stream.take_steps(steps) {
            if cur_step != Some(step) {
                if cur_step.is_some() {
                    cache.end_time_step();
                }
                cur_step = Some(step);
            }
            let uncached = service.exec_time_for(key);
            cache.query(key, uncached, || {
                Record::from_vec(service.execute_key(key).shoreline.to_bytes())
            });
        }
        cache.end_time_step();
        let d = cache.metrics().delta(&before);
        println!(
            "{name:<22} {:>8} {:>8.1}% {:>9.2}x {:>6} {:>10}",
            d.queries,
            100.0 * d.hit_rate(),
            d.speedup(),
            cache.node_count(),
            d.evictions,
        );
    };

    println!(
        "{:<22} {:>8} {:>9} {:>10} {:>6} {:>10}",
        "phase", "queries", "hit-rate", "speedup", "nodes", "evictions"
    );
    run_phase("baseline interest", &quiet, 100, &mut cache);
    run_phase("disaster query storm", &storm, 200, &mut cache);
    run_phase("waning interest", &quiet, 300, &mut cache);

    let m = cache.metrics();
    let bill = cache.cloud().billing(cache.clock().now_us());
    println!(
        "\noverall: {:.2}x speedup, peak-to-now fleet {} -> {} nodes, ${:.2} total, avg {:.1} nodes",
        m.speedup(),
        cache.cloud().total_launched(),
        cache.node_count(),
        bill.dollars(),
        bill.avg_nodes(cache.clock().now_us()),
    );
    println!(
        "window kept the hot region cached: {} merges returned capacity after the storm",
        m.merges
    );
}
