//! Quickstart: cache an expensive service with the elastic cloud cache.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! A single shoreline-extraction query takes ~23 (virtual) seconds; the
//! cache answers repeats in about a millisecond, growing its node fleet
//! only when the working set outgrows one machine.

use elastic_cloud_cache::prelude::*;

fn main() {
    // 1. The expensive backing service: shoreline extraction over a 64 Ki
    //    key space (8-bit global grid, as in the paper's evaluation).
    let service = ShorelineService::paper_default(42);

    // 2. An elastic cache on simulated EC2 Smalls. Each node holds 4096
    //    1 KiB-class records; nodes boot in 70-110 virtual seconds.
    let mut cfg = CacheConfig::paper_default();
    cfg.node_capacity_bytes = 256 * 1024; // small nodes so growth shows up
    let mut cache = ElasticCache::new(cfg);

    // 3. Query a handful of locations, some repeatedly.
    let queries = [
        (45.52, -122.68), // Portland
        (29.76, -95.37),  // Houston
        (45.52, -122.68), // Portland again — should hit
        (18.54, -72.34),  // Port-au-Prince
        (45.52, -122.68), // and again
    ];
    for &(lat, lon) in &queries {
        let key = service.linearizer().key(lat, lon, 0);
        let uncached = service.exec_time_for(key);
        let t0 = cache.clock().now_us();
        let len = cache
            .query(key, uncached, || {
                let out = service.execute_key(key);
                Record::from_vec(out.shoreline.to_bytes())
            })
            .len();
        let took = (cache.clock().now_us() - t0) as f64 / 1e6;
        println!(
            "query ({lat:>6.2}, {lon:>7.2}) -> {len:>4} B shoreline in {took:>7.3} s (virtual)"
        );
    }

    // 4. What did that cost?
    let m = cache.metrics();
    println!(
        "\nhits: {}  misses: {}  speedup so far: {:.2}x",
        m.hits,
        m.misses,
        m.speedup()
    );
    println!(
        "fleet: {} node(s), bill: ${:.3}",
        cache.node_count(),
        cache.cloud().billing(cache.clock().now_us()).dollars()
    );

    // 5. Heat up a whole region to watch the fleet grow.
    println!("\ncaching 2,000 distinct tiles...");
    for i in 0..2000u64 {
        let key = (i * 32) % (1 << 16);
        let uncached = service.exec_time_for(key);
        cache.query(key, uncached, || {
            Record::from_vec(service.execute_key(key).shoreline.to_bytes())
        });
    }
    let m = cache.metrics();
    println!(
        "fleet grew to {} nodes ({} splits, {} of them allocated a new node)",
        cache.node_count(),
        m.splits,
        m.splits_with_allocation
    );
    println!(
        "cumulative speedup {:.2}x, bill ${:.2}",
        m.speedup(),
        cache.cloud().billing(cache.clock().now_us()).dollars()
    );
}
