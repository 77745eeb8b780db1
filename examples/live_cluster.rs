//! The cache as a real distributed system: TCP cache servers on localhost.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example live_cluster
//! ```
//!
//! Everything the simulation does — consistent-hash placement, GBA bucket
//! splits, sweep-and-migrate, sliding-window eviction, contraction — here
//! executes over real sockets against thread-backed cache servers, with
//! the shoreline service filling misses.

use elastic_cloud_cache::net::coordinator::LiveCoordinator;
use elastic_cloud_cache::prelude::*;

fn main() -> std::io::Result<()> {
    let service = ShorelineService::paper_default(99);

    // 64 KiB per node keeps the fleet small but forces real splits.
    let mut coord = LiveCoordinator::start(1 << 16, 64 * 1024)?;
    coord.enable_window(3, 0.99, 0.99f64.powi(2));

    println!("querying 600 tiles across a live TCP cluster...");
    let mut hits = 0u32;
    let mut misses = 0u32;
    for i in 0..600u64 {
        let key = (i * 109) % (1 << 16);
        match coord.get(key)? {
            Some(_) => hits += 1,
            None => {
                misses += 1;
                let out = service.execute_key(key);
                coord.put(key, out.shoreline.to_bytes())?;
            }
        }
        // Re-query a recent tile now and then so the window keeps it warm.
        if i % 5 == 0 && i > 0 {
            let warm = ((i - 1) * 109) % (1 << 16);
            if coord.get(warm)?.is_some() {
                hits += 1;
            }
        }
    }
    let (bytes, records) = coord.totals()?;
    println!(
        "cluster: {} servers ({} spawned), {} splits over the wire",
        coord.node_count(),
        coord.nodes_spawned,
        coord.splits
    );
    println!("resident: {records} records, {bytes} bytes; session: {hits} hits / {misses} misses");

    println!("\ngoing quiet: sliding window evicts, cluster contracts...");
    for _ in 0..6 {
        coord.end_time_step()?;
    }
    let (bytes, records) = coord.totals()?;
    println!(
        "after contraction: {} servers, {} merges, {records} records ({bytes} bytes) resident",
        coord.node_count(),
        coord.merges
    );

    coord.shutdown()?;
    println!("all servers stopped cleanly");
    Ok(())
}
