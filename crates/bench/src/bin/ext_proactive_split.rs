//! Extension E2: proactive splitting (paper §VI).
//!
//! "Record prefetching from a node that is predictably close to invoking
//! migration" — this harness runs the Figure-3 growth workload with GBA
//! alone and with nodes split between time steps once they pass 85 % fill,
//! reporting how much allocation latency leaves the critical path and what
//! the fleet costs.
//!
//! ```text
//! cargo run --release -p ecc-bench --bin ext_proactive_split -- --scale 0.25
//! ```

use ecc_bench::{paper_cfg, scale_arg, write_csv, PaperService};
use ecc_core::ElasticCache;
use ecc_workload::driver::QueryStream;
use ecc_workload::keys::KeyDist;
use ecc_workload::schedule::RateSchedule;

fn main() {
    let scale = scale_arg();
    let total: u64 = ((2_000_000f64 * scale) as u64).max(10_000);
    println!("Extension: proactive splitting over a {total}-query GBA run (scale {scale})\n");

    let service = PaperService::new(2010);
    let stream = QueryStream::new(RateSchedule::paper_figure3(), KeyDist::uniform(1 << 16), 42);

    println!(
        "{:>22} {:>10} {:>16} {:>8} {:>10} {:>10}",
        "config", "speedup", "blocked boot(s)", "splits", "nodes", "cost $"
    );
    let mut rows = Vec::new();
    // (config, blocked boot seconds, dollars) for the closing reading.
    let mut readings: Vec<(String, f64, f64)> = Vec::new();
    let mut run = |name: &str, proactive: Option<f64>| {
        let mut cfg = paper_cfg(1 << 16, None);
        cfg.proactive_split_fill = proactive;
        let mut cache = ElasticCache::new(cfg);
        let mut cur_step = 0u64;
        for (step, key) in stream.take_queries(total) {
            // Proactive splits happen at step boundaries.
            while cur_step < step {
                cache.end_time_step();
                cur_step += 1;
            }
            let uncached = service.uncached_us(key);
            cache.query(key, uncached, || service.record(key));
        }
        let m = cache.metrics();
        let bill = cache.cloud().billing(cache.clock().now_us());
        println!(
            "{name:>22} {:>10.2} {:>16.1} {:>8} {:>10} {:>10.2}",
            m.speedup(),
            m.alloc_us as f64 / 1e6,
            m.splits,
            cache.node_count(),
            bill.dollars()
        );
        readings.push((name.to_string(), m.alloc_us as f64 / 1e6, bill.dollars()));
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", m.speedup()),
            m.alloc_us.to_string(),
            m.splits.to_string(),
            cache.node_count().to_string(),
            format!("{:.4}", bill.dollars()),
        ]);
    };

    run("blocking (paper)", None);
    run("proactive split 85%", Some(0.85));

    let csv_path = write_csv(
        "ext_proactive_split.csv",
        "config,speedup,blocked_alloc_us,splits,nodes,dollars",
        &rows,
    )
    .expect("write results");
    println!("wrote {}", csv_path.display());

    println!("\nreading it: 'blocked boot' is allocation latency paid on the query path;");
    println!("a proactive split boots its node between steps. Against the blocking run:");
    let (_, base_blocked, base_dollars) = readings[0];
    for (name, blocked, dollars) in &readings[1..] {
        println!(
            "{name:>22}: blocks {blocked:.1} s of boot ({:+.1} s), costs ${dollars:.2} ({:+.2})",
            blocked - base_blocked,
            dollars - base_dollars
        );
    }
}
