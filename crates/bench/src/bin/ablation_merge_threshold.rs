//! Ablation A2: the contraction (node-merge) threshold and churn.
//!
//! §IV-C sets the merge threshold to 65 % "to address churn-avoidance,
//! i.e., repeated allocation/deallocation of nodes". This ablation sweeps
//! the threshold through the eviction workload and reports allocation /
//! merge churn and the average fleet size.
//!
//! ```text
//! cargo run --release -p ecc-bench --bin ablation_merge_threshold
//! ```

use ecc_bench::{paper_cfg, scale_arg, write_csv, PaperService};
use ecc_core::{ElasticCache, WindowConfig};
use ecc_workload::driver::QueryStream;
use ecc_workload::keys::KeyDist;
use ecc_workload::schedule::RateSchedule;

fn main() {
    let scale = scale_arg();
    let steps: u64 = ((600f64 * scale) as u64).max(60);
    println!("Ablation: merge-threshold sweep, {steps} time steps (scale {scale})\n");

    let service = PaperService::new(2010);
    println!(
        "{:>10} {:>9} {:>8} {:>10} {:>10} {:>10}",
        "threshold", "launched", "merges", "churn", "avg nodes", "speedup"
    );
    let mut rows = Vec::new();
    for threshold in [0.30f64, 0.50, 0.65, 0.80, 0.95] {
        let key_space = 32 * 1024;
        let mut cfg = paper_cfg(key_space, Some(WindowConfig::paper(100)));
        cfg.merge_fill_threshold = threshold;
        let mut cache = ElasticCache::new(cfg);
        let stream = QueryStream::new(
            RateSchedule::paper_eviction_phases(),
            KeyDist::uniform(key_space),
            7,
        );
        let mut cur_step = 0u64;
        for (step, key) in stream.take_steps(steps) {
            while cur_step < step {
                cache.end_time_step();
                cur_step += 1;
            }
            let uncached = service.uncached_us(key);
            cache.query(key, uncached, || service.record(key));
        }
        while cur_step < steps {
            cache.end_time_step();
            cur_step += 1;
        }
        let m = cache.metrics();
        let bill = cache.cloud().billing(cache.clock().now_us());
        let launched = cache.cloud().total_launched();
        // Churn: every allocation beyond the end fleet was transient.
        let churn = launched as u64 + m.merges;
        println!(
            "{threshold:>10.2} {launched:>9} {:>8} {churn:>10} {:>10.2} {:>10.2}",
            m.merges,
            bill.avg_nodes(cache.clock().now_us()),
            m.speedup()
        );
        rows.push(vec![
            format!("{threshold:.2}"),
            launched.to_string(),
            m.merges.to_string(),
            churn.to_string(),
            format!("{:.4}", bill.avg_nodes(cache.clock().now_us())),
            format!("{:.4}", m.speedup()),
        ]);
    }
    let csv_path = write_csv(
        "ablation_merge_threshold.csv",
        "threshold,launched,merges,churn,avg_nodes,speedup",
        &rows,
    )
    .expect("write results");
    println!("wrote {}", csv_path.display());

    println!("\nreading it: low thresholds never reclaim nodes (cost), high thresholds merge");
    println!("aggressively and re-allocate when load returns (churn); 65 % sits between.");
}
