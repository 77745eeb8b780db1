//! Figure 4: the overhead of node splitting (allocation + migration) over
//! the course of the Figure-3 GBA run.
//!
//! The paper's observation: per-split overhead is large — and it is the
//! node-*allocation* time, not the data movement, that dominates — but
//! splits are rare enough that the cost amortizes away.
//!
//! ```text
//! cargo run --release -p ecc-bench --bin fig4_split_overhead -- --scale 0.25
//! ```

use ecc_bench::{fig3_gba_cache, scale_arg, write_csv, PaperService};
use ecc_core::engine::split_costs;
use ecc_workload::driver::QueryStream;
use ecc_workload::keys::KeyDist;
use ecc_workload::schedule::RateSchedule;

fn main() {
    let scale = scale_arg();
    let total: u64 = ((2_000_000f64 * scale) as u64).max(10_000);
    println!("Figure 4: split overhead during a {total}-query GBA run (scale {scale})\n");

    let service = PaperService::new(2010);
    let stream = QueryStream::new(RateSchedule::paper_figure3(), KeyDist::uniform(1 << 16), 42);
    let mut gba = fig3_gba_cache();
    for (_, key) in stream.take_queries(total) {
        let uncached = service.uncached_us(key);
        gba.query(key, uncached, || service.record(key));
    }

    // Fold the engine's events: a split's NodeAlloc is stamped when the
    // node is asked for, its SweepMigrate when the node has booted (GBA
    // boots it on the critical path, then sweeps).
    let snapshot = gba.obs().snapshot();
    assert_eq!(snapshot.dropped, 0, "the flight recorder dropped events");
    let mut rows: Vec<Vec<String>> = Vec::new();
    println!(
        "{:>6} {:>14} {:>12} {:>12} {:>12} {:>8}",
        "split", "at (virt. s)", "alloc (s)", "migrate (s)", "total (s)", "records"
    );
    for (i, split) in split_costs(&snapshot.events).iter().enumerate() {
        let split_idx = i + 1;
        let total_us = split.alloc_us + split.migrate_us;
        println!(
            "{split_idx:>6} {:>14.1} {:>12.2} {:>12.3} {:>12.2} {:>8}",
            split.at_us as f64 / 1e6,
            split.alloc_us as f64 / 1e6,
            split.migrate_us as f64 / 1e6,
            total_us as f64 / 1e6,
            split.records
        );
        rows.push(vec![
            split_idx.to_string(),
            split.at_us.to_string(),
            split.alloc_us.to_string(),
            split.migrate_us.to_string(),
            total_us.to_string(),
            split.records.to_string(),
        ]);
    }

    let m = gba.metrics();
    let alloc_s = m.alloc_us as f64 / 1e6;
    let migrate_s = m.migration_us as f64 / 1e6;
    println!(
        "\ntotals: {} splits ({} allocated a node); allocation {alloc_s:.1} s vs migration {migrate_s:.1} s",
        m.splits, m.splits_with_allocation
    );
    println!(
        "allocation is {:.0}x the data-movement cost — the paper's dominance claim",
        alloc_s / migrate_s.max(1e-9)
    );
    println!(
        "amortization: split overhead is {:.3} % of total observed time over {} queries",
        100.0 * (m.alloc_us + m.migration_us) as f64 / m.observed_us as f64,
        m.queries
    );

    let csv_path = write_csv(
        "fig4.csv",
        "split,at_us,alloc_us,migration_us,total_us,records",
        &rows,
    )
    .expect("write results");
    println!("wrote {}", csv_path.display());
}
