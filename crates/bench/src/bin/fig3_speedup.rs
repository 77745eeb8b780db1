//! Figure 3: relative speedup of GBA vs static-2/4/8 (LRU), with GBA's
//! node-allocation curve.
//!
//! Paper setup: 64 Ki uniformly random keys, R = 1 query per time step,
//! 2×10⁶ queries, reported every 250 000 queries. Paper results: the
//! static speedups flatten at ≈1.15× / 1.34× / 2×; GBA exceeds 15×, ending
//! at 15 nodes (≈13 averaged over the run).
//!
//! Run at paper scale (a few minutes) or scaled down:
//!
//! ```text
//! cargo run --release -p ecc-bench --bin fig3_speedup              # full
//! cargo run --release -p ecc-bench --bin fig3_speedup -- --scale 0.1
//! ```

use ecc_bench::{fig3_gba_cache, fig3_static_cache, scale_arg, write_csv, PaperService};
use ecc_workload::driver::QueryStream;
use ecc_workload::keys::KeyDist;
use ecc_workload::schedule::RateSchedule;

fn main() {
    let scale = scale_arg();
    let total: u64 = ((2_000_000f64 * scale) as u64).max(10_000);
    let interval = (total / 8).max(1);
    let key_space = 1 << 16;
    println!(
        "Figure 3: {total} queries over {key_space} keys, reporting every {interval} (scale {scale})\n"
    );

    /// One reporting point: (queries elapsed, cumulative speedup, node count).
    type Series = Vec<(u64, f64, usize)>;

    let service = PaperService::new(2010);
    let stream = QueryStream::new(
        RateSchedule::paper_figure3(),
        KeyDist::uniform(key_space),
        42,
    );

    // One pass per system; identical query streams (same seed).
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut series: Vec<(String, Series)> = Vec::new();

    for n_static in [2usize, 4, 8] {
        let mut cache = fig3_static_cache(n_static);
        let mut points = Vec::new();
        for (i, (_, key)) in stream.take_queries(total).enumerate() {
            let uncached = service.uncached_us(key);
            cache.query(key, uncached, || service.record(key));
            if (i as u64 + 1).is_multiple_of(interval) {
                points.push((i as u64 + 1, cache.metrics().speedup(), n_static));
            }
        }
        println!(
            "static-{n_static}: final speedup {:.2}x (hit rate {:.1} %)",
            cache.metrics().speedup(),
            100.0 * cache.metrics().hit_rate()
        );
        series.push((format!("static-{n_static}"), points));
    }

    let mut gba = fig3_gba_cache();
    let mut points = Vec::new();
    for (i, (_, key)) in stream.take_queries(total).enumerate() {
        let uncached = service.uncached_us(key);
        gba.query(key, uncached, || service.record(key));
        if (i as u64 + 1).is_multiple_of(interval) {
            points.push((i as u64 + 1, gba.metrics().speedup(), gba.node_count()));
        }
    }
    let bill = gba.cloud().billing(gba.clock().now_us());
    println!(
        "GBA:      final speedup {:.2}x (hit rate {:.1} %), {} nodes at end, {:.1} nodes avg, ${:.2}",
        gba.metrics().speedup(),
        100.0 * gba.metrics().hit_rate(),
        gba.node_count(),
        bill.avg_nodes(gba.clock().now_us()),
        bill.dollars()
    );
    series.push(("GBA".into(), points));

    // Aligned table: queries | static-2 | static-4 | static-8 | GBA | GBA nodes.
    println!(
        "\n{:>9}  {:>9} {:>9} {:>9} {:>9}  {:>9}",
        "queries", "static-2", "static-4", "static-8", "GBA", "GBA nodes"
    );
    let n_points = series[0].1.len();
    for p in 0..n_points {
        let q = series[0].1[p].0;
        let s2 = series[0].1[p].1;
        let s4 = series[1].1[p].1;
        let s8 = series[2].1[p].1;
        let (_, g, nodes) = series[3].1[p];
        println!("{q:>9}  {s2:>9.2} {s4:>9.2} {s8:>9.2} {g:>9.2}  {nodes:>9}");
        rows.push(vec![
            q.to_string(),
            format!("{s2:.4}"),
            format!("{s4:.4}"),
            format!("{s8:.4}"),
            format!("{g:.4}"),
            nodes.to_string(),
        ]);
    }
    let csv_path = write_csv(
        "fig3.csv",
        "queries,static2_speedup,static4_speedup,static8_speedup,gba_speedup,gba_nodes",
        &rows,
    )
    .expect("write results");
    println!("wrote {}", csv_path.display());

    println!(
        "\npaper reference: static-2 -> 1.15x, static-4 -> 1.34x, static-8 -> 2x, GBA -> 15.2x, 15 nodes"
    );
}
