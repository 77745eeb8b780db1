//! The workload zoo through the simulated elastic cache: every scenario
//! of `ecc_workload::scenario` at its default horizon (300–600 steps),
//! seed 7, so each run reaches eviction and most contract again.
//! Writes `results/scenarios.csv`.
//!
//! ```text
//! cargo run --release -p ecc-bench --bin scenario_zoo
//! ```

use ecc_bench::scenario::{run_scenario_sim, scenario_csv_rows, SCENARIO_CSV_HEADER};
use ecc_bench::write_csv;
use ecc_workload::scenario::Scenario;

/// Seed of every scenario's event stream.
const SEED: u64 = 7;

fn main() {
    println!(
        "{:<16} {:>6} {:>9} {:>7} {:>9} {:>9} {:>8} {:>9} {:>5} {:>5} {:>8}",
        "scenario",
        "steps",
        "events",
        "writes",
        "hits",
        "misses",
        "hit_rate",
        "evictions",
        "peak",
        "end",
        "speedup"
    );
    let mut summaries = Vec::new();
    for sc in Scenario::all() {
        let s = run_scenario_sim(&sc, SEED, sc.default_steps());
        println!(
            "{:<16} {:>6} {:>9} {:>7} {:>9} {:>9} {:>8.3} {:>9} {:>5} {:>5} {:>8.2}",
            s.name,
            s.steps,
            s.events,
            s.writes,
            s.hits,
            s.misses,
            s.hit_rate(),
            s.evictions,
            s.nodes_max,
            s.nodes_end,
            s.speedup
        );
        summaries.push(s);
    }
    let rows = scenario_csv_rows(&summaries);
    let path = write_csv("scenarios.csv", SCENARIO_CSV_HEADER, &rows).expect("write scenarios.csv");
    println!("\nwrote {}", path.display());
}
