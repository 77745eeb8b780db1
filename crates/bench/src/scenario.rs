//! Drive zoo scenarios through the elastic cache under virtual time.
//!
//! This is the cloudsim leg of the scenario zoo, run by the `scenario_zoo`
//! binary at each scenario's default horizon: the deterministic
//! `(step, op, key)` stream that simtest's `workload` family also replays
//! is fed to an in-process [`ElasticCache`] on its virtual clock, so elasticity
//! policies see millions of simulated queries in milliseconds of wall
//! time. Reads go through the query path (a miss charges the modelled
//! service time and populates), writes through the insert path, and step
//! boundaries end the cache's time slice — exactly the paper's
//! query-submission loop, generalized to the zoo.

use ecc_core::{ElasticCache, Record, WindowConfig};
use ecc_workload::driver::Op;
use ecc_workload::scenario::Scenario;

use crate::{paper_cfg, RECORD_BYTES};

/// Modelled uncached service cost per query, µs (the paper's ≈23 s
/// shoreline derivation). Scenario sims use one flat constant so the
/// summary isolates cache behaviour from per-key service variance.
pub const SCENARIO_UNCACHED_US: u64 = 23_000_000;

/// Aggregate outcome of one scenario simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// Scenario name.
    pub name: String,
    /// Seed the event stream was generated from.
    pub seed: u64,
    /// Time steps simulated.
    pub steps: u64,
    /// Total events (reads + writes).
    pub events: u64,
    /// Write events.
    pub writes: u64,
    /// Read hits.
    pub hits: u64,
    /// Read misses.
    pub misses: u64,
    /// Records evicted by the sliding window.
    pub evictions: u64,
    /// Peak node count reached.
    pub nodes_max: usize,
    /// Node count at the end of the run.
    pub nodes_end: usize,
    /// Cumulative speedup over the uncached baseline.
    pub speedup: f64,
}

impl ScenarioSummary {
    /// Hit fraction over reads (0 when no reads).
    pub fn hit_rate(&self) -> f64 {
        let reads = self.hits + self.misses;
        if reads == 0 {
            0.0
        } else {
            self.hits as f64 / reads as f64
        }
    }
}

/// Simulate `steps` time steps of a scenario from `seed` on a fresh
/// elastic cache (paper configuration over the scenario's key space, with
/// the paper's m = 100 / α = 0.99 eviction window).
pub fn run_scenario_sim(sc: &Scenario, seed: u64, steps: u64) -> ScenarioSummary {
    let cfg = paper_cfg(
        sc.dist().space(),
        Some(WindowConfig {
            slices: 100,
            alpha: 0.99,
            threshold: None,
        }),
    );
    let mut cache = ElasticCache::new(cfg);

    let mut events = 0u64;
    let mut writes = 0u64;
    let mut nodes_max = cache.node_count();
    let mut cur_step = 0u64;
    for (step, op, key) in sc.events(seed, steps) {
        while cur_step < step {
            cache.end_time_step();
            cur_step += 1;
        }
        match op {
            Op::Read => {
                let _ = cache.query(key, SCENARIO_UNCACHED_US, || Record::filler(RECORD_BYTES));
            }
            Op::Write => {
                writes += 1;
                let _ = cache.insert(key, Record::filler(RECORD_BYTES));
            }
        }
        events += 1;
        nodes_max = nodes_max.max(cache.node_count());
    }
    while cur_step < steps {
        cache.end_time_step();
        cur_step += 1;
    }
    nodes_max = nodes_max.max(cache.node_count());

    let m = cache.metrics();
    ScenarioSummary {
        name: sc.name().to_string(),
        seed,
        steps,
        events,
        writes,
        hits: m.hits,
        misses: m.misses,
        evictions: m.evictions,
        nodes_max,
        nodes_end: cache.node_count(),
        speedup: m.speedup(),
    }
}

/// Stable column order for `results/scenarios.csv`.
pub const SCENARIO_CSV_HEADER: &str =
    "scenario,seed,steps,events,writes,hits,misses,hit_rate,evictions,nodes_max,nodes_end,speedup";

/// Render summaries as CSV rows in [`SCENARIO_CSV_HEADER`] order.
pub fn scenario_csv_rows(summaries: &[ScenarioSummary]) -> Vec<Vec<String>> {
    summaries
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                s.seed.to_string(),
                s.steps.to_string(),
                s.events.to_string(),
                s.writes.to_string(),
                s.hits.to_string(),
                s.misses.to_string(),
                format!("{:.4}", s.hit_rate()),
                s.evictions.to_string(),
                s.nodes_max.to_string(),
                s.nodes_end.to_string(),
                format!("{:.3}", s.speedup),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_sim_is_deterministic_per_seed() {
        let sc = Scenario::by_name("shifting_hotset").expect("registered");
        let a = run_scenario_sim(&sc, 11, 12);
        let b = run_scenario_sim(&sc, 11, 12);
        assert_eq!(a, b);
        let c = run_scenario_sim(&sc, 12, 12);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn reads_and_writes_are_routed() {
        let sc = Scenario::by_name("write_heavy").expect("registered");
        let s = run_scenario_sim(&sc, 3, 10);
        assert_eq!(s.events, sc.schedule().total_queries(10));
        assert!(s.writes > 0, "write_heavy produced no writes");
        assert_eq!(s.hits + s.misses + s.writes, s.events);
        assert!(s.nodes_end >= 1);
    }

    #[test]
    fn zipf_scenario_reuses_hot_keys() {
        let sc = Scenario::by_name("zipf_hot").expect("registered");
        let s = run_scenario_sim(&sc, 5, 20);
        assert!(
            s.hit_rate() > 0.3,
            "skewed reads should reuse the head: hit rate {}",
            s.hit_rate()
        );
        assert!(s.speedup > 1.0);
    }

    #[test]
    fn csv_rows_follow_the_header() {
        let sc = Scenario::by_name("paper_shoreline").expect("registered");
        let s = run_scenario_sim(&sc, 1, 5);
        let rows = scenario_csv_rows(&[s]);
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].len(),
            SCENARIO_CSV_HEADER.split(',').count(),
            "row arity must match the header"
        );
        assert_eq!(rows[0][0], "paper_shoreline");
    }
}
