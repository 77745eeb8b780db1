//! Shared experiment harness for the figure-reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one of the paper's figures (see
//! DESIGN.md §4 for the index). This library holds what they share: the
//! paper-constant cache configuration, the padded-record service adapter,
//! the eviction-experiment runner behind Figures 5–7, the scenario-zoo
//! runner ([`scenario`]), and small CSV/arg helpers.

#![deny(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub mod alloc_count;
pub mod scenario;

use std::io::Write;
use std::path::{Path, PathBuf};

use ecc_core::{CacheConfig, ElasticCache, Record, StaticCache, WindowConfig};
use ecc_shoreline::service::ShorelineService;
use ecc_workload::driver::QueryStream;
use ecc_workload::keys::KeyDist;
use ecc_workload::schedule::RateSchedule;

/// Fixed wire size of one cached record in the figure experiments. The
/// paper's derived shorelines are "< 1 KB"; padding the serialized frame to
/// exactly 1 KiB makes node capacity an exact record count (capacity is
/// [`NODE_RECORDS`] × the record's charged slab footprint — see
/// EXPERIMENTS.md for how the 4096-record constant is recovered from the
/// paper).
pub const RECORD_BYTES: usize = 1024;

/// Records per node in the paper-scale experiments.
pub const NODE_RECORDS: u64 = 4096;

/// The paper's service, adapted to fixed-size records.
///
/// Derivations are memoized: the service is deterministic per key, so when
/// an evicted key misses again the harness reuses the already-computed
/// shoreline instead of re-running marching squares (only the *modelled*
/// 23 s is charged either way).
#[expect(
    clippy::disallowed_types,
    reason = "a memo of the figure harness, off the data path"
)]
pub struct PaperService {
    svc: ShorelineService,
    memo: std::sync::Mutex<std::collections::HashMap<u64, Record>>,
}

impl PaperService {
    /// The Figure-3 service: 64 Ki key space, ≈ 23 s execution.
    pub fn new(seed: u64) -> Self {
        Self {
            svc: ShorelineService::paper_default(seed),
            memo: Default::default(),
        }
    }

    /// Modelled uncached execution time for `key`.
    pub fn uncached_us(&self, key: u64) -> u64 {
        self.svc.exec_time_for(key)
    }

    /// Derive the record for `key`: a real marching-squares shoreline,
    /// padded to [`RECORD_BYTES`].
    pub fn record(&self, key: u64) -> Record {
        if let Some(r) = self.memo.lock().expect("memo lock").get(&key) {
            return r.clone();
        }
        let mut bytes = self.svc.execute_key(key).shoreline.to_bytes();
        bytes.resize(RECORD_BYTES, 0);
        let rec = Record::from_vec(bytes);
        self.memo
            .lock()
            .expect("memo lock")
            .insert(key, rec.clone());
        rec
    }
}

/// The paper-constant elastic-cache configuration over a given key space,
/// optionally with an eviction window.
pub fn paper_cfg(key_space: u64, window: Option<WindowConfig>) -> CacheConfig {
    let mut cfg = CacheConfig::paper_default();
    cfg.ring_range = key_space;
    // Records are charged their slab footprint, so sizing capacity in
    // footprint units keeps "a node holds exactly NODE_RECORDS records"
    // true under true-footprint accounting.
    cfg.node_capacity_bytes = NODE_RECORDS * ecc_core::slab::footprint(RECORD_BYTES);
    cfg.window = window;
    cfg
}

/// One reporting row of an eviction experiment (Figures 5–7).
#[derive(Debug, Clone)]
pub struct StepRow {
    /// 1-based time step.
    pub step: u64,
    /// Queries issued this step.
    pub queries: u64,
    /// Cache hits this step (the paper's "data reuse").
    pub hits: u64,
    /// Records evicted at this step's slice expiry.
    pub evictions: u64,
    /// Active nodes after the step.
    pub nodes: usize,
    /// Speedup over the uncached service within this step.
    pub step_speedup: f64,
    /// Cumulative speedup since the experiment began.
    pub cum_speedup: f64,
    /// Uncached (baseline) time accrued this step, µs.
    pub baseline_us: u64,
    /// Observed time accrued this step, µs.
    pub observed_us: u64,
}

/// Queries-weighted speedup over a window of rows ending at `end`
/// (exclusive), spanning up to `span` rows — the smoothed series the
/// paper's plots show.
pub fn smoothed_speedup(rows: &[StepRow], end: usize, span: usize) -> f64 {
    let lo = end.saturating_sub(span);
    let baseline: u64 = rows[lo..end].iter().map(|r| r.baseline_us).sum();
    let observed: u64 = rows[lo..end].iter().map(|r| r.observed_us).sum();
    if observed == 0 {
        1.0
    } else {
        baseline as f64 / observed as f64
    }
}

/// Run the §IV-C eviction/contraction experiment: 32 Ki keys, the
/// 50/250/50 rate schedule, window `m`, decay `alpha`, for `steps` time
/// steps. Returns one row per time step.
pub fn run_eviction_experiment(
    m: usize,
    alpha: f64,
    steps: u64,
    seed: u64,
    service: &PaperService,
) -> Vec<StepRow> {
    run_eviction_experiment_with_threshold(m, alpha, None, steps, seed, service)
}

/// [`run_eviction_experiment`] with an explicit eviction threshold `T_λ`
/// (`None` = the baseline `α^(m-1)`). Figure 7 fixes `T_λ` while sweeping
/// `α` — with the baseline threshold, `α` cancels out of the eviction
/// decision entirely (any in-window query scores `λ ≥ α^(m-1) = T_λ`).
pub fn run_eviction_experiment_with_threshold(
    m: usize,
    alpha: f64,
    threshold: Option<f64>,
    steps: u64,
    seed: u64,
    service: &PaperService,
) -> Vec<StepRow> {
    let key_space = 32 * 1024;
    let cfg = paper_cfg(
        key_space,
        Some(WindowConfig {
            slices: m,
            alpha,
            threshold,
        }),
    );
    run_eviction_with_config(cfg, steps, seed, service)
}

/// Run the eviction workload against an arbitrary cache configuration
/// (extension ablations: warm pools, proactive splits, adaptive windows).
pub fn run_eviction_with_config(
    cfg: CacheConfig,
    steps: u64,
    seed: u64,
    service: &PaperService,
) -> Vec<StepRow> {
    let key_space = cfg.ring_range;
    let mut cache = ElasticCache::new(cfg);
    let stream = QueryStream::new(
        RateSchedule::paper_eviction_phases(),
        KeyDist::uniform(key_space),
        seed,
    );
    let mut rows = Vec::with_capacity(steps as usize);
    let mut prev = *cache.metrics();
    let mut cur_step = 0u64;
    let mut flush = |cache: &mut ElasticCache, step: u64, prev: &mut ecc_core::Metrics| {
        cache.end_time_step();
        let now = *cache.metrics();
        let d = now.delta(prev);
        rows.push(StepRow {
            step: step + 1,
            queries: d.queries,
            hits: d.hits,
            evictions: d.evictions,
            nodes: cache.node_count(),
            step_speedup: d.speedup(),
            cum_speedup: now.speedup(),
            baseline_us: d.baseline_us,
            observed_us: d.observed_us,
        });
        *prev = now;
    };
    for (step, key) in stream.take_steps(steps) {
        while cur_step < step {
            flush(&mut cache, cur_step, &mut prev);
            cur_step += 1;
        }
        let uncached = service.uncached_us(key);
        cache.query(key, uncached, || service.record(key));
    }
    while cur_step < steps {
        flush(&mut cache, cur_step, &mut prev);
        cur_step += 1;
    }
    rows
}

/// Build the Figure-3 GBA cache (infinite window, 64 Ki keys).
pub fn fig3_gba_cache() -> ElasticCache {
    ElasticCache::new(paper_cfg(1 << 16, None))
}

/// Build a Figure-3 static baseline of `n` nodes.
pub fn fig3_static_cache(n: usize) -> StaticCache {
    StaticCache::new(&paper_cfg(1 << 16, None), n)
}

/// Scale factor for long experiments: `--scale X` on the command line or
/// the `ECC_SCALE` environment variable (default 1.0 = paper scale).
pub fn scale_arg() -> f64 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--scale" {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        } else if let Some(v) = a.strip_prefix("--scale=").and_then(|v| v.parse().ok()) {
            return v;
        }
    }
    std::env::var("ECC_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Render a CSV document: the header line followed by one line per row.
/// Column order is exactly the header's — every writer goes through this
/// function, so reruns of the same experiment are line-diffable.
///
/// Returns an error if any row's field count differs from the header's
/// column count (a silent arity mismatch is how columns drift).
pub fn csv_text(header: &str, rows: &[Vec<String>]) -> std::io::Result<String> {
    let cols = header.split(',').count();
    let mut out = String::with_capacity(rows.len() * 32 + header.len());
    out.push_str(header);
    out.push('\n');
    for (i, row) in rows.iter().enumerate() {
        if row.len() != cols {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("csv row {i} has {} fields, header has {cols}", row.len()),
            ));
        }
        out.push_str(&row.join(","));
        out.push('\n');
    }
    Ok(out)
}

/// Write a CSV file under `results/`, creating the directory as needed.
/// Returns the written path; announcing it is the caller's job (library
/// code is print-free under the `no-print` lint).
pub fn write_csv(name: &str, header: &str, rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    let text = csv_text(header, rows)?;
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path)?;
    f.write_all(text.as_bytes())?;
    Ok(path)
}

/// The Figure-5 CSV header for a set of window sizes, in sweep order:
/// `step,m<w>_speedup,m<w>_nodes,…`.
pub fn fig5_header(windows: &[usize]) -> String {
    let mut h = String::from("step");
    for m in windows {
        h.push_str(&format!(",m{m}_speedup,m{m}_nodes"));
    }
    h
}

/// Build the Figure-5 CSV rows: every `report_every` steps, the 10-step
/// smoothed speedup and node count of each window's run, in the order the
/// runs are given. Shared by the `fig5_window_speedup` binary and the
/// golden-file test, so the committed CSV and the regenerated one come
/// from one code path.
pub fn fig5_rows(all: &[(usize, Vec<StepRow>)], steps: u64, report_every: u64) -> Vec<Vec<String>> {
    let mut rows_csv = Vec::new();
    for i in (0..steps as usize).step_by(report_every.max(1) as usize) {
        let mut csv = vec![(i + 1).to_string()];
        for (_, rows) in all {
            let r = &rows[i];
            let smooth = smoothed_speedup(rows, i + 1, 10);
            csv.push(format!("{smooth:.4}"));
            csv.push(r.nodes.to_string());
        }
        rows_csv.push(csv);
    }
    rows_csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_service_pads_records() {
        let s = PaperService::new(1);
        assert_eq!(s.record(123).len(), RECORD_BYTES);
        let t = s.uncached_us(123);
        assert!((21_000_000..=25_000_000).contains(&t));
    }

    #[test]
    fn paper_cfg_capacity_is_4096_records() {
        let cfg = paper_cfg(1 << 16, None);
        assert_eq!(
            cfg.node_capacity_bytes / ecc_core::slab::footprint(RECORD_BYTES),
            4096
        );
        assert_eq!(cfg.ring_range, 1 << 16);
        cfg.validate();
    }

    #[test]
    fn eviction_runner_produces_one_row_per_step() {
        let service = PaperService::new(3);
        let rows = run_eviction_experiment(5, 0.99, 20, 7, &service);
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[0].step, 1);
        assert_eq!(rows[0].queries, 50, "phase 1 rate is 50 q/step");
        assert!(rows.iter().all(|r| r.nodes >= 1));
    }

    #[test]
    fn smoothed_speedup_weights_by_time_not_steps() {
        let mk = |baseline: u64, observed: u64| StepRow {
            step: 0,
            queries: 0,
            hits: 0,
            evictions: 0,
            nodes: 1,
            step_speedup: 0.0,
            cum_speedup: 0.0,
            baseline_us: baseline,
            observed_us: observed,
        };
        // One heavy step (speedup 1) and one light step (speedup 10):
        // the window speedup is time-weighted, not the mean of 1 and 10.
        let rows = vec![mk(1000, 1000), mk(100, 10)];
        let s = smoothed_speedup(&rows, 2, 10);
        assert!((s - 1100.0 / 1010.0).abs() < 1e-9);
        // Window of 1 sees only the last row.
        assert!((smoothed_speedup(&rows, 2, 1) - 10.0).abs() < 1e-9);
        // Empty/observedless windows degrade to 1.
        assert_eq!(smoothed_speedup(&rows, 0, 5), 1.0);
    }

    #[test]
    fn eviction_runner_is_deterministic() {
        let service = PaperService::new(3);
        let a = run_eviction_experiment(5, 0.99, 10, 7, &service);
        let b = run_eviction_experiment(5, 0.99, 10, 7, &service);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.queries, x.hits, x.nodes), (y.queries, y.hits, y.nodes));
        }
    }
}
