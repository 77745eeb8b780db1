//! What every workload shares: run settings, the outcome it hands back,
//! set-up timing, memory read-out and obs-snapshot arithmetic.

use std::collections::BTreeMap;
use std::time::Instant;

use ecc_obs::ObsSnapshot;

use crate::calib;
use crate::json::Value;
use crate::pacing::WallClock;
use crate::spans::Recorder;
use crate::stats::{self, quantile_sorted, SegmentStats};

/// The seed whose exact counts are pinned in each workload.
pub const DEFAULT_SEED: u64 = 1;

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Drives op generation only.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Interleave traced segments and report per-layer metrics.
    pub trace: bool,
    /// Short run, correctness checks only: no pinned counts (the work is
    /// cut down) and no meaning in the timings.
    pub smoke: bool,
}

impl RunCfg {
    /// Whether this run must reproduce the pinned counts.
    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED && !self.smoke
    }

    /// Measured phase in nanoseconds.
    pub fn horizon_ns(&self) -> u64 {
        (self.seconds * 1e9) as u64
    }
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, queries, read-backs).
    pub attempted: u64,
    /// Operations that failed, were refused or returned wrong bytes.
    pub failed: u64,
    /// Broken pins and invariants; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Metric values by catalogue name (end-to-end and per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts and exact counts, for the detail line.
    pub detail: Vec<(String, Value)>,
    /// The benchmark's own spans (traced runs).
    pub spans: Recorder,
}

impl Outcome {
    /// Set metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Add a detail entry.
    pub fn note(&mut self, key: &str, value: impl Into<f64>) {
        self.detail.push((key.to_owned(), Value::Num(value.into())));
    }

    /// Add the per-segment values of the primary timing metric to the
    /// detail line, so that a surprising median can be looked into.
    pub fn note_segments(&mut self, key: &str, values: &[f64]) {
        let rounded = values.iter().map(|v| Value::Num((v * 10.0).round() / 10.0));
        self.detail
            .push((key.to_owned(), Value::Arr(rounded.collect())));
    }

    /// Compare an exact count with its pin.
    pub fn pin(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.problems
                .push(format!("{what}: got {got}, pinned {want}"));
        }
    }

    /// Record a failed invariant unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Share of a CPU-bound timing that follows the host's core speed, as
/// fitted on the reference host (README, "What measuring on this host
/// showed"): the rest is kernel entry and memory time that does not move
/// with the core clock.
pub const CORE_BOUND_SHARE: f64 = 0.8;
/// For a timing that waits on timers, not on the CPU.
pub const TIMER_BOUND: f64 = 0.0;

impl RunCfg {
    /// Whether segment `seg` counts towards the end-to-end figures: every
    /// segment of an untraced run, the even ones of a traced run (the odd
    /// ones carry the spans).
    pub fn untraced(&self, seg: usize) -> bool {
        !self.trace || seg.is_multiple_of(2)
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&mut values.collect::<Vec<_>>())
}

/// Report a closed-loop rate: `ops_per_s` is the median over untraced
/// segments of the rate as it would read on the reference host; the rate
/// as measured and the host speed go to the per-layer list. Returns the
/// compensated medians of the untraced and the traced segments.
pub fn report_rate(
    out: &mut Outcome,
    cfg: &RunCfg,
    seg_rate: &[f64],
    seg_speed: &[f64],
    share: f64,
) -> (f64, f64) {
    let half = |traced: bool| {
        median_of(
            seg_rate
                .iter()
                .zip(seg_speed)
                .enumerate()
                .filter(|(i, _)| cfg.untraced(*i) != traced)
                .map(|(_, (rate, speed))| calib::compensate_rate(*rate, *speed, share)),
        )
    };
    let untraced = half(false);
    out.set("ops_per_s", untraced);
    out.set(
        "loadgen.raw_ops_per_s",
        median_of(
            seg_rate
                .iter()
                .enumerate()
                .filter(|(i, _)| cfg.untraced(*i))
                .map(|(_, r)| *r),
        ),
    );
    out.note_segments("segment_ops_per_s", seg_rate);
    (untraced, half(true))
}

/// Report the latency figures every workload shares. `lat_p50_us` is the
/// median over the untraced segments that `gated` admits of each
/// segment's median, compensated by `share`; the per-layer list gets the
/// same as measured, the p90, the whole-run tails and the sample counts.
/// Returns the compensated p50 of the untraced and of the traced
/// segments.
pub fn report_latency(
    out: &mut Outcome,
    cfg: &RunCfg,
    lat_us: &mut SegmentStats,
    speed_of: impl Fn(usize) -> f64,
    share: f64,
    gated: impl Fn(usize) -> bool,
) -> (f64, f64) {
    let tail = lat_us.kept_sorted();
    let (samples, max) = (lat_us.sample_count(), lat_us.max());
    let done = lat_us.finish();
    let p50 = |traced: bool, raw: bool| {
        median_of(
            done.iter()
                .filter(|s| gated(s.seg) && cfg.untraced(s.seg) != traced)
                .filter_map(|s| {
                    let speed = if raw { 1.0 } else { speed_of(s.seg) };
                    s.p50.map(|v| calib::compensate_time(v, speed, share))
                }),
        )
    };
    let untraced = p50(false, false);
    out.set("lat_p50_us", untraced);
    out.set("loadgen.raw_lat_p50_us", p50(false, true));
    out.set(
        "loadgen.lat_p90_us",
        median_of(done.iter().filter(|s| cfg.untraced(s.seg)).filter_map(|s| {
            s.p90
                .map(|v| calib::compensate_time(v, speed_of(s.seg), share))
        })),
    );
    let segments = done.iter().filter(|s| s.p50.is_some()).count();
    out.set("loadgen.segments", segments as f64);
    out.set("loadgen.lat_samples", samples as f64);
    out.set("loadgen.lat_p99_us", quantile_sorted(&tail, 0.99));
    out.set("loadgen.lat_p999_us", quantile_sorted(&tail, 0.999));
    out.set("loadgen.lat_max_us", max);
    out.note("segments", segments as u32);
    out.note("lat_samples", samples as f64);
    out.note(
        "lat_top_percentile",
        stats::highest_supported_percentile(samples as usize).unwrap_or(0.0),
    );
    let per_segment: Vec<f64> = done.iter().filter_map(|s| s.p50).collect();
    out.note_segments("segment_lat_p50_us", &per_segment);
    (untraced, p50(true, false))
}

/// Report the host speed seen beside the segments.
pub fn report_speed(out: &mut Outcome, seg_kernel_ns: &[f64]) -> Vec<f64> {
    let speeds: Vec<f64> = seg_kernel_ns.iter().map(|ns| calib::speed(*ns)).collect();
    out.set("loadgen.cpu_speed", median_of(speeds.iter().copied()));
    out.note_segments("segment_kernel_ns", seg_kernel_ns);
    speeds
}

/// Build a fixture once and return it with the build time in seconds,
/// as it would read on the reference host: the calibration kernel runs
/// right before the build, and set-up here is CPU work.
pub fn timed_setup<T, E>(build: impl FnOnce() -> Result<T, E>) -> Result<(T, f64), E> {
    let clock = WallClock::start();
    let speed = calib::speed(calib::kernel_ns(&clock) as f64);
    let t0 = Instant::now();
    let fixture = build()?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        fixture,
        calib::compensate_time(secs, speed, CORE_BOUND_SHARE),
    ))
}

/// Build the fixture `reps` times (tearing down all but the last, which
/// is the one the run measures) and return it with the median build time.
pub fn timed_setups<T, E>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, E>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), E> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let (fixture, secs) = timed_setup(&mut build)?;
        last = Some(fixture);
        times.push(secs);
    }
    match last {
        Some(fixture) => Ok((fixture, stats::median(&mut times))),
        None => unreachable!("at least one set-up repetition"),
    }
}

/// Peak resident set of this process (VmHWM), MiB; 0 where
/// `/proc/self/status` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Count and sum of one named histogram in an obs snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistTotals {
    /// Samples recorded.
    pub count: u64,
    /// Sum of the samples.
    pub sum: u64,
}

impl HistTotals {
    /// Totals of `name` in `snap` (zero when the histogram is absent).
    pub fn of(snap: &ObsSnapshot, name: &str) -> Self {
        snap.hist(name).map_or(Self::default(), |h| Self {
            count: h.count(),
            sum: h.sum(),
        })
    }

    /// What was recorded after `earlier` was taken.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Mean sample (0 when empty).
    pub fn mean(self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Totals of `name` recorded between two snapshots of one registry.
pub fn hist_between(before: &ObsSnapshot, after: &ObsSnapshot, name: &str) -> HistTotals {
    HistTotals::of(after, name).since(HistTotals::of(before, name))
}

/// What cache nodes' own obs registries recorded — reactor wake-ups, op
/// service times, lock waits — summed over whatever snapshots are added.
#[derive(Debug, Default)]
pub struct NodeObs {
    dispatch: HistTotals,
    frames: HistTotals,
    op_get: HistTotals,
    op_put: HistTotals,
    lock_wait_us: u64,
}

impl NodeObs {
    /// Add what was recorded between two snapshots of one registry (pass
    /// an empty `before` for everything up to `after`).
    pub fn add(&mut self, before: &ObsSnapshot, after: &ObsSnapshot) {
        let plus = |acc: &mut HistTotals, name: &str| {
            let d = hist_between(before, after, name);
            acc.count += d.count;
            acc.sum += d.sum;
        };
        plus(&mut self.dispatch, "reactor_dispatch_us");
        plus(&mut self.frames, "reactor_frames_per_wake");
        plus(&mut self.op_get, "server_op_us:get");
        plus(&mut self.op_put, "server_op_us:put");
        self.lock_wait_us += hist_between(before, after, "lock_wait_us:structural").sum
            + hist_between(before, after, "lock_wait_us:stripe").sum;
    }

    /// Set the node-side per-layer metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.set("net.reactor.dispatch_us_mean", self.dispatch.mean());
        out.set("net.reactor.wakes", self.frames.count as f64);
        out.set("net.reactor.frames_per_wake", self.frames.mean());
        out.set("net.server.op_us_mean.get", self.op_get.mean());
        out.set("net.server.op_us_mean.put", self.op_put.mean());
        out.set("core.shard.lock_wait_us_sum", self.lock_wait_us as f64);
    }
}

/// `(traced − untraced) / untraced` of a metric where lower is better;
/// negate for one where higher is better.
pub fn overhead_share(untraced: f64, traced: f64) -> f64 {
    if untraced == 0.0 {
        0.0
    } else {
        (traced - untraced) / untraced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_repeated_and_the_last_fixture_survives() {
        let mut built = 0;
        let mut torn = Vec::new();
        let (fixture, secs) = timed_setups(
            5,
            || {
                built += 1;
                Ok::<_, ()>(built)
            },
            |f| torn.push(f),
        )
        .unwrap();
        assert_eq!(fixture, 5);
        assert_eq!(torn, vec![1, 2, 3, 4]);
        assert!(secs >= 0.0);
        let (fixture, _) = timed_setups(1, || Ok::<_, ()>(9), |_| {}).unwrap();
        assert_eq!(fixture, 9);
    }

    #[test]
    fn hist_totals_difference_two_snapshots() {
        let obs = ecc_obs::ObsRegistry::new(ecc_obs::TimeSource::real());
        obs.record("x", 10);
        let before = obs.snapshot();
        obs.record("x", 30);
        obs.record("x", 50);
        let after = obs.snapshot();
        let d = hist_between(&before, &after, "x");
        assert_eq!((d.count, d.sum), (2, 80));
        assert_eq!(d.mean(), 40.0);
        assert_eq!(hist_between(&before, &after, "absent").mean(), 0.0);
    }

    #[test]
    fn pins_and_requirements_collect_problems() {
        let mut o = Outcome::default();
        o.pin("hits", 3, 3);
        o.require(true, || unreachable!());
        assert!(o.problems.is_empty());
        o.pin("splits", 2, 3);
        o.require(false, || "lost a record".to_owned());
        assert_eq!(o.problems.len(), 2);
        assert!(o.problems[0].contains("got 2, pinned 3"));
    }

    #[test]
    fn rss_reads_from_proc() {
        assert!(peak_rss_mb() > 0.5);
    }
}
