//! Order statistics for the benchmark's reports.
//!
//! Timing metrics are computed per fixed segment of a run and reported as
//! the median across segments: a host stall then spoils one segment
//! instead of dragging a whole-run percentile.

/// Quantile `q` in `[0, 1]` of an ascending slice, linearly interpolated
/// between the two nearest ranks. Empty input yields 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    quantile_sorted(values, 0.5)
}

/// The percentiles a report may state, ascending.
const PERCENTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The highest of p50/p90/p99/p99.9/p99.99 that still has at least ten
/// samples beyond it among `n` samples, or `None` when even the median
/// does not (`n < 20`).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES.iter().copied().rev().find(|p| supported(n, *p))
}

/// What is kept of one finished segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentSummary {
    /// Index of the segment within the run.
    pub seg: usize,
    /// Samples the segment held.
    pub samples: usize,
    /// Median, when at least ten samples lie beyond it.
    pub p50: Option<f64>,
    /// 90th percentile, when at least ten samples lie beyond it.
    pub p90: Option<f64>,
}

/// At most this many samples of a run are kept for its whole-run tails.
const RESERVOIR: usize = 1 << 17;

/// A stream of samples cut into segments. Only the open segment's
/// samples are held; a finished segment leaves its percentiles, and a
/// bounded, evenly thinned subsample of the whole run serves the tails —
/// so the memory a run needs does not grow with how fast the host ran it.
#[derive(Debug, Default, Clone)]
pub struct SegmentStats {
    done: Vec<SegmentSummary>,
    open: Vec<f64>,
    open_seg: usize,
    kept: Vec<f64>,
    /// Every `stride`-th sample is kept; doubles whenever `kept` fills.
    stride: u64,
    seen: u64,
    max: f64,
}

/// Whether at least ten of `samples` lie beyond quantile `q` (the
/// epsilon keeps 100 × (1 − 0.9) from reading 9.999…).
fn supported(samples: usize, q: f64) -> bool {
    (samples as f64) * (1.0 - q) + 1e-9 >= 10.0
}

impl SegmentStats {
    /// Add `value` to segment `seg`. Segments must arrive in order: a new
    /// index closes the one before it.
    pub fn push(&mut self, seg: usize, value: f64) {
        if seg != self.open_seg {
            self.close();
            self.open_seg = seg;
        }
        self.open.push(value);
        self.max = self.max.max(value);
        if self.stride == 0 {
            self.stride = 1;
        }
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == RESERVOIR {
                // Thin to every second kept sample and halve the rate.
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.kept.push(value);
            }
        }
        self.seen += 1;
    }

    fn close(&mut self) {
        if self.open.is_empty() {
            return;
        }
        sort(&mut self.open);
        let n = self.open.len();
        let at = |q: f64| supported(n, q).then(|| quantile_sorted(&self.open, q));
        self.done.push(SegmentSummary {
            seg: self.open_seg,
            samples: n,
            p50: at(0.5),
            p90: at(0.9),
        });
        self.open.clear();
    }

    /// Close the open segment and return every segment's summary.
    pub fn finish(&mut self) -> &[SegmentSummary] {
        self.close();
        &self.done
    }

    /// Samples pushed so far.
    pub fn sample_count(&self) -> u64 {
        self.seen
    }

    /// Largest sample pushed.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The thinned whole-run subsample, ascending.
    pub fn kept_sorted(&self) -> Vec<f64> {
        let mut kept = self.kept.clone();
        sort(&mut kept);
        kept
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method), which is what the driver applies to repeated runs.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len();
    let cut = |i: usize| {
        // Position i*(m+1)/4 in 1-based ranks, clamped into the data.
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Distance between the quartiles as a share of the median — the
/// run-to-run spread the driver compares against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    if med == 0.0 {
        return Some(0.0);
    }
    Some((q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        assert!((quantile_sorted(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn segment_median_ignores_one_stalled_segment() {
        let mut s = SegmentStats::default();
        for seg in 0..5 {
            for i in 0..100 {
                // Segment 3 suffered a stall: everything 50x slower.
                let scale = if seg == 3 { 50.0 } else { 1.0 };
                s.push(seg, (100 + i) as f64 * scale);
            }
        }
        let max = s.max();
        let mut p50s: Vec<f64> = s.finish().iter().filter_map(|x| x.p50).collect();
        assert_eq!(p50s.len(), 5);
        assert!((median(&mut p50s) - 149.5).abs() < 1e-9);
        // The whole-run maximum is dominated by the stall; the segment
        // median of p90 is not.
        let mut p90s: Vec<f64> = s.finish().iter().filter_map(|x| x.p90).collect();
        assert!(median(&mut p90s) < 200.0);
        assert!(max > 5_000.0);
        assert_eq!(s.sample_count(), 500);
        assert_eq!(s.kept_sorted().len(), 500);
    }

    #[test]
    fn segments_too_small_for_a_percentile_are_left_out() {
        let mut s = SegmentStats::default();
        for i in 0..100 {
            s.push(0, i as f64);
        }
        for i in 0..50 {
            s.push(4, 1_000.0 + i as f64);
        }
        let done = s.finish();
        assert_eq!(done.len(), 2);
        // p90 needs 100 samples, p50 needs 20.
        assert_eq!((done[0].seg, done[0].samples), (0, 100));
        assert!(done[0].p90.is_some() && done[0].p50.is_some());
        assert_eq!((done[1].seg, done[1].samples), (4, 50));
        assert!(done[1].p90.is_none() && done[1].p50.is_some());
    }

    #[test]
    fn whole_run_subsample_stays_bounded_and_even() {
        let mut s = SegmentStats::default();
        let n = 5 * RESERVOIR as u64;
        for i in 0..n {
            s.push((i / 10_000) as usize, i as f64);
        }
        let kept = s.kept_sorted();
        assert!(kept.len() <= RESERVOIR && kept.len() >= RESERVOIR / 2);
        // Evenly thinned: the subsample's quantiles are the stream's.
        let p99 = quantile_sorted(&kept, 0.99);
        assert!((p99 / n as f64 - 0.99).abs() < 0.001, "{p99}");
        assert_eq!(s.max(), (n - 1) as f64);
        assert_eq!(s.sample_count(), n);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((med - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
