//! Hit/miss/time accounting — the raw series behind every figure.

use serde::{Deserialize, Serialize};

/// Cumulative cache statistics. Figure harnesses snapshot this each
/// reporting interval and difference consecutive snapshots.
#[must_use]
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Total queries observed.
    pub queries: u64,
    /// Queries answered from cache.
    pub hits: u64,
    /// Queries that had to execute the backing service.
    pub misses: u64,
    /// Records evicted by the sliding window.
    pub evictions: u64,
    /// Records displaced by LRU replacement (static baseline only).
    pub lru_evictions: u64,
    /// Bucket splits performed (node overflow events).
    pub splits: u64,
    /// Splits that had to allocate a brand-new cloud node.
    pub splits_with_allocation: u64,
    /// Node merges performed by contraction.
    pub merges: u64,
    /// Virtual time actually charged to the query path, µs
    /// (hits + misses + migration/boot on the critical path).
    pub observed_us: u64,
    /// Virtual time the same queries would have cost uncached, µs.
    pub baseline_us: u64,
    /// Portion of `observed_us` spent executing the backing service.
    pub service_us: u64,
    /// Portion of `observed_us` spent on node allocation (boot).
    pub alloc_us: u64,
    /// Portion of `observed_us` spent moving records between nodes.
    pub migration_us: u64,
    /// Misses served from the persistent overflow tier instead of the
    /// backing service.
    pub tier_hits: u64,
    /// Evicted records written to the persistent overflow tier.
    pub tier_writes: u64,
    /// Cache admissions abandoned because an internal invariant check
    /// failed mid-insert; the record was served uncached instead. Always 0
    /// in a healthy cache — a nonzero value flags a coordinator bug.
    pub insert_errors: u64,
}

impl Metrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hit rate in `[0, 1]`; 0 when no queries have been seen.
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.hits as f64 / self.queries as f64
        }
    }

    /// Relative speedup over the uncached service:
    /// `baseline_us / observed_us` (the y-axis of Figures 3 and 5).
    pub fn speedup(&self) -> f64 {
        if self.observed_us == 0 {
            1.0
        } else {
            self.baseline_us as f64 / self.observed_us as f64
        }
    }

    /// Average observed per-query time in seconds.
    pub fn avg_query_secs(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.observed_us as f64 / self.queries as f64 / 1e6
        }
    }

    /// Counter-wise difference `self - earlier` (for interval reporting).
    ///
    /// Saturating: if `earlier` was snapshotted after a counter reset (or
    /// the operands are swapped), a counter that moved backwards reports 0
    /// for that interval instead of underflowing.
    pub fn delta(&self, earlier: &Metrics) -> Metrics {
        Metrics {
            queries: self.queries.saturating_sub(earlier.queries),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            lru_evictions: self.lru_evictions.saturating_sub(earlier.lru_evictions),
            splits: self.splits.saturating_sub(earlier.splits),
            splits_with_allocation: self
                .splits_with_allocation
                .saturating_sub(earlier.splits_with_allocation),
            merges: self.merges.saturating_sub(earlier.merges),
            observed_us: self.observed_us.saturating_sub(earlier.observed_us),
            baseline_us: self.baseline_us.saturating_sub(earlier.baseline_us),
            service_us: self.service_us.saturating_sub(earlier.service_us),
            alloc_us: self.alloc_us.saturating_sub(earlier.alloc_us),
            migration_us: self.migration_us.saturating_sub(earlier.migration_us),
            tier_hits: self.tier_hits.saturating_sub(earlier.tier_hits),
            tier_writes: self.tier_writes.saturating_sub(earlier.tier_writes),
            insert_errors: self.insert_errors.saturating_sub(earlier.insert_errors),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_queries() {
        let m = Metrics::new();
        assert_eq!(m.hit_rate(), 0.0);
        assert_eq!(m.speedup(), 1.0);
        assert_eq!(m.avg_query_secs(), 0.0);
    }

    #[test]
    fn speedup_is_baseline_over_observed() {
        let m = Metrics {
            queries: 10,
            baseline_us: 230_000_000,
            observed_us: 23_000_000,
            ..Default::default()
        };
        assert!((m.speedup() - 10.0).abs() < 1e-12);
        assert!((m.avg_query_secs() - 2.3).abs() < 1e-12);
    }

    #[test]
    fn delta_subtracts_counterwise() {
        let a = Metrics {
            queries: 10,
            hits: 4,
            misses: 6,
            observed_us: 100,
            baseline_us: 300,
            ..Default::default()
        };
        let b = Metrics {
            queries: 25,
            hits: 15,
            misses: 10,
            observed_us: 180,
            baseline_us: 700,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.queries, 15);
        assert_eq!(d.hits, 11);
        assert_eq!(d.misses, 4);
        assert_eq!(d.observed_us, 80);
        assert_eq!(d.baseline_us, 400);
        assert!((d.hit_rate() - 11.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn delta_across_a_reset_saturates_instead_of_panicking() {
        let before_reset = Metrics {
            queries: 100,
            hits: 60,
            misses: 40,
            observed_us: 5_000,
            baseline_us: 9_000,
            evictions: 7,
            ..Default::default()
        };
        // Counters were reset, then moved a little: every field is now
        // smaller than the stale snapshot.
        let after_reset = Metrics {
            queries: 3,
            hits: 1,
            misses: 2,
            observed_us: 90,
            baseline_us: 150,
            ..Default::default()
        };
        let d = after_reset.delta(&before_reset);
        assert_eq!(d.queries, 0);
        assert_eq!(d.hits, 0);
        assert_eq!(d.misses, 0);
        assert_eq!(d.observed_us, 0);
        assert_eq!(d.baseline_us, 0);
        assert_eq!(d.evictions, 0);
    }
}
