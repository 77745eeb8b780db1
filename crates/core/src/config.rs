//! Cache configuration (the paper's tunables in one place).
//!
//! This module doubles as the reproduction of the paper's **Table I**
//! (identifier glossary) — each field documents the identifier it realizes:
//!
//! | Paper identifier | Here |
//! |---|---|
//! | `r` (hash-line range of `h'`) | [`CacheConfig::ring_range`] |
//! | `⌈n⌉` (node capacity) | [`CacheConfig::node_capacity_bytes`] |
//! | `α` (eviction decay) | [`WindowConfig::alpha`] |
//! | `m` (sliding-window slices) | [`WindowConfig::slices`] |
//! | `T_λ` (eviction threshold) | [`WindowConfig::threshold`] |
//! | `ε` (contraction cadence) | [`CacheConfig::contraction_epsilon`] |
//! | merge threshold (65 %) | [`CacheConfig::merge_fill_threshold`] |

use ecc_cloudsim::{BootLatency, InstanceType, NetModel, StorageTier};

use crate::adaptive::AdaptiveWindowConfig;

/// Sliding-window eviction parameters (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// `m` — number of time slices the window retains.
    pub slices: usize,
    /// `α` — the decay, `0 < α < 1`.
    pub alpha: f64,
    /// `T_λ` — eviction threshold; `None` uses the paper's baseline
    /// `α^(m-1)`, which never evicts a key queried at least once within the
    /// window.
    pub threshold: Option<f64>,
}

impl WindowConfig {
    /// The paper's eviction-experiment setting: `α = 0.99`,
    /// `T_λ = α^(m-1)`.
    pub fn paper(slices: usize) -> Self {
        Self {
            slices,
            alpha: 0.99,
            threshold: None,
        }
    }

    /// The effective threshold value.
    pub fn effective_threshold(&self) -> f64 {
        self.threshold
            .unwrap_or_else(|| self.alpha.powi(self.slices as i32 - 1))
    }

    /// Panics if parameters are outside their valid domains.
    pub fn validate(&self) {
        assert!(self.slices >= 1, "window needs at least one slice");
        assert!(
            self.alpha > 0.0 && self.alpha < 1.0,
            "decay must be in (0, 1)"
        );
        if let Some(t) = self.threshold {
            assert!(t >= 0.0 && t.is_finite(), "threshold must be >= 0");
        }
    }
}

/// Full configuration of an [`crate::ElasticCache`] (and, where fields
/// apply, a [`crate::StaticCache`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// `r` — the hash line is `[0, ring_range)`. Must be at least the key
    /// space size so `h'` stays injective on keys (contiguous key ranges ↔
    /// contiguous arcs).
    pub ring_range: u64,
    /// `⌈n⌉` — usable cache memory per node in bytes. The paper never
    /// states this; experiments derive it from the static-N convergence
    /// speedups (see EXPERIMENTS.md).
    pub node_capacity_bytes: u64,
    /// Branching factor of each node's B+-tree index.
    pub btree_order: usize,
    /// Machine type allocated for cache nodes.
    pub instance_type: InstanceType,
    /// Node allocation (boot) latency model.
    pub boot_latency: BootLatency,
    /// Coordinator ↔ node and node ↔ node network model (`T_net`).
    pub net: NetModel,
    /// Contraction merges the two least-loaded nodes only when their
    /// combined data fits within this fraction of one node's capacity
    /// (paper: 65 %, for churn avoidance).
    pub merge_fill_threshold: f64,
    /// `ε` — attempt contraction every `ε` slice expirations.
    pub contraction_epsilon: u64,
    /// Eviction window; `None` is the infinite window of the Figure 3
    /// experiments (no eviction, no contraction).
    pub window: Option<WindowConfig>,
    /// Never contract below this many nodes.
    pub min_nodes: usize,
    /// Fixed coordination/index overhead charged per lookup, microseconds.
    pub lookup_overhead_us: u64,
    /// Seed for the provider's boot-latency jitter.
    pub seed: u64,
    /// Standby instances to keep pre-booting so splits never block on
    /// allocation (§VI asynchronous preloading); `0` disables the pool —
    /// the paper's evaluated configuration.
    pub warm_pool: usize,
    /// Proactively split any node whose fill exceeds this fraction at a
    /// time-step boundary, off the query critical path (§VI "record
    /// prefetching from a node that is predictably close to invoking
    /// migration"). `None` disables — the paper's evaluated configuration.
    pub proactive_split_fill: Option<f64>,
    /// Dynamic window sizing (§VI future work); `None` keeps `m` fixed.
    /// Requires `window` to be set.
    pub adaptive_window: Option<AdaptiveWindowConfig>,
    /// Persistent overflow tier (§IV-D, S3/EBS): evicted records are
    /// written to cloud storage, and a memory miss checks the tier before
    /// re-running the 23 s service. `None` is the paper's evaluated
    /// configuration (re-derive on every miss).
    pub overflow_tier: Option<StorageTier>,
}

impl CacheConfig {
    /// The configuration used by the paper-scale experiments: 64 Ki-key
    /// hash line, EC2 Small nodes booting in 70–110 s, LAN-class network,
    /// 65 % merge threshold, `ε = 5`.
    ///
    /// `node_capacity_bytes` defaults to 4096 records × 1 KiB; figure
    /// harnesses override capacity and window per experiment.
    pub fn paper_default() -> Self {
        Self {
            ring_range: 1 << 16,
            node_capacity_bytes: 4096 * 1024,
            btree_order: 64,
            instance_type: InstanceType::ec2_small(),
            boot_latency: BootLatency::ec2_like(),
            net: NetModel::lan(),
            merge_fill_threshold: 0.65,
            contraction_epsilon: 5,
            window: None,
            min_nodes: 1,
            lookup_overhead_us: 200,
            seed: 0x5EED,
            warm_pool: 0,
            proactive_split_fill: None,
            adaptive_window: None,
            overflow_tier: None,
        }
    }

    /// A tiny deterministic configuration for unit tests and doctests:
    /// 1 Ki-key line, 4 KiB nodes, instant boot, instant network.
    pub fn small_test() -> Self {
        Self {
            ring_range: 1024,
            node_capacity_bytes: 4096,
            btree_order: 8,
            instance_type: InstanceType::custom("test.nano", 4096, 1000),
            boot_latency: BootLatency::instant(),
            net: NetModel::instant(),
            merge_fill_threshold: 0.65,
            contraction_epsilon: 1,
            window: None,
            min_nodes: 1,
            lookup_overhead_us: 0,
            seed: 7,
            warm_pool: 0,
            proactive_split_fill: None,
            adaptive_window: None,
            overflow_tier: None,
        }
    }

    /// Panics if the configuration is internally inconsistent.
    pub fn validate(&self) {
        assert!(self.ring_range > 0, "ring range must be positive");
        assert!(self.node_capacity_bytes > 0, "capacity must be positive");
        assert!(self.btree_order >= 4, "B+-tree order must be >= 4");
        assert!(
            self.merge_fill_threshold > 0.0 && self.merge_fill_threshold <= 1.0,
            "merge threshold must be in (0, 1]"
        );
        assert!(self.contraction_epsilon >= 1, "epsilon must be >= 1");
        assert!(self.min_nodes >= 1, "must keep at least one node");
        if let Some(w) = &self.window {
            w.validate();
        }
        if let Some(f) = self.proactive_split_fill {
            assert!(
                f > 0.0 && f < 1.0,
                "proactive split fill must be a fraction in (0, 1)"
            );
        }
        if let Some(a) = &self.adaptive_window {
            assert!(
                self.window.is_some(),
                "adaptive window sizing requires an eviction window"
            );
            a.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        CacheConfig::paper_default().validate();
        CacheConfig::small_test().validate();
    }

    #[test]
    fn baseline_threshold_is_alpha_to_m_minus_1() {
        let w = WindowConfig::paper(100);
        let expect = 0.99f64.powi(99);
        assert!((w.effective_threshold() - expect).abs() < 1e-12);
        // Paper: for m = 100, α = 0.99 this is ≈ 0.3697.
        assert!((w.effective_threshold() - 0.3697).abs() < 0.001);
    }

    #[test]
    fn explicit_threshold_wins() {
        let w = WindowConfig {
            slices: 10,
            alpha: 0.9,
            threshold: Some(0.5),
        };
        assert_eq!(w.effective_threshold(), 0.5);
    }

    #[test]
    #[should_panic(expected = "decay must be in (0, 1)")]
    fn alpha_one_rejected() {
        WindowConfig {
            slices: 10,
            alpha: 1.0,
            threshold: None,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "merge threshold")]
    fn bad_merge_threshold_rejected() {
        let mut c = CacheConfig::small_test();
        c.merge_fill_threshold = 0.0;
        c.validate();
    }
}
