//! Dynamic window sizing — the paper's §IV-C/§VI future work, implemented.
//!
//! "There may be merit in managing this value [the sliding-window size m]
//! dynamically to reduce unnecessary (or less cost-effective) node
//! allocation."
//!
//! The controller watches the per-slice query rate against an exponential
//! moving average. Heightened interest (rate well above trend) widens the
//! window, so the burst's keys stay cached and the cache behaves like the
//! paper's large-m configurations; waning interest narrows it, expiring
//! slices early so contraction can release nodes sooner — the
//! cost-saving behaviour of small m, applied exactly when it is cheap.

use serde::{Deserialize, Serialize};

/// Controller parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveWindowConfig {
    /// Smallest window the controller may shrink to.
    pub min_slices: usize,
    /// Largest window the controller may grow to.
    pub max_slices: usize,
    /// Widen when `rate / ema > grow_ratio`.
    pub grow_ratio: f64,
    /// Narrow when `rate / ema < shrink_ratio`.
    pub shrink_ratio: f64,
    /// Proportional resize step (fraction of the current m, at least 1).
    pub step_frac: f64,
    /// EMA smoothing factor in `(0, 1]` (1 = no smoothing).
    pub ema_weight: f64,
}

impl AdaptiveWindowConfig {
    /// A balanced default: m free to move in `[25, 400]`, reacting to
    /// 2× rate swings with 25 % steps.
    pub fn default_paper_range() -> Self {
        Self {
            min_slices: 25,
            max_slices: 400,
            grow_ratio: 2.0,
            shrink_ratio: 0.5,
            step_frac: 0.25,
            ema_weight: 0.2,
        }
    }

    /// Panics if parameters are outside their valid domains.
    pub fn validate(&self) {
        assert!(self.min_slices >= 1, "min window must be >= 1 slice");
        assert!(self.min_slices <= self.max_slices, "window bounds inverted");
        assert!(self.grow_ratio > 1.0, "grow ratio must exceed 1");
        assert!(
            self.shrink_ratio > 0.0 && self.shrink_ratio < 1.0,
            "shrink ratio must be in (0, 1)"
        );
        assert!(self.step_frac > 0.0, "step must be positive");
        assert!(
            self.ema_weight > 0.0 && self.ema_weight <= 1.0,
            "EMA weight must be in (0, 1]"
        );
    }
}

/// The rate-tracking controller. Feed it the query count of each completed
/// slice; it answers with the window size to use next.
#[derive(Debug, Clone)]
pub struct WindowController {
    cfg: AdaptiveWindowConfig,
    ema: Option<f64>,
}

impl WindowController {
    /// A controller with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: AdaptiveWindowConfig) -> Self {
        cfg.validate();
        Self { cfg, ema: None }
    }

    /// Observe a completed slice's query count and return the window size
    /// to use from now on (clamped to the configured bounds).
    pub fn observe(&mut self, slice_queries: u64, current_m: usize) -> usize {
        let rate = slice_queries as f64;
        let trend = match self.ema {
            None => {
                self.ema = Some(rate);
                return current_m.clamp(self.cfg.min_slices, self.cfg.max_slices);
            }
            Some(e) => e,
        };
        // Update the trend after comparing against it.
        self.ema = Some(trend + self.cfg.ema_weight * (rate - trend));

        let step = ((current_m as f64 * self.cfg.step_frac) as usize).max(1);
        let ratio = if trend > 0.0 {
            rate / trend
        } else {
            f64::INFINITY
        };
        let next = if ratio >= self.cfg.grow_ratio {
            current_m.saturating_add(step)
        } else if ratio <= self.cfg.shrink_ratio {
            current_m.saturating_sub(step)
        } else {
            current_m
        };
        next.clamp(self.cfg.min_slices, self.cfg.max_slices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> WindowController {
        WindowController::new(AdaptiveWindowConfig {
            min_slices: 10,
            max_slices: 100,
            grow_ratio: 2.0,
            shrink_ratio: 0.5,
            step_frac: 0.5,
            ema_weight: 0.5,
        })
    }

    #[test]
    fn steady_rate_keeps_m() {
        let mut c = controller();
        let mut m = 20;
        for _ in 0..50 {
            m = c.observe(100, m);
        }
        assert_eq!(m, 20);
        assert!((c.ema.unwrap() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn rate_surge_grows_the_window() {
        let mut c = controller();
        let mut m = 20;
        for _ in 0..10 {
            m = c.observe(50, m);
        }
        m = c.observe(500, m); // 10x surge
        assert!(m > 20, "no growth on surge");
    }

    #[test]
    fn rate_collapse_shrinks_the_window() {
        let mut c = controller();
        let mut m = 40;
        for _ in 0..10 {
            m = c.observe(250, m);
        }
        m = c.observe(10, m);
        assert!(m < 40, "no shrink on collapse");
    }

    #[test]
    fn bounds_are_respected() {
        let mut c = controller();
        let mut m = 90;
        // Sustained surges cannot exceed max.
        for i in 0..20u64 {
            m = c.observe(1000 * (i + 1), m);
            assert!(m <= 100);
        }
        // Sustained collapses cannot undershoot min.
        let mut c = controller();
        let mut m = 15;
        c.observe(10_000, m);
        for _ in 0..20 {
            m = c.observe(0, m);
            assert!(m >= 10);
        }
        assert_eq!(m, 10);
    }

    #[test]
    fn first_observation_only_seeds_the_trend() {
        let mut c = controller();
        assert_eq!(c.observe(1_000_000, 20), 20);
        assert_eq!(c.ema, Some(1_000_000.0));
    }

    #[test]
    #[should_panic(expected = "bounds inverted")]
    fn inverted_bounds_rejected() {
        WindowController::new(AdaptiveWindowConfig {
            min_slices: 50,
            max_slices: 10,
            ..AdaptiveWindowConfig::default_paper_range()
        });
    }
}
