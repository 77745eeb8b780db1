//! Cost accounting in EC2's 2010 billing model.

use crate::cloud::Instance;
use crate::US_PER_SEC;

/// A billing snapshot over a set of instances at a point in virtual time.
///
/// Two views are provided, because the paper argues about both:
///
/// * **dollars** — EC2 billed every *started* hour in 2010
///   (`ceil(runtime_hours) × rate`, minimum one hour), which is what "GBA is
///   cheaper than static allocation" is measured in, and
/// * **node-seconds** — the integral `∫ active_nodes dt`, whose average the
///   paper reports as e.g. "⌈12.6⌉ = 13 nodes … averaged over the lifespan
///   of this experiment".
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use]
pub struct Billing {
    /// Total cost in micro-dollars (per-started-hour rounding).
    pub microdollars: u64,
    /// `∫ active_nodes dt` in node-microseconds.
    pub node_us: u64,
    /// Instances launched.
    pub launched: usize,
    /// Instances still running at the snapshot time.
    pub active: usize,
}

impl Billing {
    /// Compute a snapshot at `now_us`. Instances not yet terminated are
    /// billed through `now_us`.
    pub fn compute(instances: &[Instance], now_us: u64) -> Self {
        let mut microdollars = 0u64;
        let mut node_us = 0u64;
        let mut active = 0usize;
        for inst in instances {
            let end = inst
                .terminated_at_us
                .unwrap_or(now_us)
                .max(inst.launched_at_us);
            let run_us = end - inst.launched_at_us;
            node_us += run_us;
            let hours = run_us.div_ceil(3600 * US_PER_SEC).max(1);
            microdollars += hours * inst.itype.microdollars_per_hour;
            if inst.terminated_at_us.is_none() {
                active += 1;
            }
        }
        Self {
            microdollars,
            node_us,
            launched: instances.len(),
            active,
        }
    }

    /// Cost in dollars.
    pub fn dollars(&self) -> f64 {
        self.microdollars as f64 / 1e6
    }

    /// Average number of simultaneously active nodes over `[0, now_us]`.
    pub fn avg_nodes(&self, now_us: u64) -> f64 {
        if now_us == 0 {
            0.0
        } else {
            self.node_us as f64 / now_us as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::{InstanceId, InstanceType};

    fn inst(id: u32, launched_s: u64, terminated_s: Option<u64>) -> Instance {
        Instance {
            id: InstanceId(id),
            itype: InstanceType::ec2_small(),
            launched_at_us: launched_s * US_PER_SEC,
            ready_at_us: launched_s * US_PER_SEC,
            terminated_at_us: terminated_s.map(|s| s * US_PER_SEC),
        }
    }

    #[test]
    fn started_hours_round_up() {
        // 1 second of runtime bills one full hour.
        let b = Billing::compute(&[inst(0, 0, Some(1))], 10 * US_PER_SEC);
        assert_eq!(b.microdollars, 85_000);
        // 3601 seconds bills two hours.
        let b = Billing::compute(&[inst(0, 0, Some(3601))], 4000 * US_PER_SEC);
        assert_eq!(b.microdollars, 2 * 85_000);
        // Exactly one hour bills one hour.
        let b = Billing::compute(&[inst(0, 0, Some(3600))], 4000 * US_PER_SEC);
        assert_eq!(b.microdollars, 85_000);
    }

    #[test]
    fn running_instances_bill_through_now() {
        let b = Billing::compute(&[inst(0, 0, None)], 7200 * US_PER_SEC);
        assert_eq!(b.microdollars, 2 * 85_000);
        assert_eq!(b.active, 1);
    }

    #[test]
    fn zero_runtime_still_bills_minimum_hour() {
        let b = Billing::compute(&[inst(0, 5, Some(5))], 5 * US_PER_SEC);
        assert_eq!(b.microdollars, 85_000);
    }

    #[test]
    fn node_seconds_integrate_overlapping_instances() {
        // Two instances: [0, 100] and [50, 150] -> 200 node-seconds.
        let insts = [inst(0, 0, Some(100)), inst(1, 50, Some(150))];
        let b = Billing::compute(&insts, 200 * US_PER_SEC);
        assert_eq!(b.node_us, 200 * US_PER_SEC);
        assert!((b.avg_nodes(200 * US_PER_SEC) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn avg_nodes_matches_hand_computation() {
        // One node for the whole window, a second for half of it.
        let insts = [inst(0, 0, None), inst(1, 0, Some(50))];
        let b = Billing::compute(&insts, 100 * US_PER_SEC);
        assert!((b.avg_nodes(100 * US_PER_SEC) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn dollars_converts_microdollars() {
        let b = Billing::compute(&[inst(0, 0, Some(1))], US_PER_SEC);
        assert!((b.dollars() - 0.085).abs() < 1e-12);
    }

    #[test]
    fn empty_fleet_costs_nothing() {
        let b = Billing::compute(&[], 1000);
        assert_eq!(b.microdollars, 0);
        assert_eq!(b.node_us, 0);
        assert_eq!(b.avg_nodes(0), 0.0);
    }
}
