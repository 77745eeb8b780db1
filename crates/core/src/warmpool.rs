//! Asynchronous node preloading — the paper's §VI remedy for allocation
//! overhead, implemented.
//!
//! "Strategies, such as preloading [...] can certainly be used to
//! implement an asynchronous node allocation."
//!
//! A warm pool keeps up to `target` standby instances booting (or booted)
//! in the background. When GBA needs a node as a last resort, a *ready*
//! standby is handed over instantly — no boot on the critical path — and
//! the pool replenishes itself asynchronously. Standbys bill from launch,
//! so the cost of the insurance is visible in the provider's invoice.

use ecc_cloudsim::{InstanceId, InstanceType, SimCloud};

/// A pool of pre-booted standby instances.
#[derive(Debug)]
pub struct WarmPool {
    target: usize,
    /// `(instance, ready_at_us)` — booted once the clock passes `ready_at`.
    standby: Vec<(InstanceId, u64)>,
}

impl WarmPool {
    /// A pool that tries to keep `target` standbys available.
    pub fn new(target: usize) -> Self {
        Self {
            target,
            standby: Vec::with_capacity(target),
        }
    }

    /// Standbys currently held (ready or still booting).
    pub fn len(&self) -> usize {
        self.standby.len()
    }

    /// Whether the pool holds no standbys.
    pub fn is_empty(&self) -> bool {
        self.standby.is_empty()
    }

    /// Hand over a booted standby, if one exists. Prefers the one that has
    /// been ready longest (oldest `ready_at`).
    pub fn take_ready(&mut self, now_us: u64) -> Option<InstanceId> {
        let idx = self
            .standby
            .iter()
            .enumerate()
            .filter(|(_, (_, ready))| *ready <= now_us)
            .min_by_key(|(_, (_, ready))| *ready)
            .map(|(i, _)| i)?;
        Some(self.standby.swap_remove(idx).0)
    }

    /// Launch standbys at `now_us` until the pool is back at its target.
    /// Boots proceed in (virtual) background time — this never advances
    /// the clock.
    pub fn replenish(&mut self, now_us: u64, cloud: &mut SimCloud, itype: &InstanceType) {
        while self.standby.len() < self.target {
            let receipt = cloud.allocate(now_us, itype.clone());
            self.standby.push((receipt.id, receipt.ready_at_us));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecc_cloudsim::BootLatency;

    /// Boot time of every standby.
    const BOOT_US: u64 = 5_000_000;

    fn setup(target: usize) -> (SimCloud, WarmPool) {
        let cloud = SimCloud::new(1, BootLatency::fixed(BOOT_US));
        (cloud, WarmPool::new(target))
    }

    #[test]
    fn replenish_fills_to_target_without_blocking() {
        let (mut cloud, mut pool) = setup(3);
        pool.replenish(0, &mut cloud, &InstanceType::ec2_small());
        assert_eq!(pool.len(), 3);
        // Nothing is ready until boots complete.
        assert!(pool.take_ready(BOOT_US - 1).is_none());
        for _ in 0..3 {
            assert!(pool.take_ready(BOOT_US).is_some());
        }
        assert!(pool.is_empty());
    }

    #[test]
    fn take_ready_hands_over_booted_standbys_oldest_first() {
        let (mut cloud, mut pool) = setup(1);
        pool.replenish(0, &mut cloud, &InstanceType::ec2_small());
        let first = pool.take_ready(BOOT_US).expect("ready");
        assert!(pool.is_empty());
        // Replenish launches a new, later-ready standby.
        pool.replenish(BOOT_US, &mut cloud, &InstanceType::ec2_small());
        assert_ne!(pool.standby[0].0, first);
        assert!(pool.take_ready(BOOT_US).is_none(), "still booting");
    }

    #[test]
    fn standbys_bill_from_launch() {
        let (mut cloud, mut pool) = setup(2);
        pool.replenish(0, &mut cloud, &InstanceType::ec2_small());
        let bill = cloud.billing(3600 * 1_000_000);
        assert_eq!(bill.launched, 2);
        assert!(bill.microdollars >= 2 * 85_000, "standbys are not free");
    }

    #[test]
    fn zero_target_pool_is_inert() {
        let (mut cloud, mut pool) = setup(0);
        pool.replenish(0, &mut cloud, &InstanceType::ec2_small());
        assert!(pool.is_empty());
        assert_eq!(cloud.total_launched(), 0);
    }
}
