//! Instance lifecycle management with modelled allocation latency.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::billing::Billing;
use crate::US_PER_SEC;

/// Opaque identifier of a (possibly terminated) instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "i-{:05}", self.0)
    }
}

/// A machine-type definition: memory capacity and hourly price.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceType {
    /// Human-readable type name (e.g. `m1.small`).
    pub name: String,
    /// Usable main memory in bytes — the cache-capacity bound `⌈n⌉`.
    pub mem_bytes: u64,
    /// Price in micro-dollars per (started) hour.
    pub microdollars_per_hour: u64,
}

impl InstanceType {
    /// The paper's testbed machine: EC2 Small — 1.7 GB memory, one virtual
    /// core, $0.085/hour (2010 us-east pricing).
    pub fn ec2_small() -> Self {
        Self {
            name: "m1.small".into(),
            mem_bytes: 1_700 * 1024 * 1024,
            microdollars_per_hour: 85_000,
        }
    }

    /// EC2 Large: 7.5 GB, $0.34/hour — used in the paper's storage-cost
    /// discussion (§IV-D).
    pub fn ec2_large() -> Self {
        Self {
            name: "m1.large".into(),
            mem_bytes: 7_680 * 1024 * 1024,
            microdollars_per_hour: 340_000,
        }
    }

    /// A custom type; handy for experiments that reason in records rather
    /// than bytes.
    pub fn custom(name: &str, mem_bytes: u64, microdollars_per_hour: u64) -> Self {
        Self {
            name: name.into(),
            mem_bytes,
            microdollars_per_hour,
        }
    }
}

/// Boot latency model: uniform over `[base_us, base_us + jitter_us]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootLatency {
    /// Minimum boot time in microseconds.
    pub base_us: u64,
    /// Width of the uniform jitter window in microseconds.
    pub jitter_us: u64,
}

impl BootLatency {
    /// EC2-2010-like boot: 70–110 s (instance request, image fetch, boot,
    /// cache-server start — the overhead Figure 4 attributes node splits to).
    pub fn ec2_like() -> Self {
        Self {
            base_us: 70 * US_PER_SEC,
            jitter_us: 40 * US_PER_SEC,
        }
    }

    /// Constant latency (no jitter) — used by ablations.
    pub fn fixed(us: u64) -> Self {
        Self {
            base_us: us,
            jitter_us: 0,
        }
    }

    /// Instantaneous boot — the "asynchronous preloading / instant VM"
    /// future-work scenario of §VI.
    pub fn instant() -> Self {
        Self::fixed(0)
    }

    fn sample(&self, rng: &mut SmallRng) -> u64 {
        if self.jitter_us == 0 {
            self.base_us
        } else {
            self.base_us + rng.gen_range(0..=self.jitter_us)
        }
    }
}

/// One allocated (or by-now terminated) machine.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Identifier, dense from zero.
    pub id: InstanceId,
    /// The machine type it was launched as.
    pub itype: InstanceType,
    /// Virtual time the allocation was requested (billing starts here).
    pub launched_at_us: u64,
    /// Virtual time the machine became usable (`launched_at + boot`).
    pub ready_at_us: u64,
    /// Virtual time of termination, if terminated.
    pub terminated_at_us: Option<u64>,
}

impl Instance {
    /// Whether the instance is still running.
    pub fn is_active(&self) -> bool {
        self.terminated_at_us.is_none()
    }
}

/// What [`SimCloud::allocate`] hands back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct AllocationReceipt {
    /// The new instance's id.
    pub id: InstanceId,
    /// Sampled boot latency. The *caller* decides whether this blocks the
    /// critical path (`clock.advance_us(boot_us)`) — GBA blocks on it, an
    /// asynchronous-preloading variant would not.
    pub boot_us: u64,
    /// `launched_at + boot_us`.
    pub ready_at_us: u64,
}

/// The simulated provider: owns the instance table and the boot-latency
/// sampler. All randomness comes from the seed given at construction; the
/// time comes from the caller, with each call that stamps or bills.
#[derive(Debug)]
pub struct SimCloud {
    rng: SmallRng,
    boot: BootLatency,
    instances: Vec<Instance>,
}

impl SimCloud {
    /// Create a provider with deterministic jitter from `seed` and the
    /// given boot-latency model.
    pub fn new(seed: u64, boot: BootLatency) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            boot,
            instances: Vec::new(),
        }
    }

    /// Request a new machine at `now_us`. Does **not** advance any clock —
    /// see [`AllocationReceipt::boot_us`].
    pub fn allocate(&mut self, now_us: u64, itype: InstanceType) -> AllocationReceipt {
        let boot_us = self.boot.sample(&mut self.rng);
        let id = InstanceId(self.instances.len() as u32);
        self.instances.push(Instance {
            id,
            itype,
            launched_at_us: now_us,
            ready_at_us: now_us + boot_us,
            terminated_at_us: None,
        });
        AllocationReceipt {
            id,
            boot_us,
            ready_at_us: now_us + boot_us,
        }
    }

    /// Terminate a machine at `now_us`. Idempotent: terminating twice keeps
    /// the first termination time.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated.
    pub fn deallocate(&mut self, now_us: u64, id: InstanceId) {
        let inst = &mut self.instances[id.0 as usize];
        if inst.terminated_at_us.is_none() {
            inst.terminated_at_us = Some(now_us);
        }
    }

    /// Look up an instance record.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated.
    pub fn instance(&self, id: InstanceId) -> &Instance {
        &self.instances[id.0 as usize]
    }

    /// Number of currently running instances.
    pub fn active_count(&self) -> usize {
        self.instances.iter().filter(|i| i.is_active()).count()
    }

    /// Total instances ever launched.
    pub fn total_launched(&self) -> usize {
        self.instances.len()
    }

    /// Billing snapshot as of virtual time `now_us`.
    pub fn billing(&self, now_us: u64) -> Billing {
        Billing::compute(&self.instances, now_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud() -> SimCloud {
        SimCloud::new(7, BootLatency::fixed(80 * US_PER_SEC))
    }

    #[test]
    fn allocation_assigns_dense_ids_and_boot_latency() {
        let mut cloud = cloud();
        let a = cloud.allocate(0, InstanceType::ec2_small());
        assert_eq!(a.id, InstanceId(0));
        assert_eq!(a.boot_us, 80 * US_PER_SEC);
        assert_eq!(a.ready_at_us, 80 * US_PER_SEC);
        let b = cloud.allocate(a.ready_at_us, InstanceType::ec2_small());
        assert_eq!(b.id, InstanceId(1));
        assert_eq!(cloud.active_count(), 2);
        assert_eq!(cloud.total_launched(), 2);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut c = SimCloud::new(seed, BootLatency::ec2_like());
            (0..10)
                .map(|_| c.allocate(0, InstanceType::ec2_small()).boot_us)
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(1), mk(1));
        assert_ne!(mk(1), mk(2));
        for b in mk(3) {
            assert!((70 * US_PER_SEC..=110 * US_PER_SEC).contains(&b));
        }
    }

    #[test]
    fn deallocate_is_idempotent_and_stops_activity() {
        let mut cloud = cloud();
        let a = cloud.allocate(0, InstanceType::ec2_small());
        cloud.deallocate(100 * US_PER_SEC, a.id);
        cloud.deallocate(150 * US_PER_SEC, a.id);
        assert_eq!(
            cloud.instance(a.id).terminated_at_us,
            Some(100 * US_PER_SEC)
        );
        assert_eq!(cloud.active_count(), 0);
    }

    #[test]
    fn instance_types_expose_paper_constants() {
        let small = InstanceType::ec2_small();
        assert_eq!(small.mem_bytes, 1_700 * 1024 * 1024);
        assert_eq!(small.microdollars_per_hour, 85_000);
        assert!(InstanceType::ec2_large().mem_bytes > small.mem_bytes);
    }

    #[test]
    fn instant_boot_for_ablations() {
        let mut cloud = SimCloud::new(0, BootLatency::instant());
        assert_eq!(cloud.allocate(0, InstanceType::ec2_small()).boot_us, 0);
    }
}
