//! A discrete-event IaaS cloud substrate standing in for Amazon EC2.
//!
//! The paper evaluates its cache on real EC2 *Small* instances. This crate
//! replaces that testbed with a deterministic simulator exposing exactly the
//! knobs the paper's results depend on:
//!
//! * a **virtual clock** ([`SimClock`]) in microseconds — every cache
//!   operation charges a modelled duration against it; the clock's owner
//!   hands the time to everything else here,
//! * **instance allocation** with EC2-boot-scale latency ([`SimCloud`]),
//!   the dominant term of the paper's node-split overhead (Figure 4),
//! * **billing** per started instance-hour, EC2's 2010 pricing model
//!   ([`Billing`]), plus the node-seconds integral used to report "average
//!   nodes allocated over the lifespan of the experiment",
//! * a **network model** ([`NetModel`]) giving the per-record transfer time
//!   `T_net` that the paper's complexity analysis is expressed in, and
//! * a **persistent store** ([`PersistentStore`]) priced per
//!   [`StorageTier`], the overflow tier evicted records are written to.
//!
//! What happens to the cache (allocations, migrations, merges) is not
//! recorded here: the elasticity engine emits it as `ecc_obs` events,
//! and the figure harnesses fold those.
//!
//! Everything stochastic (boot-latency jitter) is seeded, so a given seed
//! reproduces an experiment bit-for-bit.
//!
//! # Example
//!
//! ```
//! use ecc_cloudsim::{BootLatency, InstanceType, NetModel, SimClock, SimCloud};
//!
//! // The clock has one owner; the cloud is handed the time.
//! let mut clock = SimClock::new();
//! let mut cloud = SimCloud::new(42, BootLatency::ec2_like());
//! let receipt = cloud.allocate(clock.now_us(), InstanceType::ec2_small());
//! // The caller decides whether the boot blocks the critical path:
//! clock.advance_us(receipt.boot_us);
//!
//! let net = NetModel::lan();
//! clock.advance_us(net.transfer_us(1024)); // ship a 1 KiB record
//!
//! cloud.deallocate(clock.now_us(), receipt.id);
//! assert_eq!(cloud.active_count(), 0);
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::dbg_macro,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![warn(missing_docs)]

mod billing;
mod clock;
mod cloud;
mod netmodel;
mod storage;

pub use billing::Billing;
pub use clock::SimClock;
pub use cloud::{AllocationReceipt, BootLatency, Instance, InstanceId, InstanceType, SimCloud};
pub use netmodel::NetModel;
pub use storage::{PersistentStore, StorageTier};

/// Microseconds per second, the clock's base unit.
pub const US_PER_SEC: u64 = 1_000_000;
