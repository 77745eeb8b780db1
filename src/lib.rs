//! Umbrella crate for the **elastic cloud cache** reproduction
//! (Chiu, Shetty & Agrawal, *Elastic Cloud Caches for Accelerating
//! Service-Oriented Computations*, SC 2010).
//!
//! Re-exports every workspace crate under one roof so examples,
//! integration tests, and downstream users can depend on a single package:
//!
//! * [`ecc_core`] — the elastic cooperative cache (GBA-Insert,
//!   Sweep-and-Migrate, sliding-window eviction, contraction) and the
//!   static-N LRU baseline.
//! * [`ecc_chash`] — the consistent-hash line with explicit buckets.
//! * [`ecc_bptree`] — the linked-leaf B+-tree node index.
//! * [`ecc_spatial`] — Morton linearization of spatiotemporal
//!   query keys (the B²-Tree front end).
//! * [`ecc_cloudsim`] — the EC2-like substrate: virtual clock,
//!   allocation latency, billing, network model, overflow storage.
//! * [`ecc_shoreline`] — the shoreline-extraction service
//!   workload (procedural CTMs, tides, marching squares).
//! * [`ecc_workload`] — the paper's query-submission loop.
//! * [`ecc_net`] — a live TCP deployment of the same protocol.
//!
//! See `README.md` for a tour and `DESIGN.md` for the paper-to-code map.

#![warn(missing_docs)]

pub use ecc_bptree as bptree;
pub use ecc_chash as chash;
pub use ecc_cloudsim as cloudsim;
pub use ecc_core as core;
pub use ecc_net as net;
pub use ecc_shoreline as shoreline;
pub use ecc_spatial as spatial;
pub use ecc_workload as workload;

/// Most-used types in one import.
pub mod prelude {
    pub use ecc_bptree::{BPlusTree, ByteSize};
    pub use ecc_chash::{Arc as RingArc, HashRing};
    pub use ecc_cloudsim::{BootLatency, InstanceType, NetModel, SimClock, SimCloud};
    pub use ecc_core::{
        CacheConfig, CacheError, ElasticCache, Metrics, Record, StaticCache, WindowConfig,
    };
    pub use ecc_shoreline::service::ShorelineService;
    pub use ecc_spatial::{Curve, GeoGrid, Linearizer, Scheme, TimeGrid};
    pub use ecc_workload::driver::QueryStream;
    pub use ecc_workload::keys::KeyDist;
    pub use ecc_workload::schedule::RateSchedule;
}
