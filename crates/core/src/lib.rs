//! The elastic cooperative cloud cache of Chiu, Shetty & Agrawal
//! (*Elastic Cloud Caches for Accelerating Service-Oriented Computations*,
//! SC 2010).
//!
//! The cache stores derived web-service results in the memory of a fleet of
//! cloud nodes and grows/shrinks the fleet with demand:
//!
//! * [`ElasticCache`] — the coordinator: consistent-hash placement,
//!   **GBA-Insert** (Algorithm 1: split the fullest bucket of an overflowed
//!   node at its median key and migrate the lower half greedily to the
//!   least-loaded existing node, allocating a new cloud node only as a last
//!   resort), **Sweep-and-Migrate** (Algorithm 2: a linked-leaf walk lists
//!   the span's keys, then each is removed with its own descent),
//!   sliding-window **eviction** (decay-scored, §III-B) and conservative
//!   node **contraction**.
//! * [`engine`] — the elastic operations (split, step close, merge),
//!   written once over a substrate: the simulated cache here, and the live
//!   TCP coordinator in `ecc-net`.
//! * [`gba`] — the paper's decisions (fullest bucket, split plan,
//!   destination, merge pair) as pure functions, which the engine calls.
//! * [`StaticCache`] — the paper's baseline: a fixed fleet (static-2/4/8)
//!   with per-node LRU replacement, as in cluster/grid deployments and
//!   memcached.
//! * [`Metrics`] — hit/miss/eviction counters plus the virtual-time
//!   accounting from which all of the paper's speedup figures derive.
//!
//! Both caches run against the [`ecc_cloudsim`] substrate: a virtual clock,
//! EC2-like allocation latency and billing, and a network model providing
//! the paper's `T_net`.
//!
//! # Example
//!
//! ```
//! use ecc_core::{CacheConfig, ElasticCache, Record};
//!
//! let mut cache = ElasticCache::new(CacheConfig::small_test());
//! let key = 42u64;
//!
//! // First access misses and runs the (expensive) service...
//! let uncached_us = 23_000_000;
//! let r1 = cache.query(key, uncached_us, || Record::from_vec(vec![7; 100]));
//! let r1 = r1.into_owned(); // a clone of what the cache stored
//! // ...the second is served from cache: the stored record, lent.
//! let r2 = cache.query(key, uncached_us, || unreachable!("must hit"));
//! assert_eq!(r1, *r2);
//! assert_eq!(cache.metrics().hits, 1);
//! assert_eq!(cache.metrics().misses, 1);
//! ```

#![deny(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::dbg_macro,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::let_underscore_must_use
)]
#![warn(missing_docs)]

mod adaptive;
mod config;
mod elastic;
pub mod engine;
mod error;
pub mod gba;
pub mod lockorder;
mod lru;
mod metrics;
mod node;
mod record;
mod shard;
pub mod slab;
mod static_cache;
mod window;

pub use adaptive::{AdaptiveWindowConfig, WindowController};
pub use config::{CacheConfig, WindowConfig};
pub use elastic::{ElasticCache, NodeId};
pub use error::{CacheAuditError, CacheError};
pub use lockorder::{LockClass, LockOrderViolation, LockToken};
pub use lru::Lru;
pub use metrics::Metrics;
pub use node::CacheNode;
pub use record::Record;
pub use shard::{PutOutcome, ShardAuditError, ShardedNode, DEFAULT_STRIPES, GET_BATCH};
pub use slab::{ClassStats, SizeClasses, SlabArena, SlabRef, SLOT_HEADER};
pub use static_cache::StaticCache;
pub use window::SlidingWindow;
