//! Workload generation: the paper's query-submission loop.
//!
//! The evaluation drives the cache with a scripted loop (paper §IV-A):
//!
//! ```text
//! for time step i ← 1 to … do
//!     R ← current query rate(i)
//!     for j ← 1 to R do
//!         invoke shoreline service(rand_coordinates(i))
//!     end for
//! end for
//! ```
//!
//! This crate provides the three pieces of that loop:
//!
//! * [`schedule`] — `R` as a function of the time step, including the exact
//!   phase schedule of the eviction experiments (50 → 250 → 50 q/step),
//! * [`keys`] — the randomized key draws (`rand_coordinates`): uniform over
//!   a 64 K/32 K space as in the paper, plus Zipfian and hotspot
//!   distributions for sensitivity studies, and
//! * [`driver`] — an iterator yielding `(time_step, key)` pairs — or full
//!   `(time_step, op, key)` triples once a write ratio is set — that a
//!   harness feeds to any cache implementation, and
//! * [`scenario`] — the scenario zoo: named bundles of the above
//!   (shifting hot sets, diurnal waves, flash crowds, multi-tenant mixes)
//!   shared by the simulated elastic cache (`ecc-bench`'s `scenario_zoo`)
//!   and simtest.
//!
//! # Example
//!
//! ```
//! use ecc_workload::driver::QueryStream;
//! use ecc_workload::keys::KeyDist;
//! use ecc_workload::schedule::RateSchedule;
//!
//! // Paper Figure 5 workload: 32 K keys, 50/250/50 q/step phases.
//! let stream = QueryStream::new(
//!     RateSchedule::paper_eviction_phases(),
//!     KeyDist::uniform(32 * 1024),
//!     7, // seed
//! );
//! let queries: Vec<(u64, u64)> = stream.take_steps(100).collect();
//! assert_eq!(queries.len(), 100 * 50); // first phase: R = 50
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub mod driver;
pub mod keys;
pub mod scenario;
pub mod schedule;
