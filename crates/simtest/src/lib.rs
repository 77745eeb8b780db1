//! Deterministic cluster-simulation harness with fault injection and
//! differential oracles.
//!
//! Drives the elastic cache, the static baseline, the wire protocol, and
//! the live coordinator (on local links, and over sockets) through seeded
//! randomized schedules — plus a `workload` family that replays slices of
//! the zoo scenarios (`ecc_workload::scenario`: shifting hot sets, flash
//! crowds, tenant mixes) through the elastic harness — and checks every
//! step against two oracles:
//!
//! 1. an independent flat model (a `BTreeMap`/reference-LRU/wire-semantics
//!    reimplementation, per family) that predicts contents, responses and
//!    metric counters exactly, and
//! 2. the PR-1 `check_invariants` auditors, promoted to hard failures
//!    after every event.
//!
//! A failing schedule is shrunk to a minimal event list and printed as a
//! replayable `SIMSEED/1/<family>/<config>/<events>` string. Run the
//! battery with `cargo xtask simtest --seeds N`; replay one case with
//! `cargo xtask simtest --replay '<SIMSEED>'`. See DESIGN.md §9.

#![forbid(unsafe_code)]
#![deny(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::let_underscore_must_use
)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod elastic_sim;
pub mod event;
pub mod gen;
pub mod interleave;
pub mod live_sim;
pub mod model;
pub mod proto_sim;
pub mod runner;
pub mod shrink;
pub mod static_sim;

pub use event::{Family, Fault, Schedule, SimConfig, SimEvent, WireOp, SIMSEED_VERSION};
pub use gen::generate;
pub use interleave::{
    explore_admission, explore_node_ops, is_seeded_bug, run_interleave, AdmissionImpl,
    AdmissionModel, ExploreConfig, ExploreReport, ModelOp, ScheduleFailure,
};
pub use runner::{check_seed, run_schedule, QuietPanics, SeedOutcome, SimFailure};
pub use shrink::{shrink, shrink_items};
