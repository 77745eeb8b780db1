//! Observability substrate for the elastic cache: flight-recorder event
//! tracing, log-bucketed latency histograms, and a per-node registry with
//! a versioned wire dump and Prometheus-style text exposition.
//!
//! The paper's evaluation is a story about *when* the cache splits,
//! migrates, merges and evicts; this crate makes those moments first-class,
//! timestamped data instead of flat counters:
//!
//! * [`ObsEvent`] / [`FlightRecorder`] — a fixed-capacity ring buffer of
//!   typed structural events (`BucketSplit`, `SweepMigrate`, `NodeMerge`,
//!   `NodeAlloc`/`NodeDealloc`, `SliceExpire`, `EvictBatch`,
//!   `InsertError`, span starts and ends), dumpable as JSONL for
//!   post-mortem analysis and CI artifact upload. An unsampled request
//!   emits nothing, so the ring holds the cluster's structural history
//!   however much traffic a node serves.
//! * [`LogHistogram`] — mergeable power-of-two-bucketed latency histograms
//!   with p50/p90/p99/p99.9 readouts.
//! * [`ObsRegistry`] — a cheaply cloneable handle bundling one recorder and
//!   a set of named histograms; [`wire`] serializes its [`ObsSnapshot`] for
//!   the `ObsDump` protocol op, and [`ObsSnapshot::render_prometheus`]
//!   renders the merged cluster view as exposition text.
//!
//! A registry's own timestamps (span starts and ends) come from its
//! [`TimeSource`], a process-relative monotonic reading. `TimeSource::real`
//! reads the wall clock under an explicit exemption from
//! `crates/clippy.toml`'s `disallowed-methods`; instrumented crates never
//! read it themselves — they go through a [`TimeSource`] handed to them.
//! The simulated cache asks its registry for no time: it stamps every
//! event it emits from its own virtual clock.

#![forbid(unsafe_code)]
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

pub mod event;
pub mod hist;
pub mod recorder;
pub mod registry;
pub mod trace;
pub mod wire;

pub use event::ObsEvent;
pub use hist::LogHistogram;
pub use recorder::FlightRecorder;
pub use registry::{ObsRegistry, ObsSnapshot, TimeSource};
pub use trace::{
    build_spans, current_span, verify_spans, Span, SpanGuard, SpanStats, TraceContext,
};
pub use wire::{decode_dump, encode_dump, OBS_DUMP_VERSION};
