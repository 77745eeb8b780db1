//! The *Shoreline Extraction* service substrate.
//!
//! The paper's representative workload is a real geoscience service: given a
//! location and time of interest it (1) fetches the Coastal Terrain Model
//! (CTM) tile for the area, (2) looks up the water level at that time, and
//! (3) interpolates the coastline — taking ≈ 23 s end-to-end and producing a
//! derived result under 1 KB.
//!
//! We cannot ship Ohio State's CTM archive, so this crate synthesizes the
//! same pipeline (see DESIGN.md §2 for the substitution argument):
//!
//! * [`ctm`] — seeded procedural terrain tiles (multi-octave value noise
//!   shaped into a coastal depth gradient). A given `(seed, tile)` pair
//!   always yields the same terrain, so cached results stay consistent.
//! * [`tide`] — a harmonic water-level model (sum of tidal constituents),
//!   the standard form real gauges are fitted to.
//! * [`extract`] — genuine marching-squares contour extraction of the
//!   shoreline at the queried water level, decimated to fit the paper's
//!   < 1 KB result bound.
//! * [`service`] — the composed [`service::ShorelineService`], which returns
//!   both the derived shoreline and the *modelled* execution time (≈ 23 s
//!   with deterministic per-tile variation) that the caller charges to the
//!   virtual clock.
//!
//! # Example
//!
//! ```
//! use ecc_shoreline::service::ShorelineService;
//!
//! let svc = ShorelineService::paper_default(7);
//! let out = svc.execute(45.5, -122.7, 3600);
//! assert!(out.exec_us > 20_000_000, "the uncached service is ~23 s");
//! assert!(out.shoreline.to_bytes().len() < 1024, "derived result < 1 KB");
//! // Deterministic: the same query derives the same shoreline.
//! assert_eq!(out.shoreline, svc.execute(45.5, -122.7, 3600).shoreline);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub mod ctm;
pub mod extract;
pub mod service;
pub mod tide;
