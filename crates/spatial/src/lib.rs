//! Spatiotemporal key linearization for the elastic cloud cache.
//!
//! The paper indexes cached service results with *B²-Trees* (reference \[26\] in the
//! paper): ordinary B+-Trees whose one-dimensional keys are produced by
//! linearizing the query's location and time through a **space-filling
//! curve**. This crate provides that front end:
//!
//! * [`morton`] — the Z-order (Morton) curve in 2 dimensions,
//! * [`quantize`] — mapping of geographic coordinates and timestamps onto
//!   fixed-width integer grids,
//! * [`linear`] — the composed [`linear::Linearizer`] that turns a
//!   `(lat, lon, time)` query into a single `u64` cache key, exactly the
//!   64 K / 32 K "linearized coordinates and date" key spaces used in the
//!   paper's evaluation.
//!
//! # Example
//!
//! ```
//! use ecc_spatial::linear::{Linearizer, Curve, Scheme};
//! use ecc_spatial::quantize::{GeoGrid, TimeGrid};
//!
//! // 8 bits per spatial axis and no time component: a 64 Ki key space,
//! // matching the paper's Figure 3 workload.
//! let lin = Linearizer::new(
//!     GeoGrid::global(8),
//!     TimeGrid::disabled(),
//!     Curve::Morton,
//!     Scheme::TimeMajor,
//! );
//! let key = lin.key(45.52, -122.67, 0);
//! assert!(key < 1 << 16);
//! let (lat, lon, _t) = lin.cell_center(key);
//! assert!((lat - 45.52).abs() < 180.0 / 256.0);
//! assert!((lon + 122.67).abs() < 360.0 / 256.0);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub mod linear;
pub mod morton;
pub mod quantize;

pub use linear::{Curve, Linearizer, Scheme};
pub use quantize::{GeoGrid, TimeGrid};
