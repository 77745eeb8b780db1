//! Consistent hashing with explicit buckets, as used by the elastic cloud
//! cache to avoid *hash disruption* (paper §II-A, Figure 1).
//!
//! The hash line is the fixed integer range `[0, r)`. An ordered sequence of
//! buckets `B = (b_1, …, b_p)` lives on the line; each bucket is mapped to a
//! cache node through the `NodeMap`. A key `k` is first reduced by the
//! auxiliary hash `h'(k) = k mod r`, then assigned to the **closest upper
//! bucket**, wrapping circularly:
//!
//! ```text
//! h(k) = b_1                                  if h'(k) > b_p
//!        min { b_i ∈ B : b_i ≥ h'(k) }        otherwise
//! ```
//!
//! Because `h'` is the identity modulo `r`, *contiguous key ranges map to
//! contiguous arcs of the line* — which is what lets GBA-Insert split a
//! bucket at the median key and migrate exactly the lower half (a contiguous
//! B+-tree range) to another node.
//!
//! Adding a bucket relocates only the keys in `(b_prev, b_new]`; removing a
//! bucket hands its arc to the successor. Both relocation sets are exposed
//! so the cache can ship precisely the right records.
//!
//! # Example
//!
//! ```
//! use ecc_chash::{HashRing, Arc};
//!
//! let mut ring: HashRing<&'static str> = HashRing::new(1000);
//! ring.insert_bucket(499, "n1").unwrap();
//! ring.insert_bucket(999, "n2").unwrap();
//!
//! assert_eq!(ring.node_for_key(0), Some(&"n1"));
//! assert_eq!(ring.node_for_key(499), Some(&"n1"));
//! assert_eq!(ring.node_for_key(500), Some(&"n2"));
//!
//! // Splitting n2's arc at 750: keys in (499, 750] move to the new bucket.
//! let moved = ring.relocation_on_insert(750).unwrap();
//! assert_eq!(moved, Arc::contiguous(500, 750));
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

mod ring;

pub use ring::{Arc, HashRing, RingAuditError, RingError};
