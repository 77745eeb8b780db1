//! An in-memory B+-tree with linked leaves, as installed on every cache
//! server of the elastic cloud cache (paper §II-A).
//!
//! Why a hand-rolled tree instead of `std::collections::BTreeMap`?
//! The paper's *Sweep-and-Migrate* procedure (Algorithm 2) depends on two
//! properties `BTreeMap` does not expose:
//!
//! 1. **Linked leaves** — leaf nodes form a key-sorted doubly linked list, so
//!    a migration sweep can locate the start leaf with one `O(log n)` search
//!    and then walk sibling pointers linearly, exactly as the paper analyses
//!    (`log_2 ||n|| + |n|/2` record visits).
//! 2. **Byte-size accounting** — every insertion/removal updates a running
//!    total of stored value bytes (`||n||` in the paper's notation), which the
//!    overflow test of GBA-Insert (Algorithm 1, line 5) consults in O(1).
//!
//! The tree is a slab-allocated (index-based) structure: nodes live in one
//! `Vec`, freed slots are recycled through a free list, and sibling/child
//! links are `u32` indices. Keys, values, and child indices are stored
//! *inline* in each node ([`InlineVec`], capacity fixed by the `CAP`
//! const parameter), so the slab is one contiguous arena: splits, merges,
//! and rebalances move bytes within it and never call the global
//! allocator, and leaf sweeps walk dense memory. [`BPlusTree::upsert`]
//! inserts or replaces in one descent and lets the caller decide at the
//! leaf, having seen the old value, whether to store anything at all. A
//! leaf that overflows by an append at its right end first fills its left
//! sibling, so records loaded in key order leave full leaves behind them.
//! The only `unsafe` in the crate is the `MaybeUninit` storage inside
//! [`InlineVec`], behind a safe wrapper (safety argument in `inline.rs`
//! and DESIGN.md §17).
//!
//! # Example
//!
//! ```
//! use ecc_bptree::BPlusTree;
//!
//! let mut t: BPlusTree<u64, Vec<u8>> = BPlusTree::new(32);
//! for k in 0..1000u64 {
//!     t.insert(k, vec![0u8; 16]);
//! }
//! assert_eq!(t.len(), 1000);
//! // Footprint accounting: each record is a 24-byte Vec header plus its
//! // 16-byte buffer (see `ByteSize`), not a bare len sum.
//! assert_eq!(t.bytes(), 1000 * (std::mem::size_of::<Vec<u8>>() as u64 + 16));
//!
//! // Linked-leaf range sweep: the lower half, in order.
//! let swept: Vec<u64> = t.range(..500).map(|(k, _)| *k).collect();
//! assert_eq!(swept, (0..500).collect::<Vec<_>>());
//! ```

#![deny(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

mod bytesize;
mod inline;
mod tree;

pub use bytesize::ByteSize;
pub use inline::InlineVec;
pub use tree::{BPlusTree, RangeIter, Upsert, DEFAULT_NODE_CAP};
