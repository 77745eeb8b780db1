//! Cache error types.

use std::fmt;

use crate::elastic::NodeId;

/// Errors surfaced by cache operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// A record larger than a whole node's capacity can never be cached.
    RecordTooLarge {
        /// The record's size.
        size: u64,
        /// The per-node capacity.
        capacity: u64,
    },
    /// A key at or above the hash-line range `r` would break the
    /// contiguous-arc ⇔ contiguous-key-range correspondence that
    /// Sweep-and-Migrate depends on.
    KeyOutOfRange {
        /// The offending key.
        key: u64,
        /// The hash-line range.
        r: u64,
    },
    /// A bucket could not be split further (single distinct key) and the
    /// node still overflows.
    CannotSplit {
        /// The bucket that resisted splitting.
        bucket: u64,
    },
    /// GBA-Insert looped more than the sanity bound without converging —
    /// indicates a mis-configured capacity far below the record size.
    SplitLoopExceeded,
    /// The coordinator's cross-structure bookkeeping was found inconsistent
    /// mid-operation (e.g. the ring resolved a key to an inactive node).
    /// Always a bug in this crate, never a caller error — surfaced as a
    /// typed value so a long-running cache degrades instead of aborting.
    Internal {
        /// The invariant the coordinator expected to hold.
        what: &'static str,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RecordTooLarge { size, capacity } => {
                write!(f, "record of {size} B exceeds node capacity {capacity} B")
            }
            Self::KeyOutOfRange { key, r } => {
                write!(f, "key {key} outside hash line [0, {r})")
            }
            Self::CannotSplit { bucket } => {
                write!(f, "bucket {bucket} cannot be split further")
            }
            Self::SplitLoopExceeded => write!(f, "GBA-insert split loop exceeded sanity bound"),
            Self::Internal { what } => {
                write!(f, "internal cache invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// For callers that speak [`std::io`] (the live coordinator): a record the
/// cache can never hold is the caller's [`std::io::ErrorKind::InvalidInput`].
impl From<CacheError> for std::io::Error {
    fn from(e: CacheError) -> Self {
        use std::io::ErrorKind::{InvalidInput, Other};
        use CacheError::{KeyOutOfRange, RecordTooLarge};
        let caller = matches!(e, RecordTooLarge { .. } | KeyOutOfRange { .. });
        Self::new(if caller { InvalidInput } else { Other }, e)
    }
}

/// A violated cross-structure invariant, found by
/// [`crate::ElasticCache::check_invariants`] (and, ring-level only, by
/// [`crate::engine::Engine::audit`] for the live coordinator too). Mirrors
/// the style of [`ecc_chash::RingAuditError`]: each variant carries enough
/// context to localise the corruption without a debugger.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheAuditError<N = NodeId> {
    /// The consistent-hash ring's own structural audit failed.
    Ring(ecc_chash::RingAuditError),
    /// A resident key hashes to a different node than the one storing it —
    /// the "every cached key is owned by exactly one node" invariant.
    MisplacedKey {
        /// The key found in the wrong place.
        key: u64,
        /// The node physically holding the record.
        resident_on: N,
        /// The node the ring resolves the key to (`None`: empty ring).
        owner: Option<N>,
    },
    /// A ring bucket references a node that is no longer active.
    DeadNodeReferenced {
        /// The inactive node.
        node: N,
    },
    /// An active node owns no bucket, making it unreachable by any key.
    NodeWithoutBucket {
        /// The orphaned node.
        node: N,
    },
    /// A node's cached byte accounting disagrees with the sum of its
    /// resident record sizes.
    ByteAccountingMismatch {
        /// The node with the stale counter.
        node: N,
        /// Bytes counted by walking every record.
        counted: u64,
        /// Bytes the node's accounting reports.
        recorded: u64,
    },
    /// A node holds more primary bytes than its configured capacity.
    NodeOverCapacity {
        /// The overfull node.
        node: N,
        /// Resident primary bytes.
        used: u64,
        /// The node's capacity.
        capacity: u64,
    },
    /// The sliding window's internal structure is corrupt.
    Window {
        /// What the window self-check found.
        what: &'static str,
    },
}

impl<N: fmt::Debug + fmt::Display> fmt::Display for CacheAuditError<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Ring(e) => write!(f, "ring audit failed: {e}"),
            Self::MisplacedKey {
                key,
                resident_on,
                owner,
            } => write!(
                f,
                "key {key} resident on {resident_on} but owned by {owner:?}"
            ),
            Self::DeadNodeReferenced { node } => {
                write!(f, "ring references inactive node {node}")
            }
            Self::NodeWithoutBucket { node } => {
                write!(f, "active node {node} owns no bucket")
            }
            Self::ByteAccountingMismatch {
                node,
                counted,
                recorded,
            } => write!(
                f,
                "node {node} accounting says {recorded} B but records sum to {counted} B"
            ),
            Self::NodeOverCapacity {
                node,
                used,
                capacity,
            } => write!(f, "node {node} holds {used} B over capacity {capacity} B"),
            Self::Window { what } => write!(f, "sliding window corrupt: {what}"),
        }
    }
}

impl<N: fmt::Debug + fmt::Display> std::error::Error for CacheAuditError<N> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_helpfully() {
        let e = CacheError::RecordTooLarge {
            size: 10,
            capacity: 5,
        };
        assert!(e.to_string().contains("10 B"));
        assert!(CacheError::KeyOutOfRange { key: 9, r: 4 }
            .to_string()
            .contains("[0, 4)"));
        assert!(CacheError::CannotSplit { bucket: 3 }
            .to_string()
            .contains("3"));
        assert!(!CacheError::SplitLoopExceeded.to_string().is_empty());
        assert!(CacheError::Internal { what: "probe" }
            .to_string()
            .contains("probe"));
    }
}
