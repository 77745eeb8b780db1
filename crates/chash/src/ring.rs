//! The hash-line implementation.

use std::collections::BTreeMap;
use std::fmt;

/// Errors returned by ring mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// Bucket position outside `[0, r)`.
    PositionOutOfRange {
        /// The rejected position.
        position: u64,
        /// The hash-line range.
        r: u64,
    },
    /// A bucket already sits at this position.
    BucketOccupied {
        /// The occupied position.
        position: u64,
    },
    /// No bucket exists at this position.
    NoSuchBucket {
        /// The position that was looked up.
        position: u64,
    },
    /// Operation needs at least one bucket, but the ring is empty.
    EmptyRing,
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PositionOutOfRange { position, r } => {
                write!(f, "bucket position {position} outside hash line [0, {r})")
            }
            Self::BucketOccupied { position } => {
                write!(f, "bucket position {position} already occupied")
            }
            Self::NoSuchBucket { position } => write!(f, "no bucket at position {position}"),
            Self::EmptyRing => write!(f, "ring has no buckets"),
        }
    }
}

impl std::error::Error for RingError {}

/// A violated structural invariant found by [`HashRing::check_invariants`].
///
/// These mirror the paper's §II data-structure contract: `B` is a strictly
/// ordered bucket list on `[0, r)`, every bucket appears in `NodeMap`, and
/// the buckets' arcs partition the hash line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingAuditError {
    /// A bucket position lies outside the hash line `[0, r)`.
    BucketOutOfRange {
        /// The offending bucket position.
        position: u64,
        /// The hash-line range.
        r: u64,
    },
    /// The arcs of all buckets do not sum to the full line length `r`.
    ArcsDoNotPartitionLine {
        /// Sum of all arc lengths.
        covered: u64,
        /// The hash-line range they must cover exactly once.
        r: u64,
    },
    /// A bucket's arc disagrees with the closest-upper-bucket rule.
    ArcOwnershipMismatch {
        /// The bucket whose arc was checked.
        bucket: u64,
        /// The line position that resolved to the wrong bucket.
        position: u64,
        /// The bucket that `bucket_for_position` actually returned.
        resolved: Option<u64>,
    },
    /// A bucket has no node mapping (cannot happen through the public API;
    /// guards future refactors that split `B` from `NodeMap`).
    UnmappedBucket {
        /// The bucket without a node.
        position: u64,
    },
}

impl fmt::Display for RingAuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BucketOutOfRange { position, r } => {
                write!(f, "bucket {position} outside hash line [0, {r})")
            }
            Self::ArcsDoNotPartitionLine { covered, r } => {
                write!(f, "bucket arcs cover {covered} positions, line has {r}")
            }
            Self::ArcOwnershipMismatch {
                bucket,
                position,
                resolved,
            } => write!(
                f,
                "arc of bucket {bucket} claims position {position}, but h resolves it to {resolved:?}"
            ),
            Self::UnmappedBucket { position } => {
                write!(f, "bucket {position} missing from NodeMap")
            }
        }
    }
}

impl std::error::Error for RingAuditError {}

/// A (possibly wrapping) arc of the hash line, expressed as inclusive
/// position bounds. The arc owned by bucket `b_i` is `(b_{i-1}, b_i]`; for
/// the first bucket that wraps around the top of the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arc {
    /// Every position in `[lo, hi]`.
    Contiguous {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// The wrap-around arc `[lo, r) ∪ [0, hi]`.
    Wrapping {
        /// Inclusive start of the upper span.
        lo: u64,
        /// Inclusive end of the lower span.
        hi: u64,
        /// The hash-line range.
        r: u64,
    },
    /// The entire line (single-bucket ring).
    Full {
        /// The hash-line range.
        r: u64,
    },
}

impl Arc {
    /// Convenience constructor for a contiguous arc.
    pub fn contiguous(lo: u64, hi: u64) -> Self {
        Arc::Contiguous { lo, hi }
    }

    /// Whether `pos` falls inside this arc.
    pub fn contains(&self, pos: u64) -> bool {
        match *self {
            Arc::Contiguous { lo, hi } => lo <= pos && pos <= hi,
            Arc::Wrapping { lo, hi, r } => (lo <= pos && pos < r) || pos <= hi,
            Arc::Full { r } => pos < r,
        }
    }

    /// Number of positions covered.
    pub fn len(&self) -> u64 {
        match *self {
            Arc::Contiguous { lo, hi } => hi - lo + 1,
            Arc::Wrapping { lo, hi, r } => (r - lo) + hi + 1,
            Arc::Full { r } => r,
        }
    }

    /// Whether the arc covers no positions (never true for valid arcs).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The arc as at most two `(lo, hi)` inclusive spans in key order —
    /// the shape a B+-tree sweep consumes.
    pub fn spans(&self) -> Vec<(u64, u64)> {
        match *self {
            Arc::Contiguous { lo, hi } => vec![(lo, hi)],
            Arc::Wrapping { lo, hi, r } if lo < r => vec![(0, hi), (lo, r - 1)],
            // Degenerate wrap (upper span empty): just the low end.
            Arc::Wrapping { hi, .. } => vec![(0, hi)],
            Arc::Full { r } => vec![(0, r - 1)],
        }
    }

    /// Normalize a `(pred, position]` arc: a "wrap" whose upper span is
    /// empty (predecessor at `r - 1`) is really contiguous `[0, position]`.
    fn between(pred: u64, position: u64, r: u64) -> Self {
        if pred < position {
            Arc::Contiguous {
                lo: pred + 1,
                hi: position,
            }
        } else if pred == r - 1 {
            Arc::Contiguous {
                lo: 0,
                hi: position,
            }
        } else {
            Arc::Wrapping {
                lo: pred + 1,
                hi: position,
                r,
            }
        }
    }
}

/// The consistent-hash ring: ordered buckets on `[0, r)`, each mapped to a
/// node of type `N`. This combines the paper's `B` (bucket list) and
/// `NodeMap` (bucket → node relation) in one structure.
#[derive(Debug, Clone)]
pub struct HashRing<N> {
    r: u64,
    buckets: BTreeMap<u64, N>,
}

impl<N: Clone + Eq> HashRing<N> {
    /// Create an empty ring over the hash line `[0, r)`.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0`.
    pub fn new(r: u64) -> Self {
        assert!(r > 0, "hash line range must be positive");
        Self {
            r,
            buckets: BTreeMap::new(),
        }
    }

    /// The hash line range `r`.
    #[inline]
    pub fn range(&self) -> u64 {
        self.r
    }

    /// Number of buckets `p`.
    #[inline]
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the ring has no buckets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// The auxiliary hash `h'(k) = k mod r`. Keys already on the line
    /// (the common case) skip the division.
    #[inline]
    pub fn aux_hash(&self, key: u64) -> u64 {
        if key < self.r {
            key
        } else {
            key % self.r
        }
    }

    /// The consistent hash `h(k)`: position of the bucket owning `key`.
    /// `None` on an empty ring.
    pub fn bucket_for_key(&self, key: u64) -> Option<u64> {
        self.bucket_for_position(self.aux_hash(key))
    }

    /// Closest upper bucket for a raw line position, wrapping to `b_1`.
    pub fn bucket_for_position(&self, pos: u64) -> Option<u64> {
        self.entry_for_position(pos).map(|(&b, _)| b)
    }

    /// The node owning `key`. `None` on an empty ring.
    #[inline]
    pub fn node_for_key(&self, key: u64) -> Option<&N> {
        self.entry_for_position(self.aux_hash(key)).map(|(_, n)| n)
    }

    /// The `(bucket, node)` entry owning line position `pos`: one ordered
    /// walk to the closest upper bucket, wrapping to `b_1`.
    #[inline]
    fn entry_for_position(&self, pos: u64) -> Option<(&u64, &N)> {
        self.buckets
            .range(pos..)
            .next()
            .or_else(|| self.buckets.iter().next())
    }

    /// The node mapped to the bucket at `position`.
    pub fn node_of_bucket(&self, position: u64) -> Option<&N> {
        self.buckets.get(&position)
    }

    /// Insert a bucket at `position` mapped to `node`.
    pub fn insert_bucket(&mut self, position: u64, node: N) -> Result<(), RingError> {
        if position >= self.r {
            return Err(RingError::PositionOutOfRange {
                position,
                r: self.r,
            });
        }
        if self.buckets.contains_key(&position) {
            return Err(RingError::BucketOccupied { position });
        }
        self.buckets.insert(position, node);
        #[cfg(debug_assertions)]
        self.validate();
        Ok(())
    }

    /// Re-map an existing bucket to a different node (used when merging two
    /// cache nodes: the dying node's buckets are pointed at the survivor).
    pub fn remap_bucket(&mut self, position: u64, node: N) -> Result<N, RingError> {
        let prev = match self.buckets.get_mut(&position) {
            Some(slot) => std::mem::replace(slot, node),
            None => return Err(RingError::NoSuchBucket { position }),
        };
        #[cfg(debug_assertions)]
        self.validate();
        Ok(prev)
    }

    /// Iterate over `(position, node)` pairs in line order (`b_1 … b_p`).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, &N)> {
        self.buckets.iter().map(|(&b, n)| (b, n))
    }

    /// All bucket positions mapped to `node`, in line order.
    pub fn buckets_of_node(&self, node: &N) -> Vec<u64> {
        self.buckets
            .iter()
            .filter(|(_, n)| *n == node)
            .map(|(&b, _)| b)
            .collect()
    }

    /// Distinct nodes referenced by at least one bucket.
    pub fn nodes(&self) -> Vec<N> {
        let mut out: Vec<N> = Vec::new();
        for n in self.buckets.values() {
            if !out.contains(n) {
                out.push(n.clone());
            }
        }
        out
    }

    /// The predecessor bucket of `position` on the circular line (the bucket
    /// whose arc ends just before this one begins).
    pub fn predecessor(&self, position: u64) -> Result<u64, RingError> {
        if !self.buckets.contains_key(&position) {
            return Err(RingError::NoSuchBucket { position });
        }
        self.buckets
            .range(..position)
            .next_back()
            .or_else(|| self.buckets.iter().next_back())
            .map(|(&b, _)| b)
            .ok_or(RingError::EmptyRing)
    }

    /// The successor bucket of `position` on the circular line.
    pub fn successor(&self, position: u64) -> Result<u64, RingError> {
        if !self.buckets.contains_key(&position) {
            return Err(RingError::NoSuchBucket { position });
        }
        self.buckets
            .range(position + 1..)
            .next()
            .or_else(|| self.buckets.iter().next())
            .map(|(&b, _)| b)
            .ok_or(RingError::EmptyRing)
    }

    /// The arc of the line owned by the bucket at `position`:
    /// `(predecessor, position]`, wrapping as needed.
    pub fn arc_of_bucket(&self, position: u64) -> Result<Arc, RingError> {
        let pred = self.predecessor(position)?;
        if self.buckets.len() == 1 {
            return Ok(Arc::Full { r: self.r });
        }
        Ok(Arc::between(pred, position, self.r))
    }

    /// The lowest position of a bucket's arc — the paper's `min(b_max)`
    /// (Algorithm 1, line 12). For the wrap-around bucket this is the start
    /// of its *upper* span.
    pub fn arc_start(&self, position: u64) -> Result<u64, RingError> {
        match self.arc_of_bucket(position)? {
            Arc::Contiguous { lo, .. } => Ok(lo),
            Arc::Wrapping { lo, .. } => Ok(lo),
            Arc::Full { .. } => Ok((position + 1) % self.r),
        }
    }

    /// The arc of the bucket at `position` as inclusive spans in *sweep
    /// order*: from `min(b)` just after the predecessor, wrapping at the top
    /// of the line, up to `position`. Algorithm 1 lists a bucket's keys in
    /// this order to pick `k^µ`, and Algorithm 2 sweeps its prefix. A lone
    /// bucket owns the whole line, starting just after itself.
    pub fn sweep_spans(&self, position: u64) -> Result<Vec<(u64, u64)>, RingError> {
        Ok(match self.arc_of_bucket(position)? {
            Arc::Contiguous { lo, hi } => vec![(lo, hi)],
            Arc::Wrapping { lo, hi, r } => vec![(lo, r - 1), (0, hi)],
            Arc::Full { r } if position == r - 1 => vec![(0, r - 1)],
            Arc::Full { r } => vec![(position + 1, r - 1), (0, position)],
        })
    }

    /// Remove every bucket of `node` whose successor also maps to `node`:
    /// its arc passes to that successor with no data movement. Run after a
    /// node's buckets are re-pointed at another (a merge, a failure), it
    /// keeps the line from fragmenting into unsplittable singleton buckets
    /// across grow/shrink cycles. Never empties the ring.
    pub fn coalesce(&mut self, node: &N) {
        for b in self.buckets_of_node(node) {
            let Ok(succ) = self.successor(b) else {
                break;
            };
            if succ != b && self.buckets.get(&succ) == Some(node) {
                self.buckets.remove(&b);
            }
        }
        #[cfg(debug_assertions)]
        self.validate();
    }

    /// The keys (as an arc of the line) that would move to a new bucket at
    /// `position`, i.e. `(b_prev, position]`. Fails if the position is
    /// occupied or out of range; on an empty ring the new bucket would own
    /// the full line.
    pub fn relocation_on_insert(&self, position: u64) -> Result<Arc, RingError> {
        if position >= self.r {
            return Err(RingError::PositionOutOfRange {
                position,
                r: self.r,
            });
        }
        if self.buckets.contains_key(&position) {
            return Err(RingError::BucketOccupied { position });
        }
        if self.buckets.is_empty() {
            return Ok(Arc::Full { r: self.r });
        }
        let pred = self
            .buckets
            .range(..position)
            .next_back()
            .or_else(|| self.buckets.iter().next_back())
            .map(|(&b, _)| b)
            .ok_or(RingError::EmptyRing)?;
        Ok(Arc::between(pred, position, self.r))
    }

    /// Audit the ring's structural invariants, mirroring
    /// `BPlusTree::validate`:
    ///
    /// 1. every bucket position lies on the hash line `[0, r)` (strict
    ///    ordering is guaranteed by the `BTreeMap` key order),
    /// 2. every bucket maps to a node (`NodeMap` is total over `B`),
    /// 3. the buckets' arcs partition the line: they are pairwise disjoint,
    ///    jointly exhaustive (lengths sum to `r`), and each arc's endpoints
    ///    resolve to its own bucket under the closest-upper-bucket rule.
    ///
    /// Returns the first violation found; `Ok(())` on a healthy ring (an
    /// empty ring is trivially healthy).
    pub fn check_invariants(&self) -> Result<(), RingAuditError> {
        let mut covered = 0u64;
        for &b in self.buckets.keys() {
            if b >= self.r {
                return Err(RingAuditError::BucketOutOfRange {
                    position: b,
                    r: self.r,
                });
            }
            // NodeMap totality is structural in this merged representation;
            // keep the check explicit so a future split of B from NodeMap
            // cannot silently drop it.
            if !self.buckets.contains_key(&b) {
                return Err(RingAuditError::UnmappedBucket { position: b });
            }
            let arc = self
                .arc_of_bucket(b)
                .map_err(|_| RingAuditError::UnmappedBucket { position: b })?;
            covered += arc.len();
            // Endpoint ownership: the bucket position itself, the arc start,
            // and the position just past the arc must resolve per the
            // circular closest-upper-bucket rule.
            for pos in [b, self.arc_start(b).unwrap_or(b)] {
                let resolved = self.bucket_for_position(pos);
                if resolved != Some(b) {
                    return Err(RingAuditError::ArcOwnershipMismatch {
                        bucket: b,
                        position: pos,
                        resolved,
                    });
                }
            }
            let past = (b + 1) % self.r;
            if let Some(resolved) = self.bucket_for_position(past) {
                if resolved == b && self.buckets.len() > 1 {
                    return Err(RingAuditError::ArcOwnershipMismatch {
                        bucket: b,
                        position: past,
                        resolved: Some(resolved),
                    });
                }
            }
        }
        if !self.buckets.is_empty() && covered != self.r {
            return Err(RingAuditError::ArcsDoNotPartitionLine { covered, r: self.r });
        }
        Ok(())
    }

    /// Panicking wrapper over [`Self::check_invariants`], for tests and
    /// `debug_assert!` hooks.
    ///
    /// # Panics
    ///
    /// Panics with the violation's description if any invariant is broken.
    #[expect(clippy::panic, reason = "validate() is the panicking audit wrapper")]
    pub fn validate(&self) {
        if let Err(e) = self.check_invariants() {
            panic!("ring invariant violated: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_ring() -> HashRing<u32> {
        // Mirrors Figure 1 (top): five buckets over two nodes.
        let mut ring = HashRing::new(100);
        ring.insert_bucket(10, 1).unwrap();
        ring.insert_bucket(30, 1).unwrap();
        ring.insert_bucket(50, 2).unwrap();
        ring.insert_bucket(70, 2).unwrap();
        ring.insert_bucket(90, 2).unwrap();
        ring
    }

    #[test]
    fn closest_upper_bucket_rule() {
        let ring = two_node_ring();
        assert_eq!(ring.bucket_for_key(0), Some(10));
        assert_eq!(ring.bucket_for_key(10), Some(10));
        assert_eq!(ring.bucket_for_key(11), Some(30));
        assert_eq!(ring.bucket_for_key(69), Some(70));
        assert_eq!(ring.bucket_for_key(90), Some(90));
    }

    #[test]
    fn keys_above_last_bucket_wrap_to_first() {
        let ring = two_node_ring();
        // h'(k) in (90, 99] wraps to b_1 = 10, node 1 (paper's circular rule).
        assert_eq!(ring.bucket_for_key(91), Some(10));
        assert_eq!(ring.bucket_for_key(99), Some(10));
        assert_eq!(ring.node_for_key(95), Some(&1));
    }

    #[test]
    fn aux_hash_is_mod_r() {
        let ring = two_node_ring();
        assert_eq!(ring.aux_hash(100), 0);
        assert_eq!(ring.aux_hash(123), 23);
        assert_eq!(ring.bucket_for_key(123), Some(30));
    }

    #[test]
    fn empty_ring_maps_nothing() {
        let ring: HashRing<u32> = HashRing::new(64);
        assert_eq!(ring.bucket_for_key(5), None);
        assert_eq!(ring.node_for_key(5), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn insert_rejects_bad_positions() {
        let mut ring = two_node_ring();
        assert_eq!(
            ring.insert_bucket(100, 3),
            Err(RingError::PositionOutOfRange {
                position: 100,
                r: 100
            })
        );
        assert_eq!(
            ring.insert_bucket(50, 3),
            Err(RingError::BucketOccupied { position: 50 })
        );
    }

    #[test]
    fn figure1_bottom_split_scenario() {
        // Figure 1 (bottom): adding n3 at b6 = r/2 relocates exactly the
        // keys in (b3, b6] from n2 to n3.
        let mut ring = two_node_ring();
        let moved = ring.relocation_on_insert(60).unwrap();
        assert_eq!(moved, Arc::contiguous(51, 60));
        ring.insert_bucket(60, 3).unwrap();
        for k in 51..=60 {
            assert_eq!(ring.node_for_key(k), Some(&3));
        }
        assert_eq!(ring.node_for_key(50), Some(&2));
        assert_eq!(ring.node_for_key(61), Some(&2));
    }

    #[test]
    fn relocation_on_insert_wrapping() {
        let ring = two_node_ring();
        // New bucket at 5: predecessor is 90, so the arc wraps.
        let moved = ring.relocation_on_insert(5).unwrap();
        assert_eq!(
            moved,
            Arc::Wrapping {
                lo: 91,
                hi: 5,
                r: 100
            }
        );
        assert_eq!(moved.spans(), vec![(0, 5), (91, 99)]);
        assert_eq!(moved.len(), 15);
    }

    #[test]
    fn arcs_partition_the_line() {
        let ring = two_node_ring();
        let mut covered = [false; 100];
        for (b, _) in ring.buckets() {
            let arc = ring.arc_of_bucket(b).unwrap();
            for pos in 0..100 {
                if arc.contains(pos) {
                    assert!(!covered[pos as usize], "position {pos} double-owned");
                    covered[pos as usize] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "line not fully covered");
    }

    #[test]
    fn single_bucket_owns_everything() {
        let mut ring: HashRing<u32> = HashRing::new(50);
        ring.insert_bucket(20, 1).unwrap();
        assert_eq!(ring.arc_of_bucket(20), Ok(Arc::Full { r: 50 }));
        for k in 0..50 {
            assert_eq!(ring.node_for_key(k), Some(&1));
        }
        assert_eq!(ring.predecessor(20), Ok(20));
        assert_eq!(ring.successor(20), Ok(20));
    }

    #[test]
    fn predecessor_successor_circularity() {
        let ring = two_node_ring();
        assert_eq!(ring.predecessor(10), Ok(90));
        assert_eq!(ring.successor(90), Ok(10));
        assert_eq!(ring.predecessor(50), Ok(30));
        assert_eq!(ring.successor(50), Ok(70));
        assert_eq!(
            ring.predecessor(11),
            Err(RingError::NoSuchBucket { position: 11 })
        );
    }

    #[test]
    fn remap_bucket_changes_owner() {
        let mut ring = two_node_ring();
        assert_eq!(ring.remap_bucket(50, 9), Ok(2));
        assert_eq!(ring.node_for_key(40), Some(&9));
        assert_eq!(
            ring.remap_bucket(51, 9),
            Err(RingError::NoSuchBucket { position: 51 })
        );
    }

    #[test]
    fn buckets_of_node_and_nodes() {
        let ring = two_node_ring();
        assert_eq!(ring.buckets_of_node(&1), vec![10, 30]);
        assert_eq!(ring.buckets_of_node(&2), vec![50, 70, 90]);
        assert_eq!(ring.nodes(), vec![1, 2]);
    }

    #[test]
    fn arc_start_matches_min_b_max_semantics() {
        let ring = two_node_ring();
        assert_eq!(ring.arc_start(50), Ok(31));
        assert_eq!(ring.arc_start(10), Ok(91)); // wrap bucket: upper span start
    }

    #[test]
    fn arc_spans_cover_exactly_the_arc() {
        let arc = Arc::Wrapping {
            lo: 91,
            hi: 5,
            r: 100,
        };
        let mut count = 0u64;
        for (lo, hi) in arc.spans() {
            for p in lo..=hi {
                assert!(arc.contains(p));
                count += 1;
            }
        }
        assert_eq!(count, arc.len());
    }

    #[test]
    fn sweep_spans_cases() {
        type Spans = &'static [(u64, u64)];
        // (buckets, bucket, spans in sweep order) on a line of 100.
        let cases: [(&[u64], u64, Spans); 5] = [
            // Contiguous.
            (&[10, 20], 20, &[(11, 20)]),
            // Wrapping: the upper span first.
            (&[5, 90], 5, &[(91, 99), (0, 5)]),
            // Wrap with an empty upper part.
            (&[5, 99], 5, &[(0, 5)]),
            // Lone bucket at r - 1.
            (&[99], 99, &[(0, 99)]),
            // Lone bucket mid-line: the whole line, starting after it.
            (&[40], 40, &[(41, 99), (0, 40)]),
        ];
        for (buckets, b, want) in cases {
            let mut ring = HashRing::new(100);
            for &p in buckets {
                ring.insert_bucket(p, 0u32).unwrap();
            }
            assert_eq!(ring.sweep_spans(b).unwrap(), want, "{buckets:?} @ {b}");
        }
        assert_eq!(
            two_node_ring().sweep_spans(11),
            Err(RingError::NoSuchBucket { position: 11 })
        );
    }

    #[test]
    fn coalesce_drops_buckets_whose_successor_shares_the_node() {
        // (owners of buckets 10, 30, 50, 70, 90; node; buckets left).
        let cases: [([u32; 5], u32, &[u64]); 4] = [
            // Node 1's run 70–90–10–30 wraps the top of the line and
            // shrinks to its last bucket, 30.
            ([1, 1, 2, 1, 1], 1, &[30, 50]),
            // Wrap-around: 90's successor is 10, also node 1.
            ([1, 2, 2, 2, 1], 1, &[10, 30, 50, 70]),
            // Another node's runs are left alone.
            ([1, 1, 2, 2, 3], 3, &[10, 30, 50, 70, 90]),
            // One node everywhere: a single bucket is left, never none.
            ([1, 1, 1, 1, 1], 1, &[90]),
        ];
        for (owners, node, want) in cases {
            let mut ring = HashRing::new(100);
            for (p, o) in [10, 30, 50, 70, 90].into_iter().zip(owners) {
                ring.insert_bucket(p, o).unwrap();
            }
            ring.coalesce(&node);
            let left: Vec<u64> = ring.buckets().map(|(b, _)| b).collect();
            assert_eq!(left, want, "{owners:?} coalescing {node}");
        }
    }

    #[test]
    fn adding_bucket_only_disrupts_its_arc() {
        // The core consistent-hashing claim: all keys outside (b_prev, b_new]
        // keep their node assignment.
        let mut ring = two_node_ring();
        let before: Vec<Option<u32>> = (0..100).map(|k| ring.node_for_key(k).copied()).collect();
        let arc = ring.relocation_on_insert(42).unwrap();
        ring.insert_bucket(42, 7).unwrap();
        for k in 0..100u64 {
            if arc.contains(k) {
                assert_eq!(ring.node_for_key(k), Some(&7));
            } else {
                assert_eq!(ring.node_for_key(k).copied(), before[k as usize]);
            }
        }
    }
}
