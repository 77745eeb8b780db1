//! The paper's elasticity decisions, as pure functions of what a
//! coordinator knows: the ring, per-node loads and a bucket's keys.
//!
//! [`crate::engine::Engine`] calls these for the simulated cache and the
//! live TCP coordinator alike, so each decision has one implementation:
//!
//! * GBA-Insert's fullest bucket ([`fullest_bucket`]) and median split
//!   ([`split_plan`], applied to the ring by [`SplitPlan::flip`]);
//! * Sweep-and-Migrate's least-loaded destination ([`destination`]);
//! * contraction's ε-merge pair ([`merge_pair`]).
//!
//! Ring geometry lives on [`HashRing`]: a bucket's arc in sweep order
//! ([`HashRing::sweep_spans`]) and the coalescing of a node's redundant
//! buckets ([`HashRing::coalesce`]).

use ecc_chash::{HashRing, RingError};

/// GBA-Insert's `b_max` (Algorithm 1): the fullest of `buckets` by
/// `size`, the resident bytes of a bucket's arc. On a tie the later bucket
/// wins. `None` when `buckets` is empty.
pub fn fullest_bucket(buckets: &[u64], mut size: impl FnMut(u64) -> u64) -> Option<u64> {
    let mut best: Option<(u64, u64)> = None;
    for &b in buckets {
        let bytes = size(b);
        if best.is_none_or(|(_, most)| bytes >= most) {
            best = Some((b, bytes));
        }
    }
    best.map(|(b, _)| b)
}

/// What a GBA split moves, and where the ring puts it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitPlan {
    /// The bucket being split.
    pub b_max: u64,
    /// `k^µ`, the position of the new bucket that takes the moved arc.
    /// `None` relocates `b_max` whole.
    pub k_mu: Option<u64>,
    /// The spans that move, in sweep order: `[min(b_max), k^µ]`, or the
    /// whole arc.
    pub spans: Vec<(u64, u64)>,
    /// How many of the bucket's listed keys move; they are always a prefix.
    pub moved: usize,
}

impl SplitPlan {
    /// The ring flip of the hand-off: thread a bucket at `k^µ` naming
    /// `dest`, or re-point `b_max` at it. Returns the bucket that now
    /// names `dest`.
    pub fn flip<N: Clone + Eq>(&self, ring: &mut HashRing<N>, dest: N) -> Result<u64, RingError> {
        match self.k_mu {
            Some(k_mu) => ring.insert_bucket(k_mu, dest).map(|()| k_mu),
            None => ring.remap_bucket(self.b_max, dest).map(|_| self.b_max),
        }
    }
}

/// Algorithm 1's split of `b_max`, whose arc `spans` (in sweep order, as
/// [`HashRing::sweep_spans`] gives them) hold `keys`, listed in that order.
///
/// * Two or more keys: split at the median `k^µ = keys[len / 2]`, backing
///   off to an earlier key while its position already holds a bucket (the
///   arc's own endpoint), and move the spans truncated at `k^µ`.
/// * Fewer: a median split cannot help (merges can fragment the line into
///   many small buckets), so relocate the whole bucket. That relieves the
///   node only if it owns another bucket.
///
/// `None` when neither applies: a lone bucket with at most one key (a
/// single record nearly fills the node), or no free median position.
pub fn split_plan<N: Clone + Eq>(
    ring: &HashRing<N>,
    b_max: u64,
    spans: Vec<(u64, u64)>,
    keys: &[u64],
) -> Option<SplitPlan> {
    if keys.len() < 2 {
        let node = ring.node_of_bucket(b_max)?;
        return (ring.buckets_of_node(node).len() >= 2).then_some(SplitPlan {
            b_max,
            k_mu: None,
            spans,
            moved: keys.len(),
        });
    }
    let mut mu = keys.len() / 2;
    while mu > 0 && ring.node_of_bucket(keys[mu]).is_some() {
        mu -= 1;
    }
    let k_mu = keys[mu];
    if ring.node_of_bucket(k_mu).is_some() {
        return None;
    }
    Some(SplitPlan {
        b_max,
        k_mu: Some(k_mu),
        spans: truncate_spans_at(&spans, k_mu)?,
        moved: mu + 1,
    })
}

/// Truncate sweep-order spans at `k_mu` (inclusive): the migration range
/// `[min(b_max), k^µ]` of Algorithm 1. `None` when `k_mu` lies outside
/// the spans.
fn truncate_spans_at(spans: &[(u64, u64)], k_mu: u64) -> Option<Vec<(u64, u64)>> {
    let mut out = Vec::with_capacity(spans.len());
    for &(lo, hi) in spans {
        if (lo..=hi).contains(&k_mu) {
            out.push((lo, k_mu));
            return Some(out);
        }
        out.push((lo, hi));
    }
    None
}

/// Sweep-and-Migrate's destination (Algorithm 2) for `moved_bytes` leaving
/// `src`: the least-loaded other node, the first in `loads` order on a tie,
/// if the bytes fit under its `capacity`. `None` means allocate a new
/// node. `loads` is `(node, used bytes)` over the fleet.
pub fn destination<N: Copy + PartialEq>(
    loads: impl IntoIterator<Item = (N, u64)>,
    src: N,
    moved_bytes: u64,
    capacity: u64,
) -> Option<N> {
    let (dest, used) = loads
        .into_iter()
        .filter(|&(id, _)| id != src)
        .min_by_key(|&(_, used)| used)?;
    (used + moved_bytes <= capacity).then_some(dest)
}

/// Contraction's merge pair (§III-B): the two least-loaded nodes by
/// `(used, id)`, as `(a, b)` with `a` to be drained into `b`, if their
/// data together fits under `threshold × capacity` and the fleet stays at
/// or above `min_nodes`. `loads` is `(node, used bytes)` over the fleet.
pub fn merge_pair<N: Copy + Ord>(
    loads: impl IntoIterator<Item = (N, u64)>,
    min_nodes: usize,
    threshold: f64,
    capacity: u64,
) -> Option<(N, N)> {
    let mut loads: Vec<(u64, N)> = loads.into_iter().map(|(id, used)| (used, id)).collect();
    if loads.len() <= min_nodes {
        return None;
    }
    loads.sort_unstable();
    let [(a_used, a), (b_used, b), ..] = loads[..] else {
        return None;
    };
    let limit = (threshold * capacity as f64) as u64;
    (a_used + b_used <= limit).then_some((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring of 100 positions with buckets at `at`, on node 1 unless
    /// listed in `others` (those are node 9's).
    fn ring(at: &[u64], others: &[u64]) -> HashRing<u32> {
        let mut ring = HashRing::new(100);
        for &p in at {
            ring.insert_bucket(p, if others.contains(&p) { 9 } else { 1 })
                .unwrap();
        }
        ring
    }

    #[test]
    fn fullest_bucket_cases() {
        let sizes = |bytes: &'static [u64]| move |b: u64| bytes[b as usize];
        // (bucket sizes by position, fullest).
        let cases: [(&'static [u64], Option<u64>); 5] = [
            (&[], None),
            (&[5], Some(0)),
            (&[1, 7, 3], Some(1)),
            // A tie goes to the later bucket…
            (&[4, 7, 7, 2], Some(2)),
            // …also when every bucket is empty.
            (&[0, 0, 0], Some(2)),
        ];
        for (bytes, want) in cases {
            let buckets: Vec<u64> = (0..bytes.len() as u64).collect();
            assert_eq!(fullest_bucket(&buckets, sizes(bytes)), want, "{bytes:?}");
        }
    }

    #[test]
    fn truncate_spans_at_median() {
        assert_eq!(truncate_spans_at(&[(11, 20)], 15), Some(vec![(11, 15)]));
        assert_eq!(
            truncate_spans_at(&[(91, 99), (0, 5)], 3),
            Some(vec![(91, 99), (0, 3)])
        );
        assert_eq!(
            truncate_spans_at(&[(91, 99), (0, 5)], 95),
            Some(vec![(91, 95)])
        );
    }

    #[test]
    fn truncate_requires_containment() {
        assert_eq!(truncate_spans_at(&[(0, 5)], 10), None);
    }

    /// A split plan as `(k_mu, spans, moved)`.
    type Plan = Option<(Option<u64>, Vec<(u64, u64)>, usize)>;

    /// Loads as `(node, used bytes)`.
    type Loads = &'static [(u32, u64)];

    /// A merge pair `(drained, kept)`.
    type Pair = (u32, u32);

    /// [`split_plan`] of `b_max` over `keys`.
    fn plan(ring: &HashRing<u32>, b_max: u64, keys: &[u64]) -> Plan {
        let plan = split_plan(ring, b_max, ring.sweep_spans(b_max).unwrap(), keys)?;
        assert_eq!(plan.b_max, b_max);
        Some((plan.k_mu, plan.spans, plan.moved))
    }

    #[test]
    fn split_plan_cases() {
        let r = ring(&[10, 20, 50], &[]);
        // Median of an odd count: keys[1] = 14, and the keys up to it move.
        assert_eq!(
            plan(&r, 20, &[12, 14, 18]),
            Some((Some(14), vec![(11, 14)], 2))
        );
        // Even count: keys[len / 2] is the upper median.
        assert_eq!(
            plan(&r, 20, &[12, 14, 16, 18]),
            Some((Some(16), vec![(11, 16)], 3))
        );
        // The median sits on a bucket (the arc's endpoint 20): back off.
        assert_eq!(plan(&r, 20, &[15, 20]), Some((Some(15), vec![(11, 15)], 1)));
        // Backing off reaches keys[0], which is taken too: no position. An
        // arc holds one bucket, its endpoint, so only keys from outside it
        // get here.
        assert_eq!(plan(&r, 50, &[10, 50]), None);
        // One key: relocate the whole bucket when its node owns another…
        assert_eq!(plan(&r, 20, &[15]), Some((None, vec![(11, 20)], 1)));
        // …or none at all.
        assert_eq!(plan(&r, 20, &[]), Some((None, vec![(11, 20)], 0)));
        // A lone bucket with one key cannot be relieved.
        assert_eq!(plan(&ring(&[10, 20, 50], &[10, 50]), 20, &[15]), None);
        // A wrapping arc truncates in sweep order.
        let wrap = ring(&[5, 90], &[]);
        assert_eq!(
            plan(&wrap, 5, &[92, 97, 3]),
            Some((Some(97), vec![(91, 97)], 2))
        );
        assert_eq!(
            plan(&wrap, 5, &[92, 2, 3]),
            Some((Some(2), vec![(91, 99), (0, 2)], 2))
        );
    }

    #[test]
    fn split_flip_threads_or_repoints() {
        let mut r = ring(&[10, 20, 50], &[]);
        let split = split_plan(&r, 20, r.sweep_spans(20).unwrap(), &[12, 14, 18]).unwrap();
        assert_eq!(split.flip(&mut r, 7), Ok(14));
        assert_eq!(r.node_for_key(13), Some(&7));
        assert_eq!(r.node_for_key(15), Some(&1));
        let relocate = split_plan(&r, 50, r.sweep_spans(50).unwrap(), &[30]).unwrap();
        assert_eq!(relocate.flip(&mut r, 8), Ok(50));
        assert_eq!(r.node_for_key(30), Some(&8));
        // A position taken since the plan was made fails the flip.
        assert_eq!(
            split.flip(&mut r, 7),
            Err(RingError::BucketOccupied { position: 14 })
        );
    }

    #[test]
    fn destination_cases() {
        // (loads as (node, used), src, moved bytes, destination); capacity 100.
        let cases: [(Loads, u32, u64, Option<u32>); 7] = [
            // The least-loaded other node takes the bytes.
            (&[(0, 90), (1, 40), (2, 20)], 0, 30, Some(2)),
            // The bytes fit exactly.
            (&[(0, 90), (1, 40), (2, 20)], 0, 80, Some(2)),
            // They do not fit on the least-loaded node: allocate, even
            // though a fuller node would not fit either.
            (&[(0, 90), (1, 40), (2, 20)], 0, 81, None),
            // The source is itself the least-loaded node: the next one.
            (&[(0, 10), (1, 40), (2, 20)], 0, 30, Some(2)),
            // A tie goes to the first node in `loads` order.
            (&[(0, 90), (2, 20), (1, 20)], 0, 30, Some(2)),
            // A lone source has nowhere to send its bytes.
            (&[(0, 90)], 0, 1, None),
            (&[], 0, 1, None),
        ];
        for (loads, src, moved, want) in cases {
            let got = destination(loads.iter().copied(), src, moved, 100);
            assert_eq!(got, want, "{loads:?} from {src}, {moved} B");
        }
    }

    #[test]
    fn merge_pair_cases() {
        // (loads as (node, used), min_nodes, pair); threshold 0.65 of 100.
        let cases: [(Loads, usize, Option<Pair>); 8] = [
            // The two least-loaded nodes, the lighter drained.
            (&[(0, 50), (1, 30), (2, 10)], 1, Some((2, 1))),
            // Equal loads: the lower id is drained into the next.
            (&[(2, 20), (1, 20), (0, 20)], 1, Some((0, 1))),
            (&[(3, 5), (1, 20), (0, 20)], 1, Some((3, 0))),
            // Exactly at the threshold merges; one byte over does not.
            (&[(0, 40), (1, 25)], 1, Some((1, 0))),
            (&[(0, 40), (1, 26)], 1, None),
            // The min_nodes floor: a merge may not go below it.
            (&[(0, 1), (1, 1)], 2, None),
            (&[(0, 1), (1, 1), (2, 1)], 2, Some((0, 1))),
            // One node never merges.
            (&[(0, 0)], 1, None),
        ];
        for (loads, min_nodes, want) in cases {
            let got = merge_pair(loads.iter().copied(), min_nodes, 0.65, 100);
            assert_eq!(got, want, "{loads:?} over min {min_nodes}");
        }
    }
}
