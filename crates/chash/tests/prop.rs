//! Property tests for the consistent-hash ring: the anti-disruption
//! guarantees of paper §II-A must hold for arbitrary bucket layouts.

use ecc_chash::HashRing;
use proptest::prelude::*;

/// Build a ring with the given bucket positions (deduped), nodes assigned
/// round-robin over `n_nodes`.
fn build_ring(r: u64, positions: &[u64], n_nodes: u32) -> HashRing<u32> {
    let mut ring = HashRing::new(r);
    for (i, &p) in positions.iter().enumerate() {
        let _ = ring.insert_bucket(p % r, (i as u32) % n_nodes.max(1));
    }
    ring
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_key_maps_to_exactly_one_bucket(
        r in 2u64..10_000,
        positions in proptest::collection::vec(any::<u64>(), 1..40),
        keys in proptest::collection::vec(any::<u64>(), 1..50),
    ) {
        let ring = build_ring(r, &positions, 4);
        for k in keys {
            let b = ring.bucket_for_key(k).expect("non-empty ring");
            let arc = ring.arc_of_bucket(b).unwrap();
            prop_assert!(arc.contains(k % r), "key {k} not in its bucket's arc");
        }
    }

    #[test]
    fn arcs_partition_the_whole_line(
        r in 2u64..512,
        positions in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        let ring = build_ring(r, &positions, 3);
        let mut owners = vec![0usize; r as usize];
        for (b, _) in ring.buckets() {
            let arc = ring.arc_of_bucket(b).unwrap();
            for pos in 0..r {
                if arc.contains(pos) {
                    owners[pos as usize] += 1;
                }
            }
        }
        prop_assert!(owners.iter().all(|&c| c == 1), "line not partitioned: {owners:?}");
    }

    #[test]
    fn arc_len_equals_span_cardinality(
        r in 2u64..2048,
        positions in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        let ring = build_ring(r, &positions, 3);
        let mut total = 0u64;
        for (b, _) in ring.buckets() {
            let arc = ring.arc_of_bucket(b).unwrap();
            let span_card: u64 = arc.spans().iter().map(|(lo, hi)| hi - lo + 1).sum();
            prop_assert_eq!(arc.len(), span_card);
            total += arc.len();
        }
        prop_assert_eq!(total, r, "arc lengths must sum to the line length");
    }

    #[test]
    fn insert_disrupts_only_the_new_arc(
        r in 4u64..4096,
        positions in proptest::collection::vec(any::<u64>(), 1..20),
        new_pos in any::<u64>(),
    ) {
        let mut ring = build_ring(r, &positions, 3);
        let new_pos = new_pos % r;
        prop_assume!(ring.node_of_bucket(new_pos).is_none());

        let before: Vec<u32> = (0..r).map(|k| *ring.node_for_key(k).unwrap()).collect();
        let arc = ring.relocation_on_insert(new_pos).unwrap();
        ring.insert_bucket(new_pos, 999).unwrap();

        for k in 0..r {
            if arc.contains(k) {
                prop_assert_eq!(ring.node_for_key(k), Some(&999));
            } else {
                prop_assert_eq!(*ring.node_for_key(k).unwrap(), before[k as usize]);
            }
        }
    }

    #[test]
    fn predecessor_and_successor_are_inverse(
        r in 4u64..4096,
        positions in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        let ring = build_ring(r, &positions, 3);
        for (b, _) in ring.buckets() {
            let succ = ring.successor(b).unwrap();
            prop_assert_eq!(ring.predecessor(succ).unwrap(), b);
        }
    }
}
