//! Property tests: the B+-tree must behave exactly like `BTreeMap` under
//! arbitrary operation sequences, while also maintaining its structural
//! invariants (checked by `validate()`).

use std::collections::BTreeMap;

use ecc_bptree::BPlusTree;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
    DrainRange(u16, u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => any::<u16>().prop_map(Op::Remove),
        1 => any::<u16>().prop_map(Op::Get),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::DrainRange(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_btreemap_oracle(
        order in 4usize..=32,
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut tree: BPlusTree<u16, u32> = BPlusTree::new(order);
        let mut oracle: BTreeMap<u16, u32> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(k, v), oracle.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), oracle.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k), oracle.get(&k));
                }
                Op::DrainRange(lo, hi) => {
                    let drained = tree.drain_range(&lo, &hi);
                    let expected: Vec<(u16, u32)> = {
                        let keys: Vec<u16> =
                            oracle.range(lo..=hi).map(|(k, _)| *k).collect();
                        keys.into_iter()
                            .map(|k| (k, oracle.remove(&k).unwrap()))
                            .collect()
                    };
                    prop_assert_eq!(drained, expected);
                }
            }
            prop_assert_eq!(tree.len(), oracle.len());
        }

        tree.validate();
        // Full scan must agree.
        let got: Vec<(u16, u32)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u16, u32)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
        // Byte accounting: every u32 is 4 bytes.
        prop_assert_eq!(tree.bytes(), oracle.len() as u64 * 4);
    }

    #[test]
    fn range_queries_match_oracle(
        order in 4usize..=16,
        keys in proptest::collection::btree_set(any::<u16>(), 0..300),
        lo: u16,
        hi: u16,
    ) {
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let mut tree: BPlusTree<u16, u32> = BPlusTree::new(order);
        for &k in &keys {
            tree.insert(k, k as u32);
        }
        let got: Vec<u16> = tree.range(lo..=hi).map(|(k, _)| *k).collect();
        let want: Vec<u16> = keys.range(lo..=hi).copied().collect();
        prop_assert_eq!(got, want);

        let got_ex: Vec<u16> = tree.range(lo..hi).map(|(k, _)| *k).collect();
        let want_ex: Vec<u16> = keys.range(lo..hi).copied().collect();
        prop_assert_eq!(got_ex, want_ex);
    }

    #[test]
    fn validate_holds_after_heavy_churn(
        order in 4usize..=8,
        seeds in proptest::collection::vec(any::<u32>(), 100..1500),
    ) {
        let mut tree: BPlusTree<u32, u32> = BPlusTree::new(order);
        for (i, s) in seeds.iter().enumerate() {
            let k = s % 512;
            if i % 4 == 3 {
                tree.remove(&k);
            } else {
                tree.insert(k, *s);
            }
        }
        tree.validate();
    }
}
