//! Batch equals sequence: `ShardedNode::put_many` must leave exactly what
//! the put rules applied one item at a time leave — per-item verdicts,
//! `used_bytes`, `record_count`, live slab slots and the stored bytes —
//! under a capacity that binds in the middle of a frame and replacements
//! that grow and shrink.

use std::collections::BTreeMap;

use ecc_core::slab::{footprint, SizeClasses};
use ecc_core::{PutOutcome, ShardedNode};
use proptest::prelude::*;

/// The reference: the single-put rules, one item at a time. Only the
/// footprint growth over the record a key already holds counts against
/// capacity; a growing item that no longer fits is refused and leaves the
/// old record; a shrinking one frees the difference.
#[derive(Default)]
struct Reference {
    map: BTreeMap<u64, Vec<u8>>,
    used: u64,
}

impl Reference {
    fn put(&mut self, capacity: u64, key: u64, value: &[u8]) -> PutOutcome {
        let old = self.map.get(&key).map_or(0, |v| footprint(v.len()));
        let new = footprint(value.len());
        if new > old && self.used + (new - old) > capacity {
            return PutOutcome::Overflow;
        }
        self.used = self.used + new - old;
        self.map.insert(key, value.to_vec());
        PutOutcome::Stored
    }

    /// Slab slots the stored records occupy (oversize ones live on the
    /// heap).
    fn slots(&self) -> u64 {
        let classes = SizeClasses::canonical();
        self.map
            .values()
            .filter(|v| classes.index_for(v.len()).is_some())
            .count() as u64
    }
}

/// Payload lengths: mostly small (a few classes, so replacements both grow
/// and shrink), some mid-size, a few past the largest class.
fn len_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        8 => 0usize..400,
        2 => 1_000usize..6_000,
        1 => 77_000usize..80_000,
    ]
}

/// `(key, len)` items over few keys, so a frame replaces what it or the
/// frame before it stored.
fn frame_strategy() -> impl Strategy<Value = Vec<(u64, usize)>> {
    proptest::collection::vec((0u64..24, len_strategy()), 0..48)
}

fn payloads(frame: &[(u64, usize)], salt: usize) -> Vec<(u64, Vec<u8>)> {
    frame
        .iter()
        .enumerate()
        .map(|(i, &(key, len))| (key, vec![((i + salt) % 251) as u8; len]))
        .collect()
}

fn live_slots(node: &ShardedNode) -> u64 {
    node.slab_stats().iter().map(|c| c.live_slots).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_batch_equals_its_items_put_one_at_a_time(
        first in frame_strategy(),
        second in frame_strategy(),
        binding in 0.15f64..1.2,
    ) {
        let first = payloads(&first, 0);
        let second = payloads(&second, 97);
        // A capacity that the two frames' total footprint overruns by a
        // random factor, so refusals land mid-frame.
        let total: u64 = first.iter().chain(&second).map(|(_, v)| footprint(v.len())).sum();
        let capacity = (total as f64 * binding) as u64;

        let node = ShardedNode::new(capacity, 4, 4);
        let mut reference = Reference::default();
        for frame in [&first, &second] {
            let items: Vec<(u64, &[u8])> = frame.iter().map(|(k, v)| (*k, &v[..])).collect();
            let mut verdicts = Vec::new();
            node.put_many(&items, |v| verdicts.push(v));
            let expected: Vec<PutOutcome> = items
                .iter()
                .map(|&(key, value)| reference.put(capacity, key, value))
                .collect();
            prop_assert_eq!(verdicts, expected);
            prop_assert_eq!(node.used_bytes(), reference.used);
            prop_assert_eq!(node.record_count(), reference.map.len() as u64);
            prop_assert_eq!(live_slots(&node), reference.slots());
        }
        prop_assert_eq!(
            node.keys_in_range(0, u64::MAX),
            reference.map.keys().copied().collect::<Vec<_>>()
        );
        for (key, value) in &reference.map {
            let stored = node.get_with(*key, |r| r.map(|r| r.as_slice().to_vec()));
            prop_assert_eq!(stored.as_ref(), Some(value));
        }
        node.validate();
    }
}
