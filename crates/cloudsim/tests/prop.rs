//! Property tests for the cloud substrate: billing, storage metering and
//! the network model must be conservative and total.

use ecc_cloudsim::{
    BootLatency, InstanceType, NetModel, PersistentStore, SimClock, SimCloud, StorageTier,
    US_PER_SEC,
};
use proptest::prelude::*;

proptest! {
    /// Node-seconds integrate exactly: for any interleaving of allocations,
    /// waits and deallocations, the integral equals the sum of instance
    /// lifetimes.
    #[test]
    fn billing_node_seconds_are_exact(
        ops in proptest::collection::vec((any::<bool>(), 1u64..10_000), 1..60),
    ) {
        let mut clock = SimClock::new();
        let mut cloud = SimCloud::new(1, BootLatency::instant());
        let mut live: Vec<ecc_cloudsim::InstanceId> = Vec::new();
        let mut expected_us: u64 = 0;
        let mut last_t = 0u64;
        let settle = |now: u64, live: &Vec<ecc_cloudsim::InstanceId>, last: &mut u64, acc: &mut u64| {
            *acc += (now - *last) * live.len() as u64;
            *last = now;
        };
        for (alloc, dt_us) in ops {
            let now = clock.advance_us(dt_us);
            settle(now, &live, &mut last_t, &mut expected_us);
            if alloc || live.is_empty() {
                live.push(cloud.allocate(now, InstanceType::ec2_small()).id);
            } else {
                let id = live.swap_remove(0);
                cloud.deallocate(now, id);
            }
        }
        let now = clock.advance_us(1000);
        settle(now, &live, &mut last_t, &mut expected_us);
        prop_assert_eq!(cloud.billing(now).node_us, expected_us);
    }

    /// Billing is monotone in time: waiting longer never reduces the bill.
    #[test]
    fn billing_is_monotone(waits in proptest::collection::vec(1u64..3600, 1..20)) {
        let mut clock = SimClock::new();
        let mut cloud = SimCloud::new(2, BootLatency::instant());
        let _ = cloud.allocate(0, InstanceType::ec2_small());
        let _ = cloud.allocate(0, InstanceType::ec2_large());
        let mut last = 0;
        for w in waits {
            let now = clock.advance_us(w * US_PER_SEC);
            let cost = cloud.billing(now).microdollars;
            prop_assert!(cost >= last);
            last = cost;
        }
    }

    /// Transfer time is monotone in payload size and additive-dominant:
    /// shipping two payloads separately never beats one combined transfer
    /// by more than the extra latency.
    #[test]
    fn net_model_is_monotone_and_subadditive(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        for net in [NetModel::lan(), NetModel::wan()] {
            prop_assert!(net.transfer_us(a.max(b)) >= net.transfer_us(a.min(b)));
            let combined = net.transfer_us(a + b);
            let separate = net.transfer_us(a) + net.transfer_us(b);
            prop_assert!(separate + 2 >= combined, "{separate} vs {combined}");
        }
    }

    /// The store's byte counter always equals the sum of resident object
    /// sizes, under arbitrary put/delete interleavings.
    #[test]
    fn persistent_store_bytes_are_conserved(
        ops in proptest::collection::vec((any::<u8>(), 0usize..200, any::<bool>()), 1..100),
    ) {
        let mut store = PersistentStore::new(StorageTier::s3_2010());
        let mut oracle: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut t = 0u64;
        for (key, size, is_put) in ops {
            t += 7;
            let key = key as u64 % 32;
            if is_put {
                store.put(t, key, vec![0; size]);
                oracle.insert(key, size);
            } else {
                let existed = store.delete(t, key);
                prop_assert_eq!(existed, oracle.remove(&key).is_some());
            }
        }
        let expect: u64 = oracle.values().map(|&s| s as u64).sum();
        prop_assert_eq!(store.bytes(), expect);
        prop_assert_eq!(store.len(), oracle.len());
        for (k, size) in oracle {
            let (got, _) = store.get(t, k);
            prop_assert_eq!(got.map(|v| v.len()), Some(size));
        }
    }

    /// Storage cost is monotone in time and in activity.
    #[test]
    fn storage_cost_is_monotone(sizes in proptest::collection::vec(1usize..4096, 1..40)) {
        let mut store = PersistentStore::new(StorageTier::ebs_2010());
        let mut t = 0u64;
        let mut last_cost = 0u64;
        for (i, size) in sizes.into_iter().enumerate() {
            t += 3600 * US_PER_SEC;
            store.put(t, i as u64, vec![0; size]);
            let cost = store.cost_microdollars(t);
            prop_assert!(cost >= last_cost, "cost went down: {last_cost} -> {cost}");
            last_cost = cost;
        }
    }
}
