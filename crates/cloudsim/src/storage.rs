//! Persistent cloud storage services (S3 / EBS class).
//!
//! Paper §IV-D: "We have also assessed the various cost aspects of the
//! Cloud's persistent storage, such as Amazon S3 and Elastic Block Storage
//! (EBS) … the cost varies among the added benefits of data persistence
//! and machine instances with higher bandwidth and memory." The detailed
//! study went to a companion paper; this module provides the substrate to
//! run that comparison here: storage tiers with 2010-era pricing
//! (capacity per GB-month plus per-request fees) and latency/bandwidth
//! models, and a [`PersistentStore`] that meters byte-hours and requests
//! for billing.

use std::collections::HashMap;

use bytes::Bytes;

use crate::US_PER_SEC;

/// Pricing and performance model of one storage service.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageTier {
    /// Service name (e.g. `s3`).
    pub name: String,
    /// Capacity price in micro-dollars per GB-month.
    pub microdollars_per_gb_month: u64,
    /// Micro-dollars per 1 000 write requests.
    pub put_microdollars_per_1k: u64,
    /// Micro-dollars per 1 000 read requests.
    pub get_microdollars_per_1k: u64,
    /// First-byte read latency in microseconds.
    pub read_latency_us: u64,
    /// First-byte write latency in microseconds.
    pub write_latency_us: u64,
    /// Sustained throughput in bytes per second.
    pub bandwidth_bps: u64,
}

impl StorageTier {
    /// Amazon S3, 2010 us-east: $0.15/GB-month, $0.01/1k PUT, $0.001/1k
    /// GET; object-store latency (~tens of ms).
    pub fn s3_2010() -> Self {
        Self {
            name: "s3".into(),
            microdollars_per_gb_month: 150_000,
            put_microdollars_per_1k: 10_000,
            get_microdollars_per_1k: 1_000,
            read_latency_us: 60_000,
            write_latency_us: 80_000,
            bandwidth_bps: 25 * 1024 * 1024,
        }
    }

    /// Amazon EBS, 2010: $0.10/GB-month plus $0.10 per million I/O
    /// requests; block-device latency (~ms).
    pub fn ebs_2010() -> Self {
        Self {
            name: "ebs".into(),
            microdollars_per_gb_month: 100_000,
            put_microdollars_per_1k: 100,
            get_microdollars_per_1k: 100,
            read_latency_us: 2_000,
            write_latency_us: 3_000,
            bandwidth_bps: 60 * 1024 * 1024,
        }
    }

    /// Time to read an object of `bytes`, in microseconds.
    pub fn read_us(&self, bytes: u64) -> u64 {
        self.read_latency_us + (bytes * US_PER_SEC).div_ceil(self.bandwidth_bps)
    }

    /// Time to write an object of `bytes`, in microseconds.
    pub fn write_us(&self, bytes: u64) -> u64 {
        self.write_latency_us + (bytes * US_PER_SEC).div_ceil(self.bandwidth_bps)
    }
}

/// A metered key-value store on one storage tier.
///
/// The store tracks a byte-hours integral (for GB-month capacity billing)
/// and request counts. It does not advance any clock itself — operations
/// return their modelled duration and the caller charges it, consistent
/// with the rest of the simulator.
#[derive(Debug)]
pub struct PersistentStore {
    tier: StorageTier,
    objects: HashMap<u64, Bytes>,
    bytes: u64,
    /// `∫ bytes dt` in byte-microseconds, up to `last_change_us`.
    byte_us: u128,
    last_change_us: u64,
    puts: u64,
    gets: u64,
}

impl PersistentStore {
    /// An empty store on `tier`.
    pub fn new(tier: StorageTier) -> Self {
        Self {
            tier,
            objects: HashMap::new(),
            bytes: 0,
            byte_us: 0,
            last_change_us: 0,
            puts: 0,
            gets: 0,
        }
    }

    /// The tier model.
    pub fn tier(&self) -> &StorageTier {
        &self.tier
    }

    /// Objects currently stored.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Bytes currently stored.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total write requests issued.
    pub fn puts(&self) -> u64 {
        self.puts
    }

    /// Total read requests issued.
    pub fn gets(&self) -> u64 {
        self.gets
    }

    fn settle(&mut self, now_us: u64) {
        let dt = now_us.saturating_sub(self.last_change_us);
        self.byte_us += self.bytes as u128 * dt as u128;
        self.last_change_us = now_us;
    }

    /// Write an object at virtual time `now_us`; returns the modelled
    /// duration for the caller to charge. The payload is taken as
    /// refcounted [`Bytes`], so the cache's write-behind eviction path
    /// shares the record allocation instead of copying it.
    pub fn put(&mut self, now_us: u64, key: u64, value: impl Into<Bytes>) -> u64 {
        self.settle(now_us);
        let value = value.into();
        let new_len = value.len() as u64;
        if let Some(old) = self.objects.insert(key, value) {
            self.bytes -= old.len() as u64;
        }
        self.bytes += new_len;
        self.puts += 1;
        self.tier.write_us(new_len)
    }

    /// Read an object at virtual time `now_us`; returns the payload (if
    /// present, as a refcount-bump clone) and the modelled duration.
    pub fn get(&mut self, now_us: u64, key: u64) -> (Option<Bytes>, u64) {
        self.gets += 1;
        let found = self.objects.get(&key).cloned();
        let bytes = found.as_ref().map(|v| v.len() as u64).unwrap_or(0);
        let _ = now_us; // reads do not change the capacity integral
        (found, self.tier.read_us(bytes))
    }

    /// Delete an object at virtual time `now_us` (no request fee is
    /// modelled for deletes, matching 2010 S3 pricing).
    pub fn delete(&mut self, now_us: u64, key: u64) -> bool {
        self.settle(now_us);
        match self.objects.remove(&key) {
            Some(v) => {
                self.bytes -= v.len() as u64;
                true
            }
            None => false,
        }
    }

    /// Total cost in micro-dollars as of `now_us`: capacity (GB-months,
    /// prorated) plus request fees.
    pub fn cost_microdollars(&self, now_us: u64) -> u64 {
        let dt = now_us.saturating_sub(self.last_change_us);
        let byte_us = self.byte_us + self.bytes as u128 * dt as u128;
        // GB-month = 2^30 bytes * (30 days of microseconds).
        let gb_month_us: u128 = (1u128 << 30) * 30 * 24 * 3600 * US_PER_SEC as u128;
        let capacity = (byte_us * self.tier.microdollars_per_gb_month as u128 / gb_month_us) as u64;
        let requests = self.puts * self.tier.put_microdollars_per_1k / 1000
            + self.gets * self.tier.get_microdollars_per_1k / 1000;
        capacity + requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR_US: u64 = 3600 * US_PER_SEC;

    #[test]
    fn put_get_delete_roundtrip() {
        let mut s = PersistentStore::new(StorageTier::ebs_2010());
        let d = s.put(0, 7, vec![1, 2, 3]);
        assert!(d >= 3_000);
        assert_eq!(s.len(), 1);
        assert_eq!(s.bytes(), 3);
        let (got, d) = s.get(10, 7);
        assert_eq!(got.as_deref(), Some(&[1u8, 2, 3][..]));
        assert!(d >= 2_000);
        assert!(s.delete(20, 7));
        assert!(!s.delete(21, 7));
        assert!(s.is_empty());
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    fn replacement_adjusts_bytes() {
        let mut s = PersistentStore::new(StorageTier::s3_2010());
        s.put(0, 1, vec![0; 100]);
        s.put(0, 1, vec![0; 10]);
        assert_eq!(s.bytes(), 10);
        assert_eq!(s.puts(), 2);
    }

    #[test]
    fn capacity_billing_integrates_byte_hours() {
        let mut s = PersistentStore::new(StorageTier::s3_2010());
        // 1 GiB for one 30-day month = exactly the GB-month rate.
        s.put(0, 1, vec![0; 1 << 30]);
        let month_us = 30 * 24 * HOUR_US;
        let cost = s.cost_microdollars(month_us);
        let expect = 150_000 + 10; // capacity + one PUT fee (10 µ$)
        assert!(
            (cost as i64 - expect as i64).abs() <= 1,
            "cost {cost}, expected ~{expect}"
        );
    }

    #[test]
    fn request_fees_accumulate() {
        let mut s = PersistentStore::new(StorageTier::s3_2010());
        for k in 0..1000u64 {
            s.put(0, k, vec![0; 8]);
        }
        for k in 0..2000u64 {
            s.get(0, k % 1000);
        }
        // 1000 PUTs = $0.01 = 10 000 µ$; 2000 GETs = $0.002 = 2 000 µ$.
        let cost = s.cost_microdollars(0);
        assert_eq!(cost, 12_000);
    }

    #[test]
    fn deleting_stops_capacity_accrual() {
        let mut s = PersistentStore::new(StorageTier::ebs_2010());
        s.put(0, 1, vec![0; 1 << 30]);
        s.delete(10 * HOUR_US, 1);
        let at_10h = s.cost_microdollars(10 * HOUR_US);
        let at_1000h = s.cost_microdollars(1000 * HOUR_US);
        assert_eq!(at_10h, at_1000h, "empty store must stop accruing");
    }

    #[test]
    fn s3_reads_are_slower_but_cheaper_to_keep_than_ebs_is_to_request() {
        let s3 = StorageTier::s3_2010();
        let ebs = StorageTier::ebs_2010();
        assert!(s3.read_us(1024) > ebs.read_us(1024));
        assert!(s3.get_microdollars_per_1k > ebs.get_microdollars_per_1k);
        assert!(s3.microdollars_per_gb_month > ebs.microdollars_per_gb_month);
    }

    #[test]
    fn missing_objects_read_fast_and_empty() {
        let mut s = PersistentStore::new(StorageTier::s3_2010());
        let (got, d) = s.get(0, 404);
        assert_eq!(got, None);
        assert_eq!(d, s.tier().read_latency_us);
        assert_eq!(s.gets(), 1);
    }
}
