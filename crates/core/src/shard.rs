//! Intra-node concurrency: a hash-striped, atomically-accounted cache
//! index for the wire server.
//!
//! The paper's cache nodes serve "a litany of simultaneous queries"
//! (§III); a single `Mutex<CacheNode>` serializes them all, so one slow
//! PUT stalls every concurrent GET on that node. [`ShardedNode`] removes
//! the global lock:
//!
//! * the key space is hash-striped over `stripes` independent B+-trees,
//!   each behind its own `RwLock`, so point ops on different stripes
//!   never contend and concurrent GETs of the same stripe share a read
//!   lock;
//! * byte/record accounting lives in atomics, so `Stats` never takes any
//!   lock and a PUT admission decision is a CAS reservation instead of a
//!   critical section;
//! * range and structural ops (sweep, keys, range-stats, drain) take a
//!   node-wide **structural** `RwLock` in write mode, which quiesces the
//!   point ops (they hold it in read mode) and lets the sweep walk the
//!   stripes in index order against a stable snapshot;
//! * payload bytes live in a per-node [`SlabArena`] (DESIGN.md §17):
//!   [`ShardedNode::put_many`] copies each wire payload of a batch into a
//!   recycled size-class slot, so steady-state churn makes zero
//!   global-allocator calls, and `||n||` charges each record its **true
//!   footprint** — [`slab::footprint`]`(len)`, the slot size it really
//!   occupies — not its payload length. Oversize and pre-built heap
//!   records are charged the same pure function, so admission, the audit,
//!   and the simtest model all agree bit-exactly.
//!
//! `used_bytes` thus counts *logical residency*: records drained for
//! migration stop being charged when they leave the stripes, even though
//! their slots return to the freelist only when the migration batch drops
//! its handles.
//!
//! **Lock hierarchy** (documented in DESIGN.md §12): `structural` before
//! any stripe lock; stripe locks only in ascending stripe index; the slab
//! arena's per-class page/freelist mutexes are leaves below every stripe
//! (records drop — and free slots — while a stripe guard is held); the
//! accounting atomics participate in no lock order. A write holds
//! `structural.read` + exactly one stripe lock; a batch read holds
//! `structural.read` + the read locks of its keys' stripes, taken in
//! ascending index and held together; structural ops hold
//! `structural.write` + stripes in ascending order, one at a time.

use std::sync::atomic::{AtomicU64, Ordering};

use ecc_bptree::{BPlusTree, Upsert};
use ecc_obs::ObsRegistry;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::lockorder::{LockClass, Ordered};
use crate::record::Record;
use crate::slab::{self, ClassStats, SlabArena};

/// Default stripe count for the wire server (must be a power of two).
pub const DEFAULT_STRIPES: usize = 16;

/// Most stripes a node has: a batch read's stripe set is one `u64` mask.
const MAX_STRIPES: usize = 64;

/// Most keys one batch read serves under one set of stripe guards
/// ([`ShardedNode::get_many_with`]).
pub const GET_BATCH: usize = 32;

/// A batch read also ends once the records it lent reach this many
/// payload bytes, so a stripe writer waits for at most this much copying
/// plus one record's, whatever the values' size (DESIGN.md §12 prices
/// it).
const BATCH_BYTES: usize = 64 * 1024;

/// Multiplicative (Fibonacci) hash spreading adjacent keys — which the
/// paper's range semantics make *likely* — across stripes.
#[inline]
fn stripe_of(key: u64, mask: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize & mask
}

/// Verdict of a capacity-checked insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutOutcome {
    /// The record was stored (insert or replacement).
    Stored,
    /// Refused: the byte *growth* would overflow the node (the replacement
    /// rule shared with `CacheNode`: replacing a record frees its bytes).
    Overflow,
}

/// What a [`ShardedNode::check_invariants`] audit found inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardAuditError {
    /// The atomic byte counter disagrees with the stripes' actual total.
    UsedBytesMismatch {
        /// Value of the atomic accumulator.
        accounted: u64,
        /// Sum of record footprints over every stripe.
        actual: u64,
    },
    /// The atomic record counter disagrees with the stripes' actual total.
    RecordCountMismatch {
        /// Value of the atomic accumulator.
        accounted: u64,
        /// Number of records over every stripe.
        actual: u64,
    },
    /// Resident bytes exceed the configured capacity.
    OverCapacity {
        /// Resident bytes.
        used: u64,
        /// The capacity bound.
        capacity: u64,
    },
}

impl std::fmt::Display for ShardAuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UsedBytesMismatch { accounted, actual } => {
                write!(f, "used-bytes atomic {accounted} != stripe total {actual}")
            }
            Self::RecordCountMismatch { accounted, actual } => {
                write!(
                    f,
                    "record-count atomic {accounted} != stripe total {actual}"
                )
            }
            Self::OverCapacity { used, capacity } => {
                write!(f, "node over capacity: {used} > {capacity}")
            }
        }
    }
}

impl std::error::Error for ShardAuditError {}

/// One stripe's audited read guard.
type StripeRead<'a> = Ordered<RwLockReadGuard<'a, BPlusTree<u64, Record>>>;

/// The locks of a batch read of at most `N` keys: the read guards of its
/// stripes, in ascending stripe order, then `structural.read`. Fields drop
/// in order, so the stripes are released before the structural lock.
struct StripeReads<'a, const N: usize> {
    mask: usize,
    /// Bit `i` set: stripe `i` is held, its guard at the rank of bit `i`.
    held: u64,
    guards: [Option<StripeRead<'a>>; N],
    _structural: Ordered<RwLockReadGuard<'a, ()>>,
}

impl<const N: usize> StripeReads<'_, N> {
    /// Look `key` up in its stripe, which must be one of the batch's.
    #[inline]
    fn get(&self, key: u64) -> Option<&Record> {
        let below = (1u64 << stripe_of(key, self.mask)) - 1;
        let slot = (self.held & below).count_ones() as usize;
        self.guards.get(slot)?.as_ref()?.get(&key)
    }
}

/// A cache-server index that scales with cores: hash-striped B+-trees,
/// atomic accounting, a slab payload arena, and a structural lock for
/// range ops.
pub struct ShardedNode {
    capacity_bytes: u64,
    mask: usize,
    /// Node-wide order point: read-held by point ops, write-held by
    /// range/structural ops. See the module docs for the lock hierarchy.
    structural: RwLock<()>,
    stripes: Box<[RwLock<BPlusTree<u64, Record>>]>,
    /// The node's payload arena: canonical size-class geometry, shared by
    /// every stripe (slots recycle across the whole node).
    arena: SlabArena,
    /// `||n||` — true footprint of resident records (slot sizes, not
    /// payload lengths); PUT admission CAS-reserves growth here *before*
    /// touching a stripe.
    used: AtomicU64,
    /// Resident record count.
    count: AtomicU64,
    /// When present, stripe/structural lock acquisitions that had to wait
    /// record how long under `lock_wait_us:{stripe,structural}`.
    obs: Option<ObsRegistry>,
}

impl std::fmt::Debug for ShardedNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedNode")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("stripes", &self.stripe_count())
            .field("used", &self.used_bytes())
            .field("count", &self.record_count())
            .finish_non_exhaustive()
    }
}

impl ShardedNode {
    /// A node with `capacity_bytes` of usable memory, B+-trees of
    /// `btree_order`, and `stripes` hash stripes (rounded up to a power
    /// of two, from 1 to 64).
    pub fn new(capacity_bytes: u64, btree_order: usize, stripes: usize) -> Self {
        let n = stripes.clamp(1, MAX_STRIPES).next_power_of_two();
        let stripes: Vec<RwLock<BPlusTree<u64, Record>>> = (0..n)
            .map(|_| RwLock::new(BPlusTree::new(btree_order)))
            .collect();
        Self {
            capacity_bytes,
            mask: n - 1,
            structural: RwLock::new(()),
            stripes: stripes.into_boxed_slice(),
            arena: SlabArena::new(),
            used: AtomicU64::new(0),
            count: AtomicU64::new(0),
            obs: None,
        }
    }

    /// Attach an observability registry; subsequent lock acquisitions that
    /// have to wait record how long under
    /// `lock_wait_us:{stripe,structural}`.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsRegistry) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Number of hash stripes.
    pub fn stripe_count(&self) -> usize {
        self.mask + 1
    }

    /// `⌈n⌉` — the capacity in bytes (lock-free).
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// `||n||` — resident footprint bytes (lock-free).
    #[inline]
    pub fn used_bytes(&self) -> u64 {
        self.used.load(Ordering::Acquire)
    }

    /// Resident record count (lock-free).
    #[inline]
    pub fn record_count(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// The node's payload arena (diagnostics, tests).
    pub fn arena(&self) -> &SlabArena {
        &self.arena
    }

    /// Heap bytes of the stripes' B+-tree node storage, summed: the
    /// `mem_bytes:tree` gauge. Holds `structural.read` and reads the
    /// stripes in index order, one read lock at a time.
    pub fn tree_bytes(&self) -> u64 {
        let _structural = self.read_lock(&self.structural, LockClass::Structural);
        let stripes = self.stripes.iter().enumerate();
        stripes
            .map(|(i, stripe)| self.read_lock(stripe, LockClass::Stripe(i)).node_bytes() as u64)
            .sum()
    }

    /// Per-class slab occupancy, read under each class's freelist lock.
    pub fn slab_stats(&self) -> Vec<ClassStats> {
        self.arena.class_stats()
    }

    /// Acquire `lock`, whose place in the hierarchy is `class`, shared.
    /// The lock-order auditor sees the acquisition first. Only an
    /// acquisition that has to wait is timed: the uncontended one is a
    /// `try_read` with no clock read and no registry access, so
    /// `lock_wait_us:*` hold the waits of the acquisitions that waited,
    /// not a zero per request.
    #[inline]
    fn read_lock<'a, T>(
        &self,
        lock: &'a RwLock<T>,
        class: LockClass,
    ) -> Ordered<RwLockReadGuard<'a, T>> {
        Ordered::acquire(class, || match lock.try_read() {
            Some(guard) => guard,
            None => self.timed_wait(class, || lock.read()),
        })
    }

    /// Acquire `lock` exclusively, audited and timed like
    /// [`Self::read_lock`].
    #[inline]
    fn write_lock<'a, T>(
        &self,
        lock: &'a RwLock<T>,
        class: LockClass,
    ) -> Ordered<RwLockWriteGuard<'a, T>> {
        Ordered::acquire(class, || match lock.try_write() {
            Some(guard) => guard,
            None => self.timed_wait(class, || lock.write()),
        })
    }

    /// Block in `acquire` and record how long it took under
    /// `lock_wait_us:{structural,stripe}` (not timed when unobserved). A
    /// traced request's wait is also a `lock_wait` span under the caller's
    /// live span (the server's `srv_exec`); the unsampled path costs one
    /// thread-local peek, and an acquisition that does not wait opens none.
    #[cold]
    fn timed_wait<G>(&self, class: LockClass, acquire: impl FnOnce() -> G) -> G {
        let Some(obs) = &self.obs else {
            return acquire();
        };
        let span = obs.span_follow("lock_wait");
        let t0 = obs.now_us();
        let guard = acquire();
        drop(span);
        let name = match class {
            LockClass::Structural => "lock_wait_us:structural",
            _ => "lock_wait_us:stripe",
        };
        obs.record(name, obs.now_us().saturating_sub(t0));
        guard
    }

    /// Take `structural.read`, then the read lock of every stripe the
    /// first `N` of `keys` fall in, once each and in ascending index — the
    /// locks of one batch read, held until the returned guards drop.
    fn read_stripes<const N: usize>(&self, keys: &[u64]) -> StripeReads<'_, N> {
        let structural = self.read_lock(&self.structural, LockClass::Structural);
        let mut held = 0u64;
        for &key in keys.iter().take(N) {
            held |= 1 << stripe_of(key, self.mask);
        }
        let mut guards = [const { None }; N];
        let mut wanted = held;
        for guard in &mut guards {
            if wanted == 0 {
                break;
            }
            let i = wanted.trailing_zeros() as usize;
            wanted &= wanted - 1;
            *guard = Some(self.read_lock(&self.stripes[i], LockClass::Stripe(i)));
        }
        StripeReads {
            mask: self.mask,
            held,
            guards,
            _structural: structural,
        }
    }

    /// Look up each key and hand its record to `f` by reference, in key
    /// order — the one lookup path. The keys are served in batches of up
    /// to [`GET_BATCH`] keys, a batch ending early once its records reach
    /// 64 KiB of payload. A batch takes `structural.read` once and each of
    /// its stripes' read locks once, in ascending index and held for the
    /// whole batch, then makes every lookup with no lock operation in
    /// between, so the cache misses of consecutive lookups overlap. A
    /// batch is one linearizable read of its keys: no write lands between
    /// two of its lookups. Nothing is cloned or allocated: a caller that
    /// only needs the bytes (the wire `Get`) copies them out inside `f`,
    /// so a writer of a batch's stripe waits for at most that batch's
    /// copies, and concurrent readers never exclude each other.
    pub fn get_many_with(&self, mut keys: &[u64], mut f: impl FnMut(Option<&Record>)) {
        while !keys.is_empty() {
            let batch = &keys[..keys.len().min(GET_BATCH)];
            let reads = self.read_stripes::<GET_BATCH>(batch);
            let (mut served, mut lent) = (0, 0);
            for &key in batch {
                let rec = reads.get(key);
                lent += rec.map_or(0, Record::len);
                f(rec);
                served += 1;
                if lent >= BATCH_BYTES {
                    break;
                }
            }
            keys = &keys[served..];
        }
    }

    /// [`Self::get_many_with`] for one key: a batch of one.
    pub fn get_with<T>(&self, key: u64, f: impl FnOnce(Option<&Record>) -> T) -> T {
        let reads = self.read_stripes::<1>(&[key]);
        f(reads.get(key))
    }

    /// Look up a record; the returned clone shares the payload allocation
    /// (refcount bump, no memcpy).
    pub fn get(&self, key: u64) -> Option<Record> {
        self.get_with(key, |r| r.cloned())
    }

    /// Store a pre-built record (in-process callers). Charged its
    /// canonical footprint like every other record; payloads arriving as
    /// raw wire bytes go through [`ShardedNode::put_many`], which lands
    /// them in the slab arena.
    pub fn put(&self, key: u64, record: Record) -> PutOutcome {
        self.store(key, record.len(), move || record)
    }

    /// Copy `payload` into a slot of the node's arena and store it — a
    /// batch of one for [`ShardedNode::put_many`].
    pub fn put_slice(&self, key: u64, payload: &[u8]) -> PutOutcome {
        let mut out = PutOutcome::Overflow;
        self.put_many(&[(key, payload)], |verdict| out = verdict);
        out
    }

    /// Store a batch of raw payloads in order — the wire-ingest path of
    /// `Put` and `PutMany`, which borrow the values from the connection's
    /// read buffer. Each item is stored as by one `put`, and its verdict
    /// goes to `verdict` in arrival order: a refused item never stops the
    /// rest. An item takes the structural lock and then its own stripe, and
    /// makes one B+-tree descent; the leaf shows it the old record, the
    /// admission CAS runs, and only an admitted item takes a slab slot, so
    /// a refused one touches neither the arena nor the allocator.
    /// `used_bytes`, `record_count` and the slab's counters stay exact per
    /// item.
    pub fn put_many(&self, items: &[(u64, &[u8])], mut verdict: impl FnMut(PutOutcome)) {
        for &(key, payload) in items {
            verdict(self.store(key, payload.len(), || {
                Record::alloc_in(&self.arena, payload)
            }));
        }
    }

    /// The one store path, under `structural.read` + the key's stripe
    /// write lock. The replacement-growth capacity rule: only the
    /// *footprint* growth over any existing record counts against
    /// capacity, and a growing replacement that no longer fits is refused
    /// with the old record left intact and `make` never called. Admission
    /// is a CAS reservation on the byte atomic — concurrent PUTs on
    /// different stripes cannot jointly overshoot the capacity.
    fn store(&self, key: u64, new_len: usize, make: impl FnOnce() -> Record) -> PutOutcome {
        let _structural = self.read_lock(&self.structural, LockClass::Structural);
        let idx = stripe_of(key, self.mask);
        let mut stripe = self.write_lock(&self.stripes[idx], LockClass::Stripe(idx));

        let new_fp = slab::footprint(new_len);
        let upserted = stripe.upsert(key, |old| {
            let old_fp = old.map_or(0, |r| slab::footprint(r.len()));
            if new_fp > old_fp {
                let growth = new_fp - old_fp;
                self.used
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |u| {
                        let grown = u.checked_add(growth)?;
                        (grown <= self.capacity_bytes).then_some(grown)
                    })
                    .ok()?;
            } else if old_fp > new_fp {
                self.used.fetch_sub(old_fp - new_fp, Ordering::AcqRel);
            }
            Some(make())
        });
        match upserted {
            Upsert::Refused => PutOutcome::Overflow,
            Upsert::Inserted => {
                self.count.fetch_add(1, Ordering::AcqRel);
                PutOutcome::Stored
            }
            // The old record drops here, under the stripe guard, and its
            // slot goes back on its class freelist.
            Upsert::Replaced(_) => PutOutcome::Stored,
        }
    }

    /// Remove a record; returns it (payload shared, not copied — the slot
    /// outlives residency until the caller drops the handle).
    pub fn remove(&self, key: u64) -> Option<Record> {
        let _structural = self.read_lock(&self.structural, LockClass::Structural);
        let idx = stripe_of(key, self.mask);
        let mut stripe = self.write_lock(&self.stripes[idx], LockClass::Stripe(idx));
        let removed = stripe.remove(&key);
        if let Some(rec) = &removed {
            self.used
                .fetch_sub(slab::footprint(rec.len()), Ordering::AcqRel);
            self.count.fetch_sub(1, Ordering::AcqRel);
        }
        removed
    }

    /// Run `f` under the structural write lock — point ops are quiesced
    /// (they hold `structural.read`) for the duration.
    fn with_structural<T>(&self, f: impl FnOnce() -> T) -> T {
        let _structural = self.write_lock(&self.structural, LockClass::Structural);
        f()
    }

    /// Remove and return all records in the inclusive key range, in key
    /// order — the destructive half of Sweep-and-Migrate (Algorithm 2).
    /// The drained records stop counting against `||n||` immediately;
    /// their slab slots recycle when the migration batch drops them.
    pub fn drain_range(&self, lo: u64, hi: u64) -> Vec<(u64, Record)> {
        self.with_structural(|| {
            let mut out: Vec<(u64, Record)> = Vec::new();
            for (i, stripe) in self.stripes.iter().enumerate() {
                out.extend(
                    self.write_lock(stripe, LockClass::Stripe(i))
                        .drain_range(&lo, &hi),
                );
            }
            let (bytes, records) = out.iter().fold((0u64, 0u64), |(b, n), (_, r)| {
                (b + slab::footprint(r.len()), n + 1)
            });
            self.used.fetch_sub(bytes, Ordering::AcqRel);
            self.count.fetch_sub(records, Ordering::AcqRel);
            out.sort_unstable_by_key(|(k, _)| *k);
            out
        })
    }

    /// Keys in the inclusive range, in order (the coordinator's audit and
    /// re-sync).
    pub fn keys_in_range(&self, lo: u64, hi: u64) -> Vec<u64> {
        self.with_structural(|| {
            let mut keys: Vec<u64> = Vec::new();
            for (i, stripe) in self.stripes.iter().enumerate() {
                keys.extend(
                    self.read_lock(stripe, LockClass::Stripe(i))
                        .keys_in_range(lo..=hi),
                );
            }
            keys.sort_unstable();
            keys
        })
    }

    /// Verify that the atomic accounting matches the stripes' actual
    /// contents — `used` must equal the sum of true per-record footprints
    /// — and that capacity holds. Takes the structural write lock, so it
    /// sees a quiesced node.
    pub fn check_invariants(&self) -> Result<(), ShardAuditError> {
        self.with_structural(|| {
            let mut bytes = 0u64;
            let mut records = 0u64;
            for (i, stripe) in self.stripes.iter().enumerate() {
                let tree = self.read_lock(stripe, LockClass::Stripe(i));
                for (_, r) in tree.range(..) {
                    bytes += slab::footprint(r.len());
                    records += 1;
                }
            }
            let used = self.used.load(Ordering::Acquire);
            let count = self.count.load(Ordering::Acquire);
            if used != bytes {
                return Err(ShardAuditError::UsedBytesMismatch {
                    accounted: used,
                    actual: bytes,
                });
            }
            if count != records {
                return Err(ShardAuditError::RecordCountMismatch {
                    accounted: count,
                    actual: records,
                });
            }
            if used > self.capacity_bytes {
                return Err(ShardAuditError::OverCapacity {
                    used,
                    capacity: self.capacity_bytes,
                });
            }
            Ok(())
        })
    }

    /// Validate stripe B+-tree structure and accounting (tests; panics on
    /// violation like `CacheNode::validate`).
    #[expect(clippy::panic, reason = "validate() is the panicking audit wrapper")]
    pub fn validate(&self) {
        self.with_structural(|| {
            for (i, stripe) in self.stripes.iter().enumerate() {
                self.read_lock(stripe, LockClass::Stripe(i)).validate();
            }
        });
        if let Err(e) = self.check_invariants() {
            panic!("sharded node audit failed: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn point_ops_account_bytes_and_count() {
        // filler(300) needs 308 slot bytes → class 352 (footprint table).
        assert_eq!(slab::footprint(300), 352);
        let n = ShardedNode::new(1000, 8, 4);
        assert_eq!(n.put(1, Record::filler(300)), PutOutcome::Stored);
        assert_eq!(n.put(2, Record::filler(300)), PutOutcome::Stored);
        assert_eq!(n.used_bytes(), 704);
        assert_eq!(n.record_count(), 2);
        assert_eq!(n.get(1).map(|r| r.len()), Some(300));
        assert_eq!(n.get(99), None);
        assert_eq!(n.remove(1).map(|r| r.len()), Some(300));
        assert_eq!(n.remove(1), None);
        assert_eq!(n.used_bytes(), 352);
        assert_eq!(n.record_count(), 1);
        n.validate();
    }

    #[test]
    fn tree_bytes_sums_the_stripes_node_storage() {
        let n = ShardedNode::new(1 << 20, 8, 4);
        let one = BPlusTree::<u64, Record>::new(8).node_bytes() as u64;
        assert_eq!(n.tree_bytes(), 4 * one, "one root leaf per stripe");
        for key in 0..1_000 {
            n.put_slice(key, &[1; 8]);
        }
        assert!(n.tree_bytes() > 4 * one);
    }

    #[test]
    fn replacement_growth_rule_matches_cache_node() {
        // Footprints: 56 → 64, 150 → 176, 200 → 224, 10 → 64.
        let n = ShardedNode::new(200, 8, 4);
        assert_eq!(n.put(1, Record::filler(56)), PutOutcome::Stored);
        assert_eq!(n.used_bytes(), 64);
        // Growth within budget: 64 -> 176.
        assert_eq!(n.put(1, Record::filler(150)), PutOutcome::Stored);
        assert_eq!(n.used_bytes(), 176);
        // Growth past capacity (224 > 200): refused, old record intact.
        assert_eq!(n.put(1, Record::filler(200)), PutOutcome::Overflow);
        assert_eq!(n.get(1).map(|r| r.len()), Some(150));
        assert_eq!(n.used_bytes(), 176);
        // Shrinking replacement frees footprint.
        assert_eq!(n.put(1, Record::filler(10)), PutOutcome::Stored);
        assert_eq!(n.used_bytes(), 64);
        n.validate();
    }

    #[test]
    fn fresh_insert_past_capacity_is_refused() {
        // filler(60) occupies an 80-byte slot; two would need 160 > 100.
        let n = ShardedNode::new(100, 8, 2);
        assert_eq!(n.put(1, Record::filler(60)), PutOutcome::Stored);
        assert_eq!(n.put(2, Record::filler(60)), PutOutcome::Overflow);
        assert_eq!(n.get(2), None);
        assert_eq!(n.record_count(), 1);
        n.validate();
    }

    #[test]
    fn range_ops_span_stripes_in_key_order() {
        // filler(10) → 64-byte slot each.
        let n = ShardedNode::new(1 << 20, 8, 8);
        for k in 0..100u64 {
            assert_eq!(n.put(k, Record::filler(10)), PutOutcome::Stored);
        }
        assert_eq!(n.keys_in_range(95, 200), vec![95, 96, 97, 98, 99]);
        let drained = n.drain_range(10, 19);
        assert_eq!(drained.len(), 10);
        assert!(drained.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(n.record_count(), 90);
        assert_eq!(n.used_bytes(), 90 * 64);
        // Inverted range drains nothing.
        assert!(n.drain_range(50, 40).is_empty());
        n.validate();
    }

    #[test]
    fn get_clone_shares_the_payload() {
        let n = ShardedNode::new(1 << 20, 8, 4);
        let rec = Record::filler(4096);
        let ptr = rec.as_slice().as_ptr();
        n.put(7, rec);
        let hit = n.get(7).expect("present");
        assert!(std::ptr::eq(ptr, hit.as_slice().as_ptr()));
    }

    #[test]
    fn get_with_lends_the_stored_record_without_cloning_it() {
        let n = ShardedNode::new(1 << 20, 8, 4);
        assert_eq!(n.put_slice(7, &[3u8; 100]), PutOutcome::Stored);
        let stored = n.get(7).expect("present").as_slice().as_ptr();
        let seen = n.get_with(7, |r| r.map(|r| (r.as_slice().as_ptr(), r.len())));
        assert_eq!(seen, Some((stored, 100)));
        assert!(n.get_with(8, |r| r.is_none()));
    }

    #[test]
    fn get_many_with_answers_in_key_order_across_batches() {
        let n = ShardedNode::new(1 << 20, 8, DEFAULT_STRIPES);
        for key in (0..200u64).step_by(2) {
            assert_eq!(n.put_slice(key, &[key as u8; 3]), PutOutcome::Stored);
        }
        // More keys than one batch, repeats, misses and every stripe.
        let keys: Vec<u64> = (0..3 * GET_BATCH as u64 + 5).map(|i| i * 7 % 211).collect();
        let mut seen = Vec::new();
        n.get_many_with(&keys, |r| seen.push(r.map(|r| r.as_slice()[0])));
        let want: Vec<Option<u8>> = keys
            .iter()
            .map(|&k| (k % 2 == 0 && k < 200).then_some(k as u8))
            .collect();
        assert_eq!(seen, want);
        crate::lockorder::assert_quiescent();
        n.get_many_with(&[], |_| unreachable!("no keys, no call"));

        // Values large enough that a batch ends at its byte bound, after
        // two of them: every key is still answered, in order.
        for key in 300..305u64 {
            assert_eq!(
                n.put_slice(key, &vec![key as u8; 40_000]),
                PutOutcome::Stored
            );
        }
        let keys = [304, 7, 300, 303, 1, 302, 301, 304];
        let mut seen = Vec::new();
        n.get_many_with(&keys, |r| seen.push(r.map(|r| (r.len(), r.as_slice()[0]))));
        let want: Vec<_> = keys
            .iter()
            .map(|&k| (k >= 300).then_some((40_000, k as u8)))
            .collect();
        assert_eq!(seen, want);
        crate::lockorder::assert_quiescent();
    }

    /// The writer wait behind DESIGN.md §12's batch bounds. For values of
    /// 64 B, 2 KiB and the top slab class (76 992 B payload, 77 000 B
    /// slot), a reader reads the same 32 keys back to back with
    /// `get_many_with`, copying into a fresh buffer as a cold
    /// connection's write queue grows, while a writer loops on one of two
    /// things: replacing one of the keys (a stripe writer), or listing
    /// every key with `keys_in_range` (a structural writer, as the
    /// coordinator's re-sync and audit are). Prints each call's time and
    /// the writer's `lock_wait_us:stripe` or `lock_wait_us:structural`.
    /// Run it with `cargo test --release -p ecc-core --lib -- --ignored
    /// writer_wait --nocapture`.
    #[test]
    #[ignore = "timing probe; prints, asserts nothing about speed"]
    fn writer_wait_behind_back_to_back_batch_reads() {
        use ecc_obs::TimeSource;
        use std::sync::atomic::AtomicBool;

        assert_eq!(slab::footprint(76_992), 77_000);
        for len in [64, 2048, 76_992] {
            for writer in ["stripe", "structural"] {
                let obs = ObsRegistry::new(TimeSource::real());
                let n = ShardedNode::new(1 << 30, 64, DEFAULT_STRIPES).with_obs(obs.clone());
                let keys: Vec<u64> = (0..GET_BATCH as u64).collect();
                let value = vec![7u8; len];
                for &k in &keys {
                    assert_eq!(n.put_slice(k, &value), PutOutcome::Stored);
                }
                let done = AtomicBool::new(false);
                let mut calls = Vec::new();
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        while !done.load(Ordering::Acquire) {
                            match writer {
                                "stripe" => drop(n.put_slice(0, &value)),
                                _ => drop(n.keys_in_range(0, u64::MAX)),
                            }
                        }
                    });
                    let clock = TimeSource::real();
                    for _ in 0..2_000 {
                        let mut out: Vec<u8> = Vec::new();
                        let t0 = clock.now_us();
                        n.get_many_with(&keys, |r| {
                            out.extend_from_slice(r.map_or(&[], |r| r.as_slice()))
                        });
                        calls.push(clock.now_us() - t0);
                        assert_eq!(out.len(), GET_BATCH * len);
                    }
                    done.store(true, Ordering::Release);
                });
                calls.sort_unstable();
                let snap = obs.snapshot();
                let waits = snap.hist(&format!("lock_wait_us:{writer}"));
                eprintln!(
                    "{GET_BATCH} x {len} B, {writer} writer: call p50 {} us, max {} us; \
                     writer waits {}, p50 {:?} p90 {:?} max {:?} us",
                    calls[calls.len() / 2],
                    calls[calls.len() - 1],
                    waits.map_or(0, |h| h.count()),
                    waits.map(|h| h.p50()),
                    waits.map(|h| h.p90()),
                    waits.and_then(|h| h.max()),
                );
            }
        }
    }

    #[test]
    fn stripe_count_is_capped_at_one_mask_word() {
        assert_eq!(ShardedNode::new(1, 8, 1000).stripe_count(), MAX_STRIPES);
        assert_eq!(ShardedNode::new(1, 8, 0).stripe_count(), 1);
        assert_eq!(ShardedNode::new(1, 8, 5).stripe_count(), 8);
    }

    #[test]
    fn only_a_lock_acquisition_that_waits_is_timed() {
        use ecc_obs::TimeSource;
        use std::sync::atomic::AtomicBool;

        let obs = ObsRegistry::new(TimeSource::real());
        let n = ShardedNode::new(1 << 20, 8, 4).with_obs(obs.clone());
        n.put_slice(7, &[1u8; 10]);
        assert!(n.get(7).is_some());
        assert!(n.remove(7).is_some());
        assert!(n.keys_in_range(0, 100).is_empty());
        let snap = obs.snapshot();
        assert_eq!(snap.hist("lock_wait_us:stripe"), None);
        assert_eq!(snap.hist("lock_wait_us:structural"), None);

        // A writer holds key 7's stripe across a GET of it. The reader
        // raises `started` just before it calls `get`; the holder then
        // holds on for 50 ms, 50 times `HOLD_US`, and lets go.
        const HOLD_US: u64 = 1_000;
        let started = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let held = n.stripes[stripe_of(7, n.mask)].write();
            let reader = scope.spawn(|| {
                started.store(true, Ordering::Release);
                n.get(7)
            });
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(held);
            assert_eq!(reader.join().expect("reader"), None);
        });
        let snap = obs.snapshot();
        let waited = snap.hist("lock_wait_us:stripe").expect("the GET waited");
        assert_eq!(waited.count(), 1);
        assert!(waited.sum() >= HOLD_US, "waited {} us", waited.sum());
        assert_eq!(snap.hist("lock_wait_us:structural"), None);
    }

    #[test]
    fn a_traced_op_opens_a_lock_wait_span_only_when_a_lock_waits() {
        use ecc_obs::{ObsEvent, TimeSource};
        use std::sync::atomic::AtomicBool;

        let obs = ObsRegistry::new(TimeSource::real());
        let n = ShardedNode::new(1 << 20, 8, 4).with_obs(obs.clone());
        let items: Vec<(u64, &[u8])> = (0..64u64).map(|k| (k, &[1u8; 10][..])).collect();
        let lock_waits = || {
            let events = obs.snapshot().events;
            let waits = events.iter().filter(
                |e| matches!(e, ObsEvent::SpanStart { kind, .. } if kind.as_str() == "lock_wait"),
            );
            waits.count()
        };
        let traced_put_many = || {
            let _req = obs.span_root("req");
            n.put_many(&items, |verdict| assert_eq!(verdict, PutOutcome::Stored));
        };

        traced_put_many();
        assert_eq!(
            lock_waits(),
            0,
            "an uncontended batch opened lock_wait spans"
        );

        // A writer holds the structural lock across the batch's first
        // item; the holder lets go once the batch has started.
        let started = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let held = n.structural.write();
            let batch = scope.spawn(|| {
                started.store(true, Ordering::Release);
                traced_put_many();
            });
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(held);
            batch.join().expect("batch");
        });
        assert_eq!(lock_waits(), 1, "one wait, one lock_wait span");
        let waited = obs
            .snapshot()
            .hist("lock_wait_us:structural")
            .map(|h| h.count());
        assert_eq!(waited, Some(1));
    }

    #[test]
    fn put_slice_lands_in_the_arena_and_hits_share_the_slot() {
        let n = ShardedNode::new(1 << 20, 8, 4);
        assert_eq!(n.put_slice(7, &[3u8; 100]), PutOutcome::Stored);
        assert_eq!(n.used_bytes(), slab::footprint(100));
        let hit = n.get(7).expect("present");
        assert!(hit.is_slab(), "wire ingest must land in the slab");
        assert_eq!(hit.as_slice(), &[3u8; 100][..]);
        let again = n.get(7).expect("present");
        assert!(std::ptr::eq(
            hit.as_slice().as_ptr(),
            again.as_slice().as_ptr()
        ));
        let live: u64 = n.slab_stats().iter().map(|s| s.live_slots).sum();
        assert_eq!(live, 1);
        n.validate();
    }

    #[test]
    fn replacement_recycles_the_old_slot() {
        let n = ShardedNode::new(1 << 20, 8, 4);
        for i in 0..1000u64 {
            assert_eq!(n.put_slice(42, &[i as u8; 100]), PutOutcome::Stored);
        }
        let stats = n.slab_stats();
        let class = stats.iter().find(|s| s.slot_size == 136).expect("class");
        assert_eq!(class.live_slots, 1, "churn must recycle, not accrete");
        assert_eq!(class.allocs, 1000);
        assert_eq!(class.pages, 1);
        // Removal returns the record; its slot frees when the handle drops.
        let removed = n.remove(42).expect("present");
        assert_eq!(n.used_bytes(), 0);
        let live: u64 = n.slab_stats().iter().map(|s| s.live_slots).sum();
        assert_eq!(live, 1, "the drained handle still pins its slot");
        drop(removed);
        let live: u64 = n.slab_stats().iter().map(|s| s.live_slots).sum();
        assert_eq!(live, 0);
        n.validate();
    }

    #[test]
    fn oversize_put_slice_falls_back_to_heap_with_true_footprint() {
        let payload = vec![9u8; 100_000];
        let n = ShardedNode::new(1 << 20, 8, 4);
        assert_eq!(n.put_slice(1, &payload), PutOutcome::Stored);
        let hit = n.get(1).expect("present");
        assert!(!hit.is_slab(), "oversize bypasses the class table");
        assert_eq!(hit.len(), 100_000);
        // Charged header + alignment, exactly like the pure footprint fn.
        assert_eq!(n.used_bytes(), slab::footprint(100_000));
        assert_eq!(n.used_bytes(), 100_008);
        n.validate();
    }

    #[test]
    fn refused_put_slice_touches_neither_arena_nor_accounting() {
        let n = ShardedNode::new(100, 8, 2);
        assert_eq!(n.put_slice(1, &[1u8; 60]), PutOutcome::Stored);
        assert_eq!(n.put_slice(2, &[2u8; 60]), PutOutcome::Overflow);
        let allocs: u64 = n.slab_stats().iter().map(|s| s.allocs).sum();
        assert_eq!(allocs, 1, "the refused PUT must not allocate a slot");
        assert_eq!(n.used_bytes(), 80);
        n.validate();

        // In the middle of a batch. Footprints: 60 B → 80, 100 B → 136,
        // 10 B → 64. The 100-byte item would take used to 216 > 208.
        let n = ShardedNode::new(208, 8, 2);
        let items: [(u64, &[u8]); 4] =
            [(1, &[1; 60]), (2, &[2; 100]), (3, &[3; 10]), (1, &[4; 10])];
        let mut verdicts = Vec::new();
        n.put_many(&items, |v| verdicts.push(v));
        use PutOutcome::{Overflow, Stored};
        assert_eq!(verdicts, [Stored, Overflow, Stored, Stored]);
        let stats = n.slab_stats();
        let class = |size| stats.iter().find(|s| s.slot_size == size).expect("class");
        assert_eq!(
            (class(136).allocs, class(136).total_slots),
            (0, 0),
            "the refused item must not take a slot, nor grow its class"
        );
        assert_eq!((class(80).allocs, class(64).allocs), (1, 2));
        // Key 1 shrank into a 64-byte slot; its 80-byte one is free again.
        assert_eq!((class(80).live_slots, class(64).live_slots), (0, 2));
        assert_eq!((n.used_bytes(), n.record_count()), (128, 2));
        assert_eq!(n.get(2), None);
        n.validate();
    }

    #[test]
    fn concurrent_puts_cannot_jointly_overshoot_capacity() {
        // 8 threads race 200 distinct 56-byte inserts (64-byte slots) into
        // a node with room for exactly 100 of them; the CAS reservation
        // must admit at most 100 and the audit must balance.
        let n = Arc::new(ShardedNode::new(6400, 8, 8));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let n = Arc::clone(&n);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let _ = n.put_slice(t * 1000 + i, &[7u8; 56]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("writer");
        }
        assert!(n.used_bytes() <= 6400);
        assert_eq!(n.used_bytes(), n.record_count() * 64);
        n.check_invariants().expect("audit");
    }

    #[test]
    fn stats_need_no_locks_while_a_sweep_runs() {
        let n = Arc::new(ShardedNode::new(1 << 20, 8, 4));
        for k in 0..512u64 {
            n.put(k, Record::filler(32));
        }
        let reader = {
            let n = Arc::clone(&n);
            std::thread::spawn(move || {
                for _ in 0..1000 {
                    let used = n.used_bytes();
                    let count = n.record_count();
                    assert!(used <= n.capacity_bytes());
                    assert!(count <= 512);
                }
            })
        };
        for _ in 0..16 {
            let drained = n.drain_range(0, 511);
            for (k, r) in drained {
                n.put(k, r);
            }
        }
        reader.join().expect("reader");
        n.check_invariants().expect("audit");
    }
}
