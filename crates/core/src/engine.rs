//! The paper's elasticity control loop, written once over a substrate.
//!
//! [`Engine`] owns the ring, the eviction window and the contraction
//! policy, and runs §III's four operations: GBA-Insert's store-or-split
//! loop ([`Engine::insert`]), its split with Sweep-and-Migrate's hand-off
//! ([`Engine::split`]), the step close's λ-eviction
//! ([`Engine::close_step`]) and the ε-merge ([`Engine::merge`]).
//! The decisions are [`gba`]'s. The engine emits every structural event
//! and returns a report of what it did, so each caller keeps its own
//! counters. What the nodes are, what a move costs and what time it is,
//! is the [`Substrate`]'s: the simulator's nodes and virtual clock, or the
//! live coordinator's ledger, wire and registry clock. Every event's time
//! and every `coord_migrate_us` duration is read from
//! [`Substrate::now_us`].

use std::collections::HashMap;

use ecc_chash::HashRing;
use ecc_obs::{ObsEvent, ObsRegistry, SpanGuard};

use crate::error::{CacheAuditError, CacheError};
use crate::gba;
use crate::window::SlidingWindow;

/// GBA-Insert's split-and-retry bound: the most splits one record may
/// cause before its insert fails.
pub(crate) const MAX_SPLIT_RETRIES: u32 = 64;

/// An arc's spans in sweep order, and the records in them.
type InArc = (Vec<(u64, u64)>, Vec<(u64, u64)>);

/// The histogram of every migration's duration, split or merge.
const MIGRATE_HIST: &str = "coord_migrate_us";

/// A node as the ring names it; `index` is its id in events.
pub trait NodeKey: Copy + Ord {
    /// The node's id in [`ObsEvent`]s.
    fn index(self) -> u32;
}

impl NodeKey for usize {
    fn index(self) -> u32 {
        self as u32
    }
}

/// A migration the engine ran, a split's or a merge's, for its caller's
/// counters. What it moved, and when, is in its event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Migration {
    /// How long it took, a split's release included.
    pub duration_us: u64,
    /// Its destination was allocated for it.
    pub allocated: bool,
}

/// One split's cost as Figure 4 reports it: allocating its destination,
/// then migrating its records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitCost {
    /// When the migration started.
    pub at_us: u64,
    /// How long the destination took to arrive: a boot or a spawn, 0 for
    /// an existing node.
    pub alloc_us: u64,
    /// How long the migration took, the release included.
    pub migrate_us: u64,
    /// Records moved.
    pub records: u64,
    /// The destination was allocated for the split.
    pub allocated: bool,
}

/// Every split's cost in `events`, in order. A split's `NodeAlloc` is
/// stamped when the node is asked for and its `SweepMigrate` when the node
/// has arrived, so their difference is the allocation's cost.
pub fn split_costs(events: &[ObsEvent]) -> Vec<SplitCost> {
    let mut asked_at = HashMap::new();
    let mut costs = Vec::new();
    for event in events {
        match *event {
            ObsEvent::NodeAlloc { at_us, node } => {
                asked_at.insert(node, at_us);
            }
            ObsEvent::SweepMigrate {
                at_us,
                dest,
                records,
                duration_us,
                allocated,
                ..
            } => costs.push(SplitCost {
                at_us,
                alloc_us: match asked_at.get(&dest) {
                    Some(&asked) if allocated => at_us.saturating_sub(asked),
                    _ => 0,
                },
                migrate_us: duration_us,
                records,
                allocated,
            }),
            _ => {}
        }
    }
    costs
}

/// What the engine runs on: a fleet of nodes, read from memory, and the
/// effects that change it. Records are `(key, slab footprint)` pairs.
pub trait Substrate {
    /// How the ring names a node.
    type Node: NodeKey;
    /// A failed effect; the engine's own failures arrive as [`CacheError`].
    type Error: From<CacheError>;
    /// A record as [`Substrate::store`] takes it.
    type Record;

    /// The time in microseconds: the substrate's own clock, which every
    /// effect that takes time advances.
    fn now_us(&self) -> u64;
    /// `(node, used bytes)` of every active node, in node order.
    fn loads(&self) -> impl Iterator<Item = (Self::Node, u64)> + '_;
    /// `node`'s records in `[lo, hi]`, a span of an arc it owns, in key
    /// order.
    fn records(&self, node: Self::Node, lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64)> + '_;
    /// Store `key`'s `record` on `node`, its owner on `ring`, if the node's
    /// used bytes, grown by the record's slab footprint over the node's
    /// current copy of `key`, stay within capacity. Otherwise hand the
    /// record back: `Ok(Some(record))`, and the engine splits `node`.
    fn store(
        &mut self,
        ring: &HashRing<Self::Node>,
        node: Self::Node,
        key: u64,
        record: Self::Record,
    ) -> Result<Option<Self::Record>, Self::Error>;
    /// A new, empty node.
    fn alloc(&mut self) -> Result<Self::Node, Self::Error>;
    /// Put a copy of `records` on `dest` and return how many records and
    /// payload bytes moved. They are every record of `src` in one of its
    /// arcs, in sweep order, or all of `src`'s in key order; their ring
    /// flip follows. A failure must leave `src` and `dest` holding what
    /// they held.
    fn migrate(
        &mut self,
        src: Self::Node,
        dest: Self::Node,
        records: &[(u64, u64)],
    ) -> Result<(u64, u64), Self::Error>;
    /// Drop `src`'s copies of `records` after the flip moved them away
    /// (nothing, where `migrate` moved rather than copied).
    fn release(&mut self, _src: Self::Node, _records: &[(u64, u64)]) {}
    /// Evict `victims` (keys with their owners, in window order) and keep
    /// in the list, in that order, only the keys a node held.
    fn evict(&mut self, victims: &mut Vec<(u64, Self::Node)>) -> Result<(), Self::Error>;
    /// Stop `node`; the ring no longer names it.
    fn dealloc(&mut self, node: Self::Node);
    /// A trace span of `kind` over the operation that follows, if the
    /// substrate traces.
    fn span(&self, _kind: &'static str) -> Option<SpanGuard> {
        None
    }
}

/// The elasticity control loop (see the module docs).
pub struct Engine<N> {
    /// The consistent-hash ring; only the engine changes it once built.
    pub ring: HashRing<N>,
    /// The λ-eviction window, if eviction is on.
    pub window: Option<SlidingWindow>,
    /// ε: contraction runs every `epsilon` slice expirations.
    pub epsilon: u64,
    /// Contraction never takes the fleet below this many nodes.
    pub min_nodes: usize,
    /// A merge pair must fit under this fraction of one node's capacity.
    pub merge_threshold: f64,
    /// Slice expirations so far.
    pub expirations: u64,
    capacity: u64,
    obs: ObsRegistry,
}

impl<N: NodeKey> Engine<N> {
    /// An engine whose one bucket, at the top of a ring of `ring_range`
    /// positions, names `first`, which joined at `at_us`, for nodes of
    /// `capacity` bytes. Events go to `obs`. Eviction is off; ε is 1, the
    /// floor one node and the merge threshold 65 % until the caller sets
    /// them.
    pub fn new(ring_range: u64, capacity: u64, first: N, obs: ObsRegistry, at_us: u64) -> Self {
        let mut ring = HashRing::new(ring_range);
        let seeded = ring.insert_bucket(ring_range - 1, first);
        debug_assert!(seeded.is_ok(), "a fresh ring has no bucket to collide with");
        let engine = Self {
            ring,
            window: None,
            epsilon: 1,
            min_nodes: 1,
            merge_threshold: 0.65,
            capacity,
            expirations: 0,
            obs,
        };
        engine.joined(at_us, first);
        engine
    }

    /// Announce a node that joined the fleet at `at_us` outside a split.
    pub fn joined(&self, at_us: u64, node: N) {
        self.obs.emit(ObsEvent::NodeAlloc {
            at_us,
            node: node.index(),
        });
    }

    /// Whether a record of slab footprint `size` under `key` can be cached
    /// at all: no bigger than a node, on the ring's line.
    #[inline]
    pub fn admits(&self, key: u64, size: u64) -> Result<(), CacheError> {
        let (capacity, r) = (self.capacity, self.ring.range());
        if size > capacity {
            Err(CacheError::RecordTooLarge { size, capacity })
        } else if key >= r {
            Err(CacheError::KeyOutOfRange { key, r })
        } else {
            Ok(())
        }
    }

    /// Algorithm 1, GBA-Insert: store `record` under `key` on the key's
    /// owner; while the owner hands it back, [`Engine::split`] the owner
    /// and try again, at most `MAX_SPLIT_RETRIES` splits. `on_split`
    /// gets each split's report as it lands, also when a later step
    /// fails. The caller checks [`Engine::admits`] first.
    #[inline]
    pub fn insert<S: Substrate<Node = N>>(
        &mut self,
        sub: &mut S,
        key: u64,
        mut record: S::Record,
        mut on_split: impl FnMut(Migration),
    ) -> Result<(), S::Error> {
        for _ in 0..MAX_SPLIT_RETRIES {
            let owner = *self.ring.node_for_key(key).ok_or(CacheError::Internal {
                what: "ring has no buckets",
            })?;
            match sub.store(&self.ring, owner, key, record)? {
                None => return Ok(()),
                Some(refused) => record = refused,
            }
            on_split(self.split(sub, owner)?);
        }
        Err(CacheError::SplitLoopExceeded.into())
    }

    /// Relieve `node`: split its fullest bucket at the median (or relocate
    /// it whole) onto the least-loaded node the records fit on, or a new
    /// one. Emits `NodeAlloc` (if it allocates), `BucketSplit`, then
    /// `SweepMigrate`; the `NodeAlloc` is stamped when the node is asked
    /// for, the `SweepMigrate` when it has arrived ([`split_costs`]). A
    /// failed migration leaves the ring as it was and deallocates a node
    /// allocated for it.
    ///
    /// Cold and never inlined: inlined into the simulator's query path,
    /// the split cost `sim_paper_phases` about a tenth of its queries per
    /// second, on a path that splits a few times per 75 000 queries.
    #[cold]
    #[inline(never)]
    pub fn split<S: Substrate<Node = N>>(
        &mut self,
        sub: &mut S,
        node: N,
    ) -> Result<Migration, S::Error> {
        let _span = sub.span("elastic_split");
        let buckets = self.ring.buckets_of_node(&node);
        let size = |b| self.arc(sub, node, b).1.iter().map(|&(_, fp)| fp).sum();
        let b_max = gba::fullest_bucket(&buckets, size).ok_or(CacheError::Internal {
            what: "active node owns no bucket",
        })?;
        let (spans, in_arc) = self.arc(sub, node, b_max);
        let keys: Vec<u64> = in_arc.iter().map(|&(k, _)| k).collect();
        let plan = gba::split_plan(&self.ring, b_max, spans, &keys)
            .ok_or(CacheError::CannotSplit { bucket: b_max })?;
        // Sweep order: the moved records are a prefix.
        let moved = &in_arc[..plan.moved];
        let moved_bytes = moved.iter().map(|&(_, fp)| fp).sum();
        let (dest, allocated) =
            match gba::destination(sub.loads(), node, moved_bytes, self.capacity) {
                Some(dest) => (dest, false),
                None => {
                    let asked_us = sub.now_us();
                    let dest = sub.alloc()?;
                    self.joined(asked_us, dest);
                    (dest, true)
                }
            };
        let at_us = sub.now_us();
        let (records, bytes) = match sub.migrate(node, dest, moved) {
            Ok(copied) => copied,
            Err(e) => {
                if allocated {
                    // The fleet goes back to what it was.
                    self.dealloc(sub, dest);
                }
                return Err(e);
            }
        };
        let bucket = plan
            .flip(&mut self.ring, dest)
            .map_err(|_| CacheError::Internal {
                what: "split bucket occupied or vanished before the flip",
            })?;
        self.obs.emit(ObsEvent::BucketSplit {
            at_us: sub.now_us(),
            node: node.index(),
            new_node: dest.index(),
            bucket,
        });
        sub.release(node, moved);
        let duration_us = sub.now_us() - at_us;
        self.obs.record(MIGRATE_HIST, duration_us);
        self.obs.emit(ObsEvent::SweepMigrate {
            at_us,
            src: node.index(),
            dest: dest.index(),
            records,
            bytes,
            duration_us,
            allocated,
        });
        Ok(Migration {
            duration_us,
            allocated,
        })
    }

    /// Close a time slice. If a slice expires (and, with `resize_to`, the
    /// window takes that many slices, expiring more if it shrinks), evict
    /// the expired slices' λ-victims, then merge every ε expirations.
    /// Emits `SliceExpire`, one `EvictBatch` per node in node order naming
    /// the evicted keys in window order, and the merge's events. Returns
    /// the records evicted and the merge.
    pub fn close_step<S: Substrate<Node = N>>(
        &mut self,
        sub: &mut S,
        resize_to: Option<usize>,
    ) -> Result<(u64, Option<Migration>), S::Error> {
        let Some(window) = &mut self.window else {
            return Ok((0, None));
        };
        let mut expired: Vec<_> = window.end_slice().into_iter().collect();
        if let Some(slices) = resize_to.filter(|&m| m != window.slices()) {
            expired.extend(window.set_slices(slices));
        }
        if expired.is_empty() {
            return Ok((0, None));
        }
        self.expirations += 1;
        let _span = sub.span("elastic_slice_expire");
        let victims: Vec<u64> = expired.iter().flat_map(|s| window.victims(s)).collect();
        for slice in expired {
            window.recycle(slice);
        }
        self.obs.emit(ObsEvent::SliceExpire {
            at_us: sub.now_us(),
            expiration: self.expirations,
            victims: victims.len() as u64,
        });
        let ring = &self.ring;
        let mut evicted: Vec<(u64, N)> = victims
            .into_iter()
            .filter_map(|key| Some((key, *ring.node_for_key(key)?)))
            .collect();
        sub.evict(&mut evicted)?;
        // Stable: each node's keys stay in window order.
        evicted.sort_by_key(|&(_, node)| node);
        let at_us = sub.now_us();
        for batch in evicted.chunk_by(|a, b| a.1 == b.1) {
            self.obs.emit(ObsEvent::EvictBatch {
                at_us,
                node: batch[0].1.index(),
                keys: batch.iter().map(|&(key, _)| key).collect(),
            });
        }
        let merge = if self.expirations.is_multiple_of(self.epsilon) {
            self.merge(sub)?
        } else {
            None
        };
        Ok((evicted.len() as u64, merge))
    }

    /// Merge [`gba::merge_pair`]'s two nodes, if it names any: migrate
    /// the lighter one's records onto the other, re-point and coalesce its
    /// buckets, and deallocate it. Emits `NodeMerge`, then `NodeDealloc`.
    pub fn merge<S: Substrate<Node = N>>(
        &mut self,
        sub: &mut S,
    ) -> Result<Option<Migration>, S::Error> {
        let loads = sub.loads();
        let pair = gba::merge_pair(loads, self.min_nodes, self.merge_threshold, self.capacity);
        let Some((src, dest)) = pair else {
            return Ok(None);
        };
        let _span = sub.span("elastic_merge");
        let at_us = sub.now_us();
        let buckets = self.ring.buckets_of_node(&src);
        let mut held: Vec<_> = buckets
            .iter()
            .flat_map(|&b| self.arc(sub, src, b).1)
            .collect();
        held.sort_unstable();
        let (records, _) = sub.migrate(src, dest, &held)?;
        let duration_us = sub.now_us() - at_us;
        self.obs.record(MIGRATE_HIST, duration_us);
        for bucket in buckets {
            let remapped = self.ring.remap_bucket(bucket, dest);
            debug_assert!(remapped.is_ok(), "bucket listed by buckets_of_node exists");
        }
        self.ring.coalesce(&dest);
        self.obs.emit(ObsEvent::NodeMerge {
            at_us,
            src: src.index(),
            dest: dest.index(),
            records,
        });
        self.dealloc(sub, src);
        Ok(Some(Migration {
            duration_us,
            allocated: false,
        }))
    }

    /// `bucket`'s arc in sweep order, and `node`'s records in it.
    fn arc<S: Substrate<Node = N>>(&self, sub: &S, node: N, bucket: u64) -> InArc {
        let spans = self.ring.sweep_spans(bucket).unwrap_or_default();
        let held = spans.iter().flat_map(|&(lo, hi)| sub.records(node, lo, hi));
        let held = held.collect();
        (spans, held)
    }

    fn dealloc<S: Substrate<Node = N>>(&self, sub: &mut S, node: N) {
        sub.dealloc(node);
        self.obs.emit(ObsEvent::NodeDealloc {
            at_us: sub.now_us(),
            node: node.index(),
        });
    }

    /// The ring-level audit over the active nodes `fleet`: the ring is
    /// sound, no bucket names an inactive node, and every active node owns
    /// a bucket.
    pub fn audit(&self, fleet: &[N]) -> Result<(), CacheAuditError<N>> {
        self.ring
            .check_invariants()
            .map_err(CacheAuditError::Ring)?;
        if let Some((_, &node)) = self.ring.buckets().find(|(_, n)| !fleet.contains(n)) {
            return Err(CacheAuditError::DeadNodeReferenced { node });
        }
        match fleet
            .iter()
            .find(|n| self.ring.buckets_of_node(n).is_empty())
        {
            Some(&node) => Err(CacheAuditError::NodeWithoutBucket { node }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use ecc_obs::TimeSource;

    use super::*;

    /// An in-memory fleet whose store hands the record back `refusals`
    /// times, then takes it. Every span holds a record at each of its
    /// ends, so a split moves the lowest one under a new bucket.
    struct Fake {
        nodes: usize,
        refusals: u32,
        stores: u32,
    }

    impl Substrate for Fake {
        type Node = usize;
        type Error = CacheError;
        type Record = ();

        fn now_us(&self) -> u64 {
            0
        }

        fn loads(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
            (0..self.nodes).map(|node| (node, 0))
        }

        fn records(&self, _node: usize, lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
            let ends = if lo < hi { vec![lo, hi] } else { vec![lo] };
            ends.into_iter().map(|key| (key, 1))
        }

        fn store(
            &mut self,
            _ring: &HashRing<usize>,
            _node: usize,
            _key: u64,
            record: (),
        ) -> Result<Option<()>, CacheError> {
            self.stores += 1;
            if self.refusals == 0 {
                return Ok(None);
            }
            self.refusals -= 1;
            Ok(Some(record))
        }

        fn alloc(&mut self) -> Result<usize, CacheError> {
            self.nodes += 1;
            Ok(self.nodes - 1)
        }

        fn migrate(
            &mut self,
            _src: usize,
            _dest: usize,
            records: &[(u64, u64)],
        ) -> Result<(u64, u64), CacheError> {
            Ok((records.len() as u64, records.len() as u64))
        }

        fn evict(&mut self, _victims: &mut Vec<(u64, usize)>) -> Result<(), CacheError> {
            Ok(())
        }

        fn dealloc(&mut self, _node: usize) {}
    }

    /// Insert the top key of a line of `range` positions into a one-node
    /// fleet that refuses `refusals` times. Returns the result, the splits
    /// `on_split` saw, the store calls and the buckets.
    fn insert(range: u64, refusals: u32) -> (Result<(), CacheError>, u32, u32, usize) {
        let obs = ObsRegistry::new(TimeSource::real());
        let mut engine = Engine::new(range, 1 << 20, 0, obs, 0);
        let mut fake = Fake {
            nodes: 1,
            refusals,
            stores: 0,
        };
        let mut splits = 0;
        let inserted = engine.insert(&mut fake, range - 1, (), |_| splits += 1);
        (inserted, splits, fake.stores, engine.ring.len())
    }

    #[test]
    fn a_store_that_always_refuses_splits_to_the_bound_then_fails() {
        let (inserted, splits, stores, buckets) = insert(1 << 16, u32::MAX);
        assert_eq!(inserted, Err(CacheError::SplitLoopExceeded));
        // Check, then split: the last split is followed by no store.
        assert_eq!((splits, stores), (MAX_SPLIT_RETRIES, MAX_SPLIT_RETRIES));
        assert_eq!(buckets, MAX_SPLIT_RETRIES as usize + 1);
    }

    #[test]
    fn a_store_that_accepts_after_k_refusals_splits_k_times() {
        for k in [0, 1, 5, MAX_SPLIT_RETRIES - 1] {
            let (inserted, splits, stores, buckets) = insert(1 << 16, k);
            assert_eq!(inserted, Ok(()), "k = {k}");
            assert_eq!((splits, stores), (k, k + 1), "k = {k}");
            assert_eq!(buckets, k as usize + 1, "k = {k}");
        }
    }

    #[test]
    fn a_failed_split_reaches_the_caller_after_the_splits_before_it() {
        // A line of two positions: the first split moves position 0 to a
        // new node; the top bucket then holds one record and is its node's
        // only bucket, so it cannot split.
        let (inserted, splits, stores, buckets) = insert(2, u32::MAX);
        assert_eq!(inserted, Err(CacheError::CannotSplit { bucket: 1 }));
        assert_eq!((splits, stores, buckets), (1, 2, 2));
    }
}
