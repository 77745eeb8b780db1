//! The simulated elastic cooperative cache: the paper's §III on a
//! virtual clock.
//!
//! * **GBA-Insert** (Algorithm 1), **Sweep-and-Migrate** (Algorithm 2),
//!   **eviction** and **contraction** (§III-B) are the [`Engine`]'s. This
//!   cache is its substrate: a store is one B+-tree descent that decides
//!   the fit at the leaf, a sweep lists the span's keys by walking the
//!   B+-tree's linked leaves and removes each with its own descent, moving
//!   a record charges `T_net`, allocating a node boots a cloud instance,
//!   and an evicted record is written behind to the overflow tier.
//!
//! All latencies (lookups, record transfers `T_net`, node boots) are
//! charged to the cache's virtual clock, which its `Fleet` owns, so the
//! metrics reproduce the paper's speedup and overhead figures. Everything
//! else, the cloud and the engine's event stamps included, is handed the
//! time as a value.

use std::borrow::Cow;

use ecc_bptree::ByteSize;
use ecc_chash::HashRing;
use ecc_cloudsim::{InstanceId, NetModel, PersistentStore, SimClock, SimCloud};
use ecc_obs::{LogHistogram, ObsEvent, ObsRegistry, TimeSource};

use crate::adaptive::WindowController;
use crate::config::CacheConfig;
use crate::engine::{Engine, Migration, NodeKey, Substrate, MAX_SPLIT_RETRIES};
use crate::error::{CacheAuditError, CacheError};
use crate::metrics::Metrics;
use crate::node::CacheNode;
use crate::record::Record;
use crate::window::SlidingWindow;

/// Index of a cache node within the coordinator's node table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeKey for NodeId {
    fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Bytes of a lookup request on the wire (key + framing).
const LOOKUP_REQ_BYTES: u64 = 32;
/// Bytes of a negative lookup response.
const MISS_RESP_BYTES: u64 = 8;
/// Per-record key/framing overhead charged on record transfers.
const RECORD_WIRE_OVERHEAD: u64 = 16;
/// Slots of [`ElasticCache::query_us`], one per query outcome.
const QUERY_HIT: usize = 0;
const QUERY_TIER: usize = 1;
const QUERY_MISS: usize = 2;

/// The coordinator of the elastic cooperative cache.
pub struct ElasticCache {
    /// The ring, the window and the elastic operations over `fleet`.
    engine: Engine<NodeId>,
    fleet: Fleet,
    metrics: Metrics,
    time_steps: u64,
    controller: Option<WindowController>,
    /// Queries observed in the slice currently being recorded.
    slice_queries: u64,
    /// Flight recorder + latency histograms. Every event is stamped from
    /// the fleet's virtual clock; the registry's own clock is not read.
    obs: ObsRegistry,
    /// Per-outcome query latencies of the open step, folded into `obs`
    /// once per [`ElasticCache::end_time_step`] instead of taking the
    /// registry lock per query.
    query_us: [(&'static str, LogHistogram); 3],
}

impl ElasticCache {
    /// Build a cache with one initial node (pre-provisioned, so time zero
    /// starts with a usable cache, as in the paper's cold-cache setup).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let clock = SimClock::new();
        let now = clock.now_us();
        let mut cloud = SimCloud::new(cfg.seed, cfg.boot_latency);
        // Initial node: bucket at the top of the line owns everything.
        let receipt = cloud.allocate(now, cfg.instance_type.clone());
        let first = CacheNode::new(receipt.id, cfg.node_capacity_bytes, cfg.btree_order);
        let controller = cfg.adaptive_window.map(WindowController::new);
        let tier = cfg.overflow_tier.clone().map(PersistentStore::new);
        let obs = ObsRegistry::new(TimeSource::real());
        let mut engine = Engine::new(
            cfg.ring_range,
            cfg.node_capacity_bytes,
            NodeId(0),
            obs.clone(),
            now,
        );
        engine.window = cfg
            .window
            .as_ref()
            .map(|w| SlidingWindow::new(w.slices, w.alpha, w.effective_threshold()));
        engine.epsilon = cfg.contraction_epsilon;
        engine.min_nodes = cfg.min_nodes;
        engine.merge_threshold = cfg.merge_fill_threshold;
        let fleet = Fleet {
            charges: Charges::new(&cfg),
            cfg,
            clock,
            cloud,
            nodes: vec![Some(first)],
            tier,
            alloc_us: 0,
            tier_writes: 0,
            owed_us: 0,
            evicted: Vec::new(),
        };
        Self {
            engine,
            fleet,
            metrics: Metrics::new(),
            time_steps: 0,
            controller,
            slice_queries: 0,
            obs,
            query_us: [
                ("cache_query_us:hit", LogHistogram::new()),
                ("cache_query_us:tier", LogHistogram::new()),
                ("cache_query_us:miss", LogHistogram::new()),
            ],
        }
    }

    // ------------------------------------------------------------ accessors

    /// The configuration in use.
    pub fn config(&self) -> &CacheConfig {
        &self.fleet.cfg
    }

    /// The virtual clock every charge advances.
    pub fn clock(&self) -> &SimClock {
        &self.fleet.clock
    }

    /// The clock, to let idle time pass between operations.
    pub fn clock_mut(&mut self) -> &mut SimClock {
        &mut self.fleet.clock
    }

    /// Cumulative metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The cloud provider (billing, instance table).
    pub fn cloud(&self) -> &SimCloud {
        &self.fleet.cloud
    }

    /// The observability registry (flight recorder + latency histograms).
    /// The `cache_query_us:*` histograms hold the queries of every closed
    /// time step; the open step's are folded in by the next
    /// [`ElasticCache::end_time_step`].
    pub fn obs(&self) -> &ObsRegistry {
        &self.obs
    }

    /// The consistent-hash ring.
    pub fn ring(&self) -> &HashRing<NodeId> {
        &self.engine.ring
    }

    /// The eviction window, if one is configured.
    pub fn window(&self) -> Option<&SlidingWindow> {
        self.engine.window.as_ref()
    }

    /// Number of currently active cache nodes.
    pub fn node_count(&self) -> usize {
        self.nodes().count()
    }

    /// Total records resident across all nodes.
    pub fn total_records(&self) -> usize {
        self.nodes().map(|(_, n)| n.record_count()).sum()
    }

    /// Total payload bytes resident across all nodes.
    pub fn total_bytes(&self) -> u64 {
        self.nodes().map(|(_, n)| n.used_bytes()).sum()
    }

    /// Iterate over `(id, node)` for every active node.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &CacheNode)> {
        let nodes = self.fleet.nodes.iter().enumerate();
        nodes.filter_map(|(i, n)| Some((NodeId(i as u32), n.as_ref()?)))
    }

    /// Completed time steps (slice closures).
    pub fn time_steps(&self) -> u64 {
        self.time_steps
    }

    /// Slice expirations seen so far.
    pub fn expirations(&self) -> u64 {
        self.engine.expirations
    }

    /// The node `id`, or `None` if it is inactive (merged away)
    /// or out of table bounds.
    fn node_at(&self, id: NodeId) -> Option<&CacheNode> {
        self.fleet.nodes.get(id.0 as usize).and_then(Option::as_ref)
    }

    // -------------------------------------------------------------- queries

    /// Full cached-service query: look up `key`; on a miss run `miss` (the
    /// backing service), charge its execution time, and cache the result.
    ///
    /// `uncached_us` is what the service would cost without the cache (the
    /// baseline the speedup figures divide by); for a miss it is also the
    /// time actually charged for the service execution.
    ///
    /// Each step runs once: the record moves into the tree, and the
    /// lookup, service and put-transfer charges reach the clock as one sum
    /// — after `miss` returns, and before anything reads the clock.
    ///
    /// A hit lends the stored record ([`Cow::Borrowed`]: no refcount
    /// write); a miss returns a clone of the record it stored
    /// ([`Cow::Owned`]).
    pub fn query(
        &mut self,
        key: u64,
        uncached_us: u64,
        miss: impl FnOnce() -> Record,
    ) -> Cow<'_, Record> {
        let t0 = self.fleet.clock.now_us();
        self.metrics.baseline_us += uncached_us;
        let mut pending_us = match self.lookup_uncharged(key) {
            Ok((owner, lookup_us)) => {
                self.fleet.clock.advance_us(lookup_us);
                self.metrics.observed_us += lookup_us;
                self.query_us[QUERY_HIT].1.record(lookup_us);
                // Lend the record. Borrowing it in the lookup would hold
                // `self` on the miss arm too, so it is read again here: the
                // leaf the lookup just loaded, which nothing wrote since,
                // so the service never runs on this arm.
                return match self.node_at(owner).and_then(|n| n.get(key)) {
                    Some(rec) => Cow::Borrowed(rec),
                    None => Cow::Owned(miss()),
                };
            }
            Err(miss_us) => miss_us,
        };
        // Memory miss: the persistent overflow tier (if any) may still
        // hold an evicted copy — a tier fetch beats re-running the 23 s
        // service by orders of magnitude (§IV-D trade-off).
        if let Some(tier) = &mut self.fleet.tier {
            // The fetch reads the clock: charge the lookup first.
            let now = self.fleet.clock.advance_us(pending_us);
            let (found, dur_us) = tier.get(now, key);
            pending_us = dur_us;
            if let Some(bytes) = found {
                let rec = Record::from_bytes(bytes);
                self.metrics.tier_hits += 1;
                self.admit(key, rec.clone(), pending_us);
                let dt = self.fleet.clock.now_us() - t0;
                self.metrics.observed_us += dt;
                self.query_us[QUERY_TIER].1.record(dt);
                return Cow::Owned(rec);
            }
        }
        // Execute the service.
        let rec = miss();
        self.metrics.service_us += uncached_us;
        self.admit(key, rec.clone(), pending_us + uncached_us);
        let dt = self.fleet.clock.now_us() - t0;
        self.metrics.observed_us += dt;
        self.query_us[QUERY_MISS].1.record(dt);
        Cow::Owned(rec)
    }

    /// Cache a record the query path fetched, charging `pending_us` with
    /// the insert. A record bigger than a node can never be cached; it is
    /// served uncached rather than dying. Any other failure is a
    /// coordinator fault — likewise served uncached, and counted so it
    /// shows up.
    ///
    /// `query` is generic over `miss`, so it is compiled in the caller's
    /// crate; this and the other query-path helpers are `#[inline]` so they
    /// are compiled there with it, not called across the crate boundary.
    #[inline]
    fn admit(&mut self, key: u64, rec: Record, pending_us: u64) {
        match self.insert_charged(key, rec, pending_us) {
            Ok(()) | Err(CacheError::RecordTooLarge { .. }) => {}
            Err(_) => {
                self.metrics.insert_errors += 1;
                self.obs.emit(ObsEvent::InsertError {
                    at_us: self.fleet.clock.now_us(),
                    key,
                });
            }
        }
    }

    /// Look up `key`, charging the lookup path and recording hit/miss.
    pub fn lookup(&mut self, key: u64) -> Option<&Record> {
        let (owner, lookup_us) = match self.lookup_uncharged(key) {
            Ok((owner, us)) => (Some(owner), us),
            Err(us) => (None, us),
        };
        self.fleet.clock.advance_us(lookup_us);
        self.metrics.observed_us += lookup_us;
        self.node_at(owner?)?.get(key)
    }

    /// The lookup step of a query: count it, note it in the window, and
    /// read the key on its owner. Returns the node holding the record with
    /// the lookup's cost, or on a miss the miss's cost. The caller charges
    /// the cost, together with whatever the query does next.
    #[inline]
    fn lookup_uncharged(&mut self, key: u64) -> Result<(NodeId, u64), u64> {
        self.slice_queries += 1;
        if let Some(w) = &mut self.engine.window {
            w.note_query(key);
        }
        // The ring always has a bucket by construction; an empty ring or a
        // dangling owner degrades to a miss instead of tearing down the
        // whole cache.
        let found = self
            .engine
            .ring
            .node_for_key(key)
            .and_then(|&nid| Some((nid, self.node_at(nid)?.get(key)?.len())));
        self.fleet.charges.lookup(&mut self.metrics, found)
    }

    // ------------------------------------------------------- GBA insertion

    /// Algorithm 1: GBA-Insert ([`Engine::insert`]). Inserts `record`
    /// under `key`, splitting buckets and (as a last resort) allocating
    /// cloud nodes until the owning node can hold it.
    pub fn insert(&mut self, key: u64, record: Record) -> Result<(), CacheError> {
        self.insert_charged(key, record, 0)
    }

    /// [`ElasticCache::insert`] with `pending_us` of earlier charges still
    /// owed to the clock. Whatever is owed reaches the clock in one
    /// advance: the fleet's `store` settles it, with the put transfer,
    /// before the record lands or a split reads the clock, and an early
    /// return leaves it here.
    #[inline]
    fn insert_charged(
        &mut self,
        key: u64,
        record: Record,
        pending_us: u64,
    ) -> Result<(), CacheError> {
        self.fleet.owed_us = pending_us;
        // Capacity decisions charge the record's true slot footprint; the
        // put transfer is charged its raw payload length, once: the record
        // travels to whichever node finally stores it.
        let size = record.byte_size() as u64;
        let inserted = self.engine.admits(key, size).and_then(|()| {
            self.fleet.owed_us += self.fleet.charges.record_us(record.len());
            let metrics = &mut self.metrics;
            let counted = |split| count_split(metrics, split);
            self.engine.insert(&mut self.fleet, key, record, counted)
        });
        self.fleet
            .clock
            .advance_us(std::mem::take(&mut self.fleet.owed_us));
        self.metrics.alloc_us = self.fleet.alloc_us;
        #[cfg(debug_assertions)]
        self.validate();
        inserted
    }

    /// Proactive splitting's [`Engine::split`]: relieve `nid` and count
    /// the split.
    fn split_node(&mut self, nid: NodeId) -> Result<(), CacheError> {
        let split = self.engine.split(&mut self.fleet, nid);
        self.metrics.alloc_us = self.fleet.alloc_us;
        count_split(&mut self.metrics, split?);
        #[cfg(debug_assertions)]
        self.validate();
        Ok(())
    }

    // ------------------------------------------------- eviction/contraction

    /// Close the current time slice (one experiment time step). Runs
    /// decay-scored eviction on the expired slice (if the window is full)
    /// and, every `ε` expirations, attempts contraction.
    pub fn end_time_step(&mut self) {
        self.time_steps += 1;
        self.obs.fold(&mut self.query_us, &mut []);
        let slice_queries = std::mem::take(&mut self.slice_queries);

        // Proactive splitting (§VI prefetching): relieve nodes close to
        // overflow off the query critical path. Each node is driven all the
        // way below the threshold in this one pass — a single bucket split
        // may shed only a small fraction of a node's bytes, and leaving the
        // node above threshold would re-trigger (and re-pay for) the scan
        // every step.
        if let Some(fill) = self.fleet.cfg.proactive_split_fill {
            let near_full: Vec<NodeId> = self
                .nodes()
                .filter(|(_, n)| n.fill() > fill)
                .map(|(id, _)| id)
                .collect();
            // Hysteresis: trigger above `fill`, relieve down to 90 % of it,
            // so a relieved node does not re-cross the trigger (and re-pay
            // the scan) a few insertions later.
            let relieve_to = fill * 0.9;
            for nid in near_full {
                for _ in 0..MAX_SPLIT_RETRIES {
                    match self.node_at(nid) {
                        Some(n) if n.fill() > relieve_to => {}
                        _ => break,
                    }
                    // If every peer is itself near the threshold, shuffling
                    // records around would only push the problem to the next
                    // step (migration ping-pong). Pre-allocate a fresh node
                    // instead — this *is* the prefetch: the boot proceeds in
                    // the background (neither the clock nor `alloc_us`
                    // advances), and the split lands on the empty node.
                    let peer_headroom = self
                        .nodes()
                        .filter(|(id, _)| *id != nid)
                        .map(|(_, n)| n.fill())
                        .fold(f64::INFINITY, f64::min);
                    if peer_headroom >= relieve_to {
                        let fleet = &mut self.fleet;
                        let now = fleet.clock.now_us();
                        let receipt = fleet.cloud.allocate(now, fleet.cfg.instance_type.clone());
                        self.engine.joined(now, fleet.add(receipt.id));
                    }
                    // Best effort — an unsplittable node waits for GBA.
                    if self.split_node(nid).is_err() {
                        break;
                    }
                }
            }
        }

        // Dynamic window sizing (§VI): the controller reacts to the
        // completed slice's rate; a shrink expires further slices now.
        let resize_to = match (&mut self.controller, &self.engine.window) {
            (Some(controller), Some(window)) => {
                Some(controller.observe(slice_queries, window.slices()))
            }
            _ => None,
        };
        // This cache's effects fail only on a broken invariant, which the
        // audit reports.
        let closed = self.engine.close_step(&mut self.fleet, resize_to);
        self.metrics.tier_writes = self.fleet.tier_writes;
        if let Ok((evicted, merged)) = closed {
            self.metrics.evictions += evicted;
            self.metrics.merges += u64::from(merged.is_some());
        }
        #[cfg(debug_assertions)]
        self.validate();
    }

    /// The persistent overflow tier, if configured.
    pub fn tier(&self) -> Option<&PersistentStore> {
        self.fleet.tier.as_ref()
    }

    /// Cost of the overflow tier so far in micro-dollars (0 without one).
    pub fn tier_cost_microdollars(&self) -> u64 {
        self.fleet
            .tier
            .as_ref()
            .map(|t| t.cost_microdollars(self.fleet.clock.now_us()))
            .unwrap_or(0)
    }

    // ----------------------------------------------------------- validation

    /// Exhaustively check cross-structure invariants, returning the first
    /// violation as a typed [`CacheAuditError`] instead of panicking:
    ///
    /// * the engine's ring-level audit ([`Engine::audit`]);
    /// * every resident record hashes to the node storing it, so each key
    ///   is owned by exactly one node;
    /// * per-node byte accounting matches the sum of resident record sizes
    ///   and stays within capacity;
    /// * the sliding window's history and decay table are structurally
    ///   consistent.
    pub fn check_invariants(&self) -> Result<(), CacheAuditError> {
        let fleet: Vec<NodeId> = self.nodes().map(|(id, _)| id).collect();
        self.engine.audit(&fleet)?;
        for (id, node) in self.nodes() {
            let counted: u64 = node.iter().map(|(_, r)| r.byte_size() as u64).sum();
            if counted != node.used_bytes() {
                return Err(CacheAuditError::ByteAccountingMismatch {
                    node: id,
                    counted,
                    recorded: node.used_bytes(),
                });
            }
            if node.used_bytes() > node.capacity_bytes() {
                return Err(CacheAuditError::NodeOverCapacity {
                    node: id,
                    used: node.used_bytes(),
                    capacity: node.capacity_bytes(),
                });
            }
            for (&key, _) in node.iter() {
                let owner = self.engine.ring.node_for_key(key).copied();
                if owner != Some(id) {
                    return Err(CacheAuditError::MisplacedKey {
                        key,
                        resident_on: id,
                        owner,
                    });
                }
            }
        }
        if let Some(window) = &self.engine.window {
            window
                .check_invariants()
                .map_err(|what| CacheAuditError::Window { what })?;
        }
        Ok(())
    }

    /// Panicking wrapper over [`ElasticCache::check_invariants`], used by
    /// the test suites and by the debug-build hooks that run after every
    /// mutating operation (insert, split, eviction, merge).
    /// Additionally validates each node's B+-tree index.
    #[expect(clippy::panic, reason = "validate() is the panicking audit wrapper")]
    pub fn validate(&self) {
        for (_, node) in self.nodes() {
            node.validate();
        }
        if let Err(e) = self.check_invariants() {
            panic!("cache invariant violated: {e}");
        }
    }
}

/// What a simulated cache charges its virtual clock. [`StaticCache`]
/// prices its lookups and puts here too, so Figure 3's baseline differs
/// from this cache only in placement and replacement.
///
/// [`StaticCache`]: crate::StaticCache
pub(crate) struct Charges {
    net: NetModel,
    /// Every lookup before its response: the overhead plus the request
    /// transfer. A hit adds its response transfer.
    lookup_req_us: u64,
    /// A lookup that misses (request + negative response).
    lookup_miss_us: u64,
}

impl Charges {
    pub(crate) fn new(cfg: &CacheConfig) -> Self {
        let net = cfg.net;
        let lookup_req_us = cfg.lookup_overhead_us + net.transfer_us(LOOKUP_REQ_BYTES);
        let lookup_miss_us = lookup_req_us + net.transfer_us(MISS_RESP_BYTES);
        Self {
            net,
            lookup_req_us,
            lookup_miss_us,
        }
    }

    /// Count a lookup in `metrics` that `found` a record (where it is,
    /// and its payload length) or not, and price it: where the record is
    /// with the hit's cost, or the miss's cost.
    #[inline]
    pub(crate) fn lookup<T>(
        &self,
        metrics: &mut Metrics,
        found: Option<(T, usize)>,
    ) -> Result<(T, u64), u64> {
        metrics.queries += 1;
        let Some((at, len)) = found else {
            metrics.misses += 1;
            return Err(self.lookup_miss_us);
        };
        metrics.hits += 1;
        Ok((at, self.lookup_req_us + self.net.transfer_us(len as u64)))
    }

    /// Moving a record of `len` payload bytes: a put to its node, or the
    /// paper's `T_net` between nodes. A batched migration pays one latency
    /// per batch in practice; this keeps the conservative per-record
    /// figure the analysis uses.
    #[inline]
    pub(crate) fn record_us(&self, len: usize) -> u64 {
        self.net.transfer_us(len as u64 + RECORD_WIRE_OVERHEAD)
    }
}

/// Count a split in `metrics`.
fn count_split(metrics: &mut Metrics, split: Migration) {
    metrics.splits += 1;
    metrics.splits_with_allocation += u64::from(split.allocated);
    metrics.migration_us += split.duration_us;
}

/// Node `id` of `nodes`, if it is active.
fn node_mut(nodes: &mut [Option<CacheNode>], id: NodeId) -> Result<&mut CacheNode, CacheError> {
    let node = nodes.get_mut(id.0 as usize).and_then(Option::as_mut);
    node.ok_or(CacheError::Internal {
        what: "ring references an inactive node",
    })
}

/// The simulator as the [`Engine`]'s [`Substrate`]: the cache's nodes,
/// the cloud they run on, and the one virtual clock.
struct Fleet {
    cfg: CacheConfig,
    clock: SimClock,
    charges: Charges,
    cloud: SimCloud,
    nodes: Vec<Option<CacheNode>>,
    tier: Option<PersistentStore>,
    /// [`Metrics::alloc_us`] and [`Metrics::tier_writes`], which the
    /// effects add to.
    alloc_us: u64,
    tier_writes: u64,
    /// Charges an insert owes the clock; `store` settles them.
    owed_us: u64,
    /// The records one `evict` removed, dropped after its removal loop so
    /// no refcount release stalls the next victim's descent; reused.
    evicted: Vec<Record>,
}

impl Fleet {
    /// Put a cache node on `instance`. Every node joins here: the initial
    /// one, GBA's last resort, and proactive splitting's background boot.
    fn add(&mut self, instance: InstanceId) -> NodeId {
        let cfg = &self.cfg;
        let node = CacheNode::new(instance, cfg.node_capacity_bytes, cfg.btree_order);
        self.nodes.push(Some(node));
        NodeId((self.nodes.len() - 1) as u32)
    }
}

impl Substrate for Fleet {
    type Node = NodeId;
    type Error = CacheError;
    type Record = Record;

    fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    fn loads(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        let nodes = self.nodes.iter().enumerate();
        nodes.filter_map(|(i, n)| Some((NodeId(i as u32), n.as_ref()?.used_bytes())))
    }

    fn records(&self, node: NodeId, lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let node = self.nodes.get(node.0 as usize).and_then(Option::as_ref);
        node.into_iter().flat_map(move |n| n.records(lo, hi))
    }

    /// Settle what the insert owes the clock, then store by the node's own
    /// rule ([`CacheNode::store`]).
    #[inline]
    fn store(
        &mut self,
        _ring: &HashRing<NodeId>,
        node: NodeId,
        key: u64,
        record: Record,
    ) -> Result<Option<Record>, CacheError> {
        self.clock.advance_us(std::mem::take(&mut self.owed_us));
        Ok(node_mut(&mut self.nodes, node)?.store(key, record))
    }

    /// Allocate a fresh cloud node (the last-resort branch of Algorithm 2,
    /// and the dominant overhead of Figure 4): the boot blocks the
    /// critical path.
    fn alloc(&mut self) -> Result<NodeId, CacheError> {
        let now = self.clock.now_us();
        let receipt = self.cloud.allocate(now, self.cfg.instance_type.clone());
        self.clock.advance_us(receipt.boot_us);
        self.alloc_us += receipt.boot_us;
        Ok(self.add(receipt.id))
    }

    /// The destructive sweep: drain each ascending run of `records` (one
    /// per span) from `src` — a linked-leaf walk lists the run's keys, then
    /// each is removed with its own root-to-leaf descent — charging
    /// `T_net` per record.
    fn migrate(
        &mut self,
        src: NodeId,
        dest: NodeId,
        records: &[(u64, u64)],
    ) -> Result<(u64, u64), CacheError> {
        let mut moved = (0, 0);
        for run in records.chunk_by(|a, b| a.0 < b.0) {
            let (Some(&(lo, _)), Some(&(hi, _))) = (run.first(), run.last()) else {
                continue;
            };
            for (k, rec) in node_mut(&mut self.nodes, src)?.drain_range(lo, hi) {
                self.clock.advance_us(self.charges.record_us(rec.len()));
                moved.0 += 1;
                moved.1 += rec.len() as u64;
                node_mut(&mut self.nodes, dest)?.insert(k, rec);
            }
        }
        Ok(moved)
    }

    /// Remove each victim from its node, writing it behind to the overflow
    /// tier (off the query path; the write proceeds between time steps).
    /// The removed records are released together after the loop.
    fn evict(&mut self, victims: &mut Vec<(u64, NodeId)>) -> Result<(), CacheError> {
        victims.retain(|&(key, nid)| {
            let Some(rec) = node_mut(&mut self.nodes, nid)
                .ok()
                .and_then(|n| n.remove(key))
            else {
                return false;
            };
            if let Some(tier) = self.tier.as_mut() {
                let dur = tier.put(self.clock.now_us(), key, rec.bytes());
                self.clock.advance_us(dur);
                self.tier_writes += 1;
            }
            self.evicted.push(rec);
            true
        });
        self.evicted.clear();
        Ok(())
    }

    fn dealloc(&mut self, node: NodeId) {
        if let Some(n) = self.nodes.get_mut(node.0 as usize).and_then(Option::take) {
            self.cloud.deallocate(self.clock.now_us(), n.instance);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WindowConfig;

    /// Config with capacity for `cap` 100-byte records per node.
    /// A config whose nodes hold exactly `cap` of the 100-byte test
    /// records, in charged-footprint units (records are charged their
    /// slab slot size, not their raw length).
    fn cfg_records(cap: u64) -> CacheConfig {
        let mut c = CacheConfig::small_test();
        c.node_capacity_bytes = cap * crate::slab::footprint(100);
        c
    }

    fn rec() -> Record {
        Record::filler(100)
    }

    #[test]
    fn starts_with_one_node_owning_everything() {
        let cache = ElasticCache::new(CacheConfig::small_test());
        assert_eq!(cache.node_count(), 1);
        assert_eq!(cache.ring().len(), 1);
        cache.validate();
    }

    #[test]
    fn basic_hit_and_miss_accounting() {
        let mut cache = ElasticCache::new(CacheConfig::small_test());
        let r = cache.query(5, 1_000_000, || Record::filler(10));
        assert_eq!(r.len(), 10);
        let r2 = cache.query(5, 1_000_000, || unreachable!());
        assert_eq!(r2.len(), 10);
        let m = cache.metrics();
        assert_eq!((m.queries, m.hits, m.misses), (2, 1, 1));
        assert_eq!(m.baseline_us, 2_000_000);
        assert_eq!(m.service_us, 1_000_000);
        assert!(m.observed_us >= 1_000_000);
        assert!(m.speedup() > 1.0);
    }

    #[test]
    fn a_hit_lends_the_stored_record_and_a_miss_clones_it() {
        let mut cache = ElasticCache::new(cfg_records(8));
        let stored = |c: &ElasticCache| -> (*const Record, *const u8) {
            let r = c.nodes().find_map(|(_, n)| n.get(7)).unwrap();
            (r, r.as_slice().as_ptr())
        };
        let miss = cache.query(7, 1_000, rec);
        let (owned, payload) = (matches!(miss, Cow::Owned(_)), miss.as_slice().as_ptr());
        assert!(owned, "a miss returns a handle of its own");
        let (copy, stored_payload) = stored(&cache);
        assert_eq!(payload, stored_payload, "on the stored allocation");
        let lent = match cache.query(7, 1_000, || unreachable!("must hit")) {
            Cow::Borrowed(r) => Some(r as *const Record),
            Cow::Owned(_) => None,
        };
        assert_eq!(lent, Some(copy), "a hit lends the stored copy");
        assert_eq!((cache.metrics().hits, cache.metrics().misses), (1, 1));
    }

    #[test]
    fn overflow_splits_and_allocates() {
        // 8 records per node; insert 20 distinct keys.
        let mut cache = ElasticCache::new(cfg_records(8));
        for k in 0..20u64 {
            cache.insert(k * 40, rec()).unwrap();
            cache.validate();
        }
        assert_eq!(cache.total_records(), 20);
        assert!(cache.node_count() >= 3, "got {} nodes", cache.node_count());
        assert!(cache.metrics().splits >= 2);
        // Everything is still readable.
        for k in 0..20u64 {
            assert!(cache.lookup(k * 40).is_some(), "key {} lost", k * 40);
        }
    }

    #[test]
    fn greedy_reuses_existing_space_before_allocating() {
        let mut cache = ElasticCache::new(cfg_records(16));
        // Fill node 0 exactly (16 records), then overflow it with a
        // low-range key: the split moves [0, k^µ] (9 records) to a new
        // node, leaving node 0 at 7.
        for k in 0..16u64 {
            cache.insert(k * 60, rec()).unwrap();
        }
        cache.insert(5, rec()).unwrap();
        assert_eq!(cache.node_count(), 2);
        assert_eq!(cache.metrics().splits_with_allocation, 1);
        // Now overflow the *new* node: its swept half (9 records) fits in
        // node 0's free space, so GBA must reuse it instead of allocating.
        for k in 0..6u64 {
            cache.insert(k * 60 + 13, rec()).unwrap();
        }
        cache.insert(19, rec()).unwrap();
        cache.validate();
        let m = cache.metrics();
        assert!(m.splits >= 2, "{m:?}");
        assert_eq!(
            m.splits_with_allocation, 1,
            "later splits should reuse the peer: {m:?}"
        );
        assert_eq!(cache.node_count(), 2);
    }

    #[test]
    fn records_remain_reachable_after_many_splits() {
        let mut cache = ElasticCache::new(cfg_records(16));
        let keys: Vec<u64> = (0..200u64).map(|i| (i * 37) % 1024).collect();
        for &k in &keys {
            cache.insert(k, rec()).unwrap();
        }
        cache.validate();
        for &k in &keys {
            assert!(cache.lookup(k).is_some(), "key {k} lost after splits");
        }
    }

    #[test]
    fn replacement_does_not_split() {
        let mut cache = ElasticCache::new(cfg_records(4));
        for k in 0..4u64 {
            cache.insert(k * 100, rec()).unwrap();
        }
        let splits_before = cache.metrics().splits;
        // Node is full; replacing an existing key must not overflow it.
        cache.insert(0, Record::filler(100)).unwrap();
        assert_eq!(cache.metrics().splits, splits_before);
        assert_eq!(cache.total_records(), 4);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut cache = ElasticCache::new(CacheConfig::small_test());
        let err = cache.insert(1, Record::filler(1_000_000)).unwrap_err();
        assert!(matches!(err, CacheError::RecordTooLarge { .. }));
    }

    #[test]
    fn out_of_range_key_rejected() {
        let mut cache = ElasticCache::new(CacheConfig::small_test());
        let err = cache.insert(1 << 20, rec()).unwrap_err();
        assert!(matches!(err, CacheError::KeyOutOfRange { .. }));
    }

    #[test]
    fn query_serves_uncacheable_records_without_caching() {
        let mut cache = ElasticCache::new(CacheConfig::small_test());
        let r = cache.query(3, 500, || Record::filler(1 << 20));
        assert_eq!(r.len(), 1 << 20);
        assert_eq!(cache.total_records(), 0);
        // Re-query misses again.
        let _ = cache.query(3, 500, || Record::filler(1 << 20));
        assert_eq!(cache.metrics().misses, 2);
    }

    fn windowed_cfg(cap: u64, m: usize) -> CacheConfig {
        let mut c = cfg_records(cap);
        c.window = Some(WindowConfig {
            slices: m,
            alpha: 0.99,
            threshold: None,
        });
        c.contraction_epsilon = 1;
        c
    }

    #[test]
    fn eviction_removes_stale_keys() {
        let mut cache = ElasticCache::new(windowed_cfg(64, 3));
        // Key 7 queried once, then never again for > m steps.
        cache.query(7, 100, rec);
        for _ in 0..4 {
            cache.end_time_step();
        }
        assert_eq!(cache.metrics().evictions, 1);
        assert_eq!(cache.total_records(), 0);
        cache.validate();
    }

    #[test]
    fn requeried_keys_survive_eviction() {
        let mut cache = ElasticCache::new(windowed_cfg(64, 3));
        cache.query(7, 100, rec);
        cache.end_time_step();
        cache.query(7, 100, || unreachable!("must hit"));
        cache.end_time_step();
        cache.end_time_step();
        cache.end_time_step(); // first insert's slice expires here
        assert_eq!(cache.metrics().evictions, 0);
        assert_eq!(cache.total_records(), 1);
    }

    #[test]
    fn contraction_merges_lightly_loaded_nodes() {
        let mut cache = ElasticCache::new(windowed_cfg(8, 2));
        // Force growth to multiple nodes. Queries (not bare inserts) so the
        // window tracks every key — only queried keys can expire.
        for k in 0..24u64 {
            cache.query(k * 40, 100, rec);
        }
        let grown = cache.node_count();
        assert!(grown >= 3);
        // Stop querying: everything expires and nodes merge pairwise.
        for _ in 0..20 {
            cache.end_time_step();
            cache.validate();
        }
        assert_eq!(cache.total_records(), 0);
        assert!(
            cache.node_count() < grown,
            "no contraction happened: still {grown} nodes"
        );
        assert!(cache.metrics().merges > 0);
        // min_nodes floor respected.
        assert!(cache.node_count() >= cache.config().min_nodes);
    }

    #[test]
    fn contraction_respects_merge_threshold() {
        let mut cache = ElasticCache::new(windowed_cfg(8, 2));
        for k in 0..16u64 {
            cache.insert(k * 60, rec()).unwrap();
        }
        let nodes_before = cache.node_count();
        // Keep every key warm: no evictions, nodes stay ~full, no merge
        // fits under 65 %.
        for _ in 0..10 {
            for k in 0..16u64 {
                cache.query(k * 60, 100, || unreachable!("warm"));
            }
            cache.end_time_step();
        }
        assert_eq!(cache.metrics().merges, 0);
        assert_eq!(cache.node_count(), nodes_before);
    }

    #[test]
    fn infinite_window_never_evicts() {
        let mut cache = ElasticCache::new(cfg_records(64)); // window: None
        for k in 0..10u64 {
            cache.query(k, 100, rec);
        }
        for _ in 0..100 {
            cache.end_time_step();
        }
        assert_eq!(cache.metrics().evictions, 0);
        assert_eq!(cache.total_records(), 10);
    }

    #[test]
    fn clock_charges_boot_on_allocation_path() {
        let mut c = cfg_records(4);
        c.boot_latency = ecc_cloudsim::BootLatency::fixed(1_000_000);
        let mut cache = ElasticCache::new(c);
        for k in 0..5u64 {
            cache.insert(k * 100, rec()).unwrap();
        }
        // One split with allocation: at least one boot second charged.
        assert!(cache.metrics().alloc_us >= 1_000_000);
        assert!(cache.clock().now_us() >= 1_000_000);
    }

    #[test]
    fn billing_reflects_fleet_growth() {
        let mut cache = ElasticCache::new(cfg_records(8));
        for k in 0..40u64 {
            cache.insert(k * 25, rec()).unwrap();
        }
        let billing = cache.cloud().billing(cache.clock().now_us());
        assert_eq!(billing.launched, cache.node_count());
        assert!(billing.microdollars > 0);
    }

    #[test]
    fn audit_passes_on_a_busy_cache() {
        let mut cache = ElasticCache::new(windowed_cfg(8, 3));
        for k in 0..30u64 {
            cache.query((k * 37) % 1024, 1000, rec);
        }
        for _ in 0..5 {
            cache.end_time_step();
        }
        cache
            .check_invariants()
            .expect("healthy cache audits clean");
    }

    #[test]
    fn audit_errors_render_with_context() {
        let misplaced = CacheAuditError::MisplacedKey {
            key: 9,
            resident_on: NodeId(1),
            owner: Some(NodeId(0)),
        };
        assert!(misplaced.to_string().contains("key 9"));
        let accounting = CacheAuditError::ByteAccountingMismatch {
            node: NodeId(2),
            counted: 10,
            recorded: 20,
        };
        assert!(accounting.to_string().contains("n2"));
        assert!(CacheAuditError::<NodeId>::Window { what: "probe" }
            .to_string()
            .contains("probe"));
        assert!(CacheAuditError::NodeWithoutBucket { node: NodeId(3) }
            .to_string()
            .contains("n3"));
    }

    #[test]
    fn a_split_stamps_its_node_alloc_when_it_asks_for_the_node() {
        const BOOT_US: u64 = 7_000_000;
        let mut c = cfg_records(4);
        c.boot_latency = ecc_cloudsim::BootLatency::fixed(BOOT_US);
        let mut cache = ElasticCache::new(c);
        for k in 0..12u64 {
            cache.insert(k * 80, rec()).unwrap();
        }
        let snapshot = cache.obs().snapshot();
        assert_eq!(snapshot.dropped, 0);
        let splits = crate::engine::split_costs(&snapshot.events);
        // Every split allocates or not; one that does waits out the boot.
        assert!(splits.iter().any(|s| s.allocated));
        for split in &splits {
            let boot = if split.allocated { BOOT_US } else { 0 };
            assert_eq!(split.alloc_us, boot, "{split:?}");
        }
    }

    #[test]
    fn simulated_events_carry_only_virtual_time() {
        // The registry's own clock is real time. The second run pauses
        // between steps, so an event stamped from that clock would differ
        // between the runs; one stamped from the virtual clock cannot.
        let run = |pause: std::time::Duration| {
            let mut c = windowed_cfg(4, 2);
            c.boot_latency = ecc_cloudsim::BootLatency::fixed(3_000_000);
            c.proactive_split_fill = Some(0.7);
            let mut cache = ElasticCache::new(c);
            for step in 0..12u64 {
                for i in 0..10u64 {
                    let key = (i * 53 + (step / 3 % 2) * 211) % 1024;
                    cache.query(key, 1_000 + key, rec);
                }
                cache.end_time_step();
                std::thread::sleep(pause);
            }
            let snapshot = cache.obs().snapshot();
            assert_eq!(snapshot.dropped, 0);
            (snapshot.events, cache.clock().now_us())
        };
        let (events, clock) = run(std::time::Duration::ZERO);
        let kinds: std::collections::BTreeSet<_> = events.iter().map(ObsEvent::kind).collect();
        for kind in [
            "node_alloc",
            "bucket_split",
            "sweep_migrate",
            "slice_expire",
            "evict_batch",
            "node_merge",
            "node_dealloc",
        ] {
            assert!(kinds.contains(kind), "no {kind} in {kinds:?}");
        }
        let paused = run(std::time::Duration::from_millis(2));
        assert_eq!(paused, (events, clock));
    }

    #[test]
    fn proactive_split_relieves_nearly_full_nodes_between_steps() {
        let mut c = cfg_records(10);
        c.proactive_split_fill = Some(0.7);
        let mut cache = ElasticCache::new(c);
        for k in 0..8u64 {
            cache.insert(k * 100, rec()).unwrap();
        }
        assert_eq!(cache.node_count(), 1, "no overflow yet");
        cache.end_time_step(); // fill 0.8 > 0.7 -> proactive split
        assert_eq!(cache.node_count(), 2);
        assert!(cache.metrics().splits >= 1);
        cache.validate();
        // Records all still reachable.
        for k in 0..8u64 {
            assert!(cache.lookup(k * 100).is_some());
        }
    }

    #[test]
    fn adaptive_window_grows_on_surge_and_shrinks_when_quiet() {
        let mut c = cfg_records(64);
        c.window = Some(WindowConfig {
            slices: 8,
            alpha: 0.99,
            threshold: None,
        });
        c.adaptive_window = Some(crate::adaptive::AdaptiveWindowConfig {
            min_slices: 2,
            max_slices: 64,
            grow_ratio: 2.0,
            shrink_ratio: 0.5,
            step_frac: 0.5,
            ema_weight: 0.5,
        });
        let mut cache = ElasticCache::new(c);
        let m0 = cache.window().unwrap().slices();
        // Establish a low-rate trend.
        for _ in 0..6 {
            cache.query(1, 100, rec);
            cache.end_time_step();
        }
        // Surge: many queries in one step.
        for k in 0..200u64 {
            cache.query(k, 100, rec);
        }
        cache.end_time_step();
        let grown = cache.window().unwrap().slices();
        assert!(grown > m0, "window should widen on surge: {m0} -> {grown}");
        // Quiet steps shrink it back down.
        for _ in 0..30 {
            cache.end_time_step();
        }
        let shrunk = cache.window().unwrap().slices();
        assert!(
            shrunk < grown,
            "window should narrow when quiet: {grown} -> {shrunk}"
        );
        cache.validate();
    }

    #[test]
    fn adaptive_shrink_expires_and_evicts_immediately() {
        let mut c = cfg_records(64);
        c.window = Some(WindowConfig {
            slices: 16,
            alpha: 0.99,
            threshold: None,
        });
        c.adaptive_window = Some(crate::adaptive::AdaptiveWindowConfig {
            min_slices: 1,
            max_slices: 16,
            grow_ratio: 10.0,
            shrink_ratio: 0.9,
            step_frac: 1.0,
            ema_weight: 1.0,
        });
        let mut cache = ElasticCache::new(c);
        // Slice 1: a burst caches keys and seeds the trend.
        for k in 0..10u64 {
            cache.query(k, 100, rec);
        }
        cache.end_time_step();
        assert_eq!(cache.total_records(), 10);
        // Two quiet steps: the controller collapses m to 1; the burst slice
        // expires early and its keys are evicted without waiting 16 steps.
        cache.end_time_step();
        cache.end_time_step();
        assert_eq!(
            cache.total_records(),
            0,
            "shrink must expire old slices immediately"
        );
        cache.validate();
    }

    #[test]
    fn overflow_tier_serves_evicted_records() {
        let mut c = cfg_records(64);
        c.window = Some(WindowConfig {
            slices: 2,
            alpha: 0.99,
            threshold: None,
        });
        c.overflow_tier = Some(ecc_cloudsim::StorageTier::s3_2010());
        let mut cache = ElasticCache::new(c);
        // Cache 5 keys, then let them expire.
        for k in 0..5u64 {
            cache.query(k, 23_000_000, || Record::filler(100));
        }
        for _ in 0..3 {
            cache.end_time_step();
        }
        assert_eq!(cache.total_records(), 0);
        assert_eq!(cache.metrics().tier_writes, 5);
        assert_eq!(cache.tier().unwrap().len(), 5);
        // Re-query: served from the tier, not the service; re-admitted.
        let t0 = cache.clock().now_us();
        let len = cache
            .query(3, 23_000_000, || unreachable!("tier must serve this"))
            .len();
        let took = cache.clock().now_us() - t0;
        assert_eq!(len, 100);
        assert_eq!(cache.metrics().tier_hits, 1);
        assert!(took < 1_000_000, "tier fetch should be ~ms, took {took} µs");
        assert_eq!(cache.total_records(), 1, "tier hit re-admits to memory");
        // And the next query is a plain memory hit.
        cache.query(3, 23_000_000, || unreachable!());
        assert_eq!(cache.metrics().hits, 1);
        assert!(cache.tier_cost_microdollars() > 0);
        cache.validate();
    }

    #[test]
    fn query_histograms_fold_at_step_close_like_per_sample_records() {
        // Every outcome (miss, memory hit, tier hit) across several steps:
        // the registry's `cache_query_us:*` after each close must equal a
        // registry that got one `record` per query as it happened.
        let mut c = cfg_records(64);
        c.window = Some(WindowConfig {
            slices: 2,
            alpha: 0.99,
            threshold: None,
        });
        c.overflow_tier = Some(ecc_cloudsim::StorageTier::s3_2010());
        let mut cache = ElasticCache::new(c);
        let reference = ObsRegistry::new(TimeSource::real());
        let query_hists = |obs: &ObsRegistry| {
            let mut hists = obs.snapshot().hists;
            hists.retain(|name, _| name.starts_with("cache_query_us:"));
            hists
        };
        for step in 0..8u64 {
            for k in 0..6u64 {
                let key = (k + step) % 9;
                let before = *cache.metrics();
                let t0 = cache.clock().now_us();
                cache.query(key, 23_000_000, || Record::filler(100));
                let dt = cache.clock().now_us() - t0;
                let m = cache.metrics();
                let name = if m.hits > before.hits {
                    "cache_query_us:hit"
                } else if m.tier_hits > before.tier_hits {
                    "cache_query_us:tier"
                } else {
                    "cache_query_us:miss"
                };
                reference.record(name, dt);
            }
            cache.end_time_step();
            assert_eq!(
                query_hists(cache.obs()),
                query_hists(&reference),
                "step {step}"
            );
        }
        assert_eq!(query_hists(cache.obs()).len(), 3, "every outcome exercised");
    }

    /// `query` written out step by step: a charged `lookup`, the tier
    /// fetch, the service charge, then a plain `insert`, with the query's
    /// own bookkeeping around them.
    fn stepwise_query(cache: &mut ElasticCache, key: u64, uncached_us: u64, rec: Record) -> Record {
        let t0 = cache.clock().now_us();
        cache.metrics.baseline_us += uncached_us;
        let observed = cache.metrics.observed_us;
        let found = cache.lookup(key).cloned();
        // The query accounts its whole span below.
        cache.metrics.observed_us = observed;
        let (slot, rec) = match found {
            Some(hit) => (QUERY_HIT, hit),
            None => {
                let mut from_tier = None;
                if let Some(tier) = &mut cache.fleet.tier {
                    let (found, dur_us) = tier.get(cache.fleet.clock.now_us(), key);
                    cache.fleet.clock.advance_us(dur_us);
                    from_tier = found.map(Record::from_bytes);
                }
                let slot = if from_tier.is_some() {
                    cache.metrics.tier_hits += 1;
                    QUERY_TIER
                } else {
                    cache.clock_mut().advance_us(uncached_us);
                    cache.metrics.service_us += uncached_us;
                    QUERY_MISS
                };
                let rec = from_tier.unwrap_or(rec);
                match cache.insert(key, rec.clone()) {
                    Ok(()) | Err(CacheError::RecordTooLarge { .. }) => {}
                    Err(_) => {
                        cache.metrics.insert_errors += 1;
                        cache.obs.emit(ObsEvent::InsertError {
                            at_us: cache.clock().now_us(),
                            key,
                        });
                    }
                }
                (slot, rec)
            }
        };
        let dt = cache.clock().now_us() - t0;
        cache.metrics.observed_us += dt;
        cache.query_us[slot].1.record(dt);
        rec
    }

    /// The twin oracle over three configurations: plain, proactive, tier.
    /// A split stamps its events from the clock, so the plain run alone
    /// pins `query`'s rule of settling its charges before a split reads
    /// it: without `Fleet::store`'s settling, its timestamps move.
    #[test]
    fn query_equals_lookup_then_charge_then_insert() {
        const BOOT_US: u64 = 2_000_000;
        // Every charge non-zero, so a misplaced one moves a timestamp.
        let base = || {
            let mut c = windowed_cfg(8, 2);
            c.net = ecc_cloudsim::NetModel::lan();
            c.lookup_overhead_us = 200;
            c.boot_latency = ecc_cloudsim::BootLatency::fixed(BOOT_US);
            c
        };
        let mut proactive = base();
        proactive.proactive_split_fill = Some(0.9);
        let mut tiered = base();
        tiered.overflow_tier = Some(ecc_cloudsim::StorageTier::s3_2010());
        for (name, cfg) in [
            ("plain", base()),
            ("proactive", proactive),
            ("tier", tiered),
        ] {
            let mut fused = ElasticCache::new(cfg.clone());
            let mut twin = ElasticCache::new(cfg);
            for step in 0..16u64 {
                // 24 queries a step over two key sets taking turns every
                // four steps: misses that split and allocate, hits,
                // evictions, merges, and a set's return to the tier.
                for i in 0..24u64 {
                    let key = (i * 37 + (step / 4 % 2) * 101) % 1024;
                    let len = if i == 5 {
                        4_000
                    } else {
                        40 + (key % 7) as usize * 10
                    };
                    let uncached_us = 1_000 + key;
                    let a = fused.query(key, uncached_us, || Record::filler(len));
                    let b = stepwise_query(&mut twin, key, uncached_us, Record::filler(len));
                    assert_eq!(*a, b, "{name}: step {step} key {key}");
                    assert_eq!(fused.clock().now_us(), twin.clock().now_us(), "{name}");
                    assert_eq!(fused.metrics(), twin.metrics(), "{name}: key {key}");
                }
                fused.end_time_step();
                twin.end_time_step();
                let buckets = |c: &ElasticCache| -> Vec<(u64, NodeId)> {
                    c.ring().buckets().map(|(b, &n)| (b, n)).collect()
                };
                assert_eq!(buckets(&fused), buckets(&twin), "{name}: step {step}");
                // Every flight-recorder event, timestamps included, and
                // every histogram.
                assert_eq!(fused.obs().snapshot(), twin.obs().snapshot(), "{name}");
                assert_eq!(fused.clock().now_us(), twin.clock().now_us(), "{name}");
                assert_eq!(fused.metrics(), twin.metrics(), "{name}");
            }
            // The run reached every path it is meant to pin.
            let m = fused.metrics();
            assert!(
                m.splits_with_allocation > 0 && m.merges > 0,
                "{name}: {m:?}"
            );
            assert!(m.hits > 0 && m.evictions > 0, "{name}: {m:?}");
            if name == "tier" {
                assert!(m.tier_hits > 0, "{m:?}");
            }
        }
    }

    #[test]
    fn tier_misses_fall_through_to_the_service() {
        let mut c = cfg_records(64);
        c.overflow_tier = Some(ecc_cloudsim::StorageTier::s3_2010());
        let mut cache = ElasticCache::new(c);
        let r = cache.query(9, 1000, || Record::filler(7));
        assert_eq!(r.len(), 7);
        assert_eq!(cache.metrics().misses, 1);
        assert_eq!(cache.metrics().tier_hits, 0);
        // The tier was consulted (one GET) even though it was empty.
        assert_eq!(cache.tier().unwrap().gets(), 1);
    }

    #[test]
    fn growing_replacement_splits_instead_of_overflowing() {
        // Regression (simtest elastic/1): a replacement used to be accepted
        // unconditionally, pushing its node over capacity. Fill one node
        // exactly, then grow a resident record in place: the overflow must
        // trigger a split, and the audit must stay clean throughout.
        let mut cache = ElasticCache::new(cfg_records(8));
        for k in 0..8u64 {
            cache.insert(k * 100, rec()).unwrap();
        }
        assert_eq!(cache.node_count(), 1);
        cache.insert(0, Record::filler(300)).unwrap();
        assert!(cache.node_count() >= 2, "growth must split, not overflow");
        assert_eq!(cache.lookup(0).map(|r| r.len()), Some(300));
        cache.validate();
    }
}
