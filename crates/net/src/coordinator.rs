//! The live coordinator: GBA over real sockets.
//!
//! Runs the elasticity engine ([`ecc_core::engine`]) that the simulated
//! [`ecc_core::ElasticCache`] runs, over a cluster of TCP cache servers:
//! every migration travels the wire as copy → ack → ring flip → delete,
//! and registering a node with the process's reactor pool stands in for
//! booting an EC2 instance: a split starts no thread and a merge joins
//! none.
//!
//! One coordinator owns the ring and is the only writer, as in the paper
//! (queries are "first sent to a coordinating compute node"). So it decides
//! from its own books and sends the nodes only effects: `PutMany`, a
//! copy's `GetMany`, `EvictMany`, spawn and dealloc (DESIGN.md §5, §10).
//!
//! - **Ledger.** Key → the slab footprint of the copy its ring owner
//!   holds, plus each node's used bytes: what its `Stats` would report. An
//!   entry changes when its wire effect is acked. A `get` of a key outside
//!   the ledger is a definite miss, answered without a frame.
//! - **Unsure nodes.** A failed wire call marks its nodes unsure; each is
//!   re-read before the next decision, and the copies it holds outside its
//!   arcs (from a failed delete) are deleted then.
//! - **Buffered fills.** [`LiveCoordinator::put`] marks the key's entry and
//!   appends the fill to a buffer: no frame. A `get` of a buffered key
//!   answers from the buffer. Every other call that reads or changes node
//!   state first *places* the buffer, and so does a `put` that would take
//!   it past one node's capacity: the engine's GBA-Insert, fill by fill in
//!   put order, against the ledger by the node's own admission rule. The
//!   fills go out as one `PutMany` per node, and an owner a fill would
//!   overflow is split. Each node sees a synchronous put's mutations in
//!   the same order. The placing call returns a placement's error; the
//!   fills it did not place are dropped.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;

use bytes::Bytes;
use ecc_chash::HashRing;
use ecc_core::engine::{Engine, Substrate};
use ecc_core::{slab, SlidingWindow};
use ecc_obs::recorder::DEFAULT_CAPACITY;
use ecc_obs::{ObsRegistry, ObsSnapshot, SpanGuard, TimeSource};

use crate::client::{evict_many_reply, obs_dump_reply, put_many_reply, stats_reply, RemoteNode};
use crate::protocol::{Request, Status};
use crate::server::{CacheServer, DEFAULT_MAX_CONNECTIONS};

/// A migration copies at most this many records per chunk (one `GetMany`
/// from the source)…
const CHUNK_RECORDS: usize = 64;
/// …and ships them in `PutMany` frames of at most this much payload (plus
/// the one record that crosses it). Small on purpose: the coordinator
/// holds one chunk at a time, so this pair bounds what a migration keeps
/// in memory, however large the span.
const CHUNK_BYTES: usize = 64 << 10;
/// B+-tree order of every node's index.
const BTREE_ORDER: usize = 64;

/// One managed node: the in-process server plus the coordinator's client
/// connection to it.
struct ManagedNode {
    server: CacheServer,
    client: RemoteNode,
    /// Σ footprint of the node's records.
    used: u64,
    /// A wire call to the node failed; [`Cluster::resync`] re-reads it
    /// before the next decision.
    unsure: bool,
}

/// What the ledger knows of one key.
#[derive(Default)]
struct Entry {
    /// The slab footprint of the key's acked copy on its owner; `None`
    /// while the key is only buffered.
    copy: Option<u64>,
    /// Buffer index of the key's newest unplaced fill.
    fill: Option<u32>,
}

/// The fills GBA-Insert stored on their owners ([`Substrate::store`]),
/// not yet sent.
struct Batches {
    /// Per node id, its fills in put order.
    fills: Vec<Vec<(u64, Vec<u8>)>>,
    /// Per node id, its used bytes once its fills land.
    used: Vec<u64>,
    /// Per batched key, its newest fill's footprint.
    footprints: HashMap<u64, u64>,
}

/// A violated coordinator-internal invariant, surfaced as a typed
/// [`io::Error`] on the operation that found it (the coordinator keeps
/// serving; nothing panics).
fn internal(what: &str) -> io::Error {
    io::Error::other(format!("coordinator invariant violated: {what}"))
}

/// The ack of a `PutMany` frame: all-`Ok` statuses. The ledger sized the
/// node to hold the batch, so a refusal is an invariant violation.
fn put_acked(statuses: Vec<Status>) -> io::Result<()> {
    match statuses.into_iter().find(|&s| s != Status::Ok) {
        Some(status) => Err(internal(&format!("batched put refused: {status:?}"))),
        None => Ok(()),
    }
}

/// The footprints of the records of `held` an `EvictMany` removed.
fn removed_bytes(held: &[(u64, u64)], statuses: &[Status]) -> u64 {
    let removed = held.iter().zip(statuses).filter(|(_, &s)| s == Status::Ok);
    removed.map(|(&(_, fp), _)| fp).sum()
}

fn keys_of(held: &[(u64, u64)]) -> Vec<u64> {
    held.iter().map(|&(k, _)| k).collect()
}

/// The cluster: the cache servers, the coordinator's connections to them
/// and the ledger. The engine's substrate.
struct Cluster {
    nodes: Vec<Option<ManagedNode>>,
    /// Key → its copy and its buffered fill (see the module docs).
    ledger: HashMap<u64, Entry>,
    /// The fills being placed, batched by owner; `None` while none is.
    batches: Option<Batches>,
    capacity_bytes: u64,
    /// Coordinator-side flight recorder + latency histograms.
    obs: ObsRegistry,
    /// Events and histograms of the nodes deallocated, until `cluster_obs`
    /// takes them. Kept apart so they cannot push the coordinator's own
    /// events out of its recorder, and bounded like a recorder: the newest
    /// [`DEFAULT_CAPACITY`] events, the rest counted as dropped.
    retired: ObsSnapshot,
}

/// The live elastic-cache coordinator.
pub struct LiveCoordinator {
    engine: Engine<usize>,
    cluster: Cluster,
    /// Fills not yet on any node, in put order (see the module docs).
    fills: Vec<(u64, Vec<u8>)>,
    /// Their summed slab footprint.
    fill_bytes: u64,
    /// Contraction cadence in slice expirations.
    pub contraction_epsilon: u64,
    /// Nodes spawned over the coordinator's lifetime.
    pub nodes_spawned: usize,
    /// Bucket splits performed.
    pub splits: usize,
    /// Node merges performed.
    pub merges: usize,
}

impl LiveCoordinator {
    /// Start a coordinator with one cache server of the given capacity.
    pub fn start(ring_range: u64, capacity_bytes: u64) -> io::Result<LiveCoordinator> {
        // One clock epoch for the coordinator and every node it spawns, so
        // span intervals from different recorders are comparable after a
        // `cluster_obs` merge.
        let obs = ObsRegistry::new(TimeSource::real());
        let mut cluster = Cluster {
            nodes: Vec::new(),
            ledger: HashMap::new(),
            batches: None,
            capacity_bytes,
            obs: obs.clone(),
            retired: ObsSnapshot::new(),
        };
        let first = cluster.alloc()?;
        Ok(LiveCoordinator {
            engine: Engine::new(ring_range, capacity_bytes, first, obs, cluster.now_us()),
            cluster,
            fills: Vec::new(),
            fill_bytes: 0,
            contraction_epsilon: 1,
            nodes_spawned: 1,
            splits: 0,
            merges: 0,
        })
    }

    /// Enable sliding-window eviction (`m`, `α`, `T_λ`).
    pub fn enable_window(&mut self, m: usize, alpha: f64, threshold: f64) {
        self.engine.window = Some(SlidingWindow::new(m, alpha, threshold));
    }

    /// Number of live cache servers.
    pub fn node_count(&self) -> usize {
        self.cluster.loads().count()
    }

    /// Read-only view of the hash ring (load generators route with it).
    pub fn ring(&self) -> &HashRing<usize> {
        &self.engine.ring
    }

    /// The coordinator's own observability registry (structural events,
    /// fan-out and migration latency histograms).
    pub fn obs(&self) -> &ObsRegistry {
        &self.cluster.obs
    }

    /// Cluster-wide observability snapshot: fan out `ObsDump` to every
    /// node, then fold the per-node snapshots into the coordinator's own by
    /// move (histograms add bucket-wise, events interleave by timestamp, one
    /// sort at the end). The observations of the nodes merged away since
    /// the last call are handed over too, once: they are not kept twice.
    pub fn cluster_obs(&mut self) -> io::Result<ObsSnapshot> {
        self.place()?;
        let cluster = &mut self.cluster;
        let own = cluster.obs.snapshot();
        let nodes = cluster.fan_out(|_| Some(Request::ObsDump), |_, s, b| obs_dump_reply(s, b))?;
        let nodes = nodes.into_iter().map(|(_, snap)| snap);
        let retired = std::mem::take(&mut cluster.retired);
        Ok(own.merged(std::iter::once(retired).chain(nodes)))
    }

    /// Address of node `id`'s cache server, if it is active.
    pub fn node_addr(&self, id: usize) -> Option<SocketAddr> {
        let node = self.cluster.nodes.get(id).and_then(Option::as_ref);
        node.map(|n| n.server.addr())
    }

    /// Total `(bytes, records)` across nodes as the nodes report them,
    /// collected with one concurrent `Stats` fan-out.
    pub fn totals(&mut self) -> io::Result<(u64, u64)> {
        self.place()?;
        let stats = self
            .cluster
            .fan_out(|_| Some(Request::Stats), |_, s, b| stats_reply(s, b))?;
        Ok(stats
            .into_iter()
            .fold((0, 0), |(bytes, records), (_, (b, r, _))| {
                (bytes + b, records + r)
            }))
    }

    fn owner(&self, key: u64) -> io::Result<usize> {
        self.engine
            .ring
            .node_for_key(key)
            .copied()
            .ok_or_else(|| internal("ring has no buckets"))
    }

    /// Look up `key`. A key outside the ledger is a definite miss, answered
    /// without a frame; a buffered key answers with its newest buffered
    /// value, also without a frame. Neither places the buffer. A node that
    /// lacks a key the ledger gives it violates an invariant, unless the
    /// node is unsure.
    pub fn get(&mut self, key: u64) -> io::Result<Option<Vec<u8>>> {
        if let Some(w) = &mut self.engine.window {
            w.note_query(key);
        }
        let Some(entry) = self.cluster.ledger.get(&key) else {
            return Ok(None);
        };
        if let Some(i) = entry.fill {
            return Ok(self.fills.get(i as usize).map(|(_, value)| value.clone()));
        }
        let owner = self.owner(key)?;
        let got = self.cluster.call(owner, |c| c.get(key))?;
        if got.is_none() && !self.cluster.node(owner)?.unsure {
            return Err(internal(&format!("node {owner} lacks ledgered key {key}")));
        }
        Ok(got)
    }

    /// Store `value` under `key`. A value whose slab footprint exceeds a
    /// node's capacity, or a key off the ring's line, is refused with
    /// [`io::ErrorKind::InvalidInput`]. The fill is buffered, not sent: the
    /// next call that reads or changes node state places it, splitting
    /// buckets / spawning servers as needed (GBA), and returns its error if
    /// it failed. A fill that would take the buffer past one node's
    /// capacity places the buffer first.
    pub fn put(&mut self, key: u64, value: Vec<u8>) -> io::Result<()> {
        let footprint = slab::footprint(value.len());
        self.engine.admits(key, footprint)?;
        if self.fill_bytes + footprint > self.cluster.capacity_bytes {
            self.place()?;
        }
        let entry = self.cluster.ledger.entry(key).or_default();
        entry.fill = Some(self.fills.len() as u32);
        self.fills.push((key, value));
        self.fill_bytes += footprint;
        Ok(())
    }

    /// Re-read every unsure node, then place the buffered fills, in put
    /// order, by the engine's GBA-Insert: the ledger is exact when this
    /// returns `Ok`.
    fn place(&mut self) -> io::Result<()> {
        self.cluster.resync(&self.engine.ring)?;
        if self.fills.is_empty() {
            return Ok(());
        }
        let fills = std::mem::take(&mut self.fills);
        self.fill_bytes = 0;
        let (engine, cluster, splits) = (&mut self.engine, &mut self.cluster, &mut self.splits);
        let placed = fills
            .into_iter()
            .try_for_each(|(key, value)| engine.insert(cluster, key, value, |_| *splits += 1))
            .and_then(|()| cluster.send_batches());
        self.nodes_spawned = self.cluster.nodes.len();
        if placed.is_err() {
            // The fills not placed are dropped.
            self.cluster.batches = None;
            self.cluster.ledger.retain(|_, e| {
                e.fill = None;
                e.copy.is_some()
            });
        }
        placed
    }

    /// The engine, told the contraction cadence callers may have changed,
    /// and the cluster it runs on.
    fn engine(&mut self) -> (&mut Engine<usize>, &mut Cluster) {
        self.engine.epsilon = self.contraction_epsilon;
        (&mut self.engine, &mut self.cluster)
    }

    /// Close a time slice: evict expired keys, contract every `ε`
    /// expirations.
    pub fn end_time_step(&mut self) -> io::Result<()> {
        self.place()?;
        let (engine, cluster) = self.engine();
        let (_, merged) = engine.close_step(cluster, None)?;
        self.merges += usize::from(merged.is_some());
        Ok(())
    }

    /// Merge [`ecc_core::gba::merge_pair`]'s two nodes, if it names any.
    pub fn try_contract(&mut self) -> io::Result<()> {
        self.place()?;
        let (engine, cluster) = self.engine();
        let merged = engine.merge(cluster)?;
        self.merges += usize::from(merged.is_some());
        Ok(())
    }

    /// Audit coordinator-wide invariants: the engine's ring-level audit
    /// (the ring partitions the hash line, every bucket maps to a live
    /// server, every live server owns at least one bucket), and the ledger
    /// is exact: each node holds (by [`Cluster::read_node`]) exactly the
    /// entries in its arcs, as many bytes as its used bytes and no more
    /// than its capacity, and no entry is left unplaced. Returns a typed
    /// [`io::Error`] on the first violation (the simulation harness
    /// promotes this to a hard failure after every event).
    pub fn check_invariants(&mut self) -> io::Result<()> {
        self.place()?;
        let loads: Vec<(usize, u64)> = self.cluster.loads().collect();
        let fleet: Vec<usize> = loads.iter().map(|&(id, _)| id).collect();
        let audit = self.engine.audit(&fleet);
        audit.map_err(|e| internal(&e.to_string()))?;
        let mut placed = 0;
        for (id, used) in loads {
            let expected = self.cluster.held_by(&self.engine.ring, id);
            placed += expected.len();
            let bytes: u64 = expected.iter().map(|&(_, fp)| fp).sum();
            if self.cluster.read_node(id)? != expected || used != bytes {
                return Err(internal(&format!(
                    "node {id} holds other records than the ledger says"
                )));
            }
        }
        let ledger = &self.cluster.ledger;
        if placed != ledger.len() || ledger.values().any(|e| e.fill.is_some()) {
            return Err(internal("the ledger holds a key no node holds"));
        }
        Ok(())
    }

    /// Place the buffered fills, then stop every cache server. Returns the
    /// placement's error, if any.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let placed = self.place();
        for slot in &mut self.cluster.nodes {
            if let Some(mut node) = slot.take() {
                node.server.stop();
            }
        }
        placed
    }
}

impl Drop for LiveCoordinator {
    fn drop(&mut self) {
        drop(self.shutdown());
    }
}

impl Cluster {
    /// Send `request(id)` to every active node it names, then read every
    /// reply and decode it with `reply`; collect `(node_id, value)` pairs.
    /// All on the calling thread: the nodes work on their requests
    /// concurrently while the coordinator waits for the first reply. The
    /// first error wins, but every reply that was asked for is still read,
    /// so no connection is left out of step. A failed fan-out marks every
    /// node it asked unsure: its caller enters no node's effect.
    ///
    /// When the calling thread has a live span (an elastic operation in
    /// progress), the whole fan-out gets a `coord_fanout` child span and
    /// every node's wire span hangs under it. With no live span the fan-out
    /// is untraced (`cluster_obs` in particular must stay untraced: a
    /// traced `ObsDump` would dump its own server span mid-flight, start
    /// without end).
    fn fan_out<'r, T>(
        &mut self,
        request: impl Fn(usize) -> Option<Request<'r>>,
        reply: impl Fn(usize, Status, &[u8]) -> io::Result<T>,
    ) -> io::Result<Vec<(usize, T)>> {
        let fanout = self.obs.span_follow("coord_fanout");
        let scope = fanout.as_ref().map(|s| (s.trace_id(), s.id()));
        let t0 = self.obs.now_us();
        let mut first_err = None;
        let (mut named, mut asked) = (Vec::new(), Vec::new());
        for (id, slot) in self.nodes.iter_mut().enumerate() {
            let Some(node) = slot else { continue };
            let Some(req) = request(id) else { continue };
            named.push(id);
            match node.client.send(&req, scope) {
                Ok(span) => asked.push((id, span)),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let mut out = Vec::with_capacity(asked.len());
        for (id, span) in asked {
            let got = self
                .client(id)
                .and_then(|c| c.recv().and_then(|(s, b)| reply(id, s, b)));
            drop(span);
            match got {
                Ok(v) => out.push((id, v)),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        self.obs.record("coord_fanout_us", self.obs.now_us() - t0);
        let Some(e) = first_err else { return Ok(out) };
        for id in named {
            self.node(id)?.unsure = true;
        }
        Err(e)
    }

    fn node(&mut self, id: usize) -> io::Result<&mut ManagedNode> {
        self.nodes
            .get_mut(id)
            .and_then(Option::as_mut)
            .ok_or_else(|| internal("ring references an inactive node"))
    }

    fn client(&mut self, id: usize) -> io::Result<&mut RemoteNode> {
        self.node(id).map(|n| &mut n.client)
    }

    /// One wire call to node `id`; a failure marks the node unsure.
    fn call<T>(
        &mut self,
        id: usize,
        f: impl FnOnce(&mut RemoteNode) -> io::Result<T>,
    ) -> io::Result<T> {
        let node = self.node(id)?;
        let got = f(&mut node.client);
        node.unsure |= got.is_err();
        got
    }

    /// Send the batched fills as one `PutMany` per node, then enter the
    /// acked fills in the ledger, in put order.
    fn send_batches(&mut self) -> io::Result<()> {
        let Some(Batches { fills, .. }) = self.batches.take() else {
            return Ok(());
        };
        if fills.iter().all(Vec::is_empty) {
            return Ok(());
        }
        self.fan_out(
            |id| {
                let batch = fills.get(id).filter(|b| !b.is_empty())?;
                let items = batch.iter().map(|(key, value)| (*key, &value[..]));
                Some(Request::PutMany {
                    items: items.collect(),
                })
            },
            |id, s, b| put_many_reply(fills.get(id).map_or(0, Vec::len), s, b).and_then(put_acked),
        )?;
        for (id, batch) in fills.into_iter().enumerate() {
            for (key, value) in batch {
                let footprint = slab::footprint(value.len());
                let copy = Some(footprint);
                let old = self.ledger.insert(key, Entry { copy, fill: None });
                let node = self.node(id)?;
                node.used = node.used + footprint - old.and_then(|e| e.copy).unwrap_or(0);
            }
        }
        Ok(())
    }

    /// Node `id`'s ledgered `(key, footprint)` pairs in key order: one pass
    /// over the ledger.
    fn held_by(&self, ring: &HashRing<usize>, id: usize) -> Vec<(u64, u64)> {
        let entries = self.ledger.iter();
        let mine = entries.filter(|&(&key, _)| ring.node_for_key(key) == Some(&id));
        let mut held: Vec<_> = mine.filter_map(|(&key, e)| Some((key, e.copy?))).collect();
        held.sort_unstable();
        held
    }

    /// What node `id` holds, read from the node: its `(key, footprint)`
    /// pairs in key order (`Keys`, then `GetMany` for the lengths), which
    /// its `Stats` must agree with.
    fn read_node(&mut self, id: usize) -> io::Result<Vec<(u64, u64)>> {
        let keys = self.call(id, |c| c.keys(0, u64::MAX))?;
        let mut held = Vec::with_capacity(keys.len());
        for chunk in keys.chunks(CHUNK_RECORDS) {
            let values = self.call(id, |c| c.get_many(chunk))?;
            let lens = chunk.iter().zip(values);
            held.extend(lens.filter_map(|(&k, v)| Some((k, slab::footprint(v?.len())))));
        }
        let (used, records, cap) = self.call(id, |c| c.stats())?;
        let bytes = held.iter().map(|&(_, fp)| fp).sum::<u64>();
        if (used, records) != (bytes, held.len() as u64) || used > cap {
            return Err(internal(&format!(
                "node {id}'s Stats disagree with its records"
            )));
        }
        Ok(held)
    }

    /// Re-read every unsure node ([`Self::read_node`]) into the ledger,
    /// and delete the copies it holds outside its arcs on `ring`. A failed
    /// call leaves the node unsure and fails the decision that needed it.
    fn resync(&mut self, ring: &HashRing<usize>) -> io::Result<()> {
        for id in 0..self.nodes.len() {
            if !self.nodes[id].as_ref().is_some_and(|n| n.unsure) {
                continue;
            }
            let held = self.read_node(id)?;
            self.ledger.retain(|&key, e| {
                if ring.node_for_key(key) == Some(&id) {
                    e.copy = None;
                }
                e.copy.is_some() || e.fill.is_some()
            });
            let (mine, stale): (Vec<_>, Vec<_>) = held
                .into_iter()
                .partition(|&(key, _)| ring.node_for_key(key) == Some(&id));
            for &(key, footprint) in &mine {
                self.ledger.entry(key).or_default().copy = Some(footprint);
            }
            let node = self.node(id)?;
            node.used = mine.iter().chain(&stale).map(|&(_, fp)| fp).sum();
            node.unsure = false;
            self.delete(id, &stale);
            if self.node(id)?.unsure {
                return Err(io::Error::other(format!(
                    "node {id}: stale copies not deleted"
                )));
            }
        }
        Ok(())
    }

    /// One chunk of [`Substrate::migrate`]: a `GetMany` from `src`, then
    /// `PutMany` frames of at most [`CHUNK_BYTES`] to `dest`, each acked by
    /// all-`Ok` statuses and then counted in `dest`'s used bytes.
    fn copy_chunk(
        &mut self,
        src: usize,
        dest: usize,
        chunk: &[(u64, u64)],
        copied: &mut (u64, u64),
    ) -> io::Result<()> {
        let values = self.call(src, |c| c.get_many(&keys_of(chunk)))?;
        let mut batch = Vec::with_capacity(chunk.len());
        let (mut batch_bytes, mut footprint) = (0, 0);
        let mut records = chunk.iter().zip(values).peekable();
        while let Some((&(key, fp), value)) = records.next() {
            let value =
                value.ok_or_else(|| internal(&format!("node {src} lacks ledgered key {key}")))?;
            batch_bytes += value.len();
            footprint += fp;
            copied.0 += 1;
            copied.1 += value.len() as u64;
            batch.push((key, Bytes::from(value)));
            if batch_bytes >= CHUNK_BYTES || records.peek().is_none() {
                let batch = std::mem::take(&mut batch);
                self.call(dest, |c| c.put_many(batch).and_then(put_acked))?;
                self.node(dest)?.used += std::mem::take(&mut footprint);
                batch_bytes = 0;
            }
        }
        Ok(())
    }

    /// Delete the `(key, footprint)` records of `held` from node `id`,
    /// which no longer owns them: a move's last step, or the cleanup of an
    /// aborted copy. Each removal the node acks leaves its used bytes; a
    /// failed delete leaves the node unsure.
    fn delete(&mut self, id: usize, held: &[(u64, u64)]) {
        let Ok(node) = self.node(id) else { return };
        if held.is_empty() {
            return;
        }
        match node.client.evict_many(&keys_of(held)) {
            // Saturating: an unsure node's bytes are re-read anyway.
            Ok(statuses) => node.used = node.used.saturating_sub(removed_bytes(held, &statuses)),
            Err(_) => node.unsure = true,
        }
    }
}

/// The engine's effects as wire traffic (DESIGN §10).
impl Substrate for Cluster {
    type Node = usize;
    type Error = io::Error;
    type Record = Vec<u8>;

    /// The registry's clock: the epoch every node's recorder shares.
    fn now_us(&self) -> u64 {
        self.obs.now_us()
    }

    fn loads(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let nodes = self.nodes.iter().enumerate();
        nodes.filter_map(|(id, n)| Some((id, n.as_ref()?.used)))
    }

    /// Every acked copy the ledger has in the span, by one pass over the
    /// ledger (a hash map: `get` and `put` look a key up on every query):
    /// a key's copy is on its ring owner, which for a span of `node`'s arc
    /// is `node`.
    fn records(&self, _node: usize, lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let span = self
            .ledger
            .iter()
            .filter(|&(key, _)| (lo..=hi).contains(key));
        let mut held: Vec<_> = span.filter_map(|(&key, e)| Some((key, e.copy?))).collect();
        held.sort_unstable();
        held.into_iter()
    }

    /// Batch the fill for `node` if the node's used bytes, with the fills
    /// already batched for it, grow by no more than its free bytes; as in
    /// the node's own admission, only the footprint growth over the key's
    /// current copy counts. Before it hands a fill back it sends the
    /// batches, so the split moves them. A split's failed delete leaves its
    /// source unsure, so unsure nodes are re-read first.
    fn store(
        &mut self,
        ring: &HashRing<usize>,
        node: usize,
        key: u64,
        value: Vec<u8>,
    ) -> io::Result<Option<Vec<u8>>> {
        self.resync(ring)?;
        let footprint = slab::footprint(value.len());
        let copy = self.ledger.get(&key).and_then(|e| e.copy);
        let nodes = &self.nodes;
        let batches = self.batches.get_or_insert_with(|| Batches {
            fills: vec![Vec::new(); nodes.len()],
            used: nodes
                .iter()
                .map(|n| n.as_ref().map_or(0, |n| n.used))
                .collect(),
            footprints: HashMap::new(),
        });
        let old = batches.footprints.get(&key).copied().or(copy).unwrap_or(0);
        let (Some(used), Some(fills)) = (batches.used.get_mut(node), batches.fills.get_mut(node))
        else {
            return Err(internal("ring references an inactive node"));
        };
        if *used + footprint <= self.capacity_bytes + old {
            *used = *used + footprint - old;
            fills.push((key, value));
            batches.footprints.insert(key, footprint);
            return Ok(None);
        }
        self.send_batches()?;
        Ok(Some(value))
    }

    /// Start a cache server. The coordinator's span ids come from origin
    /// 0, node `id`'s from origin `id + 1`: distinct per recorder, so
    /// merged span ids never collide.
    fn alloc(&mut self) -> io::Result<usize> {
        let id = self.nodes.len();
        let server = CacheServer::spawn_clocked(
            ("127.0.0.1", 0),
            self.capacity_bytes,
            BTREE_ORDER,
            DEFAULT_MAX_CONNECTIONS,
            None,
            self.obs.time(),
        )?;
        server.obs().set_origin(id as u32 + 1);
        let client = RemoteNode::connect(server.addr())?.with_obs(self.obs.clone());
        self.nodes.push(Some(ManagedNode {
            server,
            client,
            used: 0,
            unsure: false,
        }));
        Ok(id)
    }

    /// Copy → ack, the first half of a hand-off: copy `records` one chunk
    /// of at most [`CHUNK_RECORDS`] at a time. `src` is only read. On
    /// failure the prefix already copied is deleted from `dest`: it lies
    /// outside every arc `dest` owns.
    fn migrate(&mut self, src: usize, dest: usize, held: &[(u64, u64)]) -> io::Result<(u64, u64)> {
        let mut copied = (0, 0);
        for (i, chunk) in held.chunks(CHUNK_RECORDS).enumerate() {
            // One span per chunk, under the enclosing elastic operation.
            let _chunk = self.obs.span_follow("migrate_chunk");
            if let Err(e) = self.copy_chunk(src, dest, chunk, &mut copied) {
                self.delete(dest, &held[..i * CHUNK_RECORDS + chunk.len()]);
                return Err(e);
            }
        }
        Ok(copied)
    }

    /// The delete: `src` kept its copies until the ring no longer routed
    /// to them. A move, not an eviction, so no `EvictBatch`. A failed
    /// delete leaves `src` unsure, and its re-read deletes them.
    fn release(&mut self, src: usize, records: &[(u64, u64)]) {
        self.delete(src, records);
    }

    /// The ledgered victims, grouped by owner: one `EvictMany` per node
    /// in one concurrent fan-out, instead of one blocking round-trip per
    /// victim. A victim outside the ledger is held by no node, and goes
    /// out in no frame.
    fn evict(&mut self, victims: &mut Vec<(u64, usize)>) -> io::Result<()> {
        let mut batches: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.nodes.len()];
        victims.retain(|&(key, owner)| {
            let copy = self.ledger.get(&key).and_then(|e| e.copy);
            match (copy, batches.get_mut(owner)) {
                (Some(fp), Some(batch)) => {
                    batch.push((key, fp));
                    true
                }
                _ => false,
            }
        });
        if victims.is_empty() {
            return Ok(());
        }
        let acked = {
            let batches = &batches;
            self.fan_out(
                |id| {
                    let keys = keys_of(batches.get(id).filter(|b| !b.is_empty())?);
                    Some(Request::EvictMany { keys })
                },
                |id, s, b| evict_many_reply(batches.get(id).map_or(0, Vec::len), s, b),
            )?
        };
        for (id, statuses) in acked {
            let batch = std::mem::take(&mut batches[id]);
            self.node(id)?.used -= removed_bytes(&batch, &statuses);
            for (key, _) in batch {
                self.ledger.remove(&key);
            }
        }
        Ok(())
    }

    /// Keep the node's events and histograms, not its gauges: they
    /// describe memory that goes with it. Read in process, before its
    /// server stops: a server records a request before it sends the reply.
    fn dealloc(&mut self, id: usize) {
        let Some(mut dead) = self.nodes.get_mut(id).and_then(Option::take) else {
            return;
        };
        let mut snap = dead.server.obs().snapshot();
        snap.gauges.clear();
        let mut retired = std::mem::take(&mut self.retired).merged([snap]);
        let excess = retired.events.len().saturating_sub(DEFAULT_CAPACITY);
        retired.events.drain(..excess);
        retired.dropped += excess as u64;
        self.retired = retired;
        dead.server.stop();
    }

    /// A first-class root span: every wire op of the operation attaches
    /// under it via the thread-local scope.
    fn span(&self, kind: &'static str) -> Option<SpanGuard> {
        Some(self.obs.span_root(kind))
    }
}

#[cfg(test)]
mod tests {
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::protocol::{decode_with_trace, read_frame, write_frame, Op, Response};
    use ecc_obs::ObsEvent;

    impl LiveCoordinator {
        /// Relieve node `nid` ([`Engine::split`], decided from the ledger)
        /// outside GBA-Insert. The hand-off is copy → ack → ring flip →
        /// delete: `nid` keeps every moved record until the destination
        /// has acked all of them and the ring routes their arc to it, so a
        /// failure before the flip leaves `nid` and the ring as they were.
        fn split_node(&mut self, nid: usize) -> io::Result<()> {
            let (engine, cluster) = self.engine();
            let split = engine.split(cluster, nid);
            self.nodes_spawned = self.cluster.nodes.len();
            split?;
            self.splits += 1;
            Ok(())
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let mut c = LiveCoordinator::start(1 << 16, 100_000).unwrap();
        c.put(1, b"one".to_vec()).unwrap();
        c.put(2, b"two".to_vec()).unwrap();
        assert_eq!(c.get(1).unwrap(), Some(b"one".to_vec()));
        assert_eq!(c.get(2).unwrap(), Some(b"two".to_vec()));
        assert_eq!(c.get(3).unwrap(), None);
        c.shutdown().unwrap();
    }

    #[test]
    fn grows_across_real_servers_under_load() {
        // Room for ~10 x 100 B records per node; insert 64 keys.
        let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
        for k in 0..64u64 {
            c.put(k * 1000 + 5, vec![k as u8; 100]).unwrap();
        }
        assert!(c.node_count() >= 6, "only {} nodes", c.node_count());
        assert!(c.splits >= 5);
        // Every record is still reachable through the ring.
        for k in 0..64u64 {
            assert_eq!(
                c.get(k * 1000 + 5).unwrap(),
                Some(vec![k as u8; 100]),
                "key {k} lost"
            );
        }
        let (bytes, records) = c.totals().unwrap();
        assert_eq!(records, 64);
        // Each 100-byte payload occupies a 136-byte slab slot.
        assert_eq!(bytes, 64 * 136);
        c.shutdown().unwrap();
    }

    #[test]
    fn eviction_and_contraction_over_the_wire() {
        let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
        c.enable_window(2, 0.99, 0.99f64.powi(1));
        for k in 0..32u64 {
            if c.get(k * 999).unwrap().is_none() {
                c.put(k * 999, vec![1; 100]).unwrap();
            }
        }
        let grown = c.node_count();
        assert!(grown >= 3);
        for _ in 0..8 {
            c.end_time_step().unwrap();
        }
        let (_, records) = c.totals().unwrap();
        assert_eq!(records, 0, "eviction should have emptied the cache");
        assert!(c.node_count() < grown, "no contraction");
        assert!(c.merges >= 1);
        // Each slice close emits its `EvictBatch` events in node order, as
        // the simulated cache does.
        let mut nodes_per_close: Vec<Vec<u32>> = Vec::new();
        for (_, event) in c.obs().events_since(0) {
            match event {
                ObsEvent::SliceExpire { .. } => nodes_per_close.push(Vec::new()),
                ObsEvent::EvictBatch { node, .. } => {
                    nodes_per_close.last_mut().unwrap().push(node);
                }
                _ => {}
            }
        }
        assert!(
            nodes_per_close.iter().any(|nodes| nodes.len() >= 2),
            "no slice close evicted from two nodes: {nodes_per_close:?}"
        );
        for nodes in &nodes_per_close {
            assert!(nodes.windows(2).all(|w| w[0] < w[1]), "{nodes_per_close:?}");
        }
        c.shutdown().unwrap();
    }

    #[test]
    fn cluster_obs_merges_nodes_and_coordinator() {
        let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
        c.enable_window(2, 0.99, 0.99f64.powi(1));
        for k in 0..32u64 {
            if c.get(k * 999).unwrap().is_none() {
                c.put(k * 999, vec![1; 100]).unwrap();
            }
        }
        for _ in 0..8 {
            c.end_time_step().unwrap();
        }
        let snap = c.cluster_obs().unwrap();
        let counts = snap.event_counts();
        // The grow phase split buckets and spawned nodes; the shrink phase
        // evicted and merged. Every structural family must be on record.
        assert!(counts.get("bucket_split").copied().unwrap_or(0) >= 1);
        assert!(counts.get("node_alloc").copied().unwrap_or(0) >= 2);
        assert!(counts.get("node_merge").copied().unwrap_or(0) >= 1);
        assert!(counts.get("evict_batch").copied().unwrap_or(0) >= 1);
        // Every merge pairs with a dealloc of the drained node.
        assert_eq!(
            counts.get("node_merge"),
            counts.get("node_dealloc"),
            "merge/dealloc pairing broken: {counts:?}"
        );
        // Per-node server histograms merged in. The data path is batched
        // (put_many), and only survivors of the contraction still hold
        // their registries, so assert on ops the survivor served.
        let names: Vec<&String> = snap.hists.keys().collect();
        assert!(
            snap.hist("server_op_us:put_many").is_some(),
            "hists: {names:?}"
        );
        assert!(snap.hist("coord_fanout_us").is_some());
        // The exposition renders and carries quantiles + events.
        let text = snap.render_prometheus();
        assert!(text.contains("ecc_server_op_us{op=\"put_many\",quantile=\"0.99\"}"));
        assert!(text.contains("ecc_events_total{type=\"node_merge\"}"));
        // Events interleave in timestamp order after the merge.
        let times: Vec<u64> = snap.events.iter().map(|e| e.at_us()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        c.shutdown().unwrap();
    }

    #[test]
    fn elastic_operations_trace_as_complete_root_span_trees() {
        let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
        c.enable_window(2, 0.99, 0.99f64.powi(1));
        for k in 0..32u64 {
            if c.get(k * 999).unwrap().is_none() {
                c.put(k * 999, vec![1; 100]).unwrap();
            }
        }
        for _ in 0..8 {
            c.end_time_step().unwrap();
        }
        let (splits, merges) = (c.splits, c.merges);
        assert!(splits >= 1 && merges >= 1, "run exercised no elasticity");
        let snap = c.cluster_obs().unwrap();
        let stats = ecc_obs::verify_spans(&snap.events).expect("cluster span stream well-formed");
        assert!(
            stats.roots >= splits + merges,
            "{} roots for {splits} splits + {merges} merges",
            stats.roots
        );
        // Each root span's id doubles as its trace id: one trace per root.
        assert_eq!(stats.roots, stats.traces);
        let spans = ecc_obs::build_spans(&snap.events).unwrap();
        let count = |k: &str| spans.iter().filter(|s| s.kind == k).count();
        assert_eq!(count("elastic_split"), splits);
        assert_eq!(count("elastic_merge"), merges);
        assert!(count("elastic_slice_expire") >= 1);
        assert!(count("coord_fanout") >= 1);
        // Every hand-off that moves a record copies at least one chunk:
        // every split here, and each merge of a node the evictions had not
        // yet emptied.
        let moving_merges = snap
            .events
            .iter()
            .filter(|e| matches!(e, ObsEvent::NodeMerge { records, .. } if *records > 0))
            .count();
        assert!(count("migrate_chunk") >= splits + moving_merges);
        assert!(count("wire:get_many") >= 1);
        // Surviving nodes dumped the server halves of the traced wire ops.
        assert!(count("srv") >= 1, "no node-side spans in the cluster dump");
        // Fan-out wire ops hang under the coord_fanout span, not the root.
        let fanouts: Vec<u64> = spans
            .iter()
            .filter(|s| s.kind == "coord_fanout")
            .map(|s| s.span)
            .collect();
        assert!(spans
            .iter()
            .any(|s| s.kind.starts_with("wire:") && fanouts.contains(&s.parent)));
        c.shutdown().unwrap();
    }

    #[test]
    fn a_merged_node_is_freed_when_dealloc_returns() {
        let mut c = two_node_fleet();
        for k in [100, 200] {
            c.put(k, vec![7; 60]).unwrap();
        }
        c.put(10_000, vec![9; 100]).unwrap();
        let node = c.cluster.nodes[0].as_ref().unwrap();
        let merged = Arc::downgrade(&node.server.node);
        c.try_contract().unwrap();
        assert_eq!(c.merges, 1);
        // The coordinator dropped its server; no reactor holds the node
        // either, so its slab pages are unmapped already.
        assert!(merged.upgrade().is_none(), "the merged node is still held");
        c.shutdown().unwrap();
    }

    #[test]
    fn a_merge_that_moves_records_traces_its_copy_chunks() {
        let mut c = two_node_fleet();
        for k in [100, 200] {
            c.put(k, vec![7; 60]).unwrap();
        }
        c.put(10_000, vec![9; 100]).unwrap();
        c.try_contract().unwrap();
        assert_eq!(c.merges, 1);
        let snap = c.cluster_obs().unwrap();
        let spans = ecc_obs::build_spans(&snap.events).unwrap();
        let merge = spans.iter().find(|s| s.kind == "elastic_merge").unwrap();
        let chunks: Vec<u64> = spans
            .iter()
            .filter(|s| s.kind == "migrate_chunk")
            .inspect(|s| assert_eq!(s.parent, merge.span, "chunk outside the merge"))
            .map(|s| s.span)
            .collect();
        // Node 0 (one record) drains into node 1: one chunk.
        assert_eq!(chunks.len(), 1);
        let reads: Vec<u64> = spans
            .iter()
            .filter(|s| s.kind == "wire:get_many" && chunks.contains(&s.parent))
            .map(|s| s.span)
            .collect();
        assert_eq!(reads.len(), 1);
        // Node 0 (span origin 1) is gone, but the server half of the read
        // it served, and its histograms, are in the cluster dump.
        assert!(spans
            .iter()
            .any(|s| s.kind == "srv" && s.node == 1 && reads.contains(&s.parent)));
        assert_eq!(
            snap.hist("server_op_us:get_many").map(|h| h.count()),
            Some(1)
        );
        for k in [100, 200] {
            assert_eq!(c.get(k).unwrap(), Some(vec![7; 60]));
        }
        assert_eq!(c.get(10_000).unwrap(), Some(vec![9; 100]));
    }

    /// What a [`relay`] does with one request.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Act {
        /// Send it to the node, and its reply back.
        Forward,
        /// Answer `BadRequest` without sending it; the connection stays.
        Refuse,
        /// Send it to the node, but answer `BadRequest`: the node applied
        /// it, the coordinator never learns so.
        LoseAck,
        /// Close the connection, as a dead node would.
        HangUp,
    }

    /// Frames the coordinator sent through a [`relay`], by opcode.
    type FrameCounts = Arc<[AtomicU64; 16]>;

    /// Node `id`'s connection now runs through a relay to its server that
    /// does with each request what `script` says, and counts it by opcode
    /// into `counts` if given. The ledger still counts the node, so a node
    /// that hangs up is still chosen as a destination. The relay leaves the
    /// buffered fills alone: a test that must not send them through it
    /// places them first.
    fn relay(
        c: &mut LiveCoordinator,
        id: usize,
        mut script: impl FnMut(&Request<'_>) -> Act + Send + 'static,
        counts: Option<&FrameCounts>,
    ) {
        let upstream = c.node_addr(id).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let counts = counts.cloned();
        std::thread::spawn(move || {
            let Ok((mut conn, _)) = listener.accept() else {
                return;
            };
            let Ok(mut upstream) = TcpStream::connect(upstream) else {
                return;
            };
            while let Ok(buf) = read_frame(&mut conn) {
                let act = match decode_with_trace(&buf) {
                    Some((_, req)) => {
                        if let Some(counts) = &counts {
                            counts[req.op() as usize].fetch_add(1, Ordering::Relaxed);
                        }
                        script(&req)
                    }
                    None => Act::Forward,
                };
                let refused = Response::status(Status::BadRequest).encode();
                let reply = match act {
                    Act::HangUp => return,
                    Act::Refuse => refused,
                    Act::Forward | Act::LoseAck => {
                        let relayed = write_frame(&mut upstream, &buf)
                            .and_then(|()| read_frame(&mut upstream));
                        match relayed {
                            Ok(_) if act == Act::LoseAck => refused,
                            Ok(reply) => reply,
                            Err(_) => return,
                        }
                    }
                };
                if write_frame(&mut conn, &reply).is_err() {
                    return;
                }
            }
        });
        let obs = c.cluster.obs.clone();
        c.cluster.nodes[id].as_mut().unwrap().client =
            RemoteNode::connect(addr).unwrap().with_obs(obs);
    }

    /// A [`relay`] script: `act` on the first request `pick` matches,
    /// forward everything else.
    fn first(pick: fn(&Request<'_>) -> bool, act: Act) -> impl FnMut(&Request<'_>) -> Act + Send {
        let mut done = false;
        move |req| {
            if done || !pick(req) {
                return Act::Forward;
            }
            done = true;
            act
        }
    }

    /// A [`relay`] script for a dead node.
    fn hang_up(_: &Request<'_>) -> Act {
        Act::HangUp
    }

    fn evict_many(req: &Request<'_>) -> bool {
        matches!(req, Request::EvictMany { .. })
    }

    fn put_many(req: &Request<'_>) -> bool {
        matches!(req, Request::PutMany { .. })
    }

    /// Two nodes: node 1 owns the arc `[0, 9_999]`, node 0 the rest.
    fn two_node_fleet() -> LiveCoordinator {
        let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
        let n1 = c.cluster.alloc().unwrap();
        c.engine.joined(c.cluster.now_us(), n1);
        c.nodes_spawned += 1;
        c.engine.ring.insert_bucket(9_999, n1).unwrap();
        c
    }

    fn ring_of(c: &LiveCoordinator) -> Vec<(u64, usize)> {
        c.engine
            .ring
            .buckets()
            .map(|(pos, &nid)| (pos, nid))
            .collect()
    }

    /// Every record on each of the `live` nodes lies in that node's arc.
    fn assert_records_in_arcs(c: &mut LiveCoordinator, live: &[usize]) {
        let hi = c.engine.ring.range() - 1;
        for &id in live {
            for key in c.cluster.client(id).unwrap().keys(0, hi).unwrap() {
                assert_eq!(
                    c.ring().node_for_key(key),
                    Some(&id),
                    "node {id} holds {key}"
                );
            }
        }
    }

    #[test]
    fn a_split_whose_destination_dies_before_the_copy_loses_nothing() {
        let mut c = two_node_fleet();
        // Seven 100 B records (136 B slots) fill node 0's 1000 B; the
        // eighth overflows it, and the split's lower half fits on the empty
        // node 1 — the least-loaded existing node, so the destination.
        let keys: Vec<u64> = (0..7).map(|k| 10_000 + k * 1_000).collect();
        for &k in &keys {
            c.put(k, vec![k as u8; 100]).unwrap();
        }
        let ring = ring_of(&c);
        c.place().unwrap();
        relay(&mut c, 1, hang_up, None);
        // The fill is buffered; its split fails when it is placed.
        assert!(c
            .put(17_000, vec![1; 100])
            .and_then(|()| c.place())
            .is_err());
        assert_eq!(ring_of(&c), ring, "the ring flipped to a dead node");
        assert_eq!(c.splits, 0);
        for &k in &keys {
            assert_eq!(c.get(k).unwrap(), Some(vec![k as u8; 100]), "key {k} lost");
        }
        assert_records_in_arcs(&mut c, &[0]);
    }

    #[test]
    fn a_merge_whose_destination_dies_before_the_copy_loses_nothing() {
        let mut c = two_node_fleet();
        // Node 1 (2 × 80 B slots) is drained into node 0 (2 × 136 B):
        // 432 B together, under 65 % of 1000 B.
        for k in [100, 200] {
            c.put(k, vec![7; 60]).unwrap();
        }
        for k in [10_000, 20_000] {
            c.put(k, vec![9; 100]).unwrap();
        }
        let ring = ring_of(&c);
        c.place().unwrap();
        relay(&mut c, 0, hang_up, None);
        assert!(c.try_contract().is_err());
        assert_eq!(c.merges, 0);
        assert_eq!(ring_of(&c), ring, "the ring flipped to a dead node");
        for k in [100, 200] {
            assert_eq!(c.get(k).unwrap(), Some(vec![7; 60]), "key {k} lost");
        }
        assert_records_in_arcs(&mut c, &[1]);
    }

    #[test]
    fn the_wire_carries_only_effects() {
        let counts: FrameCounts = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
        let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
        c.enable_window(4, 0.99, 0.99f64.powi(3));
        // Every node gets a relay before the next call; a node spawned
        // inside a call is counted from the call after.
        let mut relayed = 0;
        let mut relay_new = |c: &mut LiveCoordinator| {
            for id in relayed..c.cluster.nodes.len() {
                if c.cluster.nodes[id].is_some() {
                    relay(c, id, |_| Act::Forward, Some(&counts));
                }
            }
            relayed = c.cluster.nodes.len();
        };
        // The differential script, buffered, with no totals, audit or key
        // listing from the test.
        for step in differential_script() {
            for (key, len) in step {
                relay_new(&mut c);
                assert_eq!(c.get(key).unwrap(), None);
                c.put(key, vec![key as u8; len]).unwrap();
            }
            relay_new(&mut c);
            c.end_time_step().unwrap();
        }
        assert!(c.splits >= 2 && c.merges >= 1);
        let sent = |op: Op| counts[op as usize].load(Ordering::Relaxed);
        for op in [Op::PutMany, Op::GetMany, Op::EvictMany] {
            assert!(sent(op) > 0, "no {op:?} frame");
        }
        for op in [Op::Stats, Op::Keys, Op::Put] {
            assert_eq!(sent(op), 0, "{op:?} frames");
        }
    }

    #[test]
    fn a_split_whose_source_delete_fails_still_serves_fresh_data() {
        let mut c = two_node_fleet();
        let keys: Vec<u64> = (0..7).map(|k| 10_000 + k * 1_000).collect();
        for &k in &keys {
            c.put(k, vec![k as u8; 100]).unwrap();
        }
        c.place().unwrap();
        relay(&mut c, 0, first(evict_many, Act::Refuse), None);
        // The split flips [10_000, 13_000] to node 1, then its delete on
        // node 0 is refused: the split stands, node 0 keeps its old copies
        // and is unsure.
        c.split_node(0).unwrap();
        assert_eq!(c.splits, 1);
        let counts = c.obs().snapshot().event_counts();
        assert_eq!(counts.get("sweep_migrate"), Some(&1));
        assert_eq!(c.ring().node_for_key(10_000), Some(&1));
        assert!(c.cluster.nodes[0].as_ref().unwrap().unsure);
        assert_eq!(
            c.cluster.client(0).unwrap().keys(0, u64::MAX).unwrap(),
            keys
        );
        for &k in &keys {
            assert_eq!(c.get(k).unwrap(), Some(vec![k as u8; 100]), "key {k}");
        }
        // A window eviction of a moved key reaches its owner, node 1; node
        // 0's old copy must not come back when the two merge.
        c.cluster.evict(&mut vec![(10_000, 1)]).unwrap();
        c.engine.merge_threshold = 2.0;
        c.try_contract().unwrap();
        assert_eq!(c.merges, 1);
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.get(10_000).unwrap(), None, "stale copy resurrected");
        for &k in &keys[1..] {
            assert_eq!(c.get(k).unwrap(), Some(vec![k as u8; 100]), "key {k}");
        }
        let survivor = c.cluster.loads().next().unwrap().0;
        assert_records_in_arcs(&mut c, &[survivor]);
    }

    /// Samples of `hist` across the coordinator and every live node.
    fn samples(c: &mut LiveCoordinator, hist: &str) -> u64 {
        let snap = c.cluster_obs().unwrap();
        snap.hist(hist).map_or(0, |h| h.count())
    }

    #[test]
    fn a_get_of_a_never_stored_key_sends_no_frame() {
        let mut c = two_node_fleet();
        c.put(100, b"stored".to_vec()).unwrap();
        for key in [5, 101, 20_000, 60_000] {
            assert_eq!(c.get(key).unwrap(), None);
        }
        assert_eq!(samples(&mut c, "server_op_us:get"), 0);
        assert_eq!(c.get(100).unwrap(), Some(b"stored".to_vec()));
        assert_eq!(samples(&mut c, "server_op_us:get"), 1);
    }

    #[test]
    fn a_buffered_fill_is_read_back_before_and_after_placement() {
        let mut c = two_node_fleet();
        // Buffered: node 1's key, then node 0's, read back from the buffer.
        c.put(100, b"a".to_vec()).unwrap();
        c.put(20_000, b"c".to_vec()).unwrap();
        assert_eq!(c.get(100).unwrap(), Some(b"a".to_vec()));
        assert_eq!(c.get(20_000).unwrap(), Some(b"c".to_vec()));
        // Placed: read back from the owners.
        c.totals().unwrap();
        assert_eq!(c.get(100).unwrap(), Some(b"a".to_vec()));
        assert_eq!(c.get(20_000).unwrap(), Some(b"c".to_vec()));
        // A buffered replacement shadows the placed value, and the newest
        // of two buffered values wins.
        c.put(100, b"d".to_vec()).unwrap();
        assert_eq!(c.get(100).unwrap(), Some(b"d".to_vec()));
        c.put(100, b"e".to_vec()).unwrap();
        assert_eq!(c.get(100).unwrap(), Some(b"e".to_vec()));
        c.totals().unwrap();
        assert_eq!(c.get(100).unwrap(), Some(b"e".to_vec()));
        c.shutdown().unwrap();
    }

    #[test]
    fn a_get_of_a_buffered_key_sends_no_frame() {
        let mut c = two_node_fleet();
        c.put(100, b"one".to_vec()).unwrap();
        c.put(20_000, b"two".to_vec()).unwrap();
        assert_eq!(c.get(100).unwrap(), Some(b"one".to_vec()));
        assert_eq!(c.get(20_000).unwrap(), Some(b"two".to_vec()));
        // The dump places both fills, after the gets were answered.
        assert_eq!(samples(&mut c, "server_op_us:get"), 0);
        assert_eq!(samples(&mut c, "server_op_us:put_many"), 2);
        assert_eq!(c.get(100).unwrap(), Some(b"one".to_vec()));
        assert_eq!(samples(&mut c, "server_op_us:get"), 1);
    }

    #[test]
    fn puts_past_one_nodes_capacity_are_placed_without_a_placing_call() {
        // Twenty 100 B records (136 B slots) into nodes of 1000 B: the
        // buffer is placed whenever it would pass 1000 B.
        let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
        let keys: Vec<u64> = (0..20).map(|k| k * 3_000 + 7).collect();
        for &k in &keys {
            c.put(k, vec![k as u8; 100]).unwrap();
            assert!(c.fill_bytes <= 1000, "{} B buffered", c.fill_bytes);
        }
        assert!(c.splits >= 1, "no placement split a node");
        for &k in &keys {
            assert_eq!(c.get(k).unwrap(), Some(vec![k as u8; 100]), "key {k}");
        }
        assert_eq!(c.totals().unwrap(), (20 * 136, 20));
        c.check_invariants().unwrap();
    }

    #[test]
    fn a_buffered_fill_that_overflows_splits_at_the_placing_call() {
        let mut c = two_node_fleet();
        // Seven 100 B records (136 B slots) fill node 0's 1000 B. The
        // eighth would take the buffer past 1000 B, so its put places the
        // seven (they fit) and buffers the eighth.
        for k in 0..7 {
            c.put(10_000 + k * 1_000, vec![k as u8; 100]).unwrap();
        }
        c.put(17_000, vec![7; 100]).unwrap();
        assert_eq!(c.splits, 0, "the put placed its own fill");
        assert_eq!(c.get(17_000).unwrap(), Some(vec![7; 100]));
        for k in 0..7 {
            let key = 10_000 + k * 1_000;
            assert_eq!(c.get(key).unwrap(), Some(vec![k as u8; 100]));
        }
        assert_eq!(c.splits, 0, "a get placed the buffer");
        assert_eq!(c.totals().unwrap(), (8 * 136, 8));
        assert_eq!(c.splits, 1);
        for k in 0..8 {
            let key = 10_000 + k * 1_000;
            assert_eq!(c.get(key).unwrap(), Some(vec![k as u8; 100]));
        }
        c.check_invariants().unwrap();
    }

    #[test]
    fn a_fill_whose_node_dies_before_placement_fails_the_placing_call() {
        let mut c = two_node_fleet();
        c.put(20_000, b"on node 0".to_vec()).unwrap();
        // Node 1's stand-in hangs up on the fill's `PutMany` without an
        // ack.
        c.place().unwrap();
        relay(&mut c, 1, hang_up, None);
        c.put(100, b"lost".to_vec()).unwrap();
        // A get sends no frame and does not place; the placing call
        // returns the fill's error; the call after it is served.
        assert_eq!(c.get(5).unwrap(), None);
        assert!(c.end_time_step().is_err());
        assert_eq!(c.get(20_000).unwrap(), Some(b"on node 0".to_vec()));
    }

    /// The differential script's steps: `(key, value length)` fills, each
    /// after a `get` that misses. Node capacity is 1000 B.
    /// - Step 1 leaves 184 B free on the one node.
    /// - Step 2's close sends a 64 B fill (one `PutMany`) before the 136 B
    ///   fill that overflows splits the node (the split spawns a node), and
    ///   then places a 64 B fill that would have fit before the split.
    /// - Step 3's eight 136 B fills pass 1000 B, so a put places the buffer
    ///   and the fleet splits again. Empty steps then evict every key, and
    ///   contraction merges the fleet.
    fn differential_script() -> Vec<Vec<(u64, usize)>> {
        let mut steps = vec![
            (0..6).map(|k| (10_000 + k * 1_000, 100)).collect(),
            vec![(16_000, 10), (17_000, 100), (10_500, 10)],
            (0..8).map(|k| (30_000 + k * 3_000, 100)).collect(),
        ];
        steps.resize(12, Vec::new());
        steps
    }

    /// `(node, its keys)` for every active node.
    type KeySets = Vec<(usize, Vec<u64>)>;

    /// Run [`differential_script`]. With `eager`, `totals()` places every
    /// fill as soon as it is put, as a synchronous put would; without it
    /// the fills wait for `end_time_step` (or for the buffer bound).
    /// Returns the structural events, times dropped, and every node's keys
    /// after each step close.
    fn run_differential(eager: bool) -> (Vec<ObsEvent>, Vec<KeySets>) {
        let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
        c.enable_window(4, 0.99, 0.99f64.powi(3));
        let mut key_sets = Vec::new();
        for step in differential_script() {
            for (key, len) in step {
                assert_eq!(c.get(key).unwrap(), None);
                c.put(key, vec![key as u8; len]).unwrap();
                if eager {
                    c.totals().unwrap();
                }
            }
            c.end_time_step().unwrap();
            let hi = c.engine.ring.range() - 1;
            let nodes: Vec<usize> = c.cluster.loads().map(|(id, _)| id).collect();
            key_sets.push(
                nodes
                    .into_iter()
                    .map(|id| (id, c.cluster.client(id).unwrap().keys(0, hi).unwrap()))
                    .collect(),
            );
        }
        let events = c.obs().events_since(0).into_iter();
        let structural = events.filter_map(|(_, event)| event.untimed());
        (structural.collect(), key_sets)
    }

    #[test]
    fn buffered_fills_make_the_decisions_of_fills_placed_one_by_one() {
        let (eager, eager_keys) = run_differential(true);
        let (buffered, buffered_keys) = run_differential(false);
        let count = |f: fn(&ObsEvent) -> bool| eager.iter().filter(|e| f(e)).count();
        assert!(count(|e| matches!(e, ObsEvent::BucketSplit { .. })) >= 2);
        assert!(
            count(|e| matches!(
                e,
                ObsEvent::SweepMigrate {
                    allocated: true,
                    ..
                }
            )) >= 1
        );
        assert!(count(|e| matches!(e, ObsEvent::NodeMerge { .. })) >= 1);
        assert_eq!(buffered, eager);
        assert_eq!(buffered_keys, eager_keys);
    }

    #[test]
    fn a_key_read_but_never_stored_is_evicted_in_no_frame_and_no_event() {
        let mut c = LiveCoordinator::start(1 << 16, 100_000).unwrap();
        c.enable_window(2, 0.99, 0.99f64.powi(1));
        let evict_batches = |c: &LiveCoordinator| -> Vec<Vec<u64>> {
            let events = c.obs().events_since(0);
            let keys = events.into_iter().filter_map(|(_, event)| match event {
                ObsEvent::EvictBatch { keys, .. } => Some(keys),
                _ => None,
            });
            keys.collect()
        };
        // Its slice expires with only the never-stored key as a victim.
        assert_eq!(c.get(7).unwrap(), None);
        for _ in 0..4 {
            c.end_time_step().unwrap();
        }
        assert!(evict_batches(&c).is_empty());
        assert_eq!(samples(&mut c, "server_op_us:evict_many"), 0);
        // Beside a stored key, it is still named in no frame and no event.
        assert_eq!(c.get(8).unwrap(), None);
        c.put(8, b"eight".to_vec()).unwrap();
        assert_eq!(c.get(9).unwrap(), None);
        for _ in 0..4 {
            c.end_time_step().unwrap();
        }
        assert_eq!(evict_batches(&c), vec![vec![8]]);
        assert_eq!(samples(&mut c, "server_op_us:evict_many"), 1);
        assert_eq!(c.totals().unwrap(), (0, 0));
    }

    #[test]
    fn a_record_stored_behind_the_coordinators_back_fails_the_audit() {
        // Inside node 0's arcs or outside them: the ledger lacks it.
        for key in [20_000, 200] {
            let mut c = two_node_fleet();
            c.put(100, b"seen".to_vec()).unwrap();
            c.check_invariants().unwrap();
            c.cluster
                .client(0)
                .unwrap()
                .put(key, b"x".to_vec())
                .unwrap();
            let err = c.check_invariants().unwrap_err();
            assert!(err.to_string().contains("ledger"), "{err}");
        }
    }

    #[test]
    fn a_ledgered_key_missing_from_its_node_fails_the_get() {
        let mut c = two_node_fleet();
        c.put(100, b"seen".to_vec()).unwrap();
        c.totals().unwrap();
        c.cluster.client(1).unwrap().evict_many(&[100]).unwrap();
        let err = c.get(100).unwrap_err();
        assert!(err.to_string().contains("lacks ledgered key 100"), "{err}");
    }

    #[test]
    fn a_lost_put_many_ack_is_repaired_by_the_resync() {
        let mut c = two_node_fleet();
        c.put(20_000, b"before".to_vec()).unwrap();
        c.totals().unwrap();
        relay(&mut c, 0, first(put_many, Act::LoseAck), None);
        c.put(30_000, b"applied".to_vec()).unwrap();
        c.put(20_000, vec![5; 200]).unwrap();
        // The placing call fails; node 0 holds both fills all the same.
        assert!(c.end_time_step().is_err());
        assert!(c.cluster.nodes[0].as_ref().unwrap().unsure);
        assert!(!c.cluster.ledger.contains_key(&30_000));
        // The next decision re-syncs node 0 from `Keys`, `GetMany` and
        // `Stats`: the ledger holds what the node holds.
        c.check_invariants().unwrap();
        assert!(!c.cluster.nodes[0].as_ref().unwrap().unsure);
        let node0 = c.cluster.nodes[0].as_ref().unwrap().used;
        assert_eq!(node0, slab::footprint(7) + slab::footprint(200));
        assert_eq!(c.get(30_000).unwrap(), Some(b"applied".to_vec()));
        assert_eq!(c.get(20_000).unwrap(), Some(vec![5; 200]));
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut c = LiveCoordinator::start(1024, 500).unwrap();
        assert!(c.put(5000, vec![1]).is_err());
        assert!(c.put(1, vec![0; 501]).is_err());
        c.shutdown().unwrap();
        // A value within capacity whose slab footprint is not: refused at
        // the put, so it neither spawns a node nor fails a later fill.
        let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
        for k in [100, 200] {
            c.put(k, vec![1; 100]).unwrap();
        }
        assert!(slab::footprint(1000) > 1000);
        let err = c.put(300, vec![2; 1000]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        c.put(400, vec![3; 100]).unwrap();
        assert_eq!(c.totals().unwrap(), (3 * slab::footprint(100), 3));
        assert_eq!(c.get(400).unwrap(), Some(vec![3; 100]));
        assert_eq!(c.get(300).unwrap(), None);
        assert_eq!((c.node_count(), c.splits), (1, 0));
        c.shutdown().unwrap();
    }
}
