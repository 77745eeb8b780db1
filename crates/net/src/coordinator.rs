//! The live coordinator: GBA over real sockets.
//!
//! Makes [`ecc_core::ElasticCache`]'s decisions by the same code
//! ([`ecc_core::gba`] and the ring's own geometry), but every node is a TCP
//! cache server and every migration travels the wire as copy → ack → ring
//! flip → delete. Spawning a server thread stands in for booting an EC2
//! instance.
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
//!   it past one node's capacity: a walk in put order against the ledger,
//!   by the node's own admission rule, that sends the fills as one
//!   `PutMany` per node and splits an owner a fill would overflow. Each
//!   node sees a synchronous put's mutations in the same order. The placing
//!   call returns a placement's error; the fills it did not place are
//!   dropped.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;

use bytes::Bytes;
use ecc_chash::{HashRing, RingError};
use ecc_core::{gba, slab, SlidingWindow};
use ecc_obs::recorder::DEFAULT_CAPACITY;
use ecc_obs::{ObsEvent, ObsRegistry, ObsSnapshot, TimeSource};

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

/// One managed node: the in-process server plus the coordinator's client
/// connection to it.
struct ManagedNode {
    server: CacheServer,
    client: RemoteNode,
    /// Σ footprint of the node's records.
    used: u64,
    /// A wire call to the node failed; [`LiveCoordinator::resync`] re-reads
    /// it before the next decision.
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

/// A violated coordinator-internal invariant, surfaced as a typed
/// [`io::Error`] on the operation that found it (the coordinator keeps
/// serving; nothing panics).
fn internal(what: &str) -> io::Error {
    io::Error::other(format!("coordinator invariant violated: {what}"))
}

/// A ring operation that named a bucket the coordinator's own bookkeeping
/// says exists (or is free): an invariant violation.
fn ring_err(e: RingError) -> io::Error {
    internal(&format!("ring: {e}"))
}

/// The ack of a `PutMany` frame: all-`Ok` statuses. The ledger sized the
/// node to hold the batch, so a refusal is an invariant violation.
fn put_acked(statuses: Vec<Status>) -> io::Result<()> {
    match statuses.into_iter().find(|&s| s != Status::Ok) {
        Some(status) => Err(internal(&format!("batched put refused: {status:?}"))),
        None => Ok(()),
    }
}

/// The `(key, footprint)` pairs of `held` (sorted by key) in `[lo, hi]`.
fn in_span(held: &[(u64, u64)], lo: u64, hi: u64) -> &[(u64, u64)] {
    let start = held.partition_point(|&(k, _)| k < lo);
    let end = held.partition_point(|&(k, _)| k <= hi).max(start);
    &held[start..end]
}

/// The footprints of the records of `held` an `EvictMany` removed.
fn removed_bytes(held: &[(u64, u64)], statuses: &[Status]) -> u64 {
    let removed = held.iter().zip(statuses).filter(|(_, &s)| s == Status::Ok);
    removed.map(|(&(_, fp), _)| fp).sum()
}

fn keys_of(held: &[(u64, u64)]) -> Vec<u64> {
    held.iter().map(|&(k, _)| k).collect()
}

/// The live elastic-cache coordinator.
pub struct LiveCoordinator {
    ring: HashRing<usize>,
    nodes: Vec<Option<ManagedNode>>,
    /// Key → its copy and its buffered fill (see the module docs).
    ledger: HashMap<u64, Entry>,
    /// Fills not yet on any node, in put order (see the module docs).
    fills: Vec<(u64, Vec<u8>)>,
    /// Their summed slab footprint.
    fill_bytes: u64,
    ring_range: u64,
    capacity_bytes: u64,
    btree_order: usize,
    /// Contraction threshold (fraction of one node's capacity).
    pub merge_fill_threshold: f64,
    /// Eviction window (optional, as in the simulated cache).
    window: Option<SlidingWindow>,
    /// Contraction cadence in slice expirations.
    pub contraction_epsilon: u64,
    expirations: u64,
    /// Nodes spawned over the coordinator's lifetime.
    pub nodes_spawned: usize,
    /// Bucket splits performed.
    pub splits: usize,
    /// Node merges performed.
    pub merges: usize,
    /// Coordinator-side flight recorder + latency histograms.
    obs: ObsRegistry,
    /// Events and histograms of the nodes merged away, until `cluster_obs`
    /// takes them. Kept apart so they cannot push the coordinator's own
    /// events out of its recorder, and bounded like a recorder: the newest
    /// [`DEFAULT_CAPACITY`] events, the rest counted as dropped.
    retired: ObsSnapshot,
    /// Clock epoch shared by the coordinator and every node it spawns, so
    /// span intervals from different recorders are comparable after a
    /// `cluster_obs` merge.
    time: TimeSource,
}

impl LiveCoordinator {
    /// Start a coordinator with one cache server of the given capacity.
    pub fn start(ring_range: u64, capacity_bytes: u64) -> io::Result<LiveCoordinator> {
        let time = TimeSource::real();
        let obs = ObsRegistry::new(time.clone());
        // Span-id origins: the coordinator allocates from origin 0, node
        // `id` from origin `id + 1` — distinct per recorder, so merged
        // span ids never collide.
        let mut coord = LiveCoordinator {
            ring: HashRing::new(ring_range),
            nodes: Vec::new(),
            ledger: HashMap::new(),
            fills: Vec::new(),
            fill_bytes: 0,
            ring_range,
            capacity_bytes,
            btree_order: 64,
            merge_fill_threshold: 0.65,
            window: None,
            contraction_epsilon: 1,
            expirations: 0,
            nodes_spawned: 0,
            splits: 0,
            merges: 0,
            obs,
            retired: ObsSnapshot::new(),
            time,
        };
        let first = coord.spawn_node()?;
        coord
            .ring
            .insert_bucket(ring_range - 1, first)
            .map_err(|_| internal("fresh ring has a colliding bucket"))?;
        Ok(coord)
    }

    /// Enable sliding-window eviction (`m`, `α`, `T_λ`).
    pub fn enable_window(&mut self, m: usize, alpha: f64, threshold: f64) {
        self.window = Some(SlidingWindow::new(m, alpha, threshold));
    }

    /// Number of live cache servers.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Read-only view of the hash ring (load generators route with it).
    pub fn ring(&self) -> &HashRing<usize> {
        &self.ring
    }

    /// The coordinator's own observability registry (structural events,
    /// fan-out and migration latency histograms).
    pub fn obs(&self) -> &ObsRegistry {
        &self.obs
    }

    /// Cluster-wide observability snapshot: fan out `ObsDump` to every
    /// node, then fold the per-node snapshots into the coordinator's own by
    /// move (histograms add bucket-wise, events interleave by timestamp, one
    /// sort at the end). The observations of the nodes merged away since
    /// the last call are handed over too, once: they are not kept twice.
    pub fn cluster_obs(&mut self) -> io::Result<ObsSnapshot> {
        self.place()?;
        let own = self.obs.snapshot();
        let nodes = self.fan_out(|_| Some(Request::ObsDump), |_, s, b| obs_dump_reply(s, b))?;
        let nodes = nodes.into_iter().map(|(_, snap)| snap);
        let retired = std::mem::take(&mut self.retired);
        Ok(own.merged(std::iter::once(retired).chain(nodes)))
    }

    /// Address of node `id`'s cache server, if it is active.
    pub fn node_addr(&self, id: usize) -> Option<SocketAddr> {
        self.nodes
            .get(id)
            .and_then(Option::as_ref)
            .map(|n| n.server.addr())
    }

    /// Total `(bytes, records)` across nodes as the nodes report them,
    /// collected with one concurrent `Stats` fan-out.
    pub fn totals(&mut self) -> io::Result<(u64, u64)> {
        self.place()?;
        let stats = self.fan_out(|_| Some(Request::Stats), |_, s, b| stats_reply(s, b))?;
        Ok(stats
            .into_iter()
            .fold((0, 0), |(bytes, records), (_, (b, r, _))| {
                (bytes + b, records + r)
            }))
    }

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

    /// Every node's used bytes by the ledger, by node id (0 if inactive).
    fn used_by_node(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| n.as_ref().map_or(0, |n| n.used))
            .collect()
    }

    /// `(node_id, used bytes)` of every active node, by the ledger.
    fn loads(&self) -> Vec<(usize, u64)> {
        let nodes = self.nodes.iter().enumerate();
        nodes
            .filter_map(|(id, n)| Some((id, n.as_ref()?.used)))
            .collect()
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

    fn spawn_node(&mut self) -> io::Result<usize> {
        let id = self.nodes.len();
        let server = CacheServer::spawn_clocked(
            ("127.0.0.1", 0),
            self.capacity_bytes,
            self.btree_order,
            DEFAULT_MAX_CONNECTIONS,
            None,
            self.time.clone(),
            id as u32 + 1,
        )?;
        let client = RemoteNode::connect(server.addr())?.with_obs(self.obs.clone());
        self.nodes.push(Some(ManagedNode {
            server,
            client,
            used: 0,
            unsure: false,
        }));
        self.nodes_spawned += 1;
        self.obs.emit(ObsEvent::NodeAlloc {
            at_us: self.obs.now_us(),
            node: id as u32,
        });
        Ok(id)
    }

    fn owner(&self, key: u64) -> io::Result<usize> {
        self.ring
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
        if let Some(w) = &mut self.window {
            w.note_query(key);
        }
        let Some(entry) = self.ledger.get(&key) else {
            return Ok(None);
        };
        if let Some(i) = entry.fill {
            return Ok(self.fills.get(i as usize).map(|(_, value)| value.clone()));
        }
        let owner = self.owner(key)?;
        let got = self.call(owner, |c| c.get(key))?;
        if got.is_none() && !self.node(owner)?.unsure {
            return Err(internal(&format!("node {owner} lacks ledgered key {key}")));
        }
        Ok(got)
    }

    /// Store `value` under `key`. The fill is buffered, not sent: the next
    /// call that reads or changes node state places it, splitting buckets /
    /// spawning servers as needed (GBA), and returns its error if it
    /// failed. A fill that would take the buffer past one node's capacity
    /// places the buffer first.
    pub fn put(&mut self, key: u64, value: Vec<u8>) -> io::Result<()> {
        if key >= self.ring_range {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "key outside hash line",
            ));
        }
        if value.len() as u64 > self.capacity_bytes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "record exceeds node capacity",
            ));
        }
        let footprint = slab::footprint(value.len());
        if self.fill_bytes + footprint > self.capacity_bytes {
            self.place()?;
        }
        self.ledger.entry(key).or_default().fill = Some(self.fills.len() as u32);
        self.fills.push((key, value));
        self.fill_bytes += footprint;
        Ok(())
    }

    /// Re-read every unsure node, then place the buffered fills: the
    /// ledger is exact when this returns `Ok`.
    fn place(&mut self) -> io::Result<()> {
        self.resync()?;
        if self.fills.is_empty() {
            return Ok(());
        }
        let fills = std::mem::take(&mut self.fills);
        self.fill_bytes = 0;
        let placed = self.walk(&fills);
        if placed.is_err() {
            // The fills not placed are dropped.
            self.ledger.retain(|_, e| {
                e.fill = None;
                e.copy.is_some()
            });
        }
        placed
    }

    /// Placement's walk (see the module docs). A fill fits its owner if the
    /// owner's used bytes, with the fills already batched for it, grow by
    /// no more than its free bytes; as in the node's own admission, only
    /// the footprint growth over the key's current copy counts.
    fn walk(&mut self, fills: &[(u64, Vec<u8>)]) -> io::Result<()> {
        // Per node: the batched fills and the used bytes once they land;
        // per batched key: its new footprint. At most 64 splits per fill.
        let mut batches: Vec<Vec<(u64, &[u8])>> = vec![Vec::new(); self.nodes.len()];
        let mut used = self.used_by_node();
        let mut batched: HashMap<u64, u64> = HashMap::new();
        for (key, value) in fills {
            let footprint = slab::footprint(value.len());
            for splits in 0.. {
                let owner = self.owner(*key)?;
                let copy = self.ledger.get(key).and_then(|e| e.copy);
                let old = batched.get(key).copied().or(copy).unwrap_or(0);
                if used[owner] + footprint <= self.capacity_bytes + old {
                    used[owner] = used[owner] + footprint - old;
                    batched.insert(*key, footprint);
                    batches[owner].push((*key, value));
                    break;
                }
                if splits == 64 {
                    return Err(io::Error::other("GBA split loop exceeded bound"));
                }
                self.send_batches(&mut batches)?;
                batched.clear();
                self.split_node(owner)?;
                // A split's failed delete leaves its source unsure.
                self.resync()?;
                used = self.used_by_node();
                batches.resize(used.len(), Vec::new());
            }
        }
        self.send_batches(&mut batches)
    }

    /// Send every pending batch as one `PutMany` per node, then enter the
    /// acked fills in the ledger, in put order.
    fn send_batches(&mut self, batches: &mut [Vec<(u64, &[u8])>]) -> io::Result<()> {
        if batches.iter().all(Vec::is_empty) {
            return Ok(());
        }
        {
            let batches = &*batches;
            self.fan_out(
                |id| {
                    let items = batches.get(id).filter(|b| !b.is_empty())?.clone();
                    Some(Request::PutMany { items })
                },
                |id, s, b| {
                    put_many_reply(batches.get(id).map_or(0, Vec::len), s, b).and_then(put_acked)
                },
            )?;
        }
        for (id, batch) in batches.iter_mut().enumerate() {
            for (key, value) in batch.drain(..) {
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
    fn held_by(&self, id: usize) -> Vec<(u64, u64)> {
        let entries = self.ledger.iter();
        let mut held: Vec<(u64, u64)> = entries
            .filter(|&(&key, _)| self.ring.node_for_key(key) == Some(&id))
            .filter_map(|(&key, e)| Some((key, e.copy?)))
            .collect();
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
    /// and delete the copies it holds outside its arcs. A failed call leaves
    /// the node unsure and fails the decision that needed it.
    fn resync(&mut self) -> io::Result<()> {
        for id in 0..self.nodes.len() {
            if !self.nodes[id].as_ref().is_some_and(|n| n.unsure) {
                continue;
            }
            let held = self.read_node(id)?;
            let ring = &self.ring;
            self.ledger.retain(|&key, e| {
                if ring.node_for_key(key) == Some(&id) {
                    e.copy = None;
                }
                e.copy.is_some() || e.fill.is_some()
            });
            let (mine, stale): (Vec<_>, Vec<_>) = held
                .into_iter()
                .partition(|&(key, _)| self.ring.node_for_key(key) == Some(&id));
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

    /// Algorithm 1 lines 8–15, decided from the ledger, with Algorithm 2's
    /// hand-off as copy → ack → ring flip → delete: `src` keeps every moved
    /// record until `dest` has acked all of them and the ring routes their
    /// arc to `dest`, so a failure before the flip leaves `src` and the
    /// ring as they were.
    fn split_node(&mut self, nid: usize) -> io::Result<()> {
        // First-class root span: every wire op below attaches under it via
        // the thread-local scope.
        let _split = self.obs.span_root("elastic_split");
        let held = self.held_by(nid);
        // The records in `b`'s arc, in sweep order.
        let arc = |b: u64| -> io::Result<Vec<(u64, u64)>> {
            let spans = self.ring.sweep_spans(b).map_err(ring_err)?;
            Ok(spans
                .iter()
                .flat_map(|&(lo, hi)| in_span(&held, lo, hi))
                .copied()
                .collect())
        };
        let buckets = self.ring.buckets_of_node(&nid);
        let b_max = gba::fullest_bucket(&buckets, |b| {
            Ok::<_, io::Error>(arc(b)?.iter().map(|&(_, fp)| fp).sum())
        })?
        .ok_or_else(|| internal("active node owns no bucket"))?;
        let in_arc = arc(b_max)?;
        let spans = self.ring.sweep_spans(b_max).map_err(ring_err)?;
        let plan = gba::split_plan(&self.ring, b_max, spans, &keys_of(&in_arc))
            .ok_or_else(|| io::Error::other(format!("bucket {b_max} cannot be split")))?;
        // Sweep order: the moved records are a prefix.
        let moved = &in_arc[..plan.moved];
        let moved_bytes = moved.iter().map(|&(_, fp)| fp).sum();
        let reuse = gba::destination(self.loads(), nid, moved_bytes, self.capacity_bytes);
        let (dest, allocated) = match reuse {
            Some(id) => (id, false),
            None => (self.spawn_node()?, true),
        };
        let t0 = self.obs.now_us();
        let copied = self.copy(nid, dest, moved);
        if copied.is_err() && allocated {
            // The fleet goes back to what it was.
            self.dealloc(dest);
        }
        let (records, bytes) = copied?;
        // Flip: the arc is dest's from here on.
        let bucket = plan.flip(&mut self.ring, dest).map_err(ring_err)?;
        self.splits += 1;
        self.obs.emit(ObsEvent::BucketSplit {
            at_us: self.obs.now_us(),
            node: nid as u32,
            new_node: dest as u32,
            bucket,
        });
        // Delete: `src` keeps its copies until the ring no longer routes
        // to them. A move, not an eviction, so no `EvictBatch`. The split
        // has taken effect either way; a failed delete leaves `src` unsure,
        // and its re-read deletes them.
        self.delete(nid, moved);
        let duration_us = self.obs.now_us() - t0;
        self.obs.record("coord_migrate_us", duration_us);
        self.obs.emit(ObsEvent::SweepMigrate {
            at_us: t0,
            src: nid as u32,
            dest: dest as u32,
            records,
            bytes,
            duration_us,
            allocated,
        });
        Ok(())
    }

    /// Copy → ack, the first half of a hand-off: copy the `(key,
    /// footprint)` records of `held` from `src` to `dest` one chunk at a
    /// time — a `GetMany` of at most [`CHUNK_RECORDS`] keys, then
    /// `PutMany` frames of at most [`CHUNK_BYTES`], each acked by all-`Ok`
    /// statuses and then counted in `dest`'s used bytes. Returns the
    /// records and payload bytes copied. `src` is only read. On failure the
    /// prefix already copied is deleted from `dest`: it lies outside every
    /// arc `dest` owns.
    fn copy(&mut self, src: usize, dest: usize, held: &[(u64, u64)]) -> io::Result<(u64, u64)> {
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

    /// Stop node `id`'s server and drop it from the fleet.
    fn dealloc(&mut self, id: usize) {
        if let Some(mut dead) = self.nodes.get_mut(id).and_then(Option::take) {
            drop(dead.client.shutdown());
            dead.server.stop();
        }
        self.obs.emit(ObsEvent::NodeDealloc {
            at_us: self.obs.now_us(),
            node: id as u32,
        });
    }

    /// Close a time slice: evict expired keys, contract every `ε`
    /// expirations.
    pub fn end_time_step(&mut self) -> io::Result<()> {
        self.place()?;
        let Some(w) = &mut self.window else {
            return Ok(());
        };
        let Some(expired) = w.end_slice() else {
            return Ok(());
        };
        self.expirations += 1;
        // First-class root span over the whole slice close: victim
        // scoring, the eviction fan-out, and a merge all attach under it.
        let _expire = self.obs.span_root("elastic_slice_expire");
        // Score against the window that remains, then drop its borrow
        // before talking to the nodes.
        let victims = match &mut self.window {
            Some(w) => {
                let victims = w.victims(&expired);
                w.recycle(expired);
                victims
            }
            None => Vec::new(),
        };
        self.obs.emit(ObsEvent::SliceExpire {
            at_us: self.obs.now_us(),
            expiration: self.expirations,
            victims: victims.len() as u64,
        });
        self.evict(&victims)?;
        if self.expirations.is_multiple_of(self.contraction_epsilon) {
            self.try_contract()?;
        }
        Ok(())
    }

    /// Evict the stored keys among `victims`, grouped by the node holding
    /// them, in node order: O(nodes) batched `EvictMany` frames fanned out
    /// concurrently, instead of one blocking round-trip per victim, and
    /// `EvictBatch` events that name exactly the evicted keys, in the
    /// simulated cache's order. A victim outside the ledger is held by no
    /// node.
    fn evict(&mut self, victims: &[u64]) -> io::Result<()> {
        let mut batches: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.nodes.len()];
        for &key in victims {
            if let Some(fp) = self.ledger.get(&key).and_then(|e| e.copy) {
                batches[self.owner(key)?].push((key, fp));
            }
        }
        if batches.iter().all(Vec::is_empty) {
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
        let at_us = self.obs.now_us();
        for (id, statuses) in acked {
            let batch = std::mem::take(&mut batches[id]);
            self.node(id)?.used -= removed_bytes(&batch, &statuses);
            let keys = keys_of(&batch);
            for key in &keys {
                self.ledger.remove(key);
            }
            self.obs.emit(ObsEvent::EvictBatch {
                at_us,
                node: id as u32,
                keys,
            });
        }
        Ok(())
    }

    /// Merge [`gba::merge_pair`]'s two nodes, if it names any.
    pub fn try_contract(&mut self) -> io::Result<()> {
        self.place()?;
        let loads = self.loads();
        let pair = gba::merge_pair(loads, 1, self.merge_fill_threshold, self.capacity_bytes);
        let Some((a, b)) = pair else {
            return Ok(());
        };
        // First-class root span for the merge proper.
        let _merge = self.obs.span_root("elastic_merge");
        // Copy a into b, flip every bucket of a to b, then deallocate a
        // (which deletes its copies with it).
        let t0 = self.obs.now_us();
        let held = self.held_by(a);
        let (moved, _) = self.copy(a, b, &held)?;
        self.obs.record("coord_migrate_us", self.obs.now_us() - t0);
        for bucket in self.ring.buckets_of_node(&a) {
            self.ring.remap_bucket(bucket, b).map_err(ring_err)?;
        }
        self.ring.coalesce(&b);
        self.obs.emit(ObsEvent::NodeMerge {
            at_us: t0,
            src: a as u32,
            dest: b as u32,
            records: moved,
        });
        // Keep a's events and histograms, not its gauges: they describe
        // memory that goes with it. Read in process, where its server is
        // stopped: a server records a request before it sends the reply.
        let mut snap = self.node(a)?.server.obs().snapshot();
        snap.gauges.clear();
        let mut retired = std::mem::take(&mut self.retired).merged([snap]);
        let excess = retired.events.len().saturating_sub(DEFAULT_CAPACITY);
        retired.events.drain(..excess);
        retired.dropped += excess as u64;
        self.retired = retired;
        self.dealloc(a);
        self.merges += 1;
        Ok(())
    }

    /// Audit coordinator-wide invariants: the ring partitions the hash
    /// line, every bucket maps to a live server, every live server owns at
    /// least one bucket, and the ledger is exact: each node holds (by
    /// [`Self::read_node`]) exactly the entries in its arcs, as many bytes
    /// as its used bytes and no more than its capacity, and no entry is
    /// left unplaced. Returns a typed [`io::Error`] on the first
    /// violation (the simulation harness promotes this to a hard failure
    /// after every event).
    pub fn check_invariants(&mut self) -> io::Result<()> {
        self.place()?;
        self.ring
            .check_invariants()
            .map_err(|e| internal(&format!("ring audit: {e}")))?;
        let loads = self.loads();
        for (pos, &nid) in self.ring.buckets() {
            if !loads.iter().any(|&(id, _)| id == nid) {
                return Err(internal(&format!(
                    "bucket {pos} references inactive node {nid}"
                )));
            }
        }
        let mut placed = 0;
        for (id, used) in loads {
            if self.ring.buckets_of_node(&id).is_empty() {
                return Err(internal(&format!("live node {id} owns no bucket")));
            }
            let expected = self.held_by(id);
            placed += expected.len();
            if self.read_node(id)? != expected || used != expected.iter().map(|&(_, fp)| fp).sum() {
                return Err(internal(&format!(
                    "node {id} holds other records than the ledger says"
                )));
            }
        }
        if placed != self.ledger.len() || self.ledger.values().any(|e| e.fill.is_some()) {
            return Err(internal("the ledger holds a key no node holds"));
        }
        Ok(())
    }

    /// Place the buffered fills, then stop every cache server. Returns the
    /// placement's error, if any.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let placed = self.place();
        for slot in &mut self.nodes {
            if let Some(mut node) = slot.take() {
                drop(node.client.shutdown());
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

#[cfg(test)]
mod tests {
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::protocol::{
        decode_with_trace, read_frame, read_frame_into, write_frame, Op, Response,
    };

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

    /// Node `id` dies: its server stops, and the coordinator's connection
    /// now reaches a stand-in that hangs up on the first request. The
    /// ledger still counts the node, so it is still chosen as a
    /// destination. The buffered fills are placed first.
    fn dies(c: &mut LiveCoordinator, id: usize) {
        c.place().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            drop(read_frame(&mut conn));
        });
        let obs = c.obs.clone();
        let node = c.nodes[id].as_mut().unwrap();
        node.server.stop();
        node.client = RemoteNode::connect(addr).unwrap().with_obs(obs);
    }

    /// Two nodes: node 1 owns the arc `[0, 9_999]`, node 0 the rest.
    fn two_node_fleet() -> LiveCoordinator {
        let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
        let n1 = c.spawn_node().unwrap();
        c.ring.insert_bucket(9_999, n1).unwrap();
        c
    }

    fn ring_of(c: &LiveCoordinator) -> Vec<(u64, usize)> {
        c.ring.buckets().map(|(pos, &nid)| (pos, nid)).collect()
    }

    /// Every record on each of the `live` nodes lies in that node's arc.
    fn assert_records_in_arcs(c: &mut LiveCoordinator, live: &[usize]) {
        let hi = c.ring_range - 1;
        for &id in live {
            for key in c.client(id).unwrap().keys(0, hi).unwrap() {
                assert_eq!(c.ring.node_for_key(key), Some(&id), "node {id} holds {key}");
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
        dies(&mut c, 1);
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
        dies(&mut c, 0);
        assert!(c.try_contract().is_err());
        assert_eq!(c.merges, 0);
        assert_eq!(ring_of(&c), ring, "the ring flipped to a dead node");
        for k in [100, 200] {
            assert_eq!(c.get(k).unwrap(), Some(vec![7; 60]), "key {k} lost");
        }
        assert_records_in_arcs(&mut c, &[1]);
    }

    /// Node `id`'s connection now runs through a relay to its server that
    /// refuses the first `EvictMany` (`BadRequest`, connection kept) and
    /// forwards every other frame. The buffered fills are placed first, as
    /// in [`dies`].
    fn refuses_one_evict(c: &mut LiveCoordinator, id: usize) {
        c.place().unwrap();
        let upstream = c.node_addr(id).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let Ok((mut conn, _)) = listener.accept() else {
                return;
            };
            let Ok(mut upstream) = TcpStream::connect(upstream) else {
                return;
            };
            let mut refused = false;
            let mut buf = Vec::new();
            while read_frame_into(&mut conn, &mut buf).is_ok() {
                let evict = matches!(
                    decode_with_trace(&buf[..]),
                    Some((_, Request::EvictMany { .. }))
                );
                let reply = if evict && !refused {
                    refused = true;
                    Response::status(Status::BadRequest).encode()
                } else {
                    match write_frame(&mut upstream, &buf).and_then(|()| read_frame(&mut upstream))
                    {
                        Ok(reply) => reply,
                        Err(_) => return,
                    }
                };
                if write_frame(&mut conn, &reply).is_err() {
                    return;
                }
            }
        });
        let obs = c.obs.clone();
        c.nodes[id].as_mut().unwrap().client = RemoteNode::connect(addr).unwrap().with_obs(obs);
    }

    /// Frames the coordinator sent through [`counts_frames`]' relays, by
    /// opcode.
    type FrameCounts = Arc<[AtomicU64; 16]>;

    /// Node `id`'s connection now runs through a relay to its server that
    /// counts every frame by opcode into `counts` and forwards it. Unlike
    /// [`refuses_one_evict`] it leaves the buffer alone.
    fn counts_frames(c: &mut LiveCoordinator, id: usize, counts: &FrameCounts) {
        let upstream = c.node_addr(id).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let counts = Arc::clone(counts);
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut upstream = TcpStream::connect(upstream).unwrap();
            let mut buf = Vec::new();
            while read_frame_into(&mut conn, &mut buf).is_ok() {
                if let Some((_, req)) = decode_with_trace(&buf[..]) {
                    counts[req.op() as usize].fetch_add(1, Ordering::Relaxed);
                }
                let relayed =
                    write_frame(&mut upstream, &buf).and_then(|()| read_frame(&mut upstream));
                if relayed
                    .and_then(|reply| write_frame(&mut conn, &reply))
                    .is_err()
                {
                    return;
                }
            }
        });
        let obs = c.obs.clone();
        c.nodes[id].as_mut().unwrap().client = RemoteNode::connect(addr).unwrap().with_obs(obs);
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
            for id in relayed..c.nodes.len() {
                if c.nodes[id].is_some() {
                    counts_frames(c, id, &counts);
                }
            }
            relayed = c.nodes.len();
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
        refuses_one_evict(&mut c, 0);
        // The split flips [10_000, 13_000] to node 1, then its delete on
        // node 0 is refused: the split stands, node 0 keeps its old copies
        // and is unsure.
        c.split_node(0).unwrap();
        assert_eq!(c.splits, 1);
        let counts = c.obs.snapshot().event_counts();
        assert_eq!(counts.get("sweep_migrate"), Some(&1));
        assert_eq!(c.ring.node_for_key(10_000), Some(&1));
        assert!(c.nodes[0].as_ref().unwrap().unsure);
        assert_eq!(c.client(0).unwrap().keys(0, u64::MAX).unwrap(), keys);
        for &k in &keys {
            assert_eq!(c.get(k).unwrap(), Some(vec![k as u8; 100]), "key {k}");
        }
        // A window eviction of a moved key reaches its owner, node 1; node
        // 0's old copy must not come back when the two merge.
        c.evict(&[10_000]).unwrap();
        c.merge_fill_threshold = 2.0;
        c.try_contract().unwrap();
        assert_eq!(c.merges, 1);
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.get(10_000).unwrap(), None, "stale copy resurrected");
        for &k in &keys[1..] {
            assert_eq!(c.get(k).unwrap(), Some(vec![k as u8; 100]), "key {k}");
        }
        let survivor = c.loads()[0].0;
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
        dies(&mut c, 1);
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
            let hi = c.ring_range - 1;
            let nodes = c.loads().into_iter().map(|(id, _)| id);
            key_sets.push(
                nodes
                    .map(|id| (id, c.client(id).unwrap().keys(0, hi).unwrap()))
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
            c.client(0).unwrap().put(key, b"x".to_vec()).unwrap();
            let err = c.check_invariants().unwrap_err();
            assert!(err.to_string().contains("ledger"), "{err}");
        }
    }

    #[test]
    fn a_ledgered_key_missing_from_its_node_fails_the_get() {
        let mut c = two_node_fleet();
        c.put(100, b"seen".to_vec()).unwrap();
        c.totals().unwrap();
        c.client(1).unwrap().evict_many(&[100]).unwrap();
        let err = c.get(100).unwrap_err();
        assert!(err.to_string().contains("lacks ledgered key 100"), "{err}");
    }

    /// Node `id`'s connection now runs through a relay to its server that
    /// forwards every frame but replaces the first `PutMany`'s ack with
    /// `BadRequest`: the node applied the batch, the coordinator never
    /// learns it.
    fn loses_one_put_many_ack(c: &mut LiveCoordinator, id: usize) {
        let upstream = c.node_addr(id).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut upstream = TcpStream::connect(upstream).unwrap();
            let mut lost = false;
            let mut buf = Vec::new();
            while read_frame_into(&mut conn, &mut buf).is_ok() {
                let put_many = matches!(
                    decode_with_trace(&buf[..]),
                    Some((_, Request::PutMany { .. }))
                );
                write_frame(&mut upstream, &buf).unwrap();
                let mut reply = read_frame(&mut upstream).unwrap();
                if put_many && !lost {
                    lost = true;
                    reply = Response::status(Status::BadRequest).encode();
                }
                if write_frame(&mut conn, &reply).is_err() {
                    return;
                }
            }
        });
        let obs = c.obs.clone();
        c.nodes[id].as_mut().unwrap().client = RemoteNode::connect(addr).unwrap().with_obs(obs);
    }

    #[test]
    fn a_lost_put_many_ack_is_repaired_by_the_resync() {
        let mut c = two_node_fleet();
        c.put(20_000, b"before".to_vec()).unwrap();
        c.totals().unwrap();
        loses_one_put_many_ack(&mut c, 0);
        c.put(30_000, b"applied".to_vec()).unwrap();
        c.put(20_000, vec![5; 200]).unwrap();
        // The placing call fails; node 0 holds both fills all the same.
        assert!(c.end_time_step().is_err());
        assert!(c.nodes[0].as_ref().unwrap().unsure);
        assert!(!c.ledger.contains_key(&30_000));
        // The next decision re-syncs node 0 from `Keys`, `GetMany` and
        // `Stats`: the ledger holds what the node holds.
        c.check_invariants().unwrap();
        assert!(!c.nodes[0].as_ref().unwrap().unsure);
        let node0 = c.nodes[0].as_ref().unwrap().used;
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
    }
}
