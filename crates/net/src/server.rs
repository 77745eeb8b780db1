//! The cache-server binary logic: a TCP listener owning one node's index.
//!
//! "The cache server is automatically fetched from a remote location on the
//! startup of a new Cloud instance" (paper §III-A) — here, registering a
//! node with the process's reactor pool plays the role of booting that
//! instance: it binds a listener and hands it to a running reactor, and
//! starts no thread.
//!
//! The node serves "a litany of simultaneous queries" (§III) through the
//! event-driven engine in [`crate::reactor`]: the reactor that owns the
//! listener enforces the connection bound (one [`Status::Busy`] frame past
//! it) and hands admitted sockets round-robin to the pool's reactors, each
//! sweeping its owned connections with nonblocking reads, pipelined
//! decode/execute against the shared [`ShardedNode`], and one gathered
//! flush per sweep. A response is written straight into its connection's
//! write queue: a GET hit is one copy from the stored record into that
//! queue, with no allocation on the way.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::BufMut;
use ecc_core::{PutOutcome, Record, ShardedNode, DEFAULT_STRIPES};
use ecc_obs::{ObsRegistry, TimeSource};
use parking_lot::Mutex;

use crate::protocol::{encode_get_many_entry, encode_keys, encode_stats, Op, Request, Status};
use crate::reactor::{effective_reactors, NodeCtx, ReactorPool};

/// Default bound on concurrent client connections. Above it the accepting
/// reactor answers with a single [`Status::Busy`] frame and closes, so a
/// connection flood degrades into clean refusals instead of unbounded
/// buffering.
pub const DEFAULT_MAX_CONNECTIONS: u64 = 256;

/// The process's reactor pool: [`effective_reactors`] threads, started on
/// first use; `None` until a start succeeds.
static PROCESS_POOL: Mutex<Option<Arc<ReactorPool>>> = Mutex::new(None);

fn process_pool() -> io::Result<Arc<ReactorPool>> {
    let mut pool = PROCESS_POOL.lock();
    let started = match &*pool {
        Some(started) => Arc::clone(started),
        // The threads are detached on purpose: the pool serves every node
        // until the process exits.
        None => ReactorPool::start(effective_reactors(), "ecc-pool")?.0,
    };
    *pool = Some(Arc::clone(&started));
    Ok(started)
}

/// A running cache server (one node of the cooperative cache).
pub struct CacheServer {
    addr: SocketAddr,
    pub(crate) node: Arc<NodeCtx>,
    /// The pool the node is registered with, and the threads of a private
    /// one (none for the process's pool); `None` once stopped.
    pool: Option<(Arc<ReactorPool>, Vec<JoinHandle<()>>)>,
}

impl CacheServer {
    /// Bind a listener on `127.0.0.1:0` (an ephemeral loopback port) and
    /// serve a node with the given capacity and index order on the
    /// process's reactor pool.
    pub fn spawn(capacity_bytes: u64, btree_order: usize) -> io::Result<CacheServer> {
        Self::spawn_with(
            ("127.0.0.1", 0),
            capacity_bytes,
            btree_order,
            DEFAULT_MAX_CONNECTIONS,
            None,
        )
    }

    /// Bind a listener on `addr` (the `cache_server` binary binds its
    /// deployment address). Connections past `max_connections` receive one
    /// [`Status::Busy`] frame and are closed without being served (and
    /// without counting as accepted). `reactor_threads: None` registers the
    /// node with the process's reactor pool; `Some(n)` gives it a private
    /// pool of `n` reactors that stops with it (tests use this to exercise
    /// multi-reactor handoff regardless of host core count).
    pub fn spawn_with<A: ToSocketAddrs>(
        addr: A,
        capacity_bytes: u64,
        btree_order: usize,
        max_connections: u64,
        reactor_threads: Option<usize>,
    ) -> io::Result<CacheServer> {
        Self::spawn_clocked(
            addr,
            capacity_bytes,
            btree_order,
            max_connections,
            reactor_threads,
            TimeSource::real(),
        )
    }

    /// [`CacheServer::spawn_with`] on an injected clock. The coordinator
    /// passes every node the [`TimeSource`] of the coordinator's registry,
    /// so span timestamps from different recorders are comparable after
    /// an `ObsDump` merge — cross-node parent/child interval nesting is
    /// only meaningful on a shared epoch.
    pub(crate) fn spawn_clocked<A: ToSocketAddrs>(
        addr: A,
        capacity_bytes: u64,
        btree_order: usize,
        max_connections: u64,
        reactor_threads: Option<usize>,
        time: TimeSource,
    ) -> io::Result<CacheServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (pool, threads) = match reactor_threads {
            None => (process_pool()?, Vec::new()),
            Some(n) => ReactorPool::start(n.max(1), &format!("ecc-reactor-{}", addr.port()))?,
        };
        let obs = ObsRegistry::new(time);
        let node =
            ShardedNode::new(capacity_bytes, btree_order, DEFAULT_STRIPES).with_obs(obs.clone());
        let node = pool.register(node, obs, max_connections, listener);
        Ok(CacheServer {
            addr,
            node,
            pool: Some((pool, threads)),
        })
    }

    /// This node's observability registry (shared with the reactors
    /// serving it; the same store the wire `ObsDump` op snapshots).
    pub fn obs(&self) -> &ObsRegistry {
        &self.node.obs
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many client connections the listener has accepted so far —
    /// lets tests verify that clients actually reuse connections instead
    /// of reconnecting per request. Refused connections are not counted.
    pub fn connections_accepted(&self) -> u64 {
        self.node.accepted.load(Ordering::Relaxed)
    }

    /// How many connections were refused with a `Busy` frame because the
    /// concurrent-connection bound was reached.
    pub fn connections_refused(&self) -> u64 {
        self.node.refused.load(Ordering::Relaxed)
    }

    /// Take the node out of service. Returns once its port is closed and
    /// every connection to it dropped: no reactor holds the node any more,
    /// so dropping the server frees it. A private pool's reactors are
    /// joined.
    /// Idempotent.
    pub fn stop(&mut self) {
        let Some((pool, threads)) = self.pool.take() else {
            return;
        };
        if threads.is_empty() {
            pool.deregister(&self.node);
        } else {
            pool.halt();
            for t in threads {
                drop(t.join());
            }
        }
    }
}

impl Drop for CacheServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Execute one request against the node and append the response payload
/// (status byte, then body) to `out`, inside the frame the frame loop
/// (`reactor::serve_frames`) opened; one frame at a time, on either link.
/// Point ops take only the key's stripe lock; Stats reads atomics with no
/// lock at all; Keys serializes behind the structural lock.
pub(crate) fn handle(req: Request, node: &ShardedNode, obs: &ObsRegistry, out: &mut Vec<u8>) {
    match req {
        // A batch of one; the reactor serves a run of unsampled GETs with
        // one batch read instead.
        Request::Get { key } => node.get_with(key, |rec| get_reply(out, rec)),
        Request::Put { key, value } => reply(out, put_status(node.put_slice(key, value)), &[]),
        // One batch, its values still in the read buffer; each verdict is
        // appended to the reply as it is decided. A refused item never
        // aborts the rest of the batch.
        Request::PutMany { items } => {
            out.push(Status::Ok as u8);
            out.put_u32_le(items.len() as u32);
            node.put_many(&items, |verdict| out.push(put_status(verdict) as u8));
        }
        // Batch reads, entry by entry: each value is copied from its
        // record into the write queue under its stripe's read guard.
        Request::GetMany { keys } => {
            out.push(Status::Ok as u8);
            out.put_u32_le(keys.len() as u32);
            node.get_many_with(&keys, |rec| {
                encode_get_many_entry(out, rec.map(Record::as_slice));
            });
        }
        Request::EvictMany { keys } => {
            out.push(Status::Ok as u8);
            out.put_u32_le(keys.len() as u32);
            for key in keys {
                let status = match node.remove(key) {
                    Some(_) => Status::Ok,
                    None => Status::NotFound,
                };
                out.push(status as u8);
            }
        }
        Request::Keys { lo, hi } => {
            reply(out, Status::Ok, &encode_keys(&node.keys_in_range(lo, hi)));
        }
        Request::Stats => reply(
            out,
            Status::Ok,
            &encode_stats(
                node.used_bytes(),
                node.record_count(),
                node.capacity_bytes(),
            ),
        ),
        // Encoded from the registry part by part, each under its own
        // lock, straight into the write queue: no snapshot, no
        // intermediate buffer. The dump carries the slab's mapping and
        // the stripes' B+-tree node storage as of now.
        Request::ObsDump => {
            obs.set_gauge("mem_bytes:slab", node.arena().mapped_bytes());
            obs.set_gauge("mem_bytes:tree", node.tree_bytes());
            out.push(Status::Ok as u8);
            obs.encode_dump_into(out);
        }
    }
}

/// Append a GET's response payload. A hit is copied out of the stored
/// record under its stripe's read guard — the one payload copy a GET
/// makes in user space (the socket write is the kernel's). No record
/// clone, no `Bytes`, no allocation.
#[inline]
pub(crate) fn get_reply(out: &mut Vec<u8>, rec: Option<&Record>) {
    match rec {
        Some(rec) => reply(out, Status::Ok, rec.as_slice()),
        None => reply(out, Status::NotFound, &[]),
    }
}

/// Append one response payload: the status byte, then the body.
#[inline]
pub(crate) fn reply(out: &mut Vec<u8>, status: Status, body: &[u8]) {
    out.push(status as u8);
    out.extend_from_slice(body);
}

/// Static per-op histogram name (`server_op_us:<op>`), so the hot path
/// never allocates a label string.
pub(crate) fn op_hist_name(op: Option<Op>) -> &'static str {
    match op {
        Some(Op::Get) => "server_op_us:get",
        Some(Op::Put) => "server_op_us:put",
        Some(Op::Keys) => "server_op_us:keys",
        Some(Op::Stats) => "server_op_us:stats",
        Some(Op::PutMany) => "server_op_us:put_many",
        Some(Op::GetMany) => "server_op_us:get_many",
        Some(Op::EvictMany) => "server_op_us:evict_many",
        Some(Op::ObsDump) => "server_op_us:obs_dump",
        None => "server_op_us:bad",
    }
}

/// The wire status of a put verdict.
fn put_status(outcome: PutOutcome) -> Status {
    match outcome {
        PutOutcome::Stored => Status::Ok,
        PutOutcome::Overflow => Status::Overflow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RemoteNode;
    use std::net::TcpStream;

    #[test]
    fn server_serves_basic_operations() {
        let mut server = CacheServer::spawn(10_000, 16).unwrap();
        let mut client = RemoteNode::connect(server.addr()).unwrap();
        assert_eq!(client.stats().unwrap(), (0, 0, 10_000));
        assert_eq!(client.get(5).unwrap(), None);
        assert_eq!(client.put(5, b"abc".to_vec()).unwrap(), Status::Ok);
        assert_eq!(client.get(5).unwrap(), Some(b"abc".to_vec()));
        // `used` is the record's true slab footprint (a 64-byte slot for
        // a 3-byte payload), not its payload length.
        let (used, count, cap) = client.stats().unwrap();
        assert_eq!((used, count, cap), (64, 1, 10_000));
        assert_eq!(
            client.evict_many(&[5, 5]).unwrap(),
            [Status::Ok, Status::NotFound]
        );
        server.stop();
    }

    #[test]
    fn malformed_frames_get_bad_request_and_connection_survives() {
        use crate::protocol::{read_frame, write_frame, Status};

        let mut server = CacheServer::spawn(10_000, 16).unwrap();
        let mut raw = TcpStream::connect(server.addr()).unwrap();

        // Unknown opcode.
        write_frame(&mut raw, &[0xFF, 1, 2, 3]).unwrap();
        let resp = read_frame(&mut raw).unwrap();
        assert_eq!(Status::from_u8(resp[0]), Some(Status::BadRequest));

        // Known opcode (Get) with a truncated body.
        write_frame(&mut raw, &[0x01, 0xAB]).unwrap();
        let resp = read_frame(&mut raw).unwrap();
        assert_eq!(Status::from_u8(resp[0]), Some(Status::BadRequest));

        // Empty payload.
        write_frame(&mut raw, &[]).unwrap();
        let resp = read_frame(&mut raw).unwrap();
        assert_eq!(Status::from_u8(resp[0]), Some(Status::BadRequest));

        // The same connection still serves well-formed requests, and the
        // node is untouched.
        let req = Request::Stats.encode();
        write_frame(&mut raw, &req).unwrap();
        let resp = read_frame(&mut raw).unwrap();
        assert_eq!(Status::from_u8(resp[0]), Some(Status::Ok));

        let mut client = RemoteNode::connect(server.addr()).unwrap();
        let (used, count, _) = client.stats().unwrap();
        assert_eq!((used, count), (0, 0), "garbage must not create records");
        server.stop();
    }

    #[test]
    fn overflow_is_reported_not_stored() {
        // Footprints: a 60-byte value occupies an 80-byte slot, a 90-byte
        // value a 104-byte slot.
        let mut server = CacheServer::spawn(150, 8).unwrap();
        let mut client = RemoteNode::connect(server.addr()).unwrap();
        assert_eq!(client.put(1, vec![0; 60]).unwrap(), Status::Ok);
        assert_eq!(client.put(2, vec![0; 60]).unwrap(), Status::Overflow);
        assert_eq!(client.get(2).unwrap(), None);
        // Replacement growth within budget (80 → 104) is accepted.
        assert_eq!(client.put(1, vec![0; 90]).unwrap(), Status::Ok);
        server.stop();
    }

    #[test]
    fn replacement_growth_past_capacity_overflows() {
        // Regression (simtest proto/6, live/16): the Put handler used to
        // treat any replacement as free, letting a record grow past the
        // node's capacity. Growth within budget stays Ok; growth past it
        // must be refused and leave the old record intact.
        // Footprints: 60 → 80-byte slot, 150 → 176, 200 → 224.
        let mut server = CacheServer::spawn(200, 8).unwrap();
        let mut client = RemoteNode::connect(server.addr()).unwrap();
        assert_eq!(client.put(1, vec![7; 60]).unwrap(), Status::Ok);
        assert_eq!(client.put(1, vec![7; 150]).unwrap(), Status::Ok);
        assert_eq!(client.put(1, vec![7; 200]).unwrap(), Status::Overflow);
        assert_eq!(client.get(1).unwrap(), Some(vec![7; 150]));
        let (used, count, _) = client.stats().unwrap();
        assert_eq!((used, count), (176, 1));
        server.stop();
    }

    #[test]
    fn a_range_moves_out_by_keys_get_many_and_evict_many() {
        // The migration's source-side ops: list, copy out, then delete.
        let mut server = CacheServer::spawn(1_000_000, 16).unwrap();
        let mut client = RemoteNode::connect(server.addr()).unwrap();
        for k in 0..50u64 {
            client.put(k, vec![k as u8; 4]).unwrap();
        }
        let keys = client.keys(10, 19).unwrap();
        assert_eq!(keys, (10..20).collect::<Vec<u64>>());
        let values = client.get_many(&keys).unwrap();
        assert_eq!(values[0], Some(vec![10u8; 4]));
        assert!(values.iter().all(Option::is_some));
        // Reading is not a move: the range is still resident.
        assert_eq!(client.get(10).unwrap(), Some(vec![10u8; 4]));
        let statuses = client.evict_many(&keys).unwrap();
        assert!(statuses.iter().all(|s| *s == Status::Ok));
        assert_eq!(client.get(10).unwrap(), None);
        assert_eq!(client.get(9).unwrap(), Some(vec![9u8; 4]));
        assert_eq!(client.keys(0, 100).unwrap().len(), 40);
        server.stop();
    }

    #[test]
    fn concurrent_clients_are_serialized_safely() {
        let server = CacheServer::spawn(1_000_000, 16).unwrap();
        let addr = server.addr();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut c = RemoteNode::connect(addr).unwrap();
                    for i in 0..100u64 {
                        let key = t * 1000 + i;
                        c.put(key, key.to_le_bytes().to_vec()).unwrap();
                        assert_eq!(c.get(key).unwrap(), Some(key.to_le_bytes().to_vec()));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut c = RemoteNode::connect(addr).unwrap();
        let (_, count, _) = c.stats().unwrap();
        assert_eq!(count, 400);
    }

    #[test]
    fn connections_past_the_bound_get_a_busy_frame() {
        use crate::protocol::read_frame;

        let mut server = CacheServer::spawn_with(("127.0.0.1", 0), 10_000, 16, 2, None).unwrap();
        let mut a = RemoteNode::connect(server.addr()).unwrap();
        let mut b = RemoteNode::connect(server.addr()).unwrap();
        a.stats().unwrap();
        b.stats().unwrap();

        // Third connection: one Busy frame, then EOF.
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        let frame = read_frame(&mut raw).unwrap();
        assert_eq!(Status::from_u8(frame[0]), Some(Status::Busy));
        assert_eq!(frame.len(), 1);
        assert_eq!(
            read_frame(&mut raw).map_err(|e| e.kind()).err(),
            Some(io::ErrorKind::UnexpectedEof)
        );

        assert_eq!(server.connections_accepted(), 2);
        assert_eq!(server.connections_refused(), 1);

        // Admitted connections are unaffected, and closing one frees the
        // slot for a new client.
        a.stats().unwrap();
        drop(b);
        let admitted = (0..50).find_map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            let mut c = RemoteNode::connect(server.addr()).ok()?;
            c.stats().ok()
        });
        assert!(admitted.is_some(), "freed slot must admit a new client");
        server.stop();
    }

    #[test]
    fn client_maps_busy_to_connection_refused() {
        let mut server = CacheServer::spawn_with(("127.0.0.1", 0), 10_000, 16, 1, None).unwrap();
        let mut a = RemoteNode::connect(server.addr()).unwrap();
        a.stats().unwrap();
        let mut b = RemoteNode::connect(server.addr()).unwrap();
        let err = b.stats().expect_err("refused connection must error");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        server.stop();
    }

    #[test]
    fn obs_dump_reports_per_op_latency_and_frame_events() {
        let mut server = CacheServer::spawn(10_000, 16).unwrap();
        let mut client = RemoteNode::connect(server.addr()).unwrap();
        client.put(1, b"abc".to_vec()).unwrap();
        client.get(1).unwrap();
        client.get(2).unwrap();
        let snap = client.obs_dump().unwrap();
        // Per-op frame counts are the per-op histogram counts.
        assert_eq!(snap.hist("server_op_us:put").map(|h| h.count()), Some(1));
        assert_eq!(snap.hist("server_op_us:get").map(|h| h.count()), Some(2));
        // Payload bytes in: put 1+8+3, two gets of 1+8, the dump's own
        // opcode. Out: Ok, Ok+"abc", NotFound; the dump's response is
        // still being built.
        assert_eq!(snap.gauge("frame_bytes_rx"), Some(12 + 9 + 9 + 1));
        assert_eq!(snap.gauge("frame_bytes_tx"), Some(1 + 4 + 1));
        // One client at a time never waits for a lock, and only waits are
        // recorded.
        assert_eq!(snap.hist("lock_wait_us:stripe"), None);
        assert_eq!(snap.hist("lock_wait_us:structural"), None);
        // Requests leave nothing in the flight recorder.
        assert_eq!(snap.events, vec![]);
        server.stop();
    }

    #[test]
    fn a_dump_pipelined_behind_gets_in_one_write_reports_all_of_them() {
        use crate::protocol::{append_frame, read_frame, Response};
        use std::io::Write;

        let mut server = CacheServer::spawn(1 << 20, 16).unwrap();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.set_nodelay(true).unwrap();
        // 16 GETs and the dump leave in ONE write, so the reactor finds
        // them in one sweep: the dump must not be taken from a registry
        // that is still waiting for that sweep's batch.
        let mut burst = Vec::new();
        for key in 0..16u64 {
            append_frame(&mut burst, |b| Request::Get { key }.encode_into(b)).unwrap();
        }
        append_frame(&mut burst, |b| Request::ObsDump.encode_into(b)).unwrap();
        raw.write_all(&burst).unwrap();
        for _ in 0..16 {
            let resp = read_frame(&mut raw).unwrap();
            assert_eq!(Status::from_u8(resp[0]), Some(Status::NotFound));
        }
        let dump = Response::decode(read_frame(&mut raw).unwrap()).unwrap();
        assert_eq!(dump.status, Status::Ok);
        let snap = ecc_obs::decode_dump(&dump.body).unwrap();
        assert_eq!(snap.hist("server_op_us:get").map(|h| h.count()), Some(16));
        assert_eq!(snap.gauge("frame_bytes_rx"), Some(16 * 9 + 1));
        assert_eq!(snap.gauge("frame_bytes_tx"), Some(16));
        server.stop();
    }

    #[test]
    fn traced_requests_build_complete_cross_recorder_span_trees() {
        // Client and server share ONE clock epoch (spawn_clocked) so the
        // merged trace's parent/child interval nesting is checkable.
        let time = TimeSource::real();
        let mut server =
            CacheServer::spawn_clocked(("127.0.0.1", 0), 10_000, 16, 256, None, time.clone())
                .unwrap();
        server.obs().set_origin(1);
        let client_obs = ObsRegistry::new(time);
        client_obs.set_origin(99);
        let mut client = RemoteNode::connect(server.addr())
            .unwrap()
            .with_obs(client_obs.clone());

        // Calls made under a live span on this thread are traced.
        let call = client_obs.span_start("call", 0x77, 0);
        client.put(1, b"abc".to_vec()).unwrap();
        client.get(1).unwrap();
        drop(call);

        // A traceless peer interoperates with the tracing server on the
        // same socket lifetime as the traced one.
        let mut plain = RemoteNode::connect(server.addr()).unwrap();
        assert_eq!(plain.get(1).unwrap(), Some(b"abc".to_vec()));

        let snap = client.obs_dump().unwrap();
        let server_counts = snap.event_counts();
        // 2 × (srv, srv_queue, srv_exec); no lock waited, so no lock_wait.
        assert_eq!(server_counts.get("span_start"), Some(&6));
        assert_eq!(server_counts.get("span_end"), Some(&6));

        // Merge both recorders and verify the full tree: every start
        // ended, no orphans, child intervals nested. Under the one root,
        // the put and get each form wire → srv → {srv_queue, srv_exec}
        // (a lock_wait span would live under srv_exec, had a lock waited).
        let mut events = client_obs.snapshot().events;
        events.extend(snap.events);
        let stats = ecc_obs::verify_spans(&events).expect("merged trace is well-formed");
        assert_eq!(stats.roots, 1);
        assert_eq!(stats.traces, 1);
        assert!(stats.spans >= 9, "spans: {}", stats.spans);
        server.stop();
    }

    #[test]
    fn traced_pipelined_requests_build_complete_span_trees() {
        use crate::client::PipelinedConn;
        use std::collections::VecDeque;
        use std::time::Duration;

        let time = TimeSource::real();
        let mut server =
            CacheServer::spawn_clocked(("127.0.0.1", 0), 1 << 22, 32, 256, None, time.clone())
                .unwrap();
        server.obs().set_origin(1);
        let client_obs = ObsRegistry::new(time);
        client_obs.set_origin(100);
        let addr = server.addr();

        // Two connections × 4096 GETs at depth 8, 1 in 32 sampled: more
        // frames than two flight-recorder rings hold events, but only the
        // sampled requests' spans reach a ring, so none is lost. Root
        // spans retire FIFO, in response order.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let obs = &client_obs;
                scope.spawn(move || {
                    let mut conn = PipelinedConn::connect(addr, Duration::from_secs(5)).unwrap();
                    let mut roots = VecDeque::new();
                    for i in 0..4096u64 {
                        if conn.in_flight() == 8 {
                            conn.recv().unwrap();
                            drop(roots.pop_front());
                        }
                        let root = if i % 32 == 0 {
                            Some(obs.span_root("req"))
                        } else {
                            obs.note_span_dropped();
                            None
                        };
                        let ctx = root.as_ref().map(ecc_obs::SpanGuard::context);
                        conn.enqueue_traced(&Request::Get { key: i % 256 }, ctx.as_ref())
                            .unwrap();
                        roots.push_back(root);
                    }
                    while conn.in_flight() > 0 {
                        conn.recv().unwrap();
                        drop(roots.pop_front());
                    }
                });
            }
        });
        assert_eq!(client_obs.spans_dropped(), 7936);

        let server_snap = RemoteNode::connect(addr).unwrap().obs_dump().unwrap();
        assert_eq!(server_snap.dropped, 0);
        let client_snap = client_obs.snapshot();
        assert_eq!(client_snap.dropped, 0);
        let mut events = client_snap.events;
        events.extend(server_snap.events);
        let stats = ecc_obs::verify_spans(&events).expect("merged trace is well-formed");
        assert_eq!(stats.roots, 256);
        assert_eq!(stats.traces, 256);
        // Every sampled request carries its server subtree: root + srv +
        // srv_queue + srv_exec = 4 spans per trace. GETs only read-lock,
        // so none waits and none has a lock_wait span.
        assert_eq!(stats.spans, 1024);
        server.stop();
    }

    #[test]
    fn a_mixed_burst_answers_byte_for_byte_as_its_frames_served_alone() {
        use crate::protocol::{append_frame, encode_traced_into, read_frame, write_frame};
        use crate::protocol::{decode_with_trace, TraceContext};
        use ecc_core::GET_BATCH;
        use std::io::Write;

        let traced = |sampled, key| {
            let ctx = TraceContext {
                trace_id: 7,
                span_id: 8,
                parent_span_id: 0,
                sampled,
            };
            let mut b = Vec::new();
            encode_traced_into(&ctx, &Request::Get { key }, &mut b);
            b
        };
        let plain = |req: Request| {
            let mut b = Vec::new();
            req.encode_into(&mut b);
            b
        };
        let mut frames = vec![
            plain(Request::Put {
                key: 1,
                value: b"one",
            }),
            plain(Request::Put {
                key: 2,
                value: &[2; 300],
            }),
        ];
        // A run longer than one batch, of hits (1, 2) and misses.
        frames.extend((0..GET_BATCH as u64 + 8).map(|k| plain(Request::Get { key: k % 5 })));
        frames.extend([
            traced(true, 1),
            traced(false, 2),
            plain(Request::Get { key: 2 }),
            plain(Request::GetMany {
                keys: vec![1, 9, 2],
            }),
            plain(Request::Get { key: 9 }),
            plain(Request::Put {
                key: 9,
                value: b"nine",
            }),
            plain(Request::Get { key: 9 }),
            plain(Request::Stats),
            vec![0xFF, 1],
            plain(Request::Get { key: 1 }),
            plain(Request::Get { key: 3 }),
        ]);
        let gets = frames
            .iter()
            .filter(|f| matches!(decode_with_trace(f), Some((_, Request::Get { .. }))))
            .count() as u64;

        // Every reply, each frame sent alone or all in one write, then the
        // node's registry once the server has stopped and folded it all.
        let serve = |burst: bool| {
            let mut server = CacheServer::spawn(1 << 20, 16).unwrap();
            let mut raw = TcpStream::connect(server.addr()).unwrap();
            raw.set_nodelay(true).unwrap();
            if burst {
                let mut buf = Vec::new();
                for f in &frames {
                    append_frame(&mut buf, |b| b.extend_from_slice(f)).unwrap();
                }
                raw.write_all(&buf).unwrap();
            }
            let mut replies = Vec::new();
            for f in &frames {
                if !burst {
                    write_frame(&mut raw, f).unwrap();
                }
                let reply = read_frame(&mut raw).unwrap();
                append_frame(&mut replies, |b| b.extend_from_slice(&reply)).unwrap();
            }
            server.stop();
            (replies, server.obs().snapshot())
        };
        let (alone, alone_obs) = serve(false);
        let (burst, burst_obs) = serve(true);
        assert_eq!(burst, alone, "a batched sweep changed a reply");
        let swept = burst_obs.hist("reactor_frames_per_wake").unwrap();
        assert!(
            swept.max() > Some(GET_BATCH as u64),
            "the burst took one sweep"
        );

        for obs in [&alone_obs, &burst_obs] {
            // One `server_op_us:get` sample per GET frame, batched or not.
            let get = obs.hist("server_op_us:get").unwrap();
            assert_eq!(get.count(), gets);
            // A sweep's op samples add up to its span, which ends before
            // its `reactor_dispatch_us` sample does.
            let ops: u64 = obs
                .hists
                .iter()
                .filter(|(name, _)| name.starts_with("server_op_us:"))
                .map(|(_, h)| h.sum())
                .sum();
            let dispatch = obs.hist("reactor_dispatch_us").unwrap();
            assert!(ops <= dispatch.sum(), "{ops} us of ops in {dispatch:?}");
        }
    }

    #[test]
    fn pipelined_burst_on_one_connection_answers_in_order() {
        use crate::protocol::{read_frame, Status};
        use std::io::Write;

        let mut server = CacheServer::spawn(1 << 20, 16).unwrap();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.set_nodelay(true).unwrap();

        // 50 puts + 50 gets written as ONE burst before any response is
        // read: the reactor must decode every frame that arrived, execute
        // them in order, and answer all 100.
        let mut burst = Vec::new();
        for k in 0..50u64 {
            crate::protocol::append_frame(&mut burst, |b| {
                Request::Put {
                    key: k,
                    value: &k.to_le_bytes(),
                }
                .encode_into(b)
            })
            .unwrap();
        }
        for k in 0..50u64 {
            crate::protocol::append_frame(&mut burst, |b| Request::Get { key: k }.encode_into(b))
                .unwrap();
        }
        raw.write_all(&burst).unwrap();

        for _ in 0..50 {
            let resp = read_frame(&mut raw).unwrap();
            assert_eq!(Status::from_u8(resp[0]), Some(Status::Ok));
            assert_eq!(resp.len(), 1);
        }
        for k in 0..50u64 {
            let resp = read_frame(&mut raw).unwrap();
            assert_eq!(Status::from_u8(resp[0]), Some(Status::Ok));
            assert_eq!(&resp[1..], k.to_le_bytes());
        }
        server.stop();
    }

    #[test]
    fn multi_reactor_handoff_serves_every_connection() {
        // More reactors than cores and more connections than reactors:
        // round-robin ownership must serve them all concurrently.
        let server = CacheServer::spawn_with(("127.0.0.1", 0), 1 << 20, 16, 256, Some(3)).unwrap();
        let addr = server.addr();
        let threads: Vec<_> = (0..6)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut c = RemoteNode::connect(addr).unwrap();
                    for i in 0..50u64 {
                        let key = t * 1000 + i;
                        assert_eq!(c.put(key, vec![t as u8; 8]).unwrap(), Status::Ok);
                        assert_eq!(c.get(key).unwrap(), Some(vec![t as u8; 8]));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.connections_accepted(), 6);
    }

    #[test]
    fn reactor_histograms_decompose_wire_latency() {
        let mut server = CacheServer::spawn(1 << 20, 16).unwrap();
        let mut client = RemoteNode::connect(server.addr()).unwrap();
        for k in 0..20u64 {
            client.put(k, vec![1; 16]).unwrap();
            client.get(k).unwrap();
        }
        let snap = client.obs_dump().unwrap();
        // Every request-bearing wakeup records a dispatch sample...
        let dispatch = snap
            .hist("reactor_dispatch_us")
            .map(|h| h.count())
            .unwrap_or(0);
        assert!(dispatch >= 40, "dispatch samples: {dispatch}");
        // ...and a burst-size sample (sequential client → depth-1 wakes).
        let wakes = snap
            .hist("reactor_frames_per_wake")
            .map(|h| h.count())
            .unwrap_or(0);
        assert!(wakes >= 40, "frames-per-wake samples: {wakes}");
        server.stop();
    }

    #[test]
    fn stop_is_idempotent() {
        let mut server = CacheServer::spawn(1000, 8).unwrap();
        server.stop();
        server.stop();
    }
}
