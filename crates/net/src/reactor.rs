//! Event-driven multi-reactor connection engine.
//!
//! N **reactor threads** each own a disjoint slice of the server's
//! connections, handed off round-robin by the acceptor:
//!
//! * **Nonblocking sockets, level sampling.** Each sweep, a reactor visits
//!   every owned connection with a nonblocking `read` into that
//!   connection's reused [`FrameAssembler`] buffer.
//! * **Request pipelining.** Every complete frame that arrived is decoded
//!   and executed back-to-back against the shared `ShardedNode`; the
//!   responses accumulate in the connection's write queue and are flushed
//!   with a *single* gathered `write` per sweep. One wakeup can retire an
//!   entire burst — syscalls amortize across the pipeline depth instead
//!   of costing two context switches per request.
//! * **Connection ownership.** A connection lives on exactly one reactor
//!   for its whole life, so per-connection state (assembler, write queue)
//!   is plain mutable data — no locks, no cross-reactor work stealing,
//!   nothing for the lock-order auditor to even see.
//! * **Backpressure.** A connection whose peer stops draining responses
//!   accumulates at most [`WRITE_HIGH_WATER`] queued bytes; past that the
//!   reactor stops reading it until the queue drains.
//! * **Idle discipline: hot yield window, then an untimed `poll(2)`.** A
//!   sweep that moved nothing is followed by `yield_now`, up to
//!   [`HOT_SWEEPS`] times — a closed-loop client's next request lands
//!   inside that window and costs no wakeup. After it the reactor blocks
//!   in `sys::wait` with no timeout on its waker plus every owned
//!   socket, so a cold node costs no CPU and answers one kernel wakeup
//!   after the bytes arrive. A connection asks for `POLLIN` while the
//!   reactor would read it (`Conn::wants_read`: not at EOF, not closing,
//!   under the write high-water mark) and for `POLLOUT` while it has
//!   unflushed responses, so a stalled flush resumes when the peer drains
//!   and a backpressured connection is read again once its queue falls.
//! * **The waker.** Three things a reactor must notice are not bytes on an
//!   owned socket, so each reactor also polls one end of a nonblocking
//!   `UnixStream` pair, and whoever causes the event writes a byte to the
//!   other end: the acceptor after handing off a connection, `stop()`
//!   after raising `halt`, and the reactor that executes a wire
//!   `Shutdown` — its siblings have no connection that would tell them.
//!
//! Unix only: `poll` and the waker pair are the platform's.
//!
//! Observability: nothing shared is touched per frame. Each reactor records
//! into its own `SweepObs` — `server_op_us:<op>` (end of the previous
//! frame, or the sweep's first clock read, → this frame's response queued:
//! one clock read per frame, and a sweep's samples add up to its span),
//! `reactor_frames_per_wake` (the burst one sweep of one connection
//! retired), `reactor_dispatch_us` (first clock read → responses fully
//! flushed: the queueing+execution slice of wire RTT), `reactor_wake_us`
//! (blocking wait returned → first byte read on that wake: the reactor's
//! own share of a cold request's latency; the kernel's share is only
//! visible from the client) and the payload-byte counters
//! `frame_bytes_rx`/`frame_bytes_tx` — and folds it into the node's
//! [`ObsRegistry`] under one histogram lock per connection-sweep that
//! dispatched frames. The fold comes before the gathered write, and before
//! an `ObsDump` frame executes, so a client that has read a reply never
//! fetches a dump that lacks it; what a sweep measures after its fold (its
//! `reactor_dispatch_us`) rides in the next one, or in the fold that
//! precedes the blocking wait. Per-op frame counts are the
//! `server_op_us:*` counts. `reactor_idle_wakes` counts returns from the
//! blocking wait. Before it blocks, a reactor cuts drained buffers back to
//! `KEPT_BUF_BYTES` and reports its share of `mem_bytes:conn_buf`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use ecc_core::ShardedNode;
use ecc_obs::{LogHistogram, ObsRegistry};

use crate::protocol::{
    append_frame, decode_with_trace, release_buf, FrameAssembler, Op, Request, Status, TraceContext,
};
use crate::server::{handle, op_hist_name, reply, ConnSlot};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};

/// Default reactor-thread count: one per core up to 4. Cache serving is
/// memory-bound long before 4 reactors saturate; more threads on few cores
/// just reintroduces the context-switch tax this module removes.
pub const DEFAULT_REACTOR_THREADS: usize = 4;

/// Pending-response bytes above which a connection's read side is parked
/// until the peer drains (slow-consumer backpressure).
const WRITE_HIGH_WATER: usize = 4 * 1024 * 1024;

/// Unproductive sweeps a reactor tolerates before it blocks in `poll`
/// (below this it only yields, keeping closed-loop RTT tight).
const HOT_SWEEPS: u32 = 64;

/// Pick the spawn-time reactor count: the configured override, else
/// [`DEFAULT_REACTOR_THREADS`] capped by available parallelism.
pub(crate) fn effective_reactors(requested: Option<usize>) -> usize {
    match requested {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .clamp(1, DEFAULT_REACTOR_THREADS),
    }
}

/// One connection owned by a reactor thread.
struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    /// Encoded-but-unflushed response frames.
    wbuf: Vec<u8>,
    /// Flushed prefix of `wbuf`.
    wpos: usize,
    /// Peer sent EOF: serve what already arrived, flush, then close.
    got_eof: bool,
    /// Close once `wbuf` drains (the connection that requested Shutdown).
    close_after_flush: bool,
    /// Frees this connection's slot under the accept bound on drop.
    _slot: ConnSlot,
}

impl Conn {
    fn new(stream: TcpStream, slot: ConnSlot) -> Conn {
        Conn {
            stream,
            asm: FrameAssembler::new(),
            wbuf: Vec::new(),
            wpos: 0,
            got_eof: false,
            close_after_flush: false,
            _slot: slot,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether a sweep reads this socket: not after EOF, not while closing,
    /// and not while the peer is a slow consumer with a full write queue
    /// (backpressure).
    fn wants_read(&self) -> bool {
        !self.got_eof && !self.close_after_flush && self.pending_write() < WRITE_HIGH_WATER
    }

    /// The `poll` events whose arrival lets the next sweep move bytes on
    /// this connection. Never empty for a connection a sweep kept: one
    /// that will not be read again and owes nothing is closed.
    fn interest(&self) -> i16 {
        let mut events = 0;
        if self.wants_read() {
            events |= POLLIN;
        }
        if self.pending_write() > 0 {
            events |= POLLOUT;
        }
        events
    }

    /// Write as much of the queue as the socket accepts right now.
    /// Returns whether any bytes moved.
    fn flush(&mut self) -> io::Result<bool> {
        let mut progressed = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(progressed)
    }
}

/// The write ends of every reactor's waker pair, indexed like the
/// reactors. One byte makes the read end readable, which ends that
/// reactor's blocking wait.
struct Wakers(Vec<UnixStream>);

impl Wakers {
    fn wake(&self, i: usize) {
        // Nonblocking: `WouldBlock` means unread wake bytes already fill
        // the socket buffer, so the reactor is as good as woken.
        drop((&self.0[i]).write(&[1]));
    }

    fn wake_all(&self) {
        for i in 0..self.0.len() {
            self.wake(i);
        }
    }
}

/// [`SweepObs::hists`] slots after the per-op ones, which sit at their
/// opcode (`0` = undecodable frame).
const FRAMES_PER_WAKE: usize = Op::ObsDump as usize + 1;
const DISPATCH_US: usize = FRAMES_PER_WAKE + 1;
const WAKE_US: usize = DISPATCH_US + 1;

/// [`SweepObs::bytes`] slots.
const RX: usize = 0;
const TX: usize = 1;

/// What one reactor measured since it last folded into the registry:
/// plain thread-local data, so recording a sample is an array index and a
/// few adds.
struct SweepObs {
    hists: [(&'static str, LogHistogram); WAKE_US + 1],
    /// Payload bytes of the request frames read and of the response frames
    /// queued.
    bytes: [(&'static str, u64); 2],
}

impl SweepObs {
    fn new() -> SweepObs {
        SweepObs {
            hists: std::array::from_fn(|slot| {
                let name = match slot {
                    FRAMES_PER_WAKE => "reactor_frames_per_wake",
                    DISPATCH_US => "reactor_dispatch_us",
                    WAKE_US => "reactor_wake_us",
                    op => op_hist_name(Op::from_u8(op as u8)),
                };
                (name, LogHistogram::new())
            }),
            bytes: [("frame_bytes_rx", 0), ("frame_bytes_tx", 0)],
        }
    }

    fn record(&mut self, slot: usize, value: u64) {
        self.hists[slot].1.record(value);
    }

    fn fold_into(&mut self, registry: &ObsRegistry) {
        registry.fold(&mut self.hists, &mut self.bytes);
    }
}

/// What everything on a reactor's request path shares.
#[derive(Clone)]
struct ReactorShared {
    /// The node every request executes against.
    node: Arc<ShardedNode>,
    /// Shared histogram/event registry (the `ObsDump` store).
    obs: ObsRegistry,
    /// Wire-visible shutdown flag (set by the `Shutdown` op and `stop()`).
    shutdown: Arc<AtomicBool>,
    /// `stop()`-only flag: drain pending writes and exit now.
    halt: Arc<AtomicBool>,
    /// Every reactor's waker, so the one that executes a wire `Shutdown`
    /// can tell the others.
    wakers: Arc<Wakers>,
}

/// The acceptor's handle to the reactor fleet: round-robin handoff of
/// admitted connections, waking the target reactor.
pub(crate) struct Handoff {
    senders: Vec<mpsc::Sender<(TcpStream, ConnSlot)>>,
    wakers: Arc<Wakers>,
    next: usize,
}

impl Handoff {
    /// Assign one admitted connection to the next reactor in rotation.
    pub fn dispatch(&mut self, stream: TcpStream, slot: ConnSlot) {
        let i = self.next;
        self.next = (self.next + 1) % self.senders.len();
        // A send can only fail if the reactor already exited (post-
        // shutdown race); dropping the stream then reads as EOF to the
        // client, matching the old accept loop's post-shutdown behavior.
        if self.senders[i].send((stream, slot)).is_ok() {
            self.wakers.wake(i);
        }
    }
}

/// The server's handle: join the fleet on `stop()`.
pub(crate) struct ReactorPool {
    wakers: Arc<Wakers>,
    handles: Vec<JoinHandle<()>>,
}

impl ReactorPool {
    /// Wake every reactor (so blocked threads notice `halt`) and join.
    pub fn join(&mut self) {
        self.wakers.wake_all();
        for h in self.handles.drain(..) {
            drop(h.join());
        }
    }
}

/// Spawn `n` reactor threads serving `node`; returns the acceptor-side
/// handoff and the join handle set.
pub(crate) fn spawn_reactors(
    n: usize,
    port: u16,
    node: Arc<ShardedNode>,
    obs: ObsRegistry,
    shutdown: Arc<AtomicBool>,
    halt: Arc<AtomicBool>,
) -> io::Result<(Handoff, ReactorPool)> {
    let mut wake_rxs = Vec::with_capacity(n);
    let mut wake_txs = Vec::with_capacity(n);
    for _ in 0..n {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        wake_rxs.push(rx);
        wake_txs.push(tx);
    }
    let shared = ReactorShared {
        node,
        obs,
        shutdown,
        halt,
        wakers: Arc::new(Wakers(wake_txs)),
    };
    let mut senders = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for (i, wake_rx) in wake_rxs.into_iter().enumerate() {
        // A list channel: it allocates per message, not a slot array up
        // front — the hand-off carries a few sockets over a node's life.
        let (tx, rx) = mpsc::channel::<(TcpStream, ConnSlot)>();
        let shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name(format!("ecc-reactor-{port}-{i}"))
            .spawn(move || reactor_loop(rx, wake_rx, shared))?;
        senders.push(tx);
        handles.push(handle);
    }
    Ok((
        Handoff {
            senders,
            wakers: Arc::clone(&shared.wakers),
            next: 0,
        },
        ReactorPool {
            wakers: shared.wakers,
            handles,
        },
    ))
}

/// One reactor thread: adopt handed-off connections, sweep owned
/// connections (read → decode/execute every arrived frame → one flush),
/// yield through the hot window while sweeps move nothing, then block in
/// `poll` until a socket or the waker is ready.
fn reactor_loop(
    rx: mpsc::Receiver<(TcpStream, ConnSlot)>,
    mut waker: UnixStream,
    shared: ReactorShared,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut obs = SweepObs::new();
    let mut idle_sweeps: u32 = 0;
    // This reactor's share of `mem_bytes:conn_buf`, as last reported.
    let mut conn_buf_bytes: u64 = 0;
    // When the blocking wait returned, until the sweep that follows it
    // reads a byte (the `reactor_wake_us` sample) or ends without one.
    let mut woke_at: Option<u64> = None;
    loop {
        let mut progress = false;
        while let Ok((stream, slot)) = rx.try_recv() {
            if stream.set_nonblocking(true).is_ok() {
                conns.push(Conn::new(stream, slot));
            }
            progress = true;
        }

        let mut i = 0;
        while i < conns.len() {
            match sweep_conn(&mut conns[i], &shared, &mut obs, &mut woke_at) {
                Ok(Sweep::Progress(p)) => {
                    progress |= p;
                    i += 1;
                }
                Ok(Sweep::Close) | Err(_) => {
                    // Closing is progress: the freed slot readmits a
                    // waiting client at the accept bound.
                    progress = true;
                    drop(conns.swap_remove(i));
                }
            }
        }
        woke_at = None;

        // Acquire pairs with the Release stores of the flags' writers.
        if shared.halt.load(Ordering::Acquire) {
            for conn in &mut conns {
                drop(conn.flush());
            }
            obs.fold_into(&shared.obs);
            return;
        }
        if shared.shutdown.load(Ordering::Acquire) && conns.is_empty() {
            // Wire-initiated shutdown: exit once the served connections
            // drain (the acceptor stops admitting; `stop()` may never be
            // called, so the reactor must wind down on its own).
            obs.fold_into(&shared.obs);
            return;
        }

        if progress {
            idle_sweeps = 0;
            continue;
        }
        idle_sweeps = idle_sweeps.saturating_add(1);
        if idle_sweeps < HOT_SWEEPS {
            // Hot window: give peers the core (essential on small hosts
            // where client and reactor share it) but stay runnable.
            std::thread::yield_now();
            continue;
        }

        // Cold: block until an owned socket can move bytes or someone
        // writes the waker. Both are level-triggered, so an event between
        // the sweep above and this call is not lost — the wait returns at
        // once. The sweep that follows resets `idle_sweeps` only if it
        // moves something; a wake that finds nothing waits again. An idle
        // node's registry is complete: what the last sweeps measured after
        // their own fold goes in first. Grown buffers shrink here, cold.
        obs.fold_into(&shared.obs);
        let mut held = 0;
        for conn in &mut conns {
            conn.asm.release();
            if conn.wbuf.is_empty() {
                release_buf(&mut conn.wbuf);
            }
            held += (conn.asm.capacity() + conn.wbuf.capacity()) as u64;
        }
        if held != conn_buf_bytes {
            shared
                .obs
                .shift_gauge("mem_bytes:conn_buf", conn_buf_bytes, held);
            conn_buf_bytes = held;
        }
        pollfds.clear();
        pollfds.push(PollFd::new(waker.as_raw_fd(), POLLIN));
        pollfds.extend(
            conns
                .iter()
                .map(|c| PollFd::new(c.stream.as_raw_fd(), c.interest())),
        );
        let waited = sys::wait(&mut pollfds, -1); // xtask: allow(no-blocking-io-in-reactor) — the one blocking call
        if waited.is_err() {
            // `poll` itself failed (ENOMEM): keep serving by sweeping.
            std::thread::yield_now();
            continue;
        }
        shared.obs.add_gauge("reactor_idle_wakes", 1);
        woke_at = Some(shared.obs.now_us());
        if pollfds[0].revents() != 0 {
            drain_waker(&mut waker);
        }
    }
}

/// Empty the waker so the next wait blocks again. A byte written after
/// the last read here keeps the descriptor readable, so no wake is lost.
fn drain_waker(waker: &mut UnixStream) {
    let mut buf = [0u8; 64];
    // A short read emptied it; `WouldBlock` ends the drain as well.
    while matches!(waker.read(&mut buf), Ok(n) if n == buf.len()) {}
}

/// Execute one decoded frame into `out`, opening the server-side span
/// triplet when the frame carried a sampled trace context: `srv`
/// (back-dated to the sweep wakeup `t_wake`, parented under the client's
/// wire span), a `srv_queue` child covering wakeup → execute (per-frame
/// arrival is not individually timestamped, so queueing is attributed from
/// the sweep wakeup), and `srv_exec` around `handle()` — whose own
/// descendants (`lock_wait` in the sharded node) attach through the
/// thread-local span stack. `srv` closes when the response is queued; the
/// flush that follows is charged to the client's network share.
fn serve_traced(
    ctx: Option<TraceContext>,
    req: Request,
    shared: &ReactorShared,
    t_wake: u64,
    out: &mut Vec<u8>,
) {
    let srv = ctx.filter(|c| c.sampled).map(|c| {
        let srv = shared
            .obs
            .span_start_at("srv", c.trace_id, c.span_id, t_wake);
        drop(
            shared
                .obs
                .span_start_at("srv_queue", c.trace_id, srv.id(), t_wake),
        );
        srv
    });
    let _exec = srv
        .as_ref()
        .map(|s| shared.obs.span_start("srv_exec", s.trace_id(), s.id()));
    handle(req, &shared.node, &shared.shutdown, &shared.obs, out);
}

/// Per-sweep verdict for one connection.
enum Sweep {
    /// Keep the connection; `true` if any bytes or frames moved.
    Progress(bool),
    /// Close the connection (clean EOF or explicit shutdown).
    Close,
}

/// One sweep over one connection: ingest whatever the socket has, retire
/// every complete frame against the node, flush the response queue.
/// `obs` is the reactor's own batch. `woke_at` is when the blocking wait
/// returned, if this sweep follows one and no connection has read a byte
/// since.
fn sweep_conn(
    conn: &mut Conn,
    shared: &ReactorShared,
    obs: &mut SweepObs,
    woke_at: &mut Option<u64>,
) -> io::Result<Sweep> {
    let mut progress = false;

    // Read until the socket runs dry.
    if conn.wants_read() {
        loop {
            match conn.asm.fill_from_hinted(&mut conn.stream) {
                Ok((0, _)) => {
                    conn.got_eof = true;
                    break;
                }
                Ok((_, drained)) => {
                    progress = true;
                    if let Some(t) = woke_at.take() {
                        obs.record(WAKE_US, shared.obs.now_us() - t);
                    }
                    // A short read means the socket ran dry: skip the
                    // would-block probe (level polling catches any bytes
                    // that arrive after this instant on the next sweep).
                    if drained {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
    }

    // Decode and execute every frame that fully arrived. `t_wake` to
    // flush-complete is the `reactor_dispatch_us` sample; the clock is not
    // read for a sweep with nothing buffered, which dispatches nothing.
    let t_wake = if conn.asm.buffered() > 0 {
        shared.obs.now_us()
    } else {
        0
    };
    // Where the next frame's `server_op_us` sample starts: the clock is
    // read once per frame, when its response is queued.
    let mut frame_start = t_wake;
    let mut dispatched: u64 = 0;
    let mut shutdown_requested = false;
    let mut framing_error: Option<io::Error> = None;
    let Conn { asm, wbuf, .. } = conn;
    loop {
        let frame = match asm.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            // Framing lost (oversized length prefix): fall through to a
            // best-effort flush of responses already owed, then drop the
            // connection — exactly what the blocking server's
            // per-connection error exit did.
            Err(e) => {
                framing_error = Some(e);
                break;
            }
        };
        obs.bytes[RX].1 += frame.len() as u64;
        let queued = wbuf.len();
        let mut slot = 0;
        append_frame(wbuf, |out| match decode_with_trace(frame) {
            Some((ctx, req)) => {
                slot = req.op() as usize;
                match req {
                    Request::Shutdown => shutdown_requested = true,
                    // The dump must hold every frame served before it,
                    // the ones of this very sweep included.
                    Request::ObsDump => obs.fold_into(&shared.obs),
                    _ => {}
                }
                serve_traced(ctx, req, shared, t_wake, out);
            }
            None => reply(out, Status::BadRequest, &[]),
        })?;
        // Request boundary: every `handle()` must return with all
        // ShardedNode guards released — a guard surviving into the next
        // pipelined frame would block every connection on that stripe.
        // Debug-build check, compiled out in release.
        ecc_core::lockorder::assert_quiescent();
        obs.bytes[TX].1 += (wbuf.len() - queued - 4) as u64;
        let now = shared.obs.now_us();
        obs.record(slot, now - frame_start);
        frame_start = now;
        dispatched += 1;
        if shutdown_requested {
            break;
        }
    }
    if shutdown_requested {
        conn.close_after_flush = true;
        // The flag this frame set is what idle sibling reactors exit on,
        // and none of them has a socket that will tell them.
        shared.wakers.wake_all();
    }
    if dispatched > 0 {
        progress = true;
        obs.record(FRAMES_PER_WAKE, dispatched);
        // Before the write: whoever reads these replies finds them counted.
        obs.fold_into(&shared.obs);
    }

    // One gathered write for every response this sweep produced (plus any
    // residue a previous partial write left behind).
    progress |= conn.flush()?;
    if let Some(e) = framing_error {
        return Err(e);
    }

    if dispatched > 0 && conn.pending_write() == 0 {
        obs.record(DISPATCH_US, shared.obs.now_us() - t_wake);
    }

    if conn.pending_write() == 0 && conn.close_after_flush {
        return Ok(Sweep::Close);
    }
    if conn.got_eof && conn.pending_write() == 0 {
        // Peer closed and everything decodable has been served and
        // flushed: the decode loop above retired every complete frame, so
        // whatever is still buffered is a partial frame whose rest will
        // never arrive, and is discarded.
        return Ok(Sweep::Close);
    }
    Ok(Sweep::Progress(progress))
}
