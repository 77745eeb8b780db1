//! Event-driven reactor pool: a fixed set of reactor threads serving every
//! cache node of the process (DESIGN §15).
//!
//! * **Joining.** A node is a [`NodeCtx`] plus a nonblocking `TcpListener`
//!   handed to one reactor, its *home*; no thread is created for it. The
//!   listener sits in the home's `poll` set, where `POLLIN` means a
//!   connection waits. The home accepts (also every [`HOT_SWEEPS`] loop
//!   turns while it never blocks), enforces the node's connection bound
//!   (one [`Status::Busy`] frame past it) and hands each admitted
//!   connection round-robin to the pool's reactors, starting with itself.
//! * **Connection ownership.** A connection lives on exactly one reactor
//!   for its whole life and carries its node's context, so its state
//!   (assembler, write queue) is plain mutable data — no locks, no work
//!   stealing.
//! * **The sweep.** Each turn a reactor reads every owned connection
//!   nonblocking into its reused [`FrameAssembler`], executes every
//!   complete frame back-to-back against the connection's node, and
//!   flushes the responses with a *single* gathered `write`. A connection
//!   holding more than [`WRITE_HIGH_WATER`] unflushed bytes is not read
//!   until its peer drains (backpressure).
//! * **Idle discipline.** A turn that moved nothing is followed by
//!   `yield_now`, up to [`HOT_SWEEPS`] times; then the reactor blocks in
//!   `sys::wait` with no timeout on its waker, its listeners and every
//!   owned socket (`POLLIN` while `Conn::wants_read`, `POLLOUT` while
//!   responses are unflushed), so an idle pool costs no CPU.
//! * **Commands.** What a reactor hears from other threads — a listener, a
//!   sibling's hand-off, a deregistration, a private pool's halt — arrives
//!   as a [`Command`] on its channel, followed by one byte on its waker (a
//!   nonblocking `UnixStream` pair whose read end is in the `poll` set).
//! * **Leaving.** [`ReactorPool::deregister`] is a handshake in two
//!   rounds: the home drops the node's listener and connections, then
//!   every other reactor does, each acknowledging by dropping a channel
//!   sender. After the first round no connection of the node can be handed
//!   off; every hand-off already sent is queued ahead of the second. So
//!   when it returns, no reactor holds a socket of the node or the node.
//!
//! Unix only: `poll` and the waker pair are the platform's.
//!
//! Batched reads: a sweep collects consecutive unsampled `Get` frames, up
//! to [`GET_BATCH`], and serves them with one
//! [`ShardedNode::get_many_with`] — the structural lock, each stripe's
//! read lock and the clock once per run instead of once per frame, so the
//! cache misses of the run's lookups overlap. Their replies are appended
//! in request order. Any other frame, a sampled `Get` included, first
//! serves the run before it, then is served alone as before.
//!
//! Observability: nothing shared is touched per frame. A reactor keeps one
//! `SweepObs` per node it serves — `server_op_us:<op>` (one clock read per
//! frame or run of GETs, when its responses are queued; a run's span is
//! shared equally among its frames), `reactor_frames_per_wake`,
//! `reactor_dispatch_us` (first clock read → responses flushed),
//! `reactor_wake_us` (blocking wait returned → first byte read, charged to
//! the node whose connection read it) and `frame_bytes_rx`/`_tx` — and
//! folds it into that node's [`ObsRegistry`] once per connection-sweep that
//! dispatched frames, before the gathered write and before an `ObsDump`
//! executes, so a client that has read a reply never fetches a dump that
//! lacks it. Before it blocks, a reactor folds what is left, cuts drained
//! buffers back to `KEPT_BUF_BYTES` and reports each node's share of
//! `mem_bytes:conn_buf`. `reactor_idle_wakes` counts returns from the
//! blocking wait: each one once in every node with a listener or a
//! connection on that reactor.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use ecc_core::{ShardedNode, GET_BATCH};
use ecc_obs::{LogHistogram, ObsRegistry, TimeSource};

use crate::protocol::{
    append_frame, decode_with_trace, release_buf, FrameAssembler, Op, Request, Status, TraceContext,
};
use crate::server::{get_reply, handle, op_hist_name, reply};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};

/// Default reactor-thread count: one per core up to 4. Cache serving is
/// memory-bound long before 4 reactors saturate; more threads on few cores
/// just reintroduces the context-switch tax this module removes.
pub const DEFAULT_REACTOR_THREADS: usize = 4;

/// Pending-response bytes above which a connection's read side is parked
/// until the peer drains (slow-consumer backpressure).
const WRITE_HIGH_WATER: usize = 4 * 1024 * 1024;

/// Unproductive sweeps a reactor tolerates before it blocks in `poll`
/// (below this it only yields, keeping closed-loop RTT tight); also how
/// many loop turns a reactor that never blocks goes between accepts.
const HOT_SWEEPS: u32 = 64;

/// The process pool's reactor count: [`DEFAULT_REACTOR_THREADS`] capped by
/// available parallelism.
pub(crate) fn effective_reactors() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .clamp(1, DEFAULT_REACTOR_THREADS)
}

/// One node the pool serves: what its server handle and every reactor
/// holding one of its sockets share.
pub(crate) struct NodeCtx {
    /// The node every request of its connections executes against.
    pub(crate) node: ShardedNode,
    /// The node's histogram/event registry (the `ObsDump` store).
    pub(crate) obs: ObsRegistry,
    /// The reactor that owns the listener and accepts.
    home: usize,
    /// Bound on admitted connections open at once.
    max_connections: u64,
    /// Admitted connections open now. Only the home reactor adds; the
    /// reactor that drops a connection subtracts.
    live: AtomicU64,
    /// Connections admitted so far.
    pub(crate) accepted: AtomicU64,
    /// Connections refused with a `Busy` frame.
    pub(crate) refused: AtomicU64,
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
    /// Its node, whose connection bound it holds a place under until it
    /// is dropped.
    node: Arc<NodeCtx>,
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.node.live.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether a sweep reads this socket: not after EOF, and not while the
    /// peer is a slow consumer with a full write queue (backpressure).
    fn wants_read(&self) -> bool {
        !self.got_eof && self.pending_write() < WRITE_HIGH_WATER
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

/// What a reactor hears from other threads, one byte on its waker after
/// each.
enum Command {
    /// Accept for the node on this listener.
    Listen(Arc<NodeCtx>, TcpListener),
    /// Own an admitted connection.
    Adopt(Conn),
    /// Drop the node's listener and connections. Dropping the sender, once
    /// they are gone, is the acknowledgement.
    Forget(Arc<NodeCtx>, mpsc::Sender<()>),
    /// Flush what is owed and exit (a private pool's stop).
    Halt,
}

/// A fixed set of reactor threads and, per reactor, its command channel
/// and the write end of its waker pair.
pub(crate) struct ReactorPool {
    inboxes: Vec<(mpsc::Sender<Command>, UnixStream)>,
    /// Round-robin cursor over the reactors for listener homes.
    next_home: AtomicUsize,
}

impl ReactorPool {
    /// Start `n` reactor threads named `{name}-{i}`; returns the pool and
    /// their join handles.
    pub(crate) fn start(
        n: usize,
        name: &str,
    ) -> io::Result<(Arc<ReactorPool>, Vec<JoinHandle<()>>)> {
        let mut inboxes = Vec::with_capacity(n);
        let mut ends = Vec::with_capacity(n);
        for _ in 0..n {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            // A list channel: it allocates per message, not a slot array
            // up front.
            let (commands, inbox) = mpsc::channel();
            inboxes.push((commands, tx));
            ends.push((inbox, rx));
        }
        let pool = Arc::new(ReactorPool {
            inboxes,
            next_home: AtomicUsize::new(0),
        });
        let mut threads = Vec::with_capacity(n);
        for (index, (inbox, waker)) in ends.into_iter().enumerate() {
            let reactor = Reactor {
                index,
                pool: Arc::clone(&pool),
                inbox,
                waker,
                clock: TimeSource::real(),
                served: Vec::new(),
                pollfds: Vec::new(),
            };
            let thread = std::thread::Builder::new()
                .name(format!("{name}-{index}"))
                .spawn(move || reactor.run())
                // The reactors already started exit on their own.
                .inspect_err(|_| pool.halt())?;
            threads.push(thread);
        }
        Ok((pool, threads))
    }

    /// Queue `command` for reactor `i` and wake it. A send fails only if
    /// that reactor has exited; the command is dropped then, which drops
    /// what it carries (a connection closes, an acknowledgement is given).
    fn send(&self, i: usize, command: Command) {
        let (commands, waker) = &self.inboxes[i];
        if commands.send(command).is_ok() {
            // Nonblocking: `WouldBlock` means unread wake bytes already
            // fill the socket buffer, so the reactor is as good as woken.
            drop((&*waker).write(&[1]));
        }
    }

    /// Serve `node` on the nonblocking `listener`, accepting on the next
    /// reactor in rotation.
    pub(crate) fn register(
        &self,
        node: ShardedNode,
        obs: ObsRegistry,
        max_connections: u64,
        listener: TcpListener,
    ) -> Arc<NodeCtx> {
        let home = self.next_home.fetch_add(1, Ordering::Relaxed) % self.inboxes.len();
        let node = Arc::new(NodeCtx {
            node,
            obs,
            home,
            max_connections: max_connections.max(1),
            live: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
        });
        self.send(home, Command::Listen(Arc::clone(&node), listener));
        node
    }

    /// Take the node out of the pool; returns once no reactor holds its
    /// listener, a connection of it or a reference to it. Never call it
    /// on a reactor thread.
    pub(crate) fn deregister(&self, node: &Arc<NodeCtx>) {
        let round = |reactors: &mut dyn Iterator<Item = usize>| {
            let (ack, acked) = mpsc::channel();
            for i in reactors {
                self.send(i, Command::Forget(Arc::clone(node), ack.clone()));
            }
            drop(ack);
            // Ends once every reactor has dropped its sender.
            while acked.recv().is_ok() {} // xtask: allow(no-blocking-io-in-reactor) — runs on the stopping thread, never on a reactor
        };
        round(&mut std::iter::once(node.home));
        round(&mut (0..self.inboxes.len()).filter(|&i| i != node.home));
    }

    /// Tell every reactor to flush what it owes and exit.
    pub(crate) fn halt(&self) {
        for i in 0..self.inboxes.len() {
            self.send(i, Command::Halt);
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

/// What one reactor measured for one node since it last folded into the
/// node's registry: plain thread-local data, so recording a sample is an
/// array index and a few adds.
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

    /// Record `frames` samples in `slot` that share `span`: an equal share
    /// each and the remainder on the last, so they add up to `span`.
    fn record_shared(&mut self, slot: usize, span: u64, frames: u64) {
        let share = span / frames.max(1);
        for _ in 1..frames {
            self.record(slot, share);
        }
        self.record(slot, span - share * frames.saturating_sub(1));
    }

    fn fold_into(&mut self, registry: &ObsRegistry) {
        registry.fold(&mut self.hists, &mut self.bytes);
    }
}

/// One node as one reactor sees it: the sockets of the node this reactor
/// owns, and what it measured for the node.
struct Served {
    node: Arc<NodeCtx>,
    /// Set on the node's home until the node leaves.
    listener: Option<TcpListener>,
    /// The listener was reported readable, or was just handed over.
    accept_due: bool,
    /// The reactor the next admitted connection goes to.
    next: usize,
    conns: Vec<Conn>,
    obs: SweepObs,
    /// This reactor's share of the node's `mem_bytes:conn_buf`, as last
    /// reported.
    conn_buf_bytes: u64,
}

impl Served {
    fn new(node: &Arc<NodeCtx>, first_reactor: usize) -> Served {
        Served {
            node: Arc::clone(node),
            listener: None,
            accept_due: false,
            next: first_reactor,
            conns: Vec::new(),
            obs: SweepObs::new(),
            conn_buf_bytes: 0,
        }
    }

    /// Flush what is owed, best effort, and leave the node's registry
    /// complete: what was measured is folded, and this reactor's share of
    /// `mem_bytes:conn_buf` goes with the connections.
    fn close(mut self) {
        for conn in &mut self.conns {
            drop(conn.flush());
        }
        self.obs.fold_into(&self.node.obs);
        let obs = &self.node.obs;
        obs.shift_gauge("mem_bytes:conn_buf", self.conn_buf_bytes, 0);
    }
}

/// One reactor thread's state.
struct Reactor {
    index: usize,
    pool: Arc<ReactorPool>,
    inbox: mpsc::Receiver<Command>,
    /// Read end of the waker pair.
    waker: UnixStream,
    /// Times `reactor_wake_us`: a wake is not any one node's.
    clock: TimeSource,
    /// The nodes with a listener or a connection here.
    served: Vec<Served>,
    pollfds: Vec<PollFd>,
}

impl Reactor {
    /// The reactor loop: take commands, accept, sweep owned connections
    /// (read → decode/execute every arrived frame → one flush), yield
    /// through the hot window while sweeps move nothing, then block in
    /// `poll` until a socket, a listener or the waker is ready.
    fn run(mut self) {
        let mut idle_sweeps: u32 = 0;
        let mut turns_since_accept: u32 = 0;
        // When the blocking wait returned, until the sweep that follows it
        // reads a byte (the `reactor_wake_us` sample) or ends without one.
        let mut woke_at: Option<u64> = None;
        loop {
            let Some(mut progress) = self.take_commands() else {
                return;
            };
            turns_since_accept += 1;
            let accept_all = turns_since_accept >= HOT_SWEEPS;
            if accept_all {
                turns_since_accept = 0;
            }
            for s in 0..self.served.len() {
                if accept_all || self.served[s].accept_due {
                    progress |= self.accept(s);
                }
                progress |= self.sweep(s, &mut woke_at);
            }
            woke_at = None;

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

            // Cold: block until an owned socket can move bytes, a listener
            // has a connection waiting, or a command arrived. All are
            // level-triggered, so an event between the sweep above and this
            // call is not lost — the wait returns at once. The sweep that
            // follows resets `idle_sweeps` only if it moves something; a
            // wake that finds nothing waits again.
            self.cool_down();
            self.pollfds.clear();
            self.pollfds
                .push(PollFd::new(self.waker.as_raw_fd(), POLLIN));
            for s in &self.served {
                if let Some(listener) = &s.listener {
                    self.pollfds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
                }
                let conns = s.conns.iter();
                self.pollfds
                    .extend(conns.map(|c| PollFd::new(c.stream.as_raw_fd(), c.interest())));
            }
            let waited = sys::wait(&mut self.pollfds, -1); // xtask: allow(no-blocking-io-in-reactor) — the one blocking call
            if waited.is_err() {
                // `poll` itself failed (ENOMEM): keep serving by sweeping.
                std::thread::yield_now();
                continue;
            }
            woke_at = Some(self.clock.now_us());
            let mut fd = 1;
            for s in &mut self.served {
                s.node.obs.add_gauge("reactor_idle_wakes", 1);
                if s.listener.is_some() {
                    s.accept_due = self.pollfds[fd].revents() != 0;
                    fd += 1;
                }
                fd += s.conns.len();
            }
            if self.pollfds[0].revents() != 0 {
                drain_waker(&mut self.waker);
            }
        }
    }

    /// The entry for `node`, made if this reactor serves it no socket yet.
    fn served_mut(&mut self, node: &Arc<NodeCtx>) -> &mut Served {
        let at = self.find(node).unwrap_or_else(|| {
            self.served.push(Served::new(node, self.index));
            self.served.len() - 1
        });
        &mut self.served[at]
    }

    fn find(&self, node: &Arc<NodeCtx>) -> Option<usize> {
        self.served.iter().position(|s| Arc::ptr_eq(&s.node, node))
    }

    /// Carry out every queued command. `None` once told to halt, after
    /// flushing what is owed; otherwise whether there was any.
    fn take_commands(&mut self) -> Option<bool> {
        let mut any = false;
        while let Ok(command) = self.inbox.try_recv() {
            any = true;
            match command {
                Command::Listen(node, listener) => {
                    let served = self.served_mut(&node);
                    served.listener = Some(listener);
                    // A client may have connected before the hand-over.
                    served.accept_due = true;
                }
                Command::Adopt(conn) => {
                    let node = Arc::clone(&conn.node);
                    self.served_mut(&node).conns.push(conn);
                }
                Command::Forget(node, ack) => {
                    if let Some(at) = self.find(&node) {
                        self.served.swap_remove(at).close();
                    }
                    drop(node);
                    drop(ack);
                }
                Command::Halt => {
                    for served in self.served.drain(..) {
                        served.close();
                    }
                    return None;
                }
            }
        }
        Some(any)
    }

    /// Accept every connection waiting on `served[s]`'s listener: admit it
    /// under the node's bound and hand it to the next reactor in rotation,
    /// or refuse it with one `Busy` frame. Returns whether any waited.
    fn accept(&mut self, s: usize) -> bool {
        let reactors = self.pool.inboxes.len();
        let served = &mut self.served[s];
        served.accept_due = false;
        let Some(listener) = &served.listener else {
            return false;
        };
        let mut progress = false;
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // `WouldBlock`: none left. Anything else (out of
                // descriptors) is retried on the next readiness.
                Err(_) => return progress,
            };
            progress = true;
            // Request/response framing interacts badly with Nagle + delayed
            // ACK (~40 ms per exchange); flush eagerly. An accepted socket
            // does not inherit the listener's nonblocking flag.
            drop(stream.set_nodelay(true));
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let node = &served.node;
            // Only this reactor adds to `live`, so the bound holds between
            // the check and the add.
            if node.live.load(Ordering::Acquire) >= node.max_connections {
                node.refused.fetch_add(1, Ordering::Relaxed);
                refuse(stream);
                continue;
            }
            node.live.fetch_add(1, Ordering::AcqRel);
            node.accepted.fetch_add(1, Ordering::Relaxed);
            let conn = Conn {
                stream,
                asm: FrameAssembler::new(),
                wbuf: Vec::new(),
                wpos: 0,
                got_eof: false,
                node: Arc::clone(node),
            };
            let to = served.next;
            served.next = (to + 1) % reactors;
            if to == self.index {
                served.conns.push(conn);
            } else {
                self.pool.send(to, Command::Adopt(conn));
            }
        }
    }

    /// Sweep every connection of `served[s]` once. Returns whether any
    /// bytes or frames moved, or a connection closed (the freed place
    /// readmits a waiting client at the accept bound).
    fn sweep(&mut self, s: usize, woke_at: &mut Option<u64>) -> bool {
        let clock = &self.clock;
        let Served {
            node, conns, obs, ..
        } = &mut self.served[s];
        let mut progress = false;
        let mut i = 0;
        while i < conns.len() {
            match sweep_conn(&mut conns[i], node, obs, woke_at, clock) {
                Ok(Sweep::Progress(p)) => {
                    progress |= p;
                    i += 1;
                }
                Ok(Sweep::Close) | Err(_) => {
                    progress = true;
                    drop(conns.swap_remove(i));
                }
            }
        }
        progress
    }

    /// Before the blocking wait: fold what every node's sweeps measured
    /// after their own fold, shrink grown buffers, report each node's
    /// `mem_bytes:conn_buf` share, and let go of the nodes this reactor no
    /// longer holds a socket of. An idle node's registry is complete.
    fn cool_down(&mut self) {
        for s in &mut self.served {
            s.obs.fold_into(&s.node.obs);
            let mut held = 0;
            for conn in &mut s.conns {
                conn.asm.release();
                if conn.wbuf.is_empty() {
                    release_buf(&mut conn.wbuf);
                }
                held += (conn.asm.capacity() + conn.wbuf.capacity()) as u64;
            }
            if held != s.conn_buf_bytes {
                s.node
                    .obs
                    .shift_gauge("mem_bytes:conn_buf", s.conn_buf_bytes, held);
                s.conn_buf_bytes = held;
            }
        }
        self.served
            .retain(|s| s.listener.is_some() || !s.conns.is_empty());
    }
}

/// Answer a connection past the bound with one `Busy` frame (a length-1
/// payload) and close it. A fresh socket's send buffer takes the five
/// bytes whole.
fn refuse(mut stream: TcpStream) {
    drop(stream.write(&[1, 0, 0, 0, Status::Busy as u8]));
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
    node: &NodeCtx,
    t_wake: u64,
    out: &mut Vec<u8>,
) {
    let obs = &node.obs;
    let srv = ctx.filter(|c| c.sampled).map(|c| {
        let srv = obs.span_start_at("srv", c.trace_id, c.span_id, t_wake);
        drop(obs.span_start_at("srv_queue", c.trace_id, srv.id(), t_wake));
        srv
    });
    let _exec = srv
        .as_ref()
        .map(|s| obs.span_start("srv_exec", s.trace_id(), s.id()));
    handle(req, &node.node, obs, out);
}

/// Serve a run of unsampled GETs (none: nothing to do) with one batch
/// read, appending their replies in request order, and share the run's
/// span, from `frame_start` to one clock read, equally among their
/// `server_op_us:get` samples.
fn serve_gets(
    keys: &[u64],
    node: &NodeCtx,
    wbuf: &mut Vec<u8>,
    obs: &mut SweepObs,
    frame_start: &mut u64,
) -> io::Result<()> {
    if keys.is_empty() {
        return Ok(());
    }
    let queued = wbuf.len();
    let mut framed = Ok(());
    node.node.get_many_with(keys, |rec| {
        if framed.is_ok() {
            framed = append_frame(wbuf, |out| get_reply(out, rec));
        }
    });
    framed?;
    // Request boundary: the batch's guards are all released.
    ecc_core::lockorder::assert_quiescent();
    obs.bytes[TX].1 += (wbuf.len() - queued - 4 * keys.len()) as u64;
    let now = node.obs.now_us();
    obs.record_shared(Op::Get as usize, now - *frame_start, keys.len() as u64);
    *frame_start = now;
    Ok(())
}

/// Per-sweep verdict for one connection.
enum Sweep {
    /// Keep the connection; `true` if any bytes or frames moved.
    Progress(bool),
    /// Close the connection (clean EOF).
    Close,
}

/// One sweep over one connection: ingest whatever the socket has, retire
/// every complete frame against the node, flush the response queue.
/// `obs` is the reactor's batch for this node. `woke_at` is when the
/// blocking wait returned, on `clock`, if this sweep follows one and no
/// connection has read a byte since.
fn sweep_conn(
    conn: &mut Conn,
    node: &NodeCtx,
    obs: &mut SweepObs,
    woke_at: &mut Option<u64>,
    clock: &TimeSource,
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
                        obs.record(WAKE_US, clock.now_us() - t);
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
        node.obs.now_us()
    } else {
        0
    };
    // Where the next frame's `server_op_us` sample starts: the clock is
    // read once per frame, or once per run of GETs, when its responses
    // are queued.
    let mut frame_start = t_wake;
    let mut dispatched: u64 = 0;
    let mut framing_error: Option<io::Error> = None;
    // The keys of the run of unsampled GETs not yet served.
    let mut run = [0u64; GET_BATCH];
    let mut in_run = 0;
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
        dispatched += 1;
        let decoded = decode_with_trace(frame);
        if let Some((ctx, Request::Get { key })) = &decoded {
            if !ctx.is_some_and(|c| c.sampled) {
                run[in_run] = *key;
                in_run += 1;
                if in_run == GET_BATCH {
                    let keys = &run[..std::mem::take(&mut in_run)];
                    serve_gets(keys, node, wbuf, obs, &mut frame_start)?;
                }
                continue;
            }
        }
        let keys = &run[..std::mem::take(&mut in_run)];
        serve_gets(keys, node, wbuf, obs, &mut frame_start)?;
        let queued = wbuf.len();
        let mut slot = 0;
        append_frame(wbuf, |out| match decoded {
            Some((ctx, req)) => {
                slot = req.op() as usize;
                // The dump must hold every frame served before it, the
                // ones of this very sweep included.
                if matches!(req, Request::ObsDump) {
                    obs.fold_into(&node.obs);
                }
                serve_traced(ctx, req, node, t_wake, out);
            }
            None => reply(out, Status::BadRequest, &[]),
        })?;
        // Request boundary: every `handle()` must return with all
        // ShardedNode guards released — a guard surviving into the next
        // pipelined frame would block every connection on that stripe.
        // Debug-build check, compiled out in release.
        ecc_core::lockorder::assert_quiescent();
        obs.bytes[TX].1 += (wbuf.len() - queued - 4) as u64;
        let now = node.obs.now_us();
        obs.record(slot, now - frame_start);
        frame_start = now;
    }
    let keys = &run[..in_run];
    serve_gets(keys, node, wbuf, obs, &mut frame_start)?;
    if dispatched > 0 {
        progress = true;
        obs.record(FRAMES_PER_WAKE, dispatched);
        // Before the write: whoever reads these replies finds them counted.
        obs.fold_into(&node.obs);
    }

    // One gathered write for every response this sweep produced (plus any
    // residue a previous partial write left behind).
    progress |= conn.flush()?;
    if let Some(e) = framing_error {
        return Err(e);
    }

    if dispatched > 0 && conn.pending_write() == 0 {
        obs.record(DISPATCH_US, node.obs.now_us() - t_wake);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_shared_span_is_split_into_samples_that_add_up_to_it() {
        let get = Op::Get as usize;
        // (span, frames) → (count, sum, min, max) of the samples.
        let split = |span, frames| {
            let mut obs = SweepObs::new();
            obs.record_shared(get, span, frames);
            let h = &obs.hists[get].1;
            (h.count(), h.sum(), h.min(), h.max())
        };
        // Equal shares, the remainder on the last frame.
        assert_eq!(split(7, 3), (3, 7, Some(2), Some(3)));
        assert_eq!(split(2, 5), (5, 2, Some(0), Some(2)));
        assert_eq!(split(9, 1), (1, 9, Some(9), Some(9)));
        assert_eq!(split(32, 32), (32, 32, Some(1), Some(1)));
    }
}
