//! Client handle to one remote cache node.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bytes::Bytes;
use ecc_obs::{ObsRegistry, SpanGuard};

use crate::protocol::{
    append_frame, decode_get_many, decode_keys, decode_stats, decode_statuses, encode_traced_into,
    FrameAssembler, Op, Request, Status, TraceContext,
};

/// Static span kind for a client-side wire exchange (`wire:<op>`), so the
/// traced path never allocates a label string.
pub(crate) fn wire_span_kind(op: Op) -> &'static str {
    match op {
        Op::Get => "wire:get",
        Op::Put => "wire:put",
        Op::Keys => "wire:keys",
        Op::Stats => "wire:stats",
        Op::PutMany => "wire:put_many",
        Op::GetMany => "wire:get_many",
        Op::EvictMany => "wire:evict_many",
        Op::ObsDump => "wire:obs_dump",
    }
}

/// A persistent connection to a cache server: a [`PipelinedConn`] used
/// at depth one, plus the typed calls.
///
/// Every call is one request and its reply over the connection's reused
/// write buffer and frame assembler, so steady-state calls perform no
/// per-frame allocations on the framing path.
///
/// With [`RemoteNode::with_obs`] attached, every call made while the
/// calling thread has a live span opens a `wire:<op>` span under it and
/// ships the request as a traced (`0x0E`) frame, so the server's `srv`
/// span becomes its child in the merged trace.
#[derive(Debug)]
pub struct RemoteNode {
    addr: SocketAddr,
    conn: PipelinedConn,
    obs: Option<ObsRegistry>,
}

fn bad_frame(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl RemoteNode {
    /// Connect to a server. Reads block with no bound until
    /// [`RemoteNode::set_read_timeout`] sets one.
    pub fn connect(addr: SocketAddr) -> io::Result<RemoteNode> {
        Ok(RemoteNode {
            addr,
            conn: PipelinedConn::over(TcpStream::connect(addr)?)?,
            obs: None,
        })
    }

    /// Attach the registry that records this connection's wire spans
    /// (typically the *caller's* registry — the coordinator's, not the
    /// server's — so the client half of the trace lands in the caller's
    /// recorder).
    #[must_use]
    pub fn with_obs(mut self, obs: ObsRegistry) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Bound how long any single response read may block (`None` removes
    /// the bound).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.conn.stream.set_read_timeout(timeout)
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One request/response exchange; the returned body borrows from the
    /// connection's read buffer. The wire span parents under the innermost
    /// live span on the calling thread — how a coordinator's calls attach
    /// to its elastic root spans.
    fn call(&mut self, req: &Request) -> io::Result<(Status, &[u8])> {
        let span = self.send(req, ecc_obs::current_span())?;
        let reply = self.recv();
        drop(span);
        reply
    }

    /// The send half of a call: write `req`. With a registry attached and
    /// a `(trace_id, parent_span_id)` scope, the request travels as a
    /// traced frame under a fresh `wire:<op>` span, returned so that the
    /// caller ends it once the reply is read: the span covers write →
    /// reply read, the minuend of the "network" share in critical-path
    /// breakdowns (wire − srv). The scope is explicit so that a fan-out can
    /// open one span per node under the same parent.
    pub(crate) fn send(
        &mut self,
        req: &Request,
        scope: Option<(u64, u64)>,
    ) -> io::Result<Option<SpanGuard>> {
        let span = match (&self.obs, scope) {
            (Some(obs), Some((trace_id, parent))) => {
                let span = obs.span_start(wire_span_kind(req.op()), trace_id, parent);
                let ctx = TraceContext {
                    trace_id,
                    span_id: span.id(),
                    parent_span_id: parent,
                    sampled: true,
                };
                self.conn.enqueue_traced(req, Some(&ctx))?;
                Some(span)
            }
            _ => {
                self.conn.enqueue(req)?;
                None
            }
        };
        self.conn.flush()?;
        Ok(span)
    }

    /// The receive half of a call: [`PipelinedConn::recv`].
    pub(crate) fn recv(&mut self) -> io::Result<(Status, &[u8])> {
        self.conn.recv()
    }

    /// Look up a key.
    pub fn get(&mut self, key: u64) -> io::Result<Option<Vec<u8>>> {
        let (status, body) = self.call(&Request::Get { key })?;
        Ok(match status {
            Status::Ok => Some(body.to_vec()),
            _ => None,
        })
    }

    /// Store a record; returns the server's verdict (`Ok` or `Overflow`).
    pub fn put(&mut self, key: u64, value: Vec<u8>) -> io::Result<Status> {
        let (status, _) = self.call(&Request::Put { key, value: &value })?;
        Ok(status)
    }

    /// Store a batch of records in one frame. Returns the server's
    /// per-item verdicts (`Ok` / `Overflow`) in request order; a refused
    /// item never fails the batch or the connection.
    pub fn put_many(&mut self, items: Vec<(u64, Bytes)>) -> io::Result<Vec<Status>> {
        let expected = items.len();
        let items = items.iter().map(|(k, v)| (*k, &v[..])).collect();
        let (status, body) = self.call(&Request::PutMany { items })?;
        put_many_reply(expected, status, body)
    }

    /// Look up a batch of keys in one frame; entries are in request order.
    pub fn get_many(&mut self, keys: &[u64]) -> io::Result<Vec<Option<Vec<u8>>>> {
        let (status, body) = self.call(&Request::GetMany {
            keys: keys.to_vec(),
        })?;
        if status != Status::Ok {
            return Err(bad_frame("get-many rejected"));
        }
        let entries = decode_get_many(body).ok_or_else(|| bad_frame("bad get-many body"))?;
        if entries.len() != keys.len() {
            return Err(bad_frame("get-many entry count mismatch"));
        }
        Ok(entries)
    }

    /// Remove a batch of keys in one frame; per-key verdicts (`Ok` =
    /// removed, `NotFound` = absent) in request order.
    pub fn evict_many(&mut self, keys: &[u64]) -> io::Result<Vec<Status>> {
        let (status, body) = self.call(&Request::EvictMany {
            keys: keys.to_vec(),
        })?;
        evict_many_reply(keys.len(), status, body)
    }

    /// List keys in `[lo, hi]`.
    pub fn keys(&mut self, lo: u64, hi: u64) -> io::Result<Vec<u64>> {
        let (status, body) = self.call(&Request::Keys { lo, hi })?;
        if status != Status::Ok {
            return Err(bad_frame("keys rejected"));
        }
        decode_keys(body).ok_or_else(|| bad_frame("bad keys body"))
    }

    /// `(used_bytes, record_count, capacity_bytes)`.
    pub fn stats(&mut self) -> io::Result<(u64, u64, u64)> {
        let (status, body) = self.call(&Request::Stats)?;
        stats_reply(status, body)
    }

    /// Fetch the node's observability snapshot (flight-recorder events +
    /// latency histograms).
    pub fn obs_dump(&mut self) -> io::Result<ecc_obs::ObsSnapshot> {
        let (status, body) = self.call(&Request::ObsDump)?;
        obs_dump_reply(status, body)
    }
}

/// Decode a `PutMany` reply to `count` items: per-item verdicts in
/// request order.
pub(crate) fn put_many_reply(count: usize, status: Status, body: &[u8]) -> io::Result<Vec<Status>> {
    if status != Status::Ok {
        return Err(bad_frame("put-many rejected"));
    }
    let statuses = decode_statuses(body).ok_or_else(|| bad_frame("bad put-many body"))?;
    if statuses.len() != count {
        return Err(bad_frame("put-many status count mismatch"));
    }
    Ok(statuses)
}

/// Decode an `EvictMany` reply to `count` keys: per-key verdicts in
/// request order. Free-standing, like the other `*_reply` decoders, so a
/// coordinator fan-out can decode a reply it read with
/// [`RemoteNode::recv`].
pub(crate) fn evict_many_reply(
    count: usize,
    status: Status,
    body: &[u8],
) -> io::Result<Vec<Status>> {
    if status != Status::Ok {
        return Err(bad_frame("evict-many rejected"));
    }
    let statuses = decode_statuses(body).ok_or_else(|| bad_frame("bad evict-many body"))?;
    if statuses.len() != count {
        return Err(bad_frame("evict-many status count mismatch"));
    }
    Ok(statuses)
}

/// Decode a `Stats` reply as `(used_bytes, record_count, capacity_bytes)`.
pub(crate) fn stats_reply(status: Status, body: &[u8]) -> io::Result<(u64, u64, u64)> {
    if status != Status::Ok {
        return Err(bad_frame("stats rejected"));
    }
    decode_stats(body).ok_or_else(|| bad_frame("bad stats body"))
}

/// Decode an `ObsDump` reply.
pub(crate) fn obs_dump_reply(status: Status, body: &[u8]) -> io::Result<ecc_obs::ObsSnapshot> {
    if status != Status::Ok {
        return Err(bad_frame("obs-dump rejected"));
    }
    ecc_obs::decode_dump(body).ok_or_else(|| bad_frame("bad obs-dump body"))
}

/// A pipelining connection: many requests in flight at once, and the one
/// client transport ([`RemoteNode`] is this at depth one).
///
/// A request/response client pays a full round trip plus a syscall each
/// way per call. `PipelinedConn` decouples the two halves:
/// [`enqueue`](PipelinedConn::enqueue) buffers encoded request frames,
/// [`flush`](PipelinedConn::flush) ships the whole batch in one write, and
/// [`recv`](PipelinedConn::recv) pops responses in request order, reading
/// the socket in bulk through a [`FrameAssembler`] (one `read` can deliver
/// a whole burst of responses). With depth D in flight, per-request
/// syscall cost approaches 2/D.
#[derive(Debug)]
pub struct PipelinedConn {
    stream: TcpStream,
    asm: FrameAssembler,
    wbuf: Vec<u8>,
    in_flight: usize,
    io: IoStats,
}

/// What a [`PipelinedConn`] has moved over its socket: syscalls, frames
/// and wire bytes (length prefixes included) each way, so frames-per-read
/// and bytes-per-syscall are counted, not inferred.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use]
pub struct IoStats {
    /// `read` calls that returned bytes.
    pub reads: u64,
    /// Non-empty [`PipelinedConn::flush`]es, each one `write_all` — one
    /// `write` call unless the socket buffer is full.
    pub writes: u64,
    /// Request frames written.
    pub frames_tx: u64,
    /// Response frames received.
    pub frames_rx: u64,
    /// Bytes written.
    pub bytes_tx: u64,
    /// Bytes read.
    pub bytes_rx: u64,
}

impl PipelinedConn {
    /// Connect, with `timeout` bounding the connect and every subsequent
    /// blocking read.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<PipelinedConn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        PipelinedConn::over(stream)
    }

    /// A connection over a connected `stream`, its reads as the caller
    /// left them.
    fn over(stream: TcpStream) -> io::Result<PipelinedConn> {
        stream.set_nodelay(true)?;
        Ok(PipelinedConn {
            stream,
            asm: FrameAssembler::new(),
            wbuf: Vec::new(),
            in_flight: 0,
            io: IoStats::default(),
        })
    }

    /// Socket traffic since the connection was made.
    pub fn io_stats(&self) -> IoStats {
        self.io
    }

    /// Requests enqueued or flushed whose responses have not been
    /// received yet.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Buffer one request frame; nothing hits the socket until
    /// [`flush`](PipelinedConn::flush).
    pub fn enqueue(&mut self, req: &Request) -> io::Result<()> {
        self.enqueue_traced(req, None)
    }

    /// [`enqueue`](PipelinedConn::enqueue), optionally wrapping the frame
    /// in a trace extension: the sampled-request path of the load
    /// generator, whose root `req` span's context rides to the server.
    pub fn enqueue_traced(&mut self, req: &Request, ctx: Option<&TraceContext>) -> io::Result<()> {
        match ctx {
            Some(ctx) => append_frame(&mut self.wbuf, |b| encode_traced_into(ctx, req, b))?,
            None => append_frame(&mut self.wbuf, |b| req.encode_into(b))?,
        }
        self.in_flight += 1;
        self.io.frames_tx += 1;
        Ok(())
    }

    /// Ship every buffered request in one write.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.io.writes += 1;
            self.io.bytes_tx += self.wbuf.len() as u64;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Receive the next response in request order: `(status, body)`, the
    /// body borrowing the connection's read buffer. Blocks (bounded by
    /// the read timeout, if one is set) until a full frame arrives; a
    /// `Busy` status maps to [`io::ErrorKind::ConnectionRefused`]. Flushes
    /// buffered requests first — a `recv` can never deadlock against its
    /// own unsent request.
    pub fn recv(&mut self) -> io::Result<(Status, &[u8])> {
        self.flush()?;
        while !self.asm.has_frame()? {
            let n = self.asm.fill_from(&mut self.stream)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.io.reads += 1;
            self.io.bytes_rx += n as u64;
        }
        let frame = match self.asm.next_frame()? {
            Some(f) => f,
            None => return Err(bad_frame("assembler lost a probed frame")),
        };
        let (&status_byte, body) = frame
            .split_first()
            .ok_or_else(|| bad_frame("empty response frame"))?;
        let status =
            Status::from_u8(status_byte).ok_or_else(|| bad_frame("bad response status"))?;
        if status == Status::Busy {
            // The server is at its connection bound; it sent this one
            // frame and closed. Surface it as a refusal, not a payload.
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "server at connection capacity",
            ));
        }
        self.in_flight = self.in_flight.saturating_sub(1);
        self.io.frames_rx += 1;
        Ok((status, body))
    }
}
