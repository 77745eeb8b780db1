//! The length-prefixed binary wire protocol.
//!
//! Every message is `[u32 len][payload]` with `len = payload.len()`. A
//! request payload starts with a one-byte opcode; a response payload starts
//! with a one-byte status. Integers are little-endian.

use std::io::{self, Read, Write};

use bytes::{Buf, BufMut, Bytes, BytesMut};
pub use ecc_obs::TraceContext;

/// Maximum accepted frame size (guards against corrupt length prefixes).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Look up one key.
    Get = 0x01,
    /// Store one record.
    Put = 0x02,
    // 0x03 (a single-key remove; `EvictMany` covers deletion), 0x04 (a
    // destructive range read), 0x07 (`Ping`; `Stats` answers as well), 0x08
    // (`Shutdown`; the party that allocated a node stops it) and 0x09
    // (`RangeStats`, a range's bytes and records; the coordinator's ledger
    // knows them) are retired. Never reuse them: a peer that still sends one
    // must get `BadRequest`.
    /// List keys in an inclusive range (the coordinator's audit and
    /// re-sync).
    Keys = 0x05,
    /// Report `used_bytes`, `record_count`, `capacity_bytes`.
    Stats = 0x06,
    /// Store a batch of records in one frame; per-item status response.
    PutMany = 0x0A,
    /// Look up a batch of keys in one frame; per-item value response.
    GetMany = 0x0B,
    /// Remove a batch of keys in one frame (the coordinator's batched
    /// slice-expiry eviction); per-item status response.
    EvictMany = 0x0C,
    /// Dump the node's observability snapshot (flight-recorder events +
    /// latency histograms) as a versioned `ecc-obs` wire blob.
    ObsDump = 0x0D,
}

impl Op {
    /// Stable lowercase name (histogram labels, trace pretty-printing).
    pub fn name(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::Put => "put",
            Op::Keys => "keys",
            Op::Stats => "stats",
            Op::PutMany => "put_many",
            Op::GetMany => "get_many",
            Op::EvictMany => "evict_many",
            Op::ObsDump => "obs_dump",
        }
    }

    /// Parse an opcode byte.
    pub fn from_u8(b: u8) -> Option<Op> {
        Some(match b {
            0x01 => Op::Get,
            0x02 => Op::Put,
            0x05 => Op::Keys,
            0x06 => Op::Stats,
            0x0A => Op::PutMany,
            0x0B => Op::GetMany,
            0x0C => Op::EvictMany,
            0x0D => Op::ObsDump,
            _ => return None,
        })
    }
}

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success (body depends on the request).
    Ok = 0x00,
    /// Key not present.
    NotFound = 0x01,
    /// PUT refused: the record would overflow this node (the coordinator
    /// reacts with a GBA split).
    Overflow = 0x02,
    /// Malformed request.
    BadRequest = 0x03,
    /// Connection refused: the server is at its concurrent-connection
    /// limit. Sent once as the only frame on the refused connection,
    /// before any request is read, then the connection is closed.
    Busy = 0x04,
}

impl Status {
    /// Parse a status byte.
    pub fn from_u8(b: u8) -> Option<Status> {
        Some(match b {
            0x00 => Status::Ok,
            0x01 => Status::NotFound,
            0x02 => Status::Overflow,
            0x03 => Status::BadRequest,
            0x04 => Status::Busy,
            _ => return None,
        })
    }
}

/// A parsed request. A decoded request borrows from the bytes it was
/// decoded from — on the server, the connection's read buffer: `Put` and
/// `PutMany` values are slices of it, so the one copy of a stored payload
/// is the one into its slab slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request<'a> {
    /// Look up `key`.
    Get {
        /// Key to look up.
        key: u64,
    },
    /// Store `value` under `key`.
    Put {
        /// Key to store under.
        key: u64,
        /// Payload bytes.
        value: &'a [u8],
    },
    /// List keys in `[lo, hi]`.
    Keys {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// Node statistics.
    Stats,
    /// Store a batch of records. The response is `Ok` with one status byte
    /// per item (`Ok` / `Overflow`): a refused item never fails the batch.
    PutMany {
        /// `(key, value)` pairs, applied in order.
        items: Vec<(u64, &'a [u8])>,
    },
    /// Look up a batch of keys. The response is `Ok` with one
    /// present/absent entry per key, in request order.
    GetMany {
        /// Keys to look up.
        keys: Vec<u64>,
    },
    /// Remove a batch of keys. The response is `Ok` with one status byte
    /// per key (`Ok` = removed, `NotFound` = absent).
    EvictMany {
        /// Keys to remove.
        keys: Vec<u64>,
    },
    /// Dump the node's observability snapshot. The response is `Ok` with a
    /// versioned `ecc_obs::wire` blob (see `OBS_DUMP_VERSION`); the body is
    /// dynamic — histogram contents depend on traffic since startup.
    ObsDump,
}

impl<'a> Request<'a> {
    /// The opcode this request encodes as.
    pub fn op(&self) -> Op {
        match self {
            Request::Get { .. } => Op::Get,
            Request::Put { .. } => Op::Put,
            Request::Keys { .. } => Op::Keys,
            Request::Stats => Op::Stats,
            Request::PutMany { .. } => Op::PutMany,
            Request::GetMany { .. } => Op::GetMany,
            Request::EvictMany { .. } => Op::EvictMany,
            Request::ObsDump => Op::ObsDump,
        }
    }

    /// Serialize to a frame payload (opcode + body).
    pub fn encode(&self) -> Bytes {
        let mut b = Vec::new();
        self.encode_into(&mut b);
        Bytes::from(b)
    }

    /// Append the frame payload to a caller-owned buffer — the allocation-
    /// free path used by the per-connection write buffers.
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        match self {
            Request::Get { key } => {
                b.put_u8(Op::Get as u8);
                b.put_u64_le(*key);
            }
            Request::Put { key, value } => {
                b.put_u8(Op::Put as u8);
                b.put_u64_le(*key);
                b.put_slice(value);
            }
            Request::Keys { lo, hi } => {
                b.put_u8(Op::Keys as u8);
                b.put_u64_le(*lo);
                b.put_u64_le(*hi);
            }
            Request::Stats => b.put_u8(Op::Stats as u8),
            Request::ObsDump => b.put_u8(Op::ObsDump as u8),
            Request::PutMany { items } => {
                b.put_u8(Op::PutMany as u8);
                b.put_u32_le(items.len() as u32);
                for (k, v) in items {
                    b.put_u64_le(*k);
                    b.put_u32_le(v.len() as u32);
                    b.put_slice(v);
                }
            }
            Request::GetMany { keys } => {
                b.put_u8(Op::GetMany as u8);
                b.put_u32_le(keys.len() as u32);
                for k in keys {
                    b.put_u64_le(*k);
                }
            }
            Request::EvictMany { keys } => {
                b.put_u8(Op::EvictMany as u8);
                b.put_u32_le(keys.len() as u32);
                for k in keys {
                    b.put_u64_le(*k);
                }
            }
        }
    }

    /// Parse a frame payload. `Put` and `PutMany` values are slices of
    /// `payload`, not copies: the server decodes straight out of its reused
    /// per-connection read buffer.
    pub fn decode(mut payload: &'a [u8]) -> Option<Request<'a>> {
        if !payload.has_remaining() {
            return None;
        }
        let op = Op::from_u8(payload.get_u8())?;
        Some(match op {
            Op::Get => {
                if payload.remaining() != 8 {
                    return None;
                }
                Request::Get {
                    key: payload.get_u64_le(),
                }
            }
            Op::Put => {
                if payload.remaining() < 8 {
                    return None;
                }
                Request::Put {
                    key: payload.get_u64_le(),
                    value: payload,
                }
            }
            Op::Keys => {
                if payload.remaining() != 16 {
                    return None;
                }
                Request::Keys {
                    lo: payload.get_u64_le(),
                    hi: payload.get_u64_le(),
                }
            }
            Op::Stats => Request::Stats,
            Op::ObsDump => {
                if payload.has_remaining() {
                    return None;
                }
                Request::ObsDump
            }
            Op::PutMany => {
                if payload.remaining() < 4 {
                    return None;
                }
                let count = payload.get_u32_le() as usize;
                // A corrupt length prefix cannot demand more items than the
                // remaining bytes could possibly hold (12 B per item floor),
                // so a hostile count never drives a huge allocation.
                if count > payload.remaining() / 12 {
                    return None;
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    if payload.remaining() < 12 {
                        return None;
                    }
                    let key = payload.get_u64_le();
                    let len = payload.get_u32_le() as usize;
                    let (value, rest) = payload.split_at_checked(len)?;
                    items.push((key, value));
                    payload = rest;
                }
                if payload.has_remaining() {
                    return None;
                }
                Request::PutMany { items }
            }
            Op::GetMany => Request::GetMany {
                keys: decode_key_batch(&mut payload)?,
            },
            Op::EvictMany => Request::EvictMany {
                keys: decode_key_batch(&mut payload)?,
            },
        })
    }
}

/// Frame-extension marker for trace-context propagation. Deliberately NOT
/// an [`Op`]: a traced frame is `[0x0E][ver u8][ext_len u8][ext bytes]`
/// followed by an ordinary request payload, so the 12 pinned opcodes keep
/// their exact byte layouts and a traceless peer's frames are untouched.
/// An old server that does not know `0x0E` rejects the frame as
/// `BadRequest` — interop only requires that *traceless* clients keep
/// working against tracing servers, which they do unchanged.
pub const TRACE_EXT_OPCODE: u8 = 0x0E;

/// Current trace-extension version. v1 carries
/// `[flags u8][trace_id u64][span_id u64][parent_span_id u64]` (25 bytes,
/// little-endian; flags bit 0 = sampled). A decoder skips the extension of
/// any *newer* version via `ext_len` and still parses the inner request,
/// so adding fields later is a non-breaking change.
pub const TRACE_EXT_VERSION: u8 = 1;

/// Byte length of the v1 trace extension body.
const TRACE_EXT_V1_LEN: u8 = 25;

/// Append a traced frame payload: the `0x0E` extension header carrying
/// `ctx`, then the ordinary encoding of `req`.
pub fn encode_traced_into(ctx: &TraceContext, req: &Request, b: &mut Vec<u8>) {
    b.put_u8(TRACE_EXT_OPCODE);
    b.put_u8(TRACE_EXT_VERSION);
    b.put_u8(TRACE_EXT_V1_LEN);
    b.put_u8(u8::from(ctx.sampled));
    b.put_u64_le(ctx.trace_id);
    b.put_u64_le(ctx.span_id);
    b.put_u64_le(ctx.parent_span_id);
    req.encode_into(b);
}

/// Encode a traced frame payload into an owned buffer.
pub fn encode_traced(ctx: &TraceContext, req: &Request) -> Bytes {
    let mut b = Vec::new();
    encode_traced_into(ctx, req, &mut b);
    Bytes::from(b)
}

/// Parse a frame payload that may carry a leading trace extension.
///
/// * Plain frames (first byte is a pinned opcode) decode exactly as
///   [`Request::decode`] and return no context.
/// * A v1 `0x0E` frame yields `(Some(ctx), request)`.
/// * A `0x0E` frame with a *newer* version has its extension skipped via
///   `ext_len`; the inner request still decodes (context is dropped, the
///   request is served — forward compatibility).
/// * Malformed extensions (truncated header, wrong v1 length, version 0)
///   are `None`, like any other malformed payload.
pub fn decode_with_trace(mut payload: &[u8]) -> Option<(Option<TraceContext>, Request<'_>)> {
    if !payload.has_remaining() || payload.chunk()[0] != TRACE_EXT_OPCODE {
        return Request::decode(payload).map(|req| (None, req));
    }
    payload.advance(1);
    if payload.remaining() < 2 {
        return None;
    }
    let version = payload.get_u8();
    let ext_len = payload.get_u8() as usize;
    if version == 0 || payload.remaining() < ext_len {
        return None;
    }
    if version > TRACE_EXT_VERSION {
        payload.advance(ext_len);
        return Request::decode(payload).map(|req| (None, req));
    }
    if ext_len != TRACE_EXT_V1_LEN as usize {
        return None;
    }
    let flags = payload.get_u8();
    let ctx = TraceContext {
        trace_id: payload.get_u64_le(),
        span_id: payload.get_u64_le(),
        parent_span_id: payload.get_u64_le(),
        sampled: flags & 1 != 0,
    };
    Request::decode(payload).map(|req| (Some(ctx), req))
}

/// Parse a `u32 count` + `count × u64` key batch, rejecting length
/// prefixes that disagree with the actual payload size.
fn decode_key_batch<B: Buf>(payload: &mut B) -> Option<Vec<u64>> {
    if payload.remaining() < 4 {
        return None;
    }
    let count = payload.get_u32_le() as usize;
    if payload.remaining() != count.checked_mul(8)? {
        return None;
    }
    Some((0..count).map(|_| payload.get_u64_le()).collect())
}

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: Status,
    /// Status-specific body.
    pub body: Bytes,
}

impl Response {
    /// A bare-status response.
    pub fn status(status: Status) -> Self {
        Self {
            status,
            body: Bytes::new(),
        }
    }

    /// An `Ok` response with a body.
    pub fn ok(body: Bytes) -> Self {
        Self {
            status: Status::Ok,
            body,
        }
    }

    /// Serialize to a frame payload.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(1 + self.body.len());
        b.put_u8(self.status as u8);
        b.put_slice(&self.body);
        b.freeze()
    }

    /// Append the frame payload to a caller-owned buffer — the allocation-
    /// free path used by the per-connection write buffers.
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        b.put_u8(self.status as u8);
        b.put_slice(&self.body);
    }

    /// Parse a frame payload.
    pub fn decode(mut payload: Bytes) -> Option<Response> {
        if payload.is_empty() {
            return None;
        }
        let status = Status::from_u8(payload.get_u8())?;
        Some(Response {
            status,
            body: payload,
        })
    }
}

/// Encode a key list (keys response body).
pub fn encode_keys(keys: &[u64]) -> Bytes {
    let mut b = BytesMut::with_capacity(4 + keys.len() * 8);
    b.put_u32_le(keys.len() as u32);
    for k in keys {
        b.put_u64_le(*k);
    }
    b.freeze()
}

/// Decode a key list.
pub fn decode_keys<B: Buf>(mut body: B) -> Option<Vec<u64>> {
    decode_key_batch(&mut body)
}

/// Encode node statistics.
pub fn encode_stats(used: u64, count: u64, capacity: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(24);
    b.put_u64_le(used);
    b.put_u64_le(count);
    b.put_u64_le(capacity);
    b.freeze()
}

/// Decode node statistics as `(used, count, capacity)`.
pub fn decode_stats<B: Buf>(mut body: B) -> Option<(u64, u64, u64)> {
    if body.remaining() != 24 {
        return None;
    }
    Some((body.get_u64_le(), body.get_u64_le(), body.get_u64_le()))
}

/// Encode a per-item status list (the `PutMany`/`EvictMany` response
/// body): `u32` count, then one status byte per item in request order.
pub fn encode_statuses(statuses: &[Status]) -> Bytes {
    let mut b = BytesMut::with_capacity(4 + statuses.len());
    b.put_u32_le(statuses.len() as u32);
    for s in statuses {
        b.put_u8(*s as u8);
    }
    b.freeze()
}

/// Decode a per-item status list.
pub fn decode_statuses<B: Buf>(mut body: B) -> Option<Vec<Status>> {
    if body.remaining() < 4 {
        return None;
    }
    let count = body.get_u32_le() as usize;
    if body.remaining() != count {
        return None;
    }
    (0..count).map(|_| Status::from_u8(body.get_u8())).collect()
}

/// Encode a `GetMany` response body: `u32` count, then per entry a
/// status byte (`Ok` = present, `NotFound` = absent) followed — only
/// when present — by `u32 len` and the value bytes.
pub fn encode_get_many<T: AsRef<[u8]>>(entries: &[Option<T>]) -> Bytes {
    let mut b = BytesMut::new();
    b.put_u32_le(entries.len() as u32);
    for e in entries {
        encode_get_many_entry(&mut b, e.as_ref().map(AsRef::as_ref));
    }
    b.freeze()
}

/// Append one `GetMany` response entry (see [`encode_get_many`]). The
/// server writes each entry straight into the connection's write queue
/// with this, under the key's stripe guard.
pub fn encode_get_many_entry<B: BufMut>(b: &mut B, value: Option<&[u8]>) {
    match value {
        Some(v) => {
            b.put_u8(Status::Ok as u8);
            b.put_u32_le(v.len() as u32);
            b.put_slice(v);
        }
        None => b.put_u8(Status::NotFound as u8),
    }
}

/// Decode a `GetMany` response body; entries are in request order. Each
/// value is one `Vec`, copied once out of the (contiguous) body.
pub fn decode_get_many(mut body: &[u8]) -> Option<Vec<Option<Vec<u8>>>> {
    if body.remaining() < 4 {
        return None;
    }
    let count = body.get_u32_le() as usize;
    // Each entry consumes at least its status byte.
    if count > body.remaining() {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if !body.has_remaining() {
            return None;
        }
        match Status::from_u8(body.get_u8())? {
            Status::Ok => {
                if body.remaining() < 4 {
                    return None;
                }
                let len = body.get_u32_le() as usize;
                let (value, rest) = body.split_at_checked(len)?;
                out.push(Some(value.to_vec()));
                body = rest;
            }
            Status::NotFound => out.push(None),
            _ => return None,
        }
    }
    if body.has_remaining() {
        return None;
    }
    Some(out)
}

/// Write one `[u32 len][payload]` frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one `[u32 len][payload]` frame with two blocking `read_exact`s.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Bytes> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(Bytes::from(buf))
}

/// Incremental frame extraction from a byte stream that arrives in
/// arbitrary chunks — the nonblocking counterpart of [`read_frame`].
///
/// The reactor and the client both read whatever the socket has
/// (`fill_from`) and then pop every complete `[u32 len][payload]` frame
/// (`next_frame`); a frame split across reads simply stays buffered until
/// its tail arrives. The internal buffer is reused across frames: steady
/// state performs no allocations, and consumed bytes are reclaimed by
/// shifting only when the dead prefix dominates the buffer.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// Backing storage; `buf[start..filled]` is unconsumed stream data.
    /// The vec's full length is initialized capacity, shrunk only by
    /// `release`, so refilling zeroes memory only when the buffer grows.
    buf: Vec<u8>,
    filled: usize,
    start: usize,
}

/// What a connection buffer keeps across frames: a large frame (a
/// migration batch, an `ObsDump`) gives the rest back once it is done;
/// below this nothing is shrunk, so steady state does not allocate.
pub(crate) const KEPT_BUF_BYTES: usize = 64 * 1024;

/// Cut `buf`'s allocation back to [`KEPT_BUF_BYTES`] if it grew past it.
/// The caller is done with the bytes beyond that length.
pub(crate) fn release_buf(buf: &mut Vec<u8>) {
    if buf.capacity() > KEPT_BUF_BYTES {
        buf.truncate(KEPT_BUF_BYTES);
        buf.shrink_to(KEPT_BUF_BYTES);
    }
}

/// Minimum spare room guaranteed to [`FrameAssembler::fill_from`]'s read
/// call, so short reads near the end of the buffer don't degenerate into
/// byte-sized syscalls.
const MIN_READ_SPARE: usize = 16 * 1024;

impl FrameAssembler {
    /// An empty assembler (no allocation until the first fill).
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Unconsumed bytes currently buffered (complete or partial frames).
    pub fn buffered(&self) -> usize {
        self.filled - self.start
    }

    /// Bytes the buffer holds allocated.
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// One `read` into the spare tail of the buffer. Returns the byte
    /// count (`Ok(0)` = EOF); on a nonblocking source, "nothing to read"
    /// surfaces as the source's `WouldBlock` error, with the buffer
    /// unchanged. Never blocks beyond the underlying `read`.
    pub fn fill_from<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        self.fill_from_hinted(r).map(|(n, _)| n)
    }

    /// [`FrameAssembler::fill_from`] plus a drained hint: the second field
    /// is `true` when the read came up short of its window, meaning the
    /// socket had nothing more buffered at that instant. A readiness loop
    /// can then skip the terminal `WouldBlock` probe — one syscall per
    /// sweep — because level polling re-discovers any bytes that land
    /// later. A full-window read returns `false`: more may be pending.
    pub fn fill_from_hinted<R: Read>(&mut self, r: &mut R) -> io::Result<(usize, bool)> {
        self.compact();
        if self.buf.len() - self.filled < MIN_READ_SPARE {
            let grown = (self.buf.len() * 2).max(self.filled + MIN_READ_SPARE);
            self.buf.resize(grown, 0);
        }
        let window = self.buf.len() - self.filled;
        let n = r.read(&mut self.buf[self.filled..])?;
        self.filled += n;
        Ok((n, n < window))
    }

    /// Whether a complete frame is buffered, without consuming it — the
    /// blocking-caller probe ("do I need another read?"). Shares
    /// [`FrameAssembler::next_frame`]'s oversized-prefix error.
    pub fn has_frame(&self) -> io::Result<bool> {
        let pending = &self.buf[self.start..self.filled];
        if pending.len() < 4 {
            return Ok(false);
        }
        let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]);
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds limit"),
            ));
        }
        Ok(pending.len() >= 4 + len as usize)
    }

    /// Pop the next complete frame's payload, if one has fully arrived.
    /// A length prefix exceeding [`MAX_FRAME`] is an `InvalidData` error
    /// (the stream is unrecoverable — framing is lost).
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        let pending = &self.buf[self.start..self.filled];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]);
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds limit"),
            ));
        }
        let end = 4 + len as usize;
        if pending.len() < end {
            return Ok(None);
        }
        let at = self.start;
        self.start += end;
        Ok(Some(&self.buf[at + 4..at + end]))
    }

    /// Give back what a large frame grew: once every buffered byte is
    /// consumed, cut the buffer to [`KEPT_BUF_BYTES`]. A no-op while a
    /// frame is still partial, or when the buffer never grew that far.
    pub(crate) fn release(&mut self) {
        if self.buffered() == 0 {
            self.start = 0;
            self.filled = 0;
            release_buf(&mut self.buf);
        }
    }

    /// Reclaim the consumed prefix: free when everything was consumed,
    /// otherwise a single `copy_within` once the dead prefix outweighs the
    /// live tail (amortized O(1) per byte).
    fn compact(&mut self) {
        if self.start == self.filled {
            self.start = 0;
            self.filled = 0;
        } else if self.start > self.buf.len() / 2 {
            self.buf.copy_within(self.start..self.filled, 0);
            self.filled -= self.start;
            self.start = 0;
        }
    }
}

/// Append one `[u32 len][payload]` frame to a caller-owned buffer without
/// clearing it — the batching, allocation-free counterpart of
/// [`write_frame`], used by the reactor's per-connection write queue and
/// the client ([`crate::client::PipelinedConn`]) to coalesce frames into
/// one socket write. `fill` appends the payload after a 4-byte
/// placeholder that is back-filled with the measured length.
pub fn append_frame(buf: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let at = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    fill(buf);
    let len = (buf.len() - at - 4) as u32;
    if len > MAX_FRAME {
        buf.truncate(at);
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit"),
        ));
    }
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let cases = vec![
            Request::Get { key: 7 },
            Request::Put {
                key: 9,
                value: b"hello",
            },
            Request::Keys { lo: 0, hi: 0 },
            Request::Stats,
            Request::ObsDump,
        ];
        for req in cases {
            let enc = req.encode();
            assert_eq!(Request::decode(&enc), Some(req));
        }
    }

    fn sample_ctx() -> TraceContext {
        TraceContext {
            trace_id: 0xDEAD_BEEF,
            span_id: (3u64 << 40) | 17,
            parent_span_id: 3u64 << 40,
            sampled: true,
        }
    }

    #[test]
    fn traced_frames_roundtrip() {
        let reqs = vec![
            Request::Get { key: 7 },
            Request::Put {
                key: 9,
                value: b"hello",
            },
            Request::GetMany { keys: vec![1, 2] },
            Request::Stats,
        ];
        for req in reqs {
            let enc = encode_traced(&sample_ctx(), &req);
            let (ctx, back) = decode_with_trace(&enc).unwrap();
            assert_eq!(ctx, Some(sample_ctx()));
            assert_eq!(back, req);
        }
    }

    #[test]
    fn unsampled_flag_survives_the_wire() {
        let ctx = TraceContext {
            sampled: false,
            ..sample_ctx()
        };
        let enc = encode_traced(&ctx, &Request::Stats);
        let (back, _) = decode_with_trace(&enc).unwrap();
        assert!(!back.unwrap().sampled);
    }

    #[test]
    fn plain_frames_decode_without_context() {
        let req = Request::Keys { lo: 3, hi: 99 };
        let enc = req.encode();
        let (ctx, back) = decode_with_trace(&enc).unwrap();
        assert_eq!(ctx, None);
        assert_eq!(back, req);
    }

    #[test]
    fn future_extension_versions_are_skipped_not_rejected() {
        // A v2 peer with a 30-byte extension this build has never seen:
        // the extension is skipped and the inner request still serves.
        let mut b = Vec::new();
        b.put_u8(TRACE_EXT_OPCODE);
        b.put_u8(2);
        b.put_u8(30);
        b.extend_from_slice(&[0xAB; 30]);
        Request::Get { key: 42 }.encode_into(&mut b);
        let (ctx, req) = decode_with_trace(&b).unwrap();
        assert_eq!(ctx, None);
        assert_eq!(req, Request::Get { key: 42 });
    }

    #[test]
    fn malformed_trace_extensions_are_rejected() {
        // Truncated header.
        assert!(decode_with_trace(&[0x0E]).is_none());
        assert!(decode_with_trace(&[0x0E, 1]).is_none());
        // Version 0 is invalid.
        assert!(decode_with_trace(&[0x0E, 0, 0, 0x06]).is_none());
        // v1 with the wrong ext_len.
        let mut b = vec![0x0E, 1, 3, 0, 0, 0];
        b.push(Op::Stats as u8);
        assert!(decode_with_trace(&b).is_none());
        // ext_len longer than the remaining payload.
        assert!(decode_with_trace(&[0x0E, 1, 200, 1, 2]).is_none());
        // Well-formed extension but malformed inner request (GET with a
        // truncated key).
        let mut b = Vec::new();
        encode_traced_into(&sample_ctx(), &Request::Get { key: 7 }, &mut b);
        b.pop();
        assert!(decode_with_trace(&b).is_none());
    }

    #[test]
    fn responses_roundtrip() {
        for status in [
            Status::Ok,
            Status::NotFound,
            Status::Overflow,
            Status::BadRequest,
            Status::Busy,
        ] {
            let resp = Response {
                status,
                body: Bytes::from_static(b"xyz"),
            };
            assert_eq!(Response::decode(resp.encode()), Some(resp));
        }
    }

    #[test]
    fn malformed_frames_rejected() {
        assert_eq!(Request::decode(&[]), None);
        assert_eq!(Request::decode(&[0xFF]), None);
        // The retired Sweep opcode, with its old 16-byte range body.
        let mut sweep = vec![0x04];
        sweep.extend_from_slice(&[0; 16]);
        assert_eq!(Op::from_u8(0x04), None);
        assert_eq!(Request::decode(&sweep), None);
        // The retired single-key Remove opcode, with its old key body.
        assert_eq!(Op::from_u8(0x03), None);
        assert_eq!(Request::decode(&[0x03, 0, 0, 0, 0, 0, 0, 0, 0]), None);
        // The retired RangeStats opcode, with its old 16-byte range body.
        let mut range = vec![0x09];
        range.extend_from_slice(&[0; 16]);
        assert_eq!(Op::from_u8(0x09), None);
        assert_eq!(Request::decode(&range), None);
        // The retired Ping and Shutdown opcodes, which had no body.
        for op in [0x07, 0x08] {
            assert_eq!(Op::from_u8(op), None);
            assert_eq!(Request::decode(&[op]), None);
        }
        // GET with a short key.
        assert_eq!(Request::decode(&[0x01, 1, 2]), None);
        assert_eq!(Response::decode(Bytes::new()), None);
        assert_eq!(Response::decode(Bytes::from_static(&[9])), None);
    }

    #[test]
    fn key_lists_roundtrip() {
        let keys = vec![1u64, 5, 9, u64::MAX];
        assert_eq!(decode_keys(encode_keys(&keys)), Some(keys));
        assert_eq!(decode_keys(encode_keys(&[])), Some(vec![]));
        assert_eq!(decode_keys(Bytes::from_static(&[1, 0, 0, 0])), None);
    }

    #[test]
    fn stats_roundtrip() {
        assert_eq!(decode_stats(encode_stats(10, 2, 100)), Some((10, 2, 100)));
        assert_eq!(decode_stats(Bytes::from_static(&[0; 23])), None);
    }

    #[test]
    fn batch_requests_roundtrip() {
        let cases = vec![
            Request::PutMany {
                items: vec![(1, &b"a"[..]), (2, &[][..]), (u64::MAX, &b"abcdef"[..])],
            },
            Request::PutMany { items: vec![] },
            Request::GetMany {
                keys: vec![3, 1, 4, 1, 5],
            },
            Request::GetMany { keys: vec![] },
            Request::EvictMany {
                keys: vec![9, u64::MAX],
            },
        ];
        for req in cases {
            let enc = req.encode();
            assert_eq!(Request::decode(&enc), Some(req));
        }
    }

    #[test]
    fn malformed_batches_rejected() {
        // Truncated PutMany: count says 2 but only one item follows.
        let one = Request::PutMany {
            items: vec![(7, &b"xy"[..])],
        }
        .encode();
        let mut forged = one.to_vec();
        forged[1..5].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(Request::decode(&forged), None);

        // Hostile count prefix far larger than the payload could hold:
        // must reject before allocating.
        let mut huge = vec![Op::PutMany as u8];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::decode(&huge), None);
        huge[0] = Op::GetMany as u8;
        assert_eq!(Request::decode(&huge), None);
        huge[0] = Op::EvictMany as u8;
        assert_eq!(Request::decode(&huge), None);

        // Trailing garbage after a well-formed batch.
        let mut trailing = Request::EvictMany { keys: vec![1] }.encode().to_vec();
        trailing.push(0);
        assert_eq!(Request::decode(&trailing), None);

        // Item length prefix overruns the payload.
        let mut overrun = vec![Op::PutMany as u8];
        overrun.extend_from_slice(&1u32.to_le_bytes());
        overrun.extend_from_slice(&5u64.to_le_bytes());
        overrun.extend_from_slice(&100u32.to_le_bytes());
        overrun.extend_from_slice(b"short");
        assert_eq!(Request::decode(&overrun), None);
    }

    #[test]
    fn status_lists_roundtrip() {
        let statuses = vec![Status::Ok, Status::Overflow, Status::NotFound];
        assert_eq!(decode_statuses(encode_statuses(&statuses)), Some(statuses));
        assert_eq!(decode_statuses(encode_statuses(&[])), Some(vec![]));
        // Count prefix disagrees with the body length.
        assert_eq!(decode_statuses(Bytes::from_static(&[2, 0, 0, 0, 0])), None);
        // Unknown status byte.
        assert_eq!(
            decode_statuses(Bytes::from_static(&[1, 0, 0, 0, 0xEE])),
            None
        );
    }

    #[test]
    fn get_many_bodies_roundtrip() {
        let entries = vec![Some(vec![1u8, 2, 3]), None, Some(vec![]), None];
        let enc = encode_get_many(&entries);
        assert_eq!(decode_get_many(&enc), Some(entries));
        assert_eq!(
            decode_get_many(&encode_get_many::<Vec<u8>>(&[])),
            Some(vec![])
        );
        // Truncated mid-value.
        assert_eq!(decode_get_many(&enc[..enc.len() - 1]), None);
        // Hostile count prefix.
        assert_eq!(decode_get_many(&[0xFF, 0xFF, 0xFF, 0xFF]), None);
    }

    #[test]
    fn frames_roundtrip_over_a_pipe() {
        let payload = b"some payload bytes";
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), &payload[..]);
    }

    #[test]
    fn assembler_reassembles_frames_split_at_every_byte_boundary() {
        // Two frames back to back, delivered in two chunks split at every
        // possible position: the assembler must yield exactly the two
        // payloads regardless of where the split lands.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first payload").unwrap();
        write_frame(&mut wire, b"2nd").unwrap();
        for split in 0..=wire.len() {
            let mut asm = FrameAssembler::new();
            let mut got: Vec<Vec<u8>> = Vec::new();
            for chunk in [&wire[..split], &wire[split..]] {
                let mut cursor = std::io::Cursor::new(chunk);
                while asm.fill_from(&mut cursor).unwrap() > 0 {}
                while let Some(frame) = asm.next_frame().unwrap() {
                    got.push(frame.to_vec());
                }
            }
            assert_eq!(got, vec![b"first payload".to_vec(), b"2nd".to_vec()]);
            assert_eq!(asm.buffered(), 0);
        }
    }

    #[test]
    fn assembler_handles_empty_frames_and_bursts() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[]).unwrap();
        for i in 0..10u8 {
            write_frame(&mut wire, &[i; 3]).unwrap();
        }
        let mut asm = FrameAssembler::new();
        let mut cursor = std::io::Cursor::new(&wire);
        while asm.fill_from(&mut cursor).unwrap() > 0 {}
        let mut got = Vec::new();
        while let Some(frame) = asm.next_frame().unwrap() {
            got.push(frame.to_vec());
        }
        assert_eq!(got.len(), 11);
        assert_eq!(got[0], Vec::<u8>::new());
        assert_eq!(got[10], vec![9u8; 3]);
    }

    #[test]
    fn a_drained_one_mib_frame_gives_its_buffer_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &vec![7u8; 1 << 20]).unwrap();
        write_frame(&mut wire, b"after").unwrap();
        let (mut asm, cut) = (FrameAssembler::new(), wire.len() - 3);
        let mut cursor = std::io::Cursor::new(&wire[..cut]);
        while asm.fill_from(&mut cursor).unwrap() > 0 {}
        assert_eq!(asm.next_frame().unwrap().map(<[u8]>::len), Some(1 << 20));
        // A partial frame keeps its bytes.
        asm.release();
        assert!(asm.capacity() > 1 << 20);
        asm.fill_from(&mut std::io::Cursor::new(&wire[cut..]))
            .unwrap();
        assert_eq!(asm.next_frame().unwrap(), Some(&b"after"[..]));
        asm.release();
        assert!(asm.capacity() <= KEPT_BUF_BYTES);
    }

    #[test]
    fn assembler_rejects_oversized_length_prefix() {
        let mut asm = FrameAssembler::new();
        let bad = (MAX_FRAME + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(&bad[..]);
        asm.fill_from(&mut cursor).unwrap();
        assert!(asm.next_frame().is_err());
    }

    #[test]
    fn append_frame_batches_without_clearing() {
        let mut buf = Vec::new();
        append_frame(&mut buf, |b| b.extend_from_slice(b"one")).unwrap();
        append_frame(&mut buf, |b| b.extend_from_slice(b"two2")).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), &b"one"[..]);
        assert_eq!(read_frame(&mut cursor).unwrap(), &b"two2"[..]);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }
}
