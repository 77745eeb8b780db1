//! Concurrent load generation against live cache servers.
//!
//! The paper's clients are independent users hammering the coordinator;
//! this module reproduces that pressure: `clients` threads each open their
//! own connection to every cache node and issue GET/PUT traffic placed by
//! a shared, read-only copy of the ring. Results stream back over a
//! channel and are folded into a latency/throughput report.
//!
//! Placement reads are lock-free (each worker owns a clone of the ring);
//! this measures the *data path* under concurrency. Structural changes
//! (splits/merges) remain the single coordinator's job, as in the paper.

#![expect(
    clippy::disallowed_methods,
    reason = "the load generator measures real elapsed time"
)]

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ecc_chash::HashRing;
use ecc_obs::{LogHistogram, ObsRegistry, SpanGuard};
use ecc_workload::driver::Op;

use crate::client::{PipelinedConn, RemoteNode};
use crate::protocol::{Request, Status, TraceContext};

/// Bound applied to each worker connection's connect *and* every
/// subsequent response read, so a node that wedges mid-run surfaces as a
/// counted error on that op instead of hanging the worker forever.
const NODE_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// One worker's accumulated results.
#[derive(Debug, Clone, Default)]
struct WorkerStats {
    ops: u64,
    hits: u64,
    misses: u64,
    errors: u64,
    hist: LogHistogram,
}

/// Aggregated load-test report.
#[derive(Debug, Clone)]
#[must_use]
pub struct LoadReport {
    /// Total operations completed.
    pub ops: u64,
    /// GETs that found a record.
    pub hits: u64,
    /// GETs that missed.
    pub misses: u64,
    /// I/O errors observed.
    pub errors: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Latency percentiles in microseconds: (p50, p95, p99).
    pub latency_us: (u64, u64, u64),
    /// Full client-side RTT histogram (merged across workers) — the
    /// mergeable counterpart of `latency_us`, foldable into a cluster
    /// `ObsSnapshot` under the name `client_rtt_us`.
    pub hist: LogHistogram,
    /// Per-worker RTT histograms, one per closed-loop worker in spawn
    /// order. `hist` is exactly their merge; keeping the parts lets a
    /// report expose per-worker tails (a straggling worker is invisible
    /// in the merged histogram).
    pub worker_hists: Vec<LogHistogram>,
    /// Pipelined runs only: RTT histograms bucketed by the number of
    /// requests in flight on the connection at enqueue time (index 0 =
    /// depth 1, i.e. the request went out alone). Their merge equals
    /// `hist`; the per-depth split shows how queueing behind earlier
    /// requests stretches the tail as depth grows. Empty for
    /// strictly-serial runs ([`run_load`] / [`run_scenario_load`]).
    pub depth_hists: Vec<LogHistogram>,
}

impl LoadReport {
    /// Operations per second.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Periodic progress readout handed to [`run_load_with_progress`]'s
/// callback: a snapshot of the run so far, safe to render as a one-line
/// live summary.
#[derive(Debug, Clone, Copy)]
pub struct LoadProgress {
    /// Operations completed so far.
    pub done: u64,
    /// Operations requested in total.
    pub total: u64,
    /// Time since the run started.
    pub elapsed: Duration,
}

/// Drive `total_ops` GET-then-PUT-on-miss operations from `clients`
/// concurrent workers against the nodes of `ring` (addresses resolved via
/// `addr_of`). Keys are drawn uniformly from `[0, key_space)` per worker
/// with a seeded LCG, `value_len` bytes per record.
pub fn run_load<N: Clone + Eq + Send + Sync>(
    ring: &HashRing<N>,
    addr_of: impl Fn(&N) -> SocketAddr + Sync,
    clients: usize,
    total_ops: u64,
    key_space: u64,
    value_len: usize,
) -> std::io::Result<LoadReport> {
    run_load_with_progress(
        ring, addr_of, clients, total_ops, key_space, value_len, None,
    )
}

/// [`run_load`], plus an optional `(interval, callback)` pair: a monitor
/// thread invokes the callback every `interval` with a [`LoadProgress`]
/// snapshot while the workers run. Diagnostics stay with the caller (a
/// binary can print a live one-liner; library code stays print-free).
#[allow(clippy::too_many_arguments)]
pub fn run_load_with_progress<N: Clone + Eq + Send + Sync>(
    ring: &HashRing<N>,
    addr_of: impl Fn(&N) -> SocketAddr + Sync,
    clients: usize,
    total_ops: u64,
    key_space: u64,
    value_len: usize,
    progress: Option<(Duration, &(dyn Fn(LoadProgress) + Sync))>,
) -> std::io::Result<LoadReport> {
    assert!(clients >= 1, "need at least one client");
    let per_worker = total_ops.div_ceil(clients as u64);
    let (tx, rx) = mpsc::sync_channel::<WorkerStats>(clients);
    let start = Instant::now();
    let done_ops = AtomicU64::new(0);
    let workers_done = AtomicU64::new(0);

    std::thread::scope(|scope| -> std::io::Result<()> {
        if let Some((interval, callback)) = progress {
            let done_ops = &done_ops;
            let workers_done = &workers_done;
            scope.spawn(move || {
                while workers_done.load(Ordering::Acquire) < clients as u64 {
                    std::thread::sleep(interval);
                    callback(LoadProgress {
                        done: done_ops.load(Ordering::Relaxed),
                        total: total_ops,
                        elapsed: start.elapsed(),
                    });
                }
            });
        }
        for w in 0..clients {
            let tx = tx.clone();
            let ring = ring.clone();
            let addr_of = &addr_of;
            let done_ops = &done_ops;
            let workers_done = &workers_done;
            scope.spawn(move || {
                let mut stats = WorkerStats::default();
                // Per-node connections, opened lazily.
                let mut conns: Vec<(SocketAddr, RemoteNode)> = Vec::new();
                let mut state = 0x9E3779B97F4A7C15u64 ^ (w as u64).wrapping_mul(0xA24BAED4963EE407);
                for _ in 0..per_worker {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = (state >> 33) % key_space;
                    let Some(node) = ring.node_for_key(key) else {
                        stats.errors += 1;
                        continue;
                    };
                    let addr = addr_of(node);
                    let conn = match conns.iter_mut().find(|(a, _)| *a == addr) {
                        Some((_, c)) => c,
                        None => match RemoteNode::connect_with_timeout(addr, NODE_IO_TIMEOUT) {
                            Ok(c) => {
                                conns.push((addr, c));
                                let Some((_, conn)) = conns.last_mut() else {
                                    stats.errors += 1;
                                    continue;
                                };
                                conn
                            }
                            Err(_) => {
                                stats.errors += 1;
                                continue;
                            }
                        },
                    };
                    let t0 = Instant::now();
                    match conn.get(key) {
                        Ok(Some(_)) => stats.hits += 1,
                        Ok(None) => {
                            stats.misses += 1;
                            if conn.put(key, vec![(key % 251) as u8; value_len]).is_err() {
                                stats.errors += 1;
                            }
                        }
                        Err(_) => stats.errors += 1,
                    }
                    stats.hist.record(t0.elapsed().as_micros() as u64);
                    stats.ops += 1;
                    done_ops.fetch_add(1, Ordering::Relaxed);
                }
                workers_done.fetch_add(1, Ordering::Release);
                let _ = tx.send(stats);
            });
        }
        Ok(())
    })?;
    drop(tx);

    let mut all = WorkerStats::default();
    let mut worker_hists = Vec::with_capacity(clients);
    while let Ok(s) = rx.recv() {
        all.ops += s.ops;
        all.hits += s.hits;
        all.misses += s.misses;
        all.errors += s.errors;
        all.hist.merge(&s.hist);
        worker_hists.push(s.hist);
    }
    Ok(LoadReport {
        ops: all.ops,
        hits: all.hits,
        misses: all.misses,
        errors: all.errors,
        elapsed: start.elapsed(),
        latency_us: (all.hist.p50(), all.hist.quantile(0.95), all.hist.p99()),
        hist: all.hist,
        worker_hists,
        depth_hists: Vec::new(),
    })
}

/// Client-side tracing configuration for a load run.
#[derive(Clone)]
pub struct TraceOpts {
    /// Registry receiving the root `req` spans. Give it a distinct origin
    /// and — when server spans will be merged in — the SAME clock epoch as
    /// the servers, or cross-recorder interval nesting is meaningless.
    pub obs: ObsRegistry,
    /// Sample 1 in `sample` requests as root spans (1 = every request).
    /// Sampled-out requests bump the registry's `spans_dropped` counter,
    /// so a trace dump always states how much it did NOT see.
    pub sample: u64,
}

impl TraceOpts {
    /// Start the root span for request number `issued` on one worker, or
    /// count it as sampled-out. The span's context (its own id doubling as
    /// the trace id) rides the wire; the guard retires — and records the
    /// span end — when the response does.
    fn sample_root(&self, issued: u64) -> Option<(SpanGuard, TraceContext)> {
        if !issued.is_multiple_of(self.sample.max(1)) {
            self.obs.note_span_dropped();
            return None;
        }
        let root = self.obs.span_root("req");
        let ctx = TraceContext {
            trace_id: root.trace_id(),
            span_id: root.id(),
            parent_span_id: 0,
            sampled: true,
        };
        Some((root, ctx))
    }
}

/// One request awaiting its response on a pipelined connection, in FIFO
/// (request) order.
struct Pending {
    key: u64,
    t0: Instant,
    /// In-flight count on the connection at enqueue time (1-based).
    depth: usize,
    is_get: bool,
    /// Root `req` span of a sampled request; dropping it on retirement
    /// stamps the span end at response time.
    span: Option<SpanGuard>,
}

/// Pop one response off a pipelined connection and fold it into `stats`.
///
/// Mirrors [`run_load`]'s GET-then-PUT-on-miss loop, except the repair
/// PUT is itself pipelined (enqueued behind whatever is already in
/// flight) and counted as its own operation with its own RTT sample —
/// under pipelining the two halves of a miss repair no longer form one
/// serial exchange.
fn drain_one(
    conn: &mut PipelinedConn,
    pending: &mut VecDeque<Pending>,
    stats: &mut WorkerStats,
    depth_hists: &mut [LogHistogram],
    value_len: usize,
) {
    let Some(p) = pending.pop_front() else { return };
    match conn.recv() {
        Ok((status, _)) => {
            if p.is_get {
                if status == Status::Ok {
                    stats.hits += 1;
                } else {
                    stats.misses += 1;
                    let depth = (conn.in_flight() + 1).min(depth_hists.len());
                    let value = vec![(p.key % 251) as u8; value_len];
                    match conn.enqueue(&Request::Put {
                        key: p.key,
                        value: &value,
                    }) {
                        Ok(()) => pending.push_back(Pending {
                            key: p.key,
                            t0: Instant::now(),
                            depth,
                            is_get: false,
                            span: None,
                        }),
                        Err(_) => stats.errors += 1,
                    }
                }
            }
        }
        Err(_) => stats.errors += 1,
    }
    let rtt = p.t0.elapsed().as_micros() as u64;
    stats.hist.record(rtt);
    if let Some(h) = depth_hists.get_mut(p.depth - 1) {
        h.record(rtt);
    }
    stats.ops += 1;
    // A sampled request's root span ends here: response received and
    // accounted. (Guard drop stamps the SpanEnd.)
    drop(p.span);
}

/// [`run_load`] with per-connection pipelining: each worker keeps up to
/// `depth` requests in flight on every connection, shipping bursts in one
/// write and retiring responses in request order.
///
/// Two accounting differences from the serial loop, both consequences of
/// decoupling request from response: a miss's repair PUT is a separate
/// pipelined operation (so `ops = hits + misses + repair PUTs`), and each
/// RTT sample spans enqueue → response, which includes time spent queued
/// behind the requests ahead of it. The report's `depth_hists` split the
/// RTTs by in-flight depth at enqueue so that queueing cost is visible
/// per depth instead of smeared across the merged histogram.
pub fn run_load_pipelined<N: Clone + Eq + Send + Sync>(
    ring: &HashRing<N>,
    addr_of: impl Fn(&N) -> SocketAddr + Sync,
    clients: usize,
    total_ops: u64,
    key_space: u64,
    value_len: usize,
    depth: usize,
) -> std::io::Result<LoadReport> {
    run_load_fanout(
        ring, addr_of, clients, 1, total_ops, key_space, value_len, depth,
    )
}

/// [`run_load_pipelined`] with `fanout` pipelined connections per worker
/// thread to each target node, rotated per request.
///
/// Threads and connections are deliberately separate dimensions: the
/// server's scaling axis is *connections*, but piling one client thread
/// per connection onto a small client box measures the client's scheduler
/// as much as the server (each extra thread adds context-switch cost that
/// cancels the server-side win). A worker multiplexes its fan-out without
/// nonblocking client I/O because every connection's burst is already on
/// the wire before the worker parks in a `recv` — the server keeps all
/// `fanout × depth` requests in service while the client drains one
/// connection at a time.
#[allow(clippy::too_many_arguments)]
pub fn run_load_fanout<N: Clone + Eq + Send + Sync>(
    ring: &HashRing<N>,
    addr_of: impl Fn(&N) -> SocketAddr + Sync,
    clients: usize,
    fanout: usize,
    total_ops: u64,
    key_space: u64,
    value_len: usize,
    depth: usize,
) -> std::io::Result<LoadReport> {
    run_load_fanout_traced(
        ring, addr_of, clients, fanout, total_ops, key_space, value_len, depth, None,
    )
}

/// [`run_load_fanout`] with optional trace sampling: every `trace.sample`-th
/// GET issued by each worker becomes a root `req` span whose context rides
/// the wire (`0x0E` frames), so the server's `srv` subtree attaches under
/// it in the merged dump. Repair PUTs stay untraced — the sampled
/// population is the request stream the run was asked to issue.
#[allow(clippy::too_many_arguments)]
pub fn run_load_fanout_traced<N: Clone + Eq + Send + Sync>(
    ring: &HashRing<N>,
    addr_of: impl Fn(&N) -> SocketAddr + Sync,
    clients: usize,
    fanout: usize,
    total_ops: u64,
    key_space: u64,
    value_len: usize,
    depth: usize,
    trace: Option<&TraceOpts>,
) -> std::io::Result<LoadReport> {
    assert!(clients >= 1, "need at least one client");
    assert!(fanout >= 1, "need at least one connection per worker");
    assert!(depth >= 1, "pipeline depth must be positive");
    let per_worker = total_ops.div_ceil(clients as u64);
    let (tx, rx) = mpsc::sync_channel::<(WorkerStats, Vec<LogHistogram>)>(clients);
    let start = Instant::now();

    std::thread::scope(|scope| {
        for w in 0..clients {
            let tx = tx.clone();
            let ring = ring.clone();
            let addr_of = &addr_of;
            scope.spawn(move || {
                let mut stats = WorkerStats::default();
                let mut depth_hists = vec![LogHistogram::default(); depth];
                let mut conns: Vec<(SocketAddr, usize, PipelinedConn, VecDeque<Pending>)> =
                    Vec::new();
                let mut state = 0x9E3779B97F4A7C15u64 ^ (w as u64).wrapping_mul(0xA24BAED4963EE407);
                let mut issued: u64 = 0;
                for i in 0..per_worker {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = (state >> 33) % key_space;
                    let Some(node) = ring.node_for_key(key) else {
                        stats.errors += 1;
                        continue;
                    };
                    let addr = addr_of(node);
                    // Rotate the fan-out per request so every connection
                    // to a node carries an equal share of the stream.
                    let slot = (i % fanout as u64) as usize;
                    let idx = match conns
                        .iter()
                        .position(|(a, s, _, _)| *a == addr && *s == slot)
                    {
                        Some(i) => i,
                        None => match PipelinedConn::connect(addr, NODE_IO_TIMEOUT) {
                            Ok(c) => {
                                conns.push((addr, slot, c, VecDeque::new()));
                                conns.len() - 1
                            }
                            Err(_) => {
                                stats.errors += 1;
                                continue;
                            }
                        },
                    };
                    let (_, _, conn, pending) = &mut conns[idx];
                    // Closed loop at `depth`: retire responses until there
                    // is room for the new request.
                    while conn.in_flight() >= depth {
                        drain_one(conn, pending, &mut stats, &mut depth_hists, value_len);
                    }
                    let d = conn.in_flight() + 1;
                    let sampled = trace.and_then(|t| t.sample_root(issued));
                    issued += 1;
                    let (span, ctx) = match sampled {
                        Some((span, ctx)) => (Some(span), Some(ctx)),
                        None => (None, None),
                    };
                    match conn.enqueue_traced(&Request::Get { key }, ctx.as_ref()) {
                        Ok(()) => pending.push_back(Pending {
                            key,
                            t0: Instant::now(),
                            depth: d,
                            is_get: true,
                            span,
                        }),
                        Err(_) => stats.errors += 1,
                    }
                }
                for (_, _, conn, pending) in &mut conns {
                    while !pending.is_empty() {
                        drain_one(conn, pending, &mut stats, &mut depth_hists, value_len);
                    }
                }
                let _ = tx.send((stats, depth_hists));
            });
        }
    });
    drop(tx);

    let mut all = WorkerStats::default();
    let mut worker_hists = Vec::with_capacity(clients);
    let mut depth_hists = vec![LogHistogram::default(); depth];
    while let Ok((s, dh)) = rx.recv() {
        all.ops += s.ops;
        all.hits += s.hits;
        all.misses += s.misses;
        all.errors += s.errors;
        all.hist.merge(&s.hist);
        worker_hists.push(s.hist);
        for (into, part) in depth_hists.iter_mut().zip(&dh) {
            into.merge(part);
        }
    }
    Ok(LoadReport {
        ops: all.ops,
        hits: all.hits,
        misses: all.misses,
        errors: all.errors,
        elapsed: start.elapsed(),
        latency_us: (all.hist.p50(), all.hist.quantile(0.95), all.hist.p99()),
        hist: all.hist,
        worker_hists,
        depth_hists,
    })
}

/// Replay a pre-generated scenario event stream (`(step, op, key)` triples
/// from [`ecc_workload::scenario::Scenario::events`] or a loaded
/// [`ecc_workload::trace::Trace`]) against live servers.
///
/// The stream is partitioned deterministically across `clients` workers
/// (worker `w` executes events at indices `i ≡ w (mod clients)`), so the
/// exact multiset of operations on the wire is a pure function of the
/// scenario seed — only inter-worker interleaving varies run to run.
/// Reads issue GETs (misses are counted, not repaired, so replays do not
/// mutate state the trace did not ask for); writes issue PUTs of
/// `value_len` bytes.
pub fn run_scenario_load<N: Clone + Eq + Send + Sync>(
    ring: &HashRing<N>,
    addr_of: impl Fn(&N) -> SocketAddr + Sync,
    clients: usize,
    events: &[(u64, Op, u64)],
    value_len: usize,
) -> std::io::Result<LoadReport> {
    assert!(clients >= 1, "need at least one client");
    let (tx, rx) = mpsc::sync_channel::<WorkerStats>(clients);
    let start = Instant::now();

    std::thread::scope(|scope| {
        for w in 0..clients {
            let tx = tx.clone();
            let ring = ring.clone();
            let addr_of = &addr_of;
            scope.spawn(move || {
                let mut stats = WorkerStats::default();
                let mut conns: Vec<(SocketAddr, RemoteNode)> = Vec::new();
                for &(_, op, key) in events.iter().skip(w).step_by(clients) {
                    let Some(node) = ring.node_for_key(key) else {
                        stats.errors += 1;
                        continue;
                    };
                    let addr = addr_of(node);
                    let conn = match conns.iter_mut().find(|(a, _)| *a == addr) {
                        Some((_, c)) => c,
                        None => match RemoteNode::connect_with_timeout(addr, NODE_IO_TIMEOUT) {
                            Ok(c) => {
                                conns.push((addr, c));
                                let Some((_, conn)) = conns.last_mut() else {
                                    stats.errors += 1;
                                    continue;
                                };
                                conn
                            }
                            Err(_) => {
                                stats.errors += 1;
                                continue;
                            }
                        },
                    };
                    let t0 = Instant::now();
                    match op {
                        Op::Read => match conn.get(key) {
                            Ok(Some(_)) => stats.hits += 1,
                            Ok(None) => stats.misses += 1,
                            Err(_) => stats.errors += 1,
                        },
                        Op::Write => {
                            if conn.put(key, vec![(key % 251) as u8; value_len]).is_err() {
                                stats.errors += 1;
                            }
                        }
                    }
                    stats.hist.record(t0.elapsed().as_micros() as u64);
                    stats.ops += 1;
                }
                let _ = tx.send(stats);
            });
        }
    });
    drop(tx);

    let mut all = WorkerStats::default();
    let mut worker_hists = Vec::with_capacity(clients);
    while let Ok(s) = rx.recv() {
        all.ops += s.ops;
        all.hits += s.hits;
        all.misses += s.misses;
        all.errors += s.errors;
        all.hist.merge(&s.hist);
        worker_hists.push(s.hist);
    }
    Ok(LoadReport {
        ops: all.ops,
        hits: all.hits,
        misses: all.misses,
        errors: all.errors,
        elapsed: start.elapsed(),
        latency_us: (all.hist.p50(), all.hist.quantile(0.95), all.hist.p99()),
        hist: all.hist,
        worker_hists,
        depth_hists: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::CacheServer;

    #[test]
    fn concurrent_load_against_two_servers() {
        let s1 = CacheServer::spawn(1 << 20, 32).unwrap();
        let s2 = CacheServer::spawn(1 << 20, 32).unwrap();
        let mut ring: HashRing<usize> = HashRing::new(1 << 12);
        ring.insert_bucket((1 << 11) - 1, 0).unwrap();
        ring.insert_bucket((1 << 12) - 1, 1).unwrap();
        let addrs = [s1.addr(), s2.addr()];

        let report = run_load(&ring, |n| addrs[*n], 4, 2000, 1 << 10, 64).unwrap();
        assert_eq!(report.errors, 0, "{report:?}");
        assert!(report.ops >= 2000);
        assert_eq!(report.hits + report.misses, report.ops);
        // 1 Ki distinct keys over 2 K ops: plenty of hits.
        assert!(report.hits > 0);
        assert!(report.throughput() > 100.0, "{report:?}");
        let (p50, p95, p99) = report.latency_us;
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn workers_reuse_connections_instead_of_reconnecting() {
        let s = CacheServer::spawn(1 << 20, 32).unwrap();
        let mut ring: HashRing<usize> = HashRing::new(64);
        ring.insert_bucket(63, 0).unwrap();
        let addr = s.addr();
        let report = run_load(&ring, |_| addr, 3, 600, 64, 16).unwrap();
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(
            s.connections_accepted(),
            3,
            "600 ops from 3 workers must ride 3 persistent connections"
        );
    }

    #[test]
    fn report_histogram_matches_op_count_and_progress_fires() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let s = CacheServer::spawn(1 << 20, 32).unwrap();
        let mut ring: HashRing<usize> = HashRing::new(256);
        ring.insert_bucket(255, 0).unwrap();
        let addr = s.addr();
        let ticks = AtomicU64::new(0);
        let last_done = AtomicU64::new(0);
        let cb = |p: LoadProgress| {
            ticks.fetch_add(1, Ordering::Relaxed);
            last_done.store(p.done, Ordering::Relaxed);
            assert_eq!(p.total, 800);
        };
        let report = run_load_with_progress(
            &ring,
            |_| addr,
            2,
            800,
            256,
            32,
            Some((Duration::from_millis(5), &cb)),
        )
        .unwrap();
        assert_eq!(report.errors, 0);
        assert_eq!(report.hist.count(), report.ops);
        // The merged histogram is exactly the per-worker parts.
        assert_eq!(report.worker_hists.len(), 2);
        let parts: u64 = report.worker_hists.iter().map(|h| h.count()).sum();
        assert_eq!(parts, report.hist.count());
        let (p50, p95, p99) = report.latency_us;
        assert!(p50 <= p95 && p95 <= p99);
        assert!(ticks.load(Ordering::Relaxed) >= 1, "monitor never ticked");
        assert!(last_done.load(Ordering::Relaxed) <= 800);
    }

    #[test]
    fn scenario_replay_executes_every_traced_op() {
        use ecc_workload::scenario::Scenario;

        let s = CacheServer::spawn(1 << 22, 64).unwrap();
        let mut ring: HashRing<usize> = HashRing::new(1 << 16);
        ring.insert_bucket((1 << 16) - 1, 0).unwrap();
        let addr = s.addr();

        let sc = Scenario::by_name("write_heavy").unwrap();
        let events: Vec<_> = sc.events(5, 3).collect();
        let writes = events.iter().filter(|(_, op, _)| *op == Op::Write).count();
        assert!(writes > 0, "write_heavy scenario produced no writes");

        let report = run_scenario_load(&ring, |_| addr, 3, &events, 32).unwrap();
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.ops as usize, events.len());
        // Reads are GETs only — hits + misses account for every read.
        assert_eq!(report.hits + report.misses, (events.len() - writes) as u64);

        // Replaying the same event list performs the same multiset of ops.
        let again = run_scenario_load(&ring, |_| addr, 2, &events, 32).unwrap();
        assert_eq!(again.ops as usize, events.len());
        assert_eq!(again.errors, 0);
    }

    #[test]
    fn pipelined_load_retires_every_request_and_buckets_by_depth() {
        let s = CacheServer::spawn(1 << 22, 32).unwrap();
        let mut ring: HashRing<usize> = HashRing::new(256);
        ring.insert_bucket(255, 0).unwrap();
        let addr = s.addr();

        let depth = 8;
        let report = run_load_pipelined(&ring, |_| addr, 2, 2000, 256, 64, depth).unwrap();
        assert_eq!(report.errors, 0, "{report:?}");
        // Every GET plus every repair PUT retired: ops = gets + misses.
        assert_eq!(report.hits + report.misses, 2000);
        assert_eq!(report.ops, 2000 + report.misses);
        assert_eq!(report.hist.count(), report.ops);
        // The depth buckets partition the merged histogram exactly.
        assert_eq!(report.depth_hists.len(), depth);
        let parts: u64 = report.depth_hists.iter().map(|h| h.count()).sum();
        assert_eq!(parts, report.hist.count());
        // A closed loop at depth 8 must actually reach full depth.
        assert!(
            report.depth_hists[depth - 1].count() > 0,
            "no request ever went out at full depth: {report:?}"
        );
        assert!(report.throughput() > 100.0, "{report:?}");
    }

    #[test]
    fn pipelined_depth_one_degenerates_to_serial_semantics() {
        let s = CacheServer::spawn(1 << 20, 32).unwrap();
        let mut ring: HashRing<usize> = HashRing::new(64);
        ring.insert_bucket(63, 0).unwrap();
        let addr = s.addr();
        let report = run_load_pipelined(&ring, |_| addr, 1, 300, 64, 16, 1).unwrap();
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.hits + report.misses, 300);
        assert_eq!(report.depth_hists.len(), 1);
        assert_eq!(report.depth_hists[0].count(), report.ops);
        // One worker, one persistent pipelined connection.
        assert_eq!(s.connections_accepted(), 1);
    }

    #[test]
    fn fanout_opens_one_connection_per_worker_slot() {
        let s = CacheServer::spawn(1 << 20, 32).unwrap();
        let mut ring: HashRing<usize> = HashRing::new(64);
        ring.insert_bucket(63, 0).unwrap();
        let addr = s.addr();
        let report = run_load_fanout(&ring, |_| addr, 2, 2, 2000, 64, 64, 4).unwrap();
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.hits + report.misses, 2000);
        assert_eq!(report.ops, 2000 + report.misses);
        assert_eq!(report.hist.count(), report.ops);
        // 2 workers × fanout 2 = 4 persistent connections, no reconnects.
        assert_eq!(s.connections_accepted(), 4);
    }

    #[test]
    fn traced_pipelined_run_yields_complete_span_trees() {
        use ecc_obs::TimeSource;

        // Shared epoch: client root spans and server subtrees must be
        // interval-comparable in the merged dump.
        let time = TimeSource::real();
        let mut s =
            CacheServer::spawn_clocked(("127.0.0.1", 0), 1 << 22, 32, 256, None, time.clone(), 1)
                .unwrap();
        let client_obs = ObsRegistry::new(time);
        client_obs.set_origin(100);
        let mut ring: HashRing<usize> = HashRing::new(256);
        ring.insert_bucket(255, 0).unwrap();
        let addr = s.addr();

        // More frames than two flight-recorder rings hold events: only
        // the sampled requests' spans go into the ring, so none is lost.
        let trace = TraceOpts {
            obs: client_obs.clone(),
            sample: 32,
        };
        let report =
            run_load_fanout_traced(&ring, |_| addr, 2, 1, 8192, 256, 64, 8, Some(&trace)).unwrap();
        assert_eq!(report.errors, 0, "{report:?}");
        assert!(report.ops >= 8192, "{report:?}");

        // 2 workers × 4096 GETs, 1-in-32 sampled → 256 roots, 7936 dropped.
        assert_eq!(client_obs.spans_dropped(), 7936);

        let mut c = RemoteNode::connect(addr).unwrap();
        let server_snap = c.obs_dump().unwrap();
        assert_eq!(server_snap.dropped, 0);
        let mut events = client_obs.snapshot().events;
        events.extend(server_snap.events);
        let stats = ecc_obs::verify_spans(&events).expect("merged trace is well-formed");
        assert_eq!(stats.roots, 256);
        assert_eq!(stats.traces, 256);
        // Every sampled request carries its server subtree: root + srv +
        // srv_queue + srv_exec + lock_wait = 5 spans per trace.
        assert_eq!(stats.spans, 1280);
        s.stop();
    }

    #[test]
    fn single_worker_degenerate_case() {
        let s = CacheServer::spawn(1 << 16, 16).unwrap();
        let mut ring: HashRing<usize> = HashRing::new(64);
        ring.insert_bucket(63, 0).unwrap();
        let addr = s.addr();
        let report = run_load(&ring, |_| addr, 1, 100, 64, 16).unwrap();
        assert_eq!(report.ops, 100);
        assert_eq!(report.errors, 0);
    }
}
