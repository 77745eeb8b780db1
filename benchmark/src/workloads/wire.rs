//! The three wire workloads: one cache server with a single reactor and
//! one client connection on loopback (1 generator + 1 reactor = the two
//! cores of the reference host).
//!
//! * `wire_get_pipelined` — closed loop, windows of 16 GETs of 64 B
//!   values: per-frame cost at saturation, the reactor never parks.
//! * `wire_mixed_open_low` / `_high` — open loop at 2 000 / 15 000
//!   requests/s over one serial connection, 70 % GET / 30 % PUT-replace of
//!   900 B values, zipf keys: the same code with the reactor cold between
//!   arrivals and with it hot.
//!
//! A run is cut into [`ROUNDS`] rounds, each against a freshly spawned and
//! filled server. Which cores the two threads land on, and how their
//! buffers fall in memory, is fixed for the life of a server and differs
//! from one to the next; measuring several servers per run and taking the
//! median across all their segments keeps that draw out of the result.
//! The same rounds give `setup_s` as a median of several set-ups.

use std::io;
use std::time::Duration;

use bytes::Bytes;
use ecc_net::client::{PipelinedConn, RemoteNode};
use ecc_net::protocol::{Request, Status};
use ecc_net::server::{CacheServer, DEFAULT_MAX_CONNECTIONS};
use ecc_workload::driver::Op;

use crate::calib;
use crate::common::{self, NodeObs, Outcome, RunCfg};
use crate::ops::{self, PIPELINE_WINDOW, WIRE_KEYS};
use crate::pacing::{due_at_rate, Clock, Pacer, WallClock};
use crate::payload;
use crate::spans::{residual_share, totals_by_name};
use crate::stats::{self, quantile_sorted, SegmentStats};

/// Servers measured per run.
const ROUNDS: u64 = 5;

/// Records per `PutMany` frame while filling and per `GetMany` frame
/// while reading back.
const BATCH: usize = 512;

fn refused(what: &str) -> io::Error {
    io::Error::other(what.to_owned())
}

/// Spawn a one-reactor server holding every key of `0..WIRE_KEYS` at
/// version 0 with `value_len`-byte values. Returns it with the footprint
/// the fill left per byte of user data.
fn spawn_filled(value_len: usize) -> io::Result<(CacheServer, f64)> {
    let capacity = 2 * WIRE_KEYS * ecc_core::slab::footprint(value_len);
    let server = CacheServer::spawn_with(
        ("127.0.0.1", 0),
        capacity,
        64,
        DEFAULT_MAX_CONNECTIONS,
        Some(1),
    )?;
    let mut node = RemoteNode::connect(server.addr())?;
    let keys: Vec<u64> = (0..WIRE_KEYS).collect();
    for chunk in keys.chunks(BATCH) {
        let items = chunk
            .iter()
            .map(|&k| (k, Bytes::from(payload::make(k, 0, value_len))))
            .collect();
        if node.put_many(items)?.iter().any(|s| *s != Status::Ok) {
            return Err(refused("fill refused a record"));
        }
    }
    let (used, records, _) = node.stats()?;
    if records != WIRE_KEYS {
        return Err(refused("fill lost records"));
    }
    let bytes_per_user_byte = used as f64 / (WIRE_KEYS * value_len as u64) as f64;
    Ok((server, bytes_per_user_byte))
}

/// Read every resident key back and count the ones that are missing or
/// do not hold the bytes of their current version.
fn read_back(node: &mut RemoteNode, versions: &[u32], value_len: usize) -> io::Result<u64> {
    let keys: Vec<u64> = (0..WIRE_KEYS).collect();
    let mut lost = 0;
    for chunk in keys.chunks(BATCH) {
        for (key, entry) in chunk.iter().zip(node.get_many(chunk)?) {
            let ok =
                entry.is_some_and(|v| payload::check(*key, versions[*key as usize], value_len, &v));
            lost += u64::from(!ok);
        }
    }
    Ok(lost)
}

/// Rounds and the length of each for this run.
fn rounds(cfg: &RunCfg) -> (u64, u64) {
    let n = if cfg.smoke { 1 } else { ROUNDS };
    (n, cfg.horizon_ns() / n)
}

/// Windows per segment on the pipelined workload (a segment is a fixed
/// amount of work, ~16 ms at the reference rate: short enough for the
/// host speed sampled at its two ends to hold throughout).
const WINDOWS_PER_SEGMENT: usize = 512;

/// `wire_get_pipelined`.
pub fn get_pipelined(cfg: &RunCfg) -> io::Result<Outcome> {
    let value_len = ops::WIRE_SMALL_VALUE;
    let windows_per_segment = if cfg.smoke { 64 } else { WINDOWS_PER_SEGMENT };
    let (rounds, round_ns) = rounds(cfg);
    let mut out = Outcome::default();
    let stream = ops::wire_get(cfg.seed);
    let mut gen = stream.take_steps_ops(u64::MAX);
    let mut keys = [0u64; PIPELINE_WINDOW];
    let mut setups: Vec<f64> = Vec::new();
    let mut server_obs = NodeObs::default();
    let mut rtt_us = SegmentStats::default();
    let mut seg_ops_per_s: Vec<f64> = Vec::new();
    let mut seg_kernel_ns: Vec<f64> = Vec::new();
    let (mut gets, mut hits, mut bad) = (0u64, 0u64, 0u64);
    let mut bytes_per_user_byte = 0.0;

    for _ in 0..rounds {
        let ((mut server, footprint, mut conn), setup_s) =
            common::timed_setup(|| -> io::Result<_> {
                let (server, footprint) = spawn_filled(value_len)?;
                let mut conn = PipelinedConn::connect(server.addr(), Duration::from_secs(10))?;
                // Warm-up: buffers grown, reactor hot, pages faulted in.
                for key in 0..4_096 {
                    conn.enqueue(&Request::Get { key })?;
                    if conn.in_flight() == PIPELINE_WINDOW {
                        while conn.in_flight() > 0 {
                            conn.recv()?;
                        }
                    }
                }
                Ok((server, footprint, conn))
            })?;
        bytes_per_user_byte = footprint;
        setups.push(setup_s);

        let before = server.obs().snapshot();
        let clock = WallClock::start();
        let mut kernel_before = calib::kernel_ns(&clock);
        let mut seg_start = clock.now_ns();
        while seg_start < round_ns {
            let seg = seg_ops_per_s.len();
            out.spans.enabled = !cfg.untraced(seg);
            let traced = out.spans.enabled;
            let mut t0 = seg_start;
            for _ in 0..windows_per_segment {
                let root = out.spans.open("request_window", t0);
                for k in &mut keys {
                    *k = gen.next().map_or(0, |(_, _, key)| key);
                }
                let t1 = if traced { clock.now_ns() } else { 0 };
                for &key in &keys {
                    conn.enqueue(&Request::Get { key })?;
                }
                let t2 = if traced { clock.now_ns() } else { 0 };
                conn.flush()?;
                let t3 = if traced { clock.now_ns() } else { 0 };
                for &key in &keys {
                    let (status, body) = conn.recv()?;
                    gets += 1;
                    if status == Status::Ok {
                        hits += 1;
                        bad += u64::from(!payload::check(key, 0, value_len, body));
                    }
                }
                let t4 = clock.now_ns();
                if traced {
                    let n = PIPELINE_WINDOW as u32;
                    out.spans.leaf("workload.next_op", t0, t1, n);
                    out.spans.leaf("net.client.enqueue", t1, t2, n);
                    out.spans.leaf("net.client.flush", t2, t3, 1);
                    out.spans.leaf("net.client.recv", t3, t4, n);
                }
                out.spans.close(root, t4, 1);
                rtt_us.push(seg, (t4 - t0) as f64 / 1e3);
                t0 = t4;
            }
            let ops = (windows_per_segment * PIPELINE_WINDOW) as f64;
            seg_ops_per_s.push(ops / ((t0 - seg_start) as f64 / 1e9));
            let kernel_after = calib::kernel_ns(&clock);
            seg_kernel_ns.push((kernel_before + kernel_after) as f64 / 2.0);
            kernel_before = kernel_after;
            seg_start = clock.now_ns();
        }
        out.spans.enabled = false;
        server_obs.add(&before, &server.obs().snapshot());
        drop(conn);
        server.stop();
    }

    let misses = gets - hits;
    out.attempted = gets;
    out.failed = misses + bad;
    out.require(misses == 0, || {
        format!("{misses} GETs of resident keys missed")
    });
    if cfg.pinned() {
        // 64 B values land in 80 B slots.
        out.pin(
            "bytes_per_user_byte x1000",
            (bytes_per_user_byte * 1e3).round() as u64,
            1_250,
        );
    }

    let speeds = common::report_speed(&mut out, &seg_kernel_ns);
    let (ops_per_s, traced_ops_per_s) = common::report_rate(
        &mut out,
        cfg,
        &seg_ops_per_s,
        &speeds,
        common::CORE_BOUND_SHARE,
    );
    common::report_latency(
        &mut out,
        cfg,
        &mut rtt_us,
        |seg| speeds[seg],
        common::CORE_BOUND_SHARE,
        |_| true,
    );
    out.set("setup_s", stats::median(&mut setups));
    out.set("hit_rate", hits as f64 / gets.max(1) as f64);
    out.set(
        "loadgen.failed_share",
        out.failed as f64 / gets.max(1) as f64,
    );
    out.set("loadgen.achieved_share", 1.0);
    out.set("loadgen.bytes_per_user_byte", bytes_per_user_byte);
    if cfg.trace {
        out.set(
            "trace.overhead_share",
            -common::overhead_share(ops_per_s, traced_ops_per_s),
        );
        server_obs.report(&mut out);
        let totals = totals_by_name(out.spans.spans());
        let per_op = |name: &str| totals.get(name).map_or(0.0, |t| t.ns_per_op());
        let per_span = |name: &str| totals.get(name).map_or(0.0, |t| t.ns_per_span());
        out.set("workload.next_op_ns", per_op("workload.next_op"));
        out.set("net.client.enqueue_ns", per_op("net.client.enqueue"));
        out.set("net.client.flush_us", per_span("net.client.flush") / 1e3);
        // The recv span covers waiting, response decoding and the
        // payload check of one window; main() takes the separately probed
        // check cost back out to leave `net.client.recv_wait_us`.
        out.set("net.client.recv_wait_us", per_span("net.client.recv") / 1e3);
        out.set("budget.residual_share", residual_share(out.spans.spans()));
    }
    Ok(out)
}

/// A segment of a paced wire workload is a tenth of a second of due
/// times, or this many requests if that is more: enough samples for a p90
/// at the low rate, and the host's speed sampled often at the high one.
const MIN_REQUESTS_PER_SEGMENT: u64 = 250;

/// `wire_mixed_open_low` and `wire_mixed_open_high`: the same mix at
/// `per_second` requests/s. `speed_share` says how much of the latency
/// follows core speed: the hot reactor's is CPU time, the cold one's is
/// the wait for a parked reactor's timer.
pub fn mixed_open(cfg: &RunCfg, per_second: u64, speed_share: f64) -> io::Result<Outcome> {
    let value_len = ops::RECORD_VALUE;
    let (rounds, round_ns) = rounds(cfg);
    let offered_per_round = per_second * round_ns / 1_000_000_000;
    let requests_per_segment = (per_second / 10).max(MIN_REQUESTS_PER_SEGMENT);
    let mut out = Outcome::default();
    let stream = ops::wire_mixed(cfg.seed);
    let mut gen = stream.take_steps_ops(u64::MAX);
    let mut setups: Vec<f64> = Vec::new();
    let mut server_obs = NodeObs::default();
    let mut lat_us = SegmentStats::default();
    let mut late_us: Vec<f64> = Vec::new();
    let mut round_ops_per_s: Vec<f64> = Vec::new();
    let mut seg_kernel_ns: Vec<f64> = Vec::new();
    let (mut gets, mut hits, mut puts, mut bad, mut lost) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut sent_requests, mut on_time) = (0u64, 0u64);
    let mut bytes_per_user_byte = 0.0;

    for _ in 0..rounds {
        let ((mut server, footprint, mut node), setup_s) =
            common::timed_setup(|| -> io::Result<_> {
                let (server, footprint) = spawn_filled(value_len)?;
                let mut node = RemoteNode::connect(server.addr())?;
                node.set_read_timeout(Some(Duration::from_secs(10)))?;
                for key in 0..1_024 {
                    node.get(key)?;
                }
                Ok((server, footprint, node))
            })?;
        bytes_per_user_byte = footprint;
        setups.push(setup_s);

        let mut versions = vec![0u32; WIRE_KEYS as usize];
        let before = server.obs().snapshot();
        let mut kernel_before = calib::kernel_ns(&WallClock::start());
        let mut pacer = Pacer::new(WallClock::start());
        let (mut round_sent, mut last_done) = (0u64, 0u64);
        for i in 0..offered_per_round {
            if i > 0 && i % requests_per_segment == 0 {
                // Between two requests; the few that follow are released
                // late by it, which their latency from due time shows.
                let kernel_after = calib::kernel_ns(pacer.clock());
                seg_kernel_ns.push((kernel_before + kernel_after) as f64 / 2.0);
                kernel_before = kernel_after;
            }
            let seg = seg_kernel_ns.len();
            let due = due_at_rate(0, i, per_second);
            // A system this far behind is not going to catch up; what was
            // never sent counts against `achieved_share`.
            if pacer.clock().now_ns() > round_ns + round_ns / 5 {
                break;
            }
            let Some((_, op, key)) = gen.next() else {
                break;
            };
            let next_version = versions[key as usize] + 1;
            let value = (op == Op::Write).then(|| payload::make(key, next_version, value_len));
            out.spans.enabled = !cfg.untraced(seg);
            let sent = pacer.wait_until(due);
            round_sent += 1;
            let root = out.spans.open("request", due);
            let done = match value {
                None => {
                    let got = node.get(key)?;
                    let done = pacer.clock().now_ns();
                    out.spans.leaf("net.client.call.get", sent, done, 1);
                    gets += 1;
                    if let Some(bytes) = got {
                        hits += 1;
                        let version = versions[key as usize];
                        bad += u64::from(!payload::check(key, version, value_len, &bytes));
                    }
                    done
                }
                Some(value) => {
                    let status = node.put(key, value)?;
                    let done = pacer.clock().now_ns();
                    out.spans.leaf("net.client.call.put", sent, done, 1);
                    puts += 1;
                    if status == Status::Ok {
                        versions[key as usize] = next_version;
                    } else {
                        bad += 1;
                    }
                    done
                }
            };
            out.spans.close(root, done, 1);
            on_time += u64::from(done <= round_ns);
            last_done = done;
            lat_us.push(seg, (done - due) as f64 / 1e3);
        }
        out.spans.enabled = false;
        late_us.extend_from_slice(pacer.lateness_us());
        let kernel_after = calib::kernel_ns(pacer.clock());
        seg_kernel_ns.push((kernel_before + kernel_after) as f64 / 2.0);
        server_obs.add(&before, &server.obs().snapshot());
        sent_requests += round_sent;
        round_ops_per_s.push(round_sent as f64 / (last_done.max(1) as f64 / 1e9));
        lost += read_back(&mut node, &versions, value_len)?;
        drop(node);
        server.stop();
    }

    let misses = gets - hits;
    let offered = offered_per_round * rounds;
    out.attempted = sent_requests + WIRE_KEYS * rounds;
    out.failed = misses + bad + lost;
    out.require(misses == 0, || {
        format!("{misses} GETs of resident keys missed")
    });
    out.require(lost == 0, || {
        format!("{lost} keys lost or stale at read-back")
    });
    if cfg.pinned() {
        // 900 B values land in 1 096 B slots.
        out.pin(
            "bytes_per_user_byte x1000",
            (bytes_per_user_byte * 1e3).round() as u64,
            1_218,
        );
    }

    let speeds = common::report_speed(&mut out, &seg_kernel_ns);
    let (p50, traced_p50) = common::report_latency(
        &mut out,
        cfg,
        &mut lat_us,
        |seg| speeds[seg.min(speeds.len() - 1)],
        speed_share,
        |_| true,
    );
    out.set("setup_s", stats::median(&mut setups));
    // Requests completed per second from the first due time to the last
    // completion of a round: the offered rate while the system keeps up,
    // less once a backlog stretches the round.
    out.set("ops_per_s", stats::median(&mut round_ops_per_s));
    out.set("hit_rate", hits as f64 / gets.max(1) as f64);
    out.note("gets", gets as f64);
    out.note("puts", puts as f64);
    out.set(
        "loadgen.failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set(
        "loadgen.achieved_share",
        on_time as f64 / offered.max(1) as f64,
    );
    out.set("loadgen.bytes_per_user_byte", bytes_per_user_byte);
    late_us.sort_by(|a, b| a.total_cmp(b));
    out.set("loadgen.late_p99_us", quantile_sorted(&late_us, 0.99));
    if cfg.trace {
        out.set(
            "trace.overhead_share",
            common::overhead_share(p50, traced_p50),
        );
        server_obs.report(&mut out);
        let totals = totals_by_name(out.spans.spans());
        let per_span = |name: &str| totals.get(name).map_or(0.0, |t| t.ns_per_span());
        out.set(
            "net.client.call_us.get",
            per_span("net.client.call.get") / 1e3,
        );
        out.set(
            "net.client.call_us.put",
            per_span("net.client.call.put") / 1e3,
        );
        out.set("budget.residual_share", residual_share(out.spans.spans()));
    }
    Ok(out)
}
