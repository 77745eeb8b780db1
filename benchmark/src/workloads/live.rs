//! `live_paper_elastic`: the paper's scripted rate shape driven through
//! the live cluster — loadgen → `LiveCoordinator` → client → reactor →
//! stripe → B+Tree/slab — open loop, paced by time step.
//!
//! A query is a `get` and, on a miss, a `put` of the derived record; each
//! step ends with `end_time_step` (slice expiry, `EvictMany` fan-out,
//! contraction probe). Node capacity is sized so the fleet grows from one
//! node to four under the high plateau and contracts again after it, which
//! makes GBA-Insert, Sweep-and-Migrate, λ-eviction and ε-merge all fire.
//! The fleet stays at or under four nodes because every node spawns
//! `min(4, nproc)` reactors plus an acceptor: a larger fleet on two cores
//! measures the scheduler.

use std::collections::BTreeSet;
use std::io;

use ecc_net::coordinator::LiveCoordinator;
use ecc_obs::ObsEvent;

use crate::calib;
use crate::common::{self, HistTotals, NodeObs, Outcome, RunCfg};
use crate::ops::{self, LIVE_KEYS, LIVE_STEPS, RECORD_VALUE};
use crate::pacing::{Clock, Pacer, WallClock};
use crate::payload;
use crate::spans::{residual_share, totals_by_name};
use crate::stats::{self, quantile_sorted, SegmentStats};

/// Records a node holds before it overflows.
const NODE_RECORDS: u64 = 1_400;
/// Sliding-window slices `m`.
const WINDOW_SLICES: usize = 40;
/// Decay `α`.
const ALPHA: f64 = 0.99;
/// Contraction cadence `ε`.
const EPSILON: u64 = 5;
/// Steps per latency segment.
const STEPS_PER_SEGMENT: u64 = 10;
/// Set-ups timed per run; one takes a few milliseconds.
const SETUP_REPS: usize = 15;
/// Absent-key lookups that warm the first node's connection and reactor.
const WARMUP_GETS: u64 = 256;

fn start_cluster() -> io::Result<LiveCoordinator> {
    let capacity = NODE_RECORDS * ecc_core::slab::footprint(RECORD_VALUE);
    let mut coord = LiveCoordinator::start(LIVE_KEYS, capacity)?;
    for key in 0..WARMUP_GETS {
        coord.get(key)?;
    }
    // The window is enabled after the warm-up so that it starts empty.
    coord.enable_window(WINDOW_SLICES, ALPHA, ALPHA.powi(WINDOW_SLICES as i32 - 1));
    coord.contraction_epsilon = EPSILON;
    Ok(coord)
}

/// Exact counts of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    queries: u64,
    hits: u64,
    evicted: u64,
    splits: u64,
    merges: u64,
    nodes_spawned: u64,
    peak_nodes: u64,
    final_nodes: u64,
}

/// Counts of the full run at [`common::DEFAULT_SEED`].
const PINNED: Counts = Counts {
    queries: 10_000,
    hits: 3_309,
    evicted: 5_622,
    splits: 3,
    merges: 2,
    nodes_spawned: 4,
    peak_nodes: 4,
    final_nodes: 2,
};

/// `live_paper_elastic`.
pub fn run(cfg: &RunCfg) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let reps = if cfg.smoke { 1 } else { SETUP_REPS };
    let (mut coord, setup_s) = common::timed_setups(reps, start_cluster, |mut c| {
        let _ = c.shutdown();
    })?;

    let steps = if cfg.smoke { 40 } else { LIVE_STEPS };
    let step_ns = cfg.horizon_ns() / steps;
    let stream = ops::live(cfg.seed);
    let schedule = stream.schedule().clone();
    let mut gen = stream.take_steps_ops(steps);
    // Keys the cluster must hold: everything put and not evicted since.
    let mut resident: BTreeSet<u64> = BTreeSet::new();
    let mut event_seq = coord.obs().next_seq();
    let mut counts = Counts::default();
    let mut pacer = Pacer::new(WallClock::start());
    let mut lat_us = SegmentStats::default();
    let mut close_ms: Vec<f64> = Vec::new();
    let (mut split_put_ms, mut merge_close_ms) = (Vec::<f64>::new(), Vec::<f64>::new());
    let (mut bad, mut lost, mut on_time, mut evict_batches) = (0u64, 0u64, 0u64, 0u64);
    let horizon = cfg.horizon_ns();
    let mut last_done = 0u64;
    counts.peak_nodes = coord.node_count() as u64;
    let mut seg_kernel_ns: Vec<f64> = Vec::new();
    let mut kernel_before = calib::kernel_ns(pacer.clock());

    for step in 0..steps {
        let seg = (step / STEPS_PER_SEGMENT) as usize;
        out.spans.enabled = !cfg.untraced(seg);
        let rate = schedule.rate_at(step);
        for j in 0..rate {
            let due = step * step_ns + j * step_ns / rate;
            let Some((_, _, key)) = gen.next() else { break };
            let sent = pacer.wait_until(due);
            let root = out.spans.open("request", due);
            let got = coord.get(key)?;
            let t_get = pacer.clock().now_ns();
            out.spans.leaf("net.coordinator.get", sent, t_get, 1);
            counts.queries += 1;
            let done = match got {
                Some(bytes) => {
                    counts.hits += 1;
                    // A hit on a key the model evicted would mean the
                    // eviction never reached the node.
                    bad += u64::from(
                        !resident.contains(&key) || !payload::check(key, 0, RECORD_VALUE, &bytes),
                    );
                    t_get
                }
                None => {
                    lost += u64::from(resident.contains(&key));
                    let splits_before = coord.splits;
                    coord.put(key, payload::make(key, 0, RECORD_VALUE))?;
                    let t_put = pacer.clock().now_ns();
                    // Splits and merges are too rare to leave to the traced
                    // half of the run: they are timed whenever they happen.
                    if coord.splits > splits_before {
                        split_put_ms.push((t_put - t_get) as f64 / 1e6);
                    } else {
                        out.spans.leaf("net.coordinator.put", t_get, t_put, 1);
                    }
                    resident.insert(key);
                    counts.peak_nodes = counts.peak_nodes.max(coord.node_count() as u64);
                    t_put
                }
            };
            out.spans.close(root, done, 1);
            on_time += u64::from(done <= horizon);
            last_done = done;
            lat_us.push(seg, (done - due) as f64 / 1e3);
        }

        let merges_before = coord.merges;
        let c0 = pacer.clock().now_ns();
        coord.end_time_step()?;
        let c1 = pacer.clock().now_ns();
        if coord.merges > merges_before {
            merge_close_ms.push((c1 - c0) as f64 / 1e6);
        } else {
            out.spans.leaf("net.coordinator.step_close", c0, c1, 1);
        }
        close_ms.push((c1 - c0) as f64 / 1e6);
        // The coordinator's own flight recorder names the evicted keys.
        for (_, event) in coord.obs().events_since(event_seq) {
            if let ObsEvent::EvictBatch { keys, .. } = event {
                evict_batches += 1;
                for key in keys {
                    counts.evicted += u64::from(resident.remove(&key));
                }
            }
        }
        event_seq = coord.obs().next_seq();
        if (step + 1) % STEPS_PER_SEGMENT == 0 {
            // In the idle tail of the step, before the next one is due.
            let kernel_after = calib::kernel_ns(pacer.clock());
            seg_kernel_ns.push((kernel_before + kernel_after) as f64 / 2.0);
            kernel_before = kernel_after;
        }
    }
    out.spans.enabled = false;
    counts.splits = coord.splits as u64;
    counts.merges = coord.merges as u64;
    counts.nodes_spawned = coord.nodes_spawned as u64;
    counts.final_nodes = coord.node_count() as u64;
    let recorder_dropped = coord.obs().snapshot().dropped;
    let snap = coord.cluster_obs()?;

    // A closed-loop burst over resident keys: recorded, never gated — on
    // this path the rate is bimodal, depending on whether the reactors
    // stay inside their hot window.
    let mut closed_loop_qps = 0.0;
    if cfg.trace && !resident.is_empty() {
        let clock = WallClock::start();
        let burst_ns = (cfg.horizon_ns() / 20).max(50_000_000);
        let mut n = 0u64;
        'burst: loop {
            for &key in &resident {
                coord.get(key)?;
                n += 1;
                if n.is_multiple_of(64) && clock.now_ns() >= burst_ns {
                    break 'burst;
                }
            }
        }
        closed_loop_qps = n as f64 / (clock.now_ns() as f64 / 1e9);
    }

    // Final sweep: everything the model says is resident reads back.
    let mut unread = 0u64;
    for &key in &resident {
        let ok = coord
            .get(key)?
            .is_some_and(|v| payload::check(key, 0, RECORD_VALUE, &v));
        unread += u64::from(!ok);
    }
    let (_, records) = coord.totals()?;
    coord.check_invariants()?;
    coord.shutdown()?;

    let records_lost = lost + unread;
    out.attempted = counts.queries + resident.len() as u64;
    out.failed = bad + records_lost;
    out.require(recorder_dropped == 0, || {
        format!("coordinator flight recorder dropped {recorder_dropped} events")
    });
    out.require(records == resident.len() as u64, || {
        format!(
            "cluster holds {records} records, the model {}",
            resident.len()
        )
    });
    out.require(records_lost == 0, || {
        format!("{records_lost} resident records could not be read back")
    });
    if cfg.pinned() {
        out.require(counts == PINNED, || {
            format!("counts {counts:?} differ from the pinned {PINNED:?}")
        });
    }

    // The gated latency is that of the two low plateaus, where a query
    // waits for a parked reactor's timer and repeats within a tenth. On
    // the high plateau (four nodes, a dozen threads) it doubles whenever
    // the host delivers timers late, for minutes at a time; that figure is
    // reported beside it, ungated.
    let low_rate = schedule.rate_at(0);
    let plateau = |seg: usize, rate: u64| {
        let first = seg as u64 * STEPS_PER_SEGMENT;
        schedule.rate_at(first) == rate && schedule.rate_at(first + STEPS_PER_SEGMENT - 1) == rate
    };
    let speeds = common::report_speed(&mut out, &seg_kernel_ns);
    let speed_of = |seg: usize| speeds[seg.min(speeds.len() - 1)];
    let high_p50 = {
        let done = lat_us.finish();
        let mut high: Vec<f64> = done
            .iter()
            .filter(|s| cfg.untraced(s.seg) && plateau(s.seg, 5 * low_rate))
            .filter_map(|s| s.p50)
            .collect();
        stats::median(&mut high)
    };
    let (p50, traced_p50) = common::report_latency(
        &mut out,
        cfg,
        &mut lat_us,
        speed_of,
        common::TIMER_BOUND,
        |seg| plateau(seg, low_rate),
    );
    out.set("loadgen.lat_p50_high_us", high_p50);
    out.set("setup_s", setup_s);
    out.set(
        "ops_per_s",
        counts.queries as f64 / (last_done.max(1) as f64 / 1e9),
    );
    out.set(
        "hit_rate",
        counts.hits as f64 / counts.queries.max(1) as f64,
    );
    for (name, value) in [
        ("queries", counts.queries),
        ("hits", counts.hits),
        ("evicted", counts.evicted),
        ("splits", counts.splits),
        ("merges", counts.merges),
        ("nodes_spawned", counts.nodes_spawned),
        ("peak_nodes", counts.peak_nodes),
        ("final_nodes", counts.final_nodes),
    ] {
        out.note(name, value as f64);
    }

    out.set(
        "loadgen.failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set(
        "loadgen.achieved_share",
        on_time as f64 / counts.queries.max(1) as f64,
    );
    out.set("loadgen.step_close_p50_ms", stats::median(&mut close_ms));
    out.set("loadgen.peak_nodes", counts.peak_nodes as f64);
    out.set("loadgen.records_lost", records_lost as f64);
    let mut late_us = pacer.lateness_us().to_vec();
    late_us.sort_by(|a, b| a.total_cmp(b));
    out.set("loadgen.late_p99_us", quantile_sorted(&late_us, 0.99));
    if cfg.trace {
        out.set(
            "trace.overhead_share",
            common::overhead_share(p50, traced_p50),
        );
        out.set("loadgen.closed_loop_qps", closed_loop_qps);
        let totals = totals_by_name(out.spans.spans());
        let per_span = |name: &str| totals.get(name).map_or(0.0, |t| t.ns_per_span());
        out.set(
            "net.coordinator.get_us",
            per_span("net.coordinator.get") / 1e3,
        );
        out.set(
            "net.coordinator.put_us",
            per_span("net.coordinator.put") / 1e3,
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        out.set("net.coordinator.put_split_ms", mean(&split_put_ms));
        out.set(
            "net.coordinator.step_close_ms",
            per_span("net.coordinator.step_close") / 1e6,
        );
        out.set("net.coordinator.step_close_merge_ms", mean(&merge_close_ms));
        out.set("net.coordinator.splits", counts.splits as f64);
        out.set("net.coordinator.merges", counts.merges as f64);
        out.set("net.coordinator.nodes_spawned", counts.nodes_spawned as f64);
        out.set("net.coordinator.evict_batches", evict_batches as f64);
        out.set(
            "net.coordinator.fanout_us_mean",
            HistTotals::of(&snap, "coord_fanout_us").mean(),
        );
        out.set(
            "net.coordinator.migrate_us_sum",
            HistTotals::of(&snap, "coord_migrate_us").sum as f64,
        );
        // Node-side histograms of the nodes alive at the end of the run
        // (a merged-away node takes its registry with it).
        let mut nodes = NodeObs::default();
        nodes.add(&ecc_obs::ObsSnapshot::default(), &snap);
        nodes.report(&mut out);
        out.set("budget.residual_share", residual_share(out.spans.spans()));
    }
    Ok(out)
}
