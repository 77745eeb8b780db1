//! `cargo xtask` — workspace automation.
//!
//! Subcommands:
//! * `analyze` — the source passes no compiler or clippy lint can make
//!   (the `unsafe` allowlist, must-use, seqcst-justify, mixed-ordering,
//!   guard-across-io, no-blocking-io-in-reactor; see
//!   [`xtask::run_analyze`]) over `crates/*/src`; prints
//!   `file:line: [rule] message` diagnostics, writes them as JSON to
//!   `target/analyze/findings.json`, and exits nonzero on any finding.
//! * `interleave [--smoke]` — the bounded interleaving explorer over the
//!   `ShardedNode` admission/ops models (`ecc_simtest::interleave`);
//!   unexpected failing schedules are shrunk and written under
//!   `target/interleave/`. The deliberately broken `CheckThenAdd` model
//!   must fail — an all-green run of it fails the command.
//! * `simtest [--seeds N] [--live-every K]` — run the deterministic
//!   cluster-simulation battery (`crates/simtest`) over seeds `0..N`;
//!   failures are shrunk, printed as replayable SIMSEEDs, and written
//!   under `target/simtest/`.
//! * `simtest --replay '<SIMSEED>'` — re-run one schedule exactly.
//! * `scenario --list | --name NAME | --all [--steps N] [--seed N]` — run
//!   zoo scenarios through the cloudsim elastic cache; `--all` writes
//!   `results/scenarios.csv`.
//! * `obs <trace.jsonl>` — pretty-print a flight-recorder trace.
//! * `obs --smoke` — the live smoke: grow a multi-node cluster, drive
//!   sampled pipelined GETs at its nodes, shrink it through window
//!   evictions, and write `target/obs/trace.jsonl`,
//!   `target/obs/exposition.txt` and `target/obs/trace_breakdown.csv`;
//!   fails unless the trace carries split, merge and eviction events, ≥99%
//!   of sampled requests reconstruct into complete span trees, and the
//!   exposition carries latency quantiles.
//! * `trace <TRACE.jsonl>... [--csv PATH]` — reconstruct span trees from
//!   one or more JSONL dumps (merged stably by timestamp), verify
//!   well-formedness, print the per-request critical-path breakdown
//!   (network / queue / lock / execute) with a p99-exemplar flame summary,
//!   and write `results/trace_breakdown.csv`.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ecc_net::client::PipelinedConn;
use ecc_net::protocol::Request;
use ecc_simtest::{check_seed, run_schedule, QuietPanics, Schedule, SeedOutcome};

const USAGE: &str = "usage: cargo xtask <analyze | interleave [--smoke] | simtest \
     [--seeds N] [--live-every K] [--replay SIMSEED] | \
     scenario <--list | --name NAME | --all> [--steps N] [--seed N] | \
     obs <TRACE.jsonl | --smoke> | trace <TRACE.jsonl...> [--csv PATH]>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(),
        Some("interleave") => interleave(&args[1..]),
        Some("simtest") => simtest(&args[1..]),
        Some("scenario") => scenario(&args[1..]),
        Some("obs") => obs(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask subcommand `{other}`");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// xtask lives at `<root>/crates/xtask`, so the workspace root is two up.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap_or_else(|| Path::new("."))
}

/// `cargo xtask analyze` — the source passes, with findings mirrored to
/// `target/analyze/findings.json` for CI.
fn analyze() -> ExitCode {
    let root = workspace_root();
    match xtask::run_analyze(root) {
        Ok((findings, scanned)) => {
            for f in &findings {
                println!("{f}");
            }
            let out_dir = root.join("target").join("analyze");
            let json = xtask::findings_to_json(&findings);
            if std::fs::create_dir_all(&out_dir)
                .and_then(|()| std::fs::write(out_dir.join("findings.json"), json))
                .is_err()
            {
                eprintln!("xtask analyze: warning: could not write findings.json");
            }
            if findings.is_empty() {
                println!("xtask analyze: {scanned} files scanned, clean");
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "xtask analyze: {} finding(s) across {scanned} scanned files",
                    findings.len()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask analyze: i/o error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `cargo xtask interleave [--smoke]` — run the bounded interleaving
/// explorer suite; write unexpected failing schedules to
/// `target/interleave/` for artifact upload.
fn interleave(args: &[String]) -> ExitCode {
    let mut smoke = false;
    for arg in args {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                eprintln!("xtask interleave: unknown flag `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let profile = if smoke { "smoke" } else { "full" };
    println!("interleave: exploring ShardedNode models ({profile} profile)…");
    let reports = ecc_simtest::run_interleave(smoke);
    let out_dir = workspace_root().join("target").join("interleave");
    let mut bad = 0usize;
    for r in &reports {
        let expected_to_fail = ecc_simtest::is_seeded_bug(r);
        let status = match (r.failures.is_empty(), expected_to_fail) {
            (true, false) => {
                if r.truncated {
                    "PASS (truncated — not a proof)"
                } else if r.preemption_bound.is_some() {
                    "PASS (within preemption bound)"
                } else {
                    "PASS (exhaustive)"
                }
            }
            (false, true) => "CAUGHT (seeded bug, as required)",
            (true, true) => {
                bad += 1;
                "BROKEN EXPLORER: seeded bug not caught"
            }
            (false, false) => {
                bad += 1;
                "FAIL"
            }
        };
        println!(
            "interleave: {:<44} {:>8} schedule(s)  {status}",
            r.model, r.schedules
        );
        if !r.failures.is_empty() && !expected_to_fail {
            for f in &r.failures {
                eprintln!("  reason  : {}", f.reason);
                eprintln!("  schedule: {:?}", f.choices);
                eprintln!("  shrunk  : {:?}", f.shrunk);
            }
            if let Err(e) = write_interleave_failures(&out_dir, r) {
                eprintln!("  (could not write failure file: {e})");
            }
        }
    }
    if bad == 0 {
        println!("interleave: all models behaved as specified");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "interleave: {bad} model(s) misbehaved; failing schedules in {}",
            out_dir.display()
        );
        ExitCode::FAILURE
    }
}

/// Persist one report's failing schedules for CI artifact upload.
fn write_interleave_failures(
    dir: &Path,
    report: &ecc_simtest::ExploreReport,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let slug: String = report
        .model
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '-' })
        .collect();
    let path = dir.join(format!("{slug}.txt"));
    let mut body = format!(
        "model     : {}\nschedules : {}\ntruncated : {}\n\n",
        report.model, report.schedules, report.truncated
    );
    for f in &report.failures {
        body.push_str(&format!(
            "reason    : {}\nschedule  : {:?}\nshrunk    : {:?}\n\n",
            f.reason, f.choices, f.shrunk
        ));
    }
    std::fs::write(&path, body)?;
    Ok(path)
}

/// `cargo xtask scenario` — run zoo scenarios through the cloudsim
/// elastic cache.
fn scenario(args: &[String]) -> ExitCode {
    use ecc_bench::scenario::{run_scenario_sim, scenario_csv_rows, SCENARIO_CSV_HEADER};
    use ecc_workload::scenario::Scenario;

    let mut list = false;
    let mut all = false;
    let mut name: Option<String> = None;
    let mut steps: Option<u64> = None;
    let mut seed = 7u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--all" => all = true,
            "--name" => match it.next() {
                Some(n) => name = Some(n.clone()),
                None => return usage_error("--name takes a scenario name"),
            },
            "--steps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => steps = Some(n),
                None => return usage_error("--steps takes an integer"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => seed = n,
                None => return usage_error("--seed takes an integer"),
            },
            other => return usage_error(&format!("unknown scenario flag `{other}`")),
        }
    }

    if list {
        for sc in Scenario::all() {
            println!(
                "{:<16} {} (default {} steps)",
                sc.name(),
                sc.summary(),
                sc.default_steps()
            );
        }
        return ExitCode::SUCCESS;
    }

    let targets: Vec<Scenario> = if all {
        Scenario::all()
    } else if let Some(n) = &name {
        match Scenario::by_name(n) {
            Some(sc) => vec![sc],
            None => {
                eprintln!(
                    "xtask scenario: unknown scenario {n:?}; known: {}",
                    Scenario::names().join(", ")
                );
                return ExitCode::from(2);
            }
        }
    } else {
        return usage_error("scenario needs --list, --name NAME or --all");
    };

    println!(
        "{:<16} {:>6} {:>9} {:>7} {:>9} {:>9} {:>8} {:>6} {:>8}",
        "scenario", "steps", "events", "writes", "hits", "misses", "hit_rate", "nodes", "speedup"
    );
    let mut summaries = Vec::new();
    for sc in &targets {
        let horizon = steps.unwrap_or_else(|| sc.default_steps());
        let s = run_scenario_sim(sc, seed, horizon);
        println!(
            "{:<16} {:>6} {:>9} {:>7} {:>9} {:>9} {:>8.3} {:>6} {:>8.2}",
            s.name,
            s.steps,
            s.events,
            s.writes,
            s.hits,
            s.misses,
            s.hit_rate(),
            s.nodes_end,
            s.speedup
        );
        summaries.push(s);
    }

    if all {
        match ecc_bench::write_csv(
            "scenarios.csv",
            SCENARIO_CSV_HEADER,
            &scenario_csv_rows(&summaries),
        ) {
            Ok(path) => println!("scenario: wrote {}", path.display()),
            Err(e) => {
                eprintln!("xtask scenario: could not write scenarios.csv: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("scenario: {} scenario(s) simulated", summaries.len());
    ExitCode::SUCCESS
}

fn obs(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("--smoke") => obs_smoke(),
        Some(path) => obs_print(Path::new(path)),
        None => {
            eprintln!("xtask obs: expected a trace path or --smoke");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Pretty-print a JSONL flight-recorder trace: one aligned line per event,
/// a per-kind tally, and a warning for unparseable lines.
fn obs_print(path: &Path) -> ExitCode {
    use ecc_obs::ObsEvent;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask obs: could not read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    let mut bad = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match ObsEvent::from_json(line) {
            Some(ev) => {
                *counts.entry(ev.kind()).or_insert(0) += 1;
                println!("{:>12} µs  {:<14} {}", ev.at_us(), ev.kind(), describe(&ev));
            }
            None => {
                eprintln!("line {}: unparseable event: {line}", i + 1);
                bad += 1;
            }
        }
    }
    println!("---");
    for (kind, n) in &counts {
        println!("{kind:<14} {n}");
    }
    if bad > 0 {
        eprintln!("xtask obs: {bad} unparseable line(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One-line human description of an event's payload.
fn describe(ev: &ecc_obs::ObsEvent) -> String {
    use ecc_obs::ObsEvent::*;
    match ev {
        BucketSplit {
            node,
            new_node,
            bucket,
            ..
        } => format!("node {node} → new node {new_node} at bucket {bucket}"),
        SweepMigrate {
            src,
            dest,
            records,
            bytes,
            duration_us,
            allocated,
            ..
        } => format!(
            "{records} records / {bytes}B from node {src} to node {dest} in {duration_us}µs{}",
            if *allocated { " (fresh node)" } else { "" }
        ),
        NodeMerge {
            src, dest, records, ..
        } => format!("node {src} drained ({records} records) into node {dest}"),
        NodeAlloc { node, .. } => format!("node {node} allocated"),
        NodeDealloc { node, .. } => format!("node {node} deallocated"),
        SliceExpire {
            expiration,
            victims,
            ..
        } => format!("slice {expiration} expired, {victims} victim(s)"),
        EvictBatch { node, keys, .. } => format!("{} key(s) evicted from node {node}", keys.len()),
        InsertError { key, .. } => format!("insert of key {key} failed"),
        SpanStart {
            trace,
            span,
            parent,
            kind,
            node,
            ..
        } => format!("{kind} span {span:#x} (trace {trace:#x}, parent {parent:#x}) on node {node}"),
        SpanEnd { span, .. } => format!("span {span:#x} ended"),
    }
}

/// Live observability smoke: grow a real cluster under coordinator traffic,
/// drive sampled pipelined GETs at its nodes, shrink it through window
/// evictions, then dump the cluster trace and exposition, analyze the span
/// trees, and hold both to the acceptance bar.
fn obs_smoke() -> ExitCode {
    use ecc_net::coordinator::LiveCoordinator;

    let fail = |what: &str| {
        eprintln!("xtask obs --smoke: {what}");
        ExitCode::FAILURE
    };

    // Grow: ~10 records of 100 B per 1000 B node; 32 spread keys force
    // splits, which trace as elastic roots. Every key is noted in the
    // eviction window via the get-miss.
    let mut coord = match LiveCoordinator::start(1 << 16, 1000) {
        Ok(c) => c,
        Err(e) => return fail(&format!("coordinator start failed: {e}")),
    };
    coord.enable_window(2, 0.99, 0.99);
    for k in 0..32u64 {
        match coord.get(k * 999) {
            Ok(None) => {
                if let Err(e) = coord.put(k * 999, vec![1; 100]) {
                    return fail(&format!("grow put failed: {e}"));
                }
            }
            Ok(Some(_)) => {}
            Err(e) => return fail(&format!("grow get failed: {e}")),
        }
    }
    println!(
        "obs smoke: grew to {} nodes ({} splits)",
        coord.node_count(),
        coord.splits
    );

    // Load, at the grown fleet: sampled pipelined GETs straight at the
    // nodes. Root spans and `client_rtt_us` go to the coordinator's own
    // registry: same recorder, same clock epoch as every node it spawned,
    // so the merged cluster dump carries both halves of every sampled
    // request. Keys span the whole hash line (the ring range-partitions
    // keys).
    const OPS: u64 = 700;
    const CLIENTS: u64 = 2;
    const SAMPLE: u64 = 4;
    const DEPTH: usize = 16;
    const KEY_SPACE: u64 = 1 << 16;
    let addrs: Vec<Option<std::net::SocketAddr>> = (0..coord.nodes_spawned)
        .map(|id| coord.node_addr(id))
        .collect();
    let ring = coord.ring();
    let load = Load {
        route: &|key| ring.node_for_key(key).and_then(|&id| addrs[id]),
        obs: coord.obs(),
        depth: DEPTH,
        sample: SAMPLE,
        key_space: KEY_SPACE,
    };
    if let Err(e) = load.run(CLIENTS, OPS.div_ceil(CLIENTS)) {
        return fail(&format!("load failed: {e}"));
    }
    println!("obs smoke: load done — {OPS} GETs from {CLIENTS} clients at pipeline depth {DEPTH}");

    // Shrink: expire every slice; victims evict, empty nodes merge. A node
    // merged away leaves its events with the coordinator first, so the
    // load's server spans on it stay in the cluster snapshot.
    for _ in 0..8 {
        if let Err(e) = coord.end_time_step() {
            return fail(&format!("end_time_step failed: {e}"));
        }
    }
    println!(
        "obs smoke: shrank to {} nodes ({} merges)",
        coord.node_count(),
        coord.merges
    );

    // Dump: one cluster-wide snapshot (coordinator + every live node).
    let snap = match coord.cluster_obs() {
        Ok(s) => s,
        Err(e) => return fail(&format!("cluster obs dump failed: {e}")),
    };
    if let Err(e) = coord.shutdown() {
        return fail(&format!("shutdown failed: {e}"));
    }
    if snap.dropped > 0 {
        return fail(&format!(
            "{} events fell out of a flight-recorder ring; the span oracle \
             would be unsound (shrink the run or grow the ring)",
            snap.dropped
        ));
    }
    let out_dir = workspace_root().join("target").join("obs");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        return fail(&format!("mkdir failed: {e}"));
    }
    let trace_path = out_dir.join("trace.jsonl");
    let expo_path = out_dir.join("exposition.txt");
    let exposition = snap.render_prometheus();
    if let Err(e) = std::fs::write(&trace_path, snap.to_jsonl()) {
        return fail(&format!("could not write trace: {e}"));
    }
    if let Err(e) = std::fs::write(&expo_path, &exposition) {
        return fail(&format!("could not write exposition: {e}"));
    }
    println!(
        "obs smoke: wrote {} ({} events, {} sampled-out spans) and {} ({} histograms)",
        trace_path.display(),
        snap.events.len(),
        snap.spans_dropped,
        expo_path.display(),
        snap.hists.len()
    );
    // Where the surviving nodes' memory went, summed over nodes (a node
    // merged away leaves its events and histograms, not its gauges).
    for gauge in ["mem_bytes:slab", "mem_bytes:tree", "mem_bytes:conn_buf"] {
        match snap.gauge(gauge) {
            Some(bytes) => println!("obs smoke: {gauge} = {bytes}"),
            None => return fail(&format!("cluster snapshot has no `{gauge}` gauge")),
        }
    }

    // Re-read through the JSONL path — the exact pipeline a user runs. The
    // breakdown stays under `target/obs/`: a debug-build capture must not
    // replace the committed results file.
    let text = match std::fs::read_to_string(&trace_path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("could not re-read trace: {e}")),
    };
    let (events, bad) = xtask::trace::parse_jsonl(&text);
    if !bad.is_empty() {
        return fail(&format!("{} unparseable JSONL line(s)", bad.len()));
    }
    let Some(analysis) = trace_report(&events, &out_dir.join("trace_breakdown.csv")) else {
        return ExitCode::FAILURE;
    };

    // Acceptance: the trace witnesses elasticity end to end, every sampled
    // request is accounted for, ≥99% reconstruct into complete trees with
    // all four phases witnessed, and the exposition carries per-op latency
    // quantiles. Sampling is per client (each counts its own GETs from 0).
    let counts = snap.event_counts();
    for kind in ["bucket_split", "node_merge", "evict_batch"] {
        if counts.get(kind).copied().unwrap_or(0) == 0 {
            return fail(&format!("trace has no `{kind}` event"));
        }
    }
    let sampled = CLIENTS * OPS.div_ceil(CLIENTS).div_ceil(SAMPLE);
    if (analysis.requests.len() as u64) != sampled {
        return fail(&format!(
            "{} request roots for {sampled} sampled requests",
            analysis.requests.len()
        ));
    }
    if snap.spans_dropped != OPS - sampled {
        return fail(&format!(
            "spans_dropped says {} but {} requests went unsampled",
            snap.spans_dropped,
            OPS - sampled
        ));
    }
    if analysis.complete_fraction() < 0.99 {
        return fail(&format!(
            "only {:.1}% of sampled requests reconstructed into complete trees",
            100.0 * analysis.complete_fraction()
        ));
    }
    if analysis.requests.iter().map(|r| r.queue_us).sum::<u64>() == 0 {
        return fail("queue phase never observed");
    }
    if analysis.requests.iter().map(|r| r.execute_us).sum::<u64>() == 0 {
        return fail("execute phase never observed");
    }
    // A `lock_wait` span is a traced request's lock acquisition that
    // waited, so there are no more of them than recorded waits.
    let lock_spans = analysis.spans.iter().filter(|s| s.kind == "lock_wait");
    let lock_spans = lock_spans.count() as u64;
    let waits: u64 = ["lock_wait_us:stripe", "lock_wait_us:structural"]
        .iter()
        .filter_map(|name| snap.hist(name))
        .map(|h| h.count())
        .sum();
    if lock_spans > waits {
        return fail(&format!(
            "{lock_spans} lock_wait spans for {waits} recorded lock waits"
        ));
    }
    if analysis.elastic_roots.is_empty() {
        return fail("no elastic operation roots in the dump");
    }
    for needle in [
        "quantile=\"0.5\"",
        "quantile=\"0.99\"",
        "ecc_server_op_us",
        "ecc_client_rtt_us_count",
    ] {
        if !exposition.contains(needle) {
            return fail(&format!("exposition is missing `{needle}`"));
        }
    }
    println!("obs smoke: trace, span trees and exposition pass the acceptance checks");
    ExitCode::SUCCESS
}

/// The smoke's load: closed-loop pipelined GETs from client threads, each
/// with one [`PipelinedConn`] per node it routes to and up to `depth`
/// requests in flight on each.
struct Load<'a> {
    /// Address of the live node owning a key.
    route: &'a (dyn Fn(u64) -> Option<std::net::SocketAddr> + Sync),
    /// Receives the root `req` spans and the `client_rtt_us` histogram.
    obs: &'a ecc_obs::ObsRegistry,
    depth: usize,
    /// Trace 1 in `sample` GETs; the rest count as sampled out.
    sample: u64,
    key_space: u64,
}

/// A GET awaiting its response: enqueue time and, when sampled, the root
/// span whose drop stamps the span end.
type Pending = (u64, Option<ecc_obs::SpanGuard>);

impl Load<'_> {
    /// `clients` threads issue `per_client` GETs each over keys drawn from
    /// a seeded LCG.
    fn run(&self, clients: u64, per_client: u64) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..clients)
                .map(|c| scope.spawn(move || self.client(c, per_client)))
                .collect();
            workers.into_iter().try_for_each(|w| {
                w.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("load client panicked")))
            })
        })
    }

    fn client(&self, c: u64, ops: u64) -> std::io::Result<()> {
        let mut conns: Vec<(std::net::SocketAddr, PipelinedConn, VecDeque<Pending>)> = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15 ^ c.wrapping_mul(0xA24B_AED4_963E_E407);
        for i in 0..ops {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = (state >> 33) % self.key_space;
            let addr = (self.route)(key)
                .ok_or_else(|| std::io::Error::other(format!("key {key} has no live owner")))?;
            let at = match conns.iter().position(|(a, ..)| *a == addr) {
                Some(at) => at,
                None => {
                    let conn = PipelinedConn::connect(addr, std::time::Duration::from_secs(5))?;
                    conns.push((addr, conn, VecDeque::new()));
                    conns.len() - 1
                }
            };
            let (_, conn, pending) = &mut conns[at];
            while conn.in_flight() >= self.depth {
                self.retire(conn, pending)?;
            }
            let root = if i % self.sample == 0 {
                Some(self.obs.span_root("req"))
            } else {
                self.obs.note_span_dropped();
                None
            };
            let ctx = root.as_ref().map(ecc_obs::SpanGuard::context);
            conn.enqueue_traced(&Request::Get { key }, ctx.as_ref())?;
            pending.push_back((self.obs.now_us(), root));
        }
        for (_, conn, pending) in &mut conns {
            while !pending.is_empty() {
                self.retire(conn, pending)?;
            }
        }
        Ok(())
    }

    /// Receive the oldest response on `conn`, record its RTT, and end its
    /// root span if it was sampled.
    fn retire(
        &self,
        conn: &mut PipelinedConn,
        pending: &mut VecDeque<Pending>,
    ) -> std::io::Result<()> {
        conn.recv()?;
        if let Some((t0, root)) = pending.pop_front() {
            self.obs
                .record("client_rtt_us", self.obs.now_us().saturating_sub(t0));
            drop(root);
        }
        Ok(())
    }
}

fn trace_cmd(args: &[String]) -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut csv: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--csv" => match it.next() {
                Some(p) => csv = Some(PathBuf::from(p)),
                None => return usage_error("--csv takes a path"),
            },
            flag if flag.starts_with("--") => {
                return usage_error(&format!("unknown trace flag `{flag}`"))
            }
            p => paths.push(PathBuf::from(p)),
        }
    }
    let csv = csv.unwrap_or_else(|| workspace_root().join("results").join("trace_breakdown.csv"));
    if paths.is_empty() {
        eprintln!("xtask trace: expected one or more JSONL dump paths");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let mut events = Vec::new();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xtask trace: could not read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let (parsed, bad) = xtask::trace::parse_jsonl(&text);
        for (line, text) in &bad {
            eprintln!("{}:{line}: unparseable event: {text}", path.display());
        }
        if !bad.is_empty() {
            eprintln!("xtask trace: {} unparseable line(s)", bad.len());
            return ExitCode::FAILURE;
        }
        events.extend(parsed);
    }
    match trace_report(&events, &csv) {
        Some(_) => ExitCode::SUCCESS,
        None => ExitCode::FAILURE,
    }
}

/// Analyze `events`, print the breakdown summary + p99 exemplar flame, and
/// write the per-request CSV. Returns the analysis, or `None` after
/// printing the verification error.
fn trace_report(events: &[ecc_obs::ObsEvent], csv: &Path) -> Option<xtask::trace::TraceAnalysis> {
    use xtask::trace::percentile;
    let analysis = match xtask::trace::analyze(events) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask trace: span stream is malformed: {e}");
            eprintln!(
                "xtask trace: a truncated dump usually means a flight recorder \
                 overflowed mid-run — re-capture with fewer ops or a higher \
                 sample rate so the run fits the ring"
            );
            return None;
        }
    };
    let s = &analysis.stats;
    println!(
        "trace: {} spans / {} traces / {} roots, {} request(s), {} elastic op(s)",
        s.spans,
        s.traces,
        s.roots,
        analysis.requests.len(),
        analysis.elastic_roots.len()
    );
    if !analysis.requests.is_empty() {
        let complete = analysis.requests.iter().filter(|r| r.complete).count();
        println!(
            "trace: {complete}/{} complete request trees ({:.1}%)",
            analysis.requests.len(),
            100.0 * analysis.complete_fraction()
        );
        let col = |f: fn(&xtask::trace::RequestBreakdown) -> u64| -> Vec<u64> {
            analysis.requests.iter().map(f).collect()
        };
        let total = col(|r| r.total_us);
        println!("trace: {:>10} {:>8} {:>8} {:>8}", "", "p50", "p99", "max");
        for (name, v) in [
            ("total", total.clone()),
            ("network", col(|r| r.network_us)),
            ("queue", col(|r| r.queue_us)),
            ("lock", col(|r| r.lock_us)),
            ("execute", col(|r| r.execute_us)),
        ] {
            println!(
                "trace: {name:>10} {:>7}µs {:>7}µs {:>7}µs",
                percentile(&v, 0.5),
                percentile(&v, 0.99),
                percentile(&v, 1.0)
            );
        }
        if let Some(ex) = analysis.exemplar(0.99) {
            println!(
                "trace: p99 exemplar — trace {:#x}, {}µs total:",
                ex.trace, ex.total_us
            );
            print!("{}", indent_block(&analysis.flame(ex.root), "trace:   "));
        }
    }
    if let Some(dir) = csv.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("xtask trace: mkdir {} failed: {e}", dir.display());
            return None;
        }
    }
    if let Err(e) = std::fs::write(csv, analysis.to_csv()) {
        eprintln!("xtask trace: could not write {}: {e}", csv.display());
        return None;
    }
    println!(
        "trace: wrote {} ({} request rows)",
        csv.display(),
        analysis.requests.len()
    );
    Some(analysis)
}

/// Prefix every line of `text` with `prefix`.
fn indent_block(text: &str, prefix: &str) -> String {
    text.lines()
        .map(|l| format!("{prefix}{l}\n"))
        .collect::<String>()
}

fn simtest(args: &[String]) -> ExitCode {
    let mut seeds = 500u64;
    let mut live_every = 8u64;
    let mut replay: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => seeds = n,
                None => return usage_error("--seeds takes an integer"),
            },
            "--live-every" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => live_every = n,
                _ => return usage_error("--live-every takes a positive integer"),
            },
            "--replay" => match it.next() {
                Some(s) => replay = Some(s.clone()),
                None => return usage_error("--replay takes a SIMSEED string"),
            },
            other => return usage_error(&format!("unknown simtest flag `{other}`")),
        }
    }

    if let Some(seed_str) = replay {
        return replay_one(&seed_str);
    }

    let out_dir = workspace_root().join("target").join("simtest");
    let _quiet = QuietPanics::install();
    let mut failures: Vec<SeedOutcome> = Vec::new();
    for seed in 0..seeds {
        let include_live = seed % live_every == 0;
        failures.extend(check_seed(seed, include_live));
        if (seed + 1) % 100 == 0 {
            println!(
                "simtest: {}/{seeds} seeds, {} failure(s)",
                seed + 1,
                failures.len()
            );
        }
    }
    drop(_quiet);

    if failures.is_empty() {
        println!("simtest: {seeds} seeds passed across all families");
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("simtest FAILURE [{}/{}] {}", f.family, f.seed, f.failure);
        eprintln!("  original : {}", f.original.encode());
        eprintln!("  shrunken : {}", f.shrunken.encode());
        if let Err(e) = write_failure(&out_dir, f) {
            eprintln!("  (could not write failure file: {e})");
        }
    }
    eprintln!(
        "simtest: {} failure(s) over {seeds} seeds; shrunken schedules in {}",
        failures.len(),
        out_dir.display()
    );
    ExitCode::FAILURE
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("xtask: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Persist one failure as `target/simtest/<family>-<seed>.txt` so CI can
/// upload it as an artifact.
fn write_failure(dir: &Path, f: &SeedOutcome) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-{}.txt", f.family, f.seed));
    let body = format!(
        "family   : {}\nseed     : {}\nfailure  : {}\noriginal : {}\nshrunken : {}\n\n\
         replay with:\n  cargo xtask simtest --replay '{}'\n",
        f.family,
        f.seed,
        f.failure,
        f.original.encode(),
        f.shrunken.encode(),
        f.shrunken.encode(),
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

fn replay_one(seed_str: &str) -> ExitCode {
    let sched = match Schedule::decode(seed_str) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simtest: bad SIMSEED: {e}");
            return ExitCode::from(2);
        }
    };
    // Canonical-encoding check: what we replay is exactly what was printed.
    println!("replaying: {}", sched.encode());
    match run_schedule(&sched) {
        Ok(()) => {
            println!("simtest replay: schedule passed");
            ExitCode::SUCCESS
        }
        Err(f) => {
            eprintln!("simtest replay: {f}");
            ExitCode::FAILURE
        }
    }
}
