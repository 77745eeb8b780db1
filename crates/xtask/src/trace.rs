//! Critical-path analysis over reconstructed span trees — the engine
//! behind `cargo xtask trace`.
//!
//! Input is the JSONL flight-recorder dump format (one [`ObsEvent`] per
//! line, as written by `xtask obs --smoke`), possibly concatenated from
//! several recorders. The analyzer rebuilds the span forest, verifies
//! well-formedness, and attributes each sampled request's wall time to
//! four exclusive phases:
//!
//! * **network** — root duration minus the server subtree (`req`/`wire:*`
//!   minus `srv`): wire transit, frame assembly, and response flush;
//! * **queue** — `srv_queue`: reactor wakeup to dispatch, which for
//!   pipelined bursts includes waiting behind earlier frames of the same
//!   sweep;
//! * **lock** — `lock_wait`: stripe/structural lock acquisition inside
//!   `ShardedNode`;
//! * **execute** — `srv_exec` minus its lock waits: the cache operation
//!   proper.
//!
//! Elasticity roots (`elastic_*`) are surfaced separately — they are
//! control-plane operations, not requests, and their cost model is the
//! migration volume, not a queue/lock split.

use std::fmt::Write as _;

use ecc_obs::{build_spans, verify_spans, ObsEvent, Span, SpanStats};

/// One sampled request's critical-path attribution.
#[derive(Debug, Clone)]
pub struct RequestBreakdown {
    /// Trace id (the root span's own id).
    pub trace: u64,
    /// Root span kind (`req` from the load generator, `wire:<op>` from a
    /// coordinator-side client).
    pub kind: String,
    /// Index of the root span in the analyzed forest.
    pub root: usize,
    /// End-to-end duration.
    pub total_us: u64,
    /// Time outside the server subtree.
    pub network_us: u64,
    /// Reactor queue wait.
    pub queue_us: u64,
    /// Lock acquisition wait.
    pub lock_us: u64,
    /// Execution time net of lock waits.
    pub execute_us: u64,
    /// Whether the tree is complete: a server subtree with both a queue
    /// and an execute phase under the root.
    pub complete: bool,
}

/// The full analysis of one trace dump.
#[derive(Debug)]
pub struct TraceAnalysis {
    /// Well-formedness summary from [`verify_spans`].
    pub stats: SpanStats,
    /// The reconstructed forest (index-linked, see [`Span::children`]).
    pub spans: Vec<Span>,
    /// Per-request breakdowns, in input order.
    pub requests: Vec<RequestBreakdown>,
    /// Root spans of elasticity operations (indices into `spans`).
    pub elastic_roots: Vec<usize>,
}

/// Parse JSONL text into events; unparseable lines are returned as
/// `(line_number, text)` so the caller can warn without dying.
pub fn parse_jsonl(text: &str) -> (Vec<ObsEvent>, Vec<(usize, String)>) {
    let mut events = Vec::new();
    let mut bad = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match ObsEvent::from_json(line) {
            Some(ev) => events.push(ev),
            None => bad.push((i + 1, line.to_string())),
        }
    }
    (events, bad)
}

/// Sum the durations of every span of `kind` in the subtree under `root`
/// (the root itself included).
fn subtree_sum(spans: &[Span], root: usize, kind: &str) -> u64 {
    let mut sum = 0;
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        if spans[i].kind == kind {
            sum += spans[i].duration_us();
        }
        stack.extend(spans[i].children.iter().copied());
    }
    sum
}

/// Whether the subtree under `root` contains a span of `kind`.
fn subtree_has(spans: &[Span], root: usize, kind: &str) -> bool {
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        if spans[i].kind == kind {
            return true;
        }
        stack.extend(spans[i].children.iter().copied());
    }
    false
}

/// Rebuild the span forest from `events`, verify it, and compute the
/// per-request critical-path breakdowns. Events may come from several
/// recorders; they are stably ordered by timestamp first, which preserves
/// each recorder's start-before-end ordering for zero-duration spans.
pub fn analyze(events: &[ObsEvent]) -> Result<TraceAnalysis, String> {
    let mut events: Vec<ObsEvent> = events.to_vec();
    events.sort_by_key(ObsEvent::at_us);
    let stats = verify_spans(&events)?;
    let spans = build_spans(&events)?;
    let mut requests = Vec::new();
    let mut elastic_roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            continue;
        }
        if s.kind.starts_with("elastic_") {
            elastic_roots.push(i);
            continue;
        }
        if s.kind != "req" && !s.kind.starts_with("wire:") {
            continue;
        }
        let total_us = s.duration_us();
        let srv_us = subtree_sum(&spans, i, "srv");
        let queue_us = subtree_sum(&spans, i, "srv_queue");
        let lock_us = subtree_sum(&spans, i, "lock_wait");
        let exec_gross = subtree_sum(&spans, i, "srv_exec");
        requests.push(RequestBreakdown {
            trace: s.trace,
            kind: s.kind.clone(),
            root: i,
            total_us,
            network_us: total_us.saturating_sub(srv_us),
            queue_us,
            lock_us,
            execute_us: exec_gross.saturating_sub(lock_us),
            complete: subtree_has(&spans, i, "srv_queue") && subtree_has(&spans, i, "srv_exec"),
        });
    }
    Ok(TraceAnalysis {
        stats,
        spans,
        requests,
        elastic_roots,
    })
}

impl TraceAnalysis {
    /// Fraction of request roots whose trees are complete (1.0 when there
    /// are no requests at all — nothing sampled means nothing lost).
    pub fn complete_fraction(&self) -> f64 {
        if self.requests.is_empty() {
            return 1.0;
        }
        let complete = self.requests.iter().filter(|r| r.complete).count();
        complete as f64 / self.requests.len() as f64
    }

    /// The request at quantile `q` (by total duration), e.g. `0.99` for
    /// the p99 exemplar.
    pub fn exemplar(&self, q: f64) -> Option<&RequestBreakdown> {
        if self.requests.is_empty() {
            return None;
        }
        let mut order: Vec<usize> = (0..self.requests.len()).collect();
        order.sort_by_key(|&i| self.requests[i].total_us);
        let rank = ((order.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(&self.requests[order[rank]])
    }

    /// Indented flame summary of the subtree under span index `root`:
    /// every span with its duration and share of the root.
    pub fn flame(&self, root: usize) -> String {
        let mut out = String::new();
        let total = self.spans[root].duration_us().max(1);
        let mut stack = vec![(root, 0usize)];
        while let Some((i, depth)) = stack.pop() {
            let s = &self.spans[i];
            let _ = writeln!(
                out,
                "{:indent$}{} {}µs ({:.0}%) [node {}]",
                "",
                s.kind,
                s.duration_us(),
                100.0 * s.duration_us() as f64 / total as f64,
                s.node,
                indent = depth * 2
            );
            // Children pushed in reverse so the leftmost (earliest-linked)
            // child prints first.
            for &c in s.children.iter().rev() {
                stack.push((c, depth + 1));
            }
        }
        out
    }

    /// CSV rendering of the per-request breakdowns (header + one row per
    /// request).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "trace_id,kind,total_us,network_us,queue_us,lock_us,execute_us,complete\n",
        );
        for r in &self.requests {
            let _ = writeln!(
                out,
                "{:#x},{},{},{},{},{},{},{}",
                r.trace,
                r.kind,
                r.total_us,
                r.network_us,
                r.queue_us,
                r.lock_us,
                r.execute_us,
                r.complete
            );
        }
        out
    }
}

/// `q`-th percentile of `values` (nearest-rank on a sorted copy).
pub fn percentile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    v[rank]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(at: u64, trace: u64, span: u64, parent: u64, kind: &str, node: u32) -> ObsEvent {
        ObsEvent::SpanStart {
            at_us: at,
            trace,
            span,
            parent,
            kind: kind.to_string(),
            node,
        }
    }

    fn end(at: u64, span: u64) -> ObsEvent {
        ObsEvent::SpanEnd { at_us: at, span }
    }

    /// One request tree: req [0,100] → srv [10,90] → queue [10,20],
    /// exec [20,90] → lock [25,30].
    fn one_request(base: u64, trace: u64) -> Vec<ObsEvent> {
        let id = |k: u64| trace * 100 + k;
        vec![
            start(base, trace, id(1), 0, "req", 9),
            start(base + 10, trace, id(2), id(1), "srv", 1),
            start(base + 10, trace, id(3), id(2), "srv_queue", 1),
            end(base + 20, id(3)),
            start(base + 20, trace, id(4), id(2), "srv_exec", 1),
            start(base + 25, trace, id(5), id(4), "lock_wait", 1),
            end(base + 30, id(5)),
            end(base + 90, id(4)),
            end(base + 90, id(2)),
            end(base + 100, id(1)),
        ]
    }

    #[test]
    fn breakdown_attributes_all_four_phases() {
        let evs = one_request(0, 1);
        let a = analyze(&evs).expect("well-formed");
        assert_eq!(a.requests.len(), 1);
        let r = &a.requests[0];
        assert_eq!(r.total_us, 100);
        assert_eq!(r.network_us, 20); // 100 − srv's 80
        assert_eq!(r.queue_us, 10);
        assert_eq!(r.lock_us, 5);
        assert_eq!(r.execute_us, 65); // exec 70 − lock 5
        assert!(r.complete);
        assert!((a.complete_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn incomplete_trees_are_flagged_not_fatal() {
        // A req whose server half was never recorded (unsampled server,
        // or a node that died before dumping) — still well-formed spans,
        // just not a complete tree.
        let evs = vec![start(0, 5, 501, 0, "req", 9), end(40, 501)];
        let a = analyze(&evs).expect("well-formed");
        assert_eq!(a.requests.len(), 1);
        assert!(!a.requests[0].complete);
        assert_eq!(a.requests[0].network_us, 40);
        assert!(a.complete_fraction() < 1.0);
    }

    #[test]
    fn elastic_roots_are_separated_from_requests() {
        let mut evs = one_request(0, 1);
        evs.push(start(200, 7, 701, 0, "elastic_split", 0));
        evs.push(start(210, 7, 702, 701, "migrate_chunk", 0));
        evs.push(end(240, 702));
        evs.push(end(250, 701));
        let a = analyze(&evs).expect("well-formed");
        assert_eq!(a.requests.len(), 1);
        assert_eq!(a.elastic_roots.len(), 1);
        assert_eq!(a.spans[a.elastic_roots[0]].kind, "elastic_split");
    }

    #[test]
    fn exemplar_picks_by_total_duration() {
        let mut evs = Vec::new();
        // Trace 1 lasts 100µs, trace 2 is stretched to 200µs.
        evs.extend(one_request(0, 1));
        let mut slow = one_request(1000, 2);
        if let Some(ObsEvent::SpanEnd { at_us, .. }) = slow.last_mut() {
            *at_us += 100;
        }
        evs.extend(slow);
        let a = analyze(&evs).expect("well-formed");
        assert_eq!(a.exemplar(0.99).unwrap().trace, 2);
        assert_eq!(a.exemplar(0.0).unwrap().trace, 1);
        let flame = a.flame(a.exemplar(0.99).unwrap().root);
        assert!(flame.contains("req"), "{flame}");
        assert!(flame.contains("srv_exec"), "{flame}");
    }

    #[test]
    fn csv_has_header_and_one_row_per_request() {
        let a = analyze(&one_request(0, 3)).unwrap();
        let csv = a.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("trace_id,kind,total_us"));
        assert!(lines[1].contains(",req,100,20,10,5,65,true"));
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let evs = one_request(0, 4);
        let text: String = evs.iter().map(|e| format!("{}\n", e.to_json())).collect();
        let (parsed, bad) = parse_jsonl(&text);
        assert!(bad.is_empty());
        assert_eq!(parsed.len(), evs.len());
        assert!(analyze(&parsed).is_ok());
    }

    #[test]
    fn malformed_streams_are_rejected() {
        let evs = vec![start(0, 1, 1, 0, "req", 0)];
        assert!(analyze(&evs).is_err(), "unended span must fail");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [30, 10, 20];
        assert_eq!(percentile(&v, 0.5), 20);
        assert_eq!(percentile(&v, 0.99), 30);
        let v: Vec<u64> = (1..=101).collect();
        assert_eq!(percentile(&v, 0.5), 51);
        assert_eq!(percentile(&v, 1.0), 101);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
