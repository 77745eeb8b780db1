//! Causal tracing: wire-propagated span trees over the flight recorder.
//!
//! A *span* is one timed phase of a causal tree — a client request, the
//! server-side queue wait and execution it caused, a coordinator fan-out
//! and the per-node wire ops underneath it, or a whole elasticity
//! operation. Spans are recorded as paired [`ObsEvent::SpanStart`] /
//! [`ObsEvent::SpanEnd`] events through the ordinary [`ObsRegistry`]
//! machinery, so they share the virtual clock, the ring-buffer bounds, the
//! `ObsDump` wire codec, and the JSONL trace format with every other
//! event.
//!
//! **Span id allocation.** Ids must stay unique after merging snapshots
//! from many recorders (client, coordinator, every node), so each registry
//! carries an *origin* tag and allocates `origin << 40 | seq` from an
//! atomic counter — collision-free for up to 2^40 spans per origin without
//! any cross-node coordination (and without wall-clock randomness, which
//! the workspace bans). Origin 0/seq 0 is never allocated: parent id 0
//! means "root".
//!
//! **Propagation.** Within a thread, spans nest implicitly: every live
//! [`SpanGuard`] sits on a thread-local stack and
//! [`ObsRegistry::span_follow`] parents under the innermost one, which is
//! how `ShardedNode` lock waits attach to the server execution span
//! without any API threading. Across the wire, a [`TraceContext`] rides in
//! the versioned frame extension (`ecc-net::protocol`): the receiver
//! parents its spans under the sender's `span_id`.
//!
//! **Well-formedness** is checkable: [`verify_spans`] asserts every start
//! has exactly one end, parentage is acyclic with zero orphans, and child
//! intervals nest inside their parents under the (shared) clock. The
//! simtest oracles and `cargo xtask trace` both run it.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::event::ObsEvent;
use crate::registry::ObsRegistry;

/// Trace identity carried across the wire in the optional frame extension:
/// which causal tree a request belongs to and which sender span the
/// receiver's spans should parent under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Id shared by every span of one causal tree.
    pub trace_id: u64,
    /// The sender-side span covering this request; the receiver parents
    /// its spans under it.
    pub span_id: u64,
    /// The sender span's own parent (0 = root) — carried for completeness
    /// so a receiver can reconstruct locally even from a partial dump.
    pub parent_span_id: u64,
    /// Sampling bit: receivers only record spans when set.
    pub sampled: bool,
}

thread_local! {
    /// Innermost-last stack of live spans on this thread (trace, span).
    static CURRENT: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// RAII handle for an open span: records `SpanEnd` (and pops the span off
/// the thread-local stack) on drop, so every start gets an end on every
/// path — including panics and early returns.
#[must_use = "dropping the guard immediately would record an empty span"]
#[derive(Debug)]
pub struct SpanGuard {
    reg: ObsRegistry,
    trace: u64,
    span: u64,
}

impl SpanGuard {
    pub(crate) fn open(reg: &ObsRegistry, trace: u64, span: u64) -> SpanGuard {
        CURRENT.with(|c| c.borrow_mut().push((trace, span)));
        SpanGuard {
            reg: reg.clone(),
            trace,
            span,
        }
    }

    /// This span's globally unique id.
    pub fn id(&self) -> u64 {
        self.span
    }

    /// The trace this span belongs to.
    pub fn trace_id(&self) -> u64 {
        self.trace
    }

    /// The context a peer should receive to parent its spans under this
    /// one.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace,
            span_id: self.span,
            parent_span_id: 0,
            sampled: true,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Guards usually drop LIFO, but a pipelined client retires its
        // root spans FIFO — remove by value (innermost-first search).
        CURRENT.with(|c| {
            let mut stack = c.borrow_mut();
            if let Some(i) = stack.iter().rposition(|&(_, s)| s == self.span) {
                stack.remove(i);
            }
        });
        let at_us = self.reg.now_us();
        self.reg.emit(ObsEvent::SpanEnd {
            at_us,
            span: self.span,
        });
    }
}

/// The innermost live span on this thread as `(trace_id, span_id)`, if
/// any. Callers that cannot use [`ObsRegistry::span_follow`] directly —
/// e.g. a client that needs the pair to scope a *wire* span — read the
/// scope here and thread it explicitly.
pub fn current_span() -> Option<(u64, u64)> {
    CURRENT.with(|c| c.borrow().last().copied())
}

/// One reconstructed span interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Trace id.
    pub trace: u64,
    /// Span id.
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Kind tag.
    pub kind: String,
    /// Origin tag of the emitting recorder.
    pub node: u32,
    /// Start time, µs.
    pub start_us: u64,
    /// End time, µs.
    pub end_us: u64,
    /// Indices (into the returned `Vec<Span>`) of child spans.
    pub children: Vec<usize>,
}

impl Span {
    /// Span duration in µs.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Pair up `SpanStart`/`SpanEnd` events into [`Span`] intervals and link
/// children to parents. Fails on duplicate ids, an end without a start, or
/// a start without an end; parent links that point at unknown spans are
/// left dangling for [`verify_spans`] to flag (the spans themselves are
/// still returned).
pub fn build_spans(events: &[ObsEvent]) -> Result<Vec<Span>, String> {
    let mut spans: Vec<Span> = Vec::new();
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let mut open: HashMap<u64, usize> = HashMap::new();
    for ev in events {
        match ev {
            ObsEvent::SpanStart {
                at_us,
                trace,
                span,
                parent,
                kind,
                node,
            } => {
                if by_id.contains_key(span) {
                    return Err(format!("duplicate span id {span:#x} ({kind})"));
                }
                by_id.insert(*span, spans.len());
                open.insert(*span, spans.len());
                spans.push(Span {
                    trace: *trace,
                    span: *span,
                    parent: *parent,
                    kind: kind.clone(),
                    node: *node,
                    start_us: *at_us,
                    end_us: *at_us,
                    children: Vec::new(),
                });
            }
            ObsEvent::SpanEnd { at_us, span } => {
                let Some(i) = open.remove(span) else {
                    return Err(format!("span_end for unknown or closed span {span:#x}"));
                };
                spans[i].end_us = *at_us;
            }
            _ => {}
        }
    }
    if let Some((&span, _)) = open.iter().next() {
        let kind = &spans[by_id[&span]].kind;
        return Err(format!("span {span:#x} ({kind}) never ended"));
    }
    for i in 0..spans.len() {
        let parent = spans[i].parent;
        if parent != 0 {
            if let Some(&p) = by_id.get(&parent) {
                spans[p].children.push(i);
            }
        }
    }
    Ok(spans)
}

/// Summary statistics from a successful [`verify_spans`] run.
#[must_use]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Total spans.
    pub spans: usize,
    /// Root spans (parent 0).
    pub roots: usize,
    /// Distinct trace ids.
    pub traces: usize,
}

/// Assert span well-formedness over an event stream: every start has
/// exactly one end, every non-root parent exists (zero orphans), parentage
/// is acyclic, and each child's interval nests inside its parent's under
/// the shared clock. Returns summary stats on success.
///
/// Only meaningful over recorders that share one clock epoch ([`TimeSource`]
/// handles cloned from one) — which is how every in-process cluster here is
/// built.
///
/// [`TimeSource`]: crate::TimeSource
pub fn verify_spans(events: &[ObsEvent]) -> Result<SpanStats, String> {
    let spans = build_spans(events)?;
    let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.span, i)).collect();
    let mut traces: Vec<u64> = spans.iter().map(|s| s.trace).collect();
    traces.sort_unstable();
    traces.dedup();
    let mut roots = 0usize;
    for s in &spans {
        if s.parent == 0 {
            roots += 1;
            continue;
        }
        let Some(&p) = by_id.get(&s.parent) else {
            return Err(format!(
                "orphan span {:#x} ({}): parent {:#x} not in the stream",
                s.span, s.kind, s.parent
            ));
        };
        let parent = &spans[p];
        if parent.trace != s.trace {
            return Err(format!(
                "span {:#x} ({}) crosses traces: {:#x} vs parent's {:#x}",
                s.span, s.kind, s.trace, parent.trace
            ));
        }
        if s.start_us < parent.start_us || s.end_us > parent.end_us {
            return Err(format!(
                "span {:#x} ({}) [{}, {}] escapes parent {:#x} ({}) [{}, {}]",
                s.span,
                s.kind,
                s.start_us,
                s.end_us,
                parent.span,
                parent.kind,
                parent.start_us,
                parent.end_us
            ));
        }
        // Acyclic: walk to a root; ids are unique, so a chain longer than
        // the span count must loop.
        let mut hops = 0usize;
        let mut cur = s.parent;
        while cur != 0 {
            hops += 1;
            if hops > spans.len() {
                return Err(format!("parent cycle through span {:#x}", s.span));
            }
            cur = by_id.get(&cur).map(|&i| spans[i].parent).unwrap_or(0);
        }
    }
    Ok(SpanStats {
        spans: spans.len(),
        roots,
        traces: traces.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TimeSource;

    fn start(at: u64, trace: u64, span: u64, parent: u64, kind: &str) -> ObsEvent {
        ObsEvent::SpanStart {
            at_us: at,
            trace,
            span,
            parent,
            kind: kind.to_string(),
            node: 0,
        }
    }

    fn end(at: u64, span: u64) -> ObsEvent {
        ObsEvent::SpanEnd { at_us: at, span }
    }

    #[test]
    fn guards_emit_paired_events_and_nest_via_thread_local() {
        let reg = ObsRegistry::new(TimeSource::real());
        reg.set_origin(3);
        {
            let root = reg.span_start("req", 99, 0);
            assert_eq!(root.trace_id(), 99);
            assert_eq!(root.id() >> 40, 3);
            let child = reg.span_follow("lock_wait").expect("active parent");
            assert_eq!(child.trace_id(), 99);
            drop(child);
        }
        assert!(
            reg.span_follow("lock_wait").is_none(),
            "stack must be empty"
        );
        let snap = reg.snapshot();
        let stats = verify_spans(&snap.events).expect("well-formed");
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.roots, 1);
        assert_eq!(stats.traces, 1);
        let spans = build_spans(&snap.events).unwrap();
        let root = spans.iter().find(|s| s.kind == "req").unwrap();
        let child = spans.iter().find(|s| s.kind == "lock_wait").unwrap();
        assert_eq!(child.parent, root.span);
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn fifo_retirement_of_pipelined_roots_keeps_the_stack_sound() {
        let reg = ObsRegistry::new(TimeSource::real());
        let a = reg.span_start("req", 1, 0);
        let b = reg.span_start("req", 2, 0);
        drop(a); // FIFO: oldest first
        let follow = reg.span_follow("x").expect("b still active");
        assert_eq!(follow.trace_id(), 2);
        drop(follow);
        drop(b);
        assert!(reg.span_follow("x").is_none());
    }

    #[test]
    fn span_ids_are_unique_across_origins() {
        let a = ObsRegistry::new(TimeSource::real());
        let b = ObsRegistry::new(TimeSource::real());
        a.set_origin(1);
        b.set_origin(2);
        let s1 = a.span_start("x", 1, 0);
        let s2 = b.span_start("x", 1, 0);
        assert_ne!(s1.id(), s2.id());
        assert_ne!(s1.id(), 0, "span id 0 is reserved for 'no parent'");
    }

    #[test]
    fn verify_rejects_unended_orphaned_escaping_and_cyclic_spans() {
        // Unended.
        let evs = vec![start(1, 1, 10, 0, "a")];
        assert!(build_spans(&evs).unwrap_err().contains("never ended"));
        // End without start.
        let evs = vec![end(2, 10)];
        assert!(build_spans(&evs).unwrap_err().contains("unknown"));
        // Orphan parent.
        let evs = vec![start(1, 1, 10, 77, "a"), end(2, 10)];
        assert!(verify_spans(&evs).unwrap_err().contains("orphan"));
        // Child escapes parent interval.
        let evs = vec![
            start(5, 1, 10, 0, "p"),
            start(3, 1, 11, 10, "c"),
            end(6, 11),
            end(7, 10),
        ];
        assert!(verify_spans(&evs).unwrap_err().contains("escapes"));
        // Two spans parenting each other.
        let evs = vec![
            start(1, 1, 10, 11, "a"),
            start(1, 1, 11, 10, "b"),
            end(2, 10),
            end(2, 11),
        ];
        assert!(verify_spans(&evs).is_err());
        // Duplicate id.
        let evs = vec![start(1, 1, 10, 0, "a"), start(2, 1, 10, 0, "b")];
        assert!(build_spans(&evs).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn well_formed_two_level_tree_passes() {
        let evs = vec![
            start(0, 7, 1, 0, "req"),
            start(2, 7, 2, 1, "srv"),
            start(2, 7, 3, 2, "srv_exec"),
            end(5, 3),
            end(6, 2),
            end(9, 1),
        ];
        let stats = verify_spans(&evs).expect("well-formed");
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.roots, 1);
    }
}
