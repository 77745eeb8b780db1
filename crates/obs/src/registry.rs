//! Per-node observability registry and snapshot aggregation.
//!
//! An [`ObsRegistry`] bundles one [`FlightRecorder`] with a set of named
//! [`LogHistogram`]s behind a cheaply cloneable handle, so a server, its
//! connection threads, and the coordinator can all write into the same
//! store. [`ObsSnapshot`] is the immutable, mergeable read-out: the
//! coordinator fans out `ObsDump` to every node, merges the snapshots, and
//! renders one cluster-wide Prometheus-style exposition.
//!
//! Histogram naming convention: `metric` or `metric:label`. The label part
//! becomes an `op="label"` Prometheus label, so `server_op_us:get` renders
//! as `ecc_server_op_us{op="get",...}`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::event::ObsEvent;
use crate::hist::LogHistogram;
use crate::recorder::{FlightRecorder, DEFAULT_CAPACITY};
use crate::trace::{current_span, SpanGuard};

/// Where a registry's own timestamps come from: monotonic microseconds
/// since a captured epoch, so library crates never touch the wall clock
/// themselves. Clones share the epoch. Simulated components read no time
/// here: they stamp their events from their own virtual clock.
#[derive(Debug, Clone)]
pub struct TimeSource {
    epoch: Instant,
}

impl TimeSource {
    /// A real-time source anchored at "now".
    #[expect(
        clippy::disallowed_methods,
        reason = "obs owns the real-time epoch, so instrumented crates never read the wall clock"
    )]
    pub fn real() -> Self {
        TimeSource {
            epoch: Instant::now(),
        }
    }

    /// Microseconds since the epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

struct Inner {
    time: TimeSource,
    recorder: Mutex<FlightRecorder>,
    hists: Mutex<BTreeMap<String, LogHistogram>>,
    /// Last-write-wins named gauges (`metric` or `metric:label`), e.g. the
    /// slab arena's per-class occupancy.
    gauges: Mutex<BTreeMap<String, u64>>,
    /// Origin tag baked into span ids (`origin << 40 | seq`) so spans from
    /// different recorders stay unique after a snapshot merge.
    origin: AtomicU32,
    /// Next span sequence number; starts at 1 so span id 0 (= "no
    /// parent") is never allocated.
    span_seq: AtomicU64,
    /// Root spans skipped by the sampling knob (tracing overhead bound).
    spans_dropped: AtomicU64,
}

/// Shared handle to one node's recorder + histograms. Clones share state.
#[derive(Clone)]
pub struct ObsRegistry {
    inner: Arc<Inner>,
}

impl ObsRegistry {
    /// A registry with the default recorder capacity.
    pub fn new(time: TimeSource) -> Self {
        Self::with_capacity(time, DEFAULT_CAPACITY)
    }

    /// A registry whose flight recorder retains at most `capacity` events.
    pub fn with_capacity(time: TimeSource, capacity: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                time,
                recorder: Mutex::new(FlightRecorder::new(capacity)),
                hists: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                origin: AtomicU32::new(0),
                span_seq: AtomicU64::new(1),
                spans_dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Set the origin tag baked into this registry's span ids. Give every
    /// recorder in a cluster a distinct origin (node id, a client tag) so
    /// merged snapshots cannot collide.
    pub fn set_origin(&self, origin: u32) {
        self.inner.origin.store(origin, Ordering::Relaxed);
    }

    /// Allocate the next globally unique span id.
    fn next_span_id(&self) -> u64 {
        let origin = self.inner.origin.load(Ordering::Relaxed) as u64;
        let seq = self.inner.span_seq.fetch_add(1, Ordering::Relaxed);
        (origin << 40) | (seq & ((1 << 40) - 1))
    }

    /// Open a span under `parent` (0 = root) stamped "now"; the returned
    /// guard records the matching `SpanEnd` on drop.
    #[must_use = "the span ends when its guard drops: bind it across the work it measures"]
    pub fn span_start(&self, kind: &'static str, trace_id: u64, parent: u64) -> SpanGuard {
        let at_us = self.now_us();
        self.span_start_at(kind, trace_id, parent, at_us)
    }

    /// Open a span whose start is back-dated to `at_us` — for phases whose
    /// beginning was observed before the trace context was decoded (a
    /// frame that arrived at the top of a reactor sweep).
    #[must_use = "the span ends when its guard drops: bind it across the work it measures"]
    pub fn span_start_at(
        &self,
        kind: &'static str,
        trace_id: u64,
        parent: u64,
        at_us: u64,
    ) -> SpanGuard {
        let span = self.next_span_id();
        self.emit(ObsEvent::SpanStart {
            at_us,
            trace: trace_id,
            span,
            parent,
            kind: kind.to_string(),
            node: self.inner.origin.load(Ordering::Relaxed),
        });
        SpanGuard::open(self, trace_id, span)
    }

    /// Open a root span that begins a fresh trace: the span's own globally
    /// unique id doubles as the trace id, so starting a trace needs no
    /// separate id allocator (and no wall clock or randomness, which the
    /// workspace bans).
    #[must_use = "the span ends when its guard drops: bind it across the work it measures"]
    pub fn span_root(&self, kind: &'static str) -> SpanGuard {
        let span = self.next_span_id();
        self.emit(ObsEvent::SpanStart {
            at_us: self.now_us(),
            trace: span,
            span,
            parent: 0,
            kind: kind.to_string(),
            node: self.inner.origin.load(Ordering::Relaxed),
        });
        SpanGuard::open(self, span, span)
    }

    /// Open a child of the innermost live span on this thread, or `None`
    /// when no span is active (the request was not sampled) — which makes
    /// deep instrumentation free on the unsampled path.
    #[must_use = "the span ends when its guard drops: bind it across the work it measures"]
    pub fn span_follow(&self, kind: &'static str) -> Option<SpanGuard> {
        let (trace, parent) = current_span()?;
        Some(self.span_start(kind, trace, parent))
    }

    /// Count one root span skipped by the sampling knob.
    pub fn note_span_dropped(&self) {
        self.inner.spans_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Root spans skipped by sampling so far.
    pub fn spans_dropped(&self) -> u64 {
        self.inner.spans_dropped.load(Ordering::Relaxed)
    }

    /// Current time in microseconds under this registry's source.
    pub fn now_us(&self) -> u64 {
        self.inner.time.now_us()
    }

    /// A handle on this registry's clock, for spawning other recorders on
    /// the same epoch (cross-recorder span nesting needs a shared zero).
    pub fn time(&self) -> TimeSource {
        self.inner.time.clone()
    }

    /// Record one event into the flight recorder.
    pub fn emit(&self, ev: ObsEvent) {
        self.inner.recorder.lock().push(ev);
    }

    /// Record one latency/size sample into the named histogram.
    pub fn record(&self, name: &str, value: u64) {
        let mut hists = self.inner.hists.lock();
        match hists.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = LogHistogram::new();
                h.record(value);
                hists.insert(name.to_owned(), h);
            }
        }
    }

    /// Fold what one thread accumulated on its own into the shared store —
    /// the batched form of [`record`](Self::record) and
    /// [`add_gauge`](Self::add_gauge) for a path too hot to take a
    /// registry lock per sample. Every non-empty histogram of `hists` is
    /// merged into the registry's histogram of that name and emptied,
    /// under one acquisition of the histogram lock; every non-zero delta
    /// of `counters` is added to the gauge of that name and zeroed. A batch
    /// with nothing in it takes no lock. The result is what per-sample
    /// calls would have left.
    pub fn fold(&self, hists: &mut [(&str, LogHistogram)], counters: &mut [(&str, u64)]) {
        if hists.iter().any(|(_, h)| !h.is_empty()) {
            let mut shared = self.inner.hists.lock();
            for (name, h) in hists.iter_mut().filter(|(_, h)| !h.is_empty()) {
                match shared.get_mut(*name) {
                    Some(mine) => mine.merge(h),
                    None => {
                        shared.insert((*name).to_owned(), h.clone());
                    }
                }
                *h = LogHistogram::new();
            }
        }
        for (name, delta) in counters.iter_mut().filter(|(_, delta)| *delta > 0) {
            self.add_gauge(name, std::mem::take(delta));
        }
    }

    /// Set the named gauge to `value` (last write wins). Same naming
    /// convention as histograms: `metric` or `metric:label`.
    pub fn set_gauge(&self, name: &str, value: u64) {
        let mut gauges = self.inner.gauges.lock();
        match gauges.get_mut(name) {
            Some(g) => *g = value,
            None => {
                gauges.insert(name.to_owned(), value);
            }
        }
    }

    /// Add `delta` to the named gauge (absent reads as 0), which makes it
    /// a monotonic counter: every writer adds, nobody overwrites.
    pub fn add_gauge(&self, name: &str, delta: u64) {
        let mut gauges = self.inner.gauges.lock();
        match gauges.get_mut(name) {
            Some(g) => *g += delta,
            None => {
                gauges.insert(name.to_owned(), delta);
            }
        }
    }

    /// Move the named gauge by `new - old`: how several writers keep one
    /// summed gauge, each reporting the change of its own share (`old` is
    /// what that writer reported last, and so part of the gauge).
    pub fn shift_gauge(&self, name: &str, old: u64, new: u64) {
        let mut gauges = self.inner.gauges.lock();
        match gauges.get_mut(name) {
            Some(g) => *g = (*g + new).saturating_sub(old),
            None => {
                gauges.insert(name.to_owned(), new);
            }
        }
    }

    /// Current value of the named gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.inner.gauges.lock().get(name).copied()
    }

    /// Sequence number the next recorded event will get; pair with
    /// [`events_since`](Self::events_since) for incremental draining.
    pub fn next_seq(&self) -> u64 {
        self.inner.recorder.lock().next_seq()
    }

    /// Clone out every retained event with sequence number `>= seq`.
    pub fn events_since(&self, seq: u64) -> Vec<(u64, ObsEvent)> {
        self.inner
            .recorder
            .lock()
            .events_since(seq)
            .map(|(s, ev)| (s, ev.clone()))
            .collect()
    }

    /// Retained flight-recorder contents as JSONL, oldest first.
    pub fn to_jsonl(&self) -> String {
        self.inner.recorder.lock().to_jsonl()
    }

    /// Append the [`crate::encode_dump`] form of the current state to
    /// `out` with no snapshot taken — what a server answers `ObsDump`
    /// with. Each part is encoded under its own lock, the recorder's held
    /// only while the events are written, so a dump stalls the node's
    /// recording one part at a time; a dump taken while the node records
    /// is therefore not one atomic cut. On a quiescent registry it is
    /// byte for byte `encode_dump(&self.snapshot())`.
    pub fn encode_dump_into(&self, out: &mut Vec<u8>) {
        let dropped = self.inner.recorder.lock().dropped();
        crate::wire::put_head(out, [dropped, self.spans_dropped()]);
        crate::wire::put_hists(out, &self.inner.hists.lock());
        crate::wire::put_gauges(out, &self.inner.gauges.lock());
        let recorder = self.inner.recorder.lock();
        // ≈ bytes per event, as `encode_dump` sizes its buffer.
        out.reserve(recorder.len() * 96);
        crate::wire::put_events(out, recorder.len(), recorder.iter());
    }

    /// An immutable read-out of the current state.
    pub fn snapshot(&self) -> ObsSnapshot {
        let recorder = self.inner.recorder.lock();
        ObsSnapshot {
            dropped: recorder.dropped(),
            spans_dropped: self.spans_dropped(),
            events: recorder.iter().cloned().collect(),
            hists: self.inner.hists.lock().clone(),
            gauges: self.inner.gauges.lock().clone(),
        }
    }
}

impl std::fmt::Debug for ObsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let recorder = self.inner.recorder.lock();
        f.debug_struct("ObsRegistry")
            .field("events", &recorder.len())
            .field("dropped", &recorder.dropped())
            .field("hists", &self.inner.hists.lock().len())
            .finish()
    }
}

/// An immutable, mergeable read-out of one (or many, merged) registries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Events lost to ring overflow before this snapshot was taken.
    pub dropped: u64,
    /// Root spans skipped by the tracing sampling knob.
    pub spans_dropped: u64,
    /// Named histograms (`metric` or `metric:label`).
    pub hists: BTreeMap<String, LogHistogram>,
    /// Named gauges (`metric` or `metric:label`) — point-in-time values
    /// such as slab-class occupancy. Merging *sums* same-named gauges:
    /// each node reports its own absolute value, so the cluster-wide
    /// number is the total across nodes.
    pub gauges: BTreeMap<String, u64>,
    /// Retained flight-recorder events, oldest first.
    pub events: Vec<ObsEvent>,
}

impl ObsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold `other` into `self`: histograms merge bucket-wise by name,
    /// events concatenate and re-sort by timestamp, drop counts add.
    pub fn merge(&mut self, other: &ObsSnapshot) {
        self.absorb(other.clone());
        self.sort_events();
    }

    /// Merge every snapshot of `others` into `self`, taking each by move,
    /// and sort the events once at the end. The stable sort leaves
    /// same-timestamp events in fold order — `self`'s, then each of
    /// `others` in turn — which is the order a [`merge`](Self::merge) per
    /// snapshot gives.
    #[must_use]
    pub fn merged(mut self, others: impl IntoIterator<Item = ObsSnapshot>) -> Self {
        for other in others {
            self.absorb(other);
        }
        self.sort_events();
        self
    }

    /// Fold `other` in by move, events appended unsorted.
    fn absorb(&mut self, other: ObsSnapshot) {
        self.dropped += other.dropped;
        self.spans_dropped += other.spans_dropped;
        for (name, h) in other.hists {
            match self.hists.get_mut(&name) {
                Some(mine) => mine.merge(&h),
                None => {
                    self.hists.insert(name, h);
                }
            }
        }
        for (name, v) in other.gauges {
            *self.gauges.entry(name).or_insert(0) += v;
        }
        self.events.extend(other.events);
    }

    fn sort_events(&mut self) {
        self.events.sort_by_key(ObsEvent::at_us);
    }

    /// Look up a histogram by its full name (`metric` or `metric:label`).
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// Look up a gauge by its full name (`metric` or `metric:label`).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Event counts per kind tag.
    pub fn event_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for ev in &self.events {
            *counts.entry(ev.kind()).or_insert(0u64) += 1;
        }
        counts
    }

    /// Render the snapshot's events as JSONL, one per line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Render as Prometheus-style exposition text: per-histogram
    /// count/sum/min/max and p50/p90/p99/p99.9 quantile gauges, plus
    /// per-kind event totals and the drop counter.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        #[expect(
            clippy::let_underscore_must_use,
            reason = "writing to a String cannot fail"
        )]
        let _ = self.write_prometheus(&mut out);
        out
    }

    fn write_prometheus(&self, out: &mut String) -> std::fmt::Result {
        for (name, h) in &self.hists {
            let (metric, label) = match name.split_once(':') {
                Some((m, l)) => (m, format!("{{op=\"{l}\"}}")),
                None => (name.as_str(), String::new()),
            };
            let q_label = |q: &str| -> String {
                match name.split_once(':') {
                    Some((_, l)) => format!("{{op=\"{l}\",quantile=\"{q}\"}}"),
                    None => format!("{{quantile=\"{q}\"}}"),
                }
            };
            writeln!(out, "ecc_{metric}_count{label} {}", h.count())?;
            writeln!(out, "ecc_{metric}_sum{label} {}", h.sum())?;
            writeln!(out, "ecc_{metric}_min{label} {}", h.min().unwrap_or(0))?;
            writeln!(out, "ecc_{metric}_max{label} {}", h.max().unwrap_or(0))?;
            writeln!(out, "ecc_{metric}{} {}", q_label("0.5"), h.p50())?;
            writeln!(out, "ecc_{metric}{} {}", q_label("0.9"), h.p90())?;
            writeln!(out, "ecc_{metric}{} {}", q_label("0.99"), h.p99())?;
            writeln!(out, "ecc_{metric}{} {}", q_label("0.999"), h.p999())?;
        }
        for (name, v) in &self.gauges {
            let (metric, label) = match name.split_once(':') {
                Some((m, l)) => (m, format!("{{op=\"{l}\"}}")),
                None => (name.as_str(), String::new()),
            };
            writeln!(out, "ecc_{metric}{label} {v}")?;
        }
        for (kind, n) in self.event_counts() {
            writeln!(out, "ecc_events_total{{type=\"{kind}\"}} {n}")?;
        }
        writeln!(out, "ecc_events_dropped_total {}", self.dropped)?;
        writeln!(out, "ecc_spans_dropped_total {}", self.spans_dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let reg = ObsRegistry::new(TimeSource::real());
        let clone = reg.clone();
        clone.record("server_op_us:get", 42);
        clone.emit(ObsEvent::NodeAlloc { at_us: 1, node: 0 });
        let snap = reg.snapshot();
        assert_eq!(
            snap.hist("server_op_us:get").map(LogHistogram::count),
            Some(1)
        );
        assert_eq!(snap.events.len(), 1);
    }

    #[test]
    fn merge_folds_hists_and_events() {
        let mut a = ObsSnapshot::new();
        let mut b = ObsSnapshot::new();
        let mut h1 = LogHistogram::new();
        h1.record(10);
        let mut h2 = LogHistogram::new();
        h2.record(20);
        h2.record(30);
        a.hists.insert("x".into(), h1);
        b.hists.insert("x".into(), h2);
        a.events.push(ObsEvent::NodeAlloc { at_us: 5, node: 0 });
        b.events.push(ObsEvent::NodeAlloc { at_us: 2, node: 1 });
        b.dropped = 3;
        a.merge(&b);
        assert_eq!(a.dropped, 3);
        assert_eq!(a.hists["x"].count(), 3);
        let times: Vec<u64> = a.events.iter().map(ObsEvent::at_us).collect();
        assert_eq!(times, vec![2, 5]);
    }

    /// A snapshot as a node might dump it: colliding timestamps across
    /// snapshots, a shared and a private histogram, gauges, drop counts.
    fn node_snapshot(node: u32) -> ObsSnapshot {
        let reg = ObsRegistry::with_capacity(TimeSource::real(), 6);
        for at_us in [3, 1, 3, 2, 1, 3, 5] {
            reg.emit(ObsEvent::NodeAlloc { at_us, node });
        }
        reg.emit(ObsEvent::EvictBatch {
            at_us: 3,
            node,
            keys: vec![node as u64, 7, 9],
        });
        reg.record("server_op_us:get", 10 * node as u64 + 1);
        reg.record(&format!("only:{node}"), 4);
        reg.set_gauge("slab_live_slots:64", node as u64);
        reg.note_span_dropped();
        reg.snapshot()
    }

    #[test]
    fn merged_by_move_equals_a_clone_merge_per_snapshot() {
        let nodes: Vec<ObsSnapshot> = (1..=4).map(node_snapshot).collect();
        // The fold the coordinator did before: clone each snapshot in,
        // re-sorting the events after every one.
        let mut expected = node_snapshot(0);
        for other in &nodes {
            expected.dropped += other.dropped;
            expected.spans_dropped += other.spans_dropped;
            for (name, h) in &other.hists {
                match expected.hists.get_mut(name) {
                    Some(mine) => mine.merge(h),
                    None => {
                        expected.hists.insert(name.clone(), h.clone());
                    }
                }
            }
            for (name, v) in &other.gauges {
                *expected.gauges.entry(name.clone()).or_insert(0) += v;
            }
            expected.events.extend(other.events.iter().cloned());
            expected.events.sort_by_key(|ev| ev.at_us());
        }
        let merged = node_snapshot(0).merged(nodes);
        assert_eq!(merged, expected, "same contents, same event order");
        assert_eq!((merged.dropped, merged.spans_dropped), (10, 5));
    }

    #[test]
    fn a_dump_encoded_in_place_equals_the_dump_of_a_snapshot() {
        let reg = ObsRegistry::with_capacity(TimeSource::real(), 4);
        for at_us in 0..6 {
            reg.emit(ObsEvent::EvictBatch {
                at_us,
                node: 2,
                keys: (0..at_us).collect(),
            });
        }
        drop(reg.span_start("req", 9, 0));
        reg.record("server_op_us:put_many", 140);
        reg.add_gauge("frame_bytes_rx", 39_000);
        reg.note_span_dropped();
        let mut in_place = vec![0xEE];
        reg.encode_dump_into(&mut in_place);
        let snap = reg.snapshot();
        assert_eq!(in_place[1..], crate::encode_dump(&snap)[..]);
        assert_eq!(crate::decode_dump(&in_place[1..]), Some(snap));
    }

    #[test]
    fn a_dump_taken_while_another_thread_records_decodes() {
        let reg = ObsRegistry::with_capacity(TimeSource::real(), 64);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for at_us in 0..20_000 {
                    reg.record("server_op_us:get", at_us % 97);
                    reg.add_gauge("frame_bytes_rx", 1);
                    reg.emit(ObsEvent::NodeAlloc { at_us, node: 1 });
                }
                done.store(true, std::sync::atomic::Ordering::Release);
            });
            let mut dumps = 0;
            while dumps < 50 || !done.load(std::sync::atomic::Ordering::Acquire) {
                let mut out = Vec::new();
                reg.encode_dump_into(&mut out);
                let snap = crate::decode_dump(&out).expect("a concurrent dump decodes");
                assert!(snap.events.len() <= 64);
                dumps += 1;
            }
        });
        let mut out = Vec::new();
        reg.encode_dump_into(&mut out);
        let snap = crate::decode_dump(&out).expect("decodes");
        assert_eq!(snap.gauges["frame_bytes_rx"], 20_000);
        assert_eq!(snap.hists["server_op_us:get"].count(), 20_000);
    }

    #[test]
    fn folding_a_local_batch_equals_recording_each_sample() {
        let samples: [(&str, &[u64]); 3] = [
            ("server_op_us:get", &[0, 1, 1, 0, 7, 300, u64::MAX]),
            ("reactor_frames_per_wake", &[16, 16, 3]),
            ("reactor_wake_us", &[]),
        ];
        let direct = ObsRegistry::new(TimeSource::real());
        let folded = ObsRegistry::new(TimeSource::real());
        // Both registries start with history the fold must merge into.
        direct.record("server_op_us:get", 5);
        folded.record("server_op_us:get", 5);
        direct.add_gauge("frame_bytes_rx", 10);
        folded.add_gauge("frame_bytes_rx", 10);

        let mut hists = samples.map(|(name, _)| (name, LogHistogram::new()));
        let mut counters = [("frame_bytes_rx", 0u64), ("frame_bytes_tx", 0)];
        // Two folds, the samples split between them.
        for half in 0..2u64 {
            for (slot, (name, values)) in samples.iter().enumerate() {
                for v in values.iter().skip(half as usize).step_by(2) {
                    direct.record(name, *v);
                    hists[slot].1.record(*v);
                }
            }
            direct.add_gauge("frame_bytes_rx", 9 + half);
            counters[0].1 += 9 + half;
            folded.fold(&mut hists, &mut counters);
            assert!(hists.iter().all(|(_, h)| h.is_empty()), "fold empties");
            assert_eq!(counters.map(|(_, d)| d), [0, 0], "fold zeroes");
        }

        // Equal on count, sum, min, max and every bucket; a histogram and
        // a gauge that never got a sample are absent, not present-empty.
        let (direct, folded) = (direct.snapshot(), folded.snapshot());
        assert_eq!(folded.hists, direct.hists);
        assert_eq!(folded.gauges, direct.gauges);
        assert_eq!(folded.hist("server_op_us:get").map(|h| h.count()), Some(8));
        assert_eq!(folded.hist("reactor_wake_us"), None);
        assert_eq!(folded.gauge("frame_bytes_rx"), Some(29));
        assert_eq!(folded.gauge("frame_bytes_tx"), None);
    }

    #[test]
    fn gauges_are_last_write_wins_and_merge_additively() {
        let reg = ObsRegistry::new(TimeSource::real());
        reg.set_gauge("slab_live_slots:64", 10);
        reg.set_gauge("slab_live_slots:64", 7);
        assert_eq!(reg.gauge("slab_live_slots:64"), Some(7));
        assert_eq!(reg.gauge("absent"), None);
        // Two writers' shares of one summed gauge: 100 + 30, then 100 → 20.
        for (old, new) in [(0, 100), (0, 30), (100, 20)] {
            reg.shift_gauge("mem_bytes:conn_buf", old, new);
        }
        assert_eq!(reg.gauge("mem_bytes:conn_buf"), Some(50));
        let mut a = reg.snapshot();
        let other = ObsRegistry::new(TimeSource::real());
        other.set_gauge("slab_live_slots:64", 5);
        other.set_gauge("slab_live_slots:80", 3);
        a.merge(&other.snapshot());
        // Per-node absolute values sum into the cluster-wide total.
        assert_eq!(a.gauge("slab_live_slots:64"), Some(12));
        assert_eq!(a.gauge("slab_live_slots:80"), Some(3));
        let text = a.render_prometheus();
        assert!(text.contains("ecc_slab_live_slots{op=\"64\"} 12"));
        assert!(text.contains("ecc_slab_live_slots{op=\"80\"} 3"));
    }

    #[test]
    fn prometheus_rendering_has_quantiles_and_event_totals() {
        let reg = ObsRegistry::new(TimeSource::real());
        for v in [10u64, 20, 3000] {
            reg.record("server_op_us:get", v);
        }
        reg.record("coord_fanout_us", 77);
        reg.emit(ObsEvent::BucketSplit {
            at_us: 1,
            node: 0,
            new_node: 1,
            bucket: 9,
        });
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("ecc_server_op_us_count{op=\"get\"} 3"));
        assert!(text.contains("ecc_server_op_us{op=\"get\",quantile=\"0.5\"}"));
        assert!(text.contains("ecc_server_op_us{op=\"get\",quantile=\"0.99\"}"));
        assert!(text.contains("ecc_coord_fanout_us_count 1"));
        assert!(text.contains("ecc_coord_fanout_us{quantile=\"0.999\"}"));
        assert!(text.contains("ecc_events_total{type=\"bucket_split\"} 1"));
        assert!(text.contains("ecc_events_dropped_total 0"));
    }
}
