//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer's
//! public functions — nothing inside the program under test. They stay in
//! memory during the run; [`Recorder::write_jsonl`] writes them out once
//! the run has ended. A span may stand for a batch of `ops` identical
//! calls (a pipelined window, the queries of one time step), so that
//! recording costs one clock read per batch, not per call.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// At most this many spans are written per trace file.
pub const MAX_SPANS_WRITTEN: usize = 100_000;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `net.client.flush`.
    pub name: &'static str,
    /// Index of the span that caused this one, or `u32::MAX` for a root.
    pub parent: u32,
    /// Calls this span stands for (per-call cost = duration / ops).
    pub ops: u32,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// In-memory span store for one generator thread.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Spans are recorded only while this is set; workloads toggle it per
    /// segment so traced and untraced segments interleave within one run.
    pub enabled: bool,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
}

impl Recorder {
    /// Open a span at `now_ns` under the innermost open span.
    pub fn open(&mut self, name: &'static str, now_ns: u64) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(SpanRec {
            name,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            ops: 1,
            start_ns: now_ns,
            end_ns: now_ns,
        });
        self.stack.push(idx);
        Some(Open(idx))
    }

    /// Close `span` at `now_ns`, standing for `ops` calls.
    pub fn close(&mut self, span: Option<Open>, now_ns: u64, ops: u32) {
        let Some(Open(idx)) = span else { return };
        let rec = &mut self.spans[idx as usize];
        rec.end_ns = now_ns;
        rec.ops = ops;
        // Spans close innermost-first; tolerate an out-of-order close by
        // unwinding to the span being closed.
        while let Some(top) = self.stack.pop() {
            if top == idx {
                break;
            }
        }
    }

    /// Record a finished span under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64, ops: u32) {
        let span = self.open(name, start_ns);
        self.close(span, end_ns, ops);
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Write at most [`MAX_SPANS_WRITTEN`] spans as JSON lines, then one
    /// summary line. Returns `(recorded, written)`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<(usize, usize)> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(MAX_SPANS_WRITTEN);
        for (i, s) in self.spans[..written].iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"ops\":{}}}",
                s.name, s.start_ns, s.end_ns, s.ops
            )?;
        }
        writeln!(
            out,
            "{{\"spans_recorded\":{},\"spans_written\":{written}}}",
            self.spans.len()
        )?;
        out.flush()?;
        Ok((self.spans.len(), written))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Overlapping children are counted once and
/// a child is clipped to its parent's interval.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Totals of all spans sharing a name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub spans: u64,
    /// Calls those spans stand for.
    pub ops: u64,
    /// Summed duration, ns.
    pub dur_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl LayerTotals {
    /// Mean duration per call, ns (0 when nothing was recorded).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.dur_ns as f64 / self.ops as f64
        }
    }

    /// Mean duration per span, ns.
    pub fn ns_per_span(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.dur_ns as f64 / self.spans as f64
        }
    }
}

/// Per-name totals over `spans`.
pub fn totals_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.ops += u64::from(s.ops);
        t.dur_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Share of the request spans' time (roots named `request…`) that no
/// child span accounts for: `1 − Σ child self time / Σ request duration`.
/// The budget's rows must add up, so this remainder is reported, not
/// hidden.
pub fn residual_share(spans: &[SpanRec]) -> f64 {
    let selfs = self_times(spans);
    let mut root_ns = 0u64;
    let mut root_self_ns = 0u64;
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.parent == NO_PARENT && s.name.starts_with("request") {
            root_ns += s.end_ns - s.start_ns;
            root_self_ns += self_ns;
        }
    }
    if root_ns == 0 {
        0.0
    } else {
        root_self_ns as f64 / root_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            parent,
            ops: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span("root", NO_PARENT, 0, 100),
            span("a", 0, 10, 40),
            span("a.inner", 1, 15, 25),
            span("b", 0, 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30]);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = [
            span("request", NO_PARENT, 0, 100),
            span("a", 0, 10, 50),
            span("b", 0, 30, 70),                    // overlaps a by 20
            span("c", 0, 35, 45),                    // inside both
            span("d", 0, 90, 130),                   // runs past the parent: clipped to 10
            span("step_close", NO_PARENT, 200, 300), // not a request
        ];
        // Union of children within the root: [10, 70) + [90, 100) = 70.
        assert_eq!(self_times(&spans)[0], 30);
        assert!((residual_share(&spans) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_under_the_innermost_open_span() {
        let mut r = Recorder {
            enabled: true,
            ..Recorder::default()
        };
        let root = r.open("request", 0);
        let call = r.open("net.client.call", 5);
        r.leaf("verify", 6, 7, 1);
        r.close(call, 20, 1);
        r.leaf("net.client.flush", 21, 25, 16);
        r.close(root, 30, 1);
        let parents: Vec<u32> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 1, 0]);
        let totals = totals_by_name(r.spans());
        assert_eq!(totals["net.client.flush"].ops, 16);
        assert_eq!(totals["net.client.flush"].ns_per_op(), 0.25);
        assert_eq!(totals["request"].self_ns, 30 - 15 - 4);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::default();
        let s = r.open("x", 0);
        r.close(s, 10, 1);
        r.leaf("y", 0, 1, 1);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn trace_file_is_capped_and_summarised() {
        let mut r = Recorder {
            enabled: true,
            ..Recorder::default()
        };
        for i in 0..(MAX_SPANS_WRITTEN as u64 + 5) {
            r.leaf("x", i, i + 1, 1);
        }
        let dir = crate::out_dir().join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        let (recorded, written) = r.write_jsonl(&path).unwrap();
        assert_eq!(
            (recorded, written),
            (MAX_SPANS_WRITTEN + 5, MAX_SPANS_WRITTEN)
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), MAX_SPANS_WRITTEN + 1);
        assert!(text
            .lines()
            .last()
            .unwrap()
            .contains("\"spans_written\":100000"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
