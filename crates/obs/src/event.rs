//! Typed flight-recorder events and their JSONL codec.
//!
//! One event = one structural moment in the cluster's life, stamped with
//! the virtual (or process-relative) time it happened at. The JSON form is
//! a single line with a stable field order, so a recorded trace is both
//! machine-parseable (`ObsEvent::from_json`) and diffable by eye.

/// One recorded observation. Node identifiers are raw `u32`s so the event
/// type stays independent of `ecc-core` / `ecc-net` (both emit into it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsEvent {
    /// A bucket was median-split (or relocated whole) off an overflowing
    /// node; `new_node` now owns the bucket at `bucket`.
    BucketSplit {
        /// Event time, µs.
        at_us: u64,
        /// The overflowing node that was split.
        node: u32,
        /// The node that received the swept records.
        new_node: u32,
        /// Hash-line position of the (re)threaded bucket.
        bucket: u64,
    },
    /// A sweep-and-migrate moved records between nodes (Algorithm 2).
    SweepMigrate {
        /// Event time (sweep start), µs.
        at_us: u64,
        /// Source node.
        src: u32,
        /// Destination node.
        dest: u32,
        /// Records moved.
        records: u64,
        /// Payload bytes moved.
        bytes: u64,
        /// Virtual/real time the sweep took, µs.
        duration_us: u64,
        /// Whether the destination was freshly allocated for this sweep.
        allocated: bool,
    },
    /// Contraction drained node `src` into `dest`.
    NodeMerge {
        /// Event time, µs.
        at_us: u64,
        /// The drained (retiring) node.
        src: u32,
        /// The surviving node.
        dest: u32,
        /// Records moved.
        records: u64,
    },
    /// A cache node came online.
    NodeAlloc {
        /// Event time, µs: for a split's node, when it was asked for.
        at_us: u64,
        /// The new node.
        node: u32,
    },
    /// A cache node was released: merged away, or (live only) a node
    /// allocated for a split whose copy failed.
    NodeDealloc {
        /// Event time, µs.
        at_us: u64,
        /// The released node.
        node: u32,
    },
    /// A sliding-window slice expired and was scored for eviction.
    SliceExpire {
        /// Event time, µs.
        at_us: u64,
        /// Running expiration count (1-based).
        expiration: u64,
        /// Victims selected by decay scoring (before residency filtering).
        victims: u64,
    },
    /// A batch of eviction victims was removed from one node. `keys` holds
    /// the keys actually evicted, in eviction order — the simtest oracle
    /// compares them bit-exactly against the model window's victims.
    EvictBatch {
        /// Event time, µs.
        at_us: u64,
        /// The node the keys were removed from.
        node: u32,
        /// The evicted keys, in eviction order.
        keys: Vec<u64>,
    },
    /// An admission failed mid-insert and the record was served uncached.
    InsertError {
        /// Event time, µs.
        at_us: u64,
        /// The key whose admission failed.
        key: u64,
    },
    /// A causal span opened (request phase, coordinator fan-out, elasticity
    /// op). Span ids are globally unique (`origin << 40 | seq`, see
    /// `trace::span id allocation`), so merged multi-node snapshots
    /// reconstruct one tree.
    SpanStart {
        /// Event time, µs.
        at_us: u64,
        /// Trace id shared by every span of one causal tree.
        trace: u64,
        /// This span's globally unique id.
        span: u64,
        /// Parent span id (0 = root).
        parent: u64,
        /// Span kind tag (`req`, `srv`, `srv_queue`, `srv_exec`,
        /// `lock_wait`, `wire:<op>`, `coord_fanout`, `elastic_*`).
        kind: String,
        /// Origin tag of the recorder that emitted it (node id / client).
        node: u32,
    },
    /// The matching close of a [`ObsEvent::SpanStart`].
    SpanEnd {
        /// Event time, µs.
        at_us: u64,
        /// The span being closed.
        span: u64,
    },
}

impl ObsEvent {
    /// The event's `type` tag in the JSON form.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::BucketSplit { .. } => "bucket_split",
            ObsEvent::SweepMigrate { .. } => "sweep_migrate",
            ObsEvent::NodeMerge { .. } => "node_merge",
            ObsEvent::NodeAlloc { .. } => "node_alloc",
            ObsEvent::NodeDealloc { .. } => "node_dealloc",
            ObsEvent::SliceExpire { .. } => "slice_expire",
            ObsEvent::EvictBatch { .. } => "evict_batch",
            ObsEvent::InsertError { .. } => "insert_error",
            ObsEvent::SpanStart { .. } => "span_start",
            ObsEvent::SpanEnd { .. } => "span_end",
        }
    }

    /// The event as a structural decision, its times zeroed, so that two
    /// runs of one schedule compare equal; `None` for a span or an insert
    /// error.
    pub fn untimed(mut self) -> Option<ObsEvent> {
        use ObsEvent::*;
        match &mut self {
            SweepMigrate {
                at_us, duration_us, ..
            } => (*at_us, *duration_us) = (0, 0),
            BucketSplit { at_us, .. }
            | NodeMerge { at_us, .. }
            | NodeAlloc { at_us, .. }
            | NodeDealloc { at_us, .. }
            | SliceExpire { at_us, .. }
            | EvictBatch { at_us, .. } => *at_us = 0,
            InsertError { .. } | SpanStart { .. } | SpanEnd { .. } => return None,
        }
        Some(self)
    }

    /// The event's timestamp in microseconds.
    pub fn at_us(&self) -> u64 {
        match *self {
            ObsEvent::BucketSplit { at_us, .. }
            | ObsEvent::SweepMigrate { at_us, .. }
            | ObsEvent::NodeMerge { at_us, .. }
            | ObsEvent::NodeAlloc { at_us, .. }
            | ObsEvent::NodeDealloc { at_us, .. }
            | ObsEvent::SliceExpire { at_us, .. }
            | ObsEvent::EvictBatch { at_us, .. }
            | ObsEvent::InsertError { at_us, .. } => at_us,
            ObsEvent::SpanStart { at_us, .. } | ObsEvent::SpanEnd { at_us, .. } => at_us,
        }
    }

    /// One JSON object on one line, stable field order, no trailing newline.
    pub fn to_json(&self) -> String {
        let mut line = String::new();
        #[expect(
            clippy::let_underscore_must_use,
            reason = "writing to a String cannot fail"
        )]
        let _ = self.write_json(&mut line);
        line
    }

    /// Append [`ObsEvent::to_json`]'s line to `out` without building it
    /// first (the `ObsDump` encoder writes events straight into the
    /// response).
    pub fn write_json(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        match self {
            ObsEvent::BucketSplit {
                at_us,
                node,
                new_node,
                bucket,
            } => write!(
                out,
                "{{\"type\":\"bucket_split\",\"at_us\":{at_us},\"node\":{node},\
                 \"new_node\":{new_node},\"bucket\":{bucket}}}"
            ),
            ObsEvent::SweepMigrate {
                at_us,
                src,
                dest,
                records,
                bytes,
                duration_us,
                allocated,
            } => write!(
                out,
                "{{\"type\":\"sweep_migrate\",\"at_us\":{at_us},\"src\":{src},\
                 \"dest\":{dest},\"records\":{records},\"bytes\":{bytes},\
                 \"duration_us\":{duration_us},\"allocated\":{allocated}}}"
            ),
            ObsEvent::NodeMerge {
                at_us,
                src,
                dest,
                records,
            } => write!(
                out,
                "{{\"type\":\"node_merge\",\"at_us\":{at_us},\"src\":{src},\
                 \"dest\":{dest},\"records\":{records}}}"
            ),
            ObsEvent::NodeAlloc { at_us, node } => {
                write!(
                    out,
                    "{{\"type\":\"node_alloc\",\"at_us\":{at_us},\"node\":{node}}}"
                )
            }
            ObsEvent::NodeDealloc { at_us, node } => {
                write!(
                    out,
                    "{{\"type\":\"node_dealloc\",\"at_us\":{at_us},\"node\":{node}}}"
                )
            }
            ObsEvent::SliceExpire {
                at_us,
                expiration,
                victims,
            } => write!(
                out,
                "{{\"type\":\"slice_expire\",\"at_us\":{at_us},\
                 \"expiration\":{expiration},\"victims\":{victims}}}"
            ),
            ObsEvent::EvictBatch { at_us, node, keys } => {
                write!(
                    out,
                    "{{\"type\":\"evict_batch\",\"at_us\":{at_us},\"node\":{node},\"keys\":["
                )?;
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write!(out, "{k}")?;
                }
                out.write_str("]}")
            }
            ObsEvent::InsertError { at_us, key } => {
                write!(
                    out,
                    "{{\"type\":\"insert_error\",\"at_us\":{at_us},\"key\":{key}}}"
                )
            }
            ObsEvent::SpanStart {
                at_us,
                trace,
                span,
                parent,
                kind,
                node,
            } => write!(
                out,
                "{{\"type\":\"span_start\",\"at_us\":{at_us},\"trace\":{trace},\
                 \"span\":{span},\"parent\":{parent},\"kind\":\"{kind}\",\"node\":{node}}}"
            ),
            ObsEvent::SpanEnd { at_us, span } => {
                write!(
                    out,
                    "{{\"type\":\"span_end\",\"at_us\":{at_us},\"span\":{span}}}"
                )
            }
        }
    }

    /// Parse one line produced by [`ObsEvent::to_json`]. Returns `None` on
    /// anything malformed — a trace with unknown event types (a newer
    /// writer) degrades to skipped lines instead of an error.
    pub fn from_json(line: &str) -> Option<ObsEvent> {
        let kind = json_str(line, "type")?;
        let at_us = json_u64(line, "at_us")?;
        Some(match kind {
            "bucket_split" => ObsEvent::BucketSplit {
                at_us,
                node: json_u64(line, "node")? as u32,
                new_node: json_u64(line, "new_node")? as u32,
                bucket: json_u64(line, "bucket")?,
            },
            "sweep_migrate" => ObsEvent::SweepMigrate {
                at_us,
                src: json_u64(line, "src")? as u32,
                dest: json_u64(line, "dest")? as u32,
                records: json_u64(line, "records")?,
                bytes: json_u64(line, "bytes")?,
                duration_us: json_u64(line, "duration_us")?,
                allocated: json_bool(line, "allocated")?,
            },
            "node_merge" => ObsEvent::NodeMerge {
                at_us,
                src: json_u64(line, "src")? as u32,
                dest: json_u64(line, "dest")? as u32,
                records: json_u64(line, "records")?,
            },
            "node_alloc" => ObsEvent::NodeAlloc {
                at_us,
                node: json_u64(line, "node")? as u32,
            },
            "node_dealloc" => ObsEvent::NodeDealloc {
                at_us,
                node: json_u64(line, "node")? as u32,
            },
            "slice_expire" => ObsEvent::SliceExpire {
                at_us,
                expiration: json_u64(line, "expiration")?,
                victims: json_u64(line, "victims")?,
            },
            "evict_batch" => ObsEvent::EvictBatch {
                at_us,
                node: json_u64(line, "node")? as u32,
                keys: json_u64_array(line, "keys")?,
            },
            "insert_error" => ObsEvent::InsertError {
                at_us,
                key: json_u64(line, "key")?,
            },
            "span_start" => ObsEvent::SpanStart {
                at_us,
                trace: json_u64(line, "trace")?,
                span: json_u64(line, "span")?,
                parent: json_u64(line, "parent")?,
                kind: json_str(line, "kind")?.to_owned(),
                node: json_u64(line, "node")? as u32,
            },
            "span_end" => ObsEvent::SpanEnd {
                at_us,
                span: json_u64(line, "span")?,
            },
            _ => return None,
        })
    }
}

/// The raw text following `"key":` in `line`, up to the value's end.
fn json_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = line.get(start..)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest.get(..end)
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    json_value(line, key)?.trim().parse().ok()
}

fn json_bool(line: &str, key: &str) -> Option<bool> {
    match json_value(line, key)?.trim() {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    json_value(line, key)?
        .trim()
        .strip_prefix('"')?
        .strip_suffix('"')
}

fn json_u64_array(line: &str, key: &str) -> Option<Vec<u64>> {
    let needle = format!("\"{key}\":[");
    let start = line.find(&needle)? + needle.len();
    let rest = line.get(start..)?;
    let body = rest.get(..rest.find(']')?)?;
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|s| s.trim().parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<ObsEvent> {
        vec![
            ObsEvent::BucketSplit {
                at_us: 10,
                node: 0,
                new_node: 3,
                bucket: 42,
            },
            ObsEvent::SweepMigrate {
                at_us: 11,
                src: 0,
                dest: 3,
                records: 7,
                bytes: 700,
                duration_us: 99,
                allocated: true,
            },
            ObsEvent::NodeMerge {
                at_us: 12,
                src: 3,
                dest: 0,
                records: 2,
            },
            ObsEvent::NodeAlloc { at_us: 13, node: 4 },
            ObsEvent::NodeDealloc { at_us: 14, node: 3 },
            ObsEvent::SliceExpire {
                at_us: 15,
                expiration: 2,
                victims: 5,
            },
            ObsEvent::EvictBatch {
                at_us: 16,
                node: 0,
                keys: vec![1, 9, u64::MAX],
            },
            ObsEvent::EvictBatch {
                at_us: 17,
                node: 1,
                keys: vec![],
            },
            ObsEvent::InsertError { at_us: 20, key: 77 },
            ObsEvent::SpanStart {
                at_us: 21,
                trace: 0xABCD,
                span: (7u64 << 40) | 1,
                parent: 0,
                kind: "req".to_string(),
                node: 7,
            },
            ObsEvent::SpanEnd {
                at_us: 22,
                span: (7u64 << 40) | 1,
            },
        ]
    }

    #[test]
    fn json_roundtrips_every_variant() {
        for ev in samples() {
            let line = ev.to_json();
            assert_eq!(
                ObsEvent::from_json(&line),
                Some(ev.clone()),
                "roundtrip failed for {line}"
            );
            assert!(line.contains(ev.kind()));
            assert_eq!(
                ObsEvent::from_json(&line).map(|e| e.at_us()),
                Some(ev.at_us())
            );
        }
    }

    #[test]
    fn malformed_lines_are_rejected_not_panicked() {
        for bad in [
            "",
            "{}",
            "{\"type\":\"bucket_split\"}",
            "{\"type\":\"martian\",\"at_us\":1}",
            "{\"type\":\"evict_batch\",\"at_us\":1,\"node\":0,\"keys\":[1,x]}",
            "not json at all",
        ] {
            assert_eq!(ObsEvent::from_json(bad), None, "accepted {bad:?}");
        }
    }
}
