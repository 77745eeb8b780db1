//! Versioned serialization of [`ObsSnapshot`] for the `ObsDump` wire op.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! u16 version            OBS_DUMP_VERSION (3); any other value is rejected
//! u64 dropped            events lost to ring overflow
//! u64 spans_dropped      root spans skipped by trace sampling
//! u32 hist_count
//!   per hist: u16 name_len, name bytes (UTF-8),
//!             LogHistogram wire form (count/sum/min/max/bucket-count/buckets)
//! u32 gauge_count
//!   per gauge: u16 name_len, name bytes (UTF-8), u64 value
//! u32 event_count
//!   per event: u32 json_len, JSON bytes (one ObsEvent line, no newline)
//! ```
//!
//! Events travel as their JSONL form so the dump and the on-disk trace share
//! one schema. A decoder skips event lines whose `type` it does not know —
//! adding event kinds is a non-breaking change; changing the integer layout
//! requires bumping [`OBS_DUMP_VERSION`].

use std::collections::BTreeMap;

use crate::event::ObsEvent;
use crate::hist::{read_u16, read_u32, read_u64, LogHistogram};
use crate::registry::ObsSnapshot;

/// The dump format version. A dump is produced and read by the same build,
/// so the decoder accepts exactly this version and no other.
pub const OBS_DUMP_VERSION: u16 = 3;

/// Serialize a snapshot into the versioned dump form.
pub fn encode_dump(snap: &ObsSnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + snap.hists.len() * 600 + snap.events.len() * 96);
    put_head(&mut out, [snap.dropped, snap.spans_dropped]);
    put_hists(&mut out, &snap.hists);
    put_gauges(&mut out, &snap.gauges);
    put_events(&mut out, snap.events.len(), snap.events.iter());
    out
}

// The dump's parts, each appended to `out` in layout order: the encoder
// behind [`encode_dump`] and `ObsRegistry::encode_dump_into`, which passes
// its live state part by part, each under its own lock, instead of a
// snapshot.

/// The version, then `drops` = `[dropped, spans_dropped]`.
pub(crate) fn put_head(out: &mut Vec<u8>, drops: [u64; 2]) {
    out.extend_from_slice(&OBS_DUMP_VERSION.to_le_bytes());
    for d in drops {
        out.extend_from_slice(&d.to_le_bytes());
    }
}

pub(crate) fn put_hists(out: &mut Vec<u8>, hists: &BTreeMap<String, LogHistogram>) {
    out.extend_from_slice(&(hists.len() as u32).to_le_bytes());
    for (name, h) in hists {
        put_name(out, name);
        h.encode_into(out);
    }
}

pub(crate) fn put_gauges(out: &mut Vec<u8>, gauges: &BTreeMap<String, u64>) {
    out.extend_from_slice(&(gauges.len() as u32).to_le_bytes());
    for (name, v) in gauges {
        put_name(out, name);
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// `events` yields exactly `count` events.
pub(crate) fn put_events<'a>(
    out: &mut Vec<u8>,
    count: usize,
    events: impl Iterator<Item = &'a ObsEvent>,
) {
    out.extend_from_slice(&(count as u32).to_le_bytes());
    for ev in events {
        // The JSON goes straight into `out`; its length is back-filled.
        let at = out.len();
        out.extend_from_slice(&[0; 4]);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a JsonSink write cannot fail"
        )]
        let _ = ev.write_json(&mut JsonSink(out));
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// `u16` length, then the name's UTF-8 bytes.
fn put_name(out: &mut Vec<u8>, name: &str) {
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

/// Lets [`ObsEvent::write_json`] append to a byte buffer.
struct JsonSink<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for JsonSink<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Decode a dump. `None` on truncation, any version other than
/// [`OBS_DUMP_VERSION`], or malformed structure. Unknown event kinds inside a
/// well-formed dump are skipped, not an error.
pub fn decode_dump(buf: &[u8]) -> Option<ObsSnapshot> {
    let mut pos = 0usize;
    let version = read_u16(buf, &mut pos)?;
    if version != OBS_DUMP_VERSION {
        return None;
    }
    let dropped = read_u64(buf, &mut pos)?;
    let spans_dropped = read_u64(buf, &mut pos)?;
    let hist_count = read_u32(buf, &mut pos)? as usize;
    // A histogram needs at least 37 bytes on the wire; reject counts the
    // buffer cannot possibly hold before allocating.
    if hist_count > buf.len() / 37 + 1 {
        return None;
    }
    let mut hists = BTreeMap::new();
    for _ in 0..hist_count {
        let name_len = read_u16(buf, &mut pos)? as usize;
        let name_bytes = buf.get(pos..pos + name_len)?;
        pos += name_len;
        let name = std::str::from_utf8(name_bytes).ok()?.to_owned();
        let h = LogHistogram::decode_from(buf, &mut pos)?;
        hists.insert(name, h);
    }
    let gauge_count = read_u32(buf, &mut pos)? as usize;
    // A gauge needs at least 10 bytes on the wire.
    if gauge_count > buf.len() / 10 + 1 {
        return None;
    }
    let mut gauges = BTreeMap::new();
    for _ in 0..gauge_count {
        let name_len = read_u16(buf, &mut pos)? as usize;
        let name_bytes = buf.get(pos..pos + name_len)?;
        pos += name_len;
        let name = std::str::from_utf8(name_bytes).ok()?.to_owned();
        let v = read_u64(buf, &mut pos)?;
        gauges.insert(name, v);
    }
    let event_count = read_u32(buf, &mut pos)? as usize;
    if event_count > buf.len() / 4 + 1 {
        return None;
    }
    let mut events = Vec::new();
    for _ in 0..event_count {
        let json_len = read_u32(buf, &mut pos)? as usize;
        let json_bytes = buf.get(pos..pos + json_len)?;
        pos += json_len;
        let line = std::str::from_utf8(json_bytes).ok()?;
        if let Some(ev) = ObsEvent::from_json(line) {
            events.push(ev);
        }
    }
    if pos != buf.len() {
        return None;
    }
    Some(ObsSnapshot {
        dropped,
        spans_dropped,
        hists,
        gauges,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> ObsSnapshot {
        let mut snap = ObsSnapshot::new();
        snap.dropped = 5;
        snap.spans_dropped = 2;
        let mut h = LogHistogram::new();
        for v in [1u64, 10, 100, 1000] {
            h.record(v);
        }
        snap.hists.insert("server_op_us:get".into(), h.clone());
        snap.hists.insert("coord_fanout_us".into(), h);
        snap.gauges.insert("slab_live_slots:64".into(), 17);
        snap.gauges.insert("slab_total_slots:64".into(), 1024);
        snap.events.push(ObsEvent::BucketSplit {
            at_us: 3,
            node: 0,
            new_node: 1,
            bucket: 42,
        });
        snap.events.push(ObsEvent::EvictBatch {
            at_us: 9,
            node: 1,
            keys: vec![7, 8],
        });
        snap
    }

    #[test]
    fn dump_roundtrips() {
        let snap = sample_snapshot();
        let bytes = encode_dump(&snap);
        let back = decode_dump(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn wrong_version_and_truncation_are_rejected() {
        let snap = sample_snapshot();
        let mut bytes = encode_dump(&snap);
        for cut in [0, 1, 2, 9, bytes.len() - 1] {
            assert!(decode_dump(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        for version in [0u16, 1, 2, OBS_DUMP_VERSION + 1, 0xFF] {
            bytes[..2].copy_from_slice(&version.to_le_bytes());
            assert!(decode_dump(&bytes).is_none(), "version {version}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_dump(&sample_snapshot());
        bytes.push(0);
        assert!(decode_dump(&bytes).is_none());
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = ObsSnapshot::new();
        let bytes = encode_dump(&snap);
        assert_eq!(decode_dump(&bytes).unwrap(), snap);
    }

    #[test]
    fn span_events_survive_the_dump() {
        let mut snap = ObsSnapshot::new();
        snap.events.push(ObsEvent::SpanStart {
            at_us: 1,
            trace: 9,
            span: (3u64 << 40) | 4,
            parent: 0,
            kind: "req".into(),
            node: 3,
        });
        snap.events.push(ObsEvent::SpanEnd {
            at_us: 2,
            span: (3u64 << 40) | 4,
        });
        let back = decode_dump(&encode_dump(&snap)).unwrap();
        assert_eq!(back, snap);
    }
}
