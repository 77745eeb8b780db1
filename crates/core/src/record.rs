//! The cached value type.

use std::sync::Arc;

use bytes::Bytes;
use ecc_bptree::ByteSize;

use crate::slab::{SlabArena, SlabRef};

/// Where a record's payload bytes live.
#[derive(Debug, Clone)]
enum Payload {
    /// A one-off heap allocation: refcount and bytes in one block, the
    /// slice's length in the fat pointer. The simulated caches' records,
    /// and oversize payloads that bypass the arena's class table.
    Heap(Arc<[u8]>),
    /// A slot in the node's slab arena (DESIGN.md §17) — the steady-state
    /// home of resident records; recycled, never individually freed.
    Slab(SlabRef),
}

/// A cached derived result: an immutable byte payload behind a refcounted
/// handle — either an `Arc<[u8]>` heap allocation or a slab-arena slot —
/// so a clone (a miss's record kept by the cache and returned to the
/// caller, a migration sweep) is a refcount bump, never a memcpy of the
/// payload. A simulated hit lends the stored record and clones nothing;
/// a wire response copies the bytes straight from the record in place.
#[derive(Debug, Clone)]
pub struct Record {
    data: Payload,
}

impl PartialEq for Record {
    /// Records are equal iff their payload bytes are — where the bytes
    /// live (heap vs. slab slot) is an engine detail, invisible to
    /// cache semantics and the differential oracles.
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Record {}

impl Record {
    /// Copy an owned payload into the record's one allocation (the
    /// refcount sits in front of the bytes, so the `Vec` cannot be kept).
    pub fn from_vec(data: Vec<u8>) -> Self {
        Self::heap(&data)
    }

    /// Copy a [`Bytes`] view's payload into a record: the overflow tier's
    /// fetch (E4). Wire values do not come this way; they are copied
    /// straight into a slab slot ([`Record::alloc_in`]).
    pub fn from_bytes(data: Bytes) -> Self {
        Self::heap(&data)
    }

    fn heap(payload: &[u8]) -> Self {
        Self {
            data: Payload::Heap(Arc::from(payload)),
        }
    }

    /// Copy `payload` into a slot of `arena`'s fitting size class — the
    /// slab ingest path ([`crate::ShardedNode::put_many`]). Oversize
    /// payloads fall back to a plain heap allocation, so this always
    /// succeeds; `is_slab` reports which way it went.
    pub fn alloc_in(arena: &SlabArena, payload: &[u8]) -> Self {
        match arena.try_alloc(payload) {
            Some(slab) => Self {
                data: Payload::Slab(slab),
            },
            None => Self::heap(payload),
        }
    }

    /// A record of `len` identical filler bytes — synthetic workloads.
    pub fn filler(len: usize) -> Self {
        Self::from_vec(vec![0xAB; len])
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.data {
            Payload::Heap(b) => b,
            Payload::Slab(s) => s.as_slice(),
        }
    }

    /// A refcounted view of the payload, sharing the backing allocation —
    /// the zero-copy hand-off of an evicted record to the overflow tier's
    /// write-behind. Wire responses do not need it: a `Get` or a `GetMany`
    /// entry is copied straight from the record in place (see
    /// [`crate::ShardedNode::get_many_with`]). The returned [`Bytes`] owns a
    /// clone of the record's handle, so the payload (for a slab record,
    /// the slot, kept out of the freelist) stays live until the view is
    /// dropped.
    pub fn bytes(&self) -> Bytes {
        match &self.data {
            Payload::Heap(h) => Bytes::from_owner(Arc::clone(h)),
            Payload::Slab(s) => Bytes::from_owner(s.clone()),
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match &self.data {
            Payload::Heap(b) => b.len(),
            Payload::Slab(s) => s.len(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the payload is slab-resident (vs. a one-off heap
    /// allocation) — occupancy diagnostics and tests.
    pub fn is_slab(&self) -> bool {
        matches!(&self.data, Payload::Slab(_))
    }
}

/// A record is charged its **true footprint** — the slab slot size
/// [`crate::slab::footprint`] assigns its length — everywhere byte
/// accounting happens, whether the payload is currently slab-resident or
/// heap-backed. Charging by backing instead would make the simulated
/// cache ([`crate::ElasticCache`] stores heap records) and the live
/// sharded node (slab records) disagree on `||n||` for identical
/// contents, and the live/sim differential tests pin that equality.
impl ByteSize for Record {
    #[inline]
    fn byte_size(&self) -> usize {
        crate::slab::footprint(self.len()) as usize
    }
}

impl From<Vec<u8>> for Record {
    fn from(v: Vec<u8>) -> Self {
        Self::from_vec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_reports_payload_size() {
        let r = Record::from_vec(vec![1, 2, 3]);
        assert_eq!(r.len(), 3);
        // Charged the slab footprint (the minimum slot), not the raw len.
        assert_eq!(r.byte_size() as u64, crate::slab::footprint(3));
        assert_eq!(r.as_slice(), &[1, 2, 3]);
        assert!(!r.is_empty());
        assert!(Record::from_vec(vec![]).is_empty());
    }

    #[test]
    fn record_is_three_words() {
        // Records sit inline in B+-tree leaves, so their size is the
        // leaves' density: `Payload`'s discriminant lives in the niche of
        // `SlabRef`'s non-null arena pointer, beside the heap variant's
        // two-word `Arc<[u8]>`, and a fourth word would make every leaf's
        // values a third larger.
        assert_eq!(std::mem::size_of::<Record>(), 24);
    }

    #[test]
    fn clone_shares_the_payload() {
        let r = Record::filler(1000);
        let c = r.clone();
        assert!(std::ptr::eq(r.as_slice().as_ptr(), c.as_slice().as_ptr()));
        assert_eq!(r, c);
    }

    #[test]
    fn bytes_view_shares_the_payload() {
        let r = Record::filler(512);
        let b = r.bytes();
        assert!(std::ptr::eq(r.as_slice().as_ptr(), b.as_ref().as_ptr()));
        // `from_bytes` copies: a heap record's refcount shares its block.
        let roundtrip = Record::from_bytes(b);
        assert_eq!(roundtrip, r);
    }

    #[test]
    fn filler_has_requested_length() {
        assert_eq!(Record::filler(77).len(), 77);
    }

    #[test]
    fn alloc_in_lands_in_the_arena_and_roundtrips() {
        let arena = SlabArena::new();
        let r = Record::alloc_in(&arena, &[9u8; 300]);
        assert!(r.is_slab());
        assert_eq!(r.len(), 300);
        assert!(r.as_slice().iter().all(|&b| b == 9));
        // ByteSize charges the true slot footprint, matching what the
        // shard charges via `slab::footprint`.
        assert_eq!(r.byte_size() as u64, crate::slab::footprint(300));
        // Clones share the slot.
        let c = r.clone();
        assert!(std::ptr::eq(r.as_slice().as_ptr(), c.as_slice().as_ptr()));
        assert_eq!(r, c);
    }

    #[test]
    fn slab_bytes_view_pins_the_slot() {
        let arena = SlabArena::new();
        let r = Record::alloc_in(&arena, b"pinned by the response body");
        let slot_ptr = r.as_slice().as_ptr();
        let b = r.bytes();
        assert!(
            std::ptr::eq(slot_ptr, b.as_ref().as_ptr()),
            "zero-copy view"
        );
        drop(r);
        // The Bytes owner still holds a SlabRef: the slot is not recycled.
        assert_eq!(&b[..], b"pinned by the response body");
        assert_eq!(arena.class_stats()[0].live_slots, 1);
        drop(b);
        assert_eq!(arena.class_stats()[0].live_slots, 0);
    }

    #[test]
    fn oversize_alloc_in_falls_back_to_heap() {
        let arena = SlabArena::new();
        let r = Record::alloc_in(&arena, &vec![1u8; 100_000]);
        assert!(!r.is_slab());
        assert_eq!(r.len(), 100_000);
        // Heap and slab records with equal bytes compare equal.
        let arena2 = SlabArena::new();
        let a = Record::alloc_in(&arena2, b"same bytes");
        let b = Record::from_vec(b"same bytes".to_vec());
        assert!(a.is_slab() && !b.is_slab());
        assert_eq!(a, b);
    }
}
