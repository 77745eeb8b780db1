//! Size-class record slabs: the node's payload arena (DESIGN.md §17).
//!
//! The B+-tree indexes records, but the payload bytes themselves used to
//! live wherever the network layer happened to allocate them — one global
//! heap allocation per PUT, freed on eviction, with the allocator's
//! per-chunk bookkeeping invisible to the cache's `||n||` accounting. A
//! memcached-style slab arena replaces that:
//!
//! * payload memory is carved from per-class **pages**; each class serves
//!   one slot size, and classes grow geometrically (×1.25 by default)
//!   from 64 B to 64 KiB, so internal fragmentation is bounded at ~25 %;
//! * freed slots go onto a per-class **freelist** and are recycled, so a
//!   node in steady state (hit/replace churn at stable occupancy) makes
//!   **zero global-allocator calls** on the GET/PUT path — asserted by
//!   the counting allocator in `ecc-bench`;
//! * every slot is **refcounted** in its header, so a [`SlabRef`] clone —
//!   a cache hit handed to a response, a migration batch entry — is a
//!   refcount bump, and the slot returns to the freelist only when the
//!   last handle drops;
//! * [`footprint`] is the *pure* size function shared by the live engine,
//!   the admission CAS in `ShardedNode`, and the simtest model oracle:
//!   the bytes a record truly occupies (its class's slot size, header
//!   included), not its payload length.
//!
//! # Slot layout and safety argument
//!
//! Each slot is `[refcount: AtomicU32][len: u32][payload …]`, 8-aligned;
//! [`SLOT_HEADER`] = 8. The `unsafe` below is confined to this module and
//! rests on one state machine per slot:
//!
//! * **free** — the slot's pointer is on its class freelist; refcount is
//!   0; nobody reads or writes it.
//! * **owned** — exactly one thread popped it from the freelist and is
//!   writing header + payload; no other thread can reach it (the pointer
//!   is in no shared structure).
//! * **live** — the owner published it by storing refcount = 1
//!   (`Release`); every reader got its [`SlabRef`] via a happens-after
//!   edge (the stripe lock of the tree that stores the [`Record`], or a
//!   `Clone` of an existing handle), so the payload write is visible.
//!   Clones bump the refcount (`Relaxed` — same argument as `Arc`);
//!   the final `Drop` does a `Release` decrement followed by an
//!   `Acquire` fence before pushing the slot back to the freelist.
//!
//! Pages are never freed while the arena lives (slots recycle instead),
//! and every `SlabRef` holds an `Arc` on the arena, so a live slot
//! pointer cannot dangle.

#![allow(unsafe_code)]

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::lockorder::{self, LockClass};

/// Bytes of slot header preceding the payload: `[AtomicU32 refcount][u32 len]`.
pub const SLOT_HEADER: usize = 8;

/// Smallest slot size (header included): one cache-line worth of record.
pub const MIN_SLOT: usize = 64;

/// Slot-size bound: the class table stops at the first size ≥ 64 KiB;
/// longer payloads fall back to one-off heap allocations.
pub const MAX_SLOT: usize = 64 * 1024;

/// Canonical geometric growth between adjacent classes, in percent.
pub const GROWTH_PCT: usize = 25;

/// Target page size: each class allocates pages of about this many bytes
/// and carves them into slots (large classes get one slot per page).
const PAGE_BYTES: usize = 64 * 1024;

/// Round up to the arena's 8-byte slot alignment.
const fn align8(n: usize) -> usize {
    (n + 7) & !7
}

/// The real resident footprint of a payload of `len` bytes under the
/// canonical class geometry: the slot size (header included) of the
/// smallest class that fits it, or `align8(len + 8)` for oversize
/// payloads that bypass the arena. Pure and shared verbatim by the
/// admission CAS, the invariant auditor, and the simtest model — the
/// differential oracles stay bit-exact because all three call this.
pub const fn footprint(len: usize) -> u64 {
    let need = len + SLOT_HEADER;
    // Largest canonical class: first recurrence value ≥ MAX_SLOT.
    let mut last = MIN_SLOT;
    while last < MAX_SLOT {
        last = align8(last + last * GROWTH_PCT / 100);
    }
    if need > last {
        return align8(need) as u64;
    }
    let mut s = MIN_SLOT;
    while s < need {
        s = align8(s + s * GROWTH_PCT / 100);
    }
    s as u64
}

/// The slot-size table of one arena: geometrically growing size classes.
#[derive(Debug, Clone)]
pub struct SizeClasses {
    /// Ascending slot sizes, header included; the last entry is the first
    /// recurrence value ≥ the configured maximum.
    sizes: Vec<usize>,
}

impl SizeClasses {
    /// A class table growing from `min_slot` by `growth_pct` percent per
    /// class until the first size ≥ `max_slot` (inclusive). Sizes are
    /// rounded up to 8-byte alignment.
    pub fn new(min_slot: usize, max_slot: usize, growth_pct: usize) -> Self {
        assert!(
            min_slot >= SLOT_HEADER + 8 && min_slot.is_multiple_of(8),
            "minimum slot must hold the header plus one aligned word"
        );
        assert!(max_slot >= min_slot, "class table bounds inverted");
        assert!(growth_pct >= 1, "growth factor must be > 1.0");
        let mut sizes = Vec::with_capacity(48);
        let mut s = min_slot;
        loop {
            sizes.push(s);
            if s >= max_slot {
                break;
            }
            s = align8(s + s * growth_pct / 100);
        }
        Self { sizes }
    }

    /// The canonical geometry: 64 B … 64 KiB, ×1.25 — exactly what the
    /// pure [`footprint`] function models.
    pub fn canonical() -> Self {
        Self::new(MIN_SLOT, MAX_SLOT, GROWTH_PCT)
    }

    /// Number of classes.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Slot size (header included) of class `idx`.
    pub fn slot_size(&self, idx: usize) -> usize {
        self.sizes[idx]
    }

    /// Index of the smallest class whose payload capacity fits `len`
    /// bytes, or `None` when the payload is oversize for this table.
    pub fn index_for(&self, len: usize) -> Option<usize> {
        let need = len + SLOT_HEADER;
        let idx = self.sizes.partition_point(|&s| s < need);
        (idx < self.sizes.len()).then_some(idx)
    }

    /// Real footprint of a `len`-byte payload under this table: the class
    /// slot size, or `align8(len + 8)` for oversize payloads.
    pub fn footprint(&self, len: usize) -> u64 {
        match self.index_for(len) {
            Some(idx) => self.sizes[idx] as u64,
            None => align8(len + SLOT_HEADER) as u64,
        }
    }
}

/// One page of raw slot memory. The allocation is 8-aligned and owned by
/// the `Page`; slots inside it are handed out via raw pointers, so the
/// page must never move or be freed while the arena lives (the `Vec<Page>`
/// may reallocate — that moves this struct, not the pointed-to memory).
struct Page {
    base: *mut u8,
    layout: std::alloc::Layout,
}

impl Page {
    fn new(bytes: usize) -> Self {
        // Infallible by construction: bytes is a small multiple of a
        // class slot size and 8 divides it.
        let layout = match std::alloc::Layout::from_size_align(bytes, 8) {
            Ok(l) => l,
            Err(_) => std::alloc::Layout::new::<u64>(),
        };
        // SAFETY: layout has non-zero size (bytes >= MIN_SLOT).
        let base = unsafe { std::alloc::alloc(layout) };
        assert!(!base.is_null(), "slab page allocation failed");
        Self { base, layout }
    }
}

impl Drop for Page {
    fn drop(&mut self) {
        // SAFETY: base came from alloc with exactly this layout, and the
        // arena only drops pages when no SlabRef can reach them (every
        // handle holds the Arc keeping the arena alive).
        unsafe { std::alloc::dealloc(self.base, self.layout) };
    }
}

/// Per-class state: the freelist of slot pointers, the pages backing
/// them, and relaxed statistics counters (occupancy gauges).
struct ClassState {
    slot_size: usize,
    slots_per_page: usize,
    /// Free slot base pointers (each points at a slot header).
    free: Mutex<Vec<*mut u8>>,
    /// Backing pages; only ever pushed to, popped at arena drop.
    pages: Mutex<Vec<Page>>,
    /// Slots carved out of all pages so far.
    total_slots: AtomicU64,
    /// Slots currently live (allocated, not yet back on the freelist).
    live_slots: AtomicU64,
    /// Sum of payload lengths over live slots (fragmentation gauge).
    live_payload: AtomicU64,
    /// Cumulative allocations served (the per-class allocation histogram).
    allocs: AtomicU64,
}

// SAFETY: the raw pointers in `free`/`pages` refer to page memory owned by
// this same struct; all mutation of slot contents follows the free → owned
// → live protocol in the module docs, and both containers sit behind
// mutexes. Sharing the struct across threads is exactly the intended use.
unsafe impl Send for ClassState {}
unsafe impl Sync for ClassState {}

struct ArenaInner {
    sizes: SizeClasses,
    classes: Box<[ClassState]>,
}

/// Per-class occupancy read-out; one row of `SlabArena::class_stats`.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassStats {
    /// Slot size of this class, header included.
    pub slot_size: usize,
    /// Pages allocated for this class.
    pub pages: u64,
    /// Slots carved out of those pages.
    pub total_slots: u64,
    /// Slots currently live.
    pub live_slots: u64,
    /// Sum of payload lengths over the live slots.
    pub live_payload_bytes: u64,
    /// Cumulative allocations served by this class.
    pub allocs: u64,
}

/// A cheaply cloneable handle on a size-class slab arena.
#[derive(Clone)]
pub struct SlabArena {
    inner: Arc<ArenaInner>,
}

impl std::fmt::Debug for SlabArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabArena")
            .field("classes", &self.inner.sizes.count())
            .finish_non_exhaustive()
    }
}

impl Default for SlabArena {
    fn default() -> Self {
        Self::new()
    }
}

impl SlabArena {
    /// An arena with the canonical class geometry (64 B … 64 KiB, ×1.25).
    pub fn new() -> Self {
        Self::with_classes(SizeClasses::canonical())
    }

    /// An arena with a custom class table (tests, tuning experiments).
    pub fn with_classes(sizes: SizeClasses) -> Self {
        let mut classes = Vec::with_capacity(sizes.count());
        for idx in 0..sizes.count() {
            let slot_size = sizes.slot_size(idx);
            classes.push(ClassState {
                slot_size,
                slots_per_page: (PAGE_BYTES / slot_size).max(1),
                free: Mutex::new(Vec::with_capacity(0)),
                pages: Mutex::new(Vec::with_capacity(0)),
                total_slots: AtomicU64::new(0),
                live_slots: AtomicU64::new(0),
                live_payload: AtomicU64::new(0),
                allocs: AtomicU64::new(0),
            });
        }
        Self {
            inner: Arc::new(ArenaInner {
                sizes,
                classes: classes.into_boxed_slice(),
            }),
        }
    }

    /// Real footprint of a `len`-byte payload under this arena's table.
    pub fn footprint(&self, len: usize) -> u64 {
        self.inner.sizes.footprint(len)
    }

    /// Copy `payload` into a freshly allocated slot of the fitting class.
    /// Returns `None` when the payload is oversize for the class table —
    /// the caller falls back to a plain heap allocation. This is the one
    /// place payload bytes are copied on the PUT path (network ingest into
    /// cache-owned memory); every later hand-off is a refcount bump.
    pub fn try_alloc(&self, payload: &[u8]) -> Option<SlabRef> {
        let idx = self.inner.sizes.index_for(payload.len())?;
        let class = &self.inner.classes[idx];
        let ptr = loop {
            {
                let _order = lockorder::acquire(LockClass::SlabFree(idx));
                let mut free = class.free.lock();
                if let Some(p) = free.pop() {
                    break p;
                }
            }
            self.grow(idx);
        };
        // SAFETY: the slot is *owned* (popped from the freelist, reachable
        // only by this thread). Header writes then payload copy, then the
        // Release refcount store publishes the slot as *live*.
        unsafe {
            ptr.add(4).cast::<u32>().write(payload.len() as u32);
            std::ptr::copy_nonoverlapping(payload.as_ptr(), ptr.add(SLOT_HEADER), payload.len());
            (*ptr.cast::<AtomicU32>()).store(1, Ordering::Release);
        }
        class.live_slots.fetch_add(1, Ordering::Relaxed);
        class
            .live_payload
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        class.allocs.fetch_add(1, Ordering::Relaxed);
        Some(SlabRef {
            inner: Arc::clone(&self.inner),
            ptr,
            class: idx as u32,
            len: payload.len() as u32,
        })
    }

    /// Allocate one more page for class `idx` and push its slots onto the
    /// freelist — the only path that touches the global allocator, and it
    /// runs only when occupancy grows past every page allocated so far.
    fn grow(&self, idx: usize) {
        let class = &self.inner.classes[idx];
        let _order_p = lockorder::acquire(LockClass::SlabPage(idx));
        let mut pages = class.pages.lock();
        {
            // Another thread may have grown while we waited for the page
            // lock; re-check under it so pages are not over-allocated.
            let _order_f = lockorder::acquire(LockClass::SlabFree(idx));
            if !class.free.lock().is_empty() {
                return;
            }
        }
        let page = Page::new(class.slots_per_page * class.slot_size);
        let _order_f = lockorder::acquire(LockClass::SlabFree(idx));
        let mut free = class.free.lock();
        // Reserve room for every slot ever carved (prior pages + this
        // one): the freelist can hold at most that many pointers, so a
        // steady-state `free_slot` push never reallocates — the freelist
        // itself must not put mallocs back on the path it exists to clear.
        let all_slots = class.total_slots.load(Ordering::Relaxed) as usize + class.slots_per_page;
        let additional = all_slots.saturating_sub(free.len());
        free.reserve(additional);
        for i in 0..class.slots_per_page {
            // SAFETY: i * slot_size < page size by construction.
            free.push(unsafe { page.base.add(i * class.slot_size) });
        }
        pages.push(page);
        class
            .total_slots
            .fetch_add(class.slots_per_page as u64, Ordering::Relaxed);
    }

    /// Per-class occupancy/fragmentation read-out, ascending slot size.
    pub fn class_stats(&self) -> Vec<ClassStats> {
        let mut out = Vec::with_capacity(self.inner.classes.len());
        for class in self.inner.classes.iter() {
            let total = class.total_slots.load(Ordering::Relaxed);
            out.push(ClassStats {
                slot_size: class.slot_size,
                pages: total / class.slots_per_page as u64,
                total_slots: total,
                live_slots: class.live_slots.load(Ordering::Relaxed),
                live_payload_bytes: class.live_payload.load(Ordering::Relaxed),
                allocs: class.allocs.load(Ordering::Relaxed),
            });
        }
        out
    }
}

/// Return a slot to its class freelist once its last handle dropped.
fn free_slot(inner: &ArenaInner, class_idx: usize, ptr: *mut u8, len: u32) {
    let class = &inner.classes[class_idx];
    class.live_slots.fetch_sub(1, Ordering::Relaxed);
    class.live_payload.fetch_sub(len as u64, Ordering::Relaxed);
    let _order = lockorder::acquire(LockClass::SlabFree(class_idx));
    class.free.lock().push(ptr);
}

/// A refcounted handle on one live arena slot. Cloning bumps the slot's
/// refcount; the last drop returns the slot to its class freelist. The
/// handle also keeps the arena alive, so the pointer cannot dangle.
pub struct SlabRef {
    inner: Arc<ArenaInner>,
    ptr: *mut u8,
    class: u32,
    len: u32,
}

// SAFETY: the pointed-to slot is immutable while live (writes happen only
// in the owned state, before publication), the refcount is atomic, and
// the Arc keeps the backing pages alive — the same argument as Arc<[u8]>.
unsafe impl Send for SlabRef {}
unsafe impl Sync for SlabRef {}

impl SlabRef {
    #[inline]
    fn refcount(&self) -> &AtomicU32 {
        // SAFETY: ptr is the 8-aligned slot base; the header's first word
        // is the refcount, initialized before the handle existed.
        unsafe { &*self.ptr.cast::<AtomicU32>() }
    }

    /// Payload length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the slot is live (this handle holds a refcount), its
        // payload was fully written before publication, and slot_size ≥
        // SLOT_HEADER + len by class selection.
        unsafe { std::slice::from_raw_parts(self.ptr.add(SLOT_HEADER), self.len as usize) }
    }

    /// Slot size of this handle's class, header included — the bytes the
    /// record really occupies.
    pub fn slot_size(&self) -> usize {
        self.inner.classes[self.class as usize].slot_size
    }
}

impl Clone for SlabRef {
    fn clone(&self) -> Self {
        // Relaxed suffices: the clone source already keeps the slot live,
        // exactly as in Arc::clone.
        let old = self.refcount().fetch_add(1, Ordering::Relaxed);
        assert!(old < u32::MAX / 2, "SlabRef refcount overflow");
        Self {
            inner: Arc::clone(&self.inner),
            ptr: self.ptr,
            class: self.class,
            len: self.len,
        }
    }
}

impl Drop for SlabRef {
    fn drop(&mut self) {
        if self.refcount().fetch_sub(1, Ordering::Release) == 1 {
            // Order all payload reads before the slot is recycled.
            fence(Ordering::Acquire);
            free_slot(&self.inner, self.class as usize, self.ptr, self.len);
        }
    }
}

impl std::ops::Deref for SlabRef {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for SlabRef {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for SlabRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabRef")
            .field("len", &self.len)
            .field("slot_size", &self.slot_size())
            .finish_non_exhaustive()
    }
}

impl PartialEq for SlabRef {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SlabRef {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_matches_the_canonical_class_table() {
        let classes = SizeClasses::canonical();
        // The pure fn and the table agree on every length up to oversize.
        for len in (0..=70_000).step_by(7) {
            assert_eq!(footprint(len), classes.footprint(len), "len {len}");
        }
        // Spot-check the geometry: header + payload rounds into the class.
        assert_eq!(footprint(0), 64);
        assert_eq!(footprint(56), 64);
        assert_eq!(footprint(57), 80);
        assert_eq!(footprint(96), 104);
        assert_eq!(footprint(100), 136);
        assert_eq!(footprint(1024), 1096);
        // Oversize payloads bypass the table: header + alignment only.
        let last = classes.slot_size(classes.count() - 1);
        assert!(last >= MAX_SLOT);
        assert_eq!(footprint(last), (align8(last + SLOT_HEADER)) as u64);
    }

    #[test]
    fn class_table_is_aligned_and_geometric() {
        let c = SizeClasses::canonical();
        assert!(c.count() > 20, "expected ~32 classes, got {}", c.count());
        for i in 0..c.count() {
            assert_eq!(c.slot_size(i) % 8, 0);
            if i > 0 {
                let prev = c.slot_size(i - 1);
                let next = c.slot_size(i);
                assert!(next > prev);
                // Growth stays near ×1.25 (alignment may round up a touch).
                assert!(next <= align8(prev + prev / 4), "{prev} -> {next}");
            }
        }
    }

    #[test]
    fn alloc_roundtrips_payload_bytes() {
        let arena = SlabArena::new();
        let payload: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        let r = arena.try_alloc(&payload).expect("fits the table");
        assert_eq!(r.as_slice(), &payload[..]);
        assert_eq!(r.len(), 300);
        assert_eq!(r.slot_size() as u64, footprint(300));
        // Empty payloads are legal (smallest class).
        let empty = arena.try_alloc(&[]).expect("empty fits");
        assert!(empty.is_empty());
        assert_eq!(empty.slot_size(), MIN_SLOT);
    }

    #[test]
    fn oversize_payload_is_refused() {
        let arena = SlabArena::new();
        let huge = vec![0u8; 80_000];
        assert!(arena.try_alloc(&huge).is_none());
        // The boundary: the largest class's payload capacity fits.
        let classes = SizeClasses::canonical();
        let cap = classes.slot_size(classes.count() - 1) - SLOT_HEADER;
        assert!(arena.try_alloc(&vec![1u8; cap]).is_some());
        assert!(arena.try_alloc(&vec![1u8; cap + 1]).is_none());
    }

    #[test]
    fn clones_share_the_slot_and_drop_recycles_it() {
        let arena = SlabArena::new();
        let a = arena.try_alloc(b"hello slab").expect("alloc");
        let slot_ptr = a.as_slice().as_ptr();
        let b = a.clone();
        assert!(std::ptr::eq(slot_ptr, b.as_slice().as_ptr()));
        drop(a);
        // Still readable through the surviving clone.
        assert_eq!(b.as_slice(), b"hello slab");
        drop(b);
        // The freed slot is recycled for the next same-class alloc.
        let c = arena.try_alloc(b"recycled!!").expect("alloc");
        assert!(std::ptr::eq(slot_ptr, c.as_slice().as_ptr()));
        let stats = &arena.class_stats()[0];
        assert_eq!(stats.live_slots, 1);
        assert_eq!(stats.allocs, 2);
    }

    /// Satellite regression: freelist recycling bounds page growth — a
    /// node churning at stable occupancy must not leak pages.
    #[test]
    fn churn_at_stable_occupancy_allocates_no_new_pages() {
        let arena = SlabArena::new();
        // Reach steady occupancy: 100 live 100-byte records (class 136).
        let mut live: Vec<SlabRef> = (0..100)
            .map(|_| arena.try_alloc(&[7u8; 100]).expect("alloc"))
            .collect();
        let pages_at_peak = arena.class_stats()[3].pages;
        assert!(pages_at_peak >= 1);
        // Churn 10k replacements at the same occupancy.
        for i in 0..10_000usize {
            let idx = i % live.len();
            live[idx] = arena.try_alloc(&[(i % 256) as u8; 100]).expect("alloc");
        }
        let stats = &arena.class_stats()[3];
        assert_eq!(stats.pages, pages_at_peak, "churn must recycle, not grow");
        assert_eq!(stats.live_slots, 100);
        assert_eq!(stats.allocs, 10_100);
        drop(live);
        assert_eq!(arena.class_stats()[3].live_slots, 0);
    }

    #[test]
    fn stats_track_occupancy_and_fragmentation() {
        let arena = SlabArena::new();
        // 10 payloads of 100 bytes → class 136 (index 3: 64, 80, 104, 136).
        let held: Vec<SlabRef> = (0..10)
            .map(|_| arena.try_alloc(&[1u8; 100]).expect("alloc"))
            .collect();
        let s = &arena.class_stats()[3];
        assert_eq!(s.slot_size, 136);
        assert_eq!(s.live_slots, 10);
        assert_eq!(s.live_payload_bytes, 1000);
        assert_eq!(s.pages, 1);
        assert_eq!(s.total_slots, (PAGE_BYTES / 136) as u64);
        drop(held);
    }

    #[test]
    fn concurrent_alloc_free_churn_stays_consistent() {
        let arena = SlabArena::new();
        let threads: Vec<_> = (0..8u8)
            .map(|t| {
                let arena = arena.clone();
                std::thread::spawn(move || {
                    let mut held: Vec<SlabRef> = Vec::new();
                    for i in 0..5_000usize {
                        let len = (i * 37 + t as usize * 101) % 2_000;
                        let r = arena.try_alloc(&vec![t; len]).expect("alloc");
                        assert_eq!(r.len(), len);
                        assert!(r.as_slice().iter().all(|&b| b == t));
                        if i % 3 == 0 {
                            held.push(r);
                        }
                        if held.len() > 64 {
                            held.clear();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("churn thread");
        }
        for s in arena.class_stats() {
            assert_eq!(s.live_slots, 0, "class {} leaked slots", s.slot_size);
            assert_eq!(s.live_payload_bytes, 0);
            // Every carved slot is back on the freelist: pages bounded by
            // the peak, not by the 40k total allocations.
            assert!(s.total_slots >= s.live_slots);
        }
    }

    #[test]
    fn handles_outlive_the_arena_handle() {
        let arena = SlabArena::new();
        let r = arena.try_alloc(b"survivor").expect("alloc");
        drop(arena);
        // The SlabRef's own Arc keeps the pages alive.
        assert_eq!(r.as_slice(), b"survivor");
    }
}
