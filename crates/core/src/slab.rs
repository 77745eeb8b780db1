//! Size-class record slabs: the node's payload arena (DESIGN.md §17).
//!
//! The B+-tree indexes records, but the payload bytes themselves used to
//! live wherever the network layer happened to allocate them — one global
//! heap allocation per PUT, freed on eviction, with the allocator's
//! per-chunk bookkeeping invisible to the cache's `||n||` accounting. A
//! memcached-style slab arena replaces that:
//!
//! * payload memory is carved from per-class **pages**; each class serves
//!   one slot size, and classes grow geometrically (×1.25) from 64 B to
//!   64 KiB — one compile-time table — so internal fragmentation is
//!   bounded at ~25 %;
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
//!   edge (the stripe lock of the tree that stores the
//!   [`Record`](crate::Record), or a `Clone` of an existing handle), so
//!   the payload write is visible.
//!   Clones bump the refcount (`Relaxed` — same argument as `Arc`);
//!   the final `Drop` does a `Release` decrement followed by an
//!   `Acquire` fence before pushing the slot back to the freelist.
//!
//! On 64-bit x86 and ARM Linux a page is an anonymous mapping, unmapped
//! only when the arena drops (slots recycle instead): a dropped node's
//! payload memory goes back to the kernel, not to the allocator arena of
//! the thread that grew it. Other targets use `std::alloc`. Every
//! `SlabRef` holds an `Arc` on the arena, so a live slot pointer cannot
//! dangle.

#![allow(unsafe_code)]

use std::sync::atomic::{fence, AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::lockorder::{LockClass, Ordered};

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

/// The next slot size of the geometric recurrence.
const fn next_class(s: usize) -> usize {
    align8(s + s * GROWTH_PCT / 100)
}

/// Number of canonical classes: `MIN_SLOT` through the first recurrence
/// value ≥ `MAX_SLOT`.
const CLASS_COUNT: usize = {
    let (mut s, mut n) = (MIN_SLOT, 1);
    while s < MAX_SLOT {
        s = next_class(s);
        n += 1;
    }
    n
};

/// The canonical class table, built at compile time: ascending slot sizes
/// (header included) from 64 B by ×1.25, 8-aligned, ending at the first
/// size ≥ 64 KiB. [`footprint`], [`SizeClasses`] and every [`SlabArena`]
/// read this one table.
const CLASS_SIZES: [usize; CLASS_COUNT] = {
    let mut sizes = [0; CLASS_COUNT];
    let (mut s, mut i) = (MIN_SLOT, 0);
    while i < CLASS_COUNT {
        sizes[i] = s;
        s = next_class(s);
        i += 1;
    }
    sizes
};

/// Index of the smallest class whose payload capacity fits `len` bytes,
/// or `None` when the payload is oversize.
const fn class_index(len: usize) -> Option<usize> {
    let need = len + SLOT_HEADER;
    // Lower bound: the first class with slot size ≥ need.
    let (mut lo, mut hi) = (0, CLASS_COUNT);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if CLASS_SIZES[mid] < need {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo < CLASS_COUNT {
        Some(lo)
    } else {
        None
    }
}

/// The real resident footprint of a payload of `len` bytes under the
/// canonical class geometry: the slot size (header included) of the
/// smallest class that fits it, or `align8(len + 8)` for oversize
/// payloads that bypass the arena. Pure and shared verbatim by the
/// admission CAS, the invariant auditor, and the simtest model — the
/// differential oracles stay bit-exact because all three call this.
#[inline]
pub const fn footprint(len: usize) -> u64 {
    match class_index(len) {
        Some(idx) => CLASS_SIZES[idx] as u64,
        None => align8(len + SLOT_HEADER) as u64,
    }
}

/// A read-only view of the canonical slot-size table (64 B … 64 KiB,
/// ×1.25) — exactly what the pure [`footprint`] function models.
#[derive(Debug, Clone, Copy)]
pub struct SizeClasses;

impl SizeClasses {
    /// The canonical geometry.
    pub fn canonical() -> Self {
        Self
    }

    /// Number of classes.
    pub fn count(&self) -> usize {
        CLASS_COUNT
    }

    /// Slot size (header included) of class `idx`.
    pub fn slot_size(&self, idx: usize) -> usize {
        CLASS_SIZES[idx]
    }

    /// Index of the smallest class whose payload capacity fits `len`
    /// bytes, or `None` when the payload is oversize for the table.
    pub fn index_for(&self, len: usize) -> Option<usize> {
        class_index(len)
    }
}

/// One page of raw slot memory, at least 8-aligned and owned by the
/// `Page`; slots inside it are handed out via raw pointers, so the
/// page must never move or be freed while the arena lives (the `Vec<Page>`
/// may reallocate — that moves this struct, not the pointed-to memory).
struct Page {
    base: *mut u8,
    bytes: usize,
}

impl Page {
    fn new(bytes: usize) -> Self {
        let base = pages::map(bytes);
        assert!(!base.is_null(), "slab page allocation failed");
        Self { base, bytes }
    }
}

impl Drop for Page {
    fn drop(&mut self) {
        // SAFETY: base came from `pages::map(self.bytes)`, and the arena
        // only drops pages when no SlabRef can reach them (every handle
        // holds the Arc keeping the arena alive).
        unsafe { pages::unmap(self.base, self.bytes) };
    }
}

/// Pages straight from the kernel (declared as `net/src/sys.rs` declares
/// `poll`), only where the flag values below are the platform's: MIPS,
/// Alpha and PA-RISC Linux number `MAP_ANONYMOUS` otherwise.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod pages {
    // `int` is `i32` and `off_t` is `i64` on these targets.
    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    /// `PROT_READ | PROT_WRITE`, and `MAP_PRIVATE | MAP_ANONYMOUS`.
    const PROT_RW: i32 = 0x1 | 0x2;
    const MAP_ANON: i32 = 0x02 | 0x20;

    /// A fresh page of `bytes`, or null.
    pub(super) fn map(bytes: usize) -> *mut u8 {
        // SAFETY: a fresh anonymous mapping aliases nothing, and no
        // pointer to it is kept by the call.
        match unsafe { mmap(std::ptr::null_mut(), bytes, PROT_RW, MAP_ANON, -1, 0) } {
            // MAP_FAILED is `(void *)-1`.
            p if p as usize == usize::MAX => std::ptr::null_mut(),
            p => p,
        }
    }

    /// # Safety
    /// `base` came from `map(bytes)`, and nothing reaches it any more.
    pub(super) unsafe fn unmap(base: *mut u8, bytes: usize) {
        // SAFETY: per the caller; `munmap` fails only on bad arguments.
        unsafe { munmap(base, bytes) };
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod pages {
    use std::alloc::Layout;

    /// Infallible: 8 divides every page size.
    fn layout(bytes: usize) -> Layout {
        Layout::from_size_align(bytes, 8).unwrap_or(Layout::new::<u64>())
    }

    pub(super) fn map(bytes: usize) -> *mut u8 {
        // SAFETY: layout has non-zero size (bytes >= MIN_SLOT).
        unsafe { std::alloc::alloc(layout(bytes)) }
    }

    /// # Safety
    /// `base` came from `map(bytes)`, and nothing reaches it any more.
    pub(super) unsafe fn unmap(base: *mut u8, bytes: usize) {
        // SAFETY: per the caller, with the layout `map` used.
        unsafe { std::alloc::dealloc(base, layout(bytes)) };
    }
}

/// Per-class state: the freelist of slot pointers with its occupancy
/// counters, and the pages backing them.
struct ClassState {
    slot_size: usize,
    slots_per_page: usize,
    free: Mutex<FreeList>,
    /// Backing pages; only ever pushed to, popped at arena drop.
    pages: Mutex<Vec<Page>>,
}

/// A class's free slots and the counters that move with them, under one
/// mutex: a slot is counted in the same critical section that takes it
/// off the list or puts it back, so an allocation or a free costs one
/// lock and no further atomic, and a read-out is one consistent cut.
struct FreeList {
    /// Free slot base pointers (each points at a slot header).
    slots: Vec<*mut u8>,
    /// Slots carved out of all pages so far.
    total_slots: u64,
    /// Slots currently live (allocated, not yet back on the freelist).
    live_slots: u64,
    /// Sum of payload lengths over live slots (fragmentation gauge).
    live_payload: u64,
    /// Cumulative allocations served (the per-class allocation histogram).
    allocs: u64,
}

// SAFETY: the raw pointers in `free`/`pages` refer to page memory owned by
// this same struct; all mutation of slot contents follows the free → owned
// → live protocol in the module docs, and both containers sit behind
// mutexes. Sharing the struct across threads is exactly the intended use.
unsafe impl Send for ClassState {}
unsafe impl Sync for ClassState {}

impl ClassState {
    /// This class's freelist, locked through the lock-order auditor.
    fn free(&self, idx: usize) -> Ordered<MutexGuard<'_, FreeList>> {
        Ordered::acquire(LockClass::SlabFree(idx), || self.free.lock())
    }

    /// This class's page list, locked through the lock-order auditor.
    fn pages(&self, idx: usize) -> Ordered<MutexGuard<'_, Vec<Page>>> {
        Ordered::acquire(LockClass::SlabPage(idx), || self.pages.lock())
    }
}

/// One [`ClassState`] per entry of the canonical class table.
struct ArenaInner {
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
            .field("classes", &self.inner.classes.len())
            .finish_non_exhaustive()
    }
}

impl Default for SlabArena {
    fn default() -> Self {
        Self::new()
    }
}

impl SlabArena {
    /// An arena over the canonical class table (64 B … 64 KiB, ×1.25).
    pub fn new() -> Self {
        let classes = CLASS_SIZES
            .iter()
            .map(|&slot_size| ClassState {
                slot_size,
                slots_per_page: (PAGE_BYTES / slot_size).max(1),
                free: Mutex::new(FreeList {
                    slots: Vec::with_capacity(0),
                    total_slots: 0,
                    live_slots: 0,
                    live_payload: 0,
                    allocs: 0,
                }),
                pages: Mutex::new(Vec::with_capacity(0)),
            })
            .collect();
        Self {
            inner: Arc::new(ArenaInner { classes }),
        }
    }

    /// Real footprint of a `len`-byte payload: [`footprint`].
    pub fn footprint(&self, len: usize) -> u64 {
        footprint(len)
    }

    /// Copy `payload` into a freshly allocated slot of the fitting class.
    /// Returns `None` when the payload is oversize for the class table —
    /// the caller falls back to a plain heap allocation. This is the one
    /// place payload bytes are copied on the PUT path (network ingest into
    /// cache-owned memory); every later hand-off is a refcount bump.
    pub fn try_alloc(&self, payload: &[u8]) -> Option<SlabRef> {
        let idx = class_index(payload.len())?;
        let class = &self.inner.classes[idx];
        let ptr = loop {
            {
                let mut free = class.free(idx);
                if let Some(p) = free.slots.pop() {
                    free.live_slots += 1;
                    free.live_payload += payload.len() as u64;
                    free.allocs += 1;
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
        Some(SlabRef {
            inner: Arc::clone(&self.inner),
            ptr,
            class: idx as u32,
            len: payload.len() as u32,
        })
    }

    /// Map one more page for class `idx` and push its slots onto the
    /// freelist — the only path that asks for memory (the page, the
    /// freelist's reserve), run only once every page so far is full.
    fn grow(&self, idx: usize) {
        let class = &self.inner.classes[idx];
        let mut pages = class.pages(idx);
        // Another thread may have grown while we waited for the page lock;
        // re-check under it so pages are not over-allocated.
        if !class.free(idx).slots.is_empty() {
            return;
        }
        let page = Page::new(class.slots_per_page * class.slot_size);
        let mut free = class.free(idx);
        // Reserve room for every slot ever carved (prior pages + this
        // one): the freelist can hold at most that many pointers, so a
        // steady-state `free_slot` push never reallocates — the freelist
        // itself must not put mallocs back on the path it exists to clear.
        let all_slots = free.total_slots as usize + class.slots_per_page;
        let additional = all_slots.saturating_sub(free.slots.len());
        free.slots.reserve(additional);
        for i in 0..class.slots_per_page {
            // SAFETY: i * slot_size < page size by construction.
            free.slots
                .push(unsafe { page.base.add(i * class.slot_size) });
        }
        free.total_slots += class.slots_per_page as u64;
        pages.push(page);
    }

    /// Bytes of page memory the arena holds (every carved slot, free or
    /// live): the `mem_bytes:slab` gauge.
    pub fn mapped_bytes(&self) -> u64 {
        let stats = self.class_stats();
        stats
            .iter()
            .map(|c| c.total_slots * c.slot_size as u64)
            .sum()
    }

    /// Per-class occupancy/fragmentation read-out, ascending slot size.
    pub fn class_stats(&self) -> Vec<ClassStats> {
        let mut out = Vec::with_capacity(self.inner.classes.len());
        for (idx, class) in self.inner.classes.iter().enumerate() {
            let free = class.free(idx);
            out.push(ClassStats {
                slot_size: class.slot_size,
                pages: free.total_slots / class.slots_per_page as u64,
                total_slots: free.total_slots,
                live_slots: free.live_slots,
                live_payload_bytes: free.live_payload,
                allocs: free.allocs,
            });
        }
        out
    }
}

/// Return a slot to its class freelist once its last handle dropped.
fn free_slot(inner: &ArenaInner, class_idx: usize, ptr: *mut u8, len: u32) {
    let mut free = inner.classes[class_idx].free(class_idx);
    free.live_slots -= 1;
    free.live_payload -= u64::from(len);
    free.slots.push(ptr);
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

    /// The canonical table, written out: 64 B × 1.25, 8-aligned, through
    /// the first size ≥ 64 KiB.
    const EXPECTED_CLASSES: [usize; 32] = [
        64, 80, 104, 136, 176, 224, 280, 352, 440, 552, 696, 872, 1096, 1376, 1720, 2152, 2696,
        3376, 4224, 5280, 6600, 8256, 10320, 12904, 16136, 20176, 25224, 31536, 39424, 49280,
        61600, 77000,
    ];

    #[test]
    fn footprint_matches_the_canonical_class_table() {
        // Spot values: header + payload rounds up into its class.
        for (len, fp) in [
            (0, 64),
            (56, 64),
            (57, 80),
            (96, 104),
            (100, 136),
            (1024, 1096),
        ] {
            assert_eq!(footprint(len), fp, "len {len}");
        }
        // Every class boundary: the largest payload a class holds is
        // charged that class, one byte more is charged the next.
        let classes = SizeClasses::canonical();
        assert_eq!(classes.count(), EXPECTED_CLASSES.len());
        let mut prev = 0;
        for (idx, &slot) in EXPECTED_CLASSES.iter().enumerate() {
            assert_eq!(classes.slot_size(idx), slot, "class {idx}");
            let cap = slot - SLOT_HEADER;
            assert_eq!(footprint(cap), slot as u64, "len {cap}");
            assert_eq!(classes.index_for(cap), Some(idx));
            if idx > 0 {
                assert_eq!(footprint(prev + 1), slot as u64, "len {}", prev + 1);
            }
            prev = cap;
        }
        // The last class is 77 000 B; past it, payloads bypass the table
        // and are charged header + alignment only.
        assert_eq!(footprint(76_992), 77_000);
        assert_eq!(classes.index_for(76_993), None);
        assert_eq!(footprint(76_993), 77_008);
        assert_eq!(footprint(80_000), 80_008);
        assert_eq!(footprint(100_001), 100_016);
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
        assert_eq!(arena.mapped_bytes(), s.total_slots * 136);
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
