//! The sliding-window eviction structure (paper §III-B, Figure 2).
//!
//! Incoming queries are treated as a stream; a global window of the `m`
//! most recent time slices records which keys were queried when. When a
//! slice expires (reaches `t_{m+1}`), every key it contains receives an
//! eviction score
//!
//! ```text
//! λ(k) = Σ_{i=1..m} α^(i-1) · |{k ∈ t_i}|
//! ```
//!
//! over the *current* window (`t_1` = most recent completed slice), and
//! keys with `λ(k) < T_λ` are evicted. Recent queries are rewarded (the
//! decay is amortized in older slices), so a key keeps its cache residency
//! by being re-queried.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// A completed slice: its distinct keys with their query counts, in
/// ascending key order. [`SlidingWindow::end_slice`] hands expired slices
/// out in this form; [`SlidingWindow::recycle`] takes the buffer back.
pub type Slice = Vec<(u64, u32)>;

/// Recycled slice buffers kept for reuse: one per close is the steady
/// state, a second covers the close that also shrinks the window.
const SPARE_SLICES: usize = 2;

/// Multiply/xor-shift hasher for the occurrence index. Keys are already
/// well-spread `u64`s; one multiply by an odd constant diffuses the low
/// bits upward and the shift folds the well-mixed high half back down,
/// which is all the table's bucket and tag bits need.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, k: u64) {
        let x = (self.0 ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The in-window occurrences of one key, oldest first, as
/// `(epoch, count)` pairs. Most keys sit in a single slice and keep that
/// occurrence inline; only a key present in two or more slices spills to
/// a heap deque, and it moves back inline when it drops to one again.
#[derive(Debug, Clone)]
enum Occ {
    One(u64, u32),
    Many(VecDeque<(u64, u32)>),
}

/// The global sliding window of queried keys.
///
/// The open slice is the raw list of queried keys; closing it sorts and
/// run-length-encodes it into a `Slice`. Alongside the slices the window
/// keeps a per-key *occurrence index*: for every key resident anywhere in
/// the completed window, the `(epoch, count)` pairs of the slices it
/// appears in. Each `(key, slice)` occurrence is added exactly once (at
/// `end_slice`) and retired exactly once (when its slice expires), so
/// scoring a key is O(occurrences of the key) and `victims()` is a
/// threshold scan.
///
/// Summing only the slices a key actually appears in, newest first and
/// from `+0.0`, is *bit-identical* to the full newest-to-oldest sum in
/// [`Self::lambda`]: every skipped term is `α^i · 0 = +0.0`, and
/// `x + 0.0 == x` exactly for the non-negative partial sums that arise
/// here. The simtest bit-exact window oracle relies on this.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    m: usize,
    alpha: f64,
    threshold: f64,
    /// Keys queried in the slice being recorded (not yet part of the
    /// window), in arrival order, repeats included.
    current: Vec<u64>,
    /// Completed slices, front = `t_1` (newest) … back = `t_m` (oldest).
    history: VecDeque<Slice>,
    /// Precomputed decay powers `α^0 … α^(m-1)`.
    powers: Vec<f64>,
    /// Epoch assigned to the next completed slice. Epochs are contiguous:
    /// `history.front()` holds epoch `next_epoch - 1`, `history.back()`
    /// holds epoch `next_epoch - history.len()`.
    next_epoch: u64,
    /// Per-key occurrence index over the completed window. Keys with no
    /// in-window occurrence are absent.
    occ: HashMap<u64, Occ, BuildHasherDefault<KeyHasher>>,
    /// Expired slice buffers handed back for the next close to reuse.
    spare: Vec<Slice>,
    /// Emptied deques of keys that moved back inline, reused by the next
    /// spill: keys cross between one and two occurrences every step, and
    /// the pool keeps that from costing an allocation and a free each.
    spare_spills: Vec<VecDeque<(u64, u32)>>,
}

impl SlidingWindow {
    /// A window of `m` slices with decay `alpha` and eviction threshold
    /// `threshold` (`T_λ`).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `alpha` is outside `(0, 1)`.
    pub fn new(m: usize, alpha: f64, threshold: f64) -> Self {
        assert!(m >= 1, "window needs at least one slice");
        assert!(alpha > 0.0 && alpha < 1.0, "decay must be in (0, 1)");
        let mut w = Self {
            m,
            alpha,
            threshold,
            current: Vec::new(),
            history: VecDeque::with_capacity(m + 1),
            powers: Vec::with_capacity(m),
            next_epoch: 0,
            occ: HashMap::default(),
            spare: Vec::new(),
            spare_spills: Vec::new(),
        };
        w.fill_powers();
        w
    }

    /// Recompute the decay table `α^0 … α^(m-1)` for the current `m`.
    fn fill_powers(&mut self) {
        self.powers.clear();
        let mut p = 1.0;
        for _ in 0..self.m {
            self.powers.push(p);
            p *= self.alpha;
        }
    }

    /// `m`.
    pub fn slices(&self) -> usize {
        self.m
    }

    /// `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// `T_λ`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Record that `key` was queried in the current slice.
    #[inline]
    pub fn note_query(&mut self, key: u64) {
        self.current.push(key);
    }

    /// Close the current slice. If the window was already full, the oldest
    /// slice expires and is returned (`t_{m+1}`) — the caller scores its
    /// keys with [`SlidingWindow::victims`] and may hand the buffer back
    /// with [`SlidingWindow::recycle`].
    pub fn end_slice(&mut self) -> Option<Slice> {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let mut slice = self.spare.pop().unwrap_or_default();
        slice.clear();
        self.current.sort_unstable();
        for &key in &self.current {
            match slice.last_mut() {
                Some((last, count)) if *last == key => *count += 1,
                _ => slice.push((key, 1)),
            }
        }
        self.current.clear();
        for &(key, count) in &slice {
            match self.occ.entry(key) {
                Entry::Vacant(e) => {
                    e.insert(Occ::One(epoch, count));
                }
                Entry::Occupied(mut e) => match e.get_mut() {
                    Occ::One(e0, c0) => {
                        let mut spilled = self.spare_spills.pop().unwrap_or_default();
                        spilled.extend([(*e0, *c0), (epoch, count)]);
                        e.insert(Occ::Many(spilled));
                    }
                    Occ::Many(entries) => entries.push_back((epoch, count)),
                },
            }
        }
        self.history.push_front(slice);
        if self.history.len() > self.m {
            self.expire_back()
        } else {
            None
        }
    }

    /// Hand an expired slice's buffer back so a later close reuses its
    /// allocation instead of growing a fresh one.
    pub fn recycle(&mut self, slice: Slice) {
        if self.spare.len() < SPARE_SLICES {
            self.spare.push(slice);
        }
    }

    /// Pop the oldest completed slice and retire its occurrence-index
    /// entries. It is the oldest occurrence of every key it holds, so each
    /// retirement drops the front of that key's entry.
    fn expire_back(&mut self) -> Option<Slice> {
        let slice = self.history.pop_back()?;
        for &(key, _) in &slice {
            let Entry::Occupied(mut e) = self.occ.entry(key) else {
                continue;
            };
            match e.get_mut() {
                Occ::One(..) => {
                    e.remove();
                }
                Occ::Many(entries) => {
                    entries.pop_front();
                    if entries.len() == 1 {
                        let (epoch, count) = entries[0];
                        if let Occ::Many(mut spilled) = e.insert(Occ::One(epoch, count)) {
                            spilled.clear();
                            self.spare_spills.push(spilled);
                        }
                    }
                }
            }
        }
        Some(slice)
    }

    /// Query count of `key` in the sorted slice `slice` (0 if absent).
    fn count_in(slice: &[(u64, u32)], key: u64) -> u32 {
        slice
            .binary_search_by_key(&key, |&(k, _)| k)
            .map_or(0, |i| slice[i].1)
    }

    /// The eviction score `λ(k)` over the current window, computed the slow
    /// way: one binary search per window slice, O(m·log n). Kept as the
    /// secondary oracle for the incremental scorer (and for callers probing
    /// arbitrary keys off the hot path); eviction itself goes through
    /// [`Self::lambda_incremental`].
    pub fn lambda(&self, key: u64) -> f64 {
        self.history
            .iter()
            .enumerate()
            .map(|(i, slice)| self.powers[i] * Self::count_in(slice, key) as f64)
            .sum()
    }

    /// The eviction score `λ(k)` from the per-key occurrence index:
    /// O(occurrences of `key`) with a single hash lookup, no per-slice
    /// searches. Bit-identical to [`Self::lambda`] — the skipped slices
    /// contribute exact `+0.0` terms (see the struct docs).
    pub fn lambda_incremental(&self, key: u64) -> f64 {
        let Some(occ) = self.occ.get(&key) else {
            // Bit-faithful to `lambda()`: an empty `.sum()` folds from f64's
            // additive identity -0.0, while any added term — even `α^i · 0`
            // — flips it to +0.0. The index is empty iff the key is absent
            // from every completed slice.
            return if self.history.is_empty() { -0.0 } else { 0.0 };
        };
        let newest = self.next_epoch - 1;
        let term = |epoch: u64, count: u32| self.powers[(newest - epoch) as usize] * count as f64;
        let mut sum = 0.0;
        // Newest-to-oldest, matching `lambda()`'s summation order exactly.
        match occ {
            Occ::One(epoch, count) => sum += term(*epoch, *count),
            Occ::Many(entries) => {
                for &(epoch, count) in entries.iter().rev() {
                    sum += term(epoch, count);
                }
            }
        }
        sum
    }

    /// Keys of an expired slice whose `λ` falls below `T_λ` — the set to
    /// evict from the cache, in ascending key order. A threshold scan over
    /// the occurrence index: O(Σ occurrences of the expired keys).
    pub fn victims(&self, expired: &[(u64, u32)]) -> Vec<u64> {
        expired
            .iter()
            .map(|&(k, _)| k)
            .filter(|&k| self.lambda_incremental(k) < self.threshold)
            .collect()
    }

    /// Number of distinct keys currently tracked anywhere in the window:
    /// the occurrence index already holds every key of the completed
    /// slices, so only the open slice's distinct keys need a probe each.
    pub fn tracked_keys(&self) -> usize {
        let mut open = self.current.clone();
        open.sort_unstable();
        open.dedup();
        self.occ.len() + open.iter().filter(|k| !self.occ.contains_key(k)).count()
    }

    /// Resize the window to `new_m` slices (dynamic window sizing, the
    /// paper's §VI future work). Growing simply raises capacity; shrinking
    /// immediately expires the slices that no longer fit, returning them
    /// oldest-first so the caller can run eviction scoring on each.
    ///
    /// # Panics
    ///
    /// Panics if `new_m == 0`.
    pub fn set_slices(&mut self, new_m: usize) -> Vec<Slice> {
        assert!(new_m >= 1, "window needs at least one slice");
        self.m = new_m;
        self.fill_powers();
        let mut expired = Vec::new();
        while self.history.len() > self.m {
            let Some(slice) = self.expire_back() else {
                break;
            };
            expired.push(slice);
        }
        expired
    }

    /// Structural self-check: the history never holds more than `m`
    /// completed slices, each slice is strictly ascending with non-zero
    /// counts, the precomputed decay table matches `α^i`, and the
    /// occurrence index mirrors the slices exactly. Returns a description
    /// of the first violation, so callers (the cache-wide auditor) can
    /// surface it as a typed error.
    pub fn check_invariants(&self) -> Result<(), &'static str> {
        if self.history.len() > self.m {
            return Err("window holds more than m completed slices");
        }
        if self.powers.len() != self.m {
            return Err("decay table length differs from m");
        }
        let mut p = 1.0;
        for &q in &self.powers {
            if (q - p).abs() > 1e-12 {
                return Err("decay table out of sync with alpha");
            }
            p *= self.alpha;
        }
        // Every (key, slice) pair indexed once with the right epoch and
        // count, and nothing else.
        let mut indexed: usize = 0;
        let newest = self.next_epoch.wrapping_sub(1);
        for (age, slice) in self.history.iter().enumerate() {
            if slice.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err("slice keys not strictly ascending");
            }
            let epoch = newest - age as u64;
            for &(key, count) in slice {
                if count == 0 {
                    return Err("slice holds a zero count");
                }
                let found = match self.occ.get(&key) {
                    Some(Occ::One(e, c)) => (*e == epoch).then_some(*c),
                    Some(Occ::Many(entries)) => {
                        entries.iter().find(|&&(e, _)| e == epoch).map(|&(_, c)| c)
                    }
                    None => None,
                };
                match found {
                    Some(c) if c == count => indexed += 1,
                    Some(_) => return Err("occurrence index holds a stale count"),
                    None => return Err("occurrence index missing a resident key"),
                }
            }
        }
        let mut total: usize = 0;
        for occ in self.occ.values() {
            match occ {
                Occ::One(..) => total += 1,
                Occ::Many(entries) => {
                    if entries.len() < 2 {
                        return Err("occurrence index spills a key with under two entries");
                    }
                    if entries
                        .iter()
                        .zip(entries.iter().skip(1))
                        .any(|(a, b)| a.0 >= b.0)
                    {
                        return Err("occurrence index entries out of epoch order");
                    }
                    total += entries.len();
                }
            }
        }
        if total != indexed {
            return Err("occurrence index holds entries for expired slices");
        }
        Ok(())
    }

    /// Brute-force reference implementation of `λ` used by the test suite
    /// (kept here so it stays in sync with the window's internal layout).
    #[doc(hidden)]
    pub fn lambda_reference(&self, key: u64) -> f64 {
        let mut sum = 0.0;
        for (i, slice) in self.history.iter().enumerate() {
            let c = Self::count_in(slice, key);
            if c > 0 {
                sum += self.alpha.powi(i as i32) * c as f64;
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fill one slice with the given keys and close it.
    fn push_slice(w: &mut SlidingWindow, keys: &[u64]) -> Option<Slice> {
        for &k in keys {
            w.note_query(k);
        }
        w.end_slice()
    }

    /// Whether `key` appears in the expired slice.
    fn has(slice: &[(u64, u32)], key: u64) -> bool {
        slice.iter().any(|&(k, _)| k == key)
    }

    #[test]
    fn no_expiry_until_window_fills() {
        let mut w = SlidingWindow::new(3, 0.9, 0.0);
        assert!(push_slice(&mut w, &[1]).is_none());
        assert!(push_slice(&mut w, &[2]).is_none());
        assert!(push_slice(&mut w, &[3]).is_none());
        // Fourth closure expires the first slice.
        let expired = push_slice(&mut w, &[4]).expect("window full");
        assert!(has(&expired, 1));
    }

    #[test]
    fn lambda_weights_decay_with_age() {
        let mut w = SlidingWindow::new(3, 0.5, 0.0);
        push_slice(&mut w, &[7]); // will be t_3 (α² = 0.25)
        push_slice(&mut w, &[7]); // t_2 (α = 0.5)
        push_slice(&mut w, &[7]); // t_1 (α⁰ = 1)
        assert!((w.lambda(7) - 1.75).abs() < 1e-12);
        assert_eq!(w.lambda(8), 0.0);
    }

    #[test]
    fn lambda_counts_multiplicity() {
        let mut w = SlidingWindow::new(2, 0.9, 0.0);
        push_slice(&mut w, &[5, 5, 5]); // three queries in one slice
        assert!((w.lambda(5) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lambda_matches_reference_on_random_history() {
        let mut w = SlidingWindow::new(10, 0.93, 0.0);
        for i in 0..25u64 {
            let keys: Vec<u64> = (0..20).map(|j| (i * 31 + j * 17) % 50).collect();
            push_slice(&mut w, &keys);
        }
        for k in 0..50 {
            assert!(
                (w.lambda(k) - w.lambda_reference(k)).abs() < 1e-9,
                "mismatch at key {k}"
            );
        }
    }

    #[test]
    fn baseline_threshold_spares_window_residents() {
        // T_λ = α^(m-1): a key queried once anywhere in the window survives.
        let m = 5;
        let alpha: f64 = 0.99;
        let t = alpha.powi(m as i32 - 1);
        let mut w = SlidingWindow::new(m, alpha, t);
        // Key 1 queried only in the slice that is about to expire...
        push_slice(&mut w, &[1]);
        for _ in 0..m - 1 {
            push_slice(&mut w, &[2]);
        }
        let expired = push_slice(&mut w, &[2]).expect("expiry");
        // ...so it is evicted; key 2 (still in window) would survive.
        assert_eq!(w.victims(&expired), vec![1]);
        assert!(w.lambda(2) >= t);
    }

    #[test]
    fn requeried_keys_survive_expiry() {
        let m = 4;
        let alpha = 0.99;
        let mut w = SlidingWindow::new(m, alpha, alpha.powi(m as i32 - 1));
        push_slice(&mut w, &[9]); // old query of key 9
        push_slice(&mut w, &[]);
        push_slice(&mut w, &[9]); // re-query keeps it warm
        push_slice(&mut w, &[]);
        let expired = push_slice(&mut w, &[]).expect("expiry");
        assert!(has(&expired, 9));
        assert!(w.victims(&expired).is_empty(), "re-queried key evicted");
    }

    #[test]
    fn lower_alpha_evicts_more_aggressively() {
        // Figure 7's mechanism: with smaller α, a key must be re-queried
        // more recently/often to stay above the same relative threshold.
        let m = 10;
        let run = |alpha: f64| -> bool {
            // Same absolute threshold for both decays.
            let mut w = SlidingWindow::new(m, alpha, 0.8);
            // Key queried once, five slices before the check.
            push_slice(&mut w, &[1]);
            for _ in 0..5 {
                push_slice(&mut w, &[]);
            }
            w.lambda(1) >= w.threshold()
        };
        assert!(run(0.99), "high decay should retain");
        assert!(!run(0.5), "low decay should evict");
    }

    #[test]
    fn tracked_keys_counts_distinct() {
        let mut w = SlidingWindow::new(3, 0.9, 0.0);
        push_slice(&mut w, &[1, 2, 2]);
        w.note_query(3);
        assert_eq!(w.tracked_keys(), 3);
    }

    #[test]
    fn zero_threshold_never_evicts() {
        let mut w = SlidingWindow::new(2, 0.9, 0.0);
        push_slice(&mut w, &[1, 2, 3]);
        push_slice(&mut w, &[]);
        let expired = push_slice(&mut w, &[]).expect("expiry");
        assert!(!expired.is_empty());
        assert!(w.victims(&expired).is_empty());
    }

    #[test]
    #[should_panic(expected = "decay must be in (0, 1)")]
    fn invalid_alpha_rejected() {
        SlidingWindow::new(5, 1.5, 0.0);
    }

    #[test]
    fn empty_window_scores_zero_and_yields_no_victims() {
        // A window that has never seen a query: λ is 0 everywhere, an
        // expired-but-empty slice produces no victims, and closing empty
        // slices never expires anything until the window fills.
        let mut w = SlidingWindow::new(3, 0.9, 0.5);
        assert_eq!(w.lambda(42), 0.0);
        assert_eq!(w.tracked_keys(), 0);
        assert!(w.victims(&[]).is_empty());
        assert!(w.end_slice().is_none());
        assert!(w.end_slice().is_none());
        assert!(w.end_slice().is_none());
        let expired = w.end_slice().expect("window full");
        assert!(expired.is_empty());
        assert!(w.victims(&expired).is_empty());
        w.check_invariants().expect("structurally sound");
    }

    #[test]
    fn eviction_threshold_boundary_is_strict() {
        // Eviction fires iff λ(k) < T_λ (strict). With the baseline
        // threshold T_λ = α^(m-1), a key queried exactly once in the
        // *oldest* surviving slice scores λ = α^(m-1) == T_λ and must
        // survive; a key only in the expired slice scores below and goes.
        let m = 4;
        let alpha: f64 = 0.5;
        let t = alpha.powi(m as i32 - 1); // 0.125
        let mut w = SlidingWindow::new(m, alpha, t);
        push_slice(&mut w, &[1]); // key 1: expires with this slice
        push_slice(&mut w, &[2]); // key 2: will sit at t_m when scored
        for _ in 0..m - 1 {
            push_slice(&mut w, &[]);
        }
        // Note: the loop above closed m-1 slices after key 2's, so key 1's
        // slice has expired and key 2's occupies the oldest window slot.
        assert!((w.lambda(2) - t).abs() < 1e-12, "λ(2) = {}", w.lambda(2));
        let victims = w.victims(&[(1, 1), (2, 1)]);
        assert!(victims.contains(&1), "λ(1) < T_λ must evict");
        assert!(!victims.contains(&2), "λ(2) == T_λ must survive (strict <)");
    }

    #[test]
    fn single_slice_window_expires_each_step() {
        // m = 1 degenerates to "evict anything not re-queried last slice":
        // T_λ = α^0 = 1, and each closure expires the previous slice.
        let mut w = SlidingWindow::new(1, 0.7, 1.0);
        assert!(push_slice(&mut w, &[5]).is_none(), "first slice just fills");
        let expired = push_slice(&mut w, &[5]).expect("m=1 expires every step");
        assert!(has(&expired, 5));
        // Key 5 was re-queried in the surviving slice: λ = 1 == T_λ, kept.
        assert!(w.victims(&expired).is_empty());
        // Not re-queried this time: λ = 0 < 1, evicted.
        let expired = push_slice(&mut w, &[]).expect("expiry");
        assert_eq!(w.victims(&expired), vec![5]);
        w.check_invariants().expect("structurally sound");
    }

    #[test]
    fn shrinking_the_window_expires_oldest_slices() {
        let mut w = SlidingWindow::new(5, 0.9, 0.0);
        for k in 0..5u64 {
            push_slice(&mut w, &[k]);
        }
        // Shrink 5 -> 2: slices holding keys 0, 1, 2 expire, oldest first.
        let expired = w.set_slices(2);
        assert_eq!(expired.len(), 3);
        assert!(has(&expired[0], 0));
        assert!(has(&expired[1], 1));
        assert!(has(&expired[2], 2));
        assert_eq!(w.slices(), 2);
        // Remaining window scores only the two newest slices.
        assert_eq!(w.lambda(2), 0.0);
        assert!(w.lambda(4) > 0.0);
    }

    #[test]
    fn growing_the_window_keeps_history_and_rescales_powers() {
        let mut w = SlidingWindow::new(2, 0.5, 0.0);
        push_slice(&mut w, &[7]);
        push_slice(&mut w, &[7]);
        assert!(w.set_slices(4).is_empty());
        assert_eq!(w.slices(), 4);
        // Both queries still visible; next closures don't expire early.
        assert!((w.lambda(7) - 1.5).abs() < 1e-12);
        assert!(push_slice(&mut w, &[]).is_none());
        assert!(push_slice(&mut w, &[]).is_none());
        assert!(push_slice(&mut w, &[]).is_some());
    }

    #[test]
    fn incremental_lambda_is_bit_exact_under_churn() {
        // The hot-path scorer must agree with the full O(m·log n) scan to
        // the last bit — including across shrink-then-grow resizes — or the
        // simtest bit-exact oracle would flag eviction divergence.
        let mut w = SlidingWindow::new(6, 0.93, 0.5);
        let mut state = 0x243F6A8885A308D3u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..200u64 {
            for _ in 0..rand() % 8 {
                w.note_query(rand() % 40);
            }
            let _ = w.end_slice();
            if round % 31 == 17 {
                let _ = w.set_slices((rand() % 9 + 1) as usize);
            }
            w.check_invariants().expect("occurrence index in sync");
            for k in 0..40u64 {
                assert_eq!(
                    w.lambda(k).to_bits(),
                    w.lambda_incremental(k).to_bits(),
                    "round {round}, key {k}"
                );
            }
        }
    }

    #[test]
    fn victims_use_the_occurrence_index() {
        // Same decisions as the full rescore on a window where some expired
        // keys are still resident and some are gone entirely.
        let m = 4;
        let alpha: f64 = 0.9;
        let mut w = SlidingWindow::new(m, alpha, alpha.powi(m as i32 - 1));
        push_slice(&mut w, &[1, 2]);
        push_slice(&mut w, &[2]);
        push_slice(&mut w, &[3]);
        push_slice(&mut w, &[]);
        let expired = push_slice(&mut w, &[]).expect("expiry");
        let fast = w.victims(&expired);
        let slow: Vec<u64> = expired
            .iter()
            .map(|&(k, _)| k)
            .filter(|&k| w.lambda(k) < w.threshold())
            .collect();
        assert_eq!(fast, slow);
        w.check_invariants().expect("structurally sound");
    }

    #[test]
    fn tracked_keys_counts_current_and_history_overlap_once() {
        let mut w = SlidingWindow::new(3, 0.9, 0.0);
        push_slice(&mut w, &[1, 2]);
        // Key 2 re-queried in the open slice must not double-count.
        w.note_query(2);
        w.note_query(9);
        assert_eq!(w.tracked_keys(), 3);
    }

    #[test]
    fn resize_then_lambda_matches_reference() {
        let mut w = SlidingWindow::new(8, 0.93, 0.0);
        for i in 0..12u64 {
            push_slice(&mut w, &[(i * 3) % 7, i % 5]);
        }
        w.set_slices(3);
        push_slice(&mut w, &[1, 2]);
        for k in 0..7 {
            assert!((w.lambda(k) - w.lambda_reference(k)).abs() < 1e-9);
        }
    }

    /// Whether `key`'s index entry is held inline (`Some(true)`), spilled
    /// (`Some(false)`), or absent (`None`).
    fn inline(w: &SlidingWindow, key: u64) -> Option<bool> {
        w.occ.get(&key).map(|o| matches!(o, Occ::One(..)))
    }

    #[test]
    fn closed_slice_is_sorted_run_length_encoded() {
        let mut w = SlidingWindow::new(1, 0.5, 0.0);
        push_slice(&mut w, &[9, 3, 9, 1, 3, 9]);
        let expired = push_slice(&mut w, &[]).expect("m=1 expires every step");
        assert_eq!(expired, vec![(1, 1), (3, 2), (9, 3)]);
    }

    #[test]
    fn occurrence_round_trips_inline_spilled_inline() {
        // Key 7 in one slice, then in two, then back to one and none as
        // its slices expire; λ stays bit-exact with the full scan.
        let mut w = SlidingWindow::new(3, 0.9, 0.0);
        let check = |w: &SlidingWindow, want: Option<bool>| {
            w.check_invariants().expect("occurrence index in sync");
            assert_eq!(inline(w, 7), want);
            assert_eq!(w.lambda(7).to_bits(), w.lambda_incremental(7).to_bits());
        };
        push_slice(&mut w, &[7, 7]);
        check(&w, Some(true));
        push_slice(&mut w, &[7]);
        check(&w, Some(false));
        push_slice(&mut w, &[1]);
        check(&w, Some(false));
        // The first slice holding key 7 expires: one occurrence left.
        let expired = push_slice(&mut w, &[2]).expect("expiry");
        assert_eq!(expired, vec![(7, 2)]);
        w.recycle(expired);
        check(&w, Some(true));
        // The second one expires: the key leaves the index.
        let expired = push_slice(&mut w, &[3]).expect("expiry");
        assert_eq!(expired, vec![(7, 1)]);
        check(&w, None);
        assert_eq!(w.lambda_incremental(7).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn recycled_buffers_are_reused_without_leaking_contents() {
        let mut w = SlidingWindow::new(1, 0.5, 0.0);
        push_slice(&mut w, &[1, 2, 3, 4]);
        let expired = push_slice(&mut w, &[5]).expect("expiry");
        let cap = expired.capacity();
        w.recycle(expired);
        let expired = push_slice(&mut w, &[6]).expect("expiry");
        assert_eq!(expired, vec![(5, 1)]);
        // The closed slice [6] took the recycled buffer.
        let expired = push_slice(&mut w, &[]).expect("expiry");
        assert_eq!(expired, vec![(6, 1)]);
        assert_eq!(expired.capacity(), cap);
        w.check_invariants().expect("structurally sound");
    }

    #[test]
    fn auditor_rejects_a_corrupted_occurrence_index() {
        let mut w = SlidingWindow::new(4, 0.9, 0.0);
        push_slice(&mut w, &[1, 2]);
        push_slice(&mut w, &[2, 3]);
        w.check_invariants().expect("structurally sound");

        let mut stale = w.clone();
        stale.occ.insert(1, Occ::One(1, 1));
        assert!(stale.check_invariants().is_err(), "wrong epoch");

        let mut miscount = w.clone();
        miscount.occ.insert(3, Occ::One(1, 5));
        assert!(miscount.check_invariants().is_err(), "wrong count");

        let mut missing = w.clone();
        missing.occ.remove(&2);
        assert!(missing.check_invariants().is_err(), "key dropped");

        let mut extra = w.clone();
        extra.occ.insert(99, Occ::One(0, 1));
        assert!(extra.check_invariants().is_err(), "expired entry kept");

        let mut short = w.clone();
        short.occ.insert(1, Occ::Many(VecDeque::from([(0, 1)])));
        assert!(short.check_invariants().is_err(), "spilled single entry");

        let mut unsorted = w.clone();
        unsorted.history[0] = vec![(3, 1), (2, 1)];
        assert!(unsorted.check_invariants().is_err(), "slice out of order");
    }
}
