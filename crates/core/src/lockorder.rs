//! Debug-build runtime lock-order auditor for the `ShardedNode` lock
//! hierarchy.
//!
//! The hierarchy (DESIGN.md §13) is:
//!
//! 1. [`LockClass::Structural`] — the node-wide order point — is acquired
//!    first or not at all;
//! 2. [`LockClass::Stripe`]`(i)` locks are acquired in strictly ascending
//!    index order, and never before `Structural` on the same thread. Under
//!    one `Structural` hold this spans the whole walk: a range op that
//!    releases stripe 3 may not take stripe 1 next.
//!
//! This auditor is the one owner of that rule. `ShardedNode` and the slab
//! arena take every lock through `Ordered::acquire`, which calls
//! [`acquire`] first, and every debug-build `cargo test` runs it. Each
//! thread keeps a thread-local stack of held lock classes; acquiring a
//! class whose rank is not strictly above every held class yields a typed
//! [`LockOrderViolation`] — and [`acquire`] panics on it under
//! `cfg(debug_assertions)`.
//!
//! **Release builds compile the auditor out completely**: the thread-local
//! is absent, [`LockToken`] is a zero-sized type with an empty `Drop`, and
//! every function body reduces to a constant.

use std::fmt;

#[cfg(debug_assertions)]
use std::cell::RefCell;

/// A lock's place in the `ShardedNode` hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// The node-wide structural `RwLock` — always first.
    Structural,
    /// The stripe lock with this index — after `Structural`, ascending.
    Stripe(usize),
    /// A slab class's page-list mutex — below every stripe (slab locks
    /// are leaves: record drops free slots while a stripe guard is held).
    SlabPage(usize),
    /// A slab class's freelist mutex — the lowest leaf (taken inside the
    /// page lock during `grow`).
    SlabFree(usize),
}

impl LockClass {
    /// Total order of the hierarchy: `Structural` below every stripe,
    /// stripes by index. An acquisition is legal iff its rank is strictly
    /// above every rank already held by the thread (equality would be a
    /// recursive acquisition, which deadlocks once a writer queues).
    /// Only the debug-build auditor calls this; release builds compile
    /// the checks out.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn rank(self) -> (u8, usize) {
        match self {
            LockClass::Structural => (0, 0),
            LockClass::Stripe(i) => (1, i),
            LockClass::SlabPage(c) => (2, c),
            LockClass::SlabFree(c) => (3, c),
        }
    }
}

impl fmt::Display for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockClass::Structural => f.write_str("structural"),
            LockClass::Stripe(i) => write!(f, "stripe[{i}]"),
            LockClass::SlabPage(c) => write!(f, "slab-page[{c}]"),
            LockClass::SlabFree(c) => write!(f, "slab-free[{c}]"),
        }
    }
}

/// A lock-hierarchy inversion detected by the auditor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockOrderViolation {
    /// Lock classes the thread already held, in acquisition order.
    pub held: Vec<LockClass>,
    /// The class whose acquisition violated the hierarchy.
    pub acquiring: LockClass,
    /// The highest stripe this thread already took and released under its
    /// current `Structural` hold, when that is what `acquiring` fails to
    /// rank above.
    pub after: Option<LockClass>,
}

impl fmt::Display for LockOrderViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acquiring {} while holding [", self.acquiring)?;
        for (i, c) in self.held.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{c}")?;
        }
        f.write_str("]")?;
        if let Some(after) = self.after {
            write!(f, " after {after}")?;
        }
        f.write_str(" — the order is structural → stripes ascending")
    }
}

impl std::error::Error for LockOrderViolation {}

/// One thread's audit state.
#[cfg(debug_assertions)]
struct Held {
    /// Lock classes held, in acquisition order.
    stack: Vec<LockClass>,
    /// Highest stripe index released while `Structural` stayed held.
    released_stripe: Option<usize>,
}

#[cfg(debug_assertions)]
thread_local! {
    static HELD: RefCell<Held> = const {
        RefCell::new(Held {
            stack: Vec::new(),
            released_stripe: None,
        })
    };
}

/// RAII witness of one audited acquisition: dropping it pops the class
/// from the thread's held stack. Zero-sized (and `Drop` is empty) in
/// release builds.
#[must_use]
#[derive(Debug)]
pub struct LockToken {
    #[cfg(debug_assertions)]
    class: Option<LockClass>,
}

impl Drop for LockToken {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        if let Some(class) = self.class.take() {
            HELD.with(|h| {
                let held = &mut *h.borrow_mut();
                if let Some(pos) = held.stack.iter().rposition(|&c| c == class) {
                    held.stack.remove(pos);
                }
                match class {
                    LockClass::Structural => held.released_stripe = None,
                    LockClass::Stripe(i) if held.stack.contains(&LockClass::Structural) => {
                        held.released_stripe = held.released_stripe.max(Some(i));
                    }
                    _ => {}
                }
            });
        }
    }
}

/// Record the acquisition of `class`, returning a typed violation if it
/// breaks the hierarchy. In release builds this always succeeds and does
/// nothing.
#[inline]
pub fn try_acquire(class: LockClass) -> Result<LockToken, LockOrderViolation> {
    #[cfg(debug_assertions)]
    {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            let after = match (class, held.released_stripe) {
                (LockClass::Stripe(i), Some(r)) if i <= r => Some(LockClass::Stripe(r)),
                _ => None,
            };
            if after.is_some() || held.stack.iter().any(|c| c.rank() >= class.rank()) {
                return Err(LockOrderViolation {
                    held: held.stack.clone(),
                    acquiring: class,
                    after,
                });
            }
            held.stack.push(class);
            Ok(LockToken { class: Some(class) })
        })
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = class;
        Ok(LockToken {})
    }
}

/// Record the acquisition of `class`; panics on a hierarchy violation in
/// debug builds (compiled out in release). Call immediately *before* the
/// real lock call so the deadlock is reported instead of hit.
#[inline]
#[expect(clippy::panic, reason = "the debug-build auditor fails fast by design")]
pub fn acquire(class: LockClass) -> LockToken {
    match try_acquire(class) {
        Ok(token) => token,
        Err(v) => {
            // Release builds cannot reach this arm: try_acquire is
            // infallible there.
            panic!("lock-order violation: {v}")
        }
    }
}

/// A lock guard paired with its audit token: [`Ordered::acquire`] takes
/// the token before the lock call, and the guard drops before the token,
/// so no lock taken through it skips the auditor. `ShardedNode`'s stripe
/// and structural locks and the slab arena's page and freelist mutexes are
/// all taken this way.
pub(crate) struct Ordered<G> {
    guard: G,
    _order: LockToken,
}

impl<G> Ordered<G> {
    /// Record the acquisition of `class`, then run `lock` to take it.
    #[inline]
    pub(crate) fn acquire(class: LockClass, lock: impl FnOnce() -> G) -> Self {
        let order = acquire(class);
        Ordered {
            guard: lock(),
            _order: order,
        }
    }
}

impl<G: std::ops::Deref> std::ops::Deref for Ordered<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: std::ops::DerefMut> std::ops::DerefMut for Ordered<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// Lock classes currently held by this thread (empty in release builds).
pub fn held() -> Vec<LockClass> {
    #[cfg(debug_assertions)]
    {
        HELD.with(|h| h.borrow().stack.clone())
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// Assert the thread holds no audited locks — request boundaries in the
/// server are quiescent points; a guard surviving one is a leak. No-op in
/// release builds.
#[inline]
pub fn assert_quiescent() {
    #[cfg(debug_assertions)]
    {
        let leaked = held();
        #[expect(clippy::panic, reason = "the debug-build auditor fails fast by design")]
        if !leaked.is_empty() {
            panic!("lock guard(s) leaked across a quiescent point: {leaked:?}")
        }
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_order_is_accepted() {
        let s = try_acquire(LockClass::Structural).expect("structural first");
        let a = try_acquire(LockClass::Stripe(0)).expect("stripe after structural");
        let b = try_acquire(LockClass::Stripe(3)).expect("ascending stripes");
        assert_eq!(
            held(),
            vec![
                LockClass::Structural,
                LockClass::Stripe(0),
                LockClass::Stripe(3)
            ]
        );
        drop(b);
        drop(a);
        drop(s);
        assert_quiescent();
    }

    #[test]
    fn inversion_yields_a_typed_violation() {
        // The seeded inversion: a stripe guard held, then `structural`.
        let stripe = try_acquire(LockClass::Stripe(1)).expect("stripe alone is fine");
        let err = try_acquire(LockClass::Structural).expect_err("inversion must be caught");
        assert_eq!(err.acquiring, LockClass::Structural);
        assert_eq!(err.held, vec![LockClass::Stripe(1)]);
        let msg = err.to_string();
        assert!(
            msg.contains("structural") && msg.contains("stripe[1]"),
            "{msg}"
        );
        drop(stripe);
        assert_quiescent();
    }

    #[test]
    fn descending_and_recursive_stripes_are_violations() {
        let hi = try_acquire(LockClass::Stripe(5)).expect("first stripe");
        assert!(try_acquire(LockClass::Stripe(3)).is_err(), "descending");
        assert!(try_acquire(LockClass::Stripe(5)).is_err(), "recursive");
        assert!(try_acquire(LockClass::Stripe(6)).is_ok(), "ascending");
        drop(hi);
    }

    #[test]
    fn stripes_stay_ascending_across_one_structural_hold() {
        let s = try_acquire(LockClass::Structural).expect("structural");
        drop(try_acquire(LockClass::Stripe(3)).expect("stripe 3"));
        let err = try_acquire(LockClass::Stripe(1)).expect_err("descending walk");
        assert_eq!(err.after, Some(LockClass::Stripe(3)));
        assert!(err.to_string().contains("after stripe[3]"), "{err}");
        drop(try_acquire(LockClass::Stripe(4)).expect("ascending walk"));
        drop(s);
        // A fresh structural hold starts a fresh walk.
        let s = try_acquire(LockClass::Structural).expect("structural again");
        drop(try_acquire(LockClass::Stripe(0)).expect("stripe 0"));
        drop(s);
        assert_quiescent();
    }

    #[test]
    fn a_batch_read_holds_its_stripes_together_then_a_second_batch_starts_afresh() {
        // One batch: structural, then its stripes ascending, all held.
        let batch = |stripes: &[usize]| {
            let s = acquire(LockClass::Structural);
            let guards: Vec<LockToken> = stripes
                .iter()
                .map(|&i| acquire(LockClass::Stripe(i)))
                .collect();
            assert_eq!(guards.len() + 1, held().len());
            drop(guards);
            drop(s);
            assert_quiescent();
        };
        batch(&[1, 4, 9]);
        // The same thread's next batch may start below the last one's top.
        batch(&[0, 2, 9, 15]);

        // Descending inside a batch is the inversion the order forbids.
        let s = acquire(LockClass::Structural);
        let hi = acquire(LockClass::Stripe(9));
        let descending = std::panic::catch_unwind(|| acquire(LockClass::Stripe(4)));
        assert!(descending.is_err(), "a descending batch must panic");
        drop(hi);
        drop(s);
        assert_quiescent();
    }

    #[test]
    fn acquire_panics_on_inversion() {
        let _structural_after = try_acquire(LockClass::Stripe(0)).expect("stripe");
        let result = std::panic::catch_unwind(|| acquire(LockClass::Structural));
        assert!(result.is_err(), "acquire must panic on inversion in debug");
    }

    #[test]
    fn tokens_pop_out_of_order_safely() {
        let s = try_acquire(LockClass::Structural).expect("structural");
        let a = try_acquire(LockClass::Stripe(0)).expect("stripe 0");
        drop(s); // dropped before the stripe token — still accounted
        assert_eq!(held(), vec![LockClass::Stripe(0)]);
        drop(a);
        assert_quiescent();
    }
}
