//! Top-level execution: run one schedule (panic-safe), run the full family
//! battery for a seed, shrink failures, and report replayable SIMSEEDs.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::event::{Family, Schedule};
use crate::{elastic_sim, gen, live_sim, proto_sim, shrink, static_sim};

/// Run budget the shrinker gets per failure.
const SHRINK_BUDGET: usize = 400;

/// One recorded harness failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimFailure {
    /// Index of the event that diverged (`None`: end-of-schedule check or
    /// setup).
    pub step: Option<usize>,
    /// What went wrong.
    pub what: String,
    /// `true` when the environment (socket setup etc.), not the system
    /// under test, failed — such failures are not shrunk.
    pub infra: bool,
}

impl SimFailure {
    /// A divergence at event index `step`.
    pub fn at(step: usize, what: String) -> Self {
        Self {
            step: Some(step),
            what,
            infra: false,
        }
    }

    /// A failure during end-of-schedule checks or teardown.
    pub fn end(what: String) -> Self {
        Self {
            step: None,
            what,
            infra: false,
        }
    }

    /// An environment failure (cannot bind/connect), not a bug in the
    /// system under test.
    pub fn infra(what: String) -> Self {
        Self {
            step: None,
            what,
            infra: true,
        }
    }
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.step {
            Some(step) => write!(f, "at event {step}: {}", self.what),
            None => write!(f, "at end of schedule: {}", self.what),
        }
    }
}

/// Extract a printable message from a panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

thread_local! {
    /// Set while [`run_schedule`] runs a harness on this thread: the panics
    /// [`QuietPanics`] silences are exactly the ones it will catch.
    static CATCHING: Cell<bool> = const { Cell::new(false) };
}

/// Run one schedule under its family's harness; a live schedule runs on
/// local links, then over TCP. Panics (debug-build `validate()`
/// assertions and the like) are caught and recorded as failures, so a
/// multi-seed run survives them.
pub fn run_schedule(s: &Schedule) -> Result<(), SimFailure> {
    run_on(s, true)
}

/// [`run_schedule`], a live schedule over TCP only if `over_tcp`.
fn run_on(s: &Schedule, over_tcp: bool) -> Result<(), SimFailure> {
    let outer = CATCHING.replace(true);
    let res = catch_unwind(AssertUnwindSafe(|| match s.family {
        // Workload schedules use the elastic event subset, so the elastic
        // harness (and its oracles) executes them unchanged.
        Family::Elastic | Family::Workload => elastic_sim::run(s),
        Family::Static => static_sim::run(s),
        Family::Proto => proto_sim::run(s),
        Family::Live => live_sim::run(s, false).and_then(|()| {
            if !over_tcp {
                return Ok(());
            }
            live_sim::run(s, true).map_err(|mut f| {
                f.what = format!("over TCP: {}", f.what);
                f
            })
        }),
    }));
    CATCHING.set(outer);
    match res {
        Ok(r) => r,
        Err(p) => Err(SimFailure::end(format!("panicked: {}", panic_message(&*p)))),
    }
}

/// A failing seed, with its original and shrunken schedules.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// The family that failed.
    pub family: Family,
    /// The failing seed.
    pub seed: u64,
    /// The full generated schedule.
    pub original: Schedule,
    /// The minimal schedule that still fails (equals `original` for infra
    /// failures, which are not shrunk).
    pub shrunken: Schedule,
    /// The failure the *shrunken* schedule produces.
    pub failure: SimFailure,
}

/// Run every family's schedule for one seed; failures are shrunk before
/// being returned. The live family runs on local links, and also over
/// TCP (real sockets, slower) when `over_tcp` is set — the multi-seed
/// driver sets it on a stride.
pub fn check_seed(seed: u64, over_tcp: bool) -> Vec<SeedOutcome> {
    let mut out = Vec::new();
    for family in Family::ALL {
        let original = gen::generate(family, seed);
        let run = |s: &Schedule| run_on(s, over_tcp);
        let Err(first) = run(&original) else {
            continue;
        };
        let (shrunken, failure) = if first.infra {
            (original.clone(), first)
        } else {
            let small = shrink::shrink(&original, |c| run(c).is_err(), SHRINK_BUDGET);
            match run(&small) {
                Err(f) => (small, f),
                // Flaky reproduction (should not happen with deterministic
                // harnesses): fall back to the original.
                Ok(()) => (original.clone(), first),
            }
        };
        out.push(SeedOutcome {
            family,
            seed,
            original,
            shrunken,
            failure,
        });
    }
    out
}

/// Silence the panic hook (which prints a backtrace for every caught
/// `validate()` panic) for panics [`run_schedule`] catches, for the
/// lifetime of the guard; any other panic — a failing test assertion in
/// the guard's scope — reports through the previous hook as usual.
/// Dropping the guard reinstates the default hook.
pub struct QuietPanics(());

impl QuietPanics {
    /// Install the silencing hook.
    pub fn install() -> QuietPanics {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CATCHING.get() {
                report(info);
            }
        }));
        QuietPanics(())
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        // The hook cannot be changed while this thread unwinds (trying
        // aborts the process); the installed one reports such panics, so
        // it may stay.
        if !std::thread::panicking() {
            // Taking the hook reinstates the default one.
            drop(std::panic::take_hook());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{SimConfig, SimEvent};

    #[test]
    fn run_schedule_catches_panics() {
        // An elastic schedule with a live-family event fails cleanly…
        let bad = Schedule {
            family: Family::Elastic,
            cfg: SimConfig::base(),
            events: vec![SimEvent::Put { key: 1, len: 10 }],
        };
        let err = run_schedule(&bad).expect_err("wrong-family event must fail");
        assert_eq!(err.step, Some(0));

        // …and a config that panics in the constructor (btree order < 4 is
        // clamped by the harness, but alpha 0 with a window is not) is
        // caught, not propagated.
        let mut cfg = SimConfig::base();
        cfg.m = 2;
        cfg.alpha_pct = 0;
        let panicky = Schedule {
            family: Family::Elastic,
            cfg,
            events: vec![],
        };
        let _guard = QuietPanics::install();
        match run_schedule(&panicky) {
            Ok(()) => {}
            Err(f) => assert!(!f.what.is_empty()),
        }
    }

    #[test]
    fn a_panic_in_a_guards_scope_unwinds_and_reports() {
        let caught = std::panic::catch_unwind(|| {
            let _q = QuietPanics::install();
            panic!("reported, not aborted")
        });
        assert!(caught.is_err());
    }

    #[test]
    fn empty_schedules_pass_everywhere() {
        for family in [Family::Elastic, Family::Static, Family::Proto] {
            let s = Schedule {
                family,
                cfg: SimConfig::base(),
                events: vec![],
            };
            assert_eq!(run_schedule(&s), Ok(()), "{family}");
        }
    }
}
