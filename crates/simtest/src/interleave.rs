//! Bounded interleaving explorer for the `ShardedNode` concurrency model
//! — a mini-loom with no dependencies.
//!
//! Real threads cannot be paused mid-instruction, so racy interleavings
//! only show up probabilistically under stress tests. This module makes
//! them deterministic instead: model threads are explicit step machines,
//! a cooperative virtual scheduler enumerates **every** schedule (thread
//! choice sequence) up to an optional preemption bound, and each schedule
//! is replayed from scratch with invariants checked after every step.
//!
//! Two exploration levels:
//!
//! * **Micro-step admission model** ([`explore_admission`]) — the
//!   CAS-reserve capacity admission of `ShardedNode::put` modeled at the
//!   granularity of individual atomic operations (load, compare-exchange,
//!   blind add). [`AdmissionImpl::CasReserve`] mirrors the real
//!   `fetch_update` loop and must never over-commit under *any*
//!   schedule; [`AdmissionImpl::CheckThenAdd`] is the classic
//!   check-then-act bug kept as a permanent self-check — the explorer
//!   must find its over-commit, or the explorer itself is broken.
//! * **Op-level differential model** ([`explore_node_ops`]) — 2–3 model
//!   threads run put/get/remove/audit sequences against a real
//!   [`ShardedNode`], every interleaving of whole operations, checked
//!   against a flat `BTreeMap` oracle at every quiescent point plus
//!   `check_invariants` after every step. Operations are linearizable
//!   (PR 5), so op-level exploration is exhaustive for cross-op effects.
//!
//! Failing schedules are delta-debug shrunk ([`crate::shrink_items`])
//! under tolerant replay: choices naming a finished thread are skipped,
//! and execution is completed round-robin, so every shrunk candidate is
//! still a valid schedule. Guarantees and bounds are documented in
//! DESIGN.md §13.

use std::collections::BTreeMap;

use ecc_core::{PutOutcome, Record, ShardedNode};

use crate::shrink::shrink_items;

/// Which admission algorithm the micro-step model executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionImpl {
    /// The real algorithm: retry loop of `load` + `compare_exchange`
    /// reserving the growth before any stripe mutation. Sound: a CAS
    /// only commits if the observed value is still current.
    CasReserve,
    /// The deliberately broken variant: separate capacity check and
    /// blind `fetch_add`. Two threads can both pass the check before
    /// either adds — the over-commit the explorer must catch.
    CheckThenAdd,
}

/// Explorer tunables.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Max preemptions (switches away from a still-runnable thread).
    /// `None` explores the full schedule space.
    pub preemption_bound: Option<usize>,
    /// Hard cap on enumerated schedules; enumeration stops (and the
    /// report notes truncation) when it is hit.
    pub max_schedules: usize,
}

impl ExploreConfig {
    /// Exhaustive exploration with a generous schedule cap.
    pub fn exhaustive() -> Self {
        ExploreConfig {
            preemption_bound: None,
            max_schedules: 2_000_000,
        }
    }

    /// CI smoke profile: preemption-bounded, tight cap.
    pub fn smoke() -> Self {
        ExploreConfig {
            preemption_bound: Some(3),
            max_schedules: 200_000,
        }
    }
}

/// One failing schedule: the original choice sequence, its shrunk form,
/// and what went wrong.
#[derive(Debug, Clone)]
pub struct ScheduleFailure {
    /// Thread choices as enumerated.
    pub choices: Vec<usize>,
    /// Delta-debug shrunk choices (tolerant replay still fails).
    pub shrunk: Vec<usize>,
    /// Human-readable description of the violated property.
    pub reason: String,
}

/// Outcome of exploring one model exhaustively.
#[derive(Debug, Clone)]
#[must_use]
pub struct ExploreReport {
    /// Which model ran (for display).
    pub model: String,
    /// Schedules executed.
    pub schedules: usize,
    /// True when enumeration hit `max_schedules` before exhausting the
    /// space — a passing truncated run is *not* a proof.
    pub truncated: bool,
    /// The preemption bound the enumeration ran under (`None` = the full
    /// schedule space). A bounded pass proves the property only for
    /// schedules within the bound.
    pub preemption_bound: Option<usize>,
    /// Schedules that violated a property (deduplicated by reason; the
    /// first witness per reason is kept).
    pub failures: Vec<ScheduleFailure>,
}

impl ExploreReport {
    /// True when the explored space contained no violation and the
    /// enumeration was not truncated.
    pub fn proven(&self) -> bool {
        self.failures.is_empty() && !self.truncated
    }
}

// ---------------------------------------------------------------------
// Schedule enumeration
// ---------------------------------------------------------------------

/// Enumerate thread-choice schedules for threads with the given step
/// counts, depth-first, up to `cfg.preemption_bound` preemptions and
/// `cfg.max_schedules` schedules. Returns `(schedules, truncated)`.
fn enumerate_schedules(steps: &[usize], cfg: &ExploreConfig) -> (Vec<Vec<usize>>, bool) {
    let mut out = Vec::new();
    let mut remaining: Vec<usize> = steps.to_vec();
    let mut prefix: Vec<usize> = Vec::new();
    let total: usize = steps.iter().sum();
    let mut truncated = false;
    dfs(
        &mut remaining,
        &mut prefix,
        None,
        0,
        total,
        cfg,
        &mut out,
        &mut truncated,
    );
    (out, truncated)
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    remaining: &mut Vec<usize>,
    prefix: &mut Vec<usize>,
    last: Option<usize>,
    preemptions: usize,
    total: usize,
    cfg: &ExploreConfig,
    out: &mut Vec<Vec<usize>>,
    truncated: &mut bool,
) {
    if *truncated {
        return;
    }
    if prefix.len() == total {
        out.push(prefix.clone());
        if out.len() >= cfg.max_schedules {
            *truncated = true;
        }
        return;
    }
    for t in 0..remaining.len() {
        if remaining[t] == 0 {
            continue;
        }
        // Switching away from a thread that could have continued costs
        // one preemption.
        let is_preempt = match last {
            Some(l) => t != l && remaining[l] > 0,
            None => false,
        };
        let p = preemptions + usize::from(is_preempt);
        if let Some(bound) = cfg.preemption_bound {
            if p > bound {
                continue;
            }
        }
        remaining[t] -= 1;
        prefix.push(t);
        dfs(remaining, prefix, Some(t), p, total, cfg, out, truncated);
        prefix.pop();
        remaining[t] += 1;
    }
}

// ---------------------------------------------------------------------
// Micro-step admission model
// ---------------------------------------------------------------------

/// CAS retry attempts per thread; each attempt is two micro-steps
/// (observe, commit), so every thread consumes exactly `2 * RETRIES`
/// steps and schedule lengths stay static across interleavings.
const RETRIES: usize = 2;

/// Parameters of one admission exploration.
#[derive(Debug, Clone)]
pub struct AdmissionModel {
    /// Which algorithm to run.
    pub algo: AdmissionImpl,
    /// Number of competing threads.
    pub threads: usize,
    /// Capacity in units.
    pub capacity: u64,
    /// Units each thread tries to reserve.
    pub need: u64,
}

/// Per-thread state of the micro-step machine.
#[derive(Debug, Clone)]
struct AdmThread {
    /// Value of `used` observed by the last observe step (None before).
    observed: Option<u64>,
    /// Attempts left (CasReserve only).
    attempts: usize,
    /// Reserved successfully.
    committed: bool,
    /// Gave up (rejected); remaining steps are no-ops.
    done: bool,
}

/// Run one schedule of the admission model from scratch; returns the
/// violated property, if any.
fn run_admission(model: &AdmissionModel, choices: &[usize]) -> Result<(), String> {
    let mut used: u64 = 0;
    let mut threads: Vec<AdmThread> = (0..model.threads)
        .map(|_| AdmThread {
            observed: None,
            attempts: RETRIES,
            committed: false,
            done: false,
        })
        .collect();

    for &t in choices {
        let th = &mut threads[t];
        if th.done || th.committed {
            // Finished threads burn their remaining steps as no-ops so
            // every schedule has the same length.
            continue;
        }
        match th.observed {
            None => {
                // Observe step: read `used` (and for CheckThenAdd, decide).
                th.observed = Some(used);
            }
            Some(seen) => {
                // Commit step.
                match model.algo {
                    AdmissionImpl::CasReserve => {
                        if seen + model.need > model.capacity {
                            th.done = true; // reject: over capacity as observed
                        } else if used == seen {
                            used += model.need; // CAS success
                            th.committed = true;
                        } else {
                            // CAS failed: retry (re-observe) if attempts remain.
                            th.attempts -= 1;
                            th.observed = None;
                            if th.attempts == 0 {
                                th.done = true;
                            }
                        }
                    }
                    AdmissionImpl::CheckThenAdd => {
                        if seen + model.need > model.capacity {
                            th.done = true;
                        } else {
                            used += model.need; // blind add — no re-validation
                            th.committed = true;
                        }
                    }
                }
            }
        }
        // Safety property, checked after *every* step: reservations never
        // exceed capacity.
        if used > model.capacity {
            return Err(format!(
                "over-commit: used={used} > capacity={} after step of thread {t}",
                model.capacity
            ));
        }
    }

    // Quiescent accounting: committed reservations are exactly `used`.
    let committed: u64 = threads.iter().filter(|t| t.committed).count() as u64 * model.need;
    if committed != used {
        return Err(format!(
            "accounting drift: {committed} units committed but used={used}"
        ));
    }
    Ok(())
}

/// Tolerant replay of a (possibly shrunk) choice sequence: choices are
/// applied in order, then execution completes round-robin so that the
/// run always reaches quiescence. Used both for shrinking and replaying
/// reported schedules.
fn complete_schedule(steps: &[usize], choices: &[usize]) -> Vec<usize> {
    let mut remaining: Vec<usize> = steps.to_vec();
    let mut full = Vec::with_capacity(steps.iter().sum());
    for &t in choices {
        if t < remaining.len() && remaining[t] > 0 {
            remaining[t] -= 1;
            full.push(t);
        }
    }
    loop {
        let mut any = false;
        for (t, r) in remaining.iter_mut().enumerate() {
            if *r > 0 {
                *r -= 1;
                full.push(t);
                any = true;
            }
        }
        if !any {
            return full;
        }
    }
}

/// Exhaustively explore the admission model under `cfg`.
pub fn explore_admission(model: &AdmissionModel, cfg: &ExploreConfig) -> ExploreReport {
    let steps: Vec<usize> = vec![2 * RETRIES; model.threads];
    let (schedules, truncated) = enumerate_schedules(&steps, cfg);
    let mut failures: Vec<ScheduleFailure> = Vec::new();
    for choices in &schedules {
        if let Err(reason) = run_admission(model, choices) {
            if failures.iter().any(|f| f.reason == reason) {
                continue;
            }
            let shrunk = shrink_items(
                choices,
                |cand| {
                    let full = complete_schedule(&steps, cand);
                    run_admission(model, &full).is_err()
                },
                4096,
            );
            failures.push(ScheduleFailure {
                choices: choices.clone(),
                shrunk,
                reason,
            });
        }
    }
    ExploreReport {
        model: format!(
            "admission/{:?}/t{}/cap{}/need{}",
            model.algo, model.threads, model.capacity, model.need
        ),
        schedules: schedules.len(),
        truncated,
        preemption_bound: cfg.preemption_bound,
        failures,
    }
}

// ---------------------------------------------------------------------
// Op-level differential model over the real ShardedNode
// ---------------------------------------------------------------------

/// One whole `ShardedNode` operation (linearizable, so op-level steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelOp {
    /// `put(key, filler(len))`.
    Put {
        /// Record key.
        key: u64,
        /// Payload length in bytes.
        len: usize,
    },
    /// `get(key)` — result checked against the oracle.
    Get {
        /// Record key.
        key: u64,
    },
    /// `get_many_with(keys)` — one batch read, each answer checked
    /// against the oracle in key order.
    GetMany {
        /// Keys to read, in order.
        keys: [u64; 2],
    },
    /// `remove(key)` — result checked against the oracle.
    Remove {
        /// Record key.
        key: u64,
    },
    /// `check_invariants()` — the auditor as an op, racing point ops.
    Audit,
}

/// Run one op-level schedule against a fresh node + flat oracle.
fn run_node_ops(
    threads: &[Vec<ModelOp>],
    capacity: u64,
    stripes: usize,
    choices: &[usize],
) -> Result<(), String> {
    let node = ShardedNode::new(capacity, 8, stripes);
    let mut oracle: BTreeMap<u64, usize> = BTreeMap::new();
    let mut oracle_used: u64 = 0;
    let mut cursors = vec![0usize; threads.len()];

    for &t in choices {
        let Some(ops) = threads.get(t) else {
            return Err(format!("schedule names unknown thread {t}"));
        };
        let Some(&op) = ops.get(cursors[t]) else {
            continue; // finished thread: no-op step
        };
        cursors[t] += 1;
        match op {
            ModelOp::Put { key, len } => {
                // The oracle charges the same true slab footprint as the
                // engine's admission CAS — `slab::footprint` is the shared
                // pure function, so the differential stays bit-exact.
                let new_fp = ecc_core::slab::footprint(len);
                let old_fp = oracle
                    .get(&key)
                    .map(|&l| ecc_core::slab::footprint(l))
                    .unwrap_or(0);
                let growth = new_fp.saturating_sub(old_fp);
                let fits = oracle_used + growth <= capacity;
                let outcome = node.put(key, Record::filler(len));
                match (outcome, fits) {
                    (PutOutcome::Stored, true) => {
                        oracle.insert(key, len);
                    }
                    (PutOutcome::Overflow, false) => {}
                    (PutOutcome::Stored, false) => {
                        return Err(format!(
                            "put({key},{len}) stored but oracle says over capacity \
                             (used={oracle_used}, cap={capacity})"
                        ));
                    }
                    (PutOutcome::Overflow, true) => {
                        return Err(format!(
                            "put({key},{len}) overflowed but oracle says it fits \
                             (used={oracle_used}, cap={capacity})"
                        ));
                    }
                }
            }
            ModelOp::Get { key } => {
                let got = node.get(key).map(|r| r.len());
                let want = oracle.get(&key).copied();
                if got != want {
                    return Err(format!("get({key}) = {got:?}, oracle says {want:?}"));
                }
            }
            ModelOp::GetMany { keys } => {
                let mut got = Vec::with_capacity(keys.len());
                node.get_many_with(&keys, |r| got.push(r.map(Record::len)));
                let want: Vec<_> = keys.iter().map(|k| oracle.get(k).copied()).collect();
                if got != want {
                    return Err(format!(
                        "get_many({keys:?}) = {got:?}, oracle says {want:?}"
                    ));
                }
            }
            ModelOp::Remove { key } => {
                let got = node.remove(key).map(|r| r.len());
                let want = oracle.remove(&key);
                if got != want {
                    return Err(format!("remove({key}) = {got:?}, oracle says {want:?}"));
                }
            }
            ModelOp::Audit => {
                if let Err(e) = node.check_invariants() {
                    return Err(format!("mid-schedule audit failed: {e}"));
                }
            }
        }
        oracle_used = oracle.values().map(|&l| ecc_core::slab::footprint(l)).sum();
        // Global safety property after every op: accounting never exceeds
        // capacity and matches the oracle byte-for-byte.
        if node.used_bytes() != oracle_used {
            return Err(format!(
                "used_bytes {} diverged from oracle {oracle_used} after {op:?}",
                node.used_bytes()
            ));
        }
        if node.used_bytes() > capacity {
            return Err(format!(
                "capacity breached: used={} > cap={capacity}",
                node.used_bytes()
            ));
        }
    }

    // Quiescent point: full audit + content equality.
    if let Err(e) = node.check_invariants() {
        return Err(format!("quiescent audit failed: {e}"));
    }
    if node.record_count() != oracle.len() as u64 {
        return Err(format!(
            "record_count {} != oracle {}",
            node.record_count(),
            oracle.len()
        ));
    }
    for (&k, &len) in &oracle {
        if node.get(k).map(|r| r.len()) != Some(len) {
            return Err(format!("quiescent content mismatch on key {k}"));
        }
    }
    Ok(())
}

/// Explore every interleaving of the given per-thread op sequences
/// against a real `ShardedNode`, differentially checked against a flat
/// map oracle.
pub fn explore_node_ops(
    threads: &[Vec<ModelOp>],
    capacity: u64,
    stripes: usize,
    cfg: &ExploreConfig,
) -> ExploreReport {
    let steps: Vec<usize> = threads.iter().map(Vec::len).collect();
    let (schedules, truncated) = enumerate_schedules(&steps, cfg);
    let mut failures: Vec<ScheduleFailure> = Vec::new();
    for choices in &schedules {
        if let Err(reason) = run_node_ops(threads, capacity, stripes, choices) {
            if failures.iter().any(|f| f.reason == reason) {
                continue;
            }
            let shrunk = shrink_items(
                choices,
                |cand| {
                    let full = complete_schedule(&steps, cand);
                    run_node_ops(threads, capacity, stripes, &full).is_err()
                },
                4096,
            );
            failures.push(ScheduleFailure {
                choices: choices.clone(),
                shrunk,
                reason,
            });
        }
    }
    ExploreReport {
        model: format!("node-ops/t{}/cap{capacity}/stripes{stripes}", threads.len()),
        schedules: schedules.len(),
        truncated,
        preemption_bound: cfg.preemption_bound,
        failures,
    }
}

// ---------------------------------------------------------------------
// The suite behind `cargo xtask interleave`
// ---------------------------------------------------------------------

/// The standard op mix: three threads racing puts/gets/batch reads/
/// removes/audits on overlapping keys near the capacity limit, where
/// admission decisions are schedule-dependent in the buggy world.
fn standard_node_threads(smoke: bool) -> Vec<Vec<ModelOp>> {
    if smoke {
        vec![
            vec![
                ModelOp::Put { key: 1, len: 40 },
                ModelOp::Put { key: 2, len: 40 },
                ModelOp::Get { key: 1 },
                ModelOp::GetMany { keys: [2, 1] },
            ],
            vec![
                ModelOp::Put { key: 1, len: 60 },
                ModelOp::Remove { key: 2 },
                ModelOp::Audit,
            ],
        ]
    } else {
        vec![
            vec![
                ModelOp::Put { key: 1, len: 40 },
                ModelOp::Put { key: 2, len: 40 },
                ModelOp::Get { key: 1 },
            ],
            vec![
                ModelOp::Put { key: 1, len: 60 },
                ModelOp::Remove { key: 2 },
                ModelOp::Audit,
            ],
            vec![
                ModelOp::Put { key: 3, len: 30 },
                ModelOp::Audit,
                ModelOp::Get { key: 3 },
                ModelOp::GetMany { keys: [3, 1] },
            ],
        ]
    }
}

/// Run the full explorer suite. `smoke` selects the CI profile (smaller
/// models, preemption bound 3); the full profile is exhaustive. The
/// returned reports include the deliberately broken `CheckThenAdd`
/// model, whose report **must** contain failures — the caller treats an
/// all-green broken model as an explorer bug.
pub fn run_interleave(smoke: bool) -> Vec<ExploreReport> {
    let cfg = if smoke {
        ExploreConfig::smoke()
    } else {
        ExploreConfig::exhaustive()
    };
    let threads = if smoke { 2 } else { 3 };
    let sound = AdmissionModel {
        algo: AdmissionImpl::CasReserve,
        threads,
        capacity: 1,
        need: 1,
    };
    let buggy = AdmissionModel {
        algo: AdmissionImpl::CheckThenAdd,
        threads,
        capacity: 1,
        need: 1,
    };
    // A capacity with headroom: multiple threads can commit, the order
    // decides who; CasReserve must stay exact anyway.
    let contended = AdmissionModel {
        algo: AdmissionImpl::CasReserve,
        threads,
        capacity: 2,
        need: 1,
    };
    vec![
        explore_admission(&sound, &cfg),
        explore_admission(&contended, &cfg),
        explore_admission(&buggy, &cfg),
        explore_node_ops(&standard_node_threads(smoke), 100, 4, &cfg),
    ]
}

/// True when a report is for a model that is *supposed* to fail (the
/// seeded bug demonstrating the explorer works).
pub fn is_seeded_bug(report: &ExploreReport) -> bool {
    report.model.contains("CheckThenAdd")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_counts_are_exact() {
        // Two threads, two steps each: C(4,2) = 6 interleavings.
        let (s, truncated) = enumerate_schedules(&[2, 2], &ExploreConfig::exhaustive());
        assert_eq!(s.len(), 6);
        assert!(!truncated);
        // Preemption bound 0: pure serial executions, one per thread order.
        let cfg = ExploreConfig {
            preemption_bound: Some(0),
            max_schedules: 1000,
        };
        let (s, _) = enumerate_schedules(&[2, 2, 2], &cfg);
        assert_eq!(s.len(), 6, "3! serial orders");
        // The cap truncates and reports it.
        let cfg = ExploreConfig {
            preemption_bound: None,
            max_schedules: 3,
        };
        let (s, truncated) = enumerate_schedules(&[2, 2], &cfg);
        assert_eq!(s.len(), 3);
        assert!(truncated);
    }

    #[test]
    fn cas_reserve_is_sound_under_every_schedule() {
        for threads in [2, 3] {
            for capacity in [1, 2, 3] {
                let report = explore_admission(
                    &AdmissionModel {
                        algo: AdmissionImpl::CasReserve,
                        threads,
                        capacity,
                        need: 1,
                    },
                    &ExploreConfig::exhaustive(),
                );
                assert!(
                    report.proven(),
                    "t={threads} cap={capacity}: {:?}",
                    report.failures
                );
                assert!(report.schedules > 0);
            }
        }
    }

    #[test]
    fn check_then_add_over_commits_and_shrinks_small() {
        let report = explore_admission(
            &AdmissionModel {
                algo: AdmissionImpl::CheckThenAdd,
                threads: 2,
                capacity: 1,
                need: 1,
            },
            &ExploreConfig::exhaustive(),
        );
        assert!(!report.failures.is_empty(), "the seeded bug must be caught");
        let f = &report.failures[0];
        assert!(f.reason.contains("over-commit"), "{}", f.reason);
        // The minimal witness is tiny: both threads observe before either
        // commits. Tolerant replay of the shrunk schedule still fails.
        assert!(f.shrunk.len() <= 4, "shrunk to {:?}", f.shrunk);
        let full = complete_schedule(&[2 * RETRIES; 2], &f.shrunk);
        assert!(run_admission(
            &AdmissionModel {
                algo: AdmissionImpl::CheckThenAdd,
                threads: 2,
                capacity: 1,
                need: 1,
            },
            &full
        )
        .is_err());
    }

    #[test]
    fn preemption_bound_two_still_catches_the_seeded_bug() {
        // The classic race needs exactly one preemption (switch after the
        // first thread's observe) — any bound ≥ 1 finds it.
        let report = explore_admission(
            &AdmissionModel {
                algo: AdmissionImpl::CheckThenAdd,
                threads: 2,
                capacity: 1,
                need: 1,
            },
            &ExploreConfig {
                preemption_bound: Some(1),
                max_schedules: 100_000,
            },
        );
        assert!(!report.failures.is_empty());
    }

    #[test]
    fn node_ops_differential_is_clean_exhaustively() {
        let report = explore_node_ops(
            &standard_node_threads(true),
            100,
            4,
            &ExploreConfig::exhaustive(),
        );
        assert!(report.proven(), "{:?}", report.failures);
        // C(7,3) = 35 interleavings of a 4-op and a 3-op thread.
        assert_eq!(report.schedules, 35);
    }

    #[test]
    fn node_ops_capacity_edge_is_schedule_independent() {
        // Capacity 100, competing replacement puts of 40/60 on one key plus
        // a 50-byte put on another: admission outcomes differ per schedule
        // but must always match the oracle's sequential view.
        let threads = vec![
            vec![ModelOp::Put { key: 1, len: 60 }, ModelOp::Audit],
            vec![
                ModelOp::Put { key: 1, len: 40 },
                ModelOp::Put { key: 9, len: 50 },
            ],
        ];
        let report = explore_node_ops(&threads, 100, 2, &ExploreConfig::exhaustive());
        assert!(report.proven(), "{:?}", report.failures);
    }

    #[test]
    fn suite_flags_only_the_seeded_bug() {
        let reports = run_interleave(true);
        assert_eq!(reports.len(), 4);
        for r in &reports {
            if is_seeded_bug(r) {
                assert!(!r.failures.is_empty(), "{}: seeded bug not caught", r.model);
            } else {
                assert!(r.failures.is_empty(), "{}: {:?}", r.model, r.failures);
            }
        }
    }
}
