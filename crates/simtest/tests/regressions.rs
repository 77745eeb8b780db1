//! Shrunken schedules from real bugs the simulation harness flushed out.
//!
//! Each constant below is a `SIMSEED` printed by `cargo xtask simtest` on a
//! failing seed, shrunk by delta-debugging to a minimal event list, and
//! committed here after the underlying bug was fixed. They must stay green
//! forever; if one regresses, replay it directly with
//! `cargo xtask simtest --replay '<SIMSEED>'`.

use ecc_simtest::{generate, run_schedule, Family, QuietPanics, Schedule};

fn assert_passes(simseed: &str) {
    let _quiet = QuietPanics::install();
    let s = Schedule::decode(simseed).expect("committed SIMSEED must decode");
    assert_eq!(
        s.encode(),
        simseed,
        "committed SIMSEED must round-trip through encode"
    );
    if let Err(f) = run_schedule(&s) {
        panic!("regression schedule failed again: {f}\n  {simseed}");
    }
}

/// Bug 1 — `ElasticCache::insert` accepted any replacement unconditionally
/// (`is_replacement || node.fits(size)`), so a record replaced by a larger
/// payload pushed its node over capacity: key 0 grows 145 B → 251 B on a
/// 610 B node already holding 233 B. Caught by the PR-1 `validate()` audit
/// ("node over capacity") under the elastic harness; fixed by charging only
/// the byte growth (`fits(size - old_size)`) and splitting on overflow.
const ELASTIC_REPLACEMENT_GROWTH: &str = "SIMSEED/1/elastic/ring=1024,cap=610,ord=8,m=0,a=69,eps=4,min=1,pf=0,boot=185222,n=2/q13.89,q10.51,i0.145,q2.233,i0.251";

/// Bug 2 — `StaticCache::insert` skipped LRU displacement entirely for
/// replacements, so a growing replacement (key 4: 92 B → 271 B) overflowed
/// its node and tripped the `bytes() <= capacity_bytes` debug assertion.
/// Fixed by displacing after the overwrite (fresh record is MRU, so it
/// never displaces itself).
const STATIC_REPLACEMENT_GROWTH: &str = "SIMSEED/1/static/ring=1024,cap=1039,ord=8,m=0,a=99,eps=1,min=1,pf=0,boot=0,n=1/q7.119,i10.209,q4.92,q2.252,q14.211,i4.271";

/// Bug 3 — the wire server's Put handler checked `fits(size)` without
/// crediting the replaced record's bytes, answering Overflow (and storing
/// nothing) for replacements the cache had room for — and the same handler
/// previously accepted growth past capacity. Caught as a status divergence
/// against [`ecc_simtest::model::ModelServer`] under frame corruption;
/// fixed with the same growth-only charge as bug 1.
const PROTO_REPLACEMENT_GROWTH: &str = "SIMSEED/1/proto/ring=1024,cap=587,ord=8,m=0,a=99,eps=1,min=1,pf=0,boot=0,n=2/P62.61,P42.103,P47.78,P56.27,2!P27.104,x16.146!P64.41,x26.242!P10.106,P28.34,x30.109!P62.100";

/// Bug 3 over a live fleet — the same server-side Put bug let key 0 grow
/// 24 B → 151 B past a 1400 B node's budget; caught by the new
/// `LiveCoordinator::check_invariants` (per-node `used <= cap` over Stats).
const LIVE_REPLACEMENT_GROWTH: &str = "SIMSEED/1/live/ring=4096,cap=1400,ord=8,m=0,a=99,eps=2,min=1,pf=0,boot=0,n=2/p3.126,p4.180,p68.147,p112.158,p95.35,p49.129,p7.160,p2.143,p0.24,p5.175,p0.151";

#[test]
fn elastic_replacement_growth_stays_fixed() {
    assert_passes(ELASTIC_REPLACEMENT_GROWTH);
}

#[test]
fn static_replacement_growth_stays_fixed() {
    assert_passes(STATIC_REPLACEMENT_GROWTH);
}

#[test]
fn proto_replacement_growth_stays_fixed() {
    assert_passes(PROTO_REPLACEMENT_GROWTH);
}

#[test]
fn live_replacement_growth_stays_fixed() {
    assert_passes(LIVE_REPLACEMENT_GROWTH);
}

/// Same seed ⇒ same schedule ⇒ same outcome: the acceptance criterion for
/// deterministic replay, exercised end-to-end over a few seeds per family.
#[test]
fn generation_and_execution_are_deterministic() {
    let _quiet = QuietPanics::install();
    for family in [
        Family::Elastic,
        Family::Workload,
        Family::Static,
        Family::Proto,
    ] {
        for seed in [0u64, 3, 17] {
            let a = generate(family, seed);
            let b = generate(family, seed);
            assert_eq!(a.encode(), b.encode(), "{family:?}/{seed} generation");
            let ra = run_schedule(&a).map_err(|f| f.to_string());
            let rb = run_schedule(&b).map_err(|f| f.to_string());
            assert_eq!(ra, rb, "{family:?}/{seed} execution");
        }
    }
}

/// A schedule decoded from its own printed SIMSEED behaves identically to
/// the original generated one.
#[test]
fn replay_reproduces_the_generated_schedule() {
    let _quiet = QuietPanics::install();
    for family in [
        Family::Elastic,
        Family::Workload,
        Family::Static,
        Family::Proto,
    ] {
        let orig = generate(family, 42);
        let replayed = Schedule::decode(&orig.encode()).expect("self-encoding decodes");
        assert_eq!(orig.family, replayed.family);
        assert_eq!(orig.events, replayed.events);
        assert_eq!(
            run_schedule(&orig).map_err(|f| f.to_string()),
            run_schedule(&replayed).map_err(|f| f.to_string()),
            "{family:?} replay outcome"
        );
    }
}
