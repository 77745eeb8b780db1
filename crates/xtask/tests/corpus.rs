//! Golden corpus for the concurrency passes and the `unsafe` allowlist.
//!
//! Every `bad_*.rs` fixture under `tests/fixtures/` seeds a specific
//! bug and must be flagged (zero false negatives); every
//! `good_*.rs` fixture exercises the blessed idioms and must come back
//! clean. The full finding set is pinned against `expected.json` so a
//! pass that silently loosens shows up as a golden diff.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

use xtask::concurrency::{analyze_source, ConcPolicy};
use xtask::{scan_source, Finding, Policy, Rule};

/// Fixtures are analyzed with every file-wide pass enabled — they stand
/// in for the strictest real file (a hot-path file in
/// `crates/core`/`crates/net`). The reactor pass is file-targeted in the
/// real tree (only `crates/net/src/reactor.rs`), so here it applies only
/// to fixtures named for it — see [`policy_for_fixture`].
const ALL_PASSES: ConcPolicy = ConcPolicy {
    lock_order: true,
    atomics: true,
    guard_io: true,
    reactor_io: false,
    span_discipline: true,
    hot_alloc: false,
};

/// Reactor-named fixtures additionally ban blocking primitives outright,
/// and hot-alloc-named fixtures ban global-allocator calls, mirroring how
/// `conc_policy_for` singles out the file-targeted passes.
fn policy_for_fixture(name: &str) -> ConcPolicy {
    ConcPolicy {
        reactor_io: name.contains("reactor"),
        hot_alloc: name.contains("hot_alloc"),
        ..ALL_PASSES
    }
}

/// The lint pass's allowlist half of `deny-unsafe`, alone: what any file
/// off `xtask::UNSAFE_ALLOWLIST` is held to.
const UNSAFE_FREE_ONLY: Policy = Policy {
    panics: false,
    wallclock: false,
    must_use: false,
    deny_unsafe: false,
    unsafe_free: true,
    prints: false,
    std_mutex: false,
    payload_copy: false,
};

/// Everything the passes say about one fixture: the concurrency passes
/// always, the `unsafe` allowlist rule for fixtures named for it.
fn fixture_findings(name: &str, src: &str) -> Vec<Finding> {
    let rel = format!("fixtures/{name}");
    let mut findings = analyze_source(&rel, src, policy_for_fixture(name));
    if name.contains("unsafe") {
        findings.extend(scan_source(&rel, src, UNSAFE_FREE_ONLY));
    }
    findings
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_sources() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(fixtures_dir()).expect("fixtures dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 fixture name")
            .to_string();
        let src = fs::read_to_string(&path).expect("read fixture");
        out.push((name, src));
    }
    out.sort();
    assert!(out.len() >= 5, "fixture corpus went missing");
    out
}

#[test]
fn corpus_matches_golden_findings() {
    let mut rows = Vec::new();
    for (name, src) in fixture_sources() {
        for f in fixture_findings(&name, &src) {
            rows.push(format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\"}}",
                f.file,
                f.line,
                f.rule.slug()
            ));
        }
    }
    let got = format!("[\n  {}\n]", rows.join(",\n  "));
    let expected = fs::read_to_string(fixtures_dir().join("expected.json")).expect("expected.json");
    assert_eq!(
        got.trim(),
        expected.trim(),
        "findings drifted from the golden corpus; \
         if the change is intentional, update tests/fixtures/expected.json"
    );
}

#[test]
fn every_bad_fixture_is_flagged_and_every_good_fixture_is_clean() {
    for (name, src) in fixture_sources() {
        let findings = fixture_findings(&name, &src);
        if name.starts_with("bad_") {
            assert!(
                !findings.is_empty(),
                "{name}: seeded bug not flagged (false negative)"
            );
        } else {
            assert!(
                findings.is_empty(),
                "{name}: clean fixture produced findings: {findings:?}"
            );
        }
    }
}

/// The static half of the seeded lock-order regression pair. The runtime
/// half — the same Stripe(1)-then-Structural shape hitting the debug-build
/// auditor — is pinned in `ecc_core::lockorder`'s tests.
#[test]
fn seeded_lock_inversion_is_pinned() {
    let src = fs::read_to_string(fixtures_dir().join("bad_lock_inversion.rs")).expect("fixture");
    let findings = analyze_source("fixtures/bad_lock_inversion.rs", &src, ALL_PASSES);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::LockOrder && f.line == 7),
        "structural-under-stripe inversion must be caught at the \
         acquisition site; got {findings:?}"
    );
}
