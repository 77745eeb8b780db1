//! Golden corpus for the `cargo xtask analyze` passes.
//!
//! Every `bad_*.rs` fixture under `tests/fixtures/` seeds a specific
//! bug and must be flagged (zero false negatives); every
//! `good_*.rs` fixture exercises the blessed idioms and must come back
//! clean. The full finding set is pinned against `expected.json` so a
//! pass that silently loosens shows up as a golden diff.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::{analyze_source, Finding, Policy};

/// Fixtures are analyzed with every pass enabled but two — they stand in
/// for the strictest real file. The reactor pass is file-targeted in the
/// real tree (only `crates/net/src/reactor.rs`), so here it applies only
/// to fixtures named for it; the `must-use` suffix rule has its unit
/// tests.
fn policy_for_fixture(name: &str) -> Policy {
    Policy {
        unsafe_free: true,
        must_use: false,
        atomics: true,
        guard_io: true,
        reactor_io: name.contains("reactor"),
    }
}

fn fixture_findings(name: &str, src: &str) -> Vec<Finding> {
    analyze_source(&format!("fixtures/{name}"), src, policy_for_fixture(name))
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
