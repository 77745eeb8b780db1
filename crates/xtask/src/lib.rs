//! Source passes behind `cargo xtask analyze`: the repo rules that no
//! compiler lint, clippy configuration or run-time test can express.
//!
//! The engine walks `crates/*/src`, strips comments and string literals
//! with the token-level [`lexer`], skips `#[cfg(test)]` modules where a
//! rule says so, and checks:
//!
//! * **deny-unsafe** — only the files in [`UNSAFE_ALLOWLIST`] may contain
//!   `unsafe` or lift `unsafe_code`: anywhere else an `allow(unsafe_code)`
//!   or an `unsafe` token is a finding, test modules included, with no
//!   per-line waiver. (rustc cannot forbid a new `#[allow]` inside the
//!   four crates that deny rather than forbid `unsafe_code`.)
//! * **must-use** — public result-bearing types (names ending in
//!   `Receipt`, `Report`, `Metrics`, `Stats`, `Billing`) must be
//!   `#[must_use]` so simulation outcomes cannot be silently dropped.
//! * the atomic-ordering, guard-across-I/O, reactor-blocking and
//!   span-discard passes of [`concurrency`].
//!
//! Every other repo rule has an owner outside this crate (DESIGN.md §8):
//! clippy lints denied in the crate roots, `crates/clippy.toml`, rustc's
//! `unused_must_use`, `ecc_core::lockorder`'s debug-build auditor, and
//! `crates/bench/tests/zero_alloc.rs`.
//!
//! A finding can be waived for one line with a trailing
//! `// xtask: allow(<rule>)` comment stating the reason.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod concurrency;
pub mod lexer;
pub mod trace;

use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose public result-bearing types must be `#[must_use]`.
const MUST_USE_CRATES: &[&str] = &["core", "net", "chash", "cloudsim", "obs"];

/// Name suffixes of result-bearing types that must be `#[must_use]`.
const MUST_USE_SUFFIXES: &[&str] = &["Receipt", "Report", "Metrics", "Stats", "Billing"];

/// Crates audited for atomic-ordering discipline (the data path plus the
/// observability layer and the virtual clock).
const ATOMIC_CRATES: &[&str] = &["core", "net", "obs", "cloudsim"];

/// Files where a guard across blocking I/O is a hot-path bug.
const GUARD_IO_FILES: &[&str] = &[
    "crates/net/src/server.rs",
    "crates/net/src/reactor.rs",
    "crates/net/src/coordinator.rs",
    "crates/net/src/client.rs",
    "crates/core/src/shard.rs",
];

/// Reactor event-loop files: blocking primitives are forbidden outright,
/// not merely under a guard.
const REACTOR_FILES: &[&str] = &["crates/net/src/reactor.rs"];

/// The only files under `crates/*/src` that may contain `unsafe`. Each
/// opens with `#![allow(unsafe_code)]` against its crate's
/// `#![deny(unsafe_code)]` and keeps the `unsafe` it needs — raw storage
/// or one foreign call — behind a safe interface.
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/bptree/src/inline.rs",
    "crates/core/src/slab.rs",
    "crates/bench/src/alloc_count.rs",
    "crates/net/src/sys.rs",
];

/// One rule; `Display` gives its diagnostic slug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `unsafe` / `allow(unsafe_code)` in a file off [`UNSAFE_ALLOWLIST`].
    DenyUnsafe,
    /// Result-bearing public type missing `#[must_use]`.
    MustUse,
    /// `Ordering::SeqCst` without a `// seqcst:` justification comment —
    /// downgrade to `Acquire`/`Release`/`AcqRel` or justify the fence.
    SeqCstJustify,
    /// The same atomic field mixed `Relaxed` with synchronizing orderings
    /// — one side of the pair is lying about what it synchronizes.
    MixedOrdering,
    /// A `MutexGuard`/`RwLock` guard held live across frame or socket
    /// I/O on a hot-path file (the blocking-under-lock reactor killer).
    GuardAcrossIo,
    /// Blocking I/O primitive (`read_exact`, `write_all`, blocking frame
    /// helpers, channel `recv`, mutex `lock`) inside a reactor file —
    /// one blocked call stalls every connection that reactor owns.
    BlockingIoInReactor,
}

impl Rule {
    /// The slug accepted by `// xtask: allow(<slug>)`.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::DenyUnsafe => "deny-unsafe",
            Rule::MustUse => "must-use",
            Rule::SeqCstJustify => "seqcst-justify",
            Rule::MixedOrdering => "mixed-ordering",
            Rule::GuardAcrossIo => "guard-across-io",
            Rule::BlockingIoInReactor => "no-blocking-io-in-reactor",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// One diagnostic: file, 1-based line, rule and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Which passes apply to one source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Forbid `unsafe` and `allow(unsafe_code)` (every file off
    /// [`UNSAFE_ALLOWLIST`]).
    pub unsafe_free: bool,
    /// Enforce `#[must_use]` coverage.
    pub must_use: bool,
    /// Enforce the SeqCst-justification and mixed-ordering rules.
    pub atomics: bool,
    /// Forbid guards held across frame/socket I/O.
    pub guard_io: bool,
    /// Forbid blocking I/O primitives outright (reactor event loops).
    pub reactor_io: bool,
}

/// Decide the policy for a workspace-relative path such as
/// `crates/core/src/elastic.rs`. Returns `None` for files the passes
/// ignore. Binaries get only the file-wide rules.
pub fn policy_for(rel_path: &str) -> Option<Policy> {
    let rel = rel_path.replace('\\', "/");
    let mut parts = rel.split('/');
    if parts.next() != Some("crates") {
        return None;
    }
    let krate = parts.next()?;
    if parts.next() != Some("src") || !rel.ends_with(".rs") {
        return None;
    }
    let lib = !(rel.contains("/src/bin/") || rel.ends_with("/src/main.rs"));
    Some(Policy {
        unsafe_free: !UNSAFE_ALLOWLIST.contains(&rel.as_str()),
        must_use: MUST_USE_CRATES.contains(&krate),
        atomics: lib && ATOMIC_CRATES.contains(&krate),
        guard_io: lib && GUARD_IO_FILES.contains(&rel.as_str()),
        reactor_io: lib && REACTOR_FILES.contains(&rel.as_str()),
    })
}

/// One source file as the passes see it: raw and comment/string-stripped
/// lines, whether each line falls inside a `#[cfg(test)] mod`, and the
/// brace depth at the start of each line.
pub(crate) struct SourceFile<'a> {
    pub(crate) rel: &'a str,
    pub(crate) src: &'a str,
    pub(crate) raw: Vec<&'a str>,
    pub(crate) stripped: Vec<&'a str>,
    pub(crate) in_test: Vec<bool>,
    pub(crate) depth: Vec<i64>,
}

impl<'a> SourceFile<'a> {
    fn new(rel: &'a str, src: &'a str, stripped: &'a str) -> Self {
        let stripped: Vec<&str> = stripped.lines().collect();
        let mut in_test = Vec::with_capacity(stripped.len());
        let mut depths = Vec::with_capacity(stripped.len());
        let mut depth: i64 = 0;
        let mut cfg_test_pending = false;
        let mut skip_above_depth: Option<i64> = None;
        for line in &stripped {
            depths.push(depth);
            if skip_above_depth.is_none() {
                // `#[cfg(test)]` and compound forms like
                // `#[cfg(all(test, debug_assertions))]` both gate
                // test-only modules.
                if line.contains("#[cfg(test)]") || line.contains("#[cfg(all(test") {
                    cfg_test_pending = true;
                } else if cfg_test_pending {
                    let t = line.trim_start();
                    if t.starts_with("mod ") || t.starts_with("pub mod ") {
                        skip_above_depth = Some(depth);
                        cfg_test_pending = false;
                    } else if !t.is_empty() && !t.starts_with("#[") {
                        // The cfg(test) applied to a non-module item (fn,
                        // use…); stay conservative and keep checking.
                        cfg_test_pending = false;
                    }
                }
            }
            in_test.push(skip_above_depth.is_some());
            for c in line.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if skip_above_depth.is_some_and(|d| depth <= d) {
                            skip_above_depth = None;
                        }
                    }
                    _ => {}
                }
            }
        }
        SourceFile {
            rel,
            src,
            raw: src.lines().collect(),
            stripped,
            in_test,
            depth: depths,
        }
    }

    /// True when line `idx` (0-based) carries `// xtask: allow(<rule>)`.
    pub(crate) fn waived(&self, idx: usize, rule: Rule) -> bool {
        self.raw
            .get(idx)
            .is_some_and(|l| l.contains(&format!("xtask: allow({})", rule.slug())))
    }

    /// A finding at line `idx` (0-based).
    pub(crate) fn finding(&self, idx: usize, rule: Rule, message: String) -> Finding {
        Finding {
            file: self.rel.to_string(),
            line: idx + 1,
            rule,
            message,
        }
    }
}

/// True when `word` occurs in `line` with no identifier character on
/// either side (`unsafe` matches, `unsafe_code` and `not_unsafe` do not).
fn has_word(line: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(word).any(|(pos, _)| {
        !line[..pos].chars().next_back().is_some_and(is_ident)
            && !line[pos + word.len()..]
                .chars()
                .next()
                .is_some_and(is_ident)
    })
}

/// Run every pass `policy` enables over one file's source text;
/// `rel_path` is used for diagnostics and must be workspace-relative.
pub fn analyze_source(rel_path: &str, src: &str, policy: Policy) -> Vec<Finding> {
    let stripped = lexer::strip_via_lexer(src);
    let file = SourceFile::new(rel_path, src, &stripped);
    let mut findings = Vec::new();
    for (idx, line) in file.stripped.iter().enumerate() {
        if policy.unsafe_free
            && ((has_word(line, "allow") && has_word(line, "unsafe_code"))
                || has_word(line, "unsafe"))
        {
            findings.push(
                file.finding(
                    idx,
                    Rule::DenyUnsafe,
                    "`unsafe` outside the allowlist — keep it in one of the files \
                 `xtask::UNSAFE_ALLOWLIST` names, behind a safe interface"
                        .into(),
                ),
            );
        }
        if policy.must_use && !file.in_test[idx] && !file.waived(idx, Rule::MustUse) {
            if let Some(name) = pub_type_name(line) {
                if MUST_USE_SUFFIXES.iter().any(|s| name.ends_with(s))
                    && !attr_block_has_must_use(&file.raw, idx)
                {
                    findings.push(file.finding(
                        idx,
                        Rule::MustUse,
                        format!(
                            "result-bearing type `{name}` must be `#[must_use]` so \
                             simulation outcomes cannot be silently dropped"
                        ),
                    ));
                }
            }
        }
    }
    concurrency::analyze(&file, policy, &mut findings);
    findings.sort_by_key(|f| f.line);
    findings
}

/// Extract `Name` from a `pub struct Name` / `pub enum Name` declaration line.
fn pub_type_name(stripped_line: &str) -> Option<&str> {
    let t = stripped_line.trim_start();
    let rest = t
        .strip_prefix("pub struct ")
        .or_else(|| t.strip_prefix("pub enum "))?;
    let end = rest
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// Walk the contiguous attribute/doc block above `decl_idx` looking for
/// `#[must_use`.
fn attr_block_has_must_use(raw_lines: &[&str], decl_idx: usize) -> bool {
    raw_lines[..decl_idx]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|t| t.starts_with('#') || t.starts_with("///"))
        .any(|t| t.contains("#[must_use"))
}

/// Recursively collect `.rs` files under `dir`, sorted for stable output.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `cargo xtask analyze`: run every pass over `crates/*/src` of a
/// workspace root. Returns the findings sorted by (file, line) and the
/// number of files scanned.
pub fn run_analyze(workspace_root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let mut files = Vec::new();
    rs_files(&workspace_root.join("crates"), &mut files)?;
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(workspace_root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(policy) = policy_for(&rel) else {
            continue;
        };
        let src = std::fs::read_to_string(path)?;
        scanned += 1;
        findings.extend(analyze_source(&rel, &src, policy));
    }
    findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok((findings, scanned))
}

/// Serialize findings as a stable JSON array (no serde in this crate):
/// `[{"file":..,"line":..,"rule":..,"message":..}, ...]`.
pub fn findings_to_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}{}\n",
            esc(&f.file),
            f.line,
            f.rule.slug(),
            esc(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The file-wide rules alone.
    const FILE_RULES: Policy = Policy {
        unsafe_free: true,
        must_use: true,
        atomics: false,
        guard_io: false,
        reactor_io: false,
    };

    fn lines(findings: &[Finding]) -> Vec<usize> {
        findings.iter().map(|f| f.line).collect()
    }

    #[test]
    fn must_use_suffix_types_need_attribute() {
        let bad = "pub struct LoadReport {\n    pub n: u64,\n}\n";
        let good = "#[must_use]\npub struct LoadReport {\n    pub n: u64,\n}\n";
        let doc_between = "#[must_use = \"reports must be consumed\"]\n/// Docs.\n#[derive(Debug)]\npub struct BillingStats;\n";
        let f = analyze_source("f.rs", bad, FILE_RULES);
        assert_eq!(lines(&f), vec![1]);
        assert_eq!(f[0].rule, Rule::MustUse);
        assert!(analyze_source("f.rs", good, FILE_RULES).is_empty());
        assert!(analyze_source("f.rs", doc_between, FILE_RULES).is_empty());
    }

    #[test]
    fn comments_strings_and_test_modules_are_exempt() {
        let src = "// pub struct FakeReport;\nfn f() -> &'static str {\n    \
                   r#\"pub struct RawReport;\"#\n}\n\
                   #[cfg(test)]\nmod tests {\n    pub struct TestReport;\n}\n\
                   pub struct LateReport;\n";
        assert_eq!(lines(&analyze_source("f.rs", src, FILE_RULES)), vec![9]);
    }

    #[test]
    fn allow_comment_waives_one_line() {
        let src = "pub struct AReport; // xtask: allow(must-use) — a builder, not an outcome\n\
                   pub struct BReport;\n";
        assert_eq!(lines(&analyze_source("f.rs", src, FILE_RULES)), vec![2]);
    }

    #[test]
    fn unsafe_is_confined_to_the_allowlist() {
        let src = "#![allow(unsafe_code)]\nfn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n\
                   #[cfg(test)]\nmod tests {\n    unsafe fn g() {}\n}\n";
        let f = analyze_source("crates/net/src/reactor.rs", src, FILE_RULES);
        assert_eq!(lines(&f), vec![1, 3, 7], "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::DenyUnsafe));
        // No per-line waiver: the allowlist is the one place to look.
        let waived = "fn f() {\n    unsafe { g() } // xtask: allow(deny-unsafe)\n}\n";
        assert_eq!(analyze_source("f.rs", waived, FILE_RULES).len(), 1);
        // The word in prose, in a string, or inside a longer identifier
        // is not the keyword.
        let ok = "#![deny(unsafe_code)]\n// unsafe in a comment\nfn f() -> &'static str {\n    \
                  let not_unsafe = \"unsafe\";\n    not_unsafe\n}\n";
        assert!(analyze_source("f.rs", ok, FILE_RULES).is_empty());
        // Exactly the allowlisted files are exempt, and each one exists.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for file in UNSAFE_ALLOWLIST {
            assert!(root.join(file).is_file(), "stale allowlist entry {file}");
            let p = policy_for(file).expect("policy");
            assert!(!p.unsafe_free, "{file}");
            assert!(analyze_source(file, src, p).is_empty());
        }
    }

    #[test]
    fn policies_match_the_repo_layout() {
        let p = |rel: &str| policy_for(rel).expect("a crates/*/src file");
        let shard = p("crates/core/src/shard.rs");
        assert!(shard.unsafe_free && shard.must_use && shard.atomics && shard.guard_io);
        assert!(!shard.reactor_io);
        let server = p("crates/net/src/server.rs");
        assert!(server.atomics && server.guard_io && !server.reactor_io);
        let reactor = p("crates/net/src/reactor.rs");
        assert!(reactor.atomics && reactor.guard_io && reactor.reactor_io);
        let protocol = p("crates/net/src/protocol.rs");
        assert!(protocol.atomics && !protocol.guard_io);
        let registry = p("crates/obs/src/registry.rs");
        assert!(registry.must_use && registry.atomics && !registry.guard_io);
        let tree = p("crates/bptree/src/tree.rs");
        assert!(tree.unsafe_free && !tree.must_use && !tree.atomics);
        assert!(!p("crates/core/src/slab.rs").unsafe_free);
        // Binaries keep the file-wide rules only.
        let bin = p("crates/net/src/bin/cache_server.rs");
        assert!(bin.unsafe_free && bin.must_use);
        assert!(!bin.atomics && !bin.guard_io);
        assert!(policy_for("crates/core/Cargo.toml").is_none());
        assert!(policy_for("README.md").is_none());
    }

    #[test]
    fn end_to_end_on_a_temp_tree() {
        let root = std::env::temp_dir().join(format!("xtask-analyze-test-{}", std::process::id()));
        let src_dir = root.join("crates/core/src");
        std::fs::create_dir_all(&src_dir).expect("mkdir");
        std::fs::write(src_dir.join("lib.rs"), "//! lib\npub struct RunReport;\n").expect("write");
        let (findings, scanned) = run_analyze(&root).expect("analyze");
        std::fs::remove_dir_all(&root).expect("rm");
        assert_eq!(scanned, 1);
        assert_eq!(lines(&findings), vec![2]);
        assert_eq!(findings[0].file, "crates/core/src/lib.rs");
        let json = findings_to_json(&findings);
        assert!(json.contains("\"rule\":\"must-use\""), "{json}");
    }
}
