//! Source-level lint engine behind `cargo xtask lint`.
//!
//! The pass walks `crates/*/src`, strips comments and string literals with
//! the token-level [`lexer`], skips `#[cfg(test)]` modules, and enforces the
//! repo's correctness rules (see DESIGN.md, "Invariants & static analysis"):
//!
//! * **no-panic** — library code of `ecc-core`, `ecc-net`, `ecc-chash` and
//!   `ecc-cloudsim` must not call `.unwrap()` / `.expect(..)` or invoke
//!   `panic!` / `todo!` / `unimplemented!` / `dbg!`; fallible paths return
//!   `CacheError` / protocol errors instead. (`assert!` family stays legal:
//!   invariant auditors are supposed to assert.)
//! * **no-wallclock** — `Instant::now` / `SystemTime::now` are forbidden
//!   outside `crates/obs`, `crates/xtask`, the load generator and `src/bin`
//!   entry points; simulated time must flow through `ecc_cloudsim::clock`.
//! * **deny-unsafe** — every crate root must carry `#![deny(unsafe_code)]`
//!   (or `forbid`), and only the files in [`UNSAFE_ALLOWLIST`] may lift it:
//!   anywhere else an `allow(unsafe_code)` or an `unsafe` token is a
//!   finding, test modules included, with no per-line waiver.
//! * **must-use** — public result-bearing types (names ending in `Receipt`,
//!   `Report`, `Metrics`, `Stats`, `Billing`) must be `#[must_use]` so
//!   simulation outcomes cannot be silently dropped.
//! * **no-print** — `println!` / `eprintln!` are forbidden in library code
//!   (`crates/*/src`, binaries exempt); libraries return data and leave
//!   console output to the `src/bin` / `src/main.rs` entry points.
//! * **no-std-mutex** — `std::sync::Mutex` / `std::sync::RwLock` are
//!   forbidden in `ecc-core` and `ecc-net`: the data path standardizes on
//!   `parking_lot` (no poisoning, so lock acquisition can't force panic
//!   paths into panic-free crates) and on atomics for counters.
//! * **no-payload-copy** — `.to_vec()` / `Bytes::copy_from_slice` are
//!   forbidden in the data-path hot files (server, shard, node, record,
//!   lru): record payloads are refcounted `Bytes`; cloning there must be
//!   a refcount bump, never a memcpy. Client/protocol decode paths that
//!   legitimately materialize owned data are not in the hot set.
//!
//! A finding can be waived for one line with a trailing
//! `// xtask: allow(<rule>)` comment stating the reason.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod concurrency;
pub mod lexer;
pub mod trace;

use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose library code must be panic-free.
const PANIC_FREE_CRATES: &[&str] = &["core", "net", "chash", "cloudsim", "obs"];

/// Crates exempt from the wall-clock rule wholesale (the workspace tooling;
/// `obs` owns the `TimeSource::Real` epoch so instrumented crates never
/// read the wall clock themselves).
const WALLCLOCK_EXEMPT_CRATES: &[&str] = &["xtask", "obs"];

/// Files exempt from the wall-clock rule: they intentionally measure real
/// elapsed time (the live-cluster load generator).
const WALLCLOCK_EXEMPT_FILES: &[&str] = &["crates/net/src/loadgen.rs"];

/// Name suffixes of result-bearing types that must be `#[must_use]`.
const MUST_USE_SUFFIXES: &[&str] = &["Receipt", "Report", "Metrics", "Stats", "Billing"];

/// Crates whose library code must not use `std::sync` locks.
const STD_MUTEX_FREE_CRATES: &[&str] = &["core", "net"];

/// Data-path hot files where payload memcpys are forbidden: every payload
/// hand-off here must be a refcounted `Bytes` clone.
const HOT_PATH_FILES: &[&str] = &[
    "crates/net/src/server.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/node.rs",
    "crates/core/src/record.rs",
    "crates/core/src/lru.rs",
];

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

/// One lint rule; `Display` gives its diagnostic slug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Panicking call in library code that must return typed errors.
    NoPanic,
    /// Wall-clock read outside the measurement harness.
    NoWallClock,
    /// Crate root missing `#![deny(unsafe_code)]`, or `unsafe` /
    /// `allow(unsafe_code)` in a file off [`UNSAFE_ALLOWLIST`].
    DenyUnsafe,
    /// Result-bearing public type missing `#[must_use]`.
    MustUse,
    /// `println!` / `eprintln!` in library code (diagnostics belong to
    /// binaries or structured reports, not stdout side effects).
    NoPrint,
    /// `std::sync::Mutex` / `std::sync::RwLock` in the data-path crates
    /// (poisoning forces panic paths; the repo standardizes on
    /// `parking_lot`).
    NoStdMutex,
    /// Payload memcpy (`.to_vec()` / `Bytes::copy_from_slice`) in a
    /// data-path hot file where clones must be refcount bumps.
    NoPayloadCopy,
    /// Lock-hierarchy inversion: `structural` acquired while a stripe (or
    /// another structural) guard is live. See DESIGN.md §13.
    LockOrder,
    /// Stripe locks acquired out of ascending-index order (or inside a
    /// descending iteration over the stripe array).
    StripeOrder,
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
    /// A span-guard constructor (`span_start` / `span_follow` /
    /// `span_root` …) whose RAII guard is dropped on the spot — the span
    /// ends the instant it starts, silently recording zero duration.
    SpanDiscipline,
    /// Global-allocator call (`Vec::new` / `vec!` / `Box::new` /
    /// `.to_vec`) in a slab-era hot-path file — steady-state GET/PUT must
    /// run on inline node arrays and slab slots, never malloc.
    NoGlobalAllocHotPath,
}

impl Rule {
    /// The slug accepted by `// xtask: allow(<slug>)`.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::NoWallClock => "no-wallclock",
            Rule::DenyUnsafe => "deny-unsafe",
            Rule::MustUse => "must-use",
            Rule::NoPrint => "no-print",
            Rule::NoStdMutex => "no-std-mutex",
            Rule::NoPayloadCopy => "no-payload-copy",
            Rule::LockOrder => "lock-order",
            Rule::StripeOrder => "stripe-order",
            Rule::SeqCstJustify => "seqcst-justify",
            Rule::MixedOrdering => "mixed-ordering",
            Rule::GuardAcrossIo => "guard-across-io",
            Rule::BlockingIoInReactor => "no-blocking-io-in-reactor",
            Rule::SpanDiscipline => "span-discipline",
            Rule::NoGlobalAllocHotPath => "no-global-alloc-in-hot-path",
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

/// Which rules apply to one source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Enforce the no-panic rule.
    pub panics: bool,
    /// Enforce the no-wallclock rule.
    pub wallclock: bool,
    /// Enforce `#[must_use]` coverage.
    pub must_use: bool,
    /// Require `#![deny(unsafe_code)]` (crate roots only).
    pub deny_unsafe: bool,
    /// Forbid `unsafe` and `allow(unsafe_code)` (every file off
    /// [`UNSAFE_ALLOWLIST`]).
    pub unsafe_free: bool,
    /// Forbid `println!` / `eprintln!` (library code; binaries exempt).
    pub prints: bool,
    /// Forbid `std::sync::Mutex` / `std::sync::RwLock` (data-path crates).
    pub std_mutex: bool,
    /// Forbid payload memcpys (data-path hot files).
    pub payload_copy: bool,
}

/// Decide the policy for a workspace-relative path such as
/// `crates/core/src/elastic.rs`. Returns `None` for files the pass ignores.
pub fn policy_for(rel_path: &str) -> Option<Policy> {
    let rel = rel_path.replace('\\', "/");
    let mut parts = rel.split('/');
    if parts.next() != Some("crates") {
        return None;
    }
    let krate = parts.next()?;
    if parts.next() != Some("src") {
        return None;
    }
    if !rel.ends_with(".rs") {
        return None;
    }
    let is_bin = rel.contains("/src/bin/") || rel.ends_with("/src/main.rs");
    let is_lib_root = rel.ends_with("/src/lib.rs");
    let wallclock_exempt = WALLCLOCK_EXEMPT_CRATES.contains(&krate)
        || WALLCLOCK_EXEMPT_FILES.contains(&rel.as_str())
        || is_bin;
    let panic_free = PANIC_FREE_CRATES.contains(&krate) && !is_bin;
    Some(Policy {
        panics: panic_free,
        wallclock: !wallclock_exempt,
        must_use: PANIC_FREE_CRATES.contains(&krate),
        deny_unsafe: is_lib_root,
        unsafe_free: !UNSAFE_ALLOWLIST.contains(&rel.as_str()),
        prints: !is_bin,
        std_mutex: STD_MUTEX_FREE_CRATES.contains(&krate) && !is_bin,
        payload_copy: HOT_PATH_FILES.contains(&rel.as_str()),
    })
}

/// True when `hay[pos..]` starts a macro invocation of `name` (i.e. is
/// `name!` not preceded by an identifier character).
fn is_macro_call(hay: &str, pos: usize, name: &str) -> bool {
    if pos > 0 {
        if let Some(prev) = hay[..pos].chars().next_back() {
            if prev.is_alphanumeric() || prev == '_' {
                return false;
            }
        }
    }
    hay[pos + name.len()..].starts_with('!')
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

fn find_macro(line: &str, name: &str) -> bool {
    let mut start = 0;
    while let Some(off) = line[start..].find(name) {
        let pos = start + off;
        if is_macro_call(line, pos, name) {
            return true;
        }
        start = pos + name.len();
    }
    false
}

/// Per-line view of one source file: the line's comment/string-stripped
/// text (via the token-level lexer), whether it falls inside a
/// `#[cfg(test)] mod`, and the brace depth at the start of the line.
/// Shared by the substring rules and the concurrency passes.
#[derive(Debug)]
pub struct LineInfo {
    /// 0-based index into the stripped line list.
    pub idx: usize,
    /// True when this line is inside a `#[cfg(test)]` module.
    pub in_test: bool,
    /// Brace depth at the *start* of the line.
    pub depth: i64,
}

/// Compute [`LineInfo`] for every stripped line: `#[cfg(test)] mod`
/// regions tracked via brace depth, exactly as the lint rules skip them.
pub fn line_infos(stripped_lines: &[&str]) -> Vec<LineInfo> {
    let mut infos = Vec::with_capacity(stripped_lines.len());
    let mut depth: i64 = 0;
    let mut cfg_test_pending = false;
    let mut skip_above_depth: Option<i64> = None;

    for (idx, stripped_line) in stripped_lines.iter().enumerate() {
        let depth_at_start = depth;
        if skip_above_depth.is_none() {
            // `#[cfg(test)]` and compound forms like
            // `#[cfg(all(test, debug_assertions))]` both gate test-only
            // modules.
            if stripped_line.contains("#[cfg(test)]") || stripped_line.contains("#[cfg(all(test") {
                cfg_test_pending = true;
            } else if cfg_test_pending {
                let t = stripped_line.trim_start();
                if t.starts_with("mod ") || t.starts_with("pub mod ") {
                    skip_above_depth = Some(depth);
                    cfg_test_pending = false;
                } else if !t.is_empty() && !t.starts_with("#[") {
                    // The cfg(test) applied to a non-module item (fn, use…);
                    // stay conservative and keep linting.
                    cfg_test_pending = false;
                }
            }
        }
        let in_test = skip_above_depth.is_some();

        for c in stripped_line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if let Some(d) = skip_above_depth {
                        if depth <= d {
                            skip_above_depth = None;
                        }
                    }
                }
                _ => {}
            }
        }

        infos.push(LineInfo {
            idx,
            in_test,
            depth: depth_at_start,
        });
    }
    infos
}

/// Scan one file's source text under `policy`; `rel_path` is used for
/// diagnostics and must be workspace-relative.
pub fn scan_source(rel_path: &str, src: &str, policy: Policy) -> Vec<Finding> {
    let mut findings = Vec::new();
    let stripped = lexer::strip_via_lexer(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let stripped_lines: Vec<&str> = stripped.lines().collect();

    if policy.deny_unsafe
        && !src.contains("#![deny(unsafe_code)]")
        && !src.contains("#![forbid(unsafe_code)]")
    {
        findings.push(Finding {
            file: rel_path.to_string(),
            line: 1,
            rule: Rule::DenyUnsafe,
            message: "crate root must carry `#![deny(unsafe_code)]`".into(),
        });
    }

    for info in line_infos(&stripped_lines) {
        let idx = info.idx;
        let stripped_line = stripped_lines[idx];
        let raw_line = raw_lines.get(idx).copied().unwrap_or("");
        let line_no = idx + 1;

        if policy.unsafe_free {
            let lifts_lint =
                has_word(stripped_line, "allow") && has_word(stripped_line, "unsafe_code");
            if lifts_lint || has_word(stripped_line, "unsafe") {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::DenyUnsafe,
                    message: "`unsafe` outside the allowlist — keep it in one of the files \
                              `xtask::UNSAFE_ALLOWLIST` names, behind a safe interface"
                        .into(),
                });
            }
        }

        if info.in_test {
            continue;
        }

        let allowed = |rule: Rule| raw_line.contains(&format!("xtask: allow({})", rule.slug()));

        if policy.panics && !allowed(Rule::NoPanic) {
            if stripped_line.contains(".unwrap()") {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::NoPanic,
                    message: "`.unwrap()` in library code — return a typed error (`CacheError`, \
                              `RingError`, protocol status) instead"
                        .into(),
                });
            }
            if stripped_line.contains(".expect(") {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::NoPanic,
                    message: "`.expect(..)` in library code — return a typed error instead".into(),
                });
            }
            for mac in ["panic", "todo", "unimplemented", "dbg"] {
                if find_macro(stripped_line, mac) {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: line_no,
                        rule: Rule::NoPanic,
                        message: format!("`{mac}!` in library code — return a typed error instead"),
                    });
                }
            }
        }

        if policy.wallclock && !allowed(Rule::NoWallClock) {
            for pat in ["Instant::now", "SystemTime::now"] {
                if stripped_line.contains(pat) {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: line_no,
                        rule: Rule::NoWallClock,
                        message: format!(
                            "`{pat}` outside the measurement harness — simulated time must \
                             go through `ecc_cloudsim::clock::SimClock`"
                        ),
                    });
                }
            }
        }

        if policy.prints && !allowed(Rule::NoPrint) {
            for mac in ["println", "eprintln"] {
                if find_macro(stripped_line, mac) {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: line_no,
                        rule: Rule::NoPrint,
                        message: format!(
                            "`{mac}!` in library code — return data to the caller or route \
                             diagnostics through a binary entry point"
                        ),
                    });
                }
            }
        }

        if policy.std_mutex && !allowed(Rule::NoStdMutex) {
            for pat in ["std::sync::Mutex", "std::sync::RwLock"] {
                if stripped_line.contains(pat) {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: line_no,
                        rule: Rule::NoStdMutex,
                        message: format!(
                            "`{pat}` in a data-path crate — use `parking_lot` (no lock \
                             poisoning, so acquisition can't force a panic path) or atomics"
                        ),
                    });
                }
            }
        }

        if policy.payload_copy && !allowed(Rule::NoPayloadCopy) {
            for pat in [".to_vec()", "Bytes::copy_from_slice"] {
                if stripped_line.contains(pat) {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: line_no,
                        rule: Rule::NoPayloadCopy,
                        message: format!(
                            "`{pat}` in a data-path hot file — payloads are refcounted \
                             `Bytes`; clone the handle (`Record::bytes()`) instead of \
                             copying the bytes"
                        ),
                    });
                }
            }
        }

        if policy.must_use && !allowed(Rule::MustUse) {
            if let Some(name) = pub_type_name(stripped_line) {
                if MUST_USE_SUFFIXES.iter().any(|s| name.ends_with(s))
                    && !attr_block_has_must_use(&raw_lines, idx)
                {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: line_no,
                        rule: Rule::MustUse,
                        message: format!(
                            "result-bearing type `{name}` must be `#[must_use]` so simulation \
                             outcomes cannot be silently dropped"
                        ),
                    });
                }
            }
        }
    }
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
    if end == 0 {
        None
    } else {
        Some(&rest[..end])
    }
}

/// Walk the contiguous attribute/doc block above `decl_idx` looking for
/// `#[must_use`.
fn attr_block_has_must_use(raw_lines: &[&str], decl_idx: usize) -> bool {
    let mut i = decl_idx;
    while i > 0 {
        i -= 1;
        let t = raw_lines[i].trim_start();
        if t.starts_with("#[") || t.starts_with("///") || t.ends_with("]") && t.starts_with("#") {
            if t.contains("#[must_use") {
                return true;
            }
        } else {
            break;
        }
    }
    false
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

/// Run the full lint pass over a workspace root. Returns all findings;
/// `files_scanned` reports coverage for the summary line.
pub fn run_lint(workspace_root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let crates_dir = workspace_root.join("crates");
    let mut files = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            rs_files(&src, &mut files)?;
        }
    }

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
        findings.extend(scan_source(&rel, &src, policy));
    }
    Ok((findings, scanned))
}

/// Run the concurrency-soundness passes (lock-order, stripe-order,
/// seqcst-justify, mixed-ordering, guard-across-io,
/// no-blocking-io-in-reactor, no-global-alloc-in-hot-path) over a
/// workspace root.
pub fn run_concurrency(workspace_root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let crates_dir = workspace_root.join("crates");
    let mut files = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            rs_files(&src, &mut files)?;
        }
    }

    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(workspace_root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(policy) = concurrency::conc_policy_for(&rel) else {
            continue;
        };
        if !(policy.lock_order
            || policy.atomics
            || policy.guard_io
            || policy.reactor_io
            || policy.hot_alloc)
        {
            continue;
        }
        let src = std::fs::read_to_string(path)?;
        scanned += 1;
        findings.extend(concurrency::analyze_source(&rel, &src, policy));
    }
    Ok((findings, scanned))
}

/// `cargo xtask analyze`: the style lint plus the concurrency passes in
/// one sweep. Returns combined findings sorted by (file, line) and the
/// number of files scanned by the wider of the two passes.
pub fn run_analyze(workspace_root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let (mut findings, lint_scanned) = run_lint(workspace_root)?;
    let (conc, _conc_scanned) = run_concurrency(workspace_root)?;
    findings.extend(conc);
    findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok((findings, lint_scanned))
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

    const LIB_POLICY: Policy = Policy {
        panics: true,
        wallclock: true,
        must_use: true,
        deny_unsafe: false,
        unsafe_free: true,
        prints: true,
        std_mutex: false,
        payload_copy: false,
    };

    #[test]
    fn flags_unwrap_with_file_and_line() {
        let src = "#![deny(unsafe_code)]\nfn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let f = scan_source("crates/core/src/x.rs", src, LIB_POLICY);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        assert_eq!(f[0].rule, Rule::NoPanic);
        assert_eq!(f[0].file, "crates/core/src/x.rs");
    }

    #[test]
    fn flags_expect_panic_todo_dbg() {
        let src = "fn f() {\n    let _ = o.expect(\"boom\");\n    panic!(\"x\");\n    todo!();\n    dbg!(1);\n}\n";
        let f = scan_source("f.rs", src, LIB_POLICY);
        let rules: Vec<usize> = f.iter().map(|x| x.line).collect();
        assert_eq!(rules, vec![2, 3, 4, 5]);
        assert!(f.iter().all(|x| x.rule == Rule::NoPanic));
    }

    #[test]
    fn asserts_are_not_panics() {
        let src =
            "fn f() {\n    assert!(true);\n    assert_eq!(1, 1);\n    debug_assert!(cond());\n}\n";
        assert!(scan_source("f.rs", src, LIB_POLICY).is_empty());
    }

    #[test]
    fn comments_strings_and_doctests_are_exempt() {
        let src = "//! docs: call `.unwrap()` and panic!\n\
                   /// ```\n/// x.unwrap();\n/// ```\n\
                   fn f() {\n    let s = \".unwrap() panic! Instant::now\";\n\
                   /* block .unwrap() */\n    let _ = s;\n}\n";
        assert!(scan_source("f.rs", src, LIB_POLICY).is_empty());
    }

    #[test]
    fn raw_strings_are_exempt() {
        let src = "fn f() -> &'static str {\n    r#\"contains .unwrap() and panic!\"#\n}\n";
        assert!(scan_source("f.rs", src, LIB_POLICY).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn lib_fn() -> u32 { 1 }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n        panic!(\"in tests it's fine\");\n    }\n}\n";
        assert!(scan_source("f.rs", src, LIB_POLICY).is_empty());
    }

    #[test]
    fn code_after_test_module_is_linted_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n\
                   fn g(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let f = scan_source("f.rs", src, LIB_POLICY);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn prints_are_flagged_in_lib_code_only() {
        let src = "fn f() {\n    println!(\"x\");\n    eprintln!(\"y\");\n    print!(\"ok\");\n}\n";
        let f = scan_source("crates/bench/src/lib.rs", src, LIB_POLICY);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::NoPrint));
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 3);
        // A comment mentioning println! is not a finding; a waiver works.
        let waived =
            "fn f() {\n    // println! is documented here\n    println!(\"x\"); // xtask: allow(no-print) — CLI shim\n}\n";
        assert!(scan_source("f.rs", waived, LIB_POLICY).is_empty());
        // Binaries keep their stdout.
        let bin = policy_for("crates/net/src/bin/cache_server.rs").unwrap();
        assert!(!bin.prints);
        assert!(scan_source("crates/net/src/bin/cache_server.rs", src, bin).is_empty());
    }

    #[test]
    fn wallclock_is_flagged() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n    let s = std::time::SystemTime::now();\n}\n";
        let f = scan_source("f.rs", src, LIB_POLICY);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == Rule::NoWallClock));
    }

    #[test]
    fn allow_comment_waives_one_line() {
        let src = "fn f() {\n    x.unwrap(); // xtask: allow(no-panic) — infallible by construction\n    y.unwrap()\n}\n";
        let f = scan_source("f.rs", src, LIB_POLICY);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn must_use_suffix_types_need_attribute() {
        let bad = "pub struct LoadReport {\n    pub n: u64,\n}\n";
        let good = "#[must_use]\npub struct LoadReport {\n    pub n: u64,\n}\n";
        let doc_between = "#[must_use = \"reports must be consumed\"]\n/// Docs.\n#[derive(Debug)]\npub struct BillingStats;\n";
        assert_eq!(scan_source("f.rs", bad, LIB_POLICY).len(), 1);
        assert!(scan_source("f.rs", good, LIB_POLICY).is_empty());
        assert!(scan_source("f.rs", doc_between, LIB_POLICY).is_empty());
    }

    #[test]
    fn lib_roots_require_deny_unsafe() {
        let policy = Policy {
            deny_unsafe: true,
            ..LIB_POLICY
        };
        let f = scan_source("crates/core/src/lib.rs", "//! lib\n", policy);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::DenyUnsafe);
        let ok = scan_source("crates/core/src/lib.rs", "#![deny(unsafe_code)]\n", policy);
        assert!(ok.is_empty());
    }

    #[test]
    fn unsafe_is_confined_to_the_allowlist() {
        let src = "#![allow(unsafe_code)]\nfn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n\
                   #[cfg(test)]\nmod tests {\n    unsafe fn g() {}\n}\n";
        let f = scan_source("crates/net/src/reactor.rs", src, LIB_POLICY);
        let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![1, 3, 7], "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::DenyUnsafe));
        // No per-line waiver: the allowlist is the one place to look.
        let waived = "fn f() {\n    unsafe { g() } // xtask: allow(deny-unsafe)\n}\n";
        assert_eq!(scan_source("f.rs", waived, LIB_POLICY).len(), 1);
        // The word in prose, in a string, or inside a longer identifier
        // is not the keyword.
        let ok = "#![deny(unsafe_code)]\n// unsafe in a comment\nfn f() -> &'static str {\n    \
                  let not_unsafe = \"unsafe\";\n    not_unsafe\n}\n";
        assert!(scan_source("f.rs", ok, LIB_POLICY).is_empty());
        // Exactly the allowlisted files are exempt, and each one exists.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for file in UNSAFE_ALLOWLIST {
            assert!(root.join(file).is_file(), "stale allowlist entry {file}");
            let p = policy_for(file).unwrap();
            assert!(!p.unsafe_free, "{file}");
            assert!(scan_source(file, src, p)
                .iter()
                .all(|x| x.rule != Rule::DenyUnsafe));
        }
        assert!(policy_for("crates/net/src/reactor.rs").unwrap().unsafe_free);
        assert!(policy_for("crates/bptree/src/tree.rs").unwrap().unsafe_free);
    }

    #[test]
    fn std_sync_locks_are_flagged_in_data_path_crates() {
        let policy = Policy {
            std_mutex: true,
            ..LIB_POLICY
        };
        let src = "use std::sync::Mutex;\nfn f() {\n    let _l: std::sync::RwLock<()> = Default::default();\n}\n";
        let f = scan_source("crates/net/src/x.rs", src, policy);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::NoStdMutex));
        // Atomics and parking_lot stay legal.
        let ok = "use std::sync::atomic::AtomicU64;\nuse parking_lot::RwLock;\n";
        assert!(scan_source("crates/net/src/x.rs", ok, policy).is_empty());
        // A waiver works.
        let waived = "use std::sync::Mutex; // xtask: allow(no-std-mutex) — FFI boundary\n";
        assert!(scan_source("crates/net/src/x.rs", waived, policy).is_empty());
    }

    #[test]
    fn payload_copies_are_flagged_in_hot_files() {
        let policy = Policy {
            payload_copy: true,
            ..LIB_POLICY
        };
        let src = "fn f(r: &Record) -> Vec<u8> {\n    let b = Bytes::copy_from_slice(r.as_slice());\n    r.as_slice().to_vec()\n}\n";
        let f = scan_source("crates/net/src/server.rs", src, policy);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::NoPayloadCopy));
        // The refcount-bump path is legal; test modules are exempt.
        let ok = "fn f(r: &Record) -> Bytes { r.bytes() }\n\
                  #[cfg(test)]\nmod tests {\n    fn t() { let _ = b\"x\".to_vec(); }\n}\n";
        assert!(scan_source("crates/net/src/server.rs", ok, policy).is_empty());
    }

    #[test]
    fn policies_match_the_repo_layout() {
        // Library code of the four protected crates: full checks.
        let p = policy_for("crates/core/src/elastic.rs").unwrap();
        assert!(p.panics && p.wallclock && p.must_use && !p.deny_unsafe);
        assert!(policy_for("crates/chash/src/ring.rs").unwrap().panics);
        assert!(policy_for("crates/net/src/server.rs").unwrap().panics);
        // Crate roots additionally require deny(unsafe_code).
        assert!(policy_for("crates/core/src/lib.rs").unwrap().deny_unsafe);
        // bptree etc.: no panic rule, but wall-clock still applies.
        let p = policy_for("crates/bptree/src/tree.rs").unwrap();
        assert!(!p.panics && p.wallclock);
        // The load generator measures real time on purpose.
        assert!(!policy_for("crates/net/src/loadgen.rs").unwrap().wallclock);
        assert!(policy_for("crates/net/src/loadgen.rs").unwrap().panics);
        // obs is the observability harness: panic-free, owns the wall clock.
        let p = policy_for("crates/obs/src/registry.rs").unwrap();
        assert!(p.panics && !p.wallclock && p.prints);
        // Library code everywhere is print-free; binaries are exempt.
        assert!(policy_for("crates/bench/src/lib.rs").unwrap().prints);
        assert!(!policy_for("crates/bench/src/bin/fig_a1.rs").unwrap().prints);
        // Binaries may touch real time and unwrap CLI setup.
        let p = policy_for("crates/net/src/bin/cache_server.rs").unwrap();
        assert!(!p.panics && !p.wallclock);
        // Figure binaries may too; the bench library may not.
        assert!(
            !policy_for("crates/bench/src/bin/fig_a1.rs")
                .unwrap()
                .wallclock
        );
        assert!(policy_for("crates/bench/src/lib.rs").unwrap().wallclock);
        // Data-path crates ban std::sync locks; measurement crates don't.
        assert!(policy_for("crates/core/src/shard.rs").unwrap().std_mutex);
        assert!(policy_for("crates/net/src/server.rs").unwrap().std_mutex);
        assert!(!policy_for("crates/bench/src/lib.rs").unwrap().std_mutex);
        assert!(
            !policy_for("crates/net/src/bin/cache_server.rs")
                .unwrap()
                .std_mutex
        );
        // Payload copies are banned exactly in the hot files.
        assert!(policy_for("crates/net/src/server.rs").unwrap().payload_copy);
        assert!(policy_for("crates/core/src/shard.rs").unwrap().payload_copy);
        assert!(policy_for("crates/core/src/lru.rs").unwrap().payload_copy);
        assert!(
            !policy_for("crates/net/src/protocol.rs")
                .unwrap()
                .payload_copy,
            "client-side decode legitimately materializes owned data"
        );
        assert!(!policy_for("crates/net/src/client.rs").unwrap().payload_copy);
        // Non-source files are ignored.
        assert!(policy_for("crates/core/Cargo.toml").is_none());
        assert!(policy_for("README.md").is_none());
    }

    #[test]
    fn end_to_end_on_a_temp_tree_exits_dirty() {
        let root = std::env::temp_dir().join(format!("xtask-lint-test-{}", std::process::id()));
        let src_dir = root.join("crates/core/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(
            src_dir.join("lib.rs"),
            "#![deny(unsafe_code)]\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )
        .unwrap();
        let (findings, scanned) = run_lint(&root).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(scanned, 1);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].file, "crates/core/src/lib.rs");
        assert_eq!(findings[0].line, 2);
    }
}
