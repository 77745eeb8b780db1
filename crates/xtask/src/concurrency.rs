//! Concurrency-soundness passes built on the token-level lexer.
//!
//! PR 5 gave `ShardedNode` a documented lock hierarchy (`structural`
//! before any stripe lock; stripe locks in ascending index order) and a
//! lock-free accounting scheme — but nothing *enforced* the discipline.
//! These passes check it at lint time, before the event-driven reactor
//! multiplies the thread count:
//!
//! * **lock-order** / **stripe-order** — within any function of
//!   `crates/core` / `crates/net`, `structural` must never be acquired
//!   while a stripe guard is live, and stripe locks must be taken in
//!   ascending index order (descending iterations over the stripe array
//!   are flagged at the acquisition site).
//! * **seqcst-justify** — every `Ordering::SeqCst` must carry a
//!   `// seqcst:` justification comment on its own or the preceding
//!   line; everything else should be `Acquire`/`Release`/`AcqRel`.
//! * **mixed-ordering** — one atomic field accessed with `Relaxed` in
//!   one place and a synchronizing ordering elsewhere is a latent race:
//!   either the field publishes data (every access synchronizes) or it
//!   is a statistic (every access relaxed).
//! * **guard-across-io** — on hot-path files, no lock guard may be live
//!   across frame or socket I/O (`read_frame*` / `write_frame*` /
//!   `.send(` / `.flush(` …): a guard held across a blocking syscall is
//!   the pitfall that will kill the reactor (pelikan transcript, PR 5).
//! * **no-blocking-io-in-reactor** — reactor event-loop files must never
//!   call a blocking primitive at all: `read_exact` / `read_to_end` /
//!   `write_all` loop until satisfied, the blocking frame helpers
//!   (`read_frame*` / `write_frame*`) sit on top of them, channel
//!   `.recv()` parks the thread, a mutex `.lock()` can block behind an
//!   arbitrary holder, and `park_timeout` / `thread::sleep` are a timed
//!   wait that answers a request only when the timer fires. A reactor
//!   thread owns a whole slice of connections; any of these stalls all
//!   of them. Reactors use nonblocking reads/writes that surface
//!   `WouldBlock`, `try_recv`, and lock-free handoff instead, and block
//!   in exactly one place — the `sys::wait` readiness wait, which is
//!   banned too so that the single call has to carry the waiver.
//! * **no-global-alloc-in-hot-path** — the slab-arena storage engine
//!   (PR 10) got steady-state GET/PUT to zero allocator calls: B+Tree
//!   nodes use fixed-capacity inline arrays and record payloads live in
//!   size-class slab slots. Files on that path must not call the global
//!   allocator at all: `Vec::new` / `vec!` / `Box::new` / `.to_vec` are
//!   banned outside test modules (matching at identifier boundaries, so
//!   `InlineVec::new` stays legal). Cold paths — connection setup,
//!   reactor startup — carry an explicit per-line waiver instead.
//! * **span-discipline** — a span-guard constructor (`.span_start(` /
//!   `.span_start_at(` / `.span_follow(` / `.span_root(`) in statement
//!   position, or bound with `let _ =`, drops its RAII guard on the spot:
//!   the span ends the instant it starts and the trace silently records
//!   zero duration. Guards must be let-bound (`let _g = …` — an
//!   underscore-*prefixed* name still owns the value — or a named
//!   binding), so the span covers the work it claims to measure.
//!
//! The passes are heuristic but sound for the repo's idiom: guards are
//! bound with single-line `let g = <lock>.read()/.write()/.lock();`
//! statements and die at the end of their block (or at `drop(g)`). A
//! finding can be waived per line with `// xtask: allow(<rule>)`.

use crate::lexer::{self, Token, TokenKind};
use crate::{line_infos, Finding, Rule};

/// Which concurrency passes apply to one source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcPolicy {
    /// Enforce the structural-before-stripe lock hierarchy.
    pub lock_order: bool,
    /// Enforce the SeqCst-justification and mixed-ordering rules.
    pub atomics: bool,
    /// Forbid guards held across frame/socket I/O.
    pub guard_io: bool,
    /// Forbid blocking I/O primitives outright (reactor event loops).
    pub reactor_io: bool,
    /// Require span guards to be let-bound (RAII discipline).
    pub span_discipline: bool,
    /// Forbid global-allocator calls outright (slab-era hot-path files).
    pub hot_alloc: bool,
}

/// Crates whose lock acquisitions must follow the ShardedNode hierarchy.
const LOCK_ORDER_CRATES: &[&str] = &["core", "net"];

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

/// Crates that open trace spans and must keep the RAII guards live.
const SPAN_CRATES: &[&str] = &["core", "net", "obs", "simtest"];

/// Files on the zero-allocation steady-state path: inline B+Tree node
/// storage, the slab arena itself, and the reactor event loop. A stray
/// `Vec::new` here silently reintroduces the per-op mallocs the slab
/// engine exists to remove.
const HOT_ALLOC_FILES: &[&str] = &[
    "crates/bptree/src/tree.rs",
    "crates/bptree/src/inline.rs",
    "crates/core/src/slab.rs",
    "crates/net/src/reactor.rs",
];

/// Global-allocator entry points banned on the hot-alloc files, with the
/// zero-alloc replacement each should use. Token matching honours
/// identifier boundaries, so `InlineVec::new` never trips the `Vec::new`
/// probe; `Vec::with_capacity` (cold-path pre-sizing) stays legal.
const HOT_ALLOC_PATTERNS: &[(&str, &str)] = &[
    (
        "Vec::new(",
        "growable heap vector — use a fixed-capacity `InlineVec` or a \
         pre-sized buffer created off the hot path",
    ),
    (
        "vec!",
        "heap vector literal — use a stack array or an `InlineVec`",
    ),
    (
        "Box::new(",
        "heap box — hot-path values live inline in nodes or in slab slots",
    ),
    (
        ".to_vec(",
        "payload memcpy into a fresh heap vector — clone the refcounted \
         handle (`SlabRef` / `Bytes`) instead",
    ),
];

/// Span-guard constructors (method-call position, so definitions and
/// free functions don't match).
const SPAN_METHODS: &[&str] = &[
    ".span_start(",
    ".span_start_at(",
    ".span_follow(",
    ".span_root(",
];

/// Blocking primitives forbidden in reactor files, with the reason each
/// one stalls the event loop. `.recv()` (empty argument list) matches the
/// channel's parking receive but not `try_recv()`; `.lock()` matches both
/// `std` and `parking_lot` mutexes — either kind blocks behind an
/// arbitrary holder.
const REACTOR_BLOCKING: &[(&str, &str)] = &[
    (".read_exact(", "loops until the peer sends enough bytes"),
    (".read_to_end(", "blocks until the peer closes the stream"),
    (".write_all(", "loops until the kernel buffer drains"),
    (
        "read_frame",
        "is a blocking frame helper built on read_exact",
    ),
    (
        "write_frame",
        "is a blocking frame helper built on write_all",
    ),
    (".recv()", "parks the thread until a message arrives"),
    (".lock()", "blocks behind whichever thread holds the mutex"),
    (
        "park_timeout",
        "is a timed wait: bytes that arrive meanwhile sit until the timer fires",
    ),
    (
        "thread::sleep",
        "is a timed wait: bytes that arrive meanwhile sit until the timer fires",
    ),
    (
        "sys::wait(",
        "blocks until a descriptor is ready — sanctioned once, as the idle wait",
    ),
];

/// Frame/socket I/O markers for the guard-across-io pass.
const IO_PATTERNS: &[&str] = &[
    "read_frame",
    "write_frame",
    ".send(",
    ".recv(",
    ".write_all(",
    ".read_exact(",
    ".read_to_end(",
    ".flush(",
    "TcpStream::connect",
];

/// Atomic accessor methods whose argument lists carry `Ordering` values.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// The five atomic orderings (anything else after `Ordering::` — e.g.
/// `std::cmp::Ordering::Less` — is ignored).
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Decide the concurrency policy for a workspace-relative path. Returns
/// `None` for files outside `crates/*/src` and for binary entry points.
pub fn conc_policy_for(rel_path: &str) -> Option<ConcPolicy> {
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
    if is_bin {
        return None;
    }
    Some(ConcPolicy {
        lock_order: LOCK_ORDER_CRATES.contains(&krate),
        atomics: ATOMIC_CRATES.contains(&krate),
        guard_io: GUARD_IO_FILES.contains(&rel.as_str()),
        reactor_io: REACTOR_FILES.contains(&rel.as_str()),
        span_discipline: SPAN_CRATES.contains(&krate),
        hot_alloc: HOT_ALLOC_FILES.contains(&rel.as_str()),
    })
}

/// Run every applicable concurrency pass over one file.
pub fn analyze_source(rel_path: &str, src: &str, policy: ConcPolicy) -> Vec<Finding> {
    let mut findings = Vec::new();
    let stripped = lexer::strip_via_lexer(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let stripped_lines: Vec<&str> = stripped.lines().collect();
    let infos = line_infos(&stripped_lines);
    let in_test: Vec<bool> = infos.iter().map(|i| i.in_test).collect();
    let depths: Vec<i64> = infos.iter().map(|i| i.depth).collect();

    if policy.lock_order || policy.guard_io {
        lock_passes(
            rel_path,
            &raw_lines,
            &stripped_lines,
            &in_test,
            &depths,
            policy,
            &mut findings,
        );
    }
    if policy.atomics {
        atomic_pass(rel_path, src, &raw_lines, &in_test, &mut findings);
    }
    if policy.reactor_io {
        reactor_io_pass(
            rel_path,
            &raw_lines,
            &stripped_lines,
            &in_test,
            &mut findings,
        );
    }
    if policy.span_discipline {
        span_pass(
            rel_path,
            &raw_lines,
            &stripped_lines,
            &in_test,
            &mut findings,
        );
    }
    if policy.hot_alloc {
        hot_alloc_pass(
            rel_path,
            &raw_lines,
            &stripped_lines,
            &in_test,
            &mut findings,
        );
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Flag span-guard constructors whose guard dies on the line it was made:
/// a bare statement call (`obs.span_follow("x");`) or an explicit discard
/// (`let _ = obs.span_root("x");`). Either way the span ends immediately
/// and the trace records zero duration for work that then runs untimed.
///
/// Tail-expression calls (no trailing `;`) hand the guard to the caller
/// and are fine; so is any named binding, including underscore-prefixed
/// names (`let _g = …` owns the guard until end of scope).
fn span_pass(
    rel_path: &str,
    raw_lines: &[&str],
    stripped_lines: &[&str],
    in_test: &[bool],
    findings: &mut Vec<Finding>,
) {
    for (idx, line) in stripped_lines.iter().enumerate() {
        if in_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let raw_line = raw_lines.get(idx).copied().unwrap_or("");
        if raw_line.contains(&format!("xtask: allow({})", Rule::SpanDiscipline.slug())) {
            continue;
        }
        let Some(pat) = SPAN_METHODS.iter().find(|p| line.contains(*p)) else {
            continue;
        };
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("let ") {
            let name = rest.split('=').next().unwrap_or("").trim();
            let name = name.strip_prefix("mut ").unwrap_or(name).trim();
            if name == "_" {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: idx + 1,
                    rule: Rule::SpanDiscipline,
                    message: format!(
                        "`let _ =` discards the guard from `{pat}…)` immediately — the span \
                         records zero duration; bind it to an underscore-prefixed name \
                         (`let _span = …`) so it lives until end of scope"
                    ),
                });
            }
            continue;
        }
        // A statement that *starts* with the receiver of the span call and
        // ends at a semicolon never stores the guard anywhere. A line that
        // opens with `.` is a rustfmt continuation of a wrapped expression
        // (the receiver — and usually a `let` — sits on an earlier line),
        // so only a same-line receiver counts.
        let call_pos = match t.find(pat) {
            Some(p) => p,
            None => continue,
        };
        let bare_receiver = call_pos > 0
            && t[..call_pos]
                .chars()
                .all(|c| c.is_alphanumeric() || c == '_' || c == '.' || c == ':');
        if bare_receiver && t.ends_with(';') {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: idx + 1,
                rule: Rule::SpanDiscipline,
                message: format!(
                    "`{pat}…)` in statement position drops its RAII guard at the semicolon — \
                     the span ends the instant it starts; let-bind the guard \
                     (`let _span = …`) across the work it should measure"
                ),
            });
        }
    }
}

/// Flag every blocking primitive in a reactor file, regardless of guard
/// state: the event loop owns many connections, so one parked thread
/// stalls them all.
fn reactor_io_pass(
    rel_path: &str,
    raw_lines: &[&str],
    stripped_lines: &[&str],
    in_test: &[bool],
    findings: &mut Vec<Finding>,
) {
    for (idx, line) in stripped_lines.iter().enumerate() {
        if in_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let raw_line = raw_lines.get(idx).copied().unwrap_or("");
        if raw_line.contains(&format!(
            "xtask: allow({})",
            Rule::BlockingIoInReactor.slug()
        )) {
            continue;
        }
        for (pat, why) in REACTOR_BLOCKING {
            if line.contains(pat) {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: idx + 1,
                    rule: Rule::BlockingIoInReactor,
                    message: format!(
                        "`{pat}` in a reactor event loop — it {why}, stalling every \
                         connection this reactor owns; use nonblocking I/O that surfaces \
                         `WouldBlock` (FrameAssembler::fill_from, buffered writes, try_recv)"
                    ),
                });
            }
        }
    }
}

/// True when `needle` occurs in `line` as a token: when the needle opens
/// with an identifier character, the character before the match must not
/// be one (so `InlineVec::new` never matches a `Vec::new` probe). Needles
/// opening with punctuation (`.to_vec(`) match as plain substrings.
fn contains_token(line: &str, needle: &str) -> bool {
    let ident_start = needle
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut start = 0;
    while let Some(off) = line[start..].find(needle) {
        let pos = start + off;
        let boundary = !ident_start
            || pos == 0
            || !line[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary {
            return true;
        }
        start = pos + needle.len();
    }
    false
}

/// Flag every global-allocator call in a hot-alloc file. The slab engine
/// exists to make steady-state GET/PUT allocation-free (inline node
/// arrays, size-class slab slots); one stray `Vec::new` on this path
/// quietly reintroduces the per-op mallocs the refactor removed — and
/// `crates/bench/tests/zero_alloc.rs` only catches the paths it drives.
fn hot_alloc_pass(
    rel_path: &str,
    raw_lines: &[&str],
    stripped_lines: &[&str],
    in_test: &[bool],
    findings: &mut Vec<Finding>,
) {
    for (idx, line) in stripped_lines.iter().enumerate() {
        if in_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let raw_line = raw_lines.get(idx).copied().unwrap_or("");
        if raw_line.contains(&format!(
            "xtask: allow({})",
            Rule::NoGlobalAllocHotPath.slug()
        )) {
            continue;
        }
        for (pat, why) in HOT_ALLOC_PATTERNS {
            if contains_token(line, pat) {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: idx + 1,
                    rule: Rule::NoGlobalAllocHotPath,
                    message: format!(
                        "`{pat}` on the zero-allocation hot path — {why}; cold-path setup \
                         code may waive per line with a stated reason"
                    ),
                });
            }
        }
    }
}

/// Lock class of one acquisition site, as far as the text tells us.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockSite {
    /// The node-wide `structural` order point.
    Structural,
    /// A stripe lock; `Some(i)` when the index is a literal.
    Stripe(Option<usize>),
    /// Some other lock (`Mutex::lock` on an unknown receiver).
    Other,
}

/// A live guard binding.
#[derive(Debug)]
struct Guard {
    name: String,
    class: LockSite,
    index: Option<usize>,
    depth: i64,
}

/// A loop variable iterating over the stripe array.
#[derive(Debug)]
struct StripeIter {
    name: String,
    descending: bool,
    depth: i64,
}

#[allow(clippy::too_many_arguments)]
fn lock_passes(
    rel_path: &str,
    raw_lines: &[&str],
    stripped_lines: &[&str],
    in_test: &[bool],
    depths: &[i64],
    policy: ConcPolicy,
    findings: &mut Vec<Finding>,
) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut iters: Vec<StripeIter> = Vec::new();

    for (idx, line) in stripped_lines.iter().enumerate() {
        let depth = depths.get(idx).copied().unwrap_or(0);
        let raw_line = raw_lines.get(idx).copied().unwrap_or("");
        let line_no = idx + 1;

        // A guard (or registered stripe iterator) dies when control leaves
        // the block it was bound in.
        guards.retain(|g| depth >= g.depth);
        iters.retain(|it| depth >= it.depth);

        if in_test.get(idx).copied().unwrap_or(false) {
            continue;
        }

        // Explicit early release.
        if let Some(pos) = line.find("drop(") {
            let arg: String = line[pos + 5..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            guards.retain(|g| g.name != arg);
        }

        // Register stripe-iterating loop variables.
        if let Some((vars, expr)) = parse_for_loop(line) {
            if expr.contains("stripes") {
                let descending = expr.contains(".rev()");
                for v in vars {
                    iters.push(StripeIter {
                        name: v,
                        descending,
                        depth: depth + 1,
                    });
                }
            }
        }

        let allowed = |rule: Rule| raw_line.contains(&format!("xtask: allow({})", rule.slug()));

        // Guard-across-I/O: any live guard plus frame/socket I/O on the
        // same line is a blocking call under a lock.
        if policy.guard_io && !guards.is_empty() && !allowed(Rule::GuardAcrossIo) {
            if let Some(pat) = IO_PATTERNS.iter().find(|p| line.contains(*p)) {
                let held = guard_names(&guards);
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::GuardAcrossIo,
                    message: format!(
                        "`{pat}` I/O while lock guard(s) [{held}] are live — drop the guard \
                         before blocking (a lock held across a syscall stalls every thread \
                         behind it)"
                    ),
                });
            }
        }

        // Acquisition sites on this line.
        for acq in find_acquisitions(line) {
            let class = classify(&acq.receiver, &iters);
            let (class, descending) = class;

            if policy.lock_order && !allowed(Rule::StripeOrder) && descending {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::StripeOrder,
                    message: format!(
                        "stripe lock acquired via `{}` inside a descending iteration over \
                         the stripe array — stripe locks must be taken in ascending index \
                         order",
                        acq.receiver
                    ),
                });
            }

            if policy.lock_order && class != LockSite::Other {
                check_order(rel_path, line_no, raw_line, class, &guards, findings);
            }

            // Terminal `let g = <lock>.read();` binds a live guard.
            if acq.binds {
                if let Some(name) = binding_name(line) {
                    let index = match class {
                        LockSite::Stripe(i) => i,
                        _ => None,
                    };
                    guards.push(Guard {
                        name,
                        class,
                        index,
                        depth,
                    });
                }
            }
        }
    }
}

/// Comma-joined guard names for diagnostics.
fn guard_names(guards: &[Guard]) -> String {
    guards
        .iter()
        .map(|g| g.name.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Enforce the hierarchy at one acquisition site.
fn check_order(
    rel_path: &str,
    line_no: usize,
    raw_line: &str,
    class: LockSite,
    guards: &[Guard],
    findings: &mut Vec<Finding>,
) {
    let allowed = |rule: Rule| raw_line.contains(&format!("xtask: allow({})", rule.slug()));
    match class {
        LockSite::Structural => {
            if !allowed(Rule::LockOrder)
                && guards
                    .iter()
                    .any(|g| matches!(g.class, LockSite::Structural | LockSite::Stripe(_)))
            {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::LockOrder,
                    message: format!(
                        "`structural` acquired while guard(s) [{}] are live — the hierarchy \
                         is structural → stripe, never the reverse (deadlock with any \
                         writer waiting behind the held guard)",
                        guard_names(guards)
                    ),
                });
            }
        }
        LockSite::Stripe(new_idx) => {
            if allowed(Rule::StripeOrder) {
                return;
            }
            for g in guards {
                if let LockSite::Stripe(_) = g.class {
                    let out_of_order = match (g.index, new_idx) {
                        (Some(held), Some(new)) => new <= held,
                        // A second stripe lock with statically unordered
                        // indices cannot be proven ascending.
                        _ => true,
                    };
                    if out_of_order {
                        findings.push(Finding {
                            file: rel_path.to_string(),
                            line: line_no,
                            rule: Rule::StripeOrder,
                            message: format!(
                                "stripe lock acquired while stripe guard `{}` is live and \
                                 the index order cannot be proven ascending — acquire \
                                 stripes in ascending index order only",
                                g.name
                            ),
                        });
                        break;
                    }
                }
            }
        }
        LockSite::Other => {}
    }
}

/// One `.read()` / `.write()` / `.lock()` call site on a line.
struct Acquisition {
    receiver: String,
    /// True when the call terminates a `let` statement (`… .read();`),
    /// i.e. the guard outlives the expression.
    binds: bool,
}

/// Find lock-acquisition call sites: `.read()` / `.write()` / `.lock()`
/// with an empty argument list (which distinguishes them from socket
/// `.read(buf)` / `.write(buf)`), and `ShardedNode`'s wait-timing helpers
/// `.read_lock(&<lock>, …)` / `.write_lock(&<lock>, …)`, whose lock is the
/// first argument.
fn find_acquisitions(line: &str) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for helper in [".read_lock(&", ".write_lock(&"] {
        if let Some(pos) = line.find(helper) {
            let args = &line[pos + helper.len()..];
            let receiver = args.split(',').next().unwrap_or("").trim().to_string();
            let binds = line.trim_start().starts_with("let ") && line.trim_end().ends_with(");");
            out.push(Acquisition { receiver, binds });
        }
    }
    for method in [".read()", ".write()", ".lock()"] {
        let mut start = 0;
        while let Some(off) = line[start..].find(method) {
            let pos = start + off;
            let receiver = receiver_before(line, pos);
            if !receiver.is_empty() {
                let rest = line[pos + method.len()..].trim_start();
                let binds = line.trim_start().starts_with("let ") && rest.starts_with(';');
                out.push(Acquisition { receiver, binds });
            }
            start = pos + method.len();
        }
    }
    out
}

/// Walk backwards from the `.` of a method call to extract the receiver
/// expression (identifiers, paths, and bracketed index/call groups).
fn receiver_before(line: &str, dot_pos: usize) -> String {
    let b = line.as_bytes();
    let mut j = dot_pos;
    while j > 0 {
        let c = b[j - 1] as char;
        if c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == ':' {
            j -= 1;
            continue;
        }
        if c == ']' || c == ')' {
            let (open, close) = if c == ']' { (b'[', b']') } else { (b'(', b')') };
            let mut depth = 1i32;
            j -= 1;
            while j > 0 && depth > 0 {
                let ch = b[j - 1];
                if ch == close {
                    depth += 1;
                } else if ch == open {
                    depth -= 1;
                }
                j -= 1;
            }
            continue;
        }
        break;
    }
    line[j..dot_pos].to_string()
}

/// Classify a receiver; the bool is "acquired inside a descending stripe
/// iteration".
fn classify(receiver: &str, iters: &[StripeIter]) -> (LockSite, bool) {
    if receiver.contains("structural") {
        return (LockSite::Structural, false);
    }
    if receiver.contains("stripes") {
        return (LockSite::Stripe(literal_index(receiver)), false);
    }
    // A bare identifier bound by `for <var> in …stripes…`.
    let base = receiver.split(['.', ':']).next().unwrap_or("");
    if let Some(it) = iters.iter().find(|it| it.name == base) {
        return (LockSite::Stripe(None), it.descending);
    }
    (LockSite::Other, false)
}

/// Extract a literal index from `…stripes[<n>]…`, if present.
fn literal_index(receiver: &str) -> Option<usize> {
    let pos = receiver.find("stripes[")?;
    let inner = &receiver[pos + "stripes[".len()..];
    let end = inner.find(']')?;
    inner[..end].trim().parse().ok()
}

/// Parse `for <vars> in <expr>` into the loop variables and the iterated
/// expression.
fn parse_for_loop(line: &str) -> Option<(Vec<String>, String)> {
    let t = line.trim_start();
    let rest = t.strip_prefix("for ")?;
    let in_pos = rest.find(" in ")?;
    let vars: Vec<String> = rest[..in_pos]
        .trim_matches(|c| c == '(' || c == ')' || c == ' ')
        .split(',')
        .map(|v| v.trim().trim_start_matches("mut ").to_string())
        .filter(|v| !v.is_empty() && v != "_")
        .collect();
    let expr = rest[in_pos + 4..].to_string();
    Some((vars, expr))
}

/// Extract `<name>` from a `let [mut] <name> = …;` line.
fn binding_name(line: &str) -> Option<String> {
    let t = line.trim_start();
    let rest = t.strip_prefix("let ")?;
    let eq = rest.find('=')?;
    let name = rest[..eq].trim().trim_start_matches("mut ").trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    Some(name.to_string())
}

/// Token-level atomic-ordering audit: SeqCst justification and per-field
/// mixed-ordering detection.
fn atomic_pass(
    rel_path: &str,
    src: &str,
    raw_lines: &[&str],
    in_test: &[bool],
    findings: &mut Vec<Finding>,
) {
    // Significant tokens only, with their line numbers.
    let toks: Vec<Token<'_>> = lexer::lex(src)
        .into_iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment { .. }
            )
        })
        .collect();

    // Innermost pending atomic call: (field, paren depth at which its
    // argument list closes).
    let mut call_stack: Vec<(String, i32)> = Vec::new();
    let mut paren_depth: i32 = 0;
    // field -> (orderings seen, first line seen)
    let mut fields: std::collections::BTreeMap<String, (Vec<&'static str>, usize)> =
        std::collections::BTreeMap::new();

    let is_test_line = |line: u32| in_test.get(line as usize - 1).copied().unwrap_or(false);
    let line_allows = |line: u32, rule: Rule| {
        raw_lines
            .get(line as usize - 1)
            .is_some_and(|l| l.contains(&format!("xtask: allow({})", rule.slug())))
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokenKind::Punct => match t.text {
                "(" => paren_depth += 1,
                ")" => {
                    paren_depth -= 1;
                    while call_stack
                        .last()
                        .is_some_and(|&(_, close_at)| paren_depth < close_at)
                    {
                        call_stack.pop();
                    }
                }
                _ => {}
            },
            TokenKind::Ident => {
                // `Ordering :: <X>` — attribute to the innermost call.
                if t.text == "Ordering"
                    && toks.get(i + 1).is_some_and(|p| p.text == ":")
                    && toks.get(i + 2).is_some_and(|p| p.text == ":")
                {
                    if let Some(ord) = toks.get(i + 3) {
                        if let Some(&known) = ORDERINGS.iter().find(|&&o| o == ord.text) {
                            if !is_test_line(ord.line) {
                                if known == "SeqCst"
                                    && !seqcst_justified(raw_lines, ord.line)
                                    && !line_allows(ord.line, Rule::SeqCstJustify)
                                {
                                    findings.push(Finding {
                                        file: rel_path.to_string(),
                                        line: ord.line as usize,
                                        rule: Rule::SeqCstJustify,
                                        message: "`Ordering::SeqCst` without a `// seqcst:` \
                                                  justification — downgrade to Acquire/Release/\
                                                  AcqRel or document why a total order is needed"
                                            .into(),
                                    });
                                }
                                if let Some((field, _)) = call_stack.last() {
                                    let entry = fields
                                        .entry(field.clone())
                                        .or_insert_with(|| (Vec::new(), ord.line as usize));
                                    if !entry.0.contains(&known) {
                                        entry.0.push(known);
                                    }
                                }
                            }
                        }
                        i += 4;
                        continue;
                    }
                }
                // `<recv> . <atomic_method> (` opens an atomic call.
                if ATOMIC_METHODS.contains(&t.text)
                    && toks.get(i + 1).is_some_and(|p| p.text == "(")
                    && i >= 2
                    && toks[i - 1].text == "."
                {
                    if let Some(field) = field_of(&toks, i - 1) {
                        // The argument list closes when depth returns to
                        // the current depth (the `(` is consumed next).
                        call_stack.push((field, paren_depth + 1));
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }

    for (field, (orderings, first_line)) in &fields {
        let relaxed = orderings.contains(&"Relaxed");
        let syncing = orderings.iter().any(|&o| o != "Relaxed");
        if relaxed && syncing && !line_allows(*first_line as u32, Rule::MixedOrdering) {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: *first_line,
                rule: Rule::MixedOrdering,
                message: format!(
                    "atomic field `{field}` mixes Relaxed with synchronizing orderings \
                     ({orderings:?}) — pick one contract: publish (Acquire/Release) or \
                     statistic (Relaxed everywhere)"
                ),
            });
        }
    }
}

/// The field identifier a `.` at token index `dot_idx` selects — e.g.
/// `self.used.load(..)` → `used`; `live.fetch_add(..)` → `live`;
/// `self.0.fetch_sub(..)` → `0`.
fn field_of(toks: &[Token<'_>], dot_idx: usize) -> Option<String> {
    let prev = toks.get(dot_idx.checked_sub(1)?)?;
    match prev.kind {
        TokenKind::Ident | TokenKind::Num => Some(prev.text.to_string()),
        _ => None,
    }
}

/// A SeqCst use is justified by a `// seqcst:` comment on the same or the
/// immediately preceding source line.
fn seqcst_justified(raw_lines: &[&str], line: u32) -> bool {
    let idx = line as usize - 1;
    let same = raw_lines.get(idx).is_some_and(|l| l.contains("seqcst:"));
    let above = idx > 0
        && raw_lines
            .get(idx - 1)
            .is_some_and(|l| l.contains("seqcst:"));
    same || above
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: ConcPolicy = ConcPolicy {
        lock_order: true,
        atomics: true,
        guard_io: true,
        reactor_io: true,
        span_discipline: true,
        hot_alloc: false,
    };

    /// The policy of a zero-allocation hot-path file that carries none of
    /// the lock/atomic machinery (e.g. the bptree crate).
    const HOT_ALLOC_ONLY: ConcPolicy = ConcPolicy {
        lock_order: false,
        atomics: false,
        guard_io: false,
        reactor_io: false,
        span_discipline: false,
        hot_alloc: true,
    };

    /// The policy of a guard-audited non-reactor file (e.g. server.rs):
    /// guards across I/O are flagged, blocking I/O itself is legal.
    const GUARDED: ConcPolicy = ConcPolicy {
        reactor_io: false,
        ..ALL
    };

    fn rules(findings: &[Finding]) -> Vec<(usize, Rule)> {
        findings.iter().map(|f| (f.line, f.rule)).collect()
    }

    #[test]
    fn correct_hierarchy_is_clean() {
        let src = "\
fn get(&self, key: u64) -> Option<Record> {
    let _structural = self.structural.read();
    let stripe = self.stripes[stripe_of(key, self.mask)].read();
    stripe.get(&key).cloned()
}
fn sweep(&self) {
    let _structural = self.structural.write();
    for (i, stripe) in self.stripes.iter().enumerate() {
        let tree = stripe.read();
        tree.validate();
    }
}
";
        assert!(analyze_source("crates/core/src/x.rs", src, ALL).is_empty());
    }

    #[test]
    fn timed_lock_helpers_are_acquisitions_of_their_first_argument() {
        let ok = "\
fn get(&self, key: u64) {
    let _structural = self.read_lock(&self.structural, \"lock_wait_us:structural\");
    let stripe = self.read_lock(&self.stripes[idx], \"lock_wait_us:stripe\");
}
";
        assert!(analyze_source("crates/core/src/x.rs", ok, ALL).is_empty());
        let bad = "\
fn bad(&self) {
    let stripe = self.write_lock(&self.stripes[0], \"lock_wait_us:stripe\");
    let _structural = self.write_lock(&self.structural, \"lock_wait_us:structural\");
}
";
        let f = analyze_source("crates/core/src/x.rs", bad, ALL);
        assert_eq!(rules(&f), vec![(3, Rule::LockOrder)]);
    }

    #[test]
    fn structural_after_stripe_is_an_inversion() {
        let src = "\
fn bad(&self) {
    let stripe = self.stripes[0].read();
    let _structural = self.structural.write();
}
";
        let f = analyze_source("crates/core/src/x.rs", src, ALL);
        assert_eq!(rules(&f), vec![(3, Rule::LockOrder)]);
    }

    #[test]
    fn descending_stripe_indices_are_flagged() {
        let src = "\
fn bad(&self) {
    let a = self.stripes[3].write();
    let b = self.stripes[1].write();
}
fn also_bad(&self) {
    for stripe in self.stripes.iter().rev() {
        let t = stripe.read();
    }
}
fn fine(&self) {
    let a = self.stripes[1].write();
    let b = self.stripes[3].write();
}
";
        let f = analyze_source("crates/core/src/x.rs", src, ALL);
        assert_eq!(
            rules(&f),
            vec![(3, Rule::StripeOrder), (7, Rule::StripeOrder)]
        );
    }

    #[test]
    fn guard_across_io_is_flagged_and_drop_releases() {
        let src = "\
fn bad(&self, stream: &mut TcpStream) {
    let g = self.state.lock();
    write_frame(stream, &g.buf);
}
fn good(&self, stream: &mut TcpStream) {
    let g = self.state.lock();
    let body = g.buf.clone();
    drop(g);
    write_frame(stream, &body);
}
";
        let f = analyze_source("crates/net/src/server.rs", src, GUARDED);
        assert_eq!(rules(&f), vec![(3, Rule::GuardAcrossIo)]);
    }

    #[test]
    fn guard_dies_with_its_block() {
        let src = "\
fn ok(&self, stream: &mut TcpStream) {
    {
        let g = self.state.lock();
        g.touch();
    }
    write_frame(stream, b\"x\");
}
";
        assert!(analyze_source("crates/net/src/server.rs", src, GUARDED).is_empty());
    }

    #[test]
    fn unjustified_seqcst_is_flagged_justified_is_not() {
        let src = "\
fn f(&self) {
    self.flag.store(true, Ordering::SeqCst);
    // seqcst: the flag orders against the epoch counter below.
    self.flag2.store(true, Ordering::SeqCst);
    self.n.fetch_add(1, Ordering::Relaxed);
}
";
        let f = analyze_source("crates/core/src/x.rs", src, ALL);
        assert_eq!(rules(&f), vec![(2, Rule::SeqCstJustify)]);
    }

    #[test]
    fn mixed_ordering_on_one_field_is_flagged() {
        let src = "\
fn f(&self) {
    self.used.store(1, Ordering::Relaxed);
}
fn g(&self) -> u64 {
    self.used.load(Ordering::Acquire)
}
fn consistent(&self) -> u64 {
    self.count.fetch_add(1, Ordering::AcqRel);
    self.count.load(Ordering::Acquire)
}
";
        let f = analyze_source("crates/core/src/x.rs", src, ALL);
        assert_eq!(rules(&f), vec![(2, Rule::MixedOrdering)]);
    }

    #[test]
    fn multiline_atomic_calls_attribute_orderings() {
        // rustfmt wraps long receivers; the token walk must still see
        // `used.fetch_update(AcqRel, Acquire, ..)` as one call.
        let src = "\
fn f(&self) {
    let r = self
        .used
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |u| {
            u.checked_add(1)
        });
    self.used.load(Ordering::Acquire);
}
";
        assert!(analyze_source("crates/core/src/x.rs", src, ALL).is_empty());
        // …and a Relaxed load elsewhere on the same field is a mix.
        let mixed = format!("{src}fn g(&self) -> u64 {{ self.used.load(Ordering::Relaxed) }}\n");
        let f = analyze_source("crates/core/src/x.rs", &mixed, ALL);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::MixedOrdering);
    }

    #[test]
    fn waivers_and_test_modules_are_respected() {
        let src = "\
fn f(&self) {
    self.flag.store(true, Ordering::SeqCst); // xtask: allow(seqcst-justify) — cross-crate fence
}
#[cfg(test)]
mod tests {
    fn t(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let stripe = self.stripes[0].read();
        let _structural = self.structural.write();
    }
}
";
        assert!(analyze_source("crates/core/src/x.rs", src, ALL).is_empty());
    }

    #[test]
    fn socket_read_write_with_args_are_not_lock_acquisitions() {
        let src = "\
fn f(stream: &mut TcpStream, buf: &mut [u8]) {
    stream.read(buf).ok();
    stream.write(buf).ok();
}
";
        assert!(analyze_source("crates/net/src/server.rs", src, GUARDED).is_empty());
    }

    #[test]
    fn blocking_primitives_in_reactor_files_are_flagged() {
        let src = "\
fn drain(&mut self, stream: &mut TcpStream) {
    let mut hdr = [0u8; 4];
    stream.read_exact(&mut hdr)?;
    stream.write_all(&hdr)?;
    let job = self.rx.recv();
    std::thread::park_timeout(Duration::from_micros(30));
    std::thread::sleep(Duration::from_millis(1));
    let ready = sys::wait(&mut self.pollfds, 1);
}
";
        let f = analyze_source("crates/net/src/reactor.rs", src, ALL);
        assert_eq!(
            rules(&f),
            vec![
                (3, Rule::BlockingIoInReactor),
                (4, Rule::BlockingIoInReactor),
                (5, Rule::BlockingIoInReactor),
                (6, Rule::BlockingIoInReactor),
                (7, Rule::BlockingIoInReactor),
                (8, Rule::BlockingIoInReactor),
            ]
        );
    }

    #[test]
    fn nonblocking_reactor_idiom_is_clean() {
        let src = "\
fn sweep(&mut self, conn: &mut Conn) -> io::Result<()> {
    while let Some(job) = self.rx.try_recv() {
        self.conns.push(job);
    }
    let n = conn.asm.fill_from(&mut conn.stream)?;
    let wrote = conn.stream.write(&conn.wbuf[conn.wpos..])?;
    Ok(())
}
";
        assert!(analyze_source("crates/net/src/reactor.rs", src, ALL).is_empty());
    }

    #[test]
    fn reactor_blocking_waiver_and_tests_are_respected() {
        let src = "\
fn startup(&mut self) {
    self.rx.recv(); // xtask: allow(no-blocking-io-in-reactor) — pre-loop handshake
    let _ = sys::wait(&mut fds, -1); // xtask: allow(no-blocking-io-in-reactor) — the idle wait
    std::thread::yield_now();
}
#[cfg(test)]
mod tests {
    fn t(stream: &mut TcpStream) {
        stream.read_exact(&mut [0u8; 4]).unwrap();
    }
}
";
        assert!(analyze_source("crates/net/src/reactor.rs", src, ALL).is_empty());
    }

    #[test]
    fn policies_match_the_repo_layout() {
        let p = conc_policy_for("crates/core/src/shard.rs").unwrap();
        assert!(p.lock_order && p.atomics && p.guard_io && !p.reactor_io && p.span_discipline);
        assert!(!p.hot_alloc, "shard delegates payload storage to the slab");
        let p = conc_policy_for("crates/net/src/server.rs").unwrap();
        assert!(p.lock_order && p.atomics && p.guard_io && !p.reactor_io);
        let p = conc_policy_for("crates/net/src/reactor.rs").unwrap();
        assert!(p.lock_order && p.atomics && p.guard_io && p.reactor_io && p.hot_alloc);
        let p = conc_policy_for("crates/net/src/protocol.rs").unwrap();
        assert!(p.lock_order && p.atomics && !p.guard_io);
        let p = conc_policy_for("crates/obs/src/registry.rs").unwrap();
        assert!(!p.lock_order && p.atomics && !p.guard_io && p.span_discipline);
        let p = conc_policy_for("crates/simtest/src/proto_sim.rs").unwrap();
        assert!(p.span_discipline);
        // The zero-allocation storage files: inline node arrays + slab.
        let p = conc_policy_for("crates/bptree/src/tree.rs").unwrap();
        assert!(!p.lock_order && !p.atomics && !p.guard_io && !p.span_discipline);
        assert!(p.hot_alloc);
        assert!(
            conc_policy_for("crates/bptree/src/inline.rs")
                .unwrap()
                .hot_alloc
        );
        assert!(
            conc_policy_for("crates/core/src/slab.rs")
                .unwrap()
                .hot_alloc
        );
        assert!(
            !conc_policy_for("crates/bptree/src/bytesize.rs")
                .unwrap()
                .hot_alloc
        );
        assert!(conc_policy_for("crates/net/src/bin/cache_server.rs").is_none());
        assert!(conc_policy_for("README.md").is_none());
    }

    #[test]
    fn global_alloc_calls_on_the_hot_path_are_flagged() {
        let src = "\
fn grow(&mut self, payload: &[u8]) {
    let mut scratch = Vec::new();
    let staged = vec![0u8; payload.len()];
    let boxed = Box::new(staged);
    let copy = payload.to_vec();
}
";
        let f = analyze_source("crates/bptree/src/tree.rs", src, HOT_ALLOC_ONLY);
        assert_eq!(
            rules(&f),
            vec![
                (2, Rule::NoGlobalAllocHotPath),
                (3, Rule::NoGlobalAllocHotPath),
                (4, Rule::NoGlobalAllocHotPath),
                (5, Rule::NoGlobalAllocHotPath),
            ]
        );
    }

    #[test]
    fn inline_vec_and_with_capacity_are_not_global_allocs() {
        // `InlineVec::new` shares the `Vec::new` suffix but is the blessed
        // replacement; `Vec::with_capacity` is the cold-path pre-sizing
        // idiom. Neither may trip the probe.
        let src = "\
fn put(&mut self, key: u64) {
    let mut keys: InlineVec<u64, 32> = InlineVec::new();
    keys.push(key);
    let wbuf: Vec<u8> = Vec::with_capacity(4096);
}
";
        assert!(analyze_source("crates/bptree/src/inline.rs", src, HOT_ALLOC_ONLY).is_empty());
    }

    #[test]
    fn hot_alloc_waiver_and_tests_are_respected() {
        let src = "\
fn startup(&mut self) {
    self.conns = Vec::new(); // xtask: allow(no-global-alloc-in-hot-path) — one-time startup
}
#[cfg(test)]
mod tests {
    fn t() {
        let v = vec![0u8; 64];
        let w = v.to_vec();
        let _b = Box::new(w);
    }
}
";
        assert!(analyze_source("crates/core/src/slab.rs", src, HOT_ALLOC_ONLY).is_empty());
    }

    #[test]
    fn unbound_span_guards_are_flagged() {
        let src = "\
fn migrate(&mut self) {
    self.obs.span_follow(\"migrate_chunk\");
    let _ = self.obs.span_root(\"elastic_split\");
    let _span = self.obs.span_start(\"srv\", trace, parent);
    let guard = self.obs.span_start_at(\"srv_queue\", trace, parent, at);
    drop(guard);
}
";
        let f = analyze_source("crates/net/src/coordinator.rs", src, ALL);
        assert_eq!(
            rules(&f),
            vec![(2, Rule::SpanDiscipline), (3, Rule::SpanDiscipline)]
        );
    }

    #[test]
    fn tail_expression_span_guards_are_fine() {
        // Handing the guard to the caller (tail position, no `;`) and
        // expression uses inside a binding are both legitimate.
        let src = "\
fn root(&self) -> SpanGuard {
    self.obs.span_root(\"elastic_merge\")
}
fn wire(&self) -> Option<(SpanGuard, u64)> {
    let span = match (&self.obs, scope) {
        (Some(obs), Some((t, p))) => Some((obs.span_start(\"wire:get\", t, p), p)),
        _ => None,
    };
    span
}
";
        assert!(analyze_source("crates/net/src/client.rs", src, ALL).is_empty());
    }

    #[test]
    fn wrapped_span_bindings_are_not_statement_calls() {
        // rustfmt wraps long receivers; the continuation line starts with
        // `.` but the guard is still bound by the `let` two lines up.
        let src = "\
fn f(&self, c: &TraceContext, t_wake: u64) {
    let srv = shared
        .obs
        .span_start_at(\"srv\", c.trace_id, c.span_id, t_wake);
    drop(srv);
}
";
        assert!(analyze_source("crates/net/src/reactor.rs", src, ALL).is_empty());
    }

    #[test]
    fn span_discipline_waiver_and_tests_are_respected() {
        let src = "\
fn f(&self) {
    self.obs.span_follow(\"probe\"); // xtask: allow(span-discipline) — marker span
}
#[cfg(test)]
mod tests {
    fn t(&self) {
        self.obs.span_follow(\"probe\");
    }
}
";
        assert!(analyze_source("crates/net/src/coordinator.rs", src, ALL).is_empty());
    }
}
