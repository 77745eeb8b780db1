//! Concurrency passes on the stripped source and the token-level lexer:
//! the checks that neither rustc, clippy nor a run-time test makes.
//!
//! * **seqcst-justify** — every `Ordering::SeqCst` must carry a
//!   `// seqcst:` justification comment on its own or the preceding
//!   line; everything else should be `Acquire`/`Release`/`AcqRel`.
//! * **mixed-ordering** — one atomic field accessed with `Relaxed` in
//!   one place and a synchronizing ordering elsewhere is a latent race:
//!   either the field publishes data (every access synchronizes) or it
//!   is a statistic (every access relaxed).
//! * **guard-across-io** — on hot-path files, no lock guard may be live
//!   across frame or socket I/O (`read_frame*` / `write_frame*` /
//!   `.send(` / `.flush(` …): a guard held across a blocking syscall
//!   stalls every thread queued behind it.
//! * **no-blocking-io-in-reactor** — reactor event-loop files must never
//!   call a blocking primitive at all: `read_exact` / `read_to_end` /
//!   `write_all` loop until satisfied, the blocking frame helpers
//!   (`read_frame*` / `write_frame*`) sit on top of them, channel
//!   `.recv()` parks the thread, a listener's `.incoming()` is a blocking
//!   accept loop, a mutex `.lock()` can block behind an
//!   arbitrary holder, and `park_timeout` / `thread::sleep` are a timed
//!   wait that answers a request only when the timer fires. A reactor
//!   thread owns a whole slice of connections; any of these stalls all
//!   of them. Reactors use nonblocking reads/writes that surface
//!   `WouldBlock`, `try_recv`, and lock-free handoff instead, and block
//!   in exactly one place — the `sys::wait` readiness wait, which is
//!   banned too so that the single call has to carry the waiver.
//!
//! The guard pass is heuristic but sound for the repo's idiom: guards are
//! bound with single-line `let g = <lock>.read()/.write()/.lock();`
//! statements and die at the end of their block (or at `drop(g)`).

use crate::lexer::{self, Token, TokenKind};
use crate::{Finding, Policy, Rule, SourceFile};

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
    (
        ".incoming(",
        "is a blocking accept loop: a reactor accepts when `poll` reports its listener readable",
    ),
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

/// Run every concurrency pass `policy` enables over one file.
pub(crate) fn analyze(file: &SourceFile<'_>, policy: Policy, findings: &mut Vec<Finding>) {
    if policy.guard_io {
        guard_io_pass(file, findings);
    }
    if policy.atomics {
        atomic_pass(file, findings);
    }
    for (idx, line) in file.stripped.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        if policy.reactor_io && !file.waived(idx, Rule::BlockingIoInReactor) {
            for (pat, why) in REACTOR_BLOCKING {
                if line.contains(pat) {
                    findings.push(file.finding(
                        idx,
                        Rule::BlockingIoInReactor,
                        format!(
                            "`{pat}` in a reactor event loop — it {why}, stalling every \
                             connection this reactor owns; use nonblocking I/O that \
                             surfaces `WouldBlock` (FrameAssembler::fill_from, buffered \
                             writes, try_recv)"
                        ),
                    ));
                }
            }
        }
    }
}

/// Flag frame/socket I/O on a line where a lock guard bound earlier in an
/// enclosing block is still live.
fn guard_io_pass(file: &SourceFile<'_>, findings: &mut Vec<Finding>) {
    // Live guards: (binding name, brace depth of the binding).
    let mut guards: Vec<(String, i64)> = Vec::new();
    for (idx, line) in file.stripped.iter().enumerate() {
        let depth = file.depth[idx];
        // A guard dies when control leaves the block it was bound in.
        guards.retain(|(_, d)| depth >= *d);
        if file.in_test[idx] {
            continue;
        }
        // Explicit early release.
        if let Some(pos) = line.find("drop(") {
            let arg: String = line[pos + 5..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            guards.retain(|(name, _)| *name != arg);
        }
        if !guards.is_empty() && !file.waived(idx, Rule::GuardAcrossIo) {
            if let Some(pat) = IO_PATTERNS.iter().find(|p| line.contains(*p)) {
                let held: Vec<&str> = guards.iter().map(|(n, _)| n.as_str()).collect();
                findings.push(file.finding(
                    idx,
                    Rule::GuardAcrossIo,
                    format!(
                        "`{pat}` I/O while lock guard(s) [{}] are live — drop the guard \
                         before blocking (a lock held across a syscall stalls every thread \
                         behind it)",
                        held.join(", ")
                    ),
                ));
            }
        }
        if binds_guard(line) {
            if let Some(name) = binding_name(line) {
                guards.push((name, depth));
            }
        }
    }
}

/// True when `line` is a `let` statement whose value is a lock guard:
/// `.read()` / `.write()` / `.lock()` with an empty argument list (which
/// tells them from socket `.read(buf)`) ending the statement, or
/// `ShardedNode`'s `read_lock(..)` / `write_lock(..)` helpers.
fn binds_guard(line: &str) -> bool {
    let t = line.trim();
    t.starts_with("let ")
        && ([".read();", ".write();", ".lock();"]
            .iter()
            .any(|m| t.ends_with(m))
            || ([".read_lock(", ".write_lock("]
                .iter()
                .any(|m| t.contains(m))
                && t.ends_with(");")))
}

/// Extract `<name>` from a `let [mut] <name> = …` line.
fn binding_name(line: &str) -> Option<String> {
    let rest = line.trim_start().strip_prefix("let ")?;
    let eq = rest.find('=')?;
    let name = rest[..eq].trim().trim_start_matches("mut ").trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    Some(name.to_string())
}

/// Token-level atomic-ordering audit: SeqCst justification and per-field
/// mixed-ordering detection.
fn atomic_pass(file: &SourceFile<'_>, findings: &mut Vec<Finding>) {
    // Significant tokens only, with their line numbers.
    let toks: Vec<Token<'_>> = lexer::lex(file.src)
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
    // field -> (orderings seen, 0-based line first seen)
    let mut fields: std::collections::BTreeMap<String, (Vec<&'static str>, usize)> =
        std::collections::BTreeMap::new();

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
                        let idx = ord.line as usize - 1;
                        if let Some(&known) = ORDERINGS.iter().find(|&&o| o == ord.text) {
                            if !file.in_test.get(idx).copied().unwrap_or(false) {
                                if known == "SeqCst"
                                    && !seqcst_justified(&file.raw, idx)
                                    && !file.waived(idx, Rule::SeqCstJustify)
                                {
                                    findings.push(
                                        file.finding(
                                            idx,
                                            Rule::SeqCstJustify,
                                            "`Ordering::SeqCst` without a `// seqcst:` \
                                         justification — downgrade to Acquire/Release/AcqRel \
                                         or document why a total order is needed"
                                                .into(),
                                        ),
                                    );
                                }
                                if let Some((field, _)) = call_stack.last() {
                                    let entry = fields
                                        .entry(field.clone())
                                        .or_insert_with(|| (Vec::new(), idx));
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

    for (field, (orderings, first_idx)) in &fields {
        let relaxed = orderings.contains(&"Relaxed");
        let syncing = orderings.iter().any(|&o| o != "Relaxed");
        if relaxed && syncing && !file.waived(*first_idx, Rule::MixedOrdering) {
            findings.push(file.finding(
                *first_idx,
                Rule::MixedOrdering,
                format!(
                    "atomic field `{field}` mixes Relaxed with synchronizing orderings \
                     ({orderings:?}) — pick one contract: publish (Acquire/Release) or \
                     statistic (Relaxed everywhere)"
                ),
            ));
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
/// immediately preceding source line (`idx` is 0-based).
fn seqcst_justified(raw_lines: &[&str], idx: usize) -> bool {
    let has = |i: usize| raw_lines.get(i).is_some_and(|l| l.contains("seqcst:"));
    has(idx) || (idx > 0 && has(idx - 1))
}

#[cfg(test)]
mod tests {
    use crate::{analyze_source, Finding, Policy, Rule};

    const ALL: Policy = Policy {
        unsafe_free: false,
        must_use: false,
        atomics: true,
        guard_io: true,
        reactor_io: true,
    };

    /// The policy of a guard-audited non-reactor file (e.g. server.rs):
    /// guards across I/O are flagged, blocking I/O itself is legal.
    const GUARDED: Policy = Policy {
        reactor_io: false,
        ..ALL
    };

    fn rules(findings: &[Finding]) -> Vec<(usize, Rule)> {
        findings.iter().map(|f| (f.line, f.rule)).collect()
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
fn helper(&self, stream: &mut TcpStream) {
    let stripe = self.read_lock(&self.stripes[0], LockClass::Stripe(0));
    stream.flush();
}
";
        let f = analyze_source("crates/net/src/server.rs", src, GUARDED);
        assert_eq!(
            rules(&f),
            vec![(3, Rule::GuardAcrossIo), (13, Rule::GuardAcrossIo)]
        );
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
    fn socket_read_write_with_args_are_not_lock_acquisitions() {
        let src = "\
fn f(stream: &mut TcpStream, buf: &mut [u8]) {
    let n = stream.read(buf);
    stream.write(buf).ok();
    stream.flush();
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
        assert_eq!(rules(&f), vec![(4, Rule::MixedOrdering)]);
    }

    #[test]
    fn waivers_and_test_modules_are_respected() {
        let src = "\
fn f(&self) {
    self.flag.store(true, Ordering::SeqCst); // xtask: allow(seqcst-justify) — cross-crate fence
}
#[cfg(test)]
mod tests {
    fn t(&self, stream: &mut TcpStream) {
        self.flag.store(true, Ordering::SeqCst);
        let g = self.state.lock();
        write_frame(stream, &g.buf);
        stream.read_exact(&mut [0u8; 4]).unwrap();
    }
}
";
        // Every pass at once, on the reactor file: the test module is
        // exempt from the guard, blocking-I/O and atomic passes.
        assert!(analyze_source("crates/net/src/reactor.rs", src, ALL).is_empty());
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
        let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![3, 4, 5, 6, 7, 8]);
        assert!(f.iter().all(|f| f.rule == Rule::BlockingIoInReactor));
    }

    #[test]
    fn a_blocking_accept_loop_in_a_reactor_file_is_flagged() {
        let src = "\
fn serve(listener: TcpListener) {
    for conn in listener.incoming() {
        handoff(conn);
    }
    let accepted = listener.accept();
}
";
        let f = analyze_source("crates/net/src/reactor.rs", src, ALL);
        let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2]);
        assert!(f.iter().all(|f| f.rule == Rule::BlockingIoInReactor));
    }

    #[test]
    fn nonblocking_reactor_idiom_and_waivers_are_clean() {
        let src = "\
fn sweep(&mut self, conn: &mut Conn) -> io::Result<()> {
    while let Some(job) = self.rx.try_recv() {
        self.conns.push(job);
    }
    let n = conn.asm.fill_from(&mut conn.stream)?;
    let wrote = conn.stream.write(&conn.wbuf[conn.wpos..])?;
    let _ = sys::wait(&mut fds, -1); // xtask: allow(no-blocking-io-in-reactor) — the idle wait
    std::thread::yield_now();
    Ok(())
}
";
        assert!(analyze_source("crates/net/src/reactor.rs", src, ALL).is_empty());
    }
}
