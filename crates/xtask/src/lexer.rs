//! A token-level Rust lexer for the `cargo xtask analyze` passes.
//!
//! The line-based passes only need comments and literals blanked out
//! ([`strip_via_lexer`]), but the atomic-ordering audit needs to know
//! *what* a piece of text is — identifier, raw string, nested comment —
//! and *where* it is (line and column). This module lexes Rust source
//! into a flat token stream with:
//!
//! * full raw-string support (`r"…"`, `r#"…"#`, `br##"…"##`, any hash
//!   depth), byte strings (`b"…"`) and byte chars (`b'x'`);
//! * raw identifiers (`r#type`) distinguished from raw strings;
//! * nested block comments with depth tracking, line comments;
//! * lifetimes (`'a`) distinguished from char literals (`'a'`, `'\''`);
//! * 1-based line / column positions on every token.
//!
//! The lexer is intentionally lossless: concatenating every token's text
//! reproduces the input byte-for-byte. `crates/xtask/tests/lexer_corpus.rs`
//! checks that on the whole workspace and pins [`strip_via_lexer`]'s exact
//! output on an adversarial corpus.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A run of whitespace (including newlines).
    Whitespace,
    /// `// …` to the end of the line (newline not included).
    LineComment,
    /// `/* … */`, possibly nested; `terminated` is false at EOF.
    BlockComment {
        /// Whether the comment's closing `*/` was found.
        terminated: bool,
    },
    /// An identifier or keyword, including raw identifiers (`r#type`).
    Ident,
    /// A lifetime such as `'a` (quote included).
    Lifetime,
    /// A char literal `'x'` / `'\n'` or byte char `b'x'`.
    CharLit,
    /// A string literal `"…"` or byte string `b"…"`; `terminated` is
    /// false when the closing quote is missing at EOF.
    StrLit {
        /// Whether the closing `"` was found.
        terminated: bool,
    },
    /// A raw string `r"…"` / `r#"…"#` / `br#"…"#` of any hash depth.
    RawStrLit {
        /// Whether the closing delimiter was found.
        terminated: bool,
    },
    /// A numeric literal (integers, simple floats; suffixes included).
    Num,
    /// Any single other character (punctuation, operators, braces).
    Punct,
}

/// One lexed token: kind, exact source text, and 1-based position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'a> {
    /// Token class.
    pub kind: TokenKind,
    /// The exact source slice (lossless: tokens concatenate to the input).
    pub text: &'a str,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

/// Cursor over the source characters.
struct Cursor<'a> {
    src: &'a str,
    chars: Vec<(usize, char)>,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src,
            chars: src.char_indices().collect(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).map(|&(_, c)| c)
    }

    fn byte_offset(&self, idx: usize) -> usize {
        self.chars
            .get(idx)
            .map(|&(b, _)| b)
            .unwrap_or(self.src.len())
    }

    /// Advance `n` characters, tracking line/column.
    fn bump(&mut self, n: usize) {
        for _ in 0..n {
            if let Some(&(_, c)) = self.chars.get(self.pos) {
                self.pos += 1;
                if c == '\n' {
                    self.line += 1;
                    self.col = 1;
                } else {
                    self.col += 1;
                }
            }
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into a lossless token stream.
pub fn lex(src: &str) -> Vec<Token<'_>> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    while cur.pos < cur.chars.len() {
        let start = cur.pos;
        let line = cur.line;
        let col = cur.col;
        let kind = next_kind(&mut cur);
        let text = &src[cur.byte_offset(start)..cur.byte_offset(cur.pos)];
        out.push(Token {
            kind,
            text,
            line,
            col,
        });
    }
    out
}

/// Consume one token starting at the cursor and return its kind.
fn next_kind(cur: &mut Cursor<'_>) -> TokenKind {
    let c = match cur.peek(0) {
        Some(c) => c,
        None => return TokenKind::Punct,
    };

    if c.is_whitespace() {
        let mut n = 0;
        while cur.peek(n).is_some_and(|c| c.is_whitespace()) {
            n += 1;
        }
        cur.bump(n);
        return TokenKind::Whitespace;
    }

    if c == '/' {
        match cur.peek(1) {
            Some('/') => {
                let mut n = 2;
                while cur.peek(n).is_some_and(|c| c != '\n') {
                    n += 1;
                }
                cur.bump(n);
                return TokenKind::LineComment;
            }
            Some('*') => return lex_block_comment(cur),
            _ => {
                cur.bump(1);
                return TokenKind::Punct;
            }
        }
    }

    // Possible raw string / byte string / raw ident / byte char: the
    // prefixes r" r#" br" b" b' and the raw identifier r#ident.
    if c == 'r' || c == 'b' {
        if let Some(kind) = try_lex_prefixed(cur, c) {
            return kind;
        }
    }

    if is_ident_start(c) {
        let mut n = 1;
        while cur.peek(n).is_some_and(is_ident_continue) {
            n += 1;
        }
        cur.bump(n);
        return TokenKind::Ident;
    }

    if c.is_ascii_digit() {
        let mut n = 1;
        loop {
            match cur.peek(n) {
                Some(d) if is_ident_continue(d) => n += 1,
                // `1.5` continues the literal; `1..5` and `1.method()` stop.
                Some('.') if cur.peek(n + 1).is_some_and(|d| d.is_ascii_digit()) => n += 1,
                _ => break,
            }
        }
        cur.bump(n);
        return TokenKind::Num;
    }

    if c == '"' {
        return lex_str(cur, 0);
    }

    if c == '\'' {
        return lex_quote(cur, 0);
    }

    cur.bump(1);
    TokenKind::Punct
}

/// Lex a nested block comment starting at `/*`.
fn lex_block_comment(cur: &mut Cursor<'_>) -> TokenKind {
    let mut n = 2;
    let mut depth = 1u32;
    loop {
        match (cur.peek(n), cur.peek(n + 1)) {
            (Some('/'), Some('*')) => {
                depth += 1;
                n += 2;
            }
            (Some('*'), Some('/')) => {
                depth -= 1;
                n += 2;
                if depth == 0 {
                    cur.bump(n);
                    return TokenKind::BlockComment { terminated: true };
                }
            }
            (Some(_), _) => n += 1,
            (None, _) => {
                cur.bump(n);
                return TokenKind::BlockComment { terminated: false };
            }
        }
    }
}

/// Try the `r…` / `b…` prefixed forms. Returns `None` when the text is a
/// plain identifier starting with `r`/`b` (the caller lexes it normally).
fn try_lex_prefixed(cur: &mut Cursor<'_>, first: char) -> Option<TokenKind> {
    // Offset of the cursor char after the optional `b` and `r`.
    let mut j = 1;
    let has_b = first == 'b';
    let has_r = if has_b {
        if cur.peek(1) == Some('r') {
            j = 2;
            true
        } else {
            false
        }
    } else {
        true
    };

    if has_r {
        // Count hashes after the `r`.
        let mut hashes = 0usize;
        while cur.peek(j + hashes) == Some('#') {
            hashes += 1;
        }
        if cur.peek(j + hashes) == Some('"') {
            return Some(lex_raw_str(cur, j + hashes, hashes));
        }
        // `r#ident` — a raw identifier, only without the `b` prefix and
        // with exactly one hash.
        if !has_b && hashes == 1 && cur.peek(2).is_some_and(is_ident_start) {
            let mut n = 3;
            while cur.peek(n).is_some_and(is_ident_continue) {
                n += 1;
            }
            cur.bump(n);
            return Some(TokenKind::Ident);
        }
        return None;
    }

    // `b"…"` byte string, `b'…'` byte char.
    match cur.peek(1) {
        Some('"') => Some(lex_str(cur, 1)),
        Some('\'') => Some(lex_quote(cur, 1)),
        _ => None,
    }
}

/// Lex a raw string whose opening quote is at offset `quote_at` with
/// `hashes` hashes in the delimiter.
fn lex_raw_str(cur: &mut Cursor<'_>, quote_at: usize, hashes: usize) -> TokenKind {
    let mut n = quote_at + 1;
    loop {
        match cur.peek(n) {
            Some('"') => {
                let mut ok = true;
                for k in 0..hashes {
                    if cur.peek(n + 1 + k) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    cur.bump(n + 1 + hashes);
                    return TokenKind::RawStrLit { terminated: true };
                }
                n += 1;
            }
            Some(_) => n += 1,
            None => {
                cur.bump(n);
                return TokenKind::RawStrLit { terminated: false };
            }
        }
    }
}

/// Lex a normal or byte string whose opening `"` is at offset `quote_at`.
fn lex_str(cur: &mut Cursor<'_>, quote_at: usize) -> TokenKind {
    let mut n = quote_at + 1;
    loop {
        match cur.peek(n) {
            Some('\\') if cur.peek(n + 1).is_some() => n += 2,
            Some('"') => {
                cur.bump(n + 1);
                return TokenKind::StrLit { terminated: true };
            }
            Some(_) => n += 1,
            None => {
                cur.bump(n);
                return TokenKind::StrLit { terminated: false };
            }
        }
    }
}

/// Lex what follows a `'` at offset `quote_at`: a char literal or a
/// lifetime. A literal closes within a few characters (`'a'`, `'\n'`,
/// `'\u{..}'`); anything else is a lifetime.
fn lex_quote(cur: &mut Cursor<'_>, quote_at: usize) -> TokenKind {
    let next = cur.peek(quote_at + 1);
    let is_char_lit = match next {
        Some('\\') => true,
        Some(_) => cur.peek(quote_at + 2) == Some('\''),
        None => false,
    };
    if is_char_lit {
        let mut n = quote_at + 1;
        loop {
            match cur.peek(n) {
                Some('\\') if cur.peek(n + 1).is_some() => n += 2,
                Some('\'') => {
                    cur.bump(n + 1);
                    return TokenKind::CharLit;
                }
                Some(_) => n += 1,
                None => {
                    cur.bump(n);
                    return TokenKind::CharLit;
                }
            }
        }
    }
    // Lifetime: `'` plus identifier characters (possibly none: a lone `'`
    // stays a one-character token).
    let mut n = quote_at + 1;
    while cur.peek(n).is_some_and(is_ident_continue) {
        n += 1;
    }
    cur.bump(n);
    if n == quote_at + 1 && quote_at == 0 {
        TokenKind::Punct
    } else {
        TokenKind::Lifetime
    }
}

/// Replace comments and string/char literal *contents* with spaces while
/// preserving line structure, so substring detectors cannot fire inside
/// prose or literals. Behavioral contract (pinned by
/// `tests/lexer_corpus.rs`):
///
/// * comments → spaces, newlines kept;
/// * `"…"` / `b"…"` → the `b` prefix and both quotes kept, contents
///   spaced (newlines kept, so multi-line strings keep line numbers);
/// * raw strings → fully spaced including delimiters;
/// * char literals → spaced (a `b` prefix is kept);
/// * everything else verbatim.
pub fn strip_via_lexer(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    for tok in lex(src) {
        match tok.kind {
            TokenKind::LineComment | TokenKind::BlockComment { .. } => {
                space_preserving_newlines(&mut out, tok.text);
            }
            TokenKind::RawStrLit { .. } => {
                space_preserving_newlines(&mut out, tok.text);
            }
            TokenKind::StrLit { terminated } => {
                let mut chars = tok.text.chars().peekable();
                // Optional `b` prefix stays.
                if chars.peek() == Some(&'b') {
                    out.push('b');
                    chars.next();
                }
                // Opening quote stays.
                if chars.peek() == Some(&'"') {
                    out.push('"');
                    chars.next();
                }
                let inner: Vec<char> = chars.collect();
                let content_len = if terminated {
                    inner.len().saturating_sub(1)
                } else {
                    inner.len()
                };
                for &c in &inner[..content_len] {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                }
                if terminated {
                    out.push('"');
                }
            }
            TokenKind::CharLit => {
                let mut chars = tok.text.chars().peekable();
                if chars.peek() == Some(&'b') {
                    out.push('b');
                    chars.next();
                }
                for c in chars {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                }
            }
            _ => out.push_str(tok.text),
        }
    }
    out
}

fn space_preserving_newlines(out: &mut String, text: &str) {
    for c in text.chars() {
        out.push(if c == '\n' { '\n' } else { ' ' });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexing_is_lossless() {
        let src = "fn f<'a>(x: &'a str) -> u64 {\n    // c\n    let s = r#\"raw \"q\" \"#;\n    let b = b\"bytes\\n\";\n    let c = '\\'';\n    0x1F + 1.5e3\n}\n";
        let toks = lex(src);
        let joined: String = toks.iter().map(|t| t.text).collect();
        assert_eq!(joined, src);
    }

    #[test]
    fn raw_strings_all_hash_depths() {
        for (src, rest) in [
            (r####"r"x""####, ""),
            ("r#\"x\"#", ""),
            ("r##\"a\"# b\"##", ""),
            ("br#\"bytes\"#", ""),
        ] {
            let toks = lex(src);
            assert_eq!(
                toks[0].kind,
                TokenKind::RawStrLit { terminated: true },
                "{src}"
            );
            assert_eq!(toks[0].text, src);
            assert!(rest.is_empty());
        }
        // Unterminated raw string consumes to EOF.
        let toks = lex("r##\"never closed\"#");
        assert_eq!(toks[0].kind, TokenKind::RawStrLit { terminated: false });
    }

    #[test]
    fn raw_idents_are_idents_not_strings() {
        let toks = lex("let r#type = 5;");
        let ident = toks.iter().find(|t| t.text == "r#type").expect("r#type");
        assert_eq!(ident.kind, TokenKind::Ident);
    }

    #[test]
    fn idents_ending_in_r_do_not_open_raw_strings() {
        // `bar` then a normal string — the `r` is part of the identifier.
        let toks = kinds("bar\"x\"");
        assert_eq!(
            toks,
            vec![TokenKind::Ident, TokenKind::StrLit { terminated: true }]
        );
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("/* a /* b */ c */ x");
        assert_eq!(toks[0].kind, TokenKind::BlockComment { terminated: true });
        assert_eq!(toks[0].text, "/* a /* b */ c */");
        // Unterminated nesting runs to EOF.
        let toks = lex("/* /* */");
        assert_eq!(toks[0].kind, TokenKind::BlockComment { terminated: false });
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("&'a str");
        assert!(toks.contains(&TokenKind::Lifetime));
        assert!(!toks.contains(&TokenKind::CharLit));
        for lit in ["'x'", "'\\n'", "'\\''", "b'q'", "'\\u{41}'"] {
            let toks = lex(lit);
            assert_eq!(toks[0].kind, TokenKind::CharLit, "{lit}");
            assert_eq!(toks[0].text, lit, "{lit}");
        }
    }

    #[test]
    fn positions_are_line_col_tracked() {
        let src = "fn f() {\n    let x = 1;\n}\n";
        let toks = lex(src);
        let x = toks.iter().find(|t| t.text == "x").expect("x token");
        assert_eq!((x.line, x.col), (2, 9));
        let one = toks.iter().find(|t| t.text == "1").expect("1 token");
        assert_eq!((one.line, one.col), (2, 13));
    }

    #[test]
    fn strip_preserves_line_structure_in_multiline_strings() {
        let src = "let s = \"line one\\\n   continued\";\nlet t = 1;\n";
        let stripped = strip_via_lexer(src);
        assert_eq!(stripped.lines().count(), src.lines().count());
        // The contents are spaced but the newline of the `\<newline>`
        // continuation survives, so later lines keep their numbers.
        assert_eq!(stripped.lines().nth(2), Some("let t = 1;"));
        assert_eq!(stripped.lines().nth(1).map(str::trim), Some("\";"));
    }

    #[test]
    fn strip_keeps_code_and_spaces_literals() {
        let src = "let a = \"secret.unwrap()\"; // panic! here\nlet b = r#\"also panic!\"#;\n";
        let s = strip_via_lexer(src);
        assert!(!s.contains("unwrap"));
        assert!(!s.contains("panic"));
        assert!(s.contains("let a = \""));
        assert!(s.contains("let b = "));
    }
}
