//! Pins the token-level lexer: on every source file in the workspace it
//! must be lossless (token texts concatenate back to the input), and on an
//! adversarial corpus `strip_via_lexer` must produce exactly the expected
//! text. The corpus covers the constructs that historically diverged —
//! raw strings at any hash depth, nested block comments, byte literals,
//! string continuations, raw identifiers, and unterminated tokens at EOF.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::lexer;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

#[test]
fn lexer_is_lossless_on_every_workspace_file() {
    let crates = workspace_root().join("crates");
    let mut files = Vec::new();
    rust_sources(&crates, &mut files);
    assert!(
        files.len() >= 30,
        "workspace walk found only {} files — wrong root?",
        files.len()
    );
    for path in &files {
        let src = fs::read_to_string(path).expect("read source");
        let rebuilt: String = lexer::lex(&src).iter().map(|t| t.text).collect();
        assert_eq!(
            rebuilt,
            src,
            "{}: token concatenation does not reproduce the source",
            path.display()
        );
    }
}

#[test]
fn strip_via_lexer_on_adversarial_corpus() {
    // (input, expected `strip_via_lexer` output)
    const CASES: &[(&str, &str)] = &[
        // Raw strings at increasing hash depth, with embedded quotes.
        (
            r####"let a = r"no hashes"; let b = r#"one " hash"#; let c = r###"deep "## quote"###;"####,
            "let a =             ; let b =                ; let c =                        ;",
        ),
        // Byte strings and byte raw strings.
        (
            "let a = b\"bytes \\\" esc\"; let b = br#\"raw bytes\"#;",
            "let a = b\"            \"; let b =                ;",
        ),
        // Nested block comments with code-looking innards.
        (
            "/* outer /* inner \"str\" */ still comment */ let x = 1;",
            "                                            let x = 1;",
        ),
        // A block comment spanning lines around a raw string.
        (
            "/* line one\n r\"not a string\" \n*/ let y = 2;\n",
            "           \n                 \n   let y = 2;\n",
        ),
        // String continuation: backslash-newline inside a literal.
        (
            "let s = \"start \\\n    end\";\nlet t = 1;\n",
            "let s = \"       \n       \";\nlet t = 1;\n",
        ),
        // Lifetimes vs char literals, including labels and b-chars.
        (
            "fn f<'a>(x: &'a u32) { 'outer: loop { break 'outer; } let c = 'q'; let b = b'\\n'; }",
            "fn f<'a>(x: &'a u32) { 'outer: loop { break 'outer; } let c =    ; let b = b    ; }",
        ),
        // Raw identifiers and idents ending in r/b before quotes.
        (
            "let r#type = 1; let bar = \"s\"; let nob = b\"t\";",
            "let r#type = 1; let bar = \" \"; let nob = b\" \";",
        ),
        // Numeric literals with letter radixes next to quotes.
        (
            "let n = 0b1010; let m = 0xfe; let s = \"after\";",
            "let n = 0b1010; let m = 0xfe; let s = \"     \";",
        ),
        // Line comment containing an unbalanced quote.
        (
            "let x = 1; // it's fine \" really\nlet y = 2;",
            "let x = 1;                      \nlet y = 2;",
        ),
        // Unterminated string at EOF.
        ("let s = \"never closed", "let s = \"            "),
        // Unterminated raw string at EOF.
        ("let s = r#\"never closed", "let s =                "),
        // Unterminated block comment at EOF.
        ("let x = 1; /* trailing", "let x = 1;            "),
        // Empty string and adjacent quotes.
        (
            "let e = \"\"; let f = \"\\\"\";",
            "let e = \"\"; let f = \"  \";",
        ),
    ];
    for (i, (case, expected)) in CASES.iter().enumerate() {
        assert_eq!(
            lexer::strip_via_lexer(case),
            *expected,
            "adversarial case {i}: {case:?}"
        );
        let rebuilt: String = lexer::lex(case).iter().map(|t| t.text).collect();
        assert_eq!(rebuilt, *case, "adversarial case {i} is not lossless");
    }
}
