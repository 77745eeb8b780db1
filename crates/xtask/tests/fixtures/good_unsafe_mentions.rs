//! Blessed: a file off the allowlist that only *talks* about unsafe code.
//! The crate-root `deny(unsafe_code)`, the word in comments and strings,
//! and identifiers that merely contain it are not the keyword.

#![deny(unsafe_code)]

/// Says why this module needs no `unsafe { .. }` block.
pub fn why() -> &'static str {
    let unsafe_count = 0; // no unsafe here
    let is_unsafe_free = unsafe_count == 0;
    if is_unsafe_free {
        "no unsafe: the foreign call lives in sys.rs, #![allow(unsafe_code)] and all"
    } else {
        r#"unsafe"#
    }
}
