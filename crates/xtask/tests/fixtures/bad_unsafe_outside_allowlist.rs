//! Seeded bug: a file that is not on `xtask::UNSAFE_ALLOWLIST` lifts its
//! crate's `deny(unsafe_code)` and dereferences a raw pointer. The lifted
//! lint, the `unsafe fn`, the block and the `unsafe impl` are each flagged
//! at their own line — in the test module too.

#![allow(unsafe_code)]

pub unsafe fn first_byte(p: *const u8) -> u8 {
    *p
}

pub fn peek(buf: &[u8]) -> u8 {
    unsafe { first_byte(buf.as_ptr()) }
}

struct Handle(*mut u8);
unsafe impl Send for Handle {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x = 7u8;
        assert_eq!(unsafe { super::first_byte(&x) }, 7);
    }
}
