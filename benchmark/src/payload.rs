//! Synthetic record payloads: `f(key, version)` bytes.
//!
//! Deriving a real shoreline costs ~0.4 ms per key, so the measured paths
//! store bytes that are cheap to make and cheap to check instead; every
//! word depends on both key and version, so a hit that returns another
//! key's record, a stale version or a torn value fails the check.

fn mix(key: u64, version: u32) -> u64 {
    let mut h = key
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(version).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    h ^= h >> 32;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 29)
}

/// Byte `i / 8` of the payload is word `seed + i/8 * STEP`, little endian.
const STEP: u64 = 0x2545_F491_4F6C_DD1D;

/// Overwrite `out` with the `len`-byte payload of `(key, version)`.
pub fn fill(key: u64, version: u32, len: usize, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(len);
    let mut word = mix(key, version);
    while out.len() + 8 <= len {
        out.extend_from_slice(&word.to_le_bytes());
        word = word.wrapping_add(STEP);
    }
    let rest = len - out.len();
    out.extend_from_slice(&word.to_le_bytes()[..rest]);
}

/// The `len`-byte payload of `(key, version)`.
pub fn make(key: u64, version: u32, len: usize) -> Vec<u8> {
    let mut out = Vec::new();
    fill(key, version, len, &mut out);
    out
}

/// Whether `bytes` is exactly the `len`-byte payload of `(key, version)`.
pub fn check(key: u64, version: u32, len: usize, bytes: &[u8]) -> bool {
    if bytes.len() != len {
        return false;
    }
    let mut word = mix(key, version);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        if chunk != word.to_le_bytes() {
            return false;
        }
        word = word.wrapping_add(STEP);
    }
    let rest = chunks.remainder();
    rest == &word.to_le_bytes()[..rest.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips_at_odd_lengths() {
        for len in [0, 1, 7, 8, 9, 64, 900, 1024] {
            let p = make(42, 3, len);
            assert_eq!(p.len(), len);
            assert!(check(42, 3, len, &p), "len {len}");
        }
    }

    #[test]
    fn wrong_key_version_or_byte_is_caught() {
        let p = make(42, 3, 900);
        assert!(!check(43, 3, 900, &p));
        assert!(!check(42, 4, 900, &p));
        let mut torn = p.clone();
        torn[899] ^= 1;
        assert!(!check(42, 3, 900, &torn));
        let mut torn = p.clone();
        torn[100] ^= 0x80;
        assert!(!check(42, 3, 900, &torn));
        assert!(!check(42, 3, 900, &p[..100]));
        assert!(check(42, 3, 100, &p[..100]));
    }
}
