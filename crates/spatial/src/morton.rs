//! The Z-order (Morton) space-filling curve in two dimensions.
//!
//! A Morton code interleaves the bits of the coordinate components so that
//! points close in space tend to be close on the resulting one-dimensional
//! line. Encoding and decoding are pure bit permutations, implemented with
//! the classic parallel-prefix "bit spreading" tricks, so both directions
//! are O(1) with small constants.

/// Spread the low 32 bits of `x` so that each input bit lands in every
/// second output bit position (`abcd` → `0a0b0c0d`).
#[inline]
pub fn spread2(x: u32) -> u64 {
    let mut x = x as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`spread2`]: collect every second bit back into a compact u32.
#[inline]
pub fn compact2(x: u64) -> u32 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x as u32
}

/// Morton-encode a 2-D point. Accepts full 32-bit coordinates and yields a
/// 64-bit code with `x` in the even bit positions and `y` in the odd ones.
#[inline]
pub fn encode2(x: u32, y: u32) -> u64 {
    spread2(x) | (spread2(y) << 1)
}

/// Decode a 2-D Morton code back to its `(x, y)` coordinates.
#[inline]
pub fn decode2(code: u64) -> (u32, u32) {
    (compact2(code), compact2(code >> 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode2_known_values() {
        // Interleaving 0b11, 0b00 -> 0b0101; 0b00, 0b11 -> 0b1010.
        assert_eq!(encode2(0b11, 0b00), 0b0101);
        assert_eq!(encode2(0b00, 0b11), 0b1010);
        assert_eq!(encode2(0, 0), 0);
        assert_eq!(encode2(1, 1), 0b11);
        assert_eq!(encode2(u32::MAX, u32::MAX), u64::MAX);
    }

    #[test]
    fn encode2_is_monotone_along_axes_within_quadrant() {
        // Within one "row" of 2 cells the codes are ordered.
        assert!(encode2(0, 0) < encode2(1, 0));
        assert!(encode2(1, 0) < encode2(0, 1));
        assert!(encode2(0, 1) < encode2(1, 1));
    }

    #[test]
    fn decode2_roundtrip_exhaustive_small() {
        for x in 0..64u32 {
            for y in 0..64u32 {
                assert_eq!(decode2(encode2(x, y)), (x, y));
            }
        }
    }

    #[test]
    fn decode2_roundtrip_extremes() {
        for &v in &[0u32, 1, 2, u32::MAX, u32::MAX - 1, 0x8000_0000] {
            assert_eq!(decode2(encode2(v, 0)), (v, 0));
            assert_eq!(decode2(encode2(0, v)), (0, v));
            assert_eq!(decode2(encode2(v, v)), (v, v));
        }
    }

    #[test]
    fn spread_compact_are_inverses() {
        for &v in &[0u32, 1, 0xFFFF, 0xDEAD_BEEF, u32::MAX] {
            assert_eq!(compact2(spread2(v)), v);
        }
    }

    #[test]
    fn codes_are_unique_in_quadrant() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for x in 0..32u32 {
            for y in 0..32u32 {
                assert!(seen.insert(encode2(x, y)), "duplicate code at ({x},{y})");
            }
        }
        assert_eq!(seen.len(), 1024);
    }
}
