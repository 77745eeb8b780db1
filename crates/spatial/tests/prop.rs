//! Property-based tests for the spatial linearization stack.

use ecc_spatial::morton;
use ecc_spatial::{Curve, GeoGrid, Linearizer, Scheme, TimeGrid};
use proptest::prelude::*;

proptest! {
    #[test]
    fn morton2_roundtrip(x: u32, y: u32) {
        let code = morton::encode2(x, y);
        prop_assert_eq!(morton::decode2(code), (x, y));
    }

    #[test]
    fn morton2_is_injective(a: (u32, u32), b: (u32, u32)) {
        prop_assume!(a != b);
        prop_assert_ne!(morton::encode2(a.0, a.1), morton::encode2(b.0, b.1));
    }

    #[test]
    fn linearizer_key_within_space(
        bits in 2u32..=12,
        tbits in 0u32..=8,
        lat in -90.0f64..90.0,
        lon in -180.0f64..180.0,
        ts: u64,
    ) {
        let time = if tbits == 0 { TimeGrid::disabled() } else { TimeGrid::new(0, 60, tbits) };
        let l = Linearizer::new(GeoGrid::global(bits), time, Curve::Morton, Scheme::TimeMajor);
        prop_assert!(l.key(lat, lon, ts) < l.key_space());
    }

    #[test]
    fn linearizer_cell_roundtrip(
        bits in 2u32..=12,
        raw_ix: u32,
        raw_iy: u32,
        raw_slot: u32,
    ) {
        let mask = (1u32 << bits) - 1;
        let (ix, iy) = (raw_ix & mask, raw_iy & mask);
        let slot = raw_slot & 0xFF;
        let l = Linearizer::new(
            GeoGrid::global(bits),
            TimeGrid::new(0, 60, 8),
            Curve::Morton,
            Scheme::TimeMajor,
        );
        let key = l.key_for_cell(ix, iy, slot);
        prop_assert_eq!(l.cell_of(key), (ix, iy, slot));
    }

    #[test]
    fn quantize_center_is_stable(
        bits in 1u32..=16,
        lat in -89.999f64..89.999,
        lon in -179.999f64..179.999,
    ) {
        let g = GeoGrid::global(bits);
        let (ix, iy) = g.cell(lat, lon);
        let (clat, clon) = g.center(ix, iy);
        prop_assert_eq!(g.cell(clat, clon), (ix, iy));
    }

    #[test]
    fn time_slot_is_monotone_within_period(epoch in 0u64..1_000_000, a: u32, b: u32) {
        let t = TimeGrid::new(epoch, 3600, 32);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let s_lo = t.slot(epoch + lo as u64);
        let s_hi = t.slot(epoch + hi as u64);
        prop_assert!(s_lo <= s_hi);
    }
}
