//! The composed spatiotemporal linearizer (the "B²-Tree front end").
//!
//! A [`Linearizer`] turns a `(latitude, longitude, timestamp)` query into a
//! single `u64` key and back: `key = slot << (2*bits) | morton(x, y)`. Keys
//! from the same time slot are contiguous; this is the layout described
//! for B²-Trees, where a time-ordered sequence of spatial curves is
//! concatenated along the key line.

use serde::{Deserialize, Serialize};

use crate::morton;
use crate::quantize::{GeoGrid, TimeGrid};

/// Which space-filling curve linearizes the spatial grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Curve {
    /// Z-order curve: cheapest to compute, good locality.
    Morton,
}

/// How the time slot and the spatial curve index combine into one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheme {
    /// Slot index in the high bits (B²-Tree layout).
    TimeMajor,
}

/// Converts spatiotemporal queries to one-dimensional cache keys.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Linearizer {
    geo: GeoGrid,
    time: TimeGrid,
}

impl Linearizer {
    /// Build a linearizer from a spatial grid, a time grid, a curve and a
    /// combination scheme (each enum names the one layout there is).
    ///
    /// # Panics
    ///
    /// Panics if the combined key would exceed 64 bits.
    pub fn new(geo: GeoGrid, time: TimeGrid, curve: Curve, scheme: Scheme) -> Self {
        let (Curve::Morton, Scheme::TimeMajor) = (curve, scheme);
        let total = 2 * geo.bits + time.bits;
        assert!(total <= 64, "key would need {total} bits (> 64)");
        Self { geo, time }
    }

    /// The total number of distinct keys this linearizer can produce.
    pub fn key_space(&self) -> u64 {
        let bits = 2 * self.geo.bits + self.time.bits;
        if bits >= 64 {
            u64::MAX
        } else {
            1u64 << bits
        }
    }

    /// The spatial grid in use.
    pub fn geo(&self) -> &GeoGrid {
        &self.geo
    }

    /// The time grid in use.
    pub fn time(&self) -> &TimeGrid {
        &self.time
    }

    /// Linearize a query to its cache key.
    pub fn key(&self, lat: f64, lon: f64, timestamp: u64) -> u64 {
        let (ix, iy) = self.geo.cell(lat, lon);
        self.key_for_cell(ix, iy, self.time.slot(timestamp))
    }

    /// Linearize an already-quantized cell and slot.
    pub fn key_for_cell(&self, ix: u32, iy: u32, slot: u32) -> u64 {
        // Mask to the grid's bit width so the code stays compact.
        let mask = self.geo.side() - 1;
        let spatial = morton::encode2(ix & mask, iy & mask);
        ((slot as u64) << (2 * self.geo.bits)) | spatial
    }

    /// Invert a key to its grid cell and slot.
    pub fn cell_of(&self, key: u64) -> (u32, u32, u32) {
        let mask = (1u64 << (2 * self.geo.bits)) - 1;
        let (ix, iy) = morton::decode2(key & mask);
        (ix, iy, (key >> (2 * self.geo.bits)) as u32)
    }

    /// Invert a key to the geographic center of its cell and the start of
    /// its time slot.
    pub fn cell_center(&self, key: u64) -> (f64, f64, u64) {
        let (ix, iy, slot) = self.cell_of(key);
        let (lat, lon) = self.geo.center(ix, iy);
        (lat, lon, self.time.slot_start(slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lin() -> Linearizer {
        Linearizer::new(
            GeoGrid::global(8),
            TimeGrid::new(0, 3600, 8),
            Curve::Morton,
            Scheme::TimeMajor,
        )
    }

    #[test]
    fn key_space_counts_bits() {
        assert_eq!(lin().key_space(), 1 << 24);
        let spatial_only = Linearizer::new(
            GeoGrid::global(8),
            TimeGrid::disabled(),
            Curve::Morton,
            Scheme::TimeMajor,
        );
        assert_eq!(spatial_only.key_space(), 1 << 16);
    }

    #[test]
    fn keys_roundtrip_to_cells() {
        let l = lin();
        for &(ix, iy, slot) in &[(0u32, 0u32, 0u32), (255, 255, 255), (17, 200, 99)] {
            let key = l.key_for_cell(ix, iy, slot);
            assert_eq!(l.cell_of(key), (ix, iy, slot));
        }
    }

    #[test]
    fn time_major_groups_by_slot() {
        let l = lin();
        let early = l.key_for_cell(255, 255, 0);
        let late = l.key_for_cell(0, 0, 1);
        assert!(early < late, "all slot-0 keys precede slot-1 keys");
    }

    #[test]
    fn keys_stay_within_key_space() {
        let l = lin();
        let k = l.key(90.0, 180.0, u64::MAX);
        assert!(k < l.key_space());
    }

    #[test]
    fn nearby_points_share_prefix_behaviour() {
        // Two points in the same cell must produce the same key.
        let l = lin();
        let k1 = l.key(10.0001, 20.0001, 500);
        let k2 = l.key(10.0002, 20.0002, 500);
        assert_eq!(k1, k2);
    }

    #[test]
    #[should_panic(expected = "> 64")]
    fn oversized_key_panics() {
        Linearizer::new(
            GeoGrid::global(31),
            TimeGrid::new(0, 60, 32),
            Curve::Morton,
            Scheme::TimeMajor,
        );
    }
}
