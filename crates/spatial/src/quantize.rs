//! Quantization of geographic coordinates and timestamps onto integer grids.
//!
//! The shoreline-extraction workload identifies a query by `(L, T)` — a
//! location and a time of interest. Before linearization these continuous
//! inputs are snapped to a regular grid: `bits` bits per spatial axis and a
//! fixed-width slot index for time. The grid is what bounds the paper's key
//! space ("64K possibilities": 8 bits per axis, no time, or any equivalent
//! split).

/// A rectangular geographic region quantized to `2^bits x 2^bits` cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoGrid {
    /// Minimum latitude (degrees, inclusive).
    pub lat_min: f64,
    /// Maximum latitude (degrees, exclusive for cell purposes).
    pub lat_max: f64,
    /// Minimum longitude (degrees, inclusive).
    pub lon_min: f64,
    /// Maximum longitude (degrees, exclusive for cell purposes).
    pub lon_max: f64,
    /// Bits per spatial axis; the grid has `2^bits` cells per side.
    pub bits: u32,
}

impl GeoGrid {
    /// A grid covering the whole globe with `bits` bits per axis.
    pub fn global(bits: u32) -> Self {
        Self::new(-90.0, 90.0, -180.0, 180.0, bits)
    }

    /// A grid over an arbitrary bounding box.
    ///
    /// # Panics
    ///
    /// Panics if the box is empty or `bits` is outside `1..=31`.
    pub fn new(lat_min: f64, lat_max: f64, lon_min: f64, lon_max: f64, bits: u32) -> Self {
        assert!(lat_min < lat_max, "empty latitude range");
        assert!(lon_min < lon_max, "empty longitude range");
        assert!((1..=31).contains(&bits), "bits must be in 1..=31");
        Self {
            lat_min,
            lat_max,
            lon_min,
            lon_max,
            bits,
        }
    }

    /// Cells per side (`2^bits`).
    #[inline]
    pub fn side(&self) -> u32 {
        1 << self.bits
    }

    /// Total number of cells (`4^bits`).
    #[inline]
    pub fn cells(&self) -> u64 {
        1u64 << (2 * self.bits)
    }

    /// Quantize a coordinate pair to cell indices `(ix, iy)`. Out-of-range
    /// inputs are clamped to the boundary cells, matching how a service
    /// front end would treat slightly out-of-box queries.
    pub fn cell(&self, lat: f64, lon: f64) -> (u32, u32) {
        let side = self.side() as f64;
        let fx = ((lon - self.lon_min) / (self.lon_max - self.lon_min) * side).floor();
        let fy = ((lat - self.lat_min) / (self.lat_max - self.lat_min) * side).floor();
        let clamp = |f: f64| -> u32 {
            if f.is_nan() || f < 0.0 {
                0
            } else if f >= side {
                self.side() - 1
            } else {
                f as u32
            }
        };
        (clamp(fx), clamp(fy))
    }

    /// Geographic center of the cell `(ix, iy)`.
    pub fn center(&self, ix: u32, iy: u32) -> (f64, f64) {
        let side = self.side() as f64;
        let lon = self.lon_min + (ix as f64 + 0.5) / side * (self.lon_max - self.lon_min);
        let lat = self.lat_min + (iy as f64 + 0.5) / side * (self.lat_max - self.lat_min);
        (lat, lon)
    }
}

/// Quantization of timestamps into fixed-length slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeGrid {
    /// Epoch (seconds) at which slot 0 begins.
    pub epoch: u64,
    /// Slot length in seconds; `0` disables the time dimension entirely.
    pub slot_secs: u64,
    /// Bits reserved for the slot index; slots wrap modulo `2^bits`.
    pub bits: u32,
}

impl TimeGrid {
    /// A time grid with the given epoch, slot length and index width.
    ///
    /// # Panics
    ///
    /// Panics if `slot_secs == 0` (use [`TimeGrid::disabled`]) or
    /// `bits > 32`.
    pub fn new(epoch: u64, slot_secs: u64, bits: u32) -> Self {
        assert!(slot_secs > 0, "use TimeGrid::disabled() for no time axis");
        assert!((1..=32).contains(&bits), "bits must be in 1..=32");
        Self {
            epoch,
            slot_secs,
            bits,
        }
    }

    /// A degenerate grid that contributes zero bits to the key (purely
    /// spatial workloads, e.g. the paper's 64 K key space).
    pub fn disabled() -> Self {
        Self {
            epoch: 0,
            slot_secs: 0,
            bits: 0,
        }
    }

    /// Whether the time axis participates in keys.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.slot_secs > 0 && self.bits > 0
    }

    /// Slot index for `timestamp` (seconds). Times before the epoch land in
    /// slot 0; the index wraps modulo `2^bits`.
    pub fn slot(&self, timestamp: u64) -> u32 {
        if !self.is_enabled() {
            return 0;
        }
        let rel = timestamp.saturating_sub(self.epoch) / self.slot_secs;
        (rel & ((1u64 << self.bits) - 1)) as u32
    }

    /// Start timestamp of a slot (seconds).
    pub fn slot_start(&self, slot: u32) -> u64 {
        if !self.is_enabled() {
            return self.epoch;
        }
        self.epoch + slot as u64 * self.slot_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_grid_corners() {
        let g = GeoGrid::global(8);
        assert_eq!(g.cell(-90.0, -180.0), (0, 0));
        assert_eq!(g.cell(89.999, 179.999), (255, 255));
        assert_eq!(g.cells(), 65536);
    }

    #[test]
    fn out_of_range_inputs_clamp() {
        let g = GeoGrid::global(4);
        assert_eq!(g.cell(-1000.0, -1000.0), (0, 0));
        assert_eq!(g.cell(1000.0, 1000.0), (15, 15));
        assert_eq!(g.cell(f64::NAN, 0.0).1, 0);
    }

    #[test]
    fn center_roundtrips_through_cell() {
        let g = GeoGrid::new(40.0, 50.0, -130.0, -110.0, 10);
        for &(lat, lon) in &[(45.5, -122.6), (40.0, -130.0), (49.99, -110.01)] {
            let (ix, iy) = g.cell(lat, lon);
            let (clat, clon) = g.center(ix, iy);
            assert_eq!(g.cell(clat, clon), (ix, iy));
        }
    }

    #[test]
    fn cell_width_bounds_quantization_error() {
        let g = GeoGrid::global(8);
        let (ix, iy) = g.cell(12.34, 56.78);
        let (clat, clon) = g.center(ix, iy);
        assert!((clat - 12.34).abs() <= 180.0 / 256.0);
        assert!((clon - 56.78).abs() <= 360.0 / 256.0);
    }

    #[test]
    fn time_slots_quantize_and_wrap() {
        let t = TimeGrid::new(1000, 3600, 4);
        assert_eq!(t.slot(999), 0); // pre-epoch clamps
        assert_eq!(t.slot(1000), 0);
        assert_eq!(t.slot(1000 + 3599), 0);
        assert_eq!(t.slot(1000 + 3600), 1);
        assert_eq!(t.slot(1000 + 16 * 3600), 0); // wraps at 2^4
        assert_eq!(t.slot_start(3), 1000 + 3 * 3600);
    }

    #[test]
    fn disabled_time_grid_contributes_nothing() {
        let t = TimeGrid::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.slot(u64::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "empty latitude range")]
    fn empty_box_panics() {
        GeoGrid::new(10.0, 10.0, 0.0, 1.0, 4);
    }
}
