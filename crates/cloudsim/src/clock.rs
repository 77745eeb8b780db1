//! The virtual clock.

use crate::US_PER_SEC;

/// A monotonically advancing virtual clock in microseconds.
///
/// The clock only moves when a component explicitly charges time against it
/// (`advance_*`), which makes experiments deterministic and lets a
/// laptop-scale run cover weeks of simulated EC2 time. It has one owner,
/// which is why it is not `Clone`: a simulated cache holds its clock, and
/// every other component (the cloud's instance table and billing, the
/// overflow tier, the elasticity engine's event stamps) is handed the time
/// as a value.
#[derive(Debug, Default)]
pub struct SimClock(u64);

impl SimClock {
    /// A fresh clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in microseconds.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.0
    }

    /// Current virtual time in (fractional) seconds.
    #[inline]
    pub fn now_secs(&self) -> f64 {
        self.0 as f64 / US_PER_SEC as f64
    }

    /// Advance by `us` microseconds, returning the new time.
    #[inline]
    pub fn advance_us(&mut self, us: u64) -> u64 {
        self.0 += us;
        self.0
    }

    /// Advance by (fractional, non-negative) seconds.
    pub fn advance_secs(&mut self, secs: f64) -> u64 {
        assert!(secs >= 0.0 && secs.is_finite(), "cannot rewind the clock");
        self.advance_us((secs * US_PER_SEC as f64).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let mut c = SimClock::new();
        assert_eq!(c.now_us(), 0);
        assert_eq!(c.advance_us(5), 5);
        assert_eq!(c.now_us(), 5);
        c.advance_secs(1.5);
        assert_eq!(c.now_us(), 5 + 1_500_000);
        assert!((c.now_secs() - 1.500005).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "rewind")]
    fn negative_seconds_rejected() {
        SimClock::new().advance_secs(-1.0);
    }
}
