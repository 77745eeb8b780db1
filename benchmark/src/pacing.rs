//! Open-loop pacing: requests are due on a schedule fixed before the run,
//! whatever the system under test does.
//!
//! Latency is timed from the *due* time, so the wait a stall imposes on
//! later requests is counted, and how late the generator itself ran is
//! reported beside it.

use std::time::{Duration, Instant};

/// The clock a [`Pacer`] runs against; tests substitute a scripted one.
pub trait Clock {
    /// Nanoseconds since the clock's epoch.
    fn now_ns(&self) -> u64;
    /// Give up the processor until roughly `until_ns` (may return early
    /// or late).
    fn idle_until(&self, until_ns: u64);
}

/// Monotonic wall clock.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose epoch is now.
    pub fn start() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn idle_until(&self, until_ns: u64) {
        let now = self.now_ns();
        if until_ns > now {
            std::thread::sleep(Duration::from_nanos(until_ns - now));
        }
    }
}

/// The pacer stops sleeping this long before a due time and spins the
/// rest, so a late timer wake-up does not become generator lateness while
/// the generator still gives up its core between sparse arrivals.
const SPIN_NS: u64 = 120_000;

/// Holds back each request until it is due and accounts for lateness.
#[derive(Debug)]
pub struct Pacer<C: Clock> {
    clock: C,
    late_us: Vec<f64>,
}

impl<C: Clock> Pacer<C> {
    /// A pacer over `clock`.
    pub fn new(clock: C) -> Self {
        Self {
            clock,
            late_us: Vec::new(),
        }
    }

    /// The clock in use.
    pub fn clock(&self) -> &C {
        &self.clock
    }

    /// How late each request was released, µs, in release order (0 for a
    /// request released on time).
    pub fn lateness_us(&self) -> &[f64] {
        &self.late_us
    }

    /// Block until `due_ns`, then return the release time. A request whose
    /// due time has already passed is released at once and counted late.
    pub fn wait_until(&mut self, due_ns: u64) -> u64 {
        let mut now = self.clock.now_ns();
        if now + SPIN_NS < due_ns {
            self.clock.idle_until(due_ns - SPIN_NS);
            now = self.clock.now_ns();
        }
        while now < due_ns {
            std::hint::spin_loop();
            now = self.clock.now_ns();
        }
        self.late_us.push((now - due_ns) as f64 / 1e3);
        now
    }
}

/// Due time of request `i` of a constant-rate schedule starting at
/// `start_ns`.
pub fn due_at_rate(start_ns: u64, i: u64, per_second: u64) -> u64 {
    start_ns + (i as u128 * 1_000_000_000 / per_second as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that advances `tick` per read and jumps on idle, plus a
    /// one-off stall injected at a chosen time.
    struct FakeClock {
        now: Cell<u64>,
        tick: u64,
        idle_overshoot: u64,
        idles: Cell<u32>,
    }

    impl Clock for &FakeClock {
        fn now_ns(&self) -> u64 {
            let t = self.now.get();
            self.now.set(t + self.tick);
            t
        }
        fn idle_until(&self, until_ns: u64) {
            self.idles.set(self.idles.get() + 1);
            self.now.set(until_ns + self.idle_overshoot);
        }
    }

    #[test]
    fn on_time_requests_are_released_at_their_due_time() {
        let clock = FakeClock {
            now: Cell::new(0),
            tick: 10,
            idle_overshoot: 0,
            idles: Cell::new(0),
        };
        let mut p = Pacer::new(&clock);
        let released = p.wait_until(1_000_000);
        assert_eq!(released, 1_000_000);
        assert_eq!(p.lateness_us(), [0.0]);
        // Far-off due time: slept once, then spun the last stretch.
        assert_eq!(clock.idles.get(), 1);
        // Near due time: spins only.
        p.wait_until(1_050_000);
        assert_eq!(clock.idles.get(), 1);
    }

    #[test]
    fn lateness_is_counted_from_the_due_time() {
        let clock = FakeClock {
            now: Cell::new(5_000),
            tick: 0,
            idle_overshoot: 0,
            idles: Cell::new(0),
        };
        let mut p = Pacer::new(&clock);
        // Already 4 µs past due: released at once, late by 4 µs.
        assert_eq!(p.wait_until(1_000), 5_000);
        // The system stalls: the next three requests back up behind it.
        clock.now.set(10_000);
        for due in [6_000, 7_000, 8_000] {
            p.wait_until(due);
        }
        assert_eq!(p.lateness_us(), [4.0, 4.0, 3.0, 2.0]);
    }

    #[test]
    fn a_late_timer_wakeup_shows_up_as_lateness() {
        let clock = FakeClock {
            now: Cell::new(0),
            tick: 1,
            idle_overshoot: SPIN_NS + 700,
            idles: Cell::new(0),
        };
        let mut p = Pacer::new(&clock);
        let released = p.wait_until(10_000_000);
        assert_eq!(released, 10_000_700);
        assert_eq!(p.lateness_us(), [0.7]);
    }

    #[test]
    fn constant_rate_schedule_has_no_drift() {
        assert_eq!(due_at_rate(100, 0, 2_000), 100);
        assert_eq!(due_at_rate(100, 1, 2_000), 500_100);
        assert_eq!(due_at_rate(0, 3, 3), 1_000_000_000);
        assert_eq!(due_at_rate(0, 15_000 * 3600, 15_000), 3_600_000_000_000);
    }
}
