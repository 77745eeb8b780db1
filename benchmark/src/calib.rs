//! A fixed unit of CPU work, timed beside every segment of a run.
//!
//! The reference host is a two-vCPU cloud VM whose effective core speed
//! changes by up to 1.8x for seconds to minutes at a time (turbo budget and
//! neighbours): unchanged code then measures 480 k or 800 k simulated
//! queries/s depending on when it runs. The kernel below is frozen code
//! that touches nothing in the repository, so the time it takes says how
//! fast the host is running *now*; dividing that out of a CPU-bound
//! timing leaves what the code under test costs. A metric that waits on
//! timers instead of the CPU is left as measured.

use crate::pacing::Clock;
use crate::payload;

/// Payloads filled and checked per kernel run (~0.25 ms of L1-resident
/// loads, stores and integer arithmetic).
const ROUNDS: u64 = 1_000;
/// Kernel time on the reference host at its base clock, ns. Only the
/// ratio to it matters; it fixes the scale of compensated metrics.
pub const REFERENCE_NS: f64 = 230_000.0;

/// Run the kernel once and return how long it took, ns.
pub fn kernel_ns(clock: &impl Clock) -> u64 {
    let start = clock.now_ns();
    let mut buf = Vec::with_capacity(1024);
    let mut ok = 0u64;
    for i in 0..ROUNDS {
        payload::fill(i, 1, 1024, &mut buf);
        ok += u64::from(payload::check(i, 1, 1024, std::hint::black_box(&buf)));
    }
    std::hint::black_box(ok);
    clock.now_ns() - start
}

/// Host speed relative to the reference while a kernel run took
/// `kernel_ns`: above 1 when the host is faster.
pub fn speed(kernel_ns: f64) -> f64 {
    REFERENCE_NS / kernel_ns.max(1.0)
}

/// `value` of a metric where lower is better (a latency), as it would
/// read on the reference host: scaled by `speed^share`, where `share` is
/// the part of the metric that follows core speed.
pub fn compensate_time(value: f64, speed: f64, share: f64) -> f64 {
    value * speed.powf(share)
}

/// `value` of a rate, as it would read on the reference host.
pub fn compensate_rate(value: f64, speed: f64, share: f64) -> f64 {
    value / speed.powf(share)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pacing::WallClock;

    #[test]
    fn kernel_takes_measurable_time() {
        let clock = WallClock::start();
        let ns = kernel_ns(&clock);
        assert!(ns > 10_000, "{ns}");
    }

    #[test]
    fn a_faster_host_reads_as_the_reference_after_compensation() {
        // Host running twice as fast as the reference: kernel in half the
        // time, a fully core-bound latency halves, a rate doubles.
        let s = speed(REFERENCE_NS / 2.0);
        assert!((s - 2.0).abs() < 1e-9);
        assert!((compensate_time(50.0, s, 1.0) - 100.0).abs() < 1e-9);
        assert!((compensate_rate(2_000.0, s, 1.0) - 1_000.0).abs() < 1e-9);
        // A timer-bound metric (share 0) is left alone.
        assert_eq!(compensate_time(540.0, s, 0.0), 540.0);
        // Half core-bound: scaled by sqrt(2).
        assert!((compensate_time(100.0, s, 0.5) - 141.421_356).abs() < 1e-3);
    }
}
