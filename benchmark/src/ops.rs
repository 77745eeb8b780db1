//! The op stream of each workload, from `--seed` alone.
//!
//! The seed drives nothing but these `ecc_workload` streams; the program
//! under test sees the generated inputs only.

use ecc_workload::driver::QueryStream;
use ecc_workload::keys::KeyDist;
use ecc_workload::schedule::{Phase, RateSchedule};

/// Requests per pipelined window on `wire_get_pipelined`.
pub const PIPELINE_WINDOW: usize = 16;
/// Resident keys of the three wire workloads.
pub const WIRE_KEYS: u64 = 20_000;
/// Value size on `wire_get_pipelined`: the smallest message, where
/// per-frame cost dominates.
pub const WIRE_SMALL_VALUE: usize = 64;
/// Value size on the mixed wire workloads and on `live_paper_elastic`.
pub const RECORD_VALUE: usize = 900;
/// Share of PUT-replace requests on the mixed wire workloads.
pub const WIRE_WRITE_RATIO: f64 = 0.3;

/// Key space of `sim_paper_phases`, as in the paper's experiment.
pub const PAPER_KEYS: u64 = 32 * 1024;
/// Key space of `live_paper_elastic`: a quarter of the paper's, because a
/// run of seconds issues a seventh of its queries and should still see
/// reuse.
pub const LIVE_KEYS: u64 = 8 * 1024;
/// Time steps of one `live_paper_elastic` run.
pub const LIVE_STEPS: u64 = 140;
/// Time steps of one `sim_paper_phases` repetition.
pub const SIM_STEPS: u64 = 500;

/// Uniform GETs over the resident keys; the schedule only groups the
/// stream into windows.
pub fn wire_get(seed: u64) -> QueryStream {
    QueryStream::new(
        RateSchedule::constant(PIPELINE_WINDOW as u64),
        KeyDist::uniform(WIRE_KEYS),
        seed,
    )
}

/// 70 % GET / 30 % PUT-replace, zipf(0.99) over the resident keys.
pub fn wire_mixed(seed: u64) -> QueryStream {
    QueryStream::new(
        RateSchedule::constant(1),
        KeyDist::zipf(WIRE_KEYS, 0.99),
        seed,
    )
    .with_write_ratio(WIRE_WRITE_RATIO)
}

/// Queries per step at the low plateau of `live_paper_elastic`.
const LIVE_BASE_RATE: u64 = 25;

/// The paper's 50 → 250 → ramp → 50 shape compressed into
/// [`LIVE_STEPS`] steps at half the per-step volume, so that a serial
/// client keeps up with it at the step lengths a run of seconds allows.
pub fn live_schedule() -> RateSchedule {
    RateSchedule::new(vec![
        Phase::Flat {
            steps: 30,
            rate: LIVE_BASE_RATE,
        },
        Phase::Flat {
            steps: 50,
            rate: 5 * LIVE_BASE_RATE,
        },
        Phase::Ramp {
            steps: 30,
            from: 5 * LIVE_BASE_RATE,
            to: LIVE_BASE_RATE,
        },
        Phase::Flat {
            steps: 30,
            rate: LIVE_BASE_RATE,
        },
    ])
}

/// Uniform queries over [`LIVE_KEYS`] on [`live_schedule`].
pub fn live(seed: u64) -> QueryStream {
    QueryStream::new(live_schedule(), KeyDist::uniform(LIVE_KEYS), seed)
}

/// The paper's eviction experiment: uniform keys on the 50/250/ramp/50
/// schedule.
pub fn sim(seed: u64) -> QueryStream {
    QueryStream::new(
        RateSchedule::paper_eviction_phases(),
        KeyDist::uniform(PAPER_KEYS),
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(stream: &QueryStream, steps: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (step, op, key) in stream.take_steps_ops(steps) {
            bytes.extend_from_slice(&step.to_le_bytes());
            bytes.push(op.tag() as u8);
            bytes.extend_from_slice(&key.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream_and_another_seed_does_not() {
        let check = |make: fn(u64) -> QueryStream, steps: u64| {
            let a = prefix(&make(7), steps);
            assert!(a.len() > 17 * 1_000);
            assert_eq!(a, prefix(&make(7), steps));
            assert_ne!(a, prefix(&make(8), steps));
        };
        check(wire_get, 500);
        check(wire_mixed, 5_000);
        check(live, LIVE_STEPS);
        check(sim, SIM_STEPS);
    }

    #[test]
    fn schedules_have_the_documented_volume() {
        assert_eq!(live_schedule().total_queries(LIVE_STEPS), 10_000);
        assert_eq!(live_schedule().rate_at(0), 25);
        assert_eq!(live_schedule().rate_at(79), 125);
        assert_eq!(live_schedule().rate_at(LIVE_STEPS - 1), 25);
        assert_eq!(sim(0).schedule().total_queries(SIM_STEPS), 75_000);
        let writes = wire_mixed(3)
            .take_steps_ops(10_000)
            .filter(|(_, op, _)| *op == ecc_workload::driver::Op::Write)
            .count();
        assert!((2_800..3_200).contains(&writes), "{writes}");
    }
}
