//! The query stream: schedule × distribution → `(time_step, key)` pairs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::keys::KeyDist;
use crate::schedule::RateSchedule;

/// What one workload event does to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// Read the key (GET; a miss may populate on the query path).
    Read,
    /// Write the key (PUT — an unconditional overwrite).
    Write,
}

impl Op {
    /// Stable one-character tag (`r`/`w`), for byte fingerprints of a
    /// stream.
    pub fn tag(self) -> char {
        match self {
            Op::Read => 'r',
            Op::Write => 'w',
        }
    }
}

/// A deterministic stream of queries following a rate schedule.
///
/// Iteration yields `(time_step, key)` pairs: at each 0-based time step the
/// stream emits `schedule.rate_at(step)` keys drawn from the distribution.
/// The harness detects step boundaries by watching the first element — that
/// is when it calls the cache's `end_time_slice()`.
///
/// The read/write axis: [`QueryStream::with_write_ratio`] makes a fraction
/// of events writes, surfaced by the `(step, op, key)` iterator behind
/// [`QueryStream::take_steps_ops`]. With the default ratio of zero the op
/// draw is skipped entirely, so `take_steps` streams stay byte-identical
/// with pre-ratio builds.
#[derive(Debug, Clone)]
pub struct QueryStream {
    schedule: RateSchedule,
    dist: KeyDist,
    seed: u64,
    write_ratio: f64,
}

impl QueryStream {
    /// Build a stream from a schedule, a key distribution and an RNG seed.
    pub fn new(schedule: RateSchedule, dist: KeyDist, seed: u64) -> Self {
        Self {
            schedule,
            dist,
            seed,
            write_ratio: 0.0,
        }
    }

    /// Make `ratio` of the stream's events writes (PUTs).
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `[0, 1]`.
    pub fn with_write_ratio(mut self, ratio: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&ratio) && ratio.is_finite(),
            "write ratio out of range"
        );
        self.write_ratio = ratio;
        self
    }

    /// The schedule in use.
    pub fn schedule(&self) -> &RateSchedule {
        &self.schedule
    }

    /// The key distribution in use.
    pub fn dist(&self) -> &KeyDist {
        &self.dist
    }

    /// The configured write fraction.
    pub fn write_ratio(&self) -> f64 {
        self.write_ratio
    }

    /// The RNG seed the stream replays from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Iterate over the queries of the first `steps` time steps as
    /// `(step, key)` pairs (ops dropped; writes and reads look alike).
    pub fn take_steps(&self, steps: u64) -> impl Iterator<Item = (u64, u64)> {
        self.take_steps_ops(steps).map(|(s, _, k)| (s, k))
    }

    /// Iterate over the first `steps` time steps as `(step, op, key)`
    /// triples — the full zoo surface (read/write mix, step-aware
    /// distributions).
    pub fn take_steps_ops(&self, steps: u64) -> OpIter {
        OpIter {
            rng: SmallRng::seed_from_u64(self.seed),
            schedule: self.schedule.clone(),
            dist: self.dist.clone(),
            write_ratio: self.write_ratio,
            step: 0,
            within: 0,
            steps,
        }
    }

    /// Iterate until approximately `total` queries have been produced
    /// (finishes the step in progress).
    pub fn take_queries(&self, total: u64) -> impl Iterator<Item = (u64, u64)> {
        self.take_steps(self.steps_for(total))
    }

    /// Steps needed to cover `total` queries under this schedule.
    pub fn steps_for(&self, total: u64) -> u64 {
        let mut acc = 0u64;
        let mut steps = 0u64;
        while acc < total {
            acc += self.schedule.rate_at(steps).max(1);
            steps += 1;
            if steps > 100_000_000 {
                break; // zero-rate schedule guard
            }
        }
        steps
    }
}

/// Iterator state for [`QueryStream::take_steps_ops`].
#[derive(Debug)]
pub struct OpIter {
    rng: SmallRng,
    schedule: RateSchedule,
    dist: KeyDist,
    write_ratio: f64,
    step: u64,
    within: u64,
    steps: u64,
}

impl Iterator for OpIter {
    type Item = (u64, Op, u64);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.step >= self.steps {
                return None;
            }
            let rate = self.schedule.rate_at(self.step);
            if self.within < rate {
                self.within += 1;
                // The zero-ratio fast path draws no op coin, keeping the
                // byte stream identical to pre-ratio builds per seed.
                let op = if self.write_ratio > 0.0 && self.rng.gen::<f64>() < self.write_ratio {
                    Op::Write
                } else {
                    Op::Read
                };
                let key = self.dist.sample_at(&mut self.rng, self.step);
                return Some((self.step, op, key));
            }
            self.step += 1;
            self.within = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_rate_queries_per_step() {
        let s = QueryStream::new(RateSchedule::constant(3), KeyDist::uniform(10), 0);
        let q: Vec<(u64, u64)> = s.take_steps(4).collect();
        assert_eq!(q.len(), 12);
        let steps: Vec<u64> = q.iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn paper_schedule_produces_phase_counts() {
        let s = QueryStream::new(
            RateSchedule::paper_eviction_phases(),
            KeyDist::uniform(32 * 1024),
            1,
        );
        let per_step = |step: u64| s.take_steps(500).filter(move |(s, _)| *s == step).count();
        assert_eq!(per_step(0), 50);
        assert_eq!(per_step(150), 250);
        assert_eq!(per_step(450), 50);
    }

    #[test]
    fn streams_are_reproducible() {
        let s = QueryStream::new(RateSchedule::constant(5), KeyDist::uniform(100), 99);
        let a: Vec<_> = s.take_steps(20).collect();
        let b: Vec<_> = s.take_steps(20).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = QueryStream::new(RateSchedule::constant(5), KeyDist::uniform(1000), 1)
            .take_steps(10)
            .collect();
        let b: Vec<_> = QueryStream::new(RateSchedule::constant(5), KeyDist::uniform(1000), 2)
            .take_steps(10)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn take_queries_covers_at_least_the_request() {
        let s = QueryStream::new(RateSchedule::constant(7), KeyDist::uniform(10), 3);
        let n = s.take_queries(100).count() as u64;
        assert!(n >= 100);
        assert!(n < 100 + 7);
    }

    #[test]
    fn keys_stay_in_space() {
        let s = QueryStream::new(
            RateSchedule::paper_eviction_phases(),
            KeyDist::uniform(64),
            5,
        );
        assert!(s.take_steps(50).all(|(_, k)| k < 64));
    }

    #[test]
    fn zero_ratio_stream_is_all_reads_and_matches_pairs() {
        let s = QueryStream::new(RateSchedule::constant(4), KeyDist::uniform(64), 11);
        let ops: Vec<_> = s.take_steps_ops(10).collect();
        assert!(ops.iter().all(|(_, op, _)| *op == Op::Read));
        let pairs: Vec<(u64, u64)> = s.take_steps(10).collect();
        let from_ops: Vec<(u64, u64)> = ops.iter().map(|&(s, _, k)| (s, k)).collect();
        assert_eq!(pairs, from_ops);
    }

    #[test]
    fn write_ratio_is_honoured() {
        let s = QueryStream::new(RateSchedule::constant(100), KeyDist::uniform(1 << 10), 13)
            .with_write_ratio(0.3);
        let ops: Vec<_> = s.take_steps_ops(200).collect();
        let writes = ops.iter().filter(|(_, op, _)| *op == Op::Write).count();
        let frac = writes as f64 / ops.len() as f64;
        assert!((frac - 0.3).abs() < 0.02, "write fraction {frac}");
        // Deterministic per seed.
        let again: Vec<_> = s.take_steps_ops(200).collect();
        assert_eq!(ops, again);
    }

    #[test]
    fn shifting_hotspot_flows_through_the_stream() {
        let dist = KeyDist::shifting_hotspot(1 << 16, 64, 1.0, 10);
        let s = QueryStream::new(RateSchedule::constant(20), KeyDist::clone(&dist), 17);
        for (step, key) in s.take_steps(30) {
            let window = step / 10;
            let lo = window * 64;
            assert!(
                key >= lo && key < lo + 64,
                "step {step} drew {key}, expected [{lo}, {})",
                lo + 64
            );
        }
    }
}
