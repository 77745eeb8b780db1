//! Property tests for the key distributions and the query streams: Zipf's
//! CDF must be a true probability law, the empirical rank frequencies must
//! track the analytic form across skews, hotspot hit fractions must honour
//! `hot_prob`, and same-seed streams must be identical.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use ecc_workload::driver::QueryStream;
use ecc_workload::keys::KeyDist;
use ecc_workload::scenario::Scenario;
use ecc_workload::schedule::RateSchedule;

/// The analytic Zipf pmf: P(rank i) = (1/i^s) / H(space, s), ranks 1-based.
fn zipf_pmf(space: u64, s: f64) -> Vec<f64> {
    let h: f64 = (1..=space).map(|i| 1.0 / (i as f64).powf(s)).sum();
    (1..=space).map(|i| 1.0 / (i as f64).powf(s) / h).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn zipf_cdf_is_monotone_and_sums_to_one(
        space in 1u64..4000,
        s_milli in 0u64..3000,
    ) {
        let s = s_milli as f64 / 1000.0;
        let d = KeyDist::zipf(space, s);
        let KeyDist::Zipf { cdf, .. } = &d else {
            panic!("zipf constructor built a non-Zipf dist");
        };
        prop_assert_eq!(cdf.len() as u64, space);
        prop_assert!(
            cdf.windows(2).all(|w| w[0] <= w[1]),
            "CDF not monotone at s={s}"
        );
        prop_assert!(cdf.iter().all(|&c| (0.0..=1.0 + 1e-12).contains(&c)));
        let last = *cdf.last().unwrap();
        prop_assert!(
            (last - 1.0).abs() < 1e-9,
            "CDF sums to {last}, not 1 (s={s}, space={space})"
        );
    }

    #[test]
    fn hotspot_hit_fraction_tracks_hot_prob(
        seed in any::<u64>(),
        hot_prob_pct in 5u64..96,
    ) {
        let hot_prob = hot_prob_pct as f64 / 100.0;
        let space = 100_000u64;
        let hot_keys = 500u64;
        let d = KeyDist::hotspot(space, hot_keys, hot_prob);
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 30_000u64;
        let hits = (0..n).filter(|_| d.sample(&mut rng) < hot_keys).count();
        let frac = hits as f64 / n as f64;
        // Expected = hot_prob + (1 - hot_prob) * hot_keys/space (cold draws
        // can land in the hot range too). Tolerance ~5 sigma of a binomial.
        let expect = hot_prob + (1.0 - hot_prob) * hot_keys as f64 / space as f64;
        let sigma = (expect * (1.0 - expect) / n as f64).sqrt();
        prop_assert!(
            (frac - expect).abs() < 5.0 * sigma + 0.005,
            "hot fraction {frac} vs expected {expect} (p={hot_prob})"
        );
    }

    #[test]
    fn same_seed_streams_are_identical(
        seed in any::<u64>(),
        rate in 1u64..40,
        steps in 1u64..30,
        write_pct in 0u64..101,
    ) {
        let stream = QueryStream::new(
            RateSchedule::constant(rate),
            KeyDist::zipf(1 << 12, 1.1),
            seed,
        )
        .with_write_ratio(write_pct as f64 / 100.0);

        let a: Vec<_> = stream.take_steps_ops(steps).collect();
        let b: Vec<_> = stream.take_steps_ops(steps).collect();
        prop_assert_eq!(a, b, "same-seed streams differ");
    }

    #[test]
    fn scenario_streams_replay_from_their_seed(
        seed in any::<u64>(),
        which in 0usize..7,
    ) {
        let all = Scenario::all();
        let sc = &all[which % all.len()];
        let a: Vec<_> = sc.events(seed, 4).collect();
        let b: Vec<_> = sc.events(seed, 4).collect();
        prop_assert_eq!(a, b, "{} not seed-deterministic", sc.name());
    }
}

/// Empirical rank frequencies within tolerance of the analytic Zipf law at
/// the skews named in the issue: s ∈ {0.9, 1.1, 1.3}.
#[test]
fn zipf_empirical_ranks_match_the_analytic_law() {
    let space = 1024u64;
    let n = 200_000u64;
    for (si, &s) in [0.9f64, 1.1, 1.3].iter().enumerate() {
        let d = KeyDist::zipf(space, s);
        let pmf = zipf_pmf(space, s);
        let mut rng = SmallRng::seed_from_u64(1000 + si as u64);
        let mut counts = vec![0u64; space as usize];
        for _ in 0..n {
            counts[d.sample(&mut rng) as usize] += 1;
        }
        // Check the head ranks individually (they carry the mass the
        // placement policies care about)…
        for rank in 0..20usize {
            let emp = counts[rank] as f64 / n as f64;
            let expect = pmf[rank];
            let sigma = (expect * (1.0 - expect) / n as f64).sqrt();
            assert!(
                (emp - expect).abs() < 6.0 * sigma + 1e-4,
                "s={s} rank {rank}: empirical {emp:.5} vs analytic {expect:.5}"
            );
        }
        // …and the tail in aggregate.
        let tail_emp: f64 = counts[100..].iter().sum::<u64>() as f64 / n as f64;
        let tail_expect: f64 = pmf[100..].iter().sum();
        assert!(
            (tail_emp - tail_expect).abs() < 0.01,
            "s={s} tail mass: empirical {tail_emp:.4} vs analytic {tail_expect:.4}"
        );
        // Frequencies must be (statistically) rank-decreasing: compare
        // coarse buckets rather than adjacent ranks to absorb noise.
        let head: u64 = counts[..8].iter().sum();
        let mid: u64 = counts[8..64].iter().sum::<u64>() / 7;
        assert!(
            head > mid,
            "s={s}: head ranks not hotter than mid ranks ({head} vs {mid})"
        );
    }
}
