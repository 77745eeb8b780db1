//! Differential property test for the sliding window's incremental λ
//! scorer: under arbitrary interleavings of `note_query` / `end_slice` /
//! `set_slices` — including the shrink-then-grow resize path — the
//! occurrence-index score must equal the brute-force `lambda_reference`
//! to 1e-9 (and the full-scan `lambda` bit-for-bit), and the structural
//! auditor must stay clean.

use proptest::prelude::*;

use ecc_core::SlidingWindow;

#[derive(Debug, Clone)]
enum WinOp {
    /// Record a query of `key % key_space`.
    Note(u16),
    /// Close the current slice (and score the expired one, if any).
    EndSlice,
    /// Resize the window to `1 + n % 9` slices.
    Resize(u8),
}

fn op_strategy() -> impl Strategy<Value = WinOp> {
    prop_oneof![
        6 => any::<u16>().prop_map(WinOp::Note),
        3 => Just(WinOp::EndSlice),
        1 => any::<u8>().prop_map(WinOp::Resize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_lambda_matches_reference(
        m in 1usize..8,
        alpha in 0.05f64..0.999,
        ops in proptest::collection::vec(op_strategy(), 1..250),
    ) {
        let key_space = 48u64;
        let threshold = alpha.powi(m as i32 - 1);
        let mut w = SlidingWindow::new(m, alpha, threshold);
        for op in ops {
            match op {
                WinOp::Note(k) => w.note_query(k as u64 % key_space),
                WinOp::EndSlice => {
                    if let Some(expired) = w.end_slice() {
                        // The eviction decision must match a full rescore.
                        let slow: Vec<u64> = expired
                            .iter()
                            .map(|&(k, _)| k)
                            .filter(|&k| w.lambda(k) < w.threshold())
                            .collect();
                        prop_assert_eq!(w.victims(&expired), slow);
                        w.recycle(expired);
                    }
                }
                WinOp::Resize(n) => {
                    for expired in w.set_slices(1 + n as usize % 9) {
                        let slow: Vec<u64> = expired
                            .iter()
                            .map(|&(k, _)| k)
                            .filter(|&k| w.lambda(k) < w.threshold())
                            .collect();
                        prop_assert_eq!(w.victims(&expired), slow);
                    }
                }
            }
            prop_assert!(w.check_invariants().is_ok(), "{:?}", w.check_invariants());
            for k in 0..key_space {
                let inc = w.lambda_incremental(k);
                prop_assert!(
                    (inc - w.lambda_reference(k)).abs() < 1e-9,
                    "key {} diverged from reference: {} vs {}",
                    k, inc, w.lambda_reference(k)
                );
                // Stronger than the 1e-9 contract: identical bits with the
                // full scan, which the simtest bit-exact oracle depends on.
                prop_assert_eq!(inc.to_bits(), w.lambda(k).to_bits());
            }
        }
    }
}
