//! Figure 2: the sliding-window eviction model.
//!
//! Walks a scripted query stream through a small window and prints, at
//! each slice expiry, the decay scores λ(k) and the eviction verdicts —
//! the mechanism the paper illustrates with its shaded-window figure.

use ecc_core::SlidingWindow;

fn main() {
    let m = 4;
    let alpha: f64 = 0.8;
    let threshold = alpha.powi(m as i32 - 1); // baseline T_λ
    println!("sliding window: m = {m} slices, α = {alpha}, T_λ = α^(m-1) = {threshold:.3}\n");

    let mut w = SlidingWindow::new(m, alpha, threshold);

    // Scripted interest: key 1 is queried once early; key 2 is re-queried
    // every slice; key 3 arrives late.
    let slices: Vec<Vec<u64>> = vec![
        vec![1, 2],
        vec![2, 2],
        vec![2],
        vec![2, 3],
        vec![2],
        vec![2, 3],
        vec![],
        vec![],
        vec![],
        vec![],
    ];

    for (i, queries) in slices.iter().enumerate() {
        for &k in queries {
            w.note_query(k);
        }
        let expired = w.end_slice();
        print!("slice t+{i:<2} queried {queries:?}");
        if let Some(expired) = expired {
            let victims = w.victims(&expired);
            print!(
                "  | expired slice held {:?}",
                expired.iter().map(|&(k, _)| k).collect::<Vec<_>>()
            );
            for &(key, _) in &expired {
                let lambda = w.lambda(key);
                let verdict = if lambda < threshold { "EVICT" } else { "keep " };
                print!("  λ({key})={lambda:.3} {verdict}");
            }
            if victims.is_empty() {
                print!("  -> nothing evicted");
            } else {
                print!("  -> evict {victims:?}");
            }
        }
        println!();
    }

    println!("\nreading the run:");
    println!("  key 1 (queried once, long ago) decays below T_λ and is evicted;");
    println!("  key 2 (re-queried every slice) always scores λ ≈ Σ α^i ≥ T_λ and survives;");
    println!("  key 3 survives while its last query is inside the window, then goes.");
}
