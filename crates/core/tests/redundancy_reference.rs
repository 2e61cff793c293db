//! Naive reference for the exact redundancy scan (Algorithm 4).
//!
//! The reference is the paper's step written as plainly as possible:
//! visit candidates by descending IV (ties by column index) and keep one
//! unless the two-pass `pearson` puts it above θ against an already-kept
//! column. `safe_core::selection::redundancy_filter` computes the same
//! thing through a moment cache for NaN-free pairs, a pairwise-deletion
//! branch for pairs with missing cells, and parallel pair tests. It must
//! keep the same columns in the same order and count the same pairs, at
//! any thread count, whether the columns are resident or chunked (chunked
//! columns are gathered per pair).

use proptest::prelude::*;

use safe_core::selection::redundancy_filter;
use safe_data::chunk::ChunkOptions;
use safe_data::dataset::Dataset;
use safe_stats::par::Parallelism;
use safe_stats::pearson::pearson;

/// Kept column indices (in visiting order) and pairs tested.
fn reference(cols: &[Vec<f64>], survivors: &[(usize, f64)], theta: f64) -> (Vec<usize>, u64) {
    let mut order = survivors.to_vec();
    order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut kept: Vec<usize> = Vec::new();
    let mut pairs = 0u64;
    for (candidate, _) in order {
        pairs += kept.len() as u64;
        if !kept
            .iter()
            .any(|&k| pearson(&cols[candidate], &cols[k]).abs() > theta)
        {
            kept.push(candidate);
        }
    }
    (kept, pairs)
}

/// Columns with planted redundancy: column 0 is constant, every other
/// column is either fresh noise or a noisy affine copy of an earlier
/// column, and every third column loses cells to NaN at `nan_per_10`/10.
fn columns(n_rows: usize, n_cols: usize, nan_per_10: u64, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut cols: Vec<Vec<f64>> = vec![vec![2.5; n_rows]];
    for c in 1..n_cols {
        let parent = (next() % c as u64) as usize;
        let copy = next() % 2 == 0;
        let noise = (next() % 100) as f64 / 50.0;
        let col: Vec<f64> = (0..n_rows)
            .map(|i| {
                let fresh = (next() % 1000) as f64 / 100.0;
                if c % 3 == 1 && next() % 10 < nan_per_10 {
                    f64::NAN
                } else if copy && cols[parent][i].is_finite() {
                    -1.5 * cols[parent][i] + noise * fresh / 10.0
                } else {
                    fresh
                }
            })
            .collect();
        cols.push(col);
    }
    cols
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_redundancy_filter_matches_the_naive_greedy_scan(
        n_rows in 4usize..48,
        n_cols in 2usize..12,
        nan_per_10 in 0u64..5,
        seed in any::<u64>(),
        theta_idx in 0usize..4,
        chunked in any::<bool>(),
    ) {
        let theta = [0.3, 0.5, 0.8, 0.95][theta_idx];
        let cols = columns(n_rows, n_cols, nan_per_10, seed);
        let names = (0..n_cols).map(|c| format!("c{c}")).collect();
        let mut data = Dataset::from_columns(names, cols.clone(), None).unwrap();
        if chunked {
            data = data.to_chunked(ChunkOptions::in_memory(3)).unwrap();
        }
        // Three IV levels for up to a dozen columns: ties are the norm.
        // Survivors are listed in reverse so the scan must do its own sort.
        let iv = |c: usize| [0.2, 0.4, 0.6][(seed.wrapping_add(7 * c as u64) % 3) as usize];
        let survivors: Vec<(usize, f64)> = (0..n_cols).rev().map(|c| (c, iv(c))).collect();

        let want = reference(&cols, &survivors, theta);
        for threads in [1, 4] {
            let got = redundancy_filter(&data, &survivors, theta, Parallelism::new(threads));
            prop_assert_eq!(
                got.unwrap(),
                want.clone(),
                "threads = {}, chunked = {}",
                threads,
                chunked
            );
        }
    }
}
