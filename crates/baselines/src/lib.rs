//! # safe-baselines — the comparison methods of the paper's evaluation
//!
//! Section V compares SAFE against two published generation-selection
//! algorithms, both rebuilt here from their original descriptions:
//!
//! - [`tfc::Tfc`] — *Iterative feature construction for improving inductive
//!   learning algorithms* (Piramuthu & Sikora, 2009). Each iteration
//!   **generates every legal feature** from the current pool with every
//!   operator, then selects the best by information gain. Time complexity
//!   `O(N·M²)` (Eq. 8) — the combinatorial explosion SAFE exists to avoid.
//! - [`fctree::FcTree`] — *Generalized and heuristic-free feature
//!   construction* (Fan et al., 2010). Trains a decision tree where every
//!   node chooses, by information gain, among the original features plus
//!   `ne` freshly constructed candidate features; constructions chosen at
//!   internal nodes become the engineered set. Complexity
//!   `O(ne·N·(log N)²)` (Eq. 9).
//!
//! Beyond the paper's two comparison baselines, [`autolearn::AutoLearn`]
//! reproduces the third generation-selection method whose cost Section IV-D
//! analyses (Kaul et al., ICDM 2017): pairwise ridge/kernel-ridge regression
//! features with stability selection.
//!
//! All implement [`safe_core::engineer::FeatureEngineer`] and emit the same
//! [`safe_core::plan::FeaturePlan`] artifact as SAFE, so the benchmark
//! harness treats every method identically.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod autolearn;
pub mod fctree;
pub mod tfc;

pub use autolearn::AutoLearn;
pub use fctree::FcTree;
pub use tfc::Tfc;

use safe_data::binning::{bin_column, BinStrategy};
use safe_data::dataset::Dataset;
use safe_stats::entropy::information_gain;

/// Information gain of a numeric column against binary labels after
/// equal-frequency binning into `beta` bins; 0 when the column cannot be
/// binned.
pub(crate) fn ig_of(values: &[f64], labels: &[u8], beta: usize) -> f64 {
    match bin_column(values, beta, BinStrategy::EqualFrequency) {
        Ok(a) => information_gain(&a.bins, labels, a.n_bins),
        Err(_) => 0.0,
    }
}

/// Every feature column of `train` as a slice. The baselines work on raw
/// columns, so a chunked dataset is an `Err` from `engineer`, not a panic.
fn feature_columns(train: &Dataset) -> Result<Vec<&[f64]>, String> {
    (0..train.n_cols())
        .map(|f| train.column(f).map_err(|e| e.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use safe_core::engineer::FeatureEngineer;
    use safe_data::chunk::ChunkOptions;

    use super::*;

    #[test]
    fn chunked_input_is_an_error_not_a_panic() {
        let a: Vec<f64> = (0..64).map(|i| f64::from(i % 7) - 3.0).collect();
        let b: Vec<f64> = (0..64).map(|i| f64::from(i % 5) - 2.0).collect();
        let labels = a
            .iter()
            .zip(&b)
            .map(|(x, y)| u8::from(x * y > 0.0))
            .collect();
        let ds = Dataset::from_columns(vec!["a".into(), "b".into()], vec![a, b], Some(labels))
            .unwrap()
            .to_chunked(ChunkOptions::in_memory(16))
            .unwrap();
        let engineers: [&dyn FeatureEngineer; 3] =
            [&Tfc::default(), &FcTree::default(), &AutoLearn::default()];
        for engineer in engineers {
            let err = engineer
                .engineer(&ds, None)
                .expect_err(engineer.method_name());
            assert!(
                err.contains("column 'a' is chunked"),
                "{}: {err}",
                engineer.method_name()
            );
        }
    }
}
