//! Information Value (IV) and Weight of Evidence (WoE).
//!
//! Eq. (6) of the paper:
//!
//! `IV = Σ_i (n_p^i/n_p − n_n^i/n_n) · ln( (n_p^i/n_p) / (n_n^i/n_n) )`
//!
//! Algorithm 3 packs each feature into β equal-frequency bins and drops
//! features with IV ≤ α (default α = 0.1, the lower edge of Table I's
//! "medium predictor" band).

use safe_data::binning::{BinEdges, BinStrategy};
use safe_data::error::DataError;

/// Table I of the paper: rule-of-thumb predictive-power bands for IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IvBand {
    /// IV in \[0, 0.02\): useless for prediction.
    Useless,
    /// IV in \[0.02, 0.1\): weak predictor.
    Weak,
    /// IV in \[0.1, 0.3\): medium predictor.
    Medium,
    /// IV in \[0.3, 0.5\): strong predictor.
    Strong,
    /// IV ≥ 0.5: extremely strong predictor (often "too good to be true").
    ExtremelyStrong,
}

impl IvBand {
    /// Classify an IV value into its Table I band.
    pub fn of(iv: f64) -> IvBand {
        if iv < 0.02 {
            IvBand::Useless
        } else if iv < 0.1 {
            IvBand::Weak
        } else if iv < 0.3 {
            IvBand::Medium
        } else if iv < 0.5 {
            IvBand::Strong
        } else {
            IvBand::ExtremelyStrong
        }
    }

    /// Human description as printed in Table I.
    pub fn description(self) -> &'static str {
        match self {
            IvBand::Useless => "Useless for prediction",
            IvBand::Weak => "Weak predictor",
            IvBand::Medium => "Medium predictor",
            IvBand::Strong => "Strong predictor",
            IvBand::ExtremelyStrong => "Extremely strong predictor",
        }
    }

    /// The `[lo, hi)` IV range of this band (`hi = ∞` for the top band).
    pub fn range(self) -> (f64, f64) {
        match self {
            IvBand::Useless => (0.0, 0.02),
            IvBand::Weak => (0.02, 0.1),
            IvBand::Medium => (0.1, 0.3),
            IvBand::Strong => (0.3, 0.5),
            IvBand::ExtremelyStrong => (0.5, f64::INFINITY),
        }
    }
}

/// Per-bin WoE summary.
#[derive(Debug, Clone, PartialEq)]
pub struct WoeBin {
    /// Positive-record count in the bin.
    pub n_pos: usize,
    /// Negative-record count in the bin.
    pub n_neg: usize,
    /// Weight of evidence `ln((n_p^i/n_p)/(n_n^i/n_n))` (Laplace-smoothed).
    pub woe: f64,
    /// The bin's additive contribution to the total IV.
    pub iv_contribution: f64,
}

/// Laplace smoothing constant guarding against empty-class bins; standard
/// scorecard practice (0-count bins otherwise produce ±∞ WoE).
const SMOOTH: f64 = 0.5;

/// Equal-frequency-bin the feature (β bins, missing values in their own bin)
/// and return the per-bin WoE table. `values` and `labels` of different
/// lengths are [`DataError::LabelLengthMismatch`].
pub fn woe_bins(values: &[f64], labels: &[u8], n_bins: usize) -> Result<Vec<WoeBin>, DataError> {
    woe_table(&BinEdges::fit(values, n_bins, BinStrategy::EqualFrequency)?, values, labels)
}

/// The WoE table of `values` binned by `edges`: one entry per value bin,
/// plus a trailing missing-value bin (non-finite values) only when one
/// occurs. Each row's class is counted in the same pass that bins it.
pub fn woe_table(
    edges: &BinEdges,
    values: &[f64],
    labels: &[u8],
) -> Result<Vec<WoeBin>, DataError> {
    if values.len() != labels.len() {
        return Err(DataError::LabelLengthMismatch { expected: values.len(), actual: labels.len() });
    }
    let value_bins = edges.n_value_bins();
    let mut pos = vec![0usize; value_bins + 1];
    let mut neg = vec![0usize; value_bins + 1];
    for (&v, &l) in values.iter().zip(labels) {
        let b = if v.is_finite() { edges.bin_of(v) } else { value_bins };
        if l == 1 {
            pos[b] += 1;
        } else {
            neg[b] += 1;
        }
    }
    let any_missing = pos[value_bins] + neg[value_bins] > 0;
    let n_bins = value_bins + usize::from(any_missing);
    let total_pos: usize = pos.iter().sum();
    let total_neg: usize = neg.iter().sum();
    let tp = total_pos as f64 + SMOOTH * n_bins as f64;
    let tn = total_neg as f64 + SMOOTH * n_bins as f64;
    Ok((0..n_bins)
        .map(|i| {
            let p_rate = (pos[i] as f64 + SMOOTH) / tp;
            let n_rate = (neg[i] as f64 + SMOOTH) / tn;
            let woe = (p_rate / n_rate).ln();
            WoeBin {
                n_pos: pos[i],
                n_neg: neg[i],
                woe,
                iv_contribution: (p_rate - n_rate) * woe,
            }
        })
        .collect())
}

/// Information Value of a feature against binary labels (Algorithm 3 inner
/// loop): β equal-frequency bins, Eq. (6).
pub fn information_value(values: &[f64], labels: &[u8], n_bins: usize) -> Result<f64, DataError> {
    Ok(woe_bins(values, labels, n_bins)?
        .iter()
        .map(|b| b.iv_contribution)
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A feature that perfectly orders the classes.
    fn separable(n: usize) -> (Vec<f64>, Vec<u8>) {
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let labels: Vec<u8> = (0..n).map(|i| (i >= n / 2) as u8).collect();
        (values, labels)
    }

    #[test]
    fn perfectly_predictive_feature_has_huge_iv() {
        let (v, y) = separable(1000);
        let iv = information_value(&v, &y, 10).unwrap();
        assert!(iv > 0.5, "iv = {iv}");
        assert_eq!(IvBand::of(iv), IvBand::ExtremelyStrong);
    }

    #[test]
    fn independent_feature_has_tiny_iv() {
        // Feature alternates independently of the label.
        let n = 10_000;
        let values: Vec<f64> = (0..n).map(|i| (i % 10) as f64).collect();
        let labels: Vec<u8> = (0..n).map(|i| ((i / 2) % 2) as u8).collect();
        let iv = information_value(&values, &labels, 10).unwrap();
        assert!(iv < 0.02, "iv = {iv}");
        assert_eq!(IvBand::of(iv), IvBand::Useless);
    }

    #[test]
    fn iv_is_nonnegative_by_construction() {
        // Every term (a-b)ln(a/b) >= 0.
        let (v, y) = separable(100);
        for bins in [2, 5, 20] {
            let iv = information_value(&v, &y, bins).unwrap();
            assert!(iv >= 0.0);
        }
    }

    #[test]
    fn label_flip_preserves_iv() {
        let (v, y) = separable(500);
        let flipped: Vec<u8> = y.iter().map(|&l| 1 - l).collect();
        let a = information_value(&v, &y, 10).unwrap();
        let b = information_value(&v, &flipped, 10).unwrap();
        assert!((a - b).abs() < 1e-9, "IV is symmetric in class naming");
    }

    #[test]
    fn woe_signs_track_class_balance() {
        let (v, y) = separable(100);
        let bins = woe_bins(&v, &y, 2).unwrap();
        assert!(bins[0].woe < 0.0, "low bin is all-negative: negative WoE");
        assert!(bins[1].woe > 0.0, "high bin is all-positive: positive WoE");
    }

    #[test]
    fn iv_contributions_sum_to_iv() {
        let (v, y) = separable(256);
        let bins = woe_bins(&v, &y, 8).unwrap();
        let total: f64 = bins.iter().map(|b| b.iv_contribution).sum();
        let iv = information_value(&v, &y, 8).unwrap();
        assert!((total - iv).abs() < 1e-12);
    }

    #[test]
    fn missing_values_participate_via_missing_bin() {
        // Feature missing exactly on positives → the missing bin is pure and
        // IV must be very large.
        let n = 400;
        let labels: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let values: Vec<f64> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| if l == 1 { f64::NAN } else { i as f64 })
            .collect();
        let iv = information_value(&values, &labels, 5).unwrap();
        assert!(iv > 1.0, "informative missingness should be captured, iv={iv}");
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let mismatch = DataError::LabelLengthMismatch { expected: 3, actual: 2 };
        assert_eq!(woe_bins(&[1.0, 2.0, 3.0], &[0, 1], 2), Err(mismatch.clone()));
        assert_eq!(information_value(&[1.0, 2.0, 3.0], &[0, 1], 2), Err(mismatch));
        let edges = BinEdges::from_cuts(vec![1.5]);
        assert!(matches!(
            woe_table(&edges, &[1.0], &[0, 1]),
            Err(DataError::LabelLengthMismatch { expected: 1, actual: 2 })
        ));
    }

    #[test]
    fn constant_feature_is_useless() {
        let values = vec![3.0; 200];
        let labels: Vec<u8> = (0..200).map(|i| (i % 2) as u8).collect();
        let iv = information_value(&values, &labels, 10).unwrap();
        assert!(iv < 1e-9);
    }

    #[test]
    fn band_boundaries_match_table1() {
        assert_eq!(IvBand::of(0.0), IvBand::Useless);
        assert_eq!(IvBand::of(0.019), IvBand::Useless);
        assert_eq!(IvBand::of(0.02), IvBand::Weak);
        assert_eq!(IvBand::of(0.0999), IvBand::Weak);
        assert_eq!(IvBand::of(0.1), IvBand::Medium);
        assert_eq!(IvBand::of(0.3), IvBand::Strong);
        assert_eq!(IvBand::of(0.5), IvBand::ExtremelyStrong);
        assert_eq!(IvBand::of(7.0), IvBand::ExtremelyStrong);
    }

    #[test]
    fn band_ranges_are_contiguous() {
        let bands = [
            IvBand::Useless,
            IvBand::Weak,
            IvBand::Medium,
            IvBand::Strong,
            IvBand::ExtremelyStrong,
        ];
        for w in bands.windows(2) {
            assert_eq!(w[0].range().1, w[1].range().0);
        }
    }
}
