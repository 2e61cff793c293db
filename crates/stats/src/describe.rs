//! Column summary statistics used by operators (normalization) and data
//! generators: mean, variance, min/max, quantiles — all NaN-aware.

use std::cmp::Ordering;

/// Summary of one numeric column (missing values excluded).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSummary {
    /// Count of finite values.
    pub n: usize,
    /// Count of missing (non-finite) values.
    pub n_missing: usize,
    /// Arithmetic mean of finite values (0 when empty).
    pub mean: f64,
    /// Population standard deviation of finite values (0 when empty).
    pub std: f64,
    /// Minimum finite value (+∞ when empty).
    pub min: f64,
    /// Maximum finite value (−∞ when empty).
    pub max: f64,
}

/// Compute a [`ColumnSummary`] in one pass (Welford's online variance, which
/// stays accurate for the large shifted columns industrial data produces).
pub fn describe(values: &[f64]) -> ColumnSummary {
    let mut n = 0usize;
    let mut n_missing = 0usize;
    let mut mean = 0.0f64;
    let mut m2 = 0.0f64;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        if !v.is_finite() {
            n_missing += 1;
            continue;
        }
        n += 1;
        let delta = v - mean;
        mean += delta / n as f64;
        m2 += delta * (v - mean);
        min = min.min(v);
        max = max.max(v);
    }
    let std = if n > 0 { (m2 / n as f64).sqrt() } else { 0.0 };
    ColumnSummary {
        n,
        n_missing,
        mean: if n > 0 { mean } else { 0.0 },
        std,
        min,
        max,
    }
}

/// q-th quantile (0 ≤ q ≤ 1) of the finite values, linear interpolation
/// between order statistics. `None` when no finite values exist.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    let mut clean: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if clean.is_empty() {
        return None;
    }
    clean.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
    let pos = q * (clean.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(clean[lo] * (1.0 - frac) + clean[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_basic() {
        let s = describe(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.n_missing, 0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn describe_skips_missing() {
        let s = describe(&[1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.n, 2);
        assert_eq!(s.n_missing, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn describe_empty_is_sane() {
        let s = describe(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn welford_stays_accurate_for_shifted_data() {
        // Classic catastrophic-cancellation case for the naive formula.
        let base = 1e9;
        let values: Vec<f64> = (0..1000).map(|i| base + (i % 10) as f64).collect();
        let s = describe(&values);
        let expected_std = describe(&(0..1000).map(|i| (i % 10) as f64).collect::<Vec<_>>()).std;
        assert!((s.std - expected_std).abs() < 1e-6, "std = {}", s.std);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 1.0), Some(40.0));
        assert_eq!(quantile(&v, 0.5), Some(25.0));
    }

    #[test]
    fn quantile_of_all_missing_is_none() {
        assert_eq!(quantile(&[f64::NAN, f64::NAN], 0.5), None);
    }

    #[test]
    fn median_robust_to_order() {
        let v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.5), Some(3.0));
    }
}
