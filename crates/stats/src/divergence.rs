//! Kullback–Leibler and Jensen–Shannon divergence (Eqs. 14–15) plus the
//! feature-stability score of Table VI.
//!
//! The paper measures how reproducible a feature-engineering method is: run
//! it T times, pool the 2M·T generated features, and compare the empirical
//! feature-occurrence distribution against the ideal one (every run emits the
//! same 2M features, each appearing T times) via JSD. Lower is more stable.

use std::cmp::Ordering;

/// KL divergence `Σ p ln(p/q)` over two distributions given as histograms.
/// Both inputs are normalized internally; cells where `p = 0` contribute 0.
/// Returns `f64::INFINITY` when some `p > 0` has `q = 0`.
pub fn kullback_leibler(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distributions must share support");
    let sp: f64 = p.iter().sum();
    let sq: f64 = q.iter().sum();
    assert!(sp > 0.0 && sq > 0.0, "distributions must be non-empty");
    let mut d = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        let pi = pi / sp;
        let qi = qi / sq;
        if pi > 0.0 {
            if qi == 0.0 {
                return f64::INFINITY;
            }
            d += pi * (pi / qi).ln();
        }
    }
    d.max(0.0)
}

/// Jensen–Shannon divergence: `½ KLD(P‖R) + ½ KLD(Q‖R)` with `R = ½(P+Q)`
/// (Eq. 14). Always finite, symmetric, bounded by ln 2.
pub fn jensen_shannon(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distributions must share support");
    let sp: f64 = p.iter().sum();
    let sq: f64 = q.iter().sum();
    assert!(sp > 0.0 && sq > 0.0, "distributions must be non-empty");
    let pn: Vec<f64> = p.iter().map(|&v| v / sp).collect();
    let qn: Vec<f64> = q.iter().map(|&v| v / sq).collect();
    let r: Vec<f64> = pn.iter().zip(&qn).map(|(&a, &b)| 0.5 * (a + b)).collect();
    0.5 * kullback_leibler(&pn, &r) + 0.5 * kullback_leibler(&qn, &r)
}

/// Table VI stability score for one method.
///
/// `occurrences[i]` is the number of runs (out of `t_runs`) in which the
/// i-th distinct feature was emitted; the method emits `per_run` features per
/// run (2M in the paper). The actual distribution is compared by JSD against
/// the ideal distribution: `per_run` distinct features each occurring
/// `t_runs` times. The two distributions are aligned on a common support
/// (occurrence-count descending, zero-padded), as required for Eq. 14.
pub fn stability_score(occurrences: &[usize], per_run: usize, t_runs: usize) -> f64 {
    assert!(t_runs > 0 && per_run > 0, "need at least one run and feature");
    assert!(
        !occurrences.is_empty(),
        "at least one feature must have been generated"
    );
    let mut actual: Vec<f64> = occurrences.iter().map(|&c| c as f64).collect();
    actual.sort_by(|a, b| b.partial_cmp(a).unwrap_or(Ordering::Equal));
    let mut ideal: Vec<f64> = vec![t_runs as f64; per_run];
    // Align supports by zero-padding the shorter list. JSD stays finite
    // because the mixture R is positive wherever either side is.
    let support = actual.len().max(ideal.len());
    actual.resize(support, 0.0);
    ideal.resize(support, 0.0);
    jensen_shannon(&actual, &ideal)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LN2: f64 = std::f64::consts::LN_2;

    #[test]
    fn kld_of_identical_is_zero() {
        let p = vec![0.25, 0.25, 0.5];
        assert!(kullback_leibler(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn kld_is_asymmetric() {
        let p = vec![0.9, 0.1];
        let q = vec![0.5, 0.5];
        let a = kullback_leibler(&p, &q);
        let b = kullback_leibler(&q, &p);
        assert!(a > 0.0 && b > 0.0);
        assert!((a - b).abs() > 1e-3);
    }

    #[test]
    fn kld_infinite_on_unsupported_mass() {
        let p = vec![0.5, 0.5];
        let q = vec![1.0, 0.0];
        assert!(kullback_leibler(&p, &q).is_infinite());
    }

    #[test]
    fn kld_normalizes_inputs() {
        let p = vec![2.0, 2.0, 4.0];
        let q = vec![1.0, 1.0, 2.0];
        assert!(kullback_leibler(&p, &q).abs() < 1e-12);
    }

    #[test]
    fn jsd_symmetric_and_bounded() {
        let p = vec![1.0, 0.0, 0.0];
        let q = vec![0.0, 0.0, 1.0];
        let d = jensen_shannon(&p, &q);
        assert!((d - jensen_shannon(&q, &p)).abs() < 1e-12);
        assert!((d - LN2).abs() < 1e-12, "disjoint supports hit the ln2 bound");
    }

    #[test]
    fn jsd_of_identical_is_zero() {
        let p = vec![0.3, 0.3, 0.4];
        assert!(jensen_shannon(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn jsd_finite_where_kld_is_not() {
        let p = vec![0.5, 0.5];
        let q = vec![1.0, 0.0];
        assert!(jensen_shannon(&p, &q).is_finite());
    }

    #[test]
    fn perfectly_stable_method_scores_zero() {
        // 2M = 4 features, T = 10 runs, every run emits the same 4.
        let occurrences = vec![10, 10, 10, 10];
        let s = stability_score(&occurrences, 4, 10);
        assert!(s.abs() < 1e-12);
    }

    #[test]
    fn maximally_unstable_method_scores_high() {
        // Every run emits 4 brand-new features: 40 distinct, each once.
        let occurrences = vec![1usize; 40];
        let s = stability_score(&occurrences, 4, 10);
        assert!(s > 0.4, "score = {s}");
        assert!(s <= LN2 + 1e-12);
    }

    #[test]
    fn stability_is_monotone_in_churn() {
        // Increasing feature churn must increase (worsen) the score.
        let stable = stability_score(&[10, 10, 10, 10], 4, 10);
        let mild = stability_score(&[10, 10, 8, 8, 2, 2], 4, 10);
        let wild = stability_score(&vec![1; 40], 4, 10);
        assert!(stable < mild && mild < wild, "{stable} {mild} {wild}");
    }
}
