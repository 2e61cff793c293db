//! Pearson correlation (Eq. 7) and Table II strength bands.
//!
//! Algorithm 4 removes the lower-IV member of every feature pair whose
//! absolute correlation exceeds θ = 0.8.

/// Table II of the paper: rule-of-thumb correlation-strength bands for |ρ|.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrBand {
    /// |ρ| in \[0, 0.2\): very weak or no correlation.
    VeryWeak,
    /// |ρ| in \[0.2, 0.4\): weak correlation.
    Weak,
    /// |ρ| in \[0.4, 0.6\): moderate correlation.
    Moderate,
    /// |ρ| in \[0.6, 0.8\): strong correlation.
    Strong,
    /// |ρ| in \[0.8, 1\]: extremely strong correlation.
    ExtremelyStrong,
}

impl CorrBand {
    /// Classify an absolute correlation into its Table II band.
    pub fn of(rho: f64) -> CorrBand {
        let a = rho.abs();
        if a < 0.2 {
            CorrBand::VeryWeak
        } else if a < 0.4 {
            CorrBand::Weak
        } else if a < 0.6 {
            CorrBand::Moderate
        } else if a < 0.8 {
            CorrBand::Strong
        } else {
            CorrBand::ExtremelyStrong
        }
    }

    /// Human description as printed in Table II.
    pub fn description(self) -> &'static str {
        match self {
            CorrBand::VeryWeak => "Very weak or no correlation",
            CorrBand::Weak => "Weak correlation",
            CorrBand::Moderate => "Moderate correlation",
            CorrBand::Strong => "Strong correlation",
            CorrBand::ExtremelyStrong => "Extremely strong correlation",
        }
    }
}

/// Pearson correlation coefficient of two equal-length columns (Eq. 7).
///
/// Rows where either value is non-finite are skipped pairwise (industrial
/// data has missing cells; correlating present pairs is standard). Returns
/// 0.0 when either column is constant over the shared support or fewer than
/// two shared rows exist — a constant feature is uncorrelated with anything
/// for the purposes of redundancy removal.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "columns must be equal length");
    let mut n = 0usize;
    let (mut sx, mut sy) = (0.0f64, 0.0f64);
    for (&a, &b) in x.iter().zip(y) {
        if a.is_finite() && b.is_finite() {
            n += 1;
            sx += a;
            sy += b;
        }
    }
    if n < 2 {
        return 0.0;
    }
    let mx = sx / n as f64;
    let my = sy / n as f64;
    let (mut num, mut dx, mut dy) = (0.0f64, 0.0f64, 0.0f64);
    for (&a, &b) in x.iter().zip(y) {
        if a.is_finite() && b.is_finite() {
            let ca = a - mx;
            let cb = b - my;
            num += ca * cb;
            dx += ca * ca;
            dy += cb * cb;
        }
    }
    if dx <= 0.0 || dy <= 0.0 {
        return 0.0;
    }
    (num / (dx.sqrt() * dy.sqrt())).clamp(-1.0, 1.0)
}

/// Precomputed Pearson moments of one NaN-free column — the bitwise-exact
/// moment cache behind the redundancy scan (Algorithm 4) in both selection
/// modes.
///
/// [`pearson`] deletes rows pairwise, so its means and variance sums
/// normally depend on *both* columns of a pair. When neither column has a
/// missing cell the shared support is every row and those quantities become
/// per-column constants: `centered` stores `value - mean` exactly as
/// `pearson` recomputes it per pair, and `dxx` is `Σ centered²` accumulated
/// in the same row order as `pearson`'s own passes.
/// [`ExactMoments::rho`] then evaluates the identical final expression,
/// making the fast path **bitwise-equal** to `pearson(a, b)` for NaN-free
/// pairs — it is a caching layout, not an approximation. O(n) per pair
/// instead of the two-pass routine's 2×O(n), with the per-column O(n)
/// moment pass paid once; [`ExactMoments::rho_each`] runs the pairs of one
/// column with up to four others in a single sweep over the rows.
#[derive(Debug, Clone)]
pub struct ExactMoments {
    /// `value - mean` per row, in row order.
    centered: Vec<f64>,
    /// `Σ centered²`, accumulated in row order.
    dxx: f64,
}

impl ExactMoments {
    /// Moments of `col`, or `None` if the column has a non-finite cell
    /// (those pairs need pairwise deletion) or fewer than two rows.
    pub fn of(col: &[f64]) -> Option<ExactMoments> {
        if col.len() < 2 || col.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sx = 0.0f64;
        for &a in col {
            sx += a;
        }
        let mean = sx / col.len() as f64;
        let mut dxx = 0.0f64;
        let centered: Vec<f64> = col
            .iter()
            .map(|&a| {
                let c = a - mean;
                dxx += c * c;
                c
            })
            .collect();
        Some(ExactMoments { centered, dxx })
    }

    /// `pearson(a, b)`, bitwise-equal to the two-pass routine for the
    /// NaN-free columns this cache admits.
    pub fn rho(&self, other: &ExactMoments) -> f64 {
        let [rho] = self.rho_block([other]);
        rho
    }

    /// [`ExactMoments::rho`] against every column of `others`, in order.
    ///
    /// Four columns at a time share one sweep over the rows (the last one to
    /// three go one by one). Each pair keeps its own accumulator, summed in
    /// row order with the same products as `rho`, so the four add chains
    /// overlap while every result keeps its bits.
    pub fn rho_each(&self, others: &[&ExactMoments]) -> Vec<f64> {
        let mut blocks = others.chunks_exact(4);
        let mut out: Vec<f64> =
            blocks.by_ref().flat_map(|b| self.rho_block([b[0], b[1], b[2], b[3]])).collect();
        out.extend(blocks.remainder().iter().map(|o| self.rho(o)));
        out
    }

    /// `rho` against `K` columns from one sweep: `num[k]` sums
    /// `self.centered[i] * others[k].centered[i]` over rows `i` in order.
    fn rho_block<const K: usize>(&self, others: [&ExactMoments; K]) -> [f64; K] {
        let n = others.iter().fold(self.centered.len(), |n, o| n.min(o.centered.len()));
        let own = &self.centered[..n];
        let theirs = others.map(|o| &o.centered[..n]);
        let mut num = [0.0f64; K];
        for (i, &ca) in own.iter().enumerate() {
            for (acc, cb) in num.iter_mut().zip(&theirs) {
                *acc += ca * cb[i];
            }
        }
        let mut rho = [0.0f64; K];
        for ((r, num), other) in rho.iter_mut().zip(num).zip(others) {
            if self.dxx <= 0.0 || other.dxx <= 0.0 {
                continue;
            }
            *r = (num / (self.dxx.sqrt() * other.dxx.sqrt())).clamp(-1.0, 1.0);
        }
        rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_positive_is_one() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 7.0).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn affine_negative_is_minus_one() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| -2.0 * v + 1.0).collect();
        assert!((pearson(&x, &y) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let x = vec![1.0, 4.0, 2.0, 8.0, 5.0];
        let y = vec![2.0, 1.0, 7.0, 3.0, 9.0];
        assert!((pearson(&x, &y) - pearson(&y, &x)).abs() < 1e-15);
    }

    #[test]
    fn orthogonal_pattern_is_zero() {
        let x = vec![1.0, -1.0, 1.0, -1.0];
        let y = vec![1.0, 1.0, -1.0, -1.0];
        assert!(pearson(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn constant_column_yields_zero() {
        let x = vec![5.0; 10];
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(pearson(&x, &y), 0.0);
    }

    #[test]
    fn nan_rows_are_skipped_pairwise() {
        let x = vec![1.0, 2.0, f64::NAN, 3.0, 4.0];
        let y = vec![2.0, 4.0, 100.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn too_few_shared_rows_is_zero() {
        let x = vec![1.0, f64::NAN];
        let y = vec![f64::NAN, 2.0];
        assert_eq!(pearson(&x, &y), 0.0);
    }

    #[test]
    fn result_is_bounded() {
        // Near-degenerate values can push naive formulas past 1; ensure clamping.
        let x = vec![1.0, 1.0 + 1e-15, 1.0 + 2e-15];
        let y = vec![1.0, 1.0 + 1e-15, 1.0 + 2e-15];
        let r = pearson(&x, &y);
        assert!((-1.0..=1.0).contains(&r));
    }

    #[test]
    fn band_boundaries_match_table2() {
        assert_eq!(CorrBand::of(0.0), CorrBand::VeryWeak);
        assert_eq!(CorrBand::of(-0.19), CorrBand::VeryWeak);
        assert_eq!(CorrBand::of(0.2), CorrBand::Weak);
        assert_eq!(CorrBand::of(0.4), CorrBand::Moderate);
        assert_eq!(CorrBand::of(-0.7), CorrBand::Strong);
        assert_eq!(CorrBand::of(0.8), CorrBand::ExtremelyStrong);
        assert_eq!(CorrBand::of(1.0), CorrBand::ExtremelyStrong);
    }

    /// The moment-cached kernel must reproduce the two-pass routine bit
    /// for bit on NaN-free columns — signed, not just in magnitude.
    #[test]
    fn exact_moments_are_bitwise_pearson() {
        let cols: Vec<Vec<f64>> = (0..6)
            .map(|k| {
                (0..200)
                    .map(|i| ((i * (k + 3)) as f64).sin() * 10.0 + (k as f64) * 0.25)
                    .collect()
            })
            .collect();
        let moments: Vec<ExactMoments> =
            cols.iter().map(|c| ExactMoments::of(c).unwrap()).collect();
        for i in 0..cols.len() {
            for j in (i + 1)..cols.len() {
                let two_pass = pearson(&cols[i], &cols[j]);
                assert_eq!(
                    moments[i].rho(&moments[j]).to_bits(),
                    two_pass.to_bits(),
                    "pair ({i},{j}) signed rho bits differ"
                );
                assert_eq!(
                    moments[i].rho(&moments[j]).abs().to_bits(),
                    two_pass.abs().to_bits(),
                );
            }
        }
    }

    #[test]
    fn exact_moments_reject_nan_and_short_columns() {
        assert!(ExactMoments::of(&[1.0]).is_none());
        assert!(ExactMoments::of(&[1.0, f64::NAN, 2.0]).is_none());
        assert!(ExactMoments::of(&[1.0, f64::INFINITY]).is_none());
        assert!(ExactMoments::of(&[1.0, 2.0]).is_some());
    }

    #[test]
    fn constant_column_moments_yield_zero() {
        let a = ExactMoments::of(&[3.0; 10]).unwrap();
        let b = ExactMoments::of(&(0..10).map(|i| i as f64).collect::<Vec<_>>()).unwrap();
        assert_eq!(a.rho(&b), 0.0);
    }
}
