//! Supervised Weight-of-Evidence encoding — the scorecard-industry unary
//! operator that SAFE's IV machinery implies: replace each raw value with
//! the WoE of its (equal-frequency) bin. Fraud/credit models feed WoE
//! features to logistic regression almost universally, so this operator
//! rounds out the Section III "discretization + normalization" family with
//! the supervised member used in the paper's domain.

use crate::op::{FittedOperator, OpError, Operator};
use safe_stats::iv::woe_table;

/// Bin budget for the encoder.
const WOE_BINS: usize = 10;

/// WoE encoder: `x → WoE(bin(x))`, bins and WoE table frozen at fit time.
#[derive(Debug, Clone, Copy, Default)]
pub struct WoeEncode;

/// Frozen WoE table.
#[derive(Debug, Clone)]
pub struct FittedWoe {
    /// Interior cut points (finite-value bins).
    cuts: Vec<f64>,
    /// WoE per bin; the last entry is the missing-value bin's WoE (always
    /// present — a neutral 0.0 when training saw no missing values).
    table: Vec<f64>,
}

impl Operator for WoeEncode {
    fn name(&self) -> &'static str {
        "woe"
    }
    fn arity(&self) -> usize {
        1
    }
    fn commutative(&self) -> bool {
        false
    }
    fn fit(
        &self,
        inputs: &[&[f64]],
        labels: Option<&[u8]>,
    ) -> Result<Box<dyn FittedOperator>, OpError> {
        self.check_arity(inputs)?;
        let labels = labels.ok_or_else(|| OpError::NeedsLabels(self.name().to_string()))?;
        if labels.len() != inputs[0].len() {
            return Err(OpError::LengthMismatch);
        }
        let edges = safe_data::binning::BinEdges::fit(
            inputs[0],
            WOE_BINS,
            safe_data::binning::BinStrategy::EqualFrequency,
        )
        .map_err(|e| OpError::BadParams(e.to_string()))?;
        let cuts = edges.cuts().to_vec();
        let bins = woe_table(&edges, inputs[0], labels)
            .map_err(|e| OpError::BadParams(e.to_string()))?;
        // woe_table yields value bins (+ missing bin only when one occurred);
        // normalize to cuts.len()+1 value entries plus one missing entry.
        let n_value_bins = cuts.len() + 1;
        let mut table: Vec<f64> = bins.iter().map(|b| b.woe).collect();
        match table.len().cmp(&(n_value_bins + 1)) {
            std::cmp::Ordering::Less => table.resize(n_value_bins + 1, 0.0),
            std::cmp::Ordering::Greater => table.truncate(n_value_bins + 1),
            std::cmp::Ordering::Equal => {}
        }
        Ok(Box::new(FittedWoe { cuts, table }))
    }
    fn rehydrate(&self, params: &[f64]) -> Result<Box<dyn FittedOperator>, OpError> {
        let bad = || OpError::BadParams("woe: malformed params".into());
        let n_cuts = *params.first().ok_or_else(bad)? as usize;
        // layout: [n_cuts, cuts.., table (n_cuts + 2)]
        if params.len() != 1 + n_cuts + n_cuts + 2 {
            return Err(bad());
        }
        let cuts = params[1..1 + n_cuts].to_vec();
        if cuts.windows(2).any(|w| w[0] >= w[1]) {
            return Err(OpError::BadParams("woe: cuts must be increasing".into()));
        }
        let table = params[1 + n_cuts..].to_vec();
        Ok(Box::new(FittedWoe { cuts, table }))
    }
}

impl FittedOperator for FittedWoe {
    fn apply_row(&self, inputs: &[f64]) -> f64 {
        let x = inputs[0];
        let idx = if x.is_nan() {
            self.table.len() - 1 // missing bin
        } else {
            self.cuts.partition_point(|&c| c < x)
        };
        self.table[idx]
    }
    fn params(&self) -> Vec<f64> {
        let mut p = Vec::with_capacity(1 + self.cuts.len() + self.table.len());
        p.push(self.cuts.len() as f64);
        p.extend_from_slice(&self.cuts);
        p.extend_from_slice(&self.table);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monotone_data(n: usize) -> (Vec<f64>, Vec<u8>) {
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let labels: Vec<u8> = (0..n).map(|i| (i >= n / 2) as u8).collect();
        (values, labels)
    }

    #[test]
    fn requires_labels() {
        let col = [1.0, 2.0];
        assert!(matches!(
            WoeEncode.fit(&[&col], None).unwrap_err(),
            OpError::NeedsLabels(_)
        ));
    }

    #[test]
    fn encoding_is_monotone_for_monotone_risk() {
        let (v, y) = monotone_data(1_000);
        let f = WoeEncode.fit(&[&v], Some(&y)).unwrap();
        let encoded = f.apply(&[&v]);
        // Low values (all-negative bins) get negative WoE, high values
        // positive, and the encoding is non-decreasing.
        assert!(encoded[0] < 0.0);
        assert!(encoded[999] > 0.0);
        for w in encoded.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn missing_values_get_their_learned_woe() {
        // Missingness concentrated on positives → missing WoE strongly
        // positive.
        let n = 500;
        let labels: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let values: Vec<f64> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| if l == 1 { f64::NAN } else { i as f64 })
            .collect();
        let f = WoeEncode.fit(&[&values], Some(&labels)).unwrap();
        assert!(f.apply_row(&[f64::NAN]) > 1.0);
    }

    #[test]
    fn unseen_missing_is_neutral() {
        let (v, y) = monotone_data(100);
        let f = WoeEncode.fit(&[&v], Some(&y)).unwrap();
        // No NaN at train time → missing encodes to the neutral 0.
        assert_eq!(f.apply_row(&[f64::NAN]), 0.0);
    }

    #[test]
    fn params_round_trip() {
        let (v, y) = monotone_data(300);
        let fitted = WoeEncode.fit(&[&v], Some(&y)).unwrap();
        let rebuilt = WoeEncode.rehydrate(&fitted.params()).unwrap();
        for probe in [-5.0, 0.0, 150.0, 299.0, 1e6, f64::NAN] {
            let a = fitted.apply_row(&[probe]);
            let b = rebuilt.apply_row(&[probe]);
            assert!(a == b || (a.is_nan() && b.is_nan()), "probe {probe}");
        }
    }

    #[test]
    fn malformed_params_rejected() {
        assert!(WoeEncode.rehydrate(&[]).is_err());
        assert!(WoeEncode.rehydrate(&[1.0, 5.0]).is_err());
        assert!(WoeEncode.rehydrate(&[2.0, 5.0, 1.0, 0.0, 0.0, 0.0, 0.0]).is_err());
    }

    #[test]
    fn woe_feature_linearizes_risk_for_lr() {
        // WoE encoding makes a U-shaped risk pattern linear-separable: the
        // raw feature has near-zero linear signal, the encoded one is strong.
        let n = 2_000;
        let values: Vec<f64> = (0..n).map(|i| i as f64 / n as f64 * 2.0 - 1.0).collect();
        let labels: Vec<u8> = values.iter().map(|&v| (v.abs() > 0.5) as u8).collect();
        let f = WoeEncode.fit(&[&values], Some(&labels)).unwrap();
        let encoded = f.apply(&[&values]);
        let raw_corr = safe_stats::pearson::pearson(&values, &labels.iter().map(|&l| l as f64).collect::<Vec<_>>()).abs();
        let enc_corr = safe_stats::pearson::pearson(&encoded, &labels.iter().map(|&l| l as f64).collect::<Vec<_>>()).abs();
        assert!(raw_corr < 0.1, "raw linear signal should be weak: {raw_corr}");
        assert!(enc_corr > 0.8, "WoE should linearize: {enc_corr}");
    }
}
