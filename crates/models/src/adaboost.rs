//! AdaBoost (SAMME) on shallow CART trees — the paper's "AB" classifier.
//!
//! Discrete SAMME for two classes: each round fits a depth-1 stump on the
//! current sample weights, computes the weighted error ε, the stage weight
//! `α = ln((1−ε)/ε)`, and multiplies misclassified sample weights by `e^α`.
//! The final score `F(x) = Σ α_m (2 h_m(x) − 1)` is squashed through a
//! sigmoid to yield a ranking-compatible probability.

use rand::rngs::StdRng;
use rand::SeedableRng;

use safe_data::dataset::Dataset;
use safe_gbm::binner::BinnedDataset;
use safe_gbm::tree::Tree;
use safe_stats::par::Parallelism;

use crate::classifier::{training_labels, Classifier, FittedClassifier, ModelError};
use crate::tree::{grow_classification_tree, TreeConfig};

/// AdaBoost hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaBoostConfig {
    /// Boosting rounds (scikit-learn default: 50).
    pub n_estimators: usize,
    /// Depth of the base trees (1 = decision stumps, the sklearn default).
    pub base_depth: usize,
    /// RNG seed (tie-breaking inside base trees).
    pub seed: u64,
    /// Worker budget for feature quantization (0 = one worker per core).
    pub parallelism: Parallelism,
}

impl Default for AdaBoostConfig {
    fn default() -> Self {
        AdaBoostConfig {
            n_estimators: 50,
            base_depth: 1,
            seed: 0,
            parallelism: Parallelism::auto(),
        }
    }
}

/// The paper's "AB" classifier.
#[derive(Debug, Clone)]
pub struct AdaBoost {
    config: AdaBoostConfig,
}

impl AdaBoost {
    /// Default configuration with a seed.
    pub fn new(seed: u64) -> Self {
        AdaBoost {
            config: AdaBoostConfig { seed, ..AdaBoostConfig::default() },
        }
    }

    /// Custom configuration.
    pub fn with_config(config: AdaBoostConfig) -> Self {
        AdaBoost { config }
    }
}

/// Fitted boosted ensemble: stumps plus their stage weights.
pub struct FittedAdaBoost {
    stages: Vec<(Tree, f64)>,
    n_features: usize,
}

impl Classifier for AdaBoost {
    fn name(&self) -> &'static str {
        "AB"
    }
    fn fit(&self, train: &Dataset) -> Result<Box<dyn FittedClassifier>, ModelError> {
        let labels = training_labels(train)?.to_vec();
        let n = train.n_rows();
        let binned = BinnedDataset::fit(train, 256, self.config.parallelism)
            .map_err(|e| ModelError::BadTrainingData(e.to_string()))?;
        let tree_config = TreeConfig {
            max_depth: self.config.base_depth,
            ..TreeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut weights = vec![1.0 / n as f64; n];
        let mut stages: Vec<(Tree, f64)> = Vec::new();
        let all_rows: Vec<u32> = (0..n as u32).collect();
        let train_rows = train.to_rows();

        for _ in 0..self.config.n_estimators {
            let stump = grow_classification_tree(
                &binned,
                &labels,
                &weights,
                all_rows.clone(),
                &tree_config,
                &mut rng,
            );
            // Hard predictions at the 0.5 leaf-probability threshold.
            let hard: Vec<u8> = train_rows
                .iter()
                .map(|row| (stump.predict_row(row) >= 0.5) as u8)
                .collect();
            let eps: f64 = hard
                .iter()
                .zip(&labels)
                .zip(&weights)
                .filter(|((h, y), _)| h != y)
                .map(|(_, &w)| w)
                .sum();
            if eps <= 1e-12 {
                // Perfect stump: dominate the vote and stop.
                stages.push((stump, 10.0));
                break;
            }
            if eps >= 0.5 {
                // No better than chance: boosting has converged/stalled.
                break;
            }
            let alpha = ((1.0 - eps) / eps).ln();
            for ((h, y), w) in hard.iter().zip(&labels).zip(weights.iter_mut()) {
                if h != y {
                    *w *= alpha.exp();
                }
            }
            let total: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= total;
            }
            stages.push((stump, alpha));
        }
        if stages.is_empty() {
            return Err(ModelError::BadTrainingData(
                "AdaBoost found no stump better than chance".into(),
            ));
        }
        Ok(Box::new(FittedAdaBoost {
            stages,
            n_features: train.n_cols(),
        }))
    }
}

impl FittedClassifier for FittedAdaBoost {
    fn predict_proba(&self, ds: &Dataset) -> Result<Vec<f64>, ModelError> {
        self.check_shape(ds)?;
        let rows = ds.to_rows();
        let alpha_total: f64 = self.stages.iter().map(|(_, a)| a).sum();
        Ok(rows
            .iter()
            .map(|row| {
                let score: f64 = self
                    .stages
                    .iter()
                    .map(|(t, a)| {
                        let vote = if t.predict_row(row) >= 0.5 { 1.0 } else { -1.0 };
                        a * vote
                    })
                    .sum();
                // Normalized margin in [-1, 1] → sigmoid for a smooth score.
                let m = if alpha_total > 0.0 { score / alpha_total } else { 0.0 };
                1.0 / (1.0 + (-3.0 * m).exp())
            })
            .collect())
    }
    fn n_features(&self) -> usize {
        self.n_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use safe_stats::auc::auc;

    fn bands(n: usize, seed: u64) -> Dataset {
        // Label = 1 in two disjoint x-bands: a single stump cannot solve it,
        // boosting stumps can.
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..3.0)).collect();
        let y: Vec<u8> = x
            .iter()
            .map(|&v| ((0.0..1.0).contains(&v) || (2.0..3.0).contains(&v)) as u8)
            .collect();
        Dataset::from_columns(vec!["x".into()], vec![x], Some(y)).unwrap()
    }

    #[test]
    fn boosting_solves_what_a_stump_cannot() {
        let train = bands(600, 1);
        let test = bands(300, 2);
        let stump = AdaBoost::with_config(AdaBoostConfig {
            n_estimators: 1,
            ..AdaBoostConfig::default()
        })
        .fit(&train)
        .unwrap();
        let full = AdaBoost::new(0).fit(&train).unwrap();
        let auc_stump = auc(&stump.predict_proba(&test).unwrap(), test.labels().unwrap());
        let auc_full = auc(&full.predict_proba(&test).unwrap(), test.labels().unwrap());
        assert!(auc_full > auc_stump + 0.05, "stump {auc_stump} vs boosted {auc_full}");
        assert!(auc_full > 0.9, "boosted auc {auc_full}");
    }

    #[test]
    fn perfect_stump_short_circuits() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y: Vec<u8> = (0..100).map(|i| (i >= 50) as u8).collect();
        let ds = Dataset::from_columns(vec!["x".into()], vec![x], Some(y)).unwrap();
        let model = AdaBoost::new(0).fit(&ds).unwrap();
        let probs = model.predict_proba(&ds).unwrap();
        assert_eq!(auc(&probs, ds.labels().unwrap()), 1.0);
    }

    #[test]
    fn scores_are_probabilities() {
        let train = bands(200, 3);
        let model = AdaBoost::new(0).fit(&train).unwrap();
        for p in model.predict_proba(&train).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic() {
        let train = bands(200, 4);
        let a = AdaBoost::new(5).fit(&train).unwrap();
        let b = AdaBoost::new(5).fit(&train).unwrap();
        assert_eq!(
            a.predict_proba(&train).unwrap(),
            b.predict_proba(&train).unwrap()
        );
    }
}
