//! Tree ensembles: Random Forest (bootstrap + best splits on √M features)
//! and Extremely randomized Trees (full sample + one random split per
//! feature). Members are trained in parallel and probabilities averaged.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use safe_data::dataset::Dataset;
use safe_gbm::binner::BinnedDataset;
use safe_gbm::tree::Tree;
use safe_stats::par::{par_map, Parallelism};

use crate::classifier::{training_labels, Classifier, FittedClassifier, ModelError};
use crate::tree::{grow_classification_tree, MaxFeatures, Splitter, TreeConfig};

/// Shared ensemble settings.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestConfig {
    /// Ensemble size (scikit-learn default: 100).
    pub n_trees: usize,
    /// Per-tree depth cap.
    pub max_depth: usize,
    /// Whether members see a bootstrap resample (RF) or the full data (ET).
    pub bootstrap: bool,
    /// Split policy of the members.
    pub splitter: Splitter,
    /// Features per node.
    pub max_features: MaxFeatures,
    /// Quantization budget.
    pub max_bins: usize,
    /// Seed; member `i` derives seed `seed + i`.
    pub seed: u64,
    /// Worker budget for member training (0 = one worker per core).
    pub parallelism: Parallelism,
}

impl ForestConfig {
    fn random_forest(seed: u64) -> Self {
        ForestConfig {
            n_trees: 100,
            max_depth: 25,
            bootstrap: true,
            splitter: Splitter::Best,
            max_features: MaxFeatures::Sqrt,
            max_bins: 256,
            seed,
            parallelism: Parallelism::auto(),
        }
    }

    fn extra_trees(seed: u64) -> Self {
        ForestConfig {
            bootstrap: false,
            splitter: Splitter::Random,
            ..ForestConfig::random_forest(seed)
        }
    }
}

/// Train all members on one binned matrix (parallel across trees).
fn fit_members(
    train: &Dataset,
    config: &ForestConfig,
) -> Result<Vec<Tree>, ModelError> {
    let labels = training_labels(train)?.to_vec();
    let binned = BinnedDataset::fit(train, config.max_bins, config.parallelism)
        .map_err(|e| ModelError::BadTrainingData(e.to_string()))?;
    let n = train.n_rows();
    let tree_config = TreeConfig {
        max_depth: config.max_depth,
        max_features: config.max_features,
        splitter: config.splitter,
        max_bins: config.max_bins,
        parallelism: config.parallelism,
        ..TreeConfig::default()
    };
    let weights = vec![1.0; n];
    let trees = par_map(config.parallelism, config.n_trees, |i| {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(i as u64));
        let rows: Vec<u32> = if config.bootstrap {
            (0..n).map(|_| rng.gen_range(0..n as u32)).collect()
        } else {
            (0..n as u32).collect()
        };
        grow_classification_tree(&binned, &labels, &weights, rows, &tree_config, &mut rng)
    });
    Ok(trees)
}

/// A fitted ensemble averaging member leaf probabilities.
pub struct FittedForest {
    trees: Vec<Tree>,
    n_features: usize,
}

impl FittedClassifier for FittedForest {
    fn predict_proba(&self, ds: &Dataset) -> Result<Vec<f64>, ModelError> {
        self.check_shape(ds)?;
        let cols: Vec<&[f64]> = ds.columns().collect();
        let mut out = vec![0.0f64; ds.n_rows()];
        for t in &self.trees {
            t.predict_into(&cols, &mut out);
        }
        let k = self.trees.len().max(1) as f64;
        for v in &mut out {
            *v /= k;
        }
        Ok(out)
    }
    fn n_features(&self) -> usize {
        self.n_features
    }
}

/// The paper's "RF" classifier.
#[derive(Debug, Clone)]
pub struct RandomForest {
    config: ForestConfig,
}

impl RandomForest {
    /// scikit-learn-like defaults (100 trees, bootstrap, √M features).
    pub fn new(seed: u64) -> Self {
        RandomForest {
            config: ForestConfig::random_forest(seed),
        }
    }

    /// Custom ensemble settings.
    pub fn with_config(config: ForestConfig) -> Self {
        RandomForest { config }
    }
}

impl Classifier for RandomForest {
    fn name(&self) -> &'static str {
        "RF"
    }
    fn fit(&self, train: &Dataset) -> Result<Box<dyn FittedClassifier>, ModelError> {
        Ok(Box::new(FittedForest {
            trees: fit_members(train, &self.config)?,
            n_features: train.n_cols(),
        }))
    }
}

/// The paper's "ET" classifier.
#[derive(Debug, Clone)]
pub struct ExtraTrees {
    config: ForestConfig,
}

impl ExtraTrees {
    /// scikit-learn-like defaults (100 trees, no bootstrap, random splits).
    pub fn new(seed: u64) -> Self {
        ExtraTrees {
            config: ForestConfig::extra_trees(seed),
        }
    }

    /// Custom ensemble settings.
    pub fn with_config(config: ForestConfig) -> Self {
        ExtraTrees { config }
    }
}

impl Classifier for ExtraTrees {
    fn name(&self) -> &'static str {
        "ET"
    }
    fn fit(&self, train: &Dataset) -> Result<Box<dyn FittedClassifier>, ModelError> {
        Ok(Box::new(FittedForest {
            trees: fit_members(train, &self.config)?,
            n_features: train.n_cols(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use safe_stats::auc::auc;

    /// Noisy two-feature data where the signal is x0 + x1 > 0.
    fn noisy(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c0 = Vec::with_capacity(n);
        let mut c1 = Vec::with_capacity(n);
        let mut c2 = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            c0.push(a);
            c1.push(b);
            c2.push(rng.gen_range(-1.0..1.0));
            let noise: f64 = rng.gen_range(-0.3..0.3);
            y.push((a + b + noise > 0.0) as u8);
        }
        Dataset::from_columns(
            vec!["a".into(), "b".into(), "noise".into()],
            vec![c0, c1, c2],
            Some(y),
        )
        .unwrap()
    }

    #[test]
    fn random_forest_beats_chance_clearly() {
        let train = noisy(500, 1);
        let test = noisy(300, 2);
        let model = RandomForest::with_config(ForestConfig {
            n_trees: 30,
            ..ForestConfig::random_forest(0)
        })
        .fit(&train)
        .unwrap();
        let probs = model.predict_proba(&test).unwrap();
        let a = auc(&probs, test.labels().unwrap());
        assert!(a > 0.9, "auc = {a}");
    }

    #[test]
    fn extra_trees_beats_chance_clearly() {
        let train = noisy(500, 3);
        let test = noisy(300, 4);
        let model = ExtraTrees::with_config(ForestConfig {
            n_trees: 30,
            ..ForestConfig::extra_trees(0)
        })
        .fit(&train)
        .unwrap();
        let probs = model.predict_proba(&test).unwrap();
        let a = auc(&probs, test.labels().unwrap());
        assert!(a > 0.88, "auc = {a}");
    }

    #[test]
    fn probabilities_averaged_into_unit_interval() {
        let train = noisy(200, 5);
        let model = RandomForest::with_config(ForestConfig {
            n_trees: 7,
            ..ForestConfig::random_forest(0)
        })
        .fit(&train)
        .unwrap();
        for p in model.predict_proba(&train).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn forest_smooths_single_tree() {
        // On noisy data the forest's test AUC should be at least the single
        // tree's (variance reduction), with margin allowed for luck.
        let train = noisy(400, 6);
        let test = noisy(400, 7);
        let tree = crate::tree::DecisionTree::new(0).fit(&train).unwrap();
        let forest = RandomForest::with_config(ForestConfig {
            n_trees: 50,
            ..ForestConfig::random_forest(0)
        })
        .fit(&train)
        .unwrap();
        let auc_tree = auc(&tree.predict_proba(&test).unwrap(), test.labels().unwrap());
        let auc_forest = auc(&forest.predict_proba(&test).unwrap(), test.labels().unwrap());
        assert!(
            auc_forest > auc_tree - 0.02,
            "forest {auc_forest} vs tree {auc_tree}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let train = noisy(200, 8);
        let cfg = ForestConfig {
            n_trees: 10,
            ..ForestConfig::random_forest(99)
        };
        let a = RandomForest::with_config(cfg.clone()).fit(&train).unwrap();
        let b = RandomForest::with_config(cfg).fit(&train).unwrap();
        assert_eq!(
            a.predict_proba(&train).unwrap(),
            b.predict_proba(&train).unwrap()
        );
    }

    #[test]
    fn different_seeds_give_different_forests() {
        let train = noisy(200, 9);
        let a = RandomForest::with_config(ForestConfig {
            n_trees: 5,
            ..ForestConfig::random_forest(1)
        })
        .fit(&train)
        .unwrap();
        let b = RandomForest::with_config(ForestConfig {
            n_trees: 5,
            ..ForestConfig::random_forest(2)
        })
        .fit(&train)
        .unwrap();
        assert_ne!(
            a.predict_proba(&train).unwrap(),
            b.predict_proba(&train).unwrap()
        );
    }
}
