//! Brute-force k-nearest-neighbors — the paper's "kNN" classifier.
//!
//! Features are standardized with training statistics (unscaled industrial
//! columns make Euclidean distance meaningless), distances are exact L2, and
//! the score is the positive fraction among the k nearest training rows
//! (scikit-learn's `predict_proba` with uniform weights, k = 5).

use safe_data::dataset::Dataset;
use safe_stats::par::{par_map, Parallelism};

use crate::classifier::{training_labels, Classifier, FittedClassifier, ModelError};
use crate::scaler::StandardScaler;

/// kNN hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnnConfig {
    /// Neighborhood size (scikit-learn default: 5).
    pub k: usize,
    /// Worker budget for query scoring (0 = one worker per core).
    pub parallelism: Parallelism,
}

/// The paper's "kNN" classifier.
#[derive(Debug, Clone)]
pub struct KNearestNeighbors {
    config: KnnConfig,
}

impl KNearestNeighbors {
    /// k = 5, the scikit-learn default.
    pub fn default_k() -> Self {
        KNearestNeighbors {
            config: KnnConfig { k: 5, parallelism: Parallelism::auto() },
        }
    }

    /// Custom k.
    pub fn with_k(k: usize) -> Self {
        KNearestNeighbors {
            config: KnnConfig { k: k.max(1), parallelism: Parallelism::auto() },
        }
    }

    /// Explicit worker budget for query scoring.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }
}

/// Fitted kNN: the standardized training matrix plus labels.
pub struct FittedKnn {
    scaler: StandardScaler,
    train_rows: Vec<Vec<f64>>,
    labels: Vec<u8>,
    k: usize,
    parallelism: Parallelism,
}

impl Classifier for KNearestNeighbors {
    fn name(&self) -> &'static str {
        "kNN"
    }
    fn fit(&self, train: &Dataset) -> Result<Box<dyn FittedClassifier>, ModelError> {
        let labels = training_labels(train)?.to_vec();
        let scaler = StandardScaler::fit(train);
        let train_rows = scaler.transform_rows(train);
        Ok(Box::new(FittedKnn {
            scaler,
            train_rows,
            labels,
            k: self.config.k,
            parallelism: self.config.parallelism,
        }))
    }
}

impl FittedClassifier for FittedKnn {
    fn predict_proba(&self, ds: &Dataset) -> Result<Vec<f64>, ModelError> {
        self.check_shape(ds)?;
        let queries = self.scaler.transform_rows(ds);
        let k = self.k.min(self.train_rows.len());
        // One query per parallel task; each scans the training matrix.
        let out = par_map(self.parallelism, queries.len(), |qi| {
            let q = &queries[qi];
            // Max-heap of (dist, label) capped at k via simple insertion —
            // k is tiny (5), so linear maintenance beats a real heap. The
            // scaler maps non-finite cells to 0, so distances are finite
            // and `total_cmp` orders them as `<` does.
            let mut nearest: Vec<(f64, u8)> = Vec::with_capacity(k + 1);
            for (row, &label) in self.train_rows.iter().zip(&self.labels) {
                let mut d = 0.0;
                for (a, b) in q.iter().zip(row) {
                    let diff = a - b;
                    d += diff * diff;
                }
                if nearest.len() < k {
                    nearest.push((d, label));
                    nearest.sort_by(|a, b| a.0.total_cmp(&b.0));
                } else if d < nearest[k - 1].0 {
                    nearest[k - 1] = (d, label);
                    nearest.sort_by(|a, b| a.0.total_cmp(&b.0));
                }
            }
            let pos = nearest.iter().filter(|(_, l)| *l == 1).count();
            pos as f64 / nearest.len().max(1) as f64
        });
        Ok(out)
    }
    fn n_features(&self) -> usize {
        self.scaler.n_features()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use safe_stats::auc::auc;

    fn blobs(n: usize, seed: u64) -> Dataset {
        // Two Gaussian-ish blobs at (±1, ±1).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c0 = Vec::new();
        let mut c1 = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = (i % 2) as u8;
            let center = if label == 1 { 1.0 } else { -1.0 };
            c0.push(center + rng.gen_range(-0.8..0.8));
            c1.push(center + rng.gen_range(-0.8..0.8));
            y.push(label);
        }
        Dataset::from_columns(vec!["a".into(), "b".into()], vec![c0, c1], Some(y)).unwrap()
    }

    #[test]
    fn separates_blobs() {
        let train = blobs(400, 1);
        let test = blobs(200, 2);
        let model = KNearestNeighbors::default_k().fit(&train).unwrap();
        let probs = model.predict_proba(&test).unwrap();
        let a = auc(&probs, test.labels().unwrap());
        assert!(a > 0.95, "auc = {a}");
    }

    #[test]
    fn k_one_memorizes_training_data() {
        let train = blobs(100, 3);
        let model = KNearestNeighbors::with_k(1).fit(&train).unwrap();
        let probs = model.predict_proba(&train).unwrap();
        let labels = train.labels().unwrap();
        for (p, &y) in probs.iter().zip(labels) {
            assert_eq!(*p, y as f64, "1-NN on its own training point");
        }
    }

    #[test]
    fn probs_are_neighbor_fractions() {
        let train = blobs(50, 4);
        let model = KNearestNeighbors::with_k(5).fit(&train).unwrap();
        for p in model.predict_proba(&train).unwrap() {
            let scaled = p * 5.0;
            assert!((scaled - scaled.round()).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn scaling_makes_wide_features_harmless() {
        // Second feature is pure noise at 1000× the scale; standardization
        // keeps the signal feature relevant.
        let mut rng = StdRng::seed_from_u64(5);
        let n = 300;
        let sig: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { -1.0 } else { 1.0 }).collect();
        let noise: Vec<f64> = (0..n).map(|_| rng.gen_range(-1000.0..1000.0)).collect();
        let y: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let ds = Dataset::from_columns(
            vec!["sig".into(), "noise".into()],
            vec![sig, noise],
            Some(y),
        )
        .unwrap();
        let model = KNearestNeighbors::default_k().fit(&ds).unwrap();
        let probs = model.predict_proba(&ds).unwrap();
        let a = auc(&probs, ds.labels().unwrap());
        assert!(a > 0.9, "auc = {a}");
    }

    #[test]
    fn k_larger_than_train_is_capped() {
        let train = blobs(4, 6);
        let model = KNearestNeighbors::with_k(50).fit(&train).unwrap();
        let probs = model.predict_proba(&train).unwrap();
        assert_eq!(probs.len(), 4);
        for p in probs {
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
