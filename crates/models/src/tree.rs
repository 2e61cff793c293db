//! CART classification trees (gini impurity) over quantized features.
//!
//! The same builder powers four of the paper's nine classifiers: the plain
//! decision tree, both forest ensembles (best-split and random-split
//! variants) and the AdaBoost base stumps (via sample weights). Leaves store
//! the weighted positive-class fraction, so `predict_row` directly yields a
//! probability.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use safe_data::dataset::Dataset;
use safe_gbm::binner::BinnedDataset;
use safe_gbm::tree::{Tree, TreeNode};
use safe_stats::par::Parallelism;

use crate::classifier::{training_labels, Classifier, FittedClassifier, ModelError};

/// Per-node feature subsampling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxFeatures {
    /// Consider every feature (plain CART).
    All,
    /// √M features per node (forest default).
    Sqrt,
    /// A fixed fraction of features.
    Frac(f64),
}

impl MaxFeatures {
    fn count(self, m: usize) -> usize {
        match self {
            MaxFeatures::All => m,
            MaxFeatures::Sqrt => (m as f64).sqrt().round().max(1.0) as usize,
            MaxFeatures::Frac(f) => ((m as f64) * f).ceil().max(1.0) as usize,
        }
        .min(m)
    }
}

/// Split-point selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Splitter {
    /// Exhaustive best split per feature (CART, Random Forest).
    Best,
    /// One uniformly random split per feature (Extremely randomized Trees).
    Random,
}

/// Classification-tree hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Depth cap (scikit-learn's `None` is approximated with 25).
    pub max_depth: usize,
    /// Minimum rows in each child.
    pub min_samples_leaf: usize,
    /// Minimum rows required to attempt a split.
    pub min_samples_split: usize,
    /// Features considered per node.
    pub max_features: MaxFeatures,
    /// Best or random split points.
    pub splitter: Splitter,
    /// Quantization budget.
    pub max_bins: usize,
    /// RNG seed (feature subsets, random splits).
    pub seed: u64,
    /// Worker budget for feature quantization (0 = one worker per core).
    pub parallelism: Parallelism,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 25,
            min_samples_leaf: 1,
            min_samples_split: 2,
            max_features: MaxFeatures::All,
            splitter: Splitter::Best,
            max_bins: 256,
            seed: 0,
            parallelism: Parallelism::auto(),
        }
    }
}

/// Gini impurity of a weighted two-class node.
#[inline]
fn gini(wp: f64, wn: f64) -> f64 {
    let w = wp + wn;
    if w <= 0.0 {
        return 0.0;
    }
    let p = wp / w;
    2.0 * p * (1.0 - p)
}

struct SplitChoice {
    feature: usize,
    split_bin: u16,
    default_left: bool,
    /// Weighted impurity decrease.
    gain: f64,
}

/// Grow a classification tree. Exposed crate-wide so forests and AdaBoost
/// reuse the same builder with different configs/weights.
pub(crate) fn grow_classification_tree(
    binned: &BinnedDataset,
    labels: &[u8],
    weights: &[f64],
    rows: Vec<u32>,
    config: &TreeConfig,
    rng: &mut StdRng,
) -> Tree {
    let mut tree = Tree::default();
    tree.nodes.clear();
    build(&mut tree, binned, labels, weights, rows, config, rng, 0);
    tree
}

#[allow(clippy::too_many_arguments)]
fn build(
    tree: &mut Tree,
    binned: &BinnedDataset,
    labels: &[u8],
    weights: &[f64],
    rows: Vec<u32>,
    config: &TreeConfig,
    rng: &mut StdRng,
    depth: usize,
) -> usize {
    let (wp, wn) = rows.iter().fold((0.0, 0.0), |(p, n), &r| {
        let r = r as usize;
        if labels[r] == 1 {
            (p + weights[r], n)
        } else {
            (p, n + weights[r])
        }
    });
    let leaf_value = if wp + wn > 0.0 { wp / (wp + wn) } else { 0.5 };

    let can_split = depth < config.max_depth
        && rows.len() >= config.min_samples_split
        && wp > 0.0
        && wn > 0.0;
    let choice = if can_split {
        choose_split(binned, labels, weights, &rows, (wp, wn), config, rng)
    } else {
        None
    };

    match choice {
        None => {
            tree.nodes.push(TreeNode::Leaf { value: leaf_value });
            tree.nodes.len() - 1
        }
        Some(c) => {
            let (left_rows, right_rows) = partition(binned, &rows, &c);
            if left_rows.len() < config.min_samples_leaf
                || right_rows.len() < config.min_samples_leaf
            {
                tree.nodes.push(TreeNode::Leaf { value: leaf_value });
                return tree.nodes.len() - 1;
            }
            let threshold = binned.mapper(c.feature).threshold(c.split_bin);
            let idx = tree.nodes.len();
            tree.nodes.push(TreeNode::Leaf { value: 0.0 }); // placeholder
            let left = build(tree, binned, labels, weights, left_rows, config, rng, depth + 1);
            let right = build(tree, binned, labels, weights, right_rows, config, rng, depth + 1);
            tree.nodes[idx] = TreeNode::Internal {
                feature: c.feature,
                threshold,
                default_left: c.default_left,
                left,
                right,
                gain: c.gain,
            };
            idx
        }
    }
}

fn choose_split(
    binned: &BinnedDataset,
    labels: &[u8],
    weights: &[f64],
    rows: &[u32],
    totals: (f64, f64),
    config: &TreeConfig,
    rng: &mut StdRng,
) -> Option<SplitChoice> {
    let m = binned.n_features();
    let k = config.max_features.count(m);
    let mut all: Vec<usize> = (0..m).collect();
    let candidates: Vec<usize> = if k < m {
        all.shuffle(rng);
        all.truncate(k);
        all
    } else {
        all
    };

    let (wp_total, wn_total) = totals;
    let parent_impurity = gini(wp_total, wn_total);
    let mut best: Option<SplitChoice> = None;

    for f in candidates {
        let mapper = binned.mapper(f);
        let n_splits = mapper.n_split_candidates();
        if n_splits == 0 {
            continue;
        }
        // Weighted class histogram over this feature's bins.
        let n_bins = mapper.n_bins();
        let mut wp = vec![0.0f64; n_bins];
        let mut wn = vec![0.0f64; n_bins];
        let col = binned.bins(f);
        for &r in rows {
            let r = r as usize;
            let b = col[r] as usize;
            if labels[r] == 1 {
                wp[b] += weights[r];
            } else {
                wn[b] += weights[r];
            }
        }
        let missing = mapper.missing_bin() as usize;
        let (mp, mn) = (wp[missing], wn[missing]);

        let split_bins: Vec<u16> = match config.splitter {
            Splitter::Best => (0..n_splits as u16).collect(),
            Splitter::Random => {
                // ExtraTrees draws the threshold uniformly within the node's
                // *local* value range, so restrict to the occupied bins.
                let occupied = |b: usize| wp[b] > 0.0 || wn[b] > 0.0;
                let lo = (0..n_bins).find(|&b| b != missing && occupied(b));
                let hi = (0..n_bins).rev().find(|&b| b != missing && occupied(b));
                match (lo, hi) {
                    (Some(lo), Some(hi)) if lo < hi => {
                        // Valid split bins leave at least one occupied bin on
                        // each side: lo..=hi-1 (also capped to real splits).
                        let upper = (hi - 1).min(n_splits - 1);
                        if lo > upper {
                            continue;
                        }
                        vec![rng.gen_range(lo as u16..=upper as u16)]
                    }
                    _ => continue, // node is constant on this feature
                }
            }
        };

        let mut cum_p = 0.0;
        let mut cum_n = 0.0;
        let mut cursor = 0usize; // next bin to accumulate
        for sb in split_bins {
            // Accumulate bins up to and including `sb` (split_bins are
            // increasing for Best; Random has a single entry).
            while cursor <= sb as usize {
                cum_p += wp[cursor];
                cum_n += wn[cursor];
                cursor += 1;
            }
            for default_left in [false, true] {
                let (lp, ln) = if default_left {
                    (cum_p + mp, cum_n + mn)
                } else {
                    (cum_p, cum_n)
                };
                let rp = wp_total - lp;
                let rn = wn_total - ln;
                let wl = lp + ln;
                let wr = rp + rn;
                if wl <= 0.0 || wr <= 0.0 {
                    continue;
                }
                let w = wl + wr;
                let gain =
                    parent_impurity - (wl / w) * gini(lp, ln) - (wr / w) * gini(rp, rn);
                if gain <= 1e-12 {
                    continue;
                }
                if best.as_ref().map(|b| gain > b.gain).unwrap_or(true) {
                    best = Some(SplitChoice {
                        feature: f,
                        split_bin: sb,
                        default_left,
                        gain,
                    });
                }
            }
        }
    }
    best
}

fn partition(binned: &BinnedDataset, rows: &[u32], c: &SplitChoice) -> (Vec<u32>, Vec<u32>) {
    let bins = binned.bins(c.feature);
    let missing = binned.mapper(c.feature).missing_bin();
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &r in rows {
        let b = bins[r as usize];
        let go_left = if b == missing {
            c.default_left
        } else {
            b <= c.split_bin
        };
        if go_left {
            left.push(r);
        } else {
            right.push(r);
        }
    }
    (left, right)
}

/// The paper's "DT" classifier: a single CART tree with scikit-learn-like
/// defaults.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    config: TreeConfig,
}

impl DecisionTree {
    /// Default configuration with the given seed.
    pub fn new(seed: u64) -> Self {
        DecisionTree {
            config: TreeConfig { seed, ..TreeConfig::default() },
        }
    }

    /// Custom configuration.
    pub fn with_config(config: TreeConfig) -> Self {
        DecisionTree { config }
    }
}

/// A fitted tree (also the per-member output used by the ensembles).
pub struct FittedTree {
    tree: Tree,
    n_features: usize,
}

impl Classifier for DecisionTree {
    fn name(&self) -> &'static str {
        "DT"
    }
    fn fit(&self, train: &Dataset) -> Result<Box<dyn FittedClassifier>, ModelError> {
        let labels = training_labels(train)?;
        let binned = BinnedDataset::fit(train, self.config.max_bins, self.config.parallelism)
            .map_err(|e| ModelError::BadTrainingData(e.to_string()))?;
        let weights = vec![1.0; train.n_rows()];
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let tree = grow_classification_tree(
            &binned,
            labels,
            &weights,
            (0..train.n_rows() as u32).collect(),
            &self.config,
            &mut rng,
        );
        Ok(Box::new(FittedTree {
            tree,
            n_features: train.n_cols(),
        }))
    }
}

impl FittedClassifier for FittedTree {
    fn predict_proba(&self, ds: &Dataset) -> Result<Vec<f64>, ModelError> {
        self.check_shape(ds)?;
        let cols: Vec<&[f64]> = ds.columns().collect();
        let mut out = vec![0.0; ds.n_rows()];
        self.tree.predict_into(&cols, &mut out);
        Ok(out)
    }
    fn n_features(&self) -> usize {
        self.n_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safe_data::dataset::Dataset;
    use safe_stats::auc::auc;

    fn step_data(n: usize) -> Dataset {
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<u8> = (0..n).map(|i| (i >= n / 2) as u8).collect();
        Dataset::from_columns(vec!["x".into()], vec![x], Some(y)).unwrap()
    }

    #[test]
    fn perfect_split_on_step_data() {
        let ds = step_data(100);
        let model = DecisionTree::new(0).fit(&ds).unwrap();
        let probs = model.predict_proba(&ds).unwrap();
        assert_eq!(auc(&probs, ds.labels().unwrap()), 1.0);
    }

    #[test]
    fn leaves_are_probabilities() {
        let ds = step_data(64);
        let model = DecisionTree::new(0).fit(&ds).unwrap();
        for p in model.predict_proba(&ds).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn depth_cap_limits_tree() {
        let ds = step_data(200);
        let dt = DecisionTree::with_config(TreeConfig {
            max_depth: 1,
            ..TreeConfig::default()
        });
        let _ = dt.fit(&ds).unwrap(); // builds without blowing the cap
    }

    #[test]
    fn min_samples_leaf_respected() {
        // With min_samples_leaf = n/2 only a perfectly balanced root split
        // is permitted; the tree cannot isolate single rows.
        let ds = step_data(40);
        let dt = DecisionTree::with_config(TreeConfig {
            min_samples_leaf: 20,
            ..TreeConfig::default()
        });
        let fitted = dt.fit(&ds).unwrap();
        let probs = fitted.predict_proba(&ds).unwrap();
        let distinct: std::collections::BTreeSet<u64> =
            probs.iter().map(|p| p.to_bits()).collect();
        assert!(distinct.len() <= 2, "at most one split possible");
    }

    #[test]
    fn pure_labels_yield_single_leaf() {
        let x: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ds =
            Dataset::from_columns(vec!["x".into()], vec![x], Some(vec![1; 30])).unwrap();
        let model = DecisionTree::new(0).fit(&ds).unwrap();
        let probs = model.predict_proba(&ds).unwrap();
        assert!(probs.iter().all(|&p| p == 1.0));
    }

    #[test]
    fn weighted_growth_shifts_leaf_probabilities() {
        // Upweighting the positive rows must raise the positive leaf share.
        let ds = step_data(40);
        let labels = ds.labels().unwrap().to_vec();
        let binned = BinnedDataset::fit(&ds, 256, Parallelism::auto()).unwrap();
        let config = TreeConfig { max_depth: 1, ..TreeConfig::default() };
        let mut rng = StdRng::seed_from_u64(0);
        let uniform = vec![1.0; 40];
        let boosted: Vec<f64> = labels.iter().map(|&l| if l == 1 { 5.0 } else { 1.0 }).collect();
        let t_uniform = grow_classification_tree(&binned, &labels, &uniform, (0..40).collect(), &config, &mut rng);
        let t_boosted = grow_classification_tree(&binned, &labels, &boosted, (0..40).collect(), &config, &mut rng);
        // Mixed-region leaf probability grows with positive weight (here the
        // split is clean, so compare root-level totals via prediction means).
        let mean_u: f64 = (0..40).map(|i| t_uniform.predict_row(&[i as f64])).sum::<f64>() / 40.0;
        let mean_b: f64 = (0..40).map(|i| t_boosted.predict_row(&[i as f64])).sum::<f64>() / 40.0;
        assert!(mean_b >= mean_u);
    }

    #[test]
    fn random_splitter_still_learns() {
        let ds = step_data(300);
        let dt = DecisionTree::with_config(TreeConfig {
            splitter: Splitter::Random,
            seed: 7,
            ..TreeConfig::default()
        });
        let model = dt.fit(&ds).unwrap();
        let probs = model.predict_proba(&ds).unwrap();
        assert!(auc(&probs, ds.labels().unwrap()) > 0.95);
    }

    #[test]
    fn shape_mismatch_detected() {
        let ds = step_data(20);
        let model = DecisionTree::new(0).fit(&ds).unwrap();
        let wide = Dataset::from_columns(
            vec!["a".into(), "b".into()],
            vec![vec![1.0], vec![2.0]],
            None,
        )
        .unwrap();
        assert!(matches!(
            model.predict_proba(&wide).unwrap_err(),
            ModelError::ShapeMismatch { expected: 1, actual: 2 }
        ));
    }

    #[test]
    fn max_features_counts() {
        assert_eq!(MaxFeatures::All.count(100), 100);
        assert_eq!(MaxFeatures::Sqrt.count(100), 10);
        assert_eq!(MaxFeatures::Sqrt.count(1), 1);
        assert_eq!(MaxFeatures::Frac(0.25).count(100), 25);
        assert_eq!(MaxFeatures::Frac(0.0001).count(100), 1);
    }
}
