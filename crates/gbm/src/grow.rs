//! Greedy tree construction over binned features.
//!
//! Split finding is histogram-based with the LightGBM-style **subtraction
//! trick**: a node's histogram equals the per-bin sum of its children's, so
//! after an in-place partition of the node's rows only the *smaller* child's
//! histograms are accumulated from rows (`O(child_rows × features)`); the
//! larger child's are derived as `parent − smaller` (`O(bins × features)`).
//! Both happen in one parallel pass over the features per split node.
//! [`GrowStats`] tracks how often each path ran (`histogram_builds` vs
//! `histogram_subtractions`).

use std::sync::{Mutex, PoisonError};

use crate::binner::BinnedDataset;
use crate::config::GbmConfig;
use crate::histogram::{
    best_split_for_feature, build_histogram, leaf_weight, subtract_sibling, HistBin, SplitInfo,
};
use crate::tree::{Tree, TreeNode};

/// Construction telemetry for one (or several accumulated) grown trees.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GrowStats {
    /// Per-feature histograms accumulated from rows during split finding
    /// (the root and every smaller child).
    pub histogram_builds: u64,
    /// Per-feature histograms derived by `parent − sibling` subtraction
    /// instead of accumulation (every larger child).
    pub histogram_subtractions: u64,
    /// Nodes (internal + leaf) created at each depth; index = depth.
    pub nodes_per_depth: Vec<u64>,
    /// Wall-clock microseconds spent in histogram passes: the root's
    /// accumulation from rows, and each split node's fused pass that
    /// accumulates the smaller child and subtracts it from the parent.
    /// Timing telemetry only: never compared across runs and never folded
    /// into report counters — it feeds the sink-only `gbm_hist_build_us`
    /// observe stream.
    pub hist_build_us: u64,
}

impl GrowStats {
    /// Fold another tree's stats into this accumulator.
    pub fn merge(&mut self, other: &GrowStats) {
        self.histogram_builds += other.histogram_builds;
        self.histogram_subtractions += other.histogram_subtractions;
        self.hist_build_us += other.hist_build_us;
        if self.nodes_per_depth.len() < other.nodes_per_depth.len() {
            self.nodes_per_depth.resize(other.nodes_per_depth.len(), 0);
        }
        for (acc, &n) in self.nodes_per_depth.iter_mut().zip(&other.nodes_per_depth) {
            *acc += n;
        }
    }

    /// Total nodes across all depths.
    pub fn total_nodes(&self) -> u64 {
        self.nodes_per_depth.iter().sum()
    }

    fn count_node(&mut self, depth: usize) {
        if self.nodes_per_depth.len() <= depth {
            self.nodes_per_depth.resize(depth + 1, 0);
        }
        self.nodes_per_depth[depth] += 1;
    }
}

/// Per-candidate-feature histograms of one node; `None` for features with
/// no split candidates (constant columns), which are never histogrammed.
type NodeHistograms = Vec<Option<Vec<HistBin>>>;

/// Grow one regression tree on the given row/feature subsets.
///
/// `grads`/`hesss` are full-length per-row derivative vectors; `rows` selects
/// the (possibly subsampled) training rows; `features` the (possibly
/// column-subsampled) candidate split features. Leaf values are already
/// multiplied by the learning rate.
pub fn grow_tree(
    binned: &BinnedDataset,
    grads: &[f64],
    hesss: &[f64],
    rows: Vec<u32>,
    features: &[usize],
    config: &GbmConfig,
) -> Tree {
    let mut stats = GrowStats::default();
    grow_tree_observed(binned, grads, hesss, rows, features, config, &mut stats)
}

/// [`grow_tree`], additionally accumulating construction telemetry into
/// `stats` (histogram builds and subtractions, nodes created per depth).
pub fn grow_tree_observed(
    binned: &BinnedDataset,
    grads: &[f64],
    hesss: &[f64],
    mut rows: Vec<u32>,
    features: &[usize],
    config: &GbmConfig,
    stats: &mut GrowStats,
) -> Tree {
    let mut tree = Tree::default();
    tree.nodes.clear();
    let root_hists = if splittable(0, rows.len(), config) {
        build_feature_histograms(binned, &rows, grads, hesss, features, config, stats)
    } else {
        Vec::new()
    };
    let mut scratch = vec![0u32; rows.len()];
    build_node(
        &mut tree, binned, grads, hesss, &mut rows, &mut scratch, root_hists, features, config, 0,
        stats,
    );
    tree
}

/// Whether a node at `depth` with `n_rows` rows may attempt a split (and
/// therefore needs histograms at all).
fn splittable(depth: usize, n_rows: usize, config: &GbmConfig) -> bool {
    depth < config.max_depth && n_rows >= 2
}

/// Recursively build the subtree rooted at the next free arena slot and
/// return that slot's index. `rows`/`scratch` are this node's slices of the
/// tree-wide row and scratch buffers; `hists` are this node's per-feature
/// histograms (empty when the node cannot split), *moved* in so the larger
/// child can reuse the storage via subtraction.
#[allow(clippy::too_many_arguments)]
fn build_node(
    tree: &mut Tree,
    binned: &BinnedDataset,
    grads: &[f64],
    hesss: &[f64],
    rows: &mut [u32],
    scratch: &mut [u32],
    hists: NodeHistograms,
    features: &[usize],
    config: &GbmConfig,
    depth: usize,
    stats: &mut GrowStats,
) -> usize {
    stats.count_node(depth);
    let (g, h) = rows.iter().fold((0.0, 0.0), |(g, h), &r| {
        (g + grads[r as usize], h + hesss[r as usize])
    });
    let totals = (g, h, rows.len() as u32);

    let split = if hists.is_empty() {
        None
    } else {
        find_best_split(binned, &hists, features, totals, config)
    };

    match split {
        None => {
            let value = leaf_weight(g, h, config.lambda) * config.learning_rate;
            tree.nodes.push(TreeNode::Leaf { value });
            tree.nodes.len() - 1
        }
        Some(split) => {
            let n_left = partition_in_place(binned, rows, scratch, &split);
            debug_assert!(n_left > 0 && n_left < rows.len());
            let threshold = binned.mapper(split.feature).threshold(split.split_bin);
            // Reserve this node's slot before the children claim theirs.
            let idx = tree.nodes.len();
            tree.nodes.push(TreeNode::Leaf { value: 0.0 }); // placeholder

            let (left_rows, right_rows) = rows.split_at_mut(n_left);
            let (left_scratch, right_scratch) = scratch.split_at_mut(n_left);
            let (left_hists, right_hists) = child_histograms(
                binned, grads, hesss, left_rows, right_rows, hists, features, config, depth + 1,
                stats,
            );

            let left = build_node(
                tree, binned, grads, hesss, left_rows, left_scratch, left_hists, features, config,
                depth + 1, stats,
            );
            let right = build_node(
                tree, binned, grads, hesss, right_rows, right_scratch, right_hists, features,
                config, depth + 1, stats,
            );
            tree.nodes[idx] = TreeNode::Internal {
                feature: split.feature,
                threshold,
                default_left: split.default_left,
                left,
                right,
                gain: split.gain,
            };
            idx
        }
    }
}

/// Histograms for the two children of a just-split node, in one parallel
/// pass over the features: each feature's smaller-child histogram is
/// accumulated from its rows and, when the larger child can split,
/// subtracted from the parent's histogram in place (the parent is
/// consumed). Children that cannot split get empty histogram sets and
/// cost nothing.
#[allow(clippy::too_many_arguments)]
fn child_histograms(
    binned: &BinnedDataset,
    grads: &[f64],
    hesss: &[f64],
    left_rows: &[u32],
    right_rows: &[u32],
    parent: NodeHistograms,
    features: &[usize],
    config: &GbmConfig,
    child_depth: usize,
    stats: &mut GrowStats,
) -> (NodeHistograms, NodeHistograms) {
    let left_needs = splittable(child_depth, left_rows.len(), config);
    let right_needs = splittable(child_depth, right_rows.len(), config);
    let smaller_is_left = left_rows.len() <= right_rows.len();
    let (small_rows, small_needs, large_needs) = if smaller_is_left {
        (left_rows, left_needs, right_needs)
    } else {
        (right_rows, right_needs, left_needs)
    };
    if !small_needs && !large_needs {
        return (Vec::new(), Vec::new());
    }

    // Each parent histogram is taken exactly once, by the chunk that owns
    // its feature; a guard is held only for that `take`.
    let parent: Vec<Mutex<Option<Vec<HistBin>>>> = if large_needs {
        parent.into_iter().map(Mutex::new).collect()
    } else {
        Vec::new()
    };
    stats.histogram_builds += count_histogrammed(binned, features);
    let t0 = std::time::Instant::now();
    let pairs = safe_stats::par::par_map(config.parallelism, features.len(), |i| {
        let f = features[i];
        let mapper = binned.mapper(f);
        if mapper.n_split_candidates() == 0 {
            return (None, None);
        }
        let small = build_histogram(binned.bins(f), small_rows, grads, hesss, mapper.n_bins());
        let large = parent
            .get(i)
            .and_then(|p| p.lock().unwrap_or_else(PoisonError::into_inner).take())
            .map(|mut p| {
                subtract_sibling(&mut p, &small);
                p
            });
        (small_needs.then_some(small), large)
    });
    stats.hist_build_us += t0.elapsed().as_micros() as u64;
    let (small, large): (NodeHistograms, NodeHistograms) = pairs.into_iter().unzip();
    // None-ness is a pure function of the mapper, so parent and child
    // entries align: every smaller-child histogram had a parent one.
    stats.histogram_subtractions += large.iter().flatten().count() as u64;
    let small = if small_needs { small } else { Vec::new() };
    let large = if large_needs { large } else { Vec::new() };
    if smaller_is_left {
        (small, large)
    } else {
        (large, small)
    }
}

/// Accumulate one node's per-feature histograms from its rows, in parallel
/// across features. Features without split candidates are skipped (`None`).
fn build_feature_histograms(
    binned: &BinnedDataset,
    rows: &[u32],
    grads: &[f64],
    hesss: &[f64],
    features: &[usize],
    config: &GbmConfig,
    stats: &mut GrowStats,
) -> NodeHistograms {
    stats.histogram_builds += count_histogrammed(binned, features);
    let t0 = std::time::Instant::now();
    let histograms = safe_stats::par::par_map_slice(config.parallelism, features, |&f| {
        let mapper = binned.mapper(f);
        if mapper.n_split_candidates() == 0 {
            return None;
        }
        Some(build_histogram(binned.bins(f), rows, grads, hesss, mapper.n_bins()))
    });
    stats.hist_build_us += t0.elapsed().as_micros() as u64;
    histograms
}

/// How many of `features` get a histogram: those with split candidates.
/// Counted serially before a parallel pass, so no atomics are needed.
fn count_histogrammed(binned: &BinnedDataset, features: &[usize]) -> u64 {
    features
        .iter()
        .filter(|&&f| binned.mapper(f).n_split_candidates() > 0)
        .count() as u64
}

/// Best split across the candidate features from the node's prebuilt
/// histograms; the scan runs in parallel across features. Ties resolve to
/// the *last* of the equal-gain features in candidate order
/// (`Iterator::max_by` keeps the last maximum), for any thread count.
fn find_best_split(
    binned: &BinnedDataset,
    hists: &NodeHistograms,
    features: &[usize],
    totals: (f64, f64, u32),
    config: &GbmConfig,
) -> Option<SplitInfo> {
    let candidates: Vec<Option<SplitInfo>> =
        safe_stats::par::par_map(config.parallelism, features.len(), |i| {
            let hist = hists[i].as_ref()?;
            let f = features[i];
            best_split_for_feature(
                f,
                hist,
                binned.mapper(f).n_value_bins(),
                totals,
                config.lambda,
                config.gamma,
                config.min_child_weight,
            )
        });
    candidates
        .into_iter()
        .flatten()
        .max_by(|a, b| a.gain.total_cmp(&b.gain))
}

/// Stable in-place partition: rows routed left keep their order at the
/// front of `rows`, rows routed right keep theirs at the back (staged
/// through `scratch`). Returns the left count.
fn partition_in_place(
    binned: &BinnedDataset,
    rows: &mut [u32],
    scratch: &mut [u32],
    split: &SplitInfo,
) -> usize {
    let bins = binned.bins(split.feature);
    let missing = binned.mapper(split.feature).missing_bin();
    let mut n_left = 0usize;
    let mut n_right = 0usize;
    for i in 0..rows.len() {
        let r = rows[i];
        let b = bins[r as usize];
        let go_left = if b == missing {
            split.default_left
        } else {
            b <= split.split_bin
        };
        if go_left {
            rows[n_left] = r;
            n_left += 1;
        } else {
            scratch[n_right] = r;
            n_right += 1;
        }
    }
    rows[n_left..].copy_from_slice(&scratch[..n_right]);
    n_left
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Objective;
    use safe_data::dataset::Dataset;
    use safe_stats::par::Parallelism;

    fn binned_of(cols: Vec<Vec<f64>>) -> BinnedDataset {
        let names = (0..cols.len()).map(|i| format!("f{i}")).collect();
        let ds = Dataset::from_columns(names, cols, None).unwrap();
        BinnedDataset::fit(&ds, 256, Parallelism::auto()).unwrap()
    }

    fn grads_for(labels: &[u8]) -> (Vec<f64>, Vec<f64>) {
        // Logistic derivatives at margin 0.
        labels
            .iter()
            .map(|&y| crate::loss::grad_hess(Objective::Logistic, 0.0, y as f64))
            .unzip()
    }

    #[test]
    fn grows_a_single_split_for_a_step_function() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let labels: Vec<u8> = (0..100).map(|i| (i >= 50) as u8).collect();
        let binned = binned_of(vec![x]);
        let (g, h) = grads_for(&labels);
        let config = GbmConfig { max_depth: 3, ..GbmConfig::default() };
        let tree = grow_tree(&binned, &g, &h, (0..100).collect(), &[0], &config);
        assert!(tree.depth() >= 1);
        // Predictions on both sides of the step must differ in sign.
        let lo = tree.predict_row(&[10.0]);
        let hi = tree.predict_row(&[90.0]);
        assert!(lo < 0.0 && hi > 0.0, "lo={lo} hi={hi}");
    }

    #[test]
    fn respects_max_depth() {
        let x: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let labels: Vec<u8> = (0..256).map(|i| ((i / 2) % 2) as u8).collect();
        let binned = binned_of(vec![x]);
        let (g, h) = grads_for(&labels);
        for depth in 1..=4 {
            let config = GbmConfig { max_depth: depth, ..GbmConfig::default() };
            let tree = grow_tree(&binned, &g, &h, (0..256).collect(), &[0], &config);
            assert!(tree.depth() <= depth, "depth {} > cap {depth}", tree.depth());
        }
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let labels = vec![1u8; 50];
        let binned = binned_of(vec![x]);
        let (g, h) = grads_for(&labels);
        let tree = grow_tree(&binned, &g, &h, (0..50).collect(), &[0], &GbmConfig::default());
        assert_eq!(tree.n_leaves(), 1, "uniform gradients should not split");
    }

    #[test]
    fn xor_needs_depth_two() {
        // XOR of two binary features, with *asymmetric* corner counts: a
        // perfectly balanced XOR gives every first split exactly zero gain
        // (greedy boosters, including XGBoost, rightly refuse it), so the
        // corners are weighted 60/50/50/40 to break the tie.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (x, y, count) in [(0.0, 0.0, 60), (0.0, 1.0, 50), (1.0, 0.0, 50), (1.0, 1.0, 40)] {
            for _ in 0..count {
                a.push(x);
                b.push(y);
            }
        }
        let n = a.len();
        let labels: Vec<u8> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| ((x as i32) ^ (y as i32)) as u8)
            .collect();
        let binned = binned_of(vec![a.clone(), b.clone()]);
        let (g, h) = grads_for(&labels);
        let config = GbmConfig { max_depth: 2, ..GbmConfig::default() };
        let tree = grow_tree(&binned, &g, &h, (0..n as u32).collect(), &[0, 1], &config);
        // All four corners correctly signed.
        for (x, y) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            let pred = tree.predict_row(&[x, y]);
            let want_positive = (x as i32 ^ y as i32) == 1;
            assert_eq!(pred > 0.0, want_positive, "corner ({x},{y}) pred={pred}");
        }
    }

    #[test]
    fn feature_subset_is_honored() {
        // Feature 0 is perfectly predictive, feature 1 is noise — but only
        // feature 1 is offered.
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let noise: Vec<f64> = (0..100).map(|i| ((i * 7919) % 100) as f64).collect();
        let labels: Vec<u8> = (0..100).map(|i| (i >= 50) as u8).collect();
        let binned = binned_of(vec![x, noise]);
        let (g, h) = grads_for(&labels);
        let tree = grow_tree(&binned, &g, &h, (0..100).collect(), &[1], &GbmConfig::default());
        for (f, _) in tree.split_gains() {
            assert_eq!(f, 1, "must only split on the offered feature");
        }
    }

    #[test]
    fn row_subset_is_honored() {
        // Only rows < 50 participate; there the label is constant → leaf.
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let labels: Vec<u8> = (0..100).map(|i| (i >= 50) as u8).collect();
        let binned = binned_of(vec![x]);
        let (g, h) = grads_for(&labels);
        let tree = grow_tree(&binned, &g, &h, (0..50).collect(), &[0], &GbmConfig::default());
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn missing_rows_are_routed_and_learned() {
        // Feature is NaN exactly for positives: the split must exploit the
        // missing bin via default direction.
        let n = 100;
        let labels: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let x: Vec<f64> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| if l == 1 { f64::NAN } else { i as f64 })
            .collect();
        let binned = binned_of(vec![x]);
        let (g, h) = grads_for(&labels);
        let tree = grow_tree(&binned, &g, &h, (0..n as u32).collect(), &[0], &GbmConfig::default());
        let on_missing = tree.predict_row(&[f64::NAN]);
        let on_present = tree.predict_row(&[4.0]);
        assert!(on_missing > 0.0, "missing → positive leaf, got {on_missing}");
        assert!(on_present < 0.0, "present → negative leaf, got {on_present}");
    }

    #[test]
    fn gamma_prunes_all_splits() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let labels: Vec<u8> = (0..100).map(|i| (i >= 50) as u8).collect();
        let binned = binned_of(vec![x]);
        let (g, h) = grads_for(&labels);
        let config = GbmConfig { gamma: 1e9, ..GbmConfig::default() };
        let tree = grow_tree(&binned, &g, &h, (0..100).collect(), &[0], &config);
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn subtraction_is_exercised_and_counted() {
        // A depth-3 tree on splittable data must derive at least one larger
        // child by subtraction, and every histogram either came from rows or
        // from a subtraction — never both for the same node/feature.
        let x: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..200).map(|i| ((i * 31) % 200) as f64).collect();
        let labels: Vec<u8> = (0..200).map(|i| ((i / 25) % 2) as u8).collect();
        let binned = binned_of(vec![x, y]);
        let (g, h) = grads_for(&labels);
        let config = GbmConfig { max_depth: 3, ..GbmConfig::default() };
        let mut stats = GrowStats::default();
        let tree =
            grow_tree_observed(&binned, &g, &h, (0..200).collect(), &[0, 1], &config, &mut stats);
        assert!(tree.depth() >= 2, "need internal structure for this test");
        assert!(stats.histogram_subtractions > 0, "{stats:?}");
        assert!(stats.histogram_builds > 0, "{stats:?}");
    }

    #[test]
    fn equal_gain_ties_go_to_the_later_feature() {
        // Features 3 and 12 are the same informative column; the other 14
        // are constant. With 16 candidates, threads = 2 puts the two in
        // different chunks.
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let labels: Vec<u8> = (0..100).map(|i| (i >= 50) as u8).collect();
        let cols: Vec<Vec<f64>> = (0..16)
            .map(|f| if f == 3 || f == 12 { x.clone() } else { vec![1.0; 100] })
            .collect();
        let binned = binned_of(cols);
        let (g, h) = grads_for(&labels);
        let features: Vec<usize> = (0..16).collect();
        for threads in [1, 2] {
            let config = GbmConfig {
                max_depth: 1,
                parallelism: Parallelism::new(threads),
                ..GbmConfig::default()
            };
            let tree = grow_tree(&binned, &g, &h, (0..100).collect(), &features, &config);
            match tree.nodes[0] {
                TreeNode::Internal { feature, .. } => assert_eq!(feature, 12, "threads={threads}"),
                TreeNode::Leaf { .. } => panic!("root must split (threads={threads})"),
            }
        }
    }

    #[test]
    fn stable_partition_preserves_relative_row_order() {
        let x = vec![5.0, 1.0, 5.0, 1.0, 5.0, 1.0];
        let binned = binned_of(vec![x]);
        let split = SplitInfo { feature: 0, split_bin: 0, gain: 1.0, default_left: false };
        let mut rows: Vec<u32> = vec![0, 1, 2, 3, 4, 5];
        let mut scratch = vec![0u32; 6];
        let n_left = partition_in_place(&binned, &mut rows, &mut scratch, &split);
        assert_eq!(n_left, 3);
        assert_eq!(&rows[..3], &[1, 3, 5], "left side keeps original order");
        assert_eq!(&rows[3..], &[0, 2, 4], "right side keeps original order");
    }
}
