//! Greedy tree construction over binned features.
//!
//! Split finding is histogram-based with the LightGBM-style **subtraction
//! trick**: a node's histogram equals the per-bin sum of its children's, so
//! after an in-place partition of the node's rows only the *smaller* child's
//! histograms are accumulated from rows (`O(child_rows × features)`); the
//! larger child's are derived as `parent − smaller` (`O(bins × features)`).
//!
//! The root and every split node cost one parallel pass over the features:
//! the chunk that owns a feature builds (and subtracts) that feature's
//! histograms and scans them for each child's best split on it. Histogram
//! storage comes from a `HistogramPool` that lives for a whole booster
//! fit. Sets are taken from it and given back only on the calling thread,
//! so pool workers fill, zero and subtract buffers but never allocate or
//! free one. [`GrowStats`] tracks how often each path ran
//! (`histogram_builds` vs `histogram_subtractions`).

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use safe_stats::par::par_map;

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
    /// Wall-clock microseconds spent in histogram passes: the root's pass
    /// and each split node's pass, which build the histograms, subtract
    /// the larger child's from the parent's, and scan each child that can
    /// split for its best split. Timing telemetry only: never compared
    /// across runs and never folded into report counters — it feeds the
    /// sink-only `gbm_hist_build_us` observe stream.
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

/// One node's histograms, one buffer per binned column. Only columns that
/// a tree of the fit sampled, and that have split candidates, hold a
/// buffer; the others stay empty.
type HistogramSet = Vec<Vec<HistBin>>;

/// Histogram storage for one booster fit, reused by every node of every
/// tree. Sets are keyed by binned column, so a recycled set serves any
/// tree's column sample.
///
/// Sets are taken and given back only on the calling thread. Buffers that
/// pool workers allocated and the calling thread freed went back to each
/// worker's malloc arena, which glibc then trimmed, so the next split
/// node faulted its histogram pages in again.
#[derive(Debug, Default)]
pub(crate) struct HistogramPool {
    free: Vec<HistogramSet>,
    /// Sets created over the pool's life.
    #[cfg(test)]
    created: usize,
}

impl HistogramPool {
    /// A set with a buffer for each of `features`, which must all have
    /// split candidates. A recycled buffer keeps its old bins until the
    /// pass that fills it zeroes them.
    fn take(&mut self, binned: &BinnedDataset, features: &[usize]) -> HistogramSet {
        let mut set = match self.free.pop() {
            Some(set) => set,
            None => {
                #[cfg(test)]
                {
                    self.created += 1;
                }
                vec![Vec::new(); binned.n_features()]
            }
        };
        for &f in features {
            if set[f].is_empty() {
                set[f] = vec![HistBin::default(); binned.mapper(f).n_bins()];
            }
        }
        set
    }

    fn give(&mut self, set: HistogramSet) {
        self.free.push(set);
    }

    #[cfg(test)]
    fn sets_created(&self) -> usize {
        self.created
    }
}

/// A node's (G, H, row count).
type Totals = (f64, f64, u32);

/// Sum a node's gradients and hessians in row order.
fn totals(rows: &[u32], grads: &[f64], hesss: &[f64]) -> Totals {
    let (g, h) = rows.iter().fold((0.0, 0.0), |(g, h), &r| {
        (g + grads[r as usize], h + hesss[r as usize])
    });
    (g, h, rows.len() as u32)
}

/// Whether a node at `depth` with `n_rows` rows may attempt a split (and
/// therefore needs histograms at all).
fn splittable(depth: usize, n_rows: usize, config: &GbmConfig) -> bool {
    depth < config.max_depth && n_rows >= 2
}

/// What the pass that built a node's histograms decided about it.
struct Node {
    totals: Totals,
    /// The node's best split and the histograms it was found on; `None`
    /// makes the node a leaf.
    split: Option<(SplitInfo, HistogramSet)>,
}

/// One feature's share of a pass: its buffers, handed `&mut` to the chunk
/// that owns the feature, and the best split that chunk found on each.
struct FeatureJob<'s> {
    feature: usize,
    /// Zeroed, then accumulated from the pass's rows.
    built: &'s mut Vec<HistBin>,
    /// The parent's histogram, turned into the sibling's by subtraction.
    parent: Option<&'s mut Vec<HistBin>>,
    /// Best split on `built` and on `parent`, for the sides scanned.
    best: [Option<SplitInfo>; 2],
}

/// Grow one regression tree on the given row/feature subsets.
///
/// `grads`/`hesss` are full-length per-row derivative vectors; `rows` selects
/// the (possibly subsampled) training rows; `features` the (possibly
/// column-subsampled) distinct candidate split features. Leaf values are
/// already multiplied by the learning rate.
pub fn grow_tree(
    binned: &BinnedDataset,
    grads: &[f64],
    hesss: &[f64],
    rows: Vec<u32>,
    features: &[usize],
    config: &GbmConfig,
) -> Tree {
    let mut pool = HistogramPool::default();
    let mut stats = GrowStats::default();
    grow_tree_observed(
        binned, grads, hesss, rows, features, config, &mut pool, &mut stats,
    )
}

/// [`grow_tree`], taking histogram storage from `pool` and accumulating
/// construction telemetry into `stats` (histogram builds and subtractions,
/// nodes created per depth).
#[allow(clippy::too_many_arguments)]
pub(crate) fn grow_tree_observed(
    binned: &BinnedDataset,
    grads: &[f64],
    hesss: &[f64],
    mut rows: Vec<u32>,
    features: &[usize],
    config: &GbmConfig,
    pool: &mut HistogramPool,
    stats: &mut GrowStats,
) -> Tree {
    let mut grower = Grower {
        binned,
        grads,
        hesss,
        features: features
            .iter()
            .copied()
            .filter(|&f| binned.mapper(f).n_split_candidates() > 0)
            .collect(),
        config,
        pool,
        stats,
        tree: Tree::default(),
    };
    let root_totals = totals(&rows, grads, hesss);
    let split = if splittable(0, rows.len(), config) {
        let mut set = grower.pool.take(binned, &grower.features);
        let (best, _) = grower.pass(&rows, &mut set, Some(root_totals), None);
        grower.keep(best, set)
    } else {
        None
    };
    let mut scratch = vec![0u32; rows.len()];
    let root = Node { totals: root_totals, split };
    grower.build_node(&mut rows, &mut scratch, root, 0);
    grower.tree
}

/// One tree's construction state.
struct Grower<'a> {
    binned: &'a BinnedDataset,
    grads: &'a [f64],
    hesss: &'a [f64],
    /// The candidate features that have split candidates, in candidate
    /// order: the only ones histogrammed.
    features: Vec<usize>,
    config: &'a GbmConfig,
    pool: &'a mut HistogramPool,
    stats: &'a mut GrowStats,
    tree: Tree,
}

impl Grower<'_> {
    /// Build the subtree rooted at the next free arena slot and return that
    /// slot's index. `rows`/`scratch` are this node's slices of the
    /// tree-wide row and scratch buffers.
    fn build_node(
        &mut self,
        rows: &mut [u32],
        scratch: &mut [u32],
        node: Node,
        depth: usize,
    ) -> usize {
        self.stats.count_node(depth);
        let idx = self.tree.nodes.len();
        let Some((split, set)) = node.split else {
            let (g, h, _) = node.totals;
            let value = leaf_weight(g, h, self.config.lambda) * self.config.learning_rate;
            self.tree.nodes.push(TreeNode::Leaf { value });
            return idx;
        };
        let n_left = partition_in_place(self.binned, rows, scratch, &split);
        debug_assert!(n_left > 0 && n_left < rows.len());
        // Reserve this node's slot before the children claim theirs.
        self.tree.nodes.push(TreeNode::Leaf { value: 0.0 });

        let (left_rows, right_rows) = rows.split_at_mut(n_left);
        let (left_scratch, right_scratch) = scratch.split_at_mut(n_left);
        let (left_node, right_node) = self.children(left_rows, right_rows, set, depth + 1);
        let left = self.build_node(left_rows, left_scratch, left_node, depth + 1);
        let right = self.build_node(right_rows, right_scratch, right_node, depth + 1);
        self.tree.nodes[idx] = TreeNode::Internal {
            feature: split.feature,
            threshold: self.binned.mapper(split.feature).threshold(split.split_bin),
            default_left: split.default_left,
            left,
            right,
            gain: split.gain,
        };
        idx
    }

    /// The two children of a just-split node, from one pass: the smaller
    /// child's histograms are accumulated from its rows and, when the
    /// larger child can split, subtracted from the parent's in place, so
    /// the parent's set becomes the larger child's. Each child that can
    /// split is scanned in the same pass. When neither child can split, no
    /// pass runs and the parent's set goes back to the pool.
    fn children(
        &mut self,
        left_rows: &[u32],
        right_rows: &[u32],
        parent: HistogramSet,
        depth: usize,
    ) -> (Node, Node) {
        let left_totals = totals(left_rows, self.grads, self.hesss);
        let right_totals = totals(right_rows, self.grads, self.hesss);
        let left_needs = splittable(depth, left_rows.len(), self.config);
        let right_needs = splittable(depth, right_rows.len(), self.config);
        let smaller_is_left = left_rows.len() <= right_rows.len();
        let (small_rows, small_totals, small_needs, large_totals, large_needs) =
            if smaller_is_left {
                (left_rows, left_totals, left_needs, right_totals, right_needs)
            } else {
                (right_rows, right_totals, right_needs, left_totals, left_needs)
            };
        let (small_split, large_split) = if small_needs || large_needs {
            let mut small_set = self.pool.take(self.binned, &self.features);
            let mut large_set = parent;
            let (small_best, large_best) = self.pass(
                small_rows,
                &mut small_set,
                small_needs.then_some(small_totals),
                large_needs.then_some((&mut large_set, large_totals)),
            );
            (self.keep(small_best, small_set), self.keep(large_best, large_set))
        } else {
            self.pool.give(parent);
            (None, None)
        };
        let small = Node { totals: small_totals, split: small_split };
        let large = Node { totals: large_totals, split: large_split };
        if smaller_is_left {
            (small, large)
        } else {
            (large, small)
        }
    }

    /// Pair a node's best split with the set it was found on. A node with
    /// no split is a leaf, and its set goes back to the pool.
    fn keep(
        &mut self,
        best: Option<SplitInfo>,
        set: HistogramSet,
    ) -> Option<(SplitInfo, HistogramSet)> {
        match best {
            Some(split) => Some((split, set)),
            None => {
                self.pool.give(set);
                None
            }
        }
    }

    /// The histogram pass of the root and of every split node, as one
    /// parallel call over the features. The chunk that owns a feature
    /// zeroes its buffer in `built` and accumulates `rows` into it. When
    /// `parent` is given, it subtracts that buffer from the parent's in
    /// place, which turns the parent's into the sibling's histogram. It
    /// then scans each side that has totals for its best split on the
    /// feature.
    ///
    /// Returns the best split of the built side and of the parent side.
    /// Ties resolve to the *last* of the equal-gain features in candidate
    /// order (`Iterator::max_by` keeps the last maximum), for any thread
    /// count.
    fn pass(
        &mut self,
        rows: &[u32],
        built: &mut HistogramSet,
        built_totals: Option<Totals>,
        parent: Option<(&mut HistogramSet, Totals)>,
    ) -> (Option<SplitInfo>, Option<SplitInfo>) {
        let (parent, parent_totals) = match parent {
            Some((set, totals)) => (Some(set), Some(totals)),
            None => (None, None),
        };
        // Hand each feature `&mut` to its own buffers; every job is locked
        // once, by the chunk that owns its feature.
        let mut built_bufs: Vec<Option<&mut Vec<HistBin>>> = built.iter_mut().map(Some).collect();
        let mut parent_bufs: Vec<Option<&mut Vec<HistBin>>> = match parent {
            Some(set) => set.iter_mut().map(Some).collect(),
            None => Vec::new(),
        };
        let mut jobs: Vec<Mutex<FeatureJob>> = self
            .features
            .iter()
            .filter_map(|&f| {
                Some(Mutex::new(FeatureJob {
                    feature: f,
                    built: built_bufs[f].take()?,
                    parent: parent_bufs.get_mut(f).and_then(Option::take),
                    best: [None, None],
                }))
            })
            .collect();

        let (binned, grads, hesss, config) = (self.binned, self.grads, self.hesss, self.config);
        let t0 = Instant::now();
        par_map(config.parallelism, jobs.len(), |i| {
            let mut guard = jobs[i].lock().unwrap_or_else(PoisonError::into_inner);
            let job = &mut *guard;
            let f = job.feature;
            build_histogram(job.built, binned.bins(f), rows, grads, hesss);
            if let Some(parent) = job.parent.as_deref_mut() {
                subtract_sibling(parent, job.built);
            }
            let n_value_bins = binned.mapper(f).n_value_bins();
            let scan = |hist: &[HistBin], totals: Option<Totals>| {
                let (lambda, gamma, mcw) = (config.lambda, config.gamma, config.min_child_weight);
                totals.and_then(|t| {
                    best_split_for_feature(f, hist, n_value_bins, t, lambda, gamma, mcw)
                })
            };
            job.best = [
                scan(job.built, built_totals),
                job.parent.as_deref().and_then(|p| scan(p, parent_totals)),
            ];
        });
        self.stats.hist_build_us += t0.elapsed().as_micros() as u64;
        self.stats.histogram_builds += jobs.len() as u64;
        if parent_totals.is_some() {
            self.stats.histogram_subtractions += jobs.len() as u64;
        }
        let mut best = |side: usize| {
            jobs.iter_mut()
                .filter_map(|job| job.get_mut().unwrap_or_else(PoisonError::into_inner).best[side])
                .max_by(|a, b| a.gain.total_cmp(&b.gain))
        };
        (best(0), best(1))
    }
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
        let mut pool = HistogramPool::default();
        let rows = (0..200).collect();
        let tree =
            grow_tree_observed(&binned, &g, &h, rows, &[0, 1], &config, &mut pool, &mut stats);
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
    fn histogram_sets_are_recycled_across_trees() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let n = 200;
        let cols: Vec<Vec<f64>> = (0..40)
            .map(|f| (0..n).map(|i| ((i * (f + 3) * 7919) % 97) as f64).collect())
            .collect();
        let labels: Vec<u8> = (0..n).map(|i| ((i * 31 / 7) % 2) as u8).collect();
        let binned = binned_of(cols);
        let (g, h) = grads_for(&labels);
        let config = GbmConfig {
            max_depth: 4,
            colsample: 0.7,
            parallelism: Parallelism::new(2),
            ..GbmConfig::default()
        };
        let all: Vec<usize> = (0..40).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let mut pool = HistogramPool::default();
        let mut stats = GrowStats::default();
        for round in 0..20 {
            // A different 70% column sample per tree, as the booster draws.
            let mut features: Vec<usize> = all.choose_multiple(&mut rng, 28).copied().collect();
            features.sort();
            let rows: Vec<u32> = (0..n as u32).collect();
            let tree = grow_tree_observed(
                &binned, &g, &h, rows.clone(), &features, &config, &mut pool, &mut stats,
            );
            assert_eq!(tree, grow_tree(&binned, &g, &h, rows, &features, &config), "round {round}");
            assert!(
                pool.sets_created() <= config.max_depth + 1,
                "round {round}: {} sets created",
                pool.sets_created()
            );
        }
        assert_eq!(pool.free.len(), pool.sets_created(), "every set went back to the pool");
        assert!(stats.nodes_per_depth.len() > 3, "trees must grow deep: {stats:?}");
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
