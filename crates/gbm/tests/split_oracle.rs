//! An exact-greedy split oracle for the histogram booster.
//!
//! `oracle` is a deliberately naive recursive grower with no histograms. At
//! each node it sorts the node's rows by each feature's value, tries every
//! threshold between distinct values, and tries both default directions
//! when the node has missing values. It sums gradients and hessians row by
//! row, and keeps the gain formula and the skip rules of
//! `best_split_for_feature`: no empty child, both hessian sums at least
//! `min_child_weight`, and a γ-penalised gain above zero.
//!
//! `grow_tree` must find the same tree on proptest data whenever
//! `max_bins` exceeds the row count, which gives every distinct value its
//! own bin: the same row partition at every node, and gains and leaf values
//! within [`TOL`]. Children are matched by their rows, not by side, because
//! two mirrored partitions ("missing left" and "missing right, everything
//! else left") have the same gain.
//!
//! Histogram sums round differently from row sums, so a case is skipped
//! (`prop_assume`) when some node's decision is within [`TOL`] of going
//! another way: its best and second-best partitions, its best gain and
//! zero, or a hessian sum and `min_child_weight`. Fewer than 10% of cases
//! may be skipped.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use safe_data::dataset::Dataset;
use safe_gbm::binner::BinnedDataset;
use safe_gbm::config::{GbmConfig, Objective};
use safe_gbm::grow::grow_tree;
use safe_gbm::loss::grad_hess;
use safe_gbm::tree::{Tree, TreeNode};
use safe_stats::par::Parallelism;

/// Gains, leaf values and hessian sums this close count as equal. Row
/// counts stay below 50, so rounding differences between histogram sums
/// and row sums stay many orders of magnitude below it.
const TOL: f64 = 1e-9;

/// A grown (sub)tree with each node's rows, in ascending row order.
#[derive(Debug)]
enum Grown {
    Leaf { rows: Vec<u32>, value: f64 },
    Split { rows: Vec<u32>, gain: f64, children: Box<[Grown; 2]> },
}

impl Grown {
    fn rows(&self) -> &[u32] {
        match self {
            Grown::Leaf { rows, .. } | Grown::Split { rows, .. } => rows,
        }
    }
}

struct Problem<'a> {
    cols: &'a [Vec<f64>],
    grads: &'a [f64],
    hesss: &'a [f64],
    config: &'a GbmConfig,
}

impl Problem<'_> {
    fn sums(&self, rows: &[u32]) -> (f64, f64) {
        rows.iter()
            .fold((0.0, 0.0), |(g, h), &r| (g + self.grads[r as usize], h + self.hesss[r as usize]))
    }

    fn score(&self, g: f64, h: f64) -> f64 {
        g * g / (h + self.config.lambda)
    }

    /// The exact-greedy tree on `rows`. Sets `*ambiguous` when a decision
    /// on the way is within [`TOL`] of going another way.
    fn oracle(&self, rows: Vec<u32>, depth: usize, ambiguous: &mut bool) -> Grown {
        let (g, h) = self.sums(&rows);
        let value = -g / (h + self.config.lambda) * self.config.learning_rate;
        if depth >= self.config.max_depth || rows.len() < 2 {
            return Grown::Leaf { rows, value };
        }
        let mcw = self.config.min_child_weight;
        // (gain, one side of the partition), one entry per unordered
        // partition, keeping the first feature's gain.
        let mut candidates: Vec<(f64, Vec<u32>)> = Vec::new();
        for col in self.cols {
            let mut present: Vec<u32> =
                rows.iter().copied().filter(|&r| col[r as usize].is_finite()).collect();
            if present.is_empty() {
                continue;
            }
            present.sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
            let has_missing = present.len() < rows.len();
            let lo = col[present[0] as usize];
            let hi = col[present[present.len() - 1] as usize];
            let mut thresholds: Vec<f64> = present.iter().map(|&r| col[r as usize]).collect();
            thresholds.dedup();
            thresholds.pop();
            // Thresholds outside the node's values put all of them on one
            // side and the missing rows on the other. Split points lie
            // between the column's values, so such a threshold exists only
            // past a value the column has beyond the node's range.
            let (col_lo, col_hi) = col
                .iter()
                .filter(|v| v.is_finite())
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| (a.min(v), b.max(v)));
            if col_hi > hi {
                thresholds.push(hi);
            }
            if col_lo < lo {
                thresholds.push(f64::NEG_INFINITY);
            }
            let directions: &[bool] = if has_missing { &[false, true] } else { &[false] };
            for &t in &thresholds {
                for &default_left in directions {
                    let (left, right): (Vec<u32>, Vec<u32>) = rows.iter().partition(|&&r| {
                        let v = col[r as usize];
                        if v.is_finite() { v <= t } else { default_left }
                    });
                    if left.is_empty() || right.is_empty() {
                        continue;
                    }
                    let (gl, hl) = self.sums(&left);
                    let (gr, hr) = self.sums(&right);
                    if mcw > 0.0 && ((hl - mcw).abs() < TOL || (hr - mcw).abs() < TOL) {
                        *ambiguous = true;
                    }
                    if hl < mcw || hr < mcw {
                        continue;
                    }
                    let gain = 0.5 * (self.score(gl, hl) + self.score(gr, hr) - self.score(g, h))
                        - self.config.gamma;
                    if gain.abs() < TOL {
                        *ambiguous = true;
                    }
                    if gain <= 0.0 {
                        continue;
                    }
                    let side = left.min(right);
                    if !candidates.iter().any(|(_, s)| *s == side) {
                        candidates.push((gain, side));
                    }
                }
            }
        }
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
        let Some((gain, side)) = candidates.first().cloned() else {
            return Grown::Leaf { rows, value };
        };
        if candidates.get(1).is_some_and(|(second, _)| gain - second < TOL) {
            *ambiguous = true;
        }
        let other: Vec<u32> = rows.iter().copied().filter(|r| !side.contains(r)).collect();
        let children = Box::new([
            self.oracle(side, depth + 1, ambiguous),
            self.oracle(other, depth + 1, ambiguous),
        ]);
        Grown::Split { rows, gain, children }
    }

    /// `tree`'s node `idx` with the rows routed to it, the way prediction
    /// routes raw values.
    fn routed(&self, tree: &Tree, idx: usize, rows: Vec<u32>) -> Grown {
        match tree.nodes[idx] {
            TreeNode::Leaf { value } => Grown::Leaf { rows, value },
            TreeNode::Internal { feature, threshold, default_left, left, right, gain } => {
                let col = &self.cols[feature];
                let (l, r): (Vec<u32>, Vec<u32>) = rows.iter().partition(|&&row| {
                    let v = col[row as usize];
                    if v.is_finite() { v <= threshold } else { default_left }
                });
                let children = Box::new([self.routed(tree, left, l), self.routed(tree, right, r)]);
                Grown::Split { rows, gain, children }
            }
        }
    }
}

/// Whether `got` has `want`'s partitions, gains and leaf values.
fn same_tree(want: &Grown, got: &Grown) -> Result<(), String> {
    if want.rows() != got.rows() {
        return Err(format!("rows {:?} vs {:?}", want.rows(), got.rows()));
    }
    match (want, got) {
        (Grown::Leaf { value: a, .. }, Grown::Leaf { value: b, .. }) if (a - b).abs() < TOL => {
            Ok(())
        }
        (Grown::Split { gain: a, children: w, .. }, Grown::Split { gain: b, children: g, .. })
            if (a - b).abs() < TOL =>
        {
            let g = if w[0].rows() == g[0].rows() { [&g[0], &g[1]] } else { [&g[1], &g[0]] };
            same_tree(&w[0], g[0])?;
            same_tree(&w[1], g[1])
        }
        _ => Err(format!("oracle {want:?}\ngrow_tree {got:?}")),
    }
}

/// Cases checked and cases skipped as ambiguous.
static CHECKED: AtomicUsize = AtomicUsize::new(0);
static SKIPPED: AtomicUsize = AtomicUsize::new(0);

#[test]
fn grow_tree_matches_the_exact_greedy_oracle() {
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]
        fn property(
            seed in any::<u64>(),
            n_rows in 6usize..=40,
            n_features in 1usize..=4,
            n_values in 2usize..=8,
            nan_rate in prop_oneof![Just(0.0), Just(0.2), Just(0.5)],
            max_depth in 1usize..=4,
            lambda in prop_oneof![Just(0.0), Just(0.5), Just(1.0), Just(3.0)],
            gamma in prop_oneof![Just(0.0), Just(0.05), Just(0.5)],
            min_child_weight in prop_oneof![Just(0.0), Just(0.1), Just(0.5)],
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cols: Vec<Vec<f64>> = (0..n_features)
                .map(|_| {
                    (0..n_rows)
                        .map(|_| {
                            if rng.gen_bool(nan_rate) {
                                f64::NAN
                            } else {
                                rng.gen_range(0..n_values) as f64 * 0.75 - 1.0
                            }
                        })
                        .collect()
                })
                .collect();
            // Random margins, so every row has its own gradient.
            let (grads, hesss): (Vec<f64>, Vec<f64>) = (0..n_rows)
                .map(|_| {
                    let margin = rng.gen_range(-2.0..2.0);
                    grad_hess(Objective::Logistic, margin, rng.gen_range(0..2) as f64)
                })
                .unzip();
            let config = GbmConfig {
                max_depth,
                lambda,
                gamma,
                min_child_weight,
                max_bins: 256,
                parallelism: Parallelism::serial(),
                ..GbmConfig::default()
            };
            let names = (0..n_features).map(|f| format!("f{f}")).collect();
            let ds = Dataset::from_columns(names, cols.clone(), None).unwrap();
            let binned = BinnedDataset::fit(&ds, config.max_bins, config.parallelism).unwrap();
            for (f, col) in cols.iter().enumerate() {
                let mut distinct: Vec<f64> =
                    col.iter().copied().filter(|v| v.is_finite()).collect();
                distinct.sort_by(f64::total_cmp);
                distinct.dedup();
                prop_assert_eq!(binned.mapper(f).n_value_bins(), distinct.len().max(1));
            }

            let problem = Problem { cols: &cols, grads: &grads, hesss: &hesss, config: &config };
            let all_rows: Vec<u32> = (0..n_rows as u32).collect();
            let mut ambiguous = false;
            let want = problem.oracle(all_rows.clone(), 0, &mut ambiguous);
            if ambiguous {
                SKIPPED.fetch_add(1, Ordering::Relaxed);
            }
            prop_assume!(!ambiguous);
            CHECKED.fetch_add(1, Ordering::Relaxed);

            let features: Vec<usize> = (0..n_features).collect();
            let tree = grow_tree(&binned, &grads, &hesss, all_rows.clone(), &features, &config);
            let got = problem.routed(&tree, 0, all_rows);
            if let Err(diff) = same_tree(&want, &got) {
                prop_assert!(false, "grow_tree left the oracle's tree: {diff}");
            }
        }
    }
    property();
    let (checked, skipped) = (CHECKED.load(Ordering::Relaxed), SKIPPED.load(Ordering::Relaxed));
    assert!(
        skipped * 10 < checked + skipped,
        "{skipped} of {} cases skipped as ambiguous",
        checked + skipped
    );
}
