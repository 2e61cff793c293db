//! FCTree: feature construction inside decision-tree induction.
//!
//! Following Fan et al. (2010): a decision tree is grown by information
//! gain; at every node the split candidates are the original features *plus*
//! `ne` freshly constructed features (random operator applied to random
//! parents, drawn per node). Constructed features chosen at internal
//! decision nodes form the engineered feature set; per the paper's protocol
//! the final output is reduced to `2M` features by information gain.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use safe_core::engineer::FeatureEngineer;
use safe_core::plan::{FeaturePlan, PlanStep};
use safe_data::dataset::Dataset;
use safe_ops::registry::OperatorRegistry;

use crate::ig_of;

/// FCTree configuration.
#[derive(Debug, Clone)]
pub struct FcTree {
    /// Constructed candidates per node (`ne` in the paper's Eq. 9).
    pub ne: usize,
    /// Depth cap of the construction tree.
    pub max_depth: usize,
    /// Minimum node size worth splitting.
    pub min_samples_split: usize,
    /// Output budget multiplier (2 ⇒ 2M, matching the experiments).
    pub cap_multiplier: usize,
    /// Equal-frequency bins for information-gain scoring.
    pub beta: usize,
    /// Operator set for constructions.
    pub operators: OperatorRegistry,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FcTree {
    fn default() -> Self {
        FcTree {
            ne: 20,
            max_depth: 16,
            min_samples_split: 8,
            cap_multiplier: 2,
            beta: 10,
            operators: OperatorRegistry::arithmetic(),
            seed: 0,
        }
    }
}

/// A constructed candidate at some node.
struct Constructed {
    step: PlanStep,
    values: Vec<f64>,
}

impl FcTree {
    /// Draw one random construction over the original features.
    fn draw_candidate(
        &self,
        cols: &[&[f64]],
        names: &[String],
        labels: &[u8],
        rng: &mut StdRng,
    ) -> Option<Constructed> {
        let ops = self.operators.all();
        if ops.is_empty() {
            return None;
        }
        let op = &ops[rng.gen_range(0..ops.len())];
        let m = cols.len();
        if op.arity() > m {
            return None;
        }
        let mut parents: Vec<usize> = (0..m).collect();
        parents.shuffle(rng);
        parents.truncate(op.arity());
        let inputs: Vec<&[f64]> = parents.iter().map(|&f| cols[f]).collect();
        let fitted = op.fit(&inputs, Some(labels)).ok()?;
        let values = fitted.apply(&inputs);
        let parent_names: Vec<String> = parents.iter().map(|&f| names[f].clone()).collect();
        let name = format!("{}({})", op.name(), parent_names.join(","));
        Some(Constructed {
            step: PlanStep {
                name,
                op: op.name().to_string(),
                parents: parent_names,
                params: fitted.params(),
            },
            values,
        })
    }

    /// Best binary split of `values` restricted to `rows`, scored by
    /// information gain with **exhaustive** threshold search over the sorted
    /// node values — faithful to Fan et al.'s decision-tree induction (this
    /// O(n log n)-per-feature-per-node scan is what gives FCTree its
    /// `O(ne·N·(log N)²)` cost, Eq. 9). Returns `(gain, threshold)`.
    fn best_split(values: &[f64], rows: &[usize], labels: &[u8]) -> (f64, f64) {
        let mut pairs: Vec<(f64, u8)> = rows
            .iter()
            .filter(|&&r| values[r].is_finite())
            .map(|&r| (values[r], labels[r]))
            .collect();
        if pairs.len() < 2 {
            return (0.0, f64::NAN);
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total_pos: usize = pairs.iter().filter(|(_, y)| *y == 1).count();
        let total = pairs.len();
        let total_neg = total - total_pos;
        let base = safe_stats::entropy::entropy_from_counts(&[total_pos, total_neg]);

        let mut best = (0.0, f64::NAN);
        let mut left_pos = 0usize;
        for i in 0..total - 1 {
            if pairs[i].1 == 1 {
                left_pos += 1;
            }
            // Thresholds only between distinct values.
            if pairs[i].0 == pairs[i + 1].0 {
                continue;
            }
            let left_n = i + 1;
            let right_n = total - left_n;
            let right_pos = total_pos - left_pos;
            let h_left = safe_stats::entropy::entropy_from_counts(&[left_pos, left_n - left_pos]);
            let h_right =
                safe_stats::entropy::entropy_from_counts(&[right_pos, right_n - right_pos]);
            let gain = base
                - (left_n as f64 / total as f64) * h_left
                - (right_n as f64 / total as f64) * h_right;
            if gain > best.0 {
                best = (gain, pairs[i].0);
            }
        }
        best
    }

    #[allow(clippy::too_many_arguments)]
    fn grow(
        &self,
        cols: &[&[f64]],
        names: &[String],
        labels: &[u8],
        rows: Vec<usize>,
        depth: usize,
        rng: &mut StdRng,
        chosen: &mut Vec<(PlanStep, Vec<f64>)>,
    ) {
        if depth >= self.max_depth || rows.len() < self.min_samples_split {
            return;
        }
        let pos = rows.iter().filter(|&&r| labels[r] == 1).count();
        if pos == 0 || pos == rows.len() {
            return;
        }

        // Original candidates.
        let mut best_gain = 0.0;
        let mut best_threshold = f64::NAN;
        let mut best_col: Option<Vec<f64>> = None;
        let mut best_step: Option<PlanStep> = None;
        for &col in cols {
            let (gain, threshold) = Self::best_split(col, &rows, labels);
            if gain > best_gain {
                best_gain = gain;
                best_threshold = threshold;
                best_col = Some(col.to_vec());
                best_step = None;
            }
        }
        // Constructed candidates.
        for _ in 0..self.ne {
            if let Some(c) = self.draw_candidate(cols, names, labels, rng) {
                let (gain, threshold) = Self::best_split(&c.values, &rows, labels);
                if gain > best_gain {
                    best_gain = gain;
                    best_threshold = threshold;
                    best_col = Some(c.values.clone());
                    best_step = Some(c.step);
                }
            }
        }

        let Some(col) = best_col else { return };
        if best_gain <= 1e-12 || !best_threshold.is_finite() {
            return;
        }
        if let Some(step) = best_step {
            if !chosen.iter().any(|(s, _)| s.name == step.name) {
                chosen.push((step, col.clone()));
            }
        }
        let (left, right): (Vec<usize>, Vec<usize>) =
            rows.into_iter().partition(|&r| col[r] <= best_threshold);
        if left.is_empty() || right.is_empty() {
            return;
        }
        self.grow(cols, names, labels, left, depth + 1, rng, chosen);
        self.grow(cols, names, labels, right, depth + 1, rng, chosen);
    }
}

impl FeatureEngineer for FcTree {
    fn method_name(&self) -> &'static str {
        "FCT"
    }

    fn engineer(
        &self,
        train: &Dataset,
        _valid: Option<&Dataset>,
    ) -> Result<FeaturePlan, String> {
        let labels = train
            .labels()
            .ok_or_else(|| "FCTree requires labels".to_string())?;
        if train.is_empty() {
            return Err("FCTree requires a non-empty dataset".into());
        }
        let names: Vec<String> = train.feature_names().iter().map(|s| s.to_string()).collect();
        let cols = crate::feature_columns(train)?;
        let m = names.len();
        let cap = self.cap_multiplier * m;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut chosen: Vec<(PlanStep, Vec<f64>)> = Vec::new();
        self.grow(
            &cols,
            &names,
            labels,
            (0..train.n_rows()).collect(),
            0,
            &mut rng,
            &mut chosen,
        );

        // Final reduction to 2M by information gain (paper protocol), over
        // originals + constructions chosen at internal nodes.
        let mut scored: Vec<(f64, String, Option<PlanStep>)> = (0..m)
            .map(|f| (ig_of(cols[f], labels, self.beta), names[f].clone(), None))
            .collect();
        for (step, values) in chosen {
            scored.push((ig_of(&values, labels, self.beta), step.name.clone(), Some(step)));
        }
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        scored.truncate(cap);

        let mut steps = Vec::new();
        let mut outputs = Vec::new();
        for (_, name, step) in scored {
            if let Some(s) = step {
                steps.push(s);
            }
            outputs.push(name);
        }
        Ok(FeaturePlan {
            input_names: names,
            steps,
            outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ratio_data(n: usize, seed: u64) -> Dataset {
        // Signal lives in the ratio a/b.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cols = vec![Vec::new(); 3];
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.gen_range(0.1..2.0);
            let b: f64 = rng.gen_range(0.1..2.0);
            cols[0].push(a);
            cols[1].push(b);
            cols[2].push(rng.gen_range(-1.0..1.0));
            y.push((a / b > 1.0) as u8);
        }
        Dataset::from_columns(
            vec!["a".into(), "b".into(), "c".into()],
            cols,
            Some(y),
        )
        .unwrap()
    }

    #[test]
    fn constructs_useful_features() {
        let ds = ratio_data(800, 1);
        let plan = FcTree::default().engineer(&ds, None).unwrap();
        assert!(!plan.steps.is_empty(), "FCTree should construct features");
        assert!(plan.outputs.len() <= 6, "cap = 2M = 6, got {:?}", plan.outputs);
        // The ratio (or an equivalent a,b arithmetic) should be prominent.
        let has_ab = plan
            .steps
            .iter()
            .any(|s| s.parents.contains(&"a".to_string()) && s.parents.contains(&"b".to_string()));
        assert!(has_ab, "expected an (a,b) construction: {:?}", plan.steps);
    }

    #[test]
    fn plan_applies_cleanly() {
        let ds = ratio_data(300, 2);
        let plan = FcTree::default().engineer(&ds, None).unwrap();
        let out = plan.apply(&ds).unwrap();
        assert_eq!(out.n_cols(), plan.outputs.len());
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = ratio_data(300, 3);
        let a = FcTree { seed: 9, ..FcTree::default() }.engineer(&ds, None).unwrap();
        let b = FcTree { seed: 9, ..FcTree::default() }.engineer(&ds, None).unwrap();
        assert_eq!(a, b);
        let c = FcTree { seed: 10, ..FcTree::default() }.engineer(&ds, None).unwrap();
        // Different seeds draw different constructions (may rarely coincide;
        // allow equality only of outputs, not of everything).
        assert!(a != c || a.outputs == c.outputs);
    }

    #[test]
    fn ne_zero_degenerates_to_plain_tree() {
        let ds = ratio_data(300, 4);
        let plan = FcTree { ne: 0, ..FcTree::default() }.engineer(&ds, None).unwrap();
        assert!(plan.steps.is_empty(), "no constructions without candidates");
        assert!(!plan.outputs.is_empty(), "originals still ranked and kept");
    }

    #[test]
    fn pure_node_stops_recursion() {
        let ds = Dataset::from_columns(
            vec!["x".into()],
            vec![(0..50).map(|i| i as f64).collect()],
            Some(vec![1; 50]),
        )
        .unwrap();
        let plan = FcTree::default().engineer(&ds, None).unwrap();
        assert!(plan.steps.is_empty());
    }
}
