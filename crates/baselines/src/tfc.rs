//! TFC: exhaustive generate-then-select feature construction.
//!
//! One iteration (matching the paper's experimental protocol) works on the
//! original pool X:
//!
//! 1. generate **all** legal features — every operator applied to every
//!    feature combination of its arity (ordered for non-commutative
//!    operators),
//! 2. score every candidate (original and generated) by information gain
//!    against the label (equal-frequency binning),
//! 3. keep the top `cap_multiplier · M`.
//!
//! Candidate columns are scored on the fly and discarded; only the winners
//! are materialized into the plan, keeping memory at `O(N)` per worker even
//! though the candidate count is `O(M²·|O|)`. Scoring runs in parallel over
//! combinations.

use safe_core::engineer::FeatureEngineer;
use safe_core::plan::{FeaturePlan, PlanStep};
use safe_data::dataset::Dataset;
use safe_ops::registry::OperatorRegistry;
use safe_stats::par::{par_map, Parallelism};

use crate::ig_of;

/// TFC configuration.
#[derive(Debug, Clone)]
pub struct Tfc {
    /// Output budget as a multiple of the original feature count (2 in the
    /// experiments, matching SAFE's 2M cap).
    pub cap_multiplier: usize,
    /// Equal-frequency bins for information-gain scoring.
    pub beta: usize,
    /// Operator set (the experiments use the four arithmetic operators).
    pub operators: OperatorRegistry,
    /// Worker budget for candidate scoring (0 = one worker per core).
    pub parallelism: Parallelism,
}

impl Default for Tfc {
    fn default() -> Self {
        Tfc {
            cap_multiplier: 2,
            beta: 10,
            operators: OperatorRegistry::arithmetic(),
            parallelism: Parallelism::auto(),
        }
    }
}

/// A scored candidate: either an original column or a (op, parents) recipe.
#[derive(Debug, Clone)]
struct Scored {
    ig: f64,
    step: Option<PlanStep>,
    /// Column name (original name or generated name).
    name: String,
}

impl Tfc {
    /// Enumerate all ordered parent tuples for an operator of the given
    /// arity over `m` features (unordered for commutative operators).
    fn tuples(m: usize, arity: usize, commutative: bool) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        match arity {
            1 => {
                for i in 0..m {
                    out.push(vec![i]);
                }
            }
            2 => {
                for i in 0..m {
                    for j in 0..m {
                        if i == j {
                            continue;
                        }
                        if commutative && j < i {
                            continue;
                        }
                        out.push(vec![i, j]);
                    }
                }
            }
            _ => {
                // Higher arities are not part of the TFC experiments; support
                // them with unordered triples to stay total.
                if arity == 3 {
                    for i in 0..m {
                        for j in (i + 1)..m {
                            for k in (j + 1)..m {
                                out.push(vec![i, j, k]);
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

impl FeatureEngineer for Tfc {
    fn method_name(&self) -> &'static str {
        "TFC"
    }

    fn engineer(
        &self,
        train: &Dataset,
        _valid: Option<&Dataset>,
    ) -> Result<FeaturePlan, String> {
        let labels = train
            .labels()
            .ok_or_else(|| "TFC requires labels".to_string())?;
        let m = train.n_cols();
        if m == 0 || train.n_rows() == 0 {
            return Err("TFC requires a non-empty dataset".into());
        }
        let cap = self.cap_multiplier * m;
        let names: Vec<String> = train.feature_names().iter().map(|s| s.to_string()).collect();
        let cols = crate::feature_columns(train)?;

        // Score the originals.
        let mut scored: Vec<Scored> = (0..m)
            .map(|f| Scored {
                ig: ig_of(cols[f], labels, self.beta),
                step: None,
                name: names[f].clone(),
            })
            .collect();

        // Exhaustively generate and score — the defining (and expensive)
        // step of TFC. Parallel over (operator, tuple) work items.
        for op in self.operators.all() {
            let tuples = Self::tuples(m, op.arity(), op.commutative());
            let candidates: Vec<Option<Scored>> =
                par_map(self.parallelism, tuples.len(), |t| {
                    let tuple = &tuples[t];
                    let inputs: Vec<&[f64]> = tuple.iter().map(|&f| cols[f]).collect();
                    let fitted = op.fit(&inputs, Some(labels)).ok()?;
                    let values = fitted.apply(&inputs);
                    let ig = ig_of(&values, labels, self.beta);
                    let parents: Vec<String> =
                        tuple.iter().map(|&f| names[f].clone()).collect();
                    let name = format!("{}({})", op.name(), parents.join(","));
                    Some(Scored {
                        ig,
                        step: Some(PlanStep {
                            name: name.clone(),
                            op: op.name().to_string(),
                            parents,
                            params: fitted.params(),
                        }),
                        name,
                    })
                });
            scored.extend(candidates.into_iter().flatten());
        }

        // Select the global top-`cap` by information gain.
        scored.sort_by(|a, b| {
            b.ig.partial_cmp(&a.ig)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        scored.truncate(cap);

        let mut steps = Vec::new();
        let mut outputs = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for s in scored {
            if !seen.insert(s.name.clone()) {
                continue;
            }
            if let Some(step) = s.step {
                steps.push(step);
            }
            outputs.push(s.name);
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

    fn product_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cols = vec![Vec::new(); 3];
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            cols[0].push(a);
            cols[1].push(b);
            cols[2].push(rng.gen_range(-1.0..1.0));
            y.push((a * b > 0.0) as u8);
        }
        Dataset::from_columns(
            vec!["a".into(), "b".into(), "c".into()],
            cols,
            Some(y),
        )
        .unwrap()
    }

    #[test]
    fn finds_the_product_feature_first() {
        let ds = product_data(800, 1);
        let plan = Tfc::default().engineer(&ds, None).unwrap();
        assert!(
            plan.outputs[0] == "mul(a,b)" || plan.outputs[0] == "div(a,b)" || plan.outputs[0] == "div(b,a)",
            "top TFC feature should involve (a, b): {:?}",
            plan.outputs
        );
        assert!(plan.outputs.len() <= 6, "cap = 2M = 6");
    }

    #[test]
    fn plan_is_applicable() {
        let ds = product_data(300, 2);
        let plan = Tfc::default().engineer(&ds, None).unwrap();
        let out = plan.apply(&ds).unwrap();
        assert_eq!(out.n_cols(), plan.outputs.len());
        assert_eq!(out.n_rows(), 300);
    }

    #[test]
    fn candidate_space_is_exhaustive() {
        // 3 features, ops {add, mul} commutative → 3 pairs each; {sub, div}
        // → 6 ordered pairs each: 3 originals + 6 + 12 = 21 candidates. With
        // cap_multiplier = 10 everything fits, so the plan holds all 21
        // (minus possible name dedups, of which there are none).
        let ds = product_data(200, 3);
        let tfc = Tfc {
            cap_multiplier: 10,
            ..Tfc::default()
        };
        let plan = tfc.engineer(&ds, None).unwrap();
        assert_eq!(plan.outputs.len(), 21);
    }

    #[test]
    fn ordered_tuple_enumeration() {
        assert_eq!(Tfc::tuples(3, 2, true).len(), 3);
        assert_eq!(Tfc::tuples(3, 2, false).len(), 6);
        assert_eq!(Tfc::tuples(4, 1, false).len(), 4);
        assert_eq!(Tfc::tuples(4, 3, true).len(), 4);
    }

    #[test]
    fn unlabeled_rejected() {
        let ds = Dataset::from_columns(vec!["x".into()], vec![vec![1.0]], None).unwrap();
        assert!(Tfc::default().engineer(&ds, None).is_err());
    }
}
