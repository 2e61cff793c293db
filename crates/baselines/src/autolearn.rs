//! AutoLearn: regression-based pairwise feature construction.
//!
//! Reproduction of Kaul, Maheshwary & Pudi, *AutoLearn — Automated Feature
//! Generation and Selection* (ICDM 2017), the third generation-selection
//! method whose complexity the paper analyses (Eq. 10). The original
//! algorithm:
//!
//! 1. **mine pairwise associations** — keep feature pairs `(a, b)` whose
//!    relationship is strong enough to model (the paper uses distance
//!    correlation; this reproduction uses |Pearson| on the raw pair and on
//!    `(a, a²)` as a cheap curved-relationship probe — see DESIGN.md §4),
//! 2. **regress** — fit ridge (linear) and kernel-ridge (here: quadratic
//!    ridge) regressions per kept pair and emit *prediction* and *residual*
//!    features,
//! 3. **select stable, informative features** — the original uses randomized
//!    lasso + mutual information; this reproduction keeps features whose
//!    information gain stays high across bootstrap halves (stability
//!    selection) and ranks the survivors by IG, capped at `2M`.

use safe_core::engineer::FeatureEngineer;
use safe_core::plan::{FeaturePlan, PlanStep};
use safe_data::dataset::Dataset;
use safe_data::split::shuffled_indices;
use safe_ops::op::Operator;
use safe_ops::regression::{QuadRidgeResidual, RidgePrediction, RidgeResidual};
use safe_stats::par::{par_map_slice, Parallelism};
use safe_stats::pearson::pearson;

use crate::ig_of;

/// AutoLearn configuration.
#[derive(Debug, Clone)]
pub struct AutoLearn {
    /// Minimum |Pearson| (raw or quadratic) for a pair to be modeled.
    pub min_association: f64,
    /// Bootstrap halves used by stability selection.
    pub n_bootstraps: usize,
    /// A feature must rank in the top-`stability_pool` of at least half the
    /// bootstraps to be considered stable.
    pub stability_pool: usize,
    /// Output budget multiplier (2 ⇒ 2M).
    pub cap_multiplier: usize,
    /// Equal-frequency bins for IG scoring.
    pub beta: usize,
    /// RNG seed for the bootstrap halves.
    pub seed: u64,
    /// Worker budget for pair mining (0 = one worker per core).
    pub parallelism: Parallelism,
}

impl Default for AutoLearn {
    fn default() -> Self {
        AutoLearn {
            min_association: 0.3,
            n_bootstraps: 5,
            stability_pool: 64,
            cap_multiplier: 2,
            beta: 10,
            seed: 0,
            parallelism: Parallelism::auto(),
        }
    }
}

struct Candidate {
    step: Option<PlanStep>,
    name: String,
    values: Vec<f64>,
}

impl AutoLearn {
    /// Stage 1+2: mine associated pairs and generate regression features.
    fn generate(&self, cols: &[&[f64]], names: &[String], labels: &[u8]) -> Vec<Candidate> {
        let m = cols.len();
        // Ordered pairs, scored in parallel; weakly-associated pairs skipped
        // (AutoLearn's pair-mining stage).
        let pairs: Vec<(usize, usize)> = (0..m)
            .flat_map(|i| (0..m).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        let per_pair: Vec<Vec<Candidate>> =
            par_map_slice(self.parallelism, &pairs, |&(i, j)| {
                let (a, b) = (cols[i], cols[j]);
                let linear = pearson(a, b).abs();
                let squared: Vec<f64> = a.iter().map(|&x| x * x).collect();
                let curved = pearson(&squared, b).abs();
                if linear < self.min_association && curved < self.min_association {
                    return Vec::new();
                }
                let mut out = Vec::new();
                let ops: Vec<&dyn Operator> = vec![&RidgePrediction, &RidgeResidual, &QuadRidgeResidual];
                for op in ops {
                    let Ok(fitted) = op.fit(&[a, b], Some(labels)) else {
                        continue;
                    };
                    let values = fitted.apply(&[a, b]);
                    let name = format!("{}({},{})", op.name(), names[i], names[j]);
                    out.push(Candidate {
                        step: Some(PlanStep {
                            name: name.clone(),
                            op: op.name().to_string(),
                            parents: vec![names[i].clone(), names[j].clone()],
                            params: fitted.params(),
                        }),
                        name,
                        values,
                    });
                }
                out
            });
        per_pair.into_iter().flatten().collect()
    }

    /// Stage 3: stability selection across bootstrap halves + IG ranking.
    fn select(&self, candidates: Vec<Candidate>, labels: &[u8], cap: usize) -> Vec<Candidate> {
        let n = labels.len();
        let half = n / 2;
        // Count how often each candidate ranks inside the stability pool.
        let mut stable_hits = vec![0usize; candidates.len()];
        for b in 0..self.n_bootstraps {
            let idx = shuffled_indices(n, self.seed.wrapping_add(b as u64));
            let sample = &idx[..half.max(1)];
            let sub_labels: Vec<u8> = sample.iter().map(|&i| labels[i]).collect();
            let mut scored: Vec<(usize, f64)> = candidates
                .iter()
                .enumerate()
                .map(|(c, cand)| {
                    let sub: Vec<f64> = sample.iter().map(|&i| cand.values[i]).collect();
                    (c, ig_of(&sub, &sub_labels, self.beta))
                })
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            for &(c, _) in scored.iter().take(self.stability_pool) {
                stable_hits[c] += 1;
            }
        }
        let need = self.n_bootstraps.div_ceil(2);
        let mut survivors: Vec<(f64, Candidate)> = candidates
            .into_iter()
            .zip(stable_hits)
            .filter(|(_, hits)| *hits >= need)
            .map(|(cand, _)| (ig_of(&cand.values, labels, self.beta), cand))
            .collect();
        survivors.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.name.cmp(&b.1.name))
        });
        survivors.truncate(cap);
        survivors.into_iter().map(|(_, c)| c).collect()
    }
}

impl FeatureEngineer for AutoLearn {
    fn method_name(&self) -> &'static str {
        "AUTOLEARN"
    }

    fn engineer(
        &self,
        train: &Dataset,
        _valid: Option<&Dataset>,
    ) -> Result<FeaturePlan, String> {
        let labels = train
            .labels()
            .ok_or_else(|| "AutoLearn requires labels".to_string())?
            .to_vec();
        if train.is_empty() {
            return Err("AutoLearn requires a non-empty dataset".into());
        }
        let names: Vec<String> = train.feature_names().iter().map(|s| s.to_string()).collect();
        let m = names.len();
        let cap = self.cap_multiplier * m;
        let cols = crate::feature_columns(train)?;

        let mut candidates = self.generate(&cols, &names, &labels);
        // Originals always compete in the final ranking (the AutoLearn paper
        // appends generated features to the original space).
        for (f, name) in names.iter().enumerate() {
            candidates.push(Candidate {
                step: None,
                name: name.clone(),
                values: cols[f].to_vec(),
            });
        }
        let kept = self.select(candidates, &labels, cap);

        let mut steps = Vec::new();
        let mut outputs = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for c in kept {
            if !seen.insert(c.name.clone()) {
                continue;
            }
            if let Some(s) = c.step {
                steps.push(s);
            }
            outputs.push(c.name);
        }
        if outputs.is_empty() {
            // No association cleared the bar: fall back to the originals.
            outputs = names.clone();
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

    /// b is a noisy quadratic of a; the residual (b − ĝ(a)) equals the label
    /// signal by construction, so AutoLearn's pipeline should surface it.
    fn residual_signal_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        let mut noise = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(-2.0..2.0);
            let hidden: f64 = rng.gen_range(-1.0..1.0);
            a.push(x);
            b.push(x * x + hidden); // explained part + hidden residual signal
            noise.push(rng.gen_range(-1.0..1.0));
            y.push((hidden > 0.0) as u8);
        }
        Dataset::from_columns(
            vec!["a".into(), "b".into(), "noise".into()],
            vec![a, b, noise],
            Some(y),
        )
        .unwrap()
    }

    #[test]
    fn surfaces_the_residual_feature() {
        let ds = residual_signal_data(2_000, 1);
        let plan = AutoLearn::default().engineer(&ds, None).unwrap();
        let top_is_residual = plan
            .outputs
            .first()
            .map(|n| n.contains("res") && n.contains("a,b"))
            .unwrap_or(false);
        assert!(
            top_is_residual,
            "residual of b on a should rank first: {:?}",
            plan.outputs
        );
    }

    #[test]
    fn plan_applies_and_round_trips() {
        let ds = residual_signal_data(500, 2);
        let plan = AutoLearn::default().engineer(&ds, None).unwrap();
        let out = plan.apply(&ds).unwrap();
        assert_eq!(out.n_cols(), plan.outputs.len());
        let text = plan.to_text();
        let back = FeaturePlan::from_text(&text).unwrap();
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn weak_associations_are_skipped() {
        // Independent columns: no pair clears min_association, so the plan
        // falls back to ranked originals (no generated steps).
        let mut rng = StdRng::seed_from_u64(3);
        let n = 500;
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..n).map(|_| rng.gen_range(-1.0f64..1.0)).collect())
            .collect();
        let labels: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let ds = Dataset::from_columns(
            vec!["p".into(), "q".into(), "r".into()],
            cols,
            Some(labels),
        )
        .unwrap();
        let plan = AutoLearn::default().engineer(&ds, None).unwrap();
        assert!(
            plan.steps.is_empty(),
            "independent features should generate nothing: {:?}",
            plan.steps
        );
    }

    #[test]
    fn respects_the_cap() {
        let ds = residual_signal_data(800, 4);
        let plan = AutoLearn::default().engineer(&ds, None).unwrap();
        assert!(plan.outputs.len() <= 2 * ds.n_cols());
    }

    #[test]
    fn deterministic() {
        let ds = residual_signal_data(400, 5);
        let a = AutoLearn::default().engineer(&ds, None).unwrap();
        let b = AutoLearn::default().engineer(&ds, None).unwrap();
        assert_eq!(a.to_text(), b.to_text());
    }
}
