//! The boosting loop: Gbm (trainer) and GbmModel (trained ensemble).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use safe_data::dataset::Dataset;
use safe_obs::EventSink;

use crate::binner::{BinCache, BinnedDataset};
use crate::config::{GbmConfig, Objective};
use crate::error::GbmError;
use crate::grow::{grow_tree_observed, GrowStats, HistogramPool};
use crate::importance::{FeatureImportance, ImportanceKind};
use crate::loss::{base_margin, grad_hess, transform};
use crate::tree::{SplitPath, Tree};

/// Telemetry from one training run, which [`Gbm::fit_cached_observed`]
/// emits through its sink.
#[derive(Debug, Default)]
pub(crate) struct GbmFitStats {
    /// Boosting rounds actually executed (≤ configured `n_rounds` under
    /// early stopping).
    pub rounds_run: u64,
    /// Trees in the final model (after early-stopping truncation).
    pub trees_kept: u64,
    /// Binned columns reused from a [`BinCache`] supplied to
    /// [`Gbm::fit_cached_observed`] (0 when training uncached).
    pub cache_bin_hits: u64,
    /// Columns quantized fresh under a cache, i.e. the newly seen columns
    /// (0 when training uncached).
    pub cache_bin_misses: u64,
    /// Aggregated tree-construction telemetry (histogram builds and
    /// subtractions, nodes grown per depth).
    pub grow: GrowStats,
    /// Wall-clock microseconds per boosting round, in execution order.
    /// Timing telemetry only: emitted as sink-only `gbm_round_us` observe
    /// events, never as report counters (wall-clock would break the
    /// resumed-report `==` contract).
    pub round_us: Vec<u64>,
    /// Microseconds spent in the round's histogram passes, per round (the
    /// round's share of `grow.hist_build_us`). Each pass builds and
    /// subtracts one node's child histograms and scans them for splits.
    pub round_hist_us: Vec<u64>,
}

/// Gradient-boosting trainer.
#[derive(Debug, Clone)]
pub struct Gbm {
    config: GbmConfig,
}

/// A trained ensemble.
#[derive(Debug, Clone)]
pub struct GbmModel {
    pub(crate) trees: Vec<Tree>,
    pub(crate) base: f64,
    pub(crate) objective: Objective,
    pub(crate) n_features: usize,
    /// Validation AUC per round when a validation set was supplied.
    pub eval_history: Vec<f64>,
}

impl Gbm {
    /// Create a trainer; the configuration is validated at fit time.
    pub fn new(config: GbmConfig) -> Gbm {
        Gbm { config }
    }

    /// Trainer with default configuration.
    pub fn default_trainer() -> Gbm {
        Gbm::new(GbmConfig::default())
    }

    /// Train on a labeled dataset, optionally early-stopping on validation
    /// AUC.
    pub fn fit(&self, train: &Dataset, valid: Option<&Dataset>) -> Result<GbmModel, GbmError> {
        let mut stats = GbmFitStats::default();
        self.fit_inner(train, valid, None, &mut stats)
    }

    /// [`Gbm::fit`] with an optional [`BinCache`], additionally emitting
    /// training counters through `sink` (attributed to `stage`/`iteration`).
    ///
    /// With a cache, columns whose `(name, max_bins)` key is already cached
    /// skip quantization entirely, and newly quantized columns are stored
    /// back for the next fit; the model is bit-identical to an uncached
    /// fit. Emitted counters: `gbm_rounds`, `gbm_trees`, `histogram_builds`,
    /// `histogram_subtractions`, `nodes_grown`, `nodes_depth<d>` per tree
    /// level, and — only when a cache is supplied — `cache_bin_hits` /
    /// `cache_bin_misses` (binned columns reused versus quantized fresh).
    pub fn fit_cached_observed(
        &self,
        train: &Dataset,
        valid: Option<&Dataset>,
        cache: Option<&mut BinCache>,
        sink: &dyn EventSink,
        stage: &str,
        iteration: Option<usize>,
    ) -> Result<GbmModel, GbmError> {
        let mut stats = GbmFitStats::default();
        let cached = cache.is_some();
        let model = self.fit_inner(train, valid, cache, &mut stats)?;
        sink.counter(stage, iteration, "gbm_rounds", stats.rounds_run);
        sink.counter(stage, iteration, "gbm_trees", stats.trees_kept);
        sink.counter(stage, iteration, "histogram_builds", stats.grow.histogram_builds);
        sink.counter(
            stage,
            iteration,
            "histogram_subtractions",
            stats.grow.histogram_subtractions,
        );
        sink.counter(stage, iteration, "nodes_grown", stats.grow.total_nodes());
        for (depth, &n) in stats.grow.nodes_per_depth.iter().enumerate() {
            sink.counter(stage, iteration, &format!("nodes_depth{depth}"), n);
        }
        if cached {
            sink.counter(stage, iteration, "cache_bin_hits", stats.cache_bin_hits);
            sink.counter(stage, iteration, "cache_bin_misses", stats.cache_bin_misses);
        }
        // Per-round wall-clock distributions go through the sink-only
        // observe channel: they feed latency histograms (p50/p95/p99 per
        // round) but must never become report counters.
        for &us in &stats.round_us {
            sink.observe(stage, iteration, "gbm_round_us", us);
        }
        for &us in &stats.round_hist_us {
            sink.observe(stage, iteration, "gbm_hist_build_us", us);
        }
        Ok(model)
    }

    fn fit_inner(
        &self,
        train: &Dataset,
        valid: Option<&Dataset>,
        cache: Option<&mut BinCache>,
        stats: &mut GbmFitStats,
    ) -> Result<GbmModel, GbmError> {
        safe_data::failpoint!("gbm/fit-begin", GbmError::Injected("gbm/fit-begin"));
        self.config.validate().map_err(GbmError::Config)?;
        let labels = train
            .labels()
            .ok_or(GbmError::NoLabels { which: "training" })?;
        let n = train.n_rows();
        if n == 0 || train.n_cols() == 0 {
            return Err(GbmError::EmptyTraining);
        }

        let binned = match cache {
            Some(cache) => {
                let (h0, m0) = (cache.hits(), cache.misses());
                let binned = BinnedDataset::fit_cached(
                    train,
                    self.config.max_bins,
                    self.config.parallelism,
                    cache,
                )?;
                stats.cache_bin_hits = cache.hits() - h0;
                stats.cache_bin_misses = cache.misses() - m0;
                binned
            }
            None => BinnedDataset::fit(train, self.config.max_bins, self.config.parallelism)?,
        };
        let base = base_margin(self.config.objective, labels);
        let mut margins = vec![base; n];

        // (dataset, labels, running margins) of the validation set. Margin
        // updates stream the f64 table per row chunk, so a chunked/spilled
        // validation set never materializes.
        type ValidState<'a> = (&'a Dataset, &'a [u8], Vec<f64>);
        let valid_cols: Option<ValidState> = match valid {
            Some(v) => {
                let vl = v
                    .labels()
                    .ok_or(GbmError::NoLabels { which: "validation" })?;
                if v.n_cols() != train.n_cols() {
                    return Err(GbmError::FeatureMismatch {
                        train: train.n_cols(),
                        valid: v.n_cols(),
                    });
                }
                Some((v, vl, vec![base; v.n_rows()]))
            }
            None => None,
        };
        let mut valid_state = valid_cols;

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let all_rows: Vec<u32> = (0..n as u32).collect();
        let all_features: Vec<usize> = (0..train.n_cols()).collect();

        let mut trees: Vec<Tree> = Vec::with_capacity(self.config.n_rounds);
        let mut eval_history: Vec<f64> = Vec::new();
        let mut best_round = 0usize;
        let mut best_auc = f64::NEG_INFINITY;

        let mut grads = vec![0.0f64; n];
        let mut hesss = vec![0.0f64; n];
        // One histogram store for every node of every tree of this fit.
        let mut pool = HistogramPool::default();

        for round in 0..self.config.n_rounds {
            safe_data::failpoint!("gbm/train-round", GbmError::Injected("gbm/train-round"));
            let round_start = std::time::Instant::now();
            stats.rounds_run += 1;
            for i in 0..n {
                let (g, h) = grad_hess(self.config.objective, margins[i], labels[i] as f64);
                grads[i] = g;
                hesss[i] = h;
            }

            let rows = sample(&all_rows, self.config.subsample, &mut rng);
            let features = sample(&all_features, self.config.colsample, &mut rng);

            // Grow into a per-round accumulator so the round's histogram
            // time can be recorded, then fold into the fit-wide stats.
            let mut round_grow = GrowStats::default();
            let tree = grow_tree_observed(
                &binned, &grads, &hesss, rows, &features, &self.config, &mut pool, &mut round_grow,
            );
            stats.round_hist_us.push(round_grow.hist_build_us);
            stats.grow.merge(&round_grow);
            predict_tree_into(&tree, train, &mut margins)?;

            if let Some((vds, vl, vmargins)) = valid_state.as_mut() {
                predict_tree_into(&tree, vds, vmargins)?;
                let probs: Vec<f64> = vmargins
                    .iter()
                    .map(|&m| transform(self.config.objective, m))
                    .collect();
                let auc = safe_stats::auc::auc(&probs, vl);
                eval_history.push(auc);
                if auc > best_auc {
                    best_auc = auc;
                    best_round = round;
                }
                if let Some(patience) = self.config.early_stopping_rounds {
                    if round - best_round >= patience {
                        trees.push(tree);
                        stats.round_us.push(round_start.elapsed().as_micros() as u64);
                        break;
                    }
                }
            }
            trees.push(tree);
            stats.round_us.push(round_start.elapsed().as_micros() as u64);
        }

        // Truncate to the best validation round when early stopping is on.
        if self.config.early_stopping_rounds.is_some() && !eval_history.is_empty() {
            trees.truncate(best_round + 1);
        }
        stats.trees_kept = trees.len() as u64;

        Ok(GbmModel {
            trees,
            base,
            objective: self.config.objective,
            n_features: train.n_cols(),
            eval_history,
        })
    }
}

/// One tree's margin contribution for every row of `ds`, streamed per row
/// chunk through [`Dataset::for_each_row_chunk`]. Resident datasets take a
/// single full-range pass over borrowed slices (the exact code path the
/// resident-only booster ran); chunked datasets visit fixed-order chunk
/// segments, so per-row accumulation — and therefore every margin bit — is
/// identical across backends.
fn predict_tree_into(tree: &Tree, ds: &Dataset, margins: &mut [f64]) -> Result<(), GbmError> {
    ds.for_each_row_chunk(&mut |range, cols| {
        tree.predict_into(cols, &mut margins[range]);
    })?;
    Ok(())
}

/// Sample a fraction of items without replacement (all items when
/// `fraction == 1`), preserving index order for reproducibility.
fn sample<T: Copy + Ord>(items: &[T], fraction: f64, rng: &mut StdRng) -> Vec<T> {
    if fraction >= 1.0 {
        return items.to_vec();
    }
    let k = ((items.len() as f64) * fraction).ceil().max(1.0) as usize;
    let mut chosen: Vec<T> = items
        .choose_multiple(rng, k.min(items.len()))
        .copied()
        .collect();
    chosen.sort();
    chosen
}

impl GbmModel {
    /// Number of trees kept.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of features the model was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Base margin (the prior added before any tree contribution).
    pub fn base_margin(&self) -> f64 {
        self.base
    }

    /// Training objective; determines the prediction transform.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The trees themselves (read-only).
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// Raw margin for one row.
    pub fn predict_margin_row(&self, row: &[f64]) -> f64 {
        let mut m = self.base;
        for t in &self.trees {
            m += t.predict_row(row);
        }
        m
    }

    /// Transformed prediction (probability for logistic) for one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        transform(self.objective, self.predict_margin_row(row))
    }

    /// Raw margins for a whole dataset.
    ///
    /// Streams the table one row chunk at a time, so chunked/spilled
    /// datasets score without materializing. Each row's margin still
    /// accumulates base-then-trees in ensemble order, so bits are identical
    /// to the resident column path.
    ///
    /// # Panics
    ///
    /// If a spilled chunk cannot be read back (the signature predates the
    /// out-of-core backend and has no error channel).
    pub fn predict_margin(&self, ds: &Dataset) -> Vec<f64> {
        let mut out = vec![self.base; ds.n_rows()];
        let scored = ds.for_each_row_chunk(&mut |range, cols| {
            for t in &self.trees {
                t.predict_into(cols, &mut out[range.clone()]);
            }
        });
        if let Err(e) = scored {
            panic!("column read failed during prediction: {e}");
        }
        out
    }

    /// Transformed predictions (probabilities for logistic) for a dataset.
    pub fn predict(&self, ds: &Dataset) -> Vec<f64> {
        self.predict_margin(ds)
            .into_iter()
            .map(|m| transform(self.objective, m))
            .collect()
    }

    /// Transformed predictions for a row-major flat batch (`n_cols` values
    /// per record; `rows.len()` must be a multiple of `n_cols`). `out` is
    /// cleared and filled with one score per record.
    ///
    /// Tree-outer iteration keeps each tree's nodes cache-hot across the
    /// batch; every record's margin still accumulates base-then-trees in
    /// ensemble order, so results are **bit-identical** to calling
    /// [`GbmModel::predict_row`] on each record.
    pub fn predict_rows_into(&self, rows: &[f64], n_cols: usize, out: &mut Vec<f64>) {
        let n_rows = rows.len().checked_div(n_cols).unwrap_or(0);
        out.clear();
        if n_rows == 0 {
            return;
        }
        out.resize(n_rows, self.base);
        for t in &self.trees {
            t.predict_rows_into(rows, n_cols, out);
        }
        for m in out.iter_mut() {
            *m = transform(self.objective, *m);
        }
    }

    /// All root→leaf-parent paths across the ensemble (Section IV-B1's `P`).
    pub fn paths(&self) -> Vec<SplitPath> {
        self.trees.iter().flat_map(|t| t.paths()).collect()
    }

    /// Feature importance of the ensemble.
    pub fn importance(&self, kind: ImportanceKind) -> FeatureImportance {
        FeatureImportance::from_trees(&self.trees, self.n_features, kind)
    }

    /// Indices of features used in at least one split ("split features" in
    /// the paper's assumption 1).
    pub fn split_features(&self) -> Vec<usize> {
        self.importance(ImportanceKind::SplitCount).used_features()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grow::grow_tree;
    use safe_obs::NullSink;
    use safe_stats::auc::auc;

    /// Linearly separable two-feature data with noise features.
    fn toy(n: usize, seed: u64) -> Dataset {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut next = move || rng.gen_range(-1.0f64..1.0);
        let mut cols = vec![Vec::with_capacity(n); 3];
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a = next();
            let b = next();
            let noise = next();
            cols[0].push(a);
            cols[1].push(b);
            cols[2].push(noise);
            labels.push((a + 0.5 * b > 0.0) as u8);
        }
        Dataset::from_columns(
            vec!["a".into(), "b".into(), "noise".into()],
            cols,
            Some(labels),
        )
        .unwrap()
    }

    #[test]
    fn learns_separable_data() {
        let train = toy(600, 1);
        let test = toy(300, 2);
        let model = Gbm::new(GbmConfig {
            n_rounds: 30,
            ..GbmConfig::default()
        })
        .fit(&train, None)
        .unwrap();
        let preds = model.predict(&test);
        let a = auc(&preds, test.labels().unwrap());
        assert!(a > 0.95, "auc = {a}");
    }

    #[test]
    fn predict_rows_into_matches_row_path_bitwise() {
        let train = toy(400, 9);
        let model = Gbm::new(GbmConfig {
            n_rounds: 40,
            ..GbmConfig::default()
        })
        .fit(&train, None)
        .unwrap();
        // Row-major batch including some non-finite cells (routed by
        // default_left, so they exercise the missing-value path).
        let mut rows = Vec::new();
        for i in 0..train.n_rows() {
            rows.extend_from_slice(&train.row(i));
        }
        rows[4] = f64::NAN;
        rows[10] = f64::INFINITY;
        let mut batch = Vec::new();
        model.predict_rows_into(&rows, 3, &mut batch);
        assert_eq!(batch.len(), train.n_rows());
        for (i, (chunk, got)) in rows.chunks_exact(3).zip(&batch).enumerate() {
            assert_eq!(
                got.to_bits(),
                model.predict_row(chunk).to_bits(),
                "row {i}: tree-outer batch diverged from the row path"
            );
        }
        // Reused output buffer is cleared, and the zero-column case is sane.
        model.predict_rows_into(&[], 3, &mut batch);
        assert!(batch.is_empty());
        model.predict_rows_into(&[], 0, &mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let train = toy(200, 3);
        let model = Gbm::default_trainer().fit(&train, None).unwrap();
        for p in model.predict(&train) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn training_loss_is_monotone_without_subsampling() {
        // Squared loss, lr small, full data: mean train loss must not rise.
        let train = toy(300, 4);
        let labels = train.labels().unwrap().to_vec();
        let mut margins = vec![crate::loss::base_margin(Objective::Squared, &labels); 300];
        let binned = BinnedDataset::fit(&train, 256, safe_stats::par::Parallelism::auto()).unwrap();
        let cols: Vec<&[f64]> = train.columns().collect();
        let config = GbmConfig {
            objective: Objective::Squared,
            learning_rate: 0.5,
            n_rounds: 10,
            ..GbmConfig::default()
        };
        let mut last = f64::INFINITY;
        let mut grads = vec![0.0; 300];
        let mut hesss = vec![0.0; 300];
        for _ in 0..10 {
            for i in 0..300 {
                let (g, h) = grad_hess(Objective::Squared, margins[i], labels[i] as f64);
                grads[i] = g;
                hesss[i] = h;
            }
            let tree = grow_tree(&binned, &grads, &hesss, (0..300).collect(), &[0, 1, 2], &config);
            tree.predict_into(&cols, &mut margins);
            let loss = crate::loss::mean_loss(Objective::Squared, &margins, &labels);
            assert!(loss <= last + 1e-9, "loss rose: {last} -> {loss}");
            last = loss;
        }
    }

    #[test]
    fn cached_fit_is_bit_identical_to_fit() {
        let train = toy(400, 12);
        let test = toy(150, 13);
        let config = GbmConfig {
            n_rounds: 15,
            subsample: 0.8,
            colsample: 0.8,
            seed: 3,
            ..GbmConfig::default()
        };
        let cold = Gbm::new(config.clone()).fit(&train, None).unwrap();
        let mut cache = BinCache::new();
        // First cached fit populates the cache, second one hits it fully.
        let fit = |config: GbmConfig, cache: &mut BinCache| {
            let gbm = Gbm::new(config);
            let fitted = gbm.fit_cached_observed(&train, None, Some(cache), &NullSink, "t", None);
            fitted.unwrap()
        };
        let warm1 = fit(config.clone(), &mut cache);
        assert_eq!(cache.misses(), 3);
        let warm2 = fit(config, &mut cache);
        assert_eq!(cache.hits(), 3);
        let reference: Vec<u64> = cold.predict(&test).iter().map(|p| p.to_bits()).collect();
        for model in [&warm1, &warm2] {
            let got: Vec<u64> = model.predict(&test).iter().map(|p| p.to_bits()).collect();
            assert_eq!(got, reference, "cached fit diverged from uncached fit");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let train = toy(300, 5);
        let config = GbmConfig {
            subsample: 0.7,
            colsample: 0.7,
            seed: 42,
            n_rounds: 10,
            ..GbmConfig::default()
        };
        let m1 = Gbm::new(config.clone()).fit(&train, None).unwrap();
        let m2 = Gbm::new(config).fit(&train, None).unwrap();
        assert_eq!(m1.predict(&train), m2.predict(&train));
    }

    #[test]
    fn early_stopping_truncates() {
        let train = toy(400, 6);
        let valid = toy(200, 7);
        let model = Gbm::new(GbmConfig {
            n_rounds: 200,
            early_stopping_rounds: Some(5),
            ..GbmConfig::default()
        })
        .fit(&train, Some(&valid))
        .unwrap();
        assert!(model.n_trees() < 200, "kept {} trees", model.n_trees());
        assert!(!model.eval_history.is_empty());
    }

    #[test]
    fn split_features_exclude_pure_noise_mostly() {
        let train = toy(800, 8);
        let model = Gbm::new(GbmConfig {
            n_rounds: 10,
            max_depth: 3,
            ..GbmConfig::default()
        })
        .fit(&train, None)
        .unwrap();
        let used = model.split_features();
        assert!(used.contains(&0), "informative feature a must be split on");
        let imp = model.importance(ImportanceKind::TotalGain);
        assert!(
            imp.scores[0] > imp.scores[2],
            "signal must outscore noise: {:?}",
            imp.scores
        );
    }

    #[test]
    fn paths_reference_real_features() {
        let train = toy(500, 9);
        let model = Gbm::default_trainer().fit(&train, None).unwrap();
        let paths = model.paths();
        assert!(!paths.is_empty());
        for p in &paths {
            assert!(!p.features.is_empty());
            for &f in &p.features {
                assert!(f < train.n_cols());
                assert!(!p.split_values[&f].is_empty());
            }
        }
    }

    #[test]
    fn unlabeled_train_is_rejected() {
        let ds = Dataset::from_columns(vec!["x".into()], vec![vec![1.0, 2.0]], None).unwrap();
        assert!(Gbm::default_trainer().fit(&ds, None).is_err());
    }

    #[test]
    fn mismatched_valid_is_rejected() {
        let train = toy(100, 10);
        let bad_valid =
            Dataset::from_columns(vec!["x".into()], vec![vec![1.0, 2.0]], Some(vec![0, 1]))
                .unwrap();
        assert!(Gbm::default_trainer().fit(&train, Some(&bad_valid)).is_err());
    }

    #[test]
    fn row_and_batch_predictions_agree() {
        let train = toy(250, 11);
        let model = Gbm::default_trainer().fit(&train, None).unwrap();
        let batch = model.predict(&train);
        for i in 0..train.n_rows() {
            let single = model.predict_row(&train.row(i));
            assert!((batch[i] - single).abs() < 1e-12);
        }
    }
}
