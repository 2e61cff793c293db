//! Algorithm 1: the SAFE iteration loop.
//!
//! # Robustness
//!
//! `fit` separates *rejections* from *mid-loop failures*:
//!
//! - Rejections (invalid config, unusable or audit-fatal data) return `Err`
//!   before any work happens.
//! - Once the loop is running, a failed stage never aborts the run. The
//!   iteration is recorded with [`IterationStatus::Degraded`], the feature
//!   set falls back to the last good iteration's plan, and `fit` returns
//!   `Ok` — feature engineering is an *enhancement*, so a usable plan (in
//!   the worst case the identity plan over the original schema) always
//!   comes back.
//!
//! The pre-fit data audit ([`safe_data::audit`](mod@safe_data::audit))
//! runs first under [`crate::config::SafeConfig::audit`]; its report is
//! part of the [`SafeOutcome`].

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use safe_data::audit::{enforce, AuditReport};
use safe_data::dataset::{Dataset, FeatureMeta};
use safe_gbm::binner::BinCache;
use safe_gbm::booster::{Gbm, GbmModel};
use safe_gbm::error::GbmError;
use safe_obs::{stages, ReportBuilder, RunReport, Waterfall};

use crate::checkpoint::{Checkpoint, CheckpointStore, ConfigFingerprint, Terminal};
use crate::combine::{mine_combinations, random_combinations, rank_combinations, Combination};
use crate::config::{GenerationStrategy, SafeConfig, SelectionMode};
use crate::error::StageError;
use crate::generate::{generate_features, GeneratedFeature};
use crate::plan::{FeaturePlan, PlanStep};
use crate::selection::staged::{staged_prune, StagedConfig};
use crate::selection::{iv_filter, rank_and_cap, redundancy_filter};

pub use crate::error::SafeError;

/// How one iteration of the SAFE loop ended.
#[derive(Debug, Clone, PartialEq)]
pub enum IterationStatus {
    /// The full generate→select funnel ran to completion.
    Completed,
    /// A stage failed mid-iteration; the feature set fell back to the last
    /// good iteration's plan and the loop stopped.
    Degraded {
        /// Stage that failed: `"mine"`, `"generate"`, `"staged-prune"`,
        /// `"iv-filter"`, `"redundancy"`, `"rank"`, or `"select"`.
        stage: &'static str,
        /// Human-readable failure description.
        reason: String,
    },
    /// The iteration did not run at all (e.g. the time budget was already
    /// exhausted when it started).
    Skipped {
        /// Why the iteration was skipped.
        reason: String,
    },
}

/// Per-iteration funnel counts (how many features each stage kept) — the
/// observability the paper's Fig. 1 flow chart implies — plus how the
/// iteration ended.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Combinations mined from paths (or drawn at random).
    pub n_combinations: usize,
    /// Combinations kept after gain-ratio ranking (γ cap).
    pub n_combinations_kept: usize,
    /// Features generated by the operator set.
    pub n_generated: usize,
    /// Candidate set size |X̂| = |X ∪ X̃|.
    pub n_candidates: usize,
    /// Survivors of the IV filter (Algorithm 3).
    pub n_after_iv: usize,
    /// Survivors of redundancy removal (Algorithm 4).
    pub n_after_redundancy: usize,
    /// Final selected count after gain ranking and the 2M cap.
    pub n_selected: usize,
    /// Names of the selected features.
    pub selected: Vec<String>,
    /// Wall-clock time of this iteration in integer microseconds.
    pub elapsed_us: u64,
    /// How the iteration ended.
    pub status: IterationStatus,
}

impl IterationReport {
    /// Equality over everything except `elapsed_us`, which is wall-clock
    /// time and therefore nondeterministic across runs and thread counts.
    /// The serial-vs-parallel differential suite compares histories with
    /// this instead of `==`.
    pub fn structural_eq(&self, other: &IterationReport) -> bool {
        self.iteration == other.iteration
            && self.n_combinations == other.n_combinations
            && self.n_combinations_kept == other.n_combinations_kept
            && self.n_generated == other.n_generated
            && self.n_candidates == other.n_candidates
            && self.n_after_iv == other.n_after_iv
            && self.n_after_redundancy == other.n_after_redundancy
            && self.n_selected == other.n_selected
            && self.selected == other.selected
            && self.status == other.status
    }
}

/// The result of a SAFE run.
#[derive(Debug, Clone)]
pub struct SafeOutcome {
    /// The learned Ψ for the final iteration's feature set.
    pub plan: FeaturePlan,
    /// Funnel counts per iteration.
    pub history: Vec<IterationReport>,
    /// Plan snapshot after each iteration (Fig. 4 evaluates these).
    pub plans_per_iteration: Vec<FeaturePlan>,
    /// What the pre-fit data audit found (and repaired, under
    /// [`safe_data::AuditPolicy::Repair`]).
    pub audit: AuditReport,
    /// Per-iteration, per-stage telemetry: wall-clock timings (integer
    /// microseconds), counters, the feature-count waterfall, and structured
    /// warnings. Always assembled, whatever sink is configured.
    pub report: RunReport,
}

/// The SAFE feature engineering engine.
#[derive(Debug, Clone)]
pub struct Safe {
    config: SafeConfig,
}

impl Safe {
    /// Build with a configuration (validated at fit time).
    pub fn new(config: SafeConfig) -> Safe {
        Safe { config }
    }

    /// Paper-default SAFE.
    pub fn paper() -> Safe {
        Safe::new(SafeConfig::paper())
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &SafeConfig {
        &self.config
    }

    /// Run Algorithm 1 on a labeled training set (optionally with a
    /// validation set for the internal boosters).
    ///
    /// Returns `Err` only for rejections: invalid configuration, unlabeled
    /// or empty data, or a fatal/policy-triggered audit finding. Mid-loop
    /// failures degrade (see the module docs) and still return `Ok`.
    ///
    /// With [`SafeConfig::checkpoint_dir`] set, a durable `SAFECKPT`
    /// snapshot is written after each completed iteration (subject to
    /// [`SafeConfig::checkpoint_every`]); see [`Safe::fit_resumed`] and
    /// [`crate::checkpoint`] for crash recovery.
    pub fn fit(&self, train: &Dataset, valid: Option<&Dataset>) -> Result<SafeOutcome, SafeError> {
        self.run(train, valid, None)
    }

    /// Resume an interrupted [`Safe::fit`] from the newest loadable
    /// checkpoint under [`SafeConfig::checkpoint_dir`], then continue
    /// training to the same final plan, history, and report — bit-identical
    /// to an uninterrupted run at any thread count (the crash differential
    /// suite enforces this).
    ///
    /// Recovery ladder: the newest checkpoint is tried first; a torn or
    /// corrupt file is quarantined (renamed to `*.corrupt`, surfaced as a
    /// sink warning) and the previous good checkpoint is tried next. An
    /// empty directory falls back to a cold start. `Err` is reserved for
    /// rejections: no `checkpoint_dir` configured, a missing directory,
    /// every candidate file corrupt, or a checkpoint whose configuration
    /// fingerprint does not match this engine's result-determining
    /// settings.
    pub fn fit_resumed(
        &self,
        train: &Dataset,
        valid: Option<&Dataset>,
    ) -> Result<SafeOutcome, SafeError> {
        self.config.validate().map_err(SafeError::Config)?;
        let dir = self.config.checkpoint_dir.clone().ok_or_else(|| {
            SafeError::Checkpoint(
                "fit_resumed requires SafeConfig::checkpoint_dir to be set".into(),
            )
        })?;
        let store = CheckpointStore::new(dir);
        if !store.dir().is_dir() {
            return Err(SafeError::Checkpoint(format!(
                "checkpoint directory '{}' does not exist",
                store.dir().display()
            )));
        }
        let sink = self.config.sink.as_dyn();
        let loaded = store
            .load_latest()
            .map_err(|e| SafeError::Checkpoint(e.to_string()))?;
        // Quarantine notices are sink-only: the carried report must stay
        // structurally identical to the uninterrupted run's.
        for (path, reason) in &loaded.quarantined {
            sink.warn(
                stages::CHECKPOINT,
                None,
                "ckpt-quarantined",
                &format!("quarantined '{}': {reason}", path.display()),
            );
        }
        match loaded.checkpoint {
            Some(ckpt) => {
                if !ckpt.fingerprint.matches(&ConfigFingerprint::of(&self.config)) {
                    return Err(SafeError::Checkpoint(
                        "checkpoint was written under different result-determining settings \
                         (seed, thresholds, caps, iteration budget, or strategy); refusing to \
                         resume into a run that could not be bit-identical"
                            .into(),
                    ));
                }
                if let Some(from) = &loaded.loaded_from {
                    sink.warn(
                        stages::CHECKPOINT,
                        None,
                        "ckpt-resume",
                        &format!(
                            "resuming from '{}' at iteration {}",
                            from.display(),
                            ckpt.iterations_done
                        ),
                    );
                }
                self.run(train, valid, Some(ckpt))
            }
            None if loaded.candidates > 0 => Err(SafeError::Checkpoint(format!(
                "no loadable checkpoint under '{}': all {} candidate file(s) were corrupt and \
                 have been quarantined",
                store.dir().display(),
                loaded.candidates
            ))),
            None => {
                sink.warn(
                    stages::CHECKPOINT,
                    None,
                    "ckpt-cold-start",
                    &format!(
                        "no checkpoint under '{}'; starting from scratch",
                        store.dir().display()
                    ),
                );
                self.run(train, valid, None)
            }
        }
    }

    /// The shared fit loop behind [`Safe::fit`] (cold start) and
    /// [`Safe::fit_resumed`] (continue from a [`Checkpoint`]): audit,
    /// restore the working feature set, then one [`Safe::iterate`] per
    /// iteration, each closed by [`Safe::close_iteration`].
    fn run(
        &self,
        train: &Dataset,
        valid: Option<&Dataset>,
        resume: Option<Checkpoint>,
    ) -> Result<SafeOutcome, SafeError> {
        self.config.validate().map_err(SafeError::Config)?;
        if train.labels().is_none() {
            return Err(SafeError::Data("training data has no labels".into()));
        }
        if train.is_empty() {
            return Err(SafeError::Data("training data is empty".into()));
        }

        let sink = self.config.sink.as_dyn();
        // On resume the builder is seeded with the checkpointed report so
        // the finished report covers the whole run, not just this segment.
        let mut rb = match &resume {
            Some(ckpt) => ReportBuilder::resume(sink, ckpt.report.clone()),
            None => ReportBuilder::new(sink),
        };
        let (audit, repaired) = self.audit(train, resume.is_some(), &mut rb)?;
        let train = repaired.as_ref().unwrap_or(train);
        // Repairs change the schema; replay them on the validation set so
        // train and valid stay column-aligned.
        let valid: Option<Dataset> = match valid {
            Some(v) if !audit.actions.is_empty() => Some(
                audit
                    .replay(v)
                    .map_err(|e| SafeError::Data(e.to_string()))?,
            ),
            other => other.cloned(),
        };
        let original_names = feature_name_vec(train);

        let (first, prior_elapsed_us, history, plans) = match resume {
            // A finished run reconstructs its outcome straight from the
            // snapshot — no iterations re-run, resume is idempotent.
            Some(ckpt) if ckpt.terminal.is_final() => {
                return Ok(outcome(
                    &original_names,
                    ckpt.history,
                    ckpt.plans,
                    audit,
                    rb,
                ));
            }
            Some(ckpt) => (
                ckpt.iterations_done,
                ckpt.elapsed_us,
                ckpt.history,
                ckpt.plans,
            ),
            None => (0, 0, Vec::new(), Vec::new()),
        };
        // The catalog only ever contributes steps reachable from selected
        // outputs, so the last plan's steps reconstruct it on resume.
        let (current_train, current_valid, catalog) = match plans.last() {
            Some(plan) => {
                let (t, v) = self.replay(plan, train, valid.as_ref())?;
                (
                    t,
                    v,
                    plan.steps
                        .iter()
                        .map(|s| (s.name.clone(), s.clone()))
                        .collect(),
                )
            }
            None => (train.clone(), valid, BTreeMap::new()),
        };
        let mut st = IterState {
            rb,
            store: self.config.checkpoint_dir.clone().map(CheckpointStore::new),
            original_names,
            train: current_train,
            valid: current_valid,
            catalog,
            history,
            plans,
            bin_cache: self.config.cache.then(BinCache::new),
            start: Instant::now(),
            prior_elapsed_us,
        };

        self.iterate_from(&mut st, first)?;
        record_oocore(train, &mut st.rb);
        Ok(outcome(
            &st.original_names,
            st.history,
            st.plans,
            audit,
            st.rb,
        ))
    }

    /// Run iterations `first..` until one converges, degrades, finds the
    /// time budget spent, or `n_iterations` is reached. Each iteration is
    /// closed by [`Safe::close_iteration`].
    fn iterate_from(&self, st: &mut IterState<'_>, first: usize) -> Result<(), SafeError> {
        let max_iters = match self.config.n_iterations {
            0 => usize::MAX,
            n => n,
        };
        for iteration in first..max_iters {
            let budget_spent = self.config.time_budget.is_some_and(|budget| {
                Duration::from_micros(st.prior_elapsed_us) + st.start.elapsed() >= budget
            });
            st.rb.begin_iteration(iteration);
            if budget_spent {
                let reason = "time budget exhausted";
                st.rb.warn(stages::ITERATION, "skipped", reason);
                let status = IterationStatus::Skipped {
                    reason: reason.into(),
                };
                let report = st.carried_over(iteration, None, 0, status);
                self.close_iteration(st, report, Terminal::Skipped)?;
                break;
            }
            let iter_start = Instant::now();
            match self.iterate(st, iteration, iter_start) {
                Ok((report, converged)) => {
                    let terminal = if converged {
                        Terminal::Converged
                    } else if iteration + 1 == max_iters {
                        Terminal::ItersExhausted
                    } else {
                        Terminal::Running
                    };
                    self.close_iteration(st, report, terminal)?;
                    if converged {
                        break;
                    }
                }
                // A failed stage records the iteration as degraded, falls
                // back to the current (last good) feature set, and stops
                // the loop. The failure also surfaces as a structured warn.
                Err(fail) => {
                    st.rb.warn(fail.stage, "degraded", &fail.reason);
                    let elapsed_us = iter_start.elapsed().as_micros() as u64;
                    let status = IterationStatus::Degraded {
                        stage: fail.stage,
                        reason: fail.reason,
                    };
                    let report = st.carried_over(iteration, fail.funnel, elapsed_us, status);
                    self.close_iteration(st, report, Terminal::Degraded)?;
                    break;
                }
            }
        }
        Ok(())
    }

    /// The pre-fit data audit under [`SafeConfig::audit`]: its report plus
    /// the repaired training set, if it repaired anything.
    ///
    /// On resume the audit re-runs (its repairs must be reapplied for the
    /// schema to line up) but is NOT re-instrumented: the carried report
    /// already holds the first segment's audit span and warnings, and
    /// `enforce` is deterministic — same data, same findings.
    fn audit(
        &self,
        train: &Dataset,
        resuming: bool,
        rb: &mut ReportBuilder<'_>,
    ) -> Result<(AuditReport, Option<Dataset>), SafeError> {
        if resuming {
            return Ok(enforce(train, &self.config.audit, self.config.beta)?);
        }
        let (report, repaired) = {
            let mut g = rb.stage(stages::AUDIT);
            let result = enforce(train, &self.config.audit, self.config.beta);
            if let Ok((report, _)) = &result {
                g.counter("findings", report.findings.len() as u64);
                g.counter("repairs", report.actions.len() as u64);
            }
            result
        }?;
        for finding in &report.findings {
            rb.warn(stages::AUDIT, finding.code(), &finding.to_string());
        }
        for action in &report.actions {
            rb.warn(stages::AUDIT, "audit-repair", &action.to_string());
        }
        Ok((report, repaired))
    }

    /// Rebuild a resumed run's working feature set by replaying its last
    /// good plan over the audited originals. Plan replay is deterministic
    /// and equal to the in-loop columns (the plan replay differential pins
    /// this), so the resumed loop sees exactly the state the crashed run
    /// held after its last completed iteration.
    fn replay(
        &self,
        plan: &FeaturePlan,
        train: &Dataset,
        valid: Option<&Dataset>,
    ) -> Result<(Dataset, Option<Dataset>), SafeError> {
        let ckpt_err = |what: &str, e: &dyn std::fmt::Display| {
            SafeError::Checkpoint(format!("checkpointed plan does not {what}: {e}"))
        };
        let compiled = plan
            .compile(&self.config.operators)
            .map_err(|e| ckpt_err("compile against the configured operator registry", &e))?;
        let train = compiled
            .apply(train)
            .map_err(|e| ckpt_err("replay on the training data", &e))?;
        let valid = match valid {
            Some(v) => Some(
                compiled
                    .apply(v)
                    .map_err(|e| ckpt_err("replay on the validation data", &e))?,
            ),
            None => None,
        };
        Ok((train, valid))
    }

    /// One pass of Algorithm 1 over the current feature set: generation
    /// (Section IV-B), then selection (Section IV-C). On success the state
    /// holds the newly selected features and the result is the iteration's
    /// report plus whether the selected set stayed the same (convergence).
    fn iterate(
        &self,
        st: &mut IterState<'_>,
        iteration: usize,
        iter_start: Instant,
    ) -> Result<(IterationReport, bool), StageFailure> {
        // --- feature generation (Section IV-B) -----------------------------
        let (n_combinations, ranked) = self
            .make_combinations(st, iteration)
            .map_err(|e| StageFailure::new("mine", e.chain_string()))?;
        let generated = self.generate_stage(st, &ranked)?;
        let mut funnel = Funnel {
            combinations: n_combinations,
            combinations_kept: ranked.len(),
            generated: generated.len(),
            ..Funnel::default()
        };
        let (cand_train, cand_valid) = st.add_candidates(generated)?;
        funnel.candidates = cand_train.n_cols();

        // --- staged candidate pruning (SelectionMode::Staged only) ---------
        // Exact mode takes the whole pool straight through, bit-identical
        // to the pre-staged pipeline (no extra stage, no extra counters).
        let finalists = match self.config.selection {
            SelectionMode::Exact => None,
            SelectionMode::Staged => Some(self.prune_stage(st, &cand_train, iteration)?),
        };
        // The pool the exact stages see: everything (Exact) or the staged
        // finalists (Staged). Column selection keeps names and values, so
        // the bin cache stays valid.
        let staged: (Dataset, Option<Dataset>);
        let (pool, pool_valid) = match &finalists {
            None => (&cand_train, cand_valid.as_ref()),
            Some(f) => {
                let project = |ds: &Dataset| {
                    ds.select_columns(f)
                        .map_err(|e| StageFailure::new("staged-prune", e.to_string()))
                };
                let train = project(&cand_train)?;
                staged = (train, cand_valid.as_ref().map(project).transpose()?);
                (&staged.0, staged.1.as_ref())
            }
        };

        // --- feature selection (Section IV-C) ------------------------------
        let iv_survivors = self.iv_stage(st, pool)?;
        funnel.after_iv = iv_survivors.len();
        if iv_survivors.is_empty() {
            // Nothing clears α: keep the current feature set and stop —
            // models need at least one column.
            return Err(StageFailure {
                stage: "iv-filter",
                reason: "no candidate cleared the IV threshold α".into(),
                funnel: Some(funnel),
            });
        }
        let kept = self.redundancy_stage(st, pool, &iv_survivors)?;
        funnel.after_redundancy = kept.len();
        let ranked_idx = self.rank_stage(st, pool, pool_valid, kept, iteration)?;
        if ranked_idx.is_empty() {
            return Err(StageFailure::new("rank", "ranking selected no features"));
        }
        // Staged rank indices point into the finalist subset; map them
        // back to candidate-pool indices for plan assembly and the next
        // iteration's column selection.
        let selected_idx: Vec<usize> = match &finalists {
            None => ranked_idx,
            Some(f) => ranked_idx.iter().map(|&i| f[i]).collect(),
        };
        let selected: Vec<String> = selected_idx
            .iter()
            .filter_map(|&i| cand_train.meta().get(i).map(|m| m.name.clone()))
            .collect();

        // Converged: the selected set did not change.
        let prev: HashSet<&str> = st.train.feature_names().into_iter().collect();
        let converged = selected.iter().map(String::as_str).collect::<HashSet<_>>() == prev;
        let select_err =
            |e: safe_data::error::DataError| StageFailure::new("select", e.to_string());
        st.train = cand_train
            .select_columns(&selected_idx)
            .map_err(select_err)?;
        if let Some(v) = cand_valid {
            st.valid = Some(v.select_columns(&selected_idx).map_err(select_err)?);
        }

        st.rb.set_waterfall(Waterfall {
            generated: funnel.generated as u64,
            candidates: funnel.candidates as u64,
            post_iv: funnel.after_iv as u64,
            post_redundancy: funnel.after_redundancy as u64,
            selected: selected.len() as u64,
        });
        let elapsed_us = iter_start.elapsed().as_micros() as u64;
        let report = funnel.report(iteration, selected, elapsed_us, IterationStatus::Completed);
        Ok((report, converged))
    }

    /// Record a closed iteration — history, plan snapshot, report span —
    /// then persist a checkpoint when a directory is configured. Terminal
    /// snapshots always persist (resume must be able to reconstruct a
    /// finished run); mid-run ones honor `checkpoint_every`.
    ///
    /// On the completed path two kill failpoints bracket the save to
    /// simulate a process dying just before/after durability: the `Err`
    /// return stands in for the process vanishing mid-fit (test-only,
    /// feature-gated — a documented exception to the degradation policy).
    fn close_iteration(
        &self,
        st: &mut IterState<'_>,
        report: IterationReport,
        terminal: Terminal,
    ) -> Result<(), SafeError> {
        let completed = report.status == IterationStatus::Completed;
        let status = match report.status {
            IterationStatus::Completed => "completed",
            IterationStatus::Degraded { .. } => "degraded",
            IterationStatus::Skipped { .. } => "skipped",
        };
        let iteration = report.iteration;
        st.plans.push(build_plan(
            &st.original_names,
            &st.catalog,
            &report.selected,
        ));
        st.history.push(report);
        st.rb.end_iteration(status);

        if completed {
            safe_data::failpoint!(
                "ckpt/kill-before-save",
                SafeError::Checkpoint("injected: ckpt/kill-before-save (simulated crash)".into())
            );
        }
        if terminal.is_final()
            || st
                .history
                .len()
                .is_multiple_of(self.config.checkpoint_every)
        {
            self.write_checkpoint(st, terminal, iteration);
        }
        if completed {
            safe_data::failpoint!(
                "ckpt/kill-after-save",
                SafeError::Checkpoint("injected: ckpt/kill-after-save (simulated crash)".into())
            );
        }
        Ok(())
    }

    /// Per-iteration seed for the randomized strategies and the staged
    /// subsamples: a pure function of `config.seed` and the iteration, so
    /// the iteration index *is* the RNG position on resume.
    fn iteration_seed(&self, iteration: usize) -> u64 {
        self.config
            .seed
            .wrapping_add(iteration as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
    }

    /// Produce (total mined, ranked-top-γ) combinations per the configured
    /// strategy, instrumenting the miner training (`gbm-train`), path/pool
    /// extraction (`path-extract`), and gain-ratio ranking (`rank-combos`)
    /// stages. The random strategies have no ranking stage; the all-features
    /// strategy has no miner either.
    fn make_combinations(
        &self,
        st: &mut IterState<'_>,
        iteration: usize,
    ) -> Result<(usize, Vec<Combination>), SafeError> {
        let max_arity = self.config.operators.max_arity().max(1);
        let seed = self.iteration_seed(iteration);
        let mine_err = |source| SafeError::Gbm {
            iteration,
            stage: "mine",
            source,
        };
        match self.config.strategy {
            GenerationStrategy::Mined => {
                let model = self.fit_miner(st).map_err(mine_err)?;
                let combos = {
                    let mut g = st.rb.stage(stages::PATH_EXTRACT);
                    let n_paths = model.paths().len();
                    let combos = mine_combinations(&model, max_arity);
                    g.counter("paths_found", n_paths as u64);
                    g.counter("combinations_extracted", combos.len() as u64);
                    g.set_flow(n_paths as u64, combos.len() as u64);
                    combos
                };
                let total = combos.len();
                let par = self.config.parallelism;
                let mut g = st.rb.stage(stages::RANK_COMBOS);
                g.counter("threads", par.resolve() as u64);
                let (ranked, stats) = rank_combinations(combos, &st.train, self.config.gamma, par)
                    .map_err(|e| SafeError::stage("rank-combos", e))?;
                g.counter("candidates_in", stats.candidates_in);
                g.counter("cells_evaluated", stats.cells_evaluated);
                g.counter("gamma_truncated", stats.gamma_truncated);
                g.set_flow(stats.candidates_in, ranked.len() as u64);
                Ok((total, ranked))
            }
            GenerationStrategy::RandomSplitFeatures => {
                let model = self.fit_miner(st).map_err(mine_err)?;
                let mut g = st.rb.stage(stages::PATH_EXTRACT);
                let mut pool = model.split_features();
                if pool.is_empty() {
                    pool = (0..st.train.n_cols()).collect();
                }
                let combos = random_combinations(&pool, self.config.gamma, max_arity, seed);
                g.counter("combinations_extracted", combos.len() as u64);
                g.set_flow(pool.len() as u64, combos.len() as u64);
                Ok((combos.len(), combos))
            }
            GenerationStrategy::RandomAllFeatures => {
                let mut g = st.rb.stage(stages::PATH_EXTRACT);
                let pool: Vec<usize> = (0..st.train.n_cols()).collect();
                let combos = random_combinations(&pool, self.config.gamma, max_arity, seed);
                g.counter("combinations_extracted", combos.len() as u64);
                g.set_flow(pool.len() as u64, combos.len() as u64);
                Ok((combos.len(), combos))
            }
        }
    }

    /// Train the combination-mining booster under a `gbm-train` span.
    fn fit_miner(&self, st: &mut IterState<'_>) -> Result<GbmModel, GbmError> {
        let mut g = st.rb.stage(stages::GBM_TRAIN);
        g.counter("threads", self.config.miner.parallelism.resolve() as u64);
        Gbm::new(self.config.miner.clone()).fit_cached_observed(
            &st.train,
            st.valid.as_ref(),
            st.bin_cache.as_mut(),
            g.sink(),
            stages::GBM_TRAIN,
            g.iteration(),
        )
    }

    /// Apply the operator set to the ranked combinations (`generate`).
    fn generate_stage(
        &self,
        st: &mut IterState<'_>,
        ranked: &[Combination],
    ) -> Result<Vec<GeneratedFeature>, StageFailure> {
        let par = self.config.parallelism;
        let mut g = st.rb.stage(stages::GENERATE);
        g.counter("threads", par.resolve() as u64);
        let registry = &self.config.operators;
        let (generated, stats) =
            generate_features(&st.train, st.valid.as_ref(), ranked, registry, par)
                .map_err(|e| StageFailure::stage("generate", e))?;
        for (op, count) in &stats.per_op {
            g.counter(&format!("op_{op}"), *count);
        }
        g.counter("degenerate_discarded", stats.degenerate_discarded);
        g.counter("name_collisions", stats.name_collisions);
        g.counter("op_fit_errors", stats.op_fit_errors);
        g.counter("stale_combinations", stats.stale_combinations);
        g.set_flow(ranked.len() as u64, generated.len() as u64);
        Ok(generated)
    }

    /// Successive halving down to a finalist set (`staged-prune`). Returns
    /// the finalists' column indices into `candidates`.
    fn prune_stage(
        &self,
        st: &mut IterState<'_>,
        candidates: &Dataset,
        iteration: usize,
    ) -> Result<Vec<usize>, StageFailure> {
        let par = self.config.parallelism;
        let n = candidates.n_cols();
        let cfg = StagedConfig::for_pool(n, self.config.beta, self.iteration_seed(iteration));
        let all: Vec<usize> = (0..n).collect();
        let mut g = st.rb.stage(stages::STAGED_PRUNE);
        g.counter("threads", par.resolve() as u64);
        g.counter("finalist_target", cfg.finalist_target as u64);
        let (finalists, rep) = staged_prune(candidates, &all, &cfg, par)
            .map_err(|e| StageFailure::stage("staged-prune", e))?;
        g.counter("rungs", rep.rungs.len() as u64);
        g.counter("rows_scored", rep.rows_scored());
        g.counter("short_circuited", rep.short_circuited as u64);
        if let Some(last) = rep.rungs.last() {
            g.counter("final_sample_rows", last.sample_rows as u64);
        }
        g.set_flow(n as u64, finalists.len() as u64);
        Ok(finalists)
    }

    /// Algorithm 3 over the pool (`iv-filter`).
    fn iv_stage(
        &self,
        st: &mut IterState<'_>,
        pool: &Dataset,
    ) -> Result<Vec<(usize, f64)>, StageFailure> {
        let par = self.config.parallelism;
        let n_pool = pool.n_cols();
        let mut g = st.rb.stage(stages::IV_FILTER);
        g.counter("threads", par.resolve() as u64);
        let survivors = iv_filter(pool, self.config.alpha, self.config.beta, par)
            .map_err(|e| StageFailure::stage("iv-filter", e))?;
        g.counter("dropped_alpha", (n_pool - survivors.len()) as u64);
        g.set_flow(n_pool as u64, survivors.len() as u64);
        Ok(survivors)
    }

    /// Algorithm 4 over the IV survivors (`redundancy-filter`), the same
    /// exact scan in both selection modes.
    fn redundancy_stage(
        &self,
        st: &mut IterState<'_>,
        pool: &Dataset,
        survivors: &[(usize, f64)],
    ) -> Result<Vec<usize>, StageFailure> {
        let (par, theta) = (self.config.parallelism, self.config.theta);
        let mut g = st.rb.stage(stages::REDUNDANCY);
        g.counter("threads", par.resolve() as u64);
        let (kept, pairs) = redundancy_filter(pool, survivors, theta, par)
            .map_err(|e| StageFailure::stage("redundancy", e))?;
        g.counter("pairs_compared", pairs);
        g.counter("dropped_theta", (survivors.len() - kept.len()) as u64);
        g.set_flow(survivors.len() as u64, kept.len() as u64);
        Ok(kept)
    }

    /// Section IV-C3 over the redundancy survivors (`rank-topk`): keep at
    /// most `output_multiplier × original width` by booster gain.
    fn rank_stage(
        &self,
        st: &mut IterState<'_>,
        pool: &Dataset,
        pool_valid: Option<&Dataset>,
        kept: Vec<usize>,
        iteration: usize,
    ) -> Result<Vec<usize>, StageFailure> {
        let cap = self.config.output_multiplier * st.original_names.len();
        let mut g = st.rb.stage(stages::RANK_TOPK);
        g.counter("threads", self.config.ranker.parallelism.resolve() as u64);
        // Staged fast path: when the cap cannot bind, the ranking booster
        // decides nothing — every survivor is selected regardless of gain
        // order — so staged mode skips the retrain and keeps the redundancy
        // scan's descending-IV order. Exact mode always ranks: its plan
        // (including output order) is pinned bit-identical to the seed
        // pipeline.
        if self.config.selection == SelectionMode::Staged && kept.len() <= cap {
            g.counter("skipped_cap_unbound", 1);
            g.set_flow(kept.len() as u64, kept.len() as u64);
            return Ok(kept);
        }
        let (sink, it) = (g.sink(), g.iteration());
        let ranker = &self.config.ranker;
        let cache = st.bin_cache.as_mut();
        let idx = rank_and_cap(pool, pool_valid, &kept, ranker, cap, cache, sink, it).map_err(
            |source| {
                let e = SafeError::Gbm {
                    iteration,
                    stage: "rank",
                    source,
                };
                StageFailure::new("rank", e.chain_string())
            },
        )?;
        g.set_flow(kept.len() as u64, idx.len() as u64);
        Ok(idx)
    }

    /// Persist a durable checkpoint after a closed iteration under a
    /// sink-only `checkpoint` span with `ckpt_bytes`/`ckpt_iterations`
    /// counters. No-op without a configured directory.
    ///
    /// The span goes to the configured sink, not the report builder, and
    /// the report fold drops `checkpoint` events when replaying a trace:
    /// the report embedded in the snapshot must match the uninterrupted
    /// run's, and a resumed run replays no checkpoint spans for its first
    /// segment. For the same reason a failed save degrades *durability*,
    /// not training — the error surfaces as a sink warning and the loop
    /// carries on.
    fn write_checkpoint(&self, st: &IterState<'_>, terminal: Terminal, iteration: usize) {
        let Some(store) = st.store.as_ref() else {
            return;
        };
        let sink = self.config.sink.as_dyn();
        let report = st.rb.snapshot();
        let elapsed_us = st.prior_elapsed_us + st.start.elapsed().as_micros() as u64;
        let t0 = Instant::now();
        sink.stage_start(stages::CHECKPOINT, Some(iteration));
        let ckpt = Checkpoint {
            fingerprint: ConfigFingerprint::of(&self.config),
            iterations_done: st.history.len(),
            terminal,
            elapsed_us,
            history: st.history.clone(),
            plans: st.plans.clone(),
            report,
        };
        let save_t0 = Instant::now();
        let saved = store.save(&ckpt);
        let save_us = save_t0.elapsed().as_micros() as u64;
        match saved {
            Ok(bytes) => {
                sink.counter(stages::CHECKPOINT, Some(iteration), "ckpt_bytes", bytes);
                sink.counter(
                    stages::CHECKPOINT,
                    Some(iteration),
                    "ckpt_iterations",
                    ckpt.iterations_done as u64,
                );
                // Sink-only latency observation, same contract as the span:
                // feeds the ckpt_write_us histogram, never the report.
                sink.observe(
                    stages::CHECKPOINT,
                    Some(iteration),
                    "ckpt_write_us",
                    save_us,
                );
            }
            Err(e) => {
                sink.warn(
                    stages::CHECKPOINT,
                    Some(iteration),
                    "ckpt-save-failed",
                    &format!("checkpoint save failed (training continues): {e}"),
                );
            }
        }
        sink.stage_end(
            stages::CHECKPOINT,
            Some(iteration),
            t0.elapsed().as_micros() as u64,
        );
    }
}

/// Funnel counts one iteration reached — the count half of an
/// [`IterationReport`].
#[derive(Default)]
struct Funnel {
    combinations: usize,
    combinations_kept: usize,
    generated: usize,
    candidates: usize,
    after_iv: usize,
    after_redundancy: usize,
}

impl Funnel {
    fn report(
        self,
        iteration: usize,
        selected: Vec<String>,
        elapsed_us: u64,
        status: IterationStatus,
    ) -> IterationReport {
        IterationReport {
            iteration,
            n_combinations: self.combinations,
            n_combinations_kept: self.combinations_kept,
            n_generated: self.generated,
            n_candidates: self.candidates,
            n_after_iv: self.after_iv,
            n_after_redundancy: self.after_redundancy,
            n_selected: selected.len(),
            selected,
            elapsed_us,
            status,
        }
    }
}

/// A stage failure mid-iteration: the iteration degrades to the last good
/// feature set and the loop stops.
struct StageFailure {
    /// Degradation stage name, as recorded in [`IterationStatus::Degraded`].
    stage: &'static str,
    /// Human-readable failure description.
    reason: String,
    /// How far the funnel got before the failure; `None` records zero
    /// generation counts over the carried-over feature set.
    funnel: Option<Funnel>,
}

impl StageFailure {
    fn new(stage: &'static str, reason: impl Into<String>) -> StageFailure {
        StageFailure {
            stage,
            reason: reason.into(),
            funnel: None,
        }
    }

    /// A worker panic or a failed column read inside `stage`.
    fn stage(stage: &'static str, e: StageError) -> StageFailure {
        StageFailure::new(stage, SafeError::stage(stage, e).chain_string())
    }
}

/// What the fit loop carries from one iteration to the next, plus the
/// run-wide context [`Safe::close_iteration`] needs to record and persist
/// an iteration.
struct IterState<'s> {
    rb: ReportBuilder<'s>,
    /// Durable checkpointing is on whenever a directory is configured.
    store: Option<CheckpointStore>,
    /// The audited input schema every plan starts from.
    original_names: Vec<String>,
    /// The current (last good) feature set.
    train: Dataset,
    valid: Option<Dataset>,
    /// Every generated feature ever defined, for transitive plan assembly.
    catalog: BTreeMap<String, PlanStep>,
    history: Vec<IterationReport>,
    plans: Vec<FeaturePlan>,
    /// Binned columns for the miner/ranker boosters, reused across
    /// iterations (see DESIGN.md §12). Column names are stable provenance,
    /// so entries stay valid for every column that survives an iteration.
    /// `None` when disabled — results are bit-identical either way.
    bin_cache: Option<BinCache>,
    /// When this process started the loop.
    start: Instant,
    /// Wall-clock spent in earlier segments of a resumed run.
    prior_elapsed_us: u64,
}

impl IterState<'_> {
    /// Report for an iteration whose funnel did not complete: the selection
    /// is the carried-over feature set.
    fn carried_over(
        &self,
        iteration: usize,
        funnel: Option<Funnel>,
        elapsed_us: u64,
        status: IterationStatus,
    ) -> IterationReport {
        let funnel = funnel.unwrap_or(Funnel {
            candidates: self.train.n_cols(),
            ..Funnel::default()
        });
        funnel.report(iteration, feature_name_vec(&self.train), elapsed_us, status)
    }

    /// Candidate set X̂ = X ∪ X̃: the current features plus every generated
    /// one, each also entered into the plan catalog.
    fn add_candidates(
        &mut self,
        generated: Vec<GeneratedFeature>,
    ) -> Result<(Dataset, Option<Dataset>), StageFailure> {
        let mut cand_train = self.train.clone();
        let mut cand_valid = self.valid.clone();
        let failed = |e: safe_data::error::DataError| StageFailure::new("generate", e.to_string());
        for g in generated {
            let meta = FeatureMeta::generated(g.name.clone(), g.op.clone(), g.parents.clone());
            let step = PlanStep {
                name: g.name,
                op: g.op,
                parents: g.parents,
                params: g.params,
            };
            self.catalog.insert(step.name.clone(), step);
            cand_train
                .push_column(meta.clone(), g.train_values)
                .map_err(failed)?;
            if let (Some(v), Some(values)) = (cand_valid.as_mut(), g.valid_values) {
                v.push_column(meta, values).map_err(failed)?;
            }
        }
        Ok((cand_train, cand_valid))
    }
}

/// Assemble the outcome: the final plan is the last iteration's, or the
/// identity over the audited schema when no iteration ran.
fn outcome(
    original_names: &[String],
    history: Vec<IterationReport>,
    plans: Vec<FeaturePlan>,
    audit: AuditReport,
    rb: ReportBuilder<'_>,
) -> SafeOutcome {
    let plan = plans.last().cloned().unwrap_or_else(|| FeaturePlan {
        input_names: original_names.to_vec(),
        steps: Vec::new(),
        outputs: original_names.to_vec(),
    });
    SafeOutcome {
        plan,
        history,
        plans_per_iteration: plans,
        audit,
        report: rb.finish(),
    }
}

/// Chunked fits close with a run-level backend summary: chunk-cache
/// traffic and the resident high-water mark against the configured
/// budget. Cache traffic depends on worker interleaving, so every
/// `oocore_*` counter — and the stage itself — is excluded from
/// `RunReport::structural_eq` (a spilled run stays structurally equal to
/// its resident twin).
fn record_oocore(train: &Dataset, rb: &mut ReportBuilder<'_>) {
    if !train.has_chunked_columns() {
        return;
    }
    let mut g = rb.stage(stages::OOCORE);
    let stores = train.chunk_stores();
    g.counter("oocore_stores", stores.len() as u64);
    let (mut hits, mut loads, mut evictions, mut peak, mut budget, mut table) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for store in stores {
        let stats = store.stats();
        hits += stats.hits;
        loads += stats.loads;
        evictions += stats.evictions;
        peak += stats.peak_resident_bytes;
        budget += store.budget_bytes().unwrap_or_else(|| store.table_bytes());
        table += store.table_bytes();
    }
    g.counter("oocore_chunk_hits", hits);
    g.counter("oocore_chunk_loads", loads);
    g.counter("oocore_evictions", evictions);
    g.counter("oocore_peak_resident_bytes", peak);
    g.counter("oocore_budget_bytes", budget);
    g.counter("oocore_table_bytes", table);
}

/// Current feature names as owned strings.
fn feature_name_vec(ds: &Dataset) -> Vec<String> {
    ds.feature_names().iter().map(|s| s.to_string()).collect()
}

/// Assemble a plan for the selected feature names: inputs are the original
/// schema; steps are the transitive closure of catalog entries the outputs
/// depend on, in dependency order.
fn build_plan(
    original_names: &[String],
    catalog: &BTreeMap<String, PlanStep>,
    selected: &[String],
) -> FeaturePlan {
    let mut ordered: Vec<PlanStep> = Vec::new();
    let mut visited: HashSet<String> = HashSet::new();

    fn visit(
        name: &str,
        catalog: &BTreeMap<String, PlanStep>,
        visited: &mut HashSet<String>,
        ordered: &mut Vec<PlanStep>,
    ) {
        if visited.contains(name) {
            return;
        }
        visited.insert(name.to_string());
        if let Some(step) = catalog.get(name) {
            for p in &step.parents {
                visit(p, catalog, visited, ordered);
            }
            ordered.push(step.clone());
        }
        // Names absent from the catalog are original inputs: no step needed.
    }

    for name in selected {
        visit(name, catalog, &mut visited, &mut ordered);
    }
    FeaturePlan {
        input_names: original_names.to_vec(),
        steps: ordered,
        outputs: selected.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use std::time::Duration;
    use rand::{Rng, SeedableRng};
    use safe_data::{AuditConfig, AuditPolicy};
    use safe_stats::auc::auc;

    /// Data whose label depends on the *product* of two features plus one
    /// marginally-informative feature and noise columns — the situation
    /// SAFE's generation stage is built for.
    fn interaction_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cols = vec![Vec::with_capacity(n); 5];
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            let c: f64 = rng.gen_range(-1.0..1.0);
            let n1: f64 = rng.gen_range(-1.0..1.0);
            let n2: f64 = rng.gen_range(-1.0..1.0);
            cols[0].push(a);
            cols[1].push(b);
            cols[2].push(c);
            cols[3].push(n1);
            cols[4].push(n2);
            let score = 3.0 * a * b + 0.5 * c + rng.gen_range(-0.2..0.2);
            labels.push((score > 0.0) as u8);
        }
        Dataset::from_columns(
            vec!["a".into(), "b".into(), "c".into(), "n1".into(), "n2".into()],
            cols,
            Some(labels),
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_improves_gbm_auc() {
        let train = interaction_data(1500, 1);
        let test = interaction_data(700, 2);
        let outcome = Safe::paper().fit(&train, None).unwrap();
        assert!(!outcome.history.is_empty());

        let train_new = outcome.plan.apply(&train).unwrap();
        let test_new = outcome.plan.apply(&test).unwrap();

        let cfg = safe_gbm::config::GbmConfig { n_rounds: 40, ..Default::default() };
        let base = Gbm::new(cfg.clone()).fit(&train, None).unwrap();
        let engineered = Gbm::new(cfg).fit(&train_new, None).unwrap();
        let auc_base = auc(&base.predict(&test), test.labels().unwrap());
        let auc_new = auc(&engineered.predict(&test_new), test_new.labels().unwrap());
        // On product-interaction data the mul feature is a direct shortcut;
        // allow a tiny tolerance for unlucky seeds but expect improvement.
        assert!(
            auc_new >= auc_base - 0.005,
            "engineered {auc_new} should not lose to base {auc_base}"
        );
    }

    #[test]
    fn discovers_the_product_feature() {
        let train = interaction_data(1500, 3);
        let outcome = Safe::paper().fit(&train, None).unwrap();
        let has_ab_product = outcome
            .plan
            .outputs
            .iter()
            .any(|n| n == "mul(a,b)" || n == "mul(b,a)" || n == "div(a,b)" || n == "div(b,a)");
        assert!(
            has_ab_product,
            "expected an (a,b) arithmetic feature among {:?}",
            outcome.plan.outputs
        );
    }

    #[test]
    fn output_respects_cap() {
        let train = interaction_data(800, 4);
        let outcome = Safe::paper().fit(&train, None).unwrap();
        assert!(outcome.plan.outputs.len() <= 2 * train.n_cols());
        let last = outcome.history.last().unwrap();
        assert_eq!(last.n_selected, outcome.plan.outputs.len());
        assert_eq!(last.status, IterationStatus::Completed);
    }

    #[test]
    fn funnel_counts_are_monotone() {
        let train = interaction_data(800, 5);
        let outcome = Safe::paper().fit(&train, None).unwrap();
        for r in &outcome.history {
            assert!(r.n_after_iv <= r.n_candidates);
            assert!(r.n_after_redundancy <= r.n_after_iv.max(1));
            assert!(r.n_selected <= r.n_after_redundancy.max(r.n_selected));
            assert!(r.n_combinations_kept <= r.n_combinations.max(r.n_combinations_kept));
        }
    }

    #[test]
    fn plan_replay_reproduces_training_columns() {
        let train = interaction_data(600, 6);
        let outcome = Safe::paper().fit(&train, None).unwrap();
        let replayed = outcome.plan.apply(&train).unwrap();
        // Serialize → parse → apply must agree exactly with direct apply.
        let text = outcome.plan.to_text();
        let reparsed = FeaturePlan::from_text(&text).unwrap();
        let replayed2 = reparsed.apply(&train).unwrap();
        assert_eq!(replayed.n_cols(), replayed2.n_cols());
        for c in 0..replayed.n_cols() {
            let x = replayed.column(c).unwrap();
            let y = replayed2.column(c).unwrap();
            for (a, b) in x.iter().zip(y) {
                assert!(a == b || (a.is_nan() && b.is_nan()));
            }
        }
    }

    #[test]
    fn rand_and_imp_share_the_selection_pipeline() {
        let train = interaction_data(800, 7);
        for config in [SafeConfig::rand_baseline(1), SafeConfig::imp_baseline(1)] {
            let outcome = Safe::new(config).fit(&train, None).unwrap();
            assert!(!outcome.plan.outputs.is_empty());
            assert!(outcome.plan.outputs.len() <= 2 * train.n_cols());
        }
    }

    #[test]
    fn multiple_iterations_accumulate_history() {
        let train = interaction_data(600, 8);
        let config = SafeConfig {
            n_iterations: 3,
            ..SafeConfig::paper()
        };
        let outcome = Safe::new(config).fit(&train, None).unwrap();
        assert!(outcome.history.len() <= 3);
        assert_eq!(outcome.history.len(), outcome.plans_per_iteration.len());
        // Iteration indices are sequential.
        for (i, r) in outcome.history.iter().enumerate() {
            assert_eq!(r.iteration, i);
        }
    }

    #[test]
    fn time_budget_stops_the_loop() {
        let train = interaction_data(600, 9);
        let config = SafeConfig {
            n_iterations: 0,
            time_budget: Some(Duration::from_millis(1)),
            ..SafeConfig::paper()
        };
        // With a 1ms budget the loop must exit almost immediately; the
        // iteration that hits the exhausted budget is recorded as skipped
        // and a usable plan still comes back.
        let outcome = Safe::new(config).fit(&train, None).unwrap();
        assert!(!outcome.history.is_empty());
        let last = outcome.history.last().unwrap();
        assert!(
            matches!(last.status, IterationStatus::Skipped { .. }),
            "budget exhaustion must be recorded: {:?}",
            last.status
        );
        assert_eq!(outcome.history.len(), outcome.plans_per_iteration.len());
        assert!(!outcome.plan.outputs.is_empty(), "identity plan fallback");
    }

    #[test]
    fn unlabeled_data_rejected() {
        let ds = Dataset::from_columns(vec!["x".into()], vec![vec![1.0, 2.0]], None).unwrap();
        assert!(matches!(
            Safe::paper().fit(&ds, None).unwrap_err(),
            SafeError::Data(_)
        ));
    }

    #[test]
    fn deterministic_under_seed() {
        let train = interaction_data(600, 10);
        let a = Safe::new(SafeConfig { seed: 3, ..SafeConfig::paper() })
            .fit(&train, None)
            .unwrap();
        let b = Safe::new(SafeConfig { seed: 3, ..SafeConfig::paper() })
            .fit(&train, None)
            .unwrap();
        assert_eq!(a.plan, b.plan);
    }

    /// Regression: an empty IV survivor set at iteration 0 used to reach
    /// `history.last().unwrap()` with an empty history and panic. It must
    /// now degrade to the identity plan.
    #[test]
    fn empty_iv_survivors_at_iteration_zero_degrades_gracefully() {
        let train = interaction_data(300, 11);
        let config = SafeConfig {
            alpha: f64::MAX, // nothing can clear this threshold
            ..SafeConfig::paper()
        };
        let outcome = Safe::new(config).fit(&train, None).unwrap();
        assert_eq!(outcome.history.len(), 1);
        assert!(matches!(
            outcome.history[0].status,
            IterationStatus::Degraded { stage: "iv-filter", .. }
        ));
        assert_eq!(outcome.history.len(), outcome.plans_per_iteration.len());
        // Fallback = identity over the original schema.
        assert_eq!(outcome.plan.outputs.len(), train.n_cols());
        assert!(outcome.plan.steps.is_empty());
    }

    #[test]
    fn audit_rejects_single_class_labels() {
        let ds = Dataset::from_columns(
            vec!["x".into()],
            vec![(0..100).map(|i| i as f64).collect()],
            Some(vec![0; 100]),
        )
        .unwrap();
        assert!(matches!(
            Safe::paper().fit(&ds, None).unwrap_err(),
            SafeError::Audit(_)
        ));
    }

    #[test]
    fn audit_repair_drops_constant_columns() {
        let mut train = interaction_data(400, 12);
        train
            .push_column(FeatureMeta::original("konst"), vec![7.0; 400])
            .unwrap();
        let config = SafeConfig {
            audit: AuditConfig { policy: AuditPolicy::Repair, ..AuditConfig::default() },
            ..SafeConfig::paper()
        };
        let outcome = Safe::new(config).fit(&train, None).unwrap();
        assert!(!outcome.audit.actions.is_empty(), "repair must be recorded");
        assert!(
            !outcome.plan.input_names.iter().any(|n| n == "konst"),
            "repaired schema excludes the constant column"
        );
    }

    #[test]
    fn audit_warn_policy_records_without_modifying() {
        let mut train = interaction_data(400, 13);
        train
            .push_column(FeatureMeta::original("konst"), vec![7.0; 400])
            .unwrap();
        let outcome = Safe::paper().fit(&train, None).unwrap(); // default: Warn
        assert!(outcome.audit.actions.is_empty());
        assert!(!outcome.audit.findings.is_empty(), "finding must be recorded");
        assert!(
            outcome.plan.input_names.iter().any(|n| n == "konst"),
            "warn policy leaves the schema untouched"
        );
    }

    /// The audit's too-few-rows advisory compares the row count with the β
    /// the IV stage uses, not a separate default.
    #[test]
    fn audit_advises_against_the_iv_bin_count() {
        let train = interaction_data(15, 14);
        let config = SafeConfig { beta: 20, ..SafeConfig::paper() };
        let outcome = Safe::new(config).fit(&train, None).unwrap();
        let want = safe_data::AuditFinding::TooFewRows { rows: 15, bins: 20 };
        assert!(outcome.audit.findings.contains(&want), "{:?}", outcome.audit.findings);
    }

    #[test]
    fn build_plan_pulls_transitive_dependencies() {
        let mut catalog = BTreeMap::new();
        catalog.insert(
            "mul(a,b)".to_string(),
            PlanStep {
                name: "mul(a,b)".into(),
                op: "mul".into(),
                parents: vec!["a".into(), "b".into()],
                params: vec![],
            },
        );
        catalog.insert(
            "log(mul(a,b))".to_string(),
            PlanStep {
                name: "log(mul(a,b))".into(),
                op: "log".into(),
                parents: vec!["mul(a,b)".into()],
                params: vec![],
            },
        );
        let plan = build_plan(
            &["a".into(), "b".into()],
            &catalog,
            &["log(mul(a,b))".to_string()],
        );
        // Selecting only the outer feature must still pull in the inner step.
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.steps[0].name, "mul(a,b)");
        assert_eq!(plan.steps[1].name, "log(mul(a,b))");
        assert!(plan.validate().is_ok());
    }

    /// Fresh per-test checkpoint directory under the system temp dir.
    fn temp_ckpt_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("safe_fit_ckpt_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ckpt_config(dir: &std::path::Path) -> SafeConfig {
        SafeConfig {
            seed: 5,
            n_iterations: 2,
            checkpoint_dir: Some(dir.to_path_buf()),
            ..SafeConfig::paper()
        }
    }

    fn assert_same_outcome(a: &SafeOutcome, b: &SafeOutcome) {
        assert_eq!(a.plan.to_text(), b.plan.to_text());
        assert_eq!(a.history.len(), b.history.len());
        for (x, y) in a.history.iter().zip(&b.history) {
            assert!(x.structural_eq(y), "history diverged at iter {}", x.iteration);
        }
        let a_plans: Vec<String> = a.plans_per_iteration.iter().map(|p| p.to_text()).collect();
        let b_plans: Vec<String> = b.plans_per_iteration.iter().map(|p| p.to_text()).collect();
        assert_eq!(a_plans, b_plans);
        assert!(a.report.structural_eq(&b.report), "reports diverged");
    }

    #[test]
    fn checkpointed_fit_persists_and_resume_of_a_finished_run_is_idempotent() {
        let dir = temp_ckpt_dir("finished");
        let train = interaction_data(600, 21);
        let safe = Safe::new(ckpt_config(&dir));
        let done = safe.fit(&train, None).unwrap();

        let store = CheckpointStore::new(dir.clone());
        let files = store.list().unwrap();
        assert!(!files.is_empty(), "fit must leave checkpoints behind");
        let latest = store.load_latest().unwrap().checkpoint.unwrap();
        assert!(latest.terminal.is_final(), "last snapshot must be terminal");
        assert_eq!(latest.iterations_done, done.history.len());

        // Resuming a finished run reconstructs the outcome, no re-training.
        let again = safe.fit_resumed(&train, None).unwrap();
        assert_same_outcome(&done, &again);
    }

    #[test]
    fn resume_after_losing_the_last_checkpoint_matches_the_uninterrupted_run() {
        let train = interaction_data(600, 22);
        let base_dir = temp_ckpt_dir("uninterrupted");
        let baseline = Safe::new(ckpt_config(&base_dir)).fit(&train, None).unwrap();
        assert!(baseline.history.len() >= 2, "need a multi-iteration run");

        // Simulate a crash between iterations 1 and 2: run again into a
        // second directory, then delete everything after the first snapshot.
        let crash_dir = temp_ckpt_dir("crashed");
        let safe = Safe::new(ckpt_config(&crash_dir));
        safe.fit(&train, None).unwrap();
        let store = CheckpointStore::new(crash_dir.clone());
        for path in store.list().unwrap() {
            if path != store.path_for(1) {
                std::fs::remove_file(path).unwrap();
            }
        }
        assert_eq!(store.list().unwrap().len(), 1);

        let resumed = safe.fit_resumed(&train, None).unwrap();
        assert_same_outcome(&baseline, &resumed);
        // The resumed segment writes its own snapshots; the latest is final.
        let latest = store.load_latest().unwrap().checkpoint.unwrap();
        assert!(latest.terminal.is_final());
    }

    #[test]
    fn fit_resumed_rejects_missing_configuration_and_directory() {
        let train = interaction_data(200, 23);
        // No checkpoint_dir configured.
        let err = Safe::new(SafeConfig::paper()).fit_resumed(&train, None).unwrap_err();
        assert!(matches!(err, SafeError::Checkpoint(_)), "{err}");
        // Directory does not exist.
        let gone = std::env::temp_dir().join("safe_fit_ckpt_tests/definitely_absent_xyz");
        let _ = std::fs::remove_dir_all(&gone);
        let err = Safe::new(SafeConfig {
            checkpoint_dir: Some(gone.clone()),
            ..SafeConfig::paper()
        })
        .fit_resumed(&train, None)
        .unwrap_err();
        assert!(matches!(err, SafeError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn fit_resumed_rejects_a_fingerprint_mismatch() {
        let dir = temp_ckpt_dir("fingerprint");
        let train = interaction_data(400, 24);
        Safe::new(ckpt_config(&dir)).fit(&train, None).unwrap();
        // Same directory, different seed: resuming could not be
        // bit-identical, so it must be refused.
        let other = Safe::new(SafeConfig { seed: 6, ..ckpt_config(&dir) });
        let err = other.fit_resumed(&train, None).unwrap_err();
        assert!(matches!(err, SafeError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn checkpoint_every_gates_mid_run_snapshots_but_not_terminal_ones() {
        let dir = temp_ckpt_dir("stride");
        let train = interaction_data(600, 25);
        let config = SafeConfig { checkpoint_every: 5, ..ckpt_config(&dir) };
        let outcome = Safe::new(config).fit(&train, None).unwrap();
        let store = CheckpointStore::new(dir.clone());
        let files = store.list().unwrap();
        // Mid-run snapshots are strided out; only the terminal one persists.
        assert_eq!(files.len(), 1, "{files:?}");
        let latest = store.load_latest().unwrap().checkpoint.unwrap();
        assert!(latest.terminal.is_final());
        assert_eq!(latest.iterations_done, outcome.history.len());
    }

    #[test]
    fn an_empty_checkpoint_directory_cold_starts() {
        let dir = temp_ckpt_dir("cold");
        let train = interaction_data(400, 26);
        let safe = Safe::new(ckpt_config(&dir));
        let resumed = safe.fit_resumed(&train, None).unwrap();
        let fresh_dir = temp_ckpt_dir("cold_fresh");
        let fresh = Safe::new(ckpt_config(&fresh_dir)).fit(&train, None).unwrap();
        assert_same_outcome(&fresh, &resumed);
    }
}
