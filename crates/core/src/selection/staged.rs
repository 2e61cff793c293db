//! Successive-halving candidate pruning (OpenFE-style) for the selection
//! stage.
//!
//! The exact selection pipeline scores **every** candidate with a full-row
//! IV pass, an O(d²·n) Pearson scan, and a booster retrain — on gina that
//! is 1.7 s per iteration against 0.4 s of actual GBM training. Most of
//! that work is spent precisely ranking candidates that any cheap score
//! would already reject. This module implements the standard
//! successive-halving fix:
//!
//! 1. score the whole pool with a cheap statistic (IV at the pipeline's β
//!    bins) on a **small deterministic row subsample** (rung 0,
//!    [`StagedConfig::base_rows`] rows),
//! 2. keep the better-scoring half, double the sample
//!    (`base_rows << rung`), re-score the survivors,
//! 3. repeat until the pool fits [`StagedConfig::finalist_target`]; only
//!    those finalists get the exact IV / Pearson / gain treatment.
//!
//! ## Determinism contract
//!
//! - The subsample for a rung is a pure function of `(seed, rung)` —
//!   [`subsample_rows`] runs a partial Fisher–Yates shuffle driven by
//!   SplitMix64, entirely off the thread pool.
//! - Per-candidate scores are computed with
//!   [`safe_stats::par::try_par_map`], whose fixed-order chunk merge makes
//!   the score vector identical at every thread count; ties in the
//!   survivor cut break by ascending column index.
//! - Pools already at or under the finalist target (including the trivial
//!   1-candidate pool) **short-circuit**: no rungs run, the pool passes
//!   straight to exact scoring ([`StagedReport::short_circuited`]).
//!
//! `crates/core/tests/proptest_staged.rs` pins all three properties;
//! `tests/selection_differential.rs` pins AUC parity of the end-to-end
//! staged pipeline against exact selection.
//!
//! A worker panic while scoring (exercised by the
//! `select/staged-worker-panic` failpoint) or a failed column read surfaces
//! as [`StageError`], which the pipeline turns into a degraded iteration —
//! never a poisoned run.

use safe_data::dataset::Dataset;
use safe_stats::iv::information_value;
use safe_stats::par::Parallelism;

use crate::error::{try_par_read, StageError};

/// Halving-schedule knobs. Constructed via [`StagedConfig::for_pool`] by
/// the pipeline; tests may build it directly to pin schedule edges.
#[derive(Debug, Clone)]
pub struct StagedConfig {
    /// Rows scored at rung 0; rung r samples `base_rows << r` rows
    /// (clamped to the dataset). Default 512.
    pub base_rows: usize,
    /// Stop halving once the pool is at or under this size; these
    /// finalists proceed to exact scoring. Pools already at or under the
    /// target short-circuit entirely.
    pub finalist_target: usize,
    /// Equal-frequency bins for the cheap IV score (the pipeline's β).
    pub beta: usize,
    /// Seed for the per-rung row subsamples (the pipeline passes its
    /// iteration-derived seed, so rungs differ across iterations).
    pub seed: u64,
}

impl StagedConfig {
    /// Pipeline defaults: rung-0 sample of 512 rows, finalist target of
    /// half the pool, clamped below by 128 (pools that small are cheap to
    /// score exactly, and cutting them was measured to evict candidates
    /// the exact rank stage puts in its plan). Halving once is
    /// deliberately conservative: exact scans over fewer finalists and the
    /// skipped or shrunken rank retrain carry the speedup, while the gentle
    /// cut keeps downstream AUC inside the ±0.005 parity band
    /// (`tests/selection_differential.rs` — a quarter-pool target was
    /// measured past the band on NaN-heavy data). The target is
    /// deliberately *not* clamped by the rank-topk `cap`: the exact stages
    /// downstream pick the final `cap` outputs by booster gain, and gain
    /// order correlates only loosely with the cheap IV score — cutting to
    /// `cap` here was measured to evict candidates the exact pipeline
    /// ranks into its plan, pushing AUC past the parity band on
    /// narrow-cap datasets.
    pub fn for_pool(pool: usize, beta: usize, seed: u64) -> StagedConfig {
        StagedConfig {
            base_rows: 512,
            finalist_target: pool.div_ceil(2).max(128),
            beta,
            seed,
        }
    }
}

/// What one halving rung did: pool sizes, sample size, and the surviving
/// column indices (ascending).
#[derive(Debug, Clone)]
pub struct RungReport {
    /// Rung number, 0-based.
    pub rung: usize,
    /// Rows in this rung's subsample.
    pub sample_rows: usize,
    /// Candidates entering the rung.
    pub pool_in: usize,
    /// Candidates surviving the cut.
    pub pool_out: usize,
    /// Surviving column indices, ascending.
    pub survivors: Vec<usize>,
}

/// Full schedule trace returned alongside the finalists.
#[derive(Debug, Clone, Default)]
pub struct StagedReport {
    /// One entry per executed rung, in order.
    pub rungs: Vec<RungReport>,
    /// True when the pool was already at or under the finalist target (or
    /// the dataset is unlabeled) and no rungs ran.
    pub short_circuited: bool,
}

impl StagedReport {
    /// Total rows scored across all rungs (Σ pool_in · sample_rows) — the
    /// telemetry counter for how much cheap work the schedule did.
    pub fn rows_scored(&self) -> u64 {
        self.rungs
            .iter()
            .map(|r| r.pool_in as u64 * r.sample_rows as u64)
            .sum()
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The first `sample` positions of a seeded Fisher–Yates permutation of
/// `0..n_rows` — a pure function of `(seed, rung)`, independent of thread
/// count. `sample >= n_rows` returns the identity order (the "exact" rung
/// scores every row, so no shuffle is needed or wanted).
pub fn subsample_rows(n_rows: usize, sample: usize, seed: u64, rung: usize) -> Vec<usize> {
    if sample >= n_rows {
        return (0..n_rows).collect();
    }
    let mut state = seed ^ (rung as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    let mut idx: Vec<usize> = (0..n_rows).collect();
    for i in 0..sample {
        let j = i + (splitmix64(&mut state) % (n_rows - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(sample);
    idx
}

/// Successively halve `candidates` (column indices into `train`) down to
/// the finalist target. Returns the finalists in ascending column order
/// plus the per-rung trace. A scoring-worker panic or a failed column read
/// surfaces as [`StageError`] for the caller to degrade on.
pub fn staged_prune(
    train: &Dataset,
    candidates: &[usize],
    cfg: &StagedConfig,
    par: Parallelism,
) -> Result<(Vec<usize>, StagedReport), StageError> {
    let mut pool: Vec<usize> = candidates.to_vec();
    pool.sort_unstable();
    let target = cfg.finalist_target.max(1);
    let labels = train.labels();
    if pool.len() <= target || labels.is_none() {
        return Ok((pool, StagedReport { rungs: Vec::new(), short_circuited: true }));
    }
    let labels = labels.unwrap_or_default();
    let n_rows = train.n_rows();
    let mut report = StagedReport::default();
    let mut rung = 0usize;
    while pool.len() > target {
        let sample_rows = (cfg.base_rows.max(1) << rung.min(48)).min(n_rows);
        let rows = subsample_rows(n_rows, sample_rows, cfg.seed, rung);
        let sub_labels: Vec<u8> = rows.iter().map(|&r| labels[r]).collect();
        let scores = try_par_read(par, pool.len(), |k| {
            // The injected panic stands in for a worker fault.
            #[allow(clippy::panic)]
            {
                safe_data::failpoint!(
                    "select/staged-worker-panic" =>
                        panic!("injected worker panic: select/staged-worker-panic")
                );
            }
            // Row sampling needs random access: read the candidate column
            // whole first (borrowed when resident, per-worker scratch gather
            // when chunked).
            let mut scratch = Vec::new();
            let col = train.read_column(pool[k], &mut scratch)?;
            let sub: Vec<f64> = rows.iter().map(|&r| col[r]).collect();
            Ok(information_value(&sub, &sub_labels, cfg.beta).unwrap_or(0.0))
        })?;
        // Once the sample covers every row the scores cannot sharpen
        // further: cut straight to the finalist target. Otherwise halve,
        // but never past the target.
        let keep_n = if sample_rows >= n_rows {
            target
        } else {
            pool.len().div_ceil(2).max(target)
        };
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(pool[a].cmp(&pool[b]))
        });
        let mut survivors: Vec<usize> = order.into_iter().take(keep_n).map(|i| pool[i]).collect();
        survivors.sort_unstable();
        report.rungs.push(RungReport {
            rung,
            sample_rows,
            pool_in: pool.len(),
            pool_out: survivors.len(),
            survivors: survivors.clone(),
        });
        pool = survivors;
        rung += 1;
    }
    Ok((pool, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n_rows: usize, n_cols: usize, seed: u64) -> Dataset {
        let mut state = seed;
        let mut cols: Vec<Vec<f64>> = Vec::new();
        let labels: Vec<u8> = (0..n_rows).map(|i| (i % 2) as u8).collect();
        for c in 0..n_cols {
            cols.push(
                (0..n_rows)
                    .map(|i| {
                        let noise = (splitmix64(&mut state) % 1000) as f64 / 1000.0;
                        // Lower column indices carry more signal.
                        labels[i] as f64 * (n_cols - c) as f64 + noise * (c + 1) as f64
                    })
                    .collect(),
            );
        }
        let names = (0..n_cols).map(|c| format!("f{c}")).collect();
        Dataset::from_columns(names, cols, Some(labels)).unwrap()
    }

    #[test]
    fn halves_down_to_target() {
        let ds = dataset(600, 40, 7);
        let candidates: Vec<usize> = (0..40).collect();
        let cfg = StagedConfig { base_rows: 64, finalist_target: 8, beta: 10, seed: 3 };
        let (finalists, report) =
            staged_prune(&ds, &candidates, &cfg, Parallelism::new(1)).unwrap();
        assert_eq!(finalists.len(), 8);
        assert!(!report.short_circuited);
        assert!(report.rungs.len() >= 2, "40 → 20 → 10 → 8 needs several rungs");
        for w in report.rungs.windows(2) {
            assert!(w[1].pool_in == w[0].pool_out);
            assert!(w[1].sample_rows >= w[0].sample_rows);
        }
    }

    #[test]
    fn signal_columns_survive() {
        let ds = dataset(800, 30, 11);
        let candidates: Vec<usize> = (0..30).collect();
        let cfg = StagedConfig { base_rows: 128, finalist_target: 5, beta: 10, seed: 9 };
        let (finalists, _) = staged_prune(&ds, &candidates, &cfg, Parallelism::new(1)).unwrap();
        // The strongest-signal column (index 0) must be among the finalists.
        assert!(finalists.contains(&0), "finalists {finalists:?} lost the strongest column");
    }

    #[test]
    fn small_pool_short_circuits() {
        let ds = dataset(200, 6, 1);
        let candidates: Vec<usize> = (0..6).collect();
        let cfg = StagedConfig { base_rows: 64, finalist_target: 8, beta: 10, seed: 5 };
        let (finalists, report) =
            staged_prune(&ds, &candidates, &cfg, Parallelism::new(1)).unwrap();
        assert_eq!(finalists, candidates);
        assert!(report.short_circuited);
        assert!(report.rungs.is_empty());
    }

    #[test]
    fn unlabeled_data_short_circuits() {
        let ds = dataset(200, 12, 2);
        let unlabeled = Dataset::from_columns(
            ds.feature_names().iter().map(|s| s.to_string()).collect(),
            ds.columns().map(|c| c.to_vec()).collect(),
            None,
        )
        .unwrap();
        let candidates: Vec<usize> = (0..12).collect();
        let cfg = StagedConfig { base_rows: 32, finalist_target: 4, beta: 10, seed: 5 };
        let (finalists, report) =
            staged_prune(&unlabeled, &candidates, &cfg, Parallelism::new(1)).unwrap();
        assert_eq!(finalists, candidates, "no labels → nothing to score on");
        assert!(report.short_circuited);
    }

    #[test]
    fn subsample_is_in_range_and_unique() {
        let rows = subsample_rows(1000, 128, 42, 3);
        assert_eq!(rows.len(), 128);
        let mut seen = std::collections::HashSet::new();
        for &r in &rows {
            assert!(r < 1000);
            assert!(seen.insert(r), "duplicate row {r}");
        }
    }

    #[test]
    fn oversized_sample_is_identity() {
        assert_eq!(subsample_rows(10, 10, 1, 0), (0..10).collect::<Vec<_>>());
        assert_eq!(subsample_rows(10, 99, 1, 0), (0..10).collect::<Vec<_>>());
    }
}
