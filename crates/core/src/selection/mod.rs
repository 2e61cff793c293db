//! The three-step feature selection pipeline (Section IV-C).
//!
//! Each step has one entry point: [`iv_filter`] (Algorithm 3),
//! [`redundancy_filter`] (Algorithm 4, exact `f64` Pearson) or
//! [`redundancy_filter_binned`] (Algorithm 4 on shared `u16` bin columns),
//! and [`rank_and_cap`] (Section IV-C3). Each takes an explicit
//! [`Parallelism`] (the ranker carries its own in [`GbmConfig`]) and
//! returns a captured worker panic or booster failure as an error, so the
//! caller can degrade the iteration instead of unwinding the run.
//!
//! [`staged`] adds the successive-halving pruner behind
//! [`crate::config::SelectionMode::Staged`]: candidates are whittled down
//! on growing row subsamples before the exact steps run, and the
//! redundancy scan for that mode runs on shared `u16` binned columns
//! ([`redundancy_filter_binned`]) instead of full `f64` columns.

pub mod staged;

use std::sync::OnceLock;

use safe_data::column::{ColumnRead, ColumnView};
use safe_data::dataset::Dataset;
use safe_gbm::binner::{BinCache, BinnedDataset};
use safe_gbm::corr::{binned_pearson, CorrColumn, CorrScratch};
use safe_gbm::booster::Gbm;
use safe_gbm::config::GbmConfig;
use safe_gbm::error::GbmError;
use safe_gbm::importance::ImportanceKind;
use safe_stats::iv::information_value;
use safe_stats::par::{ParPanic, Parallelism};
use safe_stats::pearson::{pearson, ExactMoments};

/// Algorithm 3: compute the IV of every candidate column (β equal-frequency
/// bins, in parallel under `par`) and keep those with `IV > α`. Returns the
/// surviving `(column index, IV)` pairs in the original column order.
///
/// Unlabeled data has no IV, so nothing can clear α: the result is empty
/// (the caller treats an empty survivor set as "keep the current features
/// and stop", never as a panic). A panic inside a worker (one poisoned
/// column) is captured and returned as [`ParPanic`].
pub fn iv_filter(
    train: &Dataset,
    alpha: f64,
    beta: usize,
    par: Parallelism,
) -> Result<Vec<(usize, f64)>, ParPanic> {
    safe_data::failpoint!("select/iv-empty" => return Ok(Vec::new()));
    let Some(labels) = train.labels() else {
        return Ok(Vec::new());
    };
    let views: Vec<ColumnView<'_>> = train.column_views().collect();
    let ivs = safe_stats::par::try_par_map(par, views.len(), |f| {
        safe_data::failpoint!(
            "select/iv-worker-panic" => panic!("injected worker panic: select/iv-worker-panic")
        );
        // Materialize is zero-copy for resident columns; chunked columns
        // gather into per-worker scratch, so at most one column per thread
        // is resident at a time. A spill-read failure panics here and is
        // captured as [`ParPanic`], degrading the iteration like any other
        // worker fault instead of unwinding the run.
        let mut scratch = Vec::new();
        let col = match views[f].materialize(&mut scratch) {
            Ok(col) => col,
            Err(e) => panic!("column read failed during IV scan: {e}"),
        };
        information_value(col, labels, beta).unwrap_or(0.0)
    })?;
    Ok(ivs
        .into_iter()
        .enumerate()
        .filter(|&(_, iv)| iv > alpha)
        .collect())
}

/// Algorithm 4: redundancy removal. Candidates are visited in descending-IV
/// order (ties broken by column index); a candidate is kept unless it
/// correlates above θ (absolute Pearson) with an already-kept feature.
///
/// (The paper's pseudo-code adds the higher-IV member of each offending pair
/// to the output; taken literally that drops uncorrelated features entirely,
/// so — like every scorecard implementation of this step — we implement the
/// stated *intent*: "if the pearson correlation of the two features is
/// greater than 0.8, the feature with the smaller IV of them will be
/// removed".)
///
/// Returns surviving column indices in descending-IV order plus the number
/// of candidate/kept pairs correlation-tested. Each candidate's pairs are
/// tested in parallel under `par`; worker panics surface as [`ParPanic`].
///
/// The kernel is the per-column moment cache ([`ExactMoments`]): NaN-free
/// pairs reduce to one centered dot product that reproduces the two-pass
/// `pearson` bit-for-bit, so the hot loop never re-derives means and
/// variances per pair. Pairs touching a column with missing cells keep
/// `pearson`'s pairwise deletion.
pub fn redundancy_filter(
    train: &Dataset,
    survivors: &[(usize, f64)],
    theta: f64,
    par: Parallelism,
) -> Result<(Vec<usize>, u64), ParPanic> {
    let order = descending_iv(survivors);
    let n_cols = train.n_cols();
    // Moments are computed at most once per column, lazily on the first
    // pair that touches it, and shared across scan workers.
    let moments: Vec<OnceLock<Option<ExactMoments>>> =
        (0..n_cols).map(|_| OnceLock::new()).collect();
    let mut pairs_compared: u64 = 0;
    let mut kept: Vec<usize> = Vec::new();
    for (candidate, _) in order {
        // Out-of-range survivor indices cannot be kept (defensive: survivor
        // lists always come from iv_filter over the same dataset).
        if candidate >= n_cols {
            continue;
        }
        // Compare against all kept features in parallel; any hit disqualifies.
        pairs_compared += kept.len() as u64;
        let hits = safe_stats::par::try_par_map(par, kept.len(), |i| {
            pair_rho(train, &moments, candidate, kept[i]).abs() > theta
        })?;
        if !hits.into_iter().any(|h| h) {
            kept.push(candidate);
        }
    }
    Ok((kept, pairs_compared))
}

/// Survivors sorted by descending IV, ties broken by ascending column
/// index — the visiting order of both redundancy scans.
fn descending_iv(survivors: &[(usize, f64)]) -> Vec<(usize, f64)> {
    let mut order = survivors.to_vec();
    order.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    order
}

/// Moments of column `idx`, computed on first use and shared across scan
/// workers. A spill-read failure panics so the parallel scan surfaces it as
/// a captured [`ParPanic`] and the caller degrades the iteration.
fn moments_of<'m>(
    train: &Dataset,
    moments: &'m [OnceLock<Option<ExactMoments>>],
    idx: usize,
) -> &'m Option<ExactMoments> {
    moments[idx].get_or_init(|| {
        let view = match train.column_view(idx) {
            Ok(v) => v,
            Err(e) => panic!("column {idx} unavailable during redundancy scan: {e}"),
        };
        let mut scratch = Vec::new();
        let col = match view.materialize(&mut scratch) {
            Ok(c) => c,
            Err(e) => panic!("column {idx} read failed during redundancy scan: {e}"),
        };
        ExactMoments::of(col)
    })
}

/// Signed correlation of columns `a` and `b`: the moment kernel when both
/// columns are NaN-free (bitwise-equal to `pearson`), otherwise the
/// pairwise-deletion `pearson` on materialized slices (zero-copy when
/// resident).
fn pair_rho(
    train: &Dataset,
    moments: &[OnceLock<Option<ExactMoments>>],
    a: usize,
    b: usize,
) -> f64 {
    if let (Some(ma), Some(mb)) = (
        moments_of(train, moments, a).as_ref(),
        moments_of(train, moments, b).as_ref(),
    ) {
        return ma.rho(mb);
    }
    let (va, vb) = match (train.column_view(a), train.column_view(b)) {
        (Ok(va), Ok(vb)) => (va, vb),
        (Err(e), _) | (_, Err(e)) => {
            panic!("column unavailable during redundancy scan: {e}")
        }
    };
    let (mut sa, mut sb) = (Vec::new(), Vec::new());
    let ca = match va.materialize(&mut sa) {
        Ok(c) => c,
        Err(e) => panic!("column {a} read failed during redundancy scan: {e}"),
    };
    let cb = match vb.materialize(&mut sb) {
        Ok(c) => c,
        Err(e) => panic!("column {b} read failed during redundancy scan: {e}"),
    };
    pearson(ca, cb)
}

/// Half-width of the |ρ| band around θ inside which
/// [`redundancy_filter_binned`] falls back to the exact `f64` Pearson.
/// Sized to cover the binned kernel's documented ±0.02 quantization error
/// with headroom for heavily missing columns (pairwise deletion over bin
/// representatives amplifies the error).
pub const BINNED_THETA_MARGIN: f64 = 0.05;

/// Minimum [`CorrColumn::rep_variance_ratio`] for the binned estimate to
/// decide a pair at all. A column below the floor lost a visible fraction
/// of its variance to bin-mean dilution — the signature of a heavy-tailed
/// candidate whose exact ρ is carried by a few extreme rows the
/// representatives smear away — and no margin around θ can bound the
/// resulting error (deviations past 0.5 absolute were measured on
/// nested-division candidates). Pairs touching such a column always use
/// the exact `f64` Pearson. Smooth and lossless columns sit at ~1.0, so
/// the common case keeps the integer kernel.
pub const BINNED_TRUST_FLOOR: f64 = 0.999;

/// Staged-mode redundancy removal: the same greedy descending-IV scan as
/// [`redundancy_filter`], but with pair correlations computed by the
/// integer co-occurrence kernel ([`safe_gbm::corr::binned_pearson`]) over
/// `u16` bin columns quantized at `max_bins` — shared with the ranking
/// booster through the [`BinCache`], so the rank-topk stage re-bins
/// nothing.
///
/// The binned statistic is *not* bit-identical to the exact `f64`
/// `pearson` (see the precision contract in `safe_gbm::corr`), which is
/// why this function is only reachable under
/// [`crate::config::SelectionMode::Staged`]. Two guards keep every θ-decision
/// consistent with the exact kernel: pairs touching a column below
/// [`BINNED_TRUST_FLOOR`] (bin-mean dilution of outliers — the estimate is
/// unbounded there) and pairs whose estimate lands within
/// [`BINNED_THETA_MARGIN`] of θ (quantization wobble) are re-decided with
/// the exact `f64` Pearson, so neither failure mode can flip a keep/drop
/// decision and cascade through the greedy scan.
///
/// Like the exact scan, each candidate's comparisons against the kept set
/// fan out across the thread budget once the kept set is large enough to
/// amortize a per-chunk scratch table ([`PAR_SCAN_MIN`]); below that the
/// scan stays serial on one persistent scratch. Every pair decision is a
/// pure function of the two columns, so the kept set is identical at any
/// thread count.
///
/// Returns surviving column indices in descending-IV order plus the number
/// of pairs examined, mirroring [`redundancy_filter`].
pub fn redundancy_filter_binned(
    train: &Dataset,
    survivors: &[(usize, f64)],
    theta: f64,
    max_bins: usize,
    par: Parallelism,
    bin_cache: Option<&mut BinCache>,
) -> Result<(Vec<usize>, u64), BinnedRedundancyError> {
    let order = descending_iv(survivors);
    let order_idx: Vec<usize> = order.iter().map(|&(i, _)| i).collect();
    let sub = train.select_columns(&order_idx)?;
    let binned = match bin_cache {
        Some(cache) => BinnedDataset::fit_cached(&sub, max_bins, par, cache),
        None => BinnedDataset::fit(&sub, max_bins, par),
    };
    // Materialize the survivor columns: resident columns are borrowed
    // zero-copy; chunked columns are gathered once into owned scratch (a
    // documented staged-mode residency caveat — this scan touches every
    // survivor column repeatedly, so streaming re-reads would thrash the
    // chunk cache).
    let views: Vec<ColumnView<'_>> = sub.column_views().collect();
    let mut gathered: Vec<Vec<f64>> = Vec::new();
    let mut slots: Vec<Option<usize>> = Vec::with_capacity(views.len());
    for view in &views {
        if view.as_slice().is_some() {
            slots.push(None);
        } else {
            let mut buf = Vec::new();
            view.gather_into(&mut buf)?;
            slots.push(Some(gathered.len()));
            gathered.push(buf);
        }
    }
    let raw_cols: Vec<&[f64]> = views
        .iter()
        .zip(&slots)
        .map(|(view, slot)| match slot {
            Some(g) => gathered[*g].as_slice(),
            None => view.as_slice().unwrap_or(&[]),
        })
        .collect();
    let corr_cols: Vec<CorrColumn> = (0..sub.n_cols())
        .map(|f| CorrColumn::new(binned.bins(f), binned.mapper(f), raw_cols[f]))
        .collect();
    // Exact fast path for NaN-free pairs: with every row shared, the
    // pairwise-deletion means and variance sums inside `pearson` collapse
    // to per-column constants. Precomputing them — and the centered
    // values — in the same accumulation order reproduces `pearson`
    // bitwise (f64 addition chains are never reassociated) while
    // reducing each pair to a single centered dot product.
    let moments: Vec<Option<ExactMoments>> =
        raw_cols.iter().map(|col| ExactMoments::of(col)).collect();
    // For pairs with missing cells the kernel choice is layered: the
    // binned estimate decides the pair only when it is known to track
    // exact ρ — both columns must retain their variance through the bin
    // representatives (outlier-diluted columns deviate unboundedly — the
    // nested division shapes), and the estimate must land clear of the
    // ±BINNED_THETA_MARGIN ambiguity band around θ (quantization wobble
    // on smooth data is documented at ±0.02). Everything else is
    // re-decided with the exact f64 Pearson, so no path can flip a
    // keep/drop decision and cascade through the greedy scan.
    let decide = |candidate: usize, k: usize, scratch: &mut CorrScratch| -> bool {
        if let (Some(a), Some(b)) = (&moments[candidate], &moments[k]) {
            return a.abs_rho(b) > theta;
        }
        let trusted = corr_cols[candidate].rep_variance_ratio() >= BINNED_TRUST_FLOOR
            && corr_cols[k].rep_variance_ratio() >= BINNED_TRUST_FLOOR;
        if trusted {
            let approx = binned_pearson(&corr_cols[candidate], &corr_cols[k], scratch).abs();
            if (approx - theta).abs() > BINNED_THETA_MARGIN {
                return approx > theta;
            }
        }
        pearson(raw_cols[candidate], raw_cols[k]).abs() > theta
    };
    let mut scratch = CorrScratch::new();
    let mut pairs_compared: u64 = 0;
    let mut kept: Vec<usize> = Vec::new(); // indices into `order`
    for candidate in 0..order.len() {
        pairs_compared += kept.len() as u64;
        let redundant = if kept.len() < PAR_SCAN_MIN || par.resolve() <= 1 {
            kept.iter().any(|&k| decide(candidate, k, &mut scratch))
        } else {
            let hits = safe_stats::par::try_par_chunks(par, kept.len(), |range| {
                let mut scratch = CorrScratch::new();
                range.map(|i| kept[i]).any(|k| decide(candidate, k, &mut scratch))
            })?;
            hits.into_iter().any(|h| h)
        };
        if !redundant {
            kept.push(candidate);
        }
    }
    Ok((kept.into_iter().map(|i| order[i].0).collect(), pairs_compared))
}

/// Kept-set size below which [`redundancy_filter_binned`] scans serially:
/// a parallel chunk pays for a fresh scratch table, so fanning out only
/// earns its keep once each worker amortizes it over enough pairs.
pub const PAR_SCAN_MIN: usize = 64;

/// Error from [`redundancy_filter_binned`]: the finalist column projection
/// or binning failed, or a parallel scan worker panicked. Both degrade the
/// iteration at the call site rather than unwinding the run.
#[derive(Debug, Clone)]
pub enum BinnedRedundancyError {
    /// Dataset projection / binning failure.
    Data(safe_data::error::DataError),
    /// A redundancy-scan worker panicked.
    Panic(ParPanic),
}

impl std::fmt::Display for BinnedRedundancyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinnedRedundancyError::Data(e) => write!(f, "{e}"),
            BinnedRedundancyError::Panic(p) => write!(f, "redundancy worker panicked: {p}"),
        }
    }
}

impl std::error::Error for BinnedRedundancyError {}

impl From<safe_data::error::DataError> for BinnedRedundancyError {
    fn from(e: safe_data::error::DataError) -> Self {
        BinnedRedundancyError::Data(e)
    }
}

impl From<ParPanic> for BinnedRedundancyError {
    fn from(p: ParPanic) -> Self {
        BinnedRedundancyError::Panic(p)
    }
}

/// Section IV-C3: rank the surviving candidates by average split gain of a
/// booster trained on exactly those columns, and keep at most `cap`.
/// Features the booster never split on rank after used ones, in `survivors`
/// order. Returns column indices **into `train`** plus the booster's
/// training stats.
///
/// The booster runs under `ranker` (including its thread budget) and emits
/// its training counters through `sink`, attributed to the `rank-topk`
/// stage and `iteration`. An optional [`BinCache`] hands it binned columns
/// cached by the miner or a previous iteration's ranker: column selection
/// preserves names and values, so the trained model — and therefore the
/// ranking — is bit-identical with and without the cache.
#[allow(clippy::too_many_arguments)]
pub fn rank_and_cap(
    train: &Dataset,
    valid: Option<&Dataset>,
    survivors: &[usize],
    ranker: &GbmConfig,
    cap: usize,
    cache: Option<&mut BinCache>,
    sink: &dyn safe_obs::EventSink,
    iteration: Option<usize>,
) -> Result<(Vec<usize>, safe_gbm::GbmFitStats), GbmError> {
    safe_data::failpoint!("select/rank", GbmError::Injected("select/rank"));
    if survivors.is_empty() {
        return Ok((Vec::new(), safe_gbm::GbmFitStats::default()));
    }
    // Survivors under the cap are still ranked, so the returned order is
    // importance-based either way.
    let sub_train = train.select_columns(survivors)?;
    let sub_valid = match valid {
        Some(v) => Some(v.select_columns(survivors)?),
        None => None,
    };
    let (model, stats) = Gbm::new(ranker.clone()).fit_cached_observed(
        &sub_train,
        sub_valid.as_ref(),
        cache,
        sink,
        safe_obs::stages::RANK_TOPK,
        iteration,
    )?;
    let importance = model.importance(ImportanceKind::AverageGain);
    let mut order: Vec<usize> = (0..survivors.len()).collect();
    order.sort_by(|&a, &b| {
        importance.scores[b]
            .partial_cmp(&importance.scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let selected = order.into_iter().take(cap).map(|i| survivors[i]).collect();
    Ok((selected, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(ds: &Dataset, alpha: f64) -> Vec<(usize, f64)> {
        iv_filter(ds, alpha, 10, Parallelism::auto()).unwrap()
    }

    fn redundancy(ds: &Dataset, survivors: &[(usize, f64)]) -> Vec<usize> {
        redundancy_filter(ds, survivors, 0.8, Parallelism::auto())
            .unwrap()
            .0
    }

    fn rank(ds: &Dataset, survivors: &[usize], cap: usize) -> Vec<usize> {
        let miner = GbmConfig::miner();
        let sink = &safe_obs::NullSink;
        let ranked = rank_and_cap(ds, None, survivors, &miner, cap, None, sink, None);
        ranked.unwrap().0
    }

    /// Columns: strong signal, its near-copy, weak signal, pure noise.
    fn fixture(n: usize) -> Dataset {
        let labels: Vec<u8> = (0..n).map(|i| (i >= n / 2) as u8).collect();
        let strong: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let copy: Vec<f64> = strong.iter().map(|v| v * 2.0 + 1.0).collect();
        let weak: Vec<f64> = (0..n)
            .map(|i| if i % 5 == 0 { (i >= n / 2) as u8 as f64 } else { (i % 2) as f64 })
            .collect();
        let noise: Vec<f64> = (0..n).map(|i| ((i * 7919) % 97) as f64).collect();
        Dataset::from_columns(
            vec!["strong".into(), "copy".into(), "weak".into(), "noise".into()],
            vec![strong, copy, weak, noise],
            Some(labels),
        )
        .unwrap()
    }

    #[test]
    fn iv_filter_drops_noise_keeps_signal() {
        let ds = fixture(1000);
        let kept = iv(&ds, 0.1);
        let indices: Vec<usize> = kept.iter().map(|&(i, _)| i).collect();
        assert!(indices.contains(&0), "strong signal survives");
        assert!(indices.contains(&1), "the copy also has high IV");
        assert!(!indices.contains(&3), "noise must be dropped");
        for &(_, iv) in &kept {
            assert!(iv > 0.1);
        }
    }

    #[test]
    fn iv_filter_respects_alpha() {
        let ds = fixture(1000);
        let loose = iv(&ds, 0.0);
        let strict = iv(&ds, 50.0);
        assert!(loose.len() >= iv(&ds, 0.1).len());
        assert!(strict.is_empty(), "nothing clears an absurd threshold");
    }

    #[test]
    fn redundancy_filter_keeps_one_of_each_pair() {
        let ds = fixture(1000);
        let survivors = iv(&ds, 0.1);
        let kept = redundancy(&ds, &survivors);
        // strong and copy are affinely related (ρ = 1): only one survives.
        let both = kept.contains(&0) && kept.contains(&1);
        assert!(!both, "perfectly correlated pair must lose a member: {kept:?}");
        assert!(kept.contains(&0) || kept.contains(&1));
    }

    #[test]
    fn redundancy_filter_no_false_drops() {
        // Uncorrelated survivors all stay.
        let n = 400;
        let labels: Vec<u8> = (0..n).map(|i| (i >= n / 2) as u8).collect();
        let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 31) % n) as f64).collect();
        let ds = Dataset::from_columns(
            vec!["a".into(), "b".into()],
            vec![a, b],
            Some(labels),
        )
        .unwrap();
        let survivors = vec![(0, 2.0), (1, 1.0)];
        let kept = redundancy(&ds, &survivors);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn redundancy_filter_prefers_higher_iv() {
        let ds = fixture(1000);
        // Force explicit IVs: column 1 higher than column 0.
        let survivors = vec![(0, 0.5), (1, 0.9)];
        let kept = redundancy(&ds, &survivors);
        assert_eq!(kept, vec![1], "higher-IV member of the pair wins");
    }

    #[test]
    fn rank_and_cap_puts_signal_first() {
        let ds = fixture(1000);
        let survivors = vec![0, 2, 3];
        let ranked = rank(&ds, &survivors, 2);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0], 0, "strong signal ranks first: {ranked:?}");
    }

    #[test]
    fn rank_and_cap_handles_empty() {
        let ds = fixture(100);
        let ranked = rank(&ds, &[], 5);
        assert!(ranked.is_empty());
    }

    #[test]
    fn rank_and_cap_caps() {
        let ds = fixture(500);
        let survivors = vec![0, 1, 2, 3];
        let ranked = rank(&ds, &survivors, 3);
        assert_eq!(ranked.len(), 3);
    }

    #[test]
    fn exact_moments_fast_path_is_bitwise_pearson() {
        // The staged scan's NaN-free fast path must reproduce the two-pass
        // `pearson` to the last bit — it caches the same accumulations, it
        // does not approximate them.
        let mut state = 0x5DEECE66Du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for n in [2usize, 7, 100, 421] {
            let x: Vec<f64> = (0..n).map(|_| next() * 10.0 - 5.0).collect();
            let y: Vec<f64> = x
                .iter()
                .map(|&v| 0.3 * v + next()) // correlated but not degenerate
                .collect();
            let (ma, mb) = (ExactMoments::of(&x).unwrap(), ExactMoments::of(&y).unwrap());
            let fast = ma.abs_rho(&mb);
            let exact = pearson(&x, &y).abs();
            assert_eq!(fast.to_bits(), exact.to_bits(), "n={n}: {fast} vs {exact}");
        }
        // Constant column: pearson defines ρ = 0.
        let c = vec![3.0; 50];
        let v: Vec<f64> = (0..50).map(|_| next()).collect();
        let (mc, mv) = (ExactMoments::of(&c).unwrap(), ExactMoments::of(&v).unwrap());
        assert_eq!(mc.abs_rho(&mv).to_bits(), pearson(&c, &v).abs().to_bits());
        // Columns with missing cells are excluded from the fast path.
        assert!(ExactMoments::of(&[1.0, f64::NAN, 2.0]).is_none());
        assert!(ExactMoments::of(&[1.0]).is_none());
    }
}
