//! The three-step feature selection pipeline (Section IV-C).
//!
//! Each step has one entry point: [`iv_filter`] (Algorithm 3),
//! [`redundancy_filter`] (Algorithm 4) and [`rank_and_cap`] (Section
//! IV-C3). Each takes an explicit [`Parallelism`] (the ranker carries its
//! own in [`GbmConfig`]) and returns a captured worker panic, a failed
//! column read or a booster failure as an error, so the caller can degrade
//! the iteration instead of unwinding the run.
//!
//! [`staged`] adds the successive-halving pruner behind
//! [`crate::config::SelectionMode::Staged`]: candidates are whittled down
//! on growing row subsamples before the three steps run on the finalists.
//! Both modes reach Algorithm 4 through the one exact [`redundancy_filter`].

pub mod staged;

use safe_data::dataset::Dataset;
use safe_data::DataError;
use safe_gbm::binner::BinCache;
use safe_gbm::booster::Gbm;
use safe_gbm::config::GbmConfig;
use safe_gbm::error::GbmError;
use safe_gbm::importance::ImportanceKind;
use safe_stats::iv::information_value;
use safe_stats::par::{try_par_chunks, Parallelism};
use safe_stats::pearson::{pearson, ExactMoments};

use crate::error::{try_par_read, StageError};

/// Algorithm 3: compute the IV of every candidate column (β equal-frequency
/// bins, in parallel under `par`) and keep those with `IV > α`. Returns the
/// surviving `(column index, IV)` pairs in the original column order.
///
/// Unlabeled data has no IV, so nothing can clear α: the result is empty
/// (the caller treats an empty survivor set as "keep the current features
/// and stop", never as a panic). A panic inside a worker (one poisoned
/// column) or a failed column read is returned as [`StageError`].
pub fn iv_filter(
    train: &Dataset,
    alpha: f64,
    beta: usize,
    par: Parallelism,
) -> Result<Vec<(usize, f64)>, StageError> {
    safe_data::failpoint!("select/iv-empty" => return Ok(Vec::new()));
    let Some(labels) = train.labels() else {
        return Ok(Vec::new());
    };
    let ivs = try_par_read(par, train.n_cols(), |f| {
        // The injected panic stands in for a worker fault.
        #[allow(clippy::panic)]
        {
            safe_data::failpoint!(
                "select/iv-worker-panic" => panic!("injected worker panic: select/iv-worker-panic")
            );
        }
        // A resident column is borrowed; a chunked one is gathered into
        // per-worker scratch, so at most one column per thread is resident
        // at a time.
        let mut scratch = Vec::new();
        let col = train.read_column(f, &mut scratch)?;
        Ok(information_value(col, labels, beta).unwrap_or(0.0))
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
/// tested in parallel under `par`; a worker panic or a failed column read
/// surfaces as [`StageError`].
///
/// The kernel is the per-column moment cache ([`ExactMoments`]): NaN-free
/// pairs reduce to one centered dot product that reproduces the two-pass
/// `pearson` bit-for-bit, so the hot loop never re-derives means and
/// variances per pair, and [`ExactMoments::rho_each`] runs a candidate's
/// NaN-free pairs four to a sweep over the rows, each in its own row-order
/// sum. Pairs touching a column with missing cells keep `pearson`'s
/// pairwise deletion.
pub fn redundancy_filter(
    train: &Dataset,
    survivors: &[(usize, f64)],
    theta: f64,
    par: Parallelism,
) -> Result<(Vec<usize>, u64), StageError> {
    let mut pairs_compared: u64 = 0;
    // Kept columns with their moments (`None` for a column with missing
    // cells), computed once per candidate before its pairs fan out.
    let mut kept: Vec<(usize, Option<ExactMoments>)> = Vec::new();
    for (candidate, _) in descending_iv(survivors) {
        // Out-of-range survivor indices cannot be kept (defensive: survivor
        // lists always come from iv_filter over the same dataset).
        if candidate >= train.n_cols() {
            continue;
        }
        let moments = ExactMoments::of(train.read_column(candidate, &mut Vec::new())?);
        // Compare against all kept features in parallel; any hit
        // disqualifies. Each chunk reports one hit flag, or its
        // lowest-index read failure, so the outcome is thread-invariant.
        pairs_compared += kept.len() as u64;
        let hits = try_par_chunks(par, kept.len(), |range| {
            let chunk = &kept[range];
            let mut hit = false;
            // NaN-free pairs: one sweep over the rows per four kept columns.
            if let Some(m) = &moments {
                let nan_free: Vec<&ExactMoments> =
                    chunk.iter().filter_map(|(_, km)| km.as_ref()).collect();
                hit = m.rho_each(&nan_free).iter().any(|rho| rho.abs() > theta);
            }
            // Pairs with missing cells: pairwise deletion, on the columns as
            // read (borrowed when resident), in kept order.
            for (k, km) in chunk {
                if moments.is_none() || km.is_none() {
                    let (mut sa, mut sb) = (Vec::new(), Vec::new());
                    let a = train.read_column(candidate, &mut sa)?;
                    let b = train.read_column(*k, &mut sb)?;
                    hit |= pearson(a, b).abs() > theta;
                }
            }
            Ok::<bool, DataError>(hit)
        })?;
        let mut redundant = false;
        for hit in hits {
            redundant |= hit?;
        }
        if !redundant {
            kept.push((candidate, moments));
        }
    }
    Ok((kept.into_iter().map(|(k, _)| k).collect(), pairs_compared))
}

/// Survivors sorted by descending IV, ties broken by ascending column
/// index — the visiting order of the redundancy scan.
fn descending_iv(survivors: &[(usize, f64)]) -> Vec<(usize, f64)> {
    let mut order = survivors.to_vec();
    order.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    order
}

/// Section IV-C3: rank the surviving candidates by average split gain of a
/// booster trained on exactly those columns, and keep at most `cap`.
/// Features the booster never split on rank after used ones, in `survivors`
/// order. Returns column indices **into `train`**.
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
) -> Result<Vec<usize>, GbmError> {
    safe_data::failpoint!("select/rank", GbmError::Injected("select/rank"));
    if survivors.is_empty() {
        return Ok(Vec::new());
    }
    // Survivors under the cap are still ranked, so the returned order is
    // importance-based either way.
    let sub_train = train.select_columns(survivors)?;
    let sub_valid = match valid {
        Some(v) => Some(v.select_columns(survivors)?),
        None => None,
    };
    let model = Gbm::new(ranker.clone()).fit_cached_observed(
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
    Ok(order.into_iter().take(cap).map(|i| survivors[i]).collect())
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
        rank_and_cap(ds, None, survivors, &miner, cap, None, sink, None).unwrap()
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
        // The redundancy scan's NaN-free fast path must reproduce the
        // two-pass `pearson` to the last bit — it caches the same
        // accumulations, it does not approximate them.
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
            let fast = ma.rho(&mb).abs();
            let exact = pearson(&x, &y).abs();
            assert_eq!(fast.to_bits(), exact.to_bits(), "n={n}: {fast} vs {exact}");
        }
        // Constant column: pearson defines ρ = 0.
        let c = vec![3.0; 50];
        let v: Vec<f64> = (0..50).map(|_| next()).collect();
        let (mc, mv) = (ExactMoments::of(&c).unwrap(), ExactMoments::of(&v).unwrap());
        assert_eq!(mc.rho(&mv).abs().to_bits(), pearson(&c, &v).abs().to_bits());
        // Columns with missing cells are excluded from the fast path.
        assert!(ExactMoments::of(&[1.0, f64::NAN, 2.0]).is_none());
        assert!(ExactMoments::of(&[1.0]).is_none());
    }
}
