//! Serial-vs-parallel differential suite: the parallel execution layer
//! (`safe::stats::par`) must be *bit-identical* to the serial path for
//! every thread count. Chunk boundaries depend only on the item count and
//! the resolved thread budget, every output slot is written by exactly one
//! worker, and reductions concatenate in chunk-index order — so
//! `threads=k` and `threads=1` runs of the whole SAFE pipeline must agree
//! on every selected feature, every plan byte, every funnel count, and
//! every downstream AUC. These tests pin that contract (see `DESIGN.md`,
//! "Parallel execution & determinism contract").

use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use proptest::prelude::*;

use safe::core::{Safe, SafeConfig, SafeOutcome};
use safe::data::split::train_test_split;
use safe::data::Dataset;
use safe::datagen::synth::{generate, SyntheticConfig};
use safe::models::classifier::{evaluate_auc, ClassifierKind};
use safe::stats::par::{par_map, try_par_map, Parallelism};

/// Thread budgets under test: serial, even splits, and a prime that does
/// not divide most item counts (exercises ragged chunk boundaries).
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// The failpoint registry is process-global, and the test harness runs this
/// file's tests on parallel threads. Every test that fits holds a read
/// guard; the failpoint test holds the write guard while a point is armed,
/// so no differential fit can take its injected panic.
static FAILPOINTS: RwLock<()> = RwLock::new(());

fn no_armed_failpoints() -> RwLockReadGuard<'static, ()> {
    FAILPOINTS.read().unwrap_or_else(PoisonError::into_inner)
}

/// Interaction-heavy synthetic data: the shape SAFE's generation stage is
/// built for, so the pipeline completes with a non-trivial funnel.
fn interaction_dataset() -> Dataset {
    generate(&SyntheticConfig {
        n_rows: 900,
        dim: 6,
        n_signal: 4,
        n_interactions: 3,
        marginal_weight: 0.1,
        noise: 0.2,
        seed: 11,
        ..Default::default()
    })
}

/// NaN-heavy data: a third of the draws in the affected columns are
/// missing, so binning, IV, and Pearson all hit their NaN paths inside
/// worker threads.
fn nan_heavy_dataset() -> Dataset {
    generate(&SyntheticConfig {
        n_rows: 700,
        dim: 12,
        n_signal: 5,
        n_interactions: 2,
        noise: 0.3,
        missing_rate: 0.35,
        seed: 23,
        ..Default::default()
    })
}

/// Degenerate data: a small synthetic base plus a constant column and an
/// all-NaN column. Workers must agree with the serial path on which
/// candidates get discarded as degenerate.
fn degenerate_dataset() -> Dataset {
    let base = generate(&SyntheticConfig {
        n_rows: 600,
        dim: 5,
        n_signal: 3,
        n_interactions: 2,
        noise: 0.25,
        seed: 37,
        ..Default::default()
    });
    let mut names: Vec<String> = base.meta().iter().map(|m| m.name.clone()).collect();
    let mut cols: Vec<Vec<f64>> = base.columns().map(<[f64]>::to_vec).collect();
    names.push("konst".to_string());
    cols.push(vec![7.0; base.n_rows()]);
    names.push("void".to_string());
    cols.push(vec![f64::NAN; base.n_rows()]);
    Dataset::from_columns(names, cols, base.labels().map(<[u8]>::to_vec)).unwrap()
}

fn fit_with_threads(data: &Dataset, threads: usize) -> SafeOutcome {
    let config = SafeConfig { seed: 5, n_iterations: 2, ..SafeConfig::paper() }
        .with_threads(threads);
    Safe::new(config)
        .fit(data, None)
        .unwrap_or_else(|e| panic!("fit with threads={threads} failed: {e}"))
}

/// Per-iteration downstream AUC: apply each iteration's plan snapshot and
/// evaluate a fixed-seed GBM on a held-out split. Computed independently
/// for each run so the comparison is end-to-end, not short-circuited
/// through the (already asserted) plan equality.
fn per_iteration_aucs(data: &Dataset, outcome: &SafeOutcome) -> Vec<u64> {
    let (train, test) = train_test_split(data, 0.3, 1).unwrap();
    outcome
        .plans_per_iteration
        .iter()
        .map(|plan| {
            let tr = plan.apply(&train).unwrap();
            let te = plan.apply(&test).unwrap();
            evaluate_auc(ClassifierKind::Xgb, &tr, &te, 9).unwrap().to_bits()
        })
        .collect()
}

/// The core differential assertion: every observable output of the run —
/// plan bytes, per-iteration snapshots, funnel history, run report, and
/// downstream AUC bits — matches the serial baseline exactly.
fn assert_differential(name: &str, data: &Dataset) {
    let _failpoints = no_armed_failpoints();
    let baseline = fit_with_threads(data, THREADS[0]);
    let baseline_aucs = per_iteration_aucs(data, &baseline);
    assert!(
        !baseline.plan.outputs.is_empty(),
        "{name}: serial baseline selected nothing — dataset too weak to differentiate"
    );
    for &threads in &THREADS[1..] {
        let run = fit_with_threads(data, threads);
        assert_eq!(
            run.plan.to_text(),
            baseline.plan.to_text(),
            "{name}: plan differs at threads={threads}"
        );
        assert_eq!(
            run.plans_per_iteration, baseline.plans_per_iteration,
            "{name}: per-iteration plans differ at threads={threads}"
        );
        assert_eq!(run.history.len(), baseline.history.len(), "{name}: threads={threads}");
        for (a, b) in run.history.iter().zip(&baseline.history) {
            assert!(
                a.structural_eq(b),
                "{name}: iteration {} history differs at threads={threads}:\n{a:?}\nvs\n{b:?}",
                a.iteration
            );
        }
        assert!(
            run.report.structural_eq(&baseline.report),
            "{name}: run report differs structurally at threads={threads}"
        );
        assert_eq!(
            per_iteration_aucs(data, &run),
            baseline_aucs,
            "{name}: downstream AUC bits differ at threads={threads}"
        );
    }
}

#[test]
fn interaction_heavy_runs_are_bit_identical_across_thread_counts() {
    assert_differential("interaction", &interaction_dataset());
}

#[test]
fn nan_heavy_runs_are_bit_identical_across_thread_counts() {
    assert_differential("nan-heavy", &nan_heavy_dataset());
}

#[test]
fn degenerate_runs_are_bit_identical_across_thread_counts() {
    assert_differential("degenerate", &degenerate_dataset());
}

/// Oversubscription far beyond the available cores must change nothing
/// observable either (the resolved budget only shapes chunk boundaries).
#[test]
fn heavy_oversubscription_matches_serial() {
    let _failpoints = no_armed_failpoints();
    let data = interaction_dataset();
    let a = fit_with_threads(&data, 1);
    let b = fit_with_threads(&data, 64);
    assert_eq!(a.plan, b.plan);
    assert!(a.report.structural_eq(&b.report));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Order preservation: `par_map` over any input and any thread budget
    /// is exactly the serial `map`, in the serial order.
    #[test]
    fn par_map_preserves_order_for_any_thread_count(
        xs in prop::collection::vec(-1e9f64..1e9, 0..200),
        threads in 1usize..=16,
    ) {
        let serial: Vec<f64> = xs.iter().map(|v| v * 3.0 - 1.0).collect();
        let parallel = par_map(Parallelism::new(threads), xs.len(), |i| xs[i] * 3.0 - 1.0);
        prop_assert_eq!(serial, parallel);
    }

    /// Panic propagation: a panic at any index under any thread budget
    /// surfaces as a captured `Err` carrying the payload — never a hang,
    /// never an unwind across the call.
    #[test]
    fn worker_panic_surfaces_as_error_for_any_index(
        n in 1usize..120,
        panic_at in 0usize..120,
        threads in 1usize..=8,
    ) {
        let panic_at = panic_at % n;
        let result = try_par_map(Parallelism::new(threads), n, |i| {
            if i == panic_at {
                panic!("poisoned item {i}");
            }
            i * 2
        });
        let err = result.expect_err("a panicking worker must produce Err");
        prop_assert!(
            err.message.contains(&format!("poisoned item {panic_at}")),
            "payload lost: {}", err.message
        );
    }
}

/// With failpoints compiled in, an injected panic inside an IV worker at
/// threads=4 must degrade the iteration (surfacing as a `SafeError`
/// message in the status) and must never hang or abort the fit.
#[cfg(feature = "failpoints")]
mod failpoint_differential {
    use super::*;
    use safe::core::IterationStatus;
    use safe::data::failpoints;

    #[test]
    fn injected_worker_panic_degrades_instead_of_hanging() {
        let _exclusive = FAILPOINTS.write().unwrap_or_else(PoisonError::into_inner);
        failpoints::disarm_all();
        failpoints::arm("select/iv-worker-panic");
        let data = interaction_dataset();
        let config =
            SafeConfig { seed: 5, n_iterations: 1, ..SafeConfig::paper() }.with_threads(4);
        let outcome = Safe::new(config)
            .fit(&data, None)
            .unwrap_or_else(|e| panic!("worker panic must degrade, not fail: {e}"));
        failpoints::disarm_all();
        let degraded = outcome.history.iter().any(|r| match &r.status {
            IterationStatus::Degraded { stage, reason } => {
                assert_eq!(*stage, "iv-filter");
                assert!(reason.contains("panicked"), "reason: {reason}");
                assert!(reason.contains("select/iv-worker-panic"), "reason: {reason}");
                true
            }
            _ => false,
        });
        assert!(degraded, "no degraded iteration recorded: {:?}", outcome.history);
    }
}
