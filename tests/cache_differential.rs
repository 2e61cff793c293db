//! Cached-vs-cold differential suite: the cross-iteration bin cache
//! (`safe::gbm::binner::BinCache`) and the histogram-subtraction tree
//! grower must be *bit-identical* to a from-scratch run.
//! `SafeConfig::cache` only changes how repeated work is resolved — a
//! bin-cache hit hands back the same quantization a fresh fit would
//! compute, and histogram subtraction is performed by both paths — so
//! toggling it must not move a single observable bit: not a plan byte, not
//! a funnel count, not a downstream AUC. These tests pin that contract (see
//! `DESIGN.md` §12).

use safe::core::{Safe, SafeConfig, SafeOutcome};
use safe::data::split::train_test_split;
use safe::data::Dataset;
use safe::datagen::synth::{generate, SyntheticConfig};
use safe::models::classifier::{evaluate_auc, ClassifierKind};

/// Thread budgets under test: the caches must be transparent in serial and
/// parallel runs alike.
const THREADS: [usize; 2] = [1, 4];

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
/// missing, so the missing bin, IV NaN handling, and pairwise-finite
/// Pearson all participate in both runs.
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
/// all-NaN column. Cached and cold runs must agree on which candidates get
/// discarded as degenerate.
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

fn fit_run(data: &Dataset, threads: usize, cache: bool) -> SafeOutcome {
    let config =
        SafeConfig { seed: 5, n_iterations: 2, cache, ..SafeConfig::paper() }.with_threads(threads);
    Safe::new(config)
        .fit(data, None)
        .unwrap_or_else(|e| panic!("fit with threads={threads} cache={cache} failed: {e}"))
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

/// The core differential assertion: at every thread budget, a cached run's
/// observable outputs — plan bytes, per-iteration snapshots, funnel
/// history, structural run report, and downstream AUC bits — match a cold
/// (`cache: false`) run exactly.
fn assert_cache_differential(name: &str, data: &Dataset) {
    for &threads in &THREADS {
        let cold = fit_run(data, threads, false);
        let warm = fit_run(data, threads, true);
        assert!(
            !cold.plan.outputs.is_empty(),
            "{name}: cold baseline selected nothing — dataset too weak to differentiate"
        );
        assert_eq!(
            warm.plan.to_text(),
            cold.plan.to_text(),
            "{name}: plan differs with cache at threads={threads}"
        );
        assert_eq!(
            warm.plans_per_iteration, cold.plans_per_iteration,
            "{name}: per-iteration plans differ with cache at threads={threads}"
        );
        assert_eq!(warm.history.len(), cold.history.len(), "{name}: threads={threads}");
        for (a, b) in warm.history.iter().zip(&cold.history) {
            assert!(
                a.structural_eq(b),
                "{name}: iteration {} history differs with cache at threads={threads}:\n{a:?}\nvs\n{b:?}",
                a.iteration
            );
        }
        assert!(
            warm.report.structural_eq(&cold.report),
            "{name}: run report differs structurally with cache at threads={threads}"
        );
        assert_eq!(
            per_iteration_aucs(data, &warm),
            per_iteration_aucs(data, &cold),
            "{name}: downstream AUC bits differ with cache at threads={threads}"
        );
    }
}

#[test]
fn interaction_heavy_cached_runs_are_bit_identical_to_cold() {
    assert_cache_differential("interaction", &interaction_dataset());
}

#[test]
fn nan_heavy_cached_runs_are_bit_identical_to_cold() {
    assert_cache_differential("nan-heavy", &nan_heavy_dataset());
}

#[test]
fn degenerate_cached_runs_are_bit_identical_to_cold() {
    assert_cache_differential("degenerate", &degenerate_dataset());
}

/// The cache must actually *work*, not just be transparent: by the second
/// iteration the miner re-trains on columns that were already quantized, so
/// its stage telemetry must record bin-cache hits — and a cold run must not
/// emit cache counters at all.
#[test]
fn warm_iterations_reuse_binned_columns() {
    let data = interaction_dataset();
    let warm = fit_run(&data, 1, true);
    let cold = fit_run(&data, 1, false);

    let warm_train = warm.report.iterations[1]
        .stage("gbm-train")
        .expect("second iteration has a gbm-train stage");
    let hits = warm_train.counter("cache_bin_hits").expect("cached run records bin-cache hits");
    let misses = warm_train.counter("cache_bin_misses").unwrap_or(0);
    assert!(hits > 0, "second-iteration miner must reuse cached bin columns");

    // Cold re-binning cost for the same stage is its full column count; the
    // warm run re-bins strictly fewer columns than that.
    assert!(
        misses < hits + misses,
        "warm run re-binned every column: hits={hits} misses={misses}"
    );

    let cold_train = cold.report.iterations[1].stage("gbm-train").unwrap();
    assert_eq!(
        cold_train.counter("cache_bin_hits"),
        None,
        "cold run must not emit cache counters"
    );
}
