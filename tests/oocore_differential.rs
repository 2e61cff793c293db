//! Resident-vs-chunked differential suite: the out-of-core backend behind
//! `Dataset::read_column` must be *bit-identical* to the fully resident
//! path. Chunk boundaries are a storage concern only — a chunked column is
//! gathered in ascending fixed row order and every kernel consumes the
//! exact same `f64` sequence either way — so a fit on a chunked (or
//! spill-backed) dataset must agree with its resident twin on every plan
//! byte, every funnel count, every structural report, and every downstream
//! AUC bit, at every thread count and chunk size. These tests pin that
//! contract (see `DESIGN.md`, "Out-of-core backend"), and that a chunk
//! which cannot be read back is an error value at every stage that reads
//! columns.

use safe::core::combine::{rank_combinations, Combination};
use safe::core::generate::generate_features;
use safe::core::selection::staged::{staged_prune, StagedConfig};
use safe::core::selection::{iv_filter, redundancy_filter};
use safe::core::{IterationStatus, Safe, SafeConfig, SafeOutcome, StageError};
use safe::data::chunk::ChunkOptions;
use safe::data::split::train_test_split;
use safe::data::{DataError, Dataset};
use safe::datagen::synth::{generate, SyntheticConfig};
use safe::models::classifier::{evaluate_auc, ClassifierKind};
use safe::ops::registry::OperatorRegistry;
use safe::stats::Parallelism;

/// Thread budgets under test: serial and a parallel budget, so chunked
/// reads are exercised both single-threaded and from concurrent workers.
const THREADS: [usize; 2] = [1, 4];

/// Chunk sizes under test: one that fragments every dataset into many
/// ragged-tailed chunks, and one larger than most test tables (the
/// single-chunk degenerate case).
const CHUNK_ROWS: [usize; 2] = [64, 1024];

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
/// missing, so chunk decode, binning, IV, and Pearson all stream NaN
/// payloads through the chunked reader.
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
/// all-NaN column. The chunked path must agree with the resident path on
/// which candidates get discarded as degenerate.
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

fn fit(data: &Dataset, threads: usize) -> SafeOutcome {
    let config = SafeConfig { seed: 5, n_iterations: 2, ..SafeConfig::paper() }
        .with_threads(threads);
    Safe::new(config)
        .fit(data, None)
        .unwrap_or_else(|e| panic!("fit with threads={threads} failed: {e}"))
}

/// Per-iteration downstream AUC: apply each iteration's plan snapshot and
/// evaluate a fixed-seed GBM on a held-out split. Always computed against
/// the resident base so both backends are scored on identical bytes, and
/// independently per run so the comparison is end-to-end.
fn per_iteration_aucs(eval_base: &Dataset, outcome: &SafeOutcome) -> Vec<u64> {
    let (train, test) = train_test_split(eval_base, 0.3, 1).unwrap();
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

/// The core differential assertion: every observable output of a fit on
/// the chunked twin — plan bytes, per-iteration snapshots, funnel history,
/// structural run report, and downstream AUC bits — matches the resident
/// fit exactly, for every thread count × chunk size.
fn assert_backend_differential(name: &str, base: &Dataset) {
    for &threads in &THREADS {
        let resident = fit(base, threads);
        let resident_aucs = per_iteration_aucs(base, &resident);
        assert!(
            !resident.plan.outputs.is_empty(),
            "{name}: resident baseline selected nothing — dataset too weak to differentiate"
        );
        for &chunk_rows in &CHUNK_ROWS {
            let twin = base
                .to_chunked(ChunkOptions::in_memory(chunk_rows))
                .unwrap_or_else(|e| panic!("{name}: to_chunked({chunk_rows}) failed: {e}"));
            assert!(twin.has_chunked_columns(), "{name}: twin must actually be chunked");
            let run = fit(&twin, threads);
            let ctx = format!("{name}: threads={threads} chunk_rows={chunk_rows}");
            assert_eq!(
                run.plan.to_text(),
                resident.plan.to_text(),
                "{ctx}: plan differs between backends"
            );
            assert_eq!(
                run.plans_per_iteration, resident.plans_per_iteration,
                "{ctx}: per-iteration plans differ between backends"
            );
            assert_eq!(run.history.len(), resident.history.len(), "{ctx}: history length");
            for (a, b) in run.history.iter().zip(&resident.history) {
                assert!(
                    a.structural_eq(b),
                    "{ctx}: iteration {} history differs:\n{a:?}\nvs\n{b:?}",
                    a.iteration
                );
            }
            assert!(
                run.report.structural_eq(&resident.report),
                "{ctx}: run report differs structurally between backends"
            );
            assert_eq!(
                per_iteration_aucs(base, &run),
                resident_aucs,
                "{ctx}: downstream AUC bits differ between backends"
            );
        }
    }
}

#[test]
fn interaction_heavy_backends_are_bit_identical() {
    assert_backend_differential("interaction", &interaction_dataset());
}

#[test]
fn nan_heavy_backends_are_bit_identical() {
    assert_backend_differential("nan-heavy", &nan_heavy_dataset());
}

#[test]
fn degenerate_backends_are_bit_identical() {
    assert_backend_differential("degenerate", &degenerate_dataset());
}

/// Fresh per-test spill root under the system temp dir.
fn spill_root(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("safe_oocore_diff")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A spill-backed fit on a table ≥10× the resident chunk budget must (a)
/// complete, (b) match the resident fit bit-for-bit, (c) keep the decoded
/// high-water mark within budget plus one in-flight chunk, and (d) leave
/// no spill segments behind once the dataset is dropped.
#[test]
fn spilled_fit_on_ten_times_budget_is_bit_identical_and_bounded() {
    let base = generate(&SyntheticConfig {
        n_rows: 4_000,
        dim: 24,
        n_signal: 5,
        n_interactions: 3,
        noise: 0.2,
        missing_rate: 0.1,
        seed: 41,
        ..Default::default()
    });
    let root = spill_root("ten_times");
    let entries_before = std::fs::read_dir(&root).unwrap().count();

    let chunk_rows = 64;
    let resident_chunks = 6;
    let resident = fit(&base, 4);
    let resident_aucs = per_iteration_aucs(&base, &resident);
    {
        let spilled = base
            .to_chunked(ChunkOptions::spilled(chunk_rows, resident_chunks, &root))
            .unwrap();
        let store = *spilled.chunk_stores().first().expect("spilled twin has a store");
        assert!(store.is_spilled());
        let budget = store.budget_bytes().expect("spilled store has a budget");
        let table = store.table_bytes();
        assert!(
            table >= 10 * budget,
            "table ({table} B) must be >= 10x the resident budget ({budget} B)"
        );

        let run = fit(&spilled, 4);
        assert_eq!(run.plan.to_text(), resident.plan.to_text(), "spilled plan differs");
        assert_eq!(run.plans_per_iteration, resident.plans_per_iteration);
        assert!(run.report.structural_eq(&resident.report));
        assert_eq!(per_iteration_aucs(&base, &run), resident_aucs, "spilled AUC bits differ");

        let stats = store.stats();
        let chunk_bytes = (chunk_rows * base.n_cols() * std::mem::size_of::<f64>()) as u64;
        assert!(
            stats.peak_resident_bytes <= budget + chunk_bytes,
            "peak resident {} B exceeded budget {} B (+{} B in-flight chunk)",
            stats.peak_resident_bytes,
            budget,
            chunk_bytes
        );
        assert!(stats.evictions > 0, "a 10x-budget fit must evict");
    }
    // Dropping the dataset must reclaim every spill segment and the
    // per-store directory itself.
    assert_eq!(
        std::fs::read_dir(&root).unwrap().count(),
        entries_before,
        "spill segments leaked after drop"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A spill segment lost after construction is a worker fault, not a crash:
/// the miner's binning returns the read error, iteration 0 degrades at
/// `mine`, and the fit still returns the identity plan.
#[test]
fn lost_spill_segments_degrade_the_mining_iteration() {
    let base = generate(&SyntheticConfig {
        n_rows: 800,
        dim: 4,
        n_signal: 2,
        n_interactions: 1,
        seed: 7,
        ..Default::default()
    });
    let root = spill_root("lost_segments");
    {
        let spilled = base
            .to_chunked(ChunkOptions::spilled(64, 1, &root))
            .unwrap();
        for store_dir in std::fs::read_dir(&root).unwrap() {
            for segment in std::fs::read_dir(store_dir.unwrap().path()).unwrap() {
                std::fs::remove_file(segment.unwrap().path()).unwrap();
            }
        }
        let outcome = Safe::new(SafeConfig {
            seed: 5,
            n_iterations: 2,
            ..SafeConfig::paper()
        })
        .fit(&spilled, None)
        .expect("a lost spill segment must degrade the iteration, not fail the fit");
        assert_eq!(outcome.history.len(), 1);
        assert!(
            matches!(
                &outcome.history[0].status,
                IterationStatus::Degraded { stage: "mine", .. }
            ),
            "{:?}",
            outcome.history[0].status
        );
        assert_eq!(outcome.plan.outputs.len(), base.n_cols());
        assert!(
            outcome.plan.steps.is_empty(),
            "the fallback is the identity plan"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Every stage function that reads whole columns returns a lost spill
/// segment as the read's `DataError`, at any thread count — never as a
/// captured worker panic.
#[test]
fn lost_spill_segments_are_read_errors_in_every_stage() {
    let base = generate(&SyntheticConfig {
        n_rows: 800,
        dim: 4,
        n_signal: 2,
        n_interactions: 1,
        seed: 7,
        ..Default::default()
    });
    let root = spill_root("read_errors");
    {
        let spilled = base.to_chunked(ChunkOptions::spilled(64, 1, &root)).unwrap();
        for store_dir in std::fs::read_dir(&root).unwrap() {
            for segment in std::fs::read_dir(store_dir.unwrap().path()).unwrap() {
                std::fs::remove_file(segment.unwrap().path()).unwrap();
            }
        }
        let combo = Combination {
            features: vec![0, 1],
            split_values: vec![vec![0.0], vec![0.0]],
            gain_ratio: 0.0,
        };
        let staged = StagedConfig { base_rows: 64, finalist_target: 1, beta: 10, seed: 1 };
        let all: Vec<usize> = (0..spilled.n_cols()).collect();
        let survivors = [(0, 0.5), (1, 0.4)];
        let registry = OperatorRegistry::arithmetic();
        for threads in THREADS {
            let par = Parallelism::new(threads);
            let errors: [(&str, Option<StageError>); 5] = [
                ("rank", rank_combinations(vec![combo.clone()], &spilled, 5, par).err()),
                (
                    "generate",
                    generate_features(&spilled, None, &[combo.clone()], &registry, par).err(),
                ),
                ("staged", staged_prune(&spilled, &all, &staged, par).err()),
                ("iv", iv_filter(&spilled, 0.0, 10, par).err()),
                ("redundancy", redundancy_filter(&spilled, &survivors, 0.8, par).err()),
            ];
            for (stage, err) in errors {
                assert!(
                    matches!(err, Some(StageError::Read(DataError::Io(_)))),
                    "{stage} at threads={threads}: {err:?}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Checkpoints are backend-neutral: a checkpoint written by a resident fit
/// resumes under the chunked twin (the fingerprint records only
/// result-determining settings, never storage placement), and the resumed
/// outcome is bit-identical.
#[test]
fn checkpoint_resume_is_backend_neutral() {
    let base = interaction_dataset();
    let ckpt_dir = spill_root("ckpt_xbackend");
    let config = || SafeConfig {
        seed: 5,
        n_iterations: 2,
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..SafeConfig::paper()
    };

    let resident = Safe::new(config()).fit(&base, None).unwrap();
    let resident_aucs = per_iteration_aucs(&base, &resident);

    let twin = base.to_chunked(ChunkOptions::in_memory(64)).unwrap();
    let resumed = Safe::new(config())
        .fit_resumed(&twin, None)
        .expect("resident checkpoint must resume under the chunked backend");
    assert_eq!(resumed.plan.to_text(), resident.plan.to_text());
    assert_eq!(resumed.plans_per_iteration, resident.plans_per_iteration);
    assert_eq!(per_iteration_aucs(&base, &resumed), resident_aucs);

    let _ = std::fs::remove_dir_all(&ckpt_dir);
}
