//! Golden plans and selections: every fit and selection below must
//! reproduce, bit for bit, what the pipeline produced at commit `914b128`
//! (the constants were recorded by running this file there).
//!
//! Two seeded tables in the shapes of the benchmark's inputs:
//! - `vehicle`: 2,000 × 100 with a 400-row validation split, the shape of
//!   `fit-tall` at an eighth of its row count;
//! - `gina`: 140 × 300 with missing cells, the shape of `fit-wide` at
//!   under a third of its width.
//!
//! Each table pins:
//! - the FNV-1a hash of `Safe::fit(..).plan.to_text()` after two
//!   iterations, in exact and staged selection, at threads 1 and 2. The
//!   miner and ranker grow 8 trees instead of 20 to keep a debug run to a
//!   few seconds; generation, IV and the redundancy scan run as in a
//!   default fit;
//! - `iv_filter`'s `(index, IV bits)` pairs at α = 0 (every column with
//!   any IV survives) and `redundancy_filter`'s kept list over them;
//! - the split thresholds of `BinnedDataset::fit` at two bin budgets.
//!
//! The differential suites compare optimised paths with each other; only a
//! constant recorded before a kernel changed catches a change that every
//! path shares.

use safe_core::selection::{iv_filter, redundancy_filter};
use safe_core::{Safe, SafeConfig, SelectionMode};
use safe_data::checksum::fnv1a64;
use safe_data::dataset::Dataset;
use safe_datagen::benchmarks::BenchmarkId;
use safe_datagen::DatasetSpec;
use safe_gbm::binner::BinnedDataset;
use safe_gbm::config::GbmConfig;
use safe_stats::par::Parallelism;

fn vehicle() -> (Dataset, Option<Dataset>) {
    let spec =
        DatasetSpec { n_train: 2_000, n_valid: 400, n_test: 20, ..BenchmarkId::Vehicle.spec() };
    let split = BenchmarkId::Vehicle.generate_with_spec(&spec, 42);
    (split.train, split.valid)
}

fn gina() -> Dataset {
    let spec =
        DatasetSpec { n_train: 140, n_valid: 0, n_test: 20, dim: 300, ..BenchmarkId::Gina.spec() };
    BenchmarkId::Gina.generate_with_spec(&spec, 42).train
}

/// Hash of a byte stream written as little-endian `u64` words.
fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a64(&bytes)
}

fn plan_hash(
    train: &Dataset,
    valid: Option<&Dataset>,
    selection: SelectionMode,
    threads: usize,
) -> u64 {
    let booster = GbmConfig { n_rounds: 8, ..GbmConfig::miner() };
    let config = SafeConfig::builder()
        .seed(7)
        .miner(booster.clone())
        .ranker(booster)
        .selection(selection)
        .n_iterations(2)
        .threads(threads)
        .build()
        .unwrap();
    let out = Safe::new(config).fit(train, valid).unwrap();
    fnv1a64(out.plan.to_text().as_bytes())
}

/// Hashes of the IV pairs and of the kept list, and the kept count.
fn selection(train: &Dataset, threads: usize) -> (u64, u64, usize) {
    let par = Parallelism::new(threads);
    let ivs = iv_filter(train, 0.0, 10, par).unwrap();
    let (kept, _) = redundancy_filter(train, &ivs, 0.8, par).unwrap();
    let iv_hash = hash_words(ivs.iter().flat_map(|&(i, iv)| [i as u64, iv.to_bits()]));
    let kept_hash = hash_words(kept.iter().map(|&k| k as u64));
    (iv_hash, kept_hash, kept.len())
}

fn thresholds_hash(train: &Dataset, max_bins: usize) -> u64 {
    let binned = BinnedDataset::fit(train, max_bins, Parallelism::new(1)).unwrap();
    hash_words((0..binned.n_features()).flat_map(|f| {
        let mapper = binned.mapper(f);
        let cuts = (0..mapper.n_split_candidates()).map(|b| mapper.threshold(b as u16).to_bits());
        std::iter::once(mapper.n_value_bins() as u64).chain(cuts).collect::<Vec<_>>()
    }))
}

/// Every pinned value of one table, in a fixed order.
#[derive(Debug, Clone, PartialEq)]
struct Pins {
    exact_plan: u64,
    staged_plan: u64,
    iv: u64,
    kept: u64,
    n_kept: usize,
    thresholds_16: u64,
    thresholds_256: u64,
}

fn pins(train: &Dataset, valid: Option<&Dataset>) -> Pins {
    let at = |threads| {
        let (iv, kept, n_kept) = selection(train, threads);
        Pins {
            exact_plan: plan_hash(train, valid, SelectionMode::Exact, threads),
            staged_plan: plan_hash(train, valid, SelectionMode::Staged, threads),
            iv,
            kept,
            n_kept,
            thresholds_16: thresholds_hash(train, 16),
            thresholds_256: thresholds_hash(train, 256),
        }
    };
    let serial = at(1);
    assert_eq!(at(2), serial, "two threads differ from one");
    serial
}

/// (table, pins), recorded at `914b128`.
const GOLDEN: &[(&str, Pins)] = &[
    (
        "vehicle",
        Pins {
            exact_plan: 0x43f225991ee6feb0,
            staged_plan: 0xe33afa365858cb2f,
            iv: 0x79d125e306241fd5,
            kept: 0xa8ceadec04469e39,
            n_kept: 95,
            thresholds_16: 0x3a21145525bbffd4,
            thresholds_256: 0xe58a0758ddb455f4,
        },
    ),
    (
        "gina",
        Pins {
            exact_plan: 0xea418ff8787c5900,
            staged_plan: 0x363e81b951c11df5,
            iv: 0x72ebb03e1589995e,
            kept: 0xd8eaef4e27f1089e,
            n_kept: 285,
            thresholds_16: 0x6762ec2b2114da79,
            thresholds_256: 0xfad6d10d6b8c6c03,
        },
    ),
];

fn check(name: &str, got: Pins) {
    let want = GOLDEN.iter().find(|(n, _)| *n == name).map(|(_, p)| p);
    assert!(want == Some(&got), "{name} pins differ from the recorded values; got:\n{got:#x?}");
}

#[test]
fn vehicle_matches_the_recorded_bits() {
    let (train, valid) = vehicle();
    check("vehicle", pins(&train, valid.as_ref()));
}

#[test]
fn gina_matches_the_recorded_bits() {
    check("gina", pins(&gina(), None));
}

/// The gina table has what the module doc says: columns with missing cells
/// beside NaN-free ones, so the redundancy scan takes both of its kernels.
#[test]
fn gina_mixes_columns_with_and_without_missing_cells() {
    let train = gina();
    let with_missing = (0..train.n_cols())
        .filter(|&f| train.column(f).unwrap().iter().any(|v| v.is_nan()))
        .count();
    assert!(with_missing > 0 && with_missing < train.n_cols(), "{with_missing}");
}
