//! Golden booster bytes: every fit below must reproduce, byte for byte, the
//! model the grower produced at commit `c8adc3b` (the constants were
//! recorded by running this file there).
//!
//! Three seeded shapes, each fitted at `max_depth` {1, 4, 6}, with and
//! without row and column subsampling, at threads {1, 2, 4}:
//! - `wide`: 140 × 300 continuous columns, the shape of the benchmark's
//!   `fit-wide` input;
//! - `nan_heavy`: a third of the cells missing, and missingness that
//!   carries the label, so splits learn default directions;
//! - `dup_const`: duplicated and constant columns, so equal-gain ties
//!   between features decide splits.
//!
//! Each fit is pinned by the FNV-1a hash of `GbmModel::to_text()` and by
//! the `histogram_builds`, `histogram_subtractions` and `nodes_depth<d>`
//! counters it emits through `fit_cached_observed`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use safe_data::checksum::fnv1a64;
use safe_data::dataset::Dataset;
use safe_gbm::booster::Gbm;
use safe_gbm::config::GbmConfig;
use safe_gbm::tree::TreeNode;
use safe_obs::{EventKind, MemorySink};
use safe_stats::par::Parallelism;

fn dataset(cols: Vec<Vec<f64>>, labels: Vec<u8>) -> Dataset {
    let names = (0..cols.len()).map(|i| format!("c{i}")).collect();
    Dataset::from_columns(names, cols, Some(labels)).unwrap()
}

fn wide() -> Dataset {
    let mut rng = StdRng::seed_from_u64(11);
    let (n, p) = (140, 300);
    let cols: Vec<Vec<f64>> =
        (0..p).map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
    let labels = (0..n)
        .map(|r| {
            let z = cols[0][r] * cols[1][r] + 0.5 * cols[2][r] - 0.3 * cols[3][r];
            (z + 0.3 * rng.gen_range(-1.0..1.0) > 0.0) as u8
        })
        .collect();
    dataset(cols, labels)
}

fn nan_heavy() -> Dataset {
    let mut rng = StdRng::seed_from_u64(12);
    let (n, p) = (200, 12);
    let latent: Vec<Vec<f64>> =
        (0..p).map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
    let labels: Vec<u8> = (0..n)
        .map(|r| (latent[0][r] + latent[1][r] - latent[2][r] > 0.0) as u8)
        .collect();
    let cols = latent
        .iter()
        .enumerate()
        .map(|(j, col)| {
            col.iter()
                .zip(&labels)
                .map(|(&v, &y)| {
                    // Column 3 is mostly missing for positives only.
                    let p_missing = if j == 3 { [0.1, 0.7][y as usize] } else { 0.33 };
                    if rng.gen_bool(p_missing) { f64::NAN } else { v }
                })
                .collect()
        })
        .collect();
    dataset(cols, labels)
}

fn dup_const() -> Dataset {
    let mut rng = StdRng::seed_from_u64(13);
    let n = 160;
    let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let noise: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let coarse: Vec<f64> = a.iter().map(|v| (v * 3.0).round()).collect();
    let labels = (0..n).map(|r| (a[r] + 0.5 * b[r] > 0.0) as u8).collect();
    let cols = vec![
        a.clone(),
        vec![1.0; n],
        b.clone(),
        a.clone(),
        noise,
        vec![0.0; n],
        coarse.clone(),
        b,
        a,
        coarse,
        vec![-2.5; n],
    ];
    dataset(cols, labels)
}

/// The pinned outcome of one fit.
#[derive(Debug, Clone, PartialEq)]
struct Fit {
    hash: u64,
    builds: u64,
    subtractions: u64,
    nodes_per_depth: Vec<u64>,
}

fn fit(train: &Dataset, max_depth: usize, sampled: bool, threads: usize) -> Fit {
    let (subsample, colsample) = if sampled { (0.8, 0.7) } else { (1.0, 1.0) };
    let config = GbmConfig {
        n_rounds: 6,
        max_depth,
        subsample,
        colsample,
        seed: 7,
        parallelism: Parallelism::new(threads),
        ..GbmConfig::default()
    };
    let sink = MemorySink::new();
    let model = Gbm::new(config)
        .fit_cached_observed(train, None, None, &sink, "golden", None)
        .unwrap();
    let counter = |name: &str| {
        sink.events()
            .iter()
            .find(|e| e.kind == EventKind::Counter && e.name == name)
            .map(|e| e.value)
    };
    let nodes_per_depth = (0..)
        .map_while(|d| counter(&format!("nodes_depth{d}")))
        .collect();
    Fit {
        hash: fnv1a64(model.to_text().as_bytes()),
        builds: counter("histogram_builds").unwrap(),
        subtractions: counter("histogram_subtractions").unwrap(),
        nodes_per_depth,
    }
}

/// (shape, max_depth, subsampled, model hash, histogram builds,
/// histogram subtractions, nodes per depth), recorded at `c8adc3b`.
type Golden = (&'static str, usize, bool, u64, u64, u64, &'static [u64]);

const GOLDEN: &[Golden] = &[
    ("wide", 1, false, 0x2cfc0fb56e039263, 1800, 0, &[6, 12]),
    ("wide", 1, true, 0x48e6c84475450146, 1260, 0, &[6, 12]),
    ("wide", 4, false, 0x7a343cfa883447ce, 12300, 10500, &[6, 12, 24, 34, 38]),
    ("wide", 4, true, 0x2646e6c6d60f1145, 8820, 7560, &[6, 12, 24, 36, 24]),
    ("wide", 6, false, 0xcb5055ad4794ef6c, 19800, 18000, &[6, 12, 24, 30, 38, 16, 2]),
    ("wide", 6, true, 0xe7a603a7db81a385, 12180, 10920, &[6, 12, 24, 36, 24, 8]),
    ("nan_heavy", 1, false, 0xae4f9a23ee3737b1, 72, 0, &[6, 12]),
    ("nan_heavy", 1, true, 0xe6f66e841f00bd5d, 54, 0, &[6, 12]),
    ("nan_heavy", 4, false, 0x426252ddecad37e5, 540, 468, &[6, 12, 24, 42, 44]),
    ("nan_heavy", 4, true, 0x7ff807c831f46c5b, 378, 324, &[6, 12, 24, 36, 40]),
    ("nan_heavy", 6, false, 0x733fff27f3ac7528, 984, 912, &[6, 12, 24, 40, 46, 30, 12]),
    ("nan_heavy", 6, true, 0xcdfe68d824d29dec, 648, 594, &[6, 12, 24, 32, 42, 22, 14]),
    ("dup_const", 1, false, 0x0c6612df01cacf0c, 48, 0, &[6, 12]),
    ("dup_const", 1, true, 0x8baa2277b5470d2b, 35, 0, &[6, 12]),
    ("dup_const", 4, false, 0xaa9df5b5c361d167, 240, 192, &[6, 12, 22, 14, 4]),
    ("dup_const", 4, true, 0xaaec1413d1474c8f, 162, 127, &[6, 12, 16, 16, 2]),
    ("dup_const", 6, false, 0xaa9df5b5c361d167, 256, 208, &[6, 12, 22, 14, 4]),
    ("dup_const", 6, true, 0xaaec1413d1474c8f, 167, 132, &[6, 12, 16, 16, 2]),
];

#[test]
fn grown_models_match_the_recorded_bytes_at_every_thread_count() {
    let shapes = [("wide", wide()), ("nan_heavy", nan_heavy()), ("dup_const", dup_const())];
    let mut mismatches = Vec::new();
    let mut k = 0;
    for (name, train) in &shapes {
        for max_depth in [1, 4, 6] {
            for sampled in [false, true] {
                let serial = fit(train, max_depth, sampled, 1);
                for threads in [2, 4] {
                    let got = fit(train, max_depth, sampled, threads);
                    let at = format!("{name} depth {max_depth} sampled {sampled} threads {threads}");
                    assert_eq!(got, serial, "{at}");
                }
                let want = GOLDEN.get(k).map(|&(s, d, sm, hash, builds, subs, nodes)| {
                    assert_eq!((s, d, sm), (*name, max_depth, sampled), "table order");
                    Fit { hash, builds, subtractions: subs, nodes_per_depth: nodes.to_vec() }
                });
                if want.as_ref() != Some(&serial) {
                    mismatches.push(format!(
                        "    (\"{name}\", {max_depth}, {sampled}, {:#018x}, {}, {}, &{:?}),",
                        serial.hash, serial.builds, serial.subtractions, serial.nodes_per_depth
                    ));
                }
                k += 1;
            }
        }
    }
    let got = mismatches.join("\n");
    assert!(mismatches.is_empty(), "fits differ from the recorded rows; got:\n{got}");
    assert_eq!(GOLDEN.len(), k, "one golden row per fit");
}

/// The shapes do what the module doc says: `nan_heavy` grows splits that
/// send missing values left, and in `dup_const` every equal-gain tie
/// between copies of a column goes to the last copy.
#[test]
fn shapes_exercise_missing_directions_and_feature_ties() {
    let splits = |train: &Dataset| -> Vec<(usize, bool)> {
        let config = GbmConfig { n_rounds: 6, max_depth: 4, seed: 7, ..GbmConfig::default() };
        let model = Gbm::new(config).fit(train, None).unwrap();
        model
            .trees()
            .iter()
            .flat_map(|t| t.nodes.clone())
            .filter_map(|node| match node {
                TreeNode::Internal { feature, default_left, .. } => Some((feature, default_left)),
                TreeNode::Leaf { .. } => None,
            })
            .collect()
    };
    assert!(splits(&nan_heavy()).iter().any(|&(_, default_left)| default_left));
    // Columns 0, 3 and 8 are copies of one column, 2 and 7 of another, and
    // 6 and 9 of a third.
    let tied = splits(&dup_const());
    assert!(tied.iter().any(|&(f, _)| [8, 7, 9].contains(&f)), "{tied:?}");
    assert!(tied.iter().all(|&(f, _)| ![0, 3, 2, 6].contains(&f)), "{tied:?}");
}
