//! Property tests for the data layer: dataset algebra, CSV codec, binning.

use proptest::prelude::*;

use safe_data::binning::{BinEdges, BinStrategy};
use safe_data::csv::{read_csv_str, write_csv_string};
use safe_data::dataset::Dataset;
use safe_data::split::{shuffled_indices, train_test_split};

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..6, 1usize..40).prop_flat_map(|(n_cols, n_rows)| {
        let cols = prop::collection::vec(
            prop::collection::vec(-1e9f64..1e9, n_rows..=n_rows),
            n_cols..=n_cols,
        );
        let labels = prop::collection::vec(0u8..=1, n_rows..=n_rows);
        (cols, labels).prop_map(|(cols, labels)| {
            let names = (0..cols.len()).map(|i| format!("f{i}")).collect();
            Dataset::from_columns(names, cols, Some(labels)).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn row_column_duality(ds in arb_dataset()) {
        let rows = ds.to_rows();
        for (c, col) in ds.columns().enumerate() {
            for r in 0..ds.n_rows() {
                prop_assert_eq!(rows[r][c], col[r]);
            }
        }
    }

    #[test]
    fn select_rows_then_columns_commutes(ds in arb_dataset()) {
        let row_idx: Vec<usize> = (0..ds.n_rows()).step_by(2).collect();
        let col_idx: Vec<usize> = (0..ds.n_cols()).collect();
        let a = ds.select_rows(&row_idx).select_columns(&col_idx).unwrap();
        let b = ds.select_columns(&col_idx).unwrap().select_rows(&row_idx);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn csv_round_trip(ds in arb_dataset()) {
        let text = write_csv_string(&ds);
        let back = read_csv_str(&text, Some("label")).unwrap();
        prop_assert_eq!(back.n_rows(), ds.n_rows());
        prop_assert_eq!(back.n_cols(), ds.n_cols());
        prop_assert_eq!(back.labels(), ds.labels());
        for (a, b) in back.columns().zip(ds.columns()) {
            for (x, y) in a.iter().zip(b) {
                prop_assert!(x == y || (x.is_nan() && y.is_nan()));
            }
        }
    }

    #[test]
    fn split_partitions_rows(ds in arb_dataset(), frac in 0.1f64..0.9, seed in any::<u64>()) {
        prop_assume!(ds.n_rows() >= 4);
        let (train, test) = train_test_split(&ds, frac, seed).unwrap();
        prop_assert_eq!(train.n_rows() + test.n_rows(), ds.n_rows());
        prop_assert_eq!(train.n_cols(), ds.n_cols());
    }

    #[test]
    fn shuffle_is_permutation(n in 0usize..500, seed in any::<u64>()) {
        let mut idx = shuffled_indices(n, seed);
        idx.sort_unstable();
        prop_assert_eq!(idx, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn bin_of_is_monotone(
        mut values in prop::collection::vec(-1e6f64..1e6, 2..100),
        n_bins in 2usize..20,
    ) {
        let edges = BinEdges::fit(&values, n_bins, BinStrategy::EqualFrequency).unwrap();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in values.windows(2) {
            prop_assert!(edges.bin_of(w[0]) <= edges.bin_of(w[1]));
        }
        // Bin indices stay below the declared count.
        for &v in &values {
            prop_assert!(edges.bin_of(v) < edges.n_value_bins());
        }
    }

    #[test]
    fn equal_width_bins_have_equal_span(
        values in prop::collection::vec(-1e3f64..1e3, 3..100),
        n_bins in 2usize..12,
    ) {
        let edges = BinEdges::fit(&values, n_bins, BinStrategy::EqualWidth).unwrap();
        let cuts = edges.cuts();
        if cuts.len() >= 2 {
            let w0 = cuts[1] - cuts[0];
            for w in cuts.windows(2) {
                prop_assert!(((w[1] - w[0]) - w0).abs() < 1e-6 * w0.abs().max(1.0));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn equal_frequency_cuts_match_the_sorted_reference(
        values in column_with_ties(),
        n_bins in prop_oneof![1usize..=12, 1usize..=300],
    ) {
        let got = BinEdges::fit(&values, n_bins, BinStrategy::EqualFrequency).unwrap();
        let want = sorted_cuts(&values, n_bins);
        let bits = |cuts: &[f64]| cuts.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(got.cuts()), bits(want.cuts()));
    }
}

/// The equal-frequency cut code as it was before `BinEdges::fit` found its
/// cuts by selection: sort every finite value, then read each cut at its
/// rank. The property above requires the two to agree bit for bit.
fn sorted_cuts(values: &[f64], n_bins: usize) -> BinEdges {
    let mut clean: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if clean.is_empty() {
        return BinEdges::from_cuts(Vec::new());
    }
    clean.sort_by(f64::total_cmp);
    let n = clean.len();
    let max = clean[n - 1];
    let mut cuts = Vec::new();
    for k in 1..n_bins {
        let pos = (k * n) / n_bins;
        if pos == 0 || pos >= n {
            continue;
        }
        let cut = clean[pos - 1];
        if cut < max {
            cuts.push(cut);
        }
    }
    BinEdges::from_cuts(cuts)
}

/// Columns of 0 to 3,000 cells: either continuous, or drawn from a small
/// palette (heavy ties) that includes NaN, ±∞, −0.0 and +0.0.
fn column_with_ties() -> impl Strategy<Value = Vec<f64>> {
    let len = prop_oneof![0usize..8, 0usize..=3_000];
    (len, any::<bool>()).prop_flat_map(|(n, tied)| {
        if tied {
            prop::collection::vec(palette_cell(), n).boxed()
        } else {
            prop::collection::vec(-1e6f64..1e6, n).boxed()
        }
    })
}

fn palette_cell() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
        Just(0.0f64),
        (-3i32..4).prop_map(f64::from),
        (-3i32..4).prop_map(|v| f64::from(v) * 0.5),
        -1e6f64..1e6,
    ]
}
