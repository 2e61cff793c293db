//! Property tests local to safe-stats: describe/quantile/chi/par, and the
//! redundancy scan's four-column Pearson sweep.

use proptest::prelude::*;

use safe_stats::chi::{chi_square, chi_square_pair};
use safe_stats::describe::{describe, quantile};
use safe_stats::pearson::{pearson, ExactMoments};

/// A NaN-free column of `n` rows: continuous, a few tied levels, or
/// constant (whose correlation `pearson` defines as 0).
fn column(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        prop::collection::vec(-1e3f64..1e3, n),
        prop::collection::vec((-2i32..3).prop_map(f64::from), n),
        (-10f64..10.0).prop_map(move |c| vec![c; n]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn describe_bounds_hold(values in prop::collection::vec(-1e9f64..1e9, 1..300)) {
        let s = describe(&values);
        prop_assert_eq!(s.n, values.len());
        prop_assert!(s.min <= s.mean + 1e-6);
        prop_assert!(s.mean <= s.max + 1e-6);
        prop_assert!(s.std >= 0.0);
        // Chebyshev-esque sanity: std bounded by range.
        prop_assert!(s.std <= (s.max - s.min).abs() + 1e-9);
    }

    #[test]
    fn describe_counts_missing(
        values in prop::collection::vec(-100f64..100.0, 1..100),
        missing_every in 2usize..5,
    ) {
        let mut v = values.clone();
        let mut expected_missing = 0;
        for (i, x) in v.iter_mut().enumerate() {
            if i % missing_every == 0 {
                *x = f64::NAN;
                expected_missing += 1;
            }
        }
        let s = describe(&v);
        prop_assert_eq!(s.n_missing, expected_missing);
        prop_assert_eq!(s.n + s.n_missing, v.len());
    }

    #[test]
    fn quantile_is_monotone_in_q(values in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let q25 = quantile(&values, 0.25).unwrap();
        let q50 = quantile(&values, 0.5).unwrap();
        let q75 = quantile(&values, 0.75).unwrap();
        prop_assert!(q25 <= q50 + 1e-9);
        prop_assert!(q50 <= q75 + 1e-9);
        // Extremes equal min/max.
        let s = describe(&values);
        prop_assert!((quantile(&values, 0.0).unwrap() - s.min).abs() < 1e-9);
        prop_assert!((quantile(&values, 1.0).unwrap() - s.max).abs() < 1e-9);
    }

    #[test]
    fn chi_square_nonnegative_and_zero_on_proportional_tables(
        base in prop::collection::vec((1usize..40, 1usize..40), 2..8),
        scale in 2usize..5,
    ) {
        let cells: Vec<(usize, usize)> = base.clone();
        prop_assert!(chi_square(&cells) >= 0.0);
        // Two intervals with identical class ratios → chi == 0.
        let a = (7 * scale, 3 * scale);
        let b = (7, 3);
        prop_assert!(chi_square_pair(a, b) < 1e-9);
    }

    #[test]
    fn chi_square_pair_is_symmetric(
        a in (0usize..50, 0usize..50),
        b in (0usize..50, 0usize..50),
    ) {
        let x = chi_square_pair(a, b);
        let y = chi_square_pair(b, a);
        prop_assert!((x - y).abs() < 1e-9);
    }

    #[test]
    fn auto_parallelism_matches_sequential(n in 0usize..2000) {
        use safe_stats::par::{par_map, Parallelism};
        let parallel = par_map(Parallelism::auto(), n, |i| i * i + 1);
        let sequential: Vec<usize> = (0..n).map(|i| i * i + 1).collect();
        prop_assert_eq!(parallel, sequential);
    }

    #[test]
    fn explicit_thread_budgets_match_sequential(
        n in 0usize..2000,
        threads in 1usize..=16,
    ) {
        use safe_stats::par::{par_map, Parallelism};
        let parallel = par_map(Parallelism::new(threads), n, |i| i * i + 1);
        let sequential: Vec<usize> = (0..n).map(|i| i * i + 1).collect();
        prop_assert_eq!(parallel, sequential);
    }

    #[test]
    fn try_par_map_captures_any_panic(
        n in 1usize..500,
        panic_at in 0usize..500,
        threads in 1usize..=8,
    ) {
        use safe_stats::par::{try_par_map, Parallelism};
        let panic_at = panic_at % n;
        let r = try_par_map(Parallelism::new(threads), n, |i| {
            assert!(i != panic_at, "boom at {i}");
            i
        });
        let err = r.expect_err("panicking worker must yield Err");
        let needle = format!("boom at {panic_at}");
        prop_assert!(err.message.contains(&needle), "payload lost: {}", err.message);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `rho_each` sweeps up to four columns per pass over the rows; every
    /// pair must still equal the two-pass `pearson`, signed and to the bit,
    /// for 0 to 10 kept columns (so full blocks, partial blocks and none).
    #[test]
    fn four_column_sweep_is_bitwise_pearson(
        cols in (prop_oneof![2usize..4, 2usize..200], 1usize..=11)
            .prop_flat_map(|(n, m)| prop::collection::vec(column(n), m)),
    ) {
        let moments: Vec<ExactMoments> =
            cols.iter().map(|c| ExactMoments::of(c).unwrap()).collect();
        let kept: Vec<&ExactMoments> = moments[1..].iter().collect();
        let swept = moments[0].rho_each(&kept);
        prop_assert_eq!(swept.len(), kept.len());
        for (k, rho) in swept.iter().enumerate() {
            let two_pass = pearson(&cols[0], &cols[k + 1]);
            prop_assert_eq!(rho.to_bits(), two_pass.to_bits(), "kept column {}", k);
            prop_assert_eq!(rho.to_bits(), moments[0].rho(kept[k]).to_bits());
        }
    }
}
