//! Property suite for the successive-halving pruner
//! (`safe_core::selection::staged`): fuzzed datasets and schedule knobs
//! must always produce nested, monotone-shrinking survivor sets, row
//! subsamples that are pure functions of `(seed, rung)`, finalists that
//! never depend on the thread budget, and short-circuits on pools already
//! at or under the target.

use proptest::prelude::*;

use safe_core::selection::staged::{staged_prune, subsample_rows, StagedConfig};
use safe_data::dataset::Dataset;
use safe_stats::par::Parallelism;

/// Deterministic synthetic dataset: labeled, with per-column signal decay
/// and a seeded noise stream — enough structure that IV scores spread out
/// and cuts are non-trivial.
fn dataset(n_rows: usize, n_cols: usize, seed: u64) -> Dataset {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let labels: Vec<u8> = (0..n_rows).map(|_| (next() % 2) as u8).collect();
    let cols: Vec<Vec<f64>> = (0..n_cols)
        .map(|c| {
            (0..n_rows)
                .map(|i| {
                    let noise = (next() % 1000) as f64 / 1000.0;
                    f64::from(labels[i]) * (n_cols - c) as f64 / n_cols as f64
                        + noise * (c + 1) as f64
                })
                .collect()
        })
        .collect();
    let names = (0..n_cols).map(|c| format!("f{c}")).collect();
    Dataset::from_columns(names, cols, Some(labels)).unwrap()
}

fn knobs(base_rows: usize, target: usize, seed: u64) -> StagedConfig {
    StagedConfig { base_rows, finalist_target: target, beta: 10, seed }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every rung's survivors are a subset of the previous rung's, the
    /// pool sizes never grow, the trace is internally consistent
    /// (`pool_out` = survivor count, `pool_in` chains), and the returned
    /// finalists are exactly the last rung's survivors.
    #[test]
    fn survivor_sets_shrink_monotonically_and_nest(
        n_rows in 60usize..240,
        n_cols in 12usize..48,
        data_seed in any::<u64>(),
        cfg_seed in any::<u64>(),
        base_rows in 16usize..128,
        target in 1usize..10,
    ) {
        let data = dataset(n_rows, n_cols, data_seed);
        let candidates: Vec<usize> = (0..n_cols).collect();
        let cfg = knobs(base_rows, target, cfg_seed);
        let (finalists, report) =
            staged_prune(&data, &candidates, &cfg, Parallelism::serial()).unwrap();
        prop_assert!(!report.short_circuited, "pool {n_cols} > target {target} must run rungs");
        let mut prev: Vec<usize> = candidates.clone();
        for (i, rung) in report.rungs.iter().enumerate() {
            prop_assert_eq!(rung.rung, i, "rung numbering");
            prop_assert_eq!(rung.pool_in, prev.len(), "pool_in chains from previous survivors");
            prop_assert_eq!(rung.pool_out, rung.survivors.len(), "pool_out consistency");
            prop_assert!(rung.pool_out <= rung.pool_in, "pool must never grow");
            prop_assert!(
                rung.survivors.iter().all(|s| prev.contains(s)),
                "rung {i} survivors must nest inside the previous pool"
            );
            prop_assert!(
                rung.survivors.windows(2).all(|w| w[0] < w[1]),
                "survivors sorted ascending, no duplicates"
            );
            prev = rung.survivors.clone();
        }
        prop_assert_eq!(&finalists, &prev, "finalists are the last rung's survivors");
        prop_assert!(finalists.len() <= n_cols);
        prop_assert_eq!(finalists.len(), target.max(1).min(n_cols), "halving reaches the target");
    }

    /// `subsample_rows` is a pure function of `(n_rows, sample, seed,
    /// rung)`: calling it twice agrees element-wise, the result is a
    /// duplicate-free in-range prefix of a permutation, different rungs
    /// decorrelate, and an over-large sample is the identity order.
    #[test]
    fn subsample_is_deterministic_per_seed_and_rung(
        n_rows in 2usize..500,
        sample in 1usize..300,
        seed in any::<u64>(),
        rung in 0usize..12,
    ) {
        let a = subsample_rows(n_rows, sample, seed, rung);
        let b = subsample_rows(n_rows, sample, seed, rung);
        prop_assert_eq!(&a, &b, "same (seed, rung) must reproduce the same rows");
        prop_assert_eq!(a.len(), sample.min(n_rows));
        let mut seen = vec![false; n_rows];
        for &r in &a {
            prop_assert!(r < n_rows, "row index out of range");
            prop_assert!(!seen[r], "duplicate row in subsample");
            seen[r] = true;
        }
        let full = subsample_rows(n_rows, n_rows + sample, seed, rung);
        prop_assert_eq!(full, (0..n_rows).collect::<Vec<_>>(), "sample >= n_rows is identity");
    }

    /// The finalist set and the full rung trace never depend on the thread
    /// budget — `try_par_map`'s fixed-order merge makes the cheap scores
    /// identical at every worker count.
    #[test]
    fn finalists_are_thread_independent(
        n_rows in 60usize..200,
        n_cols in 12usize..40,
        data_seed in any::<u64>(),
        cfg_seed in any::<u64>(),
        target in 1usize..8,
    ) {
        let data = dataset(n_rows, n_cols, data_seed);
        let candidates: Vec<usize> = (0..n_cols).collect();
        let cfg = knobs(32, target, cfg_seed);
        let (serial, serial_rep) =
            staged_prune(&data, &candidates, &cfg, Parallelism::serial()).unwrap();
        let (par4, par4_rep) =
            staged_prune(&data, &candidates, &cfg, Parallelism::new(4)).unwrap();
        prop_assert_eq!(&serial, &par4, "finalists differ between 1 and 4 threads");
        prop_assert_eq!(serial_rep.rungs.len(), par4_rep.rungs.len());
        for (s, p) in serial_rep.rungs.iter().zip(&par4_rep.rungs) {
            prop_assert_eq!(&s.survivors, &p.survivors, "rung {} survivors differ", s.rung);
            prop_assert_eq!(s.sample_rows, p.sample_rows);
        }
    }

    /// Pools already at or under the finalist target — including the
    /// trivial 1-candidate pool — short-circuit: no rungs, candidates
    /// returned unchanged (sorted ascending).
    #[test]
    fn small_pools_short_circuit(
        n_rows in 20usize..100,
        data_seed in any::<u64>(),
        cfg_seed in any::<u64>(),
        pool_size in 1usize..6,
    ) {
        let data = dataset(n_rows, 8, data_seed);
        let candidates: Vec<usize> = (0..pool_size).collect();
        let cfg = knobs(64, pool_size, cfg_seed); // pool == target
        let (finalists, report) =
            staged_prune(&data, &candidates, &cfg, Parallelism::serial()).unwrap();
        prop_assert!(report.short_circuited);
        prop_assert!(report.rungs.is_empty());
        prop_assert_eq!(finalists, candidates);
    }
}

/// The 1-candidate pool short-circuits even when the target is smaller
/// than the pool (target is clamped to at least 1).
#[test]
fn single_candidate_pool_short_circuits() {
    let data = dataset(50, 4, 7);
    let cfg = StagedConfig { base_rows: 16, finalist_target: 0, beta: 10, seed: 3 };
    let (finalists, report) =
        staged_prune(&data, &[2], &cfg, Parallelism::serial()).unwrap();
    assert!(report.short_circuited);
    assert!(report.rungs.is_empty());
    assert_eq!(finalists, vec![2]);
}
