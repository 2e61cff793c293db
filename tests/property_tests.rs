//! Property-based tests (proptest) on the cross-crate invariants that the
//! SAFE pipeline leans on.

use proptest::prelude::*;

#[path = "support/mutation.rs"]
mod mutation;

use safe::core::plan::{FeaturePlan, PlanStep};
use safe::data::binning::{bin_column, BinStrategy};
use safe::ops::registry::OperatorRegistry;
use safe::stats::auc::auc;
use safe::stats::divergence::jensen_shannon;
use safe::stats::entropy::{gain_ratio, information_gain};
use safe::stats::iv::information_value;
use safe::stats::pearson::pearson;

fn finite_column(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 2..max_len)
}

fn labels_like(n: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=1, n..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pearson_is_bounded_and_symmetric(
        x in finite_column(200),
        y in finite_column(200),
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let r = pearson(x, y);
        prop_assert!((-1.0..=1.0).contains(&r));
        prop_assert!((r - pearson(y, x)).abs() < 1e-12);
    }

    #[test]
    fn pearson_affine_invariance(
        x in finite_column(100),
        a in 0.1f64..10.0,
        b in -100.0f64..100.0,
    ) {
        let y: Vec<f64> = x.iter().map(|&v| a * v + b).collect();
        let r = pearson(&x, &y);
        // Unless x is (nearly) constant, a positive-affine copy correlates 1.
        let distinct = x.iter().any(|&v| (v - x[0]).abs() > 1e-6);
        if distinct {
            prop_assert!(r > 0.999, "r = {r}");
        }
    }

    #[test]
    fn iv_is_nonnegative_and_label_flip_invariant(
        values in finite_column(300),
        flip_bits in prop::collection::vec(any::<bool>(), 300),
    ) {
        let labels: Vec<u8> = flip_bits.iter().take(values.len()).map(|&b| b as u8).collect();
        let values = &values[..labels.len()];
        let iv = information_value(values, &labels, 8).unwrap();
        prop_assert!(iv >= -1e-12, "iv = {iv}");
        let flipped: Vec<u8> = labels.iter().map(|&l| 1 - l).collect();
        let iv2 = information_value(values, &flipped, 8).unwrap();
        prop_assert!((iv - iv2).abs() < 1e-9);
    }

    #[test]
    fn binning_is_a_partition(
        values in prop::collection::vec(prop_oneof![
            (-1e6f64..1e6).prop_map(|v| v),
            Just(f64::NAN),
        ], 2..200),
        n_bins in 2usize..16,
    ) {
        let a = bin_column(&values, n_bins, BinStrategy::EqualFrequency).unwrap();
        prop_assert_eq!(a.bins.len(), values.len());
        // Every row lands in a valid bin.
        prop_assert!(a.bins.iter().all(|&b| b < a.n_bins));
        // Binning is order-preserving on finite values.
        let mut pairs: Vec<(f64, usize)> = values
            .iter()
            .copied()
            .zip(a.bins.iter().copied())
            .filter(|(v, _)| v.is_finite())
            .collect();
        pairs.sort_by(|p, q| p.0.partial_cmp(&q.0).unwrap());
        for w in pairs.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn information_gain_bounded_by_label_entropy(
        cells in prop::collection::vec(0usize..6, 10..200),
        bits in prop::collection::vec(any::<bool>(), 200),
    ) {
        let labels: Vec<u8> = bits.iter().take(cells.len()).map(|&b| b as u8).collect();
        let ig = information_gain(&cells, &labels, 6);
        let h = safe::stats::entropy::label_entropy(&labels);
        prop_assert!(ig >= 0.0);
        prop_assert!(ig <= h + 1e-9, "ig {ig} > H(Y) {h}");
        let gr = gain_ratio(&cells, &labels, 6);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&gr), "gain ratio {gr}");
    }

    #[test]
    fn auc_is_bounded_and_complement_symmetric(
        scores in finite_column(200),
        bits in prop::collection::vec(any::<bool>(), 200),
    ) {
        let labels: Vec<u8> = bits.iter().take(scores.len()).map(|&b| b as u8).collect();
        let scores = &scores[..labels.len()];
        let a = auc(scores, &labels);
        prop_assert!((0.0..=1.0).contains(&a));
        // Negating scores flips the ranking (when both classes present).
        let neg: Vec<f64> = scores.iter().map(|v| -v).collect();
        let b = auc(&neg, &labels);
        let has_both = labels.iter().any(|&l| l == 0) && labels.iter().any(|&l| l == 1);
        if has_both {
            prop_assert!((a + b - 1.0).abs() < 1e-9, "a = {a}, b = {b}");
        }
    }

    #[test]
    fn jsd_bounded_symmetric(
        p in prop::collection::vec(0.0f64..10.0, 2..20),
        q in prop::collection::vec(0.0f64..10.0, 2..20),
    ) {
        let n = p.len().min(q.len());
        let mut p = p[..n].to_vec();
        let mut q = q[..n].to_vec();
        // Ensure non-empty distributions.
        p[0] += 1e-3;
        q[0] += 1e-3;
        let d = jensen_shannon(&p, &q);
        prop_assert!(d >= -1e-12);
        prop_assert!(d <= std::f64::consts::LN_2 + 1e-9);
        prop_assert!((d - jensen_shannon(&q, &p)).abs() < 1e-9);
    }

    #[test]
    fn operators_batch_equals_rowwise(
        a in finite_column(50),
        b in finite_column(50),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let registry = OperatorRegistry::standard();
        for op in registry.by_arity(2) {
            let fitted = match op.fit(&[a, b], None) {
                Ok(f) => f,
                Err(_) => continue,
            };
            let batch = fitted.apply(&[a, b]);
            for i in 0..n {
                let single = fitted.apply_row(&[a[i], b[i]]);
                prop_assert!(
                    batch[i] == single || (batch[i].is_nan() && single.is_nan()),
                    "{} row {i}: batch {} vs single {}",
                    op.name(), batch[i], single
                );
            }
        }
    }

    #[test]
    fn stateful_operators_round_trip_params(
        col in finite_column(100),
    ) {
        let registry = OperatorRegistry::standard();
        let labels: Vec<u8> = (0..col.len()).map(|i| (i % 2) as u8).collect();
        for name in ["minmax", "zscore", "disc_width", "disc_freq", "disc_chimerge"] {
            let op = registry.get(name).unwrap();
            let fitted = match op.fit(&[&col], Some(&labels)) {
                Ok(f) => f,
                Err(_) => continue,
            };
            let rebuilt = op.rehydrate(&fitted.params()).unwrap();
            for &probe in col.iter().take(10) {
                let x = fitted.apply_row(&[probe]);
                let y = rebuilt.apply_row(&[probe]);
                prop_assert!(x == y || (x.is_nan() && y.is_nan()), "{name}");
            }
        }
    }

    #[test]
    fn plan_codec_round_trips_arbitrary_params(
        params in prop::collection::vec(any::<f64>(), 0..8),
    ) {
        let plan = FeaturePlan {
            input_names: vec!["a".into()],
            steps: vec![PlanStep {
                name: "step".into(),
                op: "zscore".into(),
                parents: vec!["a".into()],
                params: params.clone(),
            }],
            outputs: vec!["step".into()],
        };
        let text = plan.to_text();
        let back = FeaturePlan::from_text(&text).unwrap();
        // Bit-exact round trip, including NaN/inf/-0.0 payloads.
        prop_assert_eq!(back.steps[0].params.len(), params.len());
        for (x, y) in back.steps[0].params.iter().zip(&params) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The plan parser must never panic, whatever bytes arrive — a plan file
    /// is an external artifact in production.
    #[test]
    fn plan_parser_never_panics(text in "\\PC*") {
        let _ = FeaturePlan::from_text(&text);
    }

    /// Tab-structured garbage with a valid header is still rejected cleanly.
    #[test]
    fn structured_garbage_is_rejected_not_panicking(
        fields in prop::collection::vec("[A-Za-z0-9(),.]{0,12}", 0..10),
    ) {
        let mut text = String::from("SAFEPLAN\t1\n");
        text.push_str(&fields.join("\t"));
        text.push('\n');
        let _ = FeaturePlan::from_text(&text);
    }

    /// A mutated plan is rejected with a typed error, or accepted as a plan
    /// whose encoding decodes back to the same text.
    #[test]
    fn plan_mutations_fail_typed_or_reach_a_fixed_point(
        params in prop::collection::vec(any::<f64>(), 0..4),
        m in (0u8..4, any::<usize>(), 0u8..8),
    ) {
        let plan = FeaturePlan {
            input_names: vec!["a".into(), "b".into()],
            steps: vec![
                PlanStep {
                    name: "mul(a,b)".into(),
                    op: "mul".into(),
                    parents: vec!["a".into(), "b".into()],
                    params: vec![],
                },
                PlanStep {
                    name: "z".into(),
                    op: "zscore".into(),
                    parents: vec!["mul(a,b)".into()],
                    params,
                },
            ],
            outputs: vec!["a".into(), "z".into()],
        };
        if let Ok(back) = FeaturePlan::from_text(&mutation::mutate(&plan.to_text(), false, m)) {
            let text = back.to_text();
            match FeaturePlan::from_text(&text) {
                Ok(again) => prop_assert_eq!(again.to_text(), text),
                Err(e) => return Err(TestCaseError::fail(format!("re-decode failed: {e}"))),
            }
        }
    }
}

// --- degenerate datasets ----------------------------------------------------
//
// The robustness contract of `Safe::fit`: on any dataset — constant columns,
// all-NaN columns, ±inf cells, tiny row counts, one-sided labels — it returns
// `Ok` (possibly degraded, with accurate per-iteration status) or a typed
// `SafeError`. It must never panic.

use safe::core::{IterationStatus, Safe, SafeConfig};
use safe::data::Dataset;

/// One column of a pathological dataset: healthy, constant, all-NaN, or
/// salted with non-finite cells.
fn degenerate_column(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        prop::collection::vec(-100.0f64..100.0, n..=n),
        (-100.0f64..100.0).prop_map(move |v| vec![v; n]),
        Just(vec![f64::NAN; n]),
        prop::collection::vec(
            prop_oneof![
                (-100.0f64..100.0).prop_map(|v| v),
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
            ],
            n..=n,
        ),
    ]
}

fn degenerate_dataset() -> impl Strategy<Value = Dataset> {
    (4usize..32, 1usize..4).prop_flat_map(|(n_rows, n_cols)| {
        let cols = prop::collection::vec(degenerate_column(n_rows), n_cols..=n_cols);
        // Bias toward imbalance so single-class label sets appear often.
        let labels = prop::collection::vec(
            (0u8..=3).prop_map(|v| (v == 3) as u8),
            n_rows..=n_rows,
        );
        (cols, labels).prop_map(|(cols, labels)| {
            let names = (0..cols.len()).map(|i| format!("f{i}")).collect();
            Dataset::from_columns(names, cols, Some(labels)).unwrap()
        })
    })
}

/// A small configuration so each proptest case stays cheap.
fn tiny_config() -> SafeConfig {
    let mut miner = safe::gbm::config::GbmConfig::miner();
    miner.n_rounds = 4;
    SafeConfig {
        miner: miner.clone(),
        ranker: miner,
        gamma: 8,
        ..SafeConfig::paper()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the dataset, `fit` must not panic: it returns `Ok` with a
    /// coherent outcome, or a typed error.
    #[test]
    fn fit_on_degenerate_data_never_panics(ds in degenerate_dataset()) {
        match Safe::new(tiny_config()).fit(&ds, None) {
            Ok(outcome) => {
                prop_assert_eq!(
                    outcome.history.len(),
                    outcome.plans_per_iteration.len(),
                    "report/plan alignment"
                );
                prop_assert!(
                    !outcome.plan.outputs.is_empty(),
                    "an Ok outcome must keep at least one feature"
                );
                for report in &outcome.history {
                    if let IterationStatus::Degraded { reason, .. } = &report.status {
                        prop_assert!(!reason.is_empty(), "degradation carries a reason");
                    }
                }
            }
            Err(e) => {
                // Typed rejection is fine; its message must be non-empty so
                // the CLI chain renderer has something to show.
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    /// Repair mode must also hold the no-panic contract, and any surviving
    /// plan must not reference a column the audit dropped.
    #[test]
    fn repair_policy_never_panics_and_plans_stay_consistent(ds in degenerate_dataset()) {
        let mut config = tiny_config();
        config.audit = safe::data::AuditConfig {
            policy: safe::data::AuditPolicy::Repair,
            ..Default::default()
        };
        if let Ok(outcome) = Safe::new(config).fit(&ds, None) {
            let dropped: Vec<&str> = outcome
                .audit
                .actions
                .iter()
                .filter_map(|a| match a {
                    safe::data::RepairAction::DroppedColumn { name, .. } => Some(name.as_str()),
                    _ => None,
                })
                .collect();
            for name in &dropped {
                prop_assert!(
                    !outcome.plan.input_names.iter().any(|n| n == name),
                    "dropped column {} must not be a plan input", name
                );
            }
        }
    }
}
