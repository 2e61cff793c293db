//! Property tests for the serving codecs:
//!
//! 1. `FeaturePlan::from_text(to_text(p))` round-trips *structurally* for
//!    arbitrary valid plans — including NaN-payload params (compared by bit
//!    pattern, since NaN != NaN) and unicode feature names.
//! 2. A `SafeArtifact` text round trip preserves score bits on synthetic
//!    datasets, whatever the seed.
//! 3. A mutated booster or artifact is rejected with a typed error, or
//!    accepted as one that re-encodes to a fixed point and scores a row in
//!    bounded time.

use std::sync::{mpsc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use safe_core::plan::{FeaturePlan, PlanStep};
use safe_data::dataset::Dataset;
use safe_gbm::{GbmConfig, GbmModel};
use safe_ops::registry::OperatorRegistry;
use safe_serve::SafeArtifact;

#[path = "../../../tests/support/mutation.rs"]
mod mutation;

/// Codec-safe name pools: ASCII, Greek/CJK, and emoji with spaces. Tabs and
/// newlines are the only reserved characters.
fn name(style: usize, role: &str, i: usize) -> String {
    match style % 3 {
        0 => format!("{role}{i}"),
        1 => format!("特徴-α{role}{i}"),
        _ => format!("f {role} {i} 🚀"),
    }
}

const OPS: [&str; 4] = ["add", "sub", "mul", "div"];

/// Build a valid plan from a flat random spec: every step references only
/// earlier definitions, so `validate()` always passes.
fn build_plan(
    n_inputs: usize,
    style: usize,
    steps_spec: &[(usize, usize, usize, Vec<u64>)],
    out_mask: u64,
) -> FeaturePlan {
    let input_names: Vec<String> = (0..n_inputs).map(|i| name(style, "in", i)).collect();
    let mut defined = input_names.clone();
    let mut steps = Vec::new();
    for (k, (op_idx, p1, p2, param_bits)) in steps_spec.iter().enumerate() {
        let step_name = name(style, "gen", k);
        let parents = vec![
            defined[p1 % defined.len()].clone(),
            defined[p2 % defined.len()].clone(),
        ];
        steps.push(PlanStep {
            name: step_name.clone(),
            op: OPS[op_idx % OPS.len()].to_string(),
            parents,
            params: param_bits.iter().map(|&b| f64::from_bits(b)).collect(),
        });
        defined.push(step_name);
    }
    let mut outputs: Vec<String> = defined
        .iter()
        .enumerate()
        .filter(|(i, _)| out_mask >> (i % 64) & 1 == 1)
        .map(|(_, n)| n.clone())
        .collect();
    if outputs.is_empty() {
        outputs.push(defined[0].clone());
    }
    FeaturePlan {
        input_names,
        steps,
        outputs,
    }
}

/// Structural equality with params compared by f64 bit pattern (NaN-safe).
fn structurally_equal(a: &FeaturePlan, b: &FeaturePlan) -> bool {
    a.input_names == b.input_names
        && a.outputs == b.outputs
        && a.steps.len() == b.steps.len()
        && a.steps.iter().zip(&b.steps).all(|(x, y)| {
            x.name == y.name
                && x.op == y.op
                && x.parents == y.parents
                && x.params.len() == y.params.len()
                && x.params
                    .iter()
                    .zip(&y.params)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_text_round_trips_structurally(
        n_inputs in 1usize..5,
        style in 0usize..3,
        steps_spec in prop::collection::vec(
            (0usize..4, 0usize..100, 0usize..100,
             prop::collection::vec(any::<u64>(), 0..4)),
            0..8,
        ),
        out_mask in any::<u64>(),
    ) {
        let plan = build_plan(n_inputs, style, &steps_spec, out_mask);
        prop_assert!(plan.validate().is_ok(), "generator must emit valid plans");
        let back = FeaturePlan::from_text(&plan.to_text());
        let back = match back {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("parse failed: {e}"))),
        };
        prop_assert!(
            structurally_equal(&plan, &back),
            "round trip altered the plan:\n{:#?}\nvs\n{:#?}", plan, back
        );
        // A second encode must be byte-stable.
        prop_assert_eq!(plan.to_text(), back.to_text());
    }
}

fn synthetic(seed: u64, n: usize) -> Dataset {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
    };
    let mut cols = vec![Vec::with_capacity(n); 3];
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let (a, b, c) = (next(), next(), next());
        cols[0].push(a);
        cols[1].push(b);
        cols[2].push(c);
        labels.push(u8::from(a - 0.4 * b + 0.3 * c > 0.0));
    }
    Dataset::from_columns(
        vec!["a".into(), "b".into(), "c".into()],
        cols,
        Some(labels),
    )
    .expect("columns are rectangular")
}

proptest! {
    // Each case trains a small booster; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn artifact_round_trip_preserves_score_bits(seed in 1u64..1_000_000) {
        let train = synthetic(seed, 200);
        let valid = synthetic(seed ^ 0xdead_beef, 90);
        let plan = build_plan(3, (seed % 3) as usize, &[(2, 0, 1, vec![]), (3, 0, 2, vec![])], u64::MAX);
        // Rename inputs to the synthetic schema.
        let plan = FeaturePlan {
            input_names: vec!["a".into(), "b".into(), "c".into()],
            steps: plan.steps.iter().enumerate().map(|(k, s)| PlanStep {
                name: format!("g{k}"),
                op: s.op.clone(),
                parents: vec!["a".into(), if k == 0 { "b".into() } else { "c".into() }],
                params: vec![],
            }).collect(),
            outputs: vec!["a".into(), "b".into(), "c".into(), "g0".into(), "g1".into()],
        };
        let config = GbmConfig { n_rounds: 6, ..GbmConfig::miner() };
        let artifact = SafeArtifact::train(
            &plan, &OperatorRegistry::standard(), &train, Some(&valid), &config,
        );
        let artifact = match artifact {
            Ok(a) => a,
            Err(e) => return Err(TestCaseError::fail(format!("train failed: {e}"))),
        };
        let back = match SafeArtifact::from_text(&artifact.to_text()) {
            Ok(a) => a,
            Err(e) => return Err(TestCaseError::fail(format!("parse failed: {e}"))),
        };
        let direct = artifact.model.predict(
            &artifact.plan.apply(&valid).expect("plan applies"));
        let replayed = back.model.predict(
            &back.plan.apply(&valid).expect("plan applies"));
        prop_assert_eq!(direct.len(), replayed.len());
        for (i, (x, y)) in direct.iter().zip(&replayed).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "row {} score bits changed", i);
        }
        prop_assert_eq!(
            artifact.val_auc.map(f64::to_bits),
            back.val_auc.map(f64::to_bits)
        );
    }
}

/// One trained artifact, shared by the mutation properties.
fn trained() -> &'static SafeArtifact {
    static ARTIFACT: OnceLock<SafeArtifact> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        let plan = FeaturePlan {
            input_names: vec!["a".into(), "b".into(), "c".into()],
            steps: vec![PlanStep {
                name: "g0".into(),
                op: "mul".into(),
                parents: vec!["a".into(), "b".into()],
                params: vec![],
            }],
            outputs: vec!["a".into(), "c".into(), "g0".into()],
        };
        let config = GbmConfig { n_rounds: 4, ..GbmConfig::miner() };
        let (train, valid) = (synthetic(5, 200), synthetic(6, 90));
        SafeArtifact::train(&plan, &OperatorRegistry::standard(), &train, Some(&valid), &config)
            .expect("toy artifact trains")
    })
}

/// Whether `model` scores a row of NaNs within a few seconds.
fn predicts_in_time(model: GbmModel) -> bool {
    let (tx, rx) = mpsc::channel();
    let row = vec![f64::NAN; model.n_features()];
    let worker = std::thread::spawn(move || tx.send(model.predict_row(&row)));
    let done = rx.recv_timeout(Duration::from_secs(10)).is_ok();
    // A worker stuck in a loop cannot be joined; the failed check reports it.
    if done {
        let _ = worker.join();
    }
    done
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn booster_mutations_fail_typed_or_reach_a_fixed_point(
        m in (0u8..4, any::<usize>(), 0u8..8),
    ) {
        let model = &trained().model;
        if let Ok(back) = GbmModel::from_text(&mutation::mutate(&model.to_text(), false, m)) {
            let text = back.to_text();
            match GbmModel::from_text(&text) {
                Ok(again) => prop_assert_eq!(again.to_text(), text),
                Err(e) => return Err(TestCaseError::fail(format!("re-decode failed: {e}"))),
            }
            if back.n_features() <= model.n_features() {
                prop_assert!(predicts_in_time(back), "predict_row did not return");
            }
        }
    }

    #[test]
    fn artifact_mutations_fail_typed_or_reach_a_fixed_point(
        m in (0u8..4, any::<usize>(), 0u8..8),
    ) {
        let artifact = trained();
        if let Ok(back) = SafeArtifact::from_text(&mutation::mutate(&artifact.to_text(), true, m)) {
            let text = back.to_text();
            match SafeArtifact::from_text(&text) {
                Ok(again) => prop_assert_eq!(again.to_text(), text),
                Err(e) => return Err(TestCaseError::fail(format!("re-decode failed: {e}"))),
            }
            if back.model.n_features() <= artifact.model.n_features() {
                prop_assert!(predicts_in_time(back.model), "predict_row did not return");
            }
        }
    }
}
