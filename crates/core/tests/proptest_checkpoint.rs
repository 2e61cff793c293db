//! Property suite for the `SAFECKPT 1` checkpoint codec: arbitrary
//! snapshots — NaN/infinite operator params, unicode feature names and
//! degradation reasons (including tabs, newlines, and backslashes), empty
//! iteration histories — must round-trip through `to_text`/`from_text`
//! exactly, re-serialize byte-identically, and fail closed on truncation.
//! A mutated, resealed snapshot is rejected with a typed error or accepted
//! as one that re-encodes to a fixed point.

use proptest::prelude::*;

#[path = "../../../tests/support/mutation.rs"]
mod mutation;

use safe_core::checkpoint::{Checkpoint, ConfigFingerprint, Terminal};
use safe_core::plan::{FeaturePlan, PlanStep};
use safe_core::safe::{IterationReport, IterationStatus};
use safe_core::{SafeConfig, SelectionMode};
use safe_obs::{IterationTelemetry, RunReport, StageTelemetry, WarnRecord, Waterfall};

/// Closed degradation-stage vocabulary the codec persists.
const STAGES: [&str; 7] =
    ["mine", "generate", "staged-prune", "iv-filter", "redundancy", "rank", "select"];
const OPS: [&str; 4] = ["mul", "div", "add", "log"];
const TERMINALS: [Terminal; 5] = [
    Terminal::Running,
    Terminal::Converged,
    Terminal::Degraded,
    Terminal::Skipped,
    Terminal::ItersExhausted,
];

/// Unique feature names from a fuzzed unicode base: the suffix guarantees
/// uniqueness, the base exercises multi-byte UTF-8 in every codec line that
/// carries names (plan INPUT/STEP/OUT, SELECTED).
fn names(base: &str, n: usize, tag: &str) -> Vec<String> {
    (0..n).map(|i| format!("{base}{tag}{i}")).collect()
}

/// A structurally valid plan over the given inputs: each step derives from
/// two inputs; outputs mix originals and generated features.
fn make_plan(inputs: &[String], params: &[f64], n_steps: usize) -> FeaturePlan {
    let steps: Vec<PlanStep> = (0..n_steps)
        .map(|j| PlanStep {
            name: format!("g{j}·{}", inputs[j % inputs.len()]),
            op: OPS[j % OPS.len()].to_string(),
            parents: vec![
                inputs[j % inputs.len()].clone(),
                inputs[(j + 1) % inputs.len()].clone(),
            ],
            params: params.to_vec(),
        })
        .collect();
    let mut outputs = vec![inputs[0].clone()];
    outputs.extend(steps.iter().map(|s| s.name.clone()));
    FeaturePlan {
        input_names: inputs.to_vec(),
        steps,
        outputs,
    }
}

fn make_report(n_iters: usize, warn_message: &str) -> RunReport {
    RunReport {
        total_us: 987,
        setup: vec![StageTelemetry {
            stage: "audit".into(),
            micros: 11,
            features_in: 4,
            features_out: 4,
            counters: vec![("findings".into(), 1)],
        }],
        iterations: (0..n_iters)
            .map(|i| IterationTelemetry {
                iteration: i,
                status: "completed".into(),
                micros: 500 + i as u64,
                stages: vec![StageTelemetry {
                    stage: "iv-filter".into(),
                    micros: 20,
                    features_in: 9,
                    features_out: 7,
                    counters: vec![("dropped_alpha".into(), 2)],
                }],
                waterfall: Waterfall {
                    generated: 4,
                    candidates: 9,
                    post_iv: 7,
                    post_redundancy: 6,
                    selected: 6,
                },
            })
            .collect(),
        warnings: vec![WarnRecord {
            stage: "audit".into(),
            iteration: None,
            code: "finding".into(),
            message: warn_message.to_string(),
        }],
        metrics: Default::default(),
    }
}

/// Build a structurally consistent snapshot from fuzzed primitives.
#[allow(clippy::too_many_arguments)]
fn make_checkpoint(
    base: &str,
    reason: &str,
    params: &[f64],
    seed: u64,
    n_iters: usize,
    n_inputs: usize,
    n_steps: usize,
    terminal_idx: usize,
    degrade_idx: usize,
) -> Checkpoint {
    let inputs = names(base, n_inputs.max(1), "·in");
    let plan = make_plan(&inputs, params, n_steps);
    let history: Vec<IterationReport> = (0..n_iters)
        .map(|i| IterationReport {
            iteration: i,
            n_combinations: 6 + i,
            n_combinations_kept: 4,
            n_generated: plan.steps.len(),
            n_candidates: plan.outputs.len() + 2,
            n_after_iv: plan.outputs.len() + 1,
            n_after_redundancy: plan.outputs.len(),
            n_selected: plan.outputs.len(),
            selected: plan.outputs.clone(),
            elapsed_us: 900 + i as u64,
            status: if i % 3 == 1 {
                IterationStatus::Degraded {
                    stage: STAGES[degrade_idx % STAGES.len()],
                    reason: reason.to_string(),
                }
            } else if i % 3 == 2 {
                IterationStatus::Skipped { reason: reason.to_string() }
            } else {
                IterationStatus::Completed
            },
        })
        .collect();
    // Both selection modes must persist and round-trip (the mode is a
    // result-determining fingerprint field); derive it from the fuzzed seed.
    let selection = if seed % 2 == 0 { SelectionMode::Exact } else { SelectionMode::Staged };
    let config = SafeConfig { seed, selection, ..SafeConfig::paper() };
    Checkpoint {
        fingerprint: ConfigFingerprint::of(&config),
        iterations_done: n_iters,
        terminal: TERMINALS[terminal_idx % TERMINALS.len()],
        elapsed_us: 31_415,
        history,
        plans: (0..n_iters).map(|_| plan.clone()).collect(),
        report: make_report(n_iters, reason),
    }
}

/// Plan equality under IEEE bit semantics: `params` may hold NaN, which
/// `PartialEq` treats as unequal to itself, so compare `to_bits`.
fn plans_bit_eq(a: &[FeaturePlan], b: &[FeaturePlan]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.input_names == y.input_names
                && x.outputs == y.outputs
                && x.steps.len() == y.steps.len()
                && x.steps.iter().zip(&y.steps).all(|(s, t)| {
                    s.name == t.name
                        && s.op == t.op
                        && s.parents == t.parents
                        && s.params.len() == t.params.len()
                        && s.params
                            .iter()
                            .zip(&t.params)
                            .all(|(p, q)| p.to_bits() == q.to_bits())
                })
        })
}

fn assert_round_trip(ckpt: &Checkpoint) {
    let text = ckpt.to_text();
    let parsed = Checkpoint::from_text(&text).unwrap_or_else(|e| panic!("parse failed: {e}"));
    assert!(parsed.fingerprint.matches(&ckpt.fingerprint));
    assert_eq!(parsed.iterations_done, ckpt.iterations_done);
    assert_eq!(parsed.terminal, ckpt.terminal);
    assert_eq!(parsed.elapsed_us, ckpt.elapsed_us);
    assert_eq!(parsed.history.len(), ckpt.history.len());
    for (x, y) in parsed.history.iter().zip(&ckpt.history) {
        assert!(x.structural_eq(y), "{x:?}\nvs\n{y:?}");
        assert_eq!(x.elapsed_us, y.elapsed_us);
    }
    assert!(plans_bit_eq(&parsed.plans, &ckpt.plans));
    assert_eq!(parsed.report, ckpt.report);
    // Re-serialization is byte-identical (the checksum line depends on it).
    assert_eq!(parsed.to_text(), text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary snapshots round-trip exactly: unicode names, fuzzed
    /// degradation reasons, NaN/±inf operator params, every terminal
    /// marker, histories from empty to several iterations.
    #[test]
    fn arbitrary_checkpoints_round_trip(
        base in "[a-zμλ中é→ ]{1,6}",
        reason in "\\PC{0,24}",
        raw_params in prop::collection::vec(-1e300f64..1e300, 0..4),
        nan_mask in 0u64..16,
        seed in any::<u64>(),
        n_iters in 0usize..4,
        n_inputs in 1usize..4,
        n_steps in 0usize..4,
        terminal_idx in 0usize..5,
        degrade_idx in 0usize..7,
    ) {
        // Inject the IEEE special values the codec must carry bit-exactly.
        let mut params = raw_params;
        for (i, p) in params.iter_mut().enumerate() {
            match (nan_mask >> (2 * i)) & 3 {
                1 => *p = f64::NAN,
                2 => *p = f64::INFINITY,
                3 => *p = f64::NEG_INFINITY,
                _ => {}
            }
        }
        let ckpt = make_checkpoint(
            &base, &reason, &params, seed, n_iters, n_inputs, n_steps,
            terminal_idx, degrade_idx,
        );
        assert_round_trip(&ckpt);
    }

    /// Reason strings with the escape metacharacters themselves (tabs,
    /// newlines, CRs, backslashes) survive the line codec.
    #[test]
    fn hostile_reason_strings_round_trip(
        pieces in prop::collection::vec(prop_oneof![
            Just("\t".to_string()),
            Just("\n".to_string()),
            Just("\r".to_string()),
            Just("\\".to_string()),
            Just("\\t".to_string()),
            "\\PC{1,6}",
        ], 1..6),
        n_iters in 1usize..4,
    ) {
        let reason = pieces.concat();
        let ckpt = make_checkpoint(&reason.replace(['\t', '\n', '\r'], "·"), &reason,
            &[1.5], 7, n_iters, 2, 1, 0, 3);
        assert_round_trip(&ckpt);
    }

    /// Every strict prefix of a serialized snapshot fails closed — a
    /// checksum or parse error, never a panic and never an `Ok`.
    #[test]
    fn truncated_snapshots_fail_closed(
        cut_ppm in 0u32..1_000_000,
        seed in any::<u64>(),
    ) {
        let ckpt = make_checkpoint("基ζ", "torn½", &[f64::NAN], seed, 2, 2, 2, 0, 1);
        let text = ckpt.to_text();
        let mut k = (text.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        while !text.is_char_boundary(k) {
            k -= 1;
        }
        prop_assume!(k < text.len());
        prop_assert!(Checkpoint::from_text(&text[..k]).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn checkpoint_mutations_fail_typed_or_reach_a_fixed_point(
        seed in any::<u64>(),
        m in (0u8..4, any::<usize>(), 0u8..8),
    ) {
        let ckpt = make_checkpoint("ab", "why\tnot", &[1.5, f64::NAN], seed, 3, 2, 2, 0, 1);
        if let Ok(back) = Checkpoint::from_text(&mutation::mutate(&ckpt.to_text(), true, m)) {
            let text = back.to_text();
            match Checkpoint::from_text(&text) {
                Ok(again) => prop_assert_eq!(again.to_text(), text),
                Err(e) => return Err(TestCaseError::fail(format!("re-decode failed: {e}"))),
            }
        }
    }
}

/// The explicitly-required empty-history case, pinned outside the fuzz loop.
#[test]
fn empty_history_snapshot_round_trips() {
    let ckpt = make_checkpoint("cold·start", "", &[], 0, 0, 1, 0, 0, 0);
    assert!(ckpt.history.is_empty());
    assert!(ckpt.plans.is_empty());
    assert_round_trip(&ckpt);
}
