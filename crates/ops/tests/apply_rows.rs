//! `FittedOperator::apply` over whole columns must equal `apply_row` row by
//! row, to the bit, for every operator in the standard registry: the batch
//! path gathers each row's arguments into one reused buffer, and nothing
//! else may differ.

use proptest::prelude::*;

use safe_ops::registry::OperatorRegistry;

/// A cell that is often NaN or a signed zero.
fn cell() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(0.0f64),
        Just(-0.0f64),
        (-3i32..4).prop_map(f64::from),
        -1e3f64..1e3,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_apply_is_rowwise_apply_for_every_operator(
        (cols, labels) in (1usize..80).prop_flat_map(|n| (
            prop::collection::vec(prop::collection::vec(cell(), n), 3),
            prop::collection::vec(0u8..=1, n),
        )),
    ) {
        for op in OperatorRegistry::standard().all() {
            let inputs: Vec<&[f64]> =
                cols.iter().take(op.arity()).map(|c| c.as_slice()).collect();
            let fitted = op.fit(&inputs, Some(&labels)).map_err(|e| {
                TestCaseError::fail(format!("{} did not fit: {e}", op.name()))
            })?;
            let batch = fitted.apply(&inputs);
            prop_assert_eq!(batch.len(), labels.len());
            for (i, got) in batch.iter().enumerate() {
                let row: Vec<f64> = inputs.iter().map(|c| c[i]).collect();
                let want = fitted.apply_row(&row);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{} row {}", op.name(), i);
            }
        }
    }
}
