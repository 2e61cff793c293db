//! Operator traits: fit-on-train, apply-anywhere.

use std::fmt;
use std::sync::Arc;

/// Errors from operator fitting/rehydration.
#[derive(Debug, Clone, PartialEq)]
pub enum OpError {
    /// Wrong number of parent columns.
    ArityMismatch {
        /// Operator name.
        op: String,
        /// Declared arity.
        expected: usize,
        /// Inputs supplied.
        actual: usize,
    },
    /// Parent columns have different lengths.
    LengthMismatch,
    /// Stored parameters do not decode for this operator.
    BadParams(String),
    /// A supervised operator was fit without labels.
    NeedsLabels(String),
    /// A fault-injection point fired (tests only; see the `failpoints`
    /// feature of `safe-data`). Carries the failpoint name.
    Injected(&'static str),
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::ArityMismatch { op, expected, actual } => {
                write!(f, "operator '{op}' takes {expected} inputs, got {actual}")
            }
            OpError::LengthMismatch => write!(f, "parent columns differ in length"),
            OpError::BadParams(msg) => write!(f, "bad operator parameters: {msg}"),
            OpError::NeedsLabels(op) => write!(f, "operator '{op}' requires labels to fit"),
            OpError::Injected(name) => write!(f, "injected fault at '{name}'"),
        }
    }
}

impl std::error::Error for OpError {}

/// A named feature constructor of fixed arity.
///
/// `fit` learns any state from *training* columns and returns the frozen
/// applier; `rehydrate` rebuilds the applier from stored parameters so a
/// serialized feature plan can run at inference time without the training
/// data.
pub trait Operator: Send + Sync {
    /// Registry name, e.g. `"add"`, `"group_then_avg"`.
    fn name(&self) -> &'static str;

    /// Number of parent features consumed.
    fn arity(&self) -> usize;

    /// Whether argument order is irrelevant. Non-commutative operators are
    /// "treated as multiple different operators" (Section III) — the
    /// generation stage enumerates ordered pairs for them.
    fn commutative(&self) -> bool;

    /// Fit on training columns and freeze. Supervised operators (e.g.
    /// ChiMerge discretization) require `labels`; unsupervised ones ignore
    /// them.
    fn fit(
        &self,
        inputs: &[&[f64]],
        labels: Option<&[u8]>,
    ) -> Result<Box<dyn FittedOperator>, OpError>;

    /// Rebuild a fitted instance from stored parameters.
    fn rehydrate(&self, params: &[f64]) -> Result<Box<dyn FittedOperator>, OpError>;

    /// Check input count; shared by implementations. Every operator `fit`
    /// funnels through here, which also makes it the natural fault-injection
    /// point for "operator failed to fit" degradation tests.
    fn check_arity(&self, inputs: &[&[f64]]) -> Result<(), OpError> {
        safe_data::failpoint!("ops/fit", OpError::Injected("ops/fit"));
        if inputs.len() != self.arity() {
            return Err(OpError::ArityMismatch {
                op: self.name().to_string(),
                expected: self.arity(),
                actual: inputs.len(),
            });
        }
        if inputs
            .windows(2)
            .any(|w| w[0].len() != w[1].len())
        {
            return Err(OpError::LengthMismatch);
        }
        Ok(())
    }
}

/// A frozen operator ready to produce feature values.
pub trait FittedOperator: Send + Sync {
    /// Apply to whole columns (batch feature generation): row `i` calls
    /// [`FittedOperator::apply_row`] with `inputs[k][i]` in argument `k`,
    /// gathered into one buffer reused across rows.
    fn apply(&self, inputs: &[&[f64]]) -> Vec<f64> {
        let n = inputs.first().map(|c| c.len()).unwrap_or(0);
        let mut row = vec![0.0; inputs.len()];
        (0..n)
            .map(|i| {
                for (arg, col) in row.iter_mut().zip(inputs) {
                    *arg = col[i];
                }
                self.apply_row(&row)
            })
            .collect()
    }

    /// Apply to a single record (real-time inference).
    fn apply_row(&self, inputs: &[f64]) -> f64;

    /// Learned parameters, empty for stateless operators. Must round-trip
    /// through [`Operator::rehydrate`].
    fn params(&self) -> Vec<f64> {
        Vec::new()
    }
}

impl fmt::Debug for dyn FittedOperator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FittedOperator(params={:?})", self.params())
    }
}

/// Boxed pure row function.
type RowFn = Arc<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// Adapter turning a plain `fn(&[f64]) -> f64` into a [`FittedOperator`] —
/// the common case for the arithmetic/logical/math families.
#[derive(Clone)]
pub struct StatelessFitted {
    f: RowFn,
}

impl StatelessFitted {
    /// Wrap a pure row function.
    pub fn new(f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static) -> Self {
        StatelessFitted { f: Arc::new(f) }
    }
}

impl FittedOperator for StatelessFitted {
    fn apply_row(&self, inputs: &[f64]) -> f64 {
        (self.f)(inputs)
    }
}

/// Declare a stateless operator type in one line.
///
/// `stateless_op!(Add, "add", 2, commutative: true, |v| v[0] + v[1]);`
#[macro_export]
macro_rules! stateless_op {
    ($ty:ident, $name:literal, $arity:literal, commutative: $comm:literal, $f:expr) => {
        /// Stateless operator (see module docs for semantics).
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $ty;

        impl $crate::op::Operator for $ty {
            fn name(&self) -> &'static str {
                $name
            }
            fn arity(&self) -> usize {
                $arity
            }
            fn commutative(&self) -> bool {
                $comm
            }
            fn fit(
                &self,
                inputs: &[&[f64]],
                _labels: Option<&[u8]>,
            ) -> Result<Box<dyn $crate::op::FittedOperator>, $crate::op::OpError> {
                self.check_arity(inputs)?;
                Ok(Box::new($crate::op::StatelessFitted::new($f)))
            }
            fn rehydrate(
                &self,
                params: &[f64],
            ) -> Result<Box<dyn $crate::op::FittedOperator>, $crate::op::OpError> {
                if !params.is_empty() {
                    return Err($crate::op::OpError::BadParams(format!(
                        "{} is stateless but got {} params",
                        $name,
                        params.len()
                    )));
                }
                Ok(Box::new($crate::op::StatelessFitted::new($f)))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    stateless_op!(TestAdd, "test_add", 2, commutative: true, |v| v[0] + v[1]);

    #[test]
    fn stateless_round_trip() {
        let op = TestAdd;
        assert_eq!(op.name(), "test_add");
        assert_eq!(op.arity(), 2);
        assert!(op.commutative());
        let a = [1.0, 2.0];
        let b = [10.0, 20.0];
        let fitted = op.fit(&[&a, &b], None).unwrap();
        assert_eq!(fitted.apply(&[&a, &b]), vec![11.0, 22.0]);
        assert_eq!(fitted.apply_row(&[3.0, 4.0]), 7.0);
        assert!(fitted.params().is_empty());
        let rehydrated = op.rehydrate(&[]).unwrap();
        assert_eq!(rehydrated.apply_row(&[3.0, 4.0]), 7.0);
    }

    #[test]
    fn arity_is_enforced() {
        let op = TestAdd;
        let a = [1.0];
        let err = op.fit(&[&a], None).unwrap_err();
        assert!(matches!(err, OpError::ArityMismatch { expected: 2, actual: 1, .. }));
    }

    #[test]
    fn length_mismatch_rejected() {
        let op = TestAdd;
        let a = [1.0, 2.0];
        let b = [1.0];
        assert_eq!(op.fit(&[&a, &b], None).unwrap_err(), OpError::LengthMismatch);
    }

    #[test]
    fn stateless_rejects_params() {
        let op = TestAdd;
        assert!(matches!(op.rehydrate(&[1.0]).unwrap_err(), OpError::BadParams(_)));
    }
}
