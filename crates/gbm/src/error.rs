//! Typed errors for the boosting layer.

use std::fmt;

use safe_data::error::DataError;
use safe_data::record::RecordError;

/// Everything that can go wrong while training a [`crate::Gbm`].
#[derive(Debug, Clone, PartialEq)]
pub enum GbmError {
    /// The [`crate::GbmConfig`] failed validation.
    Config(String),
    /// The named dataset (train/validation) has no labels attached.
    NoLabels {
        /// Which dataset: `"training"` or `"validation"`.
        which: &'static str,
    },
    /// The training dataset has no rows or no columns.
    EmptyTraining,
    /// Validation feature count differs from training.
    FeatureMismatch {
        /// Features in the training set.
        train: usize,
        /// Features in the validation set.
        valid: usize,
    },
    /// A data-layer failure (binning, column access).
    Data(DataError),
    /// A serialized model (see [`crate::codec`]) failed to parse.
    Parse {
        /// 1-based line in the text the error refers to.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A fault-injection point fired (tests only; see the `failpoints`
    /// feature of `safe-data`). Carries the failpoint name.
    Injected(&'static str),
}

impl fmt::Display for GbmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GbmError::Config(msg) => write!(f, "invalid gbm config: {msg}"),
            GbmError::NoLabels { which } => write!(f, "{which} dataset has no labels"),
            GbmError::EmptyTraining => write!(f, "training dataset is empty"),
            GbmError::FeatureMismatch { train, valid } => {
                write!(f, "validation has {valid} features, train has {train}")
            }
            GbmError::Data(e) => write!(f, "data error during training: {e}"),
            GbmError::Parse { line, message } => {
                write!(f, "model text line {line}: {message}")
            }
            GbmError::Injected(name) => write!(f, "injected fault at '{name}'"),
        }
    }
}

impl std::error::Error for GbmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GbmError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for GbmError {
    fn from(e: DataError) -> Self {
        GbmError::Data(e)
    }
}

impl From<RecordError> for GbmError {
    fn from(e: RecordError) -> Self {
        let (line, message) = e.into_parts();
        GbmError::Parse { line, message }
    }
}

/// Callers that still speak stringly-typed errors (benches, quick scripts)
/// can keep using `?` after the switch to typed errors.
impl From<GbmError> for String {
    fn from(e: GbmError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(GbmError::NoLabels { which: "training" }
            .to_string()
            .contains("training"));
        assert!(GbmError::FeatureMismatch { train: 3, valid: 5 }
            .to_string()
            .contains('5'));
        let s: String = GbmError::EmptyTraining.into();
        assert!(s.contains("empty"));
    }

    #[test]
    fn data_errors_chain_as_source() {
        use std::error::Error;
        let e = GbmError::Data(DataError::ZeroBins);
        assert!(e.source().is_some());
    }
}
