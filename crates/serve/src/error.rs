//! Typed errors for the serving layer.

use std::fmt;

use safe_core::plan::PlanError;
use safe_data::record::RecordError;
use safe_gbm::GbmError;

/// Everything that can go wrong while saving, loading, or scoring a
/// [`crate::SafeArtifact`].
#[derive(Debug)]
pub enum ServeError {
    /// Plan compilation or application failed (shares the shape-mismatch
    /// contract documented on `CompiledPlan::apply`).
    Plan(PlanError),
    /// Booster training or deserialization failed.
    Gbm(GbmError),
    /// Artifact text failed to parse.
    Parse {
        /// 1-based line number the error refers to.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The artifact body does not match its checksum line — the file was
    /// truncated or edited after save.
    Checksum {
        /// Checksum recorded in the file.
        expected: String,
        /// Checksum of the body as read.
        actual: String,
    },
    /// The artifact's sections disagree with each other (schema vs. plan,
    /// plan outputs vs. booster feature count).
    Schema(String),
    /// Reading or writing the artifact file failed.
    Io {
        /// Path involved.
        path: String,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// Labels or data needed for an operation were absent.
    Data(String),
    /// A scorer worker thread panicked (captured, never unwound).
    Worker(String),
    /// The scoring service has shut down; the submission was rejected
    /// (the row was never accepted, so no response will arrive).
    Closed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Plan(e) => write!(f, "plan error: {e}"),
            ServeError::Gbm(e) => write!(f, "booster error: {e}"),
            ServeError::Parse { line, message } => {
                write!(f, "artifact text line {line}: {message}")
            }
            ServeError::Checksum { expected, actual } => write!(
                f,
                "artifact checksum mismatch: header says {expected}, body hashes to {actual}"
            ),
            ServeError::Schema(msg) => write!(f, "inconsistent artifact: {msg}"),
            ServeError::Io { path, source } => write!(f, "{path}: {source}"),
            ServeError::Data(msg) => write!(f, "data error: {msg}"),
            ServeError::Worker(msg) => write!(f, "scoring worker panicked: {msg}"),
            ServeError::Closed => write!(f, "scoring service is shut down: submission rejected"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Plan(e) => Some(e),
            ServeError::Gbm(e) => Some(e),
            ServeError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<PlanError> for ServeError {
    fn from(e: PlanError) -> Self {
        ServeError::Plan(e)
    }
}

impl From<GbmError> for ServeError {
    fn from(e: GbmError) -> Self {
        ServeError::Gbm(e)
    }
}

impl From<RecordError> for ServeError {
    fn from(e: RecordError) -> Self {
        match e {
            RecordError::Checksum { expected, actual } => ServeError::Checksum {
                expected: format!("{expected:016x}"),
                actual: format!("{actual:016x}"),
            },
            RecordError::Parse { line, message } => ServeError::Parse { line, message },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_covers_variants() {
        assert!(ServeError::Checksum {
            expected: "aa".into(),
            actual: "bb".into()
        }
        .to_string()
        .contains("checksum"));
        assert!(ServeError::Schema("x".into()).to_string().contains('x'));
        assert!(ServeError::Worker("boom".into()).to_string().contains("boom"));
        assert!(ServeError::Closed.to_string().contains("shut down"));
    }

    #[test]
    fn sources_chain() {
        let e = ServeError::Gbm(GbmError::EmptyTraining);
        assert!(e.source().is_some());
        assert!(ServeError::Data("d".into()).source().is_none());
    }
}
