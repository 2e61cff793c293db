//! Typed errors for the SAFE pipeline, with source-chain context.
//!
//! [`SafeError`] is the single error type [`crate::safe::Safe::fit`]
//! returns. It distinguishes *rejections* (bad config, unusable data — the
//! caller must change something) from *internal failures* (a booster or
//! stage failed mid-loop). Internal failures are normally absorbed by the
//! degradation policy (see `DESIGN.md`, "Error handling & degradation
//! policy") and surface as [`crate::safe::IterationStatus::Degraded`]
//! entries instead of an `Err`; the variants here still carry enough
//! context — iteration index, stage name, underlying error — to render a
//! precise message either way.

use std::fmt;

use safe_data::audit::AuditError;
use safe_gbm::error::GbmError;

/// Errors from the SAFE pipeline.
#[derive(Debug)]
pub enum SafeError {
    /// Invalid configuration.
    Config(String),
    /// Unusable input data.
    Data(String),
    /// The pre-fit data audit rejected the dataset (see
    /// [`safe_data::audit`](mod@safe_data::audit)). Carries the full audit
    /// report.
    Audit(AuditError),
    /// An internal booster failed. Only constructed mid-loop; the
    /// degradation policy converts it into an iteration status, so callers
    /// of `fit` observe it only through [`crate::safe::IterationStatus`].
    Gbm {
        /// Iteration (0-based) in which the booster failed.
        iteration: usize,
        /// Pipeline stage, e.g. `"mine"` or `"rank"`.
        stage: &'static str,
        /// The underlying booster error.
        source: GbmError,
    },
    /// An internal model failed to train (legacy string form, kept for
    /// stages without a typed error).
    Train(String),
    /// Checkpoint/resume failure: no usable checkpoint (every candidate
    /// file failed to load), a fingerprint mismatch between the checkpoint
    /// and the resuming configuration, or a missing checkpoint directory.
    /// Unlike mid-loop stage failures this is a *rejection* — the caller
    /// asked to resume and the premise does not hold, so no training runs.
    Checkpoint(String),
    /// A worker thread panicked inside a parallel stage. The execution
    /// layer ([`safe_stats::par`]) joins every worker and captures the
    /// panic, so this is an error — never a hang or an unwind across the
    /// pipeline. Like [`SafeError::Gbm`] it is normally absorbed by the
    /// degradation policy mid-loop.
    WorkerPanic {
        /// Pipeline stage, e.g. `"iv-filter"` or `"generate"`.
        stage: &'static str,
        /// Stringified panic payload from the worker.
        message: String,
    },
}

impl SafeError {
    /// Wrap a captured worker panic with the pipeline stage it poisoned.
    pub fn worker_panic(stage: &'static str, panic: safe_stats::par::ParPanic) -> SafeError {
        SafeError::WorkerPanic {
            stage,
            message: panic.message,
        }
    }

    /// Display plus every [`std::error::Error::source`] in the chain,
    /// joined with `": "` — for contexts that flatten the error into one
    /// line (iteration degradation reasons, logs).
    pub fn chain_string(&self) -> String {
        let mut out = self.to_string();
        let mut src = std::error::Error::source(self);
        while let Some(cause) = src {
            out.push_str(": ");
            out.push_str(&cause.to_string());
            src = cause.source();
        }
        out
    }
}

// Display deliberately does NOT embed the source — callers that want the
// cause walk `source()` (as the CLI's chain renderer does) or use
// [`SafeError::chain_string`], so the cause is never printed twice.
impl fmt::Display for SafeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafeError::Config(m) => write!(f, "config error: {m}"),
            SafeError::Data(m) => write!(f, "data error: {m}"),
            SafeError::Audit(_) => write!(f, "the pre-fit data audit rejected the dataset"),
            SafeError::Gbm { iteration, stage, .. } => {
                write!(f, "booster failed at iteration {iteration}, stage '{stage}'")
            }
            SafeError::Train(m) => write!(f, "training error: {m}"),
            SafeError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            SafeError::WorkerPanic { stage, message } => {
                write!(f, "worker thread panicked in stage '{stage}': {message}")
            }
        }
    }
}

impl std::error::Error for SafeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SafeError::Audit(e) => Some(e),
            SafeError::Gbm { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<AuditError> for SafeError {
    fn from(e: AuditError) -> Self {
        SafeError::Audit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn gbm_variant_chains_its_source() {
        let e = SafeError::Gbm {
            iteration: 2,
            stage: "mine",
            source: GbmError::EmptyTraining,
        };
        let msg = e.to_string();
        assert!(msg.contains("iteration 2"), "{msg}");
        assert!(msg.contains("mine"), "{msg}");
        assert!(e.source().is_some());
        // The flattened form appends the cause exactly once.
        let chain = e.chain_string();
        assert!(chain.contains(&GbmError::EmptyTraining.to_string()), "{chain}");
        assert!(!msg.contains(&GbmError::EmptyTraining.to_string()), "{msg}");
    }

    #[test]
    fn string_variants_have_no_source() {
        assert!(SafeError::Config("x".into()).source().is_none());
        assert!(SafeError::Data("x".into()).source().is_none());
    }

    #[test]
    fn worker_panic_carries_stage_and_payload() {
        let p = safe_stats::par::ParPanic { message: "poisoned column 3".into() };
        let e = SafeError::worker_panic("iv-filter", p);
        let msg = e.to_string();
        assert!(msg.contains("iv-filter"), "{msg}");
        assert!(msg.contains("poisoned column 3"), "{msg}");
        assert!(e.source().is_none(), "payload is embedded, not chained");
    }
}
