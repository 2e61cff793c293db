//! # safe-serve — versioned artifacts + a long-lived scoring daemon
//!
//! The paper's deliverable is a feature-generation function Ψ "applicable
//! at inference time"; this crate is that inference side:
//!
//! - [`SafeArtifact`] — one versioned, checksummed text file bundling the
//!   learned [`safe_core::FeaturePlan`], the fitted scoring booster, the
//!   expected raw input schema, and per-feature provenance metadata. A
//!   save/load round trip preserves score bits exactly (every float is
//!   serialized as its IEEE-754 bit pattern).
//! - [`ScoreService`] — the long-lived request pipeline: submit rows one
//!   at a time, a worker pool coalesces them into micro-batches through a
//!   hand-rolled MPMC [`queue::BatchQueue`], and the loaded artifact can
//!   be **hot-swapped atomically** with a monotonic version stamped on
//!   every [`ScoreResponse`].
//! - [`ScorerHandle`] — the offline scorer for one-shot batch scoring.
//!   Batches fan out across `safe_stats::par` with fixed-order merging, so
//!   output is **bit-identical at any thread count** — and the daemon's
//!   workers hold a handle and run its batch kernel, so streamed and
//!   offline scores agree bit-for-bit.
//! - [`ScoreReport`] / [`ServiceReport`] — volume, batching, threading,
//!   and latency quantiles, mirrored to the `safe-obs` sink.
//!
//! Offline batch:
//!
//! ```no_run
//! use safe_serve::{SafeArtifact, ScorerHandle};
//! use safe_ops::registry::OperatorRegistry;
//!
//! let artifact = SafeArtifact::load("model.safeartifact").unwrap();
//! let scorer = ScorerHandle::new(&artifact, &OperatorRegistry::standard())
//!     .unwrap()
//!     .with_threads(4);
//! # let incoming = safe_data::dataset::Dataset::with_rows(0);
//! let (scores, report) = scorer.score_dataset(&incoming).unwrap();
//! println!("{} rows at {:.0} rows/s", report.rows, report.rows_per_sec);
//! # let _ = scores;
//! ```
//!
//! Streamed daemon with a zero-downtime model rollover:
//!
//! ```no_run
//! use safe_serve::{SafeArtifact, ScoreService, ServiceConfig};
//! use safe_ops::registry::OperatorRegistry;
//!
//! let registry = OperatorRegistry::standard();
//! let artifact = SafeArtifact::load("model-v1.safeartifact").unwrap();
//! let service = ScoreService::start(&artifact, &registry, ServiceConfig::default()).unwrap();
//! let ticket = service.submit(vec![0.1, 0.2, 0.3]).unwrap();
//! let next = SafeArtifact::load("model-v2.safeartifact").unwrap();
//! let version = service.swap_artifact(&next, &registry).unwrap(); // zero downtime
//! let response = ticket.wait().unwrap();
//! println!("score {} from artifact v{} (now serving v{version})",
//!     response.score, response.version);
//! let report = service.shutdown();
//! println!("{} requests in {} batches", report.completed, report.batches);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod artifact;
pub mod error;
pub mod queue;
mod scorer;
mod service;

pub use artifact::{SafeArtifact, ARTIFACT_FORMAT_VERSION};
pub use error::ServeError;
pub use scorer::{ScoreReport, ScorerHandle, DEFAULT_BATCH_SIZE};
pub use service::{
    ScoreResponse, ScoreService, ServiceConfig, ServiceReport, Ticket, DEFAULT_MAX_BATCH,
    DEFAULT_QUEUE_CAPACITY,
};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures: a deterministic synthetic split and a small
    //! trained artifact over a hand-built plan.

    use safe_core::plan::{FeaturePlan, PlanStep};
    use safe_data::dataset::Dataset;
    use safe_gbm::GbmConfig;
    use safe_ops::registry::OperatorRegistry;

    use crate::artifact::SafeArtifact;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn make(n: usize, state: &mut u64) -> Dataset {
        let mut cols = vec![Vec::with_capacity(n); 3];
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a = lcg(state) * 2.0 - 1.0;
            let b = lcg(state) * 2.0 - 1.0;
            let c = lcg(state) * 2.0 - 1.0;
            cols[0].push(a);
            cols[1].push(b);
            cols[2].push(c);
            labels.push(u8::from(a + 0.5 * b - 0.2 * c > 0.0));
        }
        Dataset::from_columns(
            vec!["a".into(), "b".into(), "c".into()],
            cols,
            Some(labels),
        )
        .unwrap()
    }

    /// Deterministic (train, valid) pair keyed by `seed`.
    pub fn toy_split(seed: u64) -> (Dataset, Dataset) {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (make(300, &mut state), make(150, &mut state))
    }

    /// A small hand-built plan over the toy schema: two generated features
    /// plus the three originals.
    pub fn toy_plan() -> FeaturePlan {
        FeaturePlan {
            input_names: vec!["a".into(), "b".into(), "c".into()],
            steps: vec![
                PlanStep {
                    name: "mul(a,b)".into(),
                    op: "mul".into(),
                    parents: vec!["a".into(), "b".into()],
                    params: vec![],
                },
                PlanStep {
                    name: "div(a,c)".into(),
                    op: "div".into(),
                    parents: vec!["a".into(), "c".into()],
                    params: vec![],
                },
            ],
            outputs: vec![
                "a".into(),
                "b".into(),
                "c".into(),
                "mul(a,b)".into(),
                "div(a,c)".into(),
            ],
        }
    }

    /// A trained artifact over [`toy_plan`] with a recorded validation AUC.
    pub fn toy_artifact(seed: u64) -> SafeArtifact {
        let (train, valid) = toy_split(seed);
        SafeArtifact::train(
            &toy_plan(),
            &OperatorRegistry::standard(),
            &train,
            Some(&valid),
            &GbmConfig::miner(),
        )
        .unwrap()
    }
}
