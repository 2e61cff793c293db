//! # safe-core — the SAFE automatic feature engineering pipeline
//!
//! Faithful implementation of Algorithm 1 of *SAFE: Scalable Automatic
//! Feature Engineering Framework for Industrial Tasks* (ICDE 2020). Each
//! iteration:
//!
//! 1. train a gradient-boosted miner on the current feature set
//!    ([`safe_gbm`]),
//! 2. harvest feature combinations from the trees' root→leaf-parent paths
//!    ([`combine`], Section IV-B1),
//! 3. rank combinations by information gain ratio and keep the top γ
//!    ([`combine::rank_combinations`], Algorithm 2),
//! 4. apply the operator set to the kept combinations
//!    ([`generate::generate_features`]),
//! 5. filter candidates by Information Value > α ([`selection::iv_filter`],
//!    Algorithm 3),
//! 6. drop the lower-IV member of every |ρ| > θ pair
//!    ([`selection::redundancy_filter`], Algorithm 4, in both selection
//!    modes; [`SelectionMode::Staged`] runs it on the pruner's finalists),
//! 7. rank survivors by average split gain and keep the best
//!    ([`selection::rank_and_cap`], Section IV-C3).
//!
//! The result is a serializable [`plan::FeaturePlan`] — the learned Ψ — that
//! replays generation on any dataset or single record (the paper's real-time
//! inference requirement).
//!
//! The paper's own ablation baselines **RAND** (random combinations over all
//! features) and **IMP** (random combinations over split features) are
//! selectable via [`config::GenerationStrategy`]; they share the full
//! selection pipeline exactly as in Section V-A1.
//!
//! ## Robustness
//!
//! `Safe::fit` never panics on degenerate data: a configurable pre-fit
//! audit ([`safe_data::audit`](mod@safe_data::audit), wired through
//! [`SafeConfig::audit`]) rejects or repairs unusable datasets, and mid-loop
//! stage failures degrade to the last good iteration's plan (recorded per
//! iteration as an [`safe::IterationStatus`]) instead of aborting the run.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod checkpoint;
pub mod combine;
pub mod engineer;
pub mod error;
pub mod explain;
pub mod config;
pub mod generate;
pub mod plan;
pub mod safe;
pub mod selection;

pub use checkpoint::{Checkpoint, CheckpointStore, CkptError, ConfigFingerprint, Terminal};
pub use config::{GenerationStrategy, SafeConfig, SafeConfigBuilder, SelectionMode};
pub use engineer::{FeatureEngineer, Identity};
pub use error::{SafeError, StageError};
pub use explain::{explain_plan, explanation_report, FeatureExplanation};
pub use plan::{CompiledPlan, FeaturePlan, PlanError, RowScratch};
pub use safe::{IterationReport, IterationStatus, Safe, SafeOutcome};
pub use safe_gbm::binner::BinCache;
