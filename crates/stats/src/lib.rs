//! # safe-stats — statistical primitives for the SAFE pipeline
//!
//! Everything statistical that the paper's algorithms rely on, from scratch:
//!
//! - [`entropy`] — Shannon entropy, information gain and **information gain
//!   ratio** over record partitions (Algorithm 2's combination ranking),
//! - [`iv`] — **Information Value** with Weight-of-Evidence (Eq. 6, Algorithm
//!   3) and the Table I predictive-power bands,
//! - [`pearson`](mod@pearson) — **Pearson correlation** (Eq. 7, Algorithm 4) and the Table
//!   II strength bands,
//! - [`auc`](mod@auc) — rank-based AUC, the paper's evaluation metric,
//! - [`divergence`] — KLD / JSD (Eqs. 14–15) and the feature-stability score
//!   of Table VI,
//! - [`chi`] — chi-square statistic backing the ChiMerge discretizer,
//! - [`describe`] — means, variances, quantiles,
//! - [`par`](mod@par) — the configurable parallel execution layer
//!   ([`Parallelism`] knob, fixed-order chunk merging, panic capture) over
//!   a persistent pool of parked `std` worker threads, used to parallelize
//!   histogram building, split finding, per-column IV and per-pair Pearson
//!   work (the paper's "distributed computing" requirement, realized as
//!   thread parallelism). Every caller passes its own explicit
//!   [`Parallelism`]; there is no implicit auto-parallel wrapper.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod auc;
pub mod chi;
pub mod describe;
pub mod divergence;
pub mod entropy;
pub mod iv;
pub mod par;
pub mod pearson;

pub use auc::auc;
pub use par::{ParPanic, Parallelism};

pub use divergence::{jensen_shannon, kullback_leibler, stability_score};
pub use entropy::{entropy_from_counts, gain_ratio, information_gain, label_entropy};
pub use iv::{information_value, woe_bins, IvBand};
pub use pearson::{pearson, CorrBand, ExactMoments};
