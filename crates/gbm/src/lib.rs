//! # safe-gbm — gradient-boosted trees with path extraction
//!
//! A from-scratch reproduction of the XGBoost-style booster that SAFE uses
//! three times per iteration:
//!
//! 1. **combination mining** — the split-feature *paths* of the trained trees
//!    define the candidate feature combinations (Section IV-B1, Fig. 2),
//! 2. **feature ranking** — surviving candidates are ordered by average split
//!    gain (Section IV-C3),
//! 3. **evaluation** — "XGB" is one of the nine downstream classifiers in
//!    Tables III and VIII.
//!
//! The implementation is a second-order (Newton) booster:
//!
//! - logistic and squared-error objectives ([`loss`]),
//! - histogram split finding over quantized feature bins ([`binner`],
//!   [`histogram`]) — with `max_bins` ≥ the number of distinct values this
//!   degenerates to exact greedy search,
//! - L2 regularization `λ`, split penalty `γ`, `min_child_weight`, depth
//!   limit, learning-rate shrinkage, row and column subsampling,
//! - sparsity-aware missing-value handling (each split learns a default
//!   direction for the missing bin),
//! - optional early stopping on validation AUC,
//! - per-feature gain/count importance ([`importance`]) and root→leaf-parent
//!   path enumeration ([`tree::Tree::paths`]).
//!
//! Split finding is parallelized across features on the persistent worker
//! pool of `safe_stats::par`, mirroring the paper's "distributed
//! computing" requirement. The root and every split node cost one parallel
//! pass ([`grow`]): the chunk that owns a feature builds or subtracts its
//! histograms and scans them for each child's best split. Histogram
//! buffers come from one store per booster fit and are taken and given
//! back only on the calling thread, so pool workers fill, zero and
//! subtract buffers but never allocate or free one.
//!
//! Training failures surface as typed [`GbmError`]s rather than panics;
//! with the `failpoints` feature the loop exposes named fault-injection
//! points (`gbm/fit-begin`, `gbm/train-round`) for degradation testing.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod binner;
pub mod booster;
pub mod codec;
pub mod dump;
pub mod config;
pub mod error;
pub mod grow;
pub mod histogram;
pub mod importance;
pub mod loss;
pub mod tree;

pub use binner::{BinCache, BinMapper, BinnedDataset};
pub use booster::{Gbm, GbmModel};
pub use error::GbmError;
pub use grow::GrowStats;
pub use dump::{dump_model, dump_tree};
pub use config::{GbmConfig, Objective};
pub use importance::{FeatureImportance, ImportanceKind};
pub use tree::{SplitPath, Tree, TreeNode};
