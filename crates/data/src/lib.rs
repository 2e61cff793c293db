//! # safe-data — columnar dataset substrate for the SAFE reproduction
//!
//! Every stage of the SAFE pipeline (feature generation, information-value
//! filtering, redundancy removal, model training) operates column-wise, so the
//! central [`Dataset`] type stores features **column-major**: one contiguous
//! `Vec<f64>` per feature. Labels are binary (`0`/`1`) as in the paper's
//! fraud-detection and benchmark tasks.
//!
//! The crate also provides:
//! - deterministic shuffling and train/valid/test [`split`]ting (plain and
//!   stratified),
//! - a small dependency-free [`csv`] reader/writer,
//! - the [`record`] reader behind the four text codecs, and the
//!   [`checksum`] that seals the artifact and the checkpoint,
//! - equal-frequency / equal-width [`binning`] used by the Information Value
//!   computation (Algorithm 3 of the paper) and by discretization operators.
//!
//! Missing values are represented as `f64::NAN` and handled explicitly by the
//! binning and statistics layers.
//!
//! Out-of-core backend (DESIGN.md §16):
//! - [`chunk`] — fixed-size row chunks with file-backed spill segments and
//!   an LRU of decoded chunks,
//! - [`column`](mod@column) — the [`ColumnRead`] trait / [`ColumnView`] access surface
//!   the hot paths consume instead of raw `&[f64]` slices,
//! - [`csv::read_csv_chunked`] — streaming ingest that never materializes
//!   the full table.
//!
//! Robustness additions:
//! - [`audit`](mod@audit) — pre-flight scan for degenerate data (all-missing or
//!   constant columns, infinities, single-class labels) with
//!   reject/warn/repair policies,
//! - [`failpoints`] — feature-gated fault injection used by the
//!   degradation test-suite.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod audit;
pub mod binning;
pub mod checksum;
pub mod chunk;
pub mod column;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod failpoints;
pub mod record;
pub mod split;

pub use audit::{
    audit, enforce, enforce_observed, AuditConfig, AuditError, AuditFinding, AuditPolicy,
    AuditReport, AuditSeverity, RepairAction,
};
pub use binning::{BinAssignments, BinEdges, BinStrategy};
pub use chunk::{ChunkOptions, ChunkStats, ChunkStore, ChunkStoreBuilder};
pub use column::{ColumnRead, ColumnView};
pub use dataset::{Dataset, FeatureMeta, FeatureOrigin};
pub use error::DataError;
pub use split::{train_test_split, train_valid_test_split, DatasetSplit};
