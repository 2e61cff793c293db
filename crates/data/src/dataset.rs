//! Column-major dataset with binary labels, feature provenance, and a
//! pluggable storage backend (fully resident or chunked/spilled).

use std::ops::Range;
use std::sync::Arc;

use crate::chunk::{ChunkOptions, ChunkStore, ChunkStoreBuilder};
use crate::error::DataError;

/// Where a feature came from. SAFE needs provenance to (a) report which
/// features in the final set were generated vs. original (Fig. 3 of the
/// paper) and (b) replay generation at inference time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeatureOrigin {
    /// Present in the raw input data.
    Original,
    /// Produced by applying operator `op` to the named parent features.
    Generated {
        /// Operator name as registered in `safe-ops`.
        op: String,
        /// Names of the parent features, in operator-argument order.
        parents: Vec<String>,
    },
}

impl FeatureOrigin {
    /// True if the feature was created by feature engineering.
    pub fn is_generated(&self) -> bool {
        matches!(self, FeatureOrigin::Generated { .. })
    }
}

/// Metadata carried alongside each feature column.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMeta {
    /// Unique feature name, e.g. `"x3"` or `"mul(x3,x7)"`.
    pub name: String,
    /// Provenance of the feature.
    pub origin: FeatureOrigin,
}

impl FeatureMeta {
    /// Metadata for an original (raw) feature.
    pub fn original(name: impl Into<String>) -> Self {
        FeatureMeta {
            name: name.into(),
            origin: FeatureOrigin::Original,
        }
    }

    /// Metadata for a generated feature.
    pub fn generated(name: impl Into<String>, op: impl Into<String>, parents: Vec<String>) -> Self {
        FeatureMeta {
            name: name.into(),
            origin: FeatureOrigin::Generated {
                op: op.into(),
                parents,
            },
        }
    }
}

/// Storage of one feature column. `Resident` is the classic in-memory
/// vector (shared by `Arc`, so selecting/stacking columns is zero-copy);
/// `Chunked` resolves through a [`ChunkStore`]'s LRU of decoded chunks.
#[derive(Debug, Clone)]
enum ColumnSlot {
    Resident(Arc<Vec<f64>>),
    Chunked { store: Arc<ChunkStore>, col: usize },
}

impl ColumnSlot {
    fn len(&self) -> usize {
        match self {
            ColumnSlot::Resident(v) => v.len(),
            ColumnSlot::Chunked { store, .. } => store.n_rows(),
        }
    }

    fn resident(&self) -> Option<&[f64]> {
        match self {
            ColumnSlot::Resident(v) => Some(v),
            ColumnSlot::Chunked { .. } => None,
        }
    }
}

/// Column-major numeric dataset with optional binary labels.
///
/// Features are `f64` columns; `NaN` encodes a missing value. Labels are
/// `u8 ∈ {0, 1}` (the paper's tasks are binary classification: fraud vs.
/// legitimate, OpenML binary benchmarks).
///
/// # Backends
///
/// Every column is either **resident** (an in-memory vector) or
/// **chunked** (fixed-size row chunks resolved through a [`ChunkStore`],
/// optionally spilled to disk). Code on the hot paths reads columns
/// through [`Dataset::read_column`] / [`Dataset::for_each_row_chunk`] and
/// works on both backends; the raw-slice accessors ([`Dataset::column`],
/// [`Dataset::columns`], [`Dataset::row`], …) are the *resident-only
/// escape hatch* kept for models, baselines, and tests that never see
/// spilled data. Cloning is cheap for both backends: column storage is
/// shared, never copied (columns are immutable once pushed).
#[derive(Debug, Clone)]
pub struct Dataset {
    n_rows: usize,
    slots: Vec<ColumnSlot>,
    meta: Vec<FeatureMeta>,
    labels: Option<Vec<u8>>,
}

impl Dataset {
    /// Create an empty dataset with a fixed row count and no columns yet.
    pub fn with_rows(n_rows: usize) -> Self {
        Dataset {
            n_rows,
            slots: Vec::new(),
            meta: Vec::new(),
            labels: None,
        }
    }

    /// The one validated construction path every column-adding entry point
    /// funnels through (`from_columns`, `from_rows`, `push_column`,
    /// `push_column_from`, `from_chunk_store`): row-count and
    /// duplicate-name checks live here and nowhere else, so they cannot
    /// diverge between entry points.
    fn insert_slot(&mut self, meta: FeatureMeta, slot: ColumnSlot) -> Result<(), DataError> {
        if slot.len() != self.n_rows {
            return Err(DataError::ColumnLengthMismatch {
                name: meta.name,
                expected: self.n_rows,
                actual: slot.len(),
            });
        }
        if self.meta.iter().any(|m| m.name == meta.name) {
            return Err(DataError::DuplicateFeature(meta.name));
        }
        self.meta.push(meta);
        self.slots.push(slot);
        Ok(())
    }

    /// Build a dataset from column vectors and names. All columns must share
    /// the same length and names must be unique.
    pub fn from_columns(
        names: Vec<String>,
        columns: Vec<Vec<f64>>,
        labels: Option<Vec<u8>>,
    ) -> Result<Self, DataError> {
        if names.len() != columns.len() {
            return Err(DataError::ColumnLengthMismatch {
                name: "<names>".into(),
                expected: columns.len(),
                actual: names.len(),
            });
        }
        let n_rows = columns.first().map(|c| c.len()).unwrap_or(0);
        let mut ds = Dataset::with_rows(n_rows);
        for (name, col) in names.into_iter().zip(columns) {
            ds.push_column(FeatureMeta::original(name), col)?;
        }
        if let Some(labels) = labels {
            ds.set_labels(labels)?;
        }
        Ok(ds)
    }

    /// Build from row-major data (convenience for tests and CSV ingestion).
    pub fn from_rows(
        names: Vec<String>,
        rows: &[Vec<f64>],
        labels: Option<Vec<u8>>,
    ) -> Result<Self, DataError> {
        let n_cols = names.len();
        let mut columns = vec![Vec::with_capacity(rows.len()); n_cols];
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n_cols {
                return Err(DataError::RowShapeMismatch {
                    row: i,
                    expected: n_cols,
                    actual: row.len(),
                });
            }
            for (c, &v) in row.iter().enumerate() {
                columns[c].push(v);
            }
        }
        Dataset::from_columns(names, columns, labels)
    }

    /// Build a dataset whose feature columns all live in `store` (the
    /// out-of-core ingest path). `names.len()` must equal the store's
    /// column count.
    pub fn from_chunk_store(
        names: Vec<String>,
        store: ChunkStore,
        labels: Option<Vec<u8>>,
    ) -> Result<Self, DataError> {
        if names.len() != store.n_cols() {
            return Err(DataError::ColumnLengthMismatch {
                name: "<names>".into(),
                expected: store.n_cols(),
                actual: names.len(),
            });
        }
        let mut ds = Dataset::with_rows(store.n_rows());
        let store = Arc::new(store);
        for (col, name) in names.into_iter().enumerate() {
            ds.insert_slot(
                FeatureMeta::original(name),
                ColumnSlot::Chunked { store: Arc::clone(&store), col },
            )?;
        }
        if let Some(labels) = labels {
            ds.set_labels(labels)?;
        }
        Ok(ds)
    }

    /// Re-store this dataset's feature columns through a chunk store built
    /// under `opts` (labels and provenance carried over). Used by tests and
    /// benches to produce the chunked twin of a resident dataset; values
    /// are copied row-wise, so the source must be resident.
    pub fn to_chunked(&self, opts: ChunkOptions) -> Result<Dataset, DataError> {
        let mut builder = ChunkStoreBuilder::new(self.n_cols(), opts)?;
        let cols: Vec<&[f64]> = self.slots.iter().map(|s| self.expect_resident(s)).collect();
        let mut row = vec![0.0f64; cols.len()];
        for i in 0..self.n_rows {
            for (c, col) in cols.iter().enumerate() {
                row[c] = col[i];
            }
            builder.push_row(&row)?;
        }
        let store = Arc::new(builder.finish()?);
        let mut ds = Dataset::with_rows(self.n_rows);
        for (col, meta) in self.meta.iter().enumerate() {
            ds.insert_slot(
                meta.clone(),
                ColumnSlot::Chunked { store: Arc::clone(&store), col },
            )?;
        }
        ds.labels = self.labels.clone();
        Ok(ds)
    }

    /// Number of rows (records).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns.
    pub fn n_cols(&self) -> usize {
        self.slots.len()
    }

    /// True when the dataset has no rows or no columns.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0 || self.slots.is_empty()
    }

    /// Append a feature column.
    pub fn push_column(&mut self, meta: FeatureMeta, values: Vec<f64>) -> Result<(), DataError> {
        self.insert_slot(meta, ColumnSlot::Resident(Arc::new(values)))
    }

    /// Append column `src_idx` of `src` under its own metadata, sharing
    /// storage (no copy, chunked columns stay chunked). This is how audit
    /// repair/replay and plan application pass untouched columns through
    /// without materializing them.
    pub fn push_column_from(&mut self, src: &Dataset, src_idx: usize) -> Result<(), DataError> {
        let slot = src.slots.get(src_idx).ok_or(DataError::ColumnOutOfRange {
            index: src_idx,
            len: src.slots.len(),
        })?;
        self.insert_slot(src.meta[src_idx].clone(), slot.clone())
    }

    /// Attach binary labels.
    pub fn set_labels(&mut self, labels: Vec<u8>) -> Result<(), DataError> {
        if labels.len() != self.n_rows {
            return Err(DataError::LabelLengthMismatch {
                expected: self.n_rows,
                actual: labels.len(),
            });
        }
        if let Some((row, &value)) = labels.iter().enumerate().find(|(_, &v)| v > 1) {
            return Err(DataError::InvalidLabel {
                row,
                value: value as f64,
            });
        }
        self.labels = Some(labels);
        Ok(())
    }

    /// Binary labels, if attached.
    pub fn labels(&self) -> Option<&[u8]> {
        self.labels.as_deref()
    }

    /// Labels or an error for pipelines that require supervision.
    pub fn require_labels(&self) -> Result<&[u8], DataError> {
        self.labels().ok_or(DataError::EmptyDataset)
    }

    /// Feature column by index as a raw slice — **resident-only escape
    /// hatch**; chunked columns yield [`DataError::ColumnNotResident`].
    /// Backend-agnostic code uses [`Dataset::read_column`].
    pub fn column(&self, index: usize) -> Result<&[f64], DataError> {
        let slot = self.slots.get(index).ok_or(DataError::ColumnOutOfRange {
            index,
            len: self.slots.len(),
        })?;
        slot.resident()
            .ok_or_else(|| DataError::ColumnNotResident(self.meta[index].name.clone()))
    }

    /// Feature column by name (resident-only, like [`Dataset::column`]).
    pub fn column_by_name(&self, name: &str) -> Result<&[f64], DataError> {
        let idx = self.feature_index(name)?;
        self.column(idx)
    }

    /// Column `index` as one slice, on either backend — the one
    /// backend-agnostic column read. A resident column is borrowed as is;
    /// a chunked column is gathered into `scratch` through
    /// [`ChunkStore::gather_column`]. The caller owns `scratch` and can
    /// reuse it across columns, so a worker holds at most one column of
    /// scratch at a time. A chunk that cannot be read back (a lost spill
    /// segment) is the error.
    pub fn read_column<'a>(
        &'a self,
        index: usize,
        scratch: &'a mut Vec<f64>,
    ) -> Result<&'a [f64], DataError> {
        match self.slots.get(index) {
            Some(ColumnSlot::Resident(v)) => Ok(v),
            Some(ColumnSlot::Chunked { store, col }) => {
                store.gather_column(*col, scratch)?;
                Ok(scratch)
            }
            None => Err(DataError::ColumnOutOfRange { index, len: self.slots.len() }),
        }
    }

    /// Index of the named feature.
    pub fn feature_index(&self, name: &str) -> Result<usize, DataError> {
        self.meta
            .iter()
            .position(|m| m.name == name)
            .ok_or_else(|| DataError::UnknownFeature(name.to_string()))
    }

    fn expect_resident<'a>(&self, slot: &'a ColumnSlot) -> &'a [f64] {
        match slot.resident() {
            Some(s) => s,
            None => panic!(
                "raw-slice access on a chunked/spilled column; \
                 use read_column()/for_each_row_chunk() on out-of-core datasets"
            ),
        }
    }

    /// All column slices, in order — **resident-only escape hatch** for
    /// models, baselines, and tests that never see out-of-core data.
    ///
    /// # Panics
    ///
    /// Panics when a column is chunked/spilled; backend-agnostic code uses
    /// [`Dataset::read_column`].
    pub fn columns(&self) -> impl Iterator<Item = &[f64]> {
        self.slots.iter().map(|s| self.expect_resident(s))
    }

    /// True when at least one column resolves through a spill-backed chunk
    /// store (i.e. raw-slice access would fail).
    pub fn has_chunked_columns(&self) -> bool {
        self.slots
            .iter()
            .any(|s| matches!(s, ColumnSlot::Chunked { .. }))
    }

    /// The distinct chunk stores backing this dataset's columns (usually
    /// zero or one), for cache-stats reporting.
    pub fn chunk_stores(&self) -> Vec<&Arc<ChunkStore>> {
        let mut out: Vec<&Arc<ChunkStore>> = Vec::new();
        for slot in &self.slots {
            if let ColumnSlot::Chunked { store, .. } = slot {
                if !out.iter().any(|s| Arc::ptr_eq(s, store)) {
                    out.push(store);
                }
            }
        }
        out
    }

    /// Visit the table in row ranges: `f(range, cols)` receives, for every
    /// column in order, the slice of its values covering `range`. On a
    /// fully resident dataset this is a single call covering all rows (the
    /// zero-cost path); with chunked columns the ranges follow the chunk
    /// grid (boundary union across stores), each chunk decoded once per
    /// visit. Ranges ascend, so per-row streaming consumers (GBM margin
    /// updates, CSV writing, audits) see rows in exactly resident order.
    pub fn for_each_row_chunk(
        &self,
        f: &mut dyn FnMut(Range<usize>, &[&[f64]]),
    ) -> Result<(), DataError> {
        if self.n_rows == 0 {
            return Ok(());
        }
        let stores = self.chunk_stores();
        if stores.is_empty() {
            let cols: Vec<&[f64]> = self.slots.iter().map(|s| self.expect_resident(s)).collect();
            f(0..self.n_rows, &cols);
            return Ok(());
        }
        let stores: Vec<Arc<ChunkStore>> = stores.into_iter().map(Arc::clone).collect();
        let mut start = 0usize;
        while start < self.n_rows {
            // Segment end: nearest chunk boundary of any backing store, so
            // each segment lies within one chunk per store.
            let mut end = self.n_rows;
            for store in &stores {
                let rows = store.chunk_rows();
                let boundary = (start / rows + 1) * rows;
                end = end.min(boundary);
            }
            // Hold each store's covering chunk alive for the callback.
            let mut bufs = Vec::with_capacity(stores.len());
            for store in &stores {
                bufs.push((Arc::as_ptr(store), store.chunk(start / store.chunk_rows())?));
            }
            let mut cols: Vec<&[f64]> = Vec::with_capacity(self.slots.len());
            for slot in &self.slots {
                match slot {
                    ColumnSlot::Resident(v) => cols.push(&v[start..end]),
                    ColumnSlot::Chunked { store, col } => {
                        let ptr = Arc::as_ptr(store);
                        let (_, buf) = bufs
                            .iter()
                            .find(|(p, _)| *p == ptr)
                            .ok_or(DataError::EmptyDataset)?;
                        let chunk_start = (start / store.chunk_rows()) * store.chunk_rows();
                        cols.push(&buf.col(*col)[start - chunk_start..end - chunk_start]);
                    }
                }
            }
            f(start..end, &cols);
            start = end;
        }
        Ok(())
    }

    /// Metadata for every feature, in column order.
    pub fn meta(&self) -> &[FeatureMeta] {
        &self.meta
    }

    /// Feature names, in column order.
    pub fn feature_names(&self) -> Vec<&str> {
        self.meta.iter().map(|m| m.name.as_str()).collect()
    }

    /// Materialize one record as a dense row vector (used by row-oriented
    /// learners like kNN and by real-time inference). Resident-only, like
    /// [`Dataset::columns`].
    pub fn row(&self, index: usize) -> Vec<f64> {
        self.slots
            .iter()
            .map(|s| self.expect_resident(s)[index])
            .collect()
    }

    /// Copy out a row-major matrix. Row-oriented models (kNN, MLP batching)
    /// convert once up front instead of striding the columnar store.
    /// Resident-only, like [`Dataset::columns`].
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.n_rows).map(|i| self.row(i)).collect()
    }

    /// Dataset restricted to the given column indices (provenance
    /// preserved). Storage is shared, not copied — chunked columns stay
    /// chunked, so selection never defeats the out-of-core backend.
    pub fn select_columns(&self, indices: &[usize]) -> Result<Dataset, DataError> {
        let mut out = Dataset::with_rows(self.n_rows);
        for &i in indices {
            out.push_column_from(self, i)?;
        }
        out.labels = self.labels.clone();
        Ok(out)
    }

    /// Dataset restricted to the given row indices. The result is always
    /// resident (row shuffles are a pre-chunking operation); resident-only
    /// on the input, like [`Dataset::columns`].
    pub fn select_rows(&self, indices: &[usize]) -> Dataset {
        let slots: Vec<ColumnSlot> = self
            .slots
            .iter()
            .map(|s| {
                let c = self.expect_resident(s);
                ColumnSlot::Resident(Arc::new(indices.iter().map(|&i| c[i]).collect()))
            })
            .collect();
        let labels = self
            .labels
            .as_ref()
            .map(|l| indices.iter().map(|&i| l[i]).collect());
        Dataset {
            n_rows: indices.len(),
            slots,
            meta: self.meta.clone(),
            labels,
        }
    }

    /// Count of generated (non-original) features.
    pub fn n_generated(&self) -> usize {
        self.meta.iter().filter(|m| m.origin.is_generated()).count()
    }

    /// Fraction of positive labels; `None` when unlabeled or empty.
    pub fn positive_rate(&self) -> Option<f64> {
        let labels = self.labels.as_ref()?;
        if labels.is_empty() {
            return None;
        }
        let pos = labels.iter().filter(|&&l| l == 1).count();
        Some(pos as f64 / labels.len() as f64)
    }
}

/// Logical equality over values, metadata, and labels — independent of
/// backend (a chunked dataset equals its resident twin). Preserves `f64`
/// comparison semantics (`NaN != NaN`), matching the previously derived
/// impl. Chunked columns are gathered for comparison, so this is for
/// tests, not hot paths; an I/O failure during the gather compares
/// unequal.
impl PartialEq for Dataset {
    fn eq(&self, other: &Dataset) -> bool {
        if self.n_rows != other.n_rows
            || self.meta != other.meta
            || self.labels != other.labels
        {
            return false;
        }
        let (mut a_buf, mut b_buf) = (Vec::new(), Vec::new());
        (0..self.slots.len()).all(|i| {
            match (self.read_column(i, &mut a_buf), other.read_column(i, &mut b_buf)) {
                (Ok(a), Ok(b)) => a == b,
                _ => false,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::from_columns(
            vec!["a".into(), "b".into()],
            vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]],
            Some(vec![0, 1, 1]),
        )
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let ds = small();
        assert_eq!(ds.n_rows(), 3);
        assert_eq!(ds.n_cols(), 2);
        assert_eq!(ds.column(0).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(ds.column_by_name("b").unwrap(), &[4.0, 5.0, 6.0]);
        assert_eq!(ds.labels().unwrap(), &[0, 1, 1]);
    }

    #[test]
    fn rejects_mismatched_column() {
        let mut ds = small();
        let err = ds
            .push_column(FeatureMeta::original("c"), vec![1.0])
            .unwrap_err();
        assert!(matches!(err, DataError::ColumnLengthMismatch { .. }));
    }

    #[test]
    fn rejects_duplicate_name() {
        let mut ds = small();
        let err = ds
            .push_column(FeatureMeta::original("a"), vec![0.0; 3])
            .unwrap_err();
        assert_eq!(err, DataError::DuplicateFeature("a".into()));
    }

    /// Satellite pin: every construction entry point reports shape and
    /// duplicate-name violations with the same errors, because they all
    /// route through the one sealed constructor.
    #[test]
    fn construction_entry_points_share_error_parity() {
        // Duplicate name: push_column vs from_columns.
        let dup_push = {
            let mut ds = small();
            ds.push_column(FeatureMeta::original("a"), vec![0.0; 3]).unwrap_err()
        };
        let dup_from = Dataset::from_columns(
            vec!["a".into(), "a".into()],
            vec![vec![1.0], vec![2.0]],
            None,
        )
        .unwrap_err();
        assert_eq!(dup_push, DataError::DuplicateFeature("a".into()));
        assert_eq!(dup_from, DataError::DuplicateFeature("a".into()));

        // Length mismatch: push_column vs from_columns vs push_column_from.
        let len_push = {
            let mut ds = small();
            ds.push_column(FeatureMeta::original("c"), vec![1.0]).unwrap_err()
        };
        let len_from = Dataset::from_columns(
            vec!["a".into(), "b".into()],
            vec![vec![1.0, 2.0], vec![3.0]],
            None,
        )
        .unwrap_err();
        let len_shared = {
            let src = small();
            let mut dst = Dataset::with_rows(7);
            dst.push_column_from(&src, 0).unwrap_err()
        };
        assert_eq!(
            len_push,
            DataError::ColumnLengthMismatch { name: "c".into(), expected: 3, actual: 1 }
        );
        assert_eq!(
            len_from,
            DataError::ColumnLengthMismatch { name: "b".into(), expected: 2, actual: 1 }
        );
        assert_eq!(
            len_shared,
            DataError::ColumnLengthMismatch { name: "a".into(), expected: 7, actual: 3 }
        );
    }

    #[test]
    fn from_rows_reports_row_shape_mismatch() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        let err = Dataset::from_rows(vec!["x".into(), "y".into()], &rows, None).unwrap_err();
        assert_eq!(err, DataError::RowShapeMismatch { row: 1, expected: 2, actual: 1 });
        assert!(
            !matches!(err, DataError::Csv { .. }),
            "plain shape errors must not masquerade as CSV parse errors"
        );
    }

    #[test]
    fn rejects_bad_labels() {
        let mut ds = small();
        assert!(matches!(
            ds.set_labels(vec![0, 1]).unwrap_err(),
            DataError::LabelLengthMismatch { .. }
        ));
        assert!(matches!(
            ds.set_labels(vec![0, 1, 2]).unwrap_err(),
            DataError::InvalidLabel { row: 2, .. }
        ));
    }

    #[test]
    fn row_access_matches_columns() {
        let ds = small();
        assert_eq!(ds.row(1), vec![2.0, 5.0]);
        assert_eq!(ds.to_rows(), vec![vec![1.0, 4.0], vec![2.0, 5.0], vec![3.0, 6.0]]);
    }

    #[test]
    fn select_columns_preserves_meta_and_labels() {
        let ds = small();
        let sub = ds.select_columns(&[1]).unwrap();
        assert_eq!(sub.n_cols(), 1);
        assert_eq!(sub.feature_names(), vec!["b"]);
        assert_eq!(sub.labels().unwrap(), &[0, 1, 1]);
    }

    #[test]
    fn select_rows_subsets_everything() {
        let ds = small();
        let sub = ds.select_rows(&[2, 0]);
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(sub.column(0).unwrap(), &[3.0, 1.0]);
        assert_eq!(sub.labels().unwrap(), &[1, 0]);
    }

    #[test]
    fn positive_rate() {
        let ds = small();
        assert!((ds.positive_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        let unlabeled = Dataset::with_rows(5);
        assert_eq!(unlabeled.positive_rate(), None);
    }

    #[test]
    fn from_rows_round_trip() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let ds = Dataset::from_rows(vec!["x".into(), "y".into()], &rows, None).unwrap();
        assert_eq!(ds.to_rows(), rows);
    }

    #[test]
    fn generated_origin_flags() {
        let m = FeatureMeta::generated("div(a,b)", "div", vec!["a".into(), "b".into()]);
        assert!(m.origin.is_generated());
        assert!(!FeatureMeta::original("a").origin.is_generated());
    }

    #[test]
    fn chunked_twin_compares_equal_and_views_match() {
        let ds = small();
        let chunked = ds.to_chunked(ChunkOptions::in_memory(2)).unwrap();
        assert!(chunked.has_chunked_columns());
        assert_eq!(chunked.chunk_stores().len(), 1);
        assert_eq!(chunked, ds, "chunked twin must be logically equal");
        assert!(matches!(
            chunked.column(0).unwrap_err(),
            DataError::ColumnNotResident(_)
        ));
        let mut buf = Vec::new();
        assert_eq!(chunked.read_column(1, &mut buf).unwrap(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn resident_read_copies_nothing() {
        let ds = small();
        let mut scratch = Vec::new();
        let col = ds.read_column(1, &mut scratch).unwrap();
        assert_eq!(col.as_ptr(), ds.column(1).unwrap().as_ptr(), "resident read must borrow");
        assert!(scratch.is_empty());
    }

    #[test]
    fn chunked_read_returns_values_in_row_order() {
        let values: Vec<f64> = (0..17).map(|i| i as f64).collect();
        let ds = Dataset::from_columns(vec!["x".into()], vec![values.clone()], None)
            .unwrap()
            .to_chunked(ChunkOptions::in_memory(5))
            .unwrap();
        let mut scratch = Vec::new();
        assert_eq!(ds.read_column(0, &mut scratch).unwrap(), &values[..]);
        assert!(matches!(
            ds.read_column(1, &mut scratch).unwrap_err(),
            DataError::ColumnOutOfRange { index: 1, len: 1 }
        ));
    }

    #[test]
    fn select_columns_shares_chunked_storage() {
        let ds = small().to_chunked(ChunkOptions::in_memory(2)).unwrap();
        let sub = ds.select_columns(&[1]).unwrap();
        assert!(sub.has_chunked_columns(), "selection must not materialize");
        assert!(Arc::ptr_eq(sub.chunk_stores()[0], ds.chunk_stores()[0]));
    }

    #[test]
    fn row_chunk_iteration_covers_table_in_order() {
        let ds = small();
        let mixed = {
            // Chunked base columns plus one resident pushed column.
            let mut m = ds.to_chunked(ChunkOptions::in_memory(2)).unwrap();
            m.push_column(FeatureMeta::original("r"), vec![7.0, 8.0, 9.0]).unwrap();
            m
        };
        let mut seen: Vec<Vec<f64>> = vec![Vec::new(); 3];
        let mut bounds = Vec::new();
        mixed
            .for_each_row_chunk(&mut |range, cols| {
                bounds.push(range.clone());
                for (c, col) in cols.iter().enumerate() {
                    seen[c].extend_from_slice(col);
                }
            })
            .unwrap();
        assert_eq!(bounds, vec![0..2, 2..3], "ranges follow the chunk grid");
        assert_eq!(seen[0], &[1.0, 2.0, 3.0]);
        assert_eq!(seen[1], &[4.0, 5.0, 6.0]);
        assert_eq!(seen[2], &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn resident_row_chunk_iteration_is_single_full_range() {
        let ds = small();
        let mut calls = 0;
        ds.for_each_row_chunk(&mut |range, cols| {
            calls += 1;
            assert_eq!(range, 0..3);
            assert_eq!(cols.len(), 2);
        })
        .unwrap();
        assert_eq!(calls, 1);
    }
}
