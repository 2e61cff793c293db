//! Feature quantization for histogram split finding.
//!
//! Each feature column is mapped once, up front, to small integer bin
//! indices (`u16`) via equal-frequency quantile cuts — the "block" structure
//! the XGBoost paper describes, which both bounds split-search cost per node
//! and gives cache-friendly access. With `max_bins` at least the number of
//! distinct values, the quantization is lossless and split finding is exact
//! greedy.
//!
//! # The cross-iteration bin cache
//!
//! SAFE retrains a GBM every iteration on a matrix that is mostly *unchanged*:
//! survivors of the previous selection keep their exact values (selection
//! copies columns, it never rewrites them), and only the freshly generated
//! candidates X̃ are new. [`BinnedDataset::fit_cached`] therefore bins
//! through a [`BinCache`] that keys finished `(mapper, bin column)` pairs
//! by **column provenance** (the column name: generated names encode
//! operator + parents, names are unique within a dataset, and a name's
//! values are immutable within a run). A cache hit hands back shared
//! [`Arc`]s, so re-binning a surviving column costs a map lookup instead of
//! an `O(n_rows)` quantile fit — and is *bit-identical* to refitting,
//! because quantization is a deterministic function of the (unchanged)
//! values.
//!
//! The cache is guarded by row count: entries are keyed by `(name,
//! max_bins)` and the whole cache self-invalidates when a fit arrives with a
//! different `n_rows` (a different dataset, not a different iteration).
//! Fields of [`BinnedDataset`] are module-private so these invariants cannot
//! be bypassed.

use std::collections::HashMap;
use std::sync::Arc;

use safe_data::binning::{BinEdges, BinStrategy};
use safe_data::dataset::Dataset;
use safe_data::DataError;
use safe_stats::par::{par_map, Parallelism};


/// Per-feature mapping between raw values and bin indices.
#[derive(Debug, Clone)]
pub struct BinMapper {
    /// Interior cut points; bin `b` covers `(cuts[b-1], cuts[b]]`.
    edges: BinEdges,
    /// Number of bins for finite values.
    n_value_bins: usize,
}

impl BinMapper {
    /// Fit equal-frequency cuts on a raw column.
    pub fn fit(values: &[f64], max_bins: usize) -> BinMapper {
        // Reserve one index for the missing bin: quantize finite values into
        // at most max_bins - 1 bins. The bin count is clamped to >= 1, so the
        // only possible fit error (zero bins) is unreachable; fall back to a
        // single unsplittable bin rather than panic.
        let edges = BinEdges::fit(values, max_bins.saturating_sub(1).max(1), BinStrategy::EqualFrequency)
            .unwrap_or_else(|_| BinEdges::from_cuts(Vec::new()));
        let n_value_bins = edges.n_value_bins();
        BinMapper { edges, n_value_bins }
    }

    /// Number of bins for finite values; the missing bin is always
    /// `n_value_bins()` (reserved even when the training column had no
    /// missing values, so inference-time NaNs have somewhere to go).
    pub fn n_value_bins(&self) -> usize {
        self.n_value_bins
    }

    /// Total bins including the trailing missing bin.
    pub fn n_bins(&self) -> usize {
        self.n_value_bins + 1
    }

    /// Bin index of the missing value.
    pub fn missing_bin(&self) -> u16 {
        self.n_value_bins as u16
    }

    /// Quantize one value.
    pub fn bin(&self, v: f64) -> u16 {
        if v.is_finite() {
            self.edges.bin_of(v) as u16
        } else {
            self.missing_bin()
        }
    }

    /// Raw-value threshold of a split at bin `b` ("go left iff value ≤
    /// threshold"). Only bins `0..n_value_bins-1` are valid split points.
    pub fn threshold(&self, b: u16) -> f64 {
        self.edges.cuts()[b as usize]
    }

    /// Number of usable split positions.
    pub fn n_split_candidates(&self) -> usize {
        self.edges.cuts().len()
    }
}

/// One finished column of a [`BinnedDataset`]: the fitted mapper plus the
/// quantized `u16` column, shareable between the cache and any number of
/// binned datasets.
#[derive(Debug, Clone)]
struct BinnedColumn {
    mapper: Arc<BinMapper>,
    bins: Arc<Vec<u16>>,
}

fn quantize(values: &[f64], max_bins: usize) -> BinnedColumn {
    let mapper = BinMapper::fit(values, max_bins);
    let bins = values.iter().map(|&v| mapper.bin(v)).collect();
    BinnedColumn { mapper: Arc::new(mapper), bins: Arc::new(bins) }
}

/// Cross-iteration cache of quantized columns, keyed by column provenance.
///
/// The key is `(column name, max_bins)`. Within one SAFE run a column name
/// is a stable identity: generated names encode the operator and parent
/// names, [`Dataset`] rejects duplicate names, and selection copies column
/// values verbatim — so equal name ⇒ equal values ⇒ the cached quantization
/// is exactly what a fresh fit would produce. The cache self-invalidates
/// (drops every entry) when asked to bin a dataset with a different row
/// count, which is the one observable way "same name, different column" can
/// happen across runs.
#[derive(Debug, Default)]
pub struct BinCache {
    entries: HashMap<(String, usize), BinnedColumn>,
    n_rows: Option<usize>,
    hits: u64,
    misses: u64,
}

impl BinCache {
    /// An empty cache.
    pub fn new() -> BinCache {
        BinCache::default()
    }

    /// Cumulative cache hits (columns reused instead of re-binned).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative cache misses (columns quantized fresh).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of cached columns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no columns.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry (counters are kept — they describe the run, not the
    /// current contents).
    fn invalidate(&mut self) {
        self.entries.clear();
        self.n_rows = None;
    }

    /// Guard an incoming fit: a row-count change means a different dataset,
    /// so every cached column is stale.
    fn guard_rows(&mut self, n_rows: usize) {
        if self.n_rows != Some(n_rows) {
            if self.n_rows.is_some() {
                self.invalidate();
            }
            self.n_rows = Some(n_rows);
        }
    }
}

/// A dataset quantized for training: column-major `u16` bin indices plus the
/// per-feature mappers. Construct with [`BinnedDataset::fit`], or
/// [`BinnedDataset::fit_cached`] through a [`BinCache`]; fields are private
/// so the cache-sharing and shape invariants hold by construction.
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    columns: Vec<BinnedColumn>,
    n_rows: usize,
    max_bins: usize,
}

impl BinnedDataset {
    /// Quantize every feature of a dataset. Mapper fitting and column
    /// quantization run on up to `par.resolve()` threads (the caller plus
    /// `safe_stats::par` pool workers); per-feature results are merged in
    /// column order, so the matrix is identical for any thread count.
    /// Fails only when a chunked column cannot be read back.
    pub fn fit(
        ds: &Dataset,
        max_bins: usize,
        par: Parallelism,
    ) -> Result<BinnedDataset, DataError> {
        let mut out = BinnedDataset {
            columns: Vec::new(),
            n_rows: ds.n_rows(),
            max_bins,
        };
        out.extend_columns(ds, par, None)?;
        Ok(out)
    }

    /// [`BinnedDataset::fit`] through a cross-iteration cache: columns whose
    /// `(name, max_bins)` key is cached are shared (no work); the rest are
    /// quantized fresh (in parallel) and inserted. Bit-identical to an
    /// uncached [`BinnedDataset::fit`] of the same dataset.
    pub fn fit_cached(
        ds: &Dataset,
        max_bins: usize,
        par: Parallelism,
        cache: &mut BinCache,
    ) -> Result<BinnedDataset, DataError> {
        cache.guard_rows(ds.n_rows());
        let mut out = BinnedDataset {
            columns: Vec::new(),
            n_rows: ds.n_rows(),
            max_bins,
        };
        out.extend_columns(ds, par, Some(cache))?;
        Ok(out)
    }

    /// Shared tail of `fit`/`fit_cached`: quantize (or look up) each column
    /// of `ds` and append in column order. A column that cannot be read
    /// back (a lost spill file) is the error; the cache keeps only
    /// finished columns.
    fn extend_columns(
        &mut self,
        ds: &Dataset,
        par: Parallelism,
        cache: Option<&mut BinCache>,
    ) -> Result<(), DataError> {
        // Quantization sorts a copy of the column, so each worker reads its
        // column whole: borrowed when resident, a per-worker scratch gather
        // when chunked/spilled — at most one f64 column per thread is
        // resident at a time.
        let quantize_col = |f: usize| -> Result<BinnedColumn, DataError> {
            let mut scratch = Vec::new();
            Ok(quantize(ds.read_column(f, &mut scratch)?, self.max_bins))
        };
        match cache {
            None => {
                for col in par_map(par, ds.n_cols(), quantize_col) {
                    self.columns.push(col?);
                }
            }
            Some(cache) => {
                let names = ds.feature_names();
                // Resolve hits serially (map lookups), quantize the misses in
                // parallel, then merge back in column order.
                let mut resolved: Vec<Option<BinnedColumn>> = Vec::with_capacity(ds.n_cols());
                let mut miss_idx: Vec<usize> = Vec::new();
                for (f, name) in names.iter().enumerate() {
                    match cache.entries.get(&(name.to_string(), self.max_bins)) {
                        Some(hit) => {
                            cache.hits += 1;
                            resolved.push(Some(hit.clone()));
                        }
                        None => {
                            miss_idx.push(f);
                            resolved.push(None);
                        }
                    }
                }
                let fitted = par_map(par, miss_idx.len(), |i| quantize_col(miss_idx[i]));
                for (&f, col) in miss_idx.iter().zip(fitted) {
                    let col = col?;
                    cache.misses += 1;
                    cache
                        .entries
                        .insert((names[f].to_string(), self.max_bins), col.clone());
                    resolved[f] = Some(col);
                }
                for (f, col) in resolved.into_iter().enumerate() {
                    self.columns.push(match col {
                        Some(col) => col,
                        // Unreachable: every index is a hit or in miss_idx.
                        None => quantize_col(f)?,
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Quantization budget the columns were fitted with.
    pub fn max_bins(&self) -> usize {
        self.max_bins
    }

    /// The `u16` bin column of feature `f` (`bins(f)[row]` = bin index).
    pub fn bins(&self, f: usize) -> &[u16] {
        &self.columns[f].bins
    }

    /// The fitted mapper of feature `f`.
    pub fn mapper(&self, f: usize) -> &BinMapper {
        &self.columns[f].mapper
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safe_data::dataset::Dataset;

    #[test]
    fn lossless_when_bins_exceed_distinct_values() {
        let values = vec![3.0, 1.0, 2.0, 1.0, 3.0, 2.0];
        let m = BinMapper::fit(&values, 64);
        assert_eq!(m.n_value_bins(), 3);
        // Distinct values land in distinct bins, order preserved.
        assert!(m.bin(1.0) < m.bin(2.0));
        assert!(m.bin(2.0) < m.bin(3.0));
    }

    #[test]
    fn quantization_is_monotone() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 100.0).collect();
        let m = BinMapper::fit(&values, 16);
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in sorted.windows(2) {
            assert!(m.bin(w[0]) <= m.bin(w[1]));
        }
    }

    #[test]
    fn caps_bin_count() {
        let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let m = BinMapper::fit(&values, 32);
        assert!(m.n_value_bins() <= 31, "one index reserved for missing");
        assert!(m.n_value_bins() >= 16);
    }

    #[test]
    fn missing_goes_to_reserved_bin() {
        let values = vec![1.0, f64::NAN, 2.0];
        let m = BinMapper::fit(&values, 8);
        assert_eq!(m.bin(f64::NAN), m.missing_bin());
        assert!(m.bin(1.5) < m.missing_bin());
    }

    #[test]
    fn threshold_separates_bins() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let m = BinMapper::fit(&values, 10);
        for b in 0..m.n_split_candidates() as u16 {
            let t = m.threshold(b);
            // Everything binned <= b is <= t; everything binned > b is > t.
            for &v in &values {
                if m.bin(v) <= b {
                    assert!(v <= t, "v={v} bin={} t={t}", m.bin(v));
                } else {
                    assert!(v > t, "v={v} bin={} t={t}", m.bin(v));
                }
            }
        }
    }

    fn two_col_dataset() -> Dataset {
        Dataset::from_columns(
            vec!["a".into(), "b".into()],
            vec![vec![1.0, 2.0, 3.0], vec![9.0, 8.0, 7.0]],
            None,
        )
        .unwrap()
    }

    #[test]
    fn binned_dataset_shape() {
        let bm = BinnedDataset::fit(&two_col_dataset(), 16, Parallelism::auto()).unwrap();
        assert_eq!(bm.n_features(), 2);
        assert_eq!(bm.n_rows(), 3);
        assert_eq!(bm.bins(0).len(), 3);
        assert_eq!(bm.max_bins(), 16);
    }

    #[test]
    fn constant_column_has_no_split_candidates() {
        let m = BinMapper::fit(&[5.0; 20], 8);
        assert_eq!(m.n_split_candidates(), 0);
        assert_eq!(m.n_value_bins(), 1);
    }

    fn assert_binned_eq(a: &BinnedDataset, b: &BinnedDataset) {
        assert_eq!(a.n_features(), b.n_features());
        assert_eq!(a.n_rows(), b.n_rows());
        for f in 0..a.n_features() {
            assert_eq!(a.bins(f), b.bins(f), "bin column {f} differs");
            assert_eq!(
                a.mapper(f).n_value_bins(),
                b.mapper(f).n_value_bins(),
                "mapper {f} differs"
            );
            for s in 0..a.mapper(f).n_split_candidates() as u16 {
                assert_eq!(
                    a.mapper(f).threshold(s).to_bits(),
                    b.mapper(f).threshold(s).to_bits(),
                    "threshold {s} of feature {f} differs"
                );
            }
        }
    }

    #[test]
    fn cache_hits_are_bit_identical_to_cold_fits() {
        let ds = two_col_dataset();
        let mut cache = BinCache::new();
        let first = BinnedDataset::fit_cached(&ds, 16, Parallelism::auto(), &mut cache).unwrap();
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
        let second = BinnedDataset::fit_cached(&ds, 16, Parallelism::auto(), &mut cache).unwrap();
        assert_eq!(cache.hits(), 2, "second fit must be all hits");
        let cold = BinnedDataset::fit(&ds, 16, Parallelism::auto()).unwrap();
        assert_binned_eq(&first, &cold);
        assert_binned_eq(&second, &cold);
    }

    #[test]
    fn cache_keys_by_max_bins() {
        let ds = two_col_dataset();
        let mut cache = BinCache::new();
        let _ = BinnedDataset::fit_cached(&ds, 16, Parallelism::auto(), &mut cache).unwrap();
        let _ = BinnedDataset::fit_cached(&ds, 8, Parallelism::auto(), &mut cache).unwrap();
        assert_eq!(cache.hits(), 0, "different max_bins must not hit");
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn cache_invalidates_on_row_count_change() {
        let ds = two_col_dataset();
        let mut cache = BinCache::new();
        let _ = BinnedDataset::fit_cached(&ds, 16, Parallelism::auto(), &mut cache).unwrap();
        assert_eq!(cache.len(), 2);
        let other = Dataset::from_columns(
            vec!["a".into(), "b".into()],
            vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            None,
        )
        .unwrap();
        let _ = BinnedDataset::fit_cached(&other, 16, Parallelism::auto(), &mut cache).unwrap();
        assert_eq!(cache.len(), 2, "stale 3-row entries dropped, 2-row entries in");
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 4);
    }

    #[test]
    fn cached_subset_selection_reuses_columns() {
        // Selection drops/reorders columns but keeps values: binning the
        // subset through the cache must be pure hits.
        let ds = Dataset::from_columns(
            vec!["a".into(), "b".into(), "c".into()],
            vec![vec![1.0, 2.0, 3.0], vec![9.0, 8.0, 7.0], vec![4.0, 5.0, 6.0]],
            None,
        )
        .unwrap();
        let mut cache = BinCache::new();
        let _ = BinnedDataset::fit_cached(&ds, 16, Parallelism::auto(), &mut cache).unwrap();
        let subset = ds.select_columns(&[2, 0]).unwrap();
        let binned =
            BinnedDataset::fit_cached(&subset, 16, Parallelism::auto(), &mut cache).unwrap();
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 3);
        let cold = BinnedDataset::fit(&subset, 16, Parallelism::auto()).unwrap();
        assert_binned_eq(&binned, &cold);
    }
}
