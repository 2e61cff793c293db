//! Out-of-core chunk store: fixed-size row chunks with file-backed spill.
//!
//! The industrial tables SAFE targets do not fit in one worker's RAM; this
//! module is the storage substrate that lets a [`crate::dataset::Dataset`]
//! hold its base columns out of core. A [`ChunkStore`] slices the row range
//! into fixed-size chunks (`chunk_rows` rows each, the last chunk ragged),
//! stores each chunk column-major in its own spill file, and keeps at most
//! `resident_chunks` of them decoded in an LRU cache. Readers never see the
//! chunking directly — they go through
//! [`crate::dataset::Dataset::read_column`], which gathers a chunked column
//! with [`ChunkStore::gather_column`] — but the determinism story starts
//! here:
//!
//! - **Chunk boundaries are a pure function of `(n_rows, chunk_rows)`**;
//!   neither cache state nor thread scheduling moves them.
//! - **Chunks are immutable once written.** The builder spills each chunk
//!   exactly once at ingest; reads decode the same bytes forever after, so
//!   a cache hit and a cache miss produce identical slices.
//! - **Iteration is fixed-order.** `gather_column` walks chunks in
//!   ascending index order, so a gathered column holds every element in
//!   exactly resident row order — f64 reductions over it are never
//!   reassociated by chunking.
//!
//! Spill format: one file per chunk (`chunk_NNNNNN.bin`) of raw
//! little-endian f64s, column-major within the chunk (`n_cols * rows`
//! values). The store creates a uniquely named subdirectory under the
//! caller's spill directory and removes it — files and all — on drop, so
//! a fit never leaks spill segments (`scripts/check_oocore.sh` gates this).

use std::fs;
use std::io::{Read, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::error::DataError;

/// Process-wide counter making concurrent stores' spill subdirectories
/// unique without reaching for a randomness source.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Tuning knobs for a [`ChunkStore`]; carried by the CLI flags
/// `--chunk-rows`, `--resident-chunks`, and `--spill-dir`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkOptions {
    /// Rows per chunk (the last chunk may be shorter). Must be >= 1.
    pub chunk_rows: usize,
    /// Maximum decoded chunks held resident at once. Must be >= 1.
    /// Ignored when `spill_dir` is `None` (everything stays resident).
    pub resident_chunks: usize,
    /// Directory to spill chunk files under. `None` keeps all chunks in
    /// memory (useful for differential tests that only exercise the
    /// chunked *iteration* order, not the I/O path).
    pub spill_dir: Option<PathBuf>,
}

impl ChunkOptions {
    /// In-memory chunking: fixed boundaries, no spill files.
    pub fn in_memory(chunk_rows: usize) -> Self {
        ChunkOptions { chunk_rows, resident_chunks: usize::MAX, spill_dir: None }
    }

    /// Spill-backed chunking with an LRU budget of `resident_chunks`.
    pub fn spilled(chunk_rows: usize, resident_chunks: usize, dir: impl Into<PathBuf>) -> Self {
        ChunkOptions { chunk_rows, resident_chunks, spill_dir: Some(dir.into()) }
    }

    fn validate(&self) -> Result<(), DataError> {
        if self.chunk_rows == 0 {
            return Err(DataError::Io("chunk_rows must be at least 1".into()));
        }
        if self.resident_chunks == 0 {
            return Err(DataError::Io("resident_chunks must be at least 1".into()));
        }
        Ok(())
    }
}

/// One decoded chunk: `rows` rows of every column, column-major.
#[derive(Debug)]
pub struct ChunkBuf {
    rows: usize,
    data: Vec<f64>,
}

impl ChunkBuf {
    /// Rows in this chunk.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// One column's values within this chunk.
    pub fn col(&self, c: usize) -> &[f64] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    fn bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f64>()) as u64
    }
}

/// Cache/I-O counters for one store. All monotonic; read with
/// [`ChunkStore::stats`].
#[derive(Debug, Default)]
struct StoreCounters {
    hits: AtomicU64,
    loads: AtomicU64,
    evictions: AtomicU64,
    resident_bytes: AtomicU64,
    peak_resident_bytes: AtomicU64,
}

/// Snapshot of a store's cache behaviour, reported by the CLI after a
/// chunked fit and recorded in the `oocore` bench section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkStats {
    /// Chunk requests served from the resident cache.
    pub hits: u64,
    /// Chunk requests that decoded a spill file (cache misses).
    pub loads: u64,
    /// Chunks dropped to stay within the resident budget.
    pub evictions: u64,
    /// Decoded chunk bytes resident right now.
    pub resident_bytes: u64,
    /// High-water mark of decoded chunk bytes.
    pub peak_resident_bytes: u64,
}

/// LRU of decoded chunks: most recently used at the back.
#[derive(Debug, Default)]
struct Lru {
    entries: Vec<(usize, Arc<ChunkBuf>)>,
}

/// The spill directory owned by one store; removed with its files on drop.
#[derive(Debug)]
struct SpillDir {
    dir: PathBuf,
    n_chunks: usize,
}

impl SpillDir {
    fn chunk_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("chunk_{idx:06}.bin"))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        for idx in 0..self.n_chunks {
            let _ = fs::remove_file(self.chunk_path(idx));
        }
        let _ = fs::remove_dir(&self.dir);
    }
}

/// Fixed-size row chunks of an immutable column-major table, at most a
/// budgeted number of them decoded at once. See the module docs for the
/// determinism contract.
#[derive(Debug)]
pub struct ChunkStore {
    n_rows: usize,
    n_cols: usize,
    chunk_rows: usize,
    resident_chunks: usize,
    spill: Option<SpillDir>,
    cache: Mutex<Lru>,
    counters: StoreCounters,
}

impl ChunkStore {
    /// Total rows across all chunks.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Columns per chunk.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Rows per full chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Number of chunks (`ceil(n_rows / chunk_rows)`).
    pub fn n_chunks(&self) -> usize {
        self.n_rows.div_ceil(self.chunk_rows)
    }

    /// True when chunks live in spill files rather than memory.
    pub fn is_spilled(&self) -> bool {
        self.spill.is_some()
    }

    /// Resident-budget in bytes: the most decoded chunk data the LRU will
    /// hold (`resident_chunks` full chunks). `None` when unspilled.
    pub fn budget_bytes(&self) -> Option<u64> {
        self.spill.as_ref().map(|_| {
            (self.resident_chunks * self.n_cols * self.chunk_rows * std::mem::size_of::<f64>())
                as u64
        })
    }

    /// Total logical size of the stored table in bytes.
    pub fn table_bytes(&self) -> u64 {
        (self.n_rows * self.n_cols * std::mem::size_of::<f64>()) as u64
    }

    /// Global row range of chunk `idx`.
    pub fn chunk_range(&self, idx: usize) -> Range<usize> {
        let start = idx * self.chunk_rows;
        start..self.n_rows.min(start + self.chunk_rows)
    }

    /// Cache-behaviour snapshot.
    pub fn stats(&self) -> ChunkStats {
        ChunkStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            loads: self.counters.loads.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            resident_bytes: self.counters.resident_bytes.load(Ordering::Relaxed),
            peak_resident_bytes: self.counters.peak_resident_bytes.load(Ordering::Relaxed),
        }
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, Lru> {
        // A poisoned lock only means another reader panicked mid-touch;
        // the LRU list is still structurally sound (entries are moved,
        // never left half-written), so recover rather than propagate.
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetch chunk `idx`, decoding its spill file on a miss. The returned
    /// `Arc` keeps the chunk alive even if the LRU evicts it concurrently.
    pub fn chunk(&self, idx: usize) -> Result<Arc<ChunkBuf>, DataError> {
        if idx >= self.n_chunks() {
            return Err(DataError::ColumnOutOfRange { index: idx, len: self.n_chunks() });
        }
        {
            let mut cache = self.lock_cache();
            if let Some(pos) = cache.entries.iter().position(|(i, _)| *i == idx) {
                let entry = cache.entries.remove(pos);
                let buf = Arc::clone(&entry.1);
                cache.entries.push(entry);
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(buf);
            }
        }
        // Miss: decode outside the lock so concurrent readers of cached
        // chunks are never blocked on I/O.
        let buf = Arc::new(self.read_chunk(idx)?);
        self.counters.loads.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.lock_cache();
        if let Some(pos) = cache.entries.iter().position(|(i, _)| *i == idx) {
            // Another thread decoded the same chunk while we were reading;
            // keep the cached copy and drop ours.
            let entry = cache.entries.remove(pos);
            let hit = Arc::clone(&entry.1);
            cache.entries.push(entry);
            return Ok(hit);
        }
        self.note_resident(buf.bytes());
        cache.entries.push((idx, Arc::clone(&buf)));
        while cache.entries.len() > self.resident_chunks {
            let (_, evicted) = cache.entries.remove(0);
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            self.counters.resident_bytes.fetch_sub(evicted.bytes(), Ordering::Relaxed);
        }
        Ok(buf)
    }

    fn note_resident(&self, added: u64) {
        let now = self.counters.resident_bytes.fetch_add(added, Ordering::Relaxed) + added;
        self.counters.peak_resident_bytes.fetch_max(now, Ordering::Relaxed);
    }

    fn read_chunk(&self, idx: usize) -> Result<ChunkBuf, DataError> {
        let Some(spill) = &self.spill else {
            // Unspilled stores keep every chunk in the cache permanently;
            // reaching here means the cache was externally cleared.
            return Err(DataError::Io(format!("chunk {idx} missing from in-memory store")));
        };
        let rows = self.chunk_range(idx).len();
        let n_values = rows * self.n_cols;
        let mut bytes = vec![0u8; n_values * std::mem::size_of::<f64>()];
        let mut file = fs::File::open(spill.chunk_path(idx))?;
        file.read_exact(&mut bytes)?;
        let mut data = Vec::with_capacity(n_values);
        for v in bytes.chunks_exact(std::mem::size_of::<f64>()) {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(v);
            data.push(f64::from_le_bytes(raw));
        }
        Ok(ChunkBuf { rows, data })
    }

    /// Stream one column's values over `range` in ascending chunk order.
    fn for_each_col_chunk(
        &self,
        col: usize,
        range: Range<usize>,
        f: &mut dyn FnMut(&[f64]),
    ) -> Result<(), DataError> {
        if col >= self.n_cols {
            return Err(DataError::ColumnOutOfRange { index: col, len: self.n_cols });
        }
        let mut pos = range.start;
        while pos < range.end {
            let idx = pos / self.chunk_rows;
            let chunk = self.chunk(idx)?;
            let chunk_start = idx * self.chunk_rows;
            let lo = pos - chunk_start;
            let hi = (range.end - chunk_start).min(chunk.rows());
            f(&chunk.col(col)[lo..hi]);
            pos = chunk_start + hi;
        }
        Ok(())
    }

    /// Gather one full column into `buf` (cleared first).
    pub fn gather_column(&self, col: usize, buf: &mut Vec<f64>) -> Result<(), DataError> {
        buf.clear();
        buf.reserve(self.n_rows);
        self.for_each_col_chunk(col, 0..self.n_rows, &mut |c| buf.extend_from_slice(c))
    }
}

/// Streaming builder: rows in, spilled chunks out. Never holds more than
/// one chunk's worth of data — the CSV ingester pushes rows straight off
/// the reader, so the full table is never materialized.
#[derive(Debug)]
pub struct ChunkStoreBuilder {
    n_cols: usize,
    opts: ChunkOptions,
    spill: Option<SpillDir>,
    /// Row-major staging for the chunk being filled.
    pending: Vec<f64>,
    pending_rows: usize,
    finished: Vec<Arc<ChunkBuf>>,
    n_rows: usize,
}

impl ChunkStoreBuilder {
    /// Start building a store of `n_cols` columns under `opts`. Creates
    /// the spill subdirectory eagerly so ingest fails fast on a bad path.
    pub fn new(n_cols: usize, opts: ChunkOptions) -> Result<ChunkStoreBuilder, DataError> {
        opts.validate()?;
        let spill = match &opts.spill_dir {
            Some(base) => {
                let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
                let dir = base.join(format!("safe-spill-{}-{seq}", std::process::id()));
                fs::create_dir_all(&dir)?;
                Some(SpillDir { dir, n_chunks: 0 })
            }
            None => None,
        };
        Ok(ChunkStoreBuilder {
            n_cols,
            pending: Vec::with_capacity(n_cols * opts.chunk_rows),
            opts,
            spill,
            pending_rows: 0,
            finished: Vec::new(),
            n_rows: 0,
        })
    }

    /// Append one row (`values.len()` must equal `n_cols`).
    pub fn push_row(&mut self, values: &[f64]) -> Result<(), DataError> {
        if values.len() != self.n_cols {
            return Err(DataError::RowShapeMismatch {
                row: self.n_rows,
                expected: self.n_cols,
                actual: values.len(),
            });
        }
        self.pending.extend_from_slice(values);
        self.pending_rows += 1;
        self.n_rows += 1;
        if self.pending_rows == self.opts.chunk_rows {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), DataError> {
        if self.pending_rows == 0 {
            return Ok(());
        }
        let rows = self.pending_rows;
        // Transpose the row-major staging area to the chunk's column-major
        // layout.
        let mut data = vec![0.0f64; rows * self.n_cols];
        for r in 0..rows {
            for c in 0..self.n_cols {
                data[c * rows + r] = self.pending[r * self.n_cols + c];
            }
        }
        self.pending.clear();
        self.pending_rows = 0;
        let buf = ChunkBuf { rows, data };
        match &mut self.spill {
            Some(spill) => {
                let path = spill.chunk_path(spill.n_chunks);
                let mut bytes = Vec::with_capacity(buf.data.len() * 8);
                for v in &buf.data {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                let mut file = fs::File::create(&path)?;
                file.write_all(&bytes)?;
                spill.n_chunks += 1;
            }
            None => self.finished.push(Arc::new(buf)),
        }
        Ok(())
    }

    /// Seal the store: flush the ragged tail chunk and hand over ownership
    /// of the spill directory.
    pub fn finish(mut self) -> Result<ChunkStore, DataError> {
        self.flush_chunk()?;
        let resident_chunks = if self.spill.is_some() {
            self.opts.resident_chunks
        } else {
            // Unspilled: the cache IS the storage, so it must never evict.
            usize::MAX
        };
        let store = ChunkStore {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            chunk_rows: self.opts.chunk_rows,
            resident_chunks,
            spill: self.spill.take(),
            cache: Mutex::new(Lru {
                entries: self.finished.drain(..).enumerate().collect(),
            }),
            counters: StoreCounters::default(),
        };
        let resident: u64 = {
            let cache = store.lock_cache();
            cache.entries.iter().map(|(_, b)| b.bytes()).sum()
        };
        store.note_resident(resident);
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n_rows: usize, n_cols: usize, opts: ChunkOptions) -> ChunkStore {
        let mut b = ChunkStoreBuilder::new(n_cols, opts).unwrap();
        for r in 0..n_rows {
            let row: Vec<f64> = (0..n_cols).map(|c| (r * n_cols + c) as f64).collect();
            b.push_row(&row).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn in_memory_store_round_trips_columns() {
        let store = build(10, 3, ChunkOptions::in_memory(4));
        assert_eq!(store.n_chunks(), 3);
        let mut buf = Vec::new();
        store.gather_column(1, &mut buf).unwrap();
        let expect: Vec<f64> = (0..10).map(|r| (r * 3 + 1) as f64).collect();
        assert_eq!(buf, expect);
    }

    #[test]
    fn spilled_store_round_trips_and_evicts() {
        let dir = std::env::temp_dir().join("safe_chunk_test_spill");
        std::fs::create_dir_all(&dir).unwrap();
        let store = build(100, 2, ChunkOptions::spilled(8, 2, &dir));
        assert!(store.is_spilled());
        assert_eq!(store.n_chunks(), 13);
        let mut buf = Vec::new();
        store.gather_column(0, &mut buf).unwrap();
        let expect: Vec<f64> = (0..100).map(|r| (r * 2) as f64).collect();
        assert_eq!(buf, expect);
        let stats = store.stats();
        assert!(stats.loads >= 13, "every chunk must be decoded at least once");
        assert!(stats.evictions > 0, "budget of 2 chunks must evict");
        assert!(stats.peak_resident_bytes <= store.budget_bytes().unwrap() + 8 * 2 * 8);
    }

    #[test]
    fn spill_files_removed_on_drop() {
        let dir = std::env::temp_dir().join("safe_chunk_test_cleanup");
        std::fs::create_dir_all(&dir).unwrap();
        let subdirs_before = std::fs::read_dir(&dir).unwrap().count();
        let store = build(20, 1, ChunkOptions::spilled(4, 1, &dir));
        let mut buf = Vec::new();
        store.gather_column(0, &mut buf).unwrap();
        drop(store);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), subdirs_before);
    }

    #[test]
    fn chunk_iteration_respects_ranges() {
        let store = build(10, 1, ChunkOptions::in_memory(4));
        let mut got = Vec::new();
        store.for_each_col_chunk(0, 3..9, &mut |c| got.extend_from_slice(c)).unwrap();
        let expect: Vec<f64> = (3..9).map(|r| r as f64).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn ragged_rows_rejected() {
        let mut b = ChunkStoreBuilder::new(3, ChunkOptions::in_memory(4)).unwrap();
        b.push_row(&[1.0, 2.0, 3.0]).unwrap();
        let err = b.push_row(&[1.0]).unwrap_err();
        assert!(matches!(err, DataError::RowShapeMismatch { row: 1, expected: 3, actual: 1 }));
    }

    #[test]
    fn zero_options_rejected() {
        assert!(ChunkStoreBuilder::new(1, ChunkOptions::in_memory(0)).is_err());
        let bad = ChunkOptions { chunk_rows: 4, resident_chunks: 0, spill_dir: None };
        assert!(ChunkStoreBuilder::new(1, bad).is_err());
    }
}
