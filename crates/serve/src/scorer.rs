//! Deterministic high-throughput batch scoring over a [`SafeArtifact`].
//!
//! The scorer micro-batches incoming rows and fans the batches out over
//! `safe_stats::par` — the same fixed-order scoped-thread layer the
//! training pipeline uses — so scores are **bit-identical at any thread
//! count**: every row is computed independently (plan row path and booster
//! row path are both defined as the exact per-row map of their batch
//! counterparts) and batch results are concatenated in batch-index order.
//! Within a batch, the worker runs `CompiledPlan::apply_rows` into one
//! reused feature matrix and then a tree-outer `predict_rows_into` pass —
//! amortizing away both the per-row `Vec` allocations and the cache
//! thrashing of the naive `apply_row` + `predict_row` loop, which walks
//! the whole ensemble once per row.

use std::time::Instant;

use safe_core::plan::{CompiledPlan, PlanError};
use safe_data::dataset::Dataset;
use safe_gbm::GbmModel;
use safe_obs::{stages, SinkHandle};
use safe_ops::registry::OperatorRegistry;
use safe_stats::par::{try_par_map, Parallelism};

use crate::artifact::SafeArtifact;
use crate::error::ServeError;

/// Default rows per micro-batch. Large enough to amortize buffer setup and
/// thread handoff, small enough to keep per-worker memory bounded.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// What one scoring call did: volume, batching, threading, latency.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreReport {
    /// Rows scored.
    pub rows: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Rows per micro-batch (the configured cap; the tail batch is smaller).
    pub batch_size: usize,
    /// Resolved worker budget the call ran with.
    pub threads: usize,
    /// End-to-end wall time in integer microseconds.
    pub total_us: u64,
    /// Throughput over the whole call (`rows / total seconds`).
    pub rows_per_sec: f64,
    /// Median per-batch latency (log2-bucket upper bound, microseconds;
    /// 0 when no batches ran). From the same deterministic
    /// [`safe_obs::LatencyHisto`] the telemetry stream feeds.
    pub batch_p50_us: u64,
    /// 99th-percentile per-batch latency (log2-bucket upper bound,
    /// microseconds; 0 when no batches ran).
    pub batch_p99_us: u64,
}

/// Offline batch scorer for a saved [`SafeArtifact`].
///
/// Construction compiles the plan once; every call then runs
/// allocation-free per row. See the module docs for the determinism
/// contract. [`crate::ScoreService`] holds one handle per loaded artifact
/// and its workers run the same crate-private batch kernel, so streamed
/// and offline scores are bit-identical by construction.
#[derive(Debug)]
pub struct ScorerHandle {
    compiled: CompiledPlan,
    model: GbmModel,
    batch_size: usize,
    parallelism: Parallelism,
    sink: SinkHandle,
}

impl ScorerHandle {
    /// Compile `artifact` against `registry` and validate that the booster
    /// and plan agree on the feature count.
    pub fn new(
        artifact: &SafeArtifact,
        registry: &OperatorRegistry,
    ) -> Result<ScorerHandle, ServeError> {
        artifact.validate()?;
        let compiled = artifact.plan.compile(registry)?;
        Ok(ScorerHandle {
            compiled,
            model: artifact.model.clone(),
            batch_size: DEFAULT_BATCH_SIZE,
            parallelism: Parallelism::auto(),
            sink: SinkHandle::null(),
        })
    }

    /// Rows per micro-batch (values below 1 are clamped to 1). Never
    /// changes output bits.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Worker budget (`0` = auto-detect, `1` = serial). Any setting yields
    /// bit-identical scores.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.parallelism = Parallelism::new(threads);
        self
    }

    /// Telemetry sink: each call emits a `score` span with `rows`,
    /// `batches`, and `threads` counters. Never influences scores.
    pub fn with_sink(mut self, sink: SinkHandle) -> Self {
        self.sink = sink;
        self
    }

    /// Number of raw input values each row must carry.
    pub fn n_inputs(&self) -> usize {
        self.compiled.n_inputs()
    }

    /// Execute one micro-batch into reused buffers: plan apply into
    /// `features`, then a tree-outer predict into `scores` (both cleared
    /// first). This is the single batch kernel shared by the offline
    /// scorer and the [`crate::ScoreService`] workers — one definition,
    /// so the two surfaces are bit-identical by construction.
    pub(crate) fn execute_batch(
        &self,
        rows: &[f64],
        n_cols: usize,
        features: &mut Vec<f64>,
        scores: &mut Vec<f64>,
    ) -> Result<(), PlanError> {
        self.compiled.apply_rows(rows, n_cols, features)?;
        self.model
            .predict_rows_into(features, self.compiled.n_outputs(), scores);
        Ok(())
    }

    /// Score a row-major flat batch (`n_cols` values per row, aligned with
    /// the artifact's input schema). Returns one score per row plus the
    /// call's [`ScoreReport`].
    ///
    /// Shape errors follow the contract of `CompiledPlan::apply_rows`.
    pub fn score_rows(
        &self,
        rows: &[f64],
        n_cols: usize,
    ) -> Result<(Vec<f64>, ScoreReport), ServeError> {
        if n_cols != self.compiled.n_inputs() {
            return Err(ServeError::Plan(PlanError::MissingInput(format!(
                "expected {} input columns, got {}",
                self.compiled.n_inputs(),
                n_cols
            ))));
        }
        if n_cols == 0 {
            if !rows.is_empty() {
                return Err(ServeError::Plan(PlanError::Data(
                    "non-empty batch for a zero-input plan".into(),
                )));
            }
            return Ok((Vec::new(), self.report(0, 0, 0)));
        }
        if !rows.len().is_multiple_of(n_cols) {
            return Err(ServeError::Plan(PlanError::Data(format!(
                "ragged batch: {} values is not a multiple of {} columns",
                rows.len(),
                n_cols
            ))));
        }

        let n_rows = rows.len() / n_cols;
        let n_batches = n_rows.div_ceil(self.batch_size.max(1));
        let start = Instant::now();
        self.sink.as_dyn().stage_start(stages::SCORE, None);

        // One task per micro-batch; results concatenate in batch-index
        // order, so the thread count never changes the output bytes.
        let n_outputs = self.compiled.n_outputs();
        let per_batch = try_par_map(self.parallelism, n_batches, |b| {
            let batch_start = Instant::now();
            let lo = b * self.batch_size;
            let hi = ((b + 1) * self.batch_size).min(n_rows);
            // Per-batch buffers: one engineered-feature matrix and one
            // score vector, reused across every row in the batch. The
            // kernel (plan apply + tree-outer predict) is `execute_batch`,
            // shared verbatim with the daemon's workers.
            let mut features = Vec::with_capacity((hi - lo) * n_outputs);
            let mut scores = Vec::with_capacity(hi - lo);
            if let Err(e) =
                self.execute_batch(&rows[lo * n_cols..hi * n_cols], n_cols, &mut features, &mut scores)
            {
                // Unreachable: the shape was validated above once for the
                // whole batch.
                panic!("pre-validated batch failed: {e}");
            }
            (scores, u64::try_from(batch_start.elapsed().as_micros()).unwrap_or(u64::MAX))
        })
        .map_err(|p| ServeError::Worker(p.message))?;
        // Batch latencies in batch-index order (deterministic join order of
        // `try_par_map`); the histogram itself merges exactly, so the
        // quantile values depend only on the multiset of latencies.
        let mut batch_histo = safe_obs::LatencyHisto::new();
        let mut scores: Vec<f64> = Vec::with_capacity(n_rows);
        let sink = self.sink.as_dyn();
        for (batch_scores, batch_us) in per_batch {
            batch_histo.record(batch_us);
            sink.observe(stages::SCORE, None, "batch_us", batch_us);
            scores.extend_from_slice(&batch_scores);
        }

        let total_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut report = self.report(n_rows as u64, n_batches as u64, total_us);
        report.batch_p50_us = batch_histo.p50();
        report.batch_p99_us = batch_histo.p99();
        sink.counter(stages::SCORE, None, "rows", report.rows);
        sink.counter(stages::SCORE, None, "batches", report.batches);
        sink.counter(stages::SCORE, None, "threads", report.threads as u64);
        sink.stage_end(stages::SCORE, None, total_us);
        Ok((scores, report))
    }

    /// Score a dataset: columns are located by the artifact's input schema
    /// (extra columns are ignored; order does not matter), then routed
    /// through [`ScorerHandle::score_rows`].
    pub fn score_dataset(&self, ds: &Dataset) -> Result<(Vec<f64>, ScoreReport), ServeError> {
        let n_cols = self.compiled.n_inputs();
        let cols: Vec<&[f64]> = self
            .compiled
            .input_names()
            .iter()
            .map(|name| {
                ds.column_by_name(name)
                    .map_err(|_| ServeError::Plan(PlanError::MissingInput(name.clone())))
            })
            .collect::<Result<_, _>>()?;
        let mut rows = Vec::with_capacity(ds.n_rows() * n_cols);
        for i in 0..ds.n_rows() {
            for col in &cols {
                rows.push(col[i]);
            }
        }
        self.score_rows(&rows, n_cols)
    }

    fn report(&self, rows: u64, batches: u64, total_us: u64) -> ScoreReport {
        let secs = total_us as f64 / 1e6;
        ScoreReport {
            rows,
            batches,
            batch_size: self.batch_size,
            threads: self.parallelism.resolve(),
            total_us,
            rows_per_sec: if secs > 0.0 { rows as f64 / secs } else { 0.0 },
            batch_p50_us: 0,
            batch_p99_us: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{toy_artifact, toy_split};
    use safe_obs::{EventKind, MemorySink};
    use std::sync::Arc;

    fn scorer(seed: u64) -> (SafeArtifact, ScorerHandle) {
        let artifact = toy_artifact(seed);
        let scorer = ScorerHandle::new(&artifact, &OperatorRegistry::standard()).unwrap();
        (artifact, scorer)
    }

    #[test]
    fn scores_match_column_path_bitwise() {
        let (artifact, scorer) = scorer(21);
        let (_, valid) = toy_split(21);
        let eng = artifact.plan.apply(&valid).unwrap();
        let expected = artifact.model.predict(&eng);
        let (got, report) = scorer.score_dataset(&valid).unwrap();
        assert_eq!(got.len(), expected.len());
        for (i, (a, b)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
        assert_eq!(report.rows as usize, valid.n_rows());
    }

    #[test]
    fn thread_count_never_changes_bits() {
        let (_, base) = scorer(22);
        let (_, valid) = toy_split(22);
        let (serial, _) = base.score_dataset(&valid).unwrap();
        for threads in [2usize, 4, 7] {
            let (_, s) = scorer(22);
            let (par, report) = s
                .with_threads(threads)
                .with_batch_size(16)
                .score_dataset(&valid)
                .unwrap();
            assert_eq!(report.threads, threads);
            assert_eq!(par.len(), serial.len());
            for (i, (a, b)) in par.iter().zip(&serial).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads} row {i}");
            }
        }
    }

    #[test]
    fn batch_size_never_changes_bits() {
        let (_, base) = scorer(23);
        let (_, valid) = toy_split(23);
        let (reference, _) = base.score_dataset(&valid).unwrap();
        for batch in [1usize, 7, 64, 100_000] {
            let (_, s) = scorer(23);
            let (got, report) = s.with_batch_size(batch).score_dataset(&valid).unwrap();
            assert_eq!(report.batch_size, batch.max(1));
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "batch={batch}");
            }
            assert_eq!(
                report.batches,
                (valid.n_rows() as u64).div_ceil(batch as u64)
            );
        }
    }

    #[test]
    fn flat_rows_match_dataset_path() {
        let (_, s) = scorer(24);
        let (_, valid) = toy_split(24);
        let (via_ds, _) = s.score_dataset(&valid).unwrap();
        let n_cols = s.n_inputs();
        let mut flat = Vec::new();
        for i in 0..valid.n_rows() {
            flat.extend_from_slice(&valid.row(i));
        }
        let (via_rows, _) = s.score_rows(&flat, n_cols).unwrap();
        assert_eq!(via_ds.len(), via_rows.len());
        for (a, b) in via_ds.iter().zip(&via_rows) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn telemetry_span_and_counters_emitted() {
        let sink = Arc::new(MemorySink::new());
        let (_, s) = scorer(25);
        let (_, valid) = toy_split(25);
        let s = s.with_sink(SinkHandle::new(sink.clone()));
        let (_, report) = s.score_dataset(&valid).unwrap();
        let events = sink.events();
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::StageStart && e.stage == stages::SCORE));
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::StageEnd && e.stage == stages::SCORE));
        let rows = events
            .iter()
            .find(|e| e.kind == EventKind::Counter && e.name == "rows")
            .expect("rows counter");
        assert_eq!(rows.value, report.rows);
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::Counter && e.name == "batches"));
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::Counter && e.name == "threads"));
    }

    #[test]
    fn batch_latency_quantiles_and_observe_events() {
        let sink = Arc::new(MemorySink::new());
        let (_, s) = scorer(28);
        let (_, valid) = toy_split(28);
        let s = s.with_sink(SinkHandle::new(sink.clone())).with_batch_size(16);
        let (_, report) = s.score_dataset(&valid).unwrap();
        assert!(report.batches > 1, "want multiple batches for quantiles");
        // Quantiles land on log2-bucket upper bounds and are ordered.
        assert!(report.batch_p50_us <= report.batch_p99_us);
        assert!(report.batch_p99_us > 0, "batches take nonzero time");
        // One sink-only observe event per batch.
        let observes: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::Observe && e.name == "batch_us")
            .collect();
        assert_eq!(observes.len(), report.batches as usize);
        // Replaying the observe stream reproduces the report's quantiles.
        let snap = safe_obs::MetricsSnapshot::from_events(&sink.events());
        let h = snap
            .histogram("batch_us", &[("stage", stages::SCORE)])
            .expect("batch_us histogram");
        assert_eq!(h.p50(), report.batch_p50_us);
        assert_eq!(h.p99(), report.batch_p99_us);
    }

    #[test]
    fn shape_errors_follow_plan_contract() {
        let (_, s) = scorer(26);
        // Wrong column count.
        assert!(matches!(
            s.score_rows(&[1.0, 2.0], 2).unwrap_err(),
            ServeError::Plan(PlanError::MissingInput(_))
        ));
        // Ragged batch.
        let n = s.n_inputs();
        assert!(matches!(
            s.score_rows(&vec![0.0; n + 1], n).unwrap_err(),
            ServeError::Plan(PlanError::Data(_))
        ));
        // Dataset missing an input column.
        let bad = Dataset::from_columns(vec!["zz".into()], vec![vec![1.0]], None).unwrap();
        assert!(matches!(
            s.score_dataset(&bad).unwrap_err(),
            ServeError::Plan(PlanError::MissingInput(_))
        ));
    }

    #[test]
    fn handle_surface_matches_internal_scorer() {
        let artifact = toy_artifact(29);
        let handle = ScorerHandle::new(&artifact, &OperatorRegistry::standard())
            .unwrap()
            .with_threads(2)
            .with_batch_size(8);
        assert_eq!(handle.n_inputs(), 3);
        let (_, valid) = toy_split(29);
        let (via_handle, report) = handle.score_dataset(&valid).unwrap();
        // The daemon's workers call the batch kernel directly.
        let (_, direct) = scorer(29);
        let flat: Vec<f64> = (0..valid.n_rows()).flat_map(|i| valid.row(i)).collect();
        let (mut features, mut bits) = (Vec::new(), Vec::new());
        direct.execute_batch(&flat, direct.n_inputs(), &mut features, &mut bits).unwrap();
        assert_eq!(bits.len(), via_handle.len());
        for (i, (a, b)) in via_handle.iter().zip(&bits).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
        assert_eq!(report.threads, 2);
        assert_eq!(report.batch_size, 8);
    }

    #[test]
    fn empty_batch_scores_nothing() {
        let (_, s) = scorer(27);
        let n = s.n_inputs();
        let (scores, report) = s.score_rows(&[], n).unwrap();
        assert!(scores.is_empty());
        assert_eq!(report.rows, 0);
        assert_eq!(report.batches, 0);
    }
}
