//! # safe-obs — pipeline telemetry: tracing spans, metrics, run reports
//!
//! A zero-dependency observability layer for the SAFE pipeline. Every
//! pipeline stage emits structured [`Event`]s — span boundaries
//! (`stage_start`/`stage_end` with wall time), counters, gauges, and
//! warnings — through an [`EventSink`] threaded through the run
//! configuration:
//!
//! - [`NullSink`] — the default; reports `enabled() == false` so call
//!   sites can skip event construction entirely,
//! - [`JsonlSink`] — one JSON object per line to any writer/file,
//! - [`MemorySink`] — collects events in memory for tests and report
//!   assembly,
//! - [`FanoutSink`] — tee to several sinks at once.
//!
//! From the instrumentation, [`ReportBuilder`] assembles a [`RunReport`]:
//! per-iteration, per-stage timings (integer microseconds), counters, and
//! the feature-count waterfall (generated → post-IV → post-redundancy →
//! post-top-k). The builder turns every report call into an [`Event`] and
//! folds it into the report with the same fold [`RunReport::from_events`]
//! runs over a collected stream, so a trace carries the whole report. The
//! builder is also the sink a stage hands its callees (the booster), so
//! their counters reach the report through that fold. `checkpoint` events
//! never enter a report.
//!
//! ## Stage-name vocabulary (stable contract)
//!
//! The seven core per-iteration stages, in pipeline order (see
//! [`stages::CORE`]): `gbm-train`, `path-extract`, `rank-combos`,
//! `generate`, `iv-filter`, `redundancy-filter`, `rank-topk`. Framing
//! spans use `iteration`; run-level events use `audit` and `waterfall`.
//! These names are a stable contract for downstream tooling
//! (`BENCH_pipeline.json`, `--trace-jsonl` consumers); renames are
//! breaking changes.
//!
//! ## JSONL schema
//!
//! Every line is one JSON object with at least `ts_us` (microseconds since
//! process telemetry epoch), `event` (one of `stage_start`, `stage_end`,
//! `counter`, `gauge`, `warn`, `observe`), and `stage`. Optional keys:
//! `iteration`, `name`, `value` (for `stage_end` this is the span duration
//! in microseconds; for `observe` the observed amount), `message`
//! (warnings only).
//!
//! ## Metrics and profiling
//!
//! [`metrics`] adds the deterministic log2-bucketed [`LatencyHisto`]
//! (exact merge, p50/p95/p99) and the [`MetricsSnapshot`] of labelled
//! histograms, which renders to Prometheus text format via
//! [`render_prometheus`]. The snapshot has one recording path: the report
//! fold records every span end (`stage_us`, `iteration_us`) and every
//! `observe` event (per-round GBM timings, checkpoint writes, scorer
//! batches) into `RunReport.metrics`, and [`MetricsSnapshot::from_events`]
//! runs the same recording over a recorded stream. [`trace`]
//! replays any recorded event stream into Chrome trace-event JSON
//! ([`trace::chrome_trace_json`], Perfetto-loadable) and folded-stack
//! flamegraph format ([`trace::folded_stacks`]). The optional
//! `alloc-metrics` feature adds a counting global allocator ([`alloc`])
//! whose per-stage deltas arrive as `observe` events.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod alloc;
pub mod json;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod trace;

pub use alloc::{alloc_metrics_enabled, alloc_snapshot, AllocSnapshot};
pub use metrics::{
    escape_label_value, render_prometheus, LatencyHisto, MetricKey, MetricsSnapshot,
};
pub use report::{
    IterationTelemetry, ReportBuilder, RunReport, StageGuard, StageTelemetry, Waterfall, WarnRecord,
};
pub use sink::{Event, EventKind, EventSink, FanoutSink, JsonlSink, MemorySink, NullSink, SinkHandle};
pub use trace::{chrome_trace_json, folded_stacks, validate_chrome_trace, ChromeTraceSummary};

/// The stable stage-name vocabulary.
pub mod stages {
    /// Miner/booster training on the current feature set.
    pub const GBM_TRAIN: &str = "gbm-train";
    /// Root→leaf-parent path harvesting and combination extraction.
    pub const PATH_EXTRACT: &str = "path-extract";
    /// Information-gain-ratio ranking of combinations (γ truncation).
    pub const RANK_COMBOS: &str = "rank-combos";
    /// Operator application over the kept combinations.
    pub const GENERATE: &str = "generate";
    /// Information-Value filter at α (Algorithm 3).
    pub const IV_FILTER: &str = "iv-filter";
    /// Pairwise Pearson redundancy removal at θ (Algorithm 4).
    pub const REDUNDANCY: &str = "redundancy-filter";
    /// Split-gain ranking and 2M cap (Section IV-C3).
    pub const RANK_TOPK: &str = "rank-topk";
    /// Successive-halving candidate pruning (staged selection mode only).
    /// Deliberately **not** part of [`CORE`]: exact-mode iterations never
    /// emit it, and staged-mode iterations emit it *in addition to* all
    /// seven core stages (the exact pass still runs on the finalists).
    pub const STAGED_PRUNE: &str = "staged-prune";
    /// Framing span around one SAFE iteration.
    pub const ITERATION: &str = "iteration";
    /// Pre-fit data audit (run level, before iteration 0).
    pub const AUDIT: &str = "audit";
    /// Feature-count waterfall gauges emitted at iteration end.
    pub const WATERFALL: &str = "waterfall";
    /// Batch scoring through a saved artifact (serving side, `safe-serve`).
    pub const SCORE: &str = "score";
    /// Durable checkpoint write after an iteration closes (crash safety).
    /// Emitted sink-only, outside the iteration framing span, so the
    /// report embedded in the checkpoint matches the uninterrupted run's.
    pub const CHECKPOINT: &str = "checkpoint";
    /// Out-of-core dataset backend summary (run level, chunked fits only):
    /// chunk-cache traffic and resident high-water mark. Excluded from
    /// [`crate::RunReport::structural_eq`] — backend placement is an
    /// execution-environment choice, never a computed result.
    pub const OOCORE: &str = "oocore";
    /// Long-lived scoring daemon span (`safe-serve`'s `ScoreService`):
    /// one span per service lifetime, with sink-only per-request
    /// `queue_wait_us` / `request_us` observe events and shutdown
    /// counters (requests, batches, swaps, workers). Not an iteration
    /// stage — never part of [`CORE`] or a `RunReport`.
    pub const SERVE: &str = "serve-daemon";

    /// The seven core stages every completed iteration runs, in order.
    pub const CORE: [&str; 7] = [
        GBM_TRAIN,
        PATH_EXTRACT,
        RANK_COMBOS,
        GENERATE,
        IV_FILTER,
        REDUNDANCY,
        RANK_TOPK,
    ];
}
