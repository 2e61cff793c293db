//! Run-report assembly: per-iteration, per-stage timings, counters, and
//! the feature-count waterfall.
//!
//! One private fold is the only code that turns [`Event`]s into a
//! [`RunReport`]. [`ReportBuilder`] is the write side: the pipeline opens
//! stage spans and records counters, and the builder turns each call into
//! an event, forwards it to the configured [`EventSink`] when that sink is
//! enabled, and always folds it. The builder is itself an [`EventSink`], so
//! a callee handed [`StageGuard::sink`] (the booster) reaches the report
//! the same way. [`RunReport::from_events`] runs the same fold over a
//! recorded stream (a [`MemorySink`] snapshot or a parsed `--trace-jsonl`
//! file): the offline replay of a run. The fold also records every span
//! end and `observe` event into `RunReport.metrics`, so the replayed
//! metrics equal the inline ones. Events of the `checkpoint` stage never
//! enter a report.
//!
//! [`MemorySink`]: crate::sink::MemorySink

use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::alloc::{alloc_metrics_enabled, alloc_snapshot, AllocSnapshot};
use crate::metrics::MetricsSnapshot;
use crate::sink::{Event, EventKind, EventSink};
use crate::{json, stages};

/// Feature counts as they shrink through one iteration's funnel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Waterfall {
    /// Features generated by the operator set.
    pub generated: u64,
    /// Candidate set size |X̂| = |X ∪ X̃|.
    pub candidates: u64,
    /// Survivors of the IV filter at α.
    pub post_iv: u64,
    /// Survivors of redundancy removal at θ.
    pub post_redundancy: u64,
    /// Final selection after split-gain top-k.
    pub selected: u64,
}

impl Waterfall {
    /// Whether the funnel counts are internally consistent (each stage can
    /// only shrink its input).
    pub fn is_consistent(&self) -> bool {
        self.post_iv <= self.candidates
            && self.post_redundancy <= self.post_iv
            && self.selected <= self.post_redundancy
    }
}

/// Timing and counters for one stage of one iteration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageTelemetry {
    /// Stage name from the [`stages`] vocabulary.
    pub stage: String,
    /// Wall-clock time in integer microseconds.
    pub micros: u64,
    /// Item count flowing into the stage.
    pub features_in: u64,
    /// Item count flowing out of the stage.
    pub features_out: u64,
    /// Named counters, in emission order.
    pub counters: Vec<(String, u64)>,
}

impl StageTelemetry {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Equality over everything the pipeline *computed*, ignoring
    /// execution-environment values: `micros` (wall-clock), the `threads`
    /// counter (worker budget), `cache_*` counters (hit/miss split of
    /// the cross-iteration training cache — how much work was *reused*,
    /// never what was computed), and `oocore_*` counters (chunk-cache
    /// traffic of the out-of-core dataset backend — where the bytes
    /// *lived*, never what was computed from them). Two runs of the same
    /// pipeline — serial or parallel, cached or cold, resident or
    /// spilled, fast or slow machine — are `structural_eq`.
    pub fn structural_eq(&self, other: &StageTelemetry) -> bool {
        fn computed(s: &StageTelemetry) -> Vec<&(String, u64)> {
            s.counters
                .iter()
                .filter(|(n, _)| {
                    n != "threads" && !n.starts_with("cache_") && !n.starts_with("oocore_")
                })
                .collect()
        }
        self.stage == other.stage
            && self.features_in == other.features_in
            && self.features_out == other.features_out
            && computed(self) == computed(other)
    }
}

/// Everything observed during one iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationTelemetry {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// `"completed"`, `"degraded"`, or `"skipped"`.
    pub status: String,
    /// Iteration wall-clock in integer microseconds.
    pub micros: u64,
    /// Per-stage telemetry in execution order.
    pub stages: Vec<StageTelemetry>,
    /// The feature-count waterfall.
    pub waterfall: Waterfall,
}

impl IterationTelemetry {
    /// Look up one stage's telemetry by name.
    pub fn stage(&self, name: &str) -> Option<&StageTelemetry> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// [`StageTelemetry::structural_eq`] lifted over a whole iteration:
    /// index, status, waterfall, and every stage pairwise, ignoring
    /// timings and the `threads` counter.
    pub fn structural_eq(&self, other: &IterationTelemetry) -> bool {
        self.iteration == other.iteration
            && self.status == other.status
            && self.waterfall == other.waterfall
            && self.stages.len() == other.stages.len()
            && self
                .stages
                .iter()
                .zip(&other.stages)
                .all(|(a, b)| a.structural_eq(b))
    }
}

/// A structured warning captured during the run.
#[derive(Debug, Clone, PartialEq)]
pub struct WarnRecord {
    /// Stage the warning is attributed to.
    pub stage: String,
    /// Iteration, when the warning happened inside the loop.
    pub iteration: Option<usize>,
    /// Short machine-readable code (`"degraded"`, `"skipped"`, `"audit"`…).
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

/// The machine-readable record of one SAFE run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Whole-run wall-clock in integer microseconds.
    pub total_us: u64,
    /// Run-level stages executed before the loop (e.g. the data audit).
    pub setup: Vec<StageTelemetry>,
    /// One entry per iteration that started.
    pub iterations: Vec<IterationTelemetry>,
    /// Warnings in emission order (degradations, audit findings).
    pub warnings: Vec<WarnRecord>,
    /// Histograms folded from the report's own events: per-stage and
    /// per-iteration wall time, the `observe` samples (booster rounds and,
    /// under the `alloc-metrics` feature, per-stage allocations). **Excluded
    /// from `==`** and never restored from checkpoints: wall-clock
    /// distributions legitimately differ between a resumed run and an
    /// uninterrupted one, and the PR 6 contract requires their reports to
    /// compare equal.
    pub metrics: MetricsSnapshot,
}

// Manual PartialEq: everything except `metrics`. The checkpoint codec's
// exact round-trip (`from_json(to_json(r)) == r`) and the crash-safety
// suites' resumed-vs-uninterrupted `==` both predate the metrics field and
// must keep holding; metrics are a write-only observability surface.
impl PartialEq for RunReport {
    fn eq(&self, other: &RunReport) -> bool {
        self.total_us == other.total_us
            && self.setup == other.setup
            && self.iterations == other.iterations
            && self.warnings == other.warnings
    }
}

impl RunReport {
    /// Deterministic-content equality for differential testing: compares
    /// setup stages, iterations, and warnings while ignoring the fields
    /// that legitimately differ between two runs of the same pipeline —
    /// wall-clock timings (`total_us`, per-stage/iteration `micros`), the
    /// `threads` counter each parallel stage records, the `cache_*`
    /// hit/miss counters of the cross-iteration training cache, and the
    /// [`stages::OOCORE`] setup stage plus `oocore_*` counters (the
    /// out-of-core backend reports where bytes lived, not what was
    /// computed — a chunked and a resident run of the same pipeline are
    /// structurally equal). Everything else (waterfalls, statuses, every
    /// computed counter) must match exactly; the serial-vs-parallel,
    /// cached-vs-cold, and resident-vs-chunked differential suites rely
    /// on this.
    pub fn structural_eq(&self, other: &RunReport) -> bool {
        fn backend_free(setup: &[StageTelemetry]) -> Vec<&StageTelemetry> {
            setup.iter().filter(|s| s.stage != stages::OOCORE).collect()
        }
        let (sa, sb) = (backend_free(&self.setup), backend_free(&other.setup));
        sa.len() == sb.len()
            && sa
                .iter()
                .zip(&sb)
                .all(|(a, b)| a.structural_eq(b))
            && self.iterations.len() == other.iterations.len()
            && self
                .iterations
                .iter()
                .zip(&other.iterations)
                .all(|(a, b)| a.structural_eq(b))
            && self.warnings == other.warnings
    }

    /// Reassemble a report from a collected event stream: the same fold
    /// [`ReportBuilder`] runs over every event it emits, so a trace carries
    /// the whole report. Events that do not follow the builder's framing
    /// (unmatched ends, counters outside spans) are ignored rather than
    /// rejected. The run total is the sum of iteration and setup span
    /// durations (the builder's own total also includes time between spans,
    /// so compare per-stage values, not totals).
    pub fn from_events(events: &[Event]) -> RunReport {
        let mut fold = Fold::default();
        for e in events {
            fold.apply(e);
        }
        fold.report
    }

    /// Parse a report back from its [`RunReport::to_json`] document.
    ///
    /// Counters round-trip exactly for the values the pipeline emits
    /// (counts and microsecond timings, all far below 2^53 — the parser's
    /// `f64` limit). Used by the `SAFECKPT` checkpoint codec to embed and
    /// restore the report accumulated up to the last completed iteration.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let v = json::parse(text)?;
        let mut report = RunReport {
            total_us: v
                .get("total_us")
                .and_then(json::Value::as_u64)
                .ok_or("report: missing total_us")?,
            ..RunReport::default()
        };
        for s in v.get("setup").and_then(json::Value::as_array).ok_or("report: missing setup")? {
            report.setup.push(stage_from_json(s)?);
        }
        let iterations = v
            .get("iterations")
            .and_then(json::Value::as_array)
            .ok_or("report: missing iterations")?;
        for it in iterations {
            let waterfall = it.get("waterfall").ok_or("iteration: missing waterfall")?;
            let wf = |key: &str| -> Result<u64, String> {
                waterfall
                    .get(key)
                    .and_then(json::Value::as_u64)
                    .ok_or_else(|| format!("waterfall: missing {key}"))
            };
            let mut parsed = IterationTelemetry {
                iteration: it
                    .get("iteration")
                    .and_then(json::Value::as_u64)
                    .ok_or("iteration: missing index")? as usize,
                status: it
                    .get("status")
                    .and_then(json::Value::as_str)
                    .ok_or("iteration: missing status")?
                    .to_string(),
                micros: it
                    .get("micros")
                    .and_then(json::Value::as_u64)
                    .ok_or("iteration: missing micros")?,
                stages: Vec::new(),
                waterfall: Waterfall {
                    generated: wf("generated")?,
                    candidates: wf("candidates")?,
                    post_iv: wf("post_iv")?,
                    post_redundancy: wf("post_redundancy")?,
                    selected: wf("selected")?,
                },
            };
            let stages_v = it
                .get("stages")
                .and_then(json::Value::as_array)
                .ok_or("iteration: missing stages")?;
            for s in stages_v {
                parsed.stages.push(stage_from_json(s)?);
            }
            report.iterations.push(parsed);
        }
        let warnings = v
            .get("warnings")
            .and_then(json::Value::as_array)
            .ok_or("report: missing warnings")?;
        for w in warnings {
            report.warnings.push(WarnRecord {
                stage: w
                    .get("stage")
                    .and_then(json::Value::as_str)
                    .ok_or("warning: missing stage")?
                    .to_string(),
                iteration: match w.get("iteration") {
                    Some(n) => Some(n.as_u64().ok_or("warning: bad iteration")? as usize),
                    None => None,
                },
                code: w
                    .get("code")
                    .and_then(json::Value::as_str)
                    .ok_or("warning: missing code")?
                    .to_string(),
                message: w
                    .get("message")
                    .and_then(json::Value::as_str)
                    .ok_or("warning: missing message")?
                    .to_string(),
            });
        }
        Ok(report)
    }

    /// Serialize as a JSON document (2-space indentation).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"total_us\": ");
        out.push_str(&self.total_us.to_string());
        out.push_str(",\n  \"setup\": [");
        for (i, s) in self.setup.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&stage_json(s));
        }
        if !self.setup.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"iterations\": [");
        for (i, it) in self.iterations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"iteration\": ");
            out.push_str(&it.iteration.to_string());
            out.push_str(", \"status\": ");
            out.push_str(&json::escape(&it.status));
            out.push_str(", \"micros\": ");
            out.push_str(&it.micros.to_string());
            let w = &it.waterfall;
            let _ = write!(
                out,
                ", \"waterfall\": {{\"generated\": {}, \"candidates\": {}, \"post_iv\": {}, \"post_redundancy\": {}, \"selected\": {}}}",
                w.generated, w.candidates, w.post_iv, w.post_redundancy, w.selected
            );
            out.push_str(", \"stages\": [");
            for (j, s) in it.stages.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n      ");
                out.push_str(&stage_json(s));
            }
            if !it.stages.is_empty() {
                out.push_str("\n    ");
            }
            out.push_str("]}");
        }
        if !self.iterations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"warnings\": [");
        for (i, w) in self.warnings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"stage\": ");
            out.push_str(&json::escape(&w.stage));
            if let Some(it) = w.iteration {
                let _ = write!(out, ", \"iteration\": {it}");
            }
            out.push_str(", \"code\": ");
            out.push_str(&json::escape(&w.code));
            out.push_str(", \"message\": ");
            out.push_str(&json::escape(&w.message));
            out.push('}');
        }
        if !self.warnings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]");
        if !self.metrics.is_empty() {
            out.push_str(",\n  \"metrics\": ");
            out.push_str(&self.metrics.to_json());
        }
        out.push_str("\n}\n");
        out
    }

    /// Render as a fixed-width human table (stage timings + each stage's
    /// share of total wall time + flow + the per-iteration waterfall).
    pub fn render_table(&self) -> String {
        // Percent denominator: the run total when recorded, otherwise the
        // sum of span durations (from_events-replayed reports).
        let span_sum: u64 = self.setup.iter().map(|s| s.micros).sum::<u64>()
            + self.iterations.iter().map(|it| it.micros).sum::<u64>();
        let denom = if self.total_us > 0 { self.total_us } else { span_sum.max(1) } as f64;
        let pct = |micros: u64| micros as f64 / denom * 100.0;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4}  {:<17} {:>10} {:>6} {:>8} {:>8}",
            "iter", "stage", "ms", "pct", "in", "out"
        );
        for s in &self.setup {
            let _ = writeln!(
                out,
                "{:>4}  {:<17} {:>10.2} {:>5.1}% {:>8} {:>8}",
                "-",
                s.stage,
                s.micros as f64 / 1000.0,
                pct(s.micros),
                s.features_in,
                s.features_out
            );
        }
        for it in &self.iterations {
            for s in &it.stages {
                let _ = writeln!(
                    out,
                    "{:>4}  {:<17} {:>10.2} {:>5.1}% {:>8} {:>8}",
                    it.iteration,
                    s.stage,
                    s.micros as f64 / 1000.0,
                    pct(s.micros),
                    s.features_in,
                    s.features_out
                );
            }
            let _ = writeln!(
                out,
                "{:>4}  {:<17} {:>10.2} {:>5.1}% {:>8} {:>8}  ({})",
                it.iteration,
                "[iteration]",
                it.micros as f64 / 1000.0,
                pct(it.micros),
                "",
                "",
                it.status
            );
            let w = &it.waterfall;
            let _ = writeln!(
                out,
                "      waterfall: generated {} -> candidates {} -> post-IV {} -> post-redundancy {} -> top-k {}",
                w.generated, w.candidates, w.post_iv, w.post_redundancy, w.selected
            );
        }
        for warning in &self.warnings {
            let _ = writeln!(
                out,
                "      warn[{}{}] {}: {}",
                warning.stage,
                warning.iteration.map(|i| format!("#{i}")).unwrap_or_default(),
                warning.code,
                warning.message
            );
        }
        let _ = writeln!(out, "      total: {:.2} ms", self.total_us as f64 / 1000.0);
        out
    }
}

fn stage_from_json(v: &json::Value) -> Result<StageTelemetry, String> {
    let mut s = StageTelemetry {
        stage: v
            .get("stage")
            .and_then(json::Value::as_str)
            .ok_or("stage: missing name")?
            .to_string(),
        micros: v.get("micros").and_then(json::Value::as_u64).ok_or("stage: missing micros")?,
        features_in: v
            .get("features_in")
            .and_then(json::Value::as_u64)
            .ok_or("stage: missing features_in")?,
        features_out: v
            .get("features_out")
            .and_then(json::Value::as_u64)
            .ok_or("stage: missing features_out")?,
        counters: Vec::new(),
    };
    let counters = v
        .get("counters")
        .and_then(json::Value::as_object)
        .ok_or("stage: missing counters")?;
    for (name, value) in counters {
        let value = value.as_u64().ok_or_else(|| format!("counter {name}: not a u64"))?;
        s.counters.push((name.clone(), value));
    }
    Ok(s)
}

fn stage_json(s: &StageTelemetry) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"stage\": ");
    out.push_str(&json::escape(&s.stage));
    let _ = write!(
        out,
        ", \"micros\": {}, \"features_in\": {}, \"features_out\": {}, \"counters\": {{",
        s.micros, s.features_in, s.features_out
    );
    for (i, (name, value)) in s.counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json::escape(name));
        let _ = write!(out, ": {value}");
    }
    out.push_str("}}");
    out
}

/// The one mapping from events to report entries. [`ReportBuilder`] folds
/// every event it emits or receives; [`RunReport::from_events`] folds a
/// recorded stream.
#[derive(Default)]
struct Fold {
    /// Setup stages, closed iterations and warnings so far.
    report: RunReport,
    /// The open iteration, if any.
    current: Option<IterationTelemetry>,
    /// Stage spans opened and not yet closed, innermost last.
    open: Vec<StageTelemetry>,
}

impl Fold {
    fn apply(&mut self, e: &Event) {
        // Checkpoint spans, counters and warnings are sink-only (DESIGN.md
        // §13): the report a snapshot embeds must equal the uninterrupted
        // run's, and a resumed run replays no checkpoint events.
        if e.stage == stages::CHECKPOINT {
            return;
        }
        self.report.metrics.record(e);
        match e.kind {
            EventKind::StageStart if e.stage == stages::ITERATION => {
                self.current = Some(IterationTelemetry {
                    iteration: e.iteration.unwrap_or(0),
                    status: "incomplete".into(),
                    micros: 0,
                    stages: Vec::new(),
                    waterfall: Waterfall::default(),
                });
            }
            EventKind::StageEnd if e.stage == stages::ITERATION => {
                if let Some(mut it) = self.current.take() {
                    it.micros = e.value;
                    if !e.name.is_empty() {
                        it.status = e.name.clone();
                    }
                    self.report.total_us += it.micros;
                    self.report.iterations.push(it);
                }
            }
            EventKind::StageStart => {
                self.open.push(StageTelemetry {
                    stage: e.stage.clone(),
                    ..Default::default()
                });
            }
            EventKind::StageEnd => {
                if let Some(idx) = self.open.iter().rposition(|s| s.stage == e.stage) {
                    let mut s = self.open.remove(idx);
                    s.micros = e.value;
                    match self.current.as_mut() {
                        Some(it) => it.stages.push(s),
                        None => {
                            self.report.total_us += s.micros;
                            self.report.setup.push(s);
                        }
                    }
                }
            }
            EventKind::Counter => {
                if let Some(s) = self.open.iter_mut().rev().find(|s| s.stage == e.stage) {
                    match e.name.as_str() {
                        "features_in" => s.features_in = e.value,
                        "features_out" => s.features_out = e.value,
                        _ => s.counters.push((e.name.clone(), e.value)),
                    }
                }
            }
            EventKind::Gauge if e.stage == stages::WATERFALL => {
                if let Some(it) = self.current.as_mut() {
                    let w = &mut it.waterfall;
                    match e.name.as_str() {
                        "generated" => w.generated = e.value,
                        "candidates" => w.candidates = e.value,
                        "post_iv" => w.post_iv = e.value,
                        "post_redundancy" => w.post_redundancy = e.value,
                        "selected" => w.selected = e.value,
                        _ => {}
                    }
                }
            }
            // Observe events are histogram samples, recorded above, never
            // counters.
            EventKind::Gauge | EventKind::Observe => {}
            EventKind::Warn => {
                self.report.warnings.push(WarnRecord {
                    stage: e.stage.clone(),
                    iteration: e.iteration,
                    code: e.name.clone(),
                    message: e.message.clone(),
                });
            }
        }
    }
}

/// Write side: turns each report call into an [`Event`], forwards it to
/// the configured sink when that sink is enabled, and always folds it into
/// the report, so the report is available even under the (event-dropping)
/// [`crate::sink::NullSink`].
///
/// The builder is itself an [`EventSink`]: callees that emit their own
/// events (the booster, through [`StageGuard::sink`]) reach both the
/// configured sink and the report through the same path.
pub struct ReportBuilder<'a> {
    sink: &'a dyn EventSink,
    run_start: Instant,
    /// Wall-clock already spent in a prior run segment (checkpoint resume).
    prior_total_us: u64,
    /// The open iteration's index and start time.
    current: Option<(usize, Instant)>,
    /// The report so far. Behind a mutex because [`EventSink::record`]
    /// takes `&self`.
    fold: Mutex<Fold>,
}

impl<'a> ReportBuilder<'a> {
    /// Start a run.
    pub fn new(sink: &'a dyn EventSink) -> ReportBuilder<'a> {
        ReportBuilder::resume(sink, RunReport::default())
    }

    /// Continue a run from a prior segment's report (checkpoint resume).
    ///
    /// The prior setup stages, iterations, and warnings are carried over
    /// verbatim; new iterations append after them, and the final
    /// `total_us` is the prior total plus this segment's wall-clock. No
    /// events are re-emitted for the carried-over telemetry — the sink
    /// stream documents what *this process* did, while the report spans
    /// the logical run.
    pub fn resume(sink: &'a dyn EventSink, prior: RunReport) -> ReportBuilder<'a> {
        ReportBuilder {
            sink,
            run_start: Instant::now(),
            prior_total_us: prior.total_us,
            current: None,
            // Metrics restart empty: checkpoints never persist them (they
            // are wall-clock distributions of *this process*), so a resumed
            // report's histograms cover only the post-resume segment.
            fold: Mutex::new(Fold {
                report: RunReport {
                    metrics: MetricsSnapshot::default(),
                    ..prior
                },
                ..Fold::default()
            }),
        }
    }

    /// A poisoned lock still holds a consistent fold: `apply` never
    /// panics, and each of its updates is a single push or field write.
    fn fold(&self) -> MutexGuard<'_, Fold> {
        self.fold.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The builder as a trait object, for the [`EventSink`] helpers.
    fn events(&self) -> &dyn EventSink {
        self
    }

    /// The report accumulated so far, without consuming the builder.
    ///
    /// Used by the checkpoint writer after each iteration closes; any
    /// still-open iteration span is excluded (a checkpoint only captures
    /// completed iterations).
    pub fn snapshot(&self) -> RunReport {
        RunReport {
            total_us: self.prior_total_us + self.run_start.elapsed().as_micros() as u64,
            ..self.fold().report.clone()
        }
    }

    /// Iteration currently open, if any.
    pub fn iteration(&self) -> Option<usize> {
        self.current.map(|(iteration, _)| iteration)
    }

    /// Open the framing span for one iteration.
    pub fn begin_iteration(&mut self, iteration: usize) {
        self.events()
            .stage_start(stages::ITERATION, Some(iteration));
        self.current = Some((iteration, Instant::now()));
    }

    /// Record the feature-count waterfall for the open iteration.
    pub fn set_waterfall(&mut self, w: Waterfall) {
        let iteration = self.iteration();
        for (name, value) in [
            ("generated", w.generated),
            ("candidates", w.candidates),
            ("post_iv", w.post_iv),
            ("post_redundancy", w.post_redundancy),
            ("selected", w.selected),
        ] {
            self.events()
                .gauge(stages::WATERFALL, iteration, name, value);
        }
    }

    /// Record a structured warning (attributed to the open iteration when
    /// one exists).
    pub fn warn(&mut self, stage: &str, code: &str, message: &str) {
        self.events().warn(stage, self.iteration(), code, message);
    }

    /// Close the open iteration with the given status.
    pub fn end_iteration(&mut self, status: &str) {
        if let Some((iteration, start)) = self.current.take() {
            let micros = start.elapsed().as_micros() as u64;
            // The stage_end's `name` carries the status.
            let mut e = Event::new(EventKind::StageEnd, stages::ITERATION);
            e.iteration = Some(iteration);
            e.value = micros;
            e.name = status.to_string();
            self.record(&e);
        }
    }

    /// Open a stage span. Dropping the guard closes the span (so early
    /// exits still balance), recording the duration in integer
    /// microseconds.
    pub fn stage<'b>(&'b mut self, name: &str) -> StageGuard<'b, 'a> {
        self.events().stage_start(name, self.iteration());
        StageGuard {
            builder: self,
            stage: name.to_string(),
            start: Instant::now(),
            alloc_start: alloc_snapshot(),
        }
    }

    /// Finish the run and hand back the assembled report.
    pub fn finish(mut self) -> RunReport {
        self.end_iteration("incomplete"); // no-op unless a span was left open
        self.sink.flush();
        self.snapshot()
    }
}

impl EventSink for ReportBuilder<'_> {
    /// Always on: every event feeds the report, whatever the sink.
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        if self.sink.enabled() {
            self.sink.record(event);
        }
        self.fold().apply(event);
    }

    fn flush(&self) {
        self.sink.flush();
    }
}

/// Open span over one pipeline stage. Counters recorded through the guard,
/// or by a callee through [`StageGuard::sink`], land both in the sink's
/// event stream and in the assembled report.
pub struct StageGuard<'b, 'a> {
    builder: &'b mut ReportBuilder<'a>,
    stage: String,
    start: Instant,
    alloc_start: AllocSnapshot,
}

impl StageGuard<'_, '_> {
    /// The builder as an event sink, for callees that emit their own
    /// counters (the booster): what they emit under this stage's name
    /// reaches the report and the configured sink.
    pub fn sink(&self) -> &dyn EventSink {
        self.builder.events()
    }

    /// Iteration this stage belongs to, if inside one.
    pub fn iteration(&self) -> Option<usize> {
        self.builder.iteration()
    }

    /// Record a counter: into the report and out through the sink.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.sink()
            .counter(&self.stage, self.iteration(), name, value);
    }

    /// Record the stage's in/out item counts.
    pub fn set_flow(&mut self, features_in: u64, features_out: u64) {
        self.counter("features_in", features_in);
        self.counter("features_out", features_out);
    }
}

impl Drop for StageGuard<'_, '_> {
    fn drop(&mut self) {
        let micros = self.start.elapsed().as_micros() as u64;
        if alloc_metrics_enabled() {
            let delta = alloc_snapshot().since(&self.alloc_start);
            for (name, value) in [
                ("alloc_allocs", delta.allocs),
                ("alloc_bytes", delta.bytes),
                ("alloc_peak_bytes", delta.peak),
            ] {
                self.sink()
                    .observe(&self.stage, self.iteration(), name, value);
            }
        }
        self.sink().stage_end(&self.stage, self.iteration(), micros);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    fn build_sample(sink: &dyn EventSink) -> RunReport {
        let mut b = ReportBuilder::new(sink);
        {
            let mut g = b.stage(stages::AUDIT);
            g.counter("findings", 2);
        }
        b.begin_iteration(0);
        {
            let mut g = b.stage(stages::IV_FILTER);
            g.counter("dropped_alpha", 5);
            g.set_flow(20, 15);
        }
        b.warn(stages::ITERATION, "degraded", "stage 'rank' failed: injected");
        b.set_waterfall(Waterfall {
            generated: 12,
            candidates: 20,
            post_iv: 15,
            post_redundancy: 10,
            selected: 8,
        });
        b.end_iteration("completed");
        b.finish()
    }

    #[test]
    fn builder_assembles_report() {
        let report = build_sample(&NullSinkForTest);
        assert_eq!(report.setup.len(), 1);
        assert_eq!(report.setup[0].counter("findings"), Some(2));
        assert_eq!(report.iterations.len(), 1);
        let it = &report.iterations[0];
        assert_eq!(it.status, "completed");
        let iv = it.stage(stages::IV_FILTER).unwrap();
        assert_eq!(iv.features_in, 20);
        assert_eq!(iv.features_out, 15);
        assert_eq!(iv.counter("dropped_alpha"), Some(5));
        assert!(it.waterfall.is_consistent());
        assert_eq!(report.warnings.len(), 1);
        assert_eq!(report.warnings[0].code, "degraded");
    }

    /// A disabled sink must not change the assembled report.
    struct NullSinkForTest;
    impl EventSink for NullSinkForTest {
        fn enabled(&self) -> bool {
            false
        }
        fn record(&self, _e: &Event) {}
    }

    #[test]
    fn from_events_matches_inline_assembly() {
        let sink = MemorySink::new();
        let inline = build_sample(&sink);
        let replayed = RunReport::from_events(&sink.events());
        assert_eq!(replayed.iterations.len(), inline.iterations.len());
        let (a, b) = (&replayed.iterations[0], &inline.iterations[0]);
        assert_eq!(a.status, b.status);
        assert_eq!(a.waterfall, b.waterfall);
        assert_eq!(a.stages.len(), b.stages.len());
        for (x, y) in a.stages.iter().zip(&b.stages) {
            assert_eq!(x.stage, y.stage);
            assert_eq!(x.features_in, y.features_in);
            assert_eq!(x.features_out, y.features_out);
            assert_eq!(x.counters, y.counters);
            assert_eq!(x.micros, y.micros);
        }
        assert_eq!(replayed.warnings, inline.warnings);
        assert_eq!(replayed.setup.len(), 1);
        assert_eq!(replayed.setup[0].counter("findings"), Some(2));
    }

    #[test]
    fn report_json_parses_back(){
        let report = build_sample(&MemorySink::new());
        let text = report.to_json();
        let v = json::parse(&text).unwrap();
        assert!(v.get("total_us").unwrap().as_u64().is_some());
        let iters = v.get("iterations").unwrap().as_array().unwrap();
        assert_eq!(iters.len(), 1);
        let w = iters[0].get("waterfall").unwrap();
        assert_eq!(w.get("selected").unwrap().as_u64(), Some(8));
        let stages_v = iters[0].get("stages").unwrap().as_array().unwrap();
        assert_eq!(stages_v[0].get("stage").unwrap().as_str(), Some(stages::IV_FILTER));
        let warnings = v.get("warnings").unwrap().as_array().unwrap();
        assert_eq!(warnings[0].get("code").unwrap().as_str(), Some("degraded"));
    }

    #[test]
    fn json_round_trip_is_exact() {
        let report = build_sample(&MemorySink::new());
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        // Everything in the JSON document round-trips exactly — including
        // timings, so the checkpoint-embedded report is the report.
        assert_eq!(parsed, report);
        assert!(parsed.structural_eq(&report));
    }

    #[test]
    fn json_round_trip_of_empty_report() {
        let report = RunReport::default();
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        for bad in [
            "",
            "{}",
            "{\"total_us\": 1}",
            "{\"total_us\": 1, \"setup\": [], \"iterations\": [{}], \"warnings\": []}",
        ] {
            assert!(RunReport::from_json(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn resumed_builder_extends_the_prior_report() {
        let sink = MemorySink::new();
        let prior = build_sample(&sink);
        let prior_iters = prior.iterations.len();
        let prior_warns = prior.warnings.len();
        let prior_total = prior.total_us;

        let mut b = ReportBuilder::resume(&sink, prior);
        let snap = b.snapshot();
        assert_eq!(snap.iterations.len(), prior_iters);
        b.begin_iteration(prior_iters);
        {
            let mut g = b.stage(stages::GENERATE);
            g.set_flow(8, 8);
        }
        b.end_iteration("completed");
        let report = b.finish();
        assert_eq!(report.iterations.len(), prior_iters + 1);
        assert_eq!(report.iterations[prior_iters].iteration, prior_iters);
        assert_eq!(report.warnings.len(), prior_warns);
        assert!(report.total_us >= prior_total, "total accumulates across segments");
    }

    #[test]
    fn table_renders_stages_and_waterfall() {
        let report = build_sample(&MemorySink::new());
        let table = report.render_table();
        assert!(table.contains(stages::IV_FILTER), "{table}");
        assert!(table.contains("waterfall: generated 12"), "{table}");
        assert!(table.contains("warn["), "{table}");
    }

    #[test]
    fn waterfall_consistency_check() {
        let mut w = Waterfall { generated: 10, candidates: 14, post_iv: 6, post_redundancy: 4, selected: 4 };
        assert!(w.is_consistent());
        w.post_iv = 20;
        assert!(!w.is_consistent());
    }

    #[test]
    fn structural_eq_ignores_timings_and_threads() {
        let a = build_sample(&MemorySink::new());
        let mut b = a.clone();
        assert!(a.structural_eq(&b), "a report equals itself structurally");

        // Wall-clock fields never affect structural equality.
        b.total_us = a.total_us.wrapping_add(12345);
        b.iterations[0].micros = 999_999;
        b.iterations[0].stages[0].micros = 123;
        b.setup[0].micros = 456;
        assert!(a.structural_eq(&b), "timings are execution-environment values");

        // The `threads` counter is a worker budget, not a result.
        b.iterations[0].stages[0].counters.push(("threads".into(), 4));
        assert!(a.structural_eq(&b), "threads counter is ignored");

        // Cache hit/miss counters describe reuse, not results: a warm run
        // and a cold run of the same pipeline stay structurally equal.
        b.iterations[0].stages[0].counters.push(("cache_bin_hits".into(), 7));
        b.iterations[0].stages[0].counters.push(("cache_iv_misses".into(), 3));
        assert!(a.structural_eq(&b), "cache_* counters are ignored");

        // The out-of-core backend's chunk-cache traffic is placement, not
        // computation: a spilled run equals its resident twin.
        b.iterations[0].stages[0].counters.push(("oocore_chunk_hits".into(), 11));
        assert!(a.structural_eq(&b), "oocore_* counters are ignored");
        b.setup.push(StageTelemetry {
            stage: stages::OOCORE.into(),
            counters: vec![("oocore_peak_resident_bytes".into(), 4096)],
            ..StageTelemetry::default()
        });
        assert!(a.structural_eq(&b), "the oocore setup stage is ignored");

        // Any computed counter difference breaks equality…
        let mut c = a.clone();
        c.iterations[0].stages[0].counters[0].1 += 1;
        assert!(!a.structural_eq(&c), "computed counters must match");
        // …as do waterfall, status, flow, and warning differences.
        let mut d = a.clone();
        d.iterations[0].waterfall.selected += 1;
        assert!(!a.structural_eq(&d));
        let mut e = a.clone();
        e.iterations[0].status = "degraded".into();
        assert!(!a.structural_eq(&e));
        let mut f = a.clone();
        f.iterations[0].stages[0].features_out += 1;
        assert!(!a.structural_eq(&f));
        let mut g = a.clone();
        g.warnings.clear();
        assert!(!a.structural_eq(&g));
        let mut h = a.clone();
        h.iterations.clear();
        assert!(!a.structural_eq(&h));
    }

    #[test]
    fn builder_snapshots_stage_latency_histograms() {
        let report = build_sample(&MemorySink::new());
        assert!(!report.metrics.is_empty());
        let h = report
            .metrics
            .histogram("stage_us", &[("stage", stages::IV_FILTER)])
            .expect("iv-filter latency histogram");
        assert_eq!(h.count(), 1);
        let it = report.metrics.histogram("iteration_us", &[]).expect("iteration histogram");
        assert_eq!(it.count(), 1);
        // The metrics section lands in the JSON document…
        assert!(report.to_json().contains("\"metrics\""));
        // …but is ignored by from_json and by equality (the checkpoint
        // round-trip contract).
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert!(parsed.metrics.is_empty());
        assert_eq!(parsed, report);
    }

    #[test]
    fn report_equality_ignores_metrics() {
        let a = build_sample(&MemorySink::new());
        let mut b = a.clone();
        b.metrics = MetricsSnapshot::default();
        assert_eq!(a, b, "metrics are excluded from ==");
        let mut c = a.clone();
        c.total_us += 1;
        assert_ne!(a, c, "other fields still participate");
    }

    #[test]
    fn table_shows_percent_share() {
        let mut report = build_sample(&MemorySink::new());
        report.total_us = 10_000;
        report.iterations[0].stages[0].micros = 2_500;
        let table = report.render_table();
        assert!(table.contains("pct"), "{table}");
        assert!(table.contains("25.0%"), "{table}");
    }

    #[test]
    fn dropping_guard_mid_iteration_balances_spans() {
        let sink = MemorySink::new();
        let mut b = ReportBuilder::new(&sink);
        b.begin_iteration(0);
        {
            let _g = b.stage(stages::GBM_TRAIN);
            // simulated early exit: guard dropped without explicit close
        }
        b.end_iteration("degraded");
        let _ = b.finish();
        let events = sink.events();
        let starts = events.iter().filter(|e| e.kind == EventKind::StageStart).count();
        let ends = events.iter().filter(|e| e.kind == EventKind::StageEnd).count();
        assert_eq!(starts, ends);
    }
}
