//! Subcommand implementations.

use std::sync::Arc;
use std::time::Instant;

use safe_core::explain::{explain_plan, explanation_report};
use safe_core::plan::FeaturePlan;
use safe_core::safe::IterationStatus;
use safe_core::{Safe, SafeConfig, SelectionMode};
use safe_data::chunk::ChunkOptions;
use safe_data::csv::{read_csv, read_csv_chunked, write_csv};
use safe_gbm::GbmConfig;
use safe_obs::{Event, EventKind, EventSink, FanoutSink, JsonlSink, MemorySink, SinkHandle};
use safe_ops::registry::OperatorRegistry;
use safe_serve::{SafeArtifact, ScorerHandle};

use crate::args::Args;
use crate::error::CliError;

const USAGE: &str = "\
safe-cli — SAFE automatic feature engineering (ICDE 2020 reproduction)

USAGE:
  safe-cli fit     --input train.csv [--valid valid.csv] --plan out.safeplan
                   [--label label] [--gamma 30] [--alpha 0.1] [--theta 0.8]
                   [--iterations 1] [--multiplier 2] [--seed 0] [--full-ops]
                   [--audit warn|repair|reject] [--threads N]
                   [--selection exact|staged]
                   [--checkpoint-dir DIR] [--checkpoint-every N]
                   [--chunk-rows N] [--spill-dir DIR] [--resident-chunks N]
                   [--trace-jsonl trace.jsonl] [--report-json report.json]
                   [--report]
                   ('train' is an alias for 'fit')
  safe-cli resume  --checkpoint-dir DIR --input train.csv --plan out.safeplan
                   [all 'fit' flags]     # continue an interrupted fit
  safe-cli apply   --plan plan.safeplan --input data.csv --output out.csv
                   [--label label]
  safe-cli explain --plan plan.safeplan [--input data.csv] [--label label]
  safe-cli score   --input data.csv [--label label]
  safe-cli score   --artifact model.safeartifact --input data.csv
                   [--label label] [--threads N] [--batch-size 1024]
                   [--output scores.csv]
  safe-cli save-artifact --plan plan.safeplan --input train.csv
                   [--valid valid.csv] --artifact model.safeartifact
                   [--label label] [--rounds 100] [--seed 0] [--threads N]
                   [--full-ops] [--chunk-rows N] [--spill-dir DIR]
                   [--resident-chunks N]
  safe-cli serve   --artifact model.safeartifact [--input requests.jsonl]
                   [--output responses.jsonl] [--follow] [--workers N]
                   [--max-batch 256] [--queue-capacity 4096]
  safe-cli bench-serve [--artifact model.safeartifact] [--requests 20000]
                   [--workers 1,2,4] [--max-batch 256] [--seed 42]
                   [--dataset NAME] [--pipeline-out PATH]
  safe-cli trace-check --input trace.jsonl [--format jsonl|chrome]
  safe-cli bench-diff old.json new.json [--fail-over 20]

SERVING:
  save-artifact        train a scoring booster on the plan's features and
                       bundle plan + booster + schema into one versioned,
                       checksummed artifact file
  score --artifact     batch-score a CSV with a saved artifact; prints the
                       AUC at full precision when a label column is present
                       (bit-identical to the AUC recorded at save time, for
                       the same data, at any --threads / --batch-size)
  serve                long-lived scoring daemon: JSONL requests in (stdin,
                       or --input FILE; --follow tails the file), one JSON
                       response per line in submission order, each stamped
                       with the artifact version that scored it; a
                       {\"swap\":\"path\"} record hot-swaps the artifact with
                       zero downtime, {\"shutdown\":true} drains and exits
  bench-serve          drive the daemon with single-row submissions at
                       several worker counts, assert streamed scores match
                       the offline scorer bit-for-bit, and record the
                       serving_daemon section of BENCH_pipeline.json

TELEMETRY:
  --trace-jsonl PATH   stream pipeline events (one JSON object per line:
                       ts_us, event, stage, ...) to PATH during the fit
  --report-json PATH   write the per-stage/per-iteration run report as JSON
  --report             print the run report as a table on stderr (the pct
                       column is each stage's share of total wall time)
  trace-check          validate a --trace-jsonl file (schema + event kinds);
                       --format chrome validates a --trace-chrome JSON file

METRICS & PROFILING:
  --metrics-prom PATH  write fit metrics (latency histograms per stage,
                       iteration, boosting round and checkpoint write) in
                       Prometheus text exposition format
  --trace-chrome PATH  write the event stream as Chrome trace-event JSON
                       (load in Perfetto: ui.perfetto.dev, 'Open trace')
  --flame-folded PATH  write folded stacks (stage;substage self_us) for
                       flamegraph.pl / inferno / speedscope
  bench-diff           compare two BENCH_pipeline.json timing documents;
                       exits 8 when any metric regressed past --fail-over
                       percent (default 20)

THREADING:
  --threads N          worker threads for the parallel stages (0 = auto,
                       the default; 1 = serial). Results are bit-identical
                       for every N — see DESIGN.md, \"Parallel execution\"

SELECTION:
  --selection MODE     candidate selection mode: 'exact' (default; the
                       paper's full IV/Pearson/gain pass over every
                       candidate, bit-identical to prior releases) or
                       'staged' (successive-halving pruner: cheap IV on
                       growing row subsamples narrows the pool before the
                       exact pass runs on the finalists; AUC parity within
                       ±0.005 — see DESIGN.md, \"Staged selection\")

OUT-OF-CORE (see DESIGN.md, \"Out-of-core backend\"):
  --chunk-rows N       ingest the training CSV as fixed N-row chunks via
                       the streaming reader (the full table is never
                       materialized during parsing); plans, reports and
                       AUC are bit-identical to resident fits
  --spill-dir DIR      keep chunks past the resident budget in spill files
                       under DIR (a unique subdirectory is created and
                       removed when the dataset is dropped)
  --resident-chunks N  decoded-chunk LRU budget per store when spilling
                       (default 16; requires --spill-dir)

CRASH SAFETY:
  --checkpoint-dir DIR write a durable SAFECKPT snapshot after each
                       completed iteration (atomic: temp file, fsync,
                       rename); a killed fit resumes with 'resume'
  --checkpoint-every N snapshot stride in iterations (default 1; the
                       terminal snapshot is always written)
  resume               continue from the newest loadable checkpoint to the
                       same final plan, bit-identical to an uninterrupted
                       run; torn/corrupt files are quarantined (*.corrupt)
                       and the previous good snapshot is used

EXIT CODES (authoritative table — DESIGN.md and README defer here):
  0 success           2 usage             3 file i/o
  4 bad input data    5 bad plan          6 pipeline rejected the run
  7 unrecoverable checkpoint state (all candidates corrupt, fingerprint
    mismatch, or missing checkpoint directory)
  8 bench-diff found a benchmark regression past the threshold
";

/// Dispatch the parsed command line.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv).map_err(CliError::Usage)?;
    match args.command.as_deref() {
        Some("fit") | Some("train") => fit(&args, false),
        Some("resume") => fit(&args, true),
        Some("apply") => apply(&args),
        Some("explain") => explain(&args),
        Some("save-artifact") => save_artifact(&args),
        Some("score") if args.get("artifact").is_some() => score_artifact(&args),
        Some("score") => score(&args),
        Some("serve") => crate::serve::serve(&args),
        Some("bench-serve") => crate::serve::bench_serve(&args),
        Some("trace-check") => trace_check(&args),
        Some("bench-diff") => bench_diff(&args),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown command '{other}'\n{USAGE}"))),
    }
}

/// Prints `warn` telemetry events (degraded iterations, audit findings,
/// failpoint trips) to stderr as they happen; ignores everything else.
struct StderrWarnSink;

impl EventSink for StderrWarnSink {
    fn record(&self, event: &Event) {
        if event.kind != EventKind::Warn {
            return;
        }
        match event.iteration {
            Some(i) => eprintln!(
                "  warn[{} iter {}] {}: {}",
                event.stage, i, event.name, event.message
            ),
            None => eprintln!("  warn[{}] {}: {}", event.stage, event.name, event.message),
        }
    }
}

fn registry(args: &Args) -> OperatorRegistry {
    if args.switch("full-ops") {
        OperatorRegistry::standard()
    } else {
        OperatorRegistry::arithmetic()
    }
}

fn audit_config(args: &Args) -> Result<safe_data::AuditConfig, CliError> {
    let policy = match args.get("audit") {
        None | Some("warn") => safe_data::AuditPolicy::Warn,
        Some("repair") => safe_data::AuditPolicy::Repair,
        Some("reject") => safe_data::AuditPolicy::Reject,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "flag --audit: expected warn|repair|reject, got '{other}'"
            )))
        }
    };
    Ok(safe_data::AuditConfig { policy, ..safe_data::AuditConfig::default() })
}

fn selection_mode(args: &Args) -> Result<SelectionMode, CliError> {
    match args.get("selection") {
        None | Some("exact") => Ok(SelectionMode::Exact),
        Some("staged") => Ok(SelectionMode::Staged),
        Some(other) => Err(CliError::Usage(format!(
            "flag --selection: expected exact|staged, got '{other}'"
        ))),
    }
}

/// Parse the out-of-core backend flags (`--chunk-rows`, `--spill-dir`,
/// `--resident-chunks`). `None` means resident ingest; flag combinations
/// that cannot take effect are usage errors.
fn chunk_options(args: &Args) -> Result<Option<ChunkOptions>, CliError> {
    if args.get("chunk-rows").is_none() {
        if args.get("spill-dir").is_some() || args.get("resident-chunks").is_some() {
            return Err(CliError::Usage(
                "--spill-dir/--resident-chunks require --chunk-rows".into(),
            ));
        }
        return Ok(None);
    }
    let chunk_rows = args.get_or("chunk-rows", 4096usize).map_err(CliError::Usage)?;
    if chunk_rows == 0 {
        return Err(CliError::Usage("--chunk-rows must be at least 1".into()));
    }
    let opts = match args.get("spill-dir") {
        None => {
            if args.get("resident-chunks").is_some() {
                return Err(CliError::Usage(
                    "--resident-chunks requires --spill-dir (without spilling, every chunk stays resident)".into(),
                ));
            }
            ChunkOptions::in_memory(chunk_rows)
        }
        Some(dir) => {
            let resident =
                args.get_or("resident-chunks", 16usize).map_err(CliError::Usage)?;
            if resident == 0 {
                return Err(CliError::Usage("--resident-chunks must be at least 1".into()));
            }
            ChunkOptions::spilled(chunk_rows, resident, dir)
        }
    };
    Ok(Some(opts))
}

/// Load the train (and optional validation) CSVs, through the streaming
/// chunked reader when out-of-core flags are set — the parse never holds
/// the full f64 table — and the resident reader otherwise.
fn read_inputs(
    input: &str,
    valid_path: Option<&str>,
    label: &str,
    chunking: Option<&ChunkOptions>,
) -> Result<(safe_data::dataset::Dataset, Option<safe_data::dataset::Dataset>), CliError> {
    let read = |path: &str| match chunking {
        Some(opts) => read_csv_chunked(path, Some(label), opts.clone())
            .map_err(|e| CliError::Data(e.to_string())),
        None => read_csv(path, Some(label)).map_err(|e| CliError::Data(e.to_string())),
    };
    let train = read(input)?;
    let valid = match valid_path {
        Some(path) => Some(read(path)?),
        None => None,
    };
    Ok((train, valid))
}

/// Post-fit chunk-cache summary for chunked datasets, one line per backing
/// store on stderr.
fn report_chunk_stats(ds: &safe_data::dataset::Dataset) {
    for store in ds.chunk_stores() {
        let st = store.stats();
        eprintln!(
            "oocore: {} chunks x {} rows ({}){}, {} hits / {} loads / {} evictions, peak resident {} bytes",
            store.n_chunks(),
            store.chunk_rows(),
            if store.is_spilled() { "spilled" } else { "in-memory" },
            match store.budget_bytes() {
                Some(b) => format!(", budget {b} bytes"),
                None => String::new(),
            },
            st.hits,
            st.loads,
            st.evictions,
            st.peak_resident_bytes,
        );
    }
}

fn fit(args: &Args, resume: bool) -> Result<(), CliError> {
    args.ensure_known(&[
        "input", "valid", "plan", "label", "gamma", "alpha", "theta",
        "iterations", "multiplier", "seed", "full-ops", "audit",
        "threads", "selection", "checkpoint-dir", "checkpoint-every",
        "chunk-rows", "spill-dir", "resident-chunks",
        "trace-jsonl", "report-json", "report",
        "metrics-prom", "trace-chrome", "flame-folded",
    ])
    .map_err(CliError::Usage)?;
    let input = args.require("input").map_err(CliError::Usage)?;
    let plan_path = args.require("plan").map_err(CliError::Usage)?;
    let label = args.get("label").unwrap_or("label");
    if resume && args.get("checkpoint-dir").is_none() {
        return Err(CliError::Usage("resume requires --checkpoint-dir".into()));
    }

    // Worker budget for the parallel stages; rejected up front so an
    // absurd request is a usage error, not a pipeline failure.
    let threads = args.get_or("threads", 0usize).map_err(CliError::Usage)?;
    safe_stats::par::Parallelism::new(threads)
        .validate()
        .map_err(|e| CliError::Usage(format!("flag --threads: {e}")))?;

    let chunking = chunk_options(args)?;
    let (train, valid) = read_inputs(input, args.get("valid"), label, chunking.as_ref())?;

    // Telemetry: warnings always stream to stderr; --trace-jsonl adds a
    // machine-readable event stream. The profiling exports (--metrics-prom,
    // --trace-chrome, --flame-folded) replay the full event stream after
    // the fit, so they share one in-memory sink.
    let mut sinks: Vec<Arc<dyn EventSink>> = vec![Arc::new(StderrWarnSink)];
    if let Some(path) = args.get("trace-jsonl") {
        let jsonl =
            JsonlSink::to_file(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        sinks.push(Arc::new(jsonl));
    }
    let wants_exports = ["metrics-prom", "trace-chrome", "flame-folded"]
        .iter()
        .any(|f| args.get(f).is_some());
    let mem_sink = if wants_exports {
        let mem = Arc::new(MemorySink::new());
        sinks.push(mem.clone());
        Some(mem)
    } else {
        None
    };
    let fan: Arc<dyn EventSink> = Arc::new(FanoutSink::new(sinks));

    let mut builder = SafeConfig::builder()
        .sink(SinkHandle::new(fan.clone()))
        .gamma(args.get_or("gamma", 30usize).map_err(CliError::Usage)?)
        .alpha(args.get_or("alpha", 0.1f64).map_err(CliError::Usage)?)
        .theta(args.get_or("theta", 0.8f64).map_err(CliError::Usage)?)
        .n_iterations(args.get_or("iterations", 1usize).map_err(CliError::Usage)?)
        .output_multiplier(args.get_or("multiplier", 2usize).map_err(CliError::Usage)?)
        .seed(args.get_or("seed", 0u64).map_err(CliError::Usage)?)
        .operators(registry(args))
        .audit(audit_config(args)?)
        .selection(selection_mode(args)?)
        .threads(threads)
        .checkpoint_every(args.get_or("checkpoint-every", 1usize).map_err(CliError::Usage)?);
    if let Some(dir) = args.get("checkpoint-dir") {
        builder = builder.checkpoint_dir(dir);
    }
    let config = builder.build().map_err(CliError::Usage)?;

    eprintln!(
        "{} SAFE on {} ({} rows x {} features)...",
        if resume { "resuming" } else { "fitting" },
        input,
        train.n_rows(),
        train.n_cols()
    );
    let start = Instant::now();
    let safe = Safe::new(config);
    let outcome = if resume {
        safe.fit_resumed(&train, valid.as_ref())?
    } else {
        safe.fit(&train, valid.as_ref())?
    };
    fan.flush();
    eprintln!(
        "done in {:.2}s: {} features selected ({} generated)",
        start.elapsed().as_secs_f64(),
        outcome.plan.outputs.len(),
        outcome.plan.n_generated_outputs()
    );
    if train.has_chunked_columns() {
        report_chunk_stats(&train);
    }
    for r in &outcome.history {
        match &r.status {
            IterationStatus::Completed => eprintln!(
                "  iter {}: {} combos -> {} generated -> {} after IV -> {} after redundancy -> {} selected",
                r.iteration, r.n_combinations_kept, r.n_generated, r.n_after_iv,
                r.n_after_redundancy, r.n_selected
            ),
            IterationStatus::Degraded { stage, reason } => eprintln!(
                "  iter {}: DEGRADED at {stage} ({reason}); kept {} features",
                r.iteration, r.n_selected
            ),
            IterationStatus::Skipped { reason } => {
                eprintln!("  iter {}: skipped ({reason})", r.iteration)
            }
        }
    }
    if args.switch("report") || args.get("report-json").is_some() {
        eprint!("{}", outcome.report.render_table());
    }
    if let Some(path) = args.get("report-json") {
        std::fs::write(path, outcome.report.to_json())
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        eprintln!("run report written to {path}");
    }
    if let Some(mem) = &mem_sink {
        let events = mem.events();
        if let Some(path) = args.get("metrics-prom") {
            // The report's metrics plus the sink-only checkpoint spans and
            // write latencies, which the report fold skips.
            let snapshot = safe_obs::MetricsSnapshot::from_events(&events);
            std::fs::write(path, safe_obs::render_prometheus(&snapshot))
                .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            eprintln!("prometheus metrics written to {path}");
        }
        if let Some(path) = args.get("trace-chrome") {
            std::fs::write(path, safe_obs::chrome_trace_json(&events))
                .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            eprintln!("chrome trace written to {path} (open at ui.perfetto.dev)");
        }
        if let Some(path) = args.get("flame-folded") {
            std::fs::write(path, safe_obs::folded_stacks(&events))
                .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            eprintln!("folded stacks written to {path}");
        }
    }
    std::fs::write(plan_path, outcome.plan.to_text())
        .map_err(|e| CliError::Io(format!("{plan_path}: {e}")))?;
    eprintln!("plan written to {plan_path}");
    Ok(())
}

/// Validate a telemetry export. The default (`--format jsonl`) checks a
/// `--trace-jsonl` file: every non-empty line must parse as a JSON object
/// carrying `ts_us`, `event` (a known kind), and `stage`. With
/// `--format chrome` the input is a `--trace-chrome` JSON document instead,
/// validated structurally (Perfetto-loadable trace-event array).
fn trace_check(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&["input", "format"]).map_err(CliError::Usage)?;
    let input = args.require("input").map_err(CliError::Usage)?;
    match args.get("format") {
        None | Some("jsonl") => {}
        Some("chrome") => {
            let text = std::fs::read_to_string(input)
                .map_err(|e| CliError::Io(format!("{input}: {e}")))?;
            let summary = safe_obs::validate_chrome_trace(&text)
                .map_err(|e| CliError::Data(format!("{input}: {e}")))?;
            println!(
                "{input}: {} trace events OK ({} spans, {} counter samples, {} instants)",
                summary.events, summary.spans, summary.counters, summary.instants
            );
            return Ok(());
        }
        Some(other) => {
            return Err(CliError::Usage(format!(
                "flag --format: expected jsonl|chrome, got '{other}'"
            )))
        }
    }
    let text =
        std::fs::read_to_string(input).map_err(|e| CliError::Io(format!("{input}: {e}")))?;
    let mut n_events = 0usize;
    let mut n_warns = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let value = safe_obs::json::parse(line)
            .map_err(|e| CliError::Data(format!("{input}:{lineno}: invalid JSON: {e}")))?;
        let obj = value
            .as_object()
            .ok_or_else(|| CliError::Data(format!("{input}:{lineno}: not a JSON object")))?;
        for key in ["ts_us", "event", "stage"] {
            if !obj.iter().any(|(k, _)| k == key) {
                return Err(CliError::Data(format!(
                    "{input}:{lineno}: missing required key '{key}'"
                )));
            }
        }
        if value.get("ts_us").and_then(|v| v.as_u64()).is_none() {
            return Err(CliError::Data(format!("{input}:{lineno}: ts_us is not an integer")));
        }
        let kind = value
            .get("event")
            .and_then(|v| v.as_str())
            .and_then(EventKind::parse)
            .ok_or_else(|| {
                CliError::Data(format!("{input}:{lineno}: unknown event kind"))
            })?;
        if kind == EventKind::Warn {
            n_warns += 1;
        }
        n_events += 1;
    }
    if n_events == 0 {
        return Err(CliError::Data(format!("{input}: no events")));
    }
    println!("{input}: {n_events} events OK ({n_warns} warnings)");
    Ok(())
}

/// `bench-diff old.json new.json [--fail-over pct]` — the bench regression
/// gate over two `BENCH_pipeline.json` documents (see [`crate::benchdiff`]).
fn bench_diff(args: &Args) -> Result<(), CliError> {
    args.ensure_known_with_positionals(&["fail-over"], 2)
        .map_err(|e| CliError::Usage(format!("bench-diff: {e} (want: old.json new.json)")))?;
    let fail_over = args
        .get_or("fail-over", crate::benchdiff::DEFAULT_FAIL_OVER_PCT)
        .map_err(CliError::Usage)?;
    if fail_over.is_nan() || fail_over < 0.0 {
        return Err(CliError::Usage("flag --fail-over: must be >= 0".into()));
    }
    crate::benchdiff::run(&args.positionals()[0], &args.positionals()[1], fail_over)
}

fn load_plan(path: &str) -> Result<FeaturePlan, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    FeaturePlan::from_text(&text).map_err(|e| CliError::Plan(format!("{path}: {e}")))
}

fn apply(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&["plan", "input", "output", "label", "full-ops"])
        .map_err(CliError::Usage)?;
    let plan = load_plan(args.require("plan").map_err(CliError::Usage)?)?;
    let input = args.require("input").map_err(CliError::Usage)?;
    let output = args.require("output").map_err(CliError::Usage)?;
    let label = args.get("label").unwrap_or("label");

    // Label column optional at apply time (inference data is unlabeled).
    let ds = read_csv(input, Some(label))
        .or_else(|_| read_csv(input, None))
        .map_err(|e| CliError::Data(e.to_string()))?;
    let compiled = plan
        .compile(&OperatorRegistry::standard())
        .map_err(|e| CliError::Plan(e.to_string()))?;
    let out = compiled.apply(&ds).map_err(|e| CliError::Plan(e.to_string()))?;
    write_csv(&out, output).map_err(|e| CliError::Io(format!("{output}: {e}")))?;
    eprintln!(
        "{}: {} rows x {} engineered features -> {}",
        input,
        out.n_rows(),
        out.n_cols(),
        output
    );
    Ok(())
}

fn explain(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&["plan", "input", "label"]).map_err(CliError::Usage)?;
    let plan = load_plan(args.require("plan").map_err(CliError::Usage)?)?;
    let reference = match args.get("input") {
        Some(path) => {
            let label = args.get("label").unwrap_or("label");
            Some(read_csv(path, Some(label)).map_err(|e| CliError::Data(e.to_string()))?)
        }
        None => None,
    };
    let explanations = explain_plan(&plan, reference.as_ref());
    print!("{}", explanation_report(&explanations));
    Ok(())
}

/// Train the scoring booster over a fitted plan's features and save a
/// versioned, checksummed [`SafeArtifact`] (plan + booster + schema).
fn save_artifact(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&[
        "plan", "input", "valid", "artifact", "label", "rounds", "seed", "threads", "full-ops",
        "chunk-rows", "spill-dir", "resident-chunks",
    ])
    .map_err(CliError::Usage)?;
    let plan_path = args.require("plan").map_err(CliError::Usage)?;
    let input = args.require("input").map_err(CliError::Usage)?;
    let artifact_path = args.require("artifact").map_err(CliError::Usage)?;
    let label = args.get("label").unwrap_or("label");

    // Flags are validated before any file is touched, so a bad command line
    // is always a usage error regardless of what exists on disk.
    let threads = args.get_or("threads", 0usize).map_err(CliError::Usage)?;
    safe_stats::par::Parallelism::new(threads)
        .validate()
        .map_err(|e| CliError::Usage(format!("flag --threads: {e}")))?;

    let plan = load_plan(plan_path)?;
    let chunking = chunk_options(args)?;
    let (train, valid) = read_inputs(input, args.get("valid"), label, chunking.as_ref())?;

    let defaults = GbmConfig::classifier();
    let config = GbmConfig {
        n_rounds: args.get_or("rounds", defaults.n_rounds).map_err(CliError::Usage)?,
        seed: args.get_or("seed", defaults.seed).map_err(CliError::Usage)?,
        parallelism: safe_stats::par::Parallelism::new(threads),
        ..defaults
    };

    eprintln!(
        "training scoring booster on {} ({} rows, {} plan outputs)...",
        input,
        train.n_rows(),
        plan.outputs.len()
    );
    let start = Instant::now();
    let artifact = SafeArtifact::train(&plan, &registry(args), &train, valid.as_ref(), &config)?;
    artifact.save(artifact_path)?;
    eprintln!(
        "artifact written to {} in {:.2}s ({} rounds)",
        artifact_path,
        start.elapsed().as_secs_f64(),
        config.n_rounds
    );
    if let Some(auc) = artifact.val_auc {
        // Full precision so downstream `score` runs can be checked
        // bit-for-bit against the value recorded here.
        println!("validation AUC {auc:.17}");
    }
    Ok(())
}

/// Batch-score a CSV with a saved artifact. Prints the AUC (full precision)
/// when a label column is present; `--output` writes one `score` column.
fn score_artifact(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&["artifact", "input", "label", "threads", "batch-size", "output"])
        .map_err(CliError::Usage)?;
    let artifact_path = args.require("artifact").map_err(CliError::Usage)?;
    let input = args.require("input").map_err(CliError::Usage)?;
    let label = args.get("label").unwrap_or("label");

    let threads = args.get_or("threads", 0usize).map_err(CliError::Usage)?;
    safe_stats::par::Parallelism::new(threads)
        .validate()
        .map_err(|e| CliError::Usage(format!("flag --threads: {e}")))?;
    let batch_size = args
        .get_positive("batch-size", safe_serve::DEFAULT_BATCH_SIZE)
        .map_err(CliError::Usage)?;

    let artifact = SafeArtifact::load(artifact_path)?;
    // Label column optional at scoring time (production data is unlabeled).
    let ds = read_csv(input, Some(label))
        .or_else(|_| read_csv(input, None))
        .map_err(|e| CliError::Data(e.to_string()))?;

    let scorer = ScorerHandle::new(&artifact, &OperatorRegistry::standard())?
        .with_threads(threads)
        .with_batch_size(batch_size);
    let (scores, report) = scorer.score_dataset(&ds)?;
    eprintln!(
        "{input}: {} rows in {} batches of {} on {} thread(s), {:.0} rows/s",
        report.rows, report.batches, report.batch_size, report.threads, report.rows_per_sec
    );

    if let Some(labels) = ds.labels() {
        let auc = safe_stats::auc::auc(&scores, labels);
        // Full precision: must reproduce the artifact's recorded validation
        // AUC bit-for-bit when scoring the same validation file.
        println!("AUC {auc:.17}");
    }
    if let Some(out_path) = args.get("output") {
        let out = safe_data::dataset::Dataset::from_columns(
            vec!["score".to_string()],
            vec![scores],
            None,
        )
        .map_err(|e| CliError::Data(e.to_string()))?;
        write_csv(&out, out_path).map_err(|e| CliError::Io(format!("{out_path}: {e}")))?;
        eprintln!("scores written to {out_path}");
    }
    Ok(())
}

fn score(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&["input", "label"]).map_err(CliError::Usage)?;
    let input = args.require("input").map_err(CliError::Usage)?;
    let label = args.get("label").unwrap_or("label");
    let ds = read_csv(input, Some(label)).map_err(|e| CliError::Data(e.to_string()))?;
    let labels = ds
        .labels()
        .ok_or_else(|| CliError::Data("score requires a label column".to_string()))?;
    let mut rows: Vec<(String, f64)> = ds
        .meta()
        .iter()
        .zip(ds.columns())
        .map(|(meta, col)| {
            let iv = safe_stats::iv::information_value(col, labels, 10).unwrap_or(0.0);
            (meta.name.clone(), iv)
        })
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let name_w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(7).max(7);
    println!("{:<name_w$}  {:>8}  band", "feature", "IV");
    for (name, iv) in rows {
        println!(
            "{name:<name_w$}  {iv:>8.4}  {}",
            safe_stats::iv::IvBand::of(iv).description()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("safe_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_training_csv(path: &std::path::Path) {
        // Label depends on a*b: SAFE should find an (a,b) feature.
        let mut text = String::from("a,b,noise,label\n");
        for i in 0..400 {
            let a = ((i * 37) % 100) as f64 / 50.0 - 1.0;
            let b = ((i * 61) % 100) as f64 / 50.0 - 1.0;
            let noise = ((i * 17) % 100) as f64;
            let y = (a * b > 0.0) as u8;
            text.push_str(&format!("{a},{b},{noise},{y}\n"));
        }
        std::fs::write(path, text).unwrap();
    }

    #[test]
    fn fit_apply_explain_round_trip() {
        let train = tmp("train.csv");
        let plan = tmp("plan.safeplan");
        let out = tmp("out.csv");
        write_training_csv(&train);

        run(&argv(&format!(
            "fit --input {} --plan {} --seed 3",
            train.display(),
            plan.display()
        )))
        .unwrap();
        assert!(plan.exists());

        run(&argv(&format!(
            "apply --plan {} --input {} --output {}",
            plan.display(),
            train.display(),
            out.display()
        )))
        .unwrap();
        let transformed = read_csv(&out, Some("label")).unwrap();
        assert!(transformed.n_cols() >= 1);
        assert_eq!(transformed.n_rows(), 400);

        run(&argv(&format!("explain --plan {}", plan.display()))).unwrap();
    }

    #[test]
    fn fit_with_repair_policy_runs() {
        let train = tmp("train_repair.csv");
        let plan = tmp("plan_repair.safeplan");
        // Add a constant column the audit should repair away.
        let mut text = String::from("a,b,konst,label\n");
        for i in 0..300 {
            let a = ((i * 37) % 100) as f64 / 50.0 - 1.0;
            let b = ((i * 61) % 100) as f64 / 50.0 - 1.0;
            let y = (a * b > 0.0) as u8;
            text.push_str(&format!("{a},{b},7,{y}\n"));
        }
        std::fs::write(&train, text).unwrap();
        run(&argv(&format!(
            "fit --input {} --plan {} --audit repair",
            train.display(),
            plan.display()
        )))
        .unwrap();
        let plan_text = std::fs::read_to_string(&plan).unwrap();
        assert!(!plan_text.contains("konst"), "repaired column must not appear");
    }

    #[test]
    fn train_alias_with_telemetry_flags() {
        let train = tmp("train_telemetry.csv");
        let plan = tmp("plan_telemetry.safeplan");
        let trace = tmp("trace.jsonl");
        let report = tmp("report.json");
        write_training_csv(&train);

        run(&argv(&format!(
            "train --input {} --plan {} --seed 3 --trace-jsonl {} --report-json {} --report",
            train.display(),
            plan.display(),
            trace.display(),
            report.display()
        )))
        .unwrap();

        // The trace validates under its own checker.
        run(&argv(&format!("trace-check --input {}", trace.display()))).unwrap();

        // The report parses and carries at least one completed iteration
        // with the full core stage set.
        let text = std::fs::read_to_string(&report).unwrap();
        let v = safe_obs::json::parse(&text).unwrap();
        let iterations = v.get("iterations").and_then(|x| x.as_array().map(<[_]>::to_vec)).unwrap();
        assert!(!iterations.is_empty());
        let it0 = &iterations[0];
        assert_eq!(it0.get("status").and_then(|s| s.as_str()), Some("completed"));
        let stages: Vec<String> = it0
            .get("stages")
            .and_then(|s| s.as_array().map(<[_]>::to_vec))
            .unwrap()
            .iter()
            .filter_map(|s| s.get("stage").and_then(|n| n.as_str()).map(String::from))
            .collect();
        for want in safe_obs::stages::CORE {
            assert!(stages.contains(&want.to_string()), "missing stage {want}: {stages:?}");
        }
    }

    #[test]
    fn threads_flag_is_deterministic_and_one_falls_back_to_serial() {
        let train = tmp("train_threads.csv");
        write_training_csv(&train);
        // threads=1 (explicit serial), threads=4 (parallel), and the
        // auto default must all emit byte-identical plans.
        let mut plans = Vec::new();
        for (name, flag) in
            [("t1.safeplan", "--threads 1"), ("t4.safeplan", "--threads 4"), ("t0.safeplan", "")]
        {
            let plan = tmp(name);
            run(&argv(&format!(
                "fit --input {} --plan {} --seed 3 {flag}",
                train.display(),
                plan.display()
            )))
            .unwrap();
            plans.push(std::fs::read_to_string(&plan).unwrap());
        }
        assert_eq!(plans[0], plans[1], "threads=1 and threads=4 plans differ");
        assert_eq!(plans[0], plans[2], "explicit and auto plans differ");
    }

    #[test]
    fn threads_flag_rejects_absurd_values() {
        let train = tmp("train_threads_bad.csv");
        write_training_csv(&train);
        let plan = tmp("never_written.safeplan");
        for bad in ["100000", "1000000000", "-2", "four"] {
            let err = run(&argv(&format!(
                "fit --input {} --plan {} --threads {bad}",
                train.display(),
                plan.display()
            )))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "--threads {bad} must be a usage error");
        }
        assert!(!plan.exists(), "rejected run must not write a plan");
    }

    #[test]
    fn trace_check_rejects_garbage() {
        let bad = tmp("bad_trace.jsonl");
        std::fs::write(&bad, "{\"ts_us\":1}\n").unwrap();
        let err = run(&argv(&format!("trace-check --input {}", bad.display()))).unwrap_err();
        assert_eq!(err.exit_code(), 4);
        std::fs::write(&bad, "not json\n").unwrap();
        assert!(run(&argv(&format!("trace-check --input {}", bad.display()))).is_err());
    }

    /// The profiling exports: one fit emits a Perfetto-loadable Chrome
    /// trace (validated by `trace-check --format chrome`), a Prometheus
    /// exposition with stage latency histograms, and folded flamegraph
    /// stacks — and none of it changes the fitted plan.
    #[test]
    fn fit_with_profiling_exports() {
        let train = tmp("train_profiling.csv");
        let plan = tmp("plan_profiling.safeplan");
        let plan_plain = tmp("plan_plain.safeplan");
        let chrome = tmp("trace_chrome.json");
        let prom = tmp("metrics.prom");
        let folded = tmp("stacks.folded");
        write_training_csv(&train);

        run(&argv(&format!(
            "fit --input {} --plan {} --seed 3 --trace-chrome {} --metrics-prom {} --flame-folded {}",
            train.display(),
            plan.display(),
            chrome.display(),
            prom.display(),
            folded.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "fit --input {} --plan {} --seed 3",
            train.display(),
            plan_plain.display()
        )))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&plan).unwrap(),
            std::fs::read_to_string(&plan_plain).unwrap(),
            "profiling exports must not change the fit"
        );

        // Chrome trace validates under the chrome checker and fails the
        // jsonl checker (it is one JSON document, not JSONL events).
        run(&argv(&format!(
            "trace-check --input {} --format chrome",
            chrome.display()
        )))
        .unwrap();
        assert!(run(&argv(&format!("trace-check --input {}", chrome.display()))).is_err());

        // Prometheus exposition carries the stage latency histograms with
        // TYPE metadata and the mandatory +Inf bucket.
        let prom_text = std::fs::read_to_string(&prom).unwrap();
        assert!(prom_text.contains("# TYPE safe_stage_us histogram"), "{prom_text}");
        assert!(prom_text.contains("safe_stage_us_bucket{"), "{prom_text}");
        assert!(prom_text.contains("le=\"+Inf\""), "{prom_text}");
        assert!(prom_text.contains("safe_gbm_round_us"), "sink-only observations must export");

        // Folded stacks nest stages under the iteration frame.
        let folded_text = std::fs::read_to_string(&folded).unwrap();
        assert!(
            folded_text.lines().any(|l| l.starts_with("iteration;") && l.contains("gbm-train")),
            "{folded_text}"
        );
    }

    #[test]
    fn trace_check_format_flag_validates() {
        let bad = tmp("bad_chrome.json");
        std::fs::write(&bad, "{\"traceEvents\": [{\"ph\":\"X\"}]}").unwrap();
        let err = run(&argv(&format!(
            "trace-check --input {} --format chrome",
            bad.display()
        )))
        .unwrap_err();
        assert_eq!(err.exit_code(), 4);
        assert_eq!(
            run(&argv(&format!("trace-check --input {} --format yaml", bad.display())))
                .unwrap_err()
                .exit_code(),
            2
        );
    }

    /// The bench regression gate: self-compare passes, an injected 50%
    /// slowdown fails with exit code 8.
    #[test]
    fn bench_diff_gates_regressions() {
        let old = tmp("bench_old.json");
        let new_ok = tmp("bench_new_ok.json");
        let new_bad = tmp("bench_new_bad.json");
        let baseline = r#"{"schema_version": 2,
            "stages": [{"dataset":"toy","iteration":0,"stage":"gbm-train","millis":100.0,"features_in":4,"features_out":4}],
            "parallel": [{"dataset":"toy","threads":4,"secs":2.0,"speedup_vs_serial":2.0}]}"#;
        std::fs::write(&old, baseline).unwrap();
        std::fs::write(&new_ok, baseline).unwrap();
        std::fs::write(&new_bad, baseline.replace("\"millis\":100.0", "\"millis\":150.0")).unwrap();

        // Self-compare: clean exit.
        run(&argv(&format!("bench-diff {} {}", old.display(), new_ok.display()))).unwrap();

        // +50% on a metric above the noise floor: exit 8.
        let err = run(&argv(&format!("bench-diff {} {}", old.display(), new_bad.display())))
            .unwrap_err();
        assert_eq!(err.exit_code(), 8, "{err}");
        assert!(matches!(err, CliError::BenchRegression(_)));
        assert!(err.to_string().contains("gbm-train"), "{err}");

        // A looser threshold waves the same change through.
        run(&argv(&format!(
            "bench-diff {} {} --fail-over 75",
            old.display(),
            new_bad.display()
        )))
        .unwrap();

        // Wrong operand count is a usage error.
        assert_eq!(
            run(&argv(&format!("bench-diff {}", old.display()))).unwrap_err().exit_code(),
            2
        );
        // Missing file is io.
        assert_eq!(
            run(&argv(&format!("bench-diff {} /nonexistent.json", old.display())))
                .unwrap_err()
                .exit_code(),
            3
        );
    }

    /// PR 2-era JSONL traces (no `observe` events) must still validate —
    /// the checker accepts new event kinds without rejecting old streams.
    #[test]
    fn trace_check_accepts_pr2_era_jsonl() {
        let old_trace = tmp("pr2_trace.jsonl");
        std::fs::write(
            &old_trace,
            concat!(
                "{\"ts_us\":1,\"event\":\"stage_start\",\"stage\":\"gbm-train\",\"iteration\":0}\n",
                "{\"ts_us\":9,\"event\":\"counter\",\"stage\":\"gbm-train\",\"iteration\":0,\"name\":\"trees\",\"value\":3}\n",
                "{\"ts_us\":12,\"event\":\"stage_end\",\"stage\":\"gbm-train\",\"iteration\":0,\"value\":11}\n",
                "{\"ts_us\":14,\"event\":\"warn\",\"stage\":\"audit\",\"name\":\"konst\",\"message\":\"constant column\"}\n",
            ),
        )
        .unwrap();
        run(&argv(&format!("trace-check --input {}", old_trace.display()))).unwrap();

        // And the modern stream with observe events also validates.
        let new_trace = tmp("pr7_trace.jsonl");
        std::fs::write(
            &new_trace,
            "{\"ts_us\":3,\"event\":\"observe\",\"stage\":\"gbm-train\",\"iteration\":0,\"name\":\"gbm_round_us\",\"value\":812}\n",
        )
        .unwrap();
        run(&argv(&format!("trace-check --input {}", new_trace.display()))).unwrap();
    }

    #[test]
    fn score_runs() {
        let train = tmp("score.csv");
        write_training_csv(&train);
        run(&argv(&format!("score --input {}", train.display()))).unwrap();
    }

    #[test]
    fn unknown_command_and_flags_error() {
        assert!(run(&argv("frobnicate")).is_err());
        assert!(run(&argv("fit --bogus 1")).is_err());
        assert!(run(&argv("fit")).unwrap_err().to_string().contains("--input"));
    }

    #[test]
    fn errors_classify_to_distinct_exit_codes() {
        // usage (2)
        assert_eq!(run(&argv("fit")).unwrap_err().exit_code(), 2);
        assert_eq!(run(&argv("frobnicate")).unwrap_err().exit_code(), 2);
        let train = tmp("codes.csv");
        write_training_csv(&train);
        assert_eq!(
            run(&argv(&format!(
                "fit --input {} --plan p --audit sometimes",
                train.display()
            )))
            .unwrap_err()
            .exit_code(),
            2
        );
        // io (3): plan file absent
        assert_eq!(
            run(&argv("apply --plan /nonexistent --input x --output y"))
                .unwrap_err()
                .exit_code(),
            3
        );
        // data (4): input csv absent
        assert_eq!(
            run(&argv("fit --input /nonexistent.csv --plan p")).unwrap_err().exit_code(),
            4
        );
        // plan (5): malformed plan file
        let bad_plan = tmp("bad.safeplan");
        std::fs::write(&bad_plan, "NOTAPLAN\t9\n").unwrap();
        assert_eq!(
            run(&argv(&format!(
                "apply --plan {} --input {} --output /tmp/x.csv",
                bad_plan.display(),
                train.display()
            )))
            .unwrap_err()
            .exit_code(),
            5
        );
        // pipeline (6): single-class labels are rejected by the audit
        let one_class = tmp("one_class.csv");
        let mut text = String::from("a,label\n");
        for i in 0..50 {
            text.push_str(&format!("{i},0\n"));
        }
        std::fs::write(&one_class, text).unwrap();
        let err = run(&argv(&format!(
            "fit --input {} --plan /tmp/p.safeplan",
            one_class.display()
        )))
        .unwrap_err();
        assert_eq!(err.exit_code(), 6);
        assert!(matches!(err, CliError::Safe(_)));
    }

    fn write_valid_csv(path: &std::path::Path) {
        // Same schema and generating process as write_training_csv, but a
        // disjoint index range so it acts as a held-out validation split.
        let mut text = String::from("a,b,noise,label\n");
        for i in 400..600 {
            let a = ((i * 37) % 100) as f64 / 50.0 - 1.0;
            let b = ((i * 61) % 100) as f64 / 50.0 - 1.0;
            let noise = ((i * 17) % 100) as f64;
            let y = (a * b > 0.0) as u8;
            text.push_str(&format!("{a},{b},{noise},{y}\n"));
        }
        std::fs::write(path, text).unwrap();
    }

    /// End-to-end serving path: fit a plan, bundle it into an artifact, then
    /// batch-score the validation CSV through the CLI and check the scores
    /// reproduce the AUC recorded inside the artifact bit-for-bit — at more
    /// than one thread count and batch size.
    #[test]
    fn save_artifact_then_score_reproduces_validation_auc_bitwise() {
        let train = tmp("serve_train.csv");
        let valid = tmp("serve_valid.csv");
        let plan = tmp("serve_plan.safeplan");
        let artifact = tmp("serve_model.safeartifact");
        write_training_csv(&train);
        write_valid_csv(&valid);

        run(&argv(&format!(
            "fit --input {} --plan {} --seed 3",
            train.display(),
            plan.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "save-artifact --plan {} --input {} --valid {} --artifact {} --rounds 25",
            plan.display(),
            train.display(),
            valid.display(),
            artifact.display()
        )))
        .unwrap();

        // The artifact records the validation AUC as hex f64 bits.
        let text = std::fs::read_to_string(&artifact).unwrap();
        let recorded = text
            .lines()
            .find_map(|l| l.strip_prefix("VAL_AUC\t"))
            .expect("artifact must record VAL_AUC");
        let recorded_bits = u64::from_str_radix(recorded.trim(), 16).unwrap();

        for (threads, batch) in [(1usize, 64usize), (4, 7), (2, 1024)] {
            let scores_path = tmp(&format!("serve_scores_{threads}_{batch}.csv"));
            run(&argv(&format!(
                "score --artifact {} --input {} --output {} --threads {threads} --batch-size {batch}",
                artifact.display(),
                valid.display(),
                scores_path.display()
            )))
            .unwrap();

            // CSV cells use shortest round-trippable float formatting, so
            // reading them back recovers the exact score bits.
            let scored = read_csv(&scores_path, None).unwrap();
            let labeled = read_csv(&valid, Some("label")).unwrap();
            let auc = safe_stats::auc::auc(scored.column(0).unwrap(), labeled.labels().unwrap());
            assert_eq!(
                auc.to_bits(),
                recorded_bits,
                "threads={threads} batch={batch}: CLI score AUC diverged from the artifact's"
            );
        }
    }

    #[test]
    fn serving_commands_classify_errors() {
        // Missing artifact file: io (3).
        assert_eq!(
            run(&argv("score --artifact /nonexistent.safeartifact --input x"))
                .unwrap_err()
                .exit_code(),
            3
        );
        // Tampered artifact: plan-file class (5).
        let train = tmp("serve_err_train.csv");
        let plan = tmp("serve_err_plan.safeplan");
        let artifact = tmp("serve_err.safeartifact");
        write_training_csv(&train);
        run(&argv(&format!(
            "fit --input {} --plan {} --seed 3",
            train.display(),
            plan.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "save-artifact --plan {} --input {} --artifact {} --rounds 5",
            plan.display(),
            train.display(),
            artifact.display()
        )))
        .unwrap();
        let mut text = std::fs::read_to_string(&artifact).unwrap();
        text.push_str("TRAILING GARBAGE\n");
        std::fs::write(&artifact, &text).unwrap();
        let err = run(&argv(&format!(
            "score --artifact {} --input {}",
            artifact.display(),
            train.display()
        )))
        .unwrap_err();
        assert_eq!(err.exit_code(), 5, "tampering must fail checksum: {err}");
        // Bad flags are usage errors (2).
        assert_eq!(
            run(&argv("score --artifact a --input b --batch-size 0")).unwrap_err().exit_code(),
            2
        );
        assert_eq!(
            run(&argv("save-artifact --plan p --input i --artifact a --threads 9999999"))
                .unwrap_err()
                .exit_code(),
            2
        );
    }

    /// Every count-like knob on the daemon commands goes through the same
    /// positive-arg validation as `score --batch-size`: zero is exit 2.
    #[test]
    fn daemon_commands_reject_nonpositive_tuning_flags() {
        for cmd in [
            "serve --artifact a --max-batch 0",
            "serve --artifact a --queue-capacity 0",
            "serve --artifact a --workers 9999999",
            "serve --artifact a --follow", // --follow needs --input
            "bench-serve --requests 0",
            "bench-serve --max-batch 0",
            "bench-serve --workers 0,2",
            "bench-serve --workers banana",
        ] {
            let err = run(&argv(cmd)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "'{cmd}' must be a usage error, got: {err}");
        }
        // A missing artifact with valid flags is io (3), not usage.
        assert_eq!(
            run(&argv("serve --artifact /nonexistent.safeartifact --input reqs"))
                .unwrap_err()
                .exit_code(),
            3
        );
    }

    /// End-to-end daemon session through the CLI: JSONL rows stream through
    /// `serve`, an artifact hot-swap happens mid-stream, and every response
    /// carries the bits of the artifact version stamped on it.
    #[test]
    fn serve_daemon_scores_jsonl_and_hot_swaps_mid_stream() {
        let train = tmp("daemon_train.csv");
        let plan = tmp("daemon_plan.safeplan");
        let artifact_a = tmp("daemon_a.safeartifact");
        let artifact_b = tmp("daemon_b.safeartifact");
        let requests = tmp("daemon_requests.jsonl");
        let responses = tmp("daemon_responses.jsonl");
        write_training_csv(&train);
        run(&argv(&format!(
            "fit --input {} --plan {} --seed 3",
            train.display(),
            plan.display()
        )))
        .unwrap();
        // Same plan/schema, different boosters -> different score bits.
        for (artifact, rounds) in [(&artifact_a, 25), (&artifact_b, 10)] {
            run(&argv(&format!(
                "save-artifact --plan {} --input {} --artifact {} --rounds {rounds}",
                plan.display(),
                train.display(),
                artifact.display()
            )))
            .unwrap();
        }

        // Three rows under A, swap, three rows under B, one malformed line
        // (must produce an error response, not kill the daemon), shutdown.
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![i as f64 / 7.0 - 0.4, 0.3 - i as f64 / 11.0, i as f64])
            .collect();
        let mut req_text = String::new();
        for row in &rows[..3] {
            req_text.push_str(&format!(
                "{{\"values\":[{},{},{}]}}\n",
                row[0], row[1], row[2]
            ));
        }
        req_text.push_str(&format!("{{\"swap\":\"{}\"}}\n", artifact_b.display()));
        for row in &rows[3..] {
            req_text.push_str(&format!(
                "{{\"values\":[{},{},{}]}}\n",
                row[0], row[1], row[2]
            ));
        }
        req_text.push_str("this is not json\n{\"shutdown\":true}\n");
        std::fs::write(&requests, req_text).unwrap();

        run(&argv(&format!(
            "serve --artifact {} --input {} --output {} --workers 2 --max-batch 2",
            artifact_a.display(),
            requests.display(),
            responses.display()
        )))
        .unwrap();

        // Offline replay under each artifact gives the expected bits.
        let registry = safe_ops::registry::OperatorRegistry::standard();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let expect = |path: &std::path::Path| -> Vec<u64> {
            let a = SafeArtifact::load(path).unwrap();
            let scorer = ScorerHandle::new(&a, &registry).unwrap();
            let (scores, _) = scorer.score_rows(&flat, 3).unwrap();
            scores.iter().map(|s| s.to_bits()).collect()
        };
        let bits_a = expect(&artifact_a);
        let bits_b = expect(&artifact_b);

        let text = std::fs::read_to_string(&responses).unwrap();
        let lines: Vec<safe_obs::json::Value> =
            text.lines().map(|l| safe_obs::json::parse(l).unwrap()).collect();
        // 3 responses + swap event + 3 responses + 1 parse error = 8 lines.
        assert_eq!(lines.len(), 8, "unexpected response stream:\n{text}");
        let bits_of = |v: &safe_obs::json::Value| {
            u64::from_str_radix(v.get("score_bits").unwrap().as_str().unwrap(), 16).unwrap()
        };
        for (i, line) in lines[..3].iter().enumerate() {
            assert_eq!(line.get("id").unwrap().as_u64(), Some(i as u64));
            assert_eq!(line.get("version").unwrap().as_u64(), Some(1));
            assert_eq!(bits_of(line), bits_a[i], "pre-swap row {i} bits");
        }
        assert_eq!(lines[3].get("event").unwrap().as_str(), Some("swap"));
        assert_eq!(lines[3].get("version").unwrap().as_u64(), Some(2));
        // The malformed line's error is emitted as soon as it is read —
        // before the still-pending post-swap responses drain at shutdown.
        assert!(
            lines[4].get("error").unwrap().as_str().unwrap().contains("invalid JSON"),
            "malformed line must yield an error response"
        );
        for (i, line) in lines[5..8].iter().enumerate() {
            assert_eq!(line.get("id").unwrap().as_u64(), Some(3 + i as u64));
            assert_eq!(line.get("version").unwrap().as_u64(), Some(2));
            assert_eq!(bits_of(line), bits_b[3 + i], "post-swap row {} bits", 3 + i);
        }
    }

    /// `bench-serve` records the serving_daemon section (one row per worker
    /// count) and passes every other section of the document through.
    #[test]
    fn bench_serve_writes_daemon_section_preserving_others() {
        let train = tmp("bserve_train.csv");
        let plan = tmp("bserve_plan.safeplan");
        let artifact = tmp("bserve.safeartifact");
        let pipeline = tmp("bserve_pipeline.json");
        write_training_csv(&train);
        run(&argv(&format!(
            "fit --input {} --plan {} --seed 3",
            train.display(),
            plan.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "save-artifact --plan {} --input {} --artifact {} --rounds 5",
            plan.display(),
            train.display(),
            artifact.display()
        )))
        .unwrap();
        std::fs::write(
            &pipeline,
            r#"{"schema_version":2,"parallel":[{"dataset":"toy","threads":1,"secs":1.5,"speedup_vs_serial":1.0}]}"#,
        )
        .unwrap();

        run(&argv(&format!(
            "bench-serve --artifact {} --requests 64 --workers 1,2 --max-batch 8 \
             --dataset cli-test --pipeline-out {}",
            artifact.display(),
            pipeline.display()
        )))
        .unwrap();

        let doc = safe_obs::json::parse(&std::fs::read_to_string(&pipeline).unwrap()).unwrap();
        let rows = doc.get("serving_daemon").unwrap().as_array().unwrap().to_vec();
        assert_eq!(rows.len(), 2);
        for (row, workers) in rows.iter().zip([1u64, 2]) {
            assert_eq!(row.get("dataset").unwrap().as_str(), Some("cli-test"));
            assert_eq!(row.get("workers").unwrap().as_u64(), Some(workers));
            assert_eq!(row.get("max_batch").unwrap().as_u64(), Some(8));
            assert_eq!(row.get("requests").unwrap().as_u64(), Some(64));
            assert!(row.get("secs").unwrap().as_f64().unwrap() > 0.0);
        }
        // The pre-existing parallel section survived the rewrite.
        let parallel = doc.get("parallel").unwrap().as_array().unwrap().to_vec();
        assert_eq!(parallel[0].get("secs").unwrap().as_f64(), Some(1.5));
    }

    /// Crash-safe training through the CLI: a checkpointed fit leaves
    /// snapshots behind; deleting the later ones simulates a crash and
    /// `resume` must rebuild the byte-identical plan.
    #[test]
    fn checkpointed_fit_then_resume_reproduces_the_plan() {
        let train = tmp("ckpt_train.csv");
        let plan = tmp("ckpt_plan.safeplan");
        let ckpt_dir = tmp("ckpt_dir");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        write_training_csv(&train);

        run(&argv(&format!(
            "fit --input {} --plan {} --seed 3 --iterations 2 --checkpoint-dir {}",
            train.display(),
            plan.display(),
            ckpt_dir.display()
        )))
        .unwrap();
        let baseline = std::fs::read_to_string(&plan).unwrap();
        let mut snapshots: Vec<std::path::PathBuf> = std::fs::read_dir(&ckpt_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        snapshots.sort();
        assert!(!snapshots.is_empty(), "fit must write checkpoints");

        // Crash simulation: only the first snapshot survives.
        for late in &snapshots[1..] {
            std::fs::remove_file(late).unwrap();
        }
        let resumed_plan = tmp("ckpt_plan_resumed.safeplan");
        run(&argv(&format!(
            "resume --input {} --plan {} --seed 3 --iterations 2 --checkpoint-dir {}",
            train.display(),
            resumed_plan.display(),
            ckpt_dir.display()
        )))
        .unwrap();
        assert_eq!(
            baseline,
            std::fs::read_to_string(&resumed_plan).unwrap(),
            "resumed plan must be byte-identical"
        );
    }

    #[test]
    fn resume_classifies_checkpoint_failures() {
        let train = tmp("ckpt_err_train.csv");
        let plan = tmp("ckpt_err_plan.safeplan");
        write_training_csv(&train);
        // Missing --checkpoint-dir: usage (2).
        assert_eq!(
            run(&argv(&format!(
                "resume --input {} --plan {}",
                train.display(),
                plan.display()
            )))
            .unwrap_err()
            .exit_code(),
            2
        );
        // Nonexistent directory: checkpoint class (7).
        assert_eq!(
            run(&argv(&format!(
                "resume --input {} --plan {} --checkpoint-dir /nonexistent/ckpts",
                train.display(),
                plan.display()
            )))
            .unwrap_err()
            .exit_code(),
            7
        );
        // A directory whose only candidate is corrupt: quarantined, then
        // unrecoverable (7).
        let bad_dir = tmp("ckpt_err_dir");
        let _ = std::fs::remove_dir_all(&bad_dir);
        std::fs::create_dir_all(&bad_dir).unwrap();
        std::fs::write(bad_dir.join("ckpt-000001.safeckpt"), "SAFECKPT\t1\ngarbage\n").unwrap();
        let err = run(&argv(&format!(
            "resume --input {} --plan {} --checkpoint-dir {}",
            train.display(),
            plan.display(),
            bad_dir.display()
        )))
        .unwrap_err();
        assert_eq!(err.exit_code(), 7, "{err}");
        assert!(
            bad_dir.join("ckpt-000001.safeckpt.corrupt").exists(),
            "corrupt candidate must be quarantined"
        );
    }

    #[test]
    fn help_prints() {
        run(&argv("help")).unwrap();
        run(&[]).unwrap();
    }

    #[test]
    fn apply_with_missing_plan_errors() {
        assert!(run(&argv("apply --plan /nonexistent --input x --output y")).is_err());
    }
}
