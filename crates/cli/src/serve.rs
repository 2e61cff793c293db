//! `safe-cli serve` and `safe-cli bench-serve` — the long-lived scoring
//! daemon from the command line.
//!
//! `serve` wraps [`safe_serve::ScoreService`] in a JSONL request loop:
//! one JSON object per input line, one JSON object per output line, in
//! submission order. Three record shapes are accepted:
//!
//! ```text
//! {"values":[0.1,-0.2,0.3]}            score one row (optional "id")
//! {"swap":"model-v2.safeartifact"}     hot-swap the artifact, zero downtime
//! {"shutdown":true}                    stop reading and drain
//! ```
//!
//! Responses carry the score both as a JSON number and as the exact
//! IEEE-754 bit pattern (`score_bits`, hex), plus the artifact `version`
//! that produced it — the differential suites compare bits, never decimal
//! renderings. Before a swap is applied every pending response is drained,
//! so the emitted stream is cleanly partitioned: every response before a
//! `{"event":"swap",...}` line was scored by the pre-swap artifact.
//!
//! `bench-serve` drives a service configuration sweep (worker counts ×
//! one coalescing cap) with single-row submissions, asserts the streamed
//! bits match the offline [`ScorerHandle`] exactly, and records one
//! `serving_daemon` row per configuration into `BENCH_pipeline.json`
//! (other sections pass through untouched).

use std::collections::VecDeque;
use std::io::{BufRead, Read, Write};
use std::time::Instant;

use safe_bench::{
    bench_pipeline_path, pipeline_json, read_pipeline_document, PipelineDocument,
    ServingDaemonRow, TablePrinter,
};
use safe_core::plan::{FeaturePlan, PlanStep};
use safe_data::dataset::Dataset;
use safe_gbm::GbmConfig;
use safe_obs::json::{self, escape, Value};
use safe_ops::registry::OperatorRegistry;
use safe_serve::{
    SafeArtifact, ScoreService, ScorerHandle, ServiceConfig, Ticket, DEFAULT_MAX_BATCH,
    DEFAULT_QUEUE_CAPACITY,
};
use safe_stats::par::Parallelism;

use crate::args::Args;
use crate::error::CliError;

/// Drain-and-print bound: when this many responses are pending, the oldest
/// is forced out before another submission is accepted. Keeps memory flat
/// on unbounded streams while preserving submission-order output.
const PENDING_FLUSH_BOUND: usize = 1024;

/// Poll interval for `--follow` mode, milliseconds.
const FOLLOW_POLL_MS: u64 = 50;

/// `safe-cli serve --artifact model.safeartifact [--input req.jsonl]
/// [--output resp.jsonl] [--follow] [--workers N] [--max-batch N]
/// [--queue-capacity N]`
pub fn serve(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&[
        "artifact",
        "input",
        "output",
        "follow",
        "workers",
        "max-batch",
        "queue-capacity",
    ])
    .map_err(CliError::Usage)?;
    let artifact_path = args.require("artifact").map_err(CliError::Usage)?;
    let workers = args.get_or("workers", 0usize).map_err(CliError::Usage)?;
    Parallelism::new(workers)
        .validate()
        .map_err(CliError::Usage)?;
    let max_batch = args
        .get_positive("max-batch", DEFAULT_MAX_BATCH)
        .map_err(CliError::Usage)?;
    let queue_capacity = args
        .get_positive("queue-capacity", DEFAULT_QUEUE_CAPACITY)
        .map_err(CliError::Usage)?;
    if args.switch("follow") && args.get("input").is_none() {
        return Err(CliError::Usage(
            "flag --follow requires --input FILE (stdin cannot be re-polled)".into(),
        ));
    }

    let registry = OperatorRegistry::standard();
    let artifact = SafeArtifact::load(artifact_path)?;
    let service = ScoreService::start(
        &artifact,
        &registry,
        ServiceConfig {
            workers,
            max_batch,
            queue_capacity,
            ..ServiceConfig::default()
        },
    )?;

    let out: Box<dyn Write> = match args.get("output") {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?,
        )),
        None => Box::new(std::io::stdout().lock()),
    };
    let mut session = ServeSession {
        service: &service,
        registry: &registry,
        out,
        pending: VecDeque::new(),
        next_auto_id: 0,
    };

    if args.switch("follow") {
        // Tail the request file: poll for appended bytes, carry partial
        // lines across polls, stop only on a shutdown record.
        let path = args.require("input").map_err(CliError::Usage)?;
        let mut offset = 0u64;
        let mut remainder = String::new();
        'follow: loop {
            let chunk = read_from(path, offset)?;
            if chunk.is_empty() {
                std::thread::sleep(std::time::Duration::from_millis(FOLLOW_POLL_MS));
                continue;
            }
            offset += chunk.len() as u64;
            remainder.push_str(&chunk);
            while let Some(nl) = remainder.find('\n') {
                let line: String = remainder.drain(..=nl).collect();
                if !session.handle_line(line.trim())? {
                    break 'follow;
                }
            }
        }
    } else {
        let reader: Box<dyn BufRead> = match args.get("input") {
            Some(path) => Box::new(std::io::BufReader::new(
                std::fs::File::open(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?,
            )),
            None => Box::new(std::io::BufReader::new(std::io::stdin())),
        };
        for line in reader.lines() {
            let line = line.map_err(|e| CliError::Io(format!("reading requests: {e}")))?;
            if !session.handle_line(line.trim())? {
                break;
            }
        }
    }

    session.drain_pending()?;
    drop(session);
    let report = service.shutdown();
    eprintln!(
        "serve: {} scored, {} failed, {} batches ({} workers, max-batch {}), \
         {} swap(s), final version {}, p50/p99 request latency {}/{} us, {:.0} rows/s",
        report.completed,
        report.failed,
        report.batches,
        report.workers,
        report.max_batch,
        report.swaps,
        report.version,
        report.request_p50_us,
        report.request_p99_us,
        report.rows_per_sec,
    );
    Ok(())
}

/// Read whatever `path` holds past `offset` (possibly nothing).
fn read_from(path: &str, offset: u64) -> Result<String, CliError> {
    let mut f =
        std::fs::File::open(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    std::io::Seek::seek(&mut f, std::io::SeekFrom::Start(offset))
        .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    let mut buf = String::new();
    f.read_to_string(&mut buf)
        .map_err(|e| CliError::Data(format!("{path}: request stream is not UTF-8: {e}")))?;
    Ok(buf)
}

/// One parsed request line.
#[derive(Debug)]
enum Request {
    Row { id: Option<u64>, values: Vec<f64> },
    Swap(String),
    Shutdown,
}

fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    if v.as_object().is_none() {
        return Err("request must be a JSON object".into());
    }
    if matches!(v.get("shutdown"), Some(Value::Bool(true))) {
        return Ok(Request::Shutdown);
    }
    if let Some(swap) = v.get("swap") {
        let path = swap
            .as_str()
            .ok_or("'swap' must be a string artifact path")?;
        return Ok(Request::Swap(path.to_string()));
    }
    let values = v
        .get("values")
        .ok_or("missing 'values' (or 'swap'/'shutdown')")?
        .as_array()
        .ok_or("'values' must be an array of numbers")?
        .iter()
        .map(|x| x.as_f64().ok_or("'values' must contain only numbers"))
        .collect::<Result<Vec<f64>, &str>>()?;
    let id = v.get("id").and_then(Value::as_u64);
    Ok(Request::Row { id, values })
}

/// The request-loop state: the service, the in-order pending responses,
/// and the output stream.
struct ServeSession<'a, W: Write> {
    service: &'a ScoreService,
    registry: &'a OperatorRegistry,
    out: W,
    /// `(display id, ticket)` in submission order.
    pending: VecDeque<(u64, Ticket)>,
    /// Assigned to requests that carry no `"id"` field: the 0-based line
    /// ordinal among row requests.
    next_auto_id: u64,
}

impl<W: Write> ServeSession<'_, W> {
    /// Process one request line. Returns `false` when the stream should
    /// stop (shutdown record). Malformed lines and per-request failures
    /// produce an `{"error":...}` response line, never a process exit —
    /// a daemon does not die because one client sent garbage.
    fn handle_line(&mut self, line: &str) -> Result<bool, CliError> {
        if line.is_empty() {
            return Ok(true);
        }
        match parse_request(line) {
            Err(msg) => self.emit(&format!("{{\"error\":{}}}", escape(&msg)))?,
            Ok(Request::Shutdown) => return Ok(false),
            Ok(Request::Swap(path)) => {
                // Drain first: every already-accepted request is scored
                // (and printed) under the pre-swap artifact, so the output
                // stream is partitioned by the swap event line.
                self.drain_pending()?;
                match SafeArtifact::load(&path)
                    .and_then(|next| self.service.swap_artifact(&next, self.registry))
                {
                    Ok(version) => self.emit(&format!(
                        "{{\"event\":\"swap\",\"artifact\":{},\"version\":{version}}}",
                        escape(&path)
                    ))?,
                    Err(e) => self.emit(&format!(
                        "{{\"event\":\"swap-failed\",\"artifact\":{},\"error\":{}}}",
                        escape(&path),
                        escape(&e.to_string())
                    ))?,
                }
            }
            Ok(Request::Row { id, values }) => {
                let id = id.unwrap_or(self.next_auto_id);
                self.next_auto_id += 1;
                while self.pending.len() >= PENDING_FLUSH_BOUND {
                    self.flush_one()?;
                }
                match self.service.submit(values) {
                    Ok(ticket) => self.pending.push_back((id, ticket)),
                    Err(e) => self.emit(&format!(
                        "{{\"id\":{id},\"error\":{}}}",
                        escape(&e.to_string())
                    ))?,
                }
            }
        }
        Ok(true)
    }

    /// Wait for the oldest pending response and print it.
    fn flush_one(&mut self) -> Result<(), CliError> {
        let Some((id, ticket)) = self.pending.pop_front() else {
            return Ok(());
        };
        let line = match ticket.wait() {
            Ok(r) => format!(
                "{{\"id\":{id},\"score\":{},\"score_bits\":\"{:016x}\",\"version\":{},\
                 \"queue_wait_us\":{},\"total_us\":{}}}",
                fmt_score(r.score),
                r.score.to_bits(),
                r.version,
                r.queue_wait_us,
                r.total_us
            ),
            Err(e) => format!("{{\"id\":{id},\"error\":{}}}", escape(&e.to_string())),
        };
        self.emit(&line)
    }

    fn drain_pending(&mut self) -> Result<(), CliError> {
        while !self.pending.is_empty() {
            self.flush_one()?;
        }
        Ok(())
    }

    /// Write one response line and flush: a consumer tailing the response
    /// stream (the point of a daemon) must see each line as it lands.
    fn emit(&mut self, line: &str) -> Result<(), CliError> {
        writeln!(self.out, "{line}")
            .and_then(|()| self.out.flush())
            .map_err(|e| CliError::Io(format!("writing response: {e}")))
    }
}

/// Render a score as a JSON number. `score_bits` is the authoritative
/// value; this rendering uses Rust's shortest-roundtrip formatting, and
/// non-finite scores (impossible from a trained booster, but the format
/// must stay valid JSON) fall back to `null`.
fn fmt_score(score: f64) -> String {
    if score.is_finite() {
        format!("{score}")
    } else {
        "null".into()
    }
}

/// `safe-cli bench-serve [--artifact model.safeartifact] [--requests N]
/// [--workers 1,2,4] [--max-batch N] [--seed N] [--dataset NAME]
/// [--pipeline-out PATH]`
pub fn bench_serve(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&[
        "artifact",
        "requests",
        "workers",
        "max-batch",
        "seed",
        "dataset",
        "pipeline-out",
    ])
    .map_err(CliError::Usage)?;
    let requests: u64 = args
        .get_positive("requests", 20_000u64)
        .map_err(CliError::Usage)?;
    let max_batch = args
        .get_positive("max-batch", DEFAULT_MAX_BATCH)
        .map_err(CliError::Usage)?;
    let seed: u64 = args.get_or("seed", 42).map_err(CliError::Usage)?;
    let dataset = args.get("dataset").unwrap_or("synth-daemon");
    let worker_counts: Vec<usize> = args
        .get("workers")
        .unwrap_or("1,2,4")
        .split(',')
        .map(|tok| match tok.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(CliError::Usage(format!(
                "flag --workers: '{tok}' is not a positive worker count"
            ))),
        })
        .collect::<Result<_, _>>()?;

    let registry = OperatorRegistry::standard();
    let artifact = match args.get("artifact") {
        Some(path) => SafeArtifact::load(path)?,
        None => synth_artifact(seed)?,
    };
    let n_inputs = artifact.input_schema.len();
    let rows = scoring_rows(seed, requests as usize, n_inputs);

    // Offline reference under the same artifact: the daemon must reproduce
    // these bits at every worker count and coalescing pattern.
    let offline = ScorerHandle::new(&artifact, &registry)?;
    let (reference, _) = offline.score_rows(&rows, n_inputs)?;

    println!(
        "bench-serve: {requests} single-row requests x {n_inputs} inputs, \
         max-batch {max_batch}, dataset '{dataset}'\n"
    );
    let table = TablePrinter::new(
        &["workers", "secs", "rows/s", "coalesce", "q-p99 us", "req-p99 us", "bits"],
        &[7, 8, 10, 8, 9, 10, 9],
    );

    let mut section = Vec::with_capacity(worker_counts.len());
    for &workers in &worker_counts {
        let service = ScoreService::start(
            &artifact,
            &registry,
            ServiceConfig {
                workers,
                max_batch,
                ..ServiceConfig::default()
            },
        )?;
        let start = Instant::now();
        let mut tickets = Vec::with_capacity(requests as usize);
        for row in rows.chunks_exact(n_inputs) {
            tickets.push(service.submit(row.to_vec())?);
        }
        let mut mismatches = 0usize;
        for (ticket, expected) in tickets.into_iter().zip(&reference) {
            let response = ticket.wait()?;
            if response.score.to_bits() != expected.to_bits() {
                mismatches += 1;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let report = service.shutdown();
        if mismatches > 0 {
            return Err(CliError::Data(format!(
                "bench-serve differential failed: {mismatches} of {requests} streamed \
                 scores diverged from the offline scorer at workers={workers}"
            )));
        }
        let rows_per_sec = requests as f64 / secs;
        let coalesce = report.completed as f64 / report.batches.max(1) as f64;
        table.row(&[
            &workers.to_string(),
            &format!("{secs:.3}"),
            &format!("{rows_per_sec:.0}"),
            &format!("{coalesce:.1}"),
            &report.queue_p99_us.to_string(),
            &report.request_p99_us.to_string(),
            "identical",
        ]);
        section.push(ServingDaemonRow {
            dataset: dataset.into(),
            // The configured count, not the resolved pool size: row keys
            // must be stable across machines for bench-diff to match them.
            workers,
            max_batch,
            requests,
            secs,
            rows_per_sec,
            queue_p50_us: report.queue_p50_us,
            queue_p99_us: report.queue_p99_us,
            request_p50_us: report.request_p50_us,
            request_p99_us: report.request_p99_us,
        });
    }

    let out_path = args
        .get("pipeline-out")
        .map(str::to_string)
        .unwrap_or_else(bench_pipeline_path);
    // This command owns `serving_daemon`; every other section (and unknown
    // future ones) passes through untouched.
    let existing = read_pipeline_document(&out_path);
    std::fs::write(
        &out_path,
        pipeline_json(&PipelineDocument { serving_daemon: section, ..existing }),
    )
    .map_err(|e| CliError::Io(format!("{out_path}: {e}")))?;
    println!("\nserving_daemon rows -> {out_path}");
    Ok(())
}

const SYNTH_INPUTS: usize = 6;

fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
}

/// Deterministic request stream: `n` rows of `n_inputs` values each.
fn scoring_rows(seed: u64, n: usize, n_inputs: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x51afd36d) | 1;
    (0..n * n_inputs).map(|_| lcg(&mut state)).collect()
}

/// The default bench artifact: six raw inputs through one step of every
/// arithmetic operator (10 scoring features), boosted on 2 000 synthetic
/// rows — the same shape the `serving_throughput` harness measures.
fn synth_artifact(seed: u64) -> Result<SafeArtifact, CliError> {
    let input_names: Vec<String> = (0..SYNTH_INPUTS).map(|i| format!("x{i}")).collect();
    let step = |name: &str, op: &str, a: usize, b: usize| PlanStep {
        name: name.into(),
        op: op.into(),
        parents: vec![format!("x{a}"), format!("x{b}")],
        params: vec![],
    };
    let steps = vec![
        step("mul(x0,x1)", "mul", 0, 1),
        step("div(x2,x3)", "div", 2, 3),
        step("add(x4,x5)", "add", 4, 5),
        step("sub(x0,x2)", "sub", 0, 2),
    ];
    let mut outputs = input_names.clone();
    outputs.extend(steps.iter().map(|s| s.name.clone()));
    let plan = FeaturePlan { input_names, steps, outputs };

    let n = 2_000;
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut cols = vec![Vec::with_capacity(n); SYNTH_INPUTS];
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..SYNTH_INPUTS).map(|_| lcg(&mut state)).collect();
        let signal = row[0] * row[1] - 0.5 * row[2] + 0.3 * (row[4] + row[5]);
        for (col, v) in cols.iter_mut().zip(&row) {
            col.push(*v);
        }
        labels.push(u8::from(signal > 0.0));
    }
    let names = (0..SYNTH_INPUTS).map(|i| format!("x{i}")).collect();
    let train = Dataset::from_columns(names, cols, Some(labels))
        .map_err(|e| CliError::Data(format!("synthetic training data: {e}")))?;
    Ok(SafeArtifact::train(
        &plan,
        &OperatorRegistry::standard(),
        &train,
        None,
        &GbmConfig::classifier(),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_request_classifies_record_shapes() {
        match parse_request(r#"{"id":7,"values":[1.0,-2.5]}"#).unwrap() {
            Request::Row { id, values } => {
                assert_eq!(id, Some(7));
                assert_eq!(values, vec![1.0, -2.5]);
            }
            _ => panic!("expected a row request"),
        }
        match parse_request(r#"{"values":[0.5]}"#).unwrap() {
            Request::Row { id, .. } => assert_eq!(id, None),
            _ => panic!("expected a row request"),
        }
        assert!(matches!(
            parse_request(r#"{"swap":"m.safeartifact"}"#).unwrap(),
            Request::Swap(p) if p == "m.safeartifact"
        ));
        assert!(matches!(
            parse_request(r#"{"shutdown":true}"#).unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn parse_request_rejects_garbage_with_reasons() {
        assert!(parse_request("not json").unwrap_err().contains("invalid JSON"));
        assert!(parse_request(&"[".repeat(200_000)).unwrap_err().contains("invalid JSON"));
        assert!(parse_request("[1,2]").unwrap_err().contains("object"));
        assert!(parse_request("{}").unwrap_err().contains("values"));
        assert!(parse_request(r#"{"values":"x"}"#).unwrap_err().contains("array"));
        assert!(parse_request(r#"{"values":[1,"x"]}"#)
            .unwrap_err()
            .contains("numbers"));
        assert!(parse_request(r#"{"swap":3}"#).unwrap_err().contains("string"));
        // shutdown:false is not a shutdown — and has no values either.
        assert!(parse_request(r#"{"shutdown":false}"#).is_err());
    }

    #[test]
    fn score_rendering_is_valid_json() {
        assert_eq!(fmt_score(0.5), "0.5");
        assert_eq!(fmt_score(f64::NAN), "null");
        assert_eq!(fmt_score(f64::INFINITY), "null");
    }
}
