//! Load for the scoring daemon, and the serving-path probe every traced
//! run ends with.
//!
//! Load comes from one generator thread in this process, and the daemon
//! gets the other CPUs (`workers`), so no thread waits for a CPU. A closed
//! burst (the probe's) submits as fast as the queue accepts (saturation).
//! An open window submits on a fixed schedule whatever the daemon does;
//! each request is timed from when it was due, so a stall also counts
//! against the requests queued behind it. Responses are collected only
//! after the last request is in: a request's latency is how late it was
//! submitted plus the time the daemon held it (`ScoreResponse.total_us`),
//! so no client thread competes with the daemon's workers for the CPUs
//! while it is measured.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use safe_data::csv::{read_csv, write_csv};
use safe_data::dataset::Dataset;
use safe_ops::registry::OperatorRegistry;
use safe_serve::{SafeArtifact, ScoreService, ScorerHandle, ServiceConfig, ServiceReport};

use crate::metrics::Results;
use crate::summary::median;
use crate::trace::Tracer;

/// Offered rate of the open windows, requests per second.
pub const RATE: f64 = 100_000.0;
/// Requests in one open window (one second at `RATE`).
pub const WINDOW_REQUESTS: usize = 100_000;
/// Requests in one of the probe's closed bursts.
const BURST_REQUESTS: usize = 100_000;
/// Requests in the probe's open window.
const PROBE_REQUESTS: usize = 20_000;

/// Daemon workers on `nproc` CPUs: all but the generator's one.
pub fn workers(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

/// What the daemon scores: row-major request values and the offline
/// reference score of each row.
pub struct Load<'a> {
    pub artifact: &'a SafeArtifact,
    pub registry: &'a OperatorRegistry,
    pub rows: &'a [f64],
    pub reference: &'a [f64],
}

/// One burst or window against a freshly started daemon.
pub struct Phase {
    /// From the first submission to the last response scored.
    pub secs: f64,
    pub requests: u64,
    /// Per request: time from due to scored, microseconds.
    pub latency_us: Vec<f64>,
    pub queue_wait_us: Vec<f64>,
    pub gen_late_max_us: f64,
    /// Requests that errored or came back with other bits than the reference.
    pub failed: u64,
    pub report: ServiceReport,
}

impl Phase {
    /// Median latency. The daemon reports whole microseconds, so latencies
    /// bunch just above each whole number and a plain median moves in 1 µs
    /// steps; this one is interpolated within its bin instead.
    pub fn p50_us(&self) -> f64 {
        binned_median(&self.latency_us)
    }

    pub fn requests_per_s(&self) -> f64 {
        self.latency_us.len() as f64 / self.secs
    }
}

/// The `q` quantile by nearest rank.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(f64::NAN)
}

/// Median of data grouped in bins `[k, k + 1)`: the bin `k` that holds the
/// middle value, plus the share of that bin's values the middle rank
/// reaches into (the grouped-data median).
pub fn binned_median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(&mid) = sorted.get(sorted.len() / 2) else {
        return f64::NAN;
    };
    let k = mid.floor();
    let below = sorted.iter().filter(|&&v| v < k).count() as f64;
    let within = sorted.iter().filter(|&&v| v >= k && v < k + 1.0).count() as f64;
    k + (sorted.len() as f64 / 2.0 - below) / within
}

fn micros_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// Run `requests` single-row requests against a daemon with `workers`
/// workers: on the schedule `rate` (open loop), or as fast as the queue
/// takes them when `rate` is `None` (closed burst).
pub fn phase(
    load: &Load,
    workers: usize,
    requests: usize,
    rate: Option<f64>,
    tracer: Option<&Tracer>,
) -> Result<Phase, String> {
    let service = ScoreService::start(
        load.artifact,
        load.registry,
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
    )
    .map_err(|e| format!("daemon start: {e}"))?;
    let k = service.n_inputs();
    let n_rows = load.reference.len();
    let mut pending = Vec::with_capacity(requests);
    let mut failed = 0u64;
    let start = Instant::now();
    traced(tracer, "bench.submit", || {
        for i in 0..requests {
            let due = match rate {
                Some(rate) => {
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    // Yield rather than spin, so a daemon thread that shares
                    // this CPU runs as soon as it is woken.
                    while Instant::now() < due {
                        std::thread::yield_now();
                    }
                    due
                }
                None => Instant::now(),
            };
            let row = i % n_rows;
            let values = load.rows[row * k..(row + 1) * k].to_vec();
            let submitted = Instant::now();
            match service.submit(values) {
                Ok(ticket) => pending.push((ticket, row, due, submitted)),
                Err(_) => failed += 1,
            }
        }
    });
    let (mut latency_us, mut queue_wait_us) =
        (Vec::with_capacity(requests), Vec::with_capacity(requests));
    let (mut makespan_us, mut gen_late_max_us) = (0.0f64, 0.0f64);
    traced(tracer, "bench.wait", || {
        for (ticket, row, due, submitted) in pending {
            match ticket.wait() {
                Ok(resp) => {
                    let late = micros_between(due, submitted);
                    gen_late_max_us = gen_late_max_us.max(late);
                    latency_us.push(late + resp.total_us as f64);
                    queue_wait_us.push(resp.queue_wait_us as f64);
                    makespan_us =
                        makespan_us.max(micros_between(start, submitted) + resp.total_us as f64);
                    if resp.score.to_bits() != load.reference[row].to_bits() {
                        failed += 1;
                    }
                }
                Err(_) => failed += 1,
            }
        }
    });
    let report = service.shutdown();
    Ok(Phase {
        secs: makespan_us / 1e6,
        requests: requests as u64,
        latency_us,
        queue_wait_us,
        gen_late_max_us,
        // Every request the daemon failed also came back as an error, so
        // `report.failed` is already counted here.
        failed,
        report,
    })
}

fn traced<T>(tracer: Option<&Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f).0,
        None => f(),
    }
}

/// One score per line, as a scoring job writes them out.
fn format_scores(scores: &[f64]) -> String {
    let mut out = String::with_capacity(scores.len() * 20);
    for s in scores {
        let _ = writeln!(out, "{s}");
    }
    out
}

/// Whether `scores` are bit for bit the reference scores.
fn bit_equal(scores: &[f64], reference: &[f64]) -> bool {
    scores.len() == reference.len()
        && scores
            .iter()
            .zip(reference)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Drive the whole serving path once on `test` with `artifact`, each public
/// call in its own span: CSV read and offline scoring, plan apply, predict,
/// formatting, closed bursts and an open window against the daemon.
/// Records the `data.csv_*`, `serve.*` and `gbm.predict_us_per_1k`
/// metrics.
pub fn probe(
    tracer: &Tracer,
    r: &mut Results,
    load: &Load,
    test: &Dataset,
    csv_path: &Path,
    nproc: usize,
) -> Result<(), String> {
    write_csv(test, csv_path).map_err(|e| format!("write {}: {e}", csv_path.display()))?;
    let bytes = std::fs::metadata(csv_path)
        .map_err(|e| e.to_string())?
        .len() as f64;
    let scorer = ScorerHandle::new(load.artifact, load.registry).map_err(|e| e.to_string())?;
    let mut read_s = Vec::new();
    for _ in 0..3 {
        let (ds, secs) = tracer.span("bench.read_csv", || read_csv(csv_path, Some("label")));
        let ds = ds.map_err(|e| format!("read_csv: {e}"))?;
        read_s.push(secs);
        let (scored, _) = tracer.span("bench.score_dataset", || scorer.score_dataset(&ds));
        let (scores, _) = scored.map_err(|e| format!("score_dataset: {e}"))?;
        r.ops(scores.len() as u64, 0);
        r.check(bit_equal(&scores, load.reference), || {
            "scores of the CSV read back differ from the batch scorer".into()
        });
    }
    let read = median(&read_s).unwrap_or(f64::NAN);
    r.push("data.csv_read_ms", read * 1000.0);
    r.push("data.csv_mb_per_s", bytes / 1e6 / read);

    let compiled = load
        .artifact
        .plan
        .compile(load.registry)
        .map_err(|e| e.to_string())?;
    let (mut apply_s, mut predict_s, mut format_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let (engineered, secs) = tracer.span("bench.apply", || compiled.apply(test));
        let engineered = engineered.map_err(|e| format!("plan apply: {e}"))?;
        apply_s.push(secs);
        let (scores, secs) =
            tracer.span("bench.predict", || load.artifact.model.predict(&engineered));
        predict_s.push(secs);
        r.ops(scores.len() as u64, 0);
        r.check(bit_equal(&scores, load.reference), || {
            "apply + predict scores differ from the batch scorer".into()
        });
        let (text, secs) = tracer.span("bench.format", || format_scores(&scores));
        r.check(text.lines().count() == scores.len(), || {
            "formatted score count".into()
        });
        format_s.push(secs);
    }
    let predict = median(&predict_s).unwrap_or(f64::NAN);
    r.push(
        "serve.apply_ms",
        median(&apply_s).unwrap_or(f64::NAN) * 1000.0,
    );
    r.push("serve.predict_ms", predict * 1000.0);
    r.push(
        "serve.format_ms",
        median(&format_s).unwrap_or(f64::NAN) * 1000.0,
    );
    r.push(
        "gbm.predict_us_per_1k",
        predict * 1e6 / (test.n_rows() as f64 / 1000.0),
    );

    let mut rps = Vec::new();
    for _ in 0..3 {
        let burst = phase(load, workers(nproc), BURST_REQUESTS, None, Some(tracer))?;
        r.ops(burst.requests, burst.failed);
        rps.push(burst.requests_per_s());
    }
    r.push("serve.saturation_rps", median(&rps).unwrap_or(f64::NAN));
    let window = phase(
        load,
        workers(nproc),
        PROBE_REQUESTS,
        Some(RATE),
        Some(tracer),
    )?;
    r.ops(window.requests, window.failed);
    let waits = &window.queue_wait_us;
    r.push(
        "serve.queue_wait_mean_us",
        waits.iter().sum::<f64>() / waits.len().max(1) as f64,
    );
    r.push("serve.queue_wait_p99_us", quantile(waits, 0.99));
    r.push("serve.request_p99_us", quantile(&window.latency_us, 0.99));
    r.push(
        "serve.batch_mean",
        window.report.completed as f64 / window.report.batches.max(1) as f64,
    );
    r.push("serve.achieved_rps", window.requests_per_s());
    r.push("serve.gen_late_max_us", window.gen_late_max_us);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn binned_median_interpolates_within_the_middle_bin() {
        assert_eq!(binned_median(&[6.3; 10]), 6.5);
        assert_eq!(binned_median(&[6.3, 5.3, 6.3, 5.3]), 6.0);
        assert_eq!(binned_median(&[5.3, 5.3, 5.3, 6.3]), 5.0 + 2.0 / 3.0);
        assert_eq!(binned_median(&[9.9, 5.2, 5.4]), 5.75);
        assert!(binned_median(&[]).is_nan());
    }
}
