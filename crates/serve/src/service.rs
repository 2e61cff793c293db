//! Long-lived scoring service: worker pool, request pipeline, artifact
//! hot-swap.
//!
//! [`ScoreService`] turns the one-shot batch scorer into a persistent
//! daemon. Callers [`ScoreService::submit`] single rows and get a
//! [`Ticket`] back immediately; a pool of worker threads drains the shared
//! [`crate::queue::BatchQueue`] in micro-batches (coalescing whatever has
//! accumulated, up to `max_batch`, into one plan-apply + one tree-outer
//! predict pass) and fulfills each ticket with a [`ScoreResponse`].
//!
//! # Determinism contract
//!
//! Every row is a pure function of `(artifact, values)`: the batch
//! executor is defined as the exact per-row map of its batch counterpart
//! (see `crates/serve/src/scorer.rs`), so the worker count, the submission
//! order, and the coalescing pattern can never change a single output
//! bit. The streamed score for a row is bit-identical to the offline
//! [`crate::ScorerHandle`] score under the same artifact — the
//! differential suites in `tests/serve_daemon_differential.rs` enforce
//! this at worker counts {1, 2, 4} and adversarial batch shapes.
//!
//! # Hot swap
//!
//! The loaded artifact lives behind an [`ArtifactCell`]: an
//! `Arc`-snapshot slot plus a separately published atomic version
//! counter. Workers keep a cached `Arc` clone and, per micro-batch, do one
//! `Acquire` load of the version — only when it differs from the cached
//! snapshot's version do they touch the slot mutex. The steady-state read
//! path is therefore lock-free; the mutex is contended only in the
//! instants around a swap. [`ScoreService::swap_artifact`] installs a new
//! artifact with **zero downtime**: requests already dequeued finish under
//! the old snapshot (and are stamped with its version), later batches pick
//! up the new one. The version stamped on a response is always read from
//! the same snapshot that produced the score bits, so
//! `(version, score_bits)` pairs stay consistent even for requests that
//! straddle the swap — the linearization point is the mutex-guarded slot
//! store, made visible to the fast path by the `Release` publish of the
//! version counter.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use safe_core::plan::PlanError;
use safe_obs::{stages, LatencyHisto, SinkHandle};
use safe_ops::registry::OperatorRegistry;
use safe_stats::par::Parallelism;

use crate::artifact::SafeArtifact;
use crate::error::ServeError;
use crate::queue::{BatchQueue, QueueStats};
use crate::scorer::ScorerHandle;

/// Default micro-batch coalescing cap for the worker pool.
pub const DEFAULT_MAX_BATCH: usize = 256;
/// Default bound on queued (accepted but not yet scored) requests.
pub const DEFAULT_QUEUE_CAPACITY: usize = 4096;

/// Tuning knobs for [`ScoreService::start`]. All values are clamped to
/// sane minimums rather than rejected — surface-level validation (usage
/// errors for `0`) belongs to the caller, e.g. the CLI.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (`0` = auto-detect from the machine, same rule as
    /// `safe_stats::par::Parallelism`).
    pub workers: usize,
    /// Micro-batch coalescing cap: a worker drains up to this many queued
    /// requests per lock acquisition (minimum 1).
    pub max_batch: usize,
    /// Backpressure bound: `submit` blocks once this many requests are
    /// queued (minimum 1).
    pub queue_capacity: usize,
    /// Telemetry sink; the service emits a `serve-daemon` span with
    /// per-request `queue_wait_us` / `request_us` observe events and
    /// shutdown counters. Never influences scores.
    pub sink: SinkHandle,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            max_batch: DEFAULT_MAX_BATCH,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            sink: SinkHandle::null(),
        }
    }
}

/// One scored request: the score bits plus the artifact version that
/// produced them and the request's latency breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreResponse {
    /// Service-assigned submission sequence number (dense, starts at 0).
    pub id: u64,
    /// The model score for the submitted row.
    pub score: f64,
    /// Monotonic version of the artifact snapshot that computed `score`
    /// (the initial artifact is version 1; each successful swap adds 1).
    pub version: u64,
    /// Microseconds the request sat queued before a worker dequeued it.
    pub queue_wait_us: u64,
    /// Microseconds from submission to scored (queue wait + execution).
    pub total_us: u64,
}

/// Aggregate service statistics, returned by [`ScoreService::report`] and
/// [`ScoreService::shutdown`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Requests scored successfully.
    pub completed: u64,
    /// Requests fulfilled with an error (failed batch or worker panic).
    pub failed: u64,
    /// Micro-batches executed (so `completed / batches` is the realized
    /// coalescing factor).
    pub batches: u64,
    /// Successful artifact hot-swaps.
    pub swaps: u64,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Configured micro-batch coalescing cap.
    pub max_batch: usize,
    /// Current artifact version.
    pub version: u64,
    /// Service lifetime so far, integer microseconds.
    pub total_us: u64,
    /// Completed requests per second over the service lifetime.
    pub rows_per_sec: f64,
    /// Median queue wait (log2-bucket upper bound, microseconds).
    pub queue_p50_us: u64,
    /// 99th-percentile queue wait (log2-bucket upper bound, microseconds).
    pub queue_p99_us: u64,
    /// Median end-to-end request latency (log2-bucket upper bound, µs).
    pub request_p50_us: u64,
    /// 99th-percentile end-to-end request latency (log2-bucket upper
    /// bound, microseconds).
    pub request_p99_us: u64,
}

/// A pending response for one submitted row. `wait` blocks until a worker
/// fulfills it; dropping the ticket abandons the response (the row is
/// still scored).
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Block until the request is scored (or failed) and take the result.
    pub fn wait(self) -> Result<ScoreResponse, ServeError> {
        let mut g = lock(&self.slot.state);
        loop {
            match g.take() {
                Some(result) => return result,
                None => g = wait(&self.slot.ready, g),
            }
        }
    }
}

#[derive(Debug)]
struct Slot {
    state: Mutex<Option<Result<ScoreResponse, ServeError>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot { state: Mutex::new(None), ready: Condvar::new() }
    }

    /// First writer wins; later fulfillments are ignored so a defensive
    /// double-fulfill can never clobber a delivered result.
    fn fulfill(&self, result: Result<ScoreResponse, ServeError>) {
        let mut g = lock(&self.state);
        if g.is_none() {
            *g = Some(result);
        }
        drop(g);
        self.ready.notify_all();
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// An artifact snapshot: the compiled executor plus the monotonic version
/// it was installed as. Workers hold `Arc<Loaded>` clones, so a swap never
/// invalidates an in-flight batch — the old snapshot lives until its last
/// user drops it.
struct Loaded {
    scorer: ScorerHandle,
    version: u64,
}

/// The swap cell: a mutex-guarded `Arc` slot plus a separately published
/// atomic version. Readers pay one `Acquire` load per micro-batch on the
/// fast path and take the mutex only when the version moved; writers
/// install under the mutex and then `Release`-publish the new version
/// (the fast path's change signal). See the module docs for the
/// linearization argument.
struct ArtifactCell {
    slot: Mutex<Arc<Loaded>>,
    version: AtomicU64,
}

impl ArtifactCell {
    fn new(scorer: ScorerHandle) -> Self {
        ArtifactCell {
            slot: Mutex::new(Arc::new(Loaded { scorer, version: 1 })),
            version: AtomicU64::new(1),
        }
    }

    /// Latest published version (lock-free).
    fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clone the current snapshot (takes the slot mutex).
    fn snapshot(&self) -> Arc<Loaded> {
        lock(&self.slot).clone()
    }

    /// Install a new artifact snapshot; returns the version it was
    /// assigned. The version counter is read from the displaced snapshot
    /// under the same mutex, so concurrent installs serialize and the
    /// sequence stays strictly monotonic.
    fn install(&self, scorer: ScorerHandle) -> u64 {
        let mut g = lock(&self.slot);
        let version = g.version + 1;
        *g = Arc::new(Loaded { scorer, version });
        self.version.store(version, Ordering::Release);
        version
    }
}

struct Job {
    id: u64,
    values: Vec<f64>,
    enqueued: Instant,
    slot: Arc<Slot>,
}

struct Stats {
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    swaps: AtomicU64,
    queue_wait: Mutex<LatencyHisto>,
    request: Mutex<LatencyHisto>,
}

impl Stats {
    fn new() -> Self {
        Stats {
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            queue_wait: Mutex::new(LatencyHisto::new()),
            request: Mutex::new(LatencyHisto::new()),
        }
    }
}

struct Shared {
    queue: BatchQueue<Job>,
    cell: ArtifactCell,
    stats: Stats,
    sink: SinkHandle,
    n_inputs: usize,
    max_batch: usize,
}

/// The long-lived scoring daemon. See the module docs for the pipeline
/// and hot-swap architecture.
pub struct ScoreService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    started: Instant,
    n_workers: usize,
    input_schema: Vec<String>,
}

impl std::fmt::Debug for ScoreService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoreService")
            .field("workers", &self.n_workers)
            .field("max_batch", &self.shared.max_batch)
            .field("version", &self.shared.cell.version())
            .finish()
    }
}

impl ScoreService {
    /// Validate and compile `artifact`, then spin up the worker pool. The
    /// service is accepting submissions when this returns.
    pub fn start(
        artifact: &SafeArtifact,
        registry: &OperatorRegistry,
        config: ServiceConfig,
    ) -> Result<ScoreService, ServeError> {
        let scorer = ScorerHandle::new(artifact, registry)?;
        let n_inputs = scorer.n_inputs();
        let n_workers = Parallelism::new(config.workers).resolve().max(1);
        let shared = Arc::new(Shared {
            queue: BatchQueue::new(config.queue_capacity.max(1)),
            cell: ArtifactCell::new(scorer),
            stats: Stats::new(),
            sink: config.sink,
            n_inputs,
            max_batch: config.max_batch.max(1),
        });
        shared.sink.as_dyn().stage_start(stages::SERVE, None);
        let mut workers = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("safe-serve-{w}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| ServeError::Worker(format!("failed to spawn worker {w}: {e}")))?;
            workers.push(handle);
        }
        Ok(ScoreService {
            shared,
            workers,
            next_id: AtomicU64::new(0),
            started: Instant::now(),
            n_workers,
            input_schema: artifact.input_schema.clone(),
        })
    }

    /// Submit one row (values aligned with the artifact's input schema).
    /// Blocks only when the queue is at capacity (backpressure); returns a
    /// [`Ticket`] resolving to the row's [`ScoreResponse`].
    pub fn submit(&self, values: Vec<f64>) -> Result<Ticket, ServeError> {
        if values.len() != self.shared.n_inputs {
            return Err(ServeError::Plan(PlanError::MissingInput(format!(
                "expected {} input values per request, got {}",
                self.shared.n_inputs,
                values.len()
            ))));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot::new());
        let job = Job { id, values, enqueued: Instant::now(), slot: Arc::clone(&slot) };
        match self.shared.queue.push(job) {
            Ok(()) => Ok(Ticket { slot }),
            Err(_) => Err(ServeError::Closed),
        }
    }

    /// Atomically hot-swap the served artifact with zero downtime; returns
    /// the new monotonic version. The new artifact must declare the same
    /// input schema as the running one — in-flight and future submissions
    /// share one row shape — otherwise the swap is rejected with
    /// [`ServeError::Schema`] and the current artifact keeps serving.
    pub fn swap_artifact(
        &self,
        artifact: &SafeArtifact,
        registry: &OperatorRegistry,
    ) -> Result<u64, ServeError> {
        if artifact.input_schema != self.input_schema {
            return Err(ServeError::Schema(format!(
                "hot swap requires an identical input schema: service expects {:?}, new artifact declares {:?}",
                self.input_schema, artifact.input_schema
            )));
        }
        let scorer = ScorerHandle::new(artifact, registry)?;
        let version = self.shared.cell.install(scorer);
        self.shared.stats.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(version)
    }

    /// Currently published artifact version.
    pub fn version(&self) -> u64 {
        self.shared.cell.version()
    }

    /// Input values each submitted row must carry.
    pub fn n_inputs(&self) -> usize {
        self.shared.n_inputs
    }

    /// Queue traffic counters (pushed/popped/batches).
    pub fn queue_stats(&self) -> QueueStats {
        self.shared.queue.stats()
    }

    /// Live statistics snapshot. Callable at any point in the service's
    /// life; `shutdown` returns the final one.
    pub fn report(&self) -> ServiceReport {
        let stats = &self.shared.stats;
        let completed = stats.completed.load(Ordering::Relaxed);
        let total_us = micros(self.started.elapsed());
        let secs = total_us as f64 / 1e6;
        let queue_wait = lock(&stats.queue_wait);
        let request = lock(&stats.request);
        ServiceReport {
            completed,
            failed: stats.failed.load(Ordering::Relaxed),
            batches: stats.batches.load(Ordering::Relaxed),
            swaps: stats.swaps.load(Ordering::Relaxed),
            workers: self.n_workers,
            max_batch: self.shared.max_batch,
            version: self.shared.cell.version(),
            total_us,
            rows_per_sec: if secs > 0.0 { completed as f64 / secs } else { 0.0 },
            queue_p50_us: queue_wait.p50(),
            queue_p99_us: queue_wait.p99(),
            request_p50_us: request.p50(),
            request_p99_us: request.p99(),
        }
    }

    /// Graceful shutdown: stop accepting submissions, drain every queued
    /// request (all outstanding tickets resolve), join the workers, emit
    /// final telemetry counters, and return the final report.
    pub fn shutdown(mut self) -> ServiceReport {
        self.join_workers();
        let report = self.report();
        let sink = self.shared.sink.as_dyn();
        sink.counter(stages::SERVE, None, "requests", report.completed);
        sink.counter(stages::SERVE, None, "failed", report.failed);
        sink.counter(stages::SERVE, None, "batches", report.batches);
        sink.counter(stages::SERVE, None, "swaps", report.swaps);
        sink.counter(stages::SERVE, None, "workers", report.workers as u64);
        sink.stage_end(stages::SERVE, None, report.total_us);
        report
    }

    fn join_workers(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ScoreService {
    /// Dropping without [`ScoreService::shutdown`] still drains the queue
    /// and joins the pool (no request is ever stranded), but skips the
    /// final telemetry counters.
    fn drop(&mut self) {
        self.join_workers();
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

fn worker_loop(shared: &Shared) {
    let mut cached = shared.cell.snapshot();
    let mut jobs: Vec<Job> = Vec::new();
    let mut rows: Vec<f64> = Vec::new();
    let mut features: Vec<f64> = Vec::new();
    let mut scores: Vec<f64> = Vec::new();
    loop {
        jobs.clear();
        if shared.queue.pop_batch(shared.max_batch, &mut jobs) == 0 {
            break;
        }
        let dequeued = Instant::now();
        // Lock-free fast path: one Acquire load per micro-batch. The slot
        // mutex is touched only when a swap actually happened.
        if shared.cell.version() != cached.version {
            cached = shared.cell.snapshot();
        }
        rows.clear();
        for job in &jobs {
            rows.extend_from_slice(&job.values);
        }
        // Containment: a panic inside plan apply / predict fails this
        // micro-batch's tickets but never takes down the worker or the
        // service.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            cached.scorer.execute_batch(&rows, shared.n_inputs, &mut features, &mut scores)
        }));
        let n_jobs = jobs.len() as u64;
        match outcome {
            Ok(Ok(())) if scores.len() == jobs.len() => {
                let done = Instant::now();
                let sink = shared.sink.as_dyn();
                let mut queue_wait = lock(&shared.stats.queue_wait);
                let mut request = lock(&shared.stats.request);
                for (job, &score) in jobs.drain(..).zip(scores.iter()) {
                    let queue_wait_us = micros(dequeued.saturating_duration_since(job.enqueued));
                    let total_us = micros(done.saturating_duration_since(job.enqueued));
                    queue_wait.record(queue_wait_us);
                    request.record(total_us);
                    if shared.sink.enabled() {
                        sink.observe(stages::SERVE, None, "queue_wait_us", queue_wait_us);
                        sink.observe(stages::SERVE, None, "request_us", total_us);
                    }
                    job.slot.fulfill(Ok(ScoreResponse {
                        id: job.id,
                        score,
                        version: cached.version,
                        queue_wait_us,
                        total_us,
                    }));
                }
                drop(queue_wait);
                drop(request);
                shared.stats.completed.fetch_add(n_jobs, Ordering::Relaxed);
                shared.stats.batches.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Ok(())) => {
                // Defensive: the executor produced a wrong-sized score
                // vector. Fail the batch rather than misattribute scores.
                for job in jobs.drain(..) {
                    job.slot.fulfill(Err(ServeError::Worker(format!(
                        "batch executor returned {} scores for {} rows",
                        scores.len(),
                        n_jobs
                    ))));
                }
                shared.stats.failed.fetch_add(n_jobs, Ordering::Relaxed);
            }
            Ok(Err(e)) => {
                let msg = e.to_string();
                for job in jobs.drain(..) {
                    job.slot
                        .fulfill(Err(ServeError::Data(format!("batch execution failed: {msg}"))));
                }
                shared.stats.failed.fetch_add(n_jobs, Ordering::Relaxed);
            }
            Err(payload) => {
                let msg = panic_message(payload);
                // The unwound executor may have left the reused buffers
                // mid-write; replace them.
                features = Vec::new();
                scores = Vec::new();
                for job in jobs.drain(..) {
                    job.slot.fulfill(Err(ServeError::Worker(msg.clone())));
                }
                shared.stats.failed.fetch_add(n_jobs, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{toy_artifact, toy_split};
    use safe_obs::{EventKind, MemorySink};

    fn rows_of(ds: &safe_data::dataset::Dataset) -> Vec<Vec<f64>> {
        (0..ds.n_rows()).map(|i| ds.row(i)).collect()
    }

    fn offline_bits(artifact: &SafeArtifact, rows: &[Vec<f64>]) -> Vec<u64> {
        let handle = ScorerHandle::new(artifact, &OperatorRegistry::standard()).unwrap();
        let n_cols = handle.n_inputs();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let (scores, _) = handle.score_rows(&flat, n_cols).unwrap();
        scores.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn streamed_bits_match_offline_scorer() {
        let artifact = toy_artifact(41);
        let (_, valid) = toy_split(41);
        let rows = rows_of(&valid);
        let expected = offline_bits(&artifact, &rows);
        let service = ScoreService::start(
            &artifact,
            &OperatorRegistry::standard(),
            ServiceConfig { workers: 2, max_batch: 8, ..ServiceConfig::default() },
        )
        .unwrap();
        let tickets: Vec<Ticket> =
            rows.iter().map(|r| service.submit(r.clone()).unwrap()).collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait().unwrap();
            assert_eq!(resp.score.to_bits(), expected[i], "row {i}");
            assert_eq!(resp.version, 1);
        }
        let report = service.shutdown();
        assert_eq!(report.completed as usize, rows.len());
        assert_eq!(report.failed, 0);
        assert!(report.batches >= 1);
    }

    #[test]
    fn coalescing_pattern_never_changes_bits() {
        let artifact = toy_artifact(42);
        let (_, valid) = toy_split(42);
        let rows = rows_of(&valid);
        let expected = offline_bits(&artifact, &rows);
        for max_batch in [1usize, 3, 1024] {
            let service = ScoreService::start(
                &artifact,
                &OperatorRegistry::standard(),
                ServiceConfig { workers: 3, max_batch, ..ServiceConfig::default() },
            )
            .unwrap();
            let tickets: Vec<Ticket> =
                rows.iter().map(|r| service.submit(r.clone()).unwrap()).collect();
            for (i, t) in tickets.into_iter().enumerate() {
                assert_eq!(
                    t.wait().unwrap().score.to_bits(),
                    expected[i],
                    "max_batch={max_batch} row {i}"
                );
            }
        }
    }

    #[test]
    fn swap_stamps_matching_version_and_bits() {
        let a = toy_artifact(43);
        let b = toy_artifact(44); // same schema, different model bits
        let (_, valid) = toy_split(43);
        let rows = rows_of(&valid);
        let bits_a = offline_bits(&a, &rows);
        let bits_b = offline_bits(&b, &rows);
        assert_ne!(bits_a, bits_b, "fixture artifacts must differ");

        let registry = OperatorRegistry::standard();
        let service =
            ScoreService::start(&a, &registry, ServiceConfig { workers: 2, ..Default::default() })
                .unwrap();
        assert_eq!(service.version(), 1);

        let first: Vec<Ticket> =
            rows.iter().map(|r| service.submit(r.clone()).unwrap()).collect();
        let v2 = service.swap_artifact(&b, &registry).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(service.version(), 2);
        let second: Vec<Ticket> =
            rows.iter().map(|r| service.submit(r.clone()).unwrap()).collect();

        // Every response's version must match the artifact that produced
        // its bits — whichever side of the swap it landed on.
        for (i, t) in first.into_iter().chain(second).enumerate() {
            let row = i % rows.len();
            let resp = t.wait().unwrap();
            match resp.version {
                1 => assert_eq!(resp.score.to_bits(), bits_a[row], "req {i} tagged v1"),
                2 => assert_eq!(resp.score.to_bits(), bits_b[row], "req {i} tagged v2"),
                v => panic!("req {i}: unexpected version {v}"),
            }
        }
        let report = service.shutdown();
        assert_eq!(report.swaps, 1);
        assert_eq!(report.version, 2);
    }

    #[test]
    fn swap_rejects_schema_change() {
        let a = toy_artifact(45);
        let registry = OperatorRegistry::standard();
        let service = ScoreService::start(&a, &registry, ServiceConfig::default()).unwrap();
        let mut other = toy_artifact(46);
        other.input_schema = vec!["x".into(), "y".into(), "z".into()];
        other.plan.input_names = other.input_schema.clone();
        assert!(matches!(
            service.swap_artifact(&other, &registry),
            Err(ServeError::Schema(_))
        ));
        assert_eq!(service.version(), 1, "rejected swap must not bump the version");
    }

    #[test]
    fn submit_validates_arity() {
        let artifact = toy_artifact(47);
        let service =
            ScoreService::start(&artifact, &OperatorRegistry::standard(), ServiceConfig::default())
                .unwrap();
        assert!(matches!(
            service.submit(vec![1.0]),
            Err(ServeError::Plan(PlanError::MissingInput(_)))
        ));
        assert_eq!(service.n_inputs(), 3);
    }

    #[test]
    fn shutdown_drains_all_pending_tickets() {
        let artifact = toy_artifact(48);
        let (_, valid) = toy_split(48);
        let rows = rows_of(&valid);
        let service = ScoreService::start(
            &artifact,
            &OperatorRegistry::standard(),
            ServiceConfig { workers: 1, max_batch: 4, ..ServiceConfig::default() },
        )
        .unwrap();
        let tickets: Vec<Ticket> =
            rows.iter().map(|r| service.submit(r.clone()).unwrap()).collect();
        let report = service.shutdown();
        assert_eq!(report.completed as usize, rows.len());
        // Tickets resolve even though the service is gone.
        for t in tickets {
            t.wait().unwrap();
        }
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        let artifact = toy_artifact(49);
        let (_, valid) = toy_split(49);
        let rows = rows_of(&valid);
        let service = ScoreService::start(
            &artifact,
            &OperatorRegistry::standard(),
            ServiceConfig { workers: 2, max_batch: 2, queue_capacity: 4, ..ServiceConfig::default() },
        )
        .unwrap();
        // Submissions block instead of failing; everything still scores.
        let tickets: Vec<Ticket> =
            rows.iter().map(|r| service.submit(r.clone()).unwrap()).collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = service.queue_stats();
        assert_eq!(stats.pushed as usize, rows.len());
        assert_eq!(stats.popped as usize, rows.len());
    }

    #[test]
    fn telemetry_span_observes_and_counters() {
        let sink = Arc::new(MemorySink::new());
        let artifact = toy_artifact(50);
        let (_, valid) = toy_split(50);
        let rows = rows_of(&valid);
        let service = ScoreService::start(
            &artifact,
            &OperatorRegistry::standard(),
            ServiceConfig { sink: SinkHandle::new(sink.clone()), ..ServiceConfig::default() },
        )
        .unwrap();
        let tickets: Vec<Ticket> =
            rows.iter().map(|r| service.submit(r.clone()).unwrap()).collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let report = service.shutdown();
        let events = sink.events();
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::StageStart && e.stage == stages::SERVE));
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::StageEnd && e.stage == stages::SERVE));
        let observes = events
            .iter()
            .filter(|e| e.kind == EventKind::Observe && e.name == "request_us")
            .count();
        assert_eq!(observes as u64, report.completed);
        let requests = events
            .iter()
            .find(|e| e.kind == EventKind::Counter && e.name == "requests")
            .expect("requests counter");
        assert_eq!(requests.value, report.completed);
        assert!(report.request_p50_us <= report.request_p99_us);
    }
}
