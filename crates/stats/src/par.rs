//! Configurable parallel execution layer over a persistent `std` thread
//! pool.
//!
//! The SAFE paper (Section IV-E) motivates per-feature parallelism for the
//! expensive stages: histogram construction, IG-ratio combination scoring,
//! operator application, IV binning, and pairwise Pearson. This module is
//! the single primitive those stages share:
//!
//! - [`Parallelism`] — the thread-count knob carried by `SafeConfig` and
//!   `GbmConfig` (`0` = auto-detect, `1` = the serial path, `n` = at most
//!   `n` threads, the caller included).
//! - [`try_par_chunks`] / [`try_par_map`] — chunked maps over index
//!   ranges whose results are merged in **fixed chunk-index order**, so
//!   output is bit-identical to a sequential loop regardless of thread
//!   count or scheduling. Worker panics are captured and surfaced as a
//!   [`ParPanic`] error instead of unwinding.
//! - [`par_map`] / [`par_map_slice`] — the same map re-raising a captured
//!   panic on the caller. Every call returns only after all of its chunks have
//!   finished, so a panicking chunk can never leave the caller hanging.
//!
//! Chunks run on the calling thread and on a process-wide pool of parked
//! worker threads. The pool starts the first time a map splits, grows to
//! the largest chunk count any call has asked for (less one, for the
//! caller), and never shrinks. A call's chunks are claimed one at a time
//! through an atomic index, and the caller claims every chunk no worker
//! has taken before it waits, so nested maps (a chunk that calls `par`) and
//! concurrent callers always make progress.
//!
//! # Determinism contract
//!
//! Chunk boundaries depend only on `(n, resolved thread count)`, every
//! chunk writes to its own pre-assigned slot, and slots are concatenated
//! in chunk-index order after every chunk has finished. Which thread runs
//! a chunk never affects what it computes. No reduction here is
//! order-sensitive, so `threads = k` produces the same bytes as
//! `threads = 1` for any `k`. The serial-vs-parallel differential suite
//! (`tests/parallel_differential.rs`) enforces this end to end.

use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Upper bound on an explicit thread request. Anything larger is a config
/// error: it would only oversubscribe the scheduler.
pub const MAX_THREADS: usize = 512;

/// Below this many items per chunk, handing work to another thread costs
/// more than it saves: a map of fewer than `2 * MIN_PER_THREAD` items runs
/// inline on the calling thread and never starts the pool.
pub const MIN_PER_THREAD: usize = 8;

/// Thread-count knob for the parallel stages.
///
/// `threads == 0` means "auto": resolve to `available_parallelism()` at
/// use time. `threads == 1` is the serial path: every map runs inline and
/// the worker pool is never started. Any other value splits a map into at
/// most that many chunks, run by the calling thread and up to
/// `threads − 1` pool workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Requested worker count; `0` = auto-detect from the machine.
    pub threads: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::auto()
    }
}

impl Parallelism {
    /// Auto-detect: use `available_parallelism()` when the work is large
    /// enough to split.
    pub fn auto() -> Self {
        Parallelism { threads: 0 }
    }

    /// Force the serial path; equivalent to `new(1)`.
    pub fn serial() -> Self {
        Parallelism { threads: 1 }
    }

    /// Request exactly `threads` workers (`0` = auto).
    pub fn new(threads: usize) -> Self {
        Parallelism { threads }
    }

    /// The concrete thread budget: the explicit request, or the machine's
    /// available parallelism when auto.
    pub fn resolve(self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Reject absurd explicit requests (more than [`MAX_THREADS`]).
    pub fn validate(self) -> Result<(), String> {
        if self.threads > MAX_THREADS {
            return Err(format!(
                "threads must be 0 (auto) or at most {MAX_THREADS}, got {}",
                self.threads
            ));
        }
        Ok(())
    }

    /// Number of chunks an `n`-item map will split into: `1` when serial
    /// or when the work is too small to hand to another thread.
    pub fn chunk_count(self, n: usize) -> usize {
        let threads = self.resolve();
        if threads <= 1 || n < 2 * MIN_PER_THREAD {
            1
        } else {
            threads.min(n / MIN_PER_THREAD).max(1)
        }
    }
}

/// A worker thread panicked inside a parallel map.
///
/// Carries the stringified panic payload; callers in the pipeline convert
/// this into a `SafeError` so a poisoned stage degrades instead of
/// unwinding (or worse, deadlocking) the whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParPanic {
    /// Panic payload rendered as text (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl fmt::Display for ParPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parallel worker thread panicked: {}", self.message)
    }
}

impl std::error::Error for ParPanic {}

fn payload_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Split `0..n` into contiguous chunks, run `f` on each chunk (on the
/// calling thread and, when the knob allows, on pool workers), and return
/// the per-chunk results in chunk-index order. A panicking chunk is
/// captured and returned as [`ParPanic`] (the lowest-index one when several
/// fail); the call returns only after every chunk has finished.
pub fn try_par_chunks<R, F>(par: Parallelism, n: usize, f: F) -> Result<Vec<R>, ParPanic>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    if n == 0 {
        return Ok(Vec::new());
    }
    let n_chunks = par.chunk_count(n);
    if n_chunks <= 1 {
        return match catch_unwind(AssertUnwindSafe(|| f(0..n))) {
            Ok(r) => Ok(vec![r]),
            Err(p) => Err(ParPanic {
                message: payload_message(p),
            }),
        };
    }

    let chunk = n.div_ceil(n_chunks);
    let ranges: Vec<Range<usize>> = (0..n_chunks)
        .map(|i| (i * chunk)..((i + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect();
    // One slot per chunk, written once by whichever thread runs the chunk.
    // A slot guard is held only for one assignment, so it is never poisoned.
    let slots: Vec<Mutex<Option<R>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
    let run_chunk = |i: usize| {
        let out = f(ranges[i].clone());
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
    };
    if let Some((_, payload)) = pool::run(ranges.len(), &run_chunk) {
        return Err(ParPanic {
            message: payload_message(payload),
        });
    }
    Ok(slots
        .into_iter()
        .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect())
}

/// Parallel map of `f` over `0..n`; results in index order, worker panics
/// surfaced as [`ParPanic`].
pub fn try_par_map<T, F>(par: Parallelism, n: usize, f: F) -> Result<Vec<T>, ParPanic>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let chunks = try_par_chunks(par, n, |range| range.map(&f).collect::<Vec<T>>())?;
    Ok(chunks.into_iter().flatten().collect())
}

/// Parallel map of `f` over `0..n`, re-raising worker panics.
pub fn par_map<T, F>(par: Parallelism, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match try_par_map(par, n, f) {
        Ok(v) => v,
        Err(p) => panic!("{p}"),
    }
}

/// Parallel map over an explicit slice, re-raising worker panics.
pub fn par_map_slice<I, T, F>(par: Parallelism, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map(par, items.len(), |i| f(&items[i]))
}

/// The persistent worker pool behind [`try_par_chunks`], and the only
/// `unsafe` code in this crate.
///
/// Workers are plain `std` threads, spawned the first time a call needs
/// them and parked on a condition variable between calls; they never spin
/// and are never joined. A call publishes one [`Job`] to a FIFO queue. The
/// caller and any idle worker claim its chunks through an atomic index,
/// and a per-job latch counts finished chunks, so the caller knows when
/// every claimed chunk is done.
mod pool {
    use std::any::Any;
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    /// A captured chunk panic: the chunk's index and its payload.
    pub(super) type ChunkPanic = (usize, Box<dyn Any + Send>);

    /// Runs one chunk, given its index.
    type Task<'a> = dyn Fn(usize) + Sync + 'a;

    struct State {
        /// Published jobs, oldest first. A worker drops a job once every
        /// one of its chunks has been claimed.
        jobs: VecDeque<Arc<Job>>,
        /// Workers spawned so far; the pool never shrinks.
        workers: usize,
        /// The most helpers any call has asked for; `workers` never
        /// exceeds it.
        peak_request: usize,
    }

    static STATE: Mutex<State> = Mutex::new(State {
        jobs: VecDeque::new(),
        workers: 0,
        peak_request: 0,
    });
    /// Signalled once per helper a newly published job wants.
    static WAKE: Condvar = Condvar::new();

    /// One call's chunks, shared by the caller and the workers that help it.
    struct Job {
        /// Lifetime-erased borrow of the caller's chunk runner; see `run`.
        task: &'static Task<'static>,
        chunks: usize,
        /// Next chunk index to claim; claims past `chunks` find nothing.
        /// `Relaxed` is enough because a claim publishes no data: workers
        /// receive the job through the `STATE` lock, and results travel
        /// back through the slot, `panics` and `remaining` locks.
        next: AtomicUsize,
        /// Chunks not yet finished (the latch), and its wake-up.
        remaining: Mutex<usize>,
        done: Condvar,
        /// Panics captured so far; moved out by the caller after the latch.
        panics: Mutex<Vec<ChunkPanic>>,
    }

    /// Lock, recovering a poisoned guard. Every update made under these
    /// locks is a single push, pop, take, increment or decrement, and no
    /// user code runs while one is held, so the data is valid even if a
    /// holder panicked.
    fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
        mutex.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `task(i)` for every `i` in `0..chunks` on the calling thread and
    /// on up to `chunks − 1` pool workers. Returns once every chunk has
    /// finished, with the lowest-index chunk panic if any chunk panicked.
    pub(super) fn run(chunks: usize, task: &Task<'_>) -> Option<ChunkPanic> {
        // SAFETY: the workers need a `'static` borrow, and this one is
        // dereferenced only by `Job::work`, for a claimed index below
        // `chunks`. Every such dereference happens before `run` returns:
        // 1. `run` returns only after every claimed chunk has finished:
        //    `Job::wait` blocks until `remaining`, which counts finished
        //    chunks rather than claims, reaches zero.
        // 2. A claim made after the last chunk (index `>= chunks`) returns
        //    without dereferencing `task`, so a worker that still holds the
        //    `Arc<Job>` once `run` has returned never touches the borrow.
        // 3. `run` cannot unwind between publishing the job and the end of
        //    the wait: each chunk runs under `catch_unwind`, and `lock` and
        //    `Job::wait` recover poisoned guards instead of panicking.
        //    Nothing else on that path can panic, and the caller's own
        //    payloads are dropped only after the wait.
        let task = unsafe { std::mem::transmute::<&Task<'_>, &'static Task<'static>>(task) };
        let job = Arc::new(Job {
            task,
            chunks,
            next: AtomicUsize::new(0),
            remaining: Mutex::new(chunks),
            done: Condvar::new(),
            panics: Mutex::new(Vec::new()),
        });
        let helpers = publish(&job, chunks.saturating_sub(1));
        for _ in 0..helpers {
            WAKE.notify_one();
        }
        job.work();
        job.wait()
    }

    /// Grow the pool towards `wanted` workers, queue `job` if any worker
    /// exists, and return how many workers to wake for it.
    fn publish(job: &Arc<Job>, wanted: usize) -> usize {
        let mut state = lock(&STATE);
        state.peak_request = state.peak_request.max(wanted);
        while state.workers < wanted {
            let spawned = std::thread::Builder::new()
                .name("safe-par".to_string())
                .spawn(work_forever);
            if spawned.is_err() {
                // Fewer workers, never a panic: the caller runs what no
                // worker claims.
                break;
            }
            state.workers += 1;
        }
        if state.workers == 0 {
            return 0;
        }
        state.jobs.push_back(Arc::clone(job));
        state.workers.min(wanted)
    }

    /// A worker's whole life: help the oldest job that still has unclaimed
    /// chunks, or park until a new one is published.
    fn work_forever() {
        let mut state = lock(&STATE);
        loop {
            while state.jobs.front().is_some_and(|job| job.all_claimed()) {
                state.jobs.pop_front();
            }
            match state.jobs.front().map(Arc::clone) {
                Some(job) => {
                    drop(state);
                    job.work();
                    state = lock(&STATE);
                }
                None => state = WAKE.wait(state).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }

    impl Job {
        fn all_claimed(&self) -> bool {
            self.next.load(Ordering::Relaxed) >= self.chunks
        }

        /// Claim and run chunks until none is left unclaimed.
        fn work(&self) {
            loop {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= self.chunks {
                    return;
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task)(i))) {
                    lock(&self.panics).push((i, payload));
                }
                let mut remaining = lock(&self.remaining);
                *remaining -= 1;
                if *remaining == 0 {
                    self.done.notify_one();
                }
            }
        }

        /// Block until every chunk has finished, then hand back the
        /// lowest-index panic. Payloads leave the job here, so a worker
        /// dropping the last `Arc<Job>` never runs a payload's destructor.
        fn wait(&self) -> Option<ChunkPanic> {
            let mut remaining = lock(&self.remaining);
            while *remaining > 0 {
                remaining = self
                    .done
                    .wait(remaining)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            drop(remaining);
            let panics = std::mem::take(&mut *lock(&self.panics));
            panics.into_iter().min_by_key(|(i, _)| *i)
        }
    }

    /// `(workers, peak_request)`, read in one critical section.
    #[cfg(test)]
    pub(crate) fn size() -> (usize, usize) {
        let state = lock(&STATE);
        (state.workers, state.peak_request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn auto_is_default_and_zero() {
        assert_eq!(Parallelism::default(), Parallelism::auto());
        assert_eq!(Parallelism::auto().threads, 0);
        assert!(Parallelism::auto().resolve() >= 1);
    }

    #[test]
    fn explicit_resolve_is_identity() {
        assert_eq!(Parallelism::new(7).resolve(), 7);
        assert_eq!(Parallelism::serial().resolve(), 1);
    }

    #[test]
    fn validate_rejects_absurd_requests() {
        assert!(Parallelism::new(MAX_THREADS).validate().is_ok());
        assert!(Parallelism::new(MAX_THREADS + 1).validate().is_err());
        assert!(Parallelism::auto().validate().is_ok());
    }

    #[test]
    fn serial_spawns_single_chunk() {
        assert_eq!(Parallelism::serial().chunk_count(10_000), 1);
        assert_eq!(Parallelism::new(4).chunk_count(4), 1, "too small to split");
        assert!(Parallelism::new(4).chunk_count(10_000) > 1);
    }

    #[test]
    fn par_map_matches_serial_for_every_thread_count() {
        let expected: Vec<u64> = (0..500u64).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 7, 16] {
            let got = par_map(Parallelism::new(threads), 500, |i| i as u64 * 3 + 1);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_covers_range_in_order() {
        let chunks =
            try_par_chunks(Parallelism::new(4), 100, |r| r.collect::<Vec<_>>()).expect("no panic");
        let flat: Vec<usize> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn calls_each_index_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = par_map(Parallelism::new(4), 1_000, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1_000);
        assert_eq!(out.len(), 1_000);
    }

    #[test]
    fn empty_range() {
        let out: Vec<usize> = par_map(Parallelism::new(4), 0, |i| i);
        assert!(out.is_empty());
        assert!(try_par_chunks(Parallelism::new(4), 0, |r| r.len())
            .expect("empty is fine")
            .is_empty());
    }

    #[test]
    fn worker_panic_becomes_error_not_hang() {
        let err = try_par_map(Parallelism::new(4), 1_000, |i| {
            if i == 777 {
                panic!("poisoned item {i}");
            }
            i
        })
        .expect_err("panic must surface");
        assert!(err.message.contains("poisoned item 777"), "{err}");
    }

    #[test]
    fn serial_panic_also_becomes_error() {
        let err = try_par_map(Parallelism::serial(), 10, |i| {
            if i == 3 {
                panic!("serial poison");
            }
            i
        })
        .expect_err("panic must surface");
        assert!(err.message.contains("serial poison"));
    }

    #[test]
    fn first_chunk_panic_wins_deterministically() {
        for _ in 0..10 {
            let err = try_par_map(Parallelism::new(4), 1_000, |i| {
                if i % 250 == 10 {
                    panic!("chunk owning {i}");
                }
                i
            })
            .expect_err("panic must surface");
            assert!(err.message.contains("chunk owning 10"), "{err}");
        }
    }

    #[test]
    fn par_map_repanics_with_message() {
        let caught = std::panic::catch_unwind(|| {
            par_map(Parallelism::new(2), 100, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        let payload = caught.expect_err("must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn oversubscription_preserves_order() {
        // More threads than items-per-chunk allows on any machine.
        let out = par_map(Parallelism::new(64), 256, |i| i);
        assert_eq!(out, (0..256).collect::<Vec<_>>());
    }

    #[test]
    fn non_copy_results() {
        let out = par_map(Parallelism::new(3), 100, |i| vec![i; 3]);
        assert_eq!(out[42], vec![42, 42, 42]);
    }

    #[test]
    fn nested_maps_return_the_serial_result() {
        let serial: Vec<Vec<usize>> = (0..40).map(|i| (0..64).map(|j| i * j).collect()).collect();
        for threads in [2, 4] {
            let par = Parallelism::new(threads);
            let got = try_par_map(par, 40, |i| {
                try_par_map(par, 64, |j| i * j).expect("inner map must not panic")
            })
            .expect("outer map must not panic");
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn concurrent_callers_each_get_the_serial_map() {
        let callers: Vec<_> = (0..8u64)
            .map(|caller| {
                std::thread::spawn(move || {
                    for call in 0..200u64 {
                        let threads = [2, 3, 4, 7][(caller + call) as usize % 4];
                        let n = 16 + ((caller * 31 + call * 7) % 300) as usize;
                        let expected: Vec<u64> =
                            (0..n as u64).map(|i| i * caller + call).collect();
                        let got = par_map(Parallelism::new(threads), n, |i| {
                            i as u64 * caller + call
                        });
                        assert_eq!(got, expected, "caller {caller} call {call} threads {threads}");
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("caller thread must not panic");
        }
    }

    #[test]
    fn pool_stays_usable_after_a_chunk_panics() {
        let par = Parallelism::new(2);
        let err = try_par_map(par, 64, |i| {
            if i == 40 {
                panic!("second chunk fails");
            }
            i
        })
        .expect_err("panic must surface");
        assert!(err.message.contains("second chunk fails"), "{err}");
        let out = try_par_map(par, 64, |i| i * 2).expect("next call must succeed");
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_of_one_call_run_at_the_same_time() {
        // Each of the two chunks sends to the other and waits for its
        // message. Run one after the other, the first chunk's wait times
        // out and the call fails instead of hanging.
        let (to_second, from_first) = std::sync::mpsc::channel::<()>();
        let (to_first, from_second) = std::sync::mpsc::channel::<()>();
        let ends = [
            (Mutex::new(to_second), Mutex::new(from_second)),
            (Mutex::new(to_first), Mutex::new(from_first)),
        ];
        let par = Parallelism::new(2);
        assert_eq!(par.chunk_count(16), 2);
        let met = try_par_chunks(par, 16, |range| {
            let (tx, rx) = &ends[range.start / 8];
            tx.lock().unwrap().send(()).unwrap();
            rx.lock()
                .unwrap()
                .recv_timeout(std::time::Duration::from_secs(20))
                .is_ok()
        })
        .expect("no chunk panics");
        assert_eq!(met, vec![true, true], "chunks did not overlap");
    }

    #[test]
    fn pool_never_exceeds_the_largest_request() {
        for threads in [2, 3] {
            par_map(Parallelism::new(threads), 64, |i| i);
        }
        let (workers, peak_request) = pool::size();
        assert!(peak_request >= 2, "a 3-chunk call asks for two helpers");
        assert!(workers >= 2, "the pool grows to meet a request");
        assert!(workers <= peak_request, "{workers} workers > peak request {peak_request}");
    }

    #[test]
    fn slice_wrapper() {
        let items = vec!["a", "bb", "ccc"];
        assert_eq!(par_map_slice(Parallelism::new(2), &items, |s| s.len()), vec![1, 2, 3]);
    }
}
