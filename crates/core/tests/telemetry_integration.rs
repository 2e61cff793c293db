//! End-to-end telemetry: real SAFE fits observed through a `MemorySink`.
//!
//! Proves the four contracts the telemetry layer makes:
//! 1. span events balance and nest properly,
//! 2. every completed iteration reports the full core stage set and an
//!    internally consistent feature waterfall,
//! 3. counters are deterministic for a fixed seed,
//! 4. telemetry never changes pipeline results (NullSink vs MemorySink),
//!    and the inline report matches one reassembled from the event stream.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use safe_core::safe::SafeOutcome;
use safe_core::{Safe, SafeConfig};
use safe_data::dataset::Dataset;
use safe_obs::{
    stages, EventKind, LatencyHisto, MemorySink, MetricsSnapshot, RunReport, SinkHandle,
};

/// Label depends on the product of two features — SAFE finds an (a,b)
/// combination and completes its iterations.
fn dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cols: Vec<Vec<f64>> = (0..4).map(|_| Vec::with_capacity(n)).collect();
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let a: f64 = rng.gen_range(-1.0..1.0);
        let b: f64 = rng.gen_range(-1.0..1.0);
        cols[0].push(a);
        cols[1].push(b);
        cols[2].push(rng.gen_range(-1.0..1.0));
        cols[3].push(rng.gen_range(-1.0..1.0));
        labels.push((a * b > 0.0) as u8);
    }
    Dataset::from_columns(
        vec!["a".into(), "b".into(), "n1".into(), "n2".into()],
        cols,
        Some(labels),
    )
    .unwrap()
}

fn fit_with(sink: SinkHandle, n_iterations: usize) -> SafeOutcome {
    let train = dataset(800, 7);
    let config = SafeConfig {
        sink,
        seed: 7,
        gamma: 10,
        n_iterations,
        ..SafeConfig::paper()
    };
    Safe::new(config).fit(&train, None).unwrap()
}

#[test]
fn spans_balance_and_nest() {
    let sink = Arc::new(MemorySink::new());
    let _ = fit_with(SinkHandle::new(sink.clone()), 2);
    let events = sink.events();
    assert!(!events.is_empty());

    let mut stack: Vec<&str> = Vec::new();
    for e in &events {
        match e.kind {
            EventKind::StageStart => stack.push(&e.stage),
            EventKind::StageEnd => {
                let open = stack.pop().unwrap_or_else(|| {
                    panic!("stage_end '{}' with no open span", e.stage)
                });
                assert_eq!(open, e.stage, "spans must close LIFO");
            }
            _ => {}
        }
    }
    assert!(stack.is_empty(), "unclosed spans: {stack:?}");

    // Timestamps are monotone within the stream.
    assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
}

#[test]
fn completed_iterations_carry_full_stage_set() {
    let sink = Arc::new(MemorySink::new());
    let outcome = fit_with(SinkHandle::new(sink.clone()), 2);

    let completed: Vec<_> = outcome
        .report
        .iterations
        .iter()
        .filter(|it| it.status == "completed")
        .collect();
    assert!(!completed.is_empty(), "fixture must complete at least one iteration");
    for it in completed {
        for want in stages::CORE {
            assert!(
                it.stage(want).is_some(),
                "iteration {} missing stage {want}",
                it.iteration
            );
        }
        assert!(
            it.waterfall.is_consistent(),
            "waterfall must be a funnel: {:?}",
            it.waterfall
        );
        assert_eq!(it.waterfall.selected, outcome.history[it.iteration].n_selected as u64);
        // The iteration span covers its stages.
        let stage_sum: u64 = it.stages.iter().map(|s| s.micros).sum();
        assert!(it.micros >= stage_sum, "iteration span shorter than its stages");
    }
    // One history entry per report iteration, statuses agree.
    assert_eq!(outcome.report.iterations.len(), outcome.history.len());
}

/// Everything in a report except wall-clock timings, for equality checks.
fn deterministic_view(report: &RunReport) -> String {
    let mut out = String::new();
    for it in &report.iterations {
        out.push_str(&format!(
            "iter {} {} waterfall={:?}\n",
            it.iteration, it.status, it.waterfall
        ));
        for s in &it.stages {
            out.push_str(&format!(
                "  {} in={} out={} counters={:?}\n",
                s.stage, s.features_in, s.features_out, s.counters
            ));
        }
    }
    out
}

#[test]
fn counters_deterministic_for_fixed_seed() {
    let a = fit_with(SinkHandle::new(Arc::new(MemorySink::new())), 2);
    let b = fit_with(SinkHandle::new(Arc::new(MemorySink::new())), 2);
    assert_eq!(deterministic_view(&a.report), deterministic_view(&b.report));
}

#[test]
fn null_sink_outcome_identical_to_instrumented_run() {
    let instrumented = fit_with(SinkHandle::new(Arc::new(MemorySink::new())), 2);
    let silent = fit_with(SinkHandle::null(), 2);

    // The learned plan is byte-identical.
    assert_eq!(silent.plan.to_text(), instrumented.plan.to_text());
    // Funnel history matches except for wall-clock.
    assert_eq!(silent.history.len(), instrumented.history.len());
    for (s, i) in silent.history.iter().zip(&instrumented.history) {
        assert_eq!(s.iteration, i.iteration);
        assert_eq!(s.n_combinations, i.n_combinations);
        assert_eq!(s.n_generated, i.n_generated);
        assert_eq!(s.n_after_iv, i.n_after_iv);
        assert_eq!(s.n_after_redundancy, i.n_after_redundancy);
        assert_eq!(s.n_selected, i.n_selected);
        assert_eq!(s.selected, i.selected);
    }
    // The report is assembled either way, with identical content.
    assert_eq!(
        deterministic_view(&silent.report),
        deterministic_view(&instrumented.report)
    );
}

/// Replaying a fit's event stream gives its inline report, with and
/// without checkpointing: the sink-only `checkpoint` spans never enter
/// either.
#[test]
fn report_from_events_matches_inline_assembly() {
    let ckpt_dir =
        std::env::temp_dir().join(format!("safe_telemetry_replay_{}", std::process::id()));
    for checkpoint_dir in [None, Some(ckpt_dir.clone())] {
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let sink = Arc::new(MemorySink::new());
        let config = SafeConfig {
            sink: SinkHandle::new(sink.clone()),
            seed: 7,
            gamma: 10,
            n_iterations: 2,
            checkpoint_dir,
            ..SafeConfig::paper()
        };
        let outcome = Safe::new(config).fit(&dataset(800, 7), None).unwrap();
        let replayed = RunReport::from_events(&sink.events());

        assert_eq!(replayed.iterations.len(), outcome.report.iterations.len());
        for (r, i) in replayed.iterations.iter().zip(&outcome.report.iterations) {
            assert_eq!(r.iteration, i.iteration);
            assert_eq!(r.status, i.status);
            assert_eq!(r.waterfall, i.waterfall);
            assert_eq!(r.stages.len(), i.stages.len(), "iteration {}", i.iteration);
            for (x, y) in r.stages.iter().zip(&i.stages) {
                assert_eq!(x.stage, y.stage);
                assert_eq!(x.features_in, y.features_in);
                assert_eq!(x.features_out, y.features_out);
                assert_eq!(x.counters, y.counters, "stage {}", y.stage);
                assert_eq!(x.micros, y.micros, "stage {}", y.stage);
            }
        }
        assert_eq!(replayed.setup.len(), outcome.report.setup.len());
        assert_eq!(replayed.warnings, outcome.report.warnings);
        assert!(
            replayed.structural_eq(&outcome.report),
            "the replayed report must equal the inline one"
        );
    }
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

/// The metrics layer's acceptance contract: latency *values* are
/// wall-clock and vary run to run, but everything structural about the
/// histograms is deterministic — observation counts don't depend on the
/// worker budget, and sharding one run's real latency stream across any
/// number of "threads" then merging in any order yields bit-identical
/// quantiles.
#[test]
fn stage_latency_quantiles_bit_identical_across_thread_counts() {
    let mut counts = Vec::new();
    for threads in [1usize, 4] {
        let sink = Arc::new(MemorySink::new());
        let train = dataset(800, 7);
        let config = SafeConfig {
            sink: SinkHandle::new(sink.clone()),
            seed: 7,
            gamma: 10,
            n_iterations: 2,
            ..SafeConfig::paper()
        }
        .with_threads(threads);
        let outcome = Safe::new(config).fit(&train, None).unwrap();

        let gbm_histo = outcome
            .report
            .metrics
            .histogram("stage_us", &[("stage", stages::GBM_TRAIN)])
            .expect("report must carry the gbm-train latency histogram");
        let iter_histo = outcome
            .report
            .metrics
            .histogram("iteration_us", &[])
            .expect("report must carry the iteration latency histogram");
        assert_eq!(iter_histo.count(), outcome.report.iterations.len() as u64);
        counts.push((gbm_histo.count(), iter_histo.count()));

        // Shard this run's real per-round gbm latency stream 4 ways and
        // merge in reverse order: bit-identical to serial recording.
        let values: Vec<u64> = sink
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Observe && e.name == "gbm_round_us")
            .map(|e| e.value)
            .collect();
        assert!(!values.is_empty(), "fit must observe per-round gbm latencies");
        let mut serial = LatencyHisto::new();
        for &v in &values {
            serial.record(v);
        }
        let mut shards = vec![LatencyHisto::new(); 4];
        for (i, &v) in values.iter().enumerate() {
            shards[i % 4].record(v);
        }
        let mut merged = LatencyHisto::new();
        for s in shards.iter().rev() {
            merged.merge(s);
        }
        assert_eq!(merged, serial, "sharded merge must be exact");
        assert_eq!(
            (merged.p50(), merged.p95(), merged.p99()),
            (serial.p50(), serial.p95(), serial.p99()),
            "quantiles must be bit-identical under any merge order"
        );
    }
    assert_eq!(counts[0], counts[1], "observation counts must not depend on threads");
}

/// Sink-only invariant (PR 6 extended by PR 7): `observe` events — per-round
/// GBM timings, histogram-build timings, checkpoint write latency — exist in
/// the event stream and the metrics snapshot, but never become stage
/// counters in the report, so resumed and uninterrupted reports still
/// compare equal.
#[test]
fn observe_events_are_sink_only_and_survive_kill_resume() {
    let train = dataset(800, 7);
    let ckpt_dir =
        std::env::temp_dir().join(format!("safe_telemetry_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).unwrap();

    let sink = Arc::new(MemorySink::new());
    let config = SafeConfig {
        sink: SinkHandle::new(sink.clone()),
        seed: 7,
        gamma: 10,
        n_iterations: 2,
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..SafeConfig::paper()
    };
    let baseline = Safe::new(config.clone()).fit(&train, None).unwrap();

    // Observe events exist for the round timings and the checkpoint write.
    let events = sink.events();
    for name in ["gbm_round_us", "gbm_hist_build_us", "ckpt_write_us"] {
        assert!(
            events.iter().any(|e| e.kind == EventKind::Observe && e.name == name),
            "missing observe events for {name}"
        );
    }
    // They land in the snapshot assembled from events...
    let snapshot = MetricsSnapshot::from_events(&events);
    assert!(snapshot
        .histogram("ckpt_write_us", &[("stage", stages::CHECKPOINT)])
        .is_some());
    // ...but never become stage counters in the report.
    for it in &baseline.report.iterations {
        for st in &it.stages {
            for name in ["gbm_round_us", "gbm_hist_build_us", "ckpt_write_us"] {
                assert!(
                    st.counter(name).is_none(),
                    "observe '{name}' leaked into stage counters of {}",
                    st.stage
                );
            }
        }
    }

    // Crash simulation: only the first snapshot survives; resume must
    // rebuild the identical plan and a structurally identical report.
    let mut snapshots: Vec<std::path::PathBuf> = std::fs::read_dir(&ckpt_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    snapshots.sort();
    assert!(!snapshots.is_empty());
    for late in &snapshots[1..] {
        std::fs::remove_file(late).unwrap();
    }
    let resumed = Safe::new(config).fit_resumed(&train, None).unwrap();
    assert_eq!(resumed.plan.to_text(), baseline.plan.to_text());
    assert!(
        resumed.report.structural_eq(&baseline.report),
        "resumed report must be structurally identical"
    );
    // The resumed run's registry is fresh (covers only the post-resume
    // segment) yet still produces latency histograms.
    assert!(!resumed.report.metrics.is_empty());
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

/// A NullSink run still records builder-side latency histograms (the report
/// carries wall-clock spans anyway), and stays structurally identical to an
/// instrumented run — histograms never perturb the pipeline.
#[test]
fn null_sink_run_structural_eq_and_still_has_histograms() {
    let instrumented = fit_with(SinkHandle::new(Arc::new(MemorySink::new())), 2);
    let silent = fit_with(SinkHandle::null(), 2);
    assert!(silent.report.structural_eq(&instrumented.report));
    assert!(
        silent
            .report
            .metrics
            .histogram("stage_us", &[("stage", stages::GBM_TRAIN)])
            .is_some(),
        "builder-side histograms must record even with the NullSink"
    );
}

/// Acceptance: a Chrome-trace export of a full (scaled) `gina` run — the
/// paper's 970-feature benchmark — round-trips through the validator and
/// contains the pipeline spans.
#[test]
fn gina_run_chrome_trace_round_trips_through_validator() {
    use safe_datagen::benchmarks::{generate_benchmark_scaled, BenchmarkId};
    let split = generate_benchmark_scaled(BenchmarkId::Gina, 0.05, 7);
    let sink = Arc::new(MemorySink::new());
    let config = SafeConfig {
        sink: SinkHandle::new(sink.clone()),
        seed: 7,
        gamma: 10,
        n_iterations: 1,
        ..SafeConfig::paper()
    };
    let _ = Safe::new(config).fit(&split.train, None).unwrap();

    let trace = safe_obs::chrome_trace_json(&sink.events());
    let summary = safe_obs::validate_chrome_trace(&trace).expect("gina trace must validate");
    assert!(summary.spans > 0, "{summary:?}");
    assert!(summary.events >= summary.spans);

    // The folded-stack export of the same stream nests stages under their
    // iteration frame.
    let folded = safe_obs::folded_stacks(&sink.events());
    assert!(
        folded.lines().any(|l| l.starts_with("iteration;")),
        "folded stacks must nest stages: {folded}"
    );
}

#[test]
fn degraded_iteration_emits_warn_and_balances() {
    let sink = Arc::new(MemorySink::new());
    let train = dataset(600, 3);
    let config = SafeConfig {
        sink: SinkHandle::new(sink.clone()),
        seed: 3,
        gamma: 8,
        // An absurd IV threshold empties the filter: the iteration degrades.
        alpha: 1.0e9,
        ..SafeConfig::paper()
    };
    let outcome = Safe::new(config).fit(&train, None).unwrap();
    assert!(outcome
        .report
        .warnings
        .iter()
        .any(|w| w.code == "degraded"), "warnings: {:?}", outcome.report.warnings);

    let events = sink.events();
    assert!(events.iter().any(|e| e.kind == EventKind::Warn));
    let starts = events.iter().filter(|e| e.kind == EventKind::StageStart).count();
    let ends = events.iter().filter(|e| e.kind == EventKind::StageEnd).count();
    assert_eq!(starts, ends, "degraded run must still balance its spans");
}
