//! The `fit-*` workloads: whole `Safe::fit` calls, every iteration.
//!
//! A run fits several datasets drawn from its seed, one of each per cycle.
//! How much work SAFE does depends on the data (how many candidates clear
//! α, how many features the first iteration keeps for the second), so a
//! single dataset would make the reported time a property of the seed as
//! much as of the code.
//!
//! The end-to-end time of a dataset is its fastest fit in the run, and
//! `latency_ms` is the mean of those over the datasets. On a shared host,
//! other tenants only ever add time, for seconds at a stretch; the fastest
//! of several fits spread over the run is the one they held up least.
//!
//! Only `fit-wide` fits at `nproc` threads. Every `stats::par` call wakes
//! the other CPUs, and on a virtual machine how long that takes depends on
//! the host's load, so the other fit workloads run at one thread: they
//! measure the pipeline's own work and bypass the worker layer, which
//! `fit-wide` exercises.

use std::time::Instant;

use safe_core::plan::FeaturePlan;
use safe_core::{IterationStatus, Safe, SafeConfig, SafeOutcome, SelectionMode};
use safe_data::chunk::ChunkOptions;
use safe_data::dataset::Dataset;
use safe_data::split::DatasetSplit;
use safe_gbm::GbmConfig;
use safe_obs::SinkHandle;
use safe_ops::registry::OperatorRegistry;
use safe_serve::{SafeArtifact, ScorerHandle};

use crate::inputs::{dataset_seed, row_major, Shape};
use crate::metrics::Results;
use crate::serve::{self, Load};
use crate::summary::median;
use crate::trace::Tracer;
use crate::workload::{repeat_setup, Ctx, Cycle};
use crate::{kernels, layers, proc};

/// Rows per spilled chunk and chunks kept decoded in the spill probe: on
/// the tall table, 6 × 256 rows × 100 columns is 1.2 MB against 12 MB.
const CHUNK_ROWS: usize = 256;
const RESIDENT_CHUNKS: usize = 6;

/// Datasets whose plans are scored for `auc`: eight already keep its
/// spread across seeds under 2%.
const AUC_DATASETS: usize = 8;

pub struct FitSpec {
    pub shape: Shape,
    /// Datasets per run, each fitted once per cycle.
    pub datasets: usize,
    pub selection: SelectionMode,
    pub iterations: usize,
    /// Threads of the timed fits.
    pub threads: usize,
}

struct Input {
    seed: u64,
    train: Dataset,
    valid: Option<Dataset>,
}

impl Input {
    fn build(spec: &FitSpec, run_seed: u64, index: usize) -> Input {
        let seed = dataset_seed(run_seed, index);
        let (train, valid) = spec.shape.fit_input(seed);
        Input { seed, train, valid }
    }
}

pub fn config(
    seed: u64,
    selection: SelectionMode,
    iterations: usize,
    threads: usize,
    sink: SinkHandle,
) -> Result<SafeConfig, String> {
    SafeConfig::builder()
        .seed(seed)
        .selection(selection)
        .n_iterations(iterations)
        .threads(threads)
        .sink(sink)
        .build()
}

/// One timed fit. Counts as one op; a rejected fit or an iteration that
/// did not complete is a failed op. `plan` holds the first plan this
/// dataset produced, which every later fit must reproduce exactly.
pub fn fit(
    r: &mut Results,
    config: SafeConfig,
    train: &Dataset,
    valid: Option<&Dataset>,
    plan: &mut Option<FeaturePlan>,
) -> Result<(SafeOutcome, f64), String> {
    let start = Instant::now();
    let fitted = Safe::new(config).fit(train, valid);
    let secs = start.elapsed().as_secs_f64();
    let out = fitted.map_err(|e| e.to_string()).and_then(|out| {
        match out
            .history
            .iter()
            .find(|h| h.status != IterationStatus::Completed)
        {
            Some(h) => Err(format!("iteration {} ended {:?}", h.iteration, h.status)),
            None => Ok(out),
        }
    });
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            r.ops(1, 1);
            return Err(format!("fit failed: {e}"));
        }
    };
    r.ops(1, 0);
    match plan {
        Some(first) => {
            let (a, b) = (first.to_text(), out.plan.to_text());
            r.check(a == b, || "a repeat fit produced a different plan".into());
        }
        None => *plan = Some(out.plan.clone()),
    }
    Ok((out, secs))
}

pub fn run(spec: &FitSpec, ctx: &Ctx, r: &mut Results) -> Result<(), String> {
    let inputs = repeat_setup(r, |_, _| {
        Ok((0..spec.datasets)
            .map(|i| Input::build(spec, ctx.seed, i))
            .collect::<Vec<_>>())
    })?;
    let nproc = ctx.nproc;
    let cfg = |seed: u64, threads: usize, sink: SinkHandle| {
        config(seed, spec.selection, spec.iterations, threads, sink)
    };
    let mut plans: Vec<Option<FeaturePlan>> = vec![None; inputs.len()];
    let first = &inputs[0];
    fit(
        r,
        cfg(first.seed, spec.threads, SinkHandle::null())?,
        &first.train,
        first.valid.as_ref(),
        &mut plans[0],
    )?;

    let mut best = vec![f64::INFINITY; inputs.len()];
    let mut cycle_ms = Vec::new();
    let deadline = Instant::now() + ctx.seconds;
    'run: loop {
        let mut cycle = Cycle::default();
        let mut wall = 0.0;
        for ((input, plan), best) in inputs.iter().zip(plans.iter_mut()).zip(best.iter_mut()) {
            // Once every dataset has been fitted, stop at the deadline even
            // mid-cycle: a cut cycle still counts toward each dataset's
            // best fit, but gives no per-layer samples.
            if !cycle_ms.is_empty() && Instant::now() >= deadline {
                break 'run;
            }
            let faults = proc::minor_faults()?;
            let (out, secs) = fit(
                r,
                cfg(input.seed, spec.threads, SinkHandle::null())?,
                &input.train,
                input.valid.as_ref(),
                plan,
            )?;
            cycle.add("proc.minor_faults", (proc::minor_faults()? - faults) as f64);
            *best = best.min(secs);
            wall += secs;
            for (name, v) in layers::from_report(&out.report, secs) {
                cycle.add(name, v);
            }
        }
        cycle_ms.push(wall * 1000.0 / inputs.len() as f64);
        cycle.flush(r);
    }
    r.push(
        "latency_ms",
        best.iter().sum::<f64>() * 1000.0 / inputs.len() as f64,
    );
    let parts: f64 = layers::WALL_PARTS.iter().filter_map(|m| r.value(m)).sum();
    let wall = median(&cycle_ms).unwrap_or(f64::NAN);
    eprintln!("stage medians plus unattributed time: {parts:.1} ms of a {wall:.1} ms median fit");

    // Quality, untimed: a small booster (the miner's size, 20 trees of
    // depth 4) trained on each plan's features over the whole training
    // split, scored on the held-out split, for the first `AUC_DATASETS`.
    let registry = OperatorRegistry::standard();
    let mut aucs = Vec::new();
    let mut first_scored = None;
    for (input, plan) in inputs.iter().zip(&plans).take(AUC_DATASETS) {
        let plan = plan.as_ref().ok_or("no plan was fitted")?;
        let split = spec.shape.generate(input.seed);
        let scored = Scored::new(plan, &registry, &split, &GbmConfig::miner())?;
        aucs.push(scored.auc);
        first_scored.get_or_insert((scored, split));
    }
    r.push("auc", aucs.iter().sum::<f64>() / aucs.len() as f64);

    if ctx.trace {
        let (scored, split) = first_scored.ok_or("no datasets")?;
        let tracer = Tracer::new();
        let (input, _) = tracer.span("bench.setup", || Input::build(spec, ctx.seed, 0));
        let make = |threads, sink| cfg(input.seed, threads, sink);
        traced_fits(
            r,
            &tracer,
            nproc,
            make,
            &input.train,
            input.valid.as_ref(),
            &mut plans[0],
        )?;
        let make = |sink| config(input.seed, spec.selection, 1, nproc, sink);
        spill_probe(r, &tracer, make, &input.train, input.valid.as_ref(), ctx)?;
        let load = scored.load(&registry);
        serve::probe(
            &tracer,
            r,
            &load,
            &split.test,
            &ctx.scratch.join("probe.csv"),
            nproc,
        )?;
        kernels::probe(r, &input.train, nproc)?;
        ctx.export(r, &tracer)?;
    }
    Ok(())
}

/// The traced fits: three rounds of the same fit untraced, with the traced
/// run's sink, and at one thread. `obs.trace_overhead_pct` and
/// `stats.par_speedup` are median ratios over the rounds; the booster's
/// per-round observe events give `gbm.round_ms` and `gbm.hist_build_ms`
/// per traced fit.
pub fn traced_fits(
    r: &mut Results,
    tracer: &Tracer,
    nproc: usize,
    make: impl Fn(usize, SinkHandle) -> Result<SafeConfig, String>,
    train: &Dataset,
    valid: Option<&Dataset>,
    plan: &mut Option<FeaturePlan>,
) -> Result<(), String> {
    const ROUNDS: usize = 3;
    let (mut overhead, mut speedup) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let (_, plain) = fit(r, make(nproc, SinkHandle::null())?, train, valid, plan)?;
        let config = make(nproc, tracer.handle())?;
        let (fitted, _) = tracer.span("bench.fit", || fit(r, config, train, valid, plan));
        let (_, traced) = fitted?;
        let (_, serial) = fit(r, make(1, SinkHandle::null())?, train, valid, plan)?;
        overhead.push(traced / plain);
        speedup.push(serial / plain);
    }
    r.push(
        "obs.trace_overhead_pct",
        (median(&overhead).unwrap_or(f64::NAN) - 1.0) * 100.0,
    );
    r.push("stats.par_speedup", median(&speedup).unwrap_or(f64::NAN));
    r.push(
        "gbm.hist_build_ms",
        tracer.observed_ms("gbm_hist_build_us") / ROUNDS as f64,
    );
    r.push(
        "gbm.round_ms",
        tracer.observed_ms("gbm_round_us") / ROUNDS as f64,
    );
    Ok(())
}

/// The out-of-core probe: `train` spilled through
/// `ChunkOptions::spilled(256, 6, ..)` and fitted once, against the same
/// one-iteration fit of the resident table, whose plan it must reproduce.
/// Records the `data.chunk_*` counters of the spilled fit and
/// `data.spill_slowdown`, its time over the resident fit's.
pub fn spill_probe(
    r: &mut Results,
    tracer: &Tracer,
    make: impl Fn(SinkHandle) -> Result<SafeConfig, String>,
    train: &Dataset,
    valid: Option<&Dataset>,
    ctx: &Ctx,
) -> Result<(), String> {
    let opts = ChunkOptions::spilled(CHUNK_ROWS, RESIDENT_CHUNKS, ctx.scratch.join("spill"));
    let spilled = train.to_chunked(opts).map_err(|e| format!("spill: {e}"))?;
    let mut plan = None;
    let (_, resident) = fit(r, make(SinkHandle::null())?, train, valid, &mut plan)?;
    let config = make(SinkHandle::null())?;
    let (fitted, _) = tracer.span("bench.fit_spilled", || {
        fit(r, config, &spilled, valid, &mut plan)
    });
    let (_, secs) = fitted?;
    let (mut loads, mut hits, mut evictions, mut peak) = (0u64, 0u64, 0u64, 0u64);
    for store in spilled.chunk_stores() {
        let s = store.stats();
        loads += s.loads;
        hits += s.hits;
        evictions += s.evictions;
        peak = peak.max(s.peak_resident_bytes);
    }
    let (loads, hits) = (loads as f64, hits as f64);
    r.check(loads > 0.0, || "the spilled fit loaded no chunk".into());
    r.push("data.chunk_loads", loads);
    r.push("data.chunk_hits", hits);
    r.push("data.chunk_hit_ratio", hits / (loads + hits).max(1.0));
    r.push("data.chunk_evictions", evictions as f64);
    r.push("data.chunk_peak_resident_mb", peak as f64 / 1e6);
    r.push("data.spill_slowdown", secs / resident);
    Ok(())
}

/// A plan turned into a scoring artifact, with its offline reference
/// scores on the held-out split and their AUC.
pub struct Scored {
    pub artifact: SafeArtifact,
    pub rows: Vec<f64>,
    pub reference: Vec<f64>,
    pub auc: f64,
}

impl Scored {
    pub fn new(
        plan: &FeaturePlan,
        registry: &OperatorRegistry,
        split: &DatasetSplit,
        model: &GbmConfig,
    ) -> Result<Scored, String> {
        let artifact =
            SafeArtifact::train(plan, registry, &split.train, split.valid.as_ref(), model)
                .map_err(|e| format!("artifact: {e}"))?;
        let rows = row_major(&split.test, &artifact.input_schema)?;
        let scorer = ScorerHandle::new(&artifact, registry).map_err(|e| e.to_string())?;
        let (reference, _) = scorer
            .score_rows(&rows, artifact.input_schema.len())
            .map_err(|e| format!("reference scores: {e}"))?;
        let labels = split.test.require_labels().map_err(|e| e.to_string())?;
        let auc = safe_stats::auc(&reference, labels);
        Ok(Scored {
            artifact,
            rows,
            reference,
            auc,
        })
    }

    pub fn load<'a>(&'a self, registry: &'a OperatorRegistry) -> Load<'a> {
        Load {
            artifact: &self.artifact,
            registry,
            rows: &self.rows,
            reference: &self.reference,
        }
    }
}
