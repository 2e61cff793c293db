//! The scoring workload. Set-up fits SAFE on vehicle and trains the
//! scoring artifact; the timed work is scoring the 20,000-row test split as
//! single requests to the daemon (`serve-open`), offered at a fixed rate.

use std::time::Instant;

use safe_core::plan::FeaturePlan;
use safe_core::SelectionMode;
use safe_data::split::DatasetSplit;
use safe_gbm::GbmConfig;
use safe_obs::SinkHandle;
use safe_ops::registry::OperatorRegistry;
use safe_stats::par::Parallelism;

use crate::fit::{self, Scored};
use crate::inputs::{dataset_seed, SCORED};
use crate::metrics::Results;
use crate::serve::{self, RATE, WINDOW_REQUESTS};
use crate::trace::Tracer;
use crate::workload::{repeat_setup, Ctx};
use crate::{kernels, layers, proc};

struct Setup {
    seed: u64,
    split: DatasetSplit,
    plan: FeaturePlan,
    scored: Scored,
    /// The set-up fit's pipeline-layer numbers: in this workload the
    /// pipeline runs only in set-up.
    layers: Vec<(&'static str, f64)>,
}

/// Generate vehicle from `seed`, fit SAFE (one iteration) and train the
/// artifact, both at one thread, which keeps `setup_s` steady. With
/// `expected`, the fit must reproduce that plan.
fn build(
    seed: u64,
    r: &mut Results,
    registry: &OperatorRegistry,
    expected: Option<&FeaturePlan>,
) -> Result<Setup, String> {
    let split = SCORED.generate(seed);
    let config = fit::config(seed, SelectionMode::Exact, 1, 1, SinkHandle::null())?;
    let (out, secs) = fit::fit(
        r,
        config,
        &split.train,
        split.valid.as_ref(),
        &mut expected.cloned(),
    )?;
    let model = GbmConfig {
        parallelism: Parallelism::new(1),
        ..GbmConfig::classifier()
    };
    let scored = Scored::new(&out.plan, registry, &split, &model)?;
    let layers = layers::from_report(&out.report, secs);
    Ok(Setup {
        seed,
        split,
        plan: out.plan,
        scored,
        layers,
    })
}

/// Set up three times, each on its own dataset from the run seed, and keep
/// all three: how much a row costs to score depends on the plan and the
/// trees, so one artifact would make the workload a property of the seed.
/// `auc` is the mean over the three artifacts.
fn setup(ctx: &Ctx, r: &mut Results, registry: &OperatorRegistry) -> Result<Vec<Setup>, String> {
    let mut all = Vec::new();
    repeat_setup(r, |rep, r| {
        let s = build(dataset_seed(ctx.seed, rep), r, registry, None)?;
        for &(name, v) in &s.layers {
            r.push(name, v);
        }
        all.push(s);
        Ok(())
    })?;
    let aucs: Vec<f64> = all.iter().map(|s| s.scored.auc).collect();
    r.push("auc", aucs.iter().sum::<f64>() / aucs.len() as f64);
    Ok(all)
}

/// The traced run: the kept set-up done again under a span, traced fits,
/// the spill probe, the serving-path probe, and the kernel timings.
fn traced(
    ctx: &Ctx,
    r: &mut Results,
    registry: &OperatorRegistry,
    kept: &Setup,
) -> Result<(), String> {
    let tracer = Tracer::new();
    let (s, _) = tracer.span("bench.setup", || {
        build(kept.seed, r, registry, Some(&kept.plan))
    });
    let s = s?;
    let make = |threads, sink| fit::config(s.seed, SelectionMode::Exact, 1, threads, sink);
    let mut plan = Some(s.plan.clone());
    let (train, valid) = (&s.split.train, s.split.valid.as_ref());
    fit::traced_fits(r, &tracer, ctx.nproc, make, train, valid, &mut plan)?;
    let make = |sink| fit::config(s.seed, SelectionMode::Exact, 1, ctx.nproc, sink);
    fit::spill_probe(r, &tracer, make, train, valid, ctx)?;
    let load = s.scored.load(registry);
    serve::probe(
        &tracer,
        r,
        &load,
        &s.split.test,
        &ctx.scratch.join("probe.csv"),
        ctx.nproc,
    )?;
    kernels::probe(r, train, ctx.nproc)?;
    ctx.export(r, &tracer)
}

/// `serve-open`: open windows at a fixed rate, each artifact in turn. An
/// artifact's figure is its lowest window median of the run, since other
/// tenants of a shared host only ever slow the daemon down; `latency_ms` is
/// the mean over the artifacts. Saturation throughput is the probe's
/// `serve.saturation_rps`.
pub fn run_serve(ctx: &Ctx, r: &mut Results) -> Result<(), String> {
    let registry = OperatorRegistry::standard();
    let all = setup(ctx, r, &registry)?;
    let loads: Vec<_> = all.iter().map(|s| s.scored.load(&registry)).collect();
    let workers = serve::workers(ctx.nproc);
    serve::phase(&loads[0], workers, WINDOW_REQUESTS / 10, Some(RATE), None)?;
    let mut best_p50_ms = vec![f64::INFINITY; loads.len()];
    let deadline = Instant::now() + ctx.seconds;
    loop {
        for (load, p50_ms) in loads.iter().zip(&mut best_p50_ms) {
            let faults = proc::minor_faults()?;
            let window = serve::phase(load, workers, WINDOW_REQUESTS, Some(RATE), None)?;
            r.push("proc.minor_faults", (proc::minor_faults()? - faults) as f64);
            r.ops(window.requests, window.failed);
            *p50_ms = p50_ms.min(window.p50_us() / 1000.0);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    r.push(
        "latency_ms",
        best_p50_ms.iter().sum::<f64>() / loads.len() as f64,
    );
    if ctx.trace {
        let kept = all.last().ok_or("no set-up")?;
        traced(ctx, r, &registry, kept)?;
    }
    Ok(())
}
