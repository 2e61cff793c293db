//! The workload roster and the pieces every workload shares.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use safe_core::SelectionMode;

use crate::fit::{self, FitSpec};
use crate::inputs::{TALL, WIDE};
use crate::metrics::Results;
use crate::score;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FitWide,
    FitWideStaged,
    FitTall,
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FitWide,
        Workload::FitWideStaged,
        Workload::FitTall,
        Workload::ServeOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FitWide => "fit-wide",
            Workload::FitWideStaged => "fit-wide-staged",
            Workload::FitTall => "fit-tall",
            Workload::ServeOpen => "serve-open",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn run(self, ctx: &Ctx, r: &mut Results) -> Result<(), String> {
        use SelectionMode::{Exact, Staged};
        let spec = match self {
            Workload::FitWide => FitSpec {
                shape: WIDE,
                datasets: 8,
                selection: Exact,
                iterations: 1,
                threads: ctx.nproc,
            },
            Workload::FitWideStaged => FitSpec {
                shape: WIDE,
                datasets: 16,
                selection: Staged,
                iterations: 1,
                threads: 1,
            },
            Workload::FitTall => FitSpec {
                shape: TALL,
                datasets: 8,
                selection: Exact,
                iterations: 2,
                threads: 1,
            },
            Workload::ServeOpen => return score::run_serve(ctx, r),
        };
        fit::run(&spec, ctx, r)
    }
}

/// One run's settings.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed phase runs (whole cycles, at least one).
    pub seconds: Duration,
    /// Also make the traced run and report per-layer metrics.
    pub trace: bool,
    pub trace_dir: Option<PathBuf>,
    pub nproc: usize,
    /// Private scratch directory inside the working directory.
    pub scratch: PathBuf,
}

impl Ctx {
    /// Check and (with `--trace-dir`) write the traced run's events.
    pub fn export(&self, r: &mut Results, tracer: &Tracer) -> Result<(), String> {
        let spans = tracer.export(self.workload.name(), self.trace_dir.as_deref())?;
        r.check(spans > 0, || "the traced run recorded no spans".into());
        Ok(())
    }
}

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Run `build` `SETUP_REPEATS` times, recording each time as a `setup_s`
/// sample, and keep the last result. Earlier results are dropped before
/// the next build so only one copy is ever resident.
pub fn repeat_setup<T>(
    r: &mut Results,
    mut build: impl FnMut(usize, &mut Results) -> Result<T, String>,
) -> Result<T, String> {
    let mut kept = None;
    for rep in 0..SETUP_REPEATS {
        drop(kept.take());
        let start = Instant::now();
        let built = build(rep, r)?;
        r.push("setup_s", start.elapsed().as_secs_f64());
        kept = Some(built);
    }
    kept.ok_or_else(|| "set-up never ran".to_string())
}

/// Per-cycle accumulator: a cycle visits every dataset once, and each
/// metric's sample for the cycle is the mean over those visits.
#[derive(Default)]
pub struct Cycle {
    sums: BTreeMap<&'static str, (f64, usize)>,
}

impl Cycle {
    pub fn add(&mut self, name: &'static str, value: f64) {
        let e = self.sums.entry(name).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    pub fn flush(self, r: &mut Results) {
        for (name, (sum, n)) in self.sums {
            r.push(name, sum / n as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fit"), None);
    }

    #[test]
    fn cycle_reports_the_mean_of_its_visits() {
        let mut c = Cycle::default();
        c.add("latency_ms", 1.0);
        c.add("latency_ms", 3.0);
        let mut r = Results::default();
        c.flush(&mut r);
        assert_eq!(r.value("latency_ms"), Some(2.0));
    }
}
