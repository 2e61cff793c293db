//! Kernel timings taken from outside the pipeline, on columns of the
//! workload's own training table.

use std::hint::black_box;
use std::time::{Duration, Instant};

use safe_data::dataset::Dataset;
use safe_stats::par::{try_par_chunks, Parallelism};
use safe_stats::{information_value, pearson};

use crate::metrics::Results;

/// Median seconds per call of `f`, timing batches of `per_batch` calls
/// until `budget` has passed (at least five batches).
fn median_secs_per_call(per_batch: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        per_call.push(t.elapsed().as_secs_f64() / per_batch as f64);
    }
    crate::summary::median(&per_call).unwrap_or(f64::NAN)
}

/// `stats.par_call_us`, `stats.iv_us` and `stats.pearson_us`.
pub fn probe(r: &mut Results, train: &Dataset, nproc: usize) -> Result<(), String> {
    let budget = Duration::from_millis(150);
    let par = Parallelism::new(nproc);
    // An empty map over 16 items: what one call into the worker layer
    // costs before any work is done.
    let call = median_secs_per_call(50, budget, || {
        let out = try_par_chunks(par, 16, |range| range.len());
        black_box(out.map(|v| v.len()).unwrap_or(0));
    });
    r.push("stats.par_call_us", call * 1e6);

    let labels = train.require_labels().map_err(|e| e.to_string())?;
    let x = train.column(0).map_err(|e| e.to_string())?;
    let y = train.column(1).map_err(|e| e.to_string())?;
    let mut iv_err = None;
    let iv = median_secs_per_call(5, budget, || {
        if let Err(e) = information_value(black_box(x), labels, 10) {
            iv_err = Some(e.to_string());
        }
    });
    if let Some(e) = iv_err {
        return Err(format!("information_value: {e}"));
    }
    r.push("stats.iv_us", iv * 1e6);
    let rho = median_secs_per_call(5, budget, || {
        black_box(pearson(black_box(x), black_box(y)));
    });
    r.push("stats.pearson_us", rho * 1e6);
    Ok(())
}
