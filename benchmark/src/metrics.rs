//! The metric registry and the result record every workload fills.
//!
//! Names, units and directions here must match `BENCHMARK.json`; the drift
//! test at the bottom of this file checks both directions. A metric the
//! registry declares but a run did not measure is an error, never a silent
//! gap in the output.

use std::collections::BTreeMap;

use safe_obs::json::Value;

use crate::summary::Summary;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one; the
/// workload decides what its "operation" is (see README.md).
pub const END_TO_END: &[MetricDef] = &[
    def("latency_ms", "ms", Lower),
    def("auc", "ratio", Higher),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
];

/// One layer each, named after the module that does the work.
pub const PER_LAYER: &[MetricDef] = &[
    def("core.selection.iv_filter_ms", "ms", Lower),
    def("core.selection.iv_keep_ratio", "ratio", Higher),
    def("core.selection.iv_cache_hit_ratio", "ratio", Higher),
    def("core.selection.redundancy_ms", "ms", Lower),
    def("core.selection.pairs_compared", "count", Lower),
    def("core.selection.pearson_cache_hit_ratio", "ratio", Higher),
    def("core.selection.redundancy_keep_ratio", "ratio", Higher),
    def("core.selection.staged_prune_ms", "ms", Lower),
    def("core.selection.rank_topk_ms", "ms", Lower),
    def("core.selection.rows_scored", "count", Lower),
    def("core.combine.path_extract_ms", "ms", Lower),
    def("core.combine.rank_combos_ms", "ms", Lower),
    def("core.combine.cells_evaluated", "count", Lower),
    def("core.generate.generate_ms", "ms", Lower),
    def("core.generate.features_out", "count", Higher),
    def("core.generate.degenerate_discarded", "count", Lower),
    def("core.loop.unattributed_ms", "ms", Lower),
    def("core.loop.iterations_completed", "count", Higher),
    def("gbm.miner_ms", "ms", Lower),
    def("gbm.hist_build_ms", "ms", Lower),
    def("gbm.round_ms", "ms", Lower),
    def("gbm.histogram_builds", "count", Lower),
    def("gbm.histogram_subtractions", "count", Higher),
    def("gbm.nodes_grown", "count", Lower),
    def("gbm.bin_cache_hit_ratio", "ratio", Higher),
    def("gbm.predict_us_per_1k", "us", Lower),
    def("stats.par_call_us", "us", Lower),
    def("stats.par_speedup", "ratio", Higher),
    def("stats.iv_us", "us", Lower),
    def("stats.pearson_us", "us", Lower),
    def("data.audit_ms", "ms", Lower),
    def("data.chunk_loads", "count", Lower),
    def("data.chunk_hits", "count", Higher),
    def("data.chunk_hit_ratio", "ratio", Higher),
    def("data.chunk_evictions", "count", Lower),
    def("data.chunk_peak_resident_mb", "MB", Lower),
    def("data.spill_slowdown", "ratio", Lower),
    def("data.csv_read_ms", "ms", Lower),
    def("data.csv_mb_per_s", "MB/s", Higher),
    def("serve.apply_ms", "ms", Lower),
    def("serve.predict_ms", "ms", Lower),
    def("serve.format_ms", "ms", Lower),
    def("serve.saturation_rps", "req/s", Higher),
    def("serve.queue_wait_mean_us", "us", Lower),
    def("serve.queue_wait_p99_us", "us", Lower),
    def("serve.request_p99_us", "us", Lower),
    def("serve.batch_mean", "count", Higher),
    def("serve.achieved_rps", "req/s", Higher),
    def("serve.gen_late_max_us", "us", Lower),
    def("obs.trace_overhead_pct", "%", Lower),
    def("proc.minor_faults", "count", Lower),
];

/// Look a metric up in either list.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Results {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Operations attempted (fits, scored rows, requests).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Correctness findings, one line each.
    pub problems: Vec<String>,
}

impl Results {
    /// Record one sample of a declared metric.
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(lookup(name).is_some(), "undeclared metric {name}");
        self.samples.entry(name).or_default().push(value);
    }

    /// Count `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Record a correctness check; a failed check counts as a failed op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Median of a metric's samples.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.summary(name).map(|s| s.median)
    }

    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.samples.get(name).and_then(|v| Summary::of(v))
    }

    /// Summaries of every metric in `defs`, or the names of those missing.
    pub fn collect(&self, defs: &'static [MetricDef]) -> Result<Vec<(MetricDef, Summary)>, String> {
        let mut out = Vec::with_capacity(defs.len());
        let mut missing = Vec::new();
        for d in defs {
            match self.summary(d.name) {
                Some(s) if s.median.is_finite() => out.push((*d, s)),
                _ => missing.push(d.name),
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(format!("metrics not measured: {}", missing.join(", ")))
        }
    }
}

fn num(v: f64) -> Value {
    Value::Number(v)
}

fn string(s: &str) -> Value {
    Value::String(s.to_string())
}

/// The result line: `correct`, `attempted`, `failed` and each metric's
/// median with its unit.
pub fn result_json(r: &Results, metrics: &[(MetricDef, Summary)]) -> String {
    let metrics = metrics
        .iter()
        .map(|(d, s)| {
            let body = vec![
                ("value".to_string(), num(s.median)),
                ("unit".to_string(), string(d.unit)),
            ];
            (d.name.to_string(), Value::Object(body))
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(r.correct())),
        ("attempted".into(), num(r.attempted as f64)),
        ("failed".into(), num(r.failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ])
    .to_json()
}

/// The detail line printed before the result line: every metric's
/// median, quartiles, range and sample count, plus the CPU count.
pub fn detail_json(
    workload: &str,
    seed: u64,
    nproc: usize,
    metrics: &[(MetricDef, Summary)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(d, s)| {
            let body = vec![
                ("median".to_string(), num(s.median)),
                ("q1".to_string(), num(s.q1)),
                ("q3".to_string(), num(s.q3)),
                ("min".to_string(), num(s.min)),
                ("max".to_string(), num(s.max)),
                ("n".to_string(), num(s.n as f64)),
                ("unit".to_string(), string(d.unit)),
                ("better".to_string(), string(d.better.as_str())),
            ];
            (d.name.to_string(), Value::Object(body))
        })
        .collect();
    Value::Object(vec![
        ("workload".into(), string(workload)),
        ("seed".into(), num(seed as f64)),
        ("nproc".into(), num(nproc as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ])
    .to_json()
}

/// Human-readable table for stderr.
pub fn table(title: &str, metrics: &[(MetricDef, Summary)]) -> String {
    let mut out = format!(
        "{title}\n{:<42} {:>14} {:>14} {:>14} {:>4}  unit\n",
        "metric", "median", "q1", "q3", "n"
    );
    for (d, s) in metrics {
        out.push_str(&format!(
            "{:<42} {:>14.4} {:>14.4} {:>14.4} {:>4}  {} ({})\n",
            d.name,
            s.median,
            s.q1,
            s.q3,
            s.n,
            d.unit,
            d.better.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use safe_obs::json;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_use_the_allowed_alphabet_once() {
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name)
            .chain(Workload::ALL.iter().map(|w| w.name()));
        for name in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn emitted(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        let doc = manifest();
        assert_eq!(declared(&doc, "end_to_end"), emitted(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), emitted(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads array")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn a_run_missing_a_metric_is_refused() {
        let mut r = Results::default();
        for d in END_TO_END.iter().skip(1) {
            r.push(d.name, 1.0);
        }
        let err = r
            .collect(END_TO_END)
            .expect_err("latency_ms was never pushed");
        assert!(err.contains("latency_ms"), "{err}");
        r.push("latency_ms", 2.0);
        assert_eq!(
            r.collect(END_TO_END).expect("complete").len(),
            END_TO_END.len()
        );
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Results::default();
        r.ops(3, 0);
        r.push("latency_ms", 1.25);
        let s = Summary::of(&[1.25]).expect("one sample");
        let line = result_json(&r, &[(END_TO_END[0], s)]);
        let v = json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("latency_ms"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
    }
}
