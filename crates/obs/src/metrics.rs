//! Zero-dependency metrics primitives: a deterministic log2-bucketed
//! latency histogram, a labelled registry of counters, gauges and
//! histograms, and a Prometheus text-exposition renderer.
//!
//! Everything here is exact integer arithmetic — no floating-point
//! accumulation — so snapshots, merges, and quantiles are bit-identical
//! regardless of thread count or merge order. That property is load-bearing:
//! the differential suites assert that instrumented runs produce the same
//! reports as uninstrumented ones, and histogram state must never introduce
//! nondeterminism.
//!
//! Two recording paths exist, mirroring the sink-only contract from the
//! checkpoint layer (DESIGN.md §13/§14):
//!
//! * **Report-side**: [`crate::ReportBuilder`] owns a [`MetricsRegistry`];
//!   stage guards observe their own latency into it and the snapshot lands in
//!   `RunReport.metrics`. The field is excluded from `RunReport`'s `==` so
//!   resumed reports still compare equal.
//! * **Sink-only**: hot paths (per-round GBM timings, checkpoint writes,
//!   per-batch scorer latency) emit [`crate::EventKind::Observe`] events and
//!   never touch the report. [`MetricsSnapshot::from_events`] replays them
//!   into histograms after the fact.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::sink::{Event, EventKind};

/// Number of histogram buckets: one for zero plus one per power of two up to
/// `u64::MAX` (bucket 64 covers `[2^63, u64::MAX]`).
pub const HISTO_BUCKETS: usize = 65;

/// Bucket index for a recorded value: 0 holds exactly the value 0, bucket
/// `i >= 1` holds `[2^(i-1), 2^i - 1]`. Pure integer function of the value,
/// so identical on every platform and thread count.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (the value reported by quantiles that
/// land in the bucket). Bucket 64's bound is `u64::MAX`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A deterministic log2-bucketed latency histogram.
///
/// Merging is exact (element-wise bucket addition), so sharding observations
/// across threads and merging in any order yields bit-identical state to a
/// serial recording of the same multiset of values. Quantiles are a pure
/// function of the bucket counts: `quantile(q)` returns the upper bound of
/// the bucket containing the rank-`ceil(q·count)` observation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHisto {
    buckets: [u64; HISTO_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        LatencyHisto { buckets: [0; HISTO_BUCKETS], count: 0, sum: 0 }
    }
}

impl LatencyHisto {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation (typically microseconds, but unit-agnostic).
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Exact merge: element-wise bucket addition. Associative and
    /// commutative, so any merge tree over the same observations is
    /// bit-identical.
    pub fn merge(&mut self, other: &LatencyHisto) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Raw bucket counts (index via [`bucket_index`]).
    pub fn buckets(&self) -> &[u64; HISTO_BUCKETS] {
        &self.buckets
    }

    /// Quantile estimate: upper bound of the bucket containing the
    /// observation at rank `ceil(q·count)` (1-based, clamped to
    /// `[1, count]`). Returns 0 for an empty histogram. `q` outside
    /// `[0, 1]` is clamped.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count) without float drift for the common q values:
        // q is a short decimal, count is exact, and the product is far below
        // 2^52, so the f64 ceil is exact for every realistic histogram.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTO_BUCKETS - 1)
    }

    /// Median estimate (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Non-empty `(bucket_index, count)` pairs in ascending index order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
    }
}

/// Identity of a metric: name plus sorted label pairs. Ordered, so registry
/// snapshots are deterministic regardless of registration order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (free-form; sanitized only at Prometheus render time).
    pub name: String,
    /// Label pairs, kept sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key, sorting the labels for a canonical ordering.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, i64>,
    histos: BTreeMap<MetricKey, LatencyHisto>,
}

/// A thread-safe labelled metrics registry. Snapshots are sorted by metric
/// key, so two registries fed the same observations — in any order, from any
/// number of threads — snapshot identically (counter sums and histogram
/// merges are exact integer arithmetic).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        // A poisoned lock only means another thread panicked mid-update;
        // the integer state is still coherent, so keep going.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `delta` to the counter identified by `name` + `labels`.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let key = MetricKey::new(name, labels);
        *self.locked().counters.entry(key).or_insert(0) += delta;
    }

    /// Set the gauge identified by `name` + `labels`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: i64) {
        let key = MetricKey::new(name, labels);
        self.locked().gauges.insert(key, value);
    }

    /// Record one observation into the histogram identified by `name` +
    /// `labels`.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        let key = MetricKey::new(name, labels);
        self.locked().histos.entry(key).or_default().record(value);
    }

    /// Deterministic point-in-time copy of every metric, sorted by key.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.locked();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: inner
                .histos
                .iter()
                .map(|(k, h)| (k.clone(), h.clone()))
                .collect(),
        }
    }
}

/// An immutable, sorted snapshot of a [`MetricsRegistry`] (or of a replayed
/// event stream). Embedded in `RunReport.metrics` — write-only with respect
/// to report equality: the field is ignored by `RunReport`'s `==` and not
/// restored from checkpoints.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter samples, sorted by key.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge samples, sorted by key.
    pub gauges: Vec<(MetricKey, i64)>,
    /// Histogram samples, sorted by key.
    pub histograms: Vec<(MetricKey, LatencyHisto)>,
}

impl MetricsSnapshot {
    /// True when the snapshot holds no samples at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Replay an event stream, folding every [`EventKind::Observe`] event
    /// into a histogram keyed by the event's `name` with a `stage` label.
    /// All other event kinds are ignored — they are already represented in
    /// the report. Deterministic: the stream order fixes the state, and
    /// histogram merge is exact, so re-sharding the same events yields the
    /// same snapshot.
    pub fn from_events(events: &[Event]) -> Self {
        let registry = MetricsRegistry::new();
        for e in events {
            if e.kind == EventKind::Observe {
                if e.stage.is_empty() {
                    registry.observe(&e.name, &[], e.value);
                } else {
                    registry.observe(&e.name, &[("stage", e.stage.as_str())], e.value);
                }
            }
        }
        registry.snapshot()
    }

    /// Exact merge of two snapshots: counters add, gauges take `other`'s
    /// value on collision, histograms merge bucket-wise. Result is sorted.
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut counters: BTreeMap<MetricKey, u64> = self.counters.iter().cloned().collect();
        for (k, v) in &other.counters {
            *counters.entry(k.clone()).or_insert(0) += v;
        }
        let mut gauges: BTreeMap<MetricKey, i64> = self.gauges.iter().cloned().collect();
        for (k, v) in &other.gauges {
            gauges.insert(k.clone(), *v);
        }
        let mut histograms: BTreeMap<MetricKey, LatencyHisto> =
            self.histograms.iter().cloned().collect();
        for (k, h) in &other.histograms {
            histograms.entry(k.clone()).or_default().merge(h);
        }
        MetricsSnapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
        }
    }

    /// Compact JSON rendering, embedded by `RunReport::to_json` under the
    /// `"metrics"` key. Write-only: `RunReport::from_json` ignores the
    /// section (metrics are never restored from checkpoints).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        fn labels_json(labels: &[(String, String)]) -> String {
            let mut out = String::from("{");
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&crate::json::escape(k));
                out.push(':');
                out.push_str(&crate::json::escape(v));
            }
            out.push('}');
            out
        }
        let mut out = String::from("{\"counters\":[");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"labels\":{},\"value\":{}}}",
                crate::json::escape(&k.name),
                labels_json(&k.labels),
                v
            );
        }
        out.push_str("],\"gauges\":[");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"labels\":{},\"value\":{}}}",
                crate::json::escape(&k.name),
                labels_json(&k.labels),
                v
            );
        }
        out.push_str("],\"histograms\":[");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"labels\":{},\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
                crate::json::escape(&k.name),
                labels_json(&k.labels),
                h.count(),
                h.sum(),
                h.p50(),
                h.p95(),
                h.p99(),
            );
            for (j, (idx, n)) in h.nonzero_buckets().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{idx},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Look up a histogram by name + labels.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&LatencyHisto> {
        let key = MetricKey::new(name, labels);
        self.histograms
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, h)| h)
    }
}

/// Sanitize a metric name for Prometheus: `[a-zA-Z0-9_:]` pass through,
/// everything else becomes `_`.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escape a Prometheus label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
/// These three rules are exactly the text-exposition-format spec and are
/// pinned by unit + property tests.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{}=\"{}\"", k, escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render a snapshot in the Prometheus text exposition format (version
/// 0.0.4). Metric names are prefixed with `safe_` and sanitized; histogram
/// buckets are emitted sparsely (only non-empty buckets, cumulative counts)
/// plus the mandatory `+Inf` bucket, `_sum`, and `_count` series.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_typed: Option<(String, &'static str)> = None;
    let mut type_line = |out: &mut String, name: &str, kind: &'static str| {
        let tagged = (name.to_string(), kind);
        if last_typed.as_ref() != Some(&tagged) {
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            last_typed = Some(tagged);
        }
    };
    for (key, value) in &snapshot.counters {
        let name = format!("safe_{}", prom_name(&key.name));
        type_line(&mut out, &name, "counter");
        out.push_str(&format!("{}{} {}\n", name, prom_labels(&key.labels, None), value));
    }
    for (key, value) in &snapshot.gauges {
        let name = format!("safe_{}", prom_name(&key.name));
        type_line(&mut out, &name, "gauge");
        out.push_str(&format!("{}{} {}\n", name, prom_labels(&key.labels, None), value));
    }
    for (key, histo) in &snapshot.histograms {
        let name = format!("safe_{}", prom_name(&key.name));
        type_line(&mut out, &name, "histogram");
        let mut cumulative = 0u64;
        for (i, n) in histo.nonzero_buckets() {
            cumulative += n;
            let le = bucket_upper_bound(i);
            let le = if i >= 64 {
                "+Inf".to_string()
            } else {
                le.to_string()
            };
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                name,
                prom_labels(&key.labels, Some(("le", &le))),
                cumulative
            ));
        }
        out.push_str(&format!(
            "{}_bucket{} {}\n",
            name,
            prom_labels(&key.labels, Some(("le", "+Inf"))),
            histo.count()
        ));
        out.push_str(&format!(
            "{}_sum{} {}\n",
            name,
            prom_labels(&key.labels, None),
            histo.sum()
        ));
        out.push_str(&format!(
            "{}_count{} {}\n",
            name,
            prom_labels(&key.labels, None),
            histo.count()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = LatencyHisto::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        // ranks: p50 -> 3rd of 5 -> value 3 -> bucket 2 -> upper 3
        assert_eq!(h.p50(), 3);
        // p99 -> rank 5 -> value 1000 -> bucket 10 -> upper 1023
        assert_eq!(h.p99(), 1023);
        assert_eq!(h.quantile(0.0), 1); // rank clamps to 1
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = LatencyHisto::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_is_exact_and_order_independent() {
        let values: Vec<u64> = (0..1000).map(|i| (i * 37) % 5000).collect();
        let mut serial = LatencyHisto::new();
        for &v in &values {
            serial.record(v);
        }
        // Shard 4 ways, merge in two different orders.
        let mut shards = vec![LatencyHisto::new(); 4];
        for (i, &v) in values.iter().enumerate() {
            shards[i % 4].record(v);
        }
        let mut fwd = LatencyHisto::new();
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = LatencyHisto::new();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd, serial);
        assert_eq!(rev, serial);
        assert_eq!(fwd.p50(), serial.p50());
        assert_eq!(fwd.p95(), serial.p95());
        assert_eq!(fwd.p99(), serial.p99());
    }

    #[test]
    fn registry_snapshot_is_sorted_and_deterministic() {
        let r = MetricsRegistry::new();
        r.observe("z_metric", &[], 5);
        r.counter_add("a_counter", &[("stage", "gbm-train")], 2);
        r.counter_add("a_counter", &[("stage", "gbm-train")], 3);
        r.gauge_set("g", &[], -7);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].1, 5);
        assert_eq!(snap.gauges[0].1, -7);
        assert_eq!(snap.histograms[0].0.name, "z_metric");

        // Same observations, different order -> identical snapshot.
        let r2 = MetricsRegistry::new();
        r2.gauge_set("g", &[], -7);
        r2.counter_add("a_counter", &[("stage", "gbm-train")], 5);
        r2.observe("z_metric", &[], 5);
        assert_eq!(r2.snapshot(), snap);
    }

    #[test]
    fn from_events_replays_only_observe_events() {
        let events = vec![
            Event {
                ts_us: 10,
                kind: EventKind::Observe,
                stage: "gbm-train".to_string(),
                iteration: Some(0),
                name: "gbm_round_us".to_string(),
                value: 120,
                message: String::new(),
            },
            Event {
                ts_us: 11,
                kind: EventKind::Counter,
                stage: "gbm-train".to_string(),
                iteration: Some(0),
                name: "rows".to_string(),
                value: 400,
                message: String::new(),
            },
            Event {
                ts_us: 12,
                kind: EventKind::Observe,
                stage: "gbm-train".to_string(),
                iteration: Some(0),
                name: "gbm_round_us".to_string(),
                value: 90,
                message: String::new(),
            },
        ];
        let snap = MetricsSnapshot::from_events(&events);
        assert!(snap.counters.is_empty());
        let h = snap
            .histogram("gbm_round_us", &[("stage", "gbm-train")])
            .expect("histogram present");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 210);
    }

    #[test]
    fn snapshot_merge_is_exact() {
        let a = MetricsRegistry::new();
        a.counter_add("c", &[], 1);
        a.observe("h", &[], 10);
        let b = MetricsRegistry::new();
        b.counter_add("c", &[], 2);
        b.observe("h", &[], 20);
        b.gauge_set("g", &[], 9);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.counters[0].1, 3);
        assert_eq!(merged.gauges[0].1, 9);
        let h = merged.histogram("h", &[]).expect("merged histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 30);
    }

    #[test]
    fn prometheus_rendering_is_pinned() {
        let r = MetricsRegistry::new();
        r.counter_add("rows_scored", &[("dataset", "gina")], 42);
        r.gauge_set("alloc_peak_bytes", &[], 1024);
        r.observe("stage_us", &[("stage", "gbm-train")], 3);
        r.observe("stage_us", &[("stage", "gbm-train")], 1000);
        let text = render_prometheus(&r.snapshot());
        let expected = "\
# TYPE safe_rows_scored counter
safe_rows_scored{dataset=\"gina\"} 42
# TYPE safe_alloc_peak_bytes gauge
safe_alloc_peak_bytes 1024
# TYPE safe_stage_us histogram
safe_stage_us_bucket{stage=\"gbm-train\",le=\"3\"} 1
safe_stage_us_bucket{stage=\"gbm-train\",le=\"1023\"} 2
safe_stage_us_bucket{stage=\"gbm-train\",le=\"+Inf\"} 2
safe_stage_us_sum{stage=\"gbm-train\"} 1003
safe_stage_us_count{stage=\"gbm-train\"} 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_label_escaping_is_pinned() {
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        let r = MetricsRegistry::new();
        r.counter_add("c", &[("k", "v\\w\"x\ny")], 1);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("safe_c{k=\"v\\\\w\\\"x\\ny\"} 1"));
    }

    #[test]
    fn snapshot_json_parses_back() {
        let r = MetricsRegistry::new();
        r.counter_add("c", &[("stage", "iv-filter")], 3);
        r.observe("stage_us", &[("stage", "gbm-train")], 100);
        let text = r.snapshot().to_json();
        let v = crate::json::parse(&text).expect("metrics JSON parses");
        let counters = v.get("counters").and_then(|c| c.as_array()).expect("counters");
        assert_eq!(counters.len(), 1);
        let histos = v.get("histograms").and_then(|h| h.as_array()).expect("histograms");
        assert_eq!(histos[0].get("count").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(histos[0].get("p50").and_then(|n| n.as_u64()), Some(127));
    }

    #[test]
    fn metric_names_are_sanitized() {
        let r = MetricsRegistry::new();
        r.counter_add("gbm-train.time", &[], 1);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("safe_gbm_train_time 1"));
    }
}
