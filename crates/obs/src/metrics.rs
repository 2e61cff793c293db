//! Zero-dependency metrics primitives: a deterministic log2-bucketed
//! latency histogram, a snapshot of labelled histograms folded from events,
//! and a Prometheus text-exposition renderer.
//!
//! Everything here is exact integer arithmetic — no floating-point
//! accumulation — so snapshots, merges, and quantiles are bit-identical
//! regardless of thread count or merge order. That property is load-bearing:
//! the differential suites assert that instrumented runs produce the same
//! reports as uninstrumented ones, and histogram state must never introduce
//! nondeterminism.
//!
//! One recording path exists: [`MetricsSnapshot`] folds events. Every
//! `stage_end` is one sample of `stage_us{stage}` (`iteration_us` for the
//! iteration span) and every [`crate::EventKind::Observe`] one sample of
//! `<name>{stage}`. The report fold runs it on every event it folds, so
//! `RunReport.metrics` comes from the report's own events, and
//! [`MetricsSnapshot::from_events`] runs it over a recorded stream. The
//! field is excluded from `RunReport`'s `==`, so resumed reports still
//! compare equal.

use crate::sink::{Event, EventKind};
use crate::{json, stages};

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

/// Identity of a metric: name plus sorted label pairs. Ordered, so a
/// snapshot's histograms sort the same whatever order they first appear in.
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

/// A sorted set of labelled histograms folded from an event stream.
/// Embedded in `RunReport.metrics` — write-only with respect to report
/// equality: the field is ignored by `RunReport`'s `==` and not restored
/// from checkpoints.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Histogram samples, sorted by key.
    pub histograms: Vec<(MetricKey, LatencyHisto)>,
}

impl MetricsSnapshot {
    /// True when the snapshot holds no samples at all.
    pub fn is_empty(&self) -> bool {
        self.histograms.is_empty()
    }

    /// Fold one event: a `stage_end` records its span duration into
    /// `stage_us{stage}` (`iteration_us` for the iteration span), an
    /// `observe` records its value into `<name>{stage}`. Every other kind
    /// is already represented in the report and is ignored.
    pub(crate) fn record(&mut self, e: &Event) {
        let stage_label = [("stage", e.stage.as_str())];
        let stage = if e.stage.is_empty() {
            &stage_label[..0]
        } else {
            &stage_label[..]
        };
        let (name, labels) = match e.kind {
            EventKind::StageEnd if e.stage == stages::ITERATION => ("iteration_us", &[][..]),
            EventKind::StageEnd => ("stage_us", stage),
            EventKind::Observe => (e.name.as_str(), stage),
            _ => return,
        };
        let key = MetricKey::new(name, labels);
        let i = match self.histograms.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => i,
            Err(i) => {
                self.histograms.insert(i, (key, LatencyHisto::new()));
                i
            }
        };
        self.histograms[i].1.record(e.value);
    }

    /// [`MetricsSnapshot::record`] run over a recorded stream (a
    /// [`crate::MemorySink`] snapshot or a parsed `--trace-jsonl` file).
    /// Unlike the report fold it keeps `checkpoint` events, so write
    /// latencies reach the Prometheus exposition. Deterministic: the
    /// stream fixes the state.
    pub fn from_events(events: &[Event]) -> Self {
        let mut snapshot = MetricsSnapshot::default();
        for e in events {
            snapshot.record(e);
        }
        snapshot
    }

    /// Compact JSON rendering, embedded by `RunReport::to_json` under the
    /// `"metrics"` key. Write-only: `RunReport::from_json` ignores the
    /// section (metrics are never restored from checkpoints).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"histograms\":[");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let labels: Vec<String> = k
                .labels
                .iter()
                .map(|(name, value)| format!("{}:{}", json::escape(name), json::escape(value)))
                .collect();
            let _ = write!(
                out,
                "{{\"name\":{},\"labels\":{{{}}},\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
                json::escape(&k.name),
                labels.join(","),
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
    let mut last_name = String::new();
    for (key, histo) in &snapshot.histograms {
        let name = format!("safe_{}", prom_name(&key.name));
        // Keys sort by name first, so one TYPE line heads each family.
        if name != last_name {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            last_name.clone_from(&name);
        }
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

    fn event(kind: EventKind, stage: &str, name: &str, value: u64) -> Event {
        Event {
            ts_us: 0,
            kind,
            stage: stage.to_string(),
            iteration: Some(0),
            name: name.to_string(),
            value,
            message: String::new(),
        }
    }

    #[test]
    fn span_ends_and_observes_fold_into_metrics_and_counters_do_not() {
        let events = vec![
            event(EventKind::StageStart, "gbm-train", "", 0),
            event(EventKind::Observe, "gbm-train", "gbm_round_us", 120),
            event(EventKind::Counter, "gbm-train", "rows", 400),
            event(EventKind::Gauge, "waterfall", "selected", 4),
            event(EventKind::Warn, "gbm-train", "degraded", 0),
            event(EventKind::Observe, "gbm-train", "gbm_round_us", 90),
            event(EventKind::StageEnd, "gbm-train", "", 300),
            event(EventKind::StageEnd, stages::ITERATION, "completed", 500),
        ];
        let snap = MetricsSnapshot::from_events(&events);
        let names: Vec<&str> = snap
            .histograms
            .iter()
            .map(|(k, _)| k.name.as_str())
            .collect();
        assert_eq!(names, ["gbm_round_us", "iteration_us", "stage_us"]);
        let h = snap
            .histogram("gbm_round_us", &[("stage", "gbm-train")])
            .expect("histogram present");
        assert_eq!((h.count(), h.sum()), (2, 210));
        let stage = snap
            .histogram("stage_us", &[("stage", "gbm-train")])
            .expect("stage span");
        assert_eq!((stage.count(), stage.sum()), (1, 300));
        let iteration = snap.histogram("iteration_us", &[]).expect("iteration span");
        assert_eq!((iteration.count(), iteration.sum()), (1, 500));
    }

    #[test]
    fn prometheus_rendering_is_pinned() {
        let text = render_prometheus(&MetricsSnapshot::from_events(&[
            event(EventKind::StageEnd, "gbm-train", "", 3),
            event(EventKind::StageEnd, "gbm-train", "", 1000),
        ]));
        let expected = "\
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
        let snap = MetricsSnapshot::from_events(&[event(EventKind::Observe, "v\\w\"x\ny", "c", 1)]);
        let text = render_prometheus(&snap);
        assert!(
            text.contains("safe_c_count{stage=\"v\\\\w\\\"x\\ny\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn snapshot_json_parses_back() {
        let snap = MetricsSnapshot::from_events(&[
            event(EventKind::Counter, "iv-filter", "c", 3),
            event(EventKind::StageEnd, "gbm-train", "", 100),
        ]);
        let v = crate::json::parse(&snap.to_json()).expect("metrics JSON parses");
        let histos = v.get("histograms").and_then(|h| h.as_array()).expect("histograms");
        assert_eq!(histos.len(), 1);
        assert_eq!(histos[0].get("count").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(histos[0].get("p50").and_then(|n| n.as_u64()), Some(127));
    }

    #[test]
    fn metric_names_are_sanitized() {
        let snap =
            MetricsSnapshot::from_events(&[event(EventKind::Observe, "", "gbm-train.time", 1)]);
        assert!(render_prometheus(&snap).contains("safe_gbm_train_time_count 1"));
    }
}
