//! Property suite for the metrics layer (ISSUE 7 satellite): the
//! log2-bucketed `LatencyHisto` must merge associatively and
//! deterministically (any sharding of the same observations is
//! bit-identical to serial recording), quantiles must be monotone in `q`
//! and land on bucket upper bounds, and the Prometheus renderer's label
//! escaping must survive hostile label values (backslashes, quotes,
//! newlines) such that every emitted sample line still has the
//! `name{labels} value` shape with balanced quotes.

use proptest::prelude::*;

use safe_obs::metrics::{bucket_index, bucket_upper_bound, escape_label_value};
use safe_obs::{render_prometheus, Event, EventKind, LatencyHisto, MetricsSnapshot};

fn serial(values: &[u64]) -> LatencyHisto {
    let mut h = LatencyHisto::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sharding the observation stream across k "threads" and merging in
    /// forward or reverse order is bit-identical to serial recording —
    /// merge is associative, commutative, and exact.
    #[test]
    fn merge_is_associative_and_deterministic(
        values in prop::collection::vec(0u64..5_000_000, 0..200),
        shards in 1usize..8,
    ) {
        let reference = serial(&values);
        let mut parts = vec![LatencyHisto::new(); shards];
        for (i, &v) in values.iter().enumerate() {
            parts[i % shards].record(v);
        }
        let mut fwd = LatencyHisto::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = LatencyHisto::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        // Tree-shaped merge: ((p0+p1) + (p2+p3) + ...)
        let mut tree = LatencyHisto::new();
        for pair in parts.chunks(2) {
            let mut partial = LatencyHisto::new();
            for p in pair {
                partial.merge(p);
            }
            tree.merge(&partial);
        }
        prop_assert_eq!(&fwd, &reference);
        prop_assert_eq!(&rev, &reference);
        prop_assert_eq!(&tree, &reference);
        prop_assert_eq!(fwd.p50(), reference.p50());
        prop_assert_eq!(fwd.p95(), reference.p95());
        prop_assert_eq!(fwd.p99(), reference.p99());
    }

    /// Quantiles are monotone in q, always land on a bucket upper bound,
    /// and never exceed the bound of the largest observed value's bucket.
    #[test]
    fn quantiles_are_monotone_bucket_bounds(
        values in prop::collection::vec(0u64..10_000_000, 1..150),
    ) {
        let h = serial(&values);
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        let mut last = 0u64;
        for &q in &qs {
            let v = h.quantile(q);
            prop_assert!(v >= last, "quantile must be monotone: q={q} gave {v} < {last}");
            last = v;
            prop_assert_eq!(v, bucket_upper_bound(bucket_index(v)), "quantile is a bucket bound");
        }
        let max = values.iter().copied().max().unwrap_or(0);
        prop_assert!(h.quantile(1.0) <= bucket_upper_bound(bucket_index(max)));
        prop_assert!(h.quantile(1.0) >= max, "p100 bound covers the max observation");
    }

    /// count/sum are exact regardless of sharding, and bucket totals always
    /// add up to count.
    #[test]
    fn count_and_sum_are_exact(
        values in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let h = serial(&values);
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
    }

    /// Escaping is injective on the metacharacters and the renderer always
    /// emits parseable sample lines: `name{key="escaped"} value`, one per
    /// line, with no raw newline or unescaped quote inside the label value.
    #[test]
    fn prometheus_escaping_survives_hostile_label_values(
        pieces in prop::collection::vec(prop_oneof![
            Just("\\".to_string()),
            Just("\"".to_string()),
            Just("\n".to_string()),
            Just("\\n".to_string()),
            "\\PC{1,8}",
        ], 0..6),
    ) {
        let value: String = pieces.concat();
        let escaped = escape_label_value(&value);
        prop_assert!(!escaped.contains('\n'), "raw newlines must be escaped: {escaped:?}");
        // Unescape and require an exact round-trip (escaping is lossless).
        let mut unescaped = String::new();
        let mut chars = escaped.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('\\') => unescaped.push('\\'),
                    Some('"') => unescaped.push('"'),
                    Some('n') => unescaped.push('\n'),
                    other => prop_assert!(false, "dangling escape: {other:?}"),
                }
            } else {
                unescaped.push(c);
            }
        }
        prop_assert_eq!(&unescaped, &value);

        let mut events = Vec::new();
        for kind in [EventKind::StageEnd, EventKind::Observe] {
            let mut e = Event::new(kind, &value);
            e.name = "hostile_us".to_string();
            e.value = 42;
            events.push(e);
        }
        let text = render_prometheus(&MetricsSnapshot::from_events(&events));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, sample) = line.rsplit_once(' ')
                .ok_or(TestCaseError::fail(format!("no value separator: {line:?}")))?;
            prop_assert!(sample.parse::<f64>().is_ok(), "sample must be numeric: {line:?}");
            if let Some(open) = series.find('{') {
                prop_assert!(series.ends_with('}'), "unbalanced label braces: {line:?}");
                let labels = &series[open + 1..series.len() - 1];
                // Quotes inside the label section must all be either the
                // delimiters or escaped — count unescaped quotes, must be
                // even (balanced pairs).
                let mut unescaped_quotes = 0usize;
                let mut prev_backslashes = 0usize;
                for c in labels.chars() {
                    if c == '"' && prev_backslashes % 2 == 0 {
                        unescaped_quotes += 1;
                    }
                    prev_backslashes = if c == '\\' { prev_backslashes + 1 } else { 0 };
                }
                prop_assert_eq!(unescaped_quotes % 2, 0, "unbalanced quotes: {}", line);
            }
        }
    }
}
