//! Event model and the sink implementations.

use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json;

/// Microseconds since the process-wide telemetry epoch (the first call).
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_micros() as u64
}

/// What kind of telemetry event this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A stage began (span open).
    StageStart,
    /// A stage ended; `value` carries the span duration in microseconds.
    StageEnd,
    /// A monotonic count observed during the open stage.
    Counter,
    /// A point-in-time measurement.
    Gauge,
    /// A structured warning (degradation, audit finding, failpoint trip).
    Warn,
    /// One latency/size observation destined for a histogram (`value`
    /// carries the observed amount). Sink-only: never folded into
    /// `RunReport` counters, so instrumented and resumed reports still
    /// compare `==`.
    Observe,
}

impl EventKind {
    /// Wire name used in the JSONL `event` key.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::StageStart => "stage_start",
            EventKind::StageEnd => "stage_end",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Warn => "warn",
            EventKind::Observe => "observe",
        }
    }

    /// Parse a wire name back into a kind.
    pub fn parse(s: &str) -> Option<EventKind> {
        match s {
            "stage_start" => Some(EventKind::StageStart),
            "stage_end" => Some(EventKind::StageEnd),
            "counter" => Some(EventKind::Counter),
            "gauge" => Some(EventKind::Gauge),
            "warn" => Some(EventKind::Warn),
            "observe" => Some(EventKind::Observe),
            _ => None,
        }
    }
}

/// One telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the telemetry epoch ([`now_us`]).
    pub ts_us: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Stage name from the [`crate::stages`] vocabulary.
    pub stage: String,
    /// Iteration the event belongs to (absent for run-level events).
    pub iteration: Option<usize>,
    /// Counter/gauge name, or a short warning code. Empty for spans.
    pub name: String,
    /// Counter/gauge value; for [`EventKind::StageEnd`] the span duration
    /// in microseconds; 0 otherwise.
    pub value: u64,
    /// Human-readable text (warnings only; empty otherwise).
    pub message: String,
}

impl Event {
    /// Construct with the current timestamp.
    pub fn new(kind: EventKind, stage: &str) -> Event {
        Event {
            ts_us: now_us(),
            kind,
            stage: stage.to_string(),
            iteration: None,
            name: String::new(),
            value: 0,
            message: String::new(),
        }
    }

    /// Serialize as one JSON object (no trailing newline). Key order is
    /// fixed (`ts_us`, `event`, `stage`, then optionals) so output diffs
    /// cleanly.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"ts_us\":");
        out.push_str(&self.ts_us.to_string());
        out.push_str(",\"event\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"stage\":");
        out.push_str(&json::escape(&self.stage));
        if let Some(i) = self.iteration {
            out.push_str(",\"iteration\":");
            out.push_str(&i.to_string());
        }
        if !self.name.is_empty() {
            out.push_str(",\"name\":");
            out.push_str(&json::escape(&self.name));
        }
        if self.value != 0
            || matches!(
                self.kind,
                EventKind::Counter | EventKind::Gauge | EventKind::StageEnd | EventKind::Observe
            )
        {
            out.push_str(",\"value\":");
            out.push_str(&self.value.to_string());
        }
        if !self.message.is_empty() {
            out.push_str(",\"message\":");
            out.push_str(&json::escape(&self.message));
        }
        out.push('}');
        out
    }
}

/// Receiver of telemetry events.
///
/// Implementations must be cheap and must never panic: telemetry is
/// side-effect-free with respect to pipeline results. I/O errors inside a
/// sink are swallowed (dropping telemetry is preferable to failing a fit).
pub trait EventSink: Send + Sync {
    /// Whether events will be observed at all. Call sites may (but need
    /// not) skip event construction when this is `false` — [`NullSink`]
    /// returns `false`, every other bundled sink `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event.
    fn record(&self, event: &Event);

    /// Flush buffered output, if any.
    fn flush(&self) {}
}

// Helper constructors usable through any `&dyn EventSink`.
impl dyn EventSink + '_ {
    /// Emit a `stage_start` event.
    pub fn stage_start(&self, stage: &str, iteration: Option<usize>) {
        if !self.enabled() {
            return;
        }
        let mut e = Event::new(EventKind::StageStart, stage);
        e.iteration = iteration;
        self.record(&e);
    }

    /// Emit a `stage_end` event carrying the span duration in microseconds.
    pub fn stage_end(&self, stage: &str, iteration: Option<usize>, duration_us: u64) {
        if !self.enabled() {
            return;
        }
        let mut e = Event::new(EventKind::StageEnd, stage);
        e.iteration = iteration;
        e.value = duration_us;
        self.record(&e);
    }

    /// Emit a counter event.
    pub fn counter(&self, stage: &str, iteration: Option<usize>, name: &str, value: u64) {
        if !self.enabled() {
            return;
        }
        let mut e = Event::new(EventKind::Counter, stage);
        e.iteration = iteration;
        e.name = name.to_string();
        e.value = value;
        self.record(&e);
    }

    /// Emit a gauge event.
    pub fn gauge(&self, stage: &str, iteration: Option<usize>, name: &str, value: u64) {
        if !self.enabled() {
            return;
        }
        let mut e = Event::new(EventKind::Gauge, stage);
        e.iteration = iteration;
        e.name = name.to_string();
        e.value = value;
        self.record(&e);
    }

    /// Emit a histogram observation (`observe` event). Sink-only by
    /// contract: replayed into [`crate::metrics::MetricsSnapshot`] via
    /// `from_events`, never folded into report counters.
    pub fn observe(&self, stage: &str, iteration: Option<usize>, name: &str, value: u64) {
        if !self.enabled() {
            return;
        }
        let mut e = Event::new(EventKind::Observe, stage);
        e.iteration = iteration;
        e.name = name.to_string();
        e.value = value;
        self.record(&e);
    }

    /// Emit a structured warning.
    pub fn warn(&self, stage: &str, iteration: Option<usize>, code: &str, message: &str) {
        if !self.enabled() {
            return;
        }
        let mut e = Event::new(EventKind::Warn, stage);
        e.iteration = iteration;
        e.name = code.to_string();
        e.message = message.to_string();
        self.record(&e);
    }
}

/// The default sink: drops everything, reports `enabled() == false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &Event) {}
}

/// Writes one JSON object per line to a writer. I/O errors are swallowed
/// after the first (the sink goes quiet rather than failing the run).
pub struct JsonlSink {
    writer: Mutex<Option<Box<dyn Write + Send>>>,
}

impl JsonlSink {
    /// Wrap any writer.
    pub fn new(writer: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink { writer: Mutex::new(Some(writer)) }
    }

    /// Create/truncate a file and stream events to it.
    pub fn to_file(path: &str) -> std::io::Result<JsonlSink> {
        let f = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(std::io::BufWriter::new(f))))
    }
}

impl EventSink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut guard = match self.writer.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(w) = guard.as_mut() {
            let line = event.to_json();
            if writeln!(w, "{line}").is_err() {
                *guard = None; // go quiet on a broken writer
            }
        }
    }

    fn flush(&self) {
        let mut guard = match self.writer.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(w) = guard.as_mut() {
            let _ = w.flush();
        }
    }
}

/// Collects every event in memory — for tests and offline report assembly.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        match self.events.lock() {
            Ok(g) => g.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        match self.events.lock() {
            Ok(g) => g.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for MemorySink {
    fn record(&self, event: &Event) {
        let mut guard = match self.events.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.push(event.clone());
    }
}

/// Tees events to several sinks.
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Arc<dyn EventSink>>,
}

impl FanoutSink {
    /// Compose the given sinks.
    pub fn new(sinks: Vec<Arc<dyn EventSink>>) -> FanoutSink {
        FanoutSink { sinks }
    }
}

impl EventSink for FanoutSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&self, event: &Event) {
        for s in &self.sinks {
            if s.enabled() {
                s.record(event);
            }
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

/// Cloneable, Debug-friendly handle to a shared sink — the form a sink
/// takes inside a run configuration (`SafeConfig` derives `Clone` and
/// `Debug`; a bare `&dyn EventSink` would infect it with a lifetime).
#[derive(Clone)]
pub struct SinkHandle(Arc<dyn EventSink>);

impl SinkHandle {
    /// Wrap a sink.
    pub fn new(sink: Arc<dyn EventSink>) -> SinkHandle {
        SinkHandle(sink)
    }

    /// Handle to the default [`NullSink`].
    pub fn null() -> SinkHandle {
        SinkHandle(Arc::new(NullSink))
    }

    /// Borrow the sink as a trait object.
    pub fn as_dyn(&self) -> &dyn EventSink {
        &*self.0
    }

    /// Whether the underlying sink observes events.
    pub fn enabled(&self) -> bool {
        self.0.enabled()
    }
}

impl Default for SinkHandle {
    fn default() -> SinkHandle {
        SinkHandle::null()
    }
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SinkHandle(enabled={})", self.0.enabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
        let s: &dyn EventSink = &sink;
        s.counter("iv-filter", Some(0), "kept", 3); // must be a no-op
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = MemorySink::new();
        let s: &dyn EventSink = &sink;
        s.stage_start("iv-filter", Some(0));
        s.counter("iv-filter", Some(0), "kept", 7);
        s.stage_end("iv-filter", Some(0), 123);
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::StageStart);
        assert_eq!(events[1].name, "kept");
        assert_eq!(events[1].value, 7);
        assert_eq!(events[2].value, 123);
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn jsonl_lines_are_valid_json_with_required_keys() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct VecWriter(Arc<Mutex<Vec<u8>>>);
        impl Write for VecWriter {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(Box::new(VecWriter(buf.clone())));
        let s: &dyn EventSink = &sink;
        s.stage_start("generate", Some(1));
        s.warn("iteration", Some(1), "degraded", "stage \"mine\" failed\nbadly");
        s.stage_end("generate", Some(1), 42);
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            let v = crate::json::parse(line).unwrap();
            let obj = v.as_object().unwrap();
            for key in ["ts_us", "event", "stage"] {
                assert!(obj.iter().any(|(k, _)| k == key), "missing {key}: {line}");
            }
        }
    }

    #[test]
    fn fanout_reaches_all_members() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let fan = FanoutSink::new(vec![a.clone(), b.clone(), Arc::new(NullSink)]);
        assert!(fan.enabled());
        let s: &dyn EventSink = &fan;
        s.gauge("waterfall", Some(0), "selected", 9);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn event_kind_roundtrip() {
        for kind in [
            EventKind::StageStart,
            EventKind::StageEnd,
            EventKind::Counter,
            EventKind::Gauge,
            EventKind::Warn,
            EventKind::Observe,
        ] {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(EventKind::parse("bogus"), None);
    }

    #[test]
    fn handle_default_is_null() {
        let h = SinkHandle::default();
        assert!(!h.enabled());
        let h2 = h.clone();
        assert!(format!("{h2:?}").contains("enabled=false"));
    }
}
