//! The traced run's event store: the pipeline's own events and the
//! benchmark's own `bench.*` spans around each public call land in one in-memory
//! sink, written out only when the run ends.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use safe_obs::{
    chrome_trace_json, validate_chrome_trace, EventKind, EventSink, MemorySink, SinkHandle,
};

pub struct Tracer {
    sink: Arc<MemorySink>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            sink: Arc::new(MemorySink::new()),
        }
    }

    /// Handle for attaching the store to a fit or scorer.
    pub fn handle(&self) -> SinkHandle {
        SinkHandle::new(self.sink.clone())
    }

    /// Run `f` inside a span named `name`; returns its result and seconds.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let sink: &dyn EventSink = &*self.sink;
        sink.stage_start(name, None);
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        sink.stage_end(
            name,
            None,
            u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        );
        (out, elapsed.as_secs_f64())
    }

    /// Sum of every `observe` event called `name`, in milliseconds.
    pub fn observed_ms(&self, name: &str) -> f64 {
        let us: u64 = self
            .sink
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Observe && e.name == name)
            .map(|e| e.value)
            .sum();
        us as f64 / 1000.0
    }

    /// Render the events as Chrome trace JSON, validate it, and write it to
    /// `<dir>/<workload>.trace.json` when a directory is given. Returns the
    /// number of spans.
    pub fn export(&self, workload: &str, dir: Option<&Path>) -> Result<usize, String> {
        let text = chrome_trace_json(&self.sink.events());
        let summary =
            validate_chrome_trace(&text).map_err(|e| format!("chrome trace invalid: {e}"))?;
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = dir.join(format!("{workload}.trace.json"));
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(summary.spans)
    }
}
