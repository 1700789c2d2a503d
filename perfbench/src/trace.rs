//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public entry points; nothing inside the program is instrumented. They
//! stay in memory and are written once, at the end, in Chrome Trace
//! Event Format (the `traceEvents` JSON that Perfetto and
//! `chrome://tracing` load).

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    item: u64,
    name: &'static str,
    tid: u64,
    start: Duration,
    dur: Duration,
}

/// The recorder. Span ids start at 1; parent 0 means a root span.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: std::sync::atomic::AtomicU64,
}

/// A handle naming the enclosing span and item of nested calls.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub item: u64,
    pub parent: u64,
    pub tid: u64,
}

impl Ctx {
    /// A root context for `item`, recorded on lane `tid`.
    pub fn root(item: u64, tid: u64) -> Ctx {
        Ctx {
            item,
            parent: 0,
            tid,
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the context for
    /// child spans. Returns `f`'s result and the span's duration.
    pub fn span<R>(&self, ctx: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> R) -> (R, Duration) {
        let id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Ctx { parent: id, ..ctx });
        let dur = start.elapsed();
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .push(Span {
                id,
                parent: ctx.parent,
                item: ctx.item,
                name,
                tid: ctx.tid,
                start: start - self.origin,
                dur,
            });
        (out, dur)
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer lock poisoned").len()
    }

    /// Writes every span as a Chrome Trace Event `X` (complete) event.
    pub fn write_chrome_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer lock poisoned");
        let mut out = String::with_capacity(128 * spans.len() + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"item\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.tid,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.id,
                s.parent,
                s.item
            ));
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
