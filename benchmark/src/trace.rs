//! In-memory span recorder for the traced run. Spans are opened by the
//! harness around calls into the program (never inside it), kept in a
//! vector, and written out once as Chrome-trace JSON when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that was open when this one started.
    parent: Option<usize>,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    /// Indices of the currently open spans, outermost first.
    open: Vec<usize>,
}

/// Span recorder. When built with `on = false` every call still times its
/// closure but records nothing, so the timed and traced runs share code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let now = self.tracer.now_ns();
            let mut inner = self.tracer.inner.borrow_mut();
            inner.spans[i].end_ns = now;
            inner.open.retain(|&o| o != i);
        }
    }
}

impl Tracer {
    /// A recorder that records (`on`) or only times (`!on`).
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let now = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let index = inner.spans.len();
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        inner.open.push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and its wall
    /// seconds.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let _guard = self.span(name);
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64())
    }

    /// Share of the wall time since the recorder was created that top-level
    /// spans cover — equal to the sum of every span's self time over that
    /// wall. Near 1.0 means the spans explain the run.
    pub fn coverage(&self) -> f64 {
        let wall = self.now_ns().max(1);
        let inner = self.inner.borrow();
        let covered: u64 = inner
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        covered as f64 / wall as f64
    }

    /// Writes every span as a Chrome-trace "complete" event (load the file
    /// in Perfetto or `chrome://tracing`). `workload` is the identifier all
    /// spans of the run share; each event carries its own and its parent's id.
    pub fn write_chrome(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let inner = self.inner.borrow();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in inner.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            // Writing to a String cannot fail.
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
