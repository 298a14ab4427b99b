//! In-memory span recorder for the traced run, and its Chrome
//! `trace_event` export (loads in Perfetto and `chrome://tracing`).
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions; the program under test is not instrumented.

use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `runtime.step`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer's epoch (`start` while open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id: the step index in an engine run, the job index in
    /// the daemon run. Children inherit their parent's.
    pub req: u64,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records nested spans from one thread at a time. Shared by reference
/// between the benchmark's loop and its layer wrappers; the mutex only
/// satisfies `Fabric: Sync` (engine runs are serial).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("tracer lock poisoned by a panic")
    }

    /// Opens a span under the innermost open one. `req` of `None`
    /// inherits the parent's request id. Returns the span's index.
    pub fn begin(&self, name: &'static str, req: Option<u64>) -> usize {
        let t = self.now();
        let mut st = self.lock();
        let parent = st.open.last().copied();
        let req = req.unwrap_or_else(|| parent.map_or(0, |p| st.spans[p].req));
        let id = st.spans.len();
        st.spans.push(Span {
            name,
            start: t,
            end: t,
            parent,
            req,
        });
        st.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&self, id: usize) {
        let t = self.now();
        let mut st = self.lock();
        let top = st.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        st.spans[id].end = t;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, req: Option<u64>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Takes every recorded span, leaving the recorder empty.
    pub fn take(&self) -> Vec<Span> {
        let mut st = self.lock();
        assert!(st.open.is_empty(), "take() with spans still open");
        std::mem::take(&mut st.spans)
    }
}

/// Sum of durations, in seconds, of the spans named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 * 1e-9)
        .sum()
}

/// Self time, in seconds, summed over every span named `name`: each
/// span's duration minus the union of its direct children.
pub fn self_s(spans: &[Span], name: &str) -> f64 {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, s)| crate::stats::self_time((s.start, s.end), &children[i]) as f64 * 1e-9)
        .sum()
}

/// Writes `spans` as a Chrome trace: one complete (`"X"`) event per
/// span, microsecond timestamps, the layer as category and the request
/// id as an argument. `tid` groups each root span's tree on its own row.
pub fn write_chrome(path: &Path, process: &str, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    chrome_json(&mut out, process, spans)?;
    out.flush()
}

fn chrome_json(out: &mut impl Write, process: &str, spans: &[Span]) -> io::Result<()> {
    write!(
        out,
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
         {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{}\"}}}}",
        escape(process)
    )?;
    let mut root = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root[i] = s.parent.map_or(i, |p| root[p]);
        let cat = s.name.split('.').next().unwrap_or(s.name);
        write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"req\":{}}}}}",
            escape(s.name),
            escape(cat),
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            root[i],
            s.req
        )?;
    }
    writeln!(out, "\n]}}")
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_request_ids() {
        let t = Tracer::new();
        let root = t.begin("run", Some(7));
        let step = t.begin("runtime.step", Some(3));
        t.span("control.decide", None, || ());
        t.end(step);
        t.end(root);
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].req, 3, "children inherit the request id");
        assert!(spans.iter().all(|s| s.end >= s.start));
        let own = self_s(&spans, "runtime.step");
        let step_total = total_s(&spans, "runtime.step");
        let child = total_s(&spans, "control.decide");
        assert!((own + child - step_total).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let t = Tracer::new();
        t.span("runtime.step", Some(1), || {
            t.span("topology.path", None, || ())
        });
        let mut buf = Vec::new();
        chrome_json(&mut buf, "test \"q\"", &t.take()).expect("write");
        let text = String::from_utf8(buf).expect("utf-8");
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\\\"q\\\""));
        assert!(text.trim_end().ends_with("]}"));
    }
}
