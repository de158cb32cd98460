//! In-memory spans around the benchmark's calls into each crate, written out
//! as a Chrome/Perfetto trace when the traced run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: Option<u64>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder. A disabled tracer records nothing and costs one branch per
/// call, so the untraced run can share the traced run's code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`]; spans close innermost first.
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Times `f` inside a span.
    pub fn run<R>(&mut self, name: &'static str, request: Option<u64>, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name, request);
        let out = f();
        self.end(span);
        out
    }

    /// Durations (seconds) of every closed span with this name, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Mean duration (seconds) of the spans with this name, `None` if none.
    pub fn mean(&self, name: &str) -> Option<f64> {
        let d = self.durations(name);
        (!d.is_empty()).then(|| d.iter().sum::<f64>() / d.len() as f64)
    }

    /// Span count and total self time (seconds: duration minus the part its
    /// children cover) per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(children);
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as a Chrome trace-event document (complete `X` events,
    /// microsecond timestamps), loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", Some(7));
        let inner = t.begin("inner", Some(7));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        let self_times = t.self_times();
        assert_eq!(self_times["inner"].0, 1);
        assert!(self_times["outer"].1 < self_times["inner"].1);
        assert!(t.chrome_trace().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.run("x", None, || 3);
        assert_eq!(v, 3);
        assert!(t.durations("x").is_empty());
    }
}
