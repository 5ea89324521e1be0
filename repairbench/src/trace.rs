//! In-memory span recorder for traced runs.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API (name, start, end, parent span, session id), keeps them all
//! in memory, and writes them out once the run has ended.  A disabled
//! recorder keeps nothing, so untraced runs pay one branch per call.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub session: u32,
}

pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `NONE` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, session: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            session,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span` (the innermost open one) and returns its duration in
    /// milliseconds (0 when tracing is off).
    pub fn end(&mut self, span: SpanId) -> f64 {
        let Some(id) = span.0 else { return 0.0 };
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e6
    }

    fn duration_ms(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e6
    }

    /// Durations (ms) of every span called `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.duration_ms(id))
            .collect()
    }

    /// Total duration (ms) of the spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Total duration (ms) of the spans whose name starts with `prefix`.
    pub fn total_ms_prefix(&self, prefix: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name.starts_with(prefix))
            .map(|id| self.duration_ms(id))
            .sum()
    }

    /// Total self time (ms) of the spans called `name`: each span's
    /// duration minus the part its direct children cover.  Children never
    /// overlap (the recorder is single-threaded and closes innermost
    /// first), so the covered part is the sum of their durations.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut self_ms: Vec<f64> = (0..self.spans.len())
            .map(|id| self.duration_ms(id))
            .collect();
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                self_ms[parent] -= self.duration_ms(id);
            }
        }
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self_ms[id])
            .sum()
    }

    /// Writes every span as one tab-separated line:
    /// `id  parent  session  name  start_ns  end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id\tparent\tsession\tname\tstart_ns\tend_ns\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                span.session, span.name, span.start_ns, span.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut trace = Trace::new(true);
        let outer = trace.begin("outer", 0);
        let inner = trace.begin("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        trace.end(inner);
        trace.end(outer);
        let total = trace.total_ms("outer");
        assert!(total >= trace.total_ms("inner"));
        let self_ms = trace.self_ms("outer");
        assert!((self_ms - (total - trace.total_ms("inner"))).abs() < 1e-9);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut trace = Trace::new(false);
        let span = trace.begin("x", 0);
        assert_eq!(trace.end(span), 0.0);
        assert!(trace.durations("x").is_empty());
    }
}
