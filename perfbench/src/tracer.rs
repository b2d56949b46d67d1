//! In-memory spans around calls into the system's layers.
//!
//! A span has a name, a trace id (the spans of one request share it), a
//! parent, and start/end offsets from the tracer's origin. Spans stay in
//! memory until [`Tracer::write_json`] at the end of the run.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub trace: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    /// A disabled tracer records nothing: the untraced baseline run.
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn elapsed_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new request: spans opened from here on carry a fresh id.
    pub fn next_trace(&mut self) {
        self.trace += 1;
    }

    /// Open a span named `name`, nested under the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let start_ns = self.elapsed_ns();
        self.spans.push(Span {
            name: name.into(),
            trace: self.trace,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.elapsed_ns();
    }

    /// Record a span timed elsewhere, under the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |at: Instant| at.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            trace: self.trace,
            parent: self.open.last().copied(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Rename span `id` once its outcome says what it was.
    pub fn relabel(&mut self, id: usize, name: &str) {
        if !self.enabled {
            return;
        }
        self.spans[id].name = name.to_string();
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total nanoseconds of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Nanoseconds of `[0, wall_ns)` covered by top-level spans.
    pub fn covered_ns(&self) -> u64 {
        let mut roots: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        roots.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for (start, end) in roots {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        covered
    }

    /// Every span as a JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"trace\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.name,
                s.trace,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" },
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_coverage() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        t.next_trace();
        t.span("later", || ());
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].trace, spans[2].trace), (0, 1));
        assert_eq!(t.covered_ns(), t.total_ns("outer") + t.total_ns("later"));
        assert!(t.covered_ns() <= t.elapsed_ns());

        let mut off = Tracer::disabled();
        let id = off.begin("x");
        off.end(id);
        assert_eq!(off.span("y", || 7), 7);
        assert!(off.spans().is_empty());
    }
}
