//! Spans recorded by the harness around calls into the program's
//! public functions. Kept in memory, written out once at exit; the
//! program itself is not instrumented and never sees this module.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_us, end_us)` since the recorder was made.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    /// Shared by every span of one operation (instance or serve call).
    pub request: usize,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// In-memory span store with one clock origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its index, so children can name it as
    /// their parent; pair with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let now = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            parent,
            request,
            start_us: now,
            end_us: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
    }

    /// Times one call as a leaf span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, request);
        let out = std::hint::black_box(f());
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn span(&self, index: usize) -> &Span {
        &self.spans[index]
    }

    /// Total seconds inside spans called `name`.
    pub fn busy(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The trace file: a header object the caller provides (already
    /// JSON), then one object per span.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"header\": {header}, \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\": {i}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                if i == 0 { "" } else { "," },
                s.request,
                s.name,
                s.start_us,
                s.end_us
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise() {
        let mut r = Recorder::new();
        let root = r.open("root", None, 7);
        let child = r.open("child", Some(root), 7);
        r.time("leaf", Some(child), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.close(child);
        r.close(root);
        assert_eq!(r.calls("leaf"), 1);
        assert!(r.busy("leaf") >= 0.002);
        assert!(r.span(root).seconds() >= r.span(child).seconds());
        assert_eq!(r.span(child).parent, Some(root));
        let json = r.to_json("{\"workload\": \"t\"}");
        assert!(json.contains("\"parent\": null") && json.contains("\"parent\": 1"));
        assert_eq!(json.matches("\"name\":").count(), 3);
    }
}
