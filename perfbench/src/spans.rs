//! In-memory span recording for the traced run.
//!
//! Spans are opened and closed by the benchmark around its own calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. Where the program already reports a stage's duration
//! in a `QueryTrace`, that stage is added as a child of the open span
//! ([`Recorder::child`]) so the parent's self time excludes it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub thread: &'static str,
}

pub struct Recorder {
    origin: Instant,
    thread: &'static str,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant, thread: &'static str) -> Self {
        Recorder {
            origin,
            thread,
            spans: Vec::with_capacity(1 << 14),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, request: u64) {
        let span = Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
            thread: self.thread,
        };
        self.stack.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span and returns its duration in µs.
    pub fn end(&mut self) -> f64 {
        let idx = self.stack.pop().expect("span open");
        let now = self.now();
        let span = &mut self.spans[idx];
        span.end_ns = now;
        (now - span.start_ns) as f64 / 1e3
    }

    /// Runs `f` inside a span of the given name.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    /// Adds an already-finished child of the innermost open span, placed
    /// at that span's start, from a duration the program reported.
    pub fn child(&mut self, name: &'static str, micros: u64) {
        let Some(&parent) = self.stack.last() else {
            return;
        };
        let start_ns = self.spans[parent].start_ns;
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns + micros * 1000,
            parent: Some(parent),
            request: self.spans[parent].request,
            thread: self.thread,
        };
        self.spans.push(span);
    }

    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: (calls, total self µs). Self time is a span's
    /// duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = dur as f64 - child_ns[i] as f64;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own / 1e3;
        }
        out
    }

    /// Total duration (µs) of every span with this name.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
            .sum()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"thread\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, s.request, s.thread
            )?;
        }
        out.flush()
    }
}
