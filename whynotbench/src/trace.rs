//! The benchmark's span recorder.
//!
//! Spans are opened around calls into the program's public functions,
//! kept in memory, and aggregated when the run ends. A span's self time
//! is its duration minus the time its child spans cover; all spans of
//! one question descend from its `question` span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

pub struct Tracer {
    epoch: Instant,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
pub struct Span<'a> {
    tracer: &'a Tracer,
    idx: usize,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        let mut inner = self.tracer.inner.borrow_mut();
        inner.spans[self.idx].end_ns = end;
        inner.stack.pop();
    }
}

/// Totals of one span name over a run.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn span(&self, name: &'static str) -> Span<'_> {
        let start = self.now();
        let mut inner = self.inner.borrow_mut();
        let idx = inner.spans.len();
        let parent = inner.stack.last().copied();
        inner.spans.push(SpanRec {
            name,
            parent,
            start_ns: start,
            end_ns: start,
        });
        inner.stack.push(idx);
        Span { tracer: self, idx }
    }

    /// Adds `n` to a named count recorded at a call boundary.
    pub fn add(&self, name: &'static str, n: u64) {
        *self.inner.borrow_mut().counts.entry(name).or_default() += n;
    }

    pub fn count(&self, name: &str) -> u64 {
        self.inner.borrow().counts.get(name).copied().unwrap_or(0)
    }

    /// Per-name totals, with self time net of child spans.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in inner.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Durations in milliseconds of every span named `name`, one per
    /// question when the name is opened once per question.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }
}
