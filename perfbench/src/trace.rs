//! The benchmark's own span recorder.
//!
//! Spans are opened around calls into each layer's public functions from
//! the benchmark code (never inside the program), kept in memory with
//! their name, start, end and parent, and written out when the run ends.
//! A layer's self time is its span minus the time its child spans cover.

use serde::{Serialize, Value};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `compressors.sz.compress`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// A span serializes as `[name, start_ns, end_ns, parent]`.
impl Serialize for Span {
    fn to_value(&self) -> Value {
        (self.name, self.start_ns, self.end_ns, self.parent).to_value()
    }
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregated timings of every span sharing one name.
#[derive(Clone, Debug, Serialize)]
pub struct SpanTotals {
    /// Span name.
    pub name: &'static str,
    /// Number of spans.
    pub count: usize,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), nanoseconds.
    pub self_ns: u64,
}

/// In-memory span recorder. A disabled tracer records nothing and adds
/// nothing but a branch to each call it wraps.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it receives become children of this one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another tracer's spans into this one (for per-thread
    /// tracers merged at the end of a run). Parents are re-indexed.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        for s in other.spans {
            self.spans.push(Span {
                name: s.name,
                start_ns: s.start_ns + shift,
                end_ns: s.end_ns + shift,
                parent: s.parent.map(|p| p + base),
            });
        }
    }

    /// Durations (nanoseconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Per-name totals, including self time, in first-seen order.
    pub fn totals(&self) -> Vec<SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: Vec<SpanTotals> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = s.dur_ns().saturating_sub(child_ns[i]);
            match out.iter_mut().find(|t| t.name == s.name) {
                Some(t) => {
                    t.count += 1;
                    t.total_ns += s.dur_ns();
                    t.self_ns += self_ns;
                }
                None => out.push(SpanTotals {
                    name: s.name,
                    count: 1,
                    total_ns: s.dur_ns(),
                    self_ns,
                }),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let totals = tr.totals();
        let outer = totals.iter().find(|t| t.name == "outer").unwrap();
        let inner = totals.iter().find(|t| t.name == "inner").unwrap();
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(outer.total_ns >= outer.self_ns + inner.total_ns);
        assert!(inner.self_ns >= 5_000_000);
        let json = serde_json::to_string(tr.spans()).unwrap();
        assert!(
            json.starts_with("[[\"outer\",") && json.contains(",0]]"),
            "{json}"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.spans().is_empty());
    }
}
