//! Benchmark-owned spans around calls into each layer's public functions.
//!
//! Spans live in memory and are written out once, when the traced run ends.
//! Each has a name (`layer.call`), start and end in nanoseconds since the
//! tracer was created, the span that caused it, and the identifier of the
//! input set or rung pass it belongs to. A layer's self time is its span's
//! duration minus what its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(u32);

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    pass: u32,
}

/// Spans kept in full; beyond this only the per-name totals keep counting,
/// so the trace file stays bounded however long a run is.
const MAX_SPANS: usize = 40_000;

#[derive(Default, Clone, Copy)]
struct Total {
    calls: u64,
    total_ns: u64,
    children_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
    /// Open spans, innermost last: (name, start, child time so far, slot).
    stack: Vec<(&'static str, u64, u64, Option<SpanId>)>,
    pass: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    /// Marks the input set / rung pass the following spans belong to.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; the innermost open span is its parent. Returns
    /// the result and the span's duration.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        let parent = self.stack.last().and_then(|open| open.3);
        let slot = (self.spans.len() < MAX_SPANS).then(|| {
            let id = SpanId(self.spans.len() as u32);
            self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, pass: self.pass });
            id
        });
        let start = self.now_ns();
        self.stack.push((name, start, 0, slot));
        let out = f(self);
        let end = self.now_ns();
        let (_, _, children_ns, _) = self.stack.pop().expect("span stack is balanced");
        let elapsed = end - start;
        if let Some(SpanId(i)) = slot {
            let span = &mut self.spans[i as usize];
            span.start_ns = start;
            span.end_ns = end;
        }
        let total = self.totals.entry(name).or_default();
        total.calls += 1;
        total.total_ns += elapsed;
        total.children_ns += children_ns;
        if let Some(open) = self.stack.last_mut() {
            open.2 += elapsed;
        }
        (out, Duration::from_nanos(elapsed))
    }

    /// `(name, calls, total ms, self ms)` per span name.
    pub fn totals(&self) -> Vec<(&'static str, u64, f64, f64)> {
        self.totals
            .iter()
            .map(|(name, t)| {
                let total = t.total_ns as f64 / 1e6;
                (*name, t.calls, total, total - t.children_ns as f64 / 1e6)
            })
            .collect()
    }

    /// Writes the spans and their per-name totals as one JSON document.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 * self.spans.len() + 1024);
        let _ = write!(out, "{{\"header\":{header},\"totals\":[");
        for (i, (name, calls, total, own)) in self.totals().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{name}\",\"calls\":{calls},\"total_ms\":{total:.6},\"self_ms\":{own:.6}}}"
            );
        }
        let _ = write!(out, "],\n\"dropped_spans\":{},\"spans\":[", self.dropped());
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pass\":{}}}",
                s.name, s.start_ns, s.end_ns, s.pass
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    fn dropped(&self) -> u64 {
        self.totals.values().map(|t| t.calls).sum::<u64>() - self.spans.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut tracer = Tracer::new();
        tracer.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(5)));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(5)));
            std::thread::sleep(Duration::from_millis(5));
        });
        let totals = tracer.totals();
        let inner = totals.iter().find(|t| t.0 == "inner").unwrap();
        let outer = totals.iter().find(|t| t.0 == "outer").unwrap();
        assert_eq!(inner.1, 2);
        assert!(inner.2 >= 10.0 && (inner.2 - inner.3).abs() < 1e-9, "leaves are all self time");
        assert!(outer.2 >= 15.0);
        assert!(outer.3 >= 5.0 && outer.3 <= outer.2 - inner.2 + 1e-6, "outer self excludes inner");
        assert_eq!(tracer.spans[1].parent, Some(SpanId(0)));
        assert_eq!(tracer.spans[0].parent, None);
    }
}
