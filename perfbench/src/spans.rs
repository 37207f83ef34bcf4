//! In-memory span recording for traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: a name, a start and end on one monotonic
//! clock, and the span that caused it. Nothing is written until the run
//! ends ([`Tracer::write_jsonl`]), so recording costs two clock reads
//! and one push per span.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or phase name.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch; `u64::MAX` while open.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Duration in seconds (0 while still open).
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// A span recorder with an implicit stack of open spans: a span opened
/// while another is open becomes its child.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: u64::MAX,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span named `name` and returns its result and
    /// the span's duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let out = f();
        self.close(id);
        (out, self.spans[id].secs())
    }

    /// Records an interval measured elsewhere (another thread) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> SpanId {
        let id = self.spans.len();
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
        id
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns != u64::MAX)
            .map(Span::secs)
            .collect()
    }

    /// Self time per span name: `(spans, total self seconds)`, where a
    /// span's self time is its duration minus the part of its interval
    /// that the union of its children covers.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            if s.end_ns == u64::MAX {
                continue;
            }
            let mut kids: Vec<(u64, u64)> = children[id]
                .iter()
                .map(|&c| {
                    let k = &self.spans[c];
                    (k.start_ns.max(s.start_ns), k.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e9;
            let e = out.entry(s.name).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += own;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.open("root");
        let base = t.epoch;
        let ms = std::time::Duration::from_millis;
        // Two overlapping children covering [10, 40) ms of the root.
        t.record("child", base + ms(10), base + ms(30));
        t.record("child", base + ms(20), base + ms(40));
        t.close(root);
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 100_000_000;
        let st = t.self_times();
        assert_eq!(st["child"].0, 2);
        assert!((st["child"].1 - 0.040).abs() < 1e-9);
        assert!((st["root"].1 - 0.070).abs() < 1e-9, "{:?}", st["root"]);
    }

    #[test]
    fn nested_spans_take_the_innermost_open_parent() {
        let mut t = Tracer::new();
        let a = t.open("a");
        let (_, _) = t.time("b", || ());
        t.close(a);
        assert_eq!(t.spans()[1].parent, Some(a));
        assert_eq!(t.durations("b").len(), 1);
    }
}
