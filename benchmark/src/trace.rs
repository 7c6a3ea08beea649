//! Spans: who called what, for how long.
//!
//! The traced pass wraps every call it makes into a layer in a span —
//! name, start, end, the span that caused it, and the request it
//! belongs to. Spans are kept in memory and written out as JSON lines
//! when the pass ends. A layer's *self time* is its span's duration
//! minus the part of that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `protocol.execute`.
    pub name: &'static str,
    /// The request this span belongs to (replay × stream position).
    pub request: u32,
    /// Index of the span that caused this one, if any.
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Collects spans in memory.
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far, in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u32, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Durations, in microseconds, of every span called `name`.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }
}

/// Each span's self time in nanoseconds: its duration minus the part of
/// its interval that its children cover (overlapping children count
/// once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (start, end) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if start < end {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Writes one JSON object per span: `id`, `name`, `request`, `parent`,
/// `start_ns`, `end_ns`, `self_ns`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span(None, 0, 100),      // two children and a grandchild
            span(Some(0), 10, 40),   // covers 30 of the root
            span(Some(0), 30, 60),   // overlaps its sibling: 20 more
            span(Some(1), 15, 20),   // the grandchild takes from span 1 only
            span(None, 200, 250),    // childless
            span(Some(4), 190, 210), // sticks out of its parent: clipped to 10
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5, 40, 20]);
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let mut t = Tracer::new();
        let root = t.open("request", 7, None);
        let inner = t.time("protocol.parse", 7, Some(root), || 42);
        t.close(root);
        assert_eq!(inner, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(root));
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        assert_eq!(t.micros("protocol.parse").len(), 1);
    }
}
