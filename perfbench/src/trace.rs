//! In-memory spans for the traced run. Spans wrap the benchmark's own
//! calls into each crate's public functions; nothing inside the program is
//! instrumented. They are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use avr_server::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The cell or request this span belongs to.
    pub request: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before its end.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let start = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end: start, parent, request });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once, and a
/// child reaching outside its parent is clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Self time summed per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Write the spans as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, t)) in spans.iter().zip(self_times(spans)).enumerate() {
        let line = Json::obj([
            ("id", Json::from(i)),
            ("name", Json::from(s.name)),
            ("start_ns", Json::from(s.start)),
            ("end_ns", Json::from(s.end)),
            ("self_ns", Json::from(t)),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
            ("request", Json::from(s.request)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)), // overlaps a: [10, 50) covered once
            span("c", 90, 120, Some(0)), // clipped to the parent's end
            span("d", 15, 25, Some(1)), // grandchild: only a's self time
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 10, 30, 30, 10]);
        let by = self_by_name(&spans);
        assert_eq!(by["cell"], 50);
        assert_eq!(by["a"], 10);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new();
        let outer = t.begin("request", 7);
        t.leaf("inner", 7, || std::hint::black_box(1 + 1));
        t.end(outer);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let selfs = self_times(s);
        assert_eq!(selfs[0] + selfs[1], s[0].end - s[0].start);
    }
}
