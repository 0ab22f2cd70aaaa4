//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. Spans are kept in memory (one log per thread) and
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: name, start, end, the span that caused it, and the
/// request (op, served spec or replayed key) it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A per-thread span log. Ids are `tag << 40 | counter`, so logs of
/// different threads merge without clashes.
pub struct SpanLog {
    epoch: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, tag: u64) -> Self {
        SpanLog {
            epoch,
            next: tag << 40,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; `f` gets the log back (for child spans)
    /// and the new span's id (to parent them).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(&mut SpanLog, u64) -> T,
    ) -> T {
        let id = self.next;
        self.next += 1;
        let start = Instant::now();
        let out = f(self, id);
        let (start_ns, end_ns) = (self.ns(start), self.ns(Instant::now()));
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns,
        });
        out
    }

    /// Duration (seconds) of the span closed last.
    pub fn last_secs(&self) -> f64 {
        self.spans.last().map_or(0.0, Span::secs)
    }

    /// Durations (seconds) of every span called `name`.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }
}

/// Per span name: count, total seconds and self seconds (duration
/// minus the part of the interval its child spans cover).
fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |kids| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            covered
        });
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += s.secs();
        entry.2 += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
    }
    out
}

/// Writes the spans and their self-time summary as one JSON document.
pub fn write_json(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut doc = String::with_capacity(spans.len() * 96 + 1024);
    let _ = write!(doc, "{{{header},\"self_times\":{{");
    for (i, (name, (count, total, own))) in self_times(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            doc,
            "{sep}\"{name}\":{{\"count\":{count},\"total_s\":{total},\"self_s\":{own}}}"
        );
    }
    doc.push_str("},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            doc,
            "{sep}{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.request, s.start_ns, s.end_ns
        );
    }
    doc.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc)
}
