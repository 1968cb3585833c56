//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program, around the calls the
//! benchmark makes into each layer's public functions, and kept in
//! memory until the run ends. A span's *self time* is its duration
//! minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or `NO_PARENT`.
    pub parent: u32,
    /// Shared by every span of one request (or one churn step).
    pub request: u32,
}

/// Per-name totals over a recorder's spans.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// `capacity` spans are reserved up front so that the buffer does
    /// not reallocate (and stall one unlucky span) while measuring.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str, request: u32) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Records a span around `f`.
    pub fn time<R>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Count, total duration and total self time of the spans of each
    /// name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        totals_of(&self.spans)
    }

    /// Writes one tab-separated line per span:
    /// `request  span  parent  name  start_ns  end_ns`.
    pub fn write_tsv(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

fn totals_of(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        let duration = s.end_ns - s.start_ns;
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration.saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("request", 0, 100, NO_PARENT),
            span("submit", 10, 80, 0),
            span("admit", 10, 15, 1),
            span("schedule", 20, 70, 1),
            span("recycle", 85, 95, 0),
        ];
        let t = totals_of(&spans);
        assert_eq!(
            t["request"],
            NameTotal {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            t["submit"],
            NameTotal {
                count: 1,
                total_ns: 70,
                self_ns: 15
            }
        );
        assert_eq!(
            t["schedule"],
            NameTotal {
                count: 1,
                total_ns: 50,
                self_ns: 50
            }
        );
    }

    #[test]
    fn recorder_nests_by_open_order() {
        let mut r = Recorder::with_capacity(8);
        let root = r.open("request", 7);
        let inner = r.time("admit", 7, || 42);
        r.close(root);
        assert_eq!(inner, 42);
        assert_eq!(r.len(), 2);
        assert_eq!(r.spans[1].parent, root);
        assert_eq!(r.spans[0].parent, NO_PARENT);
        assert!(r.spans[0].end_ns >= r.spans[1].end_ns);
        let t = r.totals();
        assert_eq!(t["request"].count + t["admit"].count, 2);
    }
}
