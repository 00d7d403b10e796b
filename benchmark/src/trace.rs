//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory and are written out when the run ends. A layer's
//! cost is its spans' *self time*: the span's duration minus the part of
//! that interval its child spans cover.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// Marks a span that has no parent, or belongs to no request.
pub const NONE: u32 = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`; the layer is the crate name.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one, or [`NONE`].
    pub parent: u32,
    /// The request the span belongs to, or [`NONE`].
    pub req: u32,
}

/// An in-memory span log with one clock.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so recording does not
    /// reallocate inside a timed interval.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index. The slot is pushed before the
    /// start stamp is taken, so only the two clock reads sit inside.
    pub fn open(&mut self, name: &'static str, parent: u32, req: u32) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent,
            req,
        });
        self.spans[id as usize].start = self.now();
        id
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end = self.now();
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another tracer's spans, shifting their parent links and
    /// re-basing their clock onto this tracer's epoch.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start += shift;
            s.end += shift;
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }

    /// Mean self time, in nanoseconds, of the spans of each name.
    pub fn mean_self_ns(&self) -> HashMap<&'static str, f64> {
        let mut sums: HashMap<&'static str, (u64, u64)> = HashMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let (sum, count) = sums.entry(span.name).or_default();
            *sum += self_ns;
            *count += 1;
        }
        sums.into_iter()
            .map(|(name, (sum, count))| (name, sum as f64 / count as f64))
            .collect()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let link = |v: u32| {
            if v == NONE {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"parent\": {}, \"req\": {}}}",
                s.name,
                s.start,
                s.end,
                link(s.parent),
                link(s.req),
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NONE)
        .map(|s| {
            let p = &spans[s.parent as usize];
            (
                s.parent,
                s.start.clamp(p.start, p.end),
                s.end.clamp(p.start, p.end),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = vec![0u64; spans.len()];
    let mut reach = (NONE, 0u64);
    for (parent, start, end) in children {
        if reach.0 != parent {
            reach = (parent, 0);
        }
        let start = start.max(reach.1);
        if end > start {
            covered[parent as usize] += end - start;
            reach.1 = end;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end - s.start).saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("request", 0, 100, NONE), // 0
            span("a", 10, 40, 0),          // 1: child of 0
            span("b", 30, 60, 0),          // 2: overlaps 1 → union 10..60
            span("c", 90, 120, 0),         // 3: clipped to 90..100
            span("a.inner", 15, 25, 1),    // 4: grandchild, charged to 1 only
            span("b", 200, 230, NONE),     // 5: a root of its own
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 30, 10, 30]);
        let tracer = Tracer {
            epoch: Instant::now(),
            spans,
        };
        let means = tracer.mean_self_ns();
        assert_eq!(means.get("b"), Some(&30.0));
        assert_eq!(means.get("a"), Some(&20.0));
        assert_eq!(means.get("missing"), None);
    }

    #[test]
    fn leaf_spans_nest_and_absorb_keeps_links() {
        let mut t = Tracer::with_capacity(8);
        let root = t.open("request", NONE, 7);
        t.leaf("x", root, 7, || std::hint::black_box(1 + 1));
        t.close(root);
        assert_eq!(t.spans[1].parent, root);
        assert!(t.spans[0].start <= t.spans[1].start && t.spans[1].end <= t.spans[0].end);

        let mut other = Tracer::with_capacity(2);
        let r = other.open("request", NONE, 8);
        other.leaf("y", r, 8, || ());
        other.close(r);
        t.absorb(other);
        assert_eq!(t.spans[3].parent, 2);
        assert_eq!(t.spans[2].parent, NONE);
    }
}
