//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! engine's public API — the engine itself gains no instrumentation. Each
//! thread owns a [`Tracer`]; spans live in memory and are merged, analysed
//! and written out when the run ends. A disabled tracer never reads the
//! clock, so the untraced runs that produce the end-to-end metrics pay
//! nothing for it.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifies a span across threads: the thread's tag in the high bits,
/// its index in that thread's buffer below. 0 means "no span".
pub type SpanId = u64;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// The request (analyst session or maintenance batch) it belongs to.
    pub req: u64,
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
}

/// A per-thread span buffer.
pub struct Tracer {
    on: bool,
    tag: u64,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for thread `tag`, recording only when `on`.
    pub fn new(on: bool, tag: u64, epoch: Instant) -> Self {
        Tracer {
            on,
            tag,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off (the traced run alternates sessions to
    /// measure the tracer's own overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span starting now.
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return 0;
        }
        self.open_at(name, parent, req, Instant::now())
    }

    /// Open a span starting at `at` (a batch starts when it was due).
    pub fn open_at(&mut self, name: &'static str, parent: SpanId, req: u64, at: Instant) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = (self.tag << 40) | (self.spans.len() as u64 + 1);
        let start = self.ns(at);
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end: start,
        });
        id
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: SpanId) {
        if id != 0 {
            self.close_at(id, Instant::now());
        }
    }

    /// Close span `id` at `at`.
    pub fn close_at(&mut self, id: SpanId, at: Instant) {
        if id == 0 {
            return;
        }
        let end = self.ns(at);
        let idx = (id & ((1 << 40) - 1)) as usize - 1;
        self.spans[idx].end = end;
    }

    /// Record a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.open_at(name, parent, req, start);
        self.close_at(id, end);
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Merged spans of every thread, indexed for analysis.
pub struct Trace {
    pub spans: Vec<Span>,
    children: HashMap<SpanId, Vec<usize>>,
}

/// Per-name totals: how many spans, their summed wall time, and their
/// summed self time (wall time minus the part covered by child spans).
#[derive(Debug, Default, Clone, Copy)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// How well the children of a set of root spans cover the roots' wall
/// time.
#[derive(Debug, Default, Clone, Copy)]
pub struct Coverage {
    pub roots: u64,
    /// Roots whose children cover at least `1 − tolerance` of them.
    pub roots_within: u64,
    pub wall_ns: u64,
    pub covered_ns: u64,
}

impl Coverage {
    /// Covered share of the summed wall time.
    pub fn share(&self) -> f64 {
        crate::stats::ratio(self.covered_ns as f64, self.wall_ns as f64)
    }

    /// Share of roots individually within tolerance.
    pub fn roots_within_share(&self) -> f64 {
        crate::stats::ratio(self.roots_within as f64, self.roots as f64)
    }
}

impl Trace {
    /// Merge the spans of several tracers.
    pub fn merge(parts: Vec<Vec<Span>>) -> Self {
        let mut spans: Vec<Span> = parts.into_iter().flatten().collect();
        spans.sort_by_key(|s| (s.start, s.id));
        let mut children: HashMap<SpanId, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push(i);
            }
        }
        Trace { spans, children }
    }

    /// Length of the union of the direct children of `span`, clipped to
    /// `[lo, hi]`.
    pub fn covered(&self, span: &Span, lo: u64, hi: u64) -> u64 {
        let Some(kids) = self.children.get(&span.id) else {
            return 0;
        };
        let mut iv: Vec<(u64, u64)> = kids
            .iter()
            .map(|&i| (self.spans[i].start.max(lo), self.spans[i].end.min(hi)))
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_unstable();
        let (mut total, mut cur) = (0u64, lo);
        for (a, b) in iv {
            let a = a.max(cur);
            if b > a {
                total += b - a;
                cur = b;
            }
        }
        total
    }

    /// Per-name wall and self time.
    pub fn self_times(&self) -> BTreeMap<&'static str, NameStats> {
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for s in &self.spans {
            let wall = s.end - s.start;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += wall;
            e.self_ns += wall - self.covered(s, s.start, s.end);
        }
        out
    }

    /// Coverage of the roots named `root`, over each root's own interval
    /// or, when `until_child` names a child, up to that child's end (a
    /// batch's freshness ends when its commit returns).
    pub fn coverage(&self, root: &str, until_child: Option<&str>, tolerance: f64) -> Coverage {
        let mut cov = Coverage::default();
        for s in self.spans.iter().filter(|s| s.name == root) {
            let hi = match until_child {
                Some(child) => match self
                    .children
                    .get(&s.id)
                    .and_then(|k| k.iter().map(|&i| &self.spans[i]).find(|c| c.name == child))
                {
                    Some(c) => c.end,
                    None => continue,
                },
                None => s.end,
            };
            let wall = hi.saturating_sub(s.start);
            if wall == 0 {
                continue;
            }
            let covered = self.covered(s, s.start, hi);
            cov.roots += 1;
            cov.wall_ns += wall;
            cov.covered_ns += covered;
            if covered as f64 >= (1.0 - tolerance) * wall as f64 {
                cov.roots_within += 1;
            }
        }
        cov
    }

    /// Wall times (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, 1, epoch);
        let ms = std::time::Duration::from_millis;
        let root = t.open_at("root", 0, 7, epoch);
        t.record("a", root, 7, epoch + ms(1), epoch + ms(4));
        t.record("b", root, 7, epoch + ms(3), epoch + ms(6));
        t.close_at(root, epoch + ms(10));
        let trace = Trace::merge(vec![t.into_spans()]);
        let st = trace.self_times();
        assert_eq!(st["root"].self_ns, 5_000_000);
        assert_eq!(st["a"].self_ns, 3_000_000);
        let cov = trace.coverage("root", Some("b"), 0.5);
        assert_eq!(cov.wall_ns, 6_000_000);
        assert_eq!(cov.covered_ns, 5_000_000);
        assert_eq!(cov.roots_within, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1, Instant::now());
        let id = t.open("x", 0, 1);
        t.close(id);
        assert!(t.into_spans().is_empty());
    }
}
