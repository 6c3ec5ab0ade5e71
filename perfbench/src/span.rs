//! In-memory spans recorded around the benchmark's calls into each
//! layer.
//!
//! A span has a name, a start, an end, an optional parent and an id
//! shared by every span of one unit of work (one tick, one scenario,
//! one query). Spans stay in memory until the run ends and are then
//! written out once as JSON lines.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call the span covers, e.g. `esd.discharge`.
    pub name: &'static str,
    /// Shared by every span of one unit of work.
    pub id: u64,
    /// Index of the parent span in the tracer, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin (`end >= start`).
    pub end: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// An empty tracer measuring from `origin`; tracers of several
    /// threads share one origin so their spans merge on one time axis.
    #[must_use]
    pub fn with_origin(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Closes the span opened as `index`.
    pub fn end(&mut self, index: usize) {
        let now = self.now();
        self.spans[index].end = now;
    }

    /// Runs `work` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        work: impl FnOnce() -> T,
    ) -> T {
        let index = self.begin(name, id, parent);
        let out = work();
        self.end(index);
        out
    }

    /// Adds a span measured elsewhere (e.g. by another thread) and
    /// returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64)
            .collect()
    }

    /// The children of span `index`.
    pub fn children(&self, index: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(index))
    }

    /// Self time of span `index`: its duration minus the covered union
    /// of its children's intervals (see [`self_time`]), each child
    /// first shortened by `floor` ns, the cost of the clock reads
    /// around a call (see [`empty_span_ns`]), which is not layer time.
    #[must_use]
    pub fn self_time(&self, index: usize, floor: u64) -> u64 {
        let children: Vec<(u64, u64)> = self.children(index).map(|s| net(s, floor)).collect();
        self_time(self.spans[index].duration(), &children)
    }

    /// Self times (ns) of every span called `name` that has children.
    #[must_use]
    pub fn self_times(&self, name: &str, floor: u64) -> Vec<f64> {
        self.with_children(name, floor)
            .map(|(s, c)| self_time(s.duration(), &c) as f64)
            .collect()
    }

    /// Mean self time (ns) of the spans called `name` that have
    /// children: their summed durations minus the summed covered unions
    /// of their children, over their count, floored at zero only at the
    /// end (NaN when there are none). Where a span's self time is
    /// smaller than the call-to-call noise, per-span self times floor at
    /// zero about half the time and their median reads 0; the mean does
    /// not.
    #[must_use]
    pub fn mean_self_time(&self, name: &str, floor: u64) -> f64 {
        let (mut total, mut count) = (0.0, 0_u32);
        for (s, c) in self.with_children(name, floor) {
            total += s.duration() as f64 - covered(&c) as f64;
            count += 1;
        }
        if count == 0 {
            f64::NAN
        } else {
            (total / f64::from(count)).max(0.0)
        }
    }

    /// Every span called `name` that has children, with its children's
    /// intervals, each shortened by `floor` ns.
    fn with_children<'a>(
        &'a self,
        name: &'a str,
        floor: u64,
    ) -> impl Iterator<Item = (&'a Span, Vec<(u64, u64)>)> + 'a {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push(net(s, floor));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .filter(move |(s, c)| s.name == name && !c.is_empty())
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// A span's interval shortened by `floor` ns (never below empty).
fn net(span: &Span, floor: u64) -> (u64, u64) {
    (span.start, span.end.saturating_sub(floor).max(span.start))
}

/// Median duration of an empty span on this host: what recording a
/// span adds to the call inside it.
#[must_use]
pub fn empty_span_ns() -> u64 {
    let mut tracer = Tracer::new();
    for id in 0..1_000 {
        tracer.span("empty", id, None, || ());
    }
    let mut d: Vec<u64> = tracer.spans.iter().map(Span::duration).collect();
    d.sort_unstable();
    d[d.len() / 2]
}

/// Length covered by the union of `intervals` (`(start, end)` pairs;
/// overlapping and nested intervals count once).
#[must_use]
pub fn covered(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in sorted {
        current = match current {
            Some((cs, ce)) if start <= ce => Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(cs, ce)| ce - cs)
}

/// A parent's self time: its duration minus the covered union of its
/// children, floored at zero. Children need not lie inside the parent:
/// a layer call replayed after the parent on the same inputs counts as
/// time the parent spent in that layer.
#[must_use]
pub fn self_time(parent_duration: u64, children: &[(u64, u64)]) -> u64 {
    parent_duration.saturating_sub(covered(children))
}

/// `telemetry.trace_overhead`: wall time of the traced pass over the
/// untraced pass for the same work (1.0 means tracing cost nothing).
#[must_use]
pub fn trace_overhead(traced_seconds: f64, untraced_seconds: f64) -> f64 {
    if untraced_seconds > 0.0 {
        traced_seconds / untraced_seconds
    } else {
        f64::NAN
    }
}
