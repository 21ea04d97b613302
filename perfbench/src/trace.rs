//! In-memory spans for the traced run.
//!
//! A span is a named interval with an optional parent; spans of one
//! request share its `id`.  They are recorded from the benchmark's own
//! code around calls into the library, kept in memory, and written out
//! when the run ends.  A span's *self time* is its duration minus the
//! part of its interval that its children cover.

use std::io::Write;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was timed, as `layer.call`.
    pub name: &'static str,
    /// Request id shared by the spans of one request (0 for set-up work).
    pub id: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// The span's length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
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
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.push(name, id, parent, now, now)
    }

    /// Ends an open span now and returns its length in nanoseconds.
    pub fn close(&mut self, index: usize) -> u64 {
        let now = self.ns(Instant::now());
        self.close_at(index, now)
    }

    /// Ends an open span at `end_ns` and returns its length.
    pub fn close_at(&mut self, index: usize, end_ns: u64) -> u64 {
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line
    /// (`index id parent name start_ns end_ns self_ns`) after `header`.
    pub fn write_tsv(&self, out: &mut impl Write, header: &str) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        writeln!(out, "# {header}")?;
        writeln!(out, "index\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.name, s.start_ns, s.end_ns, self_ns[i]
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// The self time of every span: its duration minus the union of its
/// children's intervals inside it.  Overlapping children are counted
/// once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        .collect()
}
