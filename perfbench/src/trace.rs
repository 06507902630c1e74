//! In-memory spans for the traced run.
//!
//! A span is one call into a layer as the benchmark saw it: name, start,
//! end, the span that caused it, and the request it belongs to. Spans
//! are recorded from the benchmark's own code around public calls, kept
//! in a preallocated buffer, and written out once at the end of the run.
//! A disabled tracer records nothing and costs a branch per call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under this name.
    pub count: u64,
    /// Sum of durations, seconds.
    pub total_s: f64,
    /// Sum of self times (duration minus the part child spans cover),
    /// seconds.
    pub self_s: f64,
}

/// The span recorder. See the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            capacity: 0,
            dropped: 0,
        }
    }

    /// A recording tracer holding at most `capacity` spans; later spans
    /// are counted as dropped.
    pub fn on(capacity: usize) -> Self {
        Self {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span. Returns its id for children to name as
    /// their parent, or `None` when disabled or full.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return None;
        }
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.map_or(NO_PARENT, |p| p.0),
            request,
        });
        Some(id)
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-name count, total time and self time. Self time is a span's
    /// duration minus the union of its children's intervals, clipped to
    /// the span.
    pub fn summary(&self) -> Vec<SpanSummary> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: Vec<SpanSummary> = Vec::new();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let covered = covered_ns(kids, span.start_ns, span.end_ns);
            let entry = match out.iter_mut().position(|e| e.name == span.name) {
                Some(i) => &mut out[i],
                None => {
                    out.push(SpanSummary {
                        name: span.name,
                        count: 0,
                        total_s: 0.0,
                        self_s: 0.0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            entry.count += 1;
            entry.total_s += duration as f64 * 1e-9;
            entry.self_s += duration.saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// Writes the spans as text: a header line (`stamp`, a JSON object),
    /// then one `name start_ns end_ns parent request` line per span, with
    /// `-` for a root span's parent.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path, stamp: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{stamp}")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{} {} {} {} {}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::on(16);
        let t0 = t.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = t.record("root", at(0), at(100), None, 1);
        // Two overlapping children covering [10, 60], and one running past
        // the parent's end, clipped to [90, 100].
        t.record("child", at(10), at(50), root, 1);
        t.record("child", at(30), at(60), root, 1);
        t.record("child", at(90), at(130), root, 1);
        let summary = t.summary();
        let root = summary.iter().find(|s| s.name == "root").unwrap();
        assert!((root.total_s - 100e-6).abs() < 1e-12);
        assert!((root.self_s - 40e-6).abs() < 1e-12, "{}", root.self_s);
        let child = summary.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.count, 3);
    }

    #[test]
    fn a_full_or_disabled_tracer_drops_spans() {
        let mut off = Tracer::off();
        let now = Instant::now();
        assert!(off.record("x", now, now, None, 0).is_none());
        let mut full = Tracer::on(1);
        assert!(full.record("x", now, now, None, 0).is_some());
        assert!(full.record("x", now, now, None, 0).is_none());
        assert_eq!(full.dropped(), 1);
    }
}
