//! In-memory span recorder for the traced run.
//!
//! Each span records its name, start, end, the span that was open when it
//! began (its parent) and the op it belongs to.  Spans stay in memory
//! while the workload runs; [`Tracer::write_jsonl`] writes them out once at
//! exit and [`Tracer::self_times`] derives each layer's self time (its
//! duration minus the part its child spans cover).  A disabled tracer
//! records nothing and never reads the clock.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span (times in nanoseconds since the tracer's epoch).
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    samples: Vec<Record>,
}

/// A named value recorded during op `op`: a span's self time in
/// nanoseconds, or a sample.
pub type Record = (&'static str, u64, f64);

impl Tracer {
    /// A recorder that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            samples: Vec::new(),
        }
    }

    /// Switches recording on or off; recorded spans are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; spans opened before it is closed become its children.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, span: SpanId) {
        if let Some(id) = span.0 {
            self.spans[id].end_ns = self.now_ns();
            if self.open.last() == Some(&id) {
                self.open.pop();
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Opens the root span of op `op`: every span until the matching
    /// [`Tracer::end`] carries that op id.
    pub fn begin_op(&mut self, op: u64) -> SpanId {
        self.op = op;
        self.begin("op")
    }

    /// Records a value that is not a duration (a count, or a time measured
    /// outside a span such as time to first row).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.samples.push((name, self.op, value));
        }
    }

    /// Every recorded sample.
    pub fn samples(&self) -> &[Record] {
        &self.samples
    }

    /// Self time in nanoseconds of every closed span.
    pub fn self_times(&self) -> Vec<Record> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(span, children)| {
                let duration = span.end_ns.saturating_sub(span.start_ns);
                (span.name, span.op, duration.saturating_sub(children) as f64)
            })
            .collect()
    }

    /// Share (percent) of the summed `op` span time that child spans of
    /// the ops cover.
    pub fn op_coverage_pct(&self) -> f64 {
        let mut op_ns = 0u64;
        let mut covered_ns = 0u64;
        for span in &self.spans {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            if span.name == "op" {
                op_ns += duration;
            } else if span
                .parent
                .is_some_and(|parent| self.spans[parent].name == "op")
            {
                covered_ns += duration;
            }
        }
        if op_ns == 0 {
            return 0.0;
        }
        100.0 * covered_ns as f64 / op_ns as f64
    }

    /// Writes every span as one JSON line: name, start and end in ns,
    /// parent span index (or null) and op id.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(true);
        let op = tracer.begin_op(7);
        tracer.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.end(op);
        let times = tracer.self_times();
        let (op_self, child) = (times[0], times[1]);
        assert_eq!((op_self.0, child.0, child.1), ("op", "child", 7));
        assert!(child.2 >= 2e6);
        assert!(op_self.2 < child.2);
        assert!(tracer.op_coverage_pct() > 50.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let op = tracer.begin_op(0);
        tracer.span("child", || ());
        tracer.sample("count", 1.0);
        tracer.end(op);
        assert!(tracer.self_times().is_empty());
        assert!(tracer.samples().is_empty());
    }
}
