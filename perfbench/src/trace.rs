//! In-memory spans around the benchmark's calls into each layer.
//!
//! A disabled [`Trace`] calls straight through, so untraced runs pay one
//! branch per call. An enabled one records name, label, request id,
//! parent, start and end of every span, keeps them in memory, and writes
//! them out only when the run ends ([`Trace::write_jsonl`]).

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, as `<crate>.<function>`.
    pub name: &'static str,
    /// What the call worked on (cell, code, job phase).
    pub label: String,
    /// Request the span belongs to (round or job index); spans of one
    /// request share it.
    pub req: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder (or a pass-through when disabled).
pub struct Trace {
    origin: Instant,
    spans: Option<Vec<Span>>,
    open: Vec<usize>,
}

impl Trace {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            spans: enabled.then(Vec::new),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        label: &str,
        req: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if self.spans.is_none() {
            return f(self);
        }
        let start_ns = self.now_ns();
        let idx = {
            let parent = self.open.last().copied();
            let spans = self.spans.as_mut().expect("enabled");
            spans.push(Span {
                name,
                label: label.to_string(),
                req,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans.as_mut().expect("enabled")[idx].end_ns = end_ns;
        out
    }

    /// Records a span that ran from `start` to `end`, possibly on another
    /// thread, as a child of the innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        label: &str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let parent = self.open.last().copied();
        let origin = self.origin;
        let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
        if let Some(spans) = self.spans.as_mut() {
            spans.push(Span {
                name,
                label: label.to_string(),
                req,
                parent,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// The recorded spans (empty when disabled).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Self time of every span: its duration minus the part of it that
    /// its child spans cover. Children may overlap (concurrent streams),
    /// so the covered part is the union of their intervals.
    pub fn self_ns(&self) -> Vec<u64> {
        let spans = self.spans();
        let mut children = vec![Vec::new(); spans.len()];
        for span in spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, 0);
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Nanosecond durations of the spans named `name` whose label is
    /// `label` (any label when `None`).
    pub fn durations(&self, name: &str, label: Option<&str>) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name && label.is_none_or(|l| s.label == l))
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Writes every span, with its self time, as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, self_ns) in self.spans().iter().zip(self.self_ns()) {
            let mut b = muse_telemetry::JsonBuilder::new();
            b.str("name", span.name)
                .str("label", &span.label)
                .u64("req", span.req)
                .u64("start_ns", span.start_ns)
                .u64("end_ns", span.end_ns)
                .u64("self_ns", self_ns);
            if let Some(p) = span.parent {
                b.u64("parent", p as u64);
            }
            writeln!(out, "{}", b.finish())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Trace::new(true);
        t.span("outer", "", 0, |t| {
            t.span("inner", "a", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", "b", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let self_ns = t.self_ns();
        assert_eq!(self_ns[0], spans[0].ns() - spans[1].ns() - spans[2].ns());
        assert_eq!(t.durations("inner", Some("b")).len(), 1);
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut t = Trace::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        t.span("outer", "", 0, |t| {
            std::thread::sleep(std::time::Duration::from_millis(12));
            t.record("inner", "a", 0, at(1), at(6));
            t.record("inner", "b", 0, at(3), at(9));
            t.record("inner", "c", 0, at(4), at(5));
        });
        let spans = t.spans();
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(t.self_ns()[0], spans[0].ns() - 8_000_000);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        assert_eq!(t.span("x", "", 0, |_| 7), 7);
        t.record("y", "", 0, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
