//! Spans recorded from outside each layer: the benchmark times its own
//! calls into the public functions of the workspace crates. Spans are kept
//! in memory and written out only when the benchmark ends.

use std::time::Instant;

/// Name of the span that covers a whole op; the parent of every other span
/// carrying the same op id.
pub const OP: &str = "op";

/// One timed call into a layer, or a whole op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call (`"core.microreboot"`, ...) or [`OP`].
    pub name: &'static str,
    /// The op the span belongs to.
    pub op: u64,
    /// Host nanoseconds since the pass began.
    pub start_ns: u64,
    /// Host nanoseconds since the pass began.
    pub end_ns: u64,
}

impl Span {
    /// Host nanoseconds the span lasted.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// One JSON line: the span's workload and pass, name, op id, start, end
    /// and parent (the op span, or `null` for the op span itself).
    pub fn json_line(&self, workload: &str, pass: usize) -> String {
        let parent = if self.name == OP {
            "null".to_string()
        } else {
            self.op.to_string()
        };
        format!(
            "{{\"workload\":\"{workload}\",\"pass\":{pass},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            self.name, self.op, self.start_ns, self.end_ns
        )
    }
}

/// Records the spans of the op it is currently set to, timed from the
/// pass's start. An untraced tracer records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    op: u64,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, traced: bool) -> Tracer {
        Tracer {
            epoch,
            op: 0,
            spans: traced.then(Vec::new),
        }
    }

    /// Attributes the following spans to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` as one call into layer `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if self.spans.is_none() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end);
        out
    }

    /// Records the op span of the current op.
    pub fn op_span(&mut self, start: Instant, end: Instant) {
        if self.spans.is_some() {
            self.record(OP, start, end);
        }
    }

    /// Hands over everything recorded so far.
    pub fn take(&mut self) -> Vec<Span> {
        self.spans.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            name,
            op: self.op,
            start_ns: since(start),
            end_ns: since(end),
        };
        if let Some(spans) = self.spans.as_mut() {
            spans.push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.span("apps.drive", || 7), 7);
        t.op_span(Instant::now(), Instant::now());
        assert!(t.take().is_empty());
    }

    #[test]
    fn traced_spans_carry_their_op_and_nest_in_time() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, true);
        t.set_op(3);
        let start = Instant::now();
        t.span("apps.drive", || ());
        t.op_span(start, Instant::now());
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.op == 3));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
        assert!(spans[0].json_line("steady", 0).ends_with("\"parent\":3}"));
        assert!(spans[1]
            .json_line("steady", 0)
            .ends_with("\"parent\":null}"));
    }
}
