//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, an optional tag (the standard it ran for), a start,
//! an end, the span that caused it and the id of the operation it belongs
//! to. Spans stay in memory while the workload runs and are written out
//! as `trace.jsonl` when it ends, so recording costs two clock reads and
//! one push per span.

use serde::json::Value;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `rfsim.graph` or `rx.receive`.
    pub name: &'static str,
    /// Standard or mode the call ran for; empty when not per standard.
    pub tag: &'static str,
    /// Operation (pass, grid point or job) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the origin.
    pub start_ns: u64,
    /// End, nanoseconds since the origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records strictly nested spans for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`; tracers of several
    /// threads share one origin so their spans line up.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Sets the operation id stamped on the spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans `f` opens on the tracer
    /// it is handed become children of this one.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves this tracer's spans onto the end of `all`.
    pub fn drain_into(&mut self, all: &mut Vec<Span>) {
        append(all, std::mem::take(&mut self.spans));
    }
}

/// Appends a span list to `all`, re-basing parent indices so they still
/// point at the right spans.
pub fn append(all: &mut Vec<Span>, spans: Vec<Span>) {
    let base = all.len();
    all.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the durations of its
/// direct children. Children of one span never overlap (a tracer only
/// nests), so this is the time not covered by any child. Negative only
/// if the span list is corrupt, which [`reconcile`] reports.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.duration_ns() as i64;
        }
    }
    out
}

/// Checks that the self times of each root span's tree are non-negative
/// and add up to the root's duration exactly.
///
/// # Errors
///
/// The first span tree that does not reconcile.
pub fn reconcile(spans: &[Span]) -> Result<(), String> {
    let selfs = self_times(spans);
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    let mut sums = vec![0i64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let root = match s.parent {
            Some(p) if p < i => root_of[p],
            Some(p) => return Err(format!("span {i} names a later parent {p}")),
            None => i,
        };
        root_of.push(root);
        if selfs[i] < 0 {
            return Err(format!(
                "span {i} ({}) has negative self time {} ns",
                s.name, selfs[i]
            ));
        }
        sums[root] += selfs[i];
    }
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() && sums[i] != s.duration_ns() as i64 {
            return Err(format!(
                "span tree {i} ({}) self times sum to {} ns, not its {} ns",
                s.name,
                sums[i],
                s.duration_ns()
            ));
        }
    }
    Ok(())
}

/// One `trace.jsonl` line per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let line = Value::Object(vec![
            ("id".into(), Value::from(i)),
            ("op".into(), Value::from(s.op)),
            (
                "parent".into(),
                s.parent.map(Value::from).unwrap_or(Value::Null),
            ),
            ("name".into(), Value::from(s.name)),
            ("tag".into(), Value::from(s.tag)),
            ("start_ns".into(), Value::from(s.start_ns)),
            ("end_ns".into(), Value::from(s.end_ns)),
            ("self_ns".into(), Value::from(selfs[i] as f64)),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn nested_spans_have_non_negative_self_times_within_the_parent() {
        let mut t = Tracer::new(Instant::now());
        t.set_op(7);
        t.span("root", "", |t| {
            spin(20_000);
            t.span("child", "a", |t| {
                spin(20_000);
                t.span("grandchild", "", |_| spin(20_000));
            });
            t.span("child", "b", |_| spin(20_000));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let selfs = self_times(spans);
        assert!(selfs.iter().all(|&s| s >= 0), "{selfs:?}");
        // Children never claim more than their parent.
        let children = spans[1].duration_ns() + spans[3].duration_ns();
        assert!(children <= spans[0].duration_ns());
        assert!(spans[2].duration_ns() <= spans[1].duration_ns());
        // Self times of a tree add up to the root exactly.
        assert_eq!(selfs.iter().sum::<i64>(), spans[0].duration_ns() as i64);
        reconcile(spans).expect("nested spans reconcile");
    }

    #[test]
    fn drained_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut all = Vec::new();
        for op in 0..2 {
            let mut t = Tracer::new(origin);
            t.set_op(op);
            t.span("root", "", |t| t.span("leaf", "", |_| ()));
            t.drain_into(&mut all);
            assert!(t.spans().is_empty());
        }
        assert_eq!(all.len(), 4);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(all[3].op, 1);
        reconcile(&all).expect("re-based spans reconcile");
    }

    #[test]
    fn reconcile_rejects_children_longer_than_their_parent() {
        let span = |parent, start_ns, end_ns| Span {
            name: "s",
            tag: "",
            op: 0,
            parent,
            start_ns,
            end_ns,
        };
        let spans = [span(None, 0, 10), span(Some(0), 0, 8), span(Some(0), 5, 12)];
        assert!(self_times(&spans)[0] < 0);
        assert!(reconcile(&spans).is_err());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut t = Tracer::new(Instant::now());
        t.span("a", "802.11a", |t| t.span("b", "", |_| ()));
        let text = to_jsonl(t.spans());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = serde::json::parse(lines[1]).expect("valid JSON");
        assert_eq!(second.get("parent").and_then(Value::as_u64), Some(0));
        assert_eq!(second.get("name").and_then(Value::as_str), Some("b"));
    }
}
