//! Spans recorded around calls into the repository's crates.
//!
//! A span covers one public call. Spans of one unit of work (a grid cell,
//! a sequential run, or a ccdpd job) share the unit's id, and each span
//! names the span that caused it. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub unit: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one unit of work. A disabled tracer runs the same
/// calls and records nothing, which is how the tracing overhead is
/// measured.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    unit: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, t0: Instant, unit: u64) -> Tracer {
        Tracer {
            enabled,
            t0,
            unit,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit: self.unit,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// One unit of a replay, run untraced and traced back to back.
pub struct Paired<T> {
    pub untraced_s: f64,
    pub traced_s: f64,
    pub spans: Vec<Span>,
    /// The traced run's result.
    pub out: T,
}

/// Run `f` once with the tracer off and once on, adjacent in time so the
/// two wall times see the same host conditions; even units go untraced
/// first, odd units traced first.
pub fn paired<T>(t0: Instant, unit: u64, mut f: impl FnMut(&mut Tracer) -> T) -> Paired<T> {
    let mut run = |traced: bool| {
        let mut t = Tracer::new(traced, t0, unit);
        let start = Instant::now();
        let out = f(&mut t);
        (start.elapsed().as_secs_f64(), t.into_spans(), out)
    };
    let (off, on) = if unit & 1 == 0 {
        let off = run(false);
        (off, run(true))
    } else {
        let on = run(true);
        (run(false), on)
    };
    Paired {
        untraced_s: off.0,
        traced_s: on.0,
        spans: on.1,
        out: on.2,
    }
}

/// Concatenate per-unit traces into one, re-basing parent indices.
pub fn merge(parts: impl IntoIterator<Item = Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Check that the span tree is well formed: every parent exists and
/// precedes its child, every child lies inside its parent, and the
/// children of a span never cover more time than the span itself.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    let mut child_ns = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let Some(ps) = spans.get(p).filter(|_| p < i) else {
                return Err(format!("span {i} ({}) has missing parent {p}", s.name));
            };
            if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns || s.unit != ps.unit {
                return Err(format!(
                    "span {i} ({}) escapes its parent {p} ({})",
                    s.name, ps.name
                ));
            }
            child_ns[p] += s.dur_ns();
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if child_ns[i] > s.dur_ns() {
            return Err(format!(
                "children of span {i} ({}) cover {} ns of its {} ns",
                s.name,
                child_ns[i],
                s.dur_ns()
            ));
        }
    }
    Ok(())
}

/// Self time of every span: its duration minus the time its children
/// cover. Requires a validated trace (children are disjoint and nested).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ns();
        }
    }
    own
}

/// Per-name totals over one trace: (calls, total self ns).
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let own = self_times(spans);
    let mut by: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        let e = by.entry(s.name).or_default();
        e.0 += 1;
        e.1 += ns;
    }
    by
}

/// One JSON object per line: id, name, unit, parent, start and end.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"unit\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.unit, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_partition_their_parent() {
        let mut t = Tracer::new(true, Instant::now(), 7);
        t.span("root", |t| {
            t.span("a", |t| t.span("a.inner", |_| std::hint::black_box(1 + 1)));
            t.span("b", |_| ());
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 4);
        validate(&spans).unwrap();
        let own = self_times(&spans);
        assert_eq!(own.iter().sum::<u64>(), spans[0].dur_ns());
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let s = |parent, start_ns, end_ns| Span {
            name: "x",
            unit: 0,
            start_ns,
            end_ns,
            parent,
        };
        assert!(validate(&[s(Some(3), 0, 1)]).is_err());
        assert!(validate(&[s(None, 0, 10), s(Some(0), 5, 11)]).is_err());
        assert!(validate(&[s(None, 0, 10), s(Some(0), 0, 6), s(Some(0), 4, 10)]).is_err());
        assert!(validate(&[s(None, 0, 10), s(Some(0), 0, 5), s(Some(0), 5, 10)]).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        assert_eq!(t.span("root", |t| t.span("a", |_| 3)), 3);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let mut a = Tracer::new(true, Instant::now(), 0);
        a.span("r", |t| t.span("c", |_| ()));
        let mut b = Tracer::new(true, Instant::now(), 1);
        b.span("r", |t| t.span("c", |_| ()));
        let all = merge([a.into_spans(), b.into_spans()]);
        assert_eq!(all[3].parent, Some(2));
        validate(&all).unwrap();
    }
}
