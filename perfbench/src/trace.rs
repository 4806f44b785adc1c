//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A [`Tracer`] records `(name, start, end, parent, request id)` for every
//! span opened while it is enabled and nothing at all while disabled, so
//! the untraced measurement pays one branch per call site. Self time is a
//! span's duration minus the part of its interval its children cover.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span (`NONE` when tracing is off).
pub type SpanId = usize;
/// The handle returned while tracing is disabled.
pub const NONE: SpanId = usize::MAX;

/// One finished (or still open) span, in nanoseconds since the tracer's
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: Option<u64>,
}

/// Span recorder; spans are kept in memory until [`Tracer::to_json`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `parent` may be [`NONE`].
    pub fn begin(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: SpanId,
        request: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent: (parent != NONE).then_some(parent),
            request,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`] (a no-op for [`NONE`]).
    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, None);
        let r = f();
        self.end(id);
        r
    }

    /// The spans and per-name aggregates as one JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("{\"aggregates\":[");
        for (i, (name, agg)) in aggregate(&self.spans, &selfs).iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                agg.count, agg.total_ns, agg.self_ns
            );
        }
        out.push_str("],\"spans\":[");
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Sums span count, duration and self time by name.
#[must_use]
pub fn aggregate(spans: &[Span], selfs: &[u64]) -> BTreeMap<String, Aggregate> {
    let mut out: BTreeMap<String, Aggregate> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(selfs) {
        let a = out.entry(s.name.to_string()).or_default();
        a.count += 1;
        a.total_ns += s.end_ns.saturating_sub(s.start_ns);
        a.self_ns += own;
    }
    out
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
#[must_use]
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
        .map(|(s, kids)| {
            let (lo, hi) = (s.start_ns, s.end_ns.max(s.start_ns));
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(hi));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (hi - lo) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100) with children [10,30), [20,50) (overlapping: union
        // [10,50) = 40) and [90,120) (clipped to [90,100) = 10); the
        // grandchild [12,20) counts against its parent only.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 90, 120, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 30, 8]);
    }

    #[test]
    fn aggregates_sum_by_name() {
        let spans = vec![
            span("root", 0, 100, None),
            span("leaf", 0, 40, Some(0)),
            span("leaf", 50, 60, Some(0)),
        ];
        let selfs = self_times(&spans);
        let agg = aggregate(&spans, &selfs);
        assert_eq!(
            agg["leaf"],
            Aggregate {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        assert_eq!(agg["root"].self_ns, 50);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", NONE, Some(1));
        assert_eq!(id, NONE);
        t.end(id);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let outer = t.begin("outer", NONE, Some(7));
        t.span("inner", outer, || ());
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert!(t.to_json().contains("\"request\":7"));
    }
}
