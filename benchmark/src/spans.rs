//! The benchmark's own spans: one around each call into a layer, kept
//! in memory and written out when the traced run ends. (Spans inside
//! the program are a later change; these sit at the public boundary.)

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one operation share its number.
    pub request: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Per-name totals: a layer's self time is its spans' duration minus
/// the part their child spans cover.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Spans opened while disabled are not recorded; every open span
    /// must be closed before switching.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "switch tracing between operations");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under whichever span is open now.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Close a span and return its duration in nanoseconds (0 when
    /// tracing is off).
    pub fn exit(&mut self, open: Open) -> u64 {
        let Some(index) = open.0 else { return 0 };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(index), "spans close innermost first");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Time `f` under a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let open = self.enter(name, request);
        let out = f();
        self.exit(open);
        (out, start.elapsed().as_nanos() as u64)
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        totals(&self.spans)
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("request", Json::Num(s.request as f64)),
            ])
        });
        let layers = self.totals().into_iter().map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ]),
            )
        });
        let doc = Json::obj([
            ("self_time_by_span", Json::obj(layers)),
            ("spans", Json::Arr(spans.collect())),
        ]);
        std::fs::write(path, doc.render() + "\n")
    }
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        let duration = span.end_ns - span.start_ns;
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        };
        let spans = [
            span("op", 0, 100, None),
            span("scan", 10, 40, Some(0)),
            span("solve", 40, 90, Some(0)),
            span("pivot", 50, 60, Some(2)),
        ];
        let t = totals(&spans);
        assert_eq!(t["op"].self_ns, 20);
        assert_eq!(t["scan"].self_ns, 30);
        assert_eq!(t["solve"].self_ns, 40);
        assert_eq!(t["solve"].total_ns, 50);
    }

    #[test]
    fn nesting_and_request_ids_are_recorded() {
        let mut tracer = Tracer::new(true);
        let op = tracer.enter("op", 7);
        let ((), _) = tracer.time("child", 7, || ());
        tracer.exit(op);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert_eq!(tracer.spans[1].request, 7);
        assert!(tracer.spans[0].end_ns >= tracer.spans[1].end_ns);

        let mut off = Tracer::new(false);
        let open = off.enter("op", 1);
        assert_eq!(off.exit(open), 0);
        assert!(off.spans.is_empty());
    }
}
