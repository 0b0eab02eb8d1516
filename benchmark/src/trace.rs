//! In-memory tracer. Spans are recorded around the benchmark's own calls
//! into each crate's public functions — one per batch of records and one
//! per synchronous call, never per sample — with counts at the same
//! boundaries. Nothing is written until the run has ended.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Id of the span that was open when this one began; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

const OFF: Open = Open(usize::MAX);

/// One thread's spans and counts. A disabled tracer reads no clock and
/// records nothing, so the untraced run pays one branch per boundary.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Added to every span id, so tracers of different threads can be
    /// merged without clashes.
    base: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<(&'static str, &'static str), u64>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, base: u64) -> Self {
        Tracer {
            enabled,
            epoch,
            base,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn off() -> Self {
        Tracer::new(false, Instant::now(), 0)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer for another thread sharing this one's clock.
    pub fn sibling(&self, base: u64) -> Tracer {
        Tracer::new(self.enabled, self.epoch, base)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return OFF;
        }
        let index = self.spans.len();
        let parent = self.open.last().map_or(0, |&p| self.spans[p].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: self.base + index as u64 + 1,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        Open(index)
    }

    /// Closes `span` (and anything opened inside it and left open).
    pub fn end(&mut self, span: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        while let Some(index) = self.open.pop() {
            self.spans[index].end_ns = end_ns;
            if index == span.0 {
                break;
            }
        }
    }

    /// Closes `span` and adds `n` to the span name's `what` count.
    pub fn end_counted(&mut self, span: Open, what: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        let name = self.spans[span.0].name;
        self.end(span);
        *self.counts.entry((name, what)).or_default() += n;
    }

    /// Times one call as a span.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let value = f();
        self.end(span);
        value
    }

    /// Takes another thread's spans and counts.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (key, n) in other.counts {
            *self.counts.entry(key).or_default() += n;
        }
    }

    /// Durations in milliseconds of every span called `name`, in
    /// recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Total nanoseconds under spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Per span name: calls, total time, and self time — a span's
    /// duration minus the part of it its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, Summary> {
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &self.spans {
            if span.parent != 0 {
                *covered.entry(span.parent).or_default() += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Summary> = BTreeMap::new();
        for span in &self.spans {
            let total = span.end_ns - span.start_ns;
            let children = covered.get(&span.id).copied().unwrap_or(0);
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(children);
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::object([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|((name, what), n)| (format!("{name}.{what}"), Json::Num(*n as f64)))
            .collect();
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, s)| {
                (
                    name.to_string(),
                    Json::object([
                        ("calls", Json::Num(s.calls as f64)),
                        ("total_ns", Json::Num(s.total_ns as f64)),
                        ("self_ns", Json::Num(s.self_ns as f64)),
                    ]),
                )
            })
            .collect();
        Json::object([
            ("summary", Json::Obj(summary)),
            ("counts", Json::Obj(counts)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds spans with chosen times instead of reading the clock.
    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut tracer = Tracer::new(true, Instant::now(), 0);
        tracer.spans = vec![
            span(1, 0, "plant", 0, 1_000),
            span(2, 1, "batch", 100, 400),
            span(3, 1, "batch", 400, 600),
            span(4, 3, "flush", 450, 500),
            span(5, 1, "finish", 700, 950),
        ];
        let summary = tracer.summary();
        assert_eq!(
            summary["plant"],
            Summary {
                calls: 1,
                total_ns: 1_000,
                self_ns: 1_000 - 300 - 200 - 250
            }
        );
        // The grandchild is charged to its parent batch only.
        assert_eq!(
            summary["batch"],
            Summary {
                calls: 2,
                total_ns: 500,
                self_ns: 450
            }
        );
        assert_eq!(summary["flush"].self_ns, 50);
        let whole: u64 = summary.values().map(|s| s.self_ns).sum();
        assert_eq!(whole, 1_000, "self times partition the root span");
    }

    #[test]
    fn nesting_follows_begin_and_end() {
        let mut tracer = Tracer::new(true, Instant::now(), 1 << 32);
        let outer = tracer.begin("outer");
        let inner = tracer.begin("inner");
        tracer.end_counted(inner, "records", 4096);
        let second = tracer.begin("inner");
        tracer.end_counted(second, "records", 10);
        tracer.end(outer);
        let spans = &tracer.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[0].id);
        assert!(spans[0].id > 1 << 32);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(tracer.counts[&("inner", "records")], 4106);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        let span = tracer.begin("x");
        tracer.end_counted(span, "records", 5);
        assert_eq!(tracer.call("y", || 3), 3);
        assert!(tracer.spans.is_empty());
        assert!(tracer.counts.is_empty());
    }
}
