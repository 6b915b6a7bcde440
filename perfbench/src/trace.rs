//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call it makes into a layer of the stack in a
//! span (name, start, end, parent, unit id). Spans stay in memory and are
//! written out when the run ends. A disabled tracer runs the wrapped call
//! and records nothing, so the untraced run executes the same code.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;
use tdfm_json::{Number, Value};

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Layer call, e.g. `core.fit`, or the unit label for a unit's root.
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit the span belongs to.
    pub unit: u64,
}

impl SpanRecord {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Total and self time of every span with one name.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans, ns.
    pub self_ns: u64,
}

/// Span recorder. Single-threaded: the benchmark's units run on one
/// thread, and kernel threads below them are not traced.
#[derive(Debug)]
pub struct Tracer {
    on: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<SpanRecord>>,
    open: RefCell<Vec<usize>>,
    unit: Cell<u64>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on: Cell::new(on),
            origin: crate::clock(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            unit: Cell::new(0),
        }
    }

    /// Switches recording on or off between units.
    pub fn set_enabled(&self, on: bool) {
        assert!(self.open.borrow().is_empty(), "toggled inside a span");
        self.on.set(on);
    }

    /// Tags spans opened from now on with unit id `id`.
    pub fn set_unit(&self, id: u64) {
        self.unit.set(id);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (recorded only when enabled).
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(SpanRecord {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent,
                unit: self.unit.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.borrow().clone()
    }

    /// Shortest duration (seconds) of the spans named `name`, for each
    /// name of their parent span.
    pub fn min_seconds_by_parent(&self, name: &str) -> BTreeMap<String, f64> {
        let spans = self.spans.borrow();
        let mut mins = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == name) {
            let Some(parent) = s.parent else { continue };
            let min = mins
                .entry(spans[parent].name.clone())
                .or_insert(f64::INFINITY);
            *min = s.seconds().min(*min);
        }
        mins
    }

    /// Total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        self_times(&self.spans.borrow())
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> Value {
        let num = |v: u64| Value::Num(Number::UInt(v));
        let spans = self
            .spans
            .borrow()
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| num(p as u64)),
                    ),
                    ("unit".into(), num(s.unit)),
                ])
            })
            .collect();
        Value::Object(vec![("spans".into(), Value::Array(spans))])
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover. Children of one parent never overlap
/// (they run one after another on one thread), so coverage is the sum of
/// their durations clipped to the parent's interval.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<String, SelfTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
    for (s, &cov) in spans.iter().zip(&covered) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name.clone()).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(cov);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, start: u64, end: u64, parent: Option<usize>) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            rec("unit", 0, 100, None),
            rec("fit", 10, 60, Some(0)),
            rec("step", 20, 30, Some(1)),
            rec("predict", 60, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["unit"].self_ns, 20);
        assert_eq!(t["fit"].self_ns, 40);
        assert_eq!(t["step"].self_ns, 10);
        assert_eq!(t["predict"].self_ns, 30);
        let self_sum: u64 = t.values().map(|v| v.self_ns).sum();
        assert_eq!(self_sum, 100, "self times sum to the root");
    }

    #[test]
    fn nesting_sets_parents_and_disabled_records_nothing() {
        let tr = Tracer::new(true);
        tr.set_unit(7);
        let v = tr.span("outer", || tr.span("inner", || 41) + 1);
        assert_eq!(v, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.unit == 7 && s.end_ns >= s.start_ns));
        tr.span("other", || tr.span("inner", || ()));
        let mins = tr.min_seconds_by_parent("inner");
        assert_eq!(mins.keys().collect::<Vec<_>>(), ["other", "outer"]);
        assert!(tr.min_seconds_by_parent("outer").is_empty());

        let off = Tracer::new(false);
        assert_eq!(off.span("x", || 3), 3);
        assert!(off.spans().is_empty());
    }
}
