//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, case)`. Spans are recorded around
//! calls into each layer from the benchmark's own code, kept in memory and
//! written out once at the end. A layer's self time is its spans' duration
//! minus the part covered by their child spans.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use px_util::{Json, ToJson};

/// One recorded span. Times are nanoseconds since the trace started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `core.standard`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Campaign case id (or engine-run index) the span belongs to.
    pub case: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// The recorder. Single-threaded: the traced run is serial.
#[derive(Debug)]
pub struct Trace {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<usize>>,
    case: Cell<u64>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    #[must_use]
    pub fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: Cell::new(None),
            case: Cell::new(0),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the case id stamped on spans opened from now on.
    pub fn set_case(&self, case: u64) {
        self.case.set(case);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: 0,
                end: 0,
                parent: self.open.get(),
                case: self.case.get(),
            });
            spans.len() - 1
        };
        self.open.set(Some(idx));
        let start = self.now();
        let r = f();
        let end = self.now();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start = start;
        spans[idx].end = end;
        self.open.set(spans[idx].parent);
        r
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Per-name totals of a finished trace.
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    /// Self time per span name, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Total duration per span name, ns.
    pub total_ns: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    /// Sums self and total time per name.
    #[must_use]
    pub fn of(spans: &[Span]) -> Breakdown {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur();
            }
        }
        let mut b = Breakdown::default();
        for (s, child) in spans.iter().zip(child_ns) {
            *b.self_ns.entry(s.name).or_default() += s.dur().saturating_sub(child);
            *b.total_ns.entry(s.name).or_default() += s.dur();
        }
        b
    }

    /// Self time of `name`, seconds (0 when never recorded).
    #[must_use]
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Total time of `name`, seconds (0 when never recorded).
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }
}

/// The spans as NDJSON, one object per line.
#[must_use]
pub fn to_ndjson(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(
            &Json::obj([
                ("name", s.name.to_json()),
                ("start_ns", s.start.to_json()),
                ("end_ns", s.end.to_json()),
                ("parent", s.parent.map_or(Json::Null, |p| p.to_json())),
                ("case", s.case.to_json()),
            ])
            .dump(),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Trace::new();
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let b = Breakdown::of(&spans);
        let outer_total = b.total_ns["outer"];
        assert_eq!(b.self_ns["outer"] + b.total_ns["inner"], outer_total);
        assert!(b.self_s("inner") >= 0.002);
        assert_eq!(b.self_s("missing"), 0.0);
    }
}
