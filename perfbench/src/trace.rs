//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of the API boundary: one
//! span around each call into a layer's public functions, named
//! `<layer>.<function>`, carrying the request it served, the span that
//! caused it and a unit of work (bytes, documents, outputs). Spans stay in
//! memory and are written out once, when the run ends. A disabled recorder
//! still times the call (the workloads need the duration) but keeps
//! nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based, in open order).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The request (batch call, ticket or probe round) the span served.
    pub request: u64,
    /// `<layer>.<function>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Work done inside the span (bytes, documents or outputs; 0 if none).
    pub work: u64,
}

/// Per-name aggregate of closed spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    /// Spans closed under this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by direct child spans.
    pub self_ns: u64,
    /// Summed work.
    pub work: u64,
}

/// An in-memory span recorder for the one thread that runs a workload.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: Cell<u64>,
    /// Open spans: (id, accumulated child time).
    stack: RefCell<Vec<(u64, u64)>>,
    spans: RefCell<Vec<Span>>,
    child_ns: RefCell<BTreeMap<u64, u64>>,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: Cell::new(1),
            stack: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
            child_ns: RefCell::new(BTreeMap::new()),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span and returns its result with the elapsed time.
    /// `work` is evaluated after `f`, from its result.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> u64,
    ) -> (T, Duration) {
        if !self.enabled {
            let t = Instant::now();
            let out = f();
            return (out, t.elapsed());
        }
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let parent = self.stack.borrow().last().map(|&(p, _)| p);
        self.stack.borrow_mut().push((id, 0));
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        let (_, child) = self.stack.borrow_mut().pop().expect("span stack underflow");
        if let Some(top) = self.stack.borrow_mut().last_mut() {
            top.1 += dur_ns;
        }
        self.child_ns.borrow_mut().insert(id, child);
        let start_ns = u64::try_from(start.duration_since(self.origin).as_nanos()).unwrap_or(0);
        let w = work(&out);
        self.spans.borrow_mut().push(Span { id, parent, request, name, start_ns, dur_ns, work: w });
        (out, dur)
    }

    /// Records a span whose start and end were observed outside a closure
    /// (a ticket's life from its scheduled send to its observed completion).
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
        work: u64,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let parent = self.stack.borrow().last().map(|&(p, _)| p);
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            request,
            name,
            start_ns: u64::try_from(start.saturating_duration_since(self.origin).as_nanos())
                .unwrap_or(0),
            dur_ns: u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(0),
            work,
        });
    }

    /// Per-name aggregates (count, total, self time, work).
    pub fn aggregates(&self) -> BTreeMap<&'static str, Aggregate> {
        let child = self.child_ns.borrow();
        let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
        for s in self.spans.borrow().iter() {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.dur_ns;
            a.self_ns += s.dur_ns.saturating_sub(child.get(&s.id).copied().unwrap_or(0));
            a.work += s.work;
        }
        out
    }

    /// Number of spans kept.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// The spans as a JSON array (one object per span).
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"dur_ns\":{},\"work\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.dur_ns, s.work
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        let t = Tracer::new(true);
        let ((), _) = t.span(
            "outer",
            7,
            || {
                let ((), _) =
                    t.span("inner", 7, || std::thread::sleep(Duration::from_millis(2)), |_| 3);
            },
            |_| 0,
        );
        let agg = t.aggregates();
        assert_eq!(agg["inner"].work, 3);
        assert!(agg["outer"].self_ns < agg["outer"].total_ns);
        assert!(agg["outer"].total_ns >= agg["inner"].total_ns);
        assert_eq!(t.len(), 2);
        assert!(t.spans_json().contains("\"parent\":1"));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let t = Tracer::new(false);
        let (v, _) = t.span("x", 0, || 5, |_| 1);
        assert_eq!(v, 5);
        assert_eq!(t.len(), 0);
    }
}
