//! The benchmark's own span recorder for traced runs.
//!
//! Every public call the benchmark makes into a layer can be wrapped in
//! a [`span`]. A span records its name, start and end, its parent span
//! and an optional request id. Spans are kept in memory while the run
//! goes, written out once at the end, and reduced to *self time*: a
//! span's duration minus the time covered by its child spans (the union
//! of their intervals, so children running in parallel on worker
//! threads are not subtracted twice).
//!
//! Parents come from a per-thread stack. Work fanned out to worker
//! threads has an empty stack there, so it attaches to the innermost
//! open [`phase`] — the span the main thread opened around the call
//! that fanned out.
//!
//! Recording is off unless [`set_enabled`] turned it on; a disabled span
//! costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// What was called, e.g. `extract.page`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Request the span served (0 when it served none).
    pub request: u64,
}

impl SpanRecord {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Innermost open phase span, the parent of spans on worker threads.
static PHASE: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is span recording on?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    open: Option<Open>,
}

struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    request: u64,
    /// The phase this span replaced, restored on close (phases only).
    outer_phase: Option<u64>,
}

fn enter(name: &'static str, request: u64, is_phase: bool) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent =
        STACK.with(|s| s.borrow().last().copied()).unwrap_or_else(|| PHASE.load(Ordering::Relaxed));
    STACK.with(|s| s.borrow_mut().push(id));
    let outer_phase = is_phase.then(|| PHASE.swap(id, Ordering::Relaxed));
    Span { open: Some(Open { id, parent, name, start_ns: now_ns(), request, outer_phase }) }
}

/// Open a span around one call.
pub fn span(name: &'static str) -> Span {
    enter(name, 0, false)
}

/// Open a span around one call made for request `request`.
pub fn request_span(name: &'static str, request: u64) -> Span {
    enter(name, request, false)
}

/// Open a phase span: like [`span`], and spans opened on threads with
/// no open span of their own (pool workers) attach to it.
pub fn phase(name: &'static str) -> Span {
    enter(name, 0, true)
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        if let Some(outer) = open.outer_phase {
            PHASE.store(outer, Ordering::Relaxed);
        }
        SPANS.lock().expect("span store").push(SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            request: open.request,
        });
    }
}

/// Take every recorded span, leaving the store empty.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(&mut *SPANS.lock().expect("span store"))
}

/// Self time of every span, index-aligned with `spans`: duration minus
/// the part of it covered by the union of its children's intervals.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else { return s.duration_ns() };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name aggregates of a span set.
#[derive(Debug, Default, Clone)]
pub struct SpanTable {
    by_name: HashMap<&'static str, (Vec<u64>, u64)>,
}

impl SpanTable {
    /// Reduce `spans` to per-name durations and summed self time.
    pub fn new(spans: &[SpanRecord]) -> Self {
        let mut by_name: HashMap<&'static str, (Vec<u64>, u64)> = HashMap::new();
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            let e = by_name.entry(s.name).or_default();
            e.0.push(s.duration_ns());
            e.1 += self_ns;
        }
        Self { by_name }
    }

    /// Summed self time of every span called `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.1 as f64 / 1e9)
    }

    /// Summed wall time of every span called `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.0.iter().sum::<u64>() as f64 / 1e9)
    }

    /// Durations of the spans called `name`, microseconds, sorted.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let v = self
            .by_name
            .get(name)
            .map_or_else(Vec::new, |e| e.0.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<f64>>());
        crate::stats::sorted(v)
    }
}

/// Render spans as JSON lines (one object per span) for the trace file.
pub fn to_json_lines(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"request\":{}}}\n",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, self_ns, s.request
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord { id, parent, name: "s", start_ns, end_ns, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, 0, 0, 100),
            // Two overlapping children (parallel workers) cover 10..60
            // once, not twice; a third covers 80..90.
            rec(2, 1, 10, 50),
            rec(3, 1, 20, 60),
            rec(4, 1, 80, 90),
            // A grandchild is subtracted from its own parent only.
            rec(5, 2, 15, 25),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - 50 - 10, 40 - 10, 40, 10, 10]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![rec(1, 0, 100, 200), rec(2, 1, 50, 150), rec(3, 1, 190, 250)];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn spans_nest_on_a_thread_and_attach_workers_to_the_phase() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let _ = take();
        {
            let _phase = phase("outer");
            {
                let _inner = span("inner");
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = request_span("worker", 7);
                });
            });
        }
        set_enabled(false);
        let spans = take();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let outer = by_name("outer");
        assert_eq!(outer.parent, 0);
        assert_eq!(by_name("inner").parent, outer.id);
        let worker = by_name("worker");
        assert_eq!(worker.parent, outer.id);
        assert_eq!(worker.request, 7);
        let table = SpanTable::new(&spans);
        assert_eq!(table.durations_us("inner").len(), 1);
        assert!(table.self_s("outer") <= table.total_s("outer"));
        assert_eq!(to_json_lines(&spans).lines().count(), 3);
    }
}
