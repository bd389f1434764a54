//! Tracing for the traced run: spans around the calls into each layer,
//! counters recorded at the same boundaries, and a counting allocator.
//!
//! Spans live in memory on the client thread and are written out when the
//! run ends. Each span records its name, start, end, parent, the id of the
//! op it belongs to, and the allocations made (by any thread) while it was
//! open. With tracing off, [`span`] and [`count`] do nothing but check a
//! thread-local flag.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations made while the span was open, children included.
    pub allocs: u64,
}

/// Everything one traced phase recorded.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub counters: BTreeMap<&'static str, u64>,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
}

struct Tracer {
    epoch: Instant,
    op: u64,
    trace: Trace,
    /// Open spans: index into `trace.spans` and the allocation count at open.
    open: Vec<(usize, u64)>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts tracing on the calling thread, with allocation counting on.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            op: 0,
            trace: Trace { spans: Vec::with_capacity(1 << 16), counters: BTreeMap::new() },
            open: Vec::new(),
        })
    });
    COUNTING.store(true, Ordering::Relaxed);
}

/// Stops tracing and returns what was recorded (empty when tracing was off).
pub fn finish() -> Trace {
    COUNTING.store(false, Ordering::Relaxed);
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.trace).unwrap_or_default())
}

/// Sets the op id that spans opened from now on belong to.
pub fn set_op(op: u64) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.op = op;
        }
    });
}

/// Adds `value` to a named counter.
pub fn count(name: &'static str, value: u64) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            *t.trace.counters.entry(name).or_default() += value;
        }
    });
}

/// Ends its span when dropped.
pub struct SpanGuard(Option<usize>);

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard(TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let idx = t.trace.spans.len();
        let parent = t.open.last().map(|&(i, _)| i);
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.trace.spans.push(Span { name, op: t.op, parent, start_ns, end_ns: start_ns, allocs: 0 });
        t.open.push((idx, allocations()));
        Some(idx)
    }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        let allocs = allocations();
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                let end_ns = t.epoch.elapsed().as_nanos() as u64;
                if let Some(pos) = t.open.iter().rposition(|&(i, _)| i == idx) {
                    let (_, at_open) = t.open.remove(pos);
                    let span = &mut t.trace.spans[idx];
                    span.end_ns = end_ns;
                    span.allocs = allocs.saturating_sub(at_open);
                }
            }
        });
    }
}

impl Trace {
    /// Self time and self allocations of every span: its own figures minus
    /// the part its children cover. Children that overlap each other are
    /// merged first, so no interval is subtracted twice.
    pub fn self_figures(&self) -> Vec<(u64, u64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut intervals: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                intervals.sort_unstable();
                let (mut covered, mut reach) = (0u64, 0u64);
                for (a, b) in intervals {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                let child_allocs: u64 = kids.iter().map(|&k| self.spans[k].allocs).sum();
                let wall = s.end_ns.saturating_sub(s.start_ns);
                (wall.saturating_sub(covered), s.allocs.saturating_sub(child_allocs))
            })
            .collect()
    }

    /// Totals per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, (self_ns, self_allocs)) in self.spans.iter().zip(self.self_figures()) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += s.end_ns.saturating_sub(s.start_ns);
            e.self_ns += self_ns;
            e.self_allocs += self_allocs;
        }
        out
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.allocs
            )?;
        }
        out.flush()
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Allocation counters, one cache line each, so threads allocating at the
/// same time do not contend on one counter.
#[repr(align(64))]
struct Shard(AtomicU64);

const SHARDS: usize = 16;
static ALLOCATIONS: [Shard; SHARDS] = [const { Shard(AtomicU64::new(0)) }; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Allocations counted so far, by every thread (only while a trace runs).
pub fn allocations() -> u64 {
    ALLOCATIONS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// The system allocator, counting allocation calls while tracing is on.
pub struct CountingAlloc;

fn note_allocation() {
    if COUNTING.load(Ordering::Relaxed) {
        // A thread whose locals are already torn down counts on shard 0.
        let shard = MY_SHARD
            .try_with(|s| {
                if s.get() == usize::MAX {
                    s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
                }
                s.get()
            })
            .unwrap_or(0);
        ALLOCATIONS[shard].0.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` was allocated by `System` through this wrapper with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64, allocs: u64) -> Span {
        Span { name, op: 1, parent, start_ns: start, end_ns: end, allocs }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        // op [0,100): eval child [10,40) with a grandchild [20,30), a second
        // child [35,60) overlapping the first, and a child [90,120) that
        // runs past its parent's end.
        let trace = Trace {
            spans: vec![
                span("op", None, 0, 100, 50),
                span("eval", Some(0), 10, 40, 20),
                span("engine", Some(1), 20, 30, 5),
                span("text2sql", Some(0), 35, 60, 10),
                span("serve", Some(0), 90, 120, 1),
            ],
            counters: BTreeMap::new(),
        };
        let figures = trace.self_figures();
        // Covered: [10,60) ∪ [90,100) = 60 of 100.
        assert_eq!(figures[0], (40, 19));
        assert_eq!(figures[1], (20, 15));
        assert_eq!(figures[2], (10, 5));
        assert_eq!(figures[3], (25, 10));
        assert_eq!(figures[4], (30, 1));
        let layers = trace.layers();
        assert_eq!(layers["op"].self_ns, 40);
        assert_eq!(layers["eval"].total_ns, 30);
        assert_eq!(layers["eval"].calls, 1);
    }

    #[test]
    fn guards_nest_and_record_parents_and_ops() {
        start();
        set_op(7);
        {
            let _a = super::span("a");
            count("calls", 2);
            let _b = super::span("b");
        }
        set_op(8);
        drop(super::span("c"));
        let trace = finish();
        let names: Vec<_> = trace.spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(names, vec![("a", None, 7), ("b", Some(0), 7), ("c", None, 8)]);
        assert_eq!(trace.counter("calls"), 2);
        assert!(trace.spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Off again: nothing more is recorded.
        drop(super::span("d"));
        assert!(finish().spans.is_empty());
    }
}
