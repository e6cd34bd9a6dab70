//! In-memory span tracing around every call the benchmark makes into a
//! layer (a crate of the repository).
//!
//! A span records its layer, name, start, end and the span that caused
//! it; serving spans also carry a request id. Spans are kept in memory
//! and written out once, when the run ends. With tracing off, `span`
//! only calls the closure, so untraced runs pay one branch per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within one tracer.
    pub id: u64,
    /// The span open on the same thread when this one started, or an
    /// explicit cause for spans recorded from another thread.
    pub parent: Option<u64>,
    /// Crate the call went into (`integration`, `serve`, …) or `bench`
    /// for the benchmark's own job spans.
    pub layer: &'static str,
    /// Operation within the layer.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Request id, for spans that belong to one served request.
    pub req: Option<u64>,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any number of threads.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span id, for spans recorded with [`Self::push`].
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span whose parent is the innermost span open on
    /// this thread.
    pub fn span<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.new_id();
        let parent = OPEN.with(|s| s.borrow().last().copied());
        OPEN.with(|s| s.borrow_mut().push(id));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|s| s.borrow_mut().pop());
        self.push(Span {
            id,
            parent,
            layer,
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            req: None,
        });
        out
    }

    /// Stores a span timed by the caller (used where a span starts on one
    /// thread and ends on another).
    pub fn push(&self, span: Span) {
        if self.enabled {
            // Pushing leaves the buffer valid even if another thread
            // panicked mid-push, so a poisoned lock is recovered.
            self.spans
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(span);
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let req = s.req.map_or("null".to_owned(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{req}}}",
                s.id, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

fn children_of(spans: &[Span]) -> BTreeMap<u64, Vec<(u64, u64)>> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    children
}

/// Self time per layer in ms: each span's duration minus the part of it
/// that its child spans cover, summed by layer.
pub fn self_time_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let children = children_of(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        let own = (s.end_ns - s.start_ns) - covered_ns(kids, s.start_ns, s.end_ns);
        *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Share of the total duration of the spans named `root` that none of
/// their child spans covers. `None` when no such span exists.
pub fn uncovered_share(spans: &[Span], root: &str) -> Option<f64> {
    let children = children_of(spans);
    let (mut total, mut covered) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == root) {
        total += s.end_ns - s.start_ns;
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        covered += covered_ns(kids, s.start_ns, s.end_ns);
    }
    (total > 0).then(|| (total - covered) as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: if parent.is_none() { "job" } else { "call" },
            start_ns: s,
            end_ns: e,
            req: None,
        }
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new(true);
        t.span("bench", "job", || t.span("ml", "fit", || ()));
        let spans = t.spans();
        let job = spans.iter().find(|s| s.name == "job").expect("job span");
        let fit = spans.iter().find(|s| s.name == "fit").expect("fit span");
        assert_eq!(fit.parent, Some(job.id));
        assert_eq!(job.parent, None);
        assert!(job.start_ns <= fit.start_ns && fit.end_ns <= job.end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("ml", "fit", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // job [0,100) with children [10,40) and [30,60): union 50.
        let spans = vec![
            span(1, None, "bench", 0, 100),
            span(2, Some(1), "ml", 10, 40),
            span(3, Some(1), "ml", 30, 60),
        ];
        let st = self_time_ms(&spans);
        assert!((st["bench"] - 50e-6).abs() < 1e-12);
        assert!((st["ml"] - 60e-6).abs() < 1e-12);
        assert_eq!(uncovered_share(&spans, "job"), Some(0.5));
    }
}
