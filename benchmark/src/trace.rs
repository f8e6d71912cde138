//! The traced run's span recorder. Spans are taken from the outside —
//! around calls into each layer's public functions — kept in memory, and
//! written to `out/trace.json` when the run ends.
//!
//! The end-to-end run never comes here: it times `sapp` children, which
//! carry no tracing at all.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; 0 at the top.
    pub parent: u32,
    /// `layer::function[input]`.
    pub name: String,
    /// Start and end, µs since the trace began.
    pub start_us: f64,
    pub end_us: f64,
    /// Units of work inside the span (references counted, probes made,
    /// items mapped …); 1 when the span is one call.
    pub count: u64,
}

pub struct Trace {
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Innermost open span on this thread.
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The innermost open span of the calling thread — hand it to
    /// [`Trace::span_under`] from inside a `par_map` worker so spans made
    /// on other threads keep their cause.
    pub fn current(&self) -> u32 {
        CURRENT.get()
    }

    /// Time `f` as a span under the thread's current one. Returns `f`'s
    /// value and the elapsed milliseconds.
    pub fn span<R>(&self, name: &str, count: u64, f: impl FnOnce() -> R) -> (R, f64) {
        self.span_under(CURRENT.get(), name, count, f)
    }

    /// [`Trace::span`] with an explicit parent.
    pub fn span_under<R>(
        &self,
        parent: u32,
        name: &str,
        count: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let outer = CURRENT.replace(id);
        let start = self.t0.elapsed();
        let r = std::hint::black_box(f());
        let end = self.t0.elapsed();
        CURRENT.set(outer);
        self.spans.lock().expect("trace poisoned").push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
            count,
        });
        (r, (end - start).as_secs_f64() * 1e3)
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("trace poisoned").len()
    }

    /// The trace as a JSON document, spans in start order.
    pub fn to_json(&self, workload: &str) -> Json {
        let mut spans = self.spans.lock().expect("trace poisoned").clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        Json::obj([
            ("workload", Json::str(workload)),
            ("unit", Json::str("us since trace start")),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("id", Json::Num(f64::from(s.id))),
                                ("parent", Json::Num(f64::from(s.parent))),
                                ("name", Json::str(s.name.as_str())),
                                ("start", Json::Num(s.start_us)),
                                ("end", Json::Num(s.end_us)),
                                ("count", Json::Num(s.count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_keep_parents_across_threads() {
        let t = Trace::new();
        let (_, outer_ms) = t.span("outer", 7, || {
            let parent = t.current();
            t.span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            std::thread::scope(|s| {
                s.spawn(|| t.span_under(parent, "worker", 1, || ()));
            });
        });
        assert_eq!(t.len(), 3);
        let spans = t.spans.lock().unwrap().clone();
        let find = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        let outer = find("outer");
        assert_eq!((outer.parent, outer.count), (0, 7));
        for name in ["inner", "worker"] {
            assert_eq!(find(name).parent, outer.id);
        }
        let inner_ms = (find("inner").end_us - find("inner").start_us) / 1e3;
        assert!(
            inner_ms >= 2.0 && inner_ms <= outer_ms,
            "{inner_ms} in {outer_ms}"
        );
        assert_eq!(t.current(), 0);
    }
}
