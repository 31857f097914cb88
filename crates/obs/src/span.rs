//! Hierarchical wall-time spans.
//!
//! A span covers one region of work (`train/epoch`, `pipeline/screen`).
//! Starting a span returns a RAII [`SpanGuard`]; dropping the guard
//! records the span into its [`SpanCollector`]. Nesting is tracked per
//! thread: a span started while another is active on the same thread
//! becomes its child, and records carry both the parent id and the
//! nesting depth so exports can reconstruct the tree.
//!
//! Collected spans export as Chrome trace format (load the file in
//! `chrome://tracing` or Perfetto).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use env2vec_telemetry::locks::TrackedMutex;

/// Upper bound on retained spans; beyond it new spans are counted but
/// dropped, keeping memory bounded on runaway loops.
const MAX_SPANS: usize = 1_000_000;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span id, unique within the collector (1-based).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for roots.
    pub parent: u64,
    /// Slash-separated name, e.g. `train/epoch`.
    pub name: String,
    /// Key/value metadata attached at the call site.
    pub args: Vec<(String, String)>,
    /// Start offset from the collector's epoch, in microseconds.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Arbitrary-but-stable id of the recording thread.
    pub thread: u64,
    /// Nesting depth at start (roots are 0).
    pub depth: usize,
}

struct ThreadState {
    /// Stack of active span ids on this thread.
    stack: Vec<u64>,
    /// Stable thread id assigned on first use.
    tid: u64,
}

thread_local! {
    // Shared (not RefCell) so a guard can carry a handle to the thread
    // state it was *started* on: when a guard is dropped on another
    // thread — e.g. a `par` pool worker finishing while a sibling span is
    // open elsewhere — the span id must be removed from the owner's
    // stack, not the dropper's, or the owner's parent/depth tracking
    // would be corrupted for every later span.
    static THREAD_STATE: std::sync::Arc<TrackedMutex<ThreadState>> =
        std::sync::Arc::new(TrackedMutex::new(
            "obs.span.thread_state",
            ThreadState { stack: Vec::new(), tid: 0 },
        ));
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Thread-safe sink for finished spans.
#[derive(Debug)]
pub struct SpanCollector {
    epoch: Instant,
    next_id: AtomicU64,
    dropped: AtomicU64,
    records: TrackedMutex<Vec<SpanRecord>>,
}

impl Default for SpanCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanCollector {
    /// Creates an empty collector whose epoch is "now".
    pub fn new() -> Self {
        SpanCollector {
            // envlint: allow(wall-clock) — span timestamps are trace
            // metadata; exported traces never influence computation.
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            records: TrackedMutex::new("obs.span.records", Vec::new()),
        }
    }

    /// Starts a span; it ends (and is recorded) when the guard drops.
    pub fn start(&self, name: impl Into<String>, args: Vec<(String, String)>) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let owner = THREAD_STATE.with(std::sync::Arc::clone);
        let (parent, depth, thread) = {
            let mut st = owner.lock();
            if st.tid == 0 {
                st.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            }
            let parent = st.stack.last().copied().unwrap_or(0);
            let depth = st.stack.len();
            st.stack.push(id);
            (parent, depth, st.tid)
        };
        SpanGuard {
            collector: self,
            record: Some(SpanRecord {
                id,
                parent,
                name: name.into(),
                args,
                start_us: self.epoch.elapsed().as_micros() as u64,
                dur_us: 0,
                thread,
                depth,
            }),
            // envlint: allow(wall-clock) — span duration measurement;
            // observability metadata only, numerics-inert.
            started: Instant::now(),
            owner,
        }
    }

    fn finish(&self, mut record: SpanRecord, started: Instant, owner: &TrackedMutex<ThreadState>) {
        record.dur_us = started.elapsed().as_micros() as u64;
        {
            // Pop from the stack of the thread the span *started* on —
            // which, for guards moved into pool jobs, is not necessarily
            // the thread running this drop.
            let mut st = owner.lock();
            // Guards are dropped in reverse start order in the common
            // case, so the top of the stack is this span.
            if st.stack.last() == Some(&record.id) {
                st.stack.pop();
            } else {
                // Out-of-order drop (guard held past its parent): remove
                // wherever it is.
                st.stack.retain(|&id| id != record.id);
            }
        }
        let mut records = self.records.lock();
        if records.len() < MAX_SPANS {
            records.push(record);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Whether no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans dropped due to the retention cap.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of all records, in completion order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().clone()
    }

    /// Removes and returns all records.
    pub fn drain(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.records.lock())
    }

    /// Renders the collected spans as a Chrome trace (JSON object with a
    /// `traceEvents` array of complete `"X"` events). Loadable in
    /// `chrome://tracing` and Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        let records = self.records.lock();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"env2vec\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{",
                json_string(&r.name),
                r.start_us,
                r.dur_us,
                r.thread,
            ));
            let mut first = true;
            for (k, v) in &r.args {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("{}:{}", json_string(k), json_string(v)));
            }
            // Structural metadata lands in args too, prefixed to avoid
            // clashing with user keys.
            if !first {
                out.push(',');
            }
            out.push_str(&format!(
                "\"span.id\":\"{}\",\"span.parent\":\"{}\",\"span.depth\":\"{}\"",
                r.id, r.parent, r.depth
            ));
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// RAII guard: records the span into the collector on drop.
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard<'a> {
    collector: &'a SpanCollector,
    record: Option<SpanRecord>,
    started: Instant,
    /// Nesting state of the thread the span started on; finishing must
    /// mutate this state even when the guard drops on another thread.
    owner: std::sync::Arc<TrackedMutex<ThreadState>>,
}

impl SpanGuard<'_> {
    /// Attaches another key/value pair after the span started.
    pub fn arg(&mut self, key: impl Into<String>, value: impl ToString) {
        if let Some(r) = self.record.as_mut() {
            r.args.push((key.into(), value.to_string()));
        }
    }

    /// This span's id (usable as a parent reference in diagnostics).
    pub fn id(&self) -> u64 {
        self.record.as_ref().map(|r| r.id).unwrap_or(0)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(record) = self.record.take() {
            self.collector.finish(record, self.started, &self.owner);
        }
    }
}

/// Escapes a string as a JSON string literal (with quotes).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The process-wide collector used by the [`span!`](crate::span!) macro.
pub fn global() -> &'static SpanCollector {
    static GLOBAL: std::sync::OnceLock<SpanCollector> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(SpanCollector::new)
}

/// Starts a span on the global collector.
///
/// ```
/// let _guard = env2vec_obs::span!("train/epoch", epoch = 3);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::global().start($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        $crate::span::global().start(
            $name,
            ::std::vec![$(
                (
                    ::std::string::String::from(stringify!($key)),
                    ::std::format!("{}", $val),
                )
            ),+],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_tracked_per_thread() {
        let c = SpanCollector::new();
        {
            let _a = c.start("outer", vec![]);
            {
                let _b = c.start("inner", vec![]);
            }
            let _c2 = c.start("sibling", vec![]);
        }
        let mut by_name = std::collections::HashMap::new();
        for r in c.records() {
            by_name.insert(r.name.clone(), r);
        }
        let outer = &by_name["outer"];
        let inner = &by_name["inner"];
        let sibling = &by_name["sibling"];
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.depth, 1);
        assert_eq!(sibling.parent, outer.id);
        assert_eq!(sibling.depth, 1);
        // Children complete before the parent.
        assert!(inner.start_us >= outer.start_us);
    }

    #[test]
    fn args_and_exports() {
        let c = SpanCollector::new();
        {
            let mut g = c.start("work", vec![("k".into(), "v\"1\"".into())]);
            g.arg("extra", 7);
        }
        let trace = c.to_chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"name\":\"work\""));
        assert!(trace.contains("\\\"1\\\""), "escaped quote in {trace}");
        assert!(trace.contains("\"extra\":\"7\""));
    }

    #[test]
    fn exporters_json_escape_span_names_and_arg_values() {
        // Regression: a span named `he said "hi"\n` (embedded quotes and
        // newline), or carrying escape-worthy arg keys and values, must
        // not corrupt the export.
        let hostile_name = "he said \"hi\"\n";
        let c = SpanCollector::new();
        {
            let mut g = c.start(hostile_name, vec![("path\\key".into(), "tab\there".into())]);
            g.arg("ctrl", "\u{1}bell");
        }

        let trace = c.to_chrome_trace();
        let parsed = serde_json::parse_value(&trace).expect("chrome trace is valid JSON");
        let events = match parsed.field("traceEvents").expect("traceEvents") {
            serde::Value::Array(evs) => evs,
            other => panic!("traceEvents not an array: {other:?}"),
        };
        assert_eq!(events.len(), 1);
        match events[0].field("name").expect("name") {
            serde::Value::Str(n) => {
                assert_eq!(n, hostile_name, "name round-trips through escaping")
            }
            other => panic!("name not a string: {other:?}"),
        }
        // The raw newline never appears inside the JSON text.
        assert!(trace.contains("\\n"));
        assert!(!trace.contains("hi\"\n"), "unescaped newline leaked");
        assert!(trace.contains("\\u0001"), "control char escaped");

        match events[0]
            .field("args")
            .and_then(|a| a.field("path\\key"))
            .expect("arg")
        {
            serde::Value::Str(v) => assert_eq!(v, "tab\there"),
            other => panic!("arg not a string: {other:?}"),
        }
    }

    #[test]
    fn concurrent_threads_nest_independently() {
        let c = std::sync::Arc::new(SpanCollector::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..5 {
                    let _outer = c.start(format!("t{t}/outer{i}"), vec![]);
                    let _inner = c.start(format!("t{t}/inner{i}"), vec![]);
                }
            }));
        }
        for h in handles {
            h.join().expect("span threads do not panic");
        }
        let records = c.records();
        assert_eq!(records.len(), 40);
        let by_id: std::collections::HashMap<u64, &SpanRecord> =
            records.iter().map(|r| (r.id, r)).collect();
        for r in &records {
            if r.name.contains("inner") {
                // Each inner span's parent is the outer span of the SAME
                // thread and iteration — cross-thread interleaving must
                // never splice another thread's span into the chain.
                assert_eq!(r.depth, 1, "{}", r.name);
                let parent = by_id[&r.parent];
                assert_eq!(parent.thread, r.thread, "{}", r.name);
                assert_eq!(
                    parent.name,
                    r.name.replace("inner", "outer"),
                    "inner span must nest under its own iteration's outer"
                );
            } else {
                assert_eq!(r.depth, 0, "{}", r.name);
                assert_eq!(r.parent, 0, "{}", r.name);
            }
        }
        // All span ids are unique across threads.
        assert_eq!(by_id.len(), records.len());
    }

    #[test]
    fn cross_thread_drop_does_not_corrupt_origin_stack() {
        // A guard started here but dropped on a worker thread (the shape
        // `par::scope` produces when a job outlives its spawner's span)
        // must still unwind *this* thread's stack.
        let c: &'static SpanCollector = Box::leak(Box::new(SpanCollector::new()));
        let moved = c.start("moved", vec![]);
        std::thread::spawn(move || drop(moved))
            .join()
            .expect("dropper thread does not panic");
        {
            let _after = c.start("after", vec![]);
        }
        let records = c.records();
        let after = records
            .iter()
            .find(|r| r.name == "after")
            .expect("span recorded");
        // Pre-fix, "moved"'s id lingered on this thread's stack, so
        // "after" was misfiled as its child at depth 1.
        assert_eq!(after.parent, 0, "stale parent after cross-thread drop");
        assert_eq!(after.depth, 0, "stale depth after cross-thread drop");
    }

    #[test]
    fn out_of_order_drop_on_same_thread_recovers() {
        let c = SpanCollector::new();
        let outer = c.start("outer", vec![]);
        let inner = c.start("inner", vec![]);
        // Parent dropped while the child is still open.
        drop(outer);
        drop(inner);
        {
            let _next = c.start("next", vec![]);
        }
        let records = c.records();
        let next = records.iter().find(|r| r.name == "next").expect("recorded");
        assert_eq!(next.parent, 0);
        assert_eq!(next.depth, 0);
    }

    #[test]
    fn global_span_macro_records() {
        let before = global().len();
        {
            let _g = crate::span!("macro/test", idx = 42, label = "x");
        }
        assert!(global().len() > before);
        let recs = global().records();
        let r = recs
            .iter()
            .rev()
            .find(|r| r.name == "macro/test")
            .expect("span recorded");
        assert!(r.args.contains(&("idx".to_string(), "42".to_string())));
    }
}
