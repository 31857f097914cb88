//! Tail-sampled trace retention for the serve path.
//!
//! Every request produces a [`TraceRecord`]; the [`TraceBuffer`] decides
//! which records are worth keeping after the fact (tail sampling — the
//! decision is made once the outcome is known, unlike head sampling
//! which commits before the request runs):
//!
//! - **always kept**: latency over the 10 ms slow threshold, error
//!   status (>= 400), or an explicitly sampled trace context
//!   (`sampled=1` on the incoming `traceparent`);
//! - **head sampled**: a deterministic 1-in-N rule keyed on the trace
//!   id ([`env2vec_obs::TraceContext::keep_1_in_n`] — no RNG, so a
//!   replayed storm retains the same traces).
//!
//! Retention is a ring of 512 records: the newest evict the oldest,
//! bounding memory under any storm. Retained traces are served back over
//! `GET /trace/{id}` and `GET /traces/slow` as JSON.

use std::collections::VecDeque;
use std::time::Duration;

use env2vec_obs::TraceContext;
use env2vec_telemetry::locks::TrackedMutex;
use serde::Serialize;

/// Ring capacity; the newest records evict the oldest.
const CAPACITY: usize = 512;

/// Latency at which a trace is always kept (and listed by
/// `/traces/slow`).
const SLOW_THRESHOLD: Duration = Duration::from_millis(10);

/// One completed request, as retained by the [`TraceBuffer`].
#[derive(Debug, Clone, Serialize)]
pub struct TraceRecord {
    /// 32-char lowercase hex trace id (the `GET /trace/{id}` key).
    pub trace_id: String,
    /// 16-char lowercase hex span id of the request's trace context.
    pub span_id: String,
    /// Whether the incoming `traceparent` carried `sampled=1`.
    pub sampled: bool,
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Response status code.
    pub status: u64,
    /// End-to-end handler latency in seconds.
    pub total_seconds: f64,
    /// Time the request's rows sat in the batch queue, in seconds.
    pub batch_wait_seconds: f64,
    /// Total rows in the batch that carried this request.
    pub batch_rows: u64,
    /// Number of requests coalesced into that batch.
    pub batch_requests: u64,
    /// `"leader"` / `"follower"` for batched predictions, `"-"` for
    /// routes that never reached the batcher.
    pub batch_role: String,
    /// Model version that served the prediction (0 when none did).
    pub model_version: u64,
}

/// `GET /traces/slow` response body.
#[derive(Debug, Clone, Serialize)]
pub struct SlowTraces {
    /// Traces currently retained in the ring.
    pub retained: u64,
    /// Retained traces over the slow threshold, slowest first.
    pub traces: Vec<TraceRecord>,
}

/// Retention knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceBufferConfig {
    /// Deterministic head sampling: keep 1 in N by trace id (0 = off).
    pub head_sample_every: u64,
}

/// Fixed-size ring of retained traces.
pub struct TraceBuffer {
    config: TraceBufferConfig,
    ring: TrackedMutex<VecDeque<TraceRecord>>,
}

impl TraceBuffer {
    /// An empty buffer with the given retention rules.
    pub fn new(config: TraceBufferConfig) -> Self {
        TraceBuffer {
            config,
            ring: TrackedMutex::new("serve.trace.ring", VecDeque::with_capacity(CAPACITY)),
        }
    }

    /// Applies the retention rules to one completed request. Returns
    /// whether the record was kept.
    pub fn record(&self, ctx: &TraceContext, record: TraceRecord) -> bool {
        let metrics = env2vec_obs::metrics();
        metrics.counter("serve_traces_observed_total").inc();
        let slow = record.total_seconds >= SLOW_THRESHOLD.as_secs_f64();
        let keep = slow
            || record.status >= 400
            || ctx.sampled
            || (self.config.head_sample_every > 0
                && ctx.keep_1_in_n(self.config.head_sample_every));
        if !keep {
            return false;
        }
        let retained = {
            let mut ring = self.ring.lock();
            while ring.len() >= CAPACITY {
                ring.pop_front();
            }
            ring.push_back(record);
            ring.len()
        };
        metrics.counter("serve_traces_retained_total").inc();
        metrics.gauge("serve_traces_retained").set(retained as f64);
        true
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained trace with the given 32-char lowercase hex id (the
    /// newest record wins if an id somehow repeats).
    pub fn get(&self, trace_id_hex: &str) -> Option<TraceRecord> {
        self.ring
            .lock()
            .iter()
            .rev()
            .find(|r| r.trace_id == trace_id_hex)
            .cloned()
    }

    /// Retained traces over the slow threshold, slowest first, plus the
    /// total retained count.
    pub fn slow(&self) -> SlowTraces {
        let ring = self.ring.lock();
        let threshold = SLOW_THRESHOLD.as_secs_f64();
        let mut traces: Vec<TraceRecord> = ring
            .iter()
            .filter(|r| r.total_seconds >= threshold)
            .cloned()
            .collect();
        drop(ring);
        traces.sort_by(|a, b| b.total_seconds.total_cmp(&a.total_seconds));
        SlowTraces {
            retained: self.len() as u64,
            traces,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ctx: &TraceContext, status: u64, total_seconds: f64) -> TraceRecord {
        TraceRecord {
            trace_id: ctx.trace_id_hex(),
            span_id: format!("{:016x}", ctx.span_id),
            sampled: ctx.sampled,
            method: "POST".to_string(),
            path: "/predict".to_string(),
            status,
            total_seconds,
            batch_wait_seconds: 0.0,
            batch_rows: 1,
            batch_requests: 1,
            batch_role: "leader".to_string(),
            model_version: 1,
        }
    }

    #[test]
    fn always_keep_rules_retain_slow_error_and_sampled() {
        let buf = TraceBuffer::new(TraceBufferConfig::default());
        // Fast, OK, unsampled, head sampling off: dropped.
        let dull = TraceContext::from_seed(1, false);
        assert!(!buf.record(&dull, record(&dull, 200, 0.001)));
        // Slow: kept.
        let slow = TraceContext::from_seed(2, false);
        assert!(buf.record(&slow, record(&slow, 200, 0.5)));
        // Error status: kept.
        let err = TraceContext::from_seed(3, false);
        assert!(buf.record(&err, record(&err, 503, 0.001)));
        // Explicit sampled=1: kept.
        let sampled = TraceContext::from_seed(4, true);
        assert!(buf.record(&sampled, record(&sampled, 200, 0.001)));
        assert_eq!(buf.len(), 3);
        // Lookup round-trips by hex id.
        let hit = buf.get(&sampled.trace_id_hex()).expect("retained");
        assert_eq!(hit.status, 200);
        assert!(hit.sampled);
        assert!(buf.get(&dull.trace_id_hex()).is_none());
    }

    #[test]
    fn head_sampling_is_deterministic() {
        let config = TraceBufferConfig {
            head_sample_every: 8,
        };
        let buf = TraceBuffer::new(config);
        let mut kept = Vec::new();
        for seed in 0..256u64 {
            let ctx = TraceContext::from_seed(seed, false);
            if buf.record(&ctx, record(&ctx, 200, 0.0001)) {
                kept.push(seed);
            }
        }
        assert!(!kept.is_empty(), "1-in-8 over 256 ids keeps some");
        // Replaying the identical ids keeps the identical subset.
        let buf2 = TraceBuffer::new(config);
        let replay: Vec<u64> = (0..256u64)
            .filter(|&seed| {
                let ctx = TraceContext::from_seed(seed, false);
                buf2.record(&ctx, record(&ctx, 200, 0.0001))
            })
            .collect();
        assert_eq!(kept, replay);
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let buf = TraceBuffer::new(TraceBufferConfig::default());
        let ids: Vec<TraceContext> = (0..CAPACITY as u64 + 2)
            .map(|s| TraceContext::from_seed(s, true))
            .collect();
        for ctx in &ids {
            buf.record(ctx, record(ctx, 200, 0.001));
        }
        assert_eq!(buf.len(), CAPACITY);
        assert!(buf.get(&ids[0].trace_id_hex()).is_none(), "evicted");
        assert!(buf.get(&ids[1].trace_id_hex()).is_none(), "evicted");
        assert!(
            buf.get(&ids[2].trace_id_hex()).is_some(),
            "oldest survivor kept"
        );
        let newest = ids.last().expect("ids");
        assert!(buf.get(&newest.trace_id_hex()).is_some(), "newest kept");
    }

    #[test]
    fn slow_listing_sorts_and_serialises() {
        let buf = TraceBuffer::new(TraceBufferConfig::default());
        let a = TraceContext::from_seed(10, true);
        let b = TraceContext::from_seed(11, true);
        buf.record(&a, record(&a, 200, 0.05));
        buf.record(&b, record(&b, 200, 0.2));
        let fast = TraceContext::from_seed(12, true);
        buf.record(&fast, record(&fast, 200, 0.001));
        let slow = buf.slow();
        assert_eq!(slow.retained, 3);
        assert_eq!(slow.traces.len(), 2, "fast trace is retained but not slow");
        assert!(slow.traces[0].total_seconds >= slow.traces[1].total_seconds);
        let json = serde_json::to_string(&slow).expect("serialise");
        assert!(json.contains(&a.trace_id_hex()), "{json}");
        assert!(json.contains("\"retained\":3"), "{json}");
    }
}
