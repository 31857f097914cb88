//! Observability for the Env2Vec pipeline: structured tracing and
//! metrics, with zero new external dependencies.
//!
//! Three pieces:
//!
//! - **Spans** ([`span`] module, [`span!`] macro): hierarchical
//!   wall-time regions with per-thread nesting, exportable as Chrome
//!   trace format (open in `chrome://tracing` / Perfetto).
//! - **Metrics** ([`metrics`]): counters, gauges, and log-bucket
//!   histograms in a label-aware registry, Prometheus-style. The
//!   histogram type is `env2vec_telemetry`'s, re-exported. Histograms
//!   optionally carry OpenMetrics **exemplars** — the last sampled trace
//!   id per bucket — linking a latency bucket to a concrete request.
//! - **Trace context** ([`trace`]): W3C `traceparent` parse/format and
//!   deterministic id generation for request-scoped tracing across the
//!   serve stack.
//!
//! [`prometheus`] renders a registry in the text exposition format
//! (`repro --metrics-out`, the server's `/metrics`), and [`tsdb`]
//! republishes the TSDB's own statistics as metrics. Plus structured
//! stderr logging ([`logging`], [`info!`]) for CLI `--verbose` runs.
//!
//! Instrumentation is designed to be numerically inert: observers and
//! spans only *read* values the pipeline already computes, never touch
//! RNG streams or reorder float operations, so instrumented runs produce
//! byte-identical models.

pub mod logging;
pub mod metrics;
pub mod prometheus;
pub mod span;
pub mod trace;
pub mod tsdb;

pub use logging::{set_verbose, verbose};
pub use metrics::{
    quantile_from_cumulative, Counter, Exemplar, Gauge, Histogram, LabelSet, MetricSample,
    MetricValue, MetricsRegistry,
};
pub use span::{SpanCollector, SpanGuard, SpanRecord};
pub use trace::TraceContext;

/// The process-wide metrics registry.
pub fn metrics() -> &'static MetricsRegistry {
    metrics::global()
}

/// The process-wide span collector.
pub fn collector() -> &'static SpanCollector {
    span::global()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_accessors_are_stable() {
        let a = metrics() as *const _;
        let b = metrics() as *const _;
        assert_eq!(a, b);
        let c = collector() as *const _;
        let d = collector() as *const _;
        assert_eq!(c, d);
    }
}
