//! Observability for the Env2Vec pipeline: structured tracing and
//! self-scraped metrics, with zero new external dependencies.
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
//! - **Self-scrape** ([`scrape`]): snapshots of the registry are
//!   persisted into the repo's own [`env2vec_telemetry::TimeSeriesDb`] —
//!   the same TSDB the pipeline uses for VNF telemetry — so the
//!   system's health metrics are queryable with the exact same
//!   `query_instant`/`query_range` + label-matcher API it was built to
//!   test. Dogfooding the TSDB keeps the dependency graph closed: obs
//!   needs nothing the workspace doesn't already have.
//!
//! Plus structured stderr logging ([`logging`], [`info!`]) for CLI
//! `--verbose` runs.
//!
//! Instrumentation is designed to be numerically inert: observers and
//! spans only *read* values the pipeline already computes, never touch
//! RNG streams or reorder float operations, so instrumented runs produce
//! byte-identical models.

pub mod logging;
pub mod metrics;
pub mod prometheus;
pub mod scrape;
pub mod span;
pub mod trace;
pub mod tsdb;

pub use logging::{set_verbose, verbose};
pub use metrics::{
    quantile_from_cumulative, Counter, Exemplar, Gauge, Histogram, LabelSet, MetricSample,
    MetricValue, MetricsRegistry,
};
pub use scrape::{scrape_into, scrape_into_with};
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

/// Scrapes the global registry into `db` at `timestamp`.
pub fn scrape_global(db: &env2vec_telemetry::TimeSeriesDb, timestamp: i64) -> usize {
    scrape::scrape_into(metrics(), db, timestamp)
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
