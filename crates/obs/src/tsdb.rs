//! Re-publishing the TSDB's self-instrumentation as regular metrics.
//!
//! The TSDB sits below this crate (obs depends on telemetry), so it
//! keeps its counters and latency [`crate::Histogram`]s itself and
//! exports them as [`env2vec_telemetry::TsdbStats`] snapshots. This
//! module turns a snapshot into ordinary gauges in a [`MetricsRegistry`]
//! and into [`MetricSample`] histograms, for Prometheus exposition and
//! the report's quantile tables.

use env2vec_telemetry::histogram::HistogramSnapshot;
use env2vec_telemetry::tsdb::TsdbStats;

use crate::metrics::{LabelSet, MetricSample, MetricValue, MetricsRegistry};

/// Publishes the snapshot's counters and sizes as gauges in
/// `registry` (names prefixed `tsdb_`). Call just before rendering the
/// registry, so the gauges read the TSDB as it is then.
pub fn publish_stats(registry: &MetricsRegistry, stats: &TsdbStats) {
    registry.gauge("tsdb_inserts").set(stats.inserts as f64);
    registry.gauge("tsdb_queries").set(stats.queries as f64);
    registry.gauge("tsdb_series").set(stats.num_series as f64);
    registry.gauge("tsdb_samples").set(stats.num_samples as f64);
}

fn histogram_sample(name: &str, snap: &HistogramSnapshot) -> MetricSample {
    MetricSample {
        name: name.to_string(),
        labels: LabelSet::new(),
        value: MetricValue::Histogram {
            bounds: snap.bounds.clone(),
            cumulative: snap.cumulative.clone(),
            sum: snap.sum,
            count: snap.count,
            exemplars: Vec::new(),
        },
    }
}

/// The TSDB's append/range latency distributions as histogram samples
/// (name-sorted), ready for `prometheus::render_snapshot` or the
/// report's quantile table.
pub fn latency_samples(stats: &TsdbStats) -> Vec<MetricSample> {
    vec![
        histogram_sample("tsdb_append_seconds", &stats.append_latency),
        histogram_sample("tsdb_query_range_seconds", &stats.range_latency),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use env2vec_telemetry::{Sample, TimeSeriesDb};

    fn exercised_db() -> TimeSeriesDb {
        let db = TimeSeriesDb::new();
        for t in 0..300 {
            db.append(
                "cpu_usage",
                &LabelSet::new().with("env", "EM_1"),
                Sample {
                    timestamp: t,
                    value: (t % 10) as f64,
                },
            );
        }
        db.query_range("cpu_usage", &[], 150, 150);
        db.query_range("cpu_usage", &[], 0, 299);
        db
    }

    #[test]
    fn gauges_mirror_the_snapshot() {
        let db = exercised_db();
        let reg = MetricsRegistry::new();
        publish_stats(&reg, &db.stats());
        assert_eq!(reg.gauge("tsdb_inserts").get(), 300.0);
        assert_eq!(reg.gauge("tsdb_series").get(), 1.0);
        assert_eq!(reg.gauge("tsdb_samples").get(), 300.0);
        assert_eq!(reg.gauge("tsdb_queries").get(), 2.0);
        assert_eq!(reg.len(), 4);
    }

    #[test]
    fn latency_samples_are_report_ready_histograms() {
        let db = exercised_db();
        let samples = latency_samples(&db.stats());
        assert_eq!(samples.len(), 2);
        let names: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "render_snapshot needs name order");
        for s in &samples {
            match &s.value {
                MetricValue::Histogram {
                    bounds, cumulative, ..
                } => {
                    assert_eq!(bounds.len(), crate::metrics::DURATION_BUCKETS.len());
                    assert_eq!(cumulative.len(), bounds.len() + 1);
                }
                other => panic!("expected histogram, got {other:?}"),
            }
        }
        let append = &samples[0];
        if let MetricValue::Histogram { count, .. } = append.value {
            assert_eq!(count, 300, "every append observed");
        }
    }
}
