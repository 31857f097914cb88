//! The `repro report` text report: latency quantiles for every
//! histogram metric, the training-health alarm summary, and (when a
//! TSDB snapshot is supplied) the storage-engine section.

use env2vec_obs::{quantile_from_cumulative, MetricSample, MetricValue};
use env2vec_telemetry::{AlarmStore, TsdbStats};

/// Renders a `p50/p95/p99` table over every histogram in `samples`
/// (labels shown inline), or a placeholder when there are none.
pub fn quantile_table(samples: &[MetricSample]) -> String {
    let mut rows = Vec::new();
    for sample in samples {
        if let MetricValue::Histogram {
            bounds,
            cumulative,
            sum,
            count,
            ..
        } = &sample.value
        {
            if *count == 0 {
                continue;
            }
            let labels: Vec<String> = sample
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let shown = if labels.is_empty() {
                sample.name.clone()
            } else {
                format!("{}{{{}}}", sample.name, labels.join(","))
            };
            rows.push(format!(
                "  {:<44} {:>8} {:>10.6} {:>10.6} {:>10.6} {:>10.4}",
                shown,
                count,
                quantile_from_cumulative(bounds, cumulative, 0.50),
                quantile_from_cumulative(bounds, cumulative, 0.95),
                quantile_from_cumulative(bounds, cumulative, 0.99),
                sum,
            ));
        }
    }
    if rows.is_empty() {
        return "  (no histogram metrics recorded)\n".to_string();
    }
    let mut out = format!(
        "  {:<44} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
        "histogram", "count", "p50", "p95", "p99", "sum"
    );
    for row in rows {
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// Renders the alarm store contents: one line per alarm, or an
/// all-clear.
pub fn alarm_summary(alarms: &AlarmStore) -> String {
    let all = alarms.all();
    if all.is_empty() {
        return "  no alarms — training health nominal\n".to_string();
    }
    let mut out = String::new();
    for a in all {
        let model = a.env.get("model").unwrap_or("-");
        out.push_str(&format!(
            "  ALARM #{:<3} model={:<16} {:<24} [{} .. {}]  {}\n",
            a.id, model, a.metric, a.start, a.end, a.message
        ));
    }
    out
}

/// Renders the TSDB storage-engine section: totals and the engine's own
/// append/range latency quantiles.
pub fn tsdb_section(stats: &TsdbStats) -> String {
    let mut out = String::from("tsdb storage engine:\n");
    out.push_str(&format!(
        "  series={} samples={} inserts={} queries={}\n",
        stats.num_series, stats.num_samples, stats.inserts, stats.queries,
    ));
    out.push_str("\n  tsdb op latency quantiles (seconds):\n");
    out.push_str(&quantile_table(&env2vec_obs::tsdb::latency_samples(stats)));
    out
}

/// The full introspection report: quantiles + alarms + (when a TSDB
/// snapshot is supplied) the storage-engine section.
pub fn render(samples: &[MetricSample], alarms: &AlarmStore, tsdb: Option<&TsdbStats>) -> String {
    let mut out = format!(
        "=== introspection report ===\n\nlatency quantiles (seconds):\n{}\ntraining health:\n{}",
        quantile_table(samples),
        alarm_summary(alarms),
    );
    if let Some(stats) = tsdb {
        out.push('\n');
        out.push_str(&tsdb_section(stats));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use env2vec_obs::MetricsRegistry;
    use env2vec_telemetry::alarms::NewAlarm;
    use env2vec_telemetry::LabelSet;

    #[test]
    fn report_shows_quantiles_and_alarms() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("train_epoch_seconds");
        for i in 1..=100 {
            h.observe(i as f64 / 100.0);
        }
        let alarms = AlarmStore::new();
        alarms.push(NewAlarm {
            env: LabelSet::new()
                .with("env", crate::INTROSPECT_ENV)
                .with("model", "env2vec_pooled"),
            metric: "train_grad_norm".to_string(),
            start: 3,
            end: 5,
            gamma: 1e4,
            predicted: 1e4,
            observed: 5e6,
            message: "self-monitor[grad-blowup]: test".to_string(),
        });
        let text = render(&reg.snapshot(), &alarms, None);
        assert!(text.contains("train_epoch_seconds"));
        assert!(text.contains("p95"));
        assert!(text.contains("ALARM #0"));
        assert!(text.contains("model=env2vec_pooled"));
        // p50 of a uniform 0.01..=1.00 spread sits inside the data range.
        assert!(text.contains("introspection report"));
    }

    #[test]
    fn empty_inputs_render_placeholders() {
        let reg = MetricsRegistry::new();
        reg.counter("not_a_histogram").inc();
        let text = render(&reg.snapshot(), &AlarmStore::new(), None);
        assert!(text.contains("no histogram metrics recorded"));
        assert!(text.contains("no alarms"));
        assert!(!text.contains("tsdb storage engine"));
    }

    #[test]
    fn tsdb_section_reports_totals_and_latency() {
        use env2vec_telemetry::{Sample, TimeSeriesDb};
        let db = TimeSeriesDb::new();
        for t in 0..400i64 {
            db.append(
                "cpu_usage",
                &LabelSet::new().with("env", "EM_1"),
                Sample {
                    timestamp: t,
                    value: (t % 8) as f64,
                },
            );
        }
        db.query_range("cpu_usage", &[], 0, 400);
        let stats = db.stats();
        let text = render(&[], &AlarmStore::new(), Some(&stats));
        assert!(text.contains("tsdb storage engine:"));
        assert!(text.contains("series=1 samples=400 inserts=400 queries=1\n"));
        assert!(!text.contains("sealed"), "no sealed-chunk accounting");
        assert!(text.contains("tsdb_append_seconds"));
        assert!(text.contains("tsdb_query_range_seconds"));
        assert!(!text.contains("shard"), "one map, no shard table");
    }
}
