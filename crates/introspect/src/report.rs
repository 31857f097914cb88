//! The `repro report` text report: latency quantiles for every
//! histogram metric, the training-health alarm summary, and (when a
//! TSDB snapshot is supplied) the storage-engine section.

use env2vec_obs::{quantile_from_cumulative, MetricSample, MetricValue};
use env2vec_telemetry::{AlarmStore, TsdbStats};

/// Renders a `p50/p95/p99` table over every histogram in `samples`
/// (labels shown inline), or a placeholder when there are none.
pub fn quantile_table(samples: &[MetricSample]) -> String {
    let mut rows = Vec::new();
    let mut exemplar_lines = Vec::new();
    for sample in samples {
        if let MetricValue::Histogram {
            bounds,
            cumulative,
            sum,
            count,
            exemplars,
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
            if let Some((bucket, exemplar)) = p99_exemplar(cumulative, exemplars) {
                let le = bounds
                    .get(bucket)
                    .map(|b| format!("{b}"))
                    .unwrap_or_else(|| "+Inf".to_string());
                exemplar_lines.push(format!(
                    "  {:<44} le={} trace_id={:032x} value={:.6}",
                    shown, le, exemplar.trace_id, exemplar.value
                ));
            }
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
    if !exemplar_lines.is_empty() {
        out.push_str("\n  p99 exemplars (sampled traces in the tail bucket):\n");
        for line in exemplar_lines {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// The exemplar naming a concrete trace for the p99 bucket: the first
/// occupied bucket whose cumulative count reaches rank `0.99 × total`,
/// or — when that bucket holds no exemplar — the nearest exemplar-bearing
/// bucket above it (a slower trace is still a truthful "this is what the
/// tail looks like" witness). Returns `(bucket_index, exemplar)`.
fn p99_exemplar(
    cumulative: &[u64],
    exemplars: &[Option<env2vec_obs::Exemplar>],
) -> Option<(usize, env2vec_obs::Exemplar)> {
    if exemplars.is_empty() {
        return None;
    }
    let total = *cumulative.last()? as f64;
    if total <= 0.0 {
        return None;
    }
    let rank = 0.99 * total;
    let p99_bucket = cumulative
        .iter()
        .position(|&c| c as f64 >= rank && c > 0)
        .unwrap_or(cumulative.len() - 1);
    (p99_bucket..exemplars.len()).find_map(|i| exemplars[i].map(|e| (i, e)))
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

/// Renders the TSDB storage-engine section: totals, compression
/// accounting, per-shard occupancy, and the engine's own
/// append/instant/range latency quantiles.
pub fn tsdb_section(stats: &TsdbStats) -> String {
    let mut out = String::from("tsdb storage engine:\n");
    out.push_str(&format!(
        "  series={} samples={} inserts={} queries={} out_of_order_inserts={}\n",
        stats.num_series,
        stats.num_samples,
        stats.inserts,
        stats.queries,
        stats.out_of_order_inserts,
    ));
    out.push_str(&format!(
        "  sealed_chunks={} compressed_bytes={} uncompressed_bytes={} ratio={:.2}x\n",
        stats.sealed_chunks,
        stats.sealed_bytes,
        stats.sealed_uncompressed_bytes,
        stats.compression_ratio(),
    ));
    out.push_str(&format!(
        "  {:>5} {:>8} {:>10}\n",
        "shard", "series", "samples"
    ));
    for (i, shard) in stats.shards.iter().enumerate() {
        out.push_str(&format!(
            "  {i:>5} {:>8} {:>10}\n",
            shard.series, shard.samples
        ));
    }
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
    fn p99_bucket_exemplar_names_a_concrete_trace() {
        use env2vec_obs::TraceContext;
        let reg = MetricsRegistry::new();
        let h = reg.histogram("serve_request_seconds");
        // Bulk of the mass is fast; one slow sampled outlier owns the
        // tail bucket.
        for _ in 0..100 {
            h.observe(0.001);
        }
        let slow = TraceContext::from_seed(99, true);
        h.observe_traced(0.8, Some(slow.trace_id));
        let text = render(&reg.snapshot(), &AlarmStore::new(), None);
        assert!(text.contains("p99 exemplars"), "{text}");
        assert!(
            text.contains(&format!("trace_id={:032x}", slow.trace_id)),
            "p99 exemplar should name the slow trace:\n{text}"
        );
        // A histogram with no traced observations stays silent.
        let reg2 = MetricsRegistry::new();
        reg2.histogram("quiet_seconds").observe(0.5);
        let text2 = render(&reg2.snapshot(), &AlarmStore::new(), None);
        assert!(!text2.contains("p99 exemplars"));
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
    fn tsdb_section_reports_shards_compression_and_latency() {
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
        assert!(text.contains("series=1 samples=400"));
        assert!(text.contains("sealed_chunks=1"));
        assert!(text.contains("ratio="));
        assert!(text.contains("tsdb_append_seconds"));
        assert!(text.contains("tsdb_query_range_seconds"));
        // One row per shard.
        let shard_rows = text
            .lines()
            .filter(|l| {
                l.trim_start()
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit())
            })
            .count();
        assert!(shard_rows >= stats.num_shards);
    }
}
