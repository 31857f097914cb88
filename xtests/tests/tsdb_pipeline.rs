//! Cross-crate integration of the sharded TSDB: self-scrape (`obs`) and
//! the engine's configuration space must agree bit-for-bit.

use env2vec_telemetry::tsdb::TsdbConfig;
use env2vec_telemetry::{LabelSet, Sample, TimeSeriesDb};

fn fleet(series: usize) -> Vec<LabelSet> {
    (0..series)
        .map(|s| {
            LabelSet::new()
                .with("env", format!("EM_{s:03}"))
                .with("testbed", format!("Testbed_{}", s % 11))
        })
        .collect()
}

/// Scrape-shaped workload: `ticks` rounds across the whole fleet, with
/// a sprinkle of out-of-order rewrites near the end.
fn ingest(db: &TimeSeriesDb, labels: &[LabelSet], ticks: i64) {
    for t in 0..ticks {
        for (s, ls) in labels.iter().enumerate() {
            let value = ((s * 13 + t as usize * 31) % 97) as f64;
            db.append(
                "cpu_usage",
                ls,
                Sample {
                    timestamp: t * 15,
                    value,
                },
            );
        }
    }
    // Stragglers below the seal line for the first few series.
    for (s, ls) in labels.iter().take(5).enumerate() {
        let value = s as f64 + 0.5;
        db.append(
            "cpu_usage",
            ls,
            Sample {
                timestamp: 7 * 15 + 1,
                value,
            },
        );
    }
}

fn dump(db: &TimeSeriesDb) -> Vec<(LabelSet, Vec<(i64, u64)>)> {
    db.query_range("cpu_usage", &[], i64::MIN, i64::MAX)
        .into_iter()
        .map(|s| {
            (
                s.labels,
                s.samples
                    .iter()
                    .map(|p| (p.timestamp, p.value.to_bits()))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn every_engine_config_returns_identical_results() {
    let labels = fleet(60);
    let configs = [
        TsdbConfig::default(),
        TsdbConfig {
            num_shards: 1,
            compress: false,
            ..TsdbConfig::default()
        },
        TsdbConfig {
            num_shards: 5,
            seal_after: 64,
            compress: true,
        },
    ];
    let mut dumps = Vec::new();
    for config in configs {
        let db = TimeSeriesDb::with_config(config);
        ingest(&db, &labels, 300);
        dumps.push(dump(&db));
    }
    assert_eq!(dumps[0], dumps[1], "compressed vs flat diverged");
    assert_eq!(dumps[0], dumps[2], "shard/seal policy changed results");
}

#[test]
fn self_scrape_flows_through_the_sharded_engine() {
    let registry = env2vec_obs::MetricsRegistry::new();
    let db = TimeSeriesDb::new();
    // Enough scrape rounds that counter series seal and compress.
    let c = registry.counter("xtest_ticks_total");
    for tick in 0..600i64 {
        c.inc();
        env2vec_obs::scrape_into(&registry, &db, tick);
    }
    let stats = db.stats();
    assert!(
        stats.sealed_chunks >= 1,
        "scrape stream should seal chunks, got {} sealed",
        stats.sealed_chunks
    );
    // The scraped counter reads back exactly: 1, 2, 3, ... per tick,
    // most of it decoded out of sealed chunks.
    let series = db.query_range("xtest_ticks_total", &[], i64::MIN, i64::MAX);
    assert_eq!(series.len(), 1, "scraped series must be queryable");
    assert_eq!(series[0].samples.len(), 600);
    for (i, p) in series[0].samples.iter().enumerate() {
        assert_eq!(p.timestamp, i as i64);
        assert_eq!(p.value.to_bits(), ((i + 1) as f64).to_bits());
    }
}
