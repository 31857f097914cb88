//! Cross-crate integration of the TSDB: the `obs` self-scrape stream
//! seals into compressed chunks and reads back bit for bit.

use env2vec_telemetry::TimeSeriesDb;

#[test]
fn self_scrape_flows_through_the_tsdb() {
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
