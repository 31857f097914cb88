//! Compressed, label-indexed in-memory time-series database.
//!
//! The Prometheus stand-in: series are keyed by metric name plus label
//! set, samples are `(timestamp, value)` pairs kept in time order, and
//! queries select by matchers with instant (latest-at-or-before) or range
//! semantics. Interior locking makes one database shareable between the
//! metric collector and the prediction pipeline, mirroring the paper's
//! workflow where both sides talk to the same Prometheus.
//!
//! - **Layout.** One lock over one `metric → label set → series` map.
//!   A query reads only its metric's inner map, and the nested
//!   `BTreeMap`s yield every result in `(metric, labels)` order by
//!   construction (envlint `hash-iter`-clean).
//! - **Compression.** Each series is an open head plus Gorilla-compressed
//!   sealed chunks ([`crate::codec`]); the head seals once it holds 256
//!   samples. Decode is exact to the bit, so sealing changes memory use,
//!   never results.
//! - **Self-observation.** The sample count is maintained on the write
//!   path (`num_samples()` never walks samples), out-of-order writes that
//!   force a sealed-chunk rewrite are counted, and append/instant/range
//!   latencies land in the workspace's shared [`Histogram`], exported as
//!   snapshots through [`TsdbStats`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::chunk::SeriesStore;
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::labels::{LabelMatcher, LabelSet};
use crate::locks::TrackedRwLock;

/// Head size (samples) at which a series' open chunk is sealed and
/// compressed.
const SEAL_AFTER: usize = 256;

/// One observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Unix-style timestamp (the generators use timestep indices).
    pub timestamp: i64,
    /// Observed value.
    pub value: f64,
}

/// A queryable series (metric, labels, samples).
#[derive(Debug, Clone)]
pub struct Series {
    /// Metric name.
    pub metric: String,
    /// Label set identifying the series.
    pub labels: LabelSet,
    /// Samples in ascending time order.
    pub samples: Vec<Sample>,
}

/// Starts a latency measurement.
fn start_timer() -> std::time::Instant {
    // envlint: allow(wall-clock) — self-instrumentation only: the reading feeds latency metrics and never influences stored samples or query results.
    std::time::Instant::now()
}

/// Point-in-time operation counts, sizes, and self-instrumentation for
/// one database (see [`TimeSeriesDb::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TsdbStats {
    /// Samples inserted since creation.
    pub inserts: u64,
    /// Queries served since creation (instant and range).
    pub queries: u64,
    /// Writes that landed inside sealed (compressed) territory and
    /// forced a decode/splice/re-seal cycle — misordered writes made
    /// visible.
    pub out_of_order_inserts: u64,
    /// Current number of distinct series.
    pub num_series: usize,
    /// Current total number of samples (a write-path counter, O(1) to
    /// read).
    pub num_samples: usize,
    /// Sealed (compressed) chunks across all series.
    pub sealed_chunks: usize,
    /// Bytes the sealed chunks occupy compressed.
    pub sealed_bytes: usize,
    /// Bytes the same sealed samples would occupy uncompressed.
    pub sealed_uncompressed_bytes: usize,
    /// Append-path latency distribution, in seconds.
    pub append_latency: HistogramSnapshot,
    /// Instant-query latency distribution, in seconds.
    pub instant_latency: HistogramSnapshot,
    /// Range-query latency distribution, in seconds.
    pub range_latency: HistogramSnapshot,
}

impl TsdbStats {
    /// Sealed-chunk compression ratio (uncompressed / compressed bytes);
    /// 1.0 when nothing is sealed yet.
    pub fn compression_ratio(&self) -> f64 {
        if self.sealed_bytes == 0 {
            1.0
        } else {
            self.sealed_uncompressed_bytes as f64 / self.sealed_bytes as f64
        }
    }
}

/// Every series: metric name → label set → storage.
type SeriesMap = BTreeMap<String, BTreeMap<LabelSet, SeriesStore>>;

/// An in-memory TSDB shareable between writers and readers.
///
/// See the module docs for the storage layout. All query results are
/// ordered by `(metric, labels)`, and decode of compressed chunks is
/// bit-exact.
#[derive(Debug)]
pub struct TimeSeriesDb {
    series: TrackedRwLock<SeriesMap>,
    /// Operation tallies kept as plain atomics so reading them never
    /// takes the data lock. `samples` is the number currently stored.
    samples: AtomicU64,
    inserts: AtomicU64,
    queries: AtomicU64,
    out_of_order: AtomicU64,
    append_latency: Histogram,
    instant_latency: Histogram,
    range_latency: Histogram,
}

impl Default for TimeSeriesDb {
    fn default() -> Self {
        TimeSeriesDb {
            series: TrackedRwLock::new("telemetry.tsdb.series", BTreeMap::new()),
            samples: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            out_of_order: AtomicU64::new(0),
            append_latency: Histogram::durations(),
            instant_latency: Histogram::durations(),
            range_latency: Histogram::durations(),
        }
    }
}

impl TimeSeriesDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` on the series `(metric, labels)` under the write lock,
    /// creating the series first if needed.
    fn write<R>(
        &self,
        metric: &str,
        labels: &LabelSet,
        f: impl FnOnce(&mut SeriesStore) -> R,
    ) -> R {
        let mut map = self.series.write();
        let store = map
            .entry(metric.to_string())
            .or_default()
            .entry(labels.clone())
            .or_default();
        f(store)
    }

    /// Appends a sample to the series `(metric, labels)`, creating it on
    /// first write. Samples may arrive slightly out of order; the series
    /// is kept sorted by timestamp (a duplicate timestamp lands after
    /// its equals).
    pub fn append(&self, metric: &str, labels: &LabelSet, sample: Sample) {
        self.append_series(metric, labels, &[sample]);
    }

    /// Like [`TimeSeriesDb::append`], but if the series already holds a
    /// sample at exactly `sample.timestamp`, that sample's value is
    /// replaced instead of a duplicate point being inserted. This is the
    /// write primitive for epoch-indexed self-telemetry: re-training a
    /// model under the same labels replaces its curve instead of growing
    /// it.
    pub fn upsert(&self, metric: &str, labels: &LabelSet, sample: Sample) {
        let timer = start_timer();
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let outcome = self.write(metric, labels, |store| store.upsert(sample, SEAL_AFTER));
        if outcome.inserted {
            self.samples.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.rewrote_sealed {
            self.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
        self.append_latency.observe(timer.elapsed().as_secs_f64());
    }

    /// Appends a whole vector of samples at once, taking the lock once
    /// for the batch.
    pub fn append_series(&self, metric: &str, labels: &LabelSet, samples: &[Sample]) {
        if samples.is_empty() {
            return;
        }
        let timer = start_timer();
        let count = samples.len() as u64;
        self.inserts.fetch_add(count, Ordering::Relaxed);
        let rewrote = self.write(metric, labels, |store| {
            let mut rewrote = 0u64;
            for &s in samples {
                if store.append(s, SEAL_AFTER).rewrote_sealed {
                    rewrote += 1;
                }
            }
            rewrote
        });
        self.samples.fetch_add(count, Ordering::Relaxed);
        if rewrote > 0 {
            self.out_of_order.fetch_add(rewrote, Ordering::Relaxed);
        }
        self.append_latency.observe(timer.elapsed().as_secs_f64());
    }

    /// Number of distinct series.
    pub fn num_series(&self) -> usize {
        self.series.read().values().map(BTreeMap::len).sum()
    }

    /// Total number of samples across all series. O(1): read from the
    /// write-path counter, never by walking the data.
    pub fn num_samples(&self) -> usize {
        self.samples.load(Ordering::Relaxed) as usize
    }

    /// `f` over every series of `metric` whose labels satisfy
    /// `matchers`, in label order, keeping the `Some` results.
    fn select<T>(
        &self,
        metric: &str,
        matchers: &[LabelMatcher],
        mut f: impl FnMut(&LabelSet, &SeriesStore) -> Option<T>,
    ) -> Vec<T> {
        let map = self.series.read();
        map.get(metric)
            .into_iter()
            .flatten()
            .filter(|(labels, _)| labels.matches(matchers))
            .filter_map(|(labels, store)| f(labels, store))
            .collect()
    }

    /// Instant query: for every matching series, the latest sample at or
    /// before `at`, in label order.
    pub fn query_instant(
        &self,
        metric: &str,
        matchers: &[LabelMatcher],
        at: i64,
    ) -> Vec<(LabelSet, Sample)> {
        let timer = start_timer();
        self.queries.fetch_add(1, Ordering::Relaxed);
        let out = self.select(metric, matchers, |labels, store| {
            store.latest_at_or_before(at).map(|s| (labels.clone(), s))
        });
        self.instant_latency.observe(timer.elapsed().as_secs_f64());
        out
    }

    /// Range query: for every matching series, the samples with
    /// `start <= timestamp <= end`, in label order.
    pub fn query_range(
        &self,
        metric: &str,
        matchers: &[LabelMatcher],
        start: i64,
        end: i64,
    ) -> Vec<Series> {
        let timer = start_timer();
        self.queries.fetch_add(1, Ordering::Relaxed);
        let out = self.select(metric, matchers, |labels, store| {
            let samples = store.samples_between(start, end);
            (!samples.is_empty()).then(|| Series {
                metric: metric.to_string(),
                labels: labels.clone(),
                samples,
            })
        });
        self.range_latency.observe(timer.elapsed().as_secs_f64());
        out
    }

    /// Operation counts, sizes, compression accounting, and latency
    /// distributions, for the observability layer's `tsdb_*` metrics.
    ///
    /// Counter reads are O(1); the sealed-chunk accounting walks series
    /// headers (never samples), O(num_series).
    pub fn stats(&self) -> TsdbStats {
        let mut num_series = 0;
        let mut sealed_chunks = 0;
        let mut sealed_bytes = 0;
        let mut sealed_uncompressed_bytes = 0;
        for store in self.series.read().values().flat_map(BTreeMap::values) {
            num_series += 1;
            sealed_chunks += store.sealed_chunks();
            sealed_bytes += store.compressed_bytes();
            sealed_uncompressed_bytes += store.sealed_uncompressed_bytes();
        }
        TsdbStats {
            inserts: self.inserts.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            out_of_order_inserts: self.out_of_order.load(Ordering::Relaxed),
            num_series,
            num_samples: self.num_samples(),
            sealed_chunks,
            sealed_bytes,
            sealed_uncompressed_bytes,
            append_latency: self.append_latency.snapshot(),
            instant_latency: self.instant_latency.snapshot(),
            range_latency: self.range_latency.snapshot(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn env(id: &str) -> LabelSet {
        LabelSet::new().with("env", id)
    }

    fn filled_db() -> TimeSeriesDb {
        let db = TimeSeriesDb::new();
        for t in 0..10 {
            db.append(
                "cpu_usage",
                &env("EM_1"),
                Sample {
                    timestamp: t,
                    value: t as f64 * 10.0,
                },
            );
            db.append(
                "cpu_usage",
                &env("EM_2"),
                Sample {
                    timestamp: t,
                    value: 1.0,
                },
            );
        }
        db.append(
            "mem_usage",
            &env("EM_1"),
            Sample {
                timestamp: 5,
                value: 64.0,
            },
        );
        db
    }

    #[test]
    fn series_and_sample_counts() {
        let db = filled_db();
        assert_eq!(db.num_series(), 3);
        assert_eq!(db.num_samples(), 21);
    }

    #[test]
    fn upsert_replaces_at_equal_timestamp_and_inserts_otherwise() {
        let db = TimeSeriesDb::new();
        let s = |t: i64, v: f64| Sample {
            timestamp: t,
            value: v,
        };
        db.upsert("cpu_usage", &env("EM_1"), s(5, 1.0));
        db.upsert("cpu_usage", &env("EM_1"), s(5, 2.0));
        assert_eq!(db.num_samples(), 1, "same timestamp must not duplicate");
        assert_eq!(
            db.query_instant("cpu_usage", &[], 5)[0].1.value,
            2.0,
            "latest upsert wins"
        );
        // Different timestamps insert in sorted position.
        db.upsert("cpu_usage", &env("EM_1"), s(3, 0.5));
        db.upsert("cpu_usage", &env("EM_1"), s(7, 3.0));
        assert_eq!(db.num_samples(), 3);
        let range = db.query_range("cpu_usage", &[], 0, 10);
        let ts: Vec<i64> = range[0].samples.iter().map(|x| x.timestamp).collect();
        assert_eq!(ts, vec![3, 5, 7]);
    }

    #[test]
    fn stats_count_operations_and_sizes() {
        let db = filled_db();
        let s = db.stats();
        assert_eq!(s.inserts, 21);
        assert_eq!(s.queries, 0);
        assert_eq!(s.num_series, 3);
        assert_eq!(s.num_samples, 21);
        assert_eq!(s.out_of_order_inserts, 0);
        assert_eq!(s.append_latency.count, 21, "every append is timed");
        db.query_instant("cpu_usage", &[], 5);
        db.query_range("cpu_usage", &[], 0, 9);
        let s = db.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.instant_latency.count, 1);
        assert_eq!(s.range_latency.count, 1);
    }

    #[test]
    fn instant_query_latest_at_or_before() {
        let db = filled_db();
        let res = db.query_instant("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], 7);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].1.value, 70.0);
        // Before the first sample: nothing.
        let res = db.query_instant("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], -1);
        assert!(res.is_empty());
        // Exactly at a timestamp is inclusive.
        let res = db.query_instant("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], 0);
        assert_eq!(res[0].1.value, 0.0);
    }

    #[test]
    fn range_query_bounds_inclusive() {
        let db = filled_db();
        let res = db.query_range("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], 3, 6);
        assert_eq!(res.len(), 1);
        let ts: Vec<i64> = res[0].samples.iter().map(|s| s.timestamp).collect();
        assert_eq!(ts, vec![3, 4, 5, 6]);
        // Empty window yields no series rather than an empty series.
        let res = db.query_range("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], 100, 200);
        assert!(res.is_empty());
    }

    #[test]
    fn matchers_select_series() {
        let db = filled_db();
        let all = db.query_range("cpu_usage", &[], 0, 100);
        assert_eq!(all.len(), 2);
        let not1 = db.query_range(
            "cpu_usage",
            &[LabelMatcher::NotEq("env".into(), "EM_1".into())],
            0,
            100,
        );
        assert_eq!(not1.len(), 1);
        assert_eq!(not1[0].labels.get("env"), Some("EM_2"));
        // A metric name never selects another that it is a prefix of.
        let one = Sample {
            timestamp: 0,
            value: 1.0,
        };
        db.append("cf_a", &env("EM_A"), one);
        db.append("cf_ab", &env("EM_AB"), one);
        for (metric, only) in [("cf_a", "EM_A"), ("cf_ab", "EM_AB")] {
            let got = db.query_range(metric, &[], 0, 0);
            assert_eq!(got.len(), 1, "{metric}");
            assert_eq!(got[0].metric, metric);
            assert_eq!(got[0].labels.get("env"), Some(only));
            assert_eq!(db.query_instant(metric, &[], 0).len(), 1, "{metric}");
        }
    }

    #[test]
    fn out_of_order_appends_are_sorted() {
        let db = TimeSeriesDb::new();
        for &t in &[5i64, 1, 3, 2, 4] {
            db.append(
                "m",
                &env("E"),
                Sample {
                    timestamp: t,
                    value: t as f64,
                },
            );
        }
        let res = db.query_range("m", &[], 0, 10);
        let ts: Vec<i64> = res[0].samples.iter().map(|s| s.timestamp).collect();
        assert_eq!(ts, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn append_series_bulk() {
        let db = TimeSeriesDb::new();
        let samples: Vec<Sample> = (0..100)
            .map(|t| Sample {
                timestamp: t,
                value: t as f64,
            })
            .collect();
        db.append_series("bulk", &env("E"), &samples);
        assert_eq!(db.num_samples(), 100);
        assert_eq!(db.stats().inserts, 100);
    }

    #[test]
    fn concurrent_writers_do_not_lose_samples() {
        use std::sync::Arc;
        let db = Arc::new(TimeSeriesDb::new());
        let mut handles = Vec::new();
        for w in 0..4 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for t in 0..250 {
                    db.append(
                        "concurrent",
                        &env(&format!("E{w}")),
                        Sample {
                            timestamp: t,
                            value: w as f64,
                        },
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.num_samples(), 1000);
        assert_eq!(db.num_series(), 4);
    }

    /// A deterministic mixed workload: 40 series of 600 quantized
    /// samples each, written series by series, then one late write at
    /// t=37 into each of the first ten. `write` receives the series
    /// index with each sample.
    pub(crate) fn mixed_workload(mut write: impl FnMut(usize, Sample)) {
        for series in 0..40 {
            for t in 0..600i64 {
                write(
                    series,
                    Sample {
                        timestamp: t * 15,
                        value: ((series * 31 + t as usize * 7) % 100) as f64,
                    },
                );
            }
        }
        // Late, misordered traffic into sealed territory.
        for series in 0..10 {
            write(
                series,
                Sample {
                    timestamp: 37,
                    value: 999.0,
                },
            );
        }
    }

    #[test]
    fn compression_accounting_and_out_of_order_counter() {
        let db = TimeSeriesDb::new();
        mixed_workload(|series, sample| {
            let labels = LabelSet::new()
                .with("env", format!("EM_{series}"))
                .with("testbed", format!("Testbed_{}", series % 7));
            db.append("cpu_usage", &labels, sample);
        });
        let stats = db.stats();
        assert!(stats.sealed_chunks > 0, "600-sample series must seal");
        assert_eq!(
            stats.out_of_order_inserts, 10,
            "late writes into sealed chunks are counted"
        );
        assert_eq!(stats.num_samples, 40 * 600 + 10);
    }
}
