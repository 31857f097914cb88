//! Label-indexed in-memory time-series database.
//!
//! The Prometheus stand-in: series are keyed by metric name plus label
//! set, samples are `(timestamp, value)` pairs kept in time order, and
//! queries select by matchers with range semantics. Interior locking
//! makes one database shareable between the metric collector and the
//! prediction pipeline, mirroring the paper's workflow where both sides
//! talk to the same Prometheus.
//!
//! - **Layout.** One lock over one `metric → label set → samples` map;
//!   each series is one time-sorted `Vec<Sample>`. A query reads only
//!   its metric's inner map, and the nested `BTreeMap`s yield every
//!   result in `(metric, labels)` order by construction (envlint
//!   `hash-iter`-clean).
//! - **Self-observation.** Insert and query counts are atomics, so
//!   reading them never takes the data lock; append and range latencies
//!   land in the workspace's shared [`Histogram`], exported as snapshots
//!   through [`TsdbStats`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::labels::{LabelMatcher, LabelSet};
use crate::locks::TrackedRwLock;

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
    /// Range queries served since creation.
    pub queries: u64,
    /// Current number of distinct series.
    pub num_series: usize,
    /// Current total number of samples.
    pub num_samples: usize,
    /// Append-path latency distribution, in seconds.
    pub append_latency: HistogramSnapshot,
    /// Range-query latency distribution, in seconds.
    pub range_latency: HistogramSnapshot,
}

/// Every series: metric name → label set → samples in time order.
type SeriesMap = BTreeMap<String, BTreeMap<LabelSet, Vec<Sample>>>;

/// An in-memory TSDB shareable between writers and readers.
///
/// See the module docs for the storage layout. All query results are
/// ordered by `(metric, labels)`.
#[derive(Debug)]
pub struct TimeSeriesDb {
    series: TrackedRwLock<SeriesMap>,
    inserts: AtomicU64,
    queries: AtomicU64,
    append_latency: Histogram,
    range_latency: Histogram,
}

impl Default for TimeSeriesDb {
    fn default() -> Self {
        TimeSeriesDb {
            series: TrackedRwLock::new("telemetry.tsdb.series", BTreeMap::new()),
            inserts: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            append_latency: Histogram::durations(),
            range_latency: Histogram::durations(),
        }
    }
}

impl TimeSeriesDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` on the samples of `(metric, labels)` under the write
    /// lock, creating the series first if needed, and times the write.
    fn write(&self, metric: &str, labels: &LabelSet, f: impl FnOnce(&mut Vec<Sample>)) {
        let timer = start_timer();
        f(self
            .series
            .write()
            .entry(metric.to_string())
            .or_default()
            .entry(labels.clone())
            .or_default());
        self.append_latency.observe(timer.elapsed().as_secs_f64());
    }

    /// Appends a sample to the series `(metric, labels)`, creating it on
    /// first write. Samples may arrive slightly out of order; the series
    /// is kept sorted by timestamp (a duplicate timestamp lands after
    /// its equals).
    pub fn append(&self, metric: &str, labels: &LabelSet, sample: Sample) {
        self.append_series(metric, labels, &[sample]);
    }

    /// Like [`TimeSeriesDb::append`], but if the series already holds a
    /// sample at exactly `sample.timestamp`, the first such sample's
    /// value is replaced instead of a duplicate point being inserted.
    /// This is the write primitive for epoch-indexed self-telemetry:
    /// re-training a model under the same labels replaces its curve
    /// instead of growing it.
    pub fn upsert(&self, metric: &str, labels: &LabelSet, sample: Sample) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.write(metric, labels, |stored| {
            let pos = stored.partition_point(|s| s.timestamp < sample.timestamp);
            match stored.get_mut(pos) {
                Some(existing) if existing.timestamp == sample.timestamp => {
                    existing.value = sample.value;
                }
                _ => stored.insert(pos, sample),
            }
        });
    }

    /// Appends a whole vector of samples at once, taking the lock once
    /// for the batch. Each sample is pushed, or inserted after any equal
    /// timestamps when it is older than the newest stored sample.
    pub fn append_series(&self, metric: &str, labels: &LabelSet, samples: &[Sample]) {
        if samples.is_empty() {
            return;
        }
        self.inserts
            .fetch_add(samples.len() as u64, Ordering::Relaxed);
        self.write(metric, labels, |stored| {
            stored.reserve(samples.len());
            for &sample in samples {
                match stored.last() {
                    Some(last) if last.timestamp > sample.timestamp => {
                        let pos = stored.partition_point(|s| s.timestamp <= sample.timestamp);
                        stored.insert(pos, sample);
                    }
                    _ => stored.push(sample),
                }
            }
        });
    }

    /// Number of distinct series.
    pub fn num_series(&self) -> usize {
        self.series.read().values().map(BTreeMap::len).sum()
    }

    /// Total number of samples across all series.
    pub fn num_samples(&self) -> usize {
        self.series
            .read()
            .values()
            .flat_map(BTreeMap::values)
            .map(Vec::len)
            .sum()
    }

    /// Range query: for every matching series, the samples with
    /// `start <= timestamp <= end`, in label order. A series with no
    /// sample in the range is left out, so an inverted range
    /// (`start > end`) matches nothing.
    pub fn query_range(
        &self,
        metric: &str,
        matchers: &[LabelMatcher],
        start: i64,
        end: i64,
    ) -> Vec<Series> {
        let timer = start_timer();
        self.queries.fetch_add(1, Ordering::Relaxed);
        let out = self
            .series
            .read()
            .get(metric)
            .into_iter()
            .flatten()
            .filter(|(labels, _)| labels.matches(matchers))
            .filter_map(|(labels, samples)| {
                let lo = samples.partition_point(|s| s.timestamp < start);
                let hi = samples.partition_point(|s| s.timestamp <= end);
                (lo < hi).then(|| Series {
                    metric: metric.to_string(),
                    labels: labels.clone(),
                    samples: samples[lo..hi].to_vec(),
                })
            })
            .collect();
        self.range_latency.observe(timer.elapsed().as_secs_f64());
        out
    }

    /// Operation counts, sizes and latency distributions, for the
    /// observability layer's `tsdb_*` metrics.
    pub fn stats(&self) -> TsdbStats {
        TsdbStats {
            inserts: self.inserts.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            num_series: self.num_series(),
            num_samples: self.num_samples(),
            append_latency: self.append_latency.snapshot(),
            range_latency: self.range_latency.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(id: &str) -> LabelSet {
        LabelSet::new().with("env", id)
    }

    fn s(timestamp: i64, value: f64) -> Sample {
        Sample { timestamp, value }
    }

    /// Every sample of the one series of metric `m`, in stored order.
    fn all_samples(db: &TimeSeriesDb) -> Vec<Sample> {
        let mut series = db.query_range("m", &[], i64::MIN, i64::MAX);
        assert_eq!(series.len(), 1);
        series.remove(0).samples
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
        db.upsert("cpu_usage", &env("EM_1"), s(5, 1.0));
        db.upsert("cpu_usage", &env("EM_1"), s(5, 2.0));
        assert_eq!(db.num_samples(), 1, "same timestamp must not duplicate");
        assert_eq!(
            db.query_range("cpu_usage", &[], 5, 5)[0].samples,
            vec![s(5, 2.0)],
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
        assert_eq!(s.append_latency.count, 21, "every append is timed");
        db.query_range("cpu_usage", &[], 5, 5);
        db.query_range("cpu_usage", &[], 0, 9);
        let s = db.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.range_latency.count, 2);
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
    fn inverted_range_matches_nothing() {
        let db = filled_db();
        for (start, end) in [(6, 3), (9, 0), (i64::MAX, i64::MIN)] {
            assert!(
                db.query_range("cpu_usage", &[], start, end).is_empty(),
                "[{start}, {end}]"
            );
        }
    }

    #[test]
    fn upsert_replaces_the_first_of_appended_duplicates() {
        let db = TimeSeriesDb::new();
        for v in [1.0, 2.0, 3.0] {
            db.append("m", &env("E"), s(10, v));
        }
        db.append("m", &env("E"), s(20, 4.0));
        db.upsert("m", &env("E"), s(10, 9.0));
        assert_eq!(
            all_samples(&db),
            vec![s(10, 9.0), s(10, 2.0), s(10, 3.0), s(20, 4.0)],
            "duplicates keep arrival order and upsert rewrites only the first"
        );
    }

    #[test]
    fn append_older_than_every_sample_lands_first() {
        let db = TimeSeriesDb::new();
        for t in 0..8 {
            db.append("m", &env("E"), s(t, t as f64));
        }
        db.append("m", &env("E"), s(-5, 7.0));
        let ts: Vec<i64> = all_samples(&db).iter().map(|x| x.timestamp).collect();
        assert_eq!(ts, vec![-5, 0, 1, 2, 3, 4, 5, 6, 7]);
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
            assert_eq!(got[0].samples, vec![one], "{metric}");
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
}
