//! Sharded, compressed, label-indexed in-memory time-series database.
//!
//! The Prometheus stand-in: series are keyed by metric name plus label
//! set, samples are `(timestamp, value)` pairs kept in time order, and
//! queries select by matchers with instant (latest-at-or-before) or range
//! semantics. Interior locking makes one database shareable between the
//! metric collector and the prediction pipeline, mirroring the paper's
//! workflow where both sides talk to the same Prometheus.
//!
//! At fleet scale ("millions of samples, 100k testbeds") a single locked
//! map stops being a database and starts being a queue, so storage is
//! organised for sustained concurrent ingest:
//!
//! - **Sharding.** Series are distributed over [`TsdbConfig::num_shards`]
//!   independently-locked shards by an FNV-1a hash of `(metric, labels)`
//!   — a fixed hash function, so shard assignment is deterministic across
//!   processes (no per-process `RandomState`). Within a shard, series
//!   live in a `BTreeMap`; cross-shard query results are merged and
//!   sorted by key, so every public result is in `(metric, labels)` order
//!   regardless of shard count (envlint `hash-iter`-clean).
//! - **Compression.** Each series is a [`crate::chunk::SeriesStore`]: an
//!   open head plus Gorilla-compressed sealed chunks
//!   ([`crate::codec`]). Decode is exact to the bit, so turning
//!   compression off ([`TsdbConfig::compress`]) changes memory use, never
//!   results.
//! - **Self-observation.** Sample/series counts are maintained by
//!   per-shard atomics on the write path (`stats()` never walks samples),
//!   out-of-order writes that force a sealed-chunk rewrite are counted,
//!   and append/instant/range latencies land in the workspace's shared
//!   [`Histogram`], exported as snapshots through [`TsdbStats`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::chunk::SeriesStore;
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

/// Identity of one series.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    metric: String,
    labels: LabelSet,
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

/// Storage policy for one database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsdbConfig {
    /// Number of independently-locked shards (clamped to at least 1).
    pub num_shards: usize,
    /// Head size (samples) at which a series' open chunk is sealed and
    /// compressed.
    pub seal_after: usize,
    /// Whether to seal at all. `false` keeps every series as a flat
    /// vector — the uncompressed reference configuration used by the
    /// golden tests.
    pub compress: bool,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        TsdbConfig {
            num_shards: 16,
            seal_after: 256,
            compress: true,
        }
    }
}

/// Starts a latency measurement.
fn start_timer() -> std::time::Instant {
    // envlint: allow(wall-clock) — self-instrumentation only: the reading feeds latency metrics and never influences stored samples or query results.
    std::time::Instant::now()
}

/// Occupancy of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Distinct series in the shard.
    pub series: usize,
    /// Samples in the shard.
    pub samples: u64,
}

/// Point-in-time operation counts, sizes, and self-instrumentation for
/// one database (see [`TimeSeriesDb::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TsdbStats {
    /// Samples inserted since creation.
    pub inserts: u64,
    /// Queries served since creation (instant, range, and step).
    pub queries: u64,
    /// Writes that landed inside sealed (compressed) territory and
    /// forced a decode/splice/re-seal cycle — misordered scraper traffic
    /// made visible.
    pub out_of_order_inserts: u64,
    /// Current number of distinct series.
    pub num_series: usize,
    /// Current total number of samples (maintained by write-path
    /// counters, O(shards) to read).
    pub num_samples: usize,
    /// Shard count of the database.
    pub num_shards: usize,
    /// Sealed (compressed) chunks across all series.
    pub sealed_chunks: usize,
    /// Bytes the sealed chunks occupy compressed.
    pub sealed_bytes: usize,
    /// Bytes the same sealed samples would occupy uncompressed.
    pub sealed_uncompressed_bytes: usize,
    /// Per-shard occupancy, indexed by shard id.
    pub shards: Vec<ShardStats>,
    /// Append-path latency distribution, in seconds.
    pub append_latency: HistogramSnapshot,
    /// Instant-query latency distribution, in seconds.
    pub instant_latency: HistogramSnapshot,
    /// Range-query latency distribution (range and step queries), in
    /// seconds.
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

/// One lock domain: a slice of the keyspace plus its write-path counter.
#[derive(Debug)]
struct Shard {
    series: TrackedRwLock<BTreeMap<SeriesKey, SeriesStore>>,
    /// Samples currently stored in this shard, maintained on the write
    /// path so `num_samples` never walks the data.
    samples: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            // All shards share one sanitizer name; cycle detection runs
            // on per-instance ids, so cross-shard nesting is still
            // caught — the name only labels the report.
            series: TrackedRwLock::new("telemetry.tsdb.shard.series", BTreeMap::new()),
            samples: AtomicU64::new(0),
        }
    }
}

/// An in-memory TSDB safe for concurrent writers and readers.
///
/// See the module docs for the storage layout. All query results are
/// ordered by `(metric, labels)` independent of shard count, and decode
/// of compressed chunks is bit-exact, so results are identical across
/// any `TsdbConfig`.
#[derive(Debug)]
pub struct TimeSeriesDb {
    config: TsdbConfig,
    shards: Vec<Shard>,
    /// Operation tallies kept as plain atomics so reading them never
    /// contends with the data locks.
    inserts: AtomicU64,
    queries: AtomicU64,
    out_of_order: AtomicU64,
    append_latency: Histogram,
    instant_latency: Histogram,
    range_latency: Histogram,
}

impl Default for TimeSeriesDb {
    fn default() -> Self {
        Self::with_config(TsdbConfig::default())
    }
}

/// FNV-1a 64-bit step over a byte string.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl TimeSeriesDb {
    /// Creates an empty database with the default config (16 shards,
    /// compression on, seal at 256 samples).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty database with an explicit storage policy.
    pub fn with_config(config: TsdbConfig) -> Self {
        let config = TsdbConfig {
            num_shards: config.num_shards.max(1),
            ..config
        };
        TimeSeriesDb {
            shards: (0..config.num_shards).map(|_| Shard::new()).collect(),
            config,
            inserts: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            out_of_order: AtomicU64::new(0),
            append_latency: Histogram::durations(),
            instant_latency: Histogram::durations(),
            range_latency: Histogram::durations(),
        }
    }

    /// The database's storage policy.
    pub fn config(&self) -> &TsdbConfig {
        &self.config
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic shard index for a series identity: every write to
    /// the series takes this shard's lock and no other.
    pub fn shard_of(&self, metric: &str, labels: &LabelSet) -> usize {
        let mut h = fnv1a(FNV_OFFSET, metric.as_bytes());
        for (k, v) in labels.iter() {
            h = fnv1a(h, &[0xff]);
            h = fnv1a(h, k.as_bytes());
            h = fnv1a(h, &[0xfe]);
            h = fnv1a(h, v.as_bytes());
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Seal policy handed to the chunk layer on each write.
    fn seal_limit(&self) -> Option<usize> {
        if self.config.compress {
            Some(self.config.seal_after.max(1))
        } else {
            None
        }
    }

    /// Appends a sample to the series `(metric, labels)`, creating it on
    /// first write. Samples may arrive slightly out of order; the series
    /// is kept sorted by timestamp (a duplicate timestamp lands after
    /// its equals).
    pub fn append(&self, metric: &str, labels: &LabelSet, sample: Sample) {
        let timer = start_timer();
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[self.shard_of(metric, labels)];
        let outcome = {
            let mut map = shard.series.write();
            map.entry(SeriesKey {
                metric: metric.to_string(),
                labels: labels.clone(),
            })
            .or_default()
            .append(sample, self.seal_limit())
        };
        shard.samples.fetch_add(1, Ordering::Relaxed);
        if outcome.rewrote_sealed {
            self.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
        self.append_latency.observe(timer.elapsed().as_secs_f64());
    }

    /// Like [`TimeSeriesDb::append`], but if the series already holds a
    /// sample at exactly `sample.timestamp`, that sample's value is
    /// replaced instead of a duplicate point being inserted. This is the
    /// write primitive for idempotent scrapes: re-scraping the same
    /// registry at the same timestamp converges instead of growing.
    pub fn upsert(&self, metric: &str, labels: &LabelSet, sample: Sample) {
        let timer = start_timer();
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[self.shard_of(metric, labels)];
        let outcome = {
            let mut map = shard.series.write();
            map.entry(SeriesKey {
                metric: metric.to_string(),
                labels: labels.clone(),
            })
            .or_default()
            .upsert(sample, self.seal_limit())
        };
        if outcome.inserted {
            shard.samples.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.rewrote_sealed {
            self.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
        self.append_latency.observe(timer.elapsed().as_secs_f64());
    }

    /// Appends a whole vector of samples (already time-ordered) at once,
    /// taking the shard lock once for the batch.
    pub fn append_series(&self, metric: &str, labels: &LabelSet, samples: &[Sample]) {
        if samples.is_empty() {
            return;
        }
        let timer = start_timer();
        self.inserts
            .fetch_add(samples.len() as u64, Ordering::Relaxed);
        let shard = &self.shards[self.shard_of(metric, labels)];
        let mut rewrote = 0u64;
        {
            let mut map = shard.series.write();
            let store = map
                .entry(SeriesKey {
                    metric: metric.to_string(),
                    labels: labels.clone(),
                })
                .or_default();
            for &s in samples {
                if store.append(s, self.seal_limit()).rewrote_sealed {
                    rewrote += 1;
                }
            }
        }
        shard
            .samples
            .fetch_add(samples.len() as u64, Ordering::Relaxed);
        if rewrote > 0 {
            self.out_of_order.fetch_add(rewrote, Ordering::Relaxed);
        }
        self.append_latency.observe(timer.elapsed().as_secs_f64());
    }

    /// Number of distinct series.
    pub fn num_series(&self) -> usize {
        self.shards.iter().map(|s| s.series.read().len()).sum()
    }

    /// Total number of samples across all series. O(shards): read from
    /// the write-path counters, never by walking the data.
    pub fn num_samples(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.samples.load(Ordering::Relaxed) as usize)
            .sum()
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
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.series.read();
            for (key, store) in map.iter() {
                if key.metric != metric || !key.labels.matches(matchers) {
                    continue;
                }
                if let Some(s) = store.latest_at_or_before(at) {
                    out.push((key.labels.clone(), s));
                }
            }
        }
        // Shards interleave the keyspace; restore (metric, labels) order
        // so results are independent of shard count.
        out.sort_by(|a, b| a.0.cmp(&b.0));
        self.instant_latency.observe(timer.elapsed().as_secs_f64());
        out
    }

    /// Range query: for every matching series, the samples with
    /// `start <= timestamp <= end`, in `(metric, labels)` order.
    pub fn query_range(
        &self,
        metric: &str,
        matchers: &[LabelMatcher],
        start: i64,
        end: i64,
    ) -> Vec<Series> {
        let timer = start_timer();
        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.series.read();
            for (key, store) in map.iter() {
                if key.metric != metric || !key.labels.matches(matchers) {
                    continue;
                }
                let samples = store.samples_between(start, end);
                if !samples.is_empty() {
                    out.push(Series {
                        metric: key.metric.clone(),
                        labels: key.labels.clone(),
                        samples,
                    });
                }
            }
        }
        out.sort_by(|a, b| a.labels.cmp(&b.labels));
        self.range_latency.observe(timer.elapsed().as_secs_f64());
        out
    }

    /// Step-aligned range query (Prometheus-style): for every matching
    /// series, one sample per aligned timestamp `start, start+step, …, ≤
    /// end`, each carrying the latest raw value at or before that instant.
    /// Aligned points before a series' first sample are omitted.
    ///
    /// Downsampling queries like this are how dashboards read a
    /// 15-minute-cadence metric at, say, 1-hour resolution.
    ///
    /// # Panics
    ///
    /// Panics when `step` is zero.
    pub fn query_range_step(
        &self,
        metric: &str,
        matchers: &[LabelMatcher],
        start: i64,
        end: i64,
        step: i64,
    ) -> Vec<Series> {
        assert!(step > 0, "step must be positive");
        let timer = start_timer();
        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.series.read();
            for (key, store) in map.iter() {
                if key.metric != metric || !key.labels.matches(matchers) {
                    continue;
                }
                let samples = store.all_samples();
                let mut points = Vec::new();
                let mut t = start;
                while t <= end {
                    let idx = samples.partition_point(|s| s.timestamp <= t);
                    if idx > 0 {
                        points.push(Sample {
                            timestamp: t,
                            value: samples[idx - 1].value,
                        });
                    }
                    t += step;
                }
                if !points.is_empty() {
                    out.push(Series {
                        metric: key.metric.clone(),
                        labels: key.labels.clone(),
                        samples: points,
                    });
                }
            }
        }
        out.sort_by(|a, b| a.labels.cmp(&b.labels));
        self.range_latency.observe(timer.elapsed().as_secs_f64());
        out
    }

    /// Applies a retention policy: drops every sample with
    /// `timestamp < cutoff` and removes series left empty. Sealed chunks
    /// wholly below the cutoff are discarded without decoding. Returns
    /// the number of samples dropped.
    pub fn retain_from(&self, cutoff: i64) -> usize {
        let mut total = 0usize;
        for shard in &self.shards {
            let mut map = shard.series.write();
            let mut dropped = 0usize;
            map.retain(|_, store| {
                dropped += store.retain_from(cutoff);
                !store.is_empty()
            });
            shard.samples.fetch_sub(dropped as u64, Ordering::Relaxed);
            total += dropped;
        }
        total
    }

    /// Operation counts, sizes, compression accounting, and latency
    /// distributions, for the observability layer's `tsdb_*` metrics.
    ///
    /// Counter reads are O(shards); the sealed-chunk accounting walks
    /// series headers (never samples), O(num_series).
    pub fn stats(&self) -> TsdbStats {
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut sealed_chunks = 0;
        let mut sealed_bytes = 0;
        let mut sealed_uncompressed_bytes = 0;
        for shard in &self.shards {
            let map = shard.series.read();
            for store in map.values() {
                sealed_chunks += store.sealed_chunks();
                sealed_bytes += store.compressed_bytes();
                sealed_uncompressed_bytes += store.sealed_uncompressed_bytes();
            }
            shards.push(ShardStats {
                series: map.len(),
                samples: shard.samples.load(Ordering::Relaxed),
            });
        }
        TsdbStats {
            inserts: self.inserts.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            out_of_order_inserts: self.out_of_order.load(Ordering::Relaxed),
            num_series: shards.iter().map(|s| s.series).sum(),
            num_samples: shards.iter().map(|s| s.samples as usize).sum(),
            num_shards: self.shards.len(),
            sealed_chunks,
            sealed_bytes,
            sealed_uncompressed_bytes,
            shards,
            append_latency: self.append_latency.snapshot(),
            instant_latency: self.instant_latency.snapshot(),
            range_latency: self.range_latency.snapshot(),
        }
    }

    /// All metric names currently stored, sorted and deduplicated.
    pub fn metric_names(&self) -> Vec<String> {
        let mut names = BTreeSet::new();
        for shard in &self.shards {
            let map = shard.series.read();
            for key in map.keys() {
                if !names.contains(&key.metric) {
                    names.insert(key.metric.clone());
                }
            }
        }
        names.into_iter().collect()
    }

    /// All label sets for a metric, sorted.
    pub fn series_for(&self, metric: &str) -> Vec<LabelSet> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.series.read();
            out.extend(
                map.keys()
                    .filter(|k| k.metric == metric)
                    .map(|k| k.labels.clone()),
            );
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
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
        assert_eq!(db.metric_names(), vec!["cpu_usage", "mem_usage"]);
        assert_eq!(db.series_for("cpu_usage").len(), 2);
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
        assert_eq!(s.num_shards, 16);
        assert_eq!(s.shards.len(), 16);
        assert_eq!(s.shards.iter().map(|sh| sh.series).sum::<usize>(), 3);
        assert_eq!(s.shards.iter().map(|sh| sh.samples).sum::<u64>(), 21);
        assert_eq!(s.append_latency.count, 21, "every append is timed");
        db.query_instant("cpu_usage", &[], 5);
        db.query_range("cpu_usage", &[], 0, 9);
        db.query_range_step("cpu_usage", &[], 0, 9, 2);
        let s = db.stats();
        assert_eq!(s.queries, 3);
        assert_eq!(s.instant_latency.count, 1);
        assert_eq!(s.range_latency.count, 2, "range + step queries");
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
    }

    #[test]
    fn step_query_downsamples_and_carries_last_value() {
        let db = filled_db();
        // cpu_usage for EM_1 has samples at t = 0..9, value = 10 t.
        let res = db.query_range_step("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], 0, 9, 3);
        assert_eq!(res.len(), 1);
        let pts: Vec<(i64, f64)> = res[0]
            .samples
            .iter()
            .map(|s| (s.timestamp, s.value))
            .collect();
        assert_eq!(pts, vec![(0, 0.0), (3, 30.0), (6, 60.0), (9, 90.0)]);
        // Aligned instants past the data carry the last value forward…
        let res = db.query_range_step("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], 8, 20, 5);
        let pts: Vec<(i64, f64)> = res[0]
            .samples
            .iter()
            .map(|s| (s.timestamp, s.value))
            .collect();
        assert_eq!(pts, vec![(8, 80.0), (13, 90.0), (18, 90.0)]);
        // …and instants before the first sample are omitted (here the
        // aligned instants are -5 and 0; only t = 0 has data).
        let res = db.query_range_step("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], -5, 4, 5);
        let pts: Vec<(i64, f64)> = res[0]
            .samples
            .iter()
            .map(|s| (s.timestamp, s.value))
            .collect();
        assert_eq!(pts, vec![(0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn step_query_rejects_zero_step() {
        let db = filled_db();
        db.query_range_step("cpu_usage", &[], 0, 10, 0);
    }

    #[test]
    fn retention_drops_old_samples_and_empty_series() {
        let db = filled_db();
        assert_eq!(db.num_samples(), 21);
        // mem_usage only has a sample at t = 5; cutting at 6 removes it.
        let dropped = db.retain_from(6);
        assert_eq!(dropped, 2 * 6 + 1);
        assert_eq!(db.num_samples(), 8);
        assert_eq!(db.metric_names(), vec!["cpu_usage"]);
        // Remaining samples all survive the cutoff.
        for s in db.query_range("cpu_usage", &[], i64::MIN, i64::MAX) {
            assert!(s.samples.iter().all(|x| x.timestamp >= 6));
        }
        // Idempotent at the same cutoff.
        assert_eq!(db.retain_from(6), 0);
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

    /// Fills a database with a deterministic mixed workload.
    fn mixed_workload(db: &TimeSeriesDb) {
        for series in 0..40 {
            let labels = LabelSet::new()
                .with("env", format!("EM_{series}"))
                .with("testbed", format!("Testbed_{}", series % 7));
            for t in 0..600i64 {
                db.append(
                    "cpu_usage",
                    &labels,
                    Sample {
                        timestamp: t * 15,
                        value: ((series * 31 + t as usize * 7) % 100) as f64,
                    },
                );
            }
        }
        // Late, misordered traffic into sealed territory.
        for series in 0..10 {
            let labels = LabelSet::new()
                .with("env", format!("EM_{series}"))
                .with("testbed", format!("Testbed_{}", series % 7));
            db.append(
                "cpu_usage",
                &labels,
                Sample {
                    timestamp: 37,
                    value: 999.0,
                },
            );
        }
    }

    #[test]
    fn results_identical_across_shard_counts_and_compression() {
        let configs = [
            TsdbConfig::default(),
            TsdbConfig {
                num_shards: 1,
                seal_after: 64,
                compress: true,
            },
            TsdbConfig {
                num_shards: 5,
                seal_after: 256,
                compress: false,
            },
        ];
        let dbs: Vec<TimeSeriesDb> = configs
            .iter()
            .map(|&c| {
                let db = TimeSeriesDb::with_config(c);
                mixed_workload(&db);
                db
            })
            .collect();
        let reference = &dbs[0];
        for db in &dbs[1..] {
            for (a, b) in reference
                .query_range("cpu_usage", &[], i64::MIN, i64::MAX)
                .iter()
                .zip(&db.query_range("cpu_usage", &[], i64::MIN, i64::MAX))
            {
                assert_eq!(a.labels, b.labels, "series order must match");
                assert_eq!(a.samples.len(), b.samples.len());
                for (x, y) in a.samples.iter().zip(&b.samples) {
                    assert_eq!(x.timestamp, y.timestamp);
                    assert_eq!(x.value.to_bits(), y.value.to_bits());
                }
            }
            assert_eq!(
                reference.query_instant("cpu_usage", &[], 5000).len(),
                db.query_instant("cpu_usage", &[], 5000).len()
            );
        }
    }

    #[test]
    fn compression_accounting_and_out_of_order_counter() {
        let db = TimeSeriesDb::with_config(TsdbConfig {
            num_shards: 4,
            seal_after: 100,
            compress: true,
        });
        mixed_workload(&db);
        let stats = db.stats();
        assert!(stats.sealed_chunks > 0, "600-sample series must seal");
        assert!(
            stats.compression_ratio() >= 5.0,
            "quantized telemetry must compress at least 5x, got {:.2}",
            stats.compression_ratio()
        );
        assert_eq!(
            stats.out_of_order_inserts, 10,
            "late writes into sealed chunks are counted"
        );
        assert_eq!(stats.num_samples, 40 * 600 + 10);
        // The uncompressed config never seals and never counts.
        let flat = TimeSeriesDb::with_config(TsdbConfig {
            num_shards: 4,
            seal_after: 100,
            compress: false,
        });
        mixed_workload(&flat);
        let fstats = flat.stats();
        assert_eq!(fstats.sealed_chunks, 0);
        assert_eq!(fstats.sealed_bytes, 0);
        assert_eq!(fstats.out_of_order_inserts, 0);
        assert_eq!(fstats.compression_ratio(), 1.0);
    }

    #[test]
    fn shard_assignment_is_deterministic_and_spread() {
        let db = TimeSeriesDb::new();
        let mut used = BTreeSet::new();
        for i in 0..64 {
            let labels = env(&format!("EM_{i}"));
            let a = db.shard_of("cpu_usage", &labels);
            let b = db.shard_of("cpu_usage", &labels);
            assert_eq!(a, b);
            assert!(a < db.num_shards());
            used.insert(a);
        }
        assert!(
            used.len() > db.num_shards() / 2,
            "64 series should touch most of 16 shards, got {}",
            used.len()
        );
    }
}
