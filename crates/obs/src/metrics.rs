//! Counters, gauges, and log-bucket histograms in a label-aware registry.
//!
//! The model mirrors Prometheus client libraries: a metric is identified
//! by name plus a [`LabelSet`], counters only go up, gauges hold the
//! latest value, and histograms count observations into **fixed
//! log-scale buckets** (half-decade boundaries), so percentile estimates
//! stay within ~1.8x multiplicative error with a handful of `u64`s and
//! no per-observation allocation. The histogram type itself lives in
//! [`env2vec_telemetry::histogram`] (the TSDB times itself with it) and
//! is re-exported here.
//!
//! All metric handles are lock-free `Arc`s; the registry lock is only
//! taken when a handle is first created (or at scrape time).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use env2vec_telemetry::histogram::{
    quantile_from_cumulative, Exemplar, Histogram, DURATION_BUCKETS,
};
use env2vec_telemetry::locks::TrackedRwLock;
pub use env2vec_telemetry::LabelSet;

/// Monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn inc_by(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Latest-value metric.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A metric handle of any kind.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: LabelSet,
}

/// One scraped value (see [`MetricsRegistry::snapshot`]).
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram reading: `(bounds, cumulative_counts, sum, count)`.
    Histogram {
        /// Bucket upper bounds (no `+Inf`).
        bounds: Vec<f64>,
        /// Cumulative counts per bound plus a final `+Inf` entry.
        cumulative: Vec<u64>,
        /// Sum of observations.
        sum: f64,
        /// Number of observations.
        count: u64,
        /// Per-bucket exemplars (one slot per cumulative entry), or
        /// empty when the histogram has never seen a traced observation.
        exemplars: Vec<Option<Exemplar>>,
    },
}

/// A `(name, labels, value)` triple from a registry snapshot.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Metric name.
    pub name: String,
    /// Label set.
    pub labels: LabelSet,
    /// The reading.
    pub value: MetricValue,
}

/// Label-aware registry handing out shared metric handles.
///
/// Keyed by a `BTreeMap` so every walk over the registry — snapshots,
/// scrapes, exports — sees series in `(name, labels)` order with no
/// per-process randomisation (envlint `hash-iter`).
#[derive(Debug)]
pub struct MetricsRegistry {
    metrics: TrackedRwLock<BTreeMap<MetricKey, Metric>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            metrics: TrackedRwLock::new("obs.metrics.registry", BTreeMap::new()),
        }
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert<T, F: FnOnce() -> Metric, G: Fn(&Metric) -> Option<T>>(
        &self,
        name: &str,
        labels: LabelSet,
        make: F,
        cast: G,
    ) -> T {
        let key = MetricKey {
            name: name.to_string(),
            labels,
        };
        if let Some(m) = self.metrics.read().get(&key) {
            return cast(m)
                // envlint: allow(no-panic) — documented API contract: one
                // name+labels key maps to one metric kind, and a mismatch
                // is a programming error at the registration site.
                .unwrap_or_else(|| panic!("metric `{name}` already registered as a {}", m.kind()));
        }
        let mut metrics = self.metrics.write();
        let entry = metrics.entry(key).or_insert_with(make);
        cast(entry)
            // envlint: allow(no-panic) — same kind-mismatch contract as above.
            .unwrap_or_else(|| panic!("metric `{name}` already registered as a {}", entry.kind()))
    }

    /// Counter with no labels.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, LabelSet::new())
    }

    /// Counter with the given labels.
    ///
    /// # Panics
    /// Panics if `name`+`labels` is already registered as another kind.
    pub fn counter_with(&self, name: &str, labels: LabelSet) -> Arc<Counter> {
        self.get_or_insert(
            name,
            labels,
            || Metric::Counter(Arc::new(Counter::default())),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Gauge with no labels.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, LabelSet::new())
    }

    /// Gauge with the given labels.
    ///
    /// # Panics
    /// Panics if `name`+`labels` is already registered as another kind.
    pub fn gauge_with(&self, name: &str, labels: LabelSet) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            labels,
            || Metric::Gauge(Arc::new(Gauge::default())),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Duration histogram ([`DURATION_BUCKETS`]) with no labels.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, LabelSet::new())
    }

    /// Duration histogram with the given labels.
    ///
    /// # Panics
    /// Panics if `name`+`labels` is already registered as another kind.
    pub fn histogram_with(&self, name: &str, labels: LabelSet) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            labels,
            || Metric::Histogram(Arc::new(Histogram::durations())),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Histogram over custom `bounds` (e.g. row counts rather than
    /// durations) with no labels. The bounds only apply on first
    /// registration; later calls return the existing series regardless.
    ///
    /// # Panics
    /// Panics if `name` is already registered as another kind, or if
    /// `bounds` is empty / not strictly ascending on first registration.
    pub fn histogram_with_bounds(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            LabelSet::new(),
            || Metric::Histogram(Arc::new(Histogram::with_bounds(bounds))),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Number of registered metric handles (series).
    pub fn len(&self) -> usize {
        self.metrics.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time reading of every registered metric, in
    /// `(name, labels)` order — the registry's own `BTreeMap` key order,
    /// so output is deterministic without a separate sort.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let metrics = self.metrics.read();
        metrics
            .iter()
            .map(|(key, metric)| MetricSample {
                name: key.name.clone(),
                labels: key.labels.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        bounds: h.bounds().to_vec(),
                        cumulative: h.cumulative_counts(),
                        sum: h.sum(),
                        count: h.count(),
                        exemplars: h.exemplars(),
                    },
                },
            })
            .collect()
    }
}

/// The process-wide registry used by pipeline instrumentation.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: std::sync::OnceLock<MetricsRegistry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceContext;

    /// The serve path's conversion: only sampled contexts carry an id.
    fn sampled(ctx: &TraceContext) -> Option<u128> {
        ctx.sampled.then_some(ctx.trace_id)
    }

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("requests_total");
        c.inc();
        c.inc_by(4);
        assert_eq!(reg.counter("requests_total").get(), 5);
        let g = reg.gauge("queue_depth");
        g.set(3.5);
        assert_eq!(reg.gauge("queue_depth").get(), 3.5);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn labeled_handles_are_distinct_series() {
        let reg = MetricsRegistry::new();
        let a = reg.counter_with("alarms_total", LabelSet::new().with("method", "env2vec"));
        let b = reg.counter_with("alarms_total", LabelSet::new().with("method", "ridge"));
        a.inc();
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 1);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn histogram_buckets_observations_by_log_scale() {
        let h = Histogram::durations();
        // 1 µs boundary is bucket 0; 2 µs lands in (1e-6, 3.162e-6].
        h.observe(1e-6);
        h.observe(2e-6);
        h.observe(0.5); // (0.3162, 1.0]
        h.observe(5_000.0); // beyond the last bound → +Inf bucket
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1, "1 µs sits on the first boundary");
        assert_eq!(counts[1], 1, "2 µs in the second bucket");
        let half_decile = DURATION_BUCKETS.iter().position(|&b| b == 1e0).unwrap();
        assert_eq!(counts[half_decile], 1, "0.5 s in the (0.3162, 1] bucket");
        assert_eq!(counts[DURATION_BUCKETS.len()], 1, "+Inf bucket");
        assert_eq!(h.count(), 4);
        assert!((h.sum() - (1e-6 + 2e-6 + 0.5 + 5000.0)).abs() < 1e-9);
        let cumulative = h.cumulative_counts();
        assert_eq!(*cumulative.last().unwrap(), 4, "le=+Inf counts everything");
        assert!(cumulative.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn log_bounds_are_geometric() {
        let b = Histogram::log_bounds(-3, 0, 1);
        assert_eq!(b.len(), 4);
        assert!((b[0] - 1e-3).abs() < 1e-12);
        assert!((b[3] - 1.0).abs() < 1e-12);
        let b2 = Histogram::log_bounds(0, 1, 2);
        assert!((b2[1] - 10f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // Hand-built histogram: bounds [1, 2, 4], fills
        //   (0, 1]: 2   (1, 2]: 2   (2, 4]: 4   (4, +Inf): 2
        // cumulative [2, 4, 8, 10], total 10.
        let h = Histogram::with_bounds(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0] {
            h.observe(v);
        }
        for v in [1.5, 2.0] {
            h.observe(v);
        }
        for v in [2.5, 3.0, 3.5, 4.0] {
            h.observe(v);
        }
        for v in [10.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.cumulative_counts(), vec![2, 4, 8, 10]);
        // rank 5 lands in (2, 4] holding cumulative 4..8:
        // 2 + (4-2)·(5-4)/4 = 2.5
        assert!((h.quantile(0.5) - 2.5).abs() < 1e-12);
        // rank 2 lands in (0, 1] holding cumulative 0..2: 0 + 1·(2/2) = 1
        assert!((h.quantile(0.2) - 1.0).abs() < 1e-12);
        // rank 3 lands in (1, 2]: 1 + 1·(3-2)/2 = 1.5
        assert!((h.quantile(0.3) - 1.5).abs() < 1e-12);
        // Overflow bucket: the estimator saturates at the last finite
        // bound.
        assert_eq!(h.quantile(0.95), 4.0);
        assert_eq!(h.quantile(1.0), 4.0);
        // q = 0 interpolates to the bottom of the first bucket.
        assert_eq!(h.quantile(0.0), 0.0);
        // A snapshot answers from the same cumulative counts.
        let snap = h.snapshot();
        assert_eq!(snap.count, 10);
        assert_eq!(snap.quantile(0.5).to_bits(), h.quantile(0.5).to_bits());
    }

    #[test]
    fn quantile_of_empty_histogram_is_nan() {
        let h = Histogram::with_bounds(&[1.0, 2.0]);
        assert!(h.quantile(0.5).is_nan());
        assert!(quantile_from_cumulative(&[1.0, 2.0], &[0, 0, 0], 0.5).is_nan());
    }

    #[test]
    fn quantile_from_cumulative_matches_hand_computation() {
        // All mass in the overflow bucket → last finite bound.
        assert_eq!(quantile_from_cumulative(&[1.0], &[0, 5], 0.5), 1.0);
        // Single bucket, uniform interpolation: rank 1.5 of 3 in (0, 2].
        let v = quantile_from_cumulative(&[2.0], &[3, 3], 0.5);
        assert!((v - 1.0).abs() < 1e-12);
        // Out-of-range q is clamped.
        assert_eq!(
            quantile_from_cumulative(&[2.0], &[3, 3], 7.0),
            quantile_from_cumulative(&[2.0], &[3, 3], 1.0)
        );
    }

    #[test]
    fn quantile_zero_reports_the_bucket_holding_the_minimum() {
        // Regression: with empty leading buckets, rank 0 used to match
        // the empty first bucket (cumulative 0 >= 0) and answer
        // bounds[0] — below every recorded observation. All mass here is
        // in (2, 4], so q=0 must report that bucket's lower edge.
        assert_eq!(
            quantile_from_cumulative(&[1.0, 2.0, 4.0], &[0, 0, 5, 5], 0.0),
            2.0
        );
        // Same through the Histogram path.
        let h = Histogram::with_bounds(&[1.0, 2.0, 4.0]);
        h.observe(3.0);
        h.observe(3.5);
        assert_eq!(h.quantile(0.0), 2.0);
        // Mass in the first bucket keeps the old answer: bottom is 0.
        let h2 = Histogram::with_bounds(&[1.0, 2.0, 4.0]);
        h2.observe(0.5);
        h2.observe(3.0);
        assert_eq!(h2.quantile(0.0), 0.0);
        // All mass in +Inf: every quantile saturates at the last bound.
        assert_eq!(quantile_from_cumulative(&[1.0, 2.0], &[0, 0, 3], 0.0), 2.0);
    }

    #[test]
    fn quantile_edge_ranks_and_single_bucket() {
        // Single-bucket histogram: q=0 is the bottom, q=1 the top, and
        // interior ranks interpolate linearly.
        let h = Histogram::with_bounds(&[8.0]);
        for _ in 0..4 {
            h.observe(1.0);
        }
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 8.0);
        assert!((h.quantile(0.5) - 4.0).abs() < 1e-12);
        // q=1 with overflow mass saturates at the last finite bound.
        assert_eq!(quantile_from_cumulative(&[8.0], &[4, 6], 1.0), 8.0);
        // One observation total: q=0 and q=1 bracket its bucket.
        assert_eq!(
            quantile_from_cumulative(&[1.0, 2.0, 4.0], &[0, 1, 1, 1], 0.0),
            1.0
        );
        assert_eq!(
            quantile_from_cumulative(&[1.0, 2.0, 4.0], &[0, 1, 1, 1], 1.0),
            2.0
        );
    }

    #[test]
    fn quantile_paths_agree_while_observers_run() {
        // Live-scrape shape: writers hammer `observe` while a reader
        // takes snapshots. For every snapshot the two quantile paths —
        // `Histogram::quantile` recomputed from a fresh snapshot is
        // inherently racy, so the agreement contract is stated on one
        // snapshot: `quantile_from_cumulative` over the scraped
        // cumulative counts IS the histogram quantile. The reader checks
        // that both stay finite, ordered, and inside the bucket range
        // at every intermediate state.
        let h = Arc::new(Histogram::with_bounds(&[1.0, 2.0, 4.0, 8.0]));
        let mut writers = Vec::new();
        for w in 0..2 {
            let h = Arc::clone(&h);
            writers.push(std::thread::spawn(move || {
                for i in 0..5000u64 {
                    // Deterministic value stream spanning all buckets
                    // including +Inf.
                    let v = ((i * 7 + w * 3) % 10) as f64;
                    h.observe(v);
                }
            }));
        }
        for _ in 0..200 {
            let cumulative = h.cumulative_counts();
            if *cumulative.last().unwrap() == 0 {
                continue;
            }
            for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
                let v = quantile_from_cumulative(h.bounds(), &cumulative, q);
                assert!(v.is_finite(), "q={q} not finite on a live snapshot");
                assert!((0.0..=8.0).contains(&v), "q={q} out of range: {v}");
            }
            let p50 = quantile_from_cumulative(h.bounds(), &cumulative, 0.5);
            let p99 = quantile_from_cumulative(h.bounds(), &cumulative, 0.99);
            assert!(p50 <= p99, "quantiles must be monotone in q");
        }
        for w in writers {
            w.join().unwrap();
        }
        // Settled state: both paths agree exactly on the same snapshot.
        let cumulative = h.cumulative_counts();
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(
                h.quantile(q).to_bits(),
                quantile_from_cumulative(h.bounds(), &cumulative, q).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn untraced_and_unsampled_observations_leave_no_exemplars() {
        let h = Histogram::durations();
        h.observe(0.5);
        h.observe_traced(0.5, None);
        let quiet = TraceContext::from_seed(1, false);
        h.observe_traced(0.5, sampled(&quiet));
        assert!(h.exemplars().is_empty(), "no sampled trace, no exemplars");
        assert_eq!(h.count(), 3, "every path still counts the observation");
    }

    #[test]
    fn sampled_observation_lands_an_exemplar_in_its_bucket() {
        let h = Histogram::with_bounds(&[1.0, 2.0, 4.0]);
        let ctx = TraceContext::from_seed(7, true);
        h.observe_traced(1.5, sampled(&ctx));
        let ex = h.exemplars();
        assert_eq!(ex.len(), 4, "one slot per bucket incl. +Inf");
        let hit = ex[1].expect("exemplar in the (1, 2] bucket");
        assert_eq!(hit.trace_id, ctx.trace_id);
        assert_eq!(hit.value, 1.5);
        assert!(ex[0].is_none() && ex[2].is_none() && ex[3].is_none());
        // A later sampled observation in the same bucket replaces it.
        let ctx2 = TraceContext::from_seed(8, true);
        h.observe_traced(2.0, sampled(&ctx2));
        assert_eq!(h.exemplars()[1].expect("replaced").trace_id, ctx2.trace_id);
        // The snapshot carries the exemplars through.
        let reg = MetricsRegistry::new();
        let rh = reg.histogram("t_seconds");
        rh.observe_traced(0.5, sampled(&ctx));
        match &reg.snapshot()[0].value {
            MetricValue::Histogram { exemplars, .. } => {
                assert!(exemplars
                    .iter()
                    .flatten()
                    .any(|e| e.trace_id == ctx.trace_id));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn exemplar_attachment_is_safe_under_concurrent_writes() {
        // Writers hammer traced and untraced observations while a reader
        // snapshots. Every exemplar seen must be internally consistent:
        // its value inside its bucket's range and its trace id one that
        // some writer actually used (ids are derived from the value, so
        // a torn read would break the pairing).
        let h = Arc::new(Histogram::with_bounds(&[1.0, 2.0, 4.0, 8.0]));
        let mut writers = Vec::new();
        for w in 0..4u64 {
            let h = Arc::clone(&h);
            writers.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    let value = ((i * 7 + w) % 10) as f64;
                    // Seed the trace id from the value so the reader can
                    // verify the (trace_id, value) pairing.
                    let ctx = TraceContext::from_seed(value as u64, true);
                    if i % 3 == 0 {
                        h.observe_traced(value, sampled(&ctx));
                    } else {
                        h.observe(value);
                    }
                }
            }));
        }
        let bounds = [1.0, 2.0, 4.0, 8.0];
        for _ in 0..200 {
            for (i, slot) in h.exemplars().iter().enumerate() {
                if let Some(ex) = slot {
                    let lower = if i == 0 {
                        f64::NEG_INFINITY
                    } else {
                        bounds[i - 1]
                    };
                    let upper = bounds.get(i).copied().unwrap_or(f64::INFINITY);
                    assert!(
                        ex.value > lower && ex.value <= upper,
                        "exemplar value {} escaped bucket {i}",
                        ex.value
                    );
                    let expected = TraceContext::from_seed(ex.value as u64, true);
                    assert_eq!(
                        ex.trace_id, expected.trace_id,
                        "trace id / value pairing torn at bucket {i}"
                    );
                }
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        // After the storm every occupied bucket holds an exemplar (each
        // writer produced sampled values spanning all buckets).
        let ex = h.exemplars();
        assert_eq!(ex.len(), 5);
        assert!(ex.iter().flatten().count() >= 4, "buckets hold exemplars");
    }
}
