//! The workspace's one histogram type: fixed log-scale buckets with
//! lock-free counters and optional per-bucket exemplars.
//!
//! It lives at the bottom of the dependency graph so the TSDB can time
//! its own operations with it; `env2vec-obs` re-exports it from
//! `obs::metrics` and hands out registry-owned instances. Half-decade
//! boundaries keep percentile estimates within ~1.8x multiplicative
//! error with a handful of `u64`s and no per-observation allocation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::locks::TrackedMutex;

/// One OpenMetrics exemplar: the last sampled observation that landed in
/// a histogram bucket, tagged with the trace that produced it — the
/// bridge from "p99 is slow" to "this specific request was slow".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// Trace id of the sampled request.
    pub trace_id: u128,
    /// The observed value itself (inside the bucket's range).
    pub value: f64,
}

/// Default histogram boundaries: half-decade log-scale buckets from 1 µs
/// to 1000 s, in seconds. `observe` values above the last bound land in
/// the implicit `+Inf` bucket.
pub const DURATION_BUCKETS: [f64; 19] = [
    1e-6, 3.162e-6, 1e-5, 3.162e-5, 1e-4, 3.162e-4, 1e-3, 3.162e-3, 1e-2, 3.162e-2, 1e-1, 3.162e-1,
    1e0, 3.162e0, 1e1, 3.162e1, 1e2, 3.162e2, 1e3,
];

/// Observation distribution over fixed log-scale buckets.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per bound plus the trailing `+Inf` bucket.
    counts: Vec<AtomicU64>,
    /// Sum of observed values (f64 bits, CAS-updated).
    sum_bits: AtomicU64,
    count: AtomicU64,
    /// Per-bucket exemplar slots, allocated lazily on the first traced
    /// observation so untraced histograms pay nothing. Each slot is
    /// locked only when a *sampled* observation lands in its bucket —
    /// rare by construction (1-in-N sampling) — so the hot `observe`
    /// path stays lock-free.
    exemplars: OnceLock<Vec<TrackedMutex<Option<Exemplar>>>>,
}

/// Point-in-time reading of a [`Histogram`] as plain values, so stats
/// structs holding one stay `Clone + PartialEq`.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (no `+Inf`).
    pub bounds: Vec<f64>,
    /// Cumulative counts per bound plus a final `+Inf` entry
    /// (see [`Histogram::cumulative_counts`]).
    pub cumulative: Vec<u64>,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (see [`quantile_from_cumulative`]).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_cumulative(&self.bounds, &self.cumulative, q)
    }
}

impl Histogram {
    /// A histogram over the given ascending upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            count: AtomicU64::new(0),
            exemplars: OnceLock::new(),
        }
    }

    /// The default duration histogram ([`DURATION_BUCKETS`]).
    pub fn durations() -> Self {
        Self::with_bounds(&DURATION_BUCKETS)
    }

    /// Log-scale bounds: `buckets_per_decade` geometric steps per power
    /// of ten, spanning `10^min_exp ..= 10^max_exp`.
    ///
    /// # Panics
    /// Panics if `min_exp >= max_exp` or `buckets_per_decade == 0`.
    pub fn log_bounds(min_exp: i32, max_exp: i32, buckets_per_decade: u32) -> Vec<f64> {
        assert!(min_exp < max_exp, "log_bounds: empty exponent range");
        assert!(
            buckets_per_decade > 0,
            "log_bounds: zero buckets per decade"
        );
        let steps = (max_exp - min_exp) as u32 * buckets_per_decade;
        (0..=steps)
            .map(|i| 10f64.powf(min_exp as f64 + i as f64 / buckets_per_decade as f64))
            .collect()
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Records one observation and, when `sampled_trace` carries the id
    /// of a sampled trace, retains it as the bucket's exemplar. `None` is
    /// exactly [`Histogram::observe`] — no lock, no allocation.
    pub fn observe_traced(&self, value: f64, sampled_trace: Option<u128>) {
        self.observe(value);
        if let Some(trace_id) = sampled_trace {
            let idx = self.bounds.partition_point(|&b| b < value);
            let slots = self.exemplars.get_or_init(|| {
                (0..self.bounds.len() + 1)
                    .map(|_| TrackedMutex::new("telemetry.histogram.exemplar", None))
                    .collect()
            });
            *slots[idx].lock() = Some(Exemplar { trace_id, value });
        }
    }

    /// Snapshot of the per-bucket exemplars (`bounds().len() + 1` slots,
    /// last is `+Inf`), or an empty vec when no traced observation has
    /// ever landed here.
    pub fn exemplars(&self) -> Vec<Option<Exemplar>> {
        match self.exemplars.get() {
            Some(slots) => slots.iter().map(|s| *s.lock()).collect(),
            None => Vec::new(),
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Upper bounds, excluding the implicit `+Inf`.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (non-cumulative), including the final `+Inf`
    /// bucket; `bucket_counts().len() == bounds().len() + 1`.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Cumulative counts per bound, Prometheus `le` semantics: entry `i`
    /// is the number of observations `<= bounds()[i]`, and a final entry
    /// counts everything (`le="+Inf"`).
    pub fn cumulative_counts(&self) -> Vec<u64> {
        let mut total = 0;
        self.bucket_counts()
            .into_iter()
            .map(|c| {
                total += c;
                total
            })
            .collect()
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) of the observed
    /// distribution by linear interpolation within the bucket containing
    /// the target rank (see [`quantile_from_cumulative`]).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_cumulative(&self.bounds, &self.cumulative_counts(), q)
    }

    /// Bounds, cumulative counts, count, and sum as plain values.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            cumulative: self.cumulative_counts(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Quantile estimate over Prometheus-style cumulative bucket counts —
/// the same `histogram_quantile` rule Prometheus applies server-side.
///
/// `cumulative` must have `bounds.len() + 1` entries (the last is the
/// `+Inf` bucket). The target rank `q·total` is located in the first
/// **occupied** bucket whose cumulative count reaches it and linearly
/// interpolated between the bucket's bounds (the first bucket's lower
/// bound is 0). Ranks landing in the `+Inf` bucket return the last
/// finite bound — the estimator cannot see past it. Returns NaN when the
/// histogram is empty.
///
/// Skipping empty buckets only matters at rank 0 (`q = 0.0`): an empty
/// leading bucket has `cumulative[0] = 0 >= rank`, and an earlier
/// version of this function answered with `bounds[0]` — a bound that can
/// sit *below* every recorded observation. `q = 0.0` now reports the
/// lower edge of the bucket holding the minimum, matching what
/// [`Histogram::quantile`] reports for every other rank.
pub fn quantile_from_cumulative(bounds: &[f64], cumulative: &[u64], q: f64) -> f64 {
    let total = match cumulative.last() {
        Some(&t) if t > 0 => t as f64,
        _ => return f64::NAN,
    };
    let q = q.clamp(0.0, 1.0);
    let rank = q * total;
    for (i, &cum) in cumulative.iter().enumerate() {
        // `cum > 0` excludes empty leading buckets, reachable only at
        // rank 0; for any positive rank, `cum >= rank` implies `cum > 0`.
        if (cum as f64) >= rank && cum > 0 {
            if i >= bounds.len() {
                return bounds.last().copied().unwrap_or(f64::NAN);
            }
            let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
            let prev = if i == 0 {
                0.0
            } else {
                cumulative[i - 1] as f64
            };
            // Strictly positive: an occupied bucket at the first index
            // whose cumulative count reaches the rank cannot share its
            // count with the (necessarily smaller or rank-missing)
            // predecessor.
            let in_bucket = cum as f64 - prev;
            return lower + (bounds[i] - lower) * (rank - prev) / in_bucket;
        }
    }
    bounds.last().copied().unwrap_or(f64::NAN)
}
