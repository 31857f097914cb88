//! The `tsdb` repro experiment: a fleet-scale storage-engine workload.
//!
//! Exercises the sharded, Gorilla-compressed TSDB end to end and
//! reports what each phase measured:
//!
//! 1. **Baseline ingest** — the same sample stream appended
//!    sequentially into a single-shard, uncompressed database, i.e. the
//!    pre-shard engine (one map, one lock, plain `Vec<Sample>` series).
//! 2. **Sharded ingest** — batched through
//!    [`env2vec_par::append_batch`] into the default 16-shard
//!    compressed configuration, so shard jobs run on the worker pool
//!    (`--threads` / `ENV2VEC_THREADS` applies).
//! 3. **Late writes** — a slice of out-of-order samples that land below
//!    already-sealed chunks, forcing the decode-splice-reseal path.
//! 4. **Golden check** — spot series from both databases compared
//!    bit-for-bit (`f64::to_bits`), proving compression and sharding
//!    change nothing observable.
//! 5. **Queries** — label-matcher range and instant queries; latency
//!    quantiles come from the engine's own histograms.
//! 6. **Cardinality churn** — tens of thousands of one-sample series
//!    created back to back, the service-discovery worst case.
//!
//! Values are integer-quantized plateaus (counters and percentages hold
//! steady between scrapes), the regime the XOR codec is built for; the
//! unit test below requires at least 5x compression on them.

use std::time::Instant;

use env2vec_eval::EvalOptions;
use env2vec_par::BatchSample;
use env2vec_telemetry::{LabelMatcher, LabelSet, Sample, TimeSeriesDb, TsdbConfig, TsdbStats};

/// Everything the workload measured.
#[derive(Debug, Clone)]
pub struct TsdbOpsSummary {
    /// Samples written in the timed ingest phases (per engine).
    pub ingest_samples: usize,
    /// Wall time for the sharded, compressed, pooled ingest.
    pub ingest_seconds: f64,
    /// Wall time for the single-shard uncompressed sequential ingest.
    pub baseline_seconds: f64,
    /// p50 of the engine's range-query latency histogram (seconds).
    pub range_p50_seconds: f64,
    /// p99 of the engine's range-query latency histogram (seconds).
    pub range_p99_seconds: f64,
    /// p99 of the engine's instant-query latency histogram (seconds).
    pub instant_p99_seconds: f64,
    /// One-sample series created in the churn phase.
    pub churn_series: usize,
    /// Wall time for the churn phase.
    pub churn_seconds: f64,
    /// Sealed-chunk compression ratio (uncompressed / compressed).
    pub compression_ratio: f64,
    /// Sealed chunks across all shards after ingest.
    pub sealed_chunks: usize,
    /// Bytes held by sealed chunks.
    pub sealed_bytes: usize,
    /// Bytes those samples would occupy raw (16 per sample).
    pub sealed_uncompressed_bytes: usize,
    /// Writes that landed below an already-sealed chunk.
    pub out_of_order_inserts: u64,
}

impl TsdbOpsSummary {
    /// Sharded ingest throughput in million samples per second.
    pub fn ingest_msamples_per_sec(&self) -> f64 {
        self.ingest_samples as f64 / self.ingest_seconds.max(1e-9) / 1e6
    }

    /// Baseline (pre-shard) ingest throughput in Msamples/s.
    pub fn baseline_msamples_per_sec(&self) -> f64 {
        self.ingest_samples as f64 / self.baseline_seconds.max(1e-9) / 1e6
    }

    /// Series created per second under cardinality churn.
    pub fn churn_series_per_sec(&self) -> f64 {
        self.churn_series as f64 / self.churn_seconds.max(1e-9)
    }
}

/// Workload shape, scaled by the preset.
struct Shape {
    series: usize,
    ticks: i64,
    ticks_per_batch: i64,
    late_series: usize,
    late_samples: i64,
    range_queries: usize,
    instant_queries: usize,
    churn_series: usize,
}

impl Shape {
    fn for_opts(opts: &EvalOptions) -> Shape {
        if opts.fast {
            Shape {
                // 320 ticks > the default seal_after (256), so every
                // series seals a chunk and the compression accounting
                // reflects the whole fleet, not just resealed outliers.
                series: 400,
                ticks: 320,
                ticks_per_batch: 25,
                late_series: 8,
                late_samples: 10,
                range_queries: 100,
                instant_queries: 200,
                churn_series: 5_000,
            }
        } else {
            Shape {
                series: 2_000,
                ticks: 500,
                ticks_per_batch: 25,
                late_series: 20,
                late_samples: 10,
                range_queries: 200,
                instant_queries: 500,
                churn_series: 30_000,
            }
        }
    }
}

/// Scrape interval in logical time units.
const TICK_STRIDE: i64 = 15;

/// Deterministic quantized plateau signal: integer percent that steps
/// every 8 scrapes — the shape real utilization gauges have, and the
/// regime the delta-of-delta + XOR codec compresses hardest.
fn value_at(series: usize, t: i64, seed: u64) -> f64 {
    let plateau = (t / 8) as u64;
    let mix = (series as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(plateau.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(seed);
    ((mix >> 17) % 101) as f64
}

fn fleet_labels(shape: &Shape) -> Vec<LabelSet> {
    (0..shape.series)
        .map(|s| {
            LabelSet::new()
                .with("env", format!("EM_{s:04}"))
                .with("testbed", format!("Testbed_{}", s % 97))
        })
        .collect()
}

/// Sequential ingest into the given config (the baseline path).
fn ingest_sequential(db: &TimeSeriesDb, labels: &[LabelSet], shape: &Shape, seed: u64) -> usize {
    let mut written = 0;
    for t in 0..shape.ticks {
        for (s, ls) in labels.iter().enumerate() {
            db.append(
                "cpu_usage",
                ls,
                Sample {
                    timestamp: t * TICK_STRIDE,
                    value: value_at(s, t, seed),
                },
            );
            written += 1;
        }
    }
    written
}

/// Batched ingest through the pool, `ticks_per_batch` scrapes at a time.
fn ingest_batched(db: &TimeSeriesDb, labels: &[LabelSet], shape: &Shape, seed: u64) -> usize {
    let mut written = 0;
    let mut batch = Vec::with_capacity((shape.ticks_per_batch as usize) * labels.len());
    let mut t = 0;
    while t < shape.ticks {
        batch.clear();
        let end = (t + shape.ticks_per_batch).min(shape.ticks);
        for tick in t..end {
            for (s, ls) in labels.iter().enumerate() {
                batch.push(BatchSample::new(
                    "cpu_usage",
                    ls,
                    tick * TICK_STRIDE,
                    value_at(s, tick, seed),
                ));
            }
        }
        written += env2vec_par::append_batch(db, &batch);
        t = end;
    }
    written
}

/// Out-of-order stragglers: old timestamps for a slice of the fleet,
/// landing below chunks the compressed engine has already sealed.
fn late_writes(db: &TimeSeriesDb, labels: &[LabelSet], shape: &Shape, seed: u64) -> usize {
    let mut written = 0;
    for (s, ls) in labels.iter().enumerate().take(shape.late_series) {
        for k in 0..shape.late_samples {
            // Interior timestamps the forward pass skipped over.
            let t = 16 + k;
            db.append(
                "cpu_usage",
                ls,
                Sample {
                    timestamp: t * TICK_STRIDE + 1,
                    value: value_at(s, t, seed ^ 0x5a5a),
                },
            );
            written += 1;
        }
    }
    written
}

/// Bit-exact comparison of one series across both engines.
fn series_match(a: &TimeSeriesDb, b: &TimeSeriesDb, label: &LabelSet) -> bool {
    let m: Vec<LabelMatcher> = label.iter().map(|(k, v)| LabelMatcher::eq(k, v)).collect();
    let ra = a.query_range("cpu_usage", &m, i64::MIN, i64::MAX);
    let rb = b.query_range("cpu_usage", &m, i64::MIN, i64::MAX);
    if ra.len() != rb.len() {
        return false;
    }
    ra.iter().zip(&rb).all(|(x, y)| {
        x.samples.len() == y.samples.len()
            && x.samples
                .iter()
                .zip(&y.samples)
                .all(|(p, q)| p.timestamp == q.timestamp && p.value.to_bits() == q.value.to_bits())
    })
}

/// Runs the workload; returns the human-readable table and the summary.
pub fn run(opts: &EvalOptions) -> Result<(String, TsdbOpsSummary), env2vec_linalg::Error> {
    let shape = Shape::for_opts(opts);
    let seed = opts.seed;
    let labels = fleet_labels(&shape);

    // Phase 1: the pre-shard engine — one shard, no compression,
    // sequential appends through the single lock.
    let baseline = TimeSeriesDb::with_config(TsdbConfig {
        num_shards: 1,
        compress: false,
        ..TsdbConfig::default()
    });
    let t0 = Instant::now();
    let baseline_written = ingest_sequential(&baseline, &labels, &shape, seed);
    let baseline_seconds = t0.elapsed().as_secs_f64();

    // Phase 2: the production engine — default shard count, compression
    // on, batches fanned out per shard on the worker pool.
    let db = TimeSeriesDb::new();
    let t0 = Instant::now();
    let written = ingest_batched(&db, &labels, &shape, seed);
    let ingest_seconds = t0.elapsed().as_secs_f64();
    if written != baseline_written {
        return Err(env2vec_linalg::Error::InvalidArgument {
            what: "tsdb workload wrote different sample counts per engine",
        });
    }

    // Phase 3: late stragglers through the decode-splice-reseal path,
    // applied to both engines so the golden check covers it.
    late_writes(&baseline, &labels, &shape, seed);
    late_writes(&db, &labels, &shape, seed);

    // Phase 4: golden check — sealed+compressed vs flat storage must be
    // bit-identical wherever we look.
    let stride = (shape.series / 7).max(1);
    for s in (0..shape.series).step_by(stride) {
        if !series_match(&baseline, &db, &labels[s]) {
            return Err(env2vec_linalg::Error::InvalidArgument {
                what: "tsdb golden check failed: compressed engine diverged from flat baseline",
            });
        }
    }

    // Phase 5: queries. Latencies come from the engine's own histograms,
    // so the table shows what the report and Prometheus show.
    let span = shape.ticks * TICK_STRIDE;
    for q in 0..shape.range_queries {
        let s = (q * 13) % shape.series;
        let m = [LabelMatcher::eq("env", format!("EM_{s:04}"))];
        let lo = (q as i64 * 7) % (span / 2);
        db.query_range("cpu_usage", &m, lo, lo + span / 2);
    }
    // A heavier matcher: everything on one testbed (~series/97 series).
    for q in 0..shape.range_queries / 4 {
        let m = [LabelMatcher::eq("testbed", format!("Testbed_{}", q % 97))];
        db.query_range("cpu_usage", &m, 0, span);
    }
    for q in 0..shape.instant_queries {
        db.query_instant(
            "cpu_usage",
            &[],
            ((q as i64 * 31) % shape.ticks) * TICK_STRIDE,
        );
    }

    // Phase 6: cardinality churn — every series brand new, one sample.
    let t0 = Instant::now();
    for i in 0..shape.churn_series {
        let ls = LabelSet::new()
            .with("env", format!("EM_{:04}", i % 999))
            .with("exec", format!("run_{i}"));
        db.append(
            "vnf_exec_seconds",
            &ls,
            Sample {
                timestamp: i as i64,
                value: (i % 301) as f64,
            },
        );
    }
    let churn_seconds = t0.elapsed().as_secs_f64();

    let stats: TsdbStats = db.stats();
    let summary = TsdbOpsSummary {
        ingest_samples: written,
        ingest_seconds,
        baseline_seconds,
        range_p50_seconds: stats.range_latency.quantile(0.50),
        range_p99_seconds: stats.range_latency.quantile(0.99),
        instant_p99_seconds: stats.instant_latency.quantile(0.99),
        churn_series: shape.churn_series,
        churn_seconds,
        compression_ratio: stats.compression_ratio(),
        sealed_chunks: stats.sealed_chunks,
        sealed_bytes: stats.sealed_bytes,
        sealed_uncompressed_bytes: stats.sealed_uncompressed_bytes,
        out_of_order_inserts: stats.out_of_order_inserts,
    };

    let mut text = String::new();
    text.push_str(&format!(
        "TSDB storage-engine workload ({} series x {} scrapes = {} samples, {} shards)\n\n",
        shape.series,
        shape.ticks,
        written,
        db.num_shards(),
    ));
    text.push_str(&format!(
        "  {:<38} {:>10.2} Msamples/s  ({:.3} s)\n",
        "ingest, sharded+compressed (pool)",
        summary.ingest_msamples_per_sec(),
        ingest_seconds,
    ));
    text.push_str(&format!(
        "  {:<38} {:>10.2} Msamples/s  ({:.3} s)\n",
        "ingest, pre-shard baseline (flat)",
        summary.baseline_msamples_per_sec(),
        baseline_seconds,
    ));
    text.push_str(&format!(
        "  {:<38} {:>10.2}x\n",
        "ingest speedup vs baseline",
        summary.baseline_seconds / summary.ingest_seconds.max(1e-9),
    ));
    text.push_str(&format!(
        "  {:<38} {:>10.0} series/s    ({:.3} s for {})\n",
        "cardinality churn",
        summary.churn_series_per_sec(),
        churn_seconds,
        shape.churn_series,
    ));
    text.push_str(&format!(
        "\n  query latency (engine histograms):  range p50 {:.6} s  p99 {:.6} s  instant p99 {:.6} s\n",
        summary.range_p50_seconds, summary.range_p99_seconds, summary.instant_p99_seconds,
    ));
    text.push_str(&format!(
        "  sealed chunks: {}  compressed {} B  raw {} B  ratio {:.2}x\n",
        summary.sealed_chunks,
        summary.sealed_bytes,
        summary.sealed_uncompressed_bytes,
        summary.compression_ratio,
    ));
    text.push_str(&format!(
        "  out-of-order inserts (decode-splice-reseal): {}\n",
        summary.out_of_order_inserts,
    ));
    text.push_str(
        "  golden check: compressed/sharded results bit-identical to flat baseline  [ok]\n",
    );
    Ok((text, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_workload_runs_and_reports() {
        let opts = EvalOptions::fast();
        let (text, summary) = run(&opts).expect("workload runs");
        assert!(text.contains("golden check"));
        assert!(summary.ingest_samples >= 100_000);
        assert!(
            summary.compression_ratio >= 5.0,
            "quantized plateau telemetry must compress at least 5x, got {:.2}",
            summary.compression_ratio
        );
        assert!(summary.out_of_order_inserts > 0);
        assert!(summary.sealed_chunks > 0);
    }
}
