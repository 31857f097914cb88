//! Fleet-scale golden regression: at 10k series × 1k samples (10M
//! samples) the engine must return bit-identical range results to a
//! linear-scan reference, across label-matcher kinds and result order,
//! late out-of-order writes, and NaN duplicates of existing timestamps.
//! Values come from `datagen`'s stochastic-process helpers, so they are
//! full-precision floats.
//!
//! The reference implementation lives in this file on purpose: one
//! `Vec<Sample>` per series, sorted insert and a linear matcher scan,
//! kept alive as an executable specification that cannot silently
//! evolve with the engine.

use env2vec_datagen::process;
use env2vec_telemetry::{LabelMatcher, LabelSet, Sample, TimeSeriesDb};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SERIES: usize = 10_000;
const SAMPLES_PER_SERIES: usize = 1_000;
/// Scrape stride in logical time units.
const STRIDE: i64 = 30;

/// The reference storage model: label set + sorted `Vec<Sample>`, one
/// entry per series, matchers applied by linear scan.
struct NaiveDb {
    series: Vec<(LabelSet, Vec<Sample>)>,
}

impl NaiveDb {
    fn new() -> Self {
        NaiveDb { series: Vec::new() }
    }

    /// Sorted insert, equal timestamps kept in arrival order — the
    /// append semantics the engine documents.
    fn append(&mut self, idx: usize, s: Sample) {
        let samples = &mut self.series[idx].1;
        let at = samples.partition_point(|x| x.timestamp <= s.timestamp);
        samples.insert(at, s);
    }

    fn query_range(
        &self,
        matchers: &[LabelMatcher],
        start: i64,
        end: i64,
    ) -> Vec<(LabelSet, Vec<Sample>)> {
        let mut out: Vec<(LabelSet, Vec<Sample>)> = self
            .series
            .iter()
            .filter(|(labels, _)| labels.matches(matchers))
            .map(|(labels, samples)| {
                let lo = samples.partition_point(|x| x.timestamp < start);
                let hi = samples.partition_point(|x| x.timestamp <= end);
                (labels.clone(), samples[lo..hi].to_vec())
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

fn fleet_labels() -> Vec<LabelSet> {
    (0..SERIES)
        .map(|i| {
            LabelSet::new()
                .with("env", format!("EM_{:04}", i % 400))
                .with("exec", format!("run_{:05}", i / 400))
                .with("testbed", format!("Testbed_{}", i % 97))
        })
        .collect()
}

/// Per-series signal: shared diurnal load shape (phase-shifted per
/// series) plus AR(1) noise — full-precision values, no quantization.
fn series_values(series: usize, diurnal: &[f64]) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(0x5eed ^ (series as u64).wrapping_mul(0x9e37_79b9));
    let noise = process::ar1(&mut rng, SAMPLES_PER_SERIES, 0.8, 2.5);
    (0..SAMPLES_PER_SERIES)
        .map(|t| 20.0 + 55.0 * diurnal[(t + series * 7) % diurnal.len()] + noise[t])
        .collect()
}

fn assert_range_identical(
    engine: &[env2vec_telemetry::tsdb::Series],
    naive: &[(LabelSet, Vec<Sample>)],
    what: &str,
) {
    assert_eq!(engine.len(), naive.len(), "{what}: series count");
    for (got, want) in engine.iter().zip(naive) {
        assert_eq!(got.labels, want.0, "{what}: series order");
        assert_eq!(
            got.samples.len(),
            want.1.len(),
            "{what}: sample count for {}",
            got.labels
        );
        for (a, b) in got.samples.iter().zip(&want.1) {
            assert_eq!(a.timestamp, b.timestamp, "{what}: timestamp");
            assert_eq!(
                a.value.to_bits(),
                b.value.to_bits(),
                "{what}: value bits at t={}",
                a.timestamp
            );
        }
    }
}

#[test]
fn fleet_scale_matches_naive_reference() {
    let labels = fleet_labels();
    let diurnal = process::diurnal(SAMPLES_PER_SERIES, 5.0, 0.0);

    let db = TimeSeriesDb::new();
    let mut naive = NaiveDb::new();
    for (i, ls) in labels.iter().enumerate() {
        let values = series_values(i, &diurnal);
        let samples: Vec<Sample> = values
            .iter()
            .enumerate()
            .map(|(t, &v)| Sample {
                timestamp: t as i64 * STRIDE,
                value: v,
            })
            .collect();
        db.append_series("cpu_usage", ls, &samples);
        naive.series.push((ls.clone(), samples));
    }
    assert_eq!(db.num_series(), SERIES);
    assert_eq!(db.num_samples(), SERIES * SAMPLES_PER_SERIES);

    // Late out-of-order stragglers plus duplicate timestamps, mirrored
    // into the reference the same way.
    for (i, ls) in labels.iter().take(50).enumerate() {
        for k in 0..5i64 {
            let s = Sample {
                timestamp: 10 * STRIDE + k * STRIDE + 1,
                value: 1000.0 + i as f64 + k as f64 / 7.0,
            };
            db.append("cpu_usage", ls, s);
            naive.append(i, s);
        }
        // An exact duplicate of an existing timestamp.
        let dup = Sample {
            timestamp: 5 * STRIDE,
            value: f64::NAN,
        };
        db.append("cpu_usage", ls, dup);
        naive.append(i, dup);
    }

    let span = SAMPLES_PER_SERIES as i64 * STRIDE;

    // One env — 25 series, full range (includes the spliced series).
    for env in ["EM_0000", "EM_0017", "EM_0399"] {
        let m = [LabelMatcher::eq("env", env)];
        assert_range_identical(
            &db.query_range("cpu_usage", &m, i64::MIN, i64::MAX),
            &naive.query_range(&m, i64::MIN, i64::MAX),
            env,
        );
    }

    // Conjunction pinning one exact series, interior window.
    let m = [
        LabelMatcher::eq("env", "EM_0123"),
        LabelMatcher::eq("exec", "run_00003"),
    ];
    assert_range_identical(
        &db.query_range("cpu_usage", &m, span / 4, 3 * span / 4),
        &naive.query_range(&m, span / 4, 3 * span / 4),
        "conjunction",
    );

    // In-matcher across three envs, mid window.
    let m = [LabelMatcher::In(
        "env".into(),
        vec!["EM_0001".into(), "EM_0042".into(), "EM_0300".into()],
    )];
    assert_range_identical(
        &db.query_range("cpu_usage", &m, span / 3, span / 2),
        &naive.query_range(&m, span / 3, span / 2),
        "in-matcher",
    );

    // Negation hits ~9975 series — keep the window narrow so the
    // comparison stays cheap.
    let m = [LabelMatcher::NotEq("env".into(), "EM_0000".into())];
    assert_range_identical(
        &db.query_range("cpu_usage", &m, 100 * STRIDE, 103 * STRIDE),
        &naive.query_range(&m, 100 * STRIDE, 103 * STRIDE),
        "negation",
    );

    // Matcher on an absent label selects nothing.
    let m = [LabelMatcher::eq("no_such_label", "x")];
    assert!(db.query_range("cpu_usage", &m, 0, span).is_empty());
}
