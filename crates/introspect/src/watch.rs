//! The closed-loop self-monitor: rules + the repo's own HTM detector
//! watching the pipeline's self-telemetry, raising alarms into the same
//! [`AlarmStore`] used for real testbed deviations.
//!
//! Three threshold rules catch the classic training pathologies
//! directly — non-finite values anywhere, gradient-norm blow-up, and
//! validation-loss spikes relative to the best seen — and HTM-AD runs
//! over any series long enough for the temporal memory to have learned
//! its rhythm, catching drifts the hand-written rules don't name. One
//! alarm is raised per `(series, rule)` covering the whole anomalous
//! interval, with the peak deviation recorded, so a diverging run yields
//! a handful of precise alarms rather than one per epoch.

use env2vec_htm::{HtmAnomalyDetector, HtmConfig};
use env2vec_telemetry::alarms::NewAlarm;
use env2vec_telemetry::tsdb::Series;
use env2vec_telemetry::{AlarmStore, LabelMatcher, TimeSeriesDb};

use crate::observer::EPOCH_SERIES;
use crate::INTROSPECT_ENV;

/// Gradient-norm ceiling: `train_grad_norm` above this alarms
/// (divergence).
const GRAD_NORM_MAX: f64 = 1e4;
/// Loss-spike factor: `train_val_loss` above `ratio × best-so-far`
/// alarms (instability after progress).
const LOSS_SPIKE_RATIO: f64 = 4.0;
/// HTM raw-score alarm threshold (the paper's §4.2.2 rule uses 1.0).
const HTM_THRESHOLD: f64 = 1.0;
/// Minimum finite points before HTM-AD is consulted — shorter series
/// haven't given the temporal memory anything to learn.
const HTM_MIN_POINTS: usize = 48;
/// HTM readings ignored at the start of a series (everything is novel
/// to an untrained temporal memory).
const HTM_WARMUP: usize = 24;
/// Consecutive flagged readings required before HTM alarms — online
/// learning emits sporadic single-point spikes even on a learned
/// signal, so isolated flags are noise and only a sustained run of them
/// is a rhythm break.
const HTM_PERSISTENCE: usize = 3;

/// One rule violation found in one series (pre-alarm form).
#[derive(Debug, Clone)]
struct Violation {
    rule: &'static str,
    start: i64,
    end: i64,
    gamma: f64,
    predicted: f64,
    observed: f64,
}

/// Watches the `__introspect` training curves in a TSDB and raises
/// alarms.
#[derive(Debug)]
pub struct SelfMonitor<'a> {
    db: &'a TimeSeriesDb,
}

impl<'a> SelfMonitor<'a> {
    /// A monitor over `db`.
    pub fn new(db: &'a TimeSeriesDb) -> Self {
        SelfMonitor { db }
    }

    /// Runs every rule over every `__introspect`-labelled series the
    /// [`crate::IntrospectObserver`] writes ([`EPOCH_SERIES`]), pushing
    /// one alarm per violation into `alarms`. Returns the number of
    /// alarms raised. Deterministic: series are visited in (metric,
    /// labels) order and every rule is a pure function of the samples.
    pub fn run(&self, alarms: &AlarmStore) -> usize {
        let matchers = [LabelMatcher::eq("env", INTROSPECT_ENV)];
        let mut metrics = EPOCH_SERIES;
        metrics.sort_unstable();
        let mut raised = 0;
        for metric in metrics {
            for series in self.db.query_range(metric, &matchers, i64::MIN, i64::MAX) {
                for v in self.check_series(metric, &series) {
                    alarms.push(NewAlarm {
                        env: series.labels.clone(),
                        metric: metric.to_string(),
                        start: v.start,
                        end: v.end,
                        gamma: v.gamma,
                        predicted: v.predicted,
                        observed: v.observed,
                        message: format!(
                            "self-monitor[{}]: {} {} (limit {:.6}, peak {:.6})",
                            v.rule,
                            metric,
                            match v.rule {
                                "non-finite" => "produced a non-finite value",
                                "grad-blowup" => "exceeded the gradient-norm ceiling",
                                "loss-spike" => "spiked above the best seen loss",
                                _ => "deviated from its learned rhythm",
                            },
                            v.predicted,
                            v.observed,
                        ),
                    });
                    raised += 1;
                }
            }
        }
        raised
    }

    /// All violations in one series, in rule order.
    fn check_series(&self, metric: &str, series: &Series) -> Vec<Violation> {
        let mut out = Vec::new();
        out.extend(self.non_finite(series));
        if metric == "train_grad_norm" {
            out.extend(self.above_ceiling(series, GRAD_NORM_MAX, "grad-blowup"));
        }
        if metric == "train_val_loss" {
            out.extend(self.loss_spike(series));
        }
        out.extend(self.htm_anomaly(series));
        out
    }

    /// Rule: any non-finite sample (NaN loss, inf gradient).
    fn non_finite(&self, series: &Series) -> Option<Violation> {
        let bad: Vec<_> = series
            .samples
            .iter()
            .filter(|s| !s.value.is_finite())
            .collect();
        let first = bad.first()?;
        let last = bad.last()?;
        Some(Violation {
            rule: "non-finite",
            start: first.timestamp,
            end: last.timestamp,
            gamma: f64::INFINITY,
            predicted: 0.0,
            observed: first.value,
        })
    }

    /// Rule: values above a hard ceiling.
    fn above_ceiling(&self, series: &Series, max: f64, rule: &'static str) -> Option<Violation> {
        let over: Vec<_> = series
            .samples
            .iter()
            .filter(|s| s.value.is_finite() && s.value > max)
            .collect();
        let first = over.first()?;
        let last = over.last()?;
        let peak = over
            .iter()
            .map(|s| s.value)
            .fold(f64::NEG_INFINITY, f64::max);
        Some(Violation {
            rule,
            start: first.timestamp,
            end: last.timestamp,
            gamma: max,
            predicted: max,
            observed: peak,
        })
    }

    /// Rule: validation loss spiking above `ratio × best-so-far` (only
    /// after a best exists, so a slow first epoch never alarms).
    fn loss_spike(&self, series: &Series) -> Option<Violation> {
        let ratio = LOSS_SPIKE_RATIO;
        let mut best = f64::INFINITY;
        let mut spikes: Vec<(i64, f64, f64)> = Vec::new();
        for s in &series.samples {
            if !s.value.is_finite() {
                continue;
            }
            if best.is_finite() && s.value > ratio * best {
                spikes.push((s.timestamp, s.value, ratio * best));
            }
            best = best.min(s.value);
        }
        let &(start, _, _) = spikes.first()?;
        let &(end, _, _) = spikes.last()?;
        let &(_, peak, limit) = spikes
            .iter()
            .max_by(|a, b| (a.1 / a.2).total_cmp(&(b.1 / b.2)))?;
        Some(Violation {
            rule: "loss-spike",
            start,
            end,
            gamma: ratio,
            predicted: limit,
            observed: peak,
        })
    }

    /// Rule: HTM-AD over series long enough for the temporal memory to
    /// have learned a rhythm. Non-finite points are excluded (rule 1
    /// already covers them); constant series are skipped (the scalar
    /// encoder needs a non-empty value range).
    fn htm_anomaly(&self, series: &Series) -> Option<Violation> {
        let finite: Vec<_> = series
            .samples
            .iter()
            .filter(|s| s.value.is_finite())
            .collect();
        if finite.len() < HTM_MIN_POINTS {
            return None;
        }
        let min = finite.iter().map(|s| s.value).fold(f64::INFINITY, f64::min);
        let max = finite
            .iter()
            .map(|s| s.value)
            .fold(f64::NEG_INFINITY, f64::max);
        let span = max - min;
        if span <= 0.0 || !span.is_finite() {
            return None;
        }
        // Pad the range so boundary values encode cleanly.
        let pad = 0.05 * span;
        let mut detector = HtmAnomalyDetector::new(HtmConfig::for_range(min - pad, max + pad));
        let values: Vec<f64> = finite.iter().map(|s| s.value).collect();
        let readings = detector.process_series(&values);
        // `(position, timestamp, value, raw_score)` for flagged readings
        // past the warmup; position adjacency defines persistence runs.
        let all_flagged: Vec<(usize, i64, f64, f64)> = readings
            .iter()
            .zip(&finite)
            .enumerate()
            .skip(HTM_WARMUP)
            .filter(|(_, (r, _))| r.alarms_at(HTM_THRESHOLD))
            .map(|(i, (r, s))| (i, s.timestamp, s.value, r.raw_score))
            .collect();
        // Keep only members of runs of >= HTM_PERSISTENCE consecutive
        // flagged readings.
        let mut flagged: Vec<(i64, f64, f64)> = Vec::new();
        let mut run_start = 0;
        for j in 1..=all_flagged.len() {
            let run_ends = j == all_flagged.len() || all_flagged[j].0 != all_flagged[j - 1].0 + 1;
            if run_ends {
                if j - run_start >= HTM_PERSISTENCE {
                    flagged.extend(
                        all_flagged[run_start..j]
                            .iter()
                            .map(|&(_, t, v, r)| (t, v, r)),
                    );
                }
                run_start = j;
            }
        }
        let &(start, _, _) = flagged.first()?;
        let &(end, _, _) = flagged.last()?;
        let &(_, peak_value, _) = flagged.iter().max_by(|a, b| a.2.total_cmp(&b.2))?;
        Some(Violation {
            rule: "htm",
            start,
            end,
            gamma: HTM_THRESHOLD,
            predicted: HTM_THRESHOLD,
            observed: peak_value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use env2vec_telemetry::tsdb::Sample;
    use env2vec_telemetry::LabelSet;

    fn seed_series(db: &TimeSeriesDb, model: &str, metric: &str, values: &[f64]) {
        let labels = crate::introspect_labels().with("model", model);
        for (i, &v) in values.iter().enumerate() {
            db.upsert(
                metric,
                &labels,
                Sample {
                    timestamp: i as i64,
                    value: v,
                },
            );
        }
    }

    /// A healthy decaying loss curve with mild noise.
    fn healthy_loss(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 2.0 * (-0.1 * i as f64).exp() + 0.3 + 0.01 * ((i * 7 % 5) as f64))
            .collect()
    }

    #[test]
    fn healthy_series_raise_no_alarms() {
        let db = TimeSeriesDb::new();
        seed_series(&db, "healthy", "train_val_loss", &healthy_loss(25));
        let grads: Vec<f64> = (0..25).map(|i| 8.0 / (1.0 + i as f64)).collect();
        seed_series(&db, "healthy", "train_grad_norm", &grads);
        let alarms = AlarmStore::new();
        assert_eq!(SelfMonitor::new(&db).run(&alarms), 0);
        assert!(alarms.all().is_empty());
    }

    #[test]
    fn nan_loss_raises_a_non_finite_alarm() {
        let db = TimeSeriesDb::new();
        let mut loss = healthy_loss(10);
        loss[6] = f64::NAN;
        loss[8] = f64::NAN;
        seed_series(&db, "nan", "train_val_loss", &loss);
        let alarms = AlarmStore::new();
        assert!(SelfMonitor::new(&db).run(&alarms) >= 1);
        let raised = alarms.by_env_label("model", "nan");
        assert_eq!(raised.len(), 1, "one alarm per (series, rule)");
        assert_eq!(raised[0].metric, "train_val_loss");
        assert_eq!(raised[0].start, 6);
        assert_eq!(raised[0].end, 8);
        assert!(raised[0].message.contains("non-finite"));
    }

    #[test]
    fn gradient_blowup_raises_with_peak_recorded() {
        let db = TimeSeriesDb::new();
        let mut grads: Vec<f64> = (0..12).map(|i| 5.0 + i as f64).collect();
        grads[9] = 5e6;
        grads[10] = 9e6;
        seed_series(&db, "blowup", "train_grad_norm", &grads);
        let alarms = AlarmStore::new();
        SelfMonitor::new(&db).run(&alarms);
        let raised = alarms.by_env_label("model", "blowup");
        assert_eq!(raised.len(), 1);
        assert_eq!((raised[0].start, raised[0].end), (9, 10));
        assert_eq!(raised[0].observed, 9e6);
        assert_eq!(raised[0].gamma, 1e4);
    }

    #[test]
    fn loss_spike_after_progress_raises_but_slow_start_does_not() {
        let db = TimeSeriesDb::new();
        // Starts high — that alone must not alarm.
        let mut loss = vec![10.0, 4.0, 1.0, 0.8, 0.7];
        loss.push(5.0); // 5.0 > 4 × 0.7 after progress: spike.
        seed_series(&db, "spiky", "train_val_loss", &loss);
        let alarms = AlarmStore::new();
        SelfMonitor::new(&db).run(&alarms);
        let raised = alarms.by_env_label("model", "spiky");
        assert_eq!(raised.len(), 1);
        assert!(raised[0].message.contains("loss-spike"));
        assert_eq!(raised[0].start, 5);
    }

    #[test]
    fn htm_flags_a_rhythm_break_in_a_long_series() {
        // A clean periodic signal the temporal memory can learn...
        let clean: Vec<f64> = (0..600)
            .map(|i| 50.0 + 30.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect();
        // ...and the same signal with a phase break late in the series.
        let mut broken = clean.clone();
        for (k, v) in broken.iter_mut().enumerate().skip(580) {
            *v = 50.0 + 30.0 * (((k * 7) % 13) as f64 / 13.0);
        }
        // The last HTM-flagged point of a curve that no other rule
        // watches. Both curves flag while the temporal memory learns;
        // only the broken one is flagged again at the break.
        let htm_alarm_end = |model: &str, values: &[f64]| {
            let db = TimeSeriesDb::new();
            seed_series(&db, model, "train_param_norm", values);
            let alarms = AlarmStore::new();
            SelfMonitor::new(&db).run(&alarms);
            let raised = alarms.by_env_label("model", model);
            assert_eq!(raised.len(), 1, "one htm alarm expected: {raised:?}");
            assert!(raised[0].message.contains("rhythm"), "{raised:?}");
            raised[0].end
        };
        assert!(
            htm_alarm_end("rhythm", &broken) >= 580,
            "alarm reaches the break"
        );
        assert!(
            htm_alarm_end("rhythm_clean", &clean) < 580,
            "clean rhythm stays learned"
        );
    }

    #[test]
    fn only_introspect_labelled_series_are_watched() {
        let db = TimeSeriesDb::new();
        let real_env = LabelSet::new().with("env", "testbed-1");
        for i in 0..10 {
            db.upsert(
                "train_grad_norm",
                &real_env,
                Sample {
                    timestamp: i,
                    value: f64::NAN,
                },
            );
        }
        let alarms = AlarmStore::new();
        assert_eq!(SelfMonitor::new(&db).run(&alarms), 0);
    }
}
