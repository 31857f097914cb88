//! Property-based tests for the telemetry substrate.

use env2vec_telemetry::alarms::{AlarmStore, NewAlarm};
use env2vec_telemetry::discovery::{ScrapeTarget, ServiceDiscovery};
use env2vec_telemetry::labels::{LabelMatcher, LabelSet};
use env2vec_telemetry::tsdb::{Sample, TimeSeriesDb};
use proptest::prelude::*;

proptest! {
    /// The database's range results equal, bit for bit, those of one
    /// sorted `Vec` fed the same writes, where a duplicate timestamp
    /// lands after its equals. Most writes arrive out of order and many
    /// timestamps repeat.
    #[test]
    fn db_matches_a_sorted_vec_with_duplicates_after_their_equals(
        raw in proptest::collection::vec((0i64..4000, u64::MIN..=u64::MAX), 300..1500),
        window in (0i64..4000, 0i64..4000),
    ) {
        let db = TimeSeriesDb::new();
        let labels = LabelSet::new().with("env", "E");
        let mut reference: Vec<Sample> = Vec::new();
        for &(timestamp, bits) in &raw {
            let s = Sample { timestamp, value: f64::from_bits(bits) };
            db.append("m", &labels, s);
            // A duplicate timestamp lands after its equals.
            let at = reference.partition_point(|x| x.timestamp <= timestamp);
            reference.insert(at, s);
        }
        let (lo, hi) = (window.0.min(window.1), window.0.max(window.1));
        for (start, end) in [(i64::MIN, i64::MAX), (lo, hi)] {
            let got = db.query_range("m", &[], start, end);
            let want: Vec<&Sample> = reference
                .iter()
                .filter(|s| (start..=end).contains(&s.timestamp))
                .collect();
            let got = got.first().map(|s| s.samples.as_slice()).unwrap_or_default();
            prop_assert_eq!(got.len(), want.len());
            for (x, y) in got.iter().zip(want) {
                prop_assert_eq!(x.timestamp, y.timestamp);
                prop_assert_eq!(x.value.to_bits(), y.value.to_bits());
            }
        }
    }

    /// Whatever order samples arrive in, range queries return them sorted
    /// and complete.
    #[test]
    fn tsdb_returns_sorted_complete_series(
        mut timestamps in proptest::collection::vec(0i64..1000, 1..50),
    ) {
        let db = TimeSeriesDb::new();
        let labels = LabelSet::new().with("env", "E");
        for &t in &timestamps {
            db.append("m", &labels, Sample { timestamp: t, value: t as f64 });
        }
        let series = db.query_range("m", &[], i64::MIN, i64::MAX);
        prop_assert_eq!(series.len(), 1);
        let got: Vec<i64> = series[0].samples.iter().map(|s| s.timestamp).collect();
        timestamps.sort_unstable();
        prop_assert_eq!(got, timestamps);
    }

    /// Range queries partition cleanly: [a, m] ∪ (m, b] = [a, b].
    #[test]
    fn tsdb_range_partition(
        timestamps in proptest::collection::btree_set(0i64..200, 1..40),
        mid in 0i64..200,
    ) {
        let db = TimeSeriesDb::new();
        let labels = LabelSet::new().with("env", "E");
        for &t in &timestamps {
            db.append("m", &labels, Sample { timestamp: t, value: 1.0 });
        }
        let count = |lo: i64, hi: i64| -> usize {
            db.query_range("m", &[], lo, hi)
                .first()
                .map(|s| s.samples.len())
                .unwrap_or(0)
        };
        prop_assert_eq!(count(0, 199), count(0, mid) + count(mid + 1, 199));
    }

    /// Matchers are consistent: Eq and NotEq partition any series set.
    #[test]
    fn matchers_partition_series(n_series in 1usize..10, probe in 0usize..10) {
        let db = TimeSeriesDb::new();
        for s in 0..n_series {
            let labels = LabelSet::new().with("env", format!("E{s}"));
            db.append("m", &labels, Sample { timestamp: 0, value: 0.0 });
        }
        let key = format!("E{probe}");
        let eq = db.query_range("m", &[LabelMatcher::eq("env", key.clone())], 0, 0).len();
        let ne = db
            .query_range("m", &[LabelMatcher::NotEq("env".into(), key)], 0, 0)
            .len();
        prop_assert_eq!(eq + ne, n_series);
    }

    /// Alarm ids are dense and queries never invent alarms.
    #[test]
    fn alarm_store_id_density(count in 0usize..30) {
        let store = AlarmStore::new();
        for i in 0..count {
            let id = store.push(NewAlarm {
                env: LabelSet::new().with("env", format!("E{}", i % 3)),
                metric: "cpu".into(),
                start: i as i64,
                end: i as i64 + 1,
                gamma: 1.0,
                predicted: 0.0,
                observed: 10.0,
                message: String::new(),
            });
            prop_assert_eq!(id, i as u64);
        }
        prop_assert_eq!(store.len(), count);
        let by_env: usize = (0..3).map(|e| store.by_env_label("env", &format!("E{e}")).len()).sum();
        prop_assert_eq!(by_env, count);
    }

    /// Service-discovery JSON round-trips for arbitrary registrations.
    #[test]
    fn discovery_json_round_trip(envs in proptest::collection::vec("[A-Za-z0-9_]{1,12}", 0..10)) {
        let mut sd = ServiceDiscovery::new();
        for (i, env) in envs.iter().enumerate() {
            sd.register(ScrapeTarget::for_env(format!("10.0.0.{i}:9100"), env.clone()));
        }
        let back = ServiceDiscovery::from_json(&sd.to_json()).unwrap();
        prop_assert_eq!(back, sd);
    }
}
