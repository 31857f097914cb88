//! Alarm store — the PostgreSQL stand-in.
//!
//! §3 step 4: "Upon detecting anomalies, Env2Vec pushes an alarm into a
//! PostgreSQL database. This alarm contains all the relevant information
//! to allow a testing engineer ... to pinpoint on which testbed the issue
//! occurred, and during which time interval." [`Alarm`] carries exactly
//! those fields; [`AlarmStore`] supports the queries the workflow needs
//! (by environment, by time overlap) and is safe for concurrent
//! detectors.

use serde::{Deserialize, Serialize};

use crate::labels::LabelSet;
use crate::locks::TrackedRwLock;

/// One raised alarm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alarm {
    /// Monotonically increasing id assigned by the store.
    pub id: u64,
    /// Environment labels (testbed, SUT, test case, build) of the
    /// offending execution.
    pub env: LabelSet,
    /// Metric the deviation was observed on (e.g. `cpu_usage`).
    pub metric: String,
    /// First timestep of the anomalous interval.
    pub start: i64,
    /// Last timestep of the anomalous interval (inclusive).
    pub end: i64,
    /// The detector's γ setting when the alarm fired.
    pub gamma: f64,
    /// Model-predicted value at the peak deviation.
    pub predicted: f64,
    /// Observed value at the peak deviation.
    pub observed: f64,
    /// Free-text description for the engineer.
    pub message: String,
}

impl Alarm {
    /// Whether this alarm's interval overlaps `[start, end]`.
    pub fn overlaps(&self, start: i64, end: i64) -> bool {
        self.start <= end && start <= self.end
    }
}

/// Fields for a new alarm (the store assigns the id).
#[derive(Debug, Clone)]
pub struct NewAlarm {
    /// Environment labels of the offending execution.
    pub env: LabelSet,
    /// Metric the deviation was observed on.
    pub metric: String,
    /// First anomalous timestep.
    pub start: i64,
    /// Last anomalous timestep (inclusive).
    pub end: i64,
    /// Detector γ.
    pub gamma: f64,
    /// Predicted value at peak deviation.
    pub predicted: f64,
    /// Observed value at peak deviation.
    pub observed: f64,
    /// Free-text description.
    pub message: String,
}

/// Concurrent alarm database.
#[derive(Debug)]
pub struct AlarmStore {
    inner: TrackedRwLock<Vec<Alarm>>,
}

impl Default for AlarmStore {
    fn default() -> Self {
        Self::new()
    }
}

impl AlarmStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        AlarmStore {
            inner: TrackedRwLock::new("telemetry.alarms", Vec::new()),
        }
    }

    /// Inserts an alarm, returning its assigned id.
    pub fn push(&self, new: NewAlarm) -> u64 {
        let mut inner = self.inner.write();
        let id = inner.len() as u64;
        inner.push(Alarm {
            id,
            env: new.env,
            metric: new.metric,
            start: new.start,
            end: new.end,
            gamma: new.gamma,
            predicted: new.predicted,
            observed: new.observed,
            message: new.message,
        });
        id
    }

    /// Total number of alarms.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// All alarms, in insertion order.
    pub fn all(&self) -> Vec<Alarm> {
        self.inner.read().clone()
    }

    /// Alarms whose environment carries `label = value`.
    pub fn by_env_label(&self, label: &str, value: &str) -> Vec<Alarm> {
        self.inner
            .read()
            .iter()
            .filter(|a| a.env.get(label) == Some(value))
            .cloned()
            .collect()
    }

    /// Alarms overlapping the time interval `[start, end]`.
    pub fn in_interval(&self, start: i64, end: i64) -> Vec<Alarm> {
        self.inner
            .read()
            .iter()
            .filter(|a| a.overlaps(start, end))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new_alarm(env_id: &str, start: i64, end: i64) -> NewAlarm {
        NewAlarm {
            env: LabelSet::new()
                .with("env", env_id)
                .with("testbed", "Testbed_01"),
            metric: "cpu_usage".into(),
            start,
            end,
            gamma: 2.0,
            predicted: 45.0,
            observed: 78.0,
            message: "CPU deviates from baseline".into(),
        }
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let store = AlarmStore::new();
        assert_eq!(store.push(new_alarm("EM_1", 0, 5)), 0);
        assert_eq!(store.push(new_alarm("EM_2", 10, 12)), 1);
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
    }

    #[test]
    fn query_by_env_label() {
        let store = AlarmStore::new();
        store.push(new_alarm("EM_1", 0, 5));
        store.push(new_alarm("EM_2", 3, 8));
        store.push(new_alarm("EM_1", 20, 25));
        let hits = store.by_env_label("env", "EM_1");
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|a| a.env.get("env") == Some("EM_1")));
        assert!(store.by_env_label("env", "EM_9").is_empty());
    }

    #[test]
    fn interval_overlap_queries() {
        let store = AlarmStore::new();
        store.push(new_alarm("EM_1", 0, 5));
        store.push(new_alarm("EM_2", 10, 20));
        assert_eq!(store.in_interval(4, 12).len(), 2);
        assert_eq!(store.in_interval(6, 9).len(), 0);
        assert_eq!(store.in_interval(5, 5).len(), 1);
    }

    #[test]
    fn alarm_pinpoints_testbed_and_interval() {
        // The paper's requirement: enough information to locate the issue.
        let store = AlarmStore::new();
        store.push(new_alarm("EM_7", 42, 48));
        let alarm = &store.all()[0];
        assert_eq!(alarm.env.get("testbed"), Some("Testbed_01"));
        assert_eq!((alarm.start, alarm.end), (42, 48));
        assert!(alarm.observed > alarm.predicted);
    }

    #[test]
    fn concurrent_pushes_assign_unique_ids() {
        use std::sync::Arc;
        let store = Arc::new(AlarmStore::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    store.push(new_alarm("EM_X", i, i + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut ids: Vec<u64> = store.all().iter().map(|a| a.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }
}
