//! Closed-loop self-monitoring for the Env2Vec pipeline.
//!
//! The paper's pitch is that a learned model can watch noisy telemetry
//! and flag misbehaving environments. This crate closes the loop: the
//! pipeline's *own* training telemetry is filed into the same
//! [`env2vec_telemetry::TimeSeriesDb`] it was built to test, under a
//! reserved pseudo-environment label ([`INTROSPECT_ENV`]), and then the
//! repo's own HTM anomaly detector plus simple threshold rules watch
//! those series and raise [`env2vec_telemetry::alarms::NewAlarm`]s when
//! training health degrades — the system dogfooding its own detection
//! stack on itself.
//!
//! Pieces:
//!
//! - [`observer`]: an [`env2vec_nn::trainer::TrainObserver`] that
//!   extends the core observability observer by also appending every
//!   per-epoch statistic as an epoch-indexed series in a TSDB under
//!   `{env="__introspect", model=<name>}`.
//! - [`watch`]: [`SelfMonitor`] — threshold rules (non-finite values,
//!   gradient-norm blow-up, validation-loss spikes) plus HTM-AD over
//!   long-enough series, writing alarms into an
//!   [`env2vec_telemetry::AlarmStore`].
//! - [`report`]: renders the text report (`repro report`) — histogram
//!   quantiles (p50/p95/p99) of every duration metric plus the alarm
//!   summary and the storage-engine section.
//!
//! Determinism: nothing in this crate reads a wall clock or OS entropy.
//! Series are indexed by epoch number or by the logical [`next_tick`]
//! counter, so a monitored run is a pure function of the seed, exactly
//! like an unmonitored one.

#![warn(missing_docs)]

pub mod observer;
pub mod report;
pub mod watch;

pub use observer::IntrospectObserver;
pub use watch::{SelfMonitor, WatchConfig};

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::OnceLock;

use env2vec_telemetry::discovery::{ScrapeTarget, ServiceDiscovery};
use env2vec_telemetry::{AlarmStore, LabelSet, TimeSeriesDb};

/// The reserved environment label under which the pipeline files its own
/// telemetry. Real testbed environments come from EM records and can
/// never collide with the double-underscore prefix.
pub const INTROSPECT_ENV: &str = "__introspect";

/// The label set every self-telemetry series carries.
pub fn introspect_labels() -> LabelSet {
    LabelSet::new().with("env", INTROSPECT_ENV)
}

/// Deterministic logical clock for scrape timestamps: a process-wide
/// monotone counter, so repeated scrapes land at distinct, reproducible
/// timestamps without touching the wall clock.
pub fn next_tick() -> i64 {
    static TICK: AtomicI64 = AtomicI64::new(0);
    TICK.fetch_add(1, Ordering::Relaxed) + 1
}

/// The process-wide self-telemetry TSDB (where [`IntrospectObserver`]
/// and the `repro` self-scraper file their series).
pub fn global_db() -> &'static TimeSeriesDb {
    static DB: OnceLock<TimeSeriesDb> = OnceLock::new();
    DB.get_or_init(TimeSeriesDb::new)
}

/// The process-wide alarm store the self-monitor raises into.
pub fn global_alarms() -> &'static AlarmStore {
    static ALARMS: OnceLock<AlarmStore> = OnceLock::new();
    ALARMS.get_or_init(AlarmStore::new)
}

/// Registers the introspection pseudo-environment as a scrape target, so
/// the self-monitoring loop is discoverable exactly like a real testbed
/// (§3 step 1 of the paper's workflow).
pub fn register_discovery(sd: &mut ServiceDiscovery) {
    sd.register(ScrapeTarget::for_env("self://introspect", INTROSPECT_ENV));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_monotone_and_distinct() {
        let a = next_tick();
        let b = next_tick();
        assert!(b > a);
    }

    #[test]
    fn introspect_env_is_reserved_shaped() {
        assert!(INTROSPECT_ENV.starts_with("__"));
        assert_eq!(introspect_labels().get("env"), Some(INTROSPECT_ENV));
    }

    #[test]
    fn discovery_registration_round_trips() {
        let mut sd = ServiceDiscovery::new();
        register_discovery(&mut sd);
        let json = sd.to_json();
        let back = ServiceDiscovery::from_json(&json).expect("valid discovery json");
        assert!(back
            .targets()
            .iter()
            .any(|t| t.env() == Some(INTROSPECT_ENV)));
    }
}
