//! Testing-workflow substrate for the Env2Vec reproduction.
//!
//! Figure 2 of the paper wires the ML model into a concrete toolchain:
//! metrics flow from testbeds into **Prometheus** (step 1) keyed by an
//! environment-metadata record referenced from a service-discovery JSON
//! file; the prediction pipeline reads dataframes back over HTTP (step 3);
//! alarms land in **PostgreSQL** (step 4); and models are fetched from the
//! training pipeline's HTTP server (step 5). None of those services can be
//! assumed here, so this crate implements in-process equivalents with the
//! same interfaces and semantics:
//!
//! - [`labels`]: label sets and matchers (the Prometheus data model).
//! - [`tsdb`]: a label-indexed in-memory time-series database with
//!   range queries behind one lock; each series is one time-sorted
//!   vector of samples.
//! - [`histogram`]: the workspace's one latency histogram, used by the
//!   TSDB's self-instrumentation and re-exported by `env2vec-obs`.
//! - [`discovery`]: scrape-target records carrying the `env` label,
//!   serialised to exactly the JSON shape shown in §3 step 1.
//! - [`alarms`]: the alarm store — each alarm pinpoints the testbed and
//!   the time interval of the deviation, as §3 step 4 requires.
//! - [`registry`]: a versioned model registry standing in for the training
//!   pipeline's HTTP model server.

#![warn(missing_docs)]

pub mod alarms;
pub mod discovery;
pub mod histogram;
pub mod labels;
pub mod locks;
pub mod registry;
pub mod tsdb;

pub use alarms::{Alarm, AlarmStore};
pub use labels::{LabelMatcher, LabelSet};
pub use tsdb::{Sample, TimeSeriesDb, TsdbStats};
