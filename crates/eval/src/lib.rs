//! Evaluation toolkit: reproduces every table and figure of the paper.
//!
//! §4 of the paper evaluates Env2Vec three ways — VNF modelling on the KDN
//! benchmarks (§4.1, Table 3/4), the end-to-end testing workflow on the
//! telecom dataset (§4.2, Figures 1/3/4, Table 5), and unseen environments
//! (§4.3, Tables 6/7, Figure 6). This crate holds the machinery:
//!
//! - [`options`]: run-size knobs (`fast` for CI, `full` for paper scale).
//! - [`metrics`]: mean ± std over repeated runs' MAE/MSE scores (the
//!   scores themselves are `env2vec_linalg::stats::{mae, mse}`).
//! - [`alarm_eval`]: alarm-vs-ground-truth matching and the paper's
//!   `A_T`/`A_F` rates.
//! - [`render`]: plain-text tables, CDF plots and heatmaps for terminal
//!   output.
//! - [`kdn_models`]: trains all eight §4.1.3 methods on a KDN dataset.
//! - [`telecom_study`]: the shared telecom experiment state (per-chain
//!   baselines, pooled models, detectors) that Figures 3/4/6 and Tables
//!   5/6/7 all draw from.
//! - [`experiments`]: one module per table/figure; each returns both a
//!   structured result (asserted in tests) and rendered text (printed by
//!   the `repro` binary in `env2vec-bench`).

#![warn(missing_docs)]

pub mod alarm_eval;
pub mod experiments;
pub mod kdn_models;
pub mod metrics;
pub mod options;
pub mod render;
pub mod telecom_study;

pub use options::EvalOptions;

/// Takes a parallel job's result out of its slot.
///
/// An empty slot means the job never ran, which [`env2vec_par::scope`]
/// rules out for completed scopes — but the experiment drivers convert
/// it into an error rather than panicking, matching the crate's
/// no-panic policy.
pub(crate) fn take_job_result<T>(
    slot: &env2vec_par::Slot<env2vec_linalg::Result<T>>,
) -> env2vec_linalg::Result<T> {
    slot.take()
        .unwrap_or(Err(env2vec_linalg::Error::InvalidArgument {
            what: "parallel eval job produced no result",
        }))
}
