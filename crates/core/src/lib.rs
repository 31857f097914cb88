//! Env2Vec: environment-embedding deep learning for VNF test diagnosis.
//!
//! This crate is the Rust reproduction of the system described in
//! *Env2Vec: Accelerating VNF Testing with Deep Learning* (Piao, Nicholson
//! & Lugones, EuroSys 2020). Env2Vec predicts a VNF's resource usage from
//! three inputs — contextual features (workload + performance metrics), a
//! sliding window of recent resource usage, and environment-metadata
//! labels — and flags a *contextual anomaly* whenever the observed usage
//! of a new software build deviates from the prediction by more than
//! `γ · σ` of the historical error distribution.
//!
//! The architecture (paper §3.1–§3.2, Appendix A):
//!
//! ```text
//! CFs ──────────► FNN (1 hidden sigmoid layer) ──► v_fs ─┐
//! RU history ───► GRU (ReLU candidate)         ──► v_ts ─┴─► [v_ts, v_fs]
//!                                                             │ dense
//! EM labels ────► per-feature lookup tables ──► C = [ec¹..ecᵏ]▼
//!                                       ŷ = Σ ( v_d ⊙ C )     v_d
//! ```
//!
//! Modules:
//!
//! - [`config`]: hyper-parameters (embedding dim 10, MSE + Adam, dropout,
//!   early stopping — the paper's training recipe).
//! - [`vocab`]: per-EM-feature vocabularies with the `<unk>` row.
//! - [`dataframe`]: the Table 2 dataframe — CFs ∪ EM ∪ RU-history rows —
//!   built from raw executions.
//! - [`model`]: [`model::Env2VecModel`]; its embedding-free
//!   [`config::Combination::NoEmbeddings`] mode is the paper's
//!   `RFNN`/`RFNN_all` baseline.
//! - [`train`]: mini-batch Adam training with dropout and early stopping.
//! - [`anomaly`]: the Gaussian-error contextual anomaly detector with the
//!   γ·σ rule and the 5-percentage-point absolute filter of §4.2.2, plus
//!   the unseen-environment variant of §4.3.
//! - [`pipeline`]: the Figure 2 workflow glue — collect metrics into the
//!   TSDB, train, predict, and raise alarms into the alarm store.
//! - [`serialize`]: whole-model persistence ("less than 10MB storage
//!   space, for a file containing the environment embeddings and the DL
//!   model", §6).

#![warn(missing_docs)]

pub mod anomaly;
pub mod config;
pub mod dataframe;
pub mod model;
pub mod pipeline;
pub mod serialize;
pub mod train;
pub mod vocab;

pub use anomaly::{AnomalyDetector, AnomalyInterval};
pub use config::Env2VecConfig;
pub use dataframe::Dataframe;
pub use model::Env2VecModel;
pub use vocab::EmVocabulary;
