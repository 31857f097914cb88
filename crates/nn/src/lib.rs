//! Tape-based neural-network engine for the Env2Vec reproduction.
//!
//! The paper implements its deep-learning pipeline with Keras and TensorFlow
//! (§3, Figure 2). No comparably mature stack exists as an offline Rust
//! dependency, so this crate re-implements the small slice of a DL framework
//! that Env2Vec actually needs, from scratch:
//!
//! - [`graph`]: a define-by-run computation [`Graph`] with
//!   reverse-mode automatic differentiation over
//!   [`Matrix`](env2vec_linalg::Matrix) values. The op set (matmul,
//!   broadcast add, Hadamard product, sigmoid/tanh/ReLU, column
//!   concatenation, row sums, embedding row gather, dropout, mean) is
//!   exactly what the Env2Vec architecture and its neural baselines compose.
//! - [`params`]: named trainable parameters, bound into a fresh graph each
//!   step and updated from accumulated gradients.
//! - [`layers`]: `Dense`, `GruCell` (Cho et al. 2014, with the ReLU
//!   candidate activation the paper adopts in Appendix A), `Embedding`
//!   lookup tables with an `<unk>` row, and inverted dropout.
//! - [`init`]: Xavier/Glorot and He initialisers with seeded RNG.
//! - [`optim`]: SGD and Adam (Kingma & Ba 2014) — the paper trains with
//!   Adam on an MSE loss.
//! - [`loss`]: RMSE on plain slices (MAE/MSE are `env2vec_linalg::stats`).
//! - [`trainer`]: mini-batch shuffling and the early-stopping rule the
//!   paper uses for regularisation (Appendix A.1).
//!
//! Gradients are validated against central finite differences in the test
//! suite, so models built on this crate train with exact gradients just as
//! they would on TensorFlow.

#![warn(missing_docs)]

pub mod graph;
pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod params;
pub mod profile;
pub mod trainer;

pub use graph::{Graph, NodeId};
pub use params::{Bound, ParamId, ParamSet};
