//! Dense linear-algebra substrate for the Env2Vec reproduction.
//!
//! The Env2Vec paper ran its deep-learning pipeline on Keras/TensorFlow and
//! its classical baselines on scikit-learn. Neither stack is available as a
//! mature Rust dependency, so this crate provides the numerical kernels that
//! everything above it (the autodiff engine, the ridge/forest/SVR baselines,
//! the PCA embedding visualisation of Figure 6) is built on:
//!
//! - [`Matrix`]: a row-major dense `f64` matrix with the usual arithmetic,
//!   matrix multiplication, and transposition.
//! - [`cholesky`]: Cholesky factorisation and SPD linear solves (used by the
//!   closed-form ridge-regression baseline).
//! - [`eigen`]: a cyclic Jacobi eigendecomposition for symmetric matrices.
//! - [`pca`]: principal component analysis on top of [`eigen`], used to
//!   project the learned environment embeddings to 2-D (paper Figure 6).
//! - [`stats`]: descriptive statistics (Welford mean/variance, quantiles,
//!   Pearson correlation) and the MAE/MSE error metrics used throughout
//!   the evaluation harness.
//! - [`Scaler`]: the per-feature standardisation every model fits on its
//!   inputs.
//!
//! All routines are deterministic, sequential and allocation-explicit.
//! Fallible operations return [`Error`] rather than panicking.

#![warn(missing_docs)]

pub mod cholesky;
pub mod eigen;
pub mod error;
mod gemm;
pub mod matrix;
pub mod pca;
pub mod scaler;
pub mod stats;
pub mod vector;

pub use error::{Error, Result};
pub use matrix::Matrix;
pub use scaler::Scaler;
