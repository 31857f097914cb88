//! Classical machine-learning baselines from the Env2Vec paper.
//!
//! §4.1.3 of the paper compares Env2Vec against a suite of scikit-learn
//! models. This crate implements each of them from scratch on top of
//! [`env2vec_linalg`]:
//!
//! - [`ridge`]: closed-form ridge regression (normal equations solved by
//!   Cholesky) with the paper's `α` grid search. The `Ridge_ts` variant —
//!   ridge over the traffic features *plus* `n` previous resource-usage
//!   values — is the same estimator over an augmented feature matrix,
//!   which callers build with [`ridge::append_history`].
//! - [`linear`]: ordinary least squares, used for the per-build-chain
//!   weight heatmap of Figure 1.
//! - [`tree`] / [`forest`]: CART regression trees and the bootstrap
//!   Random-Forest regressor (`RFReg`), with the paper's
//!   `max_depth`/`n_estimators` grids.
//! - [`svr`]: ε-insensitive support-vector regression with linear,
//!   polynomial, and RBF kernels, solved by coordinate descent on the
//!   augmented-kernel dual.
//! - [`tune`]: a small grid-search helper that selects hyper-parameters on
//!   a validation set, exactly as the paper tunes every method.
//!
//! Every estimator standardises its inputs with
//! [`env2vec_linalg::Scaler`] and is tuned on
//! [`env2vec_linalg::stats::mae`].

#![warn(missing_docs)]

pub mod forest;
pub mod linear;
pub mod ridge;
pub mod svr;
pub mod tree;
pub mod tune;
