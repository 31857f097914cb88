//! Ridge regression — the `Ridge` and `Ridge_ts` baselines.
//!
//! The paper's `Ridge` baseline regresses resource usage on the traffic
//! features at the current timestep; `Ridge_ts` augments the features with
//! the resource-usage values of the `n` previous timesteps ("the set of
//! features used in Ridge(ts) are the same \[as\] for Env2Vec but the
//! complexity is different", §4.1.3). Both are this one estimator; the
//! history augmentation is [`append_history`].
//!
//! Fitting solves the normal equations `(XᵀX + αI) w = Xᵀy` on
//! standardised features with a Cholesky factorisation. The paper's `α`
//! grid ([`ALPHA_GRID`]) is searched on a validation set via
//! [`fit_best_alpha`].

use env2vec_linalg::cholesky::Cholesky;
use env2vec_linalg::{stats, Error, Matrix, Result, Scaler};

use crate::tune;

/// The paper's regularisation grid `{0.001, 0.01, ..., 1000}` (§4.1.3).
pub const ALPHA_GRID: [f64; 7] = [0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0];

/// A fitted ridge-regression model.
#[derive(Debug, Clone)]
pub struct Ridge {
    scaler: Scaler,
    /// Coefficients in standardised feature space.
    weights: Vec<f64>,
    intercept: f64,
    alpha: f64,
}

impl Ridge {
    /// Fits ridge regression with regularisation strength `alpha`.
    ///
    /// `x` holds one sample per row; `y` is the target vector. Returns an
    /// error for empty data, mismatched lengths, or non-positive `alpha`.
    pub fn fit(x: &Matrix, y: &[f64], alpha: f64) -> Result<Self> {
        if x.rows() == 0 {
            return Err(Error::Empty {
                routine: "ridge fit",
            });
        }
        if x.rows() != y.len() {
            return Err(Error::ShapeMismatch {
                op: "ridge fit",
                lhs: x.shape(),
                rhs: (y.len(), 1),
            });
        }
        if alpha <= 0.0 || !alpha.is_finite() {
            return Err(Error::InvalidArgument {
                what: "ridge alpha must be positive and finite",
            });
        }
        let scaler = Scaler::fit(x)?;
        let xs = scaler.transform(x)?;
        let y_mean = y.iter().sum::<f64>() / y.len() as f64;

        // Normal equations on centred target: (XᵀX + αI) w = Xᵀ(y - ȳ).
        let mut gram = xs.gram();
        for i in 0..gram.rows() {
            let v = gram.get(i, i) + alpha;
            gram.set(i, i, v);
        }
        let mut xty = vec![0.0; xs.cols()];
        for (i, &yi) in y.iter().enumerate() {
            let centered = yi - y_mean;
            for (acc, &xv) in xty.iter_mut().zip(xs.row(i)) {
                *acc += xv * centered;
            }
        }
        let weights = Cholesky::decompose(&gram)?.solve(&xty)?;
        Ok(Ridge {
            scaler,
            weights,
            intercept: y_mean,
            alpha,
        })
    }

    /// Predicts the target for one raw (unstandardised) sample.
    ///
    /// Returns an error when the feature count is wrong.
    pub fn predict_one(&self, x: &[f64]) -> Result<f64> {
        let mut row = x.to_vec();
        self.scaler.transform_row(&mut row)?;
        Ok(self
            .weights
            .iter()
            .zip(&row)
            .map(|(w, v)| w * v)
            .sum::<f64>()
            + self.intercept)
    }

    /// Predicts targets for a matrix of raw samples.
    ///
    /// Returns an error when the feature count is wrong.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        (0..x.rows()).map(|i| self.predict_one(x.row(i))).collect()
    }

    /// Coefficients in standardised feature space.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Intercept (mean of the training target).
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The regularisation strength used in the fit.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

/// Fits one ridge model per `α` in `alphas` and keeps the one with the
/// lowest validation MAE, as the paper does on each VNF dataset.
///
/// Returns the winning model and its validation MAE, or an error when any
/// fit fails or the grid is empty.
pub fn fit_best_alpha(
    train_x: &Matrix,
    train_y: &[f64],
    val_x: &Matrix,
    val_y: &[f64],
    alphas: &[f64],
) -> Result<(Ridge, f64)> {
    tune::grid_search(
        alphas,
        |&alpha| Ridge::fit(train_x, train_y, alpha),
        |model| {
            let pred = model.predict(val_x)?;
            stats::mae(&pred, val_y)
        },
    )
    .map(|(model, _, score)| (model, score))
}

/// Builds the `Ridge_ts` design matrix: each row gains the `n_history`
/// previous target values as extra features, and the first `n_history`
/// rows (which lack a full window) are dropped.
///
/// Returns `(augmented_x, aligned_y, offset)` where `offset == n_history`
/// is how many leading samples were consumed. With `n_history == 0` the
/// input is returned unchanged. Returns an error when the data is shorter
/// than the window or lengths mismatch.
pub fn append_history(
    x: &Matrix,
    y: &[f64],
    n_history: usize,
) -> Result<(Matrix, Vec<f64>, usize)> {
    if x.rows() != y.len() {
        return Err(Error::ShapeMismatch {
            op: "append_history",
            lhs: x.shape(),
            rhs: (y.len(), 1),
        });
    }
    if n_history == 0 {
        return Ok((x.clone(), y.to_vec(), 0));
    }
    if y.len() <= n_history {
        return Err(Error::InvalidArgument {
            what: "append_history needs more samples than the window",
        });
    }
    let rows = x.rows() - n_history;
    let out = Matrix::from_fn(rows, x.cols() + n_history, |i, j| {
        if j < x.cols() {
            x.get(i + n_history, j)
        } else {
            // History features, most recent first: y[t-1], y[t-2], ...
            y[i + n_history - 1 - (j - x.cols())]
        }
    });
    Ok((out, y[n_history..].to_vec(), n_history))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = 3 x₀ - 2 x₁ + 5 with tiny regularisation recovers coefficients.
    #[test]
    fn recovers_linear_relationship() {
        let x = Matrix::from_rows(
            &(0..40)
                .map(|i| vec![(i % 7) as f64, ((i * 3) % 5) as f64])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let y: Vec<f64> = (0..40)
            .map(|i| 3.0 * ((i % 7) as f64) - 2.0 * (((i * 3) % 5) as f64) + 5.0)
            .collect();
        let model = Ridge::fit(&x, &y, 1e-6).unwrap();
        let pred = model.predict(&x).unwrap();
        for (p, t) in pred.iter().zip(&y) {
            assert!((p - t).abs() < 1e-4, "{p} vs {t}");
        }
    }

    #[test]
    fn stronger_alpha_shrinks_weights() {
        let x = Matrix::from_rows(
            &(0..30)
                .map(|i| vec![i as f64, (i * i % 11) as f64])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let y: Vec<f64> = (0..30).map(|i| 2.0 * i as f64 + 1.0).collect();
        let weak = Ridge::fit(&x, &y, 0.001).unwrap();
        let strong = Ridge::fit(&x, &y, 1000.0).unwrap();
        let norm = |w: &[f64]| w.iter().map(|v| v * v).sum::<f64>();
        assert!(norm(strong.weights()) < norm(weak.weights()));
    }

    #[test]
    fn intercept_is_target_mean() {
        let x = Matrix::filled(5, 1, 1.0);
        let y = [2.0, 4.0, 6.0, 8.0, 10.0];
        let model = Ridge::fit(&x, &y, 1.0).unwrap();
        assert_eq!(model.intercept(), 6.0);
        // Constant feature carries no signal → prediction = mean.
        assert!((model.predict_one(&[1.0]).unwrap() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_input() {
        let x = Matrix::filled(3, 2, 1.0);
        assert!(Ridge::fit(&x, &[1.0, 2.0], 1.0).is_err());
        assert!(Ridge::fit(&x, &[1.0, 2.0, 3.0], 0.0).is_err());
        assert!(Ridge::fit(&x, &[1.0, 2.0, 3.0], -1.0).is_err());
        assert!(Ridge::fit(&Matrix::zeros(0, 2), &[], 1.0).is_err());
        let model = Ridge::fit(&x, &[1.0, 2.0, 3.0], 1.0).unwrap();
        assert!(model.predict_one(&[1.0]).is_err());
    }

    #[test]
    fn alpha_search_picks_best_on_validation() {
        // Noisy linear data: moderate alpha should win over the extremes.
        let x = Matrix::from_rows(
            &(0..60)
                .map(|i| vec![(i % 13) as f64, ((i * 7) % 17) as f64])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let y: Vec<f64> = (0..60)
            .map(|i| {
                let a = (i % 13) as f64;
                let b = ((i * 7) % 17) as f64;
                a - 0.5 * b + ((i * 31 % 9) as f64 - 4.0) * 0.2
            })
            .collect();
        let (train_x, val_x) = (
            x.select_rows(&(0..40).collect::<Vec<_>>()).unwrap(),
            x.select_rows(&(40..60).collect::<Vec<_>>()).unwrap(),
        );
        let (model, score) =
            fit_best_alpha(&train_x, &y[..40], &val_x, &y[40..], &ALPHA_GRID).unwrap();
        assert!(ALPHA_GRID.contains(&model.alpha()));
        assert!(score < 1.0, "validation mae {score}");
    }

    #[test]
    fn append_history_layout() {
        let x = Matrix::from_rows(&[vec![10.0], vec![20.0], vec![30.0], vec![40.0]]).unwrap();
        let y = [1.0, 2.0, 3.0, 4.0];
        let (ax, ay, offset) = append_history(&x, &y, 2).unwrap();
        assert_eq!(offset, 2);
        assert_eq!(ax.shape(), (2, 3));
        // Row 0 ↔ t=2: features [x_2, y_1, y_0].
        assert_eq!(ax.row(0), &[30.0, 2.0, 1.0]);
        assert_eq!(ax.row(1), &[40.0, 3.0, 2.0]);
        assert_eq!(ay, vec![3.0, 4.0]);
    }

    #[test]
    fn append_history_zero_window_is_identity() {
        let x = Matrix::filled(3, 2, 1.0);
        let y = [1.0, 2.0, 3.0];
        let (ax, ay, offset) = append_history(&x, &y, 0).unwrap();
        assert_eq!(ax, x);
        assert_eq!(ay, y.to_vec());
        assert_eq!(offset, 0);
    }

    #[test]
    fn append_history_rejects_short_data() {
        let x = Matrix::filled(2, 1, 0.0);
        assert!(append_history(&x, &[1.0, 2.0], 2).is_err());
        assert!(append_history(&x, &[1.0], 1).is_err());
    }

    #[test]
    fn history_features_improve_autoregressive_target() {
        // y_t = 0.9 y_{t-1} + 1 with a long transient from 100 towards the
        // fixed point 10: history is the whole signal, the mean is not.
        let mut y = vec![100.0];
        for t in 1..80 {
            let noise = ((t * 37 % 11) as f64 - 5.0) * 0.05;
            y.push(0.9 * y[t - 1] + noise + 1.0);
        }
        // A single useless feature.
        let x = Matrix::filled(80, 1, 1.0);
        let (ax, ay, _) = append_history(&x, &y, 1).unwrap();
        let n_train = 60;
        let train_idx: Vec<usize> = (0..n_train).collect();
        let test_idx: Vec<usize> = (n_train..ax.rows()).collect();

        let plain = Ridge::fit(
            &x.select_rows(&(0..n_train).collect::<Vec<_>>()).unwrap(),
            &y[..n_train],
            0.001,
        )
        .unwrap();
        let with_hist =
            Ridge::fit(&ax.select_rows(&train_idx).unwrap(), &ay[..n_train], 0.001).unwrap();

        let plain_pred = plain
            .predict(&x.select_rows(&(61..80).collect::<Vec<_>>()).unwrap())
            .unwrap();
        let hist_pred = with_hist
            .predict(&ax.select_rows(&test_idx).unwrap())
            .unwrap();
        let plain_mae = stats::mae(&plain_pred, &y[61..80]).unwrap();
        let hist_mae = stats::mae(&hist_pred, &ay[n_train..]).unwrap();
        assert!(
            hist_mae < plain_mae / 2.0,
            "history should help: plain {plain_mae}, hist {hist_mae}"
        );
    }
}
