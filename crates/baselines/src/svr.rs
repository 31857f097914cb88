//! ε-insensitive support-vector regression — the paper's `SVR` baseline.
//!
//! §4.1.3 tunes three hyper-parameters: the regularisation strength
//! (`C`, the paper's "α"), the kernel (`linear`, `poly`, `rbf`), and the
//! tolerance margin `ε`. This implementation solves the dual with the bias
//! absorbed into an augmented kernel `K' = K + 1`, which removes the
//! equality constraint and makes exact per-coordinate minimisation
//! possible:
//!
//! minimise over `|β_i| ≤ C`:
//! `g(β) = ½ βᵀK'β − yᵀβ + ε‖β‖₁`
//!
//! Each coordinate has the closed-form soft-threshold update
//! `β_i ← clip(Sε(r_i) / K'_ii, ±C)` with `r_i` the residual excluding
//! `i`. The objective is convex with a separable non-smooth part, so
//! cyclic coordinate descent converges to the global minimum.

use env2vec_linalg::{stats, vector, Error, Matrix, Result, Scaler};

use crate::tune;

/// The paper's regularisation grid for SVR (§4.1.3: "α: {0.001,...,1000}").
pub const C_GRID: [f64; 7] = [0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0];

/// The paper's margin grid ("ε: {0.1, 0.2, ..., 1}").
pub const EPSILON_GRID: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Kernel function for SVR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Inner product `x · y`.
    Linear,
    /// Polynomial `(γ x·y + coef0)^degree`.
    Poly {
        /// Polynomial degree (scikit-learn default 3).
        degree: u32,
        /// Scale `γ`.
        gamma: f64,
        /// Offset term.
        coef0: f64,
    },
    /// Radial basis function `exp(-γ ‖x−y‖²)`.
    Rbf {
        /// Width `γ`.
        gamma: f64,
    },
}

impl Kernel {
    /// The paper's three kernel choices with scikit-learn-style defaults
    /// for `num_features` standardised inputs.
    pub fn paper_grid(num_features: usize) -> [Kernel; 3] {
        let gamma = 1.0 / num_features.max(1) as f64;
        [
            Kernel::Linear,
            Kernel::Poly {
                degree: 3,
                gamma,
                coef0: 0.0,
            },
            Kernel::Rbf { gamma },
        ]
    }

    /// Evaluates the kernel on two equal-length vectors.
    ///
    /// Returns an error on length mismatch.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> Result<f64> {
        match *self {
            Kernel::Linear => vector::dot(a, b),
            Kernel::Poly {
                degree,
                gamma,
                coef0,
            } => Ok((gamma * vector::dot(a, b)? + coef0).powi(degree as i32)),
            Kernel::Rbf { gamma } => Ok((-gamma * vector::squared_distance(a, b)?).exp()),
        }
    }
}

/// SVR hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct SvrConfig {
    /// Box constraint (regularisation strength).
    pub c: f64,
    /// ε-insensitive margin.
    pub epsilon: f64,
    /// Kernel.
    pub kernel: Kernel,
    /// Maximum coordinate-descent sweeps.
    pub max_sweeps: usize,
    /// Stop when the largest coordinate change in a sweep drops below this.
    pub tolerance: f64,
}

impl SvrConfig {
    /// A config with solver defaults and the given model hyper-parameters.
    pub fn new(c: f64, epsilon: f64, kernel: Kernel) -> Self {
        SvrConfig {
            c,
            epsilon,
            kernel,
            max_sweeps: 200,
            tolerance: 1e-5,
        }
    }
}

/// A fitted support-vector regressor.
#[derive(Debug, Clone)]
pub struct Svr {
    scaler: Scaler,
    /// Standardised training samples with non-zero dual coefficients.
    support: Matrix,
    /// Dual coefficients of the support vectors.
    beta: Vec<f64>,
    kernel: Kernel,
}

impl Svr {
    /// Fits SVR on rows of `x` against `y` (targets are standardised
    /// internally as well, since `ε` is scale-sensitive).
    ///
    /// Returns an error for empty/mismatched data or a non-positive `C`.
    pub fn fit(x: &Matrix, y: &[f64], config: &SvrConfig) -> Result<Self> {
        if x.rows() == 0 {
            return Err(Error::Empty { routine: "svr fit" });
        }
        if x.rows() != y.len() {
            return Err(Error::ShapeMismatch {
                op: "svr fit",
                lhs: x.shape(),
                rhs: (y.len(), 1),
            });
        }
        if config.c <= 0.0 || config.epsilon < 0.0 {
            return Err(Error::InvalidArgument {
                what: "svr requires C > 0 and epsilon >= 0",
            });
        }
        let scaler = Scaler::fit(x)?;
        let xs = scaler.transform(x)?;
        let n = xs.rows();

        // Augmented kernel: K'_ij = K(x_i, x_j) + 1 absorbs the bias.
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = config.kernel.eval(xs.row(i), xs.row(j))? + 1.0;
                k.set(i, j, v);
                k.set(j, i, v);
            }
        }

        let mut beta = vec![0.0; n];
        // Cached f_i = Σ_j K'_ij β_j.
        let mut f = vec![0.0; n];
        for _sweep in 0..config.max_sweeps {
            let mut max_change = 0.0f64;
            for i in 0..n {
                let kii = k.get(i, i);
                if kii <= 0.0 {
                    continue;
                }
                // Residual excluding i's own contribution.
                let r = y[i] - (f[i] - kii * beta[i]);
                let soft = if r > config.epsilon {
                    r - config.epsilon
                } else if r < -config.epsilon {
                    r + config.epsilon
                } else {
                    0.0
                };
                let new_beta = (soft / kii).clamp(-config.c, config.c);
                let delta = new_beta - beta[i];
                // envlint: allow(float-cmp) — exact no-op check: the O(n) row
                // update is skipped only when the step is identically zero.
                if delta != 0.0 {
                    beta[i] = new_beta;
                    for (fj, kj) in f.iter_mut().zip(k.row(i)) {
                        *fj += delta * kj;
                    }
                    max_change = max_change.max(delta.abs());
                }
            }
            if max_change < config.tolerance {
                break;
            }
        }

        // Retain support vectors only.
        let support_idx: Vec<usize> = (0..n).filter(|&i| beta[i].abs() > 1e-12).collect();
        let support = if support_idx.is_empty() {
            // Degenerate (e.g. all targets within ε of zero): keep one row
            // so prediction is well-defined (it returns 0 everywhere).
            xs.select_rows(&[0])?
        } else {
            xs.select_rows(&support_idx)?
        };
        let beta: Vec<f64> = if support_idx.is_empty() {
            vec![0.0]
        } else {
            support_idx.iter().map(|&i| beta[i]).collect()
        };
        Ok(Svr {
            scaler,
            support,
            beta,
            kernel: config.kernel,
        })
    }

    /// Predicts one raw sample: `f(x) = Σ_j β_j (K(x_j, x) + 1)`.
    ///
    /// Returns an error when the feature count is wrong.
    pub fn predict_one(&self, x: &[f64]) -> Result<f64> {
        let mut row = x.to_vec();
        self.scaler.transform_row(&mut row)?;
        let mut out = 0.0;
        for (j, &b) in self.beta.iter().enumerate() {
            out += b * (self.kernel.eval(self.support.row(j), &row)? + 1.0);
        }
        Ok(out)
    }

    /// Predicts every row of a matrix.
    ///
    /// Returns an error when the feature count is wrong.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        (0..x.rows()).map(|i| self.predict_one(x.row(i))).collect()
    }

    /// Number of support vectors retained.
    pub fn num_support_vectors(&self) -> usize {
        self.beta.len()
    }
}

/// Grid-searches `(kernel, C, ε)` on a validation set as the paper does.
///
/// Returns the winning model, its config, and its validation MAE. Returns
/// an error when the grid is empty or a fit fails.
pub fn fit_best(
    train_x: &Matrix,
    train_y: &[f64],
    val_x: &Matrix,
    val_y: &[f64],
    kernels: &[Kernel],
    cs: &[f64],
    epsilons: &[f64],
) -> Result<(Svr, SvrConfig, f64)> {
    let grid: Vec<SvrConfig> = kernels
        .iter()
        .flat_map(|&k| {
            cs.iter()
                .flat_map(move |&c| epsilons.iter().map(move |&e| SvrConfig::new(c, e, k)))
        })
        .collect();
    let (model, config, score) = tune::grid_search(
        &grid,
        |cfg| Svr::fit(train_x, train_y, cfg),
        |model| {
            let pred = model.predict(val_x)?;
            stats::mae(&pred, val_y)
        },
    )?;
    Ok((model, config, score))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data() -> (Matrix, Vec<f64>) {
        let x = Matrix::from_rows(
            &(0..60)
                .map(|i| vec![(i % 10) as f64, ((i * 3) % 7) as f64])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let y: Vec<f64> = (0..60)
            .map(|i| 2.0 * ((i % 10) as f64) - ((i * 3) % 7) as f64 + 1.0)
            .collect();
        (x, y)
    }

    #[test]
    fn linear_kernel_fits_linear_data() {
        let (x, y) = linear_data();
        let model = Svr::fit(&x, &y, &SvrConfig::new(10.0, 0.1, Kernel::Linear)).unwrap();
        let pred = model.predict(&x).unwrap();
        let mae: f64 =
            pred.iter().zip(&y).map(|(p, t)| (p - t).abs()).sum::<f64>() / y.len() as f64;
        // ε-insensitive fit: errors should be near the 0.1 tube.
        assert!(mae < 0.3, "svr mae {mae}");
    }

    #[test]
    fn rbf_kernel_fits_nonlinear_data() {
        let x =
            Matrix::from_rows(&(0..80).map(|i| vec![i as f64 / 8.0]).collect::<Vec<_>>()).unwrap();
        let y: Vec<f64> = (0..80).map(|i| (i as f64 / 8.0).sin() * 4.0).collect();
        let model = Svr::fit(
            &x,
            &y,
            &SvrConfig::new(100.0, 0.1, Kernel::Rbf { gamma: 1.0 }),
        )
        .unwrap();
        let pred = model.predict(&x).unwrap();
        let mae: f64 =
            pred.iter().zip(&y).map(|(p, t)| (p - t).abs()).sum::<f64>() / y.len() as f64;
        assert!(mae < 0.5, "rbf svr mae {mae}");
    }

    #[test]
    fn epsilon_tube_ignores_small_targets() {
        // All targets inside the ε-tube around 0 → zero function.
        let x = Matrix::from_rows(&(0..10).map(|i| vec![i as f64]).collect::<Vec<_>>()).unwrap();
        let y = vec![0.05; 10];
        let model = Svr::fit(&x, &y, &SvrConfig::new(1.0, 1.0, Kernel::Linear)).unwrap();
        assert_eq!(model.predict_one(&[5.0]).unwrap(), 0.0);
    }

    #[test]
    fn box_constraint_limits_dual_coefficients() {
        let (x, y) = linear_data();
        let c = 0.01;
        let model = Svr::fit(&x, &y, &SvrConfig::new(c, 0.1, Kernel::Linear)).unwrap();
        // β is clipped to [-C, C]; with tiny C the fit underestimates.
        let pred = model.predict(&x).unwrap();
        let spread_pred = pred.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - pred.iter().cloned().fold(f64::INFINITY, f64::min);
        let spread_y = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - y.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread_pred < spread_y);
    }

    #[test]
    fn kernel_eval_reference_values() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]).unwrap(), 11.0);
        let poly = Kernel::Poly {
            degree: 2,
            gamma: 1.0,
            coef0: 1.0,
        };
        assert_eq!(poly.eval(&[1.0], &[2.0]).unwrap(), 9.0);
        let rbf = Kernel::Rbf { gamma: 0.5 };
        assert!((rbf.eval(&[0.0], &[2.0]).unwrap() - (-2.0f64).exp()).abs() < 1e-12);
        assert!(Kernel::Linear.eval(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        let (x, y) = linear_data();
        assert!(Svr::fit(&x, &y[..5], &SvrConfig::new(1.0, 0.1, Kernel::Linear)).is_err());
        assert!(Svr::fit(&x, &y, &SvrConfig::new(0.0, 0.1, Kernel::Linear)).is_err());
        assert!(Svr::fit(&x, &y, &SvrConfig::new(1.0, -0.1, Kernel::Linear)).is_err());
        assert!(Svr::fit(
            &Matrix::zeros(0, 1),
            &[],
            &SvrConfig::new(1.0, 0.1, Kernel::Linear)
        )
        .is_err());
    }

    #[test]
    fn grid_search_selects_valid_config() {
        let (x, y) = linear_data();
        let train: Vec<usize> = (0..40).collect();
        let val: Vec<usize> = (40..60).collect();
        let kernels = Kernel::paper_grid(2);
        let (model, config, score) = fit_best(
            &x.select_rows(&train).unwrap(),
            &y[..40],
            &x.select_rows(&val).unwrap(),
            &y[40..],
            &kernels[..2],
            &[1.0, 10.0],
            &[0.1, 0.5],
        )
        .unwrap();
        assert!(score < 1.0, "validation mae {score}");
        assert!(model.num_support_vectors() > 0);
        assert!([1.0, 10.0].contains(&config.c));
    }
}
