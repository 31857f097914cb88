//! Per-feature standardisation.
//!
//! Raw VNF traffic counters span many orders of magnitude (packet counts in
//! the millions next to ratios in `[0, 1]`), so the Env2Vec model and every
//! baseline standardise their inputs to zero mean / unit variance before
//! fitting, as scikit-learn pipelines do. A saved Env2Vec model stores its
//! fitted [`Scaler`] as the two vectors below.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::matrix::Matrix;

/// Fitted per-feature standardisation transform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scaler {
    /// Per-feature means.
    pub means: Vec<f64>,
    /// Per-feature standard deviations (zero-variance features get 1).
    pub stds: Vec<f64>,
}

impl Scaler {
    /// Fits means and standard deviations on the rows of `x`.
    ///
    /// Features with zero variance get a standard deviation of `1.0` so
    /// transformation leaves them at zero rather than dividing by zero.
    /// Returns an error when `x` has no rows.
    pub fn fit(x: &Matrix) -> Result<Self> {
        if x.rows() == 0 {
            return Err(Error::Empty {
                routine: "scaler fit",
            });
        }
        let means = x.col_means();
        let mut stds = vec![0.0; x.cols()];
        for i in 0..x.rows() {
            for (s, (&v, &m)) in stds.iter_mut().zip(x.row(i).iter().zip(&means)) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut stds {
            *s = (*s / x.rows() as f64).sqrt();
            // envlint: allow(float-cmp) — exact zero-guard: a constant column
            // has std identically 0.0 and must not become a divisor.
            if *s == 0.0 {
                *s = 1.0;
            }
        }
        Ok(Scaler { means, stds })
    }

    /// Standardises a matrix of samples.
    ///
    /// Returns an error when the feature count differs from the fit data.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix> {
        if x.cols() != self.means.len() {
            return Err(Error::ShapeMismatch {
                op: "scaler transform",
                lhs: x.shape(),
                rhs: (1, self.means.len()),
            });
        }
        Ok(Matrix::from_fn(x.rows(), x.cols(), |i, j| {
            (x.get(i, j) - self.means[j]) / self.stds[j]
        }))
    }

    /// Standardises a single sample in place.
    ///
    /// Returns an error when the feature count differs from the fit data.
    pub fn transform_row(&self, row: &mut [f64]) -> Result<()> {
        if row.len() != self.means.len() {
            return Err(Error::ShapeMismatch {
                op: "scaler transform_row",
                lhs: (1, row.len()),
                rhs: (1, self.means.len()),
            });
        }
        for (v, (&m, &s)) in row.iter_mut().zip(self.means.iter().zip(&self.stds)) {
            *v = (*v - m) / s;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_zero_mean_unit_variance() {
        let x = Matrix::from_rows(&[
            vec![1.0, 100.0],
            vec![2.0, 200.0],
            vec![3.0, 300.0],
            vec![4.0, 400.0],
        ])
        .unwrap();
        let sc = Scaler::fit(&x).unwrap();
        let t = sc.transform(&x).unwrap();
        for j in 0..2 {
            let col = t.col(j);
            let mean: f64 = col.iter().sum::<f64>() / 4.0;
            let var: f64 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_feature_maps_to_zero() {
        let x = Matrix::from_rows(&[vec![5.0, 1.0], vec![5.0, 2.0]]).unwrap();
        let sc = Scaler::fit(&x).unwrap();
        let t = sc.transform(&x).unwrap();
        assert_eq!(t.col(0), vec![0.0, 0.0]);
    }

    #[test]
    fn transform_row_matches_matrix_transform() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]).unwrap();
        let sc = Scaler::fit(&x).unwrap();
        let t = sc.transform(&x).unwrap();
        let mut row = vec![1.0, 10.0];
        sc.transform_row(&mut row).unwrap();
        assert_eq!(row.as_slice(), t.row(0));
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(Scaler::fit(&Matrix::zeros(0, 3)).is_err());
        let sc = Scaler::fit(&Matrix::filled(2, 2, 1.0)).unwrap();
        assert!(sc.transform(&Matrix::zeros(1, 3)).is_err());
        assert!(sc.transform_row(&mut [1.0]).is_err());
    }
}
