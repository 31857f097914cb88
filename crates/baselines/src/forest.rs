//! Random-Forest regression — the paper's `RFReg` baseline.
//!
//! "RFReg is an ensemble method which consists of a set of estimators
//! (decision trees) for regression. We search the parameter space of the
//! two important hyper-parameters `max_depth`: {3, 4, ..., 10} and
//! `n_estimators`: {10, 50, 100, 1000}" (§4.1.3). Trees are grown on
//! bootstrap resamples and averaged, mirroring scikit-learn's
//! `RandomForestRegressor` defaults (all features per split).

use env2vec_linalg::{stats, Error, Matrix, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tree::{RegressionTree, TreeConfig};
use crate::tune;

/// The paper's `max_depth` grid.
pub const MAX_DEPTH_GRID: [usize; 8] = [3, 4, 5, 6, 7, 8, 9, 10];

/// The paper's `n_estimators` grid.
pub const N_ESTIMATORS_GRID: [usize; 4] = [10, 50, 100, 1000];

/// Forest hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_estimators: usize,
    /// Per-tree growth limits.
    pub tree: TreeConfig,
    /// RNG seed controlling bootstrap resampling and feature subsampling.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_estimators: 100,
            tree: TreeConfig::default(),
            seed: 0,
        }
    }
}

/// A fitted random-forest regressor.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fits `config.n_estimators` trees on bootstrap resamples of the data.
    ///
    /// Returns an error for empty/mismatched data or a zero-tree config.
    pub fn fit(x: &Matrix, y: &[f64], config: &ForestConfig) -> Result<Self> {
        if config.n_estimators == 0 {
            return Err(Error::InvalidArgument {
                what: "forest needs at least one estimator",
            });
        }
        if x.rows() == 0 {
            return Err(Error::Empty {
                routine: "forest fit",
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = x.rows();
        let mut trees = Vec::with_capacity(config.n_estimators);
        for _ in 0..config.n_estimators {
            let sample: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            trees.push(RegressionTree::fit_on(
                x,
                y,
                &sample,
                &config.tree,
                &mut rng,
            )?);
        }
        Ok(RandomForest { trees })
    }

    /// Predicts one sample as the mean of all tree predictions.
    ///
    /// Returns an error when the feature count is wrong.
    pub fn predict_one(&self, x: &[f64]) -> Result<f64> {
        let mut sum = 0.0;
        for tree in &self.trees {
            sum += tree.predict_one(x)?;
        }
        Ok(sum / self.trees.len() as f64)
    }

    /// Predicts every row of a matrix.
    ///
    /// Returns an error when the feature count is wrong.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        (0..x.rows()).map(|i| self.predict_one(x.row(i))).collect()
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

/// Grid-searches `(max_depth, n_estimators)` on a validation set, as the
/// paper does, and returns the winning forest plus its parameters and MAE.
///
/// Returns an error when any fit fails or the grids are empty.
pub fn fit_best(
    train_x: &Matrix,
    train_y: &[f64],
    val_x: &Matrix,
    val_y: &[f64],
    depth_grid: &[usize],
    estimator_grid: &[usize],
    seed: u64,
) -> Result<(RandomForest, (usize, usize), f64)> {
    let grid: Vec<(usize, usize)> = depth_grid
        .iter()
        .flat_map(|&d| estimator_grid.iter().map(move |&e| (d, e)))
        .collect();
    tune::grid_search(
        &grid,
        |&(depth, estimators)| {
            RandomForest::fit(
                train_x,
                train_y,
                &ForestConfig {
                    n_estimators: estimators,
                    tree: TreeConfig {
                        max_depth: depth,
                        ..TreeConfig::default()
                    },
                    seed,
                },
            )
        },
        |model| {
            let pred = model.predict(val_x)?;
            stats::mae(&pred, val_y)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave_data(n: usize) -> (Matrix, Vec<f64>) {
        let x =
            Matrix::from_rows(&(0..n).map(|i| vec![i as f64 / 10.0]).collect::<Vec<_>>()).unwrap();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 / 10.0).sin() * 3.0).collect();
        (x, y)
    }

    #[test]
    fn forest_fits_nonlinear_target() {
        let (x, y) = wave_data(120);
        let forest = RandomForest::fit(
            &x,
            &y,
            &ForestConfig {
                n_estimators: 30,
                ..ForestConfig::default()
            },
        )
        .unwrap();
        let pred = forest.predict(&x).unwrap();
        let mae: f64 =
            pred.iter().zip(&y).map(|(p, t)| (p - t).abs()).sum::<f64>() / y.len() as f64;
        assert!(mae < 0.3, "forest mae {mae}");
        assert_eq!(forest.num_trees(), 30);
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = wave_data(50);
        let cfg = ForestConfig {
            n_estimators: 5,
            seed: 9,
            ..ForestConfig::default()
        };
        let a = RandomForest::fit(&x, &y, &cfg).unwrap();
        let b = RandomForest::fit(&x, &y, &cfg).unwrap();
        assert_eq!(
            a.predict_one(&[2.5]).unwrap(),
            b.predict_one(&[2.5]).unwrap()
        );
    }

    #[test]
    fn averaging_smooths_single_tree_variance() {
        let (x, y) = wave_data(60);
        let one = RandomForest::fit(
            &x,
            &y,
            &ForestConfig {
                n_estimators: 1,
                seed: 3,
                ..ForestConfig::default()
            },
        )
        .unwrap();
        let many = RandomForest::fit(
            &x,
            &y,
            &ForestConfig {
                n_estimators: 50,
                seed: 3,
                ..ForestConfig::default()
            },
        )
        .unwrap();
        // Out-of-sample point between training grid values.
        let sse = |f: &RandomForest| -> f64 {
            (0..59)
                .map(|i| {
                    let xq = i as f64 / 10.0 + 0.05;
                    let t = xq.sin() * 3.0;
                    let p = f.predict_one(&[xq]).unwrap();
                    (p - t) * (p - t)
                })
                .sum()
        };
        assert!(sse(&many) <= sse(&one) * 1.1);
    }

    #[test]
    fn rejects_bad_config() {
        let (x, y) = wave_data(10);
        assert!(RandomForest::fit(
            &x,
            &y,
            &ForestConfig {
                n_estimators: 0,
                ..ForestConfig::default()
            }
        )
        .is_err());
        assert!(RandomForest::fit(&Matrix::zeros(0, 1), &[], &ForestConfig::default()).is_err());
    }

    #[test]
    fn grid_search_returns_grid_member() {
        let (x, y) = wave_data(60);
        let train: Vec<usize> = (0..40).collect();
        let val: Vec<usize> = (40..60).collect();
        let (model, (depth, estimators), score) = fit_best(
            &x.select_rows(&train).unwrap(),
            &y[..40],
            &x.select_rows(&val).unwrap(),
            &y[40..],
            &[3, 6],
            &[5, 20],
            1,
        )
        .unwrap();
        assert!([3, 6].contains(&depth));
        assert!([5, 20].contains(&estimators));
        assert!(score.is_finite());
        assert_eq!(model.num_trees(), estimators);
    }
}
