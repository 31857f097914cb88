//! Loss metrics on plain slices.
//!
//! The graph-level MSE lives on [`crate::Graph::mse`]. The slice MAE and
//! MSE the evaluation harness scores *test-set* predictions with (paper
//! §4.1.2: "We use Mean Absolute Error and Mean Squared Error as target
//! evaluation metrics") are [`env2vec_linalg::stats::mae`] and
//! [`env2vec_linalg::stats::mse`]; this module adds the root of the latter.

use env2vec_linalg::stats::mse;
use env2vec_linalg::Result;

/// Root mean squared error.
///
/// Returns an error on length mismatch or empty input.
pub fn rmse(pred: &[f64], target: &[f64]) -> Result<f64> {
    Ok(mse(pred, target)?.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use env2vec_linalg::stats::mae;

    #[test]
    fn mse_and_mae_known_values() {
        let p = [1.0, 2.0, 3.0];
        let t = [1.0, 4.0, 2.0];
        assert!((mse(&p, &t).unwrap() - (0.0 + 4.0 + 1.0) / 3.0).abs() < 1e-12);
        assert!((mae(&p, &t).unwrap() - (0.0 + 2.0 + 1.0) / 3.0).abs() < 1e-12);
        assert!((rmse(&p, &t).unwrap() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn perfect_prediction_is_zero() {
        let p = [1.0, -2.0, 0.5];
        assert_eq!(mse(&p, &p).unwrap(), 0.0);
        assert_eq!(mae(&p, &p).unwrap(), 0.0);
        assert_eq!(rmse(&p, &p).unwrap(), 0.0);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(mse(&[1.0], &[1.0, 2.0]).is_err());
        assert!(mae(&[], &[]).is_err());
        assert!(rmse(&[], &[]).is_err());
    }

    #[test]
    fn mse_dominated_by_outliers_vs_mae() {
        // One large error: MSE penalises quadratically, MAE linearly.
        let t = [0.0, 0.0, 0.0, 0.0];
        let p = [0.0, 0.0, 0.0, 10.0];
        assert_eq!(mae(&p, &t).unwrap(), 2.5);
        assert_eq!(mse(&p, &t).unwrap(), 25.0);
    }
}
