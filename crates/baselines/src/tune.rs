//! Validation-set grid search.
//!
//! Every method in §4.1.3 tunes its hyper-parameters "using the validation
//! set of each VNF dataset". [`grid_search`] is that loop: fit one model
//! per grid point, score each on held-out data, keep the minimiser.

use env2vec_linalg::{Error, Result};

/// Fits a model per grid point and returns the one with the lowest score.
///
/// `fit` builds a model from a grid point; `score` evaluates it (lower is
/// better, e.g. validation MAE). Ties resolve to the earliest grid point,
/// matching scikit-learn's first-best convention. Returns an error for an
/// empty grid or when a fit/score fails.
pub fn grid_search<P: Clone, M>(
    grid: &[P],
    mut fit: impl FnMut(&P) -> Result<M>,
    mut score: impl FnMut(&M) -> Result<f64>,
) -> Result<(M, P, f64)> {
    let mut best: Option<(M, P, f64)> = None;
    for point in grid {
        let model = fit(point)?;
        let s = score(&model)?;
        match &best {
            Some((_, _, bs)) if *bs <= s => {}
            _ => best = Some((model, point.clone(), s)),
        }
    }
    best.ok_or(Error::Empty {
        routine: "grid_search",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_minimum_score() {
        let grid = [1.0f64, 2.0, 3.0, 4.0];
        let (model, point, score) =
            grid_search(&grid, |&p| Ok(p * 10.0), |&m: &f64| Ok((m - 25.0).abs())).unwrap();
        // Scores are |10p - 25|: 15, 5, 5, 15 — tie resolves to the
        // earlier grid point.
        assert_eq!(point, 2.0);
        assert_eq!(model, 20.0);
        assert_eq!(score, 5.0);
    }

    #[test]
    fn tie_resolves_to_first() {
        let grid = [1, 2, 3];
        let (_, point, _) = grid_search(&grid, |&p| Ok(p), |_| Ok(7.0)).unwrap();
        assert_eq!(point, 1);
    }

    #[test]
    fn empty_grid_is_error() {
        let grid: [f64; 0] = [];
        assert!(grid_search(&grid, |&p| Ok(p), |_| Ok(0.0)).is_err());
    }

    #[test]
    fn propagates_fit_errors() {
        let grid = [1];
        let r: Result<(i32, i32, f64)> = grid_search(
            &grid,
            |_| Err(Error::InvalidArgument { what: "boom" }),
            |_| Ok(0.0),
        );
        assert!(r.is_err());
    }

    #[test]
    fn mae_helper() {
        // The score every baseline's grid search minimises.
        use env2vec_linalg::stats::mae;
        assert_eq!(mae(&[1.0, 3.0], &[2.0, 1.0]).unwrap(), 1.5);
        assert!(mae(&[1.0], &[]).is_err());
        assert!(mae(&[], &[]).is_err());
    }
}
