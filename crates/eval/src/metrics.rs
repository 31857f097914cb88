//! Run aggregation shared by the experiments.

use env2vec_linalg::{Error, Result};

/// Mean ± standard deviation over repeated runs, formatted as the paper's
/// Table 4 entries (`4.61 ± 0.12`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Mean over runs.
    pub mean: f64,
    /// Standard deviation over runs (0 for a single run).
    pub std: f64,
}

impl RunStats {
    /// Aggregates a set of per-run scores.
    ///
    /// Returns an error for empty input.
    pub fn of(scores: &[f64]) -> Result<Self> {
        if scores.is_empty() {
            return Err(Error::Empty {
                routine: "RunStats",
            });
        }
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        let var = scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / scores.len() as f64;
        Ok(RunStats {
            mean,
            std: var.sqrt(),
        })
    }

    /// Renders as `mean ± std` (or just the mean for deterministic
    /// methods).
    pub fn render(&self) -> String {
        // envlint: allow(float-cmp) — exact zero-guard: deterministic
        // methods have std identically 0.0 and render without ±.
        if self.std == 0.0 {
            format!("{:.2}", self.mean)
        } else {
            format!("{:.2} ± {:.2}", self.mean, self.std)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_mse_reference() {
        // The two scores every table reports.
        use env2vec_linalg::stats::{mae, mse};
        let p = [1.0, 2.0];
        let a = [2.0, 4.0];
        assert_eq!(mae(&p, &a).unwrap(), 1.5);
        assert_eq!(mse(&p, &a).unwrap(), 2.5);
        assert!(mae(&p, &a[..1]).is_err());
        assert!(mse(&[], &[]).is_err());
    }

    #[test]
    fn run_stats_aggregation_and_render() {
        let s = RunStats::of(&[1.0, 3.0]).unwrap();
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std, 1.0);
        assert_eq!(s.render(), "2.00 ± 1.00");
        let single = RunStats::of(&[4.61]).unwrap();
        assert_eq!(single.render(), "4.61");
        assert!(RunStats::of(&[]).is_err());
    }
}
