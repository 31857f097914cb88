//! Figure 1: per-chain linear-model weights and residuals.
//!
//! The paper's motivation figure: one linear regression per build chain,
//! showing (top) how the weight of each contextual feature varies wildly
//! across chains — evidence that the environment shapes the model — and
//! (bottom) that several chains have residuals above 10%, i.e. per-chain
//! linear models are not reliably accurate.

use env2vec_baselines::linear::LinearRegression;
use env2vec_datagen::telecom::workload::CF_NAMES;
use env2vec_linalg::stats::BoxplotSummary;
use env2vec_linalg::{Error, Matrix, Result};

use crate::render::{render_boxplot_row, render_heatmap};
use crate::telecom_study::TelecomStudy;

/// Structured Figure 1 payload.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// `num_cf x num_chains` weight matrix (standardised coefficients).
    pub weights: Vec<Vec<f64>>,
    /// Residual five-number summary per chain.
    pub residuals: Vec<BoxplotSummary>,
    /// Chains with at least one absolute residual above 10 CPU points.
    pub flagged_chains: Vec<usize>,
}

/// Fits one linear model per chain and collects weights and residuals.
pub fn compute(study: &TelecomStudy) -> Result<Fig1Result> {
    let num_cf = CF_NAMES.len();
    let mut weights = vec![Vec::new(); num_cf];
    let mut residuals = Vec::new();
    let mut flagged = Vec::new();

    for chain in &study.dataset.chains {
        // Train on the chain's history, evaluate residuals on the current
        // clean build — the same split the paper's models face.
        let history = chain.history();
        let cf = Matrix::vstack_all(&history.iter().map(|ex| &ex.cf).collect::<Vec<_>>())?;
        let cpu: Vec<f64> = history
            .iter()
            .flat_map(|ex| ex.cpu.iter().copied())
            .collect();
        let model = LinearRegression::fit(&cf, &cpu)?;
        for (row, &w) in weights.iter_mut().zip(model.weights()) {
            row.push(w);
        }
        let current = chain.current();
        let resid = model.absolute_residuals(&current.cf, &current.clean_cpu)?;
        let summary = BoxplotSummary::of(&resid)?;
        if summary.max > 10.0 {
            flagged.push(chain.id);
        }
        residuals.push(summary);
    }
    if weights[0].is_empty() {
        return Err(Error::Empty { routine: "fig1" });
    }
    Ok(Fig1Result {
        weights,
        residuals,
        flagged_chains: flagged,
    })
}

/// Symmetric log-normalisation used by the paper's heatmap colouring.
fn symlog(v: f64) -> f64 {
    v.signum() * (1.0 + v.abs()).ln()
}

/// Renders the heatmap and residual summary.
pub fn run(study: &TelecomStudy) -> Result<String> {
    let result = compute(study)?;
    let normalised: Vec<Vec<f64>> = result
        .weights
        .iter()
        .map(|row| row.iter().map(|&w| symlog(w)).collect())
        .collect();
    let labels: Vec<String> = CF_NAMES.iter().map(|s| s.to_string()).collect();
    let n_chains = result.residuals.len();
    let mut out = format!(
        "Figure 1 (top). Per-chain linear-regression weight heatmap \
         ({} contextual features x {} build chains; darker = larger \
         symmetric-log coefficient):\n\n{}",
        CF_NAMES.len(),
        n_chains,
        render_heatmap(&normalised, &labels)
    );
    out.push_str(&format!(
        "\nFigure 1 (bottom). Per-chain absolute-residual boxplots \
         ({}/{} chains exceed 10 CPU points — the paper\'s red boxes):\n\n{}",
        result.flagged_chains.len(),
        n_chains,
        render_boxplot_row(&result.residuals, 14, 10.0)
    ));
    let medians: Vec<f64> = result.residuals.iter().map(|b| b.median).collect();
    let med_of_med = env2vec_linalg::stats::median(&medians)?;
    out.push_str(&format!(
        "median of per-chain median residuals: {med_of_med:.2} CPU points\n"
    ));
    Ok(out)
}

/// Variation statistic asserted in tests: the coefficient of variation of
/// each feature's weight across chains, averaged over features.
pub fn weight_dispersion(result: &Fig1Result) -> f64 {
    let mut dispersions = Vec::new();
    for row in &result.weights {
        let mean = row.iter().sum::<f64>() / row.len() as f64;
        let var = row.iter().map(|w| (w - mean) * (w - mean)).sum::<f64>() / row.len() as f64;
        if mean.abs() > 1e-9 {
            dispersions.push(var.sqrt() / mean.abs());
        }
    }
    dispersions.iter().sum::<f64>() / dispersions.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_vary_across_chains_and_some_chains_flagged() {
        let study = crate::telecom_study::test_study();
        let result = compute(study).unwrap();
        assert_eq!(result.weights.len(), CF_NAMES.len());
        assert_eq!(result.weights[0].len(), study.dataset.chains.len());
        // The paper's point: weights differ substantially per chain.
        assert!(
            weight_dispersion(&result) > 0.3,
            "dispersion {}",
            weight_dispersion(&result)
        );
        let out = run(study).unwrap();
        assert!(out.contains("heatmap"));
    }

    #[test]
    fn symlog_is_odd_and_monotone() {
        assert_eq!(symlog(0.0), 0.0);
        assert!(symlog(5.0) > symlog(1.0));
        assert_eq!(symlog(-3.0), -symlog(3.0));
    }
}
