//! Descriptive statistics used across the evaluation harness.
//!
//! The paper's evaluation leans on a handful of statistical primitives:
//! mean/standard deviation of the prediction-error distribution (the
//! anomaly threshold `μ ± γσ`), quantiles for the residual boxplots of
//! Figure 1, empirical CDFs for Figure 4, a paired t-test for the
//! significance claims of §4.1.2, and the MAE/MSE every method is scored
//! by. This module provides them with numerically stable (Welford)
//! accumulation.

use crate::error::{Error, Result};

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean, or `0.0` before any observation.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance, or `0.0` with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population variance (divides by `n`), or `0.0` with no observations.
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
    }
}

/// Arithmetic mean of a non-empty slice.
///
/// Returns an error for empty input.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(Error::Empty { routine: "mean" });
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased sample standard deviation; `0.0` for a single observation.
///
/// Returns an error for empty input.
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(Error::Empty { routine: "std_dev" });
    }
    let mut w = Welford::new();
    for &x in xs {
        w.push(x);
    }
    Ok(w.std_dev())
}

/// Mean absolute error between predictions and targets, one of the
/// paper's two evaluation metrics (§4.1.2).
///
/// Returns an error on length mismatch or empty input.
pub fn mae(pred: &[f64], target: &[f64]) -> Result<f64> {
    check_pair(pred, target, "mae")?;
    Ok(pred
        .iter()
        .zip(target)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / pred.len() as f64)
}

/// Mean squared error between predictions and targets, the paper's other
/// evaluation metric (§4.1.2).
///
/// Returns an error on length mismatch or empty input.
pub fn mse(pred: &[f64], target: &[f64]) -> Result<f64> {
    check_pair(pred, target, "mse")?;
    Ok(pred
        .iter()
        .zip(target)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / pred.len() as f64)
}

fn check_pair(pred: &[f64], target: &[f64], op: &'static str) -> Result<()> {
    if pred.len() != target.len() {
        return Err(Error::ShapeMismatch {
            op,
            lhs: (pred.len(), 1),
            rhs: (target.len(), 1),
        });
    }
    if pred.is_empty() {
        return Err(Error::Empty { routine: op });
    }
    Ok(())
}

/// Quantile with linear interpolation between order statistics.
///
/// `q` must lie in `[0, 1]`. Returns an error for empty input or an
/// out-of-range `q`.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(Error::Empty {
            routine: "quantile",
        });
    }
    if !(0.0..=1.0).contains(&q) || q.is_nan() {
        return Err(Error::InvalidArgument {
            what: "quantile q must be in [0, 1]",
        });
    }
    let mut sorted = xs.to_vec();
    // `total_cmp` orders NaN after every number, so the sort cannot
    // fail; NaN inputs surface in the quantile value instead.
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median (the 0.5 quantile).
///
/// Returns an error for empty input.
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns an error on length mismatch or empty input; returns `0.0` when
/// either sample has zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64> {
    if xs.len() != ys.len() {
        return Err(Error::ShapeMismatch {
            op: "pearson",
            lhs: (xs.len(), 1),
            rhs: (ys.len(), 1),
        });
    }
    if xs.is_empty() {
        return Err(Error::Empty { routine: "pearson" });
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    // envlint: allow(float-cmp) — exact zero-guard: a constant input
    // has variance identically 0.0 and must not divide.
    if vx == 0.0 || vy == 0.0 {
        return Ok(0.0);
    }
    Ok(cov / (vx.sqrt() * vy.sqrt()))
}

/// Lag-`k` autocorrelation of a series (population convention).
///
/// Returns `0.0` for constant series; an error when the series has fewer
/// than `k + 2` points or `k == 0`.
pub fn autocorrelation(xs: &[f64], lag: usize) -> Result<f64> {
    if lag == 0 {
        return Err(Error::InvalidArgument {
            what: "autocorrelation lag must be at least 1",
        });
    }
    if xs.len() < lag + 2 {
        return Err(Error::InvalidArgument {
            what: "autocorrelation needs at least lag + 2 points",
        });
    }
    let m = mean(xs)?;
    let var: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    // envlint: allow(float-cmp) — exact zero-guard: a constant series
    // has variance identically 0.0 and must not divide.
    if var == 0.0 {
        return Ok(0.0);
    }
    let cov: f64 = xs.windows(lag + 1).map(|w| (w[0] - m) * (w[lag] - m)).sum();
    Ok(cov / var)
}

/// Five-number summary used for the residual boxplots of Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxplotSummary {
    /// Minimum observation.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum observation.
    pub max: f64,
}

impl BoxplotSummary {
    /// Computes the five-number summary of a non-empty sample.
    ///
    /// Returns an error for empty input.
    pub fn of(xs: &[f64]) -> Result<Self> {
        if xs.is_empty() {
            return Err(Error::Empty { routine: "boxplot" });
        }
        Ok(BoxplotSummary {
            min: quantile(xs, 0.0)?,
            q1: quantile(xs, 0.25)?,
            median: quantile(xs, 0.5)?,
            q3: quantile(xs, 0.75)?,
            max: quantile(xs, 1.0)?,
        })
    }
}

/// Normal (Gaussian) distribution with explicit parameters.
///
/// This is the error model used by the paper's anomaly detector: prediction
/// errors of non-problematic builds are fitted as `N(μ_error, σ_error)` and
/// a new error is anomalous when it deviates more than `γ σ` from `μ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    /// Mean.
    pub mean: f64,
    /// Standard deviation (non-negative).
    pub std_dev: f64,
}

impl Gaussian {
    /// Fits mean and (sample) standard deviation to data.
    ///
    /// Returns an error for empty input.
    pub fn fit(xs: &[f64]) -> Result<Self> {
        Ok(Gaussian {
            mean: mean(xs)?,
            std_dev: std_dev(xs)?,
        })
    }

    /// Number of standard deviations `x` lies from the mean.
    ///
    /// Returns `0.0` when the distribution is degenerate (`σ = 0`) and `x`
    /// equals the mean, and `+∞` when it does not.
    pub fn z_score(&self, x: f64) -> f64 {
        // envlint: allow(float-cmp) — exact zero-guard: the documented
        // degenerate behaviour (0 or +inf) needs sigma identically 0.0.
        if self.std_dev == 0.0 {
            if x == self.mean {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (x - self.mean).abs() / self.std_dev
        }
    }

    /// Cumulative distribution function via the error function.
    pub fn cdf(&self, x: f64) -> f64 {
        // envlint: allow(float-cmp) — exact zero-guard: a degenerate
        // distribution has a step CDF instead of an erf evaluation.
        if self.std_dev == 0.0 {
            return if x < self.mean { 0.0 } else { 1.0 };
        }
        0.5 * (1.0 + erf((x - self.mean) / (self.std_dev * std::f64::consts::SQRT_2)))
    }
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, |ε| ≤ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Empirical CDF evaluated over its own sample points.
///
/// Returns `(sorted_values, cumulative_fractions)` where
/// `cumulative_fractions[i]` is the fraction of samples `<= sorted_values[i]`.
/// Returns an error for empty input.
pub fn empirical_cdf(xs: &[f64]) -> Result<(Vec<f64>, Vec<f64>)> {
    if xs.is_empty() {
        return Err(Error::Empty {
            routine: "empirical_cdf",
        });
    }
    let mut sorted = xs.to_vec();
    // `total_cmp` orders NaN after every number, so the sort cannot
    // fail; NaN inputs surface in the CDF support instead.
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len() as f64;
    let fracs = (1..=sorted.len()).map(|i| i as f64 / n).collect();
    Ok((sorted, fracs))
}

/// Result of a paired two-sided t-test.
#[derive(Debug, Clone, Copy)]
pub struct TTest {
    /// The t statistic.
    pub t: f64,
    /// Degrees of freedom (`n - 1`).
    pub df: usize,
    /// Two-sided p-value.
    pub p_value: f64,
}

impl TTest {
    /// Whether the difference is significant at level `alpha`.
    pub fn significant(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Paired two-sided t-test on equal-length samples.
///
/// This is the significance test used in §4.1.2 of the paper (α = 0.05) to
/// compare method means. Returns an error on length mismatch or fewer than
/// two pairs. With zero variance of differences, `t` is `±∞` (p = 0) when
/// the mean difference is non-zero and `0` (p = 1) otherwise.
pub fn paired_t_test(xs: &[f64], ys: &[f64]) -> Result<TTest> {
    if xs.len() != ys.len() {
        return Err(Error::ShapeMismatch {
            op: "paired_t_test",
            lhs: (xs.len(), 1),
            rhs: (ys.len(), 1),
        });
    }
    if xs.len() < 2 {
        return Err(Error::InvalidArgument {
            what: "paired t-test needs at least two pairs",
        });
    }
    let diffs: Vec<f64> = xs.iter().zip(ys).map(|(a, b)| a - b).collect();
    let md = mean(&diffs)?;
    let sd = std_dev(&diffs)?;
    let n = diffs.len();
    let df = n - 1;
    // envlint: allow(float-cmp) — exact zero-guard: zero-variance
    // differences must not divide in the t statistic.
    if sd == 0.0 {
        // envlint: allow(float-cmp) — exact degenerate case: identical
        // paired samples give t = 0 by definition, not by tolerance.
        return Ok(if md == 0.0 {
            TTest {
                t: 0.0,
                df,
                p_value: 1.0,
            }
        } else {
            TTest {
                t: md.signum() * f64::INFINITY,
                df,
                p_value: 0.0,
            }
        });
    }
    let t = md / (sd / (n as f64).sqrt());
    let p = 2.0 * (1.0 - student_t_cdf(t.abs(), df as f64));
    Ok(TTest {
        t,
        df,
        p_value: p.clamp(0.0, 1.0),
    })
}

/// CDF of the Student t distribution via the regularised incomplete beta
/// function.
fn student_t_cdf(t: f64, df: f64) -> f64 {
    // envlint: allow(float-cmp) — exact symmetry point: t identically
    // 0.0 short-circuits to CDF = 0.5 before the beta evaluation.
    if t == 0.0 {
        return 0.5;
    }
    let x = df / (df + t * t);
    let ib = incomplete_beta(0.5 * df, 0.5, x);
    if t > 0.0 {
        1.0 - 0.5 * ib
    } else {
        0.5 * ib
    }
}

/// Regularised incomplete beta function `I_x(a, b)` by continued fraction
/// (Numerical Recipes `betacf`).
fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_beta = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b);
    let front = (ln_beta + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 200;
    const EPS: f64 = 3e-14;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Natural log of the gamma function (Lanczos approximation).
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 6] = [
        76.18009172947146,
        -86.50532032941677,
        24.01409824083091,
        -1.231739572450155,
        0.1208650973866179e-2,
        -0.5395239384953e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000000000190015;
    for c in COEFFS {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.5066282746310005 * ser / x).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.population_variance() - 4.0).abs() < 1e-12);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..20] {
            a.push(x);
        }
        for &x in &xs[20..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
        // Merging into/with empty.
        let mut empty = Welford::new();
        empty.merge(&all);
        assert!((empty.mean() - all.mean()).abs() < 1e-12);
        all.merge(&Welford::new());
        assert_eq!(all.count(), 50);
    }

    #[test]
    fn quantiles_and_median() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
        assert_eq!(median(&xs).unwrap(), 2.5);
        assert!(quantile(&xs, 1.5).is_err());
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn autocorrelation_of_known_processes() {
        // A slow ramp is highly autocorrelated at lag 1.
        let ramp: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(autocorrelation(&ramp, 1).unwrap() > 0.9);
        // Alternating series is anti-correlated at lag 1, correlated at 2.
        let alt: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(autocorrelation(&alt, 1).unwrap() < -0.9);
        assert!(autocorrelation(&alt, 2).unwrap() > 0.9);
        // Constant series: defined as 0.
        assert_eq!(autocorrelation(&[5.0; 10], 1).unwrap(), 0.0);
        // Errors.
        assert!(autocorrelation(&ramp, 0).is_err());
        assert!(autocorrelation(&[1.0, 2.0], 1).is_err());
    }

    #[test]
    fn boxplot_summary() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let b = BoxplotSummary::of(&xs).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.max, 5.0);
        assert!(BoxplotSummary::of(&[]).is_err());
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let xs = [1.0, 2.0, 3.0];
        assert!((pearson(&xs, &[2.0, 4.0, 6.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &[3.0, 2.0, 1.0]).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[1.0, 1.0, 1.0]).unwrap(), 0.0);
        assert!(pearson(&xs, &[1.0]).is_err());
    }

    #[test]
    fn gaussian_z_score_and_cdf() {
        let g = Gaussian {
            mean: 10.0,
            std_dev: 2.0,
        };
        assert_eq!(g.z_score(14.0), 2.0);
        assert_eq!(g.z_score(6.0), 2.0);
        assert!((g.cdf(10.0) - 0.5).abs() < 1e-7);
        assert!((g.cdf(12.0) - 0.8413).abs() < 1e-3);
        let degenerate = Gaussian {
            mean: 1.0,
            std_dev: 0.0,
        };
        assert_eq!(degenerate.z_score(1.0), 0.0);
        assert!(degenerate.z_score(2.0).is_infinite());
        assert_eq!(degenerate.cdf(0.5), 0.0);
        assert_eq!(degenerate.cdf(1.5), 1.0);
    }

    #[test]
    fn gaussian_fit() {
        let g = Gaussian::fit(&[1.0, 3.0]).unwrap();
        assert_eq!(g.mean, 2.0);
        assert!((g.std_dev - 2.0_f64.sqrt()).abs() < 1e-12);
        assert!(Gaussian::fit(&[]).is_err());
    }

    #[test]
    fn erf_reference_values() {
        // The A&S 7.1.26 approximation has |error| <= 1.5e-7, so even
        // erf(0) is only zero to that tolerance.
        assert!(erf(0.0).abs() < 1.5e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn ecdf_monotone_and_complete() {
        let (vals, fracs) = empirical_cdf(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
        assert_eq!(fracs.last().copied(), Some(1.0));
        assert!(fracs.windows(2).all(|w| w[0] <= w[1]));
        assert!(empirical_cdf(&[]).is_err());
    }

    #[test]
    fn t_test_detects_shift() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x + 1.0).collect();
        let t = paired_t_test(&xs, &ys).unwrap();
        assert!(t.significant(0.05));
        assert!(t.t < 0.0);
    }

    #[test]
    fn t_test_no_difference_not_significant() {
        let xs: Vec<f64> = (0..30).map(|i| (i as f64 * 0.7).sin()).collect();
        let t = paired_t_test(&xs, &xs).unwrap();
        assert!(!t.significant(0.05));
        assert_eq!(t.p_value, 1.0);
    }

    #[test]
    fn t_test_noise_symmetric() {
        // Differences alternate ±1 → mean 0, not significant.
        let xs: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| x + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let t = paired_t_test(&xs, &ys).unwrap();
        assert!(!t.significant(0.05));
    }

    #[test]
    fn t_test_argument_errors() {
        assert!(paired_t_test(&[1.0], &[1.0]).is_err());
        assert!(paired_t_test(&[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn t_test_degenerate_constant_shift() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 3.0, 4.0];
        let t = paired_t_test(&xs, &ys).unwrap();
        assert_eq!(t.p_value, 0.0);
        assert!(t.t.is_infinite());
    }

    #[test]
    fn student_t_cdf_reference() {
        // t = 2.0, df = 10 → one-sided p ≈ 0.0367 (two-sided 0.0734).
        let p = 2.0 * (1.0 - student_t_cdf(2.0, 10.0));
        assert!((p - 0.0734).abs() < 2e-3, "p = {p}");
        // Symmetry.
        assert!((student_t_cdf(-1.3, 7.0) + student_t_cdf(1.3, 7.0) - 1.0).abs() < 1e-10);
    }
}
