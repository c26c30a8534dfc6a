//! Pearson and Spearman correlation with significance tests.
//!
//! Reproduces the machinery behind the paper's Table 2: Spearman rank
//! correlations between (job length, per-node power) and (job size,
//! per-node power), with p-values from the t-approximation
//! `t = r * sqrt((n-2) / (1-r^2))` against a Student-t with `n-2` degrees
//! of freedom.

use serde::{Deserialize, Serialize};

use crate::rank::average_ranks;
use crate::special::student_t_two_sided_p;
use crate::{Result, StatsError};

/// A correlation coefficient plus its two-sided p-value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Correlation {
    /// The correlation coefficient in `[-1, 1]`.
    pub r: f64,
    /// Two-sided p-value for the null hypothesis of no correlation.
    pub p_value: f64,
    /// Number of paired observations used.
    pub n: usize,
}

fn validate(x: &[f64], y: &[f64]) -> Result<()> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.len() < 3 {
        return Err(StatsError::NotEnoughSamples {
            required: 3,
            actual: x.len(),
        });
    }
    Ok(())
}

fn pearson_r(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return f64::NAN;
    }
    (sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0)
}

fn t_test_p(r: f64, n: usize) -> f64 {
    if r.is_nan() {
        return f64::NAN;
    }
    if r.abs() >= 1.0 {
        return 0.0;
    }
    let df = (n - 2) as f64;
    let t = r * (df / (1.0 - r * r)).sqrt();
    student_t_two_sided_p(t, df)
}

/// Pearson product-moment correlation with a t-test p-value.
pub fn pearson(x: &[f64], y: &[f64]) -> Result<Correlation> {
    validate(x, y)?;
    let r = pearson_r(x, y);
    Ok(Correlation {
        r,
        p_value: t_test_p(r, x.len()),
        n: x.len(),
    })
}

/// Spearman rank correlation with a t-test p-value.
///
/// Ties are handled via average ranks, so this is the tie-corrected
/// coefficient (equivalent to Pearson over average ranks).
pub fn spearman(x: &[f64], y: &[f64]) -> Result<Correlation> {
    validate(x, y)?;
    let rx = average_ranks(x);
    let ry = average_ranks(y);
    let r = pearson_r(&rx, &ry);
    Ok(Correlation {
        r,
        p_value: t_test_p(r, x.len()),
        n: x.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn perfect_linear() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 2.0).collect();
        let c = pearson(&x, &y).unwrap();
        assert!((c.r - 1.0).abs() < 1e-12);
        assert!(c.p_value < 1e-12);
    }

    #[test]
    fn perfect_negative_monotone() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| -(v.powi(3))).collect();
        let s = spearman(&x, &y).unwrap();
        assert!((s.r + 1.0).abs() < 1e-12, "r {}", s.r);
        // Pearson on a cubic is high but not exactly -1.
        let p = pearson(&x, &y).unwrap();
        assert!(p.r > -1.0 && p.r < -0.85);
    }

    #[test]
    fn spearman_invariant_to_monotone_transform() {
        let mut rng = SplitMix64::new(9);
        let x: Vec<f64> = (0..300).map(|_| rng.next_f64() * 10.0).collect();
        let y: Vec<f64> = (0..300).map(|_| rng.next_f64() * 10.0).collect();
        let base = spearman(&x, &y).unwrap().r;
        let x_exp: Vec<f64> = x.iter().map(|v| v.exp()).collect();
        let transformed = spearman(&x_exp, &y).unwrap().r;
        assert!((base - transformed).abs() < 1e-12);
    }

    #[test]
    fn independent_data_has_high_p() {
        let mut rng = SplitMix64::new(21);
        let x: Vec<f64> = (0..40).map(|_| rng.next_f64()).collect();
        let y: Vec<f64> = (0..40).map(|_| rng.next_f64()).collect();
        let c = spearman(&x, &y).unwrap();
        assert!(c.r.abs() < 0.5);
        assert!(c.p_value > 0.001, "p {}", c.p_value);
    }

    #[test]
    fn correlated_noise_detected() {
        let mut rng = SplitMix64::new(33);
        let x: Vec<f64> = (0..2000).map(|_| rng.next_f64()).collect();
        let y: Vec<f64> = x.iter().map(|&v| v + rng.next_normal() * 0.8).collect();
        let c = spearman(&x, &y).unwrap();
        assert!(c.r > 0.2, "r {}", c.r);
        assert!(c.p_value < 1e-6, "p {}", c.p_value);
    }

    #[test]
    fn handles_ties_reasonably() {
        // Heavily tied x (like node counts), monotone y.
        let x = [1.0, 1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 8.0, 8.0, 8.0];
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| v * 10.0 + i as f64)
            .collect();
        let c = spearman(&x, &y).unwrap();
        assert!(c.r > 0.9, "r {}", c.r);
    }

    #[test]
    fn constant_input_gives_nan() {
        let x = [1.0; 10];
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let c = pearson(&x, &y).unwrap();
        assert!(c.r.is_nan());
    }

    #[test]
    fn validation_errors() {
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_err());
        assert!(spearman(&[1.0, 2.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn symmetry() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0];
        let a = spearman(&x, &y).unwrap();
        let b = spearman(&y, &x).unwrap();
        assert!((a.r - b.r).abs() < 1e-12);
    }
}
