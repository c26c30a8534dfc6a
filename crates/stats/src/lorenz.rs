//! Concentration analysis: Lorenz curves, Gini coefficients, top shares.
//!
//! Fig. 11 of the paper shows that ~20% of users consume ~85% of
//! node-hours and energy, and that the two top-20% sets overlap by ~90%.
//! [`Lorenz`] computes the cumulative-share curve behind such plots, plus
//! the top-k share and set-overlap statistics.

use serde::{Deserialize, Serialize};

use crate::{Result, StatsError};

/// A Lorenz-style concentration curve over non-negative contributions.
///
/// Contributions are sorted in **descending** order (the paper plots
/// "top X% of users consume Y%"), so `cumulative_share(0.2)` answers
/// "what fraction do the top 20% account for".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lorenz {
    /// Contributions sorted descending.
    sorted_desc: Vec<f64>,
    /// Prefix sums of `sorted_desc` (same length).
    prefix: Vec<f64>,
    total: f64,
}

impl Lorenz {
    /// Builds the curve from raw contributions (any order). Negative or
    /// non-finite values are rejected; an all-zero total is rejected.
    pub fn new(contributions: &[f64]) -> Result<Self> {
        if contributions.is_empty() {
            return Err(StatsError::NotEnoughSamples {
                required: 1,
                actual: 0,
            });
        }
        if contributions.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err(StatsError::InvalidInput(
                "contributions must be finite and non-negative",
            ));
        }
        let mut sorted_desc = contributions.to_vec();
        sorted_desc.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let total: f64 = sorted_desc.iter().sum();
        if total <= 0.0 {
            return Err(StatsError::InvalidInput("total contribution is zero"));
        }
        let mut prefix = Vec::with_capacity(sorted_desc.len());
        let mut acc = 0.0;
        for &v in &sorted_desc {
            acc += v;
            prefix.push(acc);
        }
        Ok(Self {
            sorted_desc,
            prefix,
            total,
        })
    }

    /// Number of contributors.
    pub fn len(&self) -> usize {
        self.sorted_desc.len()
    }

    /// Always false after construction.
    pub fn is_empty(&self) -> bool {
        self.sorted_desc.is_empty()
    }

    /// Share contributed by the top `fraction` of contributors
    /// (`fraction` in `[0, 1]`; linear interpolation between contributors).
    pub fn top_share(&self, fraction: f64) -> f64 {
        let fraction = fraction.clamp(0.0, 1.0);
        let n = self.len() as f64;
        let pos = fraction * n;
        if pos <= 0.0 {
            return 0.0;
        }
        let k = pos.floor() as usize;
        let frac = pos - k as f64;
        let mut share = if k == 0 { 0.0 } else { self.prefix[k - 1] };
        if frac > 0.0 && k < self.len() {
            share += self.sorted_desc[k] * frac;
        }
        share / self.total
    }

    /// The `(population_fraction, cumulative_share)` series, one point per
    /// contributor — the curve Fig. 11 plots.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let n = self.len() as f64;
        self.prefix
            .iter()
            .enumerate()
            .map(|(i, &p)| ((i + 1) as f64 / n, p / self.total))
            .collect()
    }

    /// Gini coefficient in `[0, 1)` (0 = perfect equality).
    pub fn gini(&self) -> f64 {
        // For the descending-ordered curve: G = 1 - 2 * AUC_asc where
        // AUC_asc is the area under the ascending Lorenz curve. Compute
        // directly from the ascending cumulative shares via the trapezoid
        // rule.
        let n = self.len() as f64;
        let mut asc = self.sorted_desc.clone();
        asc.reverse();
        let mut acc = 0.0;
        let mut area = 0.0;
        let mut prev_share = 0.0;
        for &v in &asc {
            acc += v;
            let share = acc / self.total;
            area += (prev_share + share) / 2.0 / n;
            prev_share = share;
        }
        (1.0 - 2.0 * area).clamp(0.0, 1.0)
    }

    /// Smallest population fraction whose contributions reach
    /// `target_share` of the total.
    pub fn fraction_for_share(&self, target_share: f64) -> f64 {
        let target = (target_share.clamp(0.0, 1.0)) * self.total;
        let idx = self.prefix.partition_point(|&p| p < target);
        ((idx + 1).min(self.len())) as f64 / self.len() as f64
    }
}

/// Overlap between the top-`fraction` index sets of two contribution
/// vectors (Jaccard-style, normalized by the top-set size).
///
/// Used for the paper's "about 90% of the top 20% node-hour users are also
/// top energy users" statistic. Both slices must be aligned (entry `i`
/// describes the same contributor).
pub fn top_set_overlap(a: &[f64], b: &[f64], fraction: f64) -> Result<f64> {
    if a.len() != b.len() {
        return Err(StatsError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.is_empty() {
        return Err(StatsError::NotEnoughSamples {
            required: 1,
            actual: 0,
        });
    }
    let k = ((a.len() as f64 * fraction).round() as usize).clamp(1, a.len());
    let top_indices = |vals: &[f64]| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..vals.len()).collect();
        idx.sort_by(|&i, &j| {
            vals[j]
                .partial_cmp(&vals[i])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx.truncate(k);
        idx
    };
    let ta = top_indices(a);
    let tb: std::collections::HashSet<usize> = top_indices(b).into_iter().collect();
    let common = ta.iter().filter(|i| tb.contains(i)).count();
    Ok(common as f64 / k as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_contributions() {
        let l = Lorenz::new(&[1.0; 10]).unwrap();
        assert!((l.top_share(0.2) - 0.2).abs() < 1e-12);
        assert!(l.gini() < 1e-12);
    }

    #[test]
    fn concentrated_contributions() {
        // One contributor holds 90%.
        let mut c = vec![90.0];
        c.extend(std::iter::repeat_n(10.0 / 9.0, 9));
        let l = Lorenz::new(&c).unwrap();
        assert!((l.top_share(0.1) - 0.9).abs() < 1e-9);
        assert!(l.gini() > 0.7);
    }

    #[test]
    fn top_share_is_monotone_and_bounded() {
        let c = [5.0, 1.0, 3.0, 8.0, 2.0, 13.0, 1.0];
        let l = Lorenz::new(&c).unwrap();
        let mut last = 0.0;
        for i in 0..=20 {
            let s = l.top_share(i as f64 / 20.0);
            assert!(s >= last - 1e-12);
            assert!((0.0..=1.0 + 1e-12).contains(&s));
            last = s;
        }
        assert!((l.top_share(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn curve_ends_at_one() {
        let l = Lorenz::new(&[3.0, 1.0, 2.0]).unwrap();
        let curve = l.curve();
        assert_eq!(curve.len(), 3);
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_for_share_inverts_top_share() {
        let c = [50.0, 20.0, 10.0, 10.0, 5.0, 3.0, 1.0, 1.0];
        let l = Lorenz::new(&c).unwrap();
        // Top 1 of 8 (12.5%) already holds 50%.
        assert!((l.fraction_for_share(0.5) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Lorenz::new(&[]).is_err());
        assert!(Lorenz::new(&[-1.0, 2.0]).is_err());
        assert!(Lorenz::new(&[0.0, 0.0]).is_err());
        assert!(Lorenz::new(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn overlap_identical_is_one() {
        let a = [9.0, 1.0, 5.0, 3.0, 7.0];
        let o = top_set_overlap(&a, &a, 0.4).unwrap();
        assert_eq!(o, 1.0);
    }

    #[test]
    fn overlap_disjoint_is_zero() {
        let a = [10.0, 9.0, 1.0, 1.0];
        let b = [1.0, 1.0, 10.0, 9.0];
        let o = top_set_overlap(&a, &b, 0.5).unwrap();
        assert_eq!(o, 0.0);
    }

    #[test]
    fn overlap_partial() {
        let a = [10.0, 9.0, 8.0, 1.0, 1.0, 1.0];
        let b = [10.0, 9.0, 1.0, 8.0, 1.0, 1.0];
        // Top half (3): a -> {0,1,2}, b -> {0,1,3}; overlap 2/3.
        let o = top_set_overlap(&a, &b, 0.5).unwrap();
        assert!((o - 2.0 / 3.0).abs() < 1e-12);
    }
}
