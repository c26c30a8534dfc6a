//! Descriptive statistics over slices and iterators.
//!
//! [`Summary`] is the workhorse the whole suite uses to describe a set of
//! per-node power values, runtimes, node counts, etc. It uses Welford's
//! online algorithm for numerical stability, so it doubles as the storage
//! behind the streaming accumulators in [`crate::online`].

use serde::{Deserialize, Serialize};

/// A numerically stable running summary: count, mean, variance, extrema.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a slice of values. NaNs are ignored.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            if v.is_nan() {
                continue;
            }
            s.push(v);
        }
        s
    }

    /// Adds one observation (Welford update).
    #[inline]
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Merges another summary into this one (parallel-reduction friendly;
    /// Chan et al. pairwise combination).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance (`m2 / n`; NaN when empty).
    pub fn variance_population(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (`m2 / (n-1)`; NaN for fewer than two values).
    pub fn variance_sample(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev_population(&self) -> f64 {
        self.variance_population().sqrt()
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance_sample().sqrt()
    }

    /// Coefficient of variation: sample std / |mean|.
    ///
    /// The paper expresses most variability findings as "standard
    /// deviation as a percentage of the mean" (Figs. 12-13); this is that
    /// metric as a fraction.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            f64::NAN
        } else {
            self.std_dev() / m.abs()
        }
    }

    /// Minimum value (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum value (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Range `max - min` (NaN when empty).
    pub fn range(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max - self.min
        }
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for v in iter {
            if !v.is_nan() {
                s.push(v);
            }
        }
        s
    }
}

/// Mean of a slice (NaN if empty).
pub fn mean(values: &[f64]) -> f64 {
    Summary::from_slice(values).mean()
}

/// Sample standard deviation of a slice (NaN if fewer than 2 values).
pub fn std_dev(values: &[f64]) -> f64 {
    Summary::from_slice(values).std_dev()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert!(s.mean().is_nan());
        assert!(s.std_dev().is_nan());
        assert!(s.range().is_nan());
    }

    #[test]
    fn simple_values() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance_population() - 4.0).abs() < 1e-12);
        assert!((s.std_dev_population() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.range(), 7.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn single_value() {
        let s = Summary::from_slice(&[3.5]);
        assert_eq!(s.mean(), 3.5);
        assert!(s.std_dev().is_nan());
        assert_eq!(s.variance_population(), 0.0);
    }

    #[test]
    fn nan_values_ignored() {
        let s = Summary::from_slice(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 50.0 + 100.0)
            .collect();
        let whole = Summary::from_slice(&data);
        let mut left = Summary::from_slice(&data[..313]);
        let right = Summary::from_slice(&data[313..]);
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.std_dev() - whole.std_dev()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Summary::from_slice(&[1.0, 2.0]);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn cv_matches_definition() {
        let s = Summary::from_slice(&[100.0, 110.0, 90.0, 105.0, 95.0]);
        let expected = s.std_dev() / s.mean();
        assert!((s.cv() - expected).abs() < 1e-12);
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Naive sum-of-squares catastrophically cancels here.
        let base = 1e9;
        let data: Vec<f64> = (0..1000).map(|i| base + (i % 7) as f64).collect();
        let s = Summary::from_slice(&data);
        // Variance of (i % 7) over uniform residues 0..7 = 4.0.
        assert!(
            (s.variance_population() - 4.0).abs() < 0.01,
            "{}",
            s.variance_population()
        );
    }

    #[test]
    fn from_iterator_collects() {
        let s: Summary = (1..=5).map(|x| x as f64).collect();
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
    }
}
