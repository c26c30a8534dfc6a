//! Minimal dense linear algebra for FLDA.
//!
//! FLDA over three features only needs: mean vectors, a pooled 3×3
//! covariance, and a linear solve. A tiny row-major matrix type with
//! partially-pivoted Gaussian elimination covers all of it; no external
//! linear-algebra dependency is justified for fixed 3-dimensional
//! problems.

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a nested array literal (row-major).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Self {
            rows: r,
            cols: c,
            data: rows.iter().flat_map(|row| row.iter().copied()).collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix-vector product.
    pub fn mat_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols);
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self[(i, j)] * v[j]).sum())
            .collect()
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// Returns `None` for singular (or numerically singular) systems.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve needs a square matrix");
        assert_eq!(b.len(), self.rows);
        let n = self.rows;
        // Augmented working copy.
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Pivot.
            let mut pivot = col;
            let mut best = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-12 {
                return None;
            }
            if pivot != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot * n + j);
                }
                x.swap(col, pivot);
            }
            // Eliminate below.
            let diag = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[r * n + j] -= factor * a[col * n + j];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = x[col];
            for j in (col + 1)..n {
                acc -= a[col * n + j] * x[j];
            }
            x[col] = acc / a[col * n + col];
        }
        Some(x)
    }

    /// Adds `lambda` to the diagonal (ridge regularization); used to keep
    /// the pooled covariance invertible when a feature is constant.
    pub fn ridge(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Mean of a set of feature vectors (rows).
pub fn mean_vector(rows: &[Vec<f64>]) -> Vec<f64> {
    assert!(!rows.is_empty());
    let d = rows[0].len();
    let mut mean = vec![0.0; d];
    for row in rows {
        for (m, &v) in mean.iter_mut().zip(row) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= rows.len() as f64;
    }
    mean
}

/// Accumulates `(x - mu)(x - mu)^T` into `cov` for one sample.
pub fn accumulate_scatter(cov: &mut Matrix, x: &[f64], mu: &[f64]) {
    let d = x.len();
    for i in 0..d {
        let di = x[i] - mu[i];
        for j in 0..d {
            cov[(i, j)] += di * (x[j] - mu[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve() {
        let m = Matrix::identity(3);
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
        let m = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let m = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = m.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_returns_none() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(m.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn ridge_fixes_singularity() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        m.ridge(0.1);
        assert!(m.solve(&[1.0, 2.0]).is_some());
    }

    #[test]
    fn mat_vec_product() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.mat_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn solve_verifies_by_multiplication() {
        let m = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 1.0], &[0.5, 1.0, 5.0]]);
        let b = [7.0, -2.0, 11.0];
        let x = m.solve(&b).unwrap();
        let back = m.mat_vec(&x);
        for (a, e) in back.iter().zip(&b) {
            assert!((a - e).abs() < 1e-10);
        }
    }

    #[test]
    fn mean_and_scatter() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let mu = mean_vector(&rows);
        assert_eq!(mu, vec![2.0, 3.0]);
        let mut cov = Matrix::zeros(2, 2);
        for r in &rows {
            accumulate_scatter(&mut cov, r, &mu);
        }
        // Scatter: [[2, 2], [2, 2]].
        assert_eq!(cov[(0, 0)], 2.0);
        assert_eq!(cov[(0, 1)], 2.0);
        assert_eq!(cov[(1, 1)], 2.0);
    }
}
