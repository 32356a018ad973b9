//! Small dense linear algebra for the Bayesian linear bandit.
//!
//! The contextual bandit maintains, per arm, the precision matrix
//! `A = lambda * I + sum(x xT)` and weighted response `b = sum(r x)`.
//! Posterior sampling needs `A^{-1} b` and draws from `N(mu, v^2 A^{-1})`,
//! both of which reduce to Cholesky factorization and triangular solves.
//! Feature dimensions are tiny (~16), so simple O(d^3) routines are the
//! right tool — no external linear-algebra crate required.

/// A square matrix stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// The `n x n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// The `n x n` identity scaled by `k`.
    pub fn scaled_identity(n: usize, k: f64) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m[(i, i)] = k;
        }
        m
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rank-1 update: `self += x xT`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn add_outer(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        for i in 0..self.n {
            for j in 0..self.n {
                self.data[i * self.n + j] += x[i] * x[j];
            }
        }
    }

    /// Cholesky factorization `A = L LT` for symmetric positive-definite
    /// `A`. Returns the lower-triangular factor, or `None` if the matrix
    /// is not positive definite (within tolerance).
    pub fn cholesky(&self) -> Option<Matrix> {
        let n = self.n;
        let mut l = Matrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 1e-12 {
                        return None;
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// Solves `L y = b` for lower-triangular `L` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "dimension mismatch");
        let mut y = vec![0.0; self.n];
        for i in 0..self.n {
            let mut sum = b[i];
            for j in 0..i {
                sum -= self[(i, j)] * y[j];
            }
            y[i] = sum / self[(i, i)];
        }
        y
    }

    /// Solves `LT x = y` for lower-triangular `L` (back substitution on
    /// the transpose).
    pub fn solve_lower_transpose(&self, y: &[f64]) -> Vec<f64> {
        let mut x = y.to_vec();
        self.solve_lower_transpose_in_place(&mut x);
        x
    }

    /// [`Self::solve_lower_transpose`] overwriting `y` with the
    /// solution: row `i` reads `y[i]` before writing `x[i]` and only
    /// solved entries `x[j], j > i` besides, so one buffer serves both.
    pub fn solve_lower_transpose_in_place(&self, y: &mut [f64]) {
        assert_eq!(y.len(), self.n, "dimension mismatch");
        for i in (0..self.n).rev() {
            let mut sum = y[i];
            for j in (i + 1)..self.n {
                sum -= self[(j, i)] * y[j];
            }
            y[i] = sum / self[(i, i)];
        }
    }

    /// Solves `A x = b` via this matrix's Cholesky factor. Returns `None`
    /// when not positive definite.
    pub fn solve_spd(&self, b: &[f64]) -> Option<Vec<f64>> {
        let l = self.cholesky()?;
        let y = l.solve_lower(b);
        Some(l.solve_lower_transpose(&y))
    }

    /// Matrix–vector product.
    pub fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        (0..self.n)
            .map(|i| (0..self.n).map(|j| self[(i, j)] * x[j]).sum())
            .collect()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = M MT + I for a fixed M: guaranteed SPD.
        let mut a = Matrix::scaled_identity(3, 1.0);
        a.add_outer(&[1.0, 2.0, 3.0]);
        a.add_outer(&[0.5, -1.0, 2.0]);
        a
    }

    #[test]
    fn cholesky_reconstructs_matrix() {
        let a = spd3();
        let l = a.cholesky().expect("SPD");
        for i in 0..3 {
            for j in 0..3 {
                let mut rec = 0.0;
                for k in 0..3 {
                    rec += l[(i, k)] * l[(j, k)];
                }
                assert!((rec - a[(i, j)]).abs() < 1e-10, "({i},{j})");
            }
        }
        // Lower triangular: upper entries are zero.
        assert_eq!(l[(0, 1)], 0.0);
        assert_eq!(l[(0, 2)], 0.0);
        assert_eq!(l[(1, 2)], 0.0);
    }

    #[test]
    fn solve_spd_satisfies_system() {
        let a = spd3();
        let b = [1.0, -2.0, 0.5];
        let x = a.solve_spd(&b).expect("SPD");
        let ax = a.mat_vec(&x);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-9);
        }
    }

    #[test]
    fn identity_solve_is_identity() {
        let a = Matrix::scaled_identity(4, 2.0);
        let x = a.solve_spd(&[2.0, 4.0, 6.0, 8.0]).unwrap();
        for (xi, want) in x.iter().zip([1.0, 2.0, 3.0, 4.0]) {
            assert!((xi - want).abs() < 1e-12);
        }
    }

    #[test]
    fn non_spd_is_rejected() {
        let mut a = Matrix::zeros(2);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = -1.0; // Negative eigenvalue.
        assert!(a.cholesky().is_none());
        assert!(a.solve_spd(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn rank_one_updates_accumulate_symmetrically() {
        let mut a = Matrix::zeros(2);
        a.add_outer(&[3.0, 4.0]);
        assert_eq!(a[(0, 0)], 9.0);
        assert_eq!(a[(1, 1)], 16.0);
        assert_eq!(a[(0, 1)], 12.0);
        assert_eq!(a[(1, 0)], 12.0);
    }

    #[test]
    fn triangular_solves_invert_each_other() {
        let a = spd3();
        let l = a.cholesky().unwrap();
        let b = [0.3, 0.7, -1.1];
        let y = l.solve_lower(&b);
        // L y should equal b.
        for i in 0..3 {
            let mut s = 0.0;
            for j in 0..=i {
                s += l[(i, j)] * y[j];
            }
            assert!((s - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn dot_matches_hand_computation() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }
}
