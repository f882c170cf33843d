//! Small dense linear algebra: LU decomposition with partial pivoting.
//!
//! Used by the isotropic edge-correction step (inverting the multipole
//! mixing matrix, Slepian & Eisenstein 2015 §4) and by covariance
//! manipulation in `galactos-analysis`. Matrices here are tiny
//! (`ℓmax+1` or a few dozen bins), so a straightforward O(n³) solver is
//! the right tool.

/// A dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Solve `A x = b` by LU with partial pivoting. Returns `None` for
    /// (numerically) singular systems.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows);
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Pivot.
            let mut pivot = col;
            let mut best = a[perm[col] * n + col].abs();
            for (r, &pr) in perm.iter().enumerate().skip(col + 1) {
                let v = a[pr * n + col].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-300 {
                return None;
            }
            perm.swap(col, pivot);
            let prow = perm[col];
            let pval = a[prow * n + col];
            for &r in perm.iter().skip(col + 1) {
                let factor = a[r * n + col] / pval;
                if factor == 0.0 {
                    continue;
                }
                a[r * n + col] = 0.0;
                for j in (col + 1)..n {
                    a[r * n + j] -= factor * a[prow * n + j];
                }
                x[r] -= factor * x[prow];
            }
        }
        // Back substitution.
        let mut out = vec![0.0; n];
        for col in (0..n).rev() {
            let prow = perm[col];
            let mut acc = x[prow];
            for j in (col + 1)..n {
                acc -= a[prow * n + j] * out[j];
            }
            out[col] = acc / a[prow * n + col];
        }
        Some(out)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: &[&[f64]]) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), rows[0].len());
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3
        let a = matrix(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = matrix(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = matrix(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn random_solve_residuals() {
        // Deterministic pseudo-random matrix; check A·x ≈ b.
        let n = 12;
        let mut a = Matrix::zeros(n, n);
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += 4.0; // diagonally dominant → well-conditioned
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = a.solve(&b).unwrap();
        for (i, bi) in b.iter().enumerate() {
            let ri: f64 = (0..n).map(|j| a[(i, j)] * x[j]).sum();
            assert!((ri - bi).abs() < 1e-10);
        }
    }
}
