//! Dense linear algebra: LU factorization with partial pivoting, and the
//! tridiagonal solver behind the coupled-bitline model.
//!
//! The simulator itself factorizes with [`crate::sparse`], which makes
//! exactly the dense routine's pivot choices and arithmetic. The dense
//! [`Matrix`] and [`lu_factorize`] here are the reference it is tested
//! against, bit for bit.

// Index-based loops are the natural idiom for the dense matrix math here.
#![allow(clippy::needless_range_loop)]

/// A dense, row-major, square matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Dimension of the (square) matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.n + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] = value;
    }

    /// Adds `value` to the entry at `(row, col)` (the MNA "stamp" primitive).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] += value;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Computes `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        let mut y = vec![0.0; self.n];
        for i in 0..self.n {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            y[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }
}

/// Pivot magnitude below which a matrix counts as singular.
pub(crate) const MIN_PIVOT: f64 = 1e-300;

/// A factorization met a pivot smaller than `1e-300` in magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Singular {
    /// Elimination step (column) at which the pivot search failed.
    pub step: usize,
}

/// An in-place LU factorization `PA = LU` with partial pivoting.
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: Matrix,
    pivots: Vec<usize>,
}

/// Factorizes `a` (consumed) into `PA = LU`.
///
/// # Errors
///
/// [`Singular`] if the matrix is numerically singular (a pivot smaller
/// than `1e-300` in magnitude was encountered).
pub fn lu_factorize(mut a: Matrix) -> Result<LuFactors, Singular> {
    let n = a.dim();
    let mut pivots = vec![0usize; n];
    for k in 0..n {
        // Partial pivot: find the largest |a[i][k]| for i >= k.
        let mut p = k;
        let mut max = a.get(k, k).abs();
        for i in (k + 1)..n {
            let v = a.get(i, k).abs();
            if v > max {
                max = v;
                p = i;
            }
        }
        if max < MIN_PIVOT {
            return Err(Singular { step: k });
        }
        pivots[k] = p;
        if p != k {
            for j in 0..n {
                let tmp = a.get(k, j);
                a.set(k, j, a.get(p, j));
                a.set(p, j, tmp);
            }
        }
        let pivot = a.get(k, k);
        for i in (k + 1)..n {
            let m = a.get(i, k) / pivot;
            a.set(i, k, m);
            if m != 0.0 {
                for j in (k + 1)..n {
                    let v = a.get(i, j) - m * a.get(k, j);
                    a.set(i, j, v);
                }
            }
        }
    }
    Ok(LuFactors { lu: a, pivots })
}

impl LuFactors {
    /// Solves `A x = b` using the stored factors, overwriting `b` with `x`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factorized dimension.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.lu.dim();
        assert_eq!(b.len(), n, "dimension mismatch");
        // Apply row permutation.
        for k in 0..n {
            let p = self.pivots[k];
            if p != k {
                b.swap(k, p);
            }
        }
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let mut s = b[i];
            for j in 0..i {
                s -= self.lu.get(i, j) * b[j];
            }
            b[i] = s;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut s = b[i];
            for j in (i + 1)..n {
                s -= self.lu.get(i, j) * b[j];
            }
            b[i] = s / self.lu.get(i, i);
        }
    }
}

/// Solves the tridiagonal system `A x = d` with the Thomas algorithm, where
/// `A` has sub/super-diagonals `lower`/`upper` and main diagonal `diag`.
///
/// This is the solver behind the paper's closed-form coupled-bitline
/// solution (Equation 8): the coupling matrix `K` is tridiagonal, so
/// `K⁻¹ · Lself` costs O(N) instead of a dense inverse.
///
/// Returns `None` on a zero pivot (matrix not diagonally dominant enough).
///
/// # Panics
///
/// Panics if the band lengths are inconsistent with `diag.len()`.
pub fn solve_tridiagonal(
    lower: &[f64],
    diag: &[f64],
    upper: &[f64],
    d: &[f64],
) -> Option<Vec<f64>> {
    let n = diag.len();
    assert_eq!(lower.len(), n.saturating_sub(1));
    assert_eq!(upper.len(), n.saturating_sub(1));
    assert_eq!(d.len(), n);
    if n == 0 {
        return Some(Vec::new());
    }
    let mut c = vec![0.0; n];
    let mut x = vec![0.0; n];
    if diag[0].abs() < 1e-300 {
        return None;
    }
    c[0] = upper.first().copied().unwrap_or(0.0) / diag[0];
    x[0] = d[0] / diag[0];
    for i in 1..n {
        let m = diag[i] - lower[i - 1] * c[i - 1];
        if m.abs() < 1e-300 {
            return None;
        }
        if i < n - 1 {
            c[i] = upper[i] / m;
        }
        x[i] = (d[i] - lower[i - 1] * x[i - 1]) / m;
    }
    for i in (0..n - 1).rev() {
        x[i] -= c[i] * x[i + 1];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(n: usize, rows: &[&[f64]]) -> Matrix {
        let mut m = Matrix::zeros(n);
        for (i, r) in rows.iter().enumerate() {
            for (j, v) in r.iter().enumerate() {
                m.set(i, j, *v);
            }
        }
        m
    }

    #[test]
    fn lu_solves_identity() {
        let m = mat(3, &[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        let f = lu_factorize(m).expect("nonsingular");
        let mut b = vec![3.0, -1.0, 2.5];
        f.solve_in_place(&mut b);
        assert_eq!(b, vec![3.0, -1.0, 2.5]);
    }

    #[test]
    fn lu_solves_general_system() {
        let m = mat(
            3,
            &[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]],
        );
        let f = lu_factorize(m.clone()).expect("nonsingular");
        let mut b = vec![8.0, -11.0, -3.0];
        f.solve_in_place(&mut b);
        // Known solution: x = 2, y = 3, z = -1.
        assert!((b[0] - 2.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
        assert!((b[2] + 1.0).abs() < 1e-12);
        // Residual check.
        let r = m.mul_vec(&b);
        assert!((r[0] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn lu_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let m = mat(2, &[&[0.0, 1.0], &[1.0, 0.0]]);
        let f = lu_factorize(m).expect("pivoting handles zero diagonal");
        let mut b = vec![5.0, 7.0];
        f.solve_in_place(&mut b);
        assert_eq!(b, vec![7.0, 5.0]);
    }

    #[test]
    fn lu_detects_singular() {
        let m = mat(2, &[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(lu_factorize(m).unwrap_err(), Singular { step: 1 });
    }

    #[test]
    fn tridiagonal_matches_dense() {
        // 4x4 tridiagonal system solved both ways.
        let diag = [4.0, 4.0, 4.0, 4.0];
        let lower = [-1.0, -1.0, -1.0];
        let upper = [-1.0, -1.0, -1.0];
        let d = [1.0, 2.0, 3.0, 4.0];
        let x = solve_tridiagonal(&lower, &diag, &upper, &d).expect("solvable");

        let mut m = Matrix::zeros(4);
        for i in 0..4 {
            m.set(i, i, 4.0);
            if i > 0 {
                m.set(i, i - 1, -1.0);
            }
            if i < 3 {
                m.set(i, i + 1, -1.0);
            }
        }
        let f = lu_factorize(m).expect("nonsingular");
        let mut b = d.to_vec();
        f.solve_in_place(&mut b);
        for (a, e) in x.iter().zip(&b) {
            assert!((a - e).abs() < 1e-12, "{a} vs {e}");
        }
    }

    #[test]
    fn tridiagonal_empty_and_single() {
        assert_eq!(solve_tridiagonal(&[], &[], &[], &[]), Some(vec![]));
        let x = solve_tridiagonal(&[], &[2.0], &[], &[6.0]).expect("solvable");
        assert_eq!(x, vec![3.0]);
    }

    #[test]
    fn mul_vec_computes_product() {
        let m = mat(2, &[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }
}
