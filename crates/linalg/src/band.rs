//! Symmetric band matrices and their Cholesky factorization.
//!
//! A crossbar nodal system numbered along the array's short side couples
//! each node only to nodes at most `2·min(rows, cols)` positions away, so
//! its conductance Laplacian is a symmetric positive definite band
//! matrix. A band Cholesky factors it in `O(n·w²)` flops for half-bandwidth
//! `w` and then solves any number of right-hand sides in `O(n·w)` each —
//! a direct solve, exact to rounding, with no iteration count or
//! tolerance to tune.

use crate::{LinalgError, Matrix, Result};

/// Symmetric `n × n` matrix with half-bandwidth `w`: entry `(i, j)` is
/// zero whenever `|i − j| > w`.
///
/// Only the lower band is stored, column by column (LAPACK's lower band
/// layout): column `j` keeps rows `j ..= j + w`, so `(i, j)` and `(j, i)`
/// are one slot and every column is contiguous.
///
/// # Example
///
/// ```
/// use vortex_linalg::band::BandMatrix;
///
/// # fn main() -> Result<(), vortex_linalg::LinalgError> {
/// // The 1-D Laplacian of a three-node resistor chain tied to ground at
/// // both ends: tridiagonal, half-bandwidth 1.
/// let mut a = BandMatrix::zeros(3, 1);
/// for i in 0..3 {
///     a.add(i, i, 2.0);
/// }
/// a.add(1, 0, -1.0);
/// a.add(2, 1, -1.0);
/// let x = a.cholesky()?.solve(&[1.0, 0.0, 1.0])?;
/// assert!(x.iter().all(|&v| (v - 1.0).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandMatrix {
    n: usize,
    w: usize,
    data: Vec<f64>,
}

impl BandMatrix {
    /// The zero `n × n` matrix with half-bandwidth `half_bandwidth`.
    pub fn zeros(n: usize, half_bandwidth: usize) -> Self {
        Self {
            n,
            w: half_bandwidth,
            data: vec![0.0; n * (half_bandwidth + 1)],
        }
    }

    fn slot(&self, i: usize, j: usize) -> usize {
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        assert!(
            hi < self.n && hi - lo <= self.w,
            "entry ({i},{j}) outside the band of a {n}x{n} matrix with half-bandwidth {w}",
            n = self.n,
            w = self.w
        );
        lo * (self.w + 1) + hi - lo
    }

    /// Adds `value` to the symmetric pair `(i, j)` / `(j, i)` (one stored
    /// slot; the diagonal when `i == j`).
    ///
    /// # Panics
    ///
    /// Panics if the entry lies outside the matrix or the band.
    pub fn add(&mut self, i: usize, j: usize, value: f64) {
        let s = self.slot(i, j);
        self.data[s] += value;
    }

    /// Entry `(i, j)`; zero outside the band.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "entry ({i},{j}) out of bounds");
        if i.abs_diff(j) > self.w {
            0.0
        } else {
            self.data[self.slot(i, j)]
        }
    }

    /// Dense copy (for validation against [`crate::lu`]).
    pub fn to_dense(&self) -> Matrix {
        Matrix::from_fn(self.n, self.n, |i, j| self.get(i, j))
    }

    /// Column `j` of the stored lower band: rows `j ..= min(j + w, n − 1)`.
    fn column(&self, j: usize) -> &[f64] {
        let start = j * (self.w + 1);
        &self.data[start..start + (self.n - j).min(self.w + 1)]
    }

    /// Cholesky factorization `A = L·Lᵀ`, computed in place.
    ///
    /// Right-looking: each column is scaled by its pivot, then folded
    /// into the trailing band as a rank-1 update of contiguous column
    /// runs, so the inner loops carry no dependency chain.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] at the first pivot that is not a
    /// finite number above `n·ε·max|aᵢᵢ|`: the matrix is not positive
    /// definite to working precision. (A singular matrix, such as the
    /// Laplacian of a nodal system with a floating sub-network, leaves a
    /// pivot of rounding noise at that scale rather than an exact zero.)
    pub fn cholesky(mut self) -> Result<BandCholesky> {
        let w1 = self.w + 1;
        let max_diagonal = (0..self.n).fold(0.0_f64, |m, k| m.max(self.data[k * w1].abs()));
        let tolerance = self.n as f64 * f64::EPSILON * max_diagonal;
        for k in 0..self.n {
            let start = k * w1;
            let len = (self.n - k).min(w1);
            let pivot = self.data[start];
            if !pivot.is_finite() || pivot <= tolerance {
                return Err(LinalgError::Singular { pivot: k });
            }
            let d = pivot.sqrt();
            let (head, trailing) = self.data.split_at_mut(start + w1);
            let col = &mut head[start..start + len];
            col[0] = d;
            for l in &mut col[1..] {
                *l /= d;
            }
            // Column k + off of the trailing band loses L(k+off.., k)·L(k+off, k).
            for off in 1..len {
                let l_jk = col[off];
                let run = &mut trailing[(off - 1) * w1..(off - 1) * w1 + len - off];
                for (a, &l) in run.iter_mut().zip(&col[off..]) {
                    *a -= l_jk * l;
                }
            }
        }
        Ok(BandCholesky { l: self })
    }
}

/// Cholesky factor of a [`BandMatrix`]: factor once, then
/// [`solve`](Self::solve) as many right-hand sides as needed.
#[derive(Debug, Clone, PartialEq)]
pub struct BandCholesky {
    l: BandMatrix,
}

impl BandCholesky {
    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len()` differs
    /// from the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.n;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "BandCholesky::solve",
                expected: n,
                actual: b.len(),
            });
        }
        let mut x = b.to_vec();
        // Forward substitution L·y = b, one column at a time.
        for k in 0..n {
            let col = self.l.column(k);
            let y = x[k] / col[0];
            x[k] = y;
            for (bi, l) in x[k + 1..].iter_mut().zip(&col[1..]) {
                *bi -= l * y;
            }
        }
        // Back substitution Lᵀ·x = y: row k of Lᵀ is column k of L.
        for k in (0..n).rev() {
            let col = self.l.column(k);
            let dot: f64 = col[1..].iter().zip(&x[k + 1..]).map(|(l, x)| l * x).sum();
            x[k] = (x[k] - dot) / col[0];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu;

    #[test]
    fn storage_is_symmetric_and_zero_outside_band() {
        let mut a = BandMatrix::zeros(5, 2);
        a.add(3, 1, 4.0);
        a.add(1, 3, 1.0);
        assert_eq!(a.get(3, 1), 5.0);
        assert_eq!(a.get(1, 3), 5.0);
        assert_eq!(a.get(4, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside the band")]
    fn add_outside_band_panics() {
        BandMatrix::zeros(5, 1).add(3, 0, 1.0);
    }

    #[test]
    fn matches_dense_lu_on_a_pentadiagonal_system() {
        let n = 12;
        let mut a = BandMatrix::zeros(n, 2);
        for i in 0..n {
            a.add(i, i, 6.0 + i as f64 * 0.1);
            if i >= 1 {
                a.add(i, i - 1, -1.5);
            }
            if i >= 2 {
                a.add(i, i - 2, 0.5);
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let dense = lu::solve(&a.to_dense(), &b).unwrap();
        let x = a.cholesky().unwrap().solve(&b).unwrap();
        for (u, v) in x.iter().zip(&dense) {
            assert!((u - v).abs() < 1e-13, "{u} vs {v}");
        }
    }

    #[test]
    fn bandwidth_wider_than_matrix_is_dense_cholesky() {
        let mut a = BandMatrix::zeros(3, 7);
        let dense = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.25],
            vec![0.5, 0.25, 2.0],
        ]);
        for i in 0..3 {
            for j in 0..=i {
                a.add(i, j, dense[(i, j)]);
            }
        }
        let b = [1.0, -2.0, 0.5];
        let x = a.cholesky().unwrap().solve(&b).unwrap();
        let expect = lu::solve(&dense, &b).unwrap();
        for (u, v) in x.iter().zip(&expect) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn indefinite_and_singular_inputs_are_rejected() {
        // Indefinite: eigenvalues 3 and −1.
        let mut a = BandMatrix::zeros(2, 1);
        a.add(0, 0, 1.0);
        a.add(1, 1, 1.0);
        a.add(1, 0, 2.0);
        assert_eq!(a.cholesky(), Err(LinalgError::Singular { pivot: 1 }));
        // A floating resistor chain: Laplacian with no ground.
        let mut l = BandMatrix::zeros(4, 1);
        for i in 1..4 {
            l.add(i, i, 1.0);
            l.add(i - 1, i - 1, 1.0);
            l.add(i, i - 1, -1.0);
        }
        assert_eq!(l.cholesky(), Err(LinalgError::Singular { pivot: 3 }));
        assert_eq!(
            BandMatrix::zeros(3, 1).cholesky(),
            Err(LinalgError::Singular { pivot: 0 })
        );
    }

    #[test]
    fn solve_checks_rhs_length_and_handles_empty() {
        let mut a = BandMatrix::zeros(2, 0);
        a.add(0, 0, 2.0);
        a.add(1, 1, 4.0);
        let c = a.cholesky().unwrap();
        assert!(c.solve(&[1.0]).is_err());
        let x = c.solve(&[2.0, 2.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-15 && (x[1] - 0.5).abs() < 1e-15);
        let empty = BandMatrix::zeros(0, 3).cholesky().unwrap();
        assert!(empty.solve(&[]).unwrap().is_empty());
    }
}
