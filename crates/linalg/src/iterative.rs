//! Iterative solvers for sparse linear systems.
//!
//! Conjugate gradient and successive over-relaxation for symmetric
//! positive definite, diagonally dominant systems such as crossbar nodal
//! equations. The crossbar solver itself is the direct band Cholesky of
//! [`crate::band`]; these are kept for the solver ablation, which
//! cross-checks them against dense LU.

use crate::sparse::CsrMatrix;
use crate::{vector, LinalgError, Result};

/// Stopping criteria for the iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Convergence tolerance on the residual ∞-norm.
    pub tolerance: f64,
    /// SOR relaxation factor ω ∈ (0, 2); ignored by CG.
    pub omega: f64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            max_iterations: 20_000,
            tolerance: 1e-10,
            omega: 1.6,
        }
    }
}

impl SolveOptions {
    /// Options with the given tolerance, other fields defaulted.
    pub fn with_tolerance(tolerance: f64) -> Self {
        Self {
            tolerance,
            ..Self::default()
        }
    }
}

/// Outcome of an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final residual ∞-norm.
    pub residual: f64,
}

/// Conjugate gradient for symmetric positive definite systems.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if shapes disagree.
/// * [`LinalgError::NotConverged`] if the tolerance is not reached within
///   `options.max_iterations`.
pub fn conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    options: &SolveOptions,
) -> Result<SolveReport> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "conjugate_gradient (matrix must be square)",
            expected: n,
            actual: a.cols(),
        });
    }
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "conjugate_gradient rhs",
            expected: n,
            actual: b.len(),
        });
    }
    let mut x = match x0 {
        Some(x0) => {
            if x0.len() != n {
                return Err(LinalgError::DimensionMismatch {
                    context: "conjugate_gradient initial guess",
                    expected: n,
                    actual: x0.len(),
                });
            }
            x0.to_vec()
        }
        None => vec![0.0; n],
    };
    if n == 0 {
        return Ok(SolveReport {
            x,
            iterations: 0,
            residual: 0.0,
        });
    }

    // Jacobi (diagonal) preconditioning: nodal matrices have widely varying
    // diagonal magnitudes (device conductances in µS vs wire conductances
    // in S), so plain CG is badly conditioned without it.
    let diag = a.diagonal();
    let inv_diag: Vec<f64> = diag
        .iter()
        .map(|&d| if d.abs() > 1e-300 { 1.0 / d } else { 1.0 })
        .collect();

    let ax = a.matvec(&x);
    let mut r = vector::sub(b, &ax);
    let mut z = vector::hadamard(&inv_diag, &r);
    let mut p = z.clone();
    let mut rz = vector::dot(&r, &z);

    let mut best_residual = vector::norm_inf(&r);
    if best_residual <= options.tolerance {
        return Ok(SolveReport {
            x,
            iterations: 0,
            residual: best_residual,
        });
    }

    for iter in 1..=options.max_iterations {
        let ap = a.matvec(&p);
        let pap = vector::dot(&p, &ap);
        if pap.abs() < 1e-300 {
            break;
        }
        let alpha = rz / pap;
        vector::axpy(alpha, &p, &mut x);
        vector::axpy(-alpha, &ap, &mut r);
        best_residual = vector::norm_inf(&r);
        if best_residual <= options.tolerance {
            return Ok(SolveReport {
                x,
                iterations: iter,
                residual: best_residual,
            });
        }
        z = vector::hadamard(&inv_diag, &r);
        let rz_new = vector::dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
    }
    Err(LinalgError::NotConverged {
        iterations: options.max_iterations,
        residual: best_residual,
    })
}

/// Successive over-relaxation (Gauss–Seidel when `omega == 1`).
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if shapes disagree.
/// * [`LinalgError::InvalidParameter`] if `omega ∉ (0, 2)` or a diagonal
///   entry is zero.
/// * [`LinalgError::NotConverged`] if the tolerance is not reached.
pub fn sor(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    options: &SolveOptions,
) -> Result<SolveReport> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "sor (matrix must be square)",
            expected: n,
            actual: a.cols(),
        });
    }
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "sor rhs",
            expected: n,
            actual: b.len(),
        });
    }
    if !(options.omega > 0.0 && options.omega < 2.0) {
        return Err(LinalgError::InvalidParameter {
            name: "omega",
            requirement: "must lie in (0, 2)",
        });
    }
    let diag = a.diagonal();
    if diag.iter().any(|&d| d.abs() < 1e-300) {
        return Err(LinalgError::InvalidParameter {
            name: "matrix diagonal",
            requirement: "must be non-zero for SOR",
        });
    }
    let mut x = match x0 {
        Some(x0) if x0.len() == n => x0.to_vec(),
        Some(x0) => {
            return Err(LinalgError::DimensionMismatch {
                context: "sor initial guess",
                expected: n,
                actual: x0.len(),
            })
        }
        None => vec![0.0; n],
    };
    if n == 0 {
        return Ok(SolveReport {
            x,
            iterations: 0,
            residual: 0.0,
        });
    }

    let omega = options.omega;
    for iter in 1..=options.max_iterations {
        for i in 0..n {
            let mut sigma = 0.0;
            for (j, v) in a.row_iter(i) {
                if j != i {
                    sigma += v * x[j];
                }
            }
            let gs = (b[i] - sigma) / diag[i];
            x[i] = (1.0 - omega) * x[i] + omega * gs;
        }
        // Checking the residual every sweep costs another matvec; do it
        // every 4 sweeps (and on the first) to amortize.
        if iter % 4 == 0 || iter == 1 {
            let residual = a.residual_inf(&x, b);
            if residual <= options.tolerance {
                return Ok(SolveReport {
                    x,
                    iterations: iter,
                    residual,
                });
            }
        }
    }
    let residual = a.residual_inf(&x, b);
    if residual <= options.tolerance {
        let iterations = options.max_iterations;
        return Ok(SolveReport {
            x,
            iterations,
            residual,
        });
    }
    Err(LinalgError::NotConverged {
        iterations: options.max_iterations,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    /// 1-D Poisson (tridiagonal [-1, 2, -1]) — SPD, classic test problem.
    fn poisson(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    #[test]
    fn cg_solves_poisson() {
        let n = 64;
        let a = poisson(n);
        let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.1).cos()).collect();
        let b = a.matvec(&x_true);
        let rep = conjugate_gradient(&a, &b, None, &SolveOptions::default()).unwrap();
        for (u, v) in rep.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
        assert!(rep.iterations <= n + 5);
    }

    #[test]
    fn sor_solves_poisson() {
        let n = 32;
        let a = poisson(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
        let b = a.matvec(&x_true);
        let rep = sor(&a, &b, None, &SolveOptions::with_tolerance(1e-9)).unwrap();
        for (u, v) in rep.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    }

    #[test]
    fn cg_and_sor_agree() {
        let n = 40;
        let a = poisson(n);
        let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let xc = conjugate_gradient(&a, &b, None, &SolveOptions::default())
            .unwrap()
            .x;
        let xs = sor(&a, &b, None, &SolveOptions::with_tolerance(1e-11))
            .unwrap()
            .x;
        for (u, v) in xc.iter().zip(&xs) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let n = 64;
        let a = poisson(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        let b = a.matvec(&x_true);
        let cold = conjugate_gradient(&a, &b, None, &SolveOptions::default()).unwrap();
        let warm = conjugate_gradient(&a, &b, Some(&x_true), &SolveOptions::default()).unwrap();
        assert!(warm.iterations <= cold.iterations);
        assert_eq!(warm.iterations, 0);
    }

    #[test]
    fn cg_reports_non_convergence() {
        let n = 128;
        let a = poisson(n);
        let b = vec![1.0; n];
        let opts = SolveOptions {
            max_iterations: 2,
            tolerance: 1e-14,
            omega: 1.0,
        };
        match conjugate_gradient(&a, &b, None, &opts) {
            Err(LinalgError::NotConverged { iterations, .. }) => assert_eq!(iterations, 2),
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn sor_rejects_bad_omega() {
        let a = poisson(4);
        let b = vec![1.0; 4];
        let opts = SolveOptions {
            omega: 2.5,
            ..Default::default()
        };
        assert!(matches!(
            sor(&a, &b, None, &opts),
            Err(LinalgError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn sor_rejects_zero_diagonal() {
        let mut t = TripletBuilder::new(2, 2);
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        t.add(1, 1, 1.0);
        let a = t.build();
        assert!(matches!(
            sor(&a, &[1.0, 1.0], None, &SolveOptions::default()),
            Err(LinalgError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = poisson(4);
        assert!(conjugate_gradient(&a, &[1.0; 3], None, &SolveOptions::default()).is_err());
        assert!(sor(&a, &[1.0; 5], None, &SolveOptions::default()).is_err());
        assert!(
            conjugate_gradient(&a, &[1.0; 4], Some(&[0.0; 3]), &SolveOptions::default()).is_err()
        );
    }

    #[test]
    fn empty_system() {
        let a = TripletBuilder::new(0, 0).build();
        let rep = conjugate_gradient(&a, &[], None, &SolveOptions::default()).unwrap();
        assert!(rep.x.is_empty());
        let rep = sor(&a, &[], None, &SolveOptions::default()).unwrap();
        assert!(rep.x.is_empty());
    }

    #[test]
    fn badly_scaled_diagonal_still_converges() {
        // Mimics the nodal matrix: wire conductance ~0.4 S, device ~1e-5 S.
        let n = 30;
        let mut t = TripletBuilder::new(n, n);
        for i in 0..n {
            let big = 0.4;
            let small = 1e-5 * (1.0 + i as f64);
            t.add(i, i, 2.0 * big + small);
            if i > 0 {
                t.add(i, i - 1, -big);
            }
            if i + 1 < n {
                t.add(i, i + 1, -big);
            }
        }
        let a = t.build();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.01).collect();
        let b = a.matvec(&x_true);
        let rep = conjugate_gradient(&a, &b, None, &SolveOptions::with_tolerance(1e-12)).unwrap();
        for (u, v) in rep.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6);
        }
    }
}
