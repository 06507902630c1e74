//! Exact resistive-mesh (nodal analysis) solve of a crossbar with wire
//! resistance.
//!
//! Geometry (Fig. 1(b) of the paper): row (word) wires are driven from the
//! **left**, column (bit) wires are grounded/sensed at the **bottom**. Each
//! wire is a chain of segments with resistance `r_wire`; the memristor at
//! `(i, j)` bridges row-wire node `T(i,j)` and column-wire node `B(i,j)`.
//!
//! The same mesh serves two bias conditions:
//!
//! * **compute** — every row driven at its input voltage, every column at
//!   virtual ground: the sensed column currents are the degraded analog
//!   MVM.
//! * **programming** — one selected cell sees the full programming voltage
//!   path, every other wire is held at V/2 (the half-select scheme,
//!   §2.2.2): the solve yields the *actual* voltage across every device,
//!   which is what the IR-drop analysis of §3.2 is about.
//!
//! The resulting system is a symmetric positive definite conductance
//! Laplacian with Dirichlet boundary segments. Numbered along the array's
//! shorter side — `(i, layer, j)` when `cols ≤ rows`, `(j, layer, i)`
//! otherwise — it is a band matrix of half-bandwidth `2·min(rows, cols)`,
//! stamped straight into band storage and solved directly by a band
//! Cholesky factorization ([`vortex_linalg::band`]). One factorization
//! serves every bias condition that drives the same set of wires.

use vortex_linalg::band::{BandCholesky, BandMatrix};
use vortex_linalg::Matrix;

use crate::{Result, XbarError};

/// Per-row drive condition for [`NodalAnalysis::compute_general`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowDrive {
    /// Row driven at the given voltage through one wire segment.
    Voltage(f64),
    /// Row driver disconnected — the row floats on whatever its devices
    /// impose (the sneak-path condition).
    Floating,
}

/// Per-column termination condition for
/// [`NodalAnalysis::compute_general`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColTermination {
    /// Column terminated at the given voltage through one wire segment
    /// (0 V = virtual-ground sensing).
    Voltage(f64),
    /// Column left unterminated — no sense amp attached; the column
    /// floats and can carry sneak chains.
    Floating,
}

/// Result of a compute-mode (read) circuit solve.
#[derive(Debug, Clone)]
pub struct ComputeSolution {
    /// Sensed current of every column (amperes, flowing into the ground
    /// terminal).
    pub column_currents: Vec<f64>,
    /// Voltage across every device: `T(i,j) − B(i,j)`.
    pub device_voltages: Matrix,
    /// Raw node voltages: row-wire node `T(i,j)` at `i·cols + j`, then
    /// column-wire node `B(i,j)` at `rows·cols + i·cols + j`.
    pub node_voltages: Vec<f64>,
}

/// Nodal analysis of an `rows × cols` crossbar mesh.
///
/// # Example
///
/// ```
/// use vortex_linalg::Matrix;
/// use vortex_xbar::circuit::NodalAnalysis;
///
/// # fn main() -> Result<(), vortex_xbar::XbarError> {
/// let na = NodalAnalysis::new(4, 2, 2.5)?; // 4×2 mesh, 2.5 Ω segments
/// let g = Matrix::filled(4, 2, 1e-4);      // all LRS
/// let sol = na.compute(&g, &[1.0, 1.0, 1.0, 1.0])?;
/// // IR drop keeps each column below the ideal 4 × 100 µA.
/// assert!(sol.column_currents[0] < 4e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NodalAnalysis {
    rows: usize,
    cols: usize,
    g_wire: f64,
}

impl NodalAnalysis {
    /// Creates a solver for the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] for an empty array or a
    /// non-positive / non-finite wire resistance (use the ideal model for
    /// `r_wire == 0`).
    pub fn new(rows: usize, cols: usize, r_wire: f64) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(XbarError::InvalidParameter {
                name: "rows/cols",
                requirement: "must both be positive",
            });
        }
        if !(r_wire.is_finite() && r_wire > 0.0) {
            return Err(XbarError::InvalidParameter {
                name: "r_wire",
                requirement: "must be finite and positive (use ideal::compute for 0)",
            });
        }
        Ok(Self {
            rows,
            cols,
            g_wire: 1.0 / r_wire,
        })
    }

    /// Number of rows of the mesh.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the mesh.
    pub fn cols(&self) -> usize {
        self.cols
    }

    fn t_idx(&self, i: usize, j: usize) -> usize {
        i * self.cols + j
    }

    fn b_idx(&self, i: usize, j: usize) -> usize {
        self.rows * self.cols + i * self.cols + j
    }

    /// Band-order index of the row-wire node `T(i, j)` (`layer` 0) or the
    /// column-wire node `B(i, j)` (`layer` 1): numbered along the shorter
    /// side, so every coupling spans at most `2·min(rows, cols)` indices.
    fn node(&self, i: usize, layer: usize, j: usize) -> usize {
        if self.cols <= self.rows {
            (2 * i + layer) * self.cols + j
        } else {
            (2 * j + layer) * self.rows + i
        }
    }

    /// Stamps the mesh's conductance Laplacian into band storage and
    /// factors it. Only *which* wires are driven or terminated enters the
    /// matrix; their voltages enter the right-hand side
    /// ([`Self::solve_factored`]), so one factor serves every bias with
    /// the same pattern.
    fn factor(
        &self,
        g: &Matrix,
        row_drives: &[RowDrive],
        col_terminations: &[ColTermination],
    ) -> Result<BandCholesky> {
        let (m, n) = (self.rows, self.cols);
        let gw = self.g_wire;
        let mut a = BandMatrix::zeros(2 * m * n, 2 * m.min(n));
        let mut stamp = |u: usize, v: usize, c: f64| {
            a.add(u, u, c);
            a.add(v, v, c);
            a.add(u, v, -c);
        };
        for i in 0..m {
            for j in 0..n {
                let t = self.node(i, 0, j);
                let b = self.node(i, 1, j);
                // Device between T and B.
                stamp(t, b, g[(i, j)]);
                // Row wire to the left neighbour; column wire to the one
                // below.
                if j > 0 {
                    stamp(t, self.node(i, 0, j - 1), gw);
                }
                if i + 1 < m {
                    stamp(b, self.node(i + 1, 1, j), gw);
                }
            }
        }
        // Driver and termination segments (floating wires have none).
        for (i, d) in row_drives.iter().enumerate() {
            if let RowDrive::Voltage(_) = d {
                let t = self.node(i, 0, 0);
                a.add(t, t, gw);
            }
        }
        for (j, c) in col_terminations.iter().enumerate() {
            if let ColTermination::Voltage(_) = c {
                let b = self.node(m - 1, 1, j);
                a.add(b, b, gw);
            }
        }
        Ok(a.cholesky()?)
    }

    /// Solves a mesh factored by [`Self::factor`] with the same drive
    /// pattern for these drive voltages. Returns node voltages in band
    /// order ([`Self::node`]).
    fn solve_factored(
        &self,
        chol: &BandCholesky,
        row_drives: &[RowDrive],
        col_terminations: &[ColTermination],
    ) -> Result<Vec<f64>> {
        let mut rhs = vec![0.0; 2 * self.rows * self.cols];
        for (i, d) in row_drives.iter().enumerate() {
            if let RowDrive::Voltage(x) = d {
                rhs[self.node(i, 0, 0)] += self.g_wire * x;
            }
        }
        for (j, c) in col_terminations.iter().enumerate() {
            if let ColTermination::Voltage(x) = c {
                rhs[self.node(self.rows - 1, 1, j)] += self.g_wire * x;
            }
        }
        Ok(chol.solve(&rhs)?)
    }

    /// Factors and solves in one go; node voltages in band order.
    fn solve_mesh(
        &self,
        g: &Matrix,
        row_drives: &[RowDrive],
        col_terminations: &[ColTermination],
    ) -> Result<Vec<f64>> {
        let chol = self.factor(g, row_drives, col_terminations)?;
        self.solve_factored(&chol, row_drives, col_terminations)
    }

    /// Voltage `T(i,j) − B(i,j)` across every device, from band-ordered
    /// node voltages.
    fn device_voltages(&self, v: &[f64]) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            v[self.node(i, 0, j)] - v[self.node(i, 1, j)]
        })
    }

    /// Packages a band-ordered solve as a [`ComputeSolution`] (node
    /// voltages back in row-wire-then-column-wire order).
    fn compute_solution(&self, v: &[f64], column_currents: Vec<f64>) -> ComputeSolution {
        let mut node_voltages = vec![0.0; v.len()];
        for i in 0..self.rows {
            for j in 0..self.cols {
                node_voltages[self.t_idx(i, j)] = v[self.node(i, 0, j)];
                node_voltages[self.b_idx(i, j)] = v[self.node(i, 1, j)];
            }
        }
        ComputeSolution {
            column_currents,
            device_voltages: self.device_voltages(v),
            node_voltages,
        }
    }

    /// Compute-mode (read) solve: rows driven at `x`, columns at virtual
    /// ground.
    ///
    /// # Errors
    ///
    /// * [`XbarError::ShapeMismatch`] if `g` or `x` disagree with the mesh
    ///   geometry.
    /// * [`XbarError::Numeric`] if the factorization meets a singular
    ///   pivot (non-positive conductances).
    pub fn compute(&self, g: &Matrix, x: &[f64]) -> Result<ComputeSolution> {
        self.check_shape(g)?;
        if x.len() != self.rows {
            return Err(XbarError::ShapeMismatch {
                context: "compute input vector",
                expected: self.rows,
                actual: x.len(),
            });
        }
        let drives: Vec<RowDrive> = x.iter().map(|&v| RowDrive::Voltage(v)).collect();
        let terms = vec![ColTermination::Voltage(0.0); self.cols];
        let v = self.solve_mesh(g, &drives, &terms)?;
        let currents = (0..self.cols)
            .map(|j| self.g_wire * v[self.node(self.rows - 1, 1, j)])
            .collect();
        Ok(self.compute_solution(&v, currents))
    }

    /// General read solve with arbitrary per-row drive conditions and
    /// per-column termination voltages. This is the tool behind the
    /// sneak-path analysis ([`crate::sneak`]): floating rows let current
    /// creep through multi-device series paths.
    ///
    /// # Errors
    ///
    /// * [`XbarError::ShapeMismatch`] if dimensions disagree.
    /// * [`XbarError::Numeric`] with [`vortex_linalg::LinalgError::Singular`]
    ///   if part of the mesh has no path to any driven or terminated wire
    ///   (e.g. every row and column floating): its voltage is undefined.
    pub fn compute_general(
        &self,
        g: &Matrix,
        row_drives: &[RowDrive],
        col_terminations: &[ColTermination],
    ) -> Result<ComputeSolution> {
        self.check_shape(g)?;
        if row_drives.len() != self.rows {
            return Err(XbarError::ShapeMismatch {
                context: "compute_general row drives",
                expected: self.rows,
                actual: row_drives.len(),
            });
        }
        if col_terminations.len() != self.cols {
            return Err(XbarError::ShapeMismatch {
                context: "compute_general column terminations",
                expected: self.cols,
                actual: col_terminations.len(),
            });
        }
        let v = self.solve_mesh(g, row_drives, col_terminations)?;
        let currents = (0..self.cols)
            .map(|j| match col_terminations[j] {
                ColTermination::Voltage(vt) => {
                    self.g_wire * (v[self.node(self.rows - 1, 1, j)] - vt)
                }
                ColTermination::Floating => 0.0,
            })
            .collect();
        Ok(self.compute_solution(&v, currents))
    }

    /// Programming-mode solve with the V/2 half-select scheme: row `p`
    /// driven at `v_program`, column `q` grounded, all other wires held at
    /// `v_program / 2`.
    ///
    /// Returns the voltage across every device; entry `(p, q)` is the
    /// degraded full-select programming voltage, the rest are half-select
    /// disturb voltages.
    ///
    /// # Errors
    ///
    /// * [`XbarError::ShapeMismatch`] / [`XbarError::InvalidParameter`] on
    ///   bad arguments.
    /// * [`XbarError::Numeric`] if the factorization meets a singular
    ///   pivot (non-positive conductances).
    pub fn program_bias(
        &self,
        g: &Matrix,
        selected: (usize, usize),
        v_program: f64,
    ) -> Result<Matrix> {
        self.check_shape(g)?;
        let (p, q) = selected;
        if p >= self.rows || q >= self.cols {
            return Err(XbarError::InvalidParameter {
                name: "selected",
                requirement: "cell coordinates must lie inside the array",
            });
        }
        let (drives, terms) = self.half_select(selected, v_program);
        let v = self.solve_mesh(g, &drives, &terms)?;
        Ok(self.device_voltages(&v))
    }

    /// The full-select programming voltage of every cell: entry `(p, q)`
    /// equals `program_bias(g, (p, q), v_program)[(p, q)]`. Every
    /// half-select bias drives every wire, so the mesh is factored once
    /// and each of the `rows·cols` conditions costs one band solve.
    ///
    /// # Errors
    ///
    /// * [`XbarError::ShapeMismatch`] if `g` disagrees with the mesh.
    /// * [`XbarError::Numeric`] if the factorization meets a singular
    ///   pivot (non-positive conductances).
    pub fn selected_program_voltages(&self, g: &Matrix, v_program: f64) -> Result<Matrix> {
        self.check_shape(g)?;
        let (drives, terms) = self.half_select((0, 0), v_program);
        let chol = self.factor(g, &drives, &terms)?;
        let mut out = Matrix::zeros(self.rows, self.cols);
        for p in 0..self.rows {
            for q in 0..self.cols {
                let (drives, terms) = self.half_select((p, q), v_program);
                let v = self.solve_factored(&chol, &drives, &terms)?;
                out[(p, q)] = v[self.node(p, 0, q)] - v[self.node(p, 1, q)];
            }
        }
        Ok(out)
    }

    /// Wire conditions of the V/2 half-select scheme for cell `(p, q)`.
    fn half_select(
        &self,
        (p, q): (usize, usize),
        v_program: f64,
    ) -> (Vec<RowDrive>, Vec<ColTermination>) {
        let half = v_program / 2.0;
        let drives = (0..self.rows)
            .map(|i| RowDrive::Voltage(if i == p { v_program } else { half }))
            .collect();
        let terms = (0..self.cols)
            .map(|j| ColTermination::Voltage(if j == q { 0.0 } else { half }))
            .collect();
        (drives, terms)
    }

    fn check_shape(&self, g: &Matrix) -> Result<()> {
        if g.shape() != (self.rows, self.cols) {
            return Err(XbarError::ShapeMismatch {
                context: "conductance matrix",
                expected: self.rows * self.cols,
                actual: g.rows() * g.cols(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ideal;

    #[test]
    fn one_by_one_matches_series_circuit() {
        // v → r_wire → device → r_wire → ground: I = v / (2·r_w + r_dev).
        let r_wire = 2.5;
        let r_dev = 10e3;
        let na = NodalAnalysis::new(1, 1, r_wire).unwrap();
        let g = Matrix::filled(1, 1, 1.0 / r_dev);
        let sol = na.compute(&g, &[1.0]).unwrap();
        let expect = 1.0 / (2.0 * r_wire + r_dev);
        assert!(
            (sol.column_currents[0] - expect).abs() / expect < 1e-6,
            "{} vs {}",
            sol.column_currents[0],
            expect
        );
        // Device voltage = I · r_dev.
        let vd = sol.device_voltages[(0, 0)];
        assert!((vd - expect * r_dev).abs() < 1e-6);
    }

    #[test]
    fn tiny_wire_resistance_approaches_ideal() {
        let na = NodalAnalysis::new(4, 3, 1e-6).unwrap();
        let g = Matrix::from_fn(4, 3, |i, j| 1e-5 + (i + j) as f64 * 1e-5);
        let x = [1.0, 0.8, 0.5, 0.2];
        let sol = na.compute(&g, &x).unwrap();
        let ideal_y = ideal::compute(&g, &x);
        for (a, b) in sol.column_currents.iter().zip(&ideal_y) {
            assert!((a - b).abs() / b < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn wire_resistance_only_reduces_current() {
        let g = Matrix::filled(8, 4, 1e-4); // all LRS — worst case
        let x = vec![1.0; 8];
        let ideal_y = ideal::compute(&g, &x);
        let na = NodalAnalysis::new(8, 4, 10.0).unwrap();
        let sol = na.compute(&g, &x).unwrap();
        for (a, b) in sol.column_currents.iter().zip(&ideal_y) {
            assert!(*a < *b, "IR drop must reduce current: {a} vs {b}");
            assert!(*a > 0.5 * b, "but not absurdly");
        }
    }

    #[test]
    fn degradation_grows_with_wire_resistance() {
        let g = Matrix::filled(8, 4, 1e-4);
        let x = vec![1.0; 8];
        let mut prev = f64::INFINITY;
        for &rw in &[0.5, 2.5, 10.0, 50.0] {
            let na = NodalAnalysis::new(8, 4, rw).unwrap();
            let y = na.compute(&g, &x).unwrap().column_currents[0];
            assert!(y < prev, "current must fall as r_wire grows");
            prev = y;
        }
    }

    #[test]
    fn program_bias_selected_cell_sees_most_voltage() {
        let na = NodalAnalysis::new(6, 4, 2.5).unwrap();
        let g = Matrix::filled(6, 4, 1e-4);
        let v = 2.8;
        let bias = na.program_bias(&g, (2, 1), v).unwrap();
        let sel = bias[(2, 1)];
        assert!(sel > 0.9 * v, "selected cell voltage {sel}");
        assert!(sel < v, "IR drop must eat some voltage");
        // Half-selected cells see roughly V/2 or less.
        for i in 0..6 {
            for j in 0..4 {
                if (i, j) != (2, 1) {
                    assert!(
                        bias[(i, j)].abs() < 0.55 * v + 1e-9,
                        "half-select cell ({i},{j}) sees {}",
                        bias[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn program_bias_far_cell_degrades_more() {
        // All-LRS worst case: the cell far from both drivers (top-right in
        // our orientation) sees less programming voltage than the near one
        // (bottom-left).
        let m = 16;
        let n = 8;
        let na = NodalAnalysis::new(m, n, 5.0).unwrap();
        let g = Matrix::filled(m, n, 1e-4);
        let v = 2.8;
        let near = na.program_bias(&g, (m - 1, 0), v).unwrap()[(m - 1, 0)];
        let far = na.program_bias(&g, (0, n - 1), v).unwrap()[(0, n - 1)];
        assert!(
            far < near,
            "far cell should be more degraded: far={far} near={near}"
        );
    }

    #[test]
    fn invalid_arguments_rejected() {
        assert!(NodalAnalysis::new(0, 3, 2.5).is_err());
        assert!(NodalAnalysis::new(3, 3, 0.0).is_err());
        assert!(NodalAnalysis::new(3, 3, -2.5).is_err());
        let na = NodalAnalysis::new(3, 3, 2.5).unwrap();
        let g = Matrix::filled(2, 3, 1e-5);
        assert!(na.compute(&g, &[1.0; 3]).is_err());
        let g = Matrix::filled(3, 3, 1e-5);
        assert!(na.compute(&g, &[1.0; 2]).is_err());
        assert!(na.program_bias(&g, (5, 0), 2.8).is_err());
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let na = NodalAnalysis::new(4, 2, 2.5).unwrap();
        let g = Matrix::filled(4, 2, 1e-4);
        let sol = na.compute(&g, &[0.0; 4]).unwrap();
        for c in &sol.column_currents {
            assert!(c.abs() < 1e-12);
        }
    }

    #[test]
    fn superposition_approximately_holds() {
        // The network is linear: y(x1 + x2) = y(x1) + y(x2).
        let na = NodalAnalysis::new(4, 3, 2.5).unwrap();
        let g = Matrix::from_fn(4, 3, |i, j| 1e-5 * (1 + (i * 3 + j) % 4) as f64);
        let x1 = [1.0, 0.0, 0.5, 0.0];
        let x2 = [0.0, 1.0, 0.0, 0.25];
        let xs: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| a + b).collect();
        let y1 = na.compute(&g, &x1).unwrap().column_currents;
        let y2 = na.compute(&g, &x2).unwrap().column_currents;
        let ys = na.compute(&g, &xs).unwrap().column_currents;
        for j in 0..3 {
            assert!((ys[j] - (y1[j] + y2[j])).abs() < 1e-9);
        }
    }
}
