//! Read kernels: the bit-exact f64 reference and the certified f32 fast
//! path.
//!
//! Every compiled-model read ultimately reduces to `y = Mᵀx` against the
//! effective conductance matrices. Two kernels implement it:
//!
//! * [`gemv_ref`] — the f64 **reference**: identical values and identical
//!   floating-point operation order to [`vortex_linalg::Matrix::vecmat`]
//!   (zero-skip + row-major axpy accumulation), which is what keeps a
//!   compiled model bit-exact with the live crossbar read. Every public
//!   `scores()` value comes from this kernel; it is the semantics of the
//!   model. A calibrated model reads through [`gemv_ref_attenuated`],
//!   which forms each effective conductance `gᵢⱼ·aᵢⱼ` as it goes, so the
//!   model stores `G` and `A` but no third f64 copy of their product.
//! * [`gemv_f32`] — the **fast path**: the differential read collapsed
//!   into one pre-combined single-precision matrix
//!   `D = (G⁺∘A⁺ − G⁻∘A⁻)/s`, walked with column tiling and 4-row
//!   unrolling so LLVM autovectorizes the inner loop. Half the memory
//!   traffic of the two-matrix f64 walk per crossbar (4 bytes vs 8 per
//!   coefficient, one matrix vs two), which is what the batched read is
//!   bound by.
//!
//! # The tolerance contract
//!
//! The fast path is only allowed to answer **labels**, and only when the
//! answer provably equals the reference's. [`FastGemv`] carries a
//! per-column error radius bounding every source of disagreement between
//! the f32 computation and the f64 reference:
//!
//! * rounding `D` and `x` to f32 (relative error ≤ 2⁻²⁴ each),
//! * the f32 dot-product accumulation (`n` roundings at 2⁻²⁴, any
//!   association order — so unrolling is covered),
//! * the f64 reference's own accumulation error against the real-valued
//!   product (at 2⁻⁵³, including the cancellation headroom of computing
//!   `(i⁺ − i⁻)/s` from the two positive current vectors rather than from
//!   `D` directly — bounded via the *sum* of conductance magnitudes).
//!
//! With `γ₃₂ = 4(n+4)·2⁻²⁴` and `γ₆₄ = 4(n+4)·2⁻⁵³` the radius of column
//! `j` for input `x` is `e_j = ‖x‖₁·(γ₃₂·maxᵢ|Dᵢⱼ| + γ₆₄·maxᵢ(|G⁺ᵢⱼ|+|G⁻ᵢⱼ|)/s)`
//! — the leading constant is ~4× the textbook `γₙ` bound, pure safety
//! margin. [`FastGemv::certified_label`] accepts its argmax only when the
//! f32 winner beats every other column by **more than** the two columns'
//! radii combined; ties, near-ties, NaNs and non-finite inputs all fail
//! the strict inequality and fall back to the reference. The fast path
//! therefore never changes a prediction — only the time it takes.
//! `crates/runtime/tests/kernel_equivalence.rs` property-tests both the
//! analytic bound and the label agreement.

use vortex_linalg::{vector, Matrix};

/// Unit roundoff of `f32` (2⁻²⁴).
pub const F32_EPS: f64 = 5.960_464_477_539_063e-8;

/// Unit roundoff of `f64` (2⁻⁵³).
pub const F64_EPS: f64 = 1.110_223_024_625_156_5e-16;

/// Columns per tile of the f32 kernel: 256 columns × 5 rows of f32
/// live-data fits comfortably in L1 alongside the accumulator.
const COL_TILE: usize = 256;

/// `y = mᵀx` in f64, replicating [`Matrix::vecmat`] exactly (same
/// zero-skip, same accumulation order) without the output allocation.
/// This is the reference kernel every score passes through.
pub fn gemv_ref(m: &Matrix, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), m.rows());
    debug_assert_eq!(y.len(), m.cols());
    y.fill(0.0);
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        vector::axpy(xi, m.row(i), y);
    }
}

/// [`gemv_ref`] over the effective matrix `g ∘ a` without storing it:
/// `yⱼ += xᵢ·(gᵢⱼ·aᵢⱼ)`. Each product is the element of
/// `g.hadamard(a)`, taken in the same order, so the result equals
/// `gemv_ref(&g.hadamard(a), x, y)` bit for bit. This is the reference
/// read of a calibrated model.
pub fn gemv_ref_attenuated(g: &Matrix, a: &Matrix, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(g.shape(), a.shape());
    debug_assert_eq!(x.len(), g.rows());
    debug_assert_eq!(y.len(), g.cols());
    y.fill(0.0);
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        for ((yj, &gij), &aij) in y.iter_mut().zip(g.row(i)).zip(a.row(i)) {
            *yj += xi * (gij * aij);
        }
    }
}

/// `y = dᵀx` in f32 over the row-major `rows × cols` matrix `d`, column
/// tiled and 4-row unrolled. Deterministic: a fixed association order,
/// independent of thread count or call site.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `rows`/`cols`.
pub fn gemv_f32(d: &[f32], rows: usize, cols: usize, x: &[f32], y: &mut [f32]) {
    assert_eq!(d.len(), rows * cols, "matrix buffer must be rows*cols");
    assert_eq!(x.len(), rows, "input length must equal rows");
    assert_eq!(y.len(), cols, "output length must equal cols");
    y.fill(0.0);
    let mut c0 = 0;
    while c0 < cols {
        let c1 = (c0 + COL_TILE).min(cols);
        let acc = &mut y[c0..c1];
        let mut i = 0;
        // 4-row unroll: one pass over the accumulator per 4 input rows,
        // with equal-length slices so the inner loop autovectorizes.
        while i + 4 <= rows {
            let (x0, x1, x2, x3) = (x[i], x[i + 1], x[i + 2], x[i + 3]);
            let r0 = &d[i * cols + c0..i * cols + c1];
            let r1 = &d[(i + 1) * cols + c0..(i + 1) * cols + c1];
            let r2 = &d[(i + 2) * cols + c0..(i + 2) * cols + c1];
            let r3 = &d[(i + 3) * cols + c0..(i + 3) * cols + c1];
            for (j, out) in acc.iter_mut().enumerate() {
                *out += x0 * r0[j] + x1 * r1[j] + x2 * r2[j] + x3 * r3[j];
            }
            i += 4;
        }
        while i < rows {
            let xi = x[i];
            let row = &d[i * cols + c0..i * cols + c1];
            for (out, &dij) in acc.iter_mut().zip(row) {
                *out += xi * dij;
            }
            i += 1;
        }
        c0 = c1;
    }
}

/// The pre-combined f32 read matrix plus its per-column error radii. See
/// the module docs for the tolerance contract.
#[derive(Debug, Clone)]
pub struct FastGemv {
    /// `(eff_pos − eff_neg)/scale`, combined in f64 and rounded to f32,
    /// row-major.
    d: Vec<f32>,
    /// Per-column radius coefficient: multiply by `‖x‖₁` for the error
    /// bound of that column's f32 score against the f64 reference.
    radius: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl FastGemv {
    /// Builds the combined matrix and radii from the effective
    /// conductance pair of a compiled model (`G` itself for an ideal
    /// read, a transient `G ∘ A` for a calibrated one).
    pub fn from_effective(eff_pos: &Matrix, eff_neg: &Matrix, scale: f64) -> Self {
        let (rows, cols) = eff_pos.shape();
        debug_assert_eq!(eff_neg.shape(), (rows, cols));
        let mut d = vec![0f32; rows * cols];
        let mut colmax_d = vec![0f64; cols];
        let mut colmax_sum = vec![0f64; cols];
        for i in 0..rows {
            let p = eff_pos.row(i);
            let n = eff_neg.row(i);
            for j in 0..cols {
                let dij = (p[j] - n[j]) / scale;
                d[i * cols + j] = dij as f32;
                colmax_d[j] = colmax_d[j].max(dij.abs());
                colmax_sum[j] = colmax_sum[j].max((p[j].abs() + n[j].abs()) / scale);
            }
        }
        let gamma32 = 4.0 * (rows as f64 + 4.0) * F32_EPS;
        let gamma64 = 4.0 * (rows as f64 + 4.0) * F64_EPS;
        let radius = (0..cols)
            .map(|j| gamma32 * colmax_d[j] + gamma64 * colmax_sum[j])
            .collect();
        Self {
            d,
            radius,
            rows,
            cols,
        }
    }

    /// Physical rows of the combined matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Classes (columns) of the combined matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The combined f32 matrix, row-major (for benches and tests).
    pub fn matrix(&self) -> &[f32] {
        &self.d
    }

    /// Error-bound coefficient of column `j` (multiply by `‖x‖₁`).
    pub fn radius(&self, j: usize) -> f64 {
        self.radius[j]
    }

    /// Raw f32 scores into `s32` (uncertified — tests and benches only;
    /// the model uses [`Self::certified_label`]).
    pub fn scores_into(&self, x32: &[f32], s32: &mut [f32]) {
        gemv_f32(&self.d, self.rows, self.cols, x32, s32);
    }

    /// The argmax label of the routed (post-DAC) input `x`, **iff** it
    /// provably equals the f64 reference's argmax; `None` means the
    /// margin is inside the error radius and the caller must take the
    /// reference path. `x32`/`s32` are caller scratch of length
    /// `rows`/`cols`.
    pub fn certified_label(&self, x: &[f64], x32: &mut [f32], s32: &mut [f32]) -> Option<usize> {
        debug_assert_eq!(x.len(), self.rows);
        debug_assert_eq!(x32.len(), self.rows);
        debug_assert_eq!(s32.len(), self.cols);
        let mut norm1 = 0.0f64;
        for (dst, &v) in x32.iter_mut().zip(x) {
            norm1 += v.abs();
            *dst = v as f32;
        }
        if !norm1.is_finite() {
            return None;
        }
        gemv_f32(&self.d, self.rows, self.cols, x32, s32);
        // Candidate winner: lowest index on exact ties, NaN never wins a
        // strict comparison — both matching `vector::argmax`'s rules, and
        // irrelevant anyway: any tie or NaN fails certification below.
        let mut top = 0usize;
        for j in 1..self.cols {
            if s32[j] > s32[top] {
                top = j;
            }
        }
        let e_top = norm1 * self.radius[top];
        for j in 0..self.cols {
            if j == top {
                continue;
            }
            let gap = f64::from(s32[top]) - f64::from(s32[j]);
            // Strict negated comparison on purpose: a NaN gap must fall
            // back, and `!(a > b)` is the only form that treats NaN as
            // "not certified" rather than "certified".
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(gap > e_top + norm1 * self.radius[j]) {
                return None;
            }
        }
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
        Matrix::from_fn(rows, cols, f)
    }

    #[test]
    fn gemv_f32_matches_naive_product() {
        for (rows, cols) in [(1, 1), (3, 5), (4, 4), (17, 3), (300, 10)] {
            let d: Vec<f32> = (0..rows * cols)
                .map(|k| ((k as f32) * 0.37).sin())
                .collect();
            let x: Vec<f32> = (0..rows).map(|i| ((i as f32) * 0.7).cos()).collect();
            let mut y = vec![0f32; cols];
            gemv_f32(&d, rows, cols, &x, &mut y);
            for j in 0..cols {
                let want: f64 = (0..rows)
                    .map(|i| f64::from(x[i]) * f64::from(d[i * cols + j]))
                    .sum();
                assert!(
                    (f64::from(y[j]) - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "({rows}x{cols}) col {j}: {} vs {want}",
                    y[j]
                );
            }
        }
    }

    #[test]
    fn gemv_ref_matches_matrix_vecmat_bit_for_bit() {
        let m = dense(9, 4, |i, j| ((i * 4 + j) as f64 * 0.41).sin());
        let x: Vec<f64> = (0..9).map(|i| ((i as f64) * 0.3).cos()).collect();
        let want = m.vecmat(&x);
        let mut got = vec![0.0; 4];
        gemv_ref(&m, &x, &mut got);
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn certified_label_agrees_with_reference_when_some() {
        let rows = 40;
        let cols = 6;
        let scale = 2.5e-4;
        let pos = dense(rows, cols, |i, j| {
            scale * (1.0 + ((i * cols + j) as f64 * 0.13).sin()).abs()
        });
        let neg = dense(rows, cols, |i, j| {
            scale * (1.0 + ((i * cols + j) as f64 * 0.29).cos()).abs()
        });
        let fast = FastGemv::from_effective(&pos, &neg, scale);
        let mut x32 = vec![0f32; rows];
        let mut s32 = vec![0f32; cols];
        let mut certified = 0;
        for k in 0..200 {
            let x: Vec<f64> = (0..rows)
                .map(|i| ((i + k * rows) as f64 * 0.17).sin().abs())
                .collect();
            // f64 reference: (pos - neg)/scale per column, axpy order.
            let mut ip = vec![0.0; cols];
            let mut in_ = vec![0.0; cols];
            gemv_ref(&pos, &x, &mut ip);
            gemv_ref(&neg, &x, &mut in_);
            let scores: Vec<f64> = ip.iter().zip(&in_).map(|(p, n)| (p - n) / scale).collect();
            let want = vector::argmax(&scores).unwrap();
            if let Some(got) = fast.certified_label(&x, &mut x32, &mut s32) {
                certified += 1;
                assert_eq!(got, want, "certified label diverged at sample {k}");
            }
        }
        assert!(
            certified >= 190,
            "fast path certified only {certified}/200 well-separated samples"
        );
    }

    #[test]
    fn non_finite_input_is_never_certified() {
        let pos = dense(4, 2, |_, _| 1e-4);
        let neg = dense(4, 2, |i, j| 1e-4 * ((i + j) as f64 * 0.1 + 0.5));
        let fast = FastGemv::from_effective(&pos, &neg, 1e-4);
        let mut x32 = vec![0f32; 4];
        let mut s32 = vec![0f32; 2];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let x = vec![0.5, bad, 0.5, 0.5];
            assert_eq!(fast.certified_label(&x, &mut x32, &mut s32), None);
        }
    }

    #[test]
    fn single_class_is_always_certified_to_zero() {
        let pos = dense(6, 1, |i, _| 1e-4 * (i as f64 + 1.0));
        let neg = dense(6, 1, |i, _| 0.5e-4 * (i as f64 + 1.0));
        let fast = FastGemv::from_effective(&pos, &neg, 1e-4);
        let mut x32 = vec![0f32; 6];
        let mut s32 = vec![0f32; 1];
        assert_eq!(fast.certified_label(&[0.1; 6], &mut x32, &mut s32), Some(0));
    }

    #[test]
    fn exact_tie_falls_back() {
        // Two identical columns: the gap is exactly zero, which can never
        // clear a positive radius.
        let pos = dense(3, 2, |i, _| 1e-4 * (i as f64 + 1.0));
        let neg = dense(3, 2, |_, _| 0.4e-4);
        let fast = FastGemv::from_effective(&pos, &neg, 1e-4);
        let mut x32 = vec![0f32; 3];
        let mut s32 = vec![0f32; 2];
        assert_eq!(fast.certified_label(&[1.0; 3], &mut x32, &mut s32), None);
    }
}
