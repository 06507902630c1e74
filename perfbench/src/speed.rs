//! Host-speed correction of CPU-bound durations.
//!
//! The benchmark's host shares its cores with other machines, and their
//! load changes how fast the same instructions run, by a third and for
//! minutes at a time: a fixed loop took 20 ms in one spell and 28 ms in
//! the next, and a 784-row compile 2.2 s and 2.9 s. A wall time of
//! CPU-bound work therefore moves between runs of the same code by more
//! than any bound could allow. [`HostSpeed`] times a fixed kernel right
//! before and right after such work; the work's wall time multiplied by
//! [`HostSpeed::around`]'s factor, `REFERENCE_S / probe time`, is its
//! time on a host where the kernel takes [`REFERENCE_S`].
//!
//! The kernel has the shape of the compile path's heaviest stage, VAT
//! training: per class, epochs of hinge subgradient steps with a
//! variation penalty over a fixed 256 × 784 input set (a dot product, an
//! element-wise product and its norm, and two weight updates per sample).
//! Code of the same shape slows down with the host's load in step with
//! the compile: over three 40 s runs this kernel's times varied about as
//! much as the compiles next to them (coefficient of variation 0.05–0.12
//! against 0.04–0.07, correlation 0.6–0.8), and the corrected median
//! compile stayed within 1.3% while the wall-time median moved 9%. A
//! softmax-regression kernel tried first swung twice as much as the
//! compiles and over-corrected them. The kernel uses nothing from the
//! repository, so a change to the code under test never moves it.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host, seconds: the median probe on
/// the 2-vCPU Xeon VM the first baseline was recorded on.
pub const REFERENCE_S: f64 = 0.090;

/// Samples of the kernel's input set.
const SAMPLES: usize = 256;
/// Features per sample (28 × 28).
const FEATURES: usize = 784;
/// Classes, each trained one against all.
const CLASSES: usize = 10;
/// Passes over the input set per class.
const EPOCHS: usize = 18;
/// Step size of the kernel's updates.
const STEP: f64 = 1e-3;
/// Weight of the variation penalty.
const PENALTY: f64 = 0.1;

/// The fixed kernel and its input set.
#[derive(Debug, Clone)]
pub struct HostSpeed {
    inputs: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    /// Generates the kernel's inputs (xorshift, fixed seed).
    pub fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let inputs = (0..SAMPLES * FEATURES)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1_u64 << 53) as f64
            })
            .collect();
        Self { inputs }
    }

    /// Runs the kernel once; returns its wall time, seconds.
    fn probe(&self) -> f64 {
        let start = Instant::now();
        let mut checksum = 0.0;
        for class in 0..CLASSES {
            let mut w = vec![0.0_f64; FEATURES];
            for _ in 0..EPOCHS {
                for (n, x) in black_box(&self.inputs).chunks(FEATURES).enumerate() {
                    let target = if n % CLASSES == class { 1.0 } else { -1.0 };
                    let score: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
                    let xw: Vec<f64> = x.iter().zip(&w).map(|(a, b)| a * b).collect();
                    let norm = xw.iter().map(|v| v * v).sum::<f64>().sqrt();
                    if target * score - PENALTY * norm < 1.0 {
                        for (wq, &xq) in w.iter_mut().zip(x) {
                            *wq += STEP * target * xq;
                        }
                        if norm > 1e-12 {
                            let shrink = STEP * PENALTY / norm;
                            for ((wq, &xq), &xwq) in w.iter_mut().zip(x).zip(&xw) {
                                *wq -= shrink * xq * xwq;
                            }
                        }
                    }
                }
            }
            checksum += w.iter().sum::<f64>();
        }
        black_box(checksum);
        start.elapsed().as_secs_f64()
    }

    /// Runs `work` between two probes. Returns its result and the factor
    /// that turns a wall time measured inside it into the time at the
    /// reference speed: `REFERENCE_S` over the mean of the two probes.
    pub fn around<T>(&self, work: impl FnOnce() -> T) -> (T, f64) {
        let before = self.probe();
        let result = work();
        let after = self.probe();
        (result, 2.0 * REFERENCE_S / (before + after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_finite() {
        let speed = HostSpeed::new();
        let (value, factor) = speed.around(|| 7);
        assert_eq!(value, 7);
        assert!(factor.is_finite() && factor > 0.0, "factor {factor}");
    }
}
