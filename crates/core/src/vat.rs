//! Variation-Aware Training (VAT) — §4.1 of the paper.
//!
//! Starting from the conventional per-column hinge constraints (Eq. (3)),
//! VAT linearizes the lognormal device variation `e^θ ≈ α₀ + α₁·θ`
//! (Eq. (5)), splits the constraint into the conventional term plus a
//! "penalty of variations" (Eq. (6)), and replaces the random penalty by
//! its Chi-square-confidence upper bound `ρ·‖x⁽ⁱ⁾ ∘ W_r‖₂` (Eq. (7)).
//! A scale knob `γ ∈ [0, 1]` interpolates between conventional GDT
//! (`γ = 0`) and the full estimated penalty (`γ = 1`) (Eq. (10)).
//!
//! The optimization is solved with the same epoch-shuffled subgradient
//! descent as [`vortex_nn::gdt`]; the extra penalty contributes the
//! subgradient `γ·ρ·(x ∘ x ∘ w)/‖x ∘ w‖₂` whenever the padded margin is
//! violated.
//!
//! # The step kernel
//!
//! One step makes two passes over `w` and allocates nothing:
//!
//! 1. the score `x·w` and `‖x ∘ w‖²`, accumulated together, each left to
//!    right from zero exactly as [`vortex_linalg::vector::dot`] sums them;
//! 2. per element, in the order the separate kernels applied them: the L2
//!    shrink `w·(1 − α·l2)`, the hinge `+α·α₀·ŷ·x` and the penalty
//!    `−(α·coeff/‖x ∘ w‖₂)·x·(x·w_old)`, recomputing `x·w_old` from the
//!    element it is about to overwrite instead of storing `x ∘ w`.
//!
//! Every rounding happens on the same operands in the same order as the
//! one-kernel-per-sweep loop (`dot`, `hadamard`, `norm2`, `scale`, `axpy`,
//! penalty), so the weights are bit-identical to it; only the sign of a
//! zero sum can differ with the toolchain's `f64::sum` start value, and
//! that sign reaches no weight. The per-element expression lives in one
//! helper, `step_candidates`, that both bodies below share.
//! [`VatTrainer::train`] runs the columns in lockstep pairs: each column
//! keeps its own RNG, shuffle order and `w`, so pairing changes no
//! result, while pass 1 carries four independent add chains instead of
//! two, which hides floating-point add latency.
//!
//! # The γ lanes
//!
//! The self-tuning scan ([`crate::tuning`]) trains one model per candidate
//! γ. The shuffle RNG of a column is seeded by its class alone, so every
//! candidate of one class visits the same samples in the same order; only
//! the penalty coefficient and the weights differ.
//! [`VatTrainer::train_gamma_grid`] therefore trains the candidates of a
//! class in lockstep lanes, four per chunk:
//!
//! - `w` is interleaved, lane `l` of weight `q` at `w[q·L + l]`, so `x[q]`
//!   is loaded once and broadcast to every lane;
//! - pass 1 sums each lane's score and `‖x ∘ w‖²` left to right from zero
//!   as the column kernel does; each lane is its own chain, so no sum is
//!   reordered;
//! - each lane then takes the column kernel's decisions (`violated`, and
//!   `coeff > 0 && ‖x ∘ w‖₂ > 1e-12`), which pick one of three updates:
//!   shrink, shrink + hinge, or shrink + hinge + penalty. Pass 2 computes
//!   all three with `step_candidates` and keeps one per lane through a
//!   bit mask. An arithmetic blend would be wrong: adding a `0·x` term
//!   turns a `−0.0` weight into `+0.0`;
//! - in most steps once training settles, every lane meets its margin
//!   and the update is the shrink alone. That shrink is owed to the next
//!   step and applied as its pass 1 reads each weight, so such a step
//!   sweeps `w` once instead of twice;
//! - the last chunk is padded by repeating its last live γ, and the
//!   padded lanes are dropped.
//!
//! A lane therefore rounds the same operands in the same order as the
//! column kernel, and every candidate's weights equal
//! `self.with_gamma(γ).train(data)` bit for bit.
//!
//! The lanes turn the scan's per-element work into independent vector
//! operations across candidates. On `x86_64` the chunk body is compiled a
//! second time under `#[target_feature(enable = "avx2")]` and called when
//! the running CPU reports AVX2, so the four lanes fill one 256-bit
//! register; other CPUs and targets run the same body at the baseline
//! ISA. Only AVX2 is enabled, not FMA: Rust never contracts `a·b + c`
//! into a fused multiply-add, so both builds round identically. The call
//! into the AVX2 build is this crate's one `unsafe` site; its `SAFETY:`
//! note is that the runtime feature check precedes it.
//! `crates/core/tests/vat_equivalence.rs` pins both kernels against the
//! one-kernel-per-sweep loop with `f64::to_bits`.

use serde::{Deserialize, Serialize};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;
use vortex_nn::dataset::Dataset;
use vortex_nn::executor::Parallelism;
use vortex_nn::pool::WorkerPool;

use crate::rho::RhoConfig;
use crate::{CoreError, Result};

/// Columns [`VatTrainer::train`] steps in lockstep: a pair gives pass 1
/// four independent add chains.
const COLUMN_GROUP: usize = 2;

/// γ candidates [`VatTrainer::train_gamma_grid`] trains in lockstep per
/// chunk. Of 4, 8 and 12 lanes, 4 measured fastest per lane: they fill
/// one 256-bit register under AVX2, and their interleaved weights (25 KiB
/// at 784 rows) stay in L1.
const LANES: usize = 4;

/// One chunk of γ lanes: weight `q` of lane `l` at `[q][l]`.
type LaneWeights = Vec<[f64; LANES]>;

/// VAT trainer: hinge subgradient descent with the variation penalty.
///
/// # Example
///
/// ```
/// use vortex_core::vat::VatTrainer;
/// use vortex_nn::dataset::{DatasetConfig, SynthDigits};
///
/// # fn main() -> Result<(), vortex_core::CoreError> {
/// let data = SynthDigits::generate(&DatasetConfig::tiny(), 1)?;
/// let trainer = VatTrainer {
///     epochs: 5,
///     gamma: 0.3,   // penalty scale of Eq. (10)
///     sigma: 0.6,   // the device variation to guard against
///     ..Default::default()
/// };
/// let weights = trainer.train(&data)?;
/// assert_eq!(weights.shape(), (data.num_features(), 10));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VatTrainer {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// L2 regularization coefficient.
    pub l2: f64,
    /// Target margin (1 in the paper's constraints).
    pub margin: f64,
    /// Penalty scale γ ∈ [0, 1] (Eq. (10)); 0 recovers conventional GDT.
    pub gamma: f64,
    /// Device-variation log-std σ the penalty is computed against.
    pub sigma: f64,
    /// Linearization coefficient α₀ of `e^θ ≈ α₀ + α₁θ` (1 in the paper).
    pub alpha0: f64,
    /// Linearization coefficient α₁ (1 in the paper).
    pub alpha1: f64,
    /// Chi-square confidence for ρ.
    pub rho_config: RhoConfig,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for VatTrainer {
    fn default() -> Self {
        Self {
            epochs: 30,
            learning_rate: 0.05,
            l2: 1e-4,
            margin: 1.0,
            gamma: 0.2,
            sigma: 0.6,
            alpha0: 1.0,
            alpha1: 1.0,
            rho_config: RhoConfig::default(),
            seed: 0xB01D,
        }
    }
}

impl VatTrainer {
    /// A copy with a different γ (used by the self-tuning scan).
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// A copy with a different σ (used by the AMP integration, §4.3).
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        self.sigma = sigma;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on out-of-domain fields.
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 {
            return Err(CoreError::InvalidParameter {
                name: "epochs",
                requirement: "must be positive",
            });
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "learning_rate",
                requirement: "must be finite and positive",
            });
        }
        if !(self.l2.is_finite() && self.l2 >= 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "l2",
                requirement: "must be finite and non-negative",
            });
        }
        if !((0.0..=1.0).contains(&self.gamma)) {
            return Err(CoreError::InvalidParameter {
                name: "gamma",
                requirement: "must lie in [0, 1]",
            });
        }
        if !(self.sigma.is_finite() && self.sigma >= 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "sigma",
                requirement: "must be finite and non-negative",
            });
        }
        if !(self.margin.is_finite() && self.margin > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "margin",
                requirement: "must be finite and positive",
            });
        }
        Ok(())
    }

    /// The effective penalty coefficient `κ·γ·ρ_rms·|α₁|` for `n` input
    /// rows, using the RMS-normalized confidence radius
    /// ([`RhoConfig::rho_rms`] — see there for the calibration
    /// rationale). The fixed factor `κ = 2` aligns the γ axis with the
    /// paper's: under it the with-variation test-rate peak lands in the
    /// paper's 0.2–0.5 band rather than at the top of the sweep.
    ///
    /// # Errors
    ///
    /// Propagates ρ computation errors.
    pub fn penalty_coefficient(&self, n: usize) -> Result<f64> {
        const KAPPA: f64 = 2.0;
        let rho = self.rho_config.rho_rms(self.sigma, n)?;
        Ok(KAPPA * self.gamma * rho * self.alpha1.abs())
    }

    /// Trains all columns, returning the `features × classes` weight
    /// matrix. Columns train in lockstep pairs (see the module docs); the
    /// result equals training every column alone with
    /// [`Self::train_column`], bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid configuration
    /// or an empty dataset.
    pub fn train(&self, data: &Dataset) -> Result<Matrix> {
        let _span = vortex_obs::span!("pipeline.vat_train_seconds");
        let coeff = self.prepare(data)?;
        let m = data.num_classes();
        let mut w = Matrix::zeros(data.num_features(), m);
        let mut class = 0;
        while class + COLUMN_GROUP <= m {
            let classes = std::array::from_fn(|k| (class + k) as u8);
            let cols: [Vec<f64>; COLUMN_GROUP] = self.train_group(data, classes, coeff);
            for (k, col) in cols.iter().enumerate() {
                w.set_col(class + k, col);
            }
            class += COLUMN_GROUP;
        }
        for class in class..m {
            let [col] = self.train_group(data, [class as u8], coeff);
            w.set_col(class, &col);
        }
        Ok(w)
    }

    /// Trains one column with "1 vs. all" targets.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::train`].
    pub fn train_column(&self, data: &Dataset, class: u8) -> Result<Vec<f64>> {
        let coeff = self.prepare(data)?;
        let [w] = self.train_group(data, [class], coeff);
        Ok(w)
    }

    /// Validates the configuration and the data; returns the penalty
    /// coefficient for the data's feature count.
    fn prepare(&self, data: &Dataset) -> Result<f64> {
        self.validate()?;
        if data.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "data",
                requirement: "must be non-empty",
            });
        }
        self.penalty_coefficient(data.num_features())
    }

    /// Trains the columns of `classes` in lockstep. Each column keeps its
    /// own RNG, shuffle order and weights, so the group only interleaves
    /// work that is independent: column `k` comes out exactly as if it
    /// had trained alone.
    fn train_group<const G: usize>(
        &self,
        data: &Dataset,
        classes: [u8; G],
        coeff: f64,
    ) -> [Vec<f64>; G] {
        let n = data.num_features();
        let mut w: [Vec<f64>; G] = std::array::from_fn(|_| vec![0.0_f64; n]);
        let mut order: [Vec<usize>; G] = std::array::from_fn(|_| (0..data.len()).collect());
        let mut rng: [Xoshiro256PlusPlus; G] = std::array::from_fn(|k| {
            Xoshiro256PlusPlus::seed_from_u64(self.seed ^ ((classes[k] as u64) << 32))
        });
        let mut step_count = 0usize;

        for _epoch in 0..self.epochs {
            for (r, o) in rng.iter_mut().zip(&mut order) {
                r.shuffle(o);
            }
            let steps =
                (0..data.len()).map(|t| -> [usize; G] { std::array::from_fn(|k| order[k][t]) });
            for samples in steps {
                step_count += 1;
                let alpha = self.learning_rate / (1.0 + step_count as f64 * self.l2.max(1e-6));
                // `w·1.0 == w` bit for bit, so a disabled shrink can share
                // the update loops below.
                let shrink = if self.l2 > 0.0 {
                    1.0 - alpha * self.l2
                } else {
                    1.0
                };
                let x: [&[f64]; G] = std::array::from_fn(|k| &data.image(samples[k])[..n]);
                // Pass 1: the score `x·w` and `‖x ∘ w‖²` of every column,
                // G×2 independent chains, each summed left to right.
                let mut score = [0.0_f64; G];
                let mut norm_sq = [0.0_f64; G];
                let wr: [&[f64]; G] = std::array::from_fn(|k| &w[k][..n]);
                for q in 0..n {
                    for k in 0..G {
                        let xw = x[k][q] * wr[k][q];
                        score[k] += xw;
                        norm_sq[k] += xw * xw;
                    }
                }
                // Pass 2: shrink, hinge and penalty, element by element.
                for k in 0..G {
                    let target = if data.label(samples[k]) == classes[k] {
                        1.0
                    } else {
                        -1.0
                    };
                    // Penalty term: γ·ρ·‖x ∘ w‖₂ (Eq. (10) with t = |V|).
                    let penalty_norm = norm_sq[k].sqrt();
                    let update = self.decide(target, score[k], penalty_norm, coeff);
                    // Hinge part: +α·α₀·ŷ·x.
                    let hinge = alpha * self.alpha0 * target;
                    // Penalty part: −α·coeff·(x∘x∘w)/‖x∘w‖₂, with the
                    // pre-step `w`.
                    let scale = alpha * coeff / penalty_norm;
                    let (x, w) = (x[k], &mut w[k]);
                    // Each arm keeps one candidate with a constant index;
                    // the other two are dead code after inlining.
                    match update {
                        Update::Shrink if self.l2 == 0.0 => {}
                        Update::Shrink => {
                            for (wq, &xq) in w.iter_mut().zip(x) {
                                *wq = step_candidates(*wq, xq, shrink, hinge, scale)[0];
                            }
                        }
                        Update::Hinge => {
                            for (wq, &xq) in w.iter_mut().zip(x) {
                                *wq = step_candidates(*wq, xq, shrink, hinge, scale)[1];
                            }
                        }
                        Update::Penalty => {
                            for (wq, &xq) in w.iter_mut().zip(x) {
                                *wq = step_candidates(*wq, xq, shrink, hinge, scale)[2];
                            }
                        }
                    }
                }
            }
        }
        w
    }

    /// Which update a step applies to one column or lane: the hinge
    /// fires when the padded margin is violated, and the penalty with it
    /// when there is a penalty to apply.
    #[inline(always)]
    fn decide(&self, target: f64, score: f64, penalty_norm: f64, coeff: f64) -> Update {
        let violated = self.alpha0 * target * score - coeff * penalty_norm < self.margin;
        if !violated {
            Update::Shrink
        } else if coeff > 0.0 && penalty_norm > 1e-12 {
            Update::Penalty
        } else {
            Update::Hinge
        }
    }

    /// Trains one weight matrix per γ of `gammas`, in grid order: entry
    /// `k` equals `self.with_gamma(gammas[k]).train(data)` bit for bit.
    ///
    /// The candidates of each class train in lockstep lanes (see the
    /// module docs), and the (class, chunk) tasks fan out over
    /// `parallelism`; every setting gives identical weights.
    ///
    /// # Errors
    ///
    /// The errors of [`Self::train`] for the first γ that fails.
    pub fn train_gamma_grid(
        &self,
        data: &Dataset,
        gammas: &[f64],
        parallelism: Parallelism,
    ) -> Result<Vec<Matrix>> {
        let coeffs = gammas
            .iter()
            .map(|&gamma| self.with_gamma(gamma).prepare(data))
            .collect::<Result<Vec<f64>>>()?;
        let (n, m) = (data.num_features(), data.num_classes());
        let chunks = gammas.len().div_ceil(LANES);
        let tasks = m * chunks;
        let train_task = |t: usize| -> LaneWeights {
            let (class, chunk) = (t / chunks, t % chunks);
            let live = &coeffs[chunk * LANES..coeffs.len().min((chunk + 1) * LANES)];
            // Pad a short chunk with its last live γ; those lanes are
            // dropped below.
            let coeff = std::array::from_fn(|l| live[l.min(live.len() - 1)]);
            self.train_lanes(data, class as u8, &coeff, true)
        };
        let workers = parallelism.resolve().min(tasks);
        let lanes: Vec<LaneWeights> = if workers <= 1 {
            (0..tasks).map(train_task).collect()
        } else {
            WorkerPool::global().run_indexed(tasks, workers, train_task)
        };
        let mut out = vec![Matrix::zeros(n, m); gammas.len()];
        for (t, w) in lanes.iter().enumerate() {
            let (class, chunk) = (t / chunks, t % chunks);
            for (l, weights) in out[chunk * LANES..].iter_mut().take(LANES).enumerate() {
                let col: Vec<f64> = w.iter().map(|wq| wq[l]).collect();
                weights.set_col(class, &col);
            }
        }
        Ok(out)
    }

    /// Trains one chunk of γ lanes of `class`, lane `l` with penalty
    /// coefficient `coeff[l]`, on the widest build of
    /// [`Self::train_lanes_body`] the CPU runs: the AVX2 build when
    /// `allow_avx2` is set and the CPU has AVX2, else the baseline one.
    fn train_lanes(
        &self,
        data: &Dataset,
        class: u8,
        coeff: &[f64; LANES],
        allow_avx2: bool,
    ) -> LaneWeights {
        #[cfg(target_arch = "x86_64")]
        if allow_avx2 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `train_lanes_avx2` is safe code compiled with AVX2
            // enabled; its one requirement is that the running CPU
            // supports AVX2, which the feature check above established.
            return unsafe { self.train_lanes_avx2(data, class, coeff) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = allow_avx2;
        self.train_lanes_body(data, class, coeff)
    }

    /// [`Self::train_lanes_body`] compiled with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// The running CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn train_lanes_avx2(
        &self,
        data: &Dataset,
        class: u8,
        coeff: &[f64; LANES],
    ) -> LaneWeights {
        self.train_lanes_body(data, class, coeff)
    }

    /// The lane kernel: [`Self::train_group`]'s step for [`LANES`]
    /// candidates of one class that share its RNG, shuffle order and
    /// samples, each with its own coefficient and weights.
    #[inline(always)]
    fn train_lanes_body(&self, data: &Dataset, class: u8, coeff: &[f64; LANES]) -> LaneWeights {
        let n = data.num_features();
        let mut w: LaneWeights = vec![[0.0_f64; LANES]; n];
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(self.seed ^ ((class as u64) << 32));
        let mut step_count = 0usize;
        // The shrink of a step every lane met its margin in (most steps
        // once training settles), applied as the next step's pass 1 reads
        // each weight instead of in a sweep of its own.
        let mut owed_shrink: Option<f64> = None;

        for _epoch in 0..self.epochs {
            rng.shuffle(&mut order);
            for &sample in &order {
                step_count += 1;
                let alpha = self.learning_rate / (1.0 + step_count as f64 * self.l2.max(1e-6));
                let shrink = if self.l2 > 0.0 {
                    1.0 - alpha * self.l2
                } else {
                    1.0
                };
                let x = &data.image(sample)[..n];
                // Pass 1: one score and one `‖x ∘ w‖²` chain per lane.
                let mut score = [0.0_f64; LANES];
                let mut norm_sq = [0.0_f64; LANES];
                if let Some(owed) = owed_shrink.take() {
                    for (&xq, wq) in x.iter().zip(&mut w) {
                        for l in 0..LANES {
                            wq[l] = step_candidates(wq[l], xq, owed, 0.0, 0.0)[0];
                            let xw = xq * wq[l];
                            score[l] += xw;
                            norm_sq[l] += xw * xw;
                        }
                    }
                } else {
                    for (&xq, wq) in x.iter().zip(&w) {
                        for l in 0..LANES {
                            let xw = xq * wq[l];
                            score[l] += xw;
                            norm_sq[l] += xw * xw;
                        }
                    }
                }
                let target = if data.label(sample) == class {
                    1.0
                } else {
                    -1.0
                };
                let hinge = alpha * self.alpha0 * target;
                // `keep[u][l]` is all ones where lane `l` takes update `u`.
                let mut keep = [[0_u64; LANES]; 3];
                let mut scale = [0.0_f64; LANES];
                for l in 0..LANES {
                    let penalty_norm = norm_sq[l].sqrt();
                    let update = self.decide(target, score[l], penalty_norm, coeff[l]);
                    keep[update as usize][l] = u64::MAX;
                    scale[l] = alpha * coeff[l] / penalty_norm;
                }
                if keep[Update::Shrink as usize] == [u64::MAX; LANES] {
                    // The shrink alone, owed to the next pass 1 (a no-op
                    // when l2 is 0).
                    if self.l2 > 0.0 {
                        owed_shrink = Some(shrink);
                    }
                    continue;
                }
                // Pass 2: all three candidates per lane, one kept.
                for (&xq, wq) in x.iter().zip(&mut w) {
                    for l in 0..LANES {
                        let [shrunk, hinged, penalised] =
                            step_candidates(wq[l], xq, shrink, hinge, scale[l]);
                        wq[l] = f64::from_bits(
                            (shrunk.to_bits() & keep[Update::Shrink as usize][l])
                                | (hinged.to_bits() & keep[Update::Hinge as usize][l])
                                | (penalised.to_bits() & keep[Update::Penalty as usize][l]),
                        );
                    }
                }
            }
        }
        if let Some(owed) = owed_shrink {
            for wq in &mut w {
                for v in wq {
                    *v = step_candidates(*v, 0.0, owed, 0.0, 0.0)[0];
                }
            }
        }
        w
    }
}

/// The update one step applies to a column or lane; the discriminant
/// indexes `step_candidates`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Update {
    /// Margin met: the L2 shrink alone.
    Shrink = 0,
    /// Margin violated, no penalty: shrink + hinge.
    Hinge = 1,
    /// Margin violated: shrink + hinge + penalty.
    Penalty = 2,
}

/// The three candidate values of one weight `w` after a step on input
/// `x`: shrunk, shrunk + hinge, and shrunk + hinge − penalty, with the
/// penalty recomputing `x·w` from the pre-step `w`. Written once for the
/// column and the lane kernel, in the operand order of the
/// one-kernel-per-sweep loop.
#[inline(always)]
fn step_candidates(w: f64, x: f64, shrink: f64, hinge: f64, scale: f64) -> [f64; 3] {
    let shrunk = w * shrink;
    let hinged = shrunk + hinge * x;
    let penalised = hinged - scale * x * (x * w);
    [shrunk, hinged, penalised]
}

/// Injects one draw of lognormal variation into a weight matrix:
/// `w'_ij = w_ij · e^{θ_ij}`, `θ ~ N(0, σ²)` — the validation step of the
/// self-tuning loop (Fig. 5) and the weight-domain abstraction of an
/// open-loop programmed crossbar.
pub fn inject_variation(w: &Matrix, sigma: f64, rng: &mut Xoshiro256PlusPlus) -> Matrix {
    if sigma == 0.0 {
        return w.clone();
    }
    w.map(|v| {
        let theta = vortex_linalg::distributions::standard_normal(rng) * sigma;
        v * theta.exp()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_nn::dataset::{DatasetConfig, SynthDigits};
    use vortex_nn::metrics::accuracy_of_weights;

    fn data() -> Dataset {
        SynthDigits::generate(&DatasetConfig::tiny(), 71).unwrap()
    }

    fn fast(gamma: f64, sigma: f64) -> VatTrainer {
        VatTrainer {
            epochs: 12,
            gamma,
            sigma,
            ..Default::default()
        }
    }

    #[test]
    fn gamma_zero_matches_plain_hinge_closely() {
        // With γ = 0 the penalty vanishes; VAT reduces to conventional GDT
        // (same loss, same kind of optimizer).
        let d = data();
        let w = fast(0.0, 0.6).train(&d).unwrap();
        let acc = accuracy_of_weights(&w, &d);
        assert!(acc > 0.6, "γ=0 training accuracy {acc}");
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let d = data();
        let mut t = fast(0.2, 0.6);
        t.gamma = 1.5;
        assert!(t.train(&d).is_err());
        t = fast(0.2, 0.6);
        t.sigma = -0.1;
        assert!(t.train(&d).is_err());
        t = fast(0.2, 0.6);
        t.epochs = 0;
        assert!(t.train(&d).is_err());
    }

    #[test]
    fn training_is_deterministic() {
        let d = data();
        let t = fast(0.3, 0.6);
        assert_eq!(t.train(&d).unwrap(), t.train(&d).unwrap());
    }

    #[test]
    fn penalty_lowers_training_rate() {
        // §4.1.2: "such a method applies a tighter constraint … potentially
        // lower training rate".
        let d = data();
        let w0 = fast(0.0, 0.8).train(&d).unwrap();
        let w1 = fast(1.0, 0.8).train(&d).unwrap();
        let a0 = accuracy_of_weights(&w0, &d);
        let a1 = accuracy_of_weights(&w1, &d);
        assert!(
            a1 <= a0 + 0.02,
            "full penalty should not fit better: γ=0 → {a0}, γ=1 → {a1}"
        );
    }

    #[test]
    fn vat_improves_robustness_under_variation() {
        // The core claim: at moderate γ the *with-variation* accuracy beats
        // conventional training's, even if the clean fit is slightly worse.
        let d = data();
        let sigma = 0.8;
        let w_plain = fast(0.0, sigma).train(&d).unwrap();
        let w_vat = fast(0.35, sigma).train(&d).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let eval = |w: &Matrix, rng: &mut Xoshiro256PlusPlus| {
            let draws = 12;
            (0..draws)
                .map(|_| accuracy_of_weights(&inject_variation(w, sigma, rng), &d))
                .sum::<f64>()
                / draws as f64
        };
        let robust_plain = eval(&w_plain, &mut rng);
        let robust_vat = eval(&w_vat, &mut rng);
        assert!(
            robust_vat > robust_plain - 0.01,
            "VAT should not be less robust: plain {robust_plain} vat {robust_vat}"
        );
    }

    fn avx2_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    #[test]
    fn avx2_lanes_equal_the_portable_lanes_bit_for_bit() {
        if !avx2_available() {
            eprintln!("skipped: this CPU has no AVX2, so only the portable lane body runs");
            return;
        }
        let d = data();
        for l2 in [0.0, 1e-4] {
            let t = VatTrainer {
                epochs: 4,
                l2,
                ..fast(0.0, 0.6)
            };
            let coeff: [f64; LANES] = std::array::from_fn(|l| {
                t.with_gamma([0.0, 0.3, 0.6, 1.0][l])
                    .penalty_coefficient(d.num_features())
                    .unwrap()
            });
            for class in [0_u8, 4, 9] {
                let bits = |w: LaneWeights| -> Vec<u64> {
                    w.iter().flatten().map(|v| v.to_bits()).collect()
                };
                assert_eq!(
                    bits(t.train_lanes(&d, class, &coeff, true)),
                    bits(t.train_lanes(&d, class, &coeff, false)),
                    "l2 {l2}, class {class}"
                );
            }
        }
    }

    #[test]
    fn penalty_coefficient_scales() {
        // RMS normalization: the coefficient approaches γ·σ from above as
        // n grows (the finite-n Chi-square tail shrinks relatively).
        let t = fast(0.5, 0.6);
        let c100 = t.penalty_coefficient(100).unwrap();
        let c784 = t.penalty_coefficient(784).unwrap();
        let limit = 2.0 * 0.5 * 0.6; // κ·γ·σ
        assert!(c100 > c784, "finite-n tail: {c100} vs {c784}");
        assert!(
            c784 > limit && c784 < limit * 1.2,
            "c784 {c784} vs κγσ {limit}"
        );
        let t0 = fast(0.0, 0.6);
        assert_eq!(t0.penalty_coefficient(100).unwrap(), 0.0);
    }

    #[test]
    fn inject_variation_statistics() {
        let w = Matrix::filled(50, 20, 1.0);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(8);
        let wv = inject_variation(&w, 0.4, &mut rng);
        let logs: Vec<f64> = wv.as_slice().iter().map(|v| v.ln()).collect();
        let s = vortex_linalg::stats::std_dev(&logs);
        assert!((s - 0.4).abs() < 0.03, "log-std {s}");
        // σ = 0 is the identity.
        assert_eq!(inject_variation(&w, 0.0, &mut rng), w);
    }

    #[test]
    fn inject_variation_preserves_sign() {
        let w = Matrix::from_fn(10, 4, |i, j| if (i + j) % 2 == 0 { 1.0 } else { -1.0 });
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        let wv = inject_variation(&w, 0.8, &mut rng);
        for (a, b) in w.as_slice().iter().zip(wv.as_slice()) {
            assert_eq!(a.signum(), b.signum());
        }
    }
}
