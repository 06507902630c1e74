//! Sizes, seeds and the shared set-up: data generation, training and
//! compilation of the models the serving workloads serve.

use std::sync::Arc;
use std::time::Instant;

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::HardwareEnv;
use vortex_linalg::rng::{SplitMix64, Xoshiro256PlusPlus};
use vortex_nn::dataset::{Dataset, DatasetConfig, SynthDigits};
use vortex_nn::executor::Parallelism;
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::split::stratified_split;
use vortex_runtime::CompiledModel;

use crate::host;

/// Image side of the served models: 14 × 14 = 196 rows.
pub const SERVE_SIDE: usize = 14;

/// Every size a run depends on. [`Scale::full`] is what the benchmark
/// command runs; [`Scale::tiny`] keeps the test suite fast.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Generated samples per class for the serving data.
    pub serve_per_class: usize,
    /// Training samples of the served models.
    pub serve_train: usize,
    /// Held-out samples: request inputs and the accuracy set.
    pub serve_test: usize,
    /// Training epochs of the served models.
    pub serve_epochs: usize,
    /// Set-up slots of an untraced serving run, spread over the measured
    /// time (each slot but the first runs two set-ups); `setup_s`,
    /// `train_s` and `compile_s` are the interquartile means of the
    /// set-ups' host-speed corrected totals, training and compile parts.
    pub setups: usize,
    /// Generated samples per class for `compile_784`.
    pub compile_per_class: usize,
    /// Training samples of `compile_784`.
    pub compile_train: usize,
    /// Held-out samples of `compile_784`.
    pub compile_test: usize,
    /// Direct reads of the compiled 784-row model, each checked against
    /// the reference kernel.
    pub compile_reads: usize,
    /// The open-loop rate ladder of `poisson_fleet`, requests per
    /// second, ascending.
    pub ladder: Vec<f64>,
    /// The ladder rung latency is reported at.
    pub nominal_rate: f64,
    /// Share of a `poisson_fleet` run spent on the nominal rung.
    pub nominal_share: f64,
    /// Share of a `poisson_fleet` run spent on each other rung.
    pub rung_share: f64,
    /// Offered rate of `serve_with_training`, requests per second.
    pub training_rate: f64,
    /// Epochs of one training job.
    pub job_epochs: u64,
    /// Training samples of one training job.
    pub job_train: usize,
    /// Checkpoint cadence of a training job, epochs.
    pub checkpoint_every: u64,
    /// Samples the runtime probe times at batch 1 and batch 64.
    pub probe_samples: usize,
    /// Span buffer of the traced run.
    pub trace_capacity: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Self {
            serve_per_class: 100,
            serve_train: 500,
            serve_test: 500,
            serve_epochs: 20,
            setups: 24,
            compile_per_class: 90,
            compile_train: 300,
            compile_test: 600,
            compile_reads: 20_000,
            ladder: vec![5_000.0, 10_000.0, 20_000.0, 40_000.0, 80_000.0],
            nominal_rate: 10_000.0,
            nominal_share: 0.5,
            rung_share: 0.15,
            training_rate: 25_000.0,
            job_epochs: 40,
            job_train: 200,
            checkpoint_every: 4,
            probe_samples: 4096,
            trace_capacity: 1 << 20,
        }
    }

    /// Test-suite sizes: every code path, a fraction of the work.
    pub fn tiny() -> Self {
        Self {
            serve_per_class: 12,
            serve_train: 60,
            serve_test: 60,
            serve_epochs: 3,
            setups: 2,
            compile_per_class: 6,
            compile_train: 30,
            compile_test: 30,
            compile_reads: 200,
            ladder: vec![1_000.0, 2_000.0],
            nominal_rate: 1_000.0,
            nominal_share: 0.5,
            rung_share: 0.25,
            training_rate: 2_000.0,
            job_epochs: 4,
            job_train: 40,
            checkpoint_every: 2,
            probe_samples: 128,
            trace_capacity: 1 << 16,
        }
    }
}

/// Seed of what stays fixed from run to run: the served models (their
/// data, training and chips), the `compile_784` problem and every
/// fabricated chip. The run seed generates the workload's inputs: request
/// arrivals, tenants and samples. Chips drawn per run would make accuracy
/// and the fast-path share vary with the seed far more than any change to
/// the code does.
pub const SYSTEM_SEED: u64 = 0x5EED_2015;

/// A sub-seed of the run seed for one purpose, so the data, the traffic
/// and the fabricated chips draw from independent streams.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    SplitMix64::new(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Seed purposes.
pub mod purpose {
    /// Dataset generation and split.
    pub const DATA: u64 = 1;
    /// Arrival times and tenant mix.
    pub const TRAFFIC: u64 = 2;
    /// Chip fabrication and programming.
    pub const CHIP: u64 = 3;
    /// Which held-out sample each request carries.
    pub const INPUTS: u64 = 4;
    /// The on-device training job.
    pub const JOB: u64 = 5;
}

/// Synthetic digits at `side`, split into train and held-out sets.
///
/// # Panics
///
/// Panics when the counts exceed `10 · per_class` or `side` does not
/// divide 28 (benchmark configuration bugs).
pub fn digits(
    side: usize,
    per_class: usize,
    n_train: usize,
    n_test: usize,
    seed: u64,
) -> (Dataset, Dataset) {
    let config = DatasetConfig {
        samples_per_class: per_class,
        ..DatasetConfig::paper()
    };
    let full = SynthDigits::generate(&config, seed).expect("valid dataset configuration");
    let full = if side == 28 {
        full
    } else {
        full.downsample(28 / side).expect("side divides 28")
    };
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x5EED_5711);
    let split = stratified_split(&full, n_train, n_test, &mut rng).expect("counts fit the data");
    (split.train, split.test)
}

/// The substrate every benchmark model is compiled for: σ 0.5 lognormal
/// variation and 2.5 Ω wires, read through the calibrated IR-drop model
/// with ideal converters, so the certified fast path applies.
pub fn environment() -> HardwareEnv {
    HardwareEnv::with_sigma(0.5)
        .expect("valid sigma")
        .with_ir_drop(2.5)
}

/// The served models and the data around them.
#[derive(Debug)]
pub struct Served {
    /// Training set the models were trained on.
    pub train: Dataset,
    /// Held-out set: request inputs and the accuracy set.
    pub test: Dataset,
    /// `(variation seed, model)` per replica.
    pub models: Vec<(u64, Arc<CompiledModel>)>,
}

/// Wall time of one set-up, split by stage, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupCost {
    /// Data generation, training and compilation.
    pub total_s: f64,
    /// Training.
    pub train_s: f64,
    /// Compilation.
    pub compile_s: f64,
}

impl SetupCost {
    /// Every part multiplied by `factor` (a host-speed correction, see
    /// [`crate::speed`]).
    pub fn scaled(self, factor: f64) -> Self {
        Self {
            total_s: self.total_s * factor,
            train_s: self.train_s * factor,
            compile_s: self.compile_s * factor,
        }
    }
}

/// Generates data, trains a linear classifier and compiles `replicas`
/// chips of it through `CompileRequest::compile_replicas`, all from
/// [`SYSTEM_SEED`].
pub fn serving(scale: &Scale, replicas: usize) -> (Served, SetupCost) {
    let start = Instant::now();
    let (train, test) = digits(
        SERVE_SIDE,
        scale.serve_per_class,
        scale.serve_train,
        scale.serve_test,
        derive_seed(SYSTEM_SEED, purpose::DATA),
    );
    let trained = Instant::now();
    let weights = GdtTrainer {
        epochs: scale.serve_epochs,
        ..GdtTrainer::default()
    }
    .train(&train)
    .expect("valid trainer configuration");
    let compiled = Instant::now();
    let mapping = RowMapping::identity(weights.rows());
    let models = environment()
        .compiler()
        .with_calibration(&train.mean_input())
        .request(&weights, &mapping)
        .seed(derive_seed(SYSTEM_SEED, purpose::CHIP))
        .parallelism(Parallelism::Fixed(host::nproc()))
        .compile_replicas(replicas)
        .expect("compilation succeeds on the benchmark substrate")
        .into_iter()
        .map(|(s, m)| (s, Arc::new(m)))
        .collect();
    let end = Instant::now();
    let cost = SetupCost {
        total_s: (end - start).as_secs_f64(),
        train_s: (compiled - trained).as_secs_f64(),
        compile_s: (end - compiled).as_secs_f64(),
    };
    (
        Served {
            train,
            test,
            models,
        },
        cost,
    )
}
