//! Runtime throughput — samples/sec through a [`CompiledModel`], serial
//! vs parallel (extension beyond the paper).
//!
//! The serving path compiles the digit classifier onto fabricated
//! hardware exactly once (fabricate → map → program → calibrate), then
//! meters `infer_batch` four ways:
//!
//! * **reference** — `Parallelism::Serial` with the f32 fast path
//!   disabled ([`CompiledModel::with_reference_kernel`]): the pure f64
//!   kernel, the semantics everything else must match.
//! * **serial** — `Parallelism::Serial` on the production model (fast
//!   path on): isolates the certified-f32 kernel gain.
//! * **spawn** — the pre-pool fan-out (`run_trials_unpooled`): threads
//!   spawned per batch, the overhead the persistent pool removes.
//! * **parallel** — `Parallelism::Fixed(threads)` on the shared
//!   [`WorkerPool`](vortex_nn::pool::WorkerPool): the production path.
//!
//! Predictions are bit-identical on every row (see
//! `vortex_nn::executor` and `vortex_runtime::kernels`); only wall-clock
//! changes.

use std::time::Instant;

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::HardwareEnv;
use vortex_core::report::{fixed, json_string, Table};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_nn::executor::{run_trials_unpooled, Parallelism};
use vortex_runtime::CompiledModel;

use super::common::Scale;

/// Result of the runtime throughput experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeResult {
    /// Physical crossbar rows of the compiled model.
    pub rows: usize,
    /// Crossbar columns (= classes).
    pub cols: usize,
    /// Test samples scored per metered pass.
    pub samples: usize,
    /// Worker count of the parallel pass.
    pub threads: usize,
    /// Serial throughput of the forced-f64 reference kernel, samples/sec.
    pub reference_sps: f64,
    /// Serial throughput (fast path on), samples/sec.
    pub serial_sps: f64,
    /// Spawn-per-batch (unpooled) parallel throughput, samples/sec.
    pub spawn_sps: f64,
    /// Pooled parallel throughput, samples/sec.
    pub parallel_sps: f64,
    /// Size of the serialized model artifact, bytes.
    pub artifact_bytes: usize,
    /// Test-set accuracy of the compiled model (identical on all paths).
    pub accuracy: f64,
}

impl RuntimeResult {
    /// Parallel speedup over serial.
    pub fn speedup(&self) -> f64 {
        if self.serial_sps > 0.0 {
            self.parallel_sps / self.serial_sps
        } else {
            0.0
        }
    }

    /// Certified-f32 kernel gain: serial fast-path over the reference.
    pub fn kernel_gain(&self) -> f64 {
        if self.reference_sps > 0.0 {
            self.serial_sps / self.reference_sps
        } else {
            0.0
        }
    }

    /// The experiment as a structured table.
    pub fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            format!(
                "Runtime throughput — {}x{} compiled model, {} samples/pass",
                self.rows, self.cols, self.samples
            ),
            &["path", "workers", "samples/sec"],
        );
        t.add_row([
            "reference (f64)".to_string(),
            "1".to_string(),
            fixed(self.reference_sps, 0),
        ]);
        t.add_row([
            "serial".to_string(),
            "1".to_string(),
            fixed(self.serial_sps, 0),
        ]);
        t.add_row([
            "spawn-per-batch".to_string(),
            self.threads.to_string(),
            fixed(self.spawn_sps, 0),
        ]);
        t.add_row([
            "parallel (pool)".to_string(),
            self.threads.to_string(),
            fixed(self.parallel_sps, 0),
        ]);
        vec![t]
    }

    /// Renders the experiment as a text table plus a summary line.
    pub fn render(&self) -> String {
        let mut out = super::common::render_tables(&self.tables());
        out.push_str(&format!(
            "speedup {:.2}x, kernel gain {:.2}x, artifact {} bytes, accuracy {:.1}%\n",
            self.speedup(),
            self.kernel_gain(),
            self.artifact_bytes,
            100.0 * self.accuracy
        ));
        out
    }

    /// Machine-readable summary (the `BENCH_runtime.json` payload): flat
    /// throughput fields plus the structured table.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"rows\":{},\"cols\":{},\"samples\":{},\"threads\":{},",
                "\"reference_samples_per_sec\":{:.3},",
                "\"serial_samples_per_sec\":{:.3},",
                "\"spawn_samples_per_sec\":{:.3},",
                "\"parallel_samples_per_sec\":{:.3},",
                "\"speedup\":{:.4},\"kernel_gain\":{:.4},",
                "\"artifact_bytes\":{},\"accuracy\":{:.6},",
                "\"tables\":{}}}"
            ),
            self.rows,
            self.cols,
            self.samples,
            self.threads,
            self.reference_sps,
            self.serial_sps,
            self.spawn_sps,
            self.parallel_sps,
            self.speedup(),
            self.kernel_gain(),
            self.artifact_bytes,
            self.accuracy,
            super::common::tables_to_json(&self.tables()),
        )
    }
}

/// Validates a JSON fragment claim used by the binary's writer tests.
pub fn json_field(json: &str, key: &str) -> bool {
    json.contains(&format!("{}:", json_string(key)))
}

fn meter(model: &CompiledModel, samples: &[&[f64]], parallelism: Parallelism) -> f64 {
    // Repeat whole passes until a wall-clock floor so short test sets
    // still give a stable rate.
    let floor_s = 0.15;
    let start = Instant::now();
    let mut scored = 0usize;
    loop {
        model
            .infer_batch(samples, parallelism)
            .expect("compiled model scores the test set");
        scored += samples.len();
        if start.elapsed().as_secs_f64() >= floor_s {
            break;
        }
    }
    scored as f64 / start.elapsed().as_secs_f64()
}

/// The pre-pool comparison row: fan each pass out with
/// `run_trials_unpooled` (threads spawned and joined per batch), chunking
/// the samples the same way `infer_batch` does. Measures the thread
/// start-up overhead the persistent pool amortizes away.
fn meter_unpooled(model: &CompiledModel, samples: &[&[f64]], threads: usize) -> f64 {
    let floor_s = 0.15;
    let chunk = samples.len().div_ceil(threads).max(1);
    let chunks: Vec<&[&[f64]]> = samples.chunks(chunk).collect();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0);
    let start = Instant::now();
    let mut scored = 0usize;
    loop {
        let labels = run_trials_unpooled(
            &mut rng,
            chunks.len(),
            Parallelism::Fixed(threads),
            |k, _| {
                model
                    .infer_batch(chunks[k], Parallelism::Serial)
                    .expect("compiled model scores the test set")
            },
        );
        scored += labels.iter().map(Vec::len).sum::<usize>();
        if start.elapsed().as_secs_f64() >= floor_s {
            break;
        }
    }
    scored as f64 / start.elapsed().as_secs_f64()
}

/// Runs the experiment: compile once, meter all four paths.
///
/// # Panics
///
/// Panics only on internal configuration errors (the defaults are valid).
pub fn run(scale: &Scale) -> RuntimeResult {
    let side = if scale.n_train >= 1000 { 28 } else { 14 };
    let (train, test) = scale.dataset(side);
    let weights = scale.gdt().train(&train).expect("training");
    let env = HardwareEnv::with_sigma(0.4)
        .expect("valid sigma")
        .with_ir_drop(5.0);
    let mut rng = scale.rng(42);
    let model = env
        .compiler()
        .with_calibration(&test.mean_input())
        .request(&weights, &RowMapping::identity(weights.rows()))
        .compile_with(&mut rng)
        .expect("model compiles");
    let reference = model.clone().with_reference_kernel();

    let samples: Vec<&[f64]> = (0..test.len()).map(|i| test.image(i)).collect();
    let threads = 8;
    let reference_sps = meter(&reference, &samples, Parallelism::Serial);
    let serial_sps = meter(&model, &samples, Parallelism::Serial);
    let spawn_sps = meter_unpooled(&model, &samples, threads);
    let parallel_sps = meter(&model, &samples, Parallelism::Fixed(threads));
    RuntimeResult {
        rows: model.rows(),
        cols: model.classes(),
        samples: samples.len(),
        threads,
        reference_sps,
        serial_sps,
        spawn_sps,
        parallel_sps,
        artifact_bytes: model.to_bytes().len(),
        accuracy: model.accuracy(&test).expect("scoring"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_positive_and_predictions_agree() {
        let r = run(&Scale::bench());
        assert!(r.reference_sps > 0.0 && r.serial_sps > 0.0);
        assert!(r.spawn_sps > 0.0 && r.parallel_sps > 0.0);
        assert!(r.samples > 0 && r.rows > 0 && r.cols == 10);
        assert!(r.artifact_bytes > 0);
        assert!((0.0..=1.0).contains(&r.accuracy));
        // Speedup is hardware-dependent; only require it on real
        // multi-core machines (CI containers often expose one core).
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores >= 8 {
            assert!(
                r.speedup() > 1.0,
                "expected parallel gain on {cores} cores, got {:.2}x",
                r.speedup()
            );
        }
    }

    #[test]
    fn render_and_json_carry_the_headline_fields() {
        let r = run(&Scale::bench());
        let s = r.render();
        assert!(s.contains("Runtime throughput"));
        assert!(s.contains("speedup"));
        assert!(s.contains("reference (f64)"));
        assert!(s.contains("spawn-per-batch"));
        let j = r.to_json();
        for key in [
            "rows",
            "cols",
            "samples",
            "threads",
            "reference_samples_per_sec",
            "serial_samples_per_sec",
            "spawn_samples_per_sec",
            "parallel_samples_per_sec",
            "speedup",
            "kernel_gain",
            "artifact_bytes",
            "tables",
        ] {
            assert!(json_field(&j, key), "missing {key} in {j}");
        }
    }
}
