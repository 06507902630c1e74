//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's vocabulary: `BENCHMARK.json`
//! lists exactly these names (a test pins the two together), and later
//! changes cite them.

use std::collections::BTreeMap;

use vortex_obs::json::{json_f64, json_string};

/// End-to-end metrics, reported by the untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("served_share", "share"),
    ("compile_s", "s"),
    ("test_accuracy", "share"),
    ("train_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`.
/// A layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // vortex-serve
    ("serve.submit_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.batches_per_request", "count"),
    ("serve.infer_busy_share", "share"),
    ("serve.rejected_full", "count"),
    ("serve.rejected_timeout", "count"),
    // vortex-fleet
    ("fleet.submit_us", "us"),
    ("fleet.replica_share_max", "share"),
    ("fleet.ensemble_split_share", "share"),
    // vortex-runtime
    ("runtime.ns_per_sample.b1", "ns"),
    ("runtime.ns_per_sample.b64", "ns"),
    ("runtime.fast_share", "share"),
    // vortex-nn: worker pool, and the allocator under every layer
    ("pool.jobs_per_request", "count"),
    ("alloc.count_per_request", "count"),
    ("alloc.bytes_per_request", "B"),
    // vortex-core / vortex-xbar compile stages
    ("core.vat_tune_s", "s"),
    ("core.fabricate_s", "s"),
    ("core.amp_plan_s", "s"),
    ("core.program_s", "s"),
    ("core.freeze_s", "s"),
    // vortex-train
    ("train.epoch_ms", "ms"),
    ("train.yields", "count"),
    ("train.checkpoints", "count"),
    // the load generator, the tracer, and failures by kind
    ("driver.lateness_p99_us", "us"),
    ("trace.overhead_us", "us"),
    ("failed_share", "share"),
];

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run attempted (requests, or reads and compiles).
    pub attempted: u64,
    /// Attempted operations that returned an error.
    pub failed: u64,
    /// Failed output checks, one line each; empty means correct.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    /// Human-readable detail lines (rung tables, self times).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from both metric tables (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records a failed output check.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The metrics one mode reports, in table order: every end-to-end
    /// metric untraced, every per-layer metric traced. A missing
    /// end-to-end value or any non-finite value is reported as a problem.
    fn reported(&mut self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut out = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => {
                    self.problem(format!("metric {name} was not measured"));
                    f64::NAN
                }
            };
            if !value.is_finite() {
                self.problem(format!("metric {name} is not finite"));
            }
            out.push((name, value, unit));
        }
        out
    }

    /// The metrics of the chosen mode and the result line: `correct`,
    /// `attempted`, `failed` and those metrics, each with its unit.
    pub fn result(&mut self, traced: bool) -> (Vec<(&'static str, f64, &'static str)>, String) {
        if self.attempted == 0 {
            self.problem("the run attempted no operation");
        }
        let metrics = self.reported(traced);
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_string(name),
                    json_f64(*value),
                    json_string(unit)
                )
            })
            .collect();
        let json = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(",")
        );
        (metrics, json)
    }
}
