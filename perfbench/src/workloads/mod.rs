//! The four workloads and what they share: the run description, counter
//! deltas from [`vortex_obs::snapshot`], the runtime kernel probe and the
//! bookkeeping that turns samples into metrics.

mod compile;
mod serving;

use std::time::Instant;

use vortex_linalg::stats::mean;
use vortex_nn::dataset::Dataset;
use vortex_nn::executor::Parallelism;
use vortex_obs::Snapshot;
use vortex_runtime::CompiledModel;

use crate::metrics::Outcome;
use crate::openloop::windowed_percentile;
use crate::setup::{Scale, SetupCost};
use crate::trace::Tracer;

/// A named workload. See `README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One synchronous client, closed loop, on one scheduler.
    SingleClient,
    /// Open-loop Poisson traffic through a three-replica fleet, over a
    /// rate ladder.
    PoissonFleet,
    /// Training data to a compiled 784-row model, stage by stage.
    Compile784,
    /// Open-loop traffic into one scheduler while a training job shares
    /// its pool.
    ServeWithTraining,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::SingleClient,
        Workload::PoissonFleet,
        Workload::Compile784,
        Workload::ServeWithTraining,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleClient => "single_client",
            Workload::PoissonFleet => "poisson_fleet",
            Workload::Compile784 => "compile_784",
            Workload::ServeWithTraining => "serve_with_training",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub traced: bool,
    /// Sizes.
    pub scale: Scale,
}

/// Runs one workload. Returns the outcome and the tracer holding the
/// traced run's spans (empty when untraced).
pub fn run(run: &Run) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let mut tracer = Tracer::off();
    match run.workload {
        Workload::SingleClient => serving::single_client(run, &mut out, &mut tracer),
        Workload::PoissonFleet => serving::poisson_fleet(run, &mut out, &mut tracer),
        Workload::Compile784 => compile::compile_784(run, &mut out, &mut tracer),
        Workload::ServeWithTraining => serving::serve_with_training(run, &mut out, &mut tracer),
    }
    if run.traced {
        for s in tracer.summary() {
            out.notes.push(format!(
                "span {:<24} count {:>8}  total {:>10.4} s  self {:>10.4} s",
                s.name, s.count, s.total_s, s.self_s
            ));
        }
        if tracer.dropped() > 0 {
            out.notes.push(format!(
                "trace buffer full: {} spans dropped",
                tracer.dropped()
            ));
        }
    } else {
        match crate::host::peak_rss_mb() {
            Some(mb) => out.set("peak_rss_mb", mb),
            None => out.problem("cannot read VmHWM from /proc/self/status"),
        }
    }
    (out, tracer)
}

/// Records the set-up costs (host-speed corrected): `setup_s` always,
/// and the training and compile parts where the caller has no better
/// measurement. Each is the interquartile mean of its samples, not the
/// median: a part takes tens of milliseconds and flips between a fast and
/// a slow level from one set-up slot to the next (42 ↔ 56 ms for the
/// compile part), and the median of such a mixture jumps between the
/// levels when they are about equally common, while the mean of its
/// middle half moves with their shares (run to run over four runs: 4.8%
/// against 7.8%).
fn record_setup(out: &mut Outcome, costs: &[SetupCost], factors: &[f64]) {
    let pick =
        |f: fn(&SetupCost) -> f64| interquartile_mean(&costs.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", pick(|c| c.total_s));
    out.set("train_s", pick(|c| c.train_s));
    out.set("compile_s", pick(|c| c.compile_s));
    out.notes.push(format!(
        "setup: {} runs, corrected total {:?} s, host-speed factors {:?}",
        costs.len(),
        costs.iter().map(|c| c.total_s).collect::<Vec<_>>(),
        factors
    ));
}

/// Mean of the middle half of `xs` (all of them when there are fewer
/// than four).
fn interquartile_mean(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = sorted.len() / 4;
    mean(&sorted[quarter..sorted.len() - quarter])
}

/// Median latency of `latencies_us` (the median over sub-windows of the
/// run); the tail goes to the notes only: on a host whose CPUs are
/// shared, stalls of several milliseconds come and go over tens of
/// seconds, and move p90 and p99 threefold between consecutive runs.
fn record_latency(out: &mut Outcome, latencies_us: &[f64]) {
    out.set("latency_p50_us", windowed_percentile(latencies_us, 0.5));
    out.notes.push(format!(
        "latency over {} requests: p90 {:.1} us, p99 {:.1} us, p999 {:.1} us",
        latencies_us.len(),
        windowed_percentile(latencies_us, 0.9),
        windowed_percentile(latencies_us, 0.99),
        windowed_percentile(latencies_us, 0.999),
    ));
}

/// Counter and histogram movement between two snapshots.
struct Delta<'a> {
    before: &'a Snapshot,
    after: &'a Snapshot,
}

impl Delta<'_> {
    fn counter(&self, name: &str) -> f64 {
        let at = |s: &Snapshot| s.counter(name).unwrap_or(0);
        at(self.after).saturating_sub(at(self.before)) as f64
    }

    /// `(count, sum)` of the observations recorded in between.
    fn histogram(&self, name: &str) -> (f64, f64) {
        let at = |s: &Snapshot| s.histogram(name).map_or((0, 0.0), |h| (h.count, h.sum));
        let (c0, s0) = at(self.before);
        let (c1, s1) = at(self.after);
        (c1.saturating_sub(c0) as f64, s1 - s0)
    }

    fn histogram_mean(&self, name: &str) -> f64 {
        let (count, sum) = self.histogram(name);
        if count > 0.0 {
            sum / count
        } else {
            0.0
        }
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The traced phase's window: counters and allocations around it.
struct Window {
    before: Snapshot,
    allocations_before: (u64, u64),
    started: Instant,
}

impl Window {
    fn open() -> Self {
        let before = vortex_obs::snapshot();
        crate::alloc::set_counting(true);
        Self {
            before,
            allocations_before: crate::alloc::counts(),
            started: Instant::now(),
        }
    }

    /// Closes the window and records the per-request layer metrics that
    /// every workload shares: pool jobs, allocations and the fast-path
    /// share, plus the scheduler ledger when `pool_threads` is given.
    /// Returns the snapshots at both ends for workload-specific deltas.
    fn close(
        self,
        out: &mut Outcome,
        requests: u64,
        pool_threads: Option<usize>,
    ) -> (Snapshot, Snapshot) {
        let wall_s = self.started.elapsed().as_secs_f64();
        crate::alloc::set_counting(false);
        let (allocs, bytes) = crate::alloc::counts();
        let (allocs, bytes) = (
            allocs - self.allocations_before.0,
            bytes - self.allocations_before.1,
        );
        let after = vortex_obs::snapshot();
        let d = Delta {
            before: &self.before,
            after: &after,
        };
        let requests = requests as f64;
        out.set(
            "pool.jobs_per_request",
            ratio(d.counter("pool.jobs"), requests),
        );
        out.set("alloc.count_per_request", ratio(allocs as f64, requests));
        out.set("alloc.bytes_per_request", ratio(bytes as f64, requests));
        let fast = d.counter("runtime.fast_labels");
        out.set(
            "runtime.fast_share",
            ratio(fast, fast + d.counter("runtime.fast_fallbacks")),
        );
        let Some(threads) = pool_threads else {
            return (self.before, after);
        };
        let (batches, batch_sum) = d.histogram("serve.batch_size");
        let (_, infer_sum) = d.histogram("serve.infer_seconds");
        out.set(
            "serve.wait_us",
            (d.histogram_mean("serve.latency_seconds") - d.histogram_mean("serve.infer_seconds"))
                * 1e6,
        );
        out.set("serve.batch_size_mean", ratio(batch_sum, batches));
        out.set("serve.batches_per_request", ratio(batches, requests));
        out.set(
            "serve.infer_busy_share",
            ratio(infer_sum, wall_s * threads as f64),
        );
        out.set("serve.rejected_full", d.counter("serve.rejected_full"));
        out.set(
            "serve.rejected_timeout",
            d.counter("serve.rejected_timeout"),
        );
        let (verdicts, splits) = (
            d.counter("fleet.ensemble.verdicts"),
            d.counter("fleet.ensemble.split_verdicts"),
        );
        out.set("fleet.ensemble_split_share", ratio(splits, verdicts));
        out.notes.push(format!(
            "traced window: {requests} requests in {wall_s:.3} s, {allocs} allocations"
        ));
        (self.before, after)
    }
}

/// Times `CompiledModel::infer` one sample at a time and
/// `infer_batch` 64 samples at a time over the workload's own inputs.
fn runtime_probe(
    out: &mut Outcome,
    model: &CompiledModel,
    inputs: &Dataset,
    samples: usize,
    tracer: &mut Tracer,
) {
    let xs: Vec<&[f64]> = (0..samples)
        .map(|i| inputs.image(i % inputs.len()))
        .collect();
    let start = Instant::now();
    for (i, x) in xs.iter().enumerate() {
        let t0 = Instant::now();
        std::hint::black_box(model.infer(std::hint::black_box(x)).expect("probe read"));
        tracer.record("runtime.infer", t0, Instant::now(), None, i as u64);
    }
    let b1 = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for (i, chunk) in xs.chunks(64).enumerate() {
        let t0 = Instant::now();
        std::hint::black_box(
            model
                .infer_batch(std::hint::black_box(chunk), Parallelism::Serial)
                .expect("probe read"),
        );
        tracer.record("runtime.infer_batch", t0, Instant::now(), None, i as u64);
    }
    let b64 = start.elapsed().as_secs_f64();
    out.set("runtime.ns_per_sample.b1", b1 * 1e9 / samples as f64);
    out.set("runtime.ns_per_sample.b64", b64 * 1e9 / samples as f64);
}

/// `traced − untraced` mean per-request time, µs.
fn trace_overhead(out: &mut Outcome, untraced_us: &[f64], traced_us: &[f64]) {
    out.set("trace.overhead_us", mean(traced_us) - mean(untraced_us));
}
