//! `compile_784`: training data to a `CompiledModel` at side 28, stage by
//! stage, then direct reads of the result.

use std::time::Instant;

use vortex_core::amp::sensitivity::mean_abs_inputs;
use vortex_core::pipeline::HardwareEnv;
use vortex_core::tuning::SelfTuner;
use vortex_core::vat::VatTrainer;
use vortex_core::vortex::{fabricate_pair, pretest_and_plan, program_mapped, AmpChipOptions};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::stats::median;
use vortex_nn::dataset::Dataset;
use vortex_nn::executor::Parallelism;
use vortex_runtime::CompiledModel;

use super::{runtime_probe, trace_overhead, Run, Window};
use crate::check::Mismatches;
use crate::metrics::Outcome;
use crate::setup::{self, derive_seed, purpose};
use crate::speed::HostSpeed;
use crate::trace::Tracer;

/// Image side: 28 × 28 = 784 logical rows.
const SIDE: usize = 28;
/// Spare physical rows AMP may map onto.
const REDUNDANT_ROWS: usize = 8;
/// Variation the VAT penalty is trained against (the substrate's σ).
const SIGMA: f64 = 0.5;
/// The five stages, in order, as span names.
const STAGES: [&str; 5] = [
    "core.vat_tune",
    "core.fabricate",
    "core.amp_plan",
    "core.program",
    "core.freeze",
];
/// Per-layer metric of each stage, in [`STAGES`] order.
const STAGE_METRICS: [&str; 5] = [
    "core.vat_tune_s",
    "core.fabricate_s",
    "core.amp_plan_s",
    "core.program_s",
    "core.freeze_s",
];
/// How far the stage spans may fall short of a compile's wall time.
const STAGE_COVERAGE: f64 = 0.10;

/// One compile: the model, the instants that bound its stages and the
/// host-speed factor measured around it.
struct Compiled {
    model: CompiledModel,
    marks: [Instant; 6],
    factor: f64,
}

impl Compiled {
    fn total_s(&self) -> f64 {
        (self.marks[5] - self.marks[0]).as_secs_f64()
    }

    /// Wall time at the reference host speed.
    fn corrected_s(&self) -> f64 {
        self.total_s() * self.factor
    }

    fn stage_s(&self, i: usize) -> f64 {
        (self.marks[i + 1] - self.marks[i]).as_secs_f64()
    }
}

/// Runs the compile path once, from a fixed chip seed so every compile
/// of a run is the same chip.
///
/// The γ scan runs serially: spread over every core of a host whose cores
/// are shared, each scan step waits for its slowest thread. Over five
/// 30 s runs the median compile spread (interquartile range over median)
/// 0.14 with the scan on two threads and 0.07 on one.
fn compile_once(
    train: &Dataset,
    env: &HardwareEnv,
    chip_seed: u64,
) -> (CompiledModel, [Instant; 6]) {
    let t0 = Instant::now();
    let tuner = SelfTuner {
        parallelism: Parallelism::Serial,
        ..SelfTuner::default()
    };
    let base = VatTrainer {
        sigma: SIGMA,
        ..VatTrainer::default()
    };
    let weights = tuner.tune(&base, train).expect("valid tuner").weights;
    let t1 = Instant::now();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(chip_seed);
    let mut pair = fabricate_pair(
        weights.cols(),
        weights.rows() + REDUNDANT_ROWS,
        env,
        &mut rng,
    )
    .expect("valid substrate");
    let t2 = Instant::now();
    let options = AmpChipOptions {
        redundant_rows: REDUNDANT_ROWS,
        ..AmpChipOptions::default()
    };
    let plan = pretest_and_plan(
        &mut pair,
        &weights,
        &mean_abs_inputs(train),
        &options,
        env,
        &mut rng,
    )
    .expect("pre-test and plan");
    let t3 = Instant::now();
    program_mapped(&mut pair, &weights, &plan.mapping, env, &mut rng).expect("programming");
    let t4 = Instant::now();
    let model = env
        .compiler()
        .with_calibration(&train.mean_input())
        .freeze(&pair, &plan.mapping)
        .expect("freeze");
    let t5 = Instant::now();
    (model, [t0, t1, t2, t3, t4, t5])
}

/// Compiles back to back until `seconds` have passed (at least once),
/// calling `between` before every compile but the first.
#[allow(clippy::too_many_arguments)]
fn compile_for(
    seconds: f64,
    train: &Dataset,
    env: &HardwareEnv,
    chip_seed: u64,
    speed: &HostSpeed,
    between: &mut dyn FnMut(),
    tracer: &mut Tracer,
    done: &mut Vec<Compiled>,
) -> Vec<usize> {
    let until = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut indices: Vec<usize> = Vec::new();
    loop {
        if !indices.is_empty() {
            between();
        }
        let ((model, marks), factor) = speed.around(|| compile_once(train, env, chip_seed));
        let c = Compiled {
            model,
            marks,
            factor,
        };
        let id = done.len() as u64;
        let root = tracer.record("core.compile", c.marks[0], c.marks[5], None, id);
        for (i, name) in STAGES.iter().enumerate() {
            tracer.record(name, c.marks[i], c.marks[i + 1], root, id);
        }
        indices.push(done.len());
        done.push(c);
        if Instant::now() >= until {
            return indices;
        }
    }
}

/// `reads` direct reads of seeded picks from the held-out set through
/// `model`, each label compared with the reference kernel's; returns the
/// per-read latency, µs.
fn read_for(
    model: &CompiledModel,
    test: &Dataset,
    reference: &[u8],
    reads: usize,
    pick: &mut Xoshiro256PlusPlus,
    checks: &mut Mismatches,
    tracer: &mut Tracer,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(reads);
    for k in 0..reads {
        let i = pick.next_below(test.len());
        let t0 = Instant::now();
        let label = model.infer(test.image(i)).expect("held-out read");
        let t1 = Instant::now();
        tracer.record("runtime.infer", t0, t1, None, k as u64);
        latencies.push((t1 - t0).as_secs_f64() * 1e6);
        checks.compare("fast-path read", label, reference[i]);
    }
    latencies
}

/// `compile_784`: one fixed problem (data and chip from the system seed)
/// compiled back to back; the run seed orders the reads of the result.
pub(super) fn compile_784(run: &Run, out: &mut Outcome, tracer: &mut Tracer) {
    let scale = &run.scale;
    // Set-up is data generation; the untraced run repeats it between
    // compiles, so its samples spread over the run. Every duration is
    // host-speed corrected.
    let speed = HostSpeed::new();
    let generate = || {
        let ((data, wall_s), factor) = speed.around(|| {
            let t0 = Instant::now();
            let data = setup::digits(
                SIDE,
                scale.compile_per_class,
                scale.compile_train,
                scale.compile_test,
                derive_seed(setup::SYSTEM_SEED, purpose::DATA),
            );
            (data, t0.elapsed().as_secs_f64())
        });
        (data, wall_s * factor)
    };
    let ((train, test), first_s) = generate();
    let mut setup_s = vec![first_s];
    let env = setup::environment();
    let chip_seed = derive_seed(setup::SYSTEM_SEED, purpose::CHIP);
    let mut pick = Xoshiro256PlusPlus::seed_from_u64(derive_seed(run.seed, purpose::INPUTS));
    let mut checks = Mismatches::default();
    let mut compiles = Vec::new();
    let phase_s = if run.traced {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let mut between = || {
        if !run.traced {
            setup_s.push(generate().1);
        }
    };
    let untraced = compile_for(
        phase_s,
        &train,
        &env,
        chip_seed,
        &speed,
        &mut between,
        &mut Tracer::off(),
        &mut compiles,
    );
    let model = compiles[0].model.clone();
    if !model.fast_path_enabled() {
        out.problem("the compiled 784-row model does not read through the certified fast path");
    }
    let reference = model
        .clone()
        .with_reference_kernel()
        .infer_dataset(&test, Parallelism::Serial)
        .expect("reference read");
    let fast = model
        .infer_dataset(&test, Parallelism::Serial)
        .expect("held-out read");
    for (i, (&f, &r)) in fast.iter().zip(&reference).enumerate() {
        checks.compare(&format!("held-out sample {i}"), f, r);
    }
    let latencies = read_for(
        &model,
        &test,
        &reference,
        scale.compile_reads,
        &mut pick,
        &mut checks,
        &mut Tracer::off(),
    );

    if run.traced {
        *tracer = Tracer::on(scale.trace_capacity);
        let traced = compile_for(
            phase_s,
            &train,
            &env,
            chip_seed,
            &speed,
            &mut || {},
            tracer,
            &mut compiles,
        );
        for (metric, i) in STAGE_METRICS.iter().zip(0..) {
            let stage: Vec<f64> = traced.iter().map(|&c| compiles[c].stage_s(i)).collect();
            out.set(metric, median(&stage));
        }
        // The stage spans must account for the compile spans they sit in:
        // what they leave uncovered is the compile span's self time.
        let compile = tracer
            .summary()
            .into_iter()
            .find(|s| s.name == "core.compile");
        match compile {
            Some(c) if c.self_s <= STAGE_COVERAGE * c.total_s => {}
            Some(c) => out.problem(format!(
                "compile stages cover {:.3} s of {:.3} s of compiles",
                c.total_s - c.self_s,
                c.total_s
            )),
            None => out.problem("the traced run recorded no compile span"),
        }
        let untraced_s: Vec<f64> = untraced.iter().map(|&c| compiles[c].total_s()).collect();
        let stage_sum: f64 = STAGE_METRICS.iter().filter_map(|m| out.get(m)).sum();
        out.notes.push(format!(
            "traced stage medians sum to {stage_sum:.4} s; untraced compile median {:.4} s",
            median(&untraced_s)
        ));
        let window = Window::open();
        let timed = read_for(
            &model,
            &test,
            &reference,
            scale.compile_reads,
            &mut pick,
            &mut checks,
            tracer,
        );
        window.close(out, timed.len() as u64, None);
        trace_overhead(out, &latencies, &timed);
        runtime_probe(out, &model, &test, scale.probe_samples, tracer);
    } else {
        // A compile is this workload's request: its latency is the
        // corrected compile time.
        out.set("setup_s", median(&setup_s));
        let totals: Vec<f64> = untraced
            .iter()
            .map(|&c| compiles[c].corrected_s())
            .collect();
        let compile_s = median(&totals);
        out.set("compile_s", compile_s);
        out.set("latency_p50_us", compile_s * 1e6);
        let tune: Vec<f64> = untraced
            .iter()
            .map(|&c| compiles[c].stage_s(0) * compiles[c].factor)
            .collect();
        out.set("train_s", median(&tune));
    }
    out.notes.push(format!(
        "compiles {:?} s wall, host-speed factors {:?}",
        compiles.iter().map(Compiled::total_s).collect::<Vec<_>>(),
        compiles.iter().map(|c| c.factor).collect::<Vec<_>>()
    ));
    for (k, c) in compiles.iter().enumerate().skip(1) {
        if c.model
            .infer_dataset(&test, Parallelism::Serial)
            .expect("held-out read")
            != fast
        {
            out.problem(format!(
                "compile {k} of one chip labels the held-out set differently"
            ));
        }
    }
    if let Some(p) = checks.problem("fast-path labels against the reference kernel") {
        out.problem(p);
    }
    out.set(
        "test_accuracy",
        model.accuracy(&test).expect("held-out read"),
    );
    let reads = latencies.len() + usize::from(run.traced) * scale.compile_reads;
    out.attempted += (compiles.len() + reads) as u64;
    out.set("served_share", 1.0);
    out.set("failed_share", 0.0);
}
