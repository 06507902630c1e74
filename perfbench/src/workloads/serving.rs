//! The serving workloads: `single_client`, `poisson_fleet` and
//! `serve_with_training`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vortex_bench::traffic::Tenant;
use vortex_fleet::{Fleet, FleetConfig, RoutingPolicy};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::stats::{mean, median};
use vortex_linalg::Matrix;
use vortex_nn::dataset::Dataset;
use vortex_nn::executor::Parallelism;
use vortex_nn::pool::WorkerPool;
use vortex_serve::{Scheduler, SchedulerConfig, Ticket};
use vortex_train::{JobConfig, TrainerConfig, TrainingJob};

use super::{
    ratio, record_latency, record_setup, runtime_probe, trace_overhead, Delta, Run, Window,
};
use crate::check::{LabelOracle, Mismatches};
use crate::host;
use crate::metrics::Outcome;
use crate::openloop::{percentile, run_rung, windowed_percentile, Rung, RungStats, Target};
use crate::setup::{self, derive_seed, purpose, Scale, Served, SetupCost};
use crate::speed::HostSpeed;
use crate::trace::Tracer;

/// Median-latency limit of a sustained rung, µs. A limit on the median
/// rather than a tail: on a two-core host the three replicas' tail moves
/// threefold with stalls of the shared CPUs, the median by about a tenth.
const P50_LIMIT_US: f64 = 1_000.0;
/// Failed share a sustained rung may have.
const MAX_FAILED_SHARE: f64 = 0.01;
/// Interactive tenant deadline.
const INTERACTIVE_DEADLINE_S: f64 = 0.008;
/// Fleet replicas.
const REPLICAS: usize = 3;
/// One request in this many is an ensemble read.
const ENSEMBLE_EVERY: u64 = 20;
/// Legs of an ensemble read.
const ENSEMBLE_LEGS: usize = 3;
/// Parts the nominal rung is measured in, a set-up before each.
const NOMINAL_PARTS: usize = 3;
/// Closed-loop completions are counted per bucket of this length; the
/// reported rate is the median bucket's, so a stall of the host lowers
/// one bucket rather than the whole run's figure.
const RATE_BUCKET: Duration = Duration::from_millis(500);
/// Set-ups run back to back in each set-up slot of an untraced run. The
/// compile and training parts of one set-up take tens of milliseconds
/// and vary by a fifth from one to the next, so their medians need many
/// samples; pairs cost one host-speed probe pair and one break in the
/// traffic per two samples.
const SETUPS_PER_SLOT: usize = 2;
/// Unmeasured traffic before the measured part of a serving run.
const WARMUP: Duration = Duration::from_millis(200);

/// The serving pool every serving workload runs on.
fn serving_pool() -> Arc<WorkerPool> {
    Arc::new(WorkerPool::new(host::serving_pool_size()))
}

/// The production scheduler configuration on `pool`.
fn scheduler_config(pool: &WorkerPool) -> SchedulerConfig {
    SchedulerConfig::new(Parallelism::Fixed(pool.size()))
}

/// The set-ups of one run. The first builds what the run serves; the
/// untraced run repeats the set-up between measured slices, so a slow
/// spell of the host moves one sample of `setup_s`, not all of them.
struct Setups {
    scale: Scale,
    replicas: usize,
    repeat: bool,
    speed: HostSpeed,
    /// Host-speed corrected costs.
    costs: Vec<SetupCost>,
    factors: Vec<f64>,
}

impl Setups {
    /// The first set-up, checked: every replica serves through the
    /// certified fast path. Records the served accuracy.
    fn first(run: &Run, replicas: usize, out: &mut Outcome) -> (Self, Served, LabelOracle) {
        let speed = HostSpeed::new();
        let ((served, cost), factor) = speed.around(|| setup::serving(&run.scale, replicas));
        let mut accuracy = Vec::with_capacity(replicas);
        for (i, (_, model)) in served.models.iter().enumerate() {
            if !model.fast_path_enabled() {
                out.problem(format!(
                    "replica {i} does not serve through the certified fast path"
                ));
            }
            accuracy.push(model.accuracy(&served.test).expect("held-out read"));
        }
        out.set("test_accuracy", mean(&accuracy));
        let oracle = LabelOracle::new(served.models.iter().map(|(_, m)| &**m), &served.test);
        let setups = Self {
            scale: run.scale.clone(),
            replicas,
            repeat: !run.traced,
            speed,
            costs: vec![cost.scaled(factor)],
            factors: vec![factor],
        };
        (setups, served, oracle)
    }

    /// Repeats the set-up [`SETUPS_PER_SLOT`] times back to back (untraced
    /// runs only) and keeps their costs.
    fn again(&mut self) {
        if self.repeat {
            let (costs, factor) = self.speed.around(|| {
                (0..SETUPS_PER_SLOT)
                    .map(|_| setup::serving(&self.scale, self.replicas).1)
                    .collect::<Vec<_>>()
            });
            self.costs
                .extend(costs.into_iter().map(|c| c.scaled(factor)));
            self.factors.push(factor);
        }
    }

    fn record(&self, out: &mut Outcome) {
        if self.repeat {
            record_setup(out, &self.costs, &self.factors);
        }
    }
}

/// Closed-loop client results.
#[derive(Debug, Default)]
struct ClosedStats {
    attempted: u64,
    completed: u64,
    failed: u64,
    latencies_us: Vec<f64>,
    submit_us: Vec<f64>,
    /// Completions per second of each whole [`RATE_BUCKET`] of the run.
    bucket_rps: Vec<f64>,
}

impl ClosedStats {
    fn merge(&mut self, other: ClosedStats) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.latencies_us.extend(other.latencies_us);
        self.submit_us.extend(other.submit_us);
        self.bucket_rps.extend(other.bucket_rps);
    }
}

/// One synchronous client: submit, wait for the label, repeat, for
/// `seconds`. Each request is `try_submit` followed by `Ticket::wait`,
/// which is what `Scheduler::submit_wait` does, with the admission call
/// timed on its own.
fn closed_loop(
    scheduler: &Scheduler,
    inputs: &Dataset,
    oracle: &LabelOracle,
    seconds: f64,
    pick: &mut Xoshiro256PlusPlus,
    checks: &mut Mismatches,
    tracer: &mut Tracer,
) -> ClosedStats {
    let mut stats = ClosedStats::default();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut now = start;
    let (mut bucket_start, mut bucket_done) = (start, 0u32);
    while now < end {
        let input = pick.next_below(inputs.len());
        let x = inputs.image(input).to_vec();
        let id = stats.attempted;
        stats.attempted += 1;
        let t0 = Instant::now();
        let admitted = scheduler.try_submit(x, None);
        let t1 = Instant::now();
        let answer = admitted.and_then(Ticket::wait);
        now = Instant::now();
        match answer {
            Ok(prediction) => {
                checks.compare("served label", prediction.class, oracle.label(0, input));
                stats.completed += 1;
                stats.latencies_us.push((now - t0).as_secs_f64() * 1e6);
                stats.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
                bucket_done += 1;
            }
            Err(_) => stats.failed += 1,
        }
        if now - bucket_start >= RATE_BUCKET {
            let elapsed = (now - bucket_start).as_secs_f64();
            stats.bucket_rps.push(f64::from(bucket_done) / elapsed);
            (bucket_start, bucket_done) = (now, 0);
        }
        let root = tracer.record("request", t0, now, None, id);
        tracer.record("serve.try_submit", t0, t1, root, id);
        tracer.record("serve.ticket_wait", t1, now, root, id);
    }
    if stats.bucket_rps.is_empty() {
        let elapsed = (now - start).as_secs_f64();
        stats
            .bucket_rps
            .push(ratio(stats.completed as f64, elapsed));
    }
    stats
}

/// `single_client`: one synchronous client on the production
/// configuration, one request in flight at a time.
pub(super) fn single_client(run: &Run, out: &mut Outcome, tracer: &mut Tracer) {
    let (mut setups, served, oracle) = Setups::first(run, 1, out);
    let pool = serving_pool();
    let model = Arc::clone(&served.models[0].1);
    let scheduler = Scheduler::on_pool(
        Arc::clone(&pool),
        Arc::clone(&model),
        None,
        scheduler_config(&pool),
        None,
    )
    .expect("production configuration is valid");
    let mut pick = Xoshiro256PlusPlus::seed_from_u64(derive_seed(run.seed, purpose::INPUTS));
    let mut checks = Mismatches::default();
    let inputs = &served.test;
    let mut client = |seconds: f64, checks: &mut Mismatches, tracer: &mut Tracer| {
        closed_loop(
            &scheduler, inputs, &oracle, seconds, &mut pick, checks, tracer,
        )
    };
    client(WARMUP.as_secs_f64(), &mut checks, &mut Tracer::off());
    let mut total = ClosedStats::default();
    if run.traced {
        let untraced = client(run.seconds / 2.0, &mut checks, &mut Tracer::off());
        *tracer = Tracer::on(run.scale.trace_capacity);
        let window = Window::open();
        let traced = client(run.seconds / 2.0, &mut checks, tracer);
        window.close(out, traced.attempted, Some(pool.size()));
        out.set("serve.submit_us", percentile(&traced.submit_us, 0.5));
        trace_overhead(out, &untraced.latencies_us, &traced.latencies_us);
        runtime_probe(out, &model, inputs, run.scale.probe_samples, tracer);
        total.merge(untraced);
        total.merge(traced);
    } else {
        let slices = run.scale.setups;
        for k in 0..slices {
            if k > 0 {
                setups.again();
            }
            total.merge(client(
                run.seconds / slices as f64,
                &mut checks,
                &mut Tracer::off(),
            ));
        }
        record_latency(out, &total.latencies_us);
        note_throughput(out, median(&total.bucket_rps));
    }
    setups.record(out);
    // One request in flight never fills the queue, and carries no
    // deadline: every failure is an error.
    finish_requests(out, total.attempted, 0, total.failed, &checks);
    scheduler.shutdown();
}

/// Completions per second go to the notes, not to the bounded metrics: a
/// closed loop's rate follows its mean latency, which the host's stalls
/// moved by up to a third between consecutive runs, and an open loop's
/// is its offered rate.
fn note_throughput(out: &mut Outcome, rps: f64) {
    out.notes.push(format!("throughput_rps {rps:.1} 1/s"));
}

/// Records the request totals, the failure shares and the label check.
/// `refused` requests (queue full, deadline passed) count against
/// `served_share`; only `errors` (an admitted request answered with an
/// error, or not at all) are failed operations of the run.
fn finish_requests(
    out: &mut Outcome,
    attempted: u64,
    refused: u64,
    errors: u64,
    checks: &Mismatches,
) {
    out.attempted += attempted;
    out.failed += errors;
    let failed_share = ratio((refused + errors) as f64, attempted as f64);
    out.set("served_share", 1.0 - failed_share);
    out.set("failed_share", failed_share);
    if let Some(p) = checks.problem("served labels against the offline reference") {
        out.problem(p);
    }
}

fn tenants(deadlines: bool) -> Vec<Tenant> {
    vec![
        Tenant {
            name: "interactive",
            weight: 4.0,
            deadline: deadlines.then_some(INTERACTIVE_DEADLINE_S),
        },
        Tenant {
            name: "batch",
            weight: 1.0,
            deadline: None,
        },
    ]
}

fn rung_note(label: &str, s: &RungStats, sustained: Option<bool>) -> String {
    format!(
        "{label}: rate {:>8.0}/s  sent {:>8}  failed {:>6.4} (full {}, timeout {}, other {})  \
         p50 {:>9.1} us  p90 {:>9.1} us  p99 {:>9.1} us  late p99 {:>8.1} us  \
         in flight at end {:>5}{}",
        s.rate,
        s.attempted,
        s.failed_share(),
        s.rejected_full,
        s.rejected_timeout,
        s.errors,
        windowed_percentile(&s.latencies_us, 0.5),
        windowed_percentile(&s.latencies_us, 0.9),
        windowed_percentile(&s.latencies_us, 0.99),
        percentile(&s.lateness_us, 0.99),
        s.in_flight_at_end,
        sustained.map_or(String::new(), |ok| format!("  sustained {ok}")),
    )
}

/// `poisson_fleet`: seeded Poisson traffic from two tenants through a
/// three-replica least-loaded fleet, one request in twenty an ensemble
/// read, over the rate ladder; latency is reported at the nominal rung.
pub(super) fn poisson_fleet(run: &Run, out: &mut Outcome, tracer: &mut Tracer) {
    let (mut setups, served, oracle) = Setups::first(run, REPLICAS, out);
    let pool = serving_pool();
    let fleet = Fleet::on_pool(
        Arc::clone(&pool),
        served.models.clone(),
        FleetConfig::new(RoutingPolicy::LeastLoaded).with_scheduler(scheduler_config(&pool)),
    )
    .expect("replicas share one shape");
    let target = Target::Fleet {
        fleet: &fleet,
        ensemble_every: ENSEMBLE_EVERY,
        legs: ENSEMBLE_LEGS,
    };
    let scale = &run.scale;
    let nominal = scale.nominal_rate;
    let rung = |index: u64, rate: f64, seconds: f64| Rung {
        rate,
        tenants: tenants(true),
        warmup: Duration::from_secs_f64((seconds * 0.1).min(WARMUP.as_secs_f64())),
        traffic_seed: derive_seed(run.seed, purpose::TRAFFIC) ^ index,
        input_seed: derive_seed(run.seed, purpose::INPUTS) ^ index,
        id_base: index << 40,
        expected: (rate * seconds * 1.25) as usize + 64,
    };
    let mut checks = Mismatches::default();
    let mut drive = |r: &Rung, seconds: f64, tracer: &mut Tracer| {
        let limit = Duration::from_secs_f64(seconds);
        run_rung(
            target,
            r,
            &|t| t < limit,
            &served.test,
            &oracle,
            &mut checks,
            tracer,
        )
    };
    let warmup = WARMUP.as_secs_f64();
    drive(&rung(0, nominal, warmup), warmup, &mut Tracer::off());
    let slack = (REPLICAS * 64) as u64;
    let nominal_stats = if run.traced {
        let half = run.seconds / 2.0;
        let untraced = drive(&rung(1, nominal, half), half, &mut Tracer::off());
        *tracer = Tracer::on(scale.trace_capacity);
        let window = Window::open();
        let traced = drive(&rung(2, nominal, half), half, tracer);
        window.close(out, traced.attempted, Some(pool.size()));
        out.set("serve.submit_us", percentile(&traced.submit_us, 0.5));
        let mut fleet_submits = traced.submit_us.clone();
        fleet_submits.extend(&traced.ensemble_submit_us);
        out.set("fleet.submit_us", percentile(&fleet_submits, 0.5));
        let routed: u64 = traced.per_replica.iter().sum();
        let busiest = traced.per_replica.iter().copied().max().unwrap_or(0);
        out.set(
            "fleet.replica_share_max",
            ratio(busiest as f64, routed as f64),
        );
        out.set(
            "driver.lateness_p99_us",
            percentile(&traced.lateness_us, 0.99),
        );
        trace_overhead(out, &untraced.latencies_us, &traced.latencies_us);
        runtime_probe(
            out,
            &served.models[0].1,
            &served.test,
            scale.probe_samples,
            tracer,
        );
        out.notes.push(rung_note("untraced", &untraced, None));
        out.notes.push(rung_note("traced", &traced, None));
        let mut both = untraced;
        both.merge(traced);
        both
    } else {
        // Ascending rungs, stopping after the first that is not sustained
        // once the nominal rung has run. The nominal rung gets the longest
        // window, in parts; a set-up precedes every rung and part.
        let mut max_rate = 0.0f64;
        let mut nominal_stats = None;
        let mut index = 10;
        for (i, &rate) in scale.ladder.iter().enumerate() {
            let (share, parts) = if rate == nominal {
                (scale.nominal_share, NOMINAL_PARTS)
            } else {
                (scale.rung_share, 1)
            };
            let seconds = run.seconds * share / parts as f64;
            let mut stats =
                RungStats::with_capacity((rate * seconds * parts as f64 * 1.25) as usize);
            for _ in 0..parts {
                if index > 10 {
                    setups.again();
                }
                stats.merge(drive(
                    &rung(index, rate, seconds),
                    seconds,
                    &mut Tracer::off(),
                ));
                index += 1;
            }
            let sustained = stats.sustained(P50_LIMIT_US, MAX_FAILED_SHARE, slack);
            out.notes
                .push(rung_note(&format!("rung {i}"), &stats, Some(sustained)));
            if sustained {
                max_rate = rate;
            }
            if rate == nominal {
                nominal_stats = Some(stats);
            } else if !sustained && nominal_stats.is_some() {
                break;
            }
        }
        let nominal_stats = nominal_stats.expect("the ladder holds the nominal rate");
        record_latency(out, &nominal_stats.latencies_us);
        note_throughput(
            out,
            ratio(
                nominal_stats.measured_completed as f64,
                nominal_stats.measured_s,
            ),
        );
        // Reported, not bounded: with host stalls the highest sustained
        // rung flips between neighbours of a doubling ladder.
        out.notes.push(format!(
            "max_rate_rps {max_rate} 1/s (highest sustained rung)"
        ));
        nominal_stats
    };
    setups.record(out);
    finish_requests(
        out,
        nominal_stats.attempted,
        nominal_stats.rejected_full + nominal_stats.rejected_timeout,
        nominal_stats.errors,
        &checks,
    );
    fleet.shutdown();
}

/// What a back-to-back sequence of training jobs measured.
#[derive(Debug, Default)]
struct JobsPhase {
    traffic: RungStats,
    job_s: Vec<f64>,
    yields: u64,
    weights: Vec<Matrix>,
    problems: Vec<String>,
}

/// `serve_with_training`: the fleet generator's Poisson arrivals at one
/// rate into one scheduler while fixed-epoch training jobs share its
/// pool; jobs run back to back for the measured time.
pub(super) fn serve_with_training(run: &Run, out: &mut Outcome, tracer: &mut Tracer) {
    let (mut setups, served, oracle) = Setups::first(run, 1, out);
    let pool = serving_pool();
    let scheduler = Arc::new(
        Scheduler::on_pool(
            Arc::clone(&pool),
            Arc::clone(&served.models[0].1),
            None,
            scheduler_config(&pool),
            None,
        )
        .expect("production configuration is valid"),
    );
    let scale = &run.scale;
    let job_data = Arc::new(
        served
            .train
            .subset(&(0..scale.job_train.min(served.train.len())).collect::<Vec<_>>()),
    );
    let work = host::work_dir().join(format!("ckpt-{}", std::process::id()));
    let rung = |index: u64, warmup: Duration| Rung {
        rate: scale.training_rate,
        tenants: tenants(false),
        warmup,
        traffic_seed: derive_seed(run.seed, purpose::TRAFFIC) ^ index,
        input_seed: derive_seed(run.seed, purpose::INPUTS) ^ index,
        id_base: index << 40,
        // Jobs take a few tenths of a second.
        expected: (scale.training_rate * 0.5) as usize,
    };
    let mut checks = Mismatches::default();
    // Traffic alone warms the scheduler before the first job.
    run_rung(
        Target::Scheduler(&scheduler),
        &rung(0, WARMUP),
        &|t| t < WARMUP,
        &served.test,
        &oracle,
        &mut checks,
        &mut Tracer::off(),
    );
    let mut job_index = 1u64;
    let mut jobs =
        |seconds: f64, setups: &mut Setups, checks: &mut Mismatches, tracer: &mut Tracer| {
            let start = Instant::now();
            let slot = seconds / scale.setups as f64;
            let mut next_setup = slot;
            // Sized up front: growing by doubling would put the copies into
            // the peak resident set.
            let expected = (scale.training_rate * seconds * 1.25) as usize;
            let mut phase = JobsPhase {
                traffic: RungStats::with_capacity(expected),
                ..JobsPhase::default()
            };
            loop {
                if start.elapsed().as_secs_f64() >= next_setup {
                    setups.again();
                    next_setup += slot;
                }
                let dir = work.join(job_index.to_string());
                let _ = std::fs::remove_dir_all(&dir);
                let job = training_job(scale, &dir, &job_data, &scheduler, &pool);
                let done = AtomicBool::new(false);
                let (report, t0, t1, traffic) = std::thread::scope(|scope| {
                    let trainer = scope.spawn(|| {
                        let t0 = Instant::now();
                        let report = job.run();
                        let t1 = Instant::now();
                        done.store(true, Ordering::Release);
                        (report, t0, t1)
                    });
                    let traffic = run_rung(
                        Target::Scheduler(&scheduler),
                        &rung(job_index, Duration::ZERO),
                        &|_| !done.load(Ordering::Acquire),
                        &served.test,
                        &oracle,
                        checks,
                        tracer,
                    );
                    let (report, t0, t1) =
                        trainer.join().expect("the training thread never panics");
                    (report, t0, t1, traffic)
                });
                tracer.record("train.job", t0, t1, None, job_index);
                let _ = std::fs::remove_dir_all(&dir);
                job_index += 1;
                match report {
                    Ok(report) if report.epochs == scale.job_epochs => {
                        phase.yields += report.yields;
                        phase.weights.push(report.weights);
                    }
                    Ok(report) => phase.problems.push(format!(
                        "training job ran {} epochs, expected {}",
                        report.epochs, scale.job_epochs
                    )),
                    Err(e) => phase.problems.push(format!("training job failed: {e}")),
                }
                phase.job_s.push((t1 - t0).as_secs_f64());
                phase.traffic.merge(traffic);
                if start.elapsed().as_secs_f64() >= seconds {
                    return phase;
                }
            }
        };
    let phases = if run.traced {
        let untraced = jobs(
            run.seconds / 2.0,
            &mut setups,
            &mut checks,
            &mut Tracer::off(),
        );
        *tracer = Tracer::on(scale.trace_capacity);
        let window = Window::open();
        let traced = jobs(run.seconds / 2.0, &mut setups, &mut checks, tracer);
        let (before, after) = window.close(out, traced.traffic.attempted, Some(pool.size()));
        let delta = Delta {
            before: &before,
            after: &after,
        };
        let jobs_run = traced.job_s.len() as f64;
        out.set(
            "serve.submit_us",
            percentile(&traced.traffic.submit_us, 0.5),
        );
        out.set(
            "train.epoch_ms",
            median(&traced.job_s) * 1e3 / scale.job_epochs as f64,
        );
        out.set("train.yields", ratio(traced.yields as f64, jobs_run));
        out.set(
            "train.checkpoints",
            ratio(delta.counter("train.checkpoints"), jobs_run),
        );
        out.set(
            "driver.lateness_p99_us",
            percentile(&traced.traffic.lateness_us, 0.99),
        );
        trace_overhead(
            out,
            &untraced.traffic.latencies_us,
            &traced.traffic.latencies_us,
        );
        runtime_probe(
            out,
            &served.models[0].1,
            &served.test,
            scale.probe_samples,
            tracer,
        );
        vec![untraced, traced]
    } else {
        let phase = jobs(run.seconds, &mut setups, &mut checks, &mut Tracer::off());
        record_latency(out, &phase.traffic.latencies_us);
        note_throughput(
            out,
            ratio(
                phase.traffic.measured_completed as f64,
                phase.traffic.measured_s,
            ),
        );
        vec![phase]
    };
    let _ = std::fs::remove_dir_all(&work);
    setups.record(out);
    if !run.traced {
        out.set("train_s", median(&phases[0].job_s));
    }
    let (mut attempted, mut refused, mut errors) = (0, 0, 0);
    let mut reference: Option<&Matrix> = None;
    for phase in &phases {
        for p in &phase.problems {
            out.problem(p.clone());
        }
        for w in &phase.weights {
            if *reference.get_or_insert(w) != w {
                out.problem("training jobs with one seed produced different weights");
            }
        }
        out.notes.push(format!(
            "{} jobs, median {:.4} s; {}",
            phase.job_s.len(),
            median(&phase.job_s),
            rung_note("traffic", &phase.traffic, None)
        ));
        attempted += phase.traffic.attempted;
        refused += phase.traffic.rejected_full + phase.traffic.rejected_timeout;
        errors += phase.traffic.errors;
    }
    finish_requests(out, attempted, refused, errors, &checks);
    scheduler.shutdown();
}

/// A fixed-epoch job on the serving pool, yielding to `scheduler`'s
/// backlog and checkpointing into `dir`.
fn training_job(
    scale: &Scale,
    dir: &std::path::Path,
    data: &Arc<Dataset>,
    scheduler: &Arc<Scheduler>,
    pool: &Arc<WorkerPool>,
) -> TrainingJob {
    let config = JobConfig {
        max_epochs: scale.job_epochs,
        checkpoint_every: scale.checkpoint_every,
        ..JobConfig::new(
            TrainerConfig {
                seed: derive_seed(setup::SYSTEM_SEED, purpose::JOB),
                // Never converge early: every job runs its full budget.
                tolerance: 0.0,
                ..TrainerConfig::default()
            },
            dir,
        )
    };
    TrainingJob::new(config, Arc::clone(data), setup::environment())
        .expect("valid job configuration")
        .with_scheduler(Arc::clone(scheduler))
        .with_pool(Arc::clone(pool))
}
