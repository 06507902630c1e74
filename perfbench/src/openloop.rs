//! The open-loop load generator: seeded Poisson arrivals sent on
//! schedule from one generator thread, whether or not the system keeps up.
//!
//! Each request is timed from the moment it was *due*, so a stall of the
//! generator (or of the admission call) counts against every request it
//! delays. The generator never blocks on a reply: between sends it polls
//! each replica's oldest outstanding tickets (a replica answers in
//! admission order, so a reply is seen as soon as it arrives, whatever
//! the other replicas' backlogs). Ensemble reads only offer a
//! blocking wait, so their tickets go to one collector thread that does
//! nothing else.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use vortex_bench::traffic::{ArrivalProcess, Tenant, Workload};
use vortex_fleet::{EnsembleTicket, EnsembleVerdict, Fleet, FleetError};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_nn::dataset::Dataset;
use vortex_serve::{Scheduler, ServeError, Ticket};

use crate::check::{LabelOracle, Mismatches};
use crate::trace::Tracer;

/// Outstanding tickets polled per replica per generator-loop iteration,
/// oldest first.
const POLL_WINDOW: usize = 64;
/// How long a rung may take to answer its last requests.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// Where the generator sends.
#[derive(Debug, Clone, Copy)]
pub enum Target<'a> {
    /// One scheduler; every reply must match reference model 0.
    Scheduler(&'a Scheduler),
    /// A fleet; every `ensemble_every`-th request is an ensemble read of
    /// `legs` replicas, the rest are routed single reads.
    Fleet {
        /// The fleet.
        fleet: &'a Fleet,
        /// One request in this many is an ensemble read.
        ensemble_every: u64,
        /// Replicas per ensemble read.
        legs: usize,
    },
}

/// One rung: a rate, a tenant mix and the seeds behind them.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered requests per second.
    pub rate: f64,
    /// Tenants; a tenant with a deadline sends requests that carry it.
    pub tenants: Vec<Tenant>,
    /// Requests due before this offset are sent but not measured.
    pub warmup: Duration,
    /// Seed of the arrival times and tenant choice.
    pub traffic_seed: u64,
    /// Seed of the held-out sample each request carries.
    pub input_seed: u64,
    /// Added to every request index, so request ids stay unique across
    /// rungs in the trace.
    pub id_base: u64,
    /// Requests the rung is expected to send. Sample buffers are sized
    /// for them up front: growing by doubling would put the copies into
    /// the peak resident set.
    pub expected: usize,
}

/// What one rung measured.
#[derive(Debug, Clone, Default)]
pub struct RungStats {
    /// Offered rate.
    pub rate: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered with a label.
    pub completed: u64,
    /// Rejections for a full queue.
    pub rejected_full: u64,
    /// Rejections for a passed deadline.
    pub rejected_timeout: u64,
    /// Other errors, including requests left unanswered.
    pub errors: u64,
    /// Latency from due time to answer of measured, answered requests, µs.
    pub latencies_us: Vec<f64>,
    /// How late each measured request was sent, µs.
    pub lateness_us: Vec<f64>,
    /// Time inside each single-read admission call, µs.
    pub submit_us: Vec<f64>,
    /// Time inside each ensemble admission call, µs.
    pub ensemble_submit_us: Vec<f64>,
    /// Single reads routed to each replica.
    pub per_replica: Vec<u64>,
    /// Requests in flight when sending stopped.
    pub in_flight_at_end: u64,
    /// Measured requests answered with a label.
    pub measured_completed: u64,
    /// Length of the measured part of the send window, seconds.
    pub measured_s: f64,
}

impl RungStats {
    /// Requests that did not get a label.
    pub fn failed(&self) -> u64 {
        self.rejected_full + self.rejected_timeout + self.errors
    }

    /// Failed share of attempts.
    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Whether the rung meets a limit on median latency with at most
    /// `max_failed_share` failures and no growing backlog: when sending
    /// stopped, no more requests were in flight than twice the offered
    /// rate times the limit, plus `slack`.
    pub fn sustained(&self, p50_limit_us: f64, max_failed_share: f64, slack: u64) -> bool {
        let backlog_limit = 2.0 * self.rate * p50_limit_us * 1e-6 + slack as f64;
        !self.latencies_us.is_empty()
            && windowed_percentile(&self.latencies_us, 0.5) <= p50_limit_us
            && self.failed_share() <= max_failed_share
            && (self.in_flight_at_end as f64) <= backlog_limit
    }
}

/// Linear-interpolated quantile of `samples` (NaN when empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    vortex_linalg::stats::quantile(samples, q)
}

/// Sub-windows a latency quantile is taken over.
pub const WINDOWS: usize = 5;

/// The median over [`WINDOWS`] consecutive sub-windows of `samples` (in
/// completion order) of each sub-window's `q` quantile. One host stall
/// then moves one sub-window, not the reported figure.
pub fn windowed_percentile(samples: &[f64], q: f64) -> f64 {
    let size = samples.len().div_ceil(WINDOWS).max(1);
    let per_window: Vec<f64> = samples.chunks(size).map(|w| percentile(w, q)).collect();
    vortex_linalg::stats::median(&per_window)
}

struct Pending {
    id: u64,
    input: usize,
    replica: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    measured: bool,
    ticket: Ticket,
}

struct EnsembleSent {
    id: u64,
    input: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    measured: bool,
}

type EnsembleDone = (EnsembleSent, Instant, Result<EnsembleVerdict, FleetError>);

enum Failure {
    Full,
    Timeout,
    Other,
}

fn classify(e: &ServeError) -> Failure {
    match e {
        ServeError::QueueFull { .. } => Failure::Full,
        ServeError::Timeout { .. } => Failure::Timeout,
        _ => Failure::Other,
    }
}

fn classify_fleet(e: &FleetError) -> Failure {
    match e {
        FleetError::Replica { source, .. } => classify(source),
        _ => Failure::Other,
    }
}

impl RungStats {
    /// Empty stats with room for `requests` samples of each kind.
    pub fn with_capacity(requests: usize) -> Self {
        Self {
            latencies_us: Vec::with_capacity(requests),
            lateness_us: Vec::with_capacity(requests),
            submit_us: Vec::with_capacity(requests),
            ..Self::default()
        }
    }

    /// Adds `other`'s requests and samples to this rung's.
    pub fn merge(&mut self, other: RungStats) {
        self.rate = other.rate;
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.rejected_full += other.rejected_full;
        self.rejected_timeout += other.rejected_timeout;
        self.errors += other.errors;
        self.latencies_us.extend(other.latencies_us);
        self.lateness_us.extend(other.lateness_us);
        self.submit_us.extend(other.submit_us);
        self.ensemble_submit_us.extend(other.ensemble_submit_us);
        if self.per_replica.len() < other.per_replica.len() {
            self.per_replica.resize(other.per_replica.len(), 0);
        }
        for (mine, theirs) in self.per_replica.iter_mut().zip(other.per_replica) {
            *mine += theirs;
        }
        self.in_flight_at_end = self.in_flight_at_end.max(other.in_flight_at_end);
        self.measured_completed += other.measured_completed;
        self.measured_s += other.measured_s;
    }

    fn fail(&mut self, failure: Failure) {
        match failure {
            Failure::Full => self.rejected_full += 1,
            Failure::Timeout => self.rejected_timeout += 1,
            Failure::Other => self.errors += 1,
        }
    }
}

/// Runs one rung: sends the seeded arrivals due while `keep_sending`
/// says so (it gets the arrival's offset from the rung start), then waits
/// for every reply. Served labels are compared against `oracle`; spans
/// go to `tracer`.
#[allow(clippy::too_many_arguments)]
pub fn run_rung(
    target: Target<'_>,
    rung: &Rung,
    keep_sending: &dyn Fn(Duration) -> bool,
    inputs: &Dataset,
    oracle: &LabelOracle,
    checks: &mut Mismatches,
    tracer: &mut Tracer,
) -> RungStats {
    let (replicas, submit_span) = match target {
        Target::Scheduler(_) => (1, "serve.try_submit"),
        Target::Fleet { fleet, .. } => (fleet.len(), "fleet.submit"),
    };
    let mut stats = RungStats {
        rate: rung.rate,
        per_replica: vec![0; replicas],
        ..RungStats::with_capacity(rung.expected)
    };
    let mut arrivals = Workload::new(
        ArrivalProcess::poisson(rung.rate),
        rung.tenants.clone(),
        rung.traffic_seed,
    );
    let mut pick = Xoshiro256PlusPlus::seed_from_u64(rung.input_seed);
    let ensembles_done = AtomicU64::new(0);
    let (to_collector, collector_rx) = mpsc::channel::<(EnsembleSent, EnsembleTicket)>();

    std::thread::scope(|scope| {
        let done_counter = &ensembles_done;
        let collector = scope.spawn(move || {
            let mut done: Vec<EnsembleDone> = Vec::new();
            for (sent, ticket) in collector_rx {
                let verdict = ticket.wait();
                let at = Instant::now();
                done_counter.fetch_add(1, Ordering::Relaxed);
                done.push((sent, at, verdict));
            }
            done
        });

        let mut outstanding: Vec<VecDeque<Option<Pending>>> =
            (0..replicas).map(|_| VecDeque::new()).collect();
        let mut ensembles_sent = 0u64;
        let start = Instant::now() + Duration::from_millis(1);
        let mut first_measured: Option<Instant> = None;
        let mut last_due = start;
        let mut k = 0u64;
        loop {
            let arrival = arrivals.next().expect("arrival streams are endless");
            let offset = Duration::from_secs_f64(arrival.time);
            if !keep_sending(offset) {
                break;
            }
            let due = start + offset;
            last_due = due;
            // Poll at least once per arrival, so replies are collected
            // even while the generator runs behind schedule.
            loop {
                poll(
                    &mut outstanding,
                    &mut stats,
                    submit_span,
                    oracle,
                    checks,
                    tracer,
                );
                if Instant::now() >= due {
                    break;
                }
            }
            let measured = offset >= rung.warmup;
            if measured && first_measured.is_none() {
                first_measured = Some(due);
            }
            let input = pick.next_below(inputs.len());
            let x = inputs.image(input).to_vec();
            let deadline = arrival.deadline.map(|d| start + Duration::from_secs_f64(d));
            let id = rung.id_base + k;
            k += 1;
            stats.attempted += 1;
            let ensemble =
                matches!(target, Target::Fleet { ensemble_every, .. } if k % ensemble_every == 0);
            let sent = Instant::now();
            match target {
                Target::Fleet { fleet, legs, .. } if ensemble => {
                    let outcome = fleet.ensemble_submit(x, legs);
                    let submitted = Instant::now();
                    stats
                        .ensemble_submit_us
                        .push((submitted - sent).as_secs_f64() * 1e6);
                    match outcome {
                        Ok(ticket) => {
                            ensembles_sent += 1;
                            let meta = EnsembleSent {
                                id,
                                input,
                                due,
                                sent,
                                submitted,
                                measured,
                            };
                            to_collector
                                .send((meta, ticket))
                                .expect("collector outlives the rung");
                        }
                        Err(e) => stats.fail(classify_fleet(&e)),
                    }
                }
                Target::Fleet { fleet, .. } => {
                    let outcome = fleet.submit(id, x, deadline);
                    let submitted = Instant::now();
                    stats.submit_us.push((submitted - sent).as_secs_f64() * 1e6);
                    match outcome {
                        Ok((replica, ticket)) => {
                            stats.per_replica[replica] += 1;
                            outstanding[replica].push_back(Some(Pending {
                                id,
                                input,
                                replica,
                                due,
                                sent,
                                submitted,
                                measured,
                                ticket,
                            }));
                        }
                        Err(e) => stats.fail(classify_fleet(&e)),
                    }
                }
                Target::Scheduler(scheduler) => {
                    let outcome = scheduler.try_submit(x, deadline);
                    let submitted = Instant::now();
                    stats.submit_us.push((submitted - sent).as_secs_f64() * 1e6);
                    match outcome {
                        Ok(ticket) => {
                            stats.per_replica[0] += 1;
                            outstanding[0].push_back(Some(Pending {
                                id,
                                input,
                                replica: 0,
                                due,
                                sent,
                                submitted,
                                measured,
                                ticket,
                            }));
                        }
                        Err(e) => stats.fail(classify(&e)),
                    }
                }
            }
            if measured {
                stats.lateness_us.push((sent - due).as_secs_f64() * 1e6);
            }
        }
        stats.measured_s = first_measured.map_or(0.0, |t| (last_due - t).as_secs_f64());
        stats.in_flight_at_end = outstanding.iter().flatten().flatten().count() as u64
            + ensembles_sent.saturating_sub(ensembles_done.load(Ordering::Relaxed));

        let drain_until = Instant::now() + DRAIN_LIMIT;
        while outstanding.iter().any(|q| !q.is_empty()) && Instant::now() < drain_until {
            poll(
                &mut outstanding,
                &mut stats,
                submit_span,
                oracle,
                checks,
                tracer,
            );
        }
        for _ in outstanding.iter().flatten().flatten() {
            stats.errors += 1;
        }
        drop(to_collector);
        let ensembles = collector.join().expect("collector thread never panics");
        for (sent, at, verdict) in ensembles {
            finish_ensemble(sent, at, verdict, &mut stats, oracle, checks, tracer);
        }
    });
    stats
}

/// Polls each replica's oldest outstanding tickets once, recording every
/// answer.
fn poll(
    outstanding: &mut [VecDeque<Option<Pending>>],
    stats: &mut RungStats,
    submit_span: &'static str,
    oracle: &LabelOracle,
    checks: &mut Mismatches,
    tracer: &mut Tracer,
) {
    for queue in outstanding.iter_mut() {
        poll_queue(queue, stats, submit_span, oracle, checks, tracer);
    }
}

fn poll_queue(
    queue: &mut VecDeque<Option<Pending>>,
    stats: &mut RungStats,
    submit_span: &'static str,
    oracle: &LabelOracle,
    checks: &mut Mismatches,
    tracer: &mut Tracer,
) {
    for slot in queue.iter_mut().take(POLL_WINDOW) {
        let Some(pending) = slot else { continue };
        let Some(result) = pending.ticket.wait_timeout(Duration::ZERO) else {
            continue;
        };
        let at = Instant::now();
        let p = slot.take().expect("slot was full");
        match result {
            Ok(prediction) => {
                checks.compare(
                    "served label",
                    prediction.class,
                    oracle.label(p.replica, p.input),
                );
                stats.completed += 1;
                if p.measured {
                    stats.measured_completed += 1;
                    stats.latencies_us.push((at - p.due).as_secs_f64() * 1e6);
                }
            }
            Err(e) => stats.fail(classify(&e)),
        }
        let root = tracer.record("request", p.due, at, None, p.id);
        tracer.record(submit_span, p.sent, p.submitted, root, p.id);
        tracer.record("serve.ticket_wait", p.submitted, at, root, p.id);
    }
    while matches!(queue.front(), Some(None)) {
        queue.pop_front();
    }
}

fn finish_ensemble(
    sent: EnsembleSent,
    at: Instant,
    verdict: Result<EnsembleVerdict, FleetError>,
    stats: &mut RungStats,
    oracle: &LabelOracle,
    checks: &mut Mismatches,
    tracer: &mut Tracer,
) {
    match verdict {
        Ok(verdict) => {
            for vote in &verdict.votes {
                checks.compare(
                    "ensemble leg",
                    vote.class,
                    oracle.label(vote.replica, sent.input),
                );
            }
            // A verdict always carries at least one vote.
            if let Some(expected) = oracle.vote(verdict.votes.iter().map(|v| v.replica), sent.input)
            {
                checks.compare("ensemble verdict", verdict.class, expected);
            }
            stats.completed += 1;
            if sent.measured {
                stats.measured_completed += 1;
                stats.latencies_us.push((at - sent.due).as_secs_f64() * 1e6);
            }
        }
        Err(e) => stats.fail(classify_fleet(&e)),
    }
    let root = tracer.record("request", sent.due, at, None, sent.id);
    tracer.record(
        "fleet.ensemble_submit",
        sent.sent,
        sent.submitted,
        root,
        sent.id,
    );
    tracer.record("fleet.ensemble_wait", sent.submitted, at, root, sent.id);
}
