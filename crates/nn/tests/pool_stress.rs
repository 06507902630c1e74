//! Schedule-perturbation stress test of [`WorkerPool::run_indexed`].
//!
//! Every task starts and ends with a seeded perturbation — a
//! `yield_now`, a short spin or nothing — so which thread claims which
//! index, when helpers arrive and when they leave the fan-out all shift
//! from run to run. Runs mix in nested fan-outs on the same pool and
//! tasks that panic. Whatever the schedule, every result must equal the
//! serial computation bit for bit, every index must run exactly once,
//! and a panic must come back to the caller with its own payload while
//! the pool keeps serving.
//!
//! The pool's scoped fan-out hands a pointer into the caller's frame to
//! its helpers; this test hammers the protocol that keeps that pointer
//! live (helper counting, purge, quiescence wait) at pool sizes 1, 2 and
//! 8, where a helper can arrive before, during or after the caller has
//! drained the cursor.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Once;

use vortex_linalg::rng::SplitMix64;
use vortex_nn::pool::WorkerPool;

/// Fan-outs per pool size.
const RUNS: u64 = 3000;

/// The payload of a deliberate task panic: the index that raised it.
struct InjectedPanic(usize);

fn mix(a: u64, b: u64) -> u64 {
    SplitMix64::new(a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Yields, spins for up to 255 iterations, or does nothing, by `seed`.
fn perturb(seed: u64) {
    match seed % 4 {
        0 => std::thread::yield_now(),
        1 => {
            for _ in 0..(seed >> 8) % 256 {
                std::hint::spin_loop();
            }
        }
        _ => {}
    }
}

/// Keeps the deliberate panics out of the test output; every other panic
/// reaches the default hook.
fn silence_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<InjectedPanic>() {
                default(info);
            }
        }));
    });
}

/// One run's shape, drawn from its seed.
struct Plan {
    seed: u64,
    tasks: usize,
    concurrency: usize,
    nested: bool,
    panicking: Option<usize>,
}

impl Plan {
    fn draw(pool_seed: u64, run: u64) -> Self {
        let seed = mix(pool_seed, run);
        let tasks = 1 + (seed % 48) as usize;
        Self {
            seed,
            tasks,
            concurrency: 1 + ((seed >> 8) % 10) as usize,
            nested: (seed >> 16) % 4 == 0,
            panicking: ((seed >> 24) % 6 == 0).then_some(((seed >> 32) as usize) % tasks),
        }
    }

    /// Task `k`'s value. With a pool, nested tasks fan out on it and
    /// every task is perturbed; without one, the same value is computed
    /// serially and unperturbed.
    fn value(&self, pool: Option<&WorkerPool>, k: usize) -> u64 {
        let s = mix(self.seed, k as u64);
        let perturbed = pool.is_some();
        if perturbed {
            perturb(s);
        }
        let mut v = mix(s, 1);
        if self.nested && k % 3 == 0 {
            let inner_tasks = 1 + k % 5;
            let inner = |j: usize| {
                if perturbed {
                    perturb(mix(s, j as u64 + 2));
                    if self.panicking == Some(k) && j == 0 {
                        std::panic::panic_any(InjectedPanic(k));
                    }
                }
                mix(v, j as u64)
            };
            let values: Vec<u64> = match pool {
                Some(pool) => pool.run_indexed(inner_tasks, 1 + (s >> 40) as usize % 4, inner),
                None => (0..inner_tasks).map(inner).collect(),
            };
            v ^= values.iter().fold(0_u64, |acc, &x| acc.rotate_left(7) ^ x);
        }
        if perturbed {
            if self.panicking == Some(k) {
                std::panic::panic_any(InjectedPanic(k));
            }
            perturb(s >> 4);
        }
        v
    }
}

fn stress(threads: usize) {
    silence_injected_panics();
    let pool = WorkerPool::new(threads);
    assert_eq!(pool.size(), threads);
    let pool_seed = 0x5EED ^ threads as u64;
    for run in 0..RUNS {
        let plan = Plan::draw(pool_seed, run);
        let calls: Vec<AtomicU32> = (0..plan.tasks).map(|_| AtomicU32::new(0)).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(plan.tasks, plan.concurrency, |k| {
                calls[k].fetch_add(1, Ordering::Relaxed);
                plan.value(Some(&pool), k)
            })
        }));
        let what = format!(
            "pool of {threads}, run {run} (seed {:#018x}): {} tasks, concurrency {}, nested {}, panicking {:?}",
            plan.seed, plan.tasks, plan.concurrency, plan.nested, plan.panicking
        );
        for (k, c) in calls.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "{what}: task {k} calls");
        }
        match (outcome, plan.panicking) {
            (Ok(got), None) => {
                let want: Vec<u64> = (0..plan.tasks).map(|k| plan.value(None, k)).collect();
                assert_eq!(got, want, "{what}");
            }
            (Err(payload), Some(k)) => match payload.downcast_ref::<InjectedPanic>() {
                Some(InjectedPanic(raised)) => assert_eq!(*raised, k, "{what}: payload"),
                None => panic!("{what}: foreign panic payload"),
            },
            (Ok(_), Some(_)) => panic!("{what}: the injected panic was lost"),
            (Err(_), None) => panic!("{what}: unexpected panic"),
        }
    }
}

#[test]
fn perturbed_runs_on_one_thread_match_serial() {
    stress(1);
}

#[test]
fn perturbed_runs_on_two_threads_match_serial() {
    stress(2);
}

#[test]
fn perturbed_runs_on_eight_threads_match_serial() {
    stress(8);
}
