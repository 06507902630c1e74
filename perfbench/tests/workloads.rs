//! Tiny-scale runs of every workload, the label check against a wrong
//! reference, and the metric tables against `BENCHMARK.json`.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use vortex_core::amp::greedy::RowMapping;
use vortex_linalg::Matrix;
use vortex_nn::executor::Parallelism;
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::pool::WorkerPool;
use vortex_perfbench::alloc::CountingAlloc;
use vortex_perfbench::check::{LabelOracle, Mismatches};
use vortex_perfbench::openloop::{run_rung, Rung, Target};
use vortex_perfbench::setup::{self, Scale};
use vortex_perfbench::trace::Tracer;
use vortex_perfbench::workloads::Run;
use vortex_perfbench::{Workload, END_TO_END, PER_LAYER};
use vortex_serve::{Scheduler, SchedulerConfig};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The workloads read process-wide counters and switch the process-wide
/// allocator count, so runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny_run(workload: Workload, traced: bool) -> vortex_perfbench::Outcome {
    let run = Run {
        workload,
        seed: 7,
        seconds: 0.4,
        traced,
        scale: Scale::tiny(),
    };
    vortex_perfbench::run(&run).0
}

#[test]
fn every_workload_reports_every_metric_with_its_unit() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        for traced in [false, true] {
            let mut outcome = tiny_run(workload, traced);
            let (metrics, json) = outcome.result(traced);
            assert!(
                outcome.correct(),
                "{} traced={traced}: {:?}",
                workload.name(),
                outcome.problems
            );
            let table = if traced { PER_LAYER } else { END_TO_END };
            let names: Vec<(&str, &str)> = metrics.iter().map(|&(n, _, u)| (n, u)).collect();
            assert_eq!(names, table.to_vec(), "{}", workload.name());
            for &(name, value, unit) in &metrics {
                assert!(value.is_finite(), "{} {name} = {value}", workload.name());
                assert!(
                    json.contains(&format!("\"{name}\":{{\"value\":"))
                        && json.contains(&format!("\"unit\":\"{unit}\"")),
                    "{name} missing from {json}"
                );
                if !traced {
                    assert!(value > 0.0, "{} {name} must never be 0", workload.name());
                }
            }
            assert!(json.starts_with("{\"correct\":true,\"attempted\":"));
        }
    }
}

#[test]
fn the_traced_run_counts_allocations() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let outcome = tiny_run(Workload::SingleClient, true);
    assert!(outcome.get("alloc.count_per_request").unwrap() > 0.0);
    assert!(outcome.get("serve.submit_us").unwrap() > 0.0);
}

#[test]
fn the_label_check_trips_on_a_wrong_reference_model() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let scale = Scale::tiny();
    let (served, _) = setup::serving(&scale, 1);
    let model = Arc::clone(&served.models[0].1);
    // The wrong reference scores class j with the served model's class
    // j + 1 weights, so it names a different label for almost every input.
    let weights = GdtTrainer {
        epochs: scale.serve_epochs,
        ..GdtTrainer::default()
    }
    .train(&served.train)
    .unwrap();
    let rotated = Matrix::from_fn(weights.rows(), weights.cols(), |i, j| {
        weights[(i, (j + 1) % weights.cols())]
    });
    let wrong = setup::environment()
        .compiler()
        .with_calibration(&served.train.mean_input())
        .request(&rotated, &RowMapping::identity(rotated.rows()))
        .seed(1)
        .compile()
        .unwrap();
    let pool = Arc::new(WorkerPool::new(1));
    let scheduler = Scheduler::on_pool(
        pool,
        model.clone(),
        None,
        SchedulerConfig::new(Parallelism::Fixed(1)),
        None,
    )
    .unwrap();
    let rung = Rung {
        rate: 2_000.0,
        tenants: vec![vortex_bench::traffic::Tenant {
            name: "all",
            weight: 1.0,
            deadline: None,
        }],
        warmup: Duration::ZERO,
        traffic_seed: 3,
        input_seed: 4,
        id_base: 0,
        expected: 256,
    };
    let limit = Duration::from_millis(100);
    let served_labels = |oracle: &LabelOracle| {
        let mut checks = Mismatches::default();
        let stats = run_rung(
            Target::Scheduler(&scheduler),
            &rung,
            &|t| t < limit,
            &served.test,
            oracle,
            &mut checks,
            &mut Tracer::off(),
        );
        assert!(stats.completed > 10);
        checks
    };
    let right = served_labels(&LabelOracle::new([&*model], &served.test));
    assert_eq!(right.count, 0, "{:?}", right.examples);
    let caught = served_labels(&LabelOracle::new([&wrong], &served.test));
    assert!(caught.count > 0);
    assert!(caught.problem("served labels").is_some());
}

/// The `(name, unit)` pairs of one metric section of `BENCHMARK.json`.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let end = body.find(']').expect("section closes");
    let field = |entry: &str, field: &str| {
        let at = entry.find(&format!("\"{field}\"")).expect("field present");
        let rest = &entry[at + field.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closes");
        rest[open..open + close].to_string()
    };
    body[..end]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn benchmark_json_lists_known_workloads_and_exactly_these_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(section(&json, "end_to_end"), own(END_TO_END));
    assert_eq!(section(&json, "per_layer"), own(PER_LAYER));
    let workloads = json
        .split("\"workloads\"")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("a workloads list");
    let listed: Vec<&str> = workloads
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|entry| entry.split('"').next())
        .collect();
    assert!(listed.len() >= 2);
    for name in listed {
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}
