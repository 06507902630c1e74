//! The benchmark command.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the result stamp and the metrics by name with their units, and
//! as its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end untraced, per-layer traced). Exits 1 when an
//! output check failed, 2 on a usage error. `--workload all` runs every
//! workload untraced and traced in turn.

use std::process::ExitCode;

use vortex_perfbench::alloc::CountingAlloc;
use vortex_perfbench::workloads::Run;
use vortex_perfbench::{host, Scale, Workload};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traces: Vec<bool>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?]
    };
    let traces = match trace {
        Some(t) => vec![t],
        None if workload == "all" => vec![false, true],
        None => return Err("--trace is required".into()),
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traces,
    })
}

fn main() -> ExitCode {
    // Anything that reaches the process-wide pool gets one thread per
    // core; unset, the pool clamps itself to at least eight.
    if std::env::var_os(vortex_nn::pool::POOL_THREADS_ENV_VAR).is_none() {
        std::env::set_var(
            vortex_nn::pool::POOL_THREADS_ENV_VAR,
            host::nproc().to_string(),
        );
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    let mut last = String::new();
    for &workload in &args.workloads {
        for &traced in &args.traces {
            let run = Run {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                traced,
                scale: Scale::full(),
            };
            let stamp = host::stamp(workload.name(), args.seed, traced);
            let (mut outcome, tracer) = vortex_perfbench::run(&run);
            if traced {
                let path = host::work_dir().join("traces").join(format!(
                    "{}-seed{}.trace",
                    workload.name(),
                    args.seed
                ));
                match tracer.write(&path, &stamp) {
                    Ok(()) => outcome
                        .notes
                        .push(format!("spans written to {}", path.display())),
                    Err(e) => outcome.problem(format!("cannot write {}: {e}", path.display())),
                }
            }
            for note in &outcome.notes {
                eprintln!("perfbench: {} {note}", workload.name());
            }
            let (metrics, json) = outcome.result(traced);
            for problem in &outcome.problems {
                eprintln!("perfbench: {} CHECK FAILED: {problem}", workload.name());
            }
            println!("stamp {stamp}");
            for (name, value, unit) in metrics {
                println!("{:<20} {name:<28} {value:>16.6} {unit}", workload.name());
            }
            all_correct &= outcome.correct();
            if args.workloads.len() > 1 || args.traces.len() > 1 {
                println!("result {json}");
            }
            last = json;
        }
    }
    if args.workloads.len() > 1 || args.traces.len() > 1 {
        println!("{{\"correct\":{all_correct}}}");
    } else {
        println!("{last}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
