//! Host facts every result is stamped with, and the thread layout the
//! workloads share.

use vortex_obs::json::json_string;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Threads of the explicit serving pool: one core is left to the
/// thread that generates load.
pub fn serving_pool_size() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The directory runs may write working files and traces into: the
/// cargo target directory the benchmark was built in, which is inside
/// the checkout and ignored by git.
pub fn work_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| "perfbench/target".into(), std::path::PathBuf::from)
        .join("perfbench-work")
}

/// The stamp of one result: host, pool, seed and build.
pub fn stamp(workload: &str, seed: u64, trace: bool) -> String {
    format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"nproc\":{},\"serving_pool\":{},\
         \"global_pool\":{},\"commit\":{},\"rustc\":{}}}",
        json_string(workload),
        seed,
        trace,
        nproc(),
        serving_pool_size(),
        vortex_nn::pool::WorkerPool::global().size(),
        json_string(env!("PERFBENCH_COMMIT")),
        json_string(env!("PERFBENCH_RUSTC")),
    )
}
