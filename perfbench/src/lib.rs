//! The Vortex benchmark: four workloads over the shipped serving and
//! compile paths, end-to-end metrics from an untraced run and a per-crate
//! layer ledger from a traced one.
//!
//! Every number is taken from outside the library: the benchmark times
//! calls into each crate's public functions and reads the counters the
//! crates already publish through [`vortex_obs::snapshot`]. See
//! `README.md` next to this crate for the workload and metric
//! definitions.

pub mod alloc;
pub mod check;
pub mod host;
pub mod metrics;
pub mod openloop;
pub mod setup;
pub mod speed;
pub mod trace;
pub mod workloads;

pub use metrics::{Outcome, END_TO_END, PER_LAYER};
pub use setup::Scale;
pub use workloads::{run, Workload};
