//! The three workloads; each stresses different layers.

pub mod build;
pub mod scenario_cold;
pub mod serve_hot;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["build", "serve-hot", "scenario-cold"];
