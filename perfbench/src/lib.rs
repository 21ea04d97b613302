//! The repository's benchmark: three workloads driven through the public
//! API of every layer, every answer checked, every metric printed with
//! its unit.  See `src/main.rs` for the command line.

pub mod common;
pub mod layers;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What one run was asked to do.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed phase lasts.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
}
