//! [`BatchReport`] — the shared result type of batched query driving.
//!
//! The batch *driver* lives in the serving front-end
//! (`ftbfs_serve::ThroughputHarness`, a thin adapter over its stream API);
//! this module keeps only the report it produces, so experiments and
//! tests can consume throughput numbers without depending on the serving
//! crate.

use std::time::Duration;

/// The outcome of one batched query run (produced by
/// `ftbfs_serve::ThroughputHarness::run`).
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Distances in query order (independent of the thread count).
    pub distances: Vec<Option<u32>>,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Per-query latency in nanoseconds, in query order; empty unless
    /// latency recording was enabled.
    pub latencies_ns: Vec<u64>,
    /// Number of worker threads actually used.
    pub threads: usize,
}

impl BatchReport {
    /// Aggregate throughput of the batch in queries per second.
    pub fn queries_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.distances.len() as f64 / secs
    }

    /// The `p`-th latency percentile in nanoseconds (`0.0 ≤ p ≤ 100.0`),
    /// or `None` if latencies were not recorded.
    pub fn latency_percentile_ns(&self, p: f64) -> Option<u64> {
        if self.latencies_ns.is_empty() {
            return None;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank.min(sorted.len() - 1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_percentiles() {
        let report = BatchReport {
            distances: vec![Some(1); 1000],
            wall: Duration::from_millis(10),
            latencies_ns: (1..=1000u64).rev().collect(),
            threads: 4,
        };
        assert!((report.queries_per_sec() - 100_000.0).abs() < 1.0);
        assert_eq!(report.latency_percentile_ns(0.0), Some(1));
        assert_eq!(report.latency_percentile_ns(100.0), Some(1000));
        assert!(
            report.latency_percentile_ns(50.0) <= report.latency_percentile_ns(99.0),
            "percentiles must be monotone"
        );
    }

    #[test]
    fn empty_report_degenerates_gracefully() {
        let report = BatchReport {
            distances: Vec::new(),
            wall: Duration::ZERO,
            latencies_ns: Vec::new(),
            threads: 1,
        };
        assert_eq!(report.queries_per_sec(), 0.0);
        assert_eq!(report.latency_percentile_ns(50.0), None);
    }
}
