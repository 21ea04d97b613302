//! [`ThroughputHarness`] — batched query driving: per-core engine scaling
//! over a trusted list of [`Query`]s.
//!
//! A run splits the batch into one share per thread by the stream
//! front-end's routing rule ([`crate::server`]'s `shard_of`): a query
//! with an explicit source pins share `source % threads` (so one
//! source's fault-LRU partition stays on one engine), a source-less
//! query round-robins by its index.  The calling thread runs share 0 and
//! scoped threads run the rest; each share is a plain [`QueryEngine`]
//! loop, with no queue, channel or reply path between the engine and the
//! batch.  Results land in query order, so a [`BatchReport`] is the same
//! at every thread count — the property the equivalence suite relies on.
//!
//! The harness measures the engines, not the serve plane: what a request
//! costs through queues, handoffs and reassembly is the
//! [`crate::StreamServer`]'s number (E11, perfbench).
//!
//! # Panics
//!
//! The harness runs trusted batches: a query the oracle rejects
//! (out-of-range vertex, unserved source) panics the run with
//! `harness query failed: …`, whichever share it falls in.  Route
//! untrusted queries through the stream API ([`crate::StreamHandle`]),
//! where rejections arrive as typed in-stream [`crate::ServeError`]s.

use crate::server::shard_of;
use crate::telemetry::EngineCounters;
use ftbfs_oracle::{FrozenView, Query, QueryEngine};
use ftbfs_telemetry::{names, MetricsRegistry};
use std::time::{Duration, Instant};

/// The outcome of one batched query run.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Distances in query order (independent of the thread count).
    pub distances: Vec<Option<u32>>,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Per-query engine time in nanoseconds, in query order; empty unless
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

/// Configuration for one batched query run, sharded across per-thread
/// engines.
#[derive(Clone, Debug)]
pub struct ThroughputHarness {
    threads: usize,
    record_latencies: bool,
    cache_capacity: Option<usize>,
}

/// One share's answers, in the order of its query indices: distances and,
/// when recorded, per-query engine nanoseconds.
type ShareAnswers = (Vec<Option<u32>>, Vec<u64>);

impl ThroughputHarness {
    /// A harness running on `threads` threads (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        ThroughputHarness {
            threads: threads.max(1),
            record_latencies: false,
            cache_capacity: None,
        }
    }

    /// Enables or disables per-query latency recording: the time of each
    /// query's engine call, two clock reads around it.
    pub fn with_latencies(mut self, record: bool) -> Self {
        self.record_latencies = record;
        self
    }

    /// Overrides the per-partition fault-LRU capacity of each share's
    /// engine (the knob behind E10's `lru_sweep` cache-policy
    /// experiment).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Answers `queries` against `oracle`, sharded across the configured
    /// threads; see the module docs for routing, determinism and panics.
    ///
    /// This path publishes no metrics; it is the baseline the
    /// instrumented path is gated against.
    pub fn run(&self, oracle: &FrozenView<'_>, queries: &[Query]) -> BatchReport {
        self.run_with(oracle, queries, None)
    }

    /// Like [`ThroughputHarness::run`], but with telemetry: each share's
    /// engine publishes its [`ftbfs_oracle::QueryStats`] into
    /// `registry`'s engine counters (`ftbfs_engine_*_total`) once, when
    /// its share of the batch is done, and the batch wall time lands in
    /// the [`names::HARNESS_BATCH_NS`] histogram.  Scrape `registry`
    /// afterwards for the numbers.
    ///
    /// The per-query work is the same as [`ThroughputHarness::run`]'s; the
    /// bench suite's overhead gate holds the difference under 3% of
    /// serial throughput.
    pub fn run_instrumented(
        &self,
        oracle: &FrozenView<'_>,
        queries: &[Query],
        registry: &MetricsRegistry,
    ) -> BatchReport {
        let batch_ns = registry.histogram(names::HARNESS_BATCH_NS, names::HARNESS_BATCH_NS_HELP, 1);
        let counters = EngineCounters::register(registry);
        let report = self.run_with(oracle, queries, Some(&counters));
        batch_ns.record(report.wall.as_nanos() as u64);
        report
    }

    /// The body of both entry points: route, run the shares, and
    /// scatter their answers into query order.
    fn run_with(
        &self,
        oracle: &FrozenView<'_>,
        queries: &[Query],
        counters: Option<&EngineCounters>,
    ) -> BatchReport {
        let threads = self.threads.min(queries.len()).max(1);
        let start = Instant::now();
        let mut shares = vec![Vec::with_capacity(queries.len() / threads + 1); threads];
        for (i, q) in queries.iter().enumerate() {
            shares[shard_of(q.source, i, threads)].push(i);
        }
        let run = |share: &[usize]| self.run_share(oracle, queries, share, counters);
        let answers: Vec<ShareAnswers> = std::thread::scope(|scope| {
            let workers: Vec<_> = shares[1..]
                .iter()
                .map(|share| scope.spawn(|| run(share)))
                .collect();
            let mut answers = vec![run(&shares[0])];
            // A worker's panic is re-raised as is, so a failed query reads
            // the same at every thread count.
            answers.extend(workers.into_iter().map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }));
            answers
        });
        let mut distances = vec![None; queries.len()];
        let mut latencies_ns = Vec::new();
        if self.record_latencies {
            latencies_ns.resize(queries.len(), 0);
        }
        for (share, (dists, lats)) in shares.iter().zip(answers) {
            for (&i, d) in share.iter().zip(dists) {
                distances[i] = d;
            }
            for (&i, l) in share.iter().zip(lats) {
                latencies_ns[i] = l;
            }
        }
        BatchReport {
            distances,
            wall: start.elapsed(),
            latencies_ns,
            threads,
        }
    }

    /// One share: a fresh engine answers the queries at `share`, in order,
    /// then publishes its stats into `counters`.
    fn run_share(
        &self,
        oracle: &FrozenView<'_>,
        queries: &[Query],
        share: &[usize],
        counters: Option<&EngineCounters>,
    ) -> ShareAnswers {
        let mut engine = QueryEngine::new();
        if let Some(capacity) = self.cache_capacity {
            engine = engine.with_cache_capacity(capacity);
        }
        let mut distances = Vec::with_capacity(share.len());
        let mut latencies_ns = Vec::new();
        for &i in share {
            let q = &queries[i];
            let source = q.source.unwrap_or_else(|| oracle.primary_source());
            let t0 = self.record_latencies.then(Instant::now);
            let answer = engine
                .try_distance_from(oracle, source, q.target, &q.faults)
                .unwrap_or_else(|e| panic!("harness query failed: {e}"));
            if let Some(t0) = t0 {
                latencies_ns.push(t0.elapsed().as_nanos() as u64);
            }
            distances.push(answer.into_value());
        }
        if let Some(counters) = counters {
            counters.publish(&mut engine);
        }
        (distances, latencies_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_core::{dual_failure_ftbfs, multi_failure_ftmbfs_parts};
    use ftbfs_graph::{generators, EdgeId, FaultSpec, TieBreak, VertexId};
    use ftbfs_oracle::FrozenStructure;

    fn workload(n_queries: usize) -> (ftbfs_graph::Graph, FrozenStructure, Vec<Query>) {
        let g = generators::connected_gnp(35, 0.14, 13);
        let w = TieBreak::new(&g, 13);
        let h = dual_failure_ftbfs(&g, &w, VertexId(0));
        let frozen = FrozenStructure::freeze(&g, &h);
        let edges: Vec<EdgeId> = h.edges().collect();
        let queries = (0..n_queries)
            .map(|i| {
                let target = VertexId((i % g.vertex_count()) as u32);
                match i % 4 {
                    0 => Query::fault_free(target),
                    1 => Query::new(target, edges[i % edges.len()]),
                    _ => Query::new(
                        target,
                        (edges[i % edges.len()], edges[(i * 3) % edges.len()]),
                    ),
                }
            })
            .collect();
        (g, frozen, queries)
    }

    #[test]
    fn stream_sharded_results_match_the_serial_path() {
        let (_g, frozen, queries) = workload(200);
        let serial = ThroughputHarness::new(1).run(&frozen, &queries);
        for threads in [2, 3, 4, 7] {
            let parallel = ThroughputHarness::new(threads).run(&frozen, &queries);
            assert_eq!(
                serial.distances, parallel.distances,
                "threads={threads} changed results"
            );
        }
        let mut engine = QueryEngine::new();
        for (q, d) in queries.iter().zip(&serial.distances) {
            assert_eq!(
                engine
                    .try_distance(&frozen, q.target, &q.faults)
                    .unwrap()
                    .into_value(),
                *d
            );
        }
    }

    #[test]
    fn multi_source_batches_route_by_source_deterministically() {
        let g = generators::tree_plus_chords(16, 6, 3);
        let w = TieBreak::new(&g, 3);
        let sources = [VertexId(0), VertexId(9)];
        let parts = multi_failure_ftmbfs_parts(&g, &w, &sources, 2);
        let multi = FrozenStructure::freeze_parts(&g, &parts);
        let edges: Vec<EdgeId> = g.edges().collect();
        let queries: Vec<Query> = (0..180)
            .map(|i| {
                let s = sources[i % sources.len()];
                let t = VertexId((i * 5 % g.vertex_count()) as u32);
                match i % 3 {
                    0 => Query::from_source(s, t, FaultSpec::None),
                    1 => Query::from_source(s, t, edges[i % edges.len()]),
                    _ => Query::from_source(
                        s,
                        t,
                        (edges[i % edges.len()], edges[(i * 7 + 1) % edges.len()]),
                    ),
                }
            })
            .collect();
        let serial = ThroughputHarness::new(1).run(&multi, &queries);
        let parallel = ThroughputHarness::new(4).run(&multi, &queries);
        assert_eq!(serial.distances, parallel.distances);
    }

    #[test]
    fn latencies_and_cache_capacity_knobs_survive_the_migration() {
        let (_g, frozen, queries) = workload(60);
        let report = ThroughputHarness::new(3)
            .with_latencies(true)
            .run(&frozen, &queries);
        assert_eq!(report.latencies_ns.len(), queries.len());
        assert!(report.latencies_ns.iter().all(|&l| l > 0));
        assert!(report.latency_percentile_ns(50.0) <= report.latency_percentile_ns(99.0));
        assert!(report.queries_per_sec() > 0.0);

        let uncached = ThroughputHarness::new(2)
            .with_cache_capacity(0)
            .run(&frozen, &queries);
        let cached = ThroughputHarness::new(2).run(&frozen, &queries);
        assert_eq!(uncached.distances, cached.distances);
    }

    #[test]
    fn instrumented_run_matches_baseline_and_records_telemetry() {
        let (_g, frozen, queries) = workload(120);
        let baseline = ThroughputHarness::new(1).run(&frozen, &queries);
        let registry = MetricsRegistry::new();
        for threads in [1, 3] {
            let instrumented =
                ThroughputHarness::new(threads).run_instrumented(&frozen, &queries, &registry);
            assert_eq!(
                baseline.distances, instrumented.distances,
                "instrumentation must not change results (threads={threads})"
            );
        }
        let scrape = registry.scrape();
        let engine_edges: u64 = scrape
            .counters
            .iter()
            .filter(|c| c.name.starts_with("ftbfs_engine_"))
            .map(|c| c.value)
            .sum();
        assert!(engine_edges > 0, "engine recorders never fired");
        let batch = scrape
            .histograms
            .iter()
            .find(|h| h.name == names::HARNESS_BATCH_NS)
            .expect("batch histogram registered");
        assert_eq!(batch.count, 2, "one sample per instrumented run");
    }

    #[test]
    #[should_panic(expected = "harness query failed")]
    fn a_rejected_query_panics_a_serial_run() {
        let (g, frozen, mut queries) = workload(40);
        queries[17] = Query::fault_free(VertexId(g.vertex_count() as u32));
        ThroughputHarness::new(1).run(&frozen, &queries);
    }

    #[test]
    #[should_panic(expected = "harness query failed")]
    fn a_rejected_query_on_a_worker_share_panics_with_the_same_message() {
        let (g, frozen, mut queries) = workload(40);
        // Source-less queries round-robin: index 17 lands on share 17 % 3
        // = 2, a scoped worker, not the calling thread.
        assert_eq!(shard_of(None, 17, 3), 2);
        queries[17] = Query::fault_free(VertexId(g.vertex_count() as u32));
        ThroughputHarness::new(3).run(&frozen, &queries);
    }

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

    #[test]
    fn empty_and_tiny_batches() {
        let (_g, frozen, queries) = workload(3);
        let empty = ThroughputHarness::new(4).run(&frozen, &[]);
        assert!(empty.distances.is_empty());
        let tiny = ThroughputHarness::new(16).run(&frozen, &queries);
        assert_eq!(tiny.distances.len(), 3);
        assert!(tiny.threads <= 3);
    }
}
