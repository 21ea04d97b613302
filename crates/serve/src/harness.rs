//! [`ThroughputHarness`] — batched query driving as a thin adapter over
//! the stream API: one batch = one bounded stream.
//!
//! A run returns a [`BatchReport`].  The multi-threaded path goes through
//! the same routing rule and the same per-request serving core
//! ([`crate::server`]'s `answer`) as the continuous-stream front-end, so
//! batch measurements exercise exactly the code that serves live streams.
//!
//! Two execution paths:
//!
//! * `threads == 1` — a plain engine loop on the calling thread, no
//!   channels.  This is the raw per-core serving rate (the path behind
//!   the `exp_query_throughput` smoke floor).
//! * `threads > 1` — a bounded stream: scoped workers, each owning a
//!   private [`QueryEngine`], fed through the front-end's shard-routing
//!   rule (explicit source pins the shard; source-less queries
//!   round-robin).  Results are written to the slot of their sequence
//!   number, so the output order is deterministic and independent of the
//!   thread count — the property the equivalence suite relies on.
//!
//! # Panics
//!
//! Like its predecessor, the harness is a trusted batch driver: a query
//! the oracle rejects (out-of-range vertex, unserved source) panics the
//! run.  Route untrusted queries through the stream API proper
//! ([`crate::StreamHandle`]), where rejections arrive as typed in-stream
//! [`crate::ServeError`]s.

use crate::request::{ServeRequest, ServeTarget};
use crate::server::answer;
use crate::telemetry::EngineCounters;
use ftbfs_oracle::{FrozenView, Query, QueryEngine};
use ftbfs_telemetry::{names, MetricsRegistry};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub use ftbfs_oracle::BatchReport;

/// Configuration for one batched, sharded query run over the stream
/// serving core.
#[derive(Clone, Debug)]
pub struct ThroughputHarness {
    threads: usize,
    record_latencies: bool,
    cache_capacity: Option<usize>,
}

impl ThroughputHarness {
    /// A harness running on `threads` worker threads (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        ThroughputHarness {
            threads: threads.max(1),
            record_latencies: false,
            cache_capacity: None,
        }
    }

    /// Enables or disables per-query latency recording.
    ///
    /// Latencies are the serving-side `work_ns` of each request (queue
    /// time excluded), matching what the stream API reports per response.
    pub fn with_latencies(mut self, record: bool) -> Self {
        self.record_latencies = record;
        self
    }

    /// Overrides the per-partition fault-LRU capacity of each worker's
    /// engine (the knob behind the `--lru-sweep` cache-policy
    /// experiment).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// The configured worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn engine(&self) -> QueryEngine {
        let engine = QueryEngine::new();
        match self.cache_capacity {
            Some(c) => engine.with_cache_capacity(c),
            None => engine,
        }
    }

    /// Answers `queries` against `oracle` as one bounded stream sharded
    /// across the configured threads; see the module docs for the two
    /// execution paths, determinism, and panic behaviour.
    ///
    /// This path publishes no metrics; it is the baseline the
    /// instrumented path is gated against.
    pub fn run(&self, oracle: &FrozenView<'_>, queries: &[Query]) -> BatchReport {
        self.run_with(oracle, queries, None)
    }

    /// Like [`ThroughputHarness::run`], but with telemetry: each worker
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

    /// The shared driver behind the two public entry points; `counters`
    /// receives each worker engine's stats at the end of its share.
    fn run_with(
        &self,
        oracle: &FrozenView<'_>,
        queries: &[Query],
        counters: Option<&EngineCounters>,
    ) -> BatchReport {
        let mut distances = vec![None; queries.len()];
        let mut latencies_ns = if self.record_latencies {
            vec![0u64; queries.len()]
        } else {
            Vec::new()
        };
        if queries.is_empty() {
            return BatchReport {
                distances,
                wall: Duration::ZERO,
                latencies_ns,
                threads: self.threads,
            };
        }
        let threads = self.threads.min(queries.len());
        let start = Instant::now();
        if threads == 1 {
            self.run_serial(oracle, queries, counters, &mut distances, &mut latencies_ns);
        } else {
            self.run_stream(
                oracle,
                queries,
                threads,
                counters,
                &mut distances,
                &mut latencies_ns,
            );
        }
        let wall = start.elapsed();
        BatchReport {
            distances,
            wall,
            latencies_ns,
            threads,
        }
    }

    /// The single-thread path: a plain engine loop, no channels — the raw
    /// per-core serving rate.
    fn run_serial(
        &self,
        oracle: &FrozenView<'_>,
        queries: &[Query],
        counters: Option<&EngineCounters>,
        distances: &mut [Option<u32>],
        latencies_ns: &mut [u64],
    ) {
        let mut engine = self.engine();
        if self.record_latencies {
            for ((q, slot), lat) in queries
                .iter()
                .zip(distances.iter_mut())
                .zip(latencies_ns.iter_mut())
            {
                let source = q.source.unwrap_or_else(|| oracle.primary_source());
                let t0 = Instant::now();
                *slot = engine
                    .try_distance_from(oracle, source, q.target, &q.faults)
                    .unwrap_or_else(|e| panic!("harness query failed: {e}"))
                    .into_value();
                *lat = t0.elapsed().as_nanos() as u64;
            }
        } else {
            engine.batch_distances_into(oracle, queries, distances);
        }
        if let Some(counters) = counters {
            counters.publish(&mut engine);
        }
    }

    /// The multi-thread path: one bounded stream through the front-end's
    /// routing rule and serving core.
    fn run_stream(
        &self,
        oracle: &FrozenView<'_>,
        queries: &[Query],
        threads: usize,
        counters: Option<&EngineCounters>,
        distances: &mut [Option<u32>],
        latencies_ns: &mut [u64],
    ) {
        let fingerprint = oracle.fingerprint();
        let record = self.record_latencies;
        std::thread::scope(|scope| {
            let (reply_tx, reply_rx) = mpsc::channel();
            let mut shards = Vec::with_capacity(threads);
            for _ in 0..threads {
                let (tx, rx) = mpsc::channel::<(u64, ServeRequest)>();
                let reply = reply_tx.clone();
                let mut engine = self.engine();
                scope.spawn(move || {
                    while let Ok((seq, request)) = rx.recv() {
                        let response = answer(&mut engine, oracle, fingerprint, seq, &request);
                        if reply.send(response).is_err() {
                            return;
                        }
                    }
                    if let Some(counters) = counters {
                        counters.publish(&mut engine);
                    }
                });
                shards.push(tx);
            }
            drop(reply_tx);
            // Submit the whole batch through the front-end's routing rule,
            // then close the stream: workers drain and exit.
            for (seq, q) in queries.iter().enumerate() {
                let request = ServeRequest {
                    source: q.source,
                    target: ServeTarget::One(q.target),
                    faults: q.faults.clone(),
                    deadline: None,
                };
                let shard = match q.source {
                    Some(s) => s.index() % threads,
                    None => seq % threads,
                };
                shards[shard]
                    .send((seq as u64, request))
                    .expect("harness worker exited early");
            }
            drop(shards);
            for response in reply_rx {
                let slot = response.seq as usize;
                match response.outcome {
                    Ok(answer) => match answer.into_value() {
                        crate::request::ServeOutput::Distance(d) => distances[slot] = d,
                        other => panic!("harness expected a distance, got {other:?}"),
                    },
                    Err(e) => panic!("harness query failed: {e}"),
                }
                if record {
                    latencies_ns[slot] = response.work_ns;
                }
            }
        });
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
    fn empty_and_tiny_batches() {
        let (_g, frozen, queries) = workload(3);
        let empty = ThroughputHarness::new(4).run(&frozen, &[]);
        assert!(empty.distances.is_empty());
        let tiny = ThroughputHarness::new(16).run(&frozen, &queries);
        assert_eq!(tiny.distances.len(), 3);
        assert!(tiny.threads <= 3);
    }
}
