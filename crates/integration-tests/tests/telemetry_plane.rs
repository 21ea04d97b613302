//! Workspace-level tests of the telemetry plane: histogram quantile
//! guarantees under random workloads (proptest), the export contract — a
//! live instrumented harness run whose scrape round-trips losslessly
//! through the JSON exporter and renders to coherent Prometheus text — and
//! the exactness of the published engine counters.

use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_core::{approx_ftbfs, ApproxParams};
use ftbfs_graph::{generators, EdgeId, FaultSpec, Graph, TieBreak, VertexId};
use ftbfs_oracle::{Freeze, FrozenStructure, Query, QueryEngine, QueryStats, SnapshotVersion};
use ftbfs_serve::{
    EpochSnapshot, ServeConfig, ServeRequest, ServeTarget, StreamServer, ThroughputHarness,
};
use ftbfs_telemetry::hist::{bucket_upper_bound, Histogram};
use ftbfs_telemetry::{names, MetricsRegistry, TelemetrySnapshot};
use proptest::prelude::*;

/// The nearest-rank `q`-quantile of `values` (sorted ascending).
fn true_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    /// The log-linear histogram's quantile bounds always bracket the true
    /// nearest-rank quantile of what was recorded, and the bracket is the
    /// one bucket wide the format promises (≤ 25% relative width above
    /// the linear range).
    #[test]
    fn histogram_quantile_bounds_bracket_the_true_quantile(
        values in prop::collection::vec(0u64..1_000_000_000_000, 1..200),
        qs in prop::collection::vec(0.0f64..=1.0, 1..6),
    ) {
        let h = Histogram::new(1);
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let data = h.merged();
        prop_assert_eq!(data.count, values.len() as u64);
        for &q in &qs {
            let truth = true_quantile(&sorted, q);
            let (lower, upper) = data.quantile_bounds(q).expect("non-empty");
            prop_assert!(
                lower <= truth && truth <= upper,
                "q={} truth={} not in [{}, {}]", q, truth, lower, upper
            );
            // The bracket is one bucket: its upper bound is the bucket
            // boundary right above its lower bound.
            prop_assert!(upper >= lower);
            prop_assert!(
                upper.saturating_sub(lower) <= lower / 4 + 1,
                "bucket [{}, {}] wider than the 25% log-linear promise", lower, upper
            );
        }
    }

    /// Recorded values land in the bucket whose bounds contain them: the
    /// min/max the histogram reports are exact, and every bucket bound is
    /// monotone in the recorded value.
    #[test]
    fn histogram_min_max_are_exact_and_bounds_monotone(
        values in prop::collection::vec(0u64..u64::MAX / 2, 1..100),
    ) {
        let h = Histogram::new(1);
        for &v in &values {
            h.record(v);
        }
        let data = h.merged();
        prop_assert_eq!(data.min, values.iter().copied().min());
        prop_assert_eq!(data.max, values.iter().copied().max());
        for &v in &values {
            let idx = ftbfs_telemetry::hist::bucket_index(v);
            prop_assert!(ftbfs_telemetry::hist::bucket_lower_bound(idx) <= v);
            prop_assert!(v <= bucket_upper_bound(idx));
        }
    }
}

#[test]
fn live_harness_scrape_round_trips_json_and_renders_prometheus() {
    // A real instrumented run: the harness registers the engine counters
    // and its batch histogram in the registry, then the scrape must
    // survive JSON round-trip exactly and render to Prometheus text whose
    // series agree with the JSON's.
    let g = generators::connected_gnp(60, 0.12, 11);
    let w = TieBreak::new(&g, 11);
    let h = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build().structure;
    let frozen = h.freeze(&g);
    let edges: Vec<_> = h.edges().collect();
    let queries: Vec<Query> = (0..600)
        .map(|i| {
            let spec = match i % 3 {
                0 => FaultSpec::None,
                1 => FaultSpec::One(edges[i % edges.len()]),
                _ => FaultSpec::from((edges[i % edges.len()], edges[(i * 7) % edges.len()])),
            };
            Query::new(VertexId((i % g.vertex_count()) as u32), spec)
        })
        .collect();

    let registry = MetricsRegistry::new();
    let harness = ThroughputHarness::new(2);
    let report = harness.run_instrumented(&frozen, &queries, &registry);
    assert_eq!(report.distances.len(), queries.len());

    let snapshot = registry.scrape();
    let routed: u64 = snapshot
        .counters
        .iter()
        .filter(|c| {
            c.name == names::ENGINE_TREE_HITS
                || c.name == names::ENGINE_CACHE_HITS
                || c.name == names::ENGINE_SEARCHES
        })
        .map(|c| c.value)
        .sum();
    assert_eq!(routed as usize, queries.len());

    // JSON round-trip is lossless (satisfying the exporter contract):
    // parse(to_json) == snapshot, and re-serialising is a fixed point.
    let json = snapshot.to_json();
    let parsed = TelemetrySnapshot::from_json(&json).expect("own JSON parses");
    assert_eq!(parsed, snapshot);
    assert_eq!(parsed.to_json(), json);

    // The Prometheus rendering of the round-tripped snapshot is
    // byte-identical to the original's, and carries the expected series.
    let prom = snapshot.to_prometheus();
    assert_eq!(parsed.to_prometheus(), prom);
    for name in [
        names::ENGINE_TREE_HITS,
        names::ENGINE_CACHE_HITS,
        names::ENGINE_SEARCHES,
        names::HARNESS_BATCH_NS,
    ] {
        assert!(prom.contains(&format!("# TYPE {name}")), "missing {name}");
    }
    // Histogram exposition: cumulative buckets end at +Inf with the count.
    let batch = snapshot
        .histograms
        .iter()
        .find(|h| h.name == names::HARNESS_BATCH_NS)
        .expect("harness batch histogram scraped");
    assert_eq!(batch.count, 1, "one driven batch");
    assert!(prom.contains(&format!(
        "{}_bucket{{le=\"+Inf\"}} {}",
        names::HARNESS_BATCH_NS,
        batch.count
    )));
    assert!(prom.contains(&format!(
        "{}_count {}",
        names::HARNESS_BATCH_NS,
        batch.count
    )));
}

/// A request mix over `g` touching every engine count: fault-free,
/// one- and two-fault requests (tree hits, cache hits, searches), three
/// faults (best-effort), all-distances requests, and explicit sources.
fn counted_requests(g: &Graph, count: usize) -> Vec<ServeRequest> {
    let edges: Vec<EdgeId> = g.edges().collect();
    let e = |i: usize| edges[i % edges.len()];
    (0..count)
        .map(|i| {
            let t = VertexId((i * 7 % g.vertex_count()) as u32);
            match i % 6 {
                0 => ServeRequest::distance(t, FaultSpec::None),
                1 => ServeRequest::distance(t, e(i / 6)),
                2 => ServeRequest::distance(t, (e(i / 6), e(i / 6 + 3))),
                3 => ServeRequest::distance(t, [e(i), e(i + 1), e(i + 2)]),
                4 => ServeRequest::all_distances(e(i / 6)),
                _ => ServeRequest::distance_from(VertexId(0), t, (e(i / 3), e(i / 3 + 5))),
            }
        })
        .collect()
}

/// The summed [`QueryStats`] of fresh engines, one per shard, answering
/// `requests` routed the way the server and the harness route them
/// (explicit sources pin `source % shards`, the rest go round-robin).
fn stats_of_shard_engines(
    frozen: &FrozenStructure,
    requests: &[ServeRequest],
    shards: usize,
) -> QueryStats {
    let mut engines: Vec<QueryEngine> = (0..shards).map(|_| QueryEngine::new()).collect();
    for (seq, r) in requests.iter().enumerate() {
        let shard = r.source.map_or(seq, |s| s.index()) % shards;
        let source = r.source.unwrap_or(frozen.primary_source());
        let engine = &mut engines[shard];
        match r.target {
            ServeTarget::One(t) => drop(engine.try_distance_from(frozen, source, t, &r.faults)),
            _ => drop(engine.try_all_distances_from(frozen, source, &r.faults)),
        }
    }
    engines.iter().fold(QueryStats::default(), |sum, e| {
        let s = e.stats();
        QueryStats {
            tree_hits: sum.tree_hits + s.tree_hits,
            cache_hits: sum.cache_hits + s.cache_hits,
            searches: sum.searches + s.searches,
            best_effort: sum.best_effort + s.best_effort,
            approx: sum.approx + s.approx,
        }
    })
}

/// Each published `ftbfs_engine_*_total` counter equals its `want` field,
/// and `epoch_bumps` equals `searches`.
fn assert_engine_counters(scrape: &TelemetrySnapshot, want: QueryStats, what: &str) {
    let get = |name: &str| -> u64 {
        scrape
            .counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    };
    for (name, value) in [
        (names::ENGINE_TREE_HITS, want.tree_hits),
        (names::ENGINE_CACHE_HITS, want.cache_hits),
        (names::ENGINE_SEARCHES, want.searches),
        (names::ENGINE_EPOCH_BUMPS, want.searches),
        (names::ENGINE_BEST_EFFORT, want.best_effort),
        (names::ENGINE_APPROX, want.approx),
    ] {
        assert_eq!(get(name), value, "{what}: {name}");
    }
}

#[test]
fn published_engine_counters_equal_the_serving_engines_query_stats() {
    let g = generators::connected_gnp(48, 0.12, 21);
    let w = TieBreak::new(&g, 21);
    let exact = DualFtBfsBuilder::new(&g, &w, VertexId(0))
        .build()
        .structure
        .freeze(&g);
    let approx = FrozenStructure::freeze_approx(
        &g,
        &approx_ftbfs(&g, &w, VertexId(0), ApproxParams::DEFAULT),
    );
    let requests = counted_requests(&g, 600);
    for (backend, frozen) in [("exact", &exact), ("approx", &approx)] {
        let want = stats_of_shard_engines(frozen, &requests, 3);
        assert!(want.tree_hits > 0 && want.searches > 0 && want.cache_hits > 0);
        assert!(want.best_effort > 0, "three-fault requests are best-effort");
        assert_eq!(want.approx > 0, backend == "approx");

        // A drained stream: every worker published before replying.
        let snapshot = EpochSnapshot::from_bytes(frozen.save_with(SnapshotVersion::V2)).unwrap();
        let server = StreamServer::launch(snapshot, ServeConfig::new().workers(3));
        let mut stream = server.open_stream();
        for r in &requests {
            stream.submit(r.clone()).unwrap();
        }
        let responses = stream.drain().unwrap();
        assert!(responses.iter().all(|r| r.outcome.is_ok()));
        assert_engine_counters(&server.telemetry().scrape(), want, backend);
        drop(stream);
        server.shutdown();

        // The instrumented harness publishes once per worker per batch.
        let queries: Vec<Query> = requests
            .iter()
            .filter_map(|r| match r.target {
                ServeTarget::One(t) => Some(Query {
                    source: r.source,
                    target: t,
                    faults: r.faults.clone(),
                }),
                _ => None,
            })
            .collect();
        let singles: Vec<ServeRequest> = requests
            .iter()
            .filter(|r| matches!(r.target, ServeTarget::One(_)))
            .cloned()
            .collect();
        for threads in [1, 3] {
            let registry = MetricsRegistry::new();
            ThroughputHarness::new(threads).run_instrumented(frozen, &queries, &registry);
            let want = stats_of_shard_engines(frozen, &singles, threads);
            assert_engine_counters(&registry.scrape(), want, backend);
        }
    }
}
