//! B5 — query-engine cost: the frozen-structure query path
//! (`ftbfs-oracle`) against the legacy per-query path the old
//! `StructureOracle` used (rebuild a `HashSet`-backed `GraphView` of
//! `H ∖ F`, run a fresh allocating BFS).  The acceptance bar for the
//! query-serving subsystem is ≥ 5× on the dual-fault row for
//! `connected_gnp(120, 0.08)`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ftbfs_core::dual_failure_ftbfs;
use ftbfs_graph::{bfs, generators, EdgeId, FaultSpec, GraphView, TieBreak, VertexId};
use ftbfs_oracle::{Freeze, Query, QueryEngine};
use std::time::Duration;

fn bench_query_paths(c: &mut Criterion) {
    let g = generators::connected_gnp(120, 0.08, 42);
    let w = TieBreak::new(&g, 42);
    let h = dual_failure_ftbfs(&g, &w, VertexId(0));
    let frozen = h.freeze(&g);
    let structure_edges: Vec<EdgeId> = h.edges().collect();
    // The legacy oracle precomputed the removed-edge list once …
    let removed: Vec<EdgeId> = g.edges().filter(|e| !h.contains(*e)).collect();
    let target = VertexId((g.vertex_count() - 1) as u32);
    let dual = FaultSpec::from((
        structure_edges[1],
        structure_edges[structure_edges.len() / 2],
    ));
    // A rotation of fault pairs wider than the engine's LRU, to measure the
    // cache-miss (fresh BFS) cost.
    let rotation: Vec<FaultSpec> = (0..24)
        .map(|i| {
            FaultSpec::from((
                structure_edges[i * 3 % structure_edges.len()],
                structure_edges[(i * 7 + 1) % structure_edges.len()],
            ))
        })
        .collect();

    let mut group = c.benchmark_group("query_engine");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(4));

    // … but still rebuilt the restricted view and a fresh BFS per query.
    group.bench_function(
        BenchmarkId::from_parameter("legacy_oracle_dual_fault"),
        |b| {
            b.iter(|| {
                let view = GraphView::new(&g)
                    .without_edges(removed.iter().copied())
                    .without_faults(black_box(&dual));
                bfs(&view, VertexId(0)).distance(black_box(target))
            })
        },
    );

    let mut engine = QueryEngine::new();
    group.bench_function(
        BenchmarkId::from_parameter("frozen_dual_fault_cached"),
        |b| {
            b.iter(|| {
                engine
                    .try_distance(&frozen, black_box(target), black_box(&dual))
                    .unwrap()
                    .into_value()
            })
        },
    );

    let mut engine_uncached = QueryEngine::new().with_cache_capacity(0);
    group.bench_function(
        BenchmarkId::from_parameter("frozen_dual_fault_uncached"),
        |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % rotation.len();
                engine_uncached
                    .try_distance(&frozen, black_box(target), &rotation[i])
                    .unwrap()
                    .into_value()
            })
        },
    );

    let mut engine_ff = QueryEngine::new();
    group.bench_function(BenchmarkId::from_parameter("frozen_fault_free"), |b| {
        b.iter(|| {
            engine_ff
                .try_distance(&frozen, black_box(target), &FaultSpec::None)
                .unwrap()
                .into_value()
        })
    });

    // A mixed batch (fault-free / single / repeated dual pairs) of 512
    // queries through one engine, the batch harness's per-share loop.
    let batch: Vec<Query> = (0..512)
        .map(|i| {
            let t = VertexId((i * 17 % g.vertex_count()) as u32);
            match i % 4 {
                0 => Query::fault_free(t),
                1 => Query::new(t, structure_edges[i % structure_edges.len()]),
                _ => Query::new(t, rotation[i % 8].clone()),
            }
        })
        .collect();
    let mut engine_batch = QueryEngine::new();
    let mut out = vec![None; batch.len()];
    group.bench_function(BenchmarkId::from_parameter("frozen_batch_512"), |b| {
        b.iter(|| {
            for (q, slot) in black_box(&batch).iter().zip(out.iter_mut()) {
                *slot = engine_batch
                    .try_distance(&frozen, q.target, &q.faults)
                    .unwrap()
                    .into_value();
            }
            out.iter().flatten().map(|&d| d as u64).sum::<u64>()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_query_paths);
criterion_main!(benches);
