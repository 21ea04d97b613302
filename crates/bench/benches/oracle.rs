//! B3 — query cost of the structure oracle: post-failure distance and route
//! queries answered inside a dual-failure FT-BFS structure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftbfs_core::dual_failure_ftbfs;
use ftbfs_graph::{generators, FaultSpec, TieBreak, VertexId};
use ftbfs_verify::StructureOracle;
use std::time::Duration;

fn bench_oracle_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_distance_query");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(4));
    for n in [80usize, 160, 320] {
        let g = generators::connected_gnp(n, 6.0 / (n as f64 - 1.0), 21);
        let w = TieBreak::new(&g, 21);
        let h = dual_failure_ftbfs(&g, &w, VertexId(0));
        let oracle = StructureOracle::new(&g, VertexId(0), h.edges());
        let faults = FaultSpec::from((
            ftbfs_graph::EdgeId(0),
            ftbfs_graph::EdgeId((g.edge_count() / 2) as u32),
        ));
        let target = VertexId((n - 1) as u32);
        group.bench_with_input(BenchmarkId::new("distance", n), &n, |b, _| {
            b.iter(|| oracle.distance(target, &faults))
        });
        group.bench_with_input(BenchmarkId::new("route", n), &n, |b, _| {
            b.iter(|| oracle.route(target, &faults).map(|p| p.len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_oracle_queries);
criterion_main!(benches);
