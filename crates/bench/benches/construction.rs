//! B1 — construction-time benchmarks: BFS tree, single-failure FT-BFS,
//! dual-failure FT-BFS (paper selection and canonical selection), and the
//! set-cover approximation, on random connected graphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_core::{approx_minimum_ftmbfs, multi_failure_ftbfs, single_failure_ftbfs};
use ftbfs_graph::{generators, SpTree, TieBreak, VertexId};
use std::time::Duration;

fn workload(n: usize) -> ftbfs_graph::Graph {
    generators::connected_gnp(n, 5.0 / (n as f64 - 1.0), 42 + n as u64)
}

fn bench_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfs_tree");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for n in [60usize, 120, 240] {
        let g = workload(n);
        let w = TieBreak::new(&g, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| SpTree::new(&g, &w, VertexId(0)).tree_edges().len())
        });
    }
    group.finish();
}

fn bench_single(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_failure_ftbfs");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    for n in [60usize, 120, 240] {
        let g = workload(n);
        let w = TieBreak::new(&g, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| single_failure_ftbfs(&g, &w, VertexId(0)).edge_count())
        });
    }
    group.finish();
}

fn bench_dual(c: &mut Criterion) {
    let mut group = c.benchmark_group("dual_failure_ftbfs");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    for n in [40usize, 80, 140] {
        let g = workload(n);
        let w = TieBreak::new(&g, 1);
        group.bench_with_input(BenchmarkId::new("paper", n), &n, |b, _| {
            b.iter(|| {
                DualFtBfsBuilder::new(&g, &w, VertexId(0))
                    .build()
                    .structure
                    .edge_count()
            })
        });
        group.bench_with_input(BenchmarkId::new("paper-4threads", n), &n, |b, _| {
            b.iter(|| {
                DualFtBfsBuilder::new(&g, &w, VertexId(0))
                    .threads(4)
                    .build()
                    .structure
                    .edge_count()
            })
        });
        group.bench_with_input(BenchmarkId::new("canonical", n), &n, |b, _| {
            b.iter(|| multi_failure_ftbfs(&g, &w, VertexId(0), 2).edge_count())
        });
    }
    group.finish();
}

fn bench_approx(c: &mut Criterion) {
    let mut group = c.benchmark_group("approx_minimum_ftmbfs");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    for n in [16usize, 24] {
        let g = generators::tree_plus_chords(n, n / 3, 7);
        group.bench_with_input(BenchmarkId::new("f=1", n), &n, |b, _| {
            b.iter(|| approx_minimum_ftmbfs(&g, &[VertexId(0)], 1).edge_count())
        });
        group.bench_with_input(BenchmarkId::new("f=2", n), &n, |b, _| {
            b.iter(|| approx_minimum_ftmbfs(&g, &[VertexId(0)], 2).edge_count())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tree, bench_single, bench_dual, bench_approx);
criterion_main!(benches);
