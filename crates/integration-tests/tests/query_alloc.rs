//! Allocation accounting for the query engine: after warm-up,
//! dual-fault distance queries on the acceptance workload
//! (`connected_gnp(120, 0.08)`) must allocate **nothing** — the whole point
//! of the epoch-stamped workspace and the buffer-reusing partitioned fault
//! LRU.
//!
//! Measured with a counting wrapper around the system allocator, which
//! needs `unsafe` for the `GlobalAlloc` impl — the one place in the
//! workspace where the `unsafe_code` lint is locally allowed.  The count is
//! per thread, so tests running in parallel never see each other's
//! allocations.

#![allow(unsafe_code)]

use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_core::multi_failure_ftmbfs_parts;
use ftbfs_graph::{generators, EdgeId, FaultSpec, TieBreak, VertexId};
use ftbfs_oracle::{Freeze, FrozenStructure, FrozenView, Query, QueryEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation routed through the global
/// allocator on the calling thread (deallocations are free and not
/// counted).
struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps this thread's count; `try_with` tolerates the thread-local being
/// gone during thread teardown instead of panicking inside the allocator.
fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Answers `queries` in order into `out`: the per-share engine loop of the
/// batch harness.
fn answer_into(
    engine: &mut QueryEngine,
    oracle: &FrozenView<'_>,
    queries: &[Query],
    out: &mut [Option<u32>],
) {
    for (q, slot) in queries.iter().zip(out.iter_mut()) {
        let source = q.source.unwrap_or_else(|| oracle.primary_source());
        *slot = engine
            .try_distance_from(oracle, source, q.target, &q.faults)
            .unwrap()
            .into_value();
    }
}

#[test]
fn dual_fault_queries_allocate_nothing_after_warmup() {
    // The acceptance workload: the PR-2 construction instance.
    let g = generators::connected_gnp(120, 0.08, 42);
    let w = TieBreak::new(&g, 42);
    let h = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build().structure;
    let frozen = h.freeze(&g);
    let structure_edges: Vec<EdgeId> = h.edges().collect();

    // Pre-build every spec and query object: constructing a spec of three
    // or more edges allocates, executing queries must not.  24 distinct
    // pairs exceed the default per-partition capacity of 16, so the
    // eviction path is exercised too.
    let fault_pairs: Vec<FaultSpec> = (0..24)
        .map(|i| {
            FaultSpec::from((
                structure_edges[i * 5 % structure_edges.len()],
                structure_edges[(i * 9 + 2) % structure_edges.len()],
            ))
        })
        .collect();
    let queries: Vec<Query> = (0..512)
        .map(|i| {
            Query::new(
                VertexId((i * 7 % g.vertex_count()) as u32),
                fault_pairs[i % fault_pairs.len()].clone(),
            )
        })
        .collect();
    let mut out = vec![None; queries.len()];

    let mut engine = QueryEngine::new();
    // Warm-up: sizes the workspace, populates the LRU, then goes around
    // again so every buffer has reached steady state.
    for _ in 0..2 {
        answer_into(&mut engine, &frozen, &queries, &mut out);
    }

    let before = allocation_count();
    answer_into(&mut engine, &frozen, &queries, &mut out);
    for (q, spec) in queries.iter().zip(fault_pairs.iter().cycle()) {
        let answer = engine.try_distance(&frozen, q.target, spec).unwrap();
        assert!(answer.is_exact());
    }
    let after = allocation_count();

    assert_eq!(
        after - before,
        0,
        "warmed-up dual-fault queries must not allocate"
    );
    // Sanity: the warmed-up answers are still real answers.
    assert!(out.iter().filter(|d| d.is_some()).count() > out.len() / 2);
}

#[test]
fn mmap_style_view_queries_allocate_nothing_after_warmup() {
    // The borrowed serving path: open a view over snapshot bytes (zero
    // rebuild, zero copy of the big arrays) and serve the same dual-fault
    // workload.  After warm-up the engine must allocate exactly as little
    // over borrowed bytes as over a structure that owns them: nothing.
    let g = generators::connected_gnp(120, 0.08, 42);
    let w = TieBreak::new(&g, 42);
    let h = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build().structure;
    let bytes = h.freeze(&g).save();
    let structure_edges: Vec<EdgeId> = h.edges().collect();
    let view = FrozenView::open(&bytes).expect("v2 snapshot opens");

    let fault_pairs: Vec<FaultSpec> = (0..24)
        .map(|i| {
            FaultSpec::from((
                structure_edges[i * 5 % structure_edges.len()],
                structure_edges[(i * 9 + 2) % structure_edges.len()],
            ))
        })
        .collect();
    let queries: Vec<Query> = (0..512)
        .map(|i| {
            Query::new(
                VertexId((i * 7 % g.vertex_count()) as u32),
                fault_pairs[i % fault_pairs.len()].clone(),
            )
        })
        .collect();
    let mut out = vec![None; queries.len()];
    let mut engine = QueryEngine::new();
    for _ in 0..2 {
        answer_into(&mut engine, &view, &queries, &mut out);
    }

    let before = allocation_count();
    answer_into(&mut engine, &view, &queries, &mut out);
    for (q, spec) in queries.iter().zip(fault_pairs.iter().cycle()) {
        let answer = engine.try_distance(&view, q.target, spec).unwrap();
        assert!(answer.is_exact());
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "warmed-up queries over a mapped snapshot view must not allocate"
    );
    assert!(out.iter().filter(|d| d.is_some()).count() > out.len() / 2);
}

#[test]
fn instrumented_hot_path_allocates_nothing_after_warmup() {
    // The telemetry-plane guarantee: the per-request serving work of a
    // `StreamServer` worker — the engine query, publishing the engine's
    // stats into the registry's engine counters, and a stage histogram
    // sample — allocates nothing after warm-up.  Relaxed atomic adds into
    // pre-registered cells only.
    use ftbfs_oracle::QueryStats;
    use ftbfs_telemetry::{names, MetricsRegistry};

    let g = generators::connected_gnp(120, 0.08, 42);
    let w = TieBreak::new(&g, 42);
    let h = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build().structure;
    let frozen = h.freeze(&g);
    let structure_edges: Vec<EdgeId> = h.edges().collect();

    let registry = MetricsRegistry::new();
    let counters = [
        names::ENGINE_TREE_HITS,
        names::ENGINE_CACHE_HITS,
        names::ENGINE_SEARCHES,
        names::ENGINE_EPOCH_BUMPS,
        names::ENGINE_BEST_EFFORT,
        names::ENGINE_APPROX,
    ]
    .map(|name| registry.counter(name, "engine count"));
    // What a worker does after each answer: move the engine's stats into
    // the counters and restart its count.
    let publish = |engine: &mut QueryEngine| {
        let QueryStats {
            tree_hits,
            cache_hits,
            searches,
            best_effort,
            approx,
        } = engine.stats();
        engine.reset_stats();
        let deltas = [
            tree_hits,
            cache_hits,
            searches,
            searches,
            best_effort,
            approx,
        ];
        for (counter, n) in counters.iter().zip(deltas) {
            if n > 0 {
                counter.add(n);
            }
        }
    };
    let stage_hist = registry.histogram("test_stage_ns", "stage latency", 2);

    let fault_pairs: Vec<FaultSpec> = (0..24)
        .map(|i| {
            FaultSpec::from((
                structure_edges[i * 5 % structure_edges.len()],
                structure_edges[(i * 9 + 2) % structure_edges.len()],
            ))
        })
        .collect();
    let queries: Vec<Query> = (0..512)
        .map(|i| {
            Query::new(
                VertexId((i * 7 % g.vertex_count()) as u32),
                fault_pairs[i % fault_pairs.len()].clone(),
            )
        })
        .collect();
    let mut out = vec![None; queries.len()];

    let mut engine = QueryEngine::new();
    for _ in 0..2 {
        answer_into(&mut engine, &frozen, &queries, &mut out);
        publish(&mut engine);
    }

    let before = allocation_count();
    answer_into(&mut engine, &frozen, &queries, &mut out);
    publish(&mut engine);
    for (i, (q, spec)) in queries.iter().zip(fault_pairs.iter().cycle()).enumerate() {
        let answer = engine.try_distance(&frozen, q.target, spec).unwrap();
        assert!(answer.is_exact());
        publish(&mut engine);
        stage_hist.for_shard(i % 2).record(1_000 + i as u64);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "warmed-up queries + stats publishes + histogram records must not allocate"
    );

    // The publishes really landed: every query the engine ever ran (two
    // warm-up batches, the measured batch, the point-query loop) is in
    // exactly one of the three routing counters.
    let scrape = registry.scrape();
    let routed: u64 = scrape
        .counters
        .iter()
        .filter(|c| {
            c.name == names::ENGINE_TREE_HITS
                || c.name == names::ENGINE_CACHE_HITS
                || c.name == names::ENGINE_SEARCHES
        })
        .map(|c| c.value)
        .sum();
    assert_eq!(routed as usize, 4 * queries.len());
}

#[test]
fn fault_free_queries_allocate_nothing_at_all_after_freeze() {
    let g = generators::connected_gnp(120, 0.08, 43);
    let w = TieBreak::new(&g, 43);
    let h = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build().structure;
    let frozen = h.freeze(&g);
    let mut engine = QueryEngine::new();
    // One query to bind the engine (sizing its arrays allocates once).
    let _ = engine.try_distance(&frozen, VertexId(1), &FaultSpec::None);

    let before = allocation_count();
    for v in g.vertices() {
        let _ = engine.try_distance(&frozen, v, &FaultSpec::None);
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "tree fast path must not allocate");
    assert_eq!(engine.stats().searches, 0);
}

#[test]
fn path_disjoint_tree_hits_allocate_nothing_after_warmup() {
    // Dual faults on two tree edges: every target whose tree path misses
    // both is answered from the tree, which must allocate nothing once the
    // binding query has built the engine's tree index.
    let g = generators::connected_gnp(120, 0.08, 44);
    let w = TieBreak::new(&g, 44);
    let h = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build().structure;
    let frozen = h.freeze(&g);
    let tree = frozen.tree_for(VertexId(0)).unwrap();
    let tree_edge = |c: u32| {
        let c = VertexId(c);
        g.edge_between(tree.parent(c).unwrap(), c).unwrap()
    };
    let spec = FaultSpec::from((tree_edge(7), tree_edge(60)));
    let disjoint: Vec<VertexId> = g
        .vertices()
        .filter(|&t| {
            tree.path_to(t)
                .is_some_and(|p| !spec.intersects_path(&g, &p))
        })
        .collect();
    assert!(disjoint.len() > g.vertex_count() / 2);

    // One warm-up query binds the engine and sizes its fault buffer.
    let mut engine = QueryEngine::new();
    let _ = engine.try_distance(&frozen, disjoint[0], &spec);
    let stats = engine.stats();
    let before = allocation_count();
    for &t in &disjoint {
        let answer = engine.try_distance(&frozen, t, &spec).unwrap();
        assert!(answer.is_exact());
        assert_eq!(answer.into_value(), tree.distance(t));
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "path-disjoint tree hits must not allocate"
    );
    assert_eq!(engine.stats().searches, stats.searches);
    assert_eq!(
        engine.stats().tree_hits - stats.tree_hits,
        disjoint.len() as u64
    );
}

#[test]
fn multi_source_matrix_allocates_nothing_into_a_preallocated_slice() {
    let g = generators::tree_plus_chords(40, 14, 17);
    let w = TieBreak::new(&g, 17);
    let sources = [VertexId(0), VertexId(20), VertexId(39)];
    let parts = multi_failure_ftmbfs_parts(&g, &w, &sources, 2);
    let multi = FrozenStructure::freeze_parts(&g, &parts);
    let bytes = multi.save();
    let view = FrozenView::open(&bytes).expect("per-source snapshot opens");
    let edges: Vec<EdgeId> = g.edges().collect();
    let specs = [
        FaultSpec::None,
        FaultSpec::from(edges[1]),
        FaultSpec::from((edges[2], edges[edges.len() / 2])),
    ];
    assert_matrix_allocates_nothing(&multi, &sources, g.vertex_count(), &specs);
    assert_matrix_allocates_nothing(&view, &sources, g.vertex_count(), &specs);
}

/// Warms an engine on every `(source, spec)` of `oracle` through the
/// `S × V` matrix, then serves every matrix cell again as a point query
/// into a preallocated row-major slice, allocating nothing, and checks the
/// slice against the matrix.
fn assert_matrix_allocates_nothing(
    oracle: &FrozenView<'_>,
    sources: &[VertexId],
    n: usize,
    specs: &[FaultSpec],
) {
    let mut flat = vec![None; sources.len() * n];
    let mut engine = QueryEngine::new();
    // Warm-up resolves every (source, spec) restriction once.
    let matrices: Vec<_> = specs
        .iter()
        .map(|spec| engine.try_distance_matrix(oracle, spec).unwrap())
        .collect();

    let before = allocation_count();
    for (spec, matrix) in specs.iter().zip(&matrices) {
        assert!(matrix.is_exact());
        for (row, &s) in sources.iter().enumerate() {
            for t in 0..n {
                let answer = engine
                    .try_distance_from(oracle, s, VertexId(t as u32), spec)
                    .unwrap();
                assert!(answer.is_exact());
                flat[row * n + t] = answer.into_value();
            }
        }
        assert_eq!(flat.as_slice(), matrix.value().as_flat());
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "warmed-up S × V matrix serving must not allocate"
    );
    assert!(flat.iter().filter(|d| d.is_some()).count() > flat.len() / 2);
}
