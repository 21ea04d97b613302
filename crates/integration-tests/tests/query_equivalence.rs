//! Equivalence suite for the query-serving subsystem (`ftbfs-oracle`),
//! exercised for **both** slab layouts of `FrozenStructure` and
//! `FrozenView`: one shared slab (the single-source structure) and one
//! slab per source (the multi-source structure of
//! `FrozenStructure::freeze_parts`).  Every query path of the [`QueryEngine`] —
//! fault-free fast path, single-fault, dual-fault, cached repeats, the
//! `S × V` distance matrix, batched, and the sharded multi-threaded
//! harness — must be bit-identical to ground-truth BFS on `G ∖ F`, and
//! snapshots must round-trip to identical answers.
//!
//! Comparing against `G ∖ F` (not `H ∖ F`) is deliberately the stronger
//! check: for `|F| ≤ resilience` it verifies both the engine *and* the
//! FT-BFS property of the structure it serves.  Beyond the resilience the
//! suite checks the *guarantee contract* instead: `try_distance` flags the
//! answer [`Guarantee::BestEffort`] and the value equals ground-truth BFS
//! on `H ∖ F` (exact inside the structure, an upper bound on `G ∖ F`).
//!
//! Approximate backends (a `FrozenStructure` / `FrozenView` declaring
//! `Contract::Approx`) get a *stretch* variant of the suite instead of
//! equality: every faulted in-resilience answer must be flagged
//! [`Guarantee::Approx`], agree with `G ∖ F` on reachability, and satisfy
//! `true_d ≤ d_H ≤ ⌈α·true_d⌉ + β` — while exact backends must **never**
//! report `Approx` (property-tested).

use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_core::{approx_ftbfs, multi_failure_ftmbfs_parts, ApproxParams};
use ftbfs_graph::{bfs, generators, EdgeId, FaultSpec, Graph, GraphView, TieBreak, VertexId};
use ftbfs_oracle::{
    Contract, Freeze, FrozenStructure, FrozenView, Guarantee, Query, QueryEngine, QueryError,
};
use ftbfs_serve::{
    EpochSnapshot, ServeConfig, ServeOutput, ServeRequest, StreamServer, ThroughputHarness,
};
use proptest::prelude::*;

/// Ground truth `dist(s, ·, G ∖ F)` for all vertices.
fn ground_truth(g: &Graph, s: VertexId, spec: &FaultSpec) -> Vec<Option<u32>> {
    let view = GraphView::new(g).without_faults(spec);
    let res = bfs(&view, s);
    g.vertices().map(|v| res.distance(v)).collect()
}

/// A deterministic spread of fault specs of size 0, 1 and 2 over `g`'s
/// edges (which may or may not belong to the structure).
fn fault_specs(g: &Graph, stride: usize) -> Vec<FaultSpec> {
    let edges: Vec<EdgeId> = g.edges().collect();
    let m = edges.len();
    let mut specs = vec![FaultSpec::None];
    for i in (0..m).step_by(stride.max(1)) {
        specs.push(FaultSpec::from(edges[i]));
        specs.push(FaultSpec::from((edges[i], edges[(i * 5 + 3) % m])));
    }
    specs
}

fn frozen_for(g: &Graph, seed: u64) -> FrozenStructure {
    let w = TieBreak::new(g, seed);
    DualFtBfsBuilder::new(g, &w, VertexId(0))
        .build()
        .structure
        .freeze(g)
}

fn multi_frozen_for(g: &Graph, sources: &[VertexId], seed: u64) -> FrozenStructure {
    let w = TieBreak::new(g, seed);
    let parts = multi_failure_ftmbfs_parts(g, &w, sources, 2);
    FrozenStructure::freeze_parts(g, &parts)
}

/// The core assertion, generic over the serving backend: every engine path
/// agrees with ground truth on every vertex from every *served* source
/// under every sampled fault spec, and every answer within the resilience
/// is flagged exact.
fn assert_oracle_matches_ground_truth(g: &Graph, oracle: &FrozenView<'_>, stride: usize) {
    let mut engine = QueryEngine::new();
    let n = g.vertex_count();
    for spec in fault_specs(g, stride) {
        let per_source: Vec<Vec<Option<u32>>> = oracle
            .sources()
            .iter()
            .map(|&s| ground_truth(g, s, &spec))
            .collect();
        for (src_idx, &source) in oracle.sources().iter().enumerate() {
            let expected = &per_source[src_idx];
            // Single queries (first pass populates tree/cache, second pass
            // re-reads — the cached repeat must stay bit-identical).
            for pass in 0..2 {
                for v in g.vertices() {
                    let answer = engine
                        .try_distance_from(oracle, source, v, &spec)
                        .expect("in-range query on a served source");
                    assert!(answer.is_exact(), "|F| ≤ 2 answers must be exact");
                    assert_eq!(
                        answer.into_value(),
                        expected[v.index()],
                        "pass {pass}, source {source:?}, target {v:?}, spec {spec:?}"
                    );
                }
            }
            // The bulk read agrees slot for slot.
            assert_eq!(
                engine
                    .try_all_distances_from(oracle, source, &spec)
                    .unwrap()
                    .into_value(),
                *expected
            );
            // Paths exist exactly where distances do, with matching lengths,
            // valid edges, and no failed edge.
            for v in g.vertices() {
                match engine
                    .try_shortest_path_from(oracle, source, v, &spec)
                    .unwrap()
                    .into_value()
                {
                    Some(p) => {
                        assert_eq!(Some(p.len() as u32), expected[v.index()]);
                        assert!(p.is_valid_in(g));
                        assert!(!spec.intersects_path(g, &p));
                    }
                    None => assert_eq!(expected[v.index()], None, "missing path to {v:?}"),
                }
            }
        }
        // The S × V matrix is the per-source rows, in order.
        let matrix = engine
            .try_distance_matrix(oracle, &spec)
            .unwrap()
            .into_value();
        assert_eq!(matrix.sources(), oracle.sources());
        for (row, expected) in per_source.iter().enumerate() {
            assert_eq!(matrix.row(row), &expected[..], "matrix row {row}");
        }
        assert_eq!(matrix.vertex_count(), n);
    }
}

/// The stretch variant of the core assertion, for approximate backends:
/// under every sampled fault spec, every answer carries the right
/// guarantee tier for its fault count, agrees with ground truth on
/// reachability, and — where reachable — satisfies the declared `(α, β)`
/// contract `true_d ≤ d_H ≤ ⌈α·true_d⌉ + β`.  Fault-free answers must
/// still be exactly the BFS distance (the primary tree is embedded
/// whole).
fn assert_approx_oracle_honours_contract(
    g: &Graph,
    oracle: &FrozenView<'_>,
    params: ApproxParams,
    stride: usize,
) {
    let mut engine = QueryEngine::new();
    let source = oracle.sources()[0];
    let declared = Guarantee::Approx {
        mult_num: params.mult_num,
        mult_den: params.mult_den,
        add: params.add,
    };
    for spec in fault_specs(g, stride) {
        let expected = ground_truth(g, source, &spec);
        for v in g.vertices() {
            let answer = engine
                .try_distance_from(oracle, source, v, &spec)
                .expect("in-range query on a served source");
            let guarantee = answer.guarantee();
            match spec.len() {
                0 => {
                    assert_eq!(guarantee, Guarantee::Exact, "fault-free answers are exact");
                    assert_eq!(answer.into_value(), expected[v.index()], "target {v:?}");
                }
                1 | 2 => {
                    assert_eq!(
                        guarantee, declared,
                        "in-resilience faulted answers declare the stretch contract \
                         (target {v:?}, spec {spec:?})"
                    );
                    match (answer.into_value(), expected[v.index()]) {
                        (None, None) => {}
                        (Some(d), Some(true_d)) => {
                            let bound = guarantee
                                .stretch_bound(true_d)
                                .expect("Approx is a bounded guarantee");
                            assert!(
                                u64::from(d) >= u64::from(true_d),
                                "answers never undershoot (H ⊆ G): {d} < {true_d} \
                                 at {v:?} under {spec:?}"
                            );
                            assert!(
                                u64::from(d) <= bound,
                                "stretch bound violated: d_H = {d} > ⌈α·{true_d}⌉ + β = {bound} \
                                 at {v:?} under {spec:?}"
                            );
                        }
                        (got, want) => panic!(
                            "reachability must match G ∖ F: got {got:?}, want {want:?} \
                             at {v:?} under {spec:?}"
                        ),
                    }
                }
                _ => unreachable!("fault_specs samples |F| ≤ 2"),
            }
        }
    }
    // Beyond the resilience the contract degrades to BestEffort, exactly
    // like the exact backends.
    let edges: Vec<EdgeId> = g.edges().collect();
    let beyond = FaultSpec::from([edges[0], edges[edges.len() / 2], edges[edges.len() - 1]]);
    let answer = engine
        .try_distance_from(oracle, source, VertexId(0), &beyond)
        .unwrap();
    assert_eq!(answer.guarantee(), Guarantee::BestEffort);
}

fn approx_frozen_for(g: &Graph, params: ApproxParams, seed: u64) -> FrozenStructure {
    let w = TieBreak::new(g, seed);
    FrozenStructure::freeze_approx(g, &approx_ftbfs(g, &w, VertexId(0), params))
}

#[test]
fn approx_backend_honours_the_stretch_contract() {
    for seed in [2015u64, 77, 4169] {
        let g = generators::connected_gnp(34, 0.14, seed);
        let frozen = approx_frozen_for(&g, ApproxParams::DEFAULT, seed);
        assert_approx_oracle_honours_contract(&g, &frozen, ApproxParams::DEFAULT, 7);
    }
    // Structured families, including θ = 0 (no reinforcement).
    let cycle = generators::cycle(24);
    let params = ApproxParams::DEFAULT.with_theta(0);
    let frozen = approx_frozen_for(&cycle, params, 1);
    assert_approx_oracle_honours_contract(&cycle, &frozen, params, 3);
    let grid = generators::grid(5, 6);
    let frozen = approx_frozen_for(&grid, ApproxParams::DEFAULT, 2);
    assert_approx_oracle_honours_contract(&grid, &frozen, ApproxParams::DEFAULT, 5);
}

#[test]
fn approx_view_honours_the_stretch_contract_from_mapped_bytes() {
    // The approximate acceptance bar mirrors the exact backends': a view
    // opened from the bytes reads the contract from the header, passes
    // the same contract suite the rebuilt structure does, and the two
    // answer identically.
    let g = generators::connected_gnp(30, 0.16, 21);
    let frozen = approx_frozen_for(&g, ApproxParams::DEFAULT, 21);
    let bytes = frozen.save();
    let view = FrozenView::open(&bytes).expect("approximate snapshot opens");
    assert_eq!(view.fingerprint(), frozen.fingerprint());
    assert_eq!(view.contract(), Contract::Approx(ApproxParams::DEFAULT));
    assert_approx_oracle_honours_contract(&g, &view, ApproxParams::DEFAULT, 6);
    let mut ea = QueryEngine::new();
    let mut eb = QueryEngine::new();
    for spec in fault_specs(&g, 6) {
        for v in g.vertices() {
            assert_eq!(
                ea.try_distance(&frozen, v, &spec).unwrap(),
                eb.try_distance(&view, v, &spec).unwrap(),
                "target {v:?} spec {spec:?}"
            );
        }
    }
}

/// Every fault spec of at most two edges of `g`.
fn all_small_fault_specs(g: &Graph) -> Vec<FaultSpec> {
    let edges: Vec<EdgeId> = g.edges().collect();
    let mut specs = vec![FaultSpec::None];
    for (i, &a) in edges.iter().enumerate() {
        specs.push(FaultSpec::from(a));
        for &b in &edges[i + 1..] {
            specs.push(FaultSpec::from((a, b)));
        }
    }
    specs
}

/// Checks every `(s, v, F)` with `|F| ≤ 2` from every served source: the
/// distance equals `truth(s, F)[v]`, and the path exists exactly when the
/// distance does, runs `s → v` inside `G`, avoids `F`, and has that length.
/// Returns how many faulted queries were answered from the tree.
fn sweep_every_small_fault_set(
    g: &Graph,
    oracle: &FrozenView<'_>,
    truth: impl Fn(VertexId, &FaultSpec) -> Vec<Option<u32>>,
) -> u64 {
    let mut engine = QueryEngine::new();
    let mut faulted_tree_hits = 0;
    for spec in all_small_fault_specs(g) {
        for &s in oracle.sources() {
            let expected = truth(s, &spec);
            for v in g.vertices() {
                let before = engine.stats().tree_hits;
                let d = engine
                    .try_distance_from(oracle, s, v, &spec)
                    .unwrap()
                    .into_value();
                if !spec.is_empty() {
                    faulted_tree_hits += engine.stats().tree_hits - before;
                }
                assert_eq!(d, expected[v.index()], "{s:?} → {v:?} under {spec:?}");
                match engine
                    .try_shortest_path_from(oracle, s, v, &spec)
                    .unwrap()
                    .into_value()
                {
                    Some(p) => {
                        assert_eq!(Some(p.len() as u32), d, "{s:?} → {v:?} under {spec:?}");
                        assert_eq!((p.source(), p.target()), (s, v));
                        assert!(p.is_valid_in(g));
                        assert!(!spec.intersects_path(g, &p), "path crosses {spec:?}");
                    }
                    None => assert_eq!(d, None, "missing path {s:?} → {v:?} under {spec:?}"),
                }
            }
        }
    }
    assert!(engine.stats().searches > 0, "some query must search");
    faulted_tree_hits
}

#[test]
fn tree_rule_matches_bfs_on_every_small_fault_set() {
    // The tree answers a faulted query only when no fault lies on π(s, v);
    // an exhaustive sweep over every (v, F) with |F| ≤ 2 shows that rule
    // never changes an answer, on all four backends.
    for g in [
        generators::connected_gnp(14, 0.3, 3),
        generators::grid(3, 4),
        generators::tree_plus_chords(12, 4, 6),
    ] {
        let last = VertexId(g.vertex_count() as u32 - 1);
        let g_truth = |s: VertexId, spec: &FaultSpec| ground_truth(&g, s, spec);
        let frozen = frozen_for(&g, 5);
        let bytes = frozen.save();
        let view = FrozenView::open(&bytes).expect("v2 snapshot opens");
        let multi = multi_frozen_for(&g, &[VertexId(0), last], 5);
        let w = TieBreak::new(&g, 5);
        let built = approx_ftbfs(&g, &w, VertexId(0), ApproxParams::DEFAULT);
        let approx = FrozenStructure::freeze_approx(&g, &built);
        // Approximate answers are exact inside H; against G ∖ F they agree
        // on reachability (their distances are covered by the stretch
        // suites above).
        let h_truth = |s: VertexId, spec: &FaultSpec| {
            let res = bfs(&built.structure.as_view(&g).without_faults(spec), s);
            let h: Vec<Option<u32>> = g.vertices().map(|v| res.distance(v)).collect();
            let reach = |d: &[Option<u32>]| d.iter().map(Option::is_some).collect::<Vec<_>>();
            assert_eq!(reach(&h), reach(&ground_truth(&g, s, spec)), "{spec:?}");
            h
        };
        let hits = [
            sweep_every_small_fault_set(&g, &frozen, g_truth),
            sweep_every_small_fault_set(&g, &view, g_truth),
            sweep_every_small_fault_set(&g, &multi, g_truth),
            sweep_every_small_fault_set(&g, &approx, h_truth),
        ];
        assert!(
            hits.iter().all(|&h| h > 0),
            "faulted queries must reach the tree rule: {hits:?}"
        );
    }
}

#[test]
fn whole_vertex_reads_never_take_the_tree_under_a_faulted_tree_edge() {
    // π(0, 1) on an 8-cycle is the edge 0-1.  Cutting it moves vertex 1 to
    // distance 7, while the tree still says 1: every all-vertex read must
    // report the post-fault distance, not the tree's.
    let g = generators::cycle(8);
    let frozen = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, g.edges());
    let spec = FaultSpec::from(g.edge_between(VertexId(0), VertexId(1)).unwrap());
    let expected = ground_truth(&g, VertexId(0), &spec);
    assert_eq!(expected[1], Some(7));
    let mut engine = QueryEngine::new();
    // A tree hit under the same spec first, so the engine is warm.
    assert_eq!(
        engine
            .try_distance(&frozen, VertexId(6), &spec)
            .unwrap()
            .into_value(),
        Some(2)
    );
    assert_eq!(engine.stats().tree_hits, 1);
    assert_eq!(
        engine
            .try_all_distances(&frozen, &spec)
            .unwrap()
            .into_value(),
        expected
    );
    let matrix = engine
        .try_distance_matrix(&frozen, &spec)
        .unwrap()
        .into_value();
    assert_eq!(matrix.row(0), &expected[..]);

    let snapshot =
        EpochSnapshot::from_bytes(frozen.save()).expect("freshly saved v2 snapshot validates");
    let server = StreamServer::launch(snapshot, ServeConfig::new().workers(2));
    let mut stream = server.open_stream();
    stream
        .submit(ServeRequest::distance(VertexId(6), spec.clone()))
        .expect("server is live");
    stream
        .submit(ServeRequest::all_distances(spec.clone()))
        .expect("server is live");
    let responses = stream.drain().expect("every response arrives");
    assert_eq!(responses[0].distance(), Some(Some(2)));
    match responses[1].outcome.clone().map(|a| a.into_value()) {
        Ok(ServeOutput::Distances(d)) => assert_eq!(d, expected),
        other => panic!("unexpected all-distances outcome {other:?}"),
    }
    drop(stream);
    server.shutdown();
}

#[test]
fn engine_matches_ground_truth_on_gnp() {
    for seed in [2015u64, 77] {
        let g = generators::connected_gnp(34, 0.14, seed);
        let frozen = frozen_for(&g, seed);
        assert_oracle_matches_ground_truth(&g, &frozen, 7);
    }
}

#[test]
fn engine_matches_ground_truth_on_cycle_and_grid() {
    let cycle = generators::cycle(24);
    assert_oracle_matches_ground_truth(&cycle, &frozen_for(&cycle, 1), 3);
    let grid = generators::grid(5, 6);
    assert_oracle_matches_ground_truth(&grid, &frozen_for(&grid, 2), 5);
}

#[test]
fn multi_source_oracle_matches_ground_truth() {
    let g = generators::tree_plus_chords(16, 7, 5);
    let sources = [VertexId(0), VertexId(9), VertexId(15)];
    let multi = multi_frozen_for(&g, &sources, 5);
    assert_eq!(multi.sources(), &sources[..]);
    assert_oracle_matches_ground_truth(&g, &multi, 4);
    // Undeclared sources are typed errors, not wrong answers.
    let mut engine = QueryEngine::new();
    assert_eq!(
        engine.try_distance_from(&multi, VertexId(3), VertexId(1), &FaultSpec::None),
        Err(QueryError::UnservedSource {
            source: VertexId(3)
        })
    );
}

#[test]
fn frozen_view_passes_the_full_generic_suite() {
    // The acceptance bar of the v2 snapshot format: a FrozenView opened
    // from the bytes answers the same backend-generic ground-truth suite
    // the rebuilt FrozenStructure does — every engine path, bit-identical
    // to BFS on G ∖ F — while serving straight from the mapped bytes.
    for seed in [2015u64, 77] {
        let g = generators::connected_gnp(34, 0.14, seed);
        let frozen = frozen_for(&g, seed);
        let bytes = frozen.save();
        let view = FrozenView::open(&bytes).expect("v2 snapshot opens");
        assert_eq!(view.fingerprint(), frozen.fingerprint());
        assert_oracle_matches_ground_truth(&g, &view, 7);
    }
    // Also through the owned load (the serving boundary's entry point).
    let g = generators::grid(5, 6);
    let frozen = frozen_for(&g, 2);
    let loaded = FrozenStructure::load(&frozen.save()).expect("v2 snapshot loads");
    assert_oracle_matches_ground_truth(&g, &loaded, 5);
}

#[test]
fn frozen_multi_view_passes_the_full_generic_suite() {
    let g = generators::tree_plus_chords(16, 7, 5);
    let sources = [VertexId(0), VertexId(9), VertexId(15)];
    let multi = multi_frozen_for(&g, &sources, 5);
    let bytes = multi.save();
    let view = FrozenView::open(&bytes).expect("v2 snapshot opens");
    assert_eq!(view.fingerprint(), multi.fingerprint());
    assert_eq!(view.sources(), &sources[..]);
    assert_oracle_matches_ground_truth(&g, &view, 4);
    // Views keep the multi contract: undeclared sources are typed errors.
    let mut engine = QueryEngine::new();
    assert_eq!(
        engine.try_distance_from(&view, VertexId(3), VertexId(1), &FaultSpec::None),
        Err(QueryError::UnservedSource {
            source: VertexId(3)
        })
    );
}

#[test]
fn views_match_rebuilt_structures_beyond_the_resilience_too() {
    // Bit-identity between a view and the rebuilt structure must extend to
    // best-effort territory (|F| > f), where answers are defined inside H.
    let g = generators::connected_gnp(28, 0.16, 31);
    let frozen = frozen_for(&g, 31);
    let bytes = frozen.save();
    let view = FrozenView::open(&bytes).unwrap();
    let edges: Vec<EdgeId> = g.edges().collect();
    let spec = FaultSpec::from([edges[0], edges[edges.len() / 2], edges[edges.len() - 1]]);
    let mut ea = QueryEngine::new();
    let mut eb = QueryEngine::new();
    for v in g.vertices() {
        let a = ea.try_distance(&frozen, v, &spec).unwrap();
        let b = eb.try_distance(&view, v, &spec).unwrap();
        assert_eq!(a.guarantee(), Guarantee::BestEffort);
        assert_eq!(a, b, "target {v:?}");
    }
}

#[test]
fn threaded_harness_serves_views_like_structures() {
    let g = generators::connected_gnp(30, 0.15, 44);
    let frozen = frozen_for(&g, 44);
    let bytes = frozen.save();
    let view = FrozenView::open(&bytes).unwrap();
    let edges: Vec<EdgeId> = g.edges().collect();
    let queries: Vec<Query> = (0..400)
        .map(|i| {
            let t = VertexId((i * 11 % g.vertex_count()) as u32);
            Query::new(
                t,
                (edges[i % edges.len()], edges[(i * 7 + 1) % edges.len()]),
            )
        })
        .collect();
    let from_structure = ThroughputHarness::new(3).run(&frozen, &queries);
    let from_view = ThroughputHarness::new(3).run(&view, &queries);
    assert_eq!(from_structure.distances, from_view.distances);
}

#[test]
fn beyond_resilience_answers_are_flagged_best_effort_and_exact_inside_h() {
    let g = generators::connected_gnp(30, 0.16, 21);
    let w = TieBreak::new(&g, 21);
    let h = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build().structure;
    let frozen = h.freeze(&g);
    assert_eq!(frozen.resilience(), 2);
    let structure_edges: Vec<EdgeId> = h.edges().collect();
    let spec = FaultSpec::from([
        structure_edges[0],
        structure_edges[structure_edges.len() / 3],
        structure_edges[2 * structure_edges.len() / 3],
    ]);
    assert_eq!(spec.len(), 3);
    // Ground truth *inside H* — the documented best-effort meaning.
    let removed: Vec<EdgeId> = g.edges().filter(|e| !h.contains(*e)).collect();
    let h_view = GraphView::new(&g)
        .without_edges(removed)
        .without_faults(&spec);
    let inside_h = bfs(&h_view, VertexId(0));
    let g_truth = ground_truth(&g, VertexId(0), &spec);
    let mut engine = QueryEngine::new();
    for v in g.vertices() {
        let answer = engine.try_distance(&frozen, v, &spec).unwrap();
        assert_eq!(answer.guarantee(), Guarantee::BestEffort);
        let d = answer.into_value();
        assert_eq!(d, inside_h.distance(v), "best effort is exact inside H");
        // And never shorter than the true G ∖ F distance (H ⊆ G).
        match (d, g_truth[v.index()]) {
            (Some(a), Some(b)) => assert!(a >= b),
            (None, Some(_)) | (None, None) => {}
            (Some(_), None) => panic!("H reached a vertex G could not"),
        }
    }
    assert!(engine.stats().best_effort > 0);
}

#[test]
fn batched_and_threaded_queries_match_serial_ground_truth() {
    let g = generators::connected_gnp(40, 0.12, 2015);
    let frozen = frozen_for(&g, 2015);
    let source = frozen.primary_source();
    let edges: Vec<EdgeId> = g.edges().collect();
    // A mixed batch covering all fault sizes, with deliberate repeats.
    let queries: Vec<Query> = (0..600)
        .map(|i| {
            let target = VertexId((i * 13 % g.vertex_count()) as u32);
            match i % 4 {
                0 => Query::fault_free(target),
                1 => Query::new(target, edges[i * 3 % edges.len()]),
                _ => Query::new(
                    target,
                    (edges[i % edges.len()], edges[(i * 11 + 5) % edges.len()]),
                ),
            }
        })
        .collect();
    let expected: Vec<Option<u32>> = queries
        .iter()
        .map(|q| {
            let view = GraphView::new(&g).without_faults(&q.faults);
            bfs(&view, source).distance(q.target)
        })
        .collect();
    // Sharded across 4 threads: same answers, same (input) order.
    let report = ThroughputHarness::new(4).run(&frozen, &queries);
    assert_eq!(report.distances, expected);
    assert_eq!(report.threads, 4);
}

#[test]
fn threaded_multi_source_batches_match_ground_truth() {
    let g = generators::tree_plus_chords(18, 8, 11);
    let sources = [VertexId(0), VertexId(11)];
    let multi = multi_frozen_for(&g, &sources, 11);
    let edges: Vec<EdgeId> = g.edges().collect();
    let queries: Vec<Query> = (0..300)
        .map(|i| {
            let s = sources[i % sources.len()];
            let t = VertexId((i * 7 % g.vertex_count()) as u32);
            match i % 3 {
                0 => Query::from_source(s, t, FaultSpec::None),
                1 => Query::from_source(s, t, edges[i % edges.len()]),
                _ => Query::from_source(
                    s,
                    t,
                    (edges[i % edges.len()], edges[(i * 5 + 2) % edges.len()]),
                ),
            }
        })
        .collect();
    let expected: Vec<Option<u32>> = queries
        .iter()
        .map(|q| {
            let view = GraphView::new(&g).without_faults(&q.faults);
            bfs(&view, q.source.unwrap()).distance(q.target)
        })
        .collect();
    for threads in [1, 3] {
        let report = ThroughputHarness::new(threads).run(&multi, &queries);
        assert_eq!(report.distances, expected, "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    /// freeze → save → load round-trips to an identical structure with
    /// identical answers on a spread of dual-fault queries.
    #[test]
    fn snapshot_roundtrip_preserves_answers(n in 10usize..26, p in 0.12f64..0.3, seed in 0u64..400) {
        let g = generators::connected_gnp(n, p, seed);
        let frozen = frozen_for(&g, seed);
        let bytes = frozen.save();
        let loaded = FrozenStructure::load(&bytes).expect("snapshot loads");
        prop_assert_eq!(&loaded, &frozen);
        prop_assert_eq!(loaded.fingerprint(), frozen.fingerprint());
        // The bytes also open as a view with the same identity.
        prop_assert_eq!(
            FrozenView::open(&bytes).expect("snapshot opens").fingerprint(),
            frozen.fingerprint()
        );
        let mut engine_a = QueryEngine::new();
        let mut engine_b = QueryEngine::new();
        for spec in fault_specs(&g, 5) {
            for v in g.vertices() {
                prop_assert_eq!(
                    engine_a.try_distance(&frozen, v, &spec).unwrap().into_value(),
                    engine_b.try_distance(&loaded, v, &spec).unwrap().into_value(),
                    "target {:?}, spec {:?}", v, spec
                );
            }
        }
        // And the reconstructed mutable structure freezes back to the
        // same fingerprint.
        prop_assert_eq!(loaded.to_structure().freeze(&g).fingerprint(), frozen.fingerprint());
    }

    /// Exact backends never report `Guarantee::Approx` — neither from the
    /// oracle's own `guarantee()` nor on any engine answer, at any fault
    /// count, on structures or their mapped views.  The `Approx` tier is
    /// the approximate backend's alone; an exact backend leaking it would
    /// falsely weaken the serving contract.
    #[test]
    fn approx_is_never_reported_on_exact_backends(n in 10usize..26, p in 0.12f64..0.3, seed in 0u64..400) {
        let g = generators::connected_gnp(n, p, seed);
        let frozen = frozen_for(&g, seed);
        let v2 = frozen.save();
        let view = FrozenView::open(&v2).expect("v2 opens");
        let edges: Vec<EdgeId> = g.edges().collect();
        let m = edges.len();
        let specs = [
            FaultSpec::None,
            FaultSpec::from(edges[seed as usize % m]),
            FaultSpec::from((edges[0], edges[m / 2])),
            FaultSpec::from([edges[0], edges[m / 3], edges[m - 1]]),
        ];
        let mut engine = QueryEngine::new();
        for spec in &specs {
            prop_assert!(!frozen.guarantee(spec).is_approx(), "spec {:?}", spec);
            prop_assert!(!view.guarantee(spec).is_approx(), "spec {:?}", spec);
            for v in g.vertices() {
                let answer = engine.try_distance(&frozen, v, spec).unwrap();
                prop_assert!(
                    !answer.guarantee().is_approx(),
                    "exact backend answered Approx at {:?} under {:?}", v, spec
                );
            }
        }
        // Conversely the approximate backend must declare Approx on every
        // in-resilience faulted spec — the tiers partition cleanly.
        let approx = approx_frozen_for(&g, ApproxParams::DEFAULT, seed);
        for spec in &specs {
            let tier = approx.guarantee(spec);
            match spec.len() {
                0 => prop_assert!(tier.is_exact()),
                1 | 2 => prop_assert!(tier.is_approx()),
                _ => prop_assert!(!tier.is_bounded()),
            }
        }
    }

    /// The multi-source snapshot round-trips to identical `S × V` answers.
    #[test]
    fn multi_snapshot_roundtrip_preserves_answers(n in 8usize..16, chords in 2usize..6, seed in 0u64..200) {
        let g = generators::tree_plus_chords(n, chords, seed);
        let sources = [VertexId(0), VertexId((n as u32) - 1)];
        let multi = multi_frozen_for(&g, &sources, seed);
        let bytes = multi.save();
        let loaded = FrozenStructure::load(&bytes).expect("snapshot loads");
        prop_assert_eq!(&loaded, &multi);
        prop_assert_eq!(loaded.fingerprint(), multi.fingerprint());
        prop_assert_eq!(
            FrozenView::open(&bytes).expect("snapshot opens").fingerprint(),
            multi.fingerprint()
        );
        let mut engine_a = QueryEngine::new();
        let mut engine_b = QueryEngine::new();
        for spec in fault_specs(&g, 4) {
            let a = engine_a.try_distance_matrix(&multi, &spec).unwrap().into_value();
            let b = engine_b.try_distance_matrix(&loaded, &spec).unwrap().into_value();
            prop_assert_eq!(a, b, "spec {:?}", spec);
        }
    }
}
