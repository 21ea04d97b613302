//! Golden-equivalence tests for the reusable search engine.
//!
//! The zero-allocation workspace, the epoch-stamped overlay restrictions,
//! the unweighted fast path, the bidirectional hop probes, the DAG-confined
//! canonical-path extraction and the parallel per-vertex construction must
//! all leave the produced dual-failure FT-BFS structure *bit-identical* to
//! the pre-refactor implementation: same `W`-canonical paths, same selected
//! last edges.  The small fingerprints below were captured by running the
//! original (allocating, serial) implementation on the seeded instances,
//! the ones at scale by the one-sided-search implementation; any drift in
//! path selection shows up as a fingerprint mismatch.

use ftbfs_core::dual::{DualFtBfs, DualFtBfsBuilder, SelectionStrategy};
use ftbfs_graph::{generators, Graph, TieBreak, VertexId};
use ftbfs_lowerbound::GStarGraph;

/// FNV-1a over the sorted edge-id list — stable across platforms.
fn fingerprint(result: &DualFtBfs) -> (usize, u64) {
    let mut ids: Vec<u32> = result.structure.edges().map(|e| e.0).collect();
    ids.sort_unstable();
    let mut h: u64 = 0xcbf29ce484222325;
    for &e in &ids {
        for b in e.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    (ids.len(), h)
}

/// The seeded instances with the edge counts and fingerprints produced by
/// the pre-refactor serial implementation.
fn golden_cases() -> Vec<(Graph, u64, usize, u64)> {
    vec![
        (
            generators::connected_gnp(40, 0.12, 7),
            11,
            99,
            0x11065eaddc7e5d45,
        ),
        (generators::grid(6, 7), 13, 71, 0x7fdbdd2eb335a412),
        (
            generators::tree_plus_chords(36, 30, 3),
            17,
            63,
            0x3a65f64dca99db37,
        ),
        (
            generators::connected_gnp(50, 0.2, 11),
            23,
            134,
            0x70c070d98cf62b7f,
        ),
    ]
}

#[test]
fn structure_matches_pre_refactor_golden_fingerprints() {
    for (i, (g, wseed, expect_edges, expect_fnv)) in golden_cases().into_iter().enumerate() {
        let w = TieBreak::new(&g, wseed);
        let r = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build();
        let (edges, fnv) = fingerprint(&r);
        assert_eq!(edges, expect_edges, "edge count drifted on golden case {i}");
        assert_eq!(
            fnv, expect_fnv,
            "edge set drifted on golden case {i}: selection is no longer \
             equivalent to the pre-refactor implementation"
        );
    }
}

/// One pinned instance: `(label, graph, source, W seed, strategy, |E(H)|,
/// FNV-1a)`.
type ScaleCase = (
    &'static str,
    Graph,
    VertexId,
    u64,
    SelectionStrategy,
    usize,
    u64,
);

/// Instances at the sizes the construction is benchmarked on, pinned before
/// the bidirectional hop probes and the DAG-confined path extraction
/// replaced the one-sided searches.  The first two are the benchmark's
/// `build` graph at seeds 1 and 2.
fn golden_cases_at_scale() -> Vec<ScaleCase> {
    let n = 1_000;
    let gstar = GStarGraph::for_target_size(2, 400);
    let gstar_source = gstar.sources[0];
    vec![
        (
            "perfbench build, seed 1",
            generators::connected_gnp(n, 8.0 / n as f64, 1),
            VertexId(0),
            1,
            SelectionStrategy::PaperPreference,
            2728,
            0x0be1bb330d3fe543,
        ),
        (
            "perfbench build, seed 2",
            generators::connected_gnp(n, 8.0 / n as f64, 2),
            VertexId(0),
            2,
            SelectionStrategy::PaperPreference,
            2731,
            0xae8545a223c90ee3,
        ),
        (
            "G*_2 at n = 400",
            gstar.graph,
            gstar_source,
            3,
            SelectionStrategy::PaperPreference,
            2910,
            0x603b688c4d60a918,
        ),
        (
            "canonical strategy, connected_gnp(300, 8/n, 5)",
            generators::connected_gnp(300, 8.0 / 300.0, 5),
            VertexId(0),
            5,
            SelectionStrategy::Canonical,
            863,
            0x3762f4e7e7a8398e,
        ),
    ]
}

#[test]
fn structure_matches_golden_fingerprints_at_scale() {
    let mut drifted = Vec::new();
    for (label, g, source, wseed, strategy, expect_edges, expect_fnv) in golden_cases_at_scale() {
        let w = TieBreak::new(&g, wseed);
        let r = DualFtBfsBuilder::new(&g, &w, source)
            .strategy(strategy)
            .threads(2)
            .build();
        let (edges, fnv) = fingerprint(&r);
        if (edges, fnv) != (expect_edges, expect_fnv) {
            drifted.push(format!("{label}: got ({edges}, {fnv:#018x})"));
        }
    }
    assert!(drifted.is_empty(), "H drifted on {drifted:#?}");
}

#[test]
fn parallel_construction_is_bit_identical_to_serial() {
    for (g, wseed, _, _) in golden_cases() {
        let w = TieBreak::new(&g, wseed);
        let serial = DualFtBfsBuilder::new(&g, &w, VertexId(0))
            .record_paths(true)
            .build();
        for threads in [2usize, 3, 4, 16] {
            let parallel = DualFtBfsBuilder::new(&g, &w, VertexId(0))
                .record_paths(true)
                .threads(threads)
                .build();
            assert_eq!(
                fingerprint(&serial),
                fingerprint(&parallel),
                "structure differs with {threads} threads"
            );
            // The per-vertex records must merge back in vertex-id order with
            // identical selected paths.
            assert_eq!(serial.records.len(), parallel.records.len());
            for (a, b) in serial.records.iter().zip(parallel.records.iter()) {
                assert_eq!(a.vertex, b.vertex);
                assert_eq!(a.pi, b.pi);
                assert_eq!(a.new_edges, b.new_edges);
                assert_eq!(a.detours.len(), b.detours.len());
                for (da, db) in a.detours.iter().zip(b.detours.iter()) {
                    assert_eq!(da.protected_edge, db.protected_edge);
                    assert_eq!(da.decomposition.reassemble(), db.decomposition.reassemble());
                }
                assert_eq!(a.new_ending.len(), b.new_ending.len());
                for (na, nb) in a.new_ending.iter().zip(b.new_ending.iter()) {
                    assert_eq!(na.path, nb.path);
                    assert_eq!(na.pi_divergence, nb.pi_divergence);
                    assert_eq!(na.detour_divergence, nb.detour_divergence);
                }
            }
        }
    }
}

#[test]
fn parallel_ftmbfs_parts_are_bit_identical_to_serial() {
    use ftbfs_core::{multi_failure_ftmbfs_parts, multi_failure_ftmbfs_parts_threads};
    // The construction-side FT-MBFS parallelisation mirrors
    // DualFtBfsBuilder::threads: contiguous source chunks, spawn-order
    // merge, so the parts — and hence the frozen slabs and the union —
    // must be bit-identical for every thread count.
    let g = generators::tree_plus_chords(20, 9, 5);
    let w = TieBreak::new(&g, 5);
    let sources: Vec<VertexId> = vec![VertexId(0), VertexId(6), VertexId(13), VertexId(19)];
    let serial = multi_failure_ftmbfs_parts(&g, &w, &sources, 2);
    for threads in [2usize, 3, 4, 16] {
        let parallel = multi_failure_ftmbfs_parts_threads(&g, &w, &sources, 2, threads);
        assert_eq!(
            serial, parallel,
            "FT-MBFS parts differ with {threads} threads"
        );
        // And the frozen serving form is identical too (fingerprint covers
        // the union edge list and every slab's index list).
        let a = ftbfs_oracle::FrozenStructure::freeze_parts(&g, &serial);
        let b = ftbfs_oracle::FrozenStructure::freeze_parts(&g, &parallel);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
    }
}

#[test]
fn parallel_structures_still_verify_exhaustively() {
    use ftbfs_graph::{bfs, FaultSet, GraphView};
    let g = generators::connected_gnp(14, 0.2, 19);
    let w = TieBreak::new(&g, 19);
    let r = DualFtBfsBuilder::new(&g, &w, VertexId(0))
        .threads(4)
        .build();
    let edges: Vec<_> = g.edges().collect();
    let mut fault_sets = vec![FaultSet::empty()];
    for &e in &edges {
        fault_sets.push(FaultSet::single(e));
    }
    for i in 0..edges.len() {
        for j in (i + 1)..edges.len() {
            fault_sets.push(FaultSet::pair(edges[i], edges[j]));
        }
    }
    for fs in fault_sets {
        let gview = GraphView::new(&g).without_faults(&fs);
        let hview = r.structure.as_view(&g).without_faults(&fs);
        let gd = bfs(&gview, VertexId(0));
        let hd = bfs(&hview, VertexId(0));
        for v in g.vertices() {
            assert_eq!(
                gd.distance(v),
                hd.distance(v),
                "mismatch at v={v:?} under {fs:?}"
            );
        }
    }
}
