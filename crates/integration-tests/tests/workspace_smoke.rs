//! Workspace smoke test: one pass through the whole pipeline on a small
//! random graph — generate, tie-break, construct the single- and
//! dual-failure FT-BFS structures, and verify both against the exhaustive
//! oracle.  Kept deliberately small and fast so it doubles as the quickest
//! "is the workspace wired correctly" check for CI and for new clones
//! (`cargo test -p integration-tests --test workspace_smoke`).

use ftbfs_core::{dual_failure_ftbfs, single_failure_ftbfs};
use ftbfs_graph::{generators, FaultSpec, GraphView, TieBreak, VertexId};
use ftbfs_verify::{verify_exhaustive, StructureOracle};

#[test]
fn end_to_end_single_and_dual_on_a_small_gnp_graph() {
    let source = VertexId(0);
    let g = generators::connected_gnp(16, 0.22, 2015);
    assert!(g.edge_count() >= g.vertex_count() - 1, "generator sanity");
    let w = TieBreak::new(&g, 2015);

    // Single-failure structure: verify against every 1-fault set.
    let h1 = single_failure_ftbfs(&g, &w, source);
    let report1 = verify_exhaustive(&g, h1.edges(), &[source], 1);
    assert!(report1.is_valid(), "single-failure structure: {report1}");

    // Dual-failure structure: verify against every 2-fault set, and check
    // the paper's containment chain T0 ⊆ H1 ⊆-in-size H2 ⊆ G.
    let h2 = dual_failure_ftbfs(&g, &w, source);
    let report2 = verify_exhaustive(&g, h2.edges(), &[source], 2);
    assert!(report2.is_valid(), "dual-failure structure: {report2}");
    assert!(h1.edge_count() <= h2.edge_count());
    assert!(h2.edge_count() <= g.edge_count());
    assert!(h1.edge_count() >= g.vertex_count() - 1);

    // Oracle queries inside the structure agree with ground truth in G ∖ F
    // for a couple of concrete dual faults.
    let oracle = StructureOracle::new(&g, source, h2.edges());
    let edges: Vec<_> = g.edges().collect();
    let faults = FaultSpec::from((edges[0], edges[edges.len() / 2]));
    let truth = ftbfs_graph::bfs(&GraphView::new(&g).without_faults(&faults), source);
    for v in g.vertices() {
        assert_eq!(
            oracle.distance(v, &faults),
            truth.distance(v),
            "oracle disagrees with ground truth at {v:?} under {faults:?}"
        );
    }
}
