//! End-to-end integration tests: every construction is run on several graph
//! families and verified against the definition of an `f`-FT-MBFS structure.

use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_core::{
    approx_minimum_ftmbfs, dual_failure_ftbfs, multi_failure_ftbfs, single_failure_ftbfs,
};
use ftbfs_graph::{generators, Graph, TieBreak, VertexId};
use ftbfs_lowerbound::GStarGraph;
use ftbfs_verify::{verify_exhaustive, verify_sampled, StructureOracle};

fn small_workloads() -> Vec<(String, Graph)> {
    vec![
        ("cycle(9)".into(), generators::cycle(9)),
        ("grid(3,4)".into(), generators::grid(3, 4)),
        ("complete(7)".into(), generators::complete(7)),
        (
            "tree+chords(13,5)".into(),
            generators::tree_plus_chords(13, 5, 4),
        ),
        ("gnp(14, 0.2)".into(), generators::connected_gnp(14, 0.2, 8)),
        ("hub(3,8,2)".into(), generators::hub_and_spokes(3, 8, 2, 5)),
        (
            "cluster(2x6)".into(),
            generators::cluster_graph(2, 6, 0.4, 2, 6),
        ),
    ]
}

#[test]
fn single_failure_structures_verify_on_all_small_workloads() {
    for (name, g) in small_workloads() {
        let w = TieBreak::new(&g, 1);
        let h = single_failure_ftbfs(&g, &w, VertexId(0));
        let report = verify_exhaustive(&g, h.edges(), &[VertexId(0)], 1);
        assert!(report.is_valid(), "{name}: {report}");
    }
}

#[test]
fn dual_failure_structures_verify_on_all_small_workloads() {
    for (name, g) in small_workloads() {
        let w = TieBreak::new(&g, 2);
        let h = dual_failure_ftbfs(&g, &w, VertexId(0));
        let report = verify_exhaustive(&g, h.edges(), &[VertexId(0)], 2);
        assert!(report.is_valid(), "{name}: {report}");
    }
}

#[test]
fn canonical_and_paper_selections_both_verify_and_contain_the_tree() {
    for (name, g) in small_workloads() {
        let w = TieBreak::new(&g, 3);
        let paper = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build().structure;
        let canonical = multi_failure_ftbfs(&g, &w, VertexId(0), 2);
        for h in [&paper, &canonical] {
            let report = verify_exhaustive(&g, h.edges(), &[VertexId(0)], 2);
            assert!(report.is_valid(), "{name}: {report}");
            assert!(
                h.edge_count() >= g.vertex_count() - 1
                    || !ftbfs_graph::properties::is_connected(&g)
            );
        }
    }
}

#[test]
fn dual_structures_on_medium_random_graphs_pass_sampled_verification() {
    for seed in 0..3u64 {
        let g = generators::connected_gnp(60, 0.06, seed);
        let w = TieBreak::new(&g, seed);
        let h = dual_failure_ftbfs(&g, &w, VertexId(0));
        let report = verify_sampled(&g, h.edges(), &[VertexId(0)], 2, 120, seed);
        assert!(report.is_valid(), "seed {seed}: {report}");
    }
}

#[test]
fn approximation_verifies_and_is_not_larger_than_the_graph() {
    for (name, g) in small_workloads().into_iter().take(5) {
        for f in [1usize, 2] {
            let sources = [VertexId(0), VertexId(2)];
            let h = approx_minimum_ftmbfs(&g, &sources, f);
            let report = verify_exhaustive(&g, h.edges(), &sources, f);
            assert!(report.is_valid(), "{name} f={f}: {report}");
            assert!(h.edge_count() <= g.edge_count());
        }
    }
}

#[test]
fn dual_structure_on_the_lower_bound_graph_keeps_every_forced_edge() {
    let gs = GStarGraph::single_source(2, 3, 6);
    let w = TieBreak::new(&gs.graph, 5);
    let h = dual_failure_ftbfs(&gs.graph, &w, gs.sources[0]);
    // Theorem 4.1: every bipartite edge must be present in any dual FT-BFS
    // structure rooted at the gadget root.
    for &e in &gs.bipartite_edges {
        assert!(
            h.contains(e),
            "constructed structure is missing forced bipartite edge {e:?}"
        );
    }
    let report = verify_sampled(&gs.graph, h.edges(), &[gs.sources[0]], 2, 80, 9);
    assert!(report.is_valid(), "{report}");
}

#[test]
fn multi_failure_f3_structure_handles_triple_faults_on_a_tiny_graph() {
    let g = generators::gnp(8, 0.6, 11);
    let w = TieBreak::new(&g, 11);
    let h = multi_failure_ftbfs(&g, &w, VertexId(0), 3);
    // Exhaustive triple-fault check.
    let edges: Vec<_> = g.edges().collect();
    for i in 0..edges.len() {
        for j in (i + 1)..edges.len() {
            for k in (j + 1)..edges.len() {
                let faults = ftbfs_graph::FaultSpec::from_edges([edges[i], edges[j], edges[k]]);
                let gview = ftbfs_graph::GraphView::new(&g).without_faults(&faults);
                let hview = h.as_view(&g).without_faults(&faults);
                let gd = ftbfs_graph::bfs(&gview, VertexId(0));
                let hd = ftbfs_graph::bfs(&hview, VertexId(0));
                for v in g.vertices() {
                    assert_eq!(
                        gd.distance(v),
                        hd.distance(v),
                        "triple fault {faults:?} at {v:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn oracle_over_constructed_structure_matches_ground_truth_for_many_queries() {
    let g = generators::connected_gnp(40, 0.1, 17);
    let w = TieBreak::new(&g, 17);
    let h = dual_failure_ftbfs(&g, &w, VertexId(0));
    let oracle = StructureOracle::new(&g, VertexId(0), h.edges());
    let edges: Vec<_> = g.edges().collect();
    for i in (0..edges.len()).step_by(5) {
        for j in ((i + 1)..edges.len()).step_by(7) {
            let f = ftbfs_graph::FaultSpec::from((edges[i], edges[j]));
            for v in [VertexId(1), VertexId(20), VertexId(39)] {
                assert!(oracle.matches_ground_truth(v, &f));
            }
        }
    }
}
