//! Property-based tests (proptest) over randomly generated graphs and
//! parameters: construction invariants, replacement-path optimality and
//! fault-avoidance, decomposition round-trips, and lower-bound label
//! properties.

use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_core::single_failure_ftbfs;
use ftbfs_graph::{bfs, dijkstra, generators, FaultSet, GraphView, TieBreak, VertexId};
use ftbfs_lowerbound::GfGraph;
use ftbfs_paths::detour::decompose;
use ftbfs_paths::replacement::SingleFailureReplacer;
use ftbfs_verify::{verify_exhaustive, verify_sampled};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// The single-failure structure always verifies exhaustively.
    #[test]
    fn single_failure_structure_always_verifies(n in 8usize..18, chords in 2usize..8, seed in 0u64..500) {
        let g = generators::tree_plus_chords(n, chords, seed);
        let w = TieBreak::new(&g, seed);
        let h = single_failure_ftbfs(&g, &w, VertexId(0));
        let report = verify_exhaustive(&g, h.edges(), &[VertexId(0)], 1);
        prop_assert!(report.is_valid(), "{}", report);
    }

    /// The dual-failure structure (paper selection) always verifies
    /// exhaustively on small graphs.
    #[test]
    fn dual_failure_structure_always_verifies(n in 8usize..14, p in 0.15f64..0.4, seed in 0u64..500) {
        let g = generators::connected_gnp(n, p, seed);
        let w = TieBreak::new(&g, seed);
        let h = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build().structure;
        let report = verify_exhaustive(&g, h.edges(), &[VertexId(0)], 2);
        prop_assert!(report.is_valid(), "{}", report);
    }

    /// The dual-failure structure on larger graphs passes sampled checks and
    /// never exceeds the graph itself.
    #[test]
    fn dual_failure_structure_sampled(n in 25usize..45, seed in 0u64..200) {
        let g = generators::connected_gnp(n, 4.0 / (n as f64 - 1.0), seed);
        let w = TieBreak::new(&g, seed);
        let h = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build().structure;
        prop_assert!(h.edge_count() <= g.edge_count());
        prop_assert!(h.edge_count() >= g.vertex_count() - 1);
        let report = verify_sampled(&g, h.edges(), &[VertexId(0)], 2, 40, seed);
        prop_assert!(report.is_valid(), "{}", report);
    }

    /// Canonical replacement paths avoid their fault set and are exactly as
    /// long as the replacement distance.
    #[test]
    fn replacement_paths_avoid_faults_and_are_optimal(n in 10usize..25, seed in 0u64..300) {
        let g = generators::connected_gnp(n, 0.18, seed);
        let w = TieBreak::new(&g, seed);
        let edges: Vec<_> = g.edges().collect();
        let e1 = edges[(seed as usize) % edges.len()];
        let e2 = edges[(seed as usize * 7 + 3) % edges.len()];
        let faults = FaultSet::pair(e1, e2);
        let view = GraphView::new(&g).without_faults(&faults);
        let sp = dijkstra(&view, &w, VertexId(0), None);
        let unweighted = bfs(&view, VertexId(0));
        for v in g.vertices() {
            prop_assert_eq!(sp.hops(v), unweighted.distance(v));
            if let Some(p) = sp.path_to(v) {
                prop_assert!(!faults.intersects_path(&g, &p));
                prop_assert_eq!(p.len() as u32, unweighted.distance(v).unwrap());
            }
        }
    }

    /// The step-1 earliest-divergence replacement path decomposes into
    /// prefix ∘ detour ∘ suffix, reassembles to an optimal path, and its
    /// detour avoids the failed edge.
    #[test]
    fn earliest_divergence_decomposition_roundtrip(n in 10usize..22, seed in 0u64..300) {
        let g = generators::connected_gnp(n, 0.2, seed);
        let w = TieBreak::new(&g, seed);
        let tree = ftbfs_graph::SpTree::new(&g, &w, VertexId(0));
        let rep = SingleFailureReplacer::new(&g, &w, &tree);
        let mut engine = ftbfs_graph::SearchEngine::new();
        for v in g.vertices() {
            if v == VertexId(0) || !tree.reaches(v) {
                continue;
            }
            let pi = tree.pi(v).unwrap();
            for e in pi.edge_ids(&g) {
                if let Some(dec) = rep.earliest_divergence_replacement(&mut engine, v, e) {
                    let p = dec.reassemble();
                    prop_assert_eq!(p.source(), VertexId(0));
                    prop_assert_eq!(p.target(), v);
                    let ep = g.endpoints(e);
                    prop_assert!(!p.contains_edge(ep.u, ep.v));
                    let expected = bfs(&GraphView::new(&g).without_edge(e), VertexId(0))
                        .distance(v)
                        .unwrap();
                    prop_assert_eq!(p.len() as u32, expected);
                    // Round-trip: decomposing the reassembled path again gives
                    // the same attachment points.
                    if let Some(dec2) = decompose(&pi, &p) {
                        prop_assert_eq!(dec2.detour.x, dec.detour.x);
                        prop_assert_eq!(dec2.detour.y, dec.detour.y);
                    }
                }
            }
        }
    }

    /// Lemma 4.3 for random gadget parameters: every leaf survives its own
    /// label at its recorded distance and every leaf to the right is hurt.
    #[test]
    fn lower_bound_gadget_labels_hold(f in 1usize..3, d in 1usize..5) {
        let gf = GfGraph::new(f, d);
        let g = &gf.graph;
        let root = gf.component.root;
        for (j, leaf) in gf.component.leaves.iter().enumerate() {
            let faults = FaultSet::from_iter(gf.label_edges(j));
            let res = bfs(&GraphView::new(g).without_faults(&faults), root);
            prop_assert_eq!(res.distance(leaf.vertex), Some(leaf.path_len as u32));
            for right in &gf.component.leaves[j + 1..] {
                let dist = res.distance(right.vertex);
                prop_assert!(dist.is_none() || dist.unwrap() as u64 > right.path_len);
            }
        }
    }

    /// Fault sets are canonical: order and duplicates never matter.
    #[test]
    fn fault_set_canonicalisation(a in 0u32..50, b in 0u32..50, c in 0u32..50) {
        use ftbfs_graph::EdgeId;
        let f1 = FaultSet::from_iter([EdgeId(a), EdgeId(b), EdgeId(c)]);
        let f2 = FaultSet::from_iter([EdgeId(c), EdgeId(a), EdgeId(b), EdgeId(a)]);
        prop_assert_eq!(f1.clone(), f2);
        prop_assert!(f1.len() <= 3);
        prop_assert!(f1.contains(EdgeId(a)) && f1.contains(EdgeId(b)) && f1.contains(EdgeId(c)));
    }

    /// The tie-breaking weights always produce hop-shortest unique paths:
    /// Dijkstra hop distances equal BFS distances on arbitrary graphs.
    #[test]
    fn tiebreak_preserves_hop_distances(n in 5usize..40, m in 4usize..120, seed in 0u64..1000) {
        let g = generators::gnm(n, m, seed);
        let w = TieBreak::new(&g, seed ^ 0xABC);
        let view = GraphView::new(&g);
        let sp = dijkstra(&view, &w, VertexId(0), None);
        let bf = bfs(&view, VertexId(0));
        for v in g.vertices() {
            prop_assert_eq!(sp.hops(v), bf.distance(v));
        }
    }
}
