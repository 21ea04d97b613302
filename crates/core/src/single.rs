//! Single-failure FT-BFS structures — the `O(n^{3/2})` construction of
//! Parter & Peleg (ESA 2013) that the paper builds on and benchmarks against.
//!
//! The construction is the `f = 1` specialisation of the "last edge of every
//! replacement path" principle: start from the BFS tree `T_0(s)` and, for
//! every vertex `v` and every failing edge `e ∈ π(s, v)`, add the last edge
//! of the replacement path `P_{s,v,{e}}`.

use crate::structure::FtBfsStructure;
use ftbfs_graph::{Graph, SpTree, TieBreak, VertexId};
use ftbfs_paths::replacement::for_each_tree_edge_failure;

/// Builds a single-failure FT-BFS structure rooted at `source`.
///
/// The output contains the BFS tree `T_0(source)` plus the last edge of the
/// canonical replacement path `P_{s,v,{e}}` for every vertex `v` and every
/// tree edge `e` on `π(s, v)`; by \[PP13\] this is a 1-FT-BFS structure with
/// `O(n^{3/2})` edges.
///
/// Failures of non-tree edges never affect `π(s, v)` and therefore need no
/// replacement paths.
pub fn single_failure_ftbfs(graph: &Graph, w: &TieBreak, source: VertexId) -> FtBfsStructure {
    let tree = SpTree::new(graph, w, source);
    let mut h = FtBfsStructure::new(vec![source], 1);
    h.extend(tree.tree_edges().iter().copied());

    // For every failed tree edge e, one Dijkstra in G ∖ {e} yields the
    // replacement paths for all targets at once (the batch driver reuses one
    // search engine across all edges, so the loop allocates nothing); we add
    // the last edge of the replacement path of every vertex whose canonical
    // path used e.
    for_each_tree_edge_failure(graph, w, &tree, |e, sp| {
        for v in graph.vertices() {
            // e lies on π(s, v) iff the tree path from v to the root traverses
            // e (a distance change would miss equal-length alternatives); the
            // walk is cheap because tree depth is the BFS depth.
            if v == source || !pi_uses_edge(&tree, v, e) {
                continue;
            }
            if let Some((_, last)) = sp.parent(v) {
                debug_assert_ne!(last, e);
                h.insert(last);
            }
        }
    });
    h
}

/// Builds a single-failure FT-MBFS structure for a set of sources: the union
/// of the single-source structures (the multi-source form studied in \[PP13\]).
pub fn single_failure_ftmbfs(graph: &Graph, w: &TieBreak, sources: &[VertexId]) -> FtBfsStructure {
    let mut h = FtBfsStructure::new(sources.to_vec(), 1);
    for &s in sources {
        let part = single_failure_ftbfs(graph, w, s);
        h.extend(part.edges());
    }
    h
}

/// Returns `true` if the tree edge `e` lies on the tree path from the root to
/// `v`.
fn pi_uses_edge(tree: &SpTree, v: VertexId, e: ftbfs_graph::EdgeId) -> bool {
    let mut cur = v;
    while let Some((p, pe)) = tree.parent(cur) {
        if pe == e {
            return true;
        }
        cur = p;
    }
    false
}

/// The number of edges of the plain BFS tree (baseline for size comparisons).
pub fn bfs_tree_size(graph: &Graph, w: &TieBreak, source: VertexId) -> usize {
    SpTree::new(graph, w, source).tree_edges().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::{bfs, generators, FaultSpec, GraphView};

    fn verify_single_failure(graph: &Graph, h: &FtBfsStructure, source: VertexId) {
        // Exhaustive check of the 1-FT-BFS property over every single failed
        // edge of G.
        let hview = h.as_view(graph);
        for e in graph.edges() {
            let f = FaultSpec::from(e);
            let gview = GraphView::new(graph).without_faults(&f);
            let hfview = h.as_view(graph).without_faults(&f);
            let gd = bfs(&gview, source);
            let hd = bfs(&hfview, source);
            for v in graph.vertices() {
                assert_eq!(
                    gd.distance(v),
                    hd.distance(v),
                    "distance mismatch for v={v:?} with failed edge {e:?}"
                );
            }
        }
        let _ = hview;
    }

    #[test]
    fn cycle_structure_is_whole_cycle() {
        let g = generators::cycle(9);
        let w = TieBreak::new(&g, 1);
        let h = single_failure_ftbfs(&g, &w, VertexId(0));
        // Every edge of a cycle is needed to recover from some failure.
        assert_eq!(h.edge_count(), 9);
        verify_single_failure(&g, &h, VertexId(0));
    }

    #[test]
    fn grid_structure_verifies_and_is_sparse() {
        let g = generators::grid(4, 4);
        let w = TieBreak::new(&g, 7);
        let h = single_failure_ftbfs(&g, &w, VertexId(0));
        assert!(h.edge_count() <= g.edge_count());
        assert!(h.edge_count() >= g.vertex_count() - 1);
        verify_single_failure(&g, &h, VertexId(0));
    }

    #[test]
    fn random_graph_structures_verify() {
        for seed in 0..3 {
            let g = generators::connected_gnp(24, 0.12, seed);
            let w = TieBreak::new(&g, seed);
            let h = single_failure_ftbfs(&g, &w, VertexId(0));
            verify_single_failure(&g, &h, VertexId(0));
        }
    }

    #[test]
    fn tree_graph_needs_only_the_tree() {
        let g = generators::balanced_binary_tree(4);
        let w = TieBreak::new(&g, 3);
        let h = single_failure_ftbfs(&g, &w, VertexId(0));
        // In a tree there are no replacement paths: failures disconnect.
        assert_eq!(h.edge_count(), g.vertex_count() - 1);
    }

    #[test]
    fn multi_source_structure_contains_single_source_ones() {
        let g = generators::connected_gnp(20, 0.15, 5);
        let w = TieBreak::new(&g, 5);
        let sources = [VertexId(0), VertexId(7)];
        let multi = single_failure_ftmbfs(&g, &w, &sources);
        for &s in &sources {
            let single = single_failure_ftbfs(&g, &w, s);
            for e in single.edges() {
                assert!(multi.contains(e));
            }
            verify_single_failure(&g, &multi, s);
        }
        assert_eq!(multi.sources(), &sources);
    }

    #[test]
    fn bfs_tree_size_matches_reachable_count() {
        let g = generators::grid(3, 5);
        let w = TieBreak::new(&g, 2);
        assert_eq!(bfs_tree_size(&g, &w, VertexId(0)), 14);
    }
}
