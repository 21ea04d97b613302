//! The `O(log n)` approximation algorithm for Minimum FT-MBFS (Section 5).
//!
//! Given a graph `G`, a source set `S` and a fault budget `f`, the algorithm
//! builds, for every vertex `v_i` and every neighbour `u_j`, the set
//!
//! ```text
//! S_{i,j} = { ⟨s_k, F⟩ : dist(s_k, u_j, G ∖ F) = dist(s_k, v_i, G ∖ F) − 1 }
//! ```
//!
//! over the universe `U = { ⟨s_k, F⟩ : s_k ∈ S, F ⊆ E, |F| ≤ f }`, and keeps,
//! per vertex, a greedy set cover of `U`.  The chosen sets correspond to the
//! edges incident to `v_i` that are kept in the structure.  Lemma 5.1 shows
//! the output is an `f`-FT-MBFS structure; Lemma 5.3 bounds its size by
//! `O(log n) · OPT`.
//!
//! The universe has `O(σ · m^f)` elements, so the algorithm is practical for
//! small graphs and constant `f` — exactly the regime the paper positions it
//! for (instances whose optimal structure is much sparser than the
//! worst-case bound).

use crate::setcover::greedy_set_cover;
use crate::structure::FtBfsStructure;
use ftbfs_graph::fault::enumerate_fault_sets;
use ftbfs_graph::{Graph, SearchEngine, VertexId};

/// Builds an `f`-failure FT-MBFS structure for the source set `sources` using
/// the Section 5 greedy set-cover algorithm.
///
/// # Panics
///
/// Panics if `sources` is empty.
pub fn approx_minimum_ftmbfs(graph: &Graph, sources: &[VertexId], f: usize) -> FtBfsStructure {
    assert!(!sources.is_empty(), "at least one source is required");
    let fault_sets = enumerate_fault_sets(graph, f);

    // Precompute dist(s_k, ·, G ∖ F) for every source and fault set, all
    // through one reusable search engine (one BFS per ⟨source, F⟩ pair).
    let mut engine = SearchEngine::new();
    let distances: Vec<Vec<Vec<Option<u32>>>> = sources
        .iter()
        .map(|&s| {
            fault_sets
                .iter()
                .map(|fs| {
                    let (view, ws) = engine.begin(graph);
                    view.remove_faults(fs);
                    let res = ws.bfs(view, s);
                    graph.vertices().map(|v| res.hops(v)).collect()
                })
                .collect()
        })
        .collect();

    let mut h = FtBfsStructure::new(sources.to_vec(), f);

    for v in graph.vertices() {
        // Per-vertex universe: the pairs ⟨s_k, F⟩ for which v is reachable
        // and v ≠ s_k (a source needs no incoming structure edge for itself).
        let mut universe: Vec<(usize, usize)> = Vec::new();
        for (k, _s) in sources.iter().enumerate() {
            for (fi, _fs) in fault_sets.iter().enumerate() {
                if sources[k] != v && distances[k][fi][v.index()].is_some() {
                    universe.push((k, fi));
                }
            }
        }
        if universe.is_empty() {
            continue;
        }
        let neighbours = graph.neighbors(v);
        let sets: Vec<Vec<usize>> = neighbours
            .iter()
            .map(|&(u, e)| {
                universe
                    .iter()
                    .enumerate()
                    .filter_map(|(idx, &(k, fi))| {
                        // The pair ⟨s_k, F⟩ is served by the edge (u, v) only
                        // if a shortest path in G ∖ F can actually end with
                        // that edge: the predecessor condition of Eq. (16)
                        // *and* the edge itself must have survived F.
                        if fault_sets[fi].contains(e) {
                            return None;
                        }
                        let dv = distances[k][fi][v.index()]?;
                        let du = distances[k][fi][u.index()]?;
                        (du + 1 == dv).then_some(idx)
                    })
                    .collect()
            })
            .collect();
        let cover = greedy_set_cover(universe.len(), &sets);
        debug_assert!(
            cover.uncoverable.is_empty(),
            "every reachable pair has a predecessor neighbour"
        );
        for idx in cover.chosen {
            h.insert(neighbours[idx].1);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::{bfs, generators, GraphView};

    /// Exhaustively checks the f-FT-MBFS property for all fault sets of size
    /// ≤ f (small graphs only).
    fn verify(graph: &Graph, h: &FtBfsStructure, sources: &[VertexId], f: usize) {
        for fs in enumerate_fault_sets(graph, f) {
            for &s in sources {
                let gview = GraphView::new(graph).without_faults(&fs);
                let hview = h.as_view(graph).without_faults(&fs);
                let gd = bfs(&gview, s);
                let hd = bfs(&hview, s);
                for v in graph.vertices() {
                    assert_eq!(
                        gd.distance(v),
                        hd.distance(v),
                        "mismatch at v={v:?} under {fs:?} from {s:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_set_enumeration_counts() {
        let g = generators::cycle(5);
        assert_eq!(enumerate_fault_sets(&g, 0).len(), 1);
        assert_eq!(enumerate_fault_sets(&g, 1).len(), 1 + 5);
        assert_eq!(enumerate_fault_sets(&g, 2).len(), 1 + 5 + 10);
        // All enumerated sets are distinct.
        let sets = enumerate_fault_sets(&g, 2);
        let unique: std::collections::HashSet<_> = sets.iter().cloned().collect();
        assert_eq!(unique.len(), sets.len());
    }

    #[test]
    fn single_failure_approx_verifies_on_cycle() {
        let g = generators::cycle(8);
        let h = approx_minimum_ftmbfs(&g, &[VertexId(0)], 1);
        verify(&g, &h, &[VertexId(0)], 1);
        // On a cycle, the optimum single-failure structure is the whole cycle.
        assert_eq!(h.edge_count(), 8);
    }

    #[test]
    fn dual_failure_approx_verifies_on_small_graphs() {
        for seed in 0..2 {
            let g = generators::tree_plus_chords(10, 4, seed);
            let h = approx_minimum_ftmbfs(&g, &[VertexId(0)], 2);
            verify(&g, &h, &[VertexId(0)], 2);
        }
    }

    #[test]
    fn multi_source_approx_verifies() {
        let g = generators::connected_gnp(10, 0.25, 6);
        let sources = [VertexId(0), VertexId(3)];
        let h = approx_minimum_ftmbfs(&g, &sources, 1);
        verify(&g, &h, &sources, 1);
        assert_eq!(h.sources(), &sources);
        assert_eq!(h.resilience(), 1);
    }

    #[test]
    fn approx_no_larger_than_graph_and_spans_reachable_vertices() {
        let g = generators::hub_and_spokes(3, 10, 2, 4);
        let h = approx_minimum_ftmbfs(&g, &[VertexId(0)], 1);
        assert!(h.edge_count() <= g.edge_count());
        // Every non-source vertex keeps at least one incident structure edge.
        for v in g.vertices() {
            if v != VertexId(0) {
                assert!(h.degree_in_structure(&g, v) >= 1);
            }
        }
    }

    #[test]
    fn approx_handles_disconnected_graphs() {
        let mut b = ftbfs_graph::GraphBuilder::new(6);
        b.add_path(&[VertexId(0), VertexId(1), VertexId(2)]);
        b.add_edge(VertexId(3), VertexId(4));
        // vertex 5 isolated
        let g = b.build();
        let h = approx_minimum_ftmbfs(&g, &[VertexId(0)], 1);
        verify(&g, &h, &[VertexId(0)], 1);
        // Unreachable parts contribute no edges.
        assert!(h.edge_count() <= 2);
    }

    #[test]
    #[should_panic]
    fn empty_source_set_panics() {
        let g = generators::cycle(4);
        let _ = approx_minimum_ftmbfs(&g, &[], 1);
    }
}
