//! Dijkstra search under the tie-breaking weight assignment `W`.
//!
//! Under [`TieBreak`], every shortest path is
//! unique (with overwhelming probability) and is also hop-shortest, so the
//! result doubles as the canonical shortest-path function `SP(s, v, G', W)`
//! used throughout the paper.
//!
//! The free [`dijkstra`] function allocates an owned [`ShortestPaths`] per
//! call and is the right tool for one-off queries and results that outlive
//! the search (e.g. [`crate::sptree::SpTree`]).  Hot loops that issue many
//! searches should use [`crate::workspace::SearchWorkspace`] instead, which
//! runs the *same* algorithm (identical tie-breaking, identical early-exit
//! semantics) over reusable epoch-stamped arrays: a per-vertex slot is valid
//! only while its stamp matches the workspace's current epoch, so starting a
//! new search invalidates all previous state in `O(1)` without reallocating
//! or clearing.  Both entry points accept any [`Restriction`] — an owned
//! [`crate::fault::GraphView`] or a borrowed
//! [`crate::fault::OverlayView`].

use crate::fault::Restriction;
use crate::graph::{EdgeId, VertexId};
use crate::path::Path;
use crate::tiebreak::TieBreak;
use crate::workspace::SearchWorkspace;

/// Shortest-path distances and parents computed by [`dijkstra`].
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    source: VertexId,
    dist: Vec<Option<u64>>,
    parent: Vec<Option<(VertexId, EdgeId)>>,
}

impl ShortestPaths {
    /// Assembles a result from raw parts (used by the workspace exporter).
    pub(crate) fn from_parts(
        source: VertexId,
        dist: Vec<Option<u64>>,
        parent: Vec<Option<(VertexId, EdgeId)>>,
    ) -> Self {
        ShortestPaths {
            source,
            dist,
            parent,
        }
    }
    /// The source vertex of the search.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The `W`-weight of the unique shortest path from the source to `v`,
    /// or `None` if `v` is unreachable.
    #[inline]
    pub fn weight(&self, v: VertexId) -> Option<u64> {
        self.dist[v.index()]
    }

    /// The hop length of the shortest path from the source to `v`.
    #[inline]
    pub fn hops(&self, v: VertexId) -> Option<u32> {
        self.dist[v.index()].map(TieBreak::hops_of_weight)
    }

    /// Returns `true` if `v` was reached.
    pub fn reached(&self, v: VertexId) -> bool {
        self.dist[v.index()].is_some()
    }

    /// The parent of `v` in the shortest-path tree, with the tree edge.
    pub fn parent(&self, v: VertexId) -> Option<(VertexId, EdgeId)> {
        self.parent[v.index()]
    }

    /// Reconstructs the unique `W`-shortest path from the source to `v`.
    pub fn path_to(&self, v: VertexId) -> Option<Path> {
        self.dist[v.index()]?;
        let mut vertices = vec![v];
        let mut cur = v;
        while let Some((p, _)) = self.parent[cur.index()] {
            vertices.push(p);
            cur = p;
        }
        debug_assert_eq!(cur, self.source);
        vertices.reverse();
        Some(Path::new(vertices))
    }

    /// Iterator over all reached vertices with their `W`-weights.
    pub fn reached_vertices(&self) -> impl Iterator<Item = (VertexId, u64)> + '_ {
        self.dist
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|d| (VertexId::new(i), d)))
    }
}

/// Runs Dijkstra from `source` in the restricted `view` under weights `w`.
///
/// When `target` is `Some(t)`, the search stops as soon as `t` is settled;
/// distances of vertices settled before `t` are exact, others may be missing.
/// When `target` is `None`, all reachable vertices are settled.
///
/// Allocates a fresh [`ShortestPaths`] per call; use
/// [`SearchWorkspace::dijkstra`] in loops.
pub fn dijkstra<R: Restriction>(
    view: &R,
    w: &TieBreak,
    source: VertexId,
    target: Option<VertexId>,
) -> ShortestPaths {
    SearchWorkspace::new()
        .dijkstra(view, w, source, target)
        .to_shortest_paths()
}

/// Convenience wrapper: the `W`-weight of the shortest `source → target`
/// path in `view`, or `None` if unreachable.
pub fn shortest_weight<R: Restriction>(
    view: &R,
    w: &TieBreak,
    source: VertexId,
    target: VertexId,
) -> Option<u64> {
    dijkstra(view, w, source, Some(target)).weight(target)
}

/// Convenience wrapper: the unique `W`-shortest `source → target` path in
/// `view`, or `None` if unreachable.  This is the paper's
/// `SP(source, target, view, W)`.
pub fn shortest_path<R: Restriction>(
    view: &R,
    w: &TieBreak,
    source: VertexId,
    target: VertexId,
) -> Option<Path> {
    dijkstra(view, w, source, Some(target)).path_to(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::fault::GraphView;
    use crate::graph::{Graph, GraphBuilder};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// A 3x3 grid graph (vertex r*3+c).
    fn grid3() -> Graph {
        let mut b = GraphBuilder::new(9);
        for r in 0..3u32 {
            for c in 0..3u32 {
                let id = r * 3 + c;
                if c + 1 < 3 {
                    b.add_edge(v(id), v(id + 1));
                }
                if r + 1 < 3 {
                    b.add_edge(v(id), v(id + 3));
                }
            }
        }
        b.build()
    }

    #[test]
    fn hop_distances_match_bfs() {
        let g = grid3();
        let w = TieBreak::new(&g, 17);
        let view = GraphView::new(&g);
        let sp = dijkstra(&view, &w, v(0), None);
        let bf = bfs(&view, v(0));
        for x in g.vertices() {
            assert_eq!(sp.hops(x), bf.distance(x), "vertex {x:?}");
        }
    }

    #[test]
    fn paths_are_valid_and_optimal() {
        let g = grid3();
        let w = TieBreak::new(&g, 5);
        let view = GraphView::new(&g);
        let sp = dijkstra(&view, &w, v(0), None);
        for x in g.vertices() {
            let p = sp.path_to(x).unwrap();
            assert!(p.is_valid_in(&g));
            assert!(p.is_simple());
            assert_eq!(p.len() as u32, sp.hops(x).unwrap());
            assert_eq!(p.source(), v(0));
            assert_eq!(p.target(), x);
        }
    }

    #[test]
    fn unique_paths_for_different_seeds_are_consistent_within_a_seed() {
        // Between opposite corners of the grid there are several hop-shortest
        // paths; under a fixed W exactly one is returned, and repeatedly.
        let g = grid3();
        for seed in [1u64, 2, 3, 4, 5] {
            let w = TieBreak::new(&g, seed);
            let view = GraphView::new(&g);
            let p1 = shortest_path(&view, &w, v(0), v(8)).unwrap();
            let p2 = shortest_path(&view, &w, v(0), v(8)).unwrap();
            assert_eq!(p1, p2);
            assert_eq!(p1.len(), 4);
        }
    }

    #[test]
    fn early_termination_gives_exact_target_distance() {
        let g = grid3();
        let w = TieBreak::new(&g, 9);
        let view = GraphView::new(&g);
        let full = dijkstra(&view, &w, v(0), None);
        for t in g.vertices() {
            assert_eq!(shortest_weight(&view, &w, v(0), t), full.weight(t));
        }
    }

    #[test]
    fn respects_view_restrictions() {
        let g = grid3();
        let w = TieBreak::new(&g, 13);
        // Remove the two edges incident to the centre's left/top so paths
        // detour around it.
        let e_l = g.edge_between(v(3), v(4)).unwrap();
        let e_t = g.edge_between(v(1), v(4)).unwrap();
        let view = GraphView::new(&g).without_edges([e_l, e_t]);
        let sp = dijkstra(&view, &w, v(0), None);
        let p = sp.path_to(v(4)).unwrap();
        assert!(!p.contains_edge(v(3), v(4)));
        assert!(!p.contains_edge(v(1), v(4)));
        assert_eq!(sp.hops(v(4)), Some(4));
    }

    #[test]
    fn unreachable_target() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(v(0), v(1));
        let g = b.build();
        let w = TieBreak::new(&g, 1);
        let view = GraphView::new(&g);
        assert_eq!(shortest_weight(&view, &w, v(0), v(2)), None);
        assert_eq!(shortest_path(&view, &w, v(0), v(2)), None);
        let sp = dijkstra(&view, &w, v(0), None);
        assert!(!sp.reached(v(2)));
        assert_eq!(sp.weight(v(0)), Some(0));
        assert_eq!(sp.parent(v(1)).unwrap().0, v(0));
    }
}
