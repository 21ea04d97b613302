//! Plain breadth-first search over (restricted views of) a graph.
//!
//! BFS gives the unweighted distances `dist(s, v, G')` that define
//! FT-BFS correctness: a subgraph `H` is an `f`-FT-BFS structure iff
//! `dist(s, v, H ∖ F) = dist(s, v, G ∖ F)` for every `v` and every fault set
//! `F` with `|F| ≤ f`.  The verification crate runs this BFS on both sides of
//! that equation.

use crate::fault::GraphView;
use crate::graph::{EdgeId, VertexId};
use crate::path::Path;
use std::collections::VecDeque;

/// The result of a breadth-first search from a single source.
#[derive(Clone, Debug)]
pub struct BfsResult {
    source: VertexId,
    dist: Vec<Option<u32>>,
    parent: Vec<Option<(VertexId, EdgeId)>>,
}

impl BfsResult {
    /// The source vertex of the search.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The unweighted distance from the source to `v`, or `None` if `v` is
    /// unreachable in the searched view.
    #[inline]
    pub fn distance(&self, v: VertexId) -> Option<u32> {
        self.dist[v.index()]
    }

    /// Returns `true` if `v` was reached by the search.
    pub fn reached(&self, v: VertexId) -> bool {
        self.dist[v.index()].is_some()
    }

    /// The BFS parent of `v` (`None` for the source and unreachable
    /// vertices), together with the tree edge used.
    pub fn parent(&self, v: VertexId) -> Option<(VertexId, EdgeId)> {
        self.parent[v.index()]
    }

    /// Number of vertices reached (including the source).
    pub fn reached_count(&self) -> usize {
        self.dist.iter().filter(|d| d.is_some()).count()
    }

    /// Maximum distance over all reached vertices (the eccentricity of the
    /// source within its component).
    pub fn eccentricity(&self) -> u32 {
        self.dist.iter().flatten().copied().max().unwrap_or(0)
    }

    /// Reconstructs a shortest path from the source to `v` along BFS parents.
    /// Returns `None` if `v` was not reached.
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

    /// Iterator over all reached vertices together with their distances.
    pub fn reached_vertices(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        self.dist
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|d| (VertexId::new(i), d)))
    }
}

/// Runs a breadth-first search from `source` in the restricted view.
///
/// Vertices and edges filtered out by the view are never traversed.  If the
/// source itself is removed by the view, only the source is reported (at
/// distance zero) and nothing else is reached.
pub fn bfs(view: &GraphView<'_>, source: VertexId) -> BfsResult {
    let n = view.vertex_bound();
    let mut dist = vec![None; n];
    let mut parent = vec![None; n];
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0);
    if view.allows_vertex(source) {
        queue.push_back(source);
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued vertex has a distance");
        for &(w, e) in view.graph().neighbors(u) {
            if dist[w.index()].is_none() && view.allows_edge(e) {
                dist[w.index()] = Some(du + 1);
                parent[w.index()] = Some((u, e));
                queue.push_back(w);
            }
        }
    }
    BfsResult {
        source,
        dist,
        parent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, GraphBuilder};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// 0-1-2-3 path plus a chord 0-3.
    fn diamond() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(v(0), v(1));
        b.add_edge(v(1), v(2));
        b.add_edge(v(2), v(3));
        b.add_edge(v(0), v(3));
        b.build()
    }

    #[test]
    fn distances_on_full_graph() {
        let g = diamond();
        let res = bfs(&GraphView::new(&g), v(0));
        assert_eq!(res.distance(v(0)), Some(0));
        assert_eq!(res.distance(v(1)), Some(1));
        assert_eq!(res.distance(v(2)), Some(2));
        assert_eq!(res.distance(v(3)), Some(1));
        assert_eq!(res.reached_count(), 4);
        assert_eq!(res.eccentricity(), 2);
        assert_eq!(res.source(), v(0));
    }

    #[test]
    fn distances_after_edge_removal() {
        let g = diamond();
        let chord = g.edge_between(v(0), v(3)).unwrap();
        let res = bfs(&GraphView::new(&g).without_edge(chord), v(0));
        assert_eq!(res.distance(v(3)), Some(3));
    }

    #[test]
    fn unreachable_vertices() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(v(0), v(1));
        // 2 and 3 are isolated from 0.
        b.add_edge(v(2), v(3));
        let g = b.build();
        let res = bfs(&GraphView::new(&g), v(0));
        assert_eq!(res.distance(v(2)), None);
        assert!(!res.reached(v(3)));
        assert_eq!(res.path_to(v(3)), None);
        assert_eq!(res.reached_count(), 2);
    }

    #[test]
    fn path_reconstruction() {
        let g = diamond();
        let res = bfs(&GraphView::new(&g), v(0));
        let p = res.path_to(v(2)).unwrap();
        assert_eq!(p.source(), v(0));
        assert_eq!(p.target(), v(2));
        assert_eq!(p.len(), 2);
        assert!(p.is_valid_in(&g));
        assert_eq!(res.path_to(v(0)).unwrap().len(), 0);
    }

    #[test]
    fn parents_consistent_with_distances() {
        let g = diamond();
        let res = bfs(&GraphView::new(&g), v(0));
        for (w, d) in res.reached_vertices() {
            if w == v(0) {
                assert_eq!(d, 0);
                assert!(res.parent(w).is_none());
            } else {
                let (p, e) = res.parent(w).unwrap();
                assert_eq!(res.distance(p).unwrap() + 1, d);
                assert!(g.endpoints(e).contains(w));
                assert!(g.endpoints(e).contains(p));
            }
        }
    }

    #[test]
    fn removed_source_reaches_nothing_else() {
        let g = diamond();
        let view = GraphView::new(&g).without_vertices([v(0)]);
        let res = bfs(&view, v(0));
        assert_eq!(res.reached_count(), 1);
        assert_eq!(res.distance(v(1)), None);
    }
}
