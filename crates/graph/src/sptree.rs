//! The source shortest-path tree `T_0(s)` under `W` and the canonical
//! source-to-vertex paths `π(s, v)`.
//!
//! Because `W` makes shortest paths unique, the union of the paths
//! `π(s, v) = SP(s, v, G, W)` over all `v` forms a tree, which is also a BFS
//! tree of the unweighted graph.  All constructions in the paper start from
//! this tree.

use crate::dijkstra::{dijkstra, ShortestPaths};
use crate::fault::GraphView;
use crate::graph::{EdgeId, Graph, VertexId};
use crate::path::Path;
use crate::tiebreak::TieBreak;

/// The shortest-path (BFS) tree `T_0(s)` rooted at a source `s`, computed
/// under a tie-breaking weight assignment `W`.
///
/// # Examples
///
/// ```
/// use ftbfs_graph::{generators, SpTree, TieBreak, VertexId};
///
/// let g = generators::cycle(6);
/// let w = TieBreak::new(&g, 1);
/// let tree = SpTree::new(&g, &w, VertexId(0));
/// assert_eq!(tree.depth(VertexId(3)), Some(3));
/// let pi = tree.pi(VertexId(2)).unwrap();
/// assert_eq!(pi.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct SpTree {
    source: VertexId,
    sp: ShortestPaths,
    tree_edges: Vec<EdgeId>,
}

impl SpTree {
    /// Computes the shortest-path tree of `graph` rooted at `source` under
    /// weights `w`.
    pub fn new(graph: &Graph, w: &TieBreak, source: VertexId) -> Self {
        let sp = dijkstra(&GraphView::new(graph), w, source, None);
        let mut tree_edges: Vec<EdgeId> = (0..graph.vertex_count())
            .filter_map(|i| sp.parent(VertexId::new(i)).map(|(_, e)| e))
            .collect();
        tree_edges.sort_unstable();
        tree_edges.dedup();
        SpTree {
            source,
            sp,
            tree_edges,
        }
    }

    /// The root (source) of the tree.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The depth of `v` in the tree — the unweighted distance
    /// `dist(s, v, G)` — or `None` if `v` is unreachable from the source.
    pub fn depth(&self, v: VertexId) -> Option<u32> {
        self.sp.hops(v)
    }

    /// The `W`-weight of `π(s, v)`.
    pub fn weight(&self, v: VertexId) -> Option<u64> {
        self.sp.weight(v)
    }

    /// Returns `true` if `v` is reachable from the source.
    pub fn reaches(&self, v: VertexId) -> bool {
        self.sp.reached(v)
    }

    /// The parent of `v` in the tree with the connecting tree edge.
    pub fn parent(&self, v: VertexId) -> Option<(VertexId, EdgeId)> {
        self.sp.parent(v)
    }

    /// The canonical source-to-`v` shortest path `π(s, v)`, or `None` if `v`
    /// is unreachable.
    pub fn pi(&self, v: VertexId) -> Option<Path> {
        self.sp.path_to(v)
    }

    /// The set of tree edges, sorted by edge id.
    pub fn tree_edges(&self) -> &[EdgeId] {
        &self.tree_edges
    }

    /// Returns `true` if `e` is one of the tree's edges.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.tree_edges.binary_search(&e).is_ok()
    }

    /// Number of vertices reachable from the source (including the source).
    pub fn reachable_count(&self) -> usize {
        self.sp.reached_vertices().count()
    }

    /// The depth of the whole tree: the maximum depth over reachable
    /// vertices.
    pub fn tree_depth(&self) -> u32 {
        self.sp
            .reached_vertices()
            .map(|(_, w)| TieBreak::hops_of_weight(w))
            .max()
            .unwrap_or(0)
    }

    /// Iterator over reachable vertices in increasing `W`-distance order is
    /// not needed; this returns them in vertex-id order with their depths.
    pub fn reachable_vertices(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        self.sp
            .reached_vertices()
            .map(|(v, w)| (v, TieBreak::hops_of_weight(w)))
    }

    /// Access to the underlying [`ShortestPaths`] result.
    pub fn shortest_paths(&self) -> &ShortestPaths {
        &self.sp
    }

    /// The distance `dist(s, e)` of a tree edge `e = (x, y)` as defined in
    /// the paper: `i` such that `depth(x) = i - 1` and `depth(y) = i`.
    /// Returns `None` if the edge endpoints are not at consecutive depths
    /// from the source (i.e. the edge is not a tree-style edge).
    pub fn edge_distance(&self, graph: &Graph, e: EdgeId) -> Option<u32> {
        let ep = graph.endpoints(e);
        let du = self.depth(ep.u)?;
        let dv = self.depth(ep.v)?;
        if du + 1 == dv {
            Some(dv)
        } else if dv + 1 == du {
            Some(du)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(VertexId::new(i), VertexId::new((i + 1) % n));
        }
        b.build()
    }

    #[test]
    fn tree_depths_on_cycle() {
        let g = cycle(8);
        let w = TieBreak::new(&g, 2);
        let t = SpTree::new(&g, &w, v(0));
        assert_eq!(t.depth(v(0)), Some(0));
        assert_eq!(t.depth(v(1)), Some(1));
        assert_eq!(t.depth(v(7)), Some(1));
        assert_eq!(t.depth(v(4)), Some(4));
        assert_eq!(t.tree_depth(), 4);
        assert_eq!(t.reachable_count(), 8);
        assert_eq!(t.source(), v(0));
    }

    #[test]
    fn tree_edge_count_is_reachable_minus_one() {
        let g = cycle(9);
        let w = TieBreak::new(&g, 3);
        let t = SpTree::new(&g, &w, v(0));
        assert_eq!(t.tree_edges().len(), 8);
        for &e in t.tree_edges() {
            assert!(t.contains_edge(e));
        }
        // exactly one cycle edge is not in the tree
        let non_tree: Vec<_> = g.edges().filter(|&e| !t.contains_edge(e)).collect();
        assert_eq!(non_tree.len(), 1);
    }

    #[test]
    fn pi_paths_follow_parents() {
        let g = cycle(7);
        let w = TieBreak::new(&g, 4);
        let t = SpTree::new(&g, &w, v(0));
        for x in g.vertices() {
            let pi = t.pi(x).unwrap();
            assert_eq!(pi.len() as u32, t.depth(x).unwrap());
            assert!(pi.is_valid_in(&g));
            // every edge of pi is a tree edge
            for e in pi.edge_ids(&g) {
                assert!(t.contains_edge(e));
            }
        }
    }

    #[test]
    fn unreachable_component() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(v(0), v(1));
        b.add_edge(v(2), v(3));
        let g = b.build();
        let w = TieBreak::new(&g, 1);
        let t = SpTree::new(&g, &w, v(0));
        assert!(t.reaches(v(1)));
        assert!(!t.reaches(v(2)));
        assert_eq!(t.pi(v(3)), None);
        assert_eq!(t.reachable_count(), 2);
    }

    #[test]
    fn edge_distance_matches_depths() {
        let g = cycle(6);
        let w = TieBreak::new(&g, 8);
        let t = SpTree::new(&g, &w, v(0));
        let e01 = g.edge_between(v(0), v(1)).unwrap();
        assert_eq!(t.edge_distance(&g, e01), Some(1));
        let e12 = g.edge_between(v(1), v(2)).unwrap();
        assert_eq!(t.edge_distance(&g, e12), Some(2));
        // The "back" edge (3,4) connects depth-3 and depth-2 vertices.
        let e34 = g.edge_between(v(3), v(4)).unwrap();
        assert_eq!(t.edge_distance(&g, e34), Some(3));
    }
}
