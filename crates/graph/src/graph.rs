//! Core graph representation: an undirected, unweighted, simple graph with
//! stable vertex and edge identifiers.
//!
//! The whole FT-BFS theory of the paper is developed for undirected unweighted
//! graphs `G = (V, E)`; this module provides that substrate.  Vertices and
//! edges are identified by dense indices so that per-vertex and per-edge
//! side tables (distances, parents, tie-breaking perturbations, fault masks)
//! can be plain vectors.

use std::fmt;

/// Identifier of a vertex in a [`Graph`].
///
/// Vertex identifiers are dense: a graph with `n` vertices uses ids
/// `0..n`.  The type is a thin wrapper around `u32`, which bounds graphs to
/// about four billion vertices — far beyond anything this crate is used for.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Returns the vertex id as a `usize` index, suitable for indexing
    /// per-vertex tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a vertex id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        VertexId(u32::try_from(index).expect("vertex index exceeds u32::MAX"))
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<usize> for VertexId {
    fn from(index: usize) -> Self {
        VertexId::new(index)
    }
}

/// Identifier of an undirected edge in a [`Graph`].
///
/// Edge identifiers are dense: a graph with `m` edges uses ids `0..m`.
/// Both orientations of an undirected edge share the same id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Returns the edge id as a `usize` index, suitable for indexing
    /// per-edge tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates an edge id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index exceeds u32::MAX"))
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<usize> for EdgeId {
    fn from(index: usize) -> Self {
        EdgeId::new(index)
    }
}

/// The two endpoints of an undirected edge, stored with `u <= v`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Endpoints {
    /// The smaller endpoint.
    pub u: VertexId,
    /// The larger endpoint.
    pub v: VertexId,
}

impl Endpoints {
    /// Normalises a pair of endpoints so that `u <= v`.
    pub fn new(a: VertexId, b: VertexId) -> Self {
        if a <= b {
            Endpoints { u: a, v: b }
        } else {
            Endpoints { u: b, v: a }
        }
    }

    /// Returns the endpoint opposite to `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!(
                "vertex {x:?} is not an endpoint of edge ({:?},{:?})",
                self.u, self.v
            )
        }
    }

    /// Returns `true` if `x` is one of the two endpoints.
    pub fn contains(&self, x: VertexId) -> bool {
        x == self.u || x == self.v
    }
}

/// An undirected, unweighted, simple graph.
///
/// The graph is immutable once constructed (use [`GraphBuilder`] to build
/// one incrementally).  Immutability keeps all derived structures —
/// shortest-path trees, tie-breaking weights, fault-tolerant structures —
/// valid for the lifetime of the graph.
///
/// # Examples
///
/// ```
/// use ftbfs_graph::{Graph, GraphBuilder, VertexId};
///
/// let mut builder = GraphBuilder::new(4);
/// builder.add_edge(VertexId(0), VertexId(1));
/// builder.add_edge(VertexId(1), VertexId(2));
/// builder.add_edge(VertexId(2), VertexId(3));
/// builder.add_edge(VertexId(3), VertexId(0));
/// let graph: Graph = builder.build();
///
/// assert_eq!(graph.vertex_count(), 4);
/// assert_eq!(graph.edge_count(), 4);
/// assert_eq!(graph.degree(VertexId(0)), 2);
/// ```
#[derive(Clone)]
pub struct Graph {
    n: usize,
    endpoints: Vec<Endpoints>,
    /// adjacency: for each vertex, the incident `(neighbour, edge id)` pairs,
    /// sorted by neighbour id for deterministic traversal order.
    adjacency: Vec<Vec<(VertexId, EdgeId)>>,
}

impl Graph {
    pub(crate) fn from_parts(n: usize, endpoints: Vec<Endpoints>) -> Self {
        let mut adjacency: Vec<Vec<(VertexId, EdgeId)>> = vec![Vec::new(); n];
        for (idx, ep) in endpoints.iter().enumerate() {
            let e = EdgeId::new(idx);
            adjacency[ep.u.index()].push((ep.v, e));
            adjacency[ep.v.index()].push((ep.u, e));
        }
        for list in &mut adjacency {
            list.sort_unstable_by_key(|(nbr, _)| nbr.0);
        }
        Graph {
            n,
            endpoints,
            adjacency,
        }
    }

    /// Number of vertices `n = |V|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.n).map(VertexId::new)
    }

    /// Iterator over all edge ids `0..m`.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.endpoints.len()).map(EdgeId::new)
    }

    /// Endpoints of edge `e` (normalised so that `u <= v`).
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a valid edge id.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> Endpoints {
        self.endpoints[e.index()]
    }

    /// Degree of vertex `v` in the graph.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency[v.index()].len()
    }

    /// Incident `(neighbour, edge)` pairs of `v`, sorted by neighbour id.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        &self.adjacency[v.index()]
    }

    /// Edge ids incident to `v` (the set `E(v, G)` of the paper).
    pub fn incident_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.adjacency[v.index()].iter().map(|&(_, e)| e)
    }

    /// Returns the edge id connecting `a` and `b`, if such an edge exists.
    ///
    /// Runs in `O(log deg)` via binary search on the sorted adjacency list.
    pub fn edge_between(&self, a: VertexId, b: VertexId) -> Option<EdgeId> {
        if a.index() >= self.n || b.index() >= self.n {
            return None;
        }
        let list = &self.adjacency[a.index()];
        list.binary_search_by_key(&b.0, |(nbr, _)| nbr.0)
            .ok()
            .map(|pos| list[pos].1)
    }

    /// Returns `true` if the graph has an edge between `a` and `b`.
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.edge_between(a, b).is_some()
    }

    /// Returns `true` if `v` is a valid vertex id of this graph.
    #[inline]
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        v.index() < self.n
    }

    /// Returns `true` if `e` is a valid edge id of this graph.
    #[inline]
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        e.index() < self.endpoints.len()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n)
            .field("m", &self.endpoints.len())
            .finish()
    }
}

/// Incremental builder for [`Graph`].
///
/// The builder silently ignores duplicate edges and self-loops, which keeps
/// random generators simple; the resulting graph is always simple.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Endpoints>,
    seen: std::collections::HashSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            seen: std::collections::HashSet::new(),
        }
    }

    /// Number of vertices the built graph will have.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a fresh vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let v = VertexId::new(self.n);
        self.n += 1;
        v
    }

    /// Adds `count` fresh vertices and returns their ids.
    pub fn add_vertices(&mut self, count: usize) -> Vec<VertexId> {
        (0..count).map(|_| self.add_vertex()).collect()
    }

    /// Adds an undirected edge between `a` and `b`.
    ///
    /// Self-loops and duplicate edges are ignored.  Returns `true` if the
    /// edge was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a valid vertex of the builder.
    pub fn add_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "edge endpoint out of range: ({a:?},{b:?}) with n={}",
            self.n
        );
        if a == b {
            return false;
        }
        let ep = Endpoints::new(a, b);
        if self.seen.insert((ep.u.0, ep.v.0)) {
            self.edges.push(ep);
            true
        } else {
            false
        }
    }

    /// Adds a simple path through the listed vertices (consecutive pairs
    /// become edges).
    pub fn add_path(&mut self, vertices: &[VertexId]) {
        for pair in vertices.windows(2) {
            self.add_edge(pair[0], pair[1]);
        }
    }

    /// Returns `true` if the edge `{a, b}` has already been added.
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        let ep = Endpoints::new(a, b);
        self.seen.contains(&(ep.u.0, ep.v.0))
    }

    /// Finalises the builder into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        Graph::from_parts(self.n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(1), VertexId(2));
        b.add_edge(VertexId(2), VertexId(0));
        b.build()
    }

    #[test]
    fn vertex_and_edge_counts() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.vertices().count(), 3);
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn duplicate_edges_and_self_loops_ignored() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_edge(VertexId(0), VertexId(1)));
        assert!(!b.add_edge(VertexId(1), VertexId(0)));
        assert!(!b.add_edge(VertexId(1), VertexId(1)));
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn adjacency_is_sorted_and_symmetric() {
        let g = triangle();
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            for pair in nbrs.windows(2) {
                assert!(pair[0].0 < pair[1].0);
            }
            for &(u, e) in nbrs {
                assert!(g.endpoints(e).contains(v));
                assert!(g.endpoints(e).contains(u));
                assert!(g.neighbors(u).iter().any(|&(w, e2)| w == v && e2 == e));
            }
        }
    }

    #[test]
    fn edge_between_lookup() {
        let g = triangle();
        assert!(g.has_edge(VertexId(0), VertexId(2)));
        assert!(g.has_edge(VertexId(2), VertexId(0)));
        let e = g.edge_between(VertexId(0), VertexId(2)).unwrap();
        assert_eq!(g.endpoints(e), Endpoints::new(VertexId(2), VertexId(0)));
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1));
        let g2 = b.build();
        assert!(!g2.has_edge(VertexId(2), VertexId(3)));
        assert_eq!(g2.edge_between(VertexId(0), VertexId(3)), None);
    }

    #[test]
    fn endpoints_other_and_contains() {
        let ep = Endpoints::new(VertexId(5), VertexId(2));
        assert_eq!(ep.u, VertexId(2));
        assert_eq!(ep.v, VertexId(5));
        assert_eq!(ep.other(VertexId(2)), VertexId(5));
        assert_eq!(ep.other(VertexId(5)), VertexId(2));
        assert!(ep.contains(VertexId(2)));
        assert!(!ep.contains(VertexId(3)));
    }

    #[test]
    #[should_panic]
    fn endpoints_other_panics_for_non_endpoint() {
        let ep = Endpoints::new(VertexId(0), VertexId(1));
        let _ = ep.other(VertexId(2));
    }

    #[test]
    fn builder_add_vertices_and_path() {
        let mut b = GraphBuilder::new(0);
        let vs = b.add_vertices(5);
        assert_eq!(vs.len(), 5);
        b.add_path(&vs);
        let g = b.build();
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(vs[0]), 1);
        assert_eq!(g.degree(vs[2]), 2);
    }

    #[test]
    fn display_and_debug_formats() {
        assert_eq!(format!("{}", VertexId(7)), "7");
        assert_eq!(format!("{:?}", VertexId(7)), "v7");
        assert_eq!(format!("{}", EdgeId(3)), "3");
        assert_eq!(format!("{:?}", EdgeId(3)), "e3");
        let g = triangle();
        let dbg = format!("{g:?}");
        assert!(dbg.contains("n"));
    }
}
