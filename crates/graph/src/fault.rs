//! Fault sets and restricted graph views.
//!
//! The constructions of the paper constantly work in subgraphs of `G`
//! obtained by removing a few failed edges (`G ∖ F`), removing the interior
//! of a shortest-path segment (`G(u_k, u_ℓ)` of Eq. (3)), removing a detour
//! suffix (`G_D(w_ℓ)` of Eq. (4)), or replacing the edges incident to a
//! vertex by a chosen subset (`G_{τ-1}(v)` in step (3) of `Cons2FTBFS`).
//! [`GraphView`] is the one type for all of them: every search (`bfs`,
//! `dijkstra`, [`crate::workspace::SearchWorkspace`]) reads a `&GraphView`.
//! It is built either with the chaining builders (`without_*`) for one-off
//! use, or reused in place: [`GraphView::reset`] starts a fresh restriction
//! in `O(1)`, so the millions of restricted views built inside the
//! `Cons2FTBFS` binary-search predicates allocate nothing after the first.
//!
//! # Epoch-stamping invariants
//!
//! A vertex (edge) is removed from the view's current restriction iff its
//! stamp equals the view's current epoch.  `reset` increments the epoch,
//! which implicitly clears every mark from earlier restrictions; stamps are
//! `u64`, so the counter never wraps in practice.  The same invariant is used
//! by [`crate::workspace::SearchWorkspace`] for its distance/parent arrays.

use crate::graph::{EdgeId, Graph, VertexId};
use std::fmt;

/// A fault set `F ⊆ E`: the failed edges every layer takes, from the
/// constructions and checkers to the query engine and the serving plane.
///
/// A spec is canonical by construction: its edges are sorted and distinct
/// whichever route built it (a single edge, a pair, a slice or array,
/// [`FaultSpec::from_edges`], `collect`, or [`FaultSpec::with`] chains), so
/// equality and hashing are structural and a `(source, FaultSpec)` cache key
/// is canonical.  Up to two edges — the paper's `|F| ≤ 2` — are stored
/// inline, so building, cloning and dropping such a spec never allocates;
/// larger sets live in a boxed slice and are answered best-effort by the
/// dual-failure structures (exact inside `H ∖ F`, not necessarily equal to
/// `dist(·, ·, G ∖ F)`).
///
/// # Examples
///
/// ```
/// use ftbfs_graph::{EdgeId, FaultSpec};
///
/// let one: FaultSpec = EdgeId(3).into();
/// assert_eq!(one.edges(), &[EdgeId(3)]);
///
/// // Order does not matter and duplicates collapse.
/// assert_eq!(
///     FaultSpec::from((EdgeId(9), EdgeId(2))),
///     FaultSpec::from((EdgeId(2), EdgeId(9))),
/// );
/// assert_eq!(FaultSpec::from((EdgeId(4), EdgeId(4))), FaultSpec::from(EdgeId(4)));
///
/// let many = FaultSpec::from(&[EdgeId(5), EdgeId(1), EdgeId(5), EdgeId(8)][..]);
/// assert_eq!(many.edges(), &[EdgeId(1), EdgeId(5), EdgeId(8)]);
/// assert!(many.contains(EdgeId(8)));
/// assert!(FaultSpec::None.is_empty());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    repr: Repr,
}

/// The storage behind [`FaultSpec`].  Both variants hold sorted, distinct
/// edges, `Inline` exactly when there are at most two of them (unused slots
/// hold `EdgeId(0)`), so the derived equality and hash are canonical.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Inline(u8, [EdgeId; 2]),
    Boxed(Box<[EdgeId]>),
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::None
    }
}

impl FaultSpec {
    /// The fault-free case `F = ∅`.
    #[allow(non_upper_case_globals)]
    pub const None: FaultSpec = FaultSpec::inline(0, [EdgeId(0); 2]);

    const fn inline(len: u8, edges: [EdgeId; 2]) -> Self {
        FaultSpec {
            repr: Repr::Inline(len, edges),
        }
    }

    /// Builds a spec from arbitrary edges (sorted and deduplicated); the
    /// same as `edges.into_iter().collect()`.
    pub fn from_edges<I: IntoIterator<Item = EdgeId>>(edges: I) -> Self {
        edges.into_iter().collect()
    }

    /// The failed edges, strictly increasing.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        match &self.repr {
            Repr::Inline(len, edges) => &edges[..*len as usize],
            Repr::Boxed(edges) => edges,
        }
    }

    /// Number of (distinct) failed edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges().len()
    }

    /// Returns `true` if no edge has failed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `e` is one of the failed edges.
    #[inline]
    pub fn contains(&self, e: EdgeId) -> bool {
        self.edges().binary_search(&e).is_ok()
    }

    /// The spec with `e` added (itself if `e` has already failed).
    pub fn with(&self, e: EdgeId) -> Self {
        match (self.edges(), self.edges().binary_search(&e)) {
            (_, Ok(_)) => self.clone(),
            ([], _) => FaultSpec::inline(1, [e, EdgeId(0)]),
            (&[a], Err(0)) => FaultSpec::inline(2, [e, a]),
            (&[a], _) => FaultSpec::inline(2, [a, e]),
            (edges, Err(at)) => {
                let mut grown = edges.to_vec();
                grown.insert(at, e);
                FaultSpec {
                    repr: Repr::Boxed(grown.into()),
                }
            }
        }
    }

    /// Returns `true` if any failed edge lies on `path` (resolved in `graph`).
    pub fn intersects_path(&self, graph: &Graph, path: &crate::path::Path) -> bool {
        path.edge_pairs()
            .any(|(a, b)| graph.edge_between(a, b).is_some_and(|e| self.contains(e)))
    }

    /// A copy of the spec.  Kept only because the `perfbench` package
    /// calls it; new code should use the spec itself.
    pub fn to_fault_set(&self) -> FaultSpec {
        self.clone()
    }
}

impl fmt::Debug for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{{")?;
        for (i, e) in self.edges().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", e.0)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<EdgeId> for FaultSpec {
    /// Sorts and deduplicates; allocates only once a third distinct edge
    /// turns up.
    fn from_iter<I: IntoIterator<Item = EdgeId>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut spec = FaultSpec::None;
        while let Some(e) = iter.next() {
            if spec.len() == 2 && !spec.contains(e) {
                let mut edges = spec.edges().to_vec();
                edges.push(e);
                edges.extend(iter);
                edges.sort_unstable();
                edges.dedup();
                return FaultSpec {
                    repr: Repr::Boxed(edges.into()),
                };
            }
            spec = spec.with(e);
        }
        spec
    }
}

impl From<EdgeId> for FaultSpec {
    /// A single-failure spec, so call sites can write `e.into()`.
    fn from(e: EdgeId) -> Self {
        FaultSpec::inline(1, [e, EdgeId(0)])
    }
}

impl From<(EdgeId, EdgeId)> for FaultSpec {
    /// A dual-failure spec in either order; equal edges collapse to one.
    fn from((a, b): (EdgeId, EdgeId)) -> Self {
        FaultSpec::from(a).with(b)
    }
}

impl From<&[EdgeId]> for FaultSpec {
    /// A spec from a slice of edges (sorted and deduplicated).
    fn from(edges: &[EdgeId]) -> Self {
        edges.iter().copied().collect()
    }
}

impl<const N: usize> From<[EdgeId; N]> for FaultSpec {
    /// A spec from an edge array (sorted and deduplicated).
    fn from(edges: [EdgeId; N]) -> Self {
        edges.into_iter().collect()
    }
}

/// Enumerates every fault set `F ⊆ E(G)` with `|F| ≤ f`: the empty set,
/// then the single edges, then the pairs, and so on, each size in
/// lexicographic edge order.  The count is `Σ_{k≤f} C(m, k)`; callers are
/// expected to keep `f` and `m` small.
pub fn enumerate_fault_sets(graph: &Graph, f: usize) -> Vec<FaultSpec> {
    let mut out = vec![FaultSpec::None];
    let mut level = 0..1;
    for _ in 0..f {
        let start = out.len();
        for i in level {
            let first = out[i].edges().last().map_or(0, |e| e.index() + 1);
            for e in (first..graph.edge_count()).map(EdgeId::new) {
                let grown = out[i].with(e);
                out.push(grown);
            }
        }
        level = start..out.len();
    }
    out
}

/// A restricted view of a graph: the base graph minus removed edges and
/// vertices, optionally with the edges incident to one designated vertex
/// replaced by an explicit allowed subset.
///
/// Marks live in dense epoch-stamped arrays (see the module docs), so a view
/// can be reused for any number of restrictions: [`GraphView::reset`] clears
/// it in `O(1)` and the `remove_*` / [`GraphView::restrict_incident`] calls
/// mark the next one.  Searches consult [`GraphView::allows_edge`] /
/// [`GraphView::allows_vertex`] during traversal.
///
/// # Examples
///
/// ```
/// use ftbfs_graph::{GraphBuilder, GraphView, VertexId, bfs};
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(VertexId(0), VertexId(1));
/// b.add_edge(VertexId(1), VertexId(2));
/// b.add_edge(VertexId(0), VertexId(3));
/// b.add_edge(VertexId(3), VertexId(2));
/// let g = b.build();
///
/// // Remove the edge (1,2): vertex 2 is now reached through 3.
/// let e = g.edge_between(VertexId(1), VertexId(2)).unwrap();
/// let mut view = GraphView::new(&g).without_edge(e);
/// assert_eq!(bfs(&view, VertexId(0)).distance(VertexId(2)), Some(2));
///
/// // Reusing the view is O(1): the previous removal no longer applies.
/// view.reset(&g);
/// view.remove_vertex(VertexId(3));
/// assert_eq!(bfs(&view, VertexId(0)).distance(VertexId(2)), Some(2));
/// assert!(view.allows_edge(e));
/// ```
#[derive(Clone)]
pub struct GraphView<'g> {
    graph: &'g Graph,
    epoch: u64,
    removed_vertex: Vec<u64>,
    removed_edge: Vec<u64>,
    /// Allowed-marks for the incident restriction, stamped with
    /// `incident_serial` (not `epoch`) so every `restrict_incident` call
    /// starts from a clean allowed set.
    incident_allowed: Vec<u64>,
    incident_serial: u64,
    incident_vertex: Option<VertexId>,
}

impl<'g> GraphView<'g> {
    /// The unrestricted view of `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        GraphView {
            graph,
            epoch: 1,
            removed_vertex: vec![0; graph.vertex_count()],
            removed_edge: vec![0; graph.edge_count()],
            incident_allowed: vec![0; graph.edge_count()],
            incident_serial: 0,
            incident_vertex: None,
        }
    }

    /// Starts a fresh, unrestricted view of `graph`, which may differ from
    /// the graph of the previous restriction.
    ///
    /// Bumps the epoch (invalidating all previous marks in `O(1)`) and grows
    /// the stamp arrays if the graph is larger than any seen before.
    #[inline]
    pub fn reset(&mut self, graph: &'g Graph) {
        self.graph = graph;
        self.epoch += 1;
        self.incident_vertex = None;
        if self.removed_vertex.len() < graph.vertex_count() {
            self.removed_vertex.resize(graph.vertex_count(), 0);
        }
        if self.removed_edge.len() < graph.edge_count() {
            self.removed_edge.resize(graph.edge_count(), 0);
            self.incident_allowed.resize(graph.edge_count(), 0);
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Removes vertex `v` (and implicitly all its incident edges).
    #[inline]
    pub fn remove_vertex(&mut self, v: VertexId) {
        self.removed_vertex[v.index()] = self.epoch;
    }

    /// Removes edge `e`.
    #[inline]
    pub fn remove_edge(&mut self, e: EdgeId) {
        self.removed_edge[e.index()] = self.epoch;
    }

    /// Removes every edge of `faults` (`G ∖ F`).
    pub fn remove_faults(&mut self, faults: &FaultSpec) {
        for &e in faults.edges() {
            self.remove_edge(e);
        }
    }

    /// Restricts the edges incident to `v` to the given allowed set; all
    /// other edges incident to `v` behave as removed.  This models the graph
    /// `G_{τ-1}(v) = (G ∖ E(v,G)) ∪ E_{τ-1}(v)` used by step (3) of
    /// `Cons2FTBFS`.  At most one incident restriction is active at a time:
    /// calling this again fully replaces the previous one (the allowed-marks
    /// carry their own serial, so earlier marks cannot leak into the new
    /// restriction).
    pub fn restrict_incident<I: IntoIterator<Item = EdgeId>>(&mut self, v: VertexId, allowed: I) {
        self.incident_serial += 1;
        self.incident_vertex = Some(v);
        for e in allowed {
            self.incident_allowed[e.index()] = self.incident_serial;
        }
    }

    /// Removes a single edge from the view.
    pub fn without_edge(mut self, e: EdgeId) -> Self {
        self.remove_edge(e);
        self
    }

    /// Removes every edge of `faults` from the view (`G ∖ F`).
    pub fn without_faults(mut self, faults: &FaultSpec) -> Self {
        self.remove_faults(faults);
        self
    }

    /// Removes the listed edges from the view.
    pub fn without_edges<I: IntoIterator<Item = EdgeId>>(mut self, edges: I) -> Self {
        for e in edges {
            self.remove_edge(e);
        }
        self
    }

    /// Removes the listed vertices (and implicitly all their incident edges)
    /// from the view.
    pub fn without_vertices<I: IntoIterator<Item = VertexId>>(mut self, vertices: I) -> Self {
        for v in vertices {
            self.remove_vertex(v);
        }
        self
    }

    /// The builder form of [`Self::restrict_incident`].
    pub fn with_incident_restriction<I: IntoIterator<Item = EdgeId>>(
        mut self,
        v: VertexId,
        allowed: I,
    ) -> Self {
        self.restrict_incident(v, allowed);
        self
    }

    /// Returns `true` if vertex `v` is present in the view.
    #[inline]
    pub fn allows_vertex(&self, v: VertexId) -> bool {
        self.removed_vertex[v.index()] != self.epoch
    }

    /// Returns `true` if edge `e` is present in the view (both endpoints
    /// present, the edge not removed, and the incident restriction — if any —
    /// satisfied).  Searches rely on the endpoint check: they only test the
    /// edge on top of the base graph's adjacency lists.
    #[inline]
    pub fn allows_edge(&self, e: EdgeId) -> bool {
        if self.removed_edge[e.index()] == self.epoch {
            return false;
        }
        let ep = self.graph.endpoints(e);
        if !self.allows_vertex(ep.u) || !self.allows_vertex(ep.v) {
            return false;
        }
        match self.incident_vertex {
            Some(iv) if ep.contains(iv) => self.incident_allowed[e.index()] == self.incident_serial,
            _ => true,
        }
    }

    /// [`Self::allows_edge`] for the adjacency entry `(to, e)` of `from`,
    /// where the caller knows the view allows `from`: the search's check,
    /// which needs no endpoint lookup.
    #[inline]
    pub(crate) fn allows_arc(&self, from: VertexId, to: VertexId, e: EdgeId) -> bool {
        debug_assert!(self.allows_vertex(from), "arc out of a removed vertex");
        self.removed_edge[e.index()] != self.epoch
            && self.allows_vertex(to)
            && match self.incident_vertex {
                Some(iv) if iv == from || iv == to => {
                    self.incident_allowed[e.index()] == self.incident_serial
                }
                _ => true,
            }
    }

    /// Iterates over the `(neighbour, edge)` pairs of `v` that survive the
    /// restriction.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let live = self.allows_vertex(v);
        self.graph
            .neighbors(v)
            .iter()
            .copied()
            .filter(move |&(_, e)| live && self.allows_edge(e))
    }

    /// Number of vertices of the underlying graph (including removed ones;
    /// removed vertices simply have no surviving incident edges).
    pub fn vertex_bound(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Counts the edges surviving in the view.  Linear in `m`; intended for
    /// tests and reports, not inner loops.
    pub fn surviving_edge_count(&self) -> usize {
        self.graph.edges().filter(|&e| self.allows_edge(e)).count()
    }
}

impl fmt::Debug for GraphView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let marked = |stamps: &[u64]| stamps.iter().filter(|&&s| s == self.epoch).count();
        f.debug_struct("GraphView")
            .field("graph", &self.graph)
            .field("removed_edges", &marked(&self.removed_edge))
            .field("removed_vertices", &marked(&self.removed_vertex))
            .field("incident_restriction", &self.incident_vertex)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use std::collections::HashSet;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn square() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(v(0), v(1));
        b.add_edge(v(1), v(2));
        b.add_edge(v(2), v(3));
        b.add_edge(v(3), v(0));
        b.build()
    }

    fn spec(ids: &[u32]) -> FaultSpec {
        ids.iter().map(|&i| EdgeId(i)).collect()
    }

    #[test]
    fn fault_set_canonicalisation() {
        let e1 = EdgeId(3);
        let e2 = EdgeId(1);
        let f = FaultSpec::from((e1, e2));
        assert_eq!(f.edges(), &[EdgeId(1), EdgeId(3)]);
        assert_eq!(f.len(), 2);
        assert!(f.contains(e1));
        assert!(f.contains(e2));
        assert!(!f.contains(EdgeId(0)));
        assert_eq!(f, FaultSpec::from((e2, e1)));
        let dup = FaultSpec::from((e1, e1));
        assert_eq!(dup, FaultSpec::from(e1));
        assert_eq!(dup.len(), 1);
        assert!(FaultSpec::None.is_empty());
        assert!(!dup.is_empty());
    }

    #[test]
    fn fault_spec_canonicalisation_and_iteration() {
        assert_eq!(FaultSpec::default(), FaultSpec::None);
        assert_eq!(FaultSpec::from_edges([]), FaultSpec::None);
        assert_eq!(FaultSpec::from(EdgeId(4)).edges(), &[EdgeId(4)]);
        let many = FaultSpec::from([EdgeId(9), EdgeId(1), EdgeId(9), EdgeId(4)]);
        assert_eq!(many.len(), 3);
        assert!(!many.is_empty());
        assert!(many.contains(EdgeId(4)));
        assert!(!many.contains(EdgeId(2)));
        assert_eq!(many.edges(), &[EdgeId(1), EdgeId(4), EdgeId(9)]);
        // A larger set whose duplicates leave two distinct edges is stored
        // like any other pair.
        let pair = spec(&[7, 3, 7, 3, 7]);
        assert_eq!(pair, FaultSpec::from((EdgeId(3), EdgeId(7))));
        assert_eq!(spec(&[3, 3]), FaultSpec::from(EdgeId(3)));
    }

    #[test]
    fn fault_spec_fits_in_three_words() {
        assert!(std::mem::size_of::<FaultSpec>() <= 24);
    }

    #[test]
    fn fault_spec_round_trips_with_fault_set() {
        // `to_fault_set` (kept for the perfbench package) is a plain copy.
        for ids in [&[][..], &[6], &[2, 8], &[2, 8, 5]] {
            let s = spec(ids);
            assert_eq!(s.to_fault_set(), s);
        }
        assert_eq!(spec(&[]).edges(), &[]);
    }

    #[test]
    fn fault_set_from_conversions() {
        assert_eq!(FaultSpec::from(EdgeId(3)), spec(&[3]));
        assert_eq!(FaultSpec::from((EdgeId(9), EdgeId(1))), spec(&[1, 9]));
        assert_eq!(
            FaultSpec::from(&[EdgeId(2), EdgeId(2), EdgeId(0)][..]),
            spec(&[0, 2])
        );
        assert_eq!(FaultSpec::from([EdgeId(4), EdgeId(4)]), spec(&[4]));
    }

    #[test]
    fn fault_set_with_and_union() {
        let f = FaultSpec::from(EdgeId(5));
        let g = f.with(EdgeId(2));
        assert_eq!(g.edges(), &[EdgeId(2), EdgeId(5)]);
        assert_eq!(g.with(EdgeId(5)), g);
        let h = g.with(EdgeId(9)).with(EdgeId(0));
        assert_eq!(h, spec(&[0, 2, 5, 9]));
        assert_eq!(h.with(EdgeId(3)).edges()[2], EdgeId(3));
        // A union is a collect over both edge lists.
        let union: FaultSpec = g
            .edges()
            .iter()
            .chain(&[EdgeId(5), EdgeId(9)])
            .copied()
            .collect();
        assert_eq!(union, spec(&[2, 5, 9]));
    }

    #[test]
    fn enumeration_lists_each_small_set_once_in_order() {
        let g = crate::generators::cycle(4);
        let sets = enumerate_fault_sets(&g, 2);
        assert_eq!(sets.len(), 1 + 4 + 6);
        assert_eq!(sets[0], FaultSpec::None);
        assert_eq!(sets[4], spec(&[3]));
        assert_eq!(sets[5], spec(&[0, 1]));
        assert_eq!(sets[10], spec(&[2, 3]));
    }

    #[test]
    fn fault_set_intersects_path() {
        let g = square();
        let e01 = g.edge_between(v(0), v(1)).unwrap();
        let f = FaultSpec::from(e01);
        let p = crate::path::Path::new(vec![v(3), v(0), v(1)]);
        assert!(f.intersects_path(&g, &p));
        let q = crate::path::Path::new(vec![v(1), v(2), v(3)]);
        assert!(!f.intersects_path(&g, &q));
    }

    #[test]
    fn view_edge_removal() {
        let g = square();
        let e = g.edge_between(v(0), v(1)).unwrap();
        let view = GraphView::new(&g).without_edge(e);
        assert!(!view.allows_edge(e));
        assert_eq!(view.surviving_edge_count(), 3);
        assert_eq!(view.neighbors(v(0)).count(), 1);
        assert_eq!(view.neighbors(v(2)).count(), 2);
    }

    #[test]
    fn view_vertex_removal_and_keeping() {
        let g = square();
        let view = GraphView::new(&g).without_vertices([v(1)]);
        assert!(!view.allows_vertex(v(1)));
        assert_eq!(view.neighbors(v(0)).count(), 1); // only 3 survives
        assert_eq!(view.neighbors(v(1)).count(), 0);
        // Exactly the listed vertices go; every other one is kept.
        let view = GraphView::new(&g).without_vertices([v(1), v(3)]);
        assert!(view.allows_vertex(v(0)) && view.allows_vertex(v(2)));
        assert!(!view.allows_vertex(v(1)) && !view.allows_vertex(v(3)));
        assert_eq!(view.surviving_edge_count(), 0);
    }

    #[test]
    fn view_incident_restriction() {
        let g = square();
        let e30 = g.edge_between(v(3), v(0)).unwrap();
        let e23 = g.edge_between(v(2), v(3)).unwrap();
        // Only the edge (3,0) is allowed at vertex 3.
        let view = GraphView::new(&g).with_incident_restriction(v(3), [e30]);
        assert!(view.allows_edge(e30));
        assert!(!view.allows_edge(e23));
        assert_eq!(view.neighbors(v(3)).count(), 1);
        // Edges not incident to 3 are unaffected.
        let e01 = g.edge_between(v(0), v(1)).unwrap();
        assert!(view.allows_edge(e01));
    }

    #[test]
    fn view_without_faults() {
        let g = square();
        let e01 = g.edge_between(v(0), v(1)).unwrap();
        let e23 = g.edge_between(v(2), v(3)).unwrap();
        let view = GraphView::new(&g).without_faults(&FaultSpec::from((e01, e23)));
        assert_eq!(view.surviving_edge_count(), 2);
    }

    #[test]
    fn overlay_restrict_incident_replaces_previous_restriction() {
        let g = square();
        let e01 = g.edge_between(v(0), v(1)).unwrap();
        let e30 = g.edge_between(v(3), v(0)).unwrap();
        let e23 = g.edge_between(v(2), v(3)).unwrap();
        let mut view = GraphView::new(&g);
        view.restrict_incident(v(0), [e01]);
        // Second call in the same epoch: the earlier allowed-marks must not
        // leak into the new restriction.
        view.restrict_incident(v(3), [e23]);
        assert!(view.allows_edge(e23));
        assert!(!view.allows_edge(e30));
        // e01 is no longer incident-restricted (vertex 0 is not the subject).
        assert!(view.allows_edge(e01));
    }

    #[test]
    fn overlay_epoch_reset_clears_all_marks() {
        let g = square();
        let e01 = g.edge_between(v(0), v(1)).unwrap();
        let mut view = GraphView::new(&g);
        view.remove_edge(e01);
        view.remove_vertex(v(2));
        view.restrict_incident(v(3), []);
        assert!(!view.allows_edge(e01));
        assert!(!view.allows_vertex(v(2)));
        assert_eq!(view.vertex_bound(), 4);
        view.reset(&g);
        for e in g.edges() {
            assert!(view.allows_edge(e));
        }
        for x in g.vertices() {
            assert!(view.allows_vertex(x));
        }
    }

    /// A splitmix64 step: the model test's deterministic stream of choices.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The restriction a view should represent, kept as plain sets.
    struct Model<'g> {
        graph: &'g Graph,
        removed_vertices: HashSet<VertexId>,
        removed_edges: HashSet<EdgeId>,
        incident: Option<(VertexId, HashSet<EdgeId>)>,
    }

    impl<'g> Model<'g> {
        fn new(graph: &'g Graph) -> Self {
            Model {
                graph,
                removed_vertices: HashSet::new(),
                removed_edges: HashSet::new(),
                incident: None,
            }
        }

        fn allows_vertex(&self, v: VertexId) -> bool {
            !self.removed_vertices.contains(&v)
        }

        fn allows_edge(&self, e: EdgeId) -> bool {
            let ep = self.graph.endpoints(e);
            !self.removed_edges.contains(&e)
                && self.allows_vertex(ep.u)
                && self.allows_vertex(ep.v)
                && match &self.incident {
                    Some((x, allowed)) if ep.contains(*x) => allowed.contains(&e),
                    _ => true,
                }
        }

        fn neighbors(&self, v: VertexId) -> Vec<(VertexId, EdgeId)> {
            if !self.allows_vertex(v) {
                return Vec::new();
            }
            self.graph
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&(_, e)| self.allows_edge(e))
                .collect()
        }
    }

    /// Checks `view` against `model`; returns how many arcs out of an
    /// allowed vertex it checked with the incident restriction at the arc's
    /// `from` end and at its `to` end.
    fn assert_matches_model(
        view: &GraphView<'_>,
        model: &Model<'_>,
        step: usize,
    ) -> (usize, usize) {
        let g = model.graph;
        let restricted = model.incident.as_ref().map(|(x, _)| *x);
        let (mut at_from, mut at_to) = (0, 0);
        assert_eq!(view.vertex_bound(), g.vertex_count(), "step {step}");
        for x in g.vertices() {
            assert_eq!(
                view.allows_vertex(x),
                model.allows_vertex(x),
                "allows_vertex({x:?}) at step {step}"
            );
            let got: Vec<_> = view.neighbors(x).collect();
            assert_eq!(got, model.neighbors(x), "neighbors({x:?}) at step {step}");
            if !model.allows_vertex(x) {
                continue;
            }
            for &(y, e) in g.neighbors(x) {
                assert_eq!(
                    view.allows_arc(x, y, e),
                    model.allows_edge(e),
                    "allows_arc({x:?}, {y:?}, {e:?}) at step {step}"
                );
                at_from += usize::from(restricted == Some(x));
                at_to += usize::from(restricted == Some(y));
            }
        }
        for e in g.edges() {
            assert_eq!(
                view.allows_edge(e),
                model.allows_edge(e),
                "allows_edge({e:?}) at step {step}"
            );
        }
        (at_from, at_to)
    }

    #[test]
    fn view_matches_a_hash_set_model_under_random_operations() {
        let graphs = [
            crate::generators::connected_gnp(12, 0.3, 1),
            crate::generators::connected_gnp(30, 0.15, 2),
            crate::generators::grid(3, 3),
            crate::generators::cycle(5),
        ];
        let (mut grew, mut shrank, mut double_restricts) = (0, 0, 0);
        let (mut arcs_at_from, mut arcs_at_to) = (0, 0);
        for seed in 0..6u64 {
            let mut state = seed;
            let mut pick = |bound: usize| (splitmix(&mut state) % bound as u64) as usize;
            let mut g = &graphs[pick(graphs.len())];
            let mut view = GraphView::new(g);
            let mut model = Model::new(g);
            let mut restricts_this_epoch = 0;
            for step in 0..300 {
                match pick(10) {
                    0..=3 => {
                        let x = VertexId::new(pick(g.vertex_count()));
                        view.remove_vertex(x);
                        model.removed_vertices.insert(x);
                    }
                    4..=6 => {
                        let e = EdgeId::new(pick(g.edge_count()));
                        view.remove_edge(e);
                        model.removed_edges.insert(e);
                    }
                    7 | 8 => {
                        let x = VertexId::new(pick(g.vertex_count()));
                        let incident: Vec<EdgeId> = g.incident_edges(x).collect();
                        let allowed: HashSet<EdgeId> =
                            incident.iter().copied().filter(|_| pick(2) == 0).collect();
                        view.restrict_incident(x, allowed.iter().copied());
                        model.incident = Some((x, allowed));
                        restricts_this_epoch += 1;
                        if restricts_this_epoch == 2 {
                            double_restricts += 1;
                        }
                    }
                    _ => {
                        // Reset onto a random graph: larger, smaller or the same.
                        let before = g.edge_count();
                        g = &graphs[pick(graphs.len())];
                        grew += usize::from(g.edge_count() > before);
                        shrank += usize::from(g.edge_count() < before);
                        view.reset(g);
                        model = Model::new(g);
                        restricts_this_epoch = 0;
                    }
                }
                let (at_from, at_to) = assert_matches_model(&view, &model, step);
                arcs_at_from += at_from;
                arcs_at_to += at_to;
            }
        }
        assert!(grew > 0 && shrank > 0 && double_restricts > 0);
        assert!(arcs_at_from > 0 && arcs_at_to > 0);
    }

    #[test]
    fn debug_formats() {
        let g = square();
        let f = FaultSpec::from((EdgeId(2), EdgeId(0)));
        assert_eq!(format!("{f:?}"), "F{0,2}");
        let view = GraphView::new(&g).without_edge(EdgeId(0));
        let s = format!("{view:?}");
        assert!(s.contains("removed_edges"));
    }
}
