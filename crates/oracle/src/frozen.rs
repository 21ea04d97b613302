//! [`FrozenStructure`] — an FT-BFS structure compiled for query serving.
//!
//! The construction crates hand back an [`FtBfsStructure`]: a set of edge
//! ids over the original graph, optimised for being *built* (cheap unions,
//! ordered iteration).  Serving `dist(s, v, H ∖ F)` queries at scale wants
//! the opposite trade-off: an immutable, cache-packed adjacency of `H`
//! alone, with the fault-free answers precomputed.  Freezing performs that
//! compilation once:
//!
//! * the structure's edges are packed into a **CSR adjacency** (offset
//!   array + flat arc arrays), so a BFS inside `H` touches contiguous
//!   memory and never consults the original graph;
//! * each arc carries the **frozen edge index** of its undirected edge, so
//!   a fault check during traversal is one or two integer compares (the
//!   original [`EdgeId`]s of a [`ftbfs_graph::FaultSet`] are translated to
//!   frozen indices once per query);
//! * the **fault-free BFS tree** (distance + parent) from every source is
//!   computed at freeze time, making fault-free distance queries `O(1)` and
//!   fault-free path queries `O(path)`;
//! * the structure's answer [`Contract`] — exact for the paper's
//!   structures, a declared `(α, β)` stretch for the FT-ABFS backend (see
//!   [`crate::approx`]) — rides along and derives every answer's
//!   [`crate::Guarantee`];
//! * a structural **fingerprint** (FNV-1a over the canonical byte encoding
//!   of the header, contract and edge list) identifies the frozen
//!   structure — the query engine uses it to detect being handed a
//!   different structure, and the binary snapshot format
//!   ([`FrozenStructure::save`] / [`FrozenStructure::load`], see
//!   [`crate::snapshot`]) stores the same encoding as its base payload.

use crate::api::{Contract, DistanceOracle, OracleSlab, SlabTree};
use crate::snapshot::{check_contract, put_base, SnapshotError};
use ftbfs_core::FtBfsStructure;
use ftbfs_graph::{EdgeId, Graph, Path, VertexId};

/// Sentinel distance meaning "not reached".
pub(crate) const UNREACHED: u32 = u32::MAX;
/// Sentinel parent meaning "no parent" (source or unreached).
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// An immutable, query-optimised compilation of an FT-BFS structure.
///
/// See the module docs for the layout.  Obtain one with
/// [`FrozenStructure::freeze`] (from an [`FtBfsStructure`]), with
/// [`FrozenStructure::freeze_approx`] (from an FT-ABFS structure, under
/// its approximate [`Contract`]), with [`FrozenStructure::from_edges`]
/// (from a raw edge-id collection), or with [`FrozenStructure::load`]
/// (from a snapshot).  Queries are answered
/// through a [`crate::QueryEngine`], which keeps the mutable per-thread
/// scratch state separate so one frozen structure can serve many threads.
///
/// # Examples
///
/// ```
/// use ftbfs_core::dual_failure_ftbfs;
/// use ftbfs_graph::{generators, FaultSpec, TieBreak, VertexId};
/// use ftbfs_oracle::{FrozenStructure, QueryEngine};
///
/// let g = generators::connected_gnp(30, 0.15, 7);
/// let w = TieBreak::new(&g, 7);
/// let h = dual_failure_ftbfs(&g, &w, VertexId(0));
/// let frozen = FrozenStructure::freeze(&g, &h);
/// let mut engine = QueryEngine::new();
/// // Fault-free queries read the precomputed tree in O(1).
/// assert_eq!(
///     engine
///         .try_distance(&frozen, VertexId(5), &FaultSpec::None)
///         .unwrap()
///         .into_value(),
///     frozen.tree_for(VertexId(0)).unwrap().distance(VertexId(5)),
/// );
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrozenStructure {
    n: u32,
    sources: Vec<VertexId>,
    resilience: u32,
    contract: Contract,
    /// Original edge ids, strictly increasing; the frozen edge index is the
    /// position in this array.
    edge_orig: Vec<u32>,
    /// Endpoints per frozen edge, normalised `u < v`.
    edge_u: Vec<u32>,
    edge_v: Vec<u32>,
    /// CSR offsets: the arcs of vertex `v` are `adj_*[xadj[v]..xadj[v+1]]`.
    xadj: Vec<u32>,
    /// Arc heads (the neighbour reached by the arc).
    adj_head: Vec<u32>,
    /// Frozen edge index of each arc (shared by both directions).
    adj_edge: Vec<u32>,
    /// Fault-free BFS trees, one per source, in `sources` order.
    trees: Vec<SourceTree>,
    fingerprint: u64,
}

/// The precomputed fault-free BFS tree of one source inside `H`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceTree {
    source: VertexId,
    dist: Vec<u32>,
    parent_head: Vec<u32>,
    /// Frozen edge index of the tree edge to the parent.
    parent_edge: Vec<u32>,
}

impl SourceTree {
    /// The source this tree is rooted at.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The fault-free distance `dist(source, v, H)`, in `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the frozen structure's graph.
    #[inline]
    pub fn distance(&self, v: VertexId) -> Option<u32> {
        match self.dist[v.index()] {
            UNREACHED => None,
            d => Some(d),
        }
    }

    /// The parent of `v` in the tree, or `None` for the source and
    /// unreached vertices.
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        match self.parent_head[v.index()] {
            NO_PARENT => None,
            p => Some(VertexId(p)),
        }
    }

    /// The tree path `source → v`, or `None` if `v` is unreached.
    pub fn path_to(&self, v: VertexId) -> Option<Path> {
        if self.dist[v.index()] == UNREACHED {
            return None;
        }
        let mut vertices = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            vertices.push(p);
            cur = p;
        }
        debug_assert_eq!(cur, self.source);
        vertices.reverse();
        Some(Path::new(vertices))
    }
}

impl FrozenStructure {
    /// Freezes a constructed [`FtBfsStructure`] over its graph.
    ///
    /// # Panics
    ///
    /// Panics if the structure has no sources or references edges that do
    /// not exist in `graph`.
    pub fn freeze(graph: &Graph, structure: &FtBfsStructure) -> Self {
        FrozenStructure::from_edges(
            graph,
            structure.sources(),
            structure.resilience(),
            structure.edges(),
        )
    }

    /// Freezes a raw edge-id collection (deduplicated automatically) under
    /// the exact contract, for callers that do not hold an
    /// [`FtBfsStructure`].
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or out of range, or if an edge id does
    /// not exist in `graph`.
    pub fn from_edges<I>(graph: &Graph, sources: &[VertexId], resilience: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = EdgeId>,
    {
        Self::with_contract(graph, sources, resilience, Contract::Exact, edges)
    }

    /// [`Self::from_edges`] under an explicit answer contract.
    ///
    /// # Panics
    ///
    /// As [`Self::from_edges`], and if an approximate contract is
    /// malformed (`α` denominator zero or `α < 1`).
    pub(crate) fn with_contract<I>(
        graph: &Graph,
        sources: &[VertexId],
        resilience: usize,
        contract: Contract,
        edges: I,
    ) -> Self
    where
        I: IntoIterator<Item = EdgeId>,
    {
        let mut ids: Vec<EdgeId> = edges.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let mut edge_orig = Vec::with_capacity(ids.len());
        let mut edge_u = Vec::with_capacity(ids.len());
        let mut edge_v = Vec::with_capacity(ids.len());
        for e in ids {
            assert!(
                graph.contains_edge(e),
                "structure edge {e:?} does not exist in the graph"
            );
            let ep = graph.endpoints(e);
            edge_orig.push(e.0);
            edge_u.push(ep.u.0);
            edge_v.push(ep.v.0);
        }
        FrozenStructure::from_parts(
            graph.vertex_count() as u32,
            sources.to_vec(),
            resilience as u32,
            contract,
            edge_orig,
            edge_u,
            edge_v,
        )
        .unwrap_or_else(|e| panic!("cannot freeze: {e}"))
    }

    /// Assembles a frozen structure from validated raw parts; shared by
    /// [`Self::from_edges`] and snapshot loading.
    pub(crate) fn from_parts(
        n: u32,
        sources: Vec<VertexId>,
        resilience: u32,
        contract: Contract,
        edge_orig: Vec<u32>,
        edge_u: Vec<u32>,
        edge_v: Vec<u32>,
    ) -> Result<Self, SnapshotError> {
        let corrupt = |why: &str| Err(SnapshotError::Corrupt(why.to_string()));
        check_contract(contract)?;
        if sources.is_empty() {
            return corrupt("a frozen structure needs at least one source");
        }
        if sources.iter().any(|s| s.0 >= n) {
            return corrupt("source vertex out of range");
        }
        if edge_orig.windows(2).any(|w| w[0] >= w[1]) {
            return corrupt("edge ids must be strictly increasing");
        }
        let m = edge_orig.len();
        if edge_u.len() != m || edge_v.len() != m {
            return corrupt("edge arrays disagree in length");
        }
        for i in 0..m {
            if edge_u[i] >= edge_v[i] || edge_v[i] >= n {
                return corrupt("edge endpoints must satisfy u < v < n");
            }
        }
        // n and 2m must fit the u32 CSR offsets (they do: ids are u32).
        let mut structure = FrozenStructure {
            n,
            sources,
            resilience,
            contract,
            edge_orig,
            edge_u,
            edge_v,
            xadj: Vec::new(),
            adj_head: Vec::new(),
            adj_edge: Vec::new(),
            trees: Vec::new(),
            fingerprint: 0,
        };
        structure.build_csr();
        structure.build_trees();
        structure.fingerprint = ftbfs_graph::bytes::fnv1a64(&structure.base_bytes());
        Ok(structure)
    }

    /// The canonical encoding of the determining data — the snapshot's
    /// base payload and the input of [`Self::fingerprint`].
    pub(crate) fn base_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(36 + 4 * self.sources.len() + 12 * self.edge_orig.len());
        put_base(
            &mut out,
            self.contract,
            self.n,
            self.resilience,
            &self.sources,
            (&self.edge_orig, &self.edge_u, &self.edge_v),
        );
        out
    }

    /// Packs the edge list into the CSR arrays, with each vertex's arcs
    /// sorted by head id (mirroring [`Graph`]'s deterministic adjacency
    /// order).
    fn build_csr(&mut self) {
        let n = self.n as usize;
        let m = self.edge_orig.len();
        let mut degree = vec![0u32; n];
        for i in 0..m {
            degree[self.edge_u[i] as usize] += 1;
            degree[self.edge_v[i] as usize] += 1;
        }
        let mut xadj = vec![0u32; n + 1];
        for v in 0..n {
            xadj[v + 1] = xadj[v] + degree[v];
        }
        let mut cursor = xadj.clone();
        let mut adj_head = vec![0u32; 2 * m];
        let mut adj_edge = vec![0u32; 2 * m];
        for i in 0..m {
            let (u, v) = (self.edge_u[i] as usize, self.edge_v[i] as usize);
            let cu = cursor[u] as usize;
            adj_head[cu] = self.edge_v[i];
            adj_edge[cu] = i as u32;
            cursor[u] += 1;
            let cv = cursor[v] as usize;
            adj_head[cv] = self.edge_u[i];
            adj_edge[cv] = i as u32;
            cursor[v] += 1;
        }
        // Sort each vertex's arc segment by head id for deterministic
        // traversal order (ties are impossible: the graph is simple).
        for v in 0..n {
            let (lo, hi) = (xadj[v] as usize, xadj[v + 1] as usize);
            let mut seg: Vec<(u32, u32)> = (lo..hi).map(|i| (adj_head[i], adj_edge[i])).collect();
            seg.sort_unstable();
            for (off, (head, edge)) in seg.into_iter().enumerate() {
                adj_head[lo + off] = head;
                adj_edge[lo + off] = edge;
            }
        }
        self.xadj = xadj;
        self.adj_head = adj_head;
        self.adj_edge = adj_edge;
    }

    /// Runs the fault-free BFS from every source over the CSR.
    fn build_trees(&mut self) {
        let n = self.n as usize;
        let mut trees = Vec::with_capacity(self.sources.len());
        let mut queue = std::collections::VecDeque::new();
        for &s in &self.sources {
            let mut dist = vec![UNREACHED; n];
            let mut parent_head = vec![NO_PARENT; n];
            let mut parent_edge = vec![NO_PARENT; n];
            dist[s.index()] = 0;
            queue.clear();
            queue.push_back(s.0);
            while let Some(u) = queue.pop_front() {
                let du = dist[u as usize];
                let (lo, hi) = (self.xadj[u as usize], self.xadj[u as usize + 1]);
                for i in lo as usize..hi as usize {
                    let x = self.adj_head[i];
                    if dist[x as usize] != UNREACHED {
                        continue;
                    }
                    dist[x as usize] = du + 1;
                    parent_head[x as usize] = u;
                    parent_edge[x as usize] = self.adj_edge[i];
                    queue.push_back(x);
                }
            }
            trees.push(SourceTree {
                source: s,
                dist,
                parent_head,
                parent_edge,
            });
        }
        self.trees = trees;
    }

    /// Number of vertices of the underlying graph.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.n as usize
    }

    /// Number of edges in the frozen structure (`|E(H)|`).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_orig.len()
    }

    /// The source set `S` the structure serves, in freeze order.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// The first source — the one single-source query methods default to.
    pub fn primary_source(&self) -> VertexId {
        self.sources[0]
    }

    /// The number of edge faults the structure was built to tolerate.
    ///
    /// Queries with larger fault sets are still answered exactly *inside*
    /// `H ∖ F`, but only fault sets up to this size are guaranteed to match
    /// distances in `G ∖ F`.
    pub fn resilience(&self) -> usize {
        self.resilience as usize
    }

    /// The answer contract the structure declares.
    pub fn contract(&self) -> Contract {
        self.contract
    }

    /// The frozen index of original edge `e`, or `None` if `e` is not part
    /// of the structure.  `O(log |E(H)|)`.
    #[inline]
    pub fn frozen_index(&self, e: EdgeId) -> Option<u32> {
        self.edge_orig.binary_search(&e.0).ok().map(|i| i as u32)
    }

    /// Returns `true` if original edge `e` belongs to the structure.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.frozen_index(e).is_some()
    }

    /// The original [`EdgeId`] of frozen edge `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a valid frozen edge index.
    pub fn original_edge(&self, index: u32) -> EdgeId {
        EdgeId(self.edge_orig[index as usize])
    }

    /// The endpoints of frozen edge `index`, normalised `u < v`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a valid frozen edge index.
    pub fn endpoints(&self, index: u32) -> (VertexId, VertexId) {
        (
            VertexId(self.edge_u[index as usize]),
            VertexId(self.edge_v[index as usize]),
        )
    }

    /// The precomputed fault-free tree rooted at `s`, if `s` is one of the
    /// structure's sources.
    pub fn tree_for(&self, s: VertexId) -> Option<&SourceTree> {
        self.trees.iter().find(|t| t.source == s)
    }

    /// The fault-free trees, in `sources` order.
    pub fn trees(&self) -> &[SourceTree] {
        &self.trees
    }

    /// The FNV-1a fingerprint of the structure's canonical byte encoding.
    ///
    /// Two frozen structures answer identically iff their fingerprints
    /// (over `n`, resilience, contract, sources and the edge list) agree;
    /// the query engine uses this to invalidate its cache when rebound.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Reconstructs a mutable [`FtBfsStructure`] with the same sources,
    /// resilience and edge set (the inverse of [`FrozenStructure::freeze`];
    /// the contract is not part of it).
    pub fn to_structure(&self) -> FtBfsStructure {
        FtBfsStructure::from_edges(
            self.sources.clone(),
            self.resilience as usize,
            self.edge_orig.iter().map(|&e| EdgeId(e)),
        )
    }

    // -- raw access for the query engine and the snapshot writer (same
    // crate) --------------------------------------------------------------

    pub(crate) fn raw_edge_orig(&self) -> &[u32] {
        &self.edge_orig
    }

    /// The CSR arrays `(xadj, adj_head, adj_edge)` — what the snapshot
    /// sections persist so a view can serve without rebuilding them.
    pub(crate) fn raw_csr(&self) -> (&[u32], &[u32], &[u32]) {
        (&self.xadj, &self.adj_head, &self.adj_edge)
    }
}

impl SourceTree {
    /// The dense `(dist, parent_head)` arrays persisted by snapshots
    /// (`parent_edge` is derivable and not stored).
    pub(crate) fn raw_dist_parent(&self) -> (&[u32], &[u32]) {
        (&self.dist, &self.parent_head)
    }
}

impl DistanceOracle for FrozenStructure {
    fn vertex_count(&self) -> usize {
        FrozenStructure::vertex_count(self)
    }

    fn edge_count(&self) -> usize {
        FrozenStructure::edge_count(self)
    }

    fn sources(&self) -> &[VertexId] {
        FrozenStructure::sources(self)
    }

    fn resilience(&self) -> usize {
        FrozenStructure::resilience(self)
    }

    fn fingerprint(&self) -> u64 {
        FrozenStructure::fingerprint(self)
    }

    #[inline]
    fn contract(&self) -> Contract {
        self.contract
    }

    /// Any in-range vertex can serve as a source: the structure keeps one
    /// shared CSR, and sources listed in [`FrozenStructure::sources`]
    /// additionally get their precomputed fault-free tree.
    fn slab(&self, source: VertexId) -> Option<OracleSlab<'_>> {
        if source.index() >= FrozenStructure::vertex_count(self) {
            return None;
        }
        let tree = self
            .tree_for(source)
            .map(|t| SlabTree::new(&t.dist, &t.parent_head));
        Some(OracleSlab::new(
            source,
            &self.xadj,
            &self.adj_head,
            &self.adj_edge,
            &self.edge_orig,
            tree,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_core::dual_failure_ftbfs;
    use ftbfs_graph::{bfs, generators, GraphView, TieBreak};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn freeze_packs_csr_and_matches_structure() {
        let g = generators::connected_gnp(40, 0.12, 3);
        let w = TieBreak::new(&g, 3);
        let h = dual_failure_ftbfs(&g, &w, v(0));
        let frozen = FrozenStructure::freeze(&g, &h);
        assert_eq!(frozen.vertex_count(), g.vertex_count());
        assert_eq!(frozen.edge_count(), h.edge_count());
        assert_eq!(frozen.sources(), h.sources());
        assert_eq!(frozen.resilience(), h.resilience());
        for e in g.edges() {
            assert_eq!(frozen.contains_edge(e), h.contains(e));
            if let Some(i) = frozen.frozen_index(e) {
                assert_eq!(frozen.original_edge(i), e);
                let ep = g.endpoints(e);
                assert_eq!(frozen.endpoints(i), (ep.u, ep.v));
            }
        }
        // Round-trip back to the mutable representation.
        assert_eq!(frozen.to_structure(), h);
    }

    #[test]
    fn fault_free_tree_matches_bfs_inside_h() {
        let g = generators::connected_gnp(50, 0.1, 11);
        let w = TieBreak::new(&g, 11);
        let h = dual_failure_ftbfs(&g, &w, v(0));
        let frozen = FrozenStructure::freeze(&g, &h);
        let tree = frozen.tree_for(v(0)).expect("source tree");
        let reference = bfs(&h.as_view(&g), v(0));
        for x in g.vertices() {
            assert_eq!(tree.distance(x), reference.distance(x), "at {x:?}");
            if let Some(p) = tree.path_to(x) {
                assert_eq!(p.len() as u32, tree.distance(x).unwrap());
                assert_eq!(p.source(), v(0));
                assert_eq!(p.target(), x);
                // Every step is a structure edge.
                for (a, b) in p.edge_pairs() {
                    let e = g.edge_between(a, b).expect("edge exists");
                    assert!(h.contains(e));
                }
            }
        }
        assert_eq!(tree.source(), v(0));
        assert_eq!(tree.parent(v(0)), None);
    }

    #[test]
    fn multi_source_trees_are_precomputed() {
        let g = generators::grid(4, 5);
        let sources = [v(0), v(19)];
        let frozen = FrozenStructure::from_edges(&g, &sources, 1, g.edges());
        assert_eq!(frozen.trees().len(), 2);
        for &s in &sources {
            let tree = frozen.tree_for(s).unwrap();
            let reference = bfs(&GraphView::new(&g), s);
            for x in g.vertices() {
                assert_eq!(tree.distance(x), reference.distance(x));
            }
        }
        assert!(frozen.tree_for(v(7)).is_none());
        assert_eq!(frozen.primary_source(), v(0));
    }

    #[test]
    fn from_edges_dedups_and_fingerprint_discriminates() {
        let g = generators::cycle(6);
        let a = FrozenStructure::from_edges(&g, &[v(0)], 2, [EdgeId(0), EdgeId(1), EdgeId(0)]);
        assert_eq!(a.edge_count(), 2);
        let b = FrozenStructure::from_edges(&g, &[v(0)], 2, [EdgeId(0), EdgeId(1)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
        let c = FrozenStructure::from_edges(&g, &[v(0)], 2, [EdgeId(0), EdgeId(2)]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = FrozenStructure::from_edges(&g, &[v(1)], 2, [EdgeId(0), EdgeId(1)]);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    #[should_panic]
    fn freeze_rejects_foreign_edges() {
        let g = generators::cycle(4);
        let _ = FrozenStructure::from_edges(&g, &[v(0)], 2, [EdgeId(99)]);
    }

    #[test]
    #[should_panic]
    fn freeze_rejects_empty_sources() {
        let g = generators::cycle(4);
        let _ = FrozenStructure::from_edges(&g, &[], 2, g.edges());
    }
}
