//! [`FrozenStructure`] — an FT-BFS structure compiled for query serving.
//!
//! The construction crates hand back an [`FtBfsStructure`]: a set of edge
//! ids over the original graph, optimised for being *built* (cheap unions,
//! ordered iteration).  Serving `dist(s, v, H ∖ F)` queries at scale wants
//! the opposite trade-off: an immutable, cache-packed adjacency of `H`
//! alone, with the fault-free answers precomputed.  Freezing performs that
//! compilation once:
//!
//! * the structure's edges are packed into **CSR slabs** (offset array +
//!   flat arc arrays), so a BFS inside `H` touches contiguous memory and
//!   never consults the original graph;
//! * each arc carries the **slab-local edge index** of its undirected edge,
//!   so a fault check during traversal is one or two integer compares (the
//!   original [`EdgeId`]s of a [`ftbfs_graph::FaultSpec`] are translated
//!   once per query);
//! * the **fault-free BFS tree** (distance + parent) from every declared
//!   source is computed at freeze time, making fault-free distance queries
//!   `O(1)` and fault-free path queries `O(path)`;
//! * the structure's answer [`Contract`] — exact for the paper's
//!   structures, a declared `(α, β)` stretch for the FT-ABFS backend (see
//!   [`crate::approx`]) — rides along and derives every answer's
//!   [`crate::Guarantee`];
//! * a structural **fingerprint** (FNV-1a over the canonical byte encoding
//!   of the header, contract and edge list) identifies the frozen
//!   structure — the query engine uses it to detect being handed a
//!   different structure.
//!
//! Freezing writes all of this as a snapshot (see [`crate::snapshot`]) and
//! loads it: a [`FrozenStructure`] *is* its snapshot bytes, served by the
//! same type that serves borrowed bytes
//! (`FrozenStructure = FrozenView<'static>`, see [`crate::view`]).
//! [`FrozenView::save`] hands the bytes back and [`FrozenStructure::load`]
//! checks and keeps a copy, so nothing is compiled twice.
//!
//! ## Slab layouts
//!
//! A structure has one of two layouts, fixed by its constructor (and by
//! its snapshot magic):
//!
//! * **one shared slab** (`"FTBO"`, [`FrozenStructure::freeze`] /
//!   [`FrozenStructure::from_edges`]): the paper's single-source `H`.  Any
//!   in-range vertex is a servable source; declared sources carry trees.
//! * **one slab per declared source** (`"FTBM"`,
//!   [`FrozenStructure::freeze_parts`]): Gupta–Khan's multi-source
//!   FT-MBFS, whose per-source part `H_s ⊆ H` is smaller than the union,
//!   so a BFS from `s` runs over `H_s` only.  Only declared sources are
//!   servable.
//!
//! Either way the sections hold per-slab edge ids, CSR offsets
//! (`slabs × (n + 1)`) and arcs concatenated slab after slab, and `k × 2n`
//! tree words.  All slabs index the same vertex set `0..n`, so one engine
//! workspace serves every source.

use crate::api::Contract;
use crate::snapshot::{
    assemble, put_base, words, SEC_ARC_EDGES, SEC_ARC_HEADS, SEC_EDGE_ORIG, SEC_SLAB_TABLE,
    SEC_TREES, SEC_XADJ, SNAPSHOT_MAGIC, SNAPSHOT_MULTI_MAGIC,
};
use crate::view::FrozenView;
use ftbfs_core::FtBfsStructure;
use ftbfs_graph::bytes::{fnv1a64, put_u32, put_u32_slice, LeU32s, WordRead};
use ftbfs_graph::{EdgeId, Graph, Path, VertexId};

/// Sentinel distance meaning "not reached".
pub(crate) const UNREACHED: u32 = u32::MAX;
/// Sentinel parent meaning "no parent" (source or unreached).
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// An immutable, query-optimised compilation of an FT-BFS structure: a
/// [`FrozenView`] that owns its snapshot bytes.
///
/// See the module docs for the layout.  Obtain one with
/// [`FrozenStructure::freeze`] (from an [`FtBfsStructure`]), with
/// [`FrozenStructure::freeze_approx`] (from an FT-ABFS structure, under
/// its approximate [`Contract`]), with [`FrozenStructure::from_edges`]
/// (from a raw edge-id collection), with [`FrozenStructure::freeze_parts`]
/// (per-source slabs of a multi-source structure), or with
/// [`FrozenStructure::load`] (from a snapshot).  Queries are answered
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
pub type FrozenStructure = FrozenView<'static>;

/// The precomputed fault-free BFS tree of one source inside its slab: its
/// dist and parent rows in the snapshot's `TREE` section (`u32::MAX` for
/// unreached / no parent).
#[derive(Clone, Copy, Debug)]
pub struct SourceTree<'a> {
    source: VertexId,
    pub(crate) dist: LeU32s<'a>,
    pub(crate) parent: LeU32s<'a>,
}

impl SourceTree<'_> {
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
        match self.dist.get(v.index()) {
            UNREACHED => None,
            d => Some(d),
        }
    }

    /// The parent of `v` in the tree, or `None` for the source and
    /// unreached vertices.
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        match self.parent.get(v.index()) {
            NO_PARENT => None,
            p => Some(VertexId(p)),
        }
    }

    /// The tree path `source → v`, or `None` if `v` is unreached.
    pub fn path_to(&self, v: VertexId) -> Option<Path> {
        self.distance(v)?;
        Some(parent_walk(self.parent, v))
    }
}

/// The path from the root of a parent-pointer tree down to the reached
/// vertex `v` (the root's parent is [`NO_PARENT`]).
pub(crate) fn parent_walk(parent: impl WordRead, v: VertexId) -> Path {
    let mut vertices = vec![v];
    let mut p = parent.read(v.index());
    while p != NO_PARENT {
        vertices.push(VertexId(p));
        p = parent.read(p as usize);
    }
    vertices.reverse();
    Path::new(vertices)
}

/// The borrowed CSR adjacency serving queries from one source, handed to
/// the query engine.
///
/// A slab is a *view* — constructing one allocates nothing, so the engine
/// can request a fresh slab per query.  The arrays are sections of the
/// frozen structure's snapshot bytes:
///
/// * `xadj[v]..xadj[v+1]` indexes the arcs of vertex `v` in `adj_head` /
///   `adj_edge`;
/// * `adj_edge[i]` is the *slab-local frozen edge index* of arc `i` (shared
///   by both directions of the undirected edge), so a one/two-fault check
///   during traversal is one or two integer compares;
/// * `edge_orig` maps slab-local indices back to original [`EdgeId`]s and
///   is strictly increasing, so translating a query's faults is a binary
///   search per fault — and monotone, so canonical fault order is
///   preserved.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OracleSlab<'a> {
    pub source: VertexId,
    /// The source's index among the declared sources, or `None` for a
    /// servable-but-undeclared one; declared sources carry their tree.
    pub declared: Option<usize>,
    pub tree: Option<SourceTree<'a>>,
    pub xadj: LeU32s<'a>,
    pub adj_head: LeU32s<'a>,
    pub adj_edge: LeU32s<'a>,
    edge_orig: LeU32s<'a>,
}

impl OracleSlab<'_> {
    /// Number of vertices covered by the slab.
    pub fn vertex_count(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of (undirected) edges in the slab.
    pub fn edge_count(&self) -> usize {
        self.edge_orig.len()
    }

    /// The slab-local frozen index of original edge `e`, or `None` if the
    /// slab does not contain it.  `O(log |E(H_s)|)`.
    #[inline]
    pub fn frozen_index(&self, e: EdgeId) -> Option<u32> {
        self.edge_orig.binary_search(e.0).ok().map(|i| i as u32)
    }
}

/// The serving arrays of a frozen structure, borrowed from its snapshot
/// sections, and the one rule deciding which sources they serve.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SlabTable<'a> {
    pub n: usize,
    /// `k × (m_s, offset)` for per-source slabs; `None` for one shared slab.
    pub table: Option<LeU32s<'a>>,
    pub edge_orig: LeU32s<'a>,
    pub xadj: LeU32s<'a>,
    pub adj_head: LeU32s<'a>,
    pub adj_edge: LeU32s<'a>,
    pub trees: LeU32s<'a>,
}

impl<'a> SlabTable<'a> {
    /// Slab `j`'s edge count and offset into the concatenated arrays.
    #[inline]
    pub fn extent(&self, j: usize) -> (usize, usize) {
        match &self.table {
            None => (self.edge_orig.len(), 0),
            Some(t) => (t.get(2 * j) as usize, t.get(2 * j + 1) as usize),
        }
    }

    /// Slab `j`'s `(xadj, adj_head, adj_edge, edge_orig)`.
    #[inline]
    pub fn csr(&self, j: usize) -> [LeU32s<'a>; 4] {
        self.arrays(j, self.extent(j))
    }

    /// [`Self::csr`] given slab `j`'s extent.
    #[inline]
    fn arrays(&self, j: usize, (m, off): (usize, usize)) -> [LeU32s<'a>; 4] {
        let n = self.n;
        [
            self.xadj.slice(j * (n + 1), (j + 1) * (n + 1)),
            self.adj_head.slice(2 * off, 2 * (off + m)),
            self.adj_edge.slice(2 * off, 2 * (off + m)),
            self.edge_orig.slice(off, off + m),
        ]
    }

    /// The tree of declared source `i`, `source`.
    #[inline]
    pub fn tree(&self, i: usize, source: VertexId) -> SourceTree<'a> {
        let n = self.n;
        SourceTree {
            source,
            dist: self.trees.slice(2 * i * n, (2 * i + 1) * n),
            parent: self.trees.slice((2 * i + 1) * n, (2 * i + 2) * n),
        }
    }

    /// The slab serving `source`: with one shared slab any in-range
    /// vertex, with per-source slabs only a declared source.  Declared
    /// sources carry their index and their fault-free tree.
    #[inline(always)]
    pub fn slab(&self, sources: &[VertexId], source: VertexId) -> Option<OracleSlab<'a>> {
        let declared = sources.iter().position(|&s| s == source);
        // The shared slab is the whole arrays: no table lookup on the hot
        // path.
        let (j, extent) = match self.table {
            None if source.index() < self.n => (0, (self.edge_orig.len(), 0)),
            None => return None,
            Some(_) => {
                let j = declared?;
                (j, self.extent(j))
            }
        };
        let [xadj, adj_head, adj_edge, edge_orig] = self.arrays(j, extent);
        Some(OracleSlab {
            source,
            declared,
            tree: declared.map(|i| self.tree(i, source)),
            xadj,
            adj_head,
            adj_edge,
            edge_orig,
        })
    }
}

/// The sections a freeze compiles, in snapshot order, over the base edge
/// records `(orig, u, v)` that slab lists index.
#[derive(Default)]
struct Sections<'e> {
    n: usize,
    edges: &'e [(u32, u32, u32)],
    table: Vec<u32>,
    edge_orig: Vec<u32>,
    xadj: Vec<u32>,
    adj_head: Vec<u32>,
    adj_edge: Vec<u32>,
    trees: Vec<u32>,
}

impl Sections<'_> {
    /// Appends the CSR slab over the base edges `list`, with each vertex's
    /// arcs sorted by head id (mirroring [`Graph`]'s deterministic
    /// adjacency order), and the trees of `roots` over it.
    fn push_slab(&mut self, list: &[u32], roots: &[VertexId]) {
        let n = self.n;
        let mut xadj = vec![0u32; n + 1];
        for &i in list {
            let (_, u, v) = self.edges[i as usize];
            xadj[u as usize + 1] += 1;
            xadj[v as usize + 1] += 1;
        }
        for v in 0..n {
            xadj[v + 1] += xadj[v];
        }
        // Arcs packed as `head << 32 | local edge`, so sorting a vertex's
        // segment sorts by head (ties are impossible: the graph is simple).
        let mut cursor = xadj.clone();
        let mut arcs = vec![0u64; 2 * list.len()];
        for (local, &i) in list.iter().enumerate() {
            let (_, u, v) = self.edges[i as usize];
            for (tail, head) in [(u, v), (v, u)] {
                arcs[cursor[tail as usize] as usize] = (head as u64) << 32 | local as u64;
                cursor[tail as usize] += 1;
            }
        }
        for v in 0..n {
            arcs[xadj[v] as usize..xadj[v + 1] as usize].sort_unstable();
        }
        let heads: Vec<u32> = arcs.iter().map(|&a| (a >> 32) as u32).collect();
        for &source in roots {
            self.push_tree(&xadj, &heads, source);
        }
        self.xadj.extend(xadj);
        self.adj_head.extend(heads);
        self.adj_edge.extend(arcs.iter().map(|&a| a as u32));
        self.edge_orig
            .extend(list.iter().map(|&i| self.edges[i as usize].0));
    }

    /// Appends the fault-free BFS tree of `source` over one slab's CSR.
    fn push_tree(&mut self, xadj: &[u32], heads: &[u32], source: VertexId) {
        let mut dist = vec![UNREACHED; self.n];
        let mut parent = vec![NO_PARENT; self.n];
        dist[source.index()] = 0;
        let mut queue = std::collections::VecDeque::from([source.0]);
        while let Some(u) = queue.pop_front() {
            for &x in &heads[xadj[u as usize] as usize..xadj[u as usize + 1] as usize] {
                let x = x as usize;
                if dist[x] == UNREACHED {
                    dist[x] = dist[u as usize] + 1;
                    parent[x] = u;
                    queue.push_back(x as u32);
                }
            }
        }
        self.trees.extend(dist);
        self.trees.extend(parent);
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
        FrozenStructure::build(graph, sources, resilience, contract, &ids, None)
    }

    /// Freezes the per-source structures of an FT-MBFS source set into one
    /// slab per source (the `"FTBM"` layout; see the module docs).
    ///
    /// Each part must be single-source and all parts must declare the same
    /// resilience (the natural output shape of
    /// [`ftbfs_core::multi_failure_ftmbfs_parts`]).  Only the parts'
    /// sources are servable.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, a part is not single-source, sources
    /// repeat, resiliences disagree, or a part references an edge that does
    /// not exist in `graph`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ftbfs_core::multi_failure_ftmbfs_parts;
    /// use ftbfs_graph::{generators, FaultSpec, TieBreak, VertexId};
    /// use ftbfs_oracle::{FrozenStructure, QueryEngine, QueryError};
    ///
    /// let g = generators::tree_plus_chords(12, 5, 7);
    /// let w = TieBreak::new(&g, 7);
    /// let sources = [VertexId(0), VertexId(5)];
    /// let parts = multi_failure_ftmbfs_parts(&g, &w, &sources, 2);
    /// let frozen = FrozenStructure::freeze_parts(&g, &parts);
    ///
    /// let mut engine = QueryEngine::new();
    /// let matrix = engine
    ///     .try_distance_matrix(&frozen, &FaultSpec::None)
    ///     .unwrap()
    ///     .into_value();
    /// assert_eq!(matrix.sources(), &sources);
    /// assert_eq!(matrix.get(0, VertexId(0)), Some(0));
    /// assert_eq!(
    ///     engine.try_distance_from(&frozen, VertexId(3), VertexId(0), &FaultSpec::None),
    ///     Err(QueryError::UnservedSource { source: VertexId(3) })
    /// );
    /// ```
    pub fn freeze_parts(graph: &Graph, parts: &[FtBfsStructure]) -> Self {
        assert!(!parts.is_empty(), "a multi structure needs ≥ 1 source");
        let resilience = parts[0].resilience();
        let mut sources = Vec::with_capacity(parts.len());
        let mut union = std::collections::BTreeSet::new();
        for part in parts {
            assert_eq!(part.sources().len(), 1, "each part must be single-source");
            assert_eq!(
                part.resilience(),
                resilience,
                "parts must share a resilience"
            );
            sources.push(part.sources()[0]);
            union.extend(part.edges());
        }
        let ids: Vec<EdgeId> = union.into_iter().collect();
        let lists = parts
            .iter()
            .map(|part| {
                let index = |e: EdgeId| ids.binary_search(&e).expect("edge is in the union");
                part.edges().map(|e| index(e) as u32).collect()
            })
            .collect();
        let exact = Contract::Exact;
        FrozenStructure::build(graph, &sources, resilience, exact, &ids, Some(lists))
    }

    /// Compiles the structure over `ids` (sorted, distinct) — and, for the
    /// per-source layout, each slab's union-edge indices — into snapshot
    /// sections, encodes them and loads the result.  Loading runs the same
    /// invariant checks and certificate as any snapshot, so a malformed
    /// contract, a missing or repeated source, or a bad compile panics
    /// here.
    fn build(
        graph: &Graph,
        sources: &[VertexId],
        resilience: usize,
        contract: Contract,
        ids: &[EdgeId],
        slab_lists: Option<Vec<Vec<u32>>>,
    ) -> Self {
        let n = graph.vertex_count();
        assert!(sources.iter().all(|s| s.index() < n), "source out of range");
        let edges: Vec<(u32, u32, u32)> = ids
            .iter()
            .map(|&e| {
                assert!(graph.contains_edge(e), "edge {e:?} is not in the graph");
                let ep = graph.endpoints(e);
                (e.0, ep.u.0, ep.v.0)
            })
            .collect();
        let mut base = Vec::new();
        put_base(
            &mut base,
            contract,
            n as u32,
            resilience as u32,
            sources,
            &edges,
        );
        let mut s = Sections {
            n,
            edges: &edges,
            ..Sections::default()
        };
        let mut sections = Vec::with_capacity(6);
        let magic = match slab_lists {
            None => {
                s.push_slab(&(0..edges.len() as u32).collect::<Vec<_>>(), sources);
                SNAPSHOT_MAGIC
            }
            Some(lists) => {
                for (list, source) in lists.iter().zip(sources) {
                    s.table
                        .extend([list.len() as u32, s.edge_orig.len() as u32]);
                    put_u32(&mut base, list.len() as u32);
                    put_u32_slice(&mut base, list);
                    s.push_slab(list, std::slice::from_ref(source));
                }
                sections.push((SEC_SLAB_TABLE, words(&s.table)));
                SNAPSHOT_MULTI_MAGIC
            }
        };
        sections.extend([
            (SEC_EDGE_ORIG, words(&s.edge_orig)),
            (SEC_XADJ, words(&s.xadj)),
            (SEC_ARC_HEADS, words(&s.adj_head)),
            (SEC_ARC_EDGES, words(&s.adj_edge)),
            (SEC_TREES, words(&s.trees)),
        ]);
        let bytes = assemble(magic, &base, fnv1a64(&base), &sections);
        FrozenStructure::load(&bytes).unwrap_or_else(|e| panic!("cannot freeze: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_core::{dual_failure_ftbfs, multi_failure_ftmbfs_parts};
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

    #[test]
    fn freeze_parts_builds_per_source_slabs_over_the_union() {
        let g = generators::tree_plus_chords(14, 6, 2);
        let w = TieBreak::new(&g, 2);
        let sources = [v(0), v(7)];
        let parts = multi_failure_ftmbfs_parts(&g, &w, &sources, 2);
        let frozen = FrozenStructure::freeze_parts(&g, &parts);
        assert_eq!(frozen.vertex_count(), g.vertex_count());
        assert_eq!(frozen.sources(), &sources[..]);
        assert_eq!(frozen.resilience(), 2);
        assert_eq!(frozen.slabs().xadj.len(), 2 * (g.vertex_count() + 1));
        for (i, part) in parts.iter().enumerate() {
            // Each slab is exactly its part, and its tree is BFS inside it.
            let slab = frozen.slab(sources[i]).expect("declared source has a slab");
            assert_eq!(slab.edge_count(), part.edge_count());
            assert!(part.edges().all(|e| slab.frozen_index(e).is_some()));
            let tree = frozen.tree_for(sources[i]).unwrap();
            let reference = bfs(&part.as_view(&g), sources[i]);
            for x in g.vertices() {
                assert_eq!(tree.distance(x), reference.distance(x));
            }
        }
        assert!(
            frozen.slab(v(3)).is_none(),
            "undeclared sources are unserved"
        );
        // The union round-trips to the multi_failure_ftmbfs shape.
        let union = frozen.to_structure();
        assert_eq!(union.sources(), &sources[..]);
        assert_eq!(union.edge_count(), frozen.edge_count());
        assert!(parts.iter().all(|p| p.edges().all(|e| union.contains(e))));
    }

    #[test]
    fn slab_layout_decides_which_sources_are_served() {
        use crate::{FrozenView, QueryEngine, QueryError};
        use ftbfs_graph::FaultSpec;
        let g = generators::cycle(8);
        let part = |s: u32| FtBfsStructure::from_edges(vec![v(s)], 2, g.edges());
        let shared = FrozenStructure::from_edges(&g, &[v(0)], 2, g.edges());
        let single = FrozenStructure::freeze_parts(&g, &[part(0)]);
        let multi = FrozenStructure::freeze_parts(&g, &[part(0), part(4)]);
        let unserved = Err(QueryError::UnservedSource { source: v(5) });
        let mut engine = QueryEngine::new();
        for (frozen, served) in [(&shared, true), (&single, false), (&multi, false)] {
            let bytes = frozen.save();
            let view = FrozenView::open(&bytes).unwrap();
            let from_frozen = engine.try_distance_from(frozen, v(5), v(1), &FaultSpec::None);
            let from_view = engine.try_distance_from(&view, v(5), v(1), &FaultSpec::None);
            assert_eq!(from_frozen, from_view);
            if served {
                assert_eq!(from_frozen.unwrap().into_value(), Some(4));
            } else {
                assert_eq!(from_frozen, unserved);
            }
            // Declared sources are always served, out-of-range ones never.
            assert!(frozen.slab(v(0)).is_some() && view.slab(v(0)).is_some());
            assert!(frozen.slab(v(8)).is_none() && view.slab(v(8)).is_none());
        }
    }

    #[test]
    #[should_panic]
    fn freeze_parts_rejects_multi_source_parts() {
        let g = generators::cycle(6);
        let part = FtBfsStructure::from_edges(vec![v(0), v(1)], 2, g.edges());
        let _ = FrozenStructure::freeze_parts(&g, &[part]);
    }

    #[test]
    #[should_panic]
    fn freeze_parts_rejects_duplicate_sources() {
        let g = generators::cycle(6);
        let a = FtBfsStructure::from_edges(vec![v(0)], 2, g.edges());
        let b = FtBfsStructure::from_edges(vec![v(0)], 2, g.edges());
        let _ = FrozenStructure::freeze_parts(&g, &[a, b]);
    }
}
