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
//!   original [`EdgeId`]s of a [`ftbfs_graph::FaultSet`] are translated
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
//!   different structure, and the binary snapshot format
//!   ([`FrozenStructure::save`] / [`FrozenStructure::load`], see
//!   [`crate::snapshot`]) stores the same encoding as its base payload.
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
//! Either way the owned arrays mirror the snapshot sections: per-slab edge
//! ids, CSR offsets (`slabs × (n + 1)`) and arcs concatenated slab after
//! slab, and `k × 2n` tree words.  All slabs index the same vertex set
//! `0..n`, so one engine workspace serves every source.

use crate::api::{Contract, DistanceOracle, OracleSlab, SlabTree};
use crate::snapshot::{
    assemble, check_contract, put_base, words, SnapshotError, SnapshotVersion, SEC_ARC_EDGES,
    SEC_ARC_HEADS, SEC_EDGE_ORIG, SEC_SLAB_TABLE, SEC_TREES, SEC_XADJ, SNAPSHOT_MAGIC,
    SNAPSHOT_MULTI_MAGIC,
};
use ftbfs_core::FtBfsStructure;
use ftbfs_graph::bytes::{fnv1a64, put_u32, put_u32_slice, LeU32s, WordRead, WordSlice};
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrozenStructure {
    n: u32,
    sources: Vec<VertexId>,
    resilience: u32,
    contract: Contract,
    /// The structure's (union) edge list: original ids strictly increasing,
    /// endpoints normalised `u < v`.
    edge_orig: Vec<u32>,
    edge_u: Vec<u32>,
    edge_v: Vec<u32>,
    /// Per-source layout only: the slabs' edge lists as union-edge
    /// indices, concatenated (the base payload's slab lists).
    slab_index: Vec<u32>,
    /// Per-source layout only: `k × (m_s, offset)` into the concatenated
    /// per-slab arrays (the `SLBT` section).  Empty for one shared slab.
    slab_table: Vec<u32>,
    /// Per-slab original edge ids, concatenated (`EORI`).
    slab_orig: Vec<u32>,
    /// Per-slab CSR offsets, `slabs × (n + 1)` (`XADJ`): the arcs of `v`
    /// in a slab are its `adj_*[xadj[v]..xadj[v+1]]`.
    xadj: Vec<u32>,
    /// Per-slab arc heads (`AHED`) and slab-local edge indices (`AEDG`).
    adj_head: Vec<u32>,
    adj_edge: Vec<u32>,
    /// Per declared source, its dist row then its parent row (`TREE`).
    trees: Vec<u32>,
    fingerprint: u64,
}

/// The precomputed fault-free BFS tree of one source inside its slab.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SourceTree<'a> {
    source: VertexId,
    dist: &'a [u32],
    parent_head: &'a [u32],
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
        self.distance(v)?;
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

/// A `u32` array a [`SlabTable`] refers to: an owned vector (structures)
/// or little-endian snapshot bytes (views).  Sub-ranges are only taken
/// when a slab is handed out, so the owned table costs no loads to build.
pub(crate) trait Words: Copy {
    /// A sub-range of the array.
    type Slice: WordRead;
    fn len(self) -> usize;
    fn get(self, i: usize) -> u32;
    fn slice(self, lo: usize, hi: usize) -> Self::Slice;
}

impl<'a> Words for &'a Vec<u32> {
    type Slice = &'a [u32];

    #[inline]
    fn len(self) -> usize {
        Vec::len(self)
    }

    #[inline]
    fn get(self, i: usize) -> u32 {
        self[i]
    }

    #[inline]
    fn slice(self, lo: usize, hi: usize) -> &'a [u32] {
        &self[lo..hi]
    }
}

impl<'a> Words for LeU32s<'a> {
    type Slice = LeU32s<'a>;

    #[inline]
    fn len(self) -> usize {
        LeU32s::len(&self)
    }

    #[inline]
    fn get(self, i: usize) -> u32 {
        LeU32s::get(&self, i)
    }

    #[inline]
    fn slice(self, lo: usize, hi: usize) -> LeU32s<'a> {
        LeU32s::slice(&self, lo, hi)
    }
}

/// The serving arrays of a frozen structure, borrowed from owned vectors
/// or from snapshot sections, and the one rule deciding which sources they
/// serve.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SlabTable<W> {
    pub n: usize,
    /// `k × (m_s, offset)` for per-source slabs; `None` for one shared slab.
    pub table: Option<W>,
    pub edge_orig: W,
    pub xadj: W,
    pub adj_head: W,
    pub adj_edge: W,
    pub trees: W,
}

impl<W: Words> SlabTable<W> {
    /// Number of slabs.
    pub fn len(&self) -> usize {
        self.xadj.len() / (self.n + 1)
    }

    /// The slab the tree of declared source `i` lives in.
    pub fn slab_of(&self, i: usize) -> usize {
        if self.table.is_some() {
            i
        } else {
            0
        }
    }

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
    pub fn csr(&self, j: usize) -> [W::Slice; 4] {
        self.arrays(j, self.extent(j))
    }

    /// [`Self::csr`] given slab `j`'s extent.
    #[inline]
    fn arrays(&self, j: usize, (m, off): (usize, usize)) -> [W::Slice; 4] {
        let n = self.n;
        [
            self.xadj.slice(j * (n + 1), (j + 1) * (n + 1)),
            self.adj_head.slice(2 * off, 2 * (off + m)),
            self.adj_edge.slice(2 * off, 2 * (off + m)),
            self.edge_orig.slice(off, off + m),
        ]
    }

    /// The `(dist, parent)` rows of declared source `i`'s tree.
    #[inline]
    pub fn tree(&self, i: usize) -> (W::Slice, W::Slice) {
        let n = self.n;
        (
            self.trees.slice(2 * i * n, (2 * i + 1) * n),
            self.trees.slice((2 * i + 1) * n, (2 * i + 2) * n),
        )
    }

    /// The slab serving `source`: with one shared slab any in-range
    /// vertex, with per-source slabs only a declared source.  Declared
    /// sources carry their fault-free tree.
    #[inline(always)]
    pub fn slab<'a>(&self, sources: &[VertexId], source: VertexId) -> Option<OracleSlab<'a>>
    where
        W::Slice: Into<WordSlice<'a>>,
    {
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
        let tree = declared.map(|i| {
            let (dist, parent) = self.tree(i);
            SlabTree::new(dist, parent)
        });
        let [xadj, heads, edges, orig] = self.arrays(j, extent);
        Some(OracleSlab::new(source, xadj, heads, edges, orig, tree))
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
        let n = graph.vertex_count();
        assert!(!sources.is_empty(), "a frozen structure needs ≥ 1 source");
        assert!(sources.iter().all(|s| s.index() < n), "source out of range");
        if let Err(e) = check_contract(contract) {
            panic!("cannot freeze: {e}");
        }
        let mut ids: Vec<EdgeId> = edges.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        FrozenStructure::build(graph, sources.to_vec(), resilience, contract, &ids, None)
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
            let s = part.sources()[0];
            assert!(!sources.contains(&s), "duplicate source {s:?} in the parts");
            sources.push(s);
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
        FrozenStructure::build(
            graph,
            sources,
            resilience,
            Contract::Exact,
            &ids,
            Some(lists),
        )
    }

    /// Reads the endpoints of `ids` (sorted, distinct) from `graph` and
    /// compiles the structure.
    fn build(
        graph: &Graph,
        sources: Vec<VertexId>,
        resilience: usize,
        contract: Contract,
        ids: &[EdgeId],
        slab_lists: Option<Vec<Vec<u32>>>,
    ) -> Self {
        let mut cols = (Vec::new(), Vec::new(), Vec::new());
        for &e in ids {
            assert!(graph.contains_edge(e), "edge {e:?} is not in the graph");
            let ep = graph.endpoints(e);
            cols.0.push(e.0);
            cols.1.push(ep.u.0);
            cols.2.push(ep.v.0);
        }
        let n = graph.vertex_count() as u32;
        Self::from_parts(n, sources, resilience as u32, contract, cols, slab_lists)
    }

    /// Compiles validated determining data — the edge columns and, for
    /// the per-source layout, each slab's union-edge indices — into the
    /// serving arrays.  Shared by the constructors and snapshot loading.
    pub(crate) fn from_parts(
        n: u32,
        sources: Vec<VertexId>,
        resilience: u32,
        contract: Contract,
        (edge_orig, edge_u, edge_v): (Vec<u32>, Vec<u32>, Vec<u32>),
        slab_lists: Option<Vec<Vec<u32>>>,
    ) -> Self {
        let mut s = FrozenStructure {
            n,
            sources,
            resilience,
            contract,
            edge_orig,
            edge_u,
            edge_v,
            slab_index: Vec::new(),
            slab_table: Vec::new(),
            slab_orig: Vec::new(),
            xadj: Vec::new(),
            adj_head: Vec::new(),
            adj_edge: Vec::new(),
            trees: Vec::new(),
            fingerprint: 0,
        };
        match slab_lists {
            None => s.push_slab(&(0..s.edge_orig.len() as u32).collect::<Vec<_>>()),
            Some(lists) => {
                for list in lists {
                    s.slab_table.push(list.len() as u32);
                    s.slab_table.push(s.slab_index.len() as u32);
                    s.push_slab(&list);
                    s.slab_index.extend(list);
                }
            }
        }
        for i in 0..s.sources.len() {
            s.push_tree(i);
        }
        s.fingerprint = fnv1a64(&s.base_bytes());
        s
    }

    /// Appends the CSR slab over the union edges `list`, with each
    /// vertex's arcs sorted by head id (mirroring [`Graph`]'s deterministic
    /// adjacency order).
    fn push_slab(&mut self, list: &[u32]) {
        let n = self.n as usize;
        let mut xadj = vec![0u32; n + 1];
        for &i in list {
            xadj[self.edge_u[i as usize] as usize + 1] += 1;
            xadj[self.edge_v[i as usize] as usize + 1] += 1;
        }
        for v in 0..n {
            xadj[v + 1] += xadj[v];
        }
        // Arcs packed as `head << 32 | local edge`, so sorting a vertex's
        // segment sorts by head (ties are impossible: the graph is simple).
        let mut cursor = xadj.clone();
        let mut arcs = vec![0u64; 2 * list.len()];
        for (local, &i) in list.iter().enumerate() {
            let (u, v) = (self.edge_u[i as usize], self.edge_v[i as usize]);
            for (tail, head) in [(u, v), (v, u)] {
                arcs[cursor[tail as usize] as usize] = (head as u64) << 32 | local as u64;
                cursor[tail as usize] += 1;
            }
        }
        for v in 0..n {
            arcs[xadj[v] as usize..xadj[v + 1] as usize].sort_unstable();
        }
        self.xadj.extend(xadj);
        self.adj_head.extend(arcs.iter().map(|&a| (a >> 32) as u32));
        self.adj_edge.extend(arcs.iter().map(|&a| a as u32));
        self.slab_orig
            .extend(list.iter().map(|&i| self.edge_orig[i as usize]));
    }

    /// Appends the fault-free BFS tree of declared source `i` over its
    /// slab.
    fn push_tree(&mut self, i: usize) {
        let n = self.n as usize;
        let source = self.sources[i];
        let [xadj, heads, ..] = self.slabs().csr(self.slabs().slab_of(i));
        let mut dist = vec![UNREACHED; n];
        let mut parent = vec![NO_PARENT; n];
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

    /// The serving arrays, borrowed.
    #[inline(always)]
    pub(crate) fn slabs(&self) -> SlabTable<&Vec<u32>> {
        SlabTable {
            n: self.n as usize,
            table: (!self.slab_table.is_empty()).then_some(&self.slab_table),
            edge_orig: &self.slab_orig,
            xadj: &self.xadj,
            adj_head: &self.adj_head,
            adj_edge: &self.adj_edge,
            trees: &self.trees,
        }
    }

    /// The canonical encoding of the determining data — the snapshot's
    /// base payload and the input of [`Self::fingerprint`].
    pub(crate) fn base_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            36 + 4 * (self.sources.len() + self.slab_table.len() + self.slab_index.len())
                + 12 * self.edge_orig.len(),
        );
        put_base(
            &mut out,
            self.contract,
            self.n,
            self.resilience,
            &self.sources,
            (&self.edge_orig, &self.edge_u, &self.edge_v),
        );
        for slab in self.slab_table.chunks_exact(2) {
            let (m, off) = (slab[0] as usize, slab[1] as usize);
            put_u32(&mut out, m as u32);
            put_u32_slice(&mut out, &self.slab_index[off..off + m]);
        }
        out
    }

    /// Serialises the structure to its snapshot; see [`crate::snapshot`]
    /// for the layout.
    pub fn save(&self) -> Vec<u8> {
        self.save_with(SnapshotVersion::V2)
    }

    /// Serialises the structure to the chosen snapshot format version (v2
    /// is the only one).  The magic follows the layout: `"FTBO"` for one
    /// shared slab, `"FTBM"` for per-source slabs.
    pub fn save_with(&self, version: SnapshotVersion) -> Vec<u8> {
        let SnapshotVersion::V2 = version;
        let mut sections = Vec::with_capacity(6);
        let magic = if self.slab_table.is_empty() {
            SNAPSHOT_MAGIC
        } else {
            sections.push((SEC_SLAB_TABLE, words(&self.slab_table)));
            SNAPSHOT_MULTI_MAGIC
        };
        sections.extend([
            (SEC_EDGE_ORIG, words(&self.slab_orig)),
            (SEC_XADJ, words(&self.xadj)),
            (SEC_ARC_HEADS, words(&self.adj_head)),
            (SEC_ARC_EDGES, words(&self.adj_edge)),
            (SEC_TREES, words(&self.trees)),
        ]);
        assemble(magic, &self.base_bytes(), self.fingerprint, &sections)
    }

    /// Deserialises a snapshot of either magic: the bytes are validated
    /// exactly like a [`crate::FrozenView`] open and then rebuilt into an
    /// owned structure equal to the saved one (same fingerprint, same
    /// contract, same layout, identical query answers).
    ///
    /// Malformed input of any kind returns a typed [`SnapshotError`]; this
    /// function never panics.
    pub fn load(data: &[u8]) -> Result<Self, SnapshotError> {
        crate::view::FrozenView::open_bytes(data)?.to_frozen()
    }

    /// Number of vertices of the underlying graph.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.n as usize
    }

    /// Number of edges in the frozen structure (`|E(H)|`; for per-source
    /// slabs, the union `⋃_s H_s`).
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

    /// The index of original edge `e` in the structure's edge list, or
    /// `None` if `e` is not part of the structure.  `O(log |E(H)|)`.
    #[inline]
    pub fn frozen_index(&self, e: EdgeId) -> Option<u32> {
        self.edge_orig.binary_search(&e.0).ok().map(|i| i as u32)
    }

    /// Returns `true` if original edge `e` belongs to the structure.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.frozen_index(e).is_some()
    }

    /// The original [`EdgeId`] of structure edge `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a valid edge index.
    pub fn original_edge(&self, index: u32) -> EdgeId {
        EdgeId(self.edge_orig[index as usize])
    }

    /// The endpoints of structure edge `index`, normalised `u < v`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a valid edge index.
    pub fn endpoints(&self, index: u32) -> (VertexId, VertexId) {
        (
            VertexId(self.edge_u[index as usize]),
            VertexId(self.edge_v[index as usize]),
        )
    }

    /// The precomputed fault-free tree rooted at `s`, if `s` is one of the
    /// structure's sources.
    pub fn tree_for(&self, s: VertexId) -> Option<SourceTree<'_>> {
        let i = self.sources.iter().position(|&x| x == s)?;
        let n = self.vertex_count();
        Some(SourceTree {
            source: s,
            dist: &self.trees[2 * i * n..(2 * i + 1) * n],
            parent_head: &self.trees[(2 * i + 1) * n..(2 * i + 2) * n],
        })
    }

    /// The FNV-1a fingerprint of the structure's canonical byte encoding.
    ///
    /// Two frozen structures answer identically iff their fingerprints
    /// (over `n`, resilience, contract, sources, the edge list and any
    /// per-source slab lists) agree; the query engine uses this to
    /// invalidate its cache when rebound.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Reconstructs a mutable [`FtBfsStructure`] with the same sources,
    /// resilience and (union) edge set — the inverse of
    /// [`FrozenStructure::freeze`], and the shape
    /// [`ftbfs_core::multi_failure_ftmbfs`] returns for per-source slabs;
    /// the contract is not part of it.
    pub fn to_structure(&self) -> FtBfsStructure {
        FtBfsStructure::from_edges(
            self.sources.clone(),
            self.resilience as usize,
            self.edge_orig.iter().map(|&e| EdgeId(e)),
        )
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

    /// See the module docs: one shared slab serves any in-range source,
    /// per-source slabs only the declared ones.
    #[inline(always)]
    fn slab(&self, source: VertexId) -> Option<OracleSlab<'_>> {
        self.slabs().slab(&self.sources, source)
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
        assert_eq!(frozen.slabs().len(), 2);
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
            let view = FrozenView::open_bytes(&bytes).unwrap();
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
