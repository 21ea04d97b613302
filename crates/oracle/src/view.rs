//! The one frozen type, [`FrozenView`], over snapshot bytes, and the
//! [`SnapshotSource`] it opens.
//!
//! A snapshot (see [`crate::snapshot`]) stores not just the determining
//! edge list but every derived array — CSR offsets and arcs, fault-free
//! trees, slab tables — as 64-byte-aligned little-endian sections.  A view
//! *opens* such bytes: it validates the frame (bounds, alignment,
//! checksums, freeze invariants), certifies the derived sections against
//! the base, and then serves queries **directly out of the bytes** through
//! [`ftbfs_graph::bytes::LeU32s`] accessors.  Nothing is rebuilt and none
//! of the big arrays are copied; open-time allocation is limited to
//! metadata scratch (the small source list and section table).
//!
//! The bytes are borrowed or owned.  Borrowed is the zero-copy serving
//! path: a server reads a snapshot file into a buffer, or maps it
//! read-only itself (page-aligned, so the 64-byte section alignment holds
//! in memory) and borrows the region, wraps the bytes in a
//! [`SnapshotSource`], opens a view, and serves immediately.  Owned is
//! [`FrozenStructure`] (`FrozenView<'static>`): freezing encodes a
//! structure and opens the result, [`FrozenStructure::load`] opens a copy,
//! and [`FrozenView::save`] hands the bytes back.  Either way one type
//! serves both slab layouts, so every engine feature (fault LRU, tree fast
//! path, batched and threaded serving) works the same on both.
//!
//! Safety under corruption: the open-time checks guarantee that *any*
//! byte-level corruption is rejected (every byte is covered by a
//! checksum, the magic, or the zero-padding rule).  Checksums alone do not
//! stop a writer that recomputed them over wrong sections, so open also
//! certifies that the derived sections are exactly what the base
//! determines, in one `O(n + m)` pass over each slab per tree it carries,
//! with no allocation:
//!
//! * every slab's edge ids are the base edges it selects;
//! * its CSR offsets run monotonically from zero to `2m`, each vertex's
//!   arc heads strictly increase, and every arc's edge joins exactly its
//!   tail and head in the base edge list — so each edge has exactly two
//!   arcs and the CSR is the one freezing would build;
//! * every tree has a `(0, no parent)` source row, each reached vertex's
//!   distance is its parent's plus one over an arc to that parent, and no
//!   arc joins a reached vertex to an unreached one or spans more than one
//!   level — so each tree is a BFS tree of its slab, and parent walks
//!   terminate.
//!
//! Opening never panics on malformed input; it returns a typed
//! [`SnapshotError`].
//!
//! One field is *attested* rather than recomputed on open: the structure
//! fingerprint, stored in the (frame-checksummed) header so open need not
//! re-hash the base.  In-tree writers always store the correct value (the
//! golden-fixture CI gate pins this), and [`FrozenStructure::load`]
//! recomputes it from the base payload, rejecting snapshots from writers
//! that got it wrong.

use crate::api::{Contract, Guarantee};
use crate::frozen::{FrozenStructure, OracleSlab, SlabTable, SourceTree, NO_PARENT, UNREACHED};
use crate::snapshot::{
    corrupt, read_frame, require_section, Base, SnapshotError, SnapshotVersion, SEC_ARC_EDGES,
    SEC_ARC_HEADS, SEC_EDGE_ORIG, SEC_SLAB_TABLE, SEC_TREES, SEC_XADJ,
};
use ftbfs_core::FtBfsStructure;
use ftbfs_graph::bytes::{fnv1a64, LeU32s};
use ftbfs_graph::{EdgeId, FaultSpec, VertexId};
use std::borrow::Cow;
use std::ops::Range;

/// Snapshot bytes for a view to open: owned (read from disk or the
/// network into a `Vec<u8>`) or borrowed (for example a caller-managed
/// mapped region — any `&[u8]` whose lifetime outlives the views opened
/// over it, which is the zero-copy path).
///
/// The source only carries the bytes; validation happens when a
/// [`FrozenView`] is opened over it.
///
/// # Examples
///
/// ```
/// use ftbfs_graph::generators;
/// use ftbfs_graph::VertexId;
/// use ftbfs_oracle::{FrozenStructure, FrozenView, SnapshotSource, SnapshotVersion};
///
/// let g = generators::cycle(8);
/// let frozen = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, g.edges());
/// let source = SnapshotSource::owned(frozen.save_with(SnapshotVersion::V2));
/// let view = FrozenView::open(&source).unwrap();
/// assert_eq!(view.fingerprint(), frozen.fingerprint());
/// ```
#[derive(Clone, Debug)]
pub struct SnapshotSource<'a> {
    data: Cow<'a, [u8]>,
}

impl<'a> SnapshotSource<'a> {
    /// A source that owns its bytes.
    pub fn owned(data: Vec<u8>) -> SnapshotSource<'static> {
        SnapshotSource {
            data: Cow::Owned(data),
        }
    }

    /// A source borrowing bytes that live elsewhere (e.g. a mapped file).
    pub fn borrowed(data: &'a [u8]) -> Self {
        SnapshotSource {
            data: Cow::Borrowed(data),
        }
    }

    /// The snapshot bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Returns `true` if the source holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }
}

impl From<Vec<u8>> for SnapshotSource<'static> {
    fn from(data: Vec<u8>) -> Self {
        SnapshotSource::owned(data)
    }
}

impl<'a> From<&'a [u8]> for SnapshotSource<'a> {
    fn from(data: &'a [u8]) -> Self {
        SnapshotSource::borrowed(data)
    }
}

/// Certifies slab `j` and the trees over it against the base (see the
/// module docs).  `prefix` is the edge count of the slabs before `j`.
fn check_slab(
    base: &Base<'_>,
    slabs: &SlabTable<'_>,
    j: usize,
    prefix: usize,
) -> Result<(), SnapshotError> {
    if base.slab_lists.is_empty() {
        // One shared slab carries every declared source's tree.
        return (0..base.source_count).try_for_each(|i| check_slab_tree(base, slabs, 0, i, |e| e));
    }
    // The per-source base lists select each slab's union edges.
    let list = base.slab_list(j);
    if slabs.extent(j) != (list.len(), prefix) {
        return corrupt("slab table disagrees with the base slab lists");
    }
    check_slab_tree(base, slabs, j, j, |e| list.get(e) as usize)
}

/// Certifies slab `j` together with declared source `i`'s tree over it,
/// in one pass over its vertices; monomorphised over the map from slab
/// edges to base edges.
#[inline(always)]
fn check_slab_tree(
    base: &Base<'_>,
    slabs: &SlabTable<'_>,
    j: usize,
    i: usize,
    union_index: impl Fn(usize) -> usize,
) -> Result<(), SnapshotError> {
    let (n, source) = (slabs.n, base.source(i));
    let [xadj, heads, edges, orig] = slabs.csr(j);
    let SourceTree { dist, parent, .. } = slabs.tree(i, VertexId(source));
    let (m, source) = (orig.len(), source as usize);
    if (0..m).any(|e| orig.get(e) != base.edge_id(union_index(e))) {
        return corrupt("edge-id section disagrees with the base edge list");
    }
    if xadj.get(0) != 0 || xadj.get(n) as usize != 2 * m {
        return corrupt("CSR offsets must run from zero to 2m");
    }
    let mut lo = 0;
    for v in 0..n {
        let hi = xadj.get(v + 1) as usize;
        if hi < lo || hi > 2 * m {
            return corrupt("CSR offsets must be monotone");
        }
        let (d, p) = (dist.get(v), parent.get(v));
        if v == source {
            if d != 0 || p != NO_PARENT {
                return corrupt("tree source row must be (0, no parent)");
            }
        } else if p == NO_PARENT {
            if d != UNREACHED {
                return corrupt("reached tree vertex lacks a parent");
            }
        } else if p as usize >= n || dist.get(p as usize) == UNREACHED {
            return corrupt("tree parent out of range or unreached");
        } else if d != dist.get(p as usize) + 1 {
            return corrupt("tree distance does not follow its parent");
        }
        // `next` only ever holds a certified head below n, plus one.
        let (tail, mut next, mut parent_arc) = (v as u32, 0, p == NO_PARENT);
        for a in lo..hi {
            let (head, e) = (heads.get(a), edges.get(a) as usize);
            if head < next {
                return corrupt("arc heads must strictly increase per vertex");
            }
            if e >= m || base.endpoints(union_index(e)) != (tail.min(head), tail.max(head)) {
                return corrupt("arc does not match its edge's endpoints");
            }
            next = head + 1;
            parent_arc |= head == p;
            // Reached distances are below n, so an arc between a reached
            // and an unreached vertex differs by far more than one.
            if d.abs_diff(dist.get(head as usize)) > 1 {
                return corrupt("tree distances are not a BFS layering of the slab");
            }
        }
        if !parent_arc {
            return corrupt("tree parent is not a neighbour in the slab");
        }
        lo = hi;
    }
    Ok(())
}

/// `data` as little-endian words; open checked that its length is whole
/// words, so nothing is cut.
#[inline(always)]
fn le_words(data: &[u8]) -> LeU32s<'_> {
    LeU32s::new(&data[..data.len() & !3]).expect("whole words")
}

/// A frozen structure served straight out of the bytes of a snapshot of
/// either layout (`"FTBO"`: one shared slab; `"FTBM"`: one slab per
/// declared source), exact or approximate; see the [module docs](self).
///
/// Opened with [`FrozenView::open`] (from a [`SnapshotSource`]) or
/// [`FrozenView::open_bytes`] over borrowed bytes; [`FrozenStructure`] is
/// the same type over owned bytes.  The query engine serves from it: a
/// view answers bit-identically to the structure the snapshot was saved
/// from — same fingerprint, same contract and guarantees, same servable
/// sources, same slabs, same precomputed trees.  Two frozen structures are equal
/// when their determining data (magic and base payload) is.
#[derive(Clone)]
pub struct FrozenView<'a> {
    data: Cow<'a, [u8]>,
    layout: Layout,
}

/// What opening learned about the bytes, as offsets, so it borrows
/// nothing.
#[derive(Clone, Debug)]
struct Layout {
    n: u32,
    resilience: u32,
    contract: Contract,
    sources: Vec<VertexId>,
    /// The union edge count and the word offset of the base edge records.
    m: usize,
    edges: usize,
    /// Byte offset one past the base payload.
    base_end: usize,
    fingerprint: u64,
    /// Word ranges of the sections; `table` for per-source slabs only.
    table: Option<Range<usize>>,
    edge_orig: Range<usize>,
    xadj: Range<usize>,
    adj_head: Range<usize>,
    adj_edge: Range<usize>,
    trees: Range<usize>,
}

impl Layout {
    /// Validates `data` and certifies its derived sections (see the
    /// module docs).
    fn read(data: &[u8]) -> Result<Self, SnapshotError> {
        let base = Base::walk(data)?;
        base.validate_invariants()?;
        let frame = read_frame(data, base.end)?;
        let (n, k) = (base.n as usize, base.source_count);
        let per_source = !base.slab_lists.is_empty();
        let (slab_count, total) = if per_source {
            (k, base.slab_lists.iter().map(LeU32s::len).sum())
        } else {
            (1, base.m)
        };
        let section = |kind: u32, len: usize| -> Result<Range<usize>, SnapshotError> {
            let at = require_section(&frame.sections, kind, 4 * len)?.offset / 4;
            Ok(at..at + len)
        };
        let layout = Layout {
            n: base.n,
            resilience: base.resilience,
            contract: base.contract,
            sources: (0..k).map(|i| VertexId(base.source(i))).collect(),
            m: base.m,
            edges: base.edges_at / 4,
            base_end: base.end,
            fingerprint: frame.fingerprint,
            table: per_source
                .then(|| section(SEC_SLAB_TABLE, 2 * k))
                .transpose()?,
            edge_orig: section(SEC_EDGE_ORIG, total)?,
            xadj: section(SEC_XADJ, slab_count * (n + 1))?,
            adj_head: section(SEC_ARC_HEADS, 2 * total)?,
            adj_edge: section(SEC_ARC_EDGES, 2 * total)?,
            trees: section(SEC_TREES, 2 * n * k)?,
        };
        let slabs = layout.slabs(le_words(data));
        let mut prefix = 0;
        for j in 0..slab_count {
            check_slab(&base, &slabs, j, prefix)?;
            prefix += slabs.extent(j).0;
        }
        Ok(layout)
    }

    /// The serving arrays inside `words`, the snapshot this layout was
    /// read from.
    #[inline(always)]
    fn slabs<'d>(&self, words: LeU32s<'d>) -> SlabTable<'d> {
        let at = |r: &Range<usize>| words.slice(r.start, r.end);
        SlabTable {
            n: self.n as usize,
            table: self.table.as_ref().map(at),
            edge_orig: at(&self.edge_orig),
            xadj: at(&self.xadj),
            adj_head: at(&self.adj_head),
            adj_edge: at(&self.adj_edge),
            trees: at(&self.trees),
        }
    }
}

impl std::fmt::Debug for FrozenView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenView")
            .field("bytes", &self.data.len())
            .field("layout", &self.layout)
            .finish()
    }
}

impl PartialEq for FrozenView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.data[..self.layout.base_end] == other.data[..other.layout.base_end]
    }
}

impl Eq for FrozenView<'_> {}

impl<'a> FrozenView<'a> {
    /// Opens a view over a [`SnapshotSource`], validating the snapshot
    /// without rebuilding it; see the [module docs](self).
    pub fn open(source: &'a SnapshotSource<'_>) -> Result<Self, SnapshotError> {
        Self::open_bytes(source.bytes())
    }

    /// Opens a view directly over snapshot bytes of either magic.
    pub fn open_bytes(data: &'a [u8]) -> Result<Self, SnapshotError> {
        Self::open_cow(Cow::Borrowed(data))
    }

    /// Opens a view over borrowed or owned bytes.
    pub(crate) fn open_cow(data: Cow<'a, [u8]>) -> Result<Self, SnapshotError> {
        let layout = Layout::read(&data)?;
        Ok(FrozenView { data, layout })
    }

    /// The serving arrays.
    #[inline(always)]
    pub(crate) fn slabs(&self) -> SlabTable<'_> {
        self.layout.slabs(le_words(&self.data))
    }

    /// Number of vertices of the underlying graph.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.layout.n as usize
    }

    /// Number of edges in the frozen structure (`|E(H)|`; for per-source
    /// slabs, the union `⋃_s H_s`).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.layout.m
    }

    /// The source set `S` the structure serves, in freeze order.
    pub fn sources(&self) -> &[VertexId] {
        &self.layout.sources
    }

    /// The first source — the one single-source query methods default to.
    pub fn primary_source(&self) -> VertexId {
        self.layout.sources[0]
    }

    /// The number of edge faults the structure was built to tolerate.
    ///
    /// Queries with larger fault sets are still answered exactly *inside*
    /// `H ∖ F`, but only fault sets up to this size are guaranteed to match
    /// distances in `G ∖ F`.
    pub fn resilience(&self) -> usize {
        self.layout.resilience as usize
    }

    /// The answer contract the structure declares.
    pub fn contract(&self) -> Contract {
        self.layout.contract
    }

    /// The guarantee answers under `spec` carry: [`Contract::guarantee`]
    /// of the structure's contract and resilience.
    #[inline]
    pub fn guarantee(&self, spec: &FaultSpec) -> Guarantee {
        self.layout
            .contract
            .guarantee(self.layout.resilience as usize, spec)
    }

    /// The CSR slab serving queries from `source`, or `None` if the
    /// structure cannot answer from that vertex (see [`crate::frozen`]:
    /// one shared slab serves any in-range source, per-source slabs only
    /// the declared ones).
    #[inline(always)]
    pub(crate) fn slab(&self, source: VertexId) -> Option<OracleSlab<'_>> {
        self.slabs().slab(&self.layout.sources, source)
    }

    /// The FNV-1a fingerprint of the structure's canonical byte encoding
    /// (the snapshot's base payload).
    ///
    /// Two frozen structures answer identically iff their fingerprints
    /// (over `n`, resilience, contract, sources, the edge list and any
    /// per-source slab lists) agree; the query engine uses this to
    /// invalidate its cache when rebound.
    pub fn fingerprint(&self) -> u64 {
        self.layout.fingerprint
    }

    /// Structure edge `index`'s `(orig, u, v)` base record.
    fn edge(&self, index: u32) -> (u32, u32, u32) {
        assert!(
            (index as usize) < self.layout.m,
            "edge index {index} out of range"
        );
        let (words, at) = (le_words(&self.data), self.layout.edges + 3 * index as usize);
        (words.get(at), words.get(at + 1), words.get(at + 2))
    }

    /// The index of original edge `e` in the structure's edge list, or
    /// `None` if `e` is not part of the structure.  `O(log |E(H)|)`.
    pub fn frozen_index(&self, e: EdgeId) -> Option<u32> {
        let (mut lo, mut hi) = (0, self.layout.m as u32);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.edge(mid).0.cmp(&e.0) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
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
        EdgeId(self.edge(index).0)
    }

    /// The endpoints of structure edge `index`, normalised `u < v`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a valid edge index.
    pub fn endpoints(&self, index: u32) -> (VertexId, VertexId) {
        let (_, u, v) = self.edge(index);
        (VertexId(u), VertexId(v))
    }

    /// The precomputed fault-free tree rooted at `s`, if `s` is one of the
    /// structure's sources.
    pub fn tree_for(&self, s: VertexId) -> Option<SourceTree<'_>> {
        let i = self.layout.sources.iter().position(|&x| x == s)?;
        Some(self.slabs().tree(i, s))
    }

    /// Reconstructs a mutable [`FtBfsStructure`] with the same sources,
    /// resilience and (union) edge set — the inverse of
    /// [`FrozenStructure::freeze`], and the shape
    /// [`ftbfs_core::multi_failure_ftmbfs`] returns for per-source slabs;
    /// the contract is not part of it.
    pub fn to_structure(&self) -> FtBfsStructure {
        FtBfsStructure::from_edges(
            self.layout.sources.clone(),
            self.resilience(),
            (0..self.layout.m as u32).map(|i| self.original_edge(i)),
        )
    }

    /// The structure's snapshot (see [`crate::snapshot`] for the layout):
    /// the bytes it serves from.
    pub fn save(&self) -> Vec<u8> {
        self.save_with(SnapshotVersion::V2)
    }

    /// [`Self::save`] in the chosen snapshot format version (v2 is the
    /// only one).  The magic follows the layout: `"FTBO"` for one shared
    /// slab, `"FTBM"` for per-source slabs.
    pub fn save_with(&self, version: SnapshotVersion) -> Vec<u8> {
        let SnapshotVersion::V2 = version;
        self.data.to_vec()
    }
}

impl FrozenStructure {
    /// Opens a copy of snapshot bytes of either magic.  The bytes are
    /// validated exactly like a [`FrozenView::open`], and the stored
    /// fingerprint is recomputed from the base payload: a snapshot whose
    /// base and fingerprint disagree (a buggy external writer, a patched
    /// file with fixed-up checksums) is rejected rather than silently
    /// de-syncing engines that key their caches on fingerprint equality.
    ///
    /// Malformed input of any kind returns a typed [`SnapshotError`]; this
    /// function never panics.
    pub fn load(data: &[u8]) -> Result<Self, SnapshotError> {
        let layout = FrozenView::open_bytes(data)?.layout;
        if fnv1a64(&data[4..layout.base_end]) != layout.fingerprint {
            return corrupt("stored fingerprint disagrees with the determining data");
        }
        Ok(FrozenView {
            data: Cow::Owned(data.to_vec()),
            layout,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SNAPSHOT_MULTI_MAGIC;
    use crate::QueryEngine;
    use ftbfs_core::{dual_failure_ftbfs, multi_failure_ftmbfs_parts};
    use ftbfs_graph::{generators, EdgeId, FaultSpec, TieBreak};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn sample() -> (ftbfs_graph::Graph, FrozenStructure) {
        let g = generators::connected_gnp(36, 0.13, 9);
        let w = TieBreak::new(&g, 9);
        let h = dual_failure_ftbfs(&g, &w, v(0));
        let frozen = FrozenStructure::freeze(&g, &h);
        (g, frozen)
    }

    #[test]
    fn a_pair_of_one_edge_twice_gets_the_single_fault_guarantee() {
        let g = generators::cycle(6);
        let single = FrozenStructure::from_edges(&g, &[v(0)], 1, g.edges());
        let e = EdgeId(2);
        let twice = FaultSpec::from((e, e));
        assert_eq!(
            single.guarantee(&twice),
            single.guarantee(&FaultSpec::from(e))
        );
        assert_eq!(single.guarantee(&twice), Guarantee::Exact);
        let pair = FaultSpec::from((e, EdgeId(4)));
        assert_eq!(single.guarantee(&pair), Guarantee::BestEffort);
    }

    #[test]
    fn view_answers_identically_to_the_frozen_structure() {
        let (g, frozen) = sample();
        let bytes = frozen.save_with(SnapshotVersion::V2);
        let view = FrozenView::open_bytes(&bytes).unwrap();
        assert_eq!(view.vertex_count(), frozen.vertex_count());
        assert_eq!(view.edge_count(), frozen.edge_count());
        assert_eq!(view.sources(), frozen.sources());
        assert_eq!(view.resilience(), frozen.resilience());
        assert_eq!(view.contract(), Contract::Exact);
        assert_eq!(view.fingerprint(), frozen.fingerprint());
        let mut ea = QueryEngine::new();
        let mut eb = QueryEngine::new();
        let edges: Vec<EdgeId> = g.edges().collect();
        let specs = [
            FaultSpec::None,
            FaultSpec::from(edges[0]),
            FaultSpec::from((edges[1], edges[edges.len() / 2])),
            FaultSpec::from([edges[0], edges[3], edges[7]]),
        ];
        for spec in &specs {
            for t in g.vertices() {
                assert_eq!(
                    ea.try_distance(&frozen, t, spec).unwrap(),
                    eb.try_distance(&view, t, spec).unwrap(),
                    "target {t:?} spec {spec:?}"
                );
                assert_eq!(
                    ea.try_shortest_path(&frozen, t, spec).unwrap(),
                    eb.try_shortest_path(&view, t, spec).unwrap(),
                );
            }
        }
        // Views also serve undeclared sources via BFS, like the structure.
        assert_eq!(
            ea.try_distance_from(&frozen, v(5), v(9), &specs[2])
                .unwrap(),
            eb.try_distance_from(&view, v(5), v(9), &specs[2]).unwrap(),
        );
        // And load to the identical owned structure.
        assert_eq!(FrozenStructure::load(&bytes).unwrap(), frozen);
    }

    #[test]
    fn view_rejects_v1_bytes_and_owned_and_borrowed_sources_work() {
        let (_g, frozen) = sample();
        let bytes = frozen.save_with(SnapshotVersion::V2);
        let mut v1 = bytes.clone();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            FrozenView::open_bytes(&v1).unwrap_err(),
            SnapshotError::UnsupportedVersion(1)
        );
        let owned = SnapshotSource::owned(bytes.clone());
        assert_eq!(owned.len(), bytes.len());
        assert!(!owned.is_empty());
        let from_owned = FrozenView::open(&owned).unwrap();
        let borrowed = SnapshotSource::borrowed(&bytes);
        let from_borrowed = FrozenView::open(&borrowed).unwrap();
        assert_eq!(from_owned.fingerprint(), from_borrowed.fingerprint());
        let via_from: SnapshotSource<'_> = bytes.as_slice().into();
        assert!(FrozenView::open(&via_from).is_ok());
    }

    #[test]
    fn multi_view_answers_identically_to_the_multi_structure() {
        let g = generators::tree_plus_chords(14, 6, 3);
        let w = TieBreak::new(&g, 3);
        let sources = [v(0), v(7)];
        let parts = multi_failure_ftmbfs_parts(&g, &w, &sources, 2);
        let multi = FrozenStructure::freeze_parts(&g, &parts);
        let bytes = multi.save_with(SnapshotVersion::V2);
        assert_eq!(&bytes[..4], &SNAPSHOT_MULTI_MAGIC);
        let view = FrozenView::open_bytes(&bytes).unwrap();
        assert_eq!(view.vertex_count(), multi.vertex_count());
        assert_eq!(view.edge_count(), multi.edge_count());
        assert_eq!(view.sources(), multi.sources());
        assert_eq!(view.fingerprint(), multi.fingerprint());
        let mut ea = QueryEngine::new();
        let mut eb = QueryEngine::new();
        let edges: Vec<EdgeId> = g.edges().collect();
        for spec in [
            FaultSpec::None,
            FaultSpec::from(edges[2]),
            FaultSpec::from((edges[0], edges[5])),
        ] {
            assert_eq!(
                ea.try_distance_matrix(&multi, &spec).unwrap(),
                eb.try_distance_matrix(&view, &spec).unwrap(),
                "spec {spec:?}"
            );
        }
        // Undeclared sources stay unserved, like the owned structure.
        assert!(view.slab(v(3)).is_none());
        assert_eq!(FrozenStructure::load(&bytes).unwrap(), multi);
    }

    #[test]
    fn open_validates_debug_formats_and_never_panics_on_garbage() {
        let (_g, frozen) = sample();
        let bytes = frozen.save_with(SnapshotVersion::V2);
        let view = FrozenView::open_bytes(&bytes).unwrap();
        let dbg = format!("{view:?}");
        assert!(dbg.contains("FrozenView"));
        assert_eq!(
            FrozenView::open_bytes(b"FTBX____").unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut crossed = bytes.clone();
        crossed[..4].copy_from_slice(&SNAPSHOT_MULTI_MAGIC);
        assert!(FrozenView::open_bytes(&crossed).is_err());
        for cut in [0, 4, 6, bytes.len() / 2, bytes.len() - 1] {
            assert!(FrozenView::open_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
