//! Zero-rebuild serving views over snapshot bytes: [`SnapshotSource`],
//! [`FrozenView`] and [`FrozenMultiView`].
//!
//! A snapshot (see [`crate::snapshot`]) stores not just the determining
//! edge list but every derived array — CSR offsets and arcs, fault-free
//! trees, slab tables — as 64-byte-aligned little-endian sections.  A view
//! *opens* such bytes instead of loading them: it validates the frame
//! (bounds, alignment, checksums, freeze invariants) and then serves
//! queries **directly out of the mapped bytes** through
//! [`ftbfs_graph::bytes::LeU32s`] accessors.  Nothing is rebuilt and none
//! of the big arrays are copied; open-time allocation is limited to
//! metadata scratch (the small source list and section table).
//!
//! This is the zero-copy serving story: a server reads a snapshot file
//! into a buffer, or maps it read-only itself (page-aligned, so the
//! 64-byte section alignment holds in memory) and borrows the region,
//! wraps the bytes in a [`SnapshotSource`], opens a view, and serves
//! immediately — no load-time CSR build, BFS, or allocation proportional
//! to the structure.  Both view types implement
//! [`DistanceOracle`], so every engine feature (fault LRU, tree fast
//! path, batched and threaded serving) works unchanged, and a view's
//! [`fingerprint`](DistanceOracle::fingerprint) equals the rebuilt
//! structure's — the two are interchangeable backends.
//!
//! Safety under corruption: the open-time checks guarantee that *any*
//! byte-level corruption is rejected (every byte is covered by a
//! checksum, the magic, or the zero-padding rule) and that the structural
//! invariants the engine relies on hold — CSR offsets monotone and
//! in-bounds, arc heads and edge ids in range, tree parents consistent
//! with tree distances (so parent walks terminate).  Opening never
//! panics on malformed input; it returns a typed [`SnapshotError`].
//!
//! One field is *attested* rather than recomputed on open: the structure
//! fingerprint, stored in the (frame-checksummed) header so open need
//! not re-hash the base.  In-tree writers always store the correct value
//! (the golden-fixture CI gate pins this), and the rebuild paths
//! ([`FrozenView::to_frozen`] / [`FrozenMultiView::to_multi`], hence
//! `load`) cross-check it against the recomputed fingerprint for free,
//! rejecting snapshots from writers that got it wrong.

use crate::api::{Contract, DistanceOracle, OracleSlab, SlabTree};
use crate::frozen::{FrozenStructure, NO_PARENT, UNREACHED};
use crate::multi::FrozenMultiStructure;
use crate::snapshot::{
    corrupt, read_frame, require_section, Base, SectionEntry, SnapshotError, SEC_ARC_EDGES,
    SEC_ARC_HEADS, SEC_EDGE_ORIG, SEC_SLAB_TABLE, SEC_TREES, SEC_XADJ, SNAPSHOT_MAGIC,
    SNAPSHOT_MULTI_MAGIC,
};
use ftbfs_graph::bytes::LeU32s;
use ftbfs_graph::VertexId;
use std::borrow::Cow;

/// Snapshot bytes for a view to open: owned (read from disk or the
/// network into a `Vec<u8>`) or borrowed (for example a caller-managed
/// mapped region — any `&[u8]` whose lifetime outlives the views opened
/// over it, which is the zero-copy path).
///
/// The source only carries the bytes; validation happens when a
/// [`FrozenView`] or [`FrozenMultiView`] is opened over it.
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

/// Validates one fault-free tree stored in a snapshot: the source row
/// is `(0, NO_PARENT)`, unreached vertices have no parent, and every
/// reached vertex's distance is exactly its parent's plus one — which
/// both pins the arrays to a genuine BFS-tree shape and guarantees parent
/// walks strictly decrease the distance, so path reconstruction
/// terminates on any input that passes.
#[inline]
fn check_tree(
    dist: LeU32s<'_>,
    parent: LeU32s<'_>,
    source: usize,
    n: usize,
) -> Result<(), SnapshotError> {
    if dist.get(source) != 0 || parent.get(source) != NO_PARENT {
        return corrupt("tree source row must be (0, no parent)");
    }
    for (v, (d, p)) in dist.iter().zip(parent.iter()).enumerate() {
        if v == source {
            continue;
        }
        if p == NO_PARENT {
            if d != UNREACHED {
                return corrupt("reached tree vertex lacks a parent");
            }
        } else {
            if p as usize >= n {
                return corrupt("tree parent out of range");
            }
            let dp = dist.get(p as usize);
            if dp == UNREACHED || d != dp + 1 {
                return corrupt("tree distance does not follow its parent");
            }
        }
    }
    Ok(())
}

/// Validates one CSR slab stored in a snapshot: offsets start at zero,
/// grow monotonically to exactly `2m`, and every arc's head and frozen
/// edge id are in range — everything the BFS kernel indexes with.
#[inline]
fn check_csr(
    xadj: LeU32s<'_>,
    heads: LeU32s<'_>,
    edges: LeU32s<'_>,
    n: usize,
    m: usize,
) -> Result<(), SnapshotError> {
    if xadj.get(0) != 0 {
        return corrupt("CSR offsets must start at zero");
    }
    let mut prev = 0u32;
    for off in xadj.iter() {
        if off < prev {
            return corrupt("CSR offsets must be monotone");
        }
        prev = off;
    }
    if xadj.get(n) as usize != 2 * m {
        return corrupt("CSR offsets must cover exactly 2m arcs");
    }
    if heads.iter().any(|h| h as usize >= n) {
        return corrupt("CSR arc head out of range");
    }
    if edges.iter().any(|e| e as usize >= m) {
        return corrupt("CSR arc edge id out of range");
    }
    Ok(())
}

/// The dist and parent rows of tree `i` in a `k × 2n` tree section.
fn tree_rows(trees: LeU32s<'_>, i: usize, n: usize) -> (LeU32s<'_>, LeU32s<'_>) {
    (
        trees.slice(2 * i * n, (2 * i + 1) * n),
        trees.slice((2 * i + 1) * n, (2 * i + 2) * n),
    )
}

/// Snapshot bytes validated up to their sections — magic, version, base
/// payload, freeze invariants and frame — that both view kinds then take
/// their arrays from.
struct Opened<'a> {
    data: &'a [u8],
    base: Base<'a>,
    fingerprint: u64,
    sections: Vec<SectionEntry>,
    sources: Vec<VertexId>,
}

impl<'a> Opened<'a> {
    fn new(data: &'a [u8], magic: [u8; 4]) -> Result<Self, SnapshotError> {
        let base = Base::walk(data, magic)?;
        base.validate_invariants()?;
        let frame = read_frame(data, base.end)?;
        let sources = (0..base.source_count)
            .map(|i| VertexId(base.source(i)))
            .collect();
        Ok(Opened {
            data,
            base,
            fingerprint: frame.fingerprint,
            sections: frame.sections,
            sources,
        })
    }

    /// The unique section of `kind`, which must hold exactly `words`
    /// `u32`s.
    fn section(&self, kind: u32, words: usize) -> Result<LeU32s<'a>, SnapshotError> {
        let s = require_section(&self.sections, kind, 4 * words)?;
        Ok(LeU32s::new(&self.data[s.offset..s.offset + s.len])
            .expect("section lengths are validated u32-granular"))
    }

    /// The `k × 2n` tree section, with every source's tree validated.
    fn trees(&self) -> Result<LeU32s<'a>, SnapshotError> {
        let n = self.base.n as usize;
        let trees = self.section(SEC_TREES, 2 * n * self.sources.len())?;
        for (i, s) in self.sources.iter().enumerate() {
            let (dist, parent) = tree_rows(trees, i, n);
            check_tree(dist, parent, s.index(), n)?;
        }
        Ok(trees)
    }

    /// Rebuild-path cross-check of the writer-attested fingerprint.
    fn attest(fingerprint: u64, rebuilt: u64) -> Result<(), SnapshotError> {
        if rebuilt != fingerprint {
            return corrupt("stored fingerprint disagrees with the determining data");
        }
        Ok(())
    }
}

/// A borrowed, zero-rebuild serving view over the bytes of a single-slab
/// ("FTBO") snapshot, exact or approximate.
///
/// Opened with [`FrozenView::open`] (from a [`SnapshotSource`]) or
/// [`FrozenView::open_bytes`]; implements [`DistanceOracle`], answering
/// bit-identically to the [`FrozenStructure`] the snapshot was saved from
/// — same fingerprint, same contract and guarantees, same slabs, same
/// precomputed trees — without rebuilding or copying any of the big
/// arrays.
pub struct FrozenView<'a> {
    base: Base<'a>,
    sources: Vec<VertexId>,
    fingerprint: u64,
    edge_orig: LeU32s<'a>,
    xadj: LeU32s<'a>,
    adj_head: LeU32s<'a>,
    adj_edge: LeU32s<'a>,
    /// `k × 2n` words: per source, the dist row then the parent row.
    trees: LeU32s<'a>,
}

impl std::fmt::Debug for FrozenView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenView")
            .field("n", &self.base.n)
            .field("sources", &self.sources)
            .field("resilience", &self.base.resilience)
            .field("contract", &self.base.contract)
            .field("edges", &self.base.m)
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

impl<'a> FrozenView<'a> {
    /// Opens a view over a [`SnapshotSource`], validating the snapshot
    /// without rebuilding it; see the [module docs](self).
    pub fn open(source: &'a SnapshotSource<'_>) -> Result<Self, SnapshotError> {
        Self::open_bytes(source.bytes())
    }

    /// Opens a view directly over snapshot bytes.
    pub fn open_bytes(data: &'a [u8]) -> Result<Self, SnapshotError> {
        let opened = Opened::new(data, SNAPSHOT_MAGIC)?;
        let (n, m) = (opened.base.n as usize, opened.base.m);
        let edge_orig = opened.section(SEC_EDGE_ORIG, m)?;
        let xadj = opened.section(SEC_XADJ, n + 1)?;
        let adj_head = opened.section(SEC_ARC_HEADS, 2 * m)?;
        let adj_edge = opened.section(SEC_ARC_EDGES, 2 * m)?;
        let trees = opened.trees()?;
        // The derived edge-id array must agree with the determining base
        // edge list (it exists so fault translation needs no rebuild).
        if edge_orig
            .iter()
            .zip(opened.base.edges())
            .any(|(derived, (orig, _, _))| derived != orig)
        {
            return corrupt("edge-id section disagrees with the base edge list");
        }
        check_csr(xadj, adj_head, adj_edge, n, m)?;
        Ok(FrozenView {
            base: opened.base,
            sources: opened.sources,
            fingerprint: opened.fingerprint,
            edge_orig,
            xadj,
            adj_head,
            adj_edge,
            trees,
        })
    }

    /// Number of vertices of the underlying graph.
    pub fn vertex_count(&self) -> usize {
        self.base.n as usize
    }

    /// Number of edges in the frozen structure.
    pub fn edge_count(&self) -> usize {
        self.base.m
    }

    /// The source set, in snapshot order.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// The designed resilience `f`.
    pub fn resilience(&self) -> usize {
        self.base.resilience as usize
    }

    /// The answer contract the snapshot header declares.
    pub fn contract(&self) -> Contract {
        self.base.contract
    }

    /// The structure fingerprint — equal to the fingerprint of the
    /// [`FrozenStructure`] the snapshot was saved from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Rebuilds an owned [`FrozenStructure`] from the view's determining
    /// data (the inverse of serving straight from the bytes; used by
    /// [`FrozenStructure::load`]).
    ///
    /// The rebuild recomputes the structure fingerprint from scratch, so
    /// this path also cross-checks the writer-attested fingerprint stored
    /// in the frame: a snapshot whose base and fingerprint disagree (a
    /// buggy external writer, a patched file with fixed-up checksums) is
    /// rejected here rather than silently de-syncing engines that key
    /// their caches on fingerprint equality.
    pub fn to_frozen(&self) -> Result<FrozenStructure, SnapshotError> {
        let (edge_orig, edge_u, edge_v) = self.base.edge_columns();
        let rebuilt = FrozenStructure::from_parts(
            self.base.n,
            self.sources.clone(),
            self.base.resilience,
            self.base.contract,
            edge_orig,
            edge_u,
            edge_v,
        )?;
        Opened::attest(self.fingerprint, rebuilt.fingerprint())?;
        Ok(rebuilt)
    }
}

impl DistanceOracle for FrozenView<'_> {
    fn vertex_count(&self) -> usize {
        FrozenView::vertex_count(self)
    }

    fn edge_count(&self) -> usize {
        FrozenView::edge_count(self)
    }

    fn sources(&self) -> &[VertexId] {
        FrozenView::sources(self)
    }

    fn resilience(&self) -> usize {
        FrozenView::resilience(self)
    }

    fn fingerprint(&self) -> u64 {
        FrozenView::fingerprint(self)
    }

    #[inline]
    fn contract(&self) -> Contract {
        FrozenView::contract(self)
    }

    /// Mirrors [`FrozenStructure`]: any in-range vertex is servable over
    /// the shared CSR; declared sources additionally get their mapped
    /// fault-free tree.
    fn slab(&self, source: VertexId) -> Option<OracleSlab<'_>> {
        let n = self.vertex_count();
        if source.index() >= n {
            return None;
        }
        let tree = self.sources.iter().position(|&s| s == source).map(|i| {
            let (dist, parent) = tree_rows(self.trees, i, n);
            SlabTree::new(dist, parent)
        });
        Some(OracleSlab::new(
            source,
            self.xadj,
            self.adj_head,
            self.adj_edge,
            self.edge_orig,
            tree,
        ))
    }
}

/// A borrowed, zero-rebuild serving view over the bytes of a
/// multi-source ("FTBM") snapshot — the byte-served counterpart of
/// [`FrozenMultiStructure`], with one mapped CSR slab per declared
/// source.
pub struct FrozenMultiView<'a> {
    base: Base<'a>,
    sources: Vec<VertexId>,
    fingerprint: u64,
    /// `k × 2` words: per slab, its edge count and prefix-sum offset.
    slab_table: LeU32s<'a>,
    /// Concatenated per-slab edge-id arrays (`Σ m_s` words).
    edge_orig: LeU32s<'a>,
    /// Concatenated per-slab CSR offsets (`k × (n + 1)` words).
    xadj: LeU32s<'a>,
    /// Concatenated per-slab arc arrays (`2 Σ m_s` words each).
    adj_head: LeU32s<'a>,
    adj_edge: LeU32s<'a>,
    /// `k × 2n` words: per slab, the dist row then the parent row.
    trees: LeU32s<'a>,
}

impl std::fmt::Debug for FrozenMultiView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenMultiView")
            .field("n", &self.base.n)
            .field("sources", &self.sources)
            .field("resilience", &self.base.resilience)
            .field("union_edges", &self.base.m)
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

impl<'a> FrozenMultiView<'a> {
    /// Opens a view over a [`SnapshotSource`], validating the snapshot
    /// without rebuilding it; see the [module docs](self).
    pub fn open(source: &'a SnapshotSource<'_>) -> Result<Self, SnapshotError> {
        Self::open_bytes(source.bytes())
    }

    /// Opens a view directly over snapshot bytes.
    pub fn open_bytes(data: &'a [u8]) -> Result<Self, SnapshotError> {
        let opened = Opened::new(data, SNAPSHOT_MULTI_MAGIC)?;
        let base = &opened.base;
        if base.contract != Contract::Exact {
            return corrupt("multi-source snapshots carry the exact contract only");
        }
        let (n, k) = (base.n as usize, base.source_count);
        let total: usize = base.slab_lists.iter().map(|&(m_s, _)| m_s).sum();
        let slab_table = opened.section(SEC_SLAB_TABLE, 2 * k)?;
        let edge_orig = opened.section(SEC_EDGE_ORIG, total)?;
        let xadj = opened.section(SEC_XADJ, k * (n + 1))?;
        let adj_head = opened.section(SEC_ARC_HEADS, 2 * total)?;
        let adj_edge = opened.section(SEC_ARC_EDGES, 2 * total)?;
        let trees = opened.trees()?;

        // The slab table must agree with the determining base slab lists
        // (counts and prefix sums), and each slab's edge-id segment must be
        // exactly the union edges its base index list selects.
        let mut prefix = 0usize;
        for (i, &(m_s, _)) in base.slab_lists.iter().enumerate() {
            if slab_table.get(2 * i) as usize != m_s {
                return corrupt("slab table count disagrees with the base slab list");
            }
            if slab_table.get(2 * i + 1) as usize != prefix {
                return corrupt("slab table offset is not the prefix sum");
            }
            if edge_orig
                .slice(prefix, prefix + m_s)
                .iter()
                .zip(base.slab_list(i).iter())
                .any(|(derived, union_idx)| derived != base.edge_id(union_idx as usize))
            {
                return corrupt("slab edge-id section disagrees with the union edge list");
            }
            check_csr(
                xadj.slice(i * (n + 1), (i + 1) * (n + 1)),
                adj_head.slice(2 * prefix, 2 * (prefix + m_s)),
                adj_edge.slice(2 * prefix, 2 * (prefix + m_s)),
                n,
                m_s,
            )?;
            prefix += m_s;
        }
        Ok(FrozenMultiView {
            base: opened.base,
            sources: opened.sources,
            fingerprint: opened.fingerprint,
            slab_table,
            edge_orig,
            xadj,
            adj_head,
            adj_edge,
            trees,
        })
    }

    /// Number of vertices of the underlying graph.
    pub fn vertex_count(&self) -> usize {
        self.base.n as usize
    }

    /// Number of edges in the union structure `⋃_s H_s`.
    pub fn union_edge_count(&self) -> usize {
        self.base.m
    }

    /// The source set `S`, in snapshot order.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// The designed resilience `f`.
    pub fn resilience(&self) -> usize {
        self.base.resilience as usize
    }

    /// The structure fingerprint — equal to the fingerprint of the
    /// [`FrozenMultiStructure`] the snapshot was saved from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Rebuilds an owned [`FrozenMultiStructure`] from the view's
    /// determining data (used by [`FrozenMultiStructure::load`]); like
    /// [`FrozenView::to_frozen`], the rebuild cross-checks the
    /// writer-attested fingerprint stored in the frame.
    pub fn to_multi(&self) -> Result<FrozenMultiStructure, SnapshotError> {
        let (union_orig, union_u, union_v) = self.base.edge_columns();
        let slab_edges: Vec<Vec<u32>> = (0..self.base.source_count)
            .map(|i| self.base.slab_list(i).iter().collect())
            .collect();
        let rebuilt = FrozenMultiStructure::from_parts(
            self.base.n,
            self.base.resilience,
            self.sources.clone(),
            union_orig,
            union_u,
            union_v,
            slab_edges,
        )?;
        Opened::attest(self.fingerprint, rebuilt.fingerprint())?;
        Ok(rebuilt)
    }
}

impl DistanceOracle for FrozenMultiView<'_> {
    fn vertex_count(&self) -> usize {
        FrozenMultiView::vertex_count(self)
    }

    fn edge_count(&self) -> usize {
        self.union_edge_count()
    }

    fn sources(&self) -> &[VertexId] {
        FrozenMultiView::sources(self)
    }

    fn resilience(&self) -> usize {
        FrozenMultiView::resilience(self)
    }

    fn fingerprint(&self) -> u64 {
        FrozenMultiView::fingerprint(self)
    }

    /// Mirrors [`FrozenMultiStructure`]: only declared sources are
    /// servable, each over its own mapped per-source slab.
    fn slab(&self, source: VertexId) -> Option<OracleSlab<'_>> {
        let i = self.sources.iter().position(|&s| s == source)?;
        let n = self.vertex_count();
        let m_s = self.slab_table.get(2 * i) as usize;
        let off = self.slab_table.get(2 * i + 1) as usize;
        Some(OracleSlab::new(
            source,
            self.xadj.slice(i * (n + 1), (i + 1) * (n + 1)),
            self.adj_head.slice(2 * off, 2 * (off + m_s)),
            self.adj_edge.slice(2 * off, 2 * (off + m_s)),
            self.edge_orig.slice(off, off + m_s),
            Some({
                let (dist, parent) = tree_rows(self.trees, i, n);
                SlabTree::new(dist, parent)
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotVersion;
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
            FaultSpec::One(edges[0]),
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
        // And rebuild to the identical owned structure.
        assert_eq!(view.to_frozen().unwrap(), frozen);
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
        let multi = FrozenMultiStructure::freeze(&g, &parts);
        let bytes = multi.save_with(SnapshotVersion::V2);
        let view = FrozenMultiView::open_bytes(&bytes).unwrap();
        assert_eq!(view.vertex_count(), multi.vertex_count());
        assert_eq!(view.union_edge_count(), multi.union_edge_count());
        assert_eq!(view.sources(), multi.sources());
        assert_eq!(view.fingerprint(), multi.fingerprint());
        let mut ea = QueryEngine::new();
        let mut eb = QueryEngine::new();
        let edges: Vec<EdgeId> = g.edges().collect();
        for spec in [
            FaultSpec::None,
            FaultSpec::One(edges[2]),
            FaultSpec::from((edges[0], edges[5])),
        ] {
            assert_eq!(
                ea.try_distance_matrix(&multi, &spec).unwrap(),
                eb.try_distance_matrix(&view, &spec).unwrap(),
                "spec {spec:?}"
            );
        }
        // Undeclared sources stay unserved, like the owned structure.
        assert!(DistanceOracle::slab(&view, v(3)).is_none());
        assert_eq!(view.to_multi().unwrap(), multi);
    }

    #[test]
    fn open_validates_debug_formats_and_never_panics_on_garbage() {
        let (_g, frozen) = sample();
        let bytes = frozen.save_with(SnapshotVersion::V2);
        let view = FrozenView::open_bytes(&bytes).unwrap();
        let dbg = format!("{view:?}");
        assert!(dbg.contains("FrozenView"));
        assert_eq!(
            FrozenView::open_bytes(b"FTBM____").unwrap_err(),
            SnapshotError::BadMagic
        );
        assert!(FrozenMultiView::open_bytes(&bytes).is_err());
        for cut in [0, 4, 6, bytes.len() / 2, bytes.len() - 1] {
            assert!(FrozenView::open_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
