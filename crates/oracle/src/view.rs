//! Zero-rebuild serving views over snapshot bytes: [`SnapshotSource`] and
//! [`FrozenView`].
//!
//! A snapshot (see [`crate::snapshot`]) stores not just the determining
//! edge list but every derived array — CSR offsets and arcs, fault-free
//! trees, slab tables — as 64-byte-aligned little-endian sections.  A view
//! *opens* such bytes instead of loading them: it validates the frame
//! (bounds, alignment, checksums, freeze invariants), certifies the
//! derived sections against the base, and then serves queries **directly
//! out of the mapped bytes** through [`ftbfs_graph::bytes::LeU32s`]
//! accessors.  Nothing is rebuilt and none of the big arrays are copied;
//! open-time allocation is limited to metadata scratch (the small source
//! list and section table).
//!
//! This is the zero-copy serving story: a server reads a snapshot file
//! into a buffer, or maps it read-only itself (page-aligned, so the
//! 64-byte section alignment holds in memory) and borrows the region,
//! wraps the bytes in a [`SnapshotSource`], opens a view, and serves
//! immediately — no load-time CSR build, BFS, or allocation proportional
//! to the structure.  The view implements [`DistanceOracle`] for both
//! slab layouts, so every engine feature (fault LRU, tree fast path,
//! batched and threaded serving) works unchanged, and a view's
//! [`fingerprint`](DistanceOracle::fingerprint) equals the rebuilt
//! structure's — the two are interchangeable backends.
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
//! golden-fixture CI gate pins this), and the rebuild path
//! ([`FrozenView::to_frozen`], hence `load`) cross-checks it against the
//! recomputed fingerprint for free, rejecting snapshots from writers that
//! got it wrong.

use crate::api::{Contract, DistanceOracle, OracleSlab};
use crate::frozen::{FrozenStructure, SlabTable, NO_PARENT, UNREACHED};
use crate::snapshot::{
    corrupt, read_frame, require_section, Base, SnapshotError, SEC_ARC_EDGES, SEC_ARC_HEADS,
    SEC_EDGE_ORIG, SEC_SLAB_TABLE, SEC_TREES, SEC_XADJ, SNAPSHOT_MAGIC, SNAPSHOT_MULTI_MAGIC,
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

/// Word `i` of a section's bytes, decoded little-endian.
#[inline(always)]
fn le(bytes: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().expect("four bytes"))
}

/// Certifies slab `j` and the trees over it against the base (see the
/// module docs).  `prefix` is the edge count of the slabs before `j`.
fn check_slab(
    base: &Base<'_>,
    slabs: &SlabTable<LeU32s<'_>>,
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
    let list = list.as_bytes();
    check_slab_tree(base, slabs, j, j, |e| le(list, e) as usize)
}

/// Certifies slab `j` together with declared source `i`'s tree over it,
/// in one pass over its vertices; monomorphised over the map from slab
/// edges to base edges.
#[inline(always)]
fn check_slab_tree(
    base: &Base<'_>,
    slabs: &SlabTable<LeU32s<'_>>,
    j: usize,
    i: usize,
    union_index: impl Fn(usize) -> usize,
) -> Result<(), SnapshotError> {
    let ([xadj, heads, edges, orig], (dist, parent)) = (slabs.csr(j), slabs.tree(i));
    let m = orig.len();
    let [xadj, heads, edges, orig, dist, parent] =
        [xadj, heads, edges, orig, dist, parent].map(|s| s.as_bytes());
    let (n, source) = (slabs.n, base.source(i) as usize);
    if (0..m).any(|e| le(orig, e) != base.edge_id(union_index(e))) {
        return corrupt("edge-id section disagrees with the base edge list");
    }
    if le(xadj, 0) != 0 || le(xadj, n) as usize != 2 * m {
        return corrupt("CSR offsets must run from zero to 2m");
    }
    let mut lo = 0;
    for v in 0..n {
        let hi = le(xadj, v + 1) as usize;
        if hi < lo || hi > 2 * m {
            return corrupt("CSR offsets must be monotone");
        }
        let (d, p) = (le(dist, v), le(parent, v));
        if v == source {
            if d != 0 || p != NO_PARENT {
                return corrupt("tree source row must be (0, no parent)");
            }
        } else if p == NO_PARENT {
            if d != UNREACHED {
                return corrupt("reached tree vertex lacks a parent");
            }
        } else if p as usize >= n || le(dist, p as usize) == UNREACHED {
            return corrupt("tree parent out of range or unreached");
        } else if d != le(dist, p as usize) + 1 {
            return corrupt("tree distance does not follow its parent");
        }
        // `next` only ever holds a certified head below n, plus one.
        let (tail, mut next, mut parent_arc) = (v as u32, 0, p == NO_PARENT);
        for a in lo..hi {
            let (head, e) = (le(heads, a), le(edges, a) as usize);
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
            if d.abs_diff(le(dist, head as usize)) > 1 {
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

/// A borrowed, zero-rebuild serving view over the bytes of a snapshot of
/// either layout (`"FTBO"`: one shared slab; `"FTBM"`: one slab per
/// declared source), exact or approximate.
///
/// Opened with [`FrozenView::open`] (from a [`SnapshotSource`]) or
/// [`FrozenView::open_bytes`]; implements [`DistanceOracle`], answering
/// bit-identically to the [`FrozenStructure`] the snapshot was saved from
/// — same fingerprint, same contract and guarantees, same servable
/// sources, same slabs, same precomputed trees — without rebuilding or
/// copying any of the big arrays.
pub struct FrozenView<'a> {
    base: Base<'a>,
    sources: Vec<VertexId>,
    fingerprint: u64,
    slabs: SlabTable<LeU32s<'a>>,
}

impl std::fmt::Debug for FrozenView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenView")
            .field("n", &self.base.n)
            .field("sources", &self.sources)
            .field("resilience", &self.base.resilience)
            .field("contract", &self.base.contract)
            .field("edges", &self.base.m)
            .field("slabs", &self.slabs.len())
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

    /// Opens a view directly over snapshot bytes of either magic.
    pub fn open_bytes(data: &'a [u8]) -> Result<Self, SnapshotError> {
        let per_source = data.starts_with(&SNAPSHOT_MULTI_MAGIC);
        let magic = if per_source {
            SNAPSHOT_MULTI_MAGIC
        } else {
            SNAPSHOT_MAGIC
        };
        let base = Base::walk(data, magic)?;
        base.validate_invariants()?;
        let frame = read_frame(data, base.end)?;
        let section = |kind: u32, words: usize| -> Result<LeU32s<'a>, SnapshotError> {
            let s = require_section(&frame.sections, kind, 4 * words)?;
            Ok(LeU32s::new(&data[s.offset..s.offset + s.len])
                .expect("section lengths are validated u32-granular"))
        };
        let (n, k) = (base.n as usize, base.source_count);
        let (slab_count, total) = if per_source {
            (k, base.slab_lists.iter().map(LeU32s::len).sum())
        } else {
            (1, base.m)
        };
        let slabs = SlabTable {
            n,
            table: if per_source {
                Some(section(SEC_SLAB_TABLE, 2 * k)?)
            } else {
                None
            },
            edge_orig: section(SEC_EDGE_ORIG, total)?,
            xadj: section(SEC_XADJ, slab_count * (n + 1))?,
            adj_head: section(SEC_ARC_HEADS, 2 * total)?,
            adj_edge: section(SEC_ARC_EDGES, 2 * total)?,
            trees: section(SEC_TREES, 2 * n * k)?,
        };
        let mut prefix = 0;
        for j in 0..slab_count {
            check_slab(&base, &slabs, j, prefix)?;
            prefix += slabs.extent(j).0;
        }
        let sources: Vec<VertexId> = (0..k).map(|i| VertexId(base.source(i))).collect();
        Ok(FrozenView {
            base,
            sources,
            fingerprint: frame.fingerprint,
            slabs,
        })
    }

    /// Number of vertices of the underlying graph.
    pub fn vertex_count(&self) -> usize {
        self.base.n as usize
    }

    /// Number of edges in the frozen structure (for per-source slabs, the
    /// union).
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
        let lists = (0..self.base.slab_lists.len())
            .map(|j| self.base.slab_list(j).iter().collect())
            .collect();
        let rebuilt = FrozenStructure::from_parts(
            self.base.n,
            self.sources.clone(),
            self.base.resilience,
            self.base.contract,
            self.base.edge_columns(),
            self.slabs.table.map(|_| lists),
        );
        if rebuilt.fingerprint() != self.fingerprint {
            return corrupt("stored fingerprint disagrees with the determining data");
        }
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

    /// Mirrors [`FrozenStructure`]: one shared slab serves any in-range
    /// source, per-source slabs only the declared ones.
    #[inline]
    fn slab(&self, source: VertexId) -> Option<OracleSlab<'_>> {
        self.slabs.slab(&self.sources, source)
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
        assert_eq!(view.to_frozen().unwrap(), multi);
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
