//! [`FrozenMultiStructure`] — a multi-source FT-MBFS structure compiled
//! into per-source CSR slabs for `S × V` query serving.
//!
//! Gupta–Khan's *Multiple Source Dual Fault Tolerant BFS Trees* studies the
//! workload this type serves: a source set `S`, every pair `(s, v) ∈ S × V`
//! answerable after faults.  The union structure
//! ([`ftbfs_core::multi_failure_ftmbfs`]) is the right object for *size*
//! accounting, but serving a query from `s` only ever needs the per-source
//! part `H_s ⊆ H` — which is smaller, so a BFS over it is cheaper.
//! Freezing therefore compiles **one CSR slab per source** (each the frozen
//! form of `H_s`, with its own fault-free tree), while the *union* edge
//! list is kept once and shared: it defines the structure's identity
//! (fingerprint), its snapshot encoding, and the per-slab edge lists are
//! stored as indices into it.
//!
//! The slabs all index the same vertex set `0..n`, so one engine workspace
//! (distance/parent/stamp arrays of length `n`) serves every source — the
//! engine's per-source LRU partitions keep their cached restrictions
//! separate.
//!
//! ## Snapshot layout
//!
//! The `"FTBM"` snapshot ([`FrozenMultiStructure::save`], see
//! [`crate::snapshot`]) stores the union edge list plus, per source, the
//! slab's edge list as strictly increasing union-edge indices; that base
//! payload is the determining data and its FNV-1a is the fingerprint.  The
//! derived per-slab arrays — the slab table plus concatenated
//! edge-id/CSR/tree sections — follow in the aligned, checksummed section
//! frame, so a [`crate::FrozenMultiView`] can serve the `S × V` workload
//! straight from the bytes with zero rebuild.

use crate::api::{Contract, DistanceOracle, OracleSlab};
use crate::frozen::FrozenStructure;
use crate::snapshot::{
    assemble, put_base, SnapshotError, SnapshotVersion, SEC_ARC_EDGES, SEC_ARC_HEADS,
    SEC_EDGE_ORIG, SEC_SLAB_TABLE, SEC_TREES, SEC_XADJ, SNAPSHOT_MULTI_MAGIC,
};
use ftbfs_core::FtBfsStructure;
use ftbfs_graph::bytes::{fnv1a64, put_u32, put_u32_slice};
use ftbfs_graph::{EdgeId, Graph, VertexId};

/// A multi-source FT-MBFS structure frozen into per-source CSR slabs; see
/// the module docs for layout and rationale.
///
/// Obtain one with [`FrozenMultiStructure::freeze`] from the per-source
/// structures of [`ftbfs_core::multi_failure_ftmbfs_parts`], or with
/// [`FrozenMultiStructure::load`] from a snapshot.  Queries go through a
/// [`crate::QueryEngine`] via the [`DistanceOracle`] trait; only sources in
/// the declared set are servable ([`DistanceOracle::slab`] returns `None`
/// for others, surfaced as `QueryError::UnservedSource` by the engine).
///
/// # Examples
///
/// ```
/// use ftbfs_core::multi_failure_ftmbfs_parts;
/// use ftbfs_graph::{generators, FaultSpec, TieBreak, VertexId};
/// use ftbfs_oracle::{DistanceOracle, FrozenMultiStructure, QueryEngine};
///
/// let g = generators::tree_plus_chords(12, 5, 7);
/// let w = TieBreak::new(&g, 7);
/// let sources = [VertexId(0), VertexId(5)];
/// let parts = multi_failure_ftmbfs_parts(&g, &w, &sources, 2);
/// let frozen = FrozenMultiStructure::freeze(&g, &parts);
///
/// let mut engine = QueryEngine::new();
/// let matrix = engine
///     .try_distance_matrix(&frozen, &FaultSpec::None)
///     .unwrap()
///     .into_value();
/// assert_eq!(matrix.sources(), &sources);
/// assert_eq!(matrix.get(0, VertexId(0)), Some(0));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrozenMultiStructure {
    n: u32,
    resilience: u32,
    sources: Vec<VertexId>,
    /// Union edge list (identity + snapshot payload), strictly increasing
    /// by original id, endpoints normalised `u < v`.
    union_orig: Vec<u32>,
    union_u: Vec<u32>,
    union_v: Vec<u32>,
    /// Per-source edge lists as indices into the union arrays, strictly
    /// increasing; `slab_edges[i]` determines `slabs[i]`.
    slab_edges: Vec<Vec<u32>>,
    /// One frozen single-source structure per source, in `sources` order.
    slabs: Vec<FrozenStructure>,
    fingerprint: u64,
}

impl FrozenMultiStructure {
    /// Freezes the per-source structures of an FT-MBFS source set.
    ///
    /// Each part must be single-source and all parts must declare the same
    /// resilience (the natural output shape of
    /// [`ftbfs_core::multi_failure_ftmbfs_parts`]).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, a part is not single-source, sources
    /// repeat, resiliences disagree, or a part references an edge that does
    /// not exist in `graph`.
    pub fn freeze(graph: &Graph, parts: &[FtBfsStructure]) -> Self {
        assert!(!parts.is_empty(), "a multi structure needs ≥ 1 source");
        let resilience = parts[0].resilience();
        let mut sources = Vec::with_capacity(parts.len());
        let mut union: std::collections::BTreeSet<EdgeId> = std::collections::BTreeSet::new();
        for part in parts {
            assert_eq!(
                part.sources().len(),
                1,
                "each part must be a single-source structure"
            );
            assert_eq!(
                part.resilience(),
                resilience,
                "all parts must share one resilience"
            );
            let s = part.sources()[0];
            assert!(
                !sources.contains(&s),
                "duplicate source {s:?} in the part list"
            );
            sources.push(s);
            union.extend(part.edges());
        }
        let union_ids: Vec<EdgeId> = union.into_iter().collect();
        let mut union_orig = Vec::with_capacity(union_ids.len());
        let mut union_u = Vec::with_capacity(union_ids.len());
        let mut union_v = Vec::with_capacity(union_ids.len());
        for &e in &union_ids {
            assert!(
                graph.contains_edge(e),
                "structure edge {e:?} does not exist in the graph"
            );
            let ep = graph.endpoints(e);
            union_orig.push(e.0);
            union_u.push(ep.u.0);
            union_v.push(ep.v.0);
        }
        let slab_edges: Vec<Vec<u32>> = parts
            .iter()
            .map(|part| {
                part.edges()
                    .map(|e| {
                        union_orig
                            .binary_search(&e.0)
                            .expect("part edge is in the union") as u32
                    })
                    .collect()
            })
            .collect();
        FrozenMultiStructure::from_parts(
            graph.vertex_count() as u32,
            resilience as u32,
            sources,
            union_orig,
            union_u,
            union_v,
            slab_edges,
        )
        .expect("graph-derived parts are always consistent")
    }

    /// Assembles a multi structure from validated raw parts; shared by
    /// [`Self::freeze`] and snapshot loading.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        n: u32,
        resilience: u32,
        sources: Vec<VertexId>,
        union_orig: Vec<u32>,
        union_u: Vec<u32>,
        union_v: Vec<u32>,
        slab_edges: Vec<Vec<u32>>,
    ) -> Result<Self, SnapshotError> {
        let corrupt = |why: &str| Err(SnapshotError::Corrupt(why.to_string()));
        if sources.is_empty() {
            return corrupt("a multi structure needs at least one source");
        }
        // Mirror every invariant `freeze` asserts, so a crafted snapshot
        // cannot load a structure the constructor would reject.
        for i in 1..sources.len() {
            if sources[..i].contains(&sources[i]) {
                return corrupt("duplicate source in the source set");
            }
        }
        if slab_edges.len() != sources.len() {
            return corrupt("slab count disagrees with source count");
        }
        let m = union_orig.len();
        // Per-slab validation beyond what the inner freeze checks: indices
        // must be strictly increasing references into the union.
        for edges in &slab_edges {
            if edges.windows(2).any(|w| w[0] >= w[1]) {
                return corrupt("slab edge indices must be strictly increasing");
            }
            if edges.last().is_some_and(|&i| i as usize >= m) {
                return corrupt("slab edge index out of union range");
            }
        }
        let slabs: Vec<FrozenStructure> = sources
            .iter()
            .zip(&slab_edges)
            .map(|(&s, edges)| {
                FrozenStructure::from_parts(
                    n,
                    vec![s],
                    resilience,
                    Contract::Exact,
                    edges.iter().map(|&i| union_orig[i as usize]).collect(),
                    edges.iter().map(|&i| union_u[i as usize]).collect(),
                    edges.iter().map(|&i| union_v[i as usize]).collect(),
                )
            })
            .collect::<Result<_, _>>()?;
        let mut structure = FrozenMultiStructure {
            n,
            resilience,
            sources,
            union_orig,
            union_u,
            union_v,
            slab_edges,
            slabs,
            fingerprint: 0,
        };
        structure.fingerprint = fnv1a64(&structure.base_bytes());
        Ok(structure)
    }

    /// Number of vertices of the underlying graph.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.n as usize
    }

    /// Number of edges in the union structure `⋃_s H_s`.
    pub fn union_edge_count(&self) -> usize {
        self.union_orig.len()
    }

    /// The source set `S`, in freeze order.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// The designed resilience `f`.
    pub fn resilience(&self) -> usize {
        self.resilience as usize
    }

    /// The per-source frozen slab of `source`, if it is one of the
    /// declared sources.
    pub fn slab_for(&self, source: VertexId) -> Option<&FrozenStructure> {
        self.sources
            .iter()
            .position(|&s| s == source)
            .map(|i| &self.slabs[i])
    }

    /// The per-source slabs, in `sources` order.
    pub fn slabs(&self) -> &[FrozenStructure] {
        &self.slabs
    }

    /// The FNV-1a fingerprint of the canonical byte encoding (union edges
    /// plus per-slab index lists).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Reconstructs the mutable union [`FtBfsStructure`] (the shape
    /// [`ftbfs_core::multi_failure_ftmbfs`] returns).
    pub fn to_union_structure(&self) -> FtBfsStructure {
        FtBfsStructure::from_edges(
            self.sources.clone(),
            self.resilience as usize,
            self.union_orig.iter().map(|&e| EdgeId(e)),
        )
    }

    /// The canonical encoding of the determining data (union edges plus
    /// per-slab index lists) — the snapshot's base payload and the input
    /// of [`Self::fingerprint`].
    fn base_bytes(&self) -> Vec<u8> {
        let slab_words: usize = self.slab_edges.iter().map(|s| 1 + s.len()).sum();
        let mut out = Vec::with_capacity(
            20 + 4 * self.sources.len() + 12 * self.union_orig.len() + 4 * slab_words,
        );
        put_base(
            &mut out,
            Contract::Exact,
            self.n,
            self.resilience,
            &self.sources,
            (&self.union_orig, &self.union_u, &self.union_v),
        );
        for edges in &self.slab_edges {
            put_u32(&mut out, edges.len() as u32);
            put_u32_slice(&mut out, edges);
        }
        out
    }

    /// Serialises the structure to its snapshot (magic `"FTBM"`); see the
    /// module docs and [`crate::snapshot`] for the layout.
    pub fn save(&self) -> Vec<u8> {
        self.save_with(SnapshotVersion::V2)
    }

    /// Serialises the structure to the chosen snapshot format version (v2
    /// is the only one).
    pub fn save_with(&self, version: SnapshotVersion) -> Vec<u8> {
        let SnapshotVersion::V2 = version;
        let n = self.vertex_count();
        let k = self.sources.len();
        let mut slab_table = Vec::with_capacity(8 * k);
        let mut eori = Vec::new();
        let mut xadj = Vec::new();
        let mut heads = Vec::new();
        let mut edges = Vec::new();
        let mut trees = Vec::with_capacity(8 * n * k);
        let mut prefix = 0u32;
        for slab in &self.slabs {
            put_u32(&mut slab_table, slab.edge_count() as u32);
            put_u32(&mut slab_table, prefix);
            prefix += slab.edge_count() as u32;
            put_u32_slice(&mut eori, slab.raw_edge_orig());
            let (x, h, e) = slab.raw_csr();
            put_u32_slice(&mut xadj, x);
            put_u32_slice(&mut heads, h);
            put_u32_slice(&mut edges, e);
            let (dist, parent) = slab.trees()[0].raw_dist_parent();
            put_u32_slice(&mut trees, dist);
            put_u32_slice(&mut trees, parent);
        }
        assemble(
            SNAPSHOT_MULTI_MAGIC,
            &self.base_bytes(),
            self.fingerprint(),
            &[
                (SEC_SLAB_TABLE, slab_table),
                (SEC_EDGE_ORIG, eori),
                (SEC_XADJ, xadj),
                (SEC_ARC_HEADS, heads),
                (SEC_ARC_EDGES, edges),
                (SEC_TREES, trees),
            ],
        )
    }

    /// Deserialises a snapshot produced by [`FrozenMultiStructure::save`]:
    /// validated like a [`crate::FrozenMultiView`] open, then rebuilt.
    ///
    /// Malformed input of any kind — wrong magic, truncation, bit flips,
    /// inconsistent contents — returns a typed [`SnapshotError`]; this
    /// function never panics.
    pub fn load(data: &[u8]) -> Result<Self, SnapshotError> {
        crate::view::FrozenMultiView::open_bytes(data)?.to_multi()
    }
}

impl DistanceOracle for FrozenMultiStructure {
    fn vertex_count(&self) -> usize {
        FrozenMultiStructure::vertex_count(self)
    }

    fn edge_count(&self) -> usize {
        self.union_edge_count()
    }

    fn sources(&self) -> &[VertexId] {
        FrozenMultiStructure::sources(self)
    }

    fn resilience(&self) -> usize {
        FrozenMultiStructure::resilience(self)
    }

    fn fingerprint(&self) -> u64 {
        FrozenMultiStructure::fingerprint(self)
    }

    /// Only declared sources are servable; each gets its own per-source
    /// slab (smaller than the union, with a precomputed fault-free tree).
    fn slab(&self, source: VertexId) -> Option<OracleSlab<'_>> {
        let frozen = self.slab_for(source)?;
        DistanceOracle::slab(frozen, source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_core::multi_failure_ftmbfs_parts;
    use ftbfs_graph::{generators, TieBreak};

    fn sample() -> (Graph, Vec<VertexId>, FrozenMultiStructure) {
        let g = generators::tree_plus_chords(14, 6, 2);
        let w = TieBreak::new(&g, 2);
        let sources = vec![VertexId(0), VertexId(7)];
        let parts = multi_failure_ftmbfs_parts(&g, &w, &sources, 2);
        let frozen = FrozenMultiStructure::freeze(&g, &parts);
        (g, sources, frozen)
    }

    #[test]
    fn freeze_builds_per_source_slabs_over_the_union() {
        let (g, sources, frozen) = sample();
        assert_eq!(frozen.vertex_count(), g.vertex_count());
        assert_eq!(frozen.sources(), &sources[..]);
        assert_eq!(frozen.resilience(), 2);
        assert_eq!(frozen.slabs().len(), 2);
        let mut union_edges = 0;
        for &s in &sources {
            let slab = frozen.slab_for(s).expect("declared source has a slab");
            assert_eq!(slab.sources(), &[s]);
            assert!(slab.edge_count() <= frozen.union_edge_count());
            union_edges = union_edges.max(slab.edge_count());
        }
        assert!(union_edges > 0);
        assert!(frozen.slab_for(VertexId(3)).is_none());
        // The union round-trips to the multi_failure_ftmbfs shape.
        let union = frozen.to_union_structure();
        assert_eq!(union.sources(), &sources[..]);
        assert_eq!(union.edge_count(), frozen.union_edge_count());
    }

    #[test]
    fn snapshot_roundtrip_is_identical() {
        let (_g, _sources, frozen) = sample();
        let bytes = frozen.save();
        assert_eq!(&bytes[..4], &SNAPSHOT_MULTI_MAGIC);
        let loaded = FrozenMultiStructure::load(&bytes).unwrap();
        assert_eq!(loaded, frozen);
        assert_eq!(loaded.fingerprint(), frozen.fingerprint());
        assert_eq!(loaded.save(), bytes);
    }

    #[test]
    fn malformed_snapshots_return_typed_errors() {
        let (_g, _sources, frozen) = sample();
        let bytes = frozen.save();
        assert_eq!(
            FrozenMultiStructure::load(b"junk").unwrap_err(),
            SnapshotError::BadMagic
        );
        // A single-source snapshot is not a multi snapshot.
        let mut wrong = bytes.clone();
        wrong[..4].copy_from_slice(b"FTBO");
        assert_eq!(
            FrozenMultiStructure::load(&wrong).unwrap_err(),
            SnapshotError::BadMagic
        );
        for cut in [5, bytes.len() / 3, bytes.len() - 1] {
            let err = FrozenMultiStructure::load(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        let err = FrozenMultiStructure::load(&flipped).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::ChecksumMismatch | SnapshotError::SectionChecksum { .. }
            ),
            "unexpected {err:?}"
        );
    }

    #[test]
    fn load_rejects_duplicate_sources_like_freeze_does() {
        use crate::snapshot::{assemble, SNAPSHOT_VERSION};
        use ftbfs_graph::bytes::put_u16;
        // Hand-craft a checksummed snapshot declaring source 0 twice: the
        // loader must enforce the same distinctness invariant freeze()
        // asserts, not just the checksums.
        let mut payload = Vec::new();
        put_u16(&mut payload, SNAPSHOT_VERSION);
        put_u16(&mut payload, 0); // flags
        put_u32(&mut payload, 3); // n
        put_u32(&mut payload, 1); // resilience
        put_u32(&mut payload, 2); // k
        put_u32(&mut payload, 0); // source 0
        put_u32(&mut payload, 0); // source 0 again
        put_u32(&mut payload, 1); // union m
        put_u32(&mut payload, 0); // edge orig
        put_u32(&mut payload, 0); // u
        put_u32(&mut payload, 1); // v
        for _ in 0..2 {
            put_u32(&mut payload, 1); // m_s
            put_u32(&mut payload, 0); // union index
        }
        let bytes = assemble(SNAPSHOT_MULTI_MAGIC, &payload, fnv1a64(&payload), &[]);
        match FrozenMultiStructure::load(&bytes).unwrap_err() {
            SnapshotError::Corrupt(why) => assert!(why.contains("duplicate source")),
            other => panic!("expected Corrupt(duplicate source), got {other:?}"),
        }
    }

    #[test]
    #[should_panic]
    fn freeze_rejects_multi_source_parts() {
        let g = generators::cycle(6);
        let part = FtBfsStructure::from_edges(vec![VertexId(0), VertexId(1)], 2, g.edges());
        let _ = FrozenMultiStructure::freeze(&g, &[part]);
    }

    #[test]
    #[should_panic]
    fn freeze_rejects_duplicate_sources() {
        let g = generators::cycle(6);
        let a = FtBfsStructure::from_edges(vec![VertexId(0)], 2, g.edges());
        let b = FtBfsStructure::from_edges(vec![VertexId(0)], 2, g.edges());
        let _ = FrozenMultiStructure::freeze(&g, &[a, b]);
    }
}
