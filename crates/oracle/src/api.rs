//! The unified serving abstraction: the [`DistanceOracle`] trait and its
//! typed answer vocabulary ([`Answer`], [`Guarantee`], [`QueryError`],
//! [`DistanceMatrix`]).
//!
//! PR 3 built one concrete serving path (`FrozenStructure` +
//! `QueryEngine`).  This module abstracts *what a query engine needs from a
//! frozen structure* into a trait, so the same engine — same epoch-stamped
//! workspace, same fault-pair LRU, same zero-allocation guarantees — serves
//! both the single-source dual-failure structures of the paper and the
//! multi-source FT-MBFS structures of Gupta–Khan (`S × V` workloads),
//! and any future backend (mmap-loaded snapshots, sharded structures)
//! without another engine rewrite.
//!
//! The trait surface is deliberately *data-shaped*, not *query-shaped*: an
//! oracle hands out borrowed [`OracleSlab`]s (CSR arrays + optional
//! precomputed fault-free tree for one source) and the engine owns all
//! mutable state.  That keeps `&O: Sync` sharing across serving threads
//! trivial and keeps the BFS kernel monomorphic over slice accesses.
//!
//! ## The guarantee contract
//!
//! A structure built for resilience `f` answers `dist(s, v, H ∖ F)` for
//! *any* fault set — the engine simply runs inside the surviving subgraph.
//! The paper's theorems only promise `dist(s, v, H ∖ F) = dist(s, v, G ∖ F)`
//! for `|F| ≤ f`.  [`DistanceOracle::guarantee`] derives exactly that from
//! the oracle's [`DistanceOracle::contract`] and resilience:
//! [`Guarantee::Exact`] when the spec's (distinct) size is within the
//! declared resilience, [`Guarantee::BestEffort`] beyond it (approximate
//! contracts put [`Guarantee::Approx`] in between).  Best-effort
//! answers are still *exact inside `H`* and always upper-bound the true
//! `G ∖ F` distance (`H ⊆ G` implies `dist(s,v,H∖F) ≥ dist(s,v,G∖F)`);
//! they are never silently wrong in the "too short" direction.

use ftbfs_core::ApproxParams;
use ftbfs_graph::bytes::WordSlice;
use ftbfs_graph::{EdgeId, FaultSpec, VertexId};
use std::fmt;

/// How strongly an answer is guaranteed to relate to the true post-failure
/// distance in `G ∖ F`; see the [module docs](self) for the contract.
///
/// The enum is `#[non_exhaustive]`: new guarantee contracts may be added
/// (the approximate backends added [`Guarantee::Approx`]); match with a
/// wildcard arm and treat unknown variants as weaker than
/// [`Guarantee::Exact`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Guarantee {
    /// `|F| ≤ resilience`: the answer equals `dist(s, v, G ∖ F)` by the
    /// structure's construction theorem.
    Exact,
    /// `|F| ≤ resilience` on an approximate backend: the answer `d` is
    /// sandwiched by `dist(s, v, G∖F) ≤ d ≤ α·dist(s, v, G∖F) + β`, where
    /// the multiplicative stretch is `α = mult_num / mult_den` and the
    /// additive stretch is `β = add` (and reachability is preserved
    /// exactly).  Carried by the FT-ABFS structures of `ftbfs-core`'s
    /// `approx_ftbfs` module.
    Approx {
        /// Numerator of the multiplicative stretch `α`.
        mult_num: u32,
        /// Denominator of the multiplicative stretch `α` (never zero).
        mult_den: u32,
        /// Additive stretch `β`.
        add: u32,
    },
    /// `|F| > resilience`: the answer is `dist(s, v, H ∖ F)` — exact inside
    /// the structure and an upper bound on `dist(s, v, G ∖ F)`, but not
    /// guaranteed equal to it.
    BestEffort,
}

impl Guarantee {
    /// Returns `true` for [`Guarantee::Exact`].
    pub fn is_exact(self) -> bool {
        matches!(self, Guarantee::Exact)
    }

    /// Returns `true` for [`Guarantee::Approx`] — a bounded-stretch answer
    /// within the structure's resilience.
    pub fn is_approx(self) -> bool {
        matches!(self, Guarantee::Approx { .. })
    }

    /// Returns `true` if the answer carries *some* bound relating it to the
    /// true `G ∖ F` distance: [`Guarantee::Exact`] (equality) or
    /// [`Guarantee::Approx`] (sandwich bound).  [`Guarantee::BestEffort`]
    /// and unknown future variants return `false`.
    pub fn is_bounded(self) -> bool {
        matches!(self, Guarantee::Exact | Guarantee::Approx { .. })
    }

    /// For a bounded guarantee, the largest answer permitted for a true
    /// post-failure distance `d`: `d` itself for [`Guarantee::Exact`],
    /// `⌈α·d⌉ + β` for [`Guarantee::Approx`].  `None` for
    /// [`Guarantee::BestEffort`] (and unknown variants), which promise no
    /// upper bound.
    pub fn stretch_bound(self, true_distance: u32) -> Option<u64> {
        match self {
            Guarantee::Exact => Some(true_distance as u64),
            Guarantee::Approx {
                mult_num,
                mult_den,
                add,
            } => {
                let d = true_distance as u64;
                Some((d * mult_num as u64).div_ceil(mult_den.max(1) as u64) + add as u64)
            }
            _ => None,
        }
    }
}

/// The answer contract a frozen structure declares: what its answers
/// promise about the true post-failure distance for fault sets within its
/// resilience.  Stored in the snapshot header and covered by the
/// fingerprint, so the same edges under two contracts are two different
/// serving artifacts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Contract {
    /// The paper's structures: within the resilience, answers equal
    /// `dist(s, v, G ∖ F)`.
    #[default]
    Exact,
    /// The FT-ABFS structures of `ftbfs_core::approx_ftbfs`: within the
    /// resilience, answers are within the declared `(α, β)` stretch, with
    /// reachability preserved exactly; `θ` records the construction knob.
    Approx(ApproxParams),
}

impl Contract {
    /// The guarantee an answer under `spec` carries on a structure with
    /// this contract and `resilience`: beyond the resilience it is
    /// [`Guarantee::BestEffort`]; within it, [`Guarantee::Exact`] for the
    /// exact contract, and [`Guarantee::Approx`] for the approximate one
    /// once any fault is present (fault-free answers read the embedded BFS
    /// tree, so they are exact on either contract).
    #[inline]
    pub fn guarantee(self, resilience: usize, spec: &FaultSpec) -> Guarantee {
        let faults = spec.len();
        match self {
            _ if faults > resilience => Guarantee::BestEffort,
            Contract::Approx(p) if faults > 0 => Guarantee::Approx {
                mult_num: p.mult_num,
                mult_den: p.mult_den,
                add: p.add,
            },
            _ => Guarantee::Exact,
        }
    }
}

/// A query result together with the [`Guarantee`] it carries.
///
/// Returned by the checked engine entry points (`try_distance`,
/// `try_shortest_path`, `try_distance_matrix`); the value is whatever the
/// query produces (`Option<u32>`, `Option<Path>`, a matrix).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer<T> {
    value: T,
    guarantee: Guarantee,
}

impl<T> Answer<T> {
    /// Wraps `value` with its guarantee.
    pub fn new(value: T, guarantee: Guarantee) -> Self {
        Answer { value, guarantee }
    }

    /// The answered value.
    pub fn value(&self) -> &T {
        &self.value
    }

    /// Consumes the answer, returning the value and dropping the guarantee
    /// (for callers that have already checked it, or don't care).
    pub fn into_value(self) -> T {
        self.value
    }

    /// The guarantee attached to the value.
    pub fn guarantee(&self) -> Guarantee {
        self.guarantee
    }

    /// Returns `true` if the answer is covered by the structure's
    /// resilience theorem.
    pub fn is_exact(&self) -> bool {
        self.guarantee.is_exact()
    }

    /// Maps the value, keeping the guarantee.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Answer<U> {
        Answer {
            value: f(self.value),
            guarantee: self.guarantee,
        }
    }
}

/// Errors produced by the checked query entry points.
///
/// The `try_*` family returns these instead of panicking, so a serving
/// front-end can map them to client errors.  This enum may grow variants;
/// match with a wildcard arm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueryError {
    /// A queried vertex id is not a vertex of the structure's graph.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: VertexId,
        /// The structure's vertex count (valid ids are `0..bound`).
        bound: usize,
    },
    /// The oracle cannot answer queries from this source vertex (e.g. a
    /// multi-source structure asked about a source outside its set `S`).
    UnservedSource {
        /// The source the oracle has no slab for.
        source: VertexId,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::VertexOutOfRange { vertex, bound } => write!(
                f,
                "vertex {} out of range for a structure over {} vertices",
                vertex.0, bound
            ),
            QueryError::UnservedSource { source } => {
                write!(f, "source {} is not served by this oracle", source.0)
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// The precomputed fault-free BFS tree of a slab's source, as borrowed
/// dense arrays (`u32::MAX` sentinels for unreached / no parent).
///
/// The arrays are [`WordSlice`]s, so a tree can live either in heap-built
/// `Vec`s (a [`crate::FrozenStructure`]) or directly in mapped snapshot
/// bytes (a [`crate::FrozenView`]).
#[derive(Clone, Copy, Debug)]
pub struct SlabTree<'a> {
    pub(crate) dist: WordSlice<'a>,
    pub(crate) parent_head: WordSlice<'a>,
}

impl<'a> SlabTree<'a> {
    /// Wraps borrowed tree arrays; both must have length `n` and use
    /// `u32::MAX` as the unreached / no-parent sentinel.
    pub fn new(dist: impl Into<WordSlice<'a>>, parent_head: impl Into<WordSlice<'a>>) -> Self {
        let (dist, parent_head) = (dist.into(), parent_head.into());
        debug_assert_eq!(dist.len(), parent_head.len());
        SlabTree { dist, parent_head }
    }
}

/// The borrowed CSR adjacency serving queries from one source: what a
/// [`DistanceOracle`] hands the query engine.
///
/// A slab is a *view* — constructing one allocates nothing, so the engine
/// can request a fresh slab per query.  The arrays follow the frozen-CSR
/// layout established by `FrozenStructure`:
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
///
/// The arrays are [`WordSlice`]s: native slices for heap-built structures,
/// little-endian byte views for structures served straight out of mapped
/// v2 snapshot bytes.
#[derive(Clone, Copy, Debug)]
pub struct OracleSlab<'a> {
    source: VertexId,
    xadj: WordSlice<'a>,
    adj_head: WordSlice<'a>,
    adj_edge: WordSlice<'a>,
    edge_orig: WordSlice<'a>,
    tree: Option<SlabTree<'a>>,
}

impl<'a> OracleSlab<'a> {
    /// Assembles a slab from borrowed CSR arrays.
    ///
    /// Invariants (checked only by `debug_assert`): `xadj` has `n + 1`
    /// entries, `adj_head`/`adj_edge` have `xadj[n]` entries, `edge_orig`
    /// is strictly increasing, and `tree` (if present) covers `n` vertices.
    pub fn new(
        source: VertexId,
        xadj: impl Into<WordSlice<'a>>,
        adj_head: impl Into<WordSlice<'a>>,
        adj_edge: impl Into<WordSlice<'a>>,
        edge_orig: impl Into<WordSlice<'a>>,
        tree: Option<SlabTree<'a>>,
    ) -> Self {
        let (xadj, adj_head, adj_edge, edge_orig) = (
            xadj.into(),
            adj_head.into(),
            adj_edge.into(),
            edge_orig.into(),
        );
        debug_assert!(!xadj.is_empty());
        debug_assert_eq!(adj_head.len(), xadj.get(xadj.len() - 1) as usize);
        debug_assert_eq!(adj_head.len(), adj_edge.len());
        debug_assert!(edge_orig.is_strictly_increasing());
        OracleSlab {
            source,
            xadj,
            adj_head,
            adj_edge,
            edge_orig,
            tree,
        }
    }

    /// The source this slab serves queries from.
    pub fn source(&self) -> VertexId {
        self.source
    }

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

    // -- raw access for the engine's BFS kernel (same crate) --------------

    #[inline]
    pub(crate) fn csr_xadj(&self) -> WordSlice<'a> {
        self.xadj
    }

    #[inline]
    pub(crate) fn arc_heads(&self) -> WordSlice<'a> {
        self.adj_head
    }

    #[inline]
    pub(crate) fn arc_edges(&self) -> WordSlice<'a> {
        self.adj_edge
    }

    #[inline]
    pub(crate) fn tree(&self) -> Option<SlabTree<'a>> {
        self.tree
    }
}

/// A structure compiled for post-failure distance serving: the single
/// abstraction behind `QueryEngine`, `ThroughputHarness` and
/// `ftbfs_verify::StructureOracle`.
///
/// Implementors are immutable and cheap to share (`&O` across threads);
/// all mutable query state lives in the engine.  The two in-tree
/// implementations are [`crate::FrozenStructure`] (heap-built) and
/// [`crate::FrozenView`] (served from snapshot bytes); both hold either
/// one shared CSR slab (any source answerable, precomputed trees for the
/// declared sources) or one slab per declared source of an FT-MBFS source
/// set (only those sources answerable).
///
/// # Examples
///
/// ```
/// use ftbfs_core::dual_failure_ftbfs;
/// use ftbfs_graph::{generators, FaultSpec, TieBreak, VertexId};
/// use ftbfs_oracle::{DistanceOracle, Freeze, QueryEngine};
///
/// let g = generators::connected_gnp(30, 0.15, 7);
/// let w = TieBreak::new(&g, 7);
/// let frozen = dual_failure_ftbfs(&g, &w, VertexId(0)).freeze(&g);
///
/// // Generic serving code sees only the trait.
/// fn serve<O: DistanceOracle>(oracle: &O, target: VertexId) -> Option<u32> {
///     let mut engine = QueryEngine::new();
///     let answer = engine.try_distance(oracle, target, &FaultSpec::None).unwrap();
///     assert!(answer.is_exact());
///     answer.into_value()
/// }
/// assert!(serve(&frozen, VertexId(9)).is_some());
/// ```
pub trait DistanceOracle {
    /// Number of vertices of the underlying graph.
    fn vertex_count(&self) -> usize;

    /// Number of distinct edges in the frozen data (for a multi-source
    /// oracle, the union over its slabs) — the paper's cost measure
    /// `|E(H)|`.
    fn edge_count(&self) -> usize;

    /// The source set `S` the oracle serves, in declaration order; never
    /// empty.
    fn sources(&self) -> &[VertexId];

    /// The number of edge faults the structure was built to tolerate
    /// (answers for larger fault sets are [`Guarantee::BestEffort`]).
    fn resilience(&self) -> usize;

    /// A fingerprint identifying the frozen data; engines detect rebinding
    /// to a different structure by comparing it.
    fn fingerprint(&self) -> u64;

    /// The CSR slab serving queries from `source`, or `None` if the oracle
    /// cannot answer from that vertex.
    ///
    /// Implementations must return `None` (never panic) for out-of-range
    /// sources.
    fn slab(&self, source: VertexId) -> Option<OracleSlab<'_>>;

    /// The first declared source — what source-less query forms default to.
    fn primary_source(&self) -> VertexId {
        self.sources()[0]
    }

    /// The engine's LRU partition for `source`: its position in
    /// [`Self::sources`], or `None` for a servable-but-undeclared source
    /// (engines map those to a shared overflow partition).
    fn partition(&self, source: VertexId) -> Option<usize> {
        self.sources().iter().position(|&s| s == source)
    }

    /// The answer contract the structure declares (exact unless
    /// overridden).
    fn contract(&self) -> Contract {
        Contract::Exact
    }

    /// The guarantee answers under `spec` carry, derived from
    /// [`Self::contract`] and [`Self::resilience`]; see the
    /// [module docs](self) for the contract.
    fn guarantee(&self, spec: &FaultSpec) -> Guarantee {
        self.contract().guarantee(self.resilience(), spec)
    }
}

/// The `S × V` distance table answered by `QueryEngine::try_distance_matrix`
/// — the batch form serving Gupta–Khan's multi-source workload.
///
/// Stored row-major by source (rows follow [`DistanceOracle::sources`]
/// order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistanceMatrix {
    sources: Vec<VertexId>,
    n: usize,
    data: Vec<Option<u32>>,
}

impl DistanceMatrix {
    pub(crate) fn new(sources: Vec<VertexId>, n: usize, data: Vec<Option<u32>>) -> Self {
        debug_assert_eq!(data.len(), sources.len() * n);
        DistanceMatrix { sources, n, data }
    }

    /// The sources labelling the rows, in row order.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// Number of vertices per row.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// The distance `dist(sources()[row], v, H ∖ F)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `v` is out of range.
    #[inline]
    pub fn get(&self, row: usize, v: VertexId) -> Option<u32> {
        assert!(row < self.sources.len(), "row {row} out of range");
        self.data[row * self.n + v.index()]
    }

    /// The full distance row of `sources()[row]`.
    pub fn row(&self, row: usize) -> &[Option<u32>] {
        &self.data[row * self.n..(row + 1) * self.n]
    }

    /// The distances from a source vertex, if it labels a row.
    pub fn row_for(&self, source: VertexId) -> Option<&[Option<u32>]> {
        self.sources
            .iter()
            .position(|&s| s == source)
            .map(|i| self.row(i))
    }

    /// The flat row-major data (`sources().len() * vertex_count()` slots).
    pub fn as_flat(&self) -> &[Option<u32>] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarantee_and_answer_accessors() {
        assert!(Guarantee::Exact.is_exact());
        assert!(!Guarantee::BestEffort.is_exact());
        let a = Answer::new(Some(3u32), Guarantee::Exact);
        assert_eq!(*a.value(), Some(3));
        assert!(a.is_exact());
        assert_eq!(a.guarantee(), Guarantee::Exact);
        let b = a.map(|d| d.map(|x| x + 1));
        assert_eq!(b.into_value(), Some(4));
        let c = Answer::new((), Guarantee::BestEffort);
        assert!(!c.is_exact());
    }

    #[test]
    fn approx_guarantee_classification_and_bound() {
        let g = Guarantee::Approx {
            mult_num: 3,
            mult_den: 1,
            add: 4,
        };
        assert!(!g.is_exact());
        assert!(g.is_approx());
        assert!(g.is_bounded());
        assert!(Guarantee::Exact.is_bounded());
        assert!(!Guarantee::BestEffort.is_bounded());
        assert_eq!(g.stretch_bound(2), Some(10));
        assert_eq!(Guarantee::Exact.stretch_bound(2), Some(2));
        assert_eq!(Guarantee::BestEffort.stretch_bound(2), None);
        let half = Guarantee::Approx {
            mult_num: 3,
            mult_den: 2,
            add: 1,
        };
        assert_eq!(half.stretch_bound(3), Some(6)); // ceil(9/2) + 1
    }

    #[test]
    fn query_error_displays() {
        let e = QueryError::VertexOutOfRange {
            vertex: VertexId(9),
            bound: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
        let u = QueryError::UnservedSource {
            source: VertexId(7),
        };
        assert!(u.to_string().contains('7'));
        assert_ne!(e, u);
    }

    #[test]
    fn distance_matrix_indexing() {
        let m = DistanceMatrix::new(
            vec![VertexId(0), VertexId(2)],
            3,
            vec![Some(0), Some(1), None, None, Some(5), Some(0)],
        );
        assert_eq!(m.sources(), &[VertexId(0), VertexId(2)]);
        assert_eq!(m.vertex_count(), 3);
        assert_eq!(m.get(0, VertexId(1)), Some(1));
        assert_eq!(m.get(1, VertexId(0)), None);
        assert_eq!(m.row(1), &[None, Some(5), Some(0)]);
        assert_eq!(m.row_for(VertexId(2)), Some(m.row(1)));
        assert_eq!(m.row_for(VertexId(1)), None);
        assert_eq!(m.as_flat().len(), 6);
    }
}
