//! The typed vocabulary of query serving: answers ([`Answer`] carrying a
//! [`Guarantee`]), the [`Contract`] a structure declares, [`QueryError`]
//! instead of panics, and the `S × V` [`DistanceMatrix`].
//!
//! ## The guarantee contract
//!
//! A structure built for resilience `f` answers `dist(s, v, H ∖ F)` for
//! *any* fault set — the engine simply runs inside the surviving subgraph.
//! The paper's theorems only promise `dist(s, v, H ∖ F) = dist(s, v, G ∖ F)`
//! for `|F| ≤ f`.  [`Contract::guarantee`] derives exactly that from the
//! structure's contract and resilience:
//! [`Guarantee::Exact`] when the spec's (distinct) size is within the
//! declared resilience, [`Guarantee::BestEffort`] beyond it (approximate
//! contracts put [`Guarantee::Approx`] in between).  Best-effort
//! answers are still *exact inside `H`* and always upper-bound the true
//! `G ∖ F` distance (`H ⊆ G` implies `dist(s,v,H∖F) ≥ dist(s,v,G∖F)`);
//! they are never silently wrong in the "too short" direction.

use ftbfs_core::ApproxParams;
use ftbfs_graph::{FaultSpec, VertexId};
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

/// The `S × V` distance table answered by `QueryEngine::try_distance_matrix`
/// — the batch form serving Gupta–Khan's multi-source workload.
///
/// Stored row-major by source (rows follow [`crate::FrozenView::sources`]
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
