//! Tie-breaking weight assignment `W` for unique shortest paths.
//!
//! The paper assumes "a weight assignment `W` that guarantees the uniqueness
//! of the shortest paths" (footnote 3): the graph stays unweighted, but
//! fractional perturbations break ties between equal-length shortest paths in
//! a consistent way.  We realise `W` with integer arithmetic:
//!
//! ```text
//! W(e) = SCALE + pert(e),    SCALE = 2^40,    1 <= pert(e) < 2^20
//! ```
//!
//! Because every perturbation is positive and far smaller than `SCALE`, the
//! hop count of a path strictly dominates its `W`-weight, so a `W`-shortest
//! path is always a hop-shortest path and the hop length can be recovered as
//! `weight >> 40` for any path with fewer than `2^20` edges.  Perturbations
//! are drawn from a seeded pseudo-random generator, making ties unique with
//! overwhelming probability (isolation-lemma style) and the whole
//! construction reproducible from the seed.

use crate::graph::{EdgeId, Graph};

/// log2 of the hop scale: each edge contributes `2^40` plus its perturbation.
pub const SCALE_BITS: u32 = 40;

/// The additive weight contributed by the *hop* part of each edge.
pub const SCALE: u64 = 1 << SCALE_BITS;

/// Upper bound (exclusive) on per-edge perturbations.
pub const MAX_PERTURBATION: u64 = 1 << 20;

/// The tie-breaking weight assignment `W : E → u64`.
///
/// # Examples
///
/// ```
/// use ftbfs_graph::{GraphBuilder, TieBreak, VertexId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(VertexId(0), VertexId(1));
/// b.add_edge(VertexId(1), VertexId(2));
/// let g = b.build();
/// let w = TieBreak::new(&g, 42);
/// for e in g.edges() {
///     let weight = w.weight(e);
///     assert!(weight > ftbfs_graph::tiebreak::SCALE);
///     assert!(weight < 2 * ftbfs_graph::tiebreak::SCALE);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct TieBreak {
    perturbation: Vec<u64>,
    seed: u64,
}

impl TieBreak {
    /// Creates a weight assignment for `graph` from `seed`.
    ///
    /// The same `(graph, seed)` pair always yields the same assignment.
    pub fn new(graph: &Graph, seed: u64) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let perturbation = (0..graph.edge_count())
            .map(|i| {
                // SplitMix64 step keyed by the seed and the edge index: cheap,
                // deterministic, and well-distributed.
                let mut z = state
                    .wrapping_add(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                state = z;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                1 + (z % (MAX_PERTURBATION - 1))
            })
            .collect();
        TieBreak { perturbation, seed }
    }

    /// An assignment whose perturbations are all equal, so every
    /// hop-shortest path ties: the searches' tie rules decide every path.
    #[cfg(test)]
    pub(crate) fn with_equal_perturbations(graph: &Graph) -> Self {
        TieBreak {
            perturbation: vec![1; graph.edge_count()],
            seed: 0,
        }
    }

    /// The seed this assignment was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `W`-weight of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range for the graph the assignment was built
    /// for.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> u64 {
        SCALE + self.perturbation[e.index()]
    }

    /// The perturbation part of the weight of `e`.
    #[inline]
    pub fn perturbation(&self, e: EdgeId) -> u64 {
        self.perturbation[e.index()]
    }

    /// Number of edges covered by this assignment.
    pub fn edge_count(&self) -> usize {
        self.perturbation.len()
    }

    /// Converts an accumulated `W`-weight back to a hop count.
    ///
    /// Valid whenever the summed path has fewer than `2^20` edges, which is
    /// guaranteed for simple paths in graphs with fewer than `2^20` vertices.
    #[inline]
    pub fn hops_of_weight(weight: u64) -> u32 {
        (weight >> SCALE_BITS) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, VertexId};

    fn path_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(VertexId::new(i), VertexId::new(i + 1));
        }
        b.build()
    }

    #[test]
    fn deterministic_for_same_seed() {
        let g = path_graph(50);
        let w1 = TieBreak::new(&g, 7);
        let w2 = TieBreak::new(&g, 7);
        for e in g.edges() {
            assert_eq!(w1.weight(e), w2.weight(e));
        }
        assert_eq!(w1.seed(), 7);
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let g = path_graph(50);
        let w1 = TieBreak::new(&g, 1);
        let w2 = TieBreak::new(&g, 2);
        assert!(g.edges().any(|e| w1.weight(e) != w2.weight(e)));
    }

    #[test]
    fn weights_are_in_range() {
        let g = path_graph(200);
        let w = TieBreak::new(&g, 99);
        for e in g.edges() {
            let wt = w.weight(e);
            assert!(wt > SCALE);
            assert!(wt < SCALE + MAX_PERTURBATION);
            assert!(w.perturbation(e) >= 1);
        }
        assert_eq!(w.edge_count(), g.edge_count());
    }

    #[test]
    fn hop_recovery() {
        let g = path_graph(100);
        let w = TieBreak::new(&g, 3);
        let total: u64 = g.edges().map(|e| w.weight(e)).sum();
        assert_eq!(TieBreak::hops_of_weight(total), 99);
        assert_eq!(TieBreak::hops_of_weight(0), 0);
        assert_eq!(TieBreak::hops_of_weight(w.weight(EdgeId(0))), 1);
    }

    #[test]
    fn perturbations_mostly_distinct() {
        let g = path_graph(500);
        let w = TieBreak::new(&g, 11);
        let mut seen = std::collections::HashSet::new();
        let mut collisions = 0usize;
        for e in g.edges() {
            if !seen.insert(w.perturbation(e)) {
                collisions += 1;
            }
        }
        // With ~2^20 possible values and 499 edges, collisions are very rare.
        assert!(
            collisions <= 2,
            "too many perturbation collisions: {collisions}"
        );
    }
}
