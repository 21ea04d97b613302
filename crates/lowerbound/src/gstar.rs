//! The full lower-bound graphs `G*_f` (single source) and their multi-source
//! extension (Theorem 4.1, Figures 11 and 12).
//!
//! `G*_f` consists of (1) the gadget `G_f(d)`, (2) a hub vertex `v*` adjacent
//! to the gadget's last spine vertex and to a set `X` of extra vertices, and
//! (3) a complete bipartite graph between `X` and the gadget's leaves.  Every
//! bipartite edge is *necessary* in any `f`-failure FT-BFS structure rooted
//! at the gadget root: for each leaf a specific fault set of size at most `f`
//! forces the shortest route to `X` through that leaf.  Since there are
//! `|X| · d^f = Ω(n^{2-1/(f+1)})` bipartite edges, the lower bound follows.
//!
//! The multi-source variant stacks `σ` disjoint copies of the gadget sharing
//! the same `X` and `v*`, giving `Ω(σ^{1/(f+1)} · n^{2-1/(f+1)})` forced
//! edges for a source set of size `σ`.

use crate::gf::{build_gf, GfComponent};
use ftbfs_graph::{EdgeId, FaultSpec, Graph, GraphBuilder, VertexId};

/// A constructed lower-bound graph with all the bookkeeping needed to verify
/// edge necessity and to report sizes.
#[derive(Clone, Debug)]
pub struct GStarGraph {
    /// The built graph.
    pub graph: Graph,
    /// The fault budget `f` the construction targets.
    pub f: usize,
    /// The gadget parameter `d`.
    pub d: usize,
    /// The sources (gadget roots), one per gadget copy; `sources[0]` is the
    /// single-source root.
    pub sources: Vec<VertexId>,
    /// The gadget copies' bookkeeping, parallel to [`GStarGraph::sources`].
    pub gadgets: Vec<GfComponent>,
    /// The hub vertex `v*`.
    pub v_star: VertexId,
    /// The extra vertex set `X`.
    pub x_vertices: Vec<VertexId>,
    /// All bipartite `X × leaves` edges (the edges the lower bound forces).
    pub bipartite_edges: Vec<EdgeId>,
}

impl GStarGraph {
    /// Builds the single-source `G*_f` with gadget parameter `d` and
    /// `x_count` extra vertices.
    ///
    /// # Panics
    ///
    /// Panics if `f == 0`, `d == 0` or `x_count == 0`.
    pub fn single_source(f: usize, d: usize, x_count: usize) -> Self {
        Self::multi_source(f, d, 1, x_count)
    }

    /// Builds the multi-source variant with `sigma` gadget copies.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn multi_source(f: usize, d: usize, sigma: usize, x_count: usize) -> Self {
        assert!(
            f >= 1 && d >= 1 && sigma >= 1 && x_count >= 1,
            "parameters must be positive"
        );
        let mut builder = GraphBuilder::new(0);
        let mut gadgets = Vec::with_capacity(sigma);
        for _ in 0..sigma {
            gadgets.push(build_gf(&mut builder, f, d));
        }
        let v_star = builder.add_vertex();
        for gadget in &gadgets {
            builder.add_edge(gadget.spine_end, v_star);
        }
        let x_vertices = builder.add_vertices(x_count);
        for &x in &x_vertices {
            builder.add_edge(v_star, x);
        }
        let mut bipartite_pairs = Vec::new();
        for gadget in &gadgets {
            for leaf in &gadget.leaves {
                for &x in &x_vertices {
                    builder.add_edge(x, leaf.vertex);
                    bipartite_pairs.push((x, leaf.vertex));
                }
            }
        }
        let graph = builder.build();
        let bipartite_edges = bipartite_pairs
            .iter()
            .map(|&(a, b)| graph.edge_between(a, b).expect("bipartite edge was added"))
            .collect();
        let sources = gadgets.iter().map(|c| c.root).collect();
        GStarGraph {
            graph,
            f,
            d,
            sources,
            gadgets,
            v_star,
            x_vertices,
            bipartite_edges,
        }
    }

    /// Builds a single-source `G*_f` with roughly `target_n` vertices: the
    /// largest `d` whose gadget uses at most half the budget, with the
    /// remaining vertices spent on `X`.
    ///
    /// # Panics
    ///
    /// Panics if `target_n` is too small to host even `d = 1`.
    pub fn for_target_size(f: usize, target_n: usize) -> Self {
        let mut d = 1usize;
        loop {
            let probe = crate::gf::GfGraph::new(f, d + 1);
            if probe.graph.vertex_count() + 2 > target_n / 2 {
                break;
            }
            d += 1;
        }
        let gadget_n = crate::gf::GfGraph::new(f, d).graph.vertex_count();
        assert!(
            target_n > gadget_n + 1,
            "target size {target_n} too small for G*_{f} with d={d}"
        );
        let x_count = target_n - gadget_n - 1;
        Self::single_source(f, d, x_count)
    }

    /// Number of vertices of the built graph.
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of forced bipartite edges `|E(B)|`.
    pub fn forced_edge_count(&self) -> usize {
        self.bipartite_edges.len()
    }

    /// All leaves of all gadget copies as `(copy index, leaf index, vertex)`.
    pub fn leaves(&self) -> impl Iterator<Item = (usize, usize, VertexId)> + '_ {
        self.gadgets.iter().enumerate().flat_map(|(c, gadget)| {
            gadget
                .leaves
                .iter()
                .enumerate()
                .map(move |(i, leaf)| (c, i, leaf.vertex))
        })
    }

    /// The fault set witnessing that the bipartite edges into the given leaf
    /// are necessary: the leaf's label, plus the `(spine_end, v*)` edge when
    /// the label leaves the spine (and hence the shortcut through `v*`)
    /// intact.  The returned set always has at most `f` edges.
    pub fn necessity_witness(&self, copy: usize, leaf_index: usize) -> FaultSpec {
        let gadget = &self.gadgets[copy];
        let leaf = &gadget.leaves[leaf_index];
        let spine: std::collections::HashSet<VertexId> = gadget.spine.iter().copied().collect();
        let mut edges: Vec<EdgeId> = leaf
            .label
            .iter()
            .map(|&(a, b)| {
                self.graph
                    .edge_between(a, b)
                    .expect("label edge exists in the built graph")
            })
            .collect();
        let label_cuts_spine = leaf
            .label
            .iter()
            .any(|&(a, b)| spine.contains(&a) && spine.contains(&b));
        if !label_cuts_spine {
            edges.push(
                self.graph
                    .edge_between(gadget.spine_end, self.v_star)
                    .expect("spine_end-v* edge exists"),
            );
        }
        debug_assert!(edges.len() <= self.f);
        FaultSpec::from_edges(edges)
    }

    /// The lower-bound formula `σ^{1/(f+1)} · n^{2 - 1/(f+1)}` of
    /// Theorem 1.2, evaluated for this instance.
    pub fn theoretical_bound(&self) -> f64 {
        lower_bound_formula(self.f, self.sources.len(), self.vertex_count())
    }
}

/// The asymptotic lower-bound formula `σ^{1/(f+1)} · n^{2 - 1/(f+1)}`.
pub fn lower_bound_formula(f: usize, sigma: usize, n: usize) -> f64 {
    let exp = 1.0 / (f as f64 + 1.0);
    (sigma as f64).powf(exp) * (n as f64).powf(2.0 - exp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::properties::is_connected;

    #[test]
    fn single_source_counts() {
        let gs = GStarGraph::single_source(2, 3, 5);
        assert!(is_connected(&gs.graph));
        assert_eq!(gs.sources.len(), 1);
        // 9 leaves, 5 X vertices -> 45 bipartite edges.
        assert_eq!(gs.forced_edge_count(), 45);
        assert_eq!(gs.leaves().count(), 9);
        assert_eq!(gs.x_vertices.len(), 5);
        assert!(gs.graph.has_edge(gs.gadgets[0].spine_end, gs.v_star));
    }

    #[test]
    fn multi_source_counts() {
        let gs = GStarGraph::multi_source(1, 3, 2, 4);
        assert_eq!(gs.sources.len(), 2);
        assert_eq!(gs.leaves().count(), 6);
        assert_eq!(gs.forced_edge_count(), 24);
        assert!(is_connected(&gs.graph));
        // Sources are distinct roots of distinct copies.
        assert_ne!(gs.sources[0], gs.sources[1]);
    }

    #[test]
    fn for_target_size_hits_the_budget() {
        let gs = GStarGraph::for_target_size(2, 300);
        assert_eq!(gs.vertex_count(), 300);
        assert!(gs.d >= 2);
        assert!(!gs.x_vertices.is_empty());
    }

    #[test]
    fn witnesses_have_at_most_f_edges() {
        for f in [1usize, 2] {
            let gs = GStarGraph::single_source(f, 3, 3);
            for (c, i, _) in gs.leaves().collect::<Vec<_>>() {
                let fsw = gs.necessity_witness(c, i);
                assert!(fsw.len() <= f, "witness too large for leaf {i} (f={f})");
                assert!(!fsw.is_empty());
            }
        }
    }

    #[test]
    fn rightmost_leaf_witness_is_the_vstar_edge() {
        let gs = GStarGraph::single_source(2, 3, 3);
        let last = gs.gadgets[0].leaves.len() - 1;
        let fsw = gs.necessity_witness(0, last);
        assert_eq!(fsw.len(), 1);
        let e = fsw.edges()[0];
        let ep = gs.graph.endpoints(e);
        assert!(ep.contains(gs.v_star));
        assert!(ep.contains(gs.gadgets[0].spine_end));
    }

    #[test]
    fn formula_specialises_to_the_paper_values() {
        // f = 2, sigma = 1: Omega(n^{5/3}).
        let b = lower_bound_formula(2, 1, 1000);
        assert!((b - 1000f64.powf(5.0 / 3.0)).abs() < 1e-6);
        // f = 1, sigma = 1: Omega(n^{3/2}).
        let b1 = lower_bound_formula(1, 1, 1000);
        assert!((b1 - 1000f64.powf(1.5)).abs() < 1e-6);
        let gs = GStarGraph::single_source(2, 2, 2);
        assert!(gs.theoretical_bound() > 0.0);
    }
}
