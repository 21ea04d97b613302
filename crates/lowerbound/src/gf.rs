//! The recursive lower-bound gadgets `G_1(d)` and `G_f(d)` of Section 4.
//!
//! `G_1(d)` consists of a spine path `u_1 … u_d`, `d` terminal leaves
//! `z_1 … z_d`, and vertex-disjoint connector paths `Q_i` from `u_i` to `z_i`
//! whose lengths strictly decrease from left to right.  `G_f(d)` stacks `d`
//! copies of `G_{f-1}(d)` below a fresh spine, again with strictly
//! length-decreasing connectors.  Every leaf carries a *label*: a fault set
//! of at most `f` edges whose failure kills every root-to-leaf path to the
//! right of it while leaving its own path intact (Lemma 4.3).
//!
//! Deviations from the paper's constants (documented in `DESIGN.md`): the
//! root of `G_1(d)` is `u_1` (matching `G_f(d)`), and the connector length of
//! `G_f(d)` is `(d-i)·(depth(G_{f-1}(d)) + 2) + 1` instead of
//! `(d-i)·depth(G_{f-1}(d))`, which keeps every connector non-empty and makes
//! the length monotonicity of Lemma 4.3(4) strict.  Neither change affects
//! the `Θ(d^{f+1})` size of the gadget.

use ftbfs_graph::{EdgeId, Graph, GraphBuilder, VertexId};

/// A leaf of the gadget together with its label and canonical path length.
#[derive(Clone, Debug)]
pub struct Leaf {
    /// The terminal vertex `z_i`.
    pub vertex: VertexId,
    /// The label `Label_f(z_i)`: at most `f` edges (as endpoint pairs) whose
    /// failure disconnects every leaf to the right while sparing this one.
    pub label: Vec<(VertexId, VertexId)>,
    /// The length of the unique root-to-leaf path `P(z_i)`.
    pub path_len: u64,
}

/// The gadget `G_f(d)` built inside a shared [`GraphBuilder`].
#[derive(Clone, Debug)]
pub struct GfComponent {
    /// The root `r(G_f(d)) = u^f_1`.
    pub root: VertexId,
    /// The last spine vertex `u^f_d` (where `v*` attaches in `G*_f`).
    pub spine_end: VertexId,
    /// The spine vertices `u^f_1 … u^f_d`.
    pub spine: Vec<VertexId>,
    /// The leaves, ordered left to right.
    pub leaves: Vec<Leaf>,
    /// The maximal root-to-leaf path length (the gadget's depth).
    pub depth: u64,
}

/// Builds `G_1(d)` into `builder`.
///
/// # Panics
///
/// Panics if `d == 0`.
pub fn build_g1(builder: &mut GraphBuilder, d: usize) -> GfComponent {
    assert!(d > 0, "G_1(d) requires d >= 1");
    let spine = builder.add_vertices(d);
    builder.add_path(&spine);
    let mut leaves = Vec::with_capacity(d);
    for i in 0..d {
        // Connector Q_i of length 6 + 2(d - 1 - i) from u_{i+1} to z_{i+1}
        // (using 0-based i).
        let len = 6 + 2 * (d - 1 - i);
        let z = add_connector(builder, spine[i], len);
        let label = if i + 1 < d {
            vec![(spine[i], spine[i + 1])]
        } else {
            vec![]
        };
        leaves.push(Leaf {
            vertex: z,
            label,
            path_len: i as u64 + len as u64,
        });
    }
    let depth = leaves.iter().map(|l| l.path_len).max().unwrap_or(0);
    GfComponent {
        root: spine[0],
        spine_end: spine[d - 1],
        spine,
        leaves,
        depth,
    }
}

/// Builds `G_f(d)` into `builder` (recursively), for any `f ≥ 1`.
///
/// # Panics
///
/// Panics if `f == 0` or `d == 0`.
pub fn build_gf(builder: &mut GraphBuilder, f: usize, d: usize) -> GfComponent {
    assert!(f >= 1, "G_f(d) requires f >= 1");
    if f == 1 {
        return build_g1(builder, d);
    }
    let spine = builder.add_vertices(d);
    builder.add_path(&spine);
    // Build the d sub-copies first to know their depth (identical for all).
    let mut leaves = Vec::new();
    let mut sub_depth = 0u64;
    let mut copies = Vec::with_capacity(d);
    for _ in 0..d {
        let copy = build_gf(builder, f - 1, d);
        sub_depth = copy.depth;
        copies.push(copy);
    }
    for (i, copy) in copies.iter().enumerate() {
        // Connector of length (d - 1 - i) * (sub_depth + 2) + 1 from u^f_{i+1}
        // to the copy's root.
        let len = (d - 1 - i) as u64 * (sub_depth + 2) + 1;
        connect_with_path(builder, spine[i], copy.root, len as usize);
        for leaf in &copy.leaves {
            let mut label = Vec::new();
            if i + 1 < d {
                label.push((spine[i], spine[i + 1]));
            }
            label.extend(leaf.label.iter().copied());
            leaves.push(Leaf {
                vertex: leaf.vertex,
                label,
                path_len: i as u64 + len + leaf.path_len,
            });
        }
    }
    let depth = leaves.iter().map(|l| l.path_len).max().unwrap_or(0);
    GfComponent {
        root: spine[0],
        spine_end: spine[d - 1],
        spine,
        leaves,
        depth,
    }
}

/// A standalone `G_f(d)` graph, for testing the structural properties of
/// Lemma 4.3 in isolation.
#[derive(Clone, Debug)]
pub struct GfGraph {
    /// The built graph.
    pub graph: Graph,
    /// The gadget's bookkeeping (root, spine, leaves, labels, depth).
    pub component: GfComponent,
}

impl GfGraph {
    /// Builds a standalone `G_f(d)`.
    pub fn new(f: usize, d: usize) -> Self {
        let mut builder = GraphBuilder::new(0);
        let component = build_gf(&mut builder, f, d);
        GfGraph {
            graph: builder.build(),
            component,
        }
    }

    /// The label of leaf `i` resolved to edge ids of the built graph.
    pub fn label_edges(&self, leaf_index: usize) -> Vec<EdgeId> {
        self.component.leaves[leaf_index]
            .label
            .iter()
            .map(|&(a, b)| {
                self.graph
                    .edge_between(a, b)
                    .expect("label edges exist in the built graph")
            })
            .collect()
    }
}

/// Adds a fresh path of `len` edges from `from`, returning the new terminal
/// vertex.
fn add_connector(builder: &mut GraphBuilder, from: VertexId, len: usize) -> VertexId {
    assert!(len >= 1, "connector must have at least one edge");
    let mut prev = from;
    let mut last = from;
    for _ in 0..len {
        let v = builder.add_vertex();
        builder.add_edge(prev, v);
        prev = v;
        last = v;
    }
    last
}

/// Connects `from` to the existing vertex `to` by a fresh path of `len`
/// edges (`len - 1` new internal vertices).
fn connect_with_path(builder: &mut GraphBuilder, from: VertexId, to: VertexId, len: usize) {
    assert!(len >= 1, "connector must have at least one edge");
    let mut prev = from;
    for _ in 0..len - 1 {
        let v = builder.add_vertex();
        builder.add_edge(prev, v);
        prev = v;
    }
    builder.add_edge(prev, to);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::{bfs, FaultSpec, GraphView};

    fn check_lemma_4_3(gf: &GfGraph, f: usize) {
        let g = &gf.graph;
        let comp = &gf.component;
        let view = GraphView::new(g);
        let base = bfs(&view, comp.root);
        // (4) path lengths are strictly decreasing left to right, and match
        // the BFS distances (the root-to-leaf path is unique and shortest).
        for (i, leaf) in comp.leaves.iter().enumerate() {
            assert_eq!(
                base.distance(leaf.vertex),
                Some(leaf.path_len as u32),
                "leaf {i} distance"
            );
            if i + 1 < comp.leaves.len() {
                assert!(
                    comp.leaves[i].path_len > comp.leaves[i + 1].path_len,
                    "leaf lengths must strictly decrease (leaf {i})"
                );
            }
            assert!(leaf.label.len() <= f, "label of leaf {i} too large");
        }
        // (2) and (3): failing a leaf's label keeps that leaf at its distance
        // and strictly hurts (or disconnects) every leaf to its right.
        for (j, leaf) in comp.leaves.iter().enumerate() {
            let faults = FaultSpec::from_edges(
                leaf.label
                    .iter()
                    .map(|&(a, b)| g.edge_between(a, b).expect("label edge exists")),
            );
            let faulted = bfs(&GraphView::new(g).without_faults(&faults), comp.root);
            assert_eq!(
                faulted.distance(leaf.vertex),
                Some(leaf.path_len as u32),
                "leaf {j} must survive its own label"
            );
            for (k, right) in comp.leaves.iter().enumerate().skip(j + 1) {
                let dist = faulted.distance(right.vertex);
                assert!(
                    dist.is_none() || dist.unwrap() as u64 > right.path_len,
                    "leaf {k} must be hurt by the label of leaf {j}"
                );
            }
        }
    }

    #[test]
    fn g1_counts_and_lemma() {
        for d in [1usize, 2, 3, 5] {
            let gf = GfGraph::new(1, d);
            assert_eq!(gf.component.leaves.len(), d);
            assert_eq!(gf.component.spine.len(), d);
            check_lemma_4_3(&gf, 1);
        }
    }

    #[test]
    fn g2_counts_and_lemma() {
        for d in [2usize, 3] {
            let gf = GfGraph::new(2, d);
            assert_eq!(gf.component.leaves.len(), d * d);
            check_lemma_4_3(&gf, 2);
        }
    }

    #[test]
    fn g3_counts_and_lemma() {
        let gf = GfGraph::new(3, 2);
        assert_eq!(gf.component.leaves.len(), 8);
        check_lemma_4_3(&gf, 3);
    }

    #[test]
    fn size_grows_as_d_to_the_f_plus_one() {
        // N(f, d) = Θ(d^{f+1}): check the ratio stays within a constant band
        // as d grows.
        for f in [1usize, 2] {
            let mut ratios = Vec::new();
            for d in [3usize, 5, 7] {
                let gf = GfGraph::new(f, d);
                let n = gf.graph.vertex_count() as f64;
                ratios.push(n / (d as f64).powi(f as i32 + 1));
            }
            let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
            let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
            assert!(
                max / min < 4.0,
                "N(f,d)/d^(f+1) should stay within a constant band, got {ratios:?}"
            );
        }
    }

    #[test]
    fn leaf_count_is_d_to_the_f() {
        assert_eq!(GfGraph::new(1, 4).component.leaves.len(), 4);
        assert_eq!(GfGraph::new(2, 4).component.leaves.len(), 16);
        assert_eq!(GfGraph::new(3, 3).component.leaves.len(), 27);
    }

    #[test]
    fn label_edges_resolve() {
        let gf = GfGraph::new(2, 3);
        for i in 0..gf.component.leaves.len() {
            let edges = gf.label_edges(i);
            assert_eq!(edges.len(), gf.component.leaves[i].label.len());
        }
        // The globally rightmost leaf has an empty label.
        assert!(gf
            .component
            .leaves
            .last()
            .expect("leaves exist")
            .label
            .is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_d_panics() {
        let _ = GfGraph::new(1, 0);
    }
}
