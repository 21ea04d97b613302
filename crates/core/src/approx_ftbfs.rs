//! Approximate dual-failure FT-BFS structures — the FT-ABFS construction
//! of Parter–Peleg (*Fault Tolerant Approximate BFS Structures*, arXiv
//! 1406.6169) with the reinforcement–backup tradeoff knob of Parter–Peleg
//! (*Fault Tolerant BFS Structures: A Reinforcement-Backup Tradeoff*, arXiv
//! 1504.04169).
//!
//! The exact dual-failure structure of the main paper costs `Θ(n^{5/3})`-ish
//! edges and quadratically many replacement-path searches to build.  This
//! module trades exactness for size: the output `H ⊆ G` has `O(n·θ)` edges,
//! is built with `O(f)` BFS sweeps plus one pass over the non-tree edges,
//! and guarantees for every fault set `F` with `|F| ≤ 2`
//!
//! ```text
//! dist(s, v, G ∖ F)  ≤  dist(s, v, H ∖ F)  ≤  α · dist(s, v, G ∖ F) + β
//! ```
//!
//! together with *reachability equivalence*: `v` is reachable from `s` in
//! `H ∖ F` exactly when it is reachable in `G ∖ F`.  Fault-free queries are
//! exact (the BFS tree of `G` is contained in `H`).
//!
//! # Construction
//!
//! The structure is assembled from three layers:
//!
//! 1. **Core tree** — the BFS tree `T₀(s)` of `G`, making fault-free
//!    distances exact.
//! 2. **Connectivity certificate** — two further spanning forests, each a
//!    maximal BFS forest of `G` minus the previously selected forests.
//!    Successive maximal spanning forests are a sparse certificate in the
//!    sense of Nagamochi–Ibaraki: with `f + 1 = 3` edge-disjoint forests,
//!    any ≤ 2 edge faults leave `s`–`v` connected in the union exactly when
//!    they do in `G`.  This is what rules out *unbounded* stretch.
//! 3. **Backup edges with θ-reinforcement** — for every tree edge `e` of
//!    `T₀`, up to `r(e) = 1 + max(0, θ − depth(e))` non-tree *swap* edges
//!    crossing the cut that removing `e` opens, chosen globally in
//!    increasing order of the detour length they certify
//!    (`depth(a) + 1 + depth(b)` for a swap `{a, b}`).  Reinforcement
//!    concentrates near the root — exactly the regime of 1504.04169 where a
//!    single fault severs the largest subtrees — so raising `θ` buys
//!    tighter observed stretch for `O(θ·depth)` extra edges.
//!
//! The declared `(α, β)` stretch of the output is carried by
//! [`ApproxParams`] and travels with the structure into the serving stack
//! (`ftbfs-oracle`'s `FrozenStructure::freeze_approx`, which records it
//! as the snapshot's `Contract::Approx`, and the `Guarantee::Approx { .. }`
//! answer contract).

use crate::structure::FtBfsStructure;
use ftbfs_graph::{EdgeId, Graph, SpTree, TieBreak, VertexId};
use std::collections::VecDeque;

/// The number of edge faults the approximate construction tolerates — the
/// dual-failure setting of the source paper.
pub const APPROX_RESILIENCE: usize = 2;

/// Construction parameters and the declared stretch contract of an
/// approximate FT-BFS structure.
///
/// The multiplicative stretch is the rational `mult_num / mult_den`; the
/// additive stretch is `add`.  `theta` is the reinforcement depth: tree
/// edges at depth `d < θ` receive `1 + (θ − d)` backup edges instead of one,
/// trading extra structure edges for tighter detours near the root.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ApproxParams {
    /// Numerator of the multiplicative stretch `α`.
    pub mult_num: u32,
    /// Denominator of the multiplicative stretch `α` (must be non-zero).
    pub mult_den: u32,
    /// Additive stretch `β`.
    pub add: u32,
    /// Reinforcement depth `θ` (0 disables reinforcement: one backup edge
    /// per tree edge).
    pub theta: u32,
}

impl ApproxParams {
    /// The default contract: `α = 3`, `β = 4`, `θ = 4`.
    pub const DEFAULT: ApproxParams = ApproxParams {
        mult_num: 3,
        mult_den: 1,
        add: 4,
        theta: 4,
    };

    /// Returns these parameters with a different reinforcement depth.
    pub fn with_theta(mut self, theta: u32) -> Self {
        self.theta = theta;
        self
    }

    /// The stretched distance bound `⌈α · d⌉ + β` for a true distance `d`.
    ///
    /// An answer `d_H` honours the contract iff `d ≤ d_H ≤ stretch_bound(d)`.
    pub fn stretch_bound(&self, true_distance: u32) -> u64 {
        let d = true_distance as u64;
        let num = self.mult_num as u64;
        let den = self.mult_den.max(1) as u64;
        (d * num).div_ceil(den) + self.add as u64
    }
}

impl Default for ApproxParams {
    fn default() -> Self {
        ApproxParams::DEFAULT
    }
}

/// Per-layer edge accounting of an approximate construction, for the size
/// experiments (E14) and the README tradeoff table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApproxBuildStats {
    /// Edges of the BFS core tree `T₀(s)`.
    pub tree_edges: usize,
    /// Edges added by the two certificate forests (disjoint from the tree).
    pub forest_edges: usize,
    /// Backup (swap) edges added by the θ-reinforcement pass.
    pub backup_edges: usize,
}

impl ApproxBuildStats {
    /// Total number of structure edges.
    pub fn total(&self) -> usize {
        self.tree_edges + self.forest_edges + self.backup_edges
    }
}

/// An approximate dual-failure FT-BFS structure with its declared stretch
/// contract and per-layer size accounting.
#[derive(Clone, Debug)]
pub struct ApproxFtBfs {
    /// The selected subgraph `H ⊆ G` (resilience 2).
    pub structure: FtBfsStructure,
    /// The parameters the structure was built with — its `(α, β, θ)`.
    pub params: ApproxParams,
    /// Per-layer edge counts.
    pub stats: ApproxBuildStats,
}

/// Builds an approximate dual-failure FT-BFS structure rooted at `source`.
///
/// The output tolerates up to [`APPROX_RESILIENCE`] edge faults with the
/// `(α, β)` stretch declared in `params` (fault-free queries are exact), at
/// `O(n·θ)` edges instead of the exact structure's `Θ(n^{5/3})`.
///
/// # Panics
///
/// Panics if `source` is not a vertex of `graph` or `params.mult_den == 0`.
pub fn approx_ftbfs(
    graph: &Graph,
    w: &TieBreak,
    source: VertexId,
    params: ApproxParams,
) -> ApproxFtBfs {
    assert!(
        graph.contains_vertex(source),
        "source {source:?} out of range for graph with n={}",
        graph.vertex_count()
    );
    assert!(params.mult_den > 0, "mult_den must be non-zero");

    let n = graph.vertex_count();
    let m = graph.edge_count();
    let tree = SpTree::new(graph, w, source);

    let mut h = FtBfsStructure::new(vec![source], APPROX_RESILIENCE);
    let mut used = vec![false; m];
    for &e in tree.tree_edges() {
        used[e.index()] = true;
        h.insert(e);
    }
    let mut stats = ApproxBuildStats {
        tree_edges: tree.tree_edges().len(),
        ..ApproxBuildStats::default()
    };

    // Layer 2: successive maximal BFS spanning forests of the residual
    // graph.  Together with the tree this is a 3-forest sparse certificate,
    // so any two faults leave s–v connected in H iff they do in G.
    for _ in 0..APPROX_RESILIENCE {
        let forest = residual_forest(graph, source, &used);
        for e in &forest {
            used[e.index()] = true;
            h.insert(*e);
        }
        stats.forest_edges += forest.len();
    }

    // Layer 3: θ-reinforced backup edges.  Each non-tree edge {a, b}
    // certifies, for every tree edge e on the tree path a → b, a detour of
    // length depth(a) + 1 + depth(b) around e's cut.  Scanning candidates
    // in increasing certified-detour order and granting each tree edge a
    // budget of 1 + max(0, θ − depth(e)) backups picks the globally
    // cheapest detours, densest near the root.
    let depth: Vec<Option<u32>> = (0..n).map(|i| tree.depth(VertexId::new(i))).collect();
    let mut capacity = vec![0u32; m];
    for &e in tree.tree_edges() {
        let ep = graph.endpoints(e);
        let d = depth[ep.u.index()].max(depth[ep.v.index()]).unwrap_or(0);
        capacity[e.index()] = 1 + params.theta.saturating_sub(d);
    }

    let mut candidates: Vec<(u64, EdgeId)> = graph
        .edges()
        .filter(|e| !tree.contains_edge(*e))
        .filter_map(|e| {
            let ep = graph.endpoints(e);
            let da = depth[ep.u.index()]?;
            let db = depth[ep.v.index()]?;
            Some((da as u64 + db as u64 + 1, e))
        })
        .collect();
    candidates.sort_unstable();

    for (_, cand) in candidates {
        let ep = graph.endpoints(cand);
        let mut added = false;
        // Walk the tree path between the endpoints; every tree edge on it
        // has the candidate crossing its cut.
        let (mut a, mut b) = (ep.u, ep.v);
        loop {
            let (da, db) = (depth[a.index()].unwrap(), depth[b.index()].unwrap());
            if a == b {
                break;
            }
            let lift = if da >= db { &mut a } else { &mut b };
            let (parent, pe) = tree
                .parent(*lift)
                .expect("non-root tree vertex has a parent");
            if capacity[pe.index()] > 0 {
                capacity[pe.index()] -= 1;
                added = true;
            }
            *lift = parent;
        }
        if added && h.insert(cand) && !used[cand.index()] {
            stats.backup_edges += 1;
            used[cand.index()] = true;
        }
    }

    ApproxFtBfs {
        structure: h,
        params,
        stats,
    }
}

/// A maximal spanning forest of `graph` minus the `used` edges, grown
/// breadth-first from `source` and then from every still-unvisited vertex in
/// id order (so the forest spans *every* residual component, which the
/// certificate property requires, while the source's component stays
/// BFS-shallow).
fn residual_forest(graph: &Graph, source: VertexId, used: &[bool]) -> Vec<EdgeId> {
    let n = graph.vertex_count();
    let mut visited = vec![false; n];
    let mut forest = Vec::new();
    let mut queue = VecDeque::new();
    let roots = std::iter::once(source).chain(graph.vertices());
    for root in roots {
        if visited[root.index()] {
            continue;
        }
        visited[root.index()] = true;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &(v, e) in graph.neighbors(u) {
                if !used[e.index()] && !visited[v.index()] {
                    visited[v.index()] = true;
                    forest.push(e);
                    queue.push_back(v);
                }
            }
        }
    }
    forest
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::fault::enumerate_fault_sets;
    use ftbfs_graph::{bfs, generators, GraphView};

    /// Exhaustively checks, over every fault set with |F| ≤ 2, that H is
    /// reachability-equivalent to G and honours the declared stretch bound.
    fn verify_approx(graph: &Graph, built: &ApproxFtBfs, source: VertexId) {
        let h = &built.structure;
        let p = built.params;
        for f in &enumerate_fault_sets(graph, 2) {
            let gview = GraphView::new(graph).without_faults(f);
            let hview = h.as_view(graph).without_faults(f);
            let gd = bfs(&gview, source);
            let hd = bfs(&hview, source);
            for v in graph.vertices() {
                match (gd.distance(v), hd.distance(v)) {
                    (None, None) => {}
                    (None, Some(_)) => unreachable!("H is a subgraph of G"),
                    (Some(t), None) => {
                        panic!("v={v:?} reachable in G∖{f:?} but not in H∖F (t={t})")
                    }
                    (Some(t), Some(d)) => {
                        assert!(d >= t, "H answered below the true distance");
                        if f.is_empty() {
                            assert_eq!(d, t, "fault-free distances must be exact");
                        }
                        assert!(
                            (d as u64) <= p.stretch_bound(t),
                            "stretch violation at v={v:?} F={f:?}: d_H={d} vs bound {} (t={t})",
                            p.stretch_bound(t)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stretch_bound_arithmetic() {
        let p = ApproxParams::DEFAULT;
        assert_eq!(p.stretch_bound(0), 4);
        assert_eq!(p.stretch_bound(2), 10);
        let half = ApproxParams {
            mult_num: 3,
            mult_den: 2,
            add: 1,
            theta: 0,
        };
        assert_eq!(half.stretch_bound(3), 6); // ceil(9/2) + 1
    }

    #[test]
    fn cycle_structure_verifies() {
        let g = generators::cycle(9);
        let w = TieBreak::new(&g, 1);
        let built = approx_ftbfs(&g, &w, VertexId(0), ApproxParams::DEFAULT);
        verify_approx(&g, &built, VertexId(0));
    }

    #[test]
    fn grid_structure_verifies_and_is_sparse() {
        let g = generators::grid(5, 5);
        let w = TieBreak::new(&g, 7);
        let built = approx_ftbfs(&g, &w, VertexId(0), ApproxParams::DEFAULT);
        assert!(built.structure.edge_count() <= g.edge_count());
        assert_eq!(built.stats.total(), built.structure.edge_count());
        verify_approx(&g, &built, VertexId(0));
    }

    #[test]
    fn random_graph_structures_verify() {
        for seed in 0..4 {
            let g = generators::connected_gnp(26, 0.14, seed);
            let w = TieBreak::new(&g, seed);
            let built = approx_ftbfs(&g, &w, VertexId(0), ApproxParams::DEFAULT);
            verify_approx(&g, &built, VertexId(0));
        }
    }

    #[test]
    fn more_graph_families_verify() {
        for seed in 0..3 {
            for g in [
                generators::tree_plus_chords(30, 8, seed),
                generators::hub_and_spokes(3, 8, 2, seed),
                generators::cluster_graph(3, 8, 0.4, 1, seed),
            ] {
                let w = TieBreak::new(&g, seed);
                let built = approx_ftbfs(&g, &w, VertexId(0), ApproxParams::DEFAULT);
                verify_approx(&g, &built, VertexId(0));
            }
        }
        let g = generators::complete_bipartite(3, 6);
        let w = TieBreak::new(&g, 1);
        let built = approx_ftbfs(&g, &w, VertexId(0), ApproxParams::DEFAULT);
        verify_approx(&g, &built, VertexId(0));
    }

    #[test]
    fn theta_zero_still_verifies() {
        let g = generators::connected_gnp(24, 0.16, 11);
        let w = TieBreak::new(&g, 11);
        let built = approx_ftbfs(&g, &w, VertexId(0), ApproxParams::DEFAULT.with_theta(0));
        verify_approx(&g, &built, VertexId(0));
    }

    #[test]
    fn theta_trades_edges_for_reinforcement() {
        let g = generators::connected_gnp(40, 0.12, 3);
        let w = TieBreak::new(&g, 3);
        let sizes: Vec<usize> = [0u32, 2, 6]
            .iter()
            .map(|&t| {
                approx_ftbfs(&g, &w, VertexId(0), ApproxParams::DEFAULT.with_theta(t))
                    .structure
                    .edge_count()
            })
            .collect();
        assert!(sizes[0] <= sizes[1] && sizes[1] <= sizes[2]);
    }

    #[test]
    fn construction_is_deterministic() {
        let g = generators::connected_gnp(30, 0.12, 9);
        let w = TieBreak::new(&g, 9);
        let a = approx_ftbfs(&g, &w, VertexId(0), ApproxParams::DEFAULT);
        let b = approx_ftbfs(&g, &w, VertexId(0), ApproxParams::DEFAULT);
        assert_eq!(a.structure, b.structure);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn tree_graph_needs_only_the_tree() {
        let g = generators::balanced_binary_tree(4);
        let w = TieBreak::new(&g, 3);
        let built = approx_ftbfs(&g, &w, VertexId(0), ApproxParams::DEFAULT);
        assert_eq!(built.structure.edge_count(), g.vertex_count() - 1);
        assert_eq!(built.stats.forest_edges, 0);
        assert_eq!(built.stats.backup_edges, 0);
        verify_approx(&g, &built, VertexId(0));
    }

    #[test]
    fn disconnected_graph_is_handled() {
        use ftbfs_graph::GraphBuilder;
        let mut b = GraphBuilder::new(7);
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(1), VertexId(2));
        b.add_edge(VertexId(2), VertexId(0));
        b.add_edge(VertexId(4), VertexId(5));
        let g = b.build();
        let w = TieBreak::new(&g, 2);
        let built = approx_ftbfs(&g, &w, VertexId(0), ApproxParams::DEFAULT);
        verify_approx(&g, &built, VertexId(0));
    }

    #[test]
    fn size_is_linear_in_n_times_theta() {
        let g = generators::connected_gnp(80, 0.2, 5);
        let w = TieBreak::new(&g, 5);
        let p = ApproxParams::DEFAULT;
        let built = approx_ftbfs(&g, &w, VertexId(0), p);
        let n = g.vertex_count();
        // 3 forests + at most (1 + θ) backups per tree edge.
        let bound = 3 * (n - 1) + (1 + p.theta as usize) * (n - 1);
        assert!(
            built.structure.edge_count() <= bound,
            "{} > {bound}",
            built.structure.edge_count()
        );
    }
}
