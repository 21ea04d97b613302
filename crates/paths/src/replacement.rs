//! Single-failure replacement paths `P_{s,v,e}`.
//!
//! For a source `s`, a target `v` and a failing edge `e ∈ π(s, v)`, the
//! replacement path is a shortest `s–v` path in `G ∖ {e}`.  Step (1) of
//! `Cons2FTBFS` selects the *earliest-divergence* one: among all shortest
//! paths it prefers the one whose divergence point from `π(s, v)` is closest
//! to `s`, and which therefore admits the three-segment decomposition of
//! Claim 3.4.  The single-failure construction instead reads the canonical
//! paths `SP(s, v, G ∖ {e}, W)` of all targets at once from one Dijkstra per
//! tree edge.

use crate::detour::{decompose, Decomposition};
use crate::select::earliest_pi_divergence;
use ftbfs_graph::{
    EdgeId, FaultSpec, Graph, Path, Search, SearchEngine, SpTree, TieBreak, VertexId,
};

/// Computes, for each failed tree edge, the full shortest-path information in
/// `G ∖ {e}` and hands it to `visit(e, search)`.
///
/// This is the batch form used by the single-failure FT-BFS construction: one
/// Dijkstra per tree edge covers all targets at once.  Only edges of the
/// shortest-path tree are relevant — failures of non-tree edges leave every
/// `π(s, v)` intact.  All searches share one [`SearchEngine`], so the loop
/// allocates nothing after the first edge.
pub fn for_each_tree_edge_failure<F>(graph: &Graph, w: &TieBreak, tree: &SpTree, mut visit: F)
where
    F: FnMut(EdgeId, &Search<'_>),
{
    let mut engine = SearchEngine::new();
    for &e in tree.tree_edges() {
        let (view, ws) = engine.begin(graph);
        view.remove_edge(e);
        visit(e, &ws.dijkstra(view, w, tree.source(), None));
    }
}

/// Per-vertex single-failure replacement-path computer following the
/// selection rule of step (1) of `Cons2FTBFS`.
///
/// The computer is tied to a source shortest-path tree; replacement paths are
/// produced lazily per `(v, e)` query.
pub struct SingleFailureReplacer<'a> {
    graph: &'a Graph,
    w: &'a TieBreak,
    tree: &'a SpTree,
}

impl<'a> SingleFailureReplacer<'a> {
    /// Creates a replacer over `graph` with weights `w` and the source tree
    /// `tree`.
    pub fn new(graph: &'a Graph, w: &'a TieBreak, tree: &'a SpTree) -> Self {
        SingleFailureReplacer { graph, w, tree }
    }

    /// The replacement path `P_{s,v,{e}}` chosen with the earliest-divergence
    /// preference, together with its Claim-3.4 decomposition.  Searches run
    /// through the caller's `engine`.
    ///
    /// `e` must lie on `π(s, v)`.  Returns `None` if `v` is unreachable in
    /// `G ∖ {e}`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unreachable in `G` or `e` does not lie on `π(s, v)`.
    pub fn earliest_divergence_replacement<'g>(
        &self,
        engine: &mut SearchEngine<'g>,
        v: VertexId,
        e: EdgeId,
    ) -> Option<Decomposition>
    where
        'a: 'g,
    {
        let pi = self.tree.pi(v).expect("target must be reachable in G");
        let ep = self.graph.endpoints(e);
        assert!(
            pi.contains_edge(ep.u, ep.v),
            "failing edge {e:?} does not lie on pi(s, {v:?})"
        );
        // The upper endpoint u_i of e on pi (closer to s).
        let (pos_u, pos_v) = (
            pi.position(ep.u).expect("endpoint on pi"),
            pi.position(ep.v).expect("endpoint on pi"),
        );
        let upper = if pos_u < pos_v { ep.u } else { ep.v };
        let faults = FaultSpec::from(e);
        let choice = earliest_pi_divergence(
            engine, self.graph, self.w, &pi, v, upper, upper, &faults, None,
        )?;
        // The selected path has a unique divergence point and therefore
        // decomposes into prefix ∘ detour ∘ suffix (Claim 3.4).  If the path
        // came from the canonical fallback it may not decompose; in that case
        // we still return a decomposition-like object by treating the entire
        // off-π excursion conservatively.
        decompose(&pi, &choice.path).or_else(|| {
            // Fallback: canonical replacement that re-enters π several times.
            // Decompose it as prefix up to the first divergence point, a
            // "detour" consisting of everything until the last return to π,
            // and the remaining π suffix.
            fallback_decomposition(&pi, &choice.path)
        })
    }
}

/// Conservative decomposition used when a replacement path does not have the
/// clean three-segment form: the detour is taken to span from the first
/// divergence point to the last vertex at which the path re-joins `π`.
fn fallback_decomposition(pi: &Path, p: &Path) -> Option<Decomposition> {
    let pi_set: std::collections::HashSet<VertexId> = pi.vertices().iter().copied().collect();
    let verts = p.vertices();
    // First divergence: last common prefix vertex.
    let mut i = 0;
    while i < verts.len() && i < pi.vertices().len() && verts[i] == pi.vertices()[i] {
        i += 1;
    }
    if i == 0 || i == verts.len() {
        return None;
    }
    let x = verts[i - 1];
    // Last vertex of p that lies on pi.
    let j = (0..verts.len())
        .rev()
        .find(|&k| pi_set.contains(&verts[k]))?;
    let y = verts[j];
    let prefix = Path::new(pi.vertices()[..i].to_vec());
    let detour_path = if j >= i {
        Path::new(verts[i - 1..=j].to_vec())
    } else {
        Path::singleton(x)
    };
    let suffix_start = pi.position(y)?;
    let suffix = Path::new(pi.vertices()[suffix_start..].to_vec());
    if *suffix.vertices().last()? != p.target() {
        return None;
    }
    Some(Decomposition {
        prefix,
        detour: crate::detour::Detour {
            path: detour_path,
            x,
            y,
        },
        suffix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::{bfs, generators, GraphView};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn batch_tree_edge_failures_cover_all_tree_edges() {
        let g = generators::grid(3, 3);
        let w = TieBreak::new(&g, 5);
        let tree = SpTree::new(&g, &w, v(0));
        let mut seen = Vec::new();
        for_each_tree_edge_failure(&g, &w, &tree, |e, sp| {
            seen.push(e);
            // The failed edge is never used by any reported parent.
            for x in g.vertices() {
                if let Some((_, pe)) = sp.parent(x) {
                    assert_ne!(pe, e);
                }
            }
        });
        assert_eq!(seen.len(), tree.tree_edges().len());
    }

    #[test]
    fn earliest_divergence_replacement_decomposes() {
        // Path 0-1-2-3-4 with detours: 0-5-6-7-4 and 2-8-4.
        let mut b = ftbfs_graph::GraphBuilder::new(9);
        b.add_path(&[v(0), v(1), v(2), v(3), v(4)]);
        b.add_path(&[v(0), v(5), v(6), v(7), v(4)]);
        b.add_path(&[v(2), v(8), v(4)]);
        let g = b.build();
        let w = TieBreak::new(&g, 7);
        let tree = SpTree::new(&g, &w, v(0));
        let rep = SingleFailureReplacer::new(&g, &w, &tree);
        let mut engine = SearchEngine::new();
        // Fail the last edge of whichever length-4 route W selected as pi;
        // the parallel route provides a replacement diverging at the source.
        let pi = tree.pi(v(4)).unwrap();
        assert_eq!(pi.len(), 4);
        let (a, bb) = pi.last_edge().unwrap();
        let failed = g.edge_between(a, bb).unwrap();
        let dec = rep
            .earliest_divergence_replacement(&mut engine, v(4), failed)
            .unwrap();
        // The earliest divergence point is the source itself.
        assert_eq!(dec.detour.x, v(0));
        assert_eq!(dec.detour.y, v(4));
        assert_eq!(dec.reassemble().len(), 4);
    }

    #[test]
    fn replacement_distance_none_when_disconnected() {
        let g = generators::path(4);
        let w = TieBreak::new(&g, 2);
        let tree = SpTree::new(&g, &w, v(0));
        let rep = SingleFailureReplacer::new(&g, &w, &tree);
        let mut engine = SearchEngine::new();
        let e12 = g.edge_between(v(1), v(2)).unwrap();
        let cut = GraphView::new(&g).without_edge(e12);
        assert_eq!(bfs(&cut, v(0)).distance(v(3)), None);
        assert!(rep
            .earliest_divergence_replacement(&mut engine, v(3), e12)
            .is_none());
    }

    #[test]
    #[should_panic]
    fn earliest_divergence_requires_edge_on_pi() {
        let g = generators::grid(3, 3);
        let w = TieBreak::new(&g, 5);
        let tree = SpTree::new(&g, &w, v(0));
        let rep = SingleFailureReplacer::new(&g, &w, &tree);
        let mut engine = SearchEngine::new();
        // Edge (7,8) is not on pi(0, 1).
        let e = g.edge_between(v(7), v(8)).unwrap();
        let _ = rep.earliest_divergence_replacement(&mut engine, v(1), e);
    }
}
