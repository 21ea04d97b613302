//! Single-failure replacement paths `P_{s,v,e}`.
//!
//! For a source `s`, a target `v` and a failing edge `e ∈ π(s, v)`, the
//! replacement path is a shortest `s–v` path in `G ∖ {e}`.  Step (1) of
//! `Cons2FTBFS` selects the *earliest-divergence* one: among all shortest
//! paths it prefers the one whose divergence point from `π(s, v)` is closest
//! to `s`, and which therefore admits the three-segment decomposition of
//! Claim 3.4.  [`SingleFailureReplacer::earliest_divergence_replacements`]
//! runs step (1) for every edge of `π(s, v)` in order from the source and
//! carries a path that left `π` at `s` down to the next edges, where it is
//! the canonical path of candidate 0's restricted graph again; one length
//! check, at most one probe, replaces the search.  The single-failure
//! construction instead reads the canonical paths `SP(s, v, G ∖ {e}, W)` of
//! all targets at once from one Dijkstra per tree edge.

use crate::detour::{decompose, Decomposition};
use crate::select::{earliest_pi_divergence, fault_distance};
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
        self.select(engine, &pi, upper, &FaultSpec::from(e), None, 0)
            .map(|(dec, _)| dec)
    }

    /// Step (1) for every edge of `π(s, v)`: entry `i` holds what
    /// [`Self::earliest_divergence_replacement`] returns for the `i`-th edge
    /// `e_i = (u_i, u_{i+1})` from the source, and a floor: a lower bound on
    /// the hop distance `d(s, v, G_i)` in candidate 0's Eq. (3) graph
    /// `G_i = G ∖ (V(π[u_1, u_i]) ∪ {e_i})` (`u32::MAX` when `v` is cut off).
    ///
    /// `G_{i+1} = G_i ∖ {u_{i+1}}`, so `G_i` is a subgraph of every graph
    /// searched for an earlier edge, and two facts carry down `π`:
    /// * **Floors.**  `d(s, v, G_i) ≥ d(s, v, G_j)` for `j < i`, and
    ///   `d(s, v, G_j) ≥ |P_j|`, plus one when the path `P_j` chosen for
    ///   `e_j` leaves `π` below `s` (candidate 0 lost there).  A floor above
    ///   `d(s, v, G ∖ e_i)` rules candidate 0 out without extracting it.
    /// * **Paths.**  If a path `P` chosen earlier leaves `π` at `s` and
    ///   re-joins it below `u_i`, it lies in `G_i`, so `canonical_path`
    ///   returns `P` there too, even under full ties: every vertex on `P`
    ///   keeps its weight, the keys of other tails only grow, and the key
    ///   ends in the tail's id.  `P` is therefore the answer for `e_i`
    ///   exactly when candidate 0 wins: when `|P| = |π(s, v)|` or `|P|`
    ///   equals the probed `d(s, v, G ∖ e_i)`.  Otherwise `d(s, v, G_i) =
    ///   |P|` is the floor, and the search runs with the probe as its
    ///   optimum.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unreachable in `G`.
    pub fn earliest_divergence_replacements<'g>(
        &self,
        engine: &mut SearchEngine<'g>,
        v: VertexId,
    ) -> Vec<(Option<Decomposition>, u32)>
    where
        'a: 'g,
    {
        let pi = self.tree.pi(v).expect("target must be reachable in G");
        let source = pi.source();
        let edges = pi.edge_ids(self.graph);
        let hops = |dec: &Decomposition| dec.prefix.len() + dec.detour.len() + dec.suffix.len();
        let mut chosen = Vec::with_capacity(edges.len());
        // The last chosen path that left π at s, with the π position at
        // which it re-joins π; and the floor on d(s, v, G_i).
        let mut carried: Option<(Decomposition, usize)> = None;
        let mut floor = 0u32;
        for (i, &e) in edges.iter().enumerate() {
            let faults = FaultSpec::from(e);
            let mut optimum = None;
            if let Some((dec, _)) = carried.as_ref().filter(|c| c.1 > i) {
                let len = hops(dec);
                floor = len as u32;
                let wins = len == pi.len() || {
                    optimum = fault_distance(engine, self.graph, source, v, &faults);
                    optimum == Some(floor)
                };
                if wins {
                    debug_assert_eq!(
                        self.earliest_divergence_replacement(engine, v, e).as_ref(),
                        Some(dec),
                        "a carried step-1 path disagrees with the search at {v:?}, edge {i}"
                    );
                    chosen.push((Some(dec.clone()), floor));
                    continue;
                }
            }
            let found = self.select(engine, &pi, pi.vertices()[i], &faults, optimum, floor);
            floor = match &found {
                None => u32::MAX,
                Some((dec, _)) => floor.max(hops(dec) as u32 + u32::from(dec.detour.x != source)),
            };
            if let Some((dec, true)) = &found {
                if dec.detour.x == source {
                    carried = Some((dec.clone(), pi.len() - dec.suffix.len()));
                }
            }
            chosen.push((found.map(|(dec, _)| dec), floor));
        }
        chosen
    }

    /// The earliest-divergence replacement path of `π = pi` for the single
    /// fault `faults` on the π edge below `upper`, decomposed, with whether
    /// the decomposition is the clean Claim-3.4 one; `known_optimum` and
    /// `first_floor` as for [`earliest_pi_divergence`].
    fn select<'g>(
        &self,
        engine: &mut SearchEngine<'g>,
        pi: &Path,
        upper: VertexId,
        faults: &FaultSpec,
        known_optimum: Option<u32>,
        first_floor: u32,
    ) -> Option<(Decomposition, bool)>
    where
        'a: 'g,
    {
        let choice = earliest_pi_divergence(
            engine,
            self.graph,
            self.w,
            pi,
            pi.target(),
            upper,
            upper,
            faults,
            known_optimum,
            first_floor,
        )?;
        // The selected path has a unique divergence point and therefore
        // decomposes into prefix ∘ detour ∘ suffix (Claim 3.4).  A path from
        // the canonical fallback may re-enter π several times; it is then
        // decomposed conservatively.
        match decompose(pi, &choice.path) {
            Some(dec) => Some((dec, true)),
            None => fallback_decomposition(pi, &choice.path).map(|dec| (dec, false)),
        }
    }
}

/// Conservative decomposition used when a replacement path does not have the
/// clean three-segment form: the detour is taken to span from the first
/// divergence point to the last vertex at which the path re-joins `π`.
fn fallback_decomposition(pi: &Path, p: &Path) -> Option<Decomposition> {
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
        .find(|&k| pi.contains_vertex(verts[k]))?;
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
    use ftbfs_graph::restrict::remove_pi_segment;
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
    fn step_one_for_every_pi_edge_matches_one_search_per_edge() {
        // Carried paths and floors change how a path is found, never which
        // one: every entry is what the single-edge search returns, and its
        // floor bounds the hop distance in candidate 0's Eq. (3) graph.
        let mut carried = 0;
        for seed in 1..=3u64 {
            for g in [
                generators::connected_gnp(60, 0.08, seed),
                generators::tree_plus_chords(60, 30, seed),
                generators::grid(6, 7),
            ] {
                let w = TieBreak::new(&g, seed);
                let tree = SpTree::new(&g, &w, v(0));
                let rep = SingleFailureReplacer::new(&g, &w, &tree);
                let mut engine = SearchEngine::new();
                for t in g.vertices().filter(|&t| t != v(0)) {
                    let pi = tree.pi(t).unwrap();
                    let edges = pi.edge_ids(&g);
                    let all = rep.earliest_divergence_replacements(&mut engine, t);
                    assert_eq!(all.len(), edges.len());
                    for (i, (&e, (dec, floor))) in edges.iter().zip(&all).enumerate() {
                        let one = rep.earliest_divergence_replacement(&mut engine, t, e);
                        assert_eq!(dec, &one, "{t:?}, edge {i}");
                        let (view, ws) = engine.begin(&g);
                        remove_pi_segment(view, &pi, 0, i, t);
                        view.remove_faults(&FaultSpec::from(e));
                        let first = ws.bfs_hops(view, v(0), t).unwrap_or(u32::MAX);
                        assert!(*floor <= first, "{t:?}, edge {i}: {floor} > {first}");
                        let prev = i.checked_sub(1).and_then(|j| all[j].0.as_ref());
                        carried += usize::from(dec.is_some() && dec.as_ref() == prev);
                    }
                }
            }
        }
        assert!(carried > 100, "only {carried} paths repeated down π");
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
