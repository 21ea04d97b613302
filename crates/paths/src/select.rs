//! Divergence-point preference searches used by `Cons2FTBFS`.
//!
//! Step (1) and step (3) of the algorithm do not take an arbitrary shortest
//! replacement path: among all shortest paths in `G ∖ F` they prefer the one
//! whose divergence point from `π(s, v)` is as close to the source as
//! possible, and (when relevant) whose divergence point from the detour is as
//! close to the detour's start as possible.  Both preferences are expressed
//! through the restricted graphs of Eq. (3)/(4) and located here by binary
//! search, exploiting that removing *less* of the path/detour can only
//! shorten distances (distances are monotone non-increasing in the candidate
//! index).
//!
//! All searches run through a caller-provided [`SearchEngine`]: each probe
//! resets the engine's view in `O(1)`, marks the restriction on it, and
//! allocates nothing.  The
//! binary-search predicates compare *unweighted* distances, so they use the
//! bidirectional hop probe [`ftbfs_graph::SearchWorkspace::bfs_hops`]; the
//! final path extraction (and the rare fallback) uses
//! [`ftbfs_graph::SearchWorkspace::canonical_path`], which returns the
//! `W`-canonical path of the full weighted Dijkstra while running the heap
//! search over the `s–v` hop-shortest-path DAG only.

use crate::detour::Detour;
use ftbfs_graph::restrict::{remove_detour_suffix, remove_pi_segment};
use ftbfs_graph::{FaultSet, Graph, GraphView, Path, SearchEngine, TieBreak, VertexId};

/// The outcome of an earliest-divergence search.
#[derive(Clone, Debug)]
pub struct DivergenceChoice {
    /// The chosen divergence point (a vertex of `π(s, v)` or of the detour).
    pub divergence: VertexId,
    /// The selected replacement path realising the optimal distance while
    /// diverging at [`DivergenceChoice::divergence`].
    pub path: Path,
}

/// Hop distance of the shortest `s → target` path in
/// `G(u_k, segment_end) ∖ faults`, where `u_k` is `pi.vertices()[k]`.
///
/// The divergence-point preferences of the paper compare *unweighted*
/// distances (`dist(s, v, ·)`); the tie-breaking weights only select a single
/// path once the divergence point is fixed — so this runs the engine's
/// unweighted fast path, not a weighted Dijkstra.
fn restricted_hops<'g>(
    engine: &mut SearchEngine<'g>,
    graph: &'g Graph,
    pi: &Path,
    k: usize,
    segment_end_pos: usize,
    target: VertexId,
    faults: &FaultSet,
) -> Option<u32> {
    let (view, ws) = engine.begin(graph);
    remove_pi_segment(view, pi, k, segment_end_pos, target);
    view.remove_faults(faults);
    ws.bfs_hops(view, pi.source(), target)
}

/// The hop distance `dist(source, target, G ∖ faults)`, or `None` if
/// disconnected — a pure-distance query on the engine's unweighted fast
/// path.
pub fn fault_distance<'g>(
    engine: &mut SearchEngine<'g>,
    graph: &'g Graph,
    source: VertexId,
    target: VertexId,
    faults: &FaultSet,
) -> Option<u32> {
    let (view, ws) = engine.begin(graph);
    view.remove_faults(faults);
    ws.bfs_hops(view, source, target)
}

/// Finds the replacement path for `faults` whose first divergence point from
/// `pi = π(s, v)` is as close to the source as possible (step (1) and the
/// first part of step (3) of `Cons2FTBFS`).
///
/// * `limit` — the deepest vertex of `π` allowed as a divergence point (the
///   upper endpoint `u_i` of the first failing edge);
/// * `segment_end` — the end of the π-segment whose interior is removed in
///   the Eq. (3) restriction (`u_i` for step (1), `v` for step (3));
/// * `target` — the vertex `v` the replacement path must reach;
/// * `known_optimum` — the hop distance `dist(s, target, G ∖ faults)` when
///   the caller has already computed it (e.g. via a `fault_distance` check);
///   passing it skips the base-view search entirely.
///
/// Returns `None` if `target` is unreachable in `G ∖ faults`.
#[allow(clippy::too_many_arguments)]
pub fn earliest_pi_divergence<'g>(
    engine: &mut SearchEngine<'g>,
    graph: &'g Graph,
    w: &TieBreak,
    pi: &Path,
    target: VertexId,
    limit: VertexId,
    segment_end: VertexId,
    faults: &FaultSet,
    known_optimum: Option<u32>,
) -> Option<DivergenceChoice> {
    let source = pi.source();
    let optimum = match known_optimum {
        Some(h) => h,
        None => fault_distance(engine, graph, source, target, faults)?,
    };

    let limit_pos = pi.position(limit).expect("divergence limit must lie on pi");
    let segment_end_pos = pi
        .position(segment_end)
        .expect("segment end must lie on pi");

    // Binary search the smallest k in 0..=limit_pos whose restricted distance
    // equals the optimum.  The predicate is monotone: larger k removes fewer
    // vertices, so the restricted distance is non-increasing in k.
    let pred = |engine: &mut SearchEngine<'g>, k: usize| -> bool {
        restricted_hops(engine, graph, pi, k, segment_end_pos, target, faults) == Some(optimum)
    };
    let mut lo = 0usize;
    let mut hi = limit_pos;
    // At `limit == segment_end` the restriction removes no vertex, so the
    // probe would repeat the optimum search: it holds by definition.
    if limit_pos != segment_end_pos && !pred(engine, hi) {
        // No divergence point up to `limit` realises the optimum (the optimal
        // path re-joins π below the failing edge in a way the restriction
        // forbids).  Fall back to the canonical optimal path.
        let (view, ws) = engine.begin(graph);
        view.remove_faults(faults);
        let path = ws.canonical_path(view, w, source, target)?;
        let divergence = path.first_divergence_from(pi).unwrap_or(source);
        return Some(DivergenceChoice { divergence, path });
    }
    while lo < hi {
        let mid = (lo + hi) / 2;
        if pred(engine, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let k = lo;
    let (view, ws) = engine.begin(graph);
    remove_pi_segment(view, pi, k, segment_end_pos, target);
    view.remove_faults(faults);
    let path = ws.canonical_path(view, w, source, target)?;
    Some(DivergenceChoice {
        divergence: pi.vertices()[k],
        path,
    })
}

/// Given that the replacement path must diverge from `π(s, v)` at
/// `pi_divergence = x_τ` (the start of the detour), selects the replacement
/// path whose divergence point from the detour `D_τ` is as close to the
/// detour's start as possible (the second part of step (3), Eq. (4)).
///
/// `fault_on_detour_upper` must be the upper endpoint `w_j` of the second
/// failing edge `t_τ = (w_j, w_{j+1})` on the detour: candidate divergence
/// points are `w_0, …, w_j`.  `known_optimum` is the hop distance
/// `dist(s, target, G ∖ faults)` when the caller already has it.
///
/// Returns `None` if `target` is unreachable in `G ∖ faults`.
#[allow(clippy::too_many_arguments)]
pub fn earliest_detour_divergence<'g>(
    engine: &mut SearchEngine<'g>,
    graph: &'g Graph,
    w: &TieBreak,
    pi: &Path,
    detour: &Detour,
    target: VertexId,
    fault_on_detour_upper: VertexId,
    faults: &FaultSet,
    known_optimum: Option<u32>,
) -> Option<DivergenceChoice> {
    let source = pi.source();
    let optimum = match known_optimum {
        Some(h) => h,
        None => fault_distance(engine, graph, source, target, faults)?,
    };

    let upper_pos = detour
        .position(fault_on_detour_upper)
        .expect("second fault's upper endpoint must lie on the detour");
    let x_pos = pi.position(detour.x).expect("detour start must lie on pi");
    let target_pos = pi.position(target).expect("target is the end of pi");

    // Marks the Eq. (4) restriction for candidate l, or (`None`) the
    // π-restriction alone.
    let mark = |view: &mut GraphView<'g>, l: Option<usize>| {
        remove_pi_segment(view, pi, x_pos, target_pos, target);
        if let Some(l) = l {
            remove_detour_suffix(view, &detour.path, l, target);
        }
        view.remove_faults(faults);
    };
    let pred = |engine: &mut SearchEngine<'g>, l: usize| -> bool {
        let (view, ws) = engine.begin(graph);
        mark(view, Some(l));
        ws.bfs_hops(view, source, target) == Some(optimum)
    };

    let mut lo = 0usize;
    let mut hi = upper_pos;
    if !pred(engine, hi) {
        // No divergence point on the detour realises the optimum; fall back
        // to the π-restricted optimum (divergence at x, ignoring the detour
        // preference).  This mirrors the algorithm's behaviour of only
        // imposing the detour preference "under certain conditions".
        let (view, ws) = engine.begin(graph);
        mark(view, None);
        let path = ws.canonical_path(view, w, source, target)?;
        let divergence = path.first_divergence_from(&detour.path).unwrap_or(detour.x);
        return Some(DivergenceChoice { divergence, path });
    }
    while lo < hi {
        let mid = (lo + hi) / 2;
        if pred(engine, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let l = lo;
    let (view, ws) = engine.begin(graph);
    mark(view, Some(l));
    let path = ws.canonical_path(view, w, source, target)?;
    Some(DivergenceChoice {
        divergence: detour.path.vertices()[l],
        path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detour::decompose;
    use ftbfs_graph::{GraphBuilder, SpTree};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Source 0, path 0-1-2-3-4 (=v), two alternative detours:
    /// a high one 0-5-6-7-4 and a low one 2-8-4.
    fn graph_with_two_detours() -> Graph {
        let mut b = GraphBuilder::new(9);
        b.add_path(&[v(0), v(1), v(2), v(3), v(4)]);
        b.add_path(&[v(0), v(5), v(6), v(7), v(4)]);
        b.add_path(&[v(2), v(8), v(4)]);
        b.build()
    }

    #[test]
    fn prefers_earliest_divergence_point() {
        // Two equal-length s-v routes exist (0-1-2-3-4 and 0-5-6-7-4); W picks
        // one of them as pi.  Fail pi's last edge: a full replacement along
        // the other route exists, so the earliest possible divergence point is
        // the source itself, and it must be preferred over any later one.
        let g = graph_with_two_detours();
        let w = TieBreak::new(&g, 3);
        let tree = SpTree::new(&g, &w, v(0));
        let pi = tree.pi(v(4)).unwrap();
        assert_eq!(pi.len(), 4);
        let (a, b) = pi.last_edge().unwrap();
        let failed = g.edge_between(a, b).unwrap();
        let mut engine = SearchEngine::new();
        let choice = earliest_pi_divergence(
            &mut engine,
            &g,
            &w,
            &pi,
            v(4),
            a,
            a,
            &FaultSet::single(failed),
            None,
        )
        .unwrap();
        assert_eq!(choice.divergence, v(0));
        assert_eq!(choice.path.len(), 4);
        let dec = decompose(&pi, &choice.path).unwrap();
        assert_eq!(dec.detour.x, v(0));
        assert_eq!(dec.detour.y, v(4));
    }

    #[test]
    fn falls_back_to_later_divergence_when_early_is_not_optimal() {
        // Make the high detour longer so the low detour (divergence at 2) is
        // the unique optimum.
        let mut b = GraphBuilder::new(10);
        b.add_path(&[v(0), v(1), v(2), v(3), v(4)]);
        b.add_path(&[v(0), v(5), v(6), v(7), v(9), v(4)]);
        b.add_path(&[v(2), v(8), v(4)]);
        let g = b.build();
        let w = TieBreak::new(&g, 3);
        let tree = SpTree::new(&g, &w, v(0));
        let pi = tree.pi(v(4)).unwrap();
        let e34 = g.edge_between(v(3), v(4)).unwrap();
        let mut engine = SearchEngine::new();
        let choice = earliest_pi_divergence(
            &mut engine,
            &g,
            &w,
            &pi,
            v(4),
            v(3),
            v(3),
            &FaultSet::single(e34),
            None,
        )
        .unwrap();
        assert_eq!(choice.divergence, v(2));
        assert!(choice.path.contains_vertex(v(8)));
        assert_eq!(choice.path.len(), 4);
    }

    #[test]
    fn known_optimum_matches_internally_computed_one() {
        let g = graph_with_two_detours();
        let w = TieBreak::new(&g, 3);
        let tree = SpTree::new(&g, &w, v(0));
        let pi = tree.pi(v(4)).unwrap();
        let (a, b) = pi.last_edge().unwrap();
        let failed = g.edge_between(a, b).unwrap();
        let faults = FaultSet::single(failed);
        let mut engine = SearchEngine::new();
        let fresh =
            earliest_pi_divergence(&mut engine, &g, &w, &pi, v(4), a, a, &faults, None).unwrap();
        let seeded =
            earliest_pi_divergence(&mut engine, &g, &w, &pi, v(4), a, a, &faults, Some(4)).unwrap();
        assert_eq!(fresh.divergence, seeded.divergence);
        assert_eq!(fresh.path, seeded.path);
    }

    #[test]
    fn unreachable_target_returns_none() {
        let g = ftbfs_graph::generators::path(4);
        let w = TieBreak::new(&g, 1);
        let tree = SpTree::new(&g, &w, v(0));
        let pi = tree.pi(v(3)).unwrap();
        let e23 = g.edge_between(v(2), v(3)).unwrap();
        let mut engine = SearchEngine::new();
        assert!(earliest_pi_divergence(
            &mut engine,
            &g,
            &w,
            &pi,
            v(3),
            v(2),
            v(2),
            &FaultSet::single(e23),
            None
        )
        .is_none());
    }

    #[test]
    fn detour_divergence_prefers_earliest_point() {
        // pi: 0-1-2 (v=2).  Failing edge e=(1,2).  Detour D: 0-3-4-5-2.
        // Second fault on the detour edge (4,5).  Two escapes from the
        // detour back to v=2: from 3 (3-6-7-2) and from 4 (4-8-2).
        // Both give optimal total length; the algorithm must pick the escape
        // from the earliest detour vertex among optimal ones.
        let mut b = GraphBuilder::new(9);
        b.add_path(&[v(0), v(1), v(2)]);
        b.add_path(&[v(0), v(3), v(4), v(5), v(2)]);
        b.add_path(&[v(3), v(6), v(7), v(2)]);
        b.add_path(&[v(4), v(8), v(2)]);
        let g = b.build();
        let w = TieBreak::new(&g, 5);
        let tree = SpTree::new(&g, &w, v(0));
        let pi = tree.pi(v(2)).unwrap();
        assert_eq!(pi.len(), 2);
        let detour = Detour {
            path: Path::new(vec![v(0), v(3), v(4), v(5), v(2)]),
            x: v(0),
            y: v(2),
        };
        let e12 = g.edge_between(v(1), v(2)).unwrap();
        let e45 = g.edge_between(v(4), v(5)).unwrap();
        let faults = FaultSet::pair(e12, e45);
        // Optimal length avoiding both faults: via 3-6-7-2 (len 4) or via
        // 3-4-8-2 (len 4).  Earliest detour divergence is vertex 3.
        let mut engine = SearchEngine::new();
        let choice = earliest_detour_divergence(
            &mut engine,
            &g,
            &w,
            &pi,
            &detour,
            v(2),
            v(4),
            &faults,
            None,
        )
        .unwrap();
        assert_eq!(choice.divergence, v(3));
        assert!(choice.path.contains_vertex(v(6)));
        assert_eq!(choice.path.len(), 4);
    }

    #[test]
    fn detour_divergence_falls_back_when_detour_cannot_reach_optimum() {
        // Here the optimal replacement ignores the detour entirely; the
        // search must still return an optimal path.
        let mut b = GraphBuilder::new(8);
        b.add_path(&[v(0), v(1), v(2)]);
        b.add_path(&[v(0), v(3), v(4), v(5), v(6), v(2)]); // long detour
        b.add_path(&[v(0), v(7), v(2)]); // short alternative
        let g = b.build();
        let w = TieBreak::new(&g, 2);
        let tree = SpTree::new(&g, &w, v(0));
        let pi = tree.pi(v(2)).unwrap();
        let detour = Detour {
            path: Path::new(vec![v(0), v(3), v(4), v(5), v(6), v(2)]),
            x: v(0),
            y: v(2),
        };
        let e12 = g.edge_between(v(1), v(2)).unwrap();
        let e45 = g.edge_between(v(4), v(5)).unwrap();
        let faults = FaultSet::pair(e12, e45);
        let mut engine = SearchEngine::new();
        let choice = earliest_detour_divergence(
            &mut engine,
            &g,
            &w,
            &pi,
            &detour,
            v(2),
            v(4),
            &faults,
            None,
        )
        .unwrap();
        assert_eq!(choice.path.len(), 2);
        assert!(choice.path.contains_vertex(v(7)));
    }
}
