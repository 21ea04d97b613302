//! Divergence-point preference searches used by `Cons2FTBFS`.
//!
//! Step (1) and step (3) of the algorithm do not take an arbitrary shortest
//! replacement path: among all shortest paths in `G ∖ F` they prefer the one
//! whose divergence point from `π(s, v)` is as close to the source as
//! possible, and (when relevant) whose divergence point from the detour is as
//! close to the detour's start as possible.  Both preferences are expressed
//! through the restricted graphs of Eq. (3)/(4): candidate `c` keeps a
//! shortest path iff the view that removes the path or detour below it
//! does, and removing *less* can only shorten distances, so the restricted
//! distance is monotone non-increasing in `c`.
//!
//! The earliest candidate almost always wins, so its path is extracted
//! first and doubles as its probe: it is the answer when its length is
//! `|π(s, v)|` (no path is shorter) or the optimum `dist(s, v, G ∖ F)`.
//! Only when it is not are the later candidates located by binary search.
//!
//! All searches run through a caller-provided [`SearchEngine`]: each probe
//! resets the engine's view in `O(1)`, marks the restriction on it, and
//! allocates nothing.  The
//! binary-search predicates compare *unweighted* distances, so they use the
//! bidirectional hop probe [`ftbfs_graph::SearchWorkspace::bfs_hops`]; path
//! extraction uses
//! [`ftbfs_graph::SearchWorkspace::canonical_path`], which returns the
//! `W`-canonical path of the full weighted Dijkstra while running the heap
//! search over the `s–v` hop-shortest-path DAG only.

use crate::detour::Detour;
use ftbfs_graph::restrict::{remove_detour_suffix, remove_pi_segment};
use ftbfs_graph::{FaultSpec, Graph, GraphView, Path, SearchEngine, TieBreak, VertexId};

/// The outcome of an earliest-divergence search.
#[derive(Clone, Debug)]
pub struct DivergenceChoice {
    /// The chosen divergence point (a vertex of `π(s, v)` or of the detour).
    pub divergence: VertexId,
    /// The selected replacement path realising the optimal distance while
    /// diverging at [`DivergenceChoice::divergence`].
    pub path: Path,
}

/// The hop distance `dist(source, target, G ∖ faults)`, or `None` if
/// disconnected — a pure-distance query on the engine's unweighted fast
/// path.
pub fn fault_distance<'g>(
    engine: &mut SearchEngine<'g>,
    graph: &'g Graph,
    source: VertexId,
    target: VertexId,
    faults: &FaultSpec,
) -> Option<u32> {
    let (view, ws) = engine.begin(graph);
    view.remove_faults(faults);
    ws.bfs_hops(view, source, target)
}

/// Where an earliest-candidate search lands.
enum Earliest {
    /// The smallest candidate whose restricted view realises the optimum,
    /// with that view's canonical path.
    At(usize, Path),
    /// No candidate realises the optimum.
    Nowhere,
    /// The target is unreachable in `G ∖ faults`.
    Unreachable,
}

/// The smallest candidate `c ∈ 0..=last` whose restricted view still
/// realises the optimum `dist(s, target, G ∖ faults)`, where `mark(view, c)`
/// marks candidate `c`'s restriction and the faults on a fresh view and
/// `pi = π(s, target)`.  A larger candidate removes fewer vertices, so the
/// restricted distance is non-increasing in `c`.
///
/// Candidate 0 realises the optimum iff its canonical path is that long,
/// so its extraction doubles as its probe.  `first_floor` is a lower bound
/// on candidate 0's restricted distance that the caller knows (0 for none);
/// `|π(s, target)|` bounds every path.  Candidate 0 is extracted first, and
/// its path is the answer without a probe, when
/// * its length is `|π(s, target)|`, so it realises the optimum; or
/// * `last == 0` and `last_unrestricted` (candidate `last` removes no
///   vertex): the view is `G ∖ faults` itself.
///
/// When the floor is above `|π(s, target)|`, only the second case can
/// apply, so the optimum, supplied as `known_optimum` or found by one
/// probe, comes first, and candidate 0 is extracted only if the optimum is
/// not below the floor.  Only when candidate 0 misses the optimum are
/// candidates `1..=last` binary-searched with hop probes; `last` is probed
/// first unless `last_unrestricted`.
#[allow(clippy::too_many_arguments)]
fn earliest_candidate<'g>(
    engine: &mut SearchEngine<'g>,
    graph: &'g Graph,
    w: &TieBreak,
    pi: &Path,
    target: VertexId,
    faults: &FaultSpec,
    known_optimum: Option<u32>,
    first_floor: u32,
    last: usize,
    last_unrestricted: bool,
    mark: impl Fn(&mut GraphView<'g>, usize),
) -> Earliest {
    let source = pi.source();
    let extract = |engine: &mut SearchEngine<'g>, c: usize| {
        let (view, ws) = engine.begin(graph);
        mark(view, c);
        ws.canonical_path(view, w, source, target)
    };
    let floor = first_floor.max(pi.len() as u32);
    let unrestricted = last == 0 && last_unrestricted;
    let mut first = None;
    if floor as usize == pi.len() || unrestricted {
        match extract(engine, 0) {
            Some(p) if p.len() == pi.len() || unrestricted => {
                debug_assert_eq!(
                    known_optimum.or_else(|| fault_distance(engine, graph, source, target, faults)),
                    Some(p.len() as u32),
                    "candidate 0 is not optimal for {target:?} under {faults:?}"
                );
                return Earliest::At(0, p);
            }
            p => first = Some(p),
        }
    }
    let optimum = match known_optimum {
        Some(h) => h,
        None => match fault_distance(engine, graph, source, target, faults) {
            Some(h) => h,
            None => return Earliest::Unreachable,
        },
    };
    let first = match first {
        Some(p) => p,
        None if optimum >= floor => extract(engine, 0),
        None => {
            debug_assert_ne!(
                extract(engine, 0).map(|p| p.len() as u32),
                Some(optimum),
                "candidate 0 beats its floor for {target:?} under {faults:?}"
            );
            None
        }
    };
    if let Some(p) = first.filter(|p| p.len() as u32 == optimum) {
        return Earliest::At(0, p);
    }
    let pred = |engine: &mut SearchEngine<'g>, c: usize| -> bool {
        let (view, ws) = engine.begin(graph);
        mark(view, c);
        ws.bfs_hops(view, source, target) == Some(optimum)
    };
    if last == 0 || (!last_unrestricted && !pred(engine, last)) {
        return Earliest::Nowhere;
    }
    let (mut lo, mut hi) = (1, last);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if pred(engine, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    match extract(engine, lo) {
        Some(path) => Earliest::At(lo, path),
        None => Earliest::Unreachable,
    }
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
///   passing it skips the base-view search entirely;
/// * `first_floor` — a lower bound the caller knows on the hop distance in
///   the restricted graph of the source itself (`k = 0`), or 0.  A floor
///   above the optimum rules that candidate out without a search.
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
    faults: &FaultSpec,
    known_optimum: Option<u32>,
    first_floor: u32,
) -> Option<DivergenceChoice> {
    let limit_pos = pi.position(limit).expect("divergence limit must lie on pi");
    let segment_end_pos = pi
        .position(segment_end)
        .expect("segment end must lie on pi");
    // At `limit == segment_end` the restriction removes no vertex.
    let found = earliest_candidate(
        engine,
        graph,
        w,
        pi,
        target,
        faults,
        known_optimum,
        first_floor,
        limit_pos,
        limit_pos == segment_end_pos,
        |view, k| {
            remove_pi_segment(view, pi, k, segment_end_pos, target);
            view.remove_faults(faults);
        },
    );
    match found {
        Earliest::At(k, path) => Some(DivergenceChoice {
            divergence: pi.vertices()[k],
            path,
        }),
        Earliest::Nowhere => {
            // No divergence point up to `limit` realises the optimum (the
            // optimal path re-joins π below the failing edge in a way the
            // restriction forbids).  Fall back to the canonical optimal path.
            let (view, ws) = engine.begin(graph);
            view.remove_faults(faults);
            let path = ws.canonical_path(view, w, pi.source(), target)?;
            let divergence = path.first_divergence_from(pi).unwrap_or(pi.source());
            Some(DivergenceChoice { divergence, path })
        }
        Earliest::Unreachable => None,
    }
}

/// Given that the replacement path must diverge from `π(s, v)` at
/// `pi_divergence = x_τ` (the start of the detour), selects the replacement
/// path whose divergence point from the detour `D_τ` is as close to the
/// detour's start as possible (the second part of step (3), Eq. (4)).
///
/// `fault_on_detour_upper` must be the upper endpoint `w_j` of the second
/// failing edge `t_τ = (w_j, w_{j+1})` on the detour: candidate divergence
/// points are `w_0, …, w_j`.  `known_optimum` is the hop distance
/// `dist(s, target, G ∖ faults)` when the caller already has it, and
/// `first_floor` a lower bound it knows on the hop distance in the Eq. (4)
/// graph of `w_0 = x`, or 0.
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
    faults: &FaultSpec,
    known_optimum: Option<u32>,
    first_floor: u32,
) -> Option<DivergenceChoice> {
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
    let found = earliest_candidate(
        engine,
        graph,
        w,
        pi,
        target,
        faults,
        known_optimum,
        first_floor,
        upper_pos,
        false,
        |view, l| mark(view, Some(l)),
    );
    match found {
        Earliest::At(l, path) => Some(DivergenceChoice {
            divergence: detour.path.vertices()[l],
            path,
        }),
        Earliest::Nowhere => {
            // No divergence point on the detour realises the optimum; fall
            // back to the π-restricted optimum (divergence at x, ignoring
            // the detour preference).  This mirrors the algorithm's
            // behaviour of only imposing the detour preference "under
            // certain conditions".
            let (view, ws) = engine.begin(graph);
            mark(view, None);
            let path = ws.canonical_path(view, w, pi.source(), target)?;
            let divergence = path.first_divergence_from(&detour.path).unwrap_or(detour.x);
            Some(DivergenceChoice { divergence, path })
        }
        Earliest::Unreachable => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detour::decompose;
    use ftbfs_graph::{generators, GraphBuilder, SpTree};

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
            &FaultSpec::from(failed),
            None,
            0,
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
            &FaultSpec::from(e34),
            None,
            0,
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
        let faults = FaultSpec::from(failed);
        let mut engine = SearchEngine::new();
        let fresh =
            earliest_pi_divergence(&mut engine, &g, &w, &pi, v(4), a, a, &faults, None, 0).unwrap();
        let seeded =
            earliest_pi_divergence(&mut engine, &g, &w, &pi, v(4), a, a, &faults, Some(4), 0)
                .unwrap();
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
            &FaultSpec::from(e23),
            None,
            0
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
        let faults = FaultSpec::from((e12, e45));
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
            0,
        )
        .unwrap();
        assert_eq!(choice.divergence, v(3));
        assert!(choice.path.contains_vertex(v(6)));
        assert_eq!(choice.path.len(), 4);
    }

    /// The plain binary search over candidates `0..=last` for the smallest
    /// one whose view (marked by `mark`) keeps `optimum`; `None` when
    /// candidate `last` misses it.  `last` is not probed when
    /// `last_unrestricted`.
    #[allow(clippy::too_many_arguments)]
    fn plain_search<'g>(
        engine: &mut SearchEngine<'g>,
        graph: &'g Graph,
        source: VertexId,
        target: VertexId,
        optimum: u32,
        last: usize,
        last_unrestricted: bool,
        mark: impl Fn(&mut GraphView<'g>, usize),
    ) -> Option<usize> {
        let mut pred = |c: usize| {
            let (view, ws) = engine.begin(graph);
            mark(view, c);
            ws.bfs_hops(view, source, target) == Some(optimum)
        };
        if !last_unrestricted && !pred(last) {
            return None;
        }
        let (mut lo, mut hi) = (0, last);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if pred(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    /// The canonical path of the view `mark` marks.
    fn extract<'g>(
        engine: &mut SearchEngine<'g>,
        graph: &'g Graph,
        w: &TieBreak,
        pi: &Path,
        mark: impl FnOnce(&mut GraphView<'g>),
    ) -> Option<Path> {
        let (view, ws) = engine.begin(graph);
        mark(view);
        ws.canonical_path(view, w, pi.source(), pi.target())
    }

    /// A plain search's answer: the winning candidate (`None` for the
    /// fallback), the divergence point and the path.
    type Plain = Option<(Option<usize>, VertexId, Path)>;

    /// [`earliest_pi_divergence`] as a plain binary search from candidate
    /// 0 on, with a probed optimum.
    fn plain_pi_divergence<'g>(
        engine: &mut SearchEngine<'g>,
        graph: &'g Graph,
        w: &TieBreak,
        pi: &Path,
        (limit_pos, segment_end_pos): (usize, usize),
        faults: &FaultSpec,
    ) -> Plain {
        let (source, target) = (pi.source(), pi.target());
        let optimum = fault_distance(engine, graph, source, target, faults)?;
        let mark = |view: &mut GraphView<'g>, k: usize| {
            remove_pi_segment(view, pi, k, segment_end_pos, target);
            view.remove_faults(faults);
        };
        let unrestricted = limit_pos == segment_end_pos;
        match plain_search(
            engine,
            graph,
            source,
            target,
            optimum,
            limit_pos,
            unrestricted,
            mark,
        ) {
            Some(k) => {
                let path = extract(engine, graph, w, pi, |view| mark(view, k))?;
                Some((Some(k), pi.vertices()[k], path))
            }
            None => {
                let path = extract(engine, graph, w, pi, |view| view.remove_faults(faults))?;
                Some((None, path.first_divergence_from(pi).unwrap_or(source), path))
            }
        }
    }

    /// [`earliest_detour_divergence`] as a plain binary search from
    /// candidate 0 on, with a probed optimum.
    fn plain_detour_divergence<'g>(
        engine: &mut SearchEngine<'g>,
        graph: &'g Graph,
        w: &TieBreak,
        pi: &Path,
        detour: &Detour,
        upper_pos: usize,
        faults: &FaultSpec,
    ) -> Plain {
        let (source, target) = (pi.source(), pi.target());
        let optimum = fault_distance(engine, graph, source, target, faults)?;
        let x_pos = pi.position(detour.x).unwrap();
        let mark = |view: &mut GraphView<'g>, l: Option<usize>| {
            remove_pi_segment(view, pi, x_pos, pi.len(), target);
            if let Some(l) = l {
                remove_detour_suffix(view, &detour.path, l, target);
            }
            view.remove_faults(faults);
        };
        let found = plain_search(
            engine,
            graph,
            source,
            target,
            optimum,
            upper_pos,
            false,
            |v, l| mark(v, Some(l)),
        );
        match found {
            Some(l) => {
                let path = extract(engine, graph, w, pi, |view| mark(view, Some(l)))?;
                Some((Some(l), detour.path.vertices()[l], path))
            }
            None => {
                let path = extract(engine, graph, w, pi, |view| mark(view, None))?;
                let divergence = path.first_divergence_from(&detour.path).unwrap_or(detour.x);
                Some((None, divergence, path))
            }
        }
    }

    /// The hop distance in the view `mark` marks, `u32::MAX` if none: the
    /// tightest floor a caller can pass for candidate 0.
    fn first_hops<'g>(
        engine: &mut SearchEngine<'g>,
        graph: &'g Graph,
        pi: &Path,
        mark: impl FnOnce(&mut GraphView<'g>),
    ) -> u32 {
        let (view, ws) = engine.begin(graph);
        mark(view);
        ws.bfs_hops(view, pi.source(), pi.target())
            .unwrap_or(u32::MAX)
    }

    /// Every `(known_optimum, first_floor)` a caller may pass: each of the
    /// optimum and the floor either known or not.
    fn bounds(optimum: Option<u32>, floor: u32) -> [(Option<u32>, u32); 4] {
        [(None, 0), (optimum, 0), (None, floor), (optimum, floor)]
    }

    #[test]
    fn candidate_first_matches_the_plain_binary_search() {
        // How often candidate 0 won, a later candidate won, or no
        // candidate did (the fallback), over the π and detour searches.
        let mut seen = [0usize; 3];
        let check = |got: Option<DivergenceChoice>, plain: &Plain, what: &str| {
            let got = got.map(|c| (c.divergence, c.path));
            let want = plain.as_ref().map(|(_, d, p)| (*d, p.clone()));
            assert_eq!(got, want, "{what}");
        };
        for seed in 1..=4u64 {
            for g in [
                generators::connected_gnp(40, 0.1, seed),
                generators::tree_plus_chords(40, 25, seed),
                generators::grid(5, 6),
            ] {
                for w in [TieBreak::new(&g, seed), TieBreak::new(&g, seed + 100)] {
                    let tree = SpTree::new(&g, &w, v(0));
                    let mut engine = SearchEngine::new();
                    for t in g.vertices().filter(|&t| t != v(0)) {
                        let pi = tree.pi(t).unwrap();
                        for (i, e) in pi.edge_ids(&g).into_iter().enumerate() {
                            let u_i = pi.vertices()[i];
                            // Step (1): limit = segment end = u_i.
                            let faults = FaultSpec::from(e);
                            let plain =
                                plain_pi_divergence(&mut engine, &g, &w, &pi, (i, i), &faults);
                            let opt = fault_distance(&mut engine, &g, v(0), t, &faults);
                            let floor = first_hops(&mut engine, &g, &pi, |view| {
                                remove_pi_segment(view, &pi, 0, i, t);
                                view.remove_faults(&faults);
                            });
                            for (known, floor) in bounds(opt, floor) {
                                let got = earliest_pi_divergence(
                                    &mut engine,
                                    &g,
                                    &w,
                                    &pi,
                                    t,
                                    u_i,
                                    u_i,
                                    &faults,
                                    known,
                                    floor,
                                );
                                check(got, &plain, &format!("step 1 at {t:?}, edge {i}"));
                            }
                            // Step (3): a second fault on the step-1 detour.
                            let Some(dec) = plain.and_then(|(_, _, p)| decompose(&pi, &p)) else {
                                continue;
                            };
                            for (j, f) in dec.detour.edge_ids(&g).into_iter().enumerate() {
                                let faults = FaultSpec::from((e, f));
                                let opt = fault_distance(&mut engine, &g, v(0), t, &faults);
                                let ends = (i, pi.len());
                                let plain_pi =
                                    plain_pi_divergence(&mut engine, &g, &w, &pi, ends, &faults);
                                let plain_d = plain_detour_divergence(
                                    &mut engine,
                                    &g,
                                    &w,
                                    &pi,
                                    &dec.detour,
                                    j,
                                    &faults,
                                );
                                for plain in [&plain_pi, &plain_d] {
                                    match plain {
                                        Some((Some(0), _, _)) => seen[0] += 1,
                                        Some((Some(_), _, _)) => seen[1] += 1,
                                        Some((None, _, _)) => seen[2] += 1,
                                        None => {}
                                    }
                                }
                                let w_j = dec.detour.path.vertices()[j];
                                let pi_floor = first_hops(&mut engine, &g, &pi, |view| {
                                    remove_pi_segment(view, &pi, 0, pi.len(), t);
                                    view.remove_faults(&faults);
                                });
                                let x_pos = pi.position(dec.detour.x).unwrap();
                                let d_floor = first_hops(&mut engine, &g, &pi, |view| {
                                    remove_pi_segment(view, &pi, x_pos, pi.len(), t);
                                    remove_detour_suffix(view, &dec.detour.path, 0, t);
                                    view.remove_faults(&faults);
                                });
                                let floors =
                                    bounds(opt, pi_floor).into_iter().zip(bounds(opt, d_floor));
                                for ((known, pi_floor), (_, d_floor)) in floors {
                                    let what = format!("step 3 at {t:?} under {faults:?}");
                                    let got = earliest_pi_divergence(
                                        &mut engine,
                                        &g,
                                        &w,
                                        &pi,
                                        t,
                                        u_i,
                                        t,
                                        &faults,
                                        known,
                                        pi_floor,
                                    );
                                    check(got, &plain_pi, &what);
                                    let got = earliest_detour_divergence(
                                        &mut engine,
                                        &g,
                                        &w,
                                        &pi,
                                        &dec.detour,
                                        t,
                                        w_j,
                                        &faults,
                                        known,
                                        d_floor,
                                    );
                                    check(got, &plain_d, &format!("detour search, {what}"));
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(seen.iter().all(|&c| c > 0), "uncovered case: {seen:?}");
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
        let faults = FaultSpec::from((e12, e45));
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
            0,
        )
        .unwrap();
        assert_eq!(choice.path.len(), 2);
        assert!(choice.path.contains_vertex(v(7)));
    }
}
