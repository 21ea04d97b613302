//! Dual-failure replacement paths `P_{s,v,F}` for `|F| ≤ 2` and the
//! classification of fault pairs relative to `π(s, v)` and its detours.

use ftbfs_graph::{dijkstra, EdgeId, FaultSet, Graph, GraphView, Path, TieBreak, VertexId};

/// How a fault set relates to the canonical path `π(s, v)` and the detours of
/// its single-failure replacement paths.  The paper's step (2) handles
/// [`FaultPairKind::PiPi`] pairs and step (3) handles [`FaultPairKind::PiDetour`]
/// pairs; everything else is already covered by earlier selections.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultPairKind {
    /// No failed edge lies on `π(s, v)`; the canonical path survives.
    Irrelevant,
    /// Exactly one failed edge lies on `π(s, v)` and the other (if any) lies
    /// neither on `π(s, v)` nor on the detour protecting the first.
    SingleRelevant,
    /// Both failed edges lie on `π(s, v)` — a `(π, π)` pair.
    PiPi,
    /// One failed edge lies on `π(s, v)` and the other on the detour of its
    /// single-failure replacement path — a `(π, D)` pair.
    PiDetour,
}

/// Classifies a fault set of size ≤ 2 with respect to `π(s, v)` and a lookup
/// of the detour edges protecting each π edge.
///
/// `detour_edges(e)` must return the edge set of the detour `D_e` of the
/// replacement path `P_{s,v,{e}}` chosen in step (1), or `None` when `v` is
/// unreachable in `G ∖ {e}`.
pub fn classify_fault_pair<F>(
    graph: &Graph,
    pi: &Path,
    faults: &FaultSet,
    mut detour_edges: F,
) -> FaultPairKind
where
    F: FnMut(EdgeId) -> Option<Vec<EdgeId>>,
{
    let on_pi: Vec<EdgeId> = faults
        .edges()
        .iter()
        .copied()
        .filter(|&e| {
            let ep = graph.endpoints(e);
            pi.contains_edge(ep.u, ep.v)
        })
        .collect();
    match (faults.len(), on_pi.len()) {
        (_, 0) => FaultPairKind::Irrelevant,
        (1, 1) => FaultPairKind::SingleRelevant,
        (2, 2) => FaultPairKind::PiPi,
        (2, 1) => {
            let first = on_pi[0];
            let other = faults
                .edges()
                .iter()
                .copied()
                .find(|&e| e != first)
                .expect("two-element fault set has a second edge");
            match detour_edges(first) {
                Some(detour) if detour.contains(&other) => FaultPairKind::PiDetour,
                _ => FaultPairKind::SingleRelevant,
            }
        }
        _ => FaultPairKind::Irrelevant,
    }
}

/// The canonical dual-failure replacement path `SP(s, v, G ∖ F, W)`.
///
/// Returns `None` if `v` is unreachable once `F` fails.
pub fn canonical_dual_replacement(
    graph: &Graph,
    w: &TieBreak,
    source: VertexId,
    target: VertexId,
    faults: &FaultSet,
) -> Option<Path> {
    let view = GraphView::new(graph).without_faults(faults);
    dijkstra(&view, w, source, Some(target)).path_to(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::{bfs, generators, GraphBuilder, SpTree};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn canonical_dual_replacement_avoids_both_faults() {
        let g = generators::grid(3, 3);
        let w = TieBreak::new(&g, 1);
        let e01 = g.edge_between(v(0), v(1)).unwrap();
        let e03 = g.edge_between(v(0), v(3)).unwrap();
        let f = FaultSet::pair(e01, e03);
        // Both edges incident to the corner fail: corner 0 is cut off from 8.
        assert!(canonical_dual_replacement(&g, &w, v(0), v(8), &f).is_none());
        // A less severe pair still admits a path.
        let e12 = g.edge_between(v(1), v(2)).unwrap();
        let f2 = FaultSet::pair(e01, e12);
        let p = canonical_dual_replacement(&g, &w, v(0), v(2), &f2).unwrap();
        assert!(!f2.intersects_path(&g, &p));
        assert_eq!(
            p.len() as u32,
            bfs(&GraphView::new(&g).without_faults(&f2), v(0))
                .distance(v(2))
                .unwrap()
        );
    }

    #[test]
    fn classification_of_pairs() {
        // pi(0, 4) = 0-1-2-3-4; detour for e12 is 1-5-6-3 (re-entering at 3).
        let mut b = GraphBuilder::new(7);
        b.add_path(&[v(0), v(1), v(2), v(3), v(4)]);
        b.add_path(&[v(1), v(5), v(6), v(3)]);
        let g = b.build();
        let w = TieBreak::new(&g, 3);
        let tree = SpTree::new(&g, &w, v(0));
        let pi = tree.pi(v(4)).unwrap();
        let e12 = g.edge_between(v(1), v(2)).unwrap();
        let e23 = g.edge_between(v(2), v(3)).unwrap();
        let e56 = g.edge_between(v(5), v(6)).unwrap();
        let detour_lookup = |e: EdgeId| -> Option<Vec<EdgeId>> {
            if e == e12 || e == e23 {
                Some(vec![
                    g.edge_between(v(1), v(5)).unwrap(),
                    e56,
                    g.edge_between(v(6), v(3)).unwrap(),
                ])
            } else {
                None
            }
        };
        assert_eq!(
            classify_fault_pair(&g, &pi, &FaultSet::pair(e12, e23), detour_lookup),
            FaultPairKind::PiPi
        );
        assert_eq!(
            classify_fault_pair(&g, &pi, &FaultSet::pair(e12, e56), detour_lookup),
            FaultPairKind::PiDetour
        );
        assert_eq!(
            classify_fault_pair(&g, &pi, &FaultSet::single(e12), detour_lookup),
            FaultPairKind::SingleRelevant
        );
        assert_eq!(
            classify_fault_pair(&g, &pi, &FaultSet::single(e56), detour_lookup),
            FaultPairKind::Irrelevant
        );
        // One on pi, one elsewhere but not on the protecting detour.
        let e15 = g.edge_between(v(1), v(5)).unwrap();
        let far_lookup = |_e: EdgeId| -> Option<Vec<EdgeId>> { Some(vec![]) };
        assert_eq!(
            classify_fault_pair(&g, &pi, &FaultSet::pair(e23, e15), far_lookup),
            FaultPairKind::SingleRelevant
        );
    }
}
