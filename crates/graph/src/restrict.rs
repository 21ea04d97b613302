//! The restricted graphs of Eq. (3) and Eq. (4) of the paper.
//!
//! * `G(u_k, u_ℓ) = (G ∖ V(π(u_k, u_ℓ))) ∪ {u_k, v}` — remove the interior of
//!   the shortest-path segment between `u_k` and `u_ℓ` (keeping `u_k` itself
//!   and the target `v`), so that any surviving `s–v` path must diverge from
//!   `π(s, v)` at `u_k` or above.
//! * `G_D(w_ℓ) = (G(x_τ, v) ∖ V(D_τ[w_ℓ, y_τ])) ∪ {w_ℓ}` — additionally
//!   remove the suffix of a detour from `w_ℓ` on (keeping `w_ℓ`), so that any
//!   surviving path diverges from the detour at `w_ℓ` or above.
//!
//! Both are vertex removals marked on a [`GraphView`], addressed by position
//! on the path.  The binary-search predicates of `ftbfs-paths::select` mark
//! them on the view of a reused [`crate::SearchEngine`], so probing a
//! candidate divergence point allocates nothing.

use crate::fault::GraphView;
use crate::graph::VertexId;
use crate::path::Path;

/// Marks the Eq. (3) removal `V(π[from_pos, to_pos]) ∖ {π[from_pos], target}`
/// on `view`: every vertex of the path segment between the two positions
/// is removed except the segment's upper endpoint and the target.
///
/// `view` must be a view of the graph `pi` lives in; positions index into
/// `pi.vertices()`.
///
/// # Panics
///
/// Panics if either position is out of range for `pi`.
pub fn remove_pi_segment(
    view: &mut GraphView<'_>,
    pi: &Path,
    from_pos: usize,
    to_pos: usize,
    target: VertexId,
) {
    let (lo, hi) = if from_pos <= to_pos {
        (from_pos, to_pos)
    } else {
        (to_pos, from_pos)
    };
    let from = pi.vertices()[from_pos];
    for &x in &pi.vertices()[lo..=hi] {
        if x != from && x != target {
            view.remove_vertex(x);
        }
    }
}

/// Marks the Eq. (4) removal `V(D[from_pos, …]) ∖ {D[from_pos], target}` on
/// `view`: the suffix of the detour from the given position on is removed,
/// keeping the divergence vertex itself and the target.
///
/// # Panics
///
/// Panics if `from_pos` is out of range for `detour`.
pub fn remove_detour_suffix(
    view: &mut GraphView<'_>,
    detour: &Path,
    from_pos: usize,
    target: VertexId,
) {
    let from = detour.vertices()[from_pos];
    for &x in &detour.vertices()[from_pos..] {
        if x != from && x != target {
            view.remove_vertex(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::fault::FaultSpec;
    use crate::graph::{Graph, GraphBuilder};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// A path 0-1-2-3-4 plus a parallel "detour" 0-5-6-4 and a chord 1-6.
    fn test_graph() -> Graph {
        let mut b = GraphBuilder::new(7);
        b.add_path(&[v(0), v(1), v(2), v(3), v(4)]);
        b.add_path(&[v(0), v(5), v(6), v(4)]);
        b.add_edge(v(1), v(6));
        b.build()
    }

    fn pi() -> Path {
        Path::new(vec![v(0), v(1), v(2), v(3), v(4)])
    }

    #[test]
    fn pi_segment_interior_removed() {
        let g = test_graph();
        // Remove interior of pi[1,3]: vertices 2 and 3 go, 1 stays, 4 (target) stays.
        let mut view = GraphView::new(&g);
        remove_pi_segment(&mut view, &pi(), 1, 3, v(4));
        assert!(view.allows_vertex(v(1)));
        assert!(!view.allows_vertex(v(2)));
        assert!(!view.allows_vertex(v(3)));
        assert!(view.allows_vertex(v(4)));
        // 4 is still reachable from 0 via the detour 0-5-6-4.
        let res = bfs(&view, v(0));
        assert_eq!(res.distance(v(4)), Some(3));
        // Positions may come in either order; the upper one is kept.
        let mut reversed = GraphView::new(&g);
        remove_pi_segment(&mut reversed, &pi(), 3, 1, v(4));
        assert!(reversed.allows_vertex(v(3)));
        assert!(!reversed.allows_vertex(v(1)) && !reversed.allows_vertex(v(2)));
    }

    #[test]
    fn pi_segment_keeps_target_when_on_segment() {
        let g = test_graph();
        let mut view = GraphView::new(&g);
        remove_pi_segment(&mut view, &pi(), 1, 4, v(4));
        assert!(view.allows_vertex(v(4)));
        assert!(!view.allows_vertex(v(3)));
        // Any surviving s-4 path must diverge from pi at 1 or above.
        let res = bfs(&view, v(0));
        let p = res.path_to(v(4)).unwrap();
        assert!(!p.contains_vertex(v(2)));
        assert!(!p.contains_vertex(v(3)));
    }

    #[test]
    fn pi_segment_with_faults() {
        let g = test_graph();
        let e05 = g.edge_between(v(0), v(5)).unwrap();
        let mut view = GraphView::new(&g).without_faults(&FaultSpec::from(e05));
        remove_pi_segment(&mut view, &pi(), 1, 4, v(4));
        // Without 0-5 and the pi interior, route is 0-1-6-4.
        let res = bfs(&view, v(0));
        assert_eq!(res.distance(v(4)), Some(3));
        let p = res.path_to(v(4)).unwrap();
        assert!(p.contains_vertex(v(6)));
    }

    #[test]
    fn detour_suffix_removal() {
        let g = test_graph();
        let detour = Path::new(vec![v(0), v(5), v(6), v(4)]);
        // Remove the detour suffix from 5 on (but keep 5 and the target 4).
        let mut view = GraphView::new(&g);
        remove_detour_suffix(&mut view, &detour, 1, v(4));
        assert!(view.allows_vertex(v(5)));
        assert!(!view.allows_vertex(v(6)));
        assert!(view.allows_vertex(v(4)));
        let res = bfs(&view, v(0));
        // 4 reachable only along the pi path now.
        assert_eq!(res.distance(v(4)), Some(4));
    }

    #[test]
    fn detour_suffix_composes_with_pi_restriction() {
        let g = test_graph();
        let detour = Path::new(vec![v(1), v(6), v(4)]);
        // G(1, v): remove pi interior below 1, then additionally remove the
        // detour suffix from 6 on.
        let mut view = GraphView::new(&g);
        remove_pi_segment(&mut view, &pi(), 1, 4, v(4));
        remove_detour_suffix(&mut view, &detour, 1, v(4));
        assert!(view.allows_vertex(v(6)));
        assert!(!view.allows_vertex(v(2)));
        // The only surviving route to 4 diverges from the detour at 6... but
        // the detour edge (6,4) is still allowed since only vertices after 6
        // are removed and 4 is the kept target.
        let res = bfs(&view, v(0));
        assert_eq!(res.distance(v(4)), Some(3));
    }
}
