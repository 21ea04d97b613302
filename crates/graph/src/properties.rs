//! Global graph properties: connectivity, bridges, diameter, degree
//! statistics and the `f`-fault-tolerant diameter `D_f(G)` of Observation 1.6.

use crate::bfs::bfs;
use crate::fault::{FaultSpec, GraphView};
use crate::graph::{EdgeId, Graph, VertexId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Returns `true` if the graph is connected (vacuously true for the empty
/// graph and single vertices).
pub fn is_connected(graph: &Graph) -> bool {
    if graph.vertex_count() <= 1 {
        return true;
    }
    let res = bfs(&GraphView::new(graph), VertexId(0));
    res.reached_count() == graph.vertex_count()
}

/// The exact diameter of the graph (maximum eccentricity over all vertices),
/// or `None` if the graph is disconnected or empty.
///
/// Runs `n` BFS traversals; intended for the small/medium graphs used in the
/// experiments.
pub fn diameter(graph: &Graph) -> Option<u32> {
    if graph.vertex_count() == 0 || !is_connected(graph) {
        return None;
    }
    let view = GraphView::new(graph);
    let mut best = 0;
    for v in graph.vertices() {
        best = best.max(bfs(&view, v).eccentricity());
    }
    Some(best)
}

/// The eccentricity of `source`: the largest distance from it to any
/// reachable vertex.
pub fn eccentricity(graph: &Graph, source: VertexId) -> u32 {
    bfs(&GraphView::new(graph), source).eccentricity()
}

/// Minimum, maximum and mean degree of the graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Smallest vertex degree.
    pub min: usize,
    /// Largest vertex degree.
    pub max: usize,
    /// Average vertex degree (`2m / n`).
    pub mean: f64,
}

/// Computes [`DegreeStats`] for the graph.  Returns zeros for the empty graph.
pub fn degree_stats(graph: &Graph) -> DegreeStats {
    let n = graph.vertex_count();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
        };
    }
    let mut min = usize::MAX;
    let mut max = 0;
    for v in graph.vertices() {
        let d = graph.degree(v);
        min = min.min(d);
        max = max.max(d);
    }
    DegreeStats {
        min,
        max,
        mean: 2.0 * graph.edge_count() as f64 / n as f64,
    }
}

/// The bridge edges of `G ∖ F`: edges whose single removal (on top of the
/// fault set `F`) disconnects their component.
///
/// This is the biconnected-components pass behind the adversarial fault
/// scenarios: a bridge is a 1-cut, and pairing a surviving edge `e` with a
/// bridge of `G ∖ {e}` yields a genuine 2-cut — exactly the fault pairs a
/// dual-failure-resilient structure must survive (by reporting the true,
/// possibly infinite, post-failure distances).
///
/// Runs one iterative DFS (Tarjan lowlink) in `O(n + m)`; the returned
/// edge ids are sorted.
pub fn bridges_under(graph: &Graph, faults: &FaultSpec) -> Vec<EdgeId> {
    let n = graph.vertex_count();
    let mut disc = vec![0u32; n]; // 0 = unvisited, otherwise 1-based time
    let mut low = vec![0u32; n];
    let mut out = Vec::new();
    let mut timer = 1u32;
    // Explicit DFS frames (vertex, incoming edge id or MAX, next nbr idx)
    // so deep corridor graphs cannot overflow the call stack.
    let mut stack: Vec<(u32, u32, usize)> = Vec::new();
    for start in 0..n {
        if disc[start] != 0 {
            continue;
        }
        disc[start] = timer;
        low[start] = timer;
        timer += 1;
        stack.push((start as u32, u32::MAX, 0));
        while let Some(frame) = stack.last_mut() {
            let v = frame.0 as usize;
            let nbrs = graph.neighbors(VertexId(frame.0));
            if frame.2 < nbrs.len() {
                let (w, e) = nbrs[frame.2];
                frame.2 += 1;
                // Skip the tree edge back to the parent (the graph is
                // simple, so matching by edge id is unambiguous) and any
                // faulted edge.
                if e.0 == frame.1 || faults.contains(e) {
                    continue;
                }
                let wi = w.index();
                if disc[wi] == 0 {
                    disc[wi] = timer;
                    low[wi] = timer;
                    timer += 1;
                    stack.push((w.0, e.0, 0));
                } else {
                    low[v] = low[v].min(disc[wi]);
                }
            } else {
                let (_, incoming, _) = *frame;
                stack.pop();
                if let Some(parent) = stack.last_mut() {
                    let p = parent.0 as usize;
                    if low[v] > disc[p] {
                        out.push(EdgeId(incoming));
                    }
                    low[p] = low[p].min(low[v]);
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// The bridge edges of the graph — see [`bridges_under`].
pub fn bridges(graph: &Graph) -> Vec<EdgeId> {
    bridges_under(graph, &FaultSpec::None)
}

/// Estimates the `f`-fault-tolerant eccentricity of `source`:
/// `max { dist(source, v, G ∖ F) : |F| ≤ f - 1, v reachable }`,
/// the quantity `D_f(G)` of Observation 1.6 restricted to one source.
///
/// For `f ≤ 1` this is the plain eccentricity.  For larger `f`, the maximum
/// is taken over `samples` random fault sets drawn from the edges of the
/// graph (an exhaustive enumeration would be `O(m^{f-1})` BFS runs); the
/// returned value is therefore a lower bound on the true FT-eccentricity,
/// which is sufficient for the scaling experiment it supports.
pub fn ft_eccentricity_estimate(
    graph: &Graph,
    source: VertexId,
    f: usize,
    samples: usize,
    seed: u64,
) -> u32 {
    let base = eccentricity(graph, source);
    if f <= 1 || graph.edge_count() == 0 {
        return base;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let edges: Vec<_> = graph.edges().collect();
    let mut best = base;
    for _ in 0..samples {
        let mut chosen = edges.clone();
        chosen.shuffle(&mut rng);
        let faults = FaultSpec::from_edges(chosen.into_iter().take(f - 1));
        let view = GraphView::new(graph).without_faults(&faults);
        let res = bfs(&view, source);
        // Only count vertices still reachable: D_f is defined over surviving
        // distances.
        best = best.max(res.eccentricity());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn connectivity_checks() {
        assert!(is_connected(&generators::cycle(5)));
        assert!(is_connected(&generators::path(1)));
        let mut b = crate::graph::GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1));
        let g = b.build();
        assert!(!is_connected(&g));
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&generators::path(10)), Some(9));
        assert_eq!(diameter(&generators::cycle(10)), Some(5));
        assert_eq!(diameter(&generators::complete(6)), Some(1));
        assert_eq!(diameter(&generators::grid(3, 3)), Some(4));
        let mut b = crate::graph::GraphBuilder::new(3);
        b.add_edge(VertexId(0), VertexId(1));
        assert_eq!(diameter(&b.build()), None);
    }

    #[test]
    fn eccentricity_values() {
        let g = generators::path(7);
        assert_eq!(eccentricity(&g, VertexId(0)), 6);
        assert_eq!(eccentricity(&g, VertexId(3)), 3);
    }

    #[test]
    fn degree_statistics() {
        let g = generators::star(6);
        let stats = degree_stats(&g);
        assert_eq!(stats.min, 1);
        assert_eq!(stats.max, 6);
        assert!((stats.mean - 12.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn bridges_of_known_graphs() {
        // Every edge of a path or tree is a bridge.
        let p = generators::path(6);
        assert_eq!(bridges(&p).len(), 5);
        let t = generators::balanced_binary_tree(3);
        assert_eq!(bridges(&t).len(), t.edge_count());
        // Cycles, grids and complete graphs are 2-edge-connected.
        assert!(bridges(&generators::cycle(8)).is_empty());
        assert!(bridges(&generators::grid(4, 5)).is_empty());
        assert!(bridges(&generators::complete(5)).is_empty());
        // Two triangles joined by one edge: exactly that edge.
        let mut b = crate::graph::GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_edge(VertexId(u), VertexId(v));
        }
        let joiner = VertexId(2);
        b.add_edge(joiner, VertexId(3));
        let g = b.build();
        let bridges = bridges(&g);
        assert_eq!(bridges.len(), 1);
        assert_eq!(
            g.endpoints(bridges[0]),
            crate::graph::Endpoints::new(joiner, VertexId(3))
        );
    }

    #[test]
    fn bridges_under_faults_finds_two_cuts() {
        // A cycle has no bridges, but removing any one edge makes every
        // surviving edge a bridge: each {e, e'} pair is a 2-cut.
        let g = generators::cycle(7);
        assert!(bridges(&g).is_empty());
        let e = crate::graph::EdgeId(0);
        let under = bridges_under(&g, &FaultSpec::from(e));
        assert_eq!(under.len(), 6);
        assert!(!under.contains(&e));
        // Sorted output.
        assert!(under.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bridges_cover_disconnected_graphs() {
        let mut b = crate::graph::GraphBuilder::new(5);
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(2), VertexId(3));
        b.add_edge(VertexId(3), VertexId(4));
        b.add_edge(VertexId(4), VertexId(2));
        let g = b.build();
        // The isolated component edge is a bridge; the triangle has none.
        assert_eq!(bridges(&g).len(), 1);
    }

    #[test]
    fn ft_eccentricity_at_least_plain() {
        let g = generators::cycle(10);
        let plain = eccentricity(&g, VertexId(0));
        let ft = ft_eccentricity_estimate(&g, VertexId(0), 2, 20, 1);
        assert!(ft >= plain);
        // Removing one edge of a cycle makes it a path: eccentricity 9.
        assert_eq!(ft, 9);
        // f = 1 is exactly the plain eccentricity.
        assert_eq!(ft_eccentricity_estimate(&g, VertexId(0), 1, 5, 1), plain);
    }
}
