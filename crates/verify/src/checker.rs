//! Exhaustive and sampled verification of the `f`-FT-MBFS property.
//!
//! By definition (Section 2), a subgraph `H ⊆ G` is an `f`-FT-MBFS structure
//! for a source set `S` iff `dist(s, v, H ∖ F) = dist(s, v, G ∖ F)` for every
//! `(s, v) ∈ S × V` and every `F ⊆ E` with `|F| ≤ f`.  The exhaustive checker
//! enumerates every such `F` (feasible for small graphs: `O(m^f)` BFS pairs);
//! the sampled checker draws random fault sets and is used as a statistical
//! smoke test on larger instances.

use crate::report::{VerificationReport, Violation};
use ftbfs_graph::fault::enumerate_fault_sets;
use ftbfs_graph::{bfs, EdgeId, FaultSpec, Graph, GraphView, VertexId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// Compares `G ∖ F` and `H ∖ F` distances from every source for one fault
/// set, appending violations to `report`.
fn check_fault_set(
    graph: &Graph,
    structure: &HashSet<EdgeId>,
    sources: &[VertexId],
    faults: &FaultSpec,
    report: &mut VerificationReport,
) {
    report.checked_fault_sets += 1;
    let removed: Vec<EdgeId> = graph.edges().filter(|e| !structure.contains(e)).collect();
    for &s in sources {
        report.checked_comparisons += 1;
        let gview = GraphView::new(graph).without_faults(faults);
        let hview = GraphView::new(graph)
            .without_edges(removed.iter().copied())
            .without_faults(faults);
        let gd = bfs(&gview, s);
        let hd = bfs(&hview, s);
        for v in graph.vertices() {
            let expected = gd.distance(v);
            let actual = hd.distance(v);
            if expected != actual {
                report.violations.push(Violation {
                    source: s,
                    vertex: v,
                    faults: faults.clone(),
                    expected,
                    actual,
                });
            }
        }
    }
}

/// Exhaustively verifies that the structure (given by its edge set) is an
/// `f`-FT-MBFS structure for `sources`.
///
/// Cost: `O(m^f)` fault sets, each with one BFS in `G` and one in `H` per
/// source.  Intended for small graphs and `f ≤ 2` (or `f = 3` on tiny
/// graphs).
pub fn verify_exhaustive<I>(
    graph: &Graph,
    structure_edges: I,
    sources: &[VertexId],
    f: usize,
) -> VerificationReport
where
    I: IntoIterator<Item = EdgeId>,
{
    let structure: HashSet<EdgeId> = structure_edges.into_iter().collect();
    let mut report = VerificationReport::default();
    for faults in enumerate_fault_sets(graph, f) {
        check_fault_set(graph, &structure, sources, &faults, &mut report);
    }
    report
}

/// Verifies the structure against `samples` random fault sets of size exactly
/// `min(f, m)` (plus the empty set and all single-edge faults when `f ≥ 1`,
/// which are cheap and catch most regressions).
pub fn verify_sampled<I>(
    graph: &Graph,
    structure_edges: I,
    sources: &[VertexId],
    f: usize,
    samples: usize,
    seed: u64,
) -> VerificationReport
where
    I: IntoIterator<Item = EdgeId>,
{
    let structure: HashSet<EdgeId> = structure_edges.into_iter().collect();
    let mut report = VerificationReport::default();
    check_fault_set(graph, &structure, sources, &FaultSpec::None, &mut report);
    if f >= 1 {
        for e in graph.edges() {
            check_fault_set(graph, &structure, sources, &FaultSpec::from(e), &mut report);
        }
    }
    if f >= 2 && graph.edge_count() >= 2 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let edges: Vec<EdgeId> = graph.edges().collect();
        let mut seen: HashSet<FaultSpec> = HashSet::new();
        for _ in 0..samples {
            let mut pick = edges.clone();
            pick.shuffle(&mut rng);
            let fs = FaultSpec::from_edges(pick.into_iter().take(f.min(edges.len())));
            if seen.insert(fs.clone()) {
                check_fault_set(graph, &structure, sources, &fs, &mut report);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::generators;

    #[test]
    fn whole_graph_always_verifies() {
        let g = generators::connected_gnp(12, 0.25, 1);
        let r = verify_exhaustive(&g, g.edges(), &[VertexId(0)], 2);
        assert!(r.is_valid(), "{r}");
        assert!(r.checked_fault_sets > 1);
    }

    #[test]
    fn bfs_tree_alone_fails_single_failure_on_a_cycle() {
        let g = generators::cycle(6);
        // Take a BFS tree from vertex 0 (drop the far edge (3,4) of the
        // cycle): correct fault-free but not 1-fault resilient.
        let dropped = g.edge_between(VertexId(3), VertexId(4)).unwrap();
        let edges: Vec<EdgeId> = g.edges().filter(|&e| e != dropped).collect();
        let r = verify_exhaustive(&g, edges, &[VertexId(0)], 1);
        assert!(!r.is_valid());
        let v = r.first_violation().unwrap();
        assert!(v.expected.is_some());
        // The violating fault must be an edge of the cycle other than the
        // dropped one (failing the dropped edge changes nothing for H).
        assert!(!v.faults.is_empty());
    }

    #[test]
    fn empty_fault_set_catches_missing_tree_edges() {
        let g = generators::path(5);
        // Structure missing the last path edge cannot even serve F = ∅.
        let edges: Vec<EdgeId> = g.edges().take(3).collect();
        let r = verify_exhaustive(&g, edges, &[VertexId(0)], 0);
        assert!(!r.is_valid());
        assert_eq!(r.checked_fault_sets, 1);
        assert_eq!(r.first_violation().unwrap().actual, None);
    }

    #[test]
    fn sampled_verification_agrees_with_exhaustive_on_small_graphs() {
        let g = generators::tree_plus_chords(10, 4, 3);
        let full = verify_exhaustive(&g, g.edges(), &[VertexId(0)], 2);
        let sampled = verify_sampled(&g, g.edges(), &[VertexId(0)], 2, 30, 7);
        assert!(full.is_valid());
        assert!(sampled.is_valid());
        assert!(sampled.checked_fault_sets <= full.checked_fault_sets);
    }

    #[test]
    fn multi_source_verification_checks_each_source() {
        let g = generators::cycle(5);
        let r = verify_exhaustive(&g, g.edges(), &[VertexId(0), VertexId(2)], 1);
        assert!(r.is_valid());
        assert_eq!(r.checked_comparisons, r.checked_fault_sets * 2);
    }
}
