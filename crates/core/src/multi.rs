//! Generic `f`-failure FT-MBFS structures via relevant-fault-set enumeration.
//!
//! The paper's "last edge" principle generalises to any constant `f ≥ 1`:
//! for every target `v`, only fault sets that can actually be *reached* by a
//! chain of replacement paths matter —
//!
//! ```text
//! F = {e_1, …, e_k} is relevant for v  iff  e_1 ∈ π(s,v),
//!     e_2 ∈ P_{s,v,{e_1}},  e_3 ∈ P_{s,v,{e_1,e_2}},  …
//! ```
//!
//! (the final paragraph of Section 1 sketches exactly this hierarchy of
//! detours `D_1, D_2, …`).  For every relevant `F` the construction adds the
//! last edge of the canonical replacement path `SP(s, v, G ∖ F, W)`.  The
//! correctness argument is the `f`-failure analogue of Lemma 3.2: given an
//! arbitrary fault set `F`, peel off the failures that actually lie on the
//! current replacement path; after at most `|F|` steps the surviving
//! replacement path avoids all of `F`, has optimal length and ends with a
//! structure edge, and the deepest-missing-edge induction finishes the proof.
//!
//! The number of relevant fault sets per vertex is `O(L^f)` where `L` bounds
//! replacement-path lengths, so this construction is intended for constant
//! `f` and moderate graphs.  For `f = 2` it doubles as the *canonical
//! selection* baseline that `Cons2FTBFS` is compared against.

use crate::structure::FtBfsStructure;
use ftbfs_graph::{FaultSet, Graph, Path, SearchEngine, SpTree, TieBreak, VertexId};
use std::collections::HashSet;

/// Builds an `f`-failure FT-BFS structure rooted at `source` using canonical
/// (W-unique) replacement paths over all relevant fault sets.
///
/// `f = 0` returns just the BFS tree; `f = 1` coincides (up to path
/// selection) with [`crate::single::single_failure_ftbfs`]; `f = 2` is the
/// canonical-selection dual-failure structure.
pub fn multi_failure_ftbfs(
    graph: &Graph,
    w: &TieBreak,
    source: VertexId,
    f: usize,
) -> FtBfsStructure {
    let tree = SpTree::new(graph, w, source);
    let mut h = FtBfsStructure::new(vec![source], f);
    h.extend(tree.tree_edges().iter().copied());
    if f == 0 {
        return h;
    }
    let mut engine = SearchEngine::new();
    for v in graph.vertices() {
        if v == source || !tree.reaches(v) {
            continue;
        }
        let pi = tree.pi(v).expect("reachable vertex has a canonical path");
        let mut visited: HashSet<FaultSet> = HashSet::new();
        explore(
            &mut engine,
            graph,
            w,
            source,
            v,
            &pi,
            FaultSet::empty(),
            f,
            &mut visited,
            &mut h,
        );
    }
    h
}

/// Builds an `f`-failure FT-MBFS structure for a source set: the union of the
/// per-source structures.
pub fn multi_failure_ftmbfs(
    graph: &Graph,
    w: &TieBreak,
    sources: &[VertexId],
    f: usize,
) -> FtBfsStructure {
    let mut h = FtBfsStructure::new(sources.to_vec(), f);
    for part in multi_failure_ftmbfs_parts(graph, w, sources, f) {
        h.absorb(&part);
    }
    h
}

/// Builds the *per-source* `f`-failure FT-BFS structures of an FT-MBFS
/// source set, one single-source structure per source, in `sources` order.
///
/// [`multi_failure_ftmbfs`] returns the union `H = ⋃_s H_s`, which is the
/// right object for size accounting (Gupta–Khan's `S × V` sparsity bounds
/// are stated on the union).  Query *serving* wants the parts: a query from
/// source `s` only ever needs `H_s`, which is smaller than the union, so
/// `ftbfs-oracle`'s multi-source frozen structure compiles each part into
/// its own CSR slab.  `⋃` of the returned parts' edges equals
/// [`multi_failure_ftmbfs`]'s edge set.
pub fn multi_failure_ftmbfs_parts(
    graph: &Graph,
    w: &TieBreak,
    sources: &[VertexId],
    f: usize,
) -> Vec<FtBfsStructure> {
    multi_failure_ftmbfs_parts_threads(graph, w, sources, f, 1)
}

/// [`multi_failure_ftmbfs_parts`] with a worker-thread count, mirroring
/// [`crate::dual::DualFtBfsBuilder::threads`].
///
/// The per-source constructions are fully independent (each reads only the
/// shared graph and tie-break weights), so the sources are split into
/// contiguous chunks across `threads` scoped workers and the per-chunk
/// outputs concatenated in spawn order — the returned parts are
/// **bit-identical** to the serial ones, in `sources` order, for every
/// thread count.
pub fn multi_failure_ftmbfs_parts_threads(
    graph: &Graph,
    w: &TieBreak,
    sources: &[VertexId],
    f: usize,
    threads: usize,
) -> Vec<FtBfsStructure> {
    let threads = threads.max(1).min(sources.len().max(1));
    if threads <= 1 {
        return sources
            .iter()
            .map(|&s| multi_failure_ftbfs(graph, w, s, f))
            .collect();
    }
    let chunk_size = sources.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&s| multi_failure_ftbfs(graph, w, s, f))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("FT-MBFS part worker panicked"))
            .collect()
    })
}

/// Recursively explores relevant fault sets for target `v`.
///
/// `current` is the fault set accumulated so far and `current_path` (derived
/// below) the canonical replacement path avoiding it; every edge of that path
/// spawns a child fault set until the budget `remaining` is exhausted.
#[allow(clippy::too_many_arguments)]
fn explore<'g>(
    engine: &mut SearchEngine<'g>,
    graph: &'g Graph,
    w: &TieBreak,
    source: VertexId,
    v: VertexId,
    path_for_current: &Path,
    current: FaultSet,
    remaining: usize,
    visited: &mut HashSet<FaultSet>,
    h: &mut FtBfsStructure,
) {
    if remaining == 0 {
        return;
    }
    for (a, b) in path_for_current.edge_pairs() {
        let e = graph
            .edge_between(a, b)
            .expect("replacement path uses graph edges");
        let next = current.with(e);
        if next.len() == current.len() || !visited.insert(next.clone()) {
            continue;
        }
        let (view, ws) = engine.begin(graph);
        view.remove_faults(&next);
        let Some(path) = ws.canonical_path(view, w, source, v) else {
            // v disconnected under `next`: nothing to protect, and no deeper
            // fault set extending `next` along this branch is relevant.
            continue;
        };
        if let Some(last) = path.last_edge_id(graph) {
            h.insert(last);
        }
        explore(
            engine,
            graph,
            w,
            source,
            v,
            &path,
            next,
            remaining - 1,
            visited,
            h,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::{bfs, generators, GraphView};

    /// Exhaustively checks the f-FT-BFS property for all fault sets of size
    /// ≤ f (small graphs only).
    fn verify_exhaustive(graph: &Graph, h: &FtBfsStructure, source: VertexId, f: usize) {
        let edges: Vec<_> = graph.edges().collect();
        let mut fault_sets = vec![FaultSet::empty()];
        if f >= 1 {
            for &e in &edges {
                fault_sets.push(FaultSet::single(e));
            }
        }
        if f >= 2 {
            for i in 0..edges.len() {
                for j in (i + 1)..edges.len() {
                    fault_sets.push(FaultSet::pair(edges[i], edges[j]));
                }
            }
        }
        for fs in fault_sets {
            let gview = GraphView::new(graph).without_faults(&fs);
            let hview = h.as_view(graph).without_faults(&fs);
            let gd = bfs(&gview, source);
            let hd = bfs(&hview, source);
            for v in graph.vertices() {
                assert_eq!(
                    gd.distance(v),
                    hd.distance(v),
                    "mismatch at v={v:?} under {fs:?}"
                );
            }
        }
    }

    #[test]
    fn f0_is_just_the_tree() {
        let g = generators::grid(3, 3);
        let w = TieBreak::new(&g, 1);
        let h = multi_failure_ftbfs(&g, &w, VertexId(0), 0);
        assert_eq!(h.edge_count(), 8);
    }

    #[test]
    fn f1_structure_verifies() {
        let g = generators::connected_gnp(18, 0.18, 3);
        let w = TieBreak::new(&g, 3);
        let h = multi_failure_ftbfs(&g, &w, VertexId(0), 1);
        verify_exhaustive(&g, &h, VertexId(0), 1);
    }

    #[test]
    fn f2_structure_verifies_on_cycle_plus_chords() {
        let g = generators::tree_plus_chords(14, 6, 2);
        let w = TieBreak::new(&g, 2);
        let h = multi_failure_ftbfs(&g, &w, VertexId(0), 2);
        verify_exhaustive(&g, &h, VertexId(0), 2);
    }

    #[test]
    fn f2_structure_verifies_on_dense_small_graph() {
        let g = generators::gnp(12, 0.4, 9);
        // Work on the component of vertex 0 only if disconnected; gnp(0.4)
        // on 12 vertices is connected for this seed (checked by generation),
        // otherwise distances agree trivially as both sides are None.
        let w = TieBreak::new(&g, 9);
        let h = multi_failure_ftbfs(&g, &w, VertexId(0), 2);
        verify_exhaustive(&g, &h, VertexId(0), 2);
    }

    #[test]
    fn structures_grow_with_f() {
        let g = generators::connected_gnp(16, 0.2, 11);
        let w = TieBreak::new(&g, 11);
        let h0 = multi_failure_ftbfs(&g, &w, VertexId(0), 0);
        let h1 = multi_failure_ftbfs(&g, &w, VertexId(0), 1);
        let h2 = multi_failure_ftbfs(&g, &w, VertexId(0), 2);
        assert!(h0.edge_count() <= h1.edge_count());
        assert!(h1.edge_count() <= h2.edge_count());
        assert!(h2.edge_count() <= g.edge_count());
    }

    #[test]
    fn multi_source_union_verifies_for_each_source() {
        let g = generators::tree_plus_chords(12, 5, 7);
        let w = TieBreak::new(&g, 7);
        let sources = [VertexId(0), VertexId(5)];
        let h = multi_failure_ftmbfs(&g, &w, &sources, 2);
        for &s in &sources {
            verify_exhaustive(&g, &h, s, 2);
        }
    }

    #[test]
    fn parts_union_equals_ftmbfs_and_each_part_verifies() {
        let g = generators::tree_plus_chords(12, 5, 7);
        let w = TieBreak::new(&g, 7);
        let sources = [VertexId(0), VertexId(5)];
        let parts = multi_failure_ftmbfs_parts(&g, &w, &sources, 2);
        assert_eq!(parts.len(), 2);
        let union = multi_failure_ftmbfs(&g, &w, &sources, 2);
        let mut rebuilt = FtBfsStructure::new(sources.to_vec(), 2);
        for (part, &s) in parts.iter().zip(&sources) {
            assert_eq!(part.sources(), &[s]);
            assert_eq!(part.resilience(), 2);
            // Each part alone protects its own source.
            verify_exhaustive(&g, part, s, 2);
            rebuilt.absorb(part);
        }
        assert_eq!(rebuilt, union);
        // Parts are genuinely sparser than the union (on this instance).
        assert!(parts.iter().all(|p| p.edge_count() <= union.edge_count()));
    }

    #[test]
    fn threaded_parts_are_bit_identical_to_serial() {
        let g = generators::tree_plus_chords(14, 6, 13);
        let w = TieBreak::new(&g, 13);
        let sources = [VertexId(0), VertexId(4), VertexId(9), VertexId(13)];
        let serial = multi_failure_ftmbfs_parts(&g, &w, &sources, 2);
        for threads in [2usize, 3, 4, 16] {
            let parallel = multi_failure_ftmbfs_parts_threads(&g, &w, &sources, 2, threads);
            assert_eq!(serial, parallel, "parts differ with {threads} threads");
        }
    }

    #[test]
    fn f3_on_a_tiny_graph_verifies_for_pairs_and_contains_f2() {
        let g = generators::gnp(9, 0.5, 4);
        let w = TieBreak::new(&g, 4);
        let h3 = multi_failure_ftbfs(&g, &w, VertexId(0), 3);
        let h2 = multi_failure_ftbfs(&g, &w, VertexId(0), 2);
        for e in h2.edges() {
            assert!(h3.contains(e));
        }
        verify_exhaustive(&g, &h3, VertexId(0), 2);
    }
}
