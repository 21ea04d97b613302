//! Algorithm `Cons2FTBFS` — the dual-failure FT-BFS construction of
//! Section 3, plus a canonical-selection baseline variant.
//!
//! For every target vertex `v`, the algorithm selects a replacement path for
//! every *relevant* fault event and keeps only its last edge:
//!
//! 1. **Single faults on `π(s, v)`** — the replacement path `P_{s,v,{e_i}}`
//!    is chosen with the earliest possible divergence point from `π(s, v)`
//!    (Eq. (3)); its detour `D_i` is recorded.
//! 2. **Two faults on `π(s, v)`** (`(π,π)` pairs) — the algorithm first tries
//!    to stitch the two detours `D_i`, `D_j` together; if that is not
//!    optimal it falls back to the canonical shortest path in `G ∖ F`.
//! 3. **One fault on `π(s, v)` and one on its detour** (`(π,D)` pairs) — the
//!    pairs are processed in the decreasing `(e, t)` order of the paper; a
//!    pair whose optimal distance is already realised inside the current
//!    structure contributes nothing, otherwise a *new-ending* path is chosen
//!    with the earliest π-divergence point and, when the divergence point
//!    coincides with the detour's start, the earliest detour-divergence point
//!    (Eq. (4)).
//!
//! The output structure is `H = T_0(s) ∪ ⋃_v H(v)` where `H(v)` collects the
//! selected last edges.  Theorem 1.1 bounds `|E(H)|` by `O(n^{5/3})`.

use crate::multi::multi_failure_ftbfs;
use crate::structure::FtBfsStructure;
use ftbfs_graph::{EdgeId, FaultSet, Graph, Path, SearchEngine, SpTree, TieBreak, VertexId};
use ftbfs_paths::detour::{Decomposition, Detour};
use ftbfs_paths::replacement::SingleFailureReplacer;
use ftbfs_paths::select::{earliest_detour_divergence, earliest_pi_divergence};
use std::collections::HashSet;

/// How replacement paths are selected during construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// The paper's preference rules (earliest π-divergence, then earliest
    /// detour divergence); this is the variant whose size is bounded by
    /// `O(n^{5/3})` in Theorem 1.1.
    PaperPreference,
    /// Canonical `W`-unique shortest paths over all relevant fault sets
    /// (the generic `f = 2` construction).  Correct, simpler, but without the
    /// paper's worst-case size analysis; used as an ablation baseline.
    Canonical,
}

/// A recorded step-1 detour: which π-edge it protects and the three-segment
/// decomposition of the chosen replacement path.
#[derive(Clone, Debug)]
pub struct DetourRecord {
    /// The protected edge `e_i ∈ π(s, v)`.
    pub protected_edge: EdgeId,
    /// Position (edge index from the source) of `e_i` on `π(s, v)`.
    pub edge_index: usize,
    /// The decomposition `π(s, x_i) ∘ D_i ∘ π(y_i, v)` of `P_{s,v,{e_i}}`.
    pub decomposition: Decomposition,
}

/// A recorded new-ending `(π, D)` replacement path produced by step (3).
#[derive(Clone, Debug)]
pub struct NewEndingRecord {
    /// The first failing edge `e_τ ∈ π(s, v)`.
    pub first_fault: EdgeId,
    /// The second failing edge `t_τ` on the detour of `P_{s,v,{e_τ}}`.
    pub second_fault: EdgeId,
    /// Index into [`VertexRecord::detours`] of the detour carrying
    /// `second_fault`.
    pub detour_index: usize,
    /// The selected replacement path.
    pub path: Path,
    /// The π-divergence point `b` of the selected path.
    pub pi_divergence: VertexId,
    /// The detour-divergence point `c`, when the path leaves `π(s, v)` at the
    /// detour's start and later leaves the detour.
    pub detour_divergence: Option<VertexId>,
}

/// A recorded `(π, π)` replacement path produced by step (2) that introduced
/// a new last edge.
#[derive(Clone, Debug)]
pub struct PiPiRecord {
    /// The two failing edges, both on `π(s, v)`.
    pub faults: FaultSet,
    /// The selected replacement path.
    pub path: Path,
}

/// Everything the construction learned about one target vertex; consumed by
/// the structural-analysis crate and the per-vertex experiments.
#[derive(Clone, Debug)]
pub struct VertexRecord {
    /// The target vertex `v`.
    pub vertex: VertexId,
    /// The canonical path `π(s, v)`.
    pub pi: Path,
    /// Step-1 detours, in increasing order of the protected edge's depth.
    pub detours: Vec<DetourRecord>,
    /// Step-2 `(π,π)` paths that contributed a new last edge.
    pub pi_pi_new: Vec<PiPiRecord>,
    /// Step-3 new-ending `(π,D)` paths.
    pub new_ending: Vec<NewEndingRecord>,
    /// The new edges `New(v) = H(v) ∖ E(v, T_0)` incident to `v`, in
    /// increasing edge-id order.
    pub new_edges: Vec<EdgeId>,
}

/// The result of running the dual-failure construction: the structure itself
/// plus (optionally) the per-vertex records used for structural analysis.
#[derive(Clone, Debug)]
pub struct DualFtBfs {
    /// The constructed dual-failure FT-BFS structure.
    pub structure: FtBfsStructure,
    /// Per-vertex construction records (present when recording was enabled).
    pub records: Vec<VertexRecord>,
}

/// Builder for dual-failure FT-BFS structures.
///
/// # Examples
///
/// ```
/// use ftbfs_core::dual::DualFtBfsBuilder;
/// use ftbfs_graph::{generators, TieBreak, VertexId};
///
/// let g = generators::cycle(8);
/// let w = TieBreak::new(&g, 1);
/// let result = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build();
/// // On a cycle, two failures can disconnect v, but every single edge is
/// // needed for some single failure already: H is the whole cycle.
/// assert_eq!(result.structure.edge_count(), 8);
/// ```
pub struct DualFtBfsBuilder<'g> {
    graph: &'g Graph,
    w: &'g TieBreak,
    source: VertexId,
    strategy: SelectionStrategy,
    record: bool,
    threads: usize,
}

impl<'g> DualFtBfsBuilder<'g> {
    /// Creates a builder with the paper's selection strategy and recording
    /// disabled.
    pub fn new(graph: &'g Graph, w: &'g TieBreak, source: VertexId) -> Self {
        DualFtBfsBuilder {
            graph,
            w,
            source,
            strategy: SelectionStrategy::PaperPreference,
            record: false,
            threads: 1,
        }
    }

    /// Chooses the selection strategy.
    pub fn strategy(mut self, strategy: SelectionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enables per-vertex construction records (needed by `ftbfs-analysis`).
    pub fn record_paths(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// Number of worker threads for the per-vertex construction loop
    /// (default 1).  The per-target computations of `Cons2FTBFS` are
    /// independent, so the targets are split into contiguous chunks and the
    /// partial results merged back in vertex-id order — the produced
    /// structure and records are identical for every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs the construction.
    pub fn build(&self) -> DualFtBfs {
        match self.strategy {
            SelectionStrategy::Canonical => DualFtBfs {
                structure: multi_failure_ftbfs(self.graph, self.w, self.source, 2),
                records: Vec::new(),
            },
            SelectionStrategy::PaperPreference => self.build_paper(),
        }
    }

    fn build_paper(&self) -> DualFtBfs {
        let graph = self.graph;
        let w = self.w;
        let source = self.source;
        let tree = SpTree::new(graph, w, source);

        let targets: Vec<VertexId> = graph
            .vertices()
            .filter(|&v| v != source && tree.reaches(v))
            .collect();
        let threads = self.threads.min(targets.len().max(1));

        // Each worker owns a replacer and a search engine; targets are split
        // into contiguous chunks, so concatenating the per-chunk outputs in
        // spawn order restores the global vertex-id order deterministically.
        let run_chunk = |chunk: &[VertexId]| -> Vec<(Vec<EdgeId>, VertexRecord)> {
            let replacer = SingleFailureReplacer::new(graph, w, &tree);
            let mut engine = SearchEngine::new();
            chunk
                .iter()
                .map(|&v| self.construct_for_vertex(&mut engine, &tree, &replacer, v))
                .collect()
        };
        let results: Vec<(Vec<EdgeId>, VertexRecord)> = if threads <= 1 {
            run_chunk(&targets)
        } else {
            let chunk_size = targets.len().div_ceil(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = targets
                    .chunks(chunk_size)
                    .map(|chunk| scope.spawn(move || run_chunk(chunk)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("construction worker panicked"))
                    .collect()
            })
        };

        let mut h = FtBfsStructure::new(vec![source], 2);
        h.extend(tree.tree_edges().iter().copied());
        let mut records = Vec::new();
        for (edges_v, record) in results {
            h.extend(edges_v);
            if self.record {
                records.push(record);
            }
        }
        DualFtBfs {
            structure: h,
            records,
        }
    }

    /// Runs steps (1)–(3) for a single target vertex and returns `H(v)`
    /// (the selected last edges, including `E(v, T_0)`), plus the record.
    fn construct_for_vertex(
        &self,
        engine: &mut SearchEngine,
        tree: &SpTree,
        replacer: &SingleFailureReplacer<'_>,
        v: VertexId,
    ) -> (Vec<EdgeId>, VertexRecord) {
        let graph = self.graph;
        let w = self.w;
        let source = self.source;
        let pi = tree.pi(v).expect("reachable vertex has a canonical path");
        let pi_edges: Vec<EdgeId> = pi.edge_ids(graph);

        // E(v, T_0): tree edges incident to v.
        let tree_incident: Vec<EdgeId> = graph
            .incident_edges(v)
            .filter(|e| tree.contains_edge(*e))
            .collect();
        let mut current: HashSet<EdgeId> = tree_incident.iter().copied().collect();

        // ---- Step (1): single faults on pi(s, v). -------------------------
        // `detour_at_edge[i]` is the index into `detours` of the detour
        // protecting the i-th π edge, so steps (2)/(3) can look a detour up
        // in O(1) instead of scanning.
        let mut detours: Vec<DetourRecord> = Vec::new();
        let mut detour_at_edge: Vec<Option<usize>> = vec![None; pi_edges.len()];
        for (idx, &e) in pi_edges.iter().enumerate() {
            if let Some(dec) = replacer.earliest_divergence_replacement(engine, v, e) {
                let full = dec.reassemble();
                if let Some(last) = full.last_edge_id(graph) {
                    current.insert(last);
                }
                detour_at_edge[idx] = Some(detours.len());
                detours.push(DetourRecord {
                    protected_edge: e,
                    edge_index: idx,
                    decomposition: dec,
                });
            }
        }

        // ---- Step (2): two faults on pi(s, v). ----------------------------
        let mut pi_pi_new: Vec<PiPiRecord> = Vec::new();
        for i in 0..pi_edges.len() {
            for j in (i + 1)..pi_edges.len() {
                let faults = FaultSet::pair(pi_edges[i], pi_edges[j]);
                let Some(target_hops) = fault_distance(engine, graph, source, v, &faults) else {
                    continue; // v disconnected under F: nothing to protect.
                };
                // First try the stitched path through the two detours.
                let stitched = self
                    .stitch_detours(&pi, &detours, &detour_at_edge, i, j, v)
                    .filter(|p| p.len() as u32 == target_hops)
                    .filter(|p| !faults.intersects_path(graph, p));
                let chosen = match stitched {
                    Some(p) => p,
                    None => {
                        engine.overlay.begin(graph);
                        engine.overlay.remove_faults(&faults);
                        let view = engine.overlay.view(graph);
                        match engine.workspace.canonical_path(&view, w, source, v) {
                            Some(p) => p,
                            None => continue,
                        }
                    }
                };
                if let Some(last) = chosen.last_edge_id(graph) {
                    let is_new = current.insert(last);
                    if is_new && self.record {
                        pi_pi_new.push(PiPiRecord {
                            faults: faults.clone(),
                            path: chosen.clone(),
                        });
                    }
                }
            }
        }

        // ---- Step (3): one fault on pi(s, v), one on its detour. ----------
        // Build the pair list in the paper's decreasing (e, t) order: deepest
        // first failing edge first; ties broken by deepest position of the
        // second fault on the detour.
        let mut pairs: Vec<(usize, EdgeId, EdgeId, usize)> = Vec::new();
        for dr in detours.iter() {
            let detour = &dr.decomposition.detour;
            let detour_edges = detour.edge_ids(graph);
            for (t_pos, &t) in detour_edges.iter().enumerate() {
                pairs.push((dr.edge_index, dr.protected_edge, t, t_pos));
            }
        }
        pairs.sort_by(|a, b| b.0.cmp(&a.0).then(b.3.cmp(&a.3)));

        let mut new_ending: Vec<NewEndingRecord> = Vec::new();
        for &(e_index, e, t, _t_pos) in &pairs {
            let faults = FaultSet::pair(e, t);
            let Some(target_hops) = fault_distance(engine, graph, source, v, &faults) else {
                continue;
            };
            // Is the pair already satisfied by the current structure at v?
            engine.overlay.begin(graph);
            engine.overlay.restrict_incident(v, current.iter().copied());
            engine.overlay.remove_faults(&faults);
            let view = engine.overlay.view(graph);
            let current_hops = engine.workspace.bfs_hops(&view, source, v);
            if current_hops == Some(target_hops) {
                continue;
            }
            // New-ending: select with the divergence-point preferences.
            let d_idx =
                detour_at_edge[e_index].expect("pair was generated from an existing detour");
            let detour = &detours[d_idx].decomposition.detour;
            let ep = graph.endpoints(e);
            let upper = upper_on_path(&pi, ep.u, ep.v);
            let Some(choice) = earliest_pi_divergence(
                engine,
                graph,
                w,
                &pi,
                v,
                upper,
                v,
                &faults,
                Some(target_hops),
            ) else {
                continue;
            };
            let (path, pi_div, d_div) = if choice.divergence == detour.x {
                // The path leaves pi exactly where the detour does: impose the
                // earliest detour-divergence preference.
                let tp = graph.endpoints(t);
                let upper_t = upper_on_detour(detour, tp.u, tp.v);
                match earliest_detour_divergence(
                    engine,
                    graph,
                    w,
                    &pi,
                    detour,
                    v,
                    upper_t,
                    &faults,
                    Some(target_hops),
                ) {
                    Some(c2) => (c2.path, choice.divergence, Some(c2.divergence)),
                    None => (choice.path, choice.divergence, None),
                }
            } else {
                (choice.path, choice.divergence, None)
            };
            if let Some(last) = path.last_edge_id(graph) {
                let is_new = current.insert(last);
                if is_new && self.record {
                    new_ending.push(NewEndingRecord {
                        first_fault: e,
                        second_fault: t,
                        detour_index: d_idx,
                        path: path.clone(),
                        pi_divergence: pi_div,
                        detour_divergence: d_div,
                    });
                }
            }
        }

        // Sorted, so H(v) and New(v) do not depend on HashSet iteration
        // order, which changes from run to run.
        let mut h_v: Vec<EdgeId> = current.into_iter().collect();
        h_v.sort_unstable();
        let new_edges: Vec<EdgeId> = h_v
            .iter()
            .copied()
            .filter(|e| !tree.contains_edge(*e))
            .collect();
        let record = VertexRecord {
            vertex: v,
            pi,
            detours: if self.record { detours } else { Vec::new() },
            pi_pi_new,
            new_ending,
            new_edges,
        };
        (h_v, record)
    }

    /// The step-2 "stitched" candidate `π(s,x_i) ∘ D_i[x_i,w] ∘ D_j[w,y_j] ∘ π(y_j,v)`
    /// where `w` is the last vertex on `D_j` common to `D_i`.  Returns `None`
    /// when the detours are missing, disjoint, or the stitched walk is not a
    /// simple path.
    fn stitch_detours(
        &self,
        pi: &Path,
        detours: &[DetourRecord],
        detour_at_edge: &[Option<usize>],
        i: usize,
        j: usize,
        v: VertexId,
    ) -> Option<Path> {
        let di = &detours[detour_at_edge[i]?];
        let dj = &detours[detour_at_edge[j]?];
        let d_i = &di.decomposition.detour;
        let d_j = &dj.decomposition.detour;
        let common: HashSet<VertexId> = d_i.path.vertices().iter().copied().collect();
        // Last vertex on D_j that also lies on D_i.
        let w = d_j
            .path
            .vertices()
            .iter()
            .copied()
            .rev()
            .find(|x| common.contains(x))?;
        let prefix = pi.prefix(d_i.x);
        let along_di = d_i.path.prefix(w);
        let along_dj = d_j.path.suffix(w);
        let suffix = pi.suffix(d_j.y);
        let stitched = prefix.concat(&along_di).concat(&along_dj).concat(&suffix);
        if !stitched.is_simple() || stitched.target() != v {
            return None;
        }
        Some(stitched)
    }
}

/// The hop distance `dist(s, v, G ∖ F)`, or `None` if disconnected — a
/// pure-distance query on the engine's unweighted fast path.
fn fault_distance(
    engine: &mut SearchEngine,
    graph: &Graph,
    source: VertexId,
    v: VertexId,
    faults: &FaultSet,
) -> Option<u32> {
    engine.overlay.begin(graph);
    engine.overlay.remove_faults(faults);
    let view = engine.overlay.view(graph);
    engine.workspace.bfs_hops(&view, source, v)
}

/// Of the two endpoints of an edge on `path`, returns the one closer to the
/// path's source.
fn upper_on_path(path: &Path, a: VertexId, b: VertexId) -> VertexId {
    let pa = path.position(a).expect("endpoint lies on path");
    let pb = path.position(b).expect("endpoint lies on path");
    if pa < pb {
        a
    } else {
        b
    }
}

/// Of the two endpoints of an edge on a detour, returns the one closer to the
/// detour's start `x`.
fn upper_on_detour(detour: &Detour, a: VertexId, b: VertexId) -> VertexId {
    let pa = detour.position(a).expect("endpoint lies on detour");
    let pb = detour.position(b).expect("endpoint lies on detour");
    if pa < pb {
        a
    } else {
        b
    }
}

/// Convenience wrapper: builds a dual-failure FT-BFS with the paper's
/// selection rules and no recording.
pub fn dual_failure_ftbfs(graph: &Graph, w: &TieBreak, source: VertexId) -> FtBfsStructure {
    DualFtBfsBuilder::new(graph, w, source).build().structure
}

/// Convenience wrapper: multi-source dual-failure FT-MBFS (union of the
/// per-source structures).
pub fn dual_failure_ftmbfs(graph: &Graph, w: &TieBreak, sources: &[VertexId]) -> FtBfsStructure {
    let mut h = FtBfsStructure::new(sources.to_vec(), 2);
    for &s in sources {
        h.extend(dual_failure_ftbfs(graph, w, s).edges());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::{bfs, generators, GraphView};

    /// Exhaustively checks the dual-failure FT-BFS property over all fault
    /// sets of size ≤ 2 (small graphs only).
    fn verify_dual(graph: &Graph, h: &FtBfsStructure, source: VertexId) {
        let edges: Vec<_> = graph.edges().collect();
        let mut fault_sets = vec![FaultSet::empty()];
        for &e in &edges {
            fault_sets.push(FaultSet::single(e));
        }
        for i in 0..edges.len() {
            for j in (i + 1)..edges.len() {
                fault_sets.push(FaultSet::pair(edges[i], edges[j]));
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
    fn cycle_needs_all_edges() {
        let g = generators::cycle(7);
        let w = TieBreak::new(&g, 1);
        let r = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build();
        assert_eq!(r.structure.edge_count(), 7);
        verify_dual(&g, &r.structure, VertexId(0));
    }

    #[test]
    fn grid_structure_verifies() {
        let g = generators::grid(3, 4);
        let w = TieBreak::new(&g, 5);
        let r = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build();
        verify_dual(&g, &r.structure, VertexId(0));
        assert!(r.structure.edge_count() <= g.edge_count());
    }

    #[test]
    fn random_graphs_verify_with_paper_preference() {
        for seed in 0..4 {
            let g = generators::connected_gnp(14, 0.18, seed);
            let w = TieBreak::new(&g, seed);
            let r = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build();
            verify_dual(&g, &r.structure, VertexId(0));
        }
    }

    #[test]
    fn random_graphs_verify_with_canonical_strategy() {
        for seed in 0..3 {
            let g = generators::tree_plus_chords(13, 6, seed + 50);
            let w = TieBreak::new(&g, seed);
            let r = DualFtBfsBuilder::new(&g, &w, VertexId(0))
                .strategy(SelectionStrategy::Canonical)
                .build();
            verify_dual(&g, &r.structure, VertexId(0));
        }
    }

    #[test]
    fn structure_contains_bfs_tree_and_single_failure_structure_edges_for_v() {
        let g = generators::connected_gnp(16, 0.2, 8);
        let w = TieBreak::new(&g, 8);
        let tree = SpTree::new(&g, &w, VertexId(0));
        let r = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build();
        for &e in tree.tree_edges() {
            assert!(r.structure.contains(e));
        }
        // A dual structure is also resilient to single faults.
        verify_dual(&g, &r.structure, VertexId(0));
    }

    #[test]
    fn records_are_populated_when_requested() {
        let g = generators::connected_gnp(14, 0.22, 3);
        let w = TieBreak::new(&g, 3);
        let r = DualFtBfsBuilder::new(&g, &w, VertexId(0))
            .record_paths(true)
            .build();
        assert!(!r.records.is_empty());
        for rec in &r.records {
            assert_eq!(rec.pi.source(), VertexId(0));
            assert_eq!(rec.pi.target(), rec.vertex);
            for dr in &rec.detours {
                // Detours are edge-disjoint from pi except at endpoints.
                let d = &dr.decomposition.detour;
                assert!(rec.pi.contains_vertex(d.x));
                assert!(rec.pi.contains_vertex(d.y));
            }
            for ne in &rec.new_ending {
                assert_eq!(ne.path.target(), rec.vertex);
                // The path avoids both of its faults.
                let f = FaultSet::pair(ne.first_fault, ne.second_fault);
                assert!(!f.intersects_path(&g, &ne.path));
            }
        }
        let no_records = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build();
        assert!(no_records.records.is_empty());
    }

    #[test]
    fn multi_source_dual_structure_verifies_for_each_source() {
        let g = generators::tree_plus_chords(12, 5, 21);
        let w = TieBreak::new(&g, 21);
        let sources = [VertexId(0), VertexId(6)];
        let h = dual_failure_ftmbfs(&g, &w, &sources);
        for &s in &sources {
            verify_dual(&g, &h, s);
        }
    }

    #[test]
    fn paper_preference_not_larger_than_whole_graph_and_at_least_tree() {
        let g = generators::connected_gnp(20, 0.15, 9);
        let w = TieBreak::new(&g, 9);
        let h = dual_failure_ftbfs(&g, &w, VertexId(0));
        assert!(h.edge_count() >= g.vertex_count() - 1);
        assert!(h.edge_count() <= g.edge_count());
    }
}
