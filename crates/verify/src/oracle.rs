//! A post-failure distance / routing oracle over a constructed structure.
//!
//! This is the "quality of usage" side of the paper's motivation (objective
//! (2) in the introduction): once a sparse FT-BFS structure `H` has been
//! purchased, routing queries after failures should be answered *inside* `H`
//! and still be exact.
//!
//! [`StructureOracle`] is a thin wrapper over the `ftbfs-oracle` serving
//! stack: [`StructureOracle::new`] freezes an edge set into a
//! [`FrozenStructure`], and [`StructureOracle::with_oracle`] wraps any
//! frozen structure — notably one with per-source slabs
//! ([`FrozenStructure::freeze_parts`]) — so verification runs through the
//! *same* query path that production serving uses.  Every query takes a
//! [`FaultSpec`]; `distance`, `route` and `all_distances` panic on invalid
//! queries, while [`StructureOracle::try_distance`] returns a typed error
//! and surfaces the exactness guarantee for fault sets beyond the
//! structure's resilience.

use ftbfs_graph::{bfs, EdgeId, FaultSpec, Graph, GraphView, Path, VertexId};
use ftbfs_oracle::{Answer, FrozenStructure, QueryEngine, QueryError};
use std::cell::RefCell;

/// A query oracle over a fault-tolerant BFS structure, frozen for
/// serving.
///
/// Queries take `&self` for backwards compatibility; the per-thread
/// [`QueryEngine`] scratch state lives behind a [`RefCell`], which makes the
/// oracle `!Sync`.  For multi-threaded serving, share the frozen structure and
/// give each thread its own engine (see `ftbfs_serve::ThroughputHarness`).
pub struct StructureOracle<'g> {
    graph: &'g Graph,
    oracle: FrozenStructure,
    engine: RefCell<QueryEngine>,
}

impl<'g> StructureOracle<'g> {
    /// Creates an oracle for the structure given by `structure_edges`
    /// (deduplicated), answering queries from `source`.
    ///
    /// Edge ids that do not exist in `graph` are silently ignored, matching
    /// the historical behaviour — this crate verifies output from arbitrary
    /// (possibly buggy, hand-built) constructions, so a stray id must
    /// produce a verification result, not a panic.  The strict entry point
    /// is [`FrozenStructure::from_edges`], which rejects foreign edges.
    ///
    /// Freezing runs the fault-free BFS once up front; afterwards
    /// fault-free queries are `O(1)` and faulted queries run inside the
    /// compact frozen adjacency.
    pub fn new<I>(graph: &'g Graph, source: VertexId, structure_edges: I) -> Self
    where
        I: IntoIterator<Item = EdgeId>,
    {
        let valid = structure_edges
            .into_iter()
            .filter(|&e| graph.contains_edge(e));
        let frozen = FrozenStructure::from_edges(graph, &[source], 2, valid);
        StructureOracle::with_oracle(graph, frozen)
    }

    /// Wraps an already-frozen structure (single- or multi-source).
    pub fn with_oracle(graph: &'g Graph, oracle: FrozenStructure) -> Self {
        StructureOracle {
            graph,
            oracle,
            engine: RefCell::new(QueryEngine::new()),
        }
    }

    /// The source queries default to (the structure's primary source).
    pub fn source(&self) -> VertexId {
        self.oracle.primary_source()
    }

    /// The frozen structure, for callers that want to run their own
    /// engines (or snapshot it).
    pub fn frozen(&self) -> &FrozenStructure {
        &self.oracle
    }

    /// The distance `dist(source, v, H ∖ F)`, or `None` if `v` is
    /// unreachable inside the surviving structure.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range; use [`Self::try_distance`] for a
    /// checked answer carrying its guarantee.
    pub fn distance(&self, v: VertexId, faults: &FaultSpec) -> Option<u32> {
        self.try_distance(v, faults)
            .unwrap_or_else(|e| panic!("{e}"))
            .into_value()
    }

    /// The checked distance query: a typed error instead of a panic, and
    /// an [`Answer`] carrying the exactness [`ftbfs_oracle::Guarantee`]
    /// (best-effort once `|F|` exceeds the structure's resilience).
    pub fn try_distance(
        &self,
        v: VertexId,
        spec: &FaultSpec,
    ) -> Result<Answer<Option<u32>>, QueryError> {
        self.engine.borrow_mut().try_distance(&self.oracle, v, spec)
    }

    /// A shortest surviving route `source → v` inside `H ∖ F`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn route(&self, v: VertexId, faults: &FaultSpec) -> Option<Path> {
        self.engine
            .borrow_mut()
            .try_shortest_path(&self.oracle, v, faults)
            .unwrap_or_else(|e| panic!("{e}"))
            .into_value()
    }

    /// Distances to all vertices under one fault set (one shared
    /// resolution, then `O(1)` per vertex).
    pub fn all_distances(&self, faults: &FaultSpec) -> Vec<Option<u32>> {
        self.engine
            .borrow_mut()
            .try_all_distances(&self.oracle, faults)
            .unwrap_or_else(|e| panic!("{e}"))
            .into_value()
    }

    /// Checks one query against ground truth computed in the full graph:
    /// returns `true` if the structure's answer matches `dist(s, v, G ∖ F)`.
    pub fn matches_ground_truth(&self, v: VertexId, faults: &FaultSpec) -> bool {
        let gview = GraphView::new(self.graph).without_faults(faults);
        self.distance(v, faults) == bfs(&gview, self.source()).distance(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::generators;
    use ftbfs_oracle::Guarantee;

    #[test]
    fn oracle_on_full_graph_matches_bfs() {
        let g = generators::grid(3, 4);
        let oracle = StructureOracle::new(&g, VertexId(0), g.edges());
        assert_eq!(oracle.source(), VertexId(0));
        assert_eq!(oracle.frozen().edge_count(), g.edge_count());
        let plain = bfs(&GraphView::new(&g), VertexId(0));
        for v in g.vertices() {
            assert_eq!(oracle.distance(v, &FaultSpec::None), plain.distance(v));
            assert!(oracle.matches_ground_truth(v, &FaultSpec::None));
        }
        let all = oracle.all_distances(&FaultSpec::None);
        assert_eq!(all.len(), g.vertex_count());
        assert_eq!(all[11], plain.distance(VertexId(11)));
    }

    #[test]
    fn routes_avoid_failed_edges_and_missing_structure_edges() {
        let g = generators::cycle(8);
        let oracle = StructureOracle::new(&g, VertexId(0), g.edges());
        let e01 = g.edge_between(VertexId(0), VertexId(1)).unwrap();
        let f = FaultSpec::from(e01);
        let route = oracle.route(VertexId(1), &f).unwrap();
        assert_eq!(route.len(), 7);
        assert!(!route.contains_edge(VertexId(0), VertexId(1)));
        // With two failures splitting the cycle, vertex 4 becomes unreachable.
        let e45 = g.edge_between(VertexId(4), VertexId(5)).unwrap();
        let e34 = g.edge_between(VertexId(3), VertexId(4)).unwrap();
        let f2 = FaultSpec::from((e45, e34));
        assert_eq!(oracle.distance(VertexId(4), &f2), None);
        assert!(oracle.route(VertexId(4), &f2).is_none());
    }

    #[test]
    fn sparse_structure_gives_larger_distances_when_insufficient() {
        let g = generators::cycle(6);
        // Keep only a BFS tree (drop edge 0): distance answers are correct
        // fault-free but wrong once the structure is asked about a failure it
        // cannot absorb.
        let edges: Vec<EdgeId> = g.edges().filter(|&e| e != EdgeId(0)).collect();
        let oracle = StructureOracle::new(&g, VertexId(0), edges);
        assert!(oracle.matches_ground_truth(VertexId(3), &FaultSpec::None));
        // Failing edge (2,3) cuts vertex 2 off inside H (edge (0,1) is
        // missing from the structure), while G still reaches it via 0-1-2.
        let failed = g.edge_between(VertexId(2), VertexId(3)).unwrap();
        assert!(!oracle.matches_ground_truth(VertexId(2), &FaultSpec::from(failed)));
    }

    #[test]
    fn foreign_edge_ids_are_ignored_like_before() {
        // Historical behaviour: edge ids outside the graph are dropped, so
        // verifying a buggy construction yields a result, not a panic.
        let g = generators::cycle(5);
        let edges = g.edges().chain([EdgeId(400), EdgeId(99)]);
        let oracle = StructureOracle::new(&g, VertexId(0), edges);
        assert_eq!(oracle.frozen().edge_count(), g.edge_count());
        assert!(oracle.matches_ground_truth(VertexId(2), &FaultSpec::None));
    }

    #[test]
    fn exposed_frozen_structure_is_consistent() {
        let g = generators::grid(3, 3);
        let oracle = StructureOracle::new(&g, VertexId(4), g.edges());
        let frozen = oracle.frozen();
        assert_eq!(frozen.primary_source(), VertexId(4));
        assert_eq!(frozen.edge_count(), g.edge_count());
        // The snapshot of the frozen structure round-trips.
        let reloaded = FrozenStructure::load(&frozen.save()).unwrap();
        assert_eq!(&reloaded, frozen);
    }

    #[test]
    fn checked_queries_carry_guarantees() {
        let g = generators::cycle(8);
        let oracle = StructureOracle::new(&g, VertexId(0), g.edges());
        let exact = oracle
            .try_distance(VertexId(3), &FaultSpec::from(EdgeId(0)))
            .unwrap();
        assert_eq!(exact.guarantee(), Guarantee::Exact);
        // Three faults exceed the declared resilience of 2.
        let spec = FaultSpec::from([EdgeId(1), EdgeId(3), EdgeId(5)]);
        let best = oracle.try_distance(VertexId(4), &spec).unwrap();
        assert_eq!(best.guarantee(), Guarantee::BestEffort);
        // Out-of-range vertices are typed errors through the checked path.
        assert!(matches!(
            oracle.try_distance(VertexId(99), &FaultSpec::None),
            Err(QueryError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn multi_source_backend_verifies_through_the_same_wrapper() {
        let g = generators::tree_plus_chords(12, 5, 7);
        let w = ftbfs_graph::TieBreak::new(&g, 7);
        let sources = [VertexId(0), VertexId(5)];
        let parts = ftbfs_core::multi_failure_ftmbfs_parts(&g, &w, &sources, 2);
        let multi = FrozenStructure::freeze_parts(&g, &parts);
        let oracle = StructureOracle::with_oracle(&g, multi);
        assert_eq!(oracle.source(), VertexId(0));
        let edges: Vec<EdgeId> = g.edges().collect();
        let pair = FaultSpec::from((edges[1], edges[edges.len() / 2]));
        for v in g.vertices() {
            assert!(oracle.matches_ground_truth(v, &FaultSpec::None));
            assert!(oracle.matches_ground_truth(v, &pair));
        }
        // The second source answers through the exposed frozen structure.
        let mut engine = QueryEngine::new();
        let truth = bfs(&GraphView::new(&g).without_faults(&pair), sources[1]);
        for v in g.vertices() {
            let got = engine.try_distance_from(oracle.frozen(), sources[1], v, &pair);
            assert_eq!(got.unwrap().into_value(), truth.distance(v));
        }
    }
}
