//! Zero-allocation reusable search state: [`SearchWorkspace`] and the
//! combined [`SearchEngine`].
//!
//! `Cons2FTBFS` issues `Θ(|π|²)` shortest-path queries *per target vertex*;
//! allocating fresh distance/parent arrays for each query dominates the
//! construction cost on mid-size graphs.  The workspace keeps those arrays
//! (plus the priority queue) alive across queries and invalidates them in
//! `O(1)` between searches with the same epoch-stamping scheme as
//! [`crate::fault::ViewOverlay`]:
//!
//! * a vertex's distance/parent slot is meaningful iff its *visit stamp*
//!   equals the workspace's current epoch;
//! * a vertex's distance is *final* iff its *settled stamp* equals the
//!   current epoch (for the unweighted fast path, visiting and settling
//!   coincide because FIFO order is monotone in distance);
//! * starting a new search bumps the epoch, instantly invalidating all
//!   stamps of earlier searches without touching the arrays.
//!
//! Search modes:
//!
//! * [`SearchWorkspace::dijkstra`] — the weighted search under the
//!   tie-breaking assignment `W`, producing the canonical `SP(s, v, G', W)`
//!   paths (identical results to [`crate::dijkstra::dijkstra`]);
//! * [`SearchWorkspace::bfs`] — the unweighted *hop-bucket* search from one
//!   source to every vertex.  Because `W`-weights are hop-dominated (see
//!   [`crate::tiebreak`]), every `W`-shortest path is hop-shortest, so the
//!   hop counts agree exactly with what the weighted search would report;
//! * [`SearchWorkspace::bfs_hops`] — the single-pair hop distance
//!   `dist(s, t, G')`, used by the divergence binary searches,
//!   `fault_distance` and the replacement distances.  It is a bidirectional,
//!   level-synchronous BFS: each step expands one whole level of the smaller
//!   frontier, and the first vertex one side reaches that the other side has
//!   labelled gives the exact distance, so the search touches little more
//!   than the part of `G'` between `s` and `t`;
//! * [`SearchWorkspace::canonical_path`] — the single-pair `W`-canonical path
//!   `SP(s, t, G', W)`, exactly what `dijkstra(view, w, s, Some(t))` would
//!   extract.  It runs the same bidirectional search, grows the `s–t`
//!   hop-shortest-path DAG out of the meeting level, and runs the heap
//!   Dijkstra over DAG vertices only.

use crate::dijkstra::ShortestPaths;
use crate::fault::{Restriction, ViewOverlay};
use crate::graph::{EdgeId, VertexId};
use crate::path::Path;
use crate::tiebreak::TieBreak;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Sentinel meaning "no parent" in the packed parent arrays.
const NO_PARENT: u32 = u32::MAX;

/// Reusable search state; see the module docs.
///
/// # Examples
///
/// ```
/// use ftbfs_graph::{generators, GraphView, SearchWorkspace, TieBreak, VertexId};
///
/// let g = generators::grid(3, 3);
/// let w = TieBreak::new(&g, 7);
/// let view = GraphView::new(&g);
/// let mut ws = SearchWorkspace::new();
///
/// let search = ws.dijkstra(&view, &w, VertexId(0), None);
/// assert_eq!(search.hops(VertexId(8)), Some(4));
///
/// // The second search reuses the arrays of the first — no allocation.
/// let hops = ws.bfs_hops(&view, VertexId(0), VertexId(8));
/// assert_eq!(hops, Some(4));
/// ```
#[derive(Clone, Debug)]
pub struct SearchWorkspace {
    epoch: u64,
    /// Stamp of the last epoch in which `dist`/`parent_*` were written.
    visited: Vec<u64>,
    /// Stamp of the last epoch in which the vertex's distance became final.
    settled: Vec<u64>,
    dist: Vec<u64>,
    parent_v: Vec<u32>,
    parent_e: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    queue: VecDeque<u32>,
    /// Visit stamps of the backward side of a bidirectional search.
    back_visited: Vec<u64>,
    /// Hop distances to the target of the backward side.
    back_dist: Vec<u64>,
    back_queue: VecDeque<u32>,
    /// Stamp of the last bidirectional search whose hop-shortest-path DAG
    /// contained the vertex; see [`SearchWorkspace::canonical_path`].
    in_dag: Vec<u64>,
    /// Worklist of DAG vertices, starting with the meeting level.
    dag: Vec<u32>,
    n: usize,
    source: VertexId,
    weighted: bool,
}

impl Default for SearchWorkspace {
    fn default() -> Self {
        SearchWorkspace {
            epoch: 0,
            visited: Vec::new(),
            settled: Vec::new(),
            dist: Vec::new(),
            parent_v: Vec::new(),
            parent_e: Vec::new(),
            heap: BinaryHeap::new(),
            queue: VecDeque::new(),
            back_visited: Vec::new(),
            back_dist: Vec::new(),
            back_queue: VecDeque::new(),
            in_dag: Vec::new(),
            dag: Vec::new(),
            n: 0,
            source: VertexId(0),
            weighted: false,
        }
    }
}

impl SearchWorkspace {
    /// Creates an empty workspace; arrays grow lazily on first use.
    pub fn new() -> Self {
        SearchWorkspace::default()
    }

    /// Bumps the epoch and sizes the arrays for an `n`-vertex search.
    fn prepare(&mut self, n: usize, source: VertexId, weighted: bool) {
        self.epoch += 1;
        if self.visited.len() < n {
            self.visited.resize(n, 0);
            self.settled.resize(n, 0);
            self.dist.resize(n, 0);
            self.parent_v.resize(n, NO_PARENT);
            self.parent_e.resize(n, NO_PARENT);
        }
        self.n = n;
        self.source = source;
        self.weighted = weighted;
        self.heap.clear();
        self.queue.clear();
    }

    /// Writes a (tentative) label for `v`.
    #[inline]
    fn label(&mut self, v: VertexId, dist: u64, parent: Option<(VertexId, EdgeId)>) {
        let i = v.index();
        self.visited[i] = self.epoch;
        self.dist[i] = dist;
        match parent {
            Some((p, e)) => {
                self.parent_v[i] = p.0;
                self.parent_e[i] = e.0;
            }
            None => {
                self.parent_v[i] = NO_PARENT;
                self.parent_e[i] = NO_PARENT;
            }
        }
    }

    /// Runs Dijkstra from `source` in the restricted `view` under weights
    /// `w`, reusing this workspace's arrays.
    ///
    /// Semantics match [`crate::dijkstra::dijkstra`] exactly: with
    /// `target = Some(t)` the search stops as soon as `t` is settled and only
    /// settled vertices report distances; the source always reports distance
    /// zero even if the view removed it.
    pub fn dijkstra<'ws, R: Restriction>(
        &'ws mut self,
        view: &R,
        w: &TieBreak,
        source: VertexId,
        target: Option<VertexId>,
    ) -> Search<'ws> {
        self.run_dijkstra(view, w, source, target, None);
        Search { ws: self }
    }

    /// The heap Dijkstra behind [`Self::dijkstra`].  With `dag = Some(stamp)`
    /// it only labels vertices whose `in_dag` slot holds `stamp`.
    fn run_dijkstra<R: Restriction>(
        &mut self,
        view: &R,
        w: &TieBreak,
        source: VertexId,
        target: Option<VertexId>,
        dag: Option<u64>,
    ) {
        self.prepare(view.vertex_bound(), source, true);
        let epoch = self.epoch;
        self.label(source, 0, None);
        if view.allows_vertex(source) {
            self.heap.push(Reverse((0, source.0)));
        }
        while let Some(Reverse((d, u_raw))) = self.heap.pop() {
            let u = VertexId(u_raw);
            if self.settled[u.index()] == epoch {
                continue;
            }
            self.settled[u.index()] = epoch;
            if target == Some(u) {
                break;
            }
            for &(x, e) in view.base_graph().neighbors(u) {
                let xi = x.index();
                if self.settled[xi] == epoch
                    || dag.is_some_and(|stamp| self.in_dag[xi] != stamp)
                    || !view.allows_edge(e)
                {
                    continue;
                }
                let nd = d + w.weight(e);
                if self.visited[xi] != epoch || nd < self.dist[xi] {
                    self.label(x, nd, Some((u, e)));
                    self.heap.push(Reverse((nd, x.0)));
                }
            }
        }
    }

    /// Runs the unweighted hop-bucket search (a BFS) from `source`, reusing
    /// this workspace's arrays.  All reached vertices report final hop
    /// distances; parents form a BFS tree (*not* the `W`-canonical one — use
    /// [`Self::dijkstra`] when the path itself matters).
    pub fn bfs<'ws, R: Restriction>(&'ws mut self, view: &R, source: VertexId) -> Search<'ws> {
        self.prepare(view.vertex_bound(), source, false);
        let epoch = self.epoch;
        self.label(source, 0, None);
        self.settled[source.index()] = epoch;
        if view.allows_vertex(source) {
            self.queue.push_back(source.0);
        }
        while let Some(u_raw) = self.queue.pop_front() {
            let u = VertexId(u_raw);
            let du = self.dist[u.index()];
            for &(x, e) in view.base_graph().neighbors(u) {
                let xi = x.index();
                if self.visited[xi] == epoch || !view.allows_edge(e) {
                    continue;
                }
                self.label(x, du + 1, Some((u, e)));
                self.settled[xi] = epoch;
                self.queue.push_back(x.0);
            }
        }
        Search { ws: self }
    }

    /// The hop distance `dist(source, target, view)`, or `None` if
    /// unreachable — the pure-distance fast path.
    ///
    /// Equivalent to running the weighted search and reading
    /// [`Search::hops`], but runs a bidirectional level-synchronous BFS that
    /// stops at the first vertex both sides have labelled.  `source ==
    /// target` gives `Some(0)` even if the view removed it.
    pub fn bfs_hops<R: Restriction>(
        &mut self,
        view: &R,
        source: VertexId,
        target: VertexId,
    ) -> Option<u32> {
        if source == target {
            return Some(0);
        }
        self.meet(view, source, target, false).map(|d| d as u32)
    }

    /// The `W`-canonical path `SP(source, target, view, W)`, or `None` if
    /// `target` is unreachable.
    ///
    /// Returns exactly what `self.dijkstra(view, w, source,
    /// Some(target)).path_to(target)` returns, but the heap search only
    /// visits the hop-shortest `source–target` DAG.  That is exact because
    /// `W` is hop-dominated: every vertex that offers a DAG vertex its final
    /// weight is itself one hop closer to `source` on a shortest path, so it
    /// is in the DAG, and the heap pops DAG vertices in the same `(weight,
    /// id)` order as the full search.  Labels, parents and tie outcomes are
    /// therefore the full search's, even where `W` has a tie.
    pub fn canonical_path<R: Restriction>(
        &mut self,
        view: &R,
        w: &TieBreak,
        source: VertexId,
        target: VertexId,
    ) -> Option<Path> {
        if source == target {
            return Some(Path::singleton(source));
        }
        self.meet(view, source, target, true)?;
        let dag = self.epoch;
        self.grow_dag(view);
        self.run_dijkstra(view, w, source, Some(target), Some(dag));
        Search { ws: self }.path_to(target)
    }

    /// Bidirectional level-synchronous BFS between the distinct vertices
    /// `source` and `target`; returns their hop distance.
    ///
    /// Each step expands one whole level of the smaller frontier.  While no
    /// vertex carries both labels, `dist > a + b` for the searched depths `a`
    /// and `b`, so the first meeting found while expanding a level is exact.
    /// With `collect`, the meeting level is finished and every meeting
    /// vertex — every vertex at that position of the hop-shortest-path DAG
    /// — is left in `self.dag`.
    fn meet<R: Restriction>(
        &mut self,
        view: &R,
        source: VertexId,
        target: VertexId,
        collect: bool,
    ) -> Option<u64> {
        let n = view.vertex_bound();
        self.prepare(n, source, false);
        if self.back_visited.len() < n {
            self.back_visited.resize(n, 0);
            self.back_dist.resize(n, 0);
            self.in_dag.resize(n, 0);
        }
        self.back_queue.clear();
        self.dag.clear();
        if !view.allows_vertex(source) || !view.allows_vertex(target) {
            return None;
        }
        let epoch = self.epoch;
        let mut forward = Side {
            stamp: &mut self.visited,
            dist: &mut self.dist,
            queue: &mut self.queue,
        };
        let mut backward = Side {
            stamp: &mut self.back_visited,
            dist: &mut self.back_dist,
            queue: &mut self.back_queue,
        };
        forward.start(source, epoch);
        backward.start(target, epoch);
        let mut meets = collect.then_some(&mut self.dag);
        while !forward.queue.is_empty() && !backward.queue.is_empty() {
            let met = if forward.queue.len() <= backward.queue.len() {
                forward.expand_level(view, epoch, &backward, meets.as_deref_mut())
            } else {
                backward.expand_level(view, epoch, &forward, meets.as_deref_mut())
            };
            if met.is_some() {
                return met;
            }
        }
        None
    }

    /// Grows the meeting level left in `self.dag` by [`Self::meet`] into the
    /// whole hop-shortest-path DAG, stamping each of its vertices in
    /// `in_dag`: forward-labelled neighbours one level closer to the source,
    /// then back-labelled neighbours one level closer to the target.
    fn grow_dag<R: Restriction>(&mut self, view: &R) {
        let epoch = self.epoch;
        for &x in &self.dag {
            self.in_dag[x as usize] = epoch;
        }
        let meeting = self.dag.len();
        grow_layers(
            view,
            epoch,
            &self.visited,
            &self.dist,
            &mut self.in_dag,
            &mut self.dag,
            0,
        );
        // Re-queue the meeting level to grow the target side from it; the
        // duplicates are harmless because membership lives in `in_dag`.
        let toward_target = self.dag.len();
        self.dag.extend_from_within(..meeting);
        grow_layers(
            view,
            epoch,
            &self.back_visited,
            &self.back_dist,
            &mut self.in_dag,
            &mut self.dag,
            toward_target,
        );
    }

    /// Returns `true` if `v`'s distance is final in the current search.
    #[inline]
    fn is_final(&self, v: VertexId) -> bool {
        self.settled[v.index()] == self.epoch
    }
}

/// One side of a bidirectional search, borrowed out of the workspace: hop
/// labels (valid where `stamp` holds the epoch) and a FIFO frontier that
/// always holds exactly one level.
struct Side<'a> {
    stamp: &'a mut [u64],
    dist: &'a mut [u64],
    queue: &'a mut VecDeque<u32>,
}

impl Side<'_> {
    /// Labels `root` at depth zero as the side's only frontier vertex.
    fn start(&mut self, root: VertexId, epoch: u64) {
        self.stamp[root.index()] = epoch;
        self.dist[root.index()] = 0;
        self.queue.push_back(root.0);
    }

    /// Expands the whole current level, labelling each newly reached vertex
    /// one hop deeper, and returns the `s–t` hop distance through the first
    /// vertex reached that `other` has labelled.  With `meets`, the level is
    /// finished instead and every such vertex is pushed onto `meets`.
    fn expand_level<R: Restriction>(
        &mut self,
        view: &R,
        epoch: u64,
        other: &Side<'_>,
        mut meets: Option<&mut Vec<u32>>,
    ) -> Option<u64> {
        let mut met = None;
        for _ in 0..self.queue.len() {
            let u = self.queue.pop_front().expect("the level is non-empty");
            let du = self.dist[u as usize];
            for &(x, e) in view.base_graph().neighbors(VertexId(u)) {
                let xi = x.index();
                if self.stamp[xi] == epoch || !view.allows_edge(e) {
                    continue;
                }
                self.stamp[xi] = epoch;
                self.dist[xi] = du + 1;
                self.queue.push_back(x.0);
                if other.stamp[xi] == epoch {
                    let d = du + 1 + other.dist[xi];
                    match meets.as_deref_mut() {
                        None => return Some(d),
                        Some(meets) => {
                            meets.push(x.0);
                            met = Some(d);
                        }
                    }
                }
            }
        }
        met
    }
}

/// Walks `dag[from..]`, appending every unmarked neighbour one hop closer to
/// the root of the side whose labels are `stamp`/`dist`, until the walk
/// reaches that root.
fn grow_layers<R: Restriction>(
    view: &R,
    epoch: u64,
    stamp: &[u64],
    dist: &[u64],
    in_dag: &mut [u64],
    dag: &mut Vec<u32>,
    from: usize,
) {
    let mut i = from;
    while i < dag.len() {
        let y = VertexId(dag[i]);
        i += 1;
        let dy = dist[y.index()];
        for &(z, e) in view.base_graph().neighbors(y) {
            let zi = z.index();
            if in_dag[zi] == epoch || stamp[zi] != epoch || dist[zi] + 1 != dy {
                continue;
            }
            if view.allows_edge(e) {
                in_dag[zi] = epoch;
                dag.push(z.0);
            }
        }
    }
}

/// Read access to the most recent search of a [`SearchWorkspace`].
///
/// Borrowing the workspace guarantees the results cannot be invalidated by a
/// later search while they are being read.
#[derive(Debug)]
pub struct Search<'ws> {
    ws: &'ws SearchWorkspace,
}

impl Search<'_> {
    /// The source vertex of the search.
    pub fn source(&self) -> VertexId {
        self.ws.source
    }

    /// The `W`-weight of the shortest path from the source to `v`, or `None`
    /// if `v` was not (finally) reached.  Only meaningful for searches run
    /// with [`SearchWorkspace::dijkstra`].
    #[inline]
    pub fn weight(&self, v: VertexId) -> Option<u64> {
        debug_assert!(self.ws.weighted, "weight() requires a weighted search");
        if self.ws.is_final(v) {
            Some(self.ws.dist[v.index()])
        } else if v == self.ws.source {
            Some(0)
        } else {
            None
        }
    }

    /// The hop distance from the source to `v`, or `None` if unreachable.
    #[inline]
    pub fn hops(&self, v: VertexId) -> Option<u32> {
        if self.ws.is_final(v) {
            let d = self.ws.dist[v.index()];
            Some(if self.ws.weighted {
                TieBreak::hops_of_weight(d)
            } else {
                d as u32
            })
        } else if v == self.ws.source {
            Some(0)
        } else {
            None
        }
    }

    /// Returns `true` if `v` was (finally) reached.
    pub fn reached(&self, v: VertexId) -> bool {
        self.ws.is_final(v) || v == self.ws.source
    }

    /// The parent of `v` in the search tree, with the tree edge.
    pub fn parent(&self, v: VertexId) -> Option<(VertexId, EdgeId)> {
        if !self.ws.is_final(v) {
            return None;
        }
        let i = v.index();
        if self.ws.parent_v[i] == NO_PARENT {
            None
        } else {
            Some((VertexId(self.ws.parent_v[i]), EdgeId(self.ws.parent_e[i])))
        }
    }

    /// Reconstructs the path from the source to `v` along search parents.
    /// For weighted searches this is the unique `W`-shortest path.
    pub fn path_to(&self, v: VertexId) -> Option<Path> {
        if !self.ws.is_final(v) {
            if v == self.ws.source {
                return Some(Path::singleton(v));
            }
            return None;
        }
        let mut vertices = vec![v];
        let mut cur = v;
        while let Some((p, _)) = self.parent(cur) {
            vertices.push(p);
            cur = p;
        }
        debug_assert_eq!(cur, self.ws.source);
        vertices.reverse();
        Some(Path::new(vertices))
    }

    /// Exports the search into an owned [`ShortestPaths`].  Only meaningful
    /// for searches run with [`SearchWorkspace::dijkstra`].
    pub fn to_shortest_paths(&self) -> ShortestPaths {
        debug_assert!(
            self.ws.weighted,
            "to_shortest_paths() requires a weighted search"
        );
        let n = self.ws.n;
        let mut dist = vec![None; n];
        let mut parent = vec![None; n];
        for i in 0..n {
            let v = VertexId::new(i);
            if self.ws.is_final(v) {
                dist[i] = Some(self.ws.dist[i]);
                parent[i] = self.parent(v);
            }
        }
        dist[self.ws.source.index()].get_or_insert(0);
        ShortestPaths::from_parts(self.ws.source, dist, parent)
    }
}

/// A [`SearchWorkspace`] paired with a [`ViewOverlay`]: everything one
/// construction thread needs to run restricted searches without allocating.
///
/// The two halves are separate fields so that a borrowed overlay view and a
/// mutable workspace borrow can coexist:
///
/// ```
/// use ftbfs_graph::{generators, SearchEngine, VertexId};
///
/// let g = generators::cycle(6);
/// let mut engine = SearchEngine::new();
/// engine.overlay.begin(&g);
/// engine.overlay.remove_vertex(VertexId(1));
/// let view = engine.overlay.view(&g);
/// let hops = engine.workspace.bfs_hops(&view, VertexId(0), VertexId(2));
/// assert_eq!(hops, Some(4)); // forced the long way round
/// ```
#[derive(Clone, Debug, Default)]
pub struct SearchEngine {
    /// The reusable search arrays and queues.
    pub workspace: SearchWorkspace,
    /// The reusable restriction scratch buffer.
    pub overlay: ViewOverlay,
}

impl SearchEngine {
    /// Creates an empty engine; all buffers grow lazily on first use.
    pub fn new() -> Self {
        SearchEngine::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::fault::GraphView;
    use crate::generators;
    use crate::graph::Graph;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn workspace_dijkstra_matches_allocating_dijkstra() {
        let g = generators::connected_gnp(30, 0.15, 5);
        let w = TieBreak::new(&g, 9);
        let view = GraphView::new(&g);
        let mut ws = SearchWorkspace::new();
        let reference = dijkstra(&view, &w, v(0), None);
        let search = ws.dijkstra(&view, &w, v(0), None);
        for x in g.vertices() {
            assert_eq!(search.weight(x), reference.weight(x));
            assert_eq!(search.hops(x), reference.hops(x));
            assert_eq!(search.parent(x), reference.parent(x));
            assert_eq!(search.path_to(x), reference.path_to(x));
        }
    }

    #[test]
    fn epoch_reuse_across_different_views() {
        // Two searches on *different* views from one workspace: the second
        // must not observe any state of the first.
        let g = generators::grid(4, 4);
        let w = TieBreak::new(&g, 3);
        let mut ws = SearchWorkspace::new();

        let full = GraphView::new(&g);
        let first = ws.dijkstra(&full, &w, v(0), None).to_shortest_paths();
        assert_eq!(first.hops(v(15)), Some(6));

        let e01 = g.edge_between(v(0), v(1)).unwrap();
        let e04 = g.edge_between(v(0), v(4)).unwrap();
        let cut = GraphView::new(&g).without_edges([e01, e04]);
        let second = ws.dijkstra(&cut, &w, v(0), None);
        // v0 is isolated in the cut view: nothing else may be reported.
        for x in g.vertices() {
            if x == v(0) {
                assert_eq!(second.hops(x), Some(0));
            } else {
                assert_eq!(second.hops(x), None, "stale epoch state leaked to {x:?}");
            }
        }
        // And a third search on the full view is exact again.
        let third = ws.dijkstra(&full, &w, v(0), None);
        for x in g.vertices() {
            assert_eq!(third.hops(x), first.hops(x));
        }
    }

    #[test]
    fn hop_bucket_fast_path_agrees_with_weighted_hops() {
        for seed in 0..4u64 {
            let g = generators::connected_gnp(40, 0.12, seed);
            let w = TieBreak::new(&g, seed + 100);
            let e = g.edge_between(g.endpoints(EdgeId(0)).u, g.endpoints(EdgeId(0)).v);
            let view = GraphView::new(&g).without_edge(e.unwrap());
            let mut ws = SearchWorkspace::new();
            let reference = ws.dijkstra(&view, &w, v(0), None).to_shortest_paths();
            for t in g.vertices() {
                assert_eq!(
                    ws.bfs_hops(&view, v(0), t),
                    reference.hops(t),
                    "fast-path mismatch at {t:?} (seed {seed})"
                );
            }
            let full_bfs = ws.bfs(&view, v(0));
            for t in g.vertices() {
                assert_eq!(full_bfs.hops(t), reference.hops(t));
            }
        }
    }

    #[test]
    fn early_exit_target_distances_are_exact() {
        let g = generators::grid(5, 5);
        let w = TieBreak::new(&g, 11);
        let view = GraphView::new(&g);
        let mut ws = SearchWorkspace::new();
        let full = ws.dijkstra(&view, &w, v(0), None).to_shortest_paths();
        for t in g.vertices() {
            let search = ws.dijkstra(&view, &w, v(0), Some(t));
            assert_eq!(search.weight(t), full.weight(t));
        }
    }

    #[test]
    fn removed_source_still_reports_distance_zero() {
        let g = generators::cycle(5);
        let w = TieBreak::new(&g, 2);
        let view = GraphView::new(&g).without_vertices([v(0)]);
        let mut ws = SearchWorkspace::new();
        let search = ws.dijkstra(&view, &w, v(0), None);
        assert_eq!(search.hops(v(0)), Some(0));
        assert_eq!(search.weight(v(0)), Some(0));
        assert!(search.reached(v(0)));
        assert_eq!(search.hops(v(1)), None);
        assert_eq!(search.path_to(v(0)), Some(Path::singleton(v(0))));
        assert_eq!(ws.bfs_hops(&view, v(0), v(2)), None);
    }

    #[test]
    fn engine_overlay_and_workspace_compose() {
        let g = generators::grid(3, 3);
        let w = TieBreak::new(&g, 1);
        let mut engine = SearchEngine::new();

        // Restriction 1: remove the centre vertex.
        engine.overlay.begin(&g);
        engine.overlay.remove_vertex(v(4));
        let view = engine.overlay.view(&g);
        assert_eq!(engine.workspace.bfs_hops(&view, v(0), v(8)), Some(4));
        let search = engine.workspace.dijkstra(&view, &w, v(0), Some(v(8)));
        assert!(!search.path_to(v(8)).unwrap().contains_vertex(v(4)));

        // Restriction 2 (same engine, O(1) reset): remove nothing.
        engine.overlay.begin(&g);
        let view = engine.overlay.view(&g);
        assert_eq!(engine.workspace.bfs_hops(&view, v(0), v(8)), Some(4));
        assert_eq!(engine.workspace.bfs_hops(&view, v(0), v(4)), Some(2));
    }

    /// A splitmix64 step: the tests' deterministic stream of choices.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Which corners of the search space the random overlays reached.
    #[derive(Default)]
    struct Coverage {
        removed_source: usize,
        removed_target: usize,
        restricted: usize,
        disconnected: usize,
        same_vertex: usize,
        connected: usize,
    }

    /// Checks `bfs_hops` and `canonical_path` against the one-sided `bfs`
    /// and the full `dijkstra(…, Some(t)).path_to(t)` from a random source
    /// to every target, under `trials` random overlays of `g`.  Each overlay
    /// removes a few vertices (sometimes the source or a target), fails a
    /// few edges and sometimes restricts the edges incident to one vertex.
    fn cross_check(g: &Graph, wseed: u64, trials: usize, cov: &mut Coverage) {
        let w = TieBreak::new(g, wseed);
        let mut state = wseed;
        let mut pick = |bound: usize| (splitmix(&mut state) % bound as u64) as usize;
        let n = g.vertex_count();
        let mut overlay = ViewOverlay::new();
        let mut ws = SearchWorkspace::new();
        let mut reference = SearchWorkspace::new();
        for _ in 0..trials {
            let s = VertexId::new(pick(n));
            overlay.begin(g);
            for _ in 0..pick(4) {
                overlay.remove_vertex(VertexId::new(pick(n)));
            }
            if pick(6) == 0 {
                overlay.remove_vertex(s);
            }
            for _ in 0..pick(5) {
                overlay.remove_edge(EdgeId::new(pick(g.edge_count())));
            }
            if pick(3) == 0 {
                let x = VertexId::new(pick(n));
                let incident: Vec<EdgeId> = g.incident_edges(x).collect();
                let keep = pick(incident.len() + 1);
                overlay.restrict_incident(x, incident.into_iter().take(keep));
                cov.restricted += 1;
            }
            let view = overlay.view(g);
            let hops: Vec<Option<u32>> = {
                let full = reference.bfs(&view, s);
                g.vertices().map(|t| full.hops(t)).collect()
            };
            for t in g.vertices() {
                let expected = reference.dijkstra(&view, &w, s, Some(t)).path_to(t);
                assert_eq!(
                    ws.bfs_hops(&view, s, t),
                    hops[t.index()],
                    "bfs_hops({s:?}, {t:?}) differs from bfs"
                );
                assert_eq!(
                    ws.canonical_path(&view, &w, s, t),
                    expected,
                    "canonical_path({s:?}, {t:?}) differs from dijkstra"
                );
                assert_eq!(
                    expected.as_ref().map(|p| p.len() as u32),
                    hops[t.index()],
                    "the reference path is not hop-shortest"
                );
                if s == t {
                    cov.same_vertex += 1;
                } else if !view.allows_vertex(s) {
                    cov.removed_source += 1;
                } else if !view.allows_vertex(t) {
                    cov.removed_target += 1;
                } else if expected.is_none() {
                    cov.disconnected += 1;
                } else {
                    cov.connected += 1;
                }
            }
        }
    }

    #[test]
    fn bidirectional_searches_match_their_references_under_random_overlays() {
        let mut cov = Coverage::default();
        for seed in 1..=3u64 {
            cross_check(
                &generators::connected_gnp(60, 0.05, seed),
                seed,
                12,
                &mut cov,
            );
            cross_check(
                &generators::connected_gnp(40, 0.2, seed),
                seed + 10,
                8,
                &mut cov,
            );
        }
        cross_check(&generators::grid(6, 9), 21, 12, &mut cov);
        cross_check(&generators::grid(1, 12), 22, 6, &mut cov);
        // Every corner the overlays can produce was exercised.
        for (corner, count) in [
            ("removed source", cov.removed_source),
            ("removed target", cov.removed_target),
            ("incident restriction", cov.restricted),
            ("disconnected pair", cov.disconnected),
            ("s == t", cov.same_vertex),
            ("connected pair", cov.connected),
        ] {
            assert!(count > 0, "no case covered a {corner}");
        }
    }

    #[test]
    fn canonical_path_handles_trivial_and_unreachable_pairs() {
        let g = generators::path(5);
        let w = TieBreak::new(&g, 4);
        let mut ws = SearchWorkspace::new();
        let removed = GraphView::new(&g).without_vertices([v(2)]);
        // s == t answers the singleton path even when the view removed it.
        assert_eq!(
            ws.canonical_path(&removed, &w, v(2), v(2)),
            Some(Path::singleton(v(2)))
        );
        assert_eq!(ws.bfs_hops(&removed, v(2), v(2)), Some(0));
        // The removed vertex cuts the path: nothing crosses it.
        assert_eq!(ws.canonical_path(&removed, &w, v(0), v(4)), None);
        assert_eq!(ws.bfs_hops(&removed, v(0), v(4)), None);
        // A removed endpoint is unreachable from either side.
        assert_eq!(ws.canonical_path(&removed, &w, v(2), v(3)), None);
        assert_eq!(ws.canonical_path(&removed, &w, v(3), v(2)), None);
        // Adjacent vertices meet in the first level.
        let full = GraphView::new(&g);
        assert_eq!(
            ws.canonical_path(&full, &w, v(3), v(4)),
            Some(Path::new(vec![v(3), v(4)]))
        );
        assert_eq!(
            ws.canonical_path(&full, &w, v(4), v(0)),
            Some(Path::new(vec![v(4), v(3), v(2), v(1), v(0)]))
        );
    }
}
