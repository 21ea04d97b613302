//! Zero-allocation reusable search state: [`SearchWorkspace`] and
//! [`SearchEngine`], which pairs a workspace with one reusable
//! [`GraphView`] for the searches to read.
//!
//! `Cons2FTBFS` issues `Θ(|π|²)` shortest-path queries *per target vertex*;
//! allocating fresh distance/parent arrays for each query dominates the
//! construction cost on mid-size graphs.  The workspace keeps those arrays
//! (plus the priority queue) alive across queries and invalidates them in
//! `O(1)` between searches with the same epoch-stamping scheme as
//! [`crate::fault::GraphView`]:
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
//!   `dist(s, t, G')`, used by the divergence binary searches and
//!   `fault_distance`.  It is a bidirectional,
//!   level-synchronous BFS: each step expands one whole level of the smaller
//!   frontier, and the first vertex one side reaches that the other side has
//!   labelled gives the exact distance, so the search touches little more
//!   than the part of `G'` between `s` and `t`;
//! * [`SearchWorkspace::canonical_path`] — the single-pair `W`-canonical path
//!   `SP(s, t, G', W)`, exactly what `dijkstra(view, w, s, Some(t))` would
//!   extract.  It runs the same bidirectional search, walks the `s–t`
//!   hop-shortest-path DAG out of the meeting level while recording its
//!   arcs, and relaxes those arcs once each, level by level, with no heap.
//!
//! The frontiers of every unweighted search are plain vectors read through
//! a level cursor, and searches test each adjacency entry with one
//! `GraphView::allows_arc` check: a search only expands vertices the view
//! allows, so the edge's own endpoints need not be looked up.

use crate::dijkstra::ShortestPaths;
use crate::fault::GraphView;
use crate::graph::Graph;
use crate::graph::{EdgeId, VertexId};
use crate::path::Path;
use crate::tiebreak::TieBreak;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel meaning "no parent" in the packed parent arrays.
const NO_PARENT: u32 = u32::MAX;

/// One arc of a hop-shortest-path DAG, oriented from the source to the
/// target, with the hop level of its head; see
/// [`SearchWorkspace::canonical_path`].
#[derive(Clone, Copy, Debug)]
struct DagArc {
    tail: u32,
    head: u32,
    edge: u32,
    level: u32,
}

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
    /// Every vertex an unweighted search (or the forward side of a
    /// bidirectional one) has labelled, in the order it was labelled.
    queue: Vec<u32>,
    /// Visit stamps of the backward side of a bidirectional search.
    back_visited: Vec<u64>,
    /// Hop distances to the target of the backward side.
    back_dist: Vec<u64>,
    back_queue: Vec<u32>,
    dag: Dag,
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
            queue: Vec::new(),
            back_visited: Vec::new(),
            back_dist: Vec::new(),
            back_queue: Vec::new(),
            dag: Dag::default(),
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
    pub fn dijkstra<'ws>(
        &'ws mut self,
        view: &GraphView<'_>,
        w: &TieBreak,
        source: VertexId,
        target: Option<VertexId>,
    ) -> Search<'ws> {
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
            for &(x, e) in view.graph().neighbors(u) {
                let xi = x.index();
                if self.settled[xi] == epoch || !view.allows_arc(u, x, e) {
                    continue;
                }
                let nd = d + w.weight(e);
                if self.visited[xi] != epoch || nd < self.dist[xi] {
                    self.label(x, nd, Some((u, e)));
                    self.heap.push(Reverse((nd, x.0)));
                }
            }
        }
        Search { ws: self }
    }

    /// Runs the unweighted hop-bucket search (a BFS) from `source`, reusing
    /// this workspace's arrays.  All reached vertices report final hop
    /// distances; parents form a BFS tree (*not* the `W`-canonical one — use
    /// [`Self::dijkstra`] when the path itself matters).
    pub fn bfs<'ws>(&'ws mut self, view: &GraphView<'_>, source: VertexId) -> Search<'ws> {
        self.prepare(view.vertex_bound(), source, false);
        let epoch = self.epoch;
        self.label(source, 0, None);
        self.settled[source.index()] = epoch;
        if view.allows_vertex(source) {
            self.queue.push(source.0);
        }
        let mut next = 0;
        while let Some(&u_raw) = self.queue.get(next) {
            next += 1;
            let u = VertexId(u_raw);
            let du = self.dist[u.index()];
            for &(x, e) in view.graph().neighbors(u) {
                let xi = x.index();
                if self.visited[xi] == epoch || !view.allows_arc(u, x, e) {
                    continue;
                }
                self.label(x, du + 1, Some((u, e)));
                self.settled[xi] = epoch;
                self.queue.push(x.0);
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
    #[inline]
    pub fn bfs_hops(
        &mut self,
        view: &GraphView<'_>,
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
    /// Some(target)).path_to(target)` returns, ties included, without a
    /// heap.  The bidirectional search of [`Self::bfs_hops`] finds the
    /// meeting level.  Walking out of it along hop labels (forward labels
    /// toward `source`, backward labels toward `target`) visits the
    /// hop-shortest `source–target` DAG and records each of its arcs once,
    /// oriented toward `target` and tagged with its head's hop level from
    /// `source` (`d − back_dist` on the target side).  The arcs are then
    /// relaxed once each in level order, and every head keeps the tail that
    /// minimises `(w(tail) + W(e), w(tail), tail)`.
    ///
    /// That is the heap's answer.  `W` is hop-dominated, so every vertex
    /// that offers a DAG vertex its final weight is a DAG vertex one level
    /// closer to `source`, and the heap settles every vertex of level `L − 1`
    /// before any of level `L`; the level order likewise hands each arc its
    /// tail's final weight.  The heap changes a label only on a strict
    /// improvement and pops tails in `(weight, id)` order, so among the
    /// tails that offer the least weight, the one with the least `(weight,
    /// id)` becomes the parent: the rule above.
    #[inline]
    pub fn canonical_path(
        &mut self,
        view: &GraphView<'_>,
        w: &TieBreak,
        source: VertexId,
        target: VertexId,
    ) -> Option<Path> {
        if source == target {
            return Some(Path::singleton(source));
        }
        let d = self.meet(view, source, target, true)?;
        self.walk_dag(view, d);
        self.relax_arcs(w);
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
    /// — is left in the DAG worklist.
    #[inline]
    fn meet(
        &mut self,
        view: &GraphView<'_>,
        source: VertexId,
        target: VertexId,
        collect: bool,
    ) -> Option<u64> {
        let n = view.vertex_bound();
        self.prepare(n, source, false);
        if self.back_visited.len() < n {
            self.back_visited.resize(n, 0);
            self.back_dist.resize(n, 0);
            self.dag.member.resize(n, 0);
        }
        self.dag.walk.clear();
        if !view.allows_vertex(source) || !view.allows_vertex(target) {
            return None;
        }
        let epoch = self.epoch;
        let mut forward = Side {
            stamp: &mut self.visited,
            dist: &mut self.dist,
            queue: &mut self.queue,
            level: 0,
        };
        let mut backward = Side {
            stamp: &mut self.back_visited,
            dist: &mut self.back_dist,
            queue: &mut self.back_queue,
            level: 0,
        };
        forward.start(source, epoch);
        backward.start(target, epoch);
        let mut meets = collect.then_some(&mut self.dag.walk);
        while forward.frontier() > 0 && backward.frontier() > 0 {
            let met = if forward.frontier() <= backward.frontier() {
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

    /// Walks the meeting level that [`Self::meet`] left in the DAG worklist
    /// out to both ends of the hop-shortest-path DAG of a pair at hop
    /// distance `d`, leaving the DAG's arcs sorted by the level of their
    /// heads.
    #[inline]
    fn walk_dag(&mut self, view: &GraphView<'_>, d: u64) {
        let epoch = self.epoch;
        let dag = &mut self.dag;
        for &x in &dag.walk {
            dag.member[x as usize] = epoch;
        }
        dag.arcs.clear();
        let meeting = dag.walk.len();
        // Toward the source, each arc's head is the walked vertex, and the
        // walk reaches the levels in decreasing order.
        dag.walk_side(view, epoch, &self.visited, &self.dist, 0, |y, z, e, dy| {
            (z, y, e, dy)
        });
        dag.arcs.reverse();
        // Toward the target, from the meeting level again: each arc's tail
        // is the walked vertex, reached in increasing level order.
        let toward_target = dag.walk.len();
        dag.walk.extend_from_within(..meeting);
        dag.walk_side(
            view,
            epoch,
            &self.back_visited,
            &self.back_dist,
            toward_target,
            |y, z, e, dy| (y, z, e, d + 1 - dy),
        );
        debug_assert!(dag.arcs.windows(2).all(|a| a[0].level <= a[1].level));
    }

    /// Relaxes the walked DAG's arcs in level order (see
    /// [`Self::canonical_path`]), leaving every DAG vertex but the source
    /// settled with its `W`-weight and canonical parent.
    #[inline]
    fn relax_arcs(&mut self, w: &TieBreak) {
        let epoch = self.epoch;
        // The source is never a head, and its forward hop label, 0, is its
        // weight; every other tail is the head of an earlier level's arc.
        for a in &self.dag.arcs {
            let (tail, head) = (a.tail as usize, a.head as usize);
            let wt = self.dist[tail];
            let nd = wt + w.weight(EdgeId(a.edge));
            if self.settled[head] == epoch {
                let p = self.parent_v[head];
                if (nd, wt, a.tail) >= (self.dist[head], self.dist[p as usize], p) {
                    continue;
                }
            }
            self.settled[head] = epoch;
            self.dist[head] = nd;
            self.parent_v[head] = a.tail;
            self.parent_e[head] = a.edge;
        }
    }

    /// Returns `true` if `v`'s distance is final in the current search.
    #[inline]
    fn is_final(&self, v: VertexId) -> bool {
        self.settled[v.index()] == self.epoch
    }
}

/// One side of a bidirectional search, borrowed out of the workspace: hop
/// labels (valid where `stamp` holds the epoch) and every vertex labelled so
/// far, in order, of which `queue[level..]` is the frontier: exactly one
/// level.
struct Side<'a> {
    stamp: &'a mut [u64],
    dist: &'a mut [u64],
    queue: &'a mut Vec<u32>,
    level: usize,
}

impl Side<'_> {
    /// Labels `root` at depth zero as the side's only frontier vertex.
    fn start(&mut self, root: VertexId, epoch: u64) {
        self.stamp[root.index()] = epoch;
        self.dist[root.index()] = 0;
        self.queue.clear();
        self.queue.push(root.0);
    }

    /// The number of vertices on the frontier.
    fn frontier(&self) -> usize {
        self.queue.len() - self.level
    }

    /// Expands the whole current level, labelling each newly reached vertex
    /// one hop deeper, and returns the `s–t` hop distance through the first
    /// vertex reached that `other` has labelled.  With `meets`, the level is
    /// finished instead and every such vertex is pushed onto `meets`.
    #[inline]
    fn expand_level(
        &mut self,
        view: &GraphView<'_>,
        epoch: u64,
        other: &Side<'_>,
        mut meets: Option<&mut Vec<u32>>,
    ) -> Option<u64> {
        let mut met = None;
        let end = self.queue.len();
        for i in std::mem::replace(&mut self.level, end)..end {
            let u = VertexId(self.queue[i]);
            let du = self.dist[u.index()];
            for &(x, e) in view.graph().neighbors(u) {
                let xi = x.index();
                if self.stamp[xi] == epoch || !view.allows_arc(u, x, e) {
                    continue;
                }
                self.stamp[xi] = epoch;
                self.dist[xi] = du + 1;
                self.queue.push(x.0);
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

/// The hop-shortest-path DAG of the last [`SearchWorkspace::canonical_path`].
#[derive(Clone, Debug, Default)]
struct Dag {
    /// Stamp of the last bidirectional search whose DAG contained the vertex.
    member: Vec<u64>,
    /// Worklist of DAG vertices, starting with the meeting level.
    walk: Vec<u32>,
    /// The DAG's arcs, oriented toward the target.
    arcs: Vec<DagArc>,
}

impl Dag {
    /// Walks `walk[from..]` toward the root of the side whose hop labels are
    /// `stamp`/`dist`.  Every allowed arc from a walked vertex `y` to a
    /// neighbour `z` one hop closer to that root is recorded as the
    /// `(tail, head, edge, head level)` that `orient(y, z, e, dist[y])`
    /// returns, and `z` joins the walk unless it is already in the DAG.
    #[inline]
    fn walk_side(
        &mut self,
        view: &GraphView<'_>,
        epoch: u64,
        stamp: &[u64],
        dist: &[u64],
        from: usize,
        orient: impl Fn(u32, u32, u32, u64) -> (u32, u32, u32, u64),
    ) {
        let mut i = from;
        while let Some(&y) = self.walk.get(i) {
            i += 1;
            let dy = dist[y as usize];
            for &(z, e) in view.graph().neighbors(VertexId(y)) {
                let zi = z.index();
                if stamp[zi] != epoch || dist[zi] + 1 != dy || !view.allows_arc(VertexId(y), z, e) {
                    continue;
                }
                let (tail, head, edge, level) = orient(y, z.0, e.0, dy);
                self.arcs.push(DagArc {
                    tail,
                    head,
                    edge,
                    level: level as u32,
                });
                if self.member[zi] != epoch {
                    self.member[zi] = epoch;
                    self.walk.push(z.0);
                }
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

/// A [`SearchWorkspace`] paired with one reusable [`GraphView`]:
/// everything one construction thread needs to run restricted searches
/// without allocating.
///
/// [`SearchEngine::begin`] resets the view in `O(1)` and hands out both
/// halves, so the caller marks the restriction and searches it:
///
/// ```
/// use ftbfs_graph::{generators, SearchEngine, VertexId};
///
/// let g = generators::cycle(6);
/// let mut engine = SearchEngine::new();
/// let (view, ws) = engine.begin(&g);
/// view.remove_vertex(VertexId(1));
/// assert_eq!(ws.bfs_hops(view, VertexId(0), VertexId(2)), Some(4)); // the long way round
/// ```
#[derive(Clone, Debug, Default)]
pub struct SearchEngine<'g> {
    workspace: SearchWorkspace,
    /// Created by the first [`SearchEngine::begin`], then reset in place.
    view: Option<GraphView<'g>>,
}

impl<'g> SearchEngine<'g> {
    /// Creates an empty engine; all buffers grow lazily on first use.
    pub fn new() -> Self {
        SearchEngine::default()
    }

    /// Starts a fresh, unrestricted view of `graph` and returns it with the
    /// workspace that searches it.
    #[inline]
    pub fn begin(&mut self, graph: &'g Graph) -> (&mut GraphView<'g>, &mut SearchWorkspace) {
        let view = match &mut self.view {
            Some(view) => {
                view.reset(graph);
                view
            }
            none => none.insert(GraphView::new(graph)),
        };
        (view, &mut self.workspace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::generators;

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

        // First restriction: remove the centre vertex.
        let (view, ws) = engine.begin(&g);
        view.remove_vertex(v(4));
        assert_eq!(ws.bfs_hops(view, v(0), v(8)), Some(4));
        let search = ws.dijkstra(view, &w, v(0), Some(v(8)));
        assert!(!search.path_to(v(8)).unwrap().contains_vertex(v(4)));

        // Second (same engine, O(1) reset): remove nothing.
        let (view, ws) = engine.begin(&g);
        assert_eq!(ws.bfs_hops(view, v(0), v(8)), Some(4));
        assert_eq!(ws.bfs_hops(view, v(0), v(4)), Some(2));

        // Third: a smaller graph through the same engine.
        let small = generators::path(3);
        let (view, ws) = engine.begin(&small);
        view.remove_vertex(v(1));
        assert_eq!(ws.bfs_hops(view, v(0), v(2)), None);
    }

    /// A splitmix64 step: the tests' deterministic stream of choices.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Which corners of the search space the random restrictions reached.
    #[derive(Default)]
    struct Coverage {
        removed_source: usize,
        removed_target: usize,
        restricted: usize,
        disconnected: usize,
        same_vertex: usize,
        connected: usize,
    }

    /// Checks `bfs_hops` and `canonical_path` under weights `w` against the
    /// one-sided `bfs` and the full `dijkstra(…, Some(t)).path_to(t)` from a
    /// random source to every target, under `trials` random restrictions of
    /// `g` drawn from `seed`.  Each one removes a few vertices (sometimes the
    /// source or a target), fails a few edges and sometimes restricts the
    /// edges incident to one vertex.
    fn cross_check(g: &Graph, w: &TieBreak, seed: u64, trials: usize, cov: &mut Coverage) {
        let mut state = seed;
        let mut pick = |bound: usize| (splitmix(&mut state) % bound as u64) as usize;
        let n = g.vertex_count();
        let mut view = GraphView::new(g);
        let mut ws = SearchWorkspace::new();
        let mut reference = SearchWorkspace::new();
        for _ in 0..trials {
            let s = VertexId::new(pick(n));
            view.reset(g);
            for _ in 0..pick(4) {
                view.remove_vertex(VertexId::new(pick(n)));
            }
            if pick(6) == 0 {
                view.remove_vertex(s);
            }
            for _ in 0..pick(5) {
                view.remove_edge(EdgeId::new(pick(g.edge_count())));
            }
            if pick(3) == 0 {
                let x = VertexId::new(pick(n));
                let incident: Vec<EdgeId> = g.incident_edges(x).collect();
                let keep = pick(incident.len() + 1);
                view.restrict_incident(x, incident.into_iter().take(keep));
                cov.restricted += 1;
            }
            let hops: Vec<Option<u32>> = {
                let full = reference.bfs(&view, s);
                g.vertices().map(|t| full.hops(t)).collect()
            };
            for t in g.vertices() {
                let expected = reference.dijkstra(&view, w, s, Some(t)).path_to(t);
                assert_eq!(
                    ws.bfs_hops(&view, s, t),
                    hops[t.index()],
                    "bfs_hops({s:?}, {t:?}) differs from bfs"
                );
                assert_eq!(
                    ws.canonical_path(&view, w, s, t),
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
        let mut check = |g: &Graph, seed: u64, trials: usize| {
            cross_check(g, &TieBreak::new(g, seed), seed, trials, &mut cov);
        };
        for seed in 1..=3u64 {
            check(&generators::connected_gnp(60, 0.05, seed), seed, 12);
            check(&generators::connected_gnp(40, 0.2, seed), seed + 10, 8);
        }
        check(&generators::grid(6, 9), 21, 12);
        check(&generators::grid(1, 12), 22, 6);
        // Every corner the restrictions can produce was exercised.
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
    fn canonical_path_breaks_full_ties_like_the_heap() {
        // Equal perturbations make every hop-shortest path tie, so only the
        // tie rules pick the path: the least `(weight, id)` tail wins.
        let mut cov = Coverage::default();
        for (g, seed) in [
            (generators::grid(6, 9), 31),
            (generators::grid(4, 4), 32),
            (generators::connected_gnp(40, 0.2, 3), 33),
            (generators::connected_gnp(60, 0.05, 4), 34),
        ] {
            let w = TieBreak::with_equal_perturbations(&g);
            cross_check(&g, &w, seed, 10, &mut cov);
        }
        assert!(cov.connected > 0 && cov.restricted > 0);
        // On a grid the tie rule is visible: from the corner 0 of a 3×3 grid
        // both 2-hop paths to 4 tie, and the one through the smaller tail,
        // 1, wins.
        let g = generators::grid(3, 3);
        let w = TieBreak::with_equal_perturbations(&g);
        let view = GraphView::new(&g);
        let mut ws = SearchWorkspace::new();
        assert_eq!(
            ws.canonical_path(&view, &w, v(0), v(4)),
            Some(Path::new(vec![v(0), v(1), v(4)]))
        );
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
