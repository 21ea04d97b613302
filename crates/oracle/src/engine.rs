//! [`QueryEngine`] — per-thread, zero-allocation answering of post-failure
//! distance and path queries over a [`FrozenView`].
//!
//! The engine is the query-side counterpart of the construction stack's
//! `ftbfs_graph::SearchEngine`: it reuses the same *epoch-stamping* scheme
//! (a vertex's distance/parent slot is meaningful iff its stamp equals the
//! current epoch, so starting a new search invalidates all previous state
//! in `O(1)` without clearing), applied to a FIFO BFS over the borrowed CSR
//! slab of the query's source.  After warm-up,
//! [`QueryEngine::try_distance`] and [`QueryEngine::try_distance_from`]
//! allocate nothing:
//!
//! * **tree fast path** — if the slab carries a precomputed fault-free
//!   tree, a single-target query is answered from it whenever no effective
//!   fault lies on the tree path `π(s, v)` (or `v` is unreached in the
//!   tree).  This is exact for any `|F|`: `π(s, v)` is a shortest path in
//!   `H` that survives in `H ∖ F`, and deleting edges never shortens a
//!   path, so `dist(s, v, H ∖ F) = dist(s, v, H)`.  The test is `O(|F|)`:
//!   at bind time the engine indexes each tree (the child endpoint of every
//!   tree edge, and preorder intervals), so "is `e` on `π(s, v)`" becomes
//!   "is `v` in the subtree below `e`", two compares.  Whole-vertex reads
//!   (all-distances, matrix rows) take the tree only when no fault is in
//!   the slab at all.  On the `perfbench` `scenario-cold` workload (a
//!   5,184-vertex road lattice, `H = G`, four scenario suites, 2-vCPU
//!   host) about 2% of requests have a fault on `π(s, v)`.  Before this
//!   rule 88% of requests ran a BFS and the server answered ~8.9k req/s
//!   (client p50 7.5 ms); with it 25 of 2.7M requests search and it
//!   answers ~517k req/s (p50 110 µs);
//! * **partitioned fault LRU** — a small fixed-capacity cache *per source
//!   partition*, keyed by `(source, FaultSpec)` (as one or two frozen edge
//!   indices), holds the full distance/parent arrays of recently answered
//!   restrictions.  Partitioning by source means a hot fault pair on one
//!   source of an `S × V` workload cannot evict another source's entries;
//! * **epoch-stamped BFS** — everything else runs one BFS over the slab
//!   into reusable arrays, `O(|E(H_s)|)`.
//!
//! The *checked* entry points (`try_*`) return
//! `Result<`[`Answer`]`, `[`QueryError`]`>`: errors instead of panics for
//! out-of-range vertices and unserved sources, and every answer carries the
//! [`Guarantee`] derived from the structure's declared resilience, so fault
//! sets larger than the resilience are answered but flagged.
//!
//! Engines are cheap and thread-local by design: share one view across
//! threads (`&FrozenView` is `Sync`) and give each thread its own
//! `QueryEngine` — that is exactly what `ftbfs_serve::ThroughputHarness`
//! does.  The engine notices (via [`FrozenView::fingerprint`]) when it is
//! handed a different structure and transparently rebinds, invalidating
//! its cache.  Its [`QueryStats`] are the one count of how queries were
//! answered; the serving layer publishes them into its metrics.  Every frozen
//! structure serves from its snapshot bytes, so slab reads are
//! little-endian word loads through [`ftbfs_graph::bytes::LeU32s`].

use crate::api::{Answer, DistanceMatrix, Guarantee, QueryError};
use crate::frozen::{parent_walk, OracleSlab, SourceTree, NO_PARENT, UNREACHED};
use crate::view::FrozenView;
use ftbfs_graph::{FaultSpec, Path, VertexId};
use std::collections::VecDeque;

/// Sentinel frozen-edge index meaning "no fault in this slot".
const NO_FAULT: u32 = u32::MAX;

/// One distance query: a target vertex, the failed edges, and optionally a
/// non-default source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// The source to answer from; `None` means the structure's
    /// [`FrozenView::primary_source`].
    pub source: Option<VertexId>,
    /// The queried vertex `v`.
    pub target: VertexId,
    /// The typed failure specification `F`.
    pub faults: FaultSpec,
}

impl Query {
    /// A query from the structure's primary source under the given faults
    /// (anything convertible: an [`ftbfs_graph::EdgeId`], a pair, a slice,
    /// an array, or a [`FaultSpec`] itself).
    pub fn new(target: VertexId, faults: impl Into<FaultSpec>) -> Self {
        Query {
            source: None,
            target,
            faults: faults.into(),
        }
    }

    /// A fault-free query (`F = ∅`).
    pub fn fault_free(target: VertexId) -> Self {
        Query {
            source: None,
            target,
            faults: FaultSpec::None,
        }
    }

    /// A query from an explicit source vertex — the `S × V` workload form.
    pub fn from_source(source: VertexId, target: VertexId, faults: impl Into<FaultSpec>) -> Self {
        Query {
            source: Some(source),
            target,
            faults: faults.into(),
        }
    }
}

/// Counters describing how queries were answered: the engine's own
/// record, which the serving layer publishes as its
/// `ftbfs_engine_*_total` metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Queries answered from a precomputed fault-free tree: no effective
    /// fault lies on the tree path `π(s, v)`, so the tree distance is exact
    /// in `H ∖ F` (the path survives, and deleting edges never shortens
    /// one).  Whole-vertex reads count here only when no fault is in the
    /// slab.
    pub tree_hits: u64,
    /// Queries answered from the partitioned fault LRU in `O(1)`.
    pub cache_hits: u64,
    /// Queries that ran a BFS over a frozen slab.
    pub searches: u64,
    /// Queries whose answers carried [`Guarantee::BestEffort`] (fault sets
    /// larger than the structure's declared resilience).
    pub best_effort: u64,
    /// Queries whose answers carried [`Guarantee::Approx`] (bounded-stretch
    /// answers from an approximate backend within its resilience).
    pub approx: u64,
}

/// One materialised restriction in a fault-LRU partition.
#[derive(Clone, Debug)]
struct CacheEntry {
    /// `(source, fault1, fault2)` with slab-local frozen indices,
    /// `fault1 <= fault2`, [`NO_FAULT`] padding.
    key: (u32, u32, u32),
    last_used: u64,
    dist: Vec<u32>,
    parent_head: Vec<u32>,
}

/// Sentinel for "not a tree edge" in [`TreeIndex::child_of`] and "unreached"
/// in [`TreeIndex::tin`].
const NOT_IN_TREE: u32 = u32::MAX;

/// One declared source's fault-free tree, indexed so that "does fault `e`
/// lie on `π(s, v)`?" is two compares: `e` is on the path iff `e` is a tree
/// edge and `v` lies in the subtree below it.
#[derive(Clone, Debug, Default)]
struct TreeIndex {
    /// Per slab-local frozen edge index: the child endpoint if the edge is
    /// a tree edge, else [`NOT_IN_TREE`].
    child_of: Vec<u32>,
    /// Preorder entry time per vertex ([`NOT_IN_TREE`] if unreached).
    tin: Vec<u32>,
    /// One past the last preorder time in the vertex's subtree.
    tout: Vec<u32>,
}

/// Reusable scratch for [`TreeIndex::build`]: the tree's child lists in CSR
/// form and the DFS stack of `(vertex, next child slot)`.
#[derive(Clone, Debug, Default)]
struct DfsScratch {
    first_kid: Vec<u32>,
    kids: Vec<u32>,
    stack: Vec<(u32, u32)>,
}

impl TreeIndex {
    /// Indexes `tree`, the fault-free BFS tree of `slab`'s source.  Relies
    /// on the tree's shape, which freezing builds and snapshot views check
    /// on open: parents are in range, each reached vertex is one further
    /// than its parent (so parent pointers are acyclic), and only the
    /// source and unreached vertices have no parent.
    fn build(&mut self, slab: &OracleSlab<'_>, tree: SourceTree<'_>, scratch: &mut DfsScratch) {
        let n = slab.vertex_count();
        let (xadj, heads, edges) = (slab.xadj, slab.adj_head, slab.adj_edge);
        self.child_of.clear();
        self.child_of.resize(slab.edge_count(), NOT_IN_TREE);
        self.tin.clear();
        self.tin.resize(n, NOT_IN_TREE);
        self.tout.clear();
        self.tout.resize(n, 0);
        let DfsScratch {
            first_kid,
            kids,
            stack,
        } = scratch;
        // Child lists by counting sort: counts land at `p + 2`, prefix sums
        // turn `first_kid[p + 1]` into p's fill cursor, and once filled
        // `first_kid[v]..first_kid[v + 1]` are v's children.
        first_kid.clear();
        first_kid.resize(n + 2, 0);
        kids.clear();
        kids.resize(n, 0);
        for v in 0..n {
            let p = tree.parent.get(v);
            if p != NO_PARENT {
                first_kid[p as usize + 2] += 1;
            }
        }
        for i in 2..n + 2 {
            first_kid[i] += first_kid[i - 1];
        }
        for v in 0..n {
            let p = tree.parent.get(v);
            if p == NO_PARENT {
                continue;
            }
            let cursor = &mut first_kid[p as usize + 1];
            kids[*cursor as usize] = v as u32;
            *cursor += 1;
            // Mark every arc from v to its parent, so a parallel arc can
            // never pass for an off-path edge.
            for i in xadj.get(v) as usize..xadj.get(v + 1) as usize {
                if heads.get(i) == p {
                    self.child_of[edges.get(i) as usize] = v as u32;
                }
            }
        }
        // Preorder intervals from an iterative DFS over the child lists.
        let s = slab.source.index();
        let mut clock = 1;
        self.tin[s] = 0;
        stack.clear();
        stack.push((s as u32, first_kid[s]));
        while let Some(top) = stack.last_mut() {
            let (v, next) = *top;
            if next < first_kid[v as usize + 1] {
                top.1 += 1;
                let c = kids[next as usize];
                self.tin[c as usize] = clock;
                clock += 1;
                stack.push((c, first_kid[c as usize]));
            } else {
                self.tout[v as usize] = clock;
                stack.pop();
            }
        }
    }

    /// Whether `target`'s tree answer is exact once the faults `eff` are
    /// removed: `target` is unreached in the tree, or no fault is a tree
    /// edge above it.
    #[inline]
    fn path_survives(&self, tree: SourceTree<'_>, target: VertexId, eff: &[u32]) -> bool {
        let t = target.index();
        if tree.dist.get(t) == UNREACHED {
            return true;
        }
        let at = self.tin[t];
        eff.iter().all(|&e| match self.child_of[e as usize] {
            NOT_IN_TREE => true,
            c => !(self.tin[c as usize] <= at && at < self.tout[c as usize]),
        })
    }
}

/// Where the distances of a resolved query live.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// The slab's precomputed fault-free tree.
    Tree,
    /// A cache entry (partition, index) in the LRU.
    Cache(usize, usize),
    /// The engine's workspace arrays (current epoch), uncached.
    Fresh,
}

/// Per-thread query answering over a [`FrozenView`]; see the module docs.
///
/// All methods take the view by reference, so one engine can be kept per
/// thread while structures come and go (rebinding to a view with a
/// different [`FrozenView::fingerprint`] clears the cache).
///
/// # Examples
///
/// ```
/// use ftbfs_core::dual_failure_ftbfs;
/// use ftbfs_graph::{generators, EdgeId, FaultSpec, TieBreak, VertexId};
/// use ftbfs_oracle::{Freeze, QueryEngine};
///
/// let g = generators::connected_gnp(30, 0.15, 7);
/// let w = TieBreak::new(&g, 7);
/// let frozen = dual_failure_ftbfs(&g, &w, VertexId(0)).freeze(&g);
///
/// let mut engine = QueryEngine::new();
/// let faults = FaultSpec::from((EdgeId(0), EdgeId(3)));
/// let d = engine.try_distance(&frozen, VertexId(9), &faults).unwrap();
/// let p = engine.try_shortest_path(&frozen, VertexId(9), &faults).unwrap();
/// assert!(d.is_exact(), "two faults are within the design resilience");
/// assert_eq!(p.into_value().map(|p| p.len() as u32), d.into_value());
/// ```
#[derive(Clone, Debug)]
pub struct QueryEngine {
    /// Fingerprint of the structure the scratch state is sized for.
    bound: Option<u64>,
    n: usize,
    epoch: u64,
    stamp: Vec<u64>,
    dist: Vec<u32>,
    parent_head: Vec<u32>,
    queue: VecDeque<u32>,
    /// Slab-local frozen indices of the current query's faults that are in
    /// the slab, sorted.
    eff: Vec<u32>,
    /// Fault-LRU partitions: one per declared source, plus a trailing
    /// overflow partition for servable-but-undeclared sources.
    partitions: Vec<Vec<CacheEntry>>,
    /// Tree indexes, one per declared source (by partition), built at bind
    /// time; the overflow partition has none.
    trees: Vec<TreeIndex>,
    dfs: DfsScratch,
    /// Capacity of each partition (0 disables caching entirely).
    cache_capacity: usize,
    clock: u64,
    stats: QueryStats,
}

/// The default per-partition fault-LRU capacity.
///
/// Chosen by the `exp_query_throughput --lru-sweep` experiment (see
/// `BENCH_query.json` and the README's Serving API section).  A
/// persisting-outage mix of ~8 live fault pairs produces ~16 distinct
/// cache keys (each pair also appears as its single-fault prefixes), so
/// the old default of 8 thrashed (~2.1M qps) while 16 holds the working
/// set (~8.8M qps).  32 buys another ~20–30% in the microbench but
/// doubles the resident footprint per partition and mostly caches the
/// churn tail; 16 is the knee.
pub const DEFAULT_CACHE_CAPACITY: usize = 16;

/// How many per-target reads
/// [`QueryEngine::try_all_distances_from_budgeted`] performs between budget
/// polls: coarse enough that the poll (typically an `Instant::now`) stays
/// off the per-read critical path, fine enough that an overrun is noticed
/// within microseconds.
pub const BUDGET_CHECK_STRIDE: usize = 256;

impl Default for QueryEngine {
    fn default() -> Self {
        QueryEngine::new()
    }
}

impl QueryEngine {
    /// Creates an engine with the default per-partition cache capacity
    /// ([`DEFAULT_CACHE_CAPACITY`]).
    pub fn new() -> Self {
        QueryEngine {
            bound: None,
            n: 0,
            epoch: 0,
            stamp: Vec::new(),
            dist: Vec::new(),
            parent_head: Vec::new(),
            queue: VecDeque::new(),
            eff: Vec::new(),
            partitions: Vec::new(),
            trees: Vec::new(),
            dfs: DfsScratch::default(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            clock: 0,
            stats: QueryStats::default(),
        }
    }

    /// Sets the per-partition fault-LRU capacity (0 disables caching
    /// entirely).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        for p in &mut self.partitions {
            p.truncate(capacity);
        }
        self
    }

    /// The counters accumulated since construction or [`Self::reset_stats`].
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Resets the [`QueryStats`] counters to zero.
    pub fn reset_stats(&mut self) {
        self.stats = QueryStats::default();
    }

    // -- checked API -------------------------------------------------------

    /// The distance `dist(s, v, H ∖ F)` from the structure's primary source,
    /// with the [`Guarantee`] derived from the structure's resilience;
    /// `None` inside the answer means `v` is unreachable in the surviving
    /// structure.
    pub fn try_distance(
        &mut self,
        oracle: &FrozenView<'_>,
        target: VertexId,
        spec: &FaultSpec,
    ) -> Result<Answer<Option<u32>>, QueryError> {
        self.try_distance_from(oracle, oracle.primary_source(), target, spec)
    }

    /// [`Self::try_distance`] from an arbitrary source vertex.
    ///
    /// Which sources are servable is the structure's layout: a
    /// [`crate::FrozenStructure`] with one shared slab answers from any
    /// vertex (BFS fallback for undeclared sources), one with per-source
    /// slabs only from its declared set — others return
    /// [`QueryError::UnservedSource`].
    // The per-query path (this and the `prepare`, `map_faults`, `resolve`
    // and `note_guarantee` steps) is `#[inline]` so callers in other
    // crates can inline it: a tree hit takes tens of nanoseconds, and
    // outlined calls cost ~20% of that.
    #[inline]
    pub fn try_distance_from(
        &mut self,
        oracle: &FrozenView<'_>,
        source: VertexId,
        target: VertexId,
        spec: &FaultSpec,
    ) -> Result<Answer<Option<u32>>, QueryError> {
        let (slab, slot) = self.prepare(oracle, source, Some(target), spec)?;
        let d = self.read_distance(&slab, slot, target);
        Ok(Answer::new(d, self.note_guarantee(oracle, spec)))
    }

    /// A shortest surviving path `s → v` inside `H ∖ F` from the primary
    /// source, or `None` (inside the answer) if `v` is unreachable.
    pub fn try_shortest_path(
        &mut self,
        oracle: &FrozenView<'_>,
        target: VertexId,
        spec: &FaultSpec,
    ) -> Result<Answer<Option<Path>>, QueryError> {
        self.try_shortest_path_from(oracle, oracle.primary_source(), target, spec)
    }

    /// [`Self::try_shortest_path`] from an arbitrary source vertex.
    pub fn try_shortest_path_from(
        &mut self,
        oracle: &FrozenView<'_>,
        source: VertexId,
        target: VertexId,
        spec: &FaultSpec,
    ) -> Result<Answer<Option<Path>>, QueryError> {
        if source == target {
            // The trivial path needs no search, but the query must still be
            // valid — the distance and path APIs agree on which
            // (source, target) pairs a structure serves.
            self.check_vertex(oracle, target)?;
            if oracle.slab(source).is_none() {
                return Err(QueryError::UnservedSource { source });
            }
            return Ok(Answer::new(
                Some(Path::singleton(source)),
                self.note_guarantee(oracle, spec),
            ));
        }
        let (slab, slot) = self.prepare(oracle, source, Some(target), spec)?;
        let t = target.index();
        let path = match slot {
            Slot::Tree => slab
                .tree
                .expect("tree slot implies a slab tree")
                .path_to(target),
            Slot::Cache(part, i) => {
                let entry = &self.partitions[part][i];
                (entry.dist[t] != UNREACHED).then(|| parent_walk(&entry.parent_head[..], target))
            }
            Slot::Fresh => {
                (self.stamp[t] == self.epoch).then(|| parent_walk(&self.parent_head[..], target))
            }
        };
        Ok(Answer::new(path, self.note_guarantee(oracle, spec)))
    }

    /// Distances from the primary source to *all* vertices under one fault
    /// spec (one shared resolution, then `O(1)` per vertex).
    pub fn try_all_distances(
        &mut self,
        oracle: &FrozenView<'_>,
        spec: &FaultSpec,
    ) -> Result<Answer<Vec<Option<u32>>>, QueryError> {
        self.try_all_distances_from(oracle, oracle.primary_source(), spec)
    }

    /// [`Self::try_all_distances`] from an arbitrary source vertex.
    pub fn try_all_distances_from(
        &mut self,
        oracle: &FrozenView<'_>,
        source: VertexId,
        spec: &FaultSpec,
    ) -> Result<Answer<Vec<Option<u32>>>, QueryError> {
        let (slab, slot) = self.prepare(oracle, source, None, spec)?;
        let distances = (0..oracle.vertex_count())
            .map(|i| self.read_distance(&slab, slot, VertexId::new(i)))
            .collect();
        Ok(Answer::new(distances, self.note_guarantee(oracle, spec)))
    }

    /// [`Self::try_all_distances_from`] under a caller-supplied budget —
    /// the serving layer's mid-request deadline enforcement.
    ///
    /// `within_budget` is polled once before the (possibly BFS-running)
    /// fault resolution and then every [`BUDGET_CHECK_STRIDE`] per-target
    /// reads; the first `false` abandons the request and returns
    /// `Ok(None)`, discarding the partial work.  The polling points are
    /// deterministic, so a budget closure that counts calls makes the
    /// cutoff reproducible in tests.  `Ok(Some(_))` answers are exactly
    /// [`Self::try_all_distances_from`]'s.
    pub fn try_all_distances_from_budgeted(
        &mut self,
        oracle: &FrozenView<'_>,
        source: VertexId,
        spec: &FaultSpec,
        mut within_budget: impl FnMut() -> bool,
    ) -> Result<Option<Answer<Vec<Option<u32>>>>, QueryError> {
        if !within_budget() {
            return Ok(None);
        }
        let (slab, slot) = self.prepare(oracle, source, None, spec)?;
        let n = oracle.vertex_count();
        let mut distances = Vec::with_capacity(n);
        for i in 0..n {
            if i % BUDGET_CHECK_STRIDE == 0 && !within_budget() {
                return Ok(None);
            }
            distances.push(self.read_distance(&slab, slot, VertexId::new(i)));
        }
        Ok(Some(Answer::new(
            distances,
            self.note_guarantee(oracle, spec),
        )))
    }

    /// The full `S × V` distance table under one fault spec — the batch
    /// form of Gupta–Khan's multi-source FT-MBFS workload.  One resolution
    /// per source, `O(1)` per `(s, v)` cell afterwards.
    pub fn try_distance_matrix(
        &mut self,
        oracle: &FrozenView<'_>,
        spec: &FaultSpec,
    ) -> Result<Answer<DistanceMatrix>, QueryError> {
        let n = oracle.vertex_count();
        let mut data = Vec::with_capacity(oracle.sources().len() * n);
        for &source in oracle.sources() {
            let (slab, slot) = self.prepare(oracle, source, None, spec)?;
            data.extend((0..n).map(|i| self.read_distance(&slab, slot, VertexId::new(i))));
        }
        Ok(Answer::new(
            DistanceMatrix::new(oracle.sources().to_vec(), n, data),
            self.note_guarantee(oracle, spec),
        ))
    }

    // -- internals --------------------------------------------------------

    #[inline]
    fn check_vertex(&self, oracle: &FrozenView<'_>, v: VertexId) -> Result<(), QueryError> {
        if v.index() >= oracle.vertex_count() {
            return Err(QueryError::VertexOutOfRange {
                vertex: v,
                bound: oracle.vertex_count(),
            });
        }
        Ok(())
    }

    /// Counts and returns the guarantee answers under `spec` carry.
    #[inline]
    fn note_guarantee(&mut self, oracle: &FrozenView<'_>, spec: &FaultSpec) -> Guarantee {
        let g = oracle.guarantee(spec);
        match g {
            Guarantee::BestEffort => self.stats.best_effort += 1,
            Guarantee::Approx { .. } => self.stats.approx += 1,
            _ => {}
        }
        g
    }

    /// Validates the query, binds to the structure, and resolves
    /// `(source, spec)` to a distance location, running and caching a BFS
    /// if needed.
    ///
    /// `target` is the one vertex the caller will read, or `None` when it
    /// reads every vertex (all-distances, matrix rows).  Only a single
    /// target can take the tree under faults: the tree is exact for the
    /// vertices whose `π(s, v)` misses the faults, not for the rest.
    #[inline]
    fn prepare<'o>(
        &mut self,
        oracle: &'o FrozenView<'_>,
        source: VertexId,
        target: Option<VertexId>,
        spec: &FaultSpec,
    ) -> Result<(OracleSlab<'o>, Slot), QueryError> {
        if let Some(t) = target {
            self.check_vertex(oracle, t)?;
        }
        self.check_vertex(oracle, source)?;
        let slab = oracle
            .slab(source)
            .ok_or(QueryError::UnservedSource { source })?;
        self.bind(oracle);
        let partition = slab.declared.unwrap_or(self.partitions.len() - 1);
        let slot = self.resolve(&slab, partition, source, target, spec);
        Ok((slab, slot))
    }

    /// Rebinds the scratch state to `oracle` if it is a different structure
    /// than the last query's.
    #[inline]
    fn bind(&mut self, oracle: &FrozenView<'_>) {
        if self.bound != Some(oracle.fingerprint()) {
            self.rebind(oracle);
        }
    }

    /// Sizes the scratch state for `oracle` and indexes its trees.
    #[cold]
    #[inline(never)]
    fn rebind(&mut self, oracle: &FrozenView<'_>) {
        self.bound = Some(oracle.fingerprint());
        self.n = oracle.vertex_count();
        if self.stamp.len() < self.n {
            self.stamp.resize(self.n, 0);
            self.dist.resize(self.n, UNREACHED);
            self.parent_head.resize(self.n, NO_PARENT);
        }
        // One partition per declared source plus the overflow partition for
        // servable-but-undeclared sources; entries of a previous binding
        // are dropped, the partition vectors themselves are reused.
        let wanted = oracle.sources().len() + 1;
        for p in &mut self.partitions {
            p.clear();
        }
        if self.partitions.len() < wanted {
            self.partitions.resize_with(wanted, Vec::new);
        } else {
            self.partitions.truncate(wanted);
        }
        // Index every declared source's tree now rather than on first use,
        // so no query after the binding one allocates.  A source whose slab
        // has no tree keeps a stale index, which `resolve` never consults.
        self.trees
            .resize_with(oracle.sources().len(), TreeIndex::default);
        for (index, &s) in self.trees.iter_mut().zip(oracle.sources()) {
            if let Some(slab) = oracle.slab(s) {
                if let Some(tree) = slab.tree {
                    index.build(&slab, tree, &mut self.dfs);
                }
            }
        }
    }

    /// Translates the spec's original-edge faults into slab-local frozen
    /// indices (dropping faults outside the slab, which cannot affect
    /// answers); the spec's edges are sorted and distinct and the index map
    /// is monotone, so the result is too.
    #[inline]
    fn map_faults(&mut self, slab: &OracleSlab<'_>, spec: &FaultSpec) {
        self.eff.clear();
        for &e in spec.edges() {
            if let Some(i) = slab.frozen_index(e) {
                self.eff.push(i);
            }
        }
        debug_assert!(self.eff.windows(2).all(|w| w[0] < w[1]));
    }

    /// Resolves `(source, spec)` to a distance array location, running and
    /// caching a BFS if needed; a single `target` whose tree path survives
    /// the faults reads the tree (see the module docs).
    #[inline]
    fn resolve(
        &mut self,
        slab: &OracleSlab<'_>,
        partition: usize,
        source: VertexId,
        target: Option<VertexId>,
        spec: &FaultSpec,
    ) -> Slot {
        self.map_faults(slab, spec);
        if let Some(tree) = slab.tree {
            let survives = |t| {
                self.trees
                    .get(partition)
                    .is_some_and(|index| index.path_survives(tree, t, &self.eff))
            };
            if self.eff.is_empty() || target.is_some_and(survives) {
                self.stats.tree_hits += 1;
                return Slot::Tree;
            }
        }
        let key = if self.cache_capacity > 0 && self.eff.len() <= 2 {
            Some((
                source.0,
                self.eff.first().copied().unwrap_or(NO_FAULT),
                self.eff.get(1).copied().unwrap_or(NO_FAULT),
            ))
        } else {
            None
        };
        if let Some(k) = key {
            if let Some(i) = self.cache_lookup(partition, k) {
                self.stats.cache_hits += 1;
                return Slot::Cache(partition, i);
            }
        }
        self.run_bfs(slab, source);
        self.stats.searches += 1;
        match key {
            Some(k) => Slot::Cache(partition, self.cache_store(partition, k)),
            None => Slot::Fresh,
        }
    }

    #[inline]
    fn read_distance(&self, slab: &OracleSlab<'_>, slot: Slot, target: VertexId) -> Option<u32> {
        let raw = match slot {
            Slot::Tree => slab
                .tree
                .expect("tree slot implies a slab tree")
                .dist
                .get(target.index()),
            Slot::Cache(part, i) => self.partitions[part][i].dist[target.index()],
            Slot::Fresh => {
                if self.stamp[target.index()] != self.epoch {
                    UNREACHED
                } else {
                    self.dist[target.index()]
                }
            }
        };
        match raw {
            UNREACHED => None,
            d => Some(d),
        }
    }

    /// One full BFS from `source` over the slab's CSR, skipping the
    /// effective fault edges, into the epoch-stamped workspace arrays.
    fn run_bfs(&mut self, slab: &OracleSlab<'_>, source: VertexId) {
        self.epoch += 1;
        let QueryEngine {
            epoch,
            stamp,
            dist,
            parent_head,
            queue,
            eff,
            ..
        } = self;
        if eff.len() <= 2 {
            let f1 = eff.first().copied().unwrap_or(NO_FAULT);
            let f2 = eff.get(1).copied().unwrap_or(NO_FAULT);
            bfs_kernel(slab, source, *epoch, stamp, dist, parent_head, queue, |e| {
                e == f1 || e == f2
            });
        } else {
            let blocked: &[u32] = eff;
            bfs_kernel(slab, source, *epoch, stamp, dist, parent_head, queue, |e| {
                blocked.binary_search(&e).is_ok()
            });
        }
    }

    /// Finds `key` in a partition's LRU, refreshing its recency.
    fn cache_lookup(&mut self, partition: usize, key: (u32, u32, u32)) -> Option<usize> {
        for (i, entry) in self.partitions[partition].iter_mut().enumerate() {
            if entry.key == key {
                self.clock += 1;
                entry.last_used = self.clock;
                return Some(i);
            }
        }
        None
    }

    /// Materialises the current workspace epoch into a cache entry for
    /// `key`, evicting the partition's least-recently-used entry if at
    /// capacity.
    fn cache_store(&mut self, partition: usize, key: (u32, u32, u32)) -> usize {
        let n = self.n;
        let cache = &mut self.partitions[partition];
        let idx = if cache.len() < self.cache_capacity {
            cache.push(CacheEntry {
                key,
                last_used: 0,
                dist: vec![UNREACHED; n],
                parent_head: vec![NO_PARENT; n],
            });
            cache.len() - 1
        } else {
            let idx = cache
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("capacity > 0 implies a non-empty partition here");
            cache[idx].key = key;
            idx
        };
        self.clock += 1;
        let QueryEngine {
            partitions,
            stamp,
            dist,
            parent_head,
            epoch,
            clock,
            ..
        } = self;
        let entry = &mut partitions[partition][idx];
        entry.last_used = *clock;
        entry.dist.resize(n, UNREACHED);
        entry.parent_head.resize(n, NO_PARENT);
        for i in 0..n {
            if stamp[i] == *epoch {
                entry.dist[i] = dist[i];
                entry.parent_head[i] = parent_head[i];
            } else {
                entry.dist[i] = UNREACHED;
                entry.parent_head[i] = NO_PARENT;
            }
        }
        idx
    }
}

/// The BFS kernel: FIFO traversal over a slab's CSR, labelling reached
/// vertices in the epoch-stamped arrays, skipping arcs whose frozen edge
/// index `blocked(e)` reports as failed.
#[allow(clippy::too_many_arguments)]
fn bfs_kernel<F: Fn(u32) -> bool>(
    slab: &OracleSlab<'_>,
    source: VertexId,
    epoch: u64,
    stamp: &mut [u64],
    dist: &mut [u32],
    parent_head: &mut [u32],
    queue: &mut VecDeque<u32>,
    blocked: F,
) {
    let (xadj, heads, edges) = (slab.xadj, slab.adj_head, slab.adj_edge);
    queue.clear();
    let s = source.index();
    stamp[s] = epoch;
    dist[s] = 0;
    parent_head[s] = NO_PARENT;
    queue.push_back(source.0);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        let (lo, hi) = (xadj.get(u as usize), xadj.get(u as usize + 1));
        for i in lo as usize..hi as usize {
            let fe = edges.get(i);
            if blocked(fe) {
                continue;
            }
            let head = heads.get(i);
            let x = head as usize;
            if stamp[x] == epoch {
                continue;
            }
            stamp[x] = epoch;
            dist[x] = du + 1;
            parent_head[x] = u;
            queue.push_back(head);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::FrozenStructure;
    use ftbfs_core::{dual_failure_ftbfs, multi_failure_ftmbfs_parts};
    use ftbfs_graph::{bfs, generators, EdgeId, GraphView, TieBreak};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Ground truth: BFS inside `H ∖ F` via the old allocating machinery.
    fn reference_distance(
        g: &ftbfs_graph::Graph,
        h: &ftbfs_core::FtBfsStructure,
        s: VertexId,
        t: VertexId,
        spec: &FaultSpec,
    ) -> Option<u32> {
        let removed: Vec<EdgeId> = g.edges().filter(|e| !h.contains(*e)).collect();
        let view = GraphView::new(g)
            .without_edges(removed)
            .without_faults(spec);
        bfs(&view, s).distance(t)
    }

    #[test]
    fn engine_matches_reference_over_fault_sizes() {
        let g = generators::connected_gnp(40, 0.12, 9);
        let w = TieBreak::new(&g, 9);
        let h = dual_failure_ftbfs(&g, &w, v(0));
        let frozen = FrozenStructure::freeze(&g, &h);
        let mut engine = QueryEngine::new();
        let edges: Vec<EdgeId> = g.edges().collect();
        let specs = [
            FaultSpec::None,
            FaultSpec::from(edges[0]),
            FaultSpec::from(edges[edges.len() / 2]),
            FaultSpec::from((edges[1], edges[edges.len() - 1])),
            FaultSpec::from((edges[3], edges[7])),
            // Larger than the design resilience: still exact inside H.
            FaultSpec::from([edges[0], edges[5], edges[10]]),
        ];
        for spec in &specs {
            for t in g.vertices() {
                let answer = engine.try_distance(&frozen, t, spec).unwrap();
                assert_eq!(
                    answer.into_value(),
                    reference_distance(&g, &h, v(0), t, spec),
                    "target {t:?} spec {spec:?}"
                );
                assert_eq!(answer.is_exact(), spec.len() <= 2, "spec {spec:?}");
            }
        }
        assert!(engine.stats().best_effort > 0);
    }

    #[test]
    fn paths_are_valid_shortest_and_avoid_faults() {
        let g = generators::grid(5, 5);
        let frozen = FrozenStructure::from_edges(&g, &[v(0)], 2, g.edges());
        let mut engine = QueryEngine::new();
        let e1 = g.edge_between(v(0), v(1)).unwrap();
        let e2 = g.edge_between(v(0), v(5)).unwrap();
        let spec = FaultSpec::from((e1, e2));
        for t in g.vertices() {
            let d = engine.try_distance(&frozen, t, &spec).unwrap().into_value();
            let p = engine
                .try_shortest_path(&frozen, t, &spec)
                .unwrap()
                .into_value();
            match (d, p) {
                (Some(d), Some(p)) => {
                    assert_eq!(p.len() as u32, d);
                    assert_eq!(p.source(), v(0));
                    assert_eq!(p.target(), t);
                    assert!(p.is_valid_in(&g));
                    assert!(!spec.intersects_path(&g, &p));
                }
                (None, None) => {}
                (d, p) => panic!("distance {d:?} and path {p:?} disagree at {t:?}"),
            }
        }
        // Vertex 0 has exactly those two incident edges, so only 0 reaches 0.
        assert_eq!(
            engine
                .try_distance(&frozen, v(0), &spec)
                .unwrap()
                .into_value(),
            Some(0)
        );
        assert_eq!(
            engine
                .try_distance(&frozen, v(24), &spec)
                .unwrap()
                .into_value(),
            None
        );
        assert_eq!(
            engine
                .try_shortest_path(&frozen, v(0), &spec)
                .unwrap()
                .into_value(),
            Some(Path::singleton(v(0)))
        );
    }

    #[test]
    fn fast_paths_and_cache_are_used() {
        let g = generators::connected_gnp(30, 0.15, 4);
        let w = TieBreak::new(&g, 4);
        let h = dual_failure_ftbfs(&g, &w, v(0));
        let frozen = FrozenStructure::freeze(&g, &h);
        let mut engine = QueryEngine::new();

        // Fault-free queries hit the tree, never searching.
        for t in g.vertices() {
            engine.try_distance(&frozen, t, &FaultSpec::None).unwrap();
        }
        assert_eq!(engine.stats().tree_hits, g.vertex_count() as u64);
        assert_eq!(engine.stats().searches, 0);

        // A fault outside H is equivalent to fault-free: still the tree.
        if let Some(outside) = g.edges().find(|e| !h.contains(*e)) {
            engine
                .try_distance(&frozen, v(5), &FaultSpec::from(outside))
                .unwrap();
            assert_eq!(engine.stats().searches, 0);
        }

        // A faulted tree edge: the targets below it search once, then hit
        // the cache; every other target still reads the tree.
        let tree = frozen.tree_for(v(0)).unwrap();
        let child = g
            .vertices()
            .filter(|&c| tree.parent(c) == Some(v(0)))
            .max_by_key(|&c| below(&g, tree, c).len())
            .unwrap();
        let spec = FaultSpec::from(g.edge_between(v(0), child).unwrap());
        let under = below(&g, tree, child);
        assert!(under.len() >= 2, "the cache needs a repeat to show");
        engine.reset_stats();
        for t in g.vertices() {
            engine.try_distance(&frozen, t, &spec).unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.searches, 1);
        assert_eq!(stats.cache_hits, under.len() as u64 - 1);
        assert_eq!(stats.tree_hits, (g.vertex_count() - under.len()) as u64);
        assert_eq!(stats.best_effort, 0);
    }

    /// The vertices whose tree path runs through `c`: the subtree below
    /// the tree edge into `c`.
    fn below(g: &ftbfs_graph::Graph, tree: crate::SourceTree<'_>, c: VertexId) -> Vec<VertexId> {
        g.vertices()
            .filter(|&t| tree.path_to(t).is_some_and(|p| p.vertices().contains(&c)))
            .collect()
    }

    #[test]
    fn fault_off_the_tree_path_is_a_tree_hit() {
        let g = generators::cycle(10);
        let frozen = FrozenStructure::from_edges(&g, &[v(0)], 2, g.edges());
        let mut engine = QueryEngine::new();
        // π(0, 3) = 0-1-2-3; both faults lie on the other side of the cycle.
        let spec = FaultSpec::from((
            g.edge_between(v(0), v(9)).unwrap(),
            g.edge_between(v(6), v(7)).unwrap(),
        ));
        let d = engine.try_distance(&frozen, v(3), &spec).unwrap();
        assert!(d.is_exact());
        assert_eq!(d.into_value(), Some(3));
        let p = engine.try_shortest_path(&frozen, v(3), &spec).unwrap();
        assert_eq!(p.into_value().map(|p| p.len()), Some(3));
        assert_eq!(engine.stats().tree_hits, 2);
        assert_eq!(engine.stats().searches, 0);
        // Below a faulted tree edge the engine must search: the tree says 2,
        // but two cuts on a cycle leave 7-8-9 unreachable.
        assert_eq!(
            engine
                .try_distance(&frozen, v(8), &spec)
                .unwrap()
                .into_value(),
            None
        );
        assert_eq!(engine.stats().searches, 1);
    }

    #[test]
    fn lru_evicts_and_stays_correct_beyond_capacity() {
        let g = generators::cycle(16);
        let frozen = FrozenStructure::from_edges(&g, &[v(0)], 2, g.edges());
        let mut engine = QueryEngine::new().with_cache_capacity(2);
        let edges: Vec<EdgeId> = g.edges().collect();
        // Cycle through more fault pairs than the cache holds, twice.
        for _round in 0..2 {
            for i in 0..6 {
                let spec = FaultSpec::from((edges[i], edges[i + 6]));
                for t in [v(3), v(8), v(13)] {
                    let expected = bfs(&GraphView::new(&g).without_faults(&spec), v(0)).distance(t);
                    assert_eq!(
                        engine.try_distance(&frozen, t, &spec).unwrap().into_value(),
                        expected
                    );
                }
            }
        }
        assert!(engine.stats().searches >= 6, "evictions force re-searches");
    }

    #[test]
    fn non_canonical_pair_hits_the_canonical_cache_entry() {
        let g = generators::cycle(10);
        let frozen = FrozenStructure::from_edges(&g, &[v(0)], 2, g.edges());
        let mut engine = QueryEngine::new();
        // π(0, 7) = 0-9-8-7 runs through the first fault, so v(7) misses
        // the tree and both specs go through the cache.
        let (a, b) = (
            g.edge_between(v(8), v(9)).unwrap(),
            g.edge_between(v(1), v(2)).unwrap(),
        );
        let canonical = FaultSpec::from((a, b));
        // The same pair given in the other order.
        let backwards = FaultSpec::from((b, a));
        let a = engine
            .try_distance(&frozen, v(7), &canonical)
            .unwrap()
            .into_value();
        let b = engine
            .try_distance(&frozen, v(7), &backwards)
            .unwrap()
            .into_value();
        assert_eq!(a, b);
        assert_eq!(engine.stats().searches, 1, "second spec must hit the cache");
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn batch_matches_single_queries() {
        let g = generators::connected_gnp(25, 0.2, 1);
        let w = TieBreak::new(&g, 1);
        let h = dual_failure_ftbfs(&g, &w, v(0));
        let frozen = FrozenStructure::freeze(&g, &h);
        let edges: Vec<EdgeId> = h.edges().collect();
        let queries: Vec<Query> = g
            .vertices()
            .map(|t| match t.0 % 3 {
                0 => Query::fault_free(t),
                1 => Query::new(t, edges[t.index() % edges.len()]),
                _ => Query::new(
                    t,
                    (
                        edges[t.index() % edges.len()],
                        edges[(t.index() * 7) % edges.len()],
                    ),
                ),
            })
            .collect();
        // One warm engine answers the whole batch in order (its cache,
        // tree index and workspace carry over between queries); a fresh
        // engine answers each query alone.  They must agree.
        let mut batch_engine = QueryEngine::new();
        for q in &queries {
            let batched = batch_engine
                .try_distance(&frozen, q.target, &q.faults)
                .unwrap()
                .into_value();
            let single = QueryEngine::new()
                .try_distance(&frozen, q.target, &q.faults)
                .unwrap()
                .into_value();
            assert_eq!(batched, single, "query {q:?}");
        }
    }

    #[test]
    fn all_distances_and_rebinding() {
        let g = generators::grid(3, 4);
        let frozen_full = FrozenStructure::from_edges(&g, &[v(0)], 2, g.edges());
        let tree_edges: Vec<EdgeId> = g.edges().skip(1).collect();
        let frozen_sparse = FrozenStructure::from_edges(&g, &[v(0)], 2, tree_edges);
        let mut engine = QueryEngine::new();
        let e = g.edge_between(v(1), v(2));
        let spec = e.map(FaultSpec::from).unwrap_or(FaultSpec::None);
        let full = engine
            .try_all_distances(&frozen_full, &spec)
            .unwrap()
            .into_value();
        // Rebinding to a different structure must not reuse cached answers.
        let sparse = engine
            .try_all_distances(&frozen_sparse, &spec)
            .unwrap()
            .into_value();
        let full_again = engine
            .try_all_distances(&frozen_full, &spec)
            .unwrap()
            .into_value();
        assert_eq!(full, full_again);
        assert_eq!(full.len(), g.vertex_count());
        for t in g.vertices() {
            let view = GraphView::new(&g).without_faults(&spec);
            assert_eq!(full[t.index()], bfs(&view, v(0)).distance(t));
        }
        // The sparse structure can only be worse (larger or equal distances).
        for t in g.vertices() {
            match (full[t.index()], sparse[t.index()]) {
                (Some(a), Some(b)) => assert!(a <= b),
                (Some(_), None) => {}
                (None, Some(_)) => panic!("sparse structure reached more than full"),
                (None, None) => {}
            }
        }
    }

    #[test]
    fn budgeted_all_distances_completes_or_abandons_deterministically() {
        let g = generators::grid(4, 4);
        let frozen = FrozenStructure::from_edges(&g, &[v(0)], 2, g.edges());
        let mut engine = QueryEngine::new();
        let e = g.edge_between(v(0), v(1));
        let spec = e.map(FaultSpec::from).unwrap_or(FaultSpec::None);

        // Unlimited budget: identical to the unbudgeted form.
        let unbudgeted = engine
            .try_all_distances_from(&frozen, v(0), &spec)
            .unwrap()
            .into_value();
        let budgeted = engine
            .try_all_distances_from_budgeted(&frozen, v(0), &spec, || true)
            .unwrap()
            .expect("unlimited budget completes")
            .into_value();
        assert_eq!(budgeted, unbudgeted);

        // Budget exhausted before resolution: abandoned, nothing computed.
        assert!(engine
            .try_all_distances_from_budgeted(&frozen, v(0), &spec, || false)
            .unwrap()
            .is_none());

        // Budget exhausted mid-request (the second poll, at target read 0
        // after the resolution): abandoned deterministically.
        let mut polls = 0;
        let outcome = engine
            .try_all_distances_from_budgeted(&frozen, v(0), &spec, || {
                polls += 1;
                polls <= 1
            })
            .unwrap();
        assert!(outcome.is_none(), "second poll cuts the request off");
        assert_eq!(polls, 2, "poll points are deterministic");

        // Invalid queries are still typed errors, not budget outcomes.
        assert_eq!(
            engine.try_all_distances_from_budgeted(&frozen, v(99), &FaultSpec::None, || true),
            Err(QueryError::VertexOutOfRange {
                vertex: v(99),
                bound: 16
            })
        );
    }

    #[test]
    fn distance_from_secondary_source_and_non_source() {
        let g = generators::grid(4, 4);
        let frozen = FrozenStructure::from_edges(&g, &[v(0), v(15)], 2, g.edges());
        let mut engine = QueryEngine::new();
        // Both precomputed sources answer in O(1).
        assert_eq!(
            engine
                .try_distance_from(&frozen, v(15), v(0), &FaultSpec::None)
                .unwrap()
                .into_value(),
            Some(6)
        );
        assert_eq!(engine.stats().searches, 0);
        // A non-source falls back to BFS but is still exact.
        let d = engine
            .try_distance_from(&frozen, v(5), v(10), &FaultSpec::None)
            .unwrap()
            .into_value();
        assert_eq!(d, bfs(&GraphView::new(&g), v(5)).distance(v(10)));
        assert_eq!(engine.stats().searches, 1);
    }

    #[test]
    fn distance_matrix_covers_s_times_v() {
        let g = generators::grid(4, 4);
        let frozen = FrozenStructure::from_edges(&g, &[v(0), v(15)], 2, g.edges());
        let mut engine = QueryEngine::new();
        let e = g.edge_between(v(0), v(1)).unwrap();
        let spec = FaultSpec::from(e);
        let answer = engine.try_distance_matrix(&frozen, &spec).unwrap();
        assert!(answer.is_exact());
        let matrix = answer.into_value();
        assert_eq!(matrix.sources(), &[v(0), v(15)]);
        for (row, &s) in [v(0), v(15)].iter().enumerate() {
            let truth = bfs(&GraphView::new(&g).without_edge(e), s);
            for t in g.vertices() {
                assert_eq!(matrix.get(row, t), truth.distance(t), "row {row} t {t:?}");
            }
        }
        // Row by row, the matrix is the per-source all-distances answer.
        for (row, &s) in [v(0), v(15)].iter().enumerate() {
            let all = engine.try_all_distances_from(&frozen, s, &spec).unwrap();
            assert_eq!(all.value().as_slice(), &matrix.as_flat()[row * 16..][..16]);
        }
    }

    #[test]
    fn errors_are_typed_not_panics() {
        let g = generators::cycle(4);
        let frozen = FrozenStructure::from_edges(&g, &[v(0)], 2, g.edges());
        let mut engine = QueryEngine::new();
        assert_eq!(
            engine.try_distance(&frozen, v(99), &FaultSpec::None),
            Err(QueryError::VertexOutOfRange {
                vertex: v(99),
                bound: 4
            })
        );
        assert_eq!(
            engine.try_distance_from(&frozen, v(99), v(1), &FaultSpec::None),
            Err(QueryError::VertexOutOfRange {
                vertex: v(99),
                bound: 4
            })
        );
        // Multi-source structures reject undeclared sources.
        let w = TieBreak::new(&g, 3);
        let parts = multi_failure_ftmbfs_parts(&g, &w, &[v(0)], 1);
        let multi = FrozenStructure::freeze_parts(&g, &parts);
        assert_eq!(
            engine.try_distance_from(&multi, v(2), v(1), &FaultSpec::None),
            Err(QueryError::UnservedSource { source: v(2) })
        );
    }

    #[test]
    fn degenerate_pair_spec_answers_like_a_single_fault() {
        let g = generators::cycle(8);
        let frozen = FrozenStructure::from_edges(&g, &[v(0)], 2, g.edges());
        let mut engine = QueryEngine::new();
        let e = g.edge_between(v(0), v(1)).unwrap();
        // A pair of one edge twice: must answer exactly like the single
        // fault and share its cache entry.
        let one = FaultSpec::from(e);
        let degenerate = FaultSpec::from((e, e));
        for t in g.vertices() {
            assert_eq!(
                engine.try_distance(&frozen, t, &one).unwrap().into_value(),
                engine
                    .try_distance(&frozen, t, &degenerate)
                    .unwrap()
                    .into_value(),
            );
        }
        assert_eq!(engine.stats().searches, 1, "one shared cache entry");
    }

    #[test]
    fn path_and_distance_apis_agree_on_unserved_sources() {
        let g = generators::cycle(6);
        let w = TieBreak::new(&g, 2);
        let parts = multi_failure_ftmbfs_parts(&g, &w, &[v(0)], 1);
        let multi = FrozenStructure::freeze_parts(&g, &parts);
        // source == target on an unserved source: both checked entry
        // points must reject identically (no singleton-path special case).
        assert_eq!(
            engine_err(|e| e
                .try_distance_from(&multi, v(2), v(2), &FaultSpec::None)
                .map(|_| ())),
            QueryError::UnservedSource { source: v(2) }
        );
        assert_eq!(
            engine_err(|e| e
                .try_shortest_path_from(&multi, v(2), v(2), &FaultSpec::None)
                .map(|_| ())),
            QueryError::UnservedSource { source: v(2) }
        );
        // The served source still gets its trivial path.
        let mut engine = QueryEngine::new();
        assert_eq!(
            engine
                .try_shortest_path_from(&multi, v(0), v(0), &FaultSpec::None)
                .unwrap()
                .into_value(),
            Some(Path::singleton(v(0)))
        );
    }

    fn engine_err(f: impl FnOnce(&mut QueryEngine) -> Result<(), QueryError>) -> QueryError {
        let mut engine = QueryEngine::new();
        f(&mut engine).expect_err("query must be rejected")
    }

    #[test]
    fn multi_oracle_partitions_do_not_evict_each_other() {
        let g = generators::cycle(12);
        let w = TieBreak::new(&g, 5);
        let sources = [v(0), v(6)];
        let parts = multi_failure_ftmbfs_parts(&g, &w, &sources, 2);
        let multi = FrozenStructure::freeze_parts(&g, &parts);
        // Capacity 1 per partition: alternating sources with the same fault
        // would thrash a shared cache, but partitions keep both hot.
        let mut engine = QueryEngine::new().with_cache_capacity(1);
        // v(3) lies below a faulted tree edge from both sources: π(0, 3)
        // uses 1-2 and π(6, 3) uses 4-5, so neither can read its tree.
        let spec = FaultSpec::from((
            g.edge_between(v(1), v(2)).unwrap(),
            g.edge_between(v(4), v(5)).unwrap(),
        ));
        for _ in 0..4 {
            for &s in &sources {
                engine.try_distance_from(&multi, s, v(3), &spec).unwrap();
            }
        }
        // One search per source; all later queries are cache hits.
        assert_eq!(engine.stats().searches, 2);
        assert_eq!(engine.stats().cache_hits, 6);
    }
}
