//! # ftbfs-oracle
//!
//! The query-serving subsystem of the FT-BFS reproduction: once a sparse
//! dual-failure structure `H ⊆ G` has been purchased (objective (2) of the
//! paper's introduction), post-failure routing queries
//! `dist(s, v, H ∖ {e1, e2})` should be answered *inside* `H`, exactly, and
//! at production rates.  This crate turns an
//! [`ftbfs_core::FtBfsStructure`] into that production query engine, in
//! five pieces:
//!
//! * [`Answer`], [`Guarantee`], [`QueryError`] — the typed vocabulary of
//!   serving (module [`api`]): queries take a [`ftbfs_graph::FaultSpec`],
//!   answers carry the guarantee the structure's resilience gives them,
//!   and invalid queries are errors instead of panics;
//! * [`FrozenStructure`] — the one frozen type: a structure compiled into
//!   immutable CSR slabs, either one shared slab (the paper's
//!   single-source `H`) or one slab per source of a multi-source FT-MBFS
//!   structure for `S × V` workloads, with fault-free BFS trees
//!   precomputed at freeze time and a structural fingerprint, encoded as
//!   one compact binary [`snapshot`] (magic + checksums) and served
//!   straight out of those bytes.  It is [`FrozenView`] (module [`view`])
//!   over owned bytes; the same type opens borrowed bytes, such as a
//!   mapped file, with zero rebuild;
//! * [`Contract`] — what a structure's answers promise:
//!   exact for the paper's structures, or (module [`approx`],
//!   [`FrozenStructure::freeze_approx`]) the FT-ABFS backend's declared
//!   `(α, β)` stretch — `O(n·θ)` edges instead of `O(n^{5/3})`, surfaced
//!   as [`Guarantee::Approx`] on every in-resilience faulted answer and
//!   stored in the snapshot header;
//! * [`QueryEngine`] — per-thread zero-allocation query answering over a
//!   [`FrozenView`] ([`QueryEngine::try_distance`],
//!   [`QueryEngine::try_shortest_path`],
//!   [`QueryEngine::try_distance_matrix`],
//!   [`QueryEngine::batch_distances`]) with an `O(1)` fault-free fast path
//!   and a per-source-partitioned LRU keyed by `(source, FaultSpec)`,
//!   counting how it answered in [`QueryStats`];
//! * [`BatchReport`] — the shared result type of batched query driving
//!   (module [`report`]), produced by `ftbfs_serve::ThroughputHarness`.
//!
//! `ftbfs_verify::StructureOracle` delegates to this crate, so all existing
//! verification exercises the same query path that production serving uses.
//!
//! # Quick example
//!
//! ```
//! use ftbfs_core::dual_failure_ftbfs;
//! use ftbfs_graph::{generators, FaultSpec, TieBreak, VertexId};
//! use ftbfs_oracle::{Freeze, FrozenStructure, QueryEngine};
//!
//! let g = generators::connected_gnp(40, 0.12, 2015);
//! let w = TieBreak::new(&g, 2015);
//! let h = dual_failure_ftbfs(&g, &w, VertexId(0));
//!
//! // Compile for serving, snapshot, reload: answers are identical.
//! let frozen = h.freeze(&g);
//! let reloaded = FrozenStructure::load(&frozen.save()).unwrap();
//! assert_eq!(frozen, reloaded);
//!
//! let mut engine = QueryEngine::new();
//! let e = g.edge_between(VertexId(0), g.neighbors(VertexId(0))[0].0).unwrap();
//! let d = engine
//!     .try_distance(&frozen, VertexId(7), &FaultSpec::One(e))
//!     .expect("in-range query");
//! assert!(d.is_exact(), "one fault is within the design resilience");
//! assert!(d.into_value().is_some(), "dual-failure structures keep the graph spanned");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod approx;
pub mod engine;
pub mod frozen;
pub mod report;
pub mod snapshot;
pub mod view;

pub use api::{Answer, Contract, DistanceMatrix, Guarantee, QueryError};
pub use engine::{Query, QueryEngine, QueryStats, BUDGET_CHECK_STRIDE, DEFAULT_CACHE_CAPACITY};
pub use frozen::{FrozenStructure, SourceTree};
pub use report::BatchReport;
pub use snapshot::{
    snapshot_layout, SectionEntry, SnapshotError, SnapshotLayout, SnapshotVersion, SNAPSHOT_ALIGN,
    SNAPSHOT_MAGIC, SNAPSHOT_MULTI_MAGIC, SNAPSHOT_VERSION,
};
pub use view::{FrozenView, SnapshotSource};

use ftbfs_core::FtBfsStructure;
use ftbfs_graph::Graph;

/// The freeze entry point on [`FtBfsStructure`]: compile a constructed
/// structure for query serving.
///
/// This lives in a trait because `ftbfs-oracle` sits *above* `ftbfs-core`
/// in the dependency DAG; import it to write `structure.freeze(&graph)`.
pub trait Freeze {
    /// Compiles `self` into a [`FrozenStructure`] over `graph`.
    fn freeze(&self, graph: &Graph) -> FrozenStructure;
}

impl Freeze for FtBfsStructure {
    fn freeze(&self, graph: &Graph) -> FrozenStructure {
        FrozenStructure::freeze(graph, self)
    }
}
