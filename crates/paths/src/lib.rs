//! # ftbfs-paths
//!
//! Replacement-path substrate for the reproduction of *Dual Failure
//! Resilient BFS Structure* (Merav Parter, PODC 2015).
//!
//! This crate sits between the raw graph substrate (`ftbfs-graph`) and the
//! FT-BFS constructions (`ftbfs-core`).  It provides:
//!
//! * [`detour`] — the three-segment decomposition
//!   `P_{s,v,{e}} = π(s,x) ∘ D ∘ π(y,v)` of Claim 3.4 and the [`detour::Detour`]
//!   type;
//! * [`replacement`] — single-failure replacement paths with the
//!   earliest-divergence selection of step (1) of `Cons2FTBFS`, plus the
//!   batch per-tree-edge driver used by the single-failure FT-BFS
//!   construction;
//! * [`select`] — the earliest π-divergence and earliest D-divergence
//!   searches over the restricted graphs of Eq. (3)/(4), marked on the
//!   reusable view of a [`ftbfs_graph::SearchEngine`].
//!
//! # Example
//!
//! ```
//! use ftbfs_graph::{generators, SearchEngine, SpTree, TieBreak, VertexId};
//! use ftbfs_paths::replacement::SingleFailureReplacer;
//!
//! let g = generators::cycle(8);
//! let w = TieBreak::new(&g, 0);
//! let tree = SpTree::new(&g, &w, VertexId(0));
//! let rep = SingleFailureReplacer::new(&g, &w, &tree);
//! let mut engine = SearchEngine::new();
//! let e = g.edge_between(VertexId(0), VertexId(1)).unwrap();
//! let dec = rep
//!     .earliest_divergence_replacement(&mut engine, VertexId(2), e)
//!     .unwrap();
//! // The replacement path for v=2 goes the long way around the cycle.
//! assert_eq!(dec.reassemble().len(), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detour;
pub mod replacement;
pub mod select;

pub use detour::{decompose, Decomposition, Detour};
pub use replacement::{for_each_tree_edge_failure, SingleFailureReplacer};
pub use select::{
    earliest_detour_divergence, earliest_pi_divergence, fault_distance, DivergenceChoice,
};
