//! # ftbfs-graph
//!
//! Graph substrate for the reproduction of *Dual Failure Resilient BFS
//! Structure* (Merav Parter, PODC 2015).
//!
//! The paper studies undirected unweighted graphs `G = (V, E)` with a source
//! `s`, shortest paths `π(s, v)` made unique by a tie-breaking weight
//! assignment `W`, and subgraphs of `G` obtained by removing failed edges or
//! path segments.  This crate provides exactly those building blocks:
//!
//! * [`Graph`] / [`GraphBuilder`] — immutable simple graphs with dense
//!   vertex/edge ids;
//! * [`Path`] — vertex-sequence paths with the segment algebra (`P[a,b]`,
//!   `P1 ∘ P2`, `LastE(P)`, divergence points) used throughout the paper;
//! * [`FaultSet`] / [`GraphView`] / [`ViewOverlay`] — fault sets `F` and
//!   restricted views `G ∖ F` (owned or epoch-stamped reusable), vertex
//!   removals, and per-vertex incident-edge restrictions, unified by the
//!   [`Restriction`] trait;
//! * [`TieBreak`] — the weight assignment `W` that makes shortest paths
//!   unique while preserving hop-shortestness;
//! * [`bfs()`]/[`bfs_to_target`] and [`dijkstra()`]/[`shortest_path`] — searches
//!   over restricted views, unweighted and under `W`;
//! * [`SearchWorkspace`] / [`SearchEngine`] — zero-allocation reusable
//!   search state for the construction hot loops;
//! * [`SpTree`] — the BFS/shortest-path tree `T_0(s)` and the canonical
//!   paths `π(s, v)`;
//! * [`restrict`] — the restricted graphs `G(u_k, u_ℓ)` (Eq. 3) and
//!   `G_D(w_ℓ)` (Eq. 4);
//! * [`generators`] — deterministic and random workload graphs;
//! * [`properties`] — connectivity, diameter, degree statistics and the
//!   FT-diameter estimate of Observation 1.6;
//! * [`io`] — streaming text edge-list parsing (legacy and DIMACS-style
//!   headers, optional id remapping, typed [`io::ParseError`]s) shared
//!   with the `ftbfs-corpus` ingestion crate;
//! * [`bytes`] — little-endian byte I/O and checksums shared by binary
//!   snapshot formats (used by `ftbfs-oracle`'s frozen-structure snapshots).
//!
//! # Quick example
//!
//! ```
//! use ftbfs_graph::{generators, GraphView, SpTree, TieBreak, VertexId, bfs};
//!
//! let g = generators::grid(4, 4);
//! let w = TieBreak::new(&g, 2015);
//! let tree = SpTree::new(&g, &w, VertexId(0));
//! assert_eq!(tree.depth(VertexId(15)), Some(6));
//!
//! // Remove an edge and measure the replacement distance.
//! let e = g.edge_between(VertexId(0), VertexId(1)).unwrap();
//! let view = GraphView::new(&g).without_edge(e);
//! assert_eq!(bfs(&view, VertexId(0)).distance(VertexId(1)), Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod bytes;
pub mod dijkstra;
pub mod fault;
pub mod generators;
pub mod graph;
pub mod io;
pub mod path;
pub mod properties;
pub mod restrict;
pub mod sptree;
pub mod tiebreak;
pub mod workspace;

pub use bfs::{bfs, bfs_to_target, BfsResult};
pub use dijkstra::{dijkstra, shortest_path, shortest_weight, ShortestPaths};
pub use fault::{
    FaultSet, FaultSpec, FaultSpecIter, GraphView, OverlayView, Restriction, ViewOverlay,
};
pub use graph::{EdgeId, Endpoints, Graph, GraphBuilder, VertexId};
pub use io::{
    EdgeListParser, EdgeRejection, GraphAccumulator, IngestOptions, IngestStats, LinePolicy,
    ParseError, WeightPolicy,
};
pub use path::Path;
pub use sptree::SpTree;
pub use tiebreak::TieBreak;
pub use workspace::{Search, SearchEngine, SearchWorkspace};
