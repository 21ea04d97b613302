//! # ftbfs-core
//!
//! Fault-tolerant BFS structure constructions from *Dual Failure Resilient
//! BFS Structure* (Merav Parter, PODC 2015).
//!
//! The crate implements the paper's constructions on top of the
//! `ftbfs-graph` / `ftbfs-paths` substrates:
//!
//! * [`single`] — the single-failure FT-BFS construction of Parter–Peleg
//!   (ESA 2013), `O(n^{3/2})` edges; the baseline the paper extends;
//! * [`dual`] — **Algorithm `Cons2FTBFS`** (Section 3): dual-failure FT-BFS
//!   with the paper's divergence-point preference rules and `O(n^{5/3})`
//!   edges (Theorem 1.1);
//! * [`multi`] — generic `f`-failure FT-MBFS structures via relevant-fault
//!   enumeration (the generalisation sketched at the end of Section 1);
//!   with `f = 2` it is the canonical-selection baseline of `Cons2FTBFS`;
//! * [`approx`] — the `O(log n)` approximation algorithm for Minimum FT-MBFS
//!   (Section 5, Theorem 1.3) with its greedy [`setcover`] substrate;
//! * [`approx_ftbfs()`] — the FT-ABFS construction (Parter–Peleg, arXiv
//!   1406.6169): `O(n·θ)`-size dual-failure structures with an `(α, β)`
//!   stretch contract and the reinforcement knob `θ` of arXiv 1504.04169;
//! * [`ftdiam`] — the FT-diameter size bound of Observation 1.6;
//! * [`structure`] — the [`FtBfsStructure`] output type shared by all of the
//!   above.
//!
//! # Quick example
//!
//! ```
//! use ftbfs_core::{dual_failure_ftbfs, single_failure_ftbfs};
//! use ftbfs_graph::{generators, TieBreak, VertexId};
//!
//! let g = generators::connected_gnp(40, 0.1, 7);
//! let w = TieBreak::new(&g, 7);
//! let single = single_failure_ftbfs(&g, &w, VertexId(0));
//! let dual = dual_failure_ftbfs(&g, &w, VertexId(0));
//! assert!(single.edge_count() <= dual.edge_count());
//! assert!(dual.edge_count() <= g.edge_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod approx_ftbfs;
pub mod dual;
pub mod ftdiam;
pub mod multi;
pub mod setcover;
pub mod single;
pub mod structure;

pub use approx::approx_minimum_ftmbfs;
pub use approx_ftbfs::{
    approx_ftbfs, ApproxBuildStats, ApproxFtBfs, ApproxParams, APPROX_RESILIENCE,
};
pub use dual::{dual_failure_ftbfs, dual_failure_ftmbfs, DualFtBfs, DualFtBfsBuilder};
pub use ftdiam::{ft_diameter_bound, FtDiameterBound};
pub use multi::{
    multi_failure_ftbfs, multi_failure_ftmbfs, multi_failure_ftmbfs_parts,
    multi_failure_ftmbfs_parts_threads,
};
pub use single::{bfs_tree_size, single_failure_ftbfs, single_failure_ftmbfs};
pub use structure::FtBfsStructure;
