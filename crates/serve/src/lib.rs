//! # ftbfs-serve
//!
//! The sharded serving front-end of the FT-BFS reproduction: a
//! continuous-stream request/response API over frozen structures
//! ([`ftbfs_oracle::FrozenStructure`]), with snapshot epochs that can be
//! swapped under live load.
//!
//! The `ftbfs-oracle` crate answers *queries*; this crate serves
//! *requests*.  The difference is everything around the query: a typed
//! wire contract, routing across worker shards, response reassembly in
//! submission order, deadlines, a single error surface, and the ability
//! to replace the underlying snapshot without dropping or reordering a
//! single in-flight request.  Five parts:
//!
//! * [`ServeRequest`] / [`ServeResponse`] (module [`request`]) — the
//!   typed contract: source, target(s), [`ftbfs_graph::FaultSpec`],
//!   optional deadline in; sequence number, epoch fingerprint, work
//!   time, and `Answer`-or-[`ServeError`] out.
//! * [`StreamServer`] / [`StreamHandle`] (module [`server`]) — the shard
//!   router: requests with explicit sources pin to `source % workers`
//!   (fault-LRU affinity), source-less requests round-robin; each worker
//!   owns a private [`ftbfs_oracle::QueryEngine`] over the current
//!   epoch's shared structure; responses are reassembled into submission
//!   order per stream.
//! * [`EpochSnapshot`] / [`EpochCell`] / [`EpochPublisher`] (module
//!   [`epoch`]) — safe two-slot epoch swapping: an epoch is one
//!   structure loaded and checked once, at this boundary (fingerprint
//!   re-hash included), a publisher installs it, workers notice the
//!   generation move and take the new handle, and every request is
//!   answered exactly once, by exactly one epoch; requests submitted after
//!   `publish` returns are served by the new epoch.
//! * [`ThroughputHarness`] (module [`harness`]) — batch driving: a
//!   trusted list of queries split across per-thread engines by the
//!   router's shard rule, measuring per-core engine scaling (the serve
//!   plane's own cost is the [`StreamServer`]'s to measure).
//! * [`ServeTelemetry`] (module [`telemetry`]) — the observability plane:
//!   request-lifecycle stage histograms, per-shard backpressure gauges,
//!   the workers' published engine counts and a structured trace-event
//!   ring, all scraped into one [`TelemetrySnapshot`]
//!   ([`StreamServer::telemetry`]).
//!
//! # Failure model
//!
//! The front-end is *self-healing*: worker panics are absorbed by
//! supervision (the shard respawns; the interrupted request is answered
//! [`ServeError::WorkerRestarted`] in its stream slot), a full shard queue
//! is surfaced at submit time as [`SubmitError::Overloaded`],
//! expired-deadline work is answered at admission without being routed,
//! and poisoned epoch locks are recovered rather than propagated.  The
//! absorbed faults are counted in [`ServeHealth`]
//! ([`StreamServer::health`]).  With the `chaos` cargo feature the whole
//! machinery can be exercised under a deterministic fault schedule — see
//! the `chaos` module.
//!
//! # Quick example
//!
//! ```
//! use ftbfs_graph::{generators, FaultSpec, VertexId};
//! use ftbfs_oracle::FrozenStructure;
//! use ftbfs_serve::{EpochSnapshot, ServeConfig, ServeRequest, StreamServer};
//!
//! let g = generators::grid(4, 4);
//! let frozen = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, g.edges());
//! let snapshot = EpochSnapshot::from_bytes(frozen.save()).unwrap();
//!
//! let server = StreamServer::launch(snapshot, ServeConfig::new().workers(2));
//! let mut stream = server.open_stream();
//! for v in 0..16 {
//!     stream.submit(ServeRequest::distance(VertexId(v), FaultSpec::None)).unwrap();
//! }
//! let responses = stream.drain().unwrap();
//! assert_eq!(responses.len(), 16);
//! assert!(responses.iter().enumerate().all(|(i, r)| r.seq == i as u64));
//! assert_eq!(responses[15].distance(), Some(Some(6)), "far corner of the 4×4 grid");
//!
//! drop(stream);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "chaos")]
pub mod chaos;
#[cfg(not(feature = "chaos"))]
pub(crate) mod chaos;
pub mod epoch;
pub mod error;
pub mod harness;
pub mod health;
pub mod queue;
pub mod request;
pub mod server;
pub mod telemetry;

#[cfg(feature = "chaos")]
pub use chaos::{ChaosConfig, ChaosStats, CHAOS_PANIC_MARKER};
pub use epoch::{EpochCell, EpochPublisher, EpochSnapshot};
pub use error::{ServeError, SubmitError};
pub use harness::{BatchReport, ThroughputHarness};
pub use health::ServeHealth;
pub use request::{ServeOutput, ServeRequest, ServeResponse, ServeTarget};
pub use server::{ServeConfig, StreamHandle, StreamServer};
pub use telemetry::ServeTelemetry;

// The telemetry vocabulary a scrape consumer needs, re-exported so
// downstream users can speak it without a direct `ftbfs-telemetry`
// dependency.
pub use ftbfs_telemetry::{MetricsRegistry, TelemetrySnapshot, TimedEvent, TraceEvent};
