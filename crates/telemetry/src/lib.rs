//! # ftbfs-telemetry
//!
//! The observability plane of the FT-BFS serving stack: zero-alloc
//! hot-path metrics, log-linear latency histograms, structured trace
//! events, and two export surfaces from one snapshot.
//!
//! PR 7 made the serving plane absorb faults instead of propagating them,
//! which means the only evidence of a panic storm, a shed burst, or a
//! mid-swap stall is what gets counted.  This crate grows the "seven
//! relaxed counters" seam into a real telemetry layer, in four pieces:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and histograms with
//!   pre-allocated `Arc` handles; hot paths touch only relaxed atomics,
//!   the registry mutex is for registration and scrape (module
//!   [`metrics`]);
//! * [`Histogram`] — fixed-bucket log-linear latency histograms with
//!   per-worker shards merged on scrape, bounded 25% relative quantile
//!   error (module [`hist`]);
//! * [`EventRing`] — bounded ring buffer of typed [`TraceEvent`]s (epoch
//!   publishes/rejections, worker restarts, chaos injections with their
//!   replayable `seed`/`visit` coordinates) drained via
//!   [`EventRing::drain_events`] (module [`events`]);
//! * [`TelemetrySnapshot`] — one scrape, two renderings: Prometheus text
//!   exposition and JSON, with a lossless JSON round-trip back into the
//!   snapshot (module [`export`]) — the `ftbfs-snapshot scrape` ops
//!   command is a thin wrapper over exactly this.
//!
//! The query engine keeps its own counts (`ftbfs_oracle::QueryStats`);
//! the serving layer publishes them into the registry's
//! `ftbfs_engine_*_total` counters, so no engine code depends on this
//! crate.
//!
//! Metric names are a stable contract, centralised in [`names`].
//!
//! This crate is dependency-free, so every layer that records into it
//! (serve, corpus, bench) does so without cycles.
//!
//! # Quick example
//!
//! ```
//! use ftbfs_telemetry::{MetricsRegistry, TelemetrySnapshot};
//!
//! let registry = MetricsRegistry::new();
//! let requests = registry.counter("demo_requests_total", "Requests served");
//! let latency = registry.histogram("demo_latency_ns", "Request latency", 2);
//!
//! // Hot path: relaxed atomic bumps, no locks, no allocation.
//! requests.inc();
//! latency.record(1_250);
//!
//! // Scrape once, render twice; JSON round-trips losslessly.
//! let snapshot = registry.scrape();
//! let prom = snapshot.to_prometheus();
//! assert!(prom.contains("demo_requests_total 1"));
//! let reparsed = TelemetrySnapshot::from_json(&snapshot.to_json()).unwrap();
//! assert_eq!(reparsed, snapshot);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod export;
pub mod hist;
pub mod metrics;
pub mod names;

pub use events::{EventRing, TimedEvent, TraceEvent, DEFAULT_EVENT_CAPACITY};
pub use export::{
    json_escape, CounterSample, GaugeSample, HistogramBucket, HistogramSample, TelemetrySnapshot,
};
pub use hist::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram, HistogramData, BUCKET_COUNT,
    SUB_BUCKETS,
};
pub use metrics::{Counter, Gauge, Labels, MetricsRegistry};
