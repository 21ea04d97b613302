//! The exported metric names — a **stable contract**.
//!
//! Every metric the serving stack registers is named by a constant here,
//! with its help string next to it.  Operators alert on these names;
//! renaming one is a breaking change and must be treated like removing a
//! public API.  Durations are recorded in **nanoseconds** (the `_ns`
//! suffix); counters follow the Prometheus `_total` convention; gauges
//! are instantaneous values.
//!
//! Labels used by the stack:
//!
//! * `shard` — serve worker shard index (`"0"`, `"1"`, …);
//! * `target` — request shape, `"one"` (single distance) or `"all"`
//!   (all-distances);
//! * `guarantee` — answer class of an executed request: `"exact"`,
//!   `"approx"`, `"best_effort"`, or `"error"`;
//! * `format` — corpus ingestion source format, `"text"` or `"binary"`;
//! * `suite` / `kind` — corpus scenario suite name and kind slug.

// ---- Query engine (`QueryStats`, published by ftbfs-serve) --------------

/// Counter: queries answered from a precomputed fault-free tree (the
/// `O(1)` fast path).
pub const ENGINE_TREE_HITS: &str = "ftbfs_engine_tree_hits_total";
/// Help string for [`ENGINE_TREE_HITS`].
pub const ENGINE_TREE_HITS_HELP: &str =
    "Queries answered from a precomputed fault-free BFS tree (O(1) fast path)";

/// Counter: queries answered from the per-source LRU cache.
pub const ENGINE_CACHE_HITS: &str = "ftbfs_engine_cache_hits_total";
/// Help string for [`ENGINE_CACHE_HITS`].
pub const ENGINE_CACHE_HITS_HELP: &str = "Queries answered from the per-source fault-pair LRU";

/// Counter: queries that ran the slow path, a BFS over the structure's
/// frozen slab.
pub const ENGINE_SEARCHES: &str = "ftbfs_engine_searches_total";
/// Help string for [`ENGINE_SEARCHES`].
pub const ENGINE_SEARCHES_HELP: &str = "Queries that ran a BFS over the structure's frozen slab";

/// Counter: workspace epoch bumps (one per BFS run; tracks how often the
/// reusable stamp workspace is recycled).
pub const ENGINE_EPOCH_BUMPS: &str = "ftbfs_engine_epoch_bumps_total";
/// Help string for [`ENGINE_EPOCH_BUMPS`].
pub const ENGINE_EPOCH_BUMPS_HELP: &str = "Search-workspace epoch bumps (one per BFS run)";

/// Counter: queries beyond the design resilience answered best-effort.
pub const ENGINE_BEST_EFFORT: &str = "ftbfs_engine_best_effort_total";
/// Help string for [`ENGINE_BEST_EFFORT`].
pub const ENGINE_BEST_EFFORT_HELP: &str =
    "Queries beyond the design resilience answered best-effort";

/// Counter: queries answered under a bounded-stretch `Approx` guarantee.
pub const ENGINE_APPROX: &str = "ftbfs_engine_approx_total";
/// Help string for [`ENGINE_APPROX`].
pub const ENGINE_APPROX_HELP: &str =
    "Queries answered under a bounded-stretch Approx guarantee (approximate backend)";

// ---- Serving health (ftbfs-serve, mirrors `ServeHealth`) ----------------

/// Counter: supervised worker restarts after a panic.
pub const SERVE_WORKER_RESTARTS: &str = "ftbfs_serve_worker_restarts_total";
/// Help string for [`SERVE_WORKER_RESTARTS`].
pub const SERVE_WORKER_RESTARTS_HELP: &str = "Supervised worker restarts after a panic";

/// Counter: submits rejected because a shard queue was full.
pub const SERVE_REJECTED_OVERLOADED: &str = "ftbfs_serve_rejected_overloaded_total";
/// Help string for [`SERVE_REJECTED_OVERLOADED`].
pub const SERVE_REJECTED_OVERLOADED_HELP: &str = "Submits rejected because a shard queue was full";

/// Counter: submits rejected because the shard was unavailable.
pub const SERVE_REJECTED_UNAVAILABLE: &str = "ftbfs_serve_rejected_unavailable_total";
/// Help string for [`SERVE_REJECTED_UNAVAILABLE`].
pub const SERVE_REJECTED_UNAVAILABLE_HELP: &str =
    "Submits rejected because the shard was unavailable";

/// Counter: requests already expired at submit time (answered
/// `DeadlineExceeded` without queueing).
pub const SERVE_EXPIRED_AT_SUBMIT: &str = "ftbfs_serve_expired_at_submit_total";
/// Help string for [`SERVE_EXPIRED_AT_SUBMIT`].
pub const SERVE_EXPIRED_AT_SUBMIT_HELP: &str =
    "Requests already past their deadline at submit time";

/// Counter: accepted epoch publishes.
pub const SERVE_PUBLISHES: &str = "ftbfs_serve_publishes_total";
/// Help string for [`SERVE_PUBLISHES`].
pub const SERVE_PUBLISHES_HELP: &str = "Accepted snapshot publishes (epoch swaps)";

/// Counter: epoch publishes rejected at validation.
pub const SERVE_REJECTED_PUBLISHES: &str = "ftbfs_serve_rejected_publishes_total";
/// Help string for [`SERVE_REJECTED_PUBLISHES`].
pub const SERVE_REJECTED_PUBLISHES_HELP: &str =
    "Snapshot publishes rejected at validation (old epoch kept serving)";

// ---- Serving backpressure gauges (per shard) ----------------------------

/// Gauge (label `shard`): current depth of a shard's bounded work queue.
pub const SERVE_QUEUE_DEPTH: &str = "ftbfs_serve_queue_depth";
/// Help string for [`SERVE_QUEUE_DEPTH`].
pub const SERVE_QUEUE_DEPTH_HELP: &str = "Current depth of the shard's bounded work queue";

/// Gauge (label `shard`): requests picked up by the shard's worker and
/// not yet answered.
pub const SERVE_IN_FLIGHT: &str = "ftbfs_serve_in_flight";
/// Help string for [`SERVE_IN_FLIGHT`].
pub const SERVE_IN_FLIGHT_HELP: &str = "Requests executing on the shard's worker right now";

// ---- Request-lifecycle stage histograms (ftbfs-serve) -------------------

/// Histogram (label `target`): nanoseconds spent in submit/admission
/// (routing, deadline check, queue push) before a request is queued.
pub const STAGE_SUBMIT_NS: &str = "ftbfs_serve_stage_submit_ns";
/// Help string for [`STAGE_SUBMIT_NS`].
pub const STAGE_SUBMIT_NS_HELP: &str =
    "Submit/admission latency in nanoseconds (routing + deadline check + queue push)";

/// Histogram (label `target`): nanoseconds a request waited in its shard
/// queue before a worker picked it up.
pub const STAGE_QUEUE_WAIT_NS: &str = "ftbfs_serve_stage_queue_wait_ns";
/// Help string for [`STAGE_QUEUE_WAIT_NS`].
pub const STAGE_QUEUE_WAIT_NS_HELP: &str =
    "Queue-wait latency in nanoseconds (submit to worker pickup)";

/// Histogram (labels `target`, `guarantee`): nanoseconds the engine spent
/// executing the request (the `work_ns` the response also carries).
pub const STAGE_EXECUTE_NS: &str = "ftbfs_serve_stage_execute_ns";
/// Help string for [`STAGE_EXECUTE_NS`].
pub const STAGE_EXECUTE_NS_HELP: &str =
    "Engine execute latency in nanoseconds, by target and answer guarantee";

/// Histogram (no labels): nanoseconds a response spent parked in the
/// receive-side reorder buffer waiting for earlier sequence numbers.
pub const STAGE_REASSEMBLY_NS: &str = "ftbfs_serve_stage_reassembly_ns";
/// Help string for [`STAGE_REASSEMBLY_NS`].
pub const STAGE_REASSEMBLY_NS_HELP: &str =
    "Reassembly latency in nanoseconds (parked in the reorder buffer awaiting earlier seqs)";

// ---- Corpus ingestion (ftbfs-corpus) ------------------------------------

/// Counter (label `format`): edges accepted into a graph by an ingestion
/// run (`"text"` or `"binary"`).
pub const CORPUS_EDGES_INGESTED: &str = "ftbfs_corpus_edges_ingested_total";
/// Help string for [`CORPUS_EDGES_INGESTED`].
pub const CORPUS_EDGES_INGESTED_HELP: &str = "Edges accepted by corpus ingestion, by format";

/// Counter (label `format`): edge records rejected by ingestion policy
/// (self-loops and duplicates dropped rather than added).
pub const CORPUS_LINES_REJECTED: &str = "ftbfs_corpus_lines_rejected_total";
/// Help string for [`CORPUS_LINES_REJECTED`].
pub const CORPUS_LINES_REJECTED_HELP: &str =
    "Edge records rejected by ingestion policy (self-loops + duplicates), by format";

/// Counter (label `format`): vertex ids moved by dense-id compaction.
pub const CORPUS_IDS_REMAPPED: &str = "ftbfs_corpus_ids_remapped_total";
/// Help string for [`CORPUS_IDS_REMAPPED`].
pub const CORPUS_IDS_REMAPPED_HELP: &str =
    "Vertex ids compacted to a different dense id during ingestion, by format";

/// Histogram (label `format`): nanoseconds per ingestion run (file open
/// to finished graph); divide the edge counter by this for edges/s.
pub const CORPUS_INGEST_NS: &str = "ftbfs_corpus_ingest_ns";
/// Help string for [`CORPUS_INGEST_NS`].
pub const CORPUS_INGEST_NS_HELP: &str = "Ingestion run duration in nanoseconds, by format";

/// Counter (labels `suite`, `kind`): fault specs recorded into a scenario
/// suite.
pub const CORPUS_SUITE_FAULTS: &str = "ftbfs_corpus_suite_faults_total";
/// Help string for [`CORPUS_SUITE_FAULTS`].
pub const CORPUS_SUITE_FAULTS_HELP: &str =
    "Fault specifications recorded into a scenario suite, by suite name and kind";

/// Counter (label `suite`): requests an experiment ran from a scenario
/// suite.
pub const CORPUS_SUITE_REQUESTS: &str = "ftbfs_corpus_suite_requests_total";
/// Help string for [`CORPUS_SUITE_REQUESTS`].
pub const CORPUS_SUITE_REQUESTS_HELP: &str =
    "Requests executed from a scenario suite, by suite name";

// ---- Throughput harness (ftbfs-serve::ThroughputHarness) ----------------

/// Histogram: nanoseconds per driven batch in the instrumented harness.
pub const HARNESS_BATCH_NS: &str = "ftbfs_harness_batch_ns";
/// Help string for [`HARNESS_BATCH_NS`].
pub const HARNESS_BATCH_NS_HELP: &str = "Batch execution time in the instrumented harness";

/// The `target` label key.
pub const LABEL_TARGET: &str = "target";
/// The `guarantee` label key.
pub const LABEL_GUARANTEE: &str = "guarantee";
/// The `shard` label key.
pub const LABEL_SHARD: &str = "shard";
/// The `format` label key (corpus ingestion: `"text"` or `"binary"`).
pub const LABEL_FORMAT: &str = "format";
/// The `suite` label key (corpus scenario suite name).
pub const LABEL_SUITE: &str = "suite";
/// The `kind` label key (corpus scenario kind slug).
pub const LABEL_KIND: &str = "kind";
