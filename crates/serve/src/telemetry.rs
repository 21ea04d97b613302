//! The server's telemetry plane: [`ServeTelemetry`] bundles the metrics
//! registry, the request-lifecycle stage histograms, the per-shard
//! backpressure gauges, and the structured trace-event ring that one
//! [`crate::StreamServer`] shares across its streams, workers and
//! publishers.
//!
//! Everything here follows the relaxed-atomic discipline of the health
//! counters: hot-path recording is a handful of relaxed RMWs on
//! pre-registered `Arc` handles (no locks, no allocation), and
//! [`ServeTelemetry::scrape`] folds the whole plane into one
//! [`TelemetrySnapshot`] that both export surfaces (Prometheus text and
//! JSON) render from.
//!
//! Stage timing splits a request's life into four measured segments:
//!
//! | stage | histogram | recorded by |
//! |---|---|---|
//! | submit/admission | [`names::STAGE_SUBMIT_NS`] | [`crate::StreamHandle::submit`] |
//! | queue wait | [`names::STAGE_QUEUE_WAIT_NS`] | worker, at item pickup |
//! | engine execute | [`names::STAGE_EXECUTE_NS`] | worker, around `answer` |
//! | reassembly | [`names::STAGE_REASSEMBLY_NS`] | [`crate::StreamHandle::recv`] |
//!
//! Workers publish their engines' [`QueryStats`] into the
//! `ftbfs_engine_*_total` counters before each reply, so a drained
//! stream's counters are exact.
//!
//! Submit, queue-wait and execute are labelled by request `target`
//! (`"one"`/`"all"`); execute is additionally labelled by the answer
//! `guarantee` (`"exact"`, `"approx"`, `"best_effort"`, `"error"`).
//! Workers record
//! into their own histogram shard, so concurrent shards never contend on
//! a bucket cache line.

use crate::request::{ServeOutput, ServeTarget};
use crate::ServeError;
use ftbfs_oracle::{Answer, Guarantee, QueryEngine, QueryStats};
use ftbfs_telemetry::{
    names, Counter, EventRing, Gauge, Histogram, MetricsRegistry, TelemetrySnapshot, TimedEvent,
    DEFAULT_EVENT_CAPACITY,
};
use std::sync::Arc;

/// Index of a [`ServeTarget`] into the per-target histogram arrays.
fn target_index(target: &ServeTarget) -> usize {
    match target {
        ServeTarget::One(_) => 0,
        _ => 1,
    }
}

/// The `target` label value of a [`ServeTarget`].
fn target_label(index: usize) -> &'static str {
    if index == 0 {
        "one"
    } else {
        "all"
    }
}

/// Number of `guarantee` label values (see [`guarantee_label`]).
const GUARANTEE_LABELS: usize = 4;

/// The `guarantee` label index of an outcome: exact, approx, best-effort,
/// error.  Unknown future guarantee variants land on `"best_effort"` (the
/// weakest successful class) rather than a fabricated label.
fn guarantee_index(outcome: &Result<Answer<ServeOutput>, ServeError>) -> usize {
    match outcome {
        Ok(a) => match a.guarantee() {
            Guarantee::Exact => 0,
            Guarantee::Approx { .. } => 1,
            _ => 2,
        },
        Err(_) => 3,
    }
}

/// The `guarantee` label value for an index from [`guarantee_index`].
fn guarantee_label(index: usize) -> &'static str {
    ["exact", "approx", "best_effort", "error"][index]
}

/// The registry's engine counters, fed from the engines' own
/// [`QueryStats`]: [`EngineCounters::publish`] moves what an engine counted
/// since its last publish into the counters, so they hold the summed stats
/// of every engine that served.
#[derive(Clone, Debug)]
pub(crate) struct EngineCounters {
    tree_hits: Counter,
    cache_hits: Counter,
    searches: Counter,
    epoch_bumps: Counter,
    best_effort: Counter,
    approx: Counter,
}

impl EngineCounters {
    /// Registers (or retrieves) the unlabelled `ftbfs_engine_*_total`
    /// counters on `registry`.
    pub(crate) fn register(registry: &MetricsRegistry) -> Self {
        let counter = |name, help| registry.counter(name, help);
        EngineCounters {
            tree_hits: counter(names::ENGINE_TREE_HITS, names::ENGINE_TREE_HITS_HELP),
            cache_hits: counter(names::ENGINE_CACHE_HITS, names::ENGINE_CACHE_HITS_HELP),
            searches: counter(names::ENGINE_SEARCHES, names::ENGINE_SEARCHES_HELP),
            epoch_bumps: counter(names::ENGINE_EPOCH_BUMPS, names::ENGINE_EPOCH_BUMPS_HELP),
            best_effort: counter(names::ENGINE_BEST_EFFORT, names::ENGINE_BEST_EFFORT_HELP),
            approx: counter(names::ENGINE_APPROX, names::ENGINE_APPROX_HELP),
        }
    }

    /// Adds `engine`'s stats to the counters and resets them.  Every
    /// search bumps the engine's workspace epoch once, so `epoch_bumps`
    /// advances with `searches`.  Zero fields cost no atomic.
    #[inline]
    pub(crate) fn publish(&self, engine: &mut QueryEngine) {
        let QueryStats {
            tree_hits,
            cache_hits,
            searches,
            best_effort,
            approx,
        } = engine.stats();
        engine.reset_stats();
        for (counter, n) in [
            (&self.tree_hits, tree_hits),
            (&self.cache_hits, cache_hits),
            (&self.searches, searches),
            (&self.epoch_bumps, searches),
            (&self.best_effort, best_effort),
            (&self.approx, approx),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

/// One server's telemetry plane; obtained from
/// [`crate::StreamServer::telemetry`].
///
/// Cheap to share (`Arc` internally); scraping is read-only and safe
/// under live load.
#[derive(Debug)]
pub struct ServeTelemetry {
    registry: Arc<MetricsRegistry>,
    events: Arc<EventRing>,
    /// `[one, all]` submit/admission latency.
    stage_submit: [Histogram; 2],
    /// `[one, all]` queue-wait latency.
    stage_queue_wait: [Histogram; 2],
    /// `[one, all] × [exact, approx, best_effort, error]` execute latency.
    stage_execute: [[Histogram; GUARANTEE_LABELS]; 2],
    /// Reorder-buffer residency (all targets).
    stage_reassembly: Histogram,
    /// The engine counters every worker publishes into.
    engine: EngineCounters,
    /// Per-shard bounded-queue depth gauges.
    queue_depth: Vec<Gauge>,
    /// Per-shard in-flight (picked up, not yet answered) gauges.
    in_flight: Vec<Gauge>,
}

impl ServeTelemetry {
    /// Builds the plane for a server with `workers` shards: registers the
    /// stage histograms (one writer shard per worker) and the per-shard
    /// gauges, and allocates the event ring.
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let registry = Arc::new(MetricsRegistry::new());
        let target_hist = |name, help| {
            [0, 1].map(|t| {
                registry.histogram_with(
                    name,
                    help,
                    vec![(names::LABEL_TARGET, target_label(t).to_string())],
                    workers,
                )
            })
        };
        let stage_submit = target_hist(names::STAGE_SUBMIT_NS, names::STAGE_SUBMIT_NS_HELP);
        let stage_queue_wait =
            target_hist(names::STAGE_QUEUE_WAIT_NS, names::STAGE_QUEUE_WAIT_NS_HELP);
        let stage_execute = [0, 1].map(|t| {
            [0, 1, 2, 3].map(|g| {
                registry.histogram_with(
                    names::STAGE_EXECUTE_NS,
                    names::STAGE_EXECUTE_NS_HELP,
                    vec![
                        (names::LABEL_TARGET, target_label(t).to_string()),
                        (names::LABEL_GUARANTEE, guarantee_label(g).to_string()),
                    ],
                    workers,
                )
            })
        });
        let stage_reassembly = registry.histogram(
            names::STAGE_REASSEMBLY_NS,
            names::STAGE_REASSEMBLY_NS_HELP,
            workers,
        );
        let shard_gauge = |name, help| {
            (0..workers)
                .map(|i| registry.gauge_with(name, help, vec![(names::LABEL_SHARD, i.to_string())]))
                .collect()
        };
        let queue_depth = shard_gauge(names::SERVE_QUEUE_DEPTH, names::SERVE_QUEUE_DEPTH_HELP);
        let in_flight = shard_gauge(names::SERVE_IN_FLIGHT, names::SERVE_IN_FLIGHT_HELP);
        ServeTelemetry {
            engine: EngineCounters::register(&registry),
            registry,
            events: Arc::new(EventRing::new(DEFAULT_EVENT_CAPACITY)),
            stage_submit,
            stage_queue_wait,
            stage_execute,
            stage_reassembly,
            queue_depth,
            in_flight,
        }
    }

    /// The metric registry backing this plane (for registering additional
    /// caller-side metrics against the same scrape).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Scrapes every metric into one [`TelemetrySnapshot`] — the input of
    /// both the Prometheus and the JSON exporter.
    pub fn scrape(&self) -> TelemetrySnapshot {
        self.registry.scrape()
    }

    /// Removes and returns all buffered trace events, oldest first.
    pub fn drain_events(&self) -> Vec<TimedEvent> {
        self.events.drain_events()
    }

    /// Number of trace events dropped because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.events.dropped()
    }

    /// The shared event ring (for wiring publishers and injectors).
    pub(crate) fn events(&self) -> &Arc<EventRing> {
        &self.events
    }

    /// The engine counters workers publish their [`QueryStats`] into.
    pub(crate) fn engine(&self) -> &EngineCounters {
        &self.engine
    }

    /// The queue-depth gauge of shard `shard`.
    pub(crate) fn queue_depth_gauge(&self, shard: usize) -> Gauge {
        self.queue_depth[shard % self.queue_depth.len()].clone()
    }

    /// The in-flight gauge of shard `shard`.
    pub(crate) fn in_flight_gauge(&self, shard: usize) -> Gauge {
        self.in_flight[shard % self.in_flight.len()].clone()
    }

    /// Records one submit/admission latency.
    pub(crate) fn record_submit(&self, target: &ServeTarget, ns: u64) {
        self.stage_submit[target_index(target)].record(ns);
    }

    /// Records one queue-wait latency from shard `shard`'s worker.
    pub(crate) fn record_queue_wait(&self, shard: usize, target: &ServeTarget, ns: u64) {
        self.stage_queue_wait[target_index(target)]
            .for_shard(shard)
            .record(ns);
    }

    /// Records one engine-execute latency from shard `shard`'s worker.
    pub(crate) fn record_execute(
        &self,
        shard: usize,
        target: &ServeTarget,
        outcome: &Result<Answer<ServeOutput>, ServeError>,
        ns: u64,
    ) {
        self.stage_execute[target_index(target)][guarantee_index(outcome)]
            .for_shard(shard)
            .record(ns);
    }

    /// Records one reorder-buffer residency.
    pub(crate) fn record_reassembly(&self, ns: u64) {
        self.stage_reassembly.record(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::VertexId;

    #[test]
    fn stage_recording_lands_in_the_right_labelled_series() {
        let telemetry = ServeTelemetry::new(2);
        telemetry.record_submit(&ServeTarget::One(VertexId(0)), 100);
        telemetry.record_submit(&ServeTarget::All, 200);
        telemetry.record_queue_wait(1, &ServeTarget::One(VertexId(0)), 300);
        telemetry.record_execute(
            0,
            &ServeTarget::One(VertexId(0)),
            &Err(ServeError::DeadlineExceeded),
            400,
        );
        telemetry.record_reassembly(500);
        let snapshot = telemetry.scrape();
        let series = |name: &str, labels: &[(&str, &str)]| {
            snapshot
                .histograms
                .iter()
                .find(|h| {
                    h.name == name
                        && h.labels
                            == labels
                                .iter()
                                .map(|(k, v)| (k.to_string(), v.to_string()))
                                .collect::<Vec<_>>()
                })
                .unwrap_or_else(|| panic!("series {name} {labels:?} missing"))
        };
        assert_eq!(
            series(names::STAGE_SUBMIT_NS, &[("target", "one")]).count,
            1
        );
        assert_eq!(
            series(names::STAGE_SUBMIT_NS, &[("target", "all")]).count,
            1
        );
        assert_eq!(
            series(names::STAGE_QUEUE_WAIT_NS, &[("target", "one")]).sum,
            300
        );
        assert_eq!(
            series(
                names::STAGE_EXECUTE_NS,
                &[("target", "one"), ("guarantee", "error")]
            )
            .count,
            1
        );
        assert_eq!(series(names::STAGE_REASSEMBLY_NS, &[]).sum, 500);
    }

    #[test]
    fn engine_counters_publish_and_reset_the_engine_stats() {
        use ftbfs_graph::{generators, FaultSpec};
        use ftbfs_oracle::FrozenStructure;
        let g = generators::cycle(8);
        let frozen = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, g.edges());
        let e = |u, v| g.edge_between(VertexId(u), VertexId(v)).unwrap();
        let registry = MetricsRegistry::new();
        let counters = EngineCounters::register(&registry);
        let mut engine = QueryEngine::new();
        let cut = FaultSpec::One(e(0, 1));
        for spec in [&FaultSpec::None, &cut, &cut] {
            engine.try_distance(&frozen, VertexId(2), spec).unwrap();
        }
        let three = FaultSpec::from([e(2, 3), e(4, 5), e(6, 7)]);
        engine.try_distance(&frozen, VertexId(1), &three).unwrap();
        counters.publish(&mut engine);
        assert_eq!(engine.stats(), QueryStats::default(), "publish resets");
        // Publishing again adds nothing.
        counters.publish(&mut engine);
        let scrape = registry.scrape();
        let value = |name: &str| {
            let c = scrape.counters.iter().find(|c| c.name == name);
            c.expect("registered").value
        };
        // The tree answers the fault-free query and (the fault lies off
        // π(0, 1)) the three-fault one; the cut searches once, then hits.
        assert_eq!(value(names::ENGINE_TREE_HITS), 2);
        assert_eq!(value(names::ENGINE_CACHE_HITS), 1);
        assert_eq!(value(names::ENGINE_SEARCHES), 1);
        assert_eq!(value(names::ENGINE_EPOCH_BUMPS), 1);
        assert_eq!(value(names::ENGINE_BEST_EFFORT), 1);
        assert_eq!(value(names::ENGINE_APPROX), 0);
    }

    #[test]
    fn registering_engine_counters_twice_shares_cells() {
        use ftbfs_graph::{generators, FaultSpec};
        use ftbfs_oracle::FrozenStructure;
        let g = generators::cycle(8);
        let frozen = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, g.edges());
        let e = |u, v| g.edge_between(VertexId(u), VertexId(v)).unwrap();
        let registry = MetricsRegistry::new();
        let a = EngineCounters::register(&registry);
        let b = EngineCounters::register(&registry);
        let mut engine = QueryEngine::new();
        engine
            .try_distance(&frozen, VertexId(2), &FaultSpec::One(e(0, 1)))
            .unwrap();
        a.publish(&mut engine);
        assert_eq!(b.searches.get(), 1);
        let scrape = registry.scrape();
        let searches = scrape
            .counters
            .iter()
            .filter(|c| c.name == names::ENGINE_SEARCHES)
            .count();
        assert_eq!(searches, 1, "one series, not one per registration");
    }

    #[test]
    fn approx_answers_land_on_their_own_guarantee_label() {
        let telemetry = ServeTelemetry::new(1);
        let approx = Answer::new(
            ServeOutput::Distance(Some(3)),
            Guarantee::Approx {
                mult_num: 3,
                mult_den: 1,
                add: 4,
            },
        );
        telemetry.record_execute(0, &ServeTarget::One(VertexId(0)), &Ok(approx), 250);
        let exact = Answer::new(ServeOutput::Distance(Some(3)), Guarantee::Exact);
        telemetry.record_execute(0, &ServeTarget::One(VertexId(0)), &Ok(exact), 100);
        let snapshot = telemetry.scrape();
        let count = |guarantee: &str| {
            snapshot
                .histograms
                .iter()
                .find(|h| {
                    h.name == names::STAGE_EXECUTE_NS
                        && h.labels
                            == vec![
                                ("target".to_string(), "one".to_string()),
                                ("guarantee".to_string(), guarantee.to_string()),
                            ]
                })
                .unwrap_or_else(|| panic!("guarantee series {guarantee} missing"))
                .count
        };
        assert_eq!(count("approx"), 1);
        assert_eq!(count("exact"), 1);
        assert_eq!(count("best_effort"), 0);
        assert_eq!(count("error"), 0);
    }

    #[test]
    fn gauges_are_per_shard_and_events_drain_in_order() {
        let telemetry = ServeTelemetry::new(3);
        telemetry.queue_depth_gauge(0).inc();
        telemetry.queue_depth_gauge(0).inc();
        telemetry.in_flight_gauge(2).inc();
        let snapshot = telemetry.scrape();
        let gauge = |name: &str, shard: &str| {
            snapshot
                .gauges
                .iter()
                .find(|g| {
                    g.name == name && g.labels == vec![("shard".to_string(), shard.to_string())]
                })
                .expect("gauge registered")
                .value
        };
        assert_eq!(gauge(names::SERVE_QUEUE_DEPTH, "0"), 2);
        assert_eq!(gauge(names::SERVE_QUEUE_DEPTH, "1"), 0);
        assert_eq!(gauge(names::SERVE_IN_FLIGHT, "2"), 1);

        use ftbfs_telemetry::TraceEvent;
        telemetry.events().push(TraceEvent::EpochPublished {
            epoch: 1,
            fingerprint: 7,
        });
        let drained = telemetry.drain_events();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].event.kind(), "epoch_published");
        assert!(telemetry.drain_events().is_empty());
    }
}
