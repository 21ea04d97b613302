//! Serving health introspection: [`ServeHealth`] snapshots of the
//! self-healing machinery's counters.
//!
//! The supervised front-end absorbs faults instead of propagating them —
//! which means the only way to *see* a fault happened is to count it.
//! Every absorb path increments a counter here: worker restarts, rejected
//! submits, expired-at-submit admissions, publishes and rejected
//! publishes.  [`crate::StreamServer::health`] returns a
//! consistent-enough snapshot (relaxed atomics; exact once the server is
//! quiescent), which is what a chaos run's "server ends healthy" assertion
//! and an operator's dashboard both read.
//!
//! Since the telemetry plane landed, these counters are thin views over
//! [`ftbfs_telemetry::Counter`] handles registered on the server's
//! [`crate::ServeTelemetry`] registry — the same numbers surface under
//! their stable metric names (`ftbfs_serve_*_total`) in every scrape, and
//! the backpressure that used to be invisible until a request bounced is
//! now observable *before* rejection via the per-shard
//! `ftbfs_serve_queue_depth` / `ftbfs_serve_in_flight` gauges.

use ftbfs_telemetry::{names, Counter, MetricsRegistry};

/// Internal counter handles shared across workers, streams and
/// publishers; registered on the server's telemetry registry (or
/// detached, in tests).
#[derive(Clone, Debug)]
pub(crate) struct HealthCounters {
    pub(crate) worker_restarts: Counter,
    pub(crate) rejected_overloaded: Counter,
    pub(crate) rejected_unavailable: Counter,
    pub(crate) expired_at_submit: Counter,
    pub(crate) publishes: Counter,
    pub(crate) rejected_publishes: Counter,
}

impl Default for HealthCounters {
    /// Detached counters, visible to no registry — the test seam.
    fn default() -> Self {
        HealthCounters {
            worker_restarts: Counter::detached(),
            rejected_overloaded: Counter::detached(),
            rejected_unavailable: Counter::detached(),
            expired_at_submit: Counter::detached(),
            publishes: Counter::detached(),
            rejected_publishes: Counter::detached(),
        }
    }
}

impl HealthCounters {
    /// Registers (or retrieves) the health counters on `registry` under
    /// their stable `ftbfs_serve_*` metric names.
    pub(crate) fn registered(registry: &MetricsRegistry) -> Self {
        HealthCounters {
            worker_restarts: registry.counter(
                names::SERVE_WORKER_RESTARTS,
                names::SERVE_WORKER_RESTARTS_HELP,
            ),
            rejected_overloaded: registry.counter(
                names::SERVE_REJECTED_OVERLOADED,
                names::SERVE_REJECTED_OVERLOADED_HELP,
            ),
            rejected_unavailable: registry.counter(
                names::SERVE_REJECTED_UNAVAILABLE,
                names::SERVE_REJECTED_UNAVAILABLE_HELP,
            ),
            expired_at_submit: registry.counter(
                names::SERVE_EXPIRED_AT_SUBMIT,
                names::SERVE_EXPIRED_AT_SUBMIT_HELP,
            ),
            publishes: registry.counter(names::SERVE_PUBLISHES, names::SERVE_PUBLISHES_HELP),
            rejected_publishes: registry.counter(
                names::SERVE_REJECTED_PUBLISHES,
                names::SERVE_REJECTED_PUBLISHES_HELP,
            ),
        }
    }

    pub(crate) fn snapshot(&self) -> ServeHealth {
        ServeHealth {
            worker_restarts: self.worker_restarts.get(),
            rejected_overloaded: self.rejected_overloaded.get(),
            rejected_unavailable: self.rejected_unavailable.get(),
            expired_at_submit: self.expired_at_submit.get(),
            publishes: self.publishes.get(),
            rejected_publishes: self.rejected_publishes.get(),
        }
    }
}

/// A point-in-time snapshot of a server's self-healing counters; returned
/// by [`crate::StreamServer::health`].
///
/// Every counter is "faults absorbed", not "faults outstanding": a large
/// [`ServeHealth::worker_restarts`] on a server that still answers probes
/// correctly is the *success* mode of the design.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServeHealth {
    /// Worker panics absorbed by supervision (each one respawned the
    /// shard's serving state and answered its in-flight request with
    /// [`crate::ServeError::WorkerRestarted`]).
    pub worker_restarts: u64,
    /// Submits rejected with [`crate::SubmitError::Overloaded`].
    pub rejected_overloaded: u64,
    /// Submits rejected with [`crate::SubmitError::ShardUnavailable`]
    /// (shard sends dropped by the chaos schedule).
    pub rejected_unavailable: u64,
    /// Requests already past their deadline at submit, answered
    /// [`crate::ServeError::DeadlineExceeded`] without ever being routed.
    pub expired_at_submit: u64,
    /// Successful epoch publishes.
    pub publishes: u64,
    /// Publishes rejected by re-validation
    /// ([`crate::ServeError::SnapshotRejected`]).
    pub rejected_publishes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let counters = HealthCounters::default();
        assert_eq!(counters.snapshot(), ServeHealth::default());
        counters.worker_restarts.inc();
        counters.rejected_overloaded.inc();
        counters.rejected_unavailable.inc();
        counters.rejected_unavailable.inc();
        let snap = counters.snapshot();
        assert_eq!(snap.worker_restarts, 1);
        assert_eq!(snap.rejected_overloaded, 1);
        assert_eq!(snap.rejected_unavailable, 2);
        assert_eq!(snap.publishes, 0);
    }

    #[test]
    fn registered_counters_surface_in_the_scrape() {
        let registry = MetricsRegistry::new();
        let counters = HealthCounters::registered(&registry);
        counters.publishes.inc();
        counters.rejected_overloaded.inc();
        counters.rejected_overloaded.inc();
        let scrape = registry.scrape();
        let value = |name: &str| {
            scrape
                .counters
                .iter()
                .find(|c| c.name == name)
                .expect("health counter registered")
                .value
        };
        assert_eq!(value(names::SERVE_PUBLISHES), 1);
        assert_eq!(value(names::SERVE_REJECTED_OVERLOADED), 2);
        assert_eq!(value(names::SERVE_WORKER_RESTARTS), 0);
        // Re-registering shares the same cells (idempotent registry).
        let again = HealthCounters::registered(&registry);
        assert_eq!(again.snapshot(), counters.snapshot());
    }
}
