//! The lock-free [`MetricsRegistry`]: named counters, gauges, and
//! histograms with pre-allocated handles.
//!
//! The registry itself is only touched at *registration* and *scrape*
//! time (both behind a poison-recovering mutex); the handles it hands out
//! ([`Counter`], [`Gauge`], [`crate::Histogram`]) are `Arc`-shared atomics
//! that hot paths bump with `Relaxed` operations — the same discipline as
//! the serve crate's health counters.  Registration is idempotent: asking
//! for the same `(name, labels)` pair twice returns a handle to the same
//! underlying cells, so components wired independently (engine recorders,
//! stage timers, health counters) converge on one coherent scrape.
//!
//! [`MetricsRegistry::scrape`] folds every registered metric into a
//! [`TelemetrySnapshot`] — the single source
//! both export surfaces (Prometheus text and JSON) render from.

use crate::export::{CounterSample, GaugeSample, HistogramBucket, HistogramSample};
use crate::hist::Histogram;
use crate::TelemetrySnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A monotonically increasing counter handle.  `Clone` shares the cell.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A counter detached from any registry (for tests and default
    /// recorders).
    #[must_use]
    pub fn detached() -> Self {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds one.  A single relaxed `fetch_add`.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can go up and down (queue depths,
/// in-flight request counts).  `Clone` shares the cell.
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A gauge detached from any registry (for tests).
    #[must_use]
    pub fn detached() -> Self {
        Gauge {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Sets the gauge to `value`.
    #[inline]
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements by one, saturating at zero (a lost decrement must never
    /// wrap a depth gauge to `u64::MAX`).
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .cell
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Label pairs attached to a metric instance at registration time.
pub type Labels = Vec<(&'static str, String)>;

#[derive(Debug)]
struct Registered<T> {
    name: &'static str,
    help: &'static str,
    labels: Labels,
    metric: T,
}

#[derive(Debug, Default)]
struct Inner {
    counters: Vec<Registered<Counter>>,
    gauges: Vec<Registered<Gauge>>,
    histograms: Vec<Registered<Histogram>>,
}

/// The metric registry; see the [module docs](self).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Locks the registry state, recovering from poison: registration and
    /// scrape never leave the vectors mid-mutation, so a panicking peer
    /// must not cascade.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers (or retrieves) an unlabelled counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_with(name, help, Vec::new())
    }

    /// Registers (or retrieves) a counter with labels.  Idempotent on
    /// `(name, labels)`.
    pub fn counter_with(&self, name: &'static str, help: &'static str, labels: Labels) -> Counter {
        let mut inner = self.lock();
        if let Some(existing) = inner
            .counters
            .iter()
            .find(|r| r.name == name && r.labels == labels)
        {
            return existing.metric.clone();
        }
        let metric = Counter::detached();
        inner.counters.push(Registered {
            name,
            help,
            labels,
            metric: metric.clone(),
        });
        metric
    }

    /// Registers (or retrieves) an unlabelled gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        self.gauge_with(name, help, Vec::new())
    }

    /// Registers (or retrieves) a gauge with labels.  Idempotent on
    /// `(name, labels)`.
    pub fn gauge_with(&self, name: &'static str, help: &'static str, labels: Labels) -> Gauge {
        let mut inner = self.lock();
        if let Some(existing) = inner
            .gauges
            .iter()
            .find(|r| r.name == name && r.labels == labels)
        {
            return existing.metric.clone();
        }
        let metric = Gauge::detached();
        inner.gauges.push(Registered {
            name,
            help,
            labels,
            metric: metric.clone(),
        });
        metric
    }

    /// Registers (or retrieves) an unlabelled histogram with `shards`
    /// writer shards.
    pub fn histogram(&self, name: &'static str, help: &'static str, shards: usize) -> Histogram {
        self.histogram_with(name, help, Vec::new(), shards)
    }

    /// Registers (or retrieves) a histogram with labels.  Idempotent on
    /// `(name, labels)`; the shard count of the first registration wins.
    pub fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Labels,
        shards: usize,
    ) -> Histogram {
        let mut inner = self.lock();
        if let Some(existing) = inner
            .histograms
            .iter()
            .find(|r| r.name == name && r.labels == labels)
        {
            return existing.metric.clone();
        }
        let metric = Histogram::new(shards);
        inner.histograms.push(Registered {
            name,
            help,
            labels,
            metric: metric.clone(),
        });
        metric
    }

    /// Scrapes every registered metric into one [`TelemetrySnapshot`].
    /// Values are relaxed-atomic reads: consistent when recorders are
    /// quiescent, monotonically close otherwise.  Samples are sorted by
    /// `(name, labels)` so exports are deterministic.
    #[must_use]
    pub fn scrape(&self) -> TelemetrySnapshot {
        let inner = self.lock();
        let owned = |labels: &Labels| -> Vec<(String, String)> {
            labels
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect()
        };
        let mut counters: Vec<CounterSample> = inner
            .counters
            .iter()
            .map(|r| CounterSample {
                name: r.name.to_string(),
                help: r.help.to_string(),
                labels: owned(&r.labels),
                value: r.metric.get(),
            })
            .collect();
        let mut gauges: Vec<GaugeSample> = inner
            .gauges
            .iter()
            .map(|r| GaugeSample {
                name: r.name.to_string(),
                help: r.help.to_string(),
                labels: owned(&r.labels),
                value: r.metric.get(),
            })
            .collect();
        let mut histograms: Vec<HistogramSample> = inner
            .histograms
            .iter()
            .map(|r| {
                let data = r.metric.merged();
                HistogramSample {
                    name: r.name.to_string(),
                    help: r.help.to_string(),
                    labels: owned(&r.labels),
                    buckets: HistogramBucket::from_data(&data),
                    count: data.count,
                    sum: data.sum,
                    min: data.min,
                    max: data.max,
                }
            })
            .collect();
        drop(inner);
        counters.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        gauges.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        histograms.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        TelemetrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_per_name_and_labels() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("requests_total", "requests");
        let b = registry.counter("requests_total", "requests");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same (name, labels) shares one cell");

        let s0 = registry.counter_with("per_shard", "x", vec![("shard", "0".into())]);
        let s1 = registry.counter_with("per_shard", "x", vec![("shard", "1".into())]);
        s0.inc();
        assert_eq!(s0.get(), 1);
        assert_eq!(s1.get(), 0, "different labels are distinct cells");

        let snapshot = registry.scrape();
        assert_eq!(snapshot.counters.len(), 3);
    }

    #[test]
    fn gauge_dec_saturates_at_zero() {
        let g = Gauge::detached();
        g.dec();
        assert_eq!(g.get(), 0);
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn scrape_is_sorted_and_reflects_values() {
        let registry = MetricsRegistry::new();
        registry.counter("zzz", "z").add(7);
        registry.counter("aaa", "a").add(1);
        registry.gauge("depth", "d").set(3);
        registry.histogram("lat", "l", 2).record(100);
        let snapshot = registry.scrape();
        assert_eq!(snapshot.counters[0].name, "aaa");
        assert_eq!(snapshot.counters[1].name, "zzz");
        assert_eq!(snapshot.counters[1].value, 7);
        assert_eq!(snapshot.gauges[0].value, 3);
        assert_eq!(snapshot.histograms[0].count, 1);
    }
}
