//! Deterministic fault injection for the serving front-end: [`ChaosConfig`]
//! and the [`FaultInjector`] seam.
//!
//! The paper's structures survive failures *in the graph*; this module is
//! how the serving stack proves it survives failures *in itself*.  A
//! [`FaultInjector`] sits at four points of the request path and, with
//! seeded, deterministic probability, injects the faults the
//! self-healing machinery must absorb:
//!
//! | injection point | fault | what must absorb it |
//! |---|---|---|
//! | worker pop | `panic!` in the worker | supervision: in-flight request answered [`crate::ServeError::WorkerRestarted`], shard respawns a fresh engine over the current epoch |
//! | worker serve | latency stall | deadlines (pickup check, budgeted all-distances) + backpressure ([`crate::SubmitError::Overloaded`] at a bounded queue) |
//! | stream submit | dropped shard-channel send | typed [`crate::SubmitError::ShardUnavailable`] rejection — the request is *not* admitted, the client may retry |
//! | epoch publish | corrupted snapshot bytes | publish-time re-validation: [`crate::ServeError::SnapshotRejected`], the old epoch keeps serving |
//!
//! Everything here is compiled in **only** with the `chaos` cargo feature;
//! without it [`FaultInjector`] is a zero-sized type whose injection
//! points are empty `#[inline]` bodies, so production builds pay nothing.
//!
//! Decisions are *deterministic given the visit order*: each injection
//! point keeps an atomic visit counter, and visit `i` fires iff
//! `splitmix64(seed ⊕ salt ⊕ i)` lands under the configured
//! per-million rate.  Re-running a single-threaded schedule reproduces the
//! exact same faults; multi-threaded runs reproduce the same fault
//! *counts* for the same number of visits.

use ftbfs_telemetry::EventRing;
#[cfg(feature = "chaos")]
use ftbfs_telemetry::TraceEvent;
#[cfg(feature = "chaos")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
#[cfg(feature = "chaos")]
use std::sync::OnceLock;
#[cfg(feature = "chaos")]
use std::time::Duration;

/// Deterministic splitmix64 step, keyed rather than sequential: the chaos
/// seam must not perturb scheduling by sharing mutable RNG state.
#[cfg(feature = "chaos")]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded chaos schedule: which faults to inject, how often, and hard
/// caps so a schedule cannot starve the run it is stressing.
///
/// All rates are per-million visits of the corresponding injection point
/// and default to zero (an inert schedule).  Build one with the
/// `with_*` methods:
///
/// ```
/// use ftbfs_serve::chaos::ChaosConfig;
/// use std::time::Duration;
///
/// let schedule = ChaosConfig::new(0xC0FFEE)
///     .with_worker_panics(500, 8)
///     .with_stalls(1_000, Duration::from_micros(200))
///     .with_dropped_sends(250)
///     .with_corrupt_publishes(400_000);
/// assert_eq!(schedule.seed, 0xC0FFEE);
/// ```
#[cfg(feature = "chaos")]
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of the deterministic decision stream.
    pub seed: u64,
    /// Per-million rate of injected worker panics at item pickup.
    pub panic_per_million: u32,
    /// Hard cap on the total number of injected panics (`u64::MAX` for
    /// unlimited).
    pub max_panics: u64,
    /// Per-million rate of injected latency stalls while serving.
    pub stall_per_million: u32,
    /// Duration of one injected stall.
    pub stall: Duration,
    /// Per-million rate of dropped shard-channel sends at submit.
    pub drop_send_per_million: u32,
    /// Per-million rate of corrupted snapshot publishes.
    pub corrupt_publish_per_million: u32,
}

#[cfg(feature = "chaos")]
impl ChaosConfig {
    /// An inert schedule (all rates zero) with the given seed.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            panic_per_million: 0,
            max_panics: u64::MAX,
            stall_per_million: 0,
            stall: Duration::ZERO,
            drop_send_per_million: 0,
            corrupt_publish_per_million: 0,
        }
    }

    /// Injects worker panics at `per_million` of item pickups, at most
    /// `max` in total.
    pub fn with_worker_panics(mut self, per_million: u32, max: u64) -> Self {
        self.panic_per_million = per_million;
        self.max_panics = max;
        self
    }

    /// Injects `stall`-long sleeps at `per_million` of served requests.
    pub fn with_stalls(mut self, per_million: u32, stall: Duration) -> Self {
        self.stall_per_million = per_million;
        self.stall = stall;
        self
    }

    /// Makes `per_million` of shard-channel sends fail at submit time.
    pub fn with_dropped_sends(mut self, per_million: u32) -> Self {
        self.drop_send_per_million = per_million;
        self
    }

    /// Corrupts `per_million` of snapshot publishes (one byte flipped in a
    /// copy of the bytes; the publish-time re-validation must reject it).
    pub fn with_corrupt_publishes(mut self, per_million: u32) -> Self {
        self.corrupt_publish_per_million = per_million;
        self
    }
}

/// Counts of the faults a [`FaultInjector`] actually injected, read with
/// [`FaultInjector::stats`] (or [`crate::StreamServer::chaos_stats`]) so a
/// chaos run can assert its schedule really fired.
#[cfg(feature = "chaos")]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Worker panics injected.
    pub panics: u64,
    /// Latency stalls injected.
    pub stalls: u64,
    /// Shard-channel sends dropped at submit.
    pub dropped_sends: u64,
    /// Snapshot publishes corrupted.
    pub corrupted_publishes: u64,
}

/// The shared injector the serving path consults at each injection point.
///
/// Cheap to consult (one atomic increment and one hash per visit when the
/// point's rate is non-zero; a single branch when zero), `Sync`, and
/// quiescable: [`FaultInjector::quiesce`] turns every point off, so a
/// chaos run can end with a clean probe phase.
#[cfg(feature = "chaos")]
#[derive(Debug)]
pub struct FaultInjector {
    config: Option<ChaosConfig>,
    quiesced: AtomicBool,
    /// Trace-event sink: every firing is recorded with the schedule seed
    /// and the visit index that fired, so a drained event log alone
    /// replays the exact injection decisions.
    events: OnceLock<Arc<EventRing>>,
    panic_visits: AtomicU64,
    stall_visits: AtomicU64,
    drop_visits: AtomicU64,
    corrupt_visits: AtomicU64,
    panics: AtomicU64,
    stalls: AtomicU64,
    dropped_sends: AtomicU64,
    corrupted_publishes: AtomicU64,
}

/// The marker every injected panic carries, so panic hooks (and humans
/// reading test output) can tell chaos from genuine bugs.
#[cfg(feature = "chaos")]
pub const CHAOS_PANIC_MARKER: &str = "chaos-injected worker panic";

#[cfg(feature = "chaos")]
impl FaultInjector {
    /// An injector running `config`; `None` is fully inert.
    pub(crate) fn new(config: Option<ChaosConfig>) -> Self {
        FaultInjector {
            config,
            quiesced: AtomicBool::new(false),
            events: OnceLock::new(),
            panic_visits: AtomicU64::new(0),
            stall_visits: AtomicU64::new(0),
            drop_visits: AtomicU64::new(0),
            corrupt_visits: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            dropped_sends: AtomicU64::new(0),
            corrupted_publishes: AtomicU64::new(0),
        }
    }

    /// Whether visit `i` of the point salted `salt` fires at `rate`
    /// per-million under this seed.
    fn fires(&self, salt: u64, visit: u64, rate: u32) -> bool {
        if rate == 0 || self.quiesced.load(Ordering::Relaxed) {
            return false;
        }
        let seed = self.config.as_ref().map(|c| c.seed).unwrap_or(0);
        mix(seed ^ salt ^ visit) % 1_000_000 < u64::from(rate)
    }

    /// Turns every injection point off (a chaos run's clean-probe phase).
    pub fn quiesce(&self) {
        self.quiesced.store(true, Ordering::SeqCst);
    }

    /// Attaches the trace-event ring firings are recorded into (first
    /// call wins; the server wires its telemetry ring here at launch).
    pub(crate) fn set_event_sink(&self, ring: Arc<EventRing>) {
        let _ = self.events.set(ring);
    }

    /// Pushes `event` to the attached sink, if any.
    fn trace(&self, event: TraceEvent) {
        if let Some(ring) = self.events.get() {
            ring.push(event);
        }
    }

    /// What this injector has injected so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            panics: self.panics.load(Ordering::SeqCst),
            stalls: self.stalls.load(Ordering::SeqCst),
            dropped_sends: self.dropped_sends.load(Ordering::SeqCst),
            corrupted_publishes: self.corrupted_publishes.load(Ordering::SeqCst),
        }
    }

    /// Worker item-pickup injection point: may panic (the fault the
    /// supervision layer must absorb).
    pub(crate) fn panic_point(&self) {
        let Some(config) = &self.config else { return };
        let visit = self.panic_visits.fetch_add(1, Ordering::Relaxed);
        if self.fires(0x1111, visit, config.panic_per_million)
            && self.panics.load(Ordering::SeqCst) < config.max_panics
        {
            self.panics.fetch_add(1, Ordering::SeqCst);
            self.trace(TraceEvent::ChaosPanic {
                seed: config.seed,
                visit,
            });
            panic!("{CHAOS_PANIC_MARKER} (visit {visit})");
        }
    }

    /// Serving injection point: may sleep for the configured stall.
    pub(crate) fn stall_point(&self) {
        let Some(config) = &self.config else { return };
        let visit = self.stall_visits.fetch_add(1, Ordering::Relaxed);
        if self.fires(0x2222, visit, config.stall_per_million) {
            self.stalls.fetch_add(1, Ordering::SeqCst);
            self.trace(TraceEvent::ChaosStall {
                seed: config.seed,
                visit,
            });
            std::thread::sleep(config.stall);
        }
    }

    /// Submit injection point: `true` means this shard-channel send is to
    /// be dropped (the caller rejects the submit instead of enqueueing).
    pub(crate) fn drop_send(&self) -> bool {
        let Some(config) = &self.config else {
            return false;
        };
        let visit = self.drop_visits.fetch_add(1, Ordering::Relaxed);
        let fire = self.fires(0x3333, visit, config.drop_send_per_million);
        if fire {
            self.dropped_sends.fetch_add(1, Ordering::SeqCst);
            self.trace(TraceEvent::ChaosDroppedSend {
                seed: config.seed,
                visit,
            });
        }
        fire
    }

    /// Publish injection point: `Some(corrupted)` is a copy of `bytes`
    /// with one deterministic byte flipped, which publish-time
    /// re-validation must reject.
    pub(crate) fn corrupt_publish(&self, bytes: &[u8]) -> Option<Vec<u8>> {
        let config = self.config.as_ref()?;
        let visit = self.corrupt_visits.fetch_add(1, Ordering::Relaxed);
        if bytes.is_empty() || !self.fires(0x4444, visit, config.corrupt_publish_per_million) {
            return None;
        }
        self.corrupted_publishes.fetch_add(1, Ordering::SeqCst);
        self.trace(TraceEvent::ChaosCorruptPublish {
            seed: config.seed,
            visit,
        });
        let mut corrupted = bytes.to_vec();
        // Flip a deterministically chosen byte past the magic so the
        // corruption is caught by checksums, not by magic sniffing.
        let at = 4
            + (mix(config.seed ^ 0x4444 ^ visit) as usize)
                % corrupted.len().saturating_sub(4).max(1);
        let at = at.min(corrupted.len() - 1);
        corrupted[at] ^= 0x40;
        Some(corrupted)
    }
}

/// Zero-cost stand-in when the `chaos` feature is off: every injection
/// point is an empty inlined body, so the production request path carries
/// no chaos branches at all.
#[cfg(not(feature = "chaos"))]
#[derive(Debug)]
pub(crate) struct FaultInjector;

#[cfg(not(feature = "chaos"))]
impl FaultInjector {
    pub(crate) fn inert() -> Self {
        FaultInjector
    }

    #[inline(always)]
    pub(crate) fn set_event_sink(&self, _ring: Arc<EventRing>) {}

    #[inline(always)]
    pub(crate) fn panic_point(&self) {}

    #[inline(always)]
    pub(crate) fn stall_point(&self) {}

    #[inline(always)]
    pub(crate) fn drop_send(&self) -> bool {
        false
    }

    #[inline(always)]
    pub(crate) fn corrupt_publish(&self, _bytes: &[u8]) -> Option<Vec<u8>> {
        None
    }
}

#[cfg(all(test, feature = "chaos"))]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a1 = FaultInjector::new(Some(ChaosConfig::new(7).with_dropped_sends(100_000)));
        let a2 = FaultInjector::new(Some(ChaosConfig::new(7).with_dropped_sends(100_000)));
        let b = FaultInjector::new(Some(ChaosConfig::new(8).with_dropped_sends(100_000)));
        let run = |inj: &FaultInjector| (0..2_000).map(|_| inj.drop_send()).collect::<Vec<_>>();
        let (ra1, ra2, rb) = (run(&a1), run(&a2), run(&b));
        assert_eq!(ra1, ra2, "same seed, same visit order, same decisions");
        assert_ne!(ra1, rb, "different seeds diverge");
        let fired = ra1.iter().filter(|&&f| f).count();
        // 10% rate over 2000 visits: the deterministic stream should land
        // in a generous band around 200.
        assert!((100..400).contains(&fired), "fired {fired} of 2000");
        assert_eq!(a1.stats().dropped_sends, fired as u64);
    }

    #[test]
    fn panic_point_panics_at_most_max_times_and_carries_the_marker() {
        let inj = FaultInjector::new(Some(ChaosConfig::new(3).with_worker_panics(1_000_000, 2)));
        let mut caught = 0;
        for _ in 0..50 {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                inj.panic_point();
            }));
            if let Err(payload) = result {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert!(msg.contains(CHAOS_PANIC_MARKER), "got {msg:?}");
                caught += 1;
            }
        }
        assert_eq!(caught, 2, "max_panics caps the schedule");
        assert_eq!(inj.stats().panics, 2);
    }

    #[test]
    fn corrupt_publish_flips_exactly_one_byte_past_the_magic() {
        let inj = FaultInjector::new(Some(ChaosConfig::new(11).with_corrupt_publishes(1_000_000)));
        let bytes: Vec<u8> = (0..200u8).collect();
        let corrupted = inj.corrupt_publish(&bytes).expect("rate 100% fires");
        assert_eq!(corrupted.len(), bytes.len());
        let diffs: Vec<usize> = (0..bytes.len())
            .filter(|&i| corrupted[i] != bytes[i])
            .collect();
        assert_eq!(diffs.len(), 1, "exactly one byte flipped");
        assert!(diffs[0] >= 4, "magic bytes stay intact");
        assert_eq!(inj.stats().corrupted_publishes, 1);
    }

    #[test]
    fn quiesce_silences_every_point() {
        let inj = FaultInjector::new(Some(
            ChaosConfig::new(5)
                .with_worker_panics(1_000_000, u64::MAX)
                .with_dropped_sends(1_000_000)
                .with_stalls(1_000_000, Duration::ZERO)
                .with_corrupt_publishes(1_000_000),
        ));
        inj.quiesce();
        for _ in 0..100 {
            inj.panic_point();
            inj.stall_point();
            assert!(!inj.drop_send());
            assert!(inj.corrupt_publish(&[0u8; 64]).is_none());
        }
        assert_eq!(inj.stats(), ChaosStats::default());
    }

    #[test]
    fn inert_config_never_fires() {
        let inj = FaultInjector::new(Some(ChaosConfig::new(9)));
        for _ in 0..100 {
            inj.panic_point();
            inj.stall_point();
            assert!(!inj.drop_send());
        }
        assert!(inj.corrupt_publish(&[1, 2, 3, 4, 5]).is_none());
        assert_eq!(inj.stats(), ChaosStats::default());
        let none = FaultInjector::new(None);
        none.panic_point();
        assert!(!none.drop_send());
        assert_eq!(none.stats(), ChaosStats::default());
    }
}
