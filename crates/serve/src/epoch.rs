//! Epoch-swapped snapshots: [`EpochSnapshot`] and the lock-light two-slot
//! [`EpochCell`].
//!
//! The serving front-end's workers answer out of *epochs*: each is one
//! [`FrozenStructure`] (either slab layout), loaded once from snapshot
//! bytes and shared by every worker through a cheap [`EpochSnapshot`]
//! handle.  Replacing the live epoch with a new one is an **epoch swap**:
//!
//! * the new [`EpochSnapshot`] is checked when it is built — the full
//!   [`FrozenStructure::load`]: bounds, checksums, freeze invariants, the
//!   certificate of the derived sections, and the fingerprint re-hashed
//!   from the base — so workers never meet malformed bytes, and the
//!   fingerprint that keys their engines' caches and tags their responses
//!   names the structure they actually serve;
//! * [`EpochCell::publish`] writes the new snapshot into the inactive slot
//!   of a two-slot cell and then bumps an atomic generation counter —
//!   readers of the active slot never wait on a publish in progress;
//! * each worker re-checks the generation after *receiving* a request and
//!   before answering it, switching to the new epoch's structure when the
//!   generation moved (a refcount bump; nothing is validated again).  A
//!   request already held by a worker is answered by whichever epoch the
//!   worker holds — requests are never dropped, and every answer is
//!   consistent with exactly one epoch, whose fingerprint the response
//!   carries.
//!
//! Ordering guarantee: `publish` happens-before any request *submitted
//! after it returns on the same thread* is received (the channel send
//! synchronises), so such requests are always answered by the new epoch
//! (or a newer one).  Requests in flight across the swap may land on
//! either side; their responses say which.
//!
//! The cell is the `ArcSwap` idea rebuilt from safe parts (the workspace
//! forbids `unsafe`): an [`AtomicU64`] generation plus two mutex-guarded
//! snapshot slots, with readers retrying the (cheap) slot clone if a
//! publish raced them.

use crate::chaos::FaultInjector;
use crate::error::ServeError;
use crate::health::HealthCounters;
use ftbfs_oracle::{FrozenStructure, SnapshotError};
use ftbfs_telemetry::{EventRing, TraceEvent};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One checked, servable epoch: a cheap, cloneable handle on a
/// [`FrozenStructure`] loaded once from snapshot bytes.
///
/// [`EpochSnapshot::from_bytes`] is the serving boundary's one check, and
/// the only place an epoch can fail: it runs [`FrozenStructure::load`],
/// fingerprint re-hash included.  The handle dereferences to the loaded
/// structure; cloning bumps a reference count, and every clone serves the
/// same bytes.
///
/// # Examples
///
/// ```
/// use ftbfs_graph::{generators, VertexId};
/// use ftbfs_oracle::FrozenStructure;
/// use ftbfs_serve::EpochSnapshot;
///
/// let g = generators::cycle(8);
/// let frozen = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, g.edges());
/// let snap = EpochSnapshot::from_bytes(frozen.save()).unwrap();
/// assert_eq!(snap.fingerprint(), frozen.fingerprint());
/// assert_eq!(snap.clone().bytes().as_ptr(), snap.bytes().as_ptr());
/// ```
#[derive(Clone, Debug)]
pub struct EpochSnapshot(Arc<FrozenStructure>);

impl EpochSnapshot {
    /// Loads snapshot bytes (either slab layout) into a servable epoch,
    /// running the full check of [`FrozenStructure::load`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        FrozenStructure::load(bytes).map(|frozen| EpochSnapshot(Arc::new(frozen)))
    }

    /// The loaded structure this epoch serves, as the handle dereferences
    /// to: a plain getter, kept under this name for the standalone
    /// `perfbench` package.
    pub fn open(&self) -> &FrozenStructure {
        &self.0
    }
}

impl Deref for EpochSnapshot {
    type Target = FrozenStructure;

    fn deref(&self) -> &FrozenStructure {
        &self.0
    }
}

/// The two-slot epoch cell workers and publishers share; see the
/// [module docs](self) for the swap protocol.
#[derive(Debug)]
pub struct EpochCell {
    generation: AtomicU64,
    slots: [Mutex<EpochSnapshot>; 2],
    /// Serialises publishers (readers never take it).
    publish_lock: Mutex<()>,
}

impl EpochCell {
    /// A cell starting at generation 0 with `initial` in both slots.
    pub fn new(initial: EpochSnapshot) -> Self {
        EpochCell {
            generation: AtomicU64::new(0),
            slots: [Mutex::new(initial.clone()), Mutex::new(initial)],
            publish_lock: Mutex::new(()),
        }
    }

    /// The current generation number (bumped by every publish).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The current `(generation, snapshot)` pair.
    ///
    /// Readers lock only the *active* slot, which a publisher never
    /// writes; the retry loop discards a read that raced two publishes.
    ///
    /// Poison-safe: a slot holds a plain handle, which is consistent at
    /// every instant, so a reader or publisher that panicked while holding
    /// the lock left nothing half-written — the poison flag is cleared
    /// with [`std::sync::PoisonError::into_inner`] and serving continues.
    pub fn load(&self) -> (u64, EpochSnapshot) {
        loop {
            let gen = self.generation.load(Ordering::Acquire);
            let snap = self.slots[(gen % 2) as usize]
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .clone();
            if self.generation.load(Ordering::Acquire) == gen {
                return (gen, snap);
            }
        }
    }

    /// Installs `snapshot` as the new epoch, returning its generation.
    ///
    /// Writes the inactive slot, then bumps the generation; concurrent
    /// publishers are serialised, concurrent readers never wait on this.
    /// Poison on either lock is recovered the same way as in
    /// [`EpochCell::load`]: the generation counter is only ever bumped
    /// *after* a complete slot write, so a publisher that died mid-publish
    /// left the cell serving the old epoch, which is exactly the state the
    /// next publish overwrites.
    pub fn publish(&self, snapshot: EpochSnapshot) -> u64 {
        let _guard = self
            .publish_lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let gen = self.generation.load(Ordering::Acquire);
        *self.slots[((gen + 1) % 2) as usize]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = snapshot;
        self.generation.store(gen + 1, Ordering::Release);
        gen + 1
    }

    /// Test seam: poisons both slot locks and the publish lock by
    /// panicking a thread that holds them, proving the cell recovers.
    /// Chaos-builds only.
    #[cfg(feature = "chaos")]
    pub fn poison_locks(&self) {
        for slot in &self.slots {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                panic!("chaos: poisoning epoch slot lock");
            }));
        }
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self
                .publish_lock
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            panic!("chaos: poisoning epoch publish lock");
        }));
    }
}

/// A cloneable, `Send + Sync` publishing handle onto a server's epoch
/// cell, so snapshots can be swapped from any thread (a loader thread, a
/// control plane) while the [`crate::StreamServer`] value stays with its
/// controller.
#[derive(Clone, Debug)]
pub struct EpochPublisher {
    pub(crate) cell: Arc<EpochCell>,
    pub(crate) health: Arc<HealthCounters>,
    pub(crate) injector: Arc<FaultInjector>,
    pub(crate) events: Arc<EventRing>,
}

impl EpochPublisher {
    /// Installs a new snapshot, checked when it was built; returns its
    /// generation.
    ///
    /// Under chaos the bytes may be corrupted on their way in; the
    /// corrupted copy is re-checked through [`EpochSnapshot::from_bytes`]
    /// as a real loader would, and if it fails the publish is rejected
    /// with [`ServeError::SnapshotRejected`], the generation does not
    /// move, and workers keep serving the old epoch.
    pub fn publish(&self, snapshot: EpochSnapshot) -> Result<u64, ServeError> {
        if let Some(corrupted) = self.injector.corrupt_publish(snapshot.bytes()) {
            // Chaos corrupted the bytes between validation and install;
            // the re-validation a real loader would run must catch it.
            if let Err(e) = EpochSnapshot::from_bytes(corrupted) {
                self.health.rejected_publishes.inc();
                self.events.push(TraceEvent::PublishRejected {
                    epoch: self.cell.generation(),
                });
                return Err(ServeError::SnapshotRejected(e));
            }
        }
        self.health.publishes.inc();
        let fingerprint = snapshot.fingerprint();
        let epoch = self.cell.publish(snapshot);
        self.events
            .push(TraceEvent::EpochPublished { epoch, fingerprint });
        Ok(epoch)
    }

    /// The generation currently being served.
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }

    /// The fingerprint of the snapshot currently being served.
    pub fn fingerprint(&self) -> u64 {
        self.cell.load().1.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::{generators, FaultSpec, VertexId};
    use ftbfs_oracle::{FrozenStructure, Guarantee};

    fn snapshot(n: usize) -> EpochSnapshot {
        let g = generators::cycle(n);
        let frozen = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, g.edges());
        EpochSnapshot::from_bytes(frozen.save()).unwrap()
    }

    #[test]
    fn snapshot_is_checked_once_and_clones_share_it() {
        let snap = snapshot(8);
        let view = snap.open();
        // Every clone serves the one loaded structure, with no copy.
        assert!(std::ptr::eq(&*snap.clone(), view));
        assert_eq!(view.fingerprint(), snap.fingerprint());
        assert_eq!(view.vertex_count(), 8);
        assert_eq!(view.sources(), &[VertexId(0)]);
        assert_eq!(view.resilience(), 2);
        assert!(view.tree_for(VertexId(0)).is_some());
        assert!(view.edge_count() > 0);
    }

    #[test]
    fn approx_snapshots_serve_with_their_stretch_contract() {
        let g = generators::connected_gnp(24, 0.18, 4);
        let w = ftbfs_graph::TieBreak::new(&g, 4);
        let built =
            ftbfs_core::approx_ftbfs(&g, &w, VertexId(0), ftbfs_core::ApproxParams::DEFAULT);
        let frozen = FrozenStructure::freeze_approx(&g, &built);
        let snap = EpochSnapshot::from_bytes(frozen.save()).unwrap();
        assert_eq!(snap.fingerprint(), frozen.fingerprint());
        let view = snap.open();
        assert_eq!(view.vertex_count(), 24);
        let e = g.edges().next().unwrap();
        assert_eq!(view.contract(), frozen.contract());
        assert!(view.guarantee(&FaultSpec::from(e)).is_approx());
        assert_eq!(view.guarantee(&FaultSpec::None), Guarantee::Exact);
        assert!(view.tree_for(VertexId(0)).is_some());
    }

    #[test]
    fn malformed_bytes_are_rejected_at_construction() {
        assert!(matches!(
            EpochSnapshot::from_bytes(vec![0, 1, 2]),
            Err(SnapshotError::BadMagic)
        ));
        // Valid magic, corrupt tail: the load-time validation runs here.
        let mut bytes = {
            let g = generators::cycle(6);
            let f = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, g.edges());
            f.save()
        };
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(EpochSnapshot::from_bytes(bytes).is_err());
    }

    #[test]
    fn cell_swaps_between_slots() {
        let a = snapshot(6);
        let b = snapshot(10);
        let cell = EpochCell::new(a.clone());
        assert_eq!(cell.generation(), 0);
        let (g0, s0) = cell.load();
        assert_eq!((g0, s0.fingerprint()), (0, a.fingerprint()));

        assert_eq!(cell.publish(b.clone()), 1);
        let (g1, s1) = cell.load();
        assert_eq!((g1, s1.fingerprint()), (1, b.fingerprint()));

        // A third publish reuses the first slot.
        assert_eq!(cell.publish(a.clone()), 2);
        assert_eq!(cell.load().1.fingerprint(), a.fingerprint());
    }

    #[test]
    fn cell_recovers_from_poisoned_locks() {
        let a = snapshot(6);
        let b = snapshot(10);
        let cell = EpochCell::new(a.clone());

        // Poison both slot locks and the publish lock: a thread panics
        // while holding each guard.
        std::thread::scope(|scope| {
            for slot in &cell.slots {
                let handle = scope.spawn(move || {
                    let _guard = slot.lock().unwrap();
                    panic!("poisoning slot lock");
                });
                assert!(handle.join().is_err());
            }
            let publish_lock = &cell.publish_lock;
            let handle = scope.spawn(move || {
                let _guard = publish_lock.lock().unwrap();
                panic!("poisoning publish lock");
            });
            assert!(handle.join().is_err());
        });
        assert!(cell.slots[0].lock().is_err(), "slot 0 really is poisoned");
        assert!(cell.publish_lock.lock().is_err(), "publish lock poisoned");

        // Loads and publishes shrug the poison off.
        let (g0, s0) = cell.load();
        assert_eq!((g0, s0.fingerprint()), (0, a.fingerprint()));
        assert_eq!(cell.publish(b.clone()), 1);
        let (g1, s1) = cell.load();
        assert_eq!((g1, s1.fingerprint()), (1, b.fingerprint()));
    }

    #[test]
    fn concurrent_loads_see_only_published_snapshots() {
        let a = snapshot(6);
        let b = snapshot(10);
        let cell = EpochCell::new(a.clone());
        let fps = [a.fingerprint(), b.fingerprint()];
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..2_000 {
                        let (_, snap) = cell.load();
                        assert!(fps.contains(&snap.fingerprint()));
                    }
                });
            }
            scope.spawn(|| {
                for i in 0..500 {
                    let next = if i % 2 == 0 { b.clone() } else { a.clone() };
                    cell.publish(next);
                }
            });
        });
        // 500 publishes on top of generation 0.
        assert_eq!(cell.generation(), 500);
    }
}
