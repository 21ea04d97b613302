//! The bounded per-shard work queue behind [`crate::StreamHandle::submit`]:
//! explicit depth accounting, one backpressure rule, and poison-safe
//! blocking pops for the supervised workers.
//!
//! Each shard has a `Mutex<VecDeque>` + `Condvar` pair rather than an
//! `mpsc` channel, which buys two things a channel cannot do:
//!
//! * **bounded depth** — `ShardQueue::push` observes the configured
//!   capacity *at submit time*, so overload turns into a typed
//!   [`crate::SubmitError::Overloaded`] in the caller instead of unbounded
//!   growth in the server;
//! * **supervision-friendly receivers** — the queue is shared behind an
//!   `Arc`, so a worker that panics and restarts keeps draining the same
//!   queue: no `Receiver` dies with the thread, no queued request is ever
//!   lost to a worker fault.  All locking recovers from poison
//!   ([`std::sync::PoisonError::into_inner`]): the queue state is a plain
//!   `VecDeque`, consistent at every step, so a panicking peer never
//!   cascades.
//!
//! Producers register with `ShardQueue::attach` / `ShardQueue::detach`
//! (the server itself plus every open stream); `ShardQueue::pop` blocks
//! until an item arrives and returns `None` once the queue is drained and
//! the last producer detached — the workers' drain-then-exit signal.
//!
//! ## Spin-then-park
//!
//! Both handoff points of the serve plane — a worker waiting in
//! `ShardQueue::pop` and a client waiting in [`crate::StreamHandle::recv`]
//! — wait the same way, through `spin_then_park`: poll, yield the core,
//! poll again, up to `SPIN_YIELDS` times, and only then block in the
//! kernel.  A request's whole round trip is a few hundred nanoseconds of
//! engine work, so the next item usually lands within a few yields, and a
//! parked waiter costs the producer a `futex` wake syscall and the waiter
//! a sleep/wake context-switch pair per request.
//!
//! * **Why yield, not `spin_loop`.**  The client and the workers often
//!   outnumber the cores.  `std::thread::yield_now` hands the core to the
//!   thread that will produce the awaited item; a busy spin would hold the
//!   core it is waiting on.  An idle waiter parks after `SPIN_YIELDS`
//!   yields, so an idle server burns no CPU; the price is paid at sparse
//!   arrivals, where every wait spins out before it parks (see
//!   `SPIN_YIELDS`).
//! * **Why notify is conditional.**  On Linux every `Condvar::notify_one`
//!   is a `futex_wake` syscall, parked waiter or not.  `pop` counts itself
//!   in `QueueState::sleepers` under the queue mutex before it waits, and
//!   `push` enqueues and reads that count under the same mutex, so a push
//!   either sees the sleeper (and notifies) or happened before the
//!   worker's last look at the queue (which then finds the item): no
//!   wakeup is lost, and a worker that is spinning is never notified.
//! * **What the spin polls.**  A worker spins on the depth gauge — a
//!   lock-free mirror of the queue length, updated under the lock — and
//!   takes the mutex only once it reads non-zero, so it never contends
//!   with the producer for the lock while the queue is empty.  It leaves
//!   the spin only with an item or the exit signal under the lock, so a
//!   wrong gauge value costs lock round trips, never the park.

use crate::server::WorkItem;
use ftbfs_telemetry::Gauge;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// How many times a waiter polls and yields the core before it parks; see
/// [Spin-then-park](self#spin-then-park).
///
/// Measured on a 2-vCPU host (~340 ns per `sched_yield` on an idle
/// core): a saturated closed loop (perfbench `scenario-cold`) serves the
/// same ~2× of the always-park baseline at 4, 8, 16, 32 or 64 yields.
/// One request at a time at 1k–10k req/s costs more CPU per request
/// than the baseline, because each wait spins out before it parks:
/// ~2–10 µs more at 8 yields (E11's `sparse` rows and a lighter
/// fault-free probe), against ~6–13 µs more at 32 on the lighter probe.
/// 8 keeps that price small and still leaves room for a reply that is a
/// few µs away.
pub(crate) const SPIN_YIELDS: u32 = 8;

/// The serve plane's one wait: returns the first `Some` from `poll`,
/// yielding the core between polls, and after [`SPIN_YIELDS`] empty polls
/// blocks in `park` instead.  Shared by the worker side
/// (`ShardQueue::pop`) and the client side ([`crate::StreamHandle::recv`]).
pub(crate) fn spin_then_park<T>(
    mut poll: impl FnMut() -> Option<T>,
    park: impl FnOnce() -> T,
) -> T {
    for _ in 0..SPIN_YIELDS {
        if let Some(ready) = poll() {
            return ready;
        }
        std::thread::yield_now();
    }
    park()
}

/// One shard's bounded work queue; see the [module docs](self).
#[derive(Debug)]
pub(crate) struct ShardQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    /// Telemetry mirror of the queue depth (`ftbfs_serve_queue_depth`):
    /// updated under the lock, in lock-step with `items.len()`, so
    /// backpressure is visible on a scrape *before* submits start
    /// bouncing, and a spinning `pop` can read it as its lock-free hint.
    /// The gauge is reachable through the public registry, so `pop`
    /// never trusts it: a wrong value costs a spinning `pop` some lock
    /// round trips, never its park.  The hint is `Relaxed`; the items
    /// themselves are read under the mutex.
    depth_gauge: Gauge,
}

#[derive(Debug)]
struct QueueState {
    items: VecDeque<WorkItem>,
    producers: usize,
    /// Workers parked in `available.wait`; `push` notifies only when
    /// this is non-zero.
    sleepers: usize,
}

impl ShardQueue {
    /// A queue with a detached depth gauge — the test seam (the server
    /// always registers its gauges).
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        ShardQueue::with_gauge(Gauge::detached())
    }

    /// A queue mirroring its depth into `gauge` (a registered
    /// `ftbfs_serve_queue_depth` shard gauge in the server).
    pub(crate) fn with_gauge(gauge: Gauge) -> Self {
        ShardQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                producers: 0,
                sleepers: 0,
            }),
            available: Condvar::new(),
            depth_gauge: gauge,
        }
    }

    /// Locks the queue state, recovering from poison: the state is a plain
    /// `VecDeque` plus a counter, consistent between any two operations,
    /// so a panicking peer must not cascade.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a producer (the server, or one open stream).
    pub(crate) fn attach(&self) {
        self.lock().producers += 1;
    }

    /// Deregisters a producer; once the count reaches zero and the queue
    /// drains, blocked [`ShardQueue::pop`]s return `None`.
    pub(crate) fn detach(&self) {
        let mut state = self.lock();
        state.producers = state.producers.saturating_sub(1);
        if state.producers == 0 {
            drop(state);
            self.available.notify_all();
        }
    }

    /// Current queue depth (used for health reporting).
    pub(crate) fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Enqueues `item` unless the queue already holds `capacity` items;
    /// then the item is dropped and `Err` carries the depth.
    pub(crate) fn push(&self, item: WorkItem, capacity: Option<usize>) -> Result<(), usize> {
        let mut state = self.lock();
        if capacity.is_some_and(|cap| state.items.len() >= cap) {
            // A rejected push frees no worker: nothing to notify.
            return Err(state.items.len());
        }
        state.items.push_back(item);
        self.depth_gauge.inc();
        // A worker that is spinning reads the gauge; only a parked one
        // needs the futex wake (see the module docs).
        let parked = state.sleepers > 0;
        drop(state);
        if parked {
            self.available.notify_one();
        }
        Ok(())
    }

    /// Blocks until an item is available (returning it) or the queue is
    /// drained with no producers left (returning `None` — the worker's
    /// exit signal).
    ///
    /// An empty queue is waited on by spin-then-park: up to
    /// [`SPIN_YIELDS`] yields, reading the lock-free depth gauge between
    /// them, then a park on the condvar, counted in `sleepers` so that
    /// `push` knows to notify.
    pub(crate) fn pop(&self) -> Option<WorkItem> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.depth_gauge.dec();
                return Some(item);
            }
            if state.producers == 0 {
                return None;
            }
            drop(state);
            // The gauge is only a hint: a guard is taken out of the spin
            // only when the locked state has something to act on, so a
            // gauge that reads non-zero over an empty queue still ends
            // in a park.
            state = spin_then_park(
                || {
                    (self.depth_gauge.get() > 0)
                        .then(|| self.lock())
                        .filter(|s| !s.items.is_empty() || s.producers == 0)
                },
                || self.park(),
            );
        }
    }

    /// Parks on the condvar unless the queue gained an item or lost its
    /// last producer since the caller looked; returns the relocked state
    /// for the caller to re-check.
    fn park(&self) -> MutexGuard<'_, QueueState> {
        let mut state = self.lock();
        if state.items.is_empty() && state.producers > 0 {
            state.sleepers += 1;
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
            state.sleepers -= 1;
        }
        state
    }

    /// Workers parked on this queue right now.
    #[cfg(test)]
    pub(crate) fn sleepers(&self) -> usize {
        self.lock().sleepers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ServeRequest, ServeResponse};
    use ftbfs_graph::{FaultSpec, VertexId};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn item(seq: u64, reply: &mpsc::Sender<ServeResponse>) -> WorkItem {
        WorkItem {
            seq,
            request: ServeRequest::distance(VertexId(0), FaultSpec::None),
            reply: reply.clone(),
            submitted_at: Instant::now(),
        }
    }

    #[test]
    fn push_pop_is_fifo_and_drains_on_last_detach() {
        let q = ShardQueue::new();
        q.attach();
        let (tx, _rx) = mpsc::channel();
        for seq in 0..5 {
            assert_eq!(q.push(item(seq, &tx), None), Ok(()));
        }
        assert_eq!(q.depth(), 5);
        for seq in 0..5 {
            assert_eq!(q.pop().expect("queued item").seq, seq);
        }
        q.detach();
        assert!(q.pop().is_none(), "drained + no producers = exit signal");
    }

    #[test]
    fn reject_new_bounces_pushes_at_capacity() {
        let q = ShardQueue::new();
        q.attach();
        let (tx, _rx) = mpsc::channel();
        for seq in 0..3 {
            assert_eq!(q.push(item(seq, &tx), Some(3)), Ok(()));
        }
        assert_eq!(
            q.push(item(3, &tx), Some(3)),
            Err(3),
            "full: rejected at depth 3"
        );
        assert_eq!(q.depth(), 3, "the rejected item was not enqueued");
        // Popping one frees a slot.
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.push(item(3, &tx), Some(3)), Ok(()));
        q.detach();
    }

    #[test]
    fn depth_gauge_mirrors_queue_depth_through_push_pop_and_reject() {
        let gauge = Gauge::detached();
        let q = ShardQueue::with_gauge(gauge.clone());
        q.attach();
        let (tx, _rx) = mpsc::channel();
        for seq in 0..3 {
            q.push(item(seq, &tx), Some(3)).unwrap();
        }
        assert_eq!(gauge.get(), 3);
        assert_eq!(gauge.get() as usize, q.depth());
        // A rejected push leaves the gauge alone.
        assert_eq!(q.push(item(3, &tx), Some(3)), Err(3));
        assert_eq!(gauge.get(), 3);
        q.pop().unwrap();
        assert_eq!(gauge.get(), 2);
        q.pop().unwrap();
        q.pop().unwrap();
        assert_eq!(gauge.get(), 0);
        assert_eq!(gauge.get() as usize, q.depth());
        q.detach();
    }

    #[test]
    fn an_empty_pop_parks_and_counts_itself_until_a_push_wakes_it() {
        let q = std::sync::Arc::new(ShardQueue::new());
        q.attach();
        let (tx, _rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let popper = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                let _ = done_tx.send(q.pop().map(|i| i.seq));
            })
        };
        // The spin window ends and the popper parks: counted, so the next
        // push knows to notify.
        let give_up = Instant::now() + Duration::from_secs(10);
        while q.sleepers() == 0 {
            assert!(Instant::now() < give_up, "an empty pop never parked");
            std::thread::sleep(Duration::from_micros(200));
        }
        q.push(item(9, &tx), None).unwrap();
        let popped = done_rx.recv_timeout(Duration::from_secs(10));
        // The final detach frees a popper that a lost wakeup stranded, so
        // a failure reports instead of hanging.
        q.detach();
        popper.join().expect("popper thread");
        assert_eq!(popped, Ok(Some(9)), "the push must wake the parked pop");
        assert_eq!(q.sleepers(), 0, "the woken pop uncounted itself");
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn a_gauge_written_from_outside_does_not_keep_an_empty_pop_awake() {
        // The depth gauge is reachable through the public registry; a
        // value above zero over an empty queue must not stop the park.
        let gauge = Gauge::detached();
        let q = std::sync::Arc::new(ShardQueue::with_gauge(gauge.clone()));
        q.attach();
        gauge.set(5);
        let popper = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || q.pop().map(|i| i.seq))
        };
        let give_up = Instant::now() + Duration::from_secs(10);
        let parked = loop {
            if q.sleepers() == 1 {
                break true;
            }
            if Instant::now() >= give_up {
                break false;
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        // The final detach releases the popper either way.
        q.detach();
        assert_eq!(popper.join().expect("popper thread"), None);
        assert!(parked, "a stale gauge kept an empty pop from parking");
    }

    #[test]
    fn blocked_pop_wakes_on_push_and_on_final_detach() {
        let q = std::sync::Arc::new(ShardQueue::new());
        q.attach();
        let (tx, _rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let popper = {
                let q = std::sync::Arc::clone(&q);
                scope.spawn(move || {
                    let first = q.pop().map(|i| i.seq);
                    let second = q.pop().map(|i| i.seq);
                    (first, second)
                })
            };
            std::thread::sleep(Duration::from_millis(10));
            q.push(item(7, &tx), None).unwrap();
            std::thread::sleep(Duration::from_millis(10));
            q.detach();
            let (first, second) = popper.join().expect("popper thread");
            assert_eq!(first, Some(7));
            assert_eq!(second, None, "final detach wakes and exits the popper");
        });
    }
}
