//! The sharded continuous-stream front-end: [`ServeConfig`],
//! [`StreamServer`], [`StreamHandle`] and the supervised worker loop.
//!
//! ## Shape
//!
//! ```text
//!   clients                router                      workers
//!   ───────                ──────                      ───────
//!   StreamHandle ──submit──▶ shard-by-source ──queue──▶ [supervisor 0] ─┐
//!   StreamHandle ──submit──▶ (admission +    ──queue──▶ [supervisor 1] ─┤ per-worker
//!       ⋮                     backpressure      ⋮           ⋮          │ QueryEngine,
//!                             at submit)     ──queue──▶ [supervisor N] ─┘ view over the
//!                                                                         epoch snapshot
//!   StreamHandle ◀─recv──── seq-ordered reassembly ◀──mpsc── responses
//! ```
//!
//! * **Routing.**  Requests with an explicit source are pinned to shard
//!   `source % workers` — all traffic for one source of an `S × V`
//!   workload lands on one worker, whose private engine keeps that
//!   source's fault-LRU partition hot.  Source-less requests (primary
//!   source) round-robin by sequence number, so a single-source stream
//!   still spreads across every worker.
//! * **Admission.**  [`StreamHandle::submit`] is the backpressure point:
//!   requests already past their deadline are answered
//!   [`ServeError::DeadlineExceeded`] without ever being routed, and a
//!   shard queue at its configured capacity turns the submit into a typed
//!   [`SubmitError`] (or sheds expired queued work first, under
//!   [`OverloadPolicy::ShedExpired`]).  A rejected submit consumes no
//!   sequence number.
//! * **Ordering.**  Each stream assigns sequence numbers at submit time;
//!   workers tag responses with them; [`StreamHandle::recv`] reassembles
//!   input order from whatever order the shards answer in.
//! * **Supervision.**  Each worker runs under a `catch_unwind` supervisor:
//!   a panic while serving (chaos-injected or a genuine bug) answers the
//!   in-flight request with [`ServeError::WorkerRestarted`], discards the
//!   possibly-inconsistent engine, and respawns the shard's serving state
//!   with a fresh [`QueryEngine`] over the *current* epoch — the shared
//!   shard queue survives the restart, so queued requests are never lost
//!   and streams never hang or desynchronise.  Restarts are counted in
//!   [`StreamServer::health`].
//! * **Epochs.**  Workers serve from a [`ftbfs_oracle::FrozenView`] opened over
//!   the current [`EpochSnapshot`]; after receiving each request they
//!   re-check the epoch generation and reopen when it moved (see
//!   [`crate::epoch`] for the exact guarantee).  Publishing never drops or
//!   reorders requests.
//! * **Shutdown.**  [`StreamServer::shutdown`] marks the server closed
//!   (further submits fail with [`SubmitError::Shutdown`]) and joins the
//!   workers; already-submitted requests are drained and answered, never
//!   dropped.  Workers exit when the last queue producer detaches, so
//!   shutdown completes once every [`StreamHandle`] is dropped.
//!
//! Workers are plain `std::thread`s over shared bounded queues — the
//! async story of the ROADMAP stays open, but the request/response
//! contract (and everything behind the router) is runtime-agnostic.

use crate::chaos::FaultInjector;
#[cfg(feature = "chaos")]
pub use crate::chaos::{ChaosConfig, ChaosStats};
use crate::epoch::{EpochCell, EpochPublisher, EpochSnapshot};
use crate::error::{ServeError, SubmitError};
use crate::health::{HealthCounters, ServeHealth};
use crate::queue::{OverloadPolicy, PushOutcome, ShardQueue};
use crate::request::{ServeOutput, ServeRequest, ServeResponse, ServeTarget};
use crate::telemetry::ServeTelemetry;
use ftbfs_oracle::{Answer, FrozenView, QueryEngine};
use ftbfs_telemetry::{Gauge, TelemetrySnapshot, TimedEvent, TraceEvent};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`StreamServer`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    workers: usize,
    queue_capacity: Option<usize>,
    overload_policy: OverloadPolicy,
    #[cfg(feature = "chaos")]
    chaos: Option<ChaosConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: None,
            overload_policy: OverloadPolicy::default(),
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }
}

impl ServeConfig {
    /// The default configuration (2 workers, unbounded queues,
    /// [`OverloadPolicy::RejectNew`]).
    pub fn new() -> Self {
        ServeConfig::default()
    }

    /// Sets the number of shard workers (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The configured worker count.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Bounds each shard's queue to `capacity` items (clamped to ≥ 1);
    /// submits beyond it are governed by the [`OverloadPolicy`].  The
    /// default is unbounded (the pre-backpressure behaviour).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity.max(1));
        self
    }

    /// The configured per-shard queue bound, if any.
    pub fn queue_capacity_limit(&self) -> Option<usize> {
        self.queue_capacity
    }

    /// Sets what [`StreamHandle::submit`] does when a shard queue is at
    /// capacity.
    pub fn overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.overload_policy = policy;
        self
    }

    /// The configured overload policy.
    pub fn overload_policy_choice(&self) -> OverloadPolicy {
        self.overload_policy
    }

    /// Arms the server with a chaos schedule (fault injection at the
    /// points documented in [`crate::chaos`]).  Only available with the
    /// `chaos` cargo feature; production builds carry no injection code.
    #[cfg(feature = "chaos")]
    pub fn chaos(mut self, schedule: ChaosConfig) -> Self {
        self.chaos = Some(schedule);
        self
    }

    fn injector(&self) -> FaultInjector {
        #[cfg(feature = "chaos")]
        {
            FaultInjector::new(self.chaos.clone())
        }
        #[cfg(not(feature = "chaos"))]
        {
            FaultInjector::inert()
        }
    }
}

/// One routed unit of work: the request, its stream-local sequence number,
/// and the channel its response goes back on.
#[derive(Debug)]
pub(crate) struct WorkItem {
    pub(crate) seq: u64,
    pub(crate) request: ServeRequest,
    pub(crate) reply: Sender<ServeResponse>,
    /// When the item was admitted; the worker turns it into the
    /// queue-wait stage sample at pickup.
    pub(crate) submitted_at: Instant,
}

/// Everything one supervised worker shares with the router.
struct WorkerContext {
    shard: usize,
    cell: Arc<EpochCell>,
    queue: Arc<ShardQueue>,
    health: Arc<HealthCounters>,
    injector: Arc<FaultInjector>,
    telemetry: Arc<ServeTelemetry>,
    in_flight: Gauge,
}

/// The long-running sharded serving front-end over epoch-swapped
/// snapshots.
///
/// Owned by a controller thread; hand out [`StreamHandle`]s to clients
/// (they are `Send`) and an [`EpochPublisher`] to whoever loads new
/// snapshots.
///
/// # Examples
///
/// ```
/// use ftbfs_graph::{generators, FaultSpec, VertexId};
/// use ftbfs_oracle::{FrozenStructure, SnapshotVersion};
/// use ftbfs_serve::{EpochSnapshot, ServeConfig, ServeRequest, StreamServer};
///
/// let g = generators::cycle(8);
/// let frozen = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, g.edges());
/// let snap = EpochSnapshot::from_bytes(frozen.save_with(SnapshotVersion::V2)).unwrap();
///
/// let server = StreamServer::launch(snap, ServeConfig::new().workers(2));
/// let mut stream = server.open_stream();
/// stream.submit(ServeRequest::distance(VertexId(4), FaultSpec::None)).unwrap();
/// let resp = stream.recv().unwrap();
/// assert_eq!(resp.seq, 0);
/// assert_eq!(resp.distance(), Some(Some(4)));
/// assert_eq!(resp.epoch, frozen.fingerprint());
/// assert_eq!(server.health().worker_restarts, 0);
///
/// drop(stream);
/// server.shutdown();
/// ```
pub struct StreamServer {
    cell: Arc<EpochCell>,
    closed: Arc<AtomicBool>,
    queues: Vec<Arc<ShardQueue>>,
    workers: Vec<JoinHandle<()>>,
    health: Arc<HealthCounters>,
    injector: Arc<FaultInjector>,
    telemetry: Arc<ServeTelemetry>,
    queue_capacity: Option<usize>,
    overload_policy: OverloadPolicy,
}

impl StreamServer {
    /// Spawns the supervised worker threads serving `initial` and returns
    /// the controller handle.
    pub fn launch(initial: EpochSnapshot, config: ServeConfig) -> Self {
        let cell = Arc::new(EpochCell::new(Arc::new(initial)));
        let closed = Arc::new(AtomicBool::new(false));
        let telemetry = Arc::new(ServeTelemetry::new(config.workers));
        let health = Arc::new(HealthCounters::registered(telemetry.registry()));
        let injector = Arc::new(config.injector());
        injector.set_event_sink(Arc::clone(telemetry.events()));
        let mut queues = Vec::with_capacity(config.workers);
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let queue = Arc::new(ShardQueue::with_gauge(telemetry.queue_depth_gauge(i)));
            // The server itself is a producer on every queue until
            // shutdown, so workers outlive idle spells with no streams.
            queue.attach();
            let ctx = WorkerContext {
                shard: i,
                cell: Arc::clone(&cell),
                queue: Arc::clone(&queue),
                health: Arc::clone(&health),
                injector: Arc::clone(&injector),
                telemetry: Arc::clone(&telemetry),
                in_flight: telemetry.in_flight_gauge(i),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("ftbfs-serve-{i}"))
                    .spawn(move || supervised_worker(&ctx))
                    .expect("spawn serve worker"),
            );
            queues.push(queue);
        }
        StreamServer {
            cell,
            closed,
            queues,
            workers,
            health,
            injector,
            telemetry,
            queue_capacity: config.queue_capacity,
            overload_policy: config.overload_policy,
        }
    }

    /// Opens a new request stream onto the server.
    pub fn open_stream(&self) -> StreamHandle {
        let (reply_tx, reply_rx) = mpsc::channel();
        for queue in &self.queues {
            queue.attach();
        }
        StreamHandle {
            queues: self.queues.clone(),
            closed: Arc::clone(&self.closed),
            cell: Arc::clone(&self.cell),
            health: Arc::clone(&self.health),
            injector: Arc::clone(&self.injector),
            telemetry: Arc::clone(&self.telemetry),
            queue_capacity: self.queue_capacity,
            overload_policy: self.overload_policy,
            reply_tx,
            reply_rx,
            next_seq: 0,
            next_deliver: 0,
            reorder: HashMap::new(),
        }
    }

    /// A `Send + Sync` handle for swapping in new snapshots from any
    /// thread.
    pub fn publisher(&self) -> EpochPublisher {
        EpochPublisher {
            cell: Arc::clone(&self.cell),
            health: Arc::clone(&self.health),
            injector: Arc::clone(&self.injector),
            events: Arc::clone(self.telemetry.events()),
        }
    }

    /// Installs a new (already validated) snapshot epoch; returns its
    /// generation.  Equivalent to [`EpochPublisher::publish`].
    pub fn publish(&self, snapshot: EpochSnapshot) -> Result<u64, ServeError> {
        self.publisher().publish(snapshot)
    }

    /// The fingerprint of the epoch currently being served.
    pub fn fingerprint(&self) -> u64 {
        self.cell.load().1.fingerprint()
    }

    /// Number of shard workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// A snapshot of the self-healing counters: worker restarts, shed and
    /// rejected requests, publishes.  See [`ServeHealth`].
    pub fn health(&self) -> ServeHealth {
        self.health.snapshot()
    }

    /// Total depth of all shard queues right now (admitted requests not
    /// yet picked up by a worker).
    pub fn queued(&self) -> usize {
        self.queues.iter().map(|q| q.depth()).sum()
    }

    /// The server's telemetry plane: registry, stage histograms,
    /// per-shard gauges and the trace-event ring.
    pub fn telemetry(&self) -> &ServeTelemetry {
        &self.telemetry
    }

    /// Scrapes every registered metric into one [`TelemetrySnapshot`]
    /// (the input of the Prometheus and JSON exporters).  Shorthand for
    /// `server.telemetry().scrape()`.
    pub fn scrape(&self) -> TelemetrySnapshot {
        self.telemetry.scrape()
    }

    /// Removes and returns all buffered trace events (epoch publishes and
    /// rejections, worker restarts, chaos injections), oldest first.
    pub fn drain_events(&self) -> Vec<TimedEvent> {
        self.telemetry.drain_events()
    }

    /// What the server's chaos schedule has injected so far.
    #[cfg(feature = "chaos")]
    pub fn chaos_stats(&self) -> ChaosStats {
        self.injector.stats()
    }

    /// Turns the server's chaos schedule off (clean-probe phase of a
    /// chaos run); serving continues normally.
    #[cfg(feature = "chaos")]
    pub fn quiesce_chaos(&self) {
        self.injector.quiesce();
    }

    /// Stops intake and waits for the workers to drain and exit.
    ///
    /// Submissions begun after this call fail with
    /// [`SubmitError::Shutdown`]; every request submitted before it is
    /// still answered.  Workers exit when their queue's last producer
    /// detaches, so shutdown completes once every [`StreamHandle`] has
    /// been dropped (streams hold producer slots for submission).
    ///
    /// A worker that somehow died outside its supervisor does not panic
    /// the controller: the join failure is absorbed (supervision already
    /// counted the restart storm in [`StreamServer::health`]).
    pub fn shutdown(self) {
        let StreamServer {
            closed,
            queues,
            workers,
            ..
        } = self;
        closed.store(true, Ordering::Release);
        for queue in &queues {
            queue.detach();
        }
        for worker in workers {
            // A panic that escaped the supervisor (it cannot, short of an
            // abort) must not take the controller down with it.
            let _ = worker.join();
        }
    }
}

/// A client's ordered request/response stream; created by
/// [`StreamServer::open_stream`] (or scoped batch serving in
/// [`crate::harness`]).
///
/// Submission assigns each request the next sequence number; responses are
/// delivered by [`StreamHandle::recv`] in exactly that order, whatever
/// order the shards finish in.  The handle is `Send` but not `Sync`: one
/// client drives one stream (open several streams for several clients).
pub struct StreamHandle {
    queues: Vec<Arc<ShardQueue>>,
    closed: Arc<AtomicBool>,
    cell: Arc<EpochCell>,
    health: Arc<HealthCounters>,
    injector: Arc<FaultInjector>,
    telemetry: Arc<ServeTelemetry>,
    queue_capacity: Option<usize>,
    overload_policy: OverloadPolicy,
    reply_tx: Sender<ServeResponse>,
    reply_rx: Receiver<ServeResponse>,
    next_seq: u64,
    next_deliver: u64,
    /// Out-of-order responses parked until their turn, stamped with their
    /// arrival time (the reassembly-stage sample).
    reorder: HashMap<u64, (ServeResponse, Instant)>,
}

impl StreamHandle {
    /// Submits a request, returning the sequence number its response will
    /// carry.
    ///
    /// This is the admission-control point: a request whose deadline has
    /// already passed is admitted but answered
    /// [`ServeError::DeadlineExceeded`] immediately, without consuming
    /// queue space or worker time; a shard queue at capacity turns the
    /// call into a typed [`SubmitError`] under the configured
    /// [`OverloadPolicy`].  On `Err` **no sequence number is consumed**
    /// and no response will arrive — every `SubmitError` is safe to
    /// retry.
    pub fn submit(&mut self, request: ServeRequest) -> Result<u64, SubmitError> {
        let submitted_at = Instant::now();
        if self.closed.load(Ordering::Acquire) {
            return Err(SubmitError::Shutdown);
        }
        let seq = self.next_seq;
        // Deadline admission control: expired work is answered here, not
        // routed — the response takes its slot in the stream as usual.
        if request.deadline.is_some_and(|d| Instant::now() > d) {
            self.health.expired_at_submit.inc();
            let epoch = self.cell.load().1.fingerprint();
            self.reorder.insert(
                seq,
                (
                    ServeResponse {
                        seq,
                        epoch,
                        work_ns: 0,
                        outcome: Err(ServeError::DeadlineExceeded),
                    },
                    Instant::now(),
                ),
            );
            self.next_seq += 1;
            self.telemetry
                .record_submit(&request.target, submitted_at.elapsed().as_nanos() as u64);
            return Ok(seq);
        }
        let shard = match request.source {
            // Explicit sources pin their shard (engine-cache affinity);
            // primary-source requests round-robin for spread.
            Some(s) => s.index() % self.queues.len(),
            None => (seq as usize) % self.queues.len(),
        };
        if self.injector.drop_send() {
            self.health.rejected_unavailable.inc();
            return Err(SubmitError::ShardUnavailable { shard });
        }
        let target = request.target.clone();
        let item = WorkItem {
            seq,
            request,
            reply: self.reply_tx.clone(),
            submitted_at,
        };
        match self.queues[shard].push(
            item,
            self.queue_capacity,
            self.overload_policy,
            Instant::now(),
        ) {
            PushOutcome::Admitted { shed } => {
                if !shed.is_empty() {
                    let epoch = self.cell.load().1.fingerprint();
                    for victim in shed {
                        self.health.shed_expired.inc();
                        // Shed items may belong to other streams; each
                        // still receives exactly one response, in its own
                        // stream's slot.
                        let _ = victim.reply.send(ServeResponse {
                            seq: victim.seq,
                            epoch,
                            work_ns: 0,
                            outcome: Err(ServeError::DeadlineExceeded),
                        });
                    }
                }
                self.next_seq += 1;
                self.telemetry
                    .record_submit(&target, submitted_at.elapsed().as_nanos() as u64);
                Ok(seq)
            }
            PushOutcome::Rejected { item, depth } => {
                // The handed-back item dies here: no seq consumed, no
                // response owed — Overloaded is safe to retry.
                drop(item);
                self.health.rejected_overloaded.inc();
                Err(SubmitError::Overloaded { shard, depth })
            }
        }
    }

    /// Number of submitted requests whose responses have not yet been
    /// delivered.
    pub fn in_flight(&self) -> u64 {
        self.next_seq - self.next_deliver
    }

    /// Receives the next response **in submission order**, blocking until
    /// it arrives.
    ///
    /// Returns [`ServeError::Idle`] if nothing is in flight.
    pub fn recv(&mut self) -> Result<ServeResponse, ServeError> {
        if self.in_flight() == 0 {
            return Err(ServeError::Idle);
        }
        loop {
            if let Some((resp, parked_at)) = self.reorder.remove(&self.next_deliver) {
                self.next_deliver += 1;
                self.telemetry
                    .record_reassembly(parked_at.elapsed().as_nanos() as u64);
                return Ok(resp);
            }
            let resp = self.reply_rx.recv().map_err(|_| ServeError::Shutdown)?;
            self.reorder.insert(resp.seq, (resp, Instant::now()));
        }
    }

    /// Like [`StreamHandle::recv`], but gives up after `timeout` with
    /// [`ServeError::Timeout`] — the never-hang guard for callers that
    /// must not block forever on a wedged peer.  The request stays in
    /// flight; a later receive can still deliver it.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<ServeResponse, ServeError> {
        if self.in_flight() == 0 {
            return Err(ServeError::Idle);
        }
        let give_up = Instant::now() + timeout;
        loop {
            if let Some((resp, parked_at)) = self.reorder.remove(&self.next_deliver) {
                self.next_deliver += 1;
                self.telemetry
                    .record_reassembly(parked_at.elapsed().as_nanos() as u64);
                return Ok(resp);
            }
            let now = Instant::now();
            let remaining = give_up.saturating_duration_since(now);
            if remaining.is_zero() {
                return Err(ServeError::Timeout(timeout));
            }
            match self.reply_rx.recv_timeout(remaining) {
                Ok(resp) => {
                    self.reorder.insert(resp.seq, (resp, Instant::now()));
                }
                Err(RecvTimeoutError::Timeout) => return Err(ServeError::Timeout(timeout)),
                Err(RecvTimeoutError::Disconnected) => return Err(ServeError::Shutdown),
            }
        }
    }

    /// Receives all outstanding responses, in submission order.
    pub fn drain(&mut self) -> Result<Vec<ServeResponse>, ServeError> {
        let mut out = Vec::with_capacity(self.in_flight() as usize);
        while self.in_flight() > 0 {
            out.push(self.recv()?);
        }
        Ok(out)
    }
}

impl Drop for StreamHandle {
    fn drop(&mut self) {
        for queue in &self.queues {
            queue.detach();
        }
    }
}

/// One shard's supervisor: runs the serving loop under `catch_unwind`;
/// on a panic, answers the in-flight request with
/// [`ServeError::WorkerRestarted`], counts the restart, and re-enters the
/// loop with fresh serving state over the *current* epoch.  The shared
/// [`ShardQueue`] survives the restart, so queued requests are never
/// lost.
fn supervised_worker(ctx: &WorkerContext) {
    let mut restart_generation: u64 = 0;
    let mut in_flight: Option<WorkItem> = None;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| serve_shard(ctx, &mut in_flight)));
        match outcome {
            // Queue drained and the last producer detached: clean exit.
            Ok(()) => return,
            Err(_) => {
                restart_generation += 1;
                ctx.health.worker_restarts.inc();
                ctx.telemetry.events().push(TraceEvent::WorkerRestarted {
                    shard: ctx.shard as u32,
                    generation: restart_generation,
                });
                if let Some(item) = in_flight.take() {
                    // The panic interrupted this request: answer it with
                    // the typed restart error so its stream stays in sync
                    // (exactly one response per admitted request).
                    let epoch = ctx.cell.load().1.fingerprint();
                    let _ = item.reply.send(ServeResponse {
                        seq: item.seq,
                        epoch,
                        work_ns: 0,
                        outcome: Err(ServeError::WorkerRestarted {
                            generation: restart_generation,
                        }),
                    });
                    // The pickup incremented the in-flight gauge; the
                    // restart answer is this request's completion.
                    ctx.in_flight.dec();
                }
            }
        }
    }
}

/// One shard's serving loop: open a view over the current epoch, answer
/// requests until the epoch moves (then reopen) or the queue signals
/// drain-and-exit.
///
/// The generation is re-checked after *receiving* each request, so a
/// request submitted after a publish returned is never answered by the
/// old epoch; a request already received when the publish lands is
/// answered by the epoch the worker has open.  Either way it is answered
/// exactly once.
///
/// `in_flight` is the supervisor's window into this loop: the item
/// currently being served always sits in it, so a panic anywhere in here
/// leaves the supervisor holding exactly the request that must be
/// answered with [`ServeError::WorkerRestarted`].
fn serve_shard(ctx: &WorkerContext, in_flight: &mut Option<WorkItem>) {
    let mut engine = QueryEngine::new();
    'epochs: loop {
        let (generation, snapshot) = ctx.cell.load();
        let view = snapshot.open();
        let fingerprint = snapshot.fingerprint();
        loop {
            if in_flight.is_none() {
                *in_flight = ctx.queue.pop();
                let Some(item) = in_flight.as_ref() else {
                    // Drained, no producers left: done.
                    return;
                };
                ctx.telemetry.record_queue_wait(
                    ctx.shard,
                    &item.request.target,
                    item.submitted_at.elapsed().as_nanos() as u64,
                );
                ctx.in_flight.inc();
                // Chaos: an injected worker panic lands here, at pickup,
                // while the item sits in the supervisor-visible slot.
                ctx.injector.panic_point();
            }
            if ctx.cell.generation() != generation {
                // Epoch moved: reopen, carrying the in-flight item across.
                continue 'epochs;
            }
            ctx.injector.stall_point();
            let item = in_flight.as_ref().expect("in-flight item present");
            let response = answer(&mut engine, &view, fingerprint, item.seq, &item.request);
            // Publish before replying, so a client that has drained its
            // stream reads counters that include every answer it got.
            ctx.telemetry.engine().publish(&mut engine);
            ctx.telemetry.record_execute(
                ctx.shard,
                &item.request.target,
                &response.outcome,
                response.work_ns,
            );
            let item = in_flight.take().expect("in-flight item present");
            // A closed reply channel means the stream's client is gone and
            // the response is unwanted; requests from live streams are
            // unaffected.
            let _ = item.reply.send(response);
            ctx.in_flight.dec();
        }
    }
}

/// Answers one request against an open view — the shared serving core of
/// the epoch workers and the scoped batch workers in [`crate::harness`].
pub(crate) fn answer(
    engine: &mut QueryEngine,
    oracle: &FrozenView<'_>,
    fingerprint: u64,
    seq: u64,
    request: &ServeRequest,
) -> ServeResponse {
    let start = Instant::now();
    let outcome = serve_outcome(engine, oracle, request);
    ServeResponse {
        seq,
        epoch: fingerprint,
        work_ns: start.elapsed().as_nanos() as u64,
        outcome,
    }
}

/// The query dispatch behind [`answer`], with deadline enforcement both
/// at pickup and — for the all-distances form — *between per-target
/// reads*, so one huge request cannot silently blow its budget: overruns
/// return [`ServeError::DeadlineExceeded`] with the partial work
/// discarded.
fn serve_outcome(
    engine: &mut QueryEngine,
    oracle: &FrozenView<'_>,
    request: &ServeRequest,
) -> Result<Answer<ServeOutput>, ServeError> {
    if request
        .deadline
        .is_some_and(|deadline| Instant::now() > deadline)
    {
        return Err(ServeError::DeadlineExceeded);
    }
    let source = match request.source {
        Some(s) => s,
        None => oracle.primary_source(),
    };
    match &request.target {
        ServeTarget::One(target) => engine
            .try_distance_from(oracle, source, *target, &request.faults)
            .map(|a| a.map(ServeOutput::Distance))
            .map_err(ServeError::from),
        ServeTarget::All => match request.deadline {
            None => engine
                .try_all_distances_from(oracle, source, &request.faults)
                .map(|a| a.map(ServeOutput::Distances))
                .map_err(ServeError::from),
            Some(deadline) => {
                match engine.try_all_distances_from_budgeted(
                    oracle,
                    source,
                    &request.faults,
                    || Instant::now() <= deadline,
                ) {
                    Ok(Some(a)) => Ok(a.map(ServeOutput::Distances)),
                    Ok(None) => Err(ServeError::DeadlineExceeded),
                    Err(e) => Err(ServeError::from(e)),
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::{generators, FaultSpec, VertexId};
    use ftbfs_oracle::{FrozenStructure, QueryError, SnapshotVersion};

    fn snapshot_of(g: &ftbfs_graph::Graph) -> (EpochSnapshot, FrozenStructure) {
        let frozen = FrozenStructure::from_edges(g, &[VertexId(0)], 2, g.edges());
        let snap = EpochSnapshot::from_bytes(frozen.save_with(SnapshotVersion::V2)).unwrap();
        (snap, frozen)
    }

    #[test]
    fn streams_answer_in_submission_order_across_shards() {
        let g = generators::grid(5, 5);
        let (snap, frozen) = snapshot_of(&g);
        let server = StreamServer::launch(snap, ServeConfig::new().workers(3));
        let mut stream = server.open_stream();
        let mut engine = QueryEngine::new();
        let n = g.vertex_count() as u32;
        for i in 0..200u32 {
            let target = VertexId(i % n);
            stream
                .submit(ServeRequest::distance(target, FaultSpec::None))
                .unwrap();
        }
        for i in 0..200u64 {
            let resp = stream.recv().unwrap();
            assert_eq!(resp.seq, i, "responses must arrive in submission order");
            let expected = engine
                .try_distance(&frozen, VertexId((i as u32) % n), &FaultSpec::None)
                .unwrap()
                .into_value();
            assert_eq!(resp.distance(), Some(expected));
            assert_eq!(resp.epoch, frozen.fingerprint());
        }
        assert_eq!(stream.in_flight(), 0);
        assert!(matches!(stream.recv(), Err(ServeError::Idle)));
        assert_eq!(
            server.health(),
            ServeHealth::default(),
            "no faults absorbed"
        );
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn all_distances_and_errors_ride_the_same_stream() {
        let g = generators::cycle(8);
        let (snap, frozen) = snapshot_of(&g);
        let server = StreamServer::launch(snap, ServeConfig::default());
        let mut stream = server.open_stream();
        stream
            .submit(ServeRequest::all_distances(FaultSpec::None))
            .unwrap();
        stream
            .submit(ServeRequest::distance(VertexId(99), FaultSpec::None))
            .unwrap();
        let all = stream.recv().unwrap();
        match all.outcome.as_ref().unwrap().value() {
            ServeOutput::Distances(d) => {
                let mut engine = QueryEngine::new();
                let expected = engine
                    .try_all_distances(&frozen, &FaultSpec::None)
                    .unwrap()
                    .into_value();
                assert_eq!(d, &expected);
            }
            other => panic!("expected Distances, got {other:?}"),
        }
        let bad = stream.recv().unwrap();
        assert_eq!(
            bad.outcome,
            Err(ServeError::Query(QueryError::VertexOutOfRange {
                vertex: VertexId(99),
                bound: 8
            }))
        );
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn expired_deadlines_are_answered_not_dropped() {
        let g = generators::cycle(6);
        let (snap, _) = snapshot_of(&g);
        let server = StreamServer::launch(snap, ServeConfig::new().workers(1));
        let mut stream = server.open_stream();
        let past = Instant::now() - std::time::Duration::from_secs(1);
        stream
            .submit(ServeRequest::distance(VertexId(2), FaultSpec::None).with_deadline(past))
            .unwrap();
        let future = Instant::now() + std::time::Duration::from_secs(600);
        stream
            .submit(ServeRequest::distance(VertexId(2), FaultSpec::None).with_deadline(future))
            .unwrap();
        let missed = stream.recv().unwrap();
        assert_eq!(missed.outcome, Err(ServeError::DeadlineExceeded));
        let made = stream.recv().unwrap();
        assert_eq!(made.distance(), Some(Some(2)));
        // Deadline admission control answered at submit, without routing.
        assert_eq!(server.health().expired_at_submit, 1);
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn all_distances_with_generous_deadline_completes() {
        let g = generators::grid(4, 4);
        let (snap, frozen) = snapshot_of(&g);
        let server = StreamServer::launch(snap, ServeConfig::new().workers(1));
        let mut stream = server.open_stream();
        let deadline = Instant::now() + std::time::Duration::from_secs(600);
        stream
            .submit(ServeRequest::all_distances(FaultSpec::None).with_deadline(deadline))
            .unwrap();
        let resp = stream.recv().unwrap();
        let mut engine = QueryEngine::new();
        let expected = engine
            .try_all_distances(&frozen, &FaultSpec::None)
            .unwrap()
            .into_value();
        match resp.outcome.unwrap().value() {
            ServeOutput::Distances(d) => assert_eq!(d, &expected),
            other => panic!("expected Distances, got {other:?}"),
        }
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn reject_new_overload_is_a_typed_submit_error() {
        let g = generators::cycle(6);
        let (snap, _) = snapshot_of(&g);
        // One worker, queue capacity 2: stall the worker with a deadline
        // far in the future so the queue actually fills.
        let server = StreamServer::launch(snap, ServeConfig::new().workers(1).queue_capacity(2));
        // Stall the single worker by keeping the queue always non-empty
        // is racy; instead just submit faster than the worker can dequeue
        // until Overloaded appears, then drain and verify every admitted
        // request was answered exactly once.
        let mut stream = server.open_stream();
        let mut admitted = 0u64;
        let mut rejections = 0u64;
        for _ in 0..50_000 {
            match stream.submit(ServeRequest::distance(VertexId(3), FaultSpec::None)) {
                Ok(_) => admitted += 1,
                Err(SubmitError::Overloaded { depth, .. }) => {
                    rejections += 1;
                    assert!(depth >= 2, "rejection only at capacity");
                    break;
                }
                Err(e) => panic!("unexpected submit error {e}"),
            }
        }
        let responses = stream.drain().unwrap();
        assert_eq!(responses.len() as u64, admitted, "admitted ⇒ answered");
        if rejections > 0 {
            assert!(server.health().rejected_overloaded >= rejections);
        }
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn shed_expired_policy_answers_victims_and_admits_fresh_work() {
        let g = generators::cycle(6);
        let (snap, _) = snapshot_of(&g);
        let server = StreamServer::launch(
            snap,
            ServeConfig::new()
                .workers(1)
                .queue_capacity(4)
                .overload_policy(OverloadPolicy::ShedExpired),
        );
        let mut stream = server.open_stream();
        // Submit a burst with near-past deadlines racing the worker; then
        // keep submitting live work.  Whatever interleaving happens, the
        // invariant is: every admitted request gets exactly one response.
        let soon = Instant::now() + std::time::Duration::from_micros(50);
        let mut admitted = 0u64;
        for _ in 0..200 {
            if stream
                .submit(ServeRequest::distance(VertexId(2), FaultSpec::None).with_deadline(soon))
                .is_ok()
            {
                admitted += 1;
            }
        }
        for _ in 0..200 {
            if stream
                .submit(ServeRequest::distance(VertexId(2), FaultSpec::None))
                .is_ok()
            {
                admitted += 1;
            }
        }
        let responses = stream.drain().unwrap();
        assert_eq!(responses.len() as u64, admitted);
        for resp in &responses {
            match &resp.outcome {
                Ok(a) => assert_eq!(a.value().distance(), Some(Some(2))),
                Err(ServeError::DeadlineExceeded) => {}
                Err(e) => panic!("unexpected outcome {e}"),
            }
        }
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn submit_after_shutdown_begins_is_rejected() {
        let g = generators::cycle(6);
        let (snap, _) = snapshot_of(&g);
        let server = StreamServer::launch(snap, ServeConfig::new().workers(2));
        let mut stream = server.open_stream();
        stream
            .submit(ServeRequest::distance(VertexId(1), FaultSpec::None))
            .unwrap();
        assert_eq!(stream.recv().unwrap().distance(), Some(Some(1)));
        std::thread::scope(|scope| {
            // Shutdown from another thread: it marks the server closed and
            // then blocks until this stream is dropped.
            scope.spawn(move || server.shutdown());
            loop {
                match stream.submit(ServeRequest::distance(VertexId(1), FaultSpec::None)) {
                    Err(SubmitError::Shutdown) => break,
                    Err(e) => panic!("unexpected error {e}"),
                    Ok(_) => {
                        // Raced ahead of the close flag: the request is
                        // still served; drain and retry.
                        let _ = stream.recv().unwrap();
                        std::thread::yield_now();
                    }
                }
            }
            drop(stream);
        });
    }

    #[test]
    fn publish_then_submit_is_served_by_the_new_epoch() {
        let g = generators::cycle(12);
        let (snap_a, frozen_a) = snapshot_of(&g);
        // A sparser structure over the same graph: different fingerprint.
        let tree_edges: Vec<_> = g.edges().take(g.vertex_count() - 1).collect();
        let frozen_b = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, tree_edges);
        let snap_b = EpochSnapshot::from_bytes(frozen_b.save_with(SnapshotVersion::V2)).unwrap();
        assert_ne!(frozen_a.fingerprint(), frozen_b.fingerprint());

        let server = StreamServer::launch(snap_a, ServeConfig::new().workers(2));
        let mut stream = server.open_stream();
        stream
            .submit(ServeRequest::distance(VertexId(6), FaultSpec::None))
            .unwrap();
        let before = stream.recv().unwrap();
        assert_eq!(before.epoch, frozen_a.fingerprint());

        server.publish(snap_b).unwrap();
        assert_eq!(server.fingerprint(), frozen_b.fingerprint());
        assert_eq!(server.health().publishes, 1);
        // Submitted after publish returned: must be served by epoch B.
        stream
            .submit(ServeRequest::distance(VertexId(6), FaultSpec::None))
            .unwrap();
        let after = stream.recv().unwrap();
        assert_eq!(after.epoch, frozen_b.fingerprint());
        assert_eq!(after.distance(), Some(Some(6)));
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn telemetry_scrape_sees_stages_health_and_events() {
        let g = generators::grid(5, 5);
        let (snap, frozen) = snapshot_of(&g);
        let server = StreamServer::launch(snap, ServeConfig::new().workers(2));
        let mut stream = server.open_stream();
        let n = g.vertex_count() as u32;
        for i in 0..60u32 {
            stream
                .submit(ServeRequest::distance(VertexId(i % n), FaultSpec::None))
                .unwrap();
        }
        let responses = stream.drain().unwrap();
        assert_eq!(responses.len(), 60);

        let scrape = server.scrape();
        let hist_count = |name: &str, label: (&str, &str)| -> u64 {
            scrape
                .histograms
                .iter()
                .filter(|h| {
                    h.name == name
                        && h.labels
                            .contains(&(label.0.to_string(), label.1.to_string()))
                })
                .map(|h| h.count)
                .sum()
        };
        assert_eq!(
            hist_count(ftbfs_telemetry::names::STAGE_SUBMIT_NS, ("target", "one")),
            60
        );
        assert_eq!(
            hist_count(
                ftbfs_telemetry::names::STAGE_QUEUE_WAIT_NS,
                ("target", "one")
            ),
            60
        );
        assert_eq!(
            hist_count(
                ftbfs_telemetry::names::STAGE_EXECUTE_NS,
                ("guarantee", "exact")
            ),
            60,
            "fault-free single-distance answers are all exact"
        );
        let reassembly: u64 = scrape
            .histograms
            .iter()
            .filter(|h| h.name == ftbfs_telemetry::names::STAGE_REASSEMBLY_NS)
            .map(|h| h.count)
            .sum();
        assert_eq!(reassembly, 60, "one reorder-buffer sample per delivery");
        // Engine counters tally one edge per request.
        let engine_edges: u64 = scrape
            .counters
            .iter()
            .filter(|c| {
                c.name == ftbfs_telemetry::names::ENGINE_TREE_HITS
                    || c.name == ftbfs_telemetry::names::ENGINE_CACHE_HITS
                    || c.name == ftbfs_telemetry::names::ENGINE_SEARCHES
            })
            .map(|c| c.value)
            .sum();
        assert_eq!(engine_edges, 60);
        // Health counters surface under their stable names.
        assert!(scrape
            .counters
            .iter()
            .any(|c| c.name == ftbfs_telemetry::names::SERVE_WORKER_RESTARTS && c.value == 0));
        // Quiescent queues: depth and in-flight gauges all read zero.
        assert!(scrape.gauges.iter().all(|g| g.value == 0));

        // A publish lands in the trace-event ring with its fingerprint.
        let tree_edges: Vec<_> = g.edges().take(g.vertex_count() - 1).collect();
        let frozen_b = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, tree_edges);
        let snap_b = EpochSnapshot::from_bytes(frozen_b.save_with(SnapshotVersion::V2)).unwrap();
        server.publish(snap_b).unwrap();
        let events = server.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].event,
            TraceEvent::EpochPublished {
                epoch: 1,
                fingerprint: frozen_b.fingerprint()
            }
        );
        assert_ne!(frozen.fingerprint(), frozen_b.fingerprint());
        assert!(server.drain_events().is_empty(), "drain empties the ring");

        // The scrape round-trips through the JSON exporter losslessly.
        let json = server.scrape().to_json();
        let parsed = ftbfs_telemetry::TelemetrySnapshot::from_json(&json).unwrap();
        assert_eq!(parsed.to_json(), json);

        drop(stream);
        server.shutdown();
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn injected_panics_are_absorbed_with_exactly_one_response_each() {
        let g = generators::grid(5, 5);
        let (snap, frozen) = snapshot_of(&g);
        // A panic on ~5% of pickups, capped: the run must see restarts and
        // still answer every request exactly once, in order.
        let server = StreamServer::launch(
            snap,
            ServeConfig::new()
                .workers(2)
                .chaos(ChaosConfig::new(0xDEAD_BEEF).with_worker_panics(50_000, 16)),
        );
        let mut stream = server.open_stream();
        let n = g.vertex_count() as u32;
        let total = 2_000u32;
        for i in 0..total {
            stream
                .submit(ServeRequest::distance(VertexId(i % n), FaultSpec::None))
                .unwrap();
        }
        let responses = stream.drain().unwrap();
        assert_eq!(responses.len(), total as usize, "exactly-once violated");
        let mut engine = QueryEngine::new();
        let mut restarted = 0u64;
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.seq, i as u64, "order violated under chaos");
            match &resp.outcome {
                Ok(_) => {
                    let expected = engine
                        .try_distance(&frozen, VertexId(i as u32 % n), &FaultSpec::None)
                        .unwrap()
                        .into_value();
                    assert_eq!(resp.distance(), Some(expected));
                }
                Err(ServeError::WorkerRestarted { generation }) => {
                    assert!(*generation >= 1);
                    restarted += 1;
                }
                Err(e) => panic!("unexpected outcome {e}"),
            }
        }
        let stats = server.chaos_stats();
        assert!(stats.panics >= 1, "schedule never fired");
        assert_eq!(
            restarted, stats.panics,
            "each injected panic answers exactly its in-flight request"
        );
        assert_eq!(server.health().worker_restarts, stats.panics);
        // The trace-event log alone is enough to replay the failure: every
        // injected panic carries the schedule seed and its pickup index,
        // and every supervised restart names the shard and generation.
        let events = server.drain_events();
        let panics: Vec<_> = events
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::ChaosPanic { seed, visit } => Some((seed, visit)),
                _ => None,
            })
            .collect();
        assert_eq!(panics.len() as u64, stats.panics);
        assert!(panics.iter().all(|&(seed, _)| seed == 0xDEAD_BEEF));
        let restarts = events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::WorkerRestarted { .. }))
            .count();
        assert_eq!(restarts as u64, stats.panics);
        // Quiesced, the server is healthy: a clean probe round-trips.
        server.quiesce_chaos();
        stream
            .submit(ServeRequest::distance(VertexId(7), FaultSpec::None))
            .unwrap();
        assert!(stream.recv().unwrap().outcome.is_ok());
        drop(stream);
        server.shutdown();
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn dropped_sends_reject_the_submit_without_consuming_a_seq() {
        let g = generators::cycle(8);
        let (snap, _) = snapshot_of(&g);
        let server = StreamServer::launch(
            snap,
            ServeConfig::new()
                .workers(1)
                .chaos(ChaosConfig::new(42).with_dropped_sends(200_000)),
        );
        let mut stream = server.open_stream();
        let mut admitted = 0u64;
        let mut dropped = 0u64;
        for _ in 0..500 {
            match stream.submit(ServeRequest::distance(VertexId(3), FaultSpec::None)) {
                Ok(seq) => {
                    assert_eq!(seq, admitted, "rejected submits must not consume seqs");
                    admitted += 1;
                }
                Err(SubmitError::ShardUnavailable { shard }) => {
                    assert_eq!(shard, 0);
                    dropped += 1;
                }
                Err(e) => panic!("unexpected submit error {e}"),
            }
        }
        assert!(dropped >= 1, "drop schedule never fired");
        assert_eq!(server.chaos_stats().dropped_sends, dropped);
        assert_eq!(server.health().rejected_unavailable, dropped);
        let responses = stream.drain().unwrap();
        assert_eq!(responses.len() as u64, admitted);
        assert!(responses.iter().all(|r| r.distance() == Some(Some(3))));
        drop(stream);
        server.shutdown();
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn corrupted_publishes_are_rejected_and_the_old_epoch_keeps_serving() {
        let g = generators::cycle(10);
        let (snap_a, frozen_a) = snapshot_of(&g);
        let tree_edges: Vec<_> = g.edges().take(g.vertex_count() - 1).collect();
        let frozen_b = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, tree_edges);
        let snap_b = EpochSnapshot::from_bytes(frozen_b.save_with(SnapshotVersion::V2)).unwrap();

        // Every publish is corrupted: each must be rejected, the epoch
        // must never move.
        let server = StreamServer::launch(
            snap_a,
            ServeConfig::new()
                .workers(1)
                .chaos(ChaosConfig::new(5).with_corrupt_publishes(1_000_000)),
        );
        for _ in 0..3 {
            match server.publish(snap_b.clone()) {
                Err(ServeError::SnapshotRejected(_)) => {}
                other => panic!("corrupted publish accepted: {other:?}"),
            }
        }
        assert_eq!(server.fingerprint(), frozen_a.fingerprint());
        assert_eq!(server.health().rejected_publishes, 3);
        assert_eq!(server.health().publishes, 0);
        assert_eq!(server.chaos_stats().corrupted_publishes, 3);
        // Quiesce: the same snapshot now publishes cleanly.
        server.quiesce_chaos();
        server.publish(snap_b.clone()).unwrap();
        assert_eq!(server.fingerprint(), frozen_b.fingerprint());
        assert_eq!(server.health().publishes, 1);
        server.shutdown();
    }

    #[test]
    fn recv_timeout_reports_timeout_without_losing_the_request() {
        let g = generators::cycle(6);
        let (snap, _) = snapshot_of(&g);
        let server = StreamServer::launch(snap, ServeConfig::new().workers(1));
        let mut stream = server.open_stream();
        assert!(matches!(
            stream.recv_timeout(Duration::from_millis(1)),
            Err(ServeError::Idle)
        ));
        stream
            .submit(ServeRequest::distance(VertexId(2), FaultSpec::None))
            .unwrap();
        // The response may or may not arrive within the tiny window; both
        // outcomes are legal, and in either case the stream stays usable.
        match stream.recv_timeout(Duration::from_millis(100)) {
            Ok(resp) => assert_eq!(resp.distance(), Some(Some(2))),
            Err(ServeError::Timeout(_)) => {
                let resp = stream.recv().unwrap();
                assert_eq!(resp.distance(), Some(Some(2)));
            }
            Err(e) => panic!("unexpected error {e}"),
        }
        drop(stream);
        server.shutdown();
    }
}
