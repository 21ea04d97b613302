//! E12 — chaos-schedule serving: the E11 sustained-load workload driven
//! through a `StreamServer` armed with a deterministic fault-injection
//! schedule (`ftbfs_serve::chaos`), proving the self-healing machinery
//! absorbs the faults *while the workload keeps its correctness
//! guarantees*:
//!
//! * **exactly-once** — every admitted request receives exactly one
//!   response, in submission order, even when the worker serving it
//!   panics (the response is then the typed `WorkerRestarted`);
//! * **zero wrong answers** — every non-error answer equals ground truth
//!   (both epochs are dual-failure-resilient structures over the same
//!   graph, so `dist(s, v, H ∖ F) = dist(s, v, G ∖ F)` for `|F| ≤ 2`
//!   whichever epoch answers);
//! * **degradation, not collapse** — sustained throughput under the storm
//!   stays above a degraded floor, and typed submit rejections (dropped
//!   sends, overload) are retried by the clients like any backpressure;
//! * **corrupted publishes are rejected** — the swapper keeps publishing
//!   under a byte-corruption schedule; rejected publishes leave the old
//!   epoch serving, successful ones swap it, and the run requires both
//!   outcomes to occur;
//! * **the server ends healthy** — after `quiesce()`, a clean probe phase
//!   answers everything correctly at full speed.
//!
//! Results are spliced into `BENCH_query.json` as a `chaos_serve` section
//! (CI order: E10 rewrites the file wholesale, E11 splices `serve_load`,
//! E12 splices `chaos_serve`), carrying the provenance fields `{nproc,
//! rustc, commit, mode}`.  Under `--smoke` the file is
//! `target/BENCH_query.smoke.json`; `--out` overrides the path.
//!
//! Usage:
//!
//! ```text
//! exp_chaos_serve [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the run to seconds-scale for CI **and enforces the
//! checked-in gates**: at least [`SMOKE_MIN_PANICS`] injected worker
//! panics absorbed, at least [`SMOKE_MIN_PUBLISHES`] successful and
//! [`SMOKE_MIN_REJECTED_PUBLISHES`] rejected mid-run publishes, zero
//! wrong answers, and storm-phase throughput ≥
//! [`SMOKE_CHAOS_QPS_FLOOR`].  Any violation exits non-zero.

use ftbfs_bench::{json, Table};
use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_graph::{generators, EdgeId, FaultSpec, Graph, TieBreak, VertexId};
use ftbfs_oracle::{Freeze, FrozenStructure, QueryEngine, SnapshotVersion};
use ftbfs_serve::{
    ChaosConfig, EpochSnapshot, ServeConfig, ServeError, ServeRequest, StreamServer, SubmitError,
    TimedEvent, TraceEvent, CHAOS_PANIC_MARKER,
};
use ftbfs_telemetry::names;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The `--smoke` floor on sustained throughput *during the chaos storm*
/// (panics, stalls, dropped sends and publish attempts all active), in
/// requests per second aggregate across clients.
///
/// The healthy smoke path measures ≈ 900k req/s on the single-core CI
/// container class (E11); the storm costs worker respawns, injected
/// stalls and submit retries, measured at ≈ 400–700k req/s.  The floor is
/// the ISSUE's degraded-mode bar: serving under faults must degrade, not
/// collapse.
const SMOKE_CHAOS_QPS_FLOOR: f64 = 100_000.0;

/// Minimum injected worker panics the smoke schedule must produce (each
/// one is a supervised restart the run then proves harmless).
const SMOKE_MIN_PANICS: u64 = 3;

/// Minimum *successful* mid-run epoch publishes in smoke.
const SMOKE_MIN_PUBLISHES: u64 = 2;

/// Minimum corruption-rejected mid-run publishes in smoke.
const SMOKE_MIN_REJECTED_PUBLISHES: u64 = 2;

/// Deterministic splitmix64 so the workload needs no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The E11 serving mix: 25% fault-free, 25% single-fault, 50% dual-fault,
/// faults drawn from a small pool of "active" pairs.
fn build_requests(
    g: &Graph,
    structure_edges: &[EdgeId],
    count: usize,
    seed: u64,
) -> Vec<ServeRequest> {
    let mut state = seed;
    let mut active: Vec<(EdgeId, EdgeId)> = Vec::new();
    let mut requests = Vec::with_capacity(count);
    for i in 0..count {
        if active.len() < 12 || splitmix64(&mut state) % 64 == 0 {
            let a = structure_edges[splitmix64(&mut state) as usize % structure_edges.len()];
            let b = structure_edges[splitmix64(&mut state) as usize % structure_edges.len()];
            active.push((a, b));
            if active.len() > 24 {
                active.remove(0);
            }
        }
        let target = VertexId((splitmix64(&mut state) as usize % g.vertex_count()) as u32);
        let (a, b) = active[splitmix64(&mut state) as usize % active.len()];
        requests.push(match i % 4 {
            0 => ServeRequest::distance(target, FaultSpec::None),
            1 => ServeRequest::distance(target, a),
            _ => ServeRequest::distance(target, (a, b)),
        });
    }
    requests
}

/// Ground truth for the workload: `dist(s, target, H ∖ F)` per request,
/// epoch-independent for this workload (see the module docs).
fn expected_distances(frozen: &FrozenStructure, requests: &[ServeRequest]) -> Vec<Option<u32>> {
    let mut engine = QueryEngine::new();
    requests
        .iter()
        .map(|r| {
            let target = match r.target {
                ftbfs_serve::ServeTarget::One(t) => t,
                _ => unreachable!("workload is single-target"),
            };
            engine
                .try_distance(frozen, target, &r.faults)
                .expect("workload requests are in range")
                .into_value()
        })
        .collect()
}

/// What one client observed driving the storm.
#[derive(Default)]
struct ClientObservation {
    answered: u64,
    degraded: u64,
    wrong: u64,
    submit_retries: u64,
}

/// Drives one client stream with a bounded in-flight window through the
/// chaos storm: typed submit rejections are retried, every delivered
/// response is checked for order and (when it carries data) correctness,
/// `WorkerRestarted` responses are counted as degraded service.  The
/// never-hang guard is `recv_timeout`: a wedged stream fails the run
/// instead of deadlocking it.
fn drive_client(
    server: &StreamServer,
    requests: &[ServeRequest],
    expected: &[Option<u32>],
    window: usize,
) -> ClientObservation {
    let mut stream = server.open_stream();
    let mut obs = ClientObservation::default();
    // Submission index per admitted seq, so responses check against the
    // right ground-truth slot even though rejected submits consume none.
    let mut admitted: VecDeque<usize> = VecDeque::with_capacity(window);
    let mut submitted_total = 0u64;
    let mut next_expected_seq = 0u64;
    let recv_one = |stream: &mut ftbfs_serve::StreamHandle,
                    admitted: &mut VecDeque<usize>,
                    obs: &mut ClientObservation,
                    next_expected_seq: &mut u64| {
        let resp = stream
            .recv_timeout(Duration::from_secs(30))
            .expect("stream must never hang");
        assert_eq!(resp.seq, *next_expected_seq, "stream order violated");
        *next_expected_seq += 1;
        let idx = admitted.pop_front().expect("a slot per response");
        obs.answered += 1;
        match &resp.outcome {
            Ok(answer) => {
                if resp.distance() != Some(expected[idx]) {
                    obs.wrong += 1;
                }
                // The storm workload is ≤ 2 faults: always exact.
                assert!(answer.is_exact(), "workload answers must be exact");
            }
            Err(ServeError::WorkerRestarted { .. }) => obs.degraded += 1,
            Err(e) => panic!("unexpected in-stream outcome: {e}"),
        }
    };
    for (idx, request) in requests.iter().enumerate() {
        if admitted.len() == window {
            recv_one(&mut stream, &mut admitted, &mut obs, &mut next_expected_seq);
        }
        loop {
            match stream.submit(request.clone()) {
                Ok(seq) => {
                    assert_eq!(seq, submitted_total, "seq must track admitted submits");
                    submitted_total += 1;
                    admitted.push_back(idx);
                    break;
                }
                Err(SubmitError::ShardUnavailable { .. }) => {
                    // Dropped send: immediately retryable.
                    obs.submit_retries += 1;
                }
                Err(SubmitError::Overloaded { .. }) => {
                    // Backpressure: drain one response, then retry.
                    obs.submit_retries += 1;
                    if !admitted.is_empty() {
                        recv_one(&mut stream, &mut admitted, &mut obs, &mut next_expected_seq);
                    }
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
    }
    while !admitted.is_empty() {
        recv_one(&mut stream, &mut admitted, &mut obs, &mut next_expected_seq);
    }
    assert_eq!(
        obs.answered, submitted_total,
        "exactly-once: answered != admitted"
    );
    assert_eq!(obs.answered as usize, requests.len(), "request lost");
    obs
}

/// Counts the drained trace events by kind: (chaos injections, epoch
/// publishes, publish rejections, worker restarts).
fn event_counts(events: &[TimedEvent]) -> (u64, u64, u64, u64) {
    let (mut chaos, mut published, mut rejected, mut restarts) = (0u64, 0u64, 0u64, 0u64);
    for e in events {
        match e.event {
            TraceEvent::ChaosPanic { .. }
            | TraceEvent::ChaosStall { .. }
            | TraceEvent::ChaosDroppedSend { .. }
            | TraceEvent::ChaosCorruptPublish { .. } => chaos += 1,
            TraceEvent::EpochPublished { .. } => published += 1,
            TraceEvent::PublishRejected { .. } => rejected += 1,
            TraceEvent::WorkerRestarted { .. } => restarts += 1,
            // `TraceEvent` is non-exhaustive: future event kinds simply
            // don't land in any of these four buckets.
            _ => {}
        }
    }
    (chaos, published, rejected, restarts)
}

/// Silences the panic-hook noise of *injected* panics (they are caught by
/// worker supervision and answered in-stream); genuine panics still print.
fn quiet_chaos_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains(CHAOS_PANIC_MARKER));
        if !injected {
            default_hook(info);
        }
    }));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = json::out_path(&args, "BENCH_query.json");
    quiet_chaos_panics();

    // Same two-epoch setup as E11: different tie-break seeds give
    // distinguishable fingerprints with identical ≤ 2-fault answers.
    let g = if smoke {
        generators::connected_gnp(40, 0.15, 42)
    } else {
        generators::connected_gnp(120, 0.08, 42)
    };
    let frozen_with_seed = |seed: u64| {
        let w = TieBreak::new(&g, seed);
        DualFtBfsBuilder::new(&g, &w, VertexId(0))
            .build()
            .structure
            .freeze(&g)
    };
    let frozen_a = frozen_with_seed(1);
    let frozen_b = frozen_with_seed(7);
    let snap_of = |frozen: &FrozenStructure| {
        EpochSnapshot::from_bytes(frozen.save_with(SnapshotVersion::V2))
            .expect("freshly saved snapshot validates")
    };
    let (snap_a, snap_b) = (snap_of(&frozen_a), snap_of(&frozen_b));
    assert_ne!(snap_a.fingerprint(), snap_b.fingerprint());
    let structure_edges: Vec<EdgeId> = (0..frozen_a.edge_count())
        .map(|i| frozen_a.original_edge(i as u32))
        .collect();

    let requests_each = if smoke { 40_000 } else { 250_000 };
    let requests = build_requests(&g, &structure_edges, requests_each, 0xE12);
    let expected = expected_distances(&frozen_a, &requests);
    {
        // The module-docs premise, checked: both epochs answer the
        // workload identically.
        let expected_b = expected_distances(&frozen_b, &requests);
        assert_eq!(
            expected, expected_b,
            "epochs must agree on ≤ 2-fault answers"
        );
    }

    let (workers, clients, window) = (2usize, 2usize, 64usize);
    // The storm schedule: frequent-enough panics to guarantee the smoke
    // minimum (capped so respawn churn cannot dominate), occasional
    // 200 µs stalls, a light dropped-send rate, and a publish corruption
    // rate that makes both publish outcomes near-certain over the run.
    const SCHEDULE_SEED: u64 = 0xE12_C4A0;
    let schedule = ChaosConfig::new(SCHEDULE_SEED)
        .with_worker_panics(400, 24)
        .with_stalls(500, Duration::from_micros(200))
        .with_dropped_sends(1_000)
        .with_corrupt_publishes(400_000);
    let server = StreamServer::launch(
        snap_a.clone(),
        ServeConfig::new()
            .workers(workers)
            .queue_capacity(4 * window)
            .chaos(schedule),
    );
    let publisher = server.publisher();

    // -- storm phase ------------------------------------------------------
    let storm_start = Instant::now();
    let (observations, publish_outcomes) = std::thread::scope(|scope| {
        let swapper = scope.spawn(|| {
            // Keep publishing (alternating snapshots) until both outcomes
            // — corruption-rejected and successful — have occurred at
            // least the smoke minimum, then stop.
            let (mut ok, mut rejected) = (0u64, 0u64);
            let mut i = 0usize;
            while (ok < SMOKE_MIN_PUBLISHES || rejected < SMOKE_MIN_REJECTED_PUBLISHES) && i < 1_000
            {
                std::thread::sleep(Duration::from_millis(2));
                let next = if i % 2 == 0 { &snap_b } else { &snap_a };
                match publisher.publish(next.clone()) {
                    Ok(_) => ok += 1,
                    Err(ServeError::SnapshotRejected(_)) => rejected += 1,
                    Err(e) => panic!("unexpected publish outcome: {e}"),
                }
                i += 1;
            }
            (ok, rejected)
        });
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| drive_client(&server, &requests, &expected, window)))
            .collect();
        let obs: Vec<ClientObservation> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (obs, swapper.join().expect("swapper thread"))
    });
    let storm_wall = storm_start.elapsed();
    let storm_total = clients * requests.len();
    let storm_qps = storm_total as f64 / storm_wall.as_secs_f64();

    let stats = server.chaos_stats();
    let health = server.health();
    let degraded: u64 = observations.iter().map(|o| o.degraded).sum();
    let wrong: u64 = observations.iter().map(|o| o.wrong).sum();
    let submit_retries: u64 = observations.iter().map(|o| o.submit_retries).sum();

    // Scrape before the probe so the stage histograms are storm-only, and
    // drain the trace-event ring — the replay log.  Every chaos event
    // names the schedule seed and its injection index (`visit`), so a
    // failing storm is reproducible from this log alone.
    let storm_scrape = server.scrape();
    let events = server.drain_events();
    let events_dropped = server.telemetry().dropped_events();
    let (chaos_events, published_events, rejected_events, restart_events) = event_counts(&events);
    for e in &events {
        if let TraceEvent::ChaosPanic { seed, .. }
        | TraceEvent::ChaosStall { seed, .. }
        | TraceEvent::ChaosDroppedSend { seed, .. }
        | TraceEvent::ChaosCorruptPublish { seed, .. } = e.event
        {
            assert_eq!(
                seed, SCHEDULE_SEED,
                "chaos events must carry the schedule seed"
            );
        }
    }
    if events_dropped == 0 {
        assert_eq!(
            restart_events, stats.panics,
            "one WorkerRestarted event per injected panic"
        );
    }

    // -- healthy-probe phase ----------------------------------------------
    server.quiesce_chaos();
    let probe_requests = &requests[..requests.len().min(20_000)];
    let probe_expected = &expected[..probe_requests.len()];
    let probe_start = Instant::now();
    let probe_obs = drive_client(&server, probe_requests, probe_expected, window);
    let probe_qps = probe_requests.len() as f64 / probe_start.elapsed().as_secs_f64();
    assert_eq!(probe_obs.degraded, 0, "quiesced server must not degrade");
    assert_eq!(probe_obs.wrong, 0, "quiesced server answered wrongly");
    server.shutdown();

    let mut table = Table::new(
        "E12 — chaos-schedule serving (StreamServer + FaultInjector)",
        &[
            "phase", "req", "req/s", "panics", "restarts", "stalls", "drops", "pub_ok", "pub_rej",
            "degraded", "wrong",
        ],
    );
    table.row(vec![
        "storm".into(),
        storm_total.to_string(),
        format!("{storm_qps:.0}"),
        stats.panics.to_string(),
        health.worker_restarts.to_string(),
        stats.stalls.to_string(),
        stats.dropped_sends.to_string(),
        publish_outcomes.0.to_string(),
        publish_outcomes.1.to_string(),
        degraded.to_string(),
        wrong.to_string(),
    ]);
    table.row(vec![
        "probe".into(),
        probe_requests.len().to_string(),
        format!("{probe_qps:.0}"),
        "0".into(),
        "-".into(),
        "0".into(),
        "0".into(),
        "-".into(),
        "-".into(),
        "0".into(),
        "0".into(),
    ]);
    print!("{}", table.render());
    println!(
        "-- drained trace events: {} total ({chaos_events} chaos injections, \
         {published_events} publishes, {rejected_events} rejected publishes, \
         {restart_events} restarts; {events_dropped} dropped from the ring) --",
        events.len()
    );
    for e in events.iter().take(10) {
        println!("  [{:>4}] {:?}", e.index, e.event);
    }
    if events.len() > 10 {
        println!("  ... {} more", events.len() - 10);
    }
    println!();

    let section = format!(
        "{{\n    {},\n    \"storm\": {{\"requests\": {storm_total}, \"qps\": {storm_qps:.1}, \
         \"panics\": {}, \"worker_restarts\": {}, \"stalls\": {}, \"dropped_sends\": {}, \
         \"publishes_ok\": {}, \"publishes_rejected\": {}, \"degraded_responses\": {degraded}, \
         \"wrong_answers\": {wrong}, \"submit_retries\": {submit_retries}}},\n    \
         \"probe\": {{\"requests\": {}, \"qps\": {probe_qps:.1}}},\n    \
         \"stages\": {},\n    \
         \"events\": {{\"total\": {}, \"chaos_injections\": {chaos_events}, \
         \"publishes\": {published_events}, \"rejected_publishes\": {rejected_events}, \
         \"worker_restarts\": {restart_events}, \"dropped\": {events_dropped}, \
         \"schedule_seed\": {SCHEDULE_SEED}}},\n    \
         \"floors\": {{\"qps_floor\": {SMOKE_CHAOS_QPS_FLOOR:.1}, \
         \"min_panics\": {SMOKE_MIN_PANICS}, \"min_publishes\": {SMOKE_MIN_PUBLISHES}, \
         \"min_rejected_publishes\": {SMOKE_MIN_REJECTED_PUBLISHES}}}\n  }}",
        json::provenance(if smoke { "smoke" } else { "full" }),
        stats.panics,
        health.worker_restarts,
        stats.stalls,
        stats.dropped_sends,
        health.publishes,
        health.rejected_publishes,
        probe_requests.len(),
        json::histogram_quantiles(
            &storm_scrape,
            &[
                names::STAGE_SUBMIT_NS,
                names::STAGE_QUEUE_WAIT_NS,
                names::STAGE_EXECUTE_NS,
                names::STAGE_REASSEMBLY_NS,
            ],
        ),
        events.len(),
    );
    let spliced = json::splice_section(
        std::fs::read_to_string(&out_path).ok(),
        "chaos_serve",
        "chaos_serve",
        &section,
    );
    std::fs::write(&out_path, &spliced).expect("write chaos_serve JSON");
    println!("wrote chaos_serve section to {out_path}");

    // -- gates -------------------------------------------------------------
    // Correctness gates hold in every mode; the throughput floor and fault
    // minimums are enforced in smoke (the CI configuration they were
    // calibrated for).
    assert_eq!(wrong, 0, "chaos run produced wrong answers");
    assert_eq!(
        health.worker_restarts, stats.panics,
        "every injected panic must be absorbed by exactly one restart"
    );
    assert_eq!(
        degraded, stats.panics,
        "every injected panic answers exactly its in-flight request"
    );
    if smoke {
        let mut failed = false;
        if stats.panics < SMOKE_MIN_PANICS {
            eprintln!(
                "SMOKE CHAOS VIOLATION: only {} injected panics < {SMOKE_MIN_PANICS}",
                stats.panics
            );
            failed = true;
        }
        if publish_outcomes.0 < SMOKE_MIN_PUBLISHES {
            eprintln!(
                "SMOKE CHAOS VIOLATION: only {} successful publishes < {SMOKE_MIN_PUBLISHES}",
                publish_outcomes.0
            );
            failed = true;
        }
        if publish_outcomes.1 < SMOKE_MIN_REJECTED_PUBLISHES {
            eprintln!(
                "SMOKE CHAOS VIOLATION: only {} rejected publishes < \
                 {SMOKE_MIN_REJECTED_PUBLISHES}",
                publish_outcomes.1
            );
            failed = true;
        }
        if storm_qps < SMOKE_CHAOS_QPS_FLOOR {
            eprintln!(
                "SMOKE FLOOR VIOLATION: storm {storm_qps:.0} req/s < floor \
                 {SMOKE_CHAOS_QPS_FLOOR:.0}"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "smoke chaos ok: {} panics absorbed, {}/{} publishes ok/rejected, \
             storm {storm_qps:.0} req/s >= {SMOKE_CHAOS_QPS_FLOOR:.0}, probe healthy \
             at {probe_qps:.0} req/s",
            stats.panics, publish_outcomes.0, publish_outcomes.1
        );
    }
}
