//! End-to-end tests of the sharded serving front-end (`ftbfs-serve`): the
//! stream contract under concurrent load, epoch swaps that drop nothing,
//! and the shard router's exactly-once / input-order guarantees.
//!
//! The load-bearing correctness argument: both epochs used here are
//! dual-failure-resilient structures over the *same* graph, so for every
//! request with `|F| ≤ 2` the exact answer is the same whichever epoch
//! serves it — `dist(s, v, H ∖ F) = dist(s, v, G ∖ F)` by the paper's
//! resilience guarantee.  That lets a client racing an epoch swap verify
//! every response against ground truth without knowing which side of the
//! swap answered; the epoch fingerprint on each response then only has to
//! be *one of the two published fingerprints*, and post-publish submits
//! must carry the new one.

use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_graph::bytes::fnv1a64_words;
use ftbfs_graph::{bfs, generators, EdgeId, FaultSpec, Graph, GraphView, TieBreak, VertexId};
use ftbfs_oracle::{
    snapshot_layout, Freeze, FrozenStructure, Guarantee, QueryEngine, QueryError, SnapshotError,
};
use ftbfs_serve::{
    EpochSnapshot, ServeConfig, ServeError, ServeRequest, ServeResponse, StreamServer,
};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Ground truth `dist(s, ·, G ∖ F)` for all vertices.
fn ground_truth(g: &Graph, s: VertexId, spec: &FaultSpec) -> Vec<Option<u32>> {
    let view = GraphView::new(g).without_faults(spec);
    let res = bfs(&view, s);
    g.vertices().map(|v| res.distance(v)).collect()
}

fn frozen_for(g: &Graph, seed: u64) -> FrozenStructure {
    let w = TieBreak::new(g, seed);
    DualFtBfsBuilder::new(g, &w, VertexId(0))
        .build()
        .structure
        .freeze(g)
}

fn epoch_snapshot(frozen: &FrozenStructure) -> EpochSnapshot {
    EpochSnapshot::from_bytes(frozen.save()).expect("freshly saved v2 snapshot validates")
}

/// A deterministic mixed workload of ≤ 2-fault requests over `g`'s edges.
fn mixed_requests(g: &Graph, count: usize) -> Vec<ServeRequest> {
    let edges: Vec<EdgeId> = g.edges().collect();
    let m = edges.len();
    (0..count)
        .map(|i| {
            let target = VertexId((i * 7 % g.vertex_count()) as u32);
            match i % 4 {
                0 => ServeRequest::distance(target, FaultSpec::None),
                1 => ServeRequest::distance(target, edges[i % m]),
                _ => ServeRequest::distance(target, (edges[i % m], edges[(i * 5 + 3) % m])),
            }
        })
        .collect()
}

/// The tentpole acceptance test: concurrent clients stream mixed requests
/// while a publisher swaps epochs back and forth mid-run.  Every request
/// is answered exactly once, in submission order, correctly per ground
/// truth, from one of the two published epochs — and requests submitted
/// after the final publish are all served by the final epoch.
#[test]
fn epoch_swap_under_concurrent_load_drops_nothing() {
    let g = generators::connected_gnp(40, 0.15, 21);
    let frozen_a = frozen_for(&g, 1);
    let frozen_b = frozen_for(&g, 8);
    let (fp_a, fp_b) = (frozen_a.fingerprint(), frozen_b.fingerprint());
    assert_ne!(fp_a, fp_b, "the two epochs must be distinguishable");
    let (snap_a, snap_b) = (epoch_snapshot(&frozen_a), epoch_snapshot(&frozen_b));

    // Ground truth per fault spec is epoch-independent (see module docs);
    // precompute it for every distinct spec in the workload.
    let requests = mixed_requests(&g, 3_000);
    let expected_for = |spec: &FaultSpec| ground_truth(&g, VertexId(0), spec);

    let server = StreamServer::launch(snap_a.clone(), ServeConfig::new().workers(3));
    let publisher = server.publisher();
    let swaps = 12;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..swaps {
                std::thread::sleep(Duration::from_millis(1));
                let next = if i % 2 == 0 { &snap_b } else { &snap_a };
                publisher.publish(next.clone()).expect("publish succeeds");
            }
        });
        for _client in 0..2 {
            scope.spawn(|| {
                let mut stream = server.open_stream();
                for r in &requests {
                    stream.submit(r.clone()).expect("server is live");
                }
                let responses = stream.drain().expect("every response arrives");
                assert_eq!(responses.len(), requests.len(), "a request was dropped");
                for (i, (req, resp)) in requests.iter().zip(&responses).enumerate() {
                    assert_eq!(resp.seq, i as u64, "submission order violated");
                    assert!(
                        resp.epoch == fp_a || resp.epoch == fp_b,
                        "answer from unpublished epoch {:#x}",
                        resp.epoch
                    );
                    let target = match req.target {
                        ftbfs_serve::ServeTarget::One(t) => t,
                        _ => unreachable!("workload is single-target"),
                    };
                    let expected = expected_for(&req.faults)[target.index()];
                    assert_eq!(
                        resp.distance(),
                        Some(expected),
                        "request {i} wrong under swap (spec {:?})",
                        req.faults
                    );
                }
            });
        }
    });

    // Steady state after the swap storm: whatever epoch is current now
    // answers everything submitted from here on.
    let settled = server.fingerprint();
    assert!(settled == fp_a || settled == fp_b);
    let mut stream = server.open_stream();
    for r in requests.iter().take(200) {
        stream.submit(r.clone()).expect("server is live");
    }
    for resp in stream.drain().expect("responses arrive") {
        assert_eq!(
            resp.epoch, settled,
            "post-publish submit served by old epoch"
        );
    }
    drop(stream);
    server.shutdown();
}

/// Requests submitted after `publish` returns are never answered by the
/// old epoch — checked tightly: submit-publish-submit interleavings on a
/// single thread, many times.
#[test]
fn publish_is_a_barrier_for_subsequent_submits() {
    let g = generators::connected_gnp(24, 0.2, 5);
    let frozen_a = frozen_for(&g, 1);
    let frozen_b = frozen_for(&g, 9);
    let (snap_a, snap_b) = (epoch_snapshot(&frozen_a), epoch_snapshot(&frozen_b));
    let fps = [frozen_a.fingerprint(), frozen_b.fingerprint()];
    assert_ne!(fps[0], fps[1]);

    let server = StreamServer::launch(snap_a.clone(), ServeConfig::new().workers(2));
    let mut stream = server.open_stream();
    for round in 0..50 {
        let next_fp = fps[(round + 1) % 2];
        let next = if (round + 1) % 2 == 1 {
            snap_b.clone()
        } else {
            snap_a.clone()
        };
        server.publish(next).expect("publish succeeds");
        stream
            .submit(ServeRequest::distance(VertexId(3), FaultSpec::None))
            .expect("server is live");
        let resp = stream.recv().expect("response arrives");
        assert_eq!(
            resp.epoch, next_fp,
            "round {round}: submit after publish saw the old epoch"
        );
    }
    drop(stream);
    server.shutdown();
}

/// `data` stamped with `fingerprint` and its frame checksum recomputed
/// (frame layout: the `ftbfs_oracle::snapshot` module docs): every
/// checksum passes and only the fingerprint disagrees with the base, as
/// from a writer that stamped the wrong structure's fingerprint.
fn restamped(data: &[u8], fingerprint: u64) -> Vec<u8> {
    let layout = snapshot_layout(data).expect("valid snapshot");
    let frame = layout.base.end + 8;
    let frame_end = frame + 12 + 28 * layout.sections.len();
    let mut out = data.to_vec();
    out[frame..frame + 8].copy_from_slice(&fingerprint.to_le_bytes());
    let check = fnv1a64_words(&out[frame..frame_end]);
    out[frame_end..frame_end + 8].copy_from_slice(&check.to_le_bytes());
    out
}

/// A snapshot stamped with another structure's fingerprint never reaches
/// the workers.  Installed, it would be served under the old epoch's tag
/// by engines that keep the old epoch's cache.  A = `cycle(8)` with
/// H = G answers `dist(0, 1 | {e01}) = 7`; B = the cycle minus {7, 0},
/// stamped with A's fingerprint, would leave 1 unreachable.
#[test]
fn stale_fingerprint_snapshot_is_rejected_and_the_old_epoch_keeps_serving() {
    let g = generators::cycle(8);
    let edge = |a, b| g.edge_between(VertexId(a), VertexId(b)).unwrap();
    let (e01, e70) = (edge(0, 1), edge(7, 0));
    let frozen_a = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, g.edges());
    let b_edges = g.edges().filter(|&e| e != e70);
    let frozen_b = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, b_edges);
    let forged = restamped(&frozen_b.save(), frozen_a.fingerprint());
    assert!(snapshot_layout(&forged).is_ok(), "every checksum is valid");

    let snap_a = epoch_snapshot(&frozen_a);
    let server = StreamServer::launch(snap_a.clone(), ServeConfig::new().workers(1));
    let mut stream = server.open_stream();
    let mut ask = |target: u32| {
        stream
            .submit(ServeRequest::distance(VertexId(target), e01))
            .expect("server is live");
        let resp = stream.recv().expect("response arrives");
        assert_eq!(resp.epoch, frozen_a.fingerprint(), "served from A");
        assert_eq!(resp.guarantee(), Some(Guarantee::Exact));
        resp.distance().expect("a distance answer")
    };
    assert_eq!(ask(1), Some(7));

    match EpochSnapshot::from_bytes(forged).unwrap_err() {
        SnapshotError::Corrupt(why) => assert!(why.contains("fingerprint"), "{why}"),
        other => panic!("expected Corrupt(fingerprint...), got {other:?}"),
    }
    // Nothing was installed: A still serves, from its cache and fresh.
    assert_eq!(ask(1), Some(7));
    assert_eq!(ask(7), Some(1), "A's edge {{7, 0}} is still served");
    drop(stream);
    assert_eq!(server.health().publishes, 0);
    server.shutdown();
    assert_eq!(
        snap_a.clone().bytes().as_ptr(),
        snap_a.bytes().as_ptr(),
        "a clone shares its bytes"
    );
}

/// In-stream error semantics survive routing: bad requests are answered
/// (not dropped) with typed errors in their submission slot, and
/// `ServeError` converts/compares as the one error surface.
#[test]
fn stream_reports_typed_errors_in_order() {
    let g = generators::cycle(10);
    let frozen = frozen_for(&g, 2);
    let server = StreamServer::launch(epoch_snapshot(&frozen), ServeConfig::new().workers(2));
    let mut stream = server.open_stream();

    stream
        .submit(ServeRequest::distance(VertexId(5), FaultSpec::None))
        .unwrap();
    stream
        .submit(ServeRequest::distance(VertexId(10), FaultSpec::None))
        .unwrap();
    stream
        .submit(ServeRequest::distance_from(
            VertexId(4),
            VertexId(5),
            FaultSpec::None,
        ))
        .unwrap();
    stream
        .submit(
            ServeRequest::distance(VertexId(5), FaultSpec::None)
                .with_deadline(Instant::now() - Duration::from_secs(1)),
        )
        .unwrap();

    let responses = stream.drain().unwrap();
    assert_eq!(responses[0].distance(), Some(Some(5)));
    assert_eq!(
        responses[1].outcome,
        Err(ServeError::Query(QueryError::VertexOutOfRange {
            vertex: VertexId(10),
            bound: 10
        }))
    );
    // A single-source structure serves any source; VertexId(4) is valid.
    assert!(responses[2].outcome.is_ok());
    assert_eq!(responses[3].outcome, Err(ServeError::DeadlineExceeded));

    // The From<QueryError> boundary conversion is what the worker used.
    let q = QueryError::VertexOutOfRange {
        vertex: VertexId(10),
        bound: 10,
    };
    assert_eq!(ServeError::from(q.clone()), ServeError::Query(q));

    drop(stream);
    server.shutdown();
}

/// The batch adapter and a plain engine loop agree — the
/// behaviour-preservation contract that let the deprecated
/// `ftbfs_oracle::ThroughputHarness` be removed.
#[test]
fn harness_adapter_matches_direct_engine() {
    let g = generators::connected_gnp(30, 0.16, 3);
    let frozen = frozen_for(&g, 3);
    let edges: Vec<EdgeId> = g.edges().collect();
    let queries: Vec<ftbfs_oracle::Query> = (0..300)
        .map(|i| {
            let t = VertexId((i % g.vertex_count()) as u32);
            match i % 3 {
                0 => ftbfs_oracle::Query::fault_free(t),
                1 => ftbfs_oracle::Query::new(t, edges[i % edges.len()]),
                _ => ftbfs_oracle::Query::new(
                    t,
                    (edges[i % edges.len()], edges[(i * 11 + 2) % edges.len()]),
                ),
            }
        })
        .collect();
    let report = ftbfs_serve::ThroughputHarness::new(3).run(&frozen, &queries);
    assert_eq!(report.distances.len(), queries.len());
    let mut engine = QueryEngine::new();
    for (q, d) in queries.iter().zip(&report.distances) {
        assert_eq!(
            engine
                .try_distance(&frozen, q.target, &q.faults)
                .unwrap()
                .into_value(),
            *d
        );
    }
}

/// Deterministic fault-injection coverage (`--features chaos`): the exact
/// shape of degraded service, pinned down without randomness.  The
/// randomised schedule sweep lives in `serve_chaos.rs`.
#[cfg(feature = "chaos")]
mod chaos_gated {
    use super::*;
    use ftbfs_serve::{ChaosConfig, EpochCell};
    use std::sync::Arc;

    /// A worker that panics on its first three pickups answers exactly
    /// those three requests with `WorkerRestarted` carrying the
    /// per-shard generations 1, 2, 3 — and serves the rest correctly
    /// from the same (thrice-respawned) shard.
    #[test]
    fn restart_generations_count_per_shard_and_in_flight_is_answered() {
        let g = generators::connected_gnp(20, 0.2, 11);
        let frozen = frozen_for(&g, 11);
        // Rate 1_000_000 ⇒ every pickup fires until the cap of 3.
        let schedule = ChaosConfig::new(99).with_worker_panics(1_000_000, 3);
        let server = StreamServer::launch(
            epoch_snapshot(&frozen),
            ServeConfig::new().workers(1).chaos(schedule),
        );
        let mut stream = server.open_stream();
        for r in mixed_requests(&g, 6) {
            stream.submit(r).expect("server is live");
        }
        let responses = stream.drain().expect("every response arrives");
        assert_eq!(responses.len(), 6, "a request was dropped");
        for (i, resp) in responses.iter().take(3).enumerate() {
            assert_eq!(
                resp.outcome,
                Err(ServeError::WorkerRestarted {
                    generation: i as u64 + 1
                }),
                "panicked pickup {i} must carry its restart generation"
            );
        }
        let mut engine = QueryEngine::new();
        for (r, resp) in mixed_requests(&g, 6).iter().zip(&responses).skip(3) {
            let t = match r.target {
                ftbfs_serve::ServeTarget::One(t) => t,
                _ => unreachable!(),
            };
            let expected = engine
                .try_distance(&frozen, t, &r.faults)
                .unwrap()
                .into_value();
            assert_eq!(resp.distance(), Some(expected), "post-restart answer wrong");
        }
        assert_eq!(server.health().worker_restarts, 3);
        assert_eq!(server.chaos_stats().panics, 3);
        drop(stream);
        server.shutdown();
    }

    /// Lock poisoning is survivable end-to-end: a cell whose slot and
    /// publish locks were all poisoned by panicking holders still loads
    /// snapshots and accepts publishes (the `into_inner` recovery path),
    /// so a poisoned cell can never wedge the serving plane.
    #[test]
    fn poisoned_epoch_cell_still_loads_and_publishes() {
        let g = generators::connected_gnp(20, 0.2, 13);
        let frozen_a = frozen_for(&g, 13);
        let frozen_b = frozen_for(&g, 17);
        let cell = Arc::new(EpochCell::new(epoch_snapshot(&frozen_a)));
        cell.poison_locks();

        let (generation, snap) = cell.load();
        assert_eq!(snap.fingerprint(), frozen_a.fingerprint());
        let published = cell.publish(epoch_snapshot(&frozen_b));
        assert!(published > generation, "publish must advance the epoch");
        let (_, snap) = cell.load();
        assert_eq!(
            snap.fingerprint(),
            frozen_b.fingerprint(),
            "post-poison publish must be visible"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    /// Router property: for any worker count, client count and workload
    /// size, every request is answered exactly once, responses arrive in
    /// submission order, and every answer matches a direct engine run.
    #[test]
    fn router_answers_exactly_once_in_order(
        n in 12usize..30,
        seed in 0u64..200,
        workers in 1usize..5,
        count in 1usize..120,
        clients in 1usize..3,
    ) {
        let g = generators::connected_gnp(n, 0.18, seed);
        let frozen = frozen_for(&g, seed);
        let requests = mixed_requests(&g, count);
        let mut engine = QueryEngine::new();
        let expected: Vec<Option<u32>> = requests
            .iter()
            .map(|r| {
                let t = match r.target {
                    ftbfs_serve::ServeTarget::One(t) => t,
                    _ => unreachable!(),
                };
                engine.try_distance(&frozen, t, &r.faults).unwrap().into_value()
            })
            .collect();

        let server = StreamServer::launch(
            epoch_snapshot(&frozen),
            ServeConfig::new().workers(workers),
        );
        let all: Vec<Vec<ServeResponse>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(|| {
                        let mut stream = server.open_stream();
                        for r in &requests {
                            stream.submit(r.clone()).expect("server is live");
                        }
                        stream.drain().expect("all responses arrive")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client")).collect()
        });
        for responses in &all {
            prop_assert_eq!(responses.len(), requests.len());
            for (i, resp) in responses.iter().enumerate() {
                prop_assert_eq!(resp.seq, i as u64);
                prop_assert_eq!(resp.distance(), Some(expected[i]), "request {}", i);
            }
        }
        server.shutdown();
    }
}
