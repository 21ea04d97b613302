//! Property tests of the serving front-end under *randomised chaos
//! schedules* (`--features chaos`): for any combination of injected
//! worker-panic, stall and dropped-send rates across any worker/client
//! topology, the stream contract must hold unconditionally —
//!
//! * **exactly-once** — every admitted request gets exactly one response;
//! * **in order** — responses arrive in submission order per stream;
//! * **never hang** — a `recv_timeout` guard bounds every receive, so a
//!   wedged stream fails the test instead of deadlocking it;
//! * **degraded, not wrong** — every response is either the ground-truth
//!   answer or the typed `WorkerRestarted` degradation, never silent
//!   corruption;
//! * **recovery** — after `quiesce()`, a clean probe batch is answered
//!   perfectly by the same (restarted-many-times) server.
//!
//! The whole file is gated on the `chaos` feature: plain `cargo test`
//! compiles none of it, matching the production builds that compile none
//! of the injection seam.
#![cfg(feature = "chaos")]

use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_graph::{generators, EdgeId, FaultSpec, Graph, TieBreak, VertexId};
use ftbfs_oracle::{Freeze, FrozenStructure, QueryEngine};
use ftbfs_serve::{
    ChaosConfig, EpochSnapshot, ServeConfig, ServeError, ServeRequest, StreamServer, SubmitError,
};
use proptest::prelude::*;
use std::time::Duration;

/// Bound on any single receive: far beyond the worst honest stall
/// schedule, so the only way to hit it is a genuinely wedged stream.
const NEVER_HANG: Duration = Duration::from_secs(20);

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

/// Drives one full client pass under chaos: submit with typed-rejection
/// retries, receive under the never-hang guard, check order and
/// content.  Returns `(answered, degraded)`.
fn drive_checked(
    server: &StreamServer,
    requests: &[ServeRequest],
    expected: &[Option<u32>],
) -> (u64, u64) {
    let mut stream = server.open_stream();
    let (mut answered, mut degraded) = (0u64, 0u64);
    let mut admitted = 0u64;
    for r in requests {
        loop {
            match stream.submit(r.clone()) {
                Ok(seq) => {
                    assert_eq!(seq, admitted, "rejected submits must not consume seqs");
                    admitted += 1;
                    break;
                }
                // Dropped sends and backpressure are retryable by contract.
                Err(SubmitError::ShardUnavailable { .. } | SubmitError::Overloaded { .. }) => {}
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
    }
    for (i, exp) in expected.iter().enumerate().take(admitted as usize) {
        let resp = stream
            .recv_timeout(NEVER_HANG)
            .expect("stream must never hang");
        assert_eq!(resp.seq, i as u64, "submission order violated");
        answered += 1;
        match &resp.outcome {
            Ok(_) => assert_eq!(
                resp.distance(),
                Some(*exp),
                "request {i} answered wrongly under chaos"
            ),
            Err(ServeError::WorkerRestarted { generation }) => {
                assert!(*generation > 0, "restart generations start at 1");
                degraded += 1;
            }
            Err(e) => panic!("unexpected in-stream outcome: {e}"),
        }
    }
    assert_eq!(answered, admitted, "exactly-once violated");
    assert_eq!(stream.in_flight(), 0, "stream left residue");
    (answered, degraded)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// The chaos-schedule property: any panic/stall/drop schedule over
    /// any worker/client topology preserves exactly-once, in-order,
    /// never-hang and right-or-typed-degraded — and the server recovers
    /// to perfect service once the schedule is quiesced.
    #[test]
    fn any_chaos_schedule_preserves_the_stream_contract(
        seed in 0u64..1_000,
        graph_seed in 0u64..100,
        workers in 1usize..4,
        clients in 1usize..3,
        count in 30usize..150,
        panic_rate in 0u32..60_000,
        max_panics in 0u64..6,
        stall_rate in 0u32..20_000,
        drop_rate in 0u32..30_000,
    ) {
        let g = generators::connected_gnp(20, 0.2, graph_seed);
        let frozen = frozen_for(&g, graph_seed);
        let requests = mixed_requests(&g, count);
        let mut engine = QueryEngine::new();
        let expected: Vec<Option<u32>> = requests
            .iter()
            .map(|r| {
                let t = match r.target {
                    ftbfs_serve::ServeTarget::One(t) => t,
                    _ => unreachable!("workload is single-target"),
                };
                engine.try_distance(&frozen, t, &r.faults).unwrap().into_value()
            })
            .collect();

        let schedule = ChaosConfig::new(seed)
            .with_worker_panics(panic_rate, max_panics)
            .with_stalls(stall_rate, Duration::from_micros(50))
            .with_dropped_sends(drop_rate);
        let server = StreamServer::launch(
            epoch_snapshot(&frozen),
            ServeConfig::new().workers(workers).chaos(schedule),
        );

        // Storm: concurrent clients through the live schedule.
        let per_client: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| scope.spawn(|| drive_checked(&server, &requests, &expected)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("client")).collect()
        });
        for &(answered, _) in &per_client {
            prop_assert_eq!(answered as usize, requests.len(), "request lost");
        }
        let stats = server.chaos_stats();
        let health = server.health();
        prop_assert!(stats.panics <= max_panics, "panic cap not honoured");
        prop_assert_eq!(
            health.worker_restarts, stats.panics,
            "absorbed panics != supervised restarts"
        );
        let degraded: u64 = per_client.iter().map(|&(_, d)| d).sum();
        prop_assert_eq!(
            degraded, stats.panics,
            "each injected panic degrades exactly its in-flight request"
        );

        // Recovery: quiesce the schedule; the same server now serves a
        // clean batch perfectly.
        server.quiesce_chaos();
        let probe = requests.len().min(40);
        let (answered, degraded) = drive_checked(&server, &requests[..probe], &expected[..probe]);
        prop_assert_eq!(answered as usize, probe);
        prop_assert_eq!(degraded, 0, "quiesced server still degrading");
        prop_assert_eq!(server.chaos_stats().panics, stats.panics, "chaos after quiesce");
        server.shutdown();
    }
}
