//! `serve-hot`: the paper's H over `connected_gnp(n, 8/n)`, built under
//! two tie-break seeds (two epochs), served through one closed-loop
//! stream with the E10/E11 fault mix; an epoch is published every
//! [`PUBLISH_EVERY`] requests.  Answers come from the tree or the fault
//! cache, so the serve plane is most of the latency.

use crate::common::{
    corpus_round_trip, cpu_ticks, elapsed_ns, ground_truth, replay_engine, secs, splitmix64,
    steal_line, Client, ClientRun, Load, RequestTrace, Stop,
};
use crate::layers::{
    client_metrics, overhead_layer, serve_layers, setup_layers, setup_metric, span_ms,
    ServeObservation,
};
use crate::report::Report;
use crate::stats::{summarize, Ratio};
use crate::trace::Tracer;
use crate::Config;
use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_graph::{generators, EdgeId, FaultSpec, Graph, TieBreak, VertexId};
use ftbfs_oracle::{Freeze, SnapshotVersion};
use ftbfs_serve::{EpochSnapshot, ServeConfig, ServeRequest, StreamServer};
use std::time::{Duration, Instant};

/// Vertices of the graph (the `build` workload's family and size).
const N: usize = 1_000;
/// The source vertex.
const SOURCE: VertexId = VertexId(0);
/// Length of the request sequence, served cyclically.
const REQUESTS: usize = 1 << 18;
/// Requests between two epoch publishes (counted, not timed).
const PUBLISH_EVERY: u64 = 50_000;
/// Requests served before timing starts.
const WARMUP: u64 = 50_000;
/// Client latency and rate are summarised per window of this length.
const SUMMARY_WINDOW: Duration = Duration::from_millis(100);
/// Record spans for every this-many-th request in the traced run.
const TRACE_STRIDE: u64 = 512;
/// Interleaved untraced/traced block pairs of the overhead A/B.
const AB_PAIRS: usize = 8;
/// Length of one A/B block.
const AB_BLOCK: Duration = Duration::from_millis(500);

struct Setup {
    graph: Graph,
    snapshots: [EpochSnapshot; 2],
    h_edges: usize,
    requests: Vec<ServeRequest>,
    expected: Vec<Option<u32>>,
    server: StreamServer,
    client: Client,
}

/// Active fault pairs at most.  A pair and its first edge are two cache
/// keys, so 6 pairs stay inside a 16-entry fault-cache partition.
const POOL_MAX: usize = 6;
/// Active fault pairs at least.
const POOL_MIN: usize = 4;
/// A new pair enters the pool with probability 1 / `CHURN` per request.
const CHURN: u64 = 512;

/// The E10/E11 mix: 25% fault-free, 25% one fault, 50% two faults,
/// faults drawn from a small, slowly churning pool of active pairs of
/// H's edges, small enough that the engines' fault caches hold it.
fn requests(g: &Graph, h_edges: &[EdgeId], seed: u64) -> Vec<ServeRequest> {
    let mut state = seed ^ 0x5E4E;
    let mut active: Vec<(EdgeId, EdgeId)> = Vec::new();
    let mut out = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        if active.len() < POOL_MIN || splitmix64(&mut state) % CHURN == 0 {
            let a = h_edges[splitmix64(&mut state) as usize % h_edges.len()];
            let b = h_edges[splitmix64(&mut state) as usize % h_edges.len()];
            active.push((a, b));
            if active.len() > POOL_MAX {
                active.remove(0);
            }
        }
        let target = VertexId((splitmix64(&mut state) as usize % g.vertex_count()) as u32);
        let (a, b) = active[splitmix64(&mut state) as usize % active.len()];
        out.push(match i % 4 {
            0 => ServeRequest::distance(target, FaultSpec::None),
            1 => ServeRequest::distance(target, a),
            _ => ServeRequest::distance(target, (a, b)),
        });
    }
    out
}

/// One set-up; returns it with its duration, ground truth excluded.
fn setup(cfg: &Config, tracer: &mut Tracer) -> Result<(Setup, f64), String> {
    let t0 = Instant::now();
    let root = tracer.open("setup", 0, None);
    let span = tracer.open("graph.generate", 0, Some(root));
    let generated = generators::connected_gnp(N, 8.0 / N as f64, cfg.seed);
    tracer.close(span);
    let graph = corpus_round_trip(&generated, "serve-hot", tracer, root)?;
    let mut epochs = Vec::new();
    let mut edges_a = Vec::new();
    for tie in [2 * cfg.seed + 1, 2 * cfg.seed + 2] {
        let w = TieBreak::new(&graph, tie);
        let span = tracer.open("core.build_2t", 0, Some(root));
        let h = DualFtBfsBuilder::new(&graph, &w, SOURCE)
            .threads(2)
            .build()
            .structure;
        tracer.close(span);
        let span = tracer.open("oracle.freeze", 0, Some(root));
        let frozen = h.freeze(&graph);
        tracer.close(span);
        if edges_a.is_empty() {
            edges_a = (0..frozen.edge_count())
                .map(|i| frozen.original_edge(i as u32))
                .collect();
        }
        let span = tracer.open("oracle.encode", 0, Some(root));
        let bytes = frozen.save_with(SnapshotVersion::V2);
        tracer.close(span);
        let span = tracer.open("oracle.open", 0, Some(root));
        let snapshot = EpochSnapshot::from_bytes(bytes).map_err(|e| format!("opening H: {e}"))?;
        tracer.close(span);
        epochs.push(snapshot);
    }
    let [a, b]: [EpochSnapshot; 2] = epochs.try_into().map_err(|_| "two epochs")?;
    if a.fingerprint() == b.fingerprint() {
        return Err("the two tie-break seeds gave the same structure".into());
    }
    let span = tracer.open("bench.requests", 0, Some(root));
    let requests = requests(&graph, &edges_a, cfg.seed);
    tracer.close(span);

    let truth_start = Instant::now();
    let expected = ground_truth(&graph, SOURCE, &requests);
    let truth_ns = elapsed_ns(truth_start);

    let span = tracer.open("serve.launch", 0, Some(root));
    let server = StreamServer::launch(a.clone(), ServeConfig::new());
    let mut client = Client::new(&server, SUMMARY_WINDOW);
    tracer.close(span);
    let snapshots = [a, b];
    let span = tracer.open("bench.warmup", 0, Some(root));
    let load = Load {
        requests: &requests,
        expected: &expected,
        publish: Some((PUBLISH_EVERY, &snapshots)),
    };
    let warm = client.run(&server, &load, Stop::Count(WARMUP), None);
    tracer.close(span);
    tracer.close(root);
    if warm.wrong > 0 {
        return Err(format!("{} wrong answers during warm-up", warm.wrong));
    }
    let setup = Setup {
        graph,
        h_edges: edges_a.len(),
        snapshots,
        requests,
        expected,
        server,
        client,
    };
    Ok((setup, secs(elapsed_ns(t0) - truth_ns)))
}

fn epoch_split(run: &ClientRun, first: u64) -> Ratio {
    let a = run
        .epochs
        .iter()
        .filter(|(fp, _)| *fp == first)
        .map(|(_, c)| *c)
        .sum::<u64>();
    Ratio::new(a as f64, run.completed as f64)
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..crate::SETUP_REPS {
        // One set-up alive at a time, so peak memory is one set-up's.
        if let Some(old) = kept.take() {
            drop(old.client);
            old.server.shutdown();
        }
        let (s, took) = setup(cfg, tracer)?;
        setup_s.push(took);
        kept = Some(s);
    }
    let mut s = kept.expect("at least one set-up");
    let load = Load {
        requests: &s.requests,
        expected: &s.expected,
        publish: Some((PUBLISH_EVERY, &s.snapshots)),
    };

    let before = s.server.scrape();
    let ticks = cpu_ticks();
    let timed = tracer.open("bench.timed", 0, None);
    let trace = cfg.traced.then_some(RequestTrace {
        tracer: &mut *tracer,
        parent: timed,
        stride: TRACE_STRIDE,
    });
    let run = s.client.run(
        &s.server,
        &load,
        Stop::For(Duration::from_secs(cfg.seconds)),
        trace,
    );
    tracer.close(timed);
    report.line(steal_line(ticks, cpu_ticks()));
    let after = s.server.scrape();
    report.checked(run.completed, run.wrong);

    setup_metric(report, &setup_s);
    client_metrics(report, &run, SUMMARY_WINDOW)?;
    report.e2e(
        "h_edges",
        s.h_edges as f64,
        "edges",
        format!(
            "|E(H)| of the first epoch, n = {N}, m = {}",
            s.graph.edge_count()
        ),
    );
    let split = epoch_split(&run, s.snapshots[0].fingerprint());
    report.line(format!(
        "graph: connected_gnp(n = {N}, p = 8/n, seed = {}), m = {}; {} publishes; epoch split {split}",
        cfg.seed,
        s.graph.edge_count(),
        run.publish_ns.len()
    ));

    if cfg.traced {
        setup_layers(report, tracer, s.snapshots[0].bytes().len());
        let replay = replay_engine(&s.snapshots[0], &load, 200_000);
        report.checked(replay.calls(), replay.wrong);
        serve_layers(
            report,
            &ServeObservation {
                before: &before,
                after: &after,
                client: &run,
                replay: &replay,
            },
        );
        let pairs = s.client.interleaved_ab(
            &s.server,
            &load,
            AB_PAIRS,
            AB_BLOCK,
            tracer,
            TRACE_STRIDE,
            report,
        );
        overhead_layer(report, &pairs, "0.5 s serving");

        let mut publish = run.publish_ns.clone();
        match summarize(&mut publish) {
            Some(p) => {
                report.extra(
                    "serve.publish_us_p50",
                    p.p50 as f64 / 1e3,
                    "us",
                    format!("n = {}", p.n),
                );
                report.extra(
                    "serve.publish_us_tail",
                    p.tail as f64 / 1e3,
                    "us",
                    format!("p{} of n = {}", p.tail_p, p.n),
                );
            }
            None => report.line(format!(
                "serve.publish_us: only {} publishes, too few for percentiles",
                publish.len()
            )),
        }
        report.extra(
            "serve.epoch_split",
            split.value(),
            "ratio",
            format!("answers from the first epoch / answers = {split}"),
        );
        let (build_ms, n) = span_ms(tracer, "core.build_2t");
        report.extra(
            "core.build_2t_ms",
            build_ms,
            "ms",
            format!("median of {n} set-up builds, 2 threads"),
        );
    }
    drop(s.client);
    s.server.shutdown();
    Ok(())
}
