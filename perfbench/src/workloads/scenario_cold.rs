//! `scenario-cold`: the E13 workload.  A road-like 72×72 lattice with 400
//! shortcuts (n = 5,184) goes through both corpus formats, `H = G` is
//! frozen at resilience 2 (no construction runs), and the four scenario
//! suites are sent as source-less requests through one closed-loop
//! stream.  48-spec suites cycle through a per-partition fault cache of
//! 16, so the engine's search path dominates.

use crate::common::{
    corpus_round_trip, cpu_ticks, elapsed_ns, ground_truth, replay_engine, secs, splitmix64,
    steal_line, Client, Load, RequestTrace, Stop,
};
use crate::layers::{
    client_metrics, overhead_layer, serve_layers, setup_layers, setup_metric, ServeObservation,
};
use crate::report::Report;
use crate::trace::Tracer;
use crate::Config;
use ftbfs_corpus::{
    bridge_adversarial, correlated_spatial, hub_targeted, replay_sequence, road_like,
    EmbeddedGraph, QuadTree, ScenarioSuite,
};
use ftbfs_graph::{Graph, VertexId};
use ftbfs_oracle::{FrozenStructure, SnapshotVersion};
use ftbfs_serve::{EpochSnapshot, ServeConfig, ServeRequest, StreamServer};
use std::time::{Duration, Instant};

/// Lattice rows and columns, and shortcut edges (E13's smoke shape).
const ROWS: usize = 72;
const COLS: usize = 72;
const SHORTCUTS: usize = 400;
/// The source vertex.
const SOURCE: VertexId = VertexId(0);
/// Targets per fault spec, and repeats of each suite's request list.
const TARGETS_PER_SPEC: usize = 2;
const REPEATS: usize = 10;
/// Independently seeded sets of the four suites in one request cycle.
/// How many specs a suite kind yields, and so the share of cache hits,
/// varies from seed to seed; twelve sets narrow that variation.
const SUITE_SETS: u64 = 12;
/// Requests served before timing starts.
const WARMUP: u64 = 1_024;
/// Record spans for every this-many-th request in the traced run.
const TRACE_STRIDE: u64 = 16;
/// Interleaved untraced/traced block pairs of the overhead A/B.
const AB_PAIRS: usize = 6;
/// Length of one A/B block.
const AB_BLOCK: Duration = Duration::from_millis(1_000);

struct Setup {
    graph: Graph,
    snapshot: EpochSnapshot,
    suites: Vec<ScenarioSuite>,
    requests: Vec<ServeRequest>,
    expected: Vec<Option<u32>>,
    server: StreamServer,
    client: Client,
}

/// A suite survives its text round trip unchanged and is valid for `g`.
fn round_trip(suite: ScenarioSuite, g: &Graph) -> Result<ScenarioSuite, String> {
    let back = ScenarioSuite::from_text(&suite.to_text())
        .map_err(|e| format!("suite {}: {e}", suite.name))?;
    if back != suite {
        return Err(format!(
            "suite {} changed in its text round trip",
            suite.name
        ));
    }
    back.validate_for(g)
        .map_err(|e| format!("suite {}: {e}", suite.name))?;
    if back.faults.is_empty() {
        return Err(format!("suite {} has no fault specs", suite.name));
    }
    Ok(back)
}

/// E13's request list: per suite, `TARGETS_PER_SPEC` targets per spec,
/// the suite's list repeated `REPEATS` times, suites one after another.
fn requests(suites: &[ScenarioSuite], n: usize) -> Vec<ServeRequest> {
    let mut out = Vec::new();
    for suite in suites {
        let mut state = suite.seed ^ 0xE13C_000F;
        let mut base = Vec::new();
        for spec in &suite.faults {
            for _ in 0..TARGETS_PER_SPEC {
                let target = VertexId((splitmix64(&mut state) as usize % n) as u32);
                base.push(ServeRequest::distance(target, spec.clone()));
            }
        }
        for _ in 0..REPEATS {
            out.extend(base.iter().cloned());
        }
    }
    out
}

/// One set-up; returns it with its duration, ground truth excluded.
fn setup(cfg: &Config, tracer: &mut Tracer) -> Result<(Setup, f64), String> {
    let t0 = Instant::now();
    let root = tracer.open("setup", 0, None);
    let span = tracer.open("graph.generate", 0, Some(root));
    let generated = road_like(ROWS, COLS, SHORTCUTS, cfg.seed);
    tracer.close(span);
    let graph = corpus_round_trip(&generated.graph, "scenario-cold", tracer, root)?;
    let embedded = EmbeddedGraph {
        graph,
        coords: generated.coords,
    };
    let span = tracer.open("corpus.suites", 0, Some(root));
    let quad = QuadTree::build(&embedded.coords, 64);
    let g = &embedded.graph;
    let mut suites = Vec::new();
    for set in 0..SUITE_SETS {
        let seed = cfg.seed.wrapping_mul(SUITE_SETS).wrapping_add(set) << 20;
        for suite in [
            correlated_spatial(&embedded, &quad, 48, seed ^ 0xE130_0001),
            bridge_adversarial(g, 8, seed ^ 0xE130_0002),
            hub_targeted(g, 16, 48, seed ^ 0xE130_0003),
            replay_sequence(g, 64, seed ^ 0xE130_0004),
        ] {
            suites.push(round_trip(suite, g)?);
        }
    }
    let requests = requests(&suites, g.vertex_count());
    tracer.close(span);

    let span = tracer.open("oracle.freeze", 0, Some(root));
    let frozen = FrozenStructure::from_edges(g, &[SOURCE], 2, g.edges());
    tracer.close(span);
    let span = tracer.open("oracle.encode", 0, Some(root));
    let bytes = frozen.save_with(SnapshotVersion::V2);
    tracer.close(span);
    let span = tracer.open("oracle.open", 0, Some(root));
    let snapshot = EpochSnapshot::from_bytes(bytes).map_err(|e| format!("opening H = G: {e}"))?;
    tracer.close(span);

    let truth_start = Instant::now();
    let expected = ground_truth(g, SOURCE, &requests);
    let truth_ns = elapsed_ns(truth_start);

    let span = tracer.open("serve.launch", 0, Some(root));
    let server = StreamServer::launch(snapshot.clone(), ServeConfig::new());
    // One summary window spanning the whole timed phase: a request cycle
    // runs for seconds and mixes cheap cache hits with full searches, so a
    // shorter window's rate depends on where in the cycle it falls.
    let mut client = Client::new(&server, Duration::from_secs(cfg.seconds));
    tracer.close(span);
    let span = tracer.open("bench.warmup", 0, Some(root));
    let load = Load {
        requests: &requests,
        expected: &expected,
        publish: None,
    };
    let warm = client.run(&server, &load, Stop::Count(WARMUP), None);
    tracer.close(span);
    tracer.close(root);
    if warm.wrong > 0 {
        return Err(format!("{} wrong answers during warm-up", warm.wrong));
    }
    let setup = Setup {
        graph: embedded.graph,
        snapshot,
        suites,
        requests,
        expected,
        server,
        client,
    };
    Ok((setup, secs(elapsed_ns(t0) - truth_ns)))
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
        publish: None,
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

    let (n, m) = (s.graph.vertex_count(), s.graph.edge_count());
    setup_metric(report, &setup_s);
    client_metrics(report, &run, Duration::from_secs(cfg.seconds))?;
    report.e2e(
        "h_edges",
        m as f64,
        "edges",
        "H = G frozen at resilience 2: no construction runs on this workload",
    );
    let specs: usize = s.suites.iter().map(|x| x.faults.len()).sum();
    report.line(format!(
        "graph: road_like({ROWS}x{COLS} + {SHORTCUTS} shortcuts, seed = {}), n = {n}, m = {m}; \
         H = G at resilience 2; {} suites, {specs} specs, {} requests per cycle",
        cfg.seed,
        s.suites.len(),
        s.requests.len()
    ));

    if cfg.traced {
        setup_layers(report, tracer, s.snapshot.bytes().len());
        let replay = replay_engine(&s.snapshot, &load, s.requests.len());
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
        overhead_layer(report, &pairs, "1 s serving");
    }
    drop(s.client);
    s.server.shutdown();
    Ok(())
}
