//! `build`: `Cons2FTBFS` on `connected_gnp(n, 8/n)`, timed build by
//! build with two threads.  Graph, paths and core do the work; engine and
//! serve only answer the check of H afterwards.

use crate::common::{
    corpus_round_trip, cpu_ticks, elapsed_ns, ground_truth, replay_engine, secs, splitmix64,
    steal_line, Client, Load, RequestTrace, Stop,
};
use crate::layers::{
    overhead_layer, serve_layers, setup_layers, setup_metric, span_ms, ServeObservation,
};
use crate::report::Report;
use crate::stats::{summarize, Ratio};
use crate::trace::Tracer;
use crate::Config;
use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_core::FtBfsStructure;
use ftbfs_graph::{generators, EdgeId, FaultSpec, Graph, SearchEngine, SpTree, TieBreak, VertexId};
use ftbfs_oracle::{Freeze, SnapshotVersion};
use ftbfs_paths::replacement::SingleFailureReplacer;
use ftbfs_serve::{EpochSnapshot, ServeConfig, ServeRequest, StreamServer};
use std::time::{Duration, Instant};

/// Vertices of the graph: where one single-thread build takes about a
/// second on a 2-CPU host.
const N: usize = 1_000;
/// Threads of every timed build.
const THREADS: usize = 2;
/// The source vertex.
const SOURCE: VertexId = VertexId(0);
/// Fewest timed builds, whatever `--seconds` says.
const MIN_BUILDS: usize = 20;
/// Targets whose dual faults the check of H samples.
const CHECK_TARGETS: usize = 96;
/// Extra targets queried under every sampled fault pair.
const CHECK_FANOUT: usize = 3;
/// Interleaved untraced/traced build pairs of the overhead A/B.
const AB_PAIRS: usize = 4;

struct Setup {
    graph: Graph,
    w: TieBreak,
    h: FtBfsStructure,
    snapshot: EpochSnapshot,
}

fn setup(cfg: &Config, tracer: &mut Tracer) -> Result<Setup, String> {
    let root = tracer.open("setup", 0, None);
    let span = tracer.open("graph.generate", 0, Some(root));
    let generated = generators::connected_gnp(N, 8.0 / N as f64, cfg.seed);
    tracer.close(span);
    let graph = corpus_round_trip(&generated, "build", tracer, root)?;
    let w = TieBreak::new(&graph, cfg.seed);
    let span = tracer.open("core.build_2t", 0, Some(root));
    let h = DualFtBfsBuilder::new(&graph, &w, SOURCE)
        .threads(THREADS)
        .build()
        .structure;
    tracer.close(span);
    let span = tracer.open("oracle.freeze", 0, Some(root));
    let frozen = h.freeze(&graph);
    tracer.close(span);
    let span = tracer.open("oracle.encode", 0, Some(root));
    let bytes = frozen.save_with(SnapshotVersion::V2);
    tracer.close(span);
    let span = tracer.open("oracle.open", 0, Some(root));
    let snapshot = EpochSnapshot::from_bytes(bytes).map_err(|e| format!("opening H: {e}"))?;
    tracer.close(span);
    tracer.close(root);
    Ok(Setup {
        graph,
        w,
        h,
        snapshot,
    })
}

/// Sampled dual faults against H: pairs of edges of π(s, v), and pairs of
/// one π edge plus one edge of its replacement detour.  Each pair is
/// asked for `v` and for [`CHECK_FANOUT`] other targets.
fn check_requests(s: &Setup, seed: u64) -> Vec<ServeRequest> {
    let g = &s.graph;
    let tree = SpTree::new(g, &s.w, SOURCE);
    let replacer = SingleFailureReplacer::new(g, &s.w, &tree);
    let mut engine = SearchEngine::new();
    let mut state = seed ^ 0xB11D;
    let mut pick = |bound: usize| splitmix64(&mut state) as usize % bound;
    let mut pairs: Vec<(VertexId, EdgeId, EdgeId)> = Vec::new();
    let mut tries = 0;
    while pairs.len() < 2 * CHECK_TARGETS && tries < 100 * CHECK_TARGETS {
        tries += 1;
        let v = VertexId(pick(g.vertex_count()) as u32);
        let Some(pi) = tree.pi(v) else { continue };
        let pi_edges = pi.edge_ids(g);
        if pi_edges.len() < 2 {
            continue;
        }
        let (i, j) = (pick(pi_edges.len()), pick(pi_edges.len()));
        if i != j {
            pairs.push((v, pi_edges[i], pi_edges[j]));
        }
        let e = pi_edges[pick(pi_edges.len())];
        if let Some(dec) = replacer.earliest_divergence_replacement(&mut engine, v, e) {
            let detour = dec.detour.path.edge_ids(g);
            if !detour.is_empty() {
                pairs.push((v, e, detour[pick(detour.len())]));
            }
        }
    }
    let mut requests = Vec::new();
    for (v, a, b) in pairs {
        requests.push(ServeRequest::distance(v, FaultSpec::None));
        let spec = FaultSpec::from((a, b));
        requests.push(ServeRequest::distance(v, spec.clone()));
        for _ in 0..CHECK_FANOUT {
            let t = VertexId(pick(g.vertex_count()) as u32);
            requests.push(ServeRequest::distance(t, spec.clone()));
        }
    }
    requests
}

fn build_once(s: &Setup, threads: usize) -> (FtBfsStructure, u64) {
    let t0 = Instant::now();
    let h = DualFtBfsBuilder::new(&s.graph, &s.w, SOURCE)
        .threads(threads)
        .build()
        .structure;
    (h, elapsed_ns(t0))
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    // ---- set-up, repeated; the last one is kept -------------------------
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..crate::SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        let s = setup(cfg, tracer)?;
        setup_s.push(secs(elapsed_ns(t0)));
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");
    let m = s.graph.edge_count();
    let h_edges = s.h.edge_count();

    // ---- timed builds ----------------------------------------------------
    let ticks = cpu_ticks();
    let timed = tracer.open("bench.timed", 0, None);
    let mut build_ns = Vec::new();
    let mut wrong = 0u64;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(cfg.seconds) || build_ns.len() < MIN_BUILDS {
        let span = cfg
            .traced
            .then(|| tracer.open("core.build_2t", 0, Some(timed)));
        let (h, ns) = build_once(&s, THREADS);
        if let Some(span) = span {
            tracer.close(span);
        }
        build_ns.push(ns);
        if h != s.h {
            wrong += 1;
        }
    }
    let wall = secs(elapsed_ns(start));
    tracer.close(timed);
    report.line(steal_line(ticks, cpu_ticks()));
    let builds = build_ns.len();
    report.checked(builds as u64, wrong);

    // ---- check H against BFS on G ∖ F under sampled dual faults -----------
    let requests = check_requests(&s, cfg.seed);
    let expected = ground_truth(&s.graph, SOURCE, &requests);
    let load = Load {
        requests: &requests,
        expected: &expected,
        publish: None,
    };
    let server = StreamServer::launch(s.snapshot.clone(), ServeConfig::new());
    let mut client = Client::new(&server, Duration::from_secs(1));
    let before = server.scrape();
    let check_span = tracer.open("bench.check", 0, None);
    let trace = cfg.traced.then_some(RequestTrace {
        tracer: &mut *tracer,
        parent: check_span,
        stride: 1,
    });
    let checked = client.run(&server, &load, Stop::Count(requests.len() as u64), trace);
    tracer.close(check_span);
    let after = server.scrape();
    drop(client);
    server.shutdown();
    report.checked(checked.completed, checked.wrong);
    report.line(format!(
        "check of H: {} dual-fault answers against BFS on G \\ F, {} wrong",
        checked.completed, checked.wrong
    ));

    // ---- end-to-end --------------------------------------------------------
    let lat = summarize(&mut build_ns).ok_or("too few builds for a tail percentile")?;
    setup_metric(report, &setup_s);
    report.e2e(
        "ops_per_s",
        builds as f64 / wall,
        "op/s",
        format!("{builds} builds ({THREADS} threads) in {wall:.3} s"),
    );
    report.e2e(
        "p50_us",
        lat.p50 as f64 / 1e3,
        "us",
        format!(
            "median build time (build_s = {:.4} s), n = {}",
            lat.p50 as f64 / 1e9,
            lat.n
        ),
    );
    report.e2e(
        "tail_us",
        lat.tail as f64 / 1e3,
        "us",
        format!("p{} build time, n = {}", lat.tail_p, lat.n),
    );
    report.e2e(
        "h_edges",
        h_edges as f64,
        "edges",
        format!("|E(H)| of n = {N}, m = {m}"),
    );
    report.line(format!(
        "graph: connected_gnp(n = {N}, p = 8/n, seed = {}), m = {m}; H has {h_edges} edges",
        cfg.seed
    ));

    if !cfg.traced {
        return Ok(());
    }

    // ---- traced run: per-layer metrics ----------------------------------
    setup_layers(report, tracer, s.snapshot.bytes().len());
    let replay = replay_engine(&s.snapshot, &load, requests.len());
    report.checked(replay.calls(), replay.wrong);
    serve_layers(
        report,
        &ServeObservation {
            before: &before,
            after: &after,
            client: &checked,
            replay: &replay,
        },
    );

    let mut pairs = Vec::new();
    for i in 0..AB_PAIRS {
        let mut rate = |traced: bool| {
            let span = traced.then(|| tracer.open("core.build_2t", 0, None));
            let (h, ns) = build_once(&s, THREADS);
            if let Some(span) = span {
                tracer.close(span);
            }
            (h == s.h, 1e9 / ns as f64)
        };
        let order = if i % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let (ok0, r0) = rate(order[0]);
        let (ok1, r1) = rate(order[1]);
        report.checked(2, u64::from(!ok0) + u64::from(!ok1));
        pairs.push(if order[0] { (r1, r0) } else { (r0, r1) });
    }
    overhead_layer(report, &pairs, "build");

    construction_layers(&s, tracer, report, h_edges, m);
    Ok(())
}

/// The construction breakdown, printed for this workload only.
fn construction_layers(
    s: &Setup,
    tracer: &mut Tracer,
    report: &mut Report,
    h_edges: usize,
    m: usize,
) {
    let g = &s.graph;
    for _ in 0..3 {
        let span = tracer.open("graph.sptree", 0, None);
        let _ = SpTree::new(g, &s.w, SOURCE);
        tracer.close(span);
    }
    let (sptree_ms, _) = span_ms(tracer, "graph.sptree");
    let tree = SpTree::new(g, &s.w, SOURCE);

    // Step 1 replayed outside the build: every (v, e ∈ π(v)).
    let replacer = SingleFailureReplacer::new(g, &s.w, &tree);
    let mut engine = SearchEngine::new();
    let span = tracer.open("paths.step1", 0, None);
    let (mut calls, mut step2_pairs) = (0u64, 0u64);
    for v in g.vertices().filter(|&v| v != SOURCE) {
        let Some(pi) = tree.pi(v) else { continue };
        let pi_edges = pi.edge_ids(g);
        let k = pi_edges.len() as u64;
        step2_pairs += k * k.saturating_sub(1) / 2;
        for &e in &pi_edges {
            std::hint::black_box(replacer.earliest_divergence_replacement(&mut engine, v, e));
            calls += 1;
        }
    }
    let step1_ms = tracer.close(span) as f64 / 1e6;

    let span = tracer.open("core.build_1t", 0, None);
    let (h1, _) = build_once(s, 1);
    let build_1t_ms = tracer.close(span) as f64 / 1e6;
    let (build_2t_ms, n2t) = span_ms(tracer, "core.build_2t");
    let recorded = DualFtBfsBuilder::new(g, &s.w, SOURCE)
        .threads(THREADS)
        .record_paths(true)
        .build();
    if h1 != s.h || recorded.structure != s.h {
        report.checked(2, 2);
    } else {
        report.checked(2, 0);
    }
    let step3_pairs: usize = recorded
        .records
        .iter()
        .flat_map(|r| &r.detours)
        .map(|d| d.decomposition.detour.path.len())
        .sum();
    let new_edges: usize = recorded.records.iter().map(|r| r.new_edges.len()).sum();

    let eff = Ratio::new(build_1t_ms, THREADS as f64 * build_2t_ms);
    let kept = Ratio::new(h_edges as f64, m as f64);
    let rows: [(&str, f64, &'static str, String); 11] = [
        (
            "graph.sptree_ms",
            sptree_ms,
            "ms",
            "SpTree::new, median of 3".into(),
        ),
        (
            "paths.step1_ms",
            step1_ms,
            "ms",
            "earliest_divergence_replacement over every (v, e in pi(v)), 1 thread".into(),
        ),
        (
            "paths.step1_calls",
            calls as f64,
            "count",
            "calls in that replay".into(),
        ),
        (
            "core.build_1t_ms",
            build_1t_ms,
            "ms",
            "one build, 1 thread".into(),
        ),
        (
            "core.build_2t_ms",
            build_2t_ms,
            "ms",
            format!("median of {n2t} builds, {THREADS} threads"),
        ),
        (
            "core.parallel_eff",
            eff.value(),
            "ratio",
            format!("build_1t / ({THREADS} x build_2t) = {eff}"),
        ),
        (
            "core.steps23_ms",
            build_1t_ms - sptree_ms - step1_ms,
            "ms",
            "derived: build_1t - sptree - step1".into(),
        ),
        (
            "core.step2_pairs",
            step2_pairs as f64,
            "count",
            "sum over v of C(|pi(v)|, 2)".into(),
        ),
        (
            "core.step3_pairs",
            step3_pairs as f64,
            "count",
            "sum of detour edges over step-1 detours (record_paths)".into(),
        ),
        (
            "core.new_edges",
            new_edges as f64,
            "count",
            "sum over v of |New(v)|".into(),
        ),
        (
            "core.kept_ratio",
            kept.value(),
            "ratio",
            format!("h_edges / m = {kept}"),
        ),
    ];
    for (name, value, unit, note) in rows {
        report.extra(name, value, unit, note);
    }
}
