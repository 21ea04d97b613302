//! E13 — real-graph corpus: on-disk ingestion at `n ≥ 5,000` plus the
//! adversarial fault-scenario suites, end-to-end through the serving
//! stack (`ftbfs-corpus` → `ftbfs-serve`).
//!
//! The experiment exercises the full corpus pipeline a deployment would
//! run:
//!
//! 1. **Generate & persist** — a road-like lattice with shortcut edges
//!    (an order of magnitude beyond the `n ≤ 200` graphs of E1–E12) is
//!    written to disk in both corpus formats: the text edge list and the
//!    checksummed `FTBG` binary.
//! 2. **Ingest** — both files stream back through
//!    [`ftbfs_corpus::ingest_path`] into CSR, timed, with the
//!    `ftbfs_corpus_*` metrics recording edges/s per format.  The
//!    order-insensitive CSR fingerprints of the generated graph and both
//!    ingested copies must agree bit-for-bit.
//! 3. **Scenario suites** — four named suites (`correlated-spatial` from
//!    the quad-tree partition, `bridge-adversarial` 2-cuts,
//!    `hub-targeted`, and the mixed `replay` sequence) are built from the
//!    ingested graph, serialized to disk, reloaded, and validated.
//! 4. **Serve** — the selected backend is published as an epoch snapshot
//!    and each suite is driven through a [`StreamServer`] with a bounded
//!    in-flight window.  The default `--backend exact` freezes an
//!    `H = G` structure at resilience 2 (every suite query answered
//!    `Exact` and checked for equality with a ground-truth BFS on
//!    `G ∖ F`); `--backend approx` runs the real FT-ABFS construction
//!    over the ingested graph and checks every answer against its
//!    declared contract instead — the right `Guarantee` tier, equal
//!    reachability, and `true_d ≤ d_H ≤ ⌈α·true_d⌉ + β`.  **Any wrong
//!    answer exits non-zero**, smoke or not.
//! 5. **Replay determinism** — the `replay` suite is driven twice; the
//!    two response transcripts (sequence, epoch, distance, guarantee)
//!    must be bit-for-bit identical.
//!
//! Results are spliced into `BENCH_query.json` as a `corpus` section
//! (`corpus_approx` under `--backend approx`, so the two backends'
//! sections coexist; E10 owns the rest of the file and rewrites it
//! wholesale, so CI runs E10 before E13).
//!
//! `--smoke` shrinks the run for CI **and enforces the checked-in
//! ingestion-throughput floors** ([`SMOKE_TEXT_EDGES_PER_S_FLOOR`],
//! [`SMOKE_BINARY_EDGES_PER_S_FLOOR`]).  The JSON path is
//! `BENCH_query.json`, or `target/BENCH_query.smoke.json` under `--smoke`;
//! `--out` overrides it.  `--dir` overrides where corpus files are written
//! (default `target/corpus-data`).  The section carries the provenance
//! fields `{nproc, rustc, commit, mode}`.
//!
//! Usage:
//!
//! ```text
//! exp_corpus [--smoke] [--backend exact|approx] [--out PATH] [--dir DIR]
//! ```

use ftbfs_bench::{json, percentile_us, splitmix64, Table};
use ftbfs_core::{approx_ftbfs, ApproxParams};
use ftbfs_corpus::{
    bridge_adversarial, correlated_spatial, csr_fingerprint, hub_targeted, ingest_path,
    replay_sequence, road_like, write_binary_path, write_text_path, EmbeddedGraph, IngestMetrics,
    QuadTree, ScenarioSuite, SuiteMetrics, FORMAT_BINARY, FORMAT_TEXT,
};
use ftbfs_graph::io::IngestOptions;
use ftbfs_graph::{bfs, FaultSpec, Graph, GraphView, TieBreak, VertexId};
use ftbfs_oracle::{FrozenStructure, Guarantee};
use ftbfs_serve::{EpochSnapshot, ServeConfig, ServeRequest, StreamServer};
use ftbfs_telemetry::{names, MetricsRegistry};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The `--smoke` floor on text-format ingestion throughput in edges per
/// second.
///
/// The smoke lattice (n = 5,184, m ≈ 10,700) ingests at ≈ 4–8 M edges/s
/// on the single-core CI container class this repo targets (the text
/// path is line parsing plus accumulator pushes).  The floor sits far
/// below that so only a real parser regression (per-line allocation,
/// accidental quadratic behavior) trips it, not filesystem jitter.
const SMOKE_TEXT_EDGES_PER_S_FLOOR: f64 = 250_000.0;

/// The `--smoke` floor on binary-format (FTBG) ingestion throughput in
/// edges per second.
///
/// The binary path reads fixed 8-byte records through the checksumming
/// reader and measures ≈ 10–30 M edges/s on the CI container; the floor
/// sits a wide margin below, for the same reason as the text floor.
const SMOKE_BINARY_EDGES_PER_S_FLOOR: f64 = 500_000.0;

/// One ingestion measurement (per on-disk format).
struct IngestRow {
    format: &'static str,
    bytes: u64,
    edges: usize,
    secs: f64,
    edges_per_s: f64,
}

/// One suite-serving measurement.
struct SuiteRow {
    name: String,
    kind: &'static str,
    specs: usize,
    requests: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    wrong: usize,
}

/// Streams one on-disk file back into a graph, timed, recording the
/// per-format ingestion metrics.
fn timed_ingest(
    path: &Path,
    format: &'static str,
    registry: &MetricsRegistry,
) -> (Graph, IngestRow) {
    let metrics = IngestMetrics::register(registry, format);
    let bytes = std::fs::metadata(path).expect("corpus file exists").len();
    let start = Instant::now();
    let (graph, stats) = ingest_path(path, IngestOptions::strict())
        .unwrap_or_else(|e| panic!("ingesting {} failed: {e}", path.display()));
    let elapsed = start.elapsed();
    metrics.record_run(&stats, elapsed.as_nanos() as u64);
    let secs = elapsed.as_secs_f64();
    let row = IngestRow {
        format,
        bytes,
        edges: stats.edges_added,
        secs,
        edges_per_s: stats.edges_added as f64 / secs.max(1e-9),
    };
    (graph, row)
}

/// One response as the replay-determinism check sees it: everything the
/// client observes except wall-clock timing.
type Transcript = Vec<(u64, u64, Option<Option<u32>>, Option<Guarantee>)>;

/// Drives every request of a suite through one stream with a bounded
/// in-flight window; returns client-observed latencies and the full
/// response transcript (used both for the ground-truth check and the
/// replay bit-for-bit comparison).
fn drive_suite(server: &StreamServer, requests: &[ServeRequest]) -> (Vec<u64>, Transcript) {
    const WINDOW: usize = 64;
    let mut stream = server.open_stream();
    let mut submit_times: VecDeque<Instant> = VecDeque::with_capacity(WINDOW);
    let mut latencies_ns = Vec::with_capacity(requests.len());
    let mut transcript: Transcript = Vec::with_capacity(requests.len());
    let mut next_expected = 0u64;
    let recv_one = |stream: &mut ftbfs_serve::StreamHandle,
                    submit_times: &mut VecDeque<Instant>,
                    next_expected: &mut u64,
                    latencies: &mut Vec<u64>,
                    transcript: &mut Transcript| {
        let resp = stream.recv().expect("response for every request");
        let t0 = submit_times
            .pop_front()
            .expect("a submit time per response");
        latencies.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(resp.seq, *next_expected, "stream order violated");
        *next_expected += 1;
        transcript.push((resp.seq, resp.epoch, resp.distance(), resp.guarantee()));
    };
    for request in requests {
        if submit_times.len() == WINDOW {
            recv_one(
                &mut stream,
                &mut submit_times,
                &mut next_expected,
                &mut latencies_ns,
                &mut transcript,
            );
        }
        submit_times.push_back(Instant::now());
        stream.submit(request.clone()).expect("server is serving");
    }
    while !submit_times.is_empty() {
        recv_one(
            &mut stream,
            &mut submit_times,
            &mut next_expected,
            &mut latencies_ns,
            &mut transcript,
        );
    }
    assert_eq!(latencies_ns.len(), requests.len(), "request dropped");
    (latencies_ns, transcript)
}

/// Builds the request list for a suite: `targets_per_spec` splitmix-chosen
/// targets per fault spec, the whole list repeated `repeats` times so the
/// throughput measurement has enough samples.  Returns the requests and,
/// parallel to them, the index of the spec each request queries under.
fn suite_requests(
    suite: &ScenarioSuite,
    n: usize,
    targets_per_spec: usize,
    repeats: usize,
) -> (Vec<ServeRequest>, Vec<usize>) {
    let mut state = suite.seed ^ 0xE13C_000F;
    let mut base_requests = Vec::with_capacity(suite.faults.len() * targets_per_spec);
    let mut base_specs = Vec::with_capacity(base_requests.capacity());
    for (i, spec) in suite.faults.iter().enumerate() {
        for _ in 0..targets_per_spec {
            let target = VertexId((splitmix64(&mut state) as usize % n) as u32);
            base_requests.push(ServeRequest::distance(target, spec.clone()));
            base_specs.push(i);
        }
    }
    let mut requests = Vec::with_capacity(base_requests.len() * repeats);
    let mut spec_of = Vec::with_capacity(base_requests.len() * repeats);
    for _ in 0..repeats {
        requests.extend(base_requests.iter().cloned());
        spec_of.extend(base_specs.iter().copied());
    }
    (requests, spec_of)
}

/// Ground truth for one spec: BFS distances on `G ∖ F` from the serving
/// source.
fn ground_truth(graph: &Graph, spec: &FaultSpec, source: VertexId) -> Vec<Option<u32>> {
    let view = GraphView::new(graph).without_faults(spec);
    let result = bfs(&view, source);
    graph.vertices().map(|v| result.distance(v)).collect()
}

/// Judges one served answer against ground truth for the active backend.
///
/// The exact backend must reproduce the BFS distance verbatim under an
/// `Exact` guarantee.  The approximate backend must label every faulted
/// in-resilience answer `Approx`, agree on reachability, and keep the
/// distance inside `[true_d, ⌈α·true_d⌉ + β]`.
fn answer_is_wrong(
    approx: Option<ApproxParams>,
    faults: usize,
    dist: Option<Option<u32>>,
    guarantee: Option<Guarantee>,
    expected: Option<u32>,
) -> bool {
    let Some(params) = approx else {
        // Every suite spec carries ≤ 2 faults and the structure was frozen
        // at resilience 2, so anything but an Exact match is wrong.
        return dist != Some(expected) || guarantee != Some(Guarantee::Exact);
    };
    let expected_tier = if faults == 0 {
        Guarantee::Exact
    } else {
        Guarantee::Approx {
            mult_num: params.mult_num,
            mult_den: params.mult_den,
            add: params.add,
        }
    };
    if guarantee != Some(expected_tier) {
        return true;
    }
    match (dist, expected) {
        (Some(None), None) => false,
        (Some(Some(d)), Some(true_d)) => {
            let bound = expected_tier
                .stretch_bound(true_d)
                .expect("bounded guarantee has a stretch bound");
            u64::from(d) < u64::from(true_d) || u64::from(d) > bound
        }
        _ => true,
    }
}

/// Runs one suite through the server and checks every answer against the
/// ground-truth BFS.  Also records the suite's telemetry counters.
#[allow(clippy::too_many_arguments)]
fn run_suite(
    server: &StreamServer,
    graph: &Graph,
    suite: &ScenarioSuite,
    source: VertexId,
    targets_per_spec: usize,
    repeats: usize,
    registry: &MetricsRegistry,
    approx: Option<ApproxParams>,
) -> (SuiteRow, Transcript) {
    let metrics = SuiteMetrics::register(registry, &suite.name, suite.kind.slug());
    metrics.faults.add(suite.faults.len() as u64);
    let (requests, spec_of) =
        suite_requests(suite, graph.vertex_count(), targets_per_spec, repeats);
    metrics.requests.add(requests.len() as u64);

    let truth: Vec<Vec<Option<u32>>> = suite
        .faults
        .iter()
        .map(|spec| ground_truth(graph, spec, source))
        .collect();

    let start = Instant::now();
    let (mut latencies_ns, transcript) = drive_suite(server, &requests);
    let wall = start.elapsed();

    let mut wrong = 0usize;
    for (i, (_, _, dist, guarantee)) in transcript.iter().enumerate() {
        let expected = match &requests[i].target {
            ftbfs_serve::ServeTarget::One(t) => truth[spec_of[i]][t.index()],
            _ => unreachable!("E13 only issues distance requests"),
        };
        if answer_is_wrong(
            approx,
            requests[i].faults.len(),
            *dist,
            *guarantee,
            expected,
        ) {
            wrong += 1;
        }
    }

    latencies_ns.sort_unstable();
    let row = SuiteRow {
        name: suite.name.clone(),
        kind: suite.kind.slug(),
        specs: suite.faults.len(),
        requests: requests.len(),
        qps: requests.len() as f64 / wall.as_secs_f64(),
        p50_us: percentile_us(&latencies_ns, 50.0),
        p99_us: percentile_us(&latencies_ns, 99.0),
        wrong,
    };
    (row, transcript)
}

/// Serializes a suite to `<dir>/<name>.suite`, reloads it, and asserts
/// the round trip is identity and the suite is valid for `graph`.
fn persist_and_reload(suite: &ScenarioSuite, dir: &Path, graph: &Graph) -> ScenarioSuite {
    let path = dir.join(format!("{}.suite", suite.name));
    std::fs::write(&path, suite.to_text()).expect("write suite file");
    let text = std::fs::read_to_string(&path).expect("read suite file back");
    let reloaded = ScenarioSuite::from_text(&text)
        .unwrap_or_else(|e| panic!("reloading {} failed: {e}", path.display()));
    assert_eq!(&reloaded, suite, "suite round trip must be identity");
    reloaded
        .validate_for(graph)
        .unwrap_or_else(|e| panic!("suite {} invalid for graph: {e}", suite.name));
    reloaded
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let backend = args
        .iter()
        .position(|a| a == "--backend")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "exact".to_string());
    let approx: Option<ApproxParams> = match backend.as_str() {
        "exact" => None,
        "approx" => Some(ApproxParams::DEFAULT),
        other => {
            eprintln!("unknown --backend {other} (expected \"exact\" or \"approx\")");
            std::process::exit(2);
        }
    };
    let out_path = json::out_path(&args, "BENCH_query.json");
    let dir: PathBuf = args
        .iter()
        .position(|a| a == "--dir")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "target/corpus-data".to_string())
        .into();
    std::fs::create_dir_all(&dir).expect("create corpus directory");

    // ---- 1. Generate & persist ------------------------------------------
    let (rows, cols, shortcuts) = if smoke {
        (72, 72, 400)
    } else {
        (120, 120, 1_200)
    };
    let embedded: EmbeddedGraph = road_like(rows, cols, shortcuts, 0xE13);
    let n = embedded.vertex_count();
    assert!(
        n >= 5_000,
        "corpus experiment requires n >= 5,000 (got {n})"
    );
    let generated_fp = csr_fingerprint(&embedded.graph);
    println!(
        "corpus graph: road_like {rows}x{cols} + {shortcuts} shortcuts -> n={n} m={} \
         fingerprint={generated_fp:#018x}",
        embedded.graph.edge_count()
    );

    let text_path = dir.join("road.gr");
    let bin_path = dir.join("road.ftbg");
    write_text_path(&embedded.graph, &text_path).expect("write text corpus");
    write_binary_path(&embedded.graph, &bin_path).expect("write binary corpus");

    // ---- 2. Ingest (both formats, timed, fingerprint-checked) -----------
    let registry = MetricsRegistry::new();
    let (from_text, text_row) = timed_ingest(&text_path, FORMAT_TEXT, &registry);
    let (from_bin, bin_row) = timed_ingest(&bin_path, FORMAT_BINARY, &registry);
    for (label, g) in [("text", &from_text), ("binary", &from_bin)] {
        assert_eq!(
            csr_fingerprint(g),
            generated_fp,
            "{label} ingestion must reproduce the generated CSR exactly"
        );
    }
    let ingest_rows = [text_row, bin_row];
    let mut ingest_table = Table::new(
        "E13i — on-disk corpus ingestion into CSR",
        &["format", "bytes", "edges", "secs", "edges/s"],
    );
    for r in &ingest_rows {
        ingest_table.row(vec![
            r.format.to_string(),
            r.bytes.to_string(),
            r.edges.to_string(),
            format!("{:.4}", r.secs),
            format!("{:.0}", r.edges_per_s),
        ]);
    }
    print!("{}", ingest_table.render());

    // ---- 3. Scenario suites (build, persist, reload, validate) ----------
    let graph = from_bin;
    let quad = QuadTree::build(&embedded.coords, 64);
    let (spatial_pairs, hub_pairs, bridge_pairs, replay_len) = if smoke {
        (48, 48, 8, 64)
    } else {
        (120, 96, 16, 200)
    };
    let built = [
        correlated_spatial(&embedded, &quad, spatial_pairs, 0xE130_0001),
        bridge_adversarial(&graph, bridge_pairs, 0xE130_0002),
        hub_targeted(&graph, 16, hub_pairs, 0xE130_0003),
        replay_sequence(&graph, replay_len, 0xE130_0004),
    ];
    let suites: Vec<ScenarioSuite> = built
        .iter()
        .map(|s| persist_and_reload(s, &dir, &graph))
        .collect();
    for s in &suites {
        assert!(
            !s.faults.is_empty(),
            "suite {} produced no fault specs on the corpus graph",
            s.name
        );
    }

    // ---- 4. Serve every suite, ground-truth checked ----------------------
    // Exact backend: an `H = G` structure at resilience 2, every answer
    // `Exact`.  Approx backend: the real FT-ABFS construction over the
    // ingested graph, every faulted answer under its stretch contract.
    let source = VertexId(0);
    let snapshot_bytes = match approx {
        None => FrozenStructure::from_edges(&graph, &[source], 2, graph.edges()).save(),
        Some(params) => {
            let w = TieBreak::new(&graph, 0xE13);
            let built = approx_ftbfs(&graph, &w, source, params);
            println!(
                "approx backend: {} structure edges (tree {}, forests {}, backups {}) \
                 under alpha = {}/{}, beta = {}, theta = {}",
                built.stats.total(),
                built.stats.tree_edges,
                built.stats.forest_edges,
                built.stats.backup_edges,
                params.mult_num,
                params.mult_den,
                params.add,
                params.theta
            );
            FrozenStructure::freeze_approx(&graph, &built).save()
        }
    };
    let snapshot =
        EpochSnapshot::from_bytes(snapshot_bytes).expect("freshly saved snapshot validates");
    let server = StreamServer::launch(snapshot, ServeConfig::new().workers(2));

    let (targets_per_spec, repeats) = if smoke { (2, 10) } else { (4, 25) };
    let mut suite_table = Table::new(
        &format!(
            "E13 — scenario suites through the serving stack ({backend} backend, \
             ground-truth checked)"
        ),
        &[
            "suite", "kind", "specs", "requests", "req/s", "p50_us", "p99_us", "wrong",
        ],
    );
    let mut suite_rows = Vec::new();
    let mut replay_transcript: Option<Transcript> = None;
    for suite in &suites {
        let (row, transcript) = run_suite(
            &server,
            &graph,
            suite,
            source,
            targets_per_spec,
            repeats,
            &registry,
            approx,
        );
        if suite.name == "replay" {
            replay_transcript = Some(transcript);
        }
        suite_table.row(vec![
            row.name.clone(),
            row.kind.to_string(),
            row.specs.to_string(),
            row.requests.to_string(),
            format!("{:.0}", row.qps),
            format!("{:.2}", row.p50_us),
            format!("{:.2}", row.p99_us),
            row.wrong.to_string(),
        ]);
        suite_rows.push(row);
    }
    print!("{}", suite_table.render());

    // ---- 5. Replay determinism -------------------------------------------
    let replay_suite = suites
        .iter()
        .find(|s| s.name == "replay")
        .expect("replay suite built");
    let first = replay_transcript.expect("replay suite was driven");
    let (replay_requests, _) = suite_requests(
        replay_suite,
        graph.vertex_count(),
        targets_per_spec,
        repeats,
    );
    let (_, second) = drive_suite(&server, &replay_requests);
    let replay_deterministic = first == second;
    server.shutdown();

    // ---- Report ----------------------------------------------------------
    let scrape = registry.scrape();
    let mut section = format!(
        "{{\n    {},\n    \"backend\": \"{backend}\",\n    \"graph\": ",
        json::provenance(if smoke { "smoke" } else { "full" })
    );
    section.push_str(&format!(
        "{{\"generator\": \"road_like\", \"rows\": {rows}, \"cols\": {cols}, \
         \"shortcuts\": {shortcuts}, \"vertices\": {n}, \"edges\": {}, \
         \"fingerprint\": \"{generated_fp:#018x}\"}},\n",
        embedded.graph.edge_count()
    ));
    section.push_str("    \"ingest\": [\n");
    for (i, r) in ingest_rows.iter().enumerate() {
        section.push_str(&format!(
            "      {{\"format\": \"{}\", \"bytes\": {}, \"edges\": {}, \"secs\": {:.6}, \
             \"edges_per_s\": {:.1}}}{}\n",
            r.format,
            r.bytes,
            r.edges,
            r.secs,
            r.edges_per_s,
            if i + 1 < ingest_rows.len() { "," } else { "" },
        ));
    }
    section.push_str("    ],\n    \"suites\": [\n");
    for (i, r) in suite_rows.iter().enumerate() {
        section.push_str(&format!(
            "      {{\"name\": \"{}\", \"kind\": \"{}\", \"specs\": {}, \"requests\": {}, \
             \"qps\": {:.1}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"wrong\": {}}}{}\n",
            r.name,
            r.kind,
            r.specs,
            r.requests,
            r.qps,
            r.p50_us,
            r.p99_us,
            r.wrong,
            if i + 1 < suite_rows.len() { "," } else { "" },
        ));
    }
    section.push_str(&format!(
        "    ],\n    \"replay_deterministic\": {replay_deterministic},\n    \"ingest_ns\": {},\n    \
         \"floors\": {{\"text_edges_per_s_floor\": {SMOKE_TEXT_EDGES_PER_S_FLOOR:.1}, \
         \"binary_edges_per_s_floor\": {SMOKE_BINARY_EDGES_PER_S_FLOOR:.1}}}\n  }}",
        json::histogram_quantiles(&scrape, &[names::CORPUS_INGEST_NS])
    ));
    let section_key = if approx.is_some() {
        "corpus_approx"
    } else {
        "corpus"
    };
    let spliced = json::splice_section(
        std::fs::read_to_string(&out_path).ok(),
        section_key,
        section_key,
        &section,
    );
    std::fs::write(&out_path, &spliced).expect("write corpus JSON");
    println!("wrote {section_key} section to {out_path}");

    // ---- Gates -----------------------------------------------------------
    // Correctness gates hold in every mode: the experiment is only
    // meaningful if the serving stack reproduces ground truth.
    let total_wrong: usize = suite_rows.iter().map(|r| r.wrong).sum();
    if total_wrong > 0 {
        if approx.is_some() {
            eprintln!(
                "STRETCH VIOLATION: {total_wrong} answers broke the (alpha, beta) \
                 contract, reachability, or the guarantee tier"
            );
        } else {
            eprintln!(
                "CORRECTNESS VIOLATION: {total_wrong} answers disagreed with ground-truth BFS"
            );
        }
        std::process::exit(1);
    }
    println!(
        "ground truth ok ({backend} backend): {} answers across {} suites, zero wrong",
        suite_rows.iter().map(|r| r.requests).sum::<usize>(),
        suite_rows.len()
    );
    if !replay_deterministic {
        eprintln!("REPLAY VIOLATION: two runs of the replay suite produced different transcripts");
        std::process::exit(1);
    }
    println!(
        "replay ok: {} responses bit-for-bit identical across two runs",
        first.len()
    );

    if smoke {
        for (r, floor) in ingest_rows
            .iter()
            .zip([SMOKE_TEXT_EDGES_PER_S_FLOOR, SMOKE_BINARY_EDGES_PER_S_FLOOR])
        {
            if r.edges_per_s < floor {
                eprintln!(
                    "SMOKE FLOOR VIOLATION: {} ingestion {:.0} edges/s < floor {floor:.0}",
                    r.format, r.edges_per_s
                );
                std::process::exit(1);
            }
            println!(
                "smoke ingest floor ok ({}): {:.0} edges/s >= {floor:.0}",
                r.format, r.edges_per_s
            );
        }
    }
}
