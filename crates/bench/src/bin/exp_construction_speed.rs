//! E9 — construction-speed tracking: wall-clock time of the dual-failure
//! FT-BFS construction across graph sizes and thread counts, emitted both as
//! an aligned table and as machine-readable `BENCH_construction.json` so the
//! performance trajectory of the repo can be tracked PR over PR.
//!
//! Usage:
//!
//! ```text
//! exp_construction_speed [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the workloads to seconds-scale sizes for CI and writes
//! `target/BENCH_construction.smoke.json`, so it never overwrites the
//! checked-in full sweep; `--out` overrides the JSON path (default
//! `BENCH_construction.json` in the current directory).  Every JSON row
//! carries the provenance fields `{nproc, rustc, commit, mode}`.
//!
//! After one warm-up build, a full-mode row times at least 11 builds and
//! keeps building until the timed builds add up to at least 1 s; it reports
//! their median as `wall_ms`, with the quartiles `wall_ms_q1`/`wall_ms_q3`
//! and the count `runs`.  A smoke row times one build.
//!
//! The construction is deterministic at every thread count, so the bin
//! gates its own rows: if two thread counts of one graph build different
//! edge sets of `H`, it names them and exits 1 without writing the JSON.

use ftbfs_bench::{json, Table};
use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_graph::{generators, EdgeId, Graph, TieBreak, VertexId};
use std::time::Instant;

/// The tie-breaking seed of every measured graph.
const W_SEED: u64 = 1;

/// The fewest timed builds of a full-mode row.
const MIN_RUNS: usize = 11;

/// The least total time, in seconds, of a full-mode row's timed builds.
const MIN_TOTAL_S: f64 = 1.0;

/// One measured configuration.
struct Row {
    generator: String,
    n: usize,
    m: usize,
    threads: usize,
    /// Median and quartiles of the timed builds, in milliseconds.
    wall_ms: f64,
    wall_ms_q1: f64,
    wall_ms_q3: f64,
    runs: usize,
    /// The edge set of the last build of `H`, sorted.
    edges: Vec<EdgeId>,
}

/// The `p`-quantile of the sorted `xs`, interpolated between ranks.
fn quantile(xs: &[f64], p: f64) -> f64 {
    let at = p * (xs.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
}

/// Times the construction on `g` with `threads` threads: one warm-up, then
/// at least `min_runs` timed builds lasting at least `min_total_s` in all.
fn measure(name: &str, g: &Graph, threads: usize, min_runs: usize, min_total_s: f64) -> Row {
    let w = TieBreak::new(g, W_SEED);
    let build = || {
        DualFtBfsBuilder::new(g, &w, VertexId(0))
            .threads(threads)
            .build()
            .structure
    };
    let mut h = build();
    let mut times_ms = Vec::new();
    let mut total_s = 0.0;
    while times_ms.len() < min_runs || total_s < min_total_s {
        let start = Instant::now();
        h = build();
        let elapsed = start.elapsed().as_secs_f64();
        total_s += elapsed;
        times_ms.push(elapsed * 1e3);
    }
    times_ms.sort_by(f64::total_cmp);
    let mut edges: Vec<EdgeId> = h.edges().collect();
    edges.sort_unstable();
    Row {
        generator: name.to_string(),
        n: g.vertex_count(),
        m: g.edge_count(),
        threads,
        wall_ms: quantile(&times_ms, 0.5),
        wall_ms_q1: quantile(&times_ms, 0.25),
        wall_ms_q3: quantile(&times_ms, 0.75),
        runs: times_ms.len(),
        edges,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = json::out_path(&args, "BENCH_construction.json");

    // The acceptance workload of the reusable-engine PR is
    // connected_gnp(n=120, p=0.08); smoke mode keeps the same shape tiny.
    // The sparse connected_gnp(n, 8/n) rows are the benchmark's `build`
    // graph (n = 1,000) and two larger sizes up to n = 10⁴.
    let workloads: Vec<(String, Graph, &[usize])> = if smoke {
        vec![(
            "connected_gnp(24,0.25)".to_string(),
            generators::connected_gnp(24, 0.25, 42),
            &[1, 2],
        )]
    } else {
        let mut w: Vec<(String, Graph, &[usize])> = vec![
            (
                "connected_gnp(60,0.12)".to_string(),
                generators::connected_gnp(60, 0.12, 42),
                &[1, 2, 4, 8],
            ),
            (
                "connected_gnp(120,0.08)".to_string(),
                generators::connected_gnp(120, 0.08, 42),
                &[1, 2, 4, 8],
            ),
            (
                "connected_gnp(200,0.05)".to_string(),
                generators::connected_gnp(200, 0.05, 42),
                &[1, 2, 4, 8],
            ),
        ];
        for n in [1_000usize, 4_000, 10_000] {
            w.push((
                format!("connected_gnp({n},8/n)"),
                generators::connected_gnp(n, 8.0 / n as f64, 1),
                &[1, 2],
            ));
        }
        w
    };
    let (min_runs, min_total_s) = if smoke {
        (1, 0.0)
    } else {
        (MIN_RUNS, MIN_TOTAL_S)
    };
    let provenance = json::provenance(if smoke { "smoke" } else { "full" });

    let mut rows: Vec<Row> = Vec::new();
    let mut table = Table::new(
        "E9 — dual-failure construction speed",
        &[
            "graph", "n", "m", "threads", "wall_ms", "q1", "q3", "runs", "|E(H)|", "speedup",
        ],
    );
    let mut disagreements = Vec::new();
    for (name, g, thread_counts) in &workloads {
        let first = rows.len();
        let mut base_ms = None;
        for &t in thread_counts.iter() {
            let row = measure(name, g, t, min_runs, min_total_s);
            if let Some(base) = rows.get(first).filter(|base| base.edges != row.edges) {
                disagreements.push(format!(
                    "{name}: {} thread(s) built {} edges, {} thread(s) {}",
                    base.threads,
                    base.edges.len(),
                    t,
                    row.edges.len()
                ));
            }
            let base = *base_ms.get_or_insert(row.wall_ms);
            table.row(vec![
                row.generator.clone(),
                row.n.to_string(),
                row.m.to_string(),
                row.threads.to_string(),
                format!("{:.2}", row.wall_ms),
                format!("{:.2}", row.wall_ms_q1),
                format!("{:.2}", row.wall_ms_q3),
                row.runs.to_string(),
                row.edges.len().to_string(),
                format!("{:.2}x", base / row.wall_ms),
            ]);
            rows.push(row);
        }
    }
    print!("{}", table.render());
    if !disagreements.is_empty() {
        for d in &disagreements {
            eprintln!("H DIFFERS ACROSS THREAD COUNTS: {d}");
        }
        std::process::exit(1);
    }

    let mut json = String::from("{\n  \"experiment\": \"construction_speed\",\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"graph\": \"{}\", \"n\": {}, \"m\": {}, \"threads\": {}, \
             \"wall_ms\": {:.3}, \"wall_ms_q1\": {:.3}, \"wall_ms_q3\": {:.3}, \"runs\": {}, \
             \"structure_edges\": {}, {provenance}}}{}\n",
            json::escape(&r.generator),
            r.n,
            r.m,
            r.threads,
            r.wall_ms,
            r.wall_ms_q1,
            r.wall_ms_q3,
            r.runs,
            r.edges.len(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create the JSON output directory");
    }
    std::fs::write(&out_path, &json).expect("write the construction-speed JSON");
    println!("wrote {out_path}");
}
