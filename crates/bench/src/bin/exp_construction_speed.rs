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

use ftbfs_bench::{json, Table};
use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_graph::{generators, Graph, TieBreak, VertexId};
use std::time::Instant;

/// The tie-breaking seed of every measured graph.
const W_SEED: u64 = 1;

/// Where `--smoke` writes its JSON unless `--out` says otherwise.
const SMOKE_OUT: &str = "target/BENCH_construction.smoke.json";

/// One measured configuration.
struct Row {
    generator: String,
    n: usize,
    m: usize,
    threads: usize,
    wall_ms: f64,
    structure_edges: usize,
}

fn measure(name: &str, g: &Graph, threads: usize, repeats: usize) -> Row {
    let w = TieBreak::new(g, W_SEED);
    // One warm-up, then the best of `repeats` timed runs (construction is
    // deterministic, so min wall time is the least-noisy estimator).
    let mut edges = DualFtBfsBuilder::new(g, &w, VertexId(0))
        .threads(threads)
        .build()
        .structure
        .edge_count();
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        let r = DualFtBfsBuilder::new(g, &w, VertexId(0))
            .threads(threads)
            .build();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        edges = r.structure.edge_count();
    }
    Row {
        generator: name.to_string(),
        n: g.vertex_count(),
        m: g.edge_count(),
        threads,
        wall_ms: best,
        structure_edges: edges,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            if smoke {
                SMOKE_OUT.to_string()
            } else {
                "BENCH_construction.json".to_string()
            }
        });

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
    let repeats = if smoke { 1 } else { 3 };
    let provenance = json::provenance(if smoke { "smoke" } else { "full" });

    let mut rows: Vec<Row> = Vec::new();
    let mut table = Table::new(
        "E9 — dual-failure construction speed",
        &["graph", "n", "m", "threads", "wall_ms", "|E(H)|", "speedup"],
    );
    for (name, g, thread_counts) in &workloads {
        let mut base_ms = None;
        for &t in thread_counts.iter() {
            let row = measure(name, g, t, repeats);
            let base = *base_ms.get_or_insert(row.wall_ms);
            table.row(vec![
                row.generator.clone(),
                row.n.to_string(),
                row.m.to_string(),
                row.threads.to_string(),
                format!("{:.2}", row.wall_ms),
                row.structure_edges.to_string(),
                format!("{:.2}x", base / row.wall_ms),
            ]);
            rows.push(row);
        }
    }
    print!("{}", table.render());

    let mut json = String::from("{\n  \"experiment\": \"construction_speed\",\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"graph\": \"{}\", \"n\": {}, \"m\": {}, \"threads\": {}, \
             \"wall_ms\": {:.3}, \"structure_edges\": {}, {provenance}}}{}\n",
            json::escape(&r.generator),
            r.n,
            r.m,
            r.threads,
            r.wall_ms,
            r.structure_edges,
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
