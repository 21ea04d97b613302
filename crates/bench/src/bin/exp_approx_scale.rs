//! E14 — approximate FT-ABFS at corpus scale: structure size,
//! construction speed, query throughput and *observed* stretch of the
//! approximate `FrozenStructure` backend on `n ≥ 5,000` graphs, against the
//! exact dual-failure construction where that construction is feasible.
//!
//! The experiment answers the question the `Guarantee::Approx` API
//! redesign exists for: what does trading exactness for an `(α, β)`
//! stretch contract buy at corpus scale, where the exact construction
//! takes seconds per source?
//!
//! 1. **Calibrate** — on small instances of both graph families
//!    (`road_like`, `layered_expander`) the exact construction
//!    ([`dual_failure_ftbfs`]) and the approximate one ([`approx_ftbfs()`])
//!    both run; their edge counts and build times are reported side by
//!    side.
//! 2. **Scale** — at `n ≥ 5,000` only the approximate construction runs,
//!    and its size must stay inside the `O(n·polylog n)` envelope:
//!    `edges ≤ n·⌈log₂ n⌉`.  The exact construction is feasible there
//!    (on the 72×72 road lattice, `n = 5,184`, it takes about 4.2 s on one
//!    thread and 2.2 s on two, 2-vCPU host) but is not run; see
//!    [`EXACT_FEASIBLE_N_CEILING`].
//! 3. **Stretch audit** — sampled fault specs (`|F| ∈ {0, 1, 2}`) and
//!    targets are answered by a [`QueryEngine`] over the frozen backend
//!    and checked against ground-truth BFS on `G ∖ F`: every answer must
//!    carry the right guarantee tier, agree on reachability, and satisfy
//!    `true_d ≤ d_H ≤ ⌈α·true_d⌉ + β`.  **Any violation exits non-zero**,
//!    smoke or not.
//! 4. **Throughput** — the same query mix is timed for queries/s.
//!
//! Results are spliced into `BENCH_query.json` (or, under `--smoke`,
//! `target/BENCH_query.smoke.json`; `--out` overrides either) as an
//! `approx_scale` section carrying the provenance fields `{nproc, rustc,
//! commit, mode}`.  `--smoke` shrinks the run for CI and (together with the
//! always-on correctness gates) enforces the checked-in floors: zero
//! stretch-bound violations and the polylog size envelope on every
//! scaled graph.
//!
//! Usage:
//!
//! ```text
//! exp_approx_scale [--smoke] [--out PATH]
//! ```

use ftbfs_bench::{json, splitmix64, Table};
use ftbfs_core::{approx_ftbfs, dual_failure_ftbfs, ApproxParams};
use ftbfs_corpus::{layered_expander, road_like, EmbeddedGraph};
use ftbfs_graph::{bfs, EdgeId, FaultSpec, Graph, GraphView, TieBreak, VertexId};
use ftbfs_oracle::{FrozenStructure, Guarantee, QueryEngine};
use std::time::Instant;

/// Largest `n` the exact dual-failure construction is run at — beyond
/// this the calibration rows stand in for it.  The exact build is
/// feasible at the corpus scale of this experiment (about 4.2 s on the
/// 72×72 road lattice, one thread), but on these sparse families its `H`
/// is nearly `G` (10,567 of 10,624 edges on that lattice from vertex 0,
/// tie-break seed 1), so a comparison there would say little; comparing
/// against the exact structure belongs on graphs where `H ≠ G`, such as
/// `G*₂`.
const EXACT_FEASIBLE_N_CEILING: usize = 1_000;

/// One graph's measurements.
struct ScaleRow {
    family: &'static str,
    n: usize,
    m: usize,
    approx_edges: usize,
    tree_edges: usize,
    forest_edges: usize,
    backup_edges: usize,
    build_secs: f64,
    size_cap: usize,
    exact_edges: Option<usize>,
    exact_secs: Option<f64>,
    qps: f64,
    queries: usize,
    violations: usize,
    max_stretch: f64,
}

/// The `O(n·polylog n)` size envelope the scaled structures must stay
/// inside: `n · ⌈log₂ n⌉` edges.
fn size_cap(n: usize) -> usize {
    n * (usize::BITS - n.next_power_of_two().leading_zeros()) as usize
}

/// Sampled fault specs over the graph's edges: one fault-free spec, then
/// alternating single faults and distinct pairs.
fn sample_specs(graph: &Graph, count: usize, seed: u64) -> Vec<FaultSpec> {
    let m = graph.edge_count() as u64;
    let mut state = seed;
    let mut specs = vec![FaultSpec::None];
    while specs.len() < count {
        let a = EdgeId((splitmix64(&mut state) % m) as u32);
        if specs.len() % 2 == 1 {
            specs.push(FaultSpec::from(a));
        } else {
            let b = EdgeId((splitmix64(&mut state) % m) as u32);
            if a == b {
                continue;
            }
            specs.push(FaultSpec::from((a, b)));
        }
    }
    specs
}

/// Audits the frozen backend on sampled specs and targets: guarantee
/// tiers, reachability agreement, and the stretch contract.  Returns
/// `(queries, violations, max observed stretch, qps)`.
fn audit_stretch(
    graph: &Graph,
    frozen: &FrozenStructure,
    params: ApproxParams,
    specs: &[FaultSpec],
    targets_per_spec: usize,
    seed: u64,
) -> (usize, usize, f64, f64) {
    let source = frozen.sources()[0];
    let n = graph.vertex_count();
    let mut state = seed ^ 0xE14A_0001;
    let mut engine = QueryEngine::new();
    let mut queries = 0usize;
    let mut violations = 0usize;
    let mut max_stretch = 1.0f64;
    let mut plan: Vec<(FaultSpec, Vec<VertexId>)> = Vec::with_capacity(specs.len());
    for spec in specs {
        let targets: Vec<VertexId> = (0..targets_per_spec)
            .map(|_| VertexId((splitmix64(&mut state) as usize % n) as u32))
            .collect();
        plan.push((spec.clone(), targets));
    }

    for (spec, targets) in &plan {
        let view = GraphView::new(graph).without_faults(spec);
        let truth = bfs(&view, source);
        for &t in targets {
            queries += 1;
            let answer = engine
                .try_distance(frozen, t, spec)
                .expect("in-range query");
            let guarantee = answer.guarantee();
            let expected_tier = match spec.len() {
                0 => Guarantee::Exact,
                _ => Guarantee::Approx {
                    mult_num: params.mult_num,
                    mult_den: params.mult_den,
                    add: params.add,
                },
            };
            if guarantee != expected_tier {
                violations += 1;
                continue;
            }
            match (answer.into_value(), truth.distance(t)) {
                (None, None) => {}
                (Some(d), Some(true_d)) => {
                    let bound = guarantee
                        .stretch_bound(true_d)
                        .expect("bounded guarantee has a stretch bound");
                    if u64::from(d) < u64::from(true_d) || u64::from(d) > bound {
                        violations += 1;
                    } else if true_d > 0 {
                        max_stretch = max_stretch.max(f64::from(d) / f64::from(true_d));
                    }
                }
                _ => violations += 1,
            }
        }
    }

    // Throughput over the same mix, answers discarded.
    let start = Instant::now();
    for (spec, targets) in &plan {
        for &t in targets {
            let _ = engine.try_distance(frozen, t, spec).expect("in-range");
        }
    }
    let qps = queries as f64 / start.elapsed().as_secs_f64().max(1e-9);
    (queries, violations, max_stretch, qps)
}

/// Runs one graph family at scale (exact only under the ceiling).
#[allow(clippy::too_many_arguments)]
fn run_family(
    family: &'static str,
    embedded: &EmbeddedGraph,
    params: ApproxParams,
    specs: usize,
    targets_per_spec: usize,
    seed: u64,
) -> ScaleRow {
    let graph = &embedded.graph;
    let n = graph.vertex_count();
    let w = TieBreak::new(graph, seed);
    let source = VertexId(0);

    let start = Instant::now();
    let built = approx_ftbfs(graph, &w, source, params);
    let build_secs = start.elapsed().as_secs_f64();

    let (exact_edges, exact_secs) = if n <= EXACT_FEASIBLE_N_CEILING {
        let start = Instant::now();
        let exact = dual_failure_ftbfs(graph, &w, source);
        (
            Some(exact.edge_count()),
            Some(start.elapsed().as_secs_f64()),
        )
    } else {
        (None, None)
    };

    let frozen = FrozenStructure::freeze_approx(graph, &built);
    let spec_list = sample_specs(graph, specs, seed ^ 0xE14B_0002);
    let (queries, violations, max_stretch, qps) =
        audit_stretch(graph, &frozen, params, &spec_list, targets_per_spec, seed);

    ScaleRow {
        family,
        n,
        m: graph.edge_count(),
        approx_edges: built.stats.total(),
        tree_edges: built.stats.tree_edges,
        forest_edges: built.stats.forest_edges,
        backup_edges: built.stats.backup_edges,
        build_secs,
        size_cap: size_cap(n),
        exact_edges,
        exact_secs,
        qps,
        queries,
        violations,
        max_stretch,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = json::out_path(&args, "BENCH_query.json");

    let params = ApproxParams::DEFAULT;
    let (specs, targets) = if smoke { (13, 16) } else { (41, 40) };

    // Calibration instances: small enough for the exact construction,
    // same generators as the scaled runs.
    let calib: Vec<(&'static str, EmbeddedGraph)> = vec![
        ("road_like", road_like(12, 12, 30, 0xE14)),
        ("layered_expander", layered_expander(6, 24, 3, 0xE14)),
    ];
    // Scaled instances: n ≥ 5,000, approximate backend only.
    let scaled: Vec<(&'static str, EmbeddedGraph)> = if smoke {
        vec![
            ("road_like", road_like(72, 72, 400, 0xE14)),
            ("layered_expander", layered_expander(80, 72, 3, 0xE14)),
        ]
    } else {
        vec![
            ("road_like", road_like(120, 120, 1_200, 0xE14)),
            ("layered_expander", layered_expander(120, 100, 3, 0xE14)),
        ]
    };
    for (family, e) in &scaled {
        assert!(
            e.vertex_count() >= 5_000,
            "scaled {family} instance must have n >= 5,000 (got {})",
            e.vertex_count()
        );
    }

    let mut rows = Vec::new();
    for (family, embedded) in calib.iter().chain(scaled.iter()) {
        rows.push(run_family(family, embedded, params, specs, targets, 0xE14));
    }

    let mut table = Table::new(
        "E14 — exact vs approximate FT-BFS structures at corpus scale",
        &[
            "family",
            "n",
            "m",
            "approx_edges",
            "exact_edges",
            "ratio",
            "cap",
            "build_s",
            "exact_s",
            "qps",
            "queries",
            "viol",
            "max_stretch",
        ],
    );
    for r in &rows {
        let ratio = r
            .exact_edges
            .map(|e| format!("{:.3}", r.approx_edges as f64 / e as f64))
            .unwrap_or_else(|| "-".to_string());
        table.row(vec![
            r.family.to_string(),
            r.n.to_string(),
            r.m.to_string(),
            r.approx_edges.to_string(),
            r.exact_edges
                .map(|e| e.to_string())
                .unwrap_or_else(|| "not run".to_string()),
            ratio,
            r.size_cap.to_string(),
            format!("{:.3}", r.build_secs),
            r.exact_secs
                .map(|s| format!("{s:.3}"))
                .unwrap_or_else(|| "-".to_string()),
            format!("{:.0}", r.qps),
            r.queries.to_string(),
            r.violations.to_string(),
            format!("{:.3}", r.max_stretch),
        ]);
    }
    print!("{}", table.render());

    // ---- Report ----------------------------------------------------------
    let mut section = format!(
        "{{\n    {},\n    \"params\": ",
        json::provenance(if smoke { "smoke" } else { "full" })
    );
    section.push_str(&format!(
        "{{\"mult_num\": {}, \"mult_den\": {}, \"add\": {}, \"theta\": {}}},\n",
        params.mult_num, params.mult_den, params.add, params.theta
    ));
    section.push_str(&format!(
        "    \"exact_feasible_n_ceiling\": {EXACT_FEASIBLE_N_CEILING},\n    \"graphs\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        section.push_str(&format!(
            "      {{\"family\": \"{}\", \"n\": {}, \"m\": {}, \"approx_edges\": {}, \
             \"tree_edges\": {}, \"forest_edges\": {}, \"backup_edges\": {}, \
             \"size_cap\": {}, \"build_secs\": {:.6}, \"exact_edges\": {}, \
             \"exact_secs\": {}, \"qps\": {:.1}, \"queries\": {}, \"violations\": {}, \
             \"max_observed_stretch\": {:.4}}}{}\n",
            r.family,
            r.n,
            r.m,
            r.approx_edges,
            r.tree_edges,
            r.forest_edges,
            r.backup_edges,
            r.size_cap,
            r.build_secs,
            r.exact_edges
                .map(|e| e.to_string())
                .unwrap_or_else(|| "null".to_string()),
            r.exact_secs
                .map(|s| format!("{s:.6}"))
                .unwrap_or_else(|| "null".to_string()),
            r.qps,
            r.queries,
            r.violations,
            r.max_stretch,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    section.push_str("    ]\n  }");
    let spliced = json::splice_section(
        std::fs::read_to_string(&out_path).ok(),
        "approx_scale",
        "approx_scale",
        &section,
    );
    std::fs::write(&out_path, &spliced).expect("write approx_scale JSON");
    println!("wrote approx_scale section to {out_path}");

    // ---- Gates -----------------------------------------------------------
    // Correctness gates hold in every mode.
    let total_violations: usize = rows.iter().map(|r| r.violations).sum();
    if total_violations > 0 {
        eprintln!(
            "STRETCH VIOLATION: {total_violations} answers broke the \
             (alpha, beta) contract or reachability"
        );
        std::process::exit(1);
    }
    println!(
        "stretch ok: {} answers across {} graphs, zero contract violations",
        rows.iter().map(|r| r.queries).sum::<usize>(),
        rows.len()
    );

    // Size gate: every structure (calibration and scale) stays inside the
    // `O(n·polylog n)` envelope.  On the scaled instances, where the exact
    // build is not run, completion is made quantitative: the approximate
    // structure both finishes and stays small.
    for r in &rows {
        if r.approx_edges > r.size_cap {
            eprintln!(
                "SIZE VIOLATION: {} n={} approx structure has {} edges > \
                 n*ceil(log2 n) = {}",
                r.family, r.n, r.approx_edges, r.size_cap
            );
            std::process::exit(1);
        }
        let exact = match r.exact_edges {
            Some(e) => format!(
                "exact ran: {e} edges, ratio {:.3}",
                r.approx_edges as f64 / e as f64
            ),
            None => "exact not run at this n".to_string(),
        };
        println!(
            "size ok ({}, n={}): {} edges <= polylog cap {} ({exact})",
            r.family, r.n, r.approx_edges, r.size_cap
        );
    }
}
