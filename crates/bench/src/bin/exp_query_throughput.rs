//! E10 — query-serving throughput: batched post-failure distance queries
//! answered by `QueryEngine`s over a `FrozenStructure`, across thread
//! counts and both of its slab layouts (one shared slab for the
//! single-source structure, one slab per source serving the multi-source
//! `S × V` workload), emitted both as an
//! aligned table and as machine-readable `BENCH_query.json` so the
//! query-side performance trajectory of the repo can be tracked PR over PR
//! (the serving counterpart of E9's `BENCH_construction.json`).
//!
//! Usage:
//!
//! ```text
//! exp_query_throughput [--smoke] [--lru-sweep] [--snapshot-bench] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the workloads to seconds-scale sizes for CI **and
//! enforces the checked-in floors**: the throughput floor
//! ([`SMOKE_QPS_FLOOR`], set with a ~3× margin below the container
//! baseline), the snapshot floor ([`SMOKE_SNAPSHOT_SPEEDUP_FLOOR`]:
//! view open-and-first-query must be ≥ 3× faster than
//! freeze-and-first-query, which compiles the structure from its edges)
//! and the telemetry-overhead ceiling
//! ([`SMOKE_TELEMETRY_OVERHEAD_MAX`], on the median of interleaved
//! pairs).  If any is violated the binary exits non-zero so a serving- or
//! load-path regression fails the build instead of silently landing.
//! `--lru-sweep` additionally runs the cache-policy experiment: qps across
//! per-partition LRU capacities {2, 4, 8, 16, 32} under tight and wide
//! fault-pair locality, recorded in a `lru_sweep` section of the JSON.
//! `--snapshot-bench` (implied by `--smoke`) measures time to a servable
//! structure for both formats — freeze (compile the CSR and trees from the
//! edges, encode, open), owned load (open a copy of the bytes and re-hash
//! the base) and view open (validate only, zero rebuild) — into a
//! `snapshot_bench` JSON section.
//! The JSON goes to `BENCH_query.json`, or under `--smoke` to
//! `target/BENCH_query.smoke.json` so a smoke run never overwrites the
//! checked-in full sweep; `--out` overrides either.  Every result row
//! carries the provenance fields `{nproc, rustc, commit, mode}`.
//!
//! Every mode also checks the answers: each measured report's distances
//! (every thread count, the latency runs, the LRU sweep, the telemetry
//! pairs) must equal a 1-thread run's on the same queries, or the binary
//! exits non-zero before it writes any JSON, so a fast row is never a
//! wrong one.
//!
//! The harness measures per-core engine scaling: each thread runs a
//! plain engine loop over its share of the batch.  What the serve plane
//! adds per request is E11's (`exp_serve_load`) and perfbench's to
//! measure.
//!
//! The query mix models a serving tail: 25% fault-free (precomputed-tree
//! fast path), 25% single-fault, 50% dual-fault, with fault edges drawn
//! from the structure itself so most faulted queries do real work, and with
//! repeats so the engines' fault LRU sees realistic locality.

use ftbfs_bench::{json, splitmix64, Table};
use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_core::{multi_failure_ftmbfs_parts, FtBfsStructure};
use ftbfs_graph::{generators, EdgeId, FaultSpec, Graph, TieBreak, VertexId};
use ftbfs_oracle::{Freeze, FrozenStructure, FrozenView, Query, QueryEngine, SnapshotVersion};
use ftbfs_serve::{BatchReport, MetricsRegistry, ThroughputHarness};
use std::time::Instant;

/// The `--smoke` throughput floor in queries per second, single-threaded.
///
/// The smoke workload (`connected_gnp(40, 0.15)`, 4k mixed queries)
/// measures ≥ ~3.5M qps on the CI container class this repo targets; the
/// floor sits a ~3× margin below that so only a real serving-path
/// regression (not scheduler noise) trips it.
const SMOKE_QPS_FLOOR: f64 = 1_000_000.0;

/// The `--smoke` floor on the freeze vs view-open ratio for the
/// single-source format: open-and-first-query must beat
/// freeze-and-first-query by at least this factor on the smoke graph — the
/// acceptance bar of the snapshot format (a view validates but never
/// compiles, so if this ratio collapses the zero-rebuild path regressed).
///
/// A freeze compiles the CSR and trees from the edges, encodes them and
/// then runs the same open, so the ratio is `1 + compile / open`.  An owned
/// load is only open plus a copy and a re-hash of the base, so it is not
/// the comparison: it reads about 1×.  The floor leaves room for noise
/// while still catching an open that starts compiling (ratio near 1).
const SMOKE_SNAPSHOT_SPEEDUP_FLOOR: f64 = 3.0;

/// The `--smoke` ceiling on telemetry overhead, as a fraction of baseline
/// throughput: the instrumented run (engine counts published to the
/// registry + batch histogram) must stay within 3% of the baseline, judged
/// on the median of [`OVERHEAD_PAIRS`] per-pair overheads.
const SMOKE_TELEMETRY_OVERHEAD_MAX: f64 = 0.03;

/// Alternating load/open batches per side in the snapshot bench.
const SNAPSHOT_BATCHES: usize = 25;

/// Interleaved baseline/instrumented pairs for the overhead gate (after
/// one warm-up pair).  Within a pair the two runs are back to back, and
/// the order alternates between pairs, so host-load drift hits both sides
/// alike instead of landing on one.
const OVERHEAD_PAIRS: usize = 45;

/// One measured configuration.
struct Row {
    generator: String,
    backend: &'static str,
    n: usize,
    m: usize,
    structure_edges: usize,
    threads: usize,
    queries: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
}

/// One LRU-sweep measurement.
struct SweepRow {
    locality: &'static str,
    active_pairs: usize,
    capacity: usize,
    qps: f64,
}

/// Records a mismatch in `wrong` unless `report` answered every query as
/// the 1-thread `reference` run did.
fn check_answers(
    wrong: &mut Vec<String>,
    what: &str,
    reference: &[Option<u32>],
    report: &BatchReport,
) {
    if report.distances != reference {
        let first = reference
            .iter()
            .zip(&report.distances)
            .position(|(a, b)| a != b)
            .unwrap_or(reference.len().min(report.distances.len()));
        wrong.push(format!(
            "{what}: distances differ from the 1-thread run's, first at query {first}"
        ));
    }
}

/// Builds the serving-mix query batch described in the module docs.
///
/// `sources` is empty for the single-source mix (primary-source queries);
/// otherwise each query draws an explicit source — the `S × V` form.
/// `active_pool` bounds the pool of concurrently "live" fault pairs, the
/// locality knob of the LRU sweep.
fn build_queries(
    g: &Graph,
    structure_edges: &[EdgeId],
    sources: &[VertexId],
    count: usize,
    active_pool: usize,
    seed: u64,
) -> Vec<Query> {
    let mut state = seed;
    // A small pool of "active failures" refreshed occasionally, so repeated
    // fault pairs exercise the engines' LRU like a persisting outage would.
    let mut active: Vec<(EdgeId, EdgeId)> = Vec::new();
    let mut queries = Vec::with_capacity(count);
    for i in 0..count {
        if active.len() < active_pool / 2 || splitmix64(&mut state) % 64 == 0 {
            let a = structure_edges[splitmix64(&mut state) as usize % structure_edges.len()];
            let b = structure_edges[splitmix64(&mut state) as usize % structure_edges.len()];
            active.push((a, b));
            if active.len() > active_pool {
                active.remove(0);
            }
        }
        let target = VertexId((splitmix64(&mut state) as usize % g.vertex_count()) as u32);
        let (a, b) = active[splitmix64(&mut state) as usize % active.len()];
        let faults = match i % 4 {
            0 => FaultSpec::None,
            1 => FaultSpec::from(a),
            _ => FaultSpec::from((a, b)),
        };
        if sources.is_empty() {
            queries.push(Query::new(target, faults));
        } else {
            let s = sources[splitmix64(&mut state) as usize % sources.len()];
            queries.push(Query::from_source(s, target, faults));
        }
    }
    queries
}

/// The telemetry overhead measurement: baseline
/// ([`ThroughputHarness::run`], nothing published) vs instrumented
/// ([`ThroughputHarness::run_instrumented`]: engine counts published to
/// the registry + batch histogram) on identical single-threaded work, in
/// [`OVERHEAD_PAIRS`] interleaved pairs.  Returns the per-pair
/// `(baseline_qps, instrumented_qps)`; a run whose answers differ from
/// `reference` is recorded in `wrong`.
fn telemetry_overhead(
    frozen: &FrozenStructure,
    queries: &[Query],
    reference: &[Option<u32>],
    wrong: &mut Vec<String>,
) -> Vec<(f64, f64)> {
    let harness = ThroughputHarness::new(1);
    let registry = MetricsRegistry::new();
    let mut run = |instrumented: bool| {
        let (what, report) = if instrumented {
            let report = harness.run_instrumented(frozen, queries, &registry);
            ("telemetry instrumented", report)
        } else {
            ("telemetry baseline", harness.run(frozen, queries))
        };
        check_answers(wrong, what, reference, &report);
        report.queries_per_sec()
    };
    let _ = (run(false), run(true));
    (0..OVERHEAD_PAIRS)
        .map(|i| {
            if i % 2 == 0 {
                (run(false), run(true))
            } else {
                let inst = run(true);
                (run(false), inst)
            }
        })
        .collect()
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted`, interpolating
/// linearly between ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Measures one frozen structure across thread counts, appending table +
/// JSON rows, and records in `wrong` every report whose answers differ
/// from a 1-thread run's.
#[allow(clippy::too_many_arguments)]
fn measure_backend(
    name: &str,
    backend: &'static str,
    g: &Graph,
    oracle: &FrozenView<'_>,
    queries: &[Query],
    thread_counts: &[usize],
    table: &mut Table,
    rows: &mut Vec<Row>,
    wrong: &mut Vec<String>,
) {
    let reference = ThroughputHarness::new(1).run(oracle, queries).distances;
    for &threads in thread_counts {
        // One warm-up pass (per-thread engines populate their caches inside
        // the run itself; the warm-up mainly stabilises timing), then qps
        // from an uninstrumented run — per-query latency recording costs
        // two clock reads per query, which would systematically understate
        // throughput — and percentiles from a separate instrumented run.
        let fast = ThroughputHarness::new(threads);
        let _ = fast.run(oracle, queries);
        let report = fast.run(oracle, queries);
        let latency_report = fast.with_latencies(true).run(oracle, queries);
        let what = format!("{name} {backend} threads={threads}");
        check_answers(wrong, &what, &reference, &report);
        check_answers(
            wrong,
            &format!("{what} (latencies)"),
            &reference,
            &latency_report,
        );
        let p50 = latency_report.latency_percentile_ns(50.0).unwrap_or(0) as f64 / 1e3;
        let p99 = latency_report.latency_percentile_ns(99.0).unwrap_or(0) as f64 / 1e3;
        let row = Row {
            generator: name.to_string(),
            backend,
            n: g.vertex_count(),
            m: g.edge_count(),
            structure_edges: oracle.edge_count(),
            threads,
            queries: queries.len(),
            qps: report.queries_per_sec(),
            p50_us: p50,
            p99_us: p99,
        };
        table.row(vec![
            row.generator.clone(),
            row.backend.to_string(),
            row.n.to_string(),
            row.m.to_string(),
            row.structure_edges.to_string(),
            row.threads.to_string(),
            row.queries.to_string(),
            format!("{:.0}", row.qps),
            format!("{:.2}", row.p50_us),
            format!("{:.2}", row.p99_us),
        ]);
        rows.push(row);
    }
}

/// The cache-policy experiment: qps across LRU capacities under two
/// fault-pair locality regimes (single thread, single-source backend).
/// Every capacity must answer as the default one does; a mismatch is
/// recorded in `wrong`.
fn lru_sweep(
    g: &Graph,
    frozen: &FrozenStructure,
    structure_edges: &[EdgeId],
    query_count: usize,
    wrong: &mut Vec<String>,
) -> Vec<SweepRow> {
    let mut out = Vec::new();
    let capacities = [2usize, 4, 8, 16, 32];
    // Tight locality: ~8 live pairs (a couple of persisting outages);
    // wide: ~48 live pairs (a churning failure front, larger than any
    // swept capacity).
    for (locality, active_pairs) in [("tight", 8usize), ("wide", 48usize)] {
        let queries = build_queries(g, structure_edges, &[], query_count, active_pairs, 0xBEEF);
        let reference = ThroughputHarness::new(1).run(frozen, &queries).distances;
        for &capacity in &capacities {
            let harness = ThroughputHarness::new(1).with_cache_capacity(capacity);
            let _ = harness.run(frozen, &queries);
            let report = harness.run(frozen, &queries);
            let what = format!("lru sweep {locality} capacity={capacity}");
            check_answers(wrong, &what, &reference, &report);
            out.push(SweepRow {
                locality,
                active_pairs,
                capacity,
                qps: report.queries_per_sec(),
            });
        }
    }
    out
}

/// One snapshot load-time measurement.
struct SnapRow {
    format: &'static str,
    n: usize,
    structure_edges: usize,
    bytes: usize,
    freeze_us: f64,
    load_us: f64,
    open_us: f64,
    /// `freeze_us / open_us`.
    speedup: f64,
}

/// Wall times of `runs` in microseconds: the best of [`SNAPSHOT_BATCHES`]
/// mean-over-`reps` batches each (one warm-up apiece), with the runs
/// measured in *alternating* batches — the same interleaving the
/// telemetry-overhead gate uses — so host-load drift hits all of them
/// alike.  Many short batches give each run's minimum many chances to land
/// in a quiet stretch of a shared host, so the ratio the smoke floor
/// compares stays stable even when the absolute times move.
fn time_us<const K: usize>(
    reps: usize,
    mut runs: [&mut dyn FnMut() -> Option<u32>; K],
) -> [f64; K] {
    for run in runs.iter_mut() {
        std::hint::black_box(run());
    }
    let mut best = [f64::INFINITY; K];
    for _ in 0..SNAPSHOT_BATCHES {
        for (run, best) in runs.iter_mut().zip(&mut best) {
            let start = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(run());
            }
            *best = best.min(start.elapsed().as_secs_f64() * 1e6 / reps as f64);
        }
    }
    best
}

/// The snapshot experiment: time-to-first-answer for both formats, from
/// the edges (freeze: compile, encode, open), from a copy of the bytes
/// (owned load: open, copy, re-hash the base) and from borrowed bytes
/// (view open: validate only, serve from the bytes).
///
/// One long-lived `QueryEngine` per measurement models the server shape —
/// per-thread engines persist across snapshot (re)loads; the reloaded
/// structure keeps its fingerprint, so the engine does not even rebind —
/// and keeps the measured cycle at exactly input → servable → answered.
fn snapshot_bench(
    g: &Graph,
    frozen: &FrozenStructure,
    (multi, parts): (&FrozenStructure, &[FtBfsStructure]),
    reps: usize,
) -> Vec<SnapRow> {
    let n = g.vertex_count();
    let target = VertexId((n / 2) as u32);
    let edges: Vec<EdgeId> = frozen.to_structure().edges().collect();
    let (sources, resilience) = (frozen.sources(), frozen.resilience());
    let freeze_single = || FrozenStructure::from_edges(g, sources, resilience, edges.clone());
    let freeze_multi = || FrozenStructure::freeze_parts(g, parts);
    let formats: [(_, _, &dyn Fn() -> FrozenStructure); 2] = [
        ("single", frozen, &freeze_single),
        ("multi", multi, &freeze_multi),
    ];
    let mut rows = Vec::new();
    for (format, structure, freeze) in formats {
        let bytes = structure.save_with(SnapshotVersion::V2);
        let source = structure.primary_source();
        let answer = |engine: &mut QueryEngine, oracle: &FrozenView<'_>| {
            engine
                .try_distance_from(oracle, source, target, &FaultSpec::None)
                .expect("in-range query")
                .into_value()
        };
        let mut engines = [QueryEngine::new(), QueryEngine::new(), QueryEngine::new()];
        let [on_freeze, on_load, on_open] = &mut engines;
        let [freeze_us, load_us, open_us] = time_us(
            reps,
            [
                &mut || answer(on_freeze, &freeze()),
                &mut || answer(on_load, &FrozenStructure::load(&bytes).expect("loads")),
                &mut || answer(on_open, &FrozenView::open_bytes(&bytes).expect("opens")),
            ],
        );
        rows.push(SnapRow {
            format,
            n,
            structure_edges: structure.edge_count(),
            bytes: bytes.len(),
            freeze_us,
            load_us,
            open_us,
            speedup: freeze_us / open_us,
        });
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let sweep = args.iter().any(|a| a == "--lru-sweep");
    let snap = smoke || args.iter().any(|a| a == "--snapshot-bench");
    let out_path = json::out_path(&args, "BENCH_query.json");

    // The acceptance workload of the query-serving PR is
    // connected_gnp(120, 0.08); smoke mode keeps the same shape tiny.
    let workloads: Vec<(String, Graph)> = if smoke {
        vec![(
            "connected_gnp(40,0.15)".to_string(),
            generators::connected_gnp(40, 0.15, 42),
        )]
    } else {
        vec![
            (
                "connected_gnp(120,0.08)".to_string(),
                generators::connected_gnp(120, 0.08, 42),
            ),
            (
                "connected_gnp(300,0.035)".to_string(),
                generators::connected_gnp(300, 0.035, 42),
            ),
        ]
    };
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let query_count = if smoke { 4_000 } else { 100_000 };

    let mut rows: Vec<Row> = Vec::new();
    let mut table = Table::new(
        "E10 — frozen-structure query throughput (both slab layouts)",
        &[
            "graph", "backend", "n", "m", "|E(H)|", "threads", "queries", "qps", "p50_us", "p99_us",
        ],
    );
    let mut sweep_rows: Vec<SweepRow> = Vec::new();
    let mut smoke_qps: Option<f64> = None;
    let mut first_frozen: Option<FrozenStructure> = None;
    let mut first_queries: Option<Vec<Query>> = None;
    let mut wrong: Vec<String> = Vec::new();
    for (name, g) in &workloads {
        let w = TieBreak::new(g, 1);
        let h = DualFtBfsBuilder::new(g, &w, VertexId(0)).build().structure;
        let frozen = h.freeze(g);
        let structure_edges: Vec<EdgeId> = (0..frozen.edge_count())
            .map(|i| frozen.original_edge(i as u32))
            .collect();
        let queries = build_queries(g, &structure_edges, &[], query_count, 24, 0xF7B0);
        measure_backend(
            name,
            "single",
            g,
            &frozen,
            &queries,
            thread_counts,
            &mut table,
            &mut rows,
            &mut wrong,
        );
        if smoke_qps.is_none() {
            smoke_qps = rows.iter().find(|r| r.threads == 1).map(|r| r.qps);
        }
        if sweep && sweep_rows.is_empty() {
            sweep_rows = lru_sweep(g, &frozen, &structure_edges, query_count, &mut wrong);
        }
        if first_frozen.is_none() {
            first_frozen = Some(frozen);
            first_queries = Some(queries);
        }
    }

    // The multi-source S × V backend on the first workload's graph: freeze
    // the per-source FT-MBFS parts (f = 2) into per-source slabs and drive
    // explicit-source queries through the same harness.
    let (multi, parts) = {
        let (name, g) = &workloads[0];
        let w = TieBreak::new(g, 1);
        let sources: Vec<VertexId> = vec![
            VertexId(0),
            VertexId((g.vertex_count() / 2) as u32),
            VertexId((g.vertex_count() - 1) as u32),
        ];
        let parts = multi_failure_ftmbfs_parts(g, &w, &sources, 2);
        let multi = FrozenStructure::freeze_parts(g, &parts);
        let union_edges: Vec<EdgeId> = multi.to_structure().edges().collect();
        let queries = build_queries(g, &union_edges, &sources, query_count, 24, 0xF7B1);
        let label = format!("{name} S={}", sources.len());
        measure_backend(
            &label,
            "multi",
            g,
            &multi,
            &queries,
            thread_counts,
            &mut table,
            &mut rows,
            &mut wrong,
        );
        (multi, parts)
    };
    print!("{}", table.render());

    // The snapshot experiment: freeze, owned load and zero-rebuild open,
    // time-to-first-answer on the first workload's structures.
    let snap_rows: Vec<SnapRow> = if snap {
        let (_, g) = &workloads[0];
        let reps = if smoke { 400 } else { 100 };
        let measured = snapshot_bench(
            g,
            first_frozen.as_ref().expect("first workload was measured"),
            (&multi, &parts),
            reps,
        );
        let mut snap_table = Table::new(
            "E10b — time to a servable structure: freeze vs owned load vs view open (+1 query)",
            &[
                "format",
                "n",
                "|E|",
                "bytes",
                "freeze_us",
                "load_us",
                "open_us",
                "freeze/open",
            ],
        );
        for r in &measured {
            snap_table.row(vec![
                r.format.to_string(),
                r.n.to_string(),
                r.structure_edges.to_string(),
                r.bytes.to_string(),
                format!("{:.2}", r.freeze_us),
                format!("{:.2}", r.load_us),
                format!("{:.2}", r.open_us),
                format!("{:.1}x", r.speedup),
            ]);
        }
        print!("{}", snap_table.render());
        measured
    } else {
        Vec::new()
    };

    // The telemetry-overhead experiment: the cost of publishing the
    // engine counts and recording the batch histogram on the
    // single-threaded serving path.
    let first_frozen = first_frozen.as_ref().expect("first workload was measured");
    let first_queries = first_queries
        .as_ref()
        .expect("first workload built queries");
    let reference = ThroughputHarness::new(1)
        .run(first_frozen, first_queries)
        .distances;
    let pairs = telemetry_overhead(first_frozen, first_queries, &reference, &mut wrong);
    let sorted = |f: &dyn Fn(&(f64, f64)) -> f64| {
        let mut v: Vec<f64> = pairs.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let overhead = sorted(&|&(base, inst)| (base / inst - 1.0) * 100.0);
    let (overhead_q1, overhead_pct, overhead_q3) = (
        quantile(&overhead, 0.25),
        quantile(&overhead, 0.5),
        quantile(&overhead, 0.75),
    );
    let overhead_base = quantile(&sorted(&|p| p.0), 0.5);
    let overhead_inst = quantile(&sorted(&|p| p.1), 0.5);
    println!(
        "telemetry overhead over {OVERHEAD_PAIRS} interleaved pairs: median {overhead_pct:+.2}% \
         (q1 {overhead_q1:+.2}%, q3 {overhead_q3:+.2}%); median baseline {overhead_base:.0} qps, \
         instrumented {overhead_inst:.0} qps\n"
    );

    if !sweep_rows.is_empty() {
        let mut sweep_table = Table::new(
            "E10a — fault-LRU capacity sweep (1 thread, single backend)",
            &["locality", "active_pairs", "capacity", "qps"],
        );
        for r in &sweep_rows {
            sweep_table.row(vec![
                r.locality.to_string(),
                r.active_pairs.to_string(),
                r.capacity.to_string(),
                format!("{:.0}", r.qps),
            ]);
        }
        print!("{}", sweep_table.render());
    }

    if !wrong.is_empty() {
        for w in &wrong {
            eprintln!("WRONG ANSWERS: {w}");
        }
        std::process::exit(1);
    }
    println!("answers ok: every measured report matches the 1-thread run's");

    let provenance = json::provenance(if smoke { "smoke" } else { "full" });
    let mut json = String::from("{\n  \"experiment\": \"query_throughput\",\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"graph\": \"{}\", \"backend\": \"{}\", \"n\": {}, \"m\": {}, \
             \"structure_edges\": {}, \"threads\": {}, \"queries\": {}, \"qps\": {:.1}, \
             \"p50_us\": {:.3}, \"p99_us\": {:.3}, {provenance}}}{}\n",
            json::escape(&r.generator),
            r.backend,
            r.n,
            r.m,
            r.structure_edges,
            r.threads,
            r.queries,
            r.qps,
            r.p50_us,
            r.p99_us,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]");
    if !sweep_rows.is_empty() {
        json.push_str(",\n  \"lru_sweep\": [\n");
        for (i, r) in sweep_rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"locality\": \"{}\", \"active_pairs\": {}, \"capacity\": {}, \
                 \"qps\": {:.1}}}{}\n",
                r.locality,
                r.active_pairs,
                r.capacity,
                r.qps,
                if i + 1 < sweep_rows.len() { "," } else { "" },
            ));
        }
        json.push_str("  ]");
    }
    if !snap_rows.is_empty() {
        json.push_str(",\n  \"snapshot_bench\": [\n");
        for (i, r) in snap_rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"format\": \"{}\", \"n\": {}, \"structure_edges\": {}, \
                 \"bytes\": {}, \"freeze_us\": {:.3}, \"load_us\": {:.3}, \
                 \"open_us\": {:.3}, \"speedup\": {:.2}}}{}\n",
                r.format,
                r.n,
                r.structure_edges,
                r.bytes,
                r.freeze_us,
                r.load_us,
                r.open_us,
                r.speedup,
                if i + 1 < snap_rows.len() { "," } else { "" },
            ));
        }
        json.push_str("  ]");
    }
    json.push_str(&format!(
        ",\n  \"telemetry_overhead\": {{\"pairs\": {OVERHEAD_PAIRS}, \
         \"baseline_qps\": {overhead_base:.1}, \"instrumented_qps\": {overhead_inst:.1}, \
         \"overhead_pct_q1\": {overhead_q1:.3}, \"overhead_pct_median\": {overhead_pct:.3}, \
         \"overhead_pct_q3\": {overhead_q3:.3}, \"max_overhead_pct\": {:.1}}}",
        SMOKE_TELEMETRY_OVERHEAD_MAX * 100.0
    ));
    json.push_str("\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_query.json");
    println!("wrote {out_path}");

    if smoke {
        let qps = smoke_qps.expect("smoke mode measured a single-thread row");
        if qps < SMOKE_QPS_FLOOR {
            eprintln!(
                "SMOKE FLOOR VIOLATION: single-thread qps {qps:.0} < floor {SMOKE_QPS_FLOOR:.0}"
            );
            std::process::exit(1);
        }
        println!("smoke floor ok: {qps:.0} qps >= {SMOKE_QPS_FLOOR:.0}");
        let single = snap_rows
            .iter()
            .find(|r| r.format == "single")
            .expect("smoke mode ran the snapshot bench");
        if single.speedup < SMOKE_SNAPSHOT_SPEEDUP_FLOOR {
            eprintln!(
                "SMOKE SNAPSHOT FLOOR VIOLATION: view open {:.2}us is only {:.1}x faster \
                 than freeze {:.2}us (floor {SMOKE_SNAPSHOT_SPEEDUP_FLOOR}x)",
                single.open_us, single.speedup, single.freeze_us
            );
            std::process::exit(1);
        }
        println!(
            "smoke snapshot floor ok: view open beats freeze {:.1}x >= \
             {SMOKE_SNAPSHOT_SPEEDUP_FLOOR}x",
            single.speedup
        );
        if overhead_pct > SMOKE_TELEMETRY_OVERHEAD_MAX * 100.0 {
            eprintln!(
                "SMOKE TELEMETRY OVERHEAD VIOLATION: median per-pair overhead \
                 {overhead_pct:+.2}% (q1 {overhead_q1:+.2}%, q3 {overhead_q3:+.2}%) exceeds {:.0}%",
                SMOKE_TELEMETRY_OVERHEAD_MAX * 100.0
            );
            std::process::exit(1);
        }
        println!(
            "smoke telemetry overhead ok: median {overhead_pct:+.2}% <= {:.0}%",
            SMOKE_TELEMETRY_OVERHEAD_MAX * 100.0
        );
    }
}
