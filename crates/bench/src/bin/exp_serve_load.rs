//! E11 — sustained serving load: the sharded continuous-stream front-end
//! (`ftbfs_serve::StreamServer`) driven by concurrent client streams with
//! a bounded in-flight window, **with a snapshot epoch swap landing in the
//! middle of the run**.  Measures what a deployment cares about: sustained
//! queries per second through the full submit → route → answer → reassemble
//! path, client-observed end-to-end latency percentiles (queue time
//! included, unlike E10's engine-side `work_ns`), and that an epoch swap
//! under load loses nothing — every client receives exactly one response
//! per submitted request, in submission order, each tagged with the epoch
//! that answered it.
//!
//! Results are spliced into `BENCH_query.json` as a `serve_load` section
//! (E10 owns the rest of the file and rewrites it wholesale, so CI runs
//! E10 before E11).
//!
//! `--smoke` shrinks the run to seconds-scale for CI **and enforces the
//! checked-in floors**: sustained throughput ≥ [`SMOKE_SERVE_QPS_FLOOR`]
//! and client-observed p99 ≤ [`SMOKE_SERVE_P99_CEILING_US`] on the 2-worker
//! configuration.  Either violation exits non-zero, so a serving-path
//! regression (slow routing, a stall during epoch swaps, reassembly
//! overhead) fails the build instead of silently landing.
//! The JSON path is `BENCH_query.json`, or
//! `target/BENCH_query.smoke.json` under `--smoke`; `--out` overrides it.
//! The section carries the provenance fields `{nproc, rustc, commit, mode}`.
//! `--scrape-out PATH` additionally dumps the first configuration's raw
//! telemetry scrape as JSON (the input format of `ftbfs-snapshot scrape`).
//!
//! Usage:
//!
//! ```text
//! exp_serve_load [--smoke] [--out PATH] [--scrape-out PATH]
//! ```
//!
//! The first configuration's server is scraped after its run, and the
//! request-lifecycle stage histograms (submit, queue wait, execute,
//! reassembly — see `ftbfs_telemetry::names`) land in the `serve_load`
//! section as per-series p50/p99 summaries, next to `queue_wait_share`:
//! the server's queue-wait p50 over the client-observed p50 (the same
//! ratio as perfbench's `serve.queue_wait_share`).
//!
//! The closed loops above keep every worker busy.  The `sparse` rows
//! measure the other end: one stream with one request in flight,
//! submitted every 1 ms and every 100 µs to a 2-worker server, so every
//! wait on both sides of the handoff runs out of work.  Each row reports
//! the client p50/p99 and the whole process's CPU time and voluntary
//! context switches per request (from `/proc/self/task`; `null` where
//! that is unavailable) — the price of the serve plane's spin-then-park
//! wait when there is nothing to spin for.

use ftbfs_bench::{build_requests, json, percentile_us, Table};
use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_graph::{generators, EdgeId, TieBreak, VertexId};
use ftbfs_oracle::{Freeze, SnapshotVersion};
use ftbfs_serve::{EpochSnapshot, ServeConfig, ServeRequest, StreamServer, TelemetrySnapshot};
use ftbfs_telemetry::{names, HistogramData};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The `--smoke` sustained-throughput floor in requests per second,
/// aggregate across clients, on the 2-worker configuration.
///
/// The smoke workload measures ≈ 900k req/s on the single-core CI
/// container class this repo targets (every request crosses two channels
/// and the reorder map); the floor sits a ~4× margin below that so only a
/// real serving-path regression trips it, not scheduler noise.
const SMOKE_SERVE_QPS_FLOOR: f64 = 200_000.0;

/// The `--smoke` ceiling on client-observed p99 latency in microseconds.
///
/// End-to-end latency is dominated by queue wait behind the in-flight
/// window (window / qps); with a 64-deep window the container measures a
/// p99 of ≈ 150–300 µs including the epoch swaps.  The ceiling sits a
/// wide margin above that: it exists to catch a swap-induced stall (a
/// worker blocking readers while reopening would push p99 by
/// milliseconds), not to police scheduler jitter.
const SMOKE_SERVE_P99_CEILING_US: f64 = 5_000.0;

/// One measured serving configuration.
struct Row {
    workers: usize,
    clients: usize,
    window: usize,
    requests: usize,
    publishes: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    first_epoch_answers: usize,
    second_epoch_answers: usize,
}

/// What one client stream observed: per-request end-to-end latencies and
/// the epoch tag of every response.
struct ClientObservation {
    latencies_ns: Vec<u64>,
    epoch_counts: (usize, usize),
}

/// Drives one client stream: windowed submission, end-to-end latency
/// stamped client-side, every response checked for order and epoch
/// validity.  Panics on any drop, reorder, error, or unknown epoch — the
/// bench doubles as a load test.
fn drive_client(
    server: &StreamServer,
    requests: &[ServeRequest],
    window: usize,
    epochs: (u64, u64),
) -> ClientObservation {
    let mut stream = server.open_stream();
    let mut submit_times: VecDeque<Instant> = VecDeque::with_capacity(window);
    let mut latencies_ns = Vec::with_capacity(requests.len());
    let mut epoch_counts = (0usize, 0usize);
    let mut next_expected = 0u64;
    let recv_one = |stream: &mut ftbfs_serve::StreamHandle,
                    submit_times: &mut VecDeque<Instant>,
                    next_expected: &mut u64,
                    epoch_counts: &mut (usize, usize),
                    latencies: &mut Vec<u64>| {
        let resp = stream.recv().expect("response for every request");
        let t0 = submit_times
            .pop_front()
            .expect("a submit time per response");
        latencies.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(resp.seq, *next_expected, "stream order violated");
        *next_expected += 1;
        if resp.epoch == epochs.0 {
            epoch_counts.0 += 1;
        } else if resp.epoch == epochs.1 {
            epoch_counts.1 += 1;
        } else {
            panic!("response from unknown epoch {:#x}", resp.epoch);
        }
        resp.outcome.expect("in-range request answered");
    };
    for request in requests {
        if submit_times.len() == window {
            recv_one(
                &mut stream,
                &mut submit_times,
                &mut next_expected,
                &mut epoch_counts,
                &mut latencies_ns,
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
            &mut epoch_counts,
            &mut latencies_ns,
        );
    }
    assert_eq!(latencies_ns.len(), requests.len(), "request dropped");
    ClientObservation {
        latencies_ns,
        epoch_counts,
    }
}

/// One sustained-load measurement: `clients` streams × `requests_each`
/// requests through a `workers`-shard server, with `publishes` epoch
/// swaps spread across the run (alternating between the two snapshots).
fn measure(
    snapshots: (&EpochSnapshot, &EpochSnapshot),
    requests: &[ServeRequest],
    workers: usize,
    clients: usize,
    window: usize,
    publishes: usize,
) -> (Row, TelemetrySnapshot) {
    let epochs = (snapshots.0.fingerprint(), snapshots.1.fingerprint());
    let server = StreamServer::launch(snapshots.0.clone(), ServeConfig::new().workers(workers));
    let publisher = server.publisher();
    let start = Instant::now();
    let observations: Vec<ClientObservation> = std::thread::scope(|scope| {
        let swapper = scope.spawn(|| {
            // Spread the swaps across the run: publish, breathe, repeat.
            // Each publish alternates the serving snapshot, so requests in
            // flight land on both sides of every swap.
            for i in 0..publishes {
                std::thread::sleep(Duration::from_millis(2));
                let next = if i % 2 == 0 { snapshots.1 } else { snapshots.0 };
                publisher
                    .publish(next.clone())
                    .expect("publisher outlives the run");
            }
        });
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| drive_client(&server, requests, window, epochs)))
            .collect();
        let obs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        swapper.join().expect("swapper thread");
        obs
    });
    let wall = start.elapsed();
    let scrape = server.scrape();
    server.shutdown();

    let total = clients * requests.len();
    let mut all_latencies: Vec<u64> = observations
        .iter()
        .flat_map(|o| o.latencies_ns.iter().copied())
        .collect();
    all_latencies.sort_unstable();
    assert_eq!(all_latencies.len(), total, "every request answered once");
    let row = Row {
        workers,
        clients,
        window,
        requests: total,
        publishes,
        qps: total as f64 / wall.as_secs_f64(),
        p50_us: percentile_us(&all_latencies, 50.0),
        p99_us: percentile_us(&all_latencies, 99.0),
        first_epoch_answers: observations.iter().map(|o| o.epoch_counts.0).sum(),
        second_epoch_answers: observations.iter().map(|o| o.epoch_counts.1).sum(),
    };
    (row, scrape)
}

/// One sparse-arrival measurement: see the module docs.
struct SparseRow {
    period_us: u64,
    requests: usize,
    p50_us: f64,
    p99_us: f64,
    /// Process CPU time and voluntary context switches per request.
    per_request: Option<(f64, f64)>,
}

/// CPU nanoseconds and voluntary context switches summed over this
/// process's threads (Linux `/proc/self/task`); `None` elsewhere.
fn process_cpu_and_switches() -> Option<(u64, u64)> {
    let mut cpu_ns = 0;
    let mut switches = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let dir = task.ok()?.path();
        let sched = std::fs::read_to_string(dir.join("schedstat")).ok()?;
        cpu_ns += sched.split_whitespace().next()?.parse::<u64>().ok()?;
        let status = std::fs::read_to_string(dir.join("status")).ok()?;
        switches += status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
            .trim()
            .parse::<u64>()
            .ok()?;
    }
    Some((cpu_ns, switches))
}

/// One request in flight, submitted every `period` to a fresh 2-worker
/// server, `count` times after a short warm-up.  Panics on any error or
/// out-of-order answer.
fn measure_sparse(
    snapshot: &EpochSnapshot,
    requests: &[ServeRequest],
    period: Duration,
    count: usize,
) -> SparseRow {
    let server = StreamServer::launch(snapshot.clone(), ServeConfig::new().workers(2));
    let mut stream = server.open_stream();
    let mut round_trip = |seq: usize| {
        let sent = Instant::now();
        stream
            .submit(requests[seq % requests.len()].clone())
            .expect("server is serving");
        let resp = stream.recv().expect("response for every request");
        let latency = sent.elapsed().as_nanos() as u64;
        assert_eq!(resp.seq, seq as u64, "stream order violated");
        resp.outcome.expect("in-range request answered");
        latency
    };
    let warm_up = 200;
    for seq in 0..warm_up {
        round_trip(seq);
    }
    let mut latencies = Vec::with_capacity(count);
    let before = process_cpu_and_switches();
    let start = Instant::now();
    for k in 0..count {
        let due = start + period * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        latencies.push(round_trip(warm_up + k));
    }
    let after = process_cpu_and_switches();
    drop(stream);
    server.shutdown();
    latencies.sort_unstable();
    SparseRow {
        period_us: period.as_micros() as u64,
        requests: count,
        p50_us: percentile_us(&latencies, 50.0),
        p99_us: percentile_us(&latencies, 99.0),
        per_request: before.zip(after).map(|((c0, v0), (c1, v1))| {
            (
                (c1 - c0) as f64 / 1e3 / count as f64,
                (v1 - v0) as f64 / count as f64,
            )
        }),
    }
}

/// The request-lifecycle stage histograms the `stages` summary reports.
const STAGE_NAMES: [&str; 4] = [
    names::STAGE_SUBMIT_NS,
    names::STAGE_QUEUE_WAIT_NS,
    names::STAGE_EXECUTE_NS,
    names::STAGE_REASSEMBLY_NS,
];

/// The queue-wait p50 of `scrape` (all label series merged; a bucket
/// upper bound) over the client-observed p50, both in ns.
fn queue_wait_share(scrape: &TelemetrySnapshot, client_p50_us: f64) -> f64 {
    let mut wait = HistogramData::empty();
    for h in &scrape.histograms {
        if h.name == names::STAGE_QUEUE_WAIT_NS {
            wait.merge_from(&h.to_data());
        }
    }
    wait.quantile(0.5).unwrap_or(0) as f64 / (client_p50_us * 1e3).max(1.0)
}

/// Prints the per-stage latency table of a scrape (one row per labelled
/// series of the four lifecycle stages).
fn print_stage_table(scrape: &TelemetrySnapshot) {
    let mut table = Table::new(
        "E11t — request-lifecycle stage latency (first config, server-side)",
        &["stage", "labels", "count", "p50_us", "p99_us"],
    );
    for h in &scrape.histograms {
        if !STAGE_NAMES.contains(&h.name.as_str()) || h.count == 0 {
            continue;
        }
        let data = h.to_data();
        let labels = h
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        table.row(vec![
            h.name.clone(),
            labels,
            h.count.to_string(),
            format!("{:.2}", data.quantile(0.5).unwrap_or(0) as f64 / 1e3),
            format!("{:.2}", data.quantile(0.99).unwrap_or(0) as f64 / 1e3),
        ]);
    }
    table.print();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = json::out_path(&args, "BENCH_query.json");
    let scrape_out = args
        .iter()
        .position(|a| a == "--scrape-out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    // Same graph family as E10.  The second epoch is a genuinely different
    // structure over the same graph (different tie-break seed ⇒ different
    // BFS forests ⇒ different fingerprint) but with identical fault-free
    // distances, so mid-swap answers stay verifiable.
    let g = if smoke {
        generators::connected_gnp(40, 0.15, 42)
    } else {
        generators::connected_gnp(120, 0.08, 42)
    };
    let snapshot_with_seed = |seed: u64| {
        let w = TieBreak::new(&g, seed);
        let h = DualFtBfsBuilder::new(&g, &w, VertexId(0)).build().structure;
        let frozen = h.freeze(&g);
        let edges: Vec<EdgeId> = (0..frozen.edge_count())
            .map(|i| frozen.original_edge(i as u32))
            .collect();
        let snap = EpochSnapshot::from_bytes(frozen.save_with(SnapshotVersion::V2))
            .expect("freshly saved snapshot validates");
        (snap, edges)
    };
    let (snap_a, structure_edges) = snapshot_with_seed(1);
    let (snap_b, _) = snapshot_with_seed(7);
    assert_ne!(
        snap_a.fingerprint(),
        snap_b.fingerprint(),
        "epoch swap needs two distinguishable snapshots"
    );

    let requests_each = if smoke { 60_000 } else { 400_000 };
    let publishes = if smoke { 10 } else { 40 };
    let requests = build_requests(&g, &structure_edges, requests_each, 0xE11);
    // (workers, clients, window): the smoke config first — its row feeds
    // the floors.
    let configs: &[(usize, usize, usize)] = if smoke {
        &[(2, 2, 64)]
    } else {
        &[(2, 2, 64), (4, 2, 64), (2, 4, 128), (4, 4, 128)]
    };

    let mut table = Table::new(
        "E11 — sustained stream serving under epoch swaps (StreamServer)",
        &[
            "workers", "clients", "window", "requests", "swaps", "req/s", "p50_us", "p99_us",
            "epochA", "epochB",
        ],
    );
    let mut rows = Vec::new();
    let mut first_scrape: Option<TelemetrySnapshot> = None;
    for &(workers, clients, window) in configs {
        let (row, scrape) = measure(
            (&snap_a, &snap_b),
            &requests,
            workers,
            clients,
            window,
            publishes,
        );
        if first_scrape.is_none() {
            first_scrape = Some(scrape);
        }
        assert_eq!(
            row.first_epoch_answers + row.second_epoch_answers,
            row.requests,
            "every answer tagged with one of the two epochs"
        );
        table.row(vec![
            row.workers.to_string(),
            row.clients.to_string(),
            row.window.to_string(),
            row.requests.to_string(),
            row.publishes.to_string(),
            format!("{:.0}", row.qps),
            format!("{:.2}", row.p50_us),
            format!("{:.2}", row.p99_us),
            row.first_epoch_answers.to_string(),
            row.second_epoch_answers.to_string(),
        ]);
        rows.push(row);
    }
    print!("{}", table.render());
    let first_scrape = first_scrape.expect("at least one configuration was measured");
    print_stage_table(&first_scrape);
    let queue_wait_share = queue_wait_share(&first_scrape, rows[0].p50_us);
    println!("queue_wait_share (first config): {queue_wait_share:.3}");
    let sparse_count = |period_us: u64| {
        if smoke {
            300
        } else {
            3_000_000 / period_us as usize
        }
    };
    let sparse: Vec<SparseRow> = [1000, 100]
        .into_iter()
        .map(|period_us| {
            let period = Duration::from_micros(period_us);
            measure_sparse(&snap_a, &requests, period, sparse_count(period_us))
        })
        .collect();
    let mut sparse_table = Table::new(
        "E11s — sparse arrivals (one request in flight, 2 workers)",
        &[
            "period_us",
            "requests",
            "p50_us",
            "p99_us",
            "cpu_us/req",
            "vol_cs/req",
        ],
    );
    let per_request = |r: &SparseRow, f: fn((f64, f64)) -> f64| {
        r.per_request
            .map_or("null".to_string(), |x| format!("{:.2}", f(x)))
    };
    for r in &sparse {
        sparse_table.row(vec![
            r.period_us.to_string(),
            r.requests.to_string(),
            format!("{:.2}", r.p50_us),
            format!("{:.2}", r.p99_us),
            per_request(r, |x| x.0),
            per_request(r, |x| x.1),
        ]);
    }
    sparse_table.print();
    if let Some(path) = &scrape_out {
        std::fs::write(path, first_scrape.to_json()).expect("write telemetry scrape JSON");
        println!("wrote telemetry scrape to {path}");
    }

    let mut section = format!(
        "{{\n    {},\n    \"results\": [\n",
        json::provenance(if smoke { "smoke" } else { "full" })
    );
    for (i, r) in rows.iter().enumerate() {
        section.push_str(&format!(
            "      {{\"workers\": {}, \"clients\": {}, \"window\": {}, \"requests\": {}, \
             \"publishes\": {}, \"qps\": {:.1}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \
             \"first_epoch_answers\": {}, \"second_epoch_answers\": {}}}{}\n",
            r.workers,
            r.clients,
            r.window,
            r.requests,
            r.publishes,
            r.qps,
            r.p50_us,
            r.p99_us,
            r.first_epoch_answers,
            r.second_epoch_answers,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    section.push_str("    ],\n    \"sparse\": [\n");
    for (i, r) in sparse.iter().enumerate() {
        section.push_str(&format!(
            "      {{\"period_us\": {}, \"requests\": {}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \
             \"cpu_us_per_req\": {}, \"vol_cs_per_req\": {}}}{}\n",
            r.period_us,
            r.requests,
            r.p50_us,
            r.p99_us,
            per_request(r, |x| x.0),
            per_request(r, |x| x.1),
            if i + 1 < sparse.len() { "," } else { "" },
        ));
    }
    section.push_str(&format!(
        "    ],\n    \"stages\": {},\n    \"queue_wait_share\": {queue_wait_share:.4},\n    \
         \"floors\": {{\"qps_floor\": {SMOKE_SERVE_QPS_FLOOR:.1}, \"p99_ceiling_us\": \
         {SMOKE_SERVE_P99_CEILING_US:.1}}}\n  }}",
        json::histogram_quantiles(&first_scrape, &STAGE_NAMES)
    ));
    let spliced = json::splice_section(
        std::fs::read_to_string(&out_path).ok(),
        "serve_load",
        "serve_load",
        &section,
    );
    std::fs::write(&out_path, &spliced).expect("write serve_load JSON");
    println!("wrote serve_load section to {out_path}");

    if smoke {
        let r = &rows[0];
        if r.qps < SMOKE_SERVE_QPS_FLOOR {
            eprintln!(
                "SMOKE FLOOR VIOLATION: sustained {:.0} req/s < floor {SMOKE_SERVE_QPS_FLOOR:.0}",
                r.qps
            );
            std::process::exit(1);
        }
        println!(
            "smoke serve floor ok: {:.0} req/s >= {SMOKE_SERVE_QPS_FLOOR:.0}",
            r.qps
        );
        if r.p99_us > SMOKE_SERVE_P99_CEILING_US {
            eprintln!(
                "SMOKE P99 VIOLATION: client-observed p99 {:.1}us > ceiling \
                 {SMOKE_SERVE_P99_CEILING_US:.1}us",
                r.p99_us
            );
            std::process::exit(1);
        }
        println!(
            "smoke serve p99 ok: {:.1}us <= {SMOKE_SERVE_P99_CEILING_US:.1}us",
            r.p99_us
        );
        if r.first_epoch_answers == 0 || r.second_epoch_answers == 0 {
            eprintln!(
                "SMOKE EPOCH VIOLATION: swaps did not land mid-run (epochA {} / epochB {})",
                r.first_epoch_answers, r.second_epoch_answers
            );
            std::process::exit(1);
        }
        println!(
            "smoke epoch swap ok: answers from both epochs ({} / {})",
            r.first_epoch_answers, r.second_epoch_answers
        );
    }
}
