//! Turns set-up times and client runs into end-to-end metrics, and
//! spans, engine replays and server scrapes into the per-layer metrics
//! every workload reports from its traced run.

use crate::common::{counter_total, histogram_delta, secs, ClientRun, EngineReplay, IN_FLIGHT};
use crate::report::Report;
use crate::stats::{median, quartiles, summarize, Ratio};
use crate::trace::Tracer;
use ftbfs_serve::TelemetrySnapshot;
use ftbfs_telemetry::names;
use std::time::Duration;

/// Median duration in milliseconds of every span called `name`, with the
/// number of spans.
pub fn span_ms(tracer: &Tracer, name: &str) -> (f64, usize) {
    let ms: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    (median(&ms).unwrap_or(0.0), ms.len())
}

/// Adds `name` as the median of the spans called `span`, in ms.
pub fn span_metric(report: &mut Report, tracer: &Tracer, name: &str, span: &str) {
    let (ms, n) = span_ms(tracer, span);
    report.layer(name, ms, "ms", format!("median of {n} `{span}` spans"));
}

/// The set-up layers: corpus ingestion and the snapshot pipeline.
pub fn setup_layers(report: &mut Report, tracer: &Tracer, snapshot_bytes: usize) {
    span_metric(
        report,
        tracer,
        "corpus.ingest_text_ms",
        "corpus.ingest_text",
    );
    span_metric(
        report,
        tracer,
        "corpus.ingest_binary_ms",
        "corpus.ingest_binary",
    );
    span_metric(report, tracer, "oracle.freeze_ms", "oracle.freeze");
    span_metric(report, tracer, "oracle.encode_ms", "oracle.encode");
    report.layer(
        "oracle.snapshot_bytes",
        snapshot_bytes as f64,
        "bytes",
        "v2 snapshot of the served structure",
    );
    let (open_ms, n) = span_ms(tracer, "oracle.open");
    report.layer(
        "oracle.open_us",
        open_ms * 1e3,
        "us",
        format!("median of {n} validated opens (EpochSnapshot::from_bytes)"),
    );
}

/// `setup_s`: the median of the run's set-ups.
pub fn setup_metric(report: &mut Report, setup_s: &[f64]) {
    report.e2e(
        "setup_s",
        median(setup_s).unwrap_or(0.0),
        "s",
        format!("median of {} set-ups {setup_s:.3?}", setup_s.len()),
    );
}

/// The client-side end-to-end metrics of a timed serving phase, each a
/// median over the phase's windows of `window`.
pub fn client_metrics(
    report: &mut Report,
    run: &ClientRun,
    window: Duration,
) -> Result<(), String> {
    let lat = run
        .windowed
        .ok_or("too few requests per window for a tail percentile")?;
    let per = format!("median over {} windows of {window:?}", lat.windows);
    report.e2e(
        "ops_per_s",
        lat.rate,
        "op/s",
        format!(
            "{per}; {} requests in {:.3} s, 1 stream, {IN_FLIGHT} in flight",
            run.completed,
            secs(run.wall_ns)
        ),
    );
    report.e2e(
        "p50_us",
        lat.p50 / 1e3,
        "us",
        format!(
            "client latency p50, {per}, >= {} samples each",
            lat.min_samples
        ),
    );
    report.e2e(
        "tail_us",
        lat.tail / 1e3,
        "us",
        format!("client latency p{}, {per}", lat.tail_p),
    );
    Ok(())
}

/// Adds `<name>_p50` and `<name>_tail` of `samples` scaled by `scale`.
fn latency_pair(report: &mut Report, name: &str, samples: &[u64], scale: f64, unit: &'static str) {
    let mut sorted = samples.to_vec();
    match summarize(&mut sorted) {
        Some(s) => {
            report.layer(
                &format!("{name}_p50"),
                s.p50 as f64 * scale,
                unit,
                format!("n = {}", s.n),
            );
            report.layer(
                &format!("{name}_tail"),
                s.tail as f64 * scale,
                unit,
                format!("p{} of n = {}", s.tail_p, s.n),
            );
        }
        None => {
            for suffix in ["p50", "tail"] {
                report.layer(
                    &format!("{name}_{suffix}"),
                    0.0,
                    unit,
                    format!("too few samples (n = {})", samples.len()),
                );
            }
        }
    }
}

/// What one traced serving phase observed.
pub struct ServeObservation<'a> {
    /// Server scrape before the phase.
    pub before: &'a TelemetrySnapshot,
    /// Server scrape after the phase.
    pub after: &'a TelemetrySnapshot,
    /// The client's view of the phase.
    pub client: &'a ClientRun,
    /// The same requests through a standalone engine.
    pub replay: &'a EngineReplay,
}

/// The engine, serve and client layers.
pub fn serve_layers(report: &mut Report, obs: &ServeObservation<'_>) {
    let requests = obs.client.completed as f64;
    let counter = |name| (counter_total(obs.after, name) - counter_total(obs.before, name)) as f64;
    let (tree, cache, searches) = (
        counter(names::ENGINE_TREE_HITS),
        counter(names::ENGINE_CACHE_HITS),
        counter(names::ENGINE_SEARCHES),
    );
    for (name, value) in [
        ("engine.tree_hits", tree),
        ("engine.cache_hits", cache),
        ("engine.searches", searches),
    ] {
        let share = Ratio::new(value, requests);
        report.layer(name, value, "count", format!("share of requests {share}"));
    }
    let hits = Ratio::new(tree + cache, requests);
    report.layer(
        "engine.hit_ratio",
        hits.value(),
        "ratio",
        format!("(tree + cache hits) / requests = {hits}"),
    );

    let replay = obs.replay;
    latency_pair(report, "engine.search_us", &replay.search_ns, 1e-3, "us");
    latency_pair(report, "engine.hit_ns", &replay.hit_ns, 1.0, "ns");
    report.layer(
        "engine.replay_qps",
        replay.calls() as f64 / (replay.wall_ns.max(1) as f64 / 1e9),
        "1/s",
        format!(
            "{} calls through one standalone QueryEngine, {} searches",
            replay.calls(),
            replay.search_ns.len()
        ),
    );

    let mut queue_wait_p50 = 0.0;
    for (name, metric) in [
        (names::STAGE_SUBMIT_NS, "serve.submit_ns"),
        (names::STAGE_QUEUE_WAIT_NS, "serve.queue_wait_ns"),
        (names::STAGE_EXECUTE_NS, "serve.execute_ns"),
        (names::STAGE_REASSEMBLY_NS, "serve.reassembly_ns"),
    ] {
        let data = histogram_delta(obs.after, obs.before, name);
        let p50 = data.quantile(0.5).unwrap_or(0) as f64;
        let p99 = data.quantile(0.99).unwrap_or(0) as f64;
        if name == names::STAGE_QUEUE_WAIT_NS {
            queue_wait_p50 = p50;
        }
        let note = format!("server histogram, n = {} (bucket upper bound)", data.count);
        report.layer(&format!("{metric}_p50"), p50, "ns", note.clone());
        report.layer(&format!("{metric}_p99"), p99, "ns", note);
    }
    let client_p50 = obs.client.windowed.map_or(0.0, |w| w.p50);
    let share = Ratio::new(queue_wait_p50, client_p50);
    report.layer(
        "serve.queue_wait_share",
        share.value(),
        "ratio",
        format!("queue-wait p50 / client p50 in ns = {share}"),
    );
    let blocked = Ratio::new(obs.client.recv_blocked_ns as f64, obs.client.wall_ns as f64);
    report.layer(
        "client.recv_blocked_share",
        blocked.value(),
        "ratio",
        format!("ns blocked in recv / ns of the timed phase = {blocked}"),
    );
}

/// The interleaved traced-vs-untraced A/B: each pair holds the rate of
/// an untraced and a traced block run back to back.
pub fn overhead_layer(report: &mut Report, pairs: &[(f64, f64)], what: &str) {
    let pct: Vec<f64> = pairs
        .iter()
        .map(|&(plain, traced)| (plain - traced) / plain * 100.0)
        .collect();
    let mid = median(&pct).unwrap_or(0.0);
    let spread = quartiles(&pct).map_or_else(
        || "no spread (fewer than 2 pairs)".to_string(),
        |q| format!("q1 {:.3}, q3 {:.3}", q[0], q[2]),
    );
    report.layer(
        "bench.trace_overhead_pct",
        mid,
        "%",
        format!(
            "median of {} interleaved {what} pairs; {spread}",
            pairs.len()
        ),
    );
}
