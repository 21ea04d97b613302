//! Pieces every workload shares: corpus round trips, ground truth, the
//! closed-loop client, the standalone engine replay and scrape helpers.

use crate::report::Report;
use crate::stats::{pack, windowed, Reservoir, Windowed};
use crate::trace::Tracer;
use ftbfs_corpus::{csr_fingerprint, ingest_path, write_binary_path, write_text_path};
use ftbfs_graph::io::IngestOptions;
use ftbfs_graph::{bfs, FaultSpec, Graph, GraphView, VertexId};
use ftbfs_oracle::{Guarantee, QueryEngine};
use ftbfs_serve::{
    EpochSnapshot, ServeRequest, ServeTarget, StreamHandle, StreamServer, TelemetrySnapshot,
};
use ftbfs_telemetry::HistogramData;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Requests in flight per stream, as in E11/E13.
pub const IN_FLIGHT: usize = 64;

/// Client latencies kept per run (a uniform sample beyond this many).
pub const LATENCY_SAMPLES: usize = 1 << 20;

/// Deterministic splitmix64, so inputs depend on the seed alone.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seconds in a duration given in nanoseconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Steal and total CPU time of the host so far, in clock ticks (the
/// first line of `/proc/stat`), if readable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// A report line on how much CPU time the hypervisor took from this
/// host between two [`cpu_ticks`] readings, one cause of an outlying
/// run.
pub fn steal_line(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> String {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => format!(
            "host: {:.2}% of CPU time stolen by the hypervisor during the timed phase",
            (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0
        ),
        _ => "host: steal time not readable".to_string(),
    }
}

/// Nanoseconds elapsed since `since`.
pub fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The directory the benchmark writes to, below the working directory.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes `graph` in both corpus formats, ingests each file back (spans
/// `corpus.ingest_text` and `corpus.ingest_binary`), checks that both
/// reproduce the CSR exactly, and returns the binary-ingested copy.
pub fn corpus_round_trip(
    graph: &Graph,
    stem: &str,
    tracer: &mut Tracer,
    parent: usize,
) -> Result<Graph, String> {
    let dir = out_dir()?;
    let text = dir.join(format!("{stem}.gr"));
    let binary = dir.join(format!("{stem}.ftbg"));
    write_text_path(graph, &text).map_err(|e| format!("writing {}: {e}", text.display()))?;
    write_binary_path(graph, &binary).map_err(|e| format!("writing {}: {e}", binary.display()))?;
    let want = csr_fingerprint(graph);
    let mut ingest = |path: &Path, name: &'static str| -> Result<Graph, String> {
        let span = tracer.open(name, 0, Some(parent));
        let got = ingest_path(path, IngestOptions::strict());
        tracer.close(span);
        let (g, _) = got.map_err(|e| format!("ingesting {}: {e}", path.display()))?;
        if csr_fingerprint(&g) != want {
            return Err(format!("{} did not reproduce the graph", path.display()));
        }
        Ok(g)
    };
    ingest(&text, "corpus.ingest_text")?;
    let g = ingest(&binary, "corpus.ingest_binary")?;
    for path in [&text, &binary] {
        std::fs::remove_file(path).map_err(|e| format!("removing {}: {e}", path.display()))?;
    }
    Ok(g)
}

/// The target of a distance request.
pub fn target_of(request: &ServeRequest) -> VertexId {
    match request.target {
        ServeTarget::One(t) => t,
        _ => unreachable!("the benchmark issues distance requests only"),
    }
}

/// Ground truth for every request: the BFS distance from `source` to its
/// target in `G ∖ F`.  One BFS per distinct fault spec.
pub fn ground_truth(
    graph: &Graph,
    source: VertexId,
    requests: &[ServeRequest],
) -> Vec<Option<u32>> {
    let mut by_spec: HashMap<&FaultSpec, Vec<usize>> = HashMap::new();
    for (i, r) in requests.iter().enumerate() {
        by_spec.entry(&r.faults).or_default().push(i);
    }
    let mut expected = vec![None; requests.len()];
    for (spec, indices) in by_spec {
        let view = GraphView::new(graph).without_faults(&spec.to_fault_set());
        let result = bfs(&view, source);
        for i in indices {
            expected[i] = result.distance(target_of(&requests[i]));
        }
    }
    expected
}

/// A request sequence with its ground truth, served cyclically.
pub struct Load<'a> {
    /// The requests, in submission order.
    pub requests: &'a [ServeRequest],
    /// Ground-truth distance of each request.
    pub expected: &'a [Option<u32>],
    /// Publish every this many submitted requests, alternating between
    /// the two snapshots (the first is the one the server starts on).
    pub publish: Option<(u64, &'a [EpochSnapshot; 2])>,
}

/// When a client run stops submitting.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this many requests.
    Count(u64),
    /// At the first submit after this much time.
    For(Duration),
}

/// What one client run observed.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// Requests completed.
    pub completed: u64,
    /// Submit-to-in-order-receive latency and completion rate, window by
    /// window (one window for a counted run), from a
    /// uniform sample of at most [`LATENCY_SAMPLES`] requests.
    pub windowed: Option<Windowed>,
    /// Answers that disagreed with ground truth, errored or came out of
    /// order.
    pub wrong: u64,
    /// Wall time from the first submit to the last receive.
    pub wall_ns: u64,
    /// Time spent blocked in `recv` (traced runs only).
    pub recv_blocked_ns: u64,
    /// Answers per epoch fingerprint, in first-seen order.
    pub epochs: Vec<(u64, u64)>,
    /// Duration of every publish call.
    pub publish_ns: Vec<u64>,
}

impl ClientRun {
    /// Completed requests per second.
    pub fn qps(&self) -> f64 {
        self.completed as f64 / secs(self.wall_ns.max(1))
    }
}

/// Per-request spans of a traced client run.
pub struct RequestTrace<'t> {
    /// Where spans go.
    pub tracer: &'t mut Tracer,
    /// The span the request spans hang under.
    pub parent: usize,
    /// Record spans for every `stride`-th request.
    pub stride: u64,
}

/// One closed-loop client: a single stream with a fixed window, never
/// more than [`IN_FLIGHT`] requests in flight.
pub struct Client {
    stream: StreamHandle,
    next_seq: u64,
    cursor: u64,
    latencies: Reservoir,
    /// Completions per window of the current run.
    per_window: Vec<u64>,
    /// Window length of timed runs, and of the current run.
    summary_ns: u64,
    window_ns: u64,
    start: Instant,
}

impl Client {
    /// Opens a stream on `server`; timed runs are summarised in windows
    /// of `window` (see [`Windowed`]).
    pub fn new(server: &StreamServer, window: Duration) -> Self {
        Client {
            stream: server.open_stream(),
            next_seq: 0,
            cursor: 0,
            latencies: Reservoir::new(LATENCY_SAMPLES),
            per_window: Vec::new(),
            summary_ns: window.as_nanos() as u64,
            window_ns: 0,
            start: Instant::now(),
        }
    }

    /// Runs the closed loop over `load` (continuing the sequence where
    /// the previous run stopped) and checks every answer.
    pub fn run(
        &mut self,
        server: &StreamServer,
        load: &Load<'_>,
        stop: Stop,
        mut trace: Option<RequestTrace<'_>>,
    ) -> ClientRun {
        let mut run = ClientRun::default();
        self.latencies.clear();
        self.per_window.clear();
        self.window_ns = match stop {
            Stop::Count(_) => u64::MAX,
            Stop::For(_) => self.summary_ns,
        };
        let mut outstanding: VecDeque<(Instant, u64, Option<usize>)> =
            VecDeque::with_capacity(IN_FLIGHT);
        let len = load.requests.len() as u64;
        let start = Instant::now();
        self.start = start;
        let mut submitted = 0u64;
        loop {
            let done = match stop {
                Stop::Count(n) => submitted >= n,
                Stop::For(d) => start.elapsed() >= d,
            };
            if done {
                break;
            }
            if outstanding.len() == IN_FLIGHT {
                self.recv_one(load, &mut run, &mut outstanding, &mut trace);
            }
            let cursor = self.cursor;
            if let Some((every, snaps)) = load.publish {
                if cursor > 0 && cursor % every == 0 {
                    let next = snaps[((cursor / every) % 2) as usize].clone();
                    let t0 = Instant::now();
                    let published = server.publish(next);
                    run.publish_ns.push(elapsed_ns(t0));
                    if published.is_err() {
                        run.wrong += 1;
                    }
                }
            }
            let t_submit = Instant::now();
            let request = load.requests[(cursor % len) as usize].clone();
            if self.stream.submit(request).is_err() {
                run.wrong += 1;
                continue;
            }
            let span = match trace.as_mut() {
                Some(t) if cursor % t.stride == 0 => {
                    let after = t.tracer.ns(Instant::now());
                    let at = t.tracer.ns(t_submit);
                    let req = t
                        .tracer
                        .push("client.request", cursor, Some(t.parent), at, at);
                    t.tracer.push("client.submit", cursor, Some(req), at, after);
                    Some(req)
                }
                _ => None,
            };
            outstanding.push_back((t_submit, cursor, span));
            self.cursor += 1;
            submitted += 1;
        }
        while !outstanding.is_empty() {
            self.recv_one(load, &mut run, &mut outstanding, &mut trace);
        }
        run.wall_ns = elapsed_ns(start);
        run.completed = self.latencies.seen();
        let (full, window_s) = match stop {
            Stop::Count(_) => (1, secs(run.wall_ns)),
            Stop::For(d) => (
                (d.as_nanos() / u128::from(self.window_ns)) as usize,
                secs(self.window_ns),
            ),
        };
        run.windowed = windowed(self.latencies.kept_mut(), &self.per_window, full, window_s);
        run
    }

    /// The traced-vs-untraced A/B: `pairs` pairs of back-to-back blocks of
    /// `block` each, one untraced and one traced, alternating which runs
    /// first.  Returns `(untraced, traced)` request rates per pair.
    #[allow(clippy::too_many_arguments)]
    pub fn interleaved_ab(
        &mut self,
        server: &StreamServer,
        load: &Load<'_>,
        pairs: usize,
        block: Duration,
        tracer: &mut Tracer,
        stride: u64,
        report: &mut Report,
    ) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(pairs);
        for i in 0..pairs {
            let mut rate = |traced: bool| {
                let parent = tracer.open("bench.ab_block", 0, None);
                let trace = traced.then_some(RequestTrace {
                    tracer: &mut *tracer,
                    parent,
                    stride,
                });
                let run = self.run(server, load, Stop::For(block), trace);
                tracer.close(parent);
                report.checked(run.completed, run.wrong);
                run.qps()
            };
            let traced_first = i % 2 == 1;
            let first = rate(traced_first);
            let second = rate(!traced_first);
            out.push(if traced_first {
                (second, first)
            } else {
                (first, second)
            });
        }
        out
    }

    fn recv_one(
        &mut self,
        load: &Load<'_>,
        run: &mut ClientRun,
        outstanding: &mut VecDeque<(Instant, u64, Option<usize>)>,
        trace: &mut Option<RequestTrace<'_>>,
    ) {
        let t_wait = trace.as_ref().map(|_| Instant::now());
        let response = self.stream.recv();
        let t_done = Instant::now();
        let (t_submit, cursor, span) = outstanding
            .pop_front()
            .expect("a receive always has a request outstanding");
        let w = (t_done.duration_since(self.start).as_nanos() as u64 / self.window_ns) as usize;
        if self.per_window.len() <= w {
            self.per_window.resize(w + 1, 0);
        }
        self.per_window[w] += 1;
        let latency = t_done.duration_since(t_submit).as_nanos() as u64;
        self.latencies.record(pack(w as u64, latency));
        if let (Some(t), Some(t_wait)) = (trace.as_mut(), t_wait) {
            run.recv_blocked_ns += t_done.duration_since(t_wait).as_nanos() as u64;
            if let Some(req) = span {
                let (from, to) = (t.tracer.ns(t_wait), t.tracer.ns(t_done));
                t.tracer.push("client.recv", cursor, Some(req), from, to);
                t.tracer.close_at(req, to);
            }
        }
        let expected = load.expected[(cursor % load.requests.len() as u64) as usize];
        let ok = match response {
            Ok(r) => {
                let in_order = r.seq == self.next_seq;
                self.next_seq = r.seq + 1;
                match run.epochs.iter_mut().find(|(fp, _)| *fp == r.epoch) {
                    Some((_, count)) => *count += 1,
                    None => run.epochs.push((r.epoch, 1)),
                }
                in_order
                    && r.distance() == Some(expected)
                    && r.guarantee() == Some(Guarantee::Exact)
            }
            Err(_) => false,
        };
        if !ok {
            run.wrong += 1;
        }
    }
}

/// The request sequence replayed through one standalone engine.
#[derive(Debug, Default)]
pub struct EngineReplay {
    /// Latency of calls answered from the tree or the fault cache.
    pub hit_ns: Vec<u64>,
    /// Latency of calls that ran a search.
    pub search_ns: Vec<u64>,
    /// Wall time of the whole replay.
    pub wall_ns: u64,
    /// Answers that disagreed with ground truth.
    pub wrong: u64,
}

impl EngineReplay {
    /// Calls made.
    pub fn calls(&self) -> u64 {
        (self.hit_ns.len() + self.search_ns.len()) as u64
    }
}

/// Replays the first `limit` requests of `load` through a fresh
/// [`QueryEngine`] over `snapshot`, classifying each call by the change
/// in the engine's `QueryStats`.
pub fn replay_engine(snapshot: &EpochSnapshot, load: &Load<'_>, limit: usize) -> EngineReplay {
    let oracle = snapshot.open();
    let mut engine = QueryEngine::new();
    let mut replay = EngineReplay::default();
    let start = Instant::now();
    for (request, &expected) in load.requests.iter().zip(load.expected).take(limit) {
        let before = engine.stats().searches;
        let t0 = Instant::now();
        let answer = engine.try_distance(&oracle, target_of(request), &request.faults);
        let dt = elapsed_ns(t0);
        if engine.stats().searches > before {
            replay.search_ns.push(dt);
        } else {
            replay.hit_ns.push(dt);
        }
        let ok = matches!(&answer, Ok(a) if a.is_exact() && *a.value() == expected);
        if !ok {
            replay.wrong += 1;
        }
    }
    replay.wall_ns = elapsed_ns(start);
    replay
}

/// Sum of every series of counter `name` in a scrape.
pub fn counter_total(scrape: &TelemetrySnapshot, name: &str) -> u64 {
    scrape
        .counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

/// Every series of histogram `name` merged, minus the same in `before`:
/// the samples recorded between two scrapes.
pub fn histogram_delta(
    after: &TelemetrySnapshot,
    before: &TelemetrySnapshot,
    name: &str,
) -> HistogramData {
    let merged = |s: &TelemetrySnapshot| {
        let mut data = HistogramData::empty();
        for h in s.histograms.iter().filter(|h| h.name == name) {
            data.merge_from(&h.to_data());
        }
        data
    };
    let mut data = merged(after);
    let old = merged(before);
    for (c, o) in data.counts.iter_mut().zip(&old.counts) {
        *c -= o;
    }
    data.count -= old.count;
    data.sum = data.sum.wrapping_sub(old.sum);
    data
}
