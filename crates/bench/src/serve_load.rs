//! Load-replay harness for the `rwbc-serve` daemon, behind the
//! `rwbc-replay` binary.
//!
//! The perf harness in [`crate::perf`] measures the solver; this module
//! measures the *service*: it drives a stream of centrality / ranking /
//! stats queries at a daemon over the real TCP protocol and reports
//! throughput, exact p50/p99 latency (from the full sorted sample set),
//! a log-bucketed latency histogram (the trace profile's
//! [`LogHistogram`] buckets), and the typed outcome counts — how many
//! requests were served, shed (`Overloaded`), deadline-expired
//! (`Timeout`), or answered `NotReady`.
//!
//! Two traffic shapes:
//!
//! * **closed-loop** — `clients` workers, each firing its next request
//!   the moment the previous one completes. Measures capacity.
//! * **open-loop** — requests fired on a fixed schedule at `rate_hz`
//!   regardless of completions (each worker owns an interleaved slice
//!   of the schedule). Measures behavior *past* capacity, where a
//!   closed loop would coordinate-omit; when the daemon falls behind,
//!   latency and shed counts grow instead of the arrival rate shrinking.
//!
//! Results serialize to `BENCH_serve-*.json` via [`ServeBenchResult`],
//! a sibling schema to the solver artifacts with its own validator.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use congest_sim::splitmix64;
use congest_sim::trace::json::Json;
use congest_sim::trace::LogHistogram;
use rwbc_serve::protocol::{
    decode_response, encode_request, read_frame, write_frame, Request, RequestEnvelope, Response,
};
use rwbc_serve::{Client, ServeStats};

use crate::perf::SCHEMA_VERSION;

/// Traffic shape of a replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayMode {
    /// Each client fires its next request when the previous completes.
    Closed,
    /// Requests fire on a fixed schedule at this aggregate rate,
    /// regardless of completions.
    Open {
        /// Aggregate request rate across all clients, per second.
        rate_hz: f64,
    },
}

impl ReplayMode {
    /// Schema string (`closed` / `open`).
    pub fn as_str(self) -> &'static str {
        match self {
            ReplayMode::Closed => "closed",
            ReplayMode::Open { .. } => "open",
        }
    }
}

/// One replay run's parameters.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Daemon address.
    pub addr: String,
    /// Traffic shape.
    pub mode: ReplayMode,
    /// Concurrent client workers.
    pub clients: usize,
    /// Replay duration.
    pub duration: Duration,
    /// Per-request deadline, milliseconds.
    pub deadline_ms: u32,
    /// Workload-mix seed (node choices and request kinds derive from it).
    pub seed: u64,
    /// Nodes in the served graph (centrality queries cycle over them).
    pub n: usize,
    /// Scrape `Request::Metrics` at this cadence during the replay and
    /// embed the samples in the artifact; `None` disables scraping.
    pub metrics_every: Option<Duration>,
}

impl ReplayConfig {
    /// A closed-loop replay with 4 clients, a 1-second deadline, and a
    /// 250 ms metrics scrape.
    pub fn closed(addr: impl Into<String>, n: usize, duration: Duration) -> ReplayConfig {
        ReplayConfig {
            addr: addr.into(),
            mode: ReplayMode::Closed,
            clients: 4,
            duration,
            deadline_ms: 1000,
            seed: 42,
            n,
            metrics_every: Some(Duration::from_millis(250)),
        }
    }
}

/// One mid-replay `Request::Metrics` scrape, reduced to the counters
/// the time-series is about. Counters are cumulative since daemon
/// start, so consecutive samples must be non-decreasing — the
/// validator enforces that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSample {
    /// Milliseconds since the replay started (client clock).
    pub at_ms: u64,
    /// Daemon uptime at the scrape (daemon clock).
    pub uptime_ms: u64,
    /// `serve_requests_total`.
    pub requests_total: u64,
    /// `serve_requests_answered_total`.
    pub answered_total: u64,
    /// `serve_requests_timed_out_total`.
    pub timed_out_total: u64,
    /// `serve_requests_shed_total`.
    pub shed_total: u64,
    /// `serve_queue_depth` gauge.
    pub queue_depth: u64,
    /// `engine_rounds_total` (0 when the engine is not instrumented).
    pub engine_rounds: u64,
    /// Fast-window SLO burn rate.
    pub burn_fast: f64,
    /// Slow-window SLO burn rate.
    pub burn_slow: f64,
}

/// Typed outcome tallies across all replayed requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Requests that got a `Value` / `Ranking` / `Stats` answer.
    pub served: u64,
    /// Typed `Overloaded` sheds.
    pub overloaded: u64,
    /// Typed `Timeout` answers.
    pub timed_out: u64,
    /// Typed `NotReady` answers.
    pub not_ready: u64,
    /// Typed `Draining` refusals.
    pub draining: u64,
    /// Typed `Error` answers.
    pub errors: u64,
    /// Connect/socket failures.
    pub io_errors: u64,
}

impl OutcomeCounts {
    /// Total requests attempted.
    pub fn sent(&self) -> u64 {
        self.served
            + self.overloaded
            + self.timed_out
            + self.not_ready
            + self.draining
            + self.errors
            + self.io_errors
    }
}

/// Measured result of one replay.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The replay that was run.
    pub config: ReplayConfig,
    /// Outcome tallies.
    pub outcomes: OutcomeCounts,
    /// Per-request wall-clock for *served* requests, microseconds,
    /// ascending.
    pub latencies_us: Vec<u64>,
    /// Log-bucketed view of the same latencies.
    pub histogram: LogHistogram,
    /// Actual wall-clock the replay ran.
    pub elapsed: Duration,
    /// Daemon-side counters at the end of the replay, when readable.
    pub server_stats: Option<ServeStats>,
    /// Mid-replay metrics scrapes, oldest first (empty when scraping
    /// was disabled or every scrape failed).
    pub metrics_timeseries: Vec<MetricsSample>,
}

/// The `i`-th request of the deterministic mix: mostly single-node
/// centrality over a pseudorandom node, a top-8 ranking every 8th, a
/// stats probe every 32nd.
fn mix_request(seed: u64, i: u64, n: usize) -> Request {
    if i % 32 == 31 {
        Request::Stats
    } else if i % 8 == 7 {
        Request::TopK { k: 8 }
    } else {
        Request::Centrality {
            node: (splitmix64(seed ^ i) % n.max(1) as u64) as usize,
        }
    }
}

/// One raw request/response exchange (no retries — the replay records
/// every typed outcome as-is).
fn exchange(addr: &str, env: &RequestEnvelope, io_timeout: Duration) -> Option<Response> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(io_timeout)).ok()?;
    stream.set_write_timeout(Some(io_timeout)).ok()?;
    write_frame(&mut stream, &encode_request(env)).ok()?;
    let payload = read_frame(&mut stream).ok()?;
    decode_response(&payload).ok()
}

struct WorkerTally {
    outcomes: OutcomeCounts,
    latencies_us: Vec<u64>,
}

fn classify(tally: &mut OutcomeCounts, response: Option<&Response>) {
    match response {
        Some(Response::Value { .. } | Response::Ranking { .. } | Response::Stats(_)) => {
            tally.served += 1;
        }
        Some(Response::Overloaded { .. }) => tally.overloaded += 1,
        Some(Response::Timeout { .. }) => tally.timed_out += 1,
        Some(Response::NotReady { .. }) => tally.not_ready += 1,
        Some(Response::Draining) => tally.draining += 1,
        Some(_) => tally.errors += 1,
        None => tally.io_errors += 1,
    }
}

fn worker(
    config: &ReplayConfig,
    worker_id: usize,
    stop_at: Instant,
    seq: &AtomicU64,
) -> WorkerTally {
    let mut tally = WorkerTally {
        outcomes: OutcomeCounts::default(),
        latencies_us: Vec::new(),
    };
    let io_timeout = Duration::from_millis(u64::from(config.deadline_ms) + 2000);
    // Open loop: this worker owns schedule slots worker_id, worker_id +
    // clients, ... at the aggregate rate.
    let tick = match config.mode {
        ReplayMode::Closed => None,
        ReplayMode::Open { rate_hz } => Some(Duration::from_secs_f64(
            config.clients as f64 / rate_hz.max(1e-6),
        )),
    };
    let start = Instant::now();
    // Workers start phase-shifted so the aggregate schedule is evenly
    // spaced, not `clients` bursts per tick.
    let mut next_fire = match tick {
        Some(tick) => start + tick.mul_f64(worker_id as f64 / config.clients.max(1) as f64),
        None => start,
    };
    loop {
        let now = Instant::now();
        if now >= stop_at {
            break;
        }
        if let Some(tick) = tick {
            if now < next_fire {
                std::thread::sleep(next_fire - now);
            }
            // Fixed schedule: a late worker fires immediately but does
            // not compress future slots.
            next_fire += tick;
        }
        let i = seq.fetch_add(1, Ordering::Relaxed);
        let env = RequestEnvelope {
            deadline_ms: config.deadline_ms,
            request: mix_request(config.seed, i, config.n),
        };
        let t0 = Instant::now();
        let response = exchange(&config.addr, &env, io_timeout);
        let elapsed_us = t0.elapsed().as_micros() as u64;
        if matches!(
            response,
            Some(Response::Value { .. } | Response::Ranking { .. } | Response::Stats(_))
        ) {
            tally.latencies_us.push(elapsed_us);
        }
        classify(&mut tally.outcomes, response.as_ref());
    }
    tally
}

/// Runs one replay against an already-listening daemon.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_replay(config: &ReplayConfig) -> ReplayReport {
    let started = Instant::now();
    let stop_at = started + config.duration;
    let seq = Arc::new(AtomicU64::new(0));
    let (tallies, metrics_timeseries): (Vec<WorkerTally>, Vec<MetricsSample>) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..config.clients.max(1))
                .map(|worker_id| {
                    let seq = Arc::clone(&seq);
                    scope.spawn(move || worker(config, worker_id, stop_at, &seq))
                })
                .collect();
            let scraper = config
                .metrics_every
                .map(|every| scope.spawn(move || scrape_loop(config, started, stop_at, every)));
            let tallies = handles
                .into_iter()
                .map(|h| h.join().expect("replay worker"))
                .collect();
            let samples = match scraper {
                Some(handle) => handle.join().expect("metrics scraper"),
                None => Vec::new(),
            };
            (tallies, samples)
        });
    let elapsed = started.elapsed();

    let mut outcomes = OutcomeCounts::default();
    let mut latencies_us = Vec::new();
    let mut histogram = LogHistogram::new();
    for tally in tallies {
        let o = tally.outcomes;
        outcomes.served += o.served;
        outcomes.overloaded += o.overloaded;
        outcomes.timed_out += o.timed_out;
        outcomes.not_ready += o.not_ready;
        outcomes.draining += o.draining;
        outcomes.errors += o.errors;
        outcomes.io_errors += o.io_errors;
        for us in tally.latencies_us {
            histogram.add(us);
            latencies_us.push(us);
        }
    }
    latencies_us.sort_unstable();

    let server_stats = match Client::new(config.addr.clone())
        .with_max_attempts(1)
        .stats()
    {
        Ok(Response::Stats(stats)) => Some(stats),
        _ => None,
    };

    ReplayReport {
        config: config.clone(),
        outcomes,
        latencies_us,
        histogram,
        elapsed,
        server_stats,
        metrics_timeseries,
    }
}

/// Scrapes `Request::Metrics` at a fixed cadence until `stop_at`. A
/// failed scrape (daemon momentarily saturating its accept loop) is
/// skipped, not retried — the time-series records what a monitoring
/// agent would actually see.
fn scrape_loop(
    config: &ReplayConfig,
    started: Instant,
    stop_at: Instant,
    every: Duration,
) -> Vec<MetricsSample> {
    let client = Client::new(config.addr.clone());
    let mut samples = Vec::new();
    let mut next = started + every;
    while Instant::now() < stop_at {
        let now = Instant::now();
        if now < next {
            std::thread::sleep((next - now).min(Duration::from_millis(20)));
            continue;
        }
        next += every;
        if let Ok(Response::Metrics(report)) = client.metrics() {
            let snap = &report.snapshot;
            let counter = |name: &str| snap.counter(name).unwrap_or(0);
            samples.push(MetricsSample {
                at_ms: started.elapsed().as_millis() as u64,
                uptime_ms: report.uptime_ms,
                requests_total: counter("serve_requests_total"),
                answered_total: counter("serve_requests_answered_total"),
                timed_out_total: counter("serve_requests_timed_out_total"),
                shed_total: counter("serve_requests_shed_total"),
                queue_depth: snap.gauge("serve_queue_depth").unwrap_or(0),
                engine_rounds: counter("engine_rounds_total"),
                burn_fast: report.burn_fast,
                burn_slow: report.burn_slow,
            });
        }
    }
    samples
}

/// Nearest-rank percentile over an ascending slice (0 when empty).
pub fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl ReplayReport {
    /// Served-request throughput, requests per second.
    pub fn throughput_rps(&self) -> f64 {
        self.outcomes.served as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Exact p50 latency over served requests, microseconds.
    pub fn p50_us(&self) -> u64 {
        percentile_us(&self.latencies_us, 50.0)
    }

    /// Exact p99 latency over served requests, microseconds.
    pub fn p99_us(&self) -> u64 {
        percentile_us(&self.latencies_us, 99.0)
    }
}

/// A `BENCH_serve-*.json` artifact: one replay against one daemon
/// workload.
#[derive(Debug, Clone)]
pub struct ServeBenchResult {
    /// Scenario name, e.g. `serve-er-n1024-t1`.
    pub scenario: String,
    /// Served graph size.
    pub n: usize,
    /// Solver threads inside the daemon.
    pub threads: usize,
    /// Solve workload (walks, length, seed).
    pub walks: usize,
    /// Walk truncation length.
    pub length: usize,
    /// Master seed.
    pub seed: u64,
    /// The measured replay.
    pub report: ReplayReport,
}

impl ServeBenchResult {
    /// Serializes to the `BENCH_serve-*.json` schema.
    pub fn to_json(&self) -> Json {
        let report = &self.report;
        let rate_hz = match report.config.mode {
            ReplayMode::Closed => Json::Null,
            ReplayMode::Open { rate_hz } => Json::Float(rate_hz),
        };
        let histogram = Json::Arr(
            report
                .histogram
                .buckets()
                .into_iter()
                .map(|(lo, hi, count)| {
                    Json::Arr(vec![
                        Json::Int(lo as i64),
                        Json::Int(hi as i64),
                        Json::Int(count as i64),
                    ])
                })
                .collect(),
        );
        let solve = match &report.server_stats {
            Some(s) => Json::Obj(vec![
                ("rounds".into(), Json::Int(s.solve_rounds as i64)),
                (
                    "checkpoints_written".into(),
                    Json::Int(s.checkpoints_written as i64),
                ),
                (
                    "checkpoint_overhead_us".into(),
                    Json::Int(s.checkpoint_overhead_us as i64),
                ),
            ]),
            None => Json::Null,
        };
        let timeseries = Json::Arr(
            report
                .metrics_timeseries
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("at_ms".into(), Json::Int(s.at_ms as i64)),
                        ("uptime_ms".into(), Json::Int(s.uptime_ms as i64)),
                        ("requests_total".into(), Json::Int(s.requests_total as i64)),
                        ("answered_total".into(), Json::Int(s.answered_total as i64)),
                        (
                            "timed_out_total".into(),
                            Json::Int(s.timed_out_total as i64),
                        ),
                        ("shed_total".into(), Json::Int(s.shed_total as i64)),
                        ("queue_depth".into(), Json::Int(s.queue_depth as i64)),
                        ("engine_rounds".into(), Json::Int(s.engine_rounds as i64)),
                        ("burn_fast".into(), Json::Float(s.burn_fast)),
                        ("burn_slow".into(), Json::Float(s.burn_slow)),
                    ])
                })
                .collect(),
        );
        let o = &report.outcomes;
        Json::Obj(vec![
            ("schema_version".into(), Json::Int(SCHEMA_VERSION)),
            ("kind".into(), Json::Str("serve".into())),
            ("scenario".into(), Json::Str(self.scenario.clone())),
            ("n".into(), Json::Int(self.n as i64)),
            ("threads".into(), Json::Int(self.threads as i64)),
            (
                "params".into(),
                Json::Obj(vec![
                    ("walks".into(), Json::Int(self.walks as i64)),
                    ("length".into(), Json::Int(self.length as i64)),
                    ("seed".into(), Json::Int(self.seed as i64)),
                ]),
            ),
            (
                "load".into(),
                Json::Obj(vec![
                    ("mode".into(), Json::Str(report.config.mode.as_str().into())),
                    ("clients".into(), Json::Int(report.config.clients as i64)),
                    ("rate_hz".into(), rate_hz),
                    (
                        "duration_ms".into(),
                        Json::Int(report.elapsed.as_millis() as i64),
                    ),
                    (
                        "deadline_ms".into(),
                        Json::Int(i64::from(report.config.deadline_ms)),
                    ),
                ]),
            ),
            (
                "requests".into(),
                Json::Obj(vec![
                    ("sent".into(), Json::Int(o.sent() as i64)),
                    ("served".into(), Json::Int(o.served as i64)),
                    ("overloaded".into(), Json::Int(o.overloaded as i64)),
                    ("timed_out".into(), Json::Int(o.timed_out as i64)),
                    ("not_ready".into(), Json::Int(o.not_ready as i64)),
                    ("draining".into(), Json::Int(o.draining as i64)),
                    ("errors".into(), Json::Int(o.errors as i64)),
                    ("io_errors".into(), Json::Int(o.io_errors as i64)),
                ]),
            ),
            (
                "throughput_rps".into(),
                Json::Float(report.throughput_rps()),
            ),
            (
                "latency_us".into(),
                Json::Obj(vec![
                    ("p50".into(), Json::Int(report.p50_us() as i64)),
                    ("p99".into(), Json::Int(report.p99_us() as i64)),
                    ("mean".into(), Json::Float(report.histogram.mean())),
                    ("max".into(), Json::Int(report.histogram.max() as i64)),
                    ("histogram".into(), histogram),
                ]),
            ),
            ("solve".into(), solve),
            ("metrics_timeseries".into(), timeseries),
        ])
    }
}

/// Validates a parsed `BENCH_serve-*.json` document against the schema
/// [`ServeBenchResult::to_json`] emits.
///
/// # Errors
///
/// A human-readable description of the first violated constraint.
pub fn validate_serve_bench_json(doc: &Json) -> Result<(), String> {
    fn req<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
        doc.get(key).ok_or_else(|| format!("missing field `{key}`"))
    }
    let version = req(doc, "schema_version")?
        .as_u64()
        .ok_or("`schema_version` is not an integer")?;
    if version != SCHEMA_VERSION as u64 {
        return Err(format!("unsupported schema_version {version}"));
    }
    let kind = req(doc, "kind")?.as_str().ok_or("`kind` is not a string")?;
    if kind != "serve" {
        return Err(format!("`kind` is `{kind}`, expected `serve`"));
    }
    req(doc, "scenario")?
        .as_str()
        .ok_or("`scenario` is not a string")?;
    for key in ["n", "threads"] {
        if req(doc, key)?.as_u64().is_none_or(|v| v == 0) {
            return Err(format!("`{key}` is not a positive integer"));
        }
    }
    let params = req(doc, "params")?;
    for key in ["walks", "length", "seed"] {
        params
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("`params.{key}` is not a non-negative integer"))?;
    }
    let load = req(doc, "load")?;
    let mode = load
        .get("mode")
        .and_then(Json::as_str)
        .ok_or("`load.mode` is not a string")?;
    if !matches!(mode, "closed" | "open") {
        return Err(format!("unknown load mode `{mode}`"));
    }
    match load.get("rate_hz") {
        Some(Json::Null) if mode == "closed" => {}
        Some(Json::Float(r)) if mode == "open" && r.is_finite() && *r > 0.0 => {}
        Some(Json::Int(r)) if mode == "open" && *r > 0 => {}
        _ => return Err("`load.rate_hz` must be null (closed) or positive (open)".into()),
    }
    for key in ["clients", "duration_ms", "deadline_ms"] {
        load.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("`load.{key}` is not a non-negative integer"))?;
    }
    let requests = req(doc, "requests")?;
    let mut accounted = 0u64;
    for key in [
        "served",
        "overloaded",
        "timed_out",
        "not_ready",
        "draining",
        "errors",
        "io_errors",
    ] {
        accounted += requests
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("`requests.{key}` is not a non-negative integer"))?;
    }
    let sent = requests
        .get("sent")
        .and_then(Json::as_u64)
        .ok_or("`requests.sent` is not a non-negative integer")?;
    if sent != accounted {
        return Err(format!(
            "`requests.sent` is {sent} but the outcome counts sum to {accounted}"
        ));
    }
    match req(doc, "throughput_rps")? {
        Json::Float(r) if r.is_finite() && *r >= 0.0 => {}
        Json::Int(r) if *r >= 0 => {}
        _ => return Err("`throughput_rps` is not a finite non-negative number".into()),
    }
    let latency = req(doc, "latency_us")?;
    for key in ["p50", "p99", "max"] {
        latency
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("`latency_us.{key}` is not a non-negative integer"))?;
    }
    match latency.get("mean") {
        Some(Json::Float(m)) if m.is_finite() && *m >= 0.0 => {}
        Some(Json::Int(m)) if *m >= 0 => {}
        _ => return Err("`latency_us.mean` is not a finite non-negative number".into()),
    }
    let buckets = match latency.get("histogram") {
        Some(Json::Arr(items)) => items,
        _ => return Err("`latency_us.histogram` is not an array".into()),
    };
    let mut histogram_total = 0u64;
    for (i, bucket) in buckets.iter().enumerate() {
        let Json::Arr(triple) = bucket else {
            return Err(format!(
                "histogram bucket {i} is not a [lo, hi, count] array"
            ));
        };
        if triple.len() != 3 {
            return Err(format!(
                "histogram bucket {i} is not a [lo, hi, count] array"
            ));
        }
        let lo = triple[0].as_u64().ok_or("bucket lo is not an integer")?;
        let hi = triple[1].as_u64().ok_or("bucket hi is not an integer")?;
        let count = triple[2].as_u64().ok_or("bucket count is not an integer")?;
        if lo > hi || count == 0 {
            return Err(format!("histogram bucket {i} is degenerate"));
        }
        histogram_total += count;
    }
    let served = requests.get("served").and_then(Json::as_u64).unwrap_or(0);
    if histogram_total != served {
        return Err(format!(
            "histogram holds {histogram_total} samples but `requests.served` is {served}"
        ));
    }
    match req(doc, "solve")? {
        Json::Null => {}
        solve @ Json::Obj(_) => {
            for key in ["rounds", "checkpoints_written", "checkpoint_overhead_us"] {
                solve
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("`solve.{key}` is not a non-negative integer"))?;
            }
        }
        _ => return Err("`solve` is not an object or null".into()),
    }
    // The cumulative counters must be monotone non-decreasing across the
    // series, and at any instant the finished-request counters cannot
    // exceed admissions (mid-flight requests make `<`, never `>`).
    let Json::Arr(samples) = req(doc, "metrics_timeseries")? else {
        return Err("`metrics_timeseries` is not an array".into());
    };
    let counters = [
        "at_ms",
        "uptime_ms",
        "requests_total",
        "answered_total",
        "timed_out_total",
        "shed_total",
    ];
    let mut prev = [0u64; 6];
    for (i, sample) in samples.iter().enumerate() {
        for (slot, key) in counters.iter().enumerate() {
            let v = sample.get(key).and_then(Json::as_u64).ok_or_else(|| {
                format!("`metrics_timeseries[{i}].{key}` is not a non-negative integer")
            })?;
            if v < prev[slot] {
                return Err(format!(
                    "`metrics_timeseries[{i}].{key}` regressed: {v} < {}",
                    prev[slot]
                ));
            }
            prev[slot] = v;
        }
        for key in ["queue_depth", "engine_rounds"] {
            sample.get(key).and_then(Json::as_u64).ok_or_else(|| {
                format!("`metrics_timeseries[{i}].{key}` is not a non-negative integer")
            })?;
        }
        for key in ["burn_fast", "burn_slow"] {
            match sample.get(key) {
                Some(Json::Float(b)) if b.is_finite() && *b >= 0.0 => {}
                Some(Json::Int(b)) if *b >= 0 => {}
                _ => {
                    return Err(format!(
                        "`metrics_timeseries[{i}].{key}` is not a finite non-negative number"
                    ))
                }
            }
        }
        let total = sample.get("requests_total").and_then(Json::as_u64).unwrap();
        let finished = ["answered_total", "timed_out_total", "shed_total"]
            .iter()
            .map(|k| sample.get(k).and_then(Json::as_u64).unwrap())
            .sum::<u64>();
        if finished > total {
            return Err(format!(
                "`metrics_timeseries[{i}]`: {finished} finished requests exceed \
                 {total} admitted"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwbc_serve::{Daemon, ServeConfig, SolverConfig};

    fn ready_daemon(n: usize, seed: u64) -> Daemon {
        let daemon = Daemon::start(ServeConfig::new(SolverConfig::new(n, seed))).expect("bind");
        let client = Client::new(daemon.local_addr().to_string()).with_max_attempts(60);
        match client.centrality(0, 5000) {
            Ok(Response::Value { .. }) => daemon,
            other => panic!("daemon never became ready: {other:?}"),
        }
    }

    #[test]
    fn closed_loop_replay_emits_a_valid_artifact() {
        let daemon = ready_daemon(48, 3);
        let mut config = ReplayConfig::closed(
            daemon.local_addr().to_string(),
            48,
            Duration::from_millis(300),
        );
        config.clients = 2;
        config.metrics_every = Some(Duration::from_millis(50));
        let report = run_replay(&config);
        assert!(report.outcomes.served > 0, "nothing served: {report:?}");
        assert!(
            !report.metrics_timeseries.is_empty(),
            "a 300 ms replay scraping every 50 ms must land samples"
        );
        let first = &report.metrics_timeseries[0];
        assert!(
            first.requests_total >= first.answered_total,
            "finished requests cannot exceed admissions: {first:?}"
        );
        assert_eq!(
            report.outcomes.served as usize,
            report.latencies_us.len(),
            "every served request contributes one latency sample"
        );
        assert!(report.p50_us() <= report.p99_us());
        let result = ServeBenchResult {
            scenario: "serve-er-n48-t1".into(),
            n: 48,
            threads: 1,
            walks: 4,
            length: 64,
            seed: 3,
            report,
        };
        let doc = result.to_json();
        validate_serve_bench_json(&doc).expect("schema self-consistency");
        let reparsed = Json::parse(&doc.to_json()).expect("parse");
        validate_serve_bench_json(&reparsed).expect("schema after round-trip");
        // Only the current schema version, with its time series, is valid.
        let Json::Obj(fields) = reparsed else {
            unreachable!("the artifact is an object")
        };
        let mut older = fields.clone();
        for (k, v) in &mut older {
            if k == "schema_version" {
                *v = Json::Int(SCHEMA_VERSION - 1);
            }
        }
        assert!(validate_serve_bench_json(&Json::Obj(older)).is_err());
        let mut untimed = fields;
        untimed.retain(|(k, _)| k != "metrics_timeseries");
        assert!(validate_serve_bench_json(&Json::Obj(untimed)).is_err());
        daemon.drain();
        daemon.wait();
    }

    #[test]
    fn open_loop_replay_paces_the_schedule() {
        let daemon = ready_daemon(32, 5);
        let config = ReplayConfig {
            addr: daemon.local_addr().to_string(),
            mode: ReplayMode::Open { rate_hz: 50.0 },
            clients: 2,
            duration: Duration::from_millis(400),
            deadline_ms: 1000,
            seed: 9,
            n: 32,
            metrics_every: None,
        };
        let report = run_replay(&config);
        // 50 req/s for 0.4 s ≈ 20 arrivals; pacing means we sent roughly
        // that, not thousands.
        let sent = report.outcomes.sent();
        assert!(sent >= 5, "open loop barely fired: {sent}");
        assert!(sent <= 60, "open loop did not pace: {sent}");
        daemon.drain();
        daemon.wait();
    }

    #[test]
    fn validator_rejects_inconsistent_outcome_sums() {
        let doc = Json::parse(
            r#"{"schema_version":3,"kind":"serve","scenario":"serve-er-n8-t1",
                "n":8,"threads":1,"params":{"walks":4,"length":64,"seed":42},
                "load":{"mode":"closed","clients":1,"rate_hz":null,
                        "duration_ms":10,"deadline_ms":100},
                "requests":{"sent":5,"served":1,"overloaded":0,"timed_out":0,
                            "not_ready":0,"draining":0,"errors":0,"io_errors":0},
                "throughput_rps":1.0,
                "latency_us":{"p50":1,"p99":1,"mean":1.0,"max":1,
                              "histogram":[[1,1,1]]},
                "solve":null,"metrics_timeseries":[]}"#,
        )
        .expect("parse");
        let err = validate_serve_bench_json(&doc).unwrap_err();
        assert!(err.contains("sum"), "unexpected error: {err}");
    }
}
