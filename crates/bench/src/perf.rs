//! Perf-scenario harness behind the `rwbc-bench` binary.
//!
//! This module answers "how fast is the whole two-phase RWBC pipeline,
//! end to end, on a named scenario" — and records the answer as a
//! machine-readable `BENCH_<scenario>.json` file so the engine's perf
//! trajectory is tracked in-repo, PR over PR.
//!
//! A scenario is `(mode, topology, n, threads)`:
//!
//! * **mode** — `clean` (fault-free CONGEST), `reliable` (Bernoulli
//!   drops repaired by the [`Reliable`](congest_sim::Reliable) ARQ
//!   adapter), `chaos` (drops + duplicates + delays on the raw
//!   transport, exercising graceful degradation), or `corrupt`
//!   (payload corruption repaired by the checksummed reliable
//!   adapter — the price of the integrity layer).
//! * **topology** — `er` (connected G(n,p), expected degree
//!   max(6, 1.5·ln n)), `ba` (Barabási–Albert, m = 3), or `torus`
//!   (2-D torus).
//! * **n** — node count; the default matrix uses 256/1024/4096.
//! * **threads** — engine worker threads (results are identical at any
//!   thread count; only wall-clock moves).
//!
//! Each scenario runs `warmup` untimed trials then `trials` timed
//! trials of [`rwbc::distributed::approximate`] on the same graph and
//! config. Round/message/bit counts are asserted identical across
//! trials (the engine is deterministic — a mismatch is a bug, and the
//! harness panics so CI smoke runs fail loudly). Wall-clock is the only
//! quantity allowed to vary, and it is reported as median/p95/min/max
//! over the timed trials.

use std::time::Instant;

use congest_sim::trace::json::Json;
use congest_sim::{FaultPlan, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rwbc::distributed::{approximate, CountMode, DistributedConfig, PhaseBreakdown, Transport};
use rwbc::monte_carlo::TargetStrategy;
use rwbc_graph::generators::{barabasi_albert, connected_gnp, torus_2d};
use rwbc_graph::Graph;

/// Version stamp written into every emitted JSON file; bump on any
/// field change so downstream tooling can reject files it cannot read.
/// Version 2 added the execution-environment fields
/// (`host_parallelism`, `effective_threads`, `granularity`,
/// `oversubscribed`) so a `t4` artifact produced by a run that silently
/// executed single-threaded can no longer masquerade as parallel data.
/// Version 3 added `count_mode`, `sketch_suppressed`, and the
/// `phase_breakdown` object (walk vs count vs collect traffic), so the
/// sketch-compression claim is auditable per phase rather than only in
/// the pipeline totals. [`validate_bench_json`] and the serve artifact
/// validator accept this version only.
pub const SCHEMA_VERSION: i64 = 3;

/// Sketch precision the `sketch` bench mode runs with: 2⁸ = 256 buckets
/// keeps the count phase at 256 rounds at every matrix size while the
/// frame (8 index bits + value bits) stays far inside the budget.
pub const SKETCH_BENCH_PRECISION: u8 = 8;

/// Fault regime of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Fault-free CONGEST — the paper's model.
    Clean,
    /// Bernoulli drops repaired by the reliable-delivery adapter.
    Reliable,
    /// Drops + duplicates + delays on the raw transport.
    Chaos,
    /// Payload corruption (plus light drops) repaired by the
    /// checksummed reliable adapter — what the integrity layer costs.
    Corrupt,
    /// Fault-free CONGEST with the sketch-compressed count phase
    /// ([`SKETCH_BENCH_PRECISION`] index bits) — the traffic/memory
    /// trade against `clean` at the same workload.
    Sketch,
}

impl Mode {
    /// The scenario-name fragment (`clean` / `reliable` / `chaos` /
    /// `corrupt` / `sketch`).
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Clean => "clean",
            Mode::Reliable => "reliable",
            Mode::Chaos => "chaos",
            Mode::Corrupt => "corrupt",
            Mode::Sketch => "sketch",
        }
    }
}

/// Graph family of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Connected Erdős–Rényi G(n,p), expected degree max(6, 1.5·ln n).
    Er,
    /// Barabási–Albert preferential attachment, m = 3.
    Ba,
    /// 2-D torus (rows × cols = n, rows as square as n allows).
    Torus,
}

impl Topology {
    /// The scenario-name fragment (`er` / `ba` / `torus`).
    pub fn as_str(self) -> &'static str {
        match self {
            Topology::Er => "er",
            Topology::Ba => "ba",
            Topology::Torus => "torus",
        }
    }
}

/// One named benchmark scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Fault regime.
    pub mode: Mode,
    /// Graph family.
    pub topology: Topology,
    /// Node count.
    pub n: usize,
    /// Engine worker threads.
    pub threads: usize,
    /// Walks per node (Algorithm 1's K).
    pub walks: usize,
    /// Walk truncation length (Algorithm 1's l).
    pub length: usize,
    /// Master seed (graph generation and the simulator both derive
    /// from it, so a scenario is fully reproducible from its JSON).
    pub seed: u64,
}

impl Scenario {
    /// A scenario with the default workload (K = 4, l = 64, seed 42).
    pub fn new(mode: Mode, topology: Topology, n: usize, threads: usize) -> Scenario {
        Scenario {
            mode,
            topology,
            n,
            threads,
            walks: 4,
            length: 64,
            seed: 42,
        }
    }

    /// The canonical name, e.g. `clean-er-n4096-t1`.
    pub fn name(&self) -> String {
        format!(
            "{}-{}-n{}-t{}",
            self.mode.as_str(),
            self.topology.as_str(),
            self.n,
            self.threads
        )
    }

    /// Builds the scenario's graph deterministically from its seed.
    ///
    /// # Panics
    ///
    /// Panics if the generator fails (e.g. G(n,p) never connects within
    /// the attempt budget) — scenario parameters are chosen so it
    /// cannot on the default matrix.
    pub fn build_graph(&self) -> Graph {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9E37_79B9_7F4A_7C15);
        match self.topology {
            Topology::Er => {
                // Expected degree max(6, 1.5·ln n): comfortably above
                // the ln n connectivity threshold at every size, so the
                // rejection sampler converges fast.
                let deg = (1.5 * (self.n as f64).ln()).max(6.0);
                let p = deg / (self.n as f64 - 1.0);
                connected_gnp(self.n, p, 200, &mut rng).expect("connected G(n,p)")
            }
            Topology::Ba => barabasi_albert(self.n, 3, &mut rng).expect("BA graph"),
            Topology::Torus => {
                let (rows, cols) = torus_dims(self.n);
                torus_2d(rows, cols).expect("torus graph")
            }
        }
    }

    /// Builds the pipeline config for this scenario.
    ///
    /// # Panics
    ///
    /// Panics if the walk parameters are rejected (they never are for
    /// the default matrix).
    pub fn build_config(&self) -> DistributedConfig {
        let mut builder = DistributedConfig::builder()
            .walks(self.walks)
            .length(self.length)
            .seed(self.seed)
            .target(TargetStrategy::Fixed(0));
        if matches!(self.mode, Mode::Reliable | Mode::Corrupt) {
            builder = builder.transport(Transport::Reliable {
                checksums: self.mode == Mode::Corrupt,
            });
        }
        if self.mode == Mode::Sketch {
            builder = builder.count_mode(CountMode::Sketch {
                precision: SKETCH_BENCH_PRECISION,
            });
        }
        let mut cfg = builder.build().expect("scenario params");
        let sim = SimConfig::default().with_threads(self.threads);
        cfg.sim = match self.mode {
            Mode::Clean | Mode::Sketch => sim,
            // The constant-size reliable header needs budget headroom;
            // chaos uses the same coefficient so the two faulty modes
            // are comparable against each other.
            Mode::Reliable => sim
                .with_bandwidth_coeff(16)
                .with_faults(FaultPlan::default().with_drop_probability(0.02)),
            Mode::Chaos => sim.with_bandwidth_coeff(16).with_faults(
                FaultPlan::default()
                    .with_drop_probability(0.03)
                    .with_duplicate_probability(0.01)
                    .with_delay_probability(0.02),
            ),
            // The 32-bit seal needs additional headroom on top of the
            // reliable header.
            Mode::Corrupt => sim.with_bandwidth_coeff(24).with_faults(
                FaultPlan::default()
                    .with_corrupt_probability(0.02)
                    .with_drop_probability(0.01),
            ),
        };
        cfg
    }

    /// Default timed-trial count: fewer at the largest size so a full
    /// matrix run stays in single-digit minutes.
    pub fn default_trials(&self) -> usize {
        if self.n >= 4096 {
            3
        } else {
            5
        }
    }
}

/// Rows × cols for an n-node torus: the most square factorization with
/// both sides ≥ 3.
fn torus_dims(n: usize) -> (usize, usize) {
    let mut rows = (n as f64).sqrt() as usize;
    while rows >= 3 {
        if n.is_multiple_of(rows) && n / rows >= 3 {
            return (rows, n / rows);
        }
        rows -= 1;
    }
    panic!("no torus factorization for n={n}");
}

/// The default scenario matrix: clean ER at all three sizes (plus the
/// largest one multi-threaded), clean BA and torus at the middle size,
/// and the three faulty modes at the small size.
pub fn default_matrix(threads_n: usize) -> Vec<Scenario> {
    let mut m = vec![
        Scenario::new(Mode::Clean, Topology::Er, 256, 1),
        Scenario::new(Mode::Clean, Topology::Er, 1024, 1),
        Scenario::new(Mode::Clean, Topology::Er, 4096, 1),
    ];
    if threads_n > 1 {
        m.push(Scenario::new(Mode::Clean, Topology::Er, 4096, threads_n));
    }
    m.push(Scenario::new(Mode::Clean, Topology::Ba, 1024, 1));
    m.push(Scenario::new(Mode::Clean, Topology::Torus, 1024, 1));
    m.push(Scenario::new(Mode::Reliable, Topology::Er, 256, 1));
    m.push(Scenario::new(Mode::Chaos, Topology::Er, 256, 1));
    m.push(Scenario::new(Mode::Corrupt, Topology::Er, 256, 1));
    m.extend(sketch_matrix());
    m
}

/// The sketch-mode matrix: `sketch-er` at the two sizes where the
/// count-phase compression is the story — same workload (graph, seed,
/// K, l) as the matching `clean-er` scenarios, so the per-phase traffic
/// in the two artifacts is directly comparable.
pub fn sketch_matrix() -> Vec<Scenario> {
    vec![
        Scenario::new(Mode::Sketch, Topology::Er, 1024, 1),
        Scenario::new(Mode::Sketch, Topology::Er, 4096, 1),
    ]
}

/// The CI smoke matrix: one tiny clean scenario (n = 128).
pub fn smoke_matrix() -> Vec<Scenario> {
    vec![Scenario::new(Mode::Clean, Topology::Er, 128, 1)]
}

/// The threads-sweep matrix: `clean-er` at n = 4096 once per requested
/// thread count.
pub fn sweep_matrix(threads: &[usize]) -> Vec<Scenario> {
    threads
        .iter()
        .map(|&t| Scenario::new(Mode::Clean, Topology::Er, 4096, t))
        .collect()
}

/// The CI smoke sweep: `clean-er` at n = 128 once per requested thread
/// count — small enough to run on every push, still large enough (with
/// the default granularity of 16) that up to 8 workers genuinely run.
pub fn smoke_sweep_matrix(threads: &[usize]) -> Vec<Scenario> {
    threads
        .iter()
        .map(|&t| Scenario::new(Mode::Clean, Topology::Er, 128, t))
        .collect()
}

/// Groups results by workload identity — everything except the thread
/// count — and verifies the deterministic fingerprint `(rounds,
/// messages, bits)` is bit-identical within each group. This is the
/// sweep's determinism gate: a `t4` run that diverges from the `t1` run
/// of the same workload fails here, with both scenario names in the
/// message.
///
/// # Errors
///
/// A human-readable description of the first diverging pair.
pub fn check_sweep_fingerprints(results: &[BenchResult]) -> Result<(), String> {
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;
    type Key = (&'static str, &'static str, usize, usize, usize, u64);
    let mut seen: HashMap<Key, (String, (usize, u64, u64))> = HashMap::new();
    for r in results {
        let sc = &r.scenario;
        let key = (
            sc.mode.as_str(),
            sc.topology.as_str(),
            sc.n,
            sc.walks,
            sc.length,
            sc.seed,
        );
        let fp = (r.rounds, r.total_messages, r.total_bits);
        match seen.entry(key) {
            Entry::Occupied(e) => {
                let (first_name, expected) = e.get();
                if *expected != fp {
                    return Err(format!(
                        "fingerprint diverges across thread counts: {first_name} has \
                         (rounds, messages, bits) = {expected:?} but {} has {fp:?}",
                        sc.name()
                    ));
                }
            }
            Entry::Vacant(e) => {
                e.insert((sc.name(), fp));
            }
        }
    }
    Ok(())
}

/// Measured result of one scenario.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// Untimed warmup trials that preceded the samples.
    pub warmup: usize,
    /// Per-trial wall-clock, milliseconds, in run order.
    pub samples_ms: Vec<f64>,
    /// Total rounds across all phases (identical for every trial).
    pub rounds: usize,
    /// Total messages delivered across all phases.
    pub total_messages: u64,
    /// Total bits delivered across all phases.
    pub total_bits: u64,
    /// Peak RSS in bytes over this scenario (`VmHWM`, reset when the
    /// scenario starts), when the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
    /// Hardware threads the host exposed at run time, when knowable.
    pub host_parallelism: Option<u64>,
    /// Worker count the engine *actually* used (after the granularity
    /// clamp), echoed from `RunStats` — distinct from the requested
    /// `scenario.threads`.
    pub effective_threads: usize,
    /// Minimum nodes per worker chunk the run executed with.
    pub granularity: usize,
    /// True when the scenario requested more threads than the host
    /// exposes; wall-clock samples from such a run measure scheduler
    /// time-slicing, not parallel speedup.
    pub oversubscribed: bool,
    /// Per-phase traffic attribution (identical for every trial).
    pub phase_breakdown: PhaseBreakdown,
    /// Count-phase representation the run used.
    pub count_mode: CountMode,
    /// Broadcasts elided by the systolic only-modified-nodes rule
    /// (0 under exact mode).
    pub sketch_suppressed: u64,
}

/// Runs one scenario: `warmup` untimed trials, then `trials` timed
/// ones, asserting the round/message/bit counts replay identically.
///
/// # Panics
///
/// Panics if a trial fails or if two trials disagree on any
/// deterministic counter (an engine-determinism regression).
pub fn run_scenario(scenario: &Scenario, warmup: usize, trials: usize) -> BenchResult {
    assert!(trials > 0, "need at least one timed trial");
    reset_peak_rss();
    let graph = scenario.build_graph();
    let config = scenario.build_config();
    let mut samples_ms = Vec::with_capacity(trials);
    let mut fingerprint: Option<(usize, u64, u64)> = None;
    let mut exec_echo = (0usize, 0usize);
    let mut breakdown = PhaseBreakdown::default();
    let mut count_mode = CountMode::Exact;
    let mut sketch_suppressed = 0u64;
    for trial in 0..warmup + trials {
        let start = Instant::now();
        let run = approximate(&graph, &config).expect("scenario run");
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        let fp = run.fingerprint();
        exec_echo = (run.walk_stats.effective_threads, run.walk_stats.granularity);
        breakdown = run.phase_breakdown();
        count_mode = run.count_mode;
        sketch_suppressed = run.sketch_suppressed;
        match fingerprint {
            None => fingerprint = Some(fp),
            Some(expected) => assert_eq!(
                fp,
                expected,
                "determinism violation in scenario {}",
                scenario.name()
            ),
        }
        if trial >= warmup {
            samples_ms.push(elapsed_ms);
        }
    }
    let (rounds, total_messages, total_bits) = fingerprint.expect("at least one trial ran");
    let host_parallelism = host_parallelism();
    BenchResult {
        scenario: scenario.clone(),
        warmup,
        samples_ms,
        rounds,
        total_messages,
        total_bits,
        peak_rss_bytes: peak_rss_bytes(),
        host_parallelism,
        effective_threads: exec_echo.0,
        granularity: exec_echo.1,
        oversubscribed: host_parallelism.is_some_and(|h| scenario.threads as u64 > h),
        phase_breakdown: breakdown,
        count_mode,
        sketch_suppressed,
    }
}

/// Hardware threads the host exposes, when the platform reports them.
pub fn host_parallelism() -> Option<u64> {
    std::thread::available_parallelism()
        .ok()
        .map(|p| p.get() as u64)
}

impl BenchResult {
    /// Median wall-clock over the timed trials, milliseconds.
    pub fn median_ms(&self) -> f64 {
        let sorted = self.sorted_samples();
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        }
    }

    /// Nearest-rank p95 wall-clock, milliseconds.
    pub fn p95_ms(&self) -> f64 {
        let sorted = self.sorted_samples();
        let rank = ((0.95 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn sorted_samples(&self) -> Vec<f64> {
        let mut s = self.samples_ms.clone();
        s.sort_by(f64::total_cmp);
        s
    }

    /// Serializes the result to the `BENCH_*.json` schema.
    pub fn to_json(&self) -> Json {
        let sorted = self.sorted_samples();
        let min = sorted.first().copied().unwrap_or(0.0);
        let max = sorted.last().copied().unwrap_or(0.0);
        let sc = &self.scenario;
        Json::Obj(vec![
            ("schema_version".into(), Json::Int(SCHEMA_VERSION)),
            ("scenario".into(), Json::Str(sc.name())),
            ("mode".into(), Json::Str(sc.mode.as_str().into())),
            ("topology".into(), Json::Str(sc.topology.as_str().into())),
            ("n".into(), Json::Int(sc.n as i64)),
            ("threads".into(), Json::Int(sc.threads as i64)),
            (
                "params".into(),
                Json::Obj(vec![
                    ("walks".into(), Json::Int(sc.walks as i64)),
                    ("length".into(), Json::Int(sc.length as i64)),
                    ("seed".into(), Json::Int(sc.seed as i64)),
                ]),
            ),
            ("warmup".into(), Json::Int(self.warmup as i64)),
            ("trials".into(), Json::Int(self.samples_ms.len() as i64)),
            (
                "wall_clock_ms".into(),
                Json::Obj(vec![
                    ("median".into(), Json::Float(self.median_ms())),
                    ("p95".into(), Json::Float(self.p95_ms())),
                    ("min".into(), Json::Float(min)),
                    ("max".into(), Json::Float(max)),
                    (
                        "samples".into(),
                        Json::Arr(self.samples_ms.iter().map(|&s| Json::Float(s)).collect()),
                    ),
                ]),
            ),
            (
                "host_parallelism".into(),
                match self.host_parallelism {
                    Some(p) => Json::Int(p as i64),
                    None => Json::Null,
                },
            ),
            (
                "effective_threads".into(),
                Json::Int(self.effective_threads as i64),
            ),
            ("granularity".into(), Json::Int(self.granularity as i64)),
            ("oversubscribed".into(), Json::Bool(self.oversubscribed)),
            ("rounds".into(), Json::Int(self.rounds as i64)),
            (
                "total_messages".into(),
                Json::Int(self.total_messages as i64),
            ),
            ("total_bits".into(), Json::Int(self.total_bits as i64)),
            (
                "peak_rss_bytes".into(),
                match self.peak_rss_bytes {
                    Some(b) => Json::Int(b as i64),
                    None => Json::Null,
                },
            ),
            (
                "count_mode".into(),
                match self.count_mode {
                    CountMode::Exact => Json::Str("exact".into()),
                    CountMode::Sketch { precision } => Json::Str(format!("sketch-p{precision}")),
                },
            ),
            (
                "sketch_suppressed".into(),
                Json::Int(self.sketch_suppressed as i64),
            ),
            (
                "phase_breakdown".into(),
                Json::Obj(vec![
                    (
                        "collect".into(),
                        match &self.phase_breakdown.collect {
                            Some(t) => traffic_json(t),
                            None => Json::Null,
                        },
                    ),
                    ("walk".into(), traffic_json(&self.phase_breakdown.walk)),
                    ("count".into(), traffic_json(&self.phase_breakdown.count)),
                ]),
            ),
        ])
    }
}

/// Serializes one phase's traffic triple.
fn traffic_json(t: &congest_sim::PhaseTraffic) -> Json {
    Json::Obj(vec![
        ("rounds".into(), Json::Int(t.rounds as i64)),
        ("messages".into(), Json::Int(t.messages as i64)),
        ("bits".into(), Json::Int(t.bits as i64)),
    ])
}

/// The `BENCH_*.json` file name for a scenario, with an optional tag
/// (e.g. `baseline`) spliced in front of the scenario name.
pub fn bench_filename(tag: &str, scenario_name: &str) -> String {
    if tag.is_empty() {
        format!("BENCH_{scenario_name}.json")
    } else {
        format!("BENCH_{tag}-{scenario_name}.json")
    }
}

/// Validates a parsed `BENCH_*.json` document against the schema this
/// module emits.
///
/// # Errors
///
/// A human-readable description of the first violated constraint.
pub fn validate_bench_json(doc: &Json) -> Result<(), String> {
    fn req<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
        doc.get(key).ok_or_else(|| format!("missing field `{key}`"))
    }
    fn num(v: &Json, key: &str) -> Result<f64, String> {
        match v {
            Json::Int(i) => Ok(*i as f64),
            Json::Float(f) => Ok(*f),
            _ => Err(format!("field `{key}` is not a number")),
        }
    }
    let version = req(doc, "schema_version")?
        .as_u64()
        .ok_or("`schema_version` is not an integer")?;
    if version != SCHEMA_VERSION as u64 {
        return Err(format!("unsupported schema_version {version}"));
    }
    req(doc, "scenario")?
        .as_str()
        .ok_or("`scenario` is not a string")?;
    let mode = req(doc, "mode")?.as_str().ok_or("`mode` is not a string")?;
    if !matches!(mode, "clean" | "reliable" | "chaos" | "corrupt" | "sketch") {
        return Err(format!("unknown mode `{mode}`"));
    }
    let topo = req(doc, "topology")?
        .as_str()
        .ok_or("`topology` is not a string")?;
    if !matches!(topo, "er" | "ba" | "torus") {
        return Err(format!("unknown topology `{topo}`"));
    }
    for key in [
        "n",
        "threads",
        "warmup",
        "trials",
        "rounds",
        "total_messages",
        "total_bits",
    ] {
        req(doc, key)?
            .as_u64()
            .ok_or_else(|| format!("`{key}` is not a non-negative integer"))?;
    }
    if req(doc, "n")?.as_u64() == Some(0) || req(doc, "threads")?.as_u64() == Some(0) {
        return Err("`n` and `threads` must be positive".into());
    }
    let params = req(doc, "params")?;
    for key in ["walks", "length", "seed"] {
        params
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("`params.{key}` is not a non-negative integer"))?;
    }
    let wall = req(doc, "wall_clock_ms")?;
    for key in ["median", "p95", "min", "max"] {
        let v = wall
            .get(key)
            .ok_or_else(|| format!("missing field `wall_clock_ms.{key}`"))?;
        let ms = num(v, key)?;
        if !ms.is_finite() || ms < 0.0 {
            return Err(format!(
                "`wall_clock_ms.{key}` is not a finite non-negative number"
            ));
        }
    }
    let samples = match wall.get("samples") {
        Some(Json::Arr(items)) => items,
        _ => return Err("`wall_clock_ms.samples` is not an array".into()),
    };
    let trials = req(doc, "trials")?.as_usize().unwrap_or(0);
    if samples.len() != trials {
        return Err(format!(
            "`wall_clock_ms.samples` has {} entries but `trials` is {trials}",
            samples.len()
        ));
    }
    for (i, s) in samples.iter().enumerate() {
        let ms = num(s, "samples[i]")?;
        if !ms.is_finite() || ms < 0.0 {
            return Err(format!("sample {i} is not a finite non-negative number"));
        }
    }
    match req(doc, "peak_rss_bytes")? {
        Json::Null | Json::Int(_) => {}
        _ => return Err("`peak_rss_bytes` is not an integer or null".into()),
    }
    for key in ["effective_threads", "granularity"] {
        let v = req(doc, key)?
            .as_u64()
            .ok_or_else(|| format!("`{key}` is not a non-negative integer"))?;
        if v == 0 {
            return Err(format!("`{key}` must be positive"));
        }
    }
    match req(doc, "host_parallelism")? {
        Json::Null | Json::Int(_) => {}
        _ => return Err("`host_parallelism` is not an integer or null".into()),
    }
    req(doc, "oversubscribed")?
        .as_bool()
        .ok_or("`oversubscribed` is not a boolean")?;
    let cm = req(doc, "count_mode")?
        .as_str()
        .ok_or("`count_mode` is not a string")?;
    if cm != "exact" && !cm.starts_with("sketch-p") {
        return Err(format!("unknown count_mode `{cm}`"));
    }
    req(doc, "sketch_suppressed")?
        .as_u64()
        .ok_or("`sketch_suppressed` is not a non-negative integer")?;
    let breakdown = req(doc, "phase_breakdown")?;
    let check_traffic = |v: &Json, phase: &str| -> Result<(), String> {
        for key in ["rounds", "messages", "bits"] {
            v.get(key).and_then(Json::as_u64).ok_or_else(|| {
                format!("`phase_breakdown.{phase}.{key}` is not a non-negative integer")
            })?;
        }
        Ok(())
    };
    for phase in ["walk", "count"] {
        let v = breakdown
            .get(phase)
            .ok_or_else(|| format!("missing field `phase_breakdown.{phase}`"))?;
        check_traffic(v, phase)?;
    }
    match breakdown.get("collect") {
        Some(Json::Null) => {}
        Some(v) => check_traffic(v, "collect")?,
        None => return Err("missing field `phase_breakdown.collect`".into()),
    }
    Ok(())
}

/// Resets the `VmHWM` mark to the current RSS, so [`peak_rss_bytes`]
/// covers only what runs after this call rather than the whole process
/// lifetime. Best effort: where the write is refused the mark stays the
/// process peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`) since the process started or [`run_scenario`]
/// last reset the mark; `None` where the proc filesystem is absent.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_are_stable() {
        let s = Scenario::new(Mode::Clean, Topology::Er, 4096, 1);
        assert_eq!(s.name(), "clean-er-n4096-t1");
        let s = Scenario::new(Mode::Chaos, Topology::Torus, 256, 4);
        assert_eq!(s.name(), "chaos-torus-n256-t4");
    }

    #[test]
    fn torus_dims_factorize() {
        assert_eq!(torus_dims(256), (16, 16));
        assert_eq!(torus_dims(1024), (32, 32));
        assert_eq!(torus_dims(4096), (64, 64));
        assert_eq!(torus_dims(128), (8, 16));
    }

    #[test]
    fn smoke_scenario_emits_valid_schema() {
        let scenario = &smoke_matrix()[0];
        let result = run_scenario(scenario, 0, 2);
        assert_eq!(result.samples_ms.len(), 2);
        assert!(result.rounds > 0);
        assert!(result.total_messages > 0);
        let doc = result.to_json();
        validate_bench_json(&doc).expect("schema self-consistency");
        // Round-trips through the parser unchanged.
        let reparsed = Json::parse(&doc.to_json()).expect("parse");
        validate_bench_json(&reparsed).expect("schema after round-trip");
    }

    #[test]
    fn validator_rejects_missing_and_malformed_fields() {
        let scenario = Scenario::new(Mode::Clean, Topology::Torus, 9, 1);
        let mut result = run_scenario(&scenario, 0, 1);
        validate_bench_json(&result.to_json()).expect("valid before mutation");

        // Trial-count / sample-length mismatch.
        result.samples_ms.push(1.0);
        let doc = result.to_json();
        let broken = match doc {
            Json::Obj(mut fields) => {
                for (k, v) in &mut fields {
                    if k == "trials" {
                        *v = Json::Int(1);
                    }
                }
                Json::Obj(fields)
            }
            _ => unreachable!(),
        };
        assert!(validate_bench_json(&broken).is_err());

        // Missing top-level field.
        let doc = Json::parse(&format!(r#"{{"schema_version":{SCHEMA_VERSION}}}"#)).unwrap();
        assert!(validate_bench_json(&doc).is_err());

        // Unknown mode string.
        let mut fields = match result.to_json() {
            Json::Obj(f) => f,
            _ => unreachable!(),
        };
        for (k, v) in &mut fields {
            if k == "mode" {
                *v = Json::Str("frenzied".into());
            }
        }
        assert!(validate_bench_json(&Json::Obj(fields)).is_err());
    }

    #[test]
    fn v2_artifacts_record_the_execution_environment() {
        let scenario = Scenario::new(Mode::Clean, Topology::Er, 128, 4);
        let result = run_scenario(&scenario, 0, 1);
        // Default granularity 16 on 128 nodes leaves room for 4 workers.
        assert_eq!(result.effective_threads, 4);
        assert_eq!(result.granularity, 16);
        assert_eq!(result.host_parallelism, host_parallelism());
        let doc = result.to_json();
        validate_bench_json(&doc).expect("v2 schema self-consistency");
        assert_eq!(doc.get("effective_threads").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("granularity").and_then(Json::as_u64), Some(16));
        assert_eq!(
            doc.get("oversubscribed").and_then(Json::as_bool),
            Some(result.oversubscribed)
        );
    }

    #[test]
    fn validator_rejects_other_schema_versions() {
        let scenario = Scenario::new(Mode::Clean, Topology::Torus, 9, 1);
        let mut fields = match run_scenario(&scenario, 0, 1).to_json() {
            Json::Obj(f) => f,
            _ => unreachable!(),
        };
        validate_bench_json(&Json::Obj(fields.clone())).expect("current version");
        for version in [1, 2, SCHEMA_VERSION + 1] {
            for (k, v) in &mut fields {
                if k == "schema_version" {
                    *v = Json::Int(version);
                }
            }
            let err = validate_bench_json(&Json::Obj(fields.clone())).unwrap_err();
            assert!(err.contains("schema_version"), "{err}");
        }
    }

    #[test]
    fn sweep_matrices_cover_each_thread_count_once() {
        let m = sweep_matrix(&[1, 2, 4, 8]);
        assert_eq!(m.len(), 4);
        assert!(m.iter().all(|s| s.n == 4096));
        assert_eq!(
            m.iter().map(|s| s.threads).collect::<Vec<_>>(),
            vec![1, 2, 4, 8]
        );
        let smoke = smoke_sweep_matrix(&[1, 4]);
        assert_eq!(smoke.len(), 2);
        assert!(smoke.iter().all(|s| s.n == 128));
    }

    #[test]
    fn sweep_fingerprint_check_flags_divergence_across_thread_counts() {
        let make = |threads: usize, rounds: usize| BenchResult {
            scenario: Scenario::new(Mode::Clean, Topology::Er, 128, threads),
            warmup: 0,
            samples_ms: vec![1.0],
            rounds,
            total_messages: 10,
            total_bits: 100,
            peak_rss_bytes: None,
            host_parallelism: Some(1),
            effective_threads: threads,
            granularity: 16,
            oversubscribed: threads > 1,
            phase_breakdown: PhaseBreakdown::default(),
            count_mode: CountMode::Exact,
            sketch_suppressed: 0,
        };
        // Identical fingerprints across thread counts pass.
        check_sweep_fingerprints(&[make(1, 7), make(4, 7)]).expect("identical fingerprints");
        // Different workloads never compare against each other.
        let mut other = make(1, 99);
        other.scenario.n = 256;
        check_sweep_fingerprints(&[make(1, 7), other]).expect("different workloads");
        // A diverging thread count is an error naming both scenarios.
        let err = check_sweep_fingerprints(&[make(1, 7), make(4, 8)]).unwrap_err();
        assert!(err.contains("clean-er-n128-t1"), "{err}");
        assert!(err.contains("clean-er-n128-t4"), "{err}");
    }

    #[test]
    fn bench_filenames_include_tag() {
        assert_eq!(
            bench_filename("", "clean-er-n128-t1"),
            "BENCH_clean-er-n128-t1.json"
        );
        assert_eq!(
            bench_filename("baseline", "clean-er-n128-t1"),
            "BENCH_baseline-clean-er-n128-t1.json"
        );
    }
}
