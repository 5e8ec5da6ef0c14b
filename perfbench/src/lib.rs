//! The repository benchmark: three workloads of the distributed RWBC
//! pipeline, timed end to end or broken down by layer, with every solve's
//! output checked.
//!
//! Workloads are built by `rwbc_bench::perf::Scenario`'s graph and config
//! builders, so at the default seed (42) `exact-*` and `sketch-*` solve
//! exactly the committed `BENCH_clean-er-n4096-*` and
//! `BENCH_sketch-er-n4096-t1` scenarios. The seed is the benchmark's
//! argument; the program under test receives only the generated graph
//! and config.
//!
//! An end-to-end run ([`run`] with `trace = false`) times plain
//! [`approximate`] calls. A traced run times the same solve layer by
//! layer through [`layers`], alongside untraced solves that give the
//! tracing overhead. Each run is its own process, so its peak RSS is its
//! own.

pub mod layers;
pub mod procfs;

use std::time::Instant;

use congest_sim::FaultPlan;
use rwbc::distributed::{approximate, DistributedConfig, DistributedRun};
use rwbc::RwbcError;
use rwbc_bench::perf::{Mode, Scenario, Topology};
use rwbc_graph::Graph;

use layers::LayerSample;

/// The benchmark's workloads, by name.
pub const WORKLOADS: [&str; 3] = [
    "exact-er-n4096-t2",
    "sketch-er-n4096-t1",
    "corrupt-ba-n512-t1",
];

/// Set-ups timed before each solve. The machine's speed drifts over a
/// run, so set-up is sampled next to every solve rather than once at the
/// start, and `setup_s` is the median of all samples.
const SETUP_REPS: usize = 5;

/// The scenario behind a workload name, with its seed replaced by `seed`.
pub fn scenario(workload: &str, seed: u64) -> Option<Scenario> {
    let mut sc = match workload {
        // The dense count phase: every node sends every round, so engine
        // commit, parallel fan-out and first-touch memory dominate.
        "exact-er-n4096-t2" => Scenario::new(Mode::Clean, Topology::Er, 4096, 2),
        // Same graph and walks, short systolic count: sparse tails and
        // per-round O(n) engine overhead show here.
        "sketch-er-n4096-t1" => Scenario::new(Mode::Sketch, Topology::Er, 4096, 1),
        // Hub-skewed graph behind CRC-checked ARQ with corruption and
        // drops: the fault draws, retransmission and `approximate`'s
        // reliable branch.
        "corrupt-ba-n512-t1" => Scenario::new(Mode::Corrupt, Topology::Ba, 512, 1),
        _ => return None,
    };
    sc.seed = seed;
    Some(sc)
}

/// `(rounds, messages, bits)` of a solve, summed over its phases.
pub type Fingerprint = (usize, u64, u64);

/// The fingerprint of a finished solve.
pub fn fingerprint(run: &DistributedRun) -> Fingerprint {
    let b = run.phase_breakdown();
    let collect = b.collect.unwrap_or_default();
    (
        run.total_rounds(),
        collect.messages + b.walk.messages + b.count.messages,
        collect.bits + b.walk.bits + b.count.bits,
    )
}

/// The fingerprint committed in `BENCH_clean-er-n4096-t*.json` and
/// `BENCH_sketch-er-n4096-t1.json`, for the scenarios those files
/// record (seed 42).
pub fn committed_fingerprint(sc: &Scenario) -> Option<Fingerprint> {
    if sc.seed != 42 || sc.n != 4096 || sc.topology != Topology::Er {
        return None;
    }
    match sc.mode {
        Mode::Clean => Some((4184, 210_380_973, 5_257_439_115)),
        Mode::Sketch => Some((344, 8_927_441, 378_797_535)),
        _ => None,
    }
}

/// Checks one solve's output.
///
/// * It stays within the CONGEST budget.
/// * It equals `reference`, an earlier solve of the same input (the
///   first solve of the run, or the untraced solve a traced one shadows).
/// * Its centrality is bit-identical to `twin`, the same config solved
///   with no faults, and the fault report is clean: retransmission must
///   repair every injected fault.
/// * Its fingerprint equals `committed`, when the scenario has one.
///
/// # Errors
///
/// A description of the first check that failed.
pub fn check(
    run: &DistributedRun,
    reference: Option<&DistributedRun>,
    twin: Option<&DistributedRun>,
    committed: Option<Fingerprint>,
) -> Result<(), String> {
    if !run.congest_compliant() {
        return Err("a phase exceeded the CONGEST bit budget".into());
    }
    if let Some(expected) = committed {
        if fingerprint(run) != expected {
            return Err(format!(
                "fingerprint {:?} differs from the committed {expected:?}",
                fingerprint(run)
            ));
        }
    }
    if let Some(twin) = twin {
        if !same_bits(run, twin) || run.fixed_point_bits != twin.fixed_point_bits {
            return Err("repaired centrality differs from the fault-free solve".into());
        }
        if !run.degradation.is_clean() {
            return Err(format!("faults left damage: {:?}", run.degradation));
        }
    }
    if let Some(reference) = reference {
        if fingerprint(run) != fingerprint(reference) {
            return Err(format!(
                "fingerprint {:?} differs from the first solve's {:?}",
                fingerprint(run),
                fingerprint(reference)
            ));
        }
        if !same_bits(run, reference) || run != reference {
            return Err("solve differs from the first solve of the same input".into());
        }
    }
    Ok(())
}

fn same_bits(a: &DistributedRun, b: &DistributedRun) -> bool {
    let (a, b) = (a.centrality.as_slice(), b.centrality.as_slice());
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Solves attempted, fault-free twins and warm-ups included.
    pub attempted: u64,
    /// Solves that errored or failed [`check`].
    pub failed: u64,
    /// Why each failed solve failed.
    pub failures: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records one solve: runs [`check`] on it and keeps it if it passed.
    fn record(
        &mut self,
        result: Result<DistributedRun, RwbcError>,
        refs: &References<'_>,
    ) -> Option<DistributedRun> {
        self.attempted += 1;
        let outcome = result
            .map_err(|e| format!("solve failed: {e}"))
            .and_then(|run| {
                check(&run, refs.first.as_ref(), refs.twin, refs.committed).map(|()| run)
            });
        match outcome {
            Ok(run) => Some(run),
            Err(why) => {
                self.failed += 1;
                self.failures.push(why);
                None
            }
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and each metric
    /// with its unit, as one JSON object.
    pub fn to_json(&self) -> String {
        use congest_sim::trace::json::Json;
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = Json::Obj(vec![
                    ("value".into(), Json::Float(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), body)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_json()
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest sample with at least ten samples above it: the highest
/// percentile the sample count supports. With ten or fewer samples there
/// is no such percentile and the maximum is reported.
pub fn tail(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n > 10 => v[n - 11],
        n => v[n - 1],
    }
}

/// A workload's inputs, and the timings of building them.
struct Setup {
    graph: Graph,
    config: DistributedConfig,
    /// Graph generation plus config build, seconds, per sample.
    total_s: Vec<f64>,
    /// Graph generation alone, seconds, per sample.
    graph_s: Vec<f64>,
}

impl Setup {
    fn new(sc: &Scenario) -> Setup {
        let mut setup = Setup {
            graph: sc.build_graph(),
            config: sc.build_config(),
            total_s: Vec::new(),
            graph_s: Vec::new(),
        };
        setup.time(sc);
        setup
    }

    /// Builds the inputs [`SETUP_REPS`] more times, timing each.
    fn time(&mut self, sc: &Scenario) {
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            std::hint::black_box(sc.build_graph());
            self.graph_s.push(t.elapsed().as_secs_f64());
            std::hint::black_box(sc.build_config());
            self.total_s.push(t.elapsed().as_secs_f64());
        }
    }
}

/// Whether the scenario injects faults; its solves are then checked
/// against a fault-free twin.
fn faulty(sc: &Scenario) -> bool {
    !matches!(sc.mode, Mode::Clean | Mode::Sketch)
}

/// Solves the config with its fault plan emptied: the reference a
/// repaired solve must reproduce bit for bit.
fn solve_twin(setup: &Setup) -> Result<DistributedRun, RwbcError> {
    let mut config = setup.config.clone();
    config.sim = config.sim.with_faults(FaultPlan::default());
    approximate(&setup.graph, &config)
}

/// Runs one workload for about `seconds` of measurement and reports the
/// end-to-end metrics (`trace = false`) or the per-layer ones.
///
/// Every run starts with one untimed solve. It pays the process's cold
/// start (first-touch page faults, allocator growth), which later solves
/// of the same size do not, and it is the reference every later solve
/// must repeat.
pub fn run(sc: &Scenario, seconds: f64, trace: bool) -> Report {
    let mut setup = Setup::new(sc);
    let mut report = Report::default();
    let twin = if faulty(sc) {
        report.record(solve_twin(&setup), &References::default())
    } else {
        None
    };
    let mut refs = References {
        first: None,
        twin: twin.as_ref(),
        committed: committed_fingerprint(sc),
    };
    let minflt = procfs::minflt();
    let t = Instant::now();
    let first = approximate(&setup.graph, &setup.config);
    let cold = Cold {
        solve_s: t.elapsed().as_secs_f64(),
        minflt: procfs::minflt() - minflt,
    };
    refs.first = report.record(first, &refs);
    if trace {
        run_traced(sc, &mut setup, seconds, refs, cold, &mut report);
    } else {
        run_end_to_end(sc, &mut setup, seconds, refs, &mut report);
    }
    report
}

/// Whether one more iteration, as long as the mean so far, still ends
/// within `seconds` of `start`. The first iteration always runs.
fn room_for_another(start: Instant, iterations: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + elapsed / iterations as f64 <= seconds
}

/// What every solve of a run is checked against.
#[derive(Default)]
struct References<'a> {
    /// The run's first solve.
    first: Option<DistributedRun>,
    /// The fault-free twin, for faulty workloads.
    twin: Option<&'a DistributedRun>,
    /// The committed fingerprint, where the scenario has one.
    committed: Option<Fingerprint>,
}

/// The run's first solve: wall clock and minor page faults.
#[derive(Clone, Copy)]
struct Cold {
    solve_s: f64,
    minflt: u64,
}

fn run_end_to_end(
    sc: &Scenario,
    setup: &mut Setup,
    seconds: f64,
    refs: References<'_>,
    report: &mut Report,
) {
    let mut times = Vec::new();
    let mut peaks = Vec::new();
    let start = Instant::now();
    loop {
        setup.time(sc);
        procfs::reset_peak();
        let t = Instant::now();
        let result = std::hint::black_box(approximate(&setup.graph, &setup.config));
        times.push(t.elapsed().as_secs_f64());
        peaks.push(procfs::peak_rss_mib());
        eprintln!("solve {}: {:.4} s", times.len(), times[times.len() - 1]);
        report.record(result, &refs);
        if !room_for_another(start, times.len(), seconds) {
            break;
        }
    }
    let (rounds, messages, bits) = refs.first.as_ref().map_or((0, 0, 0), fingerprint);
    let ok = report.attempted - report.failed;
    report.metrics = vec![
        metric("solve_s", "s", median(&times)),
        metric("setup_s", "s", median(&setup.total_s)),
        metric("peak_rss_mb", "MiB", median(&peaks)),
        metric("rounds", "count", rounds as f64),
        metric("messages", "count", messages as f64),
        metric("mbits", "Mbit", bits as f64 / 1e6),
        metric("ok_frac", "ratio", ok as f64 / report.attempted as f64),
    ];
}

/// Alternates untraced and traced solves; the untraced ones give the
/// tracing overhead.
fn run_traced(
    sc: &Scenario,
    setup: &mut Setup,
    seconds: f64,
    refs: References<'_>,
    cold: Cold,
    report: &mut Report,
) {
    let Some(total_rounds) = refs.first.as_ref().map(DistributedRun::total_rounds) else {
        return;
    };
    let mut samples: Vec<Vec<Metric>> = Vec::new();
    let mut iterations = 0;
    let start = Instant::now();
    loop {
        setup.time(sc);
        let (graph, config) = (&setup.graph, &setup.config);
        let t = Instant::now();
        let untraced = approximate(graph, config);
        let untraced_s = t.elapsed().as_secs_f64();
        report.record(untraced, &refs);
        let traced = if faulty(sc) {
            layers::trace_events(graph, config)
        } else {
            layers::trace_stepwise(graph, config, total_rounds)
        };
        if let Ok((run, sample)) = &traced {
            samples.push(layer_metrics(sc.n, untraced_s, cold, sample, run));
        }
        report.record(traced.map(|(run, _)| run), &refs);
        iterations += 1;
        if !room_for_another(start, iterations, seconds) {
            break;
        }
    }
    // Each metric is the median over the traced solves of the run.
    let Some(names) = samples.first() else {
        return;
    };
    report.metrics = std::iter::once(metric("graph.build_s", "s", median(&setup.graph_s)))
        .chain((0..names.len()).map(|i| {
            let values: Vec<f64> = samples.iter().map(|s| s[i].value).collect();
            Metric {
                value: median(&values),
                ..names[i].clone()
            }
        }))
        .collect();
}

/// The per-layer metrics of one traced solve, all but set-up.
///
/// The end-to-end metric each group should move, and where:
/// `walk.*` → `solve_s` on sketch and corrupt; `handoff.*`,
/// `count.{wall_s,minflt,rss_mb,step_ms.p50}` and `engine.*.ns_per_msg`
/// → `solve_s` and `peak_rss_mb` on exact; `count.{step_ms.tail,sparse_*}`
/// and `engine.*.ns_per_node_round` → `solve_s` on sketch;
/// `count.suppressed_frac` → `messages` and `mbits` on sketch;
/// `reliable.*` and `fault.*` → `rounds`, `messages` and `solve_s` on
/// corrupt (zero on the clean workloads).
fn layer_metrics(
    n: usize,
    untraced_s: f64,
    cold: Cold,
    s: &LayerSample,
    run: &DistributedRun,
) -> Vec<Metric> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (walk_sparse, walk_sparse_s) = s.walk.sparse(n);
    let (count_sparse, count_sparse_s) = s.count.sparse(n);
    let engine = |p: &layers::PhaseRounds| {
        let ns = p.busy_s() * 1e9;
        let messages: u64 = p.messages.iter().sum();
        (
            ratio(ns, messages as f64),
            ratio(ns, (n * p.ms.len()) as f64),
        )
    };
    let (walk_ns_msg, walk_ns_node) = engine(&s.walk);
    let (count_ns_msg, count_ns_node) = engine(&s.count);
    let (w, c) = (&run.walk_stats, &run.count_stats);
    let messages = (w.total_messages + c.total_messages) as f64;
    let retransmissions = (w.retransmissions + c.retransmissions) as f64;
    let suppressed = run.sketch_suppressed as f64;
    vec![
        metric("walk.wall_s", "s", s.walk_s),
        metric("walk.rounds", "count", w.rounds as f64),
        metric("walk.messages", "count", w.total_messages as f64),
        metric("walk.minflt", "count", s.walk_minflt as f64),
        metric("walk.step_ms.p50", "ms", median(&s.walk.ms)),
        metric("walk.step_ms.tail", "ms", tail(&s.walk.ms)),
        metric("walk.sparse_rounds", "count", walk_sparse as f64),
        metric("walk.sparse_s", "s", walk_sparse_s),
        metric("handoff.wall_s", "s", s.handoff_s),
        metric("handoff.minflt", "count", s.handoff_minflt as f64),
        metric("count.wall_s", "s", s.count_s),
        metric("count.finish_s", "s", s.count_finish_s),
        metric("count.rounds", "count", c.rounds as f64),
        metric("count.messages", "count", c.total_messages as f64),
        metric("count.mbits", "Mbit", c.total_bits as f64 / 1e6),
        metric("count.minflt", "count", s.count_minflt as f64),
        metric("count.rss_mb", "MiB", s.count_rss_mib),
        metric("count.step_ms.p50", "ms", median(&s.count.ms)),
        metric("count.step_ms.tail", "ms", tail(&s.count.ms)),
        metric("count.sparse_rounds", "count", count_sparse as f64),
        metric("count.sparse_s", "s", count_sparse_s),
        metric(
            "count.suppressed_frac",
            "ratio",
            ratio(suppressed, suppressed + c.total_messages as f64),
        ),
        metric("engine.walk.ns_per_msg", "ns", walk_ns_msg),
        metric("engine.walk.ns_per_node_round", "ns", walk_ns_node),
        metric("engine.count.ns_per_msg", "ns", count_ns_msg),
        metric("engine.count.ns_per_node_round", "ns", count_ns_node),
        metric("reliable.retransmissions", "count", retransmissions),
        metric(
            "reliable.retransmit_frac",
            "ratio",
            ratio(retransmissions, messages),
        ),
        metric(
            "reliable.crc_rejects",
            "count",
            (w.corrupt_frames_detected + c.corrupt_frames_detected) as f64,
        ),
        metric(
            "reliable.overhead_rounds",
            "count",
            (w.delivery_overhead_rounds + c.delivery_overhead_rounds) as f64,
        ),
        metric("fault.dropped", "count", (w.dropped + c.dropped) as f64),
        metric(
            "fault.corrupted",
            "count",
            (w.corrupted + c.corrupted) as f64,
        ),
        metric("trace.solve_s", "s", s.traced_s),
        metric(
            "trace.overhead_frac",
            "ratio",
            s.traced_s / untraced_s - 1.0,
        ),
        metric(
            "trace.accounted_frac",
            "ratio",
            ratio(s.walk_s + s.handoff_s + s.count_s, s.traced_s),
        ),
        metric("cold.solve_s", "s", cold.solve_s),
        metric("cold.minflt", "count", cold.minflt as f64),
    ]
}
