//! The background solve: a [`StepSolver`] driven round-by-round on its
//! own thread, with periodic atomic checkpoints and a JSONL trace.
//!
//! The daemon never blocks on the solve: it reads the solve's progress
//! and checkpoint counts from the metrics registry, and the facts that
//! are not counts from a [`SolveSnapshot`] the solver thread publishes
//! under a mutex when one of them changes. Checkpoints are written
//! `tmp + rename`, so a `kill -9` at any instant leaves either the
//! previous or the new image intact, never a torn file; on restart the
//! solver resumes from it and (by the engine's schedule-invariant
//! draws) converges to the bit-identical result an uninterrupted run
//! produces.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use congest_sim::{FlightRecorder, JsonlTracer, SimConfig, TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rwbc::distributed::DistributedRun;
use rwbc::distributed::{CountMode, DistributedConfig, SolvePhase, StepSolver};
use rwbc::monte_carlo::TargetStrategy;
use rwbc_graph::generators::connected_gnp;
use rwbc_graph::Graph;

use crate::metrics::DaemonMetrics;
use crate::protocol::phase_tag;

/// Deterministic graph recipe, mirroring the bench harness's ER builder
/// (same seed derivation and expected degree) so serve artifacts are
/// directly comparable to solver-side `BENCH_*` scenarios.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSpec {
    /// Node count.
    pub n: usize,
    /// Master seed (the graph generator derives from it).
    pub seed: u64,
}

impl GraphSpec {
    /// Builds the connected Erdős–Rényi graph for this spec.
    ///
    /// # Panics
    ///
    /// Panics if G(n,p) fails to connect within the attempt budget —
    /// impossible at the expected degree `max(6, 1.5·ln n)`.
    pub fn build(&self) -> Graph {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9E37_79B9_7F4A_7C15);
        let deg = (1.5 * (self.n as f64).ln()).max(6.0);
        let p = deg / (self.n as f64 - 1.0);
        connected_gnp(self.n, p, 200, &mut rng).expect("connected G(n,p)")
    }
}

/// Everything the background solve needs.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Graph recipe.
    pub graph: GraphSpec,
    /// Walks per node (Algorithm 1's K).
    pub walks: usize,
    /// Walk truncation length (Algorithm 1's l).
    pub length: usize,
    /// Master seed for the solve (independent of the graph seed).
    pub seed: u64,
    /// Engine worker threads.
    pub threads: usize,
    /// Minimum nodes per engine worker chunk (the parallel fan-out's
    /// granularity knob); 0 keeps the engine default.
    pub granularity: usize,
    /// Checkpoint image path; `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Rounds between periodic checkpoints.
    pub checkpoint_every_rounds: usize,
    /// JSONL trace path; `None` disables tracing.
    pub trace_path: Option<PathBuf>,
    /// Test hook: sleep this long after every round, so integration
    /// tests can reliably catch (and kill) the daemon mid-solve.
    pub slow_ms: u64,
    /// Sketch precision for the count phase; 0 keeps exact counting.
    /// Sketch mode trades bounded accuracy for a far shorter, lighter
    /// count phase — the solve (and its periodic checkpoints) shrink
    /// accordingly.
    pub sketch_precision: u8,
}

impl SolverConfig {
    /// A small default workload on an ER graph.
    pub fn new(n: usize, seed: u64) -> SolverConfig {
        SolverConfig {
            graph: GraphSpec { n, seed },
            walks: 4,
            length: 64,
            seed,
            threads: 1,
            granularity: 0,
            checkpoint_path: None,
            checkpoint_every_rounds: 64,
            trace_path: None,
            slow_ms: 0,
            sketch_precision: 0,
        }
    }

    /// The pipeline config this solver runs (fixed target 0, like the
    /// bench scenarios, so runs are reproducible from the spec alone).
    pub fn distributed_config(&self) -> DistributedConfig {
        let mut builder = DistributedConfig::builder()
            .walks(self.walks)
            .length(self.length)
            .seed(self.seed)
            .target(TargetStrategy::Fixed(0));
        if self.sketch_precision > 0 {
            builder = builder.count_mode(CountMode::Sketch {
                precision: self.sketch_precision,
            });
        }
        let mut cfg = builder.build().expect("solver workload params");
        cfg.sim = SimConfig::default().with_threads(self.threads);
        if self.granularity > 0 {
            cfg.sim = cfg.sim.with_granularity(self.granularity);
        }
        cfg
    }
}

/// The facts about the solve that are not counts, published by the
/// solver thread when one of them changes. Phase, rounds and
/// checkpoint counts live in the metrics registry ([`SolverHooks::metrics`]).
#[derive(Debug, Clone, Default)]
pub struct SolveSnapshot {
    /// Whether this solve resumed from a checkpoint image.
    pub resumed: bool,
    /// When the newest checkpoint landed, milliseconds on the host's
    /// epoch clock (see [`SolverHooks::epoch`]); `None` until one does.
    pub last_checkpoint_at_ms: Option<u64>,
    /// The finished run, once the pipeline drained.
    pub result: Option<Arc<DistributedRun>>,
    /// Terminal failure, if the solve died.
    pub error: Option<String>,
}

/// What the host hands the solver thread to report through.
#[derive(Debug, Clone)]
pub struct SolverHooks {
    /// The clock origin checkpoint timestamps are measured against —
    /// the daemon passes the same `Instant` its deadlines and uptime
    /// use, so `last_checkpoint_at_ms` subtracts cleanly from it.
    pub epoch: Instant,
    /// Live-metrics handles: the engine bundle is attached to each
    /// phase's simulator, the `solver_*` instruments are fed directly.
    pub metrics: DaemonMetrics,
    /// Flight recorder fed `solver`-subsystem events (start or resume,
    /// phase transitions, checkpoints, terminal outcome).
    pub flight: FlightRecorder,
}

/// Handle to the solver thread.
pub struct BackgroundSolver {
    snapshot: Arc<Mutex<SolveSnapshot>>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// Writes a checkpoint image atomically (`path.tmp` + rename).
fn persist_checkpoint(path: &Path, image: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, image)?;
    fs::rename(&tmp, path)
}

impl BackgroundSolver {
    /// Builds the graph, restores from the checkpoint if a valid image
    /// exists, and starts stepping on a background thread that reports
    /// through `hooks`.
    pub fn spawn_with(config: SolverConfig, hooks: SolverHooks) -> BackgroundSolver {
        let snapshot = Arc::new(Mutex::new(SolveSnapshot::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::clone(&snapshot);
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || run_solver(&config, &shared, &stop_flag, &hooks));
        BackgroundSolver {
            snapshot,
            stop,
            handle: Some(handle),
        }
    }

    /// The current published view.
    pub fn snapshot(&self) -> SolveSnapshot {
        self.snapshot.lock().expect("solver snapshot lock").clone()
    }

    /// Signals the solve to stop at the next round boundary, flush a
    /// final checkpoint, close the trace, and joins the thread. Idempotent.
    pub fn drain(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for BackgroundSolver {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Where the solver thread reports: counts and progress into the
/// metrics, the facts that are not counts into the shared snapshot, and
/// events into the flight ring and the optional JSONL trace.
struct Reporter<'a> {
    hooks: &'a SolverHooks,
    shared: &'a Mutex<SolveSnapshot>,
    checkpoint_path: Option<&'a Path>,
    trace: Option<JsonlTracer<BufWriter<fs::File>>>,
}

impl Reporter<'_> {
    fn publish(&self, update: impl FnOnce(&mut SolveSnapshot)) {
        update(&mut self.shared.lock().expect("solver snapshot lock"));
    }

    /// Sets the phase and rounds gauges.
    fn progress(&self, phase: SolvePhase, rounds: usize) {
        let m = &self.hooks.metrics.serve;
        m.solver_phase.set(u64::from(phase_tag(phase)));
        m.solver_rounds_completed.set(rounds as u64);
    }

    /// Records one solver event in the flight ring and the trace.
    fn event(&mut self, round: usize, key: &str, value: u64) {
        let event = TraceEvent::App {
            round,
            node: 0,
            key: key.to_string(),
            value,
        };
        if let Some(trace) = self.trace.as_mut() {
            trace.record(&event);
        }
        self.hooks.flight.record("solver", event);
    }

    /// Persists a checkpoint image when checkpointing is on, and
    /// accounts for it.
    fn checkpoint(&mut self, solver: &StepSolver<'_>) {
        let Some(path) = self.checkpoint_path else {
            return;
        };
        let t0 = Instant::now();
        let Ok(image) = solver.checkpoint() else {
            return;
        };
        if persist_checkpoint(path, &image).is_err() {
            return;
        }
        let m = &self.hooks.metrics.serve;
        m.checkpoint_duration_us
            .record(t0.elapsed().as_micros() as u64);
        m.checkpoints_total.inc();
        let at_ms = self.hooks.epoch.elapsed().as_millis() as u64;
        self.publish(|s| s.last_checkpoint_at_ms = Some(at_ms));
        self.event(solver.rounds_completed(), "checkpoint", image.len() as u64);
    }

    /// Closes the trace's solve span and flushes it.
    fn close_trace(&mut self, rounds: usize, started: Instant) {
        if let Some(mut trace) = self.trace.take() {
            trace.record(&TraceEvent::PhaseEnd {
                name: "serve-solve".to_string(),
                rounds,
                elapsed_us: started.elapsed().as_micros() as u64,
            });
            if let Ok(mut out) = trace.finish() {
                let _ = out.flush();
            }
        }
    }
}

fn run_solver(
    config: &SolverConfig,
    shared: &Mutex<SolveSnapshot>,
    stop: &AtomicBool,
    hooks: &SolverHooks,
) {
    let started = Instant::now();
    let trace = config.trace_path.as_ref().and_then(|path| {
        let mut trace = JsonlTracer::new(BufWriter::new(fs::File::create(path).ok()?));
        trace.record(&TraceEvent::PhaseStart {
            name: "serve-solve".to_string(),
        });
        Some(trace)
    });
    let mut out = Reporter {
        hooks,
        shared,
        checkpoint_path: config.checkpoint_path.as_deref(),
        trace,
    };
    let graph = config.graph.build();
    let dcfg = config.distributed_config();

    // Resume from a persisted image when one restores cleanly; any
    // corruption (torn write from a crash mid-`fs::write` cannot happen —
    // rename is atomic — but a stale/mangled file can) falls back to a
    // fresh solve rather than refusing service.
    let restored = config
        .checkpoint_path
        .as_ref()
        .and_then(|p| fs::read(p).ok())
        .and_then(|image| StepSolver::restore(&graph, dcfg.clone(), &image).ok());
    let resumed = restored.is_some();
    let mut solver = match restored.map_or_else(|| StepSolver::new(&graph, dcfg), Ok) {
        Ok(solver) => solver,
        Err(e) => {
            out.progress(SolvePhase::Failed, 0);
            out.event(0, "solve_failed", 0);
            out.close_trace(0, started);
            out.publish(|s| s.error = Some(e.to_string()));
            return;
        }
    };
    solver.set_metrics(hooks.metrics.engine.clone());
    let mut phase = solver.phase();
    let rounds = solver.rounds_completed();
    out.progress(phase, rounds);
    if resumed {
        out.publish(|s| s.resumed = true);
        out.event(rounds, "resumed-from-checkpoint", rounds as u64);
    } else {
        out.event(rounds, "started", rounds as u64);
    }

    let outcome = loop {
        if stop.load(Ordering::SeqCst) {
            break Ok(false);
        }
        let done = match solver.step() {
            Ok(done) => done,
            Err(e) => break Err(e.to_string()),
        };
        let rounds = solver.rounds_completed();
        out.progress(solver.phase(), rounds);
        if solver.phase() != phase {
            phase = solver.phase();
            out.event(rounds, "phase", u64::from(phase_tag(phase)));
        }
        if config.slow_ms > 0 {
            std::thread::sleep(Duration::from_millis(config.slow_ms));
        }
        if done {
            break Ok(true);
        }
        if config.checkpoint_every_rounds > 0 && rounds % config.checkpoint_every_rounds == 0 {
            out.checkpoint(&solver);
        }
    };

    // Final checkpoint: on completion it carries the finished result (so
    // a restart serves immediately without re-solving), on drain it
    // carries the exact round boundary to resume from. The gauges are
    // final before the result is published, so a ready daemon reports
    // the done phase.
    let rounds = solver.rounds_completed();
    match &outcome {
        Ok(_) => out.checkpoint(&solver),
        Err(_) => out.progress(SolvePhase::Failed, rounds),
    }
    let key = match &outcome {
        Ok(true) => "done",
        Ok(false) => "drained",
        Err(_) => "solve_failed",
    };
    out.event(rounds, key, rounds as u64);
    out.close_trace(rounds, started);
    out.publish(|s| match outcome {
        Ok(true) => s.result = solver.result().map(|run| Arc::new(run.clone())),
        Ok(false) => {}
        Err(e) => s.error = Some(e),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwbc::distributed::approximate;

    fn spawn(config: SolverConfig) -> BackgroundSolver {
        let hooks = SolverHooks {
            epoch: Instant::now(),
            metrics: DaemonMetrics::new(),
            flight: FlightRecorder::default(),
        };
        BackgroundSolver::spawn_with(config, hooks)
    }

    #[test]
    fn background_solve_matches_the_driver() {
        let config = SolverConfig::new(32, 7);
        let expected = approximate(&config.graph.build(), &config.distributed_config()).unwrap();
        let solver = spawn(config);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let snap = solver.snapshot();
            if let Some(run) = snap.result {
                assert_eq!(*run, expected);
                assert!(!snap.resumed);
                break;
            }
            assert!(snap.error.is_none(), "solve failed: {:?}", snap.error);
            assert!(Instant::now() < deadline, "solve did not finish in time");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn drain_persists_a_resumable_checkpoint() {
        let dir = std::env::temp_dir().join(format!("rwbc-serve-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("drain.ckpt");
        let mut config = SolverConfig::new(48, 11);
        config.checkpoint_path = Some(ckpt.clone());
        config.checkpoint_every_rounds = 4;
        config.slow_ms = 2;
        let expected = approximate(&config.graph.build(), &config.distributed_config()).unwrap();

        let mut solver = spawn(config.clone());
        // Let it make some progress, then drain mid-solve.
        std::thread::sleep(Duration::from_millis(60));
        solver.drain();
        let snap = solver.snapshot();
        assert!(snap.error.is_none());
        assert!(ckpt.exists(), "drain must flush a final checkpoint");

        // A fresh solver resumes from the image and lands on the
        // bit-identical result.
        config.slow_ms = 0;
        let resumed = spawn(config);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let snap = resumed.snapshot();
            if let Some(run) = snap.result {
                assert_eq!(*run, expected);
                break;
            }
            assert!(snap.error.is_none(), "resume failed: {:?}", snap.error);
            assert!(Instant::now() < deadline, "resume did not finish in time");
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
