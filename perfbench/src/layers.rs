//! Per-layer attribution of one solve, measured from outside the program.
//!
//! Two tracers, because the program offers two ways to observe a solve:
//!
//! * [`trace_stepwise`] drives [`StepSolver`] one CONGEST round per call
//!   and times each `step`, reading the engine's [`EngineMetrics`]
//!   message counter between steps. It covers the clean pipeline, the
//!   only one `StepSolver` accepts.
//! * [`trace_events`] runs [`approximate_traced`] with a [`Tracer`] sink
//!   that timestamps the phase spans and per-round events. It covers the
//!   reliable/checksummed branch that `StepSolver` rejects.
//!
//! Both fill the same [`LayerSample`], with these phase boundaries:
//!
//! | span    | stepwise tracer                        | event tracer                                  |
//! |---------|----------------------------------------|-----------------------------------------------|
//! | walk    | `StepSolver::new` to the hand-off step | `walk` span start to end                      |
//! | handoff | the `step` that builds the count sim   | `walk` span end to the count phase's round 0  |
//! | count   | the rest, to the finishing `step`      | count round 0 to the `count` span end         |
//!
//! The count span ends with a finish: harvesting each node's value and
//! dropping the count simulator. It is reported on its own
//! ([`LayerSample::count_finish_s`]) and kept out of the per-round
//! figures, which cover engine rounds only.

use std::time::{Duration, Instant};

use congest_sim::{Counter, EngineMetrics, Gauge, TraceEvent, Tracer};
use rwbc::distributed::{
    approximate_traced, DistributedConfig, DistributedRun, SolvePhase, StepSolver,
};
use rwbc::RwbcError;
use rwbc_graph::Graph;

use crate::procfs;

/// Per-round wall clock and traffic of one phase.
#[derive(Debug, Default, Clone)]
pub struct PhaseRounds {
    /// Wall clock of each timed round, milliseconds.
    pub ms: Vec<f64>,
    /// Messages committed in each timed round.
    pub messages: Vec<u64>,
}

impl PhaseRounds {
    fn push(&mut self, elapsed: Duration, messages: u64) {
        self.ms.push(elapsed.as_secs_f64() * 1e3);
        self.messages.push(messages);
    }

    /// Summed round time, seconds.
    pub fn busy_s(&self) -> f64 {
        self.ms.iter().sum::<f64>() / 1e3
    }

    /// Rounds carrying fewer than `n / 100` messages, and their summed
    /// time in seconds: the rounds an active-set engine could run without
    /// touching all `n` nodes (HyperBall's switch to local mode).
    pub fn sparse(&self, n: usize) -> (usize, f64) {
        let mut rounds = 0;
        let mut ms = 0.0;
        for (&t, &m) in self.ms.iter().zip(&self.messages) {
            if (m as f64) < n as f64 / 100.0 {
                rounds += 1;
                ms += t;
            }
        }
        (rounds, ms / 1e3)
    }
}

/// Where one traced solve spent its wall clock and page faults.
#[derive(Debug, Default, Clone)]
pub struct LayerSample {
    /// Wall clock of the whole traced call, seconds.
    pub traced_s: f64,
    /// Walk-phase span, seconds.
    pub walk_s: f64,
    /// Walk → count hand-off span, seconds.
    pub handoff_s: f64,
    /// Count-phase span, seconds.
    pub count_s: f64,
    /// The count span's finish, after its last round, seconds.
    pub count_finish_s: f64,
    /// Minor page faults in the walk span.
    pub walk_minflt: u64,
    /// Minor page faults in the hand-off span.
    pub handoff_minflt: u64,
    /// Minor page faults in the count span.
    pub count_minflt: u64,
    /// Resident set size at the end of the count phase, MiB.
    pub count_rss_mib: f64,
    /// Per-round figures of the walk phase.
    pub walk: PhaseRounds,
    /// Per-round figures of the count phase.
    pub count: PhaseRounds,
}

/// A wall-clock and page-fault reading at a phase boundary.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at: Instant,
    minflt: u64,
}

impl Mark {
    fn now() -> Mark {
        Mark {
            at: Instant::now(),
            minflt: procfs::minflt(),
        }
    }
}

/// The spans between four boundary marks.
fn fill_spans(sample: &mut LayerSample, walk0: Mark, walk1: Mark, count0: Mark, count1: Mark) {
    let secs = |a: Mark, b: Mark| b.at.duration_since(a.at).as_secs_f64();
    sample.walk_s = secs(walk0, walk1);
    sample.handoff_s = secs(walk1, count0);
    sample.count_s = secs(count0, count1);
    sample.walk_minflt = walk1.minflt - walk0.minflt;
    sample.handoff_minflt = count0.minflt - walk1.minflt;
    sample.count_minflt = count1.minflt - count0.minflt;
}

/// Drives a clean solve through [`StepSolver`], timing every round.
///
/// `total_rounds` is the untraced solve's round count; it tells the
/// tracer which `step` finishes the count phase, so RSS is read while the
/// count simulator is still alive.
///
/// # Errors
///
/// Whatever [`StepSolver::new`] or [`StepSolver::step`] returns.
pub fn trace_stepwise(
    graph: &Graph,
    config: &DistributedConfig,
    total_rounds: usize,
) -> Result<(DistributedRun, LayerSample), RwbcError> {
    let metrics = EngineMetrics {
        rounds: Counter::new(),
        messages: Counter::new(),
        bits: Counter::new(),
        inbox_depth: Gauge::new(),
    };
    let mut sample = LayerSample::default();
    let start = Mark::now();
    let mut solver = StepSolver::new(graph, config.clone())?;
    solver.set_metrics(metrics.clone());
    let mut handoff: Option<(Mark, Mark)> = None;
    loop {
        let phase = solver.phase();
        // Boundary marks are read before every walk step (the last one is
        // only known afterwards) and once before the finishing count step.
        let before = (phase == SolvePhase::Walk).then(Mark::now);
        if phase == SolvePhase::Count && solver.rounds_completed() + 1 == total_rounds {
            sample.count_rss_mib = procfs::rss_mib();
        }
        let sent = metrics.messages.get();
        let t = Instant::now();
        let done = solver.step()?;
        let elapsed = t.elapsed();
        let messages = metrics.messages.get() - sent;
        match (phase, solver.phase()) {
            (SolvePhase::Walk, SolvePhase::Walk) => sample.walk.push(elapsed, messages),
            (SolvePhase::Walk, _) => {
                handoff = Some((before.expect("read before walk steps"), Mark::now()));
            }
            _ if done => sample.count_finish_s = elapsed.as_secs_f64(),
            _ => sample.count.push(elapsed, messages),
        }
        if done {
            break;
        }
    }
    let end = Mark::now();
    let run = solver.into_result().expect("step returned done");
    sample.traced_s = end.at.duration_since(start.at).as_secs_f64();
    let (walk1, count0) = handoff.expect("the solve passed through the hand-off");
    fill_spans(&mut sample, start, walk1, count0, end);
    Ok((run, sample))
}

/// A [`Tracer`] sink that timestamps phase spans and rounds.
#[derive(Debug, Default)]
struct PhaseClock {
    in_count: bool,
    last_round: Option<Instant>,
    walk0: Option<Mark>,
    walk1: Option<Mark>,
    count0: Option<Mark>,
    count1: Option<Mark>,
    count_rss_mib: f64,
    count_finish_s: f64,
    walk: PhaseRounds,
    count: PhaseRounds,
}

impl Tracer for PhaseClock {
    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::PhaseStart { name } if name.starts_with("walk") => {
                self.walk0.get_or_insert_with(Mark::now);
            }
            TraceEvent::PhaseEnd { name, .. } if name.starts_with("walk") => {
                self.walk1 = Some(Mark::now());
                self.last_round = None;
            }
            TraceEvent::PhaseStart { name } if name == "count" => self.in_count = true,
            TraceEvent::PhaseEnd { name, .. } if name == "count" => {
                self.count_rss_mib = procfs::rss_mib();
                let end = Mark::now();
                if let Some(last) = self.last_round {
                    self.count_finish_s = end.at.duration_since(last).as_secs_f64();
                }
                self.count1 = Some(end);
            }
            TraceEvent::Round { messages, .. } => {
                let now = Instant::now();
                match self.last_round {
                    Some(prev) => {
                        let phase = if self.in_count {
                            &mut self.count
                        } else {
                            &mut self.walk
                        };
                        phase.push(now.duration_since(prev), *messages);
                    }
                    // Round 0 of the count phase closes the hand-off.
                    None if self.in_count => self.count0 = Some(Mark::now()),
                    None => {}
                }
                self.last_round = Some(now);
            }
            _ => {}
        }
    }

    fn wants_edge_traffic(&self) -> bool {
        false
    }
}

/// Runs [`approximate_traced`] with a timestamping sink.
///
/// # Errors
///
/// Whatever [`approximate_traced`] returns.
pub fn trace_events(
    graph: &Graph,
    config: &DistributedConfig,
) -> Result<(DistributedRun, LayerSample), RwbcError> {
    let mut clock = PhaseClock::default();
    let t = Instant::now();
    let run = approximate_traced(graph, config, &mut clock)?;
    let mut sample = LayerSample {
        traced_s: t.elapsed().as_secs_f64(),
        count_rss_mib: clock.count_rss_mib,
        count_finish_s: clock.count_finish_s,
        ..LayerSample::default()
    };
    let missing = "traced solve emitted walk and count spans";
    fill_spans(
        &mut sample,
        clock.walk0.expect(missing),
        clock.walk1.expect(missing),
        clock.count0.expect(missing),
        clock.count1.expect(missing),
    );
    sample.walk = clock.walk;
    sample.count = clock.count;
    Ok((run, sample))
}
