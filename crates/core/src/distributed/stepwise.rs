//! Round-at-a-time driver for the distributed pipeline — the pause and
//! snapshot points a long-running host (the `rwbc-serve` daemon) needs.
//!
//! [`approximate`](super::approximate) runs both phases to completion in
//! one call; [`StepSolver`] exposes the same computation as a sequence of
//! [`StepSolver::step`] calls, each advancing exactly one CONGEST round,
//! with [`StepSolver::checkpoint`] / [`StepSolver::restore`] usable at any
//! round boundary. For the supported configuration subset the final
//! [`DistributedRun`] is **bit-identical** to what `approximate` produces
//! for the same graph and config — the solver mirrors the driver's seed
//! derivations, target draw, and fixed-point fit exactly, and the engine's
//! schedule-invariant draws make a checkpoint → kill → restore → finish
//! execution reproduce the uninterrupted trace at any thread count.
//!
//! The checkpointable subset is the *clean single-sub-phase* pipeline:
//! no `reliable` delivery adapter, no `checksums`, no `elect_target`, no
//! `walk_retries`, no `partition_tolerant` recovery (those wrap programs
//! in adapters or add driver-side control flow that is not snapshotted).
//! [`StepSolver::new`] rejects anything else with a typed error.

use congest_sim::wire::{crc32, BitReader, BitWriter, WireState};
use congest_sim::{EngineMetrics, RunStats, SimError, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rwbc_graph::traversal::is_connected;
use rwbc_graph::{Graph, NodeId};

use crate::distributed::messages::{count_field_bits, len_field_bits};
use crate::distributed::sketch::sketch_field_bits;
use crate::distributed::{
    CountMode, CountProgram, DegradationReport, DistributedConfig, DistributedRun,
    SketchCountProgram, WalkProgram,
};
use crate::monte_carlo::TargetStrategy;
use crate::{Centrality, RwbcError};

/// Magic word opening a [`StepSolver::checkpoint`] image (distinct from
/// the engine's, so the two image kinds can never be confused).
pub const STEP_CHECKPOINT_MAGIC: u64 = 0x5E12_C4EC;
/// Current step-checkpoint format version. Version 2 added the sketch
/// count phase (tag 3) and the `count_mode` / `sketch_suppressed` fields
/// in done images; version-1 images still restore (they predate sketch
/// mode, so those fields default to exact / zero).
pub const STEP_CHECKPOINT_VERSION: u64 = 2;
/// Oldest step-checkpoint format version [`StepSolver::restore`] accepts.
pub const STEP_CHECKPOINT_MIN_VERSION: u64 = 1;

/// Seed derivation for phase 1, mirroring `approximate_inner`.
const PHASE1_XOR: u64 = 0x9E37_79B9;
/// Seed derivation for phase 2, mirroring `approximate_inner`.
const PHASE2_XOR: u64 = 0x7F4A_7C15;

/// Which pipeline stage a [`StepSolver`] is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolvePhase {
    /// Phase 1 (Algorithm 1): walk tokens in flight.
    Walk,
    /// Phase 2 (Algorithm 2): count exchange in flight.
    Count,
    /// Finished; [`StepSolver::result`] is available.
    Done,
    /// A previous `step` failed mid-transition; the solver is unusable.
    Failed,
}

// One instance per solver, never moved after construction: boxing the
// simulator variants would buy nothing but an extra indirection on the
// per-round hot path.
#[allow(clippy::large_enum_variant)]
enum PhaseState<'g> {
    Walk(Simulator<'g, WalkProgram>),
    Count {
        sim: Simulator<'g, CountProgram>,
        walk_stats: RunStats,
        walks_lost: u64,
    },
    SketchCount {
        sim: Simulator<'g, SketchCountProgram>,
        walk_stats: RunStats,
        walks_lost: u64,
    },
    Done(Box<DistributedRun>),
    /// A phase transition errored after its simulator was consumed.
    Poisoned,
}

/// A resumable, checkpointable execution of the distributed pipeline.
///
/// ```
/// use rwbc::distributed::{approximate, DistributedConfig, StepSolver};
/// use rwbc_graph::generators::star;
///
/// # fn main() -> Result<(), rwbc::RwbcError> {
/// let g = star(5)?;
/// let cfg = DistributedConfig::builder().walks(100).length(40).seed(1).build()?;
/// let mut solver = StepSolver::new(&g, cfg.clone())?;
/// while !solver.step()? {}
/// // Bit-identical to the one-shot driver.
/// assert_eq!(*solver.result().unwrap(), approximate(&g, &cfg)?);
/// # Ok(())
/// # }
/// ```
pub struct StepSolver<'g> {
    graph: &'g Graph,
    config: DistributedConfig,
    target: NodeId,
    fixed_point_bits: u8,
    value_bits: u8,
    state: PhaseState<'g>,
    /// Live-metrics handles carried across phase transitions so the
    /// walk and count simulators feed one cumulative set of counters.
    metrics: Option<EngineMetrics>,
}

fn corrupt(reason: &str) -> RwbcError {
    RwbcError::Sim(SimError::CorruptCheckpoint {
        reason: reason.to_string(),
    })
}

/// Appends one length-framed, CRC-guarded section (same framing as the
/// engine's checkpoint sections: `u64 byte length + u32 CRC-32 + payload`).
fn write_section(w: &mut BitWriter, body: &[u8]) {
    w.write_bits(body.len() as u64, 64);
    w.write_bits(u64::from(crc32(body)), 32);
    w.write_bytes(body);
}

/// Reads back one section written by [`write_section`], verifying the
/// checksum before the payload is decoded.
fn read_section(r: &mut BitReader<'_>, what: &str) -> Result<Vec<u8>, RwbcError> {
    let len = r
        .read_bits(64)
        .ok_or_else(|| corrupt(&format!("truncated {what} section header")))?;
    let len =
        usize::try_from(len).map_err(|_| corrupt(&format!("oversized {what} section length")))?;
    let sum = r
        .read_bits(32)
        .ok_or_else(|| corrupt(&format!("truncated {what} section header")))? as u32;
    let bytes = r
        .read_bytes(len)
        .ok_or_else(|| corrupt(&format!("truncated {what} section")))?;
    if crc32(&bytes) != sum {
        return Err(corrupt(&format!("{what} section failed its checksum")));
    }
    Ok(bytes)
}

/// Validates the config against the checkpointable subset and derives the
/// quantities `approximate_inner` computes up front: the target draw, the
/// fitted fixed-point width, and the phase-2 value width.
fn derive_plan(graph: &Graph, config: &DistributedConfig) -> Result<(NodeId, u8, u8), RwbcError> {
    let n = graph.node_count();
    if n < 2 {
        return Err(RwbcError::TooSmall { n });
    }
    if !is_connected(graph) {
        return Err(RwbcError::Disconnected);
    }
    if config.reliable
        || config.checksums
        || config.partition_tolerant
        || config.elect_target
        || config.walk_retries != 0
    {
        return Err(RwbcError::InvalidParameter {
            reason: "StepSolver supports only the clean single-sub-phase pipeline \
                     (reliable / checksums / partition_tolerant / elect_target / \
                     walk_retries are not checkpointable)"
                .to_string(),
        });
    }
    let mut seeder = StdRng::seed_from_u64(config.seed);
    let target = match config.target {
        TargetStrategy::Random => seeder.gen_range(0..n),
        TargetStrategy::Fixed(t) if t < n => t,
        TargetStrategy::Fixed(t) => {
            return Err(RwbcError::InvalidParameter {
                reason: format!("fixed target {t} out of range"),
            })
        }
    };
    let k = config.params.walks_per_node;
    let l = config.params.walk_length;
    let budget = config.sim.budget_bits(n);
    // Mirrors `approximate_inner`'s fit exactly (no reliable header: the
    // checkpointable subset never wraps programs in the adapter).
    let frame_bits = |f: u8| -> usize {
        match config.count_mode {
            CountMode::Exact => count_field_bits(k, l, f) as usize,
            CountMode::Sketch { precision } => {
                precision as usize + sketch_field_bits(k, l, n, f) as usize
            }
        }
    };
    let mut f = config.fixed_point_bits;
    while f > 1 && frame_bits(f) > budget {
        f -= 1;
    }
    if frame_bits(f) > budget {
        return Err(RwbcError::InvalidParameter {
            reason: format!(
                "phase-2 counts cannot fit the {budget}-bit budget even with 1 fractional bit; \
                 raise the bandwidth coefficient"
            ),
        });
    }
    let value_bits = match config.count_mode {
        CountMode::Exact => count_field_bits(k, l, f),
        CountMode::Sketch { .. } => sketch_field_bits(k, l, n, f),
    };
    Ok((target, f, value_bits))
}

impl<'g> StepSolver<'g> {
    /// Starts a fresh solve at round 0 of the walk phase.
    ///
    /// # Errors
    ///
    /// [`RwbcError::TooSmall`] / [`RwbcError::Disconnected`] on invalid
    /// graphs; [`RwbcError::InvalidParameter`] when the config is outside
    /// the checkpointable subset, the fixed target is out of range, or the
    /// phase-2 counts cannot fit the budget.
    pub fn new(graph: &'g Graph, config: DistributedConfig) -> Result<StepSolver<'g>, RwbcError> {
        let (target, f, value_bits) = derive_plan(graph, &config)?;
        let n = graph.node_count();
        let k = config.params.walks_per_node;
        let l = config.params.walk_length;
        let len_bits = len_field_bits(l);
        let phase1_seed = config.seed ^ PHASE1_XOR;
        let cfg1 = config.sim.clone().with_seed(phase1_seed);
        let discipline = config.discipline;
        let sim = Simulator::new(graph, cfg1, |v| {
            WalkProgram::new(v, n, target, k, l, len_bits, discipline).with_draw_seed(phase1_seed)
        });
        Ok(StepSolver {
            graph,
            config,
            target,
            fixed_point_bits: f,
            value_bits,
            state: PhaseState::Walk(sim),
            metrics: None,
        })
    }

    /// Attaches live-metrics handles to the solver. The active phase's
    /// simulator starts feeding them immediately, and the handles are
    /// re-attached across the walk → count hand-off, so the engine
    /// counters accumulate over the whole pipeline: attached at round 0,
    /// `engine_rounds_total` equals [`StepSolver::rounds_completed`] at
    /// any quiescent point (attached later — e.g. after
    /// [`StepSolver::restore`] — they count the rounds run since).
    /// Metrics never perturb the simulation; attaching them is safe at
    /// any round boundary.
    pub fn set_metrics(&mut self, metrics: EngineMetrics) {
        match &mut self.state {
            PhaseState::Walk(sim) => sim.set_metrics(metrics.clone()),
            PhaseState::Count { sim, .. } => sim.set_metrics(metrics.clone()),
            PhaseState::SketchCount { sim, .. } => sim.set_metrics(metrics.clone()),
            PhaseState::Done(_) | PhaseState::Poisoned => {}
        }
        self.metrics = Some(metrics);
    }

    /// Advances the pipeline by one CONGEST round (handling the
    /// walk → count and count → done transitions when a phase drains).
    /// Returns `true` once the run is complete; further calls are no-ops.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`RwbcError::Sim`]); a transition
    /// failure poisons the solver and every later call reports it.
    pub fn step(&mut self) -> Result<bool, RwbcError> {
        match &mut self.state {
            PhaseState::Walk(sim) => {
                if !sim.step().map_err(RwbcError::Sim)? {
                    return Ok(false);
                }
            }
            PhaseState::Count { sim, .. } => {
                if !sim.step().map_err(RwbcError::Sim)? {
                    return Ok(false);
                }
            }
            PhaseState::SketchCount { sim, .. } => {
                if !sim.step().map_err(RwbcError::Sim)? {
                    return Ok(false);
                }
            }
            PhaseState::Done(_) => return Ok(true),
            PhaseState::Poisoned => {
                return Err(RwbcError::InvalidParameter {
                    reason: "StepSolver was poisoned by an earlier transition failure".to_string(),
                })
            }
        }
        // The active phase just drained: transition. The simulator is
        // consumed here, so a failure leaves the solver poisoned rather
        // than silently rewound.
        match std::mem::replace(&mut self.state, PhaseState::Poisoned) {
            PhaseState::Walk(sim) => {
                self.state = self.begin_count(sim);
            }
            PhaseState::Count {
                sim,
                walk_stats,
                walks_lost,
            } => match self.finish(sim, walk_stats, walks_lost) {
                Ok(done) => self.state = done,
                Err(e) => return Err(e),
            },
            PhaseState::SketchCount {
                sim,
                walk_stats,
                walks_lost,
            } => match self.finish_sketch(sim, walk_stats, walks_lost) {
                Ok(done) => self.state = done,
                Err(e) => return Err(e),
            },
            other => self.state = other,
        }
        Ok(matches!(self.state, PhaseState::Done(_)))
    }

    /// Harvests the drained walk phase and builds the count-phase
    /// simulator — the exact hand-off `approximate_inner` performs.
    fn begin_count(&self, sim1: Simulator<'g, WalkProgram>) -> PhaseState<'g> {
        let n = self.graph.node_count();
        let k = self.config.params.walks_per_node;
        let walk_stats = sim1.stats().clone();
        let mut counts: Vec<Vec<u64>> = (0..n).map(|v| sim1.program(v).counts().to_vec()).collect();
        let mut walks_lost = 0u64;
        for s in 0..n {
            if s == self.target {
                continue;
            }
            let deaths: u64 = (0..n).map(|v| sim1.program(v).deaths()[s]).sum();
            walks_lost += (k as u64).saturating_sub(deaths);
        }
        drop(sim1);
        let graph = self.graph;
        let (value_bits, f) = (self.value_bits, self.fixed_point_bits);
        let cfg2 = self
            .config
            .sim
            .clone()
            .with_seed(self.config.seed ^ PHASE2_XOR);
        match self.config.count_mode {
            CountMode::Exact => {
                let mut sim = Simulator::new(graph, cfg2, |v| {
                    let xi = std::mem::take(&mut counts[v]);
                    CountProgram::new(v, n, graph.degree(v), xi, k, value_bits, f)
                });
                if let Some(m) = &self.metrics {
                    sim.set_metrics(m.clone());
                }
                PhaseState::Count {
                    sim,
                    walk_stats,
                    walks_lost,
                }
            }
            CountMode::Sketch { precision } => {
                let mut sim = Simulator::new(graph, cfg2, |v| {
                    SketchCountProgram::new(
                        v,
                        n,
                        graph.degree(v),
                        &counts[v],
                        k,
                        precision,
                        value_bits,
                        f,
                    )
                });
                if let Some(m) = &self.metrics {
                    sim.set_metrics(m.clone());
                }
                PhaseState::SketchCount {
                    sim,
                    walk_stats,
                    walks_lost,
                }
            }
        }
    }

    /// Harvests the drained count phase into the final [`DistributedRun`].
    fn finish(
        &self,
        sim2: Simulator<'g, CountProgram>,
        walk_stats: RunStats,
        walks_lost: u64,
    ) -> Result<PhaseState<'g>, RwbcError> {
        let n = self.graph.node_count();
        let count_stats = sim2.stats().clone();
        let mut degradation = DegradationReport {
            walks_lost,
            walk_subphases: 1,
            ..DegradationReport::default()
        };
        degradation.count_cells_missing = (0..n).map(|v| sim2.program(v).missing()).sum();
        degradation.corrupt_frames_detected =
            walk_stats.corrupt_frames_detected + count_stats.corrupt_frames_detected;
        degradation.links_quarantined =
            walk_stats.dead_links_declared + count_stats.dead_links_declared;
        let mut values = Vec::with_capacity(n);
        for v in 0..n {
            // `approximate` panics here; a long-running host must not.
            values.push(sim2.program(v).betweenness().ok_or_else(|| {
                RwbcError::InvalidParameter {
                    reason: format!("node {v} finished phase 2 without a betweenness value"),
                }
            })?);
        }
        Ok(PhaseState::Done(Box::new(DistributedRun {
            centrality: Centrality::from_values(values),
            target: self.target,
            election_stats: None,
            walk_stats,
            count_stats,
            fixed_point_bits: self.fixed_point_bits,
            count_mode: CountMode::Exact,
            sketch_suppressed: 0,
            degradation,
        })))
    }

    /// Harvests the drained sketch count phase — the sketch-mode twin of
    /// [`StepSolver::finish`], mirroring `approximate_inner`'s lockstep
    /// sketch branch (including the systolic-silence tally).
    fn finish_sketch(
        &self,
        sim2: Simulator<'g, SketchCountProgram>,
        walk_stats: RunStats,
        walks_lost: u64,
    ) -> Result<PhaseState<'g>, RwbcError> {
        let n = self.graph.node_count();
        let count_stats = sim2.stats().clone();
        let mut degradation = DegradationReport {
            walks_lost,
            walk_subphases: 1,
            ..DegradationReport::default()
        };
        degradation.corrupt_frames_detected =
            walk_stats.corrupt_frames_detected + count_stats.corrupt_frames_detected;
        degradation.links_quarantined =
            walk_stats.dead_links_declared + count_stats.dead_links_declared;
        let sketch_suppressed = (0..n).map(|v| sim2.program(v).suppressed()).sum();
        let mut values = Vec::with_capacity(n);
        for v in 0..n {
            values.push(sim2.program(v).betweenness().ok_or_else(|| {
                RwbcError::InvalidParameter {
                    reason: format!("node {v} finished phase 2 without a betweenness value"),
                }
            })?);
        }
        Ok(PhaseState::Done(Box::new(DistributedRun {
            centrality: Centrality::from_values(values),
            target: self.target,
            election_stats: None,
            walk_stats,
            count_stats,
            fixed_point_bits: self.fixed_point_bits,
            count_mode: self.config.count_mode,
            sketch_suppressed,
            degradation,
        })))
    }

    /// Runs remaining rounds to completion and returns the result.
    ///
    /// # Errors
    ///
    /// Same as [`StepSolver::step`].
    pub fn run_to_completion(&mut self) -> Result<&DistributedRun, RwbcError> {
        while !self.step()? {}
        Ok(self.result().expect("step returned true, result present"))
    }

    /// The stage the pipeline is currently in.
    pub fn phase(&self) -> SolvePhase {
        match &self.state {
            PhaseState::Walk(_) => SolvePhase::Walk,
            PhaseState::Count { .. } | PhaseState::SketchCount { .. } => SolvePhase::Count,
            PhaseState::Done(_) => SolvePhase::Done,
            PhaseState::Poisoned => SolvePhase::Failed,
        }
    }

    /// Total CONGEST rounds completed so far, across phases.
    pub fn rounds_completed(&self) -> usize {
        match &self.state {
            PhaseState::Walk(sim) => sim.round(),
            PhaseState::Count {
                sim, walk_stats, ..
            } => walk_stats.rounds + sim.round(),
            PhaseState::SketchCount {
                sim, walk_stats, ..
            } => walk_stats.rounds + sim.round(),
            PhaseState::Done(run) => run.total_rounds(),
            PhaseState::Poisoned => 0,
        }
    }

    /// Whether the run has finished.
    pub fn is_done(&self) -> bool {
        matches!(self.state, PhaseState::Done(_))
    }

    /// The finished run, once [`StepSolver::is_done`].
    pub fn result(&self) -> Option<&DistributedRun> {
        match &self.state {
            PhaseState::Done(run) => Some(run),
            _ => None,
        }
    }

    /// Consumes the solver, yielding the finished run if there is one.
    pub fn into_result(self) -> Option<DistributedRun> {
        match self.state {
            PhaseState::Done(run) => Some(*run),
            _ => None,
        }
    }

    /// `(total rounds, total messages, total bits)` of the finished run —
    /// the fingerprint the crash-recovery tests compare bit-for-bit.
    pub fn fingerprint(&self) -> Option<(usize, u64, u64)> {
        self.result().map(|run| {
            (
                run.total_rounds(),
                run.walk_stats.total_messages + run.count_stats.total_messages,
                run.walk_stats.total_bits + run.count_stats.total_bits,
            )
        })
    }

    /// The absorbing target this solve drew.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// The fitted fixed-point fractional width phase 2 will use.
    pub fn fixed_point_bits(&self) -> u8 {
        self.fixed_point_bits
    }

    /// Serializes the full solve state at the current round boundary:
    /// magic + version, a CRC-guarded header (node count, seed, target,
    /// fixed-point plan, phase tag), a CRC-guarded phase-metadata section,
    /// and the engine's own (internally CRC-sectioned) image.
    ///
    /// # Errors
    ///
    /// [`RwbcError::InvalidParameter`] when the solver is poisoned.
    pub fn checkpoint(&self) -> Result<Vec<u8>, RwbcError> {
        let phase_tag: u8 = match &self.state {
            PhaseState::Walk(_) => 0,
            PhaseState::Count { .. } => 1,
            PhaseState::Done(_) => 2,
            PhaseState::SketchCount { .. } => 3,
            PhaseState::Poisoned => {
                return Err(RwbcError::InvalidParameter {
                    reason: "cannot checkpoint a poisoned StepSolver".to_string(),
                })
            }
        };
        let mut w = BitWriter::new();
        w.write_bits(STEP_CHECKPOINT_MAGIC, 64);
        w.write_bits(STEP_CHECKPOINT_VERSION, 64);
        let mut hw = BitWriter::new();
        self.graph.node_count().encode_state(&mut hw);
        self.config.seed.encode_state(&mut hw);
        self.target.encode_state(&mut hw);
        self.fixed_point_bits.encode_state(&mut hw);
        self.value_bits.encode_state(&mut hw);
        phase_tag.encode_state(&mut hw);
        write_section(&mut w, &hw.finish());

        let mut mw = BitWriter::new();
        match &self.state {
            PhaseState::Walk(_) => {}
            PhaseState::Count {
                walk_stats,
                walks_lost,
                ..
            }
            | PhaseState::SketchCount {
                walk_stats,
                walks_lost,
                ..
            } => {
                walk_stats.encode_state(&mut mw);
                walks_lost.encode_state(&mut mw);
            }
            PhaseState::Done(run) => {
                run.centrality.as_slice().to_vec().encode_state(&mut mw);
                run.walk_stats.encode_state(&mut mw);
                run.count_stats.encode_state(&mut mw);
                run.degradation.walks_lost.encode_state(&mut mw);
                run.degradation.walk_subphases.encode_state(&mut mw);
                run.degradation.count_cells_missing.encode_state(&mut mw);
                run.degradation
                    .corrupt_frames_detected
                    .encode_state(&mut mw);
                run.degradation.links_quarantined.encode_state(&mut mw);
                // Version-2 additions (absent from v1 images, which are
                // always exact-mode runs).
                let mode_precision: u8 = match run.count_mode {
                    CountMode::Exact => 0,
                    CountMode::Sketch { precision } => precision,
                };
                mode_precision.encode_state(&mut mw);
                run.sketch_suppressed.encode_state(&mut mw);
            }
            PhaseState::Poisoned => unreachable!("tagged above"),
        }
        write_section(&mut w, &mw.finish());

        let engine: Vec<u8> = match &self.state {
            PhaseState::Walk(sim) => sim.checkpoint().to_vec(),
            PhaseState::Count { sim, .. } => sim.checkpoint().to_vec(),
            PhaseState::SketchCount { sim, .. } => sim.checkpoint().to_vec(),
            _ => Vec::new(),
        };
        write_section(&mut w, &engine);
        Ok(w.finish().to_vec())
    }

    /// Reconstructs a solver from a [`StepSolver::checkpoint`] image.
    ///
    /// `graph` and `config` must describe the run that produced the image;
    /// the derived plan (target draw, fixed-point fit) is recomputed from
    /// them and validated against the header, so a config that would have
    /// produced a different solve is rejected instead of silently resumed.
    ///
    /// # Errors
    ///
    /// [`RwbcError::Sim`] with [`SimError::CorruptCheckpoint`] when the
    /// image is truncated, mangled, or disagrees with `graph`/`config`;
    /// the same validation errors as [`StepSolver::new`] otherwise.
    pub fn restore(
        graph: &'g Graph,
        config: DistributedConfig,
        data: &[u8],
    ) -> Result<StepSolver<'g>, RwbcError> {
        let (target, f, value_bits) = derive_plan(graph, &config)?;
        let mut r = BitReader::new(data);
        if r.read_bits(64) != Some(STEP_CHECKPOINT_MAGIC) {
            return Err(corrupt("bad magic word"));
        }
        let version = r.read_bits(64).ok_or_else(|| corrupt("truncated header"))?;
        if !(STEP_CHECKPOINT_MIN_VERSION..=STEP_CHECKPOINT_VERSION).contains(&version) {
            return Err(corrupt("unsupported step-checkpoint version"));
        }
        let header = read_section(&mut r, "header")?;
        let mut hr = BitReader::new(&header);
        let n = usize::decode_state(&mut hr).ok_or_else(|| corrupt("truncated header"))?;
        if n != graph.node_count() {
            return Err(corrupt("node count disagrees with the provided graph"));
        }
        let seed = u64::decode_state(&mut hr).ok_or_else(|| corrupt("truncated header"))?;
        if seed != config.seed {
            return Err(corrupt("seed disagrees with the provided config"));
        }
        let image_target =
            usize::decode_state(&mut hr).ok_or_else(|| corrupt("truncated header"))?;
        let image_f = u8::decode_state(&mut hr).ok_or_else(|| corrupt("truncated header"))?;
        let image_vb = u8::decode_state(&mut hr).ok_or_else(|| corrupt("truncated header"))?;
        let phase_tag = u8::decode_state(&mut hr).ok_or_else(|| corrupt("truncated header"))?;
        if (image_target, image_f, image_vb) != (target, f, value_bits) {
            return Err(corrupt(
                "solve plan (target / fixed-point fit) disagrees with the provided config",
            ));
        }
        // Each count-phase tag is owned by exactly one count mode: the
        // engine image decodes as that mode's program type, so a config
        // naming the other mode must be rejected, not misinterpreted.
        let tag_mode_ok = match phase_tag {
            1 => config.count_mode == CountMode::Exact,
            3 => matches!(config.count_mode, CountMode::Sketch { .. }),
            _ => true,
        };
        if !tag_mode_ok {
            return Err(corrupt("count mode disagrees with the image's count phase"));
        }
        let meta = read_section(&mut r, "phase metadata")?;
        let mut mr = BitReader::new(&meta);
        let engine = read_section(&mut r, "engine image")?;

        let state = match phase_tag {
            0 => {
                let cfg1 = config.sim.clone().with_seed(config.seed ^ PHASE1_XOR);
                let sim = Simulator::<WalkProgram>::restore(graph, cfg1, &engine)
                    .map_err(RwbcError::Sim)?;
                PhaseState::Walk(sim)
            }
            1 => {
                let walk_stats = RunStats::decode_state(&mut mr)
                    .ok_or_else(|| corrupt("truncated walk stats"))?;
                let walks_lost =
                    u64::decode_state(&mut mr).ok_or_else(|| corrupt("truncated walk tally"))?;
                let cfg2 = config.sim.clone().with_seed(config.seed ^ PHASE2_XOR);
                let sim = Simulator::<CountProgram>::restore(graph, cfg2, &engine)
                    .map_err(RwbcError::Sim)?;
                PhaseState::Count {
                    sim,
                    walk_stats,
                    walks_lost,
                }
            }
            3 => {
                let walk_stats = RunStats::decode_state(&mut mr)
                    .ok_or_else(|| corrupt("truncated walk stats"))?;
                let walks_lost =
                    u64::decode_state(&mut mr).ok_or_else(|| corrupt("truncated walk tally"))?;
                let cfg2 = config.sim.clone().with_seed(config.seed ^ PHASE2_XOR);
                let sim = Simulator::<SketchCountProgram>::restore(graph, cfg2, &engine)
                    .map_err(RwbcError::Sim)?;
                PhaseState::SketchCount {
                    sim,
                    walk_stats,
                    walks_lost,
                }
            }
            2 => {
                let values: Vec<f64> = Vec::decode_state(&mut mr)
                    .ok_or_else(|| corrupt("truncated centrality values"))?;
                if values.len() != n {
                    return Err(corrupt("centrality length disagrees with the graph"));
                }
                let walk_stats = RunStats::decode_state(&mut mr)
                    .ok_or_else(|| corrupt("truncated walk stats"))?;
                let count_stats = RunStats::decode_state(&mut mr)
                    .ok_or_else(|| corrupt("truncated count stats"))?;
                let walks_lost =
                    u64::decode_state(&mut mr).ok_or_else(|| corrupt("truncated degradation"))?;
                let walk_subphases =
                    usize::decode_state(&mut mr).ok_or_else(|| corrupt("truncated degradation"))?;
                let count_cells_missing =
                    u64::decode_state(&mut mr).ok_or_else(|| corrupt("truncated degradation"))?;
                let corrupt_frames_detected =
                    u64::decode_state(&mut mr).ok_or_else(|| corrupt("truncated degradation"))?;
                let links_quarantined =
                    u64::decode_state(&mut mr).ok_or_else(|| corrupt("truncated degradation"))?;
                let degradation = DegradationReport {
                    walks_lost,
                    walk_subphases,
                    count_cells_missing,
                    corrupt_frames_detected,
                    links_quarantined,
                    ..DegradationReport::default()
                };
                // Version-1 images predate sketch mode: exact, no
                // suppression tally.
                let (count_mode, sketch_suppressed) = if version >= 2 {
                    let mode_precision =
                        u8::decode_state(&mut mr).ok_or_else(|| corrupt("truncated count mode"))?;
                    let mode = match mode_precision {
                        0 => CountMode::Exact,
                        p => CountMode::Sketch { precision: p },
                    };
                    let suppressed = u64::decode_state(&mut mr)
                        .ok_or_else(|| corrupt("truncated suppression tally"))?;
                    (mode, suppressed)
                } else {
                    (CountMode::Exact, 0)
                };
                if count_mode != config.count_mode {
                    return Err(corrupt("count mode disagrees with the provided config"));
                }
                PhaseState::Done(Box::new(DistributedRun {
                    centrality: Centrality::from_values(values),
                    target,
                    election_stats: None,
                    walk_stats,
                    count_stats,
                    fixed_point_bits: f,
                    count_mode,
                    sketch_suppressed,
                    degradation,
                }))
            }
            _ => return Err(corrupt("unknown phase tag")),
        };
        Ok(StepSolver {
            graph,
            config,
            target,
            fixed_point_bits: f,
            value_bits,
            state,
            metrics: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::approximate;
    use rwbc_graph::generators::{connected_gnp, star};

    fn cfg(seed: u64) -> DistributedConfig {
        DistributedConfig::builder()
            .walks(40)
            .length(30)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn stepwise_matches_one_shot_driver_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(77);
        let g = connected_gnp(18, 0.3, 100, &mut rng).unwrap();
        let c = cfg(9);
        let oneshot = approximate(&g, &c).unwrap();
        let mut solver = StepSolver::new(&g, c).unwrap();
        let run = solver.run_to_completion().unwrap();
        assert_eq!(*run, oneshot);
    }

    /// A mid-count-phase exact image, pinned by its CRC-32: the image
    /// keeps the dense `n × degree` cell table however the count phase
    /// stores its cells, so these bytes must not move.
    #[test]
    fn exact_count_phase_image_is_pinned() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = connected_gnp(16, 0.3, 100, &mut rng).unwrap();
        let c = DistributedConfig::builder()
            .walks(6)
            .length(12)
            .seed(3)
            .build()
            .unwrap();
        let mut solver = StepSolver::new(&g, c.clone()).unwrap();
        while solver.phase() != SolvePhase::Count {
            solver.step().unwrap();
        }
        for _ in 0..5 {
            solver.step().unwrap();
        }
        assert_eq!(solver.phase(), SolvePhase::Count);
        let image = solver.checkpoint().unwrap();
        assert_eq!(
            (image.len(), crc32(&image)),
            (16_470, 0x996A_45FF),
            "exact count-phase image changed"
        );
        let mut restored = StepSolver::restore(&g, c, &image).unwrap();
        assert_eq!(restored.checkpoint().unwrap(), image);
        assert_eq!(
            restored.run_to_completion().unwrap(),
            solver.run_to_completion().unwrap()
        );
    }

    #[test]
    fn rejects_uncheckpointable_configs() {
        let g = star(4).unwrap();
        for bad in [
            {
                let mut c = cfg(1);
                c.reliable = true;
                c
            },
            {
                let mut c = cfg(1);
                c.elect_target = true;
                c
            },
            {
                let mut c = cfg(1);
                c.walk_retries = 2;
                c
            },
            {
                let mut c = cfg(1);
                c.partition_tolerant = true;
                c
            },
        ] {
            assert!(matches!(
                StepSolver::new(&g, bad),
                Err(RwbcError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn checkpoint_roundtrips_at_every_boundary() {
        let g = star(6).unwrap();
        let c = cfg(4);
        let oneshot = approximate(&g, &c).unwrap();
        // Checkpoint after every single round, restore, and finish: each
        // resumed run must land on the identical result.
        let mut solver = StepSolver::new(&g, c.clone()).unwrap();
        let mut images = vec![solver.checkpoint().unwrap()];
        while !solver.step().unwrap() {
            images.push(solver.checkpoint().unwrap());
        }
        assert_eq!(*solver.result().unwrap(), oneshot);
        for image in images {
            let mut resumed = StepSolver::restore(&g, c.clone(), &image).unwrap();
            let run = resumed.run_to_completion().unwrap();
            assert_eq!(*run, oneshot, "resume must be bit-identical");
        }
    }

    fn sketch_cfg(seed: u64) -> DistributedConfig {
        DistributedConfig::builder()
            .walks(40)
            .length(30)
            .seed(seed)
            .count_mode(CountMode::Sketch { precision: 4 })
            .build()
            .unwrap()
    }

    #[test]
    fn sketch_stepwise_matches_one_shot_driver_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(101);
        let g = connected_gnp(18, 0.3, 100, &mut rng).unwrap();
        let c = sketch_cfg(9);
        let oneshot = approximate(&g, &c).unwrap();
        let mut solver = StepSolver::new(&g, c).unwrap();
        let run = solver.run_to_completion().unwrap();
        assert_eq!(*run, oneshot);
        assert_eq!(run.count_mode, CountMode::Sketch { precision: 4 });
        assert_eq!(run.count_stats.rounds, 16);
    }

    #[test]
    fn sketch_checkpoint_roundtrips_at_every_boundary() {
        let g = star(6).unwrap();
        let c = sketch_cfg(4);
        let oneshot = approximate(&g, &c).unwrap();
        let mut solver = StepSolver::new(&g, c.clone()).unwrap();
        let mut images = vec![solver.checkpoint().unwrap()];
        while !solver.step().unwrap() {
            images.push(solver.checkpoint().unwrap());
        }
        assert_eq!(*solver.result().unwrap(), oneshot);
        // The image set spans both phases, so mid-count (tag 3) resume and
        // the walk → sketch-count hand-off are both exercised.
        for image in images {
            let mut resumed = StepSolver::restore(&g, c.clone(), &image).unwrap();
            let run = resumed.run_to_completion().unwrap();
            assert_eq!(*run, oneshot, "sketch resume must be bit-identical");
        }
    }

    #[test]
    fn restore_rejects_count_mode_mismatch() {
        let g = star(6).unwrap();
        let exact = cfg(4);
        let sketch = sketch_cfg(4);
        // A mid-count exact image must not restore under a sketch config,
        // and vice versa: the engine images hold different program types.
        let image_in_count = |c: &DistributedConfig| {
            let mut solver = StepSolver::new(&g, c.clone()).unwrap();
            while solver.phase() != SolvePhase::Count {
                solver.step().unwrap();
            }
            solver.checkpoint().unwrap()
        };
        let exact_img = image_in_count(&exact);
        let sketch_img = image_in_count(&sketch);
        assert!(StepSolver::restore(&g, sketch.clone(), &exact_img).is_err());
        assert!(StepSolver::restore(&g, exact.clone(), &sketch_img).is_err());
        // A done sketch image also refuses an exact config (and the other
        // way round), via the v2 metadata.
        let done_img = |c: &DistributedConfig| {
            let mut solver = StepSolver::new(&g, c.clone()).unwrap();
            solver.run_to_completion().unwrap();
            solver.checkpoint().unwrap()
        };
        assert!(StepSolver::restore(&g, exact.clone(), &done_img(&sketch)).is_err());
        assert!(StepSolver::restore(&g, sketch, &done_img(&exact)).is_err());
    }

    #[test]
    fn version_one_walk_images_still_restore() {
        // Walk-phase layout is unchanged since v1, so an aged version field
        // must still be accepted (the range check, not strict equality).
        let g = star(6).unwrap();
        let c = cfg(4);
        let oneshot = approximate(&g, &c).unwrap();
        let mut solver = StepSolver::new(&g, c.clone()).unwrap();
        solver.step().unwrap();
        let mut image = solver.checkpoint().unwrap();
        // The version is a big-endian u64 at bytes 8..16.
        assert_eq!(image[8..16], STEP_CHECKPOINT_VERSION.to_be_bytes());
        image[8..16].copy_from_slice(&STEP_CHECKPOINT_MIN_VERSION.to_be_bytes());
        let mut resumed = StepSolver::restore(&g, c.clone(), &image).unwrap();
        assert_eq!(*resumed.run_to_completion().unwrap(), oneshot);
        // Future versions stay rejected.
        image[8..16].copy_from_slice(&(STEP_CHECKPOINT_VERSION + 1).to_be_bytes());
        assert!(StepSolver::restore(&g, c, &image).is_err());
    }

    #[test]
    fn engine_metrics_track_rounds_across_phases() {
        use congest_sim::Registry;
        let mut rng = StdRng::seed_from_u64(21);
        let g = connected_gnp(16, 0.3, 100, &mut rng).unwrap();
        let c = cfg(5);
        let run = |threads: usize| {
            let mut c = c.clone();
            // Granularity 1: even this 16-node graph splits across all
            // requested workers, so t>1 really runs the parallel fan-out.
            c.sim = c.sim.with_threads(threads).with_granularity(1);
            let registry = Registry::new();
            let mut solver = StepSolver::new(&g, c).unwrap();
            solver.set_metrics(EngineMetrics::register(&registry));
            let result = solver.run_to_completion().unwrap().clone();
            let rounds = solver.rounds_completed();
            (result, rounds, registry.snapshot())
        };
        let (r1, rounds, snap1) = run(1);
        // Attached at round 0, the live counter matches the solver's own
        // cross-phase tally, and the content is thread-count-invariant.
        assert_eq!(snap1.counter("engine_rounds_total"), Some(rounds as u64));
        let (r4, _, snap4) = run(4);
        assert_eq!(&r1, &r4);
        assert_eq!(&snap1, &snap4);
        let (r8, _, snap8) = run(8);
        assert_eq!(&r1, &r8);
        assert_eq!(&snap1, &snap8);
    }

    #[test]
    fn done_checkpoint_carries_the_result() {
        let g = star(5).unwrap();
        let c = cfg(2);
        let mut solver = StepSolver::new(&g, c.clone()).unwrap();
        let run = solver.run_to_completion().unwrap().clone();
        let image = solver.checkpoint().unwrap();
        let restored = StepSolver::restore(&g, c, &image).unwrap();
        assert!(restored.is_done());
        assert_eq!(*restored.result().unwrap(), run);
        assert_eq!(restored.fingerprint(), solver.fingerprint());
    }

    #[test]
    fn corrupt_images_yield_typed_errors() {
        let g = star(5).unwrap();
        let c = cfg(3);
        let mut solver = StepSolver::new(&g, c.clone()).unwrap();
        solver.step().unwrap();
        let image = solver.checkpoint().unwrap();
        // Truncation, bit flips, and a wrong-config restore all fail typed.
        for cut in [0, 8, image.len() / 2, image.len() - 1] {
            match StepSolver::restore(&g, c.clone(), &image[..cut]) {
                Err(RwbcError::Sim(SimError::CorruptCheckpoint { .. })) => {}
                Err(other) => panic!("expected CorruptCheckpoint, got {other:?}"),
                Ok(_) => panic!("truncation at {cut} must not restore"),
            }
        }
        for pos in [16, image.len() / 2, image.len() - 1] {
            let mut mangled = image.clone();
            mangled[pos] ^= 0x40;
            assert!(
                StepSolver::restore(&g, c.clone(), &mangled).is_err(),
                "flip at {pos} must not restore silently"
            );
        }
        let mut other = c.clone();
        other.seed ^= 1;
        assert!(StepSolver::restore(&g, other, &image).is_err());
    }

    #[test]
    fn progress_reporting_tracks_phases() {
        let g = star(6).unwrap();
        let mut solver = StepSolver::new(&g, cfg(5)).unwrap();
        assert_eq!(solver.phase(), SolvePhase::Walk);
        assert_eq!(solver.rounds_completed(), 0);
        let mut saw_count = false;
        while !solver.step().unwrap() {
            saw_count |= solver.phase() == SolvePhase::Count;
        }
        assert!(saw_count, "count phase must be observable");
        assert_eq!(solver.phase(), SolvePhase::Done);
        let run = solver.result().unwrap();
        assert_eq!(solver.rounds_completed(), run.total_rounds());
    }
}
