//! The pipeline driver: the distributed computation one CONGEST round at
//! a time.
//!
//! [`StepSolver`] runs every mode of [`DistributedConfig`];
//! [`approximate`](super::approximate) and
//! [`approximate_traced`](super::approximate_traced) are loops over its
//! [`StepSolver::step`]. The pipeline is a sequence of simulators, one per
//! (sub-)phase:
//!
//! 0. the target election, when `elect_target` is set;
//! 1. walk sub-phases: the first launches every walk, later ones relaunch
//!    the walks faults ate (the transport's retries). Under
//!    [`Transport::PartitionTolerant`] each sub-phase also rebuilds the
//!    survivor graph, restricts the run to its giant component and
//!    redraws a lost target;
//! 2. count passes: one, or under partition tolerance another while a
//!    pass discovers new dead links.
//!
//! The `step` that drains a simulator harvests it and builds the next.
//! The config's [`Transport`] is fixed per solve and carries walk and
//! count programs alike.
//!
//! [`StepSolver::checkpoint`] / [`StepSolver::restore`] cover the *clean
//! single-sub-phase* subset — the default raw transport with no walk
//! retries, and no `elect_target` — which is all the `rwbc-serve` daemon
//! builds; other configs get a typed error. Within it, the engine's
//! schedule-invariant draws make a checkpoint → kill → restore → finish
//! execution reproduce the uninterrupted run at any thread count.

use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::time::Instant;

use congest_sim::wire::{read_end, read_prelude, read_section, BitReader, BitWriter, WireState};
use congest_sim::{
    EngineMetrics, NodeProgram, Reliable, RunStats, SimConfig, SimError, Simulator, Tracer,
    DEFAULT_DEATH_THRESHOLD,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rwbc_graph::traversal::{connected_components, is_connected};
use rwbc_graph::{Graph, NodeId};

use crate::distributed::count_phase::cell_bits;
use crate::distributed::messages::{count_field_bits, len_field_bits, WalkBatch};
use crate::distributed::sketch::sketch_field_bits;
use crate::distributed::{
    span_end, span_start, ComponentCoverage, CountMode, CountProgram, DegradationReport,
    DistributedConfig, DistributedRun, ElectTargetProgram, SketchCountProgram, Transport,
    WalkProgram,
};
use crate::monte_carlo::TargetStrategy;
use crate::{Centrality, RwbcError};

/// Magic word opening a [`StepSolver::checkpoint`] image (distinct from
/// the engine's, so the two image kinds can never be confused).
pub const STEP_CHECKPOINT_MAGIC: u64 = 0x5E12_C4EC;
/// Step-checkpoint format version, the only one [`StepSolver::restore`]
/// accepts. Version 2 added the sketch count phase (tag 3) and the
/// `count_mode` / `sketch_suppressed` fields of done images. Version 3
/// writes the walk and exact count programs' state as they hold it
/// (sorted nonzero rows and cells) and drops the sketch program's
/// `effective_n`. Version 4 nests a version-4 engine image, whose header
/// is a sealed section, and writes the exact count program's cells as
/// the 8-byte words it holds.
pub const STEP_CHECKPOINT_VERSION: u64 = 4;

/// Which pipeline stage a [`StepSolver`] is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolvePhase {
    /// Phase 1 (Algorithm 1): walk tokens in flight — or, with
    /// `elect_target`, the phase-0 election that precedes them.
    Walk,
    /// Phase 2 (Algorithm 2): count exchange in flight.
    Count,
    /// Finished; [`StepSolver::result`] is available.
    Done,
    /// A previous `step` failed mid-transition; the solver is unusable.
    Failed,
}

/// Fractional bits of the phase-2 fixed-point counts, before the budget
/// fit clamps them.
const FIXED_POINT_BITS: u8 = 16;

impl Transport {
    /// Bits the transport adds to a count frame, which the fixed-point
    /// fit reserves off the budget.
    fn header_bits(self) -> usize {
        let header = Reliable::<CountProgram>::HEADER_BITS;
        match self {
            Transport::Raw { .. } => 0,
            Transport::Reliable { checksums: true } => {
                header + Reliable::<CountProgram>::CHECKSUM_BITS
            }
            Transport::Reliable { checksums: false } | Transport::PartitionTolerant { .. } => {
                header
            }
        }
    }
}

/// One phase's simulator, over whichever transport the solve uses.
enum Net<'g, P: NodeProgram> {
    Raw(Simulator<'g, P>),
    Framed(Simulator<'g, Reliable<P>>),
}

impl<'g, P: NodeProgram + Send> Net<'g, P> {
    /// Builds a phase: `program(v, dead)` makes node `v`'s program, given
    /// its neighbors across links already declared dead (only partition
    /// tolerance declares any).
    fn new(
        graph: &'g Graph,
        cfg: SimConfig,
        transport: Transport,
        dead_links: &BTreeSet<(NodeId, NodeId)>,
        mut program: impl FnMut(NodeId, Vec<NodeId>) -> P,
    ) -> Net<'g, P> {
        match transport {
            Transport::Raw { .. } => {
                Net::Raw(Simulator::new(graph, cfg, |v| program(v, Vec::new())))
            }
            Transport::Reliable { checksums } => Net::Framed(Simulator::new(graph, cfg, |v| {
                let framed = Reliable::new(program(v, Vec::new()));
                if checksums {
                    framed
                        .with_checksums()
                        .with_failure_detection(DEFAULT_DEATH_THRESHOLD)
                } else {
                    framed
                }
            })),
            Transport::PartitionTolerant { .. } => Net::Framed(Simulator::new(graph, cfg, |v| {
                let dead: Vec<NodeId> = graph
                    .neighbors(v)
                    .filter(|&u| dead_links.contains(&ordered_pair(v, u)))
                    .collect();
                Reliable::new(program(v, dead.clone()))
                    .with_failure_detection(DEFAULT_DEATH_THRESHOLD)
                    .with_dead_peers(dead)
            })),
        }
    }

    fn step(&mut self) -> Result<bool, SimError> {
        match self {
            Net::Raw(sim) => sim.step(),
            Net::Framed(sim) => sim.step(),
        }
    }

    fn round(&self) -> usize {
        match self {
            Net::Raw(sim) => sim.round(),
            Net::Framed(sim) => sim.round(),
        }
    }

    fn stats(&self) -> &RunStats {
        match self {
            Net::Raw(sim) => sim.stats(),
            Net::Framed(sim) => sim.stats(),
        }
    }

    fn set_metrics(&mut self, metrics: EngineMetrics) {
        match self {
            Net::Raw(sim) => sim.set_metrics(metrics),
            Net::Framed(sim) => sim.set_metrics(metrics),
        }
    }

    fn with_tracer(self, tracer: &'g mut dyn Tracer) -> Net<'g, P> {
        match self {
            Net::Raw(sim) => Net::Raw(sim.with_tracer(tracer)),
            Net::Framed(sim) => Net::Framed(sim.with_tracer(tracer)),
        }
    }

    fn take_tracer(&mut self) -> Option<&'g mut dyn Tracer> {
        match self {
            Net::Raw(sim) => sim.take_tracer(),
            Net::Framed(sim) => sim.take_tracer(),
        }
    }

    fn program(&self, v: NodeId) -> &P {
        match self {
            Net::Raw(sim) => sim.program(v),
            Net::Framed(sim) => sim.program(v).inner(),
        }
    }

    /// Peers whose links node `v`'s transport has declared dead.
    fn dead_peers(&self, v: NodeId) -> Vec<NodeId> {
        match self {
            Net::Raw(_) => Vec::new(),
            Net::Framed(sim) => sim.program(v).dead_peers(),
        }
    }
}

impl<P: NodeProgram + Send + WireState> Net<'_, P>
where
    P::Msg: WireState,
{
    /// The engine image; only bare programs have one.
    fn checkpoint(&self) -> Result<Vec<u8>, RwbcError> {
        match self {
            Net::Raw(sim) => Ok(sim.checkpoint()),
            Net::Framed(_) => Err(not_checkpointable()),
        }
    }
}

/// What the count harvest reads from a drained node, whichever count
/// program ran.
trait CountSeam: NodeProgram + Send {
    /// The node's centrality, once the phase has finished.
    fn value(&self) -> Option<f64>;
    /// Neighbor cells that never arrived.
    fn cells_missing(&self) -> u64 {
        0
    }
    /// Broadcasts the systolic rule suppressed.
    fn broadcasts_suppressed(&self) -> u64 {
        0
    }
}

impl CountSeam for CountProgram {
    fn value(&self) -> Option<f64> {
        self.betweenness()
    }

    fn cells_missing(&self) -> u64 {
        self.missing()
    }
}

impl CountSeam for SketchCountProgram {
    fn value(&self) -> Option<f64> {
        self.betweenness()
    }

    fn broadcasts_suppressed(&self) -> u64 {
        self.suppressed()
    }
}

/// The count phase, exact or sketch-compressed.
enum CountNet<'g> {
    Exact(Net<'g, CountProgram>),
    Sketch(Net<'g, SketchCountProgram>),
}

// One instance per solver, never moved after construction: boxing the
// simulators would buy nothing but an extra indirection on the per-round
// hot path.
#[allow(clippy::large_enum_variant)]
enum PhaseState<'g> {
    Election(Net<'g, ElectTargetProgram>),
    Walk(Net<'g, WalkProgram>),
    Count(CountNet<'g>),
    Done(Box<DistributedRun>),
    /// A phase transition errored after its simulator was consumed.
    Poisoned,
}

/// Evaluates `$body` with `$net` bound to the running phase's [`Net`],
/// whatever its program; `$idle` when no phase runs.
macro_rules! on_net {
    ($state:expr, $net:ident => $body:expr, _ => $idle:expr) => {
        match $state {
            PhaseState::Election($net) => $body,
            PhaseState::Walk($net) => $body,
            PhaseState::Count(CountNet::Exact($net)) => $body,
            PhaseState::Count(CountNet::Sketch($net)) => $body,
            PhaseState::Done(_) | PhaseState::Poisoned => $idle,
        }
    };
}

/// A resumable execution of the distributed pipeline, one CONGEST round
/// per [`StepSolver::step`].
///
/// ```
/// use rwbc::distributed::{DistributedConfig, StepSolver};
/// use rwbc_graph::generators::star;
///
/// # fn main() -> Result<(), rwbc::RwbcError> {
/// let g = star(5)?;
/// let cfg = DistributedConfig::builder().walks(100).length(40).seed(1).build()?;
/// let mut solver = StepSolver::new(&g, cfg.clone())?;
/// for _ in 0..10 {
///     solver.step()?;
/// }
/// // Pause: persist the image, resume it later, and finish identically.
/// let image = solver.checkpoint()?;
/// let mut resumed = StepSolver::restore(&g, cfg, &image)?;
/// assert_eq!(resumed.run_to_completion()?, solver.run_to_completion()?);
/// # Ok(())
/// # }
/// ```
pub struct StepSolver<'g> {
    graph: &'g Graph,
    config: DistributedConfig,
    fixed_point_bits: u8,
    value_bits: u8,
    /// Draws the `Random` target first, then every redraw.
    seeder: StdRng,
    target: NodeId,
    state: PhaseState<'g>,
    /// The running walk sub-phase or count pass (0 for the first).
    attempt: usize,
    /// The open driver span: its name and start.
    span: (String, Instant),
    /// The trace sink, lent to each phase's simulator in turn.
    tracer: Option<&'g mut dyn Tracer>,
    /// Live-metrics handles carried across phase transitions so every
    /// phase's simulator feeds one cumulative set of counters.
    metrics: Option<EngineMetrics>,
    election_stats: Option<RunStats>,
    /// Every finished walk sub-phase, merged.
    walk_stats: Option<RunStats>,
    /// Every finished count pass, merged.
    count_stats: Option<RunStats>,
    /// The nonzero visit counts `ξ_v^s` summed over the walk sub-phases:
    /// row `v` holds `(s, ξ_v^s)` by ascending `s`.
    counts: Vec<Vec<(NodeId, u64)>>,
    /// Walks each source still owes: `K` minus those that completed.
    outstanding: Vec<u64>,
    /// Membership of the survivor graph's giant component (everyone,
    /// unless partition tolerance found a cut).
    in_giant: Vec<bool>,
    /// Links declared dead, as ordered pairs (partition tolerance only).
    dead_links: BTreeSet<(NodeId, NodeId)>,
    /// Each node's centrality, from the last count pass.
    values: Vec<f64>,
    sketch_suppressed: u64,
    degradation: DegradationReport,
}

fn corrupt(reason: &str) -> RwbcError {
    RwbcError::Sim(SimError::CorruptCheckpoint {
        reason: reason.to_string(),
    })
}

fn invalid(reason: String) -> RwbcError {
    RwbcError::InvalidParameter { reason }
}

fn not_checkpointable() -> RwbcError {
    invalid(
        "StepSolver checkpoints cover only the clean single-sub-phase pipeline \
         (the raw transport without walk retries, and no elect_target)"
            .to_string(),
    )
}

/// Whether checkpoints cover `config`: the clean single-sub-phase subset.
fn checkpointable(config: &DistributedConfig) -> bool {
    config.transport == Transport::Raw { walk_retries: 0 } && !config.elect_target
}

/// Normalizes an undirected link for the detected-dead set.
pub(crate) fn ordered_pair(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// The input graph minus every detected-dead link (node set unchanged;
/// fully dead nodes become isolated).
fn survivor_graph(
    graph: &Graph,
    dead_links: &BTreeSet<(NodeId, NodeId)>,
) -> Result<Graph, RwbcError> {
    Ok(Graph::from_edges(
        graph.node_count(),
        graph
            .edges()
            .filter(|e| !dead_links.contains(&ordered_pair(e.u, e.v)))
            .map(|e| (e.u, e.v)),
    )?)
}

/// `K` walks owed by every source but the target.
fn walks_owed(n: usize, target: NodeId, k: usize) -> Vec<u64> {
    (0..n)
        .map(|s| if s == target { 0 } else { k as u64 })
        .collect()
}

fn merge(total: &mut Option<RunStats>, stats: RunStats) {
    match total {
        None => *total = Some(stats),
        Some(t) => t.absorb(&stats),
    }
}

impl<'g> StepSolver<'g> {
    /// Starts a fresh solve at round 0 of its first phase.
    ///
    /// # Errors
    ///
    /// [`RwbcError::TooSmall`] / [`RwbcError::Disconnected`] on invalid
    /// graphs; [`RwbcError::InvalidParameter`] when the fixed target is
    /// out of range, sketch counting meets partition tolerance, the
    /// phase-2 counts cannot fit the budget even with 1 fractional bit,
    /// or an exact count with its slot and source (`2·bits(n − 1) +
    /// value_bits` bits) does not fit a 64-bit cell.
    pub fn new(graph: &'g Graph, config: DistributedConfig) -> Result<StepSolver<'g>, RwbcError> {
        StepSolver::start(graph, config, None)
    }

    /// [`StepSolver::new`] with `tracer` lent to every phase's simulator
    /// and receiving the driver's phase spans.
    pub(crate) fn start(
        graph: &'g Graph,
        config: DistributedConfig,
        tracer: Option<&'g mut dyn Tracer>,
    ) -> Result<StepSolver<'g>, RwbcError> {
        let mut solver = StepSolver::plan(graph, config, tracer)?;
        if solver.config.elect_target {
            solver.begin_election();
        } else {
            solver.begin_walk();
        }
        Ok(solver)
    }

    /// Validates the inputs and derives what the solve fixes up front: the
    /// transport, the target draw (unless elected) and the fixed-point
    /// fit. No phase is running yet.
    fn plan(
        graph: &'g Graph,
        config: DistributedConfig,
        tracer: Option<&'g mut dyn Tracer>,
    ) -> Result<StepSolver<'g>, RwbcError> {
        let n = graph.node_count();
        if n < 2 {
            return Err(RwbcError::TooSmall { n });
        }
        if !is_connected(graph) {
            return Err(RwbcError::Disconnected);
        }
        let mut seeder = StdRng::seed_from_u64(config.seed);
        // An elected target is known only once phase 0 has finished.
        let target = if config.elect_target {
            0
        } else {
            match config.target {
                TargetStrategy::Random => seeder.gen_range(0..n),
                TargetStrategy::Fixed(t) if t < n => t,
                TargetStrategy::Fixed(t) => {
                    return Err(invalid(format!("fixed target {t} out of range")))
                }
            }
        };
        if matches!(config.transport, Transport::PartitionTolerant { .. })
            && matches!(config.count_mode, CountMode::Sketch { .. })
        {
            return Err(invalid(
                "sketch count mode does not compose with partition tolerance \
                 (the survivor-graph combine needs exact per-source columns)"
                    .to_string(),
            ));
        }
        // Fit the fixed-point width under the phase-2 budget, minus what
        // the transport adds to every frame. In sketch mode the frame also
        // carries the bucket index, and the value field widens to the
        // worst-case bucket aggregate.
        let k = config.params.walks_per_node;
        let l = config.params.walk_length;
        let budget = config
            .sim
            .budget_bits(n)
            .saturating_sub(config.transport.header_bits());
        let frame_bits = |f: u8| -> usize {
            match config.count_mode {
                CountMode::Exact => count_field_bits(k, l, f) as usize,
                CountMode::Sketch { precision } => {
                    precision as usize + sketch_field_bits(k, l, n, f) as usize
                }
            }
        };
        let mut f = FIXED_POINT_BITS;
        while f > 1 && frame_bits(f) > budget {
            f -= 1;
        }
        if frame_bits(f) > budget {
            return Err(invalid(format!(
                "phase-2 counts cannot fit the {budget}-bit budget even with 1 fractional bit; \
                 raise the bandwidth coefficient"
            )));
        }
        let value_bits = match config.count_mode {
            CountMode::Exact => count_field_bits(k, l, f),
            CountMode::Sketch { .. } => sketch_field_bits(k, l, n, f),
        };
        // Each received exact count is stored as one word with its slot
        // and source.
        if config.count_mode == CountMode::Exact && cell_bits(n, value_bits) > 64 {
            return Err(invalid(format!(
                "a {value_bits}-bit count with its slot and source takes {} bits, \
                 past a 64-bit cell; lower K or l",
                cell_bits(n, value_bits)
            )));
        }
        Ok(StepSolver {
            graph,
            fixed_point_bits: f,
            value_bits,
            seeder,
            target,
            state: PhaseState::Poisoned,
            attempt: 0,
            span: (String::new(), Instant::now()),
            tracer,
            metrics: None,
            election_stats: None,
            walk_stats: None,
            count_stats: None,
            counts: Vec::new(),
            outstanding: walks_owed(n, target, k),
            in_giant: vec![true; n],
            dead_links: BTreeSet::new(),
            values: Vec::new(),
            sketch_suppressed: 0,
            degradation: DegradationReport::default(),
            config,
        })
    }

    fn open_span(&mut self, name: String) {
        let t0 = span_start(self.tracer.as_deref_mut(), &name);
        self.span = (name, t0);
    }

    fn close_span(&mut self, rounds: usize) {
        span_end(
            self.tracer.as_deref_mut(),
            &self.span.0,
            rounds,
            self.span.1,
        );
    }

    /// Whether the solve runs under [`Transport::PartitionTolerant`].
    fn tolerant(&self) -> bool {
        matches!(self.config.transport, Transport::PartitionTolerant { .. })
    }

    /// Lends the tracer and the metrics handles to a new phase's simulator.
    fn lend<P: NodeProgram + Send>(&mut self, mut net: Net<'g, P>) -> Net<'g, P> {
        if let Some(tracer) = self.tracer.take() {
            net = net.with_tracer(tracer);
        }
        if let Some(m) = &self.metrics {
            net.set_metrics(m.clone());
        }
        net
    }

    /// Engine settings of walk sub-phase `attempt`, and its seed. The seed
    /// also keys the walk draws, so relaunched walks never retrace the
    /// originals.
    fn walk_sim(&self, attempt: usize) -> (SimConfig, u64) {
        let seed = (self.config.seed ^ 0x9E37_79B9).wrapping_add(attempt as u64 * 0x5851_F42D);
        let mut cfg = self.config.sim.clone().with_seed(seed);
        if attempt > 0 && self.tolerant() {
            // Scheduled transients already fired in the first sub-phase;
            // only standing damage carries over into recovery.
            cfg.faults = cfg.faults.collapse_permanent();
        }
        (cfg, seed)
    }

    /// Engine settings of every count pass. Under partition tolerance the
    /// damage is standing: it exists from the pass's first round.
    fn count_sim(&self) -> SimConfig {
        let mut cfg = self
            .config
            .sim
            .clone()
            .with_seed(self.config.seed ^ 0x7F4A_7C15);
        if self.tolerant() {
            cfg.faults = cfg.faults.collapse_permanent();
        }
        cfg
    }

    /// The last walk sub-phase, and under partition tolerance the last
    /// count pass. The reliable transport loses no walk, so it needs no
    /// relaunch.
    fn last_attempt(&self) -> usize {
        match self.config.transport {
            Transport::Raw { walk_retries } => walk_retries,
            Transport::Reliable { .. } => 0,
            Transport::PartitionTolerant { retries } => retries.max(1),
        }
    }

    /// Phase 0: the fully distributed election (the leader draws the
    /// target).
    fn begin_election(&mut self) {
        self.open_span("election".to_string());
        let n = self.graph.node_count();
        let cfg = self.config.sim.clone().with_seed(self.config.seed ^ 0xE1EC);
        let net = Net::Raw(Simulator::new(self.graph, cfg, |v| {
            ElectTargetProgram::new(v, n)
        }));
        self.state = PhaseState::Election(self.lend(net));
    }

    fn end_election(&mut self, mut net: Net<'g, ElectTargetProgram>) -> Result<(), RwbcError> {
        self.tracer = net.take_tracer();
        self.target = net
            .program(0)
            .target()
            .ok_or_else(|| invalid("the election finished without a target".to_string()))?;
        let stats = net.stats().clone();
        self.close_span(stats.rounds);
        self.election_stats = Some(stats);
        drop(net);
        let n = self.graph.node_count();
        self.outstanding = walks_owed(n, self.target, self.config.params.walks_per_node);
        self.begin_walk();
        Ok(())
    }

    /// Walk sub-phase `self.attempt` (Algorithm 1). The first launches
    /// `K` walks per source; later ones relaunch only what is still owed.
    /// A relaunched walk restarts from hop 0, so a lost original's partial
    /// visits stay tallied: a small overcount traded for the large
    /// undercount of losing whole walks.
    fn begin_walk(&mut self) {
        let attempt = self.attempt;
        self.open_span(if attempt == 0 {
            "walk".to_string()
        } else {
            format!("walk-retry-{attempt}")
        });
        let n = self.graph.node_count();
        let k = self.config.params.walks_per_node;
        let l = self.config.params.walk_length;
        let len_bits = len_field_bits(l);
        let (target, discipline) = (self.target, self.config.discipline);
        let (cfg, seed) = self.walk_sim(attempt);
        let batch = self.walk_batch_limit();
        if attempt > 0 {
            self.degradation.walks_relaunched += (0..n)
                .filter(|&s| self.in_giant[s])
                .map(|s| self.outstanding[s])
                .sum::<u64>();
        }
        let net = Net::new(
            self.graph,
            cfg,
            self.config.transport,
            &self.dead_links,
            |v, dead| {
                let walks = if attempt == 0 {
                    WalkProgram::new(v, n, target, k, l, len_bits, discipline)
                } else {
                    // Sources cut off from the target relaunch nothing.
                    let replay = if self.in_giant[v] {
                        self.outstanding[v] as usize
                    } else {
                        0
                    };
                    WalkProgram::resume(v, n, target, vec![l as u32; replay], len_bits, discipline)
                };
                walks
                    .with_draw_seed(seed)
                    .with_batch_limit(batch)
                    .with_dead_neighbors(dead)
            },
        );
        self.state = PhaseState::Walk(self.lend(net));
    }

    /// Tokens one walk message may carry: as many as the run's budget
    /// holds once the transport's frame header is paid.
    fn walk_batch_limit(&self) -> usize {
        let n = self.graph.node_count();
        let payload = self
            .config
            .sim
            .budget_bits(n)
            .saturating_sub(self.config.transport.header_bits());
        WalkBatch::fit(payload, n, len_field_bits(self.config.params.walk_length))
    }

    /// Harvests a drained walk sub-phase. Once the network drains, every
    /// completed walk has died exactly once somewhere, so a source's
    /// death tally short of `K` is what faults ate.
    fn end_walk(&mut self, mut net: Net<'g, WalkProgram>) -> Result<(), RwbcError> {
        self.tracer = net.take_tracer();
        let n = self.graph.node_count();
        let tolerant = self.tolerant();
        self.degradation.walk_subphases += 1;
        if self.counts.is_empty() {
            self.counts = vec![Vec::new(); n];
        }
        for (v, row) in self.counts.iter_mut().enumerate() {
            let p = net.program(v);
            for (s, d) in p.deaths() {
                self.outstanding[s] = self.outstanding[s].saturating_sub(d);
            }
            // A later sub-phase's visits add to the earlier ones.
            row.extend(p.counts());
            row.sort_unstable_by_key(|&(s, _)| s);
            row.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 += later.1;
                }
                same
            });
            if tolerant {
                for peer in net.dead_peers(v) {
                    self.dead_links.insert(ordered_pair(v, peer));
                }
            }
        }
        let stats = net.stats().clone();
        self.close_span(stats.rounds);
        merge(&mut self.walk_stats, stats);
        drop(net);
        if tolerant {
            self.track_survivors()?;
        }
        let owed = (0..n).any(|s| self.in_giant[s] && self.outstanding[s] > 0);
        if owed && self.attempt < self.last_attempt() {
            self.attempt += 1;
            self.begin_walk();
        } else {
            self.degradation.walks_lost = self.outstanding.iter().sum();
            self.attempt = 0;
            self.begin_count()?;
        }
        Ok(())
    }

    /// Recomputes giant-component membership under the current dead links
    /// (ties go to the lowest component id) and returns the giant's size.
    fn find_giant(&mut self) -> Result<usize, RwbcError> {
        let (comp, ncomps) = connected_components(&survivor_graph(self.graph, &self.dead_links)?);
        let mut sizes = vec![0usize; ncomps];
        for &c in &comp {
            sizes[c] += 1;
        }
        let giant = (0..ncomps)
            .max_by_key(|&c| (sizes[c], Reverse(c)))
            .expect("a non-empty graph has at least one component");
        for (member, &c) in self.in_giant.iter_mut().zip(&comp) {
            *member = c == giant;
        }
        Ok(sizes[giant])
    }

    /// Restricts the walks to the survivor graph's giant component. A
    /// target that crashed or was cut off is redrawn among the survivors,
    /// restarting the tally: visits toward different absorbing targets
    /// cannot be mixed.
    fn track_survivors(&mut self) -> Result<(), RwbcError> {
        self.find_giant()?;
        if self.in_giant[self.target] {
            return Ok(());
        }
        let n = self.graph.node_count();
        let k = self.config.params.walks_per_node as u64;
        let members: Vec<NodeId> = (0..n).filter(|&v| self.in_giant[v]).collect();
        let old_target = self.target;
        self.target = members[self.seeder.gen_range(0..members.len())];
        self.degradation.target_redraws += 1;
        for row in &mut self.counts {
            row.clear();
        }
        for s in 0..n {
            // Giant sources restart from scratch and the new target stops
            // being a source. Cut-off sources keep their stranded walks,
            // which are reported as lost.
            if self.in_giant[s] {
                self.outstanding[s] = if s == self.target { 0 } else { k };
            }
        }
        // The dethroned target is a source under the new sink but never
        // launched a walk toward it.
        if !self.in_giant[old_target] {
            self.outstanding[old_target] = k;
        }
        Ok(())
    }

    /// Count pass `self.attempt` (Algorithm 2, exact or sketch-compressed).
    /// Under partition tolerance every known-dead link is pre-seeded and
    /// the result is normalized by the giant component's size, so it
    /// compares with an exact solve on the survivor graph; nodes outside
    /// the giant report 0.
    fn begin_count(&mut self) -> Result<(), RwbcError> {
        let pass = self.attempt;
        self.open_span(if pass == 0 {
            "count".to_string()
        } else {
            format!("count-pass-{pass}")
        });
        let n = self.graph.node_count();
        let k = self.config.params.walks_per_node;
        let (f, value_bits) = (self.fixed_point_bits, self.value_bits);
        let tolerant = self.tolerant();
        let giant_size = if tolerant { self.find_giant()? } else { n };
        // Behind the adapter every cell is awaited by position (and every
        // sketch bucket sent): there, silence could be a pending
        // retransmission.
        let strict = !matches!(self.config.transport, Transport::Raw { .. });
        let graph = self.graph;
        let cfg = self.count_sim();
        self.state = match self.config.count_mode {
            CountMode::Exact => {
                let net = Net::new(
                    graph,
                    cfg,
                    self.config.transport,
                    &self.dead_links,
                    |v, dead| {
                        CountProgram::new(v, n, graph.degree(v), &self.counts[v], k, value_bits, f)
                            .with_strict_delivery(strict)
                            .with_effective_n(if self.in_giant[v] { giant_size } else { 2 })
                            .with_dead_neighbors(dead)
                    },
                );
                PhaseState::Count(CountNet::Exact(self.lend(net)))
            }
            CountMode::Sketch { precision } => {
                let net = Net::new(
                    graph,
                    cfg,
                    self.config.transport,
                    &self.dead_links,
                    |v, _| {
                        SketchCountProgram::new(
                            v,
                            n,
                            graph.degree(v),
                            &self.counts[v],
                            k,
                            precision,
                            value_bits,
                            f,
                        )
                        .with_strict_delivery(strict)
                    },
                );
                PhaseState::Count(CountNet::Sketch(self.lend(net)))
            }
        };
        // A tolerant pass may re-run, so it keeps the counts.
        if !tolerant {
            self.counts = Vec::new();
        }
        Ok(())
    }

    /// Harvests a drained count pass, exact or sketch alike.
    fn end_count<P: CountSeam>(&mut self, mut net: Net<'g, P>) -> Result<(), RwbcError> {
        self.tracer = net.take_tracer();
        let n = self.graph.node_count();
        let tolerant = self.tolerant();
        // The reliable transport leaves both tallies at 0: it repairs every
        // loss but those on quarantined links (reported as such), and it
        // sends every bucket.
        if !matches!(self.config.transport, Transport::Reliable { .. }) {
            self.degradation.count_cells_missing =
                (0..n).map(|v| net.program(v).cells_missing()).sum();
            self.sketch_suppressed = (0..n).map(|v| net.program(v).broadcasts_suppressed()).sum();
        }
        let known_dead = self.dead_links.len();
        if tolerant {
            for v in 0..n {
                for peer in net.dead_peers(v) {
                    self.dead_links.insert(ordered_pair(v, peer));
                }
            }
        }
        self.values = (0..n)
            .map(|v| match (self.in_giant[v], net.program(v).value()) {
                (false, _) => Ok(0.0),
                (true, Some(value)) => Ok(value),
                (true, None) if tolerant => Ok(0.0),
                (true, None) => Err(invalid(format!(
                    "node {v} finished phase 2 without a betweenness value"
                ))),
            })
            .collect::<Result<_, _>>()?;
        let stats = net.stats().clone();
        drop(net);
        self.close_span(stats.rounds);
        merge(&mut self.count_stats, stats);
        // Walk traffic may never have crossed some dead links, so a count
        // pass can be the first to find them. Its giant component (and
        // with it the normalization) was then stale: pass again.
        if tolerant && self.dead_links.len() > known_dead && self.attempt < self.last_attempt() {
            self.attempt += 1;
            self.begin_count()
        } else {
            self.finish()
        }
    }

    /// Assembles the final [`DistributedRun`].
    fn finish(&mut self) -> Result<(), RwbcError> {
        let graph = self.graph;
        let n = graph.node_count();
        let k = self.config.params.walks_per_node as u64;
        let walk_stats = self.walk_stats.take().expect("the walk phase ran");
        let count_stats = self.count_stats.take().expect("a count pass ran");
        let mut degradation = std::mem::take(&mut self.degradation);
        if self.tolerant() {
            // The detected-failure report, including links only the count
            // phase exercised.
            let dead = &self.dead_links;
            degradation.dead_links_detected = dead.iter().copied().collect();
            degradation.dead_nodes_detected = (0..n)
                .filter(|&v| {
                    graph.degree(v) > 0
                        && graph
                            .neighbors(v)
                            .all(|u| dead.contains(&ordered_pair(v, u)))
                })
                .collect();
            let (comp, ncomps) = connected_components(&survivor_graph(graph, dead)?);
            let target = self.target;
            degradation.components = (0..ncomps)
                .map(|c| {
                    let members: Vec<NodeId> = (0..n).filter(|&v| comp[v] == c).collect();
                    let sources = members.iter().filter(|&&s| s != target);
                    ComponentCoverage {
                        nodes: members.len(),
                        contains_target: members.binary_search(&target).is_ok(),
                        walks_expected: sources.clone().count() as u64 * k,
                        walks_completed: sources
                            .map(|&s| k.saturating_sub(self.outstanding[s]))
                            .sum(),
                    }
                })
                .collect();
        } else {
            degradation.corrupt_frames_detected =
                walk_stats.corrupt_frames_detected + count_stats.corrupt_frames_detected;
            degradation.links_quarantined =
                walk_stats.dead_links_declared + count_stats.dead_links_declared;
        }
        self.state = PhaseState::Done(Box::new(DistributedRun {
            centrality: Centrality::from_values(std::mem::take(&mut self.values)),
            target: self.target,
            election_stats: self.election_stats.take(),
            walk_stats,
            count_stats,
            fixed_point_bits: self.fixed_point_bits,
            count_mode: self.config.count_mode,
            sketch_suppressed: self.sketch_suppressed,
            degradation,
        }));
        Ok(())
    }

    /// Attaches live-metrics handles to the solver. The running phase's
    /// simulator starts feeding them immediately, and the handles are
    /// re-attached at every phase transition, so the engine counters
    /// accumulate over the whole pipeline: attached at round 0,
    /// `engine_rounds_total` equals [`StepSolver::rounds_completed`] at
    /// any quiescent point (attached later — e.g. after
    /// [`StepSolver::restore`] — they count the rounds run since).
    /// Metrics never perturb the simulation; attaching them is safe at
    /// any round boundary.
    pub fn set_metrics(&mut self, metrics: EngineMetrics) {
        on_net!(&mut self.state, net => net.set_metrics(metrics.clone()), _ => {});
        self.metrics = Some(metrics);
    }

    /// Advances the pipeline by one CONGEST round. The step that drains a
    /// phase also harvests it and builds the next phase's simulator.
    /// Returns `true` once the run is complete; further calls are no-ops.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`RwbcError::Sim`]); a transition
    /// failure poisons the solver and every later call reports it.
    pub fn step(&mut self) -> Result<bool, RwbcError> {
        let drained = on_net!(&mut self.state, net => net.step().map_err(RwbcError::Sim)?, _ => {
            return match self.state {
                PhaseState::Done(_) => Ok(true),
                _ => Err(invalid(
                    "StepSolver was poisoned by an earlier transition failure".to_string(),
                )),
            };
        });
        if !drained {
            return Ok(false);
        }
        // The simulator is consumed here, so a failed transition leaves
        // the solver poisoned rather than silently rewound.
        match std::mem::replace(&mut self.state, PhaseState::Poisoned) {
            PhaseState::Election(net) => self.end_election(net)?,
            PhaseState::Walk(net) => self.end_walk(net)?,
            PhaseState::Count(CountNet::Exact(net)) => self.end_count(net)?,
            PhaseState::Count(CountNet::Sketch(net)) => self.end_count(net)?,
            PhaseState::Done(_) | PhaseState::Poisoned => {
                unreachable!("only a running phase drains")
            }
        }
        Ok(self.is_done())
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
            PhaseState::Election(_) | PhaseState::Walk(_) => SolvePhase::Walk,
            PhaseState::Count(_) => SolvePhase::Count,
            PhaseState::Done(_) => SolvePhase::Done,
            PhaseState::Poisoned => SolvePhase::Failed,
        }
    }

    /// Total CONGEST rounds completed so far, across phases.
    pub fn rounds_completed(&self) -> usize {
        let finished: usize = [&self.election_stats, &self.walk_stats, &self.count_stats]
            .into_iter()
            .flatten()
            .map(|stats| stats.rounds)
            .sum();
        match &self.state {
            PhaseState::Done(run) => run.total_rounds(),
            state => on_net!(state, net => finished + net.round(), _ => 0),
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

    /// [`DistributedRun::fingerprint`] of the finished run.
    pub fn fingerprint(&self) -> Option<(usize, u64, u64)> {
        self.result().map(DistributedRun::fingerprint)
    }

    /// The absorbing target. With `elect_target` it is known once the
    /// election has finished; under partition tolerance a redraw may
    /// replace it.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// The fitted fixed-point fractional width phase 2 will use.
    pub fn fixed_point_bits(&self) -> u8 {
        self.fixed_point_bits
    }

    /// Serializes the full solve state at the current round boundary:
    /// the 16-byte prelude (magic, version) and three sealed sections
    /// ([`BitWriter::section`]): the header (node count, seed, target,
    /// fixed-point plan, phase tag), the phase metadata, and the engine's
    /// own image (itself a prelude and sealed sections).
    ///
    /// # Errors
    ///
    /// [`RwbcError::InvalidParameter`] when the config is outside the
    /// clean single-sub-phase subset or the solver is poisoned.
    pub fn checkpoint(&self) -> Result<Vec<u8>, RwbcError> {
        if !checkpointable(&self.config) {
            return Err(not_checkpointable());
        }
        let (phase_tag, engine): (u8, Vec<u8>) = match &self.state {
            PhaseState::Walk(net) => (0, net.checkpoint()?),
            PhaseState::Count(CountNet::Exact(net)) => (1, net.checkpoint()?),
            PhaseState::Done(_) => (2, Vec::new()),
            PhaseState::Count(CountNet::Sketch(net)) => (3, net.checkpoint()?),
            PhaseState::Election(_) => unreachable!("the clean subset elects no target"),
            PhaseState::Poisoned => {
                return Err(invalid(
                    "cannot checkpoint a poisoned StepSolver".to_string(),
                ))
            }
        };
        let mut w = BitWriter::new();
        w.write_bits(STEP_CHECKPOINT_MAGIC, 64);
        w.write_bits(STEP_CHECKPOINT_VERSION, 64);
        w.section(|w| {
            self.graph.node_count().encode_state(w);
            self.config.seed.encode_state(w);
            self.target.encode_state(w);
            self.fixed_point_bits.encode_state(w);
            self.value_bits.encode_state(w);
            phase_tag.encode_state(w);
        });
        w.section(|w| match &self.state {
            PhaseState::Count(_) => {
                self.walk_stats
                    .as_ref()
                    .expect("the walk phase ran")
                    .encode_state(w);
                self.degradation.walks_lost.encode_state(w);
            }
            PhaseState::Done(run) => {
                run.centrality.as_slice().to_vec().encode_state(w);
                run.walk_stats.encode_state(w);
                run.count_stats.encode_state(w);
                run.degradation.walks_lost.encode_state(w);
                run.degradation.walk_subphases.encode_state(w);
                run.degradation.count_cells_missing.encode_state(w);
                run.degradation.corrupt_frames_detected.encode_state(w);
                run.degradation.links_quarantined.encode_state(w);
                let mode_precision: u8 = match run.count_mode {
                    CountMode::Exact => 0,
                    CountMode::Sketch { precision } => precision,
                };
                mode_precision.encode_state(w);
                run.sketch_suppressed.encode_state(w);
            }
            _ => {}
        });
        w.section(|w| w.write_bytes(&engine));
        Ok(w.finish())
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
    /// image is truncated, mangled, of another format version, holds data
    /// past its last section or past the fields a section decodes to, or
    /// disagrees with `graph`/`config`; [`RwbcError::InvalidParameter`]
    /// when `config` is outside the clean single-sub-phase subset; the
    /// same validation errors as [`StepSolver::new`] otherwise.
    pub fn restore(
        graph: &'g Graph,
        config: DistributedConfig,
        data: &[u8],
    ) -> Result<StepSolver<'g>, RwbcError> {
        let mut solver = StepSolver::plan(graph, config, None)?;
        if !checkpointable(&solver.config) {
            return Err(not_checkpointable());
        }
        let (magic, version) = (STEP_CHECKPOINT_MAGIC, STEP_CHECKPOINT_VERSION);
        let mut r = read_prelude(data, magic, version, "step-checkpoint")?;
        let mut section = |what| read_section(&mut r, what).map(BitReader::new);
        let ((n, seed), (image_target, image_f), (image_vb, phase_tag)): (
            (usize, u64),
            (usize, u8),
            (u8, u8),
        ) = {
            let mut header = section("header")?;
            let fields =
                WireState::decode_state(&mut header).ok_or_else(|| corrupt("truncated header"))?;
            read_end(&header, "header section")?;
            fields
        };
        if n != graph.node_count() {
            return Err(corrupt("node count disagrees with the provided graph"));
        }
        if seed != solver.config.seed {
            return Err(corrupt("seed disagrees with the provided config"));
        }
        if (image_target, image_f, image_vb)
            != (solver.target, solver.fixed_point_bits, solver.value_bits)
        {
            return Err(corrupt(
                "solve plan (target / fixed-point fit) disagrees with the provided config",
            ));
        }
        // Each count-phase tag is owned by exactly one count mode: the
        // engine image decodes as that mode's program type, so a config
        // naming the other mode must be rejected, not misinterpreted.
        let tag_mode_ok = match phase_tag {
            1 => solver.config.count_mode == CountMode::Exact,
            3 => matches!(solver.config.count_mode, CountMode::Sketch { .. }),
            _ => true,
        };
        if !tag_mode_ok {
            return Err(corrupt("count mode disagrees with the image's count phase"));
        }
        let mut mr = section("phase metadata")?;
        let engine = read_section(&mut r, "engine image")?;
        read_end(&r, "step-checkpoint image")?;

        solver.state = match phase_tag {
            0 => {
                let cfg = solver.walk_sim(0).0;
                let mut sim: Simulator<'g, WalkProgram> =
                    Simulator::restore(graph, cfg, engine).map_err(RwbcError::Sim)?;
                // Program images are checked on decode; the batches in
                // flight can only be checked against the network here.
                let unknown_source = sim
                    .in_flight()
                    .flat_map(|m| m.msg.tokens())
                    .any(|token| token.source >= n);
                if unknown_source {
                    return Err(corrupt("an in-flight walk token names no node"));
                }
                let batch = solver.walk_batch_limit();
                for program in sim.programs_mut() {
                    program.set_batch_limit(batch);
                }
                solver.span.0 = "walk".to_string();
                PhaseState::Walk(Net::Raw(sim))
            }
            1 | 3 => {
                let walk_stats = RunStats::decode_state(&mut mr)
                    .ok_or_else(|| corrupt("truncated walk stats"))?;
                let walks_lost =
                    u64::decode_state(&mut mr).ok_or_else(|| corrupt("truncated walk tally"))?;
                solver.walk_stats = Some(walk_stats);
                solver.degradation.walks_lost = walks_lost;
                solver.degradation.walk_subphases = 1;
                solver.span.0 = "count".to_string();
                let cfg = solver.count_sim();
                PhaseState::Count(if phase_tag == 1 {
                    CountNet::Exact(Net::Raw(
                        Simulator::restore(graph, cfg, engine).map_err(RwbcError::Sim)?,
                    ))
                } else {
                    CountNet::Sketch(Net::Raw(
                        Simulator::restore(graph, cfg, engine).map_err(RwbcError::Sim)?,
                    ))
                })
            }
            2 => {
                if !engine.is_empty() {
                    return Err(corrupt("a finished solve's image holds an engine image"));
                }
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
                let mode_precision =
                    u8::decode_state(&mut mr).ok_or_else(|| corrupt("truncated count mode"))?;
                let count_mode = match mode_precision {
                    0 => CountMode::Exact,
                    p => CountMode::Sketch { precision: p },
                };
                let sketch_suppressed = u64::decode_state(&mut mr)
                    .ok_or_else(|| corrupt("truncated suppression tally"))?;
                if count_mode != solver.config.count_mode {
                    return Err(corrupt("count mode disagrees with the provided config"));
                }
                PhaseState::Done(Box::new(DistributedRun {
                    centrality: Centrality::from_values(values),
                    target: solver.target,
                    election_stats: None,
                    walk_stats,
                    count_stats,
                    fixed_point_bits: solver.fixed_point_bits,
                    count_mode,
                    sketch_suppressed,
                    degradation: DegradationReport {
                        walks_lost,
                        walk_subphases,
                        count_cells_missing,
                        corrupt_frames_detected,
                        links_quarantined,
                        ..DegradationReport::default()
                    },
                }))
            }
            _ => return Err(corrupt("unknown phase tag")),
        };
        read_end(&mr, "phase metadata section")?;
        Ok(solver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::approximate;
    use congest_sim::wire::crc32;
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
    fn plan_rejects_counts_too_wide_for_a_cell() {
        // n = 4: a cell's slot and source take 2 bits each, which leaves
        // 60 for the count. With l = 1 and 16 fractional bits, K = 2^42
        // needs 44 + 16 of them and K = 2^43 one more.
        let g = star(3).unwrap();
        let config = |k: usize| {
            DistributedConfig::builder()
                .walks(k)
                .length(1)
                .sim(SimConfig::default().with_bandwidth_coeff(64))
                .build()
                .unwrap()
        };
        let fits = StepSolver::plan(&g, config(1 << 42), None).map(|s| s.value_bits);
        assert!(matches!(fits, Ok(60)), "{:?}", fits.err());
        assert!(matches!(
            StepSolver::plan(&g, config(1 << 43), None),
            Err(RwbcError::InvalidParameter { .. })
        ));
    }

    /// A mid-count-phase exact image, pinned by its CRC-32: the image
    /// holds each program's nonzero own pairs and its cells in arrival
    /// order, as the count phase stores them, so these bytes must not
    /// move unless the format version does.
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
            (8_706, 0x7027_31A1),
            "exact count-phase image changed"
        );
        let mut restored = StepSolver::restore(&g, c, &image).unwrap();
        assert_eq!(restored.checkpoint().unwrap(), image);
        assert_eq!(
            restored.run_to_completion().unwrap(),
            solver.run_to_completion().unwrap()
        );
    }

    /// Asserts `solver`'s image has the pinned `(length, CRC-32)`, then
    /// that it restores to the same bytes and the same finished run.
    fn assert_image_pinned(
        g: &Graph,
        c: DistributedConfig,
        mut solver: StepSolver<'_>,
        pin: (usize, u32),
        what: &str,
    ) {
        let image = solver.checkpoint().unwrap();
        assert_eq!((image.len(), crc32(&image)), pin, "{what} image changed");
        let mut restored = StepSolver::restore(g, c, &image).unwrap();
        assert_eq!(restored.checkpoint().unwrap(), image);
        assert_eq!(
            restored.run_to_completion().unwrap(),
            solver.run_to_completion().unwrap()
        );
    }

    /// Mid-walk images under both disciplines, pinned by CRC-32: the image
    /// holds the sorted nonzero visit-count and death rows, the sorted
    /// ticket list and every in-flight batch as a token list.
    #[test]
    fn walk_phase_images_are_pinned() {
        use crate::distributed::CongestionDiscipline;
        let mut rng = StdRng::seed_from_u64(5);
        let g = connected_gnp(16, 0.3, 100, &mut rng).unwrap();
        for (discipline, pin) in [
            (CongestionDiscipline::HoldAndResend, (7_095, 0xFE37_42AA)),
            (CongestionDiscipline::Batched, (8_407, 0x7623_095A)),
        ] {
            let c = DistributedConfig::builder()
                .walks(6)
                .length(12)
                .seed(3)
                .discipline(discipline)
                .build()
                .unwrap();
            let mut solver = StepSolver::new(&g, c.clone()).unwrap();
            for _ in 0..3 {
                solver.step().unwrap();
            }
            // Six walks per node leave tokens parked and have issued
            // tickets 0..5 at every birth state; under `Batched` some
            // edge has carried several tokens in one message.
            let PhaseState::Walk(net) = &solver.state else {
                panic!("the walk phase must still run")
            };
            assert!((0..16).any(|v| net.program(v).queued() > 0));
            let stats = net.stats();
            let one_token = 4 + WalkBatch::token_bits(16, len_field_bits(12));
            assert_eq!(
                stats.max_bits_edge_round > one_token,
                discipline == CongestionDiscipline::Batched
            );
            assert_image_pinned(&g, c, solver, pin, &format!("{discipline:?} walk"));
        }
    }

    /// A walk image whose only in-flight batch carries a source outside
    /// the network gets a typed error, not a panic at the harvest.
    #[test]
    fn restore_rejects_in_flight_tokens_from_unknown_sources() {
        let g = star(5).unwrap();
        let n = g.node_count();
        let c = cfg(4);
        let solver = StepSolver::new(&g, c.clone()).unwrap();
        // An engine image holding one batch that names node n: node 1
        // launches a walk under that id, then every node gets a clean
        // program.
        let (sim_cfg, seed) = solver.walk_sim(0);
        let len_bits = len_field_bits(30);
        let program = |me: NodeId, lengths: Vec<u32>| {
            WalkProgram::resume(me, n, solver.target(), lengths, len_bits, c.discipline)
                .with_draw_seed(seed)
        };
        let mut sim = Simulator::new(&g, sim_cfg, |v| {
            if v == 1 {
                program(n, vec![2])
            } else {
                program(v, Vec::new())
            }
        });
        sim.step().unwrap();
        for (v, p) in sim.programs_mut().iter_mut().enumerate() {
            *p = program(v, Vec::new());
        }
        let mut in_flight = sim.in_flight();
        let batch = in_flight.next().expect("one batch in flight").msg;
        assert!(in_flight.next().is_none());
        assert_eq!(batch.tokens()[0].source, n);
        // Frame it like the solver's own image: its prelude, header and
        // phase metadata, then this engine image.
        let image = solver.checkpoint().unwrap();
        let mut w = BitWriter::new();
        w.write_bytes(&image[..16]);
        let mut r = BitReader::new(&image[16..]);
        for what in ["header", "phase metadata"] {
            let payload = read_section(&mut r, what).unwrap();
            w.section(|w| w.write_bytes(payload));
        }
        w.section(|w| w.write_bytes(&sim.checkpoint()));
        match StepSolver::restore(&g, c, &w.finish()) {
            Err(RwbcError::Sim(SimError::CorruptCheckpoint { reason })) => {
                assert!(reason.contains("in-flight"), "{reason}");
            }
            Err(other) => panic!("expected CorruptCheckpoint, got {other:?}"),
            Ok(_) => panic!("an unknown source must not restore"),
        }
    }

    /// A mid-count sketch image, pinned like the exact one.
    #[test]
    fn sketch_count_phase_image_is_pinned() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = connected_gnp(16, 0.3, 100, &mut rng).unwrap();
        let c = DistributedConfig::builder()
            .walks(6)
            .length(12)
            .seed(3)
            .count_mode(CountMode::Sketch { precision: 4 })
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
        assert_image_pinned(&g, c, solver, (11_793, 0x2A26_B64D), "sketch count-phase");
    }

    #[test]
    fn every_mode_solves_but_only_the_clean_subset_checkpoints() {
        let g = star(4).unwrap();
        for bad in [
            {
                let mut c = cfg(1);
                c.transport = Transport::Reliable { checksums: false };
                c
            },
            {
                let mut c = cfg(1);
                c.elect_target = true;
                c
            },
            {
                let mut c = cfg(1);
                c.transport = Transport::Raw { walk_retries: 2 };
                c
            },
            {
                let mut c = cfg(1);
                c.transport = Transport::PartitionTolerant { retries: 0 };
                c
            },
        ] {
            let mut solver = StepSolver::new(&g, bad.clone()).unwrap();
            assert!(matches!(
                solver.checkpoint(),
                Err(RwbcError::InvalidParameter { .. })
            ));
            solver.run_to_completion().unwrap();
            assert!(matches!(
                solver.checkpoint(),
                Err(RwbcError::InvalidParameter { .. })
            ));
            let clean = StepSolver::new(&g, cfg(1)).unwrap().checkpoint().unwrap();
            assert!(matches!(
                StepSolver::restore(&g, bad, &clean),
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
        // way round), via the count mode in its metadata.
        let done_img = |c: &DistributedConfig| {
            let mut solver = StepSolver::new(&g, c.clone()).unwrap();
            solver.run_to_completion().unwrap();
            solver.checkpoint().unwrap()
        };
        assert!(StepSolver::restore(&g, exact.clone(), &done_img(&sketch)).is_err());
        assert!(StepSolver::restore(&g, sketch, &done_img(&exact)).is_err());
    }

    #[test]
    fn other_image_versions_get_a_typed_error() {
        let g = star(6).unwrap();
        let c = cfg(4);
        let mut solver = StepSolver::new(&g, c.clone()).unwrap();
        solver.step().unwrap();
        let mut image = solver.checkpoint().unwrap();
        // The version is a big-endian u64 at bytes 8..16.
        assert_eq!(image[8..16], 4u64.to_be_bytes());
        for version in [1u64, 2, 3, 5] {
            image[8..16].copy_from_slice(&version.to_be_bytes());
            match StepSolver::restore(&g, c.clone(), &image) {
                Err(RwbcError::Sim(SimError::CorruptCheckpoint { reason })) => {
                    assert!(reason.contains(&format!("version {version}")), "{reason}");
                }
                Err(other) => panic!("expected CorruptCheckpoint, got {other:?}"),
                Ok(_) => panic!("a version-{version} image must not restore"),
            }
        }
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
    fn rounds_completed_spans_every_phase_and_sub_phase() {
        use congest_sim::{FaultPlan, Registry, SimConfig};
        let mut rng = StdRng::seed_from_u64(21);
        let g = connected_gnp(16, 0.3, 100, &mut rng).unwrap();
        let mut c = cfg(5);
        c.elect_target = true;
        c.transport = Transport::Raw { walk_retries: 3 };
        c.sim = SimConfig::default().with_faults(FaultPlan::default().with_drop_probability(0.02));
        let registry = Registry::new();
        let mut solver = StepSolver::new(&g, c).unwrap();
        solver.set_metrics(EngineMetrics::register(&registry));
        let run = solver.run_to_completion().unwrap().clone();
        assert!(run.degradation.walk_subphases > 1, "a relaunch must run");
        assert_eq!(solver.rounds_completed(), run.total_rounds());
        assert_eq!(
            registry.snapshot().counter("engine_rounds_total"),
            Some(run.total_rounds() as u64)
        );
    }

    /// The fingerprint counts the election's messages and bits, as it
    /// counts its rounds.
    #[test]
    fn fingerprint_covers_every_phase() {
        let g = star(5).unwrap();
        let c = DistributedConfig::builder()
            .walks(30)
            .length(20)
            .seed(7)
            .elect_target(true)
            .build()
            .unwrap();
        let mut solver = StepSolver::new(&g, c).unwrap();
        let run = solver.run_to_completion().unwrap().clone();
        let election = run.election_stats.as_ref().expect("the election ran");
        assert_eq!(
            (
                election.rounds,
                election.total_messages,
                election.total_bits
            ),
            (9, 29, 116)
        );
        assert_eq!(solver.fingerprint(), Some((213, 1_451, 17_900)));
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

    /// Nothing may follow a step image's last section, and no section may
    /// hold more than its decoder reads: in a walk, a mid-count and a
    /// finished image, appended bytes are refused, and so is a zero byte
    /// re-sealed into the end of the header, the phase metadata or the
    /// engine image (which for a finished solve must be empty).
    #[test]
    fn restore_refuses_data_past_what_it_decodes() {
        let g = star(5).unwrap();
        let c = cfg(6);
        let mut solver = StepSolver::new(&g, c.clone()).unwrap();
        solver.step().unwrap();
        let mut images = vec![solver.checkpoint().unwrap()];
        while solver.phase() != SolvePhase::Count {
            solver.step().unwrap();
        }
        solver.step().unwrap();
        images.push(solver.checkpoint().unwrap());
        solver.run_to_completion().unwrap();
        images.push(solver.checkpoint().unwrap());
        let refused = |image: &[u8]| {
            matches!(
                StepSolver::restore(&g, c.clone(), image),
                Err(RwbcError::Sim(SimError::CorruptCheckpoint { .. }))
            )
        };
        for image in &images {
            assert!(StepSolver::restore(&g, c.clone(), image).is_ok());
            for tail in [&[0u8][..], &[0xAB, 0xCD, 0xEF]] {
                let mut long = image.clone();
                long.extend_from_slice(tail);
                assert!(refused(&long), "image with {tail:?} appended restored");
            }
            for section in 0..3 {
                let mut w = BitWriter::new();
                w.write_bytes(&image[..16]);
                let mut r = BitReader::new(&image[16..]);
                for at in 0..3 {
                    let mut payload = read_section(&mut r, "test").unwrap().to_vec();
                    if at == section {
                        payload.push(0);
                    }
                    w.section(|w| w.write_bytes(&payload));
                }
                assert!(
                    refused(&w.finish()),
                    "section {section} with a trailing zero byte restored"
                );
            }
        }
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
