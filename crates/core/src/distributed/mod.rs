//! The paper's contribution: distributed RWBC approximation under CONGEST.
//!
//! The computation runs in the two phases of Section VI-B:
//!
//! 1. **Counting** ([`WalkProgram`], Algorithm 1): a target `t` is chosen at
//!    random; every other node launches `K` random-walk tokens of length
//!    `l`; walks are absorbed at `t` or truncated; every node tallies
//!    per-source visit counts `ξ_v^s`. `O(Kn + l)` rounds (Lemma 2).
//! 2. **Computing** ([`CountProgram`], Algorithm 2): nodes exchange
//!    degree-scaled counts with neighbors — one source per round,
//!    pipelined — then evaluate Eqs. 6–8 locally. `O(n)` rounds (Lemma 3).
//!
//! Together: `O(n log n)` rounds for `K = Θ(log n)`, `l = Θ(n)`
//! (Theorem 5), and every message is `O(log n)` bits (Theorem 4) — both
//! *enforced* by the simulator, not just claimed.
//!
//! The module also contains the trivial baseline the paper contrasts with
//! (Section I): [`collect_and_solve`] gathers the whole topology at one
//! node in `O(m + D)` rounds and solves exactly — more rounds on dense
//! graphs, exact output, and the workhorse of the lower-bound experiment.
//!
//! # Example
//!
//! ```
//! use rwbc::distributed::{approximate, DistributedConfig};
//! use rwbc::exact::newman;
//! use rwbc_graph::generators::star;
//!
//! # fn main() -> Result<(), rwbc::RwbcError> {
//! let g = star(5)?;
//! let cfg = DistributedConfig::builder().walks(800).length(60).seed(1).build()?;
//! let run = approximate(&g, &cfg)?;
//! assert!(run.walk_stats.congest_compliant());
//! assert!(run.count_stats.congest_compliant());
//! // The hub wins, as in the exact computation.
//! assert_eq!(run.centrality.argmax(), newman(&g)?.argmax());
//! # Ok(())
//! # }
//! ```

mod collect;
mod count_phase;
mod election;
pub mod messages;
pub mod sketch;
mod sketch_count;
mod stepwise;
mod walk_phase;

pub use collect::{collect_and_solve, collect_and_solve_traced, CollectRun};
pub use count_phase::CountProgram;
pub use election::{ElectMsg, ElectTargetProgram};
pub use sketch::{
    sketch_error_bound, stacked_error_bound, SketchCountMsg, VisitSketch, MAX_SKETCH_PRECISION,
    MIN_SKETCH_PRECISION,
};
pub use sketch_count::SketchCountProgram;
pub use stepwise::{SolvePhase, StepSolver, STEP_CHECKPOINT_MAGIC, STEP_CHECKPOINT_VERSION};
pub use walk_phase::WalkProgram;

use serde::{Deserialize, Serialize};

use std::time::Instant;

use congest_sim::{RunStats, SimConfig, TraceEvent, Tracer};
use rwbc_graph::{Graph, NodeId};

use crate::monte_carlo::TargetStrategy;
use crate::params::ApproxParams;
use crate::{Centrality, RwbcError};

/// How simultaneous walk tokens contend for an edge (design decision D3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CongestionDiscipline {
    /// The paper's rule (Algorithm 1 line 6): one token per edge per round;
    /// the rest wait and re-roll.
    #[default]
    HoldAndResend,
    /// Ablation: pack as many tokens per message as the `O(log n)`-bit
    /// budget admits. Same estimator, fewer rounds.
    Batched,
}

/// How phase 2 represents and ships the visit counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CountMode {
    /// The paper's Algorithm 2: one fixed-point count per source,
    /// `n` rounds, exact combine. The bit-identical reference path.
    #[default]
    Exact,
    /// Sketch-compressed counting: sources hash into `2^precision`
    /// buckets and nodes exchange bucket aggregates — `2^precision`
    /// rounds and a `B × degree` receive store instead of `n × degree`,
    /// at the accuracy cost bounded by [`stacked_error_bound`].
    Sketch {
        /// Bucket-count exponent, in
        /// [`MIN_SKETCH_PRECISION`]`..=`[`MAX_SKETCH_PRECISION`].
        precision: u8,
    },
}

/// Configuration for [`approximate`].
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedConfig {
    /// The `(K, l)` pair of Algorithm 1.
    pub params: ApproxParams,
    /// Absorbing-target selection (Algorithm 1 line 2).
    pub target: TargetStrategy,
    /// When `true`, the target is chosen by the fully distributed
    /// election protocol ([`ElectTargetProgram`], `O(n)` extra rounds)
    /// instead of by the driver; `target` is then ignored.
    pub elect_target: bool,
    /// Master seed (drives both the target draw and every node's coins).
    pub seed: u64,
    /// Edge-contention rule.
    pub discipline: CongestionDiscipline,
    /// Fractional bits of the phase-2 fixed-point counts (clamped to fit
    /// the budget; the value actually used is reported in the run).
    pub fixed_point_bits: u8,
    /// When `true`, both phases run behind the
    /// [`Reliable`](congest_sim::Reliable) delivery adapter: every walk
    /// token and count message survives the configured
    /// [`FaultPlan`](congest_sim::FaultPlan) (drops, duplicates, delays are
    /// repaired by retransmission), at the price of extra rounds and the
    /// per-message header bits. Phase 2 then uses strict-delivery
    /// (position-indexed) count attribution.
    pub reliable: bool,
    /// When `true` (requires `reliable`), the delivery adapter seals every
    /// frame with a CRC-32 ([`Reliable::with_checksums`]) and arms the
    /// failure detector: frames corrupted in flight by the
    /// [`FaultPlan`](congest_sim::FaultPlan) are detected and discarded
    /// (then repaired by retransmission) instead of silently skewing the
    /// estimate, and links that corrupt persistently are quarantined. The
    /// seal costs [`Reliable::CHECKSUM_BITS`] extra bits per frame, which
    /// the phase-2 fixed-point fitting reserves off the budget.
    ///
    /// [`Reliable::with_checksums`]: congest_sim::Reliable::with_checksums
    /// [`Reliable::CHECKSUM_BITS`]: congest_sim::Reliable#associatedconstant.CHECKSUM_BITS
    pub checksums: bool,
    /// Recovery sub-phases for the *unreliable* walk phase: after the
    /// network drains, sources whose tokens went missing (per-source death
    /// tally short of `K`) relaunch the difference, up to this many times.
    /// Ignored when `reliable` is set (nothing is ever lost there).
    pub walk_retries: usize,
    /// Tolerates **permanent** node and link failures. Both phases run
    /// behind [`Reliable::with_failure_detection`]: dead channels are
    /// declared instead of retried forever, surviving nodes patch their
    /// live-neighbor sets, in-flight walks are re-sampled away from dead
    /// links, and when the failures partition the graph the computation
    /// restricts itself to the surviving giant component (re-drawing the
    /// absorbing target there if it died). Takes precedence over
    /// `reliable`; `walk_retries` bounds the relaunch sub-phases
    /// (minimum 1).
    ///
    /// [`Reliable::with_failure_detection`]: congest_sim::Reliable::with_failure_detection
    pub partition_tolerant: bool,
    /// Phase-2 count representation ([`CountMode::Exact`] by default;
    /// [`CountMode::Sketch`] compresses traffic and memory at a bounded
    /// accuracy cost). Sketch mode composes with `reliable`/`checksums`
    /// but not with `partition_tolerant`.
    pub count_mode: CountMode,
    /// Simulator settings (bandwidth coefficient, thread count, cut, ...).
    pub sim: SimConfig,
}

impl DistributedConfig {
    /// Theory-driven defaults for a graph of `n` nodes: `K`, `l` from
    /// [`ApproxParams::from_theory`] with `ε = δ = 0.1`.
    ///
    /// # Errors
    ///
    /// Returns [`RwbcError::InvalidParameter`] when `n < 2`.
    pub fn from_theory(n: usize) -> Result<DistributedConfig, RwbcError> {
        Ok(DistributedConfig {
            params: ApproxParams::from_theory(n, 0.1, 0.1)?,
            target: TargetStrategy::Random,
            elect_target: false,
            seed: 0,
            discipline: CongestionDiscipline::default(),
            fixed_point_bits: 16,
            reliable: false,
            checksums: false,
            walk_retries: 0,
            partition_tolerant: false,
            count_mode: CountMode::default(),
            sim: SimConfig::default(),
        })
    }

    /// Starts a builder with explicit parameters.
    pub fn builder() -> DistributedConfigBuilder {
        DistributedConfigBuilder::default()
    }
}

/// Builder for [`DistributedConfig`].
#[derive(Debug, Clone, Default)]
pub struct DistributedConfigBuilder {
    walks: Option<usize>,
    length: Option<usize>,
    target: TargetStrategy,
    elect_target: bool,
    seed: u64,
    discipline: CongestionDiscipline,
    fixed_point_bits: Option<u8>,
    reliable: bool,
    checksums: bool,
    walk_retries: usize,
    partition_tolerant: bool,
    count_mode: CountMode,
    sim: Option<SimConfig>,
}

impl DistributedConfigBuilder {
    /// Sets `K`, the walks per node.
    #[must_use]
    pub fn walks(mut self, k: usize) -> Self {
        self.walks = Some(k);
        self
    }

    /// Sets `l`, the walk length.
    #[must_use]
    pub fn length(mut self, l: usize) -> Self {
        self.length = Some(l);
        self
    }

    /// Sets the absorbing-target strategy.
    #[must_use]
    pub fn target(mut self, t: TargetStrategy) -> Self {
        self.target = t;
        self
    }

    /// Enables the fully distributed target election (phase 0).
    #[must_use]
    pub fn elect_target(mut self, elect: bool) -> Self {
        self.elect_target = elect;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the congestion discipline.
    #[must_use]
    pub fn discipline(mut self, d: CongestionDiscipline) -> Self {
        self.discipline = d;
        self
    }

    /// Sets the fixed-point fractional bits for phase 2.
    #[must_use]
    pub fn fixed_point_bits(mut self, f: u8) -> Self {
        self.fixed_point_bits = Some(f);
        self
    }

    /// Runs both phases behind the reliable-delivery adapter.
    #[must_use]
    pub fn reliable(mut self, reliable: bool) -> Self {
        self.reliable = reliable;
        self
    }

    /// Seals delivery-layer frames with CRC-32 checksums (see
    /// [`DistributedConfig::checksums`]). Implies nothing without
    /// `reliable(true)`.
    #[must_use]
    pub fn checksums(mut self, checksums: bool) -> Self {
        self.checksums = checksums;
        self
    }

    /// Sets the number of walk-relaunch recovery sub-phases.
    #[must_use]
    pub fn walk_retries(mut self, retries: usize) -> Self {
        self.walk_retries = retries;
        self
    }

    /// Tolerates permanent node/link failures (see
    /// [`DistributedConfig::partition_tolerant`]).
    #[must_use]
    pub fn partition_tolerant(mut self, tolerant: bool) -> Self {
        self.partition_tolerant = tolerant;
        self
    }

    /// Sets the phase-2 count representation (see [`CountMode`]).
    #[must_use]
    pub fn count_mode(mut self, mode: CountMode) -> Self {
        self.count_mode = mode;
        self
    }

    /// Sets the simulator configuration.
    #[must_use]
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = Some(sim);
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RwbcError::InvalidParameter`] when `K` or `l` is missing
    /// or zero.
    pub fn build(self) -> Result<DistributedConfig, RwbcError> {
        let (Some(k), Some(l)) = (self.walks, self.length) else {
            return Err(RwbcError::InvalidParameter {
                reason: "builder requires both walks(K) and length(l)".to_string(),
            });
        };
        if let CountMode::Sketch { precision } = self.count_mode {
            if !(MIN_SKETCH_PRECISION..=MAX_SKETCH_PRECISION).contains(&precision) {
                return Err(RwbcError::InvalidParameter {
                    reason: format!(
                        "sketch precision {precision} outside \
                         {MIN_SKETCH_PRECISION}..={MAX_SKETCH_PRECISION}"
                    ),
                });
            }
            if self.partition_tolerant {
                return Err(RwbcError::InvalidParameter {
                    reason: "sketch count mode does not compose with partition tolerance \
                             (the survivor-graph combine needs exact per-source columns)"
                        .to_string(),
                });
            }
        }
        Ok(DistributedConfig {
            params: ApproxParams::new(k, l)?,
            target: self.target,
            elect_target: self.elect_target,
            seed: self.seed,
            discipline: self.discipline,
            fixed_point_bits: self.fixed_point_bits.unwrap_or(16),
            reliable: self.reliable,
            checksums: self.checksums,
            walk_retries: self.walk_retries,
            partition_tolerant: self.partition_tolerant,
            count_mode: self.count_mode,
            sim: self.sim.unwrap_or_default(),
        })
    }
}

/// What fault injection cost a run, and what recovery won back.
///
/// A fault-free run (or one behind the reliable layer) reports
/// `walks_lost == 0` and `count_cells_missing == 0`; anything else means
/// the estimate is degraded and by how much.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Walk tokens still unaccounted for after all recovery sub-phases
    /// (each missing token undercounts every visit it would have made).
    pub walks_lost: u64,
    /// Replacement tokens launched by the recovery sub-phases.
    pub walks_relaunched: u64,
    /// Walk sub-phases executed (1 for a run that needed no recovery).
    pub walk_subphases: usize,
    /// Phase-2 neighbor-count cells that never arrived and evaluated as
    /// zero.
    pub count_cells_missing: u64,
    /// Links the failure detector declared permanently dead, as undirected
    /// `(u, v)` pairs with `u < v`, sorted (partition-tolerant runs only).
    pub dead_links_detected: Vec<(NodeId, NodeId)>,
    /// Nodes every incident link of which was declared dead — the
    /// detector's view of a permanently crashed node (sorted).
    pub dead_nodes_detected: Vec<NodeId>,
    /// Connected components of the survivor graph (the input graph minus
    /// detected-dead links), with per-component walk coverage. A healthy
    /// partition-tolerant run reports a single component covering
    /// everything; other run modes leave this empty.
    pub components: Vec<ComponentCoverage>,
    /// Times the absorbing target was lost (crashed or cut off from the
    /// giant component) and re-drawn among the survivors, restarting the
    /// walk tally.
    pub target_redraws: usize,
    /// Frames the checksummed delivery layer caught and discarded
    /// (requires [`DistributedConfig::checksums`]). Detected corruption
    /// is *repaired* by retransmission, so this counter measures faults
    /// survived, not damage suffered — it does not disqualify a run from
    /// [`DegradationReport::is_clean`].
    pub corrupt_frames_detected: u64,
    /// Links the delivery layer declared dead during a checksummed
    /// reliable run — persistently corrupting (or persistently lossy)
    /// channels quarantined by the failure detector. Traffic toward a
    /// quarantined link is abandoned, so a nonzero count degrades the
    /// estimate.
    pub links_quarantined: u64,
}

impl DegradationReport {
    /// Whether the run lost nothing (the estimate is exactly what a
    /// fault-free execution would have produced, modulo recovery noise).
    /// Detected-and-repaired corrupt frames don't count against this;
    /// quarantined links do.
    pub fn is_clean(&self) -> bool {
        self.walks_lost == 0
            && self.count_cells_missing == 0
            && self.dead_links_detected.is_empty()
            && self.dead_nodes_detected.is_empty()
            && self.target_redraws == 0
            && self.links_quarantined == 0
    }
}

/// Walk coverage of one connected component of the survivor graph.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentCoverage {
    /// Nodes in the component.
    pub nodes: usize,
    /// Whether the (final) absorbing target lives here. The estimate is
    /// only meaningful for the component that contains it.
    pub contains_target: bool,
    /// Walk tokens the component's sources were expected to complete
    /// (`K` per non-target source).
    pub walks_expected: u64,
    /// Walk tokens of those sources that completed (absorbed or
    /// truncated) across all sub-phases.
    pub walks_completed: u64,
}

/// Result of a distributed approximation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedRun {
    /// The estimated centrality (node `v`'s value was computed *at* node
    /// `v`, as the problem demands).
    pub centrality: Centrality,
    /// The absorbing target that was drawn.
    pub target: NodeId,
    /// Phase-0 (target election) statistics, when `elect_target` was set.
    pub election_stats: Option<congest_sim::RunStats>,
    /// Phase-1 (Algorithm 1) round/traffic statistics.
    pub walk_stats: congest_sim::RunStats,
    /// Phase-2 (Algorithm 2) round/traffic statistics.
    pub count_stats: congest_sim::RunStats,
    /// Fractional bits actually used for the fixed-point counts (may be
    /// clamped below the configured value to fit the budget).
    pub fixed_point_bits: u8,
    /// The phase-2 representation this run used (echoed from the config).
    pub count_mode: CountMode,
    /// Broadcasts the systolic optimization suppressed in phase 2
    /// (sketch lockstep mode only; 0 elsewhere).
    pub sketch_suppressed: u64,
    /// What fault injection cost this run (all-zero when faults were off
    /// or fully repaired).
    pub degradation: DegradationReport,
}

/// Per-phase traffic attribution of a [`DistributedRun`]: which phase
/// shipped how much. `collect` covers the optional phase-0 target
/// election (the only collect-style phase in the pipeline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Phase 0 (target election), when it ran.
    pub collect: Option<congest_sim::PhaseTraffic>,
    /// Phase 1 (Algorithm 1, walk tokens), all sub-phases combined.
    pub walk: congest_sim::PhaseTraffic,
    /// Phase 2 (Algorithm 2, count/sketch exchange), all passes combined.
    pub count: congest_sim::PhaseTraffic,
}

impl DistributedRun {
    /// Total rounds across all phases — the paper's time-complexity
    /// metric (Theorem 5).
    pub fn total_rounds(&self) -> usize {
        self.election_stats.as_ref().map_or(0, |s| s.rounds)
            + self.walk_stats.rounds
            + self.count_stats.rounds
    }

    /// The per-phase traffic attribution (walk vs count vs collect).
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        PhaseBreakdown {
            collect: self.election_stats.as_ref().map(RunStats::traffic),
            walk: self.walk_stats.traffic(),
            count: self.count_stats.traffic(),
        }
    }

    /// Whether every phase stayed within the CONGEST budget (Theorem 4).
    pub fn congest_compliant(&self) -> bool {
        self.election_stats
            .as_ref()
            .is_none_or(congest_sim::RunStats::congest_compliant)
            && self.walk_stats.congest_compliant()
            && self.count_stats.congest_compliant()
    }
}

/// Runs the full distributed approximation (Algorithms 1 + 2): a loop
/// over [`StepSolver::step`], the pipeline's only driver.
///
/// # Errors
///
/// * [`RwbcError::TooSmall`] / [`RwbcError::Disconnected`] on invalid
///   graphs;
/// * [`RwbcError::InvalidParameter`] on bad targets or when even 1
///   fractional bit cannot fit the phase-2 budget;
/// * [`RwbcError::Sim`] on CONGEST violations (which would indicate a bug —
///   the algorithm is designed to comply).
pub fn approximate(graph: &Graph, config: &DistributedConfig) -> Result<DistributedRun, RwbcError> {
    solve(StepSolver::new(graph, config.clone())?)
}

/// Runs [`approximate`] with a [`Tracer`] attached to every simulator
/// phase, bracketed by driver-side spans (`election`, `walk`,
/// `walk-retry-N`, `count`, `count-pass-N`) carrying simulated-round and
/// wall-clock timings.
///
/// Tracing is observational: the returned [`DistributedRun`] is identical
/// to what [`approximate`] produces for the same inputs. The plain entry
/// point never attaches a tracer, so untraced runs construct no events at
/// all.
///
/// # Errors
///
/// Same conditions as [`approximate`].
pub fn approximate_traced(
    graph: &Graph,
    config: &DistributedConfig,
    tracer: &mut dyn Tracer,
) -> Result<DistributedRun, RwbcError> {
    solve(StepSolver::start(graph, config.clone(), Some(tracer))?)
}

/// Steps a solve to completion.
fn solve(mut solver: StepSolver<'_>) -> Result<DistributedRun, RwbcError> {
    while !solver.step()? {}
    Ok(solver
        .into_result()
        .expect("a finished solve holds its run"))
}

/// Opens a driver-side phase span and starts its wall clock.
pub(crate) fn span_start(tracer: Option<&mut (dyn Tracer + '_)>, name: &str) -> Instant {
    if let Some(tr) = tracer {
        tr.record(&TraceEvent::PhaseStart {
            name: name.to_string(),
        });
    }
    Instant::now()
}

/// Closes a driver-side phase span with its round count and elapsed time.
pub(crate) fn span_end(
    tracer: Option<&mut (dyn Tracer + '_)>,
    name: &str,
    rounds: usize,
    t0: Instant,
) {
    if let Some(tr) = tracer {
        tr.record(&TraceEvent::PhaseEnd {
            name: name.to_string(),
            rounds,
            elapsed_us: t0.elapsed().as_micros() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::stepwise::ordered_pair;
    use super::*;
    use crate::accuracy::{mean_relative_error, spearman_rho};
    use crate::exact::newman;
    use crate::monte_carlo::{estimate, McConfig};
    use rand::SeedableRng;
    use rwbc_graph::generators::{connected_gnp, fig1_graph, path, star};

    #[test]
    fn distributed_matches_exact_on_star() {
        let g = star(5).unwrap();
        let cfg = DistributedConfig::builder()
            .walks(1500)
            .length(80)
            .seed(2)
            .build()
            .unwrap();
        let run = approximate(&g, &cfg).unwrap();
        assert!(run.congest_compliant());
        let exact = newman(&g).unwrap();
        let err = mean_relative_error(&run.centrality, &exact);
        assert!(err < 0.06, "mean relative error {err}");
    }

    #[test]
    fn distributed_matches_monte_carlo_shape() {
        // Same estimator, different execution substrate: rankings agree on
        // a random graph.
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let g = connected_gnp(24, 0.25, 100, &mut rng).unwrap();
        let exact = newman(&g).unwrap();
        let dcfg = DistributedConfig::builder()
            .walks(600)
            .length(150)
            .seed(3)
            .target(TargetStrategy::Fixed(0))
            .build()
            .unwrap();
        let drun = approximate(&g, &dcfg).unwrap();
        let mcfg = McConfig::new(600, 150)
            .with_seed(3)
            .with_target(TargetStrategy::Fixed(0));
        let mrun = estimate(&g, &mcfg).unwrap();
        assert!(spearman_rho(&drun.centrality, &exact) > 0.9);
        assert!(spearman_rho(&mrun.centrality, &exact) > 0.9);
        assert!(spearman_rho(&drun.centrality, &mrun.centrality) > 0.9);
    }

    #[test]
    fn fig1_distributed_recovers_the_story() {
        let (g, l) = fig1_graph(3).unwrap();
        let cfg = DistributedConfig::builder()
            .walks(1200)
            .length(120)
            .seed(5)
            .build()
            .unwrap();
        let run = approximate(&g, &cfg).unwrap();
        // C beats the endpoint floor; A and B are top-2.
        let floor = 2.0 / g.node_count() as f64;
        assert!(run.centrality[l.c] > 1.1 * floor);
        let top = run.centrality.top_k(2);
        assert!(top.contains(&l.a) && top.contains(&l.b));
    }

    #[test]
    fn deterministic_under_seed() {
        let g = star(4).unwrap();
        let cfg = DistributedConfig::builder()
            .walks(40)
            .length(30)
            .seed(9)
            .build()
            .unwrap();
        let a = approximate(&g, &cfg).unwrap();
        let b = approximate(&g, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn phase2_rounds_are_linear_in_n() {
        let g = path(20).unwrap();
        let cfg = DistributedConfig::builder()
            .walks(5)
            .length(40)
            .seed(1)
            .build()
            .unwrap();
        let run = approximate(&g, &cfg).unwrap();
        assert_eq!(run.count_stats.rounds, 20, "Lemma 3: exactly n rounds");
    }

    #[test]
    fn builder_validation() {
        assert!(DistributedConfig::builder().walks(5).build().is_err());
        assert!(DistributedConfig::builder().length(5).build().is_err());
        assert!(DistributedConfig::builder()
            .walks(0)
            .length(5)
            .build()
            .is_err());
        assert!(DistributedConfig::from_theory(1).is_err());
        let cfg = DistributedConfig::from_theory(64).unwrap();
        assert!(cfg.params.walks_per_node >= 1);
    }

    #[test]
    fn input_validation() {
        let cfg = DistributedConfig::builder()
            .walks(4)
            .length(4)
            .build()
            .unwrap();
        let tiny = rwbc_graph::Graph::empty(1);
        assert!(matches!(
            approximate(&tiny, &cfg),
            Err(RwbcError::TooSmall { .. })
        ));
        let disc = rwbc_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            approximate(&disc, &cfg),
            Err(RwbcError::Disconnected)
        ));
        let bad_target = DistributedConfig::builder()
            .walks(4)
            .length(4)
            .target(TargetStrategy::Fixed(10))
            .build()
            .unwrap();
        let g = star(3).unwrap();
        assert!(matches!(
            approximate(&g, &bad_target),
            Err(RwbcError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn elected_target_pipeline_works_end_to_end() {
        let g = star(5).unwrap();
        let cfg = DistributedConfig::builder()
            .walks(300)
            .length(40)
            .seed(7)
            .elect_target(true)
            .build()
            .unwrap();
        let run = approximate(&g, &cfg).unwrap();
        let stats = run.election_stats.as_ref().expect("election phase ran");
        assert!(stats.congest_compliant());
        // Election window is n rounds plus <= D spread.
        assert!(stats.rounds >= g.node_count());
        assert!(stats.rounds <= g.node_count() + 4);
        assert!(run.congest_compliant());
        assert!(run.target < g.node_count());
        assert!(run.total_rounds() > run.walk_stats.rounds + run.count_stats.rounds);
        // Output is still a sound estimate.
        let exact = newman(&g).unwrap();
        assert!(mean_relative_error(&run.centrality, &exact) < 0.15);
    }

    #[test]
    fn partition_tolerant_clean_run_reports_one_full_component() {
        use congest_sim::SimConfig;
        let (g, _l) = fig1_graph(3).unwrap();
        let mut cfg = DistributedConfig::builder()
            .walks(60)
            .length(40)
            .seed(3)
            .target(TargetStrategy::Fixed(0))
            .partition_tolerant(true)
            .build()
            .unwrap();
        cfg.sim = SimConfig::default().with_bandwidth_coeff(16);
        let run = approximate(&g, &cfg).unwrap();
        assert!(run.degradation.is_clean());
        assert_eq!(run.degradation.components.len(), 1);
        let c = &run.degradation.components[0];
        assert_eq!(c.nodes, g.node_count());
        assert!(c.contains_target);
        assert_eq!(c.walks_expected, c.walks_completed);
        assert!(c.walks_expected > 0);
    }

    #[test]
    fn partition_tolerant_run_survives_a_permanent_crash() {
        use congest_sim::{FaultPlan, NodeCrash, SimConfig};
        let (g, l) = fig1_graph(3).unwrap();
        // A clique member: the survivor graph minus it stays connected, so
        // the giant component is everyone else.
        let victim = l.left[1];
        let mut cfg = DistributedConfig::builder()
            .walks(150)
            .length(60)
            .seed(9)
            .target(TargetStrategy::Fixed(0))
            .partition_tolerant(true)
            .build()
            .unwrap();
        cfg.walk_retries = 3;
        cfg.sim = SimConfig::default().with_bandwidth_coeff(16).with_faults(
            FaultPlan::default().with_node_crash(NodeCrash {
                node: victim,
                crash_round: 30,
                recover_round: None,
            }),
        );
        let run = approximate(&g, &cfg).unwrap();
        assert_eq!(run.degradation.dead_nodes_detected, vec![victim]);
        // Every incident channel of the victim was individually declared.
        for u in g.neighbors(victim) {
            assert!(
                run.degradation
                    .dead_links_detected
                    .contains(&ordered_pair(victim, u)),
                "link to {u} undeclared"
            );
        }
        // Giant component (everyone else) + the isolated victim.
        assert_eq!(run.degradation.components.len(), 2);
        let giant = run
            .degradation
            .components
            .iter()
            .find(|c| c.contains_target)
            .expect("target survives");
        assert_eq!(giant.nodes, g.node_count() - 1);
        assert_eq!(
            giant.walks_completed, giant.walks_expected,
            "survivor-side recovery must finish every giant-component walk"
        );
        assert_eq!(run.centrality[victim], 0.0);
        assert_eq!(run.degradation.target_redraws, 0);
    }

    #[test]
    fn killing_the_target_redraws_it_among_survivors() {
        use congest_sim::{FaultPlan, NodeCrash, SimConfig};
        let (g, _l) = fig1_graph(3).unwrap();
        let mut cfg = DistributedConfig::builder()
            .walks(100)
            .length(50)
            .seed(11)
            .target(TargetStrategy::Fixed(0))
            .partition_tolerant(true)
            .build()
            .unwrap();
        cfg.walk_retries = 3;
        cfg.sim = SimConfig::default().with_bandwidth_coeff(16).with_faults(
            FaultPlan::default().with_node_crash(NodeCrash {
                node: 0,
                crash_round: 20,
                recover_round: None,
            }),
        );
        let run = approximate(&g, &cfg).unwrap();
        assert!(run.degradation.target_redraws >= 1);
        assert_ne!(run.target, 0, "the dead target must be replaced");
        assert!(run.degradation.dead_nodes_detected.contains(&0));
        assert_eq!(run.centrality[0], 0.0);
    }

    #[test]
    fn severed_link_is_declared_without_partitioning() {
        use congest_sim::{FaultPlan, LinkOutage, SimConfig};
        let (g, l) = fig1_graph(3).unwrap();
        // An in-clique edge: its loss never disconnects anything.
        let (u, v) = (l.left[0], l.left[1]);
        let mut cfg = DistributedConfig::builder()
            .walks(150)
            .length(60)
            .seed(13)
            .target(TargetStrategy::Fixed(0))
            .partition_tolerant(true)
            .build()
            .unwrap();
        cfg.walk_retries = 2;
        cfg.sim = SimConfig::default().with_bandwidth_coeff(16).with_faults(
            FaultPlan::default().with_link_outage(LinkOutage {
                u,
                v,
                from_round: 0,
                until_round: usize::MAX,
            }),
        );
        let run = approximate(&g, &cfg).unwrap();
        assert!(run
            .degradation
            .dead_links_detected
            .contains(&ordered_pair(u, v)));
        assert!(run.degradation.dead_nodes_detected.is_empty());
        assert_eq!(run.degradation.components.len(), 1);
        assert_eq!(run.degradation.components[0].nodes, g.node_count());
        assert_eq!(run.degradation.target_redraws, 0);
    }

    #[test]
    fn corrupt_run_with_checksums_matches_the_clean_fingerprint() {
        use congest_sim::{FaultPlan, LinkCorruption, SimConfig};
        let (g, l) = fig1_graph(3).unwrap();
        let build = |plan: FaultPlan, threads: usize| {
            let mut cfg = DistributedConfig::builder()
                .walks(60)
                .length(40)
                .seed(21)
                .target(TargetStrategy::Fixed(0))
                .reliable(true)
                .checksums(true)
                .build()
                .unwrap();
            cfg.sim = SimConfig::default()
                .with_bandwidth_coeff(16)
                .with_threads(threads)
                .with_granularity(1)
                .with_faults(plan);
            cfg
        };
        let clean = approximate(&g, &build(FaultPlan::default(), 1)).unwrap();
        assert!(clean.degradation.is_clean());
        assert_eq!(clean.degradation.corrupt_frames_detected, 0);
        // Random per-message mangling plus one window of persistent
        // corruption on a clique edge.
        let plan = FaultPlan::default()
            .with_corrupt_probability(0.05)
            .with_link_corruption(LinkCorruption {
                u: l.left[0],
                v: l.left[1],
                from_round: 5,
                until_round: 15,
            });
        for threads in [1, 4, 8] {
            let run = approximate(&g, &build(plan.clone(), threads)).unwrap();
            assert!(
                run.walk_stats.corrupted + run.count_stats.corrupted > 0,
                "the corruption plan must actually fire (threads={threads})"
            );
            assert!(
                run.degradation.corrupt_frames_detected > 0,
                "checksums must catch the mangled frames (threads={threads})"
            );
            assert!(run.degradation.is_clean(), "threads={threads}");
            assert_eq!(
                run.centrality, clean.centrality,
                "repaired run must reproduce the clean fingerprint (threads={threads})"
            );
            assert_eq!(run.target, clean.target);
        }
    }

    #[test]
    fn sketch_mode_compresses_the_count_phase() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let g = connected_gnp(48, 0.15, 100, &mut rng).unwrap();
        let build = |mode: CountMode| {
            DistributedConfig::builder()
                .walks(400)
                .length(100)
                .seed(6)
                .target(TargetStrategy::Fixed(0))
                .count_mode(mode)
                .build()
                .unwrap()
        };
        let exact = approximate(&g, &build(CountMode::Exact)).unwrap();
        let precision = 5;
        let sketch = approximate(&g, &build(CountMode::Sketch { precision })).unwrap();
        assert!(sketch.congest_compliant());
        // Identical walk phase (the compression is purely in phase 2).
        assert_eq!(sketch.walk_stats, exact.walk_stats);
        assert_eq!(sketch.target, exact.target);
        // B rounds instead of n, and strictly fewer count-phase bits.
        assert_eq!(sketch.count_stats.rounds, 1 << precision);
        assert!(sketch.count_stats.total_bits < exact.count_stats.total_bits);
        // Accuracy inside the stacked envelope against the exact path
        // (the walk sampling is shared, so the gap is pure sketch error).
        let err = mean_relative_error(&sketch.centrality, &exact.centrality);
        assert!(
            err <= sketch_error_bound(precision),
            "sketch error {err} above the bound {}",
            sketch_error_bound(precision)
        );
        assert_eq!(sketch.count_mode, CountMode::Sketch { precision });
    }

    #[test]
    fn sketch_mode_composes_with_reliable_delivery() {
        use congest_sim::{FaultPlan, SimConfig};
        let g = star(8).unwrap();
        let build = |plan: FaultPlan| {
            let mut cfg = DistributedConfig::builder()
                .walks(200)
                .length(40)
                .seed(17)
                .target(TargetStrategy::Fixed(0))
                .reliable(true)
                .count_mode(CountMode::Sketch { precision: 4 })
                .build()
                .unwrap();
            cfg.sim = SimConfig::default()
                .with_bandwidth_coeff(16)
                .with_faults(plan);
            cfg
        };
        let clean = approximate(&g, &build(FaultPlan::default())).unwrap();
        assert!(clean.degradation.is_clean());
        // Strict delivery sends every bucket: nothing is suppressed.
        assert_eq!(clean.sketch_suppressed, 0);
        // Drops are repaired: the faulty run reproduces the clean values.
        let faulty =
            approximate(&g, &build(FaultPlan::default().with_drop_probability(0.1))).unwrap();
        assert!(faulty.walk_stats.retransmissions + faulty.count_stats.retransmissions > 0);
        assert_eq!(faulty.centrality, clean.centrality);
    }

    #[test]
    fn sketch_mode_is_deterministic_and_systolic() {
        let g = star(12).unwrap();
        let cfg = DistributedConfig::builder()
            .walks(50)
            .length(30)
            .seed(23)
            .target(TargetStrategy::Fixed(0))
            .count_mode(CountMode::Sketch { precision: 6 })
            .build()
            .unwrap();
        let a = approximate(&g, &cfg).unwrap();
        let b = approximate(&g, &cfg).unwrap();
        assert_eq!(a, b);
        // On a star the leaves see few distinct sources: with 64 buckets
        // and only 12 source columns, most outgoing buckets are empty and
        // the systolic rule must fire.
        assert!(a.sketch_suppressed > 0, "systolic silence never fired");
    }

    #[test]
    fn sketch_mode_rejects_partition_tolerance() {
        assert!(matches!(
            DistributedConfig::builder()
                .walks(4)
                .length(4)
                .partition_tolerant(true)
                .count_mode(CountMode::Sketch { precision: 8 })
                .build(),
            Err(RwbcError::InvalidParameter { .. })
        ));
        // Also guarded at run time for hand-assembled configs.
        let mut cfg = DistributedConfig::builder()
            .walks(4)
            .length(4)
            .build()
            .unwrap();
        cfg.partition_tolerant = true;
        cfg.count_mode = CountMode::Sketch { precision: 8 };
        let g = star(4).unwrap();
        assert!(matches!(
            approximate(&g, &cfg),
            Err(RwbcError::InvalidParameter { .. })
        ));
        // Precision is range-checked.
        assert!(DistributedConfig::builder()
            .walks(4)
            .length(4)
            .count_mode(CountMode::Sketch { precision: 40 })
            .build()
            .is_err());
    }

    #[test]
    fn fixed_point_width_clamps_to_budget() {
        let g = path(6).unwrap();
        let mut cfg = DistributedConfig::builder()
            .walks(8)
            .length(20)
            .fixed_point_bits(60)
            .seed(4)
            .build()
            .unwrap();
        cfg.sim = SimConfig::default().with_bandwidth_coeff(10);
        let run = approximate(&g, &cfg).unwrap();
        assert!(run.fixed_point_bits < 60);
        assert!(run.congest_compliant());
    }
}
