//! The distributed **random walk problem** (paper Section II-D): output
//! the destination of one `l`-step random walk from a source, under
//! CONGEST.
//!
//! Two algorithms:
//!
//! * [`naive_walk`] — forward a token for `l` rounds: `Θ(l)` rounds,
//!   trivially correct;
//! * [`stitched_walk`] — the "many short walks, then stitch" idea of
//!   Das Sarma, Nanongkai, Pandurangan, Tetali (PODC 2010; the paper's
//!   \[15\]), which achieves `Õ(√(lD))` rounds: every node performs `η`
//!   independent short walks of length `λ` up front (in parallel, `≈ λ`
//!   rounds), and the long walk is then assembled by *stitching* — the
//!   current position hands off to the endpoint of one of its own unused
//!   short walks, located with a network flood (`≤ D` rounds per stitch,
//!   `l/λ` stitches). With `λ = √(lD)` the total is `O(√(lD))` up to
//!   constants.
//!
//! The paper cites this algorithm to argue why it does **not** transfer to
//! RWBC: (1) betweenness needs *visit counts everywhere*, not a
//! destination, and (2) the absorbing walks have unbounded length. Having
//! it implemented makes that argument concrete: experiment E10 measures
//! the `Θ(l)` vs `Õ(√(lD))` separation on the walk problem, which simply
//! has no analogue in the RWBC pipeline.
//!
//! Simplifications relative to the PODC paper (documented per the
//! reproduction rules): short walks are consumed in local index order
//! (i.i.d., so order is irrelevant to the walk's law); stitch hand-offs
//! locate endpoints by a deduplicated flood rather than a BFS-tree
//! routing structure (same `O(D)` round cost per stitch, simpler state);
//! and if a node exhausts its `η` short walks the remainder of the walk
//! falls back to naive stepping (rare for `η ≥ l/λ`, and only costs
//! rounds, never correctness).

use std::collections::{HashMap, HashSet};

use rand::Rng;

use congest_sim::{
    bits_for_count, bits_for_node_id, BitSink, Context, Incoming, Message, NodeProgram, SimConfig,
    Simulator,
};
use rwbc_graph::traversal::is_connected;
use rwbc_graph::{Graph, NodeId};

use crate::RwbcError;

/// Parameters of the stitched walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StitchParams {
    /// Short-walk length `λ`.
    pub lambda: u32,
    /// Short walks prepared per node `η`.
    pub eta: u16,
}

impl StitchParams {
    /// The theory-optimal choice `λ = ⌈√(l·D)⌉`, with `η = ⌈l/λ⌉` short
    /// walks per node (enough even if every stitch lands on the same
    /// node).
    ///
    /// # Panics
    ///
    /// Panics when `length` or `diameter` is 0.
    pub fn optimized(length: usize, diameter: usize) -> StitchParams {
        assert!(
            length > 0 && diameter > 0,
            "length and diameter must be positive"
        );
        let lambda = ((length as f64 * diameter as f64).sqrt().ceil() as u32).max(1);
        let eta = (length as u32).div_ceil(lambda).max(1) as u16;
        StitchParams { lambda, eta }
    }
}

/// Messages of the stitched-walk protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwMsg {
    /// Phase 1: a short-walk token `(origin, index, remaining)`.
    Token {
        /// The node whose short walk this is.
        origin: NodeId,
        /// The origin-local index of this short walk.
        index: u16,
        /// Hops left.
        remaining: u32,
    },
    /// Phase 2: flood searching for the holder of `(position, index)`'s
    /// short-walk endpoint; `remaining` is the long walk's budget after
    /// this stitch is applied.
    Request {
        /// The current position whose short walk is being consumed.
        position: NodeId,
        /// Which of its short walks.
        index: u16,
        /// Long-walk hops left after this stitch.
        remaining: u32,
    },
    /// Phase 2 fallback: a naive step token finishing the walk.
    Step {
        /// Hops left.
        remaining: u32,
    },
}

impl Message for SwMsg {
    fn write(&self, n: usize, out: &mut impl BitSink) {
        // 2 tag bits + fields.
        let remaining = match *self {
            SwMsg::Token {
                origin: node,
                index,
                remaining,
            }
            | SwMsg::Request {
                position: node,
                index,
                remaining,
            } => {
                out.put(u64::from(matches!(self, SwMsg::Request { .. })), 2);
                out.put(node as u64, bits_for_node_id(n));
                out.put(u64::from(index), bits_for_count(u64::from(index)));
                remaining
            }
            SwMsg::Step { remaining } => {
                out.put(2, 2);
                remaining
            }
        };
        out.put(u64::from(remaining), bits_for_count(u64::from(remaining)));
    }
}

/// Phase 1: every node runs `η` short walks of length `λ`; the node where
/// a short walk dies records itself as the endpoint holder.
#[derive(Debug, Clone)]
struct ShortWalkProgram {
    queue: Vec<(NodeId, u16, u32)>,
    /// `(origin, index)` endpoints that landed here.
    endpoints: Vec<(NodeId, u16)>,
    started: bool,
}

impl ShortWalkProgram {
    fn new(me: NodeId, params: StitchParams) -> ShortWalkProgram {
        ShortWalkProgram {
            queue: (0..params.eta).map(|k| (me, k, params.lambda)).collect(),
            endpoints: Vec::new(),
            started: false,
        }
    }

    fn forward(&mut self, ctx: &mut Context<'_, SwMsg>) {
        if self.queue.is_empty() {
            return;
        }
        let deg = ctx.degree();
        let mut keep = Vec::new();
        let mut per_neighbor: Vec<Option<(NodeId, u16, u32)>> = vec![None; deg];
        let choices: Vec<usize> = (0..self.queue.len())
            .map(|_| ctx.rng().gen_range(0..deg))
            .collect();
        for (token, c) in self.queue.drain(..).zip(choices) {
            if per_neighbor[c].is_none() {
                per_neighbor[c] = Some(token);
            } else {
                keep.push(token);
            }
        }
        self.queue = keep;
        for (i, slot) in per_neighbor.into_iter().enumerate() {
            if let Some((origin, index, remaining)) = slot {
                let to = ctx.neighbor(i);
                ctx.send(
                    to,
                    SwMsg::Token {
                        origin,
                        index,
                        remaining,
                    },
                );
            }
        }
    }
}

impl NodeProgram for ShortWalkProgram {
    type Msg = SwMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, SwMsg>) {
        self.started = true;
        // Length-0 walks end where they started.
        let (done, live): (Vec<_>, Vec<_>) = self
            .queue
            .drain(..)
            .partition(|&(_, _, remaining)| remaining == 0);
        self.endpoints
            .extend(done.into_iter().map(|(origin, index, _)| (origin, index)));
        self.queue = live;
        self.forward(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, SwMsg>, inbox: &[Incoming<SwMsg>]) {
        for m in inbox {
            if let SwMsg::Token {
                origin,
                index,
                remaining,
            } = m.msg
            {
                if remaining <= 1 {
                    self.endpoints.push((origin, index));
                } else {
                    self.queue.push((origin, index, remaining - 1));
                }
            }
        }
        self.forward(ctx);
    }

    fn is_terminated(&self) -> bool {
        self.started && self.queue.is_empty()
    }
}

/// Phase 2: stitching. Passive flood-forwarding state machine; the walk's
/// current position drives progress.
#[derive(Debug, Clone)]
struct StitchProgram {
    me: NodeId,
    lambda: u32,
    eta: u16,
    /// Endpoints held here, keyed by `(origin, index)`.
    endpoints: HashMap<(NodeId, u16), ()>,
    /// How many of *my own* short walks I have consumed.
    used: u16,
    /// Floods already forwarded (dedup keys).
    seen: HashSet<(NodeId, u16)>,
    /// Set once the walk terminates here.
    destination: bool,
    /// Initial role: the walk's source with the full budget.
    initial_budget: Option<u32>,
    /// Per-neighbor-slot outgoing queues: concurrent floods and step
    /// tokens multiplex onto each edge one message per round.
    outbox: Vec<std::collections::VecDeque<SwMsg>>,
}

impl StitchProgram {
    fn new(
        me: NodeId,
        lambda: u32,
        eta: u16,
        endpoints: Vec<(NodeId, u16)>,
        initial_budget: Option<u32>,
    ) -> StitchProgram {
        StitchProgram {
            me,
            lambda,
            eta,
            endpoints: endpoints.into_iter().map(|k| (k, ())).collect(),
            used: 0,
            seen: HashSet::new(),
            destination: false,
            initial_budget,
            outbox: Vec::new(),
        }
    }

    /// Queues `msg` for every neighbor.
    fn queue_broadcast(&mut self, ctx: &Context<'_, SwMsg>, msg: SwMsg) {
        self.ensure_outbox(ctx);
        for q in &mut self.outbox {
            q.push_back(msg);
        }
    }

    /// Queues `msg` for one uniformly random neighbor.
    fn queue_random(&mut self, ctx: &mut Context<'_, SwMsg>, msg: SwMsg) {
        self.ensure_outbox(ctx);
        let pick = ctx.rng().gen_range(0..self.outbox.len());
        self.outbox[pick].push_back(msg);
    }

    fn ensure_outbox(&mut self, ctx: &Context<'_, SwMsg>) {
        if self.outbox.is_empty() {
            self.outbox = (0..ctx.degree())
                .map(|_| std::collections::VecDeque::new())
                .collect();
        }
    }

    /// Ships at most one queued message per edge this round.
    fn flush(&mut self, ctx: &mut Context<'_, SwMsg>) {
        for i in 0..self.outbox.len() {
            if let Some(msg) = self.outbox[i].pop_front() {
                let to = ctx.neighbor(i);
                ctx.send(to, msg);
            }
        }
    }

    /// This node is the current position with `remaining` hops to go:
    /// consume a short walk (stitch) or finish naively.
    fn take_over(&mut self, ctx: &mut Context<'_, SwMsg>, mut remaining: u32) {
        // Self-held stitches resolve locally without any flood.
        loop {
            if remaining == 0 {
                self.destination = true;
                return;
            }
            if remaining < self.lambda || self.used >= self.eta {
                // Fallback: finish the walk by naive stepping.
                self.queue_random(ctx, SwMsg::Step { remaining });
                return;
            }
            let key = (self.me, self.used);
            self.used += 1;
            if self.endpoints.remove(&key).is_some() {
                // My own short walk ended right here; keep stitching.
                remaining -= self.lambda;
                continue;
            }
            // Locate the holder by flood; it takes over on receipt.
            self.seen.insert(key);
            self.queue_broadcast(
                ctx,
                SwMsg::Request {
                    position: key.0,
                    index: key.1,
                    remaining: remaining - self.lambda,
                },
            );
            return;
        }
    }
}

impl NodeProgram for StitchProgram {
    type Msg = SwMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, SwMsg>) {
        if let Some(budget) = self.initial_budget.take() {
            self.take_over(ctx, budget);
        }
        self.flush(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, SwMsg>, inbox: &[Incoming<SwMsg>]) {
        let mut takeover: Option<u32> = None;
        for m in inbox {
            match m.msg {
                SwMsg::Request {
                    position,
                    index,
                    remaining,
                } => {
                    let key = (position, index);
                    if self.endpoints.remove(&key).is_some() {
                        // I hold the endpoint: I am the next position.
                        takeover = Some(remaining);
                        // Do not forward a resolved request.
                        self.seen.insert(key);
                    } else if self.seen.insert(key) {
                        self.queue_broadcast(
                            ctx,
                            SwMsg::Request {
                                position,
                                index,
                                remaining,
                            },
                        );
                    }
                }
                SwMsg::Step { remaining } => {
                    if remaining <= 1 {
                        takeover = Some(0);
                    } else {
                        self.queue_random(
                            ctx,
                            SwMsg::Step {
                                remaining: remaining - 1,
                            },
                        );
                    }
                }
                SwMsg::Token { .. } => unreachable!("phase 1 tokens do not reach phase 2"),
            }
        }
        if let Some(budget) = takeover {
            self.take_over(ctx, budget);
        }
        self.flush(ctx);
    }

    fn is_terminated(&self) -> bool {
        // Passive except for queued traffic; the run ends when the
        // network (including these queues) drains.
        self.outbox.iter().all(std::collections::VecDeque::is_empty)
    }
}

/// Result of a walk computation.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkRun {
    /// Where the `l`-step walk ended.
    pub destination: NodeId,
    /// Rounds spent (both phases for the stitched variant).
    pub rounds: usize,
    /// Total messages.
    pub messages: u64,
    /// Short-walk phase statistics (stitched variant only).
    pub phase1_stats: Option<congest_sim::RunStats>,
    /// Stitch/step phase statistics.
    pub phase2_stats: congest_sim::RunStats,
}

/// The `Θ(l)` baseline: forward a token for `l` rounds.
///
/// # Errors
///
/// Standard graph/source validation plus simulation errors.
pub fn naive_walk(
    graph: &Graph,
    source: NodeId,
    length: usize,
    sim: SimConfig,
) -> Result<WalkRun, RwbcError> {
    validate(graph, source, length)?;
    let mut simulator = Simulator::new(graph, sim, |v| {
        StitchProgram::new(
            v,
            u32::MAX, // lambda > remaining: always the naive fallback
            0,
            Vec::new(),
            if v == source {
                Some(length as u32)
            } else {
                None
            },
        )
    });
    let stats = simulator.run()?;
    let destination = find_destination(&simulator, graph)?;
    Ok(WalkRun {
        destination,
        rounds: stats.rounds,
        messages: stats.total_messages,
        phase1_stats: None,
        phase2_stats: stats,
    })
}

/// The `Õ(√(lD))` stitched walk.
///
/// # Errors
///
/// Standard graph/source validation plus simulation errors.
pub fn stitched_walk(
    graph: &Graph,
    source: NodeId,
    length: usize,
    params: StitchParams,
    sim: SimConfig,
) -> Result<WalkRun, RwbcError> {
    validate(graph, source, length)?;
    if params.lambda == 0 || params.eta == 0 {
        return Err(RwbcError::InvalidParameter {
            reason: "stitch parameters must be positive".to_string(),
        });
    }
    // Phase 1: all nodes prepare short walks.
    let phase1_cfg = sim.clone().with_seed(sim.seed ^ 0x51);
    let mut sim1 = Simulator::new(graph, phase1_cfg, |v| ShortWalkProgram::new(v, params));
    let phase1 = sim1.run()?;
    let endpoints: Vec<Vec<(NodeId, u16)>> = (0..graph.node_count())
        .map(|v| sim1.program(v).endpoints.clone())
        .collect();
    drop(sim1);

    // Phase 2: stitch.
    let phase2_cfg = sim.clone().with_seed(sim.seed ^ 0x52);
    let mut sim2 = Simulator::new(graph, phase2_cfg, |v| {
        StitchProgram::new(
            v,
            params.lambda,
            params.eta,
            endpoints[v].clone(),
            if v == source {
                Some(length as u32)
            } else {
                None
            },
        )
    });
    let phase2 = sim2.run()?;
    let destination = find_destination(&sim2, graph)?;
    Ok(WalkRun {
        destination,
        rounds: phase1.rounds + phase2.rounds,
        messages: phase1.total_messages + phase2.total_messages,
        phase1_stats: Some(phase1),
        phase2_stats: phase2,
    })
}

fn validate(graph: &Graph, source: NodeId, length: usize) -> Result<(), RwbcError> {
    let n = graph.node_count();
    if n < 2 {
        return Err(RwbcError::TooSmall { n });
    }
    if source >= n {
        return Err(RwbcError::InvalidParameter {
            reason: format!("source {source} out of range"),
        });
    }
    if length == 0 {
        return Err(RwbcError::InvalidParameter {
            reason: "walk length must be positive".to_string(),
        });
    }
    if !is_connected(graph) {
        return Err(RwbcError::Disconnected);
    }
    Ok(())
}

fn find_destination(
    sim: &Simulator<'_, StitchProgram>,
    graph: &Graph,
) -> Result<NodeId, RwbcError> {
    let dests: Vec<NodeId> = graph
        .nodes()
        .filter(|&v| sim.program(v).destination)
        .collect();
    match dests.as_slice() {
        [d] => Ok(*d),
        other => Err(RwbcError::InvalidParameter {
            reason: format!("walk protocol ended with {} destinations", other.len()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwbc_graph::generators::{cycle, path, star};
    use rwbc_graph::traversal::diameter;

    fn cfg(seed: u64) -> SimConfig {
        SimConfig::default().with_seed(seed)
    }

    #[test]
    fn naive_walk_takes_exactly_l_rounds() {
        let g = cycle(10).unwrap();
        let run = naive_walk(&g, 0, 25, cfg(1)).unwrap();
        assert_eq!(run.rounds, 25);
        assert!(run.phase2_stats.congest_compliant());
        assert!(run.destination < 10);
    }

    #[test]
    fn walk_parity_is_respected_on_bipartite_graphs() {
        // On a cycle of even length, an l-step walk ends at a node whose
        // parity equals l's parity — a sharp correctness check that both
        // algorithms must satisfy for every seed.
        let g = cycle(8).unwrap();
        for seed in 0..10u64 {
            let naive = naive_walk(&g, 0, 9, cfg(seed)).unwrap();
            assert_eq!(naive.destination % 2, 1, "seed {seed}");
            let params = StitchParams { lambda: 3, eta: 4 };
            let stitched = stitched_walk(&g, 0, 9, params, cfg(seed)).unwrap();
            assert_eq!(stitched.destination % 2, 1, "seed {seed}");
        }
    }

    #[test]
    fn stitched_beats_naive_on_low_diameter_graphs() {
        // Star: D = 2, l = 200. Naive needs 200 rounds; stitching needs
        // ~sqrt(l * D) = 20ish plus flood overhead.
        let g = star(12).unwrap();
        let l = 400;
        let naive = naive_walk(&g, 1, l, cfg(3)).unwrap();
        assert_eq!(naive.rounds, l);
        let params = StitchParams::optimized(l, diameter(&g).unwrap());
        let stitched = stitched_walk(&g, 1, l, params, cfg(3)).unwrap();
        assert!(
            stitched.rounds < 3 * naive.rounds / 4,
            "stitched {} vs naive {}",
            stitched.rounds,
            naive.rounds
        );
        assert!(stitched.phase2_stats.congest_compliant());
        assert!(stitched.phase1_stats.as_ref().unwrap().congest_compliant());
    }

    #[test]
    fn destination_distributions_agree() {
        // Both algorithms must sample the same law. Compare empirical
        // endpoint distributions over many seeds on a small path.
        let g = path(5).unwrap();
        let l = 6;
        let samples = 400u64;
        let mut naive_counts = [0u32; 5];
        let mut stitch_counts = vec![0u32; 5];
        let params = StitchParams { lambda: 2, eta: 4 };
        for seed in 0..samples {
            naive_counts[naive_walk(&g, 2, l, cfg(seed)).unwrap().destination] += 1;
            stitch_counts[stitched_walk(&g, 2, l, params, cfg(seed + 10_000))
                .unwrap()
                .destination] += 1;
        }
        // Total-variation distance between the two empirical laws.
        let tv: f64 = naive_counts
            .iter()
            .zip(&stitch_counts)
            .map(|(&a, &b)| (f64::from(a) - f64::from(b)).abs() / samples as f64)
            .sum::<f64>()
            / 2.0;
        assert!(tv < 0.12, "total variation {tv}");
        // Parity: l = 6 even, start 2 -> endpoints have even index.
        assert_eq!(naive_counts[1] + naive_counts[3], 0);
        assert_eq!(stitch_counts[1] + stitch_counts[3], 0);
    }

    #[test]
    fn optimized_parameters() {
        let p = StitchParams::optimized(512, 2);
        assert_eq!(p.lambda, 32);
        assert_eq!(p.eta, 16);
        let p = StitchParams::optimized(100, 100);
        assert_eq!(p.lambda, 100);
        assert_eq!(p.eta, 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = cycle(12).unwrap();
        let params = StitchParams { lambda: 4, eta: 8 };
        let a = stitched_walk(&g, 3, 30, params, cfg(9)).unwrap();
        let b = stitched_walk(&g, 3, 30, params, cfg(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn validation() {
        let g = path(4).unwrap();
        assert!(naive_walk(&g, 9, 5, cfg(1)).is_err());
        assert!(naive_walk(&g, 0, 0, cfg(1)).is_err());
        let disc = rwbc_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(naive_walk(&disc, 0, 5, cfg(1)).is_err());
        let params = StitchParams { lambda: 0, eta: 1 };
        assert!(stitched_walk(&g, 0, 5, params, cfg(1)).is_err());
    }

    #[test]
    fn message_sizes_are_logarithmic() {
        let m = SwMsg::Request {
            position: 1000,
            index: 30,
            remaining: 5000,
        };
        assert!(m.bit_size(1024) <= 2 + 10 + 5 + 13);
        assert!(m.bit_size(1024) <= SimConfig::default().budget_bits(1024));
    }
}
