//! PageRank (paper Section II-B) in three flavors: power iteration,
//! Monte-Carlo (Avrachenkov et al., the paper's \[12\]), and a distributed
//! CONGEST version in the style of Das Sarma et al. (the paper's \[13\]).
//!
//! The paper contrasts PageRank's *short* walks (expected length `1/ε` for
//! reset probability `ε`) with RWBC's unbounded absorbing walks — that gap
//! is why PageRank's `O(log n / ε)`-round distributed algorithm does not
//! transfer to RWBC. The distributed implementation here makes the
//! contrast measurable: compare its round count with the RWBC algorithm's
//! in experiment E8.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use congest_sim::{
    bits_for_count, BitSink, Context, Incoming, Message, NodeProgram, SimConfig, Simulator,
};
use rwbc_graph::Graph;

use crate::{Centrality, RwbcError};

/// PageRank by power iteration on `PR = ε/n + (1 − ε) A D^{-1} PR`.
///
/// Returns a probability distribution (sums to 1). Dangling nodes
/// (degree 0) redistribute uniformly.
///
/// # Errors
///
/// * [`RwbcError::TooSmall`] when `n == 0`;
/// * [`RwbcError::InvalidParameter`] when `reset` is outside `(0, 1)`.
///
/// # Example
///
/// ```
/// use rwbc::pagerank::power;
/// use rwbc_graph::generators::star;
///
/// # fn main() -> Result<(), rwbc::RwbcError> {
/// let g = star(4)?;
/// let pr = power(&g, 0.15, 1e-12, 10_000)?;
/// assert_eq!(pr.argmax(), Some(0)); // the hub
/// assert!((pr.sum() - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn power(
    graph: &Graph,
    reset: f64,
    tolerance: f64,
    max_iterations: usize,
) -> Result<Centrality, RwbcError> {
    let n = graph.node_count();
    if n == 0 {
        return Err(RwbcError::TooSmall { n });
    }
    validate_reset(reset)?;
    let mut pr = vec![1.0 / n as f64; n];
    for _ in 0..max_iterations {
        let mut next = vec![0.0f64; n];
        let mut dangling = 0.0;
        for v in graph.nodes() {
            let d = graph.degree(v);
            if d == 0 {
                dangling += pr[v];
                continue;
            }
            let share = pr[v] / d as f64;
            for u in graph.neighbors(v) {
                next[u] += share;
            }
        }
        let base = reset / n as f64 + (1.0 - reset) * dangling / n as f64;
        for x in &mut next {
            *x = base + (1.0 - reset) * *x;
        }
        let delta: f64 = next.iter().zip(&pr).map(|(a, b)| (a - b).abs()).sum();
        pr = next;
        if delta < tolerance {
            break;
        }
    }
    Ok(Centrality::from_values(pr))
}

/// Monte-Carlo PageRank (Avrachenkov et al., Algorithm 2 of the paper's
/// \[12\]): `walks_per_node` walks start at every node, terminate with
/// probability `reset` per step, and PageRank is estimated as the fraction
/// of walks *ending* at each node.
///
/// # Errors
///
/// Same validation as [`power`], plus `walks_per_node > 0`.
pub fn monte_carlo(
    graph: &Graph,
    reset: f64,
    walks_per_node: usize,
    seed: u64,
) -> Result<Centrality, RwbcError> {
    let n = graph.node_count();
    if n == 0 {
        return Err(RwbcError::TooSmall { n });
    }
    validate_reset(reset)?;
    if walks_per_node == 0 {
        return Err(RwbcError::InvalidParameter {
            reason: "walks_per_node must be positive".to_string(),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ends = vec![0u64; n];
    for s in graph.nodes() {
        for _ in 0..walks_per_node {
            let mut pos = s;
            loop {
                if rng.gen_bool(reset) {
                    break;
                }
                let d = graph.degree(pos);
                if d == 0 {
                    break;
                }
                pos = graph.neighbor(pos, rng.gen_range(0..d));
            }
            ends[pos] += 1;
        }
    }
    let total = (n * walks_per_node) as f64;
    Ok(Centrality::from_values(
        ends.into_iter().map(|c| c as f64 / total).collect(),
    ))
}

/// One CONGEST message: the *number* of walk tokens crossing an edge this
/// round. Das Sarma et al.'s observation: tokens are anonymous, so a count
/// (`O(log n)` bits for polynomially many walks) suffices — this is what
/// makes distributed PageRank fast, and what RWBC *cannot* do because its
/// tokens carry their source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenCount(pub u64);

impl Message for TokenCount {
    fn write(&self, _n: usize, out: &mut impl BitSink) {
        out.put(self.0, bits_for_count(self.0));
    }
}

/// Node program for distributed Monte-Carlo PageRank.
#[derive(Debug, Clone)]
pub struct PageRankProgram {
    reset: f64,
    /// Tokens currently resting here.
    holding: u64,
    /// Walks that terminated here.
    ended: u64,
    started: bool,
}

impl PageRankProgram {
    /// Program starting `walks_per_node` tokens at this node.
    pub fn new(walks_per_node: usize, reset: f64) -> PageRankProgram {
        PageRankProgram {
            reset,
            holding: walks_per_node as u64,
            ended: 0,
            started: false,
        }
    }

    /// Walks that ended at this node.
    pub fn ended(&self) -> u64 {
        self.ended
    }

    fn step_tokens(&mut self, ctx: &mut Context<'_, TokenCount>) {
        if self.holding == 0 {
            return;
        }
        let deg = ctx.degree();
        let mut outgoing = vec![0u64; deg];
        for _ in 0..self.holding {
            if ctx.rng().gen_bool(self.reset) || deg == 0 {
                self.ended += 1;
            } else {
                let i = ctx.rng().gen_range(0..deg);
                outgoing[i] += 1;
            }
        }
        self.holding = 0;
        for (i, count) in outgoing.into_iter().enumerate() {
            if count > 0 {
                let to = ctx.neighbor(i);
                ctx.send(to, TokenCount(count));
            }
        }
    }
}

impl NodeProgram for PageRankProgram {
    type Msg = TokenCount;

    fn on_start(&mut self, ctx: &mut Context<'_, TokenCount>) {
        self.started = true;
        self.step_tokens(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, TokenCount>, inbox: &[Incoming<TokenCount>]) {
        for m in inbox {
            self.holding += m.msg.0;
        }
        self.step_tokens(ctx);
    }

    fn is_terminated(&self) -> bool {
        self.started && self.holding == 0
    }
}

/// Result of [`distributed`].
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedPageRank {
    /// The estimated PageRank distribution.
    pub centrality: Centrality,
    /// Round/traffic statistics; expect `O(log n / ε)` rounds.
    pub stats: congest_sim::RunStats,
}

/// Distributed Monte-Carlo PageRank under CONGEST.
///
/// # Errors
///
/// Same validation as [`monte_carlo`], plus propagated simulation errors.
pub fn distributed(
    graph: &Graph,
    reset: f64,
    walks_per_node: usize,
    sim: SimConfig,
) -> Result<DistributedPageRank, RwbcError> {
    let n = graph.node_count();
    if n == 0 {
        return Err(RwbcError::TooSmall { n });
    }
    validate_reset(reset)?;
    if walks_per_node == 0 {
        return Err(RwbcError::InvalidParameter {
            reason: "walks_per_node must be positive".to_string(),
        });
    }
    let mut simulator = Simulator::new(graph, sim, |_| PageRankProgram::new(walks_per_node, reset));
    let stats = simulator.run()?;
    let total = (n * walks_per_node) as f64;
    let values = (0..n)
        .map(|v| simulator.program(v).ended() as f64 / total)
        .collect();
    Ok(DistributedPageRank {
        centrality: Centrality::from_values(values),
        stats,
    })
}

fn validate_reset(reset: f64) -> Result<(), RwbcError> {
    if reset > 0.0 && reset < 1.0 {
        Ok(())
    } else {
        Err(RwbcError::InvalidParameter {
            reason: format!("reset probability {reset} must lie strictly in (0, 1)"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::spearman_rho;
    use rwbc_graph::generators::{barabasi_albert, complete, path, star};

    #[test]
    fn power_uniform_on_regular_graphs() {
        // On a regular graph the uniform vector is stationary.
        let g = complete(6).unwrap();
        let pr = power(&g, 0.15, 1e-13, 10_000).unwrap();
        for (_, x) in pr.iter() {
            assert!((x - 1.0 / 6.0).abs() < 1e-9);
        }
    }

    #[test]
    fn power_hub_dominates_star() {
        let g = star(6).unwrap();
        let pr = power(&g, 0.15, 1e-13, 10_000).unwrap();
        assert_eq!(pr.argmax(), Some(0));
        assert!((pr.sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn monte_carlo_agrees_with_power() {
        let mut rng = StdRng::seed_from_u64(20);
        let g = barabasi_albert(40, 2, &mut rng).unwrap();
        let exact = power(&g, 0.2, 1e-13, 10_000).unwrap();
        let mc = monte_carlo(&g, 0.2, 2000, 3).unwrap();
        assert!(spearman_rho(&mc, &exact) > 0.9);
        assert!((mc.sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distributed_agrees_with_power_and_is_fast() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = barabasi_albert(40, 2, &mut rng).unwrap();
        let exact = power(&g, 0.3, 1e-13, 10_000).unwrap();
        let run = distributed(&g, 0.3, 1500, SimConfig::default().with_seed(4)).unwrap();
        assert!(run.stats.congest_compliant());
        assert!(spearman_rho(&run.centrality, &exact) > 0.9);
        // Geometric lifetimes: rounds ~ max walk length ~ log(total)/eps,
        // dramatically below n for reasonable sizes.
        assert!(run.stats.rounds < 200, "rounds {}", run.stats.rounds);
    }

    #[test]
    fn distributed_deterministic_under_seed() {
        let g = path(10).unwrap();
        let a = distributed(&g, 0.25, 50, SimConfig::default().with_seed(7)).unwrap();
        let b = distributed(&g, 0.25, 50, SimConfig::default().with_seed(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn validation() {
        let g = path(3).unwrap();
        assert!(power(&g, 0.0, 1e-9, 10).is_err());
        assert!(power(&g, 1.0, 1e-9, 10).is_err());
        assert!(monte_carlo(&g, 0.5, 0, 1).is_err());
        assert!(distributed(&g, 1.5, 5, SimConfig::default()).is_err());
        assert!(power(&rwbc_graph::Graph::empty(0), 0.5, 1e-9, 10).is_err());
    }

    #[test]
    fn token_count_bits_scale_with_count() {
        assert_eq!(TokenCount(1).bit_size(100), 1);
        assert_eq!(TokenCount(255).bit_size(100), 8);
    }
}
