//! α-current-flow betweenness (paper Section II-C; Avrachenkov et al.,
//! the paper's \[14\]).
//!
//! A PageRank-flavored relaxation of RWBC: at every step a walk continues
//! with probability `α` and evaporates with probability `1 − α`, so walk
//! lifetimes are geometric with mean `1/(1 − α)` instead of unbounded.
//! That bounded lifetime is what makes the measure distributable in
//! `O(log n / (1 − α))` rounds with PageRank techniques — and as `α → 1`
//! the measure converges to RWBC, which experiment E8 sweeps.
//!
//! Both a centralized Monte-Carlo estimator and a distributed CONGEST
//! version (reusing the RWBC walk engine with geometric token lifetimes)
//! are provided. Estimation pipeline mirrors [`crate::monte_carlo`]: visit
//! counts → degree scaling → net-flow combine (Eqs. 6–8).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use congest_sim::{SimConfig, Simulator};
use rwbc_graph::traversal::is_connected;
use rwbc_graph::{Graph, NodeId};

use crate::distributed::messages::len_field_bits;
use crate::distributed::{CongestionDiscipline, WalkProgram};
use crate::flow_sum::{combine_potentials, PairSumMethod};
use crate::monte_carlo::TargetStrategy;
use crate::{Centrality, RwbcError};

/// Configuration for α-CFB estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaConfig {
    /// Continuation probability per step, strictly in `(0, 1)`.
    pub alpha: f64,
    /// Walks per node.
    pub walks_per_node: usize,
    /// Hard cap on any single walk (guards the tail of the geometric; a
    /// generous default is `50 / (1 − α)`).
    pub max_length: usize,
    /// Absorbing-target strategy.
    pub target: TargetStrategy,
    /// RNG seed.
    pub seed: u64,
}

impl AlphaConfig {
    /// Config with sensible defaults for the given `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`RwbcError::InvalidParameter`] unless `0 < alpha < 1` and
    /// `walks_per_node > 0`.
    pub fn new(alpha: f64, walks_per_node: usize) -> Result<AlphaConfig, RwbcError> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(RwbcError::InvalidParameter {
                reason: format!("alpha = {alpha} must lie strictly in (0, 1)"),
            });
        }
        if walks_per_node == 0 {
            return Err(RwbcError::InvalidParameter {
                reason: "walks_per_node must be positive".to_string(),
            });
        }
        Ok(AlphaConfig {
            alpha,
            walks_per_node,
            max_length: (50.0 / (1.0 - alpha)).ceil() as usize,
            target: TargetStrategy::Random,
            seed: 0,
        })
    }

    /// Sets the seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> AlphaConfig {
        self.seed = seed;
        self
    }

    /// Sets the target strategy (builder style).
    #[must_use]
    pub fn with_target(mut self, target: TargetStrategy) -> AlphaConfig {
        self.target = target;
        self
    }
}

/// Centralized Monte-Carlo α-CFB.
///
/// # Errors
///
/// Standard graph validation plus config propagation.
pub fn estimate(graph: &Graph, config: &AlphaConfig) -> Result<Centrality, RwbcError> {
    let n = graph.node_count();
    if n < 2 {
        return Err(RwbcError::TooSmall { n });
    }
    if !is_connected(graph) {
        return Err(RwbcError::Disconnected);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let target = resolve_target(graph, config.target, &mut rng)?;
    let k = config.walks_per_node;
    let mut counts = vec![vec![0u64; n]; n];
    for s in graph.nodes() {
        if s == target {
            continue;
        }
        for _ in 0..k {
            counts[s][s] += 1;
            let mut pos = s;
            for _ in 0..config.max_length {
                // Evaporate with probability 1 - alpha.
                if !rng.gen_bool(config.alpha) {
                    break;
                }
                let d = graph.degree(pos);
                pos = graph.neighbor(pos, rng.gen_range(0..d));
                if pos == target {
                    break;
                }
                counts[pos][s] += 1;
            }
        }
    }
    let x = crate::monte_carlo::scale_counts(graph, &counts, k);
    Ok(Centrality::from_values(combine_potentials(
        graph,
        &x,
        PairSumMethod::Sorted,
    )))
}

/// Result of the distributed α-CFB run.
#[derive(Debug, Clone, PartialEq)]
pub struct AlphaDistributedRun {
    /// The estimated α-CFB.
    pub centrality: Centrality,
    /// Walk-phase statistics; expect rounds `≈ O(K + log / (1 − α))`,
    /// far below the RWBC walk phase for small α.
    pub walk_stats: congest_sim::RunStats,
}

/// Distributed α-CFB under CONGEST: the RWBC walk engine with geometric
/// token lifetimes drawn at launch (equivalent in distribution to
/// per-step evaporation), followed by the standard combine phase executed
/// through [`crate::distributed::CountProgram`] machinery in centralized
/// form (the exchange is identical to RWBC's phase 2, so we reuse the
/// statistics-free local combine here and keep phase-2 round accounting to
/// the RWBC runs).
///
/// # Errors
///
/// Standard validation plus simulation errors.
pub fn distributed(
    graph: &Graph,
    config: &AlphaConfig,
    sim: SimConfig,
) -> Result<AlphaDistributedRun, RwbcError> {
    let n = graph.node_count();
    if n < 2 {
        return Err(RwbcError::TooSmall { n });
    }
    if !is_connected(graph) {
        return Err(RwbcError::Disconnected);
    }
    let mut seeder = StdRng::seed_from_u64(config.seed);
    let target = resolve_target(graph, config.target, &mut seeder)?;
    let len_bits = len_field_bits(config.max_length);
    let max_len = config.max_length as u32;
    let alpha = config.alpha;
    let k = config.walks_per_node;
    // Per-node geometric lifetimes, derived deterministically from the seed.
    let lengths: Vec<Vec<u32>> = (0..n)
        .map(|v| {
            let mut r = congest_sim::node_rng(config.seed ^ 0xA1FA, v);
            (0..k)
                .map(|_| {
                    let mut hops = 0u32;
                    while hops < max_len && r.gen_bool(alpha) {
                        hops += 1;
                    }
                    hops
                })
                .collect()
        })
        .collect();
    let mut simulator = Simulator::new(graph, sim.with_seed(config.seed ^ 0xCFB), |v| {
        WalkProgram::with_token_lengths(
            v,
            n,
            target,
            lengths[v].clone(),
            len_bits,
            CongestionDiscipline::HoldAndResend,
        )
        .with_draw_seed(config.seed ^ 0xCFB)
    });
    let walk_stats = simulator.run()?;
    // The centralized combine below takes the dense `n × n` potentials.
    let counts: Vec<Vec<u64>> = (0..n)
        .map(|v| {
            let mut row = vec![0; n];
            for (s, c) in simulator.program(v).counts() {
                row[s] = c;
            }
            row
        })
        .collect();
    let x = crate::monte_carlo::scale_counts(graph, &counts, k);
    Ok(AlphaDistributedRun {
        centrality: Centrality::from_values(combine_potentials(graph, &x, PairSumMethod::Sorted)),
        walk_stats,
    })
}

fn resolve_target(
    graph: &Graph,
    strategy: TargetStrategy,
    rng: &mut StdRng,
) -> Result<NodeId, RwbcError> {
    match strategy {
        TargetStrategy::Random => Ok(rng.gen_range(0..graph.node_count())),
        TargetStrategy::Fixed(t) if t < graph.node_count() => Ok(t),
        TargetStrategy::Fixed(t) => Err(RwbcError::InvalidParameter {
            reason: format!("fixed target {t} out of range"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::spearman_rho;
    use crate::exact::newman;
    use rwbc_graph::generators::{fig1_graph, path, star};

    #[test]
    fn high_alpha_approaches_rwbc() {
        // Fig. 1 graphs have many symmetry-tied scores, which makes rank
        // correlations fragile under sampling noise; compare values
        // directly instead.
        let (g, _) = fig1_graph(3).unwrap();
        let exact = newman(&g).unwrap();
        let cfg = AlphaConfig::new(0.97, 1500)
            .unwrap()
            .with_seed(2)
            .with_target(TargetStrategy::Fixed(0));
        let a = estimate(&g, &cfg).unwrap();
        let err = crate::accuracy::mean_relative_error(&a, &exact);
        assert!(err < 0.15, "mean relative error {err}");
        // A and B are exactly tied in the exact solution; the estimate's
        // winner must be one of that tied pair.
        assert!(exact.top_k(2).contains(&a.argmax().unwrap()));
    }

    #[test]
    fn alpha_sweep_monotonically_approaches_exact_ranking() {
        let g = path(7).unwrap();
        let exact = newman(&g).unwrap();
        let rho = |alpha: f64| {
            let cfg = AlphaConfig::new(alpha, 800)
                .unwrap()
                .with_seed(5)
                .with_target(TargetStrategy::Fixed(6));
            spearman_rho(&estimate(&g, &cfg).unwrap(), &exact)
        };
        let low = rho(0.3);
        let high = rho(0.95);
        assert!(high >= low, "rho(0.95) = {high} < rho(0.3) = {low}");
        assert!(high > 0.8);
    }

    #[test]
    fn distributed_matches_centralized_shape() {
        let g = star(5).unwrap();
        let cfg = AlphaConfig::new(0.9, 600)
            .unwrap()
            .with_seed(3)
            .with_target(TargetStrategy::Fixed(5));
        let central = estimate(&g, &cfg).unwrap();
        let dist = distributed(&g, &cfg, SimConfig::default()).unwrap();
        assert!(dist.walk_stats.congest_compliant());
        assert_eq!(central.argmax(), dist.centrality.argmax());
    }

    #[test]
    fn validation() {
        assert!(AlphaConfig::new(0.0, 5).is_err());
        assert!(AlphaConfig::new(1.0, 5).is_err());
        assert!(AlphaConfig::new(0.5, 0).is_err());
        let g = path(3).unwrap();
        let cfg = AlphaConfig::new(0.5, 5)
            .unwrap()
            .with_target(TargetStrategy::Fixed(9));
        assert!(estimate(&g, &cfg).is_err());
        let disc = rwbc_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let ok_cfg = AlphaConfig::new(0.5, 5).unwrap();
        assert!(estimate(&disc, &ok_cfg).is_err());
        assert!(distributed(&disc, &ok_cfg, SimConfig::default()).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let g = star(4).unwrap();
        let cfg = AlphaConfig::new(0.8, 50).unwrap().with_seed(9);
        assert_eq!(estimate(&g, &cfg).unwrap(), estimate(&g, &cfg).unwrap());
    }
}
