//! Centralized Monte-Carlo RWBC estimation — the paper's estimator without
//! the network.
//!
//! This is exactly the statistical procedure of Algorithms 1 + 2 (truncated
//! absorbing random walks, visit counting, degree scaling, net-flow
//! combine), executed in a single process. It separates the paper's two
//! concerns: *estimation quality* as a function of `(K, l)` (Theorems 1–3,
//! experiments E2/E3) is studied here cheaply, while *round/bit complexity*
//! (Lemma 2, Theorems 4–5) is studied on the CONGEST implementation in
//! [`crate::distributed`], which must produce statistically identical
//! output.
//!
//! # Example
//!
//! ```
//! use rwbc::exact::newman;
//! use rwbc::monte_carlo::{estimate, McConfig};
//! use rwbc_graph::generators::star;
//!
//! # fn main() -> Result<(), rwbc::RwbcError> {
//! let g = star(4)?;
//! let cfg = McConfig::new(400, 50).with_seed(7);
//! let run = estimate(&g, &cfg)?;
//! let exact = newman(&g)?;
//! // The hub is correctly identified as most central.
//! assert_eq!(run.centrality.argmax(), exact.argmax());
//! # Ok(())
//! # }
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rwbc_graph::traversal::is_connected;
use rwbc_graph::{Graph, NodeId};

use crate::flow_sum::{combine_potentials, PairSumMethod};
use crate::params::ApproxParams;
use crate::{Centrality, RwbcError};

/// How the absorbing target `t` is picked (paper Algorithm 1, line 2:
/// "randomly choose a target node t").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TargetStrategy {
    /// Uniformly random from the seed (the paper's choice).
    #[default]
    Random,
    /// A fixed node — useful for reproducible comparisons and for the
    /// estimator-bias study in experiment E7.
    Fixed(NodeId),
}

/// Configuration of a Monte-Carlo estimation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// The `(K, l)` pair.
    pub params: ApproxParams,
    /// Absorbing-target selection.
    pub target: TargetStrategy,
    /// RNG seed.
    pub seed: u64,
}

impl McConfig {
    /// Config with `K = walks_per_node`, `l = walk_length`, random target,
    /// seed 0.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero (use [`ApproxParams::new`] for a
    /// fallible path).
    pub fn new(walks_per_node: usize, walk_length: usize) -> McConfig {
        McConfig {
            params: ApproxParams::new(walks_per_node, walk_length)
                .expect("walk parameters must be positive"),
            target: TargetStrategy::Random,
            seed: 0,
        }
    }

    /// Sets the RNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> McConfig {
        self.seed = seed;
        self
    }

    /// Sets the target strategy (builder style).
    #[must_use]
    pub fn with_target(mut self, target: TargetStrategy) -> McConfig {
        self.target = target;
        self
    }
}

/// Result of a Monte-Carlo estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct McRun {
    /// The estimated centrality.
    pub centrality: Centrality,
    /// The absorbing target that was used.
    pub target: NodeId,
    /// Walks launched (`K · (n − 1)`; the target starts none — its walks
    /// are absorbed at birth, matching `T_{·t} = 0`).
    pub launched: u64,
    /// Walks absorbed at the target within `l` steps.
    pub absorbed: u64,
    /// Walks truncated by the length bound — the "remaining fraction"
    /// `ε` of the paper's Theorem 1 is `survivors / launched`.
    pub survivors: u64,
}

impl McRun {
    /// The measured unabsorbed fraction (Theorem 1's `ε`).
    pub fn survival_fraction(&self) -> f64 {
        if self.launched == 0 {
            0.0
        } else {
            self.survivors as f64 / self.launched as f64
        }
    }
}

/// Runs the Monte-Carlo estimator.
///
/// # Errors
///
/// * [`RwbcError::TooSmall`] when `n < 2`;
/// * [`RwbcError::Disconnected`] when the graph is disconnected;
/// * [`RwbcError::InvalidParameter`] when a fixed target is out of range.
pub fn estimate(graph: &Graph, config: &McConfig) -> Result<McRun, RwbcError> {
    let n = graph.node_count();
    if n < 2 {
        return Err(RwbcError::TooSmall { n });
    }
    if !is_connected(graph) {
        return Err(RwbcError::Disconnected);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let target = resolve_target(graph, config.target, &mut rng)?;
    let k = config.params.walks_per_node;
    let l = config.params.walk_length;

    let (counts, absorbed, survivors) = visit_counts(graph, target, k, l, &mut rng);
    let x = scale_counts(graph, &counts, k);
    let centrality = Centrality::from_values(combine_potentials(graph, &x, PairSumMethod::Sorted));
    Ok(McRun {
        centrality,
        target,
        launched: (k * (n - 1)) as u64,
        absorbed,
        survivors,
    })
}

/// Measures just the unabsorbed-walk fraction after `walk_length` steps —
/// the cheap instrument behind experiment E2 (Theorem 1).
///
/// # Errors
///
/// Same as [`estimate`].
pub fn survival_fraction(graph: &Graph, config: &McConfig) -> Result<f64, RwbcError> {
    let n = graph.node_count();
    if n < 2 {
        return Err(RwbcError::TooSmall { n });
    }
    if !is_connected(graph) {
        return Err(RwbcError::Disconnected);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let target = resolve_target(graph, config.target, &mut rng)?;
    let k = config.params.walks_per_node;
    let l = config.params.walk_length;
    let mut survivors = 0u64;
    let mut launched = 0u64;
    for s in graph.nodes() {
        if s == target {
            continue;
        }
        for _ in 0..k {
            launched += 1;
            let mut pos = s;
            let mut alive = true;
            for _ in 0..l {
                let d = graph.degree(pos);
                pos = graph.neighbor(pos, rng.gen_range(0..d));
                if pos == target {
                    alive = false;
                    break;
                }
            }
            if alive {
                survivors += 1;
            }
        }
    }
    Ok(survivors as f64 / launched as f64)
}

/// Result of [`estimate_averaged`].
#[derive(Debug, Clone, PartialEq)]
pub struct AveragedRun {
    /// The averaged centrality estimate.
    pub centrality: Centrality,
    /// The distinct absorbing targets that were drawn.
    pub targets: Vec<NodeId>,
    /// Mean survival fraction across the per-target runs.
    pub mean_survival: f64,
}

/// Multi-target extension of the estimator (DESIGN.md §5): run the
/// single-target estimator for `num_targets` *distinct* absorbing targets
/// drawn without replacement, and average the resulting centralities.
///
/// A single grounded target is exact in expectation, but its finite-sample
/// error depends on where the target sits (walks near it are short and
/// well-absorbed; walks far away truncate more). Averaging over targets
/// smooths that dependence — **at fixed per-target `K`**, i.e. at a
/// `num_targets`-fold increase in total walks.
///
/// Do *not* split a fixed walk budget across targets: the net-flow combine
/// (Eq. 6) takes absolute values, so per-count noise inflates every
/// `|z_s − z_t|` term *upward* — a bias that grows as per-target `K`
/// shrinks and that averaging cannot remove. Experiment E7b measures this
/// effect (mean error 0.09 at one target with the full budget vs 0.29 at
/// four targets splitting it).
///
/// # Errors
///
/// Same as [`estimate`], plus [`RwbcError::InvalidParameter`] when
/// `num_targets` is 0 or exceeds `n`.
pub fn estimate_averaged(
    graph: &Graph,
    config: &McConfig,
    num_targets: usize,
) -> Result<AveragedRun, RwbcError> {
    let n = graph.node_count();
    if n < 2 {
        return Err(RwbcError::TooSmall { n });
    }
    if num_targets == 0 || num_targets > n {
        return Err(RwbcError::InvalidParameter {
            reason: format!("num_targets = {num_targets} must lie in 1..={n}"),
        });
    }
    if !is_connected(graph) {
        return Err(RwbcError::Disconnected);
    }
    // Draw distinct targets from the seed (Fisher–Yates prefix).
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EED_7A26);
    let mut pool: Vec<NodeId> = (0..n).collect();
    for i in 0..num_targets {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    let targets: Vec<NodeId> = pool[..num_targets].to_vec();

    let mut acc = vec![0.0f64; n];
    let mut survival_sum = 0.0;
    for (i, &t) in targets.iter().enumerate() {
        let sub = McConfig {
            target: TargetStrategy::Fixed(t),
            seed: config.seed.wrapping_add(1 + i as u64),
            ..*config
        };
        let run = estimate(graph, &sub)?;
        survival_sum += run.survival_fraction();
        for (a, (_, b)) in acc.iter_mut().zip(run.centrality.iter()) {
            *a += b;
        }
    }
    for a in &mut acc {
        *a /= num_targets as f64;
    }
    Ok(AveragedRun {
        centrality: Centrality::from_values(acc),
        targets,
        mean_survival: survival_sum / num_targets as f64,
    })
}

fn resolve_target(
    graph: &Graph,
    strategy: TargetStrategy,
    rng: &mut StdRng,
) -> Result<NodeId, RwbcError> {
    match strategy {
        TargetStrategy::Random => Ok(rng.gen_range(0..graph.node_count())),
        TargetStrategy::Fixed(t) => {
            if t < graph.node_count() {
                Ok(t)
            } else {
                Err(RwbcError::InvalidParameter {
                    reason: format!("fixed target {t} out of range"),
                })
            }
        }
    }
}

/// Runs `k` truncated absorbing walks from every source and tallies visits:
/// `counts[v][s]` = visits to `v` by walks from `s` (including the visit at
/// birth, matching the `r = 0` term of `Σ_r M_t^r`). Returns
/// `(counts, absorbed, survivors)`.
pub(crate) fn visit_counts(
    graph: &Graph,
    target: NodeId,
    k: usize,
    l: usize,
    rng: &mut StdRng,
) -> (Vec<Vec<u64>>, u64, u64) {
    let n = graph.node_count();
    let mut counts = vec![vec![0u64; n]; n];
    let mut absorbed = 0u64;
    let mut survivors = 0u64;
    for s in graph.nodes() {
        if s == target {
            continue;
        }
        for _ in 0..k {
            counts[s][s] += 1;
            let mut pos = s;
            let mut alive = true;
            for _ in 0..l {
                let d = graph.degree(pos);
                pos = graph.neighbor(pos, rng.gen_range(0..d));
                if pos == target {
                    absorbed += 1;
                    alive = false;
                    break;
                }
                counts[pos][s] += 1;
            }
            if alive {
                survivors += 1;
            }
        }
    }
    (counts, absorbed, survivors)
}

/// Degree-and-`K` scaling (paper Algorithm 2 line 1 plus the `1/K` of
/// line 4): `x[v][s] = ξ_v^s / (K · d(v))`, the estimator of `T_vs`.
pub(crate) fn scale_counts(graph: &Graph, counts: &[Vec<u64>], k: usize) -> Vec<Vec<f64>> {
    counts
        .iter()
        .enumerate()
        .map(|(v, row)| {
            let denom = (k as f64) * graph.degree(v).max(1) as f64;
            row.iter().map(|&c| c as f64 / denom).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::mean_relative_error;
    use crate::exact::newman;
    use rwbc_graph::generators::{complete, fig1_graph, path, star};
    use rwbc_graph::Graph;

    #[test]
    fn expected_visits_match_fundamental_matrix_on_path3() {
        // For path 0-1-2 absorbed at 2: E[visits to 0 from 0] = 2,
        // E[visits to 1 from 0] = 2 ((I - M_t)^{-1} = [[2, 1], [2, 2]]).
        let g = path(3).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let k = 60_000;
        let (counts, _, _) = visit_counts(&g, 2, k, 500, &mut rng);
        let est00 = counts[0][0] as f64 / k as f64;
        let est10 = counts[1][0] as f64 / k as f64;
        assert!((est00 - 2.0).abs() < 0.05, "visits(0<-0) = {est00}");
        assert!((est10 - 2.0).abs() < 0.05, "visits(1<-0) = {est10}");
    }

    #[test]
    fn estimate_converges_to_exact_on_path() {
        let g = path(5).unwrap();
        let exact = newman(&g).unwrap();
        let cfg = McConfig::new(4000, 400).with_seed(11);
        let run = estimate(&g, &cfg).unwrap();
        let err = mean_relative_error(&run.centrality, &exact);
        assert!(err < 0.05, "mean relative error {err}");
    }

    #[test]
    fn estimate_converges_on_fig1() {
        let (g, l) = fig1_graph(3).unwrap();
        let exact = newman(&g).unwrap();
        let cfg = McConfig::new(3000, 300).with_seed(3);
        let run = estimate(&g, &cfg).unwrap();
        // Ranking of the three designated nodes must match.
        assert_eq!(
            run.centrality.ranks()[l.a] < run.centrality.ranks()[l.c],
            exact.ranks()[l.a] < exact.ranks()[l.c]
        );
        let err = mean_relative_error(&run.centrality, &exact);
        assert!(err < 0.08, "mean relative error {err}");
    }

    #[test]
    fn deterministic_under_seed() {
        let g = complete(6).unwrap();
        let cfg = McConfig::new(50, 30).with_seed(9);
        let a = estimate(&g, &cfg).unwrap();
        let b = estimate(&g, &cfg).unwrap();
        assert_eq!(a, b);
        let c = estimate(&g, &cfg.with_seed(10)).unwrap();
        assert_ne!(a.centrality, c.centrality);
    }

    #[test]
    fn survival_decreases_with_length() {
        let g = path(20).unwrap();
        let mut last = f64::INFINITY;
        for l in [5usize, 50, 500] {
            let cfg = McConfig::new(200, l)
                .with_seed(4)
                .with_target(TargetStrategy::Fixed(0));
            let s = survival_fraction(&g, &cfg).unwrap();
            assert!(s <= last, "survival must not increase with l");
            last = s;
        }
        assert!(last < 0.5, "long walks on P20 should mostly be absorbed");
    }

    #[test]
    fn survival_fraction_matches_estimate_bookkeeping() {
        let g = star(5).unwrap();
        let cfg = McConfig::new(100, 40)
            .with_seed(6)
            .with_target(TargetStrategy::Fixed(0));
        let run = estimate(&g, &cfg).unwrap();
        assert_eq!(run.launched, 500);
        assert_eq!(run.absorbed + run.survivors, run.launched);
        // Absorbing at the hub: every step has probability >= 1/4 of
        // hitting it, so 40 steps leave essentially nothing alive.
        assert!(run.survival_fraction() < 0.01);
    }

    #[test]
    fn fixed_target_out_of_range_rejected() {
        let g = path(3).unwrap();
        let cfg = McConfig::new(5, 5).with_target(TargetStrategy::Fixed(99));
        assert!(matches!(
            estimate(&g, &cfg),
            Err(RwbcError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn input_validation() {
        let cfg = McConfig::new(5, 5);
        assert!(matches!(
            estimate(&Graph::empty(1), &cfg),
            Err(RwbcError::TooSmall { .. })
        ));
        let disc = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            estimate(&disc, &cfg),
            Err(RwbcError::Disconnected)
        ));
        assert!(matches!(
            survival_fraction(&disc, &cfg),
            Err(RwbcError::Disconnected)
        ));
    }

    #[test]
    fn averaged_estimate_reduces_error() {
        let g = path(6).unwrap();
        let exact = newman(&g).unwrap();
        let cfg = McConfig::new(150, 120).with_seed(21);
        // Average the *same total walk budget*: 1 target with the full
        // budget vs 4 targets at a quarter each is the fair comparison,
        // but here we check the simpler monotonic property: more targets
        // at fixed per-target budget should not hurt.
        let single = estimate(&g, &cfg).unwrap();
        let multi = estimate_averaged(&g, &cfg, 4).unwrap();
        let e1 = mean_relative_error(&single.centrality, &exact);
        let e4 = mean_relative_error(&multi.centrality, &exact);
        assert!(
            e4 <= e1 * 1.5,
            "averaging made things much worse: {e1} -> {e4}"
        );
        assert_eq!(multi.targets.len(), 4);
        let mut dedup = multi.targets.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4, "targets must be distinct");
    }

    #[test]
    fn averaged_estimate_validation() {
        let g = path(4).unwrap();
        let cfg = McConfig::new(5, 5);
        assert!(estimate_averaged(&g, &cfg, 0).is_err());
        assert!(estimate_averaged(&g, &cfg, 5).is_err());
        assert!(estimate_averaged(&g, &cfg, 4).is_ok());
        let disc = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(estimate_averaged(&disc, &cfg, 2).is_err());
    }

    #[test]
    fn averaged_estimate_deterministic() {
        let g = star(5).unwrap();
        let cfg = McConfig::new(30, 20).with_seed(33);
        let a = estimate_averaged(&g, &cfg, 3).unwrap();
        let b = estimate_averaged(&g, &cfg, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn target_strategy_respected() {
        let g = complete(5).unwrap();
        let cfg = McConfig::new(10, 10).with_target(TargetStrategy::Fixed(3));
        let run = estimate(&g, &cfg).unwrap();
        assert_eq!(run.target, 3);
    }
}
