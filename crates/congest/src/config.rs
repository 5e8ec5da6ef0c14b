use rwbc_graph::NodeId;

use crate::fault::{sanitize_probability, FaultPlan};

/// What to do when traffic exceeds the CONGEST budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViolationPolicy {
    /// Abort the run with a [`SimError`] — use this to *prove* an algorithm
    /// respects the model (paper Theorem 4).
    ///
    /// [`SimError`]: crate::SimError
    #[default]
    Strict,
    /// Deliver anyway but count the violation in [`RunStats`] — useful for
    /// measuring *how much* an algorithm (e.g. the trivial `O(m)` collection
    /// baseline) would overload edges.
    ///
    /// [`RunStats`]: crate::RunStats
    Record,
}

/// Configuration of a [`Simulator`] run.
///
/// [`Simulator`]: crate::Simulator
///
/// # Example
///
/// ```
/// use congest_sim::SimConfig;
/// let cfg = SimConfig::default().with_seed(7).with_bandwidth_coeff(4);
/// assert_eq!(cfg.budget_bits(1024), 4 * 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Master seed; each node derives an independent deterministic RNG.
    pub seed: u64,
    /// The per-edge budget per round is `bandwidth_coeff * ceil(log2 n)`
    /// bits. The model requires `O(log n)`; the coefficient pins the
    /// constant.
    pub bandwidth_coeff: usize,
    /// Messages allowed per edge *direction* per round (the paper's model
    /// transfers a constant number; default 1).
    pub messages_per_edge: usize,
    /// Hard round budget: abort with
    /// [`SimError::RoundBudgetExceeded`](crate::SimError::RoundBudgetExceeded)
    /// if global termination is not reached by this round. Every config
    /// carries a finite budget (the default is 10⁷), so a livelocked
    /// protocol — e.g. unbounded retransmission toward a dead link —
    /// becomes a typed error, never a hang.
    pub max_rounds: usize,
    /// How budget violations are handled.
    pub violation_policy: ViolationPolicy,
    /// Edges (unordered pairs) whose traffic the cut meter accumulates.
    pub cut: Vec<(NodeId, NodeId)>,
    /// Fault injection schedule (default: empty — the CONGEST model is
    /// reliable). Messages lost to any fault are still charged against the
    /// budget (they were sent) and counted in [`RunStats::dropped`].
    ///
    /// [`RunStats::dropped`]: crate::RunStats
    pub faults: FaultPlan,
    /// Number of worker threads for the round loop (1 = sequential).
    /// Results are identical for any value; this only affects wall-time.
    pub threads: usize,
    /// Minimum nodes per worker chunk. The engine clamps the worker
    /// count so every chunk holds at least this many nodes (see
    /// [`SimConfig::effective_threads`]), replacing the old hardcoded
    /// "sequential below 64 nodes" fallback with a tunable knob. Like
    /// `threads`, this only affects wall-time, never results.
    pub granularity: usize,
}

/// Default for [`SimConfig::granularity`]: chunks of at least 16 nodes.
/// Below that, per-round worker coordination costs more than the work.
fn default_granularity() -> usize {
    16
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            seed: 0xC0DE ^ 0x9E37_79B9_7F4A_7C15,
            bandwidth_coeff: 8,
            messages_per_edge: 1,
            max_rounds: 10_000_000,
            violation_policy: ViolationPolicy::Strict,
            cut: Vec::new(),
            faults: FaultPlan::default(),
            threads: 1,
            granularity: default_granularity(),
        }
    }
}

impl SimConfig {
    /// Sets the master seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Sets the bandwidth coefficient (builder style).
    #[must_use]
    pub fn with_bandwidth_coeff(mut self, coeff: usize) -> SimConfig {
        self.bandwidth_coeff = coeff;
        self
    }

    /// Sets the per-edge-per-round message limit (builder style).
    #[must_use]
    pub fn with_messages_per_edge(mut self, limit: usize) -> SimConfig {
        self.messages_per_edge = limit;
        self
    }

    /// Sets the hard round budget (builder style). Clamped to at least 1,
    /// the same defensive validation the fault probabilities get: a zero
    /// budget would reject every run before its first round.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: usize) -> SimConfig {
        self.max_rounds = max_rounds.max(1);
        self
    }

    /// Sets the violation policy (builder style).
    #[must_use]
    pub fn with_violation_policy(mut self, policy: ViolationPolicy) -> SimConfig {
        self.violation_policy = policy;
        self
    }

    /// Declares the monitored cut (builder style). Pairs are unordered.
    #[must_use]
    pub fn with_cut(mut self, cut: Vec<(NodeId, NodeId)>) -> SimConfig {
        self.cut = cut;
        self
    }

    /// Sets the message-drop probability for fault injection (builder
    /// style). Clamped to `[0, 1]`; NaN is treated as 0 rather than being
    /// propagated into the Bernoulli draw, where it would panic mid-run.
    /// Shorthand for configuring a [`FaultPlan`] with only Bernoulli drops.
    #[must_use]
    pub fn with_drop_probability(mut self, p: f64) -> SimConfig {
        self.faults.drop_probability = sanitize_probability(p);
        self
    }

    /// Installs a complete fault schedule (builder style).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> SimConfig {
        self.faults = faults;
        self
    }

    /// Sets the worker-thread count (builder style).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> SimConfig {
        self.threads = threads.max(1);
        self
    }

    /// Sets the minimum nodes per worker chunk (builder style). Clamped
    /// to at least 1.
    #[must_use]
    pub fn with_granularity(mut self, granularity: usize) -> SimConfig {
        self.granularity = granularity.max(1);
        self
    }

    /// The worker count the engine will actually use for an `n`-node
    /// network: `threads` clamped so every worker chunk holds at least
    /// [`granularity`](SimConfig::granularity) nodes. A result of 1
    /// means the round loop runs sequentially. This is the value the
    /// engine records in [`RunStats::effective_threads`], so a run
    /// configured with 8 threads on a graph too small to split can
    /// never masquerade as a parallel data point.
    ///
    /// [`RunStats::effective_threads`]: crate::RunStats::effective_threads
    pub fn effective_threads(&self, n: usize) -> usize {
        let workers = self.threads.max(1);
        workers.min((n / self.granularity.max(1)).max(1))
    }

    /// The per-edge bit budget `B(n) = bandwidth_coeff * ceil(log2 n)` for a
    /// network of `n` nodes (minimum 1 bit for degenerate `n`).
    pub fn budget_bits(&self, n: usize) -> usize {
        self.bandwidth_coeff * log2_ceil(n).max(1)
    }
}

/// `ceil(log2(x))` with `log2_ceil(0) = 0`, `log2_ceil(1) = 0`.
pub(crate) fn log2_ceil(x: usize) -> usize {
    if x <= 1 {
        0
    } else {
        (usize::BITS - (x - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn budget_scales_logarithmically() {
        let cfg = SimConfig::default().with_bandwidth_coeff(3);
        assert_eq!(cfg.budget_bits(16), 3 * 4);
        assert_eq!(cfg.budget_bits(1 << 20), 3 * 20);
        // Degenerate graphs still allow at least coeff bits.
        assert_eq!(cfg.budget_bits(1), 3);
    }

    #[test]
    fn drop_probability_nan_is_disabled_not_propagated() {
        // A NaN survives f64::clamp (clamp only panics when min > max), so
        // without sanitization it would reach gen_bool mid-run and panic
        // there. NaN means "no valid probability": treat it as disabled.
        let cfg = SimConfig::default().with_drop_probability(f64::NAN);
        assert_eq!(cfg.faults.drop_probability, 0.0);
        assert!(cfg.faults.is_empty());
    }

    #[test]
    fn effective_threads_respects_granularity() {
        let cfg = SimConfig::default().with_threads(8).with_granularity(16);
        // Chunks of at least 16 nodes: small graphs run sequentially,
        // and the worker count grows with n until `threads` caps it.
        assert_eq!(cfg.effective_threads(8), 1);
        assert_eq!(cfg.effective_threads(16), 1);
        assert_eq!(cfg.effective_threads(32), 2);
        assert_eq!(cfg.effective_threads(64), 4);
        assert_eq!(cfg.effective_threads(128), 8);
        assert_eq!(cfg.effective_threads(1 << 20), 8);
        // Degenerate knobs are clamped, never divide by zero.
        let cfg = SimConfig::default().with_threads(0).with_granularity(0);
        assert_eq!(cfg.granularity, 1);
        assert_eq!(cfg.effective_threads(100), 1);
        let single = SimConfig {
            granularity: 0,
            ..SimConfig::default()
        };
        assert_eq!(single.effective_threads(100), 1);
    }

    #[test]
    fn builder_chains() {
        let cfg = SimConfig::default()
            .with_seed(9)
            .with_messages_per_edge(2)
            .with_max_rounds(100)
            .with_threads(0)
            .with_violation_policy(ViolationPolicy::Record);
        assert_eq!(SimConfig::default().with_max_rounds(0).max_rounds, 1);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.messages_per_edge, 2);
        assert_eq!(cfg.max_rounds, 100);
        assert_eq!(cfg.threads, 1); // clamped
        assert_eq!(cfg.violation_policy, ViolationPolicy::Record);
    }
}
