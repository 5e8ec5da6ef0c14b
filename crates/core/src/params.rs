//! Parameter selection for the approximation algorithm (paper Theorems 1
//! and 3).
//!
//! * **Walk length `l`** — Theorem 1 argues that after `l = O(n)` rounds the
//!   unabsorbed fraction of walk mass is at most `ε` (treating the spectral
//!   radius `λ = ρ(M_t)` and `ε` as constants). We expose
//!   `l = ⌈length_coeff · n · ln(1/ε)⌉`; experiment E2 measures the actual
//!   decay per graph family and compares it against the spectral prediction
//!   `λ^l`. (On low-conductance families like paths, `λ → 1` as `n` grows
//!   and a larger `length_coeff` is needed — see `EXPERIMENTS.md`.)
//! * **Walks per node `K`** — Theorem 3's Chernoff argument needs
//!   `K = ⌈3 ln n / δ²⌉` walks for each visit count to concentrate within
//!   `(1 ± δ)` of its mean w.h.p.

use crate::RwbcError;

/// The `(K, l)` parameter pair of the paper's Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxParams {
    /// `K`: random walks started per node (Theorem 3: `O(log n)`).
    pub walks_per_node: usize,
    /// `l`: maximum walk length before truncation (Theorem 1: `O(n)`).
    pub walk_length: usize,
}

impl ApproxParams {
    /// Explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`RwbcError::InvalidParameter`] when either value is zero.
    pub fn new(walks_per_node: usize, walk_length: usize) -> Result<ApproxParams, RwbcError> {
        if walks_per_node == 0 || walk_length == 0 {
            return Err(RwbcError::InvalidParameter {
                reason: format!(
                    "walks_per_node ({walks_per_node}) and walk_length ({walk_length}) must be positive"
                ),
            });
        }
        Ok(ApproxParams {
            walks_per_node,
            walk_length,
        })
    }

    /// Parameters from the paper's theory for a network of `n` nodes:
    /// `K = ⌈3 ln n / δ²⌉` (Theorem 3) and `l = ⌈n ln(1/ε)⌉` (Theorem 1
    /// with unit coefficient).
    ///
    /// # Errors
    ///
    /// Returns [`RwbcError::InvalidParameter`] unless `0 < ε < 1`,
    /// `0 < δ < 1`, and `n ≥ 2`.
    ///
    /// # Example
    ///
    /// ```
    /// use rwbc::params::ApproxParams;
    /// let p = ApproxParams::from_theory(100, 0.1, 0.5).unwrap();
    /// assert_eq!(p.walk_length, (100.0f64 * (10.0f64).ln()).ceil() as usize);
    /// assert!(p.walks_per_node >= 3);
    /// ```
    pub fn from_theory(n: usize, epsilon: f64, delta: f64) -> Result<ApproxParams, RwbcError> {
        if n < 2 {
            return Err(RwbcError::InvalidParameter {
                reason: format!("need n >= 2 nodes, got {n}"),
            });
        }
        for (name, v) in [("epsilon", epsilon), ("delta", delta)] {
            if !(v > 0.0 && v < 1.0) {
                return Err(RwbcError::InvalidParameter {
                    reason: format!("{name} = {v} must lie strictly in (0, 1)"),
                });
            }
        }
        Ok(ApproxParams {
            walks_per_node: walks_per_node(n, delta),
            walk_length: walk_length(n, epsilon),
        })
    }
}

/// `K = ⌈3 ln n / δ²⌉`, clamped to at least 1 — the Chernoff count of
/// Theorem 3 (two-sided bound `P[|X − E X| ≥ δ E X] ≤ 2 e^{−δ² E X / 3}`).
pub fn walks_per_node(n: usize, delta: f64) -> usize {
    let k = 3.0 * (n.max(2) as f64).ln() / (delta * delta);
    k.ceil().max(1.0) as usize
}

/// `l = ⌈n · ln(1/ε)⌉`, clamped to at least 1 — Theorem 1's `O(n)` bound
/// with the `ln(1/ε)` dependence made explicit.
pub fn walk_length(n: usize, epsilon: f64) -> usize {
    let l = n as f64 * (1.0 / epsilon).ln();
    l.ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theory_scaling() {
        // K grows logarithmically in n.
        let k100 = walks_per_node(100, 0.5);
        let k10000 = walks_per_node(10_000, 0.5);
        assert!(k10000 < 3 * k100, "K must grow like log n, not faster");
        assert!(k10000 > k100);
        // l grows linearly in n (up to ceil rounding).
        let l100 = walk_length(100, 0.1);
        let l200 = walk_length(200, 0.1);
        assert!(
            (l200 as i64 - 2 * l100 as i64).abs() <= 1,
            "{l200} vs 2*{l100}"
        );
    }

    #[test]
    fn tighter_delta_needs_more_walks() {
        assert!(walks_per_node(100, 0.1) > walks_per_node(100, 0.5));
    }

    #[test]
    fn smaller_epsilon_needs_longer_walks() {
        assert!(walk_length(50, 0.01) > walk_length(50, 0.1));
    }

    #[test]
    fn validation() {
        assert!(ApproxParams::new(0, 5).is_err());
        assert!(ApproxParams::new(5, 0).is_err());
        assert!(ApproxParams::new(5, 5).is_ok());
        assert!(ApproxParams::from_theory(1, 0.1, 0.1).is_err());
        assert!(ApproxParams::from_theory(10, 0.0, 0.1).is_err());
        assert!(ApproxParams::from_theory(10, 0.1, 1.0).is_err());
        assert!(ApproxParams::from_theory(10, 0.1, 0.1).is_ok());
    }

    #[test]
    fn minimum_values_clamped() {
        assert!(walks_per_node(2, 0.99) >= 1);
        assert!(walk_length(2, 0.99) >= 1);
    }
}
