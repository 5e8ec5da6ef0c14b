//! Newman's exact random-walk betweenness (paper Section IV).
//!
//! The pipeline follows the paper's matrix expressions exactly:
//!
//! 1. ground an arbitrary node `t₀` (we use `n − 1`), forming the grounded
//!    Laplacian `D_t − A_t` (Eqs. 1–2 after row/column removal);
//! 2. invert: `T_t = (D_t − A_t)^{-1}`, padded back with a zero row/column
//!    to form `T` (Eq. 3);
//! 3. node potentials for a pair `(s, t)` are `V_i^{(st)} = T_is − T_it`
//!    (Eq. 5); net flow through `i` is half the absolute potential drop to
//!    its neighbors (Eq. 6), endpoints contribute one full unit (Eq. 7);
//! 4. average over all `n(n−1)/2` pairs (Eq. 8).
//!
//! The inversion can run through a dense LU factorization (faithful to
//! Newman's `O((n + m) n²)` description) or through per-source conjugate-
//! gradient solves on the sparse grounded Laplacian; the pair reduction can
//! be the literal `Θ(n²)`-per-edge double loop or the `O(n log n)`-per-edge
//! sorted reduction. All four combinations agree to numerical tolerance:
//! `exact::tests` compares them on a grid, `tests/cross_validation.rs`
//! checks CG against dense LU on four graph families, and
//! `crates/core/tests/properties.rs` on random graphs.
//!
//! # Example
//!
//! ```
//! use rwbc::exact::newman;
//! use rwbc_graph::generators::star;
//!
//! # fn main() -> Result<(), rwbc::RwbcError> {
//! let g = star(3)?; // hub 0, leaves 1..=3
//! let b = newman(&g)?;
//! assert!((b[0] - 1.0).abs() < 1e-9); // hub carries everything
//! assert!((b[1] - 0.5).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

mod edges;
mod potentials;

pub use edges::{edge_betweenness, EdgeBetweenness};
pub use potentials::{grounded_laplacian_dense, grounded_laplacian_sparse, potential_columns};

use rwbc_graph::traversal::is_connected;
use rwbc_graph::Graph;

use crate::flow_sum::{combine_potentials, PairSumMethod};
use crate::{Centrality, RwbcError};

/// Linear-system strategy for computing the potential matrix `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Solver {
    /// Dense LU factorization + full inverse — Newman's original recipe.
    #[default]
    DenseLu,
    /// One Jacobi-preconditioned conjugate-gradient solve per source on the
    /// sparse grounded Laplacian (SPD on connected graphs).
    ConjugateGradient,
}

/// Options for [`newman_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExactOptions {
    /// How `T = (D_t − A_t)^{-1}` is obtained.
    pub solver: Solver,
    /// How the per-pair reduction is evaluated.
    pub pair_sum: PairSumMethod,
}

// Re-export so callers can name the reduction without reaching into
// crate-private modules.
pub use crate::flow_sum::PairSumMethod as PairSum;

/// Exact RWBC with default options (dense LU + sorted reduction).
///
/// # Errors
///
/// * [`RwbcError::TooSmall`] when `n < 2`;
/// * [`RwbcError::Disconnected`] when the graph is disconnected (the
///   grounded Laplacian is singular there);
/// * propagated numerical errors.
pub fn newman(graph: &Graph) -> Result<Centrality, RwbcError> {
    newman_with(graph, &ExactOptions::default())
}

/// Exact RWBC with explicit solver/reduction choices.
///
/// # Errors
///
/// Same as [`newman`].
pub fn newman_with(graph: &Graph, options: &ExactOptions) -> Result<Centrality, RwbcError> {
    let n = graph.node_count();
    if n < 2 {
        return Err(RwbcError::TooSmall { n });
    }
    if !is_connected(graph) {
        return Err(RwbcError::Disconnected);
    }
    let x = potential_columns(graph, n - 1, options.solver)?;
    Ok(Centrality::from_values(combine_potentials(
        graph,
        &x,
        options.pair_sum,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwbc_graph::generators::{complete, cycle, fig1_graph, grid_2d, path, star};
    use rwbc_graph::Graph;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn path3_hand_computed() {
        let g = path(3).unwrap();
        let b = newman(&g).unwrap();
        assert_close(b[0], 2.0 / 3.0);
        assert_close(b[1], 1.0);
        assert_close(b[2], 2.0 / 3.0);
    }

    #[test]
    fn star_hand_computed() {
        let g = star(4).unwrap();
        let b = newman(&g).unwrap();
        // Hub: endpoint in 4 pairs + full unit for all C(4,2) leaf pairs.
        assert_close(b[0], 1.0);
        for leaf in 1..=4 {
            assert_close(b[leaf], 4.0 / 10.0);
        }
    }

    #[test]
    fn endpoints_floor_is_two_over_n() {
        // Every node is an endpoint of n-1 pairs, each contributing a full
        // unit, so b_i >= (n-1) / (n(n-1)/2) = 2/n.
        let g = complete(6).unwrap();
        let b = newman(&g).unwrap();
        for v in 0..6 {
            assert!(b[v] >= 2.0 / 6.0 - 1e-12);
            assert!(b[v] <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn symmetry_of_vertex_transitive_graphs() {
        for g in [complete(5).unwrap(), cycle(8).unwrap()] {
            let b = newman(&g).unwrap();
            let first = b[0];
            for (_, x) in b.iter() {
                assert_close(x, first);
            }
        }
    }

    #[test]
    fn all_solver_reduction_combinations_agree() {
        let g = grid_2d(3, 4).unwrap();
        let reference = newman_with(
            &g,
            &ExactOptions {
                solver: Solver::DenseLu,
                pair_sum: PairSumMethod::Direct,
            },
        )
        .unwrap();
        for solver in [Solver::DenseLu, Solver::ConjugateGradient] {
            for pair_sum in [PairSumMethod::Direct, PairSumMethod::Sorted] {
                let b = newman_with(&g, &ExactOptions { solver, pair_sum }).unwrap();
                assert!(
                    b.approx_eq(&reference, 1e-6),
                    "{solver:?}/{pair_sum:?} diverged"
                );
            }
        }
    }

    #[test]
    fn relabeling_permutes_scores() {
        let g = grid_2d(2, 3).unwrap();
        let b = newman(&g).unwrap();
        let perm: Vec<usize> = (0..6).rev().collect();
        let h = g.relabel(&perm);
        let bh = newman(&h).unwrap();
        for v in 0..6 {
            assert_close(b[v], bh[perm[v]]);
        }
    }

    #[test]
    fn fig1_c_has_substantial_rwbc() {
        let (g, l) = fig1_graph(4).unwrap();
        let b = newman(&g).unwrap();
        // The bypass node C must clearly exceed the endpoint floor 2/n:
        // random walks detour through it even though no shortest path does.
        let floor = 2.0 / g.node_count() as f64;
        assert!(b[l.c] > 1.15 * floor, "b_C = {} floor = {floor}", b[l.c]);
        // And the bridges A, B remain the top-2 nodes.
        let top = b.top_k(2);
        assert!(top.contains(&l.a) && top.contains(&l.b), "top = {top:?}");
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(matches!(
            newman(&Graph::empty(1)),
            Err(RwbcError::TooSmall { n: 1 })
        ));
        let disconnected = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            newman(&disconnected),
            Err(RwbcError::Disconnected)
        ));
    }

    #[test]
    fn two_node_graph_is_all_endpoints() {
        let g = path(2).unwrap();
        let b = newman(&g).unwrap();
        assert_close(b[0], 1.0);
        assert_close(b[1], 1.0);
    }

    #[test]
    fn bridge_node_dominates_barbell() {
        let g = rwbc_graph::generators::barbell(4, 1).unwrap();
        let b = newman(&g).unwrap();
        // The single bridge node (index 4) carries all inter-clique flow.
        assert_eq!(b.argmax(), Some(4));
    }
}
