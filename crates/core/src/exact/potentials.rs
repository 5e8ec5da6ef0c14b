//! Construction of the grounded Laplacian and the potential matrix `T`.

use rwbc_graph::{Graph, NodeId};
use rwbc_linalg::{conjugate_gradient, CgOptions, CsrMatrix, LuDecomposition, Matrix};

use crate::exact::Solver;
use crate::RwbcError;

/// The grounded Laplacian `D_t − A_t` (paper Eq. 3) as a dense matrix of
/// order `n − 1`: the Laplacian of `graph` with row and column `ground`
/// removed. Remaining nodes keep their relative order.
///
/// # Panics
///
/// Panics if `ground >= n`.
pub fn grounded_laplacian_dense(graph: &Graph, ground: NodeId) -> Matrix {
    let n = graph.node_count();
    assert!(ground < n, "ground node {ground} out of range");
    let map = index_map(n, ground);
    let mut l = Matrix::zeros(n - 1, n - 1);
    for v in graph.nodes() {
        let Some(vi) = map[v] else { continue };
        l.set(vi, vi, graph.degree(v) as f64);
        for u in graph.neighbors(v) {
            if let Some(ui) = map[u] {
                l.set(vi, ui, -1.0);
            }
        }
    }
    l
}

/// Sparse counterpart of [`grounded_laplacian_dense`].
///
/// # Panics
///
/// Panics if `ground >= n`.
pub fn grounded_laplacian_sparse(graph: &Graph, ground: NodeId) -> CsrMatrix {
    let n = graph.node_count();
    assert!(ground < n, "ground node {ground} out of range");
    let map = index_map(n, ground);
    let mut triplets = Vec::with_capacity(2 * graph.edge_count() + n);
    for v in graph.nodes() {
        let Some(vi) = map[v] else { continue };
        triplets.push((vi, vi, graph.degree(v) as f64));
        for u in graph.neighbors(v) {
            if let Some(ui) = map[u] {
                triplets.push((vi, ui, -1.0));
            }
        }
    }
    CsrMatrix::from_triplets(n - 1, n - 1, &triplets)
        .expect("grounded Laplacian coordinates are in range")
}

/// The potential columns `x[v][s] = T_vs`, where `T` is `(D_t − A_t)^{-1}`
/// padded with a zero row and column at `ground` (paper Eq. 3 and the
/// discussion around Eq. 5).
///
/// `T` is symmetric (the grounded Laplacian is), so `x[v]` is
/// simultaneously row `v` and column `v`.
///
/// # Errors
///
/// Propagates solver failures; a singular system indicates a disconnected
/// graph (callers check connectivity first for a friendlier error).
pub fn potential_columns(
    graph: &Graph,
    ground: NodeId,
    solver: Solver,
) -> Result<Vec<Vec<f64>>, RwbcError> {
    let n = graph.node_count();
    let map = index_map(n, ground);
    let mut x = vec![vec![0.0; n]; n];
    match solver {
        Solver::DenseLu => {
            let l = grounded_laplacian_dense(graph, ground);
            let t = LuDecomposition::new(&l)?.inverse()?;
            for v in graph.nodes() {
                let Some(vi) = map[v] else { continue };
                for s in graph.nodes() {
                    if let Some(si) = map[s] {
                        x[v][s] = t.get(vi, si);
                    }
                }
            }
        }
        Solver::ConjugateGradient => {
            let l = grounded_laplacian_sparse(graph, ground);
            let opts = CgOptions::default();
            for s in graph.nodes() {
                let Some(si) = map[s] else { continue };
                let mut rhs = vec![0.0; n - 1];
                rhs[si] = 1.0;
                let sol = conjugate_gradient(&l, &rhs, &opts)?;
                for v in graph.nodes() {
                    if let Some(vi) = map[v] {
                        x[v][s] = sol.x[vi];
                    }
                }
            }
        }
    }
    Ok(x)
}

/// Maps original node ids to grounded indices (`None` for the ground).
fn index_map(n: usize, ground: NodeId) -> Vec<Option<usize>> {
    let mut map = Vec::with_capacity(n);
    let mut next = 0;
    for v in 0..n {
        if v == ground {
            map.push(None);
        } else {
            map.push(Some(next));
            next += 1;
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwbc_graph::generators::{cycle, path};

    #[test]
    fn grounded_laplacian_of_path3() {
        let g = path(3).unwrap();
        let l = grounded_laplacian_dense(&g, 2);
        assert_eq!(l.row(0), &[1.0, -1.0]);
        assert_eq!(l.row(1), &[-1.0, 2.0]);
    }

    #[test]
    fn grounding_interior_node_reindexes() {
        let g = path(3).unwrap();
        // Ground the middle node: remaining nodes {0, 2} are isolated from
        // each other but keep their degrees.
        let l = grounded_laplacian_dense(&g, 1);
        assert_eq!(l.row(0), &[1.0, 0.0]);
        assert_eq!(l.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn sparse_matches_dense() {
        let g = cycle(6).unwrap();
        let d = grounded_laplacian_dense(&g, 3);
        let s = grounded_laplacian_sparse(&g, 3);
        assert!(s.to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn potentials_known_for_path3() {
        let g = path(3).unwrap();
        let x = potential_columns(&g, 2, Solver::DenseLu).unwrap();
        // T = [[2, 1, 0], [1, 1, 0], [0, 0, 0]].
        assert_eq!(x[0], vec![2.0, 1.0, 0.0]);
        assert_eq!(x[1], vec![1.0, 1.0, 0.0]);
        assert_eq!(x[2], vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn potentials_symmetric_and_solver_agnostic() {
        let g = cycle(7).unwrap();
        let lu = potential_columns(&g, 6, Solver::DenseLu).unwrap();
        let cg = potential_columns(&g, 6, Solver::ConjugateGradient).unwrap();
        for v in 0..7 {
            for s in 0..7 {
                assert!((lu[v][s] - lu[s][v]).abs() < 1e-9, "asymmetric at {v},{s}");
                assert!(
                    (lu[v][s] - cg[v][s]).abs() < 1e-7,
                    "solver mismatch at {v},{s}"
                );
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // v indexes both a row and a column
    fn ground_row_and_column_are_zero() {
        let g = cycle(5).unwrap();
        let x = potential_columns(&g, 2, Solver::DenseLu).unwrap();
        for v in 0..5 {
            assert_eq!(x[2][v], 0.0);
            assert_eq!(x[v][2], 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ground_out_of_range_panics() {
        grounded_laplacian_dense(&path(3).unwrap(), 3);
    }
}
