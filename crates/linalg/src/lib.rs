//! Linear-algebra substrate for the RWBC reproduction.
//!
//! Newman's matrix expressions for random-walk betweenness (Section IV of
//! the paper) require inverting the *grounded Laplacian* `D_t − A_t`
//! (Eq. 3) and reasoning about powers of the absorbing transition matrix
//! `M_t` (Theorem 1). This crate implements, from scratch:
//!
//! * [`Matrix`] — dense row-major `f64` matrices with the operations the
//!   exact solver needs (products, 1-norm of Theorem 1, etc.);
//! * [`LuDecomposition`] — LU factorization with partial pivoting, the
//!   workhorse behind `(D_t − A_t)^{-1}`;
//! * [`CsrMatrix`] — compressed sparse row matrices for large systems;
//! * [`conjugate_gradient`] — (Jacobi-preconditioned) CG, exploiting that
//!   the grounded Laplacian is symmetric positive definite on connected
//!   graphs;
//! * [`power_iteration`] — dominant-eigenvalue estimation, used to predict
//!   the walk-survival decay rate `ρ(M_t)^l` that Theorem 1 bounds.
//!
//! # Example
//!
//! ```
//! use rwbc_linalg::{LuDecomposition, Matrix};
//!
//! # fn main() -> Result<(), rwbc_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = LuDecomposition::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cg;
mod dense;
mod error;
mod lu;
mod power;
mod sparse;

pub mod vector;

pub use cg::{conjugate_gradient, CgOptions, CgResult, Preconditioner};
pub use dense::Matrix;
pub use error::LinalgError;
pub use lu::LuDecomposition;
pub use power::{power_iteration, PowerOptions, PowerResult};
pub use sparse::CsrMatrix;
