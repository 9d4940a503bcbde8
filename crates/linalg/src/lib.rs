//! Dense linear algebra substrate for the `sider-rs` workspace.
//!
//! The SIDER algorithm (Puolamäki et al., ICDE 2018) needs a small but
//! carefully chosen set of dense routines on symmetric positive
//! (semi-)definite matrices of moderate dimension (`d ≤ a few hundred`):
//!
//! * [`Matrix`] — a row-major dense matrix of `f64`.
//! * [`Lu`] — LU decomposition with partial pivoting (solve / inverse / det).
//! * [`SymEigen`] — symmetric eigendecomposition, the workhorse behind
//!   whitening (Eq. 14 of the paper) and PCA. [`SymEigen::decompose`]
//!   dispatches between tridiagonal divide-and-conquer ([`tridiag`] +
//!   [`eigen_dc`], merging halves through the private `secular` kernel)
//!   and the cyclic Jacobi small-`d` / verification path ([`sym_eigen`]).
//! * [`woodbury`] — Sherman–Morrison rank-1 covariance updates, the key
//!   O(d²) trick that makes the MaxEnt optimizer fast (paper §II-A).
//! * [`sqrtm`] — the symmetric inverse square root behind FastICA's
//!   symmetric decorrelation (paper §II-B).
//! * [`avx2_dispatch!`] — one row-kernel source built for the baseline
//!   target and for AVX2, picked at run time, with the same bits in both.
//!
//! Everything is implemented from scratch: no BLAS/LAPACK, no external
//! linear-algebra crates. Numerical tolerances follow standard choices
//! (Jacobi sweeps until off-diagonal Frobenius mass is below `1e-12`
//! relative to the matrix norm).

// Indexed `for` loops are the dominant idiom in this crate's numeric
// kernels, where several arrays are indexed in lockstep and the index is
// part of the math; iterator rewrites obscure it.
#![allow(clippy::needless_range_loop)]

mod dispatch;
pub mod eigen;
pub mod eigen_dc;
pub mod error;
pub mod lu;
pub mod matrix;
mod secular;
pub mod sqrtm;
pub mod tridiag;
pub mod vector;
pub mod woodbury;

pub use eigen::{sym_eigen, SymEigen};
pub use eigen_dc::{sym_eigen_dc, DecomposeOpts};
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use sqrtm::sym_inv_sqrt;
pub use tridiag::{tridiagonalize, Tridiagonal};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
