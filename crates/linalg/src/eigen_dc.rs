//! Divide-and-conquer symmetric eigensolver (Cuppen 1981, LAPACK dstedc).
//!
//! The pipeline is `A = Q·T·Qᵀ` ([`crate::tridiag`]) followed by a
//! recursion on the tridiagonal `T`: split on an off-diagonal element β,
//!
//! `T = blockdiag(T₁̂, T₂̂) + β·u·uᵀ`, `u = (e_last; e_first)`,
//!
//! where `T₁̂`/`T₂̂` are the halves with β subtracted from the adjacent
//! diagonal entries. In the eigenbasis of the solved halves this is the
//! diagonal-plus-rank-1 problem of the private `secular` module (deflation
//! plus a safeguarded-Newton root solve), so the merge costs `O(n·m²)`
//! with `m` the non-deflated count, and leaves small enough for Jacobi are
//! solved directly. Against cyclic Jacobi's `O(n³·sweeps)` this wins
//! roughly the sweep count once `n` clears the dispatch threshold, and
//! deflation makes clustered spectra cheaper still.
//!
//! [`SymEigen::decompose`] is the policy entry point every call site in
//! the workspace routes through: Jacobi below
//! [`DecomposeOpts::dc_threshold`] (and as the fallback), D&C above it,
//! accepted only if the [`SymEigen::orthogonality_drift`] probe stays
//! within [`DecomposeOpts::drift_tol`], so callers never see a degraded
//! basis.

use crate::eigen::{sym_eigen, SymEigen};
use crate::matrix::Matrix;
use crate::secular;
use crate::Result;

/// Subproblems at or below this size are solved by cyclic Jacobi directly:
/// below ~24 the O(n²) merge bookkeeping costs as much as the sweeps.
const DC_LEAF: usize = 24;

/// Policy knobs for [`SymEigen::decompose_with`].
#[derive(Debug, Clone, Copy)]
pub struct DecomposeOpts {
    /// Matrices smaller than this go straight to Jacobi — at small `d`
    /// the tridiagonalization + merge overhead dominates and Jacobi's
    /// robustness is free.
    pub dc_threshold: usize,
    /// Accept the D&C result only while `orthogonality_drift()` stays
    /// within this bound; beyond it (or on any D&C error) the dispatch
    /// falls back to Jacobi. Setting it below zero forces the fallback —
    /// the failure-injection point used by the property tests.
    pub drift_tol: f64,
}

impl Default for DecomposeOpts {
    fn default() -> Self {
        DecomposeOpts {
            dc_threshold: 32,
            drift_tol: 1e-8,
        }
    }
}

impl SymEigen {
    /// Symmetric eigendecomposition with the default dispatch policy:
    /// divide-and-conquer above `d = 32` with a drift-probed Jacobi
    /// fallback, cyclic Jacobi below. This is the single entry point the
    /// whole workspace routes through, so threshold and fallback policy
    /// live in one place.
    pub fn decompose(a: &Matrix) -> Result<SymEigen> {
        Self::decompose_with(a, &DecomposeOpts::default())
    }

    /// [`SymEigen::decompose`] with explicit policy knobs.
    pub fn decompose_with(a: &Matrix, opts: &DecomposeOpts) -> Result<SymEigen> {
        if a.rows() != a.cols() || a.rows() < opts.dc_threshold {
            // Malformed inputs also take this arm so error reporting is
            // identical to the historical Jacobi path.
            return sym_eigen(a);
        }
        match sym_eigen_dc(a) {
            Ok(e) if e.orthogonality_drift() <= opts.drift_tol => Ok(e),
            // Drift out of bounds or a secular solve that failed to
            // bracket: Jacobi is the verification/fallback rung.
            _ => sym_eigen(a),
        }
    }
}

/// Symmetric eigendecomposition via tridiagonal divide-and-conquer.
///
/// Same contract as [`sym_eigen`]: descending eigenvalues, orthonormal
/// eigenvector columns. Prefer [`SymEigen::decompose`], which adds the
/// size dispatch and the drift-probed Jacobi fallback.
pub fn sym_eigen_dc(a: &Matrix) -> Result<SymEigen> {
    let t = crate::tridiag::tridiagonalize(a)?;
    let n = t.diag.len();
    if n == 0 {
        return Ok(SymEigen {
            values: vec![],
            vectors: Matrix::zeros(0, 0),
        });
    }
    let (vals_asc, qt) = dc_tridiag(&t.diag, &t.off)?;
    // Back-transform to the original basis — one cache-tiled n×n product
    // — and flip to the descending order of [`SymEigen`].
    let full = t.q.matmul(&qt);
    let values: Vec<f64> = vals_asc.iter().rev().copied().collect();
    let mut vectors = Matrix::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            vectors[(i, j)] = full[(i, n - 1 - j)];
        }
    }
    Ok(SymEigen { values, vectors })
}

/// Recursive eigendecomposition of the tridiagonal `(diag, off)`: returns
/// ascending eigenvalues and the orthogonal eigenvector columns.
fn dc_tridiag(diag: &[f64], off: &[f64]) -> Result<(Vec<f64>, Matrix)> {
    let n = diag.len();
    debug_assert_eq!(off.len(), n.saturating_sub(1));
    if n <= DC_LEAF {
        // Leaf: dense Jacobi on the tridiagonal, flipped to ascending.
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = diag[i];
        }
        for k in 0..n.saturating_sub(1) {
            a[(k + 1, k)] = off[k];
            a[(k, k + 1)] = off[k];
        }
        let e = sym_eigen(&a)?;
        let vals: Vec<f64> = e.values.iter().rev().copied().collect();
        let mut q = Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                q[(i, j)] = e.vectors[(i, n - 1 - j)];
            }
        }
        return Ok((vals, q));
    }

    // Split T = blockdiag(T₁̂, T₂̂) + β·u·uᵀ on the middle off-diagonal:
    // β couples the last row of the first half to the first row of the
    // second, and gets subtracted from both adjacent diagonal entries.
    let k = n / 2;
    let beta = off[k - 1];
    let mut d1 = diag[..k].to_vec();
    d1[k - 1] -= beta;
    let mut d2 = diag[k..].to_vec();
    d2[0] -= beta;
    let (v1, q1) = dc_tridiag(&d1, &off[..k - 1])?;
    let (v2, q2) = dc_tridiag(&d2, &off[k..])?;

    // In the block eigenbasis the coupling is the rank-1 vector
    // z = (last row of Q₁ ; first row of Q₂). Sort the combined spectrum
    // ascending (stable — deterministic under ties) and permute the
    // block-diagonal basis to match.
    let val = |i: usize| if i < k { v1[i] } else { v2[i - k] };
    let mut ord: Vec<usize> = (0..n).collect();
    ord.sort_by(|&a, &b| val(a).partial_cmp(&val(b)).unwrap());
    let d_sorted: Vec<f64> = ord.iter().map(|&i| val(i)).collect();
    let mut z_sorted: Vec<f64> = ord
        .iter()
        .map(|&i| {
            if i < k {
                q1[(k - 1, i)]
            } else {
                q2[(0, i - k)]
            }
        })
        .collect();
    let mut v = Matrix::zeros(n, n);
    for (col, &i) in ord.iter().enumerate() {
        if i < k {
            for r in 0..k {
                v[(r, col)] = q1[(r, i)];
            }
        } else {
            for r in 0..n - k {
                v[(k + r, col)] = q2[(r, i - k)];
            }
        }
    }

    // β = 0 (decoupled halves) and full deflation both come back as the
    // no-op case: the sorted block spectrum is already the answer.
    match secular::diag_plus_rank1_in_basis(&d_sorted, &mut z_sorted, beta, &mut v)? {
        None => Ok((d_sorted, v)),
        Some(vals) => Ok((vals, v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_spd(n: usize, seed: u64) -> Matrix {
        let mut s = seed;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let r = Matrix::from_fn(n, n, |_, _| next());
        let mut a = r.gram().scale(0.09);
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn dc_matches_jacobi_on_spd() {
        let a = lcg_spd(48, 42);
        let dc = sym_eigen_dc(&a).unwrap();
        let jc = sym_eigen(&a).unwrap();
        let norm = a.frobenius_norm().max(1.0);
        for (x, y) in dc.values.iter().zip(&jc.values) {
            assert!((x - y).abs() < 1e-10 * norm, "{x} vs {y}");
        }
        assert!(dc.reconstruct().max_abs_diff(&a) < 1e-10 * norm);
        assert!(dc.orthogonality_drift() < 1e-12);
    }

    #[test]
    fn decouples_at_zero_beta() {
        // Block-diagonal tridiagonal: the split lands on β = 0 at n/2.
        let n = 64;
        let diag: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let mut off = vec![0.4; n - 1];
        off[n / 2 - 1] = 0.0;
        let (vals, q) = dc_tridiag(&diag, &off).unwrap();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]));
        // Clustered spectra are the worst case for secular-root
        // orthogonality (no Gu–Eisenstat correction here); the drift
        // probe in `decompose_with` gates acceptance at 1e-8.
        assert!(q.gram().max_abs_diff(&Matrix::identity(n)) < 1e-8);
    }

    #[test]
    fn below_threshold_dispatch_is_jacobi_bitwise() {
        let a = lcg_spd(16, 7);
        let via_dispatch = SymEigen::decompose(&a).unwrap();
        let via_jacobi = sym_eigen(&a).unwrap();
        assert_eq!(via_dispatch.values, via_jacobi.values);
        assert_eq!(
            via_dispatch.vectors.as_slice(),
            via_jacobi.vectors.as_slice()
        );
    }

    #[test]
    fn forced_fallback_is_jacobi_bitwise() {
        let a = lcg_spd(40, 9);
        let opts = DecomposeOpts {
            drift_tol: -1.0, // no D&C result can pass: always fall back
            ..DecomposeOpts::default()
        };
        let via_dispatch = SymEigen::decompose_with(&a, &opts).unwrap();
        let via_jacobi = sym_eigen(&a).unwrap();
        assert_eq!(via_dispatch.values, via_jacobi.values);
        assert_eq!(
            via_dispatch.vectors.as_slice(),
            via_jacobi.vectors.as_slice()
        );
    }

    #[test]
    fn dispatch_rejects_malformed_input() {
        assert!(SymEigen::decompose(&Matrix::zeros(2, 3)).is_err());
        let bad = Matrix::from_fn(40, 40, |_, _| f64::NAN);
        assert!(SymEigen::decompose(&bad).is_err());
        let empty = SymEigen::decompose(&Matrix::zeros(0, 0)).unwrap();
        assert!(empty.values.is_empty());
    }
}
