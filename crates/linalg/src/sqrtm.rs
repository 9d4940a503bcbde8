//! Symmetric inverse square root via eigendecomposition.
//!
//! FastICA's symmetric decorrelation (paper §II-B) re-orthonormalises the
//! unmixing matrix as `W ← (W·Wᵀ)^{-1/2}·W`. The paper's whitening
//! (Eq. 14) does not come through here: it uses the background class
//! model's own spectral map.

use crate::eigen::SymEigen;
use crate::matrix::Matrix;
use crate::Result;

/// Eigenvalues below this (relative to the largest) are clamped to zero
/// before taking roots, to absorb round-off on PSD matrices.
const CLAMP_RTOL: f64 = 1e-13;

fn clamped(values: &[f64]) -> Vec<f64> {
    let vmax = values.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    let floor = CLAMP_RTOL * vmax;
    values
        .iter()
        .map(|&v| if v < floor { 0.0 } else { v })
        .collect()
}

/// Symmetric inverse square root `A^{-1/2}` of a symmetric PSD matrix.
/// Directions with (near-)zero eigenvalue are mapped to zero instead of
/// infinity, so a rank-deficient input still yields a finite result.
pub fn sym_inv_sqrt(a: &Matrix) -> Result<Matrix> {
    let e = SymEigen::decompose(a)?;
    let vals = clamped(&e.values);
    let n = vals.len();
    let mut out = Matrix::zeros(n, n);
    for k in 0..n {
        if vals[k] == 0.0 {
            continue;
        }
        let col = e.vectors.col(k);
        out.add_outer(1.0 / vals[k].sqrt(), &col, &col);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd() -> Matrix {
        Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]])
    }

    #[test]
    fn inv_sqrt_inverts() {
        let a = spd();
        let is = sym_inv_sqrt(&a).unwrap();
        let prod = is.matmul(&a).matmul(&is);
        assert!(prod.max_abs_diff(&Matrix::identity(2)) < 1e-12);
    }

    #[test]
    fn identity_is_fixed_point() {
        let i = Matrix::identity(3);
        assert!(sym_inv_sqrt(&i).unwrap().max_abs_diff(&i) < 1e-14);
    }

    #[test]
    fn diagonal_roots() {
        let a = Matrix::from_diag(&[9.0, 16.0]);
        let is = sym_inv_sqrt(&a).unwrap();
        assert!((is[(0, 0)] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn semidefinite_direction_maps_to_zero() {
        // Rank-1 PSD matrix: eigenvalues {2, 0}.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let is = sym_inv_sqrt(&a).unwrap();
        // A^{-1/2} A A^{-1/2} should be the projector onto the range of A.
        let proj = is.matmul(&a).matmul(&is);
        let expected = a.scale(0.5); // projector onto span{(1,1)}
        assert!(proj.max_abs_diff(&expected) < 1e-12);
    }

    #[test]
    fn tiny_negative_eigenvalues_clamped() {
        // Symmetric matrix that is PSD up to round-off: eigenvalues
        // {2, ~1e-16}. The tiny one is clamped, so only the (1,1)
        // direction contributes 2^{-1/2}·vvᵀ instead of a ~1e8 or NaN term.
        let a = Matrix::from_rows(&[vec![1.0, 1.0 - 1e-16], vec![1.0 - 1e-16, 1.0]]);
        let is = sym_inv_sqrt(&a).unwrap();
        assert!(is.is_finite());
        let expected = a.scale(0.5_f64.sqrt() * 0.5);
        assert!(is.max_abs_diff(&expected) < 1e-12);
    }
}
