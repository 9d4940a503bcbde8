//! Symmetric eigendecomposition via the cyclic Jacobi method.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// Eigendecomposition `A = V·diag(λ)·Vᵀ` of a symmetric matrix.
///
/// Eigenpairs are sorted by **descending** eigenvalue; `vectors` holds the
/// eigenvectors as columns (so `vectors.col(k)` pairs with `values[k]`).
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as columns.
    pub vectors: Matrix,
}

/// Maximum number of Jacobi sweeps before reporting a convergence failure.
const MAX_SWEEPS: usize = 64;

/// Symmetric eigendecomposition of `a` via cyclic Jacobi rotations.
///
/// `a` must be square and symmetric up to a small tolerance (we symmetrize
/// internally to iron out round-off asymmetry). Jacobi is slower than
/// tridiagonal QL for large `d` but is simple, extremely robust, and more
/// than fast enough for the `d ≤ 128` whitening/PCA workloads of the paper.
pub fn sym_eigen(a: &Matrix) -> Result<SymEigen> {
    a.require_square()?;
    if !a.is_finite() {
        return Err(LinalgError::NotFinite);
    }
    let n = a.rows();
    if n == 0 {
        return Ok(SymEigen {
            values: vec![],
            vectors: Matrix::zeros(0, 0),
        });
    }
    let mut m = a.clone();
    m.symmetrize();
    let mut v = Matrix::identity(n);

    let norm = m.frobenius_norm().max(1e-300);
    let tol = 1e-14 * norm;
    // Pivots below this cannot move the off-diagonal norm anywhere near
    // `tol` even if every element sits at the threshold
    // (`√(n(n−1)) · rot_tol ≤ tol/100`), so rotating them is pure waste —
    // skipping turns late sweeps from O(n³) rotation work into O(n²)
    // comparisons. The margin of 100 keeps the perturbation relative to
    // the unthresholded iteration two orders below the convergence
    // tolerance itself.
    let rot_tol = (tol / (100.0 * n as f64)).max(1e-300);

    for _sweep in 0..MAX_SWEEPS {
        // Off-diagonal Frobenius mass.
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += 2.0 * m[(i, j)] * m[(i, j)];
            }
        }
        if off.sqrt() <= tol {
            return Ok(sorted(m, v));
        }
        let mut rotations = 0usize;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= rot_tol {
                    continue;
                }
                rotations += 1;
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Classic Jacobi rotation angle.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Update rows/columns p and q of the symmetric matrix.
                for k in 0..n {
                    if k != p && k != q {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(p, k)] = m[(k, p)];
                        m[(k, q)] = s * mkp + c * mkq;
                        m[(q, k)] = m[(k, q)];
                    }
                }
                m[(p, p)] = app - t * apq;
                m[(q, q)] = aqq + t * apq;
                m[(p, q)] = 0.0;
                m[(q, p)] = 0.0;

                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
        // A sweep that skipped every pivot proves all off-diagonal
        // elements are ≤ rot_tol, hence the off-norm is well under `tol`:
        // converged — return without paying another full off-norm pass.
        if rotations == 0 {
            return Ok(sorted(m, v));
        }
    }
    // One final tolerance check before giving up.
    let mut off = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            off += 2.0 * m[(i, j)] * m[(i, j)];
        }
    }
    if off.sqrt() <= tol * 1e3 {
        return Ok(sorted(m, v));
    }
    Err(LinalgError::SweepBudgetExhausted {
        sweeps: MAX_SWEEPS,
        size: n,
        off_mass: off.sqrt(),
        tol,
    })
}

fn sorted(m: Matrix, v: Matrix) -> SymEigen {
    let n = m.rows();
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    order.sort_by(|&a, &b| diag[b].partial_cmp(&diag[a]).unwrap());
    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_j, &old_j) in order.iter().enumerate() {
        for i in 0..n {
            vectors[(i, new_j)] = v[(i, old_j)];
        }
    }
    SymEigen { values, vectors }
}

impl SymEigen {
    /// Reconstruct `V·diag(λ)·Vᵀ` (mainly for testing).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.values.len();
        let mut out = Matrix::zeros(n, n);
        for k in 0..n {
            let col = self.vectors.col(k);
            out.add_outer(self.values[k], &col, &col);
        }
        out
    }

    /// `‖VᵀV − I‖_max` — how far the eigenbasis has drifted from
    /// orthonormality. Exact decompositions sit at round-off (`~1e−15`);
    /// [`SymEigen::decompose`] probes a divide-and-conquer result with it
    /// and falls back to Jacobi once it crosses
    /// [`DecomposeOpts::drift_tol`](crate::DecomposeOpts::drift_tol).
    pub fn orthogonality_drift(&self) -> f64 {
        let n = self.values.len();
        if n == 0 {
            return 0.0;
        }
        self.vectors.gram().max_abs_diff(&Matrix::identity(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = Matrix::from_diag(&[1.0, 5.0, 3.0]);
        let e = sym_eigen(&a).unwrap();
        assert_eq!(e.values, vec![5.0, 3.0, 1.0]);
    }

    #[test]
    fn two_by_two_hand_computed() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1)/√2, (1,-1)/√2.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = sym_eigen(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        let v0 = e.vectors.col(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((v0[0] - v0[1]).abs() < 1e-12); // same sign components
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, -0.5, 0.2],
            vec![1.0, 3.0, 0.7, -0.1],
            vec![-0.5, 0.7, 2.0, 0.4],
            vec![0.2, -0.1, 0.4, 1.5],
        ]);
        let e = sym_eigen(&a).unwrap();
        assert!(e.reconstruct().max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[
            vec![2.0, 0.5, 0.1],
            vec![0.5, 1.0, -0.3],
            vec![0.1, -0.3, 0.7],
        ]);
        let e = sym_eigen(&a).unwrap();
        let vtv = e.vectors.gram();
        assert!(vtv.max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_rows(&[vec![1.0, 0.2], vec![0.2, 0.5]]);
        let e = sym_eigen(&a).unwrap();
        assert!((a.trace() - e.values.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn semidefinite_matrix_has_zero_eigenvalue() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let e = sym_eigen(&a).unwrap();
        assert!((e.values[0] - 2.0).abs() < 1e-12);
        assert!(e.values[1].abs() < 1e-12);
    }

    #[test]
    fn negative_eigenvalues_handled() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let e = sym_eigen(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_untouched() {
        let e = sym_eigen(&Matrix::identity(5)).unwrap();
        assert!(e.values.iter().all(|&v| (v - 1.0).abs() < 1e-14));
    }

    #[test]
    fn empty_matrix_ok() {
        let e = sym_eigen(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
        assert_eq!(e.orthogonality_drift(), 0.0);
    }

    #[test]
    fn larger_random_like_matrix_converges() {
        // Deterministic pseudo-random symmetric matrix.
        let n = 24;
        let mut a = Matrix::zeros(n, n);
        let mut s = 123456789u64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        for i in 0..n {
            for j in i..n {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let e = sym_eigen(&a).unwrap();
        assert!(e.reconstruct().max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn rejects_rectangular_and_nan() {
        assert!(sym_eigen(&Matrix::zeros(2, 3)).is_err());
        let bad = Matrix::from_rows(&[vec![f64::NAN]]);
        assert!(sym_eigen(&bad).is_err());
    }

    /// The pre-early-exit cyclic Jacobi (every pivot above 1e-300 rotated,
    /// convergence checked only at sweep boundaries) — the reference the
    /// thresholded version must agree with.
    fn sym_eigen_reference(a: &Matrix) -> SymEigen {
        let n = a.rows();
        let mut m = a.clone();
        m.symmetrize();
        let mut v = Matrix::identity(n);
        let norm = m.frobenius_norm().max(1e-300);
        let tol = 1e-14 * norm;
        for _sweep in 0..MAX_SWEEPS {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += 2.0 * m[(i, j)] * m[(i, j)];
                }
            }
            if off.sqrt() <= tol {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= 1e-300 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        if k != p && k != q {
                            let mkp = m[(k, p)];
                            let mkq = m[(k, q)];
                            m[(k, p)] = c * mkp - s * mkq;
                            m[(p, k)] = m[(k, p)];
                            m[(k, q)] = s * mkp + c * mkq;
                            m[(q, k)] = m[(k, q)];
                        }
                    }
                    m[(p, p)] = app - t * apq;
                    m[(q, q)] = aqq + t * apq;
                    m[(p, q)] = 0.0;
                    m[(q, p)] = 0.0;
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        sorted(m, v)
    }

    #[test]
    fn early_exit_leaves_eigenpairs_unchanged() {
        // Representative inputs: random dense, covariance-like (SPD),
        // near-diagonal (early-exit fires immediately), and with clustered
        // eigenvalues via the Gram construction.
        let mut s = 42u64;
        let mut next = |scale: f64| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5) * scale
        };
        let mut cases: Vec<Matrix> = Vec::new();
        for n in [4usize, 12, 24] {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in i..n {
                    let x = next(2.0);
                    a[(i, j)] = x;
                    a[(j, i)] = x;
                }
            }
            cases.push(a.clone());
            cases.push(a.gram()); // SPD
            let mut near_diag =
                Matrix::from_fn(n, n, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
            near_diag[(0, n - 1)] = 1e-13;
            near_diag[(n - 1, 0)] = 1e-13;
            cases.push(near_diag);
        }
        for (case, a) in cases.iter().enumerate() {
            let fast = sym_eigen(a).unwrap();
            let slow = sym_eigen_reference(a);
            let norm = a.frobenius_norm().max(1.0);
            for (f, s) in fast.values.iter().zip(&slow.values) {
                assert!(
                    (f - s).abs() <= 1e-12 * norm,
                    "case {case}: eigenvalue {f} vs {s}"
                );
            }
            assert!(
                fast.reconstruct().max_abs_diff(a) <= 1e-10 * norm,
                "case {case}: reconstruction drifted"
            );
            let vtv = fast.vectors.gram();
            assert!(
                vtv.max_abs_diff(&Matrix::identity(a.rows())) < 1e-10,
                "case {case}: eigenvectors not orthonormal"
            );
        }
    }
}
