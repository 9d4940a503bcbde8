//! Householder tridiagonalization of a symmetric matrix.
//!
//! `A = Q·T·Qᵀ` with `T` symmetric tridiagonal and `Q` orthogonal — the
//! front half of the divide-and-conquer eigensolver ([`crate::eigen_dc`]).
//! Each step reflects one column's below-subdiagonal entries to zero and
//! applies the similarity transform to the trailing block via the
//! symmetric rank-2 update `A ← A − v·wᵀ − w·vᵀ` (Golub & Van Loan §8.3):
//! `O(n³)` total with a small constant, against Jacobi's
//! `O(n³ · sweeps)`. All inner loops run over contiguous row slices with
//! scratch buffers allocated once up front, so they auto-vectorize and
//! stay allocation-free.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector;
use crate::Result;

/// The factorization `A = Q·T·Qᵀ` of a symmetric matrix: `T` is stored as
/// its diagonal and subdiagonal, `Q` is explicit and orthogonal.
#[derive(Debug, Clone)]
pub struct Tridiagonal {
    /// Diagonal of `T` (`n` entries).
    pub diag: Vec<f64>,
    /// Subdiagonal of `T` (`n − 1` entries; `off[k] = T[k+1, k]`).
    pub off: Vec<f64>,
    /// Orthogonal `n × n` basis: `A = Q·T·Qᵀ`.
    pub q: Matrix,
}

impl Tridiagonal {
    /// Reconstruct the dense tridiagonal `T`.
    #[cfg(test)]
    fn dense_t(&self) -> Matrix {
        let n = self.diag.len();
        let mut t = Matrix::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = self.diag[i];
        }
        for k in 0..n.saturating_sub(1) {
            t[(k + 1, k)] = self.off[k];
            t[(k, k + 1)] = self.off[k];
        }
        t
    }
}

/// Reduce a symmetric matrix to tridiagonal form by Householder
/// reflections, accumulating the reflectors into an explicit orthogonal
/// `Q` (backward accumulation, so early columns — identity by then — are
/// never touched).
///
/// The input is symmetrized internally to iron out round-off asymmetry,
/// like [`crate::sym_eigen`].
///
/// # Errors
///
/// [`LinalgError::NotSquare`] / [`LinalgError::NotFinite`] on malformed
/// input; the reduction itself is direct (no iteration) and cannot fail.
pub fn tridiagonalize(a: &Matrix) -> Result<Tridiagonal> {
    a.require_square()?;
    if !a.is_finite() {
        return Err(LinalgError::NotFinite);
    }
    let n = a.rows();
    let mut m = a.clone();
    m.symmetrize();
    if n <= 2 {
        // Already tridiagonal.
        return Ok(Tridiagonal {
            diag: (0..n).map(|i| m[(i, i)]).collect(),
            off: (0..n.saturating_sub(1)).map(|k| m[(k + 1, k)]).collect(),
            q: Matrix::identity(n),
        });
    }

    // Row k of `hh` holds reflector k's vector v over columns k+1..n
    // (unnormalized: v = x − α·e₁); `betas[k] = 2/vᵀv`.
    let mut hh = Matrix::zeros(n - 2, n);
    let mut betas = vec![0.0; n - 2];
    let mut off = vec![0.0; n - 1];
    let mut p = vec![0.0; n];
    let mut w = vec![0.0; n];

    for k in 0..n - 2 {
        // x = A[k+1.., k], the column slab to annihilate below the
        // subdiagonal.
        let mut sigma = 0.0;
        for i in k + 1..n {
            let x = m[(i, k)];
            hh[(k, i)] = x;
            if i > k + 1 {
                sigma += x * x;
            }
        }
        let x0 = hh[(k, k + 1)];
        if sigma == 0.0 {
            // Nothing below the subdiagonal: the reflector degenerates to
            // the identity and the column passes through unchanged.
            off[k] = x0;
            hh[(k, k + 1)] = 0.0;
            continue;
        }
        let mu = (x0 * x0 + sigma).sqrt();
        // α = −sign(x₀)·‖x‖ keeps v₀ = x₀ − α free of cancellation.
        let alpha = if x0 >= 0.0 { -mu } else { mu };
        hh[(k, k + 1)] = x0 - alpha;
        // vᵀv = 2(μ² − α·x₀); both terms are non-negative by the sign
        // choice above.
        let beta = 1.0 / (mu * mu - alpha * x0);
        betas[k] = beta;
        off[k] = alpha;

        // Symmetric rank-2 similarity on the trailing block
        // A₂ ← A₂ − v·wᵀ − w·vᵀ with p = β·A₂·v, w = p − (β·vᵀp/2)·v.
        let v = &hh.row(k)[k + 1..];
        for i in k + 1..n {
            p[i] = beta * vector::dot(&m.row(i)[k + 1..], v);
        }
        let kscal = 0.5 * beta * vector::dot(&p[k + 1..n], v);
        for i in k + 1..n {
            w[i] = p[i] - kscal * hh[(k, i)];
        }
        for i in k + 1..n {
            let vi = hh[(k, i)];
            let wi = w[i];
            let row = &mut m.row_mut(i)[k + 1..n];
            for (j, dst) in row.iter_mut().enumerate() {
                let jj = k + 1 + j;
                *dst -= vi * w[jj] + wi * hh[(k, jj)];
            }
        }
    }
    let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    off[n - 2] = m[(n - 1, n - 2)];

    // Backward accumulation of Q = H₀·H₁·…·H_{n−3}: at step k the
    // current product is the identity outside the trailing block, so
    // each reflector only touches rows/columns k+1..n.
    let mut q = Matrix::identity(n);
    let mut s = vec![0.0; n];
    for k in (0..n - 2).rev() {
        let beta = betas[k];
        if beta == 0.0 {
            continue;
        }
        // s = vᵀ·Q over the active block.
        s[k + 1..n].fill(0.0);
        for i in k + 1..n {
            let vi = hh[(k, i)];
            if vi == 0.0 {
                continue;
            }
            vector::axpy(vi, &q.row(i)[k + 1..], &mut s[k + 1..n]);
        }
        // Q ← Q − β·v·sᵀ, row-wise over contiguous slices.
        for i in k + 1..n {
            let bvi = beta * hh[(k, i)];
            if bvi == 0.0 {
                continue;
            }
            let row = &mut q.row_mut(i)[k + 1..];
            for (dst, &sj) in row.iter_mut().zip(&s[k + 1..n]) {
                *dst -= bvi * sj;
            }
        }
    }

    Ok(Tridiagonal { diag, off, q })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_sym(n: usize, seed: u64, scale: f64) -> Matrix {
        let mut s = seed;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5) * scale
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    #[test]
    fn reconstructs_the_input() {
        for (n, seed) in [(3usize, 7u64), (8, 11), (17, 13), (40, 17)] {
            let a = lcg_sym(n, seed, 2.0);
            let t = tridiagonalize(&a).unwrap();
            let rebuilt = t.q.matmul(&t.dense_t()).matmul(&t.q.transpose());
            let norm = a.frobenius_norm().max(1.0);
            assert!(
                rebuilt.max_abs_diff(&a) < 1e-12 * norm,
                "n={n}: ‖QTQᵀ − A‖ = {}",
                rebuilt.max_abs_diff(&a)
            );
        }
    }

    #[test]
    fn q_is_orthogonal() {
        let a = lcg_sym(23, 5, 3.0);
        let t = tridiagonalize(&a).unwrap();
        let qtq = t.q.gram();
        assert!(qtq.max_abs_diff(&Matrix::identity(23)) < 1e-13);
    }

    #[test]
    fn small_matrices_pass_through() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let t = tridiagonalize(&a).unwrap();
        assert_eq!(t.diag, vec![2.0, 3.0]);
        assert_eq!(t.off, vec![1.0]);
        assert_eq!(t.q, Matrix::identity(2));
        let e = tridiagonalize(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.diag.is_empty() && e.off.is_empty());
    }

    #[test]
    fn already_tridiagonal_input_stays_put() {
        // Zero sub-columns make every reflector degenerate.
        let mut a = Matrix::zeros(6, 6);
        for i in 0..6 {
            a[(i, i)] = i as f64 + 1.0;
        }
        for i in 0..5 {
            a[(i + 1, i)] = 0.5;
            a[(i, i + 1)] = 0.5;
        }
        let t = tridiagonalize(&a).unwrap();
        assert_eq!(t.q, Matrix::identity(6));
        assert_eq!(t.diag, (0..6).map(|i| i as f64 + 1.0).collect::<Vec<_>>());
        assert_eq!(t.off, vec![0.5; 5]);
    }

    #[test]
    fn rejects_rectangular_and_nan() {
        assert!(tridiagonalize(&Matrix::zeros(2, 3)).is_err());
        let bad = Matrix::from_rows(&[vec![f64::NAN]]);
        assert!(tridiagonalize(&bad).is_err());
    }
}
