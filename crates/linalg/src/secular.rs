//! The diagonal-plus-rank-1 symmetric eigenproblem `D + ρ·z·zᵀ`.
//!
//! This is the inner kernel of the merge step of the tridiagonal
//! divide-and-conquer solver ([`crate::eigen_dc`]): after splitting `T` on
//! an off-diagonal element, the two halves' eigendecompositions combine
//! into exactly this problem with `ρ` the split coupling.
//!
//! Its eigenvalues are the roots of the *secular equation*
//! `f(λ) = 1 + ρ·Σᵢ zᵢ²/(dᵢ − λ) = 0`, one root strictly interlaced in
//! each gap of the (deflated) spectrum. The machinery here is deflation,
//! the two-pole-initialized safeguarded Newton, and the negated-problem
//! path for `ρ < 0`.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector;
use crate::Result;

/// Components with `|zᵢ| ≤ Z_DEFLATE_REL·‖z‖` are deflated: dropping them
/// perturbs the updated matrix by `|ρ|·zᵢ²`, i.e. by a factor ≤ 1e−28 of
/// the update's own norm — far below every downstream tolerance.
pub(crate) const Z_DEFLATE_REL: f64 = 1e-14;

/// Eigenvalues closer than `EQ_TOL_REL` *relative to their own magnitude*
/// are treated as repeated and merged by rotation. The tolerance is
/// pairwise-relative (not relative to the spectral radius) so that a
/// spectrum mixing collapsed `~1e12` directions with `~1` directions does
/// not get its small eigenvalues smeared together.
pub(crate) const EQ_TOL_REL: f64 = 1e-12;

/// Hard cap on secular Newton/bisection steps per root (the bracket
/// halves at least every other step, so 200 is unreachable in practice).
const MAX_SECULAR_ITERS: usize = 200;

/// Solve `D + ρ·z·zᵀ` expressed in an explicit basis: `v` holds (as
/// columns) the vectors paired with the **ascending** diagonal `d`, and is
/// updated in place so its columns pair with the returned eigenvalues
/// (also ascending). `z` is consumed as scratch by the deflation pass.
///
/// Returns `Ok(None)` when the update deflates away entirely (`ρ = 0`,
/// `z = 0`, or every component below the deflation threshold): `v` is
/// untouched and the eigenvalues are `d` unchanged. Otherwise returns the
/// new ascending eigenvalues with `v` rewritten.
///
/// Deflation handles the two classical degenerate cases first: components
/// with `zᵢ ≈ 0` (that eigenpair is untouched by the update) and repeated
/// eigenvalues, collapsed onto one representative by Givens rotations
/// inside the eigenspace (applied directly to the columns of `v`).
pub(crate) fn diag_plus_rank1_in_basis(
    d: &[f64],
    z: &mut [f64],
    rho: f64,
    v: &mut Matrix,
) -> Result<Option<Vec<f64>>> {
    let n = d.len();
    debug_assert_eq!(z.len(), n);
    debug_assert_eq!(v.cols(), n);
    if n == 0 || rho == 0.0 {
        return Ok(None);
    }
    let znorm2 = vector::norm2_sq(z);
    if znorm2 == 0.0 {
        return Ok(None);
    }

    // Deflation pass: collapse repeated eigenvalues. Scanning the
    // *non-deflated* predecessors chains groups correctly even when
    // near-equal entries are separated by already-negligible ones.
    let z_tol = Z_DEFLATE_REL * znorm2.sqrt();
    let mut last_nd: Option<usize> = None;
    for k in 0..n {
        if z[k].abs() <= z_tol {
            continue;
        }
        if let Some(p) = last_nd {
            let scale = d[k].abs().max(d[p].abs());
            if (d[k] - d[p]).abs() <= EQ_TOL_REL * scale {
                // Givens rotation in the (p, k) eigenplane zeroing
                // z[p]: new v_p = c·v_p − s·v_k, v_k = s·v_p + c·v_k.
                let r = z[p].hypot(z[k]);
                let (c, s) = (z[k] / r, z[p] / r);
                rotate_columns(v, p, k, c, s);
                z[p] = 0.0;
                z[k] = r;
            }
        }
        if z[k].abs() > z_tol {
            last_nd = Some(k);
        }
    }

    // Partition into deflated (eigenpair untouched) and active.
    let nd: Vec<usize> = (0..n).filter(|&k| z[k].abs() > z_tol).collect();
    let m = nd.len();
    if m == 0 {
        return Ok(None);
    }
    let d_nd: Vec<f64> = nd.iter().map(|&k| d[k]).collect();
    let z_nd: Vec<f64> = nd.iter().map(|&k| z[k]).collect();
    let (new_vals, q) = solve_diag_plus_rank1(&d_nd, &z_nd, rho)?;

    // Map the active vectors back to the caller's basis in one blocked
    // rank-m product W = V[:, nd] · Q read directly from the selected
    // columns (no materialized sub-matrix).
    let w_new = v.matmul_select_cols(&nd, &q);

    // Merge (deflated ascending) ∪ (updated ascending) by value —
    // deterministic, no comparison-sort needed.
    let rows = v.rows();
    let mut active = vec![false; n];
    for &k in &nd {
        active[k] = true;
    }
    let mut values = Vec::with_capacity(n);
    let mut vectors = Matrix::zeros(rows, n);
    let mut defl = (0..n).filter(|&k| !active[k]).peekable();
    let mut upd = (0..m).peekable();
    for slot in 0..n {
        let take_defl = match (defl.peek(), upd.peek()) {
            (Some(&k), Some(&j)) => d[k] <= new_vals[j],
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_defl {
            let k = defl.next().unwrap();
            values.push(d[k]);
            for i in 0..rows {
                vectors[(i, slot)] = v[(i, k)];
            }
        } else {
            let j = upd.next().unwrap();
            values.push(new_vals[j]);
            for i in 0..rows {
                vectors[(i, slot)] = w_new[(i, j)];
            }
        }
    }
    *v = vectors;
    Ok(Some(values))
}

/// Eigendecomposition of the fully deflated problem: `d` strictly
/// increasing and every `zᵢ` above the deflation threshold. Returns the
/// `m` new eigenvalues (ascending) and the `m×m` eigenvector coefficients
/// in the deflated basis (column `j` pairs with value `j`).
pub(crate) fn solve_diag_plus_rank1(d: &[f64], z: &[f64], rho: f64) -> Result<(Vec<f64>, Matrix)> {
    let m = d.len();
    if m == 1 {
        // 1×1 problem: exact closed form, eigenvector unchanged.
        return Ok((vec![d[0] + rho * z[0] * z[0]], Matrix::identity(1)));
    }
    if rho > 0.0 {
        solve_secular_system(d, z, rho)
    } else {
        // ρ < 0: negate the problem (−A' = (−D) + (−ρ)zzᵀ keeps
        // −ρ > 0; eigenvalues negate, ascending order reverses).
        let d_neg: Vec<f64> = d.iter().rev().map(|&x| -x).collect();
        let z_neg: Vec<f64> = z.iter().rev().copied().collect();
        let (vals_neg, q_neg) = solve_secular_system(&d_neg, &z_neg, -rho)?;
        let vals: Vec<f64> = vals_neg.iter().rev().map(|&x| -x).collect();
        // Un-reverse both index axes of the eigenvector coefficients.
        let q = Matrix::from_fn(m, m, |i, j| q_neg[(m - 1 - i, m - 1 - j)]);
        Ok((vals, q))
    }
}

/// Rotate columns `p, q` of `v`: `v_p ← c·v_p − s·v_q`, `v_q ← s·v_p + c·v_q`.
fn rotate_columns(v: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    for i in 0..v.rows() {
        let vp = v[(i, p)];
        let vq = v[(i, q)];
        v[(i, p)] = c * vp - s * vq;
        v[(i, q)] = s * vp + c * vq;
    }
}

/// Solve the full secular system for `D + ρzzᵀ` with `ρ > 0`, `d` strictly
/// increasing (post-deflation) and every `zᵢ ≠ 0`: returns the `m` new
/// eigenvalues (ascending) and the `m×m` matrix of eigenvector
/// coefficients in the deflated basis (column `j` pairs with value `j`).
fn solve_secular_system(d: &[f64], z: &[f64], rho: f64) -> Result<(Vec<f64>, Matrix)> {
    let m = d.len();
    let znorm2 = vector::norm2_sq(z);
    let mut vals = Vec::with_capacity(m);
    let mut roots = Vec::with_capacity(m);
    let mut delta = vec![0.0; m];
    for j in 0..m {
        // Root j lives strictly inside (d_j, d_{j+1}); the last one inside
        // (d_m, d_m + ρ‖z‖²] by the trace bound.
        let (b, b_is_pole) = if j + 1 < m {
            (d[j + 1], true)
        } else {
            (d[m - 1] + rho * znorm2, false)
        };
        let root = secular_root(d, z, rho, j, b, b_is_pole, &mut delta)?;
        vals.push(root.shift + root.mu);
        roots.push(root);
    }
    // Eigenvector coefficients: vᵢ ∝ zᵢ / (dᵢ − λ), evaluated in the
    // root's pole-shifted form (dᵢ − shift) − μ to avoid cancellation.
    let mut q = Matrix::zeros(m, m);
    for (j, root) in roots.iter().enumerate() {
        let mut norm2 = 0.0;
        for i in 0..m {
            let denom = (d[i] - root.shift) - root.mu;
            let v = z[i] / denom;
            q[(i, j)] = v;
            norm2 += v * v;
        }
        let inv = 1.0 / norm2.sqrt();
        for i in 0..m {
            q[(i, j)] *= inv;
        }
    }
    Ok((vals, q))
}

/// A secular root expressed as `λ = shift + μ`, with `shift` the nearer
/// bracketing pole — kept split so `dᵢ − λ` can be evaluated without
/// cancellation when `λ` hugs a pole.
#[derive(Debug, Clone, Copy)]
struct SecularRoot {
    shift: f64,
    mu: f64,
}

/// Safeguarded Newton for root `j` of the secular function, over the open
/// interval `(d_j, b)`: the bracket only ever shrinks, Newton steps that
/// would leave it are replaced by bisection, and every evaluation uses
/// precomputed pole distances `delta_i = d_i − shift` so `f` stays
/// accurate arbitrarily close to the bracketing poles. `f` is strictly
/// increasing on the interval (ρ > 0), from `−∞` at `d_j⁺` to `+∞` at
/// `b⁻` (or to `f(b) ≥ 0` when `b` is the trace-bound endpoint of the
/// open last interval, `b_is_pole = false`).
///
/// The iteration starts from the root of the two-pole rational model
/// `C + p/(d_j − λ) + q/(b − λ)` — the bracketing terms kept exact, the
/// rest frozen at the midpoint sample `C` (the dlaed4 idea) — which lands
/// within a few percent of the true root, so the Newton phase typically
/// finishes in a handful of iterations instead of a bisection-like crawl.
#[allow(clippy::too_many_arguments)]
fn secular_root(
    d: &[f64],
    z: &[f64],
    rho: f64,
    j: usize,
    b: f64,
    b_is_pole: bool,
    delta: &mut [f64],
) -> Result<SecularRoot> {
    let a = d[j];
    let g = b - a;
    if !(g.is_finite() && g > 0.0) {
        return Err(LinalgError::ConvergenceFailure { sweeps: 0 });
    }
    // One midpoint sample decides which pole to shift from (the root sits
    // in the half where f changes sign) and anchors the rational model.
    let half = 0.5 * g;
    for (dst, &di) in delta.iter_mut().zip(d) {
        *dst = di - a;
    }
    let f_mid = secular_f(delta, z, rho, half).0;
    let p = rho * z[j] * z[j];
    let q = if b_is_pole {
        rho * z[j + 1] * z[j + 1]
    } else {
        0.0
    };
    // The model's non-bracketing mass, recovered from the midpoint sample
    // (at λ_mid: d_j − λ = −half, b − λ = +half).
    let c = f_mid + p / half - q / half;
    // (shift, lo, hi) with f(lo) ≤ 0 ≤ f(hi) in μ-space, and the model
    // root as the starting point (clamped to the bracket's interior).
    let (shift, lo_init, hi_init, guess) = if f_mid >= 0.0 {
        // Root in (a, mid]: smaller root of Cμ² − (Cg+p+q)μ + pg = 0 in
        // the numerically stable divide-by-the-large-root form.
        let bq = c * g + p + q;
        let disc = (bq * bq - 4.0 * c * p * g).max(0.0);
        let mu = 2.0 * p * g / (bq + disc.sqrt());
        (a, 0.0, half, mu)
    } else if q > 0.0 {
        // Root in (mid, b): in ν = λ − b the model reads
        // Cν² − (Cg − p − q)ν − qg = 0; take its negative root.
        let bq = c * g - p - q;
        let disc = (bq * bq + 4.0 * c * q * g).max(0.0);
        let nu = -2.0 * q * g / (disc.sqrt() - bq);
        (b, -half, 0.0, nu)
    } else {
        // Last interval (b not a pole): C − p/(g + ν) = 0.
        let nu = if c > 0.0 { p / c - g } else { f64::NAN };
        (b, -half, 0.0, nu)
    };
    if shift != a {
        for (dst, &di) in delta.iter_mut().zip(d) {
            *dst = di - b;
        }
    }
    let (mut lo, mut hi) = (lo_init, hi_init);
    let mut mu = if guess.is_finite() && guess > lo && guess < hi {
        guess
    } else {
        0.5 * (lo + hi)
    };
    for _ in 0..MAX_SECULAR_ITERS {
        let (f, fp, fabs) = secular_f(delta, z, rho, mu);
        // Resolution-limited: |f| indistinguishable from round-off of its
        // own terms.
        if f == 0.0 || f.abs() <= 1e-14 * fabs {
            break;
        }
        if f > 0.0 {
            hi = mu;
        } else {
            lo = mu;
        }
        let step = -f / fp;
        let mut next = mu + step;
        if !next.is_finite() || next <= lo || next >= hi {
            next = 0.5 * (lo + hi);
        }
        let span = (hi - lo).abs();
        if span <= 1e-15 * (shift.abs() + mu.abs()) + f64::MIN_POSITIVE || next == mu {
            break;
        }
        mu = next;
    }
    // Never return a pole itself (μ = 0 would make the eigenvector
    // formula divide by zero); nudge inside the bracket.
    if mu == 0.0 {
        mu = 0.5 * (lo + hi);
        if mu == 0.0 {
            // Bracket collapsed exactly onto the pole: unresolvable here,
            // let the caller recompute from scratch.
            return Err(LinalgError::ConvergenceFailure { sweeps: 0 });
        }
    }
    Ok(SecularRoot { shift, mu })
}

/// Secular function at `λ = shift + μ` given precomputed pole distances
/// `delta_i = d_i − shift` (exact when `shift` is one of the `d_i`):
/// returns `(f, f′, Σ|terms|)`.
fn secular_f(delta: &[f64], z: &[f64], rho: f64, mu: f64) -> (f64, f64, f64) {
    let mut f = 1.0;
    let mut fp = 0.0;
    let mut fabs = 1.0;
    for (&dl, &zi) in delta.iter().zip(z) {
        let r = zi / (dl - mu);
        let term = rho * zi * r;
        f += term;
        fabs += term.abs();
        fp += rho * r * r;
    }
    (f, fp, fabs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::{sym_eigen, SymEigen};

    #[test]
    fn closed_form_single_component() {
        let (vals, q) = solve_diag_plus_rank1(&[2.0], &[3.0], 0.5).unwrap();
        assert_eq!(vals, vec![2.0 + 0.5 * 9.0]);
        assert_eq!(q, Matrix::identity(1));
    }

    #[test]
    fn secular_values_interlace() {
        let d = [0.0, 1.0, 2.0, 5.0];
        let z = [0.5, 0.5, 0.5, 0.5];
        let (vals, _) = solve_diag_plus_rank1(&d, &z, 1.0).unwrap();
        for j in 0..d.len() {
            assert!(vals[j] > d[j], "root {j} below its pole");
            if j + 1 < d.len() {
                assert!(vals[j] < d[j + 1], "root {j} above the next pole");
            }
        }
        // Trace is preserved: Σλ = Σd + ρ‖z‖².
        let trace: f64 = vals.iter().sum();
        let expect: f64 = d.iter().sum::<f64>() + 1.0;
        assert!((trace - expect).abs() < 1e-12);
    }

    #[test]
    fn negative_rho_reflects_the_problem() {
        let d = [1.0, 2.0, 4.0];
        let z = [0.3, 0.4, 0.5];
        let (vals, q) = solve_diag_plus_rank1(&d, &z, -0.8).unwrap();
        // Ascending, interlaced from below: d_j − |ρ|‖z‖² < λ_j < d_j.
        for j in 0..d.len() {
            assert!(vals[j] < d[j]);
            if j > 0 {
                assert!(vals[j] > d[j - 1]);
            }
        }
        // Columns are unit vectors.
        for j in 0..3 {
            let n2: f64 = (0..3).map(|i| q[(i, j)] * q[(i, j)]).sum();
            assert!((n2 - 1.0).abs() < 1e-12);
        }
    }

    /// Solve `diag(d) + ρ·z·zᵀ` in the identity basis (`d` ascending)
    /// and check it against a cyclic Jacobi solve of the explicit matrix:
    /// each eigenvalue within `tol` relative to its own magnitude, the
    /// basis orthonormal and reconstructing the matrix. Returns the
    /// solution, eigenvalues ascending.
    fn check_against_jacobi(d: &[f64], z: &[f64], rho: f64, tol: f64) -> SymEigen {
        let n = d.len();
        let mut target = Matrix::from_diag(d);
        target.add_outer(rho, z, z);
        let mut vectors = Matrix::identity(n);
        let values = diag_plus_rank1_in_basis(d, &mut z.to_vec(), rho, &mut vectors)
            .unwrap()
            .unwrap_or_else(|| d.to_vec());
        let jacobi = sym_eigen(&target).unwrap();
        for (k, (got, want)) in values.iter().rev().zip(&jacobi.values).enumerate() {
            assert!(
                (got - want).abs() <= tol * want.abs().max(1.0),
                "eigenvalue {k}: {got} vs Jacobi {want}"
            );
        }
        let eig = SymEigen { values, vectors };
        let scale = target.frobenius_norm().max(1.0);
        let recon = eig.reconstruct().max_abs_diff(&target);
        assert!(recon <= tol * scale, "V·Λ·Vᵀ off by {recon}");
        assert!(eig.orthogonality_drift() <= tol, "basis drift");
        eig
    }

    #[test]
    fn full_deflation_reports_noop() {
        let d = [1.0, 2.0, 3.0];
        for (mut z, rho) in [([0.0, 0.0, 0.0], 1.0), ([0.5, -1.0, 2.0], 0.0)] {
            let mut v = Matrix::identity(3);
            let out = diag_plus_rank1_in_basis(&d, &mut z, rho, &mut v).unwrap();
            assert!(out.is_none());
            assert_eq!(v, Matrix::identity(3));
        }
    }

    #[test]
    fn repeated_eigenvalues_deflate_by_rotation() {
        // D = I: the update has eigenvalue 1 + ρ‖z‖² along z and 1 elsewhere.
        let d = [1.0, 1.0, 1.0];
        let mut z = [0.6, 0.0, 0.8];
        let mut v = Matrix::identity(3);
        let vals = diag_plus_rank1_in_basis(&d, &mut z, 2.0, &mut v)
            .unwrap()
            .unwrap();
        assert!((vals[0] - 1.0).abs() < 1e-14);
        assert!((vals[1] - 1.0).abs() < 1e-14);
        assert!((vals[2] - 3.0).abs() < 1e-12);
        // Basis stays orthonormal through the Givens rotations.
        assert!(v.gram().max_abs_diff(&Matrix::identity(3)) < 1e-12);

        // Partially repeated spectrum: two groups collapse, 9 stands alone.
        let d = [2.0, 2.0, 2.0, 5.0, 5.0, 9.0];
        let z = [0.5, -0.25, 0.125, 1.0, -0.5, 0.75];
        check_against_jacobi(&d, &z, 1.5, 1e-10);
    }

    #[test]
    fn zero_component_leaves_its_pair_bit_for_bit() {
        // z₁ = 0 deflates: the pair (3, e₁) must survive exactly.
        let eig = check_against_jacobi(&[1.0, 3.0, 7.0], &[2.0, 0.0, -1.0], 0.9, 1e-10);
        let pos = eig
            .values
            .iter()
            .position(|&v| v == 3.0)
            .expect("deflated eigenvalue must survive exactly");
        assert_eq!(eig.vectors.col(pos), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn tiny_rho_matches_jacobi() {
        let d = [0.3, 0.9, 1.4, 2.2, 3.1];
        let z = [0.4, -0.2, 0.35, -0.1, 0.25];
        check_against_jacobi(&d, &z, 1e-13, 1e-10);
    }

    #[test]
    fn wide_spread_keeps_small_eigenvalues_accurate() {
        // A collapsed-direction-style spectrum (1e10 beside O(1), as
        // clamped zero-variance constraints produce) must not smear the
        // small eigenvalues through scale-absolute tolerances: the helper
        // checks each eigenvalue relative to its own magnitude.
        let d = [0.7, 1.0, 1.3, 1.9, 2.6, 1e10];
        let z = [0.3, -0.4, 0.2, 0.45, -0.15, 0.25];
        check_against_jacobi(&d, &z, 0.5, 1e-8);
    }
}
