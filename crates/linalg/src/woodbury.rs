//! Sherman–Morrison rank-1 updates.
//!
//! The MaxEnt optimizer adds `λ·w·wᵀ` to a precision matrix at every
//! quadratic-constraint update (paper Eq. 10 discussion). Keeping the dual
//! covariance in sync would cost `O(d³)` with an explicit inverse; the
//! Sherman–Morrison identity
//!
//! `(P + λwwᵀ)⁻¹ = Σ − λ·(Σw)(Σw)ᵀ / (1 + λ·wᵀΣw)`
//!
//! does it in `O(d²)` — the paper's headline speed-up.
//!
//! Every update here writes its rank-1 term row by row through one
//! private row kernel, `0.5·((s_ij + a_i·u_j) + (s_ij + a_j·u_i))` with
//! `a = α·u`, which keeps the matrix exactly symmetric. On a full matrix
//! ([`apply`], [`precision_update`]) that pass equals `add_outer`
//! followed by `symmetrize` bit for bit when the input is exactly
//! symmetric, finite and free of `-0.0` entries, and no doubled sum
//! overflows. The MaxEnt solver's `Σ` and `P` start at `I` and change only
//! through these functions, so they keep that shape: under
//! round-to-nearest, an IEEE sum is `-0.0` only when both operands are,
//! and the symmetric average halves a sum to `-0.0` only when that sum is
//! the smallest negative subnormal.
//!
//! The solver's quadratic update uses two variants of the same pass:
//!
//! - [`apply_with_mean`] is the fused pass: it writes each new row of `Σ`
//!   and adds `h_k·row_k` into the mean `m`, so `m = Σh` comes out of the
//!   same pass over `Σ` instead of a second one. The new `Σ` is exactly
//!   symmetric, so this column-form sum equals `Σ.matvec(h)` bit for bit.
//! - [`precision_update_upper`] writes only the upper triangle of `P`.
//!   Inside a sweep nothing reads `P`, so its lower triangle is stale
//!   there; the solver mirrors the upper triangle down
//!   (`Matrix::mirror_upper`) before a sweep returns, which equals the
//!   full [`precision_update`] bit for bit.

use crate::matrix::Matrix;
use crate::vector;

/// Result of preparing a rank-1 update of `Σ = P⁻¹` for direction `w`.
#[derive(Debug, Clone)]
pub struct Rank1 {
    /// `g = Σ·w`.
    pub g: Vec<f64>,
    /// `c = wᵀ·Σ·w = wᵀg` (non-negative for PSD Σ).
    pub c: f64,
}

/// Compute `g = Σw` and `c = wᵀΣw` for a symmetric `Σ`.
pub fn prepare(sigma: &Matrix, w: &[f64]) -> Rank1 {
    let g = sigma.matvec(w);
    let c = vector::dot(w, &g);
    Rank1 { g, c }
}

/// Smallest admissible `λ` keeping `1 + λc > 0` (with a safety margin), i.e.
/// keeping the updated precision positive definite along `w`.
pub fn lambda_lower_bound(c: f64) -> f64 {
    if c <= 0.0 {
        f64::NEG_INFINITY
    } else {
        -1.0 / c * (1.0 - 1e-9)
    }
}

/// Apply the Sherman–Morrison update in place:
/// `Σ ← Σ − λ·g·gᵀ/(1 + λc)` where `g, c` come from [`prepare`].
///
/// Precondition for bit-identity with `add_outer` + `symmetrize`: `Σ` is
/// exactly symmetric, finite and has no `-0.0` entry (module docs).
///
/// # Panics
/// Panics (in debug builds) if `1 + λc ≤ 0`, which would make the updated
/// matrix indefinite.
pub fn apply(sigma: &mut Matrix, r: &Rank1, lambda: f64) {
    let denom = 1.0 + lambda * r.c;
    debug_assert!(
        denom > 0.0,
        "sherman-morrison: 1 + λc = {denom} not positive"
    );
    if lambda == 0.0 {
        return;
    }
    sym_rank1_update(sigma, -lambda / denom, &r.g);
}

/// [`apply`] fused with the mean refresh: `Σ ← Σ − λ·g·gᵀ/(1 + λc)`, then
/// `m ← Σh` on the new `Σ`, in one pass over `Σ`. `g = Σw` and `c = wᵀΣw`
/// are borrowed (a [`Rank1`]'s fields, or a caller's scratch), and `a` is
/// a `d`-vector the pass overwrites with `α·g`, so it allocates nothing.
///
/// Each row `k` is written by the row kernel of [`apply`] and `h_k·row_k`
/// is then added into `m`, which starts at `-0.0`. The new `Σ` is exactly
/// symmetric, so `m_i = Σ_k Σ_ki·h_k` in ascending `k` equals
/// `Σ.matvec(h)` bit for bit: under the precondition of [`apply`], the
/// result equals [`apply`] followed by `matvec_into(h, m)`.
///
/// # Panics
/// Panics if `Σ` is not square or a length differs, and (in debug
/// builds) if `1 + λc ≤ 0`, as [`apply`] does.
pub fn apply_with_mean(
    sigma: &mut Matrix,
    g: &[f64],
    c: f64,
    lambda: f64,
    h: &[f64],
    m: &mut [f64],
    a: &mut [f64],
) {
    assert!(sigma.is_square(), "apply_with_mean: matrix not square");
    assert_eq!(sigma.rows(), g.len(), "apply_with_mean: g length");
    assert_eq!(sigma.rows(), h.len(), "apply_with_mean: h length");
    assert_eq!(sigma.rows(), m.len(), "apply_with_mean: m length");
    assert_eq!(sigma.rows(), a.len(), "apply_with_mean: a length");
    let denom = 1.0 + lambda * c;
    debug_assert!(
        denom > 0.0,
        "sherman-morrison: 1 + λc = {denom} not positive"
    );
    if lambda == 0.0 {
        sigma.sym_matvec_into(h, m);
        return;
    }
    let alpha = -lambda / denom;
    for (ak, &gk) in a.iter_mut().zip(g) {
        *ak = alpha * gk;
    }
    m.fill(-0.0);
    for (k, ((&gk, &hk), &ak)) in g.iter().zip(h).zip(&*a).enumerate() {
        let row = sigma.row_mut(k);
        rank1_row(row, ak, gk, g, a);
        vector::axpy(hk, row, m);
    }
}

/// Rank-1 update of the precision itself: `P ← P + λ·w·wᵀ`.
///
/// Precondition for bit-identity with `add_outer` + `symmetrize`: `P` is
/// exactly symmetric, finite and has no `-0.0` entry (module docs).
pub fn precision_update(prec: &mut Matrix, w: &[f64], lambda: f64) {
    sym_rank1_update(prec, lambda, w);
}

/// [`precision_update`] on the upper triangle only: entries `(i, j)` with
/// `j ≥ i` get their new values, the lower triangle keeps its old ones.
/// Row `i` of the upper triangle reads only its own entries, so after
/// `prec.mirror_upper()` the matrix equals [`precision_update`]'s bit for
/// bit, under the same precondition. `a` is a `d`-vector the update
/// overwrites with `λ·w`.
pub fn precision_update_upper(prec: &mut Matrix, w: &[f64], lambda: f64, a: &mut [f64]) {
    assert!(
        prec.is_square(),
        "precision_update_upper: matrix not square"
    );
    assert_eq!(prec.rows(), w.len(), "precision_update_upper: w length");
    assert_eq!(prec.rows(), a.len(), "precision_update_upper: a length");
    for (ak, &wk) in a.iter_mut().zip(w) {
        *ak = lambda * wk;
    }
    for (i, &wi) in w.iter().enumerate() {
        rank1_row(&mut prec.row_mut(i)[i..], a[i], wi, &w[i..], &a[i..]);
    }
}

/// `s ← s + α·u·uᵀ`, symmetrized, in one row-major pass of [`rank1_row`].
///
/// Row `i` reads only its own entries, which stand in for column `i` by
/// exact symmetry, so the strided pass of `symmetrize` disappears. On an
/// exactly symmetric input with no `-0.0` entry, where every value
/// involved (doubled sums included) is finite, this equals
/// `add_outer(α, u, u)` + `symmetrize()` bit for bit:
/// - off the diagonal, IEEE addition is commutative, and the
///   `s_ij + a_i·u_j` that `add_outer` skips when `a_i == 0` adds a signed
///   zero, which leaves any `s_ij ≠ -0.0` as it is;
/// - on the diagonal, both halves are `s_ii + a_i·u_i` (just `s_ii` when
///   `a_i == 0`), and halving an exact double returns it unchanged.
fn sym_rank1_update(s: &mut Matrix, alpha: f64, u: &[f64]) {
    assert!(s.is_square(), "sym_rank1_update: matrix not square");
    assert_eq!(s.rows(), u.len(), "sym_rank1_update: u length");
    let a: Vec<f64> = u.iter().map(|&ui| alpha * ui).collect();
    for (i, (&ui, &ai)) in u.iter().zip(&a).enumerate() {
        rank1_row(s.row_mut(i), ai, ui, u, &a);
    }
}

/// The row kernel every update here shares: row `i` of `s + α·u·uᵀ`,
/// symmetrized, is `0.5·((s_ij + a_i·u_j) + (s_ij + a_j·u_i))` with
/// `a = α·u`, for the `row`/`u`/`a` entries given (a whole row, or its
/// part from the diagonal on).
#[inline(always)]
fn rank1_row(row: &mut [f64], ai: f64, ui: f64, u: &[f64], a: &[f64]) {
    for ((sij, &uj), &aj) in row.iter_mut().zip(u).zip(a) {
        *sij = 0.5 * ((*sij + ai * uj) + (*sij + aj * ui));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[
            vec![2.0, 0.3, 0.1],
            vec![0.3, 1.5, -0.2],
            vec![0.1, -0.2, 1.0],
        ])
    }

    /// `Σ` after one [`prepare`] + [`apply`] step along `w`.
    fn rank1_step(sigma: &Matrix, w: &[f64], lambda: f64) -> Matrix {
        let r = prepare(sigma, w);
        let mut out = sigma.clone();
        apply(&mut out, &r, lambda);
        out
    }

    #[test]
    fn matches_direct_inverse() {
        // Σ = P⁻¹; update P by λwwᵀ, compare Woodbury Σ with direct inverse.
        let p = spd3();
        let sigma = lu::inverse(&p).unwrap();
        let w = vec![0.5, -1.0, 2.0];
        let lambda = 0.7;

        let wb = rank1_step(&sigma, &w, lambda);

        let mut p2 = p.clone();
        precision_update(&mut p2, &w, lambda);
        let direct = lu::inverse(&p2).unwrap();

        assert!(wb.max_abs_diff(&direct) < 1e-12);
    }

    #[test]
    fn negative_lambda_within_bound_ok() {
        let p = spd3();
        let sigma = lu::inverse(&p).unwrap();
        let w = vec![1.0, 0.0, 0.0];
        let r = prepare(&sigma, &w);
        let lo = lambda_lower_bound(r.c);
        let lambda = lo * 0.5; // safely inside the admissible range
        let wb = rank1_step(&sigma, &w, lambda);
        let mut p2 = p.clone();
        precision_update(&mut p2, &w, lambda);
        let direct = lu::inverse(&p2).unwrap();
        assert!(wb.max_abs_diff(&direct) < 1e-10);
    }

    #[test]
    fn zero_lambda_is_identity_operation() {
        let sigma = spd3();
        let out = rank1_step(&sigma, &[1.0, 1.0, 1.0], 0.0);
        assert!(out.max_abs_diff(&sigma) < 1e-15);
    }

    #[test]
    fn prepare_c_is_quadratic_form() {
        let sigma = spd3();
        let w = vec![1.0, 2.0, -1.0];
        let r = prepare(&sigma, &w);
        assert!((r.c - sigma.quad_form(&w)).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_semantics() {
        assert_eq!(lambda_lower_bound(0.0), f64::NEG_INFINITY);
        let lb = lambda_lower_bound(2.0);
        assert!(lb > -0.5 && lb < -0.49);
    }

    #[test]
    fn repeated_updates_stay_consistent() {
        // Chain of 5 rank-1 updates tracked by Woodbury must equal the
        // direct inverse of the accumulated precision.
        let p0 = Matrix::identity(3);
        let mut sigma = Matrix::identity(3);
        let mut p = p0.clone();
        let ws = [
            vec![1.0, 0.0, 0.0],
            vec![0.3, 0.7, 0.0],
            vec![0.0, -0.5, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![-0.2, 0.1, 0.4],
        ];
        for (k, w) in ws.iter().enumerate() {
            let lambda = 0.2 * (k as f64 + 1.0);
            let r = prepare(&sigma, w);
            apply(&mut sigma, &r, lambda);
            precision_update(&mut p, w, lambda);
        }
        let direct = lu::inverse(&p).unwrap();
        assert!(sigma.max_abs_diff(&direct) < 1e-10);
    }

    /// `add_outer` + `symmetrize`: the two-pass update the one-pass kernel
    /// replaced, kept as the reference it must reproduce bit for bit.
    fn two_pass_reference(s: &Matrix, alpha: f64, u: &[f64]) -> Matrix {
        let mut r = s.clone();
        r.add_outer(alpha, u, u);
        r.symmetrize();
        r
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Uniform draws in `[-0.5, 0.5)` from a fixed LCG stream.
    fn lcg(mut state: u64) -> impl FnMut() -> f64 {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        }
    }

    /// One walk of 12 Woodbury steps per `d`: `visit(d, step, Σ, P, w, λ)`
    /// sees the state before each step. Σ and P start at I and move only
    /// by the two-pass reference steps, so every state is exactly
    /// symmetric with no -0.0 entry. Directions cycle through dense, a
    /// unit axis and dense with exact zeros.
    fn woodbury_walk(
        ds: &[usize],
        mut visit: impl FnMut(usize, usize, &Matrix, &Matrix, &[f64], f64),
    ) {
        let mut uniform = lcg(0x9e37_79b9_7f4a_7c15);
        for &d in ds {
            let mut sigma = Matrix::identity(d);
            let mut prec = Matrix::identity(d);
            for step in 0..12 {
                let mut w: Vec<f64> = (0..d).map(|_| uniform()).collect();
                match step % 3 {
                    1 => {
                        w = vec![0.0; d];
                        w[step % d] = 1.0;
                    }
                    2 => w.iter_mut().step_by(3).skip(1).for_each(|x| *x = 0.0),
                    _ => {}
                }
                let c = prepare(&sigma, &w).c;
                // λ > 0 shrinks the variance along w (α < 0 for Σ), λ < 0
                // inside the positive-definite bound grows it (α > 0).
                let lambda = if step % 4 < 2 {
                    0.5 + uniform().abs()
                } else {
                    (0.25 + uniform().abs()) * lambda_lower_bound(c)
                };
                visit(d, step, &sigma, &prec, &w, lambda);
                let r = prepare(&sigma, &w);
                sigma = two_pass_reference(&sigma, -lambda / (1.0 + lambda * r.c), &r.g);
                prec = two_pass_reference(&prec, lambda, &w);
            }
        }
    }

    #[test]
    fn one_pass_rank1_matches_add_outer_then_symmetrize_bit_for_bit() {
        woodbury_walk(&[1, 2, 3, 19, 100], |d, step, sigma, prec, w, lambda| {
            let r = prepare(sigma, w);
            let alpha = -lambda / (1.0 + lambda * r.c);
            let want_sigma = two_pass_reference(sigma, alpha, &r.g);
            let want_prec = two_pass_reference(prec, lambda, w);
            let mut got = sigma.clone();
            sym_rank1_update(&mut got, alpha, &r.g);
            assert_eq!(bits(&got), bits(&want_sigma), "Σ, d = {d}, step {step}");
            let mut got = sigma.clone();
            apply(&mut got, &r, lambda);
            assert_eq!(bits(&got), bits(&want_sigma), "apply, d = {d}, step {step}");
            let mut got = prec.clone();
            precision_update(&mut got, w, lambda);
            assert_eq!(bits(&got), bits(&want_prec), "P, d = {d}, step {step}");
        });
    }

    /// The dimensions of the column-form pins: whole 16-output blocks, a
    /// partial block alone, and both together.
    const COLUMN_FORM_DS: [usize; 8] = [1, 2, 3, 15, 16, 17, 19, 100];

    #[test]
    fn column_form_product_matches_row_form_bit_for_bit() {
        let vbits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut uniform = lcg(0x5eed);
        woodbury_walk(&COLUMN_FORM_DS, |d, step, sigma, prec, w, _| {
            let x: Vec<f64> = (0..d).map(|_| uniform()).collect();
            for (name, m) in [("Σ", sigma), ("P", prec)] {
                for x in [w, &x[..]] {
                    let mut want = vec![f64::NAN; d];
                    m.matvec_into(x, &mut want);
                    let mut got = vec![f64::NAN; d];
                    m.sym_matvec_into(x, &mut got);
                    assert_eq!(vbits(&got), vbits(&want), "{name}x, d = {d}, step {step}");
                    let mut scratch = vec![f64::NAN; d];
                    assert_eq!(
                        m.sym_quad_form(x, &mut scratch).to_bits(),
                        m.quad_form(x).to_bits(),
                        "xᵀ{name}x, d = {d}, step {step}"
                    );
                }
            }
        });
    }

    #[test]
    fn fused_pass_matches_apply_then_matvec_bit_for_bit() {
        let vbits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut uniform = lcg(0xfeed);
        woodbury_walk(&COLUMN_FORM_DS, |d, step, sigma, _, w, lambda| {
            let mut h: Vec<f64> = (0..d).map(|_| uniform()).collect();
            h.iter_mut().step_by(4).for_each(|x| *x = 0.0);
            let r = prepare(sigma, w);
            let mut want = sigma.clone();
            apply(&mut want, &r, lambda);
            let mut want_m = vec![f64::NAN; d];
            want.matvec_into(&h, &mut want_m);
            let mut got = sigma.clone();
            let mut got_m = vec![f64::NAN; d];
            apply_with_mean(
                &mut got,
                &r.g,
                r.c,
                lambda,
                &h,
                &mut got_m,
                &mut vec![0.0; d],
            );
            assert_eq!(bits(&got), bits(&want), "Σ, d = {d}, step {step}");
            assert_eq!(vbits(&got_m), vbits(&want_m), "m, d = {d}, step {step}");
        });
    }

    #[test]
    fn upper_triangle_update_then_mirror_matches_precision_update_bit_for_bit() {
        woodbury_walk(&COLUMN_FORM_DS, |d, step, _, prec, w, lambda| {
            let mut want = prec.clone();
            precision_update(&mut want, w, lambda);
            let mut got = prec.clone();
            precision_update_upper(&mut got, w, lambda, &mut vec![0.0; d]);
            for i in 0..d {
                for j in 0..i {
                    assert_eq!(
                        got[(i, j)].to_bits(),
                        prec[(i, j)].to_bits(),
                        "lower triangle moved at ({i}, {j}), d = {d}, step {step}"
                    );
                }
            }
            got.mirror_upper();
            assert_eq!(bits(&got), bits(&want), "P, d = {d}, step {step}");
        });
    }

    #[test]
    fn large_lambda_drives_variance_to_zero() {
        let mut sigma = Matrix::identity(2);
        let w = vec![1.0, 0.0];
        let r = prepare(&sigma, &w);
        apply(&mut sigma, &r, 1e12);
        assert!(sigma[(0, 0)] < 1e-10);
        assert!((sigma[(1, 1)] - 1.0).abs() < 1e-12);
    }
}
