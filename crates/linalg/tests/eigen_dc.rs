//! Property tests for the divide-and-conquer eigensolver
//! (`sider_linalg::eigen_dc`) and its Householder tridiagonalization
//! front end: agreement with the Jacobi reference on random SPD,
//! clustered/degenerate and wide-spread spectra, plus the forced-fallback
//! contract of the `SymEigen::decompose` dispatch.

use sider_linalg::{sym_eigen, sym_eigen_dc, tridiagonalize, DecomposeOpts, Matrix, SymEigen};

/// Deterministic pseudo-random stream (same LCG idiom as the in-crate
/// eigen tests — the linalg crate must not depend on sider_stats).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    /// Well-conditioned random SPD matrix `R·Rᵀ·0.09 + I`.
    fn spd(&mut self, n: usize) -> Matrix {
        let r = Matrix::from_fn(n, n, |_, _| self.next());
        let mut a = r.gram().scale(0.09);
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        a
    }

    /// Random symmetric matrix with the *prescribed* spectrum: `U·D·Uᵀ`
    /// where `U` is the eigenbasis of a random SPD draw.
    fn with_spectrum(&mut self, values: &[f64]) -> Matrix {
        let basis = sym_eigen(&self.spd(values.len())).unwrap();
        SymEigen {
            values: values.to_vec(),
            vectors: basis.vectors,
        }
        .reconstruct()
    }
}

/// Assert a decomposition represents `target`: descending values agreeing
/// with a fresh Jacobi solve to `tol·scale`, faithful reconstruction, and
/// an orthonormal basis.
fn assert_represents(eig: &SymEigen, target: &Matrix, tol: f64, ctx: &str) {
    let fresh = sym_eigen(target).unwrap();
    let scale = target.frobenius_norm().max(1.0);
    for (k, (a, b)) in eig.values.iter().zip(&fresh.values).enumerate() {
        assert!(
            (a - b).abs() <= tol * scale,
            "{ctx}: eigenvalue {k}: {a} vs jacobi {b}"
        );
    }
    assert!(
        eig.reconstruct().max_abs_diff(target) <= tol * scale,
        "{ctx}: U·D·Uᵀ off by {}",
        eig.reconstruct().max_abs_diff(target)
    );
    assert!(
        eig.orthogonality_drift() <= tol.max(1e-8),
        "{ctx}: basis drift {}",
        eig.orthogonality_drift()
    );
    let mut sorted = eig.values.clone();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    assert_eq!(sorted, eig.values, "{ctx}: values not descending");
}

#[test]
fn random_spd_agrees_with_jacobi_above_threshold() {
    let mut rng = Lcg(0xd1ce);
    for n in [33usize, 48, 64, 97] {
        for rep in 0..3 {
            let a = rng.spd(n);
            let eig = SymEigen::decompose(&a).unwrap();
            assert_represents(&eig, &a, 1e-10, &format!("n={n} rep={rep}"));
        }
    }
}

#[test]
fn clustered_and_degenerate_spectra_agree() {
    let mut rng = Lcg(0xbeef);
    // Heavy degeneracy: three plateaus across a 40-dim spectrum — the
    // D&C merge must deflate the repeats instead of solving near-singular
    // secular equations.
    let mut values: Vec<f64> = Vec::new();
    for k in 0..40usize {
        values.push(match k % 3 {
            0 => 2.0,
            1 => 5.0,
            _ => 9.0,
        });
    }
    let a = rng.with_spectrum(&values);
    let eig = SymEigen::decompose(&a).unwrap();
    assert_represents(&eig, &a, 1e-9, "three plateaus");

    // Fully degenerate: a scaled identity must come back exactly flat.
    let a = Matrix::identity(50).scale(4.0);
    let eig = SymEigen::decompose(&a).unwrap();
    for &v in &eig.values {
        assert!((v - 4.0).abs() < 1e-12, "degenerate eigenvalue moved: {v}");
    }
    assert!(eig.orthogonality_drift() < 1e-12);

    // Near-degenerate pairs split by 1e-13: clusters below the deflation
    // tolerance must still reconstruct the matrix faithfully.
    let values: Vec<f64> = (0..36)
        .map(|k| 3.0 + (k / 2) as f64 + if k % 2 == 0 { 0.0 } else { 1e-13 })
        .collect();
    let a = rng.with_spectrum(&values);
    let eig = SymEigen::decompose(&a).unwrap();
    assert_represents(&eig, &a, 1e-9, "near-degenerate pairs");
}

#[test]
fn wide_spread_spectra_reconstruct_within_bounds() {
    // Eigenvalues spanning twelve decades down to 1e-8 (collapsed-
    // direction territory): reconstruction and orthogonality must hold at
    // the matrix scale, and the dominant eigenvalues must agree with
    // Jacobi to near machine precision *relative to themselves*.
    let mut rng = Lcg(0xace);
    let n = 40;
    let values: Vec<f64> = (0..n)
        .map(|k| 1e4 * (1e-12f64).powf(k as f64 / (n - 1) as f64))
        .collect();
    let a = rng.with_spectrum(&values);
    let eig = SymEigen::decompose(&a).unwrap();
    assert_represents(&eig, &a, 1e-11, "wide spread");
    let fresh = sym_eigen(&a).unwrap();
    for (k, (got, want)) in eig.values.iter().zip(&fresh.values).enumerate() {
        if want.abs() >= 1.0 {
            assert!(
                (got - want).abs() <= 1e-10 * want.abs(),
                "eigenvalue {k}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn forced_fallback_is_jacobi_bit_for_bit() {
    // A negative drift tolerance rejects every D&C result at the dispatch
    // — the documented failure-injection point — so decompose_with must
    // return exactly what the Jacobi reference produces.
    let mut rng = Lcg(0x0f01);
    let a = rng.spd(45);
    let opts = DecomposeOpts {
        drift_tol: -1.0,
        ..DecomposeOpts::default()
    };
    let fallback = SymEigen::decompose_with(&a, &opts).unwrap();
    let jacobi = sym_eigen(&a).unwrap();
    assert_eq!(fallback.values, jacobi.values);
    assert_eq!(fallback.vectors.as_slice(), jacobi.vectors.as_slice());
}

#[test]
fn below_threshold_dispatch_is_jacobi_bit_for_bit() {
    let mut rng = Lcg(0x5eed);
    for n in [1usize, 2, 7, 31] {
        let a = rng.spd(n);
        let via_dispatch = SymEigen::decompose(&a).unwrap();
        let jacobi = sym_eigen(&a).unwrap();
        assert_eq!(via_dispatch.values, jacobi.values, "n={n}");
        assert_eq!(
            via_dispatch.vectors.as_slice(),
            jacobi.vectors.as_slice(),
            "n={n}"
        );
    }
}

#[test]
fn raw_dc_solver_handles_indefinite_symmetric_input() {
    // D&C is not restricted to positive definite input: mixed-sign
    // spectra exercise the negated secular branch at every merge.
    let mut rng = Lcg(0x7777);
    let values: Vec<f64> = (0..38).map(|k| (k as f64) - 18.5).collect();
    let a = rng.with_spectrum(&values);
    let eig = sym_eigen_dc(&a).unwrap();
    assert_represents(&eig, &a, 1e-10, "indefinite");
}

#[test]
fn tridiagonalization_round_trips_and_stays_orthogonal() {
    let mut rng = Lcg(0x1234);
    for n in [3usize, 16, 33, 60] {
        let a = rng.spd(n);
        let t = tridiagonalize(&a).unwrap();
        let scale = a.frobenius_norm().max(1.0);
        let mut dense_t = Matrix::from_diag(&t.diag);
        for (k, &e) in t.off.iter().enumerate() {
            dense_t[(k + 1, k)] = e;
            dense_t[(k, k + 1)] = e;
        }
        let recon = t.q.matmul(&dense_t).matmul(&t.q.transpose());
        assert!(
            recon.max_abs_diff(&a) <= 1e-13 * scale,
            "n={n}: Q·T·Qᵀ off by {}",
            recon.max_abs_diff(&a)
        );
        assert!(
            t.q.gram().max_abs_diff(&Matrix::identity(n)) <= 1e-13,
            "n={n}: Q not orthogonal"
        );
    }
}

#[test]
fn decompose_rejects_malformed_input() {
    assert!(SymEigen::decompose(&Matrix::zeros(3, 4)).is_err());
    let mut a = Matrix::identity(40);
    a[(0, 1)] = f64::NAN;
    assert!(SymEigen::decompose(&a).is_err());
}
