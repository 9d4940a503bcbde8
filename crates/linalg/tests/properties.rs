//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use sider_linalg::{lu, sym_eigen, woodbury, Matrix};

/// Strategy: a small matrix with entries in [-10, 10].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Strategy: a symmetric PSD matrix `AᵀA + ridge·I` of size n.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    matrix(n, n).prop_map(move |a| {
        let mut g = a.gram();
        for i in 0..n {
            g[(i, i)] += 0.5; // keep it comfortably positive definite
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_then_multiply_roundtrip(a in spd(4), x in proptest::collection::vec(-5.0..5.0f64, 4)) {
        let b = a.matvec(&x);
        let solved = lu::Lu::new(&a).unwrap().solve(&b).unwrap();
        for (s, t) in solved.iter().zip(&x) {
            prop_assert!((s - t).abs() < 1e-8, "solved {:?} truth {:?}", solved, x);
        }
    }

    #[test]
    fn lu_inverse_is_two_sided(a in spd(3)) {
        let inv = lu::inverse(&a).unwrap();
        prop_assert!(a.matmul(&inv).max_abs_diff(&Matrix::identity(3)) < 1e-8);
        prop_assert!(inv.matmul(&a).max_abs_diff(&Matrix::identity(3)) < 1e-8);
    }

    #[test]
    fn eigen_reconstructs_symmetric(a in spd(4)) {
        let e = sym_eigen(&a).unwrap();
        prop_assert!(e.reconstruct().max_abs_diff(&a) < 1e-8);
        // Orthonormality of eigenvectors.
        prop_assert!(e.vectors.gram().max_abs_diff(&Matrix::identity(4)) < 1e-9);
        // Descending order.
        for w in e.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn eigen_trace_and_det_identities(a in spd(3)) {
        let e = sym_eigen(&a).unwrap();
        let tr: f64 = e.values.iter().sum();
        prop_assert!((tr - a.trace()).abs() < 1e-8);
        let det_e: f64 = e.values.iter().product();
        let det_lu = lu::det(&a).unwrap();
        prop_assert!((det_e - det_lu).abs() < 1e-6 * det_lu.abs().max(1.0));
    }

    #[test]
    fn woodbury_matches_direct_inverse(p in spd(4), w in proptest::collection::vec(-3.0..3.0f64, 4), lambda in 0.0..5.0f64) {
        let mut wb = lu::inverse(&p).unwrap();
        let r = woodbury::prepare(&wb, &w);
        woodbury::apply(&mut wb, &r, lambda);
        let mut p2 = p.clone();
        woodbury::precision_update(&mut p2, &w, lambda);
        let direct = lu::inverse(&p2).unwrap();
        prop_assert!(wb.max_abs_diff(&direct) < 1e-7);
    }

    #[test]
    fn sqrtm_roundtrip(a in spd(3)) {
        let is = sider_linalg::sym_inv_sqrt(&a).unwrap();
        let prod = is.matmul(&a).matmul(&is);
        prop_assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-8);
    }

    #[test]
    fn matmul_associativity(a in matrix(3, 4), b in matrix(4, 2), c in matrix(2, 3)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-8);
    }

    #[test]
    fn transpose_of_product(a in matrix(3, 4), b in matrix(4, 2)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10);
    }
}
