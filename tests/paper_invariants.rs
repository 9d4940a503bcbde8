//! Quantitative invariants lifted directly from the paper's text:
//! analytic fixed points (Eq. 12/13), the whitening semantics of margin
//! and 1-cluster constraints (§II-A), the harmonic convergence rate
//! (Fig. 5b), and the sampling contract of the background distribution.

use sider::data::synthetic::adversarial_toy;
use sider::linalg::Matrix;
use sider::maxent::constraint::{margin_constraints, one_cluster_constraints};
use sider::maxent::{Constraint, FitOpts, RowSet, Solver};
use sider::stats::Rng;

fn axis_constraints(data: &Matrix, rows: &[usize]) -> Vec<Constraint> {
    let rows = RowSet::from_indices(rows);
    let e1 = vec![1.0, 0.0];
    let e2 = vec![0.0, 1.0];
    vec![
        Constraint::linear(data, rows.clone(), e1.clone(), "l1").unwrap(),
        Constraint::quadratic(data, rows.clone(), e1, "q1").unwrap(),
        Constraint::linear(data, rows.clone(), e2.clone(), "l2").unwrap(),
        Constraint::quadratic(data, rows, e2, "q2").unwrap(),
    ]
}

#[test]
fn eq12_case_a_analytic_fixed_point() {
    let data = adversarial_toy();
    let mut solver = Solver::new(&data, axis_constraints(&data, &[0, 2])).unwrap();
    let report = solver.fit(&FitOpts::default());
    assert!(report.converged);
    let p0 = solver.params_for_row(0);
    let p1 = solver.params_for_row(1);
    let p2 = solver.params_for_row(2);
    // m1 = m3 = (1/2, 0); m2 = (0,0).
    assert!((p0.m[0] - 0.5).abs() < 1e-8 && p0.m[1].abs() < 1e-8);
    assert!((p2.m[0] - 0.5).abs() < 1e-8 && p2.m[1].abs() < 1e-8);
    assert!(p1.m.iter().all(|&v| v.abs() < 1e-12));
    // Σ1 = Σ3 = diag(1/4, 0); Σ2 = I.
    assert!((p0.sigma[(0, 0)] - 0.25).abs() < 1e-8);
    assert!(p0.sigma[(1, 1)].abs() < 1e-8);
    assert!(p1.sigma.max_abs_diff(&Matrix::identity(2)) < 1e-12);
}

#[test]
fn eq13_case_b_harmonic_convergence() {
    let data = adversarial_toy();
    let mut cs = axis_constraints(&data, &[0, 2]);
    cs.extend(axis_constraints(&data, &[1, 2]));
    let mut solver = Solver::new(&data, cs).unwrap();
    let mut values = Vec::new();
    for _ in 0..512 {
        solver.sweep(1e12);
        values.push(solver.params_for_row(0).sigma[(0, 0)]);
    }
    // Means approach (1,0), (0,1), (0,0).
    assert!((solver.params_for_row(0).m[0] - 1.0).abs() < 0.01);
    assert!((solver.params_for_row(1).m[1] - 1.0).abs() < 0.01);
    assert!(solver.params_for_row(2).m[0].abs() < 0.01);
    // Harmonic decay: v(2τ)/v(τ) → 1/2.
    let ratio = values[511] / values[255];
    assert!((ratio - 0.5).abs() < 0.05, "ratio {ratio}");
    // And the log-log slope over the tail ≈ −1.
    let lo = values[127].ln();
    let hi = values[511].ln();
    let slope = (hi - lo) / ((512.0f64 / 128.0).ln());
    assert!((slope + 1.0).abs() < 0.1, "slope {slope}");
}

#[test]
fn replication_with_noise_fixes_case_b_convergence() {
    // Paper §II-A-2: replicating each data point with noise bounds the
    // background variance from below and turns Case B's harmonic crawl
    // into fast convergence.
    let data = adversarial_toy();
    let plain_constraints = |data: &Matrix| {
        let mut cs = axis_constraints(data, &[0, 2]);
        cs.extend(axis_constraints(data, &[1, 2]));
        cs
    };
    let strict = FitOpts {
        lambda_tol: 1e-4,
        moment_tol: 0.0, // isolate the λ criterion
        max_sweeps: 200,
        ..FitOpts::default()
    };

    // Plain Case B: no convergence within the budget.
    let mut plain = Solver::new(&data, plain_constraints(&data)).unwrap();
    let plain_report = plain.fit(&strict);
    assert!(!plain_report.converged, "{plain_report:?}");

    // Replicated ×10 with σ=0.2, selections expanded per the paper.
    let ds = sider::data::Dataset::unlabeled("adv", data);
    let mut rng = Rng::seed_from_u64(17);
    let (big, groups) = ds.replicate_with_noise(10, 0.2, &mut rng);
    let expand =
        |rows: &[usize]| -> Vec<usize> { rows.iter().flat_map(|&r| groups[r].clone()).collect() };
    let mut cs = axis_constraints(&big.matrix, &expand(&[0, 2]));
    cs.extend(axis_constraints(&big.matrix, &expand(&[1, 2])));
    let mut replicated = Solver::new(&big.matrix, cs).unwrap();
    let rep_report = replicated.fit(&strict);
    assert!(rep_report.converged, "{rep_report:?}");
    assert!(rep_report.sweeps < 200);
    // The variance floor is of order σ² — bounded away from zero, unlike
    // the plain Case B optimum where every variance is exactly zero.
    let v = replicated.params_for_row(0).sigma[(0, 0)];
    assert!(v > 1e-3, "variance collapsed anyway: {v}");
    // And the replicated fit left smaller residuals than the plain one.
    let plain_res = plain_report.last.unwrap().max_residual;
    let rep_res = rep_report.last.unwrap().max_residual;
    assert!(
        rep_res < plain_res,
        "replication did not help: {rep_res} vs {plain_res}"
    );
}

#[test]
fn margin_constraints_equal_column_standardization() {
    // Paper §II-A: "adding a margin constraint … is equivalent to first
    // transforming the data to zero mean and unit variance".
    let mut rng = Rng::seed_from_u64(21);
    let data = Matrix::from_fn(300, 3, |_, j| rng.normal(j as f64 * 2.0, 1.0 + j as f64));
    let mut solver = Solver::new(&data, margin_constraints(&data).unwrap()).unwrap();
    solver.fit(&FitOpts {
        lambda_tol: 1e-10,
        moment_tol: 1e-10,
        max_sweeps: 2000,
        ..FitOpts::default()
    });
    let y = solver.distribution().whiten(&data).unwrap();
    for j in 0..3 {
        let col = y.col(j);
        let mean = sider::stats::descriptive::mean(&col);
        let var = sider::stats::descriptive::population_variance(&col);
        assert!(mean.abs() < 1e-6, "col {j} mean {mean}");
        assert!((var - 1.0).abs() < 1e-6, "col {j} var {var}");
    }
}

#[test]
fn one_cluster_constraint_equals_full_whitening() {
    // Paper §II-A: the 1-cluster constraint is equivalent to whitening the
    // data (correlations included).
    let mut rng = Rng::seed_from_u64(23);
    // Correlated data.
    let data = Matrix::from_fn(400, 2, |_, _| 0.0);
    let mut data = data;
    for i in 0..400 {
        let a = rng.normal(1.0, 2.0);
        let b = 0.8 * a + rng.normal(-3.0, 0.5);
        data[(i, 0)] = a;
        data[(i, 1)] = b;
    }
    let mut solver = Solver::new(&data, one_cluster_constraints(&data).unwrap()).unwrap();
    solver.fit(&FitOpts {
        lambda_tol: 1e-10,
        moment_tol: 1e-10,
        max_sweeps: 2000,
        ..FitOpts::default()
    });
    let y = solver.distribution().whiten(&data).unwrap();
    // Whitened second moment (about 0) must be the identity.
    let sm = sider::stats::descriptive::second_moment_with(&y, &sider::par::ThreadPool::serial());
    assert!(sm.max_abs_diff(&Matrix::identity(2)) < 1e-6, "{sm:?}");
}

#[test]
fn sampled_datasets_reproduce_constraint_targets_in_expectation() {
    // E_p[f_c(X)] = v̂ ⇒ averaging f_c over sampled datasets approaches
    // the target (Monte-Carlo check of the sampling contract).
    let mut rng = Rng::seed_from_u64(29);
    let data = Matrix::from_fn(50, 2, |_, j| rng.normal(1.0 - j as f64, 1.5));
    let cs = margin_constraints(&data).unwrap();
    let mut solver = Solver::new(&data, cs.clone()).unwrap();
    solver.fit(&FitOpts {
        lambda_tol: 1e-10,
        moment_tol: 1e-10,
        max_sweeps: 2000,
        ..FitOpts::default()
    });
    let bg = solver.distribution();
    let mut sample_rng = Rng::seed_from_u64(31);
    let reps = 600;
    let mut means = vec![0.0; cs.len()];
    for _ in 0..reps {
        let x = bg.sample(&mut sample_rng);
        for (t, c) in cs.iter().enumerate() {
            means[t] += c.evaluate(&x);
        }
    }
    for (t, c) in cs.iter().enumerate() {
        let mc = means[t] / reps as f64;
        let scale = c.target.abs().max(50.0);
        assert!(
            (mc - c.target).abs() / scale < 0.1,
            "constraint {t} ({}) MC {mc} vs target {}",
            c.label,
            c.target
        );
    }
}

#[test]
fn whitening_is_direction_preserving() {
    // Eq. 14 uses the *symmetric* square root U D^{1/2} Uᵀ: for isotropic
    // scaling constraints, whitening must not rotate the data.
    let mut rng = Rng::seed_from_u64(37);
    let data = Matrix::from_fn(200, 2, |_, _| rng.normal(0.0, 3.0));
    let mut solver = Solver::new(&data, margin_constraints(&data).unwrap()).unwrap();
    solver.fit(&FitOpts::default());
    let y = solver.distribution().whiten(&data).unwrap();
    // Each whitened row must be positively aligned with the centered raw
    // row (cosine > 0.9): pure rescaling plus small cross terms.
    let means = data.col_means();
    for i in 0..data.rows() {
        let raw = sider::linalg::vector::sub(data.row(i), &means);
        let cos = sider::linalg::vector::dot(&raw, y.row(i))
            / (sider::linalg::vector::norm2(&raw) * sider::linalg::vector::norm2(y.row(i)));
        assert!(cos > 0.9, "row {i} cosine {cos}");
    }
}
