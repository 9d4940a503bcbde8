//! Property-based tests for the MaxEnt engine.
//!
//! The key post-condition of Problem 1 (paper §II-A): after convergence,
//! every constraint holds in expectation, `E_p[f_t] = v̂_t`. And the key
//! implementation claim: the optimized solver (equivalence classes +
//! Woodbury) computes the same distribution as the naive per-row solver.

use proptest::prelude::*;
use sider_linalg::Matrix;
use sider_maxent::constraint::{cluster_constraints, margin_constraints};
use sider_maxent::naive::NaiveSolver;
use sider_maxent::{Constraint, ConvergenceReport, FitOpts, RowSet, Solver, SolverState};
use sider_par::ThreadPool;
use sider_stats::Rng;
use std::sync::Arc;

/// Deterministic pseudo-random data from a seed: n rows, d columns with
/// per-column scale/offset so margins are non-trivial.
fn gen_data(seed: u64, n: usize, d: usize) -> Matrix {
    let mut rng = Rng::seed_from_u64(seed);
    Matrix::from_fn(n, d, |_, j| {
        rng.normal(0.3 * j as f64 - 0.5, 0.5 + 0.4 * j as f64)
    })
}

fn tight() -> FitOpts {
    FitOpts {
        lambda_tol: 1e-9,
        moment_tol: 1e-9,
        max_sweeps: 5000,
        ..FitOpts::default()
    }
}

fn cold(
    data: &Matrix,
    cs: Vec<Constraint>,
    pool: Arc<ThreadPool>,
) -> (SolverState, ConvergenceReport) {
    SolverState::cold_with(data, cs, &tight(), pool).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn margins_hold_in_expectation(seed in 0u64..1000, n in 6usize..30, d in 1usize..5) {
        let data = gen_data(seed, n, d);
        let cs = margin_constraints(&data).unwrap();
        let mut solver = Solver::new(&data, cs).unwrap();
        let report = solver.fit(&FitOpts {
            lambda_tol: 1e-10,
            moment_tol: 1e-10,
            max_sweeps: 3000,
            ..FitOpts::default()
        });
        prop_assert!(report.converged);
        for (t, r) in solver.residuals().iter().enumerate() {
            prop_assert!(r.abs() < 1e-5, "constraint {} residual {}", t, r);
        }
        // Margins imply: model mean = column mean, model var = column
        // population variance (single class covering all rows).
        prop_assert_eq!(solver.n_classes(), 1);
        let p = solver.params_for_row(0);
        for j in 0..d {
            let col = data.col(j);
            let mean = col.iter().sum::<f64>() / n as f64;
            let var = col.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
            prop_assert!((p.m[j] - mean).abs() < 1e-5);
            prop_assert!((p.sigma[(j, j)] - var).abs() < 1e-4 * var.max(1.0));
        }
    }

    #[test]
    fn cluster_constraints_hold_when_cluster_is_large(seed in 0u64..1000, d in 2usize..4) {
        // Cluster strictly larger than d: no zero-variance directions, so
        // coordinate ascent converges tightly.
        let n = 20;
        let data = gen_data(seed, n, d);
        let cluster: Vec<usize> = (0..(d + 4)).collect();
        let cs = cluster_constraints(&data, RowSet::from_indices(&cluster), "c").unwrap();
        let mut solver = Solver::new(&data, cs).unwrap();
        let report = solver.fit(&FitOpts {
            lambda_tol: 1e-10,
            moment_tol: 1e-10,
            max_sweeps: 3000,
            ..FitOpts::default()
        });
        prop_assert!(report.converged);
        for (t, r) in solver.residuals().iter().enumerate() {
            prop_assert!(r.abs() < 1e-5, "constraint {} residual {}", t, r);
        }
        // Rows outside the cluster stay at the prior.
        let outside = solver.params_for_row(n - 1);
        prop_assert!(outside.m.iter().all(|&v| v.abs() < 1e-12));
        prop_assert!(outside.sigma.max_abs_diff(&Matrix::identity(d)) < 1e-12);
    }

    #[test]
    fn optimized_equals_naive(seed in 0u64..500) {
        let n = 10;
        let d = 3;
        let data = gen_data(seed, n, d);
        let mut cs = margin_constraints(&data).unwrap();
        cs.extend(
            cluster_constraints(&data, RowSet::from_indices(&[0, 1, 2, 3, 4]), "a").unwrap(),
        );
        let mut fast = Solver::new(&data, cs.clone()).unwrap();
        let mut slow = NaiveSolver::new(&data, cs).unwrap();
        for _ in 0..15 {
            fast.sweep(1e6);
            slow.sweep(1e6);
        }
        for i in 0..n {
            let pf = fast.params_for_row(i);
            for (a, b) in pf.m.iter().zip(slow.mean(i)) {
                prop_assert!((a - b).abs() < 1e-5, "row {} mean {} vs {}", i, a, b);
            }
            prop_assert!(pf.sigma.max_abs_diff(slow.cov(i)) < 1e-5, "row {}", i);
        }
    }

    #[test]
    fn warm_refit_matches_cold_fit(seed in 0u64..500, n in 12usize..30, d in 2usize..4) {
        // The incremental engine invariant (strict convexity of Problem 1):
        // appending a cluster constraint to a converged warm solver and
        // refitting reaches the same optimum — same residuals, same
        // per-row moments — as fitting everything from scratch.
        let data = gen_data(seed, n, d);
        let serial = Arc::new(ThreadPool::serial());
        let margins = margin_constraints(&data).unwrap();
        let cluster_rows: Vec<usize> = (0..(d + 3)).collect();
        let cluster =
            cluster_constraints(&data, RowSet::from_indices(&cluster_rows), "c").unwrap();

        let (mut warm, first) = cold(&data, margins.clone(), serial.clone());
        prop_assert!(first.converged);
        let warm_report = warm.refit(cluster.clone(), &tight()).unwrap();
        prop_assert!(warm_report.converged);

        let mut all = margins;
        all.extend(cluster);
        let (cold, cold_report) = cold(&data, all, serial);
        prop_assert!(cold_report.converged);

        // Same constraint residuals (within the fit tolerance scale)…
        for (t, (rw, rc)) in warm
            .solver()
            .residuals()
            .iter()
            .zip(cold.solver().residuals())
            .enumerate()
        {
            prop_assert!(rw.abs() < 1e-5, "warm residual {} of constraint {}", rw, t);
            prop_assert!((rw - rc).abs() < 1e-5, "constraint {}: {} vs {}", t, rw, rc);
        }
        // …and the same per-row moments of the fitted background.
        for row in 0..n {
            for (a, b) in warm
                .background()
                .mean(row)
                .iter()
                .zip(cold.background().mean(row))
            {
                prop_assert!((a - b).abs() < 1e-5, "row {} mean {} vs {}", row, a, b);
            }
            prop_assert!(
                warm.solver()
                    .params_for_row(row)
                    .sigma
                    .max_abs_diff(&cold.solver().params_for_row(row).sigma)
                    < 1e-5,
                "row {}",
                row
            );
            let (kw, kc) = (
                warm.background().kl_from_prior(row),
                cold.background().kl_from_prior(row),
            );
            prop_assert!((kw - kc).abs() < 1e-5, "row {} KL {} vs {}", row, kw, kc);
        }
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_serial(seed in 0u64..500, n in 12usize..30, d in 2usize..4) {
        // The whole warm engine — cold fit, warm refit with a partition
        // split, background refresh, sampling, whitening — must produce
        // exactly the same bytes on a 1-thread and a 4-thread pool.
        let data = gen_data(seed, n, d);
        let margins = margin_constraints(&data).unwrap();
        let cluster_rows: Vec<usize> = (0..(d + 3)).collect();
        let cluster =
            cluster_constraints(&data, RowSet::from_indices(&cluster_rows), "c").unwrap();

        let run = |threads: usize| {
            let pool = Arc::new(ThreadPool::new(threads));
            let (mut state, _) = cold(&data, margins.clone(), pool.clone());
            state.refit(cluster.clone(), &tight()).unwrap();
            let mut rng = Rng::seed_from_u64(seed ^ 0xfeed);
            let sample = state.background().sample_with(&mut rng, &pool);
            let whitened = state.background().whiten_with(&data, &pool).unwrap();
            (state, sample, whitened)
        };
        let (state1, sample1, whitened1) = run(1);
        let (state4, sample4, whitened4) = run(4);

        prop_assert_eq!(state1.last_refresh(), state4.last_refresh());
        prop_assert_eq!(sample1.as_slice(), sample4.as_slice());
        prop_assert_eq!(whitened1.as_slice(), whitened4.as_slice());
        for row in 0..n {
            prop_assert_eq!(state1.background().mean(row), state4.background().mean(row));
            prop_assert_eq!(
                &state1.solver().params_for_row(row).sigma,
                &state4.solver().params_for_row(row).sigma
            );
            prop_assert_eq!(
                state1.background().kl_from_prior(row).to_bits(),
                state4.background().kl_from_prior(row).to_bits()
            );
        }
        // Warm-vs-cold equivalence (PR 1's invariant) must survive the
        // parallel refresh path: a cold fit of everything on the 4-thread
        // pool lands on the same optimum within fit tolerance.
        let mut all = margins.clone();
        all.extend(cluster.clone());
        let (cold4, report) = cold(&data, all, Arc::new(ThreadPool::new(4)));
        prop_assert!(report.converged);
        for row in 0..n {
            for (a, b) in state4
                .background()
                .mean(row)
                .iter()
                .zip(cold4.background().mean(row))
            {
                prop_assert!((a - b).abs() < 1e-5, "row {} mean {} vs {}", row, a, b);
            }
            prop_assert!(
                state4
                    .solver()
                    .params_for_row(row)
                    .sigma
                    .max_abs_diff(&cold4.solver().params_for_row(row).sigma)
                    < 1e-5,
                "row {}",
                row
            );
            let (kw, kc) = (
                state4.background().kl_from_prior(row),
                cold4.background().kl_from_prior(row),
            );
            prop_assert!((kw - kc).abs() < 1e-5, "row {} KL {} vs {}", row, kw, kc);
        }
    }

    #[test]
    fn whitening_background_sample_is_spherical(seed in 0u64..200) {
        let data = gen_data(seed, 500, 2);
        let cs = margin_constraints(&data).unwrap();
        let mut solver = Solver::new(&data, cs).unwrap();
        solver.fit(&FitOpts {
            lambda_tol: 1e-8,
            moment_tol: 1e-8,
            max_sweeps: 1000,
            ..FitOpts::default()
        });
        let bg = solver.distribution();
        let mut rng = Rng::seed_from_u64(seed ^ 0xABCD);
        let sample = bg.sample(&mut rng);
        let y = bg.whiten(&sample).unwrap();
        for cs in sider_stats::descriptive::column_stats(&y) {
            prop_assert!(cs.mean.abs() < 0.2, "mean {}", cs.mean);
            prop_assert!((cs.sd - 1.0).abs() < 0.2, "sd {}", cs.sd);
        }
    }

    #[test]
    fn whitening_real_data_with_margins_standardizes_columns(seed in 0u64..200) {
        // Paper §II-A: "adding a margin constraint … is equivalent to first
        // transforming the data to zero mean and unit variance".
        let data = gen_data(seed, 100, 3);
        let cs = margin_constraints(&data).unwrap();
        let mut solver = Solver::new(&data, cs).unwrap();
        solver.fit(&FitOpts {
            lambda_tol: 1e-10,
            moment_tol: 1e-10,
            max_sweeps: 2000,
            ..FitOpts::default()
        });
        let y = solver.distribution().whiten(&data).unwrap();
        for cs in sider_stats::descriptive::column_stats(&y) {
            prop_assert!(cs.mean.abs() < 1e-3, "mean {}", cs.mean);
            // Population-vs-sample sd gap is O(1/n); allow slack.
            prop_assert!((cs.sd - 1.0).abs() < 0.05, "sd {}", cs.sd);
        }
    }
}
