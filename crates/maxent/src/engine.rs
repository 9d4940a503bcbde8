//! The persistent, warm-started solver engine behind the interactive loop.
//!
//! The paper's loop (§II-A, Fig. 1) re-solves the MaxEnt problem after
//! every feedback round. A cold re-solve throws away three things that are
//! still valid: the converged λ multipliers, the equivalence-class
//! partition, and the per-class spectral decompositions of the background
//! distribution. [`SolverState`] keeps all three alive across rounds:
//!
//! 1. new constraints are **appended** into the existing partition
//!    ([`crate::Partition::append`]), splitting only affected classes;
//! 2. the previous fit's λ's **warm-start** the next one, and only the
//!    *active set* of constraints perturbed by the new knowledge is swept
//!    ([`crate::Solver::append_constraints`]);
//! 3. the cached [`BackgroundDistribution`] re-runs
//!    `SymEigen::decompose` only for classes whose covariance actually
//!    changed ([`BackgroundDistribution::refresh_from_class_params_with`]), so
//!    the cache always equals a cold rebuild of the solver's current class
//!    parameters bit for bit — checked in `tests/refresh_cache.rs`.
//!
//! Because the MaxEnt problem is strictly convex, warm and cold paths
//! converge to the same distribution (within the `FitOpts` tolerances) —
//! property-tested in `tests/properties.rs`.

use crate::distribution::{BackgroundDistribution, RefreshStats};
use crate::solver::{ConvergenceReport, FitOpts, Solver};
use crate::Constraint;
use crate::Result;
use sider_linalg::Matrix;
use sider_par::ThreadPool;
use std::sync::Arc;

/// Solver + fitted background distribution that persist across feedback
/// rounds. Create it with [`SolverState::cold_with`] on the first
/// `update_background`; afterwards feed each round's new constraints to
/// [`SolverState::refit`].
///
/// The engine owns a handle to the session's [`ThreadPool`] and uses it
/// for every per-class spectral refresh; by the pool's determinism
/// contract, results are identical at any pool size.
#[derive(Debug, Clone)]
pub struct SolverState {
    solver: Solver,
    background: BackgroundDistribution,
    last_refresh: RefreshStats,
    pool: Arc<ThreadPool>,
}

impl SolverState {
    /// Fit from scratch: build the solver, run a full fit over every
    /// constraint, and decompose every class, parallelizing the
    /// decompositions over `pool`; the engine keeps the handle for later
    /// warm refreshes.
    pub fn cold_with(
        data: &Matrix,
        constraints: Vec<Constraint>,
        opts: &FitOpts,
        pool: Arc<ThreadPool>,
    ) -> Result<(Self, ConvergenceReport)> {
        let mut solver = Solver::new(data, constraints)?;
        let report = solver.fit(opts);
        let background = solver.distribution_with(&pool);
        let n_classes = solver.n_classes();
        solver.reset_dirty();
        Ok((
            SolverState {
                solver,
                background,
                last_refresh: RefreshStats {
                    classes_total: n_classes,
                    eigen_recomputed: n_classes,
                    ..RefreshStats::default()
                },
                pool,
            },
            report,
        ))
    }

    /// Warm refit: append this round's new constraints (possibly none),
    /// continue the fit from the previous optimum, and refresh only the
    /// background classes the fit actually moved.
    pub fn refit(
        &mut self,
        new_constraints: Vec<Constraint>,
        opts: &FitOpts,
    ) -> Result<ConvergenceReport> {
        self.solver.reset_dirty();
        self.solver.append_constraints(new_constraints)?;
        let report = self.solver.fit(opts);
        let any_dirty = self.solver.mean_dirty().iter().any(|&b| b)
            || self.solver.cov_dirty().iter().any(|&b| b);
        if any_dirty || self.solver.n_classes() > self.background.n_classes() {
            self.last_refresh = self.background.refresh_from_class_params_with(
                self.solver.partition().class_of_row.clone(),
                self.solver.class_params(),
                self.solver.parent_of_class(),
                self.solver.mean_dirty(),
                self.solver.cov_dirty(),
                &self.pool,
            );
            self.solver.reset_dirty();
        } else {
            // Fit moved nothing: the cached distribution is already exact.
            self.last_refresh = RefreshStats {
                classes_total: self.solver.n_classes(),
                ..RefreshStats::default()
            };
        }
        Ok(report)
    }

    /// The background distribution as of the last fit.
    pub fn background(&self) -> &BackgroundDistribution {
        &self.background
    }

    /// Consume the engine, keeping only its fitted distribution (used
    /// when warm state is invalidated but the background must survive).
    pub fn into_background(self) -> BackgroundDistribution {
        self.background
    }

    /// The underlying solver (λ's, partition, residuals, …).
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// What the last background refresh had to recompute.
    pub fn last_refresh(&self) -> RefreshStats {
        self.last_refresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{cluster_constraints, margin_constraints};
    use crate::rowset::RowSet;
    use sider_stats::Rng;

    fn tight() -> FitOpts {
        FitOpts {
            lambda_tol: 1e-8,
            moment_tol: 1e-8,
            max_sweeps: 5000,
            ..FitOpts::default()
        }
    }

    fn cold(
        data: &Matrix,
        cs: Vec<Constraint>,
        opts: &FitOpts,
    ) -> (SolverState, ConvergenceReport) {
        SolverState::cold_with(data, cs, opts, Arc::new(ThreadPool::serial())).unwrap()
    }

    fn gen_data(seed: u64, n: usize, d: usize) -> Matrix {
        let mut rng = Rng::seed_from_u64(seed);
        Matrix::from_fn(n, d, |_, j| {
            rng.normal(0.2 * j as f64, 1.0 + 0.3 * j as f64)
        })
    }

    #[test]
    fn cold_then_empty_refit_is_free() {
        let data = gen_data(3, 40, 3);
        let (mut state, report) = cold(&data, margin_constraints(&data).unwrap(), &tight());
        assert!(report.converged);
        assert!(report.sweeps_done() > 0);
        // Nothing new: the refit must not sweep or re-decompose at all.
        let report2 = state.refit(Vec::new(), &tight()).unwrap();
        assert!(report2.converged);
        assert_eq!(report2.sweeps_done(), 0);
        assert_eq!(state.last_refresh().eigen_recomputed, 0);
        assert_eq!(state.last_refresh().mean_updated, 0);
    }

    #[test]
    fn truncated_fit_is_resumed_not_abandoned() {
        // A budget-truncated fit leaves unconverged residuals; a later
        // refit with no new knowledge must resume them, not early-return
        // a fake "converged" on an empty active set.
        let data = gen_data(23, 25, 3);
        let mut cs = margin_constraints(&data).unwrap();
        cs.extend(
            cluster_constraints(&data, RowSet::from_indices(&[0, 1, 2, 3, 4, 5]), "c").unwrap(),
        );
        let truncated = FitOpts {
            max_sweeps: 1,
            ..tight()
        };
        let (mut state, report) = cold(&data, cs.clone(), &truncated);
        assert!(!report.converged, "1 sweep must not converge this system");

        let resume = state.refit(Vec::new(), &tight()).unwrap();
        assert!(resume.converged);
        assert!(resume.sweeps_done() > 0, "resume must actually sweep");

        let (full, _) = cold(&data, cs, &tight());
        for row in 0..25 {
            for (a, b) in state
                .background()
                .mean(row)
                .iter()
                .zip(full.background().mean(row))
            {
                assert!((a - b).abs() < 1e-5, "row {row}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn warm_refit_matches_cold_fit() {
        let data = gen_data(11, 30, 3);
        let margins = margin_constraints(&data).unwrap();
        let cluster =
            cluster_constraints(&data, RowSet::from_indices(&[0, 1, 2, 3, 4, 5, 6]), "c").unwrap();

        let (mut warm, _) = cold(&data, margins.clone(), &tight());
        warm.refit(cluster.clone(), &tight()).unwrap();

        let mut all = margins;
        all.extend(cluster);
        let (cold, _) = cold(&data, all, &tight());

        for row in 0..30 {
            let mw = warm.background().mean(row);
            let mc = cold.background().mean(row);
            for (a, b) in mw.iter().zip(mc) {
                assert!((a - b).abs() < 1e-6, "row {row} mean {a} vs {b}");
            }
            assert!(
                warm.solver()
                    .params_for_row(row)
                    .sigma
                    .max_abs_diff(&cold.solver().params_for_row(row).sigma)
                    < 1e-6,
                "row {row}"
            );
            let (kw, kc) = (
                warm.background().kl_from_prior(row),
                cold.background().kl_from_prior(row),
            );
            assert!((kw - kc).abs() < 1e-6, "row {row} KL {kw} vs {kc}");
        }
    }

    #[test]
    fn disjoint_knowledge_leaves_classes_cached() {
        // Two disjoint clusters: fitting A then appending B must not
        // re-decompose A's classes (they are outside the active set).
        let data = gen_data(17, 24, 2);
        let a = cluster_constraints(&data, RowSet::from_indices(&[0, 1, 2, 3, 4]), "a").unwrap();
        let b = cluster_constraints(&data, RowSet::from_indices(&[10, 11, 12, 13]), "b").unwrap();
        let (mut state, _) = cold(&data, a, &tight());
        let classes_before = state.solver().n_classes();
        state.refit(b, &tight()).unwrap();
        let stats = state.last_refresh();
        // B's rows split off one new class from the background class; A's
        // class and the remaining background class stay cached.
        assert!(state.solver().n_classes() > classes_before);
        assert!(
            stats.eigen_recomputed < stats.classes_total,
            "expected untouched classes to keep cached decompositions: {stats:?}"
        );
        // The refreshed background must still match a cold rebuild.
        let rebuilt = state.solver().distribution();
        assert_eq!(
            state.background().whiten(&data).unwrap().as_slice(),
            rebuilt.whiten(&data).unwrap().as_slice()
        );
        for row in 0..24 {
            assert_eq!(
                state.background().kl_from_prior(row).to_bits(),
                rebuilt.kl_from_prior(row).to_bits()
            );
        }
    }
}
