//! Coordinate-ascent solver for the MaxEnt problem (paper §II-A-1).
//!
//! The solver iterates over constraints; for each it finds the multiplier
//! change `λ` that makes the constraint hold exactly given the current
//! state of all the others, then applies the corresponding natural- and
//! dual-parameter updates. Convexity of Problem 1 guarantees convergence
//! to the global optimum.
//!
//! Per update the cost is `O(d²)` per affected equivalence class: linear
//! constraints use the closed form of Eq. 9, quadratic constraints solve
//! the monotone scalar equation of Eq. 10 ([`crate::rootfind`]) and update
//! covariances with the Sherman–Morrison identity
//! (`sider_linalg::woodbury`), never inverting a matrix.
//!
//! A constraint whose direction is a unit axis `e_j` (every margin
//! constraint) skips the dense `O(d²)` reads: `Σw` is row `j` of `Σ`,
//! `wᵀΣw` is `Σ_jj`, `mᵀw` is `m_j`, and the natural-parameter updates
//! touch only `h_j` and `P_jj`. Each equals its dense counterpart bit for
//! bit on the solver's state, which stays exactly symmetric, finite and
//! free of `-0.0` entries (see the `woodbury` module).

use crate::classes::{Partition, Refinement};
use crate::constraint::{Constraint, ConstraintKind};
use crate::distribution::BackgroundDistribution;
use crate::error::MaxEntError;
use crate::params::ClassParams;
use crate::rootfind::{solve_quad_lambda, QuadItem};
use crate::Result;
use sider_linalg::{vector, woodbury, Matrix};
use std::time::{Duration, Instant};

/// Clamp for unbounded multipliers (zero-variance targets): the
/// `lambda_max` every [`Solver::fit`] sweeps with.
const LAMBDA_MAX: f64 = 1e12;

/// Options controlling [`Solver::fit`].
///
/// The defaults mirror the paper: convergence when the maximal absolute
/// change of the λ parameters in a sweep is ≤ 1e−2, **or** when the maximal
/// change of constraint means / square roots of variances is ≤ 1e−2 times
/// the standard deviation of the full data (§II-A-2); SIDER additionally
/// cuts off after ~10 s wall clock (`time_cutoff`), which we leave `None`
/// by default so experiments match the "no cutoff" Table II setup.
#[derive(Debug, Clone)]
pub struct FitOpts {
    /// Sweep-level tolerance on `max_t |Δλ_t|`.
    pub lambda_tol: f64,
    /// Tolerance factor on moment changes, multiplied by `sd(full data)`.
    pub moment_tol: f64,
    /// Hard sweep budget.
    pub max_sweeps: usize,
    /// Optional wall-clock cutoff (the SIDER default is ~10 s).
    pub time_cutoff: Option<Duration>,
}

impl Default for FitOpts {
    fn default() -> Self {
        FitOpts {
            lambda_tol: 1e-2,
            moment_tol: 1e-2,
            max_sweeps: 500,
            time_cutoff: None,
        }
    }
}

/// Diagnostics of one sweep over all constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepInfo {
    /// Sweep index (1-based).
    pub sweep: usize,
    /// `max_t |Δλ_t|` within the sweep.
    pub max_lambda_change: f64,
    /// Maximal change of normalized constraint moments (means and square
    /// roots of variances, per point) since the previous sweep.
    pub max_moment_change: f64,
    /// Maximal per-point residual `|v_t − v̂_t| / |Iᵗ|` after the sweep.
    pub max_residual: f64,
}

/// Outcome of [`Solver::fit`].
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// Sweeps performed.
    pub sweeps: usize,
    /// Whether a convergence criterion was met (vs. budget exhaustion).
    pub converged: bool,
    /// Whether the wall-clock cutoff fired.
    pub hit_time_cutoff: bool,
    /// Wall-clock time spent in `fit`.
    pub elapsed: Duration,
    /// Info of the final sweep.
    pub last: Option<SweepInfo>,
}

impl ConvergenceReport {
    /// Sweeps performed by this `fit` call (the warm-vs-cold comparison
    /// metric: a warm-started refit must do measurably fewer).
    pub fn sweeps_done(&self) -> usize {
        self.sweeps
    }
}

/// The MaxEnt background-distribution solver.
///
/// Besides the one-shot `new` + `fit` flow, the solver supports the
/// *incremental* flow that powers the interactive loop:
/// [`Solver::append_constraints`] refines the equivalence-class partition
/// in place (splitting only affected classes and warm-starting the new
/// sub-classes from their parents' parameters), keeps all converged λ
/// multipliers, and restricts the next [`Solver::fit`] to the *active set*
/// of constraints — the appended ones plus, transitively, every constraint
/// sharing an equivalence class with one whose multiplier moved. Classes
/// untouched by the active set keep their parameters bit-for-bit, which
/// the per-class dirty flags ([`Solver::mean_dirty`], [`Solver::cov_dirty`])
/// expose so downstream caches (spectral decompositions in
/// `BackgroundDistribution`) can skip recomputation.
#[derive(Debug, Clone)]
pub struct Solver {
    d: usize,
    constraints: Vec<Constraint>,
    partition: Partition,
    params: Vec<ClassParams>,
    lambdas: Vec<f64>,
    sd_full: f64,
    prev_moments: Vec<f64>,
    sweeps_done: usize,
    /// Constraints eligible for updates in the next sweeps. `Solver::new`
    /// activates everything (cold fit); `append_constraints` narrows this
    /// to the appended constraints and their neighborhood.
    active: Vec<bool>,
    /// Whether the last `fit` call met a convergence criterion. While
    /// false, `append_constraints` keeps the current active set (the
    /// unfinished residuals) instead of narrowing to the appended
    /// neighborhood, so a budget-truncated fit is resumed, not abandoned.
    last_fit_converged: bool,
    /// Per-class flag: the class mean `m` changed since `reset_dirty`.
    mean_dirty: Vec<bool>,
    /// Per-class flag: the class covariance `Σ` (hence its spectral
    /// decomposition) changed since `reset_dirty`.
    cov_dirty: Vec<bool>,
    /// Inverse of `partition.classes_of_constraint`: the constraints
    /// covering each class (drives active-set propagation).
    constraints_of_class: Vec<Vec<u32>>,
    /// Parent class (in the pre-append partition) of every class; identity
    /// for classes that predate the last `append_constraints` call.
    parent_of_class: Vec<u32>,
    /// Per constraint: `Some(j)` when its direction is the unit axis
    /// `e_j`, recorded once when the constraint is added. Selects the
    /// unit-axis path of the module docs.
    axis: Vec<Option<usize>>,
}

/// The axis `j` when `w` is the unit vector `e_j`: exactly one non-zero
/// entry, and that entry is `1.0`.
fn unit_axis(w: &[f64]) -> Option<usize> {
    let mut nonzero = w.iter().enumerate().filter(|&(_, &v)| v != 0.0);
    match (nonzero.next(), nonzero.next()) {
        (Some((j, &1.0)), None) => Some(j),
        _ => None,
    }
}

/// `vᵀw`, read as `v_j` when `w = e_j`.
fn along(v: &[f64], w: &[f64], axis: Option<usize>) -> f64 {
    match axis {
        Some(j) => v[j],
        None => vector::dot(v, w),
    }
}

/// `v += α·w`, touching only `v_j` when `w = e_j`.
fn add_along(v: &mut [f64], alpha: f64, w: &[f64], axis: Option<usize>) {
    match axis {
        Some(j) => v[j] += alpha,
        None => vector::axpy(alpha, w, v),
    }
}

/// `Σw`, read as row `j` of the exactly symmetric `Σ` when `w = e_j`.
fn sigma_times(sigma: &Matrix, w: &[f64], axis: Option<usize>) -> Vec<f64> {
    match axis {
        Some(j) => sigma.row(j).to_vec(),
        None => sigma.matvec(w),
    }
}

/// `max(acc, x)` that keeps a NaN on either side (`f64::max` drops it),
/// so a sweep with a NaN multiplier step, moment or residual can never
/// read as converged.
fn max_keep_nan(acc: f64, x: f64) -> f64 {
    if acc.is_nan() || x.is_nan() {
        f64::NAN
    } else {
        acc.max(x)
    }
}

fn validate_constraints(constraints: &[Constraint], n: usize, d: usize) -> Result<()> {
    for c in constraints {
        c.rows.validate(n)?;
        if c.w.len() != d {
            return Err(MaxEntError::BadDirection {
                expected: d,
                got: c.w.len(),
            });
        }
    }
    Ok(())
}

/// Constraints covering each class — the inverse of
/// `Partition::classes_of_constraint`.
fn invert_partition(partition: &Partition) -> Vec<Vec<u32>> {
    let mut constraints_of_class: Vec<Vec<u32>> = vec![Vec::new(); partition.n_classes()];
    for (t, classes) in partition.classes_of_constraint.iter().enumerate() {
        for &(class, _) in classes {
            constraints_of_class[class as usize].push(t as u32);
        }
    }
    constraints_of_class
}

impl Solver {
    /// Set up the solver for `data` with the given constraints. The
    /// equivalence-class partition is computed here; parameters start at
    /// the spherical Gaussian prior.
    pub fn new(data: &Matrix, constraints: Vec<Constraint>) -> Result<Self> {
        let (n, d) = data.shape();
        if n == 0 || d == 0 {
            return Err(MaxEntError::EmptyData);
        }
        if !data.is_finite() {
            return Err(MaxEntError::NotFinite);
        }
        validate_constraints(&constraints, n, d)?;
        let partition = Partition::new(n, &constraints);
        let params = partition
            .class_counts
            .iter()
            .map(|&count| ClassParams::prior(d, count))
            .collect();
        let sd_full = sider_stats::descriptive::full_data_sd(data).max(1e-12);
        let k = constraints.len();
        let n_classes = partition.n_classes();
        let constraints_of_class = invert_partition(&partition);
        let axis = constraints.iter().map(|c| unit_axis(&c.w)).collect();
        let mut solver = Solver {
            d,
            constraints,
            partition,
            params,
            lambdas: vec![0.0; k],
            sd_full,
            prev_moments: vec![0.0; k],
            sweeps_done: 0,
            active: vec![true; k],
            last_fit_converged: false,
            mean_dirty: vec![false; n_classes],
            cov_dirty: vec![false; n_classes],
            constraints_of_class,
            parent_of_class: (0..n_classes as u32).collect(),
            axis,
        };
        solver.prev_moments = (0..k).map(|t| solver.moment(t)).collect();
        Ok(solver)
    }

    /// Append constraints to a (typically already fitted) solver without
    /// discarding its state: the equivalence-class partition is refined in
    /// place, sub-classes split off by the new constraints inherit their
    /// parents' parameters (exact, since no new multiplier has moved yet),
    /// all converged λ's are kept, and the *active set* for the next
    /// [`Solver::fit`] is narrowed to the appended constraints plus every
    /// old constraint sharing an equivalence class with them. Returns the
    /// partition [`Refinement`].
    pub fn append_constraints(&mut self, new: Vec<Constraint>) -> Result<Refinement> {
        let n = self.partition.n_rows();
        validate_constraints(&new, n, self.d)?;
        if new.is_empty() {
            // Nothing appended. If the last fit converged there is nothing
            // to do (empty active set); if it was truncated by a budget,
            // keep its active set so the next fit resumes it.
            if self.last_fit_converged {
                self.active.iter_mut().for_each(|a| *a = false);
            }
            self.parent_of_class = (0..self.partition.n_classes() as u32).collect();
            return Ok(Refinement {
                parent_of_class: self.parent_of_class.clone(),
                n_old_classes: self.partition.n_classes(),
            });
        }
        let first_new = self.constraints.len();
        self.axis.extend(new.iter().map(|c| unit_axis(&c.w)));
        self.constraints.extend(new);
        let refinement = self.partition.append(&self.constraints, first_new);

        // Warm-start split-off classes from their parents; refresh counts.
        for (c, &count) in self.partition.class_counts.iter().enumerate() {
            if c < refinement.n_old_classes {
                self.params[c].count = count;
            } else {
                let parent = refinement.parent_of_class[c] as usize;
                self.params.push(self.params[parent].split_off(count));
            }
        }
        let n_classes = self.partition.n_classes();
        self.mean_dirty.resize(n_classes, false);
        self.cov_dirty.resize(n_classes, false);
        // A child carries its parent's parameters, so relative to any
        // downstream cache synced at the last `reset_dirty` it is exactly
        // as stale as the parent: inherit the dirty flags. (Without this,
        // a split off a cov-dirty parent would clone the parent's
        // pre-move cached spectrum and be skipped by the refresh, leaving
        // the cache silently inconsistent with the solver.)
        for c in refinement.n_old_classes..n_classes {
            let parent = refinement.parent_of_class[c] as usize;
            self.mean_dirty[c] = self.mean_dirty[parent];
            self.cov_dirty[c] = self.cov_dirty[parent];
        }
        self.parent_of_class = refinement.parent_of_class.clone();
        // Extend the class→constraints index incrementally: an old
        // constraint covering a split class covers all its descendants
        // (a class is always fully inside or outside a row set), so each
        // new class inherits its parent's covering set; then the appended
        // constraints are added to every class they cover.
        for c in refinement.n_old_classes..n_classes {
            let parent = refinement.parent_of_class[c] as usize;
            self.constraints_of_class
                .push(self.constraints_of_class[parent].clone());
        }
        for (t, classes) in self
            .partition
            .classes_of_constraint
            .iter()
            .enumerate()
            .skip(first_new)
        {
            for &(class, _) in classes {
                self.constraints_of_class[class as usize].push(t as u32);
            }
        }

        // New multipliers start at zero: with them, the appended
        // constraints contribute nothing yet, so the solver state is
        // exactly the previous optimum under a finer partition.
        let k = self.constraints.len();
        self.lambdas.resize(k, 0.0);

        // Active set: the appended constraints, plus old constraints that
        // share a class with them (their optimality is perturbed as soon as
        // a new multiplier moves). Activation propagates further during
        // sweeps whenever an update actually changes a class. If the last
        // fit was truncated before converging, its active set is kept (the
        // union is solved), so unfinished residuals are never abandoned.
        if self.last_fit_converged {
            self.active.iter_mut().for_each(|a| *a = false);
        }
        self.active.resize(k, false);
        for t in first_new..k {
            self.active[t] = true;
            for &(class, _) in &self.partition.classes_of_constraint[t] {
                for &u in &self.constraints_of_class[class as usize] {
                    self.active[u as usize] = true;
                }
            }
        }

        // Splitting preserves every old constraint's expectation (the
        // descendants carry the same parameters and the same total row
        // count), so only the appended constraints need fresh moments.
        for t in first_new..k {
            self.prev_moments.push(self.moment(t));
        }
        Ok(refinement)
    }

    fn moment(&self, t: usize) -> f64 {
        self.moment_of(t, self.expectation(t))
    }

    /// Normalized moment of constraint `t` from its expectation `v`: the
    /// per-point mean, or the square root of the per-point variance.
    fn moment_of(&self, t: usize, v: f64) -> f64 {
        let c = &self.constraints[t];
        let n = c.rows.len() as f64;
        match c.kind {
            ConstraintKind::Linear => v / n,
            // `v.max(0.0)` would turn a NaN expectation into a zero moment.
            ConstraintKind::Quadratic if v.is_nan() => v,
            ConstraintKind::Quadratic => (v.max(0.0) / n).sqrt(),
        }
    }

    /// Current model expectation `E_p[f_t]` of constraint `t`.
    pub fn expectation(&self, t: usize) -> f64 {
        let c = &self.constraints[t];
        let (w, axis) = (&c.w, self.axis[t]);
        let mut v = 0.0;
        for &(class, count) in &self.partition.classes_of_constraint[t] {
            let p = &self.params[class as usize];
            match c.kind {
                ConstraintKind::Linear => {
                    v += count as f64 * along(&p.m, w, axis);
                }
                ConstraintKind::Quadratic => {
                    let cvar = match axis {
                        Some(j) => p.sigma[(j, j)],
                        None => p.sigma.quad_form(w),
                    };
                    let dev = along(&p.m, w, axis) - c.delta;
                    v += count as f64 * (cvar + dev * dev);
                }
            }
        }
        v
    }

    /// Per-point residuals `(v_t − v̂_t)/|Iᵗ|` for every constraint.
    pub fn residuals(&self) -> Vec<f64> {
        (0..self.constraints.len())
            .map(|t| {
                (self.expectation(t) - self.constraints[t].target)
                    / self.constraints[t].rows.len() as f64
            })
            .collect()
    }

    /// One pass over the active constraints (a "sweep").
    ///
    /// After `Solver::new` every constraint is active, so this is the
    /// paper's plain coordinate-ascent sweep. After
    /// [`Solver::append_constraints`] only the appended constraints and
    /// their neighborhood are swept; whenever an update actually moves a
    /// class, the constraints covering that class are (re-)activated, so
    /// the working set grows exactly to the region the new knowledge
    /// perturbs. Constraints outside it keep their λ and their classes'
    /// parameters bit-for-bit.
    ///
    /// The closing convergence pass evaluates each active constraint's
    /// expectation once and derives both its moment and its residual from
    /// it. The three maxima keep a NaN, so a sweep that produced one never
    /// meets a convergence criterion of [`Solver::fit`].
    pub fn sweep(&mut self, lambda_max: f64) -> SweepInfo {
        let mut max_dl = 0.0_f64;
        for t in 0..self.constraints.len() {
            if !self.active[t] {
                continue;
            }
            let dl = match self.constraints[t].kind {
                ConstraintKind::Linear => self.update_linear(t),
                ConstraintKind::Quadratic => self.update_quadratic(t, lambda_max),
            };
            self.lambdas[t] += dl;
            max_dl = max_keep_nan(max_dl, dl.abs());
            if dl != 0.0 {
                self.mark_touched(t);
            }
        }
        self.sweeps_done += 1;
        let mut max_dm = 0.0_f64;
        let mut max_res = 0.0_f64;
        for t in 0..self.constraints.len() {
            if !self.active[t] {
                continue;
            }
            let v = self.expectation(t);
            let m = self.moment_of(t, v);
            max_dm = max_keep_nan(max_dm, (m - self.prev_moments[t]).abs());
            self.prev_moments[t] = m;
            let res =
                (v - self.constraints[t].target).abs() / self.constraints[t].rows.len() as f64;
            max_res = max_keep_nan(max_res, res);
        }
        SweepInfo {
            sweep: self.sweeps_done,
            max_lambda_change: max_dl,
            max_moment_change: max_dm,
            max_residual: max_res,
        }
    }

    /// Record that constraint `t`'s update moved its classes: flag them
    /// dirty (covariance only for quadratic updates — linear updates touch
    /// `h`/`m` but never `Σ`) and activate every constraint covering them.
    fn mark_touched(&mut self, t: usize) {
        let quadratic = self.constraints[t].kind == ConstraintKind::Quadratic;
        for &(class, _) in &self.partition.classes_of_constraint[t] {
            let class = class as usize;
            self.mean_dirty[class] = true;
            if quadratic {
                self.cov_dirty[class] = true;
            }
            for &u in &self.constraints_of_class[class] {
                self.active[u as usize] = true;
            }
        }
    }

    /// Closed-form linear update (Eq. 9): `λ = (v̂ − ṽ)/Σ_{i∈I} wᵀΣ̃_i w`,
    /// then `h += λw`, `m += λΣ̃w`; covariances are untouched.
    fn update_linear(&mut self, t: usize) -> f64 {
        let (w, target) = {
            let c = &self.constraints[t];
            (c.w.clone(), c.target)
        };
        let axis = self.axis[t];
        // Gather g = Σw per class; accumulate ṽ and the denominator.
        let classes = self.partition.classes_of_constraint[t].clone();
        let mut v_now = 0.0;
        let mut denom = 0.0;
        let mut gs: Vec<(u32, Vec<f64>)> = Vec::with_capacity(classes.len());
        for &(class, count) in &classes {
            let p = &self.params[class as usize];
            let g = sigma_times(&p.sigma, &w, axis);
            v_now += count as f64 * along(&p.m, &w, axis);
            denom += count as f64 * along(&g, &w, axis);
            gs.push((class, g));
        }
        if denom <= 1e-300 {
            return 0.0; // fully constrained direction: cannot move
        }
        let lambda = (target - v_now) / denom;
        if lambda == 0.0 {
            return 0.0;
        }
        for (class, g) in gs {
            let p = &mut self.params[class as usize];
            add_along(&mut p.h, lambda, &w, axis);
            vector::axpy(lambda, &g, &mut p.m);
        }
        lambda
    }

    /// Quadratic update (Eq. 10): solve the monotone scalar equation for
    /// λ, then `P += λwwᵀ` (rank-1), `Σ` via Sherman–Morrison, `h += λδw`,
    /// `m = Σh`.
    fn update_quadratic(&mut self, t: usize, lambda_max: f64) -> f64 {
        let (w, target, delta) = {
            let c = &self.constraints[t];
            (c.w.clone(), c.target, c.delta)
        };
        let axis = self.axis[t];
        // `lambda_max` caps the *cumulative* multiplier: a zero-variance
        // target (v̂ = 0) would otherwise push λ by `lambda_max` again on
        // every sweep, blowing up the precision without changing anything.
        let budget = (lambda_max - self.lambdas[t]).max(0.0);
        let classes = self.partition.classes_of_constraint[t].clone();
        let mut items = Vec::with_capacity(classes.len());
        let mut rank1s: Vec<(u32, woodbury::Rank1)> = Vec::with_capacity(classes.len());
        for &(class, count) in &classes {
            let p = &self.params[class as usize];
            let g = sigma_times(&p.sigma, &w, axis);
            let r = woodbury::Rank1 {
                c: along(&g, &w, axis),
                g,
            };
            items.push(QuadItem {
                weight: count as f64,
                c: r.c.max(0.0),
                e: along(&p.m, &w, axis),
            });
            rank1s.push((class, r));
        }
        let solve = solve_quad_lambda(&items, delta, target, budget);
        let lambda = solve.lambda;
        if lambda == 0.0 {
            return 0.0;
        }
        for (class, r) in rank1s {
            let p = &mut self.params[class as usize];
            woodbury::apply(&mut p.sigma, &r, lambda);
            match axis {
                Some(j) => p.prec[(j, j)] += lambda,
                None => woodbury::precision_update(&mut p.prec, &w, lambda),
            }
            add_along(&mut p.h, lambda * delta, &w, axis);
            p.refresh_mean();
        }
        lambda
    }

    /// Run sweeps until convergence (per `opts`) or budget exhaustion.
    pub fn fit(&mut self, opts: &FitOpts) -> ConvergenceReport {
        let start = Instant::now();
        let mut last = None;
        let mut converged = false;
        let mut hit_time_cutoff = false;
        let mut sweeps = 0;
        // Nothing to optimize: no constraints at all, or a warm refit with
        // an empty active set (no knowledge appended since convergence).
        if self.constraints.is_empty() || !self.active.iter().any(|&a| a) {
            self.last_fit_converged = true;
            return ConvergenceReport {
                sweeps: 0,
                converged: true,
                hit_time_cutoff: false,
                elapsed: start.elapsed(),
                last: None,
            };
        }
        for _ in 0..opts.max_sweeps {
            let info = self.sweep(LAMBDA_MAX);
            sweeps += 1;
            let lambda_ok = info.max_lambda_change <= opts.lambda_tol;
            let moment_ok = info.max_moment_change <= opts.moment_tol * self.sd_full;
            last = Some(info);
            if lambda_ok || moment_ok {
                converged = true;
                break;
            }
            if let Some(cutoff) = opts.time_cutoff {
                if start.elapsed() >= cutoff {
                    hit_time_cutoff = true;
                    break;
                }
            }
        }
        self.last_fit_converged = converged;
        ConvergenceReport {
            sweeps,
            converged,
            hit_time_cutoff,
            elapsed: start.elapsed(),
            last,
        }
    }

    /// Number of equivalence classes.
    pub fn n_classes(&self) -> usize {
        self.params.len()
    }

    /// Class id of a row.
    pub fn class_of_row(&self, row: usize) -> usize {
        self.partition.class_of_row[row] as usize
    }

    /// Parameters of the class containing `row`.
    pub fn params_for_row(&self, row: usize) -> &ClassParams {
        &self.params[self.class_of_row(row)]
    }

    /// Cumulative multipliers per constraint.
    pub fn lambdas(&self) -> &[f64] {
        &self.lambdas
    }

    /// The constraints driving this solver.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Sweeps performed so far.
    pub fn sweeps_done(&self) -> usize {
        self.sweeps_done
    }

    /// Standard deviation of the full data (the moment-criterion scale).
    pub fn sd_full(&self) -> f64 {
        self.sd_full
    }

    /// Per-class flags: mean changed since the last [`Solver::reset_dirty`].
    pub fn mean_dirty(&self) -> &[bool] {
        &self.mean_dirty
    }

    /// Per-class flags: covariance (hence spectral decomposition) changed
    /// since the last [`Solver::reset_dirty`].
    pub fn cov_dirty(&self) -> &[bool] {
        &self.cov_dirty
    }

    /// Clear the per-class dirty flags (call after syncing downstream
    /// caches such as `BackgroundDistribution::refresh_from_class_params_with`).
    pub fn reset_dirty(&mut self) {
        self.mean_dirty.iter_mut().for_each(|f| *f = false);
        self.cov_dirty.iter_mut().for_each(|f| *f = false);
    }

    /// Parent class of every class relative to the last
    /// [`Solver::append_constraints`] refinement (identity before any
    /// append).
    pub fn parent_of_class(&self) -> &[u32] {
        &self.parent_of_class
    }

    /// Forget every recorded unit axis, so every constraint added so far
    /// takes the dense kernels (the reference the axis path must match).
    #[cfg(test)]
    fn clear_axis_table(&mut self) {
        self.axis.iter_mut().for_each(|a| *a = None);
    }

    /// The equivalence-class partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Fitted parameters of every equivalence class.
    pub fn class_params(&self) -> &[ClassParams] {
        &self.params
    }

    /// Snapshot the fitted background distribution.
    pub fn distribution(&self) -> BackgroundDistribution {
        self.distribution_with(&sider_par::ThreadPool::serial())
    }

    /// [`Solver::distribution`] with the per-class eigendecompositions
    /// distributed over `pool` (identical result at any pool size).
    pub fn distribution_with(&self, pool: &sider_par::ThreadPool) -> BackgroundDistribution {
        BackgroundDistribution::from_class_params_with(
            self.d,
            self.partition.class_of_row.clone(),
            &self.params,
            pool,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{margin_constraints, Constraint};
    use crate::rowset::RowSet;

    /// The adversarial dataset of paper Fig. 5a / Eq. 11.
    fn adversarial_data() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.0, 0.0]])
    }

    /// Constraint set C_A of the paper: lin+quad along e1 and e2 over rows
    /// {0, 2} (paper's rows 1 and 3).
    fn case_a_constraints(data: &Matrix) -> Vec<Constraint> {
        let rows = RowSet::from_indices(&[0, 2]);
        let e1 = vec![1.0, 0.0];
        let e2 = vec![0.0, 1.0];
        vec![
            Constraint::linear(data, rows.clone(), e1.clone(), "c1").unwrap(),
            Constraint::quadratic(data, rows.clone(), e1, "c2").unwrap(),
            Constraint::linear(data, rows.clone(), e2.clone(), "c3").unwrap(),
            Constraint::quadratic(data, rows, e2, "c4").unwrap(),
        ]
    }

    /// Constraint set C_B: C_A plus the same constraints over rows {1, 2}.
    fn case_b_constraints(data: &Matrix) -> Vec<Constraint> {
        let mut cs = case_a_constraints(data);
        let rows = RowSet::from_indices(&[1, 2]);
        let e1 = vec![1.0, 0.0];
        let e2 = vec![0.0, 1.0];
        cs.push(Constraint::linear(data, rows.clone(), e1.clone(), "c5").unwrap());
        cs.push(Constraint::quadratic(data, rows.clone(), e1, "c6").unwrap());
        cs.push(Constraint::linear(data, rows.clone(), e2.clone(), "c7").unwrap());
        cs.push(Constraint::quadratic(data, rows, e2, "c8").unwrap());
        cs
    }

    #[test]
    fn no_constraints_stays_at_prior() {
        let data = adversarial_data();
        let mut s = Solver::new(&data, vec![]).unwrap();
        let report = s.fit(&FitOpts::default());
        assert!(report.converged);
        assert_eq!(report.sweeps, 0);
        let p = s.params_for_row(0);
        assert_eq!(p.m, vec![0.0, 0.0]);
        assert_eq!(p.sigma, Matrix::identity(2));
    }

    #[test]
    fn paper_case_a_analytic_solution() {
        // Paper Eq. 12: m1 = m3 = (1/2, 0), m2 = 0,
        // Σ1 = Σ3 = diag(1/4, 0), Σ2 = I. Convergence in ~one pass.
        let data = adversarial_data();
        let mut s = Solver::new(&data, case_a_constraints(&data)).unwrap();
        let report = s.fit(&FitOpts::default());
        assert!(report.converged, "{report:?}");
        assert!(report.sweeps <= 3, "sweeps {}", report.sweeps);

        let p0 = s.params_for_row(0);
        assert!((p0.m[0] - 0.5).abs() < 1e-9, "m = {:?}", p0.m);
        assert!(p0.m[1].abs() < 1e-9);
        assert!((p0.sigma[(0, 0)] - 0.25).abs() < 1e-9);
        assert!(p0.sigma[(1, 1)].abs() < 1e-9); // zero-variance direction
        assert!(p0.sigma[(0, 1)].abs() < 1e-9);

        // Rows 0 and 2 share a class; row 1 is untouched (prior).
        assert_eq!(s.class_of_row(0), s.class_of_row(2));
        let p1 = s.params_for_row(1);
        assert!(vector::norm2(&p1.m) < 1e-12);
        assert!(p1.sigma.max_abs_diff(&Matrix::identity(2)) < 1e-12);
    }

    #[test]
    fn paper_case_b_means_and_slow_variance_decay() {
        // Paper Eq. 13: all covariances → 0; m1 = (1,0), m2 = (0,1), m3 = 0.
        // Convergence is ∝ 1/τ — verify the harmonic decay shape.
        let data = adversarial_data();
        let mut s = Solver::new(&data, case_b_constraints(&data)).unwrap();
        // Run fixed sweep counts and compare (Σ₁)₁₁ at τ and 2τ.
        for _ in 0..64 {
            s.sweep(1e12);
        }
        let v64 = s.params_for_row(0).sigma[(0, 0)];
        for _ in 0..64 {
            s.sweep(1e12);
        }
        let v128 = s.params_for_row(0).sigma[(0, 0)];
        assert!(v64 > 0.0 && v128 > 0.0);
        let ratio = v128 / v64;
        // 1/τ decay ⇒ ratio ≈ 0.5 (allow slack for the early transient).
        assert!((0.3..0.7).contains(&ratio), "ratio {ratio}");

        // Means approach the analytic fixed point.
        let m0 = &s.params_for_row(0).m;
        let m1 = &s.params_for_row(1).m;
        let m2 = &s.params_for_row(2).m;
        assert!((m0[0] - 1.0).abs() < 0.1, "m0 {m0:?}");
        assert!((m1[1] - 1.0).abs() < 0.1, "m1 {m1:?}");
        assert!(m2[0].abs() < 0.1 && m2[1].abs() < 0.1, "m2 {m2:?}");
    }

    #[test]
    fn margin_constraints_reproduce_column_moments() {
        // Deterministic small data; after fitting margins the model mean
        // and variance per column must match the data's (population).
        let data = Matrix::from_rows(&[
            vec![1.0, -2.0],
            vec![2.0, 0.0],
            vec![3.0, 2.0],
            vec![6.0, 4.0],
        ]);
        let cs = margin_constraints(&data).unwrap();
        let mut s = Solver::new(&data, cs).unwrap();
        let report = s.fit(&FitOpts {
            lambda_tol: 1e-10,
            moment_tol: 1e-10,
            max_sweeps: 2000,
            ..FitOpts::default()
        });
        assert!(report.converged, "{report:?}");
        // All rows share one class.
        assert_eq!(s.n_classes(), 1);
        let p = s.params_for_row(0);
        // Column means: 3, 1.
        assert!((p.m[0] - 3.0).abs() < 1e-6);
        assert!((p.m[1] - 1.0).abs() < 1e-6);
        // Column population variances: mean sq deviation: col0: (4+1+0+9)/4 = 3.5; col1: (9+1+1+9)/4 = 5.
        assert!((p.sigma[(0, 0)] - 3.5).abs() < 1e-6, "{:?}", p.sigma);
        assert!((p.sigma[(1, 1)] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn expectations_match_targets_after_fit() {
        // 10 rows, 3 dims, cluster of 5 (> d) rows so every constraint
        // direction carries positive variance and convergence is fast.
        let mut rng = sider_stats::Rng::seed_from_u64(11);
        let data = Matrix::from_fn(10, 3, |i, j| {
            let center = if i < 5 { 1.5 } else { -0.5 };
            center + rng.normal(0.0, 0.5 + 0.3 * j as f64)
        });
        let mut cs = margin_constraints(&data).unwrap();
        cs.extend(
            crate::constraint::cluster_constraints(
                &data,
                RowSet::from_indices(&[0, 1, 2, 3, 4]),
                "cl",
            )
            .unwrap(),
        );
        let mut s = Solver::new(&data, cs).unwrap();
        let report = s.fit(&FitOpts {
            lambda_tol: 1e-10,
            moment_tol: 1e-10,
            max_sweeps: 5000,
            ..FitOpts::default()
        });
        assert!(report.converged, "{report:?}");
        for (t, r) in s.residuals().iter().enumerate() {
            assert!(
                r.abs() < 1e-5,
                "constraint {t} ({}) residual {r}",
                s.constraints()[t].label
            );
        }
    }

    #[test]
    fn sweep_reports_shrinking_changes() {
        let data = adversarial_data();
        let mut s = Solver::new(&data, case_a_constraints(&data)).unwrap();
        let first = s.sweep(1e12);
        let second = s.sweep(1e12);
        assert!(first.max_lambda_change > second.max_lambda_change);
        assert_eq!(second.sweep, 2);
    }

    #[test]
    fn time_cutoff_is_respected() {
        let data = adversarial_data();
        let mut s = Solver::new(&data, case_b_constraints(&data)).unwrap();
        let report = s.fit(&FitOpts {
            lambda_tol: 0.0, // unattainable: Case B never stops changing λ fast
            moment_tol: 0.0,
            max_sweeps: usize::MAX,
            time_cutoff: Some(Duration::from_millis(50)),
        });
        assert!(report.hit_time_cutoff);
        assert!(!report.converged);
        assert!(report.elapsed < Duration::from_secs(5));
    }

    #[test]
    fn rejects_invalid_inputs() {
        let data = Matrix::zeros(0, 0);
        assert!(matches!(
            Solver::new(&data, vec![]),
            Err(MaxEntError::EmptyData)
        ));
        let nan = Matrix::from_rows(&[vec![f64::NAN]]);
        assert!(matches!(
            Solver::new(&nan, vec![]),
            Err(MaxEntError::NotFinite)
        ));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn sweep_bits(info: &SweepInfo) -> [u64; 4] {
        [
            info.sweep as u64,
            info.max_lambda_change.to_bits(),
            info.max_moment_change.to_bits(),
            info.max_residual.to_bits(),
        ]
    }

    /// Both solvers hold the same state bit for bit, and that state has
    /// the shape the unit-axis path and the one-pass rank-1 kernel rely
    /// on: Σ and P exactly symmetric, everything finite, no -0.0.
    fn assert_same_state(a: &Solver, b: &Solver, at: &str) {
        assert_eq!(bits(&a.lambdas), bits(&b.lambdas), "λ {at}");
        assert_eq!(a.params.len(), b.params.len(), "classes {at}");
        for (c, (p, q)) in a.params.iter().zip(&b.params).enumerate() {
            assert_eq!(
                bits(p.sigma.as_slice()),
                bits(q.sigma.as_slice()),
                "Σ[{c}] {at}"
            );
            assert_eq!(
                bits(p.prec.as_slice()),
                bits(q.prec.as_slice()),
                "P[{c}] {at}"
            );
            assert_eq!(bits(&p.m), bits(&q.m), "m[{c}] {at}");
            assert_eq!(bits(&p.h), bits(&q.h), "h[{c}] {at}");
            for (name, mat) in [("Σ", &p.sigma), ("P", &p.prec)] {
                let d = mat.rows();
                for i in 0..d {
                    for j in 0..i {
                        assert_eq!(
                            mat[(i, j)].to_bits(),
                            mat[(j, i)].to_bits(),
                            "{name}[{c}] not exactly symmetric at ({i}, {j}) {at}"
                        );
                    }
                }
            }
            for (name, v) in [
                ("Σ", p.sigma.as_slice()),
                ("P", p.prec.as_slice()),
                ("m", &p.m[..]),
                ("h", &p.h[..]),
            ] {
                assert!(
                    v.iter()
                        .all(|x| x.is_finite() && x.to_bits() != (-0.0f64).to_bits()),
                    "{name}[{c}] holds a non-finite or -0.0 entry {at}"
                );
            }
        }
    }

    /// Run `fit` one sweep at a time on both solvers (the same loop `fit`
    /// runs) and compare after every sweep.
    fn fit_in_lockstep(a: &mut Solver, b: &mut Solver, stage: &str) {
        let one_sweep = FitOpts {
            max_sweeps: 1,
            ..FitOpts::default()
        };
        for sweep in 1..=500 {
            let (ra, rb) = (a.fit(&one_sweep), b.fit(&one_sweep));
            let at = format!("after sweep {sweep} of {stage}");
            assert_eq!(
                ra.last.map(|i| sweep_bits(&i)),
                rb.last.map(|i| sweep_bits(&i)),
                "{at}"
            );
            assert_eq!(ra.converged, rb.converged, "{at}");
            assert_same_state(a, b, &at);
            if ra.converged {
                return;
            }
        }
        panic!("{stage} did not converge in 500 sweeps");
    }

    #[test]
    fn unit_axis_path_matches_dense_kernels_bit_for_bit() {
        let mut rng = sider_stats::Rng::seed_from_u64(17);
        let (n, d) = (96, 8);
        let data = Matrix::from_fn(n, d, |i, j| {
            let center = [1.5, -0.5, 0.25][i % 3] * (1.0 + j as f64 / d as f64);
            center + rng.normal(0.0, 0.4 + 0.1 * j as f64)
        });
        let rows = |r: std::ops::Range<usize>| RowSet::from_indices(&r.collect::<Vec<_>>());
        let axis = |j: usize| {
            (0..d)
                .map(|k| if k == j { 1.0 } else { 0.0 })
                .collect::<Vec<_>>()
        };

        let margins = margin_constraints(&data).unwrap();
        let mut with_axes = Solver::new(&data, margins.clone()).unwrap();
        let mut dense = Solver::new(&data, margins).unwrap();
        dense.clear_axis_table();
        assert_eq!(with_axes.axis.iter().flatten().count(), 2 * d);
        fit_in_lockstep(&mut with_axes, &mut dense, "margins");

        let statements = [
            (
                "cluster",
                crate::constraint::cluster_constraints(&data, rows(0..40), "c1").unwrap(),
            ),
            (
                "twod",
                crate::constraint::twod_constraints(&data, rows(20..70), &axis(1), &axis(4), "v")
                    .unwrap(),
            ),
            (
                "warm cluster",
                crate::constraint::cluster_constraints(&data, rows(50..96), "c2").unwrap(),
            ),
        ];
        for (stage, cs) in statements {
            with_axes.append_constraints(cs.clone()).unwrap();
            dense.append_constraints(cs).unwrap();
            dense.clear_axis_table();
            assert_same_state(&with_axes, &dense, &format!("after appending {stage}"));
            fit_in_lockstep(&mut with_axes, &mut dense, stage);
        }
        // Margins and the two-axis statement take the axis path; the
        // clusters' eigenvector directions do not.
        assert_eq!(with_axes.axis.iter().flatten().count(), 2 * d + 4);
        assert!(dense.axis.iter().all(Option::is_none));
    }

    #[test]
    fn a_nan_expectation_gives_a_nan_moment() {
        let data = adversarial_data();
        let s = Solver::new(&data, case_a_constraints(&data)).unwrap();
        for t in 0..s.constraints().len() {
            assert!(
                s.moment_of(t, f64::NAN).is_nan(),
                "{}",
                s.constraints()[t].label
            );
        }
    }

    /// Margins, then a 3-row cluster on 280×19 segmentation-like data:
    /// the cluster's 16 null directions get zero-variance targets, Σ loses
    /// positive definiteness and the fit's state turns NaN. Such a fit must
    /// not report convergence.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "woodbury::apply's positive-definiteness debug assertion stops this fit before it reaches NaN"
    )]
    fn a_fit_that_reaches_nan_never_reports_converged() {
        use sider_data::segmentation::{segmentation_like, SegmentationOpts};
        let opts = SegmentationOpts {
            per_class: 40,
            n_outliers: 4,
        };
        let data = segmentation_like(&opts, 2018).matrix;
        let mut s = Solver::new(&data, margin_constraints(&data).unwrap()).unwrap();
        assert!(s.fit(&FitOpts::default()).converged);
        let rows = RowSet::from_indices(&[229, 214, 70]);
        let cluster = crate::constraint::cluster_constraints(&data, rows, "cluster1").unwrap();
        s.append_constraints(cluster).unwrap();
        let report = s.fit(&FitOpts::default());
        let nats = s.distribution().total_kl_from_prior();
        assert!(
            !report.converged || nats.is_finite(),
            "converged after {} sweeps with information_nats {nats}",
            report.sweeps
        );
    }

    #[test]
    fn params_stay_internally_consistent() {
        let data = adversarial_data();
        let mut s = Solver::new(&data, case_a_constraints(&data)).unwrap();
        s.fit(&FitOpts::default());
        for row in 0..3 {
            let p = s.params_for_row(row);
            // Σ·P ≈ I only where variance is non-zero; check m = Σh instead,
            // plus symmetry and finiteness.
            let m2 = p.sigma.matvec(&p.h);
            for (a, b) in p.m.iter().zip(&m2) {
                assert!((a - b).abs() < 1e-6);
            }
            assert!(p.sigma.is_symmetric(1e-9));
            assert!(p.sigma.is_finite());
            assert!(p.prec.is_finite());
        }
    }
}
