//! The interactive EDA session.

use crate::error::CoreError;
use crate::view::ViewState;
use crate::Result;
use sider_data::Dataset;
use sider_linalg::Matrix;
use sider_maxent::constraint::{
    cluster_constraints, margin_constraints, one_cluster_constraints, twod_constraints,
};
use sider_maxent::{
    BackgroundDistribution, Constraint, ConvergenceReport, FitOpts, RefreshStats, RowSet,
    SolverState,
};
use sider_par::ThreadPool;
use sider_projection::{
    most_informative_projection_with, pca_directions_from_moment, project, projection_from_pca,
    Method,
};
use sider_stats::Rng;
use std::sync::Arc;

/// Kinds of knowledge the user can feed the system (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnowledgeKind {
    /// Per-column mean + variance over the full data (2d constraints).
    Margin,
    /// Mean + covariance of the full data (2d constraints).
    OneCluster,
    /// Mean + covariance of a marked point cluster (2d constraints).
    Cluster,
    /// Mean + variance along the two current view axes (4 constraints).
    TwoD,
}

/// A record of one knowledge statement added to the session.
#[derive(Debug, Clone)]
pub struct KnowledgeRecord {
    /// Kind of statement.
    pub kind: KnowledgeKind,
    /// The selection it was derived from (empty for whole-data kinds) —
    /// kept so sessions can be snapshotted and replayed.
    pub rows: Vec<usize>,
    /// View axes, for [`KnowledgeKind::TwoD`] statements.
    pub axes: Option<Matrix>,
    /// Primitive constraints generated.
    pub n_constraints: usize,
    /// Label prefix of the generated constraints.
    pub tag: String,
}

impl KnowledgeRecord {
    /// Rows involved.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }
}

/// The SIDER session: dataset + accumulated constraints + fitted
/// background distribution.
///
/// The background starts at the spherical unit Gaussian prior; adding
/// knowledge marks the session *dirty* until [`EdaSession::update_background`]
/// refits (mirroring the SIDER UI, where recomputation is an explicit
/// user-triggered action because it may take seconds — §III).
///
/// The session owns a persistent [`SolverState`]: the first update fits
/// cold, every later update *warm-starts* from the previous optimum —
/// new constraints are appended into the existing equivalence-class
/// partition, converged λ multipliers are kept, and only background
/// classes the fit actually moved are re-decomposed. On small problems
/// that saves sweeps over a cold fit; at d = 100 it does not: the `fit`
/// row of `BENCH_scaling.json` records a cold refit of the BNC corpus's
/// final knowledge in fewer sweeps and less time than its last warm round.
/// [`EdaSession::undo_last_knowledge`] invalidates the engine when it
/// removes already-fitted constraints; [`EdaSession::refit_cold`] is the
/// explicit escape hatch forcing a from-scratch fit.
#[derive(Debug, Clone)]
pub struct EdaSession {
    dataset: Dataset,
    constraints: Vec<Constraint>,
    knowledge: Vec<KnowledgeRecord>,
    background: BackgroundDistribution,
    dirty: bool,
    rng: Rng,
    last_report: Option<ConvergenceReport>,
    /// Warm solver engine persisting across feedback rounds; `None` until
    /// the first update, or after an invalidating undo.
    solver: Option<SolverState>,
    /// How many of `constraints` the engine has absorbed (the rest are
    /// pending and will be appended on the next update).
    fitted_constraints: usize,
    /// Execution pool threaded through fit → sample → project. Shared with
    /// the solver engine; by the `sider_par` determinism contract, session
    /// results are bit-identical at any pool size.
    pool: Arc<ThreadPool>,
}

impl EdaSession {
    /// Start a session on a dataset. `seed` drives background sampling and
    /// ICA initialization, making whole sessions reproducible. The
    /// execution pool is sized from `SIDER_THREADS` (default: available
    /// parallelism); use [`EdaSession::with_pool`] to inject one.
    pub fn new(dataset: Dataset, seed: u64) -> Result<Self> {
        Self::with_pool(dataset, seed, Arc::new(ThreadPool::from_env()))
    }

    /// [`EdaSession::new`] with an explicit execution pool — for sharing
    /// one pool across sessions, or pinning `threads = 1` in tests and
    /// baselines. Results do not depend on the pool size.
    pub fn with_pool(dataset: Dataset, seed: u64, pool: Arc<ThreadPool>) -> Result<Self> {
        dataset.validate().map_err(CoreError::BadDataset)?;
        if dataset.n() == 0 || dataset.d() == 0 {
            return Err(CoreError::BadDataset("empty dataset".into()));
        }
        let background = BackgroundDistribution::prior(dataset.n(), dataset.d());
        Ok(EdaSession {
            dataset,
            constraints: Vec::new(),
            knowledge: Vec::new(),
            background,
            dirty: false,
            rng: Rng::seed_from_u64(seed),
            last_report: None,
            solver: None,
            fitted_constraints: 0,
            pool,
        })
    }

    /// The session's execution pool.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// The dataset under exploration.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The raw data matrix.
    pub fn data(&self) -> &Matrix {
        &self.dataset.matrix
    }

    /// The current background distribution (as of the last update).
    ///
    /// Borrowed straight from the live solver engine when one exists —
    /// the session never copies the engine's distribution; the `prior`
    /// field only serves sessions that have not fitted yet (or whose
    /// engine was invalidated by an undo, which snapshots it first).
    pub fn background(&self) -> &BackgroundDistribution {
        match &self.solver {
            Some(state) => state.background(),
            None => &self.background,
        }
    }

    /// Knowledge statements added so far.
    pub fn knowledge(&self) -> &[KnowledgeRecord] {
        &self.knowledge
    }

    /// Total primitive constraints accumulated.
    pub fn n_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The accumulated primitive constraints (fitted and pending).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Whether knowledge was added since the last background update.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Convergence report of the last update.
    pub fn last_report(&self) -> Option<&ConvergenceReport> {
        self.last_report.as_ref()
    }

    fn selection_rowset(&self, rows: &[usize]) -> Result<RowSet> {
        if rows.is_empty() {
            return Err(CoreError::BadSelection("selection is empty".into()));
        }
        if let Some(&bad) = rows.iter().find(|&&r| r >= self.dataset.n()) {
            return Err(CoreError::BadSelection(format!(
                "row {bad} out of bounds for {} rows",
                self.dataset.n()
            )));
        }
        Ok(RowSet::from_indices(rows))
    }

    fn push(
        &mut self,
        kind: KnowledgeKind,
        tag: String,
        rows: Vec<usize>,
        axes: Option<Matrix>,
        cs: Vec<Constraint>,
    ) {
        self.knowledge.push(KnowledgeRecord {
            kind,
            rows,
            axes,
            n_constraints: cs.len(),
            tag,
        });
        self.constraints.extend(cs);
        self.dirty = true;
    }

    /// Tell the system the marginal mean/variance of every column.
    pub fn add_margin_constraints(&mut self) -> Result<()> {
        let cs = margin_constraints(self.data())?;
        self.push(KnowledgeKind::Margin, "margin".into(), Vec::new(), None, cs);
        Ok(())
    }

    /// Tell the system the overall mean/covariance of the data
    /// (the first move of the segmentation use case, Fig. 9b).
    pub fn add_one_cluster_constraint(&mut self) -> Result<()> {
        let cs = one_cluster_constraints(self.data())?;
        self.push(
            KnowledgeKind::OneCluster,
            "1cluster".into(),
            Vec::new(),
            None,
            cs,
        );
        Ok(())
    }

    /// Mark a point set as a cluster ("this set of points forms a
    /// cluster") — the paper's primary interaction.
    pub fn add_cluster_constraint(&mut self, rows: &[usize]) -> Result<()> {
        let rowset = self.selection_rowset(rows)?;
        let tag = format!("cluster{}", self.knowledge.len());
        let cs = cluster_constraints(self.data(), rowset, tag.clone())?;
        self.push(KnowledgeKind::Cluster, tag, rows.to_vec(), None, cs);
        Ok(())
    }

    /// All rows belonging to class `class` of label set `set` — SIDER's
    /// "add data points to a selection by using pre-defined classes".
    pub fn select_class(&self, set: usize, class: usize) -> Result<Vec<usize>> {
        let ls = self
            .dataset
            .labels
            .get(set)
            .ok_or_else(|| CoreError::BadSelection(format!("no label set {set}")))?;
        if class >= ls.n_classes() {
            return Err(CoreError::BadSelection(format!(
                "label set '{}' has no class {class}",
                ls.title
            )));
        }
        Ok(ls.class_indices(class))
    }

    /// Record the selection's mean/variance along the two axes of the
    /// current view (4 constraints).
    pub fn add_twod_constraint(&mut self, rows: &[usize], axes: &Matrix) -> Result<()> {
        if axes.shape().0 != 2 || axes.cols() != self.dataset.d() {
            return Err(CoreError::BadSelection(format!(
                "axes must be 2x{}, got {}x{}",
                self.dataset.d(),
                axes.rows(),
                axes.cols()
            )));
        }
        let rowset = self.selection_rowset(rows)?;
        let tag = format!("view{}", self.knowledge.len());
        let cs = twod_constraints(self.data(), rowset, axes.row(0), axes.row(1), tag.clone())?;
        self.push(
            KnowledgeKind::TwoD,
            tag,
            rows.to_vec(),
            Some(axes.clone()),
            cs,
        );
        Ok(())
    }

    /// Re-solve the MaxEnt problem with all accumulated constraints
    /// (paper Problem 1) and install the new background distribution.
    ///
    /// Incremental: the first call fits cold; later calls append only the
    /// constraints added since the previous update into the persistent
    /// [`SolverState`] and warm-start from the converged multipliers, so a
    /// round that adds one knowledge statement costs sweeps over its
    /// neighborhood instead of a full re-fit. Use
    /// [`EdaSession::refit_cold`] to force the from-scratch path.
    pub fn update_background(&mut self, opts: &FitOpts) -> Result<ConvergenceReport> {
        let report = match self.solver.as_mut() {
            Some(state) => {
                let pending = self.constraints[self.fitted_constraints..].to_vec();
                state.refit(pending, opts)?
            }
            None => {
                let (state, report) = SolverState::cold_with(
                    &self.dataset.matrix,
                    self.constraints.clone(),
                    opts,
                    Arc::clone(&self.pool),
                )?;
                self.solver = Some(state);
                report
            }
        };
        self.fitted_constraints = self.constraints.len();
        self.dirty = false;
        self.last_report = Some(report.clone());
        Ok(report)
    }

    /// Discard the persistent solver engine and re-solve from scratch —
    /// the escape hatch for anything that invalidates warm state (used
    /// internally after [`EdaSession::undo_last_knowledge`], and available
    /// to callers who want a cold baseline, e.g. for benchmarking the
    /// warm-start speedup).
    pub fn refit_cold(&mut self, opts: &FitOpts) -> Result<ConvergenceReport> {
        self.solver = None;
        self.fitted_constraints = 0;
        self.update_background(opts)
    }

    /// What the last background refresh recomputed (`None` before the
    /// first update). After a warm update, `eigen_recomputed` counts only
    /// the classes whose covariance the fit moved.
    pub fn last_refresh_stats(&self) -> Option<RefreshStats> {
        self.solver.as_ref().map(|s| s.last_refresh())
    }

    /// Whether the next [`EdaSession::update_background`] can warm-start
    /// (a persistent solver engine is alive).
    pub fn has_warm_solver(&self) -> bool {
        self.solver.is_some()
    }

    /// Whiten the data against the current background (paper Eq. 14),
    /// rows distributed over the session pool.
    pub fn whitened(&self) -> Result<Matrix> {
        Ok(self.background().whiten_with(self.data(), &self.pool)?)
    }

    /// How much the accumulated feedback has constrained the model, in
    /// nats: the relative entropy of the background distribution from the
    /// spherical prior (`−S` of the paper's Problem 1). Zero for a fresh
    /// session; grows with every absorbed knowledge statement.
    pub fn information_nats(&self) -> f64 {
        self.background().total_kl_from_prior()
    }

    /// Drop the most recent knowledge statement (and its primitive
    /// constraints). The background distribution still reflects the last
    /// update; call [`EdaSession::update_background`] to refit without the
    /// removed knowledge. Returns the removed record, or `None` if no
    /// knowledge was added yet.
    ///
    /// Constraints can only be *appended* to the warm engine, so undoing
    /// knowledge that was already fitted invalidates it — the next update
    /// falls back to a cold fit. Undoing knowledge that was added but not
    /// yet fitted only trims the pending queue and keeps the warm state.
    pub fn undo_last_knowledge(&mut self) -> Option<KnowledgeRecord> {
        let record = self.knowledge.pop()?;
        let keep = self.constraints.len() - record.n_constraints;
        self.constraints.truncate(keep);
        if keep < self.fitted_constraints {
            // Already inside the engine: warm state no longer matches.
            // Keep its fitted distribution as the session's background (it
            // still reflects the last update) and drop the solver.
            if let Some(state) = self.solver.take() {
                self.background = state.into_background();
            }
            self.fitted_constraints = 0;
        }
        self.dirty = true;
        Some(record)
    }

    /// Compute the next most-informative view: whiten, run projection
    /// pursuit, project the raw data and a fresh background sample onto
    /// the found directions (paper Fig. 1, steps b–c).
    ///
    /// The PCA arm runs fused: the whitened second moment is accumulated
    /// directly from the raw data
    /// ([`sider_maxent::BackgroundDistribution::whitened_second_moment_with`])
    /// without materializing the `n × d` whitened matrix, then
    /// eigendecomposed via [`sider_projection::pca_directions_from_moment`].
    /// Bit-identical to the two-pass whiten-then-pursue formulation (which
    /// the ICA arm still uses — FastICA iterates over the whitened rows).
    pub fn next_view(&mut self, method: &Method) -> Result<ViewState> {
        let projection = match method {
            Method::Pca => {
                let moment = self
                    .background()
                    .whitened_second_moment_with(self.data(), &self.pool)?;
                projection_from_pca(pca_directions_from_moment(self.data().rows(), moment)?)
            }
            _ => {
                let whitened = self.whitened()?;
                most_informative_projection_with(&whitened, method, &mut self.rng, &self.pool)?
            }
        };
        let projected_data = project(self.data(), &projection.axes);
        let seed = self.draw_sample_seed();
        let background_sample = self.background().sample_from_seed(seed, &self.pool);
        let projected_background = project(&background_sample, &projection.axes);
        let axis_labels = projection.labels(&self.dataset.column_names, 5);
        Ok(ViewState {
            projection,
            projected_data,
            projected_background,
            axis_labels,
        })
    }

    /// Replay a view the session served: leave the session exactly as
    /// [`EdaSession::next_view`] with `method` left it, without building
    /// the view. A PCA view touches the session only through the one draw
    /// that seeds its background sample, so replaying it is that draw. An
    /// ICA view runs in full: FastICA's start draws depend on the rank of
    /// the whitened data. Only for views that succeeded when served (a
    /// logged op): a PCA view that failed drew nothing.
    pub fn skip_view(&mut self, method: &Method) -> Result<()> {
        match method {
            Method::Pca => {
                self.draw_sample_seed();
                Ok(())
            }
            Method::Ica(_) => self.next_view(method).map(drop),
        }
    }

    /// The seed of a view's background sample: the one session RNG draw a
    /// PCA view makes, shared by [`EdaSession::next_view`] and
    /// [`EdaSession::skip_view`] so that live and replayed sessions step
    /// the RNG alike.
    fn draw_sample_seed(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sider_data::synthetic::three_d_four_clusters;
    use sider_projection::IcaOpts;

    fn session() -> EdaSession {
        EdaSession::new(three_d_four_clusters(2018), 7).unwrap()
    }

    #[test]
    fn new_session_is_clean_prior() {
        let s = session();
        assert_eq!(s.n_constraints(), 0);
        assert!(!s.is_dirty());
        assert_eq!(s.background().n(), 150);
        // Prior whitening = identity.
        let y = s.whitened().unwrap();
        assert!(y.max_abs_diff(s.data()) < 1e-12);
    }

    #[test]
    fn adding_knowledge_marks_dirty_and_counts_constraints() {
        let mut s = session();
        s.add_margin_constraints().unwrap();
        assert!(s.is_dirty());
        assert_eq!(s.n_constraints(), 6); // 2d for d=3
        s.add_cluster_constraint(&[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(s.n_constraints(), 12);
        s.add_one_cluster_constraint().unwrap();
        assert_eq!(s.n_constraints(), 18);
        let axes = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]);
        s.add_twod_constraint(&[0, 1, 2], &axes).unwrap();
        assert_eq!(s.n_constraints(), 22);
        assert_eq!(s.knowledge().len(), 4);
        assert_eq!(s.knowledge()[0].kind, KnowledgeKind::Margin);
        assert_eq!(s.knowledge()[3].kind, KnowledgeKind::TwoD);
    }

    #[test]
    fn update_background_clears_dirty_and_changes_whitening() {
        let mut s = session();
        s.add_margin_constraints().unwrap();
        let report = s.update_background(&FitOpts::default()).unwrap();
        assert!(report.converged);
        assert!(!s.is_dirty());
        assert!(s.last_report().is_some());
        // Whitening is no longer the identity.
        let y = s.whitened().unwrap();
        assert!(y.max_abs_diff(s.data()) > 0.01);
    }

    #[test]
    fn next_view_shapes_and_labels() {
        let mut s = session();
        let view = s.next_view(&Method::Pca).unwrap();
        assert_eq!(view.projected_data.shape(), (150, 2));
        assert_eq!(view.projected_background.shape(), (150, 2));
        assert!(view.axis_labels[0].starts_with("PCA1["));
        assert_eq!(view.projection.axes.shape(), (2, 3));
    }

    #[test]
    fn an_ica_view_draws_only_fastica_start_and_one_sample_seed() {
        // Whatever FastICA's iterations compute, an ICA view moves the
        // session RNG exactly as far as its start (k × r normals, k and r
        // fixed by the rank) or its restart seeds, plus the background
        // sample's seed — so no logged byte depends on the iterations'
        // numerics. The second view starts from the spare normal the
        // first one's odd count of 3 × 3 left cached.
        let mut s = session();
        s.add_margin_constraints().unwrap();
        s.update_background(&FitOpts::default()).unwrap();
        let mut twin = s.rng.clone();
        for restarts in [1, 1, 2] {
            let opts = IcaOpts {
                restarts,
                ..IcaOpts::default()
            };
            s.next_view(&Method::Ica(opts)).unwrap();
            if restarts == 1 {
                twin.standard_normal_matrix(3, 3);
            } else {
                for _ in 0..restarts {
                    twin.next_u64();
                }
            }
            twin.next_u64();
            assert_eq!(
                format!("{:?}", s.rng),
                format!("{twin:?}"),
                "restarts {restarts}"
            );
        }
    }

    #[test]
    fn skip_view_steps_the_rng_as_next_view_does() {
        // Replay's rule: skipping a served view leaves the session RNG
        // where serving it did. PCA at the prior, after a fit and after an
        // undo of fitted knowledge (the kept background, no engine); ICA
        // at restarts 1 and 2.
        fn step(live: &mut EdaSession, replayed: &mut EdaSession, method: &Method, ctx: &str) {
            live.next_view(method).unwrap();
            replayed.skip_view(method).unwrap();
            assert_eq!(
                format!("{:?}", live.rng),
                format!("{:?}", replayed.rng),
                "{ctx}"
            );
        }
        let ica = |restarts| {
            Method::Ica(IcaOpts {
                restarts,
                ..IcaOpts::default()
            })
        };
        let (mut live, mut replayed) = (session(), session());
        step(&mut live, &mut replayed, &Method::Pca, "PCA at the prior");
        for s in [&mut live, &mut replayed] {
            s.add_margin_constraints().unwrap();
            s.add_cluster_constraint(&(0..40).collect::<Vec<_>>())
                .unwrap();
            s.update_background(&tight()).unwrap();
        }
        step(&mut live, &mut replayed, &Method::Pca, "PCA after a fit");
        step(&mut live, &mut replayed, &ica(1), "ICA, restarts 1");
        step(&mut live, &mut replayed, &ica(2), "ICA, restarts 2");
        for s in [&mut live, &mut replayed] {
            s.undo_last_knowledge().unwrap();
            assert!(!s.has_warm_solver());
        }
        step(&mut live, &mut replayed, &Method::Pca, "PCA after an undo");
    }

    #[test]
    fn bad_selections_rejected() {
        let mut s = session();
        assert!(matches!(
            s.add_cluster_constraint(&[]),
            Err(CoreError::BadSelection(_))
        ));
        assert!(matches!(
            s.add_cluster_constraint(&[999]),
            Err(CoreError::BadSelection(_))
        ));
        let bad_axes = Matrix::zeros(2, 2);
        assert!(matches!(
            s.add_twod_constraint(&[0], &bad_axes),
            Err(CoreError::BadSelection(_))
        ));
    }

    #[test]
    fn empty_dataset_rejected() {
        let ds = Dataset::unlabeled("empty", Matrix::zeros(0, 0));
        assert!(EdaSession::new(ds, 1).is_err());
    }

    #[test]
    fn information_grows_with_knowledge() {
        let mut s = session();
        assert_eq!(s.information_nats(), 0.0);
        s.add_margin_constraints().unwrap();
        s.update_background(&FitOpts::default()).unwrap();
        let after_margins = s.information_nats();
        assert!(after_margins > 0.0);
        s.add_cluster_constraint(&(0..50).collect::<Vec<_>>())
            .unwrap();
        s.update_background(&FitOpts::default()).unwrap();
        assert!(s.information_nats() > after_margins);
    }

    #[test]
    fn undo_removes_constraints_and_marks_dirty() {
        let mut s = session();
        assert!(s.undo_last_knowledge().is_none());
        s.add_margin_constraints().unwrap();
        s.add_cluster_constraint(&[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(s.n_constraints(), 12);
        let removed = s.undo_last_knowledge().unwrap();
        assert_eq!(removed.kind, KnowledgeKind::Cluster);
        assert_eq!(s.n_constraints(), 6);
        assert!(s.is_dirty());
        // Refit returns to margins-only state.
        s.update_background(&FitOpts::default()).unwrap();
        assert_eq!(s.knowledge().len(), 1);
    }

    fn tight() -> FitOpts {
        FitOpts {
            lambda_tol: 1e-8,
            moment_tol: 1e-8,
            max_sweeps: 5000,
            ..FitOpts::default()
        }
    }

    #[test]
    fn second_update_is_warm_and_first_is_cold() {
        let mut s = session();
        assert!(!s.has_warm_solver());
        s.add_margin_constraints().unwrap();
        s.update_background(&tight()).unwrap();
        assert!(s.has_warm_solver());
        // Cold path decomposes every class.
        let stats = s.last_refresh_stats().unwrap();
        assert_eq!(stats.eigen_recomputed, stats.classes_total);
    }

    #[test]
    fn warm_update_does_fewer_sweeps_than_cold() {
        // Fit a heavy base (margins + a 40-row cluster), then append one
        // small 2-D statement: the warm engine continues from the
        // converged multipliers while a cold fit re-converges everything.
        let cluster: Vec<usize> = (0..40).collect();
        let axes = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]);

        let mut warm = session();
        warm.add_margin_constraints().unwrap();
        warm.add_cluster_constraint(&cluster).unwrap();
        warm.update_background(&tight()).unwrap();
        warm.add_twod_constraint(&(0..10).collect::<Vec<_>>(), &axes)
            .unwrap();
        let warm_report = warm.update_background(&tight()).unwrap();

        let mut cold = session();
        cold.add_margin_constraints().unwrap();
        cold.add_cluster_constraint(&cluster).unwrap();
        cold.add_twod_constraint(&(0..10).collect::<Vec<_>>(), &axes)
            .unwrap();
        let cold_report = cold.update_background(&tight()).unwrap();

        assert!(warm_report.converged && cold_report.converged);
        assert!(
            warm_report.sweeps_done() < cold_report.sweeps_done(),
            "warm {} vs cold {} sweeps",
            warm_report.sweeps_done(),
            cold_report.sweeps_done()
        );
        // …and produces the same background distribution.
        for row in [0usize, 20, 60, 149] {
            for (a, b) in warm
                .background()
                .mean(row)
                .iter()
                .zip(cold.background().mean(row))
            {
                assert!((a - b).abs() < 1e-5, "row {row}: {a} vs {b}");
            }
            let (kw, kc) = (
                warm.background().kl_from_prior(row),
                cold.background().kl_from_prior(row),
            );
            assert!((kw - kc).abs() < 1e-5, "row {row}: KL {kw} vs {kc}");
        }
        let (yw, yc) = (warm.whitened().unwrap(), cold.whitened().unwrap());
        assert!(yw.max_abs_diff(&yc) < 1e-5, "whitened data");
    }

    #[test]
    fn warm_update_recomputes_only_dirty_classes() {
        let mut s = session();
        s.add_margin_constraints().unwrap();
        s.add_cluster_constraint(&(0..30).collect::<Vec<_>>())
            .unwrap();
        s.update_background(&tight()).unwrap();
        // A second, disjoint cluster: the first cluster's class sits
        // outside the new constraint's neighborhood only if the margin
        // constraints don't reactivate everything — they cover all rows,
        // so here we assert the weaker cache invariant: no more eigen
        // decompositions than classes, and a redundant update recomputes
        // nothing at all.
        let stats = s.last_refresh_stats().unwrap();
        assert!(stats.eigen_recomputed <= stats.classes_total);
        let report = s.update_background(&tight()).unwrap();
        assert_eq!(report.sweeps_done(), 0);
        let stats = s.last_refresh_stats().unwrap();
        assert_eq!(stats.eigen_recomputed, 0);
        assert_eq!(stats.mean_updated, 0);
    }

    #[test]
    fn disjoint_cluster_sessions_keep_cached_classes() {
        // No margins: two disjoint clusters live in disjoint constraint
        // neighborhoods, so appending the second must not re-decompose the
        // first one's classes.
        let mut s = session();
        s.add_cluster_constraint(&(0..30).collect::<Vec<_>>())
            .unwrap();
        s.update_background(&tight()).unwrap();
        s.add_cluster_constraint(&(40..70).collect::<Vec<_>>())
            .unwrap();
        s.update_background(&tight()).unwrap();
        let stats = s.last_refresh_stats().unwrap();
        assert!(
            stats.eigen_recomputed < stats.classes_total,
            "untouched classes must stay cached: {stats:?}"
        );
    }

    #[test]
    fn undo_of_fitted_knowledge_invalidates_warm_state() {
        let mut s = session();
        s.add_margin_constraints().unwrap();
        s.add_cluster_constraint(&[0, 1, 2, 3, 4]).unwrap();
        s.update_background(&tight()).unwrap();
        assert!(s.has_warm_solver());
        s.undo_last_knowledge().unwrap();
        assert!(!s.has_warm_solver());
        s.update_background(&tight()).unwrap();

        // Must match a fresh session that never saw the cluster.
        let mut fresh = session();
        fresh.add_margin_constraints().unwrap();
        fresh.update_background(&tight()).unwrap();
        for row in [0usize, 3, 80] {
            for (a, b) in s
                .background()
                .mean(row)
                .iter()
                .zip(fresh.background().mean(row))
            {
                assert!((a - b).abs() < 1e-12);
            }
            let (ks, kf) = (
                s.background().kl_from_prior(row),
                fresh.background().kl_from_prior(row),
            );
            assert!((ks - kf).abs() < 1e-12, "row {row}: KL {ks} vs {kf}");
        }
        let (ys, yf) = (s.whitened().unwrap(), fresh.whitened().unwrap());
        assert!(ys.max_abs_diff(&yf) < 1e-12, "whitened data");
        assert!((s.information_nats() - fresh.information_nats()).abs() < 1e-9);
    }

    #[test]
    fn undo_of_pending_knowledge_keeps_warm_state() {
        let mut s = session();
        s.add_margin_constraints().unwrap();
        s.update_background(&tight()).unwrap();
        s.add_cluster_constraint(&[0, 1, 2, 3, 4]).unwrap();
        s.undo_last_knowledge().unwrap();
        assert!(s.has_warm_solver(), "unfitted undo must not invalidate");
        let report = s.update_background(&tight()).unwrap();
        assert_eq!(report.sweeps_done(), 0, "nothing pending after undo");
    }

    #[test]
    fn refit_cold_matches_warm_result() {
        let mut s = session();
        s.add_margin_constraints().unwrap();
        s.update_background(&tight()).unwrap();
        s.add_cluster_constraint(&(0..25).collect::<Vec<_>>())
            .unwrap();
        s.update_background(&tight()).unwrap();
        let warm_kl = s.information_nats();
        let report = s.refit_cold(&tight()).unwrap();
        assert!(report.converged);
        assert!(report.sweeps_done() > 0, "cold path must re-sweep");
        assert!((s.information_nats() - warm_kl).abs() < 1e-4 * warm_kl.max(1.0));
    }

    #[test]
    fn session_bit_identical_across_pool_sizes() {
        // The full round trip — fit, refresh, whiten, project, sample —
        // on 1-, 2- and 4-thread pools produces the same bytes.
        let run = |threads: usize| {
            let pool = Arc::new(ThreadPool::new(threads));
            let mut s = EdaSession::with_pool(three_d_four_clusters(2018), 7, pool).unwrap();
            s.add_margin_constraints().unwrap();
            s.add_cluster_constraint(&(0..40).collect::<Vec<_>>())
                .unwrap();
            s.update_background(&FitOpts::default()).unwrap();
            let view = s.next_view(&Method::Pca).unwrap();
            (s.whitened().unwrap(), view, s.information_nats())
        };
        let (w1, v1, kl1) = run(1);
        for threads in [2usize, 4] {
            let (w, v, kl) = run(threads);
            assert_eq!(w1.as_slice(), w.as_slice(), "{threads} threads: whitened");
            assert_eq!(
                v1.projected_data.as_slice(),
                v.projected_data.as_slice(),
                "{threads} threads: projection"
            );
            assert_eq!(
                v1.projected_background.as_slice(),
                v.projected_background.as_slice(),
                "{threads} threads: background sample"
            );
            assert_eq!(kl1.to_bits(), kl.to_bits(), "{threads} threads: KL");
        }
    }

    #[test]
    fn fused_pca_view_matches_two_pass_pursuit() {
        // The fused whitened-moment arm of next_view must reproduce the
        // materialize-then-pursue formulation bit for bit (and consume no
        // RNG, like PCA pursuit never did).
        let mut s = session();
        s.add_margin_constraints().unwrap();
        s.update_background(&tight()).unwrap();
        let whitened = s.whitened().unwrap();
        let mut rng = Rng::seed_from_u64(0);
        let reference = most_informative_projection_with(
            &whitened,
            &Method::Pca,
            &mut rng,
            &ThreadPool::serial(),
        )
        .unwrap();
        let view = s.next_view(&Method::Pca).unwrap();
        assert_eq!(
            view.projection.axes.as_slice(),
            reference.axes.as_slice(),
            "fused PCA arm changed the chosen axes"
        );
        assert_eq!(view.projection.all_scores, reference.all_scores);
        assert_eq!(view.projection.scores, reference.scores);
    }

    #[test]
    fn session_is_deterministic_given_seed() {
        let mut a = session();
        let mut b = session();
        let va = a.next_view(&Method::Pca).unwrap();
        let vb = b.next_view(&Method::Pca).unwrap();
        assert_eq!(
            va.projected_background
                .max_abs_diff(&vb.projected_background),
            0.0
        );
    }
}
