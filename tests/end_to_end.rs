//! Cross-crate integration tests: full interactive sessions over every
//! dataset family, plus degenerate-input behavior.

use sider::core::{explore, EdaSession, ExplorationConfig, SimulatedUser};
use sider::data::Dataset;
use sider::linalg::Matrix;
use sider::maxent::FitOpts;
use sider::projection::{pca_classic, project, IcaOpts, Method};
use sider::stats::kmeans::{choose_k, cluster_members};
use sider::stats::metrics::jaccard;
use sider::stats::Rng;

#[test]
fn fig2_flow_end_to_end() {
    let dataset = sider::data::synthetic::three_d_four_clusters(2018);
    let labels = dataset.primary_labels().unwrap().clone();
    let (c_idx, d_idx) = (labels.class_indices(2), labels.class_indices(3));
    let best_cd = |clusters: &[Vec<usize>]| {
        clusters
            .iter()
            .map(|m| jaccard(m, &c_idx).max(jaccard(m, &d_idx)))
            .fold(0.0, f64::max)
    };

    // A static projection shows the same view whatever the user already
    // knows (paper §I, §V): the classical PCA view keeps C and D merged.
    let pca = pca_classic(&dataset.matrix).unwrap();
    let centered = dataset.matrix.center_rows(&dataset.matrix.col_means());
    let static_view = project(&centered, &pca.top2());
    let (fit, k) = choose_k(&static_view, 6, &mut Rng::seed_from_u64(99));
    let static_clusters: Vec<Vec<usize>> = (0..k)
        .map(|j| cluster_members(&fit.assignments, j))
        .collect();
    let static_best = best_cd(&static_clusters);
    assert!(
        static_best < 0.55,
        "static PCA view splits C or D off: {static_best}"
    );

    let mut session = EdaSession::new(dataset, 7).unwrap();
    let mut user = SimulatedUser::new(6, 5, 42);

    let view1 = session.next_view(&Method::Pca).unwrap();
    let clusters = user.perceive_clusters(&view1);
    assert_eq!(clusters.len(), 3);
    for c in &clusters {
        session.add_cluster_constraint(c).unwrap();
    }
    let report = session.update_background(&FitOpts::default()).unwrap();
    assert!(report.converged);

    let view2 = session.next_view(&Method::Ica(IcaOpts::default())).unwrap();
    let clusters2 = user.perceive_clusters(&view2);
    assert_eq!(clusters2.len(), 4, "hidden split must surface");
    // Once the user's view-1 clusters are absorbed, view 2 isolates C or D.
    let loop_best = best_cd(&clusters2);
    assert!(
        loop_best > 0.9,
        "view 2 does not isolate C or D: {loop_best}"
    );
}

#[test]
fn xhat5_ica_loop_scores_decay() {
    let dataset = sider::data::synthetic::xhat5(600, 42);
    let mut session = EdaSession::new(dataset, 11).unwrap();
    let mut user = SimulatedUser::new(8, 15, 33);
    let config = ExplorationConfig {
        method: Method::Ica(IcaOpts::default()),
        fit: FitOpts::default(),
        max_iterations: 5,
        score_threshold: 0.02,
    };
    let records = explore(&mut session, &mut user, &config).unwrap();
    assert!(records.len() >= 2);
    let first = records[0].scores[0].abs();
    let last = records.last().unwrap().scores[0].abs();
    assert!(last < first, "{first} -> {last}");
    // The first iteration must mark ≈4 clusters (A–D).
    assert!(records[0].marked_clusters.len() >= 3);
}

#[test]
fn session_survives_constant_column() {
    // A constant column yields zero-variance margin constraints; the
    // session must stay finite and usable.
    let mut rng = Rng::seed_from_u64(3);
    let m = Matrix::from_fn(
        80,
        3,
        |_, j| if j == 2 { 5.0 } else { rng.normal(0.0, 1.0) },
    );
    let ds = Dataset::unlabeled("const-col", m);
    let mut session = EdaSession::new(ds, 1).unwrap();
    session.add_margin_constraints().unwrap();
    let report = session.update_background(&FitOpts::default()).unwrap();
    assert!(report.sweeps >= 1);
    let y = session.whitened().unwrap();
    assert!(y.is_finite());
    let view = session.next_view(&Method::Pca).unwrap();
    assert!(view.projected_data.is_finite());
}

#[test]
fn session_survives_duplicate_rows_and_tiny_clusters() {
    // Clusters smaller than d create zero-variance directions (paper
    // §II-A-2); duplicated rows stress the equivalence classes.
    let mut rng = Rng::seed_from_u64(5);
    let mut rows: Vec<Vec<f64>> = (0..20)
        .map(|_| (0..4).map(|_| rng.normal(0.0, 1.0)).collect())
        .collect();
    rows.push(rows[0].clone());
    rows.push(rows[0].clone());
    let ds = Dataset::unlabeled("dups", Matrix::from_rows(&rows));
    let mut session = EdaSession::new(ds, 2).unwrap();
    session.add_cluster_constraint(&[0, 20, 21]).unwrap(); // 3 points in 4-D
    session.add_cluster_constraint(&[1, 2]).unwrap(); // 2 points in 4-D
    let report = session.update_background(&FitOpts::default()).unwrap();
    assert!(report.sweeps >= 1);
    assert!(session.whitened().unwrap().is_finite());
}

#[test]
fn n_smaller_than_d_works() {
    let mut rng = Rng::seed_from_u64(7);
    let m = rng.standard_normal_matrix(6, 10);
    let ds = Dataset::unlabeled("wide", m);
    let mut session = EdaSession::new(ds, 3).unwrap();
    session.add_one_cluster_constraint().unwrap();
    session.update_background(&FitOpts::default()).unwrap();
    let view = session.next_view(&Method::Pca).unwrap();
    assert!(view.projected_data.is_finite());
}

#[test]
fn twod_constraints_absorb_view_moments() {
    // After a 2-D constraint on the current axes for all rows, the data's
    // mean/variance along those axes match the background's.
    let dataset = sider::data::synthetic::three_d_four_clusters(9);
    let n = dataset.n();
    let mut session = EdaSession::new(dataset, 4).unwrap();
    let view = session.next_view(&Method::Pca).unwrap();
    let all: Vec<usize> = (0..n).collect();
    session
        .add_twod_constraint(&all, &view.projection.axes)
        .unwrap();
    session
        .update_background(&FitOpts {
            lambda_tol: 1e-8,
            moment_tol: 1e-8,
            max_sweeps: 2000,
            ..FitOpts::default()
        })
        .unwrap();
    // Whitened variance along the constrained axes must now be ≈ 1.
    let y = session.whitened().unwrap();
    let w = session.background();
    assert_eq!(w.n(), n);
    let proj = sider::projection::project(&y, &view.projection.axes);
    for k in 0..2 {
        let col = proj.col(k);
        // Whitened projection onto a *raw-space* axis is not exactly the
        // whitened coordinate, so allow slack; the key is order-1 scale.
        let var = sider::stats::descriptive::population_variance(&col);
        assert!(var < 3.0, "axis {k} variance {var}");
    }
    // And the direct check: background second moment along the axes
    // matches the data's.
    for k in 0..2 {
        let axis = view.projection.axes.row(k);
        let data_proj: Vec<f64> = (0..n)
            .map(|i| sider::linalg::vector::dot(session.data().row(i), axis))
            .collect();
        let data_mean = sider::stats::descriptive::mean(&data_proj);
        let bg_mean: f64 = (0..n)
            .map(|i| sider::linalg::vector::dot(w.mean(i), axis))
            .sum::<f64>()
            / n as f64;
        assert!((data_mean - bg_mean).abs() < 1e-3, "axis {k}");
    }
}

#[test]
fn explore_on_a_single_row_runs() {
    // `sider explore` on a one-row CSV: the simulated user sees one
    // cluster of one row, which is under its minimum size, so nothing is
    // marked. The loop records that round as stopped and ends, without a
    // panic and without refitting to show the same view again.
    let ds = Dataset::unlabeled("one-row", Matrix::from_rows(&[vec![1.0, 2.0]]));
    let mut session = EdaSession::new(ds, 7).unwrap();
    let mut user = SimulatedUser::new(6, 3, 7 ^ 0xFACE);
    let config = ExplorationConfig {
        max_iterations: 2,
        score_threshold: 0.02,
        ..ExplorationConfig::default()
    };
    let records = explore(&mut session, &mut user, &config).unwrap();
    assert_eq!(records.len(), 1, "{records:?}");
    assert!(records[0].stopped && records[0].marked_clusters.is_empty());
}

#[test]
fn exploration_on_pure_noise_stops_quickly() {
    let mut rng = Rng::seed_from_u64(13);
    let m = rng.standard_normal_matrix(400, 4);
    let ds = Dataset::unlabeled("noise", m);
    let mut session = EdaSession::new(ds, 6).unwrap();
    session.add_margin_constraints().unwrap();
    session.update_background(&FitOpts::default()).unwrap();
    let mut user = SimulatedUser::new(5, 10, 8);
    let config = ExplorationConfig {
        method: Method::Pca,
        fit: FitOpts::default(),
        max_iterations: 3,
        score_threshold: 0.05,
    };
    let records = explore(&mut session, &mut user, &config).unwrap();
    assert!(records.last().unwrap().stopped);
}
