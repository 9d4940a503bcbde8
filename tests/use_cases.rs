//! Downscaled versions of the paper's §IV use cases, fast enough for the
//! default (debug) test profile.

use sider::core::{EdaSession, SimulatedUser};
use sider::maxent::FitOpts;
use sider::projection::Method;
use sider::stats::metrics::{best_class_match, jaccard};

#[test]
fn bnc_first_selection_is_conversations() {
    // §IV-B, first interaction: the tight group in the first informative
    // view is the 'transcribed conversations' genre (paper Jaccard 0.928).
    let dataset = sider::data::bnc::bnc_small(2018);
    let genres = dataset.primary_labels().unwrap().clone();
    let mut session = EdaSession::new(dataset, 5).unwrap();
    session.add_margin_constraints().unwrap();
    session.update_background(&FitOpts::default()).unwrap();

    let view = session.next_view(&Method::Pca).unwrap();
    assert!(view.scores()[0] > 0.5, "initial view uninformative");
    let mut user = SimulatedUser::new(5, 8, 17);
    let clusters = user.perceive_clusters(&view);
    assert!(!clusters.is_empty());
    // The most coherent (smallest) cluster is the conversations genre.
    let selection = clusters.last().unwrap();
    let (class, j) = best_class_match(selection, &genres.assignments, 4);
    assert_eq!(genres.class_names[class], "transcribed conversations");
    assert!(j > 0.8, "Jaccard {j} (paper: 0.928)");
}

#[test]
fn bnc_scores_drop_after_selections() {
    let dataset = sider::data::bnc::bnc_small(7);
    let mut session = EdaSession::new(dataset, 5).unwrap();
    session.add_margin_constraints().unwrap();
    session.update_background(&FitOpts::default()).unwrap();
    let mut user = SimulatedUser::new(5, 8, 17);
    let fit = FitOpts {
        lambda_tol: 1e-4,
        moment_tol: 1e-4,
        max_sweeps: 800,
        ..FitOpts::default()
    };
    let first = session.next_view(&Method::Pca).unwrap().scores()[0];
    // Known, as (rows, Jaccard bound): each marked selection and each
    // one's complement, as in `bnc_use_case`.
    let mut known: Vec<(Vec<usize>, f64)> = Vec::new();
    for _ in 0..3 {
        let view = session.next_view(&Method::Pca).unwrap();
        let clusters = user.perceive_clusters(&view);
        let Some(sel) = clusters
            .iter()
            .rev()
            .find(|c| known.iter().all(|(m, bound)| jaccard(c, m) < *bound))
            .cloned()
        else {
            break;
        };
        session.add_cluster_constraint(&sel).unwrap();
        let n = session.dataset().n();
        known.push(((0..n).filter(|i| !sel.contains(i)).collect(), 0.9));
        known.push((sel, 0.5));
        session.update_background(&fit).unwrap();
    }
    let last = session.next_view(&Method::Pca).unwrap().scores()[0];
    assert!(
        last < first * 0.25,
        "scores did not drop enough: {first} → {last}"
    );
}

#[test]
fn segmentation_scale_mismatch_then_structure() {
    // §IV-C: the initial view is dominated by the scale mismatch; the
    // 1-cluster constraint removes it entirely.
    let dataset = sider::data::segmentation::segmentation_like(
        &sider::data::segmentation::SegmentationOpts {
            per_class: 40,
            n_outliers: 4,
        },
        2018,
    );
    let mut session = EdaSession::new(dataset, 3).unwrap();
    let before = session.next_view(&Method::Pca).unwrap().scores()[0];
    assert!(before > 100.0, "scale mismatch should dominate: {before}");
    session.add_one_cluster_constraint().unwrap();
    session.update_background(&FitOpts::default()).unwrap();
    let after = session.next_view(&Method::Pca).unwrap().scores()[0];
    assert!(after < 0.1, "covariance must be absorbed: {after}");
}

#[test]
fn segmentation_outliers_surface_in_ica_view() {
    let dataset = sider::data::segmentation::segmentation_like(
        &sider::data::segmentation::SegmentationOpts {
            per_class: 40,
            n_outliers: 4,
        },
        2018,
    );
    let outliers = dataset.labels[1].clone();
    let mut session = EdaSession::new(dataset, 3).unwrap();
    session.add_one_cluster_constraint().unwrap();
    session.update_background(&FitOpts::default()).unwrap();
    let view = session
        .next_view(&Method::Ica(sider::projection::IcaOpts::default()))
        .unwrap();
    // The most extreme projected points must include injected outliers.
    let pts = view.points();
    let mut extremes: Vec<(usize, f64)> = pts
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| (i, x.abs().max(y.abs())))
        .collect();
    extremes.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let truth = outliers.class_indices(1);
    let top: Vec<usize> = extremes.iter().take(truth.len()).map(|&(i, _)| i).collect();
    let hits = top.iter().filter(|i| truth.contains(i)).count();
    assert!(
        hits * 2 >= truth.len(),
        "only {hits}/{} outliers surfaced",
        truth.len()
    );
}

#[test]
#[allow(clippy::needless_range_loop)]
fn bnc_corpus_statistics_are_plausible() {
    // Guard the simulator itself: Zipf-ish top-word dominance and genre
    // separability measured by a simple centroid classifier.
    let dataset = sider::data::bnc::bnc_small(3);
    let genres = dataset.primary_labels().unwrap().clone();
    let (std, _) = sider::stats::descriptive::standardize(&dataset.matrix);
    // Nearest-centroid accuracy must be high (genres are separable).
    let mut centroids = vec![vec![0.0; std.cols()]; 4];
    let sizes = genres.class_sizes();
    for i in 0..std.rows() {
        let g = genres.assignments[i];
        for j in 0..std.cols() {
            centroids[g][j] += std[(i, j)] / sizes[g] as f64;
        }
    }
    let mut correct = 0;
    for i in 0..std.rows() {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (g, c) in centroids.iter().enumerate() {
            let d = sider::linalg::vector::dist(std.row(i), c);
            if d < best_d {
                best_d = d;
                best = g;
            }
        }
        if best == genres.assignments[i] {
            correct += 1;
        }
    }
    let acc = correct as f64 / std.rows() as f64;
    assert!(acc > 0.9, "nearest-centroid accuracy {acc}");
}
