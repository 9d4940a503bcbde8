//! Fig. 9 — the Image Segmentation use case (paper §IV-C), on the
//! segmentation-like simulated dataset (`sider_data::segmentation`
//! documents the substitution).
//!
//! Paper reference measurements:
//! * initial view: background scale wildly different from the data;
//! * after a 1-cluster constraint: ≥3 visible groups — 330 pure `sky`,
//!   316 mostly-`grass` (Jaccard 0.964), and a 5-class blob
//!   (Jaccard ≈ 0.2 each);
//! * after cluster constraints: remaining projections show mainly
//!   outliers.

use sider_bench::out_dir;
use sider_core::report::TextTable;
use sider_core::{EdaSession, SimulatedUser};
use sider_maxent::FitOpts;
use sider_projection::{ComponentOrder, IcaOpts, Method};
use sider_stats::metrics::{jaccard, jaccard_per_class};

fn main() {
    let dataset = sider_data::segmentation::segmentation_like(
        &sider_data::segmentation::SegmentationOpts::default(),
        2018,
    );
    let classes = dataset.labels[0].clone();
    let outliers = dataset.labels[1].clone();
    println!(
        "segmentation-like: {} rows × {} attributes; 7 classes × 330; {} injected outliers",
        dataset.n(),
        dataset.d(),
        outliers.class_indices(1).len()
    );
    let mut session = EdaSession::new(dataset, 3).expect("session");
    let ica_clusters = Method::Ica(IcaOpts {
        order: ComponentOrder::SignedDesc,
        ..IcaOpts::default()
    });
    let fit = FitOpts {
        time_cutoff: Some(std::time::Duration::from_secs(10)),
        ..FitOpts::default()
    };

    // Initial scale mismatch (Fig. 9a).
    let view0 = session.next_view(&Method::Pca).expect("view 0");
    println!(
        "\ninitial top PCA score: {:.1} (paper: 'scale of background significantly differs')",
        view0.scores()[0]
    );
    view0
        .to_scatter_plot("Fig 9a: initial view", None)
        .save(out_dir().join("fig9a.svg"))
        .expect("svg");

    session.add_one_cluster_constraint().expect("1-cluster");
    session.update_background(&fit).expect("update");

    let mut user = SimulatedUser::new(7, 50, 9);
    let mut marked: Vec<Vec<usize>> = Vec::new();
    let mut summary = TextTable::new(&[
        "view",
        "marked",
        "best class",
        "Jaccard",
        "overlapping classes",
    ]);
    for step in 1..=4 {
        let view = session.next_view(&ica_clusters).expect("view");
        if view.scores()[0] < 0.004 {
            break;
        }
        let clusters = user.perceive_clusters(&view);
        let fresh: Vec<Vec<usize>> = clusters
            .into_iter()
            .filter(|c| marked.iter().all(|m| jaccard(c, m) < 0.6))
            .collect();
        if fresh.is_empty() {
            break;
        }
        for cluster in &fresh {
            let js = jaccard_per_class(cluster, &classes.assignments, 7);
            let mut ranked: Vec<(usize, f64)> = js.iter().copied().enumerate().collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            let overlapping = js.iter().filter(|&&x| x > 0.1).count();
            summary.row(vec![
                step.to_string(),
                cluster.len().to_string(),
                classes.class_names[ranked[0].0].clone(),
                format!("{:.3}", ranked[0].1),
                overlapping.to_string(),
            ]);
            session.add_cluster_constraint(cluster).expect("constraint");
            marked.push(cluster.clone());
        }
        view.to_scatter_plot(
            &format!("Fig 9, view {step}"),
            fresh.first().map(|c| c.as_slice()),
        )
        .save(out_dir().join(format!("fig9_view{step}.svg")))
        .expect("svg");
        session.update_background(&fit).expect("update");
    }
    println!("\ngroup discovery (paper: sky pure; grass 0.964; blob ≈0.2 ×5):");
    println!("{}", summary.render());

    // Final view: outliers (Fig. 9f).
    let view_f = session
        .next_view(&Method::Ica(IcaOpts::default()))
        .expect("final view");
    let pts = view_f.points();
    let mut extremes: Vec<(usize, f64)> = pts
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| (i, x.abs().max(y.abs())))
        .collect();
    extremes.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let true_outliers = outliers.class_indices(1);
    let top: Vec<usize> = extremes
        .iter()
        .take(true_outliers.len())
        .map(|&(i, _)| i)
        .collect();
    let hits = top.iter().filter(|i| true_outliers.contains(i)).count();
    println!(
        "final view (paper Fig. 9f: 'mainly outliers'): {hits}/{} most extreme points are injected outliers",
        top.len()
    );
    view_f
        .to_scatter_plot("Fig 9f: remaining outliers", Some(&true_outliers))
        .save(out_dir().join("fig9f.svg"))
        .expect("svg");
    println!("views written to {}/fig9*.svg", out_dir().display());
}
