//! The UCI Image Segmentation use case (paper §IV-C, Fig. 9), on the
//! segmentation-like simulated dataset (`sider_data::segmentation`
//! documents the substitution).
//!
//! Storyline: raw attribute scales differ wildly from the unit-Gaussian
//! prior, so the first view only shows the scale mismatch (Fig. 9a). A
//! 1-cluster constraint absorbs the overall covariance; the next view
//! (ICA — variance is now fully explained, so non-Gaussianity is the
//! remaining signal) shows class groups: pure `sky`, near-pure `grass`
//! (paper Jaccard 0.964), and a five-class blob. After cluster
//! constraints for the visible groups, the remaining structure is mainly
//! the injected outliers (Fig. 9f).
//!
//! Run with:
//! ```sh
//! cargo run --release --example image_segmentation
//! ```

use sider::core::{EdaSession, SimulatedUser};
use sider::maxent::FitOpts;
use sider::projection::{ComponentOrder, IcaOpts, Method};
use sider::stats::metrics::{best_class_match, jaccard_per_class};

fn main() {
    let dataset = sider::data::segmentation::segmentation_like(
        &sider::data::segmentation::SegmentationOpts::default(),
        2018,
    );
    let classes = dataset.labels[0].clone();
    let outliers = dataset.labels[1].clone();
    println!(
        "dataset: segmentation-like ({} samples × {} attributes, 7 classes × 330, {} outliers)",
        dataset.n(),
        dataset.d(),
        outliers.class_indices(1).len()
    );

    let mut session = EdaSession::new(dataset, 3).expect("session");
    // Cluster-hunting ICA: sub-Gaussian (multi-modal) directions first —
    // otherwise the injected outliers' heavy tails dominate every view.
    let ica = Method::Ica(IcaOpts {
        order: ComponentOrder::SignedDesc,
        ..IcaOpts::default()
    });
    // Outlier-hunting ICA for the final view (the paper's Fig. 9f).
    let ica_abs = Method::Ica(IcaOpts::default());

    // --- Fig. 9a: the initial view shows only the scale mismatch. ---
    let view0 = session.next_view(&Method::Pca).expect("view 0");
    println!(
        "\n[initial view] top PCA score {:.1} — background scale wildly off (Fig. 9a)",
        view0.scores()[0]
    );
    view0
        .to_scatter_plot("Initial view: scale mismatch", None)
        .save("out/segmentation_view0.svg")
        .expect("write svg");

    // --- Fig. 9b–e: 1-cluster constraint absorbs the overall covariance;
    // then iterate: mark visible groups, update, look again. The paper's
    // user marks sky, grass and the 5-class blob across Figs. 9b–9d; the
    // simulated user discovers the same groups progressively. ---
    session.add_one_cluster_constraint().expect("1-cluster");
    session
        .update_background(&FitOpts::default())
        .expect("update");
    let fit = FitOpts {
        time_cutoff: Some(std::time::Duration::from_secs(10)),
        ..FitOpts::default()
    };
    let mut user = SimulatedUser::new(7, 50, 9);
    let mut marked: Vec<Vec<usize>> = Vec::new();
    for step in 1..=4 {
        let view = session.next_view(&ica).expect("view");
        println!("\n[view {step}] {}", view.axis_labels[0]);
        println!("         {}", view.axis_labels[1]);
        if view.scores()[0] < 0.004 {
            println!(
                "         no cluster structure left (top score {:.4})",
                view.scores()[0]
            );
            break;
        }
        let clusters = user.perceive_clusters(&view);
        let fresh: Vec<Vec<usize>> = clusters
            .into_iter()
            .filter(|c| {
                marked
                    .iter()
                    .all(|m| sider::stats::metrics::jaccard(c, m) < 0.6)
            })
            .collect();
        if fresh.is_empty() {
            println!("         nothing new to mark");
            break;
        }
        for cluster in &fresh {
            let (class, j) = best_class_match(cluster, &classes.assignments, 7);
            let js = jaccard_per_class(cluster, &classes.assignments, 7);
            let blobby = js.iter().filter(|&&x| x > 0.1).count();
            println!(
                "         marked {} points ≈ '{}' (Jaccard {j:.3}{})",
                cluster.len(),
                classes.class_names[class],
                if blobby > 1 {
                    format!(", {blobby} classes overlap")
                } else {
                    String::new()
                }
            );
            session.add_cluster_constraint(cluster).expect("constraint");
            marked.push(cluster.clone());
        }
        view.to_scatter_plot(
            &format!("Segmentation view {step}"),
            fresh.first().map(|c| c.as_slice()),
        )
        .save(format!("out/segmentation_view{step}.svg"))
        .expect("write svg");
        session.update_background(&fit).expect("update");
    }

    // --- Fig. 9f: after the cluster constraints, outliers remain. ---
    let view2 = session.next_view(&ica_abs).expect("view 2");
    println!("\n[final view] {}", view2.axis_labels[0]);
    let pts = view2.points();
    let mut extremes: Vec<(usize, f64)> = pts
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| (i, x.abs().max(y.abs())))
        .collect();
    extremes.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let top: Vec<usize> = extremes.iter().take(12).map(|&(i, _)| i).collect();
    let true_outliers = outliers.class_indices(1);
    let hits = top.iter().filter(|i| true_outliers.contains(i)).count();
    println!(
        "most extreme points of the final view: {hits}/{} are injected outliers (rows {:?})",
        top.len(),
        &top[..6.min(top.len())]
    );
    view2
        .to_scatter_plot("Final view: outliers", Some(&true_outliers))
        .save("out/segmentation_view2.svg")
        .expect("write svg");
    println!("\nSVGs written to out/segmentation_view*.svg");
}
