//! Fig. 6 — pairplots of the whitened data Ŷ₅ at the three stages of the
//! X̂₅ exploration.
//!
//! (a) no constraints: Ŷ₅ = X̂₅ (whitening is the identity);
//! (b) after cluster constraints for the four clusters of Fig. 4a: the
//!     first three dimensions stop deviating from a unit Gaussian while
//!     dims 4–5 still do;
//! (c) after the further constraints of Fig. 4c: all of Ŷ₅ resembles a
//!     spherical unit Gaussian.
//!
//! Besides the pairplot SVGs we print per-dimension deviation statistics
//! (variance and the signed log-cosh negentropy offset), which is the
//! quantitative content of the figure.

use sider_bench::out_dir;
use sider_core::report::TextTable;
use sider_core::{EdaSession, SimulatedUser};
use sider_linalg::Matrix;
use sider_maxent::FitOpts;
use sider_projection::{IcaOpts, Method};
use sider_stats::gaussianity::{negentropy_offset, standardize_inplace};

fn stage_stats(y: &Matrix, stage: &str, table: &mut TextTable) {
    for j in 0..y.cols() {
        let col = y.col(j);
        let var = sider_stats::descriptive::population_variance(&col);
        let mut std = col.clone();
        standardize_inplace(&mut std);
        let neg = negentropy_offset(&std);
        table.row(vec![
            stage.to_string(),
            format!("X{}", j + 1),
            format!("{var:.3}"),
            format!("{neg:+.4}"),
        ]);
    }
}

fn save_pairplot(y: &Matrix, classes: &[usize], names: &[String], title: &str, file: &str) {
    let columns: Vec<Vec<f64>> = (0..y.cols()).map(|j| y.col(j)).collect();
    sider_plot::Pairplot::new(title, columns, names.to_vec())
        .classes(classes.to_vec())
        .max_points(250)
        .save(out_dir().join(file))
        .expect("svg");
}

fn main() {
    let dataset = sider_data::synthetic::xhat5(1000, 42);
    let abcd = dataset.labels[0].assignments.clone();
    let names = dataset.column_names.clone();
    let mut session = EdaSession::new(dataset, 11).expect("session");
    let mut user = SimulatedUser::new(8, 25, 33);
    let ica = Method::Ica(IcaOpts::default());
    let mut table = TextTable::new(&["stage", "dim", "variance", "negentropy offset"]);

    // Stage (a): no constraints.
    let y_a = session.whitened().expect("whiten");
    stage_stats(&y_a, "a: none", &mut table);
    save_pairplot(
        &y_a,
        &abcd,
        &names,
        "Fig 6a: whitened = raw (no constraints)",
        "fig6a.svg",
    );

    // Stage (b): constraints for the clusters visible in the first view.
    let view = session.next_view(&ica).expect("view");
    for c in user.perceive_clusters(&view) {
        session.add_cluster_constraint(&c).expect("constraint");
    }
    session
        .update_background(&FitOpts::default())
        .expect("update");
    let y_b = session.whitened().expect("whiten");
    stage_stats(&y_b, "b: 4 clusters", &mut table);
    save_pairplot(
        &y_b,
        &abcd,
        &names,
        "Fig 6b: whitened after dims 1-3 clusters",
        "fig6b.svg",
    );

    // Stage (c): constraints for the clusters of the next view.
    let view = session.next_view(&ica).expect("view");
    for c in user.perceive_clusters(&view) {
        session.add_cluster_constraint(&c).expect("constraint");
    }
    session
        .update_background(&FitOpts::default())
        .expect("update");
    let y_c = session.whitened().expect("whiten");
    stage_stats(&y_c, "c: +3 clusters", &mut table);
    save_pairplot(
        &y_c,
        &abcd,
        &names,
        "Fig 6c: whitened after all clusters",
        "fig6c.svg",
    );

    println!("Per-dimension deviation from the unit Gaussian (Fig. 6):");
    println!("{}", table.render());
    println!("expected shape: stage a deviates everywhere; stage b is Gaussian in X1–X3");
    println!("but not X4–X5; stage c is Gaussian everywhere.");
    println!(
        "pairplots written to {}/fig6{{a,b,c}}.svg",
        out_dir().display()
    );
}
