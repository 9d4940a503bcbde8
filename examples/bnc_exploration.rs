//! The British National Corpus use case (paper §IV-B, Figs. 7–8),
//! on the BNC-like simulated corpus (the real corpus is
//! license-restricted; `sider_data::bnc` documents the substitution).
//!
//! Storyline: the first informative PCA view of top-100-word counts shows
//! a tight group — the *transcribed conversations* (the paper's selection
//! had Jaccard 0.928 to that class). Marking it and updating, the next
//! view isolates a mixed academic/broadsheet group (paper: 0.63/0.35).
//! After absorbing both, no striking difference remains.
//!
//! Run with:
//! ```sh
//! cargo run --release --example bnc_exploration
//! ```

use sider::core::{EdaSession, SimulatedUser};
use sider::maxent::FitOpts;
use sider::projection::Method;
use sider::stats::metrics::{jaccard, jaccard_per_class};

fn main() {
    let dataset = sider::data::bnc::bnc_like_corpus(&sider::data::bnc::BncOpts::default(), 2018);
    let genres = dataset.primary_labels().expect("genre labels").clone();
    println!(
        "dataset: BNC-like corpus ({} texts × {} top words; genres: {:?})",
        dataset.n(),
        dataset.d(),
        genres.class_sizes()
    );

    // Counts have wildly different scales per word; the paper's pipeline
    // works on the count matrix directly, with margins as the first
    // knowledge (SIDER standardizes via margin constraints).
    // Tighter tolerances than the interactive defaults: with d = 100 and
    // strongly correlated counts, the loose 1e-2 criteria leave residuals
    // big enough to re-surface already-marked structure.
    let fit = FitOpts {
        lambda_tol: 1e-4,
        moment_tol: 1e-4,
        max_sweeps: 2000,
        time_cutoff: Some(std::time::Duration::from_secs(10)),
        ..FitOpts::default()
    };
    let mut session = EdaSession::new(dataset, 5).expect("session");
    session.add_margin_constraints().expect("margins");
    session.update_background(&fit).expect("update");

    let mut user = SimulatedUser::new(5, 20, 17);
    // Selections already turned into constraints: a real analyst would not
    // mark the same group twice, so the simulated one skips near-duplicates.
    let mut marked: Vec<Vec<usize>> = Vec::new();

    for step in 1..=4 {
        let view = session.next_view(&Method::Pca).expect("view");
        println!("\n[view {step}] {}", view.axis_labels[0]);
        println!("          {}", view.axis_labels[1]);
        println!(
            "          top PCA scores: {:?}",
            view.projection
                .all_scores
                .iter()
                .take(3)
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
        );
        if view.scores()[0] < 0.02 {
            println!("          no striking difference left — stop");
            break;
        }
        let clusters = user.perceive_clusters(&view);
        // The user marks the most coherent (smallest) visible group that
        // she has not marked before, like the paper's corner selections.
        let Some(selection) = clusters
            .iter()
            .rev()
            .find(|c| marked.iter().all(|m| jaccard(c, m) < 0.5))
            .cloned()
        else {
            println!("          nothing new to mark — stop");
            break;
        };
        let selection = &selection;
        marked.push(selection.clone());
        let js = jaccard_per_class(selection, &genres.assignments, 4);
        let mut ranked: Vec<(usize, f64)> = js.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        println!(
            "          marked {} texts; Jaccard to classes: {} ({:.3}), {} ({:.3})",
            selection.len(),
            genres.class_names[ranked[0].0],
            ranked[0].1,
            genres.class_names[ranked[1].0],
            ranked[1].1
        );
        // SIDER's lower-right panel: the attributes in which the selection
        // differs most from the rest of the corpus.
        let diffs = sider::core::selection::most_differing_attributes(session.dataset(), selection);
        let top: Vec<String> = diffs
            .iter()
            .take(4)
            .map(|d| format!("{} (d={:.1})", d.name, d.score))
            .collect();
        println!("          most differing words: {}", top.join(", "));
        view.to_scatter_plot(&format!("BNC view {step}"), Some(selection))
            .save(format!("out/bnc_view{step}.svg"))
            .expect("write svg");
        session
            .add_cluster_constraint(selection)
            .expect("constraint");
        let report = session.update_background(&fit).expect("update");
        println!(
            "          background: {}",
            sider::core::report::format_convergence(&report)
        );
    }
    println!("\nSVGs written to out/bnc_view*.svg");
}
