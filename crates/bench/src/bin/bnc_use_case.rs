//! Figs. 7–8 — the British National Corpus use case (paper §IV-B), on
//! the BNC-like simulated corpus (`sider_data::bnc` documents the
//! substitution).
//!
//! Paper reference measurements:
//! * first selection ≈ 'transcribed conversations', Jaccard 0.928;
//! * second selection ≈ 'academic prose' + 'broadsheet newspaper'
//!   (Jaccard 0.63 / 0.35);
//! * afterwards "no apparent difference" (low PCA scores).
//!
//! Each view's selection is the last perceived cluster the user does
//! not know yet: one whose Jaccard index with every marked selection is
//! below 0.5, and with every marked selection's complement below 0.9.
//!
//! The last column is SIDER's side panel for each selection: the words
//! in which the selected texts differ most from the rest of the corpus
//! (`sider_core::selection::most_differing_attributes`).

use sider_bench::out_dir;
use sider_core::report::{format_convergence, TextTable};
use sider_core::selection::most_differing_attributes;
use sider_core::{EdaSession, SimulatedUser};
use sider_maxent::FitOpts;
use sider_projection::Method;
use sider_stats::metrics::{jaccard, jaccard_per_class};

fn main() {
    let dataset = sider_data::bnc::bnc_like_corpus(&sider_data::bnc::BncOpts::default(), 2018);
    let genres = dataset.primary_labels().expect("labels").clone();
    println!(
        "BNC-like corpus: {} texts × {} top words; genre sizes {:?}",
        dataset.n(),
        dataset.d(),
        genres.class_sizes()
    );
    let fit = FitOpts {
        lambda_tol: 1e-4,
        moment_tol: 1e-4,
        max_sweeps: 2000,
        time_cutoff: Some(std::time::Duration::from_secs(10)),
    };
    let mut session = EdaSession::new(dataset, 5).expect("session");
    session.add_margin_constraints().expect("margins");
    session.update_background(&fit).expect("update");

    let mut user = SimulatedUser::new(5, 20, 17);
    // What the user already knows, as (rows, Jaccard bound): each marked
    // selection, and each one's complement — "everything but the
    // conversations" repeats what marking the conversations taught. A
    // large part of a complement can be a new group, so a cluster counts
    // as the complement only when it all but equals it.
    let mut known: Vec<(Vec<usize>, f64)> = Vec::new();
    let mut summary = TextTable::new(&[
        "view",
        "top PCA score",
        "selection size",
        "best genre",
        "Jaccard",
        "2nd genre",
        "Jaccard",
        "most differing words",
    ]);

    for step in 1..=4 {
        let view = session.next_view(&Method::Pca).expect("view");
        let top = view.scores()[0];
        // The user marks the last perceived cluster they do not know yet.
        let fresh = if top < 0.02 {
            None
        } else {
            user.perceive_clusters(&view)
                .into_iter()
                .rev()
                .find(|c| known.iter().all(|(m, bound)| jaccard(c, m) < *bound))
        };
        let Some(selection) = fresh else {
            let why = if top < 0.02 {
                "(no striking difference)"
            } else {
                "(only known clusters)"
            };
            let mut row = vec!["-".to_string(); 8];
            row[0] = step.to_string();
            row[1] = format!("{top:.3}");
            row[3] = why.into();
            summary.row(row);
            break;
        };
        let n = session.dataset().n();
        known.push(((0..n).filter(|i| !selection.contains(i)).collect(), 0.9));
        known.push((selection.clone(), 0.5));
        let js = jaccard_per_class(&selection, &genres.assignments, 4);
        let mut ranked: Vec<(usize, f64)> = js.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let words: Vec<String> = most_differing_attributes(session.dataset(), &selection)
            .into_iter()
            .take(4)
            .map(|diff| diff.name)
            .collect();
        summary.row(vec![
            step.to_string(),
            format!("{top:.3}"),
            selection.len().to_string(),
            genres.class_names[ranked[0].0].clone(),
            format!("{:.3}", ranked[0].1),
            genres.class_names[ranked[1].0].clone(),
            format!("{:.3}", ranked[1].1),
            words.join(" "),
        ]);
        view.to_scatter_plot(&format!("BNC view {step}"), Some(&selection))
            .save(out_dir().join(format!("fig7_8_view{step}.svg")))
            .expect("svg");
        session
            .add_cluster_constraint(&selection)
            .expect("constraint");
        let report = session.update_background(&fit).expect("update");
        eprintln!("view {step} update: {}", format_convergence(&report));
    }

    println!("\nBNC exploration summary (paper: conversations 0.928; then academic 0.63 / broadsheet 0.35; then no striking difference):");
    println!("{}", summary.render());
    println!("views written to {}/fig7_8_view*.svg", out_dir().display());
}
