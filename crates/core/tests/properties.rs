//! Property-based tests for the session-level warm-start contract.
//!
//! The interactive loop relies on two equivalences, exercised here over
//! many generated interaction patterns:
//!
//! 1. **Warm = cold.** A session that fits, absorbs more knowledge, and
//!    warm-refits must end up with the same background distribution as a
//!    session given all the knowledge up front and fitted cold.
//! 2. **Undo = never happened.** `undo_last_knowledge` followed by a refit
//!    must match a fresh session that never saw the undone statement.

use proptest::prelude::*;
use sider_core::EdaSession;
use sider_data::synthetic::three_d_four_clusters;
use sider_maxent::FitOpts;

fn tight() -> FitOpts {
    FitOpts {
        lambda_tol: 1e-8,
        moment_tol: 1e-8,
        max_sweeps: 5000,
        ..FitOpts::default()
    }
}

fn session() -> EdaSession {
    EdaSession::new(three_d_four_clusters(2018), 7).unwrap()
}

/// Assert two sessions model every row identically (within `tol`) in what
/// the program reads of a background: each row's mean and information,
/// and the whitened data.
fn assert_same_background(a: &EdaSession, b: &EdaSession, tol: f64) {
    for row in 0..a.dataset().n() {
        for (x, y) in a
            .background()
            .mean(row)
            .iter()
            .zip(b.background().mean(row))
        {
            assert!((x - y).abs() < tol, "row {row} mean {x} vs {y}");
        }
        let (ka, kb) = (
            a.background().kl_from_prior(row),
            b.background().kl_from_prior(row),
        );
        assert!((ka - kb).abs() < tol, "row {row} KL {ka} vs {kb}");
    }
    let (ya, yb) = (a.whitened().unwrap(), b.whitened().unwrap());
    assert!(ya.max_abs_diff(&yb) < tol, "whitened data");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn warm_refit_after_cluster_matches_cold(start in 0usize..100, len in 4usize..40) {
        let rows: Vec<usize> = (start..start + len).collect();

        let mut warm = session();
        warm.add_margin_constraints().unwrap();
        warm.update_background(&tight()).unwrap();
        warm.add_cluster_constraint(&rows).unwrap();
        let report = warm.update_background(&tight()).unwrap();
        prop_assert!(report.converged);

        let mut cold = session();
        cold.add_margin_constraints().unwrap();
        cold.add_cluster_constraint(&rows).unwrap();
        let cold_report = cold.update_background(&tight()).unwrap();
        prop_assert!(cold_report.converged);

        assert_same_background(&warm, &cold, 1e-5);
        prop_assert!(
            (warm.information_nats() - cold.information_nats()).abs()
                < 1e-4 * cold.information_nats().max(1.0)
        );
    }

    #[test]
    fn undo_then_refit_matches_fresh_session(start in 0usize..100, len in 4usize..40) {
        let rows: Vec<usize> = (start..start + len).collect();

        let mut undone = session();
        undone.add_margin_constraints().unwrap();
        undone.add_cluster_constraint(&rows).unwrap();
        undone.update_background(&tight()).unwrap();
        undone.undo_last_knowledge().unwrap();
        undone.update_background(&tight()).unwrap();

        let mut fresh = session();
        fresh.add_margin_constraints().unwrap();
        fresh.update_background(&tight()).unwrap();

        // Both paths are cold fits over identical constraints: the
        // reconstruction is deterministic, not merely tolerance-close.
        assert_same_background(&undone, &fresh, 1e-12);
        prop_assert_eq!(undone.n_constraints(), fresh.n_constraints());
    }

    #[test]
    fn interleaved_rounds_match_one_shot(seed in 0u64..50) {
        // Three rounds of knowledge absorbed one update at a time (all
        // warm after the first) vs. everything in one cold fit.
        let a_start = (seed as usize * 7) % 60;
        let b_start = 70 + (seed as usize * 11) % 50;
        let rows_a: Vec<usize> = (a_start..a_start + 12).collect();
        let rows_b: Vec<usize> = (b_start..b_start + 9).collect();

        let mut warm = session();
        warm.add_margin_constraints().unwrap();
        warm.update_background(&tight()).unwrap();
        warm.add_cluster_constraint(&rows_a).unwrap();
        warm.update_background(&tight()).unwrap();
        warm.add_cluster_constraint(&rows_b).unwrap();
        warm.update_background(&tight()).unwrap();

        let mut cold = session();
        cold.add_margin_constraints().unwrap();
        cold.add_cluster_constraint(&rows_a).unwrap();
        cold.add_cluster_constraint(&rows_b).unwrap();
        cold.update_background(&tight()).unwrap();

        assert_same_background(&warm, &cold, 1e-4);
    }
}
