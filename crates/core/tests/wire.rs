//! Round-trip property tests for the JSON wire formats
//! (`from_json ∘ to_json = id`, through an actual parse of the dumped
//! text — the same bytes a server would put on the socket).

use proptest::prelude::*;
use sider_core::wire;
use sider_core::EdaSession;
use sider_data::synthetic::three_d_four_clusters;
use sider_json::Json;
use sider_linalg::Matrix;
use sider_maxent::{FitOpts, RefreshStats};
use sider_projection::Method;

fn session() -> EdaSession {
    EdaSession::new(three_d_four_clusters(2018), 7).unwrap()
}

/// Deterministic selection of `k` distinct rows out of 150, keyed by seed.
fn rows(seed: u64, k: usize) -> Vec<usize> {
    let mut out: Vec<usize> = (0..150).collect();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..out.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.swap(i, (state % (i as u64 + 1)) as usize);
    }
    out.truncate(k.max(2));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn constraint_payloads_roundtrip(seed in 0u64..10_000, k in 2usize..40) {
        let mut s = session();
        s.add_margin_constraints().unwrap();
        s.add_cluster_constraint(&rows(seed, k)).unwrap();
        let axes = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]);
        s.add_twod_constraint(&rows(seed ^ 0xA5, k), &axes).unwrap();
        for c in s.constraints() {
            let text = wire::constraint_to_json(c).dump();
            let back = wire::constraint_from_json(&Json::parse(&text).unwrap()).unwrap();
            prop_assert_eq!(back.kind, c.kind);
            prop_assert_eq!(back.rows.to_usize_vec(), c.rows.to_usize_vec());
            prop_assert_eq!(back.label.clone(), c.label.clone());
            prop_assert_eq!(back.target.to_bits(), c.target.to_bits());
            prop_assert_eq!(back.delta.to_bits(), c.delta.to_bits());
            for (a, b) in back.w.iter().zip(&c.w) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in back.mhat.iter().zip(&c.mhat) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn snapshot_payloads_roundtrip(seed in 0u64..10_000, k in 2usize..30) {
        let mut donor = session();
        donor.add_margin_constraints().unwrap();
        donor.add_cluster_constraint(&rows(seed, k)).unwrap();
        if seed % 2 == 0 {
            donor.add_one_cluster_constraint().unwrap();
        }
        let axes = Matrix::from_rows(&[vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]]);
        donor.add_twod_constraint(&rows(seed ^ 0x5A, k), &axes).unwrap();

        let text = wire::snapshot_to_json(&donor).dump();
        let parsed = Json::parse(&text).unwrap();
        let mut restored = session();
        let applied = wire::snapshot_from_json(&mut restored, &parsed).unwrap();
        prop_assert_eq!(applied, donor.knowledge().len());
        prop_assert_eq!(restored.n_constraints(), donor.n_constraints());
        // Same knowledge → same serialized snapshot, byte for byte.
        prop_assert_eq!(wire::snapshot_to_json(&restored).dump(), text);
    }

}

#[test]
fn view_payload_roundtrips_bitwise() {
    let mut s = session();
    s.add_margin_constraints().unwrap();
    s.update_background(&FitOpts::default()).unwrap();
    let view = s.next_view(&Method::Pca).unwrap();
    let text = wire::view_to_json(&view).dump();
    let back = wire::view_from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back.projection.method, view.projection.method);
    assert_eq!(
        back.projection.axes.as_slice(),
        view.projection.axes.as_slice()
    );
    assert_eq!(back.projection.all_scores, view.projection.all_scores);
    assert_eq!(back.axis_labels, view.axis_labels);
    assert_eq!(
        back.projected_data.as_slice(),
        view.projected_data.as_slice()
    );
    assert_eq!(
        back.projected_background.as_slice(),
        view.projected_background.as_slice()
    );
    // Serializing the reconstruction reproduces the exact bytes.
    assert_eq!(wire::view_to_json(&back).dump(), text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `refresh_stats_from_json ∘ refresh_stats_to_json = id` for every
    /// counter combination.
    #[test]
    fn refresh_stats_payloads_roundtrip(
        total in 0usize..10_000,
        eig in 0usize..10_000,
        mean in 0usize..10_000,
        cloned in 0usize..10_000,
    ) {
        let stats = RefreshStats {
            classes_total: total,
            eigen_recomputed: eig,
            mean_updated: mean,
            cloned_from_parent: cloned,
        };
        let text = wire::refresh_stats_to_json(&stats).dump();
        let back = wire::refresh_stats_from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back, stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Suggest requests round-trip bitwise, and a full engine response
    /// (candidate axes, gains, labels) survives
    /// `from_json ∘ parse ∘ dump ∘ to_json` with the exact same bytes.
    #[test]
    fn suggest_payloads_roundtrip_bitwise(
        seed in 0u64..1_000_000,
        batch in 8usize..96,
        k in 1usize..8,
    ) {
        let req = wire::SuggestRequest { seed, batch, k };
        let text = wire::suggest_request_to_json(&req).dump();
        let back = wire::suggest_request_from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back, req.clone());

        // A synthetic ranked response with awkward but finite floats: the
        // serializer must reproduce every bit, not just pretty values.
        let suggestions: Vec<wire::Suggestion> = (0..k.min(batch))
            .map(|i| {
                let base = (seed as f64 + 1.0).recip() * (i as f64 + 1.0);
                let gains = [base * 1e-7, base.fract() * 3.0e4];
                wire::Suggestion {
                    candidate: i * 3,
                    source: ["pca", "ica", "attr", "random"][i % 4],
                    label: format!("candidate #{i} × {seed}"),
                    axes: Matrix::from_rows(&[
                        vec![base, -base, base * 0.5],
                        vec![0.0, base * 1e3, -1.0],
                    ]),
                    gain: gains[0] + gains[1],
                    axis_gains: gains,
                }
            })
            .collect();
        let resp = wire::SuggestResponse { seed, batch, k, suggestions };
        let text = wire::suggest_response_to_json(&resp).dump();
        let back = wire::suggest_response_from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back.seed, resp.seed);
        prop_assert_eq!(back.batch, resp.batch);
        prop_assert_eq!(back.k, resp.k);
        prop_assert_eq!(back.suggestions.len(), resp.suggestions.len());
        for (a, b) in back.suggestions.iter().zip(&resp.suggestions) {
            prop_assert_eq!(a.candidate, b.candidate);
            prop_assert_eq!(a.source, b.source);
            prop_assert_eq!(a.label.clone(), b.label.clone());
            prop_assert_eq!(a.gain.to_bits(), b.gain.to_bits());
            for (x, y) in a.axes.as_slice().iter().zip(b.axes.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in a.axis_gains.iter().zip(&b.axis_gains) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Serializing the reconstruction reproduces the exact bytes.
        prop_assert_eq!(wire::suggest_response_to_json(&back).dump(), text);
    }
}

#[test]
fn suggest_request_defaults_and_validation() {
    let parsed = wire::suggest_request_from_json(&Json::parse("{}").unwrap()).unwrap();
    assert_eq!(parsed, wire::SuggestRequest::default());
    assert_eq!(parsed.batch, wire::DEFAULT_SUGGEST_BATCH);
    assert_eq!(parsed.k, wire::DEFAULT_SUGGEST_K);
    for bad in [
        "[]",
        r#"{"batch":0}"#,
        r#"{"batch":1000000}"#,
        r#"{"k":0}"#,
        r#"{"batch":8,"k":9}"#,
        r#"{"seed":-1}"#,
        r#"{"seed":1.5}"#,
        r#"{"seed":"seven"}"#,
    ] {
        assert!(
            wire::suggest_request_from_json(&Json::parse(bad).unwrap()).is_err(),
            "suggest request {bad} must be rejected"
        );
    }
    assert!(
        wire::suggest_response_from_json(&Json::parse(r#"{"seed":1}"#).unwrap()).is_err(),
        "truncated suggest response must be rejected"
    );
}

#[test]
fn refresh_stats_missing_fields_default_to_zero() {
    let four = RefreshStats {
        classes_total: 5,
        eigen_recomputed: 3,
        mean_updated: 2,
        cloned_from_parent: 1,
    };
    // Today's payload, and one from a server that still had the rank-1
    // refresh path and sent its two counters too: those keys are ignored.
    for payload in [
        r#"{"classes_total":5,"cloned_from_parent":1,"eigen_recomputed":3,"mean_updated":2}"#,
        r#"{"classes_total":5,"cloned_from_parent":1,"eigen_rank_updated":1,"eigen_recomputed":3,"mean_updated":2,"rank1_directions_applied":2}"#,
    ] {
        let stats = wire::refresh_stats_from_json(&Json::parse(payload).unwrap()).unwrap();
        assert_eq!(stats, four, "{payload}");
    }
    // A partial payload defaults its missing counters to 0.
    let partial = r#"{"classes_total":4,"eigen_recomputed":1}"#;
    let stats = wire::refresh_stats_from_json(&Json::parse(partial).unwrap()).unwrap();
    assert_eq!((stats.mean_updated, stats.cloned_from_parent), (0, 0));
    // The empty object is the degenerate old payload: all-zero stats.
    assert_eq!(
        wire::refresh_stats_from_json(&Json::parse("{}").unwrap()).unwrap(),
        RefreshStats::default()
    );
}

#[test]
fn refresh_stats_rejects_malformed_payloads() {
    for bad in [
        "[]",
        "3",
        r#"{"classes_total":-1}"#,
        r#"{"eigen_recomputed":1.5}"#,
        r#"{"mean_updated":"many"}"#,
    ] {
        assert!(
            wire::refresh_stats_from_json(&Json::parse(bad).unwrap()).is_err(),
            "payload {bad} must be rejected"
        );
    }
}
