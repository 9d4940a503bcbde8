//! Property tests for the JSON wire formats the server reads: the
//! snapshot round trip (`from_json ∘ to_json = id`, through an actual
//! parse of the dumped text — the same bytes a server would put on the
//! socket) and suggest-request parsing.

use proptest::prelude::*;
use sider_core::wire;
use sider_core::EdaSession;
use sider_data::synthetic::three_d_four_clusters;
use sider_json::Json;
use sider_linalg::Matrix;

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

    /// Any in-range request text parses to exactly the spec it names.
    #[test]
    fn suggest_requests_parse(seed in 0u64..1_000_000, batch in 8usize..96, k in 1usize..8) {
        let text = format!(r#"{{"batch":{batch},"k":{k},"seed":{seed}}}"#);
        let parsed = wire::suggest_request_from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(parsed, wire::SuggestRequest { seed, batch, k });
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
}
