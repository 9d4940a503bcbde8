//! JSON wire formats for session state — the vocabulary of the
//! `sider_server` HTTP API.
//!
//! The module holds the encoders of everything a SIDER service sends, and
//! decoders only for what it reads:
//!
//! * **views** ([`view_to_json`]) — the full [`ViewState`]: projection
//!   axes, scores, axis captions, projected data and background sample;
//! * **fit reports** ([`report_to_json`], [`refresh_stats_to_json`]);
//! * **session snapshots** ([`snapshot_to_json`] / [`snapshot_from_json`])
//!   — the one snapshot format (the server's export/replay body and the
//!   CLI's `*_session.json`): knowledge statements only, replayable
//!   against the same dataset;
//! * **suggestions** ([`suggest_request_from_json`] /
//!   [`suggest_response_to_json`]) — the guided-exploration vocabulary:
//!   a candidate-batch spec (request seed, batch size, top-k) in, and the
//!   ranked scored candidates the `sider_suggest` engine returns out.
//!
//! Serialization is **deterministic**: object keys are emitted sorted
//! (`sider_json` stores objects in a `BTreeMap`) and every number is
//! printed as its shortest round-tripping decimal form. Combined with the
//! workspace-wide thread-count determinism contract (`sider_par`), two
//! servers running the same request sequence on different pool sizes
//! produce byte-identical response bodies — the end-to-end test in
//! `sider_server` asserts exactly that. For the same reason wall-clock
//! durations are deliberately **not** serialized ([`report_to_json`] omits
//! `ConvergenceReport::elapsed`).
//!
//! The snapshot round trip (`from_json ∘ to_json = id`) is
//! property-tested in `crates/core/tests/wire.rs`.

use crate::error::CoreError;
use crate::session::{EdaSession, KnowledgeKind, KnowledgeRecord};
use crate::view::ViewState;
use crate::Result;
use sider_json::Json;
use sider_linalg::Matrix;
use sider_maxent::{ConvergenceReport, RefreshStats, SweepInfo};

fn bad(msg: impl Into<String>) -> CoreError {
    CoreError::BadWire(msg.into())
}

fn as_index(x: f64, what: &str) -> Result<usize> {
    if x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x <= u32::MAX as f64 {
        Ok(x as usize)
    } else {
        Err(bad(format!("'{what}' is not a row index: {x}")))
    }
}

fn num_vec(v: &Json, what: &str) -> Result<Vec<f64>> {
    v.as_arr()
        .ok_or_else(|| bad(format!("'{what}' is not an array")))?
        .iter()
        .map(|x| {
            x.as_num()
                .filter(|f| f.is_finite())
                .ok_or_else(|| bad(format!("'{what}' contains a non-finite non-number")))
        })
        .collect()
}

fn index_arr(v: &Json, what: &str) -> Result<Vec<usize>> {
    num_vec(v, what)?
        .into_iter()
        .map(|x| as_index(x, what))
        .collect()
}

/// Serialize a matrix as an array of row arrays.
pub fn matrix_to_json(m: &Matrix) -> Json {
    Json::Arr(
        (0..m.rows())
            .map(|i| Json::from(m.row(i).to_vec()))
            .collect(),
    )
}

/// Parse a matrix from an array of equal-length row arrays of finite
/// numbers. An empty array is rejected (a matrix needs a column count).
pub fn matrix_from_json(v: &Json) -> Result<Matrix> {
    let rows = v.as_arr().ok_or_else(|| bad("matrix is not an array"))?;
    if rows.is_empty() {
        return Err(bad("matrix has no rows"));
    }
    let parsed: Vec<Vec<f64>> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| num_vec(row, &format!("matrix row {i}")))
        .collect::<Result<_>>()?;
    let d = parsed[0].len();
    if d == 0 || parsed.iter().any(|r| r.len() != d) {
        return Err(bad("matrix rows are empty or ragged"));
    }
    Ok(Matrix::from_rows(&parsed))
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

/// Serialize a [`ViewState`] — everything the SIDER scatter plot shows.
pub fn view_to_json(view: &ViewState) -> Json {
    Json::obj([
        ("method", Json::from(view.projection.method)),
        ("axes", matrix_to_json(&view.projection.axes)),
        ("scores", Json::from(view.projection.scores.to_vec())),
        ("all_scores", Json::from(view.projection.all_scores.clone())),
        (
            "axis_labels",
            Json::arr(view.axis_labels.iter().map(|s| Json::from(s.as_str()))),
        ),
        ("projected_data", matrix_to_json(&view.projected_data)),
        (
            "projected_background",
            matrix_to_json(&view.projected_background),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Reports and stats
// ---------------------------------------------------------------------------

fn sweep_info_to_json(s: &SweepInfo) -> Json {
    Json::obj([
        ("sweep", Json::from(s.sweep)),
        ("max_lambda_change", Json::from(s.max_lambda_change)),
        ("max_moment_change", Json::from(s.max_moment_change)),
        ("max_residual", Json::from(s.max_residual)),
    ])
}

/// Serialize a [`ConvergenceReport`].
///
/// `elapsed` is deliberately omitted: wall-clock time varies run to run,
/// and the wire format guarantees byte-identical responses for identical
/// request sequences (the determinism contract the end-to-end tests pin).
pub fn report_to_json(r: &ConvergenceReport) -> Json {
    let mut obj = vec![
        ("sweeps", Json::from(r.sweeps)),
        ("converged", Json::from(r.converged)),
        ("hit_time_cutoff", Json::from(r.hit_time_cutoff)),
    ];
    if let Some(last) = &r.last {
        obj.push(("last", sweep_info_to_json(last)));
    }
    Json::obj(obj)
}

/// Serialize [`RefreshStats`] — what the last background refresh actually
/// recomputed (the warm path's observable win).
pub fn refresh_stats_to_json(s: &RefreshStats) -> Json {
    Json::obj([
        ("classes_total", Json::from(s.classes_total)),
        ("eigen_recomputed", Json::from(s.eigen_recomputed)),
        ("mean_updated", Json::from(s.mean_updated)),
        ("cloned_from_parent", Json::from(s.cloned_from_parent)),
    ])
}

// ---------------------------------------------------------------------------
// Suggestions (guided exploration)
// ---------------------------------------------------------------------------

/// Default candidate-batch size for a suggest request.
pub const DEFAULT_SUGGEST_BATCH: usize = 64;
/// Default number of ranked suggestions returned.
pub const DEFAULT_SUGGEST_K: usize = 8;
/// Upper bound on the candidate batch a single request may ask for.
pub const MAX_SUGGEST_BATCH: usize = 4096;

/// A guided-exploration request: score a deterministic batch of candidate
/// 2-D projections against the session's current background model and
/// return the `k` most informative ones.
///
/// The `seed` drives only the *request-local* random candidates (via
/// counter-seeded [`sider_stats::Rng::substream`] streams) — never the
/// session RNG — so evaluating a request mutates nothing and replication
/// followers can serve it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuggestRequest {
    /// Seed for the request-local random candidate directions.
    pub seed: u64,
    /// Number of candidates generated and scored.
    pub batch: usize,
    /// Number of top-ranked suggestions returned (`1..=batch`).
    pub k: usize,
}

impl Default for SuggestRequest {
    fn default() -> Self {
        SuggestRequest {
            seed: 7,
            batch: DEFAULT_SUGGEST_BATCH,
            k: DEFAULT_SUGGEST_K,
        }
    }
}

/// One scored candidate projection in a [`SuggestResponse`].
#[derive(Debug, Clone)]
pub struct Suggestion {
    /// Index of this candidate in deterministic generation order.
    pub candidate: usize,
    /// Candidate family: `"pca"`, `"ica"`, `"attr"`, or `"random"`.
    pub source: &'static str,
    /// Human-readable caption (axis-label style for fitted directions,
    /// attribute names for axis pairs).
    pub label: String,
    /// The projection plane as a `2 × d` matrix of unit rows.
    pub axes: Matrix,
    /// Total information gain of the projected data vs the background
    /// (sum of the per-axis gains).
    pub gain: f64,
    /// Per-axis information gain `(σ² − log σ² − 1)/2` in whitened space.
    pub axis_gains: [f64; 2],
}

/// The ranked result of a suggest request: the echoed spec plus the top-k
/// candidates sorted by descending gain (candidate index breaks ties).
#[derive(Debug, Clone)]
pub struct SuggestResponse {
    /// Seed the candidates were generated from (echoed from the request).
    pub seed: u64,
    /// Total number of candidates generated and scored.
    pub batch: usize,
    /// Number of suggestions returned.
    pub k: usize,
    /// The ranked suggestions, best first.
    pub suggestions: Vec<Suggestion>,
}

fn seed_from_json(v: &Json, what: &str) -> Result<u64> {
    let x = v
        .as_num()
        .ok_or_else(|| bad(format!("'{what}' is not a number")))?;
    if x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x < u64::MAX as f64 {
        Ok(x as u64)
    } else {
        Err(bad(format!("'{what}' is not a valid seed: {x}")))
    }
}

/// Parse a [`SuggestRequest`] from a (possibly partial) object: every
/// missing field takes its [`SuggestRequest::default`] value, so `{}` is a
/// valid request. The batch is capped at [`MAX_SUGGEST_BATCH`] and `k`
/// must fit inside it.
pub fn suggest_request_from_json(v: &Json) -> Result<SuggestRequest> {
    if v.as_obj().is_none() {
        return Err(bad("suggest request must be an object"));
    }
    let defaults = SuggestRequest::default();
    let seed = match v.get("seed") {
        None => defaults.seed,
        Some(s) => seed_from_json(s, "seed")?,
    };
    let count = |key: &str, dflt: usize| -> Result<usize> {
        match v.get(key) {
            None => Ok(dflt),
            Some(_) => as_index(v.require_num(key).map_err(bad)?, key),
        }
    };
    let batch = count("batch", defaults.batch)?;
    let k = count("k", defaults.k)?;
    if batch == 0 || batch > MAX_SUGGEST_BATCH {
        return Err(bad(format!("'batch' must be in 1..={MAX_SUGGEST_BATCH}")));
    }
    if k == 0 || k > batch {
        return Err(bad("'k' must be in 1..=batch"));
    }
    Ok(SuggestRequest { seed, batch, k })
}

fn suggestion_to_json(s: &Suggestion) -> Json {
    Json::obj([
        ("candidate", Json::from(s.candidate)),
        ("source", Json::from(s.source)),
        ("label", Json::from(s.label.as_str())),
        ("axes", matrix_to_json(&s.axes)),
        ("gain", Json::from(s.gain)),
        ("axis_gains", Json::from(s.axis_gains.to_vec())),
    ])
}

/// Serialize a [`SuggestResponse`] — the echoed request spec plus the
/// ranked suggestions.
pub fn suggest_response_to_json(r: &SuggestResponse) -> Json {
    Json::obj([
        ("seed", Json::from(r.seed)),
        ("batch", Json::from(r.batch)),
        ("k", Json::from(r.k)),
        (
            "suggestions",
            Json::arr(r.suggestions.iter().map(suggestion_to_json)),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

fn knowledge_kind_str(kind: KnowledgeKind) -> &'static str {
    match kind {
        KnowledgeKind::Margin => "margin",
        KnowledgeKind::OneCluster => "one-cluster",
        KnowledgeKind::Cluster => "cluster",
        KnowledgeKind::TwoD => "twod",
    }
}

/// Serialize one knowledge statement (kind + the selection it came from).
pub fn knowledge_to_json(k: &KnowledgeRecord) -> Json {
    let mut obj = vec![("kind", Json::from(knowledge_kind_str(k.kind)))];
    if !k.rows.is_empty() {
        obj.push(("rows", Json::from(k.rows.clone())));
    }
    if let Some(axes) = &k.axes {
        obj.push(("axes", matrix_to_json(axes)));
    }
    obj.push(("n_constraints", Json::from(k.n_constraints)));
    obj.push(("tag", Json::from(k.tag.as_str())));
    Json::obj(obj)
}

/// Serialize the session's accumulated knowledge (paper §III: the
/// analyst reuses previously saved groupings). Only the statements are
/// stored, not the fitted parameters: replaying them against the same
/// dataset reconstructs the same constraints, and one
/// [`EdaSession::update_background`] then reproduces the same background
/// distribution — cold, even when the donor was fitted warm over several
/// rounds.
pub fn snapshot_to_json(session: &EdaSession) -> Json {
    Json::obj([
        ("format", Json::from("sider-session")),
        ("version", Json::from(1.0)),
        (
            "dataset",
            Json::obj([
                ("name", Json::from(session.dataset().name.as_str())),
                ("n", Json::from(session.dataset().n())),
                ("d", Json::from(session.dataset().d())),
            ]),
        ),
        (
            "knowledge",
            Json::arr(session.knowledge().iter().map(knowledge_to_json)),
        ),
    ])
}

/// Replay a JSON snapshot's knowledge statements into a session over the
/// same dataset (checked by shape). The background is *not* refitted —
/// call [`EdaSession::update_background`] afterwards. Returns the number
/// of statements applied.
///
/// Application is **atomic**: statements replay into a scratch copy of
/// the session, so a snapshot that fails mid-way (unknown kind, bad row,
/// ragged axes) leaves the live session — constraints, warm solver and
/// fitted background — untouched.
pub fn snapshot_from_json(session: &mut EdaSession, v: &Json) -> Result<usize> {
    if v.require_str("format").map_err(bad)? != "sider-session" {
        return Err(bad("not a sider-session snapshot"));
    }
    if v.require_num("version").map_err(bad)? != 1.0 {
        return Err(bad("unsupported snapshot version"));
    }
    let n = as_index(v.require_num("dataset.n").map_err(bad)?, "dataset.n")?;
    let d = as_index(v.require_num("dataset.d").map_err(bad)?, "dataset.d")?;
    if n != session.dataset().n() || d != session.dataset().d() {
        return Err(bad(format!(
            "snapshot is for a {n}x{d} dataset, session has {}x{}",
            session.dataset().n(),
            session.dataset().d()
        )));
    }
    let statements = v.require_arr("knowledge").map_err(bad)?;
    // Replay into a scratch copy first so a malformed statement in the
    // middle of the list cannot leave the live session half-mutated.
    let mut staged = session.clone();
    for (i, stmt) in statements.iter().enumerate() {
        let kind = stmt
            .require_str("kind")
            .map_err(|e| bad(format!("knowledge[{i}]: {e}")))?;
        let rows = || -> Result<Vec<usize>> {
            index_arr(
                stmt.get("rows")
                    .ok_or_else(|| bad(format!("knowledge[{i}]: missing 'rows'")))?,
                "rows",
            )
        };
        match kind {
            "margin" => staged.add_margin_constraints()?,
            "one-cluster" => staged.add_one_cluster_constraint()?,
            "cluster" => staged.add_cluster_constraint(&rows()?)?,
            "twod" => {
                let axes = matrix_from_json(
                    stmt.get("axes")
                        .ok_or_else(|| bad(format!("knowledge[{i}]: missing 'axes'")))?,
                )?;
                staged.add_twod_constraint(&rows()?, &axes)?;
            }
            other => {
                return Err(bad(format!(
                    "knowledge[{i}]: unknown knowledge kind '{other}'"
                )))
            }
        }
    }
    *session = staged;
    Ok(statements.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sider_data::synthetic::three_d_four_clusters;
    use sider_maxent::FitOpts;

    fn session() -> EdaSession {
        EdaSession::new(three_d_four_clusters(2018), 7).unwrap()
    }

    #[test]
    fn bad_payloads_rejected() {
        assert!(matrix_from_json(&Json::parse("[]").unwrap()).is_err());
        assert!(matrix_from_json(&Json::parse("[[1,2],[3]]").unwrap()).is_err());
        assert!(matrix_from_json(&Json::parse("3").unwrap()).is_err());
    }

    fn tight() -> FitOpts {
        FitOpts {
            lambda_tol: 1e-8,
            moment_tol: 1e-8,
            max_sweeps: 5000,
            ..FitOpts::default()
        }
    }

    /// Replay `donor`'s snapshot (through its JSON text) into a fresh
    /// session, fit once, and check both backgrounds agree to `tol` (the
    /// information content to `tol`, but never tighter than 1e-9).
    fn assert_replay_reproduces(donor: &EdaSession, opts: &FitOpts, applied: usize, tol: f64) {
        let reparsed = Json::parse(&snapshot_to_json(donor).dump()).unwrap();
        let mut restored = session();
        assert_eq!(
            snapshot_from_json(&mut restored, &reparsed).unwrap(),
            applied
        );
        assert_eq!(restored.n_constraints(), donor.n_constraints());
        restored.update_background(opts).unwrap();
        for row in [0usize, 10, 11, 60, 100, 120] {
            for (a, b) in donor
                .background()
                .mean(row)
                .iter()
                .zip(restored.background().mean(row))
            {
                assert!((a - b).abs() < tol, "row {row}: {a} vs {b}");
            }
            let (kd, kr) = (
                donor.background().kl_from_prior(row),
                restored.background().kl_from_prior(row),
            );
            assert!((kd - kr).abs() < tol, "row {row}: KL {kd} vs {kr}");
        }
        let (yd, yr) = (donor.whitened().unwrap(), restored.whitened().unwrap());
        assert!(yd.max_abs_diff(&yr) < tol, "whitened data");
        let nats_tol = tol.max(1e-9);
        assert!((donor.information_nats() - restored.information_nats()).abs() < nats_tol);
    }

    #[test]
    fn snapshot_roundtrip_reproduces_background() {
        // A donor fitted once: the replay is the same cold fit.
        let mut original = session();
        original.add_margin_constraints().unwrap();
        original.add_cluster_constraint(&[0, 1, 2, 3, 4]).unwrap();
        let axes = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]);
        original.add_twod_constraint(&[10, 11, 12], &axes).unwrap();
        original.update_background(&FitOpts::default()).unwrap();
        assert_replay_reproduces(&original, &FitOpts::default(), 3, 1e-12);

        // A donor fitted the interactive way — an update (warm after the
        // first) between statements — against a one-shot cold replay.
        let mut donor = session();
        donor.add_margin_constraints().unwrap();
        donor.update_background(&tight()).unwrap();
        donor
            .add_cluster_constraint(&(0..20).collect::<Vec<_>>())
            .unwrap();
        donor.update_background(&tight()).unwrap();
        donor
            .add_cluster_constraint(&(50..75).collect::<Vec<_>>())
            .unwrap();
        donor.update_background(&tight()).unwrap();
        assert!(donor.has_warm_solver());
        assert_replay_reproduces(&donor, &tight(), 3, 1e-4);

        // An empty knowledge list applies nothing and leaves the session
        // clean.
        let empty = Json::parse(&snapshot_to_json(&session()).dump()).unwrap();
        assert_eq!(empty.require_arr("knowledge").unwrap().len(), 0);
        let mut s = session();
        assert_eq!(snapshot_from_json(&mut s, &empty).unwrap(), 0);
        assert_eq!(s.n_constraints(), 0);
        assert!(!s.is_dirty());
    }

    #[test]
    fn snapshot_rejects_mismatched_dataset() {
        let donor = {
            let mut s = session();
            s.add_margin_constraints().unwrap();
            snapshot_to_json(&s)
        };
        let mut tiny = EdaSession::new(
            sider_data::Dataset::unlabeled("tiny", Matrix::identity(2)),
            1,
        )
        .unwrap();
        assert!(matches!(
            snapshot_from_json(&mut tiny, &donor),
            Err(CoreError::BadWire(_))
        ));
        let mut s = session();
        assert!(snapshot_from_json(&mut s, &Json::parse(r#"{"format":"x"}"#).unwrap()).is_err());
    }

    #[test]
    fn snapshot_rejects_unknown_versions_and_formats() {
        // A future snapshot version must be rejected up front, not
        // half-parsed with this version's schema.
        let mut donor = session();
        donor.add_margin_constraints().unwrap();
        let good = snapshot_to_json(&donor);
        let mut s = session();
        assert_eq!(snapshot_from_json(&mut s, &good).unwrap(), 1);

        for (key, value) in [
            ("version", Json::from(2.0)),
            ("version", Json::from("1")),
            ("version", Json::Null),
            ("format", Json::from("sider-checkpoint")),
        ] {
            let mut doc = good.clone();
            if let Json::Obj(map) = &mut doc {
                map.insert(key.into(), value);
            }
            let mut target = session();
            assert!(
                matches!(
                    snapshot_from_json(&mut target, &doc),
                    Err(CoreError::BadWire(_))
                ),
                "{key} tamper must be rejected"
            );
            assert_eq!(target.knowledge().len(), 0);
        }
    }

    #[test]
    fn snapshot_apply_is_atomic() {
        // A snapshot whose *last* statement is malformed must leave the
        // target session untouched — not half-applied.
        let doc = |bad: &str| {
            let text = format!(
                r#"{{"format":"sider-session","version":1,
                    "dataset":{{"name":"x","n":150,"d":3}},
                    "knowledge":[{{"kind":"margin"}},
                                 {{"kind":"cluster","rows":[0,1,2]}},
                                 {bad}]}}"#
            );
            Json::parse(&text).unwrap()
        };
        let failing = [
            // unknown statement kind
            doc(r#"{"kind":"frobnicate"}"#),
            // out-of-range row
            doc(r#"{"kind":"cluster","rows":[0,999]}"#),
            // ragged axes: the second axis is cut mid-way
            doc(r#"{"kind":"twod","rows":[1,2],"axes":[[1,0,0],[0,1]]}"#),
        ];
        for parsed in &failing {
            let mut s = session();
            assert!(snapshot_from_json(&mut s, parsed).is_err());
            assert_eq!(s.n_constraints(), 0);
            assert_eq!(s.knowledge().len(), 0);
            assert!(!s.is_dirty());
        }

        // …and a session with fitted warm state keeps all of it, bit for
        // bit.
        let mut warm = session();
        warm.add_margin_constraints().unwrap();
        warm.update_background(&FitOpts::default()).unwrap();
        let nats = warm.information_nats();
        for parsed in &failing {
            assert!(snapshot_from_json(&mut warm, parsed).is_err());
            assert_eq!(warm.n_constraints(), 6);
            assert_eq!(warm.knowledge().len(), 1);
            assert!(!warm.is_dirty());
            assert!(warm.has_warm_solver());
            assert_eq!(warm.information_nats().to_bits(), nats.to_bits());
        }
    }

    #[test]
    fn report_omits_wall_clock() {
        let mut s = session();
        s.add_margin_constraints().unwrap();
        let report = s.update_background(&FitOpts::default()).unwrap();
        let json = report_to_json(&report);
        assert!(json.get("elapsed").is_none());
        assert_eq!(json.require_num("sweeps").unwrap(), report.sweeps as f64);
        assert_eq!(json.get("converged").unwrap().as_bool(), Some(true));
        let stats = s.last_refresh_stats().unwrap();
        let sj = refresh_stats_to_json(&stats);
        assert_eq!(
            sj.require_num("classes_total").unwrap(),
            stats.classes_total as f64
        );
    }
}
