//! The logged operation vocabulary and its **single apply path**.
//!
//! Durability by replay only works if the bytes in the log are applied to
//! a session in exactly one way: the HTTP handler that mutated the live
//! session and the recovery path that rebuilds it after a restart must be
//! the *same code*, or the two will drift and recovery will silently
//! reconstruct a different session. This module is that code:
//! `sider_server`'s mutating endpoints parse a request into an [`Op`],
//! call [`apply`], log the op, and build the response from the returned
//! [`Applied`]. Recovery, checkpoint replay and a follower read ops back
//! and call [`replay`], which parses every op with the same code and
//! applies every op but a view through [`apply`] itself.
//!
//! Note that `view` **is** a logged, mutating operation even though it
//! looks like a read: computing a view draws a fresh background sample
//! from the session RNG, so two sessions that served different view
//! sequences are in different states. Replay therefore steps the RNG as
//! the view did, which is what makes a recovered session's *next* view
//! byte-identical to the one a never-restarted server would produce. It
//! does not rebuild the view: the one place replay differs from the live
//! path is a PCA view, whose only effect on the session is the single
//! draw that seeds its background sample ([`EdaSession::skip_view`]). An
//! ICA view's start draws depend on the rank of the whitened data, so
//! replay still runs it in full.

use sider_core::wire;
use sider_core::{CoreError, EdaSession, ViewState};
use sider_data::Dataset;
use sider_json::Json;
use sider_par::ThreadPool;
use sider_projection::{IcaOpts, Method};
use std::io::BufReader;
use std::sync::{Arc, OnceLock};

/// Most ICA restarts one `view` op may ask for — each restart is a full
/// FastICA run, so the cap bounds how long a single request can hold a
/// pool thread (the paper's experiments use single-digit counts).
pub const MAX_ICA_RESTARTS: usize = 64;

/// The kinds of state-changing operations a session can absorb. One log
/// record per op; the `create` op is always the first record of a
/// session's history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Create the session: dataset ref (builtin name) or inline CSV, plus
    /// the RNG seed.
    Create,
    /// Add one knowledge statement (margin / one-cluster / cluster / twod).
    Knowledge,
    /// Refit the background (cold the first time, warm after).
    Update,
    /// Drop the most recent knowledge statement.
    Undo,
    /// Compute the next most-informative view (advances the session RNG).
    View,
    /// Replay a wire-format knowledge snapshot into the session.
    Snapshot,
}

impl OpKind {
    /// The wire tag stored in log records.
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::Knowledge => "knowledge",
            OpKind::Update => "update",
            OpKind::Undo => "undo",
            OpKind::View => "view",
            OpKind::Snapshot => "snapshot",
        }
    }

    /// Parse a wire tag back.
    pub fn parse(s: &str) -> Option<OpKind> {
        Some(match s {
            "create" => OpKind::Create,
            "knowledge" => OpKind::Knowledge,
            "update" => OpKind::Update,
            "undo" => OpKind::Undo,
            "view" => OpKind::View,
            "snapshot" => OpKind::Snapshot,
            _ => return None,
        })
    }
}

/// One logged operation: a log sequence number, the kind, and the JSON
/// request body it was applied with (canonicalized by `sider_json`'s
/// deterministic serializer, so identical request histories produce
/// identical log bytes).
#[derive(Debug, Clone)]
pub struct Op {
    /// Position in the session's history (the create op is LSN 1).
    pub lsn: u64,
    /// What the operation did.
    pub kind: OpKind,
    /// The request body it was applied with.
    pub body: Json,
}

impl Op {
    /// Serialize into a WAL record payload: the canonical form the hot
    /// append path's hand-assembled record text must equal.
    #[cfg(test)]
    pub(crate) fn to_payload(&self) -> Vec<u8> {
        Json::obj([
            ("lsn", Json::from(self.lsn)),
            ("op", Json::from(self.kind.as_str())),
            ("body", self.body.clone()),
        ])
        .dump()
        .into_bytes()
    }

    /// Parse a WAL record payload back into an op.
    pub fn from_payload(payload: &[u8]) -> Result<Op, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("non-UTF-8 record: {e}"))?;
        let json = Json::parse(text)?;
        Op::from_json(&json)
    }

    /// Parse the JSON form of a record (shared with checkpoint documents).
    pub fn from_json(json: &Json) -> Result<Op, String> {
        let lsn = json.require_num("lsn")?;
        if !(lsn.is_finite() && lsn >= 1.0 && lsn.fract() == 0.0) {
            return Err(format!("bad record lsn: {lsn}"));
        }
        let kind = OpKind::parse(json.require_str("op")?)
            .ok_or_else(|| format!("unknown op kind {:?}", json.require_str("op")))?;
        let body = json.get("body").cloned().unwrap_or(Json::Null);
        Ok(Op {
            lsn: lsn as u64,
            kind,
            body,
        })
    }

    /// The JSON form of a record (shared with checkpoint documents).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("lsn", Json::from(self.lsn)),
            ("op", Json::from(self.kind.as_str())),
            ("body", self.body.clone()),
        ])
    }
}

/// Why an op could not be applied.
#[derive(Debug)]
pub enum OpError {
    /// The op body is invalid (an HTTP 400).
    Bad(String),
    /// The op conflicts with session state, e.g. undo with no knowledge
    /// (an HTTP 409).
    Conflict(String),
    /// The session itself rejected or failed the op.
    Core(CoreError),
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::Bad(m) => write!(f, "bad op: {m}"),
            OpError::Conflict(m) => write!(f, "conflict: {m}"),
            OpError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl From<CoreError> for OpError {
    fn from(e: CoreError) -> Self {
        OpError::Core(e)
    }
}

fn bad(msg: impl Into<String>) -> OpError {
    OpError::Bad(msg.into())
}

/// What applying an op produced — everything a response needs beyond the
/// session state itself. Recovery discards these.
#[derive(Debug)]
pub enum Applied {
    /// The knowledge record that was added, serialized.
    Knowledge {
        /// `wire::knowledge_to_json` of the new statement.
        added: Json,
    },
    /// The refit outcome.
    Update {
        /// `wire::report_to_json` of the convergence report.
        report: Json,
        /// Whether the warm path was taken.
        was_warm: bool,
        /// `wire::refresh_stats_to_json` of the refresh counters.
        refresh: Option<Json>,
    },
    /// The knowledge record that was removed, serialized.
    Undo {
        /// `wire::knowledge_to_json` of the dropped statement.
        removed: Json,
    },
    /// The computed view.
    View {
        /// The full view state (projection, projected data + background).
        view: Box<ViewState>,
    },
    /// Snapshot replay outcome.
    Snapshot {
        /// Number of statements applied.
        applied: usize,
    },
}

/// Validate a collection index ([`Json::as_index`]: exact non-negative
/// integer ≤ `u32::MAX`) — the one bound shared by every row/class field,
/// so no hand-rolled copy can silently saturate with `as usize`.
pub fn index_of(v: &Json, what: &str) -> Result<usize, OpError> {
    v.as_index()
        .ok_or_else(|| bad(format!("'{what}' must be a non-negative integer")))
}

/// Validate an array of collection indices.
pub fn index_arr(v: &Json, what: &str) -> Result<Vec<usize>, OpError> {
    v.as_arr()
        .ok_or_else(|| bad(format!("'{what}' must be an array")))?
        .iter()
        .map(|x| index_of(x, what))
        .collect()
}

/// One of the paper's builtin datasets (`None` for an unknown name),
/// generated once per process: every later create and every replayed
/// create gets a clone instead of regenerating it (the BNC corpus costs
/// about 0.1 s and a 10 MB word-count matrix each time).
fn builtin(name: &str) -> Option<Dataset> {
    use sider_data::{bnc, segmentation, synthetic};
    static FIG2: OnceLock<Dataset> = OnceLock::new();
    static XHAT5: OnceLock<Dataset> = OnceLock::new();
    static BNC: OnceLock<Dataset> = OnceLock::new();
    static SEGMENTATION: OnceLock<Dataset> = OnceLock::new();
    let (cell, generate): (&OnceLock<Dataset>, fn() -> Dataset) = match name {
        "fig2" => (&FIG2, || synthetic::three_d_four_clusters(2018)),
        "xhat5" => (&XHAT5, || synthetic::xhat5(1000, 42)),
        "bnc" => (&BNC, || {
            bnc::bnc_like_corpus(&bnc::BncOpts::default(), 2018)
        }),
        "segmentation" => (&SEGMENTATION, || {
            segmentation::segmentation_like(&segmentation::SegmentationOpts::default(), 2018)
        }),
        _ => return None,
    };
    Some(cell.get_or_init(generate).clone())
}

/// Resolve the dataset of a create op: `{"dataset": "fig2"}` for the
/// paper's builtins, or `{"name": …, "csv": "a,b\n1,2\n…"}` for inline
/// data.
pub fn resolve_dataset(body: &Json) -> Result<Dataset, String> {
    if let Some(csv) = body.get("csv") {
        let text = csv.as_str().ok_or("'csv' must be a string")?;
        let (header, matrix) = sider_data::csv::read_matrix(BufReader::new(text.as_bytes()))
            .map_err(|e| format!("bad csv: {e}"))?;
        let name = body
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("uploaded")
            .to_string();
        let mut ds = Dataset::unlabeled(name, matrix);
        ds.column_names = header;
        return Ok(ds);
    }
    match body.get("dataset").and_then(Json::as_str) {
        Some(name) => builtin(name).ok_or_else(|| {
            format!("unknown dataset '{name}' (fig2|xhat5|bnc|segmentation, or inline 'csv')")
        }),
        None => Err("need 'dataset' (builtin name) or 'csv'".into()),
    }
}

/// The RNG seed of a create op (default 7). Validated like the row
/// indices: a plain `as u64` would saturate negative seeds to 0 and
/// truncate fractions, silently collapsing distinct client inputs onto
/// the same RNG stream.
pub fn parse_seed(body: &Json) -> Result<u64, String> {
    match body.get("seed") {
        None => Ok(7),
        Some(v) => v
            .as_num()
            .filter(|x| x.fract() == 0.0 && *x >= 0.0 && *x < u64::MAX as f64)
            .map(|x| x as u64)
            .ok_or_else(|| "'seed' must be a non-negative integer below 2^64".to_string()),
    }
}

/// A pluggable dataset source for replay — the server uses
/// [`resolve_dataset`]; benchmarks inject synthetic matrices.
pub type DatasetResolver<'a> = &'a dyn Fn(&Json) -> Result<Dataset, String>;

/// Apply a create op: resolve the dataset through `resolver`, parse the
/// seed, and construct the session on `pool`. This is the replay twin of
/// the server's session creation; both must construct byte-identically.
pub fn create_session(
    body: &Json,
    pool: Arc<ThreadPool>,
    resolver: DatasetResolver<'_>,
) -> Result<EdaSession, OpError> {
    let dataset = resolver(body).map_err(bad)?;
    let seed = parse_seed(body).map_err(bad)?;
    Ok(EdaSession::with_pool(dataset, seed, pool)?)
}

/// Apply one non-create op to a session: the live path, which builds what
/// a response needs. Errors leave the session unmodified (each branch
/// validates before mutating, and the snapshot branch replays into a
/// scratch clone), so a rejected request never needs to be logged or
/// undone. A logged op is re-applied by [`replay`], which parses it with
/// this same code and differs only for a PCA view.
pub fn apply(session: &mut EdaSession, kind: OpKind, body: &Json) -> Result<Applied, OpError> {
    match kind {
        OpKind::Create => Err(bad("create can only start a session history")),
        OpKind::Knowledge => apply_knowledge(session, body),
        OpKind::Update => apply_update(session, body),
        OpKind::Undo => {
            let removed = session
                .undo_last_knowledge()
                .map(|r| wire::knowledge_to_json(&r))
                .ok_or_else(|| OpError::Conflict("nothing to undo".into()))?;
            Ok(Applied::Undo { removed })
        }
        OpKind::View => {
            let method = parse_method(body)?;
            let view = session.next_view(&method)?;
            Ok(Applied::View {
                view: Box::new(view),
            })
        }
        OpKind::Snapshot => {
            let applied = wire::snapshot_from_json(session, body)?;
            Ok(Applied::Snapshot { applied })
        }
    }
}

/// Re-apply one logged non-create op to a session being rebuilt
/// (recovery, checkpoint replay, a follower): the session ends exactly as
/// [`apply`] would leave it, and nothing is returned for a response. Every
/// op is parsed and validated as [`apply`] does it; a view is replayed by
/// [`EdaSession::skip_view`], which for a PCA view makes only its one RNG
/// draw instead of recomputing a view nobody reads.
pub fn replay(session: &mut EdaSession, kind: OpKind, body: &Json) -> Result<(), OpError> {
    match kind {
        OpKind::View => Ok(session.skip_view(&parse_method(body)?)?),
        _ => apply(session, kind, body).map(drop),
    }
}

/// `{"kind": "margin" | "one-cluster" | "cluster" | "twod",
/// "rows": [...], "axes": [[...],[...]]}` — rows for cluster/twod, axes
/// for twod only. Alternatively `{"kind":"cluster","label_set":0,
/// "class":2}` marks a predefined class as the selection.
fn apply_knowledge(session: &mut EdaSession, body: &Json) -> Result<Applied, OpError> {
    let kind = body.require_str("kind").map_err(bad)?;
    let rows = |what: &str| -> Result<Vec<usize>, OpError> {
        if let (Some(set), Some(class)) = (body.get("label_set"), body.get("class")) {
            let set = index_of(set, "label_set")?;
            let class = index_of(class, "class")?;
            return Ok(session.select_class(set, class)?);
        }
        let raw = body
            .get("rows")
            .ok_or_else(|| bad(format!("'{what}' knowledge needs 'rows'")))?;
        index_arr(raw, "rows")
    };
    match kind {
        "margin" => session.add_margin_constraints()?,
        "one-cluster" => session.add_one_cluster_constraint()?,
        "cluster" => {
            let rows = rows("cluster")?;
            session.add_cluster_constraint(&rows)?;
        }
        "twod" => {
            let axes = wire::matrix_from_json(
                body.get("axes")
                    .ok_or_else(|| bad("'twod' knowledge needs 'axes'"))?,
            )?;
            let rows = rows("twod")?;
            session.add_twod_constraint(&rows, &axes)?;
        }
        other => {
            return Err(bad(format!(
                "unknown knowledge kind '{other}' (margin|one-cluster|cluster|twod)"
            )))
        }
    }
    let added = session
        .knowledge()
        .last()
        .map(wire::knowledge_to_json)
        .unwrap_or(Json::Null);
    Ok(Applied::Knowledge { added })
}

/// Refit the background with all accumulated constraints — warm after the
/// first call. The stopping rule is the server's (`FitOpts::default()`),
/// so the body is an empty object, and any key in it is refused by name,
/// live and on replay alike.
fn apply_update(session: &mut EdaSession, body: &Json) -> Result<Applied, OpError> {
    let keys = body
        .as_obj()
        .ok_or_else(|| bad("update body must be an object"))?;
    if let Some(key) = keys.keys().next() {
        return Err(bad(format!("update takes no options, got '{key}'")));
    }
    let was_warm = session.has_warm_solver();
    let report = session.update_background(&Default::default())?;
    Ok(Applied::Update {
        report: wire::report_to_json(&report),
        was_warm,
        refresh: session
            .last_refresh_stats()
            .map(|s| wire::refresh_stats_to_json(&s)),
    })
}

/// Parse the projection method of a view op: `{"method": "pca"|"ica",
/// "restarts": 4}` (`restarts` is ICA-only, bounded to
/// 1..=[`MAX_ICA_RESTARTS`] so one request cannot pin a pool thread
/// indefinitely).
pub fn parse_method(body: &Json) -> Result<Method, OpError> {
    let method = match body.get("method") {
        None => "pca",
        Some(v) => v.as_str().ok_or_else(|| bad("'method' must be a string"))?,
    };
    match method {
        "pca" => Ok(Method::Pca),
        "ica" => {
            let mut opts = IcaOpts::default();
            if let Some(r) = body.get("restarts") {
                opts.restarts = r
                    .as_index()
                    .filter(|n| (1..=MAX_ICA_RESTARTS).contains(n))
                    .ok_or_else(|| {
                        bad(format!(
                            "'restarts' must be an integer in 1..={MAX_ICA_RESTARTS}"
                        ))
                    })?;
            }
            Ok(Method::Ica(opts))
        }
        other => Err(bad(format!("unknown method '{other}' (pca|ica)"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> EdaSession {
        EdaSession::with_pool(
            sider_data::synthetic::three_d_four_clusters(2018),
            7,
            Arc::new(ThreadPool::new(1)),
        )
        .unwrap()
    }

    fn body(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn builtins_resolve_to_the_bits_of_a_fresh_generation() {
        let bits = |ds: &Dataset| {
            ds.matrix
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        use sider_data::{bnc, segmentation, synthetic};
        let fresh_generations = [
            ("fig2", synthetic::three_d_four_clusters(2018)),
            ("xhat5", synthetic::xhat5(1000, 42)),
            ("bnc", bnc::bnc_like_corpus(&bnc::BncOpts::default(), 2018)),
            (
                "segmentation",
                segmentation::segmentation_like(&segmentation::SegmentationOpts::default(), 2018),
            ),
        ];
        for (name, fresh) in fresh_generations {
            let request = body(&format!(r#"{{"dataset":"{name}"}}"#));
            for _ in 0..2 {
                let got = resolve_dataset(&request).unwrap();
                assert_eq!(got.name, fresh.name, "{name}");
                assert_eq!(bits(&got), bits(&fresh), "{name}");
                assert_eq!(got.column_names, fresh.column_names, "{name}");
                assert_eq!(got.labels, fresh.labels, "{name}");
            }
        }
        let err = resolve_dataset(&body(r#"{"dataset":"mars"}"#)).unwrap_err();
        assert!(err.contains("unknown dataset 'mars'"), "{err}");
    }

    #[test]
    fn op_payload_roundtrips() {
        let op = Op {
            lsn: 42,
            kind: OpKind::Knowledge,
            body: body(r#"{"kind":"cluster","rows":[0,1,2]}"#),
        };
        let back = Op::from_payload(&op.to_payload()).unwrap();
        assert_eq!(back.lsn, 42);
        assert_eq!(back.kind, OpKind::Knowledge);
        assert_eq!(back.body.dump(), op.body.dump());
        for kind in [
            OpKind::Create,
            OpKind::Knowledge,
            OpKind::Update,
            OpKind::Undo,
            OpKind::View,
            OpKind::Snapshot,
        ] {
            assert_eq!(OpKind::parse(kind.as_str()), Some(kind));
        }
    }

    #[test]
    fn bad_payloads_rejected() {
        assert!(Op::from_payload(b"\xff\xfe").is_err());
        assert!(Op::from_payload(b"{}").is_err());
        assert!(Op::from_payload(br#"{"lsn":0,"op":"undo"}"#).is_err());
        assert!(Op::from_payload(br#"{"lsn":1.5,"op":"undo"}"#).is_err());
        assert!(Op::from_payload(br#"{"lsn":1,"op":"frobnicate"}"#).is_err());
    }

    #[test]
    fn apply_drives_full_loop() {
        let mut s = session();
        let added = apply(&mut s, OpKind::Knowledge, &body(r#"{"kind":"margin"}"#)).unwrap();
        assert!(matches!(added, Applied::Knowledge { .. }));
        let updated = apply(&mut s, OpKind::Update, &body("{}")).unwrap();
        match updated {
            Applied::Update {
                was_warm, refresh, ..
            } => {
                assert!(!was_warm);
                assert!(refresh.is_some());
            }
            other => panic!("expected update, got {other:?}"),
        }
        let viewed = apply(&mut s, OpKind::View, &body(r#"{"method":"pca"}"#)).unwrap();
        match viewed {
            Applied::View { view } => assert_eq!(view.projected_data.shape(), (150, 2)),
            other => panic!("expected view, got {other:?}"),
        }
        let undone = apply(&mut s, OpKind::Undo, &body("{}")).unwrap();
        assert!(matches!(undone, Applied::Undo { .. }));
        assert!(matches!(
            apply(&mut s, OpKind::Undo, &body("{}")),
            Err(OpError::Conflict(_))
        ));
    }

    #[test]
    fn errors_leave_session_unmodified() {
        let mut s = session();
        for (kind, b) in [
            (OpKind::Knowledge, r#"{"kind":"vibes"}"#),
            (OpKind::Knowledge, r#"{"kind":"cluster","rows":[9999]}"#),
            (OpKind::Knowledge, r#"{"kind":"twod","rows":[0]}"#),
            (OpKind::Update, r#"{"cold":1}"#),
            (OpKind::Update, "[]"),
            (OpKind::View, r#"{"method":"umap"}"#),
            (OpKind::View, r#"{"method":"ica","restarts":0}"#),
            (OpKind::Snapshot, r#"{"format":"x"}"#),
            (OpKind::Create, r#"{"dataset":"fig2"}"#),
        ] {
            assert!(apply(&mut s, kind, &body(b)).is_err(), "{b}");
            // Replay parses with the same code, so it refuses the same ops.
            assert!(replay(&mut s, kind, &body(b)).is_err(), "replay {b}");
        }
        // Each fit setting `update` once took, with a value it accepted,
        // is now refused by name, and the session is not refitted.
        for (key, value) in [
            ("lambda_tol", "0.001"),
            ("moment_tol", "0.001"),
            ("max_sweeps", "50"),
            ("time_cutoff_ms", "10000"),
            ("lambda_max", "1e9"),
            ("trace", "true"),
            ("cold", "true"),
        ] {
            let b = format!(r#"{{"{key}":{value}}}"#);
            match apply(&mut s, OpKind::Update, &body(&b)) {
                Err(OpError::Bad(msg)) => assert!(msg.contains(key), "{b}: {msg}"),
                other => panic!("{b}: expected a bad op, got {other:?}"),
            }
        }
        assert_eq!(s.n_constraints(), 0);
        assert!(!s.is_dirty());
        assert!(!s.has_warm_solver(), "a refused update must not fit");
    }

    #[test]
    fn create_matches_server_validation() {
        let pool = Arc::new(ThreadPool::new(1));
        let resolver: DatasetResolver<'_> = &resolve_dataset;
        let s = create_session(
            &body(r#"{"dataset":"fig2","seed":3}"#),
            pool.clone(),
            resolver,
        )
        .unwrap();
        assert_eq!(s.dataset().n(), 150);
        for b in [
            r#"{"dataset":"mars"}"#,
            r#"{}"#,
            r#"{"dataset":"fig2","seed":-1}"#,
            r#"{"dataset":"fig2","seed":0.5}"#,
            r#"{"csv": 3}"#,
        ] {
            assert!(
                matches!(
                    create_session(&body(b), pool.clone(), resolver),
                    Err(OpError::Bad(_))
                ),
                "{b}"
            );
        }
    }
}
