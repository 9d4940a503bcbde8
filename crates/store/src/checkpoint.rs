//! Checkpoint documents: the compacted prefix of a session's op history.
//!
//! A checkpoint folds everything the WAL said up to some LSN into one
//! JSON document, letting the store truncate the log. Compaction is
//! **byte-exact by construction**: a session rebuilt from checkpoint +
//! tail must be bit-identical to one that replayed the full original log,
//! because the server's determinism contract promises byte-identical
//! responses after recovery.
//!
//! That constraint dictates what can and cannot be folded:
//!
//! * the maximal *leading run* of plain knowledge ops (before the first
//!   update/view/undo/label-set op) folds into a `sider_core::wire`
//!   session snapshot — replaying the snapshot issues exactly the same
//!   `add_*` calls the original ops did;
//! * everything after that run is kept as literal ops. An `update` cannot
//!   be folded into fitted state because the warm solver's trajectory
//!   (which classes split when, which multipliers warm-started) is part
//!   of the bytes later responses depend on — warm and cold paths agree
//!   only to solver tolerance, not bitwise. A `view` cannot be dropped
//!   because it advanced the session RNG (replay makes a PCA view's one
//!   draw without rebuilding the view: [`ops::replay`]).
//!
//! Compaction therefore bounds *log framing and parsing* overhead and
//! keeps one self-contained recovery document per session; it does not
//! shorten replay compute for histories dominated by updates/views —
//! that is the honest price of bit-exact recovery (see
//! `docs/ARCHITECTURE.md` §5).

use crate::ops::{self, Op, OpKind};
use sider_core::{wire, EdaSession};
use sider_json::Json;
use sider_par::ThreadPool;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Magic string of checkpoint documents.
pub const CHECKPOINT_FORMAT: &str = "sider-checkpoint";

/// Current checkpoint document version.
pub const CHECKPOINT_VERSION: f64 = 1.0;

/// A parsed checkpoint: everything needed to rebuild the session up to
/// `last_lsn`, after which the WAL tail continues.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// LSN of the last op folded into this document; WAL records with
    /// larger LSNs are the tail.
    pub last_lsn: u64,
    /// The create op body (dataset ref / inline CSV + seed).
    pub create: Json,
    /// The folded leading knowledge run as a `sider-session` wire
    /// snapshot, when any ops folded.
    pub snapshot: Option<Json>,
    /// The unfoldable remainder of the history, in LSN order.
    pub ops: Vec<Op>,
}

impl Checkpoint {
    /// Compact a history into a new checkpoint. `prior` is the previous
    /// checkpoint (if any) and `tail` the WAL ops logged since it (the
    /// create record included when no prior checkpoint exists). The
    /// dataset identity (`name`, `n`, `d`) seeds the folded snapshot's
    /// header.
    pub fn build(
        prior: Option<&Checkpoint>,
        tail: &[Op],
        name: &str,
        n: usize,
        d: usize,
    ) -> Result<Checkpoint, String> {
        let (create, mut stmts, mut rest, mut last_lsn) = match prior {
            Some(cp) => {
                let stmts = match &cp.snapshot {
                    Some(snap) => snap
                        .require_arr("knowledge")
                        .map_err(|e| e.to_string())?
                        .to_vec(),
                    None => Vec::new(),
                };
                (cp.create.clone(), stmts, cp.ops.clone(), cp.last_lsn)
            }
            None => {
                let first = tail.first().ok_or("empty history has no create op")?;
                if first.kind != OpKind::Create {
                    return Err(format!(
                        "history starts with '{}', not 'create'",
                        first.kind.as_str()
                    ));
                }
                (first.body.clone(), Vec::new(), Vec::new(), first.lsn)
            }
        };
        let skip_create = prior.is_none() as usize;
        // A crash can land between a checkpoint's rename and the WAL
        // truncation it precedes — tail records at or below the prior
        // checkpoint's LSN are already folded, skip them.
        let already_folded = prior.map(|cp| cp.last_lsn).unwrap_or(0);
        for op in tail[skip_create..]
            .iter()
            .filter(|op| op.lsn > already_folded)
        {
            // The fold is open while the history is still a pure run of
            // plain knowledge statements; the first op of any other shape
            // closes it for good (order matters for everything after).
            if rest.is_empty() {
                if let Some(stmt) = foldable_statement(op) {
                    stmts.push(stmt);
                    last_lsn = op.lsn;
                    continue;
                }
            }
            rest.push(op.clone());
            last_lsn = op.lsn;
        }
        let snapshot = if stmts.is_empty() {
            None
        } else {
            Some(Json::obj([
                ("format", Json::from("sider-session")),
                ("version", Json::from(1.0)),
                (
                    "dataset",
                    Json::obj([
                        ("name", Json::from(name)),
                        ("n", Json::from(n)),
                        ("d", Json::from(d)),
                    ]),
                ),
                ("knowledge", Json::Arr(stmts)),
            ]))
        };
        Ok(Checkpoint {
            last_lsn,
            create,
            snapshot,
            ops: rest,
        })
    }

    /// Serialize to the on-disk JSON document.
    pub fn to_json(&self) -> Json {
        let mut map = BTreeMap::new();
        map.insert("format".into(), Json::from(CHECKPOINT_FORMAT));
        map.insert("version".into(), Json::from(CHECKPOINT_VERSION));
        map.insert("last_lsn".into(), Json::from(self.last_lsn));
        map.insert("create".into(), self.create.clone());
        if let Some(snap) = &self.snapshot {
            map.insert("snapshot".into(), snap.clone());
        }
        map.insert(
            "ops".into(),
            Json::arr(self.ops.iter().map(|op| op.to_json())),
        );
        Json::Obj(map)
    }

    /// Parse an on-disk checkpoint document, rejecting unknown formats
    /// and versions (a newer server's checkpoint must not be silently
    /// misread as this version's schema).
    pub fn from_json(json: &Json) -> Result<Checkpoint, String> {
        if json.get("format").and_then(Json::as_str) != Some(CHECKPOINT_FORMAT) {
            return Err("not a sider-checkpoint document".into());
        }
        if json.require_num("version")? != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {:?}",
                json.get("version")
            ));
        }
        let last_lsn = json.require_num("last_lsn")?;
        if !(last_lsn.is_finite() && last_lsn >= 1.0 && last_lsn.fract() == 0.0) {
            return Err(format!("bad checkpoint last_lsn: {last_lsn}"));
        }
        let create = json
            .get("create")
            .cloned()
            .ok_or("checkpoint missing 'create'")?;
        let snapshot = json.get("snapshot").cloned();
        let ops = json
            .require_arr("ops")?
            .iter()
            .map(Op::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Checkpoint {
            last_lsn: last_lsn as u64,
            create,
            snapshot,
            ops,
        })
    }

    /// Rebuild the session this checkpoint describes, then replay
    /// `wal_tail` (ops with LSN beyond `last_lsn`) on top. Byte-identical
    /// to replaying the original uncompacted history.
    pub fn replay(
        &self,
        wal_tail: &[Op],
        pool: Arc<ThreadPool>,
        resolver: ops::DatasetResolver<'_>,
    ) -> Result<EdaSession, String> {
        let mut session = ops::create_session(&self.create, pool, resolver)
            .map_err(|e| format!("create (lsn 1): {e}"))?;
        if let Some(snap) = &self.snapshot {
            wire::snapshot_from_json(&mut session, snap)
                .map_err(|e| format!("folded snapshot: {e}"))?;
        }
        for op in &self.ops {
            ops::replay(&mut session, op.kind, &op.body)
                .map_err(|e| format!("{} (lsn {}): {e}", op.kind.as_str(), op.lsn))?;
        }
        // Tail records at or below `last_lsn` were already folded into
        // this document — skipping them makes replay idempotent against a
        // WAL whose truncation raced a crash.
        for op in wal_tail.iter().filter(|op| op.lsn > self.last_lsn) {
            ops::replay(&mut session, op.kind, &op.body)
                .map_err(|e| format!("{} (lsn {}): {e}", op.kind.as_str(), op.lsn))?;
        }
        Ok(session)
    }
}

/// The wire-snapshot statement equivalent of a knowledge op, when the op
/// is foldable: a plain `kind`/`rows`/`axes` body (label-set selections
/// are kept as literal ops — they resolve through the dataset's label
/// table rather than carrying rows).
fn foldable_statement(op: &Op) -> Option<Json> {
    if op.kind != OpKind::Knowledge
        || op.body.get("label_set").is_some()
        || op.body.get("class").is_some()
    {
        return None;
    }
    let mut stmt = BTreeMap::new();
    stmt.insert("kind".into(), op.body.get("kind")?.clone());
    if let Some(rows) = op.body.get("rows") {
        stmt.insert("rows".into(), rows.clone());
    }
    if let Some(axes) = op.body.get("axes") {
        stmt.insert("axes".into(), axes.clone());
    }
    Some(Json::Obj(stmt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sider_projection::Method;

    fn op(lsn: u64, kind: OpKind, body: &str) -> Op {
        Op {
            lsn,
            kind,
            body: Json::parse(body).unwrap(),
        }
    }

    fn history() -> Vec<Op> {
        vec![
            op(1, OpKind::Create, r#"{"dataset":"fig2","seed":7}"#),
            op(2, OpKind::Knowledge, r#"{"kind":"margin"}"#),
            op(
                3,
                OpKind::Knowledge,
                r#"{"kind":"cluster","rows":[0,1,2,3,4,5,6,7]}"#,
            ),
            op(4, OpKind::Update, "{}"),
            op(5, OpKind::View, r#"{"method":"pca"}"#),
            op(
                6,
                OpKind::Knowledge,
                r#"{"kind":"cluster","rows":[40,41,42,43,44]}"#,
            ),
            op(7, OpKind::Update, "{}"),
        ]
    }

    fn fingerprint(session: &mut EdaSession) -> (String, u64, String) {
        let snap = wire::snapshot_to_json(session).dump();
        let kl = session.information_nats().to_bits();
        let view = session.next_view(&Method::Pca).unwrap();
        let probe = wire::view_to_json(&view).dump();
        (snap, kl, probe)
    }

    #[test]
    fn fold_covers_leading_knowledge_run_only() {
        let cp = Checkpoint::build(None, &history(), "three-d-four-clusters", 150, 3).unwrap();
        assert_eq!(cp.last_lsn, 7);
        let folded = cp.snapshot.as_ref().unwrap();
        assert_eq!(folded.require_arr("knowledge").unwrap().len(), 2);
        // update/view/knowledge/update stay literal.
        let kinds: Vec<&str> = cp.ops.iter().map(|o| o.kind.as_str()).collect();
        assert_eq!(kinds, vec!["update", "view", "knowledge", "update"]);
    }

    #[test]
    fn label_set_knowledge_is_not_folded() {
        let ops = vec![
            op(1, OpKind::Create, r#"{"dataset":"fig2"}"#),
            op(
                2,
                OpKind::Knowledge,
                r#"{"kind":"cluster","label_set":0,"class":1}"#,
            ),
        ];
        let cp = Checkpoint::build(None, &ops, "x", 150, 3).unwrap();
        assert!(cp.snapshot.is_none());
        assert_eq!(cp.ops.len(), 1);
    }

    #[test]
    fn document_roundtrips_and_rejects_bad_versions() {
        let cp = Checkpoint::build(None, &history(), "three-d-four-clusters", 150, 3).unwrap();
        let doc = cp.to_json();
        let back = Checkpoint::from_json(&Json::parse(&doc.dump()).unwrap()).unwrap();
        assert_eq!(back.last_lsn, cp.last_lsn);
        assert_eq!(back.ops.len(), cp.ops.len());
        assert_eq!(back.to_json().dump(), doc.dump());

        let mut wrong = doc.clone();
        if let Json::Obj(map) = &mut wrong {
            map.insert("version".into(), Json::from(2.0));
        }
        assert!(Checkpoint::from_json(&wrong).is_err());
        assert!(Checkpoint::from_json(&Json::parse(r#"{"format":"tar"}"#).unwrap()).is_err());
    }

    #[test]
    fn replay_from_checkpoint_is_byte_identical_to_full_replay() {
        let pool = Arc::new(ThreadPool::new(1));
        let resolver: ops::DatasetResolver<'_> = &ops::resolve_dataset;
        let history = history();

        // Ground truth: replay the raw history start to finish.
        let mut direct =
            ops::create_session(&history[0].body, Arc::clone(&pool), resolver).unwrap();
        for o in &history[1..] {
            ops::apply(&mut direct, o.kind, &o.body).unwrap();
        }

        // Compacted: fold at LSN 5, replay checkpoint + remaining tail.
        let cp = Checkpoint::build(None, &history[..5], "three-d-four-clusters", 150, 3).unwrap();
        assert_eq!(cp.last_lsn, 5);
        let mut recovered = cp
            .replay(&history[5..], Arc::clone(&pool), resolver)
            .unwrap();

        // And compacted twice: checkpoint the checkpoint plus more tail.
        let cp2 =
            Checkpoint::build(Some(&cp), &history[5..6], "three-d-four-clusters", 150, 3).unwrap();
        assert_eq!(cp2.last_lsn, 6);
        let mut recovered2 = cp2
            .replay(&history[6..], Arc::clone(&pool), resolver)
            .unwrap();

        let expected = fingerprint(&mut direct);
        assert_eq!(fingerprint(&mut recovered), expected);
        assert_eq!(fingerprint(&mut recovered2), expected);
    }

    #[test]
    fn replay_reports_the_failing_lsn() {
        let ops = [
            op(1, OpKind::Create, r#"{"dataset":"fig2"}"#),
            op(
                2,
                OpKind::Knowledge,
                r#"{"kind":"cluster","rows":[999999]}"#,
            ),
        ];
        let cp = Checkpoint::build(None, &ops[..1], "three-d-four-clusters", 150, 3).unwrap();
        let err = cp
            .replay(
                &ops[1..],
                Arc::new(ThreadPool::new(1)),
                &crate::ops::resolve_dataset,
            )
            .unwrap_err();
        assert!(err.contains("lsn 2"), "{err}");
    }
}
