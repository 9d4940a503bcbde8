//! Output checks on every reply, and the digest of the deterministic
//! response bytes.

use crate::stats::Outcome;
use crate::workload::{fnv1a, fnv1a_extend, Endpoint, Step, Workload};
use sider_json::Json;

/// Relative slack on "information never decreases": the solver's default
/// moment tolerance (`FitOpts::moment_tol`), so a refit that stops within
/// tolerance of its optimum is not flagged.
pub const NATS_SLACK: f64 = 1e-2;

/// Per-script checking state: the session ID, what the session should
/// hold so far, and the running digest of its normalized replies.
#[derive(Debug)]
pub struct ScriptCheck {
    /// Session ID minted by the create reply.
    pub id: Option<String>,
    knowledge: usize,
    last_nats: Option<f64>,
    digest: u64,
}

impl Default for ScriptCheck {
    fn default() -> Self {
        ScriptCheck {
            id: None,
            knowledge: 0,
            last_nats: None,
            digest: fnv1a(b"sider-loopbench-script"),
        }
    }
}

impl ScriptCheck {
    /// Digest of every reply seen so far, session IDs normalized.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Fold one reply into the digest and check it.
    pub fn check(&mut self, w: &Workload, step: &Step, status: u16, body: &[u8]) -> Outcome {
        if step.endpoint == Endpoint::Create {
            // Learn the ID before folding, so the create reply digests
            // normalized too.
            self.id = std::str::from_utf8(body)
                .ok()
                .and_then(|t| Json::parse(t).ok())
                .and_then(|doc| doc.get("id").and_then(Json::as_str).map(str::to_string));
        }
        self.fold(step.endpoint, status, body);
        if !(200..300).contains(&status) {
            return Outcome::Status(status);
        }
        match self.check_body(w, step, body) {
            Ok(()) => Outcome::Ok,
            Err(e) => Outcome::Check(e),
        }
    }

    fn fold(&mut self, endpoint: Endpoint, status: u16, body: &[u8]) {
        let mut h = fnv1a_extend(self.digest, endpoint.as_str().as_bytes());
        h = fnv1a_extend(h, &status.to_le_bytes());
        let id = self.id.as_deref().map(|id| format!("\"{id}\""));
        h = match id {
            Some(id) => fold_normalized(h, body, id.as_bytes()),
            None => fnv1a_extend(h, body),
        };
        self.digest = h;
    }

    fn check_body(&mut self, w: &Workload, step: &Step, body: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(body).map_err(|e| format!("body: {e}"))?;
        let doc = Json::parse(text)?;
        match step.endpoint {
            Endpoint::Create => {
                doc.require_str("id")?;
                if doc.require_num("n")? != w.n as f64 {
                    return Err(format!(
                        "created a session of {} rows",
                        doc.require_num("n")?
                    ));
                }
            }
            Endpoint::Knowledge => {
                let have = doc.require_num("n_knowledge")?;
                if have != (self.knowledge + 1) as f64 {
                    return Err(format!(
                        "{have} knowledge statements, want {}",
                        self.knowledge + 1
                    ));
                }
                self.knowledge += 1;
            }
            Endpoint::Update => {
                let nats = doc.require_num("information_nats")?;
                if !nats.is_finite() {
                    return Err(format!("information_nats {nats}"));
                }
                if let Some(prev) = self.last_nats {
                    if nats < prev - NATS_SLACK * prev.max(1.0) {
                        return Err(format!("information fell from {prev} to {nats} nats"));
                    }
                }
                self.last_nats = Some(nats);
            }
            Endpoint::View => {
                for key in ["view.projected_data", "view.projected_background"] {
                    let rows = doc.require_arr(key)?;
                    if rows.len() != w.n || rows.iter().any(|r| !is_finite_pair(r)) {
                        return Err(format!("{key}: want {}×2 finite points", w.n));
                    }
                }
            }
            Endpoint::Snapshot => {
                if doc.require_str("format")? != "sider-session" {
                    return Err("snapshot format".into());
                }
                let have = doc.require_arr("knowledge")?.len();
                if have != self.knowledge {
                    return Err(format!(
                        "snapshot holds {have} statements, want {}",
                        self.knowledge
                    ));
                }
            }
            Endpoint::Suggest => {
                let want = Json::parse(&step.body)?.require_num("k")? as usize;
                let gains: Vec<f64> = doc
                    .require_arr("suggestions")?
                    .iter()
                    .map(|s| s.require_num("gain"))
                    .collect::<Result<_, _>>()?;
                if gains.len() != want {
                    return Err(format!("{} suggestions, want {want}", gains.len()));
                }
                if gains.iter().any(|g| !(g.is_finite() && *g >= 0.0)) {
                    return Err(format!("negative or non-finite gain in {gains:?}"));
                }
                if gains.windows(2).any(|p| p[0] < p[1]) {
                    return Err(format!("gains not descending: {gains:?}"));
                }
            }
        }
        Ok(())
    }
}

fn is_finite_pair(row: &Json) -> bool {
    matches!(row.as_arr(), Some([a, b]) if a.as_num().is_some_and(f64::is_finite)
        && b.as_num().is_some_and(f64::is_finite))
}

/// Hash `body` with every occurrence of `id` (the quoted session ID)
/// replaced by `"s*"`, so equal sessions under different IDs digest
/// equally.
fn fold_normalized(mut h: u64, body: &[u8], id: &[u8]) -> u64 {
    let mut rest = body;
    while let Some(at) = rest.windows(id.len()).position(|w| w == id) {
        h = fnv1a_extend(h, &rest[..at]);
        h = fnv1a_extend(h, b"\"s*\"");
        rest = &rest[at + id.len()..];
    }
    fnv1a_extend(h, rest)
}

/// Combine per-script digests in script order.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests
        .into_iter()
        .fold(fnv1a(b"sider-loopbench-run"), |h, d| {
            fnv1a_extend(h, &d.to_le_bytes())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, Step};

    fn step(endpoint: Endpoint, body: &str) -> Step {
        Step {
            endpoint,
            body: body.into(),
            round: None,
        }
    }

    #[test]
    fn session_ids_are_normalized_out_of_the_digest() {
        let w = find("serve-fig2").unwrap();
        let run = |id: &str| {
            let mut c = ScriptCheck::default();
            let create = format!("{{\"id\":\"{id}\",\"n\":150}}\n");
            assert_eq!(
                c.check(w, &step(Endpoint::Create, "{}"), 201, create.as_bytes()),
                Outcome::Ok
            );
            let know = format!("{{\"id\":\"{id}\",\"n_knowledge\":1}}\n");
            assert_eq!(
                c.check(w, &step(Endpoint::Knowledge, "{}"), 200, know.as_bytes()),
                Outcome::Ok
            );
            c.digest()
        };
        assert_eq!(run("s1"), run("s42"));
        assert_eq!(combine([1, 2]), combine([1, 2]));
        assert_ne!(combine([1, 2]), combine([2, 1]));
    }

    #[test]
    fn checks_reject_bad_replies() {
        let w = find("serve-fig2").unwrap();
        let mut c = ScriptCheck::default();
        assert_eq!(
            c.check(w, &step(Endpoint::Update, "{}"), 500, b"{}"),
            Outcome::Status(500)
        );
        let update = |nats: f64| format!("{{\"information_nats\":{nats}}}");
        assert_eq!(
            c.check(
                w,
                &step(Endpoint::Update, "{}"),
                200,
                update(10.0).as_bytes()
            ),
            Outcome::Ok
        );
        assert!(matches!(
            c.check(
                w,
                &step(Endpoint::Update, "{}"),
                200,
                update(9.0).as_bytes()
            ),
            Outcome::Check(_)
        ));
        let view = r#"{"view":{"projected_data":[[1,2]],"projected_background":[[1,2]]}}"#;
        assert!(matches!(
            c.check(w, &step(Endpoint::View, "{}"), 200, view.as_bytes()),
            Outcome::Check(_)
        ));
        let sug = |gains: &str| {
            format!(
                "{{\"suggestions\":[{}]}}",
                gains
                    .split(',')
                    .map(|g| format!("{{\"gain\":{g}}}"))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        let body = r#"{"seed":1,"batch":4,"k":2}"#;
        assert_eq!(
            c.check(
                w,
                &step(Endpoint::Suggest, body),
                200,
                sug("0.5,0.25").as_bytes()
            ),
            Outcome::Ok
        );
        for bad in ["0.25,0.5", "0.5,-0.1", "0.5"] {
            assert!(matches!(
                c.check(w, &step(Endpoint::Suggest, body), 200, sug(bad).as_bytes()),
                Outcome::Check(_)
            ));
        }
    }
}
