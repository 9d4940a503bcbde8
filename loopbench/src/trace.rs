//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each layer's public functions.
//!
//! Three parts, all on the run's seed:
//! 1. the measured phase over the socket three times, each on a fresh
//!    server: untraced, with client spans (`connect`, `send`, `wait` to
//!    the first byte, `recv`), untraced again. The traced phase against
//!    the mean of the other two is the tracing overhead;
//! 2. an in-process replay of the same scripts, on as many threads as
//!    the workload has connections, against a `SessionManager` and
//!    `Store` built the way `Server::bind` builds them. It calls what the
//!    HTTP handler calls, in the handler's order, with a span around
//!    each call; views and suggests are followed by probes that time the
//!    compute kernels on the request's session state with a scratch RNG;
//! 3. recovery of the replay's data dir, one `Store::recover_session`
//!    span per session, each followed by a compaction.
//!
//! Spans stay in memory and are written to `out/spans-*.jsonl` at the
//! end. A span's self time is its duration minus its children's.

use crate::check::ScriptCheck;
use crate::client::{parse_reply, request_bytes};
use crate::run::{run_phase, start, Env, Metric, Phase, Report};
use crate::stats::{mean, percentile, sorted, Outcome, Tally};
use crate::workload::{Endpoint, Workload};
use sider_core::{wire, EdaSession};
use sider_json::Json;
use sider_linalg::Matrix;
use sider_par::ThreadPool;
use sider_projection::{fastica_with, pca_directions_from_moment, IcaOpts};
use sider_server::http::{Request, RequestParser, Response};
use sider_server::manager::{SessionManager, Slot, DEFAULT_IDLE_TIMEOUT};
use sider_stats::Rng;
use sider_store::ops::{self, Applied, OpKind};
use sider_store::stripes::{detect_stripes, open_striped};
use sider_store::{Store, StoreConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Share of a replayed request's span that its stage spans must cover;
/// the rest is glue between the calls (routing, drops).
pub const ATTRIBUTED_SHARE: f64 = 0.95;

/// Substream `sider_suggest::recommend` seeds FastICA from (private
/// there; the probe repeats it so it times the same iteration).
const ICA_SUBSTREAM: u64 = 0x1CA;
/// PCA directions `recommend` pairs before it tries ICA candidates.
const MAX_PCA_DIRECTIONS: usize = 8;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call (`store.append`, `client.wait`, …).
    pub name: &'static str,
    /// `socket`, `replay` or `recovery`.
    pub phase: &'static str,
    /// Endpoint of the request (`recovery` for recovery spans).
    pub endpoint: &'static str,
    /// Request ID: script index × 256 + step (session ID in recovery).
    pub request: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
    /// Client thread.
    pub thread: usize,
}

impl Span {
    fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Request ID of step `step` of script `script`.
fn request_id(script: u64, step: usize) -> u64 {
    (script << 8) | step as u64
}

/// Script index of a request ID.
fn script_of(request: u64) -> u64 {
    request >> 8
}

/// Per-thread span recorder with a stack of open spans.
struct Recorder {
    origin: Instant,
    phase: &'static str,
    thread: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    endpoint: &'static str,
}

impl Recorder {
    fn new(origin: Instant, phase: &'static str, thread: usize) -> Recorder {
        Recorder {
            origin,
            phase,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            endpoint: "",
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn request(&mut self, request: u64, endpoint: &'static str) {
        self.request = request;
        self.endpoint = endpoint;
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            phase: self.phase,
            endpoint: self.endpoint,
            request: self.request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            thread: self.thread,
        });
        self.spans.len() - 1
    }

    fn open(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().copied();
        let now = Instant::now();
        let i = self.push(name, parent, now, now);
        self.stack.push(i);
        i
    }

    /// Close span `i` and any span still open inside it (an early error
    /// return leaves inner spans open).
    fn close(&mut self, i: usize) {
        let end = self.ns(Instant::now());
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end;
            if top == i {
                break;
            }
        }
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let i = self.open(name);
        let out = black_box(f());
        self.close(i);
        out
    }
}

/// Client spans of a traced socket phase, from its split timestamps.
fn socket_spans(phase: &Phase, origin: Instant) -> Vec<Span> {
    let mut rec = Recorder::new(origin, "socket", 0);
    for s in &phase.samples {
        rec.request(request_id(s.script, s.step), s.endpoint.as_str());
        let t = s.stamps;
        let root = rec.push("client.request", None, t.start, t.end);
        rec.push("client.connect", Some(root), t.start, t.connected);
        rec.push("client.send", Some(root), t.connected, t.sent);
        rec.push("client.wait", Some(root), t.sent, t.first_byte);
        rec.push("client.recv", Some(root), t.first_byte, t.end);
    }
    rec.spans
}

/// Counts recorded at the layer boundaries of the replay, keyed by
/// request ID.
#[derive(Debug, Default)]
struct Counts {
    /// Per update: sweeps, converged, classes, eigen recomputed, rank-1
    /// refreshed.
    fits: Vec<(u64, [f64; 5])>,
    /// Per suggest: FastICA (iterations, converged) when `recommend`
    /// runs it.
    ica: Vec<(u64, Option<(usize, bool)>)>,
    /// Per suggest: candidates scored.
    candidates: Vec<(u64, usize)>,
    /// Per request: response bytes.
    response_bytes: Vec<(u64, usize)>,
}

impl Counts {
    fn merge(&mut self, other: Counts) {
        self.fits.extend(other.fits);
        self.ica.extend(other.ica);
        self.candidates.extend(other.candidates);
        self.response_bytes.extend(other.response_bytes);
    }
}

/// What a replay produced.
#[derive(Debug, Default)]
struct Replay {
    spans: Vec<Span>,
    counts: Counts,
    digests: BTreeMap<u64, u64>,
    tally: Tally,
}

/// A reply, or the status and message of an error reply. Error replies
/// never happen in a correct run (every check would fail), so their
/// statuses are not mirrored beyond 400/404/500.
type Handled = Result<Response, (u16, String)>;

fn internal(e: impl std::fmt::Display) -> (u16, String) {
    (500, e.to_string())
}

/// The manager and stores `Server::bind` would build for this workload.
fn build_manager(env: &Env, dir: &Path) -> Result<SessionManager, String> {
    let w = env.w;
    let pools: Vec<Arc<ThreadPool>> = (0..w.stripes)
        .map(|_| Arc::new(ThreadPool::new(w.pool_threads)))
        .collect();
    let config = env.server_config(dir);
    let store = config.store.expect("benchmark servers are durable");
    let max = config.max_sessions;
    let broken = |e: sider_store::StoreError| e.to_string();
    if pools.len() == 1 && detect_stripes(dir).map_err(broken)?.is_none() {
        let pool = pools.into_iter().next().expect("one pool");
        let store = Arc::new(Store::open(store).map_err(broken)?);
        SessionManager::with_store(pool, max, DEFAULT_IDLE_TIMEOUT, store).map_err(broken)
    } else {
        SessionManager::with_striped_store(pools, max, DEFAULT_IDLE_TIMEOUT, store).map_err(broken)
    }
}

/// Replay `plan` in process: one thread per connection, as over HTTP.
fn replay(env: &Env, manager: &SessionManager, plan: &[Vec<u64>], origin: Instant) -> Replay {
    let w = env.w;
    let barrier = Barrier::new(plan.len());
    let parts: Vec<Replay> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .iter()
            .enumerate()
            .map(|(thread, indices)| {
                let scripts: Vec<_> = indices
                    .iter()
                    .map(|&i| (i, w.script(env.seed, i)))
                    .collect();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rec = Recorder::new(origin, "replay", thread);
                    let mut out = Replay::default();
                    barrier.wait();
                    for (index, script) in &scripts {
                        let mut check = ScriptCheck::default();
                        for (k, step) in script.steps.iter().enumerate() {
                            let id = check.id.clone().unwrap_or_default();
                            let raw = request_bytes(
                                step.endpoint.method(),
                                &step.endpoint.path(&id),
                                &step.body,
                            );
                            let rid = request_id(*index, k);
                            rec.request(rid, step.endpoint.as_str());
                            let root = rec.open("handler");
                            let response =
                                handle(&mut rec, manager, &raw, step.endpoint, &mut out.counts);
                            let mut bytes = Vec::new();
                            rec.time("http.encode", || response.to_bytes(&mut bytes));
                            rec.close(root);
                            let outcome = match parse_reply(&bytes) {
                                Ok(r) => check.check(w, step, r.status, &bytes[r.body_at..]),
                                Err(e) => Outcome::Transport(e),
                            };
                            out.tally.record(step.endpoint.as_str(), &outcome);
                            out.counts.response_bytes.push((rid, bytes.len()));
                            let ok = outcome == Outcome::Ok;
                            if ok && matches!(step.endpoint, Endpoint::View | Endpoint::Suggest) {
                                let id = check.id.clone().unwrap_or_default();
                                probe(
                                    &mut rec,
                                    manager,
                                    &id,
                                    step.endpoint,
                                    &step.body,
                                    &mut out.counts,
                                );
                            }
                            if !ok && step.endpoint == Endpoint::Create {
                                break;
                            }
                        }
                        out.digests.insert(*index, check.digest());
                    }
                    out.spans = rec.spans;
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut all = Replay::default();
    for part in parts {
        let offset = all.spans.len();
        all.spans.extend(part.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        all.counts.merge(part.counts);
        all.digests.extend(part.digests);
        all.tally.merge(&part.tally);
    }
    all
}

/// One request through the calls the HTTP handler makes, in its order.
fn handle(
    rec: &mut Recorder,
    manager: &SessionManager,
    raw: &[u8],
    endpoint: Endpoint,
    counts: &mut Counts,
) -> Response {
    let parsed = rec.time("http.parse", || {
        let mut parser = RequestParser::new();
        parser.feed(raw);
        parser.poll()
    });
    let request = match parsed {
        Ok(Some(r)) => r,
        Ok(None) => return Response::error(400, "incomplete request"),
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let handled = match endpoint {
        Endpoint::Create => create(rec, manager, &request),
        Endpoint::Knowledge => apply(rec, manager, &request, OpKind::Knowledge, counts),
        Endpoint::Update => apply(rec, manager, &request, OpKind::Update, counts),
        Endpoint::View => apply(rec, manager, &request, OpKind::View, counts),
        Endpoint::Snapshot => snapshot(rec, manager, &request),
        Endpoint::Suggest => suggest(rec, manager, &request, counts),
    };
    handled.unwrap_or_else(|(status, msg)| Response::error(status, &msg))
}

/// `Response::json`, with the serialization timed on its own.
fn json_response(rec: &mut Recorder, status: u16, value: &Json) -> Response {
    let mut body = rec.time("json.dump", || value.dump()).into_bytes();
    body.push(b'\n');
    Response {
        status,
        content_type: "application/json",
        body,
    }
}

fn json_body(rec: &mut Recorder, request: &Request) -> Result<Json, (u16, String)> {
    rec.time("json.parse", || request.json_body())
        .map_err(|e| (400, e))
}

fn session_id(request: &Request) -> &str {
    request.path.split('/').nth(3).unwrap_or("")
}

fn slot_of(manager: &SessionManager, id: &str) -> Result<Arc<Slot>, (u16, String)> {
    manager
        .get(id)
        .ok_or_else(|| (404, format!("no session '{id}'")))
}

/// The session summary every non-view reply carries (the handler's
/// `session_summary`).
fn session_summary(session: &EdaSession, slot: &Slot) -> Json {
    Json::obj([
        ("id", Json::from(slot.id_str())),
        ("dataset", Json::from(session.dataset().name.as_str())),
        ("n", Json::from(session.dataset().n())),
        ("d", Json::from(session.dataset().d())),
        ("n_constraints", Json::from(session.n_constraints())),
        ("n_knowledge", Json::from(session.knowledge().len())),
        ("dirty", Json::from(session.is_dirty())),
        ("warm", Json::from(session.has_warm_solver())),
        ("information_nats", Json::from(session.information_nats())),
    ])
}

fn create(rec: &mut Recorder, manager: &SessionManager, request: &Request) -> Handled {
    let body = json_body(rec, request)?;
    let dataset = rec
        .time("data.resolve", || ops::resolve_dataset(&body))
        .map_err(|e| (400, e))?;
    let seed = ops::parse_seed(&body).map_err(|e| (400, e))?;
    let slot = rec
        .time("manager.create", || manager.create(dataset, seed))
        .map_err(|e| internal(format!("{e:?}")))?;
    if let Some(store) = manager.store_of(slot.id) {
        rec.time("store.create", || store.create_session(slot.id, &body))
            .map_err(internal)?;
    }
    let lock = rec.open("manager.lock");
    let session = slot.lock().map_err(internal)?;
    rec.close(lock);
    let json = rec.time("wire.summary_encode", || session_summary(&session, &slot));
    Ok(json_response(rec, 201, &json))
}

fn apply(
    rec: &mut Recorder,
    manager: &SessionManager,
    request: &Request,
    kind: OpKind,
    counts: &mut Counts,
) -> Handled {
    let body = json_body(rec, request)?;
    let lock = rec.open("manager.lock");
    let slot = slot_of(manager, session_id(request))?;
    let mut session = slot.lock().map_err(internal)?;
    rec.close(lock);
    let core = match kind {
        OpKind::Knowledge => "core.knowledge",
        OpKind::Update => "core.update",
        _ => "core.view",
    };
    let applied = rec
        .time(core, || ops::apply(&mut session, kind, &body))
        .map_err(internal)?;
    if let Some(store) = manager.store_of(slot.id) {
        rec.time("store.append", || store.append(slot.id, kind, &body))
            .map_err(internal)?;
        if store.wal_records(slot.id) >= store.config().checkpoint_every {
            let ds = session.dataset();
            let _ = rec.time("store.checkpoint", || {
                store.checkpoint(slot.id, &ds.name, ds.n(), ds.d())
            });
        }
    }
    if let Applied::Update {
        report, refresh, ..
    } = &applied
    {
        let num = |v: Option<&Json>, key: &str| v.and_then(|j| j.get(key)).and_then(Json::as_num);
        counts.fits.push((
            rec.request,
            [
                num(Some(report), "sweeps").unwrap_or(0.0),
                f64::from(u8::from(
                    report.get("converged").and_then(Json::as_bool) == Some(true),
                )),
                num(refresh.as_ref(), "classes_total").unwrap_or(0.0),
                num(refresh.as_ref(), "eigen_recomputed").unwrap_or(0.0),
                num(refresh.as_ref(), "eigen_rank_updated").unwrap_or(0.0),
            ],
        ));
    }
    let json = match applied {
        Applied::View { view } => rec.time("wire.view_encode", || {
            Json::obj([
                ("view", wire::view_to_json(&view)),
                ("information_nats", Json::from(session.information_nats())),
            ])
        }),
        other => rec.time("wire.summary_encode", || {
            let mut reply = session_summary(&session, &slot);
            if let Json::Obj(map) = &mut reply {
                match other {
                    Applied::Knowledge { added } => {
                        map.insert("added".into(), added);
                    }
                    Applied::Update {
                        report,
                        was_warm,
                        refresh,
                    } => {
                        map.insert("report".into(), report);
                        map.insert("was_warm".into(), Json::from(was_warm));
                        if let Some(refresh) = refresh {
                            map.insert("refresh".into(), refresh);
                        }
                    }
                    Applied::View { .. } | Applied::Undo { .. } | Applied::Snapshot { .. } => {
                        unreachable!("scripts send knowledge, update and view ops only")
                    }
                }
            }
            reply
        }),
    };
    Ok(json_response(rec, 200, &json))
}

fn snapshot(rec: &mut Recorder, manager: &SessionManager, request: &Request) -> Handled {
    let lock = rec.open("manager.lock");
    let slot = slot_of(manager, session_id(request))?;
    let session = slot.lock().map_err(internal)?;
    rec.close(lock);
    let json = rec.time("wire.snapshot_encode", || wire::snapshot_to_json(&session));
    Ok(json_response(rec, 200, &json))
}

fn suggest(
    rec: &mut Recorder,
    manager: &SessionManager,
    request: &Request,
    counts: &mut Counts,
) -> Handled {
    let body = json_body(rec, request)?;
    let spec = wire::suggest_request_from_json(&body).map_err(internal)?;
    let lock = rec.open("manager.lock");
    let slot = slot_of(manager, session_id(request))?;
    let session = slot.lock().map_err(internal)?;
    rec.close(lock);
    let ranked = rec
        .time("suggest.recommend", || {
            sider_suggest::recommend(&session, &spec)
        })
        .map_err(internal)?;
    counts.candidates.push((rec.request, ranked.batch));
    let json = rec.time("wire.suggest_encode", || {
        wire::suggest_response_to_json(&ranked)
    });
    Ok(json_response(rec, 200, &json))
}

/// Time the compute kernels behind a view or suggest on the session's
/// current state. Reads only: the scratch RNG leaves the session's own
/// stream untouched.
fn probe(
    rec: &mut Recorder,
    manager: &SessionManager,
    id: &str,
    endpoint: Endpoint,
    body: &str,
    counts: &mut Counts,
) {
    let Some(slot) = manager.get(id) else { return };
    let Ok(session) = slot.lock() else { return };
    let root = rec.open("probe");
    let (bg, data, pool) = (session.background(), session.data(), session.pool());
    let pca = rec
        .time("maxent.moment", || {
            bg.whitened_second_moment_with(data, pool)
        })
        .ok()
        .and_then(|m| {
            rec.time("projection.pca", || {
                pca_directions_from_moment(data.rows(), m)
            })
            .ok()
        });
    match endpoint {
        Endpoint::View => {
            let mut scratch = Rng::seed_from_u64(rec.request);
            rec.time("maxent.sample", || bg.sample_with(&mut scratch, pool));
            let _ = rec.time("maxent.whiten", || bg.whiten_with(data, pool));
        }
        _ => {
            let whitened = rec.time("maxent.whiten", || session.whitened());
            let spec = Json::parse(body)
                .ok()
                .and_then(|b| wire::suggest_request_from_json(&b).ok());
            let take = pca
                .as_ref()
                .map_or(0, |p| p.directions.rows().min(MAX_PCA_DIRECTIONS));
            let ica = match (spec, whitened) {
                (Some(spec), Ok(y)) if spec.batch > take * take.saturating_sub(1) / 2 => {
                    let mut rng = Rng::substream(spec.seed, ICA_SUBSTREAM);
                    rec.time("projection.ica", || {
                        fastica_with(&y, &IcaOpts::default(), &mut rng, pool)
                    })
                    .ok()
                    .map(|r| (r.iterations, r.converged))
                }
                _ => None,
            };
            counts.ica.push((rec.request, ica));
            if let Some(p) = pca.as_ref().filter(|p| p.directions.rows() >= 2) {
                let axes = Matrix::from_rows(&[
                    p.directions.row(0).to_vec(),
                    p.directions.row(1).to_vec(),
                ]);
                let _ = rec.time("maxent.whiten_project", || {
                    bg.whiten_project_with(data, &axes, &ThreadPool::serial())
                });
            }
        }
    }
    rec.close(root);
}

/// Recover every session of the replay's data dir the way `bind` does,
/// one span per session, then compact each recovered log.
fn recover(env: &Env, dir: &Path, origin: Instant) -> Result<Vec<Span>, String> {
    let w = env.w;
    let config = StoreConfig::new(dir);
    let broken = |e: sider_store::StoreError| e.to_string();
    let stores = if w.stripes == 1 && detect_stripes(dir).map_err(broken)?.is_none() {
        vec![Store::open(config).map_err(broken)?]
    } else {
        open_striped(&config, w.stripes).map_err(broken)?
    };
    let pool = Arc::new(ThreadPool::new(w.pool_threads));
    let mut rec = Recorder::new(origin, "recovery", 0);
    for store in &stores {
        for id in store.session_ids().map_err(broken)? {
            rec.request(id, "recovery");
            let session = rec
                .time("store.recover", || {
                    store.recover_session(id, Arc::clone(&pool))
                })
                .map_err(broken)?;
            let ds = session.dataset();
            rec.time("store.checkpoint", || {
                store.checkpoint(id, &ds.name, ds.n(), ds.d())
            })
            .map_err(broken)?;
        }
    }
    Ok(rec.spans)
}

/// Average WAL bytes per logged op over every open session log.
fn wal_bytes_per_append(manager: &SessionManager) -> f64 {
    let rows: Vec<_> = manager.stores().iter().flat_map(|s| s.status()).collect();
    let records: u64 = rows.iter().map(|r| r.wal_records).sum();
    let bytes: u64 = rows.iter().map(|r| r.wal_bytes).sum();
    if records == 0 {
        0.0
    } else {
        bytes as f64 / records as f64
    }
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"phase\":\"{}\",\"endpoint\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
            s.name, s.phase, s.endpoint, s.request, s.start_ns, s.end_ns, s.thread
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}

/// The traced run (`--trace 1`): per-layer metrics only.
pub fn traced(env: &Env) -> Result<Report, String> {
    let origin = Instant::now();
    let warmup = env.warmup_plan();
    let plan = env.measured_plan();

    // Untraced, traced, untraced: the traced phase is compared with the
    // mean of the two around it, so a process that speeds up as it runs
    // does not pass for tracing overhead.
    let mut phases = Vec::new();
    let mut warm_tally = Tally::default();
    for (k, split) in [false, true, false].into_iter().enumerate() {
        let dir = env.fresh_dir(&format!("socket-{k}"))?;
        let server = start(env.server_config(&dir))?;
        warm_tally.merge(&run_phase(env, server.addr, &warmup, false).tally);
        phases.push(run_phase(env, server.addr, &plan, split));
        server.stop()?;
    }
    let after = phases.pop().expect("three phases");
    let socket = phases.pop().expect("three phases");
    let untraced = phases.pop().expect("three phases");

    let dir = env.fresh_dir("replay")?;
    let manager = build_manager(env, &dir)?;
    let warm_replay = replay(env, &manager, &warmup, origin);
    let replayed = replay(env, &manager, &plan, origin);
    let wal_per_append = wal_bytes_per_append(&manager);
    drop(manager);
    let recovery = recover(env, &dir, origin)?;

    let mut spans = socket_spans(&socket, origin);
    let offset = spans.len();
    spans.extend(replayed.spans.iter().cloned().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
    let offset = spans.len();
    spans.extend(recovery.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
    let spans_path = env
        .dir
        .parent()
        .unwrap_or(&env.dir)
        .join(format!("spans-{}-{}.jsonl", env.w.name, env.seed));
    write_spans(&spans_path, &spans)?;

    let mut tally = Tally::default();
    for t in [
        &untraced.tally,
        &socket.tally,
        &after.tally,
        &replayed.tally,
    ] {
        tally.merge(t);
    }
    warm_tally.merge(&warm_replay.tally);
    let digests_agree = [&socket.digests, &after.digests, &replayed.digests]
        .iter()
        .all(|d| **d == untraced.digests);
    let layers = Layers::new(env.w, &spans, &replayed.counts, &socket);
    let mut metrics = layers.metrics(wal_per_append);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let reference_rps = (untraced.throughput() + after.throughput()) / 2.0;
    let reference_p50 = (p50(&untraced.rounds_ms) + p50(&after.rounds_ms)) / 2.0;
    metrics.push(metric(
        "trace.throughput_ratio",
        ratio(socket.throughput(), reference_rps),
        "ratio",
        socket.samples.len(),
    ));
    metrics.push(metric(
        "trace.feedback_p50_ratio",
        ratio(p50(&socket.rounds_ms), reference_p50),
        "ratio",
        socket.rounds_ms.len(),
    ));
    let (unattributed, covered) = layers.unattributed();
    metrics.push(metric(
        "trace.unattributed_share",
        unattributed,
        "ratio",
        layers.handlers,
    ));

    let mut failures = tally.failures.clone();
    failures.extend(warm_tally.failures.iter().map(|f| format!("warm-up {f}")));
    if !digests_agree {
        failures.push("replayed or traced replies differ from the untraced run".into());
    }
    let correct = tally.failed() == 0 && warm_tally.failed() == 0 && digests_agree;
    let empty: Vec<Json> = metrics
        .iter()
        .filter(|m| m.samples == 0)
        .map(|m| Json::from(m.name.as_str()))
        .collect();
    let record = vec![
        ("digest", Json::from(format!("{:016x}", untraced.digest()))),
        (
            "replay_digest",
            Json::from(format!(
                "{:016x}",
                crate::check::combine(replayed.digests.values().copied())
            )),
        ),
        ("spans", Json::from(spans.len())),
        ("spans_file", Json::from(spans_path.display().to_string())),
        ("attributed_share_required", Json::from(ATTRIBUTED_SHARE)),
        (
            "attributed_share_met",
            Json::from(1.0 - unattributed >= ATTRIBUTED_SHARE),
        ),
        ("requests_attributed_share_met", Json::from(covered)),
        (
            "edge_overhead_us_p50_by_endpoint",
            layers.overhead_by_endpoint(),
        ),
        ("metrics_without_samples", Json::Arr(empty)),
        (
            "untraced_throughput_rps",
            Json::from(vec![untraced.throughput(), after.throughput()]),
        ),
        ("traced_throughput_rps", Json::from(socket.throughput())),
        ("failures", Json::arr(failures.into_iter().map(Json::from))),
    ];
    Ok(Report {
        metrics,
        correct,
        tally,
        record,
    })
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// Span durations and counts of the measured requests, by layer.
struct Layers<'a> {
    w: &'static Workload,
    spans: &'a [Span],
    counts: &'a Counts,
    socket: &'a Phase,
    /// Replayed handler spans (measured requests).
    handlers: usize,
}

impl<'a> Layers<'a> {
    fn new(w: &'static Workload, spans: &'a [Span], counts: &'a Counts, socket: &'a Phase) -> Self {
        let mut layers = Layers {
            w,
            spans,
            counts,
            socket,
            handlers: 0,
        };
        layers.handlers = layers.durations("handler", None).len();
        layers
    }

    /// Whether a request belongs to the measured phase (warm-up scripts
    /// have the lowest indices).
    fn measured(&self, request: u64) -> bool {
        script_of(request) >= self.w.connections as u64
    }

    fn keep(&self, s: &Span) -> bool {
        s.phase == "recovery" || self.measured(s.request)
    }

    /// Durations (µs) of spans called `name`, optionally of one endpoint.
    fn durations(&self, name: &str, endpoint: Option<&str>) -> Vec<f64> {
        self.by_request(name, endpoint).into_values().collect()
    }

    /// Request → total duration (µs) of its spans called `name`.
    fn by_request(&self, name: &str, endpoint: Option<&str>) -> BTreeMap<(u64, &'static str), f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name && self.keep(s)) {
            if endpoint.is_some_and(|e| e != s.endpoint) {
                continue;
            }
            *out.entry((s.request, s.phase)).or_insert(0.0) += s.us();
        }
        out
    }

    /// Self time of the replayed handler spans (time no stage span
    /// covers): its share of all handler time, and the share of requests
    /// whose stage spans cover at least [`ATTRIBUTED_SHARE`] of their
    /// handler span.
    fn unattributed(&self) -> (f64, f64) {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in self.spans {
            if let Some(p) = s.parent {
                child[p] += s.us();
            }
        }
        let (mut own, mut total, mut covered) = (0.0, 0.0, 0usize);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == "handler" && self.keep(s) {
                let self_us = (s.us() - child[i]).max(0.0);
                own += self_us;
                total += s.us();
                covered += usize::from(self_us <= (1.0 - ATTRIBUTED_SHARE) * s.us());
            }
        }
        if total > 0.0 {
            (own / total, covered as f64 / self.handlers as f64)
        } else {
            (0.0, 0.0)
        }
    }

    /// Socket round trip minus replayed handler span, per request.
    fn overheads(&self, endpoint: Option<&str>) -> Vec<f64> {
        let socket = self.by_request("client.request", endpoint);
        let handler = self.by_request("handler", endpoint);
        socket
            .iter()
            .filter_map(|(&(req, _), &rt)| handler.get(&(req, "replay")).map(|h| rt - h))
            .collect()
    }

    fn overhead_by_endpoint(&self) -> Json {
        Json::Obj(
            Endpoint::ALL
                .iter()
                .map(|e| {
                    let v = self.overheads(Some(e.as_str()));
                    (e.as_str().to_string(), Json::from(p50(&v)))
                })
                .collect(),
        )
    }

    fn metrics(&self, wal_per_append: f64) -> Vec<Metric> {
        let mut m = Vec::new();
        let us_p = |m: &mut Vec<Metric>, name: &str, span: &str, endpoint: Option<&str>, p: f64| {
            let v = self.durations(span, endpoint);
            m.push(metric(name, pct(&v, p), "us", v.len()));
        };
        let ms_p50 = |m: &mut Vec<Metric>, name: &str, span: &str, endpoint: Option<&str>| {
            let v = self.durations(span, endpoint);
            m.push(metric(name, p50(&v) / 1e3, "ms", v.len()));
        };

        // edge
        us_p(&mut m, "edge.connect_us_p50", "client.connect", None, 50.0);
        us_p(&mut m, "edge.wait_us_p50", "client.wait", None, 50.0);
        let overhead = self.overheads(None);
        m.push(metric(
            "edge.overhead_us_p50",
            p50(&overhead),
            "us",
            overhead.len(),
        ));
        us_p(&mut m, "http.parse_us_p50", "http.parse", None, 50.0);
        us_p(&mut m, "http.encode_us_p50", "http.encode", None, 50.0);
        let bytes = self.count_values(&self.counts.response_bytes);
        m.push(metric(
            "http.response_bytes_mean",
            mean(&bytes),
            "bytes",
            bytes.len(),
        ));

        // manager
        us_p(
            &mut m,
            "manager.lock_wait_us_p50",
            "manager.lock",
            None,
            50.0,
        );
        us_p(
            &mut m,
            "manager.lock_wait_us_p99",
            "manager.lock",
            None,
            99.0,
        );

        // api, client side
        for e in Endpoint::ALL {
            ms_p50(
                &mut m,
                &format!("api.{}_ms_p50", e.as_str()),
                "client.request",
                Some(e.as_str()),
            );
        }
        for e in Endpoint::ALL {
            let failed = self
                .socket
                .samples
                .iter()
                .filter(|s| s.endpoint == e && !s.ok)
                .count();
            let attempted = self
                .socket
                .samples
                .iter()
                .filter(|s| s.endpoint == e)
                .count();
            m.push(metric(
                &format!("api.{}_failed", e.as_str()),
                failed as f64,
                "count",
                attempted,
            ));
        }

        // wire + json
        us_p(
            &mut m,
            "wire.view_encode_us_p50",
            "wire.view_encode",
            None,
            50.0,
        );
        us_p(
            &mut m,
            "wire.snapshot_encode_us_p50",
            "wire.snapshot_encode",
            None,
            50.0,
        );
        us_p(
            &mut m,
            "wire.suggest_encode_us_p50",
            "wire.suggest_encode",
            None,
            50.0,
        );
        us_p(&mut m, "json.parse_us_p50", "json.parse", None, 50.0);
        us_p(&mut m, "json.dump_us_p50", "json.dump", None, 50.0);

        // store
        us_p(&mut m, "store.append_us_p50", "store.append", None, 50.0);
        us_p(&mut m, "store.append_us_p99", "store.append", None, 99.0);
        let appends = self.durations("store.append", None).len();
        m.push(metric("store.appends", appends as f64, "count", appends));
        m.push(metric(
            "store.wal_bytes_per_append",
            wal_per_append,
            "bytes",
            appends,
        ));
        let checkpoints = self.durations("store.checkpoint", None);
        m.push(metric(
            "store.checkpoints",
            checkpoints.len() as f64,
            "count",
            checkpoints.len(),
        ));
        m.push(metric(
            "store.checkpoint_ms_p50",
            p50(&checkpoints) / 1e3,
            "ms",
            checkpoints.len(),
        ));
        ms_p50(&mut m, "store.create_ms_p50", "store.create", None);
        let replays = self.durations("store.recover", None);
        m.push(metric(
            "store.replay_ms_per_session",
            mean(&replays) / 1e3,
            "ms",
            replays.len(),
        ));

        // data
        ms_p50(&mut m, "data.resolve_ms_p50", "data.resolve", None);
        let resolves = self.durations("data.resolve", None).len();
        m.push(metric("data.resolves", resolves as f64, "count", resolves));

        // core
        ms_p50(&mut m, "core.knowledge_ms_p50", "core.knowledge", None);
        ms_p50(&mut m, "core.update_ms_p50", "core.update", None);
        ms_p50(&mut m, "core.view_ms_p50", "core.view", None);

        // maxent + linalg
        let fits: Vec<[f64; 5]> = self
            .counts
            .fits
            .iter()
            .filter(|(r, _)| self.measured(*r))
            .map(|(_, f)| *f)
            .collect();
        let col = |k: usize| fits.iter().map(|f| f[k]).collect::<Vec<f64>>();
        let n = fits.len();
        m.push(metric("maxent.sweeps_per_fit", mean(&col(0)), "count", n));
        m.push(metric(
            "maxent.fit_converged_ratio",
            mean(&col(1)),
            "ratio",
            n,
        ));
        m.push(metric("maxent.classes_per_fit", mean(&col(2)), "count", n));
        m.push(metric(
            "maxent.eigen_recomputed_per_fit",
            mean(&col(3)),
            "count",
            n,
        ));
        let (recomputed, rank1): (f64, f64) = (col(3).iter().sum(), col(4).iter().sum());
        let share = if recomputed + rank1 > 0.0 {
            rank1 / (recomputed + rank1)
        } else {
            0.0
        };
        m.push(metric("maxent.rank1_share", share, "ratio", n));
        us_p(&mut m, "maxent.moment_us_p50", "maxent.moment", None, 50.0);
        us_p(&mut m, "maxent.sample_us_p50", "maxent.sample", None, 50.0);
        us_p(&mut m, "maxent.whiten_us_p50", "maxent.whiten", None, 50.0);
        us_p(
            &mut m,
            "maxent.whiten_project_us_p50",
            "maxent.whiten_project",
            None,
            50.0,
        );

        // projection: ICA time per suggest counts 0 where recommend skips ICA
        us_p(
            &mut m,
            "projection.pca_us_p50",
            "projection.pca",
            None,
            50.0,
        );
        let ica_ms = self.by_request("projection.ica", None);
        let suggests: Vec<u64> = self
            .counts
            .ica
            .iter()
            .filter(|(r, _)| self.measured(*r))
            .map(|(r, _)| *r)
            .collect();
        let per_suggest: Vec<f64> = suggests
            .iter()
            .map(|r| ica_ms.get(&(*r, "replay")).copied().unwrap_or(0.0) / 1e3)
            .collect();
        m.push(metric(
            "projection.ica_ms_p50",
            p50(&per_suggest),
            "ms",
            per_suggest.len(),
        ));
        let runs: Vec<(usize, bool)> = self
            .counts
            .ica
            .iter()
            .filter(|(r, _)| self.measured(*r))
            .filter_map(|(_, run)| *run)
            .collect();
        let iters: Vec<f64> = runs.iter().map(|(i, _)| *i as f64).collect();
        m.push(metric(
            "projection.ica_iterations_mean",
            mean(&iters),
            "count",
            runs.len(),
        ));
        let converged: Vec<f64> = runs.iter().map(|(_, c)| f64::from(u8::from(*c))).collect();
        m.push(metric(
            "projection.ica_converged_ratio",
            mean(&converged),
            "ratio",
            runs.len(),
        ));

        // suggest
        ms_p50(
            &mut m,
            "suggest.recommend_ms_p50",
            "suggest.recommend",
            None,
        );
        let recommend = self.by_request("suggest.recommend", None);
        let moment = self.by_request("maxent.moment", Some("suggest"));
        let whiten = self.by_request("maxent.whiten", Some("suggest"));
        let self_ms: Vec<f64> = recommend
            .iter()
            .map(|(&(r, _), total)| {
                let child = |m: &BTreeMap<(u64, &'static str), f64>| {
                    m.get(&(r, "replay")).copied().unwrap_or(0.0)
                };
                (total - child(&ica_ms) - child(&moment) - child(&whiten)) / 1e3
            })
            .collect();
        m.push(metric(
            "suggest.self_ms_p50",
            p50(&self_ms),
            "ms",
            self_ms.len(),
        ));
        let candidates = self.count_values(&self.counts.candidates);
        m.push(metric(
            "suggest.candidates_per_call",
            mean(&candidates),
            "count",
            candidates.len(),
        ));
        m
    }

    fn count_values(&self, values: &[(u64, usize)]) -> Vec<f64> {
        values
            .iter()
            .filter(|(r, _)| self.measured(*r))
            .map(|(_, v)| *v as f64)
            .collect()
    }
}

fn pct(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(&sorted(v), p)
    }
}

fn p50(v: &[f64]) -> f64 {
    pct(v, 50.0)
}
