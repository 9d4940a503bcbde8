//! `sider_loadgen` — a std-only **open-loop** traffic generator for the
//! SIDER server: the instrument behind `BENCH_serve.json` and the `sider
//! loadgen` subcommand.
//!
//! The paper's interactive loop only matters if the system answers at
//! interactive latency while many analysts explore concurrently, so the
//! load harness must measure what a *population* of analysts would see —
//! not what a single patient client sees. That forces two design
//! decisions:
//!
//! * **Fixed-seed, fixed-schedule workloads.** The whole request mix —
//!   which session, which endpoint, which knowledge rows, and *when* each
//!   request is due — is precomputed from one seed before the first byte
//!   hits the socket ([`build_schedule`]). Two runs with the same config
//!   replay the identical workload, so a latency difference between
//!   `stripes=1` and `stripes=4` measures the server, not the generator.
//!
//! * **Open-loop arrivals.** Requests are due at scheduled instants
//!   (`i / rps`), not "as soon as the previous response arrived".
//!   Latency is measured from the request's *scheduled* start, so when
//!   the server falls behind, the queueing delay counts against it —
//!   the closed-loop alternative silently stops offering load exactly
//!   when the server struggles (coordinated omission) and reports
//!   flattering percentiles. Worker threads drain one shared atomic
//!   cursor over the schedule; a late request is sent immediately and
//!   its lateness is part of its latency.
//!
//! The run has two phases: a sequential, closed-loop **create phase**
//! (sessions must exist — and have deterministic dense IDs — before the
//! mixed traffic references them) and the open-loop **mixed phase**
//! (knowledge / warm update / view / snapshot across all sessions, plus
//! an optional [`LoadConfig::suggest`] share of guided-exploration
//! `suggest` calls).
//! Per-endpoint latencies are reported as nearest-rank p50/p99/p999 with
//! throughput and error counts ([`LoadReport`]), serialized via
//! `sider_json` for the `BENCH_serve.json` artifact.

#![warn(missing_docs)]

use sider_json::Json;
use sider_stats::Rng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable that switches `sider loadgen` and every bench
/// (serve, scaling, pipeline) into a seconds-not-minutes smoke workload.
pub const SMOKE_ENV_VAR: &str = "SIDER_BENCH_SMOKE";

/// Which API endpoint a scheduled request exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// `POST /api/sessions` (create phase).
    Create,
    /// `POST /api/sessions/{id}/knowledge` — a cluster statement.
    Knowledge,
    /// `POST /api/sessions/{id}/update` — warm background refresh.
    Update,
    /// `POST /api/sessions/{id}/view` — next most informative view.
    View,
    /// `GET /api/sessions/{id}/snapshot` — full session export.
    Snapshot,
    /// `POST /api/sessions/{id}/suggest` — guided-exploration ranking of
    /// a request-seeded candidate batch (a pure read).
    Suggest,
}

impl Endpoint {
    /// Stable report key (`"create"`, `"knowledge"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Endpoint::Create => "create",
            Endpoint::Knowledge => "knowledge",
            Endpoint::Update => "update",
            Endpoint::View => "view",
            Endpoint::Snapshot => "snapshot",
            Endpoint::Suggest => "suggest",
        }
    }

    /// Every endpoint, in report order.
    pub const ALL: [Endpoint; 6] = [
        Endpoint::Create,
        Endpoint::Knowledge,
        Endpoint::Update,
        Endpoint::View,
        Endpoint::Snapshot,
        Endpoint::Suggest,
    ];
}

/// One precomputed request of the mixed phase.
#[derive(Debug, Clone)]
pub struct ScheduledRequest {
    /// When the request is due, relative to the phase start.
    pub offset: Duration,
    /// The endpoint it exercises (never `Create`; creates are phase 1).
    pub endpoint: Endpoint,
    /// HTTP method.
    pub method: &'static str,
    /// Request path (`/api/sessions/s3/update`).
    pub path: String,
    /// Request body (empty for GETs).
    pub body: String,
}

/// Rows of `fig2`, the dataset of every session the create phase makes;
/// a knowledge statement marks a tenth of them.
const FIG2_ROWS: usize = 150;

/// Workload parameters. Everything that shapes the traffic is here, so a
/// config value-equal to another produces the byte-identical schedule.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent sessions to create and then spread traffic over.
    pub sessions: usize,
    /// Mixed-phase requests (on top of the `sessions` creates).
    pub requests: usize,
    /// Offered arrival rate for the mixed phase, requests/second.
    pub rps: f64,
    /// Worker threads draining the schedule.
    pub workers: usize,
    /// Master seed for the workload mix.
    pub seed: u64,
    /// Connection-churn scenario: alongside every scheduled request each
    /// worker also opens a short-lived throwaway connection — alternating
    /// a mid-request abort (ragged prefix, then hang up) and an
    /// immediate connect-and-close — so the accept path is stressed with
    /// connections that never produce a response. Churn connections are
    /// counted in [`LoadReport::churn_conns`] but never measured: the
    /// latency digests still describe only real requests.
    pub churn: bool,
    /// Share of the mixed phase spent on `suggest` calls (`0.0..=1.0`).
    /// The other endpoint weights shrink proportionally, so `0.0` leaves
    /// the classic mix byte-identical and `1.0` is a suggest-only run.
    pub suggest: f64,
}

impl LoadConfig {
    /// The default full workload against `addr`: hundreds of sessions,
    /// thousands of mixed requests.
    pub fn full(addr: impl Into<String>) -> LoadConfig {
        LoadConfig {
            addr: addr.into(),
            sessions: 200,
            requests: 2000,
            rps: 400.0,
            workers: 32,
            seed: 2018,
            churn: false,
            suggest: 0.0,
        }
    }

    /// A seconds-not-minutes smoke workload (CI, `SIDER_BENCH_SMOKE=1`).
    pub fn smoke(addr: impl Into<String>) -> LoadConfig {
        LoadConfig {
            addr: addr.into(),
            sessions: 12,
            requests: 120,
            rps: 120.0,
            workers: 8,
            seed: 2018,
            churn: false,
            suggest: 0.0,
        }
    }

    /// `smoke` when [`SMOKE_ENV_VAR`] is set to a truthy value, `full`
    /// otherwise.
    pub fn from_env(addr: impl Into<String>) -> LoadConfig {
        if smoke_mode() {
            LoadConfig::smoke(addr)
        } else {
            LoadConfig::full(addr)
        }
    }
}

/// Whether [`SMOKE_ENV_VAR`] asks for the smoke workload: small
/// datasets, few samples, the same artifact schema — cheap enough for
/// CI, still exercising every code path. The one switch every bench and
/// `sider loadgen` read. `1`, `true` or `yes` turn it on (the rule the
/// CLI's boolean flags use); anything else leaves it off.
pub fn smoke_mode() -> bool {
    smoke_requested(std::env::var(SMOKE_ENV_VAR).ok().as_deref())
}

/// The value rule of [`smoke_mode`], apart from the process environment.
fn smoke_requested(value: Option<&str>) -> bool {
    matches!(value, Some("1" | "true" | "yes"))
}

/// Precompute the mixed-phase schedule: `config.requests` requests over
/// `s1..s{sessions}`, arrivals evenly spaced at `1/rps`, endpoint and
/// payload drawn from an [`Rng`] substream of `config.seed`. Pure —
/// identical configs yield identical schedules.
pub fn build_schedule(config: &LoadConfig) -> Vec<ScheduledRequest> {
    let mut rng = Rng::substream(config.seed, 1);
    let gap_ns = 1e9 / config.rps.max(1e-9);
    // warm-update 30%, view 30%, knowledge 25%, snapshot 15%: views and
    // updates dominate (the paper's inner loop), knowledge statements
    // arrive steadily, snapshots model periodic client-side saves. A
    // suggest share scales the classic weights down proportionally; at
    // 0.0 the trailing zero weight is never drawn and the schedule stays
    // byte-identical to the pre-suggest mix.
    let share = config.suggest.clamp(0.0, 1.0);
    let classic = 1.0 - share;
    let weights = [
        0.25 * classic,
        0.30 * classic,
        0.30 * classic,
        0.15 * classic,
        share,
    ];
    let kinds = [
        Endpoint::Knowledge,
        Endpoint::Update,
        Endpoint::View,
        Endpoint::Snapshot,
        Endpoint::Suggest,
    ];
    (0..config.requests)
        .map(|i| {
            let session = rng.below(config.sessions.max(1)) + 1;
            let endpoint = kinds[rng.weighted_index(&weights)];
            let (method, path, body) = match endpoint {
                Endpoint::Knowledge => {
                    let rows = rng.sample_indices(FIG2_ROWS, FIG2_ROWS / 10);
                    let rows = rows
                        .iter()
                        .map(|r| r.to_string())
                        .collect::<Vec<_>>()
                        .join(",");
                    (
                        "POST",
                        format!("/api/sessions/s{session}/knowledge"),
                        format!(r#"{{"kind":"cluster","rows":[{rows}]}}"#),
                    )
                }
                Endpoint::Update => (
                    "POST",
                    format!("/api/sessions/s{session}/update"),
                    "{}".to_string(),
                ),
                Endpoint::View => (
                    "POST",
                    format!("/api/sessions/s{session}/view"),
                    r#"{"method":"pca"}"#.to_string(),
                ),
                Endpoint::Snapshot => (
                    "GET",
                    format!("/api/sessions/s{session}/snapshot"),
                    String::new(),
                ),
                Endpoint::Suggest => {
                    // Per-request candidate seed from the schedule stream:
                    // distinct requests exercise distinct random planes,
                    // while the whole mix stays a pure function of the
                    // config seed.
                    let suggest_seed = rng.below(u32::MAX as usize) as u64;
                    (
                        "POST",
                        format!("/api/sessions/s{session}/suggest"),
                        format!(r#"{{"batch":64,"k":8,"seed":{suggest_seed}}}"#),
                    )
                }
                Endpoint::Create => unreachable!("creates are phase 1"),
            };
            ScheduledRequest {
                offset: Duration::from_nanos((i as f64 * gap_ns) as u64),
                endpoint,
                method,
                path,
                body,
            }
        })
        .collect()
}

/// One measured request: endpoint, latency, success.
#[derive(Debug, Clone, Copy)]
struct Sample {
    endpoint: Endpoint,
    latency_ns: u64,
    ok: bool,
}

/// Latency/throughput digest of one endpoint.
#[derive(Debug, Clone)]
pub struct EndpointStats {
    /// Requests sent.
    pub requests: usize,
    /// Requests that failed (non-2xx status or transport error).
    pub errors: usize,
    /// Completed requests per wall-clock second of the phase.
    pub throughput_rps: f64,
    /// Nearest-rank 50th percentile latency, nanoseconds.
    pub p50_ns: u64,
    /// Nearest-rank 99th percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// Nearest-rank 99.9th percentile latency, nanoseconds.
    pub p999_ns: u64,
}

impl EndpointStats {
    fn from_samples(latencies: &mut [u64], errors: usize, wall_s: f64) -> EndpointStats {
        latencies.sort_unstable();
        EndpointStats {
            requests: latencies.len(),
            errors,
            throughput_rps: latencies.len() as f64 / wall_s.max(1e-9),
            p50_ns: percentile(latencies, 50.0),
            p99_ns: percentile(latencies, 99.0),
            p999_ns: percentile(latencies, 99.9),
        }
    }

    /// JSON form for `BENCH_serve.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("requests", Json::from(self.requests)),
            ("errors", Json::from(self.errors)),
            ("throughput_rps", Json::from(self.throughput_rps)),
            ("p50_ns", Json::from(self.p50_ns)),
            ("p99_ns", Json::from(self.p99_ns)),
            ("p999_ns", Json::from(self.p999_ns)),
        ])
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The full result of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Wall-clock seconds of the create phase.
    pub create_wall_s: f64,
    /// Wall-clock seconds of the open-loop mixed phase.
    pub mixed_wall_s: f64,
    /// Total requests sent across both phases.
    pub total_requests: usize,
    /// Total failed requests across both phases.
    pub total_errors: usize,
    /// Mixed-phase completed requests per second.
    pub throughput_rps: f64,
    /// Short-lived churn connections opened alongside the workload
    /// (0 unless [`LoadConfig::churn`] was set).
    pub churn_conns: usize,
    /// Per-endpoint digests, in [`Endpoint::ALL`] order.
    pub endpoints: Vec<(Endpoint, EndpointStats)>,
}

impl LoadReport {
    /// JSON form for `BENCH_serve.json` (endpoint keys sort, like every
    /// `sider_json` object).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("create_wall_s", Json::from(self.create_wall_s)),
            ("mixed_wall_s", Json::from(self.mixed_wall_s)),
            ("total_requests", Json::from(self.total_requests)),
            ("total_errors", Json::from(self.total_errors)),
            ("throughput_rps", Json::from(self.throughput_rps)),
            ("churn_conns", Json::from(self.churn_conns)),
            (
                "endpoints",
                Json::Obj(
                    self.endpoints
                        .iter()
                        .map(|(e, s)| (e.as_str().to_string(), s.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One blocking HTTP/1.1 request (`Connection: close`, the server's
/// model); returns the response status code and the raw response bytes
/// (status line, headers, and body). Public so the bench harness can poll
/// `/health` with the same client the load workers use.
pub fn http_exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: sider\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("write: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let text = std::str::from_utf8(&response[..response.len().min(64)])
        .map_err(|e| format!("status line: {e}"))?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no status in {text:?}"))?;
    Ok((status, response))
}

/// Status-only wrapper over [`http_exchange`].
fn http_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<u16, String> {
    http_exchange(addr, method, path, body).map(|(status, _)| status)
}

/// One short-lived churn connection: either a mid-request abort (write a
/// ragged request prefix, then hang up without reading) or a bare
/// connect-and-close. Never reads a response; failures are ignored —
/// churn exists to stress the server's accept/teardown path, and a
/// connection the OS refuses stresses nothing.
fn churn_connection(addr: SocketAddr, abort_style: bool) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    if abort_style {
        let _ = stream.write_all(b"POST /api/sessions HTTP/1.1\r\nContent-Le");
    }
    drop(stream);
}

/// Run the workload: create `config.sessions` sessions sequentially
/// (phase 1, closed-loop), then replay the precomputed mixed schedule
/// open-loop with `config.workers` threads (phase 2). Fails fast when
/// the server cannot be reached or a create fails — a load report over a
/// half-built session population would measure nothing meaningful.
pub fn run(config: &LoadConfig) -> Result<LoadReport, String> {
    let addr: SocketAddr = config
        .addr
        .to_socket_addrs()
        .map_err(|e| format!("{}: {e}", config.addr))?
        .next()
        .ok_or_else(|| format!("{}: no address", config.addr))?;

    // Phase 1: create the session population. Sequential on purpose —
    // creates mint the dense IDs the schedule references, and a create
    // is the one endpoint whose cost (a cold session build) would
    // otherwise swamp the open-loop arrival process.
    let mut create_latencies = Vec::with_capacity(config.sessions);
    let mut create_errors = 0usize;
    let create_started = Instant::now();
    for i in 0..config.sessions {
        let body = format!(r#"{{"dataset":"fig2","seed":{i}}}"#);
        let t0 = Instant::now();
        let ok = matches!(http_request(addr, "POST", "/api/sessions", &body), Ok(s) if s < 400);
        create_latencies.push(t0.elapsed().as_nanos() as u64);
        if !ok {
            create_errors += 1;
        }
    }
    let create_wall_s = create_started.elapsed().as_secs_f64();
    if create_errors > 0 {
        return Err(format!(
            "{create_errors}/{} session creates failed — is the server at capacity?",
            config.sessions
        ));
    }

    // Phase 2: the open-loop mixed schedule.
    let schedule = build_schedule(config);
    let cursor = AtomicUsize::new(0);
    let churn_opened = AtomicUsize::new(0);
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::with_capacity(schedule.len()));
    let phase_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..config.workers.max(1) {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = schedule.get(i) else { break };
                    // Open loop: wait for the scheduled instant, then
                    // measure from it — lateness (server backlog) counts.
                    let due = phase_start + req.offset;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    if config.churn {
                        churn_connection(addr, i.is_multiple_of(2));
                        churn_opened.fetch_add(1, Ordering::Relaxed);
                    }
                    let ok = matches!(
                        http_request(addr, req.method, &req.path, &req.body),
                        Ok(s) if s < 400
                    );
                    local.push(Sample {
                        endpoint: req.endpoint,
                        latency_ns: due.elapsed().as_nanos() as u64,
                        ok,
                    });
                }
                samples.lock().expect("samples lock").extend(local);
            });
        }
    });
    let mixed_wall_s = phase_start.elapsed().as_secs_f64();
    let samples = samples.into_inner().expect("samples lock");

    let mut endpoints = Vec::new();
    let mut total_errors = create_errors;
    for endpoint in Endpoint::ALL {
        let (mut latencies, errors): (Vec<u64>, usize) = match endpoint {
            Endpoint::Create => (create_latencies.clone(), create_errors),
            _ => {
                let of: Vec<&Sample> = samples.iter().filter(|s| s.endpoint == endpoint).collect();
                (
                    of.iter().map(|s| s.latency_ns).collect(),
                    of.iter().filter(|s| !s.ok).count(),
                )
            }
        };
        let wall = match endpoint {
            Endpoint::Create => create_wall_s,
            _ => mixed_wall_s,
        };
        if endpoint != Endpoint::Create {
            total_errors += errors;
        }
        endpoints.push((
            endpoint,
            EndpointStats::from_samples(&mut latencies, errors, wall),
        ));
    }
    Ok(LoadReport {
        create_wall_s,
        mixed_wall_s,
        total_requests: config.sessions + samples.len(),
        total_errors,
        throughput_rps: samples.len() as f64 / mixed_wall_s.max(1e-9),
        churn_conns: churn_opened.into_inner(),
        endpoints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> LoadConfig {
        LoadConfig {
            addr: "127.0.0.1:0".into(),
            sessions: 5,
            requests: 40,
            rps: 1000.0,
            workers: 4,
            seed: 7,
            churn: false,
            suggest: 0.0,
        }
    }

    #[test]
    fn smoke_switch_is_on_only_for_1_true_yes() {
        for on in ["1", "true", "yes"] {
            assert!(smoke_requested(Some(on)), "{on:?}");
        }
        for off in ["false", "0", "", "no", "TRUE"] {
            assert!(!smoke_requested(Some(off)), "{off:?}");
        }
        assert!(!smoke_requested(None));
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_config() {
        let a = build_schedule(&config());
        let b = build_schedule(&config());
        assert_eq!(a.len(), 40);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.offset, y.offset);
            assert_eq!(x.endpoint, y.endpoint);
            assert_eq!(x.path, y.path);
            assert_eq!(x.body, y.body);
        }
        // A different seed reshuffles the mix.
        let mut other = config();
        other.seed = 8;
        let c = build_schedule(&other);
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.path != y.path || x.body != y.body),
            "different seeds must differ somewhere"
        );
    }

    #[test]
    fn schedule_references_only_created_sessions_and_spaces_arrivals() {
        let schedule = build_schedule(&config());
        let gap = Duration::from_nanos(1_000_000);
        for (i, req) in schedule.iter().enumerate() {
            assert_eq!(req.offset, gap * i as u32, "evenly spaced arrivals");
            let session: usize = req
                .path
                .split("/sessions/s")
                .nth(1)
                .and_then(|rest| rest.split('/').next())
                .unwrap()
                .parse()
                .unwrap();
            assert!((1..=5).contains(&session), "{}", req.path);
            assert_ne!(req.endpoint, Endpoint::Create);
        }
    }

    #[test]
    fn suggest_share_mixes_suggest_requests_in() {
        let mut with_share = config();
        with_share.suggest = 0.25;
        with_share.requests = 200;
        let schedule = build_schedule(&with_share);
        let suggests: Vec<&ScheduledRequest> = schedule
            .iter()
            .filter(|r| r.endpoint == Endpoint::Suggest)
            .collect();
        // 25% of 200 — allow generous sampling noise, but the class must
        // neither vanish nor take over.
        assert!(
            (10..=100).contains(&suggests.len()),
            "expected a ~25% suggest share, got {}/200",
            suggests.len()
        );
        for req in &suggests {
            assert_eq!(req.method, "POST");
            assert!(req.path.ends_with("/suggest"), "{}", req.path);
            assert!(req.body.contains(r#""batch":64"#), "{}", req.body);
        }
        // Distinct suggest requests carry distinct candidate seeds.
        assert!(
            suggests.windows(2).any(|w| w[0].body != w[1].body),
            "per-request candidate seeds should differ"
        );
        // The share is part of the pure schedule function.
        let again = build_schedule(&with_share);
        for (x, y) in schedule.iter().zip(&again) {
            assert_eq!(x.path, y.path);
            assert_eq!(x.body, y.body);
        }
        // Share 0.0 produces no suggest traffic at all.
        assert!(
            build_schedule(&config())
                .iter()
                .all(|r| r.endpoint != Endpoint::Suggest),
            "share 0.0 must keep the classic mix"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 99.9), 100);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[42], 50.0), 42);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn smoke_config_is_small() {
        let smoke = LoadConfig::smoke("x");
        let full = LoadConfig::full("x");
        assert!(smoke.sessions < full.sessions);
        assert!(smoke.requests < full.requests);
        // Same seed: smoke exercises the same generator code paths.
        assert_eq!(smoke.seed, full.seed);
    }

    #[test]
    fn report_json_has_the_artifact_shape() {
        let report = LoadReport {
            create_wall_s: 0.5,
            mixed_wall_s: 2.0,
            total_requests: 45,
            total_errors: 0,
            throughput_rps: 20.0,
            churn_conns: 3,
            endpoints: vec![(
                Endpoint::View,
                EndpointStats {
                    requests: 40,
                    errors: 0,
                    throughput_rps: 20.0,
                    p50_ns: 1,
                    p99_ns: 2,
                    p999_ns: 3,
                },
            )],
        };
        let json = report.to_json();
        assert_eq!(json.require_num("total_requests").unwrap(), 45.0);
        assert_eq!(json.require_num("churn_conns").unwrap(), 3.0);
        assert_eq!(json.require_num("endpoints.view.p99_ns").unwrap(), 2.0);
        // Percentiles must be monotone by construction here.
        let p50 = json.require_num("endpoints.view.p50_ns").unwrap();
        let p999 = json.require_num("endpoints.view.p999_ns").unwrap();
        assert!(p50 <= p999);
    }
}
