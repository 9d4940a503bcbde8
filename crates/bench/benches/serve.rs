//! Striped-serving load benchmark: the open-loop generator from
//! `sider_loadgen` replays the identical fixed-seed mixed workload
//! against an in-process server (event-driven accept loop) at
//! `stripes = 1` and `stripes = 4`, plus a `churn` scenario at
//! `stripes = 4` where every scheduled request is accompanied by a
//! short-lived aborted or empty connection. The per-endpoint latency
//! digests of all runs are persisted to `BENCH_serve.json`.
//!
//! Why both stripe counts in one artifact: the striping tentpole claims
//! that sharding the `SessionManager` removes the cross-session lock and
//! pool contention without changing a single response byte. The byte
//! half is pinned by the e2e transcript tests; this bench records the
//! latency half under a workload that actually queues — open-loop
//! arrivals at a fixed offered rate, where server backlog counts against
//! the latency of every request it delays (no coordinated omission).
//!
//! The two runs replay the *same schedule* (same seed, same session
//! count, same arrival offsets), so any difference between the
//! `stripes:1` and `stripes:4` rows is the server's, not the
//! generator's. Each stripe gets one pool thread, so the 4-stripe server
//! has 4× the execution width — on a multi-core host that is the
//! headline; on a 1-CPU CI container both rows still validate the
//! harness end to end (schema, error-free serving, monotone
//! percentiles), which is what `check_bench_artifacts` gates on.
//!
//! Since the replication tentpole the artifact also carries a
//! `replication` scenario: the same striped workload against a durable
//! **leader** that is actively shipping every stripe's WAL records to a
//! live follower. The leader's latency digests go through the same SLO
//! gates as every other run — shipping must not cost the serving edge
//! its latency — and the run records the follower's catch-up stats,
//! which `check_bench_artifacts` gates on. Caught up means every
//! `(id, last_lsn)` row of the follower's `GET /api/store` equals the
//! leader's; the row records the catch-up wall time and both nodes'
//! per-stripe sums of `last_lsn` (the leader's `shipped`, the
//! follower's `applied`), which must then be equal, so `final_lag` is
//! zero.
//!
//! Since the guided-exploration tentpole the artifact also carries a
//! `suggest` scenario: the striped workload with a quarter of the mixed
//! phase redirected to `POST /api/sessions/{id}/suggest` — each call
//! generates and scores a 64-candidate batch of projection planes
//! against the session's background, so the row measures the serving
//! edge under real recommendation load. The same row embeds a
//! `scoring` block timing the engine in-process (identical batch at
//! pool 1 vs pool 4) after asserting the two responses are
//! byte-identical; `check_bench_artifacts` gates on both.
//!
//! Set `SIDER_BENCH_SMOKE=1` for the reduced CI workload (same JSON
//! schema).

use sider_core::wire::SuggestRequest;
use sider_core::EdaSession;
use sider_json::Json;
use sider_loadgen::{http_exchange, run, smoke_mode, LoadConfig};
use sider_par::ThreadPool;
use sider_server::{Server, ServerConfig};
use sider_store::StoreConfig;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stripe counts compared in the artifact (1 = the unstriped baseline).
const STRIPE_COUNTS: [usize; 2] = [1, 4];

/// Share of the mixed phase redirected to suggest calls in the
/// `suggest` scenario — large enough that the row's digests reflect
/// recommendation latency, small enough to keep the session-mutating
/// traffic exercising the striped write path.
const SUGGEST_SHARE: f64 = 0.25;

fn main() {
    let smoke = smoke_mode();
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut runs = Vec::new();
    let mut workload: Option<LoadConfig> = None;
    // The mixed-workload rows at each stripe count, plus a churn row: the
    // same striped workload with short-lived aborted/empty connections
    // injected alongside every request, which the event loop must absorb
    // without a single failed real request.
    let scenarios: Vec<(usize, &str)> = STRIPE_COUNTS
        .iter()
        .map(|&s| (s, "mixed"))
        .chain([
            (4usize, "churn"),
            (4usize, "replication"),
            (4usize, "suggest"),
        ])
        .collect();
    for (stripes, scenario) in scenarios {
        let (report, config, follower) = run_against(stripes, smoke, scenario);
        if report.total_errors > 0 {
            eprintln!(
                "serve: stripes={stripes} {scenario}: {} of {} requests failed",
                report.total_errors, report.total_requests
            );
            std::process::exit(1);
        }
        println!(
            "serve: stripes={stripes} {scenario}: {} requests ({} churn conns) in {:.2}s mixed phase, {:.0} req/s, p99 view {:.2}ms",
            report.total_requests,
            report.churn_conns,
            report.mixed_wall_s,
            report.throughput_rps,
            report
                .endpoints
                .iter()
                .find(|(e, _)| e.as_str() == "view")
                .map(|(_, s)| s.p99_ns as f64 / 1e6)
                .unwrap_or(0.0),
        );
        let mut fields = vec![
            ("stripes", Json::from(stripes)),
            ("threads_per_stripe", Json::from(1usize)),
            ("scenario", Json::from(scenario)),
            ("report", report.to_json()),
        ];
        if let Some(follower) = follower {
            fields.push(("follower", follower));
        }
        if scenario == "suggest" {
            fields.push((
                "suggest",
                Json::obj([
                    ("share", Json::from(SUGGEST_SHARE)),
                    ("batch", Json::from(64usize)),
                    ("k", Json::from(8usize)),
                ]),
            ));
            fields.push(("scoring", score_in_process(smoke)));
        }
        runs.push(Json::obj(fields));
        workload = Some(config);
    }
    let workload = workload.expect("at least one run");

    let doc = Json::obj([
        ("bench", Json::from("serve")),
        ("smoke", Json::from(smoke)),
        ("available_parallelism", Json::from(available)),
        (
            "workload",
            Json::obj([
                ("sessions", Json::from(workload.sessions)),
                ("requests", Json::from(workload.requests)),
                ("rps", Json::from(workload.rps)),
                ("workers", Json::from(workload.workers)),
                ("seed", Json::from(workload.seed)),
            ]),
        ),
        ("runs", Json::Arr(runs)),
    ]);
    sider_bench::write_artifact("serve", &doc);
}

/// Boot an in-process server with `stripes` stripes (one pool thread
/// each) under the event-driven accept loop, replay the workload
/// (with connection churn or active replication when the scenario asks
/// for it), and return the report, the workload config used (identical
/// across calls — the schedule is seed-fixed), and the follower's
/// catch-up stats for the replication scenario.
fn run_against(
    stripes: usize,
    smoke: bool,
    scenario: &str,
) -> (sider_loadgen::LoadReport, LoadConfig, Option<Json>) {
    let replication = scenario == "replication";
    let bench_dir = std::env::temp_dir().join(format!(
        "sider_bench_serve_replication_{}",
        std::process::id()
    ));
    let store = replication.then(|| {
        let dir = bench_dir.join("leader");
        let _ = std::fs::remove_dir_all(&bench_dir);
        StoreConfig::new(dir)
    });
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_sessions: if smoke { 64 } else { 512 },
        idle_timeout: Duration::from_secs(600),
        threads: Some(1),
        stripes,
        store,
        ship_addr: replication.then(|| "127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("bind serve-bench server");
    let addr = server.local_addr();
    let ship_addr = server.ship_addr();
    let handle = server.shutdown_handle();
    let joiner = std::thread::spawn(move || server.run());

    // The replication scenario attaches a live follower before the
    // workload starts: the leader's latencies are measured while every
    // acknowledged op is also read back from its WAL and shipped.
    let follower = replication.then(|| {
        let follower = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_sessions: if smoke { 64 } else { 512 },
            idle_timeout: Duration::from_secs(600),
            threads: Some(1),
            stripes,
            store: Some(StoreConfig::new(bench_dir.join("follower"))),
            follow: Some(ship_addr.expect("leader ship addr").to_string()),
            ..ServerConfig::default()
        })
        .expect("bind serve-bench follower");
        let addr = follower.local_addr();
        let handle = follower.shutdown_handle();
        let joiner = std::thread::spawn(move || follower.run());
        (addr, handle, joiner)
    });

    let mut config = LoadConfig::from_env(addr.to_string());
    config.churn = scenario == "churn";
    config.suggest = if scenario == "suggest" {
        SUGGEST_SHARE
    } else {
        0.0
    };
    let report = match run(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("serve: stripes={stripes}: load run failed: {e}");
            std::process::exit(1);
        }
    };

    let follower_stats = follower.map(|(follower_addr, fhandle, fjoiner)| {
        let stats = wait_for_catchup(addr, follower_addr);
        fhandle.shutdown();
        fjoiner
            .join()
            .expect("follower thread")
            .expect("follower run");
        stats
    });
    handle.shutdown();
    joiner.join().expect("server thread").expect("server run");
    if replication {
        let _ = std::fs::remove_dir_all(&bench_dir);
    }
    (report, config, follower_stats)
}

/// Time the recommendation engine in-process on the bench dataset:
/// score the same 64-candidate batch with a 1-thread and a 4-thread
/// pool, assert the two responses are byte-identical (the determinism
/// contract the e2e tests pin over HTTP), and record the best-of-reps
/// wall time of each. `speedup` is `pool1_ns / pool4_ns` — informative
/// on a multi-core host, near 1 on a 1-CPU container, and gated only
/// as `> 0` by `check_bench_artifacts` for that reason.
fn score_in_process(smoke: bool) -> Json {
    let request = SuggestRequest {
        seed: 2018,
        batch: 64,
        k: 8,
    };
    let reps: usize = if smoke { 3 } else { 10 };
    let mut times = [0u128; 2];
    let mut dumps: Vec<String> = Vec::new();
    for (slot, threads) in [(0usize, 1usize), (1usize, 4usize)] {
        let session = EdaSession::with_pool(
            sider_data::synthetic::three_d_four_clusters(2018),
            7,
            Arc::new(ThreadPool::new(threads)),
        )
        .expect("bench session");
        // Warm once (first call pays one-off allocation), then best-of.
        let warm = sider_suggest::recommend(&session, &request).expect("recommend");
        dumps.push(sider_core::wire::suggest_response_to_json(&warm).dump());
        let mut best = u128::MAX;
        for _ in 0..reps {
            let started = Instant::now();
            let response = sider_suggest::recommend(&session, &request).expect("recommend");
            best = best.min(started.elapsed().as_nanos());
            assert_eq!(response.suggestions.len(), 8);
        }
        times[slot] = best.max(1);
    }
    if dumps[0] != dumps[1] {
        eprintln!("serve: suggest scoring diverged between pool 1 and pool 4");
        std::process::exit(1);
    }
    Json::obj([
        ("batch", Json::from(64usize)),
        ("k", Json::from(8usize)),
        ("reps", Json::from(reps)),
        ("pool1_ns", Json::from(times[0] as u64)),
        ("pool4_ns", Json::from(times[1] as u64)),
        ("speedup", Json::from(times[0] as f64 / times[1] as f64)),
    ])
}

/// A `GET` of `path`, parsed as JSON.
fn get_json(addr: SocketAddr, path: &str) -> Json {
    let (status, raw) = http_exchange(addr, "GET", path, "").expect(path);
    assert_eq!(status, 200, "{path} status");
    let pos = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let body = std::str::from_utf8(&raw[pos + 4..]).expect("utf-8 body");
    Json::parse(body).unwrap_or_else(|e| panic!("{path}: {e}: {body}"))
}

/// The `(id, last_lsn)` rows of a node's `GET /api/store`.
fn store_rows(addr: SocketAddr) -> Vec<(String, u64)> {
    get_json(addr, "/api/store")
        .require_arr("sessions")
        .expect("store sessions")
        .iter()
        .map(|row| {
            (
                row.require_str("id").expect("id").to_string(),
                row.require_num("last_lsn").expect("last_lsn") as u64,
            )
        })
        .collect()
}

/// Per-stripe sums of `last_lsn` from a `/health` replication block.
fn health_sums(addr: SocketAddr, key: &str) -> Vec<u64> {
    let doc = get_json(addr, "/health");
    doc.path(&format!("replication.{key}"))
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no replication.{key} in {}", doc.dump()))
        .iter()
        .map(|v| v.as_num().expect("sum") as u64)
        .collect()
}

/// Poll the follower until its `(id, last_lsn)` rows equal the leader's;
/// returns the catch-up stats recorded in the artifact. The leader's own
/// store is the ground truth for how much must arrive.
fn wait_for_catchup(leader: SocketAddr, follower: SocketAddr) -> Json {
    let want = store_rows(leader);
    let started = Instant::now();
    let deadline = started + Duration::from_secs(300);
    while store_rows(follower) != want {
        if Instant::now() >= deadline {
            eprintln!(
                "serve: replication follower never caught up: leader {want:?}, follower {:?}",
                store_rows(follower)
            );
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let catchup_wall_s = started.elapsed().as_secs_f64();
    let shipped = health_sums(leader, "shipped");
    let applied = health_sums(follower, "applied");
    let lag: u64 = shipped
        .iter()
        .zip(&applied)
        .map(|(s, a)| s.saturating_sub(*a))
        .sum();
    Json::obj([
        ("caught_up", Json::from(true)),
        ("final_lag", Json::from(lag)),
        ("catchup_wall_s", Json::from(catchup_wall_s)),
        (
            "shipped",
            Json::Arr(shipped.iter().map(|&v| Json::from(v)).collect()),
        ),
        (
            "applied",
            Json::Arr(applied.iter().map(|&v| Json::from(v)).collect()),
        ),
    ])
}
