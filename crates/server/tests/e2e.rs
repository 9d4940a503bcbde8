//! End-to-end tests over a real TCP socket: a scripted HTTP client drives
//! full exploration loops against a running server and pins the
//! determinism contract — identical request sequences produce
//! **byte-identical** responses whether the server's pool has 1 thread or
//! 4 (the HTTP twin of `session_bit_identical_across_pool_sizes`) and
//! whether the session manager runs 1 stripe or 4. The serving edge adds
//! and drops no bytes: a socket transcript equals the same steps run
//! in-process through the parser, the route table and the serializer.
//! The scripts include guided-exploration `suggest` calls, so the
//! recommendation engine's chunk-ordered scoring is pinned under the
//! same contract.

mod common;

use common::*;
use sider_par::ThreadPool;
use sider_server::http::RequestParser;
use sider_server::manager::SessionManager;
use sider_server::{api, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn start_striped(threads: usize, stripes: usize, idle_timeout: Duration) -> RunningServer {
    common::start(ServerConfig {
        idle_timeout,
        ..config(threads, stripes)
    })
}

fn start(threads: usize, idle_timeout: Duration) -> RunningServer {
    start_striped(threads, 1, idle_timeout)
}

/// The scripted client of the acceptance criteria: two full loop
/// iterations — create session, `next_view`, post cluster knowledge,
/// warm `update_background`, `next_view` — plus a guided-exploration
/// `suggest` call against each background (prior, then post-knowledge),
/// returning every raw response.
fn scripted_loop(addr: SocketAddr) -> Vec<Vec<u8>> {
    let steps: Vec<Step<&str>> = vec![
        (
            "POST",
            "/api/sessions",
            r#"{"dataset":"fig2","seed":7}"#.into(),
        ),
        (
            "POST",
            "/api/sessions/s1/view",
            r#"{"method":"pca"}"#.into(),
        ),
        // A recommendation against the prior background: a pure read,
        // so it must not perturb any later response byte.
        (
            "POST",
            "/api/sessions/s1/suggest",
            r#"{"seed":11,"batch":64,"k":5}"#.into(),
        ),
        (
            "POST",
            "/api/sessions/s1/knowledge",
            format!(r#"{{"kind":"cluster","rows":[{}]}}"#, rows(0..40)),
        ),
        ("POST", "/api/sessions/s1/update", "{}".into()),
        (
            "POST",
            "/api/sessions/s1/view",
            r#"{"method":"pca"}"#.into(),
        ),
        // Second iteration: another cluster, a warm refit, another view.
        (
            "POST",
            "/api/sessions/s1/knowledge",
            format!(r#"{{"kind":"cluster","rows":[{}]}}"#, rows(50..90)),
        ),
        ("POST", "/api/sessions/s1/update", "{}".into()),
        (
            "POST",
            "/api/sessions/s1/view",
            r#"{"method":"pca"}"#.into(),
        ),
        // Same request seed as before, now against the refit background:
        // the recommendation must reflect the absorbed knowledge yet
        // stay a pure read.
        (
            "POST",
            "/api/sessions/s1/suggest",
            r#"{"seed":11,"batch":64,"k":5}"#.into(),
        ),
        ("GET", "/api/sessions/s1/snapshot", String::new()),
        ("GET", "/api/sessions/s1", String::new()),
    ];
    run_steps(addr, &steps)
}

#[test]
fn two_loop_iterations_byte_identical_across_pool_sizes() {
    let run = |threads: usize| {
        let server = start(threads, Duration::from_secs(3600));
        let responses = scripted_loop(server.addr);
        server.stop();
        responses
    };
    let serial = run(1);
    let parallel = run(4);

    // Every step succeeded…
    assert_all_ok("1 thread", &serial);
    // …the warm path was actually exercised…
    let second_update = body_of(&serial[7]);
    assert!(
        second_update.contains("\"was_warm\":true"),
        "second update must warm-start: {second_update}"
    );
    assert!(second_update.contains("\"refresh\":"));
    // …both views carry a full projection payload…
    assert!(body_of(&serial[5]).contains("\"projected_background\":"));
    // …both suggest calls return ranked candidates, and refitting the
    // background changed the gains (same request seed, new scores)…
    assert!(body_of(&serial[2]).contains("\"suggestions\":"));
    assert!(body_of(&serial[9]).contains("\"suggestions\":"));
    assert_ne!(
        body_of(&serial[2]),
        body_of(&serial[9]),
        "suggest must score against the current background"
    );
    // …and the whole transcript is byte-identical across pool sizes.
    assert_transcripts_equal("1-vs-4 threads", &serial, &parallel);
}

/// Steps spanning several sessions, so sessions actually land on
/// different stripes of a striped manager: interleaved creates, knowledge,
/// updates, views and listings across four concurrent-ish dialogues.
fn multi_session_steps() -> Vec<Step<String>> {
    let mut steps = Vec::new();
    for seed in 1..=4u64 {
        steps.push((
            "POST",
            "/api/sessions".into(),
            format!(r#"{{"dataset":"fig2","seed":{seed}}}"#),
        ));
    }
    for id in 1..=4u64 {
        steps.push((
            "POST",
            format!("/api/sessions/s{id}/knowledge"),
            format!(r#"{{"kind":"cluster","rows":[{}]}}"#, rows(0..30)),
        ));
        steps.push(("POST", format!("/api/sessions/s{id}/update"), "{}".into()));
        steps.push((
            "POST",
            format!("/api/sessions/s{id}/view"),
            r#"{"method":"pca"}"#.into(),
        ));
        // A per-session recommendation: pure read routed to whichever
        // stripe owns the session, so the striped and unstriped
        // transcripts must agree on these bytes too.
        steps.push((
            "POST",
            format!("/api/sessions/s{id}/suggest"),
            format!(r#"{{"seed":{id},"batch":32,"k":4}}"#),
        ));
    }
    // Cross-stripe reads: the listing and per-session details must
    // aggregate in the same (global ID) order at any stripe count.
    steps.push(("GET", "/api/sessions".into(), String::new()));
    steps.push(("DELETE", "/api/sessions/s2".into(), String::new()));
    steps.push(("GET", "/api/sessions".into(), String::new()));
    steps.push(("GET", "/api/sessions/s3/snapshot".into(), String::new()));
    steps
}

/// [`multi_session_steps`] over TCP, one connection per step.
fn multi_session_script(addr: SocketAddr) -> Vec<Vec<u8>> {
    run_steps(addr, &multi_session_steps())
}

#[test]
fn multi_session_transcript_byte_identical_across_stripe_counts() {
    let run = |threads: usize, stripes: usize| {
        let server = start_striped(threads, stripes, Duration::from_secs(3600));
        let responses = multi_session_script(server.addr);
        server.stop();
        responses
    };
    let unstriped = run(1, 1);
    let striped = run(1, 4);
    assert_all_ok("1 stripe", &unstriped);
    assert_transcripts_equal("1-vs-4 stripes", &unstriped, &striped);
}

#[test]
fn tcp_transcript_equals_in_process_handler_at_stripes_4() {
    // The serving edge adds and drops no bytes: every response read off
    // the socket equals the same request bytes fed through the parser,
    // the route table and the serializer in-process, on a manager built
    // as `Server::bind` builds it (4 stripes of 1 pool thread each).
    let server = start_striped(1, 4, Duration::from_secs(3600));
    let over_tcp = multi_session_script(server.addr);
    server.stop();

    let pools = (0..4).map(|_| Arc::new(ThreadPool::new(1))).collect();
    let manager = SessionManager::striped(pools, 16, Duration::from_secs(3600));
    let in_process: Vec<Vec<u8>> = multi_session_steps()
        .iter()
        .map(|(method, path, body)| {
            let mut parser = RequestParser::new();
            parser.feed(&request_bytes(method, path, body));
            let request = parser.poll().expect("parses").expect("one request");
            let mut bytes = Vec::new();
            api::handle(&manager, &request).to_bytes(&mut bytes);
            bytes
        })
        .collect();

    assert_all_ok("socket", &over_tcp);
    assert_transcripts_equal("socket-vs-in-process", &over_tcp, &in_process);
}

#[test]
fn svg_rendering_over_tcp() {
    let server = start(2, Duration::from_secs(3600));
    let created = raw_request(
        server.addr,
        "POST",
        "/api/sessions",
        r#"{"dataset":"fig2"}"#,
    );
    assert_eq!(status_of(&created), 201);
    let raw = raw_request(
        server.addr,
        "POST",
        "/api/sessions/s1/view.svg",
        r#"{"title":"over tcp","selection":[0,1,2,3,4]}"#,
    );
    assert_eq!(status_of(&raw), 200);
    let text = std::str::from_utf8(&raw).unwrap();
    assert!(text.contains("Content-Type: image/svg+xml"));
    assert!(body_of(&raw).starts_with("<svg"));
    assert!(body_of(&raw).contains("over tcp"));
    server.stop();
}

#[test]
fn malformed_requests_get_http_errors() {
    let server = start(1, Duration::from_secs(3600));
    // Not HTTP at all.
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.write_all(b"ceci n'est pas http\r\n\r\n").unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    assert_eq!(status_of(&response), 400);
    // Unknown route.
    let raw = raw_request(server.addr, "GET", "/teapot", "");
    assert_eq!(status_of(&raw), 404);
    // Malformed JSON body.
    let raw = raw_request(server.addr, "POST", "/api/sessions", "{nope");
    assert_eq!(status_of(&raw), 400);
    server.stop();
}

#[test]
fn concurrent_clients_explore_independent_sessions() {
    let server = start(2, Duration::from_secs(3600));
    let addr = server.addr;
    let workers: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let created = raw_request(
                    addr,
                    "POST",
                    "/api/sessions",
                    &format!(r#"{{"dataset":"fig2","seed":{i}}}"#),
                );
                assert_eq!(status_of(&created), 201);
                let body = body_of(&created);
                let id = body
                    .split("\"id\":\"")
                    .nth(1)
                    .and_then(|rest| rest.split('"').next())
                    .expect("id in create response")
                    .to_string();
                let resp = raw_request(
                    addr,
                    "POST",
                    &format!("/api/sessions/{id}/knowledge"),
                    r#"{"kind":"margin"}"#,
                );
                assert_eq!(status_of(&resp), 200);
                let resp = raw_request(addr, "POST", &format!("/api/sessions/{id}/update"), "{}");
                assert_eq!(status_of(&resp), 200, "{}", body_of(&resp));
                assert!(body_of(&resp).contains("\"converged\":true"));
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let listing = raw_request(addr, "GET", "/api/sessions", "");
    assert_eq!(body_of(&listing).matches("\"id\":").count(), 6);
    server.stop();
}

#[test]
fn housekeeping_thread_evicts_without_create_or_list_traffic() {
    // No create/list request ever touches the manager after setup, so the
    // old lazy sweep would never run — only the server's
    // housekeeping thread (sweeping every max(idle/4, 250ms)) can expire
    // the session.
    let server = start(1, Duration::from_millis(100));
    let created = raw_request(
        server.addr,
        "POST",
        "/api/sessions",
        r#"{"dataset":"fig2"}"#,
    );
    assert_eq!(status_of(&created), 201);
    std::thread::sleep(Duration::from_millis(700));
    // Direct lookup (which does not sweep) finds the slot already gone.
    let gone = raw_request(server.addr, "GET", "/api/sessions/s1", "");
    assert_eq!(status_of(&gone), 404);
    server.stop();
}

#[test]
fn idle_sessions_evicted_over_http() {
    let server = start(1, Duration::from_millis(50));
    let created = raw_request(
        server.addr,
        "POST",
        "/api/sessions",
        r#"{"dataset":"fig2"}"#,
    );
    assert_eq!(status_of(&created), 201);
    std::thread::sleep(Duration::from_millis(150));
    let listing = raw_request(server.addr, "GET", "/api/sessions", "");
    assert_eq!(body_of(&listing).matches("\"id\":").count(), 0);
    let gone = raw_request(server.addr, "GET", "/api/sessions/s1", "");
    assert_eq!(status_of(&gone), 404);
    server.stop();
}
