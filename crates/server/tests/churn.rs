//! Connection-churn stress tests for the event-driven serving edge:
//! waves of short-lived clients (close-per-request, keep-alive headers,
//! mid-request aborts, slow-drip writers) must leave no leaked file
//! descriptors behind, responses on deterministic routes must stay
//! byte-identical to the same routes fetched by one clean request before
//! the churn, and the event loop must sustain over a thousand
//! simultaneously open connections while still serving fresh requests.

#![cfg(unix)]

mod common;

use common::*;
use sider_server::ServerConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Serialises the tests in this file: both measure the process-wide fd
/// table and hold large batches of sockets, so they must not overlap.
static CHURN_LOCK: Mutex<()> = Mutex::new(());

fn start(threads: usize) -> RunningServer {
    common::start(ServerConfig {
        idle_timeout: Duration::from_secs(600),
        ..config(threads, 4)
    })
}

/// Number of open file descriptors in this process.
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

/// Same request but advertising `Connection: keep-alive`; the protocol
/// is one request per connection, so the server still closes after the
/// response — the client just reads to EOF like everyone else.
fn keep_alive_request(addr: SocketAddr, path: &str) -> Vec<u8> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: sider\r\nConnection: keep-alive\r\n\r\n");
    exchange(addr, request.as_bytes())
}

/// Connect, write a ragged request prefix, and hang up mid-request.
fn abort_mid_request(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.write_all(b"POST /api/sessions HTTP/1.1\r\nContent-Le");
    drop(stream);
}

/// Drip the first bytes of a request one at a time with real pauses,
/// then finish it normally and read the response. Exercises many
/// EAGAIN/re-arm cycles on a single connection.
fn slow_drip_request(addr: SocketAddr, path: &str) -> Vec<u8> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: sider\r\nConnection: close\r\n\r\n");
    let bytes = request.as_bytes();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    let drip = 5.min(bytes.len());
    for b in &bytes[..drip] {
        stream
            .write_all(std::slice::from_ref(b))
            .expect("drip byte");
        std::thread::sleep(Duration::from_millis(100));
    }
    stream.write_all(&bytes[drip..]).expect("finish request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    response
}

/// Deterministic read-only script a churn wave replays: session detail,
/// snapshot export, and two 404s — all byte-pinned even under concurrent
/// load. (`GET /api/sessions` is deliberately absent: the listing uses
/// `try_lock` and reports `busy` summaries that depend on what else is
/// in flight, so it is not concurrency-invariant.)
const WAVE_ROUTES: &[&str] = &[
    "/api/sessions/s1",
    "/api/sessions/s1/snapshot",
    "/api/sessions/s9",
    "/api/nonexistent",
];

/// Waves of short-lived connections — close-per-request, keep-alive
/// headers, mid-request aborts, slow-drip writers. Every response on a
/// deterministic route must equal that route's clean capture, taken from
/// the same server before the first wave, byte for byte; and the fd
/// table must return to its baseline after every wave: no leaked sockets.
#[test]
fn churn_waves_leak_no_fds_and_match_a_clean_capture_byte_for_byte() {
    let _guard = CHURN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start(2);

    // Seed a session so reads have substance, then capture every wave
    // route once with a clean request.
    let create = r#"{"dataset":"fig2","seed":7}"#;
    let created = raw_request(server.addr, "POST", "/api/sessions", create);
    assert_eq!(status_of(&created), 201);
    let clean: Arc<Vec<Vec<u8>>> = Arc::new(
        WAVE_ROUTES
            .iter()
            .map(|path| raw_request(server.addr, "GET", path, ""))
            .collect(),
    );
    let statuses: Vec<u16> = clean.iter().map(|raw| status_of(raw)).collect();
    assert_eq!(statuses, [200, 200, 404, 404]);

    // Let the server finish reaping its setup connections before taking
    // the fd baseline.
    std::thread::sleep(Duration::from_millis(200));
    let baseline = fd_count();

    for wave in 0..3 {
        let mut clients = Vec::new();
        // Close-per-request clients, the bulk of the churn.
        for i in 0..60 {
            let (addr, clean) = (server.addr, Arc::clone(&clean));
            clients.push(std::thread::spawn(move || {
                let k = i % WAVE_ROUTES.len();
                let got = raw_request(addr, "GET", WAVE_ROUTES[k], "");
                assert_eq!(got, clean[k], "mismatch on {}", WAVE_ROUTES[k]);
            }));
        }
        // Keep-alive-header clients (server closes anyway).
        for i in 0..30 {
            let (addr, clean) = (server.addr, Arc::clone(&clean));
            clients.push(std::thread::spawn(move || {
                let k = i % WAVE_ROUTES.len();
                let got = keep_alive_request(addr, WAVE_ROUTES[k]);
                assert_eq!(got, clean[k], "keep-alive mismatch on {}", WAVE_ROUTES[k]);
            }));
        }
        // Mid-request aborts: no response expected, no leak allowed.
        for _ in 0..30 {
            let addr = server.addr;
            clients.push(std::thread::spawn(move || abort_mid_request(addr)));
        }
        // A couple of slow-drip writers riding EAGAIN cycles.
        for _ in 0..2 {
            let (addr, clean) = (server.addr, Arc::clone(&clean));
            clients.push(std::thread::spawn(move || {
                let got = slow_drip_request(addr, WAVE_ROUTES[0]);
                assert_eq!(got, clean[0], "slow-drip response must match");
            }));
        }
        for client in clients {
            client.join().expect("client thread");
        }

        // Give the loop a beat to retire closed connections, then the
        // fd table must be flat: churn leaves nothing behind.
        std::thread::sleep(Duration::from_millis(300));
        let now = fd_count();
        assert!(
            now <= baseline + 4,
            "wave {wave}: fd count grew from {baseline} to {now} — leaked sockets"
        );
    }

    server.stop();
}

/// The event loop must hold >1000 idle connections open simultaneously
/// and still answer a fresh request promptly, with `/health` reporting
/// the load.
#[test]
fn event_loop_sustains_a_thousand_open_connections() {
    let _guard = CHURN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start(2);
    // Serve one request before measuring the baseline: worker threads
    // (and their cloned wake-pipe fds) spawn inside `run`, so an early
    // fd count would mistake server startup for a leak.
    assert_eq!(
        status_of(&raw_request(server.addr, "GET", "/health", "")),
        200
    );
    std::thread::sleep(Duration::from_millis(200));
    let baseline = fd_count();

    const HELD: usize = 1050;
    let mut held = Vec::with_capacity(HELD);
    for i in 0..HELD {
        let mut stream =
            TcpStream::connect(server.addr).unwrap_or_else(|e| panic!("connect #{i} failed: {e}"));
        // A ragged request prefix keeps each connection mid-read: the
        // server must track it without dedicating a thread to it.
        stream.write_all(b"GET /api/sessions HTT").expect("prefix");
        held.push(stream);
    }

    // Wait until the event loop has accepted the whole herd.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let open = loop {
        let health = raw_request(server.addr, "GET", "/health", "");
        assert_eq!(status_of(&health), 200);
        let text = String::from_utf8_lossy(&health).into_owned();
        let open = text
            .split("\"open_connections\":")
            .nth(1)
            .and_then(|rest| {
                rest.chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
                    .parse::<usize>()
                    .ok()
            })
            .expect("health reports open_connections");
        if open >= HELD {
            break open;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "only {open}/{HELD} connections accepted within 30s"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        open >= 1000,
        "must sustain >=1000 open connections, saw {open}"
    );

    // With >1000 connections parked the server must still serve new
    // arrivals: open connections hold no worker.
    let listing = raw_request(server.addr, "GET", "/api/sessions", "");
    assert_eq!(status_of(&listing), 200);

    // Complete one of the parked requests to prove they are live, not
    // merely accepted-and-forgotten.
    let mut parked = held.pop().unwrap();
    parked
        .write_all(b"P/1.1\r\nHost: sider\r\nConnection: close\r\n\r\n")
        .expect("finish parked request");
    let mut response = Vec::new();
    parked.read_to_end(&mut response).expect("parked response");
    assert_eq!(status_of(&response), 200);

    drop(parked);
    drop(held);
    // After the herd disconnects the fd table must deflate back.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = fd_count();
        if now <= baseline + 8 {
            break;
        }
        if std::time::Instant::now() >= deadline {
            for entry in std::fs::read_dir("/proc/self/fd").unwrap().flatten() {
                let target = std::fs::read_link(entry.path());
                eprintln!("fd {:?} -> {:?}", entry.file_name(), target);
            }
            panic!("fd count stuck at {now} (baseline {baseline}) after disconnect");
        }
    }

    server.stop();
}
