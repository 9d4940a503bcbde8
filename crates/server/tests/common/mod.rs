//! The harness the server suites share: a server on an ephemeral port,
//! one-shot HTTP requests over TCP, the exploration script the recovery
//! and replication batteries split at their kill or failover point, and
//! the transcript assertions.

// Each suite compiles this module on its own and uses part of it.
#![allow(dead_code)]

use sider_json::Json;
use sider_server::{Server, ServerConfig, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// A server bound on an ephemeral port, running on its own thread.
pub struct RunningServer {
    pub addr: SocketAddr,
    ship: Option<SocketAddr>,
    handle: ShutdownHandle,
    joiner: std::thread::JoinHandle<std::io::Result<()>>,
}

/// The suites' server settings: an ephemeral port, 16 sessions, an hour
/// of idle time, and `threads` pool threads on each of `stripes` stripes.
pub fn config(threads: usize, stripes: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_sessions: 16,
        idle_timeout: Duration::from_secs(3600),
        threads: Some(threads),
        stripes,
        ..ServerConfig::default()
    }
}

/// Bind `config` and serve it on a thread.
pub fn start(config: ServerConfig) -> RunningServer {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let ship = server.ship_addr();
    let handle = server.shutdown_handle();
    let joiner = std::thread::spawn(move || server.run());
    RunningServer {
        addr,
        ship,
        handle,
        joiner,
    }
}

impl RunningServer {
    /// The replication listener of a shipping leader.
    pub fn ship_addr(&self) -> SocketAddr {
        self.ship.expect("node has no ship listener")
    }

    /// Stop the server and join its thread. Every op reaches the WAL
    /// before its response is sent and nothing is persisted at shutdown,
    /// so to the store this is the same as `kill -9` after the last
    /// acknowledged response.
    pub fn stop(self) {
        self.handle.shutdown();
        self.joiner.join().unwrap().unwrap();
    }
}

/// A fresh scratch directory for this test process.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sider_server_test_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The bytes of one scripted HTTP request.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: sider\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Send `request` on a fresh connection and read the response to EOF.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(request).expect("write request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    response
}

/// One scripted HTTP request; returns the raw response bytes (status
/// line, headers and body — everything the server put on the wire).
pub fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Vec<u8> {
    exchange(addr, &request_bytes(method, path, body))
}

pub fn status_of(raw: &[u8]) -> u16 {
    let text = std::str::from_utf8(&raw[..raw.len().min(64)]).unwrap();
    text.split_whitespace().nth(1).unwrap().parse().unwrap()
}

pub fn body_of(raw: &[u8]) -> &str {
    let pos = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    std::str::from_utf8(&raw[pos + 4..]).expect("utf-8 body")
}

/// The row indices of `range`, comma-separated for a JSON `rows` array.
pub fn rows(range: std::ops::Range<usize>) -> String {
    range.map(|i| i.to_string()).collect::<Vec<_>>().join(",")
}

/// One request of a script: method, path and body.
pub type Step<P> = (&'static str, P, String);

/// The exploration script, split at the kill or failover point. The
/// prefix ends mid-loop — knowledge added and fitted, a view served — and
/// the suffix continues the same warm session, so the surviving server
/// must reproduce the warm solver trajectory *and* the RNG position, not
/// just the knowledge list.
pub fn script_prefix() -> Vec<Step<&'static str>> {
    vec![
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
    ]
}

pub fn script_suffix() -> Vec<Step<&'static str>> {
    vec![
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
        ("POST", "/api/sessions/s1/undo", String::new()),
        ("POST", "/api/sessions/s1/update", "{}".into()),
        (
            "POST",
            "/api/sessions/s1/view",
            r#"{"method":"ica","restarts":2}"#.into(),
        ),
        ("GET", "/api/sessions/s1/snapshot", String::new()),
        ("GET", "/api/sessions/s1", String::new()),
    ]
}

/// Run `steps` over TCP, one connection per step.
pub fn run_steps<P: AsRef<str>>(addr: SocketAddr, steps: &[Step<P>]) -> Vec<Vec<u8>> {
    steps
        .iter()
        .map(|(method, path, body)| raw_request(addr, method, path.as_ref(), body))
        .collect()
}

/// Reply fields documented as nullable: a session's `checkpoint_lsn` in
/// `GET /api/store` is `null` while it has no checkpoint.
const NULLABLE: &[&str] = &["checkpoint_lsn"];

/// The path of the first `null` in a reply outside [`NULLABLE`].
/// `sider_json` writes a non-finite number as `null`, so this is how a
/// NaN, in a fit or a view point alike, reaches a client.
fn null_field(json: &Json) -> Option<String> {
    match json {
        Json::Null => Some(String::new()),
        Json::Obj(map) => map
            .iter()
            .filter(|(key, _)| !NULLABLE.contains(&key.as_str()))
            .find_map(|(key, value)| null_field(value).map(|rest| format!(".{key}{rest}"))),
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .find_map(|(i, item)| null_field(item).map(|rest| format!("[{i}]{rest}"))),
        _ => None,
    }
}

/// Every step answered 200 or 201, and no JSON reply carries a `null`
/// outside the fields documented as nullable.
pub fn assert_all_ok(tag: &str, transcript: &[Vec<u8>]) {
    for (i, raw) in transcript.iter().enumerate() {
        let status = status_of(raw);
        assert!(
            status == 200 || status == 201,
            "{tag}: step {i} failed with {status}: {}",
            body_of(raw)
        );
        if let Ok(json) = Json::parse(body_of(raw)) {
            if let Some(path) = null_field(&json) {
                panic!(
                    "{tag}: step {i} answered {status} with null {path}: {}",
                    body_of(raw)
                );
            }
        }
    }
}

/// Two transcripts equal step for step, byte for byte.
pub fn assert_transcripts_equal(tag: &str, a: &[Vec<u8>], b: &[Vec<u8>]) {
    assert_eq!(a.len(), b.len(), "{tag}: step count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x,
            y,
            "{tag}: step {i} differs:\n{}\nvs\n{}",
            body_of(x),
            body_of(y)
        );
    }
}
