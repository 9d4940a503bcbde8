//! Kill-and-recover end-to-end tests: a server is killed mid-exploration
//! and restarted from its `--data-dir`; the recovered server must serve
//! **byte-identical** responses to a never-restarted twin — the
//! durability twin of the e2e determinism contract.
//!
//! "Killed" here means the process stopped with no flushing of any kind:
//! the server has no shutdown-time persistence hook to skip — every op
//! hits the WAL fd *before* its response is sent (the response is the
//! commit point) — so stopping the server is indistinguishable, from
//! the store's point of view, from `kill -9` after the last acknowledged
//! response.

mod common;

use common::*;
use sider_server::ServerConfig;
use sider_store::StoreConfig;
use std::path::Path;

fn start_striped(threads: usize, stripes: usize, data_dir: Option<&Path>) -> RunningServer {
    common::start(ServerConfig {
        store: data_dir.map(StoreConfig::new),
        ..config(threads, stripes)
    })
}

fn start(threads: usize, data_dir: Option<&Path>) -> RunningServer {
    start_striped(threads, 1, data_dir)
}

fn kill_and_recover(threads: usize, checkpoint_mid_flight: bool, tag: &str) -> Vec<Vec<u8>> {
    kill_and_recover_striped(threads, 1, checkpoint_mid_flight, tag)
}

fn kill_and_recover_striped(
    threads: usize,
    stripes: usize,
    checkpoint_mid_flight: bool,
    tag: &str,
) -> Vec<Vec<u8>> {
    let dir = temp_dir(tag);

    // Durable server: run the prefix, die mid-loop.
    let durable = start_striped(threads, stripes, Some(&dir));
    let mut transcript = run_steps(durable.addr, &script_prefix());
    if checkpoint_mid_flight {
        // Compact the log under the twin's feet; the checkpoint response
        // itself is no part of the compared transcript.
        let raw = raw_request(durable.addr, "POST", "/api/sessions/s1/checkpoint", "");
        assert_eq!(status_of(&raw), 200, "{}", body_of(&raw));
    }
    durable.stop();

    // Restart from the data dir and continue the same session.
    let recovered = start_striped(threads, stripes, Some(&dir));
    transcript.extend(run_steps(recovered.addr, &script_suffix()));

    // Recovered IDs never collide: the next create mints s2, not s1.
    let raw = raw_request(
        recovered.addr,
        "POST",
        "/api/sessions",
        r#"{"dataset":"fig2","seed":1}"#,
    );
    assert_eq!(status_of(&raw), 201);
    assert!(body_of(&raw).contains("\"id\":\"s2\""), "{}", body_of(&raw));
    recovered.stop();

    // The never-restarted, store-less — and always **unstriped** — twin
    // serves the whole script: recovered striped transcripts must be
    // byte-identical to an unstriped server that never died.
    let twin = start(threads, None);
    let mut expected = run_steps(twin.addr, &script_prefix());
    expected.extend(run_steps(twin.addr, &script_suffix()));
    twin.stop();

    assert_all_ok(tag, &transcript);
    assert_transcripts_equal(tag, &transcript, &expected);
    let _ = std::fs::remove_dir_all(&dir);
    transcript
}

#[test]
fn killed_mid_loop_server_recovers_byte_identically() {
    // The acceptance matrix: 1- and 4-thread pools, with and without a
    // checkpoint folded under the kill. All four transcripts must equal
    // their twins — and each other.
    let t1 = kill_and_recover(1, false, "t1");
    let t4 = kill_and_recover(4, false, "t4");
    assert_transcripts_equal("1-vs-4 threads", &t1, &t4);
    let t1cp = kill_and_recover(1, true, "t1cp");
    let t4cp = kill_and_recover(4, true, "t4cp");
    assert_transcripts_equal("1-vs-4 threads (checkpointed)", &t1cp, &t4cp);
    assert_transcripts_equal("checkpoint transparency", &t1, &t1cp);
}

#[test]
fn striped_recovery_is_byte_identical_to_the_unstriped_twin() {
    // The striping acceptance matrix: each run already asserts equality
    // against its own unstriped store-less twin inside
    // `kill_and_recover_striped`; comparing the runs to each other then
    // pins that the stripe count is invisible on the wire — recovered
    // 4-stripe transcripts equal recovered 1-stripe transcripts equal the
    // never-restarted unstriped server, byte for byte.
    let s1 = kill_and_recover_striped(1, 1, false, "s1");
    let s4 = kill_and_recover_striped(1, 4, false, "s4");
    assert_transcripts_equal("1-vs-4 stripes", &s1, &s4);
    let s4cp = kill_and_recover_striped(1, 4, true, "s4cp");
    assert_transcripts_equal("1-vs-4 stripes (checkpointed)", &s1, &s4cp);
}

#[test]
fn torn_wal_tail_recovers_to_last_complete_op() {
    let dir = temp_dir("torn");
    let durable = start(1, Some(&dir));
    run_steps(durable.addr, &script_prefix());
    durable.stop();

    // Simulate a crash mid-append: garbage where the next record starts.
    let wal = dir.join("sessions/s1/wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&99u32.to_le_bytes());
    bytes.extend_from_slice(b"\xde\xad\xbe\xefhalf a record, no valid crc");
    std::fs::write(&wal, &bytes).unwrap();

    let recovered = start(1, Some(&dir));
    // State is exactly the last complete op's: the twin runs the same
    // prefix and both snapshots/details must agree byte for byte.
    let got = [
        raw_request(recovered.addr, "GET", "/api/sessions/s1/snapshot", ""),
        raw_request(recovered.addr, "GET", "/api/sessions/s1", ""),
    ];
    // The store reports the recovery: 5 complete ops survived, none torn.
    let store = raw_request(recovered.addr, "GET", "/api/store", "");
    assert_eq!(status_of(&store), 200);
    assert!(
        body_of(&store).contains("\"last_lsn\":5"),
        "{}",
        body_of(&store)
    );
    recovered.stop();

    let twin = start(1, None);
    run_steps(twin.addr, &script_prefix());
    let expected = [
        raw_request(twin.addr, "GET", "/api/sessions/s1/snapshot", ""),
        raw_request(twin.addr, "GET", "/api/sessions/s1", ""),
    ];
    twin.stop();
    assert_transcripts_equal("torn tail", &got, &expected);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_survives_repeated_restarts_and_deletes() {
    let dir = temp_dir("cycle");
    // Three generations of the same store: create two sessions, delete
    // one, restart, verify, add knowledge, restart again, verify.
    let s = start(2, Some(&dir));
    run_steps(s.addr, &script_prefix());
    let raw = raw_request(
        s.addr,
        "POST",
        "/api/sessions",
        r#"{"dataset":"fig2","seed":9}"#,
    );
    assert!(body_of(&raw).contains("\"id\":\"s2\""));
    let raw = raw_request(s.addr, "DELETE", "/api/sessions/s2", "");
    assert_eq!(status_of(&raw), 200);
    s.stop();

    let s = start(2, Some(&dir));
    let listing = raw_request(s.addr, "GET", "/api/sessions", "");
    assert_eq!(
        body_of(&listing).matches("\"id\":").count(),
        1,
        "{}",
        body_of(&listing)
    );
    let raw = raw_request(
        s.addr,
        "POST",
        "/api/sessions/s1/knowledge",
        r#"{"kind":"margin"}"#,
    );
    assert_eq!(status_of(&raw), 200);
    s.stop();

    let s = start(2, Some(&dir));
    let detail = raw_request(s.addr, "GET", "/api/sessions/s1", "");
    let body = body_of(&detail);
    assert!(body.contains("\"n_knowledge\":2"), "{body}");
    assert!(body.contains("\"dirty\":true"), "{body}");
    s.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
