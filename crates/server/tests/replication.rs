//! WAL-shipping replication battery: leader→follower streaming under
//! clean links, flaky links, follower kills, leader kills, and network
//! partitions — every scenario ends with a **byte-identical** transcript
//! between the surviving (promoted) follower and a never-failed twin.
//!
//! The comparison discipline mirrors `recovery.rs`: the reference is a
//! store-less, **unstriped** server that never replicated anything, so
//! these tests simultaneously pin that replication, striping, and
//! durability are all invisible on the wire.

mod common;

#[path = "common/fault.rs"]
mod fault;

use common::*;
use fault::{FaultSchedule, FlakyProxy};
use sider_json::Json;
use sider_server::{Server, ServerConfig};
use sider_store::StoreConfig;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// A replication node: optionally durable, optionally a shipping leader
/// (`ship` = true binds an ephemeral ship port), optionally a follower
/// of `follow`.
fn start_node(
    stripes: usize,
    data_dir: Option<&Path>,
    ship: bool,
    follow: Option<String>,
) -> RunningServer {
    start(ServerConfig {
        store: data_dir.map(StoreConfig::new),
        ship_addr: ship.then(|| "127.0.0.1:0".to_string()),
        follow,
        ..config(1, stripes)
    })
}

fn json_of(raw: &[u8]) -> Json {
    Json::parse(body_of(raw)).unwrap_or_else(|e| panic!("{e}: {}", body_of(raw)))
}

/// The `(id, last_lsn)` rows of a node's `GET /api/store`, in ID order.
fn store_rows(addr: SocketAddr) -> Vec<(String, u64)> {
    let doc = json_of(&raw_request(addr, "GET", "/api/store", ""));
    doc.require_arr("sessions")
        .unwrap_or_else(|e| panic!("{e}: {}", doc.dump()))
        .iter()
        .map(|row| {
            (
                row.require_str("id").unwrap().to_string(),
                row.require_num("last_lsn").unwrap() as u64,
            )
        })
        .collect()
}

/// A number in the `/health` replication block.
fn replication_num(addr: SocketAddr, key: &str) -> u64 {
    let doc = json_of(&raw_request(addr, "GET", "/health", ""));
    doc.path(&format!("replication.{key}"))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("no replication.{key} in {}", doc.dump())) as u64
}

/// Wait until the follower holds exactly what the **leader** holds:
/// every `(id, last_lsn)` row of both nodes' `GET /api/store` equal. The
/// leader's rows are the ground truth — every acknowledged client op is
/// in its WAL before its response is sent — and per-session equality is
/// what promotion needs, at any stripe count.
fn wait_caught_up(tag: &str, leader: SocketAddr, follower: SocketAddr, stripes: usize) {
    let want = store_rows(leader);
    assert!(!want.is_empty(), "{tag}: the leader holds no session");
    let health = json_of(&raw_request(follower, "GET", "/health", ""));
    assert_eq!(
        health.require_num("stripes").unwrap(),
        stripes as f64,
        "{tag}: {}",
        health.dump()
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last = Vec::new();
    while Instant::now() < deadline {
        let raw = raw_request(follower, "GET", "/health", "");
        last = store_rows(follower);
        if body_of(&raw).contains("\"connected\":true") && last == want {
            return;
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    panic!("{tag}: follower never caught up to {want:?}; last rows: {last:?}");
}

/// Promote the follower over HTTP and check the role flips.
fn promote(tag: &str, follower: SocketAddr) {
    let raw = raw_request(follower, "POST", "/api/promote", "");
    assert_eq!(status_of(&raw), 200, "{tag}: {}", body_of(&raw));
    assert!(
        body_of(&raw).contains("\"promoted\":true"),
        "{tag}: {}",
        body_of(&raw)
    );
    let health = raw_request(follower, "GET", "/health", "");
    assert!(
        body_of(&health).contains("\"role\":\"leader\""),
        "{tag}: {}",
        body_of(&health)
    );
}

/// The never-failed reference: a store-less, unstriped server runs the
/// whole script in one life.
fn twin_transcript() -> Vec<Vec<u8>> {
    let twin = start_node(1, None, false, None);
    let mut expected = run_steps(twin.addr, &script_prefix());
    expected.extend(run_steps(twin.addr, &script_suffix()));
    twin.stop();
    expected
}

/// Clean-link failover: leader serves the prefix while a follower
/// replicates it, the leader is killed, the follower is promoted and
/// serves the suffix. Prefix + suffix must equal the twin byte for byte.
fn replicate_and_promote(stripes: usize, tag: &str) -> Vec<Vec<u8>> {
    let leader_dir = temp_dir(&format!("{tag}_leader"));
    let follower_dir = temp_dir(&format!("{tag}_follower"));

    let leader = start_node(stripes, Some(&leader_dir), true, None);
    let follower = start_node(
        stripes,
        Some(&follower_dir),
        false,
        Some(leader.ship_addr().to_string()),
    );
    let mut transcript = run_steps(leader.addr, &script_prefix());
    wait_caught_up(tag, leader.addr, follower.addr, stripes);

    // Kill-leader-then-promote: the follower takes over mid-exploration.
    leader.stop();
    promote(tag, follower.addr);
    transcript.extend(run_steps(follower.addr, &script_suffix()));
    assert_all_ok(tag, &transcript);
    follower.stop();

    assert_transcripts_equal(tag, &transcript, &twin_transcript());
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
    transcript
}

#[test]
fn failover_is_byte_identical_at_stripes_1_and_4() {
    let s1 = replicate_and_promote(1, "clean_s1");
    let s4 = replicate_and_promote(4, "clean_s4");
    // The twin comparison inside each run already pins correctness;
    // comparing the runs pins that the stripe count is invisible even
    // across a failover.
    assert_transcripts_equal("clean 1-vs-4 stripes", &s1, &s4);
}

/// Flaky-link convergence: the follower reaches the leader only through
/// a proxy that splits frames into shreds, injects stalls, and severs
/// the connection on a seeded byte budget — so the stream dies mid-frame
/// over and over, and every reconnect must resume from the follower's
/// last durable LSN. Convergence to a byte-identical transcript *is* the
/// proof that no record was lost, duplicated, or torn into the store.
fn replicate_through_flaky_link(stripes: usize, tag: &str) -> Vec<Vec<u8>> {
    let leader_dir = temp_dir(&format!("{tag}_leader"));
    let follower_dir = temp_dir(&format!("{tag}_follower"));

    let leader = start_node(stripes, Some(&leader_dir), true, None);
    let schedule = FaultSchedule {
        // A small drop budget: the whole script ships only ~1 KiB of
        // records, so the budget must be tiny for the link to actually
        // die mid-stream — and more than once.
        drop_after: 600,
        ..FaultSchedule::flaky()
    };
    let proxy = FlakyProxy::start(leader.ship_addr(), schedule).expect("proxy");
    let follower = start_node(
        stripes,
        Some(&follower_dir),
        false,
        Some(proxy.local_addr().to_string()),
    );

    let mut transcript = run_steps(leader.addr, &script_prefix());
    wait_caught_up(
        &format!("{tag} (prefix)"),
        leader.addr,
        follower.addr,
        stripes,
    );
    transcript.extend(run_steps(leader.addr, &script_suffix()));
    wait_caught_up(
        &format!("{tag} (suffix)"),
        leader.addr,
        follower.addr,
        stripes,
    );
    assert_all_ok(tag, &transcript);
    assert!(
        proxy.drops() >= 1,
        "{tag}: the schedule must actually sever connections (conns={}, bytes={})",
        proxy.conns(),
        proxy.bytes()
    );

    // The follower survived the flaky link; now survive the leader too.
    leader.stop();
    proxy.stop();
    promote(tag, follower.addr);
    let verification = [
        ("GET", "/api/sessions/s1/snapshot", String::new()),
        ("GET", "/api/sessions/s1", String::new()),
    ];
    let got = run_steps(follower.addr, &verification);
    follower.stop();

    let twin = start_node(1, None, false, None);
    let mut expected = run_steps(twin.addr, &script_prefix());
    expected.extend(run_steps(twin.addr, &script_suffix()));
    let expected_tail = run_steps(twin.addr, &verification);
    twin.stop();
    assert_transcripts_equal(tag, &transcript, &expected);
    assert_transcripts_equal(&format!("{tag} (promoted reads)"), &got, &expected_tail);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
    transcript
}

#[test]
fn flaky_link_converges_at_stripes_1_and_4() {
    replicate_through_flaky_link(1, "flaky_s1");
    replicate_through_flaky_link(4, "flaky_s4");
}

/// Kill-follower-mid-stream: the follower dies while records are still
/// flowing, restarts from its data dir, and must resume from what its
/// own store holds — not from zero, and not skipping ahead: the second
/// link ships exactly the ops the follower lacks.
fn kill_follower_mid_stream(stripes: usize, tag: &str) -> Vec<Vec<u8>> {
    let leader_dir = temp_dir(&format!("{tag}_leader"));
    let follower_dir = temp_dir(&format!("{tag}_follower"));

    let leader = start_node(stripes, Some(&leader_dir), true, None);
    let follower = start_node(
        stripes,
        Some(&follower_dir),
        false,
        Some(leader.ship_addr().to_string()),
    );
    let mut transcript = run_steps(leader.addr, &script_prefix());
    wait_caught_up(
        &format!("{tag} (first life)"),
        leader.addr,
        follower.addr,
        stripes,
    );
    let held = store_rows(follower.addr);
    // Die mid-stream, then the leader keeps exploring without a
    // follower attached (its WALs keep everything).
    follower.stop();
    transcript.extend(run_steps(leader.addr, &script_suffix()));
    let lacking: u64 = store_rows(leader.addr)
        .iter()
        .map(|(id, lsn)| {
            let have = held.iter().find(|(h, _)| h == id).map_or(0, |(_, l)| *l);
            lsn - have
        })
        .sum();
    assert!(lacking > 0, "{tag}: the suffix logged nothing");

    // Second life: same data dir, same leader. The hello carries what
    // the follower's store holds; the leader ships only what is missing.
    let follower = start_node(
        stripes,
        Some(&follower_dir),
        false,
        Some(leader.ship_addr().to_string()),
    );
    wait_caught_up(
        &format!("{tag} (second life)"),
        leader.addr,
        follower.addr,
        stripes,
    );
    assert_eq!(
        replication_num(follower.addr, "records"),
        lacking,
        "{tag}: the second link must ship exactly the ops the follower lacks"
    );
    leader.stop();
    promote(tag, follower.addr);

    let verification = [
        ("GET", "/api/sessions/s1/snapshot", String::new()),
        ("GET", "/api/sessions/s1", String::new()),
    ];
    let got = run_steps(follower.addr, &verification);
    follower.stop();
    assert_all_ok(tag, &transcript);

    let twin = start_node(1, None, false, None);
    let mut expected = run_steps(twin.addr, &script_prefix());
    expected.extend(run_steps(twin.addr, &script_suffix()));
    let expected_tail = run_steps(twin.addr, &verification);
    twin.stop();
    assert_transcripts_equal(tag, &transcript, &expected);
    assert_transcripts_equal(&format!("{tag} (promoted reads)"), &got, &expected_tail);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
    transcript
}

#[test]
fn killed_follower_resumes_from_durable_cursor_at_stripes_1_and_4() {
    kill_follower_mid_stream(1, "resume_s1");
    kill_follower_mid_stream(4, "resume_s4");
}

/// Deletes reach the follower by both paths a `remove` can take, and a
/// spent ID survives failover. While the follower is connected, `s2` is
/// created, replicated and deleted: the live walk ships its `remove`.
/// `s3` is replicated, then deleted while the follower is down, and `s4`
/// is created and deleted before it comes back: the hello names `s3`, so
/// the reconnect ships its `remove`, and `s4` never reaches the follower
/// at all, yet its ID is spent. After catch-up and promotion, the
/// follower's session list and its next create (`s5`) must equal a
/// never-failed twin's.
fn deletes_and_burned_ids_survive_failover(stripes: usize, tag: &str) {
    let leader_dir = temp_dir(&format!("{tag}_leader"));
    let follower_dir = temp_dir(&format!("{tag}_follower"));
    let leader = start_node(stripes, Some(&leader_dir), true, None);
    let follow = || {
        start_node(
            stripes,
            Some(&follower_dir),
            false,
            Some(leader.ship_addr().to_string()),
        )
    };
    let create = |seed: u64| {
        (
            "POST",
            "/api/sessions",
            format!(r#"{{"dataset":"fig2","seed":{seed}}}"#),
        )
    };
    let holds = |addr, id: &str| store_rows(addr).iter().any(|(row, _)| row == id);
    let follower = follow();
    let mut steps = script_prefix();
    let mut transcript = run_steps(leader.addr, &steps);

    // Live: s2 reaches the follower, then its delete does.
    let step = [create(9)];
    transcript.extend(run_steps(leader.addr, &step));
    steps.extend(step);
    wait_caught_up(&format!("{tag} (s2)"), leader.addr, follower.addr, stripes);
    assert!(holds(follower.addr, "s2"), "{tag}: s2 never replicated");
    let step = [("DELETE", "/api/sessions/s2", String::new()), create(10)];
    transcript.extend(run_steps(leader.addr, &step));
    steps.extend(step);
    wait_caught_up(
        &format!("{tag} (s2 deleted live)"),
        leader.addr,
        follower.addr,
        stripes,
    );
    assert!(!holds(follower.addr, "s2"), "{tag}: s2 outlived its delete");
    assert!(holds(follower.addr, "s3"), "{tag}: s3 never replicated");
    assert_eq!(
        replication_num(follower.addr, "reconnects"),
        0,
        "{tag}: the live delete must not need a reconnect"
    );

    // Down: s3's delete and all of s4 happen while the follower is away.
    follower.stop();
    let step = [
        ("DELETE", "/api/sessions/s3", String::new()),
        create(11),
        ("DELETE", "/api/sessions/s4", String::new()),
    ];
    transcript.extend(run_steps(leader.addr, &step));
    steps.extend(step);
    let follower = follow();
    wait_caught_up(
        &format!("{tag} (second life)"),
        leader.addr,
        follower.addr,
        stripes,
    );
    assert!(!holds(follower.addr, "s3"), "{tag}: s3 outlived its delete");
    assert_eq!(
        replication_num(follower.addr, "records"),
        1,
        "{tag}: the second link ships s3's remove and nothing else"
    );
    leader.stop();
    promote(tag, follower.addr);
    let step = [
        ("GET", "/api/sessions", String::new()),
        create(12),
        ("GET", "/api/sessions", String::new()),
    ];
    transcript.extend(run_steps(follower.addr, &step));
    steps.extend(step);
    follower.stop();
    assert_all_ok(tag, &transcript);

    let twin = start_node(1, None, false, None);
    let expected = run_steps(twin.addr, &steps);
    twin.stop();
    let minted = &expected[expected.len() - 2];
    assert!(
        body_of(minted).contains("\"id\":\"s5\""),
        "{}",
        body_of(minted)
    );
    assert_transcripts_equal(tag, &transcript, &expected);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

#[test]
fn deletes_and_burned_ids_survive_failover_at_stripes_1_and_4() {
    deletes_and_burned_ids_survive_failover(1, "deletes_s1");
    deletes_and_burned_ids_survive_failover(4, "deletes_s4");
}

/// A follower that holds more of a session than the leader has diverged
/// (say, the leader lost acknowledged ops to a machine crash under
/// `fsync=never`). The link must break with a message naming the
/// session, and the follower's history must stay as it was.
#[test]
fn follower_ahead_of_its_leader_breaks_the_link() {
    let first_dir = temp_dir("ahead_first");
    let second_dir = temp_dir("ahead_second");
    let follower_dir = temp_dir("ahead_follower");
    let first = start_node(1, Some(&first_dir), true, None);
    let follower = start_node(
        1,
        Some(&follower_dir),
        false,
        Some(first.ship_addr().to_string()),
    );
    run_steps(first.addr, &script_prefix());
    wait_caught_up("ahead", first.addr, follower.addr, 1);
    let held = store_rows(follower.addr);
    follower.stop();
    first.stop();

    // A second leader whose s1 holds only its create.
    let second = start_node(1, Some(&second_dir), true, None);
    assert_all_ok("ahead", &run_steps(second.addr, &script_prefix()[..1]));
    let follower = start_node(
        1,
        Some(&follower_dir),
        false,
        Some(second.ship_addr().to_string()),
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    let broken = loop {
        let health = json_of(&raw_request(follower.addr, "GET", "/health", ""));
        if let Some(msg) = health.path("replication.broken").and_then(Json::as_str) {
            break msg.to_string();
        }
        assert!(
            Instant::now() < deadline,
            "ahead: link never broke: {}",
            health.dump()
        );
        std::thread::sleep(Duration::from_millis(30));
    };
    assert!(broken.contains("s1"), "ahead: {broken}");
    assert_eq!(
        store_rows(follower.addr),
        held,
        "ahead: follower history moved"
    );
    follower.stop();
    second.stop();
    for dir in [first_dir, second_dir, follower_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Network partition: the link drops entirely while the leader keeps
/// serving clients (it must never block on a dead follower), then heals;
/// the follower reconnects through its backoff loop and converges.
fn partition_and_heal(stripes: usize, tag: &str) {
    let leader_dir = temp_dir(&format!("{tag}_leader"));
    let follower_dir = temp_dir(&format!("{tag}_follower"));

    let leader = start_node(stripes, Some(&leader_dir), true, None);
    let proxy = FlakyProxy::start(leader.ship_addr(), FaultSchedule::clean()).expect("proxy");
    let follower = start_node(
        stripes,
        Some(&follower_dir),
        false,
        Some(proxy.local_addr().to_string()),
    );
    let mut transcript = run_steps(leader.addr, &script_prefix());
    wait_caught_up(
        &format!("{tag} (pre-partition)"),
        leader.addr,
        follower.addr,
        stripes,
    );

    // Partition. The leader serves the whole suffix with the follower
    // unreachable — every response must still arrive promptly.
    proxy.partition();
    transcript.extend(run_steps(leader.addr, &script_suffix()));
    assert_all_ok(&format!("{tag} (during partition)"), &transcript);
    // Give the follower time to hit the dead link and start backing off.
    std::thread::sleep(Duration::from_millis(200));

    proxy.heal();
    wait_caught_up(
        &format!("{tag} (healed)"),
        leader.addr,
        follower.addr,
        stripes,
    );
    leader.stop();
    proxy.stop();
    promote(tag, follower.addr);
    let verification = [
        ("GET", "/api/sessions/s1/snapshot", String::new()),
        ("GET", "/api/sessions/s1", String::new()),
    ];
    let got = run_steps(follower.addr, &verification);
    follower.stop();

    let twin = start_node(1, None, false, None);
    let mut expected = run_steps(twin.addr, &script_prefix());
    expected.extend(run_steps(twin.addr, &script_suffix()));
    let expected_tail = run_steps(twin.addr, &verification);
    twin.stop();
    assert_transcripts_equal(tag, &transcript, &expected);
    assert_transcripts_equal(&format!("{tag} (promoted reads)"), &got, &expected_tail);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

#[test]
fn partition_heals_and_leader_never_blocks_at_stripes_1_and_4() {
    partition_and_heal(1, "partition_s1");
    partition_and_heal(4, "partition_s4");
}

#[test]
fn follower_is_read_only_until_promoted() {
    let leader_dir = temp_dir("ro_leader");
    let follower_dir = temp_dir("ro_follower");
    let leader = start_node(1, Some(&leader_dir), true, None);
    let follower = start_node(
        1,
        Some(&follower_dir),
        false,
        Some(leader.ship_addr().to_string()),
    );
    run_steps(leader.addr, &script_prefix());
    wait_caught_up("read-only", leader.addr, follower.addr, 1);

    // Mutations are refused with 409 and a pointer at the leader…
    for (method, path, body) in [
        ("POST", "/api/sessions", r#"{"dataset":"fig2","seed":1}"#),
        ("POST", "/api/sessions/s1/update", "{}"),
        ("POST", "/api/sessions/s1/knowledge", r#"{"kind":"margin"}"#),
        ("POST", "/api/sessions/s1/checkpoint", ""),
        ("DELETE", "/api/sessions/s1", ""),
    ] {
        let raw = raw_request(follower.addr, method, path, body);
        assert_eq!(status_of(&raw), 409, "{method} {path}: {}", body_of(&raw));
        assert!(
            body_of(&raw).contains("read-only follower"),
            "{method} {path}: {}",
            body_of(&raw)
        );
    }

    // …while reads — including the *computed* next-view, served from a
    // scratch clone so the real session's RNG never advances — match the
    // leader's state exactly.
    let leader_snapshot = raw_request(leader.addr, "GET", "/api/sessions/s1/snapshot", "");
    let follower_snapshot = raw_request(follower.addr, "GET", "/api/sessions/s1/snapshot", "");
    assert_transcripts_equal(
        "follower snapshot",
        std::slice::from_ref(&leader_snapshot),
        &[follower_snapshot],
    );
    let view_a = raw_request(
        follower.addr,
        "POST",
        "/api/sessions/s1/view",
        r#"{"method":"pca"}"#,
    );
    assert_eq!(status_of(&view_a), 200, "{}", body_of(&view_a));
    // Served twice, the scratch-clone view is identical — proof the
    // follower session did not mutate.
    let view_b = raw_request(
        follower.addr,
        "POST",
        "/api/sessions/s1/view",
        r#"{"method":"pca"}"#,
    );
    assert_transcripts_equal("idempotent follower view", &[view_a], &[view_b]);
    let after = raw_request(follower.addr, "GET", "/api/sessions/s1/snapshot", "");
    assert_transcripts_equal("snapshot unchanged", &[leader_snapshot], &[after]);

    // The health and store reports expose the follower role, and its
    // applied sums equal the leader's shipped sums.
    let health = raw_request(follower.addr, "GET", "/health", "");
    let health_body = body_of(&health);
    assert!(
        health_body.contains("\"role\":\"follower\""),
        "{health_body}"
    );
    assert!(health_body.contains("\"leader\":"), "{health_body}");
    let store = raw_request(follower.addr, "GET", "/api/store", "");
    assert!(
        body_of(&store).contains("\"role\":\"follower\""),
        "{}",
        body_of(&store)
    );
    let leader_health = json_of(&raw_request(leader.addr, "GET", "/health", ""));
    assert_eq!(
        json_of(&health).path("replication.applied").map(Json::dump),
        leader_health.path("replication.shipped").map(Json::dump),
        "{health_body}"
    );
    // The leader's health names its follower.
    let leader_health = raw_request(leader.addr, "GET", "/health", "");
    assert!(
        body_of(&leader_health).contains("\"role\":\"leader\""),
        "{}",
        body_of(&leader_health)
    );
    assert!(
        body_of(&leader_health).contains("\"followers\":[{"),
        "{}",
        body_of(&leader_health)
    );

    leader.stop();
    promote("read-only", follower.addr);
    // Writes flow after promotion.
    let raw = raw_request(follower.addr, "POST", "/api/sessions/s1/update", "{}");
    assert_eq!(status_of(&raw), 200, "{}", body_of(&raw));
    // A second promote is a 409: already the leader.
    let raw = raw_request(follower.addr, "POST", "/api/promote", "");
    assert_eq!(status_of(&raw), 409, "{}", body_of(&raw));
    follower.stop();
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

/// Guided exploration on a replicated pair: the recommendation engine is
/// a pure read (request-seeded RNG, no session mutation, nothing in the
/// WAL), so a caught-up follower must serve the **exact** suggest bytes
/// the leader serves — while every mutating endpoint stays refused.
/// Returns the leader's suggest response for cross-stripe comparison.
fn suggest_on_pair(stripes: usize, tag: &str) -> Vec<u8> {
    let leader_dir = temp_dir(&format!("{tag}_leader"));
    let follower_dir = temp_dir(&format!("{tag}_follower"));
    let leader = start_node(stripes, Some(&leader_dir), true, None);
    let follower = start_node(
        stripes,
        Some(&follower_dir),
        false,
        Some(leader.ship_addr().to_string()),
    );
    let transcript = run_steps(leader.addr, &script_prefix());
    assert_all_ok(tag, &transcript);
    wait_caught_up(tag, leader.addr, follower.addr, stripes);

    let request = r#"{"seed":2018,"batch":64,"k":8}"#;
    let on_leader = raw_request(leader.addr, "POST", "/api/sessions/s1/suggest", request);
    assert_eq!(status_of(&on_leader), 200, "{tag}: {}", body_of(&on_leader));
    assert!(
        body_of(&on_leader).contains("\"suggestions\":"),
        "{tag}: {}",
        body_of(&on_leader)
    );
    let on_follower = raw_request(follower.addr, "POST", "/api/sessions/s1/suggest", request);
    assert_transcripts_equal(
        tag,
        std::slice::from_ref(&on_leader),
        std::slice::from_ref(&on_follower),
    );
    // Served twice on the follower, the bytes repeat: the engine drew
    // nothing from the session RNG and mutated nothing.
    let again = raw_request(follower.addr, "POST", "/api/sessions/s1/suggest", request);
    assert_transcripts_equal(
        &format!("{tag} idempotent"),
        std::slice::from_ref(&on_follower),
        std::slice::from_ref(&again),
    );
    // Suggest did not crack the read-only door open: mutations are
    // still refused after the follower served recommendations.
    for (method, path, body) in [
        ("POST", "/api/sessions", r#"{"dataset":"fig2","seed":1}"#),
        ("POST", "/api/sessions/s1/update", "{}"),
        ("POST", "/api/sessions/s1/knowledge", r#"{"kind":"margin"}"#),
        ("DELETE", "/api/sessions/s1", ""),
    ] {
        let raw = raw_request(follower.addr, method, path, body);
        assert_eq!(
            status_of(&raw),
            409,
            "{tag}: {method} {path}: {}",
            body_of(&raw)
        );
    }

    follower.stop();
    leader.stop();
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
    on_leader
}

#[test]
fn suggest_byte_identical_on_leader_and_caught_up_follower() {
    let s1 = suggest_on_pair(1, "suggest_s1");
    let s4 = suggest_on_pair(4, "suggest_s4");
    // Each run already pins leader == follower; comparing across runs
    // pins that the stripe count is invisible to the recommendation
    // bytes as well.
    assert_transcripts_equal(
        "suggest 1-vs-4 stripes",
        std::slice::from_ref(&s1),
        std::slice::from_ref(&s4),
    );
}

#[test]
fn replica_marker_blocks_plain_restart() {
    let leader_dir = temp_dir("marker_leader");
    let follower_dir = temp_dir("marker_follower");
    let leader = start_node(1, Some(&leader_dir), true, None);
    let follower = start_node(
        1,
        Some(&follower_dir),
        false,
        Some(leader.ship_addr().to_string()),
    );
    run_steps(leader.addr, &script_prefix());
    wait_caught_up("marker", leader.addr, follower.addr, 1);
    follower.stop();

    // A replica data dir refuses to serve as a plain leader: silently
    // coming up writable would fork history from the real leader.
    let err = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store: Some(StoreConfig::new(&follower_dir)),
        ..ServerConfig::default()
    })
    .expect_err("replica dir must not bind as a plain leader");
    assert!(err.to_string().contains("replica"), "{err}");

    // --promote at bind time clears the marker and takes over.
    let promoted = start(ServerConfig {
        store: Some(StoreConfig::new(&follower_dir)),
        promote: true,
        ..config(1, 1)
    });
    let raw = raw_request(promoted.addr, "POST", "/api/sessions/s1/update", "{}");
    assert_eq!(status_of(&raw), 200, "{}", body_of(&raw));
    promoted.stop();

    // The marker is gone: a plain restart now works.
    let plain = start_node(1, Some(&follower_dir), false, None);
    let raw = raw_request(plain.addr, "GET", "/health", "");
    assert!(
        body_of(&raw).contains("\"role\":\"leader\""),
        "{}",
        body_of(&raw)
    );
    plain.stop();

    leader.stop();
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

#[test]
fn promote_clears_the_marker_of_a_flat_dir_named_like_a_stripe() {
    // A one-stripe follower serves a flat data dir; naming it `stripe-a`
    // must not send promote looking for the marker in the parent dir.
    let leader_dir = temp_dir("stripe_named_leader");
    let parent = temp_dir("stripe_named");
    let follower_dir = parent.join("stripe-a");
    let leader = start_node(1, Some(&leader_dir), true, None);
    let follower = start_node(
        1,
        Some(&follower_dir),
        false,
        Some(leader.ship_addr().to_string()),
    );
    run_steps(leader.addr, &script_prefix());
    wait_caught_up("stripe-named", leader.addr, follower.addr, 1);
    leader.stop();
    promote("stripe-named", follower.addr);
    follower.stop();
    assert!(
        !sider_store::ship::marker_path(&follower_dir).exists(),
        "promote left the replica marker in place"
    );

    // The promoted dir restarts as a plain leader, without --promote.
    let plain = Server::bind(ServerConfig {
        store: Some(StoreConfig::new(&follower_dir)),
        ..config(1, 1)
    })
    .unwrap_or_else(|e| panic!("a promoted dir must bind as a plain leader: {e}"));
    drop(plain);

    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&parent);
}
