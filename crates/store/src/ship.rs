//! The replication wire: the length-prefixed frames a leader and its
//! followers speak over TCP, and the follower's role marker.
//!
//! Replication keeps no history of its own. A leader ships each
//! session's checkpoint and WAL ops, read from the store's own files
//! ([`Store::history_since`](crate::Store::history_since)), and a
//! follower's own store is its resume cursor: the `last_lsn` of every
//! open session log ([`Store::horizons`](crate::Store::horizons)).
//!
//! ```text
//! <data-dir>/replica.json  # follower role marker: {"leader":addr}
//! ```
//!
//! Frames reuse the WAL framing (`len | crc32 | payload`, [`wal`]
//! module); the payload is one JSON object dispatched on `"type"`:
//!
//! * `hello` (follower → leader): format, version, stripe count and the
//!   follower's per-session horizons `[[id, last_lsn], …]`;
//! * `welcome` / `error`: the leader's handshake verdict. `welcome` pins
//!   the heartbeat interval and announces the leader's `next_id` and
//!   per-stripe `shipped` sums of `last_lsn`;
//! * `record`: one [`ShipRecord`] — a logged op, a `checkpoint` document
//!   for a follower below the leader's compaction point, or a `remove`;
//! * `heartbeat`: the same `next_id` and `shipped` announcement, sent
//!   after each batch of records and once a second on an idle link; it
//!   doubles as the follower's liveness deadline.
//!
//! A frame that fails CRC or length validation is a **torn frame**: the
//! receiver drops the connection and the follower reconnects with the
//! horizons its store holds, so nothing is applied twice or skipped.

use crate::{wal, write_atomic};
use sider_json::Json;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Handshake format tag (the `hello` frame's `format` field).
pub const SHIP_FORMAT: &str = "sider-ship";

/// Wire protocol version pinned by the handshake. Version 2 ships from
/// the WALs against per-session horizons.
pub const SHIP_VERSION: f64 = 2.0;

/// File name of the follower role marker at the data-dir root.
pub const MARKER_FILE: &str = "replica.json";

/// Default leader heartbeat interval (announced in `welcome`).
pub const DEFAULT_HEARTBEAT_MS: u64 = 1000;

/// Reconnect backoff base (first retry) — see [`backoff`].
pub const BACKOFF_BASE_MS: u64 = 50;

/// Reconnect backoff ceiling — see [`backoff`].
pub const BACKOFF_CAP_MS: u64 = 2000;

/// Why a ship-protocol read failed.
#[derive(Debug)]
pub enum ShipError {
    /// Socket/file failure (including read-deadline timeouts).
    Io(std::io::Error),
    /// A frame failed validation: short header, oversized length, short
    /// payload, or CRC mismatch. The stream cannot be trusted past this
    /// point — drop the connection and reconnect.
    Torn(String),
    /// A structurally valid frame carried a payload the protocol does
    /// not understand.
    Protocol(String),
}

impl std::fmt::Display for ShipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShipError::Io(e) => write!(f, "ship i/o: {e}"),
            ShipError::Torn(m) => write!(f, "ship torn frame: {m}"),
            ShipError::Protocol(m) => write!(f, "ship protocol: {m}"),
        }
    }
}

impl From<std::io::Error> for ShipError {
    fn from(e: std::io::Error) -> Self {
        ShipError::Io(e)
    }
}

/// One shipped record, as the follower reads it (see [`record`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShipRecord {
    /// Numeric session ID the record belongs to.
    pub session: u64,
    /// Session-local LSN of the op (0 for `remove`).
    pub lsn: u64,
    /// Op kind string (`create`/`knowledge`/… or `checkpoint`/`remove`).
    pub op: String,
    /// The op body exactly as logged.
    pub body: Json,
}

/// The wire `record` frame payload of one shipped record. `op` is a WAL
/// [`OpKind`](crate::ops::OpKind) string for logged ops, or one of two
/// replication kinds: `"checkpoint"` (`body` is the checkpoint document,
/// `lsn` its `last_lsn` — shipped when the follower is below the
/// leader's compaction point) and `"remove"` (the leader no longer has
/// the session; `lsn` 0, `body` null).
pub fn record(session: u64, lsn: u64, op: &str, body: Json) -> String {
    Json::obj([
        ("body", body),
        ("lsn", Json::from(lsn)),
        ("op", Json::from(op)),
        ("session", Json::from(session)),
        ("type", Json::from("record")),
    ])
    .dump()
}

impl ShipRecord {
    /// Parse a wire `record` frame.
    pub fn from_json(json: &Json) -> Result<ShipRecord, String> {
        let num = |key: &str| {
            json.get(key)
                .and_then(uint)
                .ok_or_else(|| format!("ship record: bad or missing {key}"))
        };
        Ok(ShipRecord {
            session: num("session")?,
            lsn: num("lsn")?,
            op: json
                .require_str("op")
                .map_err(|e| format!("ship record: {e}"))?
                .to_string(),
            body: json.get("body").cloned().unwrap_or(Json::Null),
        })
    }
}

/// A JSON number that is a non-negative integer.
fn uint(v: &Json) -> Option<u64> {
    v.as_num()
        .filter(|n| n.is_finite() && *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as u64)
}

fn uints(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::from(v)).collect())
}

/// Write one framed wire message (`len | crc | payload`) and flush.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    w.write_all(&wal::frame(payload.as_bytes()))?;
    w.flush()
}

/// Read one framed wire message, validating length and CRC. An invalid
/// frame is [`ShipError::Torn`] — the caller must drop the connection.
pub fn read_frame(r: &mut impl Read) -> Result<Json, ShipError> {
    let mut header = [0u8; wal::FRAME_HEADER_BYTES];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > wal::MAX_RECORD_BYTES {
        return Err(ShipError::Torn(format!("oversized frame ({len} bytes)")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if wal::crc32(&payload) != crc {
        return Err(ShipError::Torn("frame crc mismatch".into()));
    }
    let text = std::str::from_utf8(&payload)
        .map_err(|_| ShipError::Protocol("frame payload is not utf-8".into()))?;
    Json::parse(text).map_err(|e| ShipError::Protocol(format!("frame payload: {e}")))
}

/// Build the follower's `hello` handshake frame from its per-session
/// `(id, last_lsn)` horizons.
pub fn hello(stripes: usize, horizons: &[(u64, u64)]) -> String {
    Json::obj([
        ("format", Json::from(SHIP_FORMAT)),
        (
            "horizons",
            Json::Arr(
                horizons
                    .iter()
                    .map(|&(id, lsn)| uints(&[id, lsn]))
                    .collect(),
            ),
        ),
        ("stripes", Json::from(stripes)),
        ("type", Json::from("hello")),
        ("version", Json::from(SHIP_VERSION)),
    ])
    .dump()
}

/// Extract the `[[id, last_lsn], …]` horizons of a `hello` frame.
pub fn parse_horizons(hello: &Json) -> Result<Vec<(u64, u64)>, String> {
    hello
        .require_arr("horizons")
        .map_err(|e| e.to_string())?
        .iter()
        .map(|pair| match pair.as_arr() {
            Some([id, lsn]) => uint(id).zip(uint(lsn)),
            _ => None,
        })
        .map(|pair| pair.ok_or_else(|| "bad horizon entry (want [id, last_lsn])".to_string()))
        .collect()
}

/// Build the leader's `welcome` handshake frame.
pub fn welcome(stripes: usize, heartbeat_ms: u64, next_id: u64, shipped: &[u64]) -> String {
    Json::obj([
        ("heartbeat_ms", Json::from(heartbeat_ms)),
        ("next_id", Json::from(next_id)),
        ("shipped", uints(shipped)),
        ("stripes", Json::from(stripes)),
        ("type", Json::from("welcome")),
    ])
    .dump()
}

/// Build a `heartbeat` frame.
pub fn heartbeat(next_id: u64, shipped: &[u64]) -> String {
    Json::obj([
        ("next_id", Json::from(next_id)),
        ("shipped", uints(shipped)),
        ("type", Json::from("heartbeat")),
    ])
    .dump()
}

/// Extract the leader's announcement from a `welcome` or `heartbeat`:
/// its `next_id` and its per-stripe `shipped` sums of `last_lsn`.
pub fn parse_announce(msg: &Json, stripes: usize) -> Result<(u64, Vec<u64>), String> {
    let next_id = msg
        .get("next_id")
        .and_then(uint)
        .ok_or("bad or missing next_id")?;
    let shipped: Vec<u64> = msg
        .require_arr("shipped")
        .map_err(|e| e.to_string())?
        .iter()
        .map(|v| uint(v).ok_or("bad shipped entry"))
        .collect::<Result<_, _>>()?;
    if shipped.len() != stripes {
        return Err(format!(
            "expected {stripes} shipped sums, got {}",
            shipped.len()
        ));
    }
    Ok((next_id, shipped))
}

/// Build the leader's error frame (handshake rejection or divergence).
pub fn error_frame(message: &str) -> String {
    Json::obj([
        ("error", Json::from(message)),
        ("type", Json::from("error")),
    ])
    .dump()
}

/// Path of the follower role marker for a data-dir root.
pub fn marker_path(root: &Path) -> PathBuf {
    root.join(MARKER_FILE)
}

/// Write the follower role marker: this data dir replays `leader` and
/// must not be served as a leader without `--promote`.
pub fn write_marker(root: &Path, leader: &str) -> std::io::Result<()> {
    let doc = Json::obj([
        ("format", Json::from("sider-replica")),
        ("leader", Json::from(leader)),
    ]);
    write_atomic(&marker_path(root), format!("{}\n", doc.dump()).as_bytes())
}

/// Read the follower role marker, returning the leader address.
pub fn read_marker(root: &Path) -> Option<String> {
    let text = std::fs::read_to_string(marker_path(root)).ok()?;
    let json = Json::parse(&text).ok()?;
    json.get("leader")
        .and_then(Json::as_str)
        .map(str::to_string)
}

/// Capped exponential reconnect backoff with deterministic jitter: the
/// delay for `attempt` (0-based) doubles from [`BACKOFF_BASE_MS`] up to
/// [`BACKOFF_CAP_MS`], plus a jitter in `[0, BACKOFF_BASE_MS)` that is a
/// pure function of `(seed, attempt)` — reproducible under test, yet
/// de-synchronized across followers with different seeds.
pub fn backoff(attempt: u32, seed: u64) -> Duration {
    let exp = BACKOFF_BASE_MS << attempt.min(6);
    let capped = exp.min(BACKOFF_CAP_MS);
    // SplitMix64-style finalizer over (seed, attempt).
    let mut h = seed ^ (attempt as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    Duration::from_millis(capped + h % BACKOFF_BASE_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_wire_roundtrips() {
        let rec = ShipRecord {
            session: 7,
            lsn: 3,
            op: "knowledge".into(),
            body: Json::parse(r#"{"kind":"cluster","rows":[1,2,3]}"#).unwrap(),
        };
        let msg = Json::parse(&record(7, 3, "knowledge", rec.body.clone())).unwrap();
        assert_eq!(msg.require_str("type").unwrap(), "record");
        assert_eq!(ShipRecord::from_json(&msg).unwrap(), rec);
    }

    #[test]
    fn handshake_frames_roundtrip_and_reject_bad_entries() {
        let hello = Json::parse(&hello(4, &[(1, 5), (6, 2)])).unwrap();
        assert_eq!(parse_horizons(&hello).unwrap(), [(1, 5), (6, 2)]);
        let bad = Json::parse(r#"{"horizons":[[1,5],[2]]}"#).unwrap();
        assert!(parse_horizons(&bad).is_err());
        let welcome = Json::parse(&welcome(2, 1000, 9, &[5, 6])).unwrap();
        assert_eq!(parse_announce(&welcome, 2).unwrap(), (9, vec![5, 6]));
        assert!(parse_announce(&welcome, 3).is_err());
        let beat = Json::parse(&heartbeat(4, &[1])).unwrap();
        assert_eq!(parse_announce(&beat, 1).unwrap(), (4, vec![1]));
    }

    #[test]
    fn frames_roundtrip_and_torn_frames_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &hello(4, &[(1, 2)])).unwrap();
        write_frame(&mut buf, &heartbeat(3, &[9, 9, 9, 9])).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().require_str("type").unwrap(),
            "hello"
        );
        assert_eq!(
            read_frame(&mut r).unwrap().require_str("type").unwrap(),
            "heartbeat"
        );

        // A flipped payload byte is a torn frame, not a parse error.
        let mut damaged = Vec::new();
        write_frame(&mut damaged, &error_frame("x")).unwrap();
        damaged[wal::FRAME_HEADER_BYTES] ^= 0x20;
        assert!(matches!(
            read_frame(&mut &damaged[..]),
            Err(ShipError::Torn(_))
        ));
        // A frame cut mid-payload (killed mid-record) is an Io error —
        // the reconnect path, not a protocol failure.
        let mut cut = Vec::new();
        write_frame(&mut cut, &error_frame("y")).unwrap();
        cut.truncate(cut.len() - 3);
        assert!(matches!(read_frame(&mut &cut[..]), Err(ShipError::Io(_))));
    }

    #[test]
    fn marker_roundtrips() {
        let dir =
            std::env::temp_dir().join(format!("sider_ship_test_{}_marker", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(read_marker(&dir), None);
        write_marker(&dir, "127.0.0.1:7007").unwrap();
        assert_eq!(read_marker(&dir).as_deref(), Some("127.0.0.1:7007"));
        std::fs::remove_file(marker_path(&dir)).unwrap();
        assert_eq!(read_marker(&dir), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_is_capped_exponential_with_deterministic_jitter() {
        // Deterministic: same (seed, attempt) → same delay.
        assert_eq!(backoff(3, 42), backoff(3, 42));
        // Jitter varies with the seed.
        assert_ne!(backoff(3, 1), backoff(3, 2));
        let base = Duration::from_millis(BACKOFF_BASE_MS);
        let cap = Duration::from_millis(BACKOFF_CAP_MS);
        // Monotone envelope: each step's floor doubles until the cap.
        for attempt in 0..12u32 {
            let d = backoff(attempt, 7);
            let floor =
                Duration::from_millis((BACKOFF_BASE_MS << attempt.min(6)).min(BACKOFF_CAP_MS));
            assert!(d >= floor && d < floor + base, "attempt {attempt}: {d:?}");
            assert!(d < cap + base);
        }
    }
}
