//! `sider_store` — the durable session store: a per-session write-ahead
//! op-log with checkpoint compaction and crash recovery.
//!
//! The paper's loop accumulates the analyst's *subjective knowledge* —
//! the one thing the system must never forget — yet a `sider_server`
//! process keeps every [`EdaSession`] in memory. This crate persists each
//! session as an **append-only log of wire-format operations** (create,
//! knowledge, update, undo, view, snapshot-replay) so a restarted server
//! rebuilds every session by replay. Because the whole stack is
//! byte-deterministic (the `sider_par` pool contract promoted through the
//! JSON layer), replay does not merely approximate the lost state — it
//! reproduces it **bit for bit**, and the recovered server's responses
//! are byte-identical to those a never-restarted twin would have served.
//!
//! On-disk layout under the store directory:
//!
//! ```text
//! <data-dir>/
//! ├── meta.json              # {"format":"sider-store","next_id":N,…}
//! └── sessions/
//!     └── s3/
//!         ├── wal.log        # length+CRC-framed op records (wal module)
//!         └── checkpoint.json  # compacted prefix (checkpoint module)
//! ```
//!
//! `meta.json` persists the dense session-ID counter so IDs minted after
//! a restart never collide with recovered ones. Appends follow the
//! configured [`FsyncPolicy`]; a torn final WAL record (the crash arrived
//! mid-write) is truncated away on recovery, never fatal. Checkpoints
//! fold the foldable prefix into a `sider_core::wire` snapshot and
//! truncate the log ([`checkpoint`] documents exactly what byte-exactness
//! allows to fold).
//!
//! [`EdaSession`]: sider_core::EdaSession

#![warn(missing_docs)]

pub mod checkpoint;
pub mod ops;
pub mod ship;
pub mod stripes;
pub mod wal;

use checkpoint::Checkpoint;
use ops::{Op, OpKind};
use sider_core::EdaSession;
use sider_json::Json;
use sider_par::ThreadPool;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable naming the store directory (`sider serve
/// --data-dir` overrides).
pub const DATA_DIR_ENV_VAR: &str = "SIDER_DATA_DIR";

/// Environment variable selecting the fsync policy
/// (`always` | `never` | a positive integer _n_ meaning every _n_ ops).
pub const FSYNC_ENV_VAR: &str = "SIDER_FSYNC";

/// Environment variable setting the automatic checkpoint threshold
/// (ops logged since the last checkpoint).
pub const CHECKPOINT_EVERY_ENV_VAR: &str = "SIDER_CHECKPOINT_EVERY";

/// Default automatic checkpoint threshold.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 64;

/// When to `fsync` the WAL after appending a record.
///
/// The write itself always reaches the kernel before the client sees a
/// response — a killed *process* loses nothing under any policy; the
/// policy only decides exposure to a killed *machine*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: an acknowledged op survives power loss.
    Always,
    /// `fsync` every _n_-th record: bounded exposure, amortized cost.
    EveryN(u64),
    /// Never `fsync`: the OS flushes on its own schedule.
    Never,
}

impl FsyncPolicy {
    /// Parse `always` | `never` | a positive integer _n_ (= every _n_ ops).
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.parse::<u64>() {
                Ok(n) if n >= 1 => Ok(FsyncPolicy::EveryN(n)),
                _ => Err(format!(
                    "bad fsync policy '{other}' (always | never | a positive integer)"
                )),
            },
        }
    }

    /// The wire/string form accepted by [`FsyncPolicy::parse`].
    pub fn as_string(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".into(),
            FsyncPolicy::Never => "never".into(),
            FsyncPolicy::EveryN(n) => n.to_string(),
        }
    }
}

/// Configuration of a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Root directory of the store (created if missing).
    pub dir: PathBuf,
    /// When to `fsync` WAL appends.
    pub fsync: FsyncPolicy,
    /// Checkpoint a session automatically once this many ops accumulated
    /// in its WAL since the last checkpoint.
    pub checkpoint_every: u64,
}

impl StoreConfig {
    /// Defaults (`fsync: always`, checkpoint every
    /// [`DEFAULT_CHECKPOINT_EVERY`] ops) for a directory.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        }
    }

    /// Apply `SIDER_FSYNC` / `SIDER_CHECKPOINT_EVERY` overrides.
    pub fn with_env_overrides(mut self) -> Result<Self, String> {
        if let Ok(v) = std::env::var(FSYNC_ENV_VAR) {
            if !v.is_empty() {
                self.fsync = FsyncPolicy::parse(&v)?;
            }
        }
        if let Ok(v) = std::env::var(CHECKPOINT_EVERY_ENV_VAR) {
            if !v.is_empty() {
                self.checkpoint_every = v
                    .parse::<u64>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad {CHECKPOINT_EVERY_ENV_VAR}: {v:?}"))?;
            }
        }
        Ok(self)
    }
}

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// On-disk bytes that should parse did not (a damaged checkpoint or
    /// an unparsable — as opposed to torn — record).
    Corrupt(String),
    /// A logged op failed to re-apply during recovery.
    Replay(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corrupt: {m}"),
            StoreError::Replay(m) => write!(f, "store replay: {m}"),
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Observable per-session persistence state (the `GET /api/store`
/// payload and the `sider store inspect` rows).
#[derive(Debug, Clone)]
pub struct SessionStatus {
    /// Numeric session ID.
    pub id: u64,
    /// LSN of the last durably logged op.
    pub last_lsn: u64,
    /// Ops currently in the WAL (resets to 0 at each checkpoint).
    pub wal_records: u64,
    /// WAL file size in bytes.
    pub wal_bytes: u64,
    /// Checkpoint file size in bytes (0 when none exists).
    pub checkpoint_bytes: u64,
    /// LSN the checkpoint covers up to (`None` when none exists).
    pub checkpoint_lsn: Option<u64>,
}

impl SessionStatus {
    /// JSON form used by the API and the inspect subcommand.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::from(format!("s{}", self.id))),
            ("last_lsn", Json::from(self.last_lsn)),
            ("wal_records", Json::from(self.wal_records)),
            ("wal_bytes", Json::from(self.wal_bytes)),
            ("checkpoint_bytes", Json::from(self.checkpoint_bytes)),
            (
                "checkpoint_lsn",
                self.checkpoint_lsn.map(Json::from).unwrap_or(Json::Null),
            ),
        ])
    }
}

/// How far a reader holds a session's history: its `last_lsn` and,
/// once read from this store, where the ops up to it end — the WAL's
/// first `wal_len` bytes above `checkpoint_lsn` — so the next
/// [`Store::history_since`] reads only what follows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Horizon {
    /// LSN of the last op held.
    pub last_lsn: u64,
    checkpoint_lsn: Option<u64>,
    wal_len: u64,
}

impl Horizon {
    /// A horizon known only by its LSN: the next read starts at the
    /// WAL's first byte.
    pub fn at(last_lsn: u64) -> Horizon {
        Horizon {
            last_lsn,
            ..Horizon::default()
        }
    }
}

/// A session's history above some horizon (see [`Store::history_since`]).
#[derive(Debug, Default)]
pub struct History {
    /// `(last_lsn, document)` of the session's checkpoint, when the
    /// horizon is below it.
    pub checkpoint: Option<(u64, Json)>,
    /// Logged ops above the horizon, in LSN order.
    pub ops: Vec<Op>,
    /// The horizon this read reaches.
    pub reached: Horizon,
}

/// A torn WAL tail truncated during recovery — the record (or records)
/// that were mid-write when the process died. Recovery reports these so
/// operators can see exactly where and how much was cut, instead of the
/// loss being visible only in a transient log line.
#[derive(Debug, Clone)]
pub struct TornTail {
    /// Session whose WAL was truncated.
    pub session: u64,
    /// Byte offset the WAL was truncated to (end of the last valid
    /// record).
    pub offset: u64,
    /// Bytes dropped past the truncation point.
    pub lost_bytes: u64,
}

impl TornTail {
    /// JSON row for the bind-time report and `GET /api/store`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("lost_bytes", Json::from(self.lost_bytes)),
            ("offset", Json::from(self.offset)),
            ("session", Json::from(format!("s{}", self.session))),
        ])
    }
}

/// One session's open log: the WAL file handle plus bookkeeping.
#[derive(Debug)]
struct SessionLog {
    id: u64,
    dir: PathBuf,
    file: File,
    last_lsn: u64,
    wal_records: u64,
    appends_since_sync: u64,
    /// LSN the on-disk checkpoint covers, cached so status queries do
    /// not re-read and re-parse `checkpoint.json` (which can embed a
    /// large folded inline-CSV create) on every `GET /api/store`.
    checkpoint_lsn: Option<u64>,
}

impl SessionLog {
    fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal.log")
    }

    fn checkpoint_path(dir: &Path) -> PathBuf {
        dir.join("checkpoint.json")
    }

    /// Append one framed op record. The payload is serialized straight
    /// from the borrowed body — the op's `{"body":…,"lsn":…,"op":…}`
    /// JSON is assembled textually (keys in `sider_json`'s sorted order)
    /// so the hot write path never deep-clones a potentially 64 MB body.
    fn append(
        &mut self,
        lsn: u64,
        kind: OpKind,
        body: &Json,
        fsync: FsyncPolicy,
    ) -> Result<(), StoreError> {
        let body_text = body.dump();
        let mut payload = String::with_capacity(body_text.len() + 48);
        payload.push_str("{\"body\":");
        payload.push_str(&body_text);
        payload.push_str(",\"lsn\":");
        payload.push_str(&lsn.to_string());
        payload.push_str(",\"op\":\"");
        payload.push_str(kind.as_str());
        payload.push_str("\"}");
        wal::append_record(&mut self.file, payload.as_bytes())?;
        self.last_lsn = lsn;
        self.wal_records += 1;
        self.appends_since_sync += 1;
        let due = match fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.appends_since_sync >= n,
            FsyncPolicy::Never => false,
        };
        if due {
            self.file.sync_data()?;
            self.appends_since_sync = 0;
        }
        Ok(())
    }

    /// Where the log stands: the horizon of a reader holding all of it.
    fn position(&self) -> Result<Horizon, StoreError> {
        Ok(Horizon {
            last_lsn: self.last_lsn,
            checkpoint_lsn: self.checkpoint_lsn,
            wal_len: self.file.metadata()?.len(),
        })
    }

    fn status(&self) -> SessionStatus {
        let dir = &self.dir;
        SessionStatus {
            id: self.id,
            last_lsn: self.last_lsn,
            wal_records: self.wal_records,
            wal_bytes: std::fs::metadata(Self::wal_path(dir))
                .map(|m| m.len())
                .unwrap_or(0),
            checkpoint_bytes: match self.checkpoint_lsn {
                Some(_) => std::fs::metadata(Self::checkpoint_path(dir))
                    .map(|m| m.len())
                    .unwrap_or(0),
                None => 0,
            },
            checkpoint_lsn: self.checkpoint_lsn,
        }
    }
}

/// The checkpoint document of a session directory, parsed but not
/// interpreted (`None` when there is none).
fn read_checkpoint_doc(dir: &Path) -> Result<Option<Json>, StoreError> {
    let path = SessionLog::checkpoint_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    Json::parse(&text)
        .map(Some)
        .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))
}

fn read_checkpoint(dir: &Path) -> Result<Option<Checkpoint>, StoreError> {
    let Some(json) = read_checkpoint_doc(dir)? else {
        return Ok(None);
    };
    Checkpoint::from_json(&json).map(Some).map_err(|e| {
        StoreError::Corrupt(format!(
            "{}: {e}",
            SessionLog::checkpoint_path(dir).display()
        ))
    })
}

/// Parse WAL payloads into ops, rejecting unparsable (non-torn) records.
fn parse_wal_ops(dir: &Path, payloads: &[Vec<u8>]) -> Result<Vec<Op>, StoreError> {
    payloads
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Op::from_payload(p).map_err(|e| {
                StoreError::Corrupt(format!(
                    "{}: record {i}: {e}",
                    SessionLog::wal_path(dir).display()
                ))
            })
        })
        .collect()
}

/// The history of the session log in `dir` between a reader's horizon
/// and the log's `position`, read without the log's lock; `None` when a
/// checkpoint replaced the document or cut the WAL since, or the session
/// was removed.
fn read_history(
    dir: &Path,
    position: Horizon,
    reader: &Horizon,
) -> Result<Option<History>, StoreError> {
    let mut history = History {
        reached: position,
        ..History::default()
    };
    let mut from = *reader;
    if let Some(lsn) = position.checkpoint_lsn.filter(|&lsn| lsn > from.last_lsn) {
        let doc = read_checkpoint_doc(dir)?;
        match doc.filter(|doc| doc.get("last_lsn").and_then(Json::as_num) == Some(lsn as f64)) {
            Some(doc) => history.checkpoint = Some((lsn, doc)),
            None => return Ok(None),
        }
        from = Horizon::at(lsn);
    }
    if from.last_lsn >= position.last_lsn {
        return Ok(Some(history));
    }
    // The WAL's LSNs run consecutively up to `last_lsn`, so the ops above
    // `from` are the last `last_lsn - from` records of its first
    // `wal_len` bytes; a horizon read above the same checkpoint says
    // where they start.
    let same = from.checkpoint_lsn == position.checkpoint_lsn;
    let skip = if same { from.wal_len } else { 0 };
    let scan = wal::scan_range(&SessionLog::wal_path(dir), skip, position.wal_len)?;
    let want = usize::try_from(position.last_lsn - from.last_lsn).unwrap_or(usize::MAX);
    let Some(start) = scan.payloads.len().checked_sub(want) else {
        return Ok(None);
    };
    history.ops = parse_wal_ops(dir, &scan.payloads[start..])?;
    let lsns = history.ops.iter().map(|op| op.lsn);
    let whole = lsns.eq(from.last_lsn + 1..=position.last_lsn);
    Ok(whole.then_some(history))
}

/// The ID of a session named `s{n}` (a directory or an `"id"` field).
fn parse_session_name(name: &str) -> Option<u64> {
    name.strip_prefix('s')?.parse().ok()
}

/// Numeric IDs of the `s{n}` directories under `sessions_dir`, sorted.
fn session_ids_in(sessions_dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(sessions_dir)? {
        ids.extend(entry?.file_name().to_str().and_then(parse_session_name));
    }
    ids.sort_unstable();
    Ok(ids)
}

/// Files an earlier layout kept in a store directory: `ship.log`, a
/// second copy of every logged op for replication, and `cursor.json`, a
/// follower's resume cursor. Replication now reads the WALs and a
/// follower's own logs are its cursor, so [`Store::open`] deletes both.
const RETIRED_FILES: [&str; 2] = ["ship.log", "cursor.json"];

/// Delete the [`RETIRED_FILES`] from a store directory, if present.
pub(crate) fn remove_retired_files(dir: &Path) -> std::io::Result<()> {
    for name in RETIRED_FILES {
        match std::fs::remove_file(dir.join(name)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
    }
    Ok(())
}

/// Atomically replace `path` with `contents` (tmp + fsync + rename).
pub(crate) fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        std::io::Write::write_all(&mut f, contents)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself (best effort — not all platforms allow
    // syncing a directory handle).
    if let Some(parent) = path.parent() {
        if let Ok(d) = File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The durable session store: one WAL + checkpoint pair per session under
/// one root directory, plus the persistent session-ID counter.
#[derive(Debug)]
pub struct Store {
    config: StoreConfig,
    sessions_dir: PathBuf,
    meta_path: PathBuf,
    /// Highest ID ever handed out + 1, persisted in `meta.json`.
    next_id: Mutex<u64>,
    logs: Mutex<BTreeMap<u64, Arc<Mutex<SessionLog>>>>,
    /// Torn WAL tails truncated by recovery since this handle opened.
    recovered: Mutex<Vec<TornTail>>,
    /// Bumped after every change to what [`Store::horizons`] reports.
    changes: AtomicU64,
}

impl Store {
    /// Open (creating if necessary) a store rooted at `config.dir`.
    pub fn open(config: StoreConfig) -> Result<Store, StoreError> {
        let sessions_dir = config.dir.join("sessions");
        std::fs::create_dir_all(&sessions_dir)?;
        remove_retired_files(&config.dir)?;
        let meta_path = config.dir.join("meta.json");
        let next_id = match std::fs::read_to_string(&meta_path) {
            Ok(text) => {
                let json = Json::parse(&text)
                    .map_err(|e| StoreError::Corrupt(format!("{}: {e}", meta_path.display())))?;
                let n = json
                    .require_num("next_id")
                    .map_err(|e| StoreError::Corrupt(format!("{}: {e}", meta_path.display())))?;
                if !(n.is_finite() && n >= 1.0 && n.fract() == 0.0) {
                    return Err(StoreError::Corrupt(format!(
                        "{}: bad next_id {n}",
                        meta_path.display()
                    )));
                }
                n as u64
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 1,
            Err(e) => return Err(e.into()),
        };
        Ok(Store {
            config,
            sessions_dir,
            meta_path,
            next_id: Mutex::new(next_id),
            logs: Mutex::new(BTreeMap::new()),
            recovered: Mutex::new(Vec::new()),
            changes: AtomicU64::new(0),
        })
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The next session ID a manager should mint: past every ID ever
    /// handed out (per `meta.json`) *and* every session directory on
    /// disk, so recovered and new IDs never collide.
    pub fn next_session_id(&self) -> Result<u64, StoreError> {
        let persisted = *self.next_id.lock().expect("meta lock");
        let max_on_disk = self.session_ids()?.into_iter().max().unwrap_or(0);
        Ok(persisted.max(max_on_disk + 1))
    }

    /// Raise the persisted ID counter to `candidate` (a no-op when it is
    /// already there): IDs below it are never minted from this store.
    pub fn persist_next_id(&self, candidate: u64) -> Result<(), StoreError> {
        let mut next = self.next_id.lock().expect("meta lock");
        if candidate <= *next {
            return Ok(());
        }
        let doc = Json::obj([
            ("format", Json::from("sider-store")),
            ("version", Json::from(1.0)),
            ("next_id", Json::from(candidate)),
        ]);
        write_atomic(&self.meta_path, format!("{}\n", doc.dump()).as_bytes())?;
        *next = candidate;
        Ok(())
    }

    fn session_dir(&self, id: u64) -> PathBuf {
        self.sessions_dir.join(format!("s{id}"))
    }

    /// Numeric IDs of every session directory on disk.
    pub fn session_ids(&self) -> Result<Vec<u64>, StoreError> {
        Ok(session_ids_in(&self.sessions_dir)?)
    }

    fn log_of(&self, id: u64) -> Result<Arc<Mutex<SessionLog>>, StoreError> {
        self.logs
            .lock()
            .expect("logs lock")
            .get(&id)
            .cloned()
            .ok_or_else(|| StoreError::Corrupt(format!("session s{id} is not open in this store")))
    }

    /// Start a new session history: create its directory, write the
    /// `create` op as LSN 1, and advance the persistent ID counter.
    pub fn create_session(&self, id: u64, body: &Json) -> Result<(), StoreError> {
        let dir = self.session_dir(id);
        std::fs::create_dir_all(&dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(SessionLog::wal_path(&dir))?;
        let mut log = SessionLog {
            id,
            dir,
            file,
            last_lsn: 0,
            wal_records: 0,
            appends_since_sync: 0,
            checkpoint_lsn: None,
        };
        log.append(1, OpKind::Create, body, self.config.fsync)?;
        self.persist_next_id(id + 1)?;
        self.logs
            .lock()
            .expect("logs lock")
            .insert(id, Arc::new(Mutex::new(log)));
        self.changes.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Append one op to a session's WAL; returns its LSN.
    pub fn append(&self, id: u64, kind: OpKind, body: &Json) -> Result<u64, StoreError> {
        let log = self.log_of(id)?;
        let mut log = log.lock().expect("session log lock");
        let lsn = log.last_lsn + 1;
        // Counted even when the fsync fails: the op is in the file.
        let written = log.append(lsn, kind, body, self.config.fsync);
        self.changes.fetch_add(1, Ordering::Release);
        written.map(|()| lsn)
    }

    /// Ops accumulated in a session's WAL since its last checkpoint —
    /// what the automatic-checkpoint threshold compares against.
    pub fn wal_records(&self, id: u64) -> u64 {
        self.log_of(id)
            .map(|log| log.lock().expect("session log lock").wal_records)
            .unwrap_or(0)
    }

    /// Compact a session's history: fold WAL + prior checkpoint into a
    /// fresh checkpoint document and truncate the WAL. `name`/`n`/`d`
    /// identify the dataset for the folded snapshot's header.
    pub fn checkpoint(
        &self,
        id: u64,
        name: &str,
        n: usize,
        d: usize,
    ) -> Result<SessionStatus, StoreError> {
        let log = self.log_of(id)?;
        let mut log = log.lock().expect("session log lock");
        let dir = log.dir.clone();
        let prior = read_checkpoint(&dir)?;
        let scan = wal::scan(&SessionLog::wal_path(&dir))?;
        if scan.torn {
            // Only a crash can tear the WAL; on a live store this means
            // disk-level damage. Refuse to fold it into a checkpoint.
            return Err(StoreError::Corrupt(format!(
                "{}: torn record on a live WAL",
                SessionLog::wal_path(&dir).display()
            )));
        }
        let tail = parse_wal_ops(&dir, &scan.payloads)?;
        let cp =
            Checkpoint::build(prior.as_ref(), &tail, name, n, d).map_err(StoreError::Corrupt)?;
        write_atomic(
            &SessionLog::checkpoint_path(&dir),
            format!("{}\n", cp.to_json().dump()).as_bytes(),
        )?;
        log.file.set_len(0)?;
        log.file.sync_data()?;
        log.wal_records = 0;
        log.appends_since_sync = 0;
        log.checkpoint_lsn = Some(cp.last_lsn);
        Ok(log.status())
    }

    /// Forget a session durably (delete its directory). Used for both
    /// client deletes and idle eviction.
    pub fn remove_session(&self, id: u64) -> Result<(), StoreError> {
        self.logs.lock().expect("logs lock").remove(&id);
        self.changes.fetch_add(1, Ordering::Release);
        match std::fs::remove_dir_all(self.session_dir(id)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }

    /// Rebuild one session from disk with the default dataset resolver.
    pub fn recover_session(
        &self,
        id: u64,
        pool: Arc<ThreadPool>,
    ) -> Result<EdaSession, StoreError> {
        self.recover_session_with(id, pool, &ops::resolve_dataset)
    }

    /// Rebuild one session from disk: load the latest valid checkpoint,
    /// truncate a torn WAL tail, and replay checkpoint + tail through
    /// [`ops::replay`]. Registers the session's log for further appends.
    pub fn recover_session_with(
        &self,
        id: u64,
        pool: Arc<ThreadPool>,
        resolver: ops::DatasetResolver<'_>,
    ) -> Result<EdaSession, StoreError> {
        let dir = self.session_dir(id);
        let scan = wal::scan(&SessionLog::wal_path(&dir))?;
        self.recover_scanned(id, dir, scan, pool, resolver)
    }

    /// [`Store::recover_session_with`] on a WAL its caller already read.
    fn recover_scanned(
        &self,
        id: u64,
        dir: PathBuf,
        scan: wal::WalScan,
        pool: Arc<ThreadPool>,
        resolver: ops::DatasetResolver<'_>,
    ) -> Result<EdaSession, StoreError> {
        let wal_path = SessionLog::wal_path(&dir);
        let prior = read_checkpoint(&dir)?;
        if scan.torn {
            // The tear is the op that never finished being acknowledged;
            // cut it (and anything after it) away so appends resume from
            // a clean frame boundary. Record the cut so the bind-time
            // report and `GET /api/store` can surface the loss.
            let file_len = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
            let file = OpenOptions::new().write(true).open(&wal_path)?;
            file.set_len(scan.valid_len)?;
            file.sync_data()?;
            let event = TornTail {
                session: id,
                offset: scan.valid_len,
                lost_bytes: file_len.saturating_sub(scan.valid_len),
            };
            eprintln!(
                "sider_store: session s{id}: torn WAL tail truncated at byte {} ({} bytes lost)",
                event.offset, event.lost_bytes
            );
            self.recovered.lock().expect("recovered lock").push(event);
        }
        let tail = parse_wal_ops(&dir, &scan.payloads)?;
        let checkpoint_lsn = prior.as_ref().map(|cp| cp.last_lsn);
        let (session, last_lsn) = match prior {
            Some(cp) => {
                let last = tail.last().map(|op| op.lsn).unwrap_or(0).max(cp.last_lsn);
                let session = cp
                    .replay(&tail, pool, resolver)
                    .map_err(|e| StoreError::Replay(format!("session s{id}: {e}")))?;
                (session, last)
            }
            None => {
                let first = tail.first().ok_or_else(|| {
                    StoreError::Corrupt(format!("session s{id}: no checkpoint and empty WAL"))
                })?;
                if first.kind != OpKind::Create {
                    return Err(StoreError::Corrupt(format!(
                        "session s{id}: history starts with '{}', not 'create'",
                        first.kind.as_str()
                    )));
                }
                let mut session = ops::create_session(&first.body, pool, resolver)
                    .map_err(|e| StoreError::Replay(format!("session s{id}: create: {e}")))?;
                for op in &tail[1..] {
                    ops::replay(&mut session, op.kind, &op.body).map_err(|e| {
                        StoreError::Replay(format!(
                            "session s{id}: {} (lsn {}): {e}",
                            op.kind.as_str(),
                            op.lsn
                        ))
                    })?;
                }
                (session, tail.last().map(|op| op.lsn).unwrap_or(1))
            }
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)?;
        let log = SessionLog {
            id,
            dir,
            file,
            last_lsn,
            wal_records: tail.len() as u64,
            appends_since_sync: 0,
            checkpoint_lsn,
        };
        self.logs
            .lock()
            .expect("logs lock")
            .insert(id, Arc::new(Mutex::new(log)));
        self.changes.fetch_add(1, Ordering::Release);
        Ok(session)
    }

    /// Rebuild every session on disk. Session directories holding **no
    /// complete record and no checkpoint** — a crash between `mkdir` and
    /// the first acknowledged op, whether the WAL is absent, empty, or a
    /// single torn create frame — are swept away rather than failing the
    /// whole recovery: their create was never acknowledged to any
    /// client, so there is nothing to lose.
    pub fn recover_all(
        &self,
        pool: &Arc<ThreadPool>,
    ) -> Result<Vec<(u64, EdaSession)>, StoreError> {
        let mut out = Vec::new();
        for id in self.session_ids()? {
            let dir = self.session_dir(id);
            // Read once: the scan that decides the sweep is the one replayed.
            let scan = wal::scan(&SessionLog::wal_path(&dir))?;
            if scan.payloads.is_empty() && !SessionLog::checkpoint_path(&dir).exists() {
                eprintln!(
                    "sider_store: dropping session directory {} with no acknowledged op",
                    dir.display()
                );
                let _ = std::fs::remove_dir_all(&dir);
                continue;
            }
            let session =
                self.recover_scanned(id, dir, scan, Arc::clone(pool), &ops::resolve_dataset)?;
            out.push((id, session));
        }
        Ok(out)
    }

    /// Torn WAL tails truncated by recovery since this handle opened —
    /// the bind-time data-loss report.
    pub fn recovery_report(&self) -> Vec<TornTail> {
        self.recovered.lock().expect("recovered lock").clone()
    }

    /// How many times the sessions [`Store::horizons`] reports have
    /// changed since this store opened: a reader that saw this count
    /// before its last walk has nothing new to find.
    pub fn changes(&self) -> u64 {
        self.changes.load(Ordering::Acquire)
    }

    /// `(id, last_lsn)` of every open session log, in ID order: what
    /// this store holds durably. A follower sends these as its horizons,
    /// so its own store is its replication cursor.
    pub fn horizons(&self) -> Vec<(u64, u64)> {
        // Clone the handles first: a session's lock may be held across an
        // fsync, and waiting for it must not block the registry.
        let logs: Vec<_> = self
            .logs
            .lock()
            .expect("logs lock")
            .values()
            .cloned()
            .collect();
        logs.iter()
            .map(|log| {
                let log = log.lock().expect("session log lock");
                (log.id, log.last_lsn)
            })
            .collect()
    }

    /// What session `id` logged above a reader's horizon: the
    /// checkpoint document when the horizon is below its LSN (the ops it
    /// folded exist only there), then the WAL ops above the horizon. Only
    /// the log's position is taken under its lock; the files are read
    /// after, so an append never waits on this. `None` when the session
    /// is not open in this store, or when a checkpoint or removal moved
    /// the files before they were read: the caller asks again from
    /// [`Horizon::at`] its LSN.
    pub fn history_since(&self, id: u64, reader: &Horizon) -> Result<Option<History>, StoreError> {
        let Ok(log) = self.log_of(id) else {
            return Ok(None);
        };
        let (dir, position) = {
            let log = log.lock().expect("session log lock");
            (log.dir.clone(), log.position()?)
        };
        read_history(&dir, position, reader)
    }

    /// Install a replicated checkpoint as a session's entire on-disk
    /// history: write the checkpoint document and clear the WAL. The
    /// caller rebuilds the in-memory session with
    /// [`Store::recover_session`] afterwards. Used by a follower below
    /// the leader's compaction point — the individual ops no longer
    /// exist.
    pub fn adopt_checkpoint(&self, id: u64, doc: &Json) -> Result<(), StoreError> {
        Checkpoint::from_json(doc)
            .map_err(|e| StoreError::Corrupt(format!("session s{id}: shipped checkpoint: {e}")))?;
        let dir = self.session_dir(id);
        std::fs::create_dir_all(&dir)?;
        write_atomic(
            &SessionLog::checkpoint_path(&dir),
            format!("{}\n", doc.dump()).as_bytes(),
        )?;
        let wal = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(SessionLog::wal_path(&dir))?;
        wal.sync_data()?;
        self.logs.lock().expect("logs lock").remove(&id);
        self.changes.fetch_add(1, Ordering::Release);
        self.persist_next_id(id + 1)?;
        Ok(())
    }

    /// Persistence status of every open session, in ID order.
    pub fn status(&self) -> Vec<SessionStatus> {
        self.logs
            .lock()
            .expect("logs lock")
            .values()
            .map(|log| log.lock().expect("session log lock").status())
            .collect()
    }

    /// Persistence status of one open session.
    pub fn status_of(&self, id: u64) -> Option<SessionStatus> {
        let log = self.log_of(id).ok()?;
        let status = log.lock().expect("session log lock").status();
        Some(status)
    }
}

/// Read-only report over a store directory that may belong to another
/// (even running) process — the `sider store inspect <dir>` payload.
/// Unlike [`Store::open`] it creates nothing.
///
/// Understands both layouts: a plain per-stripe (or legacy PR-5) store —
/// `meta.json` + `sessions/` at the root — and the striped layout
/// (`layout.json` + `stripe-{k}/` subdirectories), where the report
/// additionally carries `stripes` and a `per_stripe` array of totals and
/// every session row names its stripe.
pub fn inspect(dir: &Path) -> Result<Json, String> {
    match stripes::detect_stripes(dir).map_err(|e| e.to_string())? {
        Some(n) => inspect_striped(dir, n),
        None => inspect_flat(dir),
    }
}

/// `inspect` over the striped layout: per-stripe totals plus the merged
/// session list in global ID order (the deterministic aggregation
/// ordering every cross-stripe read uses).
fn inspect_striped(dir: &Path, n: usize) -> Result<Json, String> {
    let mut per_stripe = Vec::new();
    let mut sessions = Vec::new();
    let mut next_id = 1u64;
    for k in 0..n {
        let sdir = stripes::stripe_path(dir, k);
        let meta_path = sdir.join("meta.json");
        if let Ok(text) = std::fs::read_to_string(&meta_path) {
            let meta = Json::parse(&text).map_err(|e| format!("{}: {e}", meta_path.display()))?;
            if let Some(id) = meta.get("next_id").and_then(Json::as_num) {
                next_id = next_id.max(id as u64);
            }
        }
        let rows = inspect_sessions(&sdir.join("sessions"))?;
        // Folded from +0.0: an empty `f64` sum is -0.0, printed as `-0`.
        let total = |key: &str| {
            rows.iter()
                .filter_map(|r| r.get(key).and_then(Json::as_num))
                .fold(0.0, |sum, v| sum + v)
        };
        per_stripe.push(Json::obj([
            ("stripe", Json::from(k)),
            ("sessions", Json::from(rows.len())),
            ("wal_records", Json::from(total("wal_records"))),
            ("wal_bytes", Json::from(total("wal_bytes"))),
            ("checkpoint_bytes", Json::from(total("checkpoint_bytes"))),
        ]));
        for mut row in rows {
            if let Json::Obj(map) = &mut row {
                map.insert("stripe".into(), Json::from(k));
            }
            next_id = next_id.max(row_id(&row).map_or(1, |id| id + 1));
            sessions.push(row);
        }
    }
    sessions.sort_by_key(|row| row_id(row).unwrap_or(u64::MAX));
    Ok(Json::obj([
        ("dir", Json::from(dir.display().to_string())),
        ("stripes", Json::from(n)),
        ("next_id", Json::from(next_id)),
        ("per_stripe", Json::Arr(per_stripe)),
        ("sessions", Json::Arr(sessions)),
        ("replica", inspect_replica(dir)),
    ]))
}

/// The session ID of an inspect row.
fn row_id(row: &Json) -> Option<u64> {
    row.get("id")
        .and_then(Json::as_str)
        .and_then(parse_session_name)
}

/// Replication state readable offline: the follower role marker (if the
/// dir is a replica) — `{"leader":addr}` or null.
fn inspect_replica(dir: &Path) -> Json {
    match ship::read_marker(dir) {
        Some(leader) => Json::obj([("leader", Json::from(leader))]),
        None => Json::Null,
    }
}

/// `inspect` over a flat (legacy or single-stripe) store directory.
fn inspect_flat(dir: &Path) -> Result<Json, String> {
    let meta_path = dir.join("meta.json");
    let meta = match std::fs::read_to_string(&meta_path) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("{}: {e}", meta_path.display()))?,
        Err(e) => {
            return Err(format!(
                "{}: {e} (not a sider data dir?)",
                meta_path.display()
            ))
        }
    };
    let sessions = inspect_sessions(&dir.join("sessions"))?;
    Ok(Json::obj([
        ("dir", Json::from(dir.display().to_string())),
        (
            "next_id",
            meta.get("next_id").cloned().unwrap_or(Json::Null),
        ),
        ("sessions", Json::Arr(sessions)),
        ("replica", inspect_replica(dir)),
    ]))
}

/// Per-session status rows (in ID order) for every `s{n}` directory under
/// `sessions_dir`, read without mutating anything.
fn inspect_sessions(sessions_dir: &Path) -> Result<Vec<Json>, String> {
    let mut sessions = Vec::new();
    for id in session_ids_in(sessions_dir).unwrap_or_default() {
        let sdir = sessions_dir.join(format!("s{id}"));
        let scan = wal::scan(&SessionLog::wal_path(&sdir))
            .map_err(|e| format!("{}: {e}", SessionLog::wal_path(&sdir).display()))?;
        let wal_ops = parse_wal_ops(&sdir, &scan.payloads).map_err(|e| e.to_string())?;
        let checkpoint_lsn = match read_checkpoint(&sdir) {
            Ok(Some(cp)) => Some(cp.last_lsn),
            Ok(None) => None,
            Err(e) => return Err(e.to_string()),
        };
        let last_lsn = wal_ops
            .last()
            .map(|op| op.lsn)
            .unwrap_or(0)
            .max(checkpoint_lsn.unwrap_or(0));
        let status = SessionStatus {
            id,
            last_lsn,
            wal_records: wal_ops.len() as u64,
            wal_bytes: std::fs::metadata(SessionLog::wal_path(&sdir))
                .map(|m| m.len())
                .unwrap_or(0),
            checkpoint_bytes: std::fs::metadata(SessionLog::checkpoint_path(&sdir))
                .map(|m| m.len())
                .unwrap_or(0),
            checkpoint_lsn,
        };
        let mut row = status.to_json();
        if let Json::Obj(map) = &mut row {
            map.insert("torn_tail".into(), Json::from(scan.torn));
            if scan.torn {
                // Where recovery will cut, and how much it will drop —
                // visible before any server touches the dir.
                map.insert("torn_tail_offset".into(), Json::from(scan.valid_len));
                map.insert(
                    "torn_tail_lost_bytes".into(),
                    Json::from(
                        std::fs::metadata(SessionLog::wal_path(&sdir))
                            .map(|m| m.len())
                            .unwrap_or(scan.valid_len)
                            .saturating_sub(scan.valid_len),
                    ),
                );
            }
        }
        sessions.push(row);
    }
    Ok(sessions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> StoreConfig {
        let dir =
            std::env::temp_dir().join(format!("sider_store_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = StoreConfig::new(dir);
        config.fsync = FsyncPolicy::Never;
        config
    }

    fn body(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    fn pool() -> Arc<ThreadPool> {
        Arc::new(ThreadPool::new(1))
    }

    fn scripted_history(store: &Store, id: u64) {
        store
            .create_session(id, &body(r#"{"dataset":"fig2","seed":7}"#))
            .unwrap();
        store
            .append(id, OpKind::Knowledge, &body(r#"{"kind":"margin"}"#))
            .unwrap();
        store
            .append(
                id,
                OpKind::Knowledge,
                &body(r#"{"kind":"cluster","rows":[0,1,2,3,4,5,6,7]}"#),
            )
            .unwrap();
        store.append(id, OpKind::Update, &body("{}")).unwrap();
        store
            .append(id, OpKind::View, &body(r#"{"method":"pca"}"#))
            .unwrap();
    }

    fn fingerprint(session: &mut EdaSession) -> (String, u64, String) {
        use sider_core::wire;
        use sider_projection::Method;
        let snap = wire::snapshot_to_json(session).dump();
        let kl = session.information_nats().to_bits();
        let view = session.next_view(&Method::Pca).unwrap();
        (snap, kl, wire::view_to_json(&view).dump())
    }

    /// The in-memory twin of `scripted_history`, built directly.
    fn live_twin() -> EdaSession {
        let mut s = ops::create_session(
            &body(r#"{"dataset":"fig2","seed":7}"#),
            pool(),
            &ops::resolve_dataset,
        )
        .unwrap();
        for (kind, b) in [
            (OpKind::Knowledge, r#"{"kind":"margin"}"#),
            (
                OpKind::Knowledge,
                r#"{"kind":"cluster","rows":[0,1,2,3,4,5,6,7]}"#,
            ),
            (OpKind::Update, "{}"),
            (OpKind::View, r#"{"method":"pca"}"#),
        ] {
            ops::apply(&mut s, kind, &body(b)).unwrap();
        }
        s
    }

    #[test]
    fn recovery_is_byte_identical_to_live_session() {
        let config = temp_store("recover");
        let dir = config.dir.clone();
        {
            let store = Store::open(config.clone()).unwrap();
            scripted_history(&store, 1);
        }
        // Fresh handle, as after a restart.
        let store = Store::open(config).unwrap();
        let recovered = store.recover_all(&pool()).unwrap();
        assert_eq!(recovered.len(), 1);
        let (id, mut session) = recovered.into_iter().next().unwrap();
        assert_eq!(id, 1);
        assert_eq!(fingerprint(&mut session), fingerprint(&mut live_twin()));
        // Recovered IDs never collide with new ones.
        assert_eq!(store.next_session_id().unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_through_checkpoint_is_byte_identical() {
        let config = temp_store("checkpoint");
        let dir = config.dir.clone();
        let store = Store::open(config.clone()).unwrap();
        scripted_history(&store, 1);
        let status = store
            .checkpoint(1, "three-d-four-clusters", 150, 3)
            .unwrap();
        assert_eq!(status.last_lsn, 5);
        assert_eq!(status.wal_records, 0);
        assert!(status.checkpoint_bytes > 0);
        // Post-checkpoint tail.
        store
            .append(
                1,
                OpKind::Knowledge,
                &body(r#"{"kind":"cluster","rows":[40,41,42,43,44]}"#),
            )
            .unwrap();
        store.append(1, OpKind::Update, &body("{}")).unwrap();
        drop(store);

        let store = Store::open(config).unwrap();
        let mut session = store.recover_session(1, pool()).unwrap();

        let mut twin = live_twin();
        ops::apply(
            &mut twin,
            OpKind::Knowledge,
            &body(r#"{"kind":"cluster","rows":[40,41,42,43,44]}"#),
        )
        .unwrap();
        ops::apply(&mut twin, OpKind::Update, &body("{}")).unwrap();
        assert_eq!(fingerprint(&mut session), fingerprint(&mut twin));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replayed_views_leave_the_session_where_served_views_did() {
        // Replay makes a PCA view's one RNG draw instead of rebuilding the
        // view, and runs an ICA view in full. A history with PCA views at
        // the prior and after a fit and ICA views, recovered from the WAL
        // alone and through a checkpoint (whose kept ops and WAL tail both
        // hold views), must match a live twin that served every view: its
        // fingerprint and its next ICA view's bytes.
        const PCA: &str = r#"{"method":"pca"}"#;
        let head = [
            (OpKind::View, PCA),
            (OpKind::Knowledge, r#"{"kind":"margin"}"#),
            (OpKind::Update, "{}"),
            (OpKind::View, PCA),
            (OpKind::View, r#"{"method":"ica"}"#),
        ];
        let tail = [
            (
                OpKind::Knowledge,
                r#"{"kind":"cluster","rows":[0,1,2,3,4,5,6,7]}"#,
            ),
            (OpKind::Update, "{}"),
            (OpKind::View, PCA),
            (OpKind::View, r#"{"method":"ica","restarts":2}"#),
            (OpKind::View, PCA),
        ];
        let create = body(r#"{"dataset":"fig2","seed":7}"#);
        let next_views = |s: &mut EdaSession| {
            let ica = s
                .next_view(&sider_projection::Method::Ica(Default::default()))
                .unwrap();
            (fingerprint(s), sider_core::wire::view_to_json(&ica).dump())
        };
        let mut twin = ops::create_session(&create, pool(), &ops::resolve_dataset).unwrap();
        for (kind, b) in head.iter().chain(&tail) {
            ops::apply(&mut twin, *kind, &body(b)).unwrap();
        }
        let expected = next_views(&mut twin);
        for through_checkpoint in [false, true] {
            let config = temp_store(&format!("views_{through_checkpoint}"));
            let dir = config.dir.clone();
            {
                let store = Store::open(config.clone()).unwrap();
                store.create_session(1, &create).unwrap();
                for (kind, b) in &head {
                    store.append(1, *kind, &body(b)).unwrap();
                }
                if through_checkpoint {
                    let status = store.checkpoint(1, "fig2", 150, 3).unwrap();
                    assert_eq!(status.wal_records, 0);
                }
                for (kind, b) in &tail {
                    store.append(1, *kind, &body(b)).unwrap();
                }
            }
            let store = Store::open(config).unwrap();
            let mut session = store.recover_session(1, pool()).unwrap();
            assert!(
                next_views(&mut session) == expected,
                "checkpoint {through_checkpoint}: recovered session differs from its live twin"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn replay_refuses_an_update_with_options() {
        let config = temp_store("update_options");
        let dir = config.dir.clone();
        {
            let store = Store::open(config.clone()).unwrap();
            scripted_history(&store, 1);
            // `update` takes no options: replay refuses one that has any.
            store
                .append(1, OpKind::Update, &body(r#"{"cold":true}"#))
                .unwrap();
        }
        let store = Store::open(config).unwrap();
        let err = store.recover_session(1, pool()).unwrap_err().to_string();
        for part in ["session s1", "update (lsn 6)", "'cold'"] {
            assert!(err.contains(part), "{part:?} missing from: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_recovers_to_last_complete_op() {
        let config = temp_store("torn");
        let dir = config.dir.clone();
        {
            let store = Store::open(config.clone()).unwrap();
            scripted_history(&store, 1);
        }
        // Simulate a crash mid-append: half a record at the tail.
        let wal = dir.join("sessions/s1/wal.log");
        let torn = wal::frame(br#"{"lsn":6,"op":"update","body":{}}"#);
        let mut bytes = std::fs::read(&wal).unwrap();
        let good_len = bytes.len();
        bytes.extend_from_slice(&torn[..torn.len() - 7]);
        std::fs::write(&wal, &bytes).unwrap();

        let store = Store::open(config).unwrap();
        let mut session = store.recover_session(1, pool()).unwrap();
        assert_eq!(fingerprint(&mut session), fingerprint(&mut live_twin()));
        // The tear was physically truncated away…
        assert_eq!(std::fs::metadata(&wal).unwrap().len() as usize, good_len);
        // …and appends continue cleanly after the cut.
        let lsn = store.append(1, OpKind::Update, &body("{}")).unwrap();
        assert_eq!(lsn, 6);
        assert!(!wal::scan(&wal).unwrap().torn);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_counter_survives_deletion_of_all_sessions() {
        let config = temp_store("meta");
        let dir = config.dir.clone();
        let store = Store::open(config.clone()).unwrap();
        store
            .create_session(1, &body(r#"{"dataset":"fig2"}"#))
            .unwrap();
        store
            .create_session(2, &body(r#"{"dataset":"fig2"}"#))
            .unwrap();
        store.remove_session(1).unwrap();
        store.remove_session(2).unwrap();
        drop(store);
        let store = Store::open(config).unwrap();
        assert!(store.recover_all(&pool()).unwrap().is_empty());
        // IDs are never reused, even with every session gone.
        assert_eq!(store.next_session_id().unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_an_error_not_silence() {
        let config = temp_store("corruptcp");
        let dir = config.dir.clone();
        let store = Store::open(config.clone()).unwrap();
        scripted_history(&store, 1);
        store
            .checkpoint(1, "three-d-four-clusters", 150, 3)
            .unwrap();
        drop(store);
        std::fs::write(dir.join("sessions/s1/checkpoint.json"), b"{not json").unwrap();
        let store = Store::open(config).unwrap();
        assert!(matches!(
            store.recover_session(1, pool()),
            Err(StoreError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_session_dirs_are_swept_on_recovery() {
        let config = temp_store("emptydir");
        let dir = config.dir.clone();
        let store = Store::open(config.clone()).unwrap();
        scripted_history(&store, 1);
        // A crash between mkdir and the first acknowledged op, in every
        // flavor: no WAL at all, an empty WAL, and a WAL holding only a
        // torn create frame (>= 8 header bytes, record incomplete) — a
        // server restart must sweep all three, not refuse to boot.
        std::fs::create_dir_all(dir.join("sessions/s7")).unwrap();
        std::fs::create_dir_all(dir.join("sessions/s8")).unwrap();
        std::fs::write(dir.join("sessions/s8/wal.log"), b"").unwrap();
        std::fs::create_dir_all(dir.join("sessions/s9")).unwrap();
        let torn = wal::frame(br#"{"body":{},"lsn":1,"op":"create"}"#);
        std::fs::write(dir.join("sessions/s9/wal.log"), &torn[..torn.len() - 4]).unwrap();
        drop(store);
        let store = Store::open(config).unwrap();
        let recovered = store.recover_all(&pool()).unwrap();
        assert_eq!(recovered.len(), 1);
        for burned in ["s7", "s8", "s9"] {
            assert!(!dir.join("sessions").join(burned).exists(), "{burned}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_append_payload_matches_op_serialization() {
        // The hot append path assembles the record text by hand (to
        // avoid deep-cloning the body); its bytes must stay identical to
        // the canonical `Op::to_payload` serialization or log formats
        // would silently fork.
        let config = temp_store("payload");
        let dir = config.dir.clone();
        let store = Store::open(config).unwrap();
        scripted_history(&store, 1);
        let scan = wal::scan(&dir.join("sessions/s1/wal.log")).unwrap();
        assert_eq!(scan.payloads.len(), 5);
        for payload in &scan.payloads {
            let op = Op::from_payload(payload).unwrap();
            assert_eq!(&op.to_payload(), payload, "{op:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_reports_without_mutating() {
        let config = temp_store("inspect");
        let dir = config.dir.clone();
        let store = Store::open(config).unwrap();
        scripted_history(&store, 1);
        store
            .checkpoint(1, "three-d-four-clusters", 150, 3)
            .unwrap();
        store.append(1, OpKind::Update, &body("{}")).unwrap();
        let report = inspect(&dir).unwrap();
        assert_eq!(report.require_num("next_id").unwrap(), 2.0);
        let sessions = report.require_arr("sessions").unwrap();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].require_str("id").unwrap(), "s1");
        assert_eq!(sessions[0].require_num("last_lsn").unwrap(), 6.0);
        assert_eq!(sessions[0].require_num("checkpoint_lsn").unwrap(), 5.0);
        assert_eq!(sessions[0].require_num("wal_records").unwrap(), 1.0);
        assert_eq!(sessions[0].get("torn_tail").unwrap().as_bool(), Some(false));
        assert!(inspect(&dir.join("missing")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn striped_inspect_totals_an_empty_stripe_as_zero() {
        let config = temp_store("inspect_striped");
        let dir = config.dir.clone();
        let stores = stripes::open_striped(&config, 2).unwrap();
        let id = (1..).find(|&id| stripes::stripe_of(id, 2) == 0).unwrap();
        scripted_history(&stores[0], id);
        let report = inspect(&dir).unwrap();
        assert_eq!(
            report.require_arr("per_stripe").unwrap()[1].dump(),
            r#"{"checkpoint_bytes":0,"sessions":0,"stripe":1,"wal_bytes":0,"wal_records":0}"#
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn history_since_reads_the_wal_above_a_horizon() {
        let config = temp_store("since");
        let dir = config.dir.clone();
        let store = Store::open(config).unwrap();
        scripted_history(&store, 1);
        assert_eq!(store.horizons(), [(1, 5)]);
        let history = store.history_since(1, &Horizon::at(2)).unwrap().unwrap();
        assert!(history.checkpoint.is_none());
        let kinds: Vec<_> = history.ops.iter().map(|op| (op.lsn, op.kind)).collect();
        assert_eq!(
            kinds,
            [
                (3, OpKind::Knowledge),
                (4, OpKind::Update),
                (5, OpKind::View)
            ]
        );
        // Caught up: nothing to read.
        let history = store.history_since(1, &Horizon::at(5)).unwrap().unwrap();
        assert!(history.checkpoint.is_none() && history.ops.is_empty());
        // Not open here: neither a session that never existed nor a
        // removed one has a history.
        assert!(store.history_since(9, &Horizon::at(0)).unwrap().is_none());
        store.remove_session(1).unwrap();
        assert!(store.history_since(1, &Horizon::at(0)).unwrap().is_none());
        assert!(store.horizons().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn history_below_a_checkpoint_starts_with_the_fold() {
        let config = temp_store("sincecp");
        let dir = config.dir.clone();
        let store = Store::open(config).unwrap();
        scripted_history(&store, 1);
        store
            .checkpoint(1, "three-d-four-clusters", 150, 3)
            .unwrap();
        store.append(1, OpKind::Update, &body("{}")).unwrap();
        // The ops at or below LSN 5 now exist only folded: a follower
        // below it gets the fold, then the tail.
        let history = store.history_since(1, &Horizon::at(2)).unwrap().unwrap();
        let (lsn, doc) = history.checkpoint.unwrap();
        assert_eq!(lsn, 5);
        assert_eq!(history.ops.iter().map(|op| op.lsn).collect::<Vec<_>>(), [6]);
        // A follower at the fold gets only the tail.
        let tail = store.history_since(1, &Horizon::at(5)).unwrap().unwrap();
        assert!(tail.checkpoint.is_none());
        assert_eq!(tail.ops.len(), 1);

        // A second store adopts the fold and recovers to a byte-identical
        // session.
        let follower_cfg = temp_store("sincecp_follower");
        let fdir = follower_cfg.dir.clone();
        let follower = Store::open(follower_cfg).unwrap();
        follower.adopt_checkpoint(1, &doc).unwrap();
        let mut session = follower.recover_session(1, pool()).unwrap();
        let op = &history.ops[0];
        ops::apply(&mut session, op.kind, &op.body).unwrap();
        assert_eq!(follower.append(1, op.kind, &op.body).unwrap(), 6);
        assert_eq!(follower.horizons(), store.horizons());
        let mut twin = live_twin();
        ops::apply(&mut twin, OpKind::Update, &body("{}")).unwrap();
        assert_eq!(fingerprint(&mut session), fingerprint(&mut twin));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&fdir);
    }

    #[test]
    fn a_checkpoint_between_position_and_read_asks_again() {
        let config = temp_store("sincerace");
        let dir = config.dir.clone();
        let store = Store::open(config).unwrap();
        scripted_history(&store, 1);
        let log = store.log_of(1).unwrap();
        let sdir = log.lock().unwrap().dir.clone();
        let position = || log.lock().unwrap().position().unwrap();
        let read = |position, after| read_history(&sdir, position, &Horizon::at(after)).unwrap();
        let lsns = |history: &History| history.ops.iter().map(|op| op.lsn).collect::<Vec<_>>();
        // The reader holds a position at LSN 5; a checkpoint cuts the WAL
        // and three appends refill it before the files are read.
        let stale = position();
        store
            .checkpoint(1, "three-d-four-clusters", 150, 3)
            .unwrap();
        for _ in 0..3 {
            store.append(1, OpKind::Update, &body("{}")).unwrap();
        }
        assert!(read(stale, 2).is_none());
        // Below the fold, a document a later checkpoint replaced is
        // refused too.
        let stale = position();
        store
            .checkpoint(1, "three-d-four-clusters", 150, 3)
            .unwrap();
        assert!(read(stale, 2).is_none());
        // Asked again, the store names its current files.
        let history = store.history_since(1, &Horizon::at(2)).unwrap().unwrap();
        assert_eq!(history.checkpoint.map(|(lsn, _)| lsn), Some(8));
        assert!(history.ops.is_empty());
        // Appends past a position leave its history as it was.
        store.append(1, OpKind::Update, &body("{}")).unwrap();
        let held = position();
        store.append(1, OpKind::Update, &body("{}")).unwrap();
        let history = read(held, 7).unwrap();
        assert_eq!(lsns(&history), [9]);
        assert_eq!(history.checkpoint.map(|(lsn, _)| lsn), Some(8));
        assert_eq!(lsns(&read(position(), 8).unwrap()), [9, 10]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reached_horizon_resumes_past_what_it_read() {
        let config = temp_store("sinceresume");
        let dir = config.dir.clone();
        let store = Store::open(config).unwrap();
        scripted_history(&store, 1);
        let first = store.history_since(1, &Horizon::at(0)).unwrap().unwrap();
        assert_eq!(first.ops.len(), 5);
        store.append(1, OpKind::Update, &body("{}")).unwrap();
        store.append(1, OpKind::View, &body("{}")).unwrap();
        let tail = |history: History| {
            assert_eq!(history.reached.last_lsn, 7);
            let ops: Vec<_> = history.ops.iter().map(|op| (op.lsn, op.kind)).collect();
            assert_eq!(ops, [(6, OpKind::Update), (7, OpKind::View)]);
        };
        // A hint that does not name a frame boundary reads nothing; from
        // its bare LSN the read starts over.
        let bogus = Horizon {
            wal_len: first.reached.wal_len + 3,
            ..first.reached
        };
        assert!(store.history_since(1, &bogus).unwrap().is_none());
        tail(store.history_since(1, &Horizon::at(5)).unwrap().unwrap());
        // Damage the bytes the first read covered: a read from the WAL's
        // first byte now stops there, one from the reached horizon does
        // not look at them.
        let wal = SessionLog::wal_path(&store.log_of(1).unwrap().lock().unwrap().dir);
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[wal::FRAME_HEADER_BYTES] ^= 0xff;
        std::fs::write(&wal, &bytes).unwrap();
        assert!(store.history_since(1, &Horizon::at(5)).unwrap().is_none());
        let second = store.history_since(1, &first.reached).unwrap().unwrap();
        let reached = second.reached;
        tail(second);
        // A checkpoint at the horizon cuts the WAL under it: the next read
        // starts at the first byte again.
        bytes[wal::FRAME_HEADER_BYTES] ^= 0xff;
        std::fs::write(&wal, &bytes).unwrap();
        store
            .checkpoint(1, "three-d-four-clusters", 150, 3)
            .unwrap();
        store.append(1, OpKind::Update, &body("{}")).unwrap();
        let third = store.history_since(1, &reached).unwrap().unwrap();
        assert!(third.checkpoint.is_none());
        assert_eq!(third.ops.iter().map(|op| op.lsn).collect::<Vec<_>>(), [8]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_earlier_striped_dir_drops_its_replication_files_and_recovers() {
        // An earlier layout kept two more files in each stripe dir: a
        // second copy of every op for followers, and a follower's resume
        // cursor. Opening deletes them; the WALs alone recover.
        let config = temp_store("retired");
        let dir = config.dir.clone();
        let id_on = |k: usize| (1..).find(|&id| stripes::stripe_of(id, 2) == k).unwrap();
        {
            let stores = stripes::open_striped(&config, 2).unwrap();
            for (k, store) in stores.iter().enumerate() {
                scripted_history(store, id_on(k));
            }
        }
        let mut planted = Vec::new();
        for k in 0..2 {
            let sdir = stripes::stripe_path(&dir, k);
            let copy = sdir.join("ship.log");
            let record = format!(
                r#"{{"body":{{"dataset":"fig2","seed":7}},"lsn":1,"op":"create","seq":1,"session":{}}}"#,
                id_on(k)
            );
            std::fs::write(&copy, wal::frame(record.as_bytes())).unwrap();
            let cursor = sdir.join("cursor.json");
            std::fs::write(&cursor, "{\"applied_seq\":5}\n").unwrap();
            planted.extend([copy, cursor]);
        }
        let stores = stripes::open_striped(&config, 2).unwrap();
        for path in &planted {
            assert!(!path.exists(), "{} survived open", path.display());
        }
        for (k, store) in stores.iter().enumerate() {
            let recovered = store.recover_all(&pool()).unwrap();
            assert_eq!(recovered.len(), 1);
            let (id, mut session) = recovered.into_iter().next().unwrap();
            assert_eq!(id, id_on(k));
            assert_eq!(fingerprint(&mut session), fingerprint(&mut live_twin()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncation_is_reported_not_just_logged() {
        let config = temp_store("tornreport");
        let dir = config.dir.clone();
        {
            let store = Store::open(config.clone()).unwrap();
            scripted_history(&store, 1);
        }
        let wal = dir.join("sessions/s1/wal.log");
        let good_len = std::fs::metadata(&wal).unwrap().len();
        let torn = wal::frame(br#"{"lsn":6,"op":"update","body":{}}"#);
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend_from_slice(&torn[..torn.len() - 7]);
        std::fs::write(&wal, &bytes).unwrap();

        // Offline inspect sees the tear before any recovery runs.
        let report = inspect(&dir).unwrap();
        let row = &report.require_arr("sessions").unwrap()[0];
        assert_eq!(row.get("torn_tail").unwrap().as_bool(), Some(true));
        assert_eq!(
            row.require_num("torn_tail_offset").unwrap(),
            good_len as f64
        );
        assert_eq!(
            row.require_num("torn_tail_lost_bytes").unwrap(),
            (torn.len() - 7) as f64
        );

        let store = Store::open(config).unwrap();
        store.recover_all(&pool()).unwrap();
        let events = store.recovery_report();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].session, 1);
        assert_eq!(events[0].offset, good_len);
        assert_eq!(events[0].lost_bytes, (torn.len() - 7) as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(FsyncPolicy::parse("16").unwrap(), FsyncPolicy::EveryN(16));
        assert!(FsyncPolicy::parse("0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        for p in [
            FsyncPolicy::Always,
            FsyncPolicy::Never,
            FsyncPolicy::EveryN(8),
        ] {
            assert_eq!(FsyncPolicy::parse(&p.as_string()).unwrap(), p);
        }
    }
}
