//! The replication edge: WAL shipping between a leader and followers.
//!
//! A leader with `--ship-addr` runs a second TCP listener speaking the
//! `sider_store::ship` wire protocol. A follower started with
//! `--follow <addr>` opens one connection and says `hello` with its
//! per-session horizons: the `last_lsn` of every session log its own
//! store holds. The leader's writer for that connection keeps those
//! horizons and, for each session above them, ships straight from the
//! session's files — the checkpoint document when the follower is below
//! it, then the WAL ops above its LSN — and a `remove` for a session the
//! leader no longer has. A horizon the writer advanced also remembers
//! where those ops ended in the WAL, so the next read starts there. The
//! writer walks a stripe's logs only when the stripe changed since its
//! last walk. There is no second history and no acknowledgement: the
//! follower's store is its cursor.
//!
//! The follower replays every record through the **same** `ops::replay`
//! path recovery uses, into its own striped store — which is what makes
//! a promoted follower byte-identical to a leader that never failed.
//! `welcome` and every heartbeat also carry the leader's `next_id`,
//! so a promoted follower never re-mints an ID the leader burned.
//!
//! Robustness:
//!
//! 1. the leader never blocks a client on a follower: shipping reads the
//!    store from the writer thread, never from the request path;
//! 2. link failure — the follower reconnects with capped exponential
//!    backoff + deterministic jitter and says `hello` again with what its
//!    store now holds; torn frames (CRC/length) drop the connection the
//!    same way;
//! 3. divergence — a follower horizon above the leader's LSN, an LSN gap
//!    or an op that fails to apply — breaks the link for good;
//! 4. leader failure — `POST /api/promote` (or `--promote` at restart)
//!    stops the link, removes the replica marker, and serves.

use crate::manager::SessionManager;
use sider_json::Json;
use sider_store::ops::{self, OpKind};
use sider_store::ship::{self, ShipError, ShipRecord};
use sider_store::stripes::stripe_of;
use sider_store::{Horizon, Store};
use std::collections::{BTreeMap, BTreeSet};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Writer-loop idle poll (nothing to send, heartbeat not yet due).
const IDLE_POLL: Duration = Duration::from_millis(2);

/// Leader heartbeat interval on idle links (announced in `welcome`).
const HEARTBEAT: Duration = Duration::from_millis(ship::DEFAULT_HEARTBEAT_MS);

/// Handshake read deadline on both sides.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long [`SessionManager::promote`] waits for the link thread to
/// acknowledge the stop request before promoting anyway.
pub const PROMOTE_STOP_TIMEOUT: Duration = Duration::from_secs(5);

/// Replication role of a serving process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Serves mutations; ships its WAL to any connected follower.
    Leader,
    /// Read-only; replays the leader's stream into its own store.
    Follower,
}

impl Role {
    /// The `/health` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Leader => "leader",
            Role::Follower => "follower",
        }
    }
}

/// Shared state of a follower's link thread (telemetry + control).
#[derive(Debug)]
pub struct FollowState {
    /// The leader's ship address (`host:port`).
    pub leader: String,
    stop: AtomicBool,
    stopped: AtomicBool,
    connected: AtomicBool,
    /// Fatal divergence (handshake rejection, LSN gap, replay failure):
    /// the link stops and stays stopped; `/health` reports why.
    broken: Mutex<Option<String>>,
    leader_shipped: Vec<AtomicU64>,
    records: AtomicU64,
    reconnects: AtomicU64,
}

impl FollowState {
    /// Fresh state for a link to `leader` over `stripes` stripes.
    pub fn new(leader: impl Into<String>, stripes: usize) -> FollowState {
        FollowState {
            leader: leader.into(),
            stop: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            connected: AtomicBool::new(false),
            broken: Mutex::new(None),
            leader_shipped: (0..stripes).map(|_| AtomicU64::new(0)).collect(),
            records: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
        }
    }

    /// Ask the link thread to exit at its next check.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether the link thread has fully exited.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Whether the link currently holds a healthy connection.
    pub fn is_connected(&self) -> bool {
        self.connected.load(Ordering::SeqCst)
    }

    /// The fatal-divergence message, if the link broke permanently.
    pub fn broken(&self) -> Option<String> {
        self.broken.lock().expect("broken lock").clone()
    }

    fn set_broken(&self, msg: String) {
        eprintln!("sider_server: replication link broken: {msg}");
        *self.broken.lock().expect("broken lock") = Some(msg);
    }

    /// The leader's per-stripe sums of `last_lsn`, as last announced.
    pub fn leader_shipped(&self) -> Vec<u64> {
        let sums = self.leader_shipped.iter();
        sums.map(|v| v.load(Ordering::Acquire)).collect()
    }

    /// Records taken from the leader since this process started
    /// following: after a restart, exactly the ops its store lacked.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Acquire)
    }

    /// How many times the link reconnected after a failure.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Acquire)
    }
}

/// One follower connection as the leader sees it. What the follower
/// applied is known only to the follower: its `/health` reports the lag.
#[derive(Debug)]
pub struct ConnState {
    /// Peer address, for the `/health` report.
    pub peer: String,
    alive: AtomicBool,
}

impl ConnState {
    /// Whether the connection is still streaming.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }
}

/// The leader's registry of follower connections (`/health` report).
#[derive(Debug, Default)]
pub struct ShipHub {
    conns: Mutex<Vec<Arc<ConnState>>>,
}

impl ShipHub {
    fn register(&self, conn: Arc<ConnState>) {
        let mut conns = self.conns.lock().expect("hub lock");
        conns.retain(|c| c.is_alive());
        conns.push(conn);
    }

    /// Live follower connections.
    pub fn live(&self) -> Vec<Arc<ConnState>> {
        let mut conns = self.conns.lock().expect("hub lock");
        conns.retain(|c| c.is_alive());
        conns.clone()
    }
}

/// Running replication threads; joined after the accept loop exits.
pub struct Handles {
    ship: Option<(std::thread::JoinHandle<()>, SocketAddr)>,
    follower: Option<(std::thread::JoinHandle<()>, Arc<FollowState>)>,
    stop: Arc<AtomicBool>,
}

impl Handles {
    /// Stop and join every replication thread (wakes the ship accept
    /// loop with a self-connect, mirroring [`ShutdownHandle`]).
    ///
    /// [`ShutdownHandle`]: crate::ShutdownHandle
    pub fn join(self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some((handle, addr)) = self.ship {
            let _ = TcpStream::connect(addr);
            let _ = handle.join();
        }
        if let Some((handle, state)) = self.follower {
            state.request_stop();
            let _ = handle.join();
        }
    }
}

/// Spawn the replication threads a server was configured with: the ship
/// listener's accept loop (when leading with `--ship-addr`) and the
/// follower link (when the manager was bound with `--follow`).
pub fn start(
    ship_listener: Option<TcpListener>,
    manager: &Arc<SessionManager>,
    stop: &Arc<AtomicBool>,
) -> Handles {
    let ship = ship_listener.map(|listener| {
        let addr = listener.local_addr().expect("bound ship listener");
        let hub = Arc::new(ShipHub::default());
        manager.set_ship_hub(Arc::clone(&hub));
        let m = Arc::clone(manager);
        let s = Arc::clone(stop);
        (
            std::thread::spawn(move || run_ship_accept(listener, m, hub, s)),
            addr,
        )
    });
    let follower = manager.follow_state().map(|state| {
        let m = Arc::clone(manager);
        let st = Arc::clone(&state);
        (std::thread::spawn(move || run_follower(m, st)), state)
    });
    Handles {
        ship,
        follower,
        stop: Arc::clone(stop),
    }
}

// ---------------------------------------------------------------------------
// Leader side
// ---------------------------------------------------------------------------

fn run_ship_accept(
    listener: TcpListener,
    manager: Arc<SessionManager>,
    hub: Arc<ShipHub>,
    stop: Arc<AtomicBool>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let manager = Arc::clone(&manager);
        let hub = Arc::clone(&hub);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            if let Err(e) = serve_follower(stream, &manager, &hub, &stop) {
                eprintln!("sider_server: ship connection ended: {e}");
            }
        });
    }
}

/// One follower connection on the leader: handshake, then ship every
/// session above the follower's horizons until the link dies or the
/// server stops.
fn serve_follower(
    stream: TcpStream,
    manager: &SessionManager,
    hub: &ShipHub,
    stop: &AtomicBool,
) -> Result<(), ShipError> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let hello = ship::read_frame(&mut &stream)?;
    let mut writer = &stream;
    let stripes = manager.stripes();
    let stores: Vec<Arc<Store>> = manager.stores().into_iter().map(Arc::clone).collect();

    let reject = |writer: &mut &TcpStream, msg: String| {
        let _ = ship::write_frame(writer, &ship::error_frame(&msg));
        Err(ShipError::Protocol(msg))
    };
    if hello.get("type").and_then(Json::as_str) != Some("hello")
        || hello.get("format").and_then(Json::as_str) != Some(ship::SHIP_FORMAT)
    {
        return reject(&mut writer, "expected a sider-ship hello".into());
    }
    if stores.len() != stripes {
        return reject(&mut writer, "leader has no durable store to ship".into());
    }
    for (what, key, ours) in [
        ("protocol version", "version", ship::SHIP_VERSION),
        ("stripe count", "stripes", stripes as f64),
    ] {
        let theirs = hello.get(key).and_then(Json::as_num);
        if theirs != Some(ours) {
            let theirs = theirs.map_or("?".into(), |v| v.to_string());
            let msg = format!("{what} mismatch: leader {ours}, follower {theirs}");
            return reject(&mut writer, msg);
        }
    }
    let mut horizons: BTreeMap<u64, Horizon> = match ship::parse_horizons(&hello) {
        Ok(h) => h
            .into_iter()
            .map(|(id, lsn)| (id, Horizon::at(lsn)))
            .collect(),
        Err(e) => return reject(&mut writer, format!("hello horizons: {e}")),
    };
    ship::write_frame(
        &mut writer,
        &ship::welcome(
            stripes,
            ship::DEFAULT_HEARTBEAT_MS,
            manager.next_id(),
            &manager.lsn_sums(),
        ),
    )?;

    let conn = Arc::new(ConnState {
        peer: stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "?".into()),
        alive: AtomicBool::new(true),
    });
    hub.register(Arc::clone(&conn));
    let result = ship_until_stopped(&mut writer, manager, &stores, &mut horizons, stop);
    conn.alive.store(false, Ordering::SeqCst);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    result
}

/// The writer loop. Each turn walks the open session logs of every
/// stripe that changed since its last complete walk and ships what the
/// follower lacks. A turn that shipped ends with a heartbeat, so the
/// follower's view of the leader is current; an idle turn sleeps, and
/// sends one once a second.
fn ship_until_stopped(
    writer: &mut &TcpStream,
    manager: &SessionManager,
    stores: &[Arc<Store>],
    horizons: &mut BTreeMap<u64, Horizon>,
    stop: &AtomicBool,
) -> Result<(), ShipError> {
    let mut last_beat = Instant::now();
    // Per stripe: its change count when last walked in full, and its sum
    // of `last_lsn` then.
    let mut seen = vec![None; stores.len()];
    let mut shipped = vec![0; stores.len()];
    while !stop.load(Ordering::SeqCst) {
        let mut sent = false;
        for (k, store) in stores.iter().enumerate() {
            let changes = store.changes();
            if seen[k] != Some(changes) {
                let (sum, complete) = ship_stripe(writer, k, stores, horizons, &mut sent)?;
                shipped[k] = sum;
                seen[k] = complete.then_some(changes);
            }
        }
        if sent || last_beat.elapsed() >= HEARTBEAT {
            let beat = ship::heartbeat(manager.next_id(), &shipped);
            ship::write_frame(writer, &beat)?;
            last_beat = Instant::now();
        } else {
            std::thread::sleep(IDLE_POLL);
        }
    }
    Ok(())
}

/// Ship what the follower lacks of stripe `k`: each session above its
/// horizon, then a `remove` for each session of the stripe it holds and
/// the leader no longer has. Returns the stripe's sum of `last_lsn` and
/// whether every session was read; one that was not is read next turn.
fn ship_stripe(
    writer: &mut &TcpStream,
    k: usize,
    stores: &[Arc<Store>],
    horizons: &mut BTreeMap<u64, Horizon>,
    sent: &mut bool,
) -> Result<(u64, bool), ShipError> {
    let (mut sum, mut complete) = (0, true);
    let mut live = BTreeSet::new();
    for (id, lsn) in stores[k].horizons() {
        live.insert(id);
        sum += lsn;
        let held = horizons.get(&id).copied().unwrap_or_default();
        let have = held.last_lsn;
        if have > lsn {
            let msg = format!("s{id}: follower horizon {have} is above the leader's LSN {lsn}");
            let _ = ship::write_frame(writer, &ship::error_frame(&msg));
            return Err(ShipError::Protocol(msg));
        }
        if have == lsn {
            continue;
        }
        // `None`: removed since `horizons()`, or a checkpoint moved the
        // files mid-read; the next turn ships the remove or asks again.
        let Some(history) = stores[k]
            .history_since(id, &held)
            .map_err(|e| ShipError::Protocol(e.to_string()))?
        else {
            if let Some(h) = horizons.get_mut(&id) {
                *h = Horizon::at(h.last_lsn);
            }
            complete = false;
            continue;
        };
        horizons.insert(id, history.reached);
        let fold = history
            .checkpoint
            .map(|(lsn, doc)| (lsn, "checkpoint", doc));
        let ops = history
            .ops
            .into_iter()
            .map(|op| (op.lsn, op.kind.as_str(), op.body));
        for (lsn, op, body) in fold.into_iter().chain(ops) {
            ship::write_frame(writer, &ship::record(id, lsn, op, body))?;
            *sent = true;
        }
    }
    let gone: Vec<u64> = horizons
        .keys()
        .filter(|&&id| stripe_of(id, stores.len()) == k && !live.contains(&id))
        .copied()
        .collect();
    for id in gone {
        ship::write_frame(writer, &ship::record(id, 0, "remove", Json::Null))?;
        horizons.remove(&id);
        *sent = true;
    }
    Ok((sum, complete))
}

// ---------------------------------------------------------------------------
// Follower side
// ---------------------------------------------------------------------------

fn run_follower(manager: Arc<SessionManager>, state: Arc<FollowState>) {
    // Jitter seed: a pure function of the leader address, so two
    // followers of different leaders de-synchronize while a test rerun
    // reproduces its exact delays.
    let seed = state.leader.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    });
    let mut attempt: u32 = 0;
    while !state.stop.load(Ordering::SeqCst) {
        match follow_once(&manager, &state) {
            LinkEnd::Stop | LinkEnd::Broken => break,
            LinkEnd::Retry => {
                // A completed handshake resets the backoff: the next
                // failure is a fresh incident, not attempt N+1.
                if state.is_connected() {
                    attempt = 0;
                }
                state.connected.store(false, Ordering::SeqCst);
                state.reconnects.fetch_add(1, Ordering::AcqRel);
                // Sleep the backoff in slices so a stop request (promote,
                // shutdown) is honored within ~10ms.
                let mut left = ship::backoff(attempt, seed);
                attempt = attempt.saturating_add(1);
                while left > Duration::ZERO && !state.stop.load(Ordering::SeqCst) {
                    let slice = left.min(Duration::from_millis(10));
                    std::thread::sleep(slice);
                    left = left.saturating_sub(slice);
                }
            }
        }
    }
    state.connected.store(false, Ordering::SeqCst);
    state.stopped.store(true, Ordering::SeqCst);
}

enum LinkEnd {
    /// Transient failure — reconnect with backoff.
    Retry,
    /// Stop was requested.
    Stop,
    /// Fatal divergence — do not reconnect.
    Broken,
}

/// Take in a `welcome`/`heartbeat` announcement: the leader's shipped
/// sums for `/health`, and its `next_id`, raised into this replica's
/// counter (and persisted) so a promoted follower mints what the leader
/// would have.
fn announce(manager: &SessionManager, state: &FollowState, msg: &Json) {
    let Ok((next_id, shipped)) = ship::parse_announce(msg, manager.stripes()) else {
        return;
    };
    for (sum, value) in state.leader_shipped.iter().zip(shipped) {
        sum.store(value, Ordering::Release);
    }
    if let Err(e) = manager.raise_next_id(next_id) {
        eprintln!("sider_server: cannot persist the leader's next_id {next_id}: {e}");
    }
}

/// The message of a leader's `error` frame.
fn error_of(msg: &Json) -> &str {
    msg.get("error")
        .and_then(Json::as_str)
        .unwrap_or("unspecified")
}

/// One connection lifetime: connect, handshake, replay until the link
/// dies. Returns how it ended so the caller picks retry vs. stop.
fn follow_once(manager: &Arc<SessionManager>, state: &FollowState) -> LinkEnd {
    let addr = match state
        .leader
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
    {
        Some(addr) => addr,
        None => return LinkEnd::Retry,
    };
    let stream = match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
        Ok(s) => s,
        Err(_) => return LinkEnd::Retry,
    };
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).is_err() {
        return LinkEnd::Retry;
    }
    let mut reader = BufReader::new(&stream);
    let horizons: Vec<(u64, u64)> = manager
        .stores()
        .iter()
        .flat_map(|store| store.horizons())
        .collect();
    if ship::write_frame(&mut &stream, &ship::hello(manager.stripes(), &horizons)).is_err() {
        return LinkEnd::Retry;
    }
    let welcome = match ship::read_frame(&mut reader) {
        Ok(msg) => msg,
        Err(_) => return LinkEnd::Retry,
    };
    match welcome.get("type").and_then(Json::as_str) {
        Some("welcome") => {}
        Some("error") => {
            // The leader rejected the handshake (layout mismatch, no
            // store): reconnecting can never succeed.
            state.set_broken(format!("leader rejected handshake: {}", error_of(&welcome)));
            return LinkEnd::Broken;
        }
        _ => return LinkEnd::Retry,
    }
    announce(manager, state, &welcome);
    // Liveness deadline: three missed heartbeats = a dead link. The
    // interval is the *leader's* (announced in the welcome), so the
    // follower keeps to whatever interval its leader sends.
    let beat = welcome
        .get("heartbeat_ms")
        .and_then(Json::as_num)
        .filter(|n| n.is_finite() && *n >= 1.0)
        .map(|n| Duration::from_millis(n as u64))
        .unwrap_or(HEARTBEAT);
    if stream.set_read_timeout(Some(beat * 3)).is_err() {
        return LinkEnd::Retry;
    }
    state.connected.store(true, Ordering::SeqCst);

    loop {
        if state.stop.load(Ordering::SeqCst) {
            return LinkEnd::Stop;
        }
        // A torn frame or any read failure (timeout = missed heartbeats,
        // reset = leader died mid-record): drop the connection; the next
        // hello carries what the store now holds.
        let Ok(msg) = ship::read_frame(&mut reader) else {
            return LinkEnd::Retry;
        };
        match msg.get("type").and_then(Json::as_str) {
            Some("heartbeat") => announce(manager, state, &msg),
            Some("record") => {
                // Counted before it is applied, so a reader that sees the
                // store hold the op also sees it counted.
                state.records.fetch_add(1, Ordering::AcqRel);
                let applied = ShipRecord::from_json(&msg)
                    .map_err(|e| format!("unparseable record: {e}"))
                    .and_then(|rec| apply_record(manager, rec));
                if let Err(e) = applied {
                    state.set_broken(e);
                    return LinkEnd::Broken;
                }
            }
            Some("error") => {
                state.set_broken(format!("leader: {}", error_of(&msg)));
                return LinkEnd::Broken;
            }
            // Unknown message types are skipped (forward compatibility);
            // the frame was CRC-valid.
            _ => {}
        }
    }
}

/// Apply one shipped record to the follower's registry + store — the
/// same `ops::replay` path recovery uses (the API's `ops::apply`, but a
/// PCA view only steps the RNG). A redelivered op
/// (`lsn` at or below the session's durable LSN) or create is skipped,
/// and a remove for an absent session does nothing. An LSN *gap* — or an
/// op that fails to apply — is fatal divergence: returning `Err` breaks
/// the link rather than letting the replica drift.
fn apply_record(manager: &Arc<SessionManager>, rec: ShipRecord) -> Result<(), String> {
    let id = rec.session;
    let id_str = format!("s{id}");
    match rec.op.as_str() {
        "remove" => {
            manager.remove(&id_str);
            Ok(())
        }
        "checkpoint" => manager
            .adopt_checkpoint(id, &rec.body)
            .map_err(|e| format!("s{id}: adopt shipped checkpoint: {e}")),
        "create" => {
            if manager.get(&id_str).is_some() {
                return Ok(()); // redelivered create
            }
            manager
                .adopt_logged(id, &rec.body)
                .map_err(|e| format!("s{id}: replicated create: {e}"))
        }
        op => {
            let kind = OpKind::parse(op).ok_or_else(|| format!("unknown shipped op {op:?}"))?;
            let Some(slot) = manager.get(&id_str) else {
                return Err(format!("s{id}: {op} for a session this replica never saw"));
            };
            let store = manager
                .store_of(id)
                .ok_or_else(|| format!("s{id}: follower has no store"))?;
            let last_lsn = store.status_of(id).map(|s| s.last_lsn).unwrap_or(0);
            if rec.lsn <= last_lsn {
                return Ok(()); // redelivered op
            }
            if rec.lsn != last_lsn + 1 {
                return Err(format!(
                    "s{id}: LSN gap (have {last_lsn}, shipped {})",
                    rec.lsn
                ));
            }
            let mut session = slot.lock()?;
            ops::replay(&mut session, kind, &rec.body).map_err(|e| format!("s{id}: {op}: {e}"))?;
            store
                .append(id, kind, &rec.body)
                .map_err(|e| format!("s{id}: follower WAL append: {e}"))?;
            // Mirror the leader's automatic compaction so a long-lived
            // replica's WALs stay bounded too.
            if store.wal_records(id) >= store.config().checkpoint_every {
                let ds = session.dataset();
                if let Err(e) = store.checkpoint(id, &ds.name, ds.n(), ds.d()) {
                    eprintln!("sider_server: follower checkpoint of s{id} failed: {e}");
                }
            }
            Ok(())
        }
    }
}
