//! The replication edge: WAL shipping between a leader and followers.
//!
//! A leader with `--ship-addr` runs a second TCP listener speaking the
//! `sider_store::ship` wire protocol. Each follower connection is a
//! `hello`/`welcome` handshake (pinning layout + stripe count and
//! resuming from the follower's per-stripe cursors) followed by a
//! one-way record stream with idle heartbeats; the follower acks every
//! applied record so the leader can report lag. A follower started with
//! `--follow <addr>` replays every record through the **same**
//! `ops::apply` path recovery uses, into its own striped store — which
//! is what makes a promoted follower byte-identical to a leader that
//! never failed.
//!
//! Robustness model (the degradation ladder, bottom to top):
//!
//! 1. keeping up — records are served from the in-memory ship buffer;
//! 2. lagging/disconnected — the leader degrades to tailing `ship.log`
//!    from disk (`Store::ship_fetch`), never blocking client requests;
//! 3. link failure — the follower reconnects with capped exponential
//!    backoff + deterministic jitter and resumes from its last durable
//!    cursor; torn frames (CRC/length) drop the connection the same way;
//! 4. leader failure — `POST /api/promote` (or `--promote` at restart)
//!    stops the link, removes the replica marker, and serves.
//!
//! Delivery is at-least-once; replay is idempotent (records carry the
//! session LSN; a follower skips what it already applied), so the pair
//! composes to exactly-once application.

use crate::manager::SessionManager;
use sider_json::Json;
use sider_store::ops::{self, OpKind};
use sider_store::{ship, Store};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Records shipped per stripe per writer turn before yielding to the
/// next stripe — bounds per-turn latency without starving any stripe.
const SHIP_BATCH: usize = 64;

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
    leader_seqs: Vec<AtomicU64>,
    applied_seqs: Vec<AtomicU64>,
    reconnects: AtomicU64,
}

impl FollowState {
    /// Fresh state for a link to `leader` over `stripes` stripes, with
    /// per-stripe cursors resuming from `cursors`.
    pub fn new(leader: impl Into<String>, cursors: &[u64]) -> FollowState {
        FollowState {
            leader: leader.into(),
            stop: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            connected: AtomicBool::new(false),
            broken: Mutex::new(None),
            leader_seqs: cursors.iter().map(|&c| AtomicU64::new(c)).collect(),
            applied_seqs: cursors.iter().map(|&c| AtomicU64::new(c)).collect(),
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

    /// Last seq the leader announced for each stripe.
    pub fn leader_seqs(&self) -> Vec<u64> {
        self.leader_seqs
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .collect()
    }

    /// Last seq applied locally for each stripe.
    pub fn applied_seqs(&self) -> Vec<u64> {
        self.applied_seqs
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .collect()
    }

    /// How many times the link reconnected after a failure.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Acquire)
    }
}

/// One follower connection as the leader sees it.
#[derive(Debug)]
pub struct ConnState {
    /// Peer address, for the `/health` report.
    pub peer: String,
    alive: AtomicBool,
    acked: Vec<AtomicU64>,
}

impl ConnState {
    fn new(peer: String, stripes: usize) -> ConnState {
        ConnState {
            peer,
            alive: AtomicBool::new(true),
            acked: (0..stripes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Whether the connection is still streaming.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Last acked seq per stripe.
    pub fn acked_seqs(&self) -> Vec<u64> {
        self.acked
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .collect()
    }
}

/// The leader's registry of follower connections (`/health` lag report).
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

/// One follower connection on the leader: handshake, then stream records
/// until the link dies or the server stops. The ack reader runs on its
/// own thread so a slow disk read never delays lag accounting.
fn serve_follower(
    stream: TcpStream,
    manager: &Arc<SessionManager>,
    hub: &ShipHub,
    stop: &Arc<AtomicBool>,
) -> Result<(), ship::ShipError> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let hello = ship::read_frame(&mut reader)?;
    let mut writer = stream.try_clone()?;
    let stripes = manager.stripes();
    let stores: Vec<Arc<Store>> = manager.stores().into_iter().map(Arc::clone).collect();

    let reject = |writer: &mut TcpStream, msg: String| {
        let _ = ship::write_frame(writer, &ship::error_frame(&msg));
        Err(ship::ShipError::Protocol(msg))
    };
    if hello.get("type").and_then(Json::as_str) != Some("hello")
        || hello.get("format").and_then(Json::as_str) != Some(ship::SHIP_FORMAT)
    {
        return reject(&mut writer, "expected a sider-ship hello".into());
    }
    if stores.len() != stripes {
        return reject(&mut writer, "leader has no durable store to ship".into());
    }
    let follower_stripes = hello
        .get("stripes")
        .and_then(Json::as_num)
        .map(|n| n as usize);
    if follower_stripes != Some(stripes) {
        return reject(
            &mut writer,
            format!(
                "stripe count mismatch: leader {stripes}, follower {}",
                follower_stripes.map_or("?".into(), |n| n.to_string())
            ),
        );
    }
    let mut cursors = match ship::parse_seqs(&hello_cursors(&hello), stripes) {
        Ok(c) => c,
        Err(e) => return reject(&mut writer, format!("hello cursors: {e}")),
    };
    let seqs: Vec<u64> = stores.iter().map(|s| s.ship_seq()).collect();
    ship::write_frame(
        &mut writer,
        &ship::welcome(stripes, ship::DEFAULT_HEARTBEAT_MS, &seqs),
    )?;

    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    let conn = Arc::new(ConnState::new(peer, stripes));
    hub.register(Arc::clone(&conn));

    // Ack reader: 1s read timeout so it can notice stop/alive flips.
    stream.set_read_timeout(Some(Duration::from_secs(1)))?;
    let ack_conn = Arc::clone(&conn);
    let ack_stop = Arc::clone(stop);
    let ack_reader = std::thread::spawn(move || {
        while !ack_stop.load(Ordering::SeqCst) && ack_conn.is_alive() {
            match ship::read_frame(&mut reader) {
                Ok(msg) => {
                    if msg.get("type").and_then(Json::as_str) == Some("ack") {
                        let stripe = msg.get("stripe").and_then(Json::as_num).unwrap_or(-1.0);
                        let seq = msg.get("seq").and_then(Json::as_num).unwrap_or(0.0);
                        if stripe >= 0.0 && (stripe as usize) < ack_conn.acked.len() {
                            ack_conn.acked[stripe as usize].store(seq as u64, Ordering::Release);
                        }
                    }
                }
                Err(ship::ShipError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => {
                    ack_conn.alive.store(false, Ordering::SeqCst);
                    break;
                }
            }
        }
    });

    // Writer loop: round-robin the stripes, batching SHIP_BATCH records
    // per stripe per turn. `ship_fetch` serves from the in-memory buffer
    // and degrades to tailing ship.log from disk when the cursor fell
    // off — the leader's client-facing path is never involved.
    let mut last_beat = Instant::now();
    let result = loop {
        if stop.load(Ordering::SeqCst) || !conn.is_alive() {
            break Ok(());
        }
        let mut sent = false;
        for (k, store) in stores.iter().enumerate() {
            let batch = match store.ship_fetch(cursors[k] + 1, SHIP_BATCH) {
                Ok(batch) => batch,
                Err(e) => break_err(&conn, ship::ShipError::Protocol(e.to_string())),
            };
            for rec in batch {
                if let Err(e) = ship::write_frame(&mut writer, &rec.to_wire(k)) {
                    conn.alive.store(false, Ordering::SeqCst);
                    let _ = e;
                    break;
                }
                cursors[k] = rec.seq;
                sent = true;
            }
            if !conn.is_alive() {
                break;
            }
        }
        if !conn.is_alive() {
            break Ok(());
        }
        if !sent {
            if last_beat.elapsed() >= HEARTBEAT {
                let seqs: Vec<u64> = stores.iter().map(|s| s.ship_seq()).collect();
                if ship::write_frame(&mut writer, &ship::heartbeat(&seqs)).is_err() {
                    break Ok(());
                }
                last_beat = Instant::now();
            } else {
                std::thread::sleep(IDLE_POLL);
            }
        } else {
            last_beat = Instant::now();
        }
    };
    conn.alive.store(false, Ordering::SeqCst);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = ack_reader.join();
    result
}

/// An empty batch with a dead reader: flag and keep the loop shape.
fn break_err(conn: &ConnState, e: ship::ShipError) -> Vec<ship::ShipRecord> {
    eprintln!("sider_server: ship fetch failed: {e}");
    conn.alive.store(false, Ordering::SeqCst);
    Vec::new()
}

/// Re-wrap the hello's cursor array so [`ship::parse_seqs`] (which reads
/// a `seqs` key) can validate it.
fn hello_cursors(hello: &Json) -> Json {
    Json::obj([("seqs", hello.get("cursors").cloned().unwrap_or(Json::Null))])
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
        if state.broken().is_some() {
            break;
        }
    }
    state.connected.store(false, Ordering::SeqCst);
    persist_cursors(&manager, &state);
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

/// One connection lifetime: connect, handshake, replay until the link
/// dies. Returns how it ended so the caller picks retry vs. stop.
fn follow_once(manager: &Arc<SessionManager>, state: &Arc<FollowState>) -> LinkEnd {
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
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return LinkEnd::Retry,
    };
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return LinkEnd::Retry,
    });
    let stripes = manager.stripes();
    let cursors = state.applied_seqs();
    if ship::write_frame(&mut writer, &ship::hello(stripes, &cursors)).is_err() {
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
            let msg = welcome
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("handshake rejected")
                .to_string();
            state.set_broken(format!("leader rejected handshake: {msg}"));
            return LinkEnd::Broken;
        }
        _ => return LinkEnd::Retry,
    }
    if let Ok(seqs) = ship::parse_seqs(&welcome, stripes) {
        for (k, seq) in seqs.iter().enumerate() {
            state.leader_seqs[k].store(*seq, Ordering::Release);
        }
    }
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

    let mut applied_since_flush: u64 = 0;
    loop {
        if state.stop.load(Ordering::SeqCst) {
            persist_cursors(manager, state);
            return LinkEnd::Stop;
        }
        match ship::read_frame(&mut reader) {
            Ok(msg) => match msg.get("type").and_then(Json::as_str) {
                Some("heartbeat") => {
                    if let Ok(seqs) = ship::parse_seqs(&msg, stripes) {
                        for (k, seq) in seqs.iter().enumerate() {
                            state.leader_seqs[k].store(*seq, Ordering::Release);
                        }
                    }
                }
                Some("record") => {
                    let stripe = match msg.get("stripe").and_then(Json::as_num) {
                        Some(n) if n >= 0.0 && (n as usize) < stripes => n as usize,
                        _ => {
                            state.set_broken("record with an invalid stripe tag".into());
                            return LinkEnd::Broken;
                        }
                    };
                    let rec = match ship::ShipRecord::from_json(&msg) {
                        Ok(rec) => rec,
                        Err(e) => {
                            state.set_broken(format!("unparseable record: {e}"));
                            return LinkEnd::Broken;
                        }
                    };
                    let seq = rec.seq;
                    if seq > state.applied_seqs[stripe].load(Ordering::Acquire) {
                        if let Err(e) = apply_record(manager, rec) {
                            state.set_broken(e);
                            persist_cursors(manager, state);
                            return LinkEnd::Broken;
                        }
                    }
                    state.applied_seqs[stripe].store(seq, Ordering::Release);
                    if ship::write_frame(&mut writer, &ship::ack(stripe, seq)).is_err() {
                        persist_cursors(manager, state);
                        return LinkEnd::Retry;
                    }
                    if state.leader_seqs[stripe].load(Ordering::Acquire) < seq {
                        state.leader_seqs[stripe].store(seq, Ordering::Release);
                    }
                    applied_since_flush += 1;
                    if applied_since_flush >= ship::CURSOR_FLUSH_EVERY {
                        persist_cursors(manager, state);
                        applied_since_flush = 0;
                    }
                }
                Some("error") => {
                    let msg = msg
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("leader error")
                        .to_string();
                    state.set_broken(format!("leader: {msg}"));
                    return LinkEnd::Broken;
                }
                _ => {
                    // Unknown message types are skipped (forward
                    // compatibility); the frame was CRC-valid.
                }
            },
            // A torn frame or any read failure (timeout = missed
            // heartbeats, reset = leader died mid-record): drop the
            // connection and resume from the durable cursor.
            Err(_) => {
                persist_cursors(manager, state);
                return LinkEnd::Retry;
            }
        }
    }
}

/// Durably persist the per-stripe resume cursors into each stripe store.
fn persist_cursors(manager: &SessionManager, state: &FollowState) {
    for (k, store) in manager.stores().into_iter().enumerate() {
        let seq = state.applied_seqs[k].load(Ordering::Acquire);
        if let Err(e) = ship::write_cursor(&store.config().dir, seq) {
            eprintln!("sider_server: cannot persist replication cursor: {e}");
        }
    }
}

/// Apply one shipped record to the follower's registry + store — the
/// same `ops::apply` path the API and recovery use. Idempotent: a
/// redelivered op (`lsn` at or below the session's durable LSN) is
/// skipped, a create for an existing session is skipped, a remove for an
/// absent one is skipped. An LSN *gap* — or an op that fails to apply —
/// is fatal divergence: returning `Err` breaks the link rather than
/// letting the replica drift.
fn apply_record(manager: &Arc<SessionManager>, rec: ship::ShipRecord) -> Result<(), String> {
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
            ops::apply(&mut session, kind, &rec.body).map_err(|e| format!("s{id}: {op}: {e}"))?;
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
