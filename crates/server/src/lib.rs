//! `sider_server` — a std-only HTTP/1.1 + JSON service exposing the full
//! SIDER interactive loop (paper Fig. 1, §III) over persistent sessions.
//!
//! The paper's system is a long-lived dialogue: the computer shows the
//! most informative 2-D view, the analyst marks patterns, the background
//! distribution absorbs them, repeat. In-process that dialogue is
//! `sider_core::EdaSession`; this crate puts it behind a network boundary
//! so many analysts (or scripted agents) can hold concurrent dialogues
//! with one server process:
//!
//! * [`manager::SessionManager`] — the **striped** registry of live
//!   sessions (`SIDER_STRIPES` independent shards, each with its own
//!   slot map + lock, `Arc<ThreadPool>`, and store subdirectory; dense
//!   global IDs, capacity cap, idle eviction);
//! * [`http`] — minimal HTTP/1.1: a resumable request parser and
//!   response serialization (one request per connection, fixed header
//!   set, no dates — responses are byte-deterministic);
//! * [`api`] — the route table mapping the protocol onto sessions:
//!   create/list/delete, knowledge statements, `next_view` (PCA/ICA, JSON
//!   or rendered SVG), warm `update_background` with [`RefreshStats`]
//!   counters in the response, undo, snapshot export/replay;
//! * [`Server`] — the serving edge: one readiness-driven thread
//!   ([`poller`] + the [`conn`] state machine) multiplexes every
//!   connection and hands complete requests to a worker pool sized at a
//!   small multiple of the solver pools, so open sockets are bounded only
//!   by file descriptors while solver concurrency stays bounded. It needs
//!   a unix host (epoll on Linux, `poll(2)` elsewhere).
//!
//! The warm-started solver engine (PR 1) is what makes the service
//! interactive: the first `update` on a session fits cold, every later
//! one appends into the persistent `SolverState` and re-decomposes only
//! the classes the fit moved. The deterministic pool (PR 2) is what makes
//! it testable: identical request sequences produce **byte-identical**
//! responses at any `SIDER_THREADS`, which the end-to-end test pins over a
//! real TCP socket.
//!
//! With a `--data-dir` the server is **durable**: every mutating request
//! is written through to a per-session op-log (`sider_store`), and a
//! restarted server rebuilds all sessions by replay — byte-identically,
//! so clients cannot tell a recovered server from one that never died
//! (`crates/server/tests/recovery.rs` pins exactly that over TCP).
//!
//! ```no_run
//! use sider_server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::from_env().unwrap()).unwrap();
//! eprintln!("listening on http://{}", server.local_addr());
//! server.run().unwrap(); // blocks; Ctrl-C to stop
//! ```
//!
//! [`RefreshStats`]: sider_maxent::RefreshStats

#![warn(missing_docs)]

pub mod api;
pub mod conn;
pub mod http;
pub mod manager;
pub mod poller;
pub mod replication;

use manager::{SessionManager, DEFAULT_IDLE_TIMEOUT, DEFAULT_MAX_SESSIONS};
use sider_par::ThreadPool;
use sider_store::{Store, StoreConfig};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Environment variable with the default listen address.
pub const ADDR_ENV_VAR: &str = "SIDER_ADDR";

/// Environment variable with the default session cap.
pub const MAX_SESSIONS_ENV_VAR: &str = "SIDER_MAX_SESSIONS";

/// Environment variable with the default stripe count (re-exported from
/// `sider_store`, which owns the on-disk striped layout).
pub const STRIPES_ENV_VAR: &str = sider_store::stripes::STRIPES_ENV_VAR;

/// The address used when neither `--addr` nor `SIDER_ADDR` is given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:8080";

/// Environment variable with the replication listen address (leader).
pub const SHIP_ADDR_ENV_VAR: &str = "SIDER_SHIP_ADDR";

/// Environment variable with the leader to replicate from (follower).
pub const FOLLOW_ENV_VAR: &str = "SIDER_FOLLOW";

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Maximal number of live sessions (global across stripes).
    pub max_sessions: usize,
    /// Idle lifetime before a session is evicted.
    pub idle_timeout: Duration,
    /// Execution pool size **per stripe** (`None` = `SIDER_THREADS` /
    /// available parallelism, via [`ThreadPool::from_env`]).
    pub threads: Option<usize>,
    /// Session-manager stripe count (`SIDER_STRIPES`, default 1). Each
    /// stripe owns its own slot map + lock, its own pool, and — when a
    /// store is configured — its own `stripe-{k}/` subdirectory.
    pub stripes: usize,
    /// Durable store configuration (`None` = in-memory sessions only).
    pub store: Option<StoreConfig>,
    /// Replication listen address (`--ship-addr` / `SIDER_SHIP_ADDR`):
    /// when set (and a store is configured) the server leads, streaming
    /// its WAL to any follower that connects. Port `0` picks a port.
    pub ship_addr: Option<String>,
    /// Leader to replicate from (`--follow` / `SIDER_FOLLOW`): when set
    /// the server is a read-only follower of that address.
    pub follow: Option<String>,
    /// Allow serving a data dir marked as a replica (`--promote`):
    /// clears the marker and leads from the replicated state.
    pub promote: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: DEFAULT_ADDR.to_string(),
            max_sessions: DEFAULT_MAX_SESSIONS,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            threads: None,
            stripes: 1,
            store: None,
            ship_addr: None,
            follow: None,
            promote: false,
        }
    }
}

impl ServerConfig {
    /// Defaults with `SIDER_ADDR` / `SIDER_MAX_SESSIONS` /
    /// `SIDER_STRIPES` / `SIDER_DATA_DIR` (+ `SIDER_FSYNC`,
    /// `SIDER_CHECKPOINT_EVERY`) applied. A malformed stripe count or
    /// store variable is an error, not a silently weakened setting —
    /// the stripe count participates in the on-disk layout.
    pub fn from_env() -> Result<Self, String> {
        let mut config = ServerConfig::default();
        if let Ok(addr) = std::env::var(ADDR_ENV_VAR) {
            if !addr.is_empty() {
                config.addr = addr;
            }
        }
        if let Some(max) = std::env::var(MAX_SESSIONS_ENV_VAR)
            .ok()
            .and_then(|v| v.parse().ok())
        {
            config.max_sessions = max;
        }
        if let Ok(raw) = std::env::var(STRIPES_ENV_VAR) {
            if !raw.is_empty() {
                let n: usize = raw
                    .parse()
                    .map_err(|_| format!("{STRIPES_ENV_VAR}={raw}: not a stripe count"))?;
                if n == 0 || n > sider_store::stripes::MAX_STRIPES {
                    return Err(format!(
                        "{STRIPES_ENV_VAR}={raw}: must be 1..={}",
                        sider_store::stripes::MAX_STRIPES
                    ));
                }
                config.stripes = n;
            }
        }
        if let Ok(dir) = std::env::var(sider_store::DATA_DIR_ENV_VAR) {
            if !dir.is_empty() {
                config.store = Some(StoreConfig::new(dir).with_env_overrides()?);
            }
        }
        if let Ok(addr) = std::env::var(SHIP_ADDR_ENV_VAR) {
            if !addr.is_empty() {
                config.ship_addr = Some(addr);
            }
        }
        if let Ok(addr) = std::env::var(FOLLOW_ENV_VAR) {
            if !addr.is_empty() {
                config.follow = Some(addr);
            }
        }
        Ok(config)
    }
}

/// The HTTP server: a bound listener plus the session registry.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    manager: Arc<SessionManager>,
    stop: Arc<AtomicBool>,
    /// Bound replication listener (leader with `--ship-addr`); taken by
    /// [`Server::run`] when the ship accept thread starts.
    ship_listener: Option<TcpListener>,
}

/// Handle for stopping a running [`Server`] from another thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    addr: std::net::SocketAddr,
}

impl ShutdownHandle {
    /// Ask the accept loop to exit. In-flight requests complete; the
    /// wake-up connection this sends is answered with `Connection: close`.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Bind the listen socket and build the (striped) session registry:
    /// one `ThreadPool` of `config.threads` per stripe.
    ///
    /// With a store configured this **recovers first**: every session in
    /// the data dir — every `stripe-{k}/` subdirectory when striped — is
    /// rebuilt by replay before the first connection is accepted, and
    /// recovery failure fails the bind (a server that silently dropped
    /// persisted knowledge would defeat the store). A single-stripe
    /// server keeps the flat PR-5 layout, so existing data dirs stay
    /// valid; asking for `stripes > 1` migrates a flat dir in place, and
    /// reopening a striped dir with a different count is refused.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        // Replication preconditions. The replica marker is honored
        // *before* anything is opened: serving a replica dir as a leader
        // without --promote would fork the history it was replaying.
        if config.follow.is_some() && config.ship_addr.is_some() {
            return Err(invalid(
                "--follow and --ship-addr are mutually exclusive (no chained replication)".into(),
            ));
        }
        if (config.follow.is_some() || config.ship_addr.is_some()) && config.store.is_none() {
            return Err(invalid(
                "replication requires a durable store (--data-dir)".into(),
            ));
        }
        let data_root = config.store.as_ref().map(|s| s.dir.clone());
        if let Some(root) = &data_root {
            if let Some(leader) = sider_store::ship::read_marker(root) {
                if config.follow.is_none() && !config.promote {
                    return Err(invalid(format!(
                        "{} is a replica of {leader}: serve with --follow {leader}, \
                         or --promote to take over as leader",
                        root.display()
                    )));
                }
            }
        }
        let listener = TcpListener::bind(&config.addr)?;
        let pools: Vec<Arc<ThreadPool>> = (0..config.stripes.max(1))
            .map(|_| {
                Arc::new(match config.threads {
                    Some(k) => ThreadPool::new(k),
                    None => ThreadPool::from_env(),
                })
            })
            .collect();
        let broken = |e: sider_store::StoreError| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
        };
        let manager = match config.store {
            None if pools.len() == 1 => {
                let pool = pools.into_iter().next().expect("one pool");
                SessionManager::new(pool, config.max_sessions, config.idle_timeout)
            }
            None => SessionManager::striped(pools, config.max_sessions, config.idle_timeout),
            Some(store_config) => {
                let pinned =
                    sider_store::stripes::detect_stripes(&store_config.dir).map_err(broken)?;
                if pools.len() == 1 && pinned.is_none() {
                    // Flat layout: PR-5 data dirs keep working untouched.
                    let pool = pools.into_iter().next().expect("one pool");
                    let store = Arc::new(Store::open(store_config).map_err(broken)?);
                    SessionManager::with_store(
                        pool,
                        config.max_sessions,
                        config.idle_timeout,
                        store,
                    )
                    .map_err(broken)?
                } else {
                    // Striped layout (migrating a flat dir if needed);
                    // a stripe-count mismatch with `layout.json` fails
                    // the bind inside `open_striped`.
                    SessionManager::with_striped_store(
                        pools,
                        config.max_sessions,
                        config.idle_timeout,
                        store_config,
                    )
                    .map_err(broken)?
                }
            }
        };
        // Torn-tail report: recovery truncated these WAL tails (the op
        // that never finished being acknowledged). Printed at bind so an
        // operator sees data loss before the first connection; the same
        // events are in `GET /api/store` and `sider store inspect`.
        for store in manager.stores() {
            for tail in store.recovery_report() {
                eprintln!(
                    "sider_server: recovery truncated a torn WAL tail: session s{} at byte {} ({} bytes lost)",
                    tail.session, tail.offset, tail.lost_bytes
                );
            }
        }
        if let Some(root) = &data_root {
            match &config.follow {
                Some(leader) => {
                    // (Re)write the role marker, then arm the link state;
                    // the recovered stores are the resume point.
                    sider_store::ship::write_marker(root, leader)?;
                    manager.set_follower(Arc::new(replication::FollowState::new(
                        leader.clone(),
                        manager.stripes(),
                    )));
                }
                None => {
                    if config.promote {
                        let marker = sider_store::ship::marker_path(root);
                        if marker.exists() {
                            std::fs::remove_file(&marker)?;
                        }
                    }
                }
            }
        }
        let ship_listener = match &config.ship_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        Ok(Server {
            listener,
            manager: Arc::new(manager),
            stop: Arc::new(AtomicBool::new(false)),
            ship_listener,
        })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// The bound replication address, when leading with `--ship-addr`
    /// (useful with port `0`).
    pub fn ship_addr(&self) -> Option<std::net::SocketAddr> {
        self.ship_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// The session registry (shared with all handler threads).
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// A handle that can stop [`Server::run`] from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: Arc::clone(&self.stop),
            addr: self.local_addr(),
        }
    }

    /// Serve until [`ShutdownHandle::shutdown`] is called.
    ///
    /// Replication threads (the ship accept loop and/or the follower
    /// link) start before the client event loop and are joined after it
    /// exits; they share the same stop flag.
    #[cfg(unix)]
    pub fn run(mut self) -> std::io::Result<()> {
        let repl = replication::start(self.ship_listener.take(), &self.manager, &self.stop);
        let result = self.run_events();
        repl.join();
        result
    }

    /// Serving needs a readiness poller (epoll or `poll(2)`), which only
    /// unix hosts have: elsewhere this fails with
    /// [`std::io::ErrorKind::Unsupported`] and serves nothing.
    #[cfg(not(unix))]
    pub fn run(self) -> std::io::Result<()> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "sider serve needs a unix host (epoll or poll(2))",
        ))
    }

    /// The low-frequency housekeeping thread beside the event loop:
    /// sweeps idle sessions every quarter idle-timeout (bounded to
    /// 250 ms … 60 s). Without it, eviction only happened lazily on
    /// create/list, so a server under pure read-only traffic (views,
    /// updates, session detail) never expired anything.
    #[cfg(unix)]
    fn spawn_sweeper(&self) -> std::thread::JoinHandle<()> {
        let manager = Arc::clone(&self.manager);
        let stop = Arc::clone(&self.stop);
        let interval = (self.manager.idle_timeout() / 4)
            .clamp(Duration::from_millis(250), Duration::from_secs(60));
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                std::thread::park_timeout(interval);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                manager.evict_idle();
            }
        })
    }

    /// The readiness-driven accept loop (see [`poller`] and [`conn`]).
    ///
    /// One thread multiplexes the listener, a wake pipe and every client
    /// connection over a [`poller::Poller`]. Connections advance through
    /// the [`conn::Conn`] state machine on readiness; completed requests
    /// are queued to a worker pool of `2 × total pool threads` (min 4),
    /// which bounds *request* concurrency — and with it solver-pool
    /// pressure — while *open sockets* are bounded only by file
    /// descriptors.
    /// Workers push finished responses to a completion list and write
    /// one byte to the wake pipe; the loop stages the bytes and drains
    /// them as the socket allows. Each connection carries its own
    /// read/write deadline; while any connection is open the loop wakes
    /// every [`conn::TICK`] and closes the expired ones in one pass.
    #[cfg(unix)]
    fn run_events(self) -> std::io::Result<()> {
        use conn::{Conn, ReadStep, WriteStep, TICK};
        use poller::Poller;
        use std::collections::{HashMap, VecDeque};
        use std::io::Write;
        use std::os::unix::io::AsRawFd;
        use std::os::unix::net::UnixStream;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::{Condvar, Mutex};
        use std::time::Instant;

        const LISTENER: u64 = 0;
        const WAKER: u64 = 1;

        /// Job queue feeding the worker pool; `.1` is the stop flag.
        struct Jobs {
            queue: Mutex<(VecDeque<(u64, http::Request)>, bool)>,
            ready: Condvar,
        }

        fn close_conn(
            poller: &mut Poller,
            conns: &mut HashMap<u64, Conn<TcpStream>>,
            manager: &SessionManager,
            token: u64,
        ) {
            if let Some(conn) = conns.remove(&token) {
                let _ = poller.deregister(conn.stream().as_raw_fd());
                manager.conn_closed();
            }
        }

        let sweeper = self.spawn_sweeper();

        self.listener.set_nonblocking(true)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;

        let mut poller = Poller::new()?;
        poller.register(self.listener.as_raw_fd(), LISTENER, true, false)?;
        poller.register(wake_rx.as_raw_fd(), WAKER, true, false)?;

        let jobs = Arc::new(Jobs {
            queue: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        });
        let completions: Arc<Mutex<Vec<(u64, http::Response)>>> = Arc::new(Mutex::new(Vec::new()));
        let worker_count = (self.manager.total_threads() * 2).max(4);
        let mut workers = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let jobs = Arc::clone(&jobs);
            let completions = Arc::clone(&completions);
            let manager = Arc::clone(&self.manager);
            let wake = wake_tx.try_clone()?;
            workers.push(std::thread::spawn(move || loop {
                let job = {
                    let mut state = jobs.queue.lock().expect("job lock");
                    loop {
                        if let Some(job) = state.0.pop_front() {
                            break Some(job);
                        }
                        if state.1 {
                            break None;
                        }
                        state = jobs.ready.wait(state).expect("job wait");
                    }
                };
                let Some((token, request)) = job else { break };
                // A panicking handler must cost its client a 500, never
                // the whole server.
                let response = catch_unwind(AssertUnwindSafe(|| api::handle(&manager, &request)))
                    .unwrap_or_else(|_| http::Response::error(500, "internal error"));
                completions
                    .lock()
                    .expect("completion lock")
                    .push((token, response));
                let _ = (&wake).write(&[1u8]);
            }));
        }

        let mut conns: HashMap<u64, Conn<TcpStream>> = HashMap::new();
        let mut next_token: u64 = 2; // 0/1 are the listener and the waker
        let mut next_sweep = Instant::now();
        let mut events = Vec::new();
        let mut expired: Vec<u64> = Vec::new();
        let mut scratch = vec![0u8; 64 * 1024];
        let mut fatal: Option<std::io::Error> = None;

        while !self.stop.load(Ordering::SeqCst) {
            // While a connection is open, wake every tick to check its
            // deadline; otherwise only a readiness event or shutdown
            // matters.
            let timeout = if conns.is_empty() {
                Duration::from_millis(500)
            } else {
                TICK
            };
            if let Err(e) = poller.wait(&mut events, Some(timeout)) {
                fatal = Some(e);
                break;
            }
            let now = Instant::now();

            for &ev in &events {
                match ev.token {
                    LISTENER => loop {
                        match self.listener.accept() {
                            Ok((stream, _)) => {
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                let token = next_token;
                                next_token += 1;
                                if poller
                                    .register(stream.as_raw_fd(), token, true, false)
                                    .is_err()
                                {
                                    continue;
                                }
                                self.manager.conn_opened();
                                conns.insert(token, Conn::new(stream, now));
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(_) => break, // transient accept error
                        }
                    },
                    WAKER => {
                        // Drain the wake bytes; completions are processed
                        // below on every loop turn.
                        let mut sink = [0u8; 256];
                        use std::io::Read;
                        while let Ok(n) = (&wake_rx).read(&mut sink) {
                            if n < sink.len() {
                                break;
                            }
                        }
                    }
                    token => {
                        let Some(connection) = conns.get_mut(&token) else {
                            continue; // closed earlier in this batch
                        };
                        let fd = connection.stream().as_raw_fd();
                        if connection.is_writing() {
                            if ev.writable {
                                match connection.on_writable(now) {
                                    WriteStep::Blocked => {}
                                    WriteStep::Done | WriteStep::Close => {
                                        close_conn(&mut poller, &mut conns, &self.manager, token);
                                    }
                                }
                            }
                        } else if connection.is_handling() {
                            // No interests are registered while a worker
                            // holds the request, so readiness here means
                            // ERR/HUP: the peer is gone. Close now; the
                            // completion for this token lands on a
                            // missing connection and is dropped.
                            close_conn(&mut poller, &mut conns, &self.manager, token);
                        } else if ev.readable {
                            match connection.on_readable(&mut scratch) {
                                ReadStep::Continue => {}
                                ReadStep::Dispatch(request) => {
                                    let _ = poller.modify(fd, token, false, false);
                                    let mut state = jobs.queue.lock().expect("job lock");
                                    state.0.push_back((token, request));
                                    drop(state);
                                    jobs.ready.notify_one();
                                }
                                ReadStep::Respond => match connection.on_writable(now) {
                                    WriteStep::Blocked => {
                                        let _ = poller.modify(fd, token, false, true);
                                    }
                                    WriteStep::Done | WriteStep::Close => {
                                        close_conn(&mut poller, &mut conns, &self.manager, token);
                                    }
                                },
                                ReadStep::Close => {
                                    close_conn(&mut poller, &mut conns, &self.manager, token);
                                }
                            }
                        }
                    }
                }
            }

            // Stage every completed response; most drain in one write.
            let completed: Vec<(u64, http::Response)> = {
                let mut list = completions.lock().expect("completion lock");
                std::mem::take(&mut *list)
            };
            for (token, response) in completed {
                let step = {
                    let Some(connection) = conns.get_mut(&token) else {
                        continue; // client aborted while the worker ran
                    };
                    connection.stage_response(&response);
                    let step = connection.on_writable(now);
                    if step == WriteStep::Blocked {
                        let fd = connection.stream().as_raw_fd();
                        let _ = poller.modify(fd, token, false, true);
                    }
                    step
                };
                if step != WriteStep::Blocked {
                    close_conn(&mut poller, &mut conns, &self.manager, token);
                }
            }

            // Close expired connections, one pass per tick.
            if now >= next_sweep {
                expired.extend(
                    conns
                        .iter()
                        .filter(|(_, c)| c.expired(now))
                        .map(|(&token, _)| token),
                );
                for token in expired.drain(..) {
                    close_conn(&mut poller, &mut conns, &self.manager, token);
                }
                next_sweep = now + TICK;
            }
        }

        // Shutdown: stop the workers, drop every connection, stop the
        // sweeper. In-flight requests finish computing but their
        // responses are dropped with the connections.
        {
            let mut state = jobs.queue.lock().expect("job lock");
            state.1 = true;
        }
        jobs.ready.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
        for (_, connection) in conns.drain() {
            let _ = poller.deregister(connection.stream().as_raw_fd());
            self.manager.conn_closed();
        }
        sweeper.thread().unpark();
        let _ = sweeper.join();
        match fatal {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_from_env_reads_overrides() {
        // Uses a private mutex-free check: defaults when vars are unset.
        let config = ServerConfig::default();
        assert_eq!(config.addr, DEFAULT_ADDR);
        assert_eq!(config.max_sessions, DEFAULT_MAX_SESSIONS);
        assert!(config.threads.is_none());
        assert_eq!(config.stripes, 1);
    }

    #[test]
    fn striped_bind_builds_one_pool_per_stripe() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: Some(1),
            stripes: 4,
            ..ServerConfig::default()
        })
        .unwrap();
        assert_eq!(server.manager().stripes(), 4);
        assert_eq!(server.manager().stripe_threads(), vec![1, 1, 1, 1]);
        assert_eq!(server.manager().total_threads(), 4);
    }

    #[test]
    fn bind_run_shutdown() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: Some(1),
            ..ServerConfig::default()
        })
        .unwrap();
        let handle = server.shutdown_handle();
        let joiner = std::thread::spawn(move || server.run());
        std::thread::sleep(Duration::from_millis(10));
        handle.shutdown();
        joiner.join().unwrap().unwrap();
    }
}
