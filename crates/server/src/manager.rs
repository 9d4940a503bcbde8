//! The concurrent session registry behind the HTTP API.
//!
//! A [`SessionManager`] is **striped**: sessions are partitioned over
//! `N` independent stripes by a stable hash of their ID
//! ([`sider_store::stripes::stripe_of`]), and each stripe owns its own
//! slot map + lock, its own `Arc<ThreadPool>`, and (when durable) its
//! own store subdirectory (`stripe-{k}/`). Requests to sessions on
//! different stripes never touch a shared lock: the only cross-stripe
//! state is a pair of atomics (the dense ID counter and the live-session
//! count), so create/knowledge/update/view scale with the stripe count.
//! Cross-stripe reads (list, store report, eviction housekeeping)
//! aggregate per-stripe results in **global ID order**, so their output
//! is byte-identical at any stripe count. The single-stripe manager is
//! the degenerate case — `SIDER_STRIPES=1` reproduces the old behaviour
//! exactly.
//!
//! The event loop's request workers provide the concurrency across
//! sessions, each stripe's pool provides the data-parallelism within one
//! session's fit/sample/project step, and nested dispatch in `sider_par`
//! runs inline — so the layers compose without oversubscribing the
//! machine.
//!
//! Sessions are addressed by dense, monotonically increasing IDs
//! (`s1`, `s2`, …) minted from one global atomic counter shared by all
//! stripes. Dense IDs keep the API deterministic: two servers fed the
//! same request sequence mint the same IDs — and, because the stripe is
//! a pure function of the ID, place them on the same stripes — and
//! therefore produce byte-identical responses (sessions are *not*
//! secrets; deploy an authenticating proxy in front if they must be).
//!
//! Capacity is bounded twice: a hard session cap (`max_sessions`,
//! default [`DEFAULT_MAX_SESSIONS`], env `SIDER_MAX_SESSIONS`) rejects
//! creation with `429`, and **idle eviction** reclaims sessions not
//! touched for longer than the idle timeout. The cap is global across
//! stripes, enforced by an atomic reserve (no shared lock). Eviction is
//! swept on every create/list *and* by the server's low-frequency
//! housekeeping thread, so idle sessions expire even under pure
//! read-only traffic; a slot whose mutex is held by an in-flight request
//! is busy, never idle.
//!
//! When stores are attached the manager is **durable**: every session
//! created through [`SessionManager::create_logged`] starts an on-disk
//! op-log in its stripe's directory, [`SessionManager::with_striped_store`]
//! rebuilds all sessions from every stripe directory at startup
//! (byte-identically, by replay), and the persisted ID counter — each
//! stripe persists the highest global ID it has seen — guarantees
//! recovered `s{n}` IDs never collide with new ones. Deleting or
//! evicting a session removes its on-disk history too — eviction *is*
//! expiry, not a cache miss.

use crate::replication::{FollowState, Role, ShipHub, PROMOTE_STOP_TIMEOUT};
use sider_core::EdaSession;
use sider_par::ThreadPool;
use sider_store::stripes::{open_striped, stripe_of};
use sider_store::{ops, ship, Store, StoreConfig, StoreError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

/// Default cap on concurrently live sessions.
pub const DEFAULT_MAX_SESSIONS: usize = 64;

/// Default idle lifetime before a session is evicted.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(3600);

/// One live session slot: the session itself plus bookkeeping.
#[derive(Debug)]
pub struct Slot {
    /// Numeric part of the session ID (`s{id}`).
    pub id: u64,
    /// The session, serialized per-slot — two requests to the *same*
    /// session queue up; requests to different sessions run concurrently.
    pub session: Mutex<EdaSession>,
    /// Last time a request touched this slot (drives idle eviction).
    last_used: Mutex<Instant>,
}

/// A locked session that refreshes its slot's idle clock when released.
///
/// Without the release-time touch, a request running *longer than the
/// idle timeout* would leave `last_used` at its arrival time: the moment
/// it released the mutex, the housekeeping sweep could evict the session
/// — and delete its durable history — right after serving a 200.
#[derive(Debug)]
pub struct SessionGuard<'a> {
    slot: &'a Slot,
    guard: MutexGuard<'a, EdaSession>,
}

impl std::ops::Deref for SessionGuard<'_> {
    type Target = EdaSession;
    fn deref(&self) -> &EdaSession {
        &self.guard
    }
}

impl std::ops::DerefMut for SessionGuard<'_> {
    fn deref_mut(&mut self) -> &mut EdaSession {
        &mut self.guard
    }
}

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.slot.touch();
    }
}

impl Slot {
    /// The wire-format session ID (`s3`).
    pub fn id_str(&self) -> String {
        format!("s{}", self.id)
    }

    /// Lock the session for a request. Mutex poisoning (a handler panic
    /// mid-mutation) is surfaced as an error so the client sees a `500`
    /// instead of possibly-inconsistent state. The returned guard
    /// touches the idle clock again on release, so a request is never
    /// "idle" for its own duration.
    pub fn lock(&self) -> Result<SessionGuard<'_>, String> {
        let guard = self
            .session
            .lock()
            .map_err(|_| format!("session {} is poisoned by an earlier panic", self.id_str()))?;
        Ok(SessionGuard { slot: self, guard })
    }

    /// Like [`Slot::lock`] but non-blocking: `Ok(None)` when another
    /// request currently holds the session (a long refit, say) — used by
    /// the listing endpoint so it never stalls behind a busy session.
    pub fn try_lock(&self) -> Result<Option<MutexGuard<'_, EdaSession>>, String> {
        match self.session.try_lock() {
            Ok(guard) => Ok(Some(guard)),
            Err(std::sync::TryLockError::WouldBlock) => Ok(None),
            Err(std::sync::TryLockError::Poisoned(_)) => Err(format!(
                "session {} is poisoned by an earlier panic",
                self.id_str()
            )),
        }
    }

    fn touch(&self) {
        if let Ok(mut t) = self.last_used.lock() {
            *t = Instant::now();
        }
    }

    fn idle_for(&self) -> Duration {
        self.last_used
            .lock()
            .map(|t| t.elapsed())
            .unwrap_or(Duration::ZERO)
    }

    fn new(id: u64, session: EdaSession) -> Arc<Slot> {
        Arc::new(Slot {
            id,
            session: Mutex::new(session),
            last_used: Mutex::new(Instant::now()),
        })
    }
}

/// One shard of the registry: a slot map + lock, an execution pool, and
/// (when durable) a store rooted at its own `stripe-{k}/` directory.
#[derive(Debug)]
struct Stripe {
    pool: Arc<ThreadPool>,
    slots: Mutex<BTreeMap<u64, Arc<Slot>>>,
    store: Option<Arc<Store>>,
}

/// Striped concurrent registry of sessions.
#[derive(Debug)]
pub struct SessionManager {
    stripes: Vec<Stripe>,
    max_sessions: usize,
    idle_timeout: Duration,
    /// Global dense ID counter, shared by all stripes.
    next_id: AtomicU64,
    /// Currently open client connections — maintained by the event
    /// loop, reported by `/health`.
    open_conns: AtomicUsize,
    /// Global live-session count: the capacity reserve. Kept in sync
    /// with the union of the stripe maps by pairing every insert/remove
    /// with an increment/decrement.
    live: AtomicUsize,
    /// Replication role + link state. A follower is read-only (mutating
    /// endpoints 409) until promoted; a leader with a ship listener
    /// carries the hub its `/health` lag report reads.
    replication: Mutex<Replication>,
    /// The data dir the manager was opened on (where bind writes the
    /// replica marker); `None` when in-memory.
    data_root: Option<std::path::PathBuf>,
}

/// The manager's replication cell (see [`crate::replication`]).
#[derive(Debug)]
struct Replication {
    role: Role,
    follow: Option<Arc<FollowState>>,
    hub: Option<Arc<ShipHub>>,
}

impl Replication {
    fn leader() -> Self {
        Replication {
            role: Role::Leader,
            follow: None,
            hub: None,
        }
    }
}

impl SessionManager {
    /// A single-stripe manager enforcing the given capacity bounds; all
    /// sessions share `pool`. Sessions live in memory only — see
    /// [`SessionManager::with_store`] for the durable variant.
    pub fn new(pool: Arc<ThreadPool>, max_sessions: usize, idle_timeout: Duration) -> Self {
        SessionManager::striped(vec![pool], max_sessions, idle_timeout)
    }

    /// A manager with one stripe per pool (`pools.len()` stripes), each
    /// stripe's sessions sharing that stripe's pool. In-memory only.
    pub fn striped(
        pools: Vec<Arc<ThreadPool>>,
        max_sessions: usize,
        idle_timeout: Duration,
    ) -> Self {
        assert!(!pools.is_empty(), "a manager needs at least one stripe");
        SessionManager {
            stripes: pools
                .into_iter()
                .map(|pool| Stripe {
                    pool,
                    slots: Mutex::new(BTreeMap::new()),
                    store: None,
                })
                .collect(),
            max_sessions: max_sessions.max(1),
            idle_timeout,
            next_id: AtomicU64::new(1),
            open_conns: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
            replication: Mutex::new(Replication::leader()),
            data_root: None,
        }
    }

    /// A durable single-stripe manager over an already-open store — the
    /// degenerate case of [`SessionManager::with_striped_store`].
    pub fn with_store(
        pool: Arc<ThreadPool>,
        max_sessions: usize,
        idle_timeout: Duration,
        store: Arc<Store>,
    ) -> Result<Self, StoreError> {
        let root = store.config().dir.clone();
        SessionManager::from_stores(vec![pool], max_sessions, idle_timeout, vec![store], root)
    }

    /// A durable striped manager: open (or create, or migrate a legacy
    /// unstriped layout of) the striped store at `config.dir` with one
    /// stripe per pool, then rebuild every session every stripe holds
    /// (replay recovery — byte-identical to the pre-crash sessions) and
    /// resume the global ID sequence past every persisted counter and
    /// every recovered ID. The stripe count is pinned in the store's
    /// `layout.json`; reopening with a different count is a hard error.
    pub fn with_striped_store(
        pools: Vec<Arc<ThreadPool>>,
        max_sessions: usize,
        idle_timeout: Duration,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        let stores = open_striped(&config, pools.len())?
            .into_iter()
            .map(Arc::new)
            .collect();
        SessionManager::from_stores(pools, max_sessions, idle_timeout, stores, config.dir)
    }

    /// Assemble a durable manager over data dir `root` from its
    /// per-stripe stores, recovering every stripe. Recovery failure is a
    /// hard error: silently dropping a session would lose exactly the
    /// knowledge the store exists to keep.
    fn from_stores(
        pools: Vec<Arc<ThreadPool>>,
        max_sessions: usize,
        idle_timeout: Duration,
        stores: Vec<Arc<Store>>,
        root: std::path::PathBuf,
    ) -> Result<Self, StoreError> {
        assert_eq!(pools.len(), stores.len(), "one store per stripe");
        assert!(!pools.is_empty(), "a manager needs at least one stripe");
        let n = pools.len();
        let mut stripes = Vec::with_capacity(n);
        let mut next_id = 1u64;
        let mut live = 0usize;
        for (k, (pool, store)) in pools.into_iter().zip(stores).enumerate() {
            let mut slots = BTreeMap::new();
            for (id, session) in store.recover_all(&pool)? {
                debug_assert_eq!(stripe_of(id, n), k, "s{id} recovered from stripe {k}");
                next_id = next_id.max(id + 1);
                slots.insert(id, Slot::new(id, session));
            }
            live += slots.len();
            next_id = next_id.max(store.next_session_id()?);
            stripes.push(Stripe {
                pool,
                slots: Mutex::new(slots),
                store: Some(store),
            });
        }
        Ok(SessionManager {
            stripes,
            max_sessions: max_sessions.max(1),
            idle_timeout,
            next_id: AtomicU64::new(next_id),
            open_conns: AtomicUsize::new(0),
            live: AtomicUsize::new(live),
            replication: Mutex::new(Replication::leader()),
            data_root: Some(root),
        })
    }

    // -- replication ------------------------------------------------------

    /// Current replication role.
    pub fn role(&self) -> Role {
        self.replication.lock().expect("replication lock").role
    }

    /// Whether this manager serves a read-only replica: mutating
    /// endpoints are refused with `409` and idle eviction is disabled
    /// (the leader's deletes and evictions arrive as shipped `remove`s).
    pub fn read_only(&self) -> bool {
        self.role() == Role::Follower
    }

    /// Mark this manager a follower of `state.leader` (set at bind, so
    /// `/health` reports the role before the link thread even starts).
    pub fn set_follower(&self, state: Arc<FollowState>) {
        let mut repl = self.replication.lock().expect("replication lock");
        repl.role = Role::Follower;
        repl.follow = Some(state);
    }

    /// The follower link state, when following.
    pub fn follow_state(&self) -> Option<Arc<FollowState>> {
        self.replication
            .lock()
            .expect("replication lock")
            .follow
            .clone()
    }

    /// Attach the leader-side follower-connection registry.
    pub fn set_ship_hub(&self, hub: Arc<ShipHub>) {
        self.replication.lock().expect("replication lock").hub = Some(hub);
    }

    /// The leader's follower-connection registry, when shipping.
    pub fn ship_hub(&self) -> Option<Arc<ShipHub>> {
        self.replication
            .lock()
            .expect("replication lock")
            .hub
            .clone()
    }

    /// Promote a follower to leader: stop the link thread (bounded
    /// wait), clear the replica marker, and flip the role — from the
    /// first mutating request on, this process serves exactly like a
    /// leader restarted from the same data dir. `Err` when not following.
    pub fn promote(&self) -> Result<(), String> {
        let state = {
            let mut repl = self.replication.lock().expect("replication lock");
            let Some(state) = repl.follow.take() else {
                return Err("not a follower (already the leader)".into());
            };
            repl.role = Role::Leader;
            state
        };
        state.request_stop();
        let deadline = Instant::now() + PROMOTE_STOP_TIMEOUT;
        while !state.is_stopped() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if !state.is_stopped() {
            eprintln!(
                "sider_server: promote: link thread still draining after {:?}; proceeding",
                PROMOTE_STOP_TIMEOUT
            );
        }
        if let Some(root) = &self.data_root {
            let marker = ship::marker_path(root);
            if marker.exists() {
                if let Err(e) = std::fs::remove_file(&marker) {
                    eprintln!("sider_server: promote: cannot remove replica marker: {e}");
                }
            }
        }
        Ok(())
    }

    /// The next session ID this manager would mint.
    pub fn next_id(&self) -> u64 {
        self.next_id.load(Ordering::Acquire)
    }

    /// Raise the ID counter to at least `next` and persist it: a
    /// follower takes in the leader's counter, so once promoted it never
    /// re-mints an ID the leader used — even one whose session is gone.
    pub fn raise_next_id(&self, next: u64) -> Result<(), StoreError> {
        self.next_id.fetch_max(next, Ordering::AcqRel);
        match self.store() {
            Some(store) => store.persist_next_id(next),
            None => Ok(()),
        }
    }

    /// Per-stripe sums of `last_lsn` over every open session log (empty
    /// when not durable): the `/health` replication progress gauge.
    pub fn lsn_sums(&self) -> Vec<u64> {
        self.stores()
            .iter()
            .map(|store| store.horizons().iter().map(|&(_, lsn)| lsn).sum())
            .collect()
    }

    /// Replay a shipped `create` into this replica: build the session
    /// through the same `ops` path the API uses, under the **leader's**
    /// ID (IDs must match for the transcripts to), and start its local
    /// op-log. Bypasses the capacity cap — the leader already enforced
    /// it when the op was first acknowledged.
    pub fn adopt_logged(&self, id: u64, body: &sider_json::Json) -> Result<(), String> {
        let stripe = self.stripe(id);
        let session = ops::create_session(body, Arc::clone(&stripe.pool), &ops::resolve_dataset)
            .map_err(|e| e.to_string())?;
        if let Some(store) = stripe.store.as_ref() {
            store.create_session(id, body).map_err(|e| e.to_string())?;
        }
        let slot = Slot::new(id, session);
        let replaced = stripe
            .slots
            .lock()
            .expect("slots lock")
            .insert(id, slot)
            .is_some();
        if !replaced {
            self.live.fetch_add(1, Ordering::AcqRel);
        }
        self.next_id.fetch_max(id + 1, Ordering::AcqRel);
        Ok(())
    }

    /// Replay a shipped `checkpoint` record: install the checkpoint
    /// document as the session's entire on-disk history, then rebuild
    /// the in-memory session from it (the same replay recovery uses).
    /// Shipped when the leader compacted above this replica's LSN — the
    /// individual ops no longer exist.
    pub fn adopt_checkpoint(&self, id: u64, doc: &sider_json::Json) -> Result<(), String> {
        let stripe = self.stripe(id);
        let store = stripe
            .store
            .as_ref()
            .ok_or_else(|| "follower has no store".to_string())?;
        store.adopt_checkpoint(id, doc).map_err(|e| e.to_string())?;
        let session = store
            .recover_session(id, Arc::clone(&stripe.pool))
            .map_err(|e| e.to_string())?;
        let slot = Slot::new(id, session);
        let replaced = stripe
            .slots
            .lock()
            .expect("slots lock")
            .insert(id, slot)
            .is_some();
        if !replaced {
            self.live.fetch_add(1, Ordering::AcqRel);
        }
        self.next_id.fetch_max(id + 1, Ordering::AcqRel);
        Ok(())
    }

    /// The stripe a session ID lives on.
    fn stripe(&self, id: u64) -> &Stripe {
        &self.stripes[stripe_of(id, self.stripes.len())]
    }

    /// Number of stripes.
    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Stripe 0's execution pool — *the* pool of a single-stripe
    /// manager.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.stripes[0].pool
    }

    /// Per-stripe pool thread counts, in stripe order (the `/health`
    /// report).
    pub fn stripe_threads(&self) -> Vec<usize> {
        self.stripes.iter().map(|s| s.pool.threads()).collect()
    }

    /// Total pool threads across stripes (sizes the request worker pool).
    pub fn total_threads(&self) -> usize {
        self.stripes.iter().map(|s| s.pool.threads()).sum()
    }

    /// A client connection was accepted.
    pub fn conn_opened(&self) {
        self.open_conns.fetch_add(1, Ordering::AcqRel);
    }

    /// A client connection was closed.
    pub fn conn_closed(&self) {
        self.open_conns.fetch_sub(1, Ordering::AcqRel);
    }

    /// Currently open client connections (the `/health` report).
    pub fn open_connections(&self) -> usize {
        self.open_conns.load(Ordering::Acquire)
    }

    /// Stripe 0's durable store, if any. Durability is all-or-none
    /// across stripes, so this answers "is the manager durable" and
    /// carries the shared fsync/checkpoint configuration.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.stripes[0].store.as_ref()
    }

    /// The durable store holding session `id`, if any.
    pub fn store_of(&self, id: u64) -> Option<&Arc<Store>> {
        self.stripe(id).store.as_ref()
    }

    /// Per-stripe durable stores in stripe order (empty when not
    /// durable) — the store report aggregates over these.
    pub fn stores(&self) -> Vec<&Arc<Store>> {
        self.stripes
            .iter()
            .filter_map(|s| s.store.as_ref())
            .collect()
    }

    /// The idle lifetime before a session is evicted.
    pub fn idle_timeout(&self) -> Duration {
        self.idle_timeout
    }

    /// The session cap (global across stripes).
    pub fn max_sessions(&self) -> usize {
        self.max_sessions
    }

    /// Live session count across all stripes (after sweeping idle ones).
    pub fn len(&self) -> usize {
        self.evict_idle();
        self.stripes
            .iter()
            .map(|s| s.slots.lock().expect("slots lock").len())
            .sum()
    }

    /// Whether no session is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Create a session over `dataset` seeded with `seed`. Fails when the
    /// dataset is invalid or the server is at capacity (even after
    /// sweeping idle sessions).
    pub fn create(
        &self,
        dataset: sider_data::Dataset,
        seed: u64,
    ) -> Result<Arc<Slot>, CreateError> {
        self.evict_idle();
        // Reserve capacity with the global atomic — the authoritative
        // cap check without any cross-stripe lock. An over-reservation
        // (a racing create) is handed straight back.
        if self.live.fetch_add(1, Ordering::AcqRel) >= self.max_sessions {
            self.live.fetch_sub(1, Ordering::AcqRel);
            return Err(CreateError::AtCapacity(self.max_sessions));
        }
        // The ID picks the stripe — and so the pool the session computes
        // on — so it is minted *before* the session is built. A failed
        // build burns the ID; the burn is deterministic (the same request
        // sequence burns the same IDs on every server), so dense-ID
        // byte-determinism is preserved.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let stripe = self.stripe(id);
        let session = match EdaSession::with_pool(dataset, seed, Arc::clone(&stripe.pool)) {
            Ok(session) => session,
            Err(e) => {
                self.live.fetch_sub(1, Ordering::AcqRel);
                return Err(CreateError::BadDataset(e.to_string()));
            }
        };
        let slot = Slot::new(id, session);
        stripe
            .slots
            .lock()
            .expect("slots lock")
            .insert(id, Arc::clone(&slot));
        Ok(slot)
    }

    /// [`SessionManager::create`] plus durability: start the session's
    /// on-disk op-log (in its stripe's store) with `body` as its create
    /// op. If the log cannot be started the in-memory session is rolled
    /// back — a session must never exist in memory without a history the
    /// next restart can replay.
    pub fn create_logged(
        &self,
        dataset: sider_data::Dataset,
        seed: u64,
        body: &sider_json::Json,
    ) -> Result<Arc<Slot>, CreateError> {
        let slot = self.create(dataset, seed)?;
        if let Some(store) = self.store_of(slot.id) {
            if let Err(e) = store.create_session(slot.id, body) {
                self.stripe(slot.id)
                    .slots
                    .lock()
                    .expect("slots lock")
                    .remove(&slot.id);
                self.live.fetch_sub(1, Ordering::AcqRel);
                let _ = store.remove_session(slot.id);
                return Err(CreateError::Store(e.to_string()));
            }
        }
        Ok(slot)
    }

    /// Look up a session by wire ID (`"s3"`), refreshing its idle clock.
    pub fn get(&self, id_str: &str) -> Option<Arc<Slot>> {
        let id = parse_id(id_str)?;
        let slot = self
            .stripe(id)
            .slots
            .lock()
            .expect("slots lock")
            .get(&id)
            .cloned()?;
        slot.touch();
        Some(slot)
    }

    /// Delete a session; `true` when it existed. With a store attached
    /// the on-disk history goes with it.
    pub fn remove(&self, id_str: &str) -> bool {
        let Some(id) = parse_id(id_str) else {
            return false;
        };
        let existed = self
            .stripe(id)
            .slots
            .lock()
            .expect("slots lock")
            .remove(&id)
            .is_some();
        if existed {
            self.live.fetch_sub(1, Ordering::AcqRel);
            self.drop_persisted(id);
        }
        existed
    }

    /// Drop a session from memory **without** touching its on-disk
    /// history. Used when the in-memory state and the op-log have
    /// diverged (a failed WAL append after a successful apply): keeping
    /// the slot would let further ops be logged on top of a hole, and a
    /// later recovery would silently rebuild a *different* session. The
    /// next restart recovers the session at its last durable op.
    pub fn unload(&self, id: u64) -> bool {
        let existed = self
            .stripe(id)
            .slots
            .lock()
            .expect("slots lock")
            .remove(&id)
            .is_some();
        if existed {
            self.live.fetch_sub(1, Ordering::AcqRel);
        }
        existed
    }

    /// Remove a session's on-disk history (delete and eviction share it).
    /// A failure leaves a directory that would resurrect on restart —
    /// worth a log line, but not worth failing the request that already
    /// removed the in-memory session.
    fn drop_persisted(&self, id: u64) {
        if let Some(store) = self.store_of(id) {
            if let Err(e) = store.remove_session(id) {
                eprintln!("sider_server: cannot remove stored session s{id}: {e}");
            }
        }
    }

    /// All live sessions in **global ID order** (after sweeping idle
    /// ones). The cross-stripe aggregation order is what keeps listings
    /// byte-identical at any stripe count.
    pub fn list(&self) -> Vec<Arc<Slot>> {
        self.evict_idle();
        let mut all: Vec<Arc<Slot>> = self
            .stripes
            .iter()
            .flat_map(|s| {
                s.slots
                    .lock()
                    .expect("slots lock")
                    .values()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by_key(|slot| slot.id);
        all
    }

    /// Drop every session idle for longer than the timeout (including
    /// its on-disk history — eviction is expiry); returns how many were
    /// evicted, summed over stripes. A slot whose session mutex is
    /// currently held belongs to an in-flight request (e.g. a refit
    /// running longer than the idle timeout) and is never evicted,
    /// however stale its idle clock looks. Stripes are swept one at a
    /// time — the sweep never holds two stripe locks at once.
    pub fn evict_idle(&self) -> usize {
        // A replica must not expire sessions on its own clock: nobody
        // touches its slots, so everything would look idle. The leader's
        // evictions arrive as shipped `remove` records instead.
        if self.read_only() {
            return 0;
        }
        let mut evicted = Vec::new();
        for stripe in &self.stripes {
            let mut slots = stripe.slots.lock().expect("slots lock");
            slots.retain(|_, slot| {
                if slot.idle_for() <= self.idle_timeout {
                    return true;
                }
                if matches!(slot.session.try_lock(), Err(TryLockError::WouldBlock)) {
                    return true; // busy, not idle
                }
                evicted.push(slot.id);
                false
            });
        }
        if !evicted.is_empty() {
            self.live.fetch_sub(evicted.len(), Ordering::AcqRel);
        }
        for &id in &evicted {
            self.drop_persisted(id);
        }
        evicted.len()
    }
}

/// Why a session could not be created.
#[derive(Debug)]
pub enum CreateError {
    /// The dataset failed validation.
    BadDataset(String),
    /// The manager is at its session cap.
    AtCapacity(usize),
    /// The durable store could not start the session's op-log.
    Store(String),
}

/// Parse a wire session ID (`"s3"` → `3`).
pub fn parse_id(id_str: &str) -> Option<u64> {
    id_str.strip_prefix('s')?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sider_data::synthetic::three_d_four_clusters;

    fn manager(max: usize, idle: Duration) -> SessionManager {
        SessionManager::new(Arc::new(ThreadPool::new(1)), max, idle)
    }

    fn striped_manager(stripes: usize, max: usize, idle: Duration) -> SessionManager {
        let pools = (0..stripes).map(|_| Arc::new(ThreadPool::new(1))).collect();
        SessionManager::striped(pools, max, idle)
    }

    #[test]
    fn ids_are_dense_and_resolvable() {
        let m = manager(8, Duration::from_secs(60));
        let a = m.create(three_d_four_clusters(2018), 1).unwrap();
        let b = m.create(three_d_four_clusters(2018), 2).unwrap();
        assert_eq!(a.id_str(), "s1");
        assert_eq!(b.id_str(), "s2");
        assert_eq!(m.get("s1").unwrap().id, 1);
        assert!(m.get("s99").is_none());
        assert!(m.get("zzz").is_none());
        assert_eq!(m.len(), 2);
        let ids: Vec<u64> = m.list().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn capacity_is_enforced() {
        let m = manager(2, Duration::from_secs(60));
        m.create(three_d_four_clusters(2018), 1).unwrap();
        m.create(three_d_four_clusters(2018), 2).unwrap();
        assert!(matches!(
            m.create(three_d_four_clusters(2018), 3),
            Err(CreateError::AtCapacity(2))
        ));
        // Deleting frees a slot.
        assert!(m.remove("s1"));
        assert!(!m.remove("s1"));
        m.create(three_d_four_clusters(2018), 3).unwrap();
    }

    #[test]
    fn idle_sessions_are_evicted() {
        let m = manager(8, Duration::ZERO);
        m.create(three_d_four_clusters(2018), 1).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(m.evict_idle(), 1);
        assert!(m.is_empty());
        // IDs are never reused after eviction.
        let c = m.create(three_d_four_clusters(2018), 2).unwrap();
        assert_eq!(c.id_str(), "s2");
    }

    #[test]
    fn get_refreshes_idle_clock() {
        let m = manager(8, Duration::from_millis(80));
        m.create(three_d_four_clusters(2018), 1).unwrap();
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(30));
            assert!(m.get("s1").is_some(), "touching must keep it alive");
        }
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(m.evict_idle(), 1);
    }

    #[test]
    fn bad_dataset_rejected() {
        let m = manager(8, Duration::from_secs(60));
        let empty = sider_data::Dataset::unlabeled("none", sider_linalg::Matrix::zeros(0, 0));
        assert!(matches!(
            m.create(empty, 1),
            Err(CreateError::BadDataset(_))
        ));
        // The burned ID must release its capacity reservation.
        for _ in 0..8 {
            m.create(three_d_four_clusters(2018), 1).unwrap();
        }
    }

    #[test]
    fn busy_slots_are_never_evicted() {
        let m = manager(8, Duration::ZERO);
        m.create(three_d_four_clusters(2018), 1).unwrap();
        let slot = m.get("s1").unwrap();
        let guard = slot.lock().unwrap(); // simulate an in-flight request
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(m.evict_idle(), 0, "a locked slot is busy, not idle");
        drop(guard);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(m.evict_idle(), 1);
    }

    #[test]
    fn long_request_refreshes_idle_clock_on_release() {
        // A request that outlives the idle timeout must not leave its
        // session evictable the instant it finishes: the guard touches
        // the clock on release.
        let m = manager(8, Duration::from_millis(100));
        m.create(three_d_four_clusters(2018), 1).unwrap();
        let slot = m.get("s1").unwrap();
        let guard = slot.lock().unwrap();
        std::thread::sleep(Duration::from_millis(200)); // "slow request"
        drop(guard);
        assert_eq!(m.evict_idle(), 0, "just-released slot is not idle");
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(m.evict_idle(), 1, "but genuinely idle slots still expire");
    }

    #[test]
    fn store_backed_manager_recovers_and_continues_ids() {
        let dir =
            std::env::temp_dir().join(format!("sider_manager_store_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = sider_store::StoreConfig::new(&dir);
        config.fsync = sider_store::FsyncPolicy::Never;
        let pool = Arc::new(ThreadPool::new(1));
        let body = sider_json::Json::parse(r#"{"dataset":"fig2","seed":7}"#).unwrap();
        {
            let store = Arc::new(Store::open(config.clone()).unwrap());
            let m =
                SessionManager::with_store(Arc::clone(&pool), 8, Duration::from_secs(60), store)
                    .unwrap();
            let a = m
                .create_logged(three_d_four_clusters(2018), 7, &body)
                .unwrap();
            assert_eq!(a.id_str(), "s1");
            let b = m
                .create_logged(three_d_four_clusters(2018), 7, &body)
                .unwrap();
            assert!(m.remove(&b.id_str()), "delete removes history too");
        }
        let store = Arc::new(Store::open(config).unwrap());
        let m = SessionManager::with_store(Arc::clone(&pool), 8, Duration::from_secs(60), store)
            .unwrap();
        assert_eq!(m.len(), 1, "s1 recovered, deleted s2 stays gone");
        assert!(m.get("s1").is_some());
        // Recovered IDs never collide with new ones: s2 was burned.
        let c = m
            .create_logged(three_d_four_clusters(2018), 7, &body)
            .unwrap();
        assert_eq!(c.id_str(), "s3");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unload_drops_memory_but_keeps_history() {
        let dir =
            std::env::temp_dir().join(format!("sider_manager_unload_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = sider_store::StoreConfig::new(&dir);
        config.fsync = sider_store::FsyncPolicy::Never;
        let pool = Arc::new(ThreadPool::new(1));
        let body = sider_json::Json::parse(r#"{"dataset":"fig2","seed":7}"#).unwrap();
        {
            let store = Arc::new(Store::open(config.clone()).unwrap());
            let m =
                SessionManager::with_store(Arc::clone(&pool), 8, Duration::from_secs(60), store)
                    .unwrap();
            m.create_logged(three_d_four_clusters(2018), 7, &body)
                .unwrap();
            assert!(m.unload(1));
            assert!(!m.unload(1));
            assert!(m.get("s1").is_none(), "unloaded from memory");
            assert!(dir.join("sessions/s1").exists(), "history preserved");
        }
        // A restart recovers the session at its last durable op.
        let store = Arc::new(Store::open(config).unwrap());
        let m = SessionManager::with_store(pool, 8, Duration::from_secs(60), store).unwrap();
        assert!(m.get("s1").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sessions_share_the_pool() {
        let pool = Arc::new(ThreadPool::new(2));
        let m = SessionManager::new(Arc::clone(&pool), 8, Duration::from_secs(60));
        let slot = m.create(three_d_four_clusters(2018), 1).unwrap();
        let session = slot.lock().unwrap();
        assert!(Arc::ptr_eq(session.pool(), &pool));
    }

    #[test]
    fn striped_ids_stay_dense_and_route_to_their_stripe_pool() {
        let pools: Vec<Arc<ThreadPool>> = (0..4).map(|_| Arc::new(ThreadPool::new(1))).collect();
        let m = SessionManager::striped(pools.clone(), 16, Duration::from_secs(60));
        assert_eq!(m.stripes(), 4);
        assert_eq!(m.stripe_threads(), vec![1, 1, 1, 1]);
        assert_eq!(m.total_threads(), 4);
        for i in 1..=6u64 {
            let slot = m.create(three_d_four_clusters(2018), i).unwrap();
            assert_eq!(slot.id, i, "IDs stay globally dense across stripes");
            // The session computes on its stripe's pool, not stripe 0's.
            let k = stripe_of(i, 4);
            let session = slot.lock().unwrap();
            assert!(
                Arc::ptr_eq(session.pool(), &pools[k]),
                "s{i} must use stripe {k}'s pool"
            );
        }
        // get() routes by hash; list() merges stripes in global ID order.
        for i in 1..=6u64 {
            assert_eq!(m.get(&format!("s{i}")).unwrap().id, i);
        }
        let ids: Vec<u64> = m.list().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn striped_capacity_and_eviction_are_global() {
        // The cap is global across stripes, not per stripe.
        let m = striped_manager(4, 3, Duration::from_secs(60));
        for i in 1..=3u64 {
            m.create(three_d_four_clusters(2018), i).unwrap();
        }
        assert!(matches!(
            m.create(three_d_four_clusters(2018), 4),
            Err(CreateError::AtCapacity(3))
        ));
        // And so is eviction: the sweep walks every stripe.
        let m = striped_manager(4, 8, Duration::ZERO);
        for i in 1..=3u64 {
            m.create(three_d_four_clusters(2018), i).unwrap();
        }
        std::thread::sleep(Duration::from_millis(5));
        m.evict_idle();
        assert!(m.is_empty(), "eviction sweeps every stripe");
    }

    #[test]
    fn striped_store_recovers_every_stripe_and_continues_ids() {
        let dir = std::env::temp_dir().join(format!(
            "sider_manager_striped_store_test_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = sider_store::StoreConfig::new(&dir);
        config.fsync = sider_store::FsyncPolicy::Never;
        let pools = |n: usize| -> Vec<Arc<ThreadPool>> {
            (0..n).map(|_| Arc::new(ThreadPool::new(1))).collect()
        };
        let body = sider_json::Json::parse(r#"{"dataset":"fig2","seed":7}"#).unwrap();
        {
            let m = SessionManager::with_striped_store(
                pools(4),
                16,
                Duration::from_secs(60),
                config.clone(),
            )
            .unwrap();
            for i in 1..=5u64 {
                let slot = m
                    .create_logged(three_d_four_clusters(2018), i, &body)
                    .unwrap();
                assert_eq!(slot.id, i);
                // The history lands in the session's stripe directory.
                let k = stripe_of(i, 4);
                assert!(
                    dir.join(format!("stripe-{k}/sessions/s{i}/wal.log"))
                        .exists(),
                    "s{i} must be logged under stripe-{k}"
                );
            }
            assert!(m.remove("s3"), "delete removes history too");
        }
        // Reopening with a different stripe count is refused…
        assert!(SessionManager::with_striped_store(
            pools(2),
            16,
            Duration::from_secs(60),
            config.clone()
        )
        .is_err());
        // …and the pinned count recovers every stripe's sessions.
        let m = SessionManager::with_striped_store(pools(4), 16, Duration::from_secs(60), config)
            .unwrap();
        let ids: Vec<u64> = m.list().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, 4, 5], "deleted s3 stays gone");
        // The global ID counter resumes past every stripe's max.
        let c = m
            .create_logged(three_d_four_clusters(2018), 9, &body)
            .unwrap();
        assert_eq!(c.id_str(), "s6");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
