//! Seeded fault injection for the replication battery: a flaky in-tree
//! TCP proxy. Only `replication.rs` declares this module.
//!
//! Replication robustness claims are only worth something if they are
//! demonstrated against a link that actually misbehaves, and they are
//! only *debuggable* if the misbehaviour replays identically from a
//! seed. [`FlakyProxy`] sits between two sockets and forwards bytes
//! while injecting three kinds of trouble, each drawn from a
//! [`FaultSchedule`]:
//!
//! * **Splits** — writes are re-chunked into tiny seeded slices, so a
//!   length-prefixed frame routinely arrives across many reads and the
//!   receiver's partial-frame handling is exercised on every record.
//! * **Delays** — every Nth forwarded chunk stalls for a fixed number
//!   of milliseconds, stretching frames across read-timeout boundaries.
//! * **Drops** — each direction of each connection gets a seeded byte
//!   budget; when it is exhausted the whole connection is severed
//!   mid-stream (both directions, typically mid-frame), forcing the
//!   client into its reconnect/resume path.
//!
//! The proxy also models a **partition**: [`FlakyProxy::partition`]
//! severs every live connection and refuses new ones until
//! [`FlakyProxy::heal`], while the listener itself stays bound — the
//! peer sees connection resets and failed dials, not a vanished
//! address, which is exactly what a network partition looks like to a
//! reconnecting follower.
//!
//! All randomness comes from `Rng::substream` of the schedule seed and
//! a per-connection counter, so a given (schedule, connection-order)
//! pair misbehaves byte-identically across runs.

use sider_stats::Rng;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What trouble the proxy injects, and when; value-equal schedules
/// misbehave identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Master seed for every per-connection random draw.
    pub seed: u64,
    /// Re-chunk forwarded bytes into seeded 1–16 byte slices.
    pub split: bool,
    /// Stall every Nth forwarded chunk (0 disables delays).
    pub delay_every: usize,
    /// How long each injected stall lasts, milliseconds.
    pub delay_ms: u64,
    /// Approximate per-direction byte budget before the connection is
    /// severed mid-stream (0 disables drops). The actual budget is a
    /// seeded draw in `[drop_after/2, drop_after*3/2)`.
    pub drop_after: usize,
}

impl FaultSchedule {
    /// The default battery: splits on, a 2 ms stall every 7th chunk,
    /// connections severed after roughly 8 KiB per direction.
    pub fn flaky() -> FaultSchedule {
        FaultSchedule {
            seed: 2018,
            split: true,
            delay_every: 7,
            delay_ms: 2,
            drop_after: 8192,
        }
    }

    /// A schedule that forwards faithfully — useful as a controllable
    /// network hop (partition tests) without any injected trouble.
    pub fn clean() -> FaultSchedule {
        FaultSchedule {
            seed: 2018,
            split: false,
            delay_every: 0,
            delay_ms: 0,
            drop_after: 0,
        }
    }
}

/// Counters and kill-switches shared between the accept loop, the pump
/// threads, and the [`FlakyProxy`] handle.
struct Shared {
    stop: AtomicBool,
    partitioned: AtomicBool,
    conns: AtomicUsize,
    drops: AtomicUsize,
    bytes: AtomicU64,
    // `try_clone` handles used only to sever live connections from the
    // control side; pumps notice via read/write errors.
    kill: Mutex<Vec<TcpStream>>,
}

impl Shared {
    fn sever_all(&self) {
        let mut kill = self.kill.lock().expect("kill lock");
        for stream in kill.drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// A seeded flaky TCP proxy: listens on an ephemeral local port and
/// forwards every accepted connection to `target`, injecting the
/// trouble described by its [`FaultSchedule`].
pub struct FlakyProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl FlakyProxy {
    /// Bind `127.0.0.1:0` and start proxying to `target`.
    pub fn start(target: SocketAddr, schedule: FaultSchedule) -> std::io::Result<FlakyProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            partitioned: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            drops: AtomicUsize::new(0),
            bytes: AtomicU64::new(0),
            kill: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, target, schedule, shared))
        };
        Ok(FlakyProxy {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The address clients should dial instead of the target.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far (including ones later severed).
    pub fn conns(&self) -> usize {
        self.shared.conns.load(Ordering::Relaxed)
    }

    /// Connections severed by an exhausted drop budget.
    pub fn drops(&self) -> usize {
        self.shared.drops.load(Ordering::Relaxed)
    }

    /// Total bytes forwarded across all connections and directions.
    pub fn bytes(&self) -> u64 {
        self.shared.bytes.load(Ordering::Relaxed)
    }

    /// Sever every live connection and refuse new ones until
    /// [`FlakyProxy::heal`]. The listener stays bound, so the peer's
    /// reconnect loop keeps dialing the same address.
    pub fn partition(&self) {
        self.shared.partitioned.store(true, Ordering::SeqCst);
        self.shared.sever_all();
    }

    /// End a [`FlakyProxy::partition`]: new connections forward again.
    pub fn heal(&self) {
        self.shared.partitioned.store(false, Ordering::SeqCst);
    }

    /// Stop the proxy: sever live connections and join the accept loop.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.sever_all();
        // Unblock the accept loop; it re-checks `stop` per connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for FlakyProxy {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.halt();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    target: SocketAddr,
    schedule: FaultSchedule,
    shared: Arc<Shared>,
) {
    let mut conn_index = 0u64;
    for incoming in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(client) = incoming else { continue };
        if shared.partitioned.load(Ordering::SeqCst) {
            // Partitioned: the SYN succeeded (the listener is bound)
            // but the connection dies immediately — a reset, the same
            // thing a mid-partition TCP stack would eventually deliver.
            drop(client);
            continue;
        }
        let Ok(upstream) = TcpStream::connect(target) else {
            drop(client);
            continue;
        };
        shared.conns.fetch_add(1, Ordering::Relaxed);
        let _ = client.set_nodelay(true);
        let _ = upstream.set_nodelay(true);
        {
            let mut kill = shared.kill.lock().expect("kill lock");
            if let (Ok(c), Ok(u)) = (client.try_clone(), upstream.try_clone()) {
                kill.push(c);
                kill.push(u);
            }
        }
        // Two pump threads per connection, each with its own seeded
        // substream and drop budget; either one severing the pair
        // makes the other's next read/write fail.
        for dir in 0..2u64 {
            let (from, to) = if dir == 0 {
                (client.try_clone(), upstream.try_clone())
            } else {
                (upstream.try_clone(), client.try_clone())
            };
            let (Ok(from), Ok(to)) = (from, to) else {
                continue;
            };
            let schedule = schedule.clone();
            let shared = Arc::clone(&shared);
            let rng = Rng::substream(schedule.seed, conn_index * 2 + dir);
            std::thread::spawn(move || pump(from, to, &schedule, rng, &shared));
        }
        conn_index += 1;
    }
}

/// Forward bytes one direction, applying the schedule; returns when the
/// stream ends, errors, or the seeded drop budget is exhausted.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    schedule: &FaultSchedule,
    mut rng: Rng,
    shared: &Shared,
) {
    let budget = if schedule.drop_after > 0 {
        schedule.drop_after / 2 + rng.below(schedule.drop_after.max(1))
    } else {
        usize::MAX
    };
    let mut forwarded = 0usize;
    let mut chunks = 0usize;
    let mut buf = [0u8; 4096];
    'outer: loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut off = 0;
        while off < n {
            let take = if schedule.split {
                (1 + rng.below(16)).min(n - off)
            } else {
                n - off
            };
            if to.write_all(&buf[off..off + take]).is_err() {
                break 'outer;
            }
            off += take;
            forwarded += take;
            chunks += 1;
            shared.bytes.fetch_add(take as u64, Ordering::Relaxed);
            if schedule.delay_every > 0
                && schedule.delay_ms > 0
                && chunks.is_multiple_of(schedule.delay_every)
            {
                std::thread::sleep(Duration::from_millis(schedule.delay_ms));
            }
            if forwarded >= budget {
                shared.drops.fetch_add(1, Ordering::Relaxed);
                break 'outer;
            }
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

mod tests {
    use super::*;

    /// An echo server good for one connection at a time.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo addr");
        let join = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                let mut buf = [0u8; 1024];
                loop {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if stream.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, join)
    }

    #[test]
    fn split_schedule_forwards_bytes_intact() {
        let (echo, _join) = echo_server();
        let mut schedule = FaultSchedule::clean();
        schedule.split = true;
        let proxy = FlakyProxy::start(echo, schedule).expect("proxy");
        let mut conn = TcpStream::connect(proxy.local_addr()).expect("dial");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let message = (0..=255u8).cycle().take(3000).collect::<Vec<_>>();
        conn.write_all(&message).expect("send");
        let mut back = vec![0u8; message.len()];
        conn.read_exact(&mut back).expect("echo back");
        assert_eq!(back, message, "splitting must not corrupt the stream");
        assert_eq!(proxy.conns(), 1);
        // A pump counts a chunk only after its `write_all`, so the echo can
        // reach us before the last chunk is counted: wait for the counter.
        let want = 2 * message.len() as u64;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while proxy.bytes() < want && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(proxy.bytes() >= want, "{} of {want} bytes", proxy.bytes());
        proxy.stop();
    }

    #[test]
    fn drop_budget_severs_the_connection() {
        let (echo, _join) = echo_server();
        let mut schedule = FaultSchedule::clean();
        schedule.drop_after = 512;
        let proxy = FlakyProxy::start(echo, schedule).expect("proxy");
        let mut conn = TcpStream::connect(proxy.local_addr()).expect("dial");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Push far more than the budget; the proxy must cut us off.
        let chunk = [7u8; 256];
        let mut echoed = Vec::new();
        let mut cut = false;
        for _ in 0..64 {
            if conn.write_all(&chunk).is_err() {
                cut = true;
                break;
            }
            let mut buf = [0u8; 256];
            match conn.read(&mut buf) {
                Ok(0) | Err(_) => {
                    cut = true;
                    break;
                }
                Ok(n) => echoed.extend_from_slice(&buf[..n]),
            }
        }
        assert!(cut, "connection must be severed by the drop budget");
        assert!(proxy.drops() >= 1);
        assert!(
            echoed.iter().all(|&b| b == 7),
            "bytes that do arrive are never corrupted"
        );
        proxy.stop();
    }

    #[test]
    fn partition_refuses_and_heal_restores() {
        let (echo, _join) = echo_server();
        let proxy = FlakyProxy::start(echo, FaultSchedule::clean()).expect("proxy");
        let mut before = TcpStream::connect(proxy.local_addr()).expect("dial");
        before
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        before.write_all(b"ping").expect("send");
        let mut buf = [0u8; 4];
        before.read_exact(&mut buf).expect("echo");
        proxy.partition();
        // The live connection was severed: reads now fail or EOF.
        let dead = matches!(before.read(&mut buf), Ok(0) | Err(_));
        assert!(dead, "partition must sever live connections");
        // New connections die immediately while partitioned.
        let mut during = TcpStream::connect(proxy.local_addr()).expect("SYN still lands");
        during
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = during.write_all(b"ping");
        let refused = matches!(during.read(&mut buf), Ok(0) | Err(_));
        assert!(refused, "partitioned proxy must not forward");
        proxy.heal();
        let mut after = TcpStream::connect(proxy.local_addr()).expect("dial after heal");
        after
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        after.write_all(b"back").expect("send after heal");
        after.read_exact(&mut buf).expect("echo after heal");
        assert_eq!(&buf, b"back");
        proxy.stop();
    }
}
