//! The untraced run: set-up, the measured closed loop over HTTP, and
//! restarts that time recovery. End-to-end metrics come from here.

use crate::check::{combine, ScriptCheck};
use crate::client::{exchange, request_bytes, Stamps};
use crate::stats::{median, percentile, sorted, tail, trimmed_mean, Outcome, Tail, Tally};
use crate::workload::{Endpoint, Workload};
use sider_json::Json;
use sider_server::{Server, ServerConfig, ShutdownHandle};
use sider_store::StoreConfig;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Set-ups and rounds of restarts are repeated at least this often per
/// run (`setup_s` is the set-ups' median, `recover_s` the restarts'
/// trimmed mean)…
pub const MIN_REPS: usize = 3;
/// …and, while they are quick, until set-ups add up to this many
/// seconds…
pub const SETUP_SECONDS: f64 = 5.0;
/// …and restarts to this many: long enough to span several of the
/// host's speed swings, which last a few seconds…
pub const RECOVER_SECONDS: f64 = 10.0;
/// …but never more often than this.
pub const MAX_REPS: usize = 31;

/// Whether another repetition is due after `done` took `elapsed` of a
/// `budget` of seconds.
fn another_rep(done: usize, elapsed: f64, budget: f64) -> bool {
    done < MIN_REPS || (done < MAX_REPS && elapsed < budget)
}

/// What one run is asked to do.
#[derive(Debug)]
pub struct Env {
    /// The workload.
    pub w: &'static Workload,
    /// Workload seed.
    pub seed: u64,
    /// `--seconds`: sizes the measured phase.
    pub seconds: u64,
    /// Scratch directory of this run (data dirs live below it).
    pub dir: PathBuf,
}

impl Env {
    /// A fresh, empty directory below the run directory.
    pub fn fresh_dir(&self, tag: &str) -> Result<PathBuf, String> {
        let dir = self.dir.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Warm-up plan: one script per connection.
    pub fn warmup_plan(&self) -> Vec<Vec<u64>> {
        (0..self.w.connections).map(|c| vec![c as u64]).collect()
    }

    /// Measured plan by block: `[block][connection]` → script indices,
    /// the same number on every connection, after the warm-up indices.
    pub fn measured_blocks(&self) -> Vec<Vec<Vec<u64>>> {
        let c = self.w.connections;
        let m = self.w.scripts_per_connection(self.seconds);
        let per = self.w.scripts_per_block(self.seconds);
        (0..self.w.blocks)
            .map(|b| {
                (0..c)
                    .map(|k| (0..per).map(|j| (c + k * m + b * per + j) as u64).collect())
                    .collect()
            })
            .collect()
    }

    /// The measured plan without blocks: connection → script indices.
    pub fn measured_plan(&self) -> Vec<Vec<u64>> {
        let mut plan = vec![Vec::new(); self.w.connections];
        for block in self.measured_blocks() {
            for (k, scripts) in block.into_iter().enumerate() {
                plan[k].extend(scripts);
            }
        }
        plan
    }

    /// Sessions alive after warm-up plus the measured phase.
    pub fn sessions(&self) -> usize {
        self.w.connections * (1 + self.w.scripts_per_connection(self.seconds))
    }

    /// Sessions in the data dir the restarts recover: the warm-up and the
    /// measured scripts its server ran.
    pub fn recovered_sessions(&self) -> usize {
        if self.w.server_per_block {
            self.w.connections * (1 + self.w.scripts_per_block(self.seconds))
        } else {
            self.sessions()
        }
    }

    /// The server configuration every phase binds: the workload's layout
    /// over a durable store with its defaults (`fsync=always`).
    pub fn server_config(&self, data_dir: &Path) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_sessions: self.sessions() + 8,
            threads: Some(self.w.pool_threads),
            stripes: self.w.stripes,
            store: Some(StoreConfig::new(data_dir)),
            ..ServerConfig::default()
        }
    }
}

/// A server running on its own thread.
pub struct Running {
    /// Bound address.
    pub addr: SocketAddr,
    handle: ShutdownHandle,
    joiner: std::thread::JoinHandle<std::io::Result<()>>,
}

/// Bind (recovering whatever the data dir holds) and serve.
pub fn start(config: ServerConfig) -> Result<Running, String> {
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let joiner = std::thread::spawn(move || server.run());
    Ok(Running {
        addr,
        handle,
        joiner,
    })
}

impl Running {
    /// Stop serving and wait for the server thread.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.joiner.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Script index.
    pub script: u64,
    /// Step within the script.
    pub step: usize,
    /// Endpoint called.
    pub endpoint: Endpoint,
    /// Client timestamps.
    pub stamps: Stamps,
    /// Whether it ended in [`Outcome::Ok`].
    pub ok: bool,
}

/// Everything a phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every request, in completion order per connection.
    pub samples: Vec<Sample>,
    /// Feedback-round durations (ms).
    pub rounds_ms: Vec<f64>,
    /// Suggest latencies (ms).
    pub suggest_ms: Vec<f64>,
    /// Script index → digest of its normalized replies.
    pub digests: BTreeMap<u64, u64>,
    /// Outcomes.
    pub tally: Tally,
    /// First send to last byte over all connections.
    pub wall: Duration,
}

impl Phase {
    /// The phases of consecutive blocks as one.
    pub fn merge(parts: &[Phase]) -> Phase {
        let mut all = Phase::default();
        for p in parts {
            all.samples.extend(p.samples.iter().cloned());
            all.rounds_ms.extend(&p.rounds_ms);
            all.suggest_ms.extend(&p.suggest_ms);
            all.digests.extend(&p.digests);
            all.tally.merge(&p.tally);
            all.wall += p.wall;
        }
        all
    }

    /// Digest of the phase: per-script digests combined in script order.
    pub fn digest(&self) -> u64 {
        combine(self.digests.values().copied())
    }

    /// Requests per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.samples.len() as f64 / self.wall.as_secs_f64()
    }
}

/// Run `plan[c]` (script indices) on connection `c`, all connections at
/// once, each waiting for every reply before its next request. `split`
/// takes the traced run's connect/send/wait timestamps.
pub fn run_phase(env: &Env, addr: SocketAddr, plan: &[Vec<u64>], split: bool) -> Phase {
    let w = env.w;
    let barrier = Barrier::new(plan.len());
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .iter()
            .map(|indices| {
                let scripts: Vec<_> = indices
                    .iter()
                    .map(|&i| (i, w.script(env.seed, i)))
                    .collect();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut part = Phase::default();
                    let mut buf = Vec::with_capacity(64 * 1024);
                    barrier.wait();
                    for (index, script) in &scripts {
                        let mut check = ScriptCheck::default();
                        let mut round_start = None;
                        for (k, step) in script.steps.iter().enumerate() {
                            let id = check.id.clone().unwrap_or_default();
                            let request = request_bytes(
                                step.endpoint.method(),
                                &step.endpoint.path(&id),
                                &step.body,
                            );
                            let (reply, stamps) = exchange(addr, &request, &mut buf, split);
                            let outcome = match reply {
                                Ok(r) => check.check(w, step, r.status, &buf[r.body_at..]),
                                Err(e) => Outcome::Transport(e),
                            };
                            part.tally.record(step.endpoint.as_str(), &outcome);
                            let ok = outcome == Outcome::Ok;
                            let ms = |from: Instant| (stamps.end - from).as_secs_f64() * 1e3;
                            match (step.round, step.endpoint) {
                                (Some(_), Endpoint::Knowledge) => round_start = Some(stamps.start),
                                (Some(_), Endpoint::View) => {
                                    if let Some(from) = round_start.take() {
                                        part.rounds_ms.push(ms(from));
                                    }
                                }
                                (_, Endpoint::Suggest) => part.suggest_ms.push(ms(stamps.start)),
                                _ => {}
                            }
                            part.samples.push(Sample {
                                script: *index,
                                step: k,
                                endpoint: step.endpoint,
                                stamps,
                                ok,
                            });
                            if !ok && step.endpoint == Endpoint::Create {
                                break; // no session: the rest cannot run
                            }
                        }
                        part.digests.insert(*index, check.digest());
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    let first = parts
        .iter()
        .filter_map(|p| p.samples.first())
        .map(|s| s.stamps.start)
        .min();
    let last = parts
        .iter()
        .filter_map(|p| p.samples.last())
        .map(|s| s.stamps.end)
        .max();
    if let (Some(first), Some(last)) = (first, last) {
        phase.wall = last - first;
    }
    for part in parts {
        phase.samples.extend(part.samples);
        phase.rounds_ms.extend(part.rounds_ms);
        phase.suggest_ms.extend(part.suggest_ms);
        phase.digests.extend(part.digests);
        phase.tally.merge(&part.tally);
    }
    phase
}

/// `GET /health` on a freshly recovered server: 200, and every session
/// the measured phase left is back.
pub fn health_probe(addr: SocketAddr, sessions: usize) -> Outcome {
    let mut buf = Vec::new();
    let (reply, _) = exchange(addr, &request_bytes("GET", "/health", ""), &mut buf, false);
    let reply = match reply {
        Ok(r) => r,
        Err(e) => return Outcome::Transport(e),
    };
    if reply.status != 200 {
        return Outcome::Status(reply.status);
    }
    let have = std::str::from_utf8(&buf[reply.body_at..])
        .ok()
        .and_then(|t| Json::parse(t).ok())
        .and_then(|doc| doc.get("sessions").and_then(Json::as_num));
    match have {
        Some(n) if n == sessions as f64 => Outcome::Ok,
        other => Outcome::Check(format!("{other:?} sessions recovered, want {sessions}")),
    }
}

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// The outcome of a run: metrics, the pass/fail verdict and the record.
#[derive(Debug)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Whether every check passed.
    pub correct: bool,
    /// Requests counted by `success_rate`.
    pub tally: Tally,
    /// Run-record fields beyond the common ones.
    pub record: Vec<(&'static str, Json)>,
}

/// Push the median and the tail of a latency series, each the median
/// over blocks of its per-block value; the tail rule applies to a block's
/// own sample count, and the record names the percentile it resolved to.
pub fn latency_metrics(
    metrics: &mut Vec<Metric>,
    record: &mut Vec<(&'static str, Json)>,
    prefix: &'static str,
    blocks: &[&[f64]],
) {
    let blocks: Vec<Vec<f64>> = blocks
        .iter()
        .map(|b| sorted(b))
        .filter(|b| !b.is_empty())
        .collect();
    let Some(first) = blocks.first() else {
        return;
    };
    let t: Tail = tail(first);
    let samples: usize = blocks.iter().map(Vec::len).sum();
    let over_blocks =
        |stat: fn(&[f64]) -> f64| median(&blocks.iter().map(|b| stat(b)).collect::<Vec<_>>());
    for (name, value) in [
        ("p50", over_blocks(|b| percentile(b, 50.0))),
        ("tail", over_blocks(|b| tail(b).value)),
    ] {
        metrics.push(Metric {
            name: format!("{prefix}_{name}_ms"),
            value,
            unit: "ms",
            samples,
        });
    }
    record.push((
        prefix,
        Json::obj([
            ("tail_percentile", Json::from(format!("p{}", t.percentile))),
            ("blocks", Json::from(blocks.len())),
            ("samples_per_block", Json::from(t.samples)),
            ("beyond_tail_per_block", Json::from(t.beyond)),
        ]),
    ));
}

/// What the set-ups and restarts of a run measured.
#[derive(Debug, Default)]
struct Lifecycle {
    /// Set-up times (s).
    setups: Vec<f64>,
    /// Restart times (s).
    recovers: Vec<f64>,
    /// Rounds of restarts, and their wall time (s).
    restart_rounds: usize,
    restart_wall: f64,
    /// Digest of each set-up's warm-up replies.
    warm_digests: Vec<u64>,
    /// Warm-up outcomes.
    warm_tally: Tally,
    /// Restart probe outcomes.
    probes: Tally,
}

impl Lifecycle {
    /// One set-up: bind on a fresh data dir and run the warm-up scripts.
    fn set_up(&mut self, env: &Env) -> Result<(Running, PathBuf), String> {
        let dir = env.fresh_dir(&format!("setup-{}", self.setups.len()))?;
        let t0 = Instant::now();
        let server = start(env.server_config(&dir))?;
        let warm = run_phase(env, server.addr, &env.warmup_plan(), false);
        self.setups.push(t0.elapsed().as_secs_f64());
        self.warm_digests.push(warm.digest());
        self.warm_tally.merge(&warm.tally);
        Ok((server, dir))
    }

    /// One round of restarts at once, one per data dir: bind on it,
    /// which replays every session in it, until `/health` reports them
    /// all back.
    fn restart(&mut self, env: &Env, dirs: &[PathBuf]) -> Result<(), String> {
        let round = Instant::now();
        let barrier = Barrier::new(dirs.len());
        let runs: Vec<Result<(f64, Outcome), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = dirs
                .iter()
                .map(|dir| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        let t0 = Instant::now();
                        let server = start(env.server_config(dir))?;
                        let probe = health_probe(server.addr, env.recovered_sessions());
                        let secs = t0.elapsed().as_secs_f64();
                        server.stop()?;
                        Ok((secs, probe))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("restart thread panicked"))
                .collect()
        });
        self.restart_rounds += 1;
        self.restart_wall += round.elapsed().as_secs_f64();
        for run in runs {
            let (secs, probe) = run?;
            self.recovers.push(secs);
            self.probes.record("health", &probe);
        }
        Ok(())
    }
}

/// A run's restart dirs: `dir`, then copies of it up to one per
/// connection. A restart replays its sessions on one thread; restarting
/// on every copy at once keeps every vCPU the workload's connections
/// used busy, so each round samples all of them, not whichever one the
/// restart thread landed on.
fn restart_dirs(env: &Env, dir: PathBuf) -> Result<Vec<PathBuf>, String> {
    let mut dirs = vec![dir];
    for k in 1..env.w.connections {
        let copy = env.fresh_dir(&format!("copy-{k}"))?;
        copy_dir(&dirs[0], &copy)?;
        dirs.push(copy);
    }
    Ok(dirs)
}

/// Copy the files below `from`, recursively, into the empty dir `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |p: &Path, e: std::io::Error| format!("{}: {e}", p.display());
    for entry in std::fs::read_dir(from).map_err(|e| io(from, e))? {
        let entry = entry.map_err(|e| io(from, e))?;
        let (source, target) = (entry.path(), to.join(entry.file_name()));
        if entry.file_type().map_err(|e| io(&source, e))?.is_dir() {
            std::fs::create_dir_all(&target).map_err(|e| io(&target, e))?;
            copy_dir(&source, &target)?;
        } else {
            std::fs::copy(&source, &target).map_err(|e| io(&source, e))?;
        }
    }
    Ok(())
}

/// The untraced run. Either repeated set-ups, the measured phase block by
/// block on the last set-up's server, then repeated rounds of restarts
/// on the data dir it left; or, with a server per block, each block's
/// own set-up, the block, and one round of restarts on its data dir.
pub fn untraced(env: &Env) -> Result<Report, String> {
    let plans = env.measured_blocks();
    let mut life = Lifecycle::default();
    let mut blocks = Vec::new();
    let mut rss = None;
    if env.w.server_per_block {
        for plan in &plans {
            let (server, dir) = life.set_up(env)?;
            blocks.push(run_phase(env, server.addr, plan, false));
            // A fresh process's peak: later blocks would add what the
            // allocator kept from the servers before them.
            rss.get_or_insert_with(crate::host::peak_rss_mb);
            server.stop()?;
            let dirs = restart_dirs(env, dir)?;
            life.restart(env, &dirs)?;
            for dir in &dirs {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    } else {
        let (server, dir) = loop {
            let (server, dir) = life.set_up(env)?;
            if !another_rep(life.setups.len(), life.setups.iter().sum(), SETUP_SECONDS) {
                break (server, dir);
            }
            server.stop()?;
            let _ = std::fs::remove_dir_all(&dir);
        };
        blocks = plans
            .iter()
            .map(|plan| run_phase(env, server.addr, plan, false))
            .collect();
        rss = Some(crate::host::peak_rss_mb());
        server.stop()?;
        let dirs = restart_dirs(env, dir)?;
        while another_rep(life.restart_rounds, life.restart_wall, RECOVER_SECONDS) {
            life.restart(env, &dirs)?;
        }
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let measured = Phase::merge(&blocks);
    let mut tally = measured.tally.clone();
    tally.merge(&life.probes);

    let block_throughputs: Vec<f64> = blocks.iter().map(Phase::throughput).collect();
    let stats = if env.w.server_per_block {
        std::slice::from_ref(&measured)
    } else {
        &blocks[..]
    };
    let throughputs: Vec<f64> = stats.iter().map(Phase::throughput).collect();
    let mut metrics = vec![
        Metric {
            name: "setup_s".into(),
            value: median(&life.setups),
            unit: "s",
            samples: life.setups.len(),
        },
        Metric {
            name: "throughput_rps".into(),
            value: median(&throughputs),
            unit: "1/s",
            samples: measured.samples.len(),
        },
        Metric {
            name: "success_rate".into(),
            value: tally.success_rate(),
            unit: "ratio",
            samples: tally.attempted as usize,
        },
    ];
    let mut record = Vec::new();
    let rounds: Vec<&[f64]> = stats.iter().map(|b| b.rounds_ms.as_slice()).collect();
    latency_metrics(&mut metrics, &mut record, "feedback", &rounds);
    let suggests: Vec<&[f64]> = stats.iter().map(|b| b.suggest_ms.as_slice()).collect();
    latency_metrics(&mut metrics, &mut record, "suggest", &suggests);
    // A short single-threaded replay runs in a fast or a slow mode on a
    // shared host, switching every few seconds; the median of a
    // two-mode sample jumps between the modes from run to run, while the
    // trimmed mean moves with their mix.
    metrics.push(Metric {
        name: "recover_s".into(),
        value: trimmed_mean(&life.recovers),
        unit: "s",
        samples: life.recovers.len(),
    });
    metrics.push(Metric {
        name: "peak_rss_mb".into(),
        value: rss.unwrap_or_default(),
        unit: "MB",
        samples: 1,
    });

    let warm_digests = &life.warm_digests;
    let warm_agree = warm_digests.windows(2).all(|p| p[0] == p[1]);
    let correct = tally.failed() == 0 && life.warm_tally.failed() == 0 && warm_agree;
    let mut failures = tally.failures.clone();
    failures.extend(life.warm_tally.failures.iter().map(|f| format!("warm-up {f}")));
    if !warm_agree {
        failures.push(format!(
            "warm-up digests differ across set-ups: {warm_digests:x?}"
        ));
    }
    record.extend([
        ("digest", Json::from(format!("{:016x}", measured.digest()))),
        (
            "warmup_digest",
            Json::from(format!("{:016x}", warm_digests[0])),
        ),
        ("setup_samples_s", Json::from(life.setups)),
        ("recover_samples_s", Json::from(life.recovers)),
        ("measured_wall_s", Json::from(measured.wall.as_secs_f64())),
        ("block_throughputs_rps", Json::from(block_throughputs)),
        ("failures", Json::arr(failures.into_iter().map(Json::from))),
    ]);
    Ok(Report {
        metrics,
        correct,
        tally,
        record,
    })
}
