//! `sider` — the headless command-line counterpart of the paper's SIDER
//! application.
//!
//! ```text
//! sider overview --data points.csv [--out out]
//!     Column statistics + a class-free pairplot of a CSV dataset.
//!
//! sider explore --data points.csv [--method pca|ica] [--iterations N]
//!               [--threshold T] [--seed S] [--margins] [--one-cluster]
//!               [--out out]
//!     Run the full interactive loop of the paper (Fig. 1) with a
//!     simulated analyst: show the most informative view, mark perceived
//!     clusters, update the background distribution, repeat. Each view is
//!     written as an SVG; the per-iteration scores (Table-I style) and
//!     the information absorbed (in nats) are printed.
//!
//! sider demo <fig2|xhat5|bnc|segmentation> [explore's flags but --data]
//!     The same, on the paper's built-in datasets.
//!
//! sider serve [--addr HOST:PORT] [--max-sessions N] [--threads K]
//!             [--stripes S] [--data-dir DIR]
//!             [--fsync always|never|N] [--checkpoint-every N]
//!             [--ship-addr HOST:PORT] [--follow HOST:PORT] [--promote]
//!     Run the HTTP/1.1 + JSON exploration service: many concurrent
//!     sessions over S independent session-manager stripes, each with
//!     its own execution pool of K threads, each session driving the
//!     full loop (views, knowledge, warm background updates, snapshots,
//!     SVG rendering). Connections are served by a readiness-based
//!     event loop with no cap on open connections, so the server needs
//!     a unix host (epoll on Linux, poll(2) elsewhere). With --data-dir
//!     the server is durable: every mutating request is written through
//!     to a per-session op-log (per-stripe `stripe-{k}/` subdirectories
//!     when S > 1) and a restart recovers all sessions byte-identically.
//!     Defaults honor SIDER_ADDR / SIDER_MAX_SESSIONS / SIDER_THREADS /
//!     SIDER_STRIPES / SIDER_DATA_DIR / SIDER_FSYNC /
//!     SIDER_CHECKPOINT_EVERY; see docs/ARCHITECTURE.md for the wire
//!     protocol and on-disk format. With --ship-addr the (durable)
//!     server is a replication leader: it streams every stripe's WAL
//!     records to connected followers. With --follow it is a read-only
//!     follower replaying a leader's op-log (mutating endpoints answer
//!     409; POST /api/promote or --promote turns it into a serving
//!     leader). Defaults honor SIDER_SHIP_ADDR / SIDER_FOLLOW.
//!
//! sider suggest (--data FILE.csv | --dataset fig2|xhat5|bnc|segmentation)
//!               [--seed S] [--batch N] [--k K] [--margins] [--one-cluster]
//!               [--json]
//!     Guided exploration: generate a deterministic batch of candidate
//!     2-D projections (PCA/ICA pairs of the current fit, attribute
//!     pairs, seed-derived random planes), score each by the information
//!     gain of its projected data against the background distribution,
//!     and print the ranked top-k. The same engine backs
//!     POST /api/sessions/{id}/suggest on a running server.
//!
//! sider loadgen --addr HOST:PORT [--sessions N] [--requests N]
//!               [--rps R] [--workers K] [--seed S] [--churn]
//!               [--suggest SHARE] [--out FILE.json]
//!     Replay a fixed-seed open-loop mixed workload (create / knowledge /
//!     warm update / view / snapshot) against a running server and print
//!     the per-endpoint p50/p99/p999 latency + throughput report as
//!     JSON. --churn additionally opens a short-lived aborted or empty
//!     connection alongside every scheduled request, stressing the
//!     server's accept/teardown path. --suggest dedicates SHARE
//!     (0.0..=1.0) of the mixed phase to guided-exploration suggest
//!     calls. Defaults are the full BENCH_serve workload, or the smoke
//!     workload when SIDER_BENCH_SMOKE=1.
//!
//! sider store inspect <DIR>
//!     Print a JSON report over a data dir — flat or striped
//!     (`stripe-{k}/`) layout: the persisted session-ID counter,
//!     per-stripe totals when striped, and, per session, last LSN, WAL
//!     record/byte counts, checkpoint size/LSN and whether the WAL tail
//!     is torn.
//! ```
//!
//! Every command refuses a flag it does not read. The CSV format is the
//! one written by `sider::data::csv`: a header row of column names, then
//! one numeric row per data point.

use sider::core::report::{format_convergence, format_score_table};
use sider::core::{explore, EdaSession, ExplorationConfig, SimulatedUser};
use sider::data::Dataset;
use sider::maxent::FitOpts;
use sider::projection::{IcaOpts, Method};
use std::io::BufReader;
use std::path::PathBuf;
use std::process::ExitCode;

/// Minimal `--key value` argument parser.
#[derive(Debug, Default)]
struct Cli {
    command: String,
    pairs: Vec<(String, String)>,
    /// Bare (non `--`) arguments, for subcommand-style commands (`store
    /// inspect <dir>`).
    positionals: Vec<String>,
}

impl Cli {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut iter = args.into_iter().peekable();
        let command = iter.next().ok_or("missing command")?;
        let mut pairs = Vec::new();
        let mut positionals = Vec::new();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = if iter.peek().is_some_and(|v| !v.starts_with("--")) {
                    iter.next().unwrap()
                } else {
                    "true".to_string()
                };
                pairs.push((key.to_string(), value));
            } else if command == "demo" && pairs.is_empty() && positionals.is_empty() {
                pairs.push(("dataset".to_string(), arg));
            } else if command == "store" {
                positionals.push(arg);
            } else {
                return Err(format!("unexpected argument: {arg}"));
            }
        }
        Ok(Cli {
            command,
            pairs,
            positionals,
        })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1") | Some("yes"))
    }

    /// Refuse any `--key` outside `keys`, the keys the command reads, so a
    /// misspelled or removed flag never runs the command on its defaults.
    fn only(&self, keys: &[&str]) -> Result<(), String> {
        match self.pairs.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
            Some((key, _)) => Err(format!(
                "unknown flag --{key} for sider {}\n{USAGE}",
                self.command
            )),
            None => Ok(()),
        }
    }
}

/// The flags `explore` and `demo` read besides the one naming their data.
const EXPLORE_FLAGS: [&str; 7] = [
    "out",
    "seed",
    "iterations",
    "threshold",
    "method",
    "margins",
    "one-cluster",
];

const USAGE: &str = "usage:
  sider overview --data FILE.csv [--out DIR]
  sider explore  --data FILE.csv [--method pca|ica] [--iterations N]
                 [--threshold T] [--seed S] [--margins] [--one-cluster]
                 [--out DIR]
  sider demo     <fig2|xhat5|bnc|segmentation> [--method pca|ica]
                 [--iterations N] [--threshold T] [--seed S] [--margins]
                 [--one-cluster] [--out DIR]
  sider serve    [--addr HOST:PORT] [--max-sessions N] [--threads K]
                 [--stripes S] [--data-dir DIR]
                 [--fsync always|never|N] [--checkpoint-every N]
                 [--ship-addr HOST:PORT] [--follow HOST:PORT] [--promote]
  sider suggest  (--data FILE.csv | --dataset fig2|xhat5|bnc|segmentation)
                 [--seed S] [--batch N] [--k K] [--margins] [--one-cluster]
                 [--json]
  sider loadgen  --addr HOST:PORT [--sessions N] [--requests N] [--rps R]
                 [--workers K] [--seed S] [--churn] [--suggest SHARE]
                 [--out FILE.json]
  sider store    inspect <DIR>";

fn load_csv(path: &str) -> Result<Dataset, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let (header, matrix) = sider::data::csv::read_matrix(BufReader::new(file))
        .map_err(|e| format!("cannot parse {path}: {e}"))?;
    let mut ds = Dataset::unlabeled(
        PathBuf::from(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "data".into()),
        matrix,
    );
    ds.column_names = header;
    ds.validate()?;
    Ok(ds)
}

/// A builtin dataset by name, from the table a server's create op uses,
/// so `sider demo bnc` explores the corpus of a server's `bnc` session.
/// A name is all it takes: the create op's inline CSV has no flag here.
fn builtin(name: &str) -> Result<Dataset, String> {
    let body = sider::json::Json::obj([("dataset", sider::json::Json::from(name))]);
    sider::store::ops::resolve_dataset(&body)
        .map_err(|_| format!("unknown dataset '{name}' (fig2|xhat5|bnc|segmentation)\n{USAGE}"))
}

fn cmd_overview(cli: &Cli) -> Result<(), String> {
    cli.only(&["data", "out"])?;
    let data = cli.get("data").ok_or(format!("--data required\n{USAGE}"))?;
    let out: PathBuf = cli.get_or("out", "out".to_string())?.into();
    let ds = load_csv(data)?;
    println!("{}: {} rows × {} columns", ds.name, ds.n(), ds.d());
    let stats = sider::stats::descriptive::column_stats(&ds.matrix);
    let mut table = sider::core::report::TextTable::new(&["column", "mean", "sd", "min", "max"]);
    for (name, s) in ds.column_names.iter().zip(&stats) {
        table.row(vec![
            name.clone(),
            format!("{:.4}", s.mean),
            format!("{:.4}", s.sd),
            format!("{:.4}", s.min),
            format!("{:.4}", s.max),
        ]);
    }
    println!("{}", table.render());
    if ds.d() <= 12 {
        let columns: Vec<Vec<f64>> = (0..ds.d()).map(|j| ds.matrix.col(j)).collect();
        let path = out.join(format!("{}_pairplot.svg", ds.name));
        sider::plot::Pairplot::new(
            format!("{} pairplot", ds.name),
            columns,
            ds.column_names.clone(),
        )
        .save(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("pairplot written to {}", path.display());
    } else {
        println!("(pairplot skipped: {} columns > 12)", ds.d());
    }
    Ok(())
}

fn cmd_explore(cli: &Cli) -> Result<(), String> {
    cli.only(&[["data"].as_slice(), &EXPLORE_FLAGS].concat())?;
    let data = cli.get("data").ok_or(format!("--data required\n{USAGE}"))?;
    run_exploration(cli, load_csv(data)?)
}

fn cmd_demo(cli: &Cli) -> Result<(), String> {
    cli.only(&[["dataset"].as_slice(), &EXPLORE_FLAGS].concat())?;
    let name = cli
        .get("dataset")
        .ok_or(format!("demo needs a dataset\n{USAGE}"))?;
    run_exploration(cli, builtin(name)?)
}

/// The exploration loop of `explore` and `demo` on `ds`, with the
/// `EXPLORE_FLAGS` settings.
fn run_exploration(cli: &Cli, ds: Dataset) -> Result<(), String> {
    let out: PathBuf = cli.get_or("out", "out".to_string())?.into();
    let seed: u64 = cli.get_or("seed", 7u64)?;
    let iterations: usize = cli.get_or("iterations", 6usize)?;
    let threshold: f64 = cli.get_or("threshold", 0.02f64)?;
    let method = match cli.get("method").unwrap_or("pca") {
        "pca" => Method::Pca,
        "ica" => Method::Ica(IcaOpts::default()),
        other => return Err(format!("unknown method: {other} (pca|ica)")),
    };
    let name = ds.name.clone();
    println!("exploring {name}: {} rows × {} columns", ds.n(), ds.d());

    let mut session = EdaSession::new(ds, seed).map_err(|e| e.to_string())?;
    if cli.flag("margins") {
        session
            .add_margin_constraints()
            .map_err(|e| e.to_string())?;
    }
    if cli.flag("one-cluster") {
        session
            .add_one_cluster_constraint()
            .map_err(|e| e.to_string())?;
    }
    if session.is_dirty() {
        let report = session
            .update_background(&FitOpts::default())
            .map_err(|e| e.to_string())?;
        println!(
            "initial knowledge absorbed: {}",
            format_convergence(&report)
        );
    }

    let mut user = SimulatedUser::new(6, (session.dataset().n() / 30).max(3), seed ^ 0xFACE);
    let config = ExplorationConfig {
        method,
        fit: FitOpts {
            time_cutoff: Some(std::time::Duration::from_secs(10)),
            ..FitOpts::default()
        },
        max_iterations: iterations,
        score_threshold: threshold,
    };
    let records = explore(&mut session, &mut user, &config).map_err(|e| e.to_string())?;
    println!("\n{}", format_score_table(&records, config.method.prefix()));
    for r in &records {
        println!("[iteration {}] {}", r.iteration, r.axis_labels[0]);
        println!("              {}", r.axis_labels[1]);
        if r.stopped {
            println!("              no notable difference left — stopped");
        } else {
            println!(
                "              marked {} cluster(s): sizes {:?}",
                r.marked_clusters.len(),
                r.marked_clusters.iter().map(Vec::len).collect::<Vec<_>>()
            );
        }
    }
    println!(
        "\ninformation absorbed: {:.1} nats over {} knowledge statements",
        session.information_nats(),
        session.knowledge().len()
    );

    // Re-render the final view for the artifact.
    let view = session
        .next_view(&config.method)
        .map_err(|e| e.to_string())?;
    let path = out.join(format!("{name}_final_view.svg"));
    view.to_scatter_plot(&format!("{name}: final view"), None)
        .save(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("final view written to {}", path.display());

    // Persist the accumulated knowledge so the session can be replayed:
    // the file is the wire snapshot, so `POST /api/sessions/{id}/snapshot`
    // (or `wire::snapshot_from_json` on a fresh session) takes it as is.
    let snap_path = out.join(format!("{name}_session.json"));
    let snapshot = sider::core::wire::snapshot_to_json(&session).dump() + "\n";
    std::fs::write(&snap_path, snapshot)
        .map_err(|e| format!("cannot write {}: {e}", snap_path.display()))?;
    println!("session snapshot written to {}", snap_path.display());
    Ok(())
}

fn cmd_serve(cli: &Cli) -> Result<(), String> {
    cli.only(&[
        "addr",
        "max-sessions",
        "threads",
        "stripes",
        "data-dir",
        "fsync",
        "checkpoint-every",
        "ship-addr",
        "follow",
        "promote",
    ])?;
    let mut config = sider::server::ServerConfig::from_env()?;
    if let Some(addr) = cli.get("addr") {
        config.addr = addr.to_string();
    }
    config.max_sessions = cli.get_or("max-sessions", config.max_sessions)?;
    if let Some(threads) = cli.get("threads") {
        config.threads = Some(
            threads
                .parse()
                .map_err(|_| format!("invalid value for --threads: {threads}"))?,
        );
    }
    config.stripes = cli.get_or("stripes", config.stripes)?;
    if let Some(dir) = cli.get("data-dir") {
        // --data-dir overrides SIDER_DATA_DIR but keeps the env-level
        // fsync/checkpoint tuning unless flags override those too.
        config.store = Some(sider::store::StoreConfig::new(dir).with_env_overrides()?);
    }
    if let Some(policy) = cli.get("fsync") {
        let store = config
            .store
            .as_mut()
            .ok_or("--fsync requires --data-dir (or SIDER_DATA_DIR)")?;
        store.fsync = sider::store::FsyncPolicy::parse(policy)?;
    }
    if let Some(every) = cli.get("checkpoint-every") {
        let store = config
            .store
            .as_mut()
            .ok_or("--checkpoint-every requires --data-dir (or SIDER_DATA_DIR)")?;
        store.checkpoint_every = every
            .parse::<u64>()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("invalid value for --checkpoint-every: {every}"))?;
    }
    if let Some(ship) = cli.get("ship-addr") {
        config.ship_addr = Some(ship.to_string());
    }
    if let Some(leader) = cli.get("follow") {
        config.follow = Some(leader.to_string());
    }
    if cli.flag("promote") {
        config.promote = true;
    }
    let replication = if let Some(leader) = &config.follow {
        Some(format!(
            "read-only follower replicating from {leader} (POST /api/promote to take over)"
        ))
    } else {
        config
            .ship_addr
            .as_ref()
            .map(|_| "leader shipping WAL records to followers".to_string())
    };
    let durability = config.store.as_ref().map(|s| {
        format!(
            "durable in {} (fsync {}, checkpoint every {} ops)",
            s.dir.display(),
            s.fsync.as_string(),
            s.checkpoint_every
        )
    });
    let server = sider::server::Server::bind(config).map_err(|e| format!("cannot bind: {e}"))?;
    println!(
        "sider serve: listening on http://{} ({} stripes × {} pool threads, {} session slots, {} recovered)",
        server.local_addr(),
        server.manager().stripes(),
        server.manager().pool().threads(),
        server.manager().max_sessions(),
        server.manager().len(),
    );
    match durability {
        Some(line) => println!("sider serve: {line}"),
        None => println!("sider serve: in-memory sessions only (pass --data-dir to persist)"),
    }
    if let Some(line) = replication {
        match server.ship_addr() {
            Some(addr) => println!("sider serve: {line} (shipping on {addr})"),
            None => println!("sider serve: {line}"),
        }
    }
    println!("try: curl -s http://{}/health", server.local_addr());
    server.run().map_err(|e| format!("server error: {e}"))
}

fn cmd_loadgen(cli: &Cli) -> Result<(), String> {
    cli.only(&[
        "addr", "sessions", "requests", "rps", "workers", "seed", "churn", "suggest", "out",
    ])?;
    let addr = cli.get("addr").ok_or(format!("--addr required\n{USAGE}"))?;
    let mut config = sider::loadgen::LoadConfig::from_env(addr);
    config.sessions = cli.get_or("sessions", config.sessions)?;
    config.requests = cli.get_or("requests", config.requests)?;
    config.rps = cli.get_or("rps", config.rps)?;
    config.workers = cli.get_or("workers", config.workers)?;
    config.seed = cli.get_or("seed", config.seed)?;
    config.churn = cli.flag("churn");
    config.suggest = cli.get_or("suggest", config.suggest)?;
    if config.sessions == 0 || config.rps <= 0.0 {
        return Err("loadgen needs --sessions >= 1 and --rps > 0".into());
    }
    if !(0.0..=1.0).contains(&config.suggest) {
        return Err(format!(
            "--suggest must be a share in 0.0..=1.0, got {}",
            config.suggest
        ));
    }
    eprintln!(
        "sider loadgen: {} sessions, {} mixed requests at {} req/s (seed {}{}) against http://{}",
        config.sessions,
        config.requests,
        config.rps,
        config.seed,
        if config.churn {
            ", with connection churn"
        } else {
            ""
        },
        config.addr
    );
    let report = sider::loadgen::run(&config)?;
    let json = report.to_json().dump_pretty();
    match cli.get("out") {
        Some(path) => {
            std::fs::write(path, format!("{json}\n"))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("sider loadgen: report written to {path}");
        }
        None => println!("{json}"),
    }
    if report.total_errors > 0 {
        return Err(format!(
            "{} of {} requests failed",
            report.total_errors, report.total_requests
        ));
    }
    Ok(())
}

fn cmd_suggest(cli: &Cli) -> Result<(), String> {
    cli.only(&[
        "data",
        "dataset",
        "seed",
        "batch",
        "k",
        "margins",
        "one-cluster",
        "json",
    ])?;
    let ds = match (cli.get("data"), cli.get("dataset")) {
        (Some(path), None) => load_csv(path)?,
        (None, Some(name)) => builtin(name)?,
        _ => {
            return Err(format!(
                "suggest needs exactly one of --data or --dataset\n{USAGE}"
            ))
        }
    };
    let seed: u64 = cli.get_or("seed", 7u64)?;
    let request = sider::core::wire::SuggestRequest {
        seed,
        batch: cli.get_or("batch", sider::core::wire::DEFAULT_SUGGEST_BATCH)?,
        k: cli.get_or("k", sider::core::wire::DEFAULT_SUGGEST_K)?,
    };
    if request.batch == 0 || request.batch > sider::core::wire::MAX_SUGGEST_BATCH {
        return Err(format!(
            "--batch must be in 1..={}, got {}",
            sider::core::wire::MAX_SUGGEST_BATCH,
            request.batch
        ));
    }
    if request.k == 0 || request.k > request.batch {
        return Err(format!(
            "--k must be in 1..=batch ({}), got {}",
            request.batch, request.k
        ));
    }
    let name = ds.name.clone();
    println!(
        "suggesting views for {name}: {} rows × {} columns",
        ds.n(),
        ds.d()
    );

    let mut session = EdaSession::new(ds, seed).map_err(|e| e.to_string())?;
    if cli.flag("margins") {
        session
            .add_margin_constraints()
            .map_err(|e| e.to_string())?;
    }
    if cli.flag("one-cluster") {
        session
            .add_one_cluster_constraint()
            .map_err(|e| e.to_string())?;
    }
    if session.is_dirty() {
        let report = session
            .update_background(&FitOpts::default())
            .map_err(|e| e.to_string())?;
        println!("knowledge absorbed: {}", format_convergence(&report));
    }

    let response = sider::suggest::recommend(&session, &request).map_err(|e| e.to_string())?;
    if cli.flag("json") {
        println!(
            "{}",
            sider::core::wire::suggest_response_to_json(&response).dump_pretty()
        );
        return Ok(());
    }
    let mut table =
        sider::core::report::TextTable::new(&["rank", "gain", "source", "view", "axis gains"]);
    for (rank, s) in response.suggestions.iter().enumerate() {
        table.row(vec![
            format!("{}", rank + 1),
            format!("{:.4}", s.gain),
            s.source.to_string(),
            s.label.clone(),
            format!("{:.4} / {:.4}", s.axis_gains[0], s.axis_gains[1]),
        ]);
    }
    println!(
        "top {} of {} candidates (seed {}):",
        response.suggestions.len(),
        response.batch,
        response.seed
    );
    println!("{}", table.render());
    Ok(())
}

fn cmd_store(cli: &Cli) -> Result<(), String> {
    cli.only(&[])?;
    match cli.positionals.first().map(String::as_str) {
        Some("inspect") => {
            let dir = cli
                .positionals
                .get(1)
                .ok_or(format!("store inspect needs a data dir\n{USAGE}"))?;
            let report = sider::store::inspect(std::path::Path::new(dir))?;
            println!("{}", report.dump_pretty());
            Ok(())
        }
        Some(other) => Err(format!("unknown store subcommand: {other}\n{USAGE}")),
        None => Err(format!("store needs a subcommand\n{USAGE}")),
    }
}

fn run(args: impl IntoIterator<Item = String>) -> Result<(), String> {
    let cli = Cli::parse(args).map_err(|e| format!("{e}\n{USAGE}"))?;
    match cli.command.as_str() {
        "overview" => cmd_overview(&cli),
        "explore" => cmd_explore(&cli),
        "demo" => cmd_demo(&cli),
        "serve" => cmd_serve(&cli),
        "suggest" => cmd_suggest(&cli),
        "loadgen" => cmd_loadgen(&cli),
        "store" => cmd_store(&cli),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command: {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_pairs() {
        let c = cli(&["explore", "--data", "x.csv", "--method", "ica"]).unwrap();
        assert_eq!(c.command, "explore");
        assert_eq!(c.get("data"), Some("x.csv"));
        assert_eq!(c.get("method"), Some("ica"));
    }

    #[test]
    fn parses_bare_flags() {
        let c = cli(&["explore", "--margins", "--data", "x.csv"]).unwrap();
        assert!(c.flag("margins"));
        assert!(!c.flag("one-cluster"));
    }

    #[test]
    fn refuses_flags_the_command_does_not_read() {
        // Each command line but its last flag would fail at once on
        // an argument, so a missing check shows as a different error.
        for (args, flag) in [
            (
                &["loadgen", "--addr", "127.0.0.1:1", "--fault", "flaky"][..],
                "fault",
            ),
            (
                &["overview", "--data", "/nonexistent.csv", "--seed", "3"],
                "seed",
            ),
            (
                &["explore", "--data", "/nonexistent.csv", "--dataset", "fig2"],
                "dataset",
            ),
            (
                &["demo", "fig2", "--iterations", "x", "--data", "a.csv"],
                "data",
            ),
            (&["serve", "--stripes", "x", "--sessions", "4"], "sessions"),
            (
                &[
                    "suggest",
                    "--dataset",
                    "fig2",
                    "--batch",
                    "0",
                    "--iterations",
                    "2",
                ],
                "iterations",
            ),
            (&["store", "inspect", "/nonexistent/x", "--json"], "json"),
        ] {
            let err = run(args.iter().map(|s| s.to_string())).unwrap_err();
            let want = format!("unknown flag --{flag} for sider {}\n", args[0]);
            assert!(err.starts_with(&want), "{args:?}: {err}");
        }
    }

    #[test]
    fn demo_positional_dataset() {
        let c = cli(&["demo", "fig2"]).unwrap();
        assert_eq!(c.get("dataset"), Some("fig2"));
    }

    #[test]
    fn typed_getters_with_defaults() {
        let c = cli(&["explore", "--iterations", "3"]).unwrap();
        assert_eq!(c.get_or("iterations", 9usize).unwrap(), 3);
        assert_eq!(c.get_or("seed", 7u64).unwrap(), 7);
        assert!(c.get_or::<usize>("iterations", 9).is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(cli(&[]).is_err());
        assert!(cli(&["explore", "stray"]).is_err());
        let c = cli(&["explore", "--iterations", "abc"]).unwrap();
        assert!(c.get_or::<usize>("iterations", 1).is_err());
    }

    #[test]
    fn store_subcommand_collects_positionals() {
        let c = cli(&["store", "inspect", "/tmp/sider-data"]).unwrap();
        assert_eq!(c.command, "store");
        assert_eq!(c.positionals, vec!["inspect", "/tmp/sider-data"]);
        // Other commands still reject stray positionals.
        assert!(cli(&["serve", "stray"]).is_err());
    }

    #[test]
    fn store_inspect_prints_a_report() {
        let dir = std::env::temp_dir().join(format!("sider_cli_store_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = sider::store::StoreConfig::new(&dir);
        config.fsync = sider::store::FsyncPolicy::Never;
        let store = sider::store::Store::open(config).unwrap();
        store
            .create_session(
                1,
                &sider::json::Json::parse(r#"{"dataset":"fig2"}"#).unwrap(),
            )
            .unwrap();
        let c = cli(&["store", "inspect", dir.to_str().unwrap()]).unwrap();
        assert!(cmd_store(&c).is_ok());
        // Unknown/missing subcommands and dirs fail loudly.
        assert!(cmd_store(&cli(&["store"]).unwrap()).is_err());
        assert!(cmd_store(&cli(&["store", "vacuum"]).unwrap()).is_err());
        assert!(cmd_store(&cli(&["store", "inspect", "/nonexistent/x"]).unwrap()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builtin_datasets_resolve() {
        assert!(builtin("fig2").is_ok());
        assert!(builtin("xhat5").is_ok());
        // Neither `demo` nor `suggest --dataset` takes inline CSV.
        let err = builtin("nope").unwrap_err();
        assert!(
            err.starts_with("unknown dataset 'nope' (fig2|xhat5|bnc|segmentation)\n"),
            "{err}"
        );
        assert!(!err.contains("inline"), "{err}");
    }

    #[test]
    fn csv_roundtrip_through_loader() {
        let dir = std::env::temp_dir().join("sider_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("points.csv");
        std::fs::write(&path, "a,b\n1.0,2.0\n3.0,4.0\n").unwrap();
        let ds = load_csv(path.to_str().unwrap()).unwrap();
        assert_eq!(ds.n(), 2);
        assert_eq!(ds.column_names, vec!["a", "b"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
