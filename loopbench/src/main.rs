//! Closed-loop analyst benchmark for the sider server.
//!
//! ```text
//! cargo run --release --offline --manifest-path loopbench/Cargo.toml -- \
//!     --workload serve-fig2 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a run record line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `loopbench/README.md` for the workloads and every metric.

mod check;
mod client;
mod host;
mod run;
mod stats;
mod trace;
mod workload;

use run::{Env, Metric, Report};
use sider_json::Json;
use std::path::PathBuf;

const USAGE: &str =
    "usage: sider_loopbench --workload <serve-fig2|loop-bnc|guide-seg> --seed <n> --seconds <n> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} {value}: not a non-negative integer"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where runs keep their data dirs and traces: `out/` beside this
/// package, inside the checkout.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
        .join("out")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let env = Env {
        w: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        dir: out_dir().join(format!(
            "run-{}-{}-{}",
            args.workload.name,
            args.seed,
            std::process::id()
        )),
    };
    if let Err(e) = std::fs::create_dir_all(&env.dir) {
        eprintln!("error: {}: {e}", env.dir.display());
        std::process::exit(1);
    }
    let outcome = if args.trace {
        trace::traced(&env)
    } else {
        run::untraced(&env)
    };
    let host = host::fingerprint(&env.dir);
    let _ = std::fs::remove_dir_all(&env.dir);
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", env.w.name);
            std::process::exit(1);
        }
    };
    print_report(&args, &env, host, report);
}

fn print_report(args: &Args, env: &Env, host: Json, report: Report) {
    let w = env.w;
    let samples = Json::Obj(
        report
            .metrics
            .iter()
            .map(|m| (m.name.clone(), Json::from(m.samples)))
            .collect(),
    );
    let mut record = vec![
        ("workload", Json::from(w.name)),
        (
            "dataset",
            Json::obj([
                ("name", Json::from(w.dataset)),
                ("n", Json::from(w.n)),
                ("d", Json::from(w.d)),
            ]),
        ),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("commit", Json::from(host::commit())),
        ("host", host),
        ("connections", Json::from(w.connections)),
        ("stripes", Json::from(w.stripes)),
        ("pool_threads", Json::from(w.pool_threads)),
        (
            "scripts_per_connection",
            Json::from(w.scripts_per_connection(args.seconds)),
        ),
        ("blocks", Json::from(w.blocks)),
        ("server_per_block", Json::from(w.server_per_block)),
        ("samples", samples),
    ];
    record.extend(report.record);
    println!("{}", Json::obj([("record", Json::obj(record))]).dump());
    for Metric {
        name, value, unit, ..
    } in &report.metrics
    {
        eprintln!("{:>34} {value:>14.6} {unit}", format!("{}/{name}", w.name));
    }
    if !report.correct {
        eprintln!("{}: output checks FAILED (see record.failures)", w.name);
    }
    let metrics = Json::Obj(
        report
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect(),
    );
    let last = Json::obj([
        ("correct", Json::from(report.correct)),
        ("attempted", Json::from(report.tally.attempted)),
        ("failed", Json::from(report.tally.failed())),
        ("metrics", metrics),
    ]);
    println!("{}", last.dump());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload loop-bnc --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("loop-bnc", 7, 10, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload loop-bnc --seed -1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload loop-bnc --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload loop-bnc --seed").is_err());
    }
}
