//! Schema sanity check for the persisted benchmark artifacts.
//!
//! CI runs this binary on the committed artifacts, and again after the
//! `pipeline`, `scaling` and `serve` benches rewrite them in smoke mode.
//! It fails (exit code 1) when
//! `BENCH_pipeline.json`, `BENCH_scaling.json` or `BENCH_serve.json` is
//! missing, unparsable, or missing the fields the perf trajectory across
//! PRs relies on. It deliberately does **not**
//! gate on cross-machine speedup values: CI machines (and 1-CPU
//! containers) make absolute timing thresholds meaningless — the guarded
//! invariants are artifact shape, the recorded
//! `bit_identical_across_threads` determinism flag, and a *same-run
//! relative* ratio that is machine-independent by construction:
//! `eigen.dc_speedup` (the `SymEigen::decompose` divide-and-conquer
//! dispatch vs raw Jacobi on the same class precision) must be ≥ 1.0
//! wherever `d ≥ 32` — the dispatch threshold above which D&C carries
//! every decomposition. `BENCH_scaling.json` must also carry a `suggest`
//! row for both the `bnc` and the `segmentation` shape, each timed
//! (`suggest_ns > 0`) at 1 and `max_threads` threads with byte-identical
//! responses, and a `fit` row for `bnc`: five refit rounds (margins, then
//! four class statements), each with `sweeps >= 1` and `fit_ns > 0`, at 1
//! and `max_threads` threads with bit-identical update reports.
//!
//! For `BENCH_serve.json` the SLO-style gates are likewise
//! machine-independent: both a `stripes == 1` baseline run and a striped
//! run must be present, plus a striped `churn` scenario run (short-lived
//! aborted/empty connections injected alongside every request, with
//! `churn_conns >= 1` proving churn actually happened); every run must
//! have served its whole workload with zero errors, and each exercised
//! endpoint's percentiles must be monotone (`p50 ≤ p99 ≤ p999`) with
//! positive throughput.
//!
//! Every failure message names the offending file and the full JSON path
//! (e.g. `BENCH_scaling.json: scenarios[2].runs[1].sample_ns`), so a
//! broken artifact can be located without opening the file.

use sider_bench::workspace_root;
use sider_json::Json;
use std::process::ExitCode;

fn load(name: &str) -> Result<Json, String> {
    let path = workspace_root().join(name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: malformed JSON: {e}", path.display()))
}

/// Require a finite non-negative number at `prefix` + `key`, reporting the
/// full JSON path on failure.
fn require_num_at(doc: &Json, prefix: &str, key: &str) -> Result<f64, String> {
    let full = if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    };
    let v = doc
        .require_num(key)
        .map_err(|e| format!("at JSON path '{full}': {e}"))?;
    if v < 0.0 {
        return Err(format!("JSON path '{full}' is negative ({v})"));
    }
    Ok(v)
}

fn check_pipeline(doc: &Json) -> Result<(), String> {
    if doc.get("bench").and_then(Json::as_str) != Some("pipeline_cold_vs_warm") {
        return Err("JSON path 'bench' is not the string 'pipeline_cold_vs_warm'".into());
    }
    for key in [
        "samples",
        "cold_fit.median_ns",
        "cold_fit.sweeps",
        "cold_fit.eigen_recomputed",
        "warm_refit.median_ns",
        "warm_refit.sweeps",
        "warm_refit.eigen_recomputed",
        "speedup",
    ] {
        require_num_at(doc, "", key)?;
    }
    Ok(())
}

fn check_scaling(doc: &Json) -> Result<(), String> {
    if doc.get("bench").and_then(Json::as_str) != Some("scaling") {
        return Err("JSON path 'bench' is not the string 'scaling'".into());
    }
    for key in ["available_parallelism", "max_threads", "reps", "classes"] {
        if require_num_at(doc, "", key)? < 1.0 {
            return Err(format!("JSON path '{key}' must be >= 1"));
        }
    }
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("missing 'scenarios' array")?;
    if scenarios.is_empty() {
        return Err("JSON path 'scenarios' is an empty array".into());
    }
    for (i, sc) in scenarios.iter().enumerate() {
        let at = format!("scenarios[{i}]");
        for key in [
            "n",
            "d",
            "eigen.jacobi_ns",
            "eigen.dc_ns",
            "eigen.dc_speedup",
            "store.recover_ns",
            "store.recover_ops",
            "store.wal_bytes",
            "parallel_speedup_max_vs_1",
        ] {
            require_num_at(sc, &at, key)?;
        }
        // The crash-recovery metric must come from a real replay: zero
        // recovered ops or a zero-duration recovery means the bench did
        // not actually rebuild the session from its op-log.
        for key in ["store.recover_ns", "store.recover_ops", "store.wal_bytes"] {
            if require_num_at(sc, &at, key)? < 1.0 {
                return Err(format!(
                    "JSON path '{at}.{key}' must be >= 1 (recovery was not exercised)"
                ));
            }
        }
        let d = require_num_at(sc, &at, "d")?;
        // The cold-eigensolver dispatch must not lose to the raw Jacobi
        // solve it wraps once the divide-and-conquer path engages
        // (`d ≥ 32`, the dispatch threshold). Below that the dispatch
        // *is* Jacobi and the ratio is pure timing noise. Same-run
        // relative ratio — machine-independent by construction.
        let dc_speedup = require_num_at(sc, &at, "eigen.dc_speedup")?;
        if d >= 32.0 && dc_speedup < 1.0 {
            return Err(format!(
                "JSON path '{at}.eigen.dc_speedup': {dc_speedup} < 1.0 at d = {d} — \
                 the divide-and-conquer solver lost to the Jacobi path it replaces"
            ));
        }
        if sc
            .path("bit_identical_across_threads")
            .and_then(Json::as_bool)
            != Some(true)
        {
            return Err(format!(
                "JSON path '{at}.bit_identical_across_threads': results were NOT \
                 bit-identical across thread counts"
            ));
        }
        let runs = sc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing '{at}.runs' array"))?;
        if runs.is_empty() {
            return Err(format!("JSON path '{at}.runs' is an empty array"));
        }
        for (j, run) in runs.iter().enumerate() {
            let at = format!("{at}.runs[{j}]");
            for key in [
                "threads",
                "sample_ns",
                "refresh_ns",
                "whiten_ns",
                "pca_ns",
                "matmul_ns",
                "hot_total_ns",
            ] {
                require_num_at(run, &at, key)?;
            }
        }
    }
    check_scaling_suggest(doc)?;
    check_scaling_fit(doc)
}

/// The row of the `array` rows whose `dataset` is `dataset`, with its JSON
/// path. Its shape (`n`, `d`) must be recorded and its results must be
/// bit-identical across thread counts.
fn dataset_row<'a>(
    doc: &'a Json,
    array: &str,
    dataset: &str,
) -> Result<(String, &'a Json), String> {
    let rows = doc
        .get(array)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing '{array}' array"))?;
    let (i, row) = rows
        .iter()
        .enumerate()
        .find(|(_, r)| r.get("dataset").and_then(Json::as_str) == Some(dataset))
        .ok_or_else(|| format!("no '{array}' row with dataset == \"{dataset}\""))?;
    let at = format!("{array}[{i}]");
    for key in ["n", "d"] {
        if require_num_at(row, &at, key)? < 1.0 {
            return Err(format!("JSON path '{at}.{key}' must be >= 1"));
        }
    }
    if row
        .path("bit_identical_across_threads")
        .and_then(Json::as_bool)
        != Some(true)
    {
        return Err(format!(
            "JSON path '{at}.bit_identical_across_threads': results were NOT \
             bit-identical across thread counts"
        ));
    }
    Ok((at, row))
}

/// The `runs` of a row, which must include a run at 1 and one at
/// `max_threads` pool threads.
fn thread_runs<'a>(row: &'a Json, at: &str, max_threads: f64) -> Result<&'a [Json], String> {
    let runs = row
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing '{at}.runs' array"))?;
    for (j, run) in runs.iter().enumerate() {
        require_num_at(run, &format!("{at}.runs[{j}]"), "threads")?;
    }
    for want in [1.0, max_threads] {
        if !runs
            .iter()
            .any(|r| r.get("threads").and_then(Json::as_num) == Some(want))
        {
            return Err(format!(
                "JSON path '{at}.runs' has no run with threads == {want}"
            ));
        }
    }
    Ok(runs)
}

/// The `suggest` rows of `BENCH_scaling.json`: `recommend` timed on the
/// closed-loop benchmark's two guided-exploration shapes, at 1 and
/// `max_threads` pool threads, with byte-identical responses.
fn check_scaling_suggest(doc: &Json) -> Result<(), String> {
    let max_threads = require_num_at(doc, "", "max_threads")?;
    for dataset in ["bnc", "segmentation"] {
        let (at, row) = dataset_row(doc, "suggest", dataset)?;
        for key in ["batch", "k"] {
            if require_num_at(row, &at, key)? < 1.0 {
                return Err(format!("JSON path '{at}.{key}' must be >= 1"));
            }
        }
        for (j, run) in thread_runs(row, &at, max_threads)?.iter().enumerate() {
            let at = format!("{at}.runs[{j}]");
            if require_num_at(run, &at, "suggest_ns")? < 1.0 {
                return Err(format!(
                    "JSON path '{at}.suggest_ns' is zero — suggest was not timed"
                ));
            }
        }
    }
    Ok(())
}

/// The `fit` row of `BENCH_scaling.json`: the refits of the closed-loop
/// benchmark's fit-bound shape (`bnc`, margins then four class
/// statements), at 1 and `max_threads` pool threads, with bit-identical
/// update reports.
fn check_scaling_fit(doc: &Json) -> Result<(), String> {
    const ROUNDS: usize = 5;
    let max_threads = require_num_at(doc, "", "max_threads")?;
    let (at, row) = dataset_row(doc, "fit", "bnc")?;
    for (j, run) in thread_runs(row, &at, max_threads)?.iter().enumerate() {
        let at = format!("{at}.runs[{j}]");
        if require_num_at(run, &at, "total_fit_ns")? < 1.0 {
            return Err(format!(
                "JSON path '{at}.total_fit_ns' is zero — fits were not timed"
            ));
        }
        let rounds = run
            .get("rounds")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing '{at}.rounds' array"))?;
        if rounds.len() != ROUNDS {
            return Err(format!(
                "JSON path '{at}.rounds' has {} rounds, expected {ROUNDS}",
                rounds.len()
            ));
        }
        for (k, round) in rounds.iter().enumerate() {
            let at = format!("{at}.rounds[{k}]");
            require_num_at(round, &at, "eigen_recomputed")?;
            if require_num_at(round, &at, "sweeps")? < 1.0 {
                return Err(format!("JSON path '{at}.sweeps' must be >= 1"));
            }
            if require_num_at(round, &at, "fit_ns")? < 1.0 {
                return Err(format!(
                    "JSON path '{at}.fit_ns' is zero — the fit was not timed"
                ));
            }
        }
    }
    Ok(())
}

fn check_serve(doc: &Json) -> Result<(), String> {
    if doc.get("bench").and_then(Json::as_str) != Some("serve") {
        return Err("JSON path 'bench' is not the string 'serve'".into());
    }
    for key in [
        "workload.sessions",
        "workload.requests",
        "workload.rps",
        "workload.workers",
    ] {
        if require_num_at(doc, "", key)? < 1.0 {
            return Err(format!("JSON path '{key}' must be >= 1"));
        }
    }
    require_num_at(doc, "", "workload.seed")?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing 'runs' array")?;
    if runs.is_empty() {
        return Err("JSON path 'runs' is an empty array".into());
    }
    // The artifact's whole point is the striped-vs-unstriped comparison:
    // both the stripes=1 baseline and a striped run must be present —
    // and, since the event-driven accept loop, a striped `churn` run
    // (short-lived aborted/empty connections alongside every request)
    // served with zero errors. Since WAL shipping, also a `replication`
    // run: the same workload against a leader streaming to a live
    // follower, which must end caught up (zero lag). Since guided
    // exploration, also a `suggest` run: part of the mixed phase is
    // recommendation traffic, and the row embeds an in-process scoring
    // block over a full 64-candidate batch.
    let mut saw_unstriped = false;
    let mut saw_striped = false;
    let mut saw_churn = false;
    let mut saw_replication = false;
    let mut saw_suggest = false;
    for (i, run) in runs.iter().enumerate() {
        let at = format!("runs[{i}]");
        let stripes = require_num_at(run, &at, "stripes")?;
        if stripes < 1.0 {
            return Err(format!("JSON path '{at}.stripes' must be >= 1"));
        }
        saw_unstriped |= stripes == 1.0;
        saw_striped |= stripes > 1.0;
        let scenario = run.get("scenario").and_then(Json::as_str);
        let churn = scenario == Some("churn");
        if require_num_at(run, &at, "threads_per_stripe")? < 1.0 {
            return Err(format!("JSON path '{at}.threads_per_stripe' must be >= 1"));
        }
        if scenario == Some("replication") {
            saw_replication = true;
            // The leader's latency rows are gated below like every other
            // run; the replication-specific claim is the follower's: it
            // caught up to everything the leader shipped, per stripe.
            let f = format!("{at}.follower");
            if run.path("follower.caught_up").and_then(Json::as_bool) != Some(true) {
                return Err(format!("JSON path '{f}.caught_up' must be true"));
            }
            if require_num_at(run, &at, "follower.final_lag")? != 0.0 {
                return Err(format!(
                    "JSON path '{f}.final_lag' is nonzero — the follower never caught up"
                ));
            }
            require_num_at(run, &at, "follower.catchup_wall_s")?;
            for key in ["shipped", "applied"] {
                let seqs = run
                    .path(&format!("follower.{key}"))
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("missing '{f}.{key}' array"))?;
                if seqs.is_empty() {
                    return Err(format!("JSON path '{f}.{key}' is an empty array"));
                }
                if seqs.iter().all(|s| s.as_num() == Some(0.0)) {
                    return Err(format!(
                        "JSON path '{f}.{key}' is all zeros — nothing was replicated"
                    ));
                }
            }
        }
        if scenario == Some("suggest") {
            saw_suggest = true;
            // The run must carry real recommendation traffic (gated via
            // the endpoint stats below) and an in-process scoring block
            // over a full batch. Speedup is gated only as positive —
            // pool 4 beats pool 1 on multi-core hosts, but a 1-CPU CI
            // container legitimately reports ~1.
            if require_num_at(run, &at, "suggest.share")? <= 0.0 {
                return Err(format!("JSON path '{at}.suggest.share' must be > 0"));
            }
            let scoring = format!("{at}.scoring");
            if require_num_at(run, &at, "scoring.batch")? < 64.0 {
                return Err(format!("JSON path '{scoring}.batch' must be >= 64"));
            }
            for key in ["scoring.pool1_ns", "scoring.pool4_ns"] {
                if require_num_at(run, &at, key)? < 1.0 {
                    return Err(format!(
                        "JSON path '{at}.{key}' is zero — scoring was not timed"
                    ));
                }
            }
            if require_num_at(run, &at, "scoring.speedup")? <= 0.0 {
                return Err(format!("JSON path '{scoring}.speedup' must be > 0"));
            }
            let requests = require_num_at(run, &at, "report.endpoints.suggest.requests")?;
            if requests < 1.0 {
                return Err(format!(
                    "JSON path '{at}.report.endpoints.suggest.requests' must be >= 1 in the suggest scenario"
                ));
            }
        }
        let at = format!("{at}.report");
        let report = run.get("report").ok_or_else(|| format!("missing '{at}'"))?;
        if churn {
            saw_churn = true;
            if stripes < 2.0 {
                return Err(format!(
                    "JSON path '{at}': the churn scenario must run striped (stripes >= 2)"
                ));
            }
            // A churn run that opened no churn connections measured the
            // plain mixed workload under a misleading label.
            if require_num_at(report, &at, "churn_conns")? < 1.0 {
                return Err(format!(
                    "JSON path '{at}.churn_conns' must be >= 1 in the churn scenario"
                ));
            }
        }
        for key in ["create_wall_s", "mixed_wall_s"] {
            require_num_at(report, &at, key)?;
        }
        if require_num_at(report, &at, "total_requests")? < 1.0 {
            return Err(format!("JSON path '{at}.total_requests' must be >= 1"));
        }
        // An SLO-style gate that is machine-independent: the workload
        // must have been served clean. Latency *values* are not gated
        // (CI hardware varies), but their ordering must be sane.
        if require_num_at(report, &at, "total_errors")? != 0.0 {
            return Err(format!(
                "JSON path '{at}.total_errors' is nonzero — the server dropped requests under load"
            ));
        }
        if require_num_at(report, &at, "throughput_rps")? <= 0.0 {
            return Err(format!("JSON path '{at}.throughput_rps' must be > 0"));
        }
        let endpoints = report
            .get("endpoints")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("missing '{at}.endpoints' object"))?;
        if endpoints.is_empty() {
            return Err(format!("JSON path '{at}.endpoints' is empty"));
        }
        for (name, stats) in endpoints {
            let at = format!("{at}.endpoints.{name}");
            let requests = require_num_at(stats, &at, "requests")?;
            require_num_at(stats, &at, "errors")?;
            let p50 = require_num_at(stats, &at, "p50_ns")?;
            let p99 = require_num_at(stats, &at, "p99_ns")?;
            let p999 = require_num_at(stats, &at, "p999_ns")?;
            let throughput = require_num_at(stats, &at, "throughput_rps")?;
            if requests < 1.0 {
                continue; // endpoint unused by this workload mix
            }
            if !(p50 <= p99 && p99 <= p999) {
                return Err(format!(
                    "JSON path '{at}': percentiles not monotone (p50 {p50} / p99 {p99} / p999 {p999})"
                ));
            }
            if p50 < 1.0 {
                return Err(format!(
                    "JSON path '{at}.p50_ns' is zero — latencies were not measured"
                ));
            }
            if throughput <= 0.0 {
                return Err(format!("JSON path '{at}.throughput_rps' must be > 0"));
            }
        }
    }
    if !saw_unstriped {
        return Err("no 'runs' entry with stripes == 1 (the unstriped baseline)".into());
    }
    if !saw_striped {
        return Err("no 'runs' entry with stripes > 1 (the striped configuration)".into());
    }
    if !saw_churn {
        return Err(
            "no 'runs' entry with scenario == \"churn\" (the connection-churn stress run)".into(),
        );
    }
    if !saw_replication {
        return Err(
            "no 'runs' entry with scenario == \"replication\" (leader under active WAL shipping)"
                .into(),
        );
    }
    if !saw_suggest {
        return Err(
            "no 'runs' entry with scenario == \"suggest\" (guided-exploration recommendation load)"
                .into(),
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut failed = false;
    for (name, check) in [
        (
            "BENCH_pipeline.json",
            check_pipeline as fn(&Json) -> Result<(), String>,
        ),
        (
            "BENCH_scaling.json",
            check_scaling as fn(&Json) -> Result<(), String>,
        ),
        (
            "BENCH_serve.json",
            check_serve as fn(&Json) -> Result<(), String>,
        ),
    ] {
        match load(name).and_then(|doc| check(&doc)) {
            Ok(()) => println!("check_bench_artifacts: {name}: OK"),
            Err(e) => {
                eprintln!("check_bench_artifacts: {name}: FAIL: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
