//! Schema sanity check and claim gates for the persisted benchmark
//! artifacts.
//!
//! CI runs this binary on the committed artifacts, and again after the
//! `scaling` and `serve` benches and the `table2` binary rewrite them in
//! smoke mode. It fails (exit code 1) when `BENCH_scaling.json`,
//! `BENCH_serve.json` or `BENCH_paper.json` is missing, unparsable, lacks
//! its `smoke` flag, or misses the fields the perf trajectory across PRs
//! relies on. It deliberately does **not** gate on cross-machine speed
//! values: CI machines (and 1-CPU containers) make absolute timing
//! thresholds meaningless. The guarded invariants are artifact shape,
//! the recorded `bit_identical_across_threads` determinism flags,
//! *same-run relative* ratios, which are machine-independent by
//! construction, and the one absolute bound the paper itself states.
//!
//! `eigen.dc_speedup` in `BENCH_scaling.json` (the `SymEigen::decompose`
//! divide-and-conquer dispatch vs raw Jacobi on the same class precision)
//! must be ≥ 1.0 wherever `d ≥ 32` — the dispatch threshold above which
//! D&C carries every decomposition. `BENCH_scaling.json` must also carry
//! a `suggest` row for `bnc` at batch 16 and at batch 64 and for
//! `segmentation` at batch 64, each timed (`suggest_ns > 0`) at 1 and
//! `max_threads` threads with byte-identical responses and under the
//! paper's 2 s at 1 thread, each run's median between the fastest and
//! slowest of its reps (`suggest_ns_min <= suggest_ns <= suggest_ns_max`),
//! and a `fit` row for `bnc`: five refit rounds
//! (margins, then four class statements), each with `sweeps >= 1` and
//! `fit_ns > 0`, then a `cold_refit` of the final knowledge with
//! `sweeps`, `eigen_recomputed` and `fit_ns` each `>= 1`, at 1 and
//! `max_threads` threads with bit-identical update reports. The cold and
//! warm costs are recorded side by side, not gated against each other.
//!
//! `BENCH_paper.json` carries the paper's speed claims (§II-A-2, §IV-A):
//! - equivalence classes: `eqclass[].speedup ≥ 10` over the per-row
//!   solver at every n, and `eqclass_ns` at the largest n at most 2× its
//!   value at the smallest n;
//! - Sherman–Morrison: `sherman_morrison[].speedup ≥ 10` over LU
//!   re-inversion wherever `d ≥ 32`;
//! - Table II: in every `table2` row, INIT, PREPROCESS, WHITENING, SAMPLE
//!   and PCA each take under 2 s (the paper's bound);
//! - OPTIM per sweep is flat in n: for every (d, k) whose `optim_ns` is at
//!   least 10 ms at every n, `optim_ns / sweeps` at the largest n is at
//!   most 3× its value at the smallest n (an O(n) OPTIM reads about 4×
//!   over n = 2048…8192). A full-mode artifact must contain such a cell.
//!
//! For `BENCH_serve.json` the SLO-style gates are likewise
//! machine-independent: both a `stripes == 1` baseline run and a striped
//! run must be present, plus a striped `churn` scenario run (short-lived
//! aborted/empty connections injected alongside every request, with
//! `churn_conns >= 1` proving churn actually happened); every run must
//! have served its whole workload with zero errors, and each exercised
//! endpoint's percentiles must be monotone (`p50 ≤ p99 ≤ p999`) with
//! positive throughput. The `replication` run's follower must end caught
//! up: `caught_up` true, `final_lag` 0, and its per-stripe `applied`
//! sums of `last_lsn` equal to the leader's `shipped` sums, one entry per
//! stripe and not all zero.
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

/// Require the `smoke` flag every bench records; CI rejects committed
/// artifacts that read `true`.
fn require_smoke_flag(doc: &Json) -> Result<bool, String> {
    doc.get("smoke")
        .and_then(Json::as_bool)
        .ok_or_else(|| "JSON path 'smoke' is missing or not a boolean".to_string())
}

/// The non-empty array at top-level `key`.
fn require_rows<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    let rows = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing '{key}' array"))?;
    if rows.is_empty() {
        return Err(format!("JSON path '{key}' is an empty array"));
    }
    Ok(rows)
}

fn check_scaling(doc: &Json) -> Result<(), String> {
    if doc.get("bench").and_then(Json::as_str) != Some("scaling") {
        return Err("JSON path 'bench' is not the string 'scaling'".into());
    }
    require_smoke_flag(doc)?;
    for key in ["available_parallelism", "max_threads", "reps", "classes"] {
        if require_num_at(doc, "", key)? < 1.0 {
            return Err(format!("JSON path '{key}' must be >= 1"));
        }
    }
    let scenarios = require_rows(doc, "scenarios")?;
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

/// The row of the `array` rows whose `dataset` is `dataset` and, when
/// `batch` is given, whose `batch` is `batch`, with its JSON path. Its
/// shape (`n`, `d`) must be recorded and its results must be
/// bit-identical across thread counts.
fn dataset_row<'a>(
    doc: &'a Json,
    array: &str,
    dataset: &str,
    batch: Option<f64>,
) -> Result<(String, &'a Json), String> {
    let rows = doc
        .get(array)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing '{array}' array"))?;
    let (i, row) = rows
        .iter()
        .enumerate()
        .find(|(_, r)| {
            r.get("dataset").and_then(Json::as_str) == Some(dataset)
                && batch.is_none_or(|b| r.get("batch").and_then(Json::as_num) == Some(b))
        })
        .ok_or_else(|| match batch {
            Some(b) => format!("no '{array}' row with dataset == \"{dataset}\" and batch == {b}"),
            None => format!("no '{array}' row with dataset == \"{dataset}\""),
        })?;
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

/// The `suggest` rows of `BENCH_scaling.json` by dataset and batch: the
/// closed-loop benchmark's two guided-exploration shapes, and `bnc` at
/// batch 64, the first d = 100 shape whose batch reaches FastICA past the
/// PCA pairs.
const SUGGEST_ROWS: [(&str, f64); 3] = [("bnc", 16.0), ("bnc", 64.0), ("segmentation", 64.0)];

/// The `suggest` rows: `recommend` timed at 1 and `max_threads` pool
/// threads, with byte-identical responses, each 1-thread run under the
/// paper's interactive 2 s, and each run's median recorded between its
/// fastest and slowest rep.
fn check_scaling_suggest(doc: &Json) -> Result<(), String> {
    let max_threads = require_num_at(doc, "", "max_threads")?;
    for (dataset, batch) in SUGGEST_ROWS {
        let (at, row) = dataset_row(doc, "suggest", dataset, Some(batch))?;
        if require_num_at(row, &at, "k")? < 1.0 {
            return Err(format!("JSON path '{at}.k' must be >= 1"));
        }
        for (j, run) in thread_runs(row, &at, max_threads)?.iter().enumerate() {
            let at = format!("{at}.runs[{j}]");
            let t = require_num_at(run, &at, "suggest_ns")?;
            if t < 1.0 {
                return Err(format!(
                    "JSON path '{at}.suggest_ns' is zero — suggest was not timed"
                ));
            }
            if run.get("threads").and_then(Json::as_num) == Some(1.0) && t >= STAGE_BOUND_NS {
                return Err(format!(
                    "JSON path '{at}.suggest_ns': {:.2} s at 1 thread is not under the paper's 2 s (§IV-A)",
                    t / 1e9
                ));
            }
            let fastest = require_num_at(run, &at, "suggest_ns_min")?;
            if fastest > t {
                return Err(format!(
                    "JSON path '{at}.suggest_ns_min' ({fastest}) is above the median suggest_ns ({t})"
                ));
            }
            let slowest = require_num_at(run, &at, "suggest_ns_max")?;
            if slowest < t {
                return Err(format!(
                    "JSON path '{at}.suggest_ns_max' ({slowest}) is below the median suggest_ns ({t})"
                ));
            }
        }
    }
    Ok(())
}

/// The `fit` row of `BENCH_scaling.json`: the refits of the closed-loop
/// benchmark's fit-bound shape (`bnc`, margins then four class
/// statements) and a cold refit of the final knowledge, at 1 and
/// `max_threads` pool threads, with bit-identical update reports.
fn check_scaling_fit(doc: &Json) -> Result<(), String> {
    const ROUNDS: usize = 5;
    let max_threads = require_num_at(doc, "", "max_threads")?;
    let (at, row) = dataset_row(doc, "fit", "bnc", None)?;
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
        let at = format!("{at}.cold_refit");
        let cold = run
            .get("cold_refit")
            .ok_or_else(|| format!("missing '{at}' object"))?;
        for key in ["sweeps", "eigen_recomputed", "fit_ns"] {
            if require_num_at(cold, &at, key)? < 1.0 {
                return Err(format!("JSON path '{at}.{key}' must be >= 1"));
            }
        }
    }
    Ok(())
}

fn check_serve(doc: &Json) -> Result<(), String> {
    if doc.get("bench").and_then(Json::as_str) != Some("serve") {
        return Err("JSON path 'bench' is not the string 'serve'".into());
    }
    require_smoke_flag(doc)?;
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
    let runs = require_rows(doc, "runs")?;
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
            // caught up to everything the leader holds. `shipped` (the
            // leader's) and `applied` (the follower's) are per-stripe sums
            // of `last_lsn`, so caught up means they are equal.
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
            let mut sums = Vec::new();
            for key in ["shipped", "applied"] {
                let values = run
                    .path(&format!("follower.{key}"))
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("missing '{f}.{key}' array"))?;
                if values.is_empty() {
                    return Err(format!("JSON path '{f}.{key}' is an empty array"));
                }
                if values.len() != stripes as usize {
                    return Err(format!(
                        "JSON path '{f}.{key}' has {} entries for {stripes} stripes",
                        values.len()
                    ));
                }
                if values.iter().all(|s| s.as_num() == Some(0.0)) {
                    return Err(format!(
                        "JSON path '{f}.{key}' is all zeros — nothing was replicated"
                    ));
                }
                sums.push(values);
            }
            if let Some(k) = (0..sums[0].len()).find(|&k| sums[0][k] != sums[1][k]) {
                return Err(format!(
                    "JSON path '{f}.applied[{k}]' differs from '{f}.shipped[{k}]' — \
                     the follower is not caught up on that stripe"
                ));
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

/// The paper's interactive bound (§IV-A): on every Table II stage but
/// OPTIM and ICA, and on each 1-thread `suggest` run of the scaling bench.
const STAGE_BOUND_NS: f64 = 2e9;
/// OPTIM times below this are too short to read a per-sweep cost from.
const OPTIM_FLOOR_NS: f64 = 10e6;
/// Largest admissible growth of OPTIM per sweep from the smallest to the
/// largest n; an O(n) OPTIM reads about 4× over n = 2048…8192.
const OPTIM_GROWTH_BOUND: f64 = 3.0;
/// Smallest admissible speed-up of each of the paper's two optimizations.
const ABLATION_SPEEDUP_FLOOR: f64 = 10.0;
/// Largest admissible growth of the equivalence-class sweep time from the
/// smallest to the largest n.
const EQCLASS_GROWTH_BOUND: f64 = 2.0;

fn check_paper(doc: &Json) -> Result<(), String> {
    if doc.get("bench").and_then(Json::as_str) != Some("paper") {
        return Err("JSON path 'bench' is not the string 'paper'".into());
    }
    let smoke = require_smoke_flag(doc)?;
    for key in ["available_parallelism", "reps"] {
        if require_num_at(doc, "", key)? < 1.0 {
            return Err(format!("JSON path '{key}' must be >= 1"));
        }
    }
    check_paper_table2(doc, smoke)?;
    check_paper_eqclass(doc)?;
    check_paper_sherman_morrison(doc)
}

/// One `table2` row's OPTIM reading, keyed by its `(d, k)` cell.
struct OptimReading {
    n: f64,
    optim_ns: f64,
    sweeps: f64,
    at: String,
}

/// The Table II rows: every stage but OPTIM and ICA under the paper's 2 s,
/// and OPTIM per sweep flat in n.
fn check_paper_table2(doc: &Json, smoke: bool) -> Result<(), String> {
    let mut cells: std::collections::BTreeMap<(u64, u64), Vec<OptimReading>> = Default::default();
    for (i, row) in require_rows(doc, "table2")?.iter().enumerate() {
        let at = format!("table2[{i}]");
        let n = require_num_at(row, &at, "n")?;
        let d = require_num_at(row, &at, "d")?;
        let k = require_num_at(row, &at, "k")?;
        let sweeps = require_num_at(row, &at, "sweeps")?;
        if [n, d, k, sweeps].iter().any(|&v| v < 1.0) {
            return Err(format!("JSON path '{at}': n, d, k and sweeps must be >= 1"));
        }
        for stage in ["init", "preprocess", "whitening", "sample", "pca"] {
            let key = format!("{stage}_ns");
            let t = require_num_at(row, &at, &key)?;
            if t >= STAGE_BOUND_NS {
                return Err(format!(
                    "JSON path '{at}.{key}': {:.2} s is not under the paper's 2 s (§IV-A)",
                    t / 1e9
                ));
            }
        }
        require_num_at(row, &at, "ica_ns")?;
        let optim_ns = require_num_at(row, &at, "optim_ns")?;
        cells
            .entry((d as u64, k as u64))
            .or_default()
            .push(OptimReading {
                n,
                optim_ns,
                sweeps,
                at,
            });
    }
    let mut gated = 0;
    for ((d, k), mut by_n) in cells {
        if by_n.iter().any(|r| r.optim_ns < OPTIM_FLOOR_NS) {
            continue;
        }
        by_n.sort_by(|a, b| a.n.total_cmp(&b.n));
        let (lo, hi) = (&by_n[0], &by_n[by_n.len() - 1]);
        if hi.n == lo.n {
            continue;
        }
        let growth = (hi.optim_ns / hi.sweeps) / (lo.optim_ns / lo.sweeps);
        if growth > OPTIM_GROWTH_BOUND {
            return Err(format!(
                "JSON path '{}.optim_ns': OPTIM per sweep at n = {} is {growth:.2}× its \
                 value at n = {} (d = {d}, k = {k}), above the {OPTIM_GROWTH_BOUND}× bound — \
                 OPTIM is no longer independent of n",
                hi.at, hi.n, lo.n
            ));
        }
        gated += 1;
    }
    if !smoke && gated == 0 {
        return Err(format!(
            "JSON path 'table2': no (d, k) cell spans several n with optim_ns >= {} ms at \
             every n, so OPTIM's independence of n is ungated",
            OPTIM_FLOOR_NS / 1e6
        ));
    }
    Ok(())
}

/// The rows of an ablation: each keyed by `size` and timed on its `fast`
/// and `slow` path, with the `speedup` of fast over slow. Returns each
/// row's JSON path, size, fast time and speed-up.
fn ablation_rows(
    doc: &Json,
    name: &str,
    [size, fast, slow]: [&str; 3],
) -> Result<Vec<(String, f64, f64, f64)>, String> {
    let mut out = Vec::new();
    for (i, row) in require_rows(doc, name)?.iter().enumerate() {
        let at = format!("{name}[{i}]");
        let x = require_num_at(row, &at, size)?;
        let mut times = [0.0; 2];
        for (t, key) in times.iter_mut().zip([fast, slow]) {
            *t = require_num_at(row, &at, key)?;
            if *t < 1.0 {
                return Err(format!("JSON path '{at}.{key}' is zero — it was not timed"));
            }
        }
        let speedup = require_num_at(row, &at, "speedup")?;
        out.push((at, x, times[0], speedup));
    }
    Ok(out)
}

/// Equivalence classes against per-row parameters: a large speed-up at
/// every n, and a sweep cost that does not grow with n.
fn check_paper_eqclass(doc: &Json) -> Result<(), String> {
    let mut rows = ablation_rows(doc, "eqclass", ["n", "eqclass_ns", "naive_ns"])?;
    for (at, n, _, speedup) in &rows {
        if *speedup < ABLATION_SPEEDUP_FLOOR {
            return Err(format!(
                "JSON path '{at}.speedup': {speedup} < {ABLATION_SPEEDUP_FLOOR} at n = {n} — \
                 equivalence classes lost the paper's speed-up over per-row parameters"
            ));
        }
    }
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (_, n_lo, lo, _) = &rows[0];
    let (at, n_hi, hi, _) = &rows[rows.len() - 1];
    if *hi > EQCLASS_GROWTH_BOUND * lo {
        return Err(format!(
            "JSON path '{at}.eqclass_ns': {hi} ns at n = {n_hi} is more than \
             {EQCLASS_GROWTH_BOUND}× the {lo} ns at n = {n_lo} — the equivalence-class \
             sweep is no longer independent of n"
        ));
    }
    Ok(())
}

/// Sherman–Morrison against LU re-inversion: a large speed-up wherever
/// `d ≥ 32`; below that both are a few microseconds and the ratio is
/// recorded only.
fn check_paper_sherman_morrison(doc: &Json) -> Result<(), String> {
    let rows = ablation_rows(
        doc,
        "sherman_morrison",
        ["d", "sherman_morrison_ns", "reinverse_ns"],
    )?;
    for (at, d, _, speedup) in rows {
        if d >= 32.0 && speedup < ABLATION_SPEEDUP_FLOOR {
            return Err(format!(
                "JSON path '{at}.speedup': {speedup} < {ABLATION_SPEEDUP_FLOOR} at d = {d} — \
                 the O(d²) update lost the paper's speed-up over O(d³) re-inversion"
            ));
        }
    }
    Ok(())
}

type Check = fn(&Json) -> Result<(), String>;

/// Every committed artifact and its check.
const ARTIFACTS: [(&str, Check); 3] = [
    ("BENCH_scaling.json", check_scaling),
    ("BENCH_serve.json", check_serve),
    ("BENCH_paper.json", check_paper),
];

fn main() -> ExitCode {
    let mut failed = false;
    for (name, check) in ARTIFACTS {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The value at a dotted JSON path whose segments may end in `[i]`.
    fn at<'a>(doc: &'a mut Json, path: &str) -> &'a mut Json {
        path.split('.').fold(doc, |cur, segment| {
            let (key, index) = match segment.split_once('[') {
                Some((key, i)) => (key, Some(i.trim_end_matches(']').parse::<usize>().unwrap())),
                None => (segment, None),
            };
            let Json::Obj(map) = cur else {
                panic!("{path}: no object at '{segment}'")
            };
            let value = map
                .get_mut(key)
                .unwrap_or_else(|| panic!("{path}: no key '{key}'"));
            match (index, value) {
                (None, value) => value,
                (Some(i), Json::Arr(items)) => &mut items[i],
                (Some(_), _) => panic!("{path}: '{key}' is not an array"),
            }
        })
    }

    /// `doc` with the value at `path` replaced by `value`.
    fn with(doc: &Json, path: &str, value: impl Into<Json>) -> Json {
        let mut out = doc.clone();
        *at(&mut out, path) = value.into();
        out
    }

    /// `check` rejects `doc` once `path` holds `value`, and its error
    /// names `path`.
    fn assert_rejects(check: Check, doc: &Json, path: &str, value: impl Into<Json>) {
        let err = check(&with(doc, path, value)).expect_err(path);
        assert!(err.contains(path), "error {err:?} does not name {path}");
    }

    fn table2_row(n: u64, optim_ns: u64) -> String {
        format!(
            r#"{{"n": {n}, "d": 64, "k": 2, "sweeps": 10, "init_ns": 1000000,
                "optim_ns": {optim_ns}, "preprocess_ns": 100000, "whitening_ns": 100000,
                "sample_ns": 100000, "pca_ns": 100000, "ica_ns": 100000000}}"#
        )
    }

    /// A minimal valid `BENCH_paper.json`: one (d, k) cell at two n, two
    /// rows per ablation.
    fn paper() -> Json {
        Json::parse(&format!(
            r#"{{"bench": "paper", "smoke": false, "available_parallelism": 2, "reps": 3,
                "table2": [{}, {}],
                "eqclass": [
                    {{"n": 128, "eqclass_ns": 300000, "naive_ns": 35000000, "speedup": 116.7}},
                    {{"n": 2048, "eqclass_ns": 310000, "naive_ns": 467000000, "speedup": 1506.5}}],
                "sherman_morrison": [
                    {{"d": 16, "sherman_morrison_ns": 330, "reinverse_ns": 10800, "speedup": 32.7}},
                    {{"d": 32, "sherman_morrison_ns": 960, "reinverse_ns": 50000, "speedup": 52.1}}]}}"#,
            table2_row(2048, 20_000_000),
            table2_row(8192, 22_000_000),
        ))
        .unwrap()
    }

    /// A minimal valid `BENCH_scaling.json`: one scenario past the D&C
    /// dispatch threshold, the three suggest rows and the five-round fit
    /// row with its cold refit.
    fn scaling() -> Json {
        let runs =
            |extra: &str| format!(r#"[{{"threads": 1, {extra}}}, {{"threads": 2, {extra}}}]"#);
        let round = r#"{"eigen_recomputed": 1, "sweeps": 2, "fit_ns": 1000}"#;
        let rounds = format!(
            r#""total_fit_ns": 5000, "rounds": [{}], "cold_refit": {round}"#,
            [round; 5].join(", ")
        );
        let suggest = |dataset: &str, batch: usize| {
            format!(
                r#"{{"dataset": "{dataset}", "n": 100, "d": 10, "batch": {batch}, "k": 8,
                    "bit_identical_across_threads": true, "runs": {}}}"#,
                runs(r#""suggest_ns": 1000, "suggest_ns_min": 1000, "suggest_ns_max": 3000000000"#)
            )
        };
        Json::parse(&format!(
            r#"{{"bench": "scaling", "smoke": false, "available_parallelism": 2,
                "max_threads": 2, "reps": 3, "classes": 4,
                "scenarios": [{{"n": 1000, "d": 64,
                    "eigen": {{"jacobi_ns": 6000000, "dc_ns": 1000000, "dc_speedup": 6.0}},
                    "store": {{"recover_ns": 1000, "recover_ops": 3, "wal_bytes": 100}},
                    "parallel_speedup_max_vs_1": 1.5, "bit_identical_across_threads": true,
                    "runs": [{{"threads": 1, "sample_ns": 1, "refresh_ns": 1, "whiten_ns": 1,
                        "pca_ns": 1, "matmul_ns": 1, "hot_total_ns": 2}}]}}],
                "suggest": [{}, {}, {}],
                "fit": [{{"dataset": "bnc", "n": 1335, "d": 100,
                    "bit_identical_across_threads": true, "runs": {}}}]}}"#,
            suggest("bnc", 16),
            suggest("bnc", 64),
            suggest("segmentation", 64),
            runs(&rounds),
        ))
        .unwrap()
    }

    #[test]
    fn minimal_documents_pass() {
        check_paper(&paper()).unwrap();
        check_scaling(&scaling()).unwrap();
    }

    #[test]
    fn committed_artifacts_pass() {
        for (name, check) in ARTIFACTS {
            if let Err(e) = load(name).and_then(|doc| check(&doc)) {
                panic!("{name}: {e}");
            }
        }
    }

    #[test]
    fn smoke_flag_is_required() {
        assert_rejects(check_paper, &paper(), "smoke", "no");
        assert_rejects(check_scaling, &scaling(), "smoke", 0usize);
    }

    #[test]
    fn eqclass_speedup_gate() {
        assert_rejects(check_paper, &paper(), "eqclass[0].speedup", 9.9);
    }

    #[test]
    fn eqclass_flat_in_n_gate() {
        assert_rejects(check_paper, &paper(), "eqclass[1].eqclass_ns", 600_001usize);
        check_paper(&with(&paper(), "eqclass[1].eqclass_ns", 600_000usize)).unwrap();
    }

    #[test]
    fn sherman_morrison_speedup_gate_from_d_32() {
        assert_rejects(check_paper, &paper(), "sherman_morrison[1].speedup", 9.9);
        // Below d = 32 both paths take microseconds; the ratio is not gated.
        check_paper(&with(&paper(), "sherman_morrison[0].speedup", 2.0)).unwrap();
    }

    #[test]
    fn stage_bound_gate() {
        for stage in ["init", "preprocess", "whitening", "sample", "pca"] {
            let path = format!("table2[1].{stage}_ns");
            assert_rejects(check_paper, &paper(), &path, 2_000_000_000usize);
            check_paper(&with(&paper(), &path, 1_999_999_999usize)).unwrap();
        }
    }

    #[test]
    fn optim_flat_in_n_gate() {
        // 20 ms per 10 sweeps at n = 2048: the bound is 60 ms at n = 8192.
        assert_rejects(check_paper, &paper(), "table2[1].optim_ns", 60_000_001usize);
        check_paper(&with(&paper(), "table2[1].optim_ns", 60_000_000usize)).unwrap();
        // Per sweep, not per fit: twice the sweeps may take twice as long.
        let more_sweeps = with(&paper(), "table2[1].sweeps", 20usize);
        check_paper(&with(&more_sweeps, "table2[1].optim_ns", 100_000_000usize)).unwrap();
    }

    #[test]
    fn full_mode_needs_a_gated_optim_cell() {
        let short = with(&paper(), "table2[0].optim_ns", 9_999_999usize);
        let err = check_paper(&short).unwrap_err();
        assert!(
            err.contains("'table2'"),
            "error {err:?} does not name table2"
        );
        check_paper(&with(&short, "smoke", true)).unwrap();
    }

    #[test]
    fn dc_speedup_gate_from_d_32() {
        assert_rejects(
            check_scaling,
            &scaling(),
            "scenarios[0].eigen.dc_speedup",
            0.99,
        );
        // Below d = 32 the dispatch is Jacobi and the ratio is noise.
        let small = with(&scaling(), "scenarios[0].d", 16usize);
        check_scaling(&with(&small, "scenarios[0].eigen.dc_speedup", 0.5)).unwrap();
    }

    #[test]
    fn suggest_rows_are_keyed_by_dataset_and_batch() {
        let mut missing = scaling();
        let Json::Arr(rows) = at(&mut missing, "suggest") else {
            panic!("suggest is not an array")
        };
        rows.remove(1);
        // The batch-16 row does not stand in for the batch-64 one.
        let err = check_scaling(&missing).unwrap_err();
        assert!(
            err.contains(r#"dataset == "bnc" and batch == 64"#),
            "error {err:?} does not name the missing row"
        );
    }

    #[test]
    fn suggest_at_one_thread_stays_under_two_seconds() {
        for i in 0..3 {
            let path = format!("suggest[{i}].runs[0].suggest_ns");
            assert_rejects(check_scaling, &scaling(), &path, 2_000_000_000usize);
            check_scaling(&with(&scaling(), &path, 1_999_999_999usize)).unwrap();
        }
        // The bound is on the serial figure.
        check_scaling(&with(
            &scaling(),
            "suggest[1].runs[1].suggest_ns",
            2_000_000_000usize,
        ))
        .unwrap();
    }

    #[test]
    fn suggest_runs_record_their_spread() {
        for field in ["suggest_ns_min", "suggest_ns_max"] {
            let mut missing = scaling();
            let Json::Obj(run) = at(&mut missing, "suggest[2].runs[0]") else {
                panic!("suggest[2].runs[0] is not an object")
            };
            run.remove(field);
            let path = format!("suggest[2].runs[0].{field}");
            let err = check_scaling(&missing).unwrap_err();
            assert!(err.contains(&path), "error {err:?} does not name {path}");
        }
        // The median sits between the fastest and the slowest rep.
        assert_rejects(
            check_scaling,
            &scaling(),
            "suggest[0].runs[1].suggest_ns_min",
            1001usize,
        );
        assert_rejects(
            check_scaling,
            &scaling(),
            "suggest[1].runs[0].suggest_ns_max",
            999usize,
        );
        check_scaling(&with(
            &scaling(),
            "suggest[1].runs[0].suggest_ns_max",
            1000usize,
        ))
        .unwrap();
    }

    #[test]
    fn fit_runs_need_a_timed_cold_refit() {
        let mut missing = scaling();
        let Json::Obj(run) = at(&mut missing, "fit[0].runs[1]") else {
            panic!("fit[0].runs[1] is not an object")
        };
        run.remove("cold_refit");
        let err = check_scaling(&missing).unwrap_err();
        assert!(
            err.contains("fit[0].runs[1].cold_refit"),
            "error {err:?} does not name the missing cold_refit"
        );
        for key in ["sweeps", "eigen_recomputed", "fit_ns"] {
            let path = format!("fit[0].runs[0].cold_refit.{key}");
            assert_rejects(check_scaling, &scaling(), &path, 0usize);
        }
    }

    #[test]
    fn replication_row_is_caught_up_on_every_stripe() {
        let serve = load("BENCH_serve.json").unwrap();
        let runs = serve.require_arr("runs").unwrap();
        let i = runs
            .iter()
            .position(|r| r.get("scenario").and_then(Json::as_str) == Some("replication"))
            .unwrap();
        let applied = format!("runs[{i}].follower.applied[0]");
        let shipped = runs[i].path("follower.shipped").unwrap().as_arr().unwrap()[0]
            .as_num()
            .unwrap();
        assert_rejects(check_serve, &serve, &applied, shipped + 1.0);
        assert_rejects(
            check_serve,
            &serve,
            &format!("runs[{i}].follower.final_lag"),
            1usize,
        );
        assert_rejects(
            check_serve,
            &serve,
            &format!("runs[{i}].follower.caught_up"),
            false,
        );
    }

    #[test]
    fn bit_identical_across_threads_gate() {
        for path in [
            "scenarios[0].bit_identical_across_threads",
            "suggest[1].bit_identical_across_threads",
            "fit[0].bit_identical_across_threads",
        ] {
            assert_rejects(check_scaling, &scaling(), path, false);
        }
    }
}
