//! The hottest path of the interactive loop: cold fit vs. warm refit of
//! the background distribution after one incremental knowledge statement,
//! on an interactive-scale dataset (X̂₅, 1000×5). The comparison is
//! written to `BENCH_pipeline.json` so the speedup is tracked in the perf
//! trajectory across PRs. Set `SIDER_BENCH_SMOKE=1` for the CI-sized run
//! (fewer samples, same JSON schema).

use sider_bench::{median_duration, time, write_artifact};
use sider_core::EdaSession;
use sider_json::Json;
use sider_loadgen::smoke_mode;
use sider_maxent::FitOpts;
use std::time::Duration;

fn main() {
    let dataset = sider_data::synthetic::xhat5(1000, 42);

    // Round N of the loop: the session already absorbed margins + three
    // clusters; one more cluster statement arrives. The warm path appends
    // into the persistent solver engine; the cold path re-solves all
    // accumulated constraints from scratch.
    let base = {
        let mut s = EdaSession::new(dataset, 11).expect("session");
        s.add_margin_constraints().expect("margins");
        for k in 0..3 {
            let lo = k * 150;
            s.add_cluster_constraint(&(lo..lo + 120).collect::<Vec<_>>())
                .expect("cluster");
        }
        s.update_background(&FitOpts::default()).expect("update");
        s
    };
    let next_cluster: Vec<usize> = (600..720).collect();
    write_cold_vs_warm_json(&base, &next_cluster);
}

/// Median wall time of `routine` over pre-built inputs (setup excluded
/// from the timed region).
fn median_time<I>(inputs: Vec<I>, mut routine: impl FnMut(I)) -> Duration {
    let mut times: Vec<Duration> = inputs
        .into_iter()
        .map(|input| time(|| routine(input)).1)
        .collect();
    median_duration(&mut times)
}

/// Pre-built per-sample sessions with the next cluster already staged.
fn staged_sessions(base: &EdaSession, next_cluster: &[usize], samples: usize) -> Vec<EdaSession> {
    (0..samples)
        .map(|_| {
            let mut s = base.clone();
            s.add_cluster_constraint(next_cluster).expect("cluster");
            s
        })
        .collect()
}

/// Measure cold-fit vs warm-refit on the same state and persist the
/// comparison (wall time, sweep counts, eigendecompositions) to
/// `BENCH_pipeline.json` at the workspace root. The session clone and
/// constraint staging stay outside the timed region; the same samples
/// feed the printed lines and the JSON.
fn write_cold_vs_warm_json(base: &EdaSession, next_cluster: &[usize]) {
    let smoke = smoke_mode();
    let samples = if smoke { 3 } else { 10 };
    let opts = FitOpts::default();

    let mut warm_sweeps = 0usize;
    let mut warm_eigen = 0usize;
    let warm = median_time(staged_sessions(base, next_cluster, samples), |mut s| {
        let report = s.update_background(&opts).expect("update");
        warm_sweeps = report.sweeps_done();
        warm_eigen = s.last_refresh_stats().expect("stats").eigen_recomputed;
    });

    let mut cold_sweeps = 0usize;
    let mut cold_eigen = 0usize;
    let cold = median_time(staged_sessions(base, next_cluster, samples), |mut s| {
        let report = s.refit_cold(&opts).expect("refit");
        cold_sweeps = report.sweeps_done();
        cold_eigen = s.last_refresh_stats().expect("stats").eigen_recomputed;
    });

    println!("pipeline/update_warm_refit: median {warm:?} ({samples} samples, update only)");
    println!("pipeline/update_cold_fit: median {cold:?} ({samples} samples, update only)");
    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-12);
    println!("pipeline/cold_vs_warm: speedup {speedup:.2}x");
    let fit = |median: Duration, sweeps: usize, eigen: usize| {
        Json::obj([
            ("median_ns", Json::from(median.as_nanos() as u64)),
            ("sweeps", Json::from(sweeps)),
            ("eigen_recomputed", Json::from(eigen)),
        ])
    };
    let doc = Json::obj([
        ("bench", Json::from("pipeline_cold_vs_warm")),
        ("smoke", Json::from(smoke)),
        ("dataset", Json::from("xhat5_1000x5")),
        ("samples", Json::from(samples)),
        ("cold_fit", fit(cold, cold_sweeps, cold_eigen)),
        ("warm_refit", fit(warm, warm_sweeps, warm_eigen)),
        ("speedup", Json::from((speedup * 1e3).round() / 1e3)),
    ]);
    write_artifact("pipeline", &doc);
}
