//! End-to-end pipeline stages on an interactive-scale dataset
//! (paper §III: every stage except OPTIM/ICA must feel instant):
//! whitening, background sampling, PCA view, a full
//! view→mark→update→view cycle, and — the hottest path of the interactive
//! loop — cold-fit vs. warm-refit of the background distribution after one
//! incremental knowledge statement. The cold/warm comparison is also
//! written to `BENCH_pipeline.json` so the speedup is tracked in the perf
//! trajectory across PRs.

use criterion::{criterion_group, criterion_main, fmt_duration, Criterion};
use sider_core::{EdaSession, SimulatedUser};
use sider_json::Json;
use sider_maxent::FitOpts;
use sider_projection::Method;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    // Smoke mode (SIDER_BENCH_SMOKE=1): fewer samples on the same dataset,
    // identical artifact schema — cheap enough for a CI schema check.
    let samples = if sider_loadgen::smoke_mode() { 3 } else { 10 };
    group.sample_size(samples);

    let dataset = sider_data::synthetic::xhat5(1000, 42);

    // Pre-fitted session for the stage benches.
    let mut session = EdaSession::new(dataset.clone(), 11).expect("session");
    session.add_margin_constraints().expect("margins");
    session
        .update_background(&FitOpts::default())
        .expect("update");

    group.bench_function("whiten_1000x5", |b| {
        b.iter(|| black_box(session.whitened().expect("whiten")))
    });

    let bg = session.background().clone();
    group.bench_function("sample_1000x5", |b| {
        let mut rng = sider_stats::Rng::seed_from_u64(5);
        b.iter(|| black_box(bg.sample(&mut rng)))
    });

    group.bench_function("pca_view_1000x5", |b| {
        let mut s = session.clone();
        b.iter(|| black_box(s.next_view(&Method::Pca).expect("view")))
    });

    group.bench_function("full_interaction_cycle", |b| {
        b.iter(|| {
            let mut s = EdaSession::new(dataset.clone(), 11).expect("session");
            let mut user = SimulatedUser::new(6, 25, 33);
            let view = s.next_view(&Method::Pca).expect("view");
            for cluster in user.perceive_clusters(&view) {
                s.add_cluster_constraint(&cluster).expect("constraint");
            }
            s.update_background(&FitOpts::default()).expect("update");
            black_box(s.next_view(&Method::Pca).expect("view"))
        })
    });

    // Round N of the loop: the session already absorbed margins + three
    // clusters; one more cluster statement arrives. The warm path appends
    // into the persistent solver engine; the cold path re-solves all
    // accumulated constraints from scratch.
    let base = {
        let mut s = EdaSession::new(dataset.clone(), 11).expect("session");
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

    group.finish();

    // The warm-vs-cold comparison is measured once, outside the criterion
    // group, with the session clone + constraint staging excluded from the
    // timed region; the same samples feed both the printed lines and the
    // persisted JSON so they can never disagree.
    write_cold_vs_warm_json(&base, &next_cluster);
}

/// Median wall time of `routine` over pre-built inputs (setup excluded
/// from the timed region).
fn median_time<I>(inputs: Vec<I>, mut routine: impl FnMut(I)) -> Duration {
    let mut times: Vec<Duration> = inputs
        .into_iter()
        .map(|input| {
            let start = Instant::now();
            routine(input);
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
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
/// `BENCH_pipeline.json` at the workspace root.
fn write_cold_vs_warm_json(base: &EdaSession, next_cluster: &[usize]) {
    let samples = if sider_loadgen::smoke_mode() { 3 } else { 10 };
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

    println!(
        "pipeline/update_warm_refit: median {} ({samples} samples, update only)",
        fmt_duration(warm)
    );
    println!(
        "pipeline/update_cold_fit: median {} ({samples} samples, update only)",
        fmt_duration(cold)
    );
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
        ("dataset", Json::from("xhat5_1000x5")),
        ("samples", Json::from(samples)),
        ("cold_fit", fit(cold, cold_sweeps, cold_eigen)),
        ("warm_refit", fit(warm, warm_sweeps, warm_eigen)),
        ("speedup", Json::from((speedup * 1e3).round() / 1e3)),
    ]);
    sider_bench::write_artifact("pipeline", &doc);
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
