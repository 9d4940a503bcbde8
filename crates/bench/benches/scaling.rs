//! Scaling scenario matrix for the parallel execution subsystem.
//!
//! For every scenario `n × d` in the grid, the round-trip hot paths —
//! background **sampling**, spectral **refresh** of all classes,
//! **whitening**, **PCA** moment accumulation and a dataset-sized
//! **matmul** — are timed at 1, 2 and `max` threads.
//!
//! The refresh stage models one warm feedback round: every class's
//! precision has moved by `k = clamp(d/8, 1, 4)` rank-1 directions
//! since its spectrum was cached (a 2-D marking interaction perturbs 2–4
//! directions per class), so every class is cov-dirty and the refresh
//! re-decomposes each one with `SymEigen::decompose` (`refresh_ns`, which
//! enters `hot_total_ns`).
//!
//! Each scenario persists its stage times per thread count to
//! `BENCH_scaling.json`. The 1-thread row is the serial figure, comparable
//! only with runs on the same host, and `parallel_speedup_max_vs_1`
//! compares max-thread vs 1-thread runs of the same kernels (only
//! meaningful when the host grants more than one CPU;
//! `available_parallelism` is recorded so the trajectory can be read in
//! context).
//!
//! Every scenario also times the **cold eigensolver** on one class
//! precision: the raw cyclic Jacobi (`eigen.jacobi_ns`) against the
//! `SymEigen::decompose` dispatch (`eigen.dc_ns` — tridiagonalization +
//! divide-and-conquer above the size threshold, Jacobi below), with
//! `eigen.dc_speedup = jacobi / dc` after a spectrum-agreement gate. At
//! `d < 32` the dispatch *is* Jacobi, so the ratio hovers around 1; at
//! `d ≥ 32` it is the cold-refit win the CI schema check gates on.
//!
//! Every run also cross-checks that sampling, whitening (of the cached and
//! of the refreshed distribution), the fused whiten+moment kernel and PCA
//! produce **bit-identical** outputs at every thread count
//! (`bit_identical_across_threads`), which is the determinism contract
//! of `sider_par`.
//!
//! Each scenario also times **crash recovery** (`store.recover_ns`): a
//! real `sider_store` op-log over an `n × d` session — create, two
//! cluster-knowledge rounds with warm updates, a view — is written
//! through the production append path, then the session is rebuilt from
//! disk with `Store::recover_session_with` (WAL scan + CRC validation +
//! `ops::replay`, which parses as `ops::apply` does and replays the PCA
//! view as its one RNG draw, on a 1-thread pool). The resulting state,
//! RNG position included, is fingerprint-checked against a live twin
//! before the timing is trusted.
//!
//! A top-level `suggest` array times `sider_suggest::recommend` on the
//! two guided-exploration shapes of the closed-loop benchmark: builtin
//! `bnc` (1335×100) with batch 16 and builtin `segmentation` (2310×19)
//! with batch 64, and on `bnc` with batch 64, the first d = 100 shape
//! whose batch outgrows the 28 PCA pairs and reaches FastICA. Each is
//! fitted with margins and one label-class cluster.
//! Each row records, at 1 and `max` threads, the median of its `reps`
//! timings as `suggest_ns` and the fastest and slowest of them as
//! `suggest_ns_min` and `suggest_ns_max`, and
//! `bit_identical_across_threads` compares the two response dumps. A row
//! is one run on one host: quote a speed-up only from runs of both builds
//! made side by side.
//!
//! A top-level `fit` array times the feedback loop's refits on the shape
//! of the closed-loop benchmark's fit-bound workload: builtin `bnc`
//! (1335×100) with margins, then each of its four genre classes as a
//! cluster statement, one warm update per statement under default
//! `FitOpts`. Each of the five rounds records its `sweeps`,
//! `eigen_recomputed` and `fit_ns` (the median over fresh sessions), and
//! each run records `total_fit_ns` (the median of the per-session sums),
//! at 1 and `max` threads. After the five rounds each session refits its
//! final knowledge from scratch (`EdaSession::refit_cold`), recorded as
//! the run's `cold_refit` with the same three fields, so the last warm
//! round and a cold fit of the same knowledge sit side by side.
//! `bit_identical_across_threads` compares the update reports and the
//! `information_nats` bits of every round and of the cold refit.
//!
//! Set `SIDER_BENCH_SMOKE=1` for the reduced CI grid (same JSON schema;
//! the `suggest` and `fit` rows keep their full shapes).

use sider_bench::{median_duration, time, write_artifact};
use sider_core::wire::{report_to_json, suggest_response_to_json, SuggestRequest};
use sider_core::EdaSession;
use sider_data::bnc::{bnc_like_corpus, BncOpts};
use sider_data::segmentation::{segmentation_like, SegmentationOpts};
use sider_data::Dataset;
use sider_json::Json;
use sider_linalg::{sym_eigen, vector, woodbury, Matrix, SymEigen};
use sider_loadgen::smoke_mode;
use sider_maxent::params::ClassParams;
use sider_maxent::{BackgroundDistribution, ConvergenceReport, FitOpts};
use sider_par::ThreadPool;
use sider_projection::{pca_directions_with, Method};
use sider_stats::Rng;
use sider_store::ops::OpKind;
use sider_store::{FsyncPolicy, Store, StoreConfig};
use std::sync::Arc;
use std::time::Duration;

/// Distinct per-row Gaussians in every scenario (8 eigendecompositions per
/// refresh — enough to give a multi-core pool real per-class parallelism).
const N_CLASSES: usize = 8;

struct Scenario {
    n: usize,
    d: usize,
}

/// Rank of the modeled feedback round. A 2-D marking interaction perturbs
/// 2–4 quadratic directions per affected class (the two marked axes plus
/// the margins aligned with them), so the modeled rank grows gently with
/// `d`.
fn pending_rank(d: usize) -> usize {
    (d / 8).clamp(1, 4)
}

struct StageTimes {
    threads: usize,
    sample: Duration,
    refresh: Duration,
    whiten: Duration,
    pca: Duration,
    matmul: Duration,
}

impl StageTimes {
    /// The acceptance metric: sampling + refresh wall time.
    fn hot_total(&self) -> Duration {
        self.sample + self.refresh
    }
}

fn main() {
    let smoke = smoke_mode();
    let reps = if smoke { 2 } else { 3 };
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let max_threads = sider_par::threads_from_env();
    let mut thread_counts = vec![1usize, 2, max_threads];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let (ns, ds): (&[usize], &[usize]) = if smoke {
        (&[1_000], &[5, 16])
    } else {
        (&[1_000, 10_000, 100_000], &[5, 16, 64])
    };
    let scenarios: Vec<Scenario> = ns
        .iter()
        .flat_map(|&n| ds.iter().map(move |&d| Scenario { n, d }))
        .collect();

    let scenario_jsons: Vec<Json> = scenarios
        .iter()
        .map(|sc| run_scenario(sc, &thread_counts, max_threads, reps))
        .collect();
    let suggest_jsons = vec![
        run_suggest(
            "bnc",
            bnc_like_corpus(&BncOpts::default(), 2018),
            16,
            max_threads,
            reps,
        ),
        run_suggest(
            "bnc",
            bnc_like_corpus(&BncOpts::default(), 2018),
            64,
            max_threads,
            reps,
        ),
        run_suggest(
            "segmentation",
            segmentation_like(&SegmentationOpts::default(), 2018),
            64,
            max_threads,
            reps,
        ),
    ];
    let fit_jsons = vec![run_fit(
        "bnc",
        bnc_like_corpus(&BncOpts::default(), 2018),
        max_threads,
        reps,
    )];
    let doc = Json::obj([
        ("bench", Json::from("scaling")),
        ("smoke", Json::from(smoke)),
        ("available_parallelism", Json::from(available)),
        ("max_threads", Json::from(max_threads)),
        ("reps", Json::from(reps)),
        ("classes", Json::from(N_CLASSES)),
        ("scenarios", Json::Arr(scenario_jsons)),
        ("suggest", Json::Arr(suggest_jsons)),
        ("fit", Json::Arr(fit_jsons)),
    ]);
    write_artifact("scaling", &doc);
}

/// Synthetic fitted background: `N_CLASSES` well-conditioned anisotropic
/// Gaussians assigned round-robin to rows.
fn build_background(n: usize, d: usize, seed: u64) -> (BackgroundDistribution, Vec<ClassParams>) {
    let mut rng = Rng::seed_from_u64(seed);
    let params: Vec<ClassParams> = (0..N_CLASSES)
        .map(|_| {
            let r = rng.standard_normal_matrix(d, d).scale(0.3);
            let mut prec = r.gram();
            for i in 0..d {
                prec[(i, i)] += 1.0;
            }
            let mut p = ClassParams::prior(d, n / N_CLASSES);
            p.m = rng.standard_normal_vec(d);
            p.prec = prec;
            p
        })
        .collect();
    let class_of_row: Vec<u32> = (0..n).map(|i| (i % N_CLASSES) as u32).collect();
    let bg = BackgroundDistribution::from_class_params(d, class_of_row, &params);
    (bg, params)
}

fn run_scenario(sc: &Scenario, thread_counts: &[usize], max_threads: usize, reps: usize) -> Json {
    let (n, d) = (sc.n, sc.d);
    let (bg, params) = build_background(n, d, 0x5eed ^ (n as u64) ^ ((d as u64) << 32));
    let class_of_row: Vec<u32> = (0..n).map(|i| (i % N_CLASSES) as u32).collect();
    let parents: Vec<u32> = (0..N_CLASSES as u32).collect();
    let mean_clean = vec![false; N_CLASSES];
    let cov_dirty = vec![true; N_CLASSES];
    let w = Rng::seed_from_u64(7).standard_normal_matrix(d, d);

    // ---- The feedback round being refreshed: every class's precision
    // moves by k rank-1 directions, as a warm solver fit moves them. ----
    let k = pending_rank(d);
    let mut dir_rng = Rng::seed_from_u64(0xd1f ^ (n as u64) ^ ((d as u64) << 24));
    let pending: Vec<Vec<(Vec<f64>, f64)>> = (0..N_CLASSES)
        .map(|c| {
            (0..k)
                .map(|j| {
                    let mut dir = dir_rng.standard_normal_vec(d);
                    let norm = vector::norm2(&dir).max(1e-12);
                    vector::scale(&mut dir, 1.0 / norm);
                    // Moderate positive multipliers (a variance-shrinking
                    // feedback step), varied per class and direction.
                    let lam = 0.3 + 0.15 * ((c + j) % 5) as f64;
                    (dir, lam)
                })
                .collect()
        })
        .collect();
    let updated_params: Vec<ClassParams> = params
        .iter()
        .zip(&pending)
        .map(|(p, moves)| {
            let mut p = p.clone();
            for (dir, lam) in moves {
                let r = woodbury::prepare(&p.sigma, dir);
                woodbury::apply(&mut p.sigma, &r, *lam);
                woodbury::precision_update(&mut p.prec, dir, *lam);
            }
            p
        })
        .collect();

    // ---- Cold eigensolver: raw Jacobi vs the decompose dispatch on one
    // class precision (the O(d³) kernel behind every cold refresh and
    // cold refit). Spectrum agreement is gated before the ratio is
    // trusted: a fast-but-wrong solver must not produce a metric. ----
    let prec0 = params[0].prec.clone();
    let eigen_jacobi = median_of(reps, || time(|| sym_eigen(&prec0).expect("bench jacobi")).1);
    let eigen_dc = median_of(reps, || {
        time(|| SymEigen::decompose(&prec0).expect("bench decompose")).1
    });
    {
        let jac = sym_eigen(&prec0).expect("bench jacobi");
        let dc = SymEigen::decompose(&prec0).expect("bench decompose");
        let scale = prec0.frobenius_norm().max(1.0);
        let worst = jac
            .values
            .iter()
            .zip(&dc.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let recon = dc.reconstruct().max_abs_diff(&prec0);
        if !(worst.is_finite() && worst <= 1e-9 * scale && recon <= 1e-9 * scale) {
            eprintln!(
                "scaling/{n}x{d}: D&C disagrees with Jacobi: values off {worst:.3e}, reconstruction off {recon:.3e}"
            );
            std::process::exit(1);
        }
    }
    let dc_speedup = ratio(eigen_jacobi, eigen_dc);

    // ---- Current kernels at each thread count. ----
    let mut runs: Vec<StageTimes> = Vec::new();
    let mut bit_identical = true;
    let mut reference: Option<(Matrix, Matrix, Matrix, Matrix, Matrix)> = None;
    for &threads in thread_counts {
        let pool = ThreadPool::new(threads);

        let sample = median_of(reps, || {
            let mut rng = Rng::seed_from_u64(11);
            time(|| bg.sample_with(&mut rng, &pool)).1
        });
        // The last timed refresh is kept: its whitening output enters the
        // bit-identity check below.
        let mut refreshed = bg.clone();
        let refresh = median_of(reps, || {
            refreshed = bg.clone();
            time(|| {
                refreshed.refresh_from_class_params_with(
                    class_of_row.clone(),
                    &updated_params,
                    &parents,
                    &mean_clean,
                    &cov_dirty,
                    &pool,
                )
            })
            .1
        });

        let mut rng = Rng::seed_from_u64(11);
        let sampled = bg.sample_with(&mut rng, &pool);
        let whiten = median_of(reps, || time(|| bg.whiten_with(&sampled, &pool).unwrap()).1);
        let whitened = bg.whiten_with(&sampled, &pool).unwrap();
        let refreshed_whitened = refreshed.whiten_with(&sampled, &pool).unwrap();
        let pca = median_of(reps, || {
            time(|| pca_directions_with(&whitened, &pool).unwrap()).1
        });
        let matmul = median_of(reps, || time(|| sampled.matmul_with(&w, &pool)).1);

        // Determinism cross-check against the first (1-thread) run —
        // including the fused whiten+moment kernel of the view path.
        let directions = pca_directions_with(&whitened, &pool).unwrap().directions;
        let fused_moment = bg.whitened_second_moment_with(&sampled, &pool).unwrap();
        match &reference {
            None => {
                reference = Some((
                    sampled,
                    whitened,
                    directions,
                    refreshed_whitened,
                    fused_moment,
                ))
            }
            Some((s0, w0, d0, r0, m0)) => {
                bit_identical &= s0.as_slice() == sampled.as_slice()
                    && w0.as_slice() == whitened.as_slice()
                    && d0.as_slice() == directions.as_slice()
                    && r0.as_slice() == refreshed_whitened.as_slice()
                    && m0.as_slice() == fused_moment.as_slice();
            }
        }

        runs.push(StageTimes {
            threads,
            sample,
            refresh,
            whiten,
            pca,
            matmul,
        });
    }

    // ---- Crash recovery: rebuild an n×d session from its op-log. ----
    let (recover, recover_ops, wal_bytes) = bench_recovery(n, d, reps);

    let t1 = runs
        .iter()
        .find(|r| r.threads == 1)
        .expect("1-thread run present");
    // The "max" of the acceptance metric is SIDER_THREADS / available
    // parallelism — not the largest count benched (the 2-thread row is
    // benched even on 1-CPU hosts to keep the grid shape stable).
    let tmax = runs
        .iter()
        .find(|r| r.threads == max_threads)
        .expect("max-thread run present");
    let parallel_speedup = ratio(t1.hot_total(), tmax.hot_total());

    println!(
        "scaling/{n}x{d}: serial {:.1}ms (cold eigen dc {dc_speedup:.2}x vs jacobi) -> {} threads {:.1}ms ({parallel_speedup:.2}x), recover {:.1}ms/{recover_ops} ops, bit_identical={bit_identical}",
        t1.hot_total().as_secs_f64() * 1e3,
        tmax.threads,
        tmax.hot_total().as_secs_f64() * 1e3,
        recover.as_secs_f64() * 1e3,
    );

    let ns = |t: Duration| Json::from(t.as_nanos() as u64);
    let round3 = |x: f64| Json::from((x * 1e3).round() / 1e3);
    let runs_json = runs.iter().map(|r| {
        Json::obj([
            ("threads", Json::from(r.threads)),
            ("sample_ns", ns(r.sample)),
            ("refresh_ns", ns(r.refresh)),
            ("whiten_ns", ns(r.whiten)),
            ("pca_ns", ns(r.pca)),
            ("matmul_ns", ns(r.matmul)),
            ("hot_total_ns", ns(r.hot_total())),
        ])
    });
    Json::obj([
        ("n", Json::from(n)),
        ("d", Json::from(d)),
        (
            "eigen",
            Json::obj([
                ("jacobi_ns", ns(eigen_jacobi)),
                ("dc_ns", ns(eigen_dc)),
                ("dc_speedup", round3(dc_speedup)),
            ]),
        ),
        (
            "store",
            Json::obj([
                ("recover_ns", ns(recover)),
                ("recover_ops", Json::from(recover_ops)),
                ("wal_bytes", Json::from(wal_bytes)),
            ]),
        ),
        ("runs", Json::arr(runs_json)),
        ("bit_identical_across_threads", Json::from(bit_identical)),
        ("parallel_speedup_max_vs_1", round3(parallel_speedup)),
    ])
}

/// Time `recommend` on a builtin dataset fitted with margins and its first
/// label class as one cluster statement, at 1 and `max_threads` pool
/// threads. Each thread count gets its own session (fits are bit-identical
/// at any pool size), and the response dumps are compared byte for byte.
fn run_suggest(name: &str, ds: Dataset, batch: usize, max_threads: usize, reps: usize) -> Json {
    let req = SuggestRequest {
        seed: 3,
        batch,
        k: 8,
    };
    let (n, d) = (ds.n(), ds.d());
    let class: Vec<usize> = (0..n)
        .filter(|&i| ds.labels[0].assignments[i] == 0)
        .collect();
    let mut thread_counts = vec![1usize, max_threads];
    thread_counts.dedup();
    let mut dumps: Vec<String> = Vec::new();
    let mut runs: Vec<Json> = Vec::new();
    for &threads in &thread_counts {
        let pool = Arc::new(ThreadPool::new(threads));
        let mut session = EdaSession::with_pool(ds.clone(), 7, pool).expect("session");
        session.add_margin_constraints().expect("margins");
        session.add_cluster_constraint(&class).expect("cluster");
        session.update_background(&FitOpts::default()).expect("fit");
        let recommend = || sider_suggest::recommend(&session, &req).expect("recommend");
        let mut times: Vec<Duration> = (0..reps).map(|_| time(recommend).1).collect();
        let suggest_ns = median_duration(&mut times);
        // Sorted by the median: the ends are the run's fastest and slowest.
        let (fastest, slowest) = (times[0], times[times.len() - 1]);
        dumps.push(suggest_response_to_json(&recommend()).dump());
        runs.push(Json::obj([
            ("threads", Json::from(threads)),
            ("suggest_ns", Json::from(suggest_ns.as_nanos() as u64)),
            ("suggest_ns_min", Json::from(fastest.as_nanos() as u64)),
            ("suggest_ns_max", Json::from(slowest.as_nanos() as u64)),
        ]));
        println!(
            "scaling/suggest {name} {n}x{d} batch {batch}: {threads} threads {:.1}ms",
            suggest_ns.as_secs_f64() * 1e3
        );
    }
    let bit_identical = dumps.windows(2).all(|w| w[0] == w[1]);
    Json::obj([
        ("dataset", Json::from(name)),
        ("n", Json::from(n)),
        ("d", Json::from(d)),
        ("batch", Json::from(batch)),
        ("k", Json::from(req.k)),
        ("runs", Json::Arr(runs)),
        ("bit_identical_across_threads", Json::from(bit_identical)),
    ])
}

/// Time the feedback loop's refits on a builtin labelled dataset: margins,
/// then every class of its first label set as a cluster statement, each
/// followed by one update under default `FitOpts`. Every thread count runs
/// `reps` fresh sessions; a round's `fit_ns` is the median of its update
/// times (the solver's sweeps plus the spectral refresh), and
/// `total_fit_ns` the median of the per-session sums. The
/// update reports (sweep counts and final residuals) and the
/// `information_nats` bits of every round are compared across thread
/// counts.
fn run_fit(name: &str, ds: Dataset, max_threads: usize, reps: usize) -> Json {
    let (n, d) = (ds.n(), ds.d());
    // One round per statement: margins, then each class as a cluster.
    let statements: Vec<Option<usize>> = std::iter::once(None)
        .chain((0..ds.labels[0].n_classes()).map(Some))
        .collect();
    let mut thread_counts = vec![1usize, max_threads];
    thread_counts.dedup();
    let mut fingerprints: Vec<Vec<String>> = Vec::new();
    let mut runs: Vec<Json> = Vec::new();
    for &threads in &thread_counts {
        let pool = Arc::new(ThreadPool::new(threads));
        // times[round][rep]
        let mut times: Vec<Vec<Duration>> = vec![Vec::new(); statements.len()];
        let mut totals: Vec<Duration> = Vec::new();
        let mut rounds: Vec<(usize, usize)> = Vec::new();
        let mut cold_times: Vec<Duration> = Vec::new();
        let mut cold_round = (0, 0);
        let mut fingerprint: Vec<String> = Vec::new();
        for rep in 0..reps {
            let mut session =
                EdaSession::with_pool(ds.clone(), 7, Arc::clone(&pool)).expect("session");
            let mut total = Duration::ZERO;
            for (&statement, round_times) in statements.iter().zip(&mut times) {
                match statement {
                    None => session.add_margin_constraints().expect("margins"),
                    Some(class) => {
                        let rows = session.select_class(0, class).expect("class");
                        session.add_cluster_constraint(&rows).expect("cluster");
                    }
                }
                let (report, fit) = time(|| session.update_background(&FitOpts::default()));
                let report = report.expect("fit");
                round_times.push(fit);
                total += fit;
                if rep == 0 {
                    let (round, bits) = refit_record(&session, &report);
                    rounds.push(round);
                    fingerprint.push(bits);
                }
            }
            totals.push(total);
            let (report, fit) = time(|| session.refit_cold(&FitOpts::default()));
            let report = report.expect("cold refit");
            cold_times.push(fit);
            if rep == 0 {
                let (round, bits) = refit_record(&session, &report);
                cold_round = round;
                fingerprint.push(bits);
            }
        }
        let total_fit = median_duration(&mut totals);
        println!(
            "scaling/fit {name} {n}x{d}: {threads} threads {:.1}ms over {} rounds",
            total_fit.as_secs_f64() * 1e3,
            rounds.len()
        );
        let rounds_json = statements.iter().zip(rounds).zip(&mut times).map(
            |((statement, (sweeps, eigen)), t)| {
                let statement = match statement {
                    None => "margins".to_string(),
                    Some(class) => format!("cluster {class}"),
                };
                Json::obj([
                    ("statement", Json::from(statement)),
                    ("sweeps", Json::from(sweeps)),
                    ("eigen_recomputed", Json::from(eigen)),
                    ("fit_ns", Json::from(median_duration(t).as_nanos() as u64)),
                ])
            },
        );
        let cold_fit = median_duration(&mut cold_times);
        println!(
            "scaling/fit {name} {n}x{d}: {threads} threads cold refit {:.1}ms in {} sweeps",
            cold_fit.as_secs_f64() * 1e3,
            cold_round.0
        );
        runs.push(Json::obj([
            ("threads", Json::from(threads)),
            ("rounds", Json::arr(rounds_json)),
            ("total_fit_ns", Json::from(total_fit.as_nanos() as u64)),
            (
                "cold_refit",
                Json::obj([
                    ("sweeps", Json::from(cold_round.0)),
                    ("eigen_recomputed", Json::from(cold_round.1)),
                    ("fit_ns", Json::from(cold_fit.as_nanos() as u64)),
                ]),
            ),
        ]));
        fingerprints.push(fingerprint);
    }
    let bit_identical = fingerprints.windows(2).all(|w| w[0] == w[1]);
    Json::obj([
        ("dataset", Json::from(name)),
        ("n", Json::from(n)),
        ("d", Json::from(d)),
        ("runs", Json::Arr(runs)),
        ("bit_identical_across_threads", Json::from(bit_identical)),
    ])
}

/// The sweeps and re-decomposed classes of `session`'s last refit, and
/// its fingerprint: the update report and the `information_nats` bits.
fn refit_record(session: &EdaSession, report: &ConvergenceReport) -> ((usize, usize), String) {
    let eigen = session
        .last_refresh_stats()
        .expect("refresh stats")
        .eigen_recomputed;
    let bits = format!(
        "{} {:016x}",
        report_to_json(report).dump(),
        session.information_nats().to_bits()
    );
    ((report.sweeps, eigen), bits)
}

/// Time rebuilding an `n × d` session from a real on-disk op-log: the
/// history (create + 2 knowledge/update rounds + a view) is written
/// through the production `Store` append path, then recovered with the
/// production replay path on a 1-thread pool. Returns the median
/// recovery wall time, the op count and the WAL size. The recovered
/// state is fingerprinted against a live twin once before timing — a
/// recovery that reproduced the wrong bytes must not produce a metric.
/// The fingerprint ends with both sessions' next PCA view, whose
/// background sample reads the RNG position the logged view left.
fn bench_recovery(n: usize, d: usize, reps: usize) -> (Duration, u64, u64) {
    let dir = std::env::temp_dir().join(format!(
        "sider_bench_recover_{}_{n}x{d}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = StoreConfig::new(&dir);
    config.fsync = FsyncPolicy::Never; // timing replay, not disk flushes
    let store = Store::open(config).expect("open bench store");

    // The dataset arrives via the resolver (the builtin-name twin of the
    // server path, minus CSV parsing), regenerated identically per call.
    let seed = 0xbe2c ^ (n as u64) ^ ((d as u64) << 32);
    let resolver = move |_body: &Json| -> Result<sider_data::Dataset, String> {
        let mut rng = Rng::seed_from_u64(seed);
        Ok(sider_data::Dataset::unlabeled(
            "bench",
            rng.standard_normal_matrix(n, d),
        ))
    };

    let k = 64usize; // n >= 1000 in every scenario
    let rows = |r: std::ops::Range<usize>| Json::Arr(r.map(|i| Json::from(i as f64)).collect());
    let knowledge =
        |r: std::ops::Range<usize>| Json::obj([("kind", Json::from("cluster")), ("rows", rows(r))]);
    let history: Vec<(OpKind, Json)> = vec![
        (OpKind::Knowledge, knowledge(0..k)),
        (OpKind::Update, Json::obj([])),
        (OpKind::View, Json::obj([("method", Json::from("pca"))])),
        (OpKind::Knowledge, knowledge(k..2 * k)),
        (OpKind::Update, Json::obj([])),
    ];
    let create = Json::obj([("dataset", Json::from("bench")), ("seed", Json::from(7.0))]);
    store.create_session(1, &create).expect("log create");
    for (kind, body) in &history {
        store.append(1, *kind, body).expect("log op");
    }
    let wal_bytes = store.status_of(1).expect("status").wal_bytes;
    let recover_ops = 1 + history.len() as u64;

    // Correctness gate: recovered state must match a live twin bitwise.
    let pool = Arc::new(ThreadPool::new(1));
    {
        let mut live = sider_store::ops::create_session(&create, Arc::clone(&pool), &resolver)
            .expect("live create");
        for (kind, body) in &history {
            sider_store::ops::apply(&mut live, *kind, body).expect("live op");
        }
        let mut recovered = store
            .recover_session_with(1, Arc::clone(&pool), &resolver)
            .expect("recover");
        let live_w = live.whitened().expect("live whiten");
        let rec_w = recovered.whitened().expect("recovered whiten");
        let live_v = live.next_view(&Method::Pca).expect("live view");
        let rec_v = recovered.next_view(&Method::Pca).expect("recovered view");
        if live_w.as_slice() != rec_w.as_slice()
            || live.information_nats().to_bits() != recovered.information_nats().to_bits()
            || live_v.projected_data.as_slice() != rec_v.projected_data.as_slice()
            || live_v.projected_background.as_slice() != rec_v.projected_background.as_slice()
        {
            eprintln!("scaling/{n}x{d}: recovery is not bit-identical to the live session");
            std::process::exit(1);
        }
    }

    let recover = median_of(reps, || {
        time(|| {
            store
                .recover_session_with(1, Arc::clone(&pool), &resolver)
                .expect("recover")
        })
        .1
    });
    let _ = std::fs::remove_dir_all(&dir);
    (recover, recover_ops, wal_bytes)
}

fn median_of(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let mut times: Vec<Duration> = (0..reps).map(|_| f()).collect();
    median_duration(&mut times)
}

fn ratio(a: Duration, b: Duration) -> f64 {
    a.as_secs_f64() / b.as_secs_f64().max(1e-12)
}
