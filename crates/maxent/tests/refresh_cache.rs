//! The cached background of a warm session is a pure function of the
//! solver's class parameters: after every refit, the whiten and sample
//! bytes and the information total of `SolverState::background` must
//! equal those of a cold rebuild (`Solver::distribution`) of the same
//! parameters, bit for bit. Checked over rounds that mix every kind of
//! statement, at dimensions on both branches of `SymEigen::decompose`
//! (d = 36 takes divide-and-conquer) and at pool sizes 1 and 4, with all
//! three refresh branches (re-decomposed, mean-only, cloned from a split
//! parent) exercised.

use sider_linalg::{vector, DecomposeOpts, Matrix};
use sider_maxent::constraint::{cluster_constraints, margin_constraints, twod_constraints};
use sider_maxent::engine::SolverState;
use sider_maxent::rowset::RowSet;
use sider_maxent::solver::FitOpts;
use sider_maxent::{BackgroundDistribution, Constraint, RefreshStats, Solver};
use sider_par::ThreadPool;
use sider_stats::Rng;
use std::sync::Arc;

/// Cache equality must hold for truncated fits too, so a small sweep cap
/// keeps the d = 36 cluster rounds cheap without weakening the check.
fn opts() -> FitOpts {
    FitOpts {
        lambda_tol: 1e-6,
        moment_tol: 1e-6,
        max_sweeps: 30,
        ..FitOpts::default()
    }
}

fn gen_data(seed: u64, n: usize, d: usize) -> Matrix {
    let mut rng = Rng::seed_from_u64(seed);
    Matrix::from_fn(n, d, |i, j| {
        let center = if i < n / 3 { 1.2 } else { -0.4 };
        center + rng.normal(0.1 * j as f64, 1.0 + 0.1 * j as f64)
    })
}

fn rows(range: std::ops::Range<usize>) -> RowSet {
    RowSet::from_indices(&range.collect::<Vec<_>>())
}

fn axis(d: usize, j: usize) -> Vec<f64> {
    let mut e = vec![0.0; d];
    e[j] = 1.0;
    e
}

/// A seeded orthonormal pair spanning an oblique plane, like the PCA/ICA
/// views the system shows.
fn oblique_plane(d: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut a1 = rng.standard_normal_vec(d);
    vector::normalize(&mut a1);
    let mut a2 = rng.standard_normal_vec(d);
    vector::axpy(-vector::dot(&a2, &a1), &a1, &mut a2);
    vector::normalize(&mut a2);
    (a1, a2)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn assert_same_bytes(
    warm: &BackgroundDistribution,
    cold: &BackgroundDistribution,
    data: &Matrix,
    ctx: &str,
) {
    assert_eq!(
        bits(&warm.whiten(data).unwrap()),
        bits(&cold.whiten(data).unwrap()),
        "{ctx}: whiten"
    );
    assert_eq!(
        bits(&warm.sample(&mut Rng::seed_from_u64(5))),
        bits(&cold.sample(&mut Rng::seed_from_u64(5))),
        "{ctx}: sample"
    );
    assert_eq!(
        warm.total_kl_from_prior().to_bits(),
        cold.total_kl_from_prior().to_bits(),
        "{ctx}: information"
    );
}

fn add(total: &mut RefreshStats, s: RefreshStats) {
    total.classes_total += s.classes_total;
    total.eigen_recomputed += s.eigen_recomputed;
    total.mean_updated += s.mean_updated;
    total.cloned_from_parent += s.cloned_from_parent;
}

/// Open a session with `opening`, refit it with each round in turn and
/// check the cache against a cold rebuild after every refit. Returns the
/// summed refresh stats of the refits.
fn drive(
    data: &Matrix,
    opening: Vec<Constraint>,
    rounds: Vec<(&str, Vec<Constraint>)>,
    pool: &Arc<ThreadPool>,
    ctx: &str,
) -> RefreshStats {
    let (mut state, _) = SolverState::cold_with(data, opening, &opts(), pool.clone()).unwrap();
    assert_same_bytes(
        state.background(),
        &state.solver().distribution(),
        data,
        &format!("{ctx} opening"),
    );
    let mut total = RefreshStats::default();
    for (label, cs) in rounds {
        state.refit(cs, &opts()).unwrap();
        add(&mut total, state.last_refresh());
        assert_same_bytes(
            state.background(),
            &state.solver().distribution(),
            data,
            &format!("{ctx} {label}"),
        );
    }
    total
}

/// Both scripted sessions at dimension `d` on a pool of `threads`.
///
/// * Margin opening, then an axis-aligned 2-D statement, an oblique 2-D
///   plane, a cluster statement and a linear-only statement. Margins
///   cover every row, so each round moves every class's covariance.
/// * Cluster opening over the first third, then linear-only statements
///   over the uncovered rows (a mean-only update of the old class), over
///   a part of them (a split whose child is cloned from its parent), and
///   an oblique plane inside the cluster.
fn run(d: usize, threads: usize) -> RefreshStats {
    let n = 60;
    let data = gen_data(41 + d as u64, n, d);
    let pool = Arc::new(ThreadPool::new(threads));
    let ctx = format!("d={d} threads={threads}");
    let (p1, p2) = oblique_plane(d, 7);
    let (q1, q2) = oblique_plane(d, 8);
    let linear = |r: std::ops::Range<usize>, w: &[f64], label: &str| -> Vec<Constraint> {
        vec![Constraint::linear(&data, rows(r), w.to_vec(), label).unwrap()]
    };

    let mut total = drive(
        &data,
        margin_constraints(&data).unwrap(),
        vec![
            (
                "axis-aligned plane",
                twod_constraints(&data, rows(0..n / 3), &axis(d, 0), &axis(d, 1), "a").unwrap(),
            ),
            (
                "oblique plane",
                twod_constraints(&data, rows(n / 4..2 * n / 3), &p1, &p2, "p").unwrap(),
            ),
            (
                "cluster",
                cluster_constraints(&data, rows(n / 2..n), "c").unwrap(),
            ),
            ("linear", linear(n / 3..5 * n / 6, &p1, "l")),
        ],
        &pool,
        &format!("{ctx} margin-opened"),
    );
    let cluster_opened = drive(
        &data,
        cluster_constraints(&data, rows(0..n / 3), "c0").unwrap(),
        vec![
            (
                "linear over the rest",
                linear(n / 3..n, &axis(d, d - 1), "l1"),
            ),
            ("linear split", linear(2 * n / 3..n, &q1, "l2")),
            (
                "oblique plane in the cluster",
                twod_constraints(&data, rows(0..n / 6), &q1, &q2, "q").unwrap(),
            ),
        ],
        &pool,
        &format!("{ctx} cluster-opened"),
    );
    add(&mut total, cluster_opened);
    total
}

#[test]
fn warm_cache_equals_cold_rebuild_after_every_refit() {
    // d = 36 sits on the divide-and-conquer branch of the dispatch.
    assert!(36 >= DecomposeOpts::default().dc_threshold);
    for d in [3usize, 16, 36] {
        let serial = run(d, 1);
        assert!(serial.eigen_recomputed > 0, "d={d}: {serial:?}");
        assert!(serial.mean_updated > 0, "d={d}: {serial:?}");
        assert!(serial.cloned_from_parent > 0, "d={d}: {serial:?}");
        assert_eq!(run(d, 4), serial, "d={d}: refresh stats depend on the pool");
    }
}

#[test]
fn split_from_dirty_parent_keeps_cache_consistent() {
    // Direct Solver + refresh API, with no reset between the fit that
    // moves a class and the append that splits it (the engine always
    // resets in between, but the public API allows this sequence): the
    // child carries the parent's moved parameters, so it must inherit the
    // parent's dirty flags and be refreshed itself — otherwise it would
    // keep a clone of the parent's *pre-move* cached spectrum.
    let (n, d) = (40usize, 8usize);
    // Correlated columns: the margins leave cross-covariances unmatched,
    // so a quadratic along a diagonal direction genuinely moves λ.
    let mut rng = Rng::seed_from_u64(3);
    let mut shared = 0.0;
    let data = Matrix::from_fn(n, d, |_, j| {
        if j == 0 {
            shared = rng.normal(0.0, 1.0);
        }
        0.7 * shared + rng.normal(0.0, 0.8)
    });
    let tight = FitOpts {
        lambda_tol: 1e-8,
        moment_tol: 1e-8,
        max_sweeps: 5000,
        ..FitOpts::default()
    };
    let mut s = Solver::new(&data, margin_constraints(&data).unwrap()).unwrap();
    s.fit(&tight);
    let mut bg = s.distribution();
    s.reset_dirty(); // cache synced with the solver here

    // A quadratic statement along (e₀+e₁)/√2 over *all* rows: the class
    // layout is unchanged (no split), but the cross-covariance target
    // moves λ — the cached all-rows class is now cov-dirty...
    let mut w = vec![0.0; d];
    w[0] = std::f64::consts::FRAC_1_SQRT_2;
    w[1] = std::f64::consts::FRAC_1_SQRT_2;
    let probe = Constraint::quadratic(&data, RowSet::all(n), w, "probe").unwrap();
    s.append_constraints(vec![probe]).unwrap();
    s.fit(&tight);
    assert_eq!(s.n_classes(), 1, "probe must not split");
    assert!(
        s.cov_dirty().iter().any(|&b| b),
        "probe must move a covariance"
    );

    // ...and then, *without* fitting or refreshing in between, a linear
    // statement that splits the dirty class. The split-off child is not
    // itself moved by any fit, so only inherited dirty flags can force
    // its refresh.
    let split = Constraint::linear(&data, rows(0..12), axis(d, 1), "split").unwrap();
    s.append_constraints(vec![split]).unwrap();

    bg.refresh_from_class_params_with(
        s.partition().class_of_row.clone(),
        s.class_params(),
        s.parent_of_class(),
        s.mean_dirty(),
        s.cov_dirty(),
        &ThreadPool::serial(),
    );
    s.reset_dirty();

    // Every class — the split-off child included — must now equal a
    // fresh decomposition of the current solver parameters.
    assert_same_bytes(&bg, &s.distribution(), &data, "split from dirty parent");
}
