//! FastICA — Hyvärinen's fixed-point independent component analysis.
//!
//! The paper uses "the FastICA algorithm \[6\] with log-cosh G function as a
//! default method to find non-Gaussian directions" in the whitened data.
//! This is a from-scratch implementation of exactly that: the symmetric
//! (parallel) variant with the log-cosh contrast at α = 1.
//!
//! Pipeline (matching the reference `fastICA` R package the paper used):
//! 1. center columns;
//! 2. whiten internally via PCA to unit covariance (dropping null
//!    directions — the whitened SIDER data can be rank-deficient when
//!    constraints collapse directions);
//! 3. fixed-point iteration `w ← E[z·g(wᵀz)] − E[g′(wᵀz)]·w` with
//!    symmetric decorrelation, `g = tanh`. One step works through the
//!    whitened rows in blocks of 32. It projects a block for all
//!    components, two rows per pass over each group of 8 directions;
//!    evaluates the contrast over the whole block in one vectorized loop
//!    (the owned [`tanh`](sider_stats::gaussianity::tanh), not the host's
//!    libm); then adds the block into a transposed `E[z·g]` accumulator,
//!    whose 4 × 8 partial sums for a run of coordinates and a group of
//!    components stay in registers across the block. The step is one
//!    source built twice, for the baseline target and for AVX2
//!    ([`sider_linalg::avx2_dispatch!`]), the AVX2 build taken when the
//!    CPU has it. Both builds round every operation alike, and every dot
//!    and expectation keeps its operands, its start value and its
//!    ascending order, so iterates, iteration counts and results are
//!    fixed bits on every IEEE host;
//! 4. map the unmixing directions back to the input space and score each
//!    component by the signed negentropy proxy `E[G(s)] − E[G(ν)]`,
//!    sorting by absolute value exactly like the paper's Table I.
//!
//! Only a run's start draws from the caller's generator: `k × r` normals
//! (`k` and `r` fixed by the rank and the cap), or one seed per restart.
//! The iterations draw nothing, so a change to their numerics (such as the
//! owned tanh) moves the directions and scores a run returns, and with
//! them the bytes of ICA view and suggest responses, but never the
//! generator's position: a session's later draws, its WAL, checkpoints
//! and replay keep their bytes.

use crate::error::ProjectionError;
use crate::Result;
use sider_linalg::{vector, Matrix, SymEigen};
use sider_par::ThreadPool;
use sider_stats::descriptive::covariance_with;
use sider_stats::gaussianity::{g_pair, negentropy_offset, standardize_inplace};
use sider_stats::Rng;

/// Relative eigenvalue threshold below which directions are treated as
/// null and dropped during internal whitening.
const RANK_RTOL: f64 = 1e-9;

/// How to order the extracted components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComponentOrder {
    /// By `|score|` descending — the paper's Table I ordering (default).
    #[default]
    AbsoluteDesc,
    /// By signed score descending: with the log-cosh contrast this puts
    /// **sub-Gaussian** (multi-modal / cluster) directions first and
    /// heavy-tailed outlier directions last. Useful when hunting cluster
    /// structure in data whose strongest non-Gaussian signal is outliers
    /// (e.g. the segmentation use case, §IV-C).
    SignedDesc,
}

/// Options for [`fastica`].
#[derive(Debug, Clone)]
pub struct IcaOpts {
    /// Most components to extract: `Some(k)` extracts `min(k, rank)`,
    /// `None` the numerical rank of the data. A cap at or above the rank
    /// takes the same path, with the same draws, as `None`.
    pub n_components: Option<usize>,
    /// Maximum fixed-point iterations.
    pub max_iter: usize,
    /// Convergence tolerance on `1 − |⟨w_new, w_old⟩|`. A run that does
    /// not meet it within `max_iter` returns its last iterate with
    /// [`IcaResult::converged`] false, as the R package does.
    pub tol: f64,
    /// Component ordering.
    pub order: ComponentOrder,
    /// Independent random initializations of the fixed-point iteration;
    /// the run with the largest total `|negentropy|` wins (ties break
    /// toward the earlier restart, so selection is deterministic). FastICA
    /// converges to a local optimum of a non-convex contrast, so restarts
    /// buy robustness; with [`fastica_with`] they execute in parallel.
    /// `1` (the default) reproduces the single-run behavior exactly.
    pub restarts: usize,
}

impl Default for IcaOpts {
    fn default() -> Self {
        IcaOpts {
            n_components: None,
            max_iter: 200,
            tol: 1e-6,
            order: ComponentOrder::AbsoluteDesc,
            restarts: 1,
        }
    }
}

/// Result of a FastICA run.
#[derive(Debug, Clone)]
pub struct IcaResult {
    /// Unmixing directions in the *input* space, unit rows (`k × d`),
    /// sorted by `|score|` descending.
    pub directions: Matrix,
    /// Signed negentropy scores per component (same order).
    pub scores: Vec<f64>,
    /// Standardized source estimates (`n × k`, same order).
    pub sources: Matrix,
    /// Whether the fixed-point iteration converged.
    pub converged: bool,
    /// Iterations used.
    pub iterations: usize,
}

/// Run FastICA on the rows of `y`.
pub fn fastica(y: &Matrix, opts: &IcaOpts, rng: &mut Rng) -> Result<IcaResult> {
    fastica_with(y, opts, rng, &ThreadPool::serial())
}

/// [`fastica`] with the heavy stages distributed over `pool`: covariance
/// accumulation and the whitening product parallelize over row chunks
/// (bit-identical at any pool size), and when [`IcaOpts::restarts`] > 1
/// the independent fixed-point runs execute concurrently, each on its own
/// seeded substream so results never depend on scheduling.
pub fn fastica_with(
    y: &Matrix,
    opts: &IcaOpts,
    rng: &mut Rng,
    pool: &ThreadPool,
) -> Result<IcaResult> {
    fastica_stepping(y, opts, rng, pool, fixed_point_step)
}

/// A fixed-point step `w⁺ = E[z·g(wᵀz)] − E[g′(wᵀz)]·w` for all rows of
/// `w`: the program takes [`fixed_point_step`], and the tests also run
/// whole iterations on a plain reference step.
type Step = fn(&Matrix, &Matrix) -> Matrix;

/// [`fastica_with`], iterating on `step`.
fn fastica_stepping(
    y: &Matrix,
    opts: &IcaOpts,
    rng: &mut Rng,
    pool: &ThreadPool,
    step: Step,
) -> Result<IcaResult> {
    let (n, d) = y.shape();
    if n == 0 || d == 0 {
        return Err(ProjectionError::EmptyData);
    }
    // 1. Center.
    let means = y.col_means();
    let x = y.center_rows(&means);

    // 2. Whiten: eigen of covariance, keep rank-supported directions.
    let cov = covariance_with(&x, pool);
    let eig = SymEigen::decompose(&cov)?;
    let ev_max = eig.values.first().copied().unwrap_or(0.0).max(0.0);
    let mut keep: Vec<usize> = Vec::new();
    for (k, &ev) in eig.values.iter().enumerate() {
        if ev > RANK_RTOL * ev_max && ev > 1e-300 {
            keep.push(k);
        }
    }
    let rank = keep.len();
    let k = opts.n_components.map_or(rank, |cap| cap.min(rank));
    if k == 0 {
        return Err(ProjectionError::RankDeficient {
            rank,
            requested: opts.n_components.unwrap_or(1).max(1),
        });
    }
    // Whitening matrix K (rank × d): z = K (x − μ) has identity covariance.
    let mut kmat = Matrix::zeros(rank, d);
    for (row, &idx) in keep.iter().enumerate() {
        let col = eig.vectors.col(idx);
        let scale = 1.0 / eig.values[idx].sqrt();
        for j in 0..d {
            kmat[(row, j)] = scale * col[j];
        }
    }
    let z = x.matmul_with(&kmat.transpose(), pool); // n × rank

    // 3–4. Fixed-point iteration + scoring, once per restart. A single
    // restart consumes the caller's generator directly (exactly the
    // pre-restart behavior); multiple restarts draw one seed each from the
    // caller's stream up front and run on independent generators, so the
    // winning result depends only on the seeds — never on scheduling.
    if opts.restarts <= 1 {
        return run_restart(&z, &kmat, k, opts, rng, step);
    }
    let seeds: Vec<u64> = (0..opts.restarts).map(|_| rng.next_u64()).collect();
    let runs = pool.par_map(&seeds, |&seed| {
        run_restart(&z, &kmat, k, opts, &mut Rng::seed_from_u64(seed), step)
    });
    // Restarts exist for robustness: a failed run is simply out of the
    // running, and an error surfaces only when *every* restart failed.
    // Selection walks the runs in seed order, so the winner is
    // deterministic.
    let mut best: Option<IcaResult> = None;
    let mut first_err: Option<crate::ProjectionError> = None;
    for run in runs {
        match run {
            Ok(run) => {
                let better = match &best {
                    None => true,
                    Some(b) => total_abs_score(&run) > total_abs_score(b),
                };
                if better {
                    best = Some(run);
                }
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match best {
        Some(best) => Ok(best),
        None => Err(first_err.expect("restarts >= 1 run")),
    }
}

/// Total `|negentropy|` across components — the restart-selection
/// objective (larger = stronger non-Gaussian structure captured).
fn total_abs_score(r: &IcaResult) -> f64 {
    r.scores.iter().map(|s| s.abs()).sum()
}

/// One complete fixed-point run (steps 3–4 of [`fastica`]): iterate from a
/// random orthonormal start, then build sources, input-space directions
/// and scores.
fn run_restart(
    z: &Matrix,
    kmat: &Matrix,
    k: usize,
    opts: &IcaOpts,
    rng: &mut Rng,
    step: Step,
) -> Result<IcaResult> {
    let n = z.rows();
    let d = kmat.cols();

    // 3. Fixed-point iteration in the whitened space.
    let (w, converged, iterations) = symmetric_iteration(z, k, opts, rng, step)?;

    // 4. Sources, input-space directions, scores.
    let mut sources = z.matmul(&w.transpose()); // n × k
    let mut scored: Vec<(usize, f64)> = Vec::with_capacity(k);
    for c in 0..k {
        let mut s = sources.col(c);
        standardize_inplace(&mut s);
        sources.set_col(c, &s);
        scored.push((c, negentropy_offset(&s)));
    }
    match opts.order {
        ComponentOrder::AbsoluteDesc => scored.sort_by(|a, b| {
            b.1.abs()
                .partial_cmp(&a.1.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        }),
        ComponentOrder::SignedDesc => {
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal))
        }
    }

    let w_input = w.matmul(kmat); // k × d: rows are unmixing directions
    let mut directions = Matrix::zeros(k, d);
    let mut scores = Vec::with_capacity(k);
    let mut sources_sorted = Matrix::zeros(n, k);
    for (rank_pos, &(c, score)) in scored.iter().enumerate() {
        let mut row = w_input.row(c).to_vec();
        vector::normalize(&mut row);
        directions.set_row(rank_pos, &row);
        scores.push(score);
        sources_sorted.set_col(rank_pos, &sources.col(c));
    }
    Ok(IcaResult {
        directions,
        scores,
        sources: sources_sorted,
        converged,
        iterations,
    })
}

/// Rows of `z` that [`fixed_point_step`] projects, contrasts and adds up
/// as one block.
const BLOCK_ROWS: usize = 32;
/// Components that [`fixed_point_step`] projects together, one register
/// lane each.
const LANES: usize = 8;
/// Coordinates whose `E[z·g]` sums the accumulation holds in registers
/// for one lane group across a block.
const RUN: usize = 4;

sider_linalg::avx2_dispatch! {
    /// One fixed-point step for all rows of `w` at once:
    /// `w⁺ = E[z·g(wᵀz)] − E[g′(wᵀz)]·w`, the body
    /// [`fixed_point_step_body`] in its AVX2 build when the CPU has it.
    fn fixed_point_step(z: &Matrix, w: &Matrix) -> Matrix => fixed_point_step_body
}

/// [`fixed_point_step`], blocked so that each value loaded feeds many
/// independent accumulators.
///
/// `BLOCK_ROWS` rows of `z` at a time are projected into a buffer, in
/// lane groups of `LANES` components (the last group padded with zero
/// directions), two rows per pass over a group's directions. Each lane
/// starts at `-0.0` and adds its row's coordinates in ascending order,
/// exactly like [`vector::dot`]. The contrast ([`g_pair`], on the owned
/// [`tanh`](sider_stats::gaussianity::tanh)) then runs over the whole
/// buffer in one loop that vectorizes. The block is added into a
/// transposed `r × kp` accumulator: for each lane group and each run of
/// `RUN` coordinates, `RUN × LANES` partial sums stay in registers while
/// `g_i[c]·z_ij` is added for the block's rows in ascending order; `E[g′]`
/// is added the same way. Every `(c, j)` sum starts at `+0.0` and runs
/// over the rows in ascending order, so the step is bit-identical to one
/// dot chain and two contrast calls per component per row.
#[inline(always)]
fn fixed_point_step_body(z: &Matrix, w: &Matrix) -> Matrix {
    let (n, r) = z.shape();
    let k = w.rows();
    let kp = k.div_ceil(LANES) * LANES;
    // r × kp: row j holds coordinate j of every w_c, then zeros.
    let mut wt = vec![0.0; r * kp];
    for c in 0..k {
        for (j, &wcj) in w.row(c).iter().enumerate() {
            wt[j * kp + c] = wcj;
        }
    }
    // r × kp: entry (j, c) sums g(w_cᵀz_i)·z_ij over the rows so far.
    let mut ezg = vec![0.0; r * kp];
    let mut eg_prime = vec![0.0; kp];
    // `g` first holds a block's projections, then their contrast g(u).
    let mut g = vec![0.0; BLOCK_ROWS * kp];
    let mut g_prime = vec![0.0; BLOCK_ROWS * kp];
    for zb in z.as_slice().chunks(BLOCK_ROWS * r) {
        let used = zb.len() / r * kp;
        let (g, g_prime) = (&mut g[..used], &mut g_prime[..used]);
        let mut pairs = zb.chunks_exact(2 * r);
        let mut us = g.chunks_exact_mut(2 * kp);
        for (zi, ui) in (&mut pairs).zip(&mut us) {
            project_rows::<2>(zi, r, &wt, ui, kp);
        }
        if !pairs.remainder().is_empty() {
            project_rows::<1>(pairs.remainder(), r, &wt, us.into_remainder(), kp);
        }
        for (u, gp) in g.iter_mut().zip(g_prime.iter_mut()) {
            (*u, *gp) = g_pair(*u);
        }
        for lane0 in (0..kp).step_by(LANES) {
            let mut sums = [0.0; LANES];
            sums.copy_from_slice(&eg_prime[lane0..][..LANES]);
            for gpi in g_prime.chunks_exact(kp) {
                for (s, &gp) in sums.iter_mut().zip(&gpi[lane0..][..LANES]) {
                    *s += gp;
                }
            }
            eg_prime[lane0..][..LANES].copy_from_slice(&sums);
            let runs = r / RUN * RUN;
            for j0 in (0..runs).step_by(RUN) {
                accumulate_run::<RUN>(zb, r, g, &mut ezg, kp, lane0, j0);
            }
            for j0 in runs..r {
                accumulate_run::<1>(zb, r, g, &mut ezg, kp, lane0, j0);
            }
        }
    }
    let inv_n = 1.0 / n as f64;
    let mut out = Matrix::zeros(k, r);
    for (c, &egp) in eg_prime[..k].iter().enumerate() {
        let egp = egp * inv_n;
        for (j, (o, &wcj)) in out.row_mut(c).iter_mut().zip(w.row(c)).enumerate() {
            *o = ezg[j * kp + c] * inv_n - egp * wcj;
        }
    }
    out
}

/// Projects the `M` rows of `z` (`M × r`) onto every direction of `wt`
/// (`r × kp`, one direction per column) into `u` (`M × kp`). One pass over
/// a lane group's `r × LANES` directions feeds `M × LANES` dots, each from
/// `-0.0` over ascending `j` with `z_ij · w_cj`, as [`vector::dot`] adds.
#[inline(always)]
fn project_rows<const M: usize>(z: &[f64], r: usize, wt: &[f64], u: &mut [f64], kp: usize) {
    let z: [&[f64]; M] = std::array::from_fn(|m| &z[m * r..][..r]);
    for lane0 in (0..kp).step_by(LANES) {
        let mut lanes = [[-0.0; LANES]; M];
        for (j, wj) in wt.chunks_exact(kp).enumerate() {
            let wj = &wj[lane0..][..LANES];
            for (lanes, zm) in lanes.iter_mut().zip(z) {
                let zmj = zm[j];
                for (lane, &wcj) in lanes.iter_mut().zip(wj) {
                    *lane += zmj * wcj;
                }
            }
        }
        for (m, lanes) in lanes.iter().enumerate() {
            u[m * kp + lane0..][..LANES].copy_from_slice(lanes);
        }
    }
}

/// Adds one block's `g_i[c]·z_ij` (`z` the block's rows, `g` their
/// contrast, `kp` lanes a row) into the transposed accumulator `ezg`
/// (`r × kp`), for the lane group from `lane0` and coordinates
/// `j0..j0 + J`. The `J × LANES` sums stay in registers while the rows are
/// added in ascending order, with the operands in [`vector::axpy`]'s order.
#[inline(always)]
fn accumulate_run<const J: usize>(
    z: &[f64],
    r: usize,
    g: &[f64],
    ezg: &mut [f64],
    kp: usize,
    lane0: usize,
    j0: usize,
) {
    let mut sums = [[0.0; LANES]; J];
    for (jj, s) in sums.iter_mut().enumerate() {
        s.copy_from_slice(&ezg[(j0 + jj) * kp + lane0..][..LANES]);
    }
    for (zi, gi) in z.chunks_exact(r).zip(g.chunks_exact(kp)) {
        let zi = &zi[j0..][..J];
        let gi = &gi[lane0..][..LANES];
        for (s, &zij) in sums.iter_mut().zip(zi) {
            for (s, &gic) in s.iter_mut().zip(gi) {
                *s += gic * zij;
            }
        }
    }
    for (jj, s) in sums.iter().enumerate() {
        ezg[(j0 + jj) * kp + lane0..][..LANES].copy_from_slice(s);
    }
}

/// Symmetric decorrelation `W ← (WWᵀ)^{-1/2} W`.
fn sym_decorrelate(w: &Matrix) -> Result<Matrix> {
    let wwt = w.matmul(&w.transpose());
    let inv_sqrt = sider_linalg::sym_inv_sqrt(&wwt)?;
    Ok(inv_sqrt.matmul(w))
}

fn random_orthonormal(k: usize, r: usize, rng: &mut Rng) -> Result<Matrix> {
    let w = rng.standard_normal_matrix(k, r);
    sym_decorrelate(&w)
}

fn symmetric_iteration(
    z: &Matrix,
    k: usize,
    opts: &IcaOpts,
    rng: &mut Rng,
    step: Step,
) -> Result<(Matrix, bool, usize)> {
    let mut w = random_orthonormal(k, z.cols(), rng)?;
    for iter in 1..=opts.max_iter {
        let w_new = sym_decorrelate(&step(z, &w))?;
        // Convergence: every direction stable up to sign.
        let mut worst = 0.0_f64;
        for c in 0..k {
            let dot = vector::dot(w_new.row(c), w.row(c)).abs();
            worst = worst.max((1.0 - dot).abs());
        }
        w = w_new;
        if worst < opts.tol {
            return Ok((w, true, iter));
        }
    }
    Ok((w, false, opts.max_iter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sider_stats::gaussianity::tanh;

    /// Mix two independent non-Gaussian sources by a rotation.
    fn mixed_sources(n: usize, angle: f64, seed: u64) -> (Matrix, [f64; 2], [f64; 2]) {
        let mut rng = Rng::seed_from_u64(seed);
        let (c, s) = (angle.cos(), angle.sin());
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                // Source 1: uniform (sub-Gaussian); source 2: Laplace-ish.
                let s1 = (rng.uniform() - 0.5) * 3.4641; // unit variance
                let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
                let s2 = sign * (-(1.0 - rng.uniform()).ln()) / std::f64::consts::SQRT_2;
                vec![c * s1 - s * s2, s * s1 + c * s2]
            })
            .collect();
        // True unmixing directions are the rows of the inverse rotation.
        ((Matrix::from_rows(&rows)), [c, s], [-s, c])
    }

    fn alignment(dir: &[f64], truth: &[f64]) -> f64 {
        vector::dot(dir, truth).abs() / (vector::norm2(dir) * vector::norm2(truth))
    }

    /// Column-outer reference step: one `vector::dot` chain and two
    /// separate contrast derivatives per component per row, with the
    /// log-cosh derivative formulas written out inline on the owned tanh.
    fn reference_step(z: &Matrix, w: &Matrix) -> Matrix {
        let g = |u: f64| tanh(u);
        let g_prime = |u: f64| {
            let t = tanh(u);
            1.0 - t * t
        };
        let (n, r) = z.shape();
        let k = w.rows();
        let mut out = Matrix::zeros(k, r);
        let inv_n = 1.0 / n as f64;
        for c in 0..k {
            let wv = w.row(c);
            let mut ezg = vec![0.0; r];
            let mut eg_prime = 0.0;
            for i in 0..n {
                let zi = z.row(i);
                let u = vector::dot(zi, wv);
                vector::axpy(g(u), zi, &mut ezg);
                eg_prime += g_prime(u);
            }
            vector::scale(&mut ezg, inv_n);
            eg_prime *= inv_n;
            let out_row = out.row_mut(c);
            for j in 0..r {
                out_row[j] = ezg[j] - eg_prime * wv[j];
            }
        }
        out
    }

    /// Bits of every entry, with every NaN read as one value: the two
    /// builds may carry different NaN payloads.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() })
            .collect()
    }

    #[test]
    fn fixed_point_step_matches_column_outer_reference_bitwise() {
        // Whole and partial row blocks with an odd last row pair; `r mod
        // RUN` of 0, 1, 2 and 3 (`r = 1` too); whole and padded lane
        // groups (`k` of 1, 3, 7, 8, 9, 16 and 19); BNC's shape.
        for (n, r, k) in [
            (2310, 19, 19),
            (2310, 19, 8),
            (1335, 100, 8),
            (1001, 14, 9),
            (500, 12, 7),
            (333, 7, 3),
            (100, 5, 3),
            (95, 6, 1),
            (64, 9, 16),
            (37, 1, 1),
        ] {
            let mut rng = Rng::seed_from_u64((n * 131 + r * 17 + k) as u64);
            let mut z = rng.standard_normal_matrix(n, r);
            // Signed-zero rows give zero projections of both signs; a
            // far-out row drives tanh into saturation.
            z.set_row(3, &vec![0.0; r]);
            z.set_row(11, &vec![-0.0; r]);
            let far: Vec<f64> = z.row(20).iter().map(|v| v * 400.0).collect();
            z.set_row(20, &far);
            let w = random_orthonormal(k, r, &mut rng).unwrap();
            let expected = bits(reference_step(&z, &w).as_slice());
            // The dispatched step (the AVX2 build on an AVX2 host) and the
            // body as built for the baseline target.
            let dispatched = fixed_point_step(&z, &w);
            let baseline = fixed_point_step_body(&z, &w);
            assert_eq!(bits(dispatched.as_slice()), expected, "({n}, {r}, {k})");
            assert_eq!(bits(baseline.as_slice()), expected, "({n}, {r}, {k})");
        }
    }

    /// 2310 rows of 19 mixed columns: three uniform, three Laplace-ish and
    /// thirteen Gaussian sources through a random mixing matrix, so that at
    /// `k = 8` FastICA must also separate two Gaussian components.
    fn segmentation_sized() -> Matrix {
        let mut rng = Rng::seed_from_u64(70);
        let mixing = rng.standard_normal_matrix(19, 19);
        let sources = Matrix::from_fn(2310, 19, |_, j| match j {
            0..=2 => (rng.uniform() - 0.5) * 3.4641,
            3..=5 => {
                let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
                sign * (-(1.0 - rng.uniform()).ln())
            }
            _ => rng.normal(0.0, 1.0),
        });
        sources.matmul(&mixing)
    }

    #[test]
    fn a_whole_run_matches_a_run_on_the_reference_step_bitwise() {
        let data = segmentation_sized();
        let opts = IcaOpts {
            n_components: Some(8),
            ..IcaOpts::default()
        };
        let run = fastica(&data, &opts, &mut Rng::seed_from_u64(71)).unwrap();
        let reference = fastica_stepping(
            &data,
            &opts,
            &mut Rng::seed_from_u64(71),
            &ThreadPool::serial(),
            reference_step,
        )
        .unwrap();
        // A long run: 147 steps, each of which must keep the bits.
        assert!(reference.converged && reference.iterations > 100);
        assert_eq!(run.directions.shape(), (8, 19));
        assert_eq!(
            bits(run.directions.as_slice()),
            bits(reference.directions.as_slice())
        );
        assert_eq!(bits(&run.scores), bits(&reference.scores));
        assert_eq!(run.iterations, reference.iterations);
        assert_eq!(run.converged, reference.converged);
    }

    #[test]
    fn separates_rotated_sources_symmetric() {
        let (data, u1, u2) = mixed_sources(20_000, 0.6, 1);
        let mut rng = Rng::seed_from_u64(99);
        let res = fastica(&data, &IcaOpts::default(), &mut rng).unwrap();
        assert!(res.converged);
        assert_eq!(res.directions.shape(), (2, 2));
        // Each true direction must be recovered by some component.
        for truth in [u1, u2] {
            let best = (0..2)
                .map(|k| alignment(res.directions.row(k), &truth))
                .fold(0.0, f64::max);
            assert!(best > 0.98, "alignment {best}");
        }
    }

    #[test]
    fn scores_sorted_by_absolute_value() {
        let (data, _, _) = mixed_sources(5000, 0.3, 3);
        let mut rng = Rng::seed_from_u64(11);
        let res = fastica(&data, &IcaOpts::default(), &mut rng).unwrap();
        for pair in res.scores.windows(2) {
            assert!(pair[0].abs() >= pair[1].abs() - 1e-12);
        }
    }

    #[test]
    fn gaussian_data_scores_near_zero() {
        let mut rng = Rng::seed_from_u64(4);
        let data = rng.standard_normal_matrix(20_000, 3);
        let mut rng2 = Rng::seed_from_u64(5);
        let res = fastica(&data, &IcaOpts::default(), &mut rng2).unwrap();
        for &s in &res.scores {
            assert!(s.abs() < 0.01, "score {s}");
        }
    }

    #[test]
    fn clustered_data_scores_positive_and_large() {
        // Two clusters along x: strongly sub-Gaussian direction.
        let mut rng = Rng::seed_from_u64(6);
        let rows: Vec<Vec<f64>> = (0..4000)
            .map(|_| {
                let c = if rng.bernoulli(0.5) { -2.0 } else { 2.0 };
                vec![rng.normal(c, 0.3), rng.normal(0.0, 1.0)]
            })
            .collect();
        let data = Matrix::from_rows(&rows);
        let mut rng2 = Rng::seed_from_u64(8);
        let res = fastica(&data, &IcaOpts::default(), &mut rng2).unwrap();
        assert!(res.scores[0] > 0.05, "top score {}", res.scores[0]);
        // The top direction is the cluster axis.
        assert!(res.directions.row(0)[0].abs() > 0.95);
    }

    #[test]
    fn sources_are_standardized() {
        let (data, _, _) = mixed_sources(2000, 0.9, 9);
        let mut rng = Rng::seed_from_u64(10);
        let res = fastica(&data, &IcaOpts::default(), &mut rng).unwrap();
        for c in 0..res.sources.cols() {
            let col = res.sources.col(c);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 =
                col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-10);
            assert!((var - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn rank_deficient_data_drops_null_directions() {
        // Column 2 = column 0 duplicated: rank 2 in 3 dims.
        let mut rng = Rng::seed_from_u64(12);
        let rows: Vec<Vec<f64>> = (0..2000)
            .map(|_| {
                let a = (rng.uniform() - 0.5) * 2.0;
                let b = rng.normal(0.0, 1.0);
                vec![a, b, a]
            })
            .collect();
        let data = Matrix::from_rows(&rows);
        let mut rng2 = Rng::seed_from_u64(13);
        let res = fastica(&data, &IcaOpts::default(), &mut rng2).unwrap();
        assert_eq!(res.directions.rows(), 2); // rank, not 3
    }

    /// 2000 rows of rank 3 in four columns: a uniform, a Laplace-ish
    /// and a Gaussian source, mixed, with column 3 repeating column 0.
    fn rank_three_of_four() -> Matrix {
        let mut rng = Rng::seed_from_u64(14);
        let rows: Vec<Vec<f64>> = (0..2000)
            .map(|_| {
                let a = (rng.uniform() - 0.5) * 3.4641;
                let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
                let b = sign * (-(1.0 - rng.uniform()).ln());
                let c = rng.normal(0.0, 1.0);
                vec![a + 0.5 * b, b - 0.3 * c, c, a + 0.5 * b]
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    fn capped_at(data: &Matrix, n_components: Option<usize>) -> Result<IcaResult> {
        let opts = IcaOpts {
            n_components,
            ..IcaOpts::default()
        };
        fastica(data, &opts, &mut Rng::seed_from_u64(15))
    }

    #[test]
    fn a_cap_at_or_above_the_rank_is_the_full_rank_run() {
        let data = rank_three_of_four();
        let full = capped_at(&data, None).unwrap();
        assert_eq!(full.directions.rows(), 3);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for cap in [3, 4, 100] {
            let capped = capped_at(&data, Some(cap)).unwrap();
            assert_eq!(
                bits(capped.directions.as_slice()),
                bits(full.directions.as_slice()),
                "cap {cap}"
            );
            assert_eq!(bits(&capped.scores), bits(&full.scores), "cap {cap}");
            assert_eq!(capped.iterations, full.iterations, "cap {cap}");
        }
    }

    #[test]
    fn a_cap_below_the_rank_returns_that_many_unit_rows() {
        let data = rank_three_of_four();
        for cap in [1, 2] {
            let capped = capped_at(&data, Some(cap)).unwrap();
            assert_eq!(capped.directions.shape(), (cap, 4));
            assert_eq!(capped.scores.len(), cap);
            assert_eq!(capped.sources.shape(), (2000, cap));
            for k in 0..cap {
                assert!((vector::norm2(capped.directions.row(k)) - 1.0).abs() < 1e-12);
            }
        }
        assert!(matches!(
            capped_at(&data, Some(0)),
            Err(ProjectionError::RankDeficient { .. })
        ));
    }

    #[test]
    fn constant_data_is_rank_zero() {
        let data = Matrix::from_fn(50, 2, |_, _| 1.0);
        let mut rng = Rng::seed_from_u64(16);
        assert!(matches!(
            fastica(&data, &IcaOpts::default(), &mut rng),
            Err(ProjectionError::RankDeficient { .. })
        ));
    }

    #[test]
    fn empty_data_rejected() {
        let mut rng = Rng::seed_from_u64(17);
        assert!(matches!(
            fastica(&Matrix::zeros(0, 3), &IcaOpts::default(), &mut rng),
            Err(ProjectionError::EmptyData)
        ));
    }

    #[test]
    fn directions_unit_norm() {
        let (data, _, _) = mixed_sources(3000, 0.45, 20);
        let mut rng = Rng::seed_from_u64(21);
        let res = fastica(&data, &IcaOpts::default(), &mut rng).unwrap();
        for k in 0..res.directions.rows() {
            assert!((vector::norm2(res.directions.row(k)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn signed_order_puts_sub_gaussian_first() {
        // Direction 0: bimodal (sub-Gaussian, positive log-cosh offset);
        // direction 1: Laplace-ish (super-Gaussian, negative offset, larger
        // in absolute value).
        let mut rng = Rng::seed_from_u64(30);
        let rows: Vec<Vec<f64>> = (0..20_000)
            .map(|_| {
                let c = if rng.bernoulli(0.5) { -1.5 } else { 1.5 };
                let bimodal = rng.normal(c, 0.2);
                let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
                let heavy = sign * (-(1.0 - rng.uniform()).ln());
                vec![bimodal, heavy]
            })
            .collect();
        let data = Matrix::from_rows(&rows);
        let mut rng2 = Rng::seed_from_u64(31);
        let abs_first = fastica(&data, &IcaOpts::default(), &mut rng2).unwrap();
        let mut rng3 = Rng::seed_from_u64(31);
        let signed_first = fastica(
            &data,
            &IcaOpts {
                order: ComponentOrder::SignedDesc,
                ..IcaOpts::default()
            },
            &mut rng3,
        )
        .unwrap();
        // Signed ordering: positive (bimodal) first.
        assert!(signed_first.scores[0] > 0.0);
        assert!(signed_first.scores[1] < 0.0);
        assert!(signed_first.directions.row(0)[0].abs() > 0.9);
        // Absolute ordering must sort by magnitude.
        assert!(abs_first.scores[0].abs() >= abs_first.scores[1].abs());
    }

    #[test]
    fn single_restart_matches_pre_restart_behavior() {
        // restarts == 1 must consume the caller's generator directly, so
        // the result is byte-identical to the historical single-run path.
        let (data, _, _) = mixed_sources(3000, 0.7, 40);
        let res_a = fastica(&data, &IcaOpts::default(), &mut Rng::seed_from_u64(41)).unwrap();
        let opts_explicit = IcaOpts {
            restarts: 1,
            ..IcaOpts::default()
        };
        let res_b = fastica(&data, &opts_explicit, &mut Rng::seed_from_u64(41)).unwrap();
        assert_eq!(res_a.directions.as_slice(), res_b.directions.as_slice());
        assert_eq!(res_a.scores, res_b.scores);
    }

    #[test]
    fn restarts_deterministic_across_pool_sizes_and_never_worse() {
        let (data, _, _) = mixed_sources(4000, 0.5, 50);
        let opts = IcaOpts {
            restarts: 4,
            ..IcaOpts::default()
        };
        let run = |threads: usize| {
            let pool = ThreadPool::new(threads);
            fastica_with(&data, &opts, &mut Rng::seed_from_u64(51), &pool).unwrap()
        };
        let serial = run(1);
        for threads in [2usize, 4] {
            let par = run(threads);
            assert_eq!(
                serial.directions.as_slice(),
                par.directions.as_slice(),
                "{threads} threads"
            );
            assert_eq!(serial.scores, par.scores, "{threads} threads");
        }
        // The winner of 4 restarts scores at least as high as the run
        // seeded with the first drawn seed alone.
        let mut rng = Rng::seed_from_u64(51);
        let first_seed = rng.next_u64();
        let single = fastica(
            &data,
            &IcaOpts::default(),
            &mut Rng::seed_from_u64(first_seed),
        )
        .unwrap();
        let sum = |r: &IcaResult| r.scores.iter().map(|s| s.abs()).sum::<f64>();
        assert!(sum(&serial) >= sum(&single) - 1e-12);
    }

    #[test]
    fn unconverged_restarts_return_the_best_iterate() {
        let (data, _, _) = mixed_sources(2000, 0.4, 60);
        // max_iter 1 + impossible tolerance: no restart converges.
        let opts = IcaOpts {
            restarts: 3,
            max_iter: 1,
            tol: 1e-15,
            ..IcaOpts::default()
        };
        let res = fastica(&data, &opts, &mut Rng::seed_from_u64(61)).unwrap();
        assert!(!res.converged);
        assert_eq!(res.directions.rows(), 2);
    }
}
