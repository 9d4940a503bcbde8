//! The fitted background distribution: sampling and whitening.
//!
//! After optimization every row `i` has a Gaussian `N(m_i, Σ_i)` (shared
//! within an equivalence class). This module packages those parameters and
//! implements the two operations the interactive loop needs:
//!
//! * **Sampling** a full dataset from the background distribution — the
//!   gray "ghost" points of the SIDER scatter plot.
//! * **Whitening** (paper Eq. 14): `y_i = U·D^{1/2}·Uᵀ·(x_i − m_i)` with
//!   `Σ_i⁻¹ = U·D·Uᵀ`. If the data actually followed the background
//!   distribution, the whitened data would be spherical unit Gaussian, so
//!   any structure that projection pursuit finds in `Y` is exactly a
//!   data-vs-belief difference.

use crate::params::ClassParams;
use crate::Result;
use sider_linalg::{vector, Matrix, SymEigen};
use sider_par::ThreadPool;
use sider_stats::descriptive::MOMENT_ROW_CHUNK;
use sider_stats::Rng;

/// Row-chunk length of the parallel sample/whiten loops. Scratch buffers
/// are reused across the rows of a chunk (zero allocations per row); the
/// value is fixed — never derived from the thread count — although with
/// per-row RNG substreams the results would be identical for any split.
const ROW_CHUNK: usize = 256;

/// Per-class Gaussian with precomputed spectral transforms. `Σ` and `P`
/// themselves live only in the solver's [`ClassParams`].
#[derive(Debug, Clone)]
struct ClassModel {
    m: Vec<f64>,
    /// `U·D^{1/2}·Uᵀ` of the precision — the whitening map.
    whiten: Matrix,
    /// Eigenvectors of the precision (columns).
    u: Matrix,
    /// `D^{-1/2}` of the precision — per-eigendirection sampling scale.
    sample_scale: Vec<f64>,
    /// Eigenvalues of the precision (descending), for entropy accounting.
    prec_evals: Vec<f64>,
}

/// The background distribution over `n × d` datasets (rows independent).
#[derive(Debug, Clone)]
pub struct BackgroundDistribution {
    d: usize,
    class_of_row: Vec<u32>,
    classes: Vec<ClassModel>,
}

/// What [`BackgroundDistribution::refresh_from_class_params_with`] had to do —
/// the instrumentation proving that warm refits recompute spectral
/// decompositions only for classes the solver actually moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Classes in the refreshed distribution.
    pub classes_total: usize,
    /// Classes whose precision was re-eigendecomposed
    /// ([`SymEigen::decompose`] calls) — the cov-dirty classes.
    pub eigen_recomputed: usize,
    /// Classes that only had their mean vector swapped (linear updates
    /// never touch `Σ`, so the cached spectral transforms stay valid).
    pub mean_updated: usize,
    /// New classes that inherited their parent's cached decomposition
    /// after a partition split.
    pub cloned_from_parent: usize,
}

/// Precision eigenvalues below this are treated as "fully relaxed"
/// (variance 1/ε would explode; they cannot arise from valid updates and
/// only appear through round-off).
const EVAL_FLOOR: f64 = 1e-12;

impl ClassModel {
    /// Build the model from one class's fitted parameters: the `O(d³)`
    /// eigendecomposition of the precision, and from its spectrum the
    /// derived `whiten`/`sample_scale` transforms.
    fn compute(d: usize, p: &ClassParams) -> ClassModel {
        let eig = SymEigen::decompose(&p.prec).expect("precision eigen failed");
        let n_ev = eig.values.len();
        let mut whiten = Matrix::zeros(d, d);
        let mut sample_scale = Vec::with_capacity(n_ev);
        for k in 0..n_ev {
            let ev = eig.values[k].max(0.0);
            let col = eig.vectors.col(k);
            if ev >= EVAL_COLLAPSED {
                // Fully constrained direction: nothing to whiten,
                // nothing to sample.
                sample_scale.push(0.0);
                continue;
            }
            whiten.add_outer(ev.sqrt(), &col, &col);
            sample_scale.push(if ev > EVAL_FLOOR {
                1.0 / ev.sqrt()
            } else {
                1.0 // round-off relaxation: fall back to unit scale
            });
        }
        ClassModel {
            m: p.m.clone(),
            whiten,
            u: eig.vectors,
            sample_scale,
            prec_evals: eig.values,
        }
    }
}

/// Precision eigenvalues above this are treated as **collapsed**: the
/// direction was pinned by a zero-variance quadratic constraint whose
/// multiplier clamped at the solver's `lambda_max` (paper §II-A-2 — clusters
/// with `|I| ≤ d` necessarily produce such directions). The data along a
/// collapsed direction has *exactly zero* spread for the affected rows —
/// that is where the `v̂ = 0` target came from — so any residual left by a
/// partially converged optimizer is an artifact. Whitening therefore maps
/// collapsed directions to zero instead of amplifying the artifact by
/// `√λ_max ≈ 10⁶`, and sampling pins them at the mean.
const EVAL_COLLAPSED: f64 = 1e10;

impl BackgroundDistribution {
    /// The unconstrained prior: every row is `N(0, I_d)` (paper Eq. 1).
    pub fn prior(n: usize, d: usize) -> Self {
        let params = [ClassParams::prior(d, n)];
        Self::from_class_params(d, vec![0; n], &params)
    }

    /// Package fitted class parameters (used by the solvers).
    pub fn from_class_params(d: usize, class_of_row: Vec<u32>, params: &[ClassParams]) -> Self {
        Self::from_class_params_with(d, class_of_row, params, &ThreadPool::serial())
    }

    /// [`BackgroundDistribution::from_class_params`] with the per-class
    /// `O(d³)` eigendecompositions distributed over `pool`. Classes are
    /// independent, so the result is identical at any pool size.
    pub fn from_class_params_with(
        d: usize,
        class_of_row: Vec<u32>,
        params: &[ClassParams],
        pool: &ThreadPool,
    ) -> Self {
        // O(d³) decomposition per class (D&C above the dispatch
        // threshold, Jacobi below); tiny sessions run inline.
        let pool = pool.gated(params.len().saturating_mul(d * d * d));
        let classes = pool.par_map(params, |p| ClassModel::compute(d, p));
        BackgroundDistribution {
            d,
            class_of_row,
            classes,
        }
    }

    /// Update the distribution in place after an (incremental) solver fit,
    /// recomputing spectral decompositions only where required, with the
    /// per-class decompositions of the cov-dirty classes distributed over
    /// `pool`:
    ///
    /// * classes with `cov_dirty` set — their precision changed, so the
    ///   cached eigendecomposition is stale and is recomputed by
    ///   [`SymEigen::decompose`];
    /// * classes with only `mean_dirty` set — linear updates never touch
    ///   `Σ`, so just the mean vector is swapped;
    /// * new classes (ids past the cached range) — split off from
    ///   `parent_of_class` with identical parameters, so the parent's
    ///   *cached* decomposition is cloned unless the class is itself
    ///   cov-dirty. (The clone happens before dirty parents are
    ///   recomputed, so it reflects the parameters at split time, which
    ///   are exactly the sub-class's parameters if it stayed clean.)
    ///
    /// Every class ends up as a fresh decomposition of its current
    /// parameters would build it, so the refreshed distribution equals a
    /// cold [`BackgroundDistribution::from_class_params`] of the same
    /// parameters bit for bit, at any pool size. Returns counts of each
    /// path taken ([`RefreshStats`], also identical at any pool size),
    /// which tests and benches use to assert the cache really
    /// short-circuits.
    pub fn refresh_from_class_params_with(
        &mut self,
        class_of_row: Vec<u32>,
        params: &[ClassParams],
        parent_of_class: &[u32],
        mean_dirty: &[bool],
        cov_dirty: &[bool],
        pool: &ThreadPool,
    ) -> RefreshStats {
        assert_eq!(params.len(), parent_of_class.len());
        assert_eq!(params.len(), mean_dirty.len());
        assert_eq!(params.len(), cov_dirty.len());
        let mut stats = RefreshStats {
            classes_total: params.len(),
            ..RefreshStats::default()
        };
        // Pass 1: recompute what the fit actually moved. Each class lands
        // in exactly one bucket: eigen-recomputed, mean-only-updated, or
        // cloned-from-parent. The per-class decompositions are
        // independent, so they fan out over the pool; placement is by
        // class id, keeping the result scheduling-independent.
        let n_cached = self.classes.len();
        let dirty: Vec<usize> = (0..params.len()).filter(|&c| cov_dirty[c]).collect();
        let d = self.d;
        // O(d³) per decomposition; a few tiny classes run inline.
        let pool = pool.gated(dirty.len().saturating_mul(d * d * d));
        let mut refreshed: Vec<(usize, ClassModel)> = dirty
            .iter()
            .copied()
            .zip(pool.par_map(&dirty, |&c| ClassModel::compute(d, &params[c])))
            .collect();
        stats.eigen_recomputed = dirty.len();
        // Pass 2: append the new classes, in id order. A cov-dirty one
        // takes its decomposition from pass 1; a clean one clones its
        // parent's cached model, read before the parents are refreshed
        // below (a parent is always a cached class).
        let mut new_dirty = refreshed
            .split_off(refreshed.partition_point(|&(c, _)| c < n_cached))
            .into_iter()
            .peekable();
        for c in n_cached..params.len() {
            let model = match new_dirty.next_if(|&(k, _)| k == c) {
                Some((_, model)) => model,
                None => {
                    stats.cloned_from_parent += 1;
                    let mut model = self.classes[parent_of_class[c] as usize].clone();
                    model.m = params[c].m.clone();
                    model
                }
            };
            self.classes.push(model);
        }
        for (c, model) in refreshed {
            self.classes[c] = model;
        }
        for (c, p) in params.iter().enumerate() {
            if !cov_dirty[c] && mean_dirty[c] && c < n_cached {
                self.classes[c].m = p.m.clone();
                stats.mean_updated += 1;
            }
        }
        self.class_of_row = class_of_row;
        stats
    }

    /// Number of rows modeled.
    pub fn n(&self) -> usize {
        self.class_of_row.len()
    }

    /// Data dimensionality.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of distinct per-row Gaussians.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Equivalence class of a row.
    pub fn class_of_row(&self, row: usize) -> usize {
        self.class_of_row[row] as usize
    }

    /// Mean of row `i`'s Gaussian.
    pub fn mean(&self, row: usize) -> &[f64] {
        &self.classes[self.class_of_row(row)].m
    }

    /// Whiten a dataset against this distribution (paper Eq. 14). The input
    /// must have the same shape the distribution was fitted on.
    pub fn whiten(&self, data: &Matrix) -> Result<Matrix> {
        self.whiten_with(data, &ThreadPool::serial())
    }

    /// [`BackgroundDistribution::whiten`] with rows distributed over
    /// `pool`. Each output row is `U·D^{1/2}·Uᵀ·(x_i − m_i)`, computed with
    /// chunk-local scratch buffers straight into the output row slice —
    /// no per-row allocations — and rows are independent, so the result is
    /// bit-identical at any pool size.
    pub fn whiten_with(&self, data: &Matrix, pool: &ThreadPool) -> Result<Matrix> {
        let (n, d) = data.shape();
        if n != self.n() || d != self.d {
            return Err(crate::MaxEntError::BadDirection {
                expected: self.d,
                got: d,
            });
        }
        let mut out = Matrix::zeros(n, d);
        // One d×d matvec per row; tiny datasets run inline.
        let pool = pool.gated(n.saturating_mul(d * d));
        pool.par_chunks_mut(
            out.as_mut_slice(),
            ROW_CHUNK * d.max(1),
            |chunk_idx, rows| {
                let mut centered = vec![0.0; d];
                for (off, out_row) in rows.chunks_mut(d).enumerate() {
                    let i = chunk_idx * ROW_CHUNK + off;
                    let class = &self.classes[self.class_of_row(i)];
                    for ((c, &x), &m) in centered.iter_mut().zip(data.row(i)).zip(&class.m) {
                        *c = x - m;
                    }
                    class.whiten.matvec_into(&centered, out_row);
                }
            },
        );
        Ok(out)
    }

    /// Fused whiten + second moment: `ŶᵀŶ / n` where `Ŷ` is the whitened
    /// dataset — without ever materializing `Ŷ`. Each chunk whitens its
    /// rows into a scratch buffer and folds them straight into a partial
    /// upper-triangle Gram matrix, saving the `n × d` intermediate write
    /// and read-back of the two-pass formulation.
    ///
    /// Bit-identical to
    /// `second_moment_with(&self.whiten_with(data, pool)?, pool)`: the
    /// whitened row values come from the same centered-scratch
    /// [`Matrix::matvec_into`] kernel as [`BackgroundDistribution::whiten_with`],
    /// and the Gram reduction replicates the fixed
    /// [`MOMENT_ROW_CHUNK`]-chunked summation tree of
    /// `sider_stats::descriptive::second_moment_with` exactly — so it is
    /// also bit-identical at any pool size.
    pub fn whitened_second_moment_with(&self, data: &Matrix, pool: &ThreadPool) -> Result<Matrix> {
        let (n, d) = data.shape();
        if n != self.n() || d != self.d {
            return Err(crate::MaxEntError::BadDirection {
                expected: self.d,
                got: d,
            });
        }
        // d² per row for the whitening matvec plus d²/2 for the Gram
        // update; tiny datasets run inline (identical result — the chunk
        // tree is fixed either way).
        let pool = pool.gated(n.saturating_mul(d * d + d * d / 2));
        let mut g = pool
            .map_reduce(
                n,
                MOMENT_ROW_CHUNK,
                |range| {
                    let mut partial = Matrix::zeros(d, d);
                    let mut centered = vec![0.0; d];
                    let mut y = vec![0.0; d];
                    for i in range {
                        let class = &self.classes[self.class_of_row(i)];
                        for ((c, &x), &m) in centered.iter_mut().zip(data.row(i)).zip(&class.m) {
                            *c = x - m;
                        }
                        class.whiten.matvec_into(&centered, &mut y);
                        for a in 0..d {
                            let ra = y[a];
                            if ra == 0.0 {
                                continue;
                            }
                            let dst = &mut partial.row_mut(a)[a..];
                            for (acc, &rb) in dst.iter_mut().zip(&y[a..]) {
                                *acc += ra * rb;
                            }
                        }
                    }
                    partial
                },
                |mut acc, partial| {
                    acc.add_assign_scaled(1.0, &partial);
                    acc
                },
            )
            .unwrap_or_else(|| Matrix::zeros(d, d));
        for i in 0..d {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        Ok(g.scale(1.0 / n as f64))
    }

    /// Fused whiten + project: rows of `data` whitened and then projected
    /// onto the rows of `axes` (`k × d`), producing `n × k` scores without
    /// materializing the `n × d` whitened matrix. Each row costs one
    /// `d × d` matvec into a chunk-local scratch buffer plus one `k × d`
    /// matvec straight into the output row slice — no per-row allocations.
    ///
    /// Bit-identical to
    /// `project(&self.whiten_with(data, pool)?, axes)` (both paths reduce
    /// each dot product over the same ascending coordinate order), and
    /// bit-identical at any pool size (rows are independent; chunk
    /// boundaries are fixed).
    ///
    /// No production code calls it: guided exploration whitens once per
    /// call and projects every candidate from that matrix. It stays as
    /// the reference those scores are tested against, and as a timing
    /// probe.
    pub fn whiten_project_with(
        &self,
        data: &Matrix,
        axes: &Matrix,
        pool: &ThreadPool,
    ) -> Result<Matrix> {
        let (n, d) = data.shape();
        if n != self.n() || d != self.d || axes.cols() != d {
            return Err(crate::MaxEntError::BadDirection {
                expected: self.d,
                got: if axes.cols() != d { axes.cols() } else { d },
            });
        }
        let k = axes.rows();
        let mut out = Matrix::zeros(n, k);
        // d² (whiten) + k·d (project) multiply-adds per row; tiny
        // datasets run inline.
        let pool = pool.gated(n.saturating_mul(d * d + k * d));
        pool.par_chunks_mut(
            out.as_mut_slice(),
            ROW_CHUNK * k.max(1),
            |chunk_idx, rows| {
                let mut centered = vec![0.0; d];
                let mut y = vec![0.0; d];
                for (off, out_row) in rows.chunks_mut(k).enumerate() {
                    let i = chunk_idx * ROW_CHUNK + off;
                    let class = &self.classes[self.class_of_row(i)];
                    for ((c, &x), &m) in centered.iter_mut().zip(data.row(i)).zip(&class.m) {
                        *c = x - m;
                    }
                    class.whiten.matvec_into(&centered, &mut y);
                    axes.matvec_into(&y, out_row);
                }
            },
        );
        Ok(out)
    }

    /// Relative entropy `KL(N(m_i, Σ_i) ‖ N(0, I))` of one row's Gaussian
    /// from the prior — how far the belief about row `i` has moved from
    /// "know nothing". This is exactly `−S` restricted to row `i`, where
    /// `S` is the entropy the paper's Problem 1 maximizes (Eq. 5), so it
    /// quantifies in nats *how much the user's feedback constrained the
    /// model*. Closed form: `½(tr Σ + ‖m‖² − d − log det Σ)`.
    ///
    /// Collapsed directions contribute through `log det` only (their
    /// variance ≈ `1/λ_max` is still positive); fully relaxed round-off
    /// directions are clamped at the unit prior.
    pub fn kl_from_prior(&self, row: usize) -> f64 {
        let class = &self.classes[self.class_of_row(row)];
        let d = self.d as f64;
        let m2 = vector::norm2_sq(&class.m);
        let mut tr_sigma = 0.0;
        let mut log_det_sigma = 0.0;
        for &ev in &class.prec_evals {
            let ev = ev.max(EVAL_FLOOR);
            tr_sigma += 1.0 / ev;
            log_det_sigma -= ev.ln();
        }
        0.5 * (tr_sigma + m2 - d - log_det_sigma)
    }

    /// Total relative entropy of the background distribution from the
    /// prior, summed over rows (rows are independent, so KL adds). Zero
    /// before any constraint; grows monotonically as knowledge accumulates.
    pub fn total_kl_from_prior(&self) -> f64 {
        let mut per_class = vec![0.0; self.classes.len()];
        let mut counted = vec![false; self.classes.len()];
        let mut total = 0.0;
        let mut counts = vec![0usize; self.classes.len()];
        for &c in &self.class_of_row {
            counts[c as usize] += 1;
        }
        for row in 0..self.n() {
            let c = self.class_of_row(row);
            if !counted[c] {
                per_class[c] = self.kl_from_prior(row);
                counted[c] = true;
            }
        }
        for (c, &kl) in per_class.iter().enumerate() {
            total += kl * counts[c] as f64;
        }
        total
    }

    /// Draw one dataset: row `i` sampled from `N(m_i, Σ_i)` via the
    /// spectral factor `x = m + U·D^{-1/2}·z`.
    ///
    /// Row `i`'s normals come from the counter-seeded RNG substream
    /// `(master, i)`, where `master` is one draw from `rng` — so the
    /// caller's generator advances exactly once per dataset and the output
    /// depends only on the generator state, never on how rows are
    /// scheduled. Equivalent to `sample_with` on a serial pool.
    pub fn sample(&self, rng: &mut Rng) -> Matrix {
        self.sample_with(rng, &ThreadPool::serial())
    }

    /// [`BackgroundDistribution::sample`] with row chunks distributed over
    /// `pool`. Per-row substreams make parallel draws deterministic and
    /// bit-identical at any pool size; chunk-local `z` scratch buffers and
    /// [`Matrix::matvec_into`] straight into the output row slice keep the
    /// whole loop allocation-free per row.
    ///
    /// Box–Muller produces normals in pairs, so an odd `d` would waste
    /// the second output of each row's final pair. The chunk scratch
    /// carries that spare into the next row's first coordinate instead —
    /// deterministically, because chunk boundaries are fixed
    /// (`ROW_CHUNK`, never derived from the thread count): row `i`'s
    /// normals depend only on `(master, i)` and on whether `i` is
    /// chunk-first/odd/even, never on scheduling. This restores the
    /// transform count of a single shared stream (the PR-1 baseline) for
    /// small odd `d`, where the wasted pair was a measurable regression.
    pub fn sample_with(&self, rng: &mut Rng, pool: &ThreadPool) -> Matrix {
        self.sample_from_seed(rng.next_u64(), pool)
    }

    /// [`BackgroundDistribution::sample_with`] for a caller that drew its
    /// one `u64` itself: the rows draw from substreams of `master`.
    pub fn sample_from_seed(&self, master: u64, pool: &ThreadPool) -> Matrix {
        let n = self.n();
        let d = self.d;
        let mut out = Matrix::zeros(n, d);
        // One d×d matvec (plus d normals) per row; tiny datasets run inline.
        let pool = pool.gated(n.saturating_mul(d * d));
        pool.par_chunks_mut(
            out.as_mut_slice(),
            ROW_CHUNK * d.max(1),
            |chunk_idx, rows| {
                let mut z = vec![0.0; d];
                let mut carried: Option<f64> = None;
                for (off, out_row) in rows.chunks_mut(d).enumerate() {
                    let i = chunk_idx * ROW_CHUNK + off;
                    let class = &self.classes[self.class_of_row(i)];
                    let mut row_rng = Rng::substream(master, i as u64);
                    let mut zs = z.iter_mut().zip(&class.sample_scale);
                    if let Some(spare) = carried.take() {
                        if let Some((zk, &s)) = zs.next() {
                            *zk = spare * s;
                        }
                    }
                    for (zk, &s) in zs {
                        *zk = row_rng.standard_normal() * s;
                    }
                    carried = row_rng.take_spare_normal();
                    class.u.matvec_into(&z, out_row);
                    vector::axpy(1.0, &class.m, out_row);
                }
            },
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::margin_constraints;
    use crate::solver::{FitOpts, Solver};

    #[test]
    fn prior_whitening_is_identity() {
        let data = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 0.25], vec![3.0, 0.0]]);
        let bg = BackgroundDistribution::prior(3, 2);
        let y = bg.whiten(&data).unwrap();
        assert!(y.max_abs_diff(&data) < 1e-12);
    }

    #[test]
    fn prior_samples_are_standard_normal() {
        let bg = BackgroundDistribution::prior(20_000, 2);
        let mut rng = Rng::seed_from_u64(1);
        let s = bg.sample(&mut rng);
        let stats = sider_stats::descriptive::column_stats(&s);
        for cs in stats {
            assert!(cs.mean.abs() < 0.03, "mean {}", cs.mean);
            assert!((cs.sd - 1.0).abs() < 0.03, "sd {}", cs.sd);
        }
    }

    #[test]
    fn fitted_margins_reflected_in_samples() {
        // Columns with mean 3 / sd 2 and mean -1 / sd 0.5.
        let mut rng = Rng::seed_from_u64(2);
        let n = 400;
        let data = Matrix::from_fn(n, 2, |_, j| {
            if j == 0 {
                rng.normal(3.0, 2.0)
            } else {
                rng.normal(-1.0, 0.5)
            }
        });
        let mut solver = Solver::new(&data, margin_constraints(&data).unwrap()).unwrap();
        solver.fit(&FitOpts {
            lambda_tol: 1e-8,
            moment_tol: 1e-8,
            max_sweeps: 1000,
            ..FitOpts::default()
        });
        let bg = solver.distribution();
        let mut rng2 = Rng::seed_from_u64(3);
        // Average moments over several sampled datasets.
        let mut means = [0.0f64; 2];
        let mut vars = [0.0f64; 2];
        let reps = 50;
        for _ in 0..reps {
            let s = bg.sample(&mut rng2);
            let st = sider_stats::descriptive::column_stats(&s);
            for j in 0..2 {
                means[j] += st[j].mean;
                vars[j] += st[j].sd * st[j].sd;
            }
        }
        for j in 0..2 {
            means[j] /= reps as f64;
            vars[j] /= reps as f64;
        }
        let data_stats = sider_stats::descriptive::column_stats(&data);
        for j in 0..2 {
            assert!(
                (means[j] - data_stats[j].mean).abs() < 0.1,
                "col {j}: {} vs {}",
                means[j],
                data_stats[j].mean
            );
            let dv = data_stats[j].sd * data_stats[j].sd;
            assert!(
                (vars[j] - dv).abs() / dv < 0.1,
                "col {j}: var {} vs {}",
                vars[j],
                dv
            );
        }
    }

    #[test]
    fn whitened_background_samples_are_spherical() {
        // Fit margins on scaled data, sample from the fitted background,
        // whiten the sample: per-column mean ≈ 0, sd ≈ 1.
        let mut rng = Rng::seed_from_u64(4);
        let data = Matrix::from_fn(5000, 3, |_, j| rng.normal(j as f64, (j + 1) as f64));
        let mut solver = Solver::new(&data, margin_constraints(&data).unwrap()).unwrap();
        solver.fit(&FitOpts {
            lambda_tol: 1e-8,
            moment_tol: 1e-8,
            max_sweeps: 1000,
            ..FitOpts::default()
        });
        let bg = solver.distribution();
        let mut rng2 = Rng::seed_from_u64(5);
        let sample = bg.sample(&mut rng2);
        let y = bg.whiten(&sample).unwrap();
        for cs in sider_stats::descriptive::column_stats(&y) {
            assert!(cs.mean.abs() < 0.05, "mean {}", cs.mean);
            assert!((cs.sd - 1.0).abs() < 0.05, "sd {}", cs.sd);
        }
    }

    #[test]
    fn kl_from_prior_zero_at_prior_and_matches_closed_form() {
        let bg = BackgroundDistribution::prior(5, 3);
        assert!(bg.kl_from_prior(0).abs() < 1e-12);
        assert!(bg.total_kl_from_prior().abs() < 1e-12);

        // Margin-fitted: per-row KL = ½ Σ_j (σ_j² + μ_j² − 1 − ln σ_j²).
        let mut rng = Rng::seed_from_u64(41);
        let data = Matrix::from_fn(2000, 2, |_, j| {
            rng.normal(1.0 + j as f64, 2.0 - j as f64 * 0.5)
        });
        let mut solver = Solver::new(&data, margin_constraints(&data).unwrap()).unwrap();
        solver.fit(&FitOpts {
            lambda_tol: 1e-10,
            moment_tol: 1e-10,
            max_sweeps: 2000,
            ..FitOpts::default()
        });
        let bg = solver.distribution();
        let stats = sider_stats::descriptive::column_stats(&data);
        let n = data.rows() as f64;
        let mut expected = 0.0;
        for s in &stats {
            // Population variance (the constraint targets use /n).
            let var = s.sd * s.sd * (n - 1.0) / n;
            expected += 0.5 * (var + s.mean * s.mean - 1.0 - var.ln());
        }
        let got = bg.kl_from_prior(0);
        assert!(
            (got - expected).abs() < 1e-6,
            "KL {got} vs closed form {expected}"
        );
        assert!((bg.total_kl_from_prior() - expected * n).abs() < 1e-3 * expected * n);
    }

    #[test]
    fn kl_grows_as_knowledge_accumulates() {
        // More constraints ⇒ lower maximum entropy ⇒ larger divergence
        // from the prior.
        let mut rng = Rng::seed_from_u64(43);
        let data = Matrix::from_fn(60, 3, |i, _| {
            rng.normal(if i < 30 { 2.0 } else { -2.0 }, 0.7)
        });
        let opts = FitOpts::default();

        let mut s1 = Solver::new(&data, margin_constraints(&data).unwrap()).unwrap();
        s1.fit(&opts);
        let kl_margins = s1.distribution().total_kl_from_prior();

        let mut cs = margin_constraints(&data).unwrap();
        cs.extend(
            crate::constraint::cluster_constraints(
                &data,
                crate::rowset::RowSet::from_indices(&(0..30).collect::<Vec<_>>()),
                "c",
            )
            .unwrap(),
        );
        let mut s2 = Solver::new(&data, cs).unwrap();
        s2.fit(&opts);
        let kl_full = s2.distribution().total_kl_from_prior();

        assert!(kl_margins > 0.0);
        assert!(
            kl_full > kl_margins,
            "KL must grow: {kl_margins} → {kl_full}"
        );
    }

    #[test]
    fn collapsed_directions_whiten_and_sample_to_zero() {
        // A cluster of 2 points in 2-D: the orthogonal direction gets a
        // zero-variance quadratic constraint whose λ clamps — the
        // background variance collapses. Whitening must not amplify
        // optimizer residuals there.
        use crate::constraint::cluster_constraints;
        use crate::rowset::RowSet;
        let data = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![3.0, 3.0],
            vec![4.0, 2.0],
        ]);
        let cs = cluster_constraints(&data, RowSet::from_indices(&[0, 1]), "c").unwrap();
        let mut solver = Solver::new(&data, cs).unwrap();
        solver.fit(&FitOpts::default());
        let bg = solver.distribution();
        let y = bg.whiten(&data).unwrap();
        assert!(y.is_finite());
        assert!(y.max_abs() < 1e3, "whitening amplified artifacts: {y:?}");
        // Samples for the collapsed rows stay pinned near their mean along
        // the collapsed (1,1)/√2 direction.
        let mut rng = Rng::seed_from_u64(8);
        let s = bg.sample(&mut rng);
        for i in [0usize, 1] {
            let along = (s[(i, 0)] + s[(i, 1)]) / 2.0_f64.sqrt();
            let mean_along = (bg.mean(i)[0] + bg.mean(i)[1]) / 2.0_f64.sqrt();
            assert!((along - mean_along).abs() < 1e-3, "row {i}");
        }
    }

    /// Allocation-per-row reference sampler: same per-row substreams and
    /// the same chunk-local Box–Muller spare carry, but the
    /// straightforward `matvec` + `set_row` formulation with per-row
    /// allocations. The scratch-buffer kernel must reproduce it bit for
    /// bit — reusing buffers is a pure optimization.
    fn sample_reference(
        bg: &BackgroundDistribution,
        params: &[ClassParams],
        rng: &mut Rng,
    ) -> Matrix {
        let master = rng.next_u64();
        let n = bg.n();
        let d = bg.d();
        let mut out = Matrix::zeros(n, d);
        // The spare of a row's last Box–Muller pair seeds the next row's
        // first normal, resetting at the fixed chunk boundaries.
        let mut carried: Option<f64> = None;
        for i in 0..n {
            if i % ROW_CHUNK == 0 {
                carried = None;
            }
            let class_mean = bg.mean(i).to_vec();
            let mut row_rng = Rng::substream(master, i as u64);
            let mut z = vec![0.0; d];
            for (k, zk) in z.iter_mut().enumerate() {
                *zk = match (k, carried.take()) {
                    (0, Some(spare)) => spare,
                    _ => row_rng.standard_normal(),
                };
            }
            carried = row_rng.take_spare_normal();
            // Rebuild the scaled spectral draw from the fitted parameters:
            // x = m + U·(z ⊙ scale). The test helper recomputes U and the
            // scales from the precision like ClassModel does.
            let eig = SymEigen::decompose(&params[bg.class_of_row(i)].prec).unwrap();
            let mut scaled = vec![0.0; d];
            for k in 0..d {
                let ev = eig.values[k].max(0.0);
                let s = if ev >= EVAL_COLLAPSED {
                    0.0
                } else if ev > EVAL_FLOOR {
                    1.0 / ev.sqrt()
                } else {
                    1.0
                };
                scaled[k] = z[k] * s;
            }
            let mut x = eig.vectors.matvec(&scaled);
            vector::axpy(1.0, &class_mean, &mut x);
            out.set_row(i, &x);
        }
        out
    }

    #[test]
    fn scratch_buffer_sampling_output_unchanged_vs_reference() {
        // n = 600 spans three ROW_CHUNK chunks, so the spare carry resets
        // at two interior chunk boundaries; odd d = 3 exercises the carry
        // on every row.
        let mut rng = Rng::seed_from_u64(71);
        let data = Matrix::from_fn(600, 3, |_, j| rng.normal(j as f64, 1.0 + j as f64));
        let mut solver = Solver::new(&data, margin_constraints(&data).unwrap()).unwrap();
        solver.fit(&FitOpts::default());
        let bg = solver.distribution();
        let mut rng_a = Rng::seed_from_u64(9);
        let mut rng_b = Rng::seed_from_u64(9);
        let fast = bg.sample(&mut rng_a);
        let reference = sample_reference(&bg, solver.class_params(), &mut rng_b);
        assert_eq!(
            fast.as_slice(),
            reference.as_slice(),
            "scratch-buffer kernel changed the sampled bytes"
        );
        // The caller's generator advanced identically on both paths.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn sample_bit_identical_across_pool_sizes() {
        // n·d² above the dispatch gate so multi-thread pools really fan
        // out; d = 5 (odd) additionally pins the Box–Muller spare carry
        // to the fixed chunk layout, d = 4 the carry-free path.
        for d in [4usize, 5] {
            let bg = BackgroundDistribution::prior(12_000, d);
            let serial = bg.sample(&mut Rng::seed_from_u64(3));
            for threads in [2usize, 4] {
                let pool = sider_par::ThreadPool::new(threads);
                let par = bg.sample_with(&mut Rng::seed_from_u64(3), &pool);
                assert_eq!(serial.as_slice(), par.as_slice(), "d={d} {threads} threads");
            }
        }
    }

    #[test]
    fn whiten_bit_identical_across_pool_sizes() {
        // n·d² above the dispatch gate so multi-thread pools really fan out.
        let mut rng = Rng::seed_from_u64(90);
        let data = Matrix::from_fn(6000, 5, |_, j| rng.normal(j as f64, 2.0));
        let mut solver = Solver::new(&data, margin_constraints(&data).unwrap()).unwrap();
        solver.fit(&FitOpts::default());
        let bg = solver.distribution();
        let serial = bg.whiten(&data).unwrap();
        for threads in [2usize, 4] {
            let pool = sider_par::ThreadPool::new(threads);
            let par = bg.whiten_with(&data, &pool).unwrap();
            assert_eq!(serial.as_slice(), par.as_slice(), "{threads} threads");
        }
    }

    #[test]
    fn fused_whitened_moment_bitwise_matches_two_pass() {
        // n = 1500 spans several MOMENT_ROW_CHUNK boundaries so the fused
        // Gram reduction exercises the same chunk tree as the two-pass
        // formulation it must reproduce bit for bit.
        let mut rng = Rng::seed_from_u64(101);
        let data = Matrix::from_fn(1500, 4, |_, j| rng.normal(j as f64 - 1.0, 1.0 + j as f64));
        let mut solver = Solver::new(&data, margin_constraints(&data).unwrap()).unwrap();
        solver.fit(&FitOpts::default());
        let bg = solver.distribution();
        let serial = sider_par::ThreadPool::serial();
        let two_pass = sider_stats::descriptive::second_moment_with(
            &bg.whiten_with(&data, &serial).unwrap(),
            &serial,
        );
        for threads in [1usize, 2, 4] {
            let pool = sider_par::ThreadPool::new(threads);
            let fused = bg.whitened_second_moment_with(&data, &pool).unwrap();
            assert_eq!(
                fused.as_slice(),
                two_pass.as_slice(),
                "{threads} threads: fused moment changed the bytes"
            );
        }
        // Shape mismatches are rejected like whiten's.
        assert!(bg
            .whitened_second_moment_with(&Matrix::zeros(3, 4), &serial)
            .is_err());
    }

    #[test]
    fn fused_whiten_project_bitwise_matches_two_pass() {
        let mut rng = Rng::seed_from_u64(102);
        let data = Matrix::from_fn(900, 3, |_, j| rng.normal(j as f64, 1.5));
        let mut solver = Solver::new(&data, margin_constraints(&data).unwrap()).unwrap();
        solver.fit(&FitOpts::default());
        let bg = solver.distribution();
        let axes = Matrix::from_fn(2, 3, |i, j| rng.normal((i + j) as f64 * 0.1, 1.0));
        let serial = sider_par::ThreadPool::serial();
        let two_pass = bg
            .whiten_with(&data, &serial)
            .unwrap()
            .matmul(&axes.transpose());
        for threads in [1usize, 2, 4] {
            let pool = sider_par::ThreadPool::new(threads);
            let fused = bg.whiten_project_with(&data, &axes, &pool).unwrap();
            assert_eq!(
                fused.as_slice(),
                two_pass.as_slice(),
                "{threads} threads: fused projection changed the bytes"
            );
        }
        // Axis dimensionality mismatch is rejected.
        assert!(bg
            .whiten_project_with(&data, &Matrix::zeros(2, 5), &serial)
            .is_err());
    }

    #[test]
    fn wide_class_cold_decomposition_deterministic_across_pools() {
        // d = 36 puts the per-class cold decompositions on the
        // divide-and-conquer path of `SymEigen::decompose`; the per-class
        // fan-out of `from_class_params_with` must stay bit-identical at
        // any pool size, as must the whiten/sample kernels built on top.
        let d = 36;
        let n_classes = 6;
        let mut rng = Rng::seed_from_u64(103);
        let params: Vec<ClassParams> = (0..n_classes)
            .map(|c| {
                let r = rng.standard_normal_matrix(d, d);
                let mut prec = r.gram().scale(0.05);
                prec.add_assign_scaled(1.0, &Matrix::identity(d));
                let mut p = ClassParams::prior(d, 4);
                p.m = (0..d).map(|j| (c + j) as f64 * 0.01).collect();
                p.prec = prec;
                p
            })
            .collect();
        let class_of_row: Vec<u32> = (0..24).map(|i| (i % n_classes) as u32).collect();
        let data = Matrix::from_fn(24, d, |i, j| {
            rng.normal((i % 3) as f64, 1.0 + j as f64 * 0.01)
        });
        let build = |threads: usize| {
            let pool = sider_par::ThreadPool::new(threads);
            let bg = BackgroundDistribution::from_class_params_with(
                d,
                class_of_row.clone(),
                &params,
                &pool,
            );
            let y = bg.whiten_with(&data, &pool).unwrap();
            let s = bg.sample_with(&mut Rng::seed_from_u64(7), &pool);
            (y, s)
        };
        let (y1, s1) = build(1);
        for threads in [2usize, 4] {
            let (y, s) = build(threads);
            assert_eq!(y1.as_slice(), y.as_slice(), "whiten, {threads} threads");
            assert_eq!(s1.as_slice(), s.as_slice(), "sample, {threads} threads");
        }
    }

    #[test]
    fn parallel_construction_and_refresh_match_serial() {
        let mut rng = Rng::seed_from_u64(55);
        let data = Matrix::from_fn(80, 3, |_, j| rng.normal(0.0, 1.0 + j as f64));
        let mut cs = margin_constraints(&data).unwrap();
        cs.extend(
            crate::constraint::cluster_constraints(
                &data,
                crate::rowset::RowSet::from_indices(&(0..20).collect::<Vec<_>>()),
                "c",
            )
            .unwrap(),
        );
        let mut solver = Solver::new(&data, cs).unwrap();
        solver.fit(&FitOpts::default());
        let pool = sider_par::ThreadPool::new(4);
        let serial = solver.distribution();
        let par = BackgroundDistribution::from_class_params_with(
            serial.d(),
            (0..serial.n())
                .map(|i| serial.class_of_row(i) as u32)
                .collect(),
            solver.class_params(),
            &pool,
        );
        assert_eq!(
            serial.whiten(&data).unwrap().as_slice(),
            par.whiten(&data).unwrap().as_slice()
        );
        for row in 0..serial.n() {
            assert_eq!(serial.mean(row), par.mean(row));
            assert_eq!(
                serial.kl_from_prior(row).to_bits(),
                par.kl_from_prior(row).to_bits()
            );
        }
        // Refresh with every class marked cov-dirty: parallel and serial
        // paths must agree bit for bit (and report the same stats).
        let n_classes = solver.class_params().len();
        let parents: Vec<u32> = (0..n_classes as u32).collect();
        let all_dirty = vec![true; n_classes];
        let no_mean = vec![false; n_classes];
        let class_of_row: Vec<u32> = (0..serial.n())
            .map(|i| serial.class_of_row(i) as u32)
            .collect();
        let mut a = serial.clone();
        let mut b = serial.clone();
        let stats_a = a.refresh_from_class_params_with(
            class_of_row.clone(),
            solver.class_params(),
            &parents,
            &no_mean,
            &all_dirty,
            &sider_par::ThreadPool::serial(),
        );
        let stats_b = b.refresh_from_class_params_with(
            class_of_row,
            solver.class_params(),
            &parents,
            &no_mean,
            &all_dirty,
            &pool,
        );
        assert_eq!(stats_a, stats_b);
        assert_eq!(stats_a.eigen_recomputed, n_classes);
        let mut rng_a = Rng::seed_from_u64(1);
        let mut rng_b = Rng::seed_from_u64(1);
        assert_eq!(
            a.sample(&mut rng_a).as_slice(),
            b.sample(&mut rng_b).as_slice()
        );
    }

    #[test]
    fn whiten_rejects_wrong_shape() {
        let bg = BackgroundDistribution::prior(3, 2);
        let wrong = Matrix::zeros(3, 5);
        assert!(bg.whiten(&wrong).is_err());
        let wrong_rows = Matrix::zeros(4, 2);
        assert!(bg.whiten(&wrong_rows).is_err());
    }

    #[test]
    fn accessors_expose_parameters() {
        let bg = BackgroundDistribution::prior(4, 2);
        assert_eq!(bg.n(), 4);
        assert_eq!(bg.d(), 2);
        assert_eq!(bg.n_classes(), 1);
        assert_eq!(bg.class_of_row(3), 0);
        assert_eq!(bg.mean(0), &[0.0, 0.0]);
        assert_eq!(bg.kl_from_prior(0), 0.0);
    }
}
