//! Descriptive statistics on slices and data matrices.

use sider_linalg::{vector, Matrix};

/// Arithmetic mean (0.0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    vector::mean(xs)
}

/// Unbiased sample variance (denominator `n − 1`); 0.0 when `n < 2`.
pub fn sample_variance(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n as f64 - 1.0)
}

/// Population variance (denominator `n`); 0.0 for empty input.
pub fn population_variance(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64
}

/// Sample standard deviation.
pub fn sample_sd(xs: &[f64]) -> f64 {
    sample_variance(xs).sqrt()
}

/// Standard deviation of the *flattened* data matrix — the paper's
/// convergence criterion compares moment changes against "the standard
/// deviation of the full data" (§II-A-2).
pub fn full_data_sd(data: &Matrix) -> f64 {
    sample_sd(data.as_slice())
}

/// Quantile with linear interpolation (`q ∈ [0, 1]`); panics on empty input.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level out of range");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pos = q * (sorted.len() as f64 - 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50 % quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Per-column summary of a data matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub mean: f64,
    pub sd: f64,
    pub min: f64,
    pub max: f64,
}

/// Column-wise statistics (sample sd).
pub fn column_stats(data: &Matrix) -> Vec<ColumnStats> {
    (0..data.cols())
        .map(|j| {
            let col = data.col(j);
            ColumnStats {
                mean: mean(&col),
                sd: sample_sd(&col),
                min: col.iter().cloned().fold(f64::INFINITY, f64::min),
                max: col.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            }
        })
        .collect()
}

/// Sample covariance matrix (denominator `n − 1`) of the rows of `data`,
/// with the moment accumulation distributed over `pool`.
///
/// Rows are reduced in fixed chunks of [`MOMENT_ROW_CHUNK`] whose partial
/// Gram matrices are folded in chunk order, so the result is bit-identical
/// at any pool size. Centering happens on the fly into a per-chunk scratch
/// row — the `n × d` centered copy the naive formulation materializes is
/// never allocated.
pub fn covariance_with(data: &Matrix, pool: &sider_par::ThreadPool) -> Matrix {
    let (n, d) = data.shape();
    if n < 2 {
        return Matrix::zeros(d, d);
    }
    let means = data.col_means();
    chunked_gram(data, Some(&means), pool).scale(1.0 / (n as f64 - 1.0))
}

/// Second-moment matrix `XᵀX / n` (uncentered) — used for the PCA view on
/// whitened data where deviations of the *mean* from zero are signal —
/// with the accumulation distributed over `pool` (bit-identical at any
/// pool size; see [`covariance_with`]).
pub fn second_moment_with(data: &Matrix, pool: &sider_par::ThreadPool) -> Matrix {
    let (n, d) = data.shape();
    if n == 0 {
        return Matrix::zeros(d, d);
    }
    chunked_gram(data, None, pool).scale(1.0 / n as f64)
}

/// Fixed row-chunk length of the parallel moment reductions. Chosen once
/// and never derived from the thread count: chunk boundaries define the
/// floating-point summation tree, and that tree must not move when the
/// pool grows.
pub const MOMENT_ROW_CHUNK: usize = 512;

/// Upper-triangle Gram accumulation `Σᵢ (xᵢ−c)(xᵢ−c)ᵀ` over row chunks,
/// partials folded in chunk order, mirrored to full symmetry at the end.
fn chunked_gram(data: &Matrix, center: Option<&[f64]>, pool: &sider_par::ThreadPool) -> Matrix {
    let (n, d) = data.shape();
    // d²/2 multiply-adds per row; small moments run inline (identical
    // result — the chunk tree is fixed either way).
    let pool = pool.gated(n.saturating_mul(d * d) / 2);
    let mut g = pool
        .map_reduce(
            n,
            MOMENT_ROW_CHUNK,
            |range| {
                let mut partial = Matrix::zeros(d, d);
                let mut scratch = vec![0.0; d];
                for i in range {
                    let row: &[f64] = match center {
                        Some(c) => {
                            for ((s, &x), &m) in scratch.iter_mut().zip(data.row(i)).zip(c) {
                                *s = x - m;
                            }
                            &scratch
                        }
                        None => data.row(i),
                    };
                    for a in 0..d {
                        let ra = row[a];
                        if ra == 0.0 {
                            continue;
                        }
                        let dst = &mut partial.row_mut(a)[a..];
                        for (acc, &rb) in dst.iter_mut().zip(&row[a..]) {
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
    g
}

/// Standardize columns to zero mean / unit sample sd. Constant columns are
/// centered but left unscaled. Returns the transformed matrix together with
/// the per-column (mean, sd) used.
pub fn standardize(data: &Matrix) -> (Matrix, Vec<(f64, f64)>) {
    let d = data.cols();
    let mut out = data.clone();
    let mut params = Vec::with_capacity(d);
    for j in 0..d {
        let col = data.col(j);
        let m = mean(&col);
        let sd = sample_sd(&col);
        let scale = if sd > 0.0 { 1.0 / sd } else { 1.0 };
        for i in 0..data.rows() {
            out[(i, j)] = (out[(i, j)] - m) * scale;
        }
        params.push((m, sd));
    }
    (out, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variances() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((population_variance(&xs) - 4.0).abs() < 1e-12);
        assert!((sample_variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(sample_variance(&[1.0]), 0.0);
        assert_eq!(sample_variance(&[]), 0.0);
        assert_eq!(population_variance(&[]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn median_odd_length() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn column_stats_summarize() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]);
        let s = column_stats(&m);
        assert_eq!(s[0].mean, 2.0);
        assert_eq!(s[1].min, 10.0);
        assert_eq!(s[1].max, 30.0);
        assert!((s[0].sd - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn parallel_moments_bit_identical_across_pool_sizes() {
        // Spans several MOMENT_ROW_CHUNK boundaries so the reduction tree
        // is actually exercised.
        let mut s = 7u64;
        // n·d²/2 above the dispatch gate so multi-thread pools really fan out.
        let data = Matrix::from_fn(MOMENT_ROW_CHUNK * 9 + 41, 8, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        });
        let sm1 = second_moment_with(&data, &sider_par::ThreadPool::serial());
        let cov1 = covariance_with(&data, &sider_par::ThreadPool::serial());
        for threads in [2usize, 4] {
            let pool = sider_par::ThreadPool::new(threads);
            assert_eq!(second_moment_with(&data, &pool), sm1, "{threads} threads");
            assert_eq!(covariance_with(&data, &pool), cov1, "{threads} threads");
        }
        // And the chunked path still agrees with the direct formulation.
        let direct = data
            .center_rows(&data.col_means())
            .gram()
            .scale(1.0 / (data.rows() as f64 - 1.0));
        assert!(cov1.max_abs_diff(&direct) < 1e-12);
    }

    #[test]
    fn covariance_of_independent_columns_is_diagonal() {
        let m = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![-1.0, 0.0],
            vec![0.0, 2.0],
            vec![0.0, -2.0],
        ]);
        let c = covariance_with(&m, &sider_par::ThreadPool::serial());
        assert!((c[(0, 0)] - 2.0 / 3.0).abs() < 1e-12);
        assert!((c[(1, 1)] - 8.0 / 3.0).abs() < 1e-12);
        assert!(c[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn covariance_handles_single_row() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0]]);
        assert_eq!(
            covariance_with(&m, &sider_par::ThreadPool::serial()),
            Matrix::zeros(2, 2)
        );
    }

    #[test]
    fn second_moment_vs_covariance_for_centered_data() {
        let m = Matrix::from_rows(&[vec![1.0, 1.0], vec![-1.0, -1.0]]);
        let sm = second_moment_with(&m, &sider_par::ThreadPool::serial());
        // centered data: second moment = population covariance
        assert!((sm[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((sm[(0, 1)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standardize_gives_zero_mean_unit_sd() {
        let m = Matrix::from_rows(&[vec![1.0, 7.0], vec![3.0, 7.0], vec![5.0, 7.0]]);
        let (s, params) = standardize(&m);
        let col0 = s.col(0);
        assert!(mean(&col0).abs() < 1e-12);
        assert!((sample_sd(&col0) - 1.0).abs() < 1e-12);
        // Constant column: centered, not scaled.
        assert_eq!(s.col(1), vec![0.0, 0.0, 0.0]);
        assert_eq!(params[1], (7.0, 0.0));
    }

    #[test]
    fn full_data_sd_flattens() {
        let m = Matrix::from_rows(&[vec![0.0, 0.0], vec![2.0, 2.0]]);
        assert!((full_data_sd(&m) - sample_sd(&[0.0, 0.0, 2.0, 2.0])).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        let _ = quantile(&[], 0.5);
    }
}
