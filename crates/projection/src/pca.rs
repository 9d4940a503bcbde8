//! PCA-based informative directions.

use crate::error::ProjectionError;
use crate::Result;
use sider_linalg::{Matrix, SymEigen};
use sider_par::ThreadPool;
use sider_stats::descriptive::{covariance_with, second_moment_with};
use sider_stats::gaussianity::pca_score;

/// Principal directions with their variances and informativeness scores.
#[derive(Debug, Clone)]
pub struct PcaResult {
    /// Directions as rows (`d × d`, orthonormal).
    pub directions: Matrix,
    /// Variance of the analyzed data along each direction.
    pub variances: Vec<f64>,
    /// Informativeness score per direction.
    pub scores: Vec<f64>,
}

impl PcaResult {
    /// Direction `k` as a slice.
    pub fn direction(&self, k: usize) -> &[f64] {
        self.directions.row(k)
    }

    /// The two top-scoring directions as a `2 × d` matrix.
    pub fn top2(&self) -> Matrix {
        let d = self.directions.cols();
        let mut out = Matrix::zeros(2, d);
        out.set_row(0, self.directions.row(0));
        out.set_row(1, self.directions.row(1.min(self.directions.rows() - 1)));
        out
    }
}

/// Informative PCA view of whitened data (paper §II-C): eigendecompose the
/// **uncentered** second moment `YᵀY/n` and sort directions by
/// `(σ² − log σ² − 1)/2` descending. A mean shift away from 0 inflates the
/// second moment and is correctly treated as a deviation from the
/// background model.
pub fn pca_directions(y: &Matrix) -> Result<PcaResult> {
    pca_directions_with(y, &ThreadPool::serial())
}

/// [`pca_directions`] with the `O(n·d²)` second-moment accumulation
/// distributed over `pool`. The reduction folds fixed row chunks in chunk
/// order, so directions and scores are bit-identical at any pool size.
pub fn pca_directions_with(y: &Matrix, pool: &ThreadPool) -> Result<PcaResult> {
    if y.rows() == 0 || y.cols() == 0 {
        return Err(ProjectionError::EmptyData);
    }
    build(y.rows(), second_moment_with(y, pool), SortBy::Score)
}

/// [`pca_directions_with`] for callers that already hold the uncentered
/// second moment `YᵀY/n` — e.g. accumulated by a fused kernel without ever
/// materializing `Y` (the whitened-view path of `sider_core`). `n_rows`
/// is the row count the moment was accumulated over; it only feeds the
/// emptiness check. Bit-identical to `pca_directions_with(y, pool)` when
/// `moment == second_moment_with(y, pool)` bitwise.
pub fn pca_directions_from_moment(n_rows: usize, moment: Matrix) -> Result<PcaResult> {
    build(n_rows, moment, SortBy::Score)
}

/// Classic PCA (centered covariance, sorted by variance descending) — the
/// conventional "first two principal components" view used for reference
/// and for tests.
pub fn pca_classic(data: &Matrix) -> Result<PcaResult> {
    build(
        data.rows(),
        covariance_with(data, &ThreadPool::serial()),
        SortBy::Variance,
    )
}

enum SortBy {
    Score,
    Variance,
}

/// Whitened variances below this are "fully collapsed" directions: the
/// data carries no spread there at all (constant columns, or directions
/// pinned by clamped zero-variance constraints). Projecting onto them
/// shows a single point, so for *display* ranking they score zero even
/// though the raw KL score diverges.
const COLLAPSED_VARIANCE: f64 = 1e-9;

/// Information gain of a whitened direction with variance `sigma2`: the
/// KL divergence `(σ² − log σ² − 1)/2` to the unit Gaussian the
/// background model predicts there (paper footnote 1), clamped to zero
/// for fully collapsed directions (variance below `1e-9`) whose raw
/// score would diverge without carrying any visible spread.
///
/// This is the ranking functional shared by the PCA view ordering and
/// the `sider_suggest` candidate scorer.
pub fn display_score(sigma2: f64) -> f64 {
    if sigma2 < COLLAPSED_VARIANCE {
        0.0
    } else {
        pca_score(sigma2)
    }
}

fn build(n_rows: usize, moment: Matrix, sort: SortBy) -> Result<PcaResult> {
    let d = moment.rows();
    if n_rows == 0 || d == 0 {
        return Err(ProjectionError::EmptyData);
    }
    let eig = SymEigen::decompose(&moment)?;
    // Eigen is sorted by descending eigenvalue (= variance); re-sort by the
    // requested criterion.
    let mut idx: Vec<usize> = (0..d).collect();
    let scores: Vec<f64> = eig
        .values
        .iter()
        .map(|&v| display_score(v.max(0.0)))
        .collect();
    match sort {
        SortBy::Score => idx.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        }),
        SortBy::Variance => { /* already sorted by eigenvalue */ }
    }
    let mut directions = Matrix::zeros(d, d);
    let mut variances = Vec::with_capacity(d);
    let mut sorted_scores = Vec::with_capacity(d);
    for (row, &k) in idx.iter().enumerate() {
        let col = eig.vectors.col(k);
        directions.set_row(row, &col);
        variances.push(eig.values[k].max(0.0));
        sorted_scores.push(scores[k]);
    }
    Ok(PcaResult {
        directions,
        variances,
        scores: sorted_scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sider_stats::Rng;

    #[test]
    fn classic_pca_finds_max_variance_direction() {
        // Points spread along (1, 1).
        let mut rng = Rng::seed_from_u64(1);
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|_| {
                let t = rng.normal(0.0, 3.0);
                let noise = rng.normal(0.0, 0.1);
                vec![t + noise, t - noise]
            })
            .collect();
        let data = Matrix::from_rows(&rows);
        let p = pca_classic(&data).unwrap();
        let d0 = p.direction(0);
        let cos = (d0[0] + d0[1]).abs() / std::f64::consts::SQRT_2;
        assert!(cos > 0.999, "direction {d0:?}");
        assert!(p.variances[0] > p.variances[1]);
    }

    #[test]
    fn score_sorting_prefers_small_variance_over_near_unit() {
        // Column 0 ~ N(0,1) (score ~0), column 1 ~ N(0, 0.01) (large score).
        let mut rng = Rng::seed_from_u64(2);
        let data = Matrix::from_fn(2000, 2, |_, j| {
            if j == 0 {
                rng.normal(0.0, 1.0)
            } else {
                rng.normal(0.0, 0.1)
            }
        });
        let p = pca_directions(&data).unwrap();
        // Top direction must be the low-variance one (axis 1).
        assert!(p.direction(0)[1].abs() > 0.99, "{:?}", p.direction(0));
        assert!(p.scores[0] > p.scores[1]);
        assert!(p.variances[0] < 0.05);
    }

    #[test]
    fn unit_gaussian_scores_near_zero() {
        let mut rng = Rng::seed_from_u64(3);
        let data = rng.standard_normal_matrix(20_000, 3);
        let p = pca_directions(&data).unwrap();
        for &s in &p.scores {
            assert!(s < 5e-4, "score {s}");
        }
    }

    #[test]
    fn mean_shift_detected_via_second_moment() {
        // Data = N((5,0), I): classic PCA sees variance ~1 everywhere, but
        // the uncentered second moment flags the mean direction.
        let mut rng = Rng::seed_from_u64(4);
        let data = Matrix::from_fn(5000, 2, |_, j| {
            if j == 0 {
                rng.normal(5.0, 1.0)
            } else {
                rng.normal(0.0, 1.0)
            }
        });
        let p = pca_directions(&data).unwrap();
        assert!(p.direction(0)[0].abs() > 0.99);
        assert!(p.scores[0] > 5.0, "score {}", p.scores[0]);
    }

    #[test]
    fn directions_are_orthonormal() {
        let mut rng = Rng::seed_from_u64(5);
        let data = rng.standard_normal_matrix(200, 4);
        let p = pca_directions(&data).unwrap();
        let gram = p.directions.matmul(&p.directions.transpose());
        assert!(gram.max_abs_diff(&Matrix::identity(4)) < 1e-10);
    }

    #[test]
    fn top2_extracts_first_two_rows() {
        let mut rng = Rng::seed_from_u64(6);
        let data = rng.standard_normal_matrix(50, 3);
        let p = pca_directions(&data).unwrap();
        let t = p.top2();
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.row(0), p.direction(0));
        assert_eq!(t.row(1), p.direction(1));
    }

    #[test]
    fn one_dimensional_data_top2_duplicates() {
        let data = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let p = pca_directions(&data).unwrap();
        let t = p.top2();
        assert_eq!(t.shape(), (2, 1));
        assert_eq!(t.row(0), t.row(1));
    }

    #[test]
    fn empty_data_rejected() {
        assert!(matches!(
            pca_directions(&Matrix::zeros(0, 2)),
            Err(ProjectionError::EmptyData)
        ));
    }

    #[test]
    fn collapsed_direction_ranks_last() {
        // Column 1 is exactly constant zero: nothing to display there,
        // even though KL(0 ‖ 1) diverges.
        let mut rng = Rng::seed_from_u64(7);
        let data = Matrix::from_fn(
            500,
            2,
            |_, j| {
                if j == 0 {
                    rng.normal(0.0, 2.0)
                } else {
                    0.0
                }
            },
        );
        let p = pca_directions(&data).unwrap();
        assert!(p.direction(0)[0].abs() > 0.99, "{:?}", p.direction(0));
        assert_eq!(p.scores[1], 0.0);
        assert!(p.scores[0] > 0.5);
    }
}
