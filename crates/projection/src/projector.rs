//! The "most informative 2-D projection" facade.
//!
//! Given whitened data, pick the two directions in which it deviates most
//! from the spherical unit Gaussian — by PCA variance divergence or by
//! FastICA non-Gaussianity — and package them for display.

use crate::axes::axis_label;
use crate::ica::{fastica_with, IcaOpts};
use crate::pca::pca_directions_with;
use crate::Result;
use sider_linalg::Matrix;
use sider_par::ThreadPool;
use sider_stats::Rng;

/// Projection-pursuit method selector.
#[derive(Debug, Clone, Default)]
pub enum Method {
    /// Variance-divergence PCA (paper §II-C, footnote 1).
    #[default]
    Pca,
    /// FastICA with the given options.
    Ica(IcaOpts),
}

impl Method {
    /// Axis-label prefix ("PCA" / "ICA").
    pub fn prefix(&self) -> &'static str {
        match self {
            Method::Pca => "PCA",
            Method::Ica(_) => "ICA",
        }
    }
}

/// A 2-D projection chosen by projection pursuit.
#[derive(Debug, Clone)]
pub struct Projection {
    /// The two unit directions as rows (`2 × d`).
    pub axes: Matrix,
    /// Informativeness score of each axis.
    pub scores: [f64; 2],
    /// All component scores (diagnostics; Table I prints these).
    pub all_scores: Vec<f64>,
    /// Method prefix used ("PCA"/"ICA").
    pub method: &'static str,
}

impl Projection {
    /// Format the axis labels given column names.
    pub fn labels(&self, names: &[String], max_terms: usize) -> [String; 2] {
        [
            axis_label(
                &format!("{}1", self.method),
                self.scores[0],
                self.axes.row(0),
                names,
                max_terms,
            ),
            axis_label(
                &format!("{}2", self.method),
                self.scores[1],
                self.axes.row(1),
                names,
                max_terms,
            ),
        ]
    }
}

/// Package a [`crate::pca::PcaResult`] as a 2-D [`Projection`] — the PCA
/// arm of [`most_informative_projection_with`], shared with the fused
/// whiten+project view path in `sider_core` (which produces the
/// `PcaResult` from a fused second moment and never materializes the
/// whitened matrix).
pub fn projection_from_pca(p: crate::pca::PcaResult) -> Projection {
    let axes = p.top2();
    let s1 = p.scores.get(1).copied().unwrap_or(p.scores[0]);
    Projection {
        axes,
        scores: [p.scores[0], s1],
        all_scores: p.scores,
        method: "PCA",
    }
}

/// Find the most informative 2-D projection of (whitened) data, with the
/// heavy stages — PCA moment accumulation, ICA whitening and fixed-point
/// restarts — distributed over `pool`. Bit-identical at any pool size
/// (the crate-level determinism contract of `sider_par` plus per-restart
/// seeding in [`fastica_with`]).
///
/// For rank-1 situations the second axis duplicates the first (matching
/// `PcaResult::top2`); callers can inspect `scores[1]` to detect this.
pub fn most_informative_projection_with(
    whitened: &Matrix,
    method: &Method,
    rng: &mut Rng,
    pool: &ThreadPool,
) -> Result<Projection> {
    match method {
        Method::Pca => Ok(projection_from_pca(pca_directions_with(whitened, pool)?)),
        Method::Ica(opts) => {
            let res = fastica_with(whitened, opts, rng, pool)?;
            let d = whitened.cols();
            let mut axes = Matrix::zeros(2, d);
            axes.set_row(0, res.directions.row(0));
            let second = 1.min(res.directions.rows() - 1);
            axes.set_row(1, res.directions.row(second));
            let s1 = res.scores.get(1).copied().unwrap_or(res.scores[0]);
            Ok(Projection {
                axes,
                scores: [res.scores[0], s1],
                all_scores: res.scores,
                method: "ICA",
            })
        }
    }
}

/// Project data rows onto projection axes: returns `n × 2`.
pub fn project(data: &Matrix, axes: &Matrix) -> Matrix {
    data.matmul(&axes.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::default_names;

    fn most_informative_projection(
        data: &Matrix,
        method: &Method,
        rng: &mut Rng,
    ) -> Result<Projection> {
        most_informative_projection_with(data, method, rng, &ThreadPool::serial())
    }

    fn clustered_data(seed: u64) -> Matrix {
        let mut rng = Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..2000)
            .map(|_| {
                let c = if rng.bernoulli(0.5) { -3.0 } else { 3.0 };
                vec![
                    rng.normal(c, 0.4),
                    rng.normal(0.0, 1.0),
                    rng.normal(0.0, 1.0),
                ]
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn pca_projection_finds_cluster_axis() {
        let data = clustered_data(1);
        let mut rng = Rng::seed_from_u64(2);
        let p = most_informative_projection(&data, &Method::Pca, &mut rng).unwrap();
        // Cluster axis has variance ≈ 9 ≫ 1: must be the top direction.
        assert!(p.axes.row(0)[0].abs() > 0.95, "{:?}", p.axes.row(0));
        assert!(p.scores[0] > 1.0);
        assert_eq!(p.method, "PCA");
        assert_eq!(p.all_scores.len(), 3);
    }

    #[test]
    fn ica_projection_finds_cluster_axis() {
        let data = clustered_data(3);
        let mut rng = Rng::seed_from_u64(4);
        let p =
            most_informative_projection(&data, &Method::Ica(IcaOpts::default()), &mut rng).unwrap();
        assert!(p.axes.row(0)[0].abs() > 0.9, "{:?}", p.axes.row(0));
        assert_eq!(p.method, "ICA");
        assert!(p.scores[0].abs() > p.scores[1].abs() - 1e-12);
    }

    #[test]
    fn project_computes_dot_products() {
        let data = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let axes = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let p = project(&data, &axes);
        assert_eq!(p, data);
        let axes2 = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let p2 = project(&data, &axes2);
        assert_eq!(p2[(0, 0)], 2.0);
        assert_eq!(p2[(0, 1)], 1.0);
    }

    #[test]
    fn labels_are_formatted() {
        let data = clustered_data(5);
        let mut rng = Rng::seed_from_u64(6);
        let p = most_informative_projection(&data, &Method::Pca, &mut rng).unwrap();
        let labels = p.labels(&default_names(3), 0);
        assert!(labels[0].starts_with("PCA1["));
        assert!(labels[1].starts_with("PCA2["));
        assert!(labels[0].contains("(X1)"));
    }

    #[test]
    fn method_prefixes() {
        assert_eq!(Method::Pca.prefix(), "PCA");
        assert_eq!(Method::Ica(IcaOpts::default()).prefix(), "ICA");
    }

    #[test]
    fn projection_bit_identical_across_pool_sizes() {
        let data = clustered_data(8);
        for method in [
            Method::Pca,
            Method::Ica(IcaOpts {
                restarts: 3,
                ..IcaOpts::default()
            }),
        ] {
            let run = |threads: usize| {
                let pool = ThreadPool::new(threads);
                let mut rng = Rng::seed_from_u64(77);
                most_informative_projection_with(&data, &method, &mut rng, &pool).unwrap()
            };
            let serial = run(1);
            for threads in [2usize, 4] {
                let par = run(threads);
                assert_eq!(
                    serial.axes.as_slice(),
                    par.axes.as_slice(),
                    "{}: {threads} threads",
                    serial.method
                );
                assert_eq!(serial.all_scores, par.all_scores);
            }
        }
    }
}
