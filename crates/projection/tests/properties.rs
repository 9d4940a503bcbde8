//! Property-based tests for projection pursuit.

use proptest::prelude::*;
use sider_linalg::{vector, Matrix};
use sider_projection::{fastica, pca_directions, IcaOpts};
use sider_stats::Rng;

/// Two independent non-Gaussian sources mixed by an arbitrary rotation.
fn mixed(n: usize, angle: f64, seed: u64) -> (Matrix, [f64; 2], [f64; 2]) {
    let mut rng = Rng::seed_from_u64(seed);
    let (c, s) = (angle.cos(), angle.sin());
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            let s1 = (rng.uniform() - 0.5) * 3.4641;
            let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
            let s2 = sign * (-(1.0 - rng.uniform()).ln()) / std::f64::consts::SQRT_2;
            vec![c * s1 - s * s2, s * s1 + c * s2]
        })
        .collect();
    (Matrix::from_rows(&rows), [c, s], [-s, c])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fastica_recovers_sources_for_any_rotation(
        angle in 0.1f64..1.47,
        seed in 0u64..500,
    ) {
        let (data, u1, u2) = mixed(8000, angle, seed);
        let mut rng = Rng::seed_from_u64(seed ^ 0xBEEF);
        let res = fastica(&data, &IcaOpts::default(), &mut rng).unwrap();
        for truth in [u1, u2] {
            let best = (0..2)
                .map(|k| {
                    vector::dot(res.directions.row(k), &truth).abs()
                        / vector::norm2(&truth)
                })
                .fold(0.0, f64::max);
            prop_assert!(best > 0.95, "angle {} alignment {}", angle, best);
        }
    }

    #[test]
    fn pca_directions_orthonormal_and_scores_sorted(seed in 0u64..500, d in 2usize..6) {
        let mut rng = Rng::seed_from_u64(seed);
        let data = Matrix::from_fn(200, d, |_, j| rng.normal(0.0, 1.0 + j as f64 * 0.5));
        let p = pca_directions(&data).unwrap();
        let gram = p.directions.matmul(&p.directions.transpose());
        prop_assert!(gram.max_abs_diff(&Matrix::identity(d)) < 1e-9);
        for w in p.scores.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        // Variance along each direction equals the claimed value.
        for k in 0..d {
            let dir = p.direction(k);
            let proj: Vec<f64> = (0..data.rows())
                .map(|i| vector::dot(data.row(i), dir))
                .collect();
            let second: f64 = proj.iter().map(|v| v * v).sum::<f64>() / proj.len() as f64;
            prop_assert!((second - p.variances[k]).abs() < 1e-8 * second.max(1.0));
        }
    }

    #[test]
    fn ica_sources_uncorrelated(seed in 0u64..200) {
        let (data, _, _) = mixed(4000, 0.7, seed);
        let mut rng = Rng::seed_from_u64(seed ^ 0xCAFE);
        let res = fastica(&data, &IcaOpts::default(), &mut rng).unwrap();
        let n = res.sources.rows() as f64;
        let corr: f64 = (0..res.sources.rows())
            .map(|i| res.sources[(i, 0)] * res.sources[(i, 1)])
            .sum::<f64>()
            / n;
        prop_assert!(corr.abs() < 0.05, "source correlation {}", corr);
    }
}
