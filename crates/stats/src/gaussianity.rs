//! Measures of deviation from the standard normal distribution.
//!
//! Two scores from the paper:
//!
//! * The **PCA score** of a direction with variance `σ²` is
//!   `(σ² − log σ² − 1)/2` — the KL divergence `KL(N(0,σ²) ‖ N(0,1))`
//!   (paper §II-C, footnote 1). It is zero iff `σ² = 1` and grows in both
//!   directions.
//! * The **ICA score** of a (unit-variance) projection `s` is the signed
//!   negentropy proxy `E[G(s)] − E[G(ν)]`, `ν ~ N(0,1)`, with the paper's
//!   log-cosh contrast `G(u) = log cosh u` — the bracketed numbers of
//!   Table I. The sign convention is:
//!   **positive for sub-Gaussian** directions (multi-modal cluster
//!   structure — exactly what the paper's views surface; Table I's initial
//!   scores are positive) and negative for super-Gaussian (heavy-tailed)
//!   directions. Non-zero either way means "not Gaussian, worth showing".

use std::sync::OnceLock;

/// PCA informativeness score `(σ² − log σ² − 1)/2` for a direction with
/// variance `sigma2` under the whitened data. Returns `+∞` for `σ² ≤ 0`
/// (a fully collapsed direction maximally contradicts the unit model).
pub fn pca_score(sigma2: f64) -> f64 {
    if sigma2 <= 0.0 {
        return f64::INFINITY;
    }
    0.5 * (sigma2 - sigma2.ln() - 1.0)
}

/// First and second derivatives `(g(u), g′(u))` of the paper's log-cosh
/// contrast `G(u) = log cosh u` (§II-C, α = 1), where `g = G′ = tanh` is
/// the FastICA non-linearity and `g′ = 1 − tanh²`. The tanh is evaluated
/// once and shared by both.
#[inline]
pub fn g_pair(u: f64) -> (f64, f64) {
    let t = u.tanh();
    (t, 1.0 - t * t)
}

/// `E[log cosh ν]` for `ν ~ N(0, 1)`, integrated numerically once and
/// cached.
pub fn gaussian_ln_cosh() -> f64 {
    static CACHE: OnceLock<f64> = OnceLock::new();
    *CACHE.get_or_init(|| gaussian_expectation_of(ln_cosh))
}

/// Numerically stable `log cosh(x)` (avoids overflow of `cosh` for |x| ≳ 710).
#[inline]
pub fn ln_cosh(x: f64) -> f64 {
    let a = x.abs();
    // log cosh x = |x| + log(1 + e^{-2|x|}) − log 2
    a + (-2.0 * a).exp().ln_1p() - std::f64::consts::LN_2
}

/// `E[f(ν)]` for `ν ~ N(0,1)` by composite Simpson integration over
/// `[−12, 12]` (the tail mass beyond is ≈ 1e−32).
pub fn gaussian_expectation_of(f: impl Fn(f64) -> f64) -> f64 {
    let a = -12.0;
    let b = 12.0;
    let n = 4800; // even
    let h = (b - a) / n as f64;
    let phi = |x: f64| (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let mut acc = f(a) * phi(a) + f(b) * phi(b);
    for i in 1..n {
        let x = a + i as f64 * h;
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        acc += w * f(x) * phi(x);
    }
    acc * h / 3.0
}

/// Signed ICA score of a sample: `mean(log cosh s) − E[log cosh ν]`.
///
/// The caller is responsible for standardizing `s` to zero mean and unit
/// variance (FastICA components already are).
pub fn negentropy_offset(s: &[f64]) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let mean_g = s.iter().map(|&u| ln_cosh(u)).sum::<f64>() / s.len() as f64;
    mean_g - gaussian_ln_cosh()
}

/// Standardize a sample to zero mean / unit (population) variance in place.
/// Constant samples are centered only.
pub fn standardize_inplace(s: &mut [f64]) {
    let n = s.len();
    if n == 0 {
        return;
    }
    let mean = s.iter().sum::<f64>() / n as f64;
    let var = s.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    let inv_sd = if var > 0.0 { 1.0 / var.sqrt() } else { 1.0 };
    for x in s.iter_mut() {
        *x = (*x - mean) * inv_sd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn pca_score_zero_at_unit_variance() {
        assert_eq!(pca_score(1.0), 0.0);
    }

    #[test]
    fn pca_score_positive_off_unity_and_symmetric_in_log() {
        assert!(pca_score(2.0) > 0.0);
        assert!(pca_score(0.5) > 0.0);
        // KL(N(0,σ²)‖N(0,1)) is not symmetric in σ² ↔ 1/σ², but both must
        // be positive and the larger deviation must score higher.
        assert!(pca_score(4.0) > pca_score(2.0));
        assert!(pca_score(0.1) > pca_score(0.5));
    }

    #[test]
    fn pca_score_collapsed_direction_is_infinite() {
        assert_eq!(pca_score(0.0), f64::INFINITY);
        assert_eq!(pca_score(-1.0), f64::INFINITY);
    }

    #[test]
    fn ln_cosh_matches_naive_for_moderate_x() {
        for &x in &[-3.0, -0.5, 0.0, 0.1, 2.0] {
            assert!((ln_cosh(x) - x.cosh().ln()).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn ln_cosh_no_overflow_for_huge_x() {
        let v = ln_cosh(1e4);
        assert!((v - (1e4 - std::f64::consts::LN_2)).abs() < 1e-9);
    }

    #[test]
    fn logcosh_gaussian_expectation_known_value() {
        // Literature value E[log cosh ν] ≈ 0.3746 (FastICA negentropy tables).
        let e = gaussian_ln_cosh();
        assert!((e - 0.37457).abs() < 1e-4, "got {e}");
    }

    #[test]
    fn derivatives_are_consistent() {
        // Finite differences of G match g; of g match g'.
        let h = 1e-6;
        for &u in &[-2.0, -0.3, 0.7, 1.9] {
            let (g, g_prime) = g_pair(u);
            let dg = (ln_cosh(u + h) - ln_cosh(u - h)) / (2.0 * h);
            assert!((dg - g).abs() < 1e-6, "u={u}");
            let dgp = (g_pair(u + h).0 - g_pair(u - h).0) / (2.0 * h);
            assert!((dgp - g_prime).abs() < 1e-5, "u={u}");
        }
    }

    #[test]
    fn g_pair_matches_separate_formulas_bitwise() {
        // The one-evaluation pair must reproduce the two separate
        // derivative formulas of the general log-cosh contrast at α = 1
        // bit for bit — signed zeros, subnormals and saturated tanh
        // included — because FastICA's fixed-point bytes depend on them.
        let alpha = 1.0_f64;
        let g = |u: f64| (alpha * u).tanh();
        let g_prime = |u: f64| {
            let t = (alpha * u).tanh();
            alpha * (1.0 - t * t)
        };
        let mut grid = vec![0.0, 1e-310, 0.5, 20.0, 800.0, 1e-3, 0.7, 1.9, 3.3, 38.5];
        grid.extend((0..64).map(|i| i as f64 * 0.37 - 4.1));
        let grid: Vec<f64> = grid.iter().flat_map(|&u| [u, -u]).collect();
        for &u in &grid {
            let (a, b) = g_pair(u);
            assert_eq!(a.to_bits(), g(u).to_bits(), "g({u:e})");
            assert_eq!(b.to_bits(), g_prime(u).to_bits(), "g'({u:e})");
        }
    }

    #[test]
    fn negentropy_near_zero_for_gaussian_sample() {
        let mut rng = Rng::seed_from_u64(123);
        let mut s = rng.standard_normal_vec(200_000);
        standardize_inplace(&mut s);
        let score = negentropy_offset(&s);
        assert!(score.abs() < 0.003, "score {score}");
    }

    #[test]
    fn negentropy_negative_for_super_gaussian_logcosh() {
        // Laplace-like: sign * exponential. With the log-cosh contrast,
        // heavy tails lower E[G] below the Gaussian reference.
        let mut rng = Rng::seed_from_u64(7);
        let mut s: Vec<f64> = (0..100_000)
            .map(|_| {
                let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
                sign * (-(1.0 - rng.uniform()).ln())
            })
            .collect();
        standardize_inplace(&mut s);
        let score = negentropy_offset(&s);
        assert!(score < -0.02, "score {score}");
    }

    #[test]
    fn negentropy_positive_for_sub_gaussian_logcosh() {
        // Uniform distribution is sub-Gaussian: E[log cosh] exceeds the
        // Gaussian reference (≈0.4154 vs ≈0.3746).
        let mut rng = Rng::seed_from_u64(8);
        let mut s: Vec<f64> = (0..100_000).map(|_| rng.uniform() - 0.5).collect();
        standardize_inplace(&mut s);
        let score = negentropy_offset(&s);
        assert!(score > 0.02, "score {score}");
    }

    #[test]
    fn bimodal_cluster_structure_scores_positive_logcosh() {
        // Two separated clusters along a line — what the ICA view hunts
        // for, and why Table I's initial scores are positive.
        let mut rng = Rng::seed_from_u64(9);
        let mut s: Vec<f64> = (0..50_000)
            .map(|_| {
                let c = if rng.bernoulli(0.5) { -2.0 } else { 2.0 };
                rng.normal(c, 0.3)
            })
            .collect();
        standardize_inplace(&mut s);
        let score = negentropy_offset(&s);
        assert!(score > 0.03, "score {score}");
    }

    #[test]
    fn standardize_inplace_moments() {
        let mut s = vec![10.0, 12.0, 14.0, 16.0];
        standardize_inplace(&mut s);
        let mean: f64 = s.iter().sum::<f64>() / 4.0;
        let var: f64 = s.iter().map(|x| x * x).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standardize_constant_sample() {
        let mut s = vec![3.0, 3.0];
        standardize_inplace(&mut s);
        assert_eq!(s, vec![0.0, 0.0]);
    }

    #[test]
    fn negentropy_empty_sample_is_zero() {
        assert_eq!(negentropy_offset(&[]), 0.0);
    }
}
